//! # molseq-bench — the experiment reproduction harness
//!
//! One module per evaluation artifact of the paper reproduction (see
//! `DESIGN.md` §4 for the experiment index and `EXPERIMENTS.md` for
//! recorded results):
//!
//! | id | artifact |
//! |----|----------|
//! | E1 | chemical clock oscillation (figure) |
//! | E2 | delay-element chain transfer (figure) |
//! | E3 | moving-average filter (figure) |
//! | E4 | binary counter (figure) |
//! | E5 | construct costs (table) |
//! | E6 | rate-ratio robustness sweep (figure) |
//! | E7 | per-reaction rate jitter (figure) |
//! | E8 | strand-displacement mapping (figure + table) |
//! | E9 | clocked vs self-timed latency (figure) |
//! | E10 | stochastic validity at small counts (figure) |
//! | E11 | strand-displacement leak robustness (figure) |
//! | E12 | filter frequency response (figure) |
//! | E13 | stiff clocked kinetics: implicit vs explicit tau-leaping (table) |
//! | E14 | hybrid ODE/SSA vs pure SSA vs implicit tau on the stiff clock (table) |
//! | A1 | ablation: sharpeners on/off |
//! | A2 | ablation: self vs cross-coupled feedback |
//!
//! Run everything with `cargo run --release -p molseq-bench --bin repro`,
//! or a single experiment with e.g. `… --bin repro e3`. The criterion
//! benches (`cargo bench`) print each report once and then time the
//! underlying simulation kernel.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod netlist_run;
pub mod report;
pub mod via_server;

pub use netlist_run::{netlist_builtin, netlist_from_file, run_netlist, NetlistSource};
pub use report::Report;
pub use via_server::run_via_server;

use molseq_crn::Crn;
use molseq_dsp::Filter;
use molseq_kinetics::{
    BatchedOdeWorkspace, CompiledCrn, MetricsSink, Replicator, Schedule, SimError, SimMetrics,
    SimSpec, Simulation, SsaOptions, State, StepHook, Trace,
};
use molseq_sweep::{
    GroupJob, JobBudget, JobCtx, JobError, SweepJob, SweepOptions, SweepSummary, SweepUnit,
};
use molseq_sync::{BatchCell, RunConfig, SyncError};
use std::cell::Cell;
use std::path::PathBuf;

/// How an experiment should be run: workload size, sweep parallelism,
/// per-cell budgets, and where (if anywhere) to persist sweep summaries.
///
/// The sweep-shaped experiments (E6/E7/E10/E11, A1/A2) fan their cells
/// out on the [`molseq_sweep`] engine; `jobs` sets its worker count. The
/// engine's per-cell results are deterministic in job order, so reports
/// are byte-identical whatever `jobs` is. `budget` is enforced *inside*
/// each cell's simulation via the integrators' step hooks
/// ([`molseq_kinetics::StepHook`]), so a runaway cell is cut off
/// mid-integration instead of only between cells.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ExpCtx {
    /// Reduced workload (used by tests and the criterion wrapper).
    pub quick: bool,
    /// Sweep worker threads: `0` = one per hardware thread, `1` = serial.
    pub jobs: usize,
    /// Per-cell cooperative budget (steps and/or wall time).
    pub budget: JobBudget,
    /// When set, each sweep's [`SweepSummary`] is persisted under this
    /// directory as `<id>.summary.json` and `<id>.summary.csv`.
    pub summary_dir: Option<PathBuf>,
    /// Lock-step batch width for the ODE sweep experiments: how many
    /// structurally identical cells advance together through one
    /// `molseq_kinetics::run_ode_batch` call. `0` or `1` = scalar cells;
    /// stochastic sweeps always run scalar cells. Results are
    /// bit-identical at any width; only the wall time and the
    /// `batch_width`/`lanes_retired` metrics change.
    pub batch: usize,
}

impl ExpCtx {
    /// Full workload, auto parallelism, unlimited budget.
    #[must_use]
    pub fn full() -> Self {
        ExpCtx {
            quick: false,
            ..ExpCtx::default()
        }
    }

    /// Reduced workload, auto parallelism, unlimited budget.
    #[must_use]
    pub fn quick() -> Self {
        ExpCtx {
            quick: true,
            ..ExpCtx::default()
        }
    }

    /// Sets the sweep worker count (builder style).
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Sets the per-cell budget (builder style).
    #[must_use]
    pub fn with_budget(mut self, budget: JobBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Sets the summary persistence directory (builder style).
    #[must_use]
    pub fn with_summary_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.summary_dir = Some(dir.into());
        self
    }

    /// Sets the lock-step batch width (builder style).
    #[must_use]
    pub fn with_batch(mut self, width: usize) -> Self {
        self.batch = width;
        self
    }

    /// The sweep-engine options this context implies.
    #[must_use]
    pub fn sweep_options(&self) -> SweepOptions {
        SweepOptions::default()
            .with_workers(self.jobs)
            .with_budget(self.budget)
            .with_batch_width(self.batch)
    }

    /// Persists `summary` as `<summary_dir>/<id>.summary.{json,csv}` when a
    /// summary directory is configured; a no-op otherwise. I/O failures are
    /// reported on stderr, not propagated — summary persistence must never
    /// fail an experiment.
    pub fn persist_summary(&self, id: &str, summary: &SweepSummary) {
        let Some(dir) = &self.summary_dir else {
            return;
        };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("warning: cannot create summary dir {}: {e}", dir.display());
            return;
        }
        for (ext, body) in [("json", summary.to_json()), ("csv", summary.to_csv())] {
            let path = dir.join(format!("{id}.summary.{ext}"));
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("warning: cannot write {}: {e}", path.display());
            }
        }
    }
}

/// Maps a harness error to the sweep's job-error taxonomy: a cooperative
/// interruption (step hook / budget) is [`JobError::BudgetExceeded`],
/// anything else a plain failure.
#[must_use]
pub fn sync_job_error(e: SyncError) -> JobError {
    match e {
        SyncError::Simulation(SimError::Interrupted { time, reason }) => {
            JobError::BudgetExceeded(format!("interrupted at t = {time}: {reason}"))
        }
        other => JobError::failed(other),
    }
}

/// Records every field of a simulator's [`SimMetrics`] as per-cell sweep
/// metrics, so every experiment's summary carries the same columns
/// (irrelevant counters are simply zero — an ODE cell reports
/// `ssa_events = 0`). Call it right after the simulation, *before* acting
/// on its result, so interrupted and failed cells still report the work
/// they did. The `seed` column is lossy above 2^53 (metrics are `f64`);
/// replicate labels carry the exact seed.
pub fn record_sim_metrics(job: &JobCtx, m: SimMetrics) {
    job.record_metric("ode_steps_accepted", m.ode_steps_accepted as f64);
    job.record_metric("ode_steps_rejected", m.ode_steps_rejected as f64);
    job.record_metric("lu_factorizations", m.lu_factorizations as f64);
    job.record_metric("dense_lu_fallbacks", m.dense_lu_fallbacks as f64);
    job.record_metric("ssa_events", m.ssa_events as f64);
    job.record_metric("tau_leaps", m.tau_leaps as f64);
    job.record_metric("tau_leaps_implicit", m.tau_leaps_implicit as f64);
    job.record_metric("newton_iterations", m.newton_iterations as f64);
    job.record_metric("leap_switchovers", m.leap_switchovers as f64);
    job.record_metric("hybrid_slow_events", m.hybrid_slow_events as f64);
    job.record_metric("hybrid_fast_steps", m.hybrid_fast_steps as f64);
    job.record_metric("hybrid_repartitions", m.hybrid_repartitions as f64);
    job.record_metric("final_time", m.final_time);
    job.record_metric("seed", m.seed as f64);
    job.record_metric("batch_width", m.batch_width as f64);
    job.record_metric("lanes_retired", m.lanes_retired as f64);
}

/// One cell of a batched filter grid: label, rate binding, and the
/// cycle-time hint the harness should start from.
pub type FilterGridCell = (String, SimSpec, f64);

/// Builds the sweep units for a rate grid over one filter: one lane per
/// spec, packed into lock-step [`GroupJob`]s of `width` consecutive cells
/// (the grouping is sound because every
/// [`CompiledCrn::rebind`] of `base` keeps the network's structural hash,
/// so all lanes share one Jacobian pattern). Width `0`/`1` — and any
/// leftover singleton chunk — fall back to plain scalar [`SweepJob`]s.
///
/// Per-cell labels, SplitMix64 seeds (global index order), step-hook
/// budgets, recorded [`SimMetrics`] columns and job-order results are all
/// preserved: a sweep built at any width reports the same cells in the
/// same order with bit-identical simulation results, so downstream
/// summaries differ only in wall time and in the `batch_width` /
/// `lanes_retired` columns.
///
/// `map` turns one cell's measured response into its sweep value; it
/// receives the cell's [`JobCtx`] (for index/seed-dependent work).
pub fn filter_grid_units<'a, T, F>(
    filter: &'a Filter,
    base: &'a CompiledCrn,
    samples: &'a [f64],
    specs: &'a [FilterGridCell],
    width: usize,
    map: F,
) -> Vec<SweepUnit<'a, T>>
where
    T: Send,
    F: Fn(&JobCtx, Vec<f64>) -> Result<T, JobError> + Send + Sync + Copy + 'a,
{
    let width = width.max(1);
    let scalar_unit = |cell: &'a FilterGridCell| {
        let (label, spec, hint) = cell;
        SweepUnit::Single(SweepJob::new(label.clone(), move |job| {
            let hook = job.step_hook();
            let sink = Cell::new(SimMetrics::default());
            let config = RunConfig {
                spec: spec.clone(),
                cycle_time_hint: *hint,
                step_hook: Some(&hook),
                metrics: Some(&sink),
                ..RunConfig::default()
            };
            let result = filter.respond_with(samples, &config, Some(&base.rebind(spec)));
            record_sim_metrics(job, sink.get());
            let measured = result.map_err(sync_job_error)?;
            map(job, measured)
        }))
    };
    specs
        .chunks(width)
        .flat_map(|chunk| {
            if chunk.len() < 2 {
                return chunk.iter().map(scalar_unit).collect::<Vec<_>>();
            }
            let labels = chunk.iter().map(|(label, _, _)| label.clone()).collect();
            vec![SweepUnit::Group(GroupJob::new(labels, move |ctxs| {
                let hooks: Vec<_> = ctxs.iter().map(JobCtx::step_hook).collect();
                let sinks: Vec<Cell<SimMetrics>> = ctxs
                    .iter()
                    .map(|_| Cell::new(SimMetrics::default()))
                    .collect();
                let rebound: Vec<CompiledCrn> =
                    chunk.iter().map(|(_, spec, _)| base.rebind(spec)).collect();
                let cells: Vec<BatchCell> = chunk
                    .iter()
                    .enumerate()
                    .map(|(k, (_, spec, hint))| BatchCell {
                        compiled: &rebound[k],
                        config: RunConfig {
                            spec: spec.clone(),
                            cycle_time_hint: *hint,
                            step_hook: Some(&hooks[k]),
                            metrics: Some(&sinks[k]),
                            ..RunConfig::default()
                        },
                    })
                    .collect();
                let mut workspace = BatchedOdeWorkspace::new();
                match filter.respond_batch(samples, &cells, &mut workspace) {
                    Ok(results) => results
                        .into_iter()
                        .zip(ctxs)
                        .zip(&sinks)
                        .map(|((result, job), sink)| {
                            record_sim_metrics(job, sink.get());
                            let measured = result.map_err(sync_job_error)?;
                            map(job, measured)
                        })
                        .collect(),
                    Err(shared) => {
                        for (job, sink) in ctxs.iter().zip(&sinks) {
                            record_sim_metrics(job, sink.get());
                        }
                        let err = sync_job_error(shared);
                        ctxs.iter().map(|_| Err(err.clone())).collect()
                    }
                }
            }))]
        })
        .collect()
}

/// Builds the sweep units for one stochastic replicate panel: `replicates`
/// scalar SSA runs of a single compiled network under `rep`'s seed
/// stream, each a [`SweepJob`] driven through the [`Simulation`] builder.
///
/// Labels follow [`Replicator::jobs`]'s `"{label} rep={r} seed={seed}"`
/// convention, per-replicate seeds come from [`Replicator::seed`], and
/// step-hook budgets, recorded [`SimMetrics`] columns and job-order
/// results are all preserved.
///
/// `opts` builds one replicate's [`SsaOptions`] from its seed, step hook
/// and metrics sink (a closure rather than a value because an options
/// value with a hook installed is not `Sync`); `map` turns one
/// replicate's trace result into its sweep value. `map` runs after the
/// cell's metrics are recorded, so interrupted replicates still report
/// the work they did.
#[allow(clippy::too_many_arguments)]
pub fn ssa_replicate_units<'a, T, O, F>(
    crn: &'a Crn,
    rep: Replicator<'a>,
    init: &'a State,
    schedule: &'a Schedule,
    opts: O,
    label: &str,
    replicates: usize,
    map: F,
) -> Vec<SweepUnit<'a, T>>
where
    T: Send,
    O: for<'h> Fn(u64, StepHook<'h>, MetricsSink<'h>) -> SsaOptions<'h> + Send + Sync + Copy + 'a,
    F: Fn(&JobCtx, Result<Trace, SimError>) -> Result<T, JobError> + Send + Sync + Copy + 'a,
{
    let compiled = rep.compiled();
    (0..replicates)
        .map(|r| {
            let seed = rep.seed(r);
            let name = format!("{label} rep={r} seed={seed}");
            SweepUnit::Single(SweepJob::new(name, move |job| {
                let hook = job.step_hook();
                let sink = Cell::new(SimMetrics::default());
                let result = Simulation::new(crn, compiled)
                    .init(init)
                    .schedule(schedule)
                    .options(opts(seed, &hook, &sink))
                    .run();
                record_sim_metrics(job, sink.get());
                map(job, result)
            }))
        })
        .collect()
}

/// [`sync_job_error`] for raw simulator errors.
#[must_use]
pub fn sim_job_error(e: SimError) -> JobError {
    match e {
        SimError::Interrupted { time, reason } => {
            JobError::BudgetExceeded(format!("interrupted at t = {time}: {reason}"))
        }
        other => JobError::failed(other),
    }
}

/// An experiment entry: `(id, title, runner)`.
pub type Experiment = (&'static str, &'static str, fn(&ExpCtx) -> Report);

/// Every experiment, in presentation order.
pub fn all_experiments() -> Vec<Experiment> {
    vec![
        (
            "e1",
            "chemical clock oscillation",
            experiments::e1_clock::run,
        ),
        (
            "e2",
            "delay-element chain transfer",
            experiments::e2_delay_chain::run,
        ),
        (
            "e3",
            "moving-average filter",
            experiments::e3_moving_average::run,
        ),
        ("e4", "binary counter", experiments::e4_counter::run),
        ("e5", "construct costs", experiments::e5_costs::run),
        (
            "e6",
            "rate-ratio robustness",
            experiments::e6_rate_ratio::run,
        ),
        (
            "e7",
            "per-reaction rate jitter",
            experiments::e7_rate_jitter::run,
        ),
        (
            "e8",
            "strand-displacement mapping",
            experiments::e8_dsd::run,
        ),
        (
            "e9",
            "clocked vs self-timed latency",
            experiments::e9_sync_vs_async::run,
        ),
        (
            "e10",
            "stochastic validity at small counts",
            experiments::e10_ssa::run,
        ),
        (
            "e11",
            "strand-displacement leak robustness",
            experiments::e11_leak::run,
        ),
        (
            "e12",
            "filter frequency response",
            experiments::e12_frequency::run,
        ),
        (
            "e13",
            "stiff clocked kinetics: implicit vs explicit tau-leaping",
            experiments::e13_stiff_clock::run,
        ),
        (
            "e14",
            "hybrid ODE/SSA vs pure SSA vs implicit tau on the stiff clock",
            experiments::e14_hybrid::run,
        ),
        (
            "a1",
            "ablation: sharpeners",
            experiments::a1_sharpeners::run,
        ),
        (
            "a2",
            "ablation: feedback coupling",
            experiments::a2_coupling::run,
        ),
    ]
}
