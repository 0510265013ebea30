//! The per-layer table of a traced run: every figure `BENCHMARK.json`
//! lists under `per_layer`, in that order, from the run's spans and
//! counts. A workload that never calls a layer reports 0 for it, marked
//! "not exercised" in the human-readable table.

use crate::kernels::KernelTimes;
use crate::trace::{self_times, Span, Totals};
use molseq_kinetics::SimMetrics;
use std::collections::BTreeMap;

/// One per-layer figure of a traced run.
#[derive(Debug, Clone)]
pub struct Layer {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value; `None` when this workload never calls the layer.
    pub value: Option<f64>,
    /// How it was obtained (sample count, basis), for the report.
    pub basis: String,
}

/// Simulator work summed over a set of cells.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Work {
    /// Cells summed.
    pub cells: u64,
    /// Accepted ODE steps.
    pub ode_accepted: u64,
    /// Rejected ODE trial steps.
    pub ode_rejected: u64,
    /// LU factorizations.
    pub lu: u64,
    /// Exact stochastic events (hybrid slow events included, as the
    /// simulator reports them).
    pub ssa_events: u64,
    /// Explicit tau leaps.
    pub tau_leaps: u64,
    /// Hybrid slow events.
    pub hybrid_slow_events: u64,
    /// Lanes retired early by lock-step batches.
    pub lanes_retired: u64,
}

impl Work {
    /// Adds one cell's simulator counters.
    pub fn add(&mut self, m: &SimMetrics) {
        self.cells += 1;
        self.ode_accepted += m.ode_steps_accepted;
        self.ode_rejected += m.ode_steps_rejected;
        self.lu += m.lu_factorizations;
        self.ssa_events += m.ssa_events;
        self.tau_leaps += m.tau_leaps;
        self.hybrid_slow_events += m.hybrid_slow_events;
        self.lanes_retired += m.lanes_retired;
    }

    /// ODE trial steps, accepted or rejected.
    #[must_use]
    pub fn ode_steps(&self) -> u64 {
        self.ode_accepted + self.ode_rejected
    }
}

/// Figures only the served workload has.
#[derive(Debug, Default, Clone)]
pub struct ServeFigures {
    /// Mean `Request::parse` time of the workload's own submit lines.
    pub parse_us: f64,
    /// Submit lines parsed.
    pub parse_n: usize,
    /// Mean submit round trip of jobs whose structure was cached.
    pub submit_ms: f64,
    /// Cache-hit submits timed.
    pub submit_n: usize,
    /// Mean submit round trip of fresh structures (compile on submit).
    pub submit_miss_ms: f64,
    /// Fresh-structure submits timed.
    pub submit_miss_n: usize,
    /// Mean time from the submit acknowledgement to the first row.
    pub first_row_ms: f64,
    /// Fetch requests per job.
    pub fetch_calls: f64,
    /// Jobs timed.
    pub jobs: usize,
    /// Server cache counters over the first fixed pass of the mix.
    pub cache_hits: u64,
    /// Misses over the first pass.
    pub cache_misses: u64,
    /// Evictions over the first pass.
    pub cache_evictions: u64,
    /// Σ per-lane work ÷ (width × longest lane) over the batched groups
    /// of the first pass.
    pub lane_fill: f64,
    /// Batched groups behind `lane_fill`.
    pub lane_groups: usize,
}

/// Everything the per-layer table is computed from.
#[derive(Debug, Default)]
pub struct LayerInputs {
    /// Spans of the traced set-up repetition and the traced phase.
    pub spans: Vec<Span>,
    /// Species summed over the workload's lowered circuits.
    pub species: u64,
    /// Reactions summed over the workload's lowered circuits.
    pub reactions: u64,
    /// Work over the first fixed pass of the workload (exact counts).
    pub pass: Work,
    /// Work over the whole traced phase, to divide span time by.
    pub traced: Work,
    /// Kernel timings on the workload's networks.
    pub kernels: Option<KernelTimes>,
    /// The served workload's figures.
    pub serve: Option<ServeFigures>,
    /// Traced minus untraced time per operation, as a share of untraced.
    pub overhead_pct: f64,
}

fn mean_us(t: Option<&Totals>) -> Option<(f64, u64)> {
    t.filter(|t| t.calls > 0)
        .map(|t| (t.total_ns as f64 / t.calls as f64 / 1e3, t.calls))
}

fn ratio(num: f64, den: u64) -> Option<f64> {
    (den > 0).then(|| num / den as f64)
}

/// Builds the per-layer table.
#[must_use]
pub fn assemble(inputs: &LayerInputs) -> Vec<Layer> {
    let totals: BTreeMap<&str, Totals> = self_times(&inputs.spans);
    let spans = |name: &str| totals.get(name);
    let mut out = Vec::new();
    let mut push = |name, unit, value: Option<f64>, basis: String| {
        out.push(Layer {
            name,
            unit,
            value,
            basis,
        });
    };
    let per_call = |name: &str| mean_us(spans(name));
    let calls = |v: Option<(f64, u64)>, unit: &str| {
        v.map_or_else(String::new, |(_, n)| format!("mean of {n} {unit}"))
    };

    let parse = per_call("netlist.parse");
    push(
        "netlist.parse_us",
        "us",
        parse.map(|v| v.0),
        calls(parse, "parse_netlist calls"),
    );
    let lower = per_call("sync.lower");
    push(
        "sync.lower_us",
        "us",
        lower.map(|v| v.0),
        calls(lower, "lowerings"),
    );
    let lowered = inputs.species > 0;
    push(
        "sync.species",
        "count",
        lowered.then_some(inputs.species as f64),
        "summed over the lowered circuits".into(),
    );
    push(
        "sync.reactions",
        "count",
        lowered.then_some(inputs.reactions as f64),
        "summed over the lowered circuits".into(),
    );
    let compile = per_call("kinetics.compile");
    push(
        "kinetics.compile_us",
        "us",
        compile.map(|v| v.0),
        calls(compile, "CompiledCrn::new calls"),
    );
    let rebind = per_call("kinetics.rebind");
    push(
        "kinetics.rebind_us",
        "us",
        rebind.map(|v| v.0),
        calls(rebind, "rebinds"),
    );

    let k = inputs.kernels;
    let kb = || "median over sampled trace states, mean over networks".to_owned();
    push(
        "kinetics.derivative_ns",
        "ns",
        k.map(|k| k.derivative_ns),
        kb(),
    );
    push("kinetics.jacobian_ns", "ns", k.map(|k| k.jacobian_ns), kb());
    push(
        "kinetics.propensity_ns",
        "ns",
        k.map(|k| k.propensity_ns),
        kb(),
    );

    let (p, t) = (inputs.pass, inputs.traced);
    let pass = format!("exact, over the first pass of {} cells", p.cells);
    let ode = p.ode_steps() > 0;
    push(
        "kinetics.ode_steps",
        "count",
        ode.then_some(p.ode_steps() as f64),
        pass.clone(),
    );
    push(
        "kinetics.ode_rejected_frac",
        "frac",
        ratio(p.ode_rejected as f64, p.ode_steps()),
        pass.clone(),
    );
    push(
        "kinetics.lu_per_step",
        "ratio",
        ratio(p.lu as f64, p.ode_steps()),
        pass.clone(),
    );
    let ode_time = spans("kinetics.ode").map(|s| s.total_ns as f64 / 1e3);
    push(
        "kinetics.ode_us_per_step",
        "us",
        ode_time.and_then(|us| ratio(us, t.ode_steps())),
        format!("drive_cycles time over {} steps", t.ode_steps()),
    );
    let ssa = p.ssa_events > 0;
    push(
        "kinetics.ssa_events",
        "count",
        ssa.then_some(p.ssa_events as f64),
        pass.clone(),
    );
    let ssa_time = spans("kinetics.ssa").map(|s| s.total_ns as f64);
    push(
        "kinetics.ssa_ns_per_event",
        "ns",
        ssa_time.and_then(|ns| ratio(ns, t.ssa_events)),
        format!("Simulation::run time over {} events", t.ssa_events),
    );

    let serve = inputs.serve.as_ref();
    push(
        "kinetics.lane_fill",
        "frac",
        serve.filter(|s| s.lane_groups > 0).map(|s| s.lane_fill),
        serve.map_or_else(String::new, |s| {
            format!("over {} batched groups", s.lane_groups)
        }),
    );
    let counted = |v: u64, on: bool| on.then_some(v as f64);
    let served = serve.is_some();
    push(
        "kinetics.lanes_retired",
        "count",
        counted(p.lanes_retired, served),
        pass.clone(),
    );
    push(
        "kinetics.tau_leaps",
        "count",
        counted(p.tau_leaps, served),
        pass.clone(),
    );
    push(
        "kinetics.hybrid_slow_events",
        "count",
        counted(p.hybrid_slow_events, served),
        pass.clone(),
    );

    let sweep = spans("sweep.run_units");
    push(
        "sweep.self_ms",
        "ms",
        sweep.map(|s| s.self_ns as f64 / 1e6 / s.calls as f64),
        sweep.map_or_else(String::new, |s| {
            format!(
                "mean of {} run_units calls; {:.4} % of their time",
                s.calls,
                100.0 * s.self_ns as f64 / s.total_ns as f64
            )
        }),
    );

    let s = serve.cloned().unwrap_or_default();
    let on = |v: f64| served.then_some(v);
    push(
        "serve.parse_us",
        "us",
        on(s.parse_us),
        format!("mean of {} submit lines", s.parse_n),
    );
    push(
        "serve.submit_ms",
        "ms",
        on(s.submit_ms),
        format!("mean of {} cache-hit submits", s.submit_n),
    );
    push(
        "serve.submit_miss_ms",
        "ms",
        on(s.submit_miss_ms),
        format!("mean of {} fresh-structure submits", s.submit_miss_n),
    );
    push(
        "serve.first_row_ms",
        "ms",
        on(s.first_row_ms),
        format!("mean of {} jobs", s.jobs),
    );
    push(
        "serve.fetch_calls",
        "1/job",
        on(s.fetch_calls),
        format!("mean of {} jobs", s.jobs),
    );
    let lookups = s.cache_hits + s.cache_misses;
    let cache = "exact, over the first pass of the mix".to_owned();
    push(
        "serve.cache_hit_ratio",
        "frac",
        served
            .then(|| ratio(s.cache_hits as f64, lookups))
            .flatten(),
        cache.clone(),
    );
    push(
        "serve.cache_hits",
        "count",
        on(s.cache_hits as f64),
        cache.clone(),
    );
    push(
        "serve.cache_misses",
        "count",
        on(s.cache_misses as f64),
        cache.clone(),
    );
    push(
        "serve.cache_evictions",
        "count",
        on(s.cache_evictions as f64),
        cache,
    );

    push(
        "trace.overhead_pct",
        "%",
        Some(inputs.overhead_pct),
        "traced minus untraced time per operation".into(),
    );
    out
}
