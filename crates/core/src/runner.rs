//! The cycle-level simulation harness.
//!
//! Driving a compiled system means: inject one input sample per clock
//! cycle, run the kinetics, find the cycle boundaries in the clock
//! waveform, and read every register once per cycle. [`drive_cycles`]
//! does all of it and returns a [`SyncRun`]; [`RunConfig::sim`] selects
//! the kinetic interpretation (deterministic ODE or an exact stochastic
//! method), and [`CycleResources`] carries any pre-built compiled network
//! and integrator workspace a sweep wants to reuse across cells.

use crate::{CompiledSystem, SyncError};
use molseq_kinetics::{
    run_ode_batch, BatchLane, BatchedOdeWorkspace, CompiledCrn, MetricsSink, OdeOptions,
    OdeWorkspace, Schedule, SimError, SimMethod, SimSpec, Simulation, SsaOptions, StepHook, Trace,
};
use std::collections::HashMap;

/// The ODE options of one harness pass over `[0, t_end]`: Rosenbrock at
/// `rtol = 1e-5`, `atol = 1e-8`, one order looser than the integrator's
/// defaults.
fn harness_ode_options<'h>(t_end: f64, record_interval: f64) -> OdeOptions<'h> {
    OdeOptions::default()
        .with_t_end(t_end)
        .with_record_interval(record_interval)
        .with_tolerances(1e-5, 1e-8)
}

/// Configuration for [`drive_cycles`].
#[derive(Clone)]
pub struct RunConfig<'h> {
    /// Kinetic interpretation (rate assignment + jitter).
    pub spec: SimSpec,
    /// Initial guess for the duration of one clock cycle, in simulated
    /// time. The harness extends the simulation automatically (up to
    /// `max_extensions` doublings) if the guess is too small.
    pub cycle_time_hint: f64,
    /// How many times the time horizon may be doubled while hunting for
    /// the requested number of cycles.
    pub max_extensions: u32,
    /// Trace recording interval.
    pub record_interval: f64,
    /// Simulation method driving the kinetics. [`SimMethod::Ode`]
    /// (the default, Rosenbrock at `rtol = 1e-5`, `atol = 1e-8`) and
    /// [`SimMethod::Ssa`] are supported; the tau-leaping methods reject
    /// the harness's input triggers.
    pub sim: SimMethod,
    /// RNG seed (used by the stochastic methods).
    pub seed: u64,
    /// Optional cooperative interruption hook, forwarded to the
    /// integrator (see [`molseq_kinetics::StepHook`]). The cumulative step
    /// count restarts at every horizon-doubling retry.
    pub step_hook: Option<StepHook<'h>>,
    /// Optional metrics sink, forwarded to the integrator (see
    /// [`molseq_kinetics::SimMetrics`]). Counters **accumulate** across
    /// the harness's horizon-doubling retries, so the sink reports the
    /// total work the harness spent on the cell, not just the final
    /// successful pass.
    pub metrics: Option<MetricsSink<'h>>,
}

impl std::fmt::Debug for RunConfig<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunConfig")
            .field("spec", &self.spec)
            .field("cycle_time_hint", &self.cycle_time_hint)
            .field("max_extensions", &self.max_extensions)
            .field("record_interval", &self.record_interval)
            .field("sim", &self.sim)
            .field("seed", &self.seed)
            .field("step_hook", &self.step_hook.map(|_| "<hook>"))
            .field("metrics", &self.metrics.map(|_| "<sink>"))
            .finish()
    }
}

impl PartialEq for RunConfig<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.spec == other.spec
            && self.cycle_time_hint == other.cycle_time_hint
            && self.max_extensions == other.max_extensions
            && self.record_interval == other.record_interval
            && self.sim == other.sim
            && self.seed == other.seed
            && match (self.step_hook, other.step_hook) {
                (None, None) => true,
                (Some(a), Some(b)) => {
                    std::ptr::eq(a as *const _ as *const (), b as *const _ as *const ())
                }
                _ => false,
            }
            && match (self.metrics, other.metrics) {
                (None, None) => true,
                (Some(a), Some(b)) => std::ptr::eq(a, b),
                _ => false,
            }
    }
}

impl Default for RunConfig<'_> {
    /// Paper-default rates, 12 time units per cycle as the initial guess,
    /// up to 4 horizon doublings, deterministic stiff (Rosenbrock)
    /// integration.
    fn default() -> Self {
        RunConfig {
            spec: SimSpec::default(),
            cycle_time_hint: 12.0,
            max_extensions: 4,
            record_interval: 0.1,
            sim: SimMethod::Ode,
            seed: 0,
            step_hook: None,
            metrics: None,
        }
    }
}

/// Pre-built simulation resources for [`drive_cycles`], reusable across
/// sweep cells. Both fields are optional: an absent compiled network is
/// compiled per call from `config.spec`, an absent workspace is allocated
/// fresh.
#[derive(Default)]
pub struct CycleResources<'a> {
    /// Pre-built compiled network. When supplied, `config.spec` is
    /// ignored — the rates baked into the compiled network govern the
    /// kinetics. This is the sweep path: compile once,
    /// [`CompiledCrn::rebind`](molseq_kinetics::CompiledCrn::rebind) per
    /// cell, drive the rebound copy.
    pub compiled: Option<&'a CompiledCrn>,
    /// Reusable integrator workspace (ODE methods), so sweeps allocate
    /// integrator buffers once per worker instead of once per cell. Also
    /// reused across the harness's internal horizon-doubling retries.
    pub workspace: Option<&'a mut OdeWorkspace>,
}

/// The result of driving a compiled system for a number of clock cycles.
#[derive(Debug, Clone)]
pub struct SyncRun {
    trace: Trace,
    /// One sampling instant per completed cycle: the midpoint of the k-th
    /// interval during which the clock's red phase is high.
    sample_times: Vec<f64>,
    registers: HashMap<String, Vec<f64>>,
}

impl SyncRun {
    /// Extracts cycle structure from *any* trace of a compiled system —
    /// deterministic or stochastic. Cycle `k` is sampled over the
    /// `k+1`-th interval in which the clock's (dimer-adjusted) red phase
    /// exceeds 90% of the token (the first interval is the initial rest
    /// state); register values are the per-interval maxima of their
    /// dimer-adjusted stored quantity.
    #[must_use]
    pub fn from_trace(system: &CompiledSystem, trace: Trace) -> Self {
        let clock = system.clock();
        let threshold = 0.9 * clock.token;
        let red_terms = crate::stored_value_terms(system.crn(), clock.red);
        let red_series: Vec<f64> = (0..trace.len())
            .map(|i| {
                red_terms
                    .iter()
                    .map(|&(s, w)| w * trace.state(i)[s.index()])
                    .sum()
            })
            .collect();
        let mut intervals = high_intervals(trace.times(), &red_series, threshold);
        if !intervals.is_empty() {
            intervals.remove(0);
        }
        let sample_times: Vec<f64> = intervals.iter().map(|(a, b)| 0.5 * (a + b)).collect();
        let mut registers = HashMap::new();
        for name in system.register_names() {
            let red = system
                .register_species(name)
                .expect("register names come from the system");
            let terms = crate::stored_value_terms(system.crn(), red);
            let series: Vec<f64> = intervals
                .iter()
                .map(|&(a, b)| {
                    trace
                        .times()
                        .iter()
                        .enumerate()
                        .filter(|(_, &t)| t >= a && t <= b)
                        .map(|(i, _)| {
                            terms
                                .iter()
                                .map(|&(s, w)| w * trace.state(i)[s.index()])
                                .sum::<f64>()
                        })
                        .fold(0.0f64, f64::max)
                })
                .collect();
            registers.insert(name.to_owned(), series);
        }
        SyncRun {
            trace,
            sample_times,
            registers,
        }
    }

    /// The full simulation trace.
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// The per-cycle sampling instants (cycle `k` was sampled at
    /// `sample_times()[k]`).
    #[must_use]
    pub fn sample_times(&self) -> &[f64] {
        &self.sample_times
    }

    /// Number of completed cycles captured.
    #[must_use]
    pub fn cycles(&self) -> usize {
        self.sample_times.len()
    }

    /// The measured mean clock period, if at least two cycles completed.
    #[must_use]
    pub fn mean_period(&self) -> Option<f64> {
        if self.sample_times.len() < 2 {
            return None;
        }
        let n = self.sample_times.len() - 1;
        Some((self.sample_times[n] - self.sample_times[0]) / n as f64)
    }

    /// A register's value per cycle: `register_series(name)[k]` is the
    /// value committed at the end of cycle `k` (so for a register sourced
    /// by input `x`, index `k` holds `x(k)`; for an output port computing
    /// `f(...)` per cycle, index `k` holds the cycle-`k` result).
    ///
    /// # Errors
    ///
    /// [`SyncError::UnknownPort`] if no such register was captured.
    pub fn register_series(&self, name: &str) -> Result<&[f64], SyncError> {
        self.registers
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| SyncError::UnknownPort { name: name.into() })
    }
}

/// Intervals during which `series` stays above `threshold`, as
/// `(enter, exit)` pairs (the final interval may be cut off by the end of
/// the trace).
fn high_intervals(times: &[f64], series: &[f64], threshold: f64) -> Vec<(f64, f64)> {
    let mut intervals = Vec::new();
    let mut enter: Option<f64> = None;
    for i in 0..times.len() {
        let high = series[i] > threshold;
        match (high, enter) {
            (true, None) => enter = Some(times[i]),
            (false, Some(start)) => {
                intervals.push((start, times[i]));
                enter = None;
            }
            _ => {}
        }
    }
    if let Some(start) = enter {
        if let Some(&last) = times.last() {
            if last > start {
                intervals.push((start, last));
            }
        }
    }
    intervals
}

/// Drives `system` until `cycles` clock cycles have completed, injecting
/// one sample per cycle for every listed input. `config.sim` picks the
/// kinetic interpretation; `resources` optionally carries a pre-built
/// compiled network and a reusable integrator workspace.
///
/// Cycle boundaries and register values are extracted with
/// [`SyncRun::from_trace`]: registers are read as the maximum of their
/// dimer-adjusted stored value over each clock-red plateau. The initial
/// all-red rest state (before the first rotation) is **not** counted as a
/// cycle.
///
/// # Errors
///
/// * [`SyncError::UnknownPort`] for an unknown input name.
/// * [`SyncError::InvalidAmount`] if `cycles` is zero.
/// * Simulation errors are wrapped in [`SyncError::Simulation`].
///
/// # Panics
///
/// Panics if `config.sim` is a tau-leaping method: the leapers reject the
/// per-cycle input triggers this harness relies on.
pub fn drive_cycles(
    system: &CompiledSystem,
    inputs: &[(&str, &[f64])],
    cycles: usize,
    config: &RunConfig,
    resources: CycleResources<'_>,
) -> Result<SyncRun, SyncError> {
    assert!(
        matches!(config.sim, SimMethod::Ode | SimMethod::Ssa),
        "the cycle harness injects inputs via triggers, which tau-leaping does not support"
    );
    if cycles == 0 {
        return Err(SyncError::InvalidAmount { value: 0.0 });
    }
    let owned_compiled;
    let compiled = match resources.compiled {
        Some(c) => c,
        None => {
            owned_compiled = CompiledCrn::new(system.crn(), &config.spec);
            &owned_compiled
        }
    };
    let mut owned_workspace;
    let workspace = match resources.workspace {
        Some(w) => w,
        None => {
            owned_workspace = OdeWorkspace::new();
            &mut owned_workspace
        }
    };
    let mut schedule = Schedule::new();
    for (name, samples) in inputs {
        schedule = schedule.trigger(system.input_trigger(name, samples)?);
    }

    let init = system.initial_state();

    let mut t_end = config.cycle_time_hint * (cycles as f64 + 1.0);
    let mut last_err: Option<SimError> = None;
    let mut best_found = 0usize;
    for _ in 0..=config.max_extensions {
        let mut sim = Simulation::new(system.crn(), compiled)
            .init(&init)
            .schedule(&schedule)
            .workspace(&mut *workspace);
        match config.sim {
            SimMethod::Ode => {
                sim = sim.options(harness_ode_options(t_end, config.record_interval));
            }
            _ => {
                sim = sim.method(config.sim).options(
                    SsaOptions::default()
                        .with_t_end(t_end)
                        .with_record_interval(config.record_interval)
                        .with_seed(config.seed),
                );
            }
        }
        if let Some(hook) = config.step_hook {
            sim = sim.step_hook(hook);
        }
        if let Some(sink) = config.metrics {
            sim = sim.metrics(sink);
        }
        let trace = match sim.run() {
            Ok(t) => t,
            Err(e @ SimError::Interrupted { .. }) => {
                // a cooperative budget fired: retrying on a doubled
                // horizon would be interrupted again immediately
                return Err(SyncError::Simulation(e));
            }
            Err(e) => {
                last_err = Some(e);
                t_end *= 2.0;
                continue;
            }
        };

        let run = SyncRun::from_trace(system, trace);
        if run.cycles() >= cycles {
            let mut run = run;
            run.sample_times.truncate(cycles);
            for series in run.registers.values_mut() {
                series.truncate(cycles);
            }
            return Ok(run);
        }
        best_found = best_found.max(run.cycles());
        t_end *= 2.0;
    }
    Err(last_err.map_or(
        SyncError::InsufficientCycles {
            requested: cycles,
            found: best_found,
        },
        SyncError::Simulation,
    ))
}

/// One cell of a [`drive_cycles_batch`] call: a rate-bound compiled copy
/// of the shared system network plus that cell's run configuration.
pub struct BatchCell<'a, 'h> {
    /// The cell's compiled network — typically
    /// [`CompiledCrn::rebind`](molseq_kinetics::CompiledCrn::rebind) of one
    /// shared compilation, so every cell keeps the same structure.
    /// `config.spec` is ignored in favour of the rates baked in here.
    pub compiled: &'a CompiledCrn,
    /// The cell's harness configuration. `sim` must be [`SimMethod::Ode`];
    /// `step_hook` and `metrics` are forwarded per cell.
    pub config: RunConfig<'h>,
}

/// Drives up to `cells.len()` rate-bound copies of `system` in lock-step
/// through the batched ODE engine
/// ([`run_ode_batch`](molseq_kinetics::run_ode_batch)): one shared
/// symbolic factorization, all cells advancing together, each lane
/// bit-identical to a solo [`drive_cycles`] call with the same
/// configuration. Inputs, the cycle count and the initial state are
/// shared; rates, hooks, sinks and extension policies are per cell.
///
/// Each cell keeps the scalar harness's horizon-doubling behaviour
/// independently: a cell that comes up short of `cycles` retries on a
/// doubled span (up to its own `max_extensions`) in the next batched
/// round together with every other still-unfinished cell, so stragglers
/// re-batch with each other rather than serializing.
///
/// # Errors
///
/// Shared-setup failures ([`SyncError::UnknownPort`],
/// [`SyncError::InvalidAmount`] for zero cycles) fail the whole call;
/// per-cell simulation failures are reported in the per-cell results,
/// with the same error mapping as [`drive_cycles`].
///
/// # Panics
///
/// Panics if any cell's `config.sim` is not [`SimMethod::Ode`] — the
/// batched engine is the deterministic path; route stochastic cells
/// through [`drive_cycles`].
pub fn drive_cycles_batch(
    system: &CompiledSystem,
    inputs: &[(&str, &[f64])],
    cycles: usize,
    cells: &[BatchCell<'_, '_>],
    workspace: &mut BatchedOdeWorkspace,
) -> Result<Vec<Result<SyncRun, SyncError>>, SyncError> {
    for cell in cells {
        assert!(
            matches!(cell.config.sim, SimMethod::Ode),
            "drive_cycles_batch is the deterministic ODE path"
        );
    }
    if cycles == 0 {
        return Err(SyncError::InvalidAmount { value: 0.0 });
    }
    let mut schedule = Schedule::new();
    for (name, samples) in inputs {
        schedule = schedule.trigger(system.input_trigger(name, samples)?);
    }
    let init = system.initial_state();

    struct CellProgress {
        t_end: f64,
        attempts_left: u32,
        last_err: Option<SimError>,
        best_found: usize,
        done: Option<Result<SyncRun, SyncError>>,
    }
    let mut progress: Vec<CellProgress> = cells
        .iter()
        .map(|cell| CellProgress {
            t_end: cell.config.cycle_time_hint * (cycles as f64 + 1.0),
            attempts_left: cell.config.max_extensions + 1,
            last_err: None,
            best_found: 0,
            done: None,
        })
        .collect();

    loop {
        let active: Vec<usize> = progress
            .iter()
            .enumerate()
            .filter(|(_, p)| p.done.is_none() && p.attempts_left > 0)
            .map(|(i, _)| i)
            .collect();
        if active.is_empty() {
            break;
        }
        let lanes: Vec<BatchLane> = active
            .iter()
            .map(|&i| {
                let config = &cells[i].config;
                let mut options = harness_ode_options(progress[i].t_end, config.record_interval);
                if let Some(hook) = config.step_hook {
                    options = options.with_step_hook(hook);
                }
                if let Some(sink) = config.metrics {
                    options = options.with_metrics(sink);
                }
                BatchLane {
                    compiled: cells[i].compiled,
                    init: &init,
                    schedule: &schedule,
                    options,
                }
            })
            .collect();
        let results = run_ode_batch(system.crn(), &lanes, workspace);
        for (&i, result) in active.iter().zip(results) {
            let p = &mut progress[i];
            p.attempts_left -= 1;
            match result {
                Ok(trace) => {
                    let run = SyncRun::from_trace(system, trace);
                    if run.cycles() >= cycles {
                        let mut run = run;
                        run.sample_times.truncate(cycles);
                        for series in run.registers.values_mut() {
                            series.truncate(cycles);
                        }
                        p.done = Some(Ok(run));
                    } else {
                        p.best_found = p.best_found.max(run.cycles());
                        p.t_end *= 2.0;
                    }
                }
                Err(e @ SimError::Interrupted { .. }) => {
                    // a cooperative budget fired: retrying on a doubled
                    // horizon would be interrupted again immediately
                    p.done = Some(Err(SyncError::Simulation(e)));
                }
                Err(e) => {
                    p.last_err = Some(e);
                    p.t_end *= 2.0;
                }
            }
        }
    }

    Ok(progress
        .into_iter()
        .map(|p| {
            p.done.unwrap_or_else(|| {
                Err(p.last_err.map_or(
                    SyncError::InsufficientCycles {
                        requested: cycles,
                        found: p.best_found,
                    },
                    SyncError::Simulation,
                ))
            })
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClockSpec, SyncCircuit};

    #[test]
    fn high_intervals_finds_plateaus() {
        let times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let series = [100.0, 100.0, 0.0, 0.0, 100.0, 100.0];
        let iv = high_intervals(&times, &series, 90.0);
        assert_eq!(iv, vec![(0.0, 2.0), (4.0, 5.0)]);
    }

    #[test]
    fn high_intervals_empty_for_flat_low() {
        let times = [0.0, 1.0];
        let series = [0.0, 0.0];
        assert!(high_intervals(&times, &series, 90.0).is_empty());
    }

    #[test]
    fn zero_cycles_is_rejected() {
        let mut c = SyncCircuit::new(ClockSpec::default());
        let x = c.input("x");
        c.output("y", x);
        let sys = c.compile().unwrap();
        assert!(drive_cycles(
            &sys,
            &[],
            0,
            &RunConfig::default(),
            CycleResources::default()
        )
        .is_err());
    }

    #[test]
    #[should_panic(expected = "tau-leaping")]
    fn tau_methods_are_rejected_by_the_harness() {
        let mut c = SyncCircuit::new(ClockSpec::default());
        let x = c.input("x");
        c.output("y", x);
        let sys = c.compile().unwrap();
        let config = RunConfig {
            sim: SimMethod::TauLeap,
            ..RunConfig::default()
        };
        let _ = drive_cycles(&sys, &[], 1, &config, CycleResources::default());
    }

    /// The harness drives the same circuit under the exact stochastic
    /// interpretation: the one-cycle register delay survives molecular
    /// noise at the default token count.
    #[test]
    fn stochastic_harness_delays_by_one_cycle() {
        let mut c = SyncCircuit::new(ClockSpec::default());
        let x = c.input("x");
        let d = c.delay("d", x);
        c.output("y", d);
        let sys = c.compile().unwrap();

        let samples = [60.0, 20.0];
        let config = RunConfig {
            sim: SimMethod::Ssa,
            seed: 7,
            ..RunConfig::default()
        };
        let run = drive_cycles(
            &sys,
            &[("x", &samples)],
            3,
            &config,
            CycleResources::default(),
        )
        .unwrap();
        let y_series = run.register_series("y").unwrap();
        for (k, &expect) in samples.iter().enumerate() {
            assert!(
                (y_series[k + 1] - expect).abs() < 0.25 * expect,
                "y at cycle {}: {} vs {expect} (full: {y_series:?})",
                k + 1,
                y_series[k + 1]
            );
        }
    }

    /// The batched harness reproduces solo scalar runs bit for bit: same
    /// sample times, same register series, per rate binding.
    #[test]
    fn batched_harness_matches_scalar_bitwise() {
        use molseq_kinetics::SimSpec;
        let mut c = SyncCircuit::new(ClockSpec::default());
        let x = c.input("x");
        let d = c.delay("d", x);
        c.output("y", d);
        let sys = c.compile().unwrap();
        let samples = [40.0, 10.0, 70.0];
        let inputs: [(&str, &[f64]); 1] = [("x", &samples)];

        let base = CompiledCrn::new(sys.crn(), &SimSpec::default());
        let ratios = [200.0, 1000.0, 5000.0];
        let compiled: Vec<CompiledCrn> = ratios
            .iter()
            .map(|&r| base.rebind(&SimSpec::new(molseq_crn::RateAssignment::from_ratio(r))))
            .collect();
        let cells: Vec<BatchCell> = compiled
            .iter()
            .map(|c| BatchCell {
                compiled: c,
                config: RunConfig::default(),
            })
            .collect();
        let mut ws = BatchedOdeWorkspace::new();
        let batched = drive_cycles_batch(&sys, &inputs, 3, &cells, &mut ws).unwrap();
        for (c, result) in compiled.iter().zip(batched) {
            let scalar = drive_cycles(
                &sys,
                &inputs,
                3,
                &RunConfig::default(),
                CycleResources {
                    compiled: Some(c),
                    workspace: None,
                },
            )
            .unwrap();
            let run = result.unwrap();
            assert_eq!(scalar.sample_times(), run.sample_times());
            for name in sys.register_names() {
                assert_eq!(
                    scalar.register_series(name).unwrap(),
                    run.register_series(name).unwrap(),
                    "register {name}"
                );
            }
        }
    }

    #[test]
    fn batched_harness_rejects_zero_cycles() {
        let mut c = SyncCircuit::new(ClockSpec::default());
        let x = c.input("x");
        c.output("y", x);
        let sys = c.compile().unwrap();
        let compiled = CompiledCrn::new(sys.crn(), &molseq_kinetics::SimSpec::default());
        let cells = [BatchCell {
            compiled: &compiled,
            config: RunConfig::default(),
        }];
        assert!(matches!(
            drive_cycles_batch(&sys, &[], 0, &cells, &mut BatchedOdeWorkspace::new()),
            Err(SyncError::InvalidAmount { .. })
        ));
    }

    /// End-to-end: a single register delays its input by exactly one
    /// cycle.
    #[test]
    fn register_delays_by_one_cycle() {
        let mut c = SyncCircuit::new(ClockSpec::default());
        let x = c.input("x");
        let d = c.delay("d", x);
        c.output("y", d);
        let sys = c.compile().unwrap();

        let samples = [40.0, 10.0, 70.0, 0.0];
        let sink = std::cell::Cell::new(molseq_kinetics::SimMetrics::default());
        let config = RunConfig {
            metrics: Some(&sink),
            ..RunConfig::default()
        };
        let run = drive_cycles(
            &sys,
            &[("x", &samples)],
            5,
            &config,
            CycleResources::default(),
        )
        .unwrap();
        let metrics = sink.get();
        assert!(
            metrics.ode_steps_accepted > 0 && metrics.final_time > 0.0,
            "the harness forwards the sink to the integrator: {metrics:?}"
        );
        let d_series = run.register_series("d").unwrap();
        let y_series = run.register_series("y").unwrap();

        // d at cycle boundary k holds x(k); y holds d one cycle later.
        for (k, &expect) in samples.iter().enumerate() {
            assert!(
                (d_series[k] - expect).abs() < 1.5,
                "d at cycle {k}: {} vs {expect} (full: {d_series:?})",
                d_series[k]
            );
        }
        for (k, &expect) in samples.iter().enumerate() {
            assert!(
                (y_series[k + 1] - expect).abs() < 1.5,
                "y at cycle {}: {} vs {expect} (full: {y_series:?})",
                k + 1,
                y_series[k + 1]
            );
        }
    }
}
