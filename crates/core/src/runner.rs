//! The cycle-level simulation harness.
//!
//! Driving a compiled system means: inject one input sample per clock
//! cycle, run the kinetics, find the cycle boundaries in the clock
//! waveform, and read every register once per cycle. [`drive_cycles`]
//! does all of it and returns a [`SyncRun`]; [`RunConfig::sim`] selects
//! the kinetic interpretation (deterministic ODE or an exact stochastic
//! method), and [`CycleResources`] carries any pre-built compiled network
//! and integrator workspace a sweep wants to reuse across cells.
//!
//! A run has its answer once the last requested cycle's red plateau has
//! closed, so the harness integrates once and stops the engine there
//! through its stop hook ([`molseq_kinetics::StopHook`]). One plateau
//! detector serves both that stop and [`SyncRun::from_trace`].

use crate::{CompiledSystem, SyncError};
use molseq_crn::SpeciesId;
use molseq_kinetics::{
    run_ode_batch, BatchLane, CompiledCrn, MetricsSink, OdeOptions, OdeWorkspace, Schedule,
    SimMethod, SimSpec, Simulation, SsaOptions, StepHook, Trace,
};
use std::cell::RefCell;
use std::collections::HashMap;

/// The `(rtol, atol)` of every harness ODE run: `rtol = 1e-3`,
/// `atol = 1e-6`. The harness reads each register once per cycle, after
/// the input that cycle's green phase injects, so what its accuracy
/// needs is each injection at its crossing: the ODE driver ends the step
/// that fires a trigger there, located on the step's continuous
/// extension. With that, these tolerances keep every register of the
/// `ode_sweep` circuits within 1e-4 of the amplitude of a `1e-9/1e-12`
/// reference (`tests/ode_circuit_oracle.rs`). Fired at step ends, the
/// inputs landed up to a step late, and the harness needed `1e-5/1e-10`,
/// about 3.4× the steps, to stay within 1e-3. A constant, not an option:
/// the golden hashes and the circuit oracle read it from here.
pub const HARNESS_ODE_TOLERANCES: (f64, f64) = (1e-3, 1e-6);

/// The ODE options of one harness pass over `[0, t_end]`, at
/// [`HARNESS_ODE_TOLERANCES`].
fn harness_ode_options<'h>(t_end: f64, record_interval: f64) -> OdeOptions<'h> {
    let (rtol, atol) = HARNESS_ODE_TOLERANCES;
    OdeOptions::default()
        .with_t_end(t_end)
        .with_record_interval(record_interval)
        .with_tolerances(rtol, atol)
}

/// Configuration for [`drive_cycles`].
#[derive(Clone)]
pub struct RunConfig<'h> {
    /// Kinetic interpretation (rate assignment + jitter).
    pub spec: SimSpec,
    /// Guess of one clock cycle's duration, in simulated time:
    /// `cycle_time_hint × (cycles + 1)` is the first horizon, which
    /// `max_extensions` doubles into the run's cap.
    pub cycle_time_hint: f64,
    /// How many doublings of the first horizon the run may use: it stops
    /// at `cycle_time_hint × (cycles + 1) × 2^max_extensions` at the
    /// latest, and a last requested plateau still open there is
    /// [`SyncError::InsufficientCycles`].
    pub max_extensions: u32,
    /// Trace recording interval.
    pub record_interval: f64,
    /// Simulation method driving the kinetics. [`SimMethod::Ode`]
    /// (the default, Rosenbrock at [`HARNESS_ODE_TOLERANCES`]) and
    /// [`SimMethod::Ssa`] are supported; the tau-leaping methods reject
    /// the harness's input triggers.
    pub sim: SimMethod,
    /// RNG seed (used by the stochastic methods).
    pub seed: u64,
    /// Optional cooperative interruption hook, forwarded to the
    /// integrator (see [`molseq_kinetics::StepHook`]).
    pub step_hook: Option<StepHook<'h>>,
    /// Optional metrics sink, forwarded to the integrator (see
    /// [`molseq_kinetics::SimMetrics`]); `final_time` is where the
    /// harness stopped.
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
    /// Paper-default rates, 12 time units per cycle as the guess, a cap
    /// of 4 doublings of the first horizon, deterministic stiff
    /// (Rosenbrock) integration.
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
    /// integrator buffers once per worker instead of once per cell.
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
    /// dimer-adjusted stored quantity. This reads fixed-horizon traces,
    /// so an interval still open at the last sample counts, cut off
    /// there; [`drive_cycles`] counts only closed ones.
    #[must_use]
    pub fn from_trace(system: &CompiledSystem, trace: Trace) -> Self {
        let mut plateaus = Plateaus::new(system);
        plateaus.read(&trace);
        let mut intervals = plateaus.cut_off_at(trace.times().last().copied());
        if !intervals.is_empty() {
            intervals.remove(0);
        }
        SyncRun::over(system, trace, &intervals)
    }

    /// Reads every register over `intervals`, one red plateau per cycle.
    fn over(system: &CompiledSystem, trace: Trace, intervals: &[(f64, f64)]) -> Self {
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

    /// The full simulation trace. A [`drive_cycles`] run ends it just
    /// after the last requested cycle's red plateau closes.
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

/// The clock's red plateaus, found one recorded sample at a time. A
/// plateau opens at the first sample whose dimer-weighted red sum exceeds
/// 90 % of the token and closes at the next sample at or below it, its
/// exit sample. [`SyncRun::from_trace`] reads a finished trace through
/// it; the harness reads each run's trace as it grows and stops the run
/// once the last requested plateau has closed.
struct Plateaus {
    /// The `(species, weight)` terms of the red phase's stored value.
    red: Vec<(SpeciesId, f64)>,
    threshold: f64,
    /// Samples read so far.
    read: usize,
    /// Entry time of the plateau still open, if any.
    open: Option<f64>,
    /// Closed plateaus as `(entry, exit)` sample times.
    closed: Vec<(f64, f64)>,
}

impl Plateaus {
    fn new(system: &CompiledSystem) -> Self {
        let clock = system.clock();
        Plateaus::with_terms(
            crate::stored_value_terms(system.crn(), clock.red),
            0.9 * clock.token,
        )
    }

    fn with_terms(red: Vec<(SpeciesId, f64)>, threshold: f64) -> Self {
        Plateaus {
            red,
            threshold,
            read: 0,
            open: None,
            closed: Vec::new(),
        }
    }

    /// Reads the samples `trace` recorded since the last call.
    fn read(&mut self, trace: &Trace) {
        for i in self.read..trace.len() {
            let state = trace.state(i);
            let red: f64 = self.red.iter().map(|&(s, w)| w * state[s.index()]).sum();
            self.sample(trace.times()[i], red);
        }
        self.read = trace.len();
    }

    fn sample(&mut self, time: f64, red: f64) {
        let high = red > self.threshold;
        match (high, self.open) {
            (true, None) => self.open = Some(time),
            (false, Some(entry)) => {
                self.closed.push((entry, time));
                self.open = None;
            }
            _ => {}
        }
    }

    /// Reads the new samples of `trace` and reports whether `cycles`
    /// plateaus have closed after the rest state: the harness's stop.
    fn closes(&mut self, trace: &Trace, cycles: usize) -> bool {
        self.read(trace);
        self.closed.len() > cycles
    }

    /// The plateaus of a trace whose last sample is at `last`: the closed
    /// ones, then one still open there, cut off at `last`, if it spans
    /// more than one sample.
    fn cut_off_at(mut self, last: Option<f64>) -> Vec<(f64, f64)> {
        if let (Some(entry), Some(last)) = (self.open, last) {
            if last > entry {
                self.closed.push((entry, last));
            }
        }
        self.closed
    }
}

/// The latest time a harness run may reach: the first horizon
/// `hint × (cycles + 1)`, doubled `max_extensions` times.
fn horizon_cap(config: &RunConfig, cycles: usize) -> f64 {
    let doublings = i32::try_from(config.max_extensions).unwrap_or(i32::MAX);
    config.cycle_time_hint * (cycles as f64 + 1.0) * 2f64.powi(doublings)
}

/// The run of a finished harness trace: its first `cycles` plateaus after
/// the rest state, all of which must have closed.
fn counted_run(
    system: &CompiledSystem,
    trace: Trace,
    plateaus: &RefCell<Plateaus>,
    cycles: usize,
) -> Result<SyncRun, SyncError> {
    let mut plateaus = plateaus.borrow_mut();
    // the final sample is pushed after the last poll of the stop
    plateaus.read(&trace);
    let closed = &plateaus.closed;
    if closed.len() <= cycles {
        return Err(SyncError::InsufficientCycles {
            requested: cycles,
            found: closed.len().saturating_sub(1),
        });
    }
    Ok(SyncRun::over(system, trace, &closed[1..=cycles]))
}

/// Drives `system` until `cycles` clock cycles have completed, injecting
/// one sample per cycle for every listed input. `config.sim` picks the
/// kinetic interpretation; `resources` optionally carries a pre-built
/// compiled network and a reusable integrator workspace.
///
/// Cycle boundaries and register values are read as in
/// [`SyncRun::from_trace`]: registers are read as the maximum of their
/// dimer-adjusted stored value over each clock-red plateau. The initial
/// all-red rest state (before the first rotation) is **not** counted as a
/// cycle. The harness integrates once and stops the engine at the close
/// of the `cycles`-th plateau after the rest state, or at the cap set by
/// [`RunConfig::cycle_time_hint`] and [`RunConfig::max_extensions`].
/// Every step before the stop is the step a run to the cap would take.
///
/// # Errors
///
/// * [`SyncError::UnknownPort`] for an unknown input name.
/// * [`SyncError::InvalidAmount`] if `cycles` is zero.
/// * [`SyncError::InsufficientCycles`] if the last requested plateau has
///   not closed by the cap.
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
    let plateaus = RefCell::new(Plateaus::new(system));
    let stop = |trace: &Trace| plateaus.borrow_mut().closes(trace, cycles);
    let t_cap = horizon_cap(config, cycles);
    let mut sim = Simulation::new(system.crn(), compiled)
        .init(&init)
        .schedule(&schedule)
        .workspace(workspace);
    match config.sim {
        SimMethod::Ode => {
            sim = sim
                .options(harness_ode_options(t_cap, config.record_interval).with_stop_hook(&stop));
        }
        _ => {
            sim = sim.method(config.sim).options(
                SsaOptions::default()
                    .with_t_end(t_cap)
                    .with_record_interval(config.record_interval)
                    .with_seed(config.seed)
                    .with_stop_hook(&stop),
            );
        }
    }
    if let Some(hook) = config.step_hook {
        sim = sim.step_hook(hook);
    }
    if let Some(sink) = config.metrics {
        sim = sim.metrics(sink);
    }
    let trace = sim.run().map_err(SyncError::Simulation)?;
    counted_run(system, trace, &plateaus, cycles)
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
/// bit-identical to a solo [`drive_cycles`] call (a one-lane run) with
/// the same configuration. Inputs, the cycle count and the initial state are
/// shared; rates, hooks, sinks and horizon caps are per cell.
///
/// One batched pass serves every cell: each lane stops at the close of
/// its own last requested plateau (or at its own cap) and retires, while
/// the others carry on.
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
    workspace: &mut OdeWorkspace,
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

    let plateaus: Vec<RefCell<Plateaus>> = cells
        .iter()
        .map(|_| RefCell::new(Plateaus::new(system)))
        .collect();
    let stops: Vec<_> = plateaus
        .iter()
        .map(|p| move |trace: &Trace| p.borrow_mut().closes(trace, cycles))
        .collect();
    let lanes: Vec<BatchLane> = cells
        .iter()
        .zip(&stops)
        .map(|(cell, stop)| {
            let config = &cell.config;
            let mut options =
                harness_ode_options(horizon_cap(config, cycles), config.record_interval)
                    .with_stop_hook(stop);
            if let Some(hook) = config.step_hook {
                options = options.with_step_hook(hook);
            }
            if let Some(sink) = config.metrics {
                options = options.with_metrics(sink);
            }
            BatchLane {
                compiled: cell.compiled,
                init: &init,
                schedule: &schedule,
                options,
            }
        })
        .collect();
    let results = run_ode_batch(system.crn(), &lanes, workspace);
    Ok(results
        .into_iter()
        .zip(&plateaus)
        .map(|(result, p)| {
            let trace = result.map_err(SyncError::Simulation)?;
            counted_run(system, trace, p, cycles)
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ClockSpec, SyncCircuit};

    use proptest::prelude::*;

    /// The plateaus `Plateaus` finds in a bare `(times, series)` pair,
    /// cut off at the last sample as `SyncRun::from_trace` does.
    fn plateaus_of(times: &[f64], series: &[f64], threshold: f64) -> Vec<(f64, f64)> {
        let mut plateaus = Plateaus::with_terms(Vec::new(), threshold);
        for (&t, &v) in times.iter().zip(series) {
            plateaus.sample(t, v);
        }
        plateaus.cut_off_at(times.last().copied())
    }

    /// The whole-series detector the incremental one replaced, kept as
    /// its reference.
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

    #[test]
    fn plateaus_are_found_and_cut_off_at_the_end() {
        let times = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0];
        let series = [100.0, 100.0, 0.0, 0.0, 100.0, 100.0];
        let iv = plateaus_of(&times, &series, 90.0);
        assert_eq!(iv, vec![(0.0, 2.0), (4.0, 5.0)]);
    }

    #[test]
    fn no_plateaus_in_a_flat_low_series() {
        let times = [0.0, 1.0];
        let series = [0.0, 0.0];
        assert!(plateaus_of(&times, &series, 90.0).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 64,
            failure_persistence: None,
            ..ProptestConfig::default()
        })]

        /// Sample by sample, the detector finds exactly the intervals the
        /// whole-series scan found, also in series that end high.
        #[test]
        fn incremental_plateaus_match_the_whole_series_scan(
            steps in proptest::collection::vec(0u32..4, 1..40),
            levels in proptest::collection::vec(0u32..3, 1..40),
            end_high in 0u32..2,
        ) {
            let n = steps.len().min(levels.len());
            let mut times = Vec::with_capacity(n);
            let mut t = 0.0;
            for &dt in &steps[..n] {
                // repeated times happen where triggers push a sample
                t += f64::from(dt) * 0.5;
                times.push(t);
            }
            // 0 is low, 1 sits on the threshold (low), 2 is high
            let mut series: Vec<f64> =
                levels[..n].iter().map(|&v| 45.0 * f64::from(v)).collect();
            if end_high == 1 {
                *series.last_mut().expect("nonempty") = 90.0;
            }
            prop_assert_eq!(
                plateaus_of(&times, &series, 45.0),
                high_intervals(&times, &series, 45.0)
            );
        }
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
        // the SSA run stopped at the third plateau's close, before the
        // first horizon of 12 × (3 + 1)
        let t_last = *run.trace().times().last().unwrap();
        assert!(t_last < 48.0, "stopped at {t_last}");
    }

    /// The batched harness reproduces solo one-lane runs bit for bit: same
    /// sample times, same register series, same trace, stop time and step
    /// counts, per rate binding, although its lanes stop at different
    /// times.
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
        let sinks: Vec<_> = ratios
            .iter()
            .map(|_| std::cell::Cell::new(molseq_kinetics::SimMetrics::default()))
            .collect();
        let cells: Vec<BatchCell> = compiled
            .iter()
            .zip(&sinks)
            .map(|(c, sink)| BatchCell {
                compiled: c,
                config: RunConfig {
                    metrics: Some(sink),
                    ..RunConfig::default()
                },
            })
            .collect();
        let mut ws = OdeWorkspace::new();
        let batched = drive_cycles_batch(&sys, &inputs, 3, &cells, &mut ws).unwrap();
        let mut stops = Vec::new();
        for ((c, result), sink) in compiled.iter().zip(batched).zip(&sinks) {
            let scalar_sink = std::cell::Cell::new(molseq_kinetics::SimMetrics::default());
            let scalar = drive_cycles(
                &sys,
                &inputs,
                3,
                &RunConfig {
                    metrics: Some(&scalar_sink),
                    ..RunConfig::default()
                },
                CycleResources {
                    compiled: Some(c),
                    workspace: None,
                },
            )
            .unwrap();
            let run = result.unwrap();
            let (lane, solo) = (sink.get(), scalar_sink.get());
            assert_eq!(run.trace().len(), scalar.trace().len());
            assert_eq!(run.trace(), scalar.trace());
            assert_eq!(lane.final_time.to_bits(), solo.final_time.to_bits());
            assert_eq!(lane.ode_steps_accepted, solo.ode_steps_accepted);
            assert_eq!(lane.ode_steps_rejected, solo.ode_steps_rejected);
            assert_eq!(lane.lu_factorizations, solo.lu_factorizations);
            stops.push(lane.final_time);
            assert_eq!(scalar.sample_times(), run.sample_times());
            for name in sys.register_names() {
                assert_eq!(
                    scalar.register_series(name).unwrap(),
                    run.register_series(name).unwrap(),
                    "register {name}"
                );
            }
        }
        assert!(
            stops.windows(2).any(|w| w[0] != w[1]),
            "lanes stop at their own plateaus: {stops:?}"
        );
    }

    /// An engine error comes back from the harness's one pass: a compiled
    /// network of another system fails before any work, on a horizon
    /// that is never doubled.
    #[test]
    fn engine_errors_come_back_from_the_single_pass() {
        let mut c = SyncCircuit::new(ClockSpec::default());
        let x = c.input("x");
        c.output("y", x);
        let sys = c.compile().unwrap();
        let mut other = SyncCircuit::new(ClockSpec::default());
        let a = other.input("a");
        let d = other.delay("d", a);
        other.output("b", d);
        let other = other.compile().unwrap();
        let foreign = CompiledCrn::new(other.crn(), &molseq_kinetics::SimSpec::default());
        let sink = std::cell::Cell::new(molseq_kinetics::SimMetrics::default());
        let config = RunConfig {
            metrics: Some(&sink),
            ..RunConfig::default()
        };
        let err = drive_cycles(
            &sys,
            &[],
            2,
            &config,
            CycleResources {
                compiled: Some(&foreign),
                workspace: None,
            },
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                SyncError::Simulation(molseq_kinetics::SimError::DimensionMismatch { .. })
            ),
            "{err:?}"
        );
        assert_eq!(sink.get(), molseq_kinetics::SimMetrics::default());

        let own = CompiledCrn::new(sys.crn(), &molseq_kinetics::SimSpec::default());
        let cells = [
            BatchCell {
                compiled: &foreign,
                config: RunConfig::default(),
            },
            BatchCell {
                compiled: &own,
                config: RunConfig::default(),
            },
        ];
        let runs = drive_cycles_batch(&sys, &[], 2, &cells, &mut OdeWorkspace::new())
            .expect("shared setup");
        assert!(matches!(
            runs[0],
            Err(SyncError::Simulation(
                molseq_kinetics::SimError::DimensionMismatch { .. }
            ))
        ));
        assert_eq!(runs[1].as_ref().expect("the other lane runs").cycles(), 2);
    }

    /// A last plateau still open at the cap is not a cycle.
    #[test]
    fn an_open_plateau_at_the_cap_is_insufficient() {
        let mut c = SyncCircuit::new(ClockSpec::default());
        let x = c.input("x");
        c.output("y", x);
        let sys = c.compile().unwrap();
        let config = RunConfig {
            cycle_time_hint: 1.0,
            max_extensions: 0,
            ..RunConfig::default()
        };
        let err = drive_cycles(&sys, &[], 3, &config, CycleResources::default()).unwrap_err();
        assert!(
            matches!(
                err,
                SyncError::InsufficientCycles {
                    requested: 3,
                    found: 0
                }
            ),
            "{err:?}"
        );
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
            drive_cycles_batch(&sys, &[], 0, &cells, &mut OdeWorkspace::new()),
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
