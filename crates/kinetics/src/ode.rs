//! Options, hooks and quiescence runs of the deterministic mass-action
//! ODE engine.
//!
//! The engine itself is the one lock-step RODAS4 driver in
//! [`crate::batch`]: a single cell — an ODE [`crate::Simulation`], a
//! cycle-harness run, a [`simulate_until_quiescent`] chunk — runs there
//! as a batch of one lane, on the scalar kernels, and a rate sweep runs
//! many lanes at once. [`OdeOptions`] configure either.

use crate::batch::{run_lane, BatchLane, OdeWorkspace};
use crate::compiled::CompiledCrn;
use crate::metrics::{sinks_eq, MetricsSink};
use crate::{Schedule, SimError, SimSpec, State, Trace};
use molseq_crn::Crn;
use std::ops::ControlFlow;

/// A cooperative interruption hook polled once per integrator step (or
/// stochastic event) with the cumulative step count and the current
/// simulated time. Returning `ControlFlow::Break(reason)` aborts the run
/// with [`SimError::Interrupted`].
///
/// This is how the sweep engine's wall/step budgets reach *inside* a
/// simulation: `molseq-sweep`'s `JobCtx::step_hook` adapts
/// `record_steps`/`check` to this signature, so a runaway cell is stopped
/// mid-integration instead of only between cells.
pub type StepHook<'h> = &'h dyn Fn(u64, f64) -> ControlFlow<String>;

/// A clean stop, polled after every accepted integrator step (or fired
/// stochastic event) once that step's samples and trigger marks are in
/// the trace. Returning `true` ends the run `Ok` exactly as reaching
/// `t_end` does: the final state is pushed, the metrics are flushed with
/// the stop time, and a batched lane retires. Unlike a [`StepHook`]
/// break it is not an error.
///
/// The predicate reads the recorded samples, not the state a
/// [`crate::Trigger`] sees where it fires, so a stop decided on samples
/// leaves every sample before it where a run to `t_end` would have put
/// it. The cycle harness uses it to end a run when the last requested
/// clock plateau closes. The ODE engines and the exact SSA poll it; the tau-leapers
/// and the hybrid engine do not.
pub type StopHook<'h> = &'h dyn Fn(&Trace) -> bool;

/// Options controlling one deterministic run.
///
/// # Examples
///
/// ```
/// use molseq_kinetics::OdeOptions;
///
/// let opts = OdeOptions::default()
///     .with_t_end(50.0)
///     .with_record_interval(0.05)
///     .with_tolerances(1e-5, 1e-8);
/// assert_eq!(opts.t_end(), 50.0);
/// ```
#[derive(Clone, Copy)]
pub struct OdeOptions<'h> {
    rtol: f64,
    atol: f64,
    t_start: f64,
    t_end: f64,
    record_interval: f64,
    max_steps: usize,
    step_hook: Option<StepHook<'h>>,
    stop_hook: Option<StopHook<'h>>,
    metrics: Option<MetricsSink<'h>>,
}

impl std::fmt::Debug for OdeOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OdeOptions")
            .field("rtol", &self.rtol)
            .field("atol", &self.atol)
            .field("t_start", &self.t_start)
            .field("t_end", &self.t_end)
            .field("record_interval", &self.record_interval)
            .field("max_steps", &self.max_steps)
            .field("step_hook", &self.step_hook.map(|_| "<hook>"))
            .field("stop_hook", &self.stop_hook.map(|_| "<stop>"))
            .field("metrics", &self.metrics.map(|_| "<sink>"))
            .finish()
    }
}

impl PartialEq for OdeOptions<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.rtol == other.rtol
            && self.atol == other.atol
            && self.t_start == other.t_start
            && self.t_end == other.t_end
            && self.record_interval == other.record_interval
            && self.max_steps == other.max_steps
            && hooks_eq(self.step_hook, other.step_hook)
            && hooks_eq(self.stop_hook, other.stop_hook)
            && sinks_eq(self.metrics, other.metrics)
    }
}

/// Hooks compare by identity (same closure object), not behavior.
pub(crate) fn hooks_eq<T: ?Sized>(a: Option<&T>, b: Option<&T>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => std::ptr::eq(a as *const T as *const (), b as *const T as *const ()),
        _ => false,
    }
}

impl Default for OdeOptions<'_> {
    /// `rtol = 1e-6`, `atol = 1e-9`, span `[0, 10]`, recording every
    /// `0.1` time units, budget of 20 million steps, no step hook.
    fn default() -> Self {
        OdeOptions {
            rtol: 1e-6,
            atol: 1e-9,
            t_start: 0.0,
            t_end: 10.0,
            record_interval: 0.1,
            max_steps: 20_000_000,
            step_hook: None,
            stop_hook: None,
            metrics: None,
        }
    }
}

impl<'h> OdeOptions<'h> {
    /// Sets the step controller's relative and absolute tolerances per
    /// component (builder style).
    #[must_use]
    pub fn with_tolerances(mut self, rtol: f64, atol: f64) -> Self {
        self.rtol = rtol;
        self.atol = atol;
        self
    }

    /// Sets the start time (builder style).
    #[must_use]
    pub fn with_t_start(mut self, t: f64) -> Self {
        self.t_start = t;
        self
    }

    /// Sets the end time (builder style).
    #[must_use]
    pub fn with_t_end(mut self, t: f64) -> Self {
        self.t_end = t;
        self
    }

    /// Sets the sampling interval for the recorded trace (builder style).
    #[must_use]
    pub fn with_record_interval(mut self, dt: f64) -> Self {
        self.record_interval = dt;
        self
    }

    /// Sets the step budget (builder style).
    #[must_use]
    pub fn with_max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Installs a cooperative interruption hook (builder style), polled
    /// once per attempted step with `(cumulative steps, current time)`.
    /// See [`StepHook`].
    #[must_use]
    pub fn with_step_hook(mut self, hook: StepHook<'h>) -> Self {
        self.step_hook = Some(hook);
        self
    }

    /// Installs a clean stop (builder style), polled after every
    /// accepted step with the trace recorded so far. See [`StopHook`].
    #[must_use]
    pub fn with_stop_hook(mut self, stop: StopHook<'h>) -> Self {
        self.stop_hook = Some(stop);
        self
    }

    /// Installs a metrics sink (builder style). On every exit path —
    /// success or error — the integrator absorbs its work counters
    /// (accepted/rejected steps, LU factorizations, final time) into the
    /// sink. See [`SimMetrics`](crate::SimMetrics).
    #[must_use]
    pub fn with_metrics(mut self, sink: MetricsSink<'h>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// The configured end time.
    #[must_use]
    pub fn t_end(&self) -> f64 {
        self.t_end
    }

    /// The configured start time.
    #[must_use]
    pub fn t_start(&self) -> f64 {
        self.t_start
    }

    // Crate-level accessors for the driver (`crate::batch`).
    pub(crate) fn tolerances(&self) -> (f64, f64) {
        (self.rtol, self.atol)
    }

    pub(crate) fn record_interval(&self) -> f64 {
        self.record_interval
    }

    pub(crate) fn max_steps(&self) -> usize {
        self.max_steps
    }

    pub(crate) fn step_hook(&self) -> Option<StepHook<'h>> {
        self.step_hook
    }

    pub(crate) fn stop_hook(&self) -> Option<StopHook<'h>> {
        self.stop_hook
    }

    pub(crate) fn metrics_sink(&self) -> Option<MetricsSink<'h>> {
        self.metrics
    }
}

/// Integrates until the system is *quiescent* — every component of the
/// derivative is below `eps` (absolute, per time unit) — or until
/// `opts.t_end()`, whichever comes first. Returns the trace and the time
/// at which quiescence was detected (`None` if the horizon was reached
/// first).
///
/// This is the natural way to evaluate combinational (run-to-completion)
/// constructs whose settling time is data-dependent. Timed injections are
/// honoured (quiescence is only tested after the last injection).
///
/// # Panics
///
/// Panics if the schedule contains triggers or the options a
/// [`StopHook`] — neither trigger state nor a stop's view of the trace
/// can be carried across the internal integration chunks; use the
/// [`crate::Simulation`] builder for event-driven runs.
///
/// # Errors
///
/// Same conditions as an ODE run of the [`crate::Simulation`] builder.
///
/// # Examples
///
/// ```
/// use molseq_crn::Crn;
/// use molseq_kinetics::{simulate_until_quiescent, OdeOptions, Schedule, SimSpec, State};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let crn: Crn = "X -> Y @slow".parse()?;
/// let x = crn.find_species("X").expect("parsed");
/// let mut init = State::new(&crn);
/// init.set(x, 10.0);
/// let (trace, settled) = simulate_until_quiescent(
///     &crn,
///     &init,
///     &Schedule::new(),
///     &OdeOptions::default().with_t_end(1000.0),
///     &SimSpec::default(),
///     1e-6,
/// )?;
/// assert!(settled.is_some(), "decay settles long before t = 1000");
/// assert!(trace.final_state()[x.index()] < 1e-4);
/// # Ok(())
/// # }
/// ```
pub fn simulate_until_quiescent(
    crn: &Crn,
    init: &State,
    schedule: &Schedule,
    opts: &OdeOptions,
    spec: &SimSpec,
    eps: f64,
) -> Result<(Trace, Option<f64>), SimError> {
    assert!(
        schedule.triggers().is_empty() && opts.stop_hook.is_none(),
        "simulate_until_quiescent does not support triggers or stop hooks"
    );
    // Integrate in chunks; after each chunk, test the derivative.
    let compiled = CompiledCrn::new(crn, spec);
    let last_injection = schedule
        .injections()
        .iter()
        .map(|i| i.time)
        .fold(opts.t_start(), f64::max);
    let chunk = (opts.t_end() - opts.t_start()) / 64.0;
    let mut t = opts.t_start();
    let mut state = init.clone();
    let mut full_trace: Option<Trace> = None;
    let mut settled = None;
    let mut workspace = OdeWorkspace::new();
    let mut dx = vec![0.0; state.len()];

    while t < opts.t_end() - 1e-12 {
        let t_next = (t + chunk).min(opts.t_end());
        // only this chunk's injections: earlier ones were already applied
        // (an injection exactly at the global start belongs to chunk 0)
        let mut chunk_schedule = Schedule::new();
        for inj in schedule.injections() {
            let in_chunk = inj.time > t && inj.time <= t_next;
            let at_start = t == opts.t_start() && inj.time <= t;
            if in_chunk || at_start {
                chunk_schedule = chunk_schedule.inject(inj.time.max(t), inj.species, inj.amount);
            }
        }
        let lane = BatchLane {
            compiled: &compiled,
            init: &state,
            schedule: &chunk_schedule,
            options: (*opts).with_t_start(t).with_t_end(t_next),
        };
        let trace = run_lane(crn, lane, &mut workspace)?;
        state = State::from_vec(trace.final_state().to_vec());
        match &mut full_trace {
            None => full_trace = Some(trace),
            Some(full) => full.append(&trace),
        }
        t = t_next;

        if t > last_injection {
            compiled.derivative(state.as_slice(), &mut dx);
            if dx.iter().all(|d| d.abs() < eps) {
                settled = Some(t);
                break;
            }
        }
    }
    Ok((
        full_trace.expect("at least one chunk was integrated"),
        settled,
    ))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::SimMetrics;
    use molseq_crn::{Crn, RateAssignment};

    fn decay() -> (Crn, molseq_crn::SpeciesId) {
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        (crn, x)
    }

    // Local builder-backed stand-ins shadow the deprecated free functions
    // pulled in by `use super::*`, so the test bodies below exercise the
    // `Simulation` API without churn.
    fn simulate_ode(
        crn: &Crn,
        init: &State,
        schedule: &Schedule,
        opts: &OdeOptions,
        spec: &SimSpec,
    ) -> Result<Trace, SimError> {
        let compiled = CompiledCrn::new(crn, spec);
        crate::sim::Simulation::new(crn, &compiled)
            .init(init)
            .schedule(schedule)
            .options(*opts)
            .run()
    }

    fn simulate_ode_compiled(
        crn: &Crn,
        compiled: &CompiledCrn,
        init: &State,
        schedule: &Schedule,
        opts: &OdeOptions,
    ) -> Result<Trace, SimError> {
        crate::sim::Simulation::new(crn, compiled)
            .init(init)
            .schedule(schedule)
            .options(*opts)
            .run()
    }

    fn simulate_ode_with_workspace(
        crn: &Crn,
        compiled: &CompiledCrn,
        init: &State,
        schedule: &Schedule,
        opts: &OdeOptions,
        workspace: &mut OdeWorkspace,
    ) -> Result<Trace, SimError> {
        crate::sim::Simulation::new(crn, compiled)
            .init(init)
            .schedule(schedule)
            .options(*opts)
            .workspace(workspace)
            .run()
    }

    fn run(crn: &Crn, init: &State, opts: &OdeOptions) -> Trace {
        simulate_ode(crn, init, &Schedule::new(), opts, &SimSpec::default()).unwrap()
    }

    #[test]
    fn exponential_decay_matches_closed_form() {
        let (crn, x) = decay();
        let mut init = State::new(&crn);
        init.set(x, 1.0);
        let opts = OdeOptions::default().with_t_end(2.0);
        let trace = run(&crn, &init, &opts);
        for (i, &t) in trace.times().iter().enumerate() {
            let expected = (-t).exp();
            assert!(
                (trace.state(i)[x.index()] - expected).abs() < 1e-4,
                "t={t}: {} vs {expected}",
                trace.state(i)[x.index()]
            );
        }
    }

    /// One closed-form oracle case: a linear network, its initial
    /// state, an optional injection `(time, species, amount)`, its span,
    /// the scale its errors are measured against (its peak
    /// concentration) and its exact solution, species in parse order.
    struct ClosedForm {
        name: &'static str,
        src: &'static str,
        init: &'static [f64],
        injection: Option<(f64, usize, f64)>,
        t_end: f64,
        scale: f64,
        exact: fn(f64) -> Vec<f64>,
    }

    const CLOSED_FORMS: [ClosedForm; 5] = [
        ClosedForm {
            name: "decay",
            src: "X -> 0 @1",
            init: &[1.0],
            injection: None,
            t_end: 2.0,
            scale: 1.0,
            exact: |t| vec![(-t).exp()],
        },
        ClosedForm {
            name: "isomerization",
            src: "A -> B @1\nB -> A @0.5",
            init: &[1.0, 0.0],
            injection: None,
            t_end: 3.0,
            scale: 1.0,
            exact: |t| {
                let a = 1.0 / 3.0 + 2.0 / 3.0 * (-1.5 * t).exp();
                vec![a, 1.0 - a]
            },
        },
        ClosedForm {
            name: "chain",
            src: "X -> Y @2\nY -> Z @0.5",
            init: &[1.0, 0.0, 0.0],
            injection: None,
            t_end: 4.0,
            scale: 1.0,
            exact: |t| {
                let x = (-2.0 * t).exp();
                let y = 4.0 / 3.0 * ((-0.5 * t).exp() - x);
                vec![x, y, 1.0 - x - y]
            },
        },
        ClosedForm {
            name: "stiff source-sink",
            src: "0 -> X @1\nX -> 0 @1000",
            init: &[1.0],
            injection: None,
            t_end: 1.0,
            scale: 1.0,
            exact: |t| vec![1e-3 + (1.0 - 1e-3) * (-1000.0 * t).exp()],
        },
        ClosedForm {
            name: "injection",
            src: "X -> Y @10",
            init: &[0.0, 0.0],
            injection: Some((1.05, 0, 60.0)),
            t_end: 2.0,
            scale: 60.0,
            exact: |t| {
                if t < 1.05 {
                    vec![0.0, 0.0]
                } else {
                    let x = 60.0 * (-10.0 * (t - 1.05)).exp();
                    vec![x, 60.0 - x]
                }
            },
        },
    ];

    /// The largest distance of any recorded sample from its closed form,
    /// over the scale of its case, at `(rtol, atol)`.
    fn closed_form_error(case: &ClosedForm, rtol: f64, atol: f64) -> f64 {
        let crn: Crn = case.src.parse().unwrap();
        let mut schedule = Schedule::new();
        if let Some((time, species, amount)) = case.injection {
            let id = crn.species_ids().nth(species).unwrap();
            schedule = schedule.inject(time, id, amount);
        }
        let opts = OdeOptions::default()
            .with_t_end(case.t_end)
            .with_tolerances(rtol, atol);
        let init = State::from_vec(case.init.to_vec());
        let trace = simulate_ode(&crn, &init, &schedule, &opts, &SimSpec::default()).unwrap();
        let mut worst = 0.0f64;
        for (i, &t) in trace.times().iter().enumerate() {
            for (x, e) in trace.state(i).iter().zip((case.exact)(t)) {
                worst = worst.max((x - e).abs() / case.scale);
            }
        }
        worst
    }

    /// Ground truth for the integrator and its continuous extension: on
    /// linear networks with known solutions, a stiff one and a mid-span
    /// injection among them, every recorded sample lies within `rtol` of
    /// the closed form (relative to the network's peak concentration), at
    /// the harness tolerances and at the defaults.
    #[test]
    fn recorded_samples_match_closed_forms_within_rtol() {
        for (rtol, atol) in [(1e-5, 1e-8), (1e-6, 1e-9)] {
            let errors: Vec<(&str, f64)> = CLOSED_FORMS
                .iter()
                .map(|case| (case.name, closed_form_error(case, rtol, atol)))
                .collect();
            assert!(
                errors.iter().all(|&(_, e)| e <= rtol),
                "rtol {rtol:e}: {errors:?}"
            );
        }
    }

    /// `out = x + a·k`, componentwise.
    fn axpy(out: &mut [f64], x: &[f64], a: f64, k: &[f64]) {
        for ((o, &xi), &ki) in out.iter_mut().zip(x).zip(k) {
            *o = xi + a * ki;
        }
    }

    /// Classical fixed-step RK4 from `init` over `[0, t_end]`: an
    /// explicit reference that shares nothing with the Rosenbrock stepper
    /// but the derivative kernel.
    pub(crate) fn rk4_reference(
        compiled: &CompiledCrn,
        init: &[f64],
        t_end: f64,
        h: f64,
    ) -> Vec<f64> {
        let n = init.len();
        let mut x = init.to_vec();
        let mut k = [vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]];
        let mut tmp = vec![0.0; n];
        for _ in 0..(t_end / h).round() as usize {
            compiled.derivative(&x, &mut k[0]);
            axpy(&mut tmp, &x, 0.5 * h, &k[0]);
            compiled.derivative(&tmp, &mut k[1]);
            axpy(&mut tmp, &x, 0.5 * h, &k[1]);
            compiled.derivative(&tmp, &mut k[2]);
            axpy(&mut tmp, &x, h, &k[2]);
            compiled.derivative(&tmp, &mut k[3]);
            for (i, xi) in x.iter_mut().enumerate() {
                *xi += h / 6.0 * (k[0][i] + 2.0 * k[1][i] + 2.0 * k[2][i] + k[3][i]);
            }
        }
        x
    }

    #[test]
    fn rosenbrock_matches_a_fixed_step_rk4_reference() {
        let crn: Crn = "A + B -> C @slow\nC -> A @slow".parse().unwrap();
        let a = crn.find_species("A").unwrap();
        let b = crn.find_species("B").unwrap();
        let mut init = State::new(&crn);
        init.set(a, 2.0).set(b, 1.5);
        let adaptive = run(&crn, &init, &OdeOptions::default().with_t_end(5.0));
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let fixed = rk4_reference(&compiled, init.as_slice(), 5.0, 1e-4);
        for (fa, fb) in adaptive.final_state().iter().zip(&fixed) {
            assert!((fa - fb).abs() < 1e-5, "{fa} vs {fb}");
        }
    }

    #[test]
    fn bimolecular_annihilation_leaves_difference() {
        // X + Y -> 0 fast: min quantity is destroyed, |X−Y| remains.
        let crn: Crn = "X + Y -> 0 @fast".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let y = crn.find_species("Y").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 30.0).set(y, 12.0);
        let trace = run(&crn, &init, &OdeOptions::default().with_t_end(5.0));
        assert!((trace.final_state()[x.index()] - 18.0).abs() < 1e-3);
        assert!(trace.final_state()[y.index()] < 1e-3);
    }

    #[test]
    fn conservation_holds_along_trajectory() {
        let crn: Crn = "A -> B @slow\nB -> A @fast".parse().unwrap();
        let a = crn.find_species("A").unwrap();
        let mut init = State::new(&crn);
        init.set(a, 10.0);
        let trace = run(&crn, &init, &OdeOptions::default().with_t_end(3.0));
        for i in 0..trace.len() {
            let total: f64 = trace.state(i).iter().sum();
            assert!((total - 10.0).abs() < 1e-6);
        }
    }

    #[test]
    fn injection_adds_mass_at_the_right_time() {
        let (crn, x) = decay();
        let init = State::new(&crn); // starts empty
        let schedule = Schedule::new().inject(1.0, x, 5.0);
        let opts = OdeOptions::default().with_t_end(2.0);
        let trace = simulate_ode(&crn, &init, &schedule, &opts, &SimSpec::default()).unwrap();
        assert!(trace.value_at(x, 0.9) < 1e-9);
        let just_after = trace.value_at(x, 1.0 + 1e-9);
        assert!(just_after > 4.9, "{just_after}");
        // decays afterwards
        let expected = 5.0 * (-1.0f64).exp();
        assert!((trace.value_at(x, 2.0) - expected).abs() < 1e-4);
    }

    #[test]
    fn trigger_marks_record_crossings() {
        // X grows from source; trigger marks when X exceeds 1.
        let crn: Crn = "0 -> X @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let schedule = Schedule::new().trigger(crate::Trigger::mark(crate::Condition::Above {
            species: x,
            threshold: 1.0,
        }));
        let opts = OdeOptions::default().with_t_end(3.0);
        let trace = simulate_ode(
            &crn,
            &State::new(&crn),
            &schedule,
            &opts,
            &SimSpec::default(),
        )
        .unwrap();
        let marks = trace.mark_times(0);
        assert_eq!(marks.len(), 1);
        // X = t crosses 1 at t = 1, where the driver locates the firing
        assert!((marks[0] - 1.0).abs() <= 1e-6, "{}", marks[0]);
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let (crn, _) = decay();
        let bad = State::from_vec(vec![1.0, 2.0, 3.0]);
        let err = simulate_ode(
            &crn,
            &bad,
            &Schedule::new(),
            &OdeOptions::default(),
            &SimSpec::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::DimensionMismatch { .. }));
    }

    #[test]
    fn bad_time_span_is_reported() {
        let (crn, x) = decay();
        let mut init = State::new(&crn);
        init.set(x, 1.0);
        let opts = OdeOptions::default().with_t_start(5.0).with_t_end(1.0);
        let err =
            simulate_ode(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap_err();
        assert!(matches!(err, SimError::BadTimeSpan { .. }));
    }

    #[test]
    fn step_limit_is_enforced() {
        let (crn, x) = decay();
        let mut init = State::new(&crn);
        init.set(x, 1.0);
        let opts = OdeOptions::default().with_t_end(100.0).with_max_steps(5);
        let err =
            simulate_ode(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap_err();
        assert!(matches!(err, SimError::StepLimitExceeded { .. }));
    }

    #[test]
    fn stiff_ratio_is_integrated() {
        // fast + slow in one system with ratio 1e4
        let crn: Crn = "A -> B @fast\n0 -> A @slow".parse().unwrap();
        let a = crn.find_species("A").unwrap();
        let b = crn.find_species("B").unwrap();
        let spec = SimSpec::new(RateAssignment::from_ratio(1e4));
        let opts = OdeOptions::default().with_t_end(2.0);
        let trace = simulate_ode(&crn, &State::new(&crn), &Schedule::new(), &opts, &spec).unwrap();
        // quasi-steady state: A ≈ k_slow/k_fast, B accumulates ≈ t
        assert!(trace.final_state()[a.index()] < 1e-3);
        assert!((trace.final_state()[b.index()] - 2.0).abs() < 0.01);
    }

    #[test]
    fn runaway_autocatalysis_reports_nonfinite_state() {
        // X -> 2X at a huge fixed rate overflows f64 within the horizon;
        // the integrator must fail loudly, not return garbage, and the
        // small step budget keeps the failure quick
        let crn: Crn = "X -> 2X @1e30".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 1.0);
        let result = simulate_ode(
            &crn,
            &init,
            &Schedule::new(),
            &OdeOptions::default()
                .with_t_end(1000.0)
                .with_max_steps(1000),
            &SimSpec::default(),
        );
        assert!(
            matches!(
                result,
                Err(SimError::NonFiniteState { .. }) | Err(SimError::StepLimitExceeded { .. })
            ),
            "{result:?}"
        );
    }

    #[test]
    fn quiescence_detects_settling() {
        let crn: Crn = "X -> Y @fast".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 5.0);
        let (trace, settled) = simulate_until_quiescent(
            &crn,
            &init,
            &Schedule::new(),
            &OdeOptions::default().with_t_end(640.0),
            &SimSpec::default(),
            1e-9,
        )
        .unwrap();
        let settled = settled.expect("fast decay settles");
        assert!(settled < 120.0, "settled at {settled}");
        assert!(trace.final_state()[x.index()] < 1e-9);
    }

    #[test]
    fn quiescence_waits_for_injections() {
        let crn: Crn = "X -> Y @fast".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let y = crn.find_species("Y").unwrap();
        // empty start; X injected midway — quiescence must not trigger
        // before the injection
        let schedule = Schedule::new().inject(100.0, x, 4.0);
        let (trace, settled) = simulate_until_quiescent(
            &crn,
            &State::new(&crn),
            &schedule,
            &OdeOptions::default().with_t_end(640.0),
            &SimSpec::default(),
            1e-9,
        )
        .unwrap();
        let settled = settled.expect("settles after the injection");
        assert!(settled > 100.0, "settled at {settled}");
        assert!((trace.final_state()[y.index()] - 4.0).abs() < 1e-6);
    }

    #[test]
    fn quiescence_injection_applies_once() {
        // a t=0 injection must not be re-applied at every chunk boundary
        let crn: Crn = "A -> B @slow".parse().unwrap();
        let a = crn.find_species("A").unwrap();
        let b = crn.find_species("B").unwrap();
        let schedule = Schedule::new().inject(0.0, a, 7.0);
        let (trace, _) = simulate_until_quiescent(
            &crn,
            &State::new(&crn),
            &schedule,
            &OdeOptions::default().with_t_end(320.0),
            &SimSpec::default(),
            1e-9,
        )
        .unwrap();
        let total = trace.final_state()[a.index()] + trace.final_state()[b.index()];
        assert!((total - 7.0).abs() < 1e-6, "total {total}");
    }

    #[test]
    #[should_panic(expected = "does not support triggers")]
    fn quiescence_rejects_triggers() {
        let crn: Crn = "X -> Y @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let schedule = Schedule::new().trigger(crate::Trigger::mark(crate::Condition::Above {
            species: x,
            threshold: 1.0,
        }));
        let _ = simulate_until_quiescent(
            &crn,
            &State::new(&crn),
            &schedule,
            &OdeOptions::default(),
            &SimSpec::default(),
            1e-9,
        );
    }

    #[test]
    fn step_hook_interrupts_integration() {
        let (crn, x) = decay();
        let mut init = State::new(&crn);
        init.set(x, 1.0);
        let hook = |steps: u64, _t: f64| {
            if steps >= 3 {
                ControlFlow::Break("test budget".to_owned())
            } else {
                ControlFlow::Continue(())
            }
        };
        let opts = OdeOptions::default().with_t_end(10.0).with_step_hook(&hook);
        let err =
            simulate_ode(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap_err();
        assert!(
            matches!(err, SimError::Interrupted { ref reason, .. } if reason == "test budget"),
            "{err:?}"
        );
    }

    /// A stop hook ends the run `Ok` where it fires: the samples before
    /// it are those of a run to `t_end`, the final sample is the stop
    /// time, and the metrics report the shorter run.
    #[test]
    fn stop_hook_ends_the_run_on_a_prefix() {
        let crn: Crn = "A + B -> C @fast\nC -> A @slow".parse().unwrap();
        let a = crn.find_species("A").unwrap();
        let mut init = State::new(&crn);
        init.set(a, 2.0).set(crn.find_species("B").unwrap(), 1.5);
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let opts = OdeOptions::default().with_t_end(10.0);
        let full_sink = std::cell::Cell::new(SimMetrics::default());
        let full = simulate_ode_compiled(
            &crn,
            &compiled,
            &init,
            &Schedule::new(),
            &opts.with_metrics(&full_sink),
        )
        .unwrap();
        let stop = |trace: &Trace| trace.len() > 25;
        let sink = std::cell::Cell::new(SimMetrics::default());
        let stopped = simulate_ode_compiled(
            &crn,
            &compiled,
            &init,
            &Schedule::new(),
            &opts.with_stop_hook(&stop).with_metrics(&sink),
        )
        .unwrap();
        let kept = stopped.len() - 1;
        assert!(kept > 25 && kept < full.len());
        assert_eq!(stopped.times()[..kept], full.times()[..kept]);
        for i in 0..kept {
            assert_eq!(stopped.state(i), full.state(i));
        }
        let m = sink.get();
        assert_eq!(stopped.times()[kept], m.final_time);
        assert!(m.final_time >= stopped.times()[kept - 1] && m.final_time < 10.0);
        assert!(m.ode_steps_accepted < full_sink.get().ode_steps_accepted);
    }

    #[test]
    fn workspace_reuse_is_bit_identical_to_fresh() {
        // The same workspace driven across different networks and
        // tolerances must give exactly the trace a fresh workspace gives.
        let crn: Crn = "A + B -> C @fast\nC -> A @slow".parse().unwrap();
        let a = crn.find_species("A").unwrap();
        let mut init = State::new(&crn);
        init.set(a, 2.0);
        let other: Crn = "X -> 2X @slow\n2X -> X @fast".parse().unwrap();
        let xo = other.find_species("X").unwrap();
        let mut other_init = State::new(&other);
        other_init.set(xo, 1.0);

        let spec = SimSpec::default();
        let compiled = CompiledCrn::new(&crn, &spec);
        let other_compiled = CompiledCrn::new(&other, &spec);
        let schedule = Schedule::new();
        let mut ws = OdeWorkspace::new();
        for (rtol, atol) in [(1e-6, 1e-9), (1e-3, 1e-6)] {
            let opts = OdeOptions::default()
                .with_t_end(4.0)
                .with_tolerances(rtol, atol);
            // dirty the workspace with a different-sized problem first
            let _ = simulate_ode_with_workspace(
                &other,
                &other_compiled,
                &other_init,
                &schedule,
                &opts,
                &mut ws,
            )
            .unwrap();
            let reused =
                simulate_ode_with_workspace(&crn, &compiled, &init, &schedule, &opts, &mut ws)
                    .unwrap();
            let fresh = simulate_ode_compiled(&crn, &compiled, &init, &schedule, &opts).unwrap();
            assert_eq!(reused, fresh, "rtol {rtol}, atol {atol}");
        }
    }

    #[test]
    fn record_interval_controls_density() {
        let (crn, x) = decay();
        let mut init = State::new(&crn);
        init.set(x, 1.0);
        let coarse = run(
            &crn,
            &init,
            &OdeOptions::default()
                .with_t_end(1.0)
                .with_record_interval(0.5),
        );
        let fine = run(
            &crn,
            &init,
            &OdeOptions::default()
                .with_t_end(1.0)
                .with_record_interval(0.01),
        );
        assert!(fine.len() > coarse.len() * 5);
    }
}
