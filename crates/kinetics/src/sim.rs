//! The unified simulation front end.
//!
//! Every integrator in this crate — deterministic ODE, exact SSA, the
//! explicit/implicit tau-leapers and the hybrid engine — is driven through
//! one builder:
//!
//! ```
//! use molseq_crn::Crn;
//! use molseq_kinetics::{CompiledCrn, OdeOptions, Simulation, SimSpec, State};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let crn: Crn = "X -> 0 @slow".parse()?;
//! let x = crn.find_species("X").expect("parsed");
//! let mut init = State::new(&crn);
//! init.set(x, 1.0);
//! let compiled = CompiledCrn::new(&crn, &SimSpec::default());
//! let trace = Simulation::new(&crn, &compiled)
//!     .init(&init)
//!     .options(OdeOptions::default().with_t_end(2.0))
//!     .run()?;
//! assert!(trace.final_state()[x.index()] < 0.2);
//! # Ok(())
//! # }
//! ```
//!
//! The method is inferred from the options genre ([`OdeOptions`] →
//! [`SimMethod::Ode`], [`SsaOptions`] → [`SimMethod::Ssa`], and so on);
//! [`Simulation::method`] selects one explicitly, e.g. to run it on its
//! default options. The builder is the single entry point to every
//! integrator: running the same options twice produces bit-identical
//! traces.

use crate::batch::{run_lane, BatchLane, OdeWorkspace};
use crate::compiled::CompiledCrn;
use crate::hybrid::HybridOptions;
use crate::metrics::MetricsSink;
use crate::ode::{OdeOptions, StepHook};
use crate::ssa::SsaOptions;
use crate::tau::TauLeapOptions;
use crate::tau_implicit::TauLeapImplicitOptions;
use crate::{Schedule, SimError, State, Trace};
use molseq_crn::Crn;

/// Which integrator a [`Simulation`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimMethod {
    /// Deterministic mass-action ODE integration (see [`OdeOptions`]).
    Ode,
    /// Gillespie's direct stochastic simulation algorithm.
    Ssa,
    /// Explicit (Cao–Gillespie) tau-leaping.
    TauLeap,
    /// Stiffness-aware tau-leaping that switches per leap between the
    /// explicit update and an implicit (damped-Newton) one.
    TauLeapImplicit,
    /// Hybrid ODE/SSA multiscale simulation: fast reversible reaction
    /// pairs integrate as a continuous subsystem, slow reactions fire as
    /// exact discrete events (see [`HybridOptions`]).
    Hybrid,
}

/// Options for one simulation, tagged by integrator genre. Usually built
/// implicitly through the `From` impls — pass the concrete options type
/// straight to [`Simulation::options`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimOptions<'h> {
    /// Deterministic options ([`SimMethod::Ode`]).
    Ode(OdeOptions<'h>),
    /// Exact stochastic options ([`SimMethod::Ssa`]).
    Stochastic(SsaOptions<'h>),
    /// Explicit tau-leaping options ([`SimMethod::TauLeap`]).
    TauLeap(TauLeapOptions<'h>),
    /// Implicit tau-leaping options ([`SimMethod::TauLeapImplicit`]).
    TauLeapImplicit(TauLeapImplicitOptions<'h>),
    /// Hybrid ODE/SSA options ([`SimMethod::Hybrid`]).
    Hybrid(HybridOptions<'h>),
}

impl<'h> From<OdeOptions<'h>> for SimOptions<'h> {
    fn from(opts: OdeOptions<'h>) -> Self {
        SimOptions::Ode(opts)
    }
}

impl<'h> From<SsaOptions<'h>> for SimOptions<'h> {
    fn from(opts: SsaOptions<'h>) -> Self {
        SimOptions::Stochastic(opts)
    }
}

impl<'h> From<TauLeapOptions<'h>> for SimOptions<'h> {
    fn from(opts: TauLeapOptions<'h>) -> Self {
        SimOptions::TauLeap(opts)
    }
}

impl<'h> From<TauLeapImplicitOptions<'h>> for SimOptions<'h> {
    fn from(opts: TauLeapImplicitOptions<'h>) -> Self {
        SimOptions::TauLeapImplicit(opts)
    }
}

impl<'h> From<HybridOptions<'h>> for SimOptions<'h> {
    fn from(opts: HybridOptions<'h>) -> Self {
        SimOptions::Hybrid(opts)
    }
}

impl<'h> SimOptions<'h> {
    /// The method this options genre selects by default.
    fn default_method(&self) -> SimMethod {
        match self {
            SimOptions::Ode(_) => SimMethod::Ode,
            SimOptions::Stochastic(_) => SimMethod::Ssa,
            SimOptions::TauLeap(_) => SimMethod::TauLeap,
            SimOptions::TauLeapImplicit(_) => SimMethod::TauLeapImplicit,
            SimOptions::Hybrid(_) => SimMethod::Hybrid,
        }
    }

    /// Whether this options genre can drive `method`.
    fn supports(&self, method: SimMethod) -> bool {
        matches!(
            (self, method),
            (SimOptions::Ode(_), SimMethod::Ode)
                | (SimOptions::Stochastic(_), SimMethod::Ssa)
                | (SimOptions::TauLeap(_), SimMethod::TauLeap)
                | (SimOptions::TauLeapImplicit(_), SimMethod::TauLeapImplicit)
                | (SimOptions::Hybrid(_), SimMethod::Hybrid)
        )
    }

    /// The default options for `method`.
    fn defaults_for(method: SimMethod) -> Self {
        match method {
            SimMethod::Ode => SimOptions::Ode(OdeOptions::default()),
            SimMethod::Ssa => SimOptions::Stochastic(SsaOptions::default()),
            SimMethod::TauLeap => SimOptions::TauLeap(TauLeapOptions::default()),
            SimMethod::TauLeapImplicit => {
                SimOptions::TauLeapImplicit(TauLeapImplicitOptions::default())
            }
            SimMethod::Hybrid => SimOptions::Hybrid(HybridOptions::default()),
        }
    }

    /// The sampling interval of the trace.
    fn record_interval(&self) -> f64 {
        match self {
            SimOptions::Ode(o) => o.record_interval(),
            SimOptions::Stochastic(o) => o.record_interval(),
            SimOptions::TauLeap(o) => o.base.record_interval(),
            SimOptions::TauLeapImplicit(o) => o.base.base.record_interval(),
            SimOptions::Hybrid(o) => o.record_interval(),
        }
    }

    fn set_step_hook(&mut self, hook: StepHook<'h>) {
        match self {
            SimOptions::Ode(o) => *o = o.with_step_hook(hook),
            SimOptions::Stochastic(o) => *o = o.with_step_hook(hook),
            SimOptions::TauLeap(o) => o.base = o.base.with_step_hook(hook),
            SimOptions::TauLeapImplicit(o) => o.base.base = o.base.base.with_step_hook(hook),
            SimOptions::Hybrid(o) => *o = o.with_step_hook(hook),
        }
    }

    fn set_metrics(&mut self, sink: MetricsSink<'h>) {
        match self {
            SimOptions::Ode(o) => *o = o.with_metrics(sink),
            SimOptions::Stochastic(o) => *o = o.with_metrics(sink),
            SimOptions::TauLeap(o) => o.base = o.base.with_metrics(sink),
            SimOptions::TauLeapImplicit(o) => o.base.base = o.base.base.with_metrics(sink),
            SimOptions::Hybrid(o) => *o = o.with_metrics(sink),
        }
    }
}

/// Builder for one simulation run over a precompiled network.
///
/// Required: [`Simulation::init`]. Everything else defaults: an empty
/// schedule, options inferred from [`Simulation::method`] (or
/// [`OdeOptions::default`] when neither is given), a fresh scratch
/// workspace. See the [module docs](self) for an end-to-end example.
pub struct Simulation<'a, 'h> {
    crn: &'a Crn,
    compiled: &'a CompiledCrn,
    init: Option<&'a State>,
    schedule: Option<&'a Schedule>,
    method: Option<SimMethod>,
    options: Option<SimOptions<'h>>,
    workspace: Option<&'a mut OdeWorkspace>,
    metrics: Option<MetricsSink<'h>>,
    step_hook: Option<StepHook<'h>>,
}

impl<'a, 'h> Simulation<'a, 'h> {
    /// Starts a builder for `crn` under the rate bindings of `compiled`.
    /// Compile once and reuse `compiled` (rebinding rates per sweep cell
    /// as needed); the builder itself is cheap.
    #[must_use]
    pub fn new(crn: &'a Crn, compiled: &'a CompiledCrn) -> Self {
        Simulation {
            crn,
            compiled,
            init: None,
            schedule: None,
            method: None,
            options: None,
            workspace: None,
            metrics: None,
            step_hook: None,
        }
    }

    /// Sets the initial state (required).
    #[must_use]
    pub fn init(mut self, init: &'a State) -> Self {
        self.init = Some(init);
        self
    }

    /// Sets the event schedule (timed injections and, for the methods
    /// that support them, triggers). Defaults to an empty schedule.
    #[must_use]
    pub fn schedule(mut self, schedule: &'a Schedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Selects the integrator explicitly. Only needed to run a method on
    /// its default options; otherwise the genre of
    /// [`Simulation::options`] picks the method.
    #[must_use]
    pub fn method(mut self, method: SimMethod) -> Self {
        self.method = Some(method);
        self
    }

    /// Sets the integrator options; accepts any concrete options type
    /// ([`OdeOptions`], [`SsaOptions`], [`TauLeapOptions`],
    /// [`TauLeapImplicitOptions`]) via `Into`.
    #[must_use]
    pub fn options(mut self, options: impl Into<SimOptions<'h>>) -> Self {
        self.options = Some(options.into());
        self
    }

    /// Attaches a reusable [`OdeWorkspace`] so repeated runs (sweep
    /// cells) do not re-allocate integrator buffers.
    /// Used by [`SimMethod::Ode`], [`SimMethod::TauLeapImplicit`] and
    /// [`SimMethod::Hybrid`]; ignored by the other methods. Results are
    /// bit-identical with or without a caller-supplied workspace.
    #[must_use]
    pub fn workspace(mut self, workspace: &'a mut OdeWorkspace) -> Self {
        self.workspace = Some(workspace);
        self
    }

    /// Installs a metrics sink, overriding any sink already present in
    /// the options. See [`crate::SimMetrics`].
    #[must_use]
    pub fn metrics(mut self, sink: MetricsSink<'h>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// Installs a cooperative interruption hook, overriding any hook
    /// already present in the options. See [`StepHook`].
    #[must_use]
    pub fn step_hook(mut self, hook: StepHook<'h>) -> Self {
        self.step_hook = Some(hook);
        self
    }

    /// Runs the simulation.
    ///
    /// # Panics
    ///
    /// Panics if [`Simulation::init`] was never called, or if an explicit
    /// [`Simulation::method`] disagrees with the genre of the supplied
    /// options (e.g. `SimMethod::Ode` with [`SsaOptions`]).
    ///
    /// # Errors
    ///
    /// [`SimError::BadRecordInterval`] for a sampling interval that is
    /// not finite and positive, whatever the method; otherwise whatever
    /// the dispatched integrator reports: dimension mismatches, bad time
    /// spans, exhausted step budgets, hook interruptions, non-finite
    /// states.
    pub fn run(self) -> Result<Trace, SimError> {
        let Simulation {
            crn,
            compiled,
            init,
            schedule,
            method,
            options,
            workspace,
            metrics,
            step_hook,
        } = self;
        let init = init.expect("Simulation::init(..) must be called before run()");
        let empty_schedule;
        let schedule = match schedule {
            Some(s) => s,
            None => {
                empty_schedule = Schedule::new();
                &empty_schedule
            }
        };
        let mut options = match (method, options) {
            (_, Some(o)) => {
                if let Some(m) = method {
                    assert!(
                        o.supports(m),
                        "Simulation: method {m:?} does not match the supplied options genre"
                    );
                }
                o
            }
            (Some(m), None) => SimOptions::defaults_for(m),
            (None, None) => SimOptions::defaults_for(SimMethod::Ode),
        };
        let method = method.unwrap_or_else(|| options.default_method());
        if let Some(hook) = step_hook {
            options.set_step_hook(hook);
        }
        if let Some(sink) = metrics {
            options.set_metrics(sink);
        }
        check_record_interval(options.record_interval())?;

        match (method, options) {
            (SimMethod::Ode, SimOptions::Ode(opts)) => {
                let lane = BatchLane {
                    compiled,
                    init,
                    schedule,
                    options: opts,
                };
                match workspace {
                    Some(ws) => run_lane(crn, lane, ws),
                    None => run_lane(crn, lane, &mut OdeWorkspace::new()),
                }
            }
            (SimMethod::Ssa, SimOptions::Stochastic(opts)) => {
                crate::ssa::run_ssa(crn, compiled, init, schedule, &opts)
            }
            (SimMethod::TauLeap, SimOptions::TauLeap(opts)) => {
                crate::tau::run_tau(crn, compiled, init, schedule, &opts)
            }
            (SimMethod::TauLeapImplicit, SimOptions::TauLeapImplicit(opts)) => match workspace {
                Some(ws) => {
                    crate::tau_implicit::run_tau_implicit(crn, compiled, init, schedule, &opts, ws)
                }
                None => {
                    let mut ws = OdeWorkspace::new();
                    crate::tau_implicit::run_tau_implicit(
                        crn, compiled, init, schedule, &opts, &mut ws,
                    )
                }
            },
            (SimMethod::Hybrid, SimOptions::Hybrid(opts)) => match workspace {
                Some(ws) => crate::hybrid::run_hybrid(crn, compiled, init, schedule, &opts, ws),
                None => {
                    let mut ws = OdeWorkspace::new();
                    crate::hybrid::run_hybrid(crn, compiled, init, schedule, &opts, &mut ws)
                }
            },
            // `supports` was asserted above; inferred methods always match.
            _ => unreachable!("method/options genre mismatch survived validation"),
        }
    }
}

/// Rejects a sampling interval the recording loops cannot advance by:
/// every engine samples with `while next <= until { push; next += dt }`,
/// which never ends for `dt <= 0` and never records for a NaN or
/// infinite `dt`.
pub(crate) fn check_record_interval(interval: f64) -> Result<(), SimError> {
    if interval.is_finite() && interval > 0.0 {
        Ok(())
    } else {
        Err(SimError::BadRecordInterval { interval })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimSpec;
    use std::cell::Cell;

    fn decay_setup() -> (Crn, CompiledCrn, State) {
        let crn: Crn = "X -> 0 @slow\n0 -> X @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(x, 40.0);
        (crn, compiled, init)
    }

    #[test]
    fn method_is_inferred_from_options_genre() {
        let (crn, compiled, init) = decay_setup();
        let sink = Cell::new(crate::SimMetrics::default());
        // SSA options without an explicit method must run the SSA core:
        // stochastic events get counted, ODE steps do not.
        let trace = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(SsaOptions::default().with_t_end(1.0).with_seed(7))
            .metrics(&sink)
            .run()
            .unwrap();
        assert!(trace.len() > 1);
        let m = sink.get();
        assert!(m.ssa_events > 0);
        assert_eq!(m.ode_steps_accepted, 0);
        assert_eq!(m.seed, 7);
    }

    #[test]
    fn defaults_to_ode_when_nothing_is_specified() {
        let (crn, compiled, init) = decay_setup();
        let sink = Cell::new(crate::SimMetrics::default());
        Simulation::new(&crn, &compiled)
            .init(&init)
            .metrics(&sink)
            .run()
            .unwrap();
        assert!(sink.get().ode_steps_accepted > 0);
        assert_eq!(sink.get().ssa_events, 0);
    }

    #[test]
    fn explicit_method_with_default_options_runs() {
        let (crn, compiled, init) = decay_setup();
        let sink = Cell::new(crate::SimMetrics::default());
        Simulation::new(&crn, &compiled)
            .init(&init)
            .method(SimMethod::Ssa)
            .metrics(&sink)
            .run()
            .unwrap();
        assert!(sink.get().ssa_events > 0);
    }

    #[test]
    #[should_panic(expected = "does not match the supplied options genre")]
    fn method_options_genre_mismatch_panics() {
        let (crn, compiled, init) = decay_setup();
        let _ = Simulation::new(&crn, &compiled)
            .init(&init)
            .method(SimMethod::Ode)
            .options(SsaOptions::default())
            .run();
    }

    #[test]
    #[should_panic(expected = "must be called before run()")]
    fn missing_init_panics() {
        let (crn, compiled, _) = decay_setup();
        let _ = Simulation::new(&crn, &compiled).run();
    }

    #[test]
    fn builder_hook_overrides_options_hook() {
        let (crn, compiled, init) = decay_setup();
        let hook = |steps: u64, _t: f64| {
            if steps >= 2 {
                std::ops::ControlFlow::Break("builder hook".to_owned())
            } else {
                std::ops::ControlFlow::Continue(())
            }
        };
        let err = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(SsaOptions::default().with_seed(3))
            .step_hook(&hook)
            .run()
            .unwrap_err();
        assert!(
            matches!(err, SimError::Interrupted { ref reason, .. } if reason == "builder hook"),
            "{err:?}"
        );
    }

    /// The builder is the single entry point (the pre-0.6 `simulate_*`
    /// shims were dropped): the contract is now that each method, driven
    /// through the builder with the same options, is bit-identical run to
    /// run — freshly compiled or through a shared compile + rebind, with
    /// or without an explicit method selection.
    #[test]
    fn builder_runs_are_bit_identical_per_method() {
        let (crn, compiled, init) = decay_setup();
        let recompiled = CompiledCrn::new(&crn, &SimSpec::default());
        let ssa_opts = SsaOptions::default().with_t_end(3.0).with_seed(42);
        let tau_opts = TauLeapOptions {
            base: ssa_opts,
            ..TauLeapOptions::default()
        };
        let imp_opts = TauLeapImplicitOptions {
            base: tau_opts,
            ..TauLeapImplicitOptions::default()
        };
        let hybrid_opts = crate::HybridOptions::default()
            .with_t_end(3.0)
            .with_seed(42);
        let runs: Vec<(&str, SimOptions)> = vec![
            ("ODE", OdeOptions::default().with_t_end(2.0).into()),
            ("SSA", ssa_opts.into()),
            ("tau-leap", tau_opts.into()),
            ("implicit tau-leap", imp_opts.into()),
            ("hybrid", hybrid_opts.into()),
        ];
        for (label, opts) in runs {
            let first = Simulation::new(&crn, &compiled)
                .init(&init)
                .options(opts)
                .run()
                .unwrap();
            let second = Simulation::new(&crn, &recompiled)
                .init(&init)
                .options(opts)
                .run()
                .unwrap();
            assert_eq!(first, second, "{label}");
        }
    }

    /// A zero or negative sampling interval would hang every engine's
    /// recording loop, so the builder rejects it, and a non-finite one,
    /// for every method before any work.
    #[test]
    fn unusable_record_intervals_are_rejected_for_every_method() {
        let (crn, compiled, init) = decay_setup();
        for dt in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let sink = Cell::new(crate::SimMetrics::default());
            let ssa = SsaOptions::default().with_record_interval(dt);
            let tau = TauLeapOptions {
                base: ssa,
                ..TauLeapOptions::default()
            };
            let runs: Vec<(&str, SimOptions)> = vec![
                ("ODE", OdeOptions::default().with_record_interval(dt).into()),
                ("SSA", ssa.into()),
                ("tau-leap", tau.into()),
                (
                    "implicit tau-leap",
                    TauLeapImplicitOptions {
                        base: tau,
                        ..TauLeapImplicitOptions::default()
                    }
                    .into(),
                ),
                (
                    "hybrid",
                    crate::HybridOptions::default()
                        .with_record_interval(dt)
                        .into(),
                ),
            ];
            for (label, opts) in runs {
                let err = Simulation::new(&crn, &compiled)
                    .init(&init)
                    .options(opts)
                    .metrics(&sink)
                    .run()
                    .expect_err("must reject");
                assert!(
                    matches!(err, SimError::BadRecordInterval { interval } if interval.to_bits() == dt.to_bits()),
                    "{label} at {dt}: {err:?}"
                );
            }
            // rejected before any work: nothing was flushed
            assert_eq!(sink.get(), crate::SimMetrics::default());
        }
    }

    #[test]
    fn supplied_workspace_is_bit_identical_to_fresh() {
        let (crn, compiled, init) = decay_setup();
        let opts = OdeOptions::default().with_t_end(2.0);
        let mut ws = OdeWorkspace::new();
        let reused = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(opts)
            .workspace(&mut ws)
            .run()
            .unwrap();
        let fresh = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(opts)
            .run()
            .unwrap();
        assert_eq!(reused, fresh);
    }
}
