//! # molseq-kinetics — simulators for chemical reaction networks
//!
//! Five integrators over the [`molseq_crn::Crn`] model, all driven through
//! the [`Simulation`] builder and selected by [`SimMethod`]:
//!
//! * **Deterministic mass-action ODE** integration ([`SimMethod::Ode`])
//!   with an adaptive fourth-order Rosenbrock stepper (RODAS4, L-stable,
//!   samples from its own continuous extension), non-negativity
//!   projection, timed injections and condition triggers. This is the
//!   workhorse behind every figure of the paper reproduction: the paper
//!   validates its designs "through ODE simulations of the mass-action
//!   chemical kinetics". One driver runs it: a single run is a batch of
//!   one lane, and [`run_ode_batch`] advances many structurally
//!   identical cells (one network under many rate bindings) in lock-step,
//!   each bit-identical to its one-lane run.
//! * **Exact stochastic simulation** ([`SimMethod::Ssa`], Gillespie's
//!   direct method with dependency-graph propensity updates) over integer
//!   copy numbers, used to check that the constructs survive molecular
//!   noise at finite counts (experiment E10).
//! * **Tau-leaping**, explicit ([`SimMethod::TauLeap`]) and
//!   stiffness-aware implicit ([`SimMethod::TauLeapImplicit`]), for the
//!   large-count and stiff regimes where exact methods crawl.
//! * **Hybrid ODE/SSA** ([`SimMethod::Hybrid`]): fast reversible reaction
//!   pairs integrate as a continuous subsystem while slow reactions fire
//!   as exact discrete events against the evolving continuous state — the
//!   natural fit for the paper's clocked schemes, whose clock churns
//!   through orders of magnitude more events than the computation.
//!
//! All share the [`Trace`] recording type and the [`Schedule`] event model,
//! so an experiment can be run under any interpretation without changes.
//!
//! ## Example
//!
//! ```
//! use molseq_crn::Crn;
//! use molseq_kinetics::{CompiledCrn, OdeOptions, Schedule, SimSpec, Simulation, State};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Exponential decay: X -> 0 at the slow rate (k = 1).
//! let crn: Crn = "X -> 0 @slow".parse()?;
//! let x = crn.find_species("X").expect("registered by the parser");
//!
//! let mut init = State::new(&crn);
//! init.set(x, 1.0);
//!
//! let compiled = CompiledCrn::new(&crn, &SimSpec::default());
//! let trace = Simulation::new(&crn, &compiled)
//!     .init(&init)
//!     .options(OdeOptions::default().with_t_end(1.0))
//!     .run()?;
//! let final_x = trace.final_state()[x.index()];
//! assert!((final_x - (-1.0f64).exp()).abs() < 1e-4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cache;
mod compare;
mod compiled;
mod error;
mod events;
mod hybrid;
mod metrics;
mod ode;
mod plot;
mod replicate;
mod sim;
mod ssa;
mod state;
mod stiff;
mod tau;
mod tau_implicit;
mod trace;

pub use batch::{run_ode_batch, BatchLane, OdeWorkspace};
pub use cache::CompiledCache;
pub use compare::{compare_trajectories, Divergence, MappedSpecies};
pub use compiled::CompiledCrn;
pub use error::SimError;
pub use events::{Condition, Injection, Schedule, Trigger, TriggerAction};
pub use hybrid::{HybridOptions, DEFAULT_DISCRETENESS_THRESHOLD};
pub use metrics::{MetricsSink, SimMetrics};
pub use ode::{simulate_until_quiescent, OdeOptions, StepHook, StopHook};
pub use plot::{downsample, render_species, sparkline};
pub use replicate::Replicator;
pub use sim::{SimMethod, SimOptions, Simulation};
pub use ssa::SsaOptions;
pub use state::State;
pub use tau::TauLeapOptions;
pub use tau_implicit::TauLeapImplicitOptions;
pub use trace::{crossings, estimate_period, Crossing, Direction, Trace};

use molseq_crn::{RateAssignment, RateJitter};

/// The kinetic interpretation of a network's coarse rate categories for one
/// simulation run: a numeric [`RateAssignment`] plus an optional
/// per-reaction [`RateJitter`].
///
/// # Examples
///
/// ```
/// use molseq_crn::RateAssignment;
/// use molseq_kinetics::SimSpec;
///
/// let spec = SimSpec::new(RateAssignment::from_ratio(100.0));
/// assert_eq!(spec.assignment().ratio(), 100.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SimSpec {
    assignment: RateAssignment,
    jitter: Option<RateJitter>,
}

impl SimSpec {
    /// A specification with the given assignment and no jitter.
    #[must_use]
    pub fn new(assignment: RateAssignment) -> Self {
        SimSpec {
            assignment,
            jitter: None,
        }
    }

    /// Adds a per-reaction jitter (builder style).
    #[must_use]
    pub fn with_jitter(mut self, jitter: RateJitter) -> Self {
        self.jitter = Some(jitter);
        self
    }

    /// The numeric rate assignment.
    #[must_use]
    pub fn assignment(&self) -> RateAssignment {
        self.assignment
    }

    /// The jitter, if any.
    #[must_use]
    pub fn jitter(&self) -> Option<&RateJitter> {
        self.jitter.as_ref()
    }
}

impl Default for SimSpec {
    /// The paper's default: `k_fast = 1000`, `k_slow = 1`, no jitter.
    fn default() -> Self {
        SimSpec::new(RateAssignment::default())
    }
}
