//! Per-simulation instrumentation.
//!
//! Every integrator in this crate (ODE, SSA, tau-leaping, hybrid) can
//! report what it actually did — steps accepted and rejected, LU
//! refactorizations and dense fallbacks, located trigger firings,
//! stochastic events fired, leaps taken — into a caller-supplied
//! [`SimMetrics`] cell. The sweep engine threads one sink per cell, so a
//! parameter sweep records not just *what* each cell computed but *how
//! much work* it cost, and `repro --summary DIR` persists the counters
//! alongside the timings.
//!
//! The sink is a `&Cell<SimMetrics>` rather than a `&mut` reference so the
//! same options value (which is `Copy` and may be cloned into several
//! simulation calls, e.g. the chunked quiescence driver) can keep
//! appending to one accumulator:
//! integrators *absorb* their counters into the sink on every exit path,
//! successful or not, rather than overwriting it.

use std::cell::Cell;

/// A caller-supplied accumulator for one logical unit of simulation work
/// (typically one sweep cell). Integrators add into it on exit; see
/// [`SimMetrics::absorb`].
pub type MetricsSink<'h> = &'h Cell<SimMetrics>;

/// Work counters for one or more simulation runs.
///
/// All counters are cumulative across the runs that reported into the same
/// sink; `final_time` and `seed` reflect the most recent run.
///
/// # Examples
///
/// ```
/// use std::cell::Cell;
/// use molseq_crn::Crn;
/// use molseq_kinetics::{CompiledCrn, OdeOptions, SimMetrics, SimSpec, Simulation, State};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let crn: Crn = "X -> 0 @slow".parse()?;
/// let x = crn.find_species("X").expect("parsed");
/// let mut init = State::new(&crn);
/// init.set(x, 1.0);
/// let sink = Cell::new(SimMetrics::default());
/// let compiled = CompiledCrn::new(&crn, &SimSpec::default());
/// let opts = OdeOptions::default().with_t_end(1.0).with_metrics(&sink);
/// Simulation::new(&crn, &compiled).init(&init).options(opts).run()?;
/// let m = sink.get();
/// assert!(m.ode_steps_accepted > 0);
/// assert_eq!(m.final_time, 1.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimMetrics {
    /// Accepted deterministic integrator steps (all ODE methods).
    pub ode_steps_accepted: u64,
    /// Rejected trial steps (adaptive ODE methods; includes singular-`W`
    /// retries of the Rosenbrock stepper).
    pub ode_steps_rejected: u64,
    /// Numeric LU factorizations of `W = I − h·d·J` (Rosenbrock only;
    /// sparse and pivoted-dense fallback factorizations both count).
    pub lu_factorizations: u64,
    /// Factorizations whose no-pivot sparse elimination tripped its
    /// stability guard and fell back to the pivoted dense LU: in an ODE
    /// lane (alone or in a batch), the hybrid engine's fast step and the
    /// implicit tau-leaper's Newton solve.
    pub dense_lu_fallbacks: u64,
    /// Trigger firings the ODE driver placed at their crossing on a
    /// step's continuous extension, ending that step there. Firings at a
    /// timed injection, and every stochastic engine's, are not counted.
    pub ode_events_located: u64,
    /// Exact stochastic reaction events fired (SSA and NRM, plus the
    /// exact-step fallback of tau-leaping).
    pub ssa_events: u64,
    /// Tau-leap steps taken (each fires a Poisson batch of reactions).
    /// Counts explicit leaps only; implicit leaps have their own counter.
    pub tau_leaps: u64,
    /// Implicit tau-leap steps taken (each solves a damped-Newton system
    /// and fires a rounded batch of reaction extents).
    pub tau_leaps_implicit: u64,
    /// Newton iterations spent inside implicit leaps (each assembles and
    /// solves one `I − τ·ν·(∂a/∂x)` system).
    pub newton_iterations: u64,
    /// Explicit↔implicit regime changes between consecutive leaps of the
    /// stiffness-aware leaper.
    pub leap_switchovers: u64,
    /// Simulated time reached by the most recent run that reported into
    /// this record.
    pub final_time: f64,
    /// RNG seed of the most recent stochastic run (`0` for deterministic
    /// runs).
    pub seed: u64,
    /// Lane count of the ODE engine's batch for the most recent run that
    /// reported into this record: `0` for a run of one lane, as for
    /// every stochastic, tau-leap and hybrid run.
    pub batch_width: u64,
    /// For a cell run through a batched engine: how many sibling lanes of
    /// its batch had already retired (finished or failed) when this
    /// cell's lane retired. Cumulative across runs, like the step
    /// counters.
    pub lanes_retired: u64,
    /// Discrete reaction events fired on the slow (SSA) side of the hybrid
    /// engine. Each is also counted into `ssa_events`, so event totals
    /// compare directly across pure-SSA and hybrid arms of an experiment.
    pub hybrid_slow_events: u64,
    /// Accepted ODE steps taken on the fast (continuous) side of the
    /// hybrid engine. Each is also counted into `ode_steps_accepted`.
    pub hybrid_fast_steps: u64,
    /// Automatic repartitions of the hybrid engine that *changed* the fast
    /// set (recomputations that confirmed the current partition don't
    /// count).
    pub hybrid_repartitions: u64,
}

impl SimMetrics {
    /// Adds `other`'s counters into `self`; `final_time` and `seed` take
    /// `other`'s values (the more recent run wins).
    pub fn absorb(&mut self, other: &SimMetrics) {
        self.ode_steps_accepted += other.ode_steps_accepted;
        self.ode_steps_rejected += other.ode_steps_rejected;
        self.lu_factorizations += other.lu_factorizations;
        self.dense_lu_fallbacks += other.dense_lu_fallbacks;
        self.ode_events_located += other.ode_events_located;
        self.ssa_events += other.ssa_events;
        self.tau_leaps += other.tau_leaps;
        self.tau_leaps_implicit += other.tau_leaps_implicit;
        self.newton_iterations += other.newton_iterations;
        self.leap_switchovers += other.leap_switchovers;
        self.lanes_retired += other.lanes_retired;
        self.hybrid_slow_events += other.hybrid_slow_events;
        self.hybrid_fast_steps += other.hybrid_fast_steps;
        self.hybrid_repartitions += other.hybrid_repartitions;
        self.final_time = other.final_time;
        if other.seed != 0 {
            self.seed = other.seed;
        }
        if other.batch_width != 0 {
            self.batch_width = other.batch_width;
        }
    }

    /// Every field as a named per-cell metric column, in one fixed order:
    /// the ODE counters, the stochastic ones, the hybrid ones, then
    /// `final_time`, `seed`, `batch_width` and `lanes_retired`. Sweep
    /// summaries and served rows record exactly these columns, so a field
    /// added here reaches both. Counters convert to `f64`, which is lossy
    /// above 2^53.
    #[must_use]
    pub fn columns(&self) -> [(&'static str, f64); 17] {
        [
            ("ode_steps_accepted", self.ode_steps_accepted as f64),
            ("ode_steps_rejected", self.ode_steps_rejected as f64),
            ("lu_factorizations", self.lu_factorizations as f64),
            ("dense_lu_fallbacks", self.dense_lu_fallbacks as f64),
            ("ode_events_located", self.ode_events_located as f64),
            ("ssa_events", self.ssa_events as f64),
            ("tau_leaps", self.tau_leaps as f64),
            ("tau_leaps_implicit", self.tau_leaps_implicit as f64),
            ("newton_iterations", self.newton_iterations as f64),
            ("leap_switchovers", self.leap_switchovers as f64),
            ("hybrid_slow_events", self.hybrid_slow_events as f64),
            ("hybrid_fast_steps", self.hybrid_fast_steps as f64),
            ("hybrid_repartitions", self.hybrid_repartitions as f64),
            ("final_time", self.final_time),
            ("seed", self.seed as f64),
            ("batch_width", self.batch_width as f64),
            ("lanes_retired", self.lanes_retired as f64),
        ]
    }

    /// Absorbs `update` into `sink` if one is installed. Integrators call
    /// this once per exit path (including error returns, so interrupted
    /// cells still report the work they did).
    pub(crate) fn flush(sink: Option<MetricsSink<'_>>, update: SimMetrics) {
        if let Some(cell) = sink {
            let mut current = cell.get();
            current.absorb(&update);
            cell.set(current);
        }
    }
}

/// Metric sinks compare by identity (same cell), not contents — mirrors
/// how step hooks compare in the options types.
pub(crate) fn sinks_eq(a: Option<MetricsSink<'_>>, b: Option<MetricsSink<'_>>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some(a), Some(b)) => std::ptr::eq(a, b),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates_counters_and_takes_latest_time() {
        let mut total = SimMetrics {
            ode_steps_accepted: 10,
            ode_steps_rejected: 1,
            lu_factorizations: 5,
            dense_lu_fallbacks: 1,
            ode_events_located: 3,
            ssa_events: 0,
            tau_leaps: 0,
            tau_leaps_implicit: 2,
            newton_iterations: 6,
            leap_switchovers: 1,
            final_time: 4.0,
            seed: 7,
            batch_width: 0,
            lanes_retired: 0,
            hybrid_slow_events: 4,
            hybrid_fast_steps: 8,
            hybrid_repartitions: 1,
        };
        total.absorb(&SimMetrics {
            ode_steps_accepted: 2,
            dense_lu_fallbacks: 2,
            ode_events_located: 4,
            ssa_events: 30,
            tau_leaps_implicit: 3,
            newton_iterations: 9,
            leap_switchovers: 2,
            final_time: 9.0,
            batch_width: 8,
            lanes_retired: 3,
            hybrid_slow_events: 6,
            hybrid_fast_steps: 2,
            hybrid_repartitions: 1,
            ..SimMetrics::default()
        });
        assert_eq!(total.ode_steps_accepted, 12);
        assert_eq!(total.ode_steps_rejected, 1);
        assert_eq!(total.dense_lu_fallbacks, 3);
        assert_eq!(total.ode_events_located, 7);
        assert_eq!(total.ssa_events, 30);
        assert_eq!(total.tau_leaps_implicit, 5);
        assert_eq!(total.newton_iterations, 15);
        assert_eq!(total.leap_switchovers, 3);
        assert_eq!(total.final_time, 9.0);
        // a deterministic follow-up run (seed 0) keeps the stochastic seed
        assert_eq!(total.seed, 7);
        assert_eq!(total.batch_width, 8);
        assert_eq!(total.lanes_retired, 3);
        assert_eq!(total.hybrid_slow_events, 10);
        assert_eq!(total.hybrid_fast_steps, 10);
        assert_eq!(total.hybrid_repartitions, 2);
        // a scalar follow-up (width 0) keeps the batched width
        total.absorb(&SimMetrics::default());
        assert_eq!(total.batch_width, 8);
    }

    /// Every field is one column, named as the field: each field gets a
    /// distinct value, and each name and each value appears exactly once,
    /// paired as in the record's `Debug` form, which lists every field.
    #[test]
    fn columns_name_every_field_once() {
        let m = SimMetrics {
            ode_steps_accepted: 1,
            ode_steps_rejected: 2,
            lu_factorizations: 3,
            dense_lu_fallbacks: 4,
            ode_events_located: 5,
            ssa_events: 6,
            tau_leaps: 7,
            tau_leaps_implicit: 8,
            newton_iterations: 9,
            leap_switchovers: 10,
            final_time: 11.5,
            seed: 12,
            batch_width: 13,
            lanes_retired: 14,
            hybrid_slow_events: 15,
            hybrid_fast_steps: 16,
            hybrid_repartitions: 17,
        };
        let debug = format!("{m:?}");
        let fields: Vec<(&str, &str)> = debug
            .trim_start_matches("SimMetrics { ")
            .trim_end_matches(" }")
            .split(", ")
            .map(|field| field.split_once(": ").expect("name: value"))
            .collect();
        let columns = m.columns();
        assert_eq!(columns.len(), fields.len(), "{debug}");
        for (name, value) in columns {
            let named: Vec<_> = columns.iter().filter(|c| c.0 == name).collect();
            let valued: Vec<_> = columns.iter().filter(|c| c.1 == value).collect();
            assert_eq!((named.len(), valued.len()), (1, 1), "{name} = {value}");
            let field = fields.iter().find(|f| f.0 == name);
            assert_eq!(
                field.map(|f| f.1),
                Some(value.to_string().as_str()),
                "{name}"
            );
        }
    }

    #[test]
    fn flush_into_cell_accumulates() {
        let sink = Cell::new(SimMetrics::default());
        SimMetrics::flush(
            Some(&sink),
            SimMetrics {
                ssa_events: 4,
                ..SimMetrics::default()
            },
        );
        SimMetrics::flush(
            Some(&sink),
            SimMetrics {
                ssa_events: 6,
                ..SimMetrics::default()
            },
        );
        assert_eq!(sink.get().ssa_events, 10);
        // a missing sink is a no-op
        SimMetrics::flush(None, SimMetrics::default());
    }

    #[test]
    fn sinks_compare_by_identity() {
        let a = Cell::new(SimMetrics::default());
        let b = Cell::new(SimMetrics::default());
        assert!(sinks_eq(Some(&a), Some(&a)));
        assert!(!sinks_eq(Some(&a), Some(&b)));
        assert!(!sinks_eq(Some(&a), None));
        assert!(sinks_eq(None, None));
    }
}
