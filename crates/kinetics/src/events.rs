//! Simulation events: timed injections and condition triggers.
//!
//! Sequential computation needs inputs delivered *per clock cycle* and
//! outputs read *at the right phase*. Two mechanisms cover this:
//!
//! * [`Injection`] — add a quantity of a species at a fixed time (models
//!   pipetting an input into the solution).
//! * [`Trigger`] — watch a condition on the state (for example "the green
//!   clock phase rose above threshold") and, on each upward crossing,
//!   either inject from a queue or record a mark in the trace. Marks are
//!   how the experiment harnesses find cycle boundaries without assuming a
//!   numeric clock period.

use molseq_crn::SpeciesId;

/// Add `amount` of `species` at simulated time `time`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Injection {
    /// When to inject.
    pub time: f64,
    /// What to inject.
    pub species: SpeciesId,
    /// How much to add (must be non-negative and finite).
    pub amount: f64,
}

/// A predicate over the instantaneous state.
#[derive(Debug, Clone, PartialEq)]
pub enum Condition {
    /// True while `species` is strictly above `threshold`.
    Above {
        /// Watched species.
        species: SpeciesId,
        /// Threshold concentration / copy number.
        threshold: f64,
    },
    /// True while `species` is strictly below `threshold`.
    Below {
        /// Watched species.
        species: SpeciesId,
        /// Threshold concentration / copy number.
        threshold: f64,
    },
    /// True while the sum of the listed species is strictly above
    /// `threshold`.
    SumAbove {
        /// Watched species set.
        species: Vec<SpeciesId>,
        /// Threshold for the sum.
        threshold: f64,
    },
    /// True while the sum of the listed species is strictly below
    /// `threshold` — e.g. "the whole color system has drained".
    SumBelow {
        /// Watched species set.
        species: Vec<SpeciesId>,
        /// Threshold for the sum.
        threshold: f64,
    },
}

impl Condition {
    /// Evaluates the condition against a state vector.
    #[must_use]
    pub fn eval(&self, state: &[f64]) -> bool {
        match self {
            Condition::Above { species, threshold } => state[species.index()] > *threshold,
            Condition::Below { species, threshold } => state[species.index()] < *threshold,
            Condition::SumAbove { species, threshold } => {
                species.iter().map(|s| state[s.index()]).sum::<f64>() > *threshold
            }
            Condition::SumBelow { species, threshold } => {
                species.iter().map(|s| state[s.index()]).sum::<f64>() < *threshold
            }
        }
    }
}

/// What a [`Trigger`] does when its condition becomes true.
#[derive(Debug, Clone, PartialEq)]
pub enum TriggerAction {
    /// Record a mark `(time, trigger index)` in the trace. The workhorse
    /// for cycle detection.
    Mark,
    /// Inject the next queued amount of `species`; once the queue is
    /// exhausted the trigger keeps marking but injects nothing. This is how
    /// an input stream is fed one sample per clock cycle.
    InjectQueue {
        /// Destination species.
        species: SpeciesId,
        /// Amounts, consumed front to back on successive firings.
        amounts: Vec<f64>,
    },
}

/// A condition watcher with edge semantics: it fires when its condition
/// transitions from false to true (an upward edge), then re-arms only after
/// the condition has been false again. The exact SSA checks triggers after
/// every event. The ODE driver checks them at the end of every accepted
/// step, and a step that would fire one ends at the crossing instead,
/// located on the step's continuous extension.
#[derive(Debug, Clone, PartialEq)]
pub struct Trigger {
    /// The watched condition.
    pub condition: Condition,
    /// What to do on each firing.
    pub action: TriggerAction,
    /// Ignore firings before this time (defaults to `0`).
    pub not_before: f64,
    /// Hysteresis: once fired, the trigger re-arms only when this
    /// condition holds (defaults to the negation of `condition`). Use a
    /// band — e.g. fire above 50, re-arm below 25 — so that a noisy
    /// signal flickering around the firing threshold cannot double-fire,
    /// which matters under stochastic (integer-count) dynamics.
    pub rearm: Option<Condition>,
}

impl Trigger {
    /// A trigger that records a mark on each upward edge of `condition`.
    #[must_use]
    pub fn mark(condition: Condition) -> Self {
        Trigger {
            condition,
            action: TriggerAction::Mark,
            not_before: 0.0,
            rearm: None,
        }
    }

    /// A trigger that injects successive `amounts` of `species` on upward
    /// edges of `condition`.
    #[must_use]
    pub fn inject_queue(condition: Condition, species: SpeciesId, amounts: Vec<f64>) -> Self {
        Trigger {
            condition,
            action: TriggerAction::InjectQueue { species, amounts },
            not_before: 0.0,
            rearm: None,
        }
    }

    /// Sets the earliest time this trigger may fire (builder style).
    #[must_use]
    pub fn with_not_before(mut self, t: f64) -> Self {
        self.not_before = t;
        self
    }

    /// Sets an explicit re-arm condition (builder style) — hysteresis.
    #[must_use]
    pub fn with_rearm(mut self, rearm: Condition) -> Self {
        self.rearm = Some(rearm);
        self
    }
}

/// The complete event plan for one simulation run.
///
/// # Examples
///
/// ```
/// use molseq_crn::Crn;
/// use molseq_kinetics::{Condition, Schedule, Trigger};
///
/// let mut crn: Crn = "X -> Y @slow".parse().unwrap();
/// let x = crn.species("X");
/// let y = crn.species("Y");
///
/// let schedule = Schedule::new()
///     .inject(1.0, x, 50.0)
///     .trigger(Trigger::mark(Condition::Above { species: y, threshold: 25.0 }));
/// assert_eq!(schedule.injections().len(), 1);
/// assert_eq!(schedule.triggers().len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Schedule {
    injections: Vec<Injection>,
    triggers: Vec<Trigger>,
}

impl Schedule {
    /// An empty schedule.
    #[must_use]
    pub fn new() -> Self {
        Schedule::default()
    }

    /// Adds a timed injection (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `amount` is negative or not finite, or `time` is negative.
    #[must_use]
    pub fn inject(mut self, time: f64, species: SpeciesId, amount: f64) -> Self {
        assert!(
            amount.is_finite() && amount >= 0.0,
            "injection amounts must be finite and non-negative"
        );
        assert!(time >= 0.0, "injection times must be non-negative");
        self.injections.push(Injection {
            time,
            species,
            amount,
        });
        self
    }

    /// Adds a trigger (builder style).
    #[must_use]
    pub fn trigger(mut self, trigger: Trigger) -> Self {
        self.triggers.push(trigger);
        self
    }

    /// The timed injections, in insertion order.
    #[must_use]
    pub fn injections(&self) -> &[Injection] {
        &self.injections
    }

    /// The triggers, in insertion order. The index of a trigger in this
    /// slice is the id recorded with its marks.
    #[must_use]
    pub fn triggers(&self) -> &[Trigger] {
        &self.triggers
    }

    /// Injections sorted by time (what the simulators iterate over).
    #[must_use]
    pub(crate) fn sorted_injections(&self) -> Vec<Injection> {
        let mut v = self.injections.clone();
        v.sort_by(|a, b| a.time.total_cmp(&b.time));
        v
    }
}

/// Runtime state of the triggers during one simulation. The default
/// watches no trigger.
#[derive(Debug, Clone, Default)]
pub(crate) struct TriggerRuntime {
    armed: Vec<bool>,
    queue_pos: Vec<usize>,
}

impl TriggerRuntime {
    pub(crate) fn new(schedule: &Schedule, initial_state: &[f64]) -> Self {
        // A condition already true at t = 0 does not fire: triggers react to
        // edges, and arming requires having seen the condition false.
        let armed = schedule
            .triggers()
            .iter()
            .map(|t| !t.condition.eval(initial_state))
            .collect();
        TriggerRuntime {
            armed,
            queue_pos: vec![0; schedule.triggers().len()],
        }
    }

    /// Whether trigger `i` would fire if polled at `time` on `state`: it is
    /// armed, its condition holds and `time` is at or past its
    /// `not_before`. This is [`TriggerRuntime::poll`]'s own predicate,
    /// without its effects; the ODE driver bisects it over a step's
    /// continuous extension to find where a firing belongs.
    pub(crate) fn would_fire(
        &self,
        schedule: &Schedule,
        i: usize,
        time: f64,
        state: &[f64],
    ) -> bool {
        let t = &schedule.triggers()[i];
        self.armed[i] && time >= t.not_before && t.condition.eval(state)
    }

    /// Checks all triggers against `state` at `time`; returns fired trigger
    /// indices and applies queue injections directly to `state`.
    pub(crate) fn poll(&mut self, schedule: &Schedule, time: f64, state: &mut [f64]) -> Vec<usize> {
        let mut fired = Vec::new();
        for (i, t) in schedule.triggers().iter().enumerate() {
            if self.would_fire(schedule, i, time, state) {
                self.armed[i] = false;
                fired.push(i);
                if let TriggerAction::InjectQueue { species, amounts } = &t.action {
                    if let Some(&amount) = amounts.get(self.queue_pos[i]) {
                        state[species.index()] += amount;
                        self.queue_pos[i] += 1;
                    }
                }
            } else if !self.armed[i] {
                let rearmed = match &t.rearm {
                    Some(cond) => cond.eval(state),
                    None => !t.condition.eval(state),
                };
                if rearmed {
                    self.armed[i] = true;
                }
            }
        }
        fired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use molseq_crn::Crn;

    fn ids() -> (SpeciesId, SpeciesId) {
        let mut crn = Crn::new();
        (crn.species("A"), crn.species("B"))
    }

    #[test]
    fn conditions_evaluate() {
        let (a, b) = ids();
        let state = [3.0, 7.0];
        assert!(Condition::Above {
            species: a,
            threshold: 2.0
        }
        .eval(&state));
        assert!(Condition::Below {
            species: a,
            threshold: 4.0
        }
        .eval(&state));
        assert!(Condition::SumAbove {
            species: vec![a, b],
            threshold: 9.0
        }
        .eval(&state));
        assert!(!Condition::SumAbove {
            species: vec![a, b],
            threshold: 11.0
        }
        .eval(&state));
        assert!(Condition::SumBelow {
            species: vec![a, b],
            threshold: 11.0
        }
        .eval(&state));
        assert!(!Condition::SumBelow {
            species: vec![a, b],
            threshold: 10.0
        }
        .eval(&state));
    }

    #[test]
    fn trigger_fires_on_edge_and_rearms() {
        let (a, _) = ids();
        let schedule = Schedule::new().trigger(Trigger::mark(Condition::Above {
            species: a,
            threshold: 1.0,
        }));
        let mut state = [0.0, 0.0];
        let mut rt = TriggerRuntime::new(&schedule, &state);
        assert!(rt.poll(&schedule, 0.1, &mut state).is_empty());
        state[0] = 2.0;
        assert_eq!(rt.poll(&schedule, 0.2, &mut state), vec![0]);
        // still above: no refire
        assert!(rt.poll(&schedule, 0.3, &mut state).is_empty());
        // falls below: re-arms
        state[0] = 0.5;
        assert!(rt.poll(&schedule, 0.4, &mut state).is_empty());
        state[0] = 2.0;
        assert_eq!(rt.poll(&schedule, 0.5, &mut state), vec![0]);
    }

    #[test]
    fn condition_true_at_start_does_not_fire() {
        let (a, _) = ids();
        let schedule = Schedule::new().trigger(Trigger::mark(Condition::Above {
            species: a,
            threshold: 1.0,
        }));
        let mut state = [5.0, 0.0];
        let mut rt = TriggerRuntime::new(&schedule, &state);
        assert!(rt.poll(&schedule, 0.0, &mut state).is_empty());
    }

    #[test]
    fn inject_queue_consumes_in_order() {
        let (a, b) = ids();
        let schedule = Schedule::new().trigger(Trigger::inject_queue(
            Condition::Above {
                species: a,
                threshold: 1.0,
            },
            b,
            vec![10.0, 20.0],
        ));
        let mut state = [0.0, 0.0];
        let mut rt = TriggerRuntime::new(&schedule, &state);
        for (expected_b, _) in [(10.0, 0), (30.0, 1), (30.0, 2)] {
            state[0] = 2.0;
            rt.poll(&schedule, 1.0, &mut state);
            assert_eq!(state[1], expected_b);
            state[0] = 0.0;
            rt.poll(&schedule, 1.1, &mut state);
        }
    }

    #[test]
    fn not_before_suppresses_early_firings() {
        let (a, _) = ids();
        let schedule = Schedule::new().trigger(
            Trigger::mark(Condition::Above {
                species: a,
                threshold: 1.0,
            })
            .with_not_before(5.0),
        );
        let mut state = [2.0, 0.0];
        let mut rt = TriggerRuntime::new(&schedule, &[0.0, 0.0]);
        assert!(rt.poll(&schedule, 1.0, &mut state).is_empty());
        // falls and rises again after the gate
        state[0] = 0.0;
        rt.poll(&schedule, 2.0, &mut state);
        state[0] = 2.0;
        assert_eq!(rt.poll(&schedule, 6.0, &mut state), vec![0]);
    }

    /// `would_fire` is `poll`'s predicate without its effects: it reads
    /// the arming, the condition and `not_before`, and neither injects
    /// nor disarms.
    #[test]
    fn would_fire_is_the_poll_predicate() {
        let (a, b) = ids();
        let schedule = Schedule::new().trigger(
            Trigger::inject_queue(
                Condition::Above {
                    species: a,
                    threshold: 1.0,
                },
                b,
                vec![5.0],
            )
            .with_not_before(1.0),
        );
        let mut state = [0.0, 0.0];
        let mut rt = TriggerRuntime::new(&schedule, &state);
        assert!(!rt.would_fire(&schedule, 0, 2.0, &state));
        state[0] = 2.0;
        assert!(!rt.would_fire(&schedule, 0, 0.5, &state));
        assert!(rt.would_fire(&schedule, 0, 1.0, &state));
        assert!(rt.would_fire(&schedule, 0, 1.0, &state));
        assert_eq!(rt.poll(&schedule, 1.0, &mut state), vec![0]);
        assert_eq!(state, [2.0, 5.0]);
        // fired: disarmed until the condition has been false again
        assert!(!rt.would_fire(&schedule, 0, 2.0, &state));
    }

    #[test]
    fn schedule_sorts_injections() {
        let (a, _) = ids();
        let schedule = Schedule::new().inject(5.0, a, 1.0).inject(1.0, a, 2.0);
        let sorted = schedule.sorted_injections();
        assert_eq!(sorted[0].time, 1.0);
        assert_eq!(sorted[1].time, 5.0);
    }

    #[test]
    #[should_panic(expected = "injection amounts")]
    fn schedule_rejects_bad_amounts() {
        let (a, _) = ids();
        let _ = Schedule::new().inject(1.0, a, f64::NAN);
    }
}
