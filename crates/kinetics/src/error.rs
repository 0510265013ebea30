//! Simulation errors.

use std::error::Error;
use std::fmt;

/// Errors produced by the simulators.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// The integrator exhausted its step budget before reaching `t_end`.
    /// Usually means the problem is stiffer than the options allow; raise
    /// `max_steps` or loosen tolerances.
    StepLimitExceeded {
        /// Simulated time reached before giving up.
        reached: f64,
        /// Requested end time.
        t_end: f64,
        /// The step budget that was exhausted.
        max_steps: usize,
    },
    /// A state component became non-finite (NaN or infinity).
    NonFiniteState {
        /// Simulated time of the failure.
        time: f64,
        /// Index of the offending species.
        species: usize,
    },
    /// The initial state or schedule refers to more species than the
    /// network has.
    DimensionMismatch {
        /// What the caller supplied.
        supplied: usize,
        /// What the network expects.
        expected: usize,
    },
    /// The requested time span is empty or inverted.
    BadTimeSpan {
        /// Start of the span.
        t_start: f64,
        /// End of the span.
        t_end: f64,
    },
    /// An SSA amount was not representable as an integer copy number.
    NonIntegerAmount {
        /// The offending amount.
        amount: f64,
    },
    /// A stochastic amount exceeded `2^53`, above which an f64 no longer
    /// holds every integer copy number exactly.
    CountTooLarge {
        /// The offending amount.
        amount: f64,
    },
    /// The sampling interval is zero, negative or not finite, so the
    /// recording loop could never advance past a sample.
    BadRecordInterval {
        /// The offending interval.
        interval: f64,
    },
    /// A step hook (see `OdeOptions::with_step_hook` /
    /// `SsaOptions::with_step_hook`) asked the simulator to stop — e.g. a
    /// sweep cell exceeded its cooperative wall/step budget mid-run.
    Interrupted {
        /// Simulated time at which the hook interrupted the run.
        time: f64,
        /// The hook's stated reason.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::StepLimitExceeded {
                reached,
                t_end,
                max_steps,
            } => write!(
                f,
                "step limit {max_steps} exhausted at t = {reached} before reaching t_end = {t_end}"
            ),
            SimError::NonFiniteState { time, species } => write!(
                f,
                "state of species index {species} became non-finite at t = {time}"
            ),
            SimError::DimensionMismatch { supplied, expected } => write!(
                f,
                "state has {supplied} entries but the network has {expected} species"
            ),
            SimError::BadTimeSpan { t_start, t_end } => {
                write!(f, "time span [{t_start}, {t_end}] is empty or inverted")
            }
            SimError::NonIntegerAmount { amount } => write!(
                f,
                "amount {amount} is not a non-negative integer copy number"
            ),
            SimError::CountTooLarge { amount } => write!(
                f,
                "amount {amount} exceeds 2^53, the largest exactly representable copy number"
            ),
            SimError::BadRecordInterval { interval } => write!(
                f,
                "record interval {interval} is not a finite positive time"
            ),
            SimError::Interrupted { time, reason } => {
                write!(f, "interrupted by step hook at t = {time}: {reason}")
            }
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let errors: [SimError; 8] = [
            SimError::StepLimitExceeded {
                reached: 1.0,
                t_end: 2.0,
                max_steps: 10,
            },
            SimError::NonFiniteState {
                time: 0.5,
                species: 3,
            },
            SimError::DimensionMismatch {
                supplied: 2,
                expected: 5,
            },
            SimError::BadTimeSpan {
                t_start: 1.0,
                t_end: 0.0,
            },
            SimError::NonIntegerAmount { amount: 0.5 },
            SimError::CountTooLarge { amount: 1e300 },
            SimError::BadRecordInterval { interval: 0.0 },
            SimError::Interrupted {
                time: 3.0,
                reason: "budget".into(),
            },
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_bounds<T: Send + Sync + std::error::Error>() {}
        assert_bounds::<SimError>();
    }
}
