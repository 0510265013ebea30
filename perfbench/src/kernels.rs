//! Per-call timings of the three `molseq-kinetics` kernels every engine
//! is built on, on states taken from the workload's own traces.

use crate::bench::{median, time_per_call};
use molseq_kinetics::{CompiledCrn, Trace};
use std::hint::black_box;
use std::time::Duration;

/// Wall budget per kernel and network.
const BUDGET: Duration = Duration::from_millis(60);

/// How many states to take from each trace.
const STATES: usize = 8;

/// Median nanoseconds per call over the sampled states.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelTimes {
    /// `CompiledCrn::derivative` (the ODE right-hand side).
    pub derivative_ns: f64,
    /// `CompiledCrn::jacobian_sparse`.
    pub jacobian_ns: f64,
    /// `CompiledCrn::propensity` over every reaction, on the state
    /// rounded to molecule counts.
    pub propensity_ns: f64,
}

/// `STATES` states spread evenly over `trace`.
#[must_use]
pub fn sample_states(trace: &Trace) -> Vec<Vec<f64>> {
    let n = trace.len();
    (0..STATES)
        .map(|k| trace.state(k * (n - 1) / (STATES - 1)).to_vec())
        .collect()
}

/// Times the kernels of `compiled` on `states`.
#[must_use]
pub fn time_kernels(compiled: &CompiledCrn, states: &[Vec<f64>]) -> KernelTimes {
    let species = compiled.species_count();
    let reactions = compiled.reaction_count();
    let mut dx = vec![0.0; species];
    let mut vals = vec![0.0; compiled.jacobian_nnz()];
    let per_state = |f: &mut dyn FnMut(&[f64])| {
        let each: Vec<f64> = states
            .iter()
            .map(|x| time_per_call(BUDGET / states.len() as u32, 5, || f(black_box(x))))
            .collect();
        median(&each)
    };
    let derivative_ns = per_state(&mut |x| {
        compiled.derivative(x, &mut dx);
        black_box(&dx);
    });
    let jacobian_ns = per_state(&mut |x| {
        compiled.jacobian_sparse(x, &mut vals);
        black_box(&vals);
    });
    let counts: Vec<Vec<i64>> = states
        .iter()
        .map(|x| x.iter().map(|v| v.round() as i64).collect())
        .collect();
    let each: Vec<f64> = counts
        .iter()
        .map(|n| {
            time_per_call(BUDGET / counts.len() as u32, 5, || {
                let total: f64 = (0..reactions)
                    .map(|j| compiled.propensity(j, black_box(n)))
                    .sum();
                black_box(total);
            })
        })
        .collect();
    KernelTimes {
        derivative_ns,
        jacobian_ns,
        propensity_ns: median(&each),
    }
}

/// The mean of several networks' timings, each network weighted once.
#[must_use]
pub fn mean(times: &[KernelTimes]) -> KernelTimes {
    let n = times.len() as f64;
    KernelTimes {
        derivative_ns: times.iter().map(|t| t.derivative_ns).sum::<f64>() / n,
        jacobian_ns: times.iter().map(|t| t.jacobian_ns).sum::<f64>() / n,
        propensity_ns: times.iter().map(|t| t.propensity_ns).sum::<f64>() / n,
    }
}
