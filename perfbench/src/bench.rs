//! Types and helpers shared by the workloads.

use crate::stats::Sample;
use std::time::{Duration, Instant};

/// How many times set-up runs per process; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// Seed of the warm-up units. It is fixed, so set-up does the same work
/// whatever the workload seed.
pub const WARM_UP_SEED: u64 = u64::MAX;

/// A seeded SplitMix64 stream: every input the workloads generate comes
/// from one of these, keyed by the workload seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, decorrelated per `stream` so that two input
    /// families drawn from one workload seed never share draws.
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(molseq_sweep::derive_seed(seed, stream as usize))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A fair coin.
    pub fn coin(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

/// What one measured phase produced.
#[derive(Debug, Default)]
pub struct Phase {
    /// One latency sample (ms) per completed operation, tagged by class.
    pub ops: Vec<Sample>,
    /// Wall time of the measured loop.
    pub wall_s: f64,
    /// Peak resident set size once the first fixed pass of the workload
    /// is done: a fixed amount of work, so the figure does not grow with
    /// throughput (the server keeps every finished job).
    pub pass_rss_mb: Option<f64>,
}

impl Phase {
    /// Completed operations per second.
    #[must_use]
    pub fn ops_per_s(&self) -> f64 {
        self.ops.len() as f64 / self.wall_s
    }
}

/// Everything a workload hands back to `main`.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Wall time of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The untraced measured phase: the end-to-end numbers.
    pub phase: Phase,
    /// Per-layer figures (traced runs only).
    pub layers: Vec<crate::layers::Layer>,
    /// Every span of a traced run.
    pub spans: Vec<crate::trace::Span>,
    /// Lines for the human-readable report.
    pub notes: Vec<String>,
}

/// Runs `setup` [`SETUP_REPEATS`] times and returns every repetition's
/// wall time with the last repetition's product. Each earlier product is
/// handed to `teardown` before the next repetition starts, outside the
/// timed part, so at most one is alive at a time. Only the last
/// repetition is traced, so the per-layer set-up spans describe one
/// set-up.
///
/// # Errors
///
/// The first error `setup` returns.
pub fn repeat_setup<T>(
    traced: bool,
    mut setup: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<(Vec<f64>, T), String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for rep in 0..SETUP_REPEATS {
        if let Some(old) = last.take() {
            teardown(old);
        }
        crate::trace::set_enabled(traced && rep + 1 == SETUP_REPEATS);
        let started = Instant::now();
        let product = setup();
        times.push(started.elapsed().as_secs_f64());
        crate::trace::set_enabled(false);
        last = Some(product?);
    }
    Ok((times, last.expect("at least one set-up repetition")))
}

/// Milliseconds in a duration.
#[must_use]
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set size in MB (`VmHWM`), if the platform
/// reports it.
#[must_use]
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Median of `values` (mean of the middle pair for even counts).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        0.5 * (v[mid - 1] + v[mid])
    }
}

/// Times `f` over enough repetitions to fill about `budget`, and returns
/// the median of `rounds` per-call means, in nanoseconds.
pub fn time_per_call(budget: Duration, rounds: usize, mut f: impl FnMut()) -> f64 {
    let probe = Instant::now();
    f();
    let once = probe.elapsed().as_secs_f64().max(1e-9);
    let per_round = budget.as_secs_f64() / rounds as f64;
    let reps = ((per_round / once) as usize).clamp(1, 1_000_000);
    let means: Vec<f64> = (0..rounds)
        .map(|_| {
            let started = Instant::now();
            for _ in 0..reps {
                f();
            }
            started.elapsed().as_secs_f64() * 1e9 / reps as f64
        })
        .collect();
    median(&means)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_repeat_per_seed_and_differ_per_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        assert_ne!(draw(7, 1), draw(8, 1));
        let mut r = Rng::new(1, 0);
        assert!((0..1000).map(|_| r.unit()).all(|u| (0.0..1.0).contains(&u)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
