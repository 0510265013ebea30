//! The one percentile helper every reported timing goes through.
//!
//! A percentile is the nearest-rank order statistic: with `n` sorted
//! samples, `pXX` is the sample at rank `ceil(XX/100 · n)`. Two rules keep
//! a reported percentile honest:
//!
//! * it is **refused** when fewer than [`MIN_BEYOND`] samples lie beyond
//!   it — a p95 over one job is that job's wall time, not a tail;
//! * it is **flagged** when the two samples next to it in sorted order come
//!   from different classes (circuits, job kinds) that do not interleave
//!   there — no sample of the upper class lies below it and none of the
//!   lower class above it. The percentile then sits on a class boundary,
//!   and a small shift in the mix moves it from one class's latency to the
//!   other's. Classes whose latencies overlap (cells of similar cost) mix
//!   smoothly and are not flagged.

use std::fmt;

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// One timed unit (a cell or a job) and the class it belongs to.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// The measured value (milliseconds, by convention of the callers).
    pub value: f64,
    /// The unit's class, e.g. `"seqdet"` or `"tiny"`.
    pub class: &'static str,
}

/// A percentile that passed the sample-count rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Percentile {
    /// Which percentile, in percent.
    pub p: f64,
    /// The order statistic.
    pub value: f64,
    /// How many samples it was taken over.
    pub n: usize,
    /// How many samples lie beyond it.
    pub beyond: usize,
    /// The classes of the two neighbouring samples when the percentile
    /// sits on the boundary between them.
    pub boundary: Option<(&'static str, &'static str)>,
}

impl fmt::Display for Percentile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} = {:.4} (n = {}, {} beyond)",
            self.p, self.value, self.n, self.beyond
        )?;
        if let Some((below, above)) = self.boundary {
            write!(f, " FLAG: on the {below}/{above} class boundary")?;
        }
        Ok(())
    }
}

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq)]
pub struct Refused {
    /// The percentile asked for.
    pub p: f64,
    /// Samples available.
    pub n: usize,
    /// Samples that would lie beyond it.
    pub beyond: usize,
}

impl fmt::Display for Refused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p{} refused: {} of {} samples lie beyond it, {} needed",
            self.p, self.beyond, self.n, MIN_BEYOND
        )
    }
}

/// The fewest samples for which [`percentile`] accepts `p`.
#[must_use]
pub fn min_samples(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .expect("a percentile below 100 always admits enough samples")
}

fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The nearest-rank `p`-th percentile of `samples`.
///
/// # Errors
///
/// [`Refused`] when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[Sample], p: f64) -> Result<Percentile, Refused> {
    assert!(p > 0.0 && p < 100.0, "percentile must lie in (0, 100)");
    let n = samples.len();
    if n == 0 || beyond(n, p) < MIN_BEYOND {
        return Err(Refused {
            p,
            n,
            beyond: if n == 0 { 0 } else { beyond(n, p) },
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.value.total_cmp(&b.value));
    let at = rank(n, p) - 1;
    let below = sorted[at.saturating_sub(1)].class;
    let above = sorted[at + 1].class;
    let separated = below != above
        && sorted[..at].iter().all(|s| s.class != above)
        && sorted[at + 1..].iter().all(|s| s.class != below);
    Ok(Percentile {
        p,
        value: sorted[at].value,
        n,
        beyond: beyond(n, p),
        boundary: separated.then_some((below, above)),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[(f64, &'static str)]) -> Vec<Sample> {
        values
            .iter()
            .map(|&(value, class)| Sample { value, class })
            .collect()
    }

    fn uniform(n: usize, class: &'static str) -> Vec<Sample> {
        (1..=n)
            .map(|i| Sample {
                value: i as f64,
                class,
            })
            .collect()
    }

    #[test]
    fn nearest_rank_order_statistic() {
        let s = uniform(100, "a");
        let p50 = percentile(&s, 50.0).expect("50 beyond");
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p90 = percentile(&s, 90.0).expect("10 beyond");
        assert_eq!((p90.value, p90.beyond), (90.0, 10));
        assert_eq!(p90.boundary, None);
    }

    #[test]
    fn unsorted_input_is_sorted_first() {
        let mut s = uniform(40, "a");
        s.reverse();
        assert_eq!(percentile(&s, 50.0).expect("accepted").value, 20.0);
    }

    #[test]
    fn refuses_fewer_than_ten_beyond() {
        // the one-job p95 of a four-job run
        let refused = percentile(&uniform(4, "a"), 95.0).expect_err("refused");
        assert_eq!((refused.n, refused.beyond), (4, 0));
        assert!(percentile(&uniform(99, "a"), 90.0).is_err());
        assert!(percentile(&uniform(100, "a"), 90.0).is_ok());
        assert!(percentile(&uniform(999, "a"), 99.0).is_err());
        assert!(percentile(&uniform(1000, "a"), 99.0).is_ok());
        assert!(percentile(&[], 50.0).is_err());
    }

    #[test]
    fn min_samples_matches_the_refusal_rule() {
        for p in [50.0, 90.0, 99.0] {
            let n = min_samples(p);
            assert!(percentile(&uniform(n, "a"), p).is_ok(), "p{p} at {n}");
            assert!(
                percentile(&uniform(n - 1, "a"), p).is_err(),
                "p{p} at {}",
                n - 1
            );
        }
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(99.0), 1000);
    }

    #[test]
    fn flags_a_percentile_on_a_class_boundary() {
        // 90 fast "seqdet" jobs then 30 slow "counter2" jobs: the 90th
        // sample (p75) is the last seqdet one, so it sits on the boundary
        let mut s = uniform(90, "seqdet");
        s.extend((0..30).map(|i| Sample {
            value: 1000.0 + f64::from(i),
            class: "counter2",
        }));
        let at = percentile(&s, 75.0).expect("ok");
        assert_eq!(at.value, 90.0);
        assert_eq!(at.boundary, Some(("seqdet", "counter2")), "{at}");
        assert!(at.to_string().contains("FLAG"));
        assert_eq!(percentile(&s, 70.0).expect("ok").boundary, None);
        assert_eq!(percentile(&s, 80.0).expect("ok").boundary, None);
    }

    #[test]
    fn interleaved_classes_are_not_a_boundary() {
        // cells of two circuits with overlapping costs: a, b, a, b, ...
        let s: Vec<Sample> = (0..100)
            .map(|i| Sample {
                value: f64::from(i),
                class: if i % 2 == 0 { "a" } else { "b" },
            })
            .collect();
        for p in [50.0, 80.0, 90.0] {
            assert_eq!(percentile(&s, p).expect("ok").boundary, None, "p{p}");
        }
    }

    #[test]
    fn a_lone_sample_of_another_class_is_not_a_boundary() {
        let s = samples(&[(1.0, "a"), (2.0, "a"), (3.0, "b"), (4.0, "a"), (5.0, "a")]);
        let mut many = s.clone();
        many.extend(uniform(30, "a").into_iter().map(|x| Sample {
            value: x.value + 10.0,
            ..x
        }));
        let p = percentile(&many, 100.0 * 3.0 / 35.0).expect("ok");
        assert_eq!(p.value, 3.0);
        assert_eq!(p.boundary, None);
    }
}
