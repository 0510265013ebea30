//! Approximate accelerated stochastic simulation (explicit tau-leaping).
//!
//! The exact method ([`SimMethod::Ssa`](crate::SimMethod::Ssa)) fires one
//! reaction per step; when propensities are large that is millions of
//! events per time unit.
//! Tau-leaping advances by a step `τ` chosen so that no propensity changes
//! by more than a fraction `epsilon` (the standard Cao–Gillespie step
//! selection), firing a Poisson-distributed batch of each reaction at
//! once, and falls back to exact SSA steps whenever the selected leap
//! would be smaller than a few exact steps.
//!
//! The trade is bias for speed: leaping is asymptotically exact as
//! `epsilon → 0` and is intended for *large-count* regimes — exactly where
//! the exact methods are slowest.

use crate::compiled::CompiledCrn;
use crate::metrics::SimMetrics;
use crate::{Schedule, SimError, SsaOptions, State, Trace};
use molseq_crn::Crn;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Options for [`simulate_tau_leap`], wrapping the shared stochastic
/// options with the leap-control parameter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TauLeapOptions<'h> {
    /// The shared stochastic options (span, recording, seed, budget,
    /// step hook — polled once per leap or exact step).
    pub base: SsaOptions<'h>,
    /// Largest relative propensity change allowed per leap (the
    /// Cao–Gillespie `ε`; default `0.03`).
    pub epsilon: f64,
}

impl Default for TauLeapOptions<'_> {
    fn default() -> Self {
        TauLeapOptions {
            base: SsaOptions::default(),
            epsilon: 0.03,
        }
    }
}

/// Samples a Poisson(λ) variate exactly: Knuth's product-of-uniforms
/// method for small λ, Hörmann's PTRS transformed rejection for `λ ≥ 10`.
///
/// An earlier version substituted a Box–Muller normal approximation for
/// large λ, clamping negative draws to zero — the clamp biases the mean
/// upward and the symmetric normal erases the distribution's skew
/// (`1/√λ`); the `poisson_large_lambda_keeps_skewness` regression test
/// catches both.
pub(crate) fn poisson(rng: &mut StdRng, lambda: f64) -> u64 {
    if lambda <= 0.0 {
        return 0;
    }
    if lambda < 10.0 {
        let limit = (-lambda).exp();
        let mut product: f64 = rng.random();
        let mut count = 0u64;
        while product > limit {
            product *= rng.random::<f64>();
            count += 1;
        }
        count
    } else {
        poisson_ptrs(rng, lambda)
    }
}

/// Hörmann's PTRS sampler (transformed rejection with squeeze): an exact
/// Poisson sampler for `λ ≥ 10` costing ~2 uniforms per draw.
fn poisson_ptrs(rng: &mut StdRng, lambda: f64) -> u64 {
    let b = 0.931 + 2.53 * lambda.sqrt();
    let a = -0.059 + 0.02483 * b;
    let inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
    let v_r = 0.9277 - 3.6224 / (b - 2.0);
    let log_lambda = lambda.ln();
    loop {
        let u: f64 = rng.random::<f64>() - 0.5;
        let v: f64 = rng.random();
        let us = 0.5 - u.abs();
        let k = ((2.0 * a / us + b) * u + lambda + 0.43).floor();
        if us >= 0.07 && v <= v_r {
            return k as u64;
        }
        if k < 0.0 || (us < 0.013 && v > us) {
            continue;
        }
        if v.ln() + inv_alpha.ln() - (a / (us * us) + b).ln()
            <= k * log_lambda - lambda - ln_gamma(k + 1.0)
        {
            return k as u64;
        }
    }
}

/// Natural log of the gamma function for positive arguments (Lanczos
/// approximation, `g = 7`, 9 coefficients; absolute error below `1e-10`
/// over the range PTRS evaluates).
#[allow(clippy::excessive_precision)] // canonical published Lanczos digits
fn ln_gamma(x: f64) -> f64 {
    const COEFFS: [f64; 8] = [
        676.5203681218851,
        -1259.1392167224028,
        771.3234287776531,
        -176.6150291621406,
        12.507343278686905,
        -0.13857109526572012,
        9.984369578019572e-6,
        1.5056327351493116e-7,
    ];
    debug_assert!(x > 0.0);
    let x = x - 1.0;
    let mut acc = 0.99999999999980993;
    for (i, &c) in COEFFS.iter().enumerate() {
        acc += c / (x + (i as f64 + 1.0));
    }
    let t = x + 7.5;
    0.5 * std::f64::consts::TAU.ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Validated entry point over a precompiled network: what the
/// [`Simulation`](crate::Simulation) builder dispatches to for
/// [`SimMethod::TauLeap`](crate::SimMethod::TauLeap).
pub(crate) fn run_tau(
    crn: &Crn,
    compiled: &CompiledCrn,
    init: &State,
    schedule: &Schedule,
    opts: &TauLeapOptions,
) -> Result<Trace, SimError> {
    assert!(
        schedule.triggers().is_empty(),
        "tau-leaping does not support triggers"
    );
    let base = &opts.base;
    if compiled.species_count() != crn.species_count() {
        return Err(SimError::DimensionMismatch {
            supplied: compiled.species_count(),
            expected: crn.species_count(),
        });
    }
    if init.len() != crn.species_count() {
        return Err(SimError::DimensionMismatch {
            supplied: init.len(),
            expected: crn.species_count(),
        });
    }
    if !base.t_start().is_finite()
        || !base.t_end().is_finite()
        || base.t_end() <= base.t_start()
        || opts.epsilon.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
    {
        return Err(SimError::BadTimeSpan {
            t_start: base.t_start(),
            t_end: base.t_end(),
        });
    }

    let mut stats = SimMetrics {
        seed: base.seed(),
        final_time: base.t_start(),
        ..SimMetrics::default()
    };
    let result = tau_core(crn, compiled, init, schedule, opts, &mut stats);
    // flush even on failure: an interrupted or step-limited run still
    // reports the work it did
    SimMetrics::flush(base.metrics(), stats);
    result
}

fn tau_core(
    crn: &Crn,
    compiled: &CompiledCrn,
    init: &State,
    schedule: &Schedule,
    opts: &TauLeapOptions,
    stats: &mut SimMetrics,
) -> Result<Trace, SimError> {
    let base = &opts.base;
    let mut n: Vec<i64> = Vec::with_capacity(init.len());
    for &v in init.as_slice() {
        n.push(crate::ssa::to_count(v)?);
    }
    let m = compiled.reaction_count();
    let mut rng = StdRng::seed_from_u64(base.seed());
    let mut t = base.t_start();
    let mut trace = Trace::new(crn);
    let mut f64_state: Vec<f64> = n.iter().map(|&v| v as f64).collect();
    trace.push(t, &f64_state);

    let injections = schedule.sorted_injections();
    let mut next_injection = 0usize;
    let mut next_record = base.t_start() + base.record_interval();
    let mut steps = 0usize;
    let mut propensities = vec![0.0; m];

    while t < base.t_end() {
        if steps >= base.max_events() {
            return Err(SimError::StepLimitExceeded {
                reached: t,
                t_end: base.t_end(),
                max_steps: base.max_events(),
            });
        }
        steps += 1;
        if let Some(hook) = base.step_hook() {
            if let std::ops::ControlFlow::Break(reason) = hook(steps as u64, t) {
                return Err(SimError::Interrupted { time: t, reason });
            }
        }

        let injection_time = injections
            .get(next_injection)
            .map_or(f64::INFINITY, |inj| inj.time);

        let mut a0 = 0.0;
        for (j, p) in propensities.iter_mut().enumerate() {
            *p = compiled.propensity(j, &n);
            a0 += *p;
        }
        if a0 <= 0.0 {
            let stop = base.t_end().min(injection_time);
            while next_record <= stop && next_record <= base.t_end() {
                trace.push(next_record, &f64_state);
                next_record += base.record_interval();
            }
            t = stop;
            stats.final_time = t;
            if injection_time <= base.t_end() {
                apply_injection(
                    &injections[next_injection],
                    &mut n,
                    &mut f64_state,
                    &mut trace,
                    t,
                )?;
                next_injection += 1;
                continue;
            }
            break;
        }

        // Cao–Gillespie step selection: bound the relative change of each
        // species that any reaction consumes.
        let mut tau = f64::INFINITY;
        for j in 0..m {
            if propensities[j] == 0.0 {
                continue;
            }
            for &(i, _) in compiled.changed_species(j) {
                // net drift and noise of species i
                let mut mu = 0.0;
                let mut sigma2 = 0.0;
                for (jj, &p) in propensities.iter().enumerate() {
                    let v = compiled
                        .changed_species(jj)
                        .iter()
                        .find(|&&(ii, _)| ii == i)
                        .map_or(0, |&(_, d)| d) as f64;
                    mu += v * p;
                    sigma2 += v * v * p;
                }
                let bound = (opts.epsilon * n[i].max(1) as f64).max(1.0);
                if mu != 0.0 {
                    tau = tau.min(bound / mu.abs());
                }
                if sigma2 > 0.0 {
                    tau = tau.min(bound * bound / sigma2);
                }
            }
        }

        // If the leap is not worth it, take a handful of exact steps.
        if tau < 10.0 / a0 {
            let u: f64 = 1.0 - rng.random::<f64>();
            let dt = -u.ln() / a0;
            let t_next = t + dt;
            let stop = base.t_end().min(injection_time);
            if t_next >= stop {
                while next_record <= stop && next_record <= base.t_end() {
                    trace.push(next_record, &f64_state);
                    next_record += base.record_interval();
                }
                t = stop;
                stats.final_time = t;
                if injection_time <= base.t_end() {
                    apply_injection(
                        &injections[next_injection],
                        &mut n,
                        &mut f64_state,
                        &mut trace,
                        t,
                    )?;
                    next_injection += 1;
                    continue;
                }
                break;
            }
            while next_record <= t_next && next_record <= base.t_end() {
                trace.push(next_record, &f64_state);
                next_record += base.record_interval();
            }
            t = t_next;
            stats.final_time = t;
            stats.ssa_events += 1;
            let pick: f64 = rng.random::<f64>() * a0;
            // shared fallback-to-positive-propensity selection: the cached
            // prefix scan here had the same zero-propensity fallback bug as
            // the direct method's
            let chosen = crate::ssa::select_reaction(m, |j| propensities[j], pick);
            compiled.fire(chosen, &mut n);
            for &(i, _) in compiled.changed_species(chosen) {
                f64_state[i] = n[i] as f64;
            }
            continue;
        }

        // Leap (clipped at the next hard stop).
        let stop = base.t_end().min(injection_time);
        let tau = tau.min(stop - t);
        stats.tau_leaps += 1;
        for (j, &p) in propensities.iter().enumerate() {
            let k = poisson(&mut rng, p * tau);
            if k == 0 {
                continue;
            }
            for &(i, d) in compiled.changed_species(j) {
                n[i] = (n[i] + d * k as i64).max(0);
            }
        }
        for (f, &c) in f64_state.iter_mut().zip(&n) {
            *f = c as f64;
        }
        let t_next = t + tau;
        while next_record <= t_next && next_record <= base.t_end() {
            trace.push(next_record, &f64_state);
            next_record += base.record_interval();
        }
        t = t_next;
        stats.final_time = t;
        if (t - injection_time).abs() < 1e-12 && injection_time <= base.t_end() {
            apply_injection(
                &injections[next_injection],
                &mut n,
                &mut f64_state,
                &mut trace,
                t,
            )?;
            next_injection += 1;
        }
    }

    trace.push(t, &f64_state);
    Ok(trace)
}

pub(crate) fn apply_injection(
    inj: &crate::Injection,
    n: &mut [i64],
    f64_state: &mut [f64],
    trace: &mut Trace,
    t: f64,
) -> Result<(), SimError> {
    n[inj.species.index()] += crate::ssa::to_count(inj.amount)?;
    f64_state[inj.species.index()] = n[inj.species.index()] as f64;
    trace.push(t, f64_state);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimSpec;
    use molseq_crn::Crn;

    /// Builder-backed stand-in for the deprecated free function (shadows
    /// the glob import), keeping every test on the new entry point.
    fn simulate_tau_leap(
        crn: &Crn,
        init: &State,
        schedule: &Schedule,
        opts: &TauLeapOptions,
        spec: &SimSpec,
    ) -> Result<Trace, SimError> {
        let compiled = CompiledCrn::new(crn, spec);
        crate::sim::Simulation::new(crn, &compiled)
            .init(init)
            .schedule(schedule)
            .options(*opts)
            .run()
    }

    #[test]
    fn poisson_matches_mean() {
        // Covers both samplers (Knuth below 10, PTRS above) including
        // λ = 40, squarely in the range where the old clamped normal
        // approximation ran. Tolerance is 4 standard errors of the sample
        // mean — tight enough that a clamp-induced mean shift at small
        // PTRS λ would also register.
        let mut rng = StdRng::seed_from_u64(1);
        for &lambda in &[0.5, 5.0, 12.0, 40.0, 80.0] {
            let n = 4000;
            let sum: u64 = (0..n).map(|_| poisson(&mut rng, lambda)).sum();
            let mean = sum as f64 / f64::from(n);
            assert!(
                (mean - lambda).abs() < 4.0 * (lambda / f64::from(n)).sqrt(),
                "lambda {lambda}: mean {mean}"
            );
        }
    }

    #[test]
    fn poisson_matches_variance() {
        // The clamped normal approximation also shrinks the variance
        // (truncation); the exact sampler's sample variance must track λ.
        let mut rng = StdRng::seed_from_u64(5);
        for &lambda in &[12.0, 40.0] {
            let n = 8000usize;
            let draws: Vec<f64> = (0..n).map(|_| poisson(&mut rng, lambda) as f64).collect();
            let mean = draws.iter().sum::<f64>() / n as f64;
            let var = draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n as f64;
            // Var[sample var] ≈ (μ4 − σ⁴)/n; for Poisson μ4 = λ(1+3λ),
            // so the SE at λ=40 with n=8000 is ≈ 0.8 — allow 5 SEs.
            let se = ((lambda * (1.0 + 3.0 * lambda) - lambda * lambda) / n as f64).sqrt();
            assert!(
                (var - lambda).abs() < 5.0 * se,
                "lambda {lambda}: variance {var}"
            );
        }
    }

    #[test]
    fn poisson_large_lambda_keeps_skewness() {
        // Regression for the clamped Box–Muller branch: a Poisson(λ) has
        // skewness 1/√λ, while the old symmetric normal approximation had
        // skewness ≈ 0. At λ = 40 and n = 20 000 the exact sampler's
        // sample skewness concentrates near 0.158 with standard error
        // ≈ 0.017, so asserting > 0.08 separates the two by several
        // standard errors — this test fails on the old sampler.
        let mut rng = StdRng::seed_from_u64(3);
        let lambda = 40.0;
        let n = 20_000usize;
        let draws: Vec<f64> = (0..n).map(|_| poisson(&mut rng, lambda) as f64).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let m2 = draws.iter().map(|d| (d - mean).powi(2)).sum::<f64>() / n as f64;
        let m3 = draws.iter().map(|d| (d - mean).powi(3)).sum::<f64>() / n as f64;
        let skew = m3 / m2.powf(1.5);
        assert!((mean - lambda).abs() < 0.2, "mean {mean}");
        assert!(
            skew > 0.08,
            "sample skewness {skew}: symmetric draws indicate a normal approximation"
        );
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        let mut fact = 1.0f64;
        for k in 1..=20u32 {
            fact *= f64::from(k);
            let got = ln_gamma(f64::from(k) + 1.0);
            assert!(
                (got - fact.ln()).abs() < 1e-10,
                "k = {k}: {got} vs {}",
                fact.ln()
            );
        }
    }

    #[test]
    fn decay_matches_expectation_at_large_counts() {
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let n0 = 100_000.0;
        let mut init = State::new(&crn);
        init.set(x, n0);
        let opts = TauLeapOptions {
            base: SsaOptions::default().with_t_end(1.0).with_seed(2),
            ..TauLeapOptions::default()
        };
        let trace =
            simulate_tau_leap(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        let expected = n0 / std::f64::consts::E;
        let got = trace.final_state()[x.index()];
        assert!((got - expected).abs() < 0.02 * n0, "{got} vs {expected}");
    }

    #[test]
    fn conserves_totals_in_closed_systems() {
        let crn: Crn = "X -> Y @slow\nY -> X @fast".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 50_000.0);
        let opts = TauLeapOptions {
            base: SsaOptions::default().with_t_end(2.0).with_seed(7),
            ..TauLeapOptions::default()
        };
        let trace =
            simulate_tau_leap(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        // tau-leaping with the zero-clamp can lose strict conservation only
        // through the clamp; at these counts it must hold exactly
        for i in 0..trace.len() {
            let total = trace.state(i)[0] + trace.state(i)[1];
            assert!(
                (total - 50_000.0).abs() < 500.0,
                "total {total} at sample {i}"
            );
        }
    }

    #[test]
    fn injections_apply_between_leaps() {
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let schedule = Schedule::new().inject(2.0, x, 10_000.0);
        let opts = TauLeapOptions {
            base: SsaOptions::default().with_t_end(2.5).with_seed(4),
            ..TauLeapOptions::default()
        };
        let trace = simulate_tau_leap(
            &crn,
            &State::new(&crn),
            &schedule,
            &opts,
            &SimSpec::default(),
        )
        .unwrap();
        assert!(trace.value_at(x, 1.9) < 1e-9);
        assert!(trace.value_at(x, 2.01) > 9_000.0);
    }

    #[test]
    fn metrics_report_leaps_and_exact_steps() {
        use crate::SimMetrics;
        use std::cell::Cell;

        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 100_000.0);
        let sink = Cell::new(SimMetrics::default());
        let opts = TauLeapOptions {
            base: SsaOptions::default()
                .with_t_end(1.0)
                .with_seed(2)
                .with_metrics(&sink),
            ..TauLeapOptions::default()
        };
        simulate_tau_leap(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        let m = sink.get();
        assert!(m.tau_leaps > 0, "{m:?}");
        assert_eq!(m.final_time, 1.0);
        assert_eq!(m.seed, 2);
    }

    #[test]
    fn rejects_bad_epsilon() {
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let opts = TauLeapOptions {
            epsilon: 0.0,
            ..TauLeapOptions::default()
        };
        assert!(simulate_tau_leap(
            &crn,
            &State::new(&crn),
            &Schedule::new(),
            &opts,
            &SimSpec::default()
        )
        .is_err());
    }
}
