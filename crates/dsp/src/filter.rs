//! Ready-made filter structures with ideal reference models.

use crate::{Ratio, SfgBuilder};
use molseq_kinetics::{CompiledCrn, OdeWorkspace};
use molseq_sync::{
    drive_cycles, drive_cycles_batch, BatchCell, ClockSpec, CompiledSystem, CycleResources,
    RunConfig, SyncError,
};

/// A compiled molecular filter plus its ideal floating-point reference.
///
/// The difference equation is
/// `y(n) = max(Σᵢ bᵢ·x(n−i) − Σⱼ aⱼ·y(n−j), 0)` — the clamp mirrors the
/// molecular implementation, where a negative-coefficient branch is a
/// clamped subtraction (concentrations cannot go negative).
#[derive(Debug, Clone)]
pub struct Filter {
    system: CompiledSystem,
    feedforward: Vec<f64>,
    feedback: Vec<f64>,
    description: String,
}

impl Filter {
    /// The compiled system (input port `"x"`, output port `"y"`).
    #[must_use]
    pub fn system(&self) -> &CompiledSystem {
        &self.system
    }

    /// A human-readable description of the structure.
    #[must_use]
    pub fn description(&self) -> &str {
        &self.description
    }

    /// The feedforward coefficients `b₀, b₁, …`.
    #[must_use]
    pub fn feedforward(&self) -> &[f64] {
        &self.feedforward
    }

    /// The feedback coefficients `a₁, a₂, …` (subtracted).
    #[must_use]
    pub fn feedback(&self) -> &[f64] {
        &self.feedback
    }

    /// The ideal response to an input sequence (zero initial conditions).
    #[must_use]
    pub fn ideal_response(&self, samples: &[f64]) -> Vec<f64> {
        let mut y = Vec::with_capacity(samples.len());
        for n in 0..samples.len() {
            let mut acc = 0.0;
            for (i, &b) in self.feedforward.iter().enumerate() {
                if n >= i {
                    acc += b * samples[n - i];
                }
            }
            for (j, &a) in self.feedback.iter().enumerate() {
                let lag = j + 1;
                if n >= lag {
                    acc -= a * y[n - lag];
                }
            }
            y.push(acc.max(0.0));
        }
        y
    }

    /// Runs the molecular filter on an input sequence and returns one
    /// output value per input sample, aligned with
    /// [`ideal_response`](Self::ideal_response). When `compiled` is
    /// supplied, it drives that pre-built network instead of compiling the
    /// filter's network per call (the sweep path: compile the filter once
    /// and [`CompiledCrn::rebind`] per cell; `config.spec` is then ignored
    /// in favour of the rates baked into `compiled`).
    ///
    /// Output `y(n)` is computed during cycle `n` and committed into the
    /// output register at its end, so the cycle-`n` plateau reading *is*
    /// `y(n)`.
    ///
    /// # Errors
    ///
    /// Propagates harness errors from [`drive_cycles`].
    pub fn respond_with(
        &self,
        samples: &[f64],
        config: &RunConfig,
        compiled: Option<&CompiledCrn>,
    ) -> Result<Vec<f64>, SyncError> {
        let run = drive_cycles(
            &self.system,
            &[("x", samples)],
            samples.len(),
            config,
            CycleResources {
                compiled,
                workspace: None,
            },
        )?;
        let series = run.register_series("y")?;
        Ok(series[..samples.len()].to_vec())
    }

    /// Runs the molecular filter under several rate bindings at once
    /// through the batched lock-step engine
    /// ([`drive_cycles_batch`]): one compiled cell per rate binding, all
    /// sharing this filter's network structure, each result bit-identical
    /// to a solo [`respond_with`](Self::respond_with) call with the same
    /// configuration. `workspace` is reused across calls.
    ///
    /// # Errors
    ///
    /// Shared-setup errors fail the whole call; per-cell harness errors
    /// come back in the per-cell results.
    pub fn respond_batch(
        &self,
        samples: &[f64],
        cells: &[BatchCell<'_, '_>],
        workspace: &mut OdeWorkspace,
    ) -> Result<Vec<Result<Vec<f64>, SyncError>>, SyncError> {
        let runs = drive_cycles_batch(
            &self.system,
            &[("x", samples)],
            samples.len(),
            cells,
            workspace,
        )?;
        Ok(runs
            .into_iter()
            .map(|run| {
                let run = run?;
                let series = run.register_series("y")?;
                Ok(series[..samples.len()].to_vec())
            })
            .collect())
    }
}

/// Root-mean-square error between two equal-length sequences.
///
/// # Panics
///
/// Panics if the sequences differ in length or are empty.
#[must_use]
pub fn rmse(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "sequences must align");
    assert!(!a.is_empty(), "sequences must be non-empty");
    let sum: f64 = a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum();
    (sum / a.len() as f64).sqrt()
}

/// An `n`-tap moving-average filter: `y(n) = (x(n) + … + x(n−taps+1)) / taps`.
///
/// The 2-tap instance is the paper's running example.
///
/// # Errors
///
/// [`SyncError::UnsupportedScale`] if `taps` is zero or has a prime factor
/// other than 2 or 3; compilation errors are propagated.
pub fn moving_average(taps: usize, clock: ClockSpec) -> Result<Filter, SyncError> {
    if taps == 0 {
        return Err(SyncError::InvalidAmount { value: 0.0 });
    }
    let weight = Ratio::new(
        1,
        u32::try_from(taps).map_err(|_| SyncError::InvalidAmount { value: taps as f64 })?,
    )?;
    let coeffs = vec![weight; taps];
    let mut filter = fir(&coeffs, clock)?;
    filter.description = format!("{taps}-tap moving average");
    Ok(filter)
}

/// A finite-impulse-response filter `y(n) = Σᵢ cᵢ·x(n−i)`.
///
/// # Errors
///
/// [`SyncError::InvalidAmount`] for an empty coefficient list;
/// compilation errors are propagated.
pub fn fir(coeffs: &[Ratio], clock: ClockSpec) -> Result<Filter, SyncError> {
    if coeffs.is_empty() {
        return Err(SyncError::InvalidAmount { value: 0.0 });
    }
    let mut sfg = SfgBuilder::new(clock);
    let x = sfg.input("x");
    let mut taps = Vec::with_capacity(coeffs.len());
    let mut tap = x;
    for (i, &c) in coeffs.iter().enumerate() {
        if i > 0 {
            tap = sfg.delay(tap);
        }
        taps.push(sfg.gain(tap, c)?);
    }
    let y = if taps.len() == 1 {
        taps[0]
    } else {
        sfg.add(&taps)
    };
    sfg.output("y", y);
    Ok(Filter {
        system: sfg.compile()?,
        feedforward: coeffs.iter().map(|c| c.as_f64()).collect(),
        feedback: Vec::new(),
        description: format!("FIR({})", coeffs.len()),
    })
}

/// A first-order recursive filter `y(n) = a·y(n−1) + b·x(n)` (a leaky
/// integrator for `a < 1`).
///
/// # Errors
///
/// Compilation errors are propagated.
pub fn iir_first_order(a: Ratio, b: Ratio, clock: ClockSpec) -> Result<Filter, SyncError> {
    let mut sfg = SfgBuilder::new(clock);
    let x = sfg.input("x");
    let state = sfg.feedback("state");
    let fed_back = sfg.gain(state, a)?;
    let fresh = sfg.gain(x, b)?;
    let y = sfg.add(&[fed_back, fresh]);
    sfg.bind_feedback("state", y)?;
    sfg.output("y", y);
    Ok(Filter {
        system: sfg.compile()?,
        // y(n) = b·x(n) + a·y(n−1): feedforward [b], feedback [−a] — the
        // reference model subtracts feedback terms, so store −a.
        feedforward: vec![b.as_f64()],
        feedback: vec![-a.as_f64()],
        description: format!("IIR1(a={a}, b={b})"),
    })
}

/// A biquad section
/// `y(n) = max(b₀x(n) + b₁x(n−1) + b₂x(n−2) − a₁y(n−1) − a₂y(n−2), 0)`,
/// with all coefficient magnitudes given as positive rationals (the `aⱼ`
/// branch is subtracted by clamped molecular subtraction).
///
/// # Errors
///
/// Compilation errors are propagated.
pub fn biquad(b: [Ratio; 3], a: [Ratio; 2], clock: ClockSpec) -> Result<Filter, SyncError> {
    let mut sfg = SfgBuilder::new(clock);
    let x = sfg.input("x");
    let x1 = sfg.named_delay("x1", x);
    let x2 = sfg.named_delay("x2", x1);
    let y1 = sfg.feedback("y1");
    let y2 = sfg.named_delay("y2", y1);

    let p0 = sfg.gain(x, b[0])?;
    let p1 = sfg.gain(x1, b[1])?;
    let p2 = sfg.gain(x2, b[2])?;
    let pos = sfg.add(&[p0, p1, p2]);

    let n1 = sfg.gain(y1, a[0])?;
    let n2 = sfg.gain(y2, a[1])?;
    let neg = sfg.add(&[n1, n2]);

    let y = sfg.sub(pos, neg);
    sfg.bind_feedback("y1", y)?;
    sfg.output("y", y);
    Ok(Filter {
        system: sfg.compile()?,
        feedforward: b.iter().map(|c| c.as_f64()).collect(),
        feedback: a.iter().map(|c| c.as_f64()).collect(),
        description: format!(
            "biquad(b=[{},{},{}], a=[{},{}])",
            b[0], b[1], b[2], a[0], a[1]
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_average_ideal_model() {
        let f = moving_average(2, ClockSpec::default()).unwrap();
        assert_eq!(f.ideal_response(&[10.0, 30.0, 50.0]), vec![5.0, 20.0, 40.0]);
        assert_eq!(f.feedforward(), &[0.5, 0.5]);
        assert!(f.feedback().is_empty());
        assert!(f.description().contains("moving average"));
    }

    #[test]
    fn fir_rejects_empty() {
        assert!(fir(&[], ClockSpec::default()).is_err());
        assert!(moving_average(0, ClockSpec::default()).is_err());
        assert!(
            moving_average(5, ClockSpec::default()).is_err(),
            "1/5 unsupported"
        );
    }

    #[test]
    fn iir_ideal_model_accumulates() {
        let f = iir_first_order(
            Ratio::new(1, 2).unwrap(),
            Ratio::new(1, 2).unwrap(),
            ClockSpec::default(),
        )
        .unwrap();
        // y(n) = 0.5 y(n-1) + 0.5 x(n), x = [4, 4, 4] → y = [2, 3, 3.5]
        assert_eq!(f.ideal_response(&[4.0, 4.0, 4.0]), vec![2.0, 3.0, 3.5]);
    }

    #[test]
    fn biquad_ideal_model_clamps() {
        let f = biquad(
            [
                Ratio::new(1, 2).unwrap(),
                Ratio::new(1, 4).unwrap(),
                Ratio::new(1, 4).unwrap(),
            ],
            [Ratio::new(1, 2).unwrap(), Ratio::new(1, 4).unwrap()],
            ClockSpec::default(),
        )
        .unwrap();
        let y = f.ideal_response(&[8.0, 0.0, 0.0, 0.0]);
        assert_eq!(y[0], 4.0); // 0.5·8
        assert_eq!(y[1], 0.0); // 0.25·8 − 0.5·4 = 0, clamped at 0
        assert!(y.iter().all(|&v| v >= 0.0));
    }

    /// The batched path over a small rate-ratio grid of the paper's
    /// moving-average example agrees with per-cell scalar runs exactly
    /// (the engine's contract is bit-identity, so no tolerance needed).
    #[test]
    fn moving_average_grid_batched_matches_scalar() {
        use molseq_crn::RateAssignment;
        use molseq_kinetics::SimSpec;
        let f = moving_average(2, ClockSpec::default()).unwrap();
        let samples = [10.0, 50.0, 80.0];
        let base = CompiledCrn::new(f.system().crn(), &SimSpec::default());
        let ratios = [100.0, 400.0, 1000.0, 4000.0];
        let compiled: Vec<CompiledCrn> = ratios
            .iter()
            .map(|&r| base.rebind(&SimSpec::new(RateAssignment::from_ratio(r))))
            .collect();
        let cells: Vec<BatchCell> = compiled
            .iter()
            .map(|c| BatchCell {
                compiled: c,
                config: RunConfig::default(),
            })
            .collect();
        let mut ws = OdeWorkspace::new();
        let batched = f.respond_batch(&samples, &cells, &mut ws).unwrap();
        assert_eq!(batched.len(), ratios.len());
        for (c, result) in compiled.iter().zip(batched) {
            let scalar = f
                .respond_with(&samples, &RunConfig::default(), Some(c))
                .unwrap();
            assert_eq!(scalar, result.unwrap());
        }
    }

    #[test]
    fn rmse_basics() {
        assert_eq!(rmse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]) - (12.5f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "sequences must align")]
    fn rmse_checks_lengths() {
        let _ = rmse(&[1.0], &[1.0, 2.0]);
    }
}
