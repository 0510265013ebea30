//! The paper circuits the workloads simulate, with their ideal per-cycle
//! answers.
//!
//! Three come from the example netlists through the textual front-end
//! (`molseq-netlist` parses, `molseq-sync` lowers); the 3-bit counter is
//! the `BinaryCounter` module, and the stochastic panels' filter is
//! `molseq_dsp::moving_average(2, ..)`, as in E10. Every call into the
//! measured crates runs inside a trace span. The filter's ideal comes
//! from `molseq_dsp`'s reference model.

use crate::bench::Rng;
use crate::trace::span;
use molseq_dsp::{moving_average, Filter};
use molseq_kinetics::{CompiledCrn, SimSpec};
use molseq_netlist::parse_netlist;
use molseq_sync::{compile_netlist, BinaryCounter, ClockSpec, CompiledSystem, SyncRun};

/// The example netlists, as shipped with the repository.
pub const MAVG2_NL: &str = include_str!("../../examples/netlists/mavg2.nl");
/// The "11" sequence detector.
pub const SEQDET_NL: &str = include_str!("../../examples/netlists/seqdet.nl");
/// The 2-bit ripple counter.
pub const COUNTER2_NL: &str = include_str!("../../examples/netlists/counter2.nl");

/// Logical-1 amplitude the example netlists are written for.
pub const AMPLITUDE: f64 = 60.0;

/// What a circuit computes, which fixes its inputs and its ideal answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// The 2-tap moving average `y(n) = (x(n) + x(n−1)) / 2`.
    Filter,
    /// A ripple-carry counter of this many bits; carries reach the next
    /// bit one cycle later.
    Counter(usize),
    /// The one-hot "11" detector `[[0,1],[0,2],[2,2]]`.
    SeqDet,
}

/// A lowered circuit.
pub struct Circuit {
    /// Class name in reports and percentile flags.
    pub name: &'static str,
    /// What it computes.
    pub kind: Kind,
    /// Logical-1 level of the counter and detector; largest input of the
    /// filter.
    pub amplitude: f64,
    /// The lowered system.
    pub system: CompiledSystem,
    /// The filter's reference model, whose `ideal_response` is the
    /// filter's ideal (filters only).
    reference: Option<Filter>,
}

/// The 2-tap moving average's reference model.
fn reference(kind: Kind, name: &str) -> Result<Option<Filter>, String> {
    if kind != Kind::Filter {
        return Ok(None);
    }
    moving_average(2, ClockSpec::default())
        .map(Some)
        .map_err(|e| format!("{name}: reference model: {e}"))
}

impl Circuit {
    /// Parses and lowers netlist text under the default clock.
    ///
    /// # Errors
    ///
    /// The parse or lowering error, with its source position.
    pub fn from_netlist(
        name: &'static str,
        kind: Kind,
        amplitude: f64,
        src: &str,
    ) -> Result<Self, String> {
        let net = span("netlist.parse", None, || parse_netlist(src))
            .map_err(|e| format!("{name}: {e}"))?;
        let system = span("sync.lower", None, || {
            compile_netlist(net, ClockSpec::default())
        })
        .map_err(|e| format!("{name}: {e}"))?;
        Ok(Circuit {
            name,
            kind,
            amplitude,
            system,
            reference: reference(kind, name)?,
        })
    }

    /// The `molseq_dsp` 2-tap moving average, whose largest input is
    /// `amplitude`.
    ///
    /// # Errors
    ///
    /// The build error.
    pub fn moving_average(name: &'static str, amplitude: f64) -> Result<Self, String> {
        let filter = reference(Kind::Filter, name)?.expect("filters have a reference model");
        Ok(Circuit {
            name,
            kind: Kind::Filter,
            amplitude,
            system: filter.system().clone(),
            reference: Some(filter),
        })
    }

    /// Builds a `bits`-bit `BinaryCounter` module with logical 1 at
    /// `amplitude`.
    ///
    /// # Errors
    ///
    /// The build error.
    pub fn counter_module(name: &'static str, bits: usize, amplitude: f64) -> Result<Self, String> {
        let counter = span("sync.lower", None, || {
            BinaryCounter::build(bits, amplitude, ClockSpec::default())
        })
        .map_err(|e| format!("{name}: {e}"))?;
        Ok(Circuit {
            name,
            kind: Kind::Counter(bits),
            amplitude,
            system: counter.system().clone(),
            reference: None,
        })
    }

    /// Compiles the network at the paper-default rates.
    #[must_use]
    pub fn compile(&self) -> CompiledCrn {
        span("kinetics.compile", None, || {
            CompiledCrn::new(self.system.crn(), &SimSpec::default())
        })
    }

    /// The input port.
    #[must_use]
    pub fn input(&self) -> &'static str {
        match self.kind {
            Kind::Counter(_) => "pulse",
            Kind::Filter | Kind::SeqDet => "x",
        }
    }

    /// Species in the lowered network.
    #[must_use]
    pub fn species(&self) -> usize {
        self.system.crn().species_count()
    }

    /// Reactions in the lowered network.
    #[must_use]
    pub fn reactions(&self) -> usize {
        self.system.crn().reactions().len()
    }

    /// `len` seeded input samples: filter samples are whole molecule
    /// counts `k/5` of the amplitude for `k` in 1..=5 (E10's odd/even
    /// stream); counter pulses and detector bits are 0 or the amplitude.
    /// A counter's first two pulses are set, so a carry reaches bit 1
    /// and lands in the third cycle. A detector's bits hold "11" at a
    /// seeded position, so every run reaches the accepting state.
    #[must_use]
    pub fn inputs(&self, rng: &mut Rng, len: usize) -> Vec<f64> {
        let a = self.amplitude;
        let mut samples: Vec<f64> = (0..len)
            .map(|_| match self.kind {
                Kind::Filter => ((1 + rng.below(5)) as f64 / 5.0 * a).round(),
                Kind::Counter(_) | Kind::SeqDet => {
                    if rng.coin() {
                        a
                    } else {
                        0.0
                    }
                }
            })
            .collect();
        match self.kind {
            Kind::Counter(_) => samples[..len.min(2)].fill(a),
            Kind::SeqDet if len >= 2 => {
                let at = rng.below(len as u64 - 1) as usize;
                samples[at..at + 2].fill(a);
            }
            _ => {}
        }
        samples
    }

    /// The ideal value of every cycle: the filter output, the counter
    /// value, or the detector state.
    #[must_use]
    pub fn ideal(&self, inputs: &[f64]) -> Vec<f64> {
        match self.kind {
            Kind::Filter => self
                .reference
                .as_ref()
                .expect("filters have a reference model")
                .ideal_response(inputs),
            Kind::Counter(bits) => {
                // register-transfer model: every bit and carry register
                // updates at once from the previous cycle's values
                let mut b = vec![0.0f64; bits];
                let mut c = vec![0.0f64; bits];
                inputs
                    .iter()
                    .map(|&pulse| {
                        let (mut next_b, mut next_c) = (b.clone(), c.clone());
                        for i in 0..bits {
                            let carry_in = if i == 0 { pulse } else { c[i - 1] };
                            let s = b[i] + carry_in;
                            let carry = (s - self.amplitude).max(0.0);
                            next_b[i] = (s - 2.0 * carry).max(0.0);
                            next_c[i] = carry;
                        }
                        (b, c) = (next_b, next_c);
                        b.iter()
                            .enumerate()
                            .map(|(i, &v)| if v > 0.0 { f64::from(1u32 << i) } else { 0.0 })
                            .sum()
                    })
                    .collect()
            }
            Kind::SeqDet => {
                const NEXT: [[usize; 2]; 3] = [[0, 1], [0, 2], [2, 2]];
                let mut state = 0usize;
                inputs
                    .iter()
                    .map(|&x| {
                        state = NEXT[state][usize::from(x > 0.5 * self.amplitude)];
                        state as f64
                    })
                    .collect()
            }
        }
    }

    /// Reads every cycle of a run the way [`ideal`](Self::ideal) reports
    /// it: the filter output, the counter bits thresholded at half the
    /// amplitude, or the detector's most-populated state register.
    ///
    /// # Errors
    ///
    /// A register missing from the run.
    pub fn read(&self, run: &SyncRun) -> Result<Vec<f64>, String> {
        let series = |name: &str| {
            run.register_series(name)
                .map(<[f64]>::to_vec)
                .map_err(|e| format!("{}: {e}", self.name))
        };
        match self.kind {
            Kind::Filter => series("y"),
            Kind::Counter(bits) => {
                let regs: Vec<Vec<f64>> = (0..bits)
                    .map(|i| series(&format!("b{i}")))
                    .collect::<Result<_, _>>()?;
                Ok((0..run.cycles())
                    .map(|k| {
                        regs.iter()
                            .enumerate()
                            .filter(|(_, r)| r[k] > 0.5 * self.amplitude)
                            .map(|(i, _)| f64::from(1u32 << i))
                            .sum()
                    })
                    .collect())
            }
            Kind::SeqDet => {
                let regs: Vec<Vec<f64>> = (0..3)
                    .map(|i| series(&format!("s{i}")))
                    .collect::<Result<_, _>>()?;
                Ok((0..run.cycles())
                    .map(|k| {
                        (0..3)
                            .max_by(|&a, &b| regs[a][k].total_cmp(&regs[b][k]))
                            .expect("three states") as f64
                    })
                    .collect())
            }
        }
    }

    /// Checks a run's per-cycle values against the ideal: exact for the
    /// counters and the detector, within `tol` for the filter.
    ///
    /// # Errors
    ///
    /// The first cycle that disagrees.
    pub fn check(&self, run: &SyncRun, inputs: &[f64], tol: f64) -> Result<(), String> {
        let got = self.read(run)?;
        let want = self.ideal(inputs);
        if got.len() < want.len() {
            return Err(format!(
                "{}: {} cycles read, {} expected",
                self.name,
                got.len(),
                want.len()
            ));
        }
        let exact = self.kind != Kind::Filter;
        for (k, (g, w)) in got.iter().zip(&want).enumerate() {
            let bad = if exact { g != w } else { (g - w).abs() > tol };
            if bad {
                return Err(format!(
                    "{}: cycle {k} reads {g}, ideal {w} (inputs {inputs:?})",
                    self.name
                ));
            }
        }
        if self.kind == Kind::SeqDet && want.last() != Some(&2.0) {
            return Err(format!("{}: never reached the accepting state", self.name));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn circuit(kind: Kind) -> Circuit {
        let src = match kind {
            Kind::Filter => MAVG2_NL,
            Kind::SeqDet => SEQDET_NL,
            Kind::Counter(_) => COUNTER2_NL,
        };
        Circuit::from_netlist("t", kind, AMPLITUDE, src).expect("example netlist lowers")
    }

    #[test]
    fn ideal_counter_ripples_carries_one_cycle_late() {
        let c = circuit(Kind::Counter(2));
        let a = AMPLITUDE;
        // the second pulse leaves b0 = 0 and a pending carry: the count
        // reads 0 for one cycle before b1 settles
        assert_eq!(c.ideal(&[a, a, a, 0.0, a]), vec![1.0, 0.0, 3.0, 3.0, 2.0]);
    }

    #[test]
    fn ideal_detector_and_filter() {
        let d = circuit(Kind::SeqDet);
        let a = AMPLITUDE;
        assert_eq!(d.ideal(&[a, 0.0, a, a, 0.0]), vec![1.0, 0.0, 1.0, 2.0, 2.0]);
        let f = circuit(Kind::Filter);
        assert_eq!(f.ideal(&[10.0, 50.0, 80.0]), vec![5.0, 30.0, 65.0]);
    }

    #[test]
    fn detector_inputs_reach_the_accepting_state_and_vary() {
        let d = circuit(Kind::SeqDet);
        let mut rng = Rng::new(3, 0);
        let mut seen = std::collections::BTreeSet::new();
        for len in [2, 3, 3, 3, 3, 3, 3, 3, 3, 5, 9] {
            let x = d.inputs(&mut rng, len);
            assert_eq!(x.len(), len);
            assert_eq!(d.ideal(&x).last(), Some(&2.0));
            if len == 3 {
                seen.insert(format!("{x:?}"));
            }
        }
        assert!(seen.len() > 1, "three-bit inputs never vary: {seen:?}");
    }

    #[test]
    fn counter_inputs_carry_into_bit_one() {
        let c = circuit(Kind::Counter(2));
        let mut rng = Rng::new(5, 0);
        for _ in 0..8 {
            let x = c.inputs(&mut rng, 3);
            let want = c.ideal(&x);
            assert_eq!(&want[..2], &[1.0, 0.0]);
            assert!(want[2] >= 2.0, "bit 1 set in the third cycle: {want:?}");
        }
    }

    #[test]
    fn netlist_and_dsp_filters_share_the_reference_ideal() {
        let netlist = circuit(Kind::Filter);
        let dsp = Circuit::moving_average("dsp", AMPLITUDE).expect("builds");
        let x = [10.0, 50.0, 80.0];
        assert_eq!(netlist.ideal(&x), dsp.ideal(&x));
        assert_eq!(netlist.species(), dsp.species());
    }
}
