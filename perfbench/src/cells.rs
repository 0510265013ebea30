//! The code both sweep workloads share: set-up with its warm-up, the
//! measuring loop, the output checks, and the traced run's per-layer
//! inputs.
//!
//! Cells run through `molseq_sweep::run_units` on one worker. Every call
//! runs the same composition of classes ([`Cells::call`]), so any run of
//! whole calls holds the same mix. A composition of [`CALL_CELLS`] cells
//! keeps p50 and p80 off every class boundary, whatever order the
//! classes' latencies fall in: the boundaries lie at multiples of 1/7 of
//! the samples, and neither 1/2 nor 4/5 is one.

use crate::bench::{ms, peak_rss_mb, repeat_setup, Outcome, Phase, WARM_UP_SEED};
use crate::circuits::Circuit;
use crate::kernels::{self, sample_states};
use crate::layers::{assemble, LayerInputs, Work};
use crate::stats::{min_samples, Sample};
use crate::trace::{self, span};
use molseq_kinetics::{CompiledCrn, SimMetrics};
use molseq_sweep::{run_units, CellOutcome, CellResult, SweepOptions, SweepUnit};
use molseq_sync::SyncRun;
use std::time::{Duration, Instant};

/// Cells per `run_units` call.
pub const CALL_CELLS: usize = 7;

/// Calls whose cells form the exact per-layer figures: the first pass.
pub const PASS_CALLS: usize = 5;

/// What a cell returns: its simulator counters and its cycle-level run.
pub struct CellOut {
    /// Counters the simulator reported for the cell.
    pub metrics: SimMetrics,
    /// The cell's trace, cut into clock cycles.
    pub run: SyncRun,
}

/// A sweep workload's cells.
pub trait Cells {
    /// One cell's inputs.
    type Plan;
    /// Tallies behind a check over all the cells of a phase.
    type Tally: Default;
    /// The class of every cell of one `run_units` call, in order; every
    /// class appears at least once.
    fn call(&self) -> &[usize; CALL_CELLS];
    /// Class `k`'s circuit and compiled network.
    fn class(&self, k: usize) -> (&Circuit, &CompiledCrn);
    /// A report line describing class `k`.
    fn describe(&self, k: usize) -> String;
    /// Cell `index`'s inputs, derived from `seed` and `index` only.
    ///
    /// # Errors
    ///
    /// Inputs the circuit cannot take.
    fn plan(&self, seed: u64, index: usize) -> Result<Self::Plan, String>;
    /// The sweep unit that runs a planned cell.
    fn unit<'a>(&'a self, plan: &'a Self::Plan) -> SweepUnit<'a, CellOut>;
    /// Checks one cell's output and adds it to the tally.
    ///
    /// # Errors
    ///
    /// An output that disagrees with the circuit's ideal.
    fn check(
        &self,
        plan: &Self::Plan,
        out: &CellOut,
        tally: &mut Self::Tally,
    ) -> Result<(), String>;
    /// Checks a phase's tally, adding lines to the report.
    ///
    /// # Errors
    ///
    /// A phase whose cells together fail the workload's check.
    fn check_tally(&self, tally: &Self::Tally, notes: &mut Vec<String>) -> Result<(), String>;

    /// The class of cell `index`.
    fn class_of(&self, index: usize) -> usize {
        self.call()[index % CALL_CELLS]
    }

    /// Cell `index`'s number among the cells of its class: 0, 1, 2, …
    /// in run order.
    fn serial(&self, index: usize) -> usize {
        let (round, slot) = (index / CALL_CELLS, index % CALL_CELLS);
        let k = self.call()[slot];
        let per_call = self.call().iter().filter(|&&c| c == k).count();
        let earlier = self.call()[..slot].iter().filter(|&&c| c == k).count();
        round * per_call + earlier
    }

    /// How many classes the call holds.
    fn classes(&self) -> usize {
        self.call().iter().max().map_or(0, |&k| k + 1)
    }
}

/// A cell's output, or the reason it has none.
fn output(cell: CellResult<CellOut>) -> Result<(Duration, CellOut), String> {
    if let Some(detail) = cell.detail() {
        return Err(format!("cell {} failed: {detail}", cell.label));
    }
    match cell.outcome {
        CellOutcome::Ok(out) => Ok((cell.wall, out)),
        _ => unreachable!("a cell without a failure detail ended Ok"),
    }
}

/// The cells of one call: index, inputs and result of each.
type Ran<P> = Vec<(usize, P, CellResult<CellOut>)>;

/// Plans the cells at `indices` and runs them in one call.
fn run_call<C: Cells>(
    cells: &C,
    seed: u64,
    indices: impl Iterator<Item = usize>,
) -> Result<Ran<C::Plan>, String> {
    let (indices, plans): (Vec<usize>, Vec<C::Plan>) = indices
        .map(|i| Ok((i, cells.plan(seed, i)?)))
        .collect::<Result<Vec<_>, String>>()?
        .into_iter()
        .unzip();
    let out = {
        let units: Vec<_> = plans.iter().map(|p| cells.unit(p)).collect();
        span("sweep.run_units", None, || {
            run_units(&units, &SweepOptions::default().with_workers(1))
        })
    };
    Ok(indices
        .into_iter()
        .zip(plans)
        .zip(out.cells)
        .map(|((i, plan), cell)| (i, plan, cell))
        .collect())
}

/// Builds the cells and runs one untraced cell of every class from the
/// fixed warm-up seed. Returns the cells with each class's warm-up run.
fn prepare<C: Cells>(build: &impl Fn() -> Result<C, String>) -> Result<(C, Vec<SyncRun>), String> {
    let cells = build()?;
    let firsts = (0..cells.classes()).map(|k| {
        cells
            .call()
            .iter()
            .position(|&c| c == k)
            .expect("every class appears in the call")
    });
    let warm = trace::paused(|| run_call(&cells, WARM_UP_SEED, firsts))?;
    let mut tally = C::Tally::default();
    let mut runs = Vec::new();
    for (_, plan, cell) in warm {
        let (_, out) = output(cell).map_err(|e| format!("warm-up {e}"))?;
        cells
            .check(&plan, &out, &mut tally)
            .map_err(|e| format!("warm-up cell: {e}"))?;
        runs.push(out.run);
    }
    Ok((cells, runs))
}

/// What one measured phase produced.
struct Measured<T> {
    phase: Phase,
    /// Work of the first [`PASS_CALLS`] calls.
    pass: Work,
    /// Work of every cell.
    all: Work,
    tally: T,
}

/// Runs whole calls until `seconds` have passed and at least
/// `min_cells` cells and the first pass are done, checking every cell.
fn measure<C: Cells>(
    cells: &C,
    seed: u64,
    seconds: f64,
    min_cells: usize,
) -> Result<Measured<C::Tally>, String> {
    let pass_cells = PASS_CALLS * CALL_CELLS;
    let mut m = Measured {
        phase: Phase::default(),
        pass: Work::default(),
        all: Work::default(),
        tally: C::Tally::default(),
    };
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let mut first = 0;
    while Instant::now() < deadline || m.phase.ops.len() < min_cells.max(pass_cells) {
        for (index, plan, cell) in run_call(cells, seed, first..first + CALL_CELLS)? {
            let (wall, out) = output(cell)?;
            cells
                .check(&plan, &out, &mut m.tally)
                .map_err(|e| format!("cell {index}: {e}"))?;
            if index < pass_cells {
                m.pass.add(&out.metrics);
            }
            if index + 1 == pass_cells {
                m.phase.pass_rss_mb = peak_rss_mb();
            }
            m.all.add(&out.metrics);
            m.phase.ops.push(Sample {
                value: ms(wall),
                class: cells.class(cells.class_of(index)).0.name,
            });
        }
        first += CALL_CELLS;
    }
    m.phase.wall_s = started.elapsed().as_secs_f64();
    Ok(m)
}

/// Measures one phase and checks its tally.
fn checked<C: Cells>(
    cells: &C,
    seed: u64,
    seconds: f64,
    min_cells: usize,
    notes: &mut Vec<String>,
) -> Result<Measured<C::Tally>, String> {
    let m = measure(cells, seed, seconds, min_cells)?;
    cells.check_tally(&m.tally, notes)?;
    Ok(m)
}

/// Runs a sweep workload whose cells `build` sets up: untraced for the
/// end-to-end figures, or half untraced and half traced for the
/// per-layer ones.
///
/// # Errors
///
/// A failed cell or a failed output check.
pub fn run<C: Cells>(
    seed: u64,
    seconds: f64,
    traced: bool,
    build: impl Fn() -> Result<C, String>,
) -> Result<Outcome, String> {
    let (setup_s, (cells, warm)) = repeat_setup(traced, || prepare(&build), drop)?;
    let setup_spans = trace::take();
    let classes = 0..cells.classes();
    let mut notes: Vec<String> = classes.clone().map(|k| cells.describe(k)).collect();
    if !traced {
        let m = checked(&cells, seed, seconds, min_samples(80.0), &mut notes)?;
        return Ok(Outcome {
            setup_s,
            phase: m.phase,
            notes,
            ..Outcome::default()
        });
    }
    let plain = checked(&cells, seed, seconds / 2.0, 0, &mut notes)?.phase;
    trace::set_enabled(true);
    let traced_phase = checked(&cells, seed, seconds / 2.0, 0, &mut Vec::new());
    trace::set_enabled(false);
    let m = traced_phase?;
    let kernel_times: Vec<_> = classes
        .clone()
        .zip(&warm)
        .map(|(k, run)| {
            let (c, compiled) = cells.class(k);
            let t = kernels::time_kernels(compiled, &sample_states(run.trace()));
            notes.push(format!(
                "kernels {:<12} derivative {:.0} ns, jacobian {:.0} ns, propensity {:.0} ns",
                c.name, t.derivative_ns, t.jacobian_ns, t.propensity_ns
            ));
            t
        })
        .collect();
    let mut spans = setup_spans;
    spans.extend(trace::take());
    let circuits: Vec<&Circuit> = classes.map(|k| cells.class(k).0).collect();
    let inputs = LayerInputs {
        spans,
        species: circuits.iter().map(|c| c.species() as u64).sum(),
        reactions: circuits.iter().map(|c| c.reactions() as u64).sum(),
        pass: m.pass,
        traced: m.all,
        kernels: Some(kernels::mean(&kernel_times)),
        serve: None,
        overhead_pct: 100.0 * (plain.ops_per_s() / m.phase.ops_per_s() - 1.0),
    };
    Ok(Outcome {
        setup_s,
        layers: assemble(&inputs),
        spans: inputs.spans,
        phase: m.phase,
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;

    /// Every order of `classes` classes.
    fn orders(classes: usize) -> Vec<Vec<usize>> {
        if classes == 0 {
            return vec![Vec::new()];
        }
        let mut out = Vec::new();
        for rest in orders(classes - 1) {
            for at in 0..=rest.len() {
                let mut o = rest.clone();
                o.insert(at, classes - 1);
                out.push(o);
            }
        }
        out
    }

    /// The two sweep compositions, as class indices.
    const COMPOSITIONS: [[usize; CALL_CELLS]; 2] =
        [crate::ode_sweep::CALL, crate::ssa_panels::CALL];

    #[test]
    fn no_class_order_puts_p50_or_p80_on_a_class_boundary() {
        const NAMES: [&str; 4] = ["a", "b", "c", "d"];
        for call in COMPOSITIONS {
            let classes = call.iter().max().expect("non-empty") + 1;
            // 8 to 20 calls: the run lengths the sweeps see
            for calls in 8..=20usize {
                for order in orders(classes) {
                    // class `order[r]` takes the r-th latency band: the
                    // classes never interleave
                    let samples: Vec<Sample> = (0..calls * CALL_CELLS)
                        .map(|i| {
                            let k = call[i % CALL_CELLS];
                            let band = order.iter().position(|&c| c == k).expect("in order");
                            Sample {
                                value: (1000 * band + i) as f64,
                                class: NAMES[k],
                            }
                        })
                        .collect();
                    for p in [50.0, 80.0] {
                        if let Ok(at) = percentile(&samples, p) {
                            assert_eq!(at.boundary, None, "{call:?} {calls} calls {order:?}: {at}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_class_appears_in_each_composition() {
        for call in COMPOSITIONS {
            let classes = call.iter().max().expect("non-empty") + 1;
            assert!((0..classes).all(|k| call.contains(&k)), "{call:?}");
        }
    }
}
