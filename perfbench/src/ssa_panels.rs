//! `ssa_panels`: the E10 small-count Gillespie replicate panels, split
//! into many short cells.
//!
//! Two panels of the 2-bit counter (count-exact logic) and two of the
//! 2-tap filter (pairing arithmetic with a ±½-molecule quantization
//! error) run at small molecule counts. Inputs arrive through the
//! harness's per-cycle triggers; replicate seeds come from the workload
//! seed. Horizons are short so a cell takes a few hundred milliseconds.
//! One worker, scalar cells, [`CALL`] per `run_units` call (see
//! [`crate::cells`]). No ODE, lane or server code runs here.

use crate::bench::{Outcome, Rng};
use crate::cells::{self, CellOut, Cells, CALL_CELLS};
use crate::circuits::{Circuit, Kind};
use crate::trace::span;
use molseq_kinetics::{CompiledCrn, Replicator, Schedule, SimMetrics, Simulation, SsaOptions};
use molseq_sweep::{JobError, SweepJob, SweepUnit};
use molseq_sync::SyncRun;
use std::cell::Cell;

/// One panel: a circuit at one molecule-count amplitude.
struct PanelSpec {
    name: &'static str,
    kind: Kind,
    amplitude: f64,
    inputs: usize,
    t_end: f64,
}

const PANELS: [PanelSpec; 4] = [
    PanelSpec {
        name: "counter n=4",
        kind: Kind::Counter(2),
        amplitude: 4.0,
        inputs: 2,
        t_end: 20.0,
    },
    PanelSpec {
        name: "counter n=8",
        kind: Kind::Counter(2),
        amplitude: 8.0,
        inputs: 2,
        t_end: 20.0,
    },
    PanelSpec {
        name: "filter n=10",
        kind: Kind::Filter,
        amplitude: 10.0,
        inputs: 2,
        t_end: 50.0,
    },
    PanelSpec {
        name: "filter n=40",
        kind: Kind::Filter,
        amplitude: 40.0,
        inputs: 2,
        t_end: 50.0,
    },
];

/// The panels of one call's cells: the counter panels and the
/// largest-amplitude filter panel twice, the other filter panel once.
pub const CALL: [usize; CALL_CELLS] = [0, 1, 2, 3, 0, 1, 3];

/// Highest mean relative RMS error the largest-amplitude filter panel
/// may show (E10's acceptance bound).
const FILTER_RMS_BOUND: f64 = 0.2;

/// Lowest share of counter cells that must decode correctly per panel.
const COUNTER_MIN_CORRECT: f64 = 0.5;

/// Highest share of filter cells whose clock may not complete every
/// input cycle within the horizon (E10 reports these as stalled runs).
const FILTER_MAX_STALLED: f64 = 0.1;

struct Panel {
    spec: &'static PanelSpec,
    circuit: Circuit,
    compiled: CompiledCrn,
}

struct Prepared {
    panels: Vec<Panel>,
}

struct CellPlan {
    index: usize,
    panel: usize,
    seed: u64,
    inputs: Vec<f64>,
    schedule: Schedule,
}

impl Cells for Prepared {
    type Plan = CellPlan;
    type Tally = [Tally; PANELS.len()];

    fn call(&self) -> &[usize; CALL_CELLS] {
        &CALL
    }

    fn class(&self, k: usize) -> (&Circuit, &CompiledCrn) {
        let p = &self.panels[k];
        (&p.circuit, &p.compiled)
    }

    fn describe(&self, k: usize) -> String {
        let p = &self.panels[k];
        format!(
            "panel {:<12} {:>3} species {:>4} reactions, {} inputs, t_end {}, {} per call",
            p.spec.name,
            p.circuit.species(),
            p.circuit.reactions(),
            p.spec.inputs,
            p.spec.t_end,
            CALL.iter().filter(|&&x| x == k).count()
        )
    }

    fn plan(&self, seed: u64, index: usize) -> Result<CellPlan, String> {
        let panel = self.class_of(index);
        let p = &self.panels[panel];
        let mut rng = Rng::new(seed, index as u64);
        let inputs = p.circuit.inputs(&mut rng, p.spec.inputs);
        let trigger = p
            .circuit
            .system
            .input_trigger(p.circuit.input(), &inputs)
            .map_err(|e| format!("{}: {e}", p.spec.name))?;
        let base_seed = molseq_sweep::derive_seed(seed, panel);
        Ok(CellPlan {
            index,
            panel,
            seed: Replicator::new(&p.compiled, base_seed).seed(self.serial(index)),
            inputs,
            schedule: Schedule::new().trigger(trigger),
        })
    }

    fn unit<'a>(&'a self, cell: &'a CellPlan) -> SweepUnit<'a, CellOut> {
        let p = &self.panels[cell.panel];
        let label = format!("{} seed={}", p.spec.name, cell.seed);
        let job = Some(cell.index as u64);
        SweepUnit::Single(SweepJob::new(label, move |_ctx| {
            span("sweep.cell", job, || {
                let system = &p.circuit.system;
                let init = system.initial_state();
                let sink = Cell::new(SimMetrics::default());
                let trace = span("kinetics.ssa", job, || {
                    Simulation::new(system.crn(), &p.compiled)
                        .init(&init)
                        .schedule(&cell.schedule)
                        .options(
                            SsaOptions::default()
                                .with_t_end(p.spec.t_end)
                                .with_record_interval(1.0)
                                .with_seed(cell.seed)
                                .with_metrics(&sink),
                        )
                        .run()
                })
                .map_err(JobError::failed)?;
                Ok(CellOut {
                    metrics: sink.get(),
                    run: SyncRun::from_trace(system, trace),
                })
            })
        }))
    }

    fn check(&self, cell: &CellPlan, out: &CellOut, tally: &mut Self::Tally) -> Result<(), String> {
        let t = &mut tally[cell.panel];
        t.cells += 1;
        match score(&self.panels[cell.panel], cell, &out.run)? {
            Score::Decoded(ok) => t.correct += usize::from(ok),
            Score::RelativeRms(rms) => t.rms_sum += rms,
            Score::Stalled => t.stalled += 1,
        }
        Ok(())
    }

    /// The E10 shape: every counter panel decodes correctly in at least
    /// half its seeds; the largest-amplitude filter panel's mean relative
    /// RMS error stays below the bound.
    fn check_tally(&self, tallies: &Self::Tally, notes: &mut Vec<String>) -> Result<(), String> {
        let largest = self
            .panels
            .iter()
            .filter(|p| p.spec.kind == Kind::Filter)
            .map(|p| p.spec.amplitude)
            .fold(0.0, f64::max);
        for (p, t) in self.panels.iter().zip(tallies) {
            match p.spec.kind {
                Kind::Filter => {
                    let mean = t.rms_sum / (t.cells - t.stalled).max(1) as f64;
                    notes.push(format!(
                        "panel {:<12} {} cells, {} stalled, mean relative RMS {mean:.4}",
                        p.spec.name, t.cells, t.stalled
                    ));
                    if t.stalled as f64 > FILTER_MAX_STALLED * t.cells as f64 {
                        return Err(format!(
                            "{}: {}/{} cells stalled",
                            p.spec.name, t.stalled, t.cells
                        ));
                    }
                    if p.spec.amplitude == largest && mean >= FILTER_RMS_BOUND {
                        return Err(format!(
                            "{}: mean relative RMS {mean:.4} >= {FILTER_RMS_BOUND}",
                            p.spec.name
                        ));
                    }
                }
                _ => {
                    let share = t.correct as f64 / t.cells as f64;
                    notes.push(format!(
                        "panel {:<12} {} cells, {} decode correctly",
                        p.spec.name, t.cells, t.correct
                    ));
                    if share < COUNTER_MIN_CORRECT {
                        return Err(format!(
                            "{}: only {}/{} seeds decode correctly",
                            p.spec.name, t.correct, t.cells
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// How one cell scored against its ideal.
enum Score {
    /// Counter: did the last completed cycle decode to the ideal count?
    Decoded(bool),
    /// Filter: RMS error relative to the amplitude.
    RelativeRms(f64),
    /// Filter: the clock did not complete every input cycle in time.
    Stalled,
}

fn score(p: &Panel, cell: &CellPlan, run: &SyncRun) -> Result<Score, String> {
    let got = p.circuit.read(run)?;
    match p.spec.kind {
        Kind::Filter => {
            if got.len() < cell.inputs.len() {
                return Ok(Score::Stalled);
            }
            let want = p.circuit.ideal(&cell.inputs);
            let mse = got
                .iter()
                .zip(&want)
                .map(|(g, w)| (g - w).powi(2))
                .sum::<f64>()
                / want.len() as f64;
            Ok(Score::RelativeRms(mse.sqrt() / p.spec.amplitude))
        }
        _ => {
            // pulses stop after the inputs; later cycles count zeros
            let mut padded = cell.inputs.clone();
            padded.resize(padded.len().max(got.len()), 0.0);
            let want = p.circuit.ideal(&padded);
            Ok(Score::Decoded(
                !got.is_empty() && got.last() == want.get(got.len() - 1),
            ))
        }
    }
}

fn build() -> Result<Prepared, String> {
    let mut panels = Vec::new();
    for spec in &PANELS {
        let circuit = match spec.kind {
            Kind::Counter(bits) => Circuit::counter_module(spec.name, bits, spec.amplitude)?,
            _ => Circuit::moving_average(spec.name, spec.amplitude)?,
        };
        let compiled = circuit.compile();
        panels.push(Panel {
            spec,
            circuit,
            compiled,
        });
    }
    Ok(Prepared { panels })
}

/// Per-panel tallies behind the E10 shape check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    cells: usize,
    correct: usize,
    stalled: usize,
    rms_sum: f64,
}

/// Runs the workload.
///
/// # Errors
///
/// A failed cell or a failed output check.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    cells::run(seed, seconds, traced, build)
}
