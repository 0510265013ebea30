//! `ode_sweep`: the E6/E7 rate-robustness sweep, split into many cells.
//!
//! Each cell drives one paper circuit through the clocked ODE harness at
//! one rate ratio `k_fast/k_slow` in 10²–10⁵ under one lognormal
//! per-reaction jitter draw, and checks every cycle against the
//! circuit's ideal. Cells run through `molseq_sweep::run_units` on one
//! worker, scalar, [`CALL`] per call (see [`crate::cells`]). No SSA,
//! lane or server code runs here.

use crate::bench::{Outcome, Rng};
use crate::cells::{self, CellOut, Cells, CALL_CELLS};
use crate::circuits::{Circuit, Kind, AMPLITUDE, COUNTER2_NL, MAVG2_NL, SEQDET_NL};
use crate::trace::span;
use molseq_crn::{JitterSpec, RateAssignment, RateJitter};
use molseq_kinetics::{CompiledCrn, SimMetrics, SimSpec};
use molseq_sweep::{JobError, SweepJob, SweepUnit};
use molseq_sync::{drive_cycles, CycleResources, RunConfig};
use std::cell::Cell;

/// The classes of one call's cells: mavg2, seqdet and counter2 twice,
/// counter3 (the largest network) once.
pub const CALL: [usize; CALL_CELLS] = [0, 1, 2, 3, 0, 1, 2];

/// Inputs, and so clock cycles, per cell. Three cycles let a counter's
/// carry land in bit 1 and leave the detector a seeded bit beside its
/// accepting pair.
const CYCLES: usize = 3;

/// Lognormal jitter σ of every rate constant (E7's smallest setting). At
/// σ = 0.5 a jittered pair near ratio 10² can lose its separation and
/// the filter misreads a cycle.
const JITTER_SIGMA: f64 = 0.25;

/// Initial guess of one clock cycle's duration, per circuit: the harness
/// simulates `hint × (cycles + 1)` and reruns on a doubled horizon when
/// that falls short. The counters' cycles run longer (about 13 time
/// units against 8–10 for the filter and the detector).
fn cycle_time_hint(kind: Kind) -> f64 {
    match kind {
        Kind::Counter(_) => 12.0,
        Kind::Filter | Kind::SeqDet => 10.0,
    }
}

/// Largest filter input (E6's largest sample).
const FILTER_AMPLITUDE: f64 = 80.0;

/// Largest |measured − ideal| the filter may show on any cycle.
const FILTER_TOLERANCE: f64 = 2.0;

struct Prepared {
    circuits: Vec<(Circuit, CompiledCrn)>,
}

/// One cell's inputs, all derived from the workload seed and the cell's
/// global index.
struct CellPlan {
    index: usize,
    circuit: usize,
    ratio: f64,
    jitter_seed: u64,
    inputs: Vec<f64>,
}

impl Cells for Prepared {
    type Plan = CellPlan;
    type Tally = ();

    fn call(&self) -> &[usize; CALL_CELLS] {
        &CALL
    }

    fn class(&self, k: usize) -> (&Circuit, &CompiledCrn) {
        let (c, compiled) = &self.circuits[k];
        (c, compiled)
    }

    fn describe(&self, k: usize) -> String {
        let c = &self.circuits[k].0;
        format!(
            "circuit {:<9} {:>3} species {:>4} reactions, {CYCLES} inputs per cell, {} per call",
            c.name,
            c.species(),
            c.reactions(),
            CALL.iter().filter(|&&x| x == k).count()
        )
    }

    fn plan(&self, seed: u64, index: usize) -> Result<CellPlan, String> {
        let circuit = self.class_of(index);
        let mut rng = Rng::new(seed, index as u64);
        // stratified log-uniform ratio: each circuit's cells take the
        // four strata of 10^2..10^5 in turn
        let stratum = (self.serial(index) % 4) as f64;
        let ratio = 10f64.powf(2.0 + 3.0 * (stratum + rng.unit()) / 4.0);
        let jitter_seed = rng.next_u64();
        let inputs = self.circuits[circuit].0.inputs(&mut rng, CYCLES);
        Ok(CellPlan {
            index,
            circuit,
            ratio,
            jitter_seed,
            inputs,
        })
    }

    fn unit<'a>(&'a self, cell: &'a CellPlan) -> SweepUnit<'a, CellOut> {
        let (c, base) = &self.circuits[cell.circuit];
        let label = format!(
            "{} ratio={:.0} draw={}",
            c.name, cell.ratio, cell.jitter_seed
        );
        let job = Some(cell.index as u64);
        SweepUnit::Single(SweepJob::new(label, move |_ctx| {
            span("sweep.cell", job, || {
                let jitter = RateJitter::sample(
                    c.system.crn(),
                    JitterSpec::new(JITTER_SIGMA, cell.jitter_seed),
                );
                let spec = SimSpec::new(RateAssignment::from_ratio(cell.ratio)).with_jitter(jitter);
                let rebound = span("kinetics.rebind", job, || base.rebind(&spec));
                let sink = Cell::new(SimMetrics::default());
                let config = RunConfig {
                    spec,
                    cycle_time_hint: cycle_time_hint(c.kind),
                    metrics: Some(&sink),
                    ..RunConfig::default()
                };
                let run = span("kinetics.ode", job, || {
                    drive_cycles(
                        &c.system,
                        &[(c.input(), &cell.inputs)],
                        cell.inputs.len(),
                        &config,
                        CycleResources {
                            compiled: Some(&rebound),
                            workspace: None,
                        },
                    )
                })
                .map_err(JobError::failed)?;
                Ok(CellOut {
                    metrics: sink.get(),
                    run,
                })
            })
        }))
    }

    /// Every cycle matches the circuit's ideal.
    fn check(&self, cell: &CellPlan, out: &CellOut, _: &mut ()) -> Result<(), String> {
        self.circuits[cell.circuit]
            .0
            .check(&out.run, &cell.inputs, FILTER_TOLERANCE)
            .map_err(|e| format!("ratio {:.0}: {e}", cell.ratio))
    }

    fn check_tally(&self, (): &(), _: &mut Vec<String>) -> Result<(), String> {
        Ok(())
    }
}

fn build() -> Result<Prepared, String> {
    let built = [
        Circuit::from_netlist("mavg2", Kind::Filter, FILTER_AMPLITUDE, MAVG2_NL)?,
        Circuit::from_netlist("seqdet", Kind::SeqDet, AMPLITUDE, SEQDET_NL)?,
        Circuit::from_netlist("counter2", Kind::Counter(2), AMPLITUDE, COUNTER2_NL)?,
        Circuit::counter_module("counter3", 3, AMPLITUDE)?,
    ];
    let circuits = built
        .into_iter()
        .map(|c| {
            let base = c.compile();
            (c, base)
        })
        .collect();
    Ok(Prepared { circuits })
}

/// Runs the workload.
///
/// # Errors
///
/// A failed cell or a failed output check.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    cells::run(seed, seconds, traced, build)
}
