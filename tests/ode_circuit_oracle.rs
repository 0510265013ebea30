//! Circuit oracle for the ODE engine: the paper circuits of the
//! `ode_sweep` benchmark, integrated at the cycle harness's tolerances,
//! against the same cells integrated at far tighter ones.
//!
//! Each cell is one circuit at one rate ratio `k_fast/k_slow` in 10²–10⁵
//! under one lognormal per-reaction jitter draw (σ = 0.25). It runs
//! through `Simulation` twice over the same fixed horizon, recording
//! every 0.1 time units: at the harness's `HARNESS_ODE_TOLERANCES`
//! (`1e-3`/`1e-6`), and at `1e-9`/`1e-12`. `SyncRun::from_trace` reads
//! both runs, and every register of every cycle must agree within `1e-4`
//! of the circuit's amplitude. Neither run may fall back to the pivoted
//! dense LU, and each run must have located every input firing at its
//! crossing on a step's continuous extension: its
//! `SimMetrics::ode_events_located` equals its number of marks. Fired
//! at step ends instead, the inputs landed up to a step late, and that
//! latency, not integration error, was the deviation (5.6e-4 of the
//! amplitude on the 3-bit counter at ratio 150, at `1e-5`/`1e-10`).
//!
//! The test also prints each harness run's accepted and rejected trial
//! steps, and the harness runs together may reject at most
//! [`MAX_REJECTED_FRACTION`] of their trial steps. The step controller's
//! predictive rule rejects about 6 % of them here; the memoryless
//! elementary rule it replaced rejected 28 %, each a whole wasted step.
//!
//! The reference runs take seconds each in release and minutes
//! unoptimized, so the test is ignored by default; `ci.sh` runs it with
//!
//! ```sh
//! cargo test --release --test ode_circuit_oracle -- --ignored --nocapture
//! ```

use molseq::crn::{JitterSpec, RateAssignment, RateJitter};
use molseq::kinetics::{CompiledCrn, OdeOptions, Schedule, SimMetrics, SimSpec, Simulation};
use molseq::sync::{
    compile_netlist_source, BinaryCounter, ClockSpec, CompiledSystem, SyncRun,
    HARNESS_ODE_TOLERANCES as HARNESS,
};
use std::cell::Cell;

/// The reference's tolerances.
const REFERENCE: (f64, f64) = (1e-9, 1e-12);
/// Largest allowed deviation from the reference, in amplitudes.
const BOUND: f64 = 1e-4;
/// Rate ratios of each circuit's cells, low and high in 10²–10⁵: at the
/// low end the counters' leak species grow into their registers, and
/// step-end firings deviated most there.
const RATIOS: [f64; 2] = [150.0, 6.0e4];
/// Lognormal jitter σ of every rate constant (E7's smallest setting,
/// as in `ode_sweep`).
const JITTER_SIGMA: f64 = 0.25;
/// Largest share of the harness runs' trial steps, summed over every
/// cell, that the step controller may reject.
const MAX_REJECTED_FRACTION: f64 = 0.15;

/// One circuit of the `ode_sweep` benchmark with its input stream.
struct Circuit {
    name: &'static str,
    system: CompiledSystem,
    input: &'static str,
    samples: Vec<f64>,
    /// The logical-1 level, or the filter's largest input.
    amplitude: f64,
}

fn netlist(name: &'static str, src: &str, input: &'static str, samples: Vec<f64>) -> Circuit {
    let amplitude = samples.iter().copied().fold(0.0, f64::max);
    Circuit {
        name,
        system: compile_netlist_source(src, ClockSpec::default()).expect("example netlist lowers"),
        input,
        samples,
        amplitude,
    }
}

fn circuits() -> Vec<Circuit> {
    let counter3 = BinaryCounter::build(3, 60.0, ClockSpec::default()).expect("builds");
    vec![
        netlist(
            "mavg2",
            include_str!("../examples/netlists/mavg2.nl"),
            "x",
            vec![80.0, 16.0, 48.0],
        ),
        netlist(
            "seqdet",
            include_str!("../examples/netlists/seqdet.nl"),
            "x",
            vec![0.0, 60.0, 60.0],
        ),
        netlist(
            "counter2",
            include_str!("../examples/netlists/counter2.nl"),
            "pulse",
            vec![60.0; 3],
        ),
        Circuit {
            name: "counter3",
            samples: counter3.pulse_train(&[true, true, true]),
            system: counter3.system().clone(),
            input: "pulse",
            amplitude: 60.0,
        },
    ]
}

/// One run of `c` over `[0, t_end]` at `(rtol, atol)`, read cycle by
/// cycle, with its work counters.
fn run(
    c: &Circuit,
    compiled: &CompiledCrn,
    t_end: f64,
    (rtol, atol): (f64, f64),
) -> (SyncRun, SimMetrics) {
    let schedule = Schedule::new().trigger(
        c.system
            .input_trigger(c.input, &c.samples)
            .expect("input port"),
    );
    let sink = Cell::new(SimMetrics::default());
    let trace = Simulation::new(c.system.crn(), compiled)
        .init(&c.system.initial_state())
        .schedule(&schedule)
        .options(
            OdeOptions::default()
                .with_t_end(t_end)
                .with_record_interval(0.1)
                .with_tolerances(rtol, atol),
        )
        .metrics(&sink)
        .run()
        .expect("integrates");
    (SyncRun::from_trace(&c.system, trace), sink.get())
}

/// What one cell reports: its worst deviation, the located firings of
/// its harness and reference runs, and the harness run's accepted and
/// rejected trial steps.
struct CellReport {
    worst: f64,
    located: (u64, u64),
    harness_steps: (u64, u64),
}

/// The largest deviation of any register in any of the first `cycles`
/// cycles of cell `k` of `c`, at the harness tolerances from the
/// reference, with both runs' located firings and the harness run's
/// trial steps.
fn deviation(c: &Circuit, k: usize) -> CellReport {
    let cycles = c.samples.len();
    // four clock cycles (the rest state and three inputs) of about 13
    // time units at most, with room for slow low-ratio cells
    let t_end = 15.0 * (cycles + 1) as f64;
    let ratio = RATIOS[k];
    let jitter = RateJitter::sample(c.system.crn(), JitterSpec::new(JITTER_SIGMA, k as u64));
    let compiled = CompiledCrn::new(
        c.system.crn(),
        &SimSpec::new(RateAssignment::from_ratio(ratio)).with_jitter(jitter),
    );
    let (harness, harness_metrics) = run(c, &compiled, t_end, HARNESS);
    let (reference, reference_metrics) = run(c, &compiled, t_end, REFERENCE);
    assert!(
        harness.cycles() >= cycles && reference.cycles() >= cycles,
        "{} ratio {ratio}: {} and {} cycles by t = {t_end}",
        c.name,
        harness.cycles(),
        reference.cycles()
    );
    assert_eq!(
        (
            harness_metrics.dense_lu_fallbacks,
            reference_metrics.dense_lu_fallbacks
        ),
        (0, 0),
        "{} ratio {ratio}: dense-LU fallbacks",
        c.name
    );
    for (run, m) in [(&harness, harness_metrics), (&reference, reference_metrics)] {
        assert_eq!(
            m.ode_events_located,
            run.trace().marks().len() as u64,
            "{} ratio {ratio}: every input firing is located",
            c.name
        );
    }
    let mut worst = 0.0f64;
    for name in c.system.register_names() {
        let got = harness.register_series(name).expect("captured");
        let want = reference.register_series(name).expect("captured");
        for (g, w) in got.iter().zip(want).take(cycles) {
            worst = worst.max((g - w).abs());
        }
    }
    CellReport {
        worst,
        located: (
            harness_metrics.ode_events_located,
            reference_metrics.ode_events_located,
        ),
        harness_steps: (
            harness_metrics.ode_steps_accepted,
            harness_metrics.ode_steps_rejected,
        ),
    }
}

#[test]
#[ignore = "reference runs take seconds in release; ci.sh runs it"]
fn harness_tolerances_track_a_tight_reference_on_every_circuit() {
    let circuits = circuits();
    let cells: Vec<(&Circuit, usize)> = circuits
        .iter()
        .flat_map(|c| (0..RATIOS.len()).map(move |k| (c, k)))
        .collect();
    // one thread per cell: the reference runs dominate
    let reports: Vec<CellReport> = std::thread::scope(|scope| {
        let handles: Vec<_> = cells
            .iter()
            .map(|&(c, k)| scope.spawn(move || deviation(c, k)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("cell thread"))
            .collect()
    });
    let mut failures = Vec::new();
    let (mut accepted, mut rejected) = (0u64, 0u64);
    for (&(c, k), report) in cells.iter().zip(&reports) {
        let ratio = RATIOS[k];
        let worst = report.worst;
        eprintln!(
            "{:<9} ratio {ratio:>7}: {worst:.2e} ({:.1e} of the amplitude), \
             located firings {} (reference {}), harness steps {} accepted {} rejected",
            c.name,
            worst / c.amplitude,
            report.located.0,
            report.located.1,
            report.harness_steps.0,
            report.harness_steps.1
        );
        if worst > BOUND * c.amplitude {
            failures.push(format!("{} ratio {ratio}: {worst:.3e}", c.name));
        }
        accepted += report.harness_steps.0;
        rejected += report.harness_steps.1;
    }
    let trials = accepted + rejected;
    let rejected_fraction = rejected as f64 / trials as f64;
    eprintln!("harness runs: {rejected} of {trials} trial steps rejected ({rejected_fraction:.3})");
    assert!(
        failures.is_empty(),
        "deviations beyond {BOUND} of the amplitude: {failures:?}"
    );
    assert!(
        rejected_fraction <= MAX_REJECTED_FRACTION,
        "the harness runs rejected {rejected} of {trials} trial steps \
         ({rejected_fraction:.3} > {MAX_REJECTED_FRACTION})"
    );
}
