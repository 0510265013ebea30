//! Circuit oracle for the ODE engine: the paper circuits of the
//! `ode_sweep` benchmark, integrated at the cycle harness's tolerances,
//! against the same cells integrated at far tighter ones.
//!
//! Each cell is one circuit at one rate ratio `k_fast/k_slow` in 10²–10⁵
//! under one lognormal per-reaction jitter draw (σ = 0.25). It runs
//! through `Simulation` twice over the same fixed horizon, recording
//! every 0.1 time units: at the harness's `rtol = 1e-5`, `atol = 1e-10`,
//! and at `1e-9`/`1e-12`. `SyncRun::from_trace` reads both runs, and
//! every register of every cycle must agree within `1e-3` of the
//! circuit's amplitude. Neither run may fall back to the pivoted dense
//! LU. The lowest-ratio counter cells deviate most.
//!
//! The reference runs take seconds each in release and minutes
//! unoptimized, so the test is ignored by default; `ci.sh` runs it with
//!
//! ```sh
//! cargo test --release --test ode_circuit_oracle -- --ignored --nocapture
//! ```

use molseq::crn::{JitterSpec, RateAssignment, RateJitter};
use molseq::kinetics::{CompiledCrn, OdeOptions, Schedule, SimMetrics, SimSpec, Simulation};
use molseq::sync::{compile_netlist_source, BinaryCounter, ClockSpec, CompiledSystem, SyncRun};
use std::cell::Cell;

/// The harness's tolerances (`molseq_sync`'s cycle harness).
const HARNESS: (f64, f64) = (1e-5, 1e-10);
/// The reference's tolerances.
const REFERENCE: (f64, f64) = (1e-9, 1e-12);
/// Largest allowed deviation from the reference, in amplitudes.
const BOUND: f64 = 1e-3;
/// Rate ratios of each circuit's cells, low and high in 10²–10⁵; the
/// deviations grow towards the low end.
const RATIOS: [f64; 2] = [150.0, 6.0e4];
/// Lognormal jitter σ of every rate constant (E7's smallest setting,
/// as in `ode_sweep`).
const JITTER_SIGMA: f64 = 0.25;

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
/// cycle; the second value counts its dense-LU fallbacks.
fn run(
    c: &Circuit,
    compiled: &CompiledCrn,
    t_end: f64,
    (rtol, atol): (f64, f64),
) -> (SyncRun, u64) {
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
    (
        SyncRun::from_trace(&c.system, trace),
        sink.get().dense_lu_fallbacks,
    )
}

/// The largest deviation of any register in any of the first `cycles`
/// cycles of cell `k` of `c`, at the harness tolerances from the
/// reference.
fn deviation(c: &Circuit, k: usize) -> f64 {
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
    let (harness, harness_fallbacks) = run(c, &compiled, t_end, HARNESS);
    let (reference, reference_fallbacks) = run(c, &compiled, t_end, REFERENCE);
    assert!(
        harness.cycles() >= cycles && reference.cycles() >= cycles,
        "{} ratio {ratio}: {} and {} cycles by t = {t_end}",
        c.name,
        harness.cycles(),
        reference.cycles()
    );
    assert_eq!(
        (harness_fallbacks, reference_fallbacks),
        (0, 0),
        "{} ratio {ratio}: dense-LU fallbacks",
        c.name
    );
    let mut worst = 0.0f64;
    for name in c.system.register_names() {
        let got = harness.register_series(name).expect("captured");
        let want = reference.register_series(name).expect("captured");
        for (g, w) in got.iter().zip(want).take(cycles) {
            worst = worst.max((g - w).abs());
        }
    }
    worst
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
    let worst: Vec<f64> = std::thread::scope(|scope| {
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
    for (&(c, k), &worst) in cells.iter().zip(&worst) {
        let ratio = RATIOS[k];
        eprintln!(
            "{:<9} ratio {ratio:>7}: {worst:.2e} ({:.1e} of the amplitude)",
            c.name,
            worst / c.amplitude
        );
        if worst > BOUND * c.amplitude {
            failures.push(format!("{} ratio {ratio}: {worst:.3e}", c.name));
        }
    }
    assert!(
        failures.is_empty(),
        "deviations beyond {BOUND} of the amplitude: {failures:?}"
    );
}
