//! Golden trajectories of the exact SSA (Gillespie direct method).
//!
//! Each case runs a paper circuit at small molecule counts with its
//! per-cycle input trigger, and hashes everything the run reports: every
//! sample time and state bit, every trigger mark, the error of a cut run
//! and the `SimMetrics` counters. The hashes were recorded from the
//! full-recompute direct method (every propensity re-evaluated at every
//! event), so any change to the engine's propensity bookkeeping has to
//! reproduce those runs bit for bit. Every case runs through the scalar
//! `Simulation` path and through `run_ssa_batch` at widths 1 and 4.

use molseq::dsp::moving_average;
use molseq::kinetics::{
    run_ssa_batch, BatchedStochWorkspace, CompiledCrn, Schedule, SimError, SimMetrics, SimSpec,
    Simulation, SsaBatchLane, SsaOptions, Trace,
};
use molseq::sync::{BinaryCounter, ClockSpec, CompiledSystem};
use std::cell::Cell;
use std::ops::ControlFlow;

/// FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn real(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

/// Hash of one run's outcome and its work counters. The batch-shape
/// counters (`batch_width`, `lanes_retired`) are left out so scalar and
/// batched runs of one case share a hash; they are checked separately.
fn outcome_hash(result: &Result<Trace, SimError>, m: &SimMetrics) -> u64 {
    let mut h = Fnv::new();
    match result {
        Ok(trace) => {
            h.word(0);
            h.word(trace.len() as u64);
            for i in 0..trace.len() {
                h.real(trace.times()[i]);
                for &v in trace.state(i) {
                    h.real(v);
                }
            }
            h.word(trace.marks().len() as u64);
            for &(t, k) in trace.marks() {
                h.real(t);
                h.word(k as u64);
            }
        }
        Err(SimError::StepLimitExceeded {
            reached,
            t_end,
            max_steps,
        }) => {
            h.word(1);
            h.real(*reached);
            h.real(*t_end);
            h.word(*max_steps as u64);
        }
        Err(SimError::Interrupted { time, reason }) => {
            h.word(2);
            h.real(*time);
            for b in reason.bytes() {
                h.word(u64::from(b));
            }
        }
        Err(other) => panic!("unexpected error {other:?}"),
    }
    for v in [
        m.ode_steps_accepted,
        m.ode_steps_rejected,
        m.lu_factorizations,
        m.ssa_events,
        m.tau_leaps,
        m.tau_leaps_implicit,
        m.newton_iterations,
        m.leap_switchovers,
        m.seed,
        m.hybrid_slow_events,
        m.hybrid_fast_steps,
        m.hybrid_repartitions,
    ] {
        h.word(v);
    }
    h.real(m.final_time);
    h.0
}

/// How a case deviates from a plain triggered run.
#[derive(Clone, Copy, Debug)]
enum Variant {
    /// Input trigger only.
    Plain,
    /// Input trigger, a timed injection into the input species, and a
    /// lane-specific rate binding.
    Injection,
    /// Input trigger and an event budget that runs out mid-span.
    MaxEvents(usize),
    /// Input trigger and a step hook that interrupts mid-span.
    Hook(u64),
}

/// One circuit under test with its inputs and horizon.
struct Circuit {
    name: &'static str,
    system: CompiledSystem,
    input: &'static str,
    samples: Vec<f64>,
    t_end: f64,
}

fn counter2() -> Circuit {
    let counter = BinaryCounter::build(2, 4.0, ClockSpec::default()).expect("builds");
    Circuit {
        name: "counter2 n=4",
        samples: counter.pulse_train(&[true, true]),
        system: counter.system().clone(),
        input: "pulse",
        t_end: 20.0,
    }
}

fn filter2() -> Circuit {
    let filter = moving_average(2, ClockSpec::default()).expect("builds");
    Circuit {
        name: "moving_average(2) n=10",
        system: filter.system().clone(),
        input: "x",
        samples: vec![6.0, 10.0],
        t_end: 30.0,
    }
}

const VARIANTS: [Variant; 4] = [
    Variant::Plain,
    Variant::Injection,
    Variant::MaxEvents(4000),
    Variant::Hook(3000),
];

const SEEDS: [u64; 4] = [11, 12, 13, 14];

/// Everything one lane needs, owned.
struct Lane {
    compiled: CompiledCrn,
    schedule: Schedule,
    seed: u64,
    t_end: f64,
    variant: Variant,
}

fn lanes(c: &Circuit) -> Vec<Lane> {
    let base = CompiledCrn::new(c.system.crn(), &SimSpec::default());
    let trigger = c
        .system
        .input_trigger(c.input, &c.samples)
        .expect("trigger");
    let input = c.system.input_species(c.input).expect("input port");
    VARIANTS
        .iter()
        .zip(SEEDS)
        .map(|(&variant, seed)| {
            let mut schedule = Schedule::new().trigger(trigger.clone());
            let mut compiled = base.clone();
            if let Variant::Injection = variant {
                schedule = schedule.inject(7.5, input, 3.0);
                compiled = base.rebind(&SimSpec::new(molseq::crn::RateAssignment::from_ratio(
                    300.0,
                )));
            }
            Lane {
                compiled,
                schedule,
                seed,
                t_end: c.t_end,
                variant,
            }
        })
        .collect()
}

/// The step hook of a lane: interrupts a `Hook` lane at its limit and
/// never fires for the others.
fn hook_for(variant: Variant) -> impl Fn(u64, f64) -> ControlFlow<String> {
    let limit = match variant {
        Variant::Hook(n) => n,
        _ => u64::MAX,
    };
    move |events, _t| {
        if events >= limit {
            ControlFlow::Break(format!("golden cut at {limit}"))
        } else {
            ControlFlow::Continue(())
        }
    }
}

fn options<'h>(
    lane: &Lane,
    sink: &'h Cell<SimMetrics>,
    hook: &'h dyn Fn(u64, f64) -> ControlFlow<String>,
) -> SsaOptions<'h> {
    let opts = SsaOptions::default()
        .with_t_end(lane.t_end)
        .with_record_interval(0.5)
        .with_seed(lane.seed)
        .with_metrics(sink);
    match lane.variant {
        Variant::MaxEvents(n) => opts.with_max_events(n),
        Variant::Hook(_) => opts.with_step_hook(hook),
        Variant::Plain | Variant::Injection => opts,
    }
}

/// Per-lane hashes, batch-shape counters and exits for one mode.
#[derive(Default)]
struct Runs {
    hashes: Vec<u64>,
    shapes: Vec<(u64, u64)>,
    outcomes: Vec<&'static str>,
}

impl Runs {
    fn record(&mut self, result: &Result<Trace, SimError>, m: SimMetrics) {
        self.hashes.push(outcome_hash(result, &m));
        self.shapes.push((m.batch_width, m.lanes_retired));
        self.outcomes.push(match result {
            Ok(_) => "ok",
            Err(SimError::StepLimitExceeded { .. }) => "max_events",
            Err(SimError::Interrupted { .. }) => "hook",
            Err(_) => "other",
        });
    }
}

fn run_scalar(c: &Circuit, lanes: &[Lane]) -> Runs {
    let init = c.system.initial_state();
    let mut runs = Runs::default();
    for lane in lanes {
        let sink = Cell::new(SimMetrics::default());
        let hook = hook_for(lane.variant);
        let result = Simulation::new(c.system.crn(), &lane.compiled)
            .init(&init)
            .schedule(&lane.schedule)
            .options(options(lane, &sink, &hook))
            .run();
        runs.record(&result, sink.get());
    }
    runs
}

fn run_batched(c: &Circuit, lanes: &[Lane], width: usize) -> Runs {
    let init = c.system.initial_state();
    let sinks: Vec<Cell<SimMetrics>> = lanes
        .iter()
        .map(|_| Cell::new(SimMetrics::default()))
        .collect();
    let hooks: Vec<_> = lanes.iter().map(|l| hook_for(l.variant)).collect();
    let mut runs = Runs::default();
    let mut ws = BatchedStochWorkspace::new();
    for chunk in (0..lanes.len()).collect::<Vec<_>>().chunks(width) {
        let batch: Vec<SsaBatchLane> = chunk
            .iter()
            .map(|&k| SsaBatchLane {
                compiled: &lanes[k].compiled,
                init: &init,
                schedule: &lanes[k].schedule,
                options: options(&lanes[k], &sinks[k], &hooks[k]),
            })
            .collect();
        let results = run_ssa_batch(c.system.crn(), &batch, &mut ws);
        for (&k, result) in chunk.iter().zip(&results) {
            runs.record(result, sinks[k].get());
        }
    }
    runs
}

/// Checks scalar, width-1 and width-4 runs of `c` against `golden`, and
/// the width-4 retirement ordinals against `retired`.
fn check(c: &Circuit, golden: [u64; 4], retired: [u64; 4]) {
    let lanes = lanes(c);
    let scalar = run_scalar(c, &lanes);
    let w1 = run_batched(c, &lanes, 1);
    let w4 = run_batched(c, &lanes, 4);
    let report = format!(
        "{}: scalar {:x?} w1 {:x?} w4 {:x?} w4 shapes {:?}",
        c.name, scalar.hashes, w1.hashes, w4.hashes, w4.shapes
    );
    // every variant reaches the exit it is meant to exercise
    for runs in [&scalar, &w1, &w4] {
        assert_eq!(
            runs.outcomes,
            ["ok", "ok", "max_events", "hook"],
            "{report}"
        );
    }
    assert_eq!(scalar.hashes, golden, "scalar hashes moved; {report}");
    assert_eq!(w1.hashes, golden, "width-1 hashes moved; {report}");
    assert_eq!(w4.hashes, golden, "width-4 hashes moved; {report}");
    assert!(scalar.shapes.iter().all(|&s| s == (0, 0)), "{report}");
    assert!(w1.shapes.iter().all(|&s| s == (1, 0)), "{report}");
    let w4_retired: Vec<u64> = w4.shapes.iter().map(|&(_, r)| r).collect();
    assert!(w4.shapes.iter().all(|&(w, _)| w == 4), "{report}");
    assert_eq!(w4_retired, retired, "retirement order moved; {report}");
}

#[test]
fn counter2_trajectories_match_their_golden_hashes() {
    check(
        &counter2(),
        [
            0xda3f_d3f5_7e5d_ae90,
            0x9c1d_f0a1_58cb_7067,
            0x8ec7_7d06_f806_3e51,
            0x8a48_e9c1_77e6_b07f,
        ],
        [3, 2, 1, 0],
    );
}

#[test]
fn moving_average2_trajectories_match_their_golden_hashes() {
    check(
        &filter2(),
        [
            0x8855_1f45_4da1_3ded,
            0xe4c7_3d4d_6691_c04d,
            0x64bc_9a2f_2fb2_fd27,
            0x95a7_e8cb_f947_05df,
        ],
        [3, 2, 1, 0],
    );
}
