//! Golden trajectories of the exact SSA (Gillespie direct method), the
//! Rosenbrock ODE integrator, the cycle harness, explicit and implicit
//! tau-leaping, and the hybrid ODE/SSA engine.
//!
//! Each SSA and ODE case runs a paper circuit with its per-cycle input
//! trigger, and hashes everything the run reports: every sample time and
//! state bit, every trigger mark, the error of a cut run and the
//! `SimMetrics` counters. The SSA hashes were recorded from the
//! full-recompute direct method (every propensity re-evaluated at every
//! event), so any change to the engine's propensity bookkeeping has to
//! reproduce those runs bit for bit. The tau-leap hashes were recorded
//! before RK4, Cash–Karp, the Jacobian-reuse knob and the stochastic lanes
//! were deleted. The implicit tau-leap and hybrid hashes were recorded
//! before the sparse LU moved to packed storage: both engines factor their
//! `W` with that LU. The ODE and cycle-harness hashes were re-recorded
//! when the ODE engine moved from ode23s to RODAS4 with samples from its
//! continuous extension (and the harness's absolute tolerance from 1e-8
//! to 1e-10), a change of arithmetic on purpose that the closed-form,
//! tableau and circuit oracles vouch for; the ODE step budget and hook
//! cut shrank with the step count, so both still stop a run mid-span.
//! Every ODE case runs through the `Simulation` builder (a one-lane run
//! of the one ODE driver) and through `run_ode_batch` at widths 1, 2, 3
//! and 4; the hashes were recorded when the builder still ran a separate
//! scalar stepper.

use molseq::crn::{Crn, RateAssignment};
use molseq::dsp::moving_average;
use molseq::kinetics::{
    run_ode_batch, BatchLane, CompiledCrn, HybridOptions, OdeOptions, OdeWorkspace, Schedule,
    SimError, SimMetrics, SimSpec, Simulation, SsaOptions, State, TauLeapImplicitOptions,
    TauLeapOptions, Trace,
};
use molseq::sync::{
    compile_netlist_source, drive_cycles, drive_cycles_batch, stored_value_terms, BatchCell,
    BinaryCounter, ClockSpec, CompiledSystem, CycleResources, RunConfig, SyncRun,
    HARNESS_ODE_TOLERANCES,
};
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

/// How a case deviates from a plain run (the circuit cases also carry
/// their input trigger).
#[derive(Clone, Copy, Debug)]
enum Variant {
    /// Nothing else.
    Plain,
    /// A timed injection and a case-specific rate binding.
    Injection,
    /// An event (SSA, tau-leap) or step (ODE) budget that runs out
    /// mid-span.
    MaxEvents(usize),
    /// A step hook that interrupts mid-span.
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

/// Checks the scalar SSA runs of `c` against `golden`.
fn check(c: &Circuit, golden: [u64; 4]) {
    let lanes = lanes(c);
    let scalar = run_scalar(c, &lanes);
    let report = format!("{}: scalar {:x?}", c.name, scalar.hashes);
    // every variant reaches the exit it is meant to exercise
    assert_eq!(
        scalar.outcomes,
        ["ok", "ok", "max_events", "hook"],
        "{report}"
    );
    assert_eq!(scalar.hashes, golden, "scalar hashes moved; {report}");
    assert!(scalar.shapes.iter().all(|&s| s == (0, 0)), "{report}");
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
    );
}

// --- deterministic ODE: scalar, and lock-step lanes at widths 1 to 4 ---

/// The ODE variants: the budget and the hook limit count attempted
/// integrator steps.
const ODE_VARIANTS: [Variant; 4] = [
    Variant::Plain,
    Variant::Injection,
    Variant::MaxEvents(ODE_STEP_CUT),
    Variant::Hook(ODE_HOOK_CUT),
];

const ODE_STEP_CUT: usize = 4_000;
const ODE_HOOK_CUT: u64 = 3_000;

fn ode_options<'h>(
    lane: &Lane,
    sink: &'h Cell<SimMetrics>,
    hook: &'h dyn Fn(u64, f64) -> ControlFlow<String>,
) -> OdeOptions<'h> {
    let opts = OdeOptions::default()
        .with_t_end(lane.t_end)
        .with_record_interval(0.5)
        .with_metrics(sink);
    match lane.variant {
        Variant::MaxEvents(n) => opts.with_max_steps(n),
        Variant::Hook(_) => opts.with_step_hook(hook),
        Variant::Plain | Variant::Injection => opts,
    }
}

fn ode_lanes(c: &Circuit) -> Vec<Lane> {
    let mut lanes = lanes(c);
    for (lane, variant) in lanes.iter_mut().zip(ODE_VARIANTS) {
        lane.variant = variant;
    }
    lanes
}

fn run_ode_scalar(c: &Circuit, lanes: &[Lane]) -> Runs {
    let init = c.system.initial_state();
    let mut runs = Runs::default();
    for lane in lanes {
        let sink = Cell::new(SimMetrics::default());
        let hook = hook_for(lane.variant);
        let result = Simulation::new(c.system.crn(), &lane.compiled)
            .init(&init)
            .schedule(&lane.schedule)
            .options(ode_options(lane, &sink, &hook))
            .run();
        runs.record(&result, sink.get());
    }
    runs
}

fn run_ode_lanes(c: &Circuit, lanes: &[Lane], width: usize) -> Runs {
    let init = c.system.initial_state();
    let sinks: Vec<Cell<SimMetrics>> = lanes
        .iter()
        .map(|_| Cell::new(SimMetrics::default()))
        .collect();
    let hooks: Vec<_> = lanes.iter().map(|l| hook_for(l.variant)).collect();
    let mut runs = Runs::default();
    let mut ws = OdeWorkspace::new();
    for chunk in (0..lanes.len()).collect::<Vec<_>>().chunks(width) {
        let batch: Vec<BatchLane> = chunk
            .iter()
            .map(|&k| BatchLane {
                compiled: &lanes[k].compiled,
                init: &init,
                schedule: &lanes[k].schedule,
                options: ode_options(&lanes[k], &sinks[k], &hooks[k]),
            })
            .collect();
        let results = run_ode_batch(c.system.crn(), &batch, &mut ws);
        for (&k, result) in chunk.iter().zip(&results) {
            runs.record(result, sinks[k].get());
        }
    }
    runs
}

/// Checks scalar and width-1 to width-4 ODE runs of `c` against
/// `golden`, and each width's retirement ordinals against `retired`
/// (widths 2, 3, 4 in that order). Width 3 splits the four lanes 3 + 1,
/// so it also runs the dynamic-width kernels.
fn check_ode(c: &Circuit, golden: [u64; 4], retired: [[u64; 4]; 3]) {
    let lanes = ode_lanes(c);
    let scalar = run_ode_scalar(c, &lanes);
    let w1 = run_ode_lanes(c, &lanes, 1);
    let wide: Vec<Runs> = [2, 3, 4]
        .iter()
        .map(|&width| run_ode_lanes(c, &lanes, width))
        .collect();
    let report = format!(
        "{}: scalar {:x?} w1 {:x?} w2..w4 {:x?} shapes {:?}",
        c.name,
        scalar.hashes,
        w1.hashes,
        wide.iter().map(|r| &r.hashes).collect::<Vec<_>>(),
        wide.iter().map(|r| &r.shapes).collect::<Vec<_>>()
    );
    for runs in [&scalar, &w1].into_iter().chain(&wide) {
        assert_eq!(
            runs.outcomes,
            ["ok", "ok", "max_events", "hook"],
            "{report}"
        );
        assert_eq!(runs.hashes, golden, "hashes moved; {report}");
    }
    // a run of one lane reports no batch: the builder's runs, width 1,
    // and the lone fourth lane of width 3
    assert!(scalar.shapes.iter().all(|&s| s == (0, 0)), "{report}");
    assert!(w1.shapes.iter().all(|&s| s == (0, 0)), "{report}");
    for ((runs, widths), retired) in wide
        .iter()
        .zip([[2, 2, 2, 2], [3, 3, 3, 0], [4, 4, 4, 4]])
        .zip(retired)
    {
        let got_widths: Vec<u64> = runs.shapes.iter().map(|&(w, _)| w).collect();
        let got_retired: Vec<u64> = runs.shapes.iter().map(|&(_, r)| r).collect();
        assert_eq!(got_widths, widths, "{report}");
        assert_eq!(got_retired, retired, "retirement order moved; {report}");
    }
}

#[test]
fn counter2_ode_trajectories_match_their_golden_hashes() {
    check_ode(
        &counter2(),
        [
            0x730f_b5c8_f06e_e1f3,
            0x8c82_2415_3f0e_d2ef,
            0x981c_6d7e_0571_8d4f,
            0x92b3_227d_3ba0_2416,
        ],
        [[1, 0, 1, 0], [2, 1, 0, 0], [3, 2, 1, 0]],
    );
}

#[test]
fn moving_average2_ode_trajectories_match_their_golden_hashes() {
    check_ode(
        &filter2(),
        [
            0x35b3_5f80_40d1_63ab,
            0xa60c_31fc_3274_7947,
            0x5eb0_0f42_5340_f6eb,
            0x94f5_1e9d_8aff_68bc,
        ],
        [[0, 1, 1, 0], [1, 2, 0, 0], [2, 3, 1, 0]],
    );
}

// --- the cycle harness: its fixed ODE tolerances ---

/// Hash of a harness run: the trace and work counters as
/// [`outcome_hash`], then the per-cycle sample times and every register
/// series in name order.
fn sync_run_hash(system: &CompiledSystem, run: &SyncRun, m: &SimMetrics) -> u64 {
    let mut h = Fnv::new();
    h.word(outcome_hash(&Ok(run.trace().clone()), m));
    for &t in run.sample_times() {
        h.real(t);
    }
    let mut names: Vec<&str> = system.register_names().collect();
    names.sort_unstable();
    for name in names {
        for &v in run.register_series(name).expect("captured") {
            h.real(v);
        }
    }
    h.0
}

fn drive_hash(c: &Circuit) -> u64 {
    let sink = Cell::new(SimMetrics::default());
    let config = RunConfig {
        metrics: Some(&sink),
        ..RunConfig::default()
    };
    let run = drive_cycles(
        &c.system,
        &[(c.input, &c.samples)],
        c.samples.len(),
        &config,
        CycleResources::default(),
    )
    .expect("drives");
    sync_run_hash(&c.system, &run, &sink.get())
}

#[test]
fn cycle_harness_runs_match_their_golden_hashes() {
    let hashes = [drive_hash(&counter2()), drive_hash(&filter2())];
    assert_eq!(
        hashes,
        [0xc478_6c55_c88c_6e1a, 0xb43b_0112_da41_6c6d],
        "harness hashes moved: {hashes:x?}"
    );
}

/// Index of the exit sample of red plateau `plateau` (0 is the rest
/// state): the first recorded sample after the plateau's entry whose
/// dimer-weighted red sum is at most 0.9 token. `None` while it is still
/// open at the end of the trace.
fn plateau_exit(system: &CompiledSystem, trace: &Trace, plateau: usize) -> Option<usize> {
    let red = stored_value_terms(system.crn(), system.clock().red);
    let threshold = 0.9 * system.clock().token;
    let mut open = false;
    let mut closed = 0;
    for i in 0..trace.len() {
        let sum: f64 = red
            .iter()
            .map(|&(s, w)| w * trace.state(i)[s.index()])
            .sum();
        let high = sum > threshold;
        if high && !open {
            open = true;
        } else if !high && open {
            if closed == plateau {
                return Some(i);
            }
            closed += 1;
            open = false;
        }
    }
    None
}

/// Hash of what a harness run reports up to the close of its last
/// counted plateau: the per-cycle sample times, every register series in
/// name order, and the trace samples and marks through that plateau's
/// exit sample. Where the run stops afterwards does not enter it.
fn prefix_hash(system: &CompiledSystem, run: &SyncRun) -> u64 {
    let trace = run.trace();
    let exit = plateau_exit(system, trace, run.cycles()).expect("the last plateau closes");
    let mut h = Fnv::new();
    h.word(exit as u64);
    for i in 0..=exit {
        h.real(trace.times()[i]);
        for &v in trace.state(i) {
            h.real(v);
        }
    }
    let t_exit = trace.times()[exit];
    let marks: Vec<_> = trace
        .marks()
        .iter()
        .filter(|&&(t, _)| t <= t_exit)
        .collect();
    h.word(marks.len() as u64);
    for &&(t, k) in &marks {
        h.real(t);
        h.word(k as u64);
    }
    for &t in run.sample_times() {
        h.real(t);
    }
    let mut names: Vec<&str> = system.register_names().collect();
    names.sort_unstable();
    for name in names {
        for &v in run.register_series(name).expect("captured") {
            h.real(v);
        }
    }
    h.0
}

fn drive_with_hint(c: &Circuit, hint: f64) -> SyncRun {
    let config = RunConfig {
        cycle_time_hint: hint,
        ..RunConfig::default()
    };
    drive_cycles(
        &c.system,
        &[(c.input, &c.samples)],
        c.samples.len(),
        &config,
        CycleResources::default(),
    )
    .expect("drives")
}

/// What the harness reports up to its last counted plateau: both circuits
/// at the default hint, again at hint 3 (their clock period is about 5.5
/// time units, so a first horizon of 9 falls short of the two requested
/// cycles), and two lanes of one batched counter call.
#[test]
fn cycle_harness_prefixes_match_their_golden_hashes() {
    let mut hashes = Vec::new();
    for hint in [12.0, 3.0] {
        for c in [counter2(), filter2()] {
            let run = drive_with_hint(&c, hint);
            let first_horizon = hint * (c.samples.len() + 1) as f64;
            if hint == 3.0 {
                // the requested cycles end beyond the first horizon
                let t_last = *run.trace().times().last().expect("recorded");
                assert!(t_last > first_horizon, "{}: {t_last}", c.name);
            }
            hashes.push(prefix_hash(&c.system, &run));
        }
    }
    let c = counter2();
    let base = CompiledCrn::new(c.system.crn(), &SimSpec::default());
    let compiled: Vec<CompiledCrn> = [100.0, 1000.0]
        .iter()
        .map(|&r| base.rebind(&SimSpec::new(RateAssignment::from_ratio(r))))
        .collect();
    let cells: Vec<BatchCell> = compiled
        .iter()
        .map(|compiled| BatchCell {
            compiled,
            config: RunConfig::default(),
        })
        .collect();
    let runs = drive_cycles_batch(
        &c.system,
        &[(c.input, &c.samples)],
        c.samples.len(),
        &cells,
        &mut OdeWorkspace::new(),
    )
    .expect("shared setup");
    for run in runs {
        hashes.push(prefix_hash(&c.system, &run.expect("lane drives")));
    }
    assert_eq!(
        hashes,
        [
            0xc863_157e_039c_8783,
            0x23d9_323d_6386_d576,
            0xc863_157e_039c_8783,
            0x23d9_323d_6386_d576,
            0x6224_9f16_0029_f1ec,
            0xc863_157e_039c_8783,
        ],
        "harness prefix hashes moved: {hashes:x?}"
    );
}

/// A stopped harness run is a prefix of the same cell run to the fixed
/// horizon `hint × (cycles + 1)`: every sample and mark before its final
/// sample is bit-identical, and its cycles are those `SyncRun::from_trace`
/// reads from the longer trace.
#[test]
fn a_stopped_harness_run_is_a_prefix_of_the_fixed_horizon_run() {
    let (rtol, atol) = HARNESS_ODE_TOLERANCES;
    for c in [counter2(), filter2()] {
        let cycles = c.samples.len();
        let stopped = drive_with_hint(&c, 12.0);
        let schedule = Schedule::new().trigger(
            c.system
                .input_trigger(c.input, &c.samples)
                .expect("trigger"),
        );
        let full = Simulation::new(
            c.system.crn(),
            &CompiledCrn::new(c.system.crn(), &SimSpec::default()),
        )
        .init(&c.system.initial_state())
        .schedule(&schedule)
        .options(
            OdeOptions::default()
                .with_t_end(12.0 * (cycles + 1) as f64)
                .with_record_interval(0.1)
                .with_tolerances(rtol, atol),
        )
        .run()
        .expect("runs");
        let trace = stopped.trace();
        let kept = trace.len() - 1;
        assert!(kept < full.len(), "{}: the stop saved no samples", c.name);
        assert_eq!(trace.times()[..kept], full.times()[..kept], "{}", c.name);
        for i in 0..kept {
            let (a, b) = (trace.state(i), full.state(i));
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "{}: sample {i} differs",
                c.name
            );
        }
        assert_eq!(
            trace.marks(),
            &full.marks()[..trace.marks().len()],
            "{}",
            c.name
        );
        let reference = SyncRun::from_trace(&c.system, full);
        assert_eq!(
            stopped.sample_times(),
            &reference.sample_times()[..cycles],
            "{}",
            c.name
        );
        for name in c.system.register_names() {
            assert_eq!(
                stopped.register_series(name).expect("captured"),
                &reference.register_series(name).expect("captured")[..cycles],
                "{}: register {name}",
                c.name
            );
        }
    }
}

/// A plateau cut off by the end of the run is not a cycle: the netlist
/// counter at ratio 30 ends its third cycle just after t = 48, the
/// parent's fixed first horizon, so the harness must run on until that
/// plateau has closed.
#[test]
fn the_last_counted_plateau_has_closed() {
    let system = compile_netlist_source(
        include_str!("../examples/netlists/counter2.nl"),
        ClockSpec::default(),
    )
    .expect("compiles");
    let config = RunConfig {
        spec: SimSpec::new(RateAssignment::from_ratio(30.0)),
        ..RunConfig::default()
    };
    let pulses = [60.0, 60.0, 60.0];
    let run = drive_cycles(
        &system,
        &[("pulse", &pulses)],
        3,
        &config,
        CycleResources::default(),
    )
    .expect("drives");
    assert!(
        plateau_exit(&system, run.trace(), 3).is_some(),
        "the third cycle's plateau is still open at t = {:?}; sample times {:?}",
        run.trace().times().last(),
        run.sample_times()
    );
}

// --- explicit tau-leaping at large counts ---

/// A dimerisation whose counts stay in the hundreds, with a slow
/// conversion cycle: the leaper leaps for most of the span instead of
/// falling back to exact steps.
const TAU_NETWORK: &str = "A + B -> C @0.001\nC -> A + B @slow\nC -> D @slow\nD -> A + B @slow";

const TAU_VARIANTS: [Variant; 4] = [
    Variant::Plain,
    Variant::Injection,
    Variant::MaxEvents(TAU_LEAP_CUT),
    Variant::Hook(TAU_HOOK_CUT),
];

const TAU_LEAP_CUT: usize = 700;
const TAU_HOOK_CUT: u64 = 600;

#[test]
fn tau_leap_trajectories_match_their_golden_hashes() {
    let crn: Crn = TAU_NETWORK.parse().expect("parses");
    let a = crn.find_species("A").expect("A");
    let b = crn.find_species("B").expect("B");
    let mut init = State::new(&crn);
    init.set(a, 1200.0).set(b, 1200.0);
    let base = CompiledCrn::new(&crn, &SimSpec::default());
    let mut runs = Runs::default();
    for (variant, seed) in TAU_VARIANTS.into_iter().zip(SEEDS) {
        let mut schedule = Schedule::new();
        let mut compiled = base.clone();
        if let Variant::Injection = variant {
            schedule = schedule.inject(4.0, a, 300.0);
            compiled = base.rebind(&SimSpec::new(
                RateAssignment::new(1000.0, 1.5).expect("valid rates"),
            ));
        }
        let lane = Lane {
            compiled,
            schedule,
            seed,
            t_end: 16.0,
            variant,
        };
        let sink = Cell::new(SimMetrics::default());
        let hook = hook_for(variant);
        let result = Simulation::new(&crn, &lane.compiled)
            .init(&init)
            .schedule(&lane.schedule)
            .options(TauLeapOptions {
                base: options(&lane, &sink, &hook),
                ..TauLeapOptions::default()
            })
            .run();
        runs.record(&result, sink.get());
    }
    let report = format!("tau: {:x?}", runs.hashes);
    assert_eq!(
        runs.outcomes,
        ["ok", "ok", "max_events", "hook"],
        "{report}"
    );
    assert_eq!(
        runs.hashes,
        [
            0x43fa_c4d8_3797_1279,
            0xd954_4bf6_1452_e5f3,
            0x06aa_2016_3520_7bbe,
            0xc7a4_aa4f_658e_6b17,
        ],
        "tau hashes moved; {report}"
    );
    assert!(runs.shapes.iter().all(|&s| s == (0, 0)), "{report}");
}

// --- implicit tau-leaping and the hybrid engine on E13's stiff motif ---

/// E13's stiff clocked motif at `k_fast = 10⁴`: the indicator `R` is
/// produced from nothing and consumed fast by the catalyst pool `X`
/// (a structurally reversible pair at quasi-steady state) while `X`
/// drains slowly into `Y`. Both engines below factor a `W` over its
/// Jacobian pattern at every Newton iteration or fast step.
const STIFF_MOTIF: &str = "0 -> R @10000\nR + X -> X @100\nX -> Y @0.01";

fn stiff_motif() -> (Crn, State) {
    let crn: Crn = STIFF_MOTIF.parse().expect("parses");
    let mut init = State::new(&crn);
    init.set(crn.find_species("X").expect("X"), 100.0);
    (crn, init)
}

/// The injection variant adds 10 catalyst molecules at `t_inject`, a
/// jump the fast pair re-balances from.
fn stiff_schedule(crn: &Crn, variant: Variant, t_inject: f64) -> Schedule {
    match variant {
        Variant::Injection => {
            Schedule::new().inject(t_inject, crn.find_species("X").expect("X"), 10.0)
        }
        _ => Schedule::new(),
    }
}

const IMPLICIT_TAU_VARIANTS: [Variant; 4] = [
    Variant::Plain,
    Variant::Injection,
    Variant::MaxEvents(IMPLICIT_TAU_STEP_CUT),
    Variant::Hook(IMPLICIT_TAU_HOOK_CUT),
];

const IMPLICIT_TAU_STEP_CUT: usize = 120;
const IMPLICIT_TAU_HOOK_CUT: u64 = 100;

#[test]
fn implicit_tau_trajectories_match_their_golden_hashes() {
    let (crn, init) = stiff_motif();
    let compiled = CompiledCrn::new(&crn, &SimSpec::default());
    let mut runs = Runs::default();
    for (variant, seed) in IMPLICIT_TAU_VARIANTS.into_iter().zip(SEEDS) {
        let lane = Lane {
            compiled: compiled.clone(),
            schedule: stiff_schedule(&crn, variant, 4.0),
            seed,
            t_end: 10.0,
            variant,
        };
        let sink = Cell::new(SimMetrics::default());
        let hook = hook_for(variant);
        let result = Simulation::new(&crn, &lane.compiled)
            .init(&init)
            .schedule(&lane.schedule)
            .options(TauLeapImplicitOptions {
                base: TauLeapOptions {
                    base: options(&lane, &sink, &hook),
                    ..TauLeapOptions::default()
                },
                // a short cap makes every leap solve a Newton system
                tau_max: 0.05,
                ..TauLeapImplicitOptions::default()
            })
            .run();
        let m = sink.get();
        assert!(m.newton_iterations > 0, "{variant:?}: no Newton solve ran");
        runs.record(&result, m);
    }
    let report = format!("implicit tau: {:x?}", runs.hashes);
    assert_eq!(
        runs.outcomes,
        ["ok", "ok", "max_events", "hook"],
        "{report}"
    );
    assert_eq!(
        runs.hashes,
        [
            0x173b_1f7f_53d5_aef4,
            0x6f2d_8879_b290_be87,
            0xaade_2e96_84b4_acdb,
            0x74c2_3f5c_fb39_cde9,
        ],
        "implicit tau hashes moved; {report}"
    );
    assert!(runs.shapes.iter().all(|&s| s == (0, 0)), "{report}");
}

const HYBRID_VARIANTS: [Variant; 4] = [
    Variant::Plain,
    Variant::Injection,
    Variant::MaxEvents(HYBRID_STEP_CUT),
    Variant::Hook(HYBRID_HOOK_CUT),
];

/// The hybrid's budget variant cuts its fast (ODE) steps.
const HYBRID_STEP_CUT: usize = 200;
const HYBRID_HOOK_CUT: u64 = 150;

#[test]
fn hybrid_trajectories_match_their_golden_hashes() {
    let (crn, init) = stiff_motif();
    let compiled = CompiledCrn::new(&crn, &SimSpec::default());
    let mut runs = Runs::default();
    for (variant, seed) in HYBRID_VARIANTS.into_iter().zip(SEEDS) {
        let schedule = stiff_schedule(&crn, variant, 2.0);
        let sink = Cell::new(SimMetrics::default());
        let hook = hook_for(variant);
        let opts = HybridOptions::default()
            .with_t_end(4.0)
            .with_record_interval(0.05)
            .with_seed(seed)
            .with_metrics(&sink);
        let opts = match variant {
            Variant::MaxEvents(n) => opts.with_max_steps(n),
            Variant::Hook(_) => opts.with_step_hook(&hook),
            Variant::Plain | Variant::Injection => opts,
        };
        let result = Simulation::new(&crn, &compiled)
            .init(&init)
            .schedule(&schedule)
            .options(opts)
            .run();
        let m = sink.get();
        assert!(m.hybrid_fast_steps > 0, "{variant:?}: no fast step ran");
        runs.record(&result, m);
    }
    let report = format!("hybrid: {:x?}", runs.hashes);
    assert_eq!(
        runs.outcomes,
        ["ok", "ok", "max_events", "hook"],
        "{report}"
    );
    assert_eq!(
        runs.hashes,
        [
            0x4d3b_16c0_dd53_ade4,
            0xaf35_e16b_f7d2_7a37,
            0x0310_74bd_61b7_ca7e,
            0xd099_f446_654b_d664,
        ],
        "hybrid hashes moved; {report}"
    );
    assert!(runs.shapes.iter().all(|&s| s == (0, 0)), "{report}");
}
