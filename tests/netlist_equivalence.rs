//! Golden equivalence for the netlist front-end: textual netlists must
//! compile to the *byte-identical* reaction systems their hand-built
//! module counterparts produce — same CRN text, same structural hash —
//! and therefore drive to bit-identical [`SyncRun`] traces, scalar and
//! batched.

use molseq::crn::RateAssignment;
use molseq::dsp::moving_average;
use molseq::kinetics::{CompiledCrn, OdeWorkspace, SimSpec};
use molseq::sync::{
    compile_netlist_source, drive_cycles, drive_cycles_batch, BatchCell, BinaryCounter, ClockSpec,
    CompiledSystem, CycleResources, Fsm, RunConfig, SyncRun,
};

const SEQDET_NL: &str = include_str!("../examples/netlists/seqdet.nl");
const COUNTER2_NL: &str = include_str!("../examples/netlists/counter2.nl");
const MAVG2_NL: &str = include_str!("../examples/netlists/mavg2.nl");

fn assert_same_system(netlist: &CompiledSystem, module: &CompiledSystem, what: &str) {
    assert_eq!(
        netlist.crn().to_string(),
        module.crn().to_string(),
        "{what}: CRN text differs"
    );
    assert_eq!(
        netlist.crn().structural_hash(),
        module.crn().structural_hash(),
        "{what}: structural hash differs"
    );
}

fn assert_same_run(a: &SyncRun, b: &SyncRun, system: &CompiledSystem, what: &str) {
    assert_eq!(a.sample_times(), b.sample_times(), "{what}: sample times");
    for name in system.register_names() {
        assert_eq!(
            a.register_series(name).expect("register in run a"),
            b.register_series(name).expect("register in run b"),
            "{what}: register `{name}` trace differs"
        );
    }
}

/// The ripple-counter netlist, generated for any width — the textual
/// counterpart of [`BinaryCounter::build`] at amplitude 60.
fn counter_netlist(bits: usize) -> String {
    let mut s = String::from("module counter {\n  input pulse\n  const K = 60\n");
    for i in 0..bits {
        let carry_in = if i == 0 {
            "pulse".to_owned()
        } else {
            format!("c{}", i - 1)
        };
        s.push_str(&format!(
            "  reg b{i}\n  wire s{i} = b{i} + {carry_in}\n  wire carry{i} = s{i} - K\n  \
             wire cc{i} = 2 * carry{i}\n  wire next{i} = s{i} - cc{i}\n  b{i} <= next{i}\n  \
             reg c{i}\n  c{i} <= carry{i}\n"
        ));
    }
    s.push_str(&format!("  output overflow = c{}\n}}\n", bits - 1));
    s
}

#[test]
fn counter_netlists_match_the_module_for_widths_2_3_4() {
    for bits in [2usize, 3, 4] {
        let text = counter_netlist(bits);
        let from_text =
            compile_netlist_source(&text, ClockSpec::default()).expect("netlist compiles");
        let module = BinaryCounter::build(bits, 60.0, ClockSpec::default()).expect("module builds");
        assert_same_system(&from_text, module.system(), &format!("{bits}-bit counter"));
    }
}

#[test]
fn counter2_example_file_matches_the_module() {
    let from_file =
        compile_netlist_source(COUNTER2_NL, ClockSpec::default()).expect("example compiles");
    let module = BinaryCounter::build(2, 60.0, ClockSpec::default()).expect("module builds");
    assert_same_system(&from_file, module.system(), "counter2.nl");
}

#[test]
fn seqdet_example_matches_the_fsm_and_its_trace() {
    let from_file =
        compile_netlist_source(SEQDET_NL, ClockSpec::default()).expect("example compiles");
    let fsm = Fsm::build(ClockSpec::default(), 60.0, &[[0, 1], [0, 2], [2, 2]], 0)
        .expect("module builds");
    assert_same_system(&from_file, fsm.system(), "seqdet.nl");

    // identical structure + deterministic ODE harness ⇒ identical traces
    let bits = [true, false, true, true, false];
    let samples = fsm.input_train(&bits);
    let run = |system: &CompiledSystem| {
        drive_cycles(
            system,
            &[("x", &samples)],
            bits.len(),
            &RunConfig::default(),
            CycleResources::default(),
        )
        .expect("runs")
    };
    let a = run(&from_file);
    let b = run(fsm.system());
    assert_same_run(&a, &b, fsm.system(), "seqdet trace");
    // and the machine still detects "11"
    let states: Vec<usize> = (0..bits.len())
        .map(|k| fsm.decode(&a, k).expect("decodes"))
        .collect();
    assert_eq!(states, vec![1, 0, 1, 2, 2]);
}

#[test]
fn mavg2_example_matches_the_filter_and_its_trace() {
    let from_file =
        compile_netlist_source(MAVG2_NL, ClockSpec::default()).expect("example compiles");
    let filter = moving_average(2, ClockSpec::default()).expect("module builds");
    assert_same_system(&from_file, filter.system(), "mavg2.nl");

    let samples = [10.0, 50.0, 80.0];
    let run = |system: &CompiledSystem| {
        drive_cycles(
            system,
            &[("x", &samples)],
            samples.len() + 1,
            &RunConfig::default(),
            CycleResources::default(),
        )
        .expect("runs")
    };
    assert_same_run(
        &run(&from_file),
        &run(filter.system()),
        filter.system(),
        "mavg2 trace",
    );
}

/// The batched lock-step engine sees the same bytes from both origins:
/// four rate-ratio cells of the netlist-compiled counter match the
/// module-compiled counter lane for lane.
#[test]
fn counter_batch_of_4_is_bitwise_identical_across_origins() {
    let from_text = compile_netlist_source(&counter_netlist(2), ClockSpec::default())
        .expect("netlist compiles");
    let module = BinaryCounter::build(2, 60.0, ClockSpec::default()).expect("module builds");

    let pulses = module.pulse_train(&[true, true, false]);
    let ratios = [100.0, 400.0, 1000.0, 4000.0];
    let batch = |system: &CompiledSystem| {
        let base = CompiledCrn::new(system.crn(), &SimSpec::default());
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
        drive_cycles_batch(system, &[("pulse", &pulses)], 4, &cells, &mut ws)
            .expect("batch runs")
            .into_iter()
            .map(|cell| cell.expect("cell runs"))
            .collect::<Vec<SyncRun>>()
    };

    let a = batch(&from_text);
    let b = batch(module.system());
    assert_eq!(a.len(), b.len());
    for (lane, (x, y)) in a.iter().zip(&b).enumerate() {
        assert_same_run(x, y, module.system(), &format!("counter batch lane {lane}"));
        assert_eq!(module.decode(x, 3).expect("decodes"), 2);
    }
}
