//! Kinetics hot-path benchmarks: the headline workloads tracked in
//! `BENCH_kinetics.json`.
//!
//! Four workloads, chosen to exercise the deterministic kernel the way
//! the experiments do:
//!
//! * `clock_40tu` — the E1 chemical clock integrated for 40 time units
//!   (small network, long stiff limit cycle; dominated by step count);
//! * `counter_cycles/<bits>` — a multi-bit binary counter driven through
//!   a full pulse train by the cycle harness (the largest networks in the
//!   workspace; dominated by Jacobian/LU cost per step);
//! * `sweep_grid_32` — a 32-cell rate-ratio grid of the 2-tap
//!   moving-average filter on the sweep engine (the E6/PR-1 shape: many
//!   medium cells, compile-once/rebind-per-cell);
//! * `ssa_replicates_8` — an 8-replicate Gillespie run of the same
//!   filter (the E10 shape: one compiled network, many seeds).
//!
//! Run with `cargo bench -p molseq-bench --bench kinetics`. Record the
//! printed per-iteration means in `BENCH_kinetics.json` when the kernel
//! changes, so the perf trajectory stays visible across PRs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use molseq_bench::{filter_grid_units, ssa_replicate_units, FilterGridCell};
use molseq_crn::RateAssignment;
use molseq_dsp::moving_average;
use molseq_kinetics::{
    CompiledCrn, MetricsSink, OdeOptions, Replicator, Schedule, SimSpec, Simulation, SsaOptions,
    StepHook,
};
use molseq_sweep::{run_sweep, run_units, JobError, SweepJob, SweepOptions};
use molseq_sync::{
    drive_cycles, BinaryCounter, Clock, ClockSpec, CycleResources, RunConfig, SchemeConfig,
};

fn bench_clock(c: &mut Criterion) {
    let mut group = c.benchmark_group("kinetics");
    group.sample_size(10);
    let clock = Clock::build(SchemeConfig::default(), 100.0).expect("clock builds");
    let init = clock.initial_state();
    let compiled = CompiledCrn::new(clock.crn(), &SimSpec::default());
    group.bench_function("clock_40tu", |b| {
        b.iter(|| {
            Simulation::new(clock.crn(), &compiled)
                .init(&init)
                .options(OdeOptions::default().with_t_end(40.0))
                .run()
                .expect("clock simulates")
        });
    });
    group.finish();
}

fn bench_counter(c: &mut Criterion) {
    let mut group = c.benchmark_group("kinetics");
    group.sample_size(10);
    for bits in [2usize, 3, 4] {
        let counter =
            BinaryCounter::build(bits, 60.0, ClockSpec::default()).expect("counter builds");
        let pulses = vec![true, true, true, true, true, false];
        let samples = counter.pulse_train(&pulses);
        let cycles = samples.len() + 1;
        let species = counter.system().stats().species;
        group.bench_with_input(
            BenchmarkId::new("counter_cycles", format!("{bits}bits_{species}sp")),
            &bits,
            |b, _| {
                b.iter(|| {
                    drive_cycles(
                        counter.system(),
                        &[("pulse", &samples)],
                        cycles,
                        &RunConfig::default(),
                        CycleResources::default(),
                    )
                    .expect("counter runs")
                });
            },
        );
    }
    group.finish();
}

fn bench_sweep_grid(c: &mut Criterion) {
    let mut group = c.benchmark_group("kinetics");
    group.sample_size(10);
    let filter = moving_average(2, ClockSpec::default()).expect("filter builds");
    let base = CompiledCrn::new(filter.system().crn(), &SimSpec::default());
    let samples = [10.0, 50.0, 80.0];
    // 32 ratios spanning the robust regime, log-spaced 10^2..10^5
    let ratios: Vec<f64> = (0..32)
        .map(|i| 10f64.powf(2.0 + 3.0 * i as f64 / 31.0))
        .collect();
    group.bench_function("sweep_grid_32", |b| {
        b.iter(|| {
            let jobs: Vec<SweepJob<'_, f64>> = ratios
                .iter()
                .map(|&ratio| {
                    let (filter, base, samples) = (&filter, &base, &samples[..]);
                    SweepJob::new(format!("ratio={ratio:.1}"), move |_job| {
                        let spec = SimSpec::new(RateAssignment::from_ratio(ratio));
                        let measured = filter
                            .respond_with(samples, &RunConfig::default(), Some(&base.rebind(&spec)))
                            .map_err(JobError::failed)?;
                        Ok(measured.iter().sum())
                    })
                })
                .collect();
            let out = run_sweep(&jobs, &SweepOptions::default());
            assert_eq!(out.summary.succeeded, ratios.len());
            out
        });
    });
    // the same 32-cell grid through the lock-step batched path: 16 lanes
    // share one symbolic analysis and advance together, so the speedup
    // over `sweep_grid_32` is the headline number for the batched engine
    // (16 is the sweet spot on this grid — wider batches spill the
    // n²·width W block out of cache)
    let specs: Vec<FilterGridCell> = ratios
        .iter()
        .map(|&ratio| {
            (
                format!("ratio={ratio:.1}"),
                SimSpec::new(RateAssignment::from_ratio(ratio)),
                12.0,
            )
        })
        .collect();
    group.bench_function("sweep_grid_32_batched", |b| {
        b.iter(|| {
            let units =
                filter_grid_units(&filter, &base, &samples, &specs, 16, |_job, measured| {
                    Ok(measured.iter().sum::<f64>())
                });
            let out = run_units(&units, &SweepOptions::default().with_batch_width(16));
            assert_eq!(out.summary.succeeded, ratios.len());
            out
        });
    });
    group.finish();
}

/// Per-replicate SSA options for the stochastic arms: a mid-length
/// horizon on the 2-tap filter keeps one iteration in the seconds range
/// while still being event-dominated.
fn replicate_opts<'h>(seed: u64, hook: StepHook<'h>, sink: MetricsSink<'h>) -> SsaOptions<'h> {
    SsaOptions::default()
        .with_t_end(120.0)
        .with_record_interval(1.0)
        .with_seed(seed)
        .with_step_hook(hook)
        .with_metrics(sink)
}

fn bench_ssa_replicates(c: &mut Criterion) {
    let mut group = c.benchmark_group("kinetics");
    group.sample_size(10);
    let filter = moving_average(2, ClockSpec::default()).expect("filter builds");
    let crn = filter.system().crn();
    let compiled = CompiledCrn::new(crn, &SimSpec::default());
    let init = filter.system().initial_state();
    let samples: Vec<f64> = [1.0f64, 3.0, 2.0, 5.0, 4.0, 1.0]
        .iter()
        .map(|&k| (k / 5.0 * 10.0).round())
        .collect();
    let trigger = filter
        .system()
        .input_trigger("x", &samples)
        .expect("trigger builds");
    let schedule = Schedule::new().trigger(trigger);
    let rep = Replicator::new(&compiled, 101);
    group.bench_function("ssa_replicates_8", |b| {
        b.iter(|| {
            let units = ssa_replicate_units(
                crn,
                rep,
                &init,
                &schedule,
                replicate_opts,
                "rep",
                8,
                |_job, result| {
                    result
                        .map_err(JobError::failed)
                        .map(|t| t.final_state().iter().sum::<f64>())
                },
            );
            let out = run_units(&units, &SweepOptions::default());
            assert_eq!(out.summary.succeeded, 8);
            out
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_clock,
    bench_counter,
    bench_sweep_grid,
    bench_ssa_replicates
);
criterion_main!(benches);
