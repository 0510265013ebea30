//! Simulator-engine benchmarks: integrator and stochastic-method
//! throughput on representative networks, plus the compiled-kernel costs
//! (derivative, Jacobian) as the network grows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use molseq_crn::Crn;
use molseq_kinetics::{CompiledCrn, OdeMethod, OdeOptions, SimSpec, Simulation, SsaOptions, State};
use molseq_sync::{Clock, DelayChain, SchemeConfig};

/// A delay chain of `n` elements with a staged wavefront — the scaling
/// workload.
fn chain_workload(n: usize) -> (Crn, State) {
    let chain = DelayChain::build(SchemeConfig::default(), n).expect("builds");
    let init = chain.initial_state(80.0, &vec![0.0; n]).expect("state");
    (chain.crn().clone(), init)
}

fn bench_integrators(c: &mut Criterion) {
    let mut group = c.benchmark_group("integrators");
    group.sample_size(10);
    let clock = Clock::build(SchemeConfig::default(), 100.0).expect("builds");
    let init = clock.initial_state();
    let compiled = CompiledCrn::new(clock.crn(), &SimSpec::default());

    for (name, method) in [
        (
            "rosenbrock",
            OdeMethod::Rosenbrock {
                rtol: 1e-6,
                atol: 1e-9,
            },
        ),
        (
            "cash_karp",
            OdeMethod::CashKarp {
                rtol: 1e-6,
                atol: 1e-9,
            },
        ),
    ] {
        group.bench_function(format!("clock_20tu_{name}"), |b| {
            b.iter(|| {
                Simulation::new(clock.crn(), &compiled)
                    .init(&init)
                    .options(OdeOptions::default().with_t_end(20.0).with_method(method))
                    .run()
                    .expect("simulates")
            });
        });
    }
    group.finish();
}

fn bench_stochastic(c: &mut Criterion) {
    let mut group = c.benchmark_group("stochastic");
    group.sample_size(10);
    let (crn, init) = chain_workload(2);
    let compiled = CompiledCrn::new(&crn, &SimSpec::default());
    let opts = SsaOptions::default().with_t_end(30.0).with_seed(1);

    group.bench_function("direct_chain2_30tu", |b| {
        b.iter(|| {
            Simulation::new(&crn, &compiled)
                .init(&init)
                .options(opts)
                .run()
                .expect("simulates")
        });
    });
    group.finish();
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels");
    for n in [1usize, 4, 8] {
        let (crn, init) = chain_workload(n);
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let x = init.as_slice().to_vec();
        let species = compiled.species_count();
        let mut dx = vec![0.0; species];
        group.bench_with_input(BenchmarkId::new("derivative", species), &n, |b, _| {
            b.iter(|| compiled.derivative(&x, &mut dx));
        });
        let mut jac = vec![0.0; species * species];
        group.bench_with_input(BenchmarkId::new("jacobian", species), &n, |b, _| {
            b.iter(|| compiled.jacobian(&x, &mut jac));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_integrators, bench_stochastic, bench_kernels);
criterion_main!(benches);
