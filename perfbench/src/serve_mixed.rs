//! `serve_mixed`: a closed-loop traffic mix against an in-process server.
//!
//! Two tenants, each on its own thread and connection, keep one job in
//! flight against a `molseq-serve` instance with two workers and a
//! compiled-network cache bounded below the mix's distinct structures.
//! Most jobs are tiny one-cell SSA runs on one shared network; the rest
//! are netlist programs lowered on every submit (ODE), multi-cell SSA
//! and tau-leap jobs the server batches onto its lock-step lanes, hybrid
//! runs, the `repro --via-server` job with its rate-override cell, and
//! fresh structures that miss the cache. The mix is synthetic: see
//! [`BLOCK`] for where each class comes from and why it has its share.
//!
//! The job sequence is generated from the seed in blocks. Only tenant B
//! submits fresh structures, and only after it has touched every shared
//! structure since its previous fresh one, so the least-recently-used
//! entry at every fresh insert is the previous fresh structure: cache
//! hits, misses and evictions are the same whatever order the two
//! tenants' requests interleave in.

use crate::bench::{ms, peak_rss_mb, repeat_setup, Outcome, Phase, Rng, WARM_UP_SEED};
use crate::circuits::{Circuit, Kind, AMPLITUDE, COUNTER2_NL, SEQDET_NL};
use crate::kernels::{self, KernelTimes};
use crate::layers::{assemble, LayerInputs, ServeFigures, Work};
use crate::stats::{min_samples, Sample};
use crate::trace::{self, span};
use molseq_crn::Crn;
use molseq_kinetics::{CompiledCrn, SimMetrics, SimSpec, Simulation, SsaOptions, State};
use molseq_serve::{
    CellRow, CellSpec, Client, Method, Program, Request, Server, ServerConfig, SubmitRequest,
};
use molseq_sweep::JobStatus;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// The shared decay network of the tiny and `repro --via-server` jobs.
const DECAY: &str = "X -> Y @slow";
/// The shared network of the batched SSA and tau-leap jobs.
const DIMER: &str = "A + B -> C @slow\nC -> A + B @slow";
/// The hybrid jobs' network: a fast birth feeding slow consumption.
const HYBRID: &str = "0 -> R @fast\nR + X -> X @slow\nX -> Y @slow";

/// Structures every tenant shares (decay, dimer, hybrid, seqdet,
/// counter2); the cache holds these plus one fresh structure.
const SHARED_STRUCTURES: usize = 5;

/// Jobs in one block of a tenant's sequence.
const BLOCK_JOBS: usize = {
    let mut n = 0;
    let mut i = 0;
    while i < BLOCK.len() {
        n += BLOCK[i].1;
        i += 1;
    }
    n
};

/// Jobs per tenant whose counts form the exact per-layer figures.
const PASS_JOBS: usize = 2 * BLOCK_JOBS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Tiny,
    Override,
    LanesSsa,
    LanesTau,
    Hybrid,
    SeqDet,
    Counter2,
    Fresh,
}

impl Class {
    fn name(self) -> &'static str {
        match self {
            Class::Tiny => "tiny",
            Class::Override => "override",
            Class::LanesSsa => "lanes_ssa",
            Class::LanesTau => "lanes_tau",
            Class::Hybrid => "hybrid",
            Class::SeqDet => "seqdet",
            Class::Counter2 => "counter2",
            Class::Fresh => "fresh",
        }
    }
}

/// One block of a tenant's sequence, shuffled per block. Tenant B's
/// block swaps one tiny job for a fresh structure, placed last.
///
/// The mix is synthetic; no recorded client traffic exists to take
/// shares from. The in-repo clients send the shapes of some classes:
/// `repro --via-server` sends the [`Class::Override`] job (eight
/// replicate cells and one rate-override cell on the decay network) and
/// its hybrid variant, and `netlist_run` sends single netlist jobs. The
/// tiny jobs are that client's job cut to one cell: the served path with
/// the least simulation in it, where parse, queueing and fetch dominate.
/// The shares are chosen so that:
///
/// * the median lies inside the fast classes (tiny, the client job, SSA
///   lanes, hybrid and fresh: 72 % of the jobs, tiny alone 62 %), away
///   from any boundary;
/// * the 80th percentile lies inside the slow classes (netlist ODE and
///   tau lanes, the slowest 28 %), 8 points above their lower edge;
/// * the tau lanes carry about a seventh of the summed job time, so a
///   change in the lock-step engines shows in the throughput; the netlist
///   jobs carry about four fifths.
///
/// The report prints each class's measured share of jobs and of job
/// time.
const BLOCK: [(Class, usize); 8] = [
    (Class::Tiny, 31),
    (Class::Override, 2),
    (Class::LanesSsa, 2),
    (Class::LanesTau, 3),
    (Class::Hybrid, 1),
    (Class::SeqDet, 6),
    (Class::Counter2, 5),
    (Class::Fresh, 0),
];

/// Cells the server batches together when a job names no width.
const AUTO_BATCH_CAP: usize = 8;

struct Job {
    class: Class,
    request: SubmitRequest,
    /// Molecules the decay-type networks must conserve.
    conserved: Option<f64>,
}

fn cells(n: usize) -> Vec<CellSpec> {
    (0..n)
        .map(|i| CellSpec {
            label: format!("cell={i}"),
            k_fast: None,
            k_slow: None,
        })
        .collect()
}

fn job(class: Class, tenant: &str, rng: &mut Rng) -> Job {
    let mut request = SubmitRequest {
        tenant: tenant.to_owned(),
        program: Program::Crn(DECAY.to_owned()),
        init: Vec::new(),
        method: Method::Ssa,
        t_end: 1.0,
        record_interval: None,
        seed: rng.next_u64() >> 12,
        injections: Vec::new(),
        batch: None,
        cells: Vec::new(),
    };
    let mut conserved = None;
    match class {
        Class::Tiny => {
            let x = (20 + rng.below(21)) as f64;
            let dose = (1 + rng.below(10)) as f64;
            request.init = vec![("X".into(), x)];
            request.injections = vec![(0.5, "X".into(), dose)];
            request.t_end = 2.0;
            request.cells = cells(1);
            conserved = Some(x + dose);
        }
        Class::Override => {
            // `repro --via-server`'s job: eight replicates and one cell
            // with its own rates. The client runs to t_end 1e4, which at
            // the default record interval keeps 1e5 points per cell, long
            // after the last molecule has decayed; those transient traces
            // would set the peak RSS by whether the two tenants' client
            // jobs overlap. By t = 20 the decay is over.
            let x = (20 + rng.below(21)) as f64;
            let dose = (1 + rng.below(10)) as f64;
            request.init = vec![("X".into(), x)];
            request.injections = vec![(1.0, "X".into(), dose)];
            request.t_end = 20.0;
            request.cells = cells(8);
            request.cells.push(CellSpec {
                label: "k=500/2".to_owned(),
                k_fast: Some(500.0),
                k_slow: Some(2.0),
            });
            conserved = Some(x + dose);
        }
        Class::LanesSsa | Class::LanesTau => {
            request.program = Program::Crn(DIMER.to_owned());
            // tau-leaping only leaps at counts where a leap spans many
            // exact events; its horizon makes a job take tens of ms
            let a = if class == Class::LanesTau {
                request.method = Method::Tau;
                request.t_end = 16.0;
                (1000 + rng.below(401)) as f64
            } else {
                request.t_end = 2.0;
                (80 + rng.below(41)) as f64
            };
            request.init = vec![("A".into(), a), ("B".into(), a)];
            request.cells = cells(4 + rng.below(5) as usize);
        }
        Class::Hybrid => {
            request.program = Program::Crn(HYBRID.to_owned());
            request.method = Method::Hybrid;
            request.init = vec![("X".into(), (16 + rng.below(33)) as f64)];
            request.t_end = 2.0;
            request.record_interval = Some(0.25);
            request.cells = cells(1 + rng.below(2) as usize);
        }
        Class::SeqDet | Class::Counter2 => {
            let src = if class == Class::SeqDet {
                SEQDET_NL
            } else {
                COUNTER2_NL
            };
            request.program = Program::Netlist(src.to_owned());
            request.method = Method::Ode;
            request.t_end = 2.0 + rng.unit();
            request.cells = cells(1);
        }
        Class::Fresh => {
            // a chain under a prefix no other job uses: a new structure
            let prefix = format!("F{:x}", rng.next_u64() >> 16);
            let stages = 3 + rng.below(6) as usize;
            let text: String = (0..stages)
                .map(|i| format!("{prefix}_{i} -> {prefix}_{} @slow\n", i + 1))
                .collect();
            let x = (20 + rng.below(21)) as f64;
            request.program = Program::Crn(text);
            request.init = vec![(format!("{prefix}_0"), x)];
            request.t_end = 2.0;
            request.cells = cells(1);
            conserved = Some(x);
        }
    }
    Job {
        class,
        request,
        conserved,
    }
}

/// Tenant `which`'s `block`-th block of jobs.
fn block(seed: u64, which: usize, block: usize) -> Vec<Job> {
    let tenant = ["tenant-a", "tenant-b"][which];
    let mut rng = Rng::new(seed, ((block as u64) << 1) | which as u64);
    let mut classes: Vec<Class> = BLOCK
        .iter()
        .flat_map(|&(class, n)| std::iter::repeat_n(class, n))
        .collect();
    // Fisher-Yates
    for i in (1..classes.len()).rev() {
        classes.swap(i, rng.below(i as u64 + 1) as usize);
    }
    if which == 1 {
        let tiny = classes
            .iter()
            .rposition(|&c| c == Class::Tiny)
            .expect("a block holds tiny jobs");
        classes.remove(tiny);
        classes.push(Class::Fresh);
    }
    classes
        .into_iter()
        .map(|class| job(class, tenant, &mut rng))
        .collect()
}

/// What one completed job looked like from the client.
struct Done {
    class: Class,
    latency_ms: f64,
    submit_ms: f64,
    first_row_ms: f64,
    fetches: usize,
    /// The rows; kept past the check only for the first pass.
    rows: Vec<CellRow>,
}

/// Submits `job` and streams its rows back, timing each step.
fn roundtrip(client: &mut Client, job: &Job, id: u64) -> Result<Done, String> {
    let jid = Some(id);
    let started = Instant::now();
    let ack = span("serve.submit", jid, || client.submit(&job.request))
        .map_err(|e| format!("{} job refused: {e}", job.class.name()))?;
    let acked = Instant::now();
    let mut rows: Vec<CellRow> = Vec::new();
    let mut first_row = None;
    let mut fetches = 0;
    loop {
        let page = span("serve.fetch", jid, || {
            client.fetch(&ack.job_id, rows.len(), true)
        })
        .map_err(|e| format!("{} job fetch failed: {e}", job.class.name()))?;
        fetches += 1;
        if first_row.is_none() && !page.rows.is_empty() {
            first_row = Some(acked.elapsed());
        }
        rows.extend(page.rows);
        if page.done && rows.len() >= page.next {
            break;
        }
    }
    let latency_ms = ms(started.elapsed());
    Ok(Done {
        class: job.class,
        latency_ms,
        submit_ms: ms(acked - started),
        first_row_ms: first_row.map_or(latency_ms, ms),
        fetches,
        rows,
    })
}

/// Every row Ok, the right number of them, and the decay-type networks
/// conserve their molecules.
fn check(job: &Job, done: &Done) -> Result<(), String> {
    let name = job.class.name();
    if done.rows.len() != job.request.cells.len() {
        return Err(format!(
            "{name}: {} rows for {} cells",
            done.rows.len(),
            job.request.cells.len()
        ));
    }
    for row in &done.rows {
        if row.status != JobStatus::Ok {
            return Err(format!(
                "{name} row {}: {:?} {}",
                row.index, row.status, row.detail
            ));
        }
        if let Some(total) = job.conserved {
            let sum: f64 = row.final_state.iter().sum();
            if sum != total {
                return Err(format!(
                    "{name} row {}: {sum} molecules, {total} conserved",
                    row.index
                ));
            }
        }
    }
    Ok(())
}

fn metric(row: &CellRow, name: &str) -> f64 {
    row.metrics
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v)
}

struct Prepared {
    server: Server,
    clients: Vec<Client>,
    /// The netlist programs, lowered client-side.
    circuits: Vec<Circuit>,
}

fn boot() -> Result<Prepared, String> {
    // client-side validation of the netlist programs, as `repro
    // --netlist` does before it submits them
    let circuits = vec![
        Circuit::from_netlist("seqdet", Kind::SeqDet, AMPLITUDE, SEQDET_NL)?,
        Circuit::from_netlist("counter2", Kind::Counter(2), AMPLITUDE, COUNTER2_NL)?,
    ];
    let server = Server::start(
        ServerConfig::default()
            .with_workers(2)
            .with_cache_capacity(SHARED_STRUCTURES + 1),
    )
    .map_err(|e| format!("server does not start: {e}"))?;
    let clients = (0..2)
        .map(|_| Client::connect(server.addr()).map_err(|e| format!("cannot connect: {e}")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut prep = Prepared {
        server,
        clients,
        circuits,
    };
    // warm-up: one job of every class, fresh last so the cache ends the
    // set-up holding every shared structure and one fresh one
    let mut rng = Rng::new(WARM_UP_SEED, 0);
    let classes = BLOCK.iter().map(|&(c, _)| c);
    for (i, class) in classes.enumerate() {
        let j = job(class, "tenant-b", &mut rng);
        let done = trace::paused(|| roundtrip(&mut prep.clients[1], &j, i as u64))?;
        check(&j, &done)?;
    }
    Ok(prep)
}

fn stop(prep: Prepared) {
    drop(prep.clients);
    prep.server.shutdown();
    prep.server.join();
}

/// Per-tenant results of one measured phase.
#[derive(Default)]
struct TenantLog {
    done: Vec<Done>,
    pass_rows: Vec<(Class, Vec<CellRow>)>,
}

/// One measured phase of the mix.
struct Measured {
    phase: Phase,
    logs: Vec<TenantLog>,
    /// Server counter deltas over the first pass.
    pass_counters: Vec<(String, f64)>,
}

/// What both tenant threads share.
#[derive(Clone, Copy)]
struct Pace<'a> {
    seed: u64,
    deadline: Instant,
    min_jobs: usize,
    barrier: &'a Barrier,
    total: &'a AtomicUsize,
}

/// One tenant's closed loop: its blocks of jobs in order, one in flight,
/// waiting twice at the barrier after [`PASS_JOBS`] so the main thread
/// can read the server counters in between.
fn tenant(which: usize, client: &mut Client, pace: Pace<'_>) -> Result<TenantLog, String> {
    let mut log = TenantLog::default();
    let mut failure = None;
    for blk in 0.. {
        for (k, j) in block(pace.seed, which, blk).iter().enumerate() {
            let index = blk * BLOCK_JOBS + k;
            if index == PASS_JOBS {
                pace.barrier.wait();
                pace.barrier.wait();
            }
            // after a failure, still walk up to the barrier so the other
            // threads are not left waiting
            if failure.is_none() {
                let id = ((which as u64) << 32) | index as u64;
                match roundtrip(client, j, id).and_then(|d| check(j, &d).map(|()| d)) {
                    Ok(mut done) => {
                        let rows = std::mem::take(&mut done.rows);
                        if index < PASS_JOBS {
                            log.pass_rows.push((j.class, rows));
                        }
                        log.done.push(done);
                        pace.total.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => failure = Some(e),
                }
            }
            let finished = index >= PASS_JOBS
                && (failure.is_some()
                    || (Instant::now() >= pace.deadline
                        && pace.total.load(Ordering::Relaxed) >= pace.min_jobs));
            if finished {
                return failure.map_or(Ok(log), Err);
            }
        }
    }
    unreachable!("the block loop only ends by returning")
}

/// Runs both tenants until `seconds` have passed and at least
/// `min_jobs` are done in total, pausing once after [`PASS_JOBS`] each so
/// the server counters can be read at a point that does not depend on
/// timing.
fn measure(
    prep: &mut Prepared,
    seed: u64,
    seconds: f64,
    min_jobs: usize,
) -> Result<Measured, String> {
    let before = prep.server.counters();
    let barrier = Barrier::new(3);
    let total = AtomicUsize::new(0);
    let pass_counters = Mutex::new(Vec::new());
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let (a, b) = prep.clients.split_at_mut(1);
    let (results, pass_rss_mb): (Vec<Result<TenantLog, String>>, _) = std::thread::scope(|scope| {
        let pace = Pace {
            seed,
            deadline,
            min_jobs,
            barrier: &barrier,
            total: &total,
        };
        let ha = scope.spawn(move || tenant(0, &mut a[0], pace));
        let hb = scope.spawn(move || tenant(1, &mut b[0], pace));
        barrier.wait();
        *pass_counters.lock().expect("counter snapshot poisoned") = prep.server.counters();
        let rss = peak_rss_mb();
        barrier.wait();
        let logs = vec![
            ha.join().expect("tenant thread panicked"),
            hb.join().expect("tenant thread panicked"),
        ];
        (logs, rss)
    });
    let wall_s = started.elapsed().as_secs_f64();
    let logs = results.into_iter().collect::<Result<Vec<_>, _>>()?;
    let mut phase = Phase {
        wall_s,
        pass_rss_mb,
        ..Phase::default()
    };
    for done in logs.iter().flat_map(|l| &l.done) {
        phase.ops.push(Sample {
            value: done.latency_ms,
            class: done.class.name(),
        });
    }
    let pass = pass_counters
        .into_inner()
        .expect("counter snapshot poisoned");
    let delta = pass
        .iter()
        .map(|(name, v)| {
            let old = before
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, o)| *o);
            (name.clone(), v - old)
        })
        .collect();
    Ok(Measured {
        phase,
        logs,
        pass_counters: delta,
    })
}

/// Resubmits the first job of every class in tenant A's first block and
/// checks the rows come back byte-identical.
fn check_resubmission(prep: &mut Prepared, seed: u64, logs: &[TenantLog]) -> Result<usize, String> {
    let jobs = block(seed, 0, 0);
    let mut checked = 0;
    for (k, j) in jobs.iter().enumerate() {
        if jobs[..k].iter().any(|o| o.class == j.class) {
            continue;
        }
        let render = |rows: &[CellRow]| {
            let mut out = String::new();
            for row in rows {
                row.to_json().render_compact(&mut out);
                out.push('\n');
            }
            out
        };
        let first = render(&logs[0].pass_rows[k].1);
        let again = roundtrip(&mut prep.clients[0], j, u64::MAX)?;
        if render(&again.rows) != first {
            return Err(format!(
                "{}: resubmitted job returned different rows",
                j.class.name()
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

fn counter(counters: &[(String, f64)], name: &str) -> u64 {
    counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0.0, |(_, v)| *v) as u64
}

fn figures(
    logs: &[TenantLog],
    pass_counters: &[(String, f64)],
    parse: (f64, usize),
) -> (ServeFigures, Work) {
    let done: Vec<&Done> = logs.iter().flat_map(|l| &l.done).collect();
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let (miss, hit): (Vec<&&Done>, Vec<&&Done>) =
        done.iter().partition(|d| d.class == Class::Fresh);
    let mut work = Work::default();
    let (mut fill_sum, mut groups) = (0.0, 0usize);
    for (class, rows) in logs.iter().flat_map(|l| &l.pass_rows) {
        for row in rows {
            work.add(&SimMetrics {
                ode_steps_accepted: metric(row, "ode_steps_accepted") as u64,
                ode_steps_rejected: metric(row, "ode_steps_rejected") as u64,
                lu_factorizations: metric(row, "lu_factorizations") as u64,
                ssa_events: metric(row, "ssa_events") as u64,
                tau_leaps: metric(row, "tau_leaps") as u64,
                hybrid_slow_events: metric(row, "hybrid_slow_events") as u64,
                lanes_retired: metric(row, "lanes_retired") as u64,
                ..SimMetrics::default()
            });
        }
        if !matches!(class, Class::LanesSsa | Class::LanesTau | Class::Override) {
            continue;
        }
        // the server cuts a job into consecutive groups of the auto width
        for group in rows.chunks(rows.len().min(AUTO_BATCH_CAP)) {
            let lane = |r: &CellRow| metric(r, "ssa_events") + metric(r, "tau_leaps");
            let longest = group.iter().map(lane).fold(0.0, f64::max);
            if group.len() > 1 && longest > 0.0 {
                fill_sum += group.iter().map(lane).sum::<f64>() / (group.len() as f64 * longest);
                groups += 1;
            }
        }
    }
    let figures = ServeFigures {
        parse_us: parse.0,
        parse_n: parse.1,
        submit_ms: mean(&hit.iter().map(|d| d.submit_ms).collect::<Vec<_>>()),
        submit_n: hit.len(),
        submit_miss_ms: mean(&miss.iter().map(|d| d.submit_ms).collect::<Vec<_>>()),
        submit_miss_n: miss.len(),
        first_row_ms: mean(&done.iter().map(|d| d.first_row_ms).collect::<Vec<_>>()),
        fetch_calls: mean(&done.iter().map(|d| d.fetches as f64).collect::<Vec<_>>()),
        jobs: done.len(),
        cache_hits: counter(pass_counters, "cache_hits"),
        cache_misses: counter(pass_counters, "cache_misses"),
        cache_evictions: counter(pass_counters, "cache_evictions"),
        lane_fill: fill_sum / groups.max(1) as f64,
        lane_groups: groups,
    };
    (figures, work)
}

/// Mean `Request::parse` time over the submit lines of the first pass.
fn time_parse(seed: u64) -> Result<(f64, usize), String> {
    let blocks = PASS_JOBS / BLOCK_JOBS;
    let lines: Vec<String> = (0..2)
        .flat_map(|which| (0..blocks).flat_map(move |blk| block(seed, which, blk)))
        .map(|j| Request::Submit(Box::new(j.request)).to_line())
        .collect();
    let started = Instant::now();
    for line in &lines {
        span("serve.parse", None, || {
            Request::parse(std::hint::black_box(line))
        })
        .map_err(|e| format!("own submit line does not parse: {e}"))?;
    }
    Ok((
        started.elapsed().as_secs_f64() * 1e6 / lines.len() as f64,
        lines.len(),
    ))
}

/// Mean `CompiledCrn::new` time over the fresh structures of the first
/// pass: the compile a cache miss adds to its submit.
fn time_compile(seed: u64) -> Result<(), String> {
    for blk in 0..PASS_JOBS / BLOCK_JOBS {
        for j in block(seed, 1, blk)
            .into_iter()
            .filter(|j| j.class == Class::Fresh)
        {
            let Program::Crn(text) = &j.request.program else {
                unreachable!("fresh structures are reaction text")
            };
            let crn: Crn = text.parse().map_err(|e| format!("fresh structure: {e}"))?;
            span("kinetics.compile", None, || {
                CompiledCrn::new(&crn, &SimSpec::default())
            });
        }
    }
    Ok(())
}

/// Kernel timings on the mix's shared networks, at states from one
/// local SSA run of each.
fn kernel_times(circuits: &[Circuit]) -> Result<KernelTimes, String> {
    let mut times = Vec::new();
    for (text, init) in [
        (DECAY, vec![("X", 30.0)]),
        (DIMER, vec![("A", 100.0), ("B", 100.0)]),
    ] {
        let crn: Crn = text.parse().map_err(|e| format!("{e}"))?;
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut state = State::new(&crn);
        for (name, v) in init {
            state.set(crn.find_species(name).expect("species of the text"), v);
        }
        let trace = Simulation::new(&crn, &compiled)
            .init(&state)
            .options(SsaOptions::default().with_t_end(2.0).with_seed(1))
            .run()
            .map_err(|e| format!("{e}"))?;
        times.push(kernels::time_kernels(
            &compiled,
            &kernels::sample_states(&trace),
        ));
    }
    for c in circuits {
        let compiled = CompiledCrn::new(c.system.crn(), &SimSpec::default());
        let init = c.system.initial_state();
        let x: Vec<f64> = (0..c.species())
            .map(|i| init.get(molseq_crn::SpeciesId::from_index(i)))
            .collect();
        times.push(kernels::time_kernels(&compiled, &[x]));
    }
    Ok(kernels::mean(&times))
}

/// Runs the workload.
///
/// # Errors
///
/// A refused submission, a row not Ok, or a failed output check.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let (setup_s, mut prep) = repeat_setup(traced, boot, stop)?;
    let setup_spans = trace::take();
    let mut notes = Vec::new();
    let min_jobs = min_samples(80.0);
    let result: Result<Outcome, String> = (|| {
        if !traced {
            let Measured { phase, logs, .. } = measure(&mut prep, seed, seconds, min_jobs)?;
            let n = check_resubmission(&mut prep, seed, &logs)?;
            notes.push(format!("{n} resubmitted jobs returned byte-identical rows"));
            return Ok(Outcome {
                setup_s: setup_s.clone(),
                phase,
                ..Outcome::default()
            });
        }
        let plain = measure(&mut prep, seed, seconds / 2.0, 0)?.phase;
        trace::set_enabled(true);
        let Measured {
            phase,
            logs,
            pass_counters,
        } = measure(&mut prep, seed, seconds / 2.0, 0)?;
        let parse = time_parse(seed)?;
        time_compile(seed)?;
        trace::set_enabled(false);
        let n = check_resubmission(&mut prep, seed, &logs)?;
        notes.push(format!("{n} resubmitted jobs returned byte-identical rows"));
        let (serve, pass) = figures(&logs, &pass_counters, parse);
        let kernels = kernel_times(&prep.circuits)?;
        let mut spans = setup_spans.clone();
        spans.extend(trace::take());
        let inputs = LayerInputs {
            spans,
            species: prep.circuits.iter().map(|c| c.species() as u64).sum(),
            reactions: prep.circuits.iter().map(|c| c.reactions() as u64).sum(),
            pass,
            traced: pass,
            kernels: Some(kernels),
            serve: Some(serve),
            overhead_pct: 100.0 * (plain.ops_per_s() / phase.ops_per_s() - 1.0),
        };
        Ok(Outcome {
            setup_s: setup_s.clone(),
            layers: assemble(&inputs),
            spans: inputs.spans,
            phase,
            ..Outcome::default()
        })
    })();
    stop(prep);
    let mut outcome = result?;
    outcome.notes = notes;
    Ok(outcome)
}
