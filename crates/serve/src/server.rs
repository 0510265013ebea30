//! The server: a TCP accept loop, a persistent worker pool, the job
//! table, the compiled-CRN cache, and per-tenant admission control.
//!
//! Every simulation cell runs through [`molseq_sweep::run_cell`] — the
//! exact engine `run_sweep` uses, with the same seed derivation and fault
//! isolation — so the rows a job streams back are bit-identical to an
//! in-process sweep of the same request, whatever the worker count.

use crate::protocol::{check_horizon, CellRow, CellSpec, Method, Program, Request, SubmitRequest};
use molseq_crn::{Crn, RateAssignment};
use molseq_kinetics::{
    run_ode_batch, BatchLane, BatchedOdeWorkspace, CompiledCache, CompiledCrn, HybridOptions,
    OdeOptions, Schedule, SimError, SimMetrics, SimSpec, Simulation, SsaOptions, State,
    TauLeapOptions,
};
use molseq_sweep::{
    run_cell, run_group, CancelToken, CellOutcome, CellResult, GroupJob, JobBudget, JobCtx,
    JobError, JobStatus, JsonValue, SweepJob, SweepOptions,
};
use std::cell::Cell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// How long a `fetch` with `wait: true` blocks before replying with
/// whatever rows are ready, so a stalled job cannot wedge a connection.
const FETCH_WAIT_CAP: Duration = Duration::from_secs(30);

/// Per-tenant limits: how many jobs the tenant may have in flight and
/// the [`JobBudget`] every cell of its jobs runs under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantPolicy {
    /// Submissions beyond this many unfinished jobs are rejected.
    pub max_inflight: usize,
    /// The per-cell budget (step budgets are deterministic; wall budgets
    /// are machine-dependent and break byte-reproducibility).
    pub budget: JobBudget,
}

impl Default for TenantPolicy {
    /// Four jobs in flight, unlimited budget.
    fn default() -> Self {
        TenantPolicy {
            max_inflight: 4,
            budget: JobBudget::unlimited(),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    addr: String,
    workers: usize,
    cache_capacity: Option<usize>,
    default_policy: TenantPolicy,
    tenant_policies: Vec<(String, TenantPolicy)>,
    fault_label: Option<String>,
}

impl Default for ServerConfig {
    /// An ephemeral local port, one worker per hardware thread, an
    /// unbounded compiled-CRN cache, the default [`TenantPolicy`] for
    /// every tenant.
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 0,
            cache_capacity: None,
            default_policy: TenantPolicy::default(),
            tenant_policies: Vec::new(),
            fault_label: None,
        }
    }
}

impl ServerConfig {
    /// Sets the bind address (builder style). Port `0` picks an
    /// ephemeral port; read the real one from [`Server::addr`].
    #[must_use]
    pub fn with_addr(mut self, addr: impl Into<String>) -> Self {
        self.addr = addr.into();
        self
    }

    /// Sets the worker-thread count (builder style); `0` means one per
    /// available hardware thread.
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Bounds the compiled-CRN cache to `capacity` stored structures
    /// (builder style); the least-recently-used entry is evicted to admit
    /// a new one. The default is an unbounded cache. Eviction only costs
    /// recompilation time — a re-admitted structure compiles
    /// bit-identically — so results never depend on the bound.
    ///
    /// # Panics
    ///
    /// When `capacity` is zero (see [`CompiledCache::with_capacity`]).
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be at least 1");
        self.cache_capacity = Some(capacity);
        self
    }

    /// Sets the policy applied to tenants without an explicit override
    /// (builder style).
    #[must_use]
    pub fn with_default_policy(mut self, policy: TenantPolicy) -> Self {
        self.default_policy = policy;
        self
    }

    /// Overrides the policy for one named tenant (builder style).
    #[must_use]
    pub fn with_tenant_policy(mut self, tenant: impl Into<String>, policy: TenantPolicy) -> Self {
        self.tenant_policies.push((tenant.into(), policy));
        self
    }

    /// Deliberate fault injection for acceptance tests (builder style):
    /// a worker that finishes a work unit containing a cell with this
    /// exact label panics **while holding the job's progress lock** — the
    /// worst-case poisoning failure a real panic could produce. The
    /// server must keep serving every other tenant and surface the
    /// wounded job as `Failed` rather than wedging its fetchers.
    #[must_use]
    pub fn with_fault_injection(mut self, label: impl Into<String>) -> Self {
        self.fault_label = Some(label.into());
        self
    }

    fn policy_for(&self, tenant: &str) -> TenantPolicy {
        self.tenant_policies
            .iter()
            .rev()
            .find(|(name, _)| name == tenant)
            .map_or(self.default_policy, |(_, policy)| *policy)
    }

    fn resolved_workers(&self) -> usize {
        if self.workers == 0 {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        } else {
            self.workers
        }
    }
}

/// Everything the server validated out of a submission; workers only
/// read it.
struct JobPlan {
    crn: Crn,
    init: State,
    schedule: Schedule,
    method: Method,
    t_end: f64,
    record_interval: Option<f64>,
    /// Resolved cells per queue unit (1 = one cell per unit). ODE, SSA
    /// and tau-leap jobs group (ODE units as lock-step lanes); hybrid jobs
    /// are always one cell per unit.
    batch: usize,
    cells: Vec<PlanCell>,
}

/// One planned cell: its label and its (possibly rebound) compile.
struct PlanCell {
    label: String,
    compiled: Arc<CompiledCrn>,
}

/// A job's mutable progress, guarded by the entry's mutex.
struct JobProgress {
    rows: Vec<Option<CellRow>>,
    completed: usize,
    finished: bool,
    cancel_requested: bool,
}

struct JobEntry {
    id: String,
    tenant: String,
    plan: JobPlan,
    opts: SweepOptions,
    cancel: CancelToken,
    progress: Mutex<JobProgress>,
    progressed: Condvar,
}

#[derive(Default)]
struct Counters {
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_cancelled: AtomicU64,
    tenant_rejections: AtomicU64,
    cells_ok: AtomicU64,
    cells_failed: AtomicU64,
    cells_panicked: AtomicU64,
    cells_budget_exceeded: AtomicU64,
    cells_cancelled: AtomicU64,
    running_cells: AtomicU64,
}

struct Shared {
    config: ServerConfig,
    cache: CompiledCache,
    /// Work units `(job, first cell index, cell count)`: one cell for
    /// width-1 jobs, a run of consecutive cells otherwise.
    queue: Mutex<VecDeque<(Arc<JobEntry>, usize, usize)>>,
    queue_ready: Condvar,
    jobs: Mutex<HashMap<String, Arc<JobEntry>>>,
    inflight: Mutex<HashMap<String, usize>>,
    rejections: Mutex<BTreeMap<String, u64>>,
    counters: Counters,
    shutdown: AtomicBool,
    next_job: AtomicU64,
}

/// A running batch-simulation server.
///
/// Dropping the handle does **not** stop the server; call
/// [`shutdown`](Self::shutdown) (or send the wire `shutdown` op) and then
/// [`join`](Self::join).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the configured address, spawns the worker pool and the
    /// accept loop, and returns immediately.
    ///
    /// # Errors
    ///
    /// Any [`io::Error`] from binding the listener.
    pub fn start(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let worker_count = config.resolved_workers();
        let cache = config
            .cache_capacity
            .map_or_else(CompiledCache::new, CompiledCache::with_capacity);
        let shared = Arc::new(Shared {
            config,
            cache,
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            rejections: Mutex::new(BTreeMap::new()),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
        });
        let workers = (0..worker_count)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let accept = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || accept_loop(&listener, &shared))
        };
        Ok(Server {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The address the server is actually listening on (resolves an
    /// ephemeral port request).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A sorted snapshot of the server counters — the same data the wire
    /// `stats` op returns.
    #[must_use]
    pub fn counters(&self) -> Vec<(String, f64)> {
        snapshot_counters(&self.shared)
    }

    /// Asks the server to stop: no new connections, workers drain the
    /// queue and exit. Idempotent; the wire `shutdown` op does the same.
    pub fn shutdown(&self) {
        begin_shutdown(&self.shared, self.addr);
    }

    /// Waits for the accept loop and every worker to exit. Call after
    /// [`shutdown`](Self::shutdown) (or after a client sent the wire
    /// `shutdown` op).
    pub fn join(mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn begin_shutdown(shared: &Shared, addr: SocketAddr) {
    shared.shutdown.store(true, Ordering::Release);
    shared.queue_ready.notify_all();
    // the accept loop blocks in `incoming`; poke it awake so it can
    // observe the flag
    let _ = TcpStream::connect(addr);
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let addr = listener.local_addr().ok();
    for stream in listener.incoming() {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let shared = Arc::clone(shared);
        // connection threads are detached: they exit when the client
        // disconnects, and the process exits once `join` returns
        thread::spawn(move || {
            let _ = serve_connection(stream, &shared, addr);
        });
    }
}

fn serve_connection(
    stream: TcpStream,
    shared: &Shared,
    addr: Option<SocketAddr>,
) -> io::Result<()> {
    let mut writer = stream.try_clone()?;
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (response, is_shutdown) = match Request::parse(&line) {
            Err(e) => (error_response(e.message()), false),
            Ok(request) => dispatch(shared, &request),
        };
        let mut out = String::new();
        response.render_compact(&mut out);
        out.push('\n');
        writer.write_all(out.as_bytes())?;
        writer.flush()?;
        if is_shutdown {
            if let Some(addr) = addr {
                begin_shutdown(shared, addr);
            }
            break;
        }
    }
    Ok(())
}

fn error_response(msg: &str) -> JsonValue {
    JsonValue::Object(vec![
        ("ok".to_owned(), JsonValue::Bool(false)),
        ("error".to_owned(), JsonValue::String(msg.to_owned())),
    ])
}

fn ok_response(mut members: Vec<(&str, JsonValue)>) -> JsonValue {
    let mut all = vec![("ok".to_owned(), JsonValue::Bool(true))];
    all.extend(members.drain(..).map(|(k, v)| (k.to_owned(), v)));
    JsonValue::Object(all)
}

fn dispatch(shared: &Shared, request: &Request) -> (JsonValue, bool) {
    match request {
        Request::Submit(req) => (
            handle_submit(shared, req).unwrap_or_else(|msg| error_response(&msg)),
            false,
        ),
        Request::Status { job_id } => (handle_status(shared, job_id), false),
        Request::Fetch { job_id, from, wait } => {
            (handle_fetch(shared, job_id, *from, *wait), false)
        }
        Request::Cancel { job_id } => (handle_cancel(shared, job_id), false),
        Request::Stats => (handle_stats(shared), false),
        Request::Shutdown => (ok_response(vec![]), true),
    }
}

/// Locks one of the server's plain shared tables, recovering the guard
/// when a panicking thread poisoned the mutex. Every structure guarded
/// this way (work queue, job table, slot and rejection maps) is valid
/// after any single interrupted update, so the data is taken as-is
/// instead of relaying the panic into whatever connection looks next.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Settles a job a panicking worker abandoned: every row the panic lost
/// becomes `Failed`, the job finishes so fetchers stop waiting, and the
/// tenant's admission slot is handed back. Idempotent — a second
/// recovery (or a racing late worker) sees the job finished.
fn fail_lost_rows(shared: &Shared, entry: &JobEntry, progress: &mut JobProgress) {
    if progress.finished {
        return;
    }
    for (index, row) in progress.rows.iter_mut().enumerate() {
        if row.is_none() {
            *row = Some(CellRow {
                index,
                label: entry.plan.cells[index].label.clone(),
                status: JobStatus::Failed,
                detail: "a worker panicked while this job was in flight; the row was lost"
                    .to_owned(),
                metrics: Vec::new(),
                final_state: Vec::new(),
            });
            shared.counters.cells_failed.fetch_add(1, Ordering::Relaxed);
        }
    }
    progress.completed = progress.rows.len();
    progress.finished = true;
    release_slot(shared, &entry.tenant);
}

/// Locks a job's progress, recovering from a poisoned mutex. A poisoned
/// guard means a thread panicked mid-update and the job can never
/// complete normally, so it is settled as `Failed` via
/// [`fail_lost_rows`] rather than wedging every fetcher and panicking
/// every status call after it.
fn lock_progress<'a>(shared: &Shared, entry: &'a JobEntry) -> MutexGuard<'a, JobProgress> {
    match entry.progress.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            let mut progress = poisoned.into_inner();
            entry.progress.clear_poison();
            fail_lost_rows(shared, entry, &mut progress);
            progress
        }
    }
}

/// Reserves an in-flight slot for `tenant`, or reports the rejection.
fn admit(shared: &Shared, tenant: &str) -> Result<(), String> {
    let policy = shared.config.policy_for(tenant);
    let mut inflight = lock_recover(&shared.inflight);
    let slot = inflight.entry(tenant.to_owned()).or_insert(0);
    if *slot >= policy.max_inflight {
        drop(inflight);
        shared
            .counters
            .tenant_rejections
            .fetch_add(1, Ordering::Relaxed);
        *lock_recover(&shared.rejections)
            .entry(tenant.to_owned())
            .or_insert(0) += 1;
        return Err(format!(
            "tenant `{tenant}` is at its in-flight limit ({})",
            policy.max_inflight
        ));
    }
    *slot += 1;
    Ok(())
}

fn release_slot(shared: &Shared, tenant: &str) {
    let mut inflight = lock_recover(&shared.inflight);
    if let Some(slot) = inflight.get_mut(tenant) {
        *slot = slot.saturating_sub(1);
    }
}

/// The width the server picks for a submission that omitted `batch`: one
/// unit for all cells, capped so a huge sweep still spreads across the
/// worker pool instead of collapsing into one giant work unit.
const AUTO_BATCH_CAP: usize = 8;

/// Resolves a submission's work-unit width. An explicit width above 1 on
/// a method that cannot group is a *method* error (distinct from the
/// parse layer's *width* error for `batch: 0`); an omitted width auto
/// -selects from the cell count — 1 for methods that cannot group.
fn resolve_batch(req: &SubmitRequest) -> Result<usize, String> {
    match req.batch {
        Some(width) => {
            if width > 1 && !req.method.supports_batch() {
                return Err(format!(
                    "`batch` widths above 1 are not supported for method `{}` \
                     (batchable methods: ode, ssa, tau)",
                    req.method.as_str()
                ));
            }
            Ok(width)
        }
        None if req.method.supports_batch() => Ok(req.cells.len().clamp(1, AUTO_BATCH_CAP)),
        None => Ok(1),
    }
}

fn handle_submit(shared: &Shared, req: &SubmitRequest) -> Result<JsonValue, String> {
    if req.cells.is_empty() {
        return Err("a submission needs at least one cell".to_owned());
    }
    check_horizon(req.t_end, req.record_interval).map_err(|e| e.message().to_owned())?;
    let batch = resolve_batch(req)?;
    admit(shared, &req.tenant)?;
    // any validation failure from here on must hand the slot back
    let plan = match build_plan(shared, req, batch) {
        Ok(plan) => plan,
        Err(msg) => {
            release_slot(shared, &req.tenant);
            return Err(msg);
        }
    };
    let policy = shared.config.policy_for(&req.tenant);
    let id = format!("j-{}", shared.next_job.fetch_add(1, Ordering::Relaxed) + 1);
    let species: Vec<JsonValue> = plan
        .crn
        .species_iter()
        .map(|(_, s)| JsonValue::String(s.name().to_owned()))
        .collect();
    let cells = plan.cells.len();
    let entry = Arc::new(JobEntry {
        id: id.clone(),
        tenant: req.tenant.clone(),
        plan,
        opts: SweepOptions::default()
            .with_seed(req.seed)
            .with_budget(policy.budget),
        cancel: CancelToken::new(),
        progress: Mutex::new(JobProgress {
            rows: vec![None; cells],
            completed: 0,
            finished: false,
            cancel_requested: false,
        }),
        progressed: Condvar::new(),
    });
    lock_recover(&shared.jobs).insert(id.clone(), Arc::clone(&entry));
    {
        let mut queue = lock_recover(&shared.queue);
        let batch = entry.plan.batch.max(1);
        let mut base = 0;
        while base < cells {
            let width = batch.min(cells - base);
            queue.push_back((Arc::clone(&entry), base, width));
            base += width;
        }
    }
    shared.queue_ready.notify_all();
    shared
        .counters
        .jobs_submitted
        .fetch_add(1, Ordering::Relaxed);
    Ok(ok_response(vec![
        ("job", JsonValue::String(id)),
        ("cells", JsonValue::from_f64(cells as f64)),
        ("species", JsonValue::Array(species)),
    ]))
}

fn build_plan(shared: &Shared, req: &SubmitRequest, batch: usize) -> Result<JobPlan, String> {
    let (crn, mut init) = resolve_program(&req.program)?;
    for (name, amount) in &req.init {
        let species = crn
            .find_species(name)
            .ok_or_else(|| format!("init names unknown species `{name}`"))?;
        if !amount.is_finite() || *amount < 0.0 {
            return Err(format!("init amount for `{name}` must be finite and >= 0"));
        }
        init.set(species, *amount);
    }
    let mut schedule = Schedule::new();
    for (time, name, amount) in &req.injections {
        let species = crn
            .find_species(name)
            .ok_or_else(|| format!("injection names unknown species `{name}`"))?;
        if !time.is_finite() || *time < 0.0 {
            return Err("injection time must be finite and >= 0".to_owned());
        }
        if !amount.is_finite() || *amount < 0.0 {
            return Err(format!(
                "injection amount for `{name}` must be finite and >= 0"
            ));
        }
        schedule = schedule.inject(*time, species, *amount);
    }
    // one cache access per submission: the entry stores the default-spec
    // compile, and cells with rate overrides rebind from it (rebinding is
    // property-tested bit-identical to a fresh compile)
    let base = shared.cache.get_or_compile(&crn, &SimSpec::default());
    let cells = req
        .cells
        .iter()
        .map(|cell| {
            let compiled = match cell_spec(cell)? {
                None => Arc::clone(&base),
                Some(spec) => Arc::new(base.rebind(&spec)),
            };
            Ok(PlanCell {
                label: cell.label.clone(),
                compiled,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(JobPlan {
        crn,
        init,
        schedule,
        method: req.method,
        t_end: req.t_end,
        record_interval: req.record_interval,
        batch,
        cells,
    })
}

/// Resolves the submitted program into a network and the base initial
/// state that `init` overrides are applied on top of.
///
/// A `crn` program starts from the all-zero state. A `netlist` program is
/// compiled through the circuit lowering pass and starts from the compiled
/// system's initial state (clock priming, register initial values). The
/// compiled CRN is round-tripped through its text form so a netlist
/// submission is byte-identical — species order, cache key, result rows —
/// to submitting the lowered CRN text directly.
fn resolve_program(program: &Program) -> Result<(Crn, State), String> {
    match program {
        Program::Crn(text) => {
            let crn: Crn = text
                .parse()
                .map_err(|e| format!("network does not parse: {e}"))?;
            let init = State::new(&crn);
            Ok((crn, init))
        }
        Program::Netlist(src) => {
            let system =
                molseq_sync::compile_netlist_source(src, molseq_sync::ClockSpec::default())
                    .map_err(|e| format!("netlist does not compile: {e}"))?;
            let crn: Crn = system
                .crn()
                .to_string()
                .parse()
                .map_err(|e| format!("compiled netlist does not round-trip: {e}"))?;
            let compiled_init = system.initial_state();
            let mut init = State::new(&crn);
            for index in 0..system.crn().species_count() {
                let id = molseq_crn::SpeciesId::from_index(index);
                let amount = compiled_init.get(id);
                if amount != 0.0 {
                    let name = system.crn().species_name(id);
                    let species = crn.find_species(name).ok_or_else(|| {
                        format!("compiled netlist lost species `{name}` in round-trip")
                    })?;
                    init.set(species, amount);
                }
            }
            Ok((crn, init))
        }
    }
}

fn cell_spec(cell: &CellSpec) -> Result<Option<SimSpec>, String> {
    match (cell.k_fast, cell.k_slow) {
        (None, None) => Ok(None),
        (Some(k_fast), Some(k_slow)) => {
            let assignment = RateAssignment::new(k_fast, k_slow)
                .map_err(|e| format!("cell `{}`: {e}", cell.label))?;
            Ok(Some(SimSpec::new(assignment)))
        }
        _ => Err(format!(
            "cell `{}`: `k_fast` and `k_slow` must be given together",
            cell.label
        )),
    }
}

fn handle_status(shared: &Shared, job_id: &str) -> JsonValue {
    let Some(entry) = lookup(shared, job_id) else {
        return error_response(&format!("unknown job `{job_id}`"));
    };
    let progress = lock_progress(shared, &entry);
    let state = if progress.finished {
        if progress.cancel_requested {
            "cancelled"
        } else {
            "done"
        }
    } else if progress.cancel_requested {
        "cancelling"
    } else if progress.completed > 0 {
        "running"
    } else {
        "queued"
    };
    ok_response(vec![
        ("job", JsonValue::String(entry.id.clone())),
        ("state", JsonValue::String(state.to_owned())),
        ("completed", JsonValue::from_f64(progress.completed as f64)),
        ("total", JsonValue::from_f64(progress.rows.len() as f64)),
    ])
}

fn handle_fetch(shared: &Shared, job_id: &str, from: usize, wait: bool) -> JsonValue {
    let Some(entry) = lookup(shared, job_id) else {
        return error_response(&format!("unknown job `{job_id}`"));
    };
    let mut progress = lock_progress(shared, &entry);
    loop {
        // rows stream in completion order, but fetch only exposes the
        // contiguous completed prefix: what a client accumulates is in
        // index order, identical to a batch read after completion
        let ready = progress.rows.iter().take_while(|row| row.is_some()).count();
        if ready > from || progress.finished || !wait {
            let rows: Vec<JsonValue> = progress.rows[from.min(ready)..ready]
                .iter()
                .map(|row| row.as_ref().expect("prefix rows are complete").to_json())
                .collect();
            return ok_response(vec![
                ("rows", JsonValue::Array(rows)),
                ("next", JsonValue::from_f64(ready as f64)),
                ("done", JsonValue::Bool(progress.finished)),
            ]);
        }
        let (next, timeout) = match entry.progressed.wait_timeout(progress, FETCH_WAIT_CAP) {
            Ok(pair) => pair,
            Err(poisoned) => {
                // a worker panicked while we were parked on the condvar:
                // settle the job so this fetch (and every later one)
                // returns instead of waiting for rows that cannot come
                let (mut recovered, timeout) = poisoned.into_inner();
                entry.progress.clear_poison();
                fail_lost_rows(shared, &entry, &mut recovered);
                (recovered, timeout)
            }
        };
        progress = next;
        if timeout.timed_out() {
            let ready = progress.rows.iter().take_while(|row| row.is_some()).count();
            let rows: Vec<JsonValue> = progress.rows[from.min(ready)..ready]
                .iter()
                .map(|row| row.as_ref().expect("prefix rows are complete").to_json())
                .collect();
            return ok_response(vec![
                ("rows", JsonValue::Array(rows)),
                ("next", JsonValue::from_f64(ready as f64)),
                ("done", JsonValue::Bool(progress.finished)),
            ]);
        }
    }
}

fn handle_cancel(shared: &Shared, job_id: &str) -> JsonValue {
    let Some(entry) = lookup(shared, job_id) else {
        return error_response(&format!("unknown job `{job_id}`"));
    };
    entry.cancel.cancel();
    let mut progress = lock_progress(shared, &entry);
    if !progress.cancel_requested {
        progress.cancel_requested = true;
        shared
            .counters
            .jobs_cancelled
            .fetch_add(1, Ordering::Relaxed);
    }
    let state = ok_response(vec![
        ("job", JsonValue::String(entry.id.clone())),
        ("finished", JsonValue::Bool(progress.finished)),
    ]);
    drop(progress);
    entry.progressed.notify_all();
    state
}

fn handle_stats(shared: &Shared) -> JsonValue {
    let counters: Vec<JsonValue> = snapshot_counters(shared)
        .into_iter()
        .map(|(name, value)| {
            JsonValue::Array(vec![JsonValue::String(name), JsonValue::from_f64(value)])
        })
        .collect();
    ok_response(vec![("counters", JsonValue::Array(counters))])
}

fn lookup(shared: &Shared, job_id: &str) -> Option<Arc<JobEntry>> {
    lock_recover(&shared.jobs).get(job_id).cloned()
}

/// The sorted counter snapshot behind the wire `stats` op and
/// [`Server::counters`].
fn snapshot_counters(shared: &Shared) -> Vec<(String, f64)> {
    let c = &shared.counters;
    let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
    let mut counters = vec![
        (
            "cache_evictions".to_owned(),
            shared.cache.evictions() as f64,
        ),
        ("cache_hits".to_owned(), shared.cache.hits() as f64),
        ("cache_misses".to_owned(), shared.cache.misses() as f64),
        (
            "cells_budget_exceeded".to_owned(),
            load(&c.cells_budget_exceeded),
        ),
        ("cells_cancelled".to_owned(), load(&c.cells_cancelled)),
        ("cells_failed".to_owned(), load(&c.cells_failed)),
        ("cells_ok".to_owned(), load(&c.cells_ok)),
        ("cells_panicked".to_owned(), load(&c.cells_panicked)),
        ("jobs_cancelled".to_owned(), load(&c.jobs_cancelled)),
        ("jobs_completed".to_owned(), load(&c.jobs_completed)),
        ("jobs_submitted".to_owned(), load(&c.jobs_submitted)),
        (
            "queued_cells".to_owned(),
            lock_recover(&shared.queue)
                .iter()
                .map(|(_, _, width)| *width as f64)
                .sum(),
        ),
        ("running_cells".to_owned(), load(&c.running_cells)),
        ("tenant_rejections".to_owned(), load(&c.tenant_rejections)),
    ];
    for (tenant, count) in lock_recover(&shared.rejections).iter() {
        counters.push((format!("rejections.{tenant}"), *count as f64));
    }
    counters.sort_by(|a, b| a.0.cmp(&b.0));
    counters
}

fn worker_loop(shared: &Shared) {
    loop {
        let item = {
            let mut queue = lock_recover(&shared.queue);
            loop {
                if let Some(item) = queue.pop_front() {
                    break Some(item);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queue = shared
                    .queue_ready
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some((entry, base, width)) = item else {
            return;
        };
        shared
            .counters
            .running_cells
            .fetch_add(width as u64, Ordering::Relaxed);
        // an ODE unit advances as lock-step lanes; an SSA or tau-leap
        // unit runs its cells one after another
        let rows = if width > 1 && entry.plan.method == Method::Ode {
            run_plan_group(&entry, base, width)
        } else {
            (base..base + width)
                .map(|index| run_plan_cell(&entry, index))
                .collect()
        };
        shared
            .counters
            .running_cells
            .fetch_sub(width as u64, Ordering::Relaxed);
        if let Some(fault) = &shared.config.fault_label {
            if rows.iter().any(|row| row.label == *fault) {
                // test-only fault injection (see
                // `ServerConfig::with_fault_injection`): die while holding
                // the progress lock, poisoning it for everyone after us
                let _guard = lock_progress(shared, &entry);
                panic!("fault injection: work unit contains cell `{fault}`");
            }
        }
        for row in &rows {
            match row.status {
                JobStatus::Ok => &shared.counters.cells_ok,
                JobStatus::Failed => &shared.counters.cells_failed,
                JobStatus::Panicked => &shared.counters.cells_panicked,
                JobStatus::BudgetExceeded => &shared.counters.cells_budget_exceeded,
                JobStatus::Cancelled => &shared.counters.cells_cancelled,
            }
            .fetch_add(1, Ordering::Relaxed);
        }
        let mut progress = lock_progress(shared, &entry);
        // a poison recovery may already have settled this job as Failed;
        // late rows from a surviving worker must not resurrect it
        if !progress.finished {
            for (k, row) in rows.into_iter().enumerate() {
                progress.rows[base + k] = Some(row);
            }
            progress.completed += width;
            let finished = progress.completed == progress.rows.len();
            let cancel_requested = progress.cancel_requested;
            progress.finished = finished;
            if finished {
                // settle the slot and counters before waking fetchers, so a
                // stats call issued right after a fetch returns sees them
                release_slot(shared, &entry.tenant);
                if !cancel_requested {
                    shared
                        .counters
                        .jobs_completed
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        drop(progress);
        entry.progressed.notify_all();
    }
}

/// Runs one cell of a job through [`run_cell`] — the sweep engine's own
/// single-cell entry point — and converts the result to a wire row.
fn run_plan_cell(entry: &JobEntry, index: usize) -> CellRow {
    let plan = &entry.plan;
    let cell = &plan.cells[index];
    let job = SweepJob::new(cell.label.clone(), move |ctx: &JobCtx| {
        simulate_cell(plan, cell, ctx)
    });
    row_from_result(run_cell(&job, index, &entry.opts, Some(&entry.cancel)))
}

/// Runs `width` consecutive cells of an ODE job as one lock-step group:
/// one [`GroupJob`] through [`run_group`] (same per-cell seeds and outcome
/// mapping as the scalar path), whose body advances every lane together
/// via [`run_ode_batch`]. The batched engine is bit-identical to the
/// scalar integrator lane by lane, so the rows this produces equal
/// `width` [`run_plan_cell`] calls except for the
/// `batch_width`/`lanes_retired` columns.
fn run_plan_group(entry: &JobEntry, base: usize, width: usize) -> Vec<CellRow> {
    let plan = &entry.plan;
    let chunk = &plan.cells[base..base + width];
    let labels = chunk.iter().map(|cell| cell.label.clone()).collect();
    let group = GroupJob::new(labels, move |ctxs: &[JobCtx]| {
        let hooks: Vec<_> = ctxs.iter().map(JobCtx::step_hook).collect();
        let sinks: Vec<Cell<SimMetrics>> = ctxs
            .iter()
            .map(|_| Cell::new(SimMetrics::default()))
            .collect();
        let lanes: Vec<BatchLane> = chunk
            .iter()
            .enumerate()
            .map(|(k, cell)| {
                let mut opts = OdeOptions::default()
                    .with_t_end(plan.t_end)
                    .with_step_hook(&hooks[k])
                    .with_metrics(&sinks[k]);
                if let Some(dt) = plan.record_interval {
                    opts = opts.with_record_interval(dt);
                }
                BatchLane {
                    compiled: &cell.compiled,
                    init: &plan.init,
                    schedule: &plan.schedule,
                    options: opts,
                }
            })
            .collect();
        let mut workspace = BatchedOdeWorkspace::new();
        run_ode_batch(&plan.crn, &lanes, &mut workspace)
            .into_iter()
            .zip(ctxs)
            .zip(&sinks)
            .map(|((result, ctx), sink)| {
                record_metrics(ctx, sink.get());
                let trace = result.map_err(map_sim_error)?;
                Ok(trace.final_state().to_vec())
            })
            .collect()
    });
    run_group(&group, base, &entry.opts, Some(&entry.cancel))
        .into_iter()
        .map(row_from_result)
        .collect()
}

fn row_from_result(result: CellResult<Vec<f64>>) -> CellRow {
    let final_state = match &result.outcome {
        CellOutcome::Ok(state) => state.clone(),
        _ => Vec::new(),
    };
    let status = match &result.outcome {
        CellOutcome::Ok(_) => JobStatus::Ok,
        CellOutcome::Failed(_) => JobStatus::Failed,
        CellOutcome::Panicked(_) => JobStatus::Panicked,
        CellOutcome::BudgetExceeded(_) => JobStatus::BudgetExceeded,
        CellOutcome::Cancelled(_) => JobStatus::Cancelled,
    };
    let detail = result.detail().unwrap_or("").to_owned();
    CellRow {
        index: result.index,
        label: result.label,
        status,
        detail,
        metrics: result.metrics,
        final_state,
    }
}

fn simulate_cell(plan: &JobPlan, cell: &PlanCell, ctx: &JobCtx) -> Result<Vec<f64>, JobError> {
    let hook = ctx.step_hook();
    let sink = Cell::new(SimMetrics::default());
    let result = match plan.method {
        Method::Ssa => {
            let mut opts = SsaOptions::default()
                .with_t_end(plan.t_end)
                .with_seed(ctx.seed())
                .with_step_hook(&hook)
                .with_metrics(&sink);
            if let Some(dt) = plan.record_interval {
                opts = opts.with_record_interval(dt);
            }
            Simulation::new(&plan.crn, &cell.compiled)
                .init(&plan.init)
                .schedule(&plan.schedule)
                .options(opts)
                .run()
        }
        Method::Ode => {
            let mut opts = OdeOptions::default()
                .with_t_end(plan.t_end)
                .with_step_hook(&hook)
                .with_metrics(&sink);
            if let Some(dt) = plan.record_interval {
                opts = opts.with_record_interval(dt);
            }
            Simulation::new(&plan.crn, &cell.compiled)
                .init(&plan.init)
                .schedule(&plan.schedule)
                .options(opts)
                .run()
        }
        Method::Tau => {
            let mut base = SsaOptions::default()
                .with_t_end(plan.t_end)
                .with_seed(ctx.seed())
                .with_step_hook(&hook)
                .with_metrics(&sink);
            if let Some(dt) = plan.record_interval {
                base = base.with_record_interval(dt);
            }
            Simulation::new(&plan.crn, &cell.compiled)
                .init(&plan.init)
                .schedule(&plan.schedule)
                .options(TauLeapOptions {
                    base,
                    ..TauLeapOptions::default()
                })
                .run()
        }
        Method::Hybrid => {
            let mut opts = HybridOptions::default()
                .with_t_end(plan.t_end)
                .with_seed(ctx.seed())
                .with_step_hook(&hook)
                .with_metrics(&sink);
            if let Some(dt) = plan.record_interval {
                opts = opts.with_record_interval(dt);
            }
            Simulation::new(&plan.crn, &cell.compiled)
                .init(&plan.init)
                .schedule(&plan.schedule)
                .options(opts)
                .run()
        }
    };
    record_metrics(ctx, sink.get());
    let trace = result.map_err(map_sim_error)?;
    Ok(trace.final_state().to_vec())
}

/// Maps a simulator error to the sweep outcome it represents. The step
/// hook relays the sweep context's own verdict: a raised cancel token and
/// an exhausted budget both surface as `Interrupted`, distinguished by
/// the relayed message.
fn map_sim_error(e: SimError) -> JobError {
    match e {
        SimError::Interrupted { time, reason } => {
            if reason.contains("cancelled") {
                JobError::Cancelled(reason)
            } else {
                JobError::BudgetExceeded(format!("interrupted at t = {time}: {reason}"))
            }
        }
        other => JobError::failed(other),
    }
}

/// Records the simulator counters under the same metric names the bench
/// experiments use, so server rows aggregate through the identical
/// summary/trend pipeline.
fn record_metrics(ctx: &JobCtx, m: SimMetrics) {
    ctx.record_metric("ode_steps_accepted", m.ode_steps_accepted as f64);
    ctx.record_metric("ode_steps_rejected", m.ode_steps_rejected as f64);
    ctx.record_metric("lu_factorizations", m.lu_factorizations as f64);
    ctx.record_metric("dense_lu_fallbacks", m.dense_lu_fallbacks as f64);
    ctx.record_metric("ssa_events", m.ssa_events as f64);
    ctx.record_metric("tau_leaps", m.tau_leaps as f64);
    ctx.record_metric("tau_leaps_implicit", m.tau_leaps_implicit as f64);
    ctx.record_metric("newton_iterations", m.newton_iterations as f64);
    ctx.record_metric("leap_switchovers", m.leap_switchovers as f64);
    ctx.record_metric("hybrid_slow_events", m.hybrid_slow_events as f64);
    ctx.record_metric("hybrid_fast_steps", m.hybrid_fast_steps as f64);
    ctx.record_metric("hybrid_repartitions", m.hybrid_repartitions as f64);
    ctx.record_metric("batch_width", m.batch_width as f64);
    ctx.record_metric("lanes_retired", m.lanes_retired as f64);
    ctx.record_metric("final_time", m.final_time);
    ctx.record_metric("seed", m.seed as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_policies_resolve_per_tenant_with_overrides() {
        let strict = TenantPolicy {
            max_inflight: 1,
            budget: JobBudget::unlimited().with_max_steps(10),
        };
        let config = ServerConfig::default().with_tenant_policy("greedy", strict);
        assert_eq!(config.policy_for("greedy"), strict);
        assert_eq!(config.policy_for("anyone"), TenantPolicy::default());
        // later overrides win
        let relaxed = TenantPolicy {
            max_inflight: 9,
            budget: JobBudget::unlimited(),
        };
        let config = config.with_tenant_policy("greedy", relaxed);
        assert_eq!(config.policy_for("greedy"), relaxed);
    }

    #[test]
    fn resolved_workers_defaults_to_parallelism() {
        assert!(ServerConfig::default().resolved_workers() >= 1);
        assert_eq!(
            ServerConfig::default().with_workers(3).resolved_workers(),
            3
        );
    }

    #[test]
    fn poisoned_progress_is_recovered_and_the_job_settles_failed() {
        let shared = Shared {
            config: ServerConfig::default(),
            cache: CompiledCache::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_ready: Condvar::new(),
            jobs: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
            rejections: Mutex::new(BTreeMap::new()),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
        };
        let req = SubmitRequest {
            tenant: "acme".to_owned(),
            program: Program::Crn("X -> Y @slow".to_owned()),
            init: vec![("X".to_owned(), 5.0)],
            method: Method::Ssa,
            t_end: 1.0,
            record_interval: None,
            seed: 1,
            injections: vec![],
            batch: Some(1),
            cells: vec![
                CellSpec {
                    label: "a".to_owned(),
                    k_fast: None,
                    k_slow: None,
                },
                CellSpec {
                    label: "b".to_owned(),
                    k_fast: None,
                    k_slow: None,
                },
            ],
        };
        admit(&shared, "acme").expect("slot free");
        let plan = build_plan(&shared, &req, 1).expect("plan builds");
        let entry = Arc::new(JobEntry {
            id: "j-test".to_owned(),
            tenant: "acme".to_owned(),
            plan,
            opts: SweepOptions::default(),
            cancel: CancelToken::new(),
            progress: Mutex::new(JobProgress {
                rows: vec![None, None],
                completed: 0,
                finished: false,
                cancel_requested: false,
            }),
            progressed: Condvar::new(),
        });

        // poison the progress mutex exactly as a panicking worker would
        let poisoner = Arc::clone(&entry);
        let outcome = thread::spawn(move || {
            let _guard = poisoner.progress.lock().expect("first lock");
            panic!("deliberate poison");
        })
        .join();
        assert!(outcome.is_err());
        assert!(entry.progress.is_poisoned());

        {
            let progress = lock_progress(&shared, &entry);
            assert!(progress.finished);
            assert_eq!(progress.completed, 2);
            let row = progress.rows[1].as_ref().expect("row filled in");
            assert_eq!(row.status, JobStatus::Failed);
            assert!(row.detail.contains("panicked"), "{}", row.detail);
            assert_eq!(row.label, "b");
        }
        // the tenant's slot came back, the poison flag is gone, and a
        // second recovery is a no-op
        assert_eq!(
            *lock_recover(&shared.inflight).get("acme").expect("slot"),
            0
        );
        assert!(!entry.progress.is_poisoned());
        let again = lock_progress(&shared, &entry);
        assert_eq!(again.completed, 2);
        assert_eq!(shared.counters.cells_failed.load(Ordering::Relaxed), 2);
    }
}
