//! The unit of sweep work: a labelled, seeded, budgeted closure.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shared flag for cooperatively cancelling in-flight work.
///
/// Cloning the token is cheap (an `Arc` bump) and every clone observes the
/// same flag. A job whose [`JobCtx`] carries a token observes cancellation
/// at its budget checkpoints — [`JobCtx::check`], [`JobCtx::record_steps`],
/// and therefore inside any simulator driven through
/// [`JobCtx::step_hook`] — and ends as
/// [`CellOutcome::Cancelled`](crate::CellOutcome::Cancelled). Like the
/// budgets, cancellation is cooperative: std threads cannot be preempted,
/// so a closure that never consults its context runs to completion.
///
/// # Examples
///
/// ```
/// use molseq_sweep::CancelToken;
///
/// let token = CancelToken::new();
/// let observer = token.clone();
/// assert!(!observer.is_cancelled());
/// token.cancel();
/// assert!(observer.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    #[must_use]
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Raises the flag. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](Self::cancel) has been called on any clone.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Resource limits applied to every job of a sweep.
///
/// Both limits are **cooperative**: the engine cannot preempt a running
/// closure (std threads are not cancellable), so a job only observes its
/// budget at the points where it consults the [`JobCtx`] —
/// [`JobCtx::check`] for wall time, [`JobCtx::record_steps`] for steps.
/// Simulation step budgets are better expressed in the simulator options
/// (e.g. `OdeOptions::with_max_steps`), which enforce them densely; the
/// step budget here exists for work without such a knob.
///
/// # Examples
///
/// ```
/// use molseq_sweep::JobBudget;
/// use std::time::Duration;
///
/// let budget = JobBudget::unlimited()
///     .with_max_wall(Duration::from_secs(30))
///     .with_max_steps(1_000_000);
/// assert_eq!(budget.max_steps(), Some(1_000_000));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct JobBudget {
    max_wall: Option<Duration>,
    max_steps: Option<u64>,
}

impl JobBudget {
    /// A budget with no limits (the default).
    #[must_use]
    pub fn unlimited() -> Self {
        JobBudget::default()
    }

    /// Caps a job's wall-clock time (builder style). Checked by
    /// [`JobCtx::check`]; note that wall time is machine-dependent, so
    /// sweeps that must be bit-reproducible should prefer step budgets.
    #[must_use]
    pub fn with_max_wall(mut self, limit: Duration) -> Self {
        self.max_wall = Some(limit);
        self
    }

    /// Caps a job's self-reported step count (builder style). Checked by
    /// [`JobCtx::record_steps`]; deterministic across machines.
    #[must_use]
    pub fn with_max_steps(mut self, limit: u64) -> Self {
        self.max_steps = Some(limit);
        self
    }

    /// The wall-clock limit, if any.
    #[must_use]
    pub fn max_wall(&self) -> Option<Duration> {
        self.max_wall
    }

    /// The step limit, if any.
    #[must_use]
    pub fn max_steps(&self) -> Option<u64> {
        self.max_steps
    }
}

/// Why a job did not produce a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The job detected a domain failure (a simulation error, a
    /// divergence, a missing port, …).
    Failed(String),
    /// The job exhausted its [`JobBudget`].
    BudgetExceeded(String),
    /// The job observed its [`CancelToken`] raised and stopped early.
    Cancelled(String),
}

impl JobError {
    /// Convenience constructor wrapping any displayable error as
    /// [`JobError::Failed`].
    pub fn failed(err: impl fmt::Display) -> Self {
        JobError::Failed(err.to_string())
    }
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::Failed(msg) => write!(f, "job failed: {msg}"),
            JobError::BudgetExceeded(msg) => write!(f, "job budget exceeded: {msg}"),
            JobError::Cancelled(msg) => write!(f, "job cancelled: {msg}"),
        }
    }
}

impl std::error::Error for JobError {}

/// Per-job context handed to the closure: its position in the sweep, its
/// deterministic seed, and its budget meters.
///
/// The seed depends only on the sweep seed and the job index — never on
/// which worker thread runs the job or in what order — which is what makes
/// parallel sweeps bit-identical to serial ones.
#[derive(Debug)]
pub struct JobCtx {
    index: usize,
    seed: u64,
    budget: JobBudget,
    cancel: Option<CancelToken>,
    started: Instant,
    steps: Cell<u64>,
    metrics: RefCell<Vec<(String, f64)>>,
}

impl JobCtx {
    pub(crate) fn new(index: usize, seed: u64, budget: JobBudget) -> Self {
        JobCtx::with_cancel(index, seed, budget, None)
    }

    pub(crate) fn with_cancel(
        index: usize,
        seed: u64,
        budget: JobBudget,
        cancel: Option<CancelToken>,
    ) -> Self {
        JobCtx {
            index,
            seed,
            budget,
            cancel,
            started: Instant::now(),
            steps: Cell::new(0),
            metrics: RefCell::new(Vec::new()),
        }
    }

    /// This job's position in the sweep's job list.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// The deterministic per-job RNG seed, derived from the sweep seed and
    /// the job index. Jobs that need randomness should seed from this so
    /// that sweep output does not depend on scheduling.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Wall-clock time since this job started.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Cooperative wall-budget and cancellation checkpoint: call between
    /// phases of a long job and propagate the error with `?`.
    ///
    /// # Errors
    ///
    /// [`JobError::Cancelled`] if this context carries a raised
    /// [`CancelToken`]; [`JobError::BudgetExceeded`] once elapsed wall
    /// time passes the budget's `max_wall`.
    pub fn check(&self) -> Result<(), JobError> {
        if let Some(token) = &self.cancel {
            if token.is_cancelled() {
                return Err(JobError::Cancelled("cancel token raised".into()));
            }
        }
        if let Some(limit) = self.budget.max_wall() {
            let elapsed = self.elapsed();
            if elapsed > limit {
                return Err(JobError::BudgetExceeded(format!(
                    "wall {elapsed:.2?} > limit {limit:.2?}"
                )));
            }
        }
        Ok(())
    }

    /// Adds `n` to this job's step meter and checks it against the step
    /// budget. Deterministic, unlike wall checks.
    ///
    /// # Errors
    ///
    /// [`JobError::BudgetExceeded`] once the accumulated count passes the
    /// budget's `max_steps`.
    pub fn record_steps(&self, n: u64) -> Result<(), JobError> {
        let total = self.steps.get().saturating_add(n);
        self.steps.set(total);
        if let Some(limit) = self.budget.max_steps() {
            if total > limit {
                return Err(JobError::BudgetExceeded(format!(
                    "steps {total} > limit {limit}"
                )));
            }
        }
        Ok(())
    }

    /// The steps recorded so far via [`record_steps`](Self::record_steps).
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps.get()
    }

    /// Adapts this context's budget meters to the simulators' step-hook
    /// signature (`Fn(u64, f64) -> ControlFlow<String>`): bind the return
    /// value and pass a reference as `OdeOptions::with_step_hook` /
    /// `SsaOptions::with_step_hook`, and the sweep's wall/step budgets are
    /// then enforced *inside* the integration loop instead of only between
    /// jobs.
    ///
    /// The hook receives each simulator call's cumulative step count; the
    /// adapter records only the per-call increment, so one job may drive
    /// several simulations (e.g. a pipeline's per-stage runs, whose
    /// counters restart) against a single shared meter.
    ///
    /// # Examples
    ///
    /// ```
    /// use molseq_sweep::{JobBudget, JobCtx};
    /// use std::ops::ControlFlow;
    ///
    /// let ctx = JobCtx::new_for_test(0, 1, JobBudget::unlimited().with_max_steps(100));
    /// let hook = ctx.step_hook();
    /// assert!(matches!(hook(90, 1.0), ControlFlow::Continue(())));
    /// assert!(matches!(hook(101, 2.0), ControlFlow::Break(_)));
    /// ```
    pub fn step_hook(&self) -> impl Fn(u64, f64) -> std::ops::ControlFlow<String> + '_ {
        let last = Cell::new(0u64);
        move |steps, _t| {
            // a new simulator call restarts its counter at 1
            let delta = if steps < last.get() {
                steps
            } else {
                steps - last.get()
            };
            last.set(steps);
            if let Err(e) = self.record_steps(delta) {
                return std::ops::ControlFlow::Break(e.to_string());
            }
            if let Err(e) = self.check() {
                return std::ops::ControlFlow::Break(e.to_string());
            }
            std::ops::ControlFlow::Continue(())
        }
    }

    /// Records a named per-cell metric (a simulator counter, a measured
    /// latency, a convergence residual, …). The engine copies recorded
    /// metrics into [`CellResult::metrics`](crate::CellResult) and the
    /// summary's [`JobRecord::metrics`](crate::JobRecord), so they land in
    /// the sweep's JSON/CSV artefacts without the job's payload type
    /// having to carry them.
    ///
    /// Metrics are kept in call order; recording the same name twice keeps
    /// both entries, and the summary's CSV export uses the **last** value
    /// for a repeated name.
    ///
    /// # Examples
    ///
    /// ```
    /// use molseq_sweep::{JobBudget, JobCtx};
    ///
    /// let ctx = JobCtx::new_for_test(0, 1, JobBudget::unlimited());
    /// ctx.record_metric("ssa_events", 1024.0);
    /// ctx.record_metric("final_time", 50.0);
    /// ```
    pub fn record_metric(&self, name: impl Into<String>, value: f64) {
        self.metrics.borrow_mut().push((name.into(), value));
    }

    /// Drains the recorded metrics (engine-side, after the job returns).
    /// Tolerates a borrow leaked by a panicking job: the metrics are then
    /// simply dropped with the rest of the cell's work.
    pub(crate) fn take_metrics(&self) -> Vec<(String, f64)> {
        match self.metrics.try_borrow_mut() {
            Ok(mut m) => std::mem::take(&mut *m),
            Err(_) => Vec::new(),
        }
    }

    /// Test-only constructor (public so doctests and downstream
    /// integration tests can fabricate a context without running a sweep).
    #[doc(hidden)]
    #[must_use]
    pub fn new_for_test(index: usize, seed: u64, budget: JobBudget) -> Self {
        JobCtx::new(index, seed, budget)
    }
}

/// Derives the per-job seed from the sweep seed and job index with a
/// SplitMix64 finalizer, so adjacent indices get statistically independent
/// seeds.
///
/// This is the exact function [`run_sweep`](crate::run_sweep) uses for
/// [`JobCtx::seed`]; it is public so external schedulers (e.g. a server
/// dispatching cells one at a time onto a persistent pool) can reproduce
/// a sweep's per-cell seeds bit-for-bit.
#[must_use]
pub fn derive_seed(sweep_seed: u64, index: usize) -> u64 {
    let mut z = sweep_seed
        .wrapping_add((index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A labelled unit of sweep work.
///
/// The closure receives a [`JobCtx`] and returns either a value or a
/// [`JobError`]. The lifetime parameter lets jobs borrow sweep-wide data
/// (a compiled network, an input sequence) without cloning it per cell —
/// the engine runs them on scoped threads.
///
/// # Examples
///
/// ```
/// use molseq_sweep::SweepJob;
///
/// let base = vec![1.0, 2.0, 3.0];
/// let jobs: Vec<SweepJob<'_, f64>> = (0..4)
///     .map(|i| {
///         let base = &base;
///         SweepJob::infallible(format!("cell {i}"), move |_ctx| {
///             base.iter().sum::<f64>() * i as f64
///         })
///     })
///     .collect();
/// assert_eq!(jobs.len(), 4);
/// ```
pub struct SweepJob<'a, T> {
    label: String,
    run: JobFn<'a, T>,
}

/// The boxed work closure a [`SweepJob`] carries.
type JobFn<'a, T> = Box<dyn Fn(&JobCtx) -> Result<T, JobError> + Send + Sync + 'a>;

impl<'a, T> SweepJob<'a, T> {
    /// Creates a job from a fallible closure.
    pub fn new(
        label: impl Into<String>,
        run: impl Fn(&JobCtx) -> Result<T, JobError> + Send + Sync + 'a,
    ) -> Self {
        SweepJob {
            label: label.into(),
            run: Box::new(run),
        }
    }

    /// Creates a job from a closure that cannot fail (panics are still
    /// caught and isolated by the engine).
    pub fn infallible(
        label: impl Into<String>,
        run: impl Fn(&JobCtx) -> T + Send + Sync + 'a,
    ) -> Self {
        SweepJob::new(label, move |ctx| Ok(run(ctx)))
    }

    /// The job's human-readable label (parameter values, typically).
    #[must_use]
    pub fn label(&self) -> &str {
        &self.label
    }

    pub(crate) fn call(&self, ctx: &JobCtx) -> Result<T, JobError> {
        (self.run)(ctx)
    }
}

impl<T> fmt::Debug for SweepJob<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepJob")
            .field("label", &self.label)
            .finish_non_exhaustive()
    }
}

/// A batch of sweep cells executed by **one** closure invocation — the
/// scheduling unit behind lock-step batched simulation, where one engine
/// call advances several cells together (e.g.
/// `molseq_kinetics::run_ode_batch`).
///
/// The closure receives one [`JobCtx`] per cell — each carrying that
/// cell's *global* sweep index, deterministic seed and budget meters,
/// exactly as if the cells were independent [`SweepJob`]s — and must
/// return one result per cell, in order. The engine fans the results back
/// out into per-cell [`CellResult`](crate::CellResult)s; the group's wall
/// time is shared by every member (the members ran concurrently in one
/// call, so per-member wall time is not separable).
pub struct GroupJob<'a, T> {
    labels: Vec<String>,
    run: GroupFn<'a, T>,
}

/// The boxed work closure a [`GroupJob`] carries.
type GroupFn<'a, T> = Box<dyn Fn(&[JobCtx]) -> Vec<Result<T, JobError>> + Send + Sync + 'a>;

impl<'a, T> GroupJob<'a, T> {
    /// Creates a group from per-cell labels and a closure producing one
    /// result per label.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is empty — a group owns at least one cell.
    pub fn new(
        labels: Vec<String>,
        run: impl Fn(&[JobCtx]) -> Vec<Result<T, JobError>> + Send + Sync + 'a,
    ) -> Self {
        assert!(!labels.is_empty(), "a group job owns at least one cell");
        GroupJob {
            labels,
            run: Box::new(run),
        }
    }

    /// The per-cell labels, in result order.
    #[must_use]
    pub fn labels(&self) -> &[String] {
        &self.labels
    }

    /// How many cells this group owns.
    #[must_use]
    pub fn width(&self) -> usize {
        self.labels.len()
    }

    pub(crate) fn call(&self, ctxs: &[JobCtx]) -> Vec<Result<T, JobError>> {
        (self.run)(ctxs)
    }
}

impl<T> fmt::Debug for GroupJob<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GroupJob")
            .field("labels", &self.labels)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        let a: Vec<u64> = (0..64).map(|i| derive_seed(7, i)).collect();
        let b: Vec<u64> = (0..64).map(|i| derive_seed(7, i)).collect();
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), a.len(), "no seed collisions");
        assert_ne!(derive_seed(7, 0), derive_seed(8, 0));
    }

    #[test]
    fn seed_derivation_is_pinned_to_golden_values() {
        // The exact outputs are load-bearing: the server reproduces sweep
        // seeds cell by cell, persisted summaries embed them, and the
        // batched engines owe bit-identity to the scalar paths that
        // consumed them. Any change here silently invalidates every
        // stored baseline, so the function is pinned value by value.
        // `derive_seed(0, 0)` is SplitMix64's first output for seed 0 —
        // a cross-check against the published reference sequence.
        let golden: [(u64, usize, u64); 10] = [
            (0, 0, 0xE220_A839_7B1D_CDAF),
            (0, 1, 0x6E78_9E6A_A1B9_65F4),
            (0, 2, 0x06C4_5D18_8009_454F),
            (7, 0, 0x63CB_E1E4_5932_0DD7),
            (7, 1, 0x044C_3CD7_F43C_661C),
            (11, 0, 0x50F5_647D_2380_309D),
            (11, 5, 0x8D4B_C9E1_7AB0_580E),
            (u64::MAX, 0, 0xE4D9_7177_1B65_2C20),
            (u64::MAX, usize::MAX, 0xB4D0_55FC_F2CB_BD7B),
            (42, 1_000_000, 0xB053_C533_12AC_3FFB),
        ];
        for (sweep_seed, index, expected) in golden {
            assert_eq!(
                derive_seed(sweep_seed, index),
                expected,
                "derive_seed({sweep_seed}, {index})"
            );
        }
    }

    #[test]
    fn step_budget_trips_deterministically() {
        let budget = JobBudget::unlimited().with_max_steps(10);
        let ctx = JobCtx::new(0, 1, budget);
        assert!(ctx.record_steps(6).is_ok());
        assert!(ctx.record_steps(4).is_ok());
        assert_eq!(ctx.steps(), 10);
        let err = ctx.record_steps(1).unwrap_err();
        assert!(matches!(err, JobError::BudgetExceeded(_)), "{err}");
    }

    #[test]
    fn wall_budget_checkpoints() {
        let ctx = JobCtx::new(0, 1, JobBudget::unlimited());
        assert!(ctx.check().is_ok());
        let tight = JobCtx::new(0, 1, JobBudget::unlimited().with_max_wall(Duration::ZERO));
        std::thread::sleep(Duration::from_millis(1));
        assert!(tight.check().is_err());
    }

    #[test]
    fn step_hook_meters_deltas_and_survives_counter_resets() {
        let ctx = JobCtx::new(0, 1, JobBudget::unlimited().with_max_steps(100));
        let hook = ctx.step_hook();
        // first simulator call: cumulative 1, 2, ... 60
        assert!(hook(60, 0.5).is_continue());
        assert_eq!(ctx.steps(), 60);
        // second call restarts its counter: 10 fresh steps, not a rollback
        assert!(hook(10, 0.1).is_continue());
        assert_eq!(ctx.steps(), 70);
        // pushing past the budget breaks with the budget message
        let broke = hook(50, 0.2);
        assert!(matches!(broke, std::ops::ControlFlow::Break(ref m) if m.contains("budget")));
    }

    #[test]
    fn metrics_record_in_call_order_and_drain_once() {
        let ctx = JobCtx::new(0, 1, JobBudget::unlimited());
        ctx.record_metric("events", 10.0);
        ctx.record_metric("final_time", 2.5);
        ctx.record_metric("events", 12.0); // duplicates are kept
        assert_eq!(
            ctx.take_metrics(),
            vec![
                ("events".to_string(), 10.0),
                ("final_time".to_string(), 2.5),
                ("events".to_string(), 12.0),
            ]
        );
        assert!(ctx.take_metrics().is_empty(), "drained exactly once");
    }

    #[test]
    fn cancel_token_trips_check_and_step_hook() {
        let token = CancelToken::new();
        let ctx = JobCtx::with_cancel(0, 1, JobBudget::unlimited(), Some(token.clone()));
        assert!(ctx.check().is_ok());
        let hook = ctx.step_hook();
        assert!(hook(5, 0.1).is_continue());
        token.cancel();
        assert!(matches!(ctx.check(), Err(JobError::Cancelled(_))));
        let broke = hook(10, 0.2);
        assert!(matches!(broke, std::ops::ControlFlow::Break(ref m) if m.contains("cancelled")));
    }

    #[test]
    fn error_display_is_informative() {
        let e = JobError::failed("port `y` missing");
        assert_eq!(e.to_string(), "job failed: port `y` missing");
        let b = JobError::BudgetExceeded("steps 11 > limit 10".into());
        assert!(b.to_string().contains("budget exceeded"));
    }
}
