//! Hybrid ODE/SSA multiscale simulation.
//!
//! The paper's clocked schemes are intrinsically multiscale: the clock and
//! indicator species churn through millions of fast, effectively
//! continuous reaction events while the computation species fire rarely —
//! pure SSA burns its event budget on the clock, pure ODE loses the
//! discreteness of the computation. This engine partitions the network:
//! *fast* reactions (structurally reversible pairs whose propensities
//! exceed a discreteness threshold) are integrated as a continuous
//! subsystem with a Rosenbrock ode23s stepper (Shampine & Reichelt, SIAM
//! J. Sci. Comput. 1997) over the shared sparse LU, while *slow* reactions
//! fire as exact discrete events whose propensities are evaluated against
//! the evolving continuous state.
//!
//! The fast step stays on the second-order ode23s on purpose, while the
//! pure ODE engine moved to RODAS4: the slow channels integrate their
//! propensities by a trapezoid over each accepted fast step, so steps
//! about 5× longer would change the slow-event statistics, and no oracle
//! here checks those yet. It moves once an exact-distribution
//! (finite-state-projection) oracle can show the change is harmless.
//!
//! Slow events are drawn by time rescaling (the "next reaction density"
//! method): one Exp(1) variate `E` is drawn per event, the integral
//! `∫ a_slow(x(t)) dt` is accumulated with the trapezoid rule over
//! accepted ODE steps, and the event fires when the integral reaches `E`
//! (the in-step firing time solves the trapezoid quadratic; the state is
//! interpolated linearly, the same order as recorded samples). The RNG is
//! consumed strictly in event order — two draws per slow event — so runs
//! are deterministic per seed regardless of step-size history.
//!
//! When the partition is forced all-slow (or auto-partitioning finds no
//! structurally reversible candidates at all), the run delegates wholesale
//! to the exact SSA core and is *bit-identical* to
//! [`SimMethod::Ssa`](crate::SimMethod::Ssa) with the same options — the
//! contract the property tests pin down.

// Index loops mirror the textbook Rosenbrock formulas and the reaction
// numbering; iterator chains would obscure them (same policy as `ode`).
#![allow(clippy::needless_range_loop)]

use crate::compiled::CompiledCrn;
use crate::metrics::{sinks_eq, MetricsSink, SimMetrics};
use crate::ode::{OdeWorkspace, StepHook};
use crate::ssa::{run_ssa, select_reaction, SsaOptions};
use crate::stiff::{Factored, Symbolic};
use crate::tau_implicit::find_reverse_pairs;
use crate::{Schedule, SimError, State, Trace};
use molseq_crn::Crn;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::ControlFlow;

/// Default propensity scale above which a reversible pair is routed to the
/// continuous side: at ≥ 100 expected firings per time unit the pair's
/// discreteness is invisible next to its churn.
pub const DEFAULT_DISCRETENESS_THRESHOLD: f64 = 100.0;

/// ode23s's diagonal `d = 1 / (2 + √2)`: the fast step factors
/// `W = I − h·d·J`.
const D: f64 = 0.2928932188134524;
/// ode23s's `e32 = 6 + √2`.
const C32: f64 = 7.414213562373095;

/// Options controlling one hybrid ODE/SSA run.
///
/// # Examples
///
/// ```
/// use molseq_kinetics::HybridOptions;
///
/// let opts = HybridOptions::default().with_t_end(20.0).with_seed(7);
/// assert_eq!(opts.t_end(), 20.0);
/// ```
#[derive(Clone, Copy)]
pub struct HybridOptions<'h> {
    t_start: f64,
    t_end: f64,
    record_interval: f64,
    h_max: f64,
    rtol: f64,
    atol: f64,
    max_steps: usize,
    max_events: usize,
    seed: u64,
    /// `Some(mask)`: reaction `j` is integrated continuously iff
    /// `mask[j]`; no automatic repartitioning. `None`: partition
    /// automatically from the reverse-pair structure and the current
    /// propensities.
    partition: Option<&'h [bool]>,
    repartition_interval: f64,
    discreteness_threshold: f64,
    step_hook: Option<StepHook<'h>>,
    metrics: Option<MetricsSink<'h>>,
}

impl std::fmt::Debug for HybridOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HybridOptions")
            .field("t_start", &self.t_start)
            .field("t_end", &self.t_end)
            .field("record_interval", &self.record_interval)
            .field("h_max", &self.h_max)
            .field("rtol", &self.rtol)
            .field("atol", &self.atol)
            .field("max_steps", &self.max_steps)
            .field("max_events", &self.max_events)
            .field("seed", &self.seed)
            .field("partition", &self.partition)
            .field("repartition_interval", &self.repartition_interval)
            .field("discreteness_threshold", &self.discreteness_threshold)
            .field("step_hook", &self.step_hook.map(|_| "<hook>"))
            .field("metrics", &self.metrics.map(|_| "<sink>"))
            .finish()
    }
}

impl PartialEq for HybridOptions<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.t_start == other.t_start
            && self.t_end == other.t_end
            && self.record_interval == other.record_interval
            && self.h_max == other.h_max
            && self.rtol == other.rtol
            && self.atol == other.atol
            && self.max_steps == other.max_steps
            && self.max_events == other.max_events
            && self.seed == other.seed
            && self.partition == other.partition
            && self.repartition_interval == other.repartition_interval
            && self.discreteness_threshold == other.discreteness_threshold
            && crate::ode::hooks_eq(self.step_hook, other.step_hook)
            && sinks_eq(self.metrics, other.metrics)
    }
}

impl Default for HybridOptions<'_> {
    /// Span `[0, 10]`, recording every `0.1`, `h_max = 0.25`,
    /// `rtol = 1e-6` / `atol = 1e-9`, 20 million ODE-step and 50 million
    /// slow-event budgets, seed `0`, automatic partitioning with threshold
    /// [`DEFAULT_DISCRETENESS_THRESHOLD`] re-evaluated every 1/64 of the
    /// span.
    fn default() -> Self {
        HybridOptions {
            t_start: 0.0,
            t_end: 10.0,
            record_interval: 0.1,
            h_max: 0.25,
            rtol: 1e-6,
            atol: 1e-9,
            max_steps: 20_000_000,
            max_events: 50_000_000,
            seed: 0,
            partition: None,
            repartition_interval: 0.0,
            discreteness_threshold: DEFAULT_DISCRETENESS_THRESHOLD,
            step_hook: None,
            metrics: None,
        }
    }
}

impl<'h> HybridOptions<'h> {
    /// Sets the start time (builder style).
    #[must_use]
    pub fn with_t_start(mut self, t: f64) -> Self {
        self.t_start = t;
        self
    }

    /// Sets the end time (builder style).
    #[must_use]
    pub fn with_t_end(mut self, t: f64) -> Self {
        self.t_end = t;
        self
    }

    /// Sets the sampling interval (builder style).
    #[must_use]
    pub fn with_record_interval(mut self, dt: f64) -> Self {
        self.record_interval = dt;
        self
    }

    /// Sets the maximum continuous step size (builder style). Besides
    /// bounding the fast subsystem's truncation error it bounds how far
    /// the trapezoid accumulation of the slow propensity integral can
    /// stretch over one step.
    #[must_use]
    pub fn with_h_max(mut self, h: f64) -> Self {
        self.h_max = h;
        self
    }

    /// Sets the relative error tolerance of the fast subsystem (builder
    /// style).
    #[must_use]
    pub fn with_rtol(mut self, rtol: f64) -> Self {
        self.rtol = rtol;
        self
    }

    /// Sets the absolute error tolerance of the fast subsystem (builder
    /// style).
    #[must_use]
    pub fn with_atol(mut self, atol: f64) -> Self {
        self.atol = atol;
        self
    }

    /// Sets the continuous trial-step budget (builder style).
    #[must_use]
    pub fn with_max_steps(mut self, n: usize) -> Self {
        self.max_steps = n;
        self
    }

    /// Sets the slow-event budget (builder style).
    #[must_use]
    pub fn with_max_events(mut self, n: usize) -> Self {
        self.max_events = n;
        self
    }

    /// Sets the random seed (builder style). Runs are deterministic in the
    /// seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Forces the reaction partition (builder style): reaction `j` is
    /// integrated continuously iff `mask[j]`, and automatic repartitioning
    /// is disabled. `mask.len()` must equal the network's reaction count.
    /// An all-`false` mask reproduces pure SSA bit-identically.
    #[must_use]
    pub fn with_partition(mut self, mask: &'h [bool]) -> Self {
        self.partition = Some(mask);
        self
    }

    /// Sets how often (in simulated time) the automatic partition is
    /// re-evaluated (builder style). `0.0` picks 1/64 of the span;
    /// `f64::INFINITY` partitions once at the start and never again.
    /// Ignored when a partition override is installed.
    #[must_use]
    pub fn with_repartition_interval(mut self, dt: f64) -> Self {
        self.repartition_interval = dt;
        self
    }

    /// Sets the propensity scale above which a structurally reversible
    /// pair is routed to the continuous side (builder style). The pair
    /// `(j, q)` goes fast when `max(a_j, a_q)` meets the threshold — max,
    /// not min, so a pair relaxing *towards* equilibrium (one direction
    /// still starved) is already absorbed by the ODE.
    #[must_use]
    pub fn with_discreteness_threshold(mut self, a: f64) -> Self {
        self.discreteness_threshold = a;
        self
    }

    /// Installs a cooperative interruption hook (builder style), polled
    /// once per continuous trial step and once per slow event with
    /// `(cumulative steps + events, current time)`. See [`StepHook`].
    #[must_use]
    pub fn with_step_hook(mut self, hook: StepHook<'h>) -> Self {
        self.step_hook = Some(hook);
        self
    }

    /// Installs a metrics sink (builder style). On every exit path —
    /// success or error — the simulator absorbs its work counters into the
    /// sink. See [`SimMetrics`].
    #[must_use]
    pub fn with_metrics(mut self, sink: MetricsSink<'h>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// The configured start time.
    #[must_use]
    pub fn t_start(&self) -> f64 {
        self.t_start
    }

    /// The configured end time.
    #[must_use]
    pub fn t_end(&self) -> f64 {
        self.t_end
    }

    /// The configured recording interval.
    #[must_use]
    pub fn record_interval(&self) -> f64 {
        self.record_interval
    }

    /// The configured maximum continuous step size.
    #[must_use]
    pub fn h_max(&self) -> f64 {
        self.h_max
    }

    /// The configured continuous trial-step budget.
    #[must_use]
    pub fn max_steps(&self) -> usize {
        self.max_steps
    }

    /// The configured slow-event budget.
    #[must_use]
    pub fn max_events(&self) -> usize {
        self.max_events
    }

    /// The configured random seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The forced partition mask, if any.
    #[must_use]
    pub fn partition(&self) -> Option<&'h [bool]> {
        self.partition
    }

    /// The configured repartition interval (`0.0` = automatic).
    #[must_use]
    pub fn repartition_interval(&self) -> f64 {
        self.repartition_interval
    }

    /// The configured discreteness threshold.
    #[must_use]
    pub fn discreteness_threshold(&self) -> f64 {
        self.discreteness_threshold
    }

    /// The configured step hook, if any.
    #[must_use]
    pub fn step_hook(&self) -> Option<StepHook<'h>> {
        self.step_hook
    }

    /// The configured metrics sink, if any.
    #[must_use]
    pub fn metrics(&self) -> Option<MetricsSink<'h>> {
        self.metrics
    }
}

/// Reusable buffers for the hybrid engine's fast-subsystem stepper: the
/// shared minimum-degree symbolic factorization, the packed `W` factor
/// with its lazily allocated dense fallback, and the ode23s stage
/// vectors, sized once per network and recycled across runs via
/// [`OdeWorkspace`]. Unlike the pure-ODE stepper there is no Jacobian,
/// LU or first-stage derivative cache across steps — the masked drift
/// changes with every repartition and every slow firing, so each trial
/// step evaluates, assembles and factors fresh.
pub(crate) struct HybridWork {
    n: usize,
    reaction_count: usize,
    sym: Symbolic,
    /// Masked propensity-drift Jacobian nonzeros over the full shared CSR
    /// pattern (slots of excluded reactions stay zero).
    jac_vals: Vec<f64>,
    lu: Factored,
    f0: Vec<f64>,
    f1: Vec<f64>,
    f2: Vec<f64>,
    k1: Vec<f64>,
    k2: Vec<f64>,
    k3: Vec<f64>,
    ytmp: Vec<f64>,
    bperm: Vec<f64>,
    factorizations: u64,
    /// Structural reverse pairs — the automatic partition's candidate set,
    /// computed once per network.
    pub(crate) paired: Vec<Option<usize>>,
    /// The advanced solution of the trial step.
    pub(crate) y_new: Vec<f64>,
    err: Vec<f64>,
}

impl HybridWork {
    pub(crate) fn new(compiled: &CompiledCrn) -> Self {
        let n = compiled.species_count();
        let sym = Symbolic::new(compiled);
        HybridWork {
            n,
            reaction_count: compiled.reaction_count(),
            jac_vals: vec![0.0; compiled.jacobian_nnz()],
            lu: Factored::new(&sym),
            sym,
            f0: vec![0.0; n],
            f1: vec![0.0; n],
            f2: vec![0.0; n],
            k1: vec![0.0; n],
            k2: vec![0.0; n],
            k3: vec![0.0; n],
            ytmp: vec![0.0; n],
            bperm: vec![0.0; n],
            factorizations: 0,
            paired: find_reverse_pairs(compiled),
            y_new: vec![0.0; n],
            err: vec![0.0; n],
        }
    }

    /// Whether this workspace (buffer sizes *and* symbolic elimination
    /// structure) was built for `compiled`.
    pub(crate) fn matches(&self, compiled: &CompiledCrn) -> bool {
        self.jac_vals.len() == compiled.jacobian_nnz()
            && self.reaction_count == compiled.reaction_count()
            && self.sym.matches(compiled)
    }

    pub(crate) fn factorizations(&self) -> u64 {
        self.factorizations
    }

    /// One ode23s trial step of size `h` from `y` over the fast
    /// subsystem's drift `Σ_{fast} ν_j·a_j(x)`. Fills `y_new` and `err`;
    /// returns `false` when `W = I − h·d·J` is singular even for the
    /// pivoted dense fallback (caller shrinks the step).
    fn step(&mut self, compiled: &CompiledCrn, fast: &[bool], y: &[f64], h: f64) -> bool {
        let n = self.n;
        compiled.propensity_jacobian_sparse_masked(y, &mut self.jac_vals, fast);
        if !self.lu.factor(&self.sym, compiled, &self.jac_vals, h * D) {
            return false;
        }
        self.factorizations += 1;

        compiled.propensity_drift_masked(y, &mut self.f0, fast);
        self.k1.copy_from_slice(&self.f0);
        self.lu.solve(&self.sym, &mut self.k1, &mut self.bperm);

        for i in 0..n {
            self.ytmp[i] = y[i] + 0.5 * h * self.k1[i];
        }
        compiled.propensity_drift_masked(&self.ytmp, &mut self.f1, fast);
        for i in 0..n {
            self.k2[i] = self.f1[i] - self.k1[i];
        }
        self.lu.solve(&self.sym, &mut self.k2, &mut self.bperm);
        for i in 0..n {
            self.k2[i] += self.k1[i];
        }

        for i in 0..n {
            self.y_new[i] = y[i] + h * self.k2[i];
        }
        compiled.propensity_drift_masked(&self.y_new, &mut self.f2, fast);
        for i in 0..n {
            self.k3[i] =
                self.f2[i] - C32 * (self.k2[i] - self.f1[i]) - 2.0 * (self.k1[i] - self.f0[i]);
        }
        self.lu.solve(&self.sym, &mut self.k3, &mut self.bperm);

        for i in 0..n {
            self.err[i] = h / 6.0 * (self.k1[i] - 2.0 * self.k2[i] + self.k3[i]);
        }
        true
    }

    /// Max over components of `|err| / (atol + rtol·max(|y|, |y_new|))`.
    fn error_ratio(&self, y: &[f64], rtol: f64, atol: f64) -> f64 {
        let mut worst = 0.0f64;
        for i in 0..self.n {
            let scale = atol + rtol * y[i].abs().max(self.y_new[i].abs());
            worst = worst.max(self.err[i].abs() / scale);
        }
        worst
    }
}

/// One Exp(1) variate, consuming exactly one `f64` draw — the waiting-time
/// "budget" that the slow propensity integral must fill before the next
/// event fires. `1 − u ∈ (0, 1]` keeps the logarithm finite, the same
/// guard the SSA core uses.
fn exp_draw(rng: &mut StdRng) -> f64 {
    let u: f64 = 1.0 - rng.random::<f64>();
    -u.ln()
}

/// Total propensity of the slow (discrete) reactions at `x`.
fn slow_total(compiled: &CompiledCrn, fast: &[bool], x: &[f64]) -> f64 {
    let mut a0 = 0.0;
    for j in 0..compiled.reaction_count() {
        if !fast[j] {
            a0 += compiled.propensity_f(j, x);
        }
    }
    a0
}

/// Recomputes the automatic partition at state `x` into `fresh`: a
/// structurally reversible pair goes to the continuous side when the
/// larger of its two propensities meets the threshold. Returns `true` if
/// `fresh` differs from `current`.
fn auto_partition(
    compiled: &CompiledCrn,
    paired: &[Option<usize>],
    x: &[f64],
    threshold: f64,
    current: &[bool],
    fresh: &mut Vec<bool>,
) -> bool {
    fresh.clear();
    fresh.resize(paired.len(), false);
    for (j, partner) in paired.iter().enumerate() {
        if let Some(q) = partner {
            let scale = compiled
                .propensity_f(j, x)
                .max(compiled.propensity_f(*q, x));
            if scale >= threshold {
                fresh[j] = true;
            }
        }
    }
    fresh.as_slice() != current
}

/// Solves the trapezoid quadratic `a_start·s + (a_end − a_start)·s²/(2h) =
/// target` for the in-step firing offset `s ∈ (0, h]`. The caller
/// guarantees the full-step integral reaches `target`, so a real root in
/// range exists; the expanded form `2·target / (a_start + √disc)` is the
/// numerically stable first crossing for either sign of the slope.
fn event_offset(a_start: f64, a_end: f64, h: f64, target: f64) -> f64 {
    let slope = (a_end - a_start) / h;
    let disc = (a_start * a_start + 2.0 * slope * target).max(0.0);
    let denom = a_start + disc.sqrt();
    let s = if denom > 0.0 { 2.0 * target / denom } else { h };
    if s.is_finite() {
        s.clamp(0.0, h)
    } else {
        h
    }
}

/// Validated entry point over a precompiled network: what the
/// [`Simulation`](crate::Simulation) builder dispatches to for
/// [`SimMethod::Hybrid`](crate::SimMethod::Hybrid).
///
/// # Panics
///
/// Panics if the schedule contains triggers (like the tau-leapers, the
/// hybrid engine does not support event triggers).
#[allow(clippy::too_many_lines)]
pub(crate) fn run_hybrid(
    crn: &Crn,
    compiled: &CompiledCrn,
    init: &State,
    schedule: &Schedule,
    opts: &HybridOptions,
    workspace: &mut OdeWorkspace,
) -> Result<Trace, SimError> {
    assert!(
        schedule.triggers().is_empty(),
        "hybrid simulation does not support triggers"
    );
    if compiled.species_count() != crn.species_count() {
        return Err(SimError::DimensionMismatch {
            supplied: compiled.species_count(),
            expected: crn.species_count(),
        });
    }
    if init.len() != crn.species_count() {
        return Err(SimError::DimensionMismatch {
            supplied: init.len(),
            expected: crn.species_count(),
        });
    }
    if !opts.t_start.is_finite() || !opts.t_end.is_finite() || opts.t_end <= opts.t_start {
        return Err(SimError::BadTimeSpan {
            t_start: opts.t_start,
            t_end: opts.t_end,
        });
    }
    // The NaN-rejecting form: `!(x > 0)` also catches NaN. Numeric knobs
    // out of range surface as BadTimeSpan like the tau-leapers' do (the
    // builder has already rejected a bad record interval).
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    let bad_knob = !(opts.h_max > 0.0)
        || !(opts.rtol > 0.0)
        || !(opts.atol > 0.0)
        || !(opts.repartition_interval >= 0.0)
        || !(opts.discreteness_threshold >= 0.0);
    if bad_knob {
        return Err(SimError::BadTimeSpan {
            t_start: opts.t_start,
            t_end: opts.t_end,
        });
    }
    let m = compiled.reaction_count();
    if let Some(mask) = opts.partition {
        if mask.len() != m {
            return Err(SimError::DimensionMismatch {
                supplied: mask.len(),
                expected: m,
            });
        }
    }

    // A fixed all-slow partition — forced, or automatic with no
    // structurally reversible candidates at all — is exactly pure SSA;
    // route it through the exact core so it is bit-identical by
    // construction (same RNG stream, same recording).
    let delegate_to_ssa = match opts.partition {
        Some(mask) => mask.iter().all(|&f| !f),
        None => find_reverse_pairs(compiled).iter().all(Option::is_none),
    };
    if delegate_to_ssa {
        let mut ssa_opts = SsaOptions::default()
            .with_t_start(opts.t_start)
            .with_t_end(opts.t_end)
            .with_record_interval(opts.record_interval)
            .with_max_events(opts.max_events)
            .with_seed(opts.seed);
        if let Some(hook) = opts.step_hook {
            ssa_opts = ssa_opts.with_step_hook(hook);
        }
        if let Some(sink) = opts.metrics {
            ssa_opts = ssa_opts.with_metrics(sink);
        }
        return run_ssa(crn, compiled, init, schedule, &ssa_opts);
    }

    match &mut workspace.hybrid {
        Some(work) if work.matches(compiled) => {}
        slot => *slot = Some(HybridWork::new(compiled)),
    }
    let work = workspace.hybrid.as_mut().expect("prepared above");
    let (lu_before, fallbacks_before) = (work.factorizations(), work.lu.fallbacks());
    let n = compiled.species_count();
    let span = opts.t_end - opts.t_start;

    let auto = opts.partition.is_none();
    let repart_dt = if !auto || opts.repartition_interval.is_infinite() {
        f64::INFINITY
    } else if opts.repartition_interval > 0.0 {
        opts.repartition_interval
    } else {
        span / 64.0
    };

    let mut x: Vec<f64> = init.as_slice().to_vec();
    let mut x_prev = vec![0.0; n];
    let mut sample = vec![0.0; n];
    let mut fast: Vec<bool> = match opts.partition {
        Some(mask) => mask.to_vec(),
        None => {
            let mut fresh = Vec::new();
            auto_partition(
                compiled,
                &work.paired,
                &x,
                opts.discreteness_threshold,
                &[],
                &mut fresh,
            );
            fresh
        }
    };
    let mut fresh_mask: Vec<bool> = Vec::new();
    let mut fast_count = fast.iter().filter(|&&f| f).count();

    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut t = opts.t_start;
    let mut trace = Trace::new(crn);
    trace.push(t, &x);
    let injections = schedule.sorted_injections();
    let mut next_injection = 0usize;
    let mut next_record = opts.t_start + opts.record_interval;
    let mut next_repart = opts.t_start + repart_dt;
    let mut steps_used = 0usize;
    let mut events = 0usize;
    let mut metrics = SimMetrics {
        seed: opts.seed,
        final_time: opts.t_start,
        ..SimMetrics::default()
    };
    let mut failure = None;
    // The pending event's Exp(1) budget; the slow propensity integral is
    // accumulated against it across steps, segments and partition changes
    // (time rescaling keeps the residual memoryless).
    let mut exp_budget = exp_draw(&mut rng);
    let mut h_adaptive = (opts.record_interval.min(span / 100.0)).max(span * 1e-9);

    // Records a plateau (state constant since the last change) up to
    // `until`.
    macro_rules! record_plateau {
        ($until:expr) => {
            while next_record <= $until && next_record <= opts.t_end {
                trace.push(next_record, &x);
                next_record += opts.record_interval;
            }
        };
    }
    // Records samples interpolated between `x_prev` (at `$t_prev`) and `x`
    // (at `t`) for every record point reached by the accepted advance.
    macro_rules! record_interpolated {
        ($t_prev:expr, $h_taken:expr) => {
            while next_record <= t + 1e-12 {
                let alpha = if $h_taken > 0.0 {
                    ((next_record - $t_prev) / $h_taken).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                for ((s, &a), &b) in sample.iter_mut().zip(x_prev.iter()).zip(x.iter()) {
                    *s = a + alpha * (b - a);
                }
                trace.push(next_record, &sample);
                next_record += opts.record_interval;
            }
        };
    }

    'outer: while t < opts.t_end {
        let injection_time = injections.get(next_injection).map_or(f64::INFINITY, |inj| {
            inj.time.clamp(opts.t_start, opts.t_end)
        });
        let segment_end = opts.t_end.min(injection_time).min(next_repart);

        if fast_count == 0 {
            // Slow-only epoch: propensities are constant between firings,
            // so step analytically (exact exponential waiting times
            // against the residual budget — statistically identical to
            // SSA, though on the hybrid's RNG draw order).
            while t < segment_end {
                let a0 = slow_total(compiled, &fast, &x);
                let t_next = if a0 > 0.0 {
                    t + exp_budget / a0
                } else {
                    f64::INFINITY
                };
                if t_next >= segment_end {
                    if a0 > 0.0 {
                        exp_budget -= (segment_end - t) * a0;
                    }
                    record_plateau!(segment_end);
                    t = segment_end;
                    break;
                }
                if events >= opts.max_events {
                    failure = Some(SimError::StepLimitExceeded {
                        reached: t,
                        t_end: opts.t_end,
                        max_steps: opts.max_events,
                    });
                    break 'outer;
                }
                events += 1;
                metrics.hybrid_slow_events += 1;
                metrics.ssa_events += 1;
                if let Some(hook) = opts.step_hook {
                    if let ControlFlow::Break(reason) = hook((steps_used + events) as u64, t) {
                        failure = Some(SimError::Interrupted { time: t, reason });
                        break 'outer;
                    }
                }
                record_plateau!(t_next);
                t = t_next;
                metrics.final_time = t;
                let pick: f64 = rng.random::<f64>() * a0;
                let chosen = select_reaction(
                    m,
                    |j| {
                        if fast[j] {
                            0.0
                        } else {
                            compiled.propensity_f(j, &x)
                        }
                    },
                    pick,
                );
                for &(i, d) in compiled.changed_species(chosen) {
                    x[i] = (x[i] + d as f64).max(0.0);
                }
                exp_budget = exp_draw(&mut rng);
            }
        } else {
            // Mixed epoch: advance the fast subsystem by ode23s while
            // accumulating the slow propensity integral; fire inside the
            // step that fills the budget.
            while t < segment_end - 1e-15 {
                if steps_used >= opts.max_steps {
                    failure = Some(SimError::StepLimitExceeded {
                        reached: t,
                        t_end: opts.t_end,
                        max_steps: opts.max_steps,
                    });
                    break 'outer;
                }
                let h_cap = (segment_end - t).min(opts.h_max);
                let h_try = h_adaptive.min(h_cap).max(1e-14);
                let solvable = work.step(compiled, &fast, &x, h_try);
                steps_used += 1;
                if let Some(hook) = opts.step_hook {
                    if let ControlFlow::Break(reason) = hook((steps_used + events) as u64, t) {
                        failure = Some(SimError::Interrupted { time: t, reason });
                        break 'outer;
                    }
                }
                if !solvable {
                    metrics.ode_steps_rejected += 1;
                    h_adaptive = (h_try * 0.5).max(1e-14);
                    continue;
                }
                let err_ratio = work.error_ratio(&x, opts.rtol, opts.atol);
                if err_ratio > 1.0 {
                    metrics.ode_steps_rejected += 1;
                    let shrink = (0.9 * err_ratio.powf(-1.0 / 3.0)).clamp(0.1, 0.9);
                    h_adaptive = (h_try * shrink).max(1e-14);
                    continue;
                }
                // Accepted: project and check the trial endpoint before
                // committing to it.
                for (i, v) in work.y_new.iter_mut().enumerate() {
                    if !v.is_finite() {
                        failure = Some(SimError::NonFiniteState {
                            time: t + h_try,
                            species: i,
                        });
                        break 'outer;
                    }
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
                metrics.ode_steps_accepted += 1;
                metrics.hybrid_fast_steps += 1;
                let a_start = slow_total(compiled, &fast, &x);
                let a_end = slow_total(compiled, &fast, &work.y_new);
                let integral = 0.5 * h_try * (a_start + a_end);
                let grow = if err_ratio > 0.0 {
                    0.9 * err_ratio.powf(-1.0 / 3.0)
                } else {
                    5.0
                };
                if integral < exp_budget {
                    // No slow event inside this step.
                    exp_budget -= integral;
                    x_prev.copy_from_slice(&x);
                    x.copy_from_slice(&work.y_new);
                    let t_prev = t;
                    t += h_try;
                    metrics.final_time = t;
                    record_interpolated!(t_prev, h_try);
                    h_adaptive = (h_try * grow.clamp(0.2, 5.0)).min(opts.h_max);
                } else {
                    // The budget fills inside the step: find the firing
                    // offset, interpolate the state there, fire.
                    if events >= opts.max_events {
                        failure = Some(SimError::StepLimitExceeded {
                            reached: t,
                            t_end: opts.t_end,
                            max_steps: opts.max_events,
                        });
                        break 'outer;
                    }
                    let s = event_offset(a_start, a_end, h_try, exp_budget);
                    x_prev.copy_from_slice(&x);
                    let frac = if h_try > 0.0 { s / h_try } else { 1.0 };
                    for i in 0..n {
                        x[i] = (x_prev[i] + frac * (work.y_new[i] - x_prev[i])).max(0.0);
                    }
                    let t_prev = t;
                    t += s;
                    metrics.final_time = t;
                    record_interpolated!(t_prev, s);
                    events += 1;
                    metrics.hybrid_slow_events += 1;
                    metrics.ssa_events += 1;
                    let a_event = slow_total(compiled, &fast, &x);
                    if a_event > 0.0 {
                        let pick: f64 = rng.random::<f64>() * a_event;
                        let chosen = select_reaction(
                            m,
                            |j| {
                                if fast[j] {
                                    0.0
                                } else {
                                    compiled.propensity_f(j, &x)
                                }
                            },
                            pick,
                        );
                        for &(i, d) in compiled.changed_species(chosen) {
                            x[i] = (x[i] + d as f64).max(0.0);
                        }
                    }
                    exp_budget = exp_draw(&mut rng);
                    if let Some(hook) = opts.step_hook {
                        if let ControlFlow::Break(reason) = hook((steps_used + events) as u64, t) {
                            failure = Some(SimError::Interrupted { time: t, reason });
                            break 'outer;
                        }
                    }
                }
            }
            // The loop stops within 1e-15 of the boundary: snap to it so
            // injections and repartitions land at their scheduled times.
            if t < segment_end {
                record_plateau!(segment_end);
                t = segment_end;
            }
        }
        metrics.final_time = t;

        // Apply any injections scheduled at (or before) the reached time.
        let mut injected = false;
        while let Some(inj) = injections.get(next_injection) {
            if inj.time.clamp(opts.t_start, opts.t_end) <= t + 1e-12 {
                x[inj.species.index()] += inj.amount;
                next_injection += 1;
                injected = true;
            } else {
                break;
            }
        }
        if injected {
            trace.push(t, &x);
        }

        // Re-evaluate the automatic partition on schedule (and after
        // injections, whose jumps can shift the regime).
        if auto && (t + 1e-12 >= next_repart || injected) {
            while next_repart <= t + 1e-12 {
                next_repart += repart_dt;
            }
            if auto_partition(
                compiled,
                &work.paired,
                &x,
                opts.discreteness_threshold,
                &fast,
                &mut fresh_mask,
            ) {
                std::mem::swap(&mut fast, &mut fresh_mask);
                fast_count = fast.iter().filter(|&&f| f).count();
                metrics.hybrid_repartitions += 1;
            }
        }
    }

    // Flush the work counters even on failure: an interrupted or
    // step-limited run still reports what it cost.
    metrics.final_time = t;
    metrics.lu_factorizations = work.factorizations() - lu_before;
    metrics.dense_lu_fallbacks = work.lu.fallbacks() - fallbacks_before;
    SimMetrics::flush(opts.metrics, metrics);

    if let Some(e) = failure {
        return Err(e);
    }
    trace.push(t, &x);
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimMethod, SimSpec, Simulation};
    use std::cell::Cell;

    fn state_of(crn: &Crn, pairs: &[(&str, f64)]) -> State {
        let mut init = State::new(crn);
        for (name, v) in pairs {
            init.set(crn.find_species(name).expect("species"), *v);
        }
        init
    }

    /// The stiff clocked motif of experiments E13/E14: a reversible fast
    /// clock pair feeding a rare computation step.
    fn stiff_clock() -> (Crn, State) {
        let crn: Crn = "0 -> R @10000\nR + X -> X @100\nX -> Y @0.01"
            .parse()
            .expect("parses");
        let init = state_of(&crn, &[("X", 100.0)]);
        (crn, init)
    }

    #[test]
    fn reverse_pair_candidates_found_on_the_clock_motif() {
        let (crn, _) = stiff_clock();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let paired = find_reverse_pairs(&compiled);
        assert_eq!(paired[0], Some(1));
        assert_eq!(paired[1], Some(0));
        assert_eq!(paired[2], None);
    }

    #[test]
    fn empty_fast_partition_is_bit_identical_to_pure_ssa() {
        let crn: Crn = "X -> Y @slow\nY -> 0 @slow".parse().expect("parses");
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let init = state_of(&crn, &[("X", 40.0)]);
        for seed in [0u64, 7, 1234] {
            let mask = vec![false; compiled.reaction_count()];
            let hybrid = Simulation::new(&crn, &compiled)
                .init(&init)
                .options(
                    HybridOptions::default()
                        .with_t_end(5.0)
                        .with_seed(seed)
                        .with_partition(&mask),
                )
                .run()
                .expect("hybrid run");
            let ssa = Simulation::new(&crn, &compiled)
                .init(&init)
                .options(crate::SsaOptions::default().with_t_end(5.0).with_seed(seed))
                .run()
                .expect("ssa run");
            assert_eq!(hybrid, ssa, "seed {seed}");
        }
    }

    #[test]
    fn no_reversible_candidates_auto_delegates_to_ssa() {
        // an irreversible cascade has no reverse pairs: auto mode must be
        // bit-identical to SSA without any override
        let crn: Crn = "X -> Y @slow\nY -> Z @slow".parse().expect("parses");
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let init = state_of(&crn, &[("X", 30.0)]);
        let hybrid = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(HybridOptions::default().with_t_end(4.0).with_seed(11))
            .run()
            .expect("hybrid run");
        let ssa = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(crate::SsaOptions::default().with_t_end(4.0).with_seed(11))
            .run()
            .expect("ssa run");
        assert_eq!(hybrid, ssa);
    }

    #[test]
    fn all_fast_partition_matches_ode_within_tolerance() {
        // a reversible unimolecular pair: the combinatorial propensity
        // equals the mass-action flux exactly, so all-fast hybrid solves
        // the same ODE as the deterministic integrator
        let crn: Crn = "X -> Y @fast\nY -> X @slow".parse().expect("parses");
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let init = state_of(&crn, &[("X", 200.0)]);
        let mask = vec![true; compiled.reaction_count()];
        let hybrid = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(
                HybridOptions::default()
                    .with_t_end(2.0)
                    .with_partition(&mask),
            )
            .run()
            .expect("hybrid run");
        let ode = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(crate::OdeOptions::default().with_t_end(2.0))
            .run()
            .expect("ode run");
        let y = crn.find_species("Y").expect("species");
        for &tq in &[0.5, 1.0, 1.5, 2.0] {
            let a = hybrid.value_at(y, tq);
            let b = ode.value_at(y, tq);
            assert!(
                (a - b).abs() <= 1e-3 * b.abs().max(1.0),
                "t={tq}: hybrid {a} vs ode {b}"
            );
        }
    }

    #[test]
    fn same_seed_same_trace() {
        let (crn, init) = stiff_clock();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let opts = HybridOptions::default().with_t_end(2.0).with_seed(42);
        let run = || {
            Simulation::new(&crn, &compiled)
                .init(&init)
                .options(opts)
                .run()
                .expect("hybrid run")
        };
        assert_eq!(run(), run());
        // and through a recycled workspace
        let mut ws = OdeWorkspace::new();
        let a = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(opts)
            .workspace(&mut ws)
            .run()
            .expect("hybrid run");
        let b = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(opts)
            .workspace(&mut ws)
            .run()
            .expect("hybrid run");
        assert_eq!(a, b);
        assert_eq!(a, run());
    }

    #[test]
    fn auto_partition_routes_the_clock_to_the_ode_side() {
        let (crn, init) = stiff_clock();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let hybrid_sink = Cell::new(SimMetrics::default());
        let ssa_sink = Cell::new(SimMetrics::default());
        Simulation::new(&crn, &compiled)
            .init(&init)
            .options(
                HybridOptions::default()
                    .with_t_end(0.5)
                    .with_record_interval(0.05)
                    .with_seed(3)
                    .with_metrics(&hybrid_sink),
            )
            .run()
            .expect("hybrid run");
        Simulation::new(&crn, &compiled)
            .init(&init)
            .options(
                crate::SsaOptions::default()
                    .with_t_end(0.5)
                    .with_record_interval(0.05)
                    .with_seed(3)
                    .with_metrics(&ssa_sink),
            )
            .run()
            .expect("ssa run");
        let h = hybrid_sink.get();
        let s = ssa_sink.get();
        assert!(h.hybrid_fast_steps > 0, "clock must integrate as ODE");
        assert!(
            h.ssa_events * 5 <= s.ssa_events,
            "hybrid fired {} discrete events vs {} pure-SSA",
            h.ssa_events,
            s.ssa_events
        );
        assert_eq!(h.ssa_events, h.hybrid_slow_events);
    }

    #[test]
    fn hybrid_tracks_the_clock_mean_and_fires_the_slow_reaction() {
        // R equilibrates at k_in/k_out·X = 10000/(100·100) = 1; over t=10
        // the slow X->Y (rate 0.01·X ≈ 1/time) fires a handful of times.
        let (crn, init) = stiff_clock();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let trace = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(HybridOptions::default().with_t_end(10.0).with_seed(5))
            .run()
            .expect("hybrid run");
        let r = crn.find_species("R").expect("species");
        let y = crn.find_species("Y").expect("species");
        let r_final = trace.final_state()[r.index()];
        assert!(
            (r_final - 1.0).abs() < 0.3,
            "clock species should sit near its equilibrium 1.0, got {r_final}"
        );
        let y_final = trace.final_state()[y.index()];
        assert!(
            y_final > 0.0 && y_final < 40.0,
            "slow computation should fire a few discrete events, got {y_final}"
        );
        assert_eq!(y_final.fract(), 0.0, "slow firings change Y by integers");
    }

    #[test]
    fn partition_mask_length_is_validated() {
        let (crn, init) = stiff_clock();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mask = vec![false; 2]; // network has 3 reactions
        let err = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(HybridOptions::default().with_partition(&mask))
            .run()
            .expect_err("must reject");
        assert!(matches!(
            err,
            SimError::DimensionMismatch {
                supplied: 2,
                expected: 3
            }
        ));
    }

    #[test]
    fn bad_knobs_are_rejected() {
        let (crn, init) = stiff_clock();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        for opts in [
            HybridOptions::default().with_t_end(f64::NAN),
            HybridOptions::default().with_t_end(0.0),
            HybridOptions::default().with_rtol(-1.0),
            HybridOptions::default().with_h_max(f64::NAN),
            HybridOptions::default().with_repartition_interval(f64::NAN),
            HybridOptions::default().with_discreteness_threshold(-2.0),
        ] {
            let err = Simulation::new(&crn, &compiled)
                .init(&init)
                .options(opts)
                .run()
                .expect_err("must reject");
            assert!(matches!(err, SimError::BadTimeSpan { .. }), "{opts:?}");
        }
        // the builder rejects an unusable sampling interval for every
        // method, before the hybrid engine's own knob checks
        let err = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(HybridOptions::default().with_record_interval(0.0))
            .run()
            .expect_err("must reject");
        assert!(matches!(err, SimError::BadRecordInterval { .. }), "{err:?}");
    }

    #[test]
    fn injections_are_applied_and_recorded() {
        let (crn, init) = stiff_clock();
        let x = crn.find_species("X").expect("species");
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let schedule = Schedule::new().inject(1.0, x, 50.0);
        let trace = Simulation::new(&crn, &compiled)
            .init(&init)
            .schedule(&schedule)
            .options(HybridOptions::default().with_t_end(2.0).with_seed(9))
            .run()
            .expect("hybrid run");
        // X only decreases via the slow X->Y; the +50 jump must be visible
        assert!(trace.value_at(x, 1.5) > trace.value_at(x, 0.9) + 40.0);
    }

    #[test]
    fn event_offset_solves_the_trapezoid_quadratic() {
        // constant propensity: plain exponential waiting time
        let s = event_offset(2.0, 2.0, 1.0, 1.0);
        assert!((s - 0.5).abs() < 1e-12);
        // rising propensity from zero: s = sqrt(2·target/slope)
        let s = event_offset(0.0, 4.0, 2.0, 1.0);
        assert!((s - 1.0).abs() < 1e-12);
        // falling propensity: first crossing is before the midpoint slowdown
        let s = event_offset(4.0, 0.0, 2.0, 3.0);
        let integral = 4.0 * s - s * s; // a·s + slope·s²/2 with slope = −2
        assert!((integral - 3.0).abs() < 1e-12);
        assert!(s <= 2.0);
    }

    #[test]
    fn options_accessors_round_trip() {
        let mask = [true, false];
        let opts = HybridOptions::default()
            .with_t_start(1.0)
            .with_t_end(3.0)
            .with_record_interval(0.25)
            .with_h_max(0.5)
            .with_rtol(1e-4)
            .with_atol(1e-7)
            .with_max_steps(100)
            .with_max_events(200)
            .with_seed(17)
            .with_partition(&mask)
            .with_repartition_interval(2.0)
            .with_discreteness_threshold(50.0);
        assert_eq!(opts.t_start(), 1.0);
        assert_eq!(opts.t_end(), 3.0);
        assert_eq!(opts.record_interval(), 0.25);
        assert_eq!(opts.h_max(), 0.5);
        assert_eq!(opts.max_steps(), 100);
        assert_eq!(opts.max_events(), 200);
        assert_eq!(opts.seed(), 17);
        assert_eq!(opts.partition(), Some(&mask[..]));
        assert_eq!(opts.repartition_interval(), 2.0);
        assert_eq!(opts.discreteness_threshold(), 50.0);
        assert!(opts.step_hook().is_none());
        assert!(opts.metrics().is_none());
        assert_eq!(opts, opts);
        assert_ne!(opts, HybridOptions::default());
    }

    #[test]
    fn step_hook_interrupts_deterministically() {
        let (crn, init) = stiff_clock();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let hook: crate::StepHook = &|count, _t| {
            if count >= 10 {
                ControlFlow::Break("budget".to_string())
            } else {
                ControlFlow::Continue(())
            }
        };
        let err = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(
                HybridOptions::default()
                    .with_t_end(5.0)
                    .with_step_hook(hook),
            )
            .run()
            .expect_err("must interrupt");
        assert!(matches!(err, SimError::Interrupted { .. }));
    }

    #[test]
    fn explicit_hybrid_method_with_default_options_runs() {
        // A pair-free network: the builder's defaults-for-method path must
        // still produce a working run (which delegates wholesale to SSA).
        let crn: Crn = "X -> Y @slow".parse().expect("parses");
        let x = crn.find_species("X").expect("X");
        let mut init = State::new(&crn);
        init.set(x, 20.0);
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());

        let metrics = Cell::new(SimMetrics::default());
        let trace = Simulation::new(&crn, &compiled)
            .init(&init)
            .method(SimMethod::Hybrid)
            .metrics(&metrics)
            .run()
            .expect("runs");
        assert!(trace.len() > 1);
        assert!(metrics.get().ssa_events > 0, "decay events must have fired");
    }
}
