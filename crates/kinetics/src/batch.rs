//! Deterministic mass-action ODE integration: the one driver, running
//! N structurally identical cells in lock-step, one symbolic analysis,
//! structure-of-arrays state. A single cell is a batch of one lane.
//!
//! The method is the adaptive linearly implicit Rosenbrock method RODAS4,
//! order 4 with an embedded order-3 estimate, with the analytic
//! mass-action Jacobian (see [`crate::stiff`]). The networks in this
//! workspace mix rate constants spanning several orders of magnitude
//! (`k_fast/k_slow` up to 10⁵ in the robustness sweeps), which makes them
//! stiff: explicit steps would be stability-limited to `~1/(k_fast·X)`,
//! while a linearly implicit method steps over the fast transients at
//! accuracy-limited step sizes, chosen per lane by a predictive
//! (Gustafsson) step controller. Each lane's state is projected onto the
//! non-negative orthant after every accepted step; mass-action fluxes
//! already treat negative concentrations as zero, so the projection is a
//! stabilizer, not a model change. Recorded samples come from RODAS4's
//! own order-3 continuous extension over the step that holds them,
//! clamped the same way. A step that would fire a trigger at its end
//! ends at the crossing instead: the driver bisects the trigger's firing
//! predicate over the same extension, records samples up to that point,
//! continues from the extension's state there and fires the trigger at
//! that time (Hairer, Nørsett & Wanner, *Solving ODEs I*, §II.6).
//!
//! The rate-ratio sweeps behind the paper's figures simulate one network
//! under many rate bindings: every cell shares the CRN structure, hence
//! the Jacobian sparsity pattern, hence the minimum-degree symbolic
//! factorization of `W = I − h·γ·J`. [`run_ode_batch`] exploits that by
//! advancing up to `width` cells in lock-step through one Rosenbrock
//! driver: per attempted step it evaluates all lanes' fluxes and Jacobian
//! nonzeros with shared index decoding, assembles and factors every
//! stale lane's `W` in one pass over the shared packed elimination
//! structure, and runs RODAS4's six stages — right-hand sides and stage
//! solves — for all lanes at once ([`rodas4::stages`]). A batch of one
//! lane runs the scalar kernels (`CompiledCrn::derivative`,
//! `jacobian_sparse` and the packed `Symbolic::assemble`, `factor` and
//! `solve`), which the lane kernels reproduce bit for bit.
//!
//! State lives species-major, lane-contiguous (`x[i * width + l]`), so
//! the inner loops are stride-1 over lanes and autovectorize — no
//! intrinsics, plain `std`.
//!
//! **Determinism contract.** Every lane reproduces the one-lane run of
//! its cell *bit for bit*, at any batch width: lanes share index
//! structure, never floating-point values. Each lane keeps its own step
//! controller (`h` and its error history), Jacobian and `f(x)` freshness
//! flags, cached-LU key and metrics; everywhere the scalar kernels have a
//! data-dependent skip (zero flux, zero Jacobian partial, zero multiplier,
//! cached factorization), the lane kernels use a per-lane select of the
//! same condition, preserving even `-0.0` signs. The full-width `f(x)` pass
//! runs only when some attempting lane lacks a fresh one (a lane holds
//! one only after a rejection: an accepted step moves its state); a lane
//! that holds one gets the same bits from the pass again, since its
//! state has not moved. A lane that holds a recorded sample or a trigger
//! firing forms the continuous extension of its step on its own, and
//! locates the firing on it alone. Lanes that finish (at
//! `t_end` or on their stop hook), fail, or get budget-cut *retire*:
//! their state is zeroed (keeping the unmasked full-width arithmetic
//! finite) and they stop contributing bookkeeping, while surviving lanes
//! continue unperturbed.

use crate::compiled::CompiledCrn;
use crate::events::{Injection, TriggerRuntime};
use crate::metrics::SimMetrics;
use crate::ode::OdeOptions;
use crate::sim::check_record_interval;
use crate::stiff::{rodas4, Lu, Symbolic};
use crate::{Schedule, SimError, State, Trace};
use molseq_crn::Crn;
use std::ops::ControlFlow;

/// One cell of a batched run: its rate-bound network, initial state,
/// event schedule and integrator options.
///
/// All lanes passed to one [`run_ode_batch`] call must share the network
/// *structure* (same species, reactions and Jacobian pattern — e.g.
/// produced by [`CompiledCrn::rebind`] from one compilation); only the
/// rate constants, initial states, schedules and options may differ.
pub struct BatchLane<'a, 'h> {
    /// Rate-bound network for this lane.
    pub compiled: &'a CompiledCrn,
    /// Initial state (must match the network's species count).
    pub init: &'a State,
    /// Timed injections and condition triggers for this lane.
    pub schedule: &'a Schedule,
    /// Integrator options.
    pub options: OdeOptions<'h>,
}

/// Reusable integrator storage for every engine that solves with
/// `W = I − h·γ·J`: the ODE lanes' shared symbolic factorization and
/// structure-of-arrays buffers, the implicit tau-leaper's Newton buffers
/// and the hybrid engine's fast-subsystem stepper. Every part is sized
/// lazily by the engine that uses it, so a purely stochastic or purely
/// deterministic caller pays only for its own. `W`'s pivoted dense
/// fallbacks hold no `n×n` buffer until a stability guard first trips.
///
/// One workspace serves any number of runs, of any width, over any
/// networks (attach it with `Simulation::workspace`, or pass it to
/// [`run_ode_batch`]): buffers are (re)sized to the network of each call
/// and every cached numerical state is rebuilt on entry, so a reused
/// workspace produces bit-identical results to a fresh one, while
/// consecutive runs over one network structure pay no re-analysis and no
/// re-allocation.
#[derive(Default)]
pub struct OdeWorkspace {
    sym: Option<Symbolic>,
    /// SoA state and stage buffers, `n × width`, lane-contiguous.
    x: Vec<f64>,
    x_prev: Vec<f64>,
    ytmp: Vec<f64>,
    y_new: Vec<f64>,
    f0: Vec<f64>,
    solve_scratch: Vec<f64>,
    /// The stage increments `K_1..K_6`, stage-major, `n × width` each.
    k: Vec<f64>,
    /// Jacobian nonzeros, `nnz × width`.
    jac_vals: Vec<f64>,
    /// The packed `W` factors, `packed_len × width` (slot-major,
    /// lane-contiguous).
    w: Vec<f64>,
    /// Per-lane rate constants, `reactions × width`.
    ks: Vec<f64>,
    // width-long lane scratch
    flux: Vec<f64>,
    inv: Vec<f64>,
    mul: Vec<f64>,
    h_try: Vec<f64>,
    /// Per-lane `h·γ`.
    hd: Vec<f64>,
    need: Vec<bool>,
    okf: Vec<bool>,
    upd: Vec<bool>,
    solve_mask: Vec<bool>,
    dense_mask: Vec<bool>,
    attempting: Vec<bool>,
    step_fail: Vec<bool>,
    needs_jac: Vec<bool>,
    // n- and nnz-long single-lane scratch
    lane_buf: Vec<f64>,
    lane_jac: Vec<f64>,
    sample: Vec<f64>,
    /// One lane's continuous-extension coefficients `d2`, `d3`.
    d2: Vec<f64>,
    d3: Vec<f64>,
    /// Per-lane pivoted dense fallback factors. Each allocates its `n×n`
    /// buffer on its lane's first guard trip and keeps it across calls
    /// as capacity; it is numerically rebuilt whenever used.
    dense: Vec<Lu>,
    /// Newton solver buffers for the implicit tau-leaper; sized lazily by
    /// `run_tau_implicit`.
    pub(crate) newton: Option<crate::tau_implicit::NewtonWork>,
    /// Fast-subsystem stepper buffers for the hybrid ODE/SSA engine; sized
    /// lazily by `run_hybrid`.
    pub(crate) hybrid: Option<crate::hybrid::HybridWork>,
}

impl OdeWorkspace {
    /// An empty workspace; buffers are allocated on first use.
    #[must_use]
    pub fn new() -> Self {
        OdeWorkspace::default()
    }

    fn prepare(&mut self, reference: &CompiledCrn, wd: usize) {
        let sym = match &mut self.sym {
            Some(sym) if sym.matches(reference) => sym,
            slot => slot.insert(Symbolic::new(reference)),
        };
        let packed = sym.packed_len();
        let n = reference.species_count();
        let nnz = reference.jacobian_nnz();
        for buf in [
            &mut self.x,
            &mut self.x_prev,
            &mut self.ytmp,
            &mut self.y_new,
            &mut self.f0,
            &mut self.solve_scratch,
        ] {
            buf.clear();
            buf.resize(n * wd, 0.0);
        }
        self.k.clear();
        self.k.resize(6 * n * wd, 0.0);
        self.jac_vals.clear();
        self.jac_vals.resize(nnz * wd, 0.0);
        self.w.clear();
        self.w.resize(packed * wd, 0.0);
        for buf in [
            &mut self.flux,
            &mut self.inv,
            &mut self.mul,
            &mut self.h_try,
            &mut self.hd,
        ] {
            buf.clear();
            buf.resize(wd, 0.0);
        }
        for buf in [
            &mut self.need,
            &mut self.okf,
            &mut self.upd,
            &mut self.solve_mask,
            &mut self.dense_mask,
            &mut self.attempting,
            &mut self.step_fail,
            &mut self.needs_jac,
        ] {
            buf.clear();
            buf.resize(wd, false);
        }
        self.lane_buf.clear();
        self.lane_buf.resize(n, 0.0);
        self.lane_jac.clear();
        self.lane_jac.resize(nnz, 0.0);
        for buf in [&mut self.sample, &mut self.d2, &mut self.d3] {
            buf.clear();
            buf.resize(n, 0.0);
        }
        self.dense.resize_with(wd, Lu::default);
    }
}

/// Copies lane `l` of a lane-contiguous SoA buffer into a contiguous
/// single-cell buffer.
pub(crate) fn extract_lane(soa: &[f64], buf: &mut [f64], wd: usize, l: usize) {
    for (i, b) in buf.iter_mut().enumerate() {
        *b = soa[i * wd + l];
    }
}

/// Scatters a contiguous single-cell buffer back into lane `l` of a
/// lane-contiguous SoA buffer.
pub(crate) fn store_lane(soa: &mut [f64], buf: &[f64], wd: usize, l: usize) {
    for (i, &b) in buf.iter().enumerate() {
        soa[i * wd + l] = b;
    }
}

/// Everything one lane owns: its controller, caches, cursors and trace.
struct LaneState<'a, 'h> {
    compiled: &'a CompiledCrn,
    schedule: &'a Schedule,
    opts: OdeOptions<'h>,
    rtol: f64,
    atol: f64,
    injections: Vec<Injection>,
    next_injection: usize,
    triggers: TriggerRuntime,
    trace: Trace,
    metrics: SimMetrics,
    t: f64,
    segment_end: f64,
    control: StepControl,
    next_record: f64,
    steps_used: usize,
    /// `jac_vals` was evaluated at the current state.
    jac_fresh: bool,
    /// `f0` holds `f(x)` at the current state, from a rejected trial.
    f0_fresh: bool,
    /// The lane's factor of `W` is valid for `lu_h` and its current
    /// Jacobian; `lu_sparse` tells the packed factor from the dense one.
    lu_valid: bool,
    lu_sparse: bool,
    lu_h: f64,
    factorizations: u64,
    /// `Some(Ok(()))` once the trace is complete, `Some(Err)` on failure.
    done: Option<Result<(), SimError>>,
}

/// Checks one lane's dimensions, span and sampling interval.
fn validate(crn: &Crn, lane: &BatchLane) -> Result<(), SimError> {
    let opts = &lane.options;
    for supplied in [lane.compiled.species_count(), lane.init.len()] {
        if supplied != crn.species_count() {
            return Err(SimError::DimensionMismatch {
                supplied,
                expected: crn.species_count(),
            });
        }
    }
    if !opts.t_start().is_finite() || !opts.t_end().is_finite() || opts.t_end() <= opts.t_start() {
        return Err(SimError::BadTimeSpan {
            t_start: opts.t_start(),
            t_end: opts.t_end(),
        });
    }
    check_record_interval(opts.record_interval())
}

impl<'a, 'h> LaneState<'a, 'h> {
    fn new(crn: &Crn, lane: &BatchLane<'a, 'h>) -> Self {
        let opts = lane.options;
        let (rtol, atol) = opts.tolerances();
        // validate before anything reads `init` by species index
        let done = validate(crn, lane).err().map(Err);
        let mut trace = Trace::with_capacity(crn, expected_records(&opts, lane.schedule));
        let triggers = if done.is_none() {
            trace.push(opts.t_start(), lane.init.as_slice());
            TriggerRuntime::new(lane.schedule, lane.init.as_slice())
        } else {
            TriggerRuntime::default()
        };
        LaneState {
            compiled: lane.compiled,
            schedule: lane.schedule,
            opts,
            rtol,
            atol,
            injections: lane.schedule.sorted_injections(),
            next_injection: 0,
            triggers,
            trace,
            metrics: SimMetrics::default(),
            t: opts.t_start(),
            segment_end: f64::NAN,
            control: StepControl::new(initial_step(&opts)),
            next_record: opts.t_start() + opts.record_interval(),
            steps_used: 0,
            jac_fresh: false,
            f0_fresh: false,
            lu_valid: false,
            lu_sparse: false,
            lu_h: f64::NAN,
            factorizations: 0,
            done,
        }
    }
}

/// Expected number of recorded samples, used to preallocate the trace:
/// one per recording interval plus one per injection plus the endpoints.
/// Trigger firings add a few more; the estimate is a capacity hint, not a
/// bound, and is capped so absurd intervals cannot over-reserve. A run
/// with a [`StopHook`](crate::StopHook) may end anywhere in its span, so
/// its trace grows with what it records instead.
fn expected_records(opts: &OdeOptions, schedule: &Schedule) -> usize {
    if opts.stop_hook().is_some() {
        return 0;
    }
    let span = opts.t_end() - opts.t_start();
    let dt = opts.record_interval();
    let regular = if dt.is_finite() && dt > 0.0 {
        (span / dt).ceil() as usize
    } else {
        0
    };
    (regular + schedule.injections().len() + 2).min(1 << 20)
}

/// The largest step. It keeps the horizon out of every step but the
/// last few: a step is clamped to the span's end only within `H_MAX` of
/// it, so a run stopped early by its [`StopHook`](crate::StopHook) has
/// taken the steps of a run to any longer horizon (the prefix argument
/// of DESIGN §7).
const H_MAX: f64 = 0.25;

/// Halvings of a step's `θ ∈ [0, 1]` that place a trigger firing on its
/// continuous extension: the firing lands within `2⁻⁴⁸·h` of its
/// crossing, far below any tolerance the controller accepts.
const LOCATE_BISECTIONS: u32 = 48;

/// The first trial step: the sampling interval, at most 1 % of the span.
fn initial_step(opts: &OdeOptions) -> f64 {
    let span = opts.t_end() - opts.t_start();
    (opts.record_interval().min(span / 100.0)).max(span * 1e-9)
}

/// One lane's step-size controller: the next trial step and the history
/// of accepted steps that the predictive rule reads.
///
/// A rejected trial shrinks the step by `clamp(0.9·err^(−1/4), 0.1, 0.9)`,
/// and a singular `W` halves it. An accepted trial grows it by
/// `clamp(min(0.9·err^(−1/4), 0.9·(h/h_acc)·err_acc^(1/4)·err^(−1/2)),
/// 0.2, 5)`, at most to [`H_MAX`]: the elementary rule with the exponent
/// of an order-3 estimate, bounded by Gustafsson's predictive factor,
/// which also reads the previous accepted step `h_acc` and its error
/// `err_acc`, floored at `1e-2` (Gustafsson, ACM TOMS 20, 1994; Hairer &
/// Wanner, *Solving ODEs II*, §IV.8, as Hairer's RODAS code applies it).
/// A lane's first accept has no history and takes the elementary rule
/// alone, and the first accept after a rejection never grows the step.
/// Where the error keeps rising from step to step, the predictive factor
/// shrinks the step before the next trial fails, which the elementary
/// rule, memoryless, does only after the failure.
struct StepControl {
    /// The next trial step, before the segment's and [`H_MAX`]'s caps.
    h: f64,
    /// The last accepted step and its error, floored at `1e-2`; `None`
    /// until the lane's first accept.
    last: Option<(f64, f64)>,
    /// The last trial was rejected.
    rejected: bool,
}

impl StepControl {
    fn new(h: f64) -> Self {
        StepControl {
            h,
            last: None,
            rejected: false,
        }
    }

    /// A trial of `h` accepted at error `err ≤ 1`.
    fn accept(&mut self, h: f64, err: f64) {
        // +∞ at err = 0, which the clamp takes to 5
        let mut grow = 0.9 * err.powf(-0.25);
        if let Some((h_acc, err_acc)) = self.last {
            grow = grow.min(0.9 * (h / h_acc) * err_acc.powf(0.25) * err.powf(-0.5));
        }
        let mut h_new = h * grow.clamp(0.2, 5.0);
        if self.rejected {
            h_new = h_new.min(h);
        }
        self.h = h_new.min(H_MAX);
        self.last = Some((h, err.max(1e-2)));
        self.rejected = false;
    }

    /// A trial of `h` rejected at error `err > 1`.
    fn reject(&mut self, h: f64, err: f64) {
        self.h = (h * (0.9 * err.powf(-0.25)).clamp(0.1, 0.9)).max(1e-14);
        self.rejected = true;
    }

    /// A trial of `h` whose `W` was singular: retry at half the step.
    fn fail(&mut self, h: f64) {
        self.h = (h * 0.5).max(1e-14);
        self.rejected = true;
    }
}

/// Finishes a lane: flushes its metrics (every exit path reports its
/// cost), records the retirement ordinal, marks it done and zeroes its
/// state lanes so the unmasked full-width stage arithmetic stays finite
/// for the survivors.
fn retire_lane(
    st: &mut LaneState,
    outcome: Result<(), SimError>,
    x: &mut [f64],
    wd: usize,
    l: usize,
    retired: &mut u64,
) {
    let n = st.compiled.species_count();
    st.metrics.final_time = st.t;
    st.metrics.lu_factorizations = st.factorizations;
    // a run of one lane reports no batch, as every scalar engine does
    st.metrics.batch_width = if wd > 1 { wd as u64 } else { 0 };
    st.metrics.lanes_retired = *retired;
    *retired += 1;
    SimMetrics::flush(st.opts.metrics_sink(), st.metrics);
    st.done = Some(outcome);
    for i in 0..n {
        x[i * wd + l] = 0.0;
    }
}

/// Ends a lane successfully at its current time, at `t_end` or on its
/// stop hook: flushes and retires it, then pushes its final sample.
fn complete_lane(
    st: &mut LaneState,
    x: &mut [f64],
    lane_buf: &mut [f64],
    wd: usize,
    l: usize,
    retired: &mut u64,
) {
    extract_lane(x, lane_buf, wd, l);
    retire_lane(st, Ok(()), x, wd, l, retired);
    st.trace.push(st.t, lane_buf);
}

/// Walks one lane through its between-steps bookkeeping until it is
/// either ready to attempt a step (returns `true`) or done (completed or
/// step-limited — returns `false` with `st.done` set). Between segments,
/// and at the end of the span before the lane completes, it applies the
/// injections due by then and polls the triggers.
fn advance_to_attempt(
    st: &mut LaneState,
    x: &mut [f64],
    lane_buf: &mut [f64],
    wd: usize,
    l: usize,
    retired: &mut u64,
) -> bool {
    loop {
        let t_end = st.opts.t_end();
        if st.t < t_end {
            // the next hard stop: injection time or end of span
            let segment_end = st
                .injections
                .get(st.next_injection)
                .map_or(t_end, |inj| inj.time.clamp(st.opts.t_start(), t_end));
            if segment_end > st.t && st.t < segment_end - 1e-15 {
                // about to attempt a step: the budget comes first
                if st.steps_used >= st.opts.max_steps() {
                    retire_lane(
                        st,
                        Err(SimError::StepLimitExceeded {
                            reached: st.t,
                            t_end,
                            max_steps: st.opts.max_steps(),
                        }),
                        x,
                        wd,
                        l,
                        retired,
                    );
                    return false;
                }
                st.segment_end = segment_end;
                return true;
            }
        }
        // segment boundary: apply due injections, then poll triggers
        let mut injected = false;
        while let Some(inj) = st.injections.get(st.next_injection) {
            if inj.time <= st.t + 1e-12 {
                x[inj.species.index() * wd + l] += inj.amount;
                st.next_injection += 1;
                injected = true;
            } else {
                break;
            }
        }
        if injected {
            extract_lane(x, lane_buf, wd, l);
            st.trace.push(st.t, lane_buf);
            let fired = st.triggers.poll(st.schedule, st.t, lane_buf);
            store_lane(x, lane_buf, wd, l);
            for f in fired {
                st.trace.push_mark(st.t, f);
            }
            // the state jumped: cached Jacobian and f(x) are for the
            // old state
            st.jac_fresh = false;
            st.f0_fresh = false;
        }
        if st.t >= t_end {
            complete_lane(st, x, lane_buf, wd, l, retired);
            return false;
        }
    }
}

/// Where on an accepted step of length `h` from `t_prev` a trigger firing
/// belongs: the smallest `θ ∈ (0, 1]` at which some trigger's firing
/// predicate ([`TriggerRuntime::would_fire`]) holds on the step's
/// continuous extension, at time `t_prev + θ·h`. Each trigger that would
/// fire on `end`, the step-end state that `θ = 1` stands for, is bisected
/// between the step's start, where the last poll left its predicate
/// false, and its end; the earliest wins. `extension(θ, out)` writes the
/// extension at `θ` into `out`, and `scratch` holds the bisection's
/// states.
fn locate_firing(
    triggers: &TriggerRuntime,
    schedule: &Schedule,
    t_prev: f64,
    h: f64,
    end: &[f64],
    scratch: &mut [f64],
    extension: impl Fn(f64, &mut [f64]),
) -> f64 {
    let mut first = 1.0f64;
    for i in 0..schedule.triggers().len() {
        if !triggers.would_fire(schedule, i, t_prev + h, end) {
            continue;
        }
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..LOCATE_BISECTIONS {
            let mid = 0.5 * (lo + hi);
            extension(mid, scratch);
            if triggers.would_fire(schedule, i, t_prev + mid * h, scratch) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        first = first.min(hi);
    }
    first
}

/// Integrates up to `lanes.len()` structurally identical cells in
/// lock-step through one shared symbolic analysis, returning one result
/// per lane in input order. See the module docs for the layout and the
/// determinism contract; each lane's trace, metrics and error behavior
/// are bit-identical to running it alone, as a batch of one lane — which
/// is what [`Simulation`](crate::Simulation) does for an ODE run.
///
/// # Panics
///
/// Panics if the lanes do not all share one network structure (callers
/// group by [`molseq_crn::Crn::structural_hash`]).
#[allow(clippy::too_many_lines)]
pub fn run_ode_batch<'h>(
    crn: &Crn,
    lanes: &[BatchLane<'_, 'h>],
    workspace: &mut OdeWorkspace,
) -> Vec<Result<Trace, SimError>> {
    let wd = lanes.len();
    if wd == 0 {
        return Vec::new();
    }
    let mut states: Vec<LaneState> = lanes.iter().map(|lane| LaneState::new(crn, lane)).collect();
    let Some(reference) = states.iter().find(|s| s.done.is_none()).map(|s| s.compiled) else {
        // every lane failed validation
        return states
            .into_iter()
            .map(|s| Err(s.done.expect("validated").expect_err("failed")))
            .collect();
    };
    let n = reference.species_count();
    for st in states.iter().filter(|s| s.done.is_none()) {
        let (rp, ci) = st.compiled.jacobian_pattern();
        let (rp0, ci0) = reference.jacobian_pattern();
        assert!(
            st.compiled.species_count() == n && rp == rp0 && ci == ci0,
            "run_ode_batch lanes must share one network structure"
        );
    }
    workspace.prepare(reference, wd);
    let OdeWorkspace {
        sym,
        x,
        x_prev,
        ytmp,
        y_new,
        f0,
        solve_scratch,
        k,
        jac_vals,
        w,
        ks,
        flux,
        inv,
        mul,
        h_try,
        hd,
        need,
        okf,
        upd,
        solve_mask,
        dense_mask,
        attempting,
        step_fail,
        needs_jac,
        lane_buf,
        lane_jac,
        sample,
        d2,
        d3,
        dense,
        ..
    } = workspace;
    let sym = sym.as_ref().expect("prepared above");
    {
        // per-lane rate constants; invalid lanes never step, any
        // structurally identical stand-in keeps the gather total
        let lane_refs: Vec<&CompiledCrn> = states
            .iter()
            .map(|s| {
                if s.done.is_none() {
                    s.compiled
                } else {
                    reference
                }
            })
            .collect();
        reference.gather_rates(&lane_refs, ks);
    }
    for (l, lane) in lanes.iter().enumerate() {
        if states[l].done.is_none() {
            store_lane(x, lane.init.as_slice(), wd, l);
        }
    }
    let mut retired: u64 = 0;

    loop {
        // --- bookkeeping: walk every live lane to its next attempt ---
        let mut any = false;
        for (l, st) in states.iter_mut().enumerate() {
            attempting[l] =
                st.done.is_none() && advance_to_attempt(st, x, lane_buf, wd, l, &mut retired);
            any |= attempting[l];
        }
        if !any {
            break;
        }

        // --- per-lane step-size selection ---
        x_prev.copy_from_slice(x);
        for (l, st) in states.iter().enumerate() {
            if attempting[l] {
                let h_cap = (st.segment_end - st.t).min(H_MAX);
                h_try[l] = st.control.h.min(h_cap).max(1e-14);
            }
            step_fail[l] = false;
        }

        // --- Jacobian refresh ---
        // A lane this pass does not need holds a Jacobian evaluated at its
        // *current* state (a rejected trial's), so the full-width
        // recompute reproduces its cached values bit for bit and the whole
        // batch shares one kernel pass.
        for (l, st) in states.iter().enumerate() {
            needs_jac[l] = attempting[l] && !st.jac_fresh;
        }
        if needs_jac.iter().any(|&b| b) {
            reference.jacobian_sparse_batch(ks, x, jac_vals, flux);
            for (l, st) in states.iter_mut().enumerate() {
                if needs_jac[l] {
                    st.jac_fresh = true;
                    // any cached factorization was built from old values
                    st.lu_valid = false;
                }
            }
        }

        // --- factorization (shared symbolic pass, masked per lane) ---
        for (l, st) in states.iter().enumerate() {
            need[l] = attempting[l] && (!st.lu_valid || st.lu_h != h_try[l]);
            hd[l] = h_try[l] * rodas4::GAMMA;
        }
        if need.iter().any(|&b| b) {
            // when every lane is either factored now or retired, no cached
            // w bits can ever be read again, so the kernels may take their
            // unmasked fast paths (needed lanes stay bit-identical)
            let all_need = states
                .iter()
                .enumerate()
                .all(|(l, st)| need[l] || st.done.is_some());
            sym.assemble_batch(jac_vals, hd, need, all_need, w);
            sym.factor_batch(w, need, okf, inv, mul, upd, all_need);
            for (l, st) in states.iter_mut().enumerate() {
                if !need[l] {
                    continue;
                }
                st.lu_valid = false;
                if okf[l] {
                    st.lu_sparse = true;
                    st.lu_valid = true;
                    st.lu_h = h_try[l];
                    st.factorizations += 1;
                } else {
                    // the guard tripped for this lane: rebuild its W
                    // unpermuted and fall back to the pivoted dense LU
                    st.metrics.dense_lu_fallbacks += 1;
                    extract_lane(jac_vals, lane_jac, wd, l);
                    if dense[l].factor_w(st.compiled, lane_jac, hd[l]) {
                        st.lu_sparse = false;
                        st.lu_valid = true;
                        st.lu_h = h_try[l];
                        st.factorizations += 1;
                    } else {
                        // singular W: this lane rejects and retries from
                        // an exact Jacobian at a smaller step
                        st.jac_fresh = false;
                        step_fail[l] = true;
                    }
                }
            }
        }
        // `all_solve`: every lane is either solved through the sparse sweep
        // or retired — the solve scatter can skip its write mask
        let mut all_solve = true;
        for (l, st) in states.iter().enumerate() {
            let live = attempting[l] && !step_fail[l] && st.lu_valid;
            solve_mask[l] = live && st.lu_sparse;
            dense_mask[l] = live && !st.lu_sparse;
            all_solve &= solve_mask[l] || st.done.is_some();
        }

        // --- the six RODAS4 stages, full width ---
        // A lane with a fresh f(x) holds exactly the bits the full-width
        // pass would give it, so the pass runs only for a lane without.
        if states
            .iter()
            .enumerate()
            .any(|(l, st)| attempting[l] && !st.f0_fresh)
        {
            reference.derivative_batch(ks, x, f0, flux);
            for (l, st) in states.iter_mut().enumerate() {
                st.f0_fresh |= attempting[l];
            }
        }
        rodas4::stages(
            x,
            f0,
            hd,
            k,
            ytmp,
            y_new,
            |y, out| reference.derivative_batch(ks, y, out, flux),
            |b| {
                stage_solve(
                    sym,
                    w,
                    b,
                    solve_scratch,
                    solve_mask,
                    all_solve,
                    dense_mask,
                    dense,
                    lane_buf,
                    wd,
                );
            },
        );
        let nw = n * wd;
        let err = &k[5 * nw..];

        // --- per-lane controller, projection, recording, triggers ---
        for (l, st) in states.iter_mut().enumerate() {
            if !attempting[l] {
                continue;
            }
            let (h_taken, accepted) = if step_fail[l] {
                st.control.fail(h_try[l]);
                (0.0, false)
            } else {
                let mut err_ratio = 0.0f64;
                for i in 0..n {
                    let scale =
                        st.atol + st.rtol * x[i * wd + l].abs().max(y_new[i * wd + l].abs());
                    err_ratio = err_ratio.max(err[i * wd + l].abs() / scale);
                }
                if err_ratio <= 1.0 {
                    // the state moved: the next step needs a fresh
                    // Jacobian and f(x)
                    for i in 0..n {
                        x[i * wd + l] = y_new[i * wd + l];
                    }
                    st.jac_fresh = false;
                    st.f0_fresh = false;
                    st.control.accept(h_try[l], err_ratio);
                    (h_try[l], true)
                } else {
                    st.control.reject(h_try[l], err_ratio);
                    (0.0, false)
                }
            };
            st.steps_used += 1;
            if accepted {
                st.metrics.ode_steps_accepted += 1;
            } else {
                st.metrics.ode_steps_rejected += 1;
            }
            if let Some(hook) = st.opts.step_hook() {
                if let ControlFlow::Break(reason) = hook(st.steps_used as u64, st.t) {
                    retire_lane(
                        st,
                        Err(SimError::Interrupted { time: st.t, reason }),
                        x,
                        wd,
                        l,
                        &mut retired,
                    );
                    continue;
                }
            }
            if !accepted {
                continue;
            }
            let t_prev = st.t;
            st.t += h_taken;
            let mut nonfinite = None;
            for i in 0..n {
                let v = x[i * wd + l];
                if !v.is_finite() {
                    nonfinite = Some(i);
                    break;
                }
                if v < 0.0 {
                    x[i * wd + l] = 0.0;
                }
            }
            if let Some(species) = nonfinite {
                retire_lane(
                    st,
                    Err(SimError::NonFiniteState {
                        time: st.t,
                        species,
                    }),
                    x,
                    wd,
                    l,
                    &mut retired,
                );
                continue;
            }
            // the step-end state, as a poll there sees it
            extract_lane(x, lane_buf, wd, l);
            let firing = (0..st.schedule.triggers().len())
                .any(|i| st.triggers.would_fire(st.schedule, i, st.t, lane_buf));
            if firing || st.next_record <= st.t + 1e-12 {
                // this lane's continuous extension
                for i in 0..n {
                    let kv = std::array::from_fn(|j| k[j * nw + i * wd + l]);
                    (d2[i], d3[i]) = rodas4::dense_coefficients(kv);
                }
            }
            let extension = |theta: f64, out: &mut [f64]| {
                for (i, o) in out.iter_mut().enumerate() {
                    *o =
                        rodas4::dense_value(x_prev[i * wd + l], x[i * wd + l], theta, d2[i], d3[i]);
                }
            };
            // a firing ends the step at its crossing: samples up to there
            // come from the whole step's extension, none after it
            let theta_stop = if firing {
                locate_firing(
                    &st.triggers,
                    st.schedule,
                    t_prev,
                    h_taken,
                    lane_buf,
                    sample,
                    extension,
                )
            } else {
                1.0
            };
            let t_stop = if theta_stop < 1.0 {
                t_prev + theta_stop * h_taken
            } else {
                st.t
            };
            while st.next_record <= t_stop + 1e-12 {
                let theta = ((st.next_record - t_prev) / h_taken).clamp(0.0, 1.0);
                extension(theta, sample);
                st.trace.push(st.next_record, sample);
                st.next_record += st.opts.record_interval();
            }
            if theta_stop < 1.0 {
                extension(theta_stop, lane_buf);
                st.t = t_stop;
            }
            let fired = st.triggers.poll(st.schedule, st.t, lane_buf);
            store_lane(x, lane_buf, wd, l);
            if firing {
                st.metrics.ode_events_located += fired.len() as u64;
            }
            for &f in &fired {
                st.trace.push_mark(st.t, f);
                st.trace.push(st.t, lane_buf);
            }
            if !fired.is_empty() {
                // queue injections may have jumped the state
                st.jac_fresh = false;
                st.f0_fresh = false;
            }
            if st.opts.stop_hook().is_some_and(|stop| stop(&st.trace)) {
                complete_lane(st, x, lane_buf, wd, l, &mut retired);
            }
        }
    }

    states
        .into_iter()
        .map(|st| match st.done.expect("driver drained every lane") {
            Ok(()) => Ok(st.trace),
            Err(e) => Err(e),
        })
        .collect()
}

/// Integrates one cell alone: a batch of one lane.
pub(crate) fn run_lane(
    crn: &Crn,
    lane: BatchLane<'_, '_>,
    workspace: &mut OdeWorkspace,
) -> Result<Trace, SimError> {
    run_ode_batch(crn, std::slice::from_ref(&lane), workspace)
        .pop()
        .expect("one lane, one result")
}

/// Solves one stage system for every live lane: sparse lanes through the
/// shared batched triangular sweeps (write-back masked to them), dense
/// fallback lanes extracted, solved scalar and scattered back.
#[allow(clippy::too_many_arguments)]
fn stage_solve(
    sym: &Symbolic,
    w: &[f64],
    b: &mut [f64],
    scratch: &mut [f64],
    solve_mask: &[bool],
    all_solve: bool,
    dense_mask: &[bool],
    dense: &[Lu],
    lane_buf: &mut [f64],
    wd: usize,
) {
    for (l, &is_dense) in dense_mask.iter().enumerate() {
        if is_dense {
            extract_lane(b, lane_buf, wd, l);
            dense[l].solve(lane_buf);
            store_lane(b, lane_buf, wd, l);
        }
    }
    sym.solve_batch(w, b, scratch, solve_mask, all_solve);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OdeOptions, SimSpec, Simulation};
    use molseq_crn::{Crn, RateAssignment};
    use std::cell::Cell;

    fn lane_opts(t_end: f64) -> OdeOptions<'static> {
        OdeOptions::default().with_t_end(t_end)
    }

    /// The cell run alone through the builder: a batch of one lane.
    fn solo(
        crn: &Crn,
        compiled: &CompiledCrn,
        init: &State,
        schedule: &Schedule,
        opts: &OdeOptions,
    ) -> Result<Trace, SimError> {
        Simulation::new(crn, compiled)
            .init(init)
            .schedule(schedule)
            .options(*opts)
            .run()
    }

    #[test]
    fn soa_pack_unpack_round_trips() {
        let wd = 4;
        let n = 5;
        let mut soa: Vec<f64> = (0..n * wd).map(|i| i as f64 * 0.5 - 3.0).collect();
        // include signed zero and subnormal bit patterns
        soa[0] = -0.0;
        soa[7] = f64::MIN_POSITIVE / 2.0;
        let reference = soa.clone();
        let mut buf = vec![0.0; n];
        for l in 0..wd {
            extract_lane(&soa, &mut buf, wd, l);
            store_lane(&mut soa, &buf, wd, l);
        }
        assert_eq!(
            soa.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            reference.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    /// A one-lane run through `run_ode_batch` is the builder's run, and a
    /// workspace that last held a wider batch of another network repeats
    /// it bit for bit.
    #[test]
    fn width_one_is_bit_identical_to_scalar() {
        // injections + a trigger exercise every bookkeeping path
        let crn: Crn = "A + B -> C @fast\nC -> A @slow\nA -> 0 @slow"
            .parse()
            .unwrap();
        let a = crn.find_species("A").unwrap();
        let b = crn.find_species("B").unwrap();
        let mut init = State::new(&crn);
        init.set(a, 2.0).set(b, 1.5);
        let schedule = Schedule::new()
            .inject(3.0, b, 2.0)
            .trigger(crate::Trigger::mark(crate::Condition::Above {
                species: crn.find_species("C").unwrap(),
                threshold: 0.4,
            }));
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let opts = lane_opts(12.0);
        let alone = solo(&crn, &compiled, &init, &schedule, &opts).unwrap();
        let mut ws = OdeWorkspace::new();
        let lanes = [BatchLane {
            compiled: &compiled,
            init: &init,
            schedule: &schedule,
            options: opts,
        }];
        let batched = run_ode_batch(&crn, &lanes, &mut ws).pop().unwrap().unwrap();
        assert_eq!(alone, batched);
        // dirty the workspace with three lanes of another network
        let other: Crn = "X -> 2X @slow\n2X -> X @fast".parse().unwrap();
        let other_compiled = CompiledCrn::new(&other, &SimSpec::default());
        let mut other_init = State::new(&other);
        other_init.set(other.find_species("X").unwrap(), 1.0);
        let other_lane = BatchLane {
            compiled: &other_compiled,
            init: &other_init,
            schedule: &Schedule::new(),
            options: opts,
        };
        let wide = [0, 1, 2].map(|_| BatchLane { ..other_lane });
        assert!(run_ode_batch(&other, &wide, &mut ws)
            .iter()
            .all(Result::is_ok));
        let again = run_ode_batch(&crn, &lanes, &mut ws).pop().unwrap().unwrap();
        assert_eq!(alone, again);
    }

    #[test]
    fn wide_batch_lanes_match_their_one_lane_runs_bitwise() {
        let crn: Crn = "X -> 2X @slow\n2X -> X @fast\nX -> 0 @slow"
            .parse()
            .unwrap();
        let xs = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(xs, 1.25);
        let base = CompiledCrn::new(&crn, &SimSpec::default());
        let ratios = [10.0, 100.0, 1e3, 1e4, 20.0, 300.0, 4e3];
        let compiled: Vec<CompiledCrn> = ratios
            .iter()
            .map(|&r| base.rebind(&SimSpec::new(RateAssignment::from_ratio(r))))
            .collect();
        let schedule = Schedule::new();
        let opts = lane_opts(8.0);
        let mut ws = OdeWorkspace::new();
        let lanes: Vec<BatchLane> = compiled
            .iter()
            .map(|c| BatchLane {
                compiled: c,
                init: &init,
                schedule: &schedule,
                options: opts,
            })
            .collect();
        let batched = run_ode_batch(&crn, &lanes, &mut ws);
        for (c, result) in compiled.iter().zip(batched) {
            let alone = solo(&crn, c, &init, &schedule, &opts).unwrap();
            assert_eq!(alone, result.unwrap());
        }
    }

    /// Each lane of a batch reports the work counters of its one-lane
    /// run; the batch width reads 0 for the run of one lane, as for every
    /// scalar engine, and the lane count for a batch.
    #[test]
    fn batched_metrics_match_scalar_counters() {
        let crn: Crn = "A -> B @fast\n0 -> A @slow".parse().unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let init = State::new(&crn);
        let schedule = Schedule::new();
        let scalar_sink = Cell::new(SimMetrics::default());
        let opts = lane_opts(5.0);
        solo(
            &crn,
            &compiled,
            &init,
            &schedule,
            &opts.with_metrics(&scalar_sink),
        )
        .unwrap();
        let batch_sinks = [(); 2].map(|()| Cell::new(SimMetrics::default()));
        let lanes = batch_sinks.each_ref().map(|sink| BatchLane {
            compiled: &compiled,
            init: &init,
            schedule: &schedule,
            options: opts.with_metrics(sink),
        });
        for result in run_ode_batch(&crn, &lanes, &mut OdeWorkspace::new()) {
            result.unwrap();
        }
        let s = scalar_sink.get();
        assert_eq!(s.batch_width, 0);
        assert_eq!(s.lanes_retired, 0);
        let mut order = Vec::new();
        for b in batch_sinks.each_ref().map(Cell::get) {
            assert_eq!(s.ode_steps_accepted, b.ode_steps_accepted);
            assert_eq!(s.ode_steps_rejected, b.ode_steps_rejected);
            assert_eq!(s.lu_factorizations, b.lu_factorizations);
            assert_eq!(s.final_time, b.final_time);
            assert_eq!(b.batch_width, 2);
            order.push(b.lanes_retired);
        }
        order.sort_unstable();
        assert_eq!(order, [0, 1]);
    }

    #[test]
    fn budget_cut_retires_one_lane_and_leaves_the_rest_bit_identical() {
        let crn: Crn = "X -> 2X @slow\n2X -> X @fast".parse().unwrap();
        let xs = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(xs, 1.0);
        let base = CompiledCrn::new(&crn, &SimSpec::default());
        let compiled: Vec<CompiledCrn> = [50.0, 500.0, 5000.0]
            .iter()
            .map(|&r| base.rebind(&SimSpec::new(RateAssignment::from_ratio(r))))
            .collect();
        let schedule = Schedule::new();
        let opts = lane_opts(6.0);
        // cut lane 1 after 10 attempted steps
        let hook = |steps: u64, _t: f64| {
            if steps >= 10 {
                ControlFlow::Break("budget".to_owned())
            } else {
                ControlFlow::Continue(())
            }
        };
        let cut_opts = opts.with_step_hook(&hook);
        let sink = Cell::new(SimMetrics::default());
        let lanes: Vec<BatchLane> = compiled
            .iter()
            .enumerate()
            .map(|(i, c)| BatchLane {
                compiled: c,
                init: &init,
                schedule: &schedule,
                options: if i == 1 {
                    cut_opts
                } else {
                    opts.with_metrics(&sink)
                },
            })
            .collect();
        let mut results = run_ode_batch(&crn, &lanes, &mut OdeWorkspace::new());
        let r2 = results.pop().unwrap();
        let r1 = results.pop().unwrap();
        let r0 = results.pop().unwrap();
        assert!(
            matches!(r1, Err(SimError::Interrupted { ref reason, .. }) if reason == "budget"),
            "{r1:?}"
        );
        // survivors match their one-lane runs exactly
        for (c, r) in [(&compiled[0], r0), (&compiled[2], r2)] {
            let alone = solo(&crn, c, &init, &schedule, &opts).unwrap();
            assert_eq!(alone, r.unwrap());
        }
        // the cut lane retired first: the survivors each saw one earlier
        // retirement, and both report the batch width
        let m = sink.get();
        assert_eq!(m.batch_width, 3);
        assert_eq!(m.lanes_retired, 1 + 2);
    }

    /// A lane whose stop hook fires retires `Ok` at its own time and
    /// matches its one-lane run with the same stop; the other lanes run
    /// on to `t_end` unperturbed.
    #[test]
    fn a_stopped_lane_retires_and_leaves_the_rest_bit_identical() {
        let crn: Crn = "X -> 2X @slow\n2X -> X @fast".parse().unwrap();
        let xs = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(xs, 1.0);
        let base = CompiledCrn::new(&crn, &SimSpec::default());
        let compiled: Vec<CompiledCrn> = [50.0, 500.0, 5000.0]
            .iter()
            .map(|&r| base.rebind(&SimSpec::new(RateAssignment::from_ratio(r))))
            .collect();
        let schedule = Schedule::new();
        let opts = lane_opts(6.0);
        let stop = |trace: &Trace| trace.len() > 20;
        let stop_opts = opts.with_stop_hook(&stop);
        let sinks: Vec<Cell<SimMetrics>> =
            (0..3).map(|_| Cell::new(SimMetrics::default())).collect();
        let lanes: Vec<BatchLane> = compiled
            .iter()
            .enumerate()
            .map(|(i, c)| BatchLane {
                compiled: c,
                init: &init,
                schedule: &schedule,
                options: if i == 1 { stop_opts } else { opts }.with_metrics(&sinks[i]),
            })
            .collect();
        let results = run_ode_batch(&crn, &lanes, &mut OdeWorkspace::new());
        for (i, (c, r)) in compiled.iter().zip(results).enumerate() {
            let alone_opts = if i == 1 { stop_opts } else { opts };
            let alone = solo(&crn, c, &init, &schedule, &alone_opts).unwrap();
            assert_eq!(alone, r.unwrap(), "lane {i}");
        }
        let m: Vec<SimMetrics> = sinks.iter().map(Cell::get).collect();
        assert!(m[1].final_time < m[0].final_time, "{m:?}");
        // each lane retired once, the stopped one among them
        let mut order: Vec<u64> = m.iter().map(|m| m.lanes_retired).collect();
        order.sort_unstable();
        assert_eq!(order, [0, 1, 2]);
    }

    /// A tripped no-pivot guard reaches the metrics sink, in a one-lane
    /// run and in a batch. The network's first pivot `1 − h·γ·k` cancels at a first
    /// step of 0.1 (the initial step at record interval 0.1), so the
    /// pivoted dense LU takes that step; at record interval 0.05 the
    /// same pivot is 0.5 and the first step stays sparse.
    #[test]
    fn a_tripped_guard_is_counted_scalar_and_in_a_lane() {
        let k = 1.0 / (0.1 * rodas4::GAMMA);
        let crn: Crn = format!("A -> 2A @{k}\n2A -> A @1\nB -> A + B @1\nA -> A + B @1\nB -> 0 @1")
            .parse()
            .unwrap();
        let mut init = State::new(&crn);
        init.set(crn.find_species("B").unwrap(), 1.0);
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let schedule = Schedule::new();
        let opts = [0.1, 0.05].map(|dt| lane_opts(10.0).with_record_interval(dt));
        let scalar_sinks = [(); 2].map(|()| Cell::new(SimMetrics::default()));
        let scalar: Vec<Trace> = opts
            .iter()
            .zip(&scalar_sinks)
            .map(|(o, sink)| {
                solo(&crn, &compiled, &init, &schedule, &o.with_metrics(sink)).unwrap()
            })
            .collect();
        let scalar_counts = scalar_sinks.each_ref().map(|s| s.get().dense_lu_fallbacks);
        assert!(
            scalar_counts[0] >= 1,
            "the guard must trip: {scalar_counts:?}"
        );

        let lane_sinks = [(); 2].map(|()| Cell::new(SimMetrics::default()));
        let lanes: Vec<BatchLane> = opts
            .iter()
            .zip(&lane_sinks)
            .map(|(o, sink)| BatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: o.with_metrics(sink),
            })
            .collect();
        let batched = run_ode_batch(&crn, &lanes, &mut OdeWorkspace::new());
        for (l, (s, b)) in scalar.iter().zip(batched).enumerate() {
            assert_eq!(s, &b.unwrap(), "lane {l}");
        }
        assert_eq!(
            lane_sinks.each_ref().map(|s| s.get().dense_lu_fallbacks),
            scalar_counts
        );
    }

    #[test]
    fn validation_errors_are_per_lane() {
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let xs = crn.find_species("X").unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut good_init = State::new(&crn);
        good_init.set(xs, 1.0);
        let bad_init = State::from_vec(vec![1.0, 2.0]);
        let schedule = Schedule::new();
        let opts = lane_opts(1.0);
        let bad_span = lane_opts(1.0).with_t_start(5.0);
        let lanes = [
            BatchLane {
                compiled: &compiled,
                init: &good_init,
                schedule: &schedule,
                options: opts,
            },
            BatchLane {
                compiled: &compiled,
                init: &bad_init,
                schedule: &schedule,
                options: opts,
            },
            BatchLane {
                compiled: &compiled,
                init: &good_init,
                schedule: &schedule,
                options: bad_span,
            },
        ];
        let results = run_ode_batch(&crn, &lanes, &mut OdeWorkspace::new());
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(SimError::DimensionMismatch { .. })
        ));
        assert!(matches!(results[2], Err(SimError::BadTimeSpan { .. })));
        let alone = solo(&crn, &compiled, &good_init, &schedule, &opts).unwrap();
        assert_eq!(&alone, results[0].as_ref().unwrap());
    }

    /// A trigger reads the state by species index, so a lane's short
    /// `init` must fail validation before its trigger runtime reads it:
    /// a `DimensionMismatch` for that lane, alone or beside a good one.
    #[test]
    fn a_short_init_with_a_trigger_fails_cleanly_per_lane() {
        let crn: Crn = "X -> Y @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let schedule = Schedule::new().trigger(crate::Trigger::mark(crate::Condition::Above {
            species: crn.find_species("Y").unwrap(),
            threshold: 0.5,
        }));
        let short = State::from_vec(vec![1.0]);
        let mut good = State::new(&crn);
        good.set(x, 1.0);
        let lane = |init| BatchLane {
            compiled: &compiled,
            init,
            schedule: &schedule,
            options: lane_opts(2.0),
        };
        let mut ws = OdeWorkspace::new();
        for lanes in [vec![lane(&short)], vec![lane(&good), lane(&short)]] {
            let results = run_ode_batch(&crn, &lanes, &mut ws);
            assert!(
                matches!(
                    results.last().unwrap(),
                    Err(SimError::DimensionMismatch {
                        supplied: 1,
                        expected: 2
                    })
                ),
                "{results:?}"
            );
            if lanes.len() == 2 {
                let alone = solo(&crn, &compiled, &good, &schedule, &lane_opts(2.0)).unwrap();
                assert_eq!(&alone, results[0].as_ref().unwrap());
            }
        }
    }

    /// An injection scheduled exactly at `t_end` lands before the lane
    /// completes, at every width: it adds one sample at `t_end` and its
    /// amount to the final state, which nothing integrates any further.
    #[test]
    fn an_injection_at_t_end_lands_at_every_width() {
        let crn: Crn = "X -> Y @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(x, 1.0);
        let none = Schedule::new();
        let at_end = Schedule::new().inject(2.0, x, 5.0);
        let lane = |schedule| BatchLane {
            compiled: &compiled,
            init: &init,
            schedule,
            options: lane_opts(2.0),
        };
        let mut ws = OdeWorkspace::new();
        for lanes in [vec![lane(&at_end)], vec![lane(&none), lane(&at_end)]] {
            let mut results = run_ode_batch(&crn, &lanes, &mut ws);
            let injected = results.pop().unwrap().unwrap();
            let plain = solo(&crn, &compiled, &init, &none, &lane_opts(2.0)).unwrap();
            assert_eq!(injected.len(), plain.len() + 1, "width {}", lanes.len());
            let (xi, xp) = (
                injected.final_state()[x.index()],
                plain.final_state()[x.index()],
            );
            assert_eq!(xi, xp + 5.0, "width {}", lanes.len());
            assert!((xi - (5.0 + (-2.0f64).exp())).abs() < 1e-5, "{xi}");
            assert_eq!(
                injected.times()[injected.len() - 2..],
                [2.0, 2.0],
                "width {}",
                lanes.len()
            );
        }
    }

    /// The tolerances a located firing is checked at: the cycle harness's
    /// `1e-3/1e-6`, its former `1e-5/1e-10`, and the defaults.
    const FIRING_TOLERANCES: [(f64, f64); 3] = [(1e-3, 1e-6), (1e-5, 1e-10), (1e-6, 1e-9)];

    /// `X -> 0` and `Y -> 0`, both at rate `k`, from `X = 1`, `Y = 0`, so
    /// `X` falls below `1/2` at `ln 2/k`; `trigger` watches that crossing
    /// (a `Below 0.5` condition on `X`). Runs it at every
    /// [`FIRING_TOLERANCES`] setting for `k = 1` and `k = 1000`, alone
    /// and as the two lanes of one batch, which must match the one-lane
    /// runs bit for bit. Each trace reaches `check` with its `k` and
    /// `rtol`, after its located-firing count is checked against its
    /// marks.
    fn decay_crossing(
        trigger: impl Fn(&Crn, crate::Condition) -> crate::Trigger,
        check: impl Fn(&Crn, &Trace, f64, f64),
    ) {
        let rates = [1.0, 1000.0];
        let crn: Crn = "X -> 0 @fast\nY -> 0 @fast".parse().unwrap();
        let compiled =
            rates.map(|k| CompiledCrn::new(&crn, &SimSpec::new(RateAssignment::from_ratio(k))));
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 1.0);
        let schedule = Schedule::new().trigger(trigger(
            &crn,
            crate::Condition::Below {
                species: x,
                threshold: 0.5,
            },
        ));
        for (rtol, atol) in FIRING_TOLERANCES {
            // five decay times, sampled 20 times
            let opts = rates.map(|k| {
                lane_opts(5.0 / k)
                    .with_record_interval(0.25 / k)
                    .with_tolerances(rtol, atol)
            });
            let sinks = rates.map(|_| Cell::new(SimMetrics::default()));
            let lanes: Vec<BatchLane> = compiled
                .iter()
                .zip(&opts)
                .zip(&sinks)
                .map(|((c, o), sink)| BatchLane {
                    compiled: c,
                    init: &init,
                    schedule: &schedule,
                    options: o.with_metrics(sink),
                })
                .collect();
            let batched = run_ode_batch(&crn, &lanes, &mut OdeWorkspace::new());
            for (j, result) in batched.into_iter().enumerate() {
                let trace = result.unwrap();
                let alone = solo(&crn, &compiled[j], &init, &schedule, &opts[j]).unwrap();
                assert_eq!(alone, trace, "k {}, rtol {rtol:e}", rates[j]);
                assert_eq!(
                    sinks[j].get().ode_events_located,
                    trace.marks().len() as u64,
                    "k {}, rtol {rtol:e}",
                    rates[j]
                );
                check(&crn, &trace, rates[j], rtol);
            }
        }
    }

    /// The one mark of [`decay_crossing`]'s trace, checked within `rtol`
    /// (relative) of `ln 2/k`.
    fn check_crossing(trace: &Trace, k: f64, rtol: f64) -> f64 {
        let marks = trace.mark_times(0);
        assert_eq!(marks.len(), 1, "k {k}, rtol {rtol:e}: {marks:?}");
        let exact = std::f64::consts::LN_2 / k;
        let error = (marks[0] - exact).abs() / exact;
        assert!(
            error <= rtol,
            "k {k}, rtol {rtol:e}: fired at {} for {exact}, {error:.2e} off",
            marks[0]
        );
        marks[0]
    }

    /// Ground truth for located firings: a `Below 0.5` mark on a decay
    /// fires within `rtol` of its analytic crossing time. Fired at step
    /// ends instead, it landed 3.7 % late at the defaults and 15–38 %
    /// late at the looser settings.
    #[test]
    fn a_located_mark_fires_at_the_analytic_crossing() {
        decay_crossing(
            |_, condition| crate::Trigger::mark(condition),
            |_, trace, k, rtol| {
                check_crossing(trace, k, rtol);
            },
        );
    }

    /// The inject-queue variant: the firing injects one `Y`, which decays
    /// at the same rate, so every sample after the firing follows
    /// `e^{−k(t − ln 2/k)}` within `rtol` of that peak, and none before it
    /// holds any `Y`.
    #[test]
    fn a_located_injection_lands_at_the_analytic_crossing() {
        decay_crossing(
            |crn, condition| {
                crate::Trigger::inject_queue(condition, crn.find_species("Y").unwrap(), vec![1.0])
            },
            |crn, trace, k, rtol| {
                let fired = check_crossing(trace, k, rtol);
                let y = crn.find_species("Y").unwrap().index();
                let exact_fire = std::f64::consts::LN_2 / k;
                let mut after = 0;
                for (i, &t) in trace.times().iter().enumerate() {
                    let got = trace.state(i)[y];
                    if t < fired {
                        assert_eq!(got, 0.0, "k {k}, rtol {rtol:e}: t {t}");
                    } else if t > fired {
                        let want = (-k * (t - exact_fire)).exp();
                        assert!(
                            (got - want).abs() <= rtol,
                            "k {k}, rtol {rtol:e}: Y({t}) = {got}, exact {want}"
                        );
                        after += 1;
                    }
                }
                assert!(after >= 10, "k {k}: {after} samples after the firing");
            },
        );
    }

    /// Two crossings `0.02` apart on `X -> 0`, inside one step at each
    /// tolerance setting: the earlier ends the step and fires there, and
    /// the later fires on a step of its own, each within `rtol` of its
    /// analytic time. The later trigger is listed first, so schedule
    /// order does not decide which fires.
    #[test]
    fn the_earliest_crossing_in_a_step_fires_first() {
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 1.0);
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let thresholds = [0.49, 0.5];
        let schedule = thresholds.iter().fold(Schedule::new(), |s, &threshold| {
            s.trigger(crate::Trigger::mark(crate::Condition::Below {
                species: x,
                threshold,
            }))
        });
        for (rtol, atol) in FIRING_TOLERANCES {
            let opts = lane_opts(2.0).with_tolerances(rtol, atol);
            let trace = solo(&crn, &compiled, &init, &schedule, &opts).unwrap();
            for (i, threshold) in thresholds.iter().enumerate() {
                let marks = trace.mark_times(i);
                let exact = (1.0 / threshold).ln();
                assert_eq!(marks.len(), 1, "rtol {rtol:e}: {marks:?}");
                assert!(
                    (marks[0] - exact).abs() <= rtol * exact,
                    "rtol {rtol:e}: trigger {i} fired at {} for {exact}",
                    marks[0]
                );
            }
        }
    }

    /// The step the elementary rule proposes after accepting `h` at
    /// `err`: `h·clamp(0.9·err^(−1/4), 0.2, 5)`, at most `H_MAX`.
    fn elementary(h: f64, err: f64) -> f64 {
        let grow = if err > 0.0 {
            0.9 * err.powf(-0.25)
        } else {
            5.0
        };
        (h * grow.clamp(0.2, 5.0)).min(H_MAX)
    }

    /// A lane's first accept has no history: it takes the elementary rule
    /// bit for bit, whatever trial step the lane started from.
    #[test]
    fn the_first_accept_is_the_elementary_rule() {
        for h in [1e-6, 3.7e-3, 0.04, 0.2, H_MAX] {
            for err in [0.0, 1e-300, 1e-9, 0.013, 0.37, 0.999, 1.0] {
                let mut control = StepControl::new(0.5);
                control.accept(h, err);
                assert_eq!(
                    control.h.to_bits(),
                    elementary(h, err).to_bits(),
                    "h {h}, err {err}"
                );
            }
        }
    }

    /// Where the error rises from accept to accept at one step size, the
    /// predictive factor `0.9·(h/h_acc)·err_acc^(1/4)·err^(−1/2)` is the
    /// smaller, so the rule proposes strictly less than the elementary
    /// one, and exactly `h` times that factor.
    #[test]
    fn a_rising_error_proposes_less_than_the_elementary_rule() {
        let h = 1e-3;
        let mut control = StepControl::new(h);
        let mut previous: Option<f64> = None;
        for err in [0.005, 0.05, 0.2, 0.6, 0.95] {
            control.accept(h, err);
            if let Some(err_prev) = previous {
                let err_acc = err_prev.max(1e-2);
                let predictive = 0.9 * err_acc.powf(0.25) * err.powf(-0.5);
                assert!(control.h < elementary(h, err), "err {err}: {}", control.h);
                assert_eq!(control.h, h * predictive.clamp(0.2, 5.0), "err {err}");
            }
            previous = Some(err);
        }
    }

    /// After a rejection, or a singular `W`, the next accept keeps the
    /// step it accepted even at a tiny error; the accept after that grows
    /// it again.
    #[test]
    fn the_first_accept_after_a_rejection_never_grows_the_step() {
        for failed in [
            (|c: &mut StepControl| c.reject(0.02, 3.0)) as fn(&mut StepControl),
            |c: &mut StepControl| c.fail(0.02),
        ] {
            let mut control = StepControl::new(0.01);
            control.accept(0.01, 0.3);
            failed(&mut control);
            let retry = control.h;
            assert!(retry < 0.02, "{retry}");
            control.accept(retry, 1e-6);
            assert_eq!(control.h, retry);
            control.accept(retry, 1e-6);
            assert!(control.h > retry, "{} after {retry}", control.h);
        }
    }

    /// A zero error grows the step five-fold, first accept or not, and
    /// never past `H_MAX`.
    #[test]
    fn a_zero_error_grows_five_fold_up_to_h_max() {
        let mut control = StepControl::new(0.01);
        control.accept(0.01, 0.0);
        assert_eq!(control.h, 0.05);
        control.accept(0.04, 0.0);
        assert_eq!(control.h, 0.2);
        control.accept(0.1, 0.0);
        assert_eq!(control.h, H_MAX);
    }

    /// `X -> 0` at `k = 1` beside `k = 1000` at the cycle harness's
    /// tolerances: the two lanes accept and reject different steps, so
    /// their step histories diverge, and each still reproduces its
    /// one-lane run bit for bit, work counters included.
    #[test]
    fn lanes_with_diverging_step_histories_match_their_one_lane_runs_bitwise() {
        let crn: Crn = "X -> 0 @fast".parse().unwrap();
        let mut init = State::new(&crn);
        init.set(crn.find_species("X").unwrap(), 1.0);
        let compiled = [1.0, 1000.0]
            .map(|k| CompiledCrn::new(&crn, &SimSpec::new(RateAssignment::from_ratio(k))));
        let schedule = Schedule::new();
        let opts = lane_opts(5.0)
            .with_record_interval(0.05)
            .with_tolerances(1e-3, 1e-6);
        let sinks = [(); 2].map(|()| Cell::new(SimMetrics::default()));
        let lanes: Vec<BatchLane> = compiled
            .iter()
            .zip(&sinks)
            .map(|(c, sink)| BatchLane {
                compiled: c,
                init: &init,
                schedule: &schedule,
                options: opts.with_metrics(sink),
            })
            .collect();
        let batched = run_ode_batch(&crn, &lanes, &mut OdeWorkspace::new());
        let mut steps = Vec::new();
        for ((c, result), sink) in compiled.iter().zip(batched).zip(&sinks) {
            let alone_sink = Cell::new(SimMetrics::default());
            let alone = solo(&crn, c, &init, &schedule, &opts.with_metrics(&alone_sink)).unwrap();
            assert_eq!(alone, result.unwrap());
            let (m, a) = (sink.get(), alone_sink.get());
            assert_eq!(
                (m.ode_steps_accepted, m.ode_steps_rejected),
                (a.ode_steps_accepted, a.ode_steps_rejected)
            );
            steps.push((m.ode_steps_accepted, m.ode_steps_rejected));
        }
        assert_ne!(steps[0], steps[1], "{steps:?}");
        assert!(steps.iter().any(|&(_, rejected)| rejected > 0), "{steps:?}");
    }

    #[test]
    fn empty_batch_returns_nothing() {
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        assert!(run_ode_batch(&crn, &[], &mut OdeWorkspace::new()).is_empty());
    }

    #[test]
    fn per_lane_tolerances_match_one_lane_runs_bitwise() {
        // each lane keeps its own step controller and error norm
        let crn: Crn = "A + B -> C @fast\nC -> A + B @slow\nA -> 0 @slow"
            .parse()
            .unwrap();
        let a = crn.find_species("A").unwrap();
        let b = crn.find_species("B").unwrap();
        let mut init = State::new(&crn);
        init.set(a, 3.0).set(b, 2.0);
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let schedule = Schedule::new();
        let plain = lane_opts(10.0);
        let loose = plain.with_tolerances(1e-4, 1e-7);
        let lanes = [
            BatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: loose,
            },
            BatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: plain,
            },
        ];
        let results = run_ode_batch(&crn, &lanes, &mut OdeWorkspace::new());
        for (opts, result) in [loose, plain].iter().zip(results) {
            let alone = solo(&crn, &compiled, &init, &schedule, opts).unwrap();
            assert_eq!(alone, result.unwrap());
        }
    }
}
