//! Lock-step batched ODE integration: N structurally identical cells, one
//! symbolic analysis, structure-of-arrays state.
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
//! solves — for all lanes at once, through the same stage routine the
//! scalar stepper uses ([`rodas4::stages`]).
//!
//! State lives species-major, lane-contiguous (`x[i * width + l]`), so
//! the inner loops are stride-1 over lanes and autovectorize — no
//! intrinsics, plain `std`.
//!
//! **Determinism contract.** Every lane reproduces the scalar
//! [`run_ode`](crate::ode) path *bit for bit*, at any batch width: lanes
//! share index structure, never floating-point values. Each lane keeps
//! its own step controller (`h`), Jacobian and `f(x)` freshness flags,
//! cached-LU key and metrics; everywhere the scalar code path has a
//! data-dependent skip (zero flux, zero Jacobian partial, zero
//! multiplier, cached factorization), the batched kernels use a per-lane
//! select of the same condition, preserving even `-0.0` signs. The
//! full-width `f(x)` pass runs only when some attempting lane lacks a
//! fresh one (a lane holds one only after a rejection: an accepted step
//! moves its state); a lane that holds one gets the same bits from the
//! pass again, since its state has not moved.
//! A lane that holds a recorded sample forms the continuous extension of
//! its step on its own, with the scalar stepper's per-component
//! arithmetic. Lanes that finish (at `t_end` or on their stop hook),
//! fail, or get budget-cut *retire*: their state is zeroed (keeping the
//! unmasked full-width arithmetic finite) and they stop contributing
//! bookkeeping, while surviving lanes continue unperturbed.

use crate::compiled::CompiledCrn;
use crate::events::{Injection, TriggerRuntime};
use crate::metrics::SimMetrics;
use crate::ode::{expected_records, initial_step, OdeOptions};
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

/// Reusable storage for [`run_ode_batch`]: the shared symbolic
/// factorization plus every structure-of-arrays buffer, sized lazily per
/// call and reused across calls (consecutive sweep batches over the same
/// network structure pay no re-analysis and no re-allocation).
#[derive(Default)]
pub struct BatchedOdeWorkspace {
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
}

impl BatchedOdeWorkspace {
    /// An empty workspace; buffers are allocated on first use.
    #[must_use]
    pub fn new() -> Self {
        BatchedOdeWorkspace::default()
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

/// Everything one lane owns: the scalar driver's locals, per-lane.
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
    h_adaptive: f64,
    next_record: f64,
    steps_used: usize,
    // Rosenbrock cache flags, mirroring `RosenbrockWork`
    jac_fresh: bool,
    f0_fresh: bool,
    lu_valid: bool,
    lu_sparse: bool,
    lu_h: f64,
    factorizations: u64,
    /// `Some(Ok(()))` once the trace is complete, `Some(Err)` on failure.
    done: Option<Result<(), SimError>>,
}

impl<'a, 'h> LaneState<'a, 'h> {
    fn new(crn: &Crn, lane: &BatchLane<'a, 'h>) -> Self {
        let opts = lane.options;
        let (rtol, atol) = opts.tolerances();
        // validation mirrors run_ode's, per lane
        let done = if lane.compiled.species_count() != crn.species_count() {
            Some(Err(SimError::DimensionMismatch {
                supplied: lane.compiled.species_count(),
                expected: crn.species_count(),
            }))
        } else if lane.init.len() != crn.species_count() {
            Some(Err(SimError::DimensionMismatch {
                supplied: lane.init.len(),
                expected: crn.species_count(),
            }))
        } else if !opts.t_start().is_finite()
            || !opts.t_end().is_finite()
            || opts.t_end() <= opts.t_start()
        {
            Some(Err(SimError::BadTimeSpan {
                t_start: opts.t_start(),
                t_end: opts.t_end(),
            }))
        } else {
            check_record_interval(opts.record_interval()).err().map(Err)
        };
        let mut trace = Trace::with_capacity(crn, expected_records(&opts, lane.schedule));
        let triggers = TriggerRuntime::new(lane.schedule, lane.init.as_slice());
        if done.is_none() {
            trace.push(opts.t_start(), lane.init.as_slice());
        }
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
            h_adaptive: initial_step(&opts),
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

/// Finishes a lane: flushes its metrics (every exit path reports its
/// cost, as in the scalar driver), records the retirement ordinal, marks
/// it done and zeroes its state lanes so the unmasked full-width stage
/// arithmetic stays finite for the survivors.
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
    st.metrics.batch_width = wd as u64;
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

/// Replays the scalar driver's between-steps bookkeeping for one lane
/// until it is either ready to attempt a step (returns `true`) or done
/// (completed, step-limited — returns `false` with `st.done` set).
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
            let segment_end = st
                .injections
                .get(st.next_injection)
                .map_or(t_end, |inj| inj.time.clamp(st.opts.t_start(), t_end));
            if segment_end > st.t && st.t < segment_end - 1e-15 {
                // about to attempt a step: the scalar loop checks the
                // budget first
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
            continue;
        }
        complete_lane(st, x, lane_buf, wd, l, retired);
        return false;
    }
}

/// Integrates up to `lanes.len()` structurally identical cells in
/// lock-step through one shared symbolic analysis, returning one result
/// per lane in input order. See the module docs for the layout and the
/// determinism contract; each lane's trace, metrics and error behavior
/// are bit-identical to running it alone through
/// [`Simulation`](crate::Simulation).
///
/// # Panics
///
/// Panics if the lanes do not all share one network structure (callers
/// group by [`molseq_crn::Crn::structural_hash`]).
#[allow(clippy::too_many_lines)]
pub fn run_ode_batch<'h>(
    crn: &Crn,
    lanes: &[BatchLane<'_, 'h>],
    workspace: &mut BatchedOdeWorkspace,
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
    let BatchedOdeWorkspace {
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
                let h_cap = (st.segment_end - st.t).min(st.opts.h_max());
                h_try[l] = st.h_adaptive.min(h_cap).max(1e-14);
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
                    // unpermuted and fall back to the pivoted dense LU,
                    // exactly as the scalar step does
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
                st.h_adaptive = (h_try[l] * 0.5).max(1e-14);
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
                    let grow = if err_ratio > 0.0 {
                        0.9 * err_ratio.powf(-0.25)
                    } else {
                        5.0
                    };
                    st.h_adaptive = (h_try[l] * grow.clamp(0.2, 5.0)).min(st.opts.h_max());
                    (h_try[l], true)
                } else {
                    let shrink = (0.9 * err_ratio.powf(-0.25)).clamp(0.1, 0.9);
                    st.h_adaptive = (h_try[l] * shrink).max(1e-14);
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
            if st.next_record <= st.t + 1e-12 {
                // this lane's continuous extension, as the scalar
                // stepper's prepare_dense forms it
                for i in 0..n {
                    let kv = std::array::from_fn(|j| k[j * nw + i * wd + l]);
                    (d2[i], d3[i]) = rodas4::dense_coefficients(kv);
                }
            }
            while st.next_record <= st.t + 1e-12 {
                let theta = if h_taken > 0.0 {
                    ((st.next_record - t_prev) / h_taken).clamp(0.0, 1.0)
                } else {
                    1.0
                };
                for (i, s) in sample.iter_mut().enumerate() {
                    *s =
                        rodas4::dense_value(x_prev[i * wd + l], x[i * wd + l], theta, d2[i], d3[i]);
                }
                st.trace.push(st.next_record, sample);
                st.next_record += st.opts.record_interval();
            }
            extract_lane(x, lane_buf, wd, l);
            let fired = st.triggers.poll(st.schedule, st.t, lane_buf);
            store_lane(x, lane_buf, wd, l);
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

    fn scalar_trace(
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
        let scalar = scalar_trace(&crn, &compiled, &init, &schedule, &opts).unwrap();
        let mut ws = BatchedOdeWorkspace::new();
        let lanes = [BatchLane {
            compiled: &compiled,
            init: &init,
            schedule: &schedule,
            options: opts,
        }];
        let batched = run_ode_batch(&crn, &lanes, &mut ws).pop().unwrap().unwrap();
        assert_eq!(scalar, batched);
        // a reused workspace must stay bit-identical
        let again = run_ode_batch(&crn, &lanes, &mut ws).pop().unwrap().unwrap();
        assert_eq!(scalar, again);
    }

    #[test]
    fn wide_batch_lanes_match_their_scalar_runs_bitwise() {
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
        let mut ws = BatchedOdeWorkspace::new();
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
            let scalar = scalar_trace(&crn, c, &init, &schedule, &opts).unwrap();
            assert_eq!(scalar, result.unwrap());
        }
    }

    #[test]
    fn batched_metrics_match_scalar_counters() {
        let crn: Crn = "A -> B @fast\n0 -> A @slow".parse().unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let init = State::new(&crn);
        let schedule = Schedule::new();
        let scalar_sink = Cell::new(SimMetrics::default());
        let opts = lane_opts(5.0);
        scalar_trace(
            &crn,
            &compiled,
            &init,
            &schedule,
            &opts.with_metrics(&scalar_sink),
        )
        .unwrap();
        let batch_sink = Cell::new(SimMetrics::default());
        let lanes = [BatchLane {
            compiled: &compiled,
            init: &init,
            schedule: &schedule,
            options: opts.with_metrics(&batch_sink),
        }];
        run_ode_batch(&crn, &lanes, &mut BatchedOdeWorkspace::new())
            .pop()
            .unwrap()
            .unwrap();
        let s = scalar_sink.get();
        let b = batch_sink.get();
        assert_eq!(s.ode_steps_accepted, b.ode_steps_accepted);
        assert_eq!(s.ode_steps_rejected, b.ode_steps_rejected);
        assert_eq!(s.lu_factorizations, b.lu_factorizations);
        assert_eq!(s.final_time, b.final_time);
        assert_eq!(b.batch_width, 1);
        assert_eq!(b.lanes_retired, 0);
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
        let mut results = run_ode_batch(&crn, &lanes, &mut BatchedOdeWorkspace::new());
        let r2 = results.pop().unwrap();
        let r1 = results.pop().unwrap();
        let r0 = results.pop().unwrap();
        assert!(
            matches!(r1, Err(SimError::Interrupted { ref reason, .. }) if reason == "budget"),
            "{r1:?}"
        );
        // survivors match their solo scalar runs exactly
        for (c, r) in [(&compiled[0], r0), (&compiled[2], r2)] {
            let scalar = scalar_trace(&crn, c, &init, &schedule, &opts).unwrap();
            assert_eq!(scalar, r.unwrap());
        }
        // the cut lane retired first: the survivors each saw one earlier
        // retirement, and both report the batch width
        let m = sink.get();
        assert_eq!(m.batch_width, 3);
        assert_eq!(m.lanes_retired, 1 + 2);
    }

    /// A lane whose stop hook fires retires `Ok` at its own time and
    /// matches its solo scalar run with the same stop; the other lanes
    /// run on to `t_end` unperturbed.
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
        let results = run_ode_batch(&crn, &lanes, &mut BatchedOdeWorkspace::new());
        for (i, (c, r)) in compiled.iter().zip(results).enumerate() {
            let solo = if i == 1 { stop_opts } else { opts };
            let scalar = scalar_trace(&crn, c, &init, &schedule, &solo).unwrap();
            assert_eq!(scalar, r.unwrap(), "lane {i}");
        }
        let m: Vec<SimMetrics> = sinks.iter().map(Cell::get).collect();
        assert!(m[1].final_time < m[0].final_time, "{m:?}");
        // each lane retired once, the stopped one among them
        let mut order: Vec<u64> = m.iter().map(|m| m.lanes_retired).collect();
        order.sort_unstable();
        assert_eq!(order, [0, 1, 2]);
    }

    /// A tripped no-pivot guard reaches the metrics sink, scalar and in a
    /// lane. The network's first pivot `1 − h·γ·k` cancels at a first
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
                scalar_trace(&crn, &compiled, &init, &schedule, &o.with_metrics(sink)).unwrap()
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
        let batched = run_ode_batch(&crn, &lanes, &mut BatchedOdeWorkspace::new());
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
        let results = run_ode_batch(&crn, &lanes, &mut BatchedOdeWorkspace::new());
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(SimError::DimensionMismatch { .. })
        ));
        assert!(matches!(results[2], Err(SimError::BadTimeSpan { .. })));
        let scalar = scalar_trace(&crn, &compiled, &good_init, &schedule, &opts).unwrap();
        assert_eq!(&scalar, results[0].as_ref().unwrap());
    }

    #[test]
    fn empty_batch_returns_nothing() {
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        assert!(run_ode_batch(&crn, &[], &mut BatchedOdeWorkspace::new()).is_empty());
    }

    #[test]
    fn per_lane_tolerances_match_scalar_bitwise() {
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
        let results = run_ode_batch(&crn, &lanes, &mut BatchedOdeWorkspace::new());
        for (opts, result) in [loose, plain].iter().zip(results) {
            let scalar = scalar_trace(&crn, &compiled, &init, &schedule, opts).unwrap();
            assert_eq!(scalar, result.unwrap());
        }
    }
}
