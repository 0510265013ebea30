//! Lock-step batched stochastic simulation: N structurally identical
//! cells, one shared compiled network.
//!
//! The stochastic workloads behind E10 (and the Markov-chain / pattern-
//! recognition experiment families on the roadmap) simulate one network
//! under many seeds or rate bindings: every cell shares the CRN structure.
//! [`run_ssa_batch`] and [`run_tau_batch`] advance up to `width` such
//! lanes round-robin, playing exactly one iteration of the scalar loop per
//! lane per round — one Gillespie event (or plateau segment) for SSA, one
//! leap or exact step for tau-leaping.
//!
//! The two drivers share the round structure but not the propensity
//! bookkeeping. An SSA lane is a scalar direct-method run
//! (`crate::ssa::SsaRun`) with its own cached propensity row, updated
//! after each event through the network's dependency graph — the same
//! event step the scalar path takes, so a lane costs what a scalar run
//! costs. Tau lanes leap in lock-step and recompute every live lane's
//! propensities each round in one species-major, lane-contiguous SoA
//! kernel (`CompiledCrn::propensity_batch`, stride-1 over lanes,
//! autovectorized — no intrinsics, plain `std`): a leap reads every
//! propensity anyway.
//!
//! **Determinism contract.** Every lane reproduces the scalar
//! [`run_ssa`](crate::ssa)/[`run_tau`](crate::tau) path *bit for bit*, at
//! any batch width: lanes share index structure, never floating-point
//! values and never RNG draws. Each lane keeps its own `StdRng` stream
//! (seeded from its own options), its own event/leap counters and
//! metrics, and consumes draws in exactly the scalar order — the tau
//! lanes' SoA propensity row merely stands in for the scalar loop-top
//! recompute, which is a pure function of the lane's state and so bitwise
//! equal. Lanes that finish, fail, or get budget-cut *retire*: they flush
//! their metrics (stamped with the batch width and a retirement ordinal)
//! and stop taking turns, while surviving lanes continue unperturbed.

use crate::compiled::CompiledCrn;
use crate::events::Injection;
use crate::metrics::SimMetrics;
use crate::sim::check_record_interval;
use crate::ssa::{self, record_until, select_reaction, to_count, SsaRun};
use crate::tau::{apply_injection, poisson, TauLeapOptions};
use crate::{Schedule, SimError, SsaOptions, State, Trace};
use molseq_crn::Crn;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::ControlFlow;

/// One cell of a batched SSA run: its rate-bound network, initial state,
/// event schedule and options.
///
/// All lanes passed to one [`run_ssa_batch`] call must share the network
/// *structure* (same species and reactions — e.g. produced by
/// [`CompiledCrn::rebind`] from one compilation); only the rate
/// constants, initial states, schedules, seeds and options may differ.
pub struct SsaBatchLane<'a, 'h> {
    /// Rate-bound network for this lane.
    pub compiled: &'a CompiledCrn,
    /// Initial state (must match the network's species count).
    pub init: &'a State,
    /// Timed injections and condition triggers for this lane.
    pub schedule: &'a Schedule,
    /// Stochastic options (span, recording, seed, budget, hook, sink).
    pub options: SsaOptions<'h>,
}

/// One cell of a batched tau-leap run. Same structure-sharing rules as
/// [`SsaBatchLane`]; the schedule must carry no triggers (the scalar
/// tau-leaper does not support them, and neither does the batched one).
pub struct TauBatchLane<'a, 'h> {
    /// Rate-bound network for this lane.
    pub compiled: &'a CompiledCrn,
    /// Initial state (must match the network's species count).
    pub init: &'a State,
    /// Timed injections for this lane (no triggers).
    pub schedule: &'a Schedule,
    /// Tau-leap options (shared stochastic options plus `epsilon`).
    pub options: TauLeapOptions<'h>,
}

/// Reusable storage for [`run_tau_batch`]: the structure-of-arrays
/// copy-number and propensity buffers, sized lazily per call and reused
/// across calls (consecutive sweep batches over the same network
/// structure pay no re-allocation). [`run_ssa_batch`] takes one too, but
/// its lanes keep their propensity rows in their own run state.
#[derive(Default)]
pub struct BatchedStochWorkspace {
    /// SoA copy numbers, `species × width`, lane-contiguous.
    n_soa: Vec<i64>,
    /// SoA propensities, `reactions × width`, lane-contiguous.
    props: Vec<f64>,
    /// Per-lane rate constants, `reactions × width`.
    ks: Vec<f64>,
    /// One lane's extracted propensity row, `reactions` long.
    lane_props: Vec<f64>,
}

impl BatchedStochWorkspace {
    /// An empty workspace; buffers are allocated on first use.
    #[must_use]
    pub fn new() -> Self {
        BatchedStochWorkspace::default()
    }

    fn prepare(&mut self, reference: &CompiledCrn, wd: usize) {
        let n = reference.species_count();
        let m = reference.reaction_count();
        self.n_soa.clear();
        self.n_soa.resize(n * wd, 0);
        self.props.clear();
        self.props.resize(m * wd, 0.0);
        self.lane_props.clear();
        self.lane_props.resize(m, 0.0);
    }
}

/// Everything one tau-leap lane owns: the scalar core's locals,
/// per-lane.
struct TauLane<'a, 'h> {
    compiled: &'a CompiledCrn,
    base: SsaOptions<'h>,
    epsilon: f64,
    injections: Vec<Injection>,
    next_injection: usize,
    n: Vec<i64>,
    f: Vec<f64>,
    rng: StdRng,
    trace: Trace,
    stats: SimMetrics,
    t: f64,
    next_record: f64,
    /// Loop steps taken — the counter the scalar core budgets against
    /// `max_events`.
    events: usize,
    /// An initial-state conversion error: in the scalar cores this is a
    /// *core* error (metrics flush), unlike validation errors (no flush).
    pending: Option<SimError>,
    /// `Some(Ok(()))` once the trace is complete, `Some(Err)` on failure.
    done: Option<Result<(), SimError>>,
}

impl<'a, 'h> TauLane<'a, 'h> {
    fn new(
        crn: &Crn,
        compiled: &'a CompiledCrn,
        init: &State,
        schedule: &Schedule,
        base: SsaOptions<'h>,
        epsilon: f64,
        validation: Option<SimError>,
    ) -> Self {
        let done = validation.map(Err);
        let mut pending = None;
        let mut n: Vec<i64> = Vec::with_capacity(init.len());
        if done.is_none() {
            for &v in init.as_slice() {
                match to_count(v) {
                    Ok(c) => n.push(c),
                    Err(e) => {
                        pending = Some(e);
                        break;
                    }
                }
            }
        }
        let live = done.is_none() && pending.is_none();
        let f: Vec<f64> = if live {
            n.iter().map(|&v| v as f64).collect()
        } else {
            vec![0.0; crn.species_count()]
        };
        let mut trace = Trace::new(crn);
        if live {
            trace.push(base.t_start(), &f);
        }
        TauLane {
            compiled,
            base,
            epsilon,
            injections: schedule.sorted_injections(),
            next_injection: 0,
            n,
            f,
            rng: StdRng::seed_from_u64(base.seed()),
            trace,
            stats: SimMetrics {
                seed: base.seed(),
                final_time: base.t_start(),
                ..SimMetrics::default()
            },
            t: base.t_start(),
            next_record: base.t_start() + base.record_interval(),
            events: 0,
            pending,
            done,
        }
    }
}

/// Stamps a retiring lane's counters with the batch width and its
/// retirement ordinal.
fn stamp(stats: &mut SimMetrics, wd: usize, retired: &mut u64) {
    stats.batch_width = wd as u64;
    stats.lanes_retired = *retired;
    *retired += 1;
}

/// Finishes a tau lane: flushes its metrics (every core exit path reports
/// its cost, as in the scalar drivers), stamped with the batch width and
/// the retirement ordinal, and marks it done so the rounds skip it.
fn retire(st: &mut TauLane, outcome: Result<(), SimError>, wd: usize, retired: &mut u64) {
    st.stats.final_time = st.t;
    stamp(&mut st.stats, wd, retired);
    SimMetrics::flush(st.base.metrics(), st.stats);
    st.done = Some(outcome);
}

/// The tau driver's prologue: retire initial-state conversion failures
/// (with a metrics flush, like the scalar cores), pick the reference
/// network, assert structure sharing, and pack the per-lane rates.
/// Returns `false` when no lane survived.
fn setup(
    states: &mut [TauLane],
    workspace: &mut BatchedStochWorkspace,
    wd: usize,
    retired: &mut u64,
) -> bool {
    for st in states.iter_mut() {
        if let Some(e) = st.pending.take() {
            retire(st, Err(e), wd, retired);
        }
    }
    let Some(reference) = states.iter().find(|s| s.done.is_none()).map(|s| s.compiled) else {
        return false;
    };
    for st in states.iter().filter(|s| s.done.is_none()) {
        assert!(
            st.compiled.structural_hash() == reference.structural_hash(),
            "run_tau_batch lanes must share one network structure"
        );
    }
    workspace.prepare(reference, wd);
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
    reference.gather_rates(&lane_refs, &mut workspace.ks);
    true
}

/// Recomputes every live lane's propensities in one SoA pass: gathers the
/// copy numbers lane-contiguously (retired lanes contribute zeros) and
/// runs the vectorized kernel over the full width.
fn recompute_round(
    reference: &CompiledCrn,
    states: &[TauLane],
    workspace: &mut BatchedStochWorkspace,
    wd: usize,
) {
    workspace.n_soa.fill(0);
    for (l, st) in states.iter().enumerate() {
        if st.done.is_none() {
            for (i, &c) in st.n.iter().enumerate() {
                workspace.n_soa[i * wd + l] = c;
            }
        }
    }
    reference.propensity_batch(&workspace.ks, &workspace.n_soa, &mut workspace.props, wd);
}

/// Unpacks the final per-lane results in input order.
fn finish(states: Vec<TauLane>) -> Vec<Result<Trace, SimError>> {
    states
        .into_iter()
        .map(|s| match s.done.expect("every lane settled") {
            Ok(()) => Ok(s.trace),
            Err(e) => Err(e),
        })
        .collect()
}

/// Simulates up to `lanes.len()` structurally identical cells with the
/// Gillespie direct method, advancing the lanes round-robin (one event
/// per lane per round), and returns one result per lane in input order.
/// Each lane runs the scalar event step on its own cached propensity row;
/// `workspace` is not used. See the module docs for the determinism
/// contract; each lane's trace, metrics and error behavior are
/// bit-identical to running it alone through
/// [`Simulation`](crate::Simulation) with
/// [`SimMethod::Ssa`](crate::SimMethod::Ssa).
///
/// # Panics
///
/// Panics if the lanes do not all share one network structure (callers
/// group by [`molseq_crn::Crn::structural_hash`]).
pub fn run_ssa_batch<'h>(
    crn: &Crn,
    lanes: &[SsaBatchLane<'_, 'h>],
    _workspace: &mut BatchedStochWorkspace,
) -> Vec<Result<Trace, SimError>> {
    let wd = lanes.len();
    let mut retired: u64 = 0;
    let mut results: Vec<Option<Result<Trace, SimError>>> = Vec::with_capacity(wd);
    let mut runs: Vec<Option<SsaRun>> = Vec::with_capacity(wd);
    for lane in lanes {
        let opts = lane.options;
        // a validation error settles the lane without a flush, like the
        // scalar driver's; an unusable initial state flushes, stamped
        let started = ssa::validate(crn, lane.compiled, lane.init, &opts).and_then(|()| {
            SsaRun::new(crn, lane.compiled, lane.init, lane.schedule, opts).inspect_err(|_| {
                let mut stats = ssa::started(&opts);
                stamp(&mut stats, wd, &mut retired);
                SimMetrics::flush(opts.metrics(), stats);
            })
        });
        match started {
            Ok(run) => {
                runs.push(Some(run));
                results.push(None);
            }
            Err(e) => {
                runs.push(None);
                results.push(Some(Err(e)));
            }
        }
    }
    let mut live = lanes
        .iter()
        .zip(&runs)
        .filter(|(_, run)| run.is_some())
        .map(|(lane, _)| lane.compiled.structural_hash());
    if let Some(first) = live.next() {
        assert!(
            live.all(|h| h == first),
            "run_ssa_batch lanes must share one network structure"
        );
    }
    while runs.iter().any(Option::is_some) {
        for (slot, result) in runs.iter_mut().zip(&mut results) {
            let Some(run) = slot else { continue };
            if let ControlFlow::Break(outcome) = run.step() {
                let mut run = slot.take().expect("the lane was live");
                stamp(&mut run.stats, wd, &mut retired);
                *result = Some(run.finish(outcome));
            }
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every lane settled"))
        .collect()
}

/// Simulates up to `lanes.len()` structurally identical cells with
/// explicit tau-leaping, leaping the lanes in lock-step (one leap or
/// exact step per lane per round) with shared SoA propensity
/// recomputation, and returns one result per lane in input order. See
/// the module docs for the determinism contract; each lane's trace,
/// metrics and error behavior are bit-identical to running it alone
/// through [`Simulation`](crate::Simulation) with
/// [`SimMethod::TauLeap`](crate::SimMethod::TauLeap).
///
/// # Panics
///
/// Panics if any lane's schedule carries triggers (the scalar tau-leaper
/// does not support them), or if the lanes do not all share one network
/// structure (callers group by [`molseq_crn::Crn::structural_hash`]).
pub fn run_tau_batch<'h>(
    crn: &Crn,
    lanes: &[TauBatchLane<'_, 'h>],
    workspace: &mut BatchedStochWorkspace,
) -> Vec<Result<Trace, SimError>> {
    let wd = lanes.len();
    if wd == 0 {
        return Vec::new();
    }
    for lane in lanes {
        assert!(
            lane.schedule.triggers().is_empty(),
            "tau-leaping does not support triggers"
        );
    }
    let mut states: Vec<TauLane> = lanes
        .iter()
        .map(|lane| {
            // validation mirrors run_tau's, per lane
            let base = &lane.options.base;
            let validation = if lane.compiled.species_count() != crn.species_count() {
                Some(SimError::DimensionMismatch {
                    supplied: lane.compiled.species_count(),
                    expected: crn.species_count(),
                })
            } else if lane.init.len() != crn.species_count() {
                Some(SimError::DimensionMismatch {
                    supplied: lane.init.len(),
                    expected: crn.species_count(),
                })
            } else if !base.t_start().is_finite()
                || !base.t_end().is_finite()
                || base.t_end() <= base.t_start()
                || lane.options.epsilon.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
            {
                Some(SimError::BadTimeSpan {
                    t_start: base.t_start(),
                    t_end: base.t_end(),
                })
            } else {
                check_record_interval(base.record_interval()).err()
            };
            TauLane::new(
                crn,
                lane.compiled,
                lane.init,
                lane.schedule,
                lane.options.base,
                lane.options.epsilon,
                validation,
            )
        })
        .collect();
    let mut retired: u64 = 0;
    if !setup(&mut states, workspace, wd, &mut retired) {
        return finish(states);
    }
    let reference = states
        .iter()
        .find(|s| s.done.is_none())
        .map(|s| s.compiled)
        .expect("setup found a live lane");
    while states.iter().any(|s| s.done.is_none()) {
        recompute_round(reference, &states, workspace, wd);
        for (l, st) in states.iter_mut().enumerate().take(wd) {
            if st.done.is_some() {
                continue;
            }
            for (j, p) in workspace.lane_props.iter_mut().enumerate() {
                *p = workspace.props[j * wd + l];
            }
            tau_lane_round(st, &workspace.lane_props, wd, &mut retired);
        }
    }
    finish(states)
}

/// One iteration of the scalar `tau_core` loop for one lane: the round's
/// SoA-computed propensity row stands in for the per-iteration recompute
/// (the scalar core checks the budget and polls the hook *before*
/// recomputing; computing the pure, draw-free propensities early is
/// unobservable).
#[allow(clippy::too_many_lines)]
fn tau_lane_round(st: &mut TauLane, lane_props: &[f64], wd: usize, retired: &mut u64) {
    let m = lane_props.len();
    // loop condition: `while t < t_end`
    if st.t >= st.base.t_end() {
        st.trace.push(st.t, &st.f);
        return retire(st, Ok(()), wd, retired);
    }
    if st.events >= st.base.max_events() {
        let err = SimError::StepLimitExceeded {
            reached: st.t,
            t_end: st.base.t_end(),
            max_steps: st.base.max_events(),
        };
        return retire(st, Err(err), wd, retired);
    }
    st.events += 1;
    if let Some(hook) = st.base.step_hook() {
        if let ControlFlow::Break(reason) = hook(st.events as u64, st.t) {
            return retire(
                st,
                Err(SimError::Interrupted { time: st.t, reason }),
                wd,
                retired,
            );
        }
    }

    let injection_time = st
        .injections
        .get(st.next_injection)
        .map_or(f64::INFINITY, |inj| inj.time);

    let mut a0 = 0.0;
    for &p in lane_props {
        a0 += p;
    }
    if a0 <= 0.0 {
        let stop = st.base.t_end().min(injection_time);
        record_until(&mut st.trace, &st.f, &mut st.next_record, stop, &st.base);
        st.t = stop;
        st.stats.final_time = st.t;
        if injection_time <= st.base.t_end() {
            let outcome = apply_injection(
                &st.injections[st.next_injection],
                &mut st.n,
                &mut st.f,
                &mut st.trace,
                st.t,
            );
            if let Err(e) = outcome {
                return retire(st, Err(e), wd, retired);
            }
            st.next_injection += 1;
            return; // scalar `continue`
        }
        st.trace.push(st.t, &st.f);
        return retire(st, Ok(()), wd, retired);
    }

    // Cao–Gillespie step selection: bound the relative change of each
    // species that any reaction consumes.
    let mut tau = f64::INFINITY;
    for j in 0..m {
        if lane_props[j] == 0.0 {
            continue;
        }
        for &(i, _) in st.compiled.changed_species(j) {
            // net drift and noise of species i
            let mut mu = 0.0;
            let mut sigma2 = 0.0;
            for (jj, &p) in lane_props.iter().enumerate() {
                let v = st
                    .compiled
                    .changed_species(jj)
                    .iter()
                    .find(|&&(ii, _)| ii == i)
                    .map_or(0, |&(_, d)| d) as f64;
                mu += v * p;
                sigma2 += v * v * p;
            }
            let bound = (st.epsilon * st.n[i].max(1) as f64).max(1.0);
            if mu != 0.0 {
                tau = tau.min(bound / mu.abs());
            }
            if sigma2 > 0.0 {
                tau = tau.min(bound * bound / sigma2);
            }
        }
    }

    // If the leap is not worth it, take one exact step.
    if tau < 10.0 / a0 {
        let u: f64 = 1.0 - st.rng.random::<f64>();
        let dt = -u.ln() / a0;
        let t_next = st.t + dt;
        let stop = st.base.t_end().min(injection_time);
        if t_next >= stop {
            record_until(&mut st.trace, &st.f, &mut st.next_record, stop, &st.base);
            st.t = stop;
            st.stats.final_time = st.t;
            if injection_time <= st.base.t_end() {
                let outcome = apply_injection(
                    &st.injections[st.next_injection],
                    &mut st.n,
                    &mut st.f,
                    &mut st.trace,
                    st.t,
                );
                if let Err(e) = outcome {
                    return retire(st, Err(e), wd, retired);
                }
                st.next_injection += 1;
                return; // scalar `continue`
            }
            st.trace.push(st.t, &st.f);
            return retire(st, Ok(()), wd, retired);
        }
        record_until(&mut st.trace, &st.f, &mut st.next_record, t_next, &st.base);
        st.t = t_next;
        st.stats.final_time = st.t;
        st.stats.ssa_events += 1;
        let pick: f64 = st.rng.random::<f64>() * a0;
        let chosen = select_reaction(m, |j| lane_props[j], pick);
        st.compiled.fire(chosen, &mut st.n);
        for &(i, _) in st.compiled.changed_species(chosen) {
            st.f[i] = st.n[i] as f64;
        }
        return; // scalar `continue`
    }

    // Leap (clipped at the next hard stop).
    let stop = st.base.t_end().min(injection_time);
    let tau = tau.min(stop - st.t);
    st.stats.tau_leaps += 1;
    for (j, &p) in lane_props.iter().enumerate() {
        let k = poisson(&mut st.rng, p * tau);
        if k == 0 {
            continue;
        }
        for &(i, d) in st.compiled.changed_species(j) {
            st.n[i] = (st.n[i] + d * k as i64).max(0);
        }
    }
    for (fv, &c) in st.f.iter_mut().zip(&st.n) {
        *fv = c as f64;
    }
    let t_next = st.t + tau;
    record_until(&mut st.trace, &st.f, &mut st.next_record, t_next, &st.base);
    st.t = t_next;
    st.stats.final_time = st.t;
    if (st.t - injection_time).abs() < 1e-12 && injection_time <= st.base.t_end() {
        let outcome = apply_injection(
            &st.injections[st.next_injection],
            &mut st.n,
            &mut st.f,
            &mut st.trace,
            st.t,
        );
        if let Err(e) = outcome {
            return retire(st, Err(e), wd, retired);
        }
        st.next_injection += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{Condition, Trigger};
    use crate::sim::Simulation;
    use crate::SimSpec;
    use molseq_crn::{Crn, RateAssignment};
    use std::cell::Cell;

    fn counter_crn() -> Crn {
        "X -> Y @slow\nY -> X @slow\n2X -> Z @fast\nZ -> X @slow"
            .parse()
            .unwrap()
    }

    fn scalar_ssa(
        crn: &Crn,
        compiled: &CompiledCrn,
        init: &State,
        schedule: &Schedule,
        opts: SsaOptions,
    ) -> Result<Trace, SimError> {
        Simulation::new(crn, compiled)
            .init(init)
            .schedule(schedule)
            .options(opts)
            .run()
    }

    fn scalar_tau(
        crn: &Crn,
        compiled: &CompiledCrn,
        init: &State,
        schedule: &Schedule,
        opts: TauLeapOptions,
    ) -> Result<Trace, SimError> {
        Simulation::new(crn, compiled)
            .init(init)
            .schedule(schedule)
            .options(opts)
            .run()
    }

    #[test]
    fn batched_propensities_match_scalar_bitwise() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let fast = compiled.rebind(&SimSpec::new(RateAssignment::from_ratio(250.0)));
        let lanes = [&compiled, &fast, &compiled];
        let wd = lanes.len();
        let mut ks = Vec::new();
        compiled.gather_rates(&lanes, &mut ks);
        let states: [&[i64]; 3] = [&[7, 3, 2], &[0, 5, 1], &[2, 2, 0]];
        let mut n_soa = vec![0i64; compiled.species_count() * wd];
        for (l, st) in states.iter().enumerate() {
            for (i, &c) in st.iter().enumerate() {
                n_soa[i * wd + l] = c;
            }
        }
        let mut props = vec![0.0; compiled.reaction_count() * wd];
        compiled.propensity_batch(&ks, &n_soa, &mut props, wd);
        for (l, st) in states.iter().enumerate() {
            for j in 0..compiled.reaction_count() {
                let scalar = lanes[l].propensity(j, st);
                assert_eq!(
                    props[j * wd + l].to_bits(),
                    scalar.to_bits(),
                    "lane {l} reaction {j}"
                );
            }
        }
    }

    #[test]
    fn ssa_width_one_is_bit_identical_to_scalar() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(crn.find_species("X").unwrap(), 40.0);
        let schedule = Schedule::new().inject(1.5, crn.find_species("Y").unwrap(), 12.0);
        let opts = SsaOptions::default().with_t_end(4.0).with_seed(17);
        let scalar = scalar_ssa(&crn, &compiled, &init, &schedule, opts).unwrap();
        let mut ws = BatchedStochWorkspace::new();
        let lanes = [SsaBatchLane {
            compiled: &compiled,
            init: &init,
            schedule: &schedule,
            options: opts,
        }];
        let got = run_ssa_batch(&crn, &lanes, &mut ws);
        assert_eq!(got.len(), 1);
        assert_eq!(*got[0].as_ref().unwrap(), scalar);
        // workspace reuse must not perturb a rerun
        let again = run_ssa_batch(&crn, &lanes, &mut ws);
        assert_eq!(*again[0].as_ref().unwrap(), scalar);
    }

    #[test]
    fn ssa_wide_batches_match_their_scalar_runs_bitwise() {
        let crn = counter_crn();
        let base = CompiledCrn::new(&crn, &SimSpec::default());
        let x = crn.find_species("X").unwrap();
        let ratios = [10.0, 100.0, 1.0e3, 1.0e4, 20.0, 300.0, 4.0e3, 40.0];
        let rebound: Vec<CompiledCrn> = ratios
            .iter()
            .map(|&r| base.rebind(&SimSpec::new(RateAssignment::from_ratio(r))))
            .collect();
        let mut init = State::new(&crn);
        init.set(x, 25.0);
        let schedule = Schedule::new();
        for width in [2usize, 4, 8] {
            let lanes: Vec<SsaBatchLane> = (0..width)
                .map(|l| SsaBatchLane {
                    compiled: &rebound[l],
                    init: &init,
                    schedule: &schedule,
                    options: SsaOptions::default()
                        .with_t_end(0.8)
                        .with_seed(100 + l as u64),
                })
                .collect();
            let mut ws = BatchedStochWorkspace::new();
            let got = run_ssa_batch(&crn, &lanes, &mut ws);
            for (l, lane) in lanes.iter().enumerate() {
                let scalar =
                    scalar_ssa(&crn, lane.compiled, lane.init, lane.schedule, lane.options)
                        .unwrap();
                assert_eq!(
                    *got[l].as_ref().unwrap(),
                    scalar,
                    "width {width} lane {l} diverged from scalar"
                );
            }
        }
    }

    #[test]
    fn tau_wide_batches_match_their_scalar_runs_bitwise() {
        let crn = counter_crn();
        let base = CompiledCrn::new(&crn, &SimSpec::default());
        let x = crn.find_species("X").unwrap();
        let ratios = [10.0, 100.0, 1.0e3, 1.0e4, 20.0, 300.0, 4.0e3, 40.0];
        let rebound: Vec<CompiledCrn> = ratios
            .iter()
            .map(|&r| base.rebind(&SimSpec::new(RateAssignment::from_ratio(r))))
            .collect();
        let mut init = State::new(&crn);
        init.set(x, 50_000.0);
        let schedule = Schedule::new().inject(0.3, x, 10_000.0);
        for width in [1usize, 2, 4, 8] {
            let lanes: Vec<TauBatchLane> = (0..width)
                .map(|l| TauBatchLane {
                    compiled: &rebound[l],
                    init: &init,
                    schedule: &schedule,
                    options: TauLeapOptions {
                        base: SsaOptions::default()
                            .with_t_end(0.6)
                            .with_seed(7 + l as u64),
                        ..TauLeapOptions::default()
                    },
                })
                .collect();
            let mut ws = BatchedStochWorkspace::new();
            let got = run_tau_batch(&crn, &lanes, &mut ws);
            for (l, lane) in lanes.iter().enumerate() {
                let scalar =
                    scalar_tau(&crn, lane.compiled, lane.init, lane.schedule, lane.options)
                        .unwrap();
                assert_eq!(
                    *got[l].as_ref().unwrap(),
                    scalar,
                    "width {width} lane {l} diverged from scalar"
                );
            }
        }
    }

    #[test]
    fn batched_metrics_match_scalar_counters() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(crn.find_species("X").unwrap(), 60.0);
        let schedule = Schedule::new();

        let scalar_sink = Cell::new(SimMetrics::default());
        let opts = SsaOptions::default()
            .with_t_end(2.0)
            .with_seed(3)
            .with_metrics(&scalar_sink);
        scalar_ssa(&crn, &compiled, &init, &schedule, opts).unwrap();

        let batch_sink = Cell::new(SimMetrics::default());
        let lanes = [SsaBatchLane {
            compiled: &compiled,
            init: &init,
            schedule: &schedule,
            options: SsaOptions::default()
                .with_t_end(2.0)
                .with_seed(3)
                .with_metrics(&batch_sink),
        }];
        let mut ws = BatchedStochWorkspace::new();
        run_ssa_batch(&crn, &lanes, &mut ws);
        let scalar = scalar_sink.get();
        let batched = batch_sink.get();
        assert_eq!(batched.ssa_events, scalar.ssa_events);
        assert_eq!(batched.final_time, scalar.final_time);
        assert_eq!(batched.seed, scalar.seed);
        assert_eq!(batched.batch_width, 1);
        assert_eq!(batched.lanes_retired, 0);
    }

    #[test]
    fn ssa_budget_cut_retires_one_lane_and_leaves_the_rest_bit_identical() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(crn.find_species("X").unwrap(), 500.0);
        let schedule = Schedule::new();
        let hook = |events: u64, _t: f64| {
            if events >= 10 {
                ControlFlow::Break("cut".to_owned())
            } else {
                ControlFlow::Continue(())
            }
        };
        let shared = Cell::new(SimMetrics::default());
        let mk = |seed: u64| {
            SsaOptions::default()
                .with_t_end(1.0)
                .with_seed(seed)
                .with_metrics(&shared)
        };
        let lanes = [
            SsaBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: mk(1),
            },
            SsaBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: mk(2).with_step_hook(&hook),
            },
            SsaBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: mk(3),
            },
        ];
        let mut ws = BatchedStochWorkspace::new();
        let got = run_ssa_batch(&crn, &lanes, &mut ws);
        assert!(matches!(got[1], Err(SimError::Interrupted { .. })));
        for l in [0usize, 2] {
            let scalar = scalar_ssa(&crn, &compiled, &init, &schedule, lanes[l].options).unwrap();
            assert_eq!(*got[l].as_ref().unwrap(), scalar, "lane {l}");
        }
        // the hooked lane retired first (ordinal 0), survivors after it:
        // the shared sink accumulates ordinals 0 + 1 + 2
        let m = shared.get();
        assert_eq!(m.batch_width, 3);
        assert_eq!(m.lanes_retired, 3);
    }

    #[test]
    fn tau_budget_cut_retires_one_lane_and_leaves_the_rest_bit_identical() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(crn.find_species("X").unwrap(), 30_000.0);
        let schedule = Schedule::new();
        let hook = |steps: u64, _t: f64| {
            if steps >= 4 {
                ControlFlow::Break("cut".to_owned())
            } else {
                ControlFlow::Continue(())
            }
        };
        let mk = |seed: u64| TauLeapOptions {
            base: SsaOptions::default().with_t_end(0.5).with_seed(seed),
            ..TauLeapOptions::default()
        };
        let mut cut = mk(2);
        cut.base = cut.base.with_step_hook(&hook);
        let lanes = [
            TauBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: mk(1),
            },
            TauBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: cut,
            },
            TauBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: mk(3),
            },
        ];
        let mut ws = BatchedStochWorkspace::new();
        let got = run_tau_batch(&crn, &lanes, &mut ws);
        assert!(matches!(got[1], Err(SimError::Interrupted { .. })));
        for l in [0usize, 2] {
            let scalar = scalar_tau(&crn, &compiled, &init, &schedule, lanes[l].options).unwrap();
            assert_eq!(*got[l].as_ref().unwrap(), scalar, "lane {l}");
        }
    }

    #[test]
    fn validation_errors_are_per_lane_and_do_not_flush() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(crn.find_species("X").unwrap(), 10.0);
        let schedule = Schedule::new();
        let sink = Cell::new(SimMetrics::default());
        let lanes = [
            SsaBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: SsaOptions::default().with_t_end(0.5).with_seed(1),
            },
            SsaBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                // NaN horizon: rejected before the core runs, no flush
                options: SsaOptions::default()
                    .with_t_end(f64::NAN)
                    .with_metrics(&sink),
            },
        ];
        let mut ws = BatchedStochWorkspace::new();
        let got = run_ssa_batch(&crn, &lanes, &mut ws);
        assert!(got[0].is_ok());
        assert!(matches!(got[1], Err(SimError::BadTimeSpan { .. })));
        assert_eq!(sink.get(), SimMetrics::default());
    }

    #[test]
    fn fractional_init_retires_with_a_flush_like_the_scalar_core() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut bad = State::new(&crn);
        bad.set(crn.find_species("X").unwrap(), 1.5);
        let mut good = State::new(&crn);
        good.set(crn.find_species("X").unwrap(), 10.0);
        let schedule = Schedule::new();
        let sink = Cell::new(SimMetrics::default());
        let lanes = [
            SsaBatchLane {
                compiled: &compiled,
                init: &bad,
                schedule: &schedule,
                options: SsaOptions::default()
                    .with_t_end(0.5)
                    .with_seed(9)
                    .with_metrics(&sink),
            },
            SsaBatchLane {
                compiled: &compiled,
                init: &good,
                schedule: &schedule,
                options: SsaOptions::default().with_t_end(0.5).with_seed(1),
            },
        ];
        let mut ws = BatchedStochWorkspace::new();
        let got = run_ssa_batch(&crn, &lanes, &mut ws);
        assert!(matches!(got[0], Err(SimError::NonIntegerAmount { .. })));
        assert!(got[1].is_ok());
        // the scalar core flushes seed/final_time even on this failure
        let m = sink.get();
        assert_eq!(m.seed, 9);
        assert_eq!(m.final_time, 0.0);
        assert_eq!(m.batch_width, 2);
    }

    #[test]
    fn empty_batches_return_nothing() {
        let crn = counter_crn();
        let mut ws = BatchedStochWorkspace::new();
        assert!(run_ssa_batch(&crn, &[], &mut ws).is_empty());
        assert!(run_tau_batch(&crn, &[], &mut ws).is_empty());
    }

    #[test]
    #[should_panic(expected = "share one network structure")]
    fn mismatched_structures_panic() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let init = State::new(&crn);
        let schedule = Schedule::new();
        // same species count (passes per-lane validation), different
        // reaction structure: the batch-level assert must catch it
        let variant: Crn = "X -> Y @slow\nY -> X @slow\n2X -> Z @fast\nX -> Z @slow"
            .parse()
            .unwrap();
        let variant_compiled = CompiledCrn::new(&variant, &SimSpec::default());
        let lanes = [
            SsaBatchLane {
                compiled: &compiled,
                init: &init,
                schedule: &schedule,
                options: SsaOptions::default(),
            },
            SsaBatchLane {
                compiled: &variant_compiled,
                init: &init,
                schedule: &schedule,
                options: SsaOptions::default(),
            },
        ];
        let mut ws = BatchedStochWorkspace::new();
        let _ = run_ssa_batch(&crn, &lanes, &mut ws);
    }

    #[test]
    #[should_panic(expected = "tau-leaping does not support triggers")]
    fn tau_batch_rejects_triggers() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let x = crn.find_species("X").unwrap();
        let init = State::new(&crn);
        let schedule = Schedule::new().trigger(Trigger::mark(Condition::Above {
            species: x,
            threshold: 5.0,
        }));
        let lanes = [TauBatchLane {
            compiled: &compiled,
            init: &init,
            schedule: &schedule,
            options: TauLeapOptions::default(),
        }];
        let mut ws = BatchedStochWorkspace::new();
        let _ = run_tau_batch(&crn, &lanes, &mut ws);
    }

    #[test]
    fn ssa_mid_batch_budget_cuts_keep_survivors_bitwise_at_all_widths() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(crn.find_species("X").unwrap(), 200.0);
        let schedule = Schedule::new();
        let hook = |events: u64, _t: f64| {
            if events >= 25 {
                ControlFlow::Break("mid-batch cut".to_owned())
            } else {
                ControlFlow::Continue(())
            }
        };
        for width in [1usize, 2, 4, 8] {
            let lanes: Vec<SsaBatchLane> = (0..width)
                .map(|l| {
                    let opts = SsaOptions::default().with_t_end(1.5).with_seed(l as u64);
                    let opts = if l % 2 == 1 {
                        opts.with_step_hook(&hook)
                    } else {
                        opts
                    };
                    SsaBatchLane {
                        compiled: &compiled,
                        init: &init,
                        schedule: &schedule,
                        options: opts,
                    }
                })
                .collect();
            let mut ws = BatchedStochWorkspace::new();
            let got = run_ssa_batch(&crn, &lanes, &mut ws);
            for (l, lane) in lanes.iter().enumerate() {
                let scalar =
                    scalar_ssa(&crn, lane.compiled, lane.init, lane.schedule, lane.options);
                match (&got[l], &scalar) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "width {width} lane {l}"),
                    (
                        Err(SimError::Interrupted { time: ta, .. }),
                        Err(SimError::Interrupted { time: tb, .. }),
                    ) => {
                        assert_eq!(ta.to_bits(), tb.to_bits(), "width {width} lane {l}");
                    }
                    other => panic!("width {width} lane {l}: mismatched outcomes {other:?}"),
                }
            }
        }
    }

    #[test]
    fn tau_mid_batch_budget_cuts_keep_survivors_bitwise_at_all_widths() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(crn.find_species("X").unwrap(), 20_000.0);
        let schedule = Schedule::new();
        let hook = |steps: u64, _t: f64| {
            if steps >= 6 {
                ControlFlow::Break("mid-batch cut".to_owned())
            } else {
                ControlFlow::Continue(())
            }
        };
        for width in [1usize, 2, 4, 8] {
            let lanes: Vec<TauBatchLane> = (0..width)
                .map(|l| {
                    let mut opts = TauLeapOptions {
                        base: SsaOptions::default().with_t_end(0.4).with_seed(l as u64),
                        ..TauLeapOptions::default()
                    };
                    if l % 2 == 1 {
                        opts.base = opts.base.with_step_hook(&hook);
                    }
                    TauBatchLane {
                        compiled: &compiled,
                        init: &init,
                        schedule: &schedule,
                        options: opts,
                    }
                })
                .collect();
            let mut ws = BatchedStochWorkspace::new();
            let got = run_tau_batch(&crn, &lanes, &mut ws);
            for (l, lane) in lanes.iter().enumerate() {
                let scalar =
                    scalar_tau(&crn, lane.compiled, lane.init, lane.schedule, lane.options);
                match (&got[l], &scalar) {
                    (Ok(a), Ok(b)) => assert_eq!(a, b, "width {width} lane {l}"),
                    (
                        Err(SimError::Interrupted { time: ta, .. }),
                        Err(SimError::Interrupted { time: tb, .. }),
                    ) => {
                        assert_eq!(ta.to_bits(), tb.to_bits(), "width {width} lane {l}");
                    }
                    other => panic!("width {width} lane {l}: mismatched outcomes {other:?}"),
                }
            }
        }
    }

    #[test]
    fn ssa_lanes_with_triggers_match_scalar_bitwise() {
        let crn = counter_crn();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let x = crn.find_species("X").unwrap();
        let y = crn.find_species("Y").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 30.0);
        let schedule = Schedule::new()
            .inject(0.5, x, 20.0)
            .trigger(Trigger::inject_queue(
                Condition::Above {
                    species: y,
                    threshold: 10.0,
                },
                x,
                vec![5.0, 5.0],
            ));
        for width in [2usize, 4] {
            let lanes: Vec<SsaBatchLane> = (0..width)
                .map(|l| SsaBatchLane {
                    compiled: &compiled,
                    init: &init,
                    schedule: &schedule,
                    options: SsaOptions::default()
                        .with_t_end(2.0)
                        .with_seed(31 + l as u64),
                })
                .collect();
            let mut ws = BatchedStochWorkspace::new();
            let got = run_ssa_batch(&crn, &lanes, &mut ws);
            for (l, lane) in lanes.iter().enumerate() {
                let scalar =
                    scalar_ssa(&crn, lane.compiled, lane.init, lane.schedule, lane.options)
                        .unwrap();
                assert_eq!(*got[l].as_ref().unwrap(), scalar, "width {width} lane {l}");
            }
        }
    }
}
