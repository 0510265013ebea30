//! Stochastic simulation (Gillespie direct method).
//!
//! The deterministic ODE picture assumes concentrations are continuous; in a
//! real (or DNA-implemented) system the constructs must also work at finite
//! molecule counts, where every reaction is a discrete random event.
//! Experiment E10 uses this simulator to measure how small the counts can
//! get before the synchronous scheme starts mis-transferring.

use crate::compiled::CompiledCrn;
use crate::events::{Injection, TriggerRuntime};
use crate::metrics::{sinks_eq, MetricsSink, SimMetrics};
use crate::ode::{StepHook, StopHook};
use crate::sim::check_record_interval;
use crate::{Schedule, SimError, State, Trace};
use molseq_crn::Crn;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::ops::ControlFlow;

/// Options controlling one stochastic run.
///
/// # Examples
///
/// ```
/// use molseq_kinetics::SsaOptions;
///
/// let opts = SsaOptions::default().with_t_end(20.0).with_seed(7);
/// assert_eq!(opts.t_end(), 20.0);
/// ```
#[derive(Clone, Copy)]
pub struct SsaOptions<'h> {
    t_start: f64,
    t_end: f64,
    record_interval: f64,
    max_events: usize,
    seed: u64,
    step_hook: Option<StepHook<'h>>,
    stop_hook: Option<StopHook<'h>>,
    metrics: Option<MetricsSink<'h>>,
}

impl std::fmt::Debug for SsaOptions<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsaOptions")
            .field("t_start", &self.t_start)
            .field("t_end", &self.t_end)
            .field("record_interval", &self.record_interval)
            .field("max_events", &self.max_events)
            .field("seed", &self.seed)
            .field("step_hook", &self.step_hook.map(|_| "<hook>"))
            .field("stop_hook", &self.stop_hook.map(|_| "<stop>"))
            .field("metrics", &self.metrics.map(|_| "<sink>"))
            .finish()
    }
}

impl PartialEq for SsaOptions<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.t_start == other.t_start
            && self.t_end == other.t_end
            && self.record_interval == other.record_interval
            && self.max_events == other.max_events
            && self.seed == other.seed
            && crate::ode::hooks_eq(self.step_hook, other.step_hook)
            && crate::ode::hooks_eq(self.stop_hook, other.stop_hook)
            && sinks_eq(self.metrics, other.metrics)
    }
}

impl Default for SsaOptions<'_> {
    /// Span `[0, 10]`, recording every `0.1`, 50 million event budget,
    /// seed `0`, no step hook.
    fn default() -> Self {
        SsaOptions {
            t_start: 0.0,
            t_end: 10.0,
            record_interval: 0.1,
            max_events: 50_000_000,
            seed: 0,
            step_hook: None,
            stop_hook: None,
            metrics: None,
        }
    }
}

impl<'h> SsaOptions<'h> {
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

    /// Sets the event budget (builder style).
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

    /// Installs a cooperative interruption hook (builder style), polled
    /// once per fired reaction event with `(cumulative events, current
    /// time)`. See [`StepHook`].
    #[must_use]
    pub fn with_step_hook(mut self, hook: StepHook<'h>) -> Self {
        self.step_hook = Some(hook);
        self
    }

    /// Installs a clean stop (builder style), polled after every fired
    /// reaction event with the trace recorded so far. The exact SSA polls
    /// it; the tau-leapers, which take these options as their base, do
    /// not. See [`StopHook`].
    #[must_use]
    pub fn with_stop_hook(mut self, stop: StopHook<'h>) -> Self {
        self.stop_hook = Some(stop);
        self
    }

    /// Installs a metrics sink (builder style). On every exit path —
    /// success or error — the simulator absorbs its work counters (events
    /// fired, final time, seed) into the sink. See
    /// [`SimMetrics`].
    #[must_use]
    pub fn with_metrics(mut self, sink: MetricsSink<'h>) -> Self {
        self.metrics = Some(sink);
        self
    }

    /// The configured end time.
    #[must_use]
    pub fn t_end(&self) -> f64 {
        self.t_end
    }

    /// The configured start time.
    #[must_use]
    pub fn t_start(&self) -> f64 {
        self.t_start
    }

    /// The configured recording interval.
    #[must_use]
    pub fn record_interval(&self) -> f64 {
        self.record_interval
    }

    /// The configured event budget.
    #[must_use]
    pub fn max_events(&self) -> usize {
        self.max_events
    }

    /// The configured random seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
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

/// Validated entry point over a precompiled network: what the
/// [`Simulation`](crate::Simulation) builder dispatches to for
/// [`SimMethod::Ssa`](crate::SimMethod::Ssa).
pub(crate) fn run_ssa(
    crn: &Crn,
    compiled: &CompiledCrn,
    init: &State,
    schedule: &Schedule,
    opts: &SsaOptions,
) -> Result<Trace, SimError> {
    validate(crn, compiled, init, opts)?;
    let mut run = match SsaRun::new(crn, compiled, init, schedule, *opts) {
        Ok(run) => run,
        Err(e) => {
            // flush even on failure: a run whose initial state is
            // unusable still reports its seed
            SimMetrics::flush(opts.metrics, started(opts));
            return Err(e);
        }
    };
    loop {
        if let ControlFlow::Break(outcome) = run.step() {
            return run.finish(outcome);
        }
    }
}

/// The checks made before any work (no metrics flush on failure):
/// dimensions, time span and sampling interval.
pub(crate) fn validate(
    crn: &Crn,
    compiled: &CompiledCrn,
    init: &State,
    opts: &SsaOptions,
) -> Result<(), SimError> {
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
    check_record_interval(opts.record_interval)
}

/// The counters of a run that has not fired yet.
pub(crate) fn started(opts: &SsaOptions) -> SimMetrics {
    SimMetrics {
        seed: opts.seed,
        final_time: opts.t_start,
        ..SimMetrics::default()
    }
}

/// One direct-method run, between events.
///
/// The run caches every reaction's propensity. After a firing it
/// re-evaluates only the fired reaction's
/// [`dependents`](CompiledCrn::dependents) row and refreshes only the
/// changed species in the f64 mirror. An injection or a trigger's
/// sync-back re-evaluates the whole row and marks the mirror for a full
/// refresh at the next firing. Every cached entry therefore holds exactly
/// the bits a fresh [`propensity`](CompiledCrn::propensity) call returns
/// (debug builds assert this after every event). Since `a0` is still
/// summed over the row in reaction order and the selection still scans
/// it, every draw, event time, sample and counter equals a full
/// recompute's bit for bit.
///
/// [`run_ssa`] steps one run to its end.
pub(crate) struct SsaRun<'a, 'h> {
    compiled: &'a CompiledCrn,
    schedule: &'a Schedule,
    opts: SsaOptions<'h>,
    injections: Vec<Injection>,
    next_injection: usize,
    triggers: TriggerRuntime,
    /// Integer copy numbers.
    n: Vec<i64>,
    /// The f64 mirror of `n` that triggers read and the trace records.
    f: Vec<f64>,
    /// Set when a trigger or an injection wrote the mirror: the next
    /// firing refreshes all of it, as a full recompute would.
    mirror_dirty: bool,
    /// Cached propensity of every reaction at `n`.
    props: Vec<f64>,
    rng: StdRng,
    trace: Trace,
    /// Work counters so far.
    stats: SimMetrics,
    t: f64,
    next_record: f64,
    events: usize,
}

impl<'a, 'h> SsaRun<'a, 'h> {
    /// Starts a validated run at `opts.t_start()`, recording the initial
    /// sample.
    ///
    /// # Errors
    ///
    /// An initial amount that is not a representable copy number.
    pub(crate) fn new(
        crn: &Crn,
        compiled: &'a CompiledCrn,
        init: &State,
        schedule: &'a Schedule,
        opts: SsaOptions<'h>,
    ) -> Result<Self, SimError> {
        let n = init
            .as_slice()
            .iter()
            .map(|&v| to_count(v))
            .collect::<Result<Vec<i64>, SimError>>()?;
        let f: Vec<f64> = n.iter().map(|&v| v as f64).collect();
        let props = (0..compiled.reaction_count())
            .map(|j| compiled.propensity(j, &n))
            .collect();
        let mut trace = Trace::new(crn);
        trace.push(opts.t_start, &f);
        Ok(SsaRun {
            compiled,
            schedule,
            injections: schedule.sorted_injections(),
            next_injection: 0,
            triggers: TriggerRuntime::new(schedule, &f),
            n,
            f,
            mirror_dirty: false,
            props,
            rng: StdRng::seed_from_u64(opts.seed),
            trace,
            stats: started(&opts),
            t: opts.t_start,
            next_record: opts.t_start + opts.record_interval,
            events: 0,
            opts,
        })
    }

    /// Plays one iteration of the direct method: one reaction event, or
    /// the plateau up to the next injection (which is applied) or up to
    /// `t_end` (which ends the run). A stop hook that fires after the
    /// event ends the run too. `Break` carries the outcome.
    pub(crate) fn step(&mut self) -> ControlFlow<Result<(), SimError>> {
        let injection_time = self
            .injections
            .get(self.next_injection)
            .map_or(f64::INFINITY, |inj| inj.time);

        // Total propensity and waiting time.
        let mut a0 = 0.0;
        for &p in &self.props {
            a0 += p;
        }
        let t_next = if a0 > 0.0 {
            let u: f64 = 1.0 - self.rng.random::<f64>();
            self.t - u.ln() / a0
        } else {
            f64::INFINITY
        };

        // Which comes first: reaction, injection, or end of span?
        let stop = self.opts.t_end.min(injection_time);
        if t_next >= stop {
            // Record the plateau up to `stop`.
            record_until(
                &mut self.trace,
                &self.f,
                &mut self.next_record,
                stop,
                &self.opts,
            );
            self.t = stop;
            self.stats.final_time = stop;
            if injection_time <= self.opts.t_end {
                return match self.inject() {
                    Ok(()) => ControlFlow::Continue(()),
                    Err(e) => ControlFlow::Break(Err(e)),
                };
            }
            self.trace.push(self.t, &self.f);
            return ControlFlow::Break(Ok(()));
        }

        // Fire one reaction.
        if self.events >= self.opts.max_events {
            return ControlFlow::Break(Err(SimError::StepLimitExceeded {
                reached: self.t,
                t_end: self.opts.t_end,
                max_steps: self.opts.max_events,
            }));
        }
        self.events += 1;
        self.stats.ssa_events = self.events as u64;
        if let Some(hook) = self.opts.step_hook {
            if let ControlFlow::Break(reason) = hook(self.events as u64, self.t) {
                return ControlFlow::Break(Err(SimError::Interrupted {
                    time: self.t,
                    reason,
                }));
            }
        }
        record_until(
            &mut self.trace,
            &self.f,
            &mut self.next_record,
            t_next,
            &self.opts,
        );
        self.t = t_next;
        self.stats.final_time = t_next;
        let pick: f64 = self.rng.random::<f64>() * a0;
        let props = &self.props;
        let chosen = select_reaction(props.len(), |j| props[j], pick);
        let compiled = self.compiled;
        compiled.fire(chosen, &mut self.n);
        if self.mirror_dirty {
            for (f, &c) in self.f.iter_mut().zip(&self.n) {
                *f = c as f64;
            }
            self.mirror_dirty = false;
        } else {
            for &(i, _) in compiled.changed_species(chosen) {
                self.f[i] = self.n[i] as f64;
            }
        }
        for &q in compiled.dependents(chosen) {
            self.props[q] = compiled.propensity(q, &self.n);
        }
        if !self.schedule.triggers().is_empty() {
            let mut synced = false;
            for fired in self.triggers.poll(self.schedule, self.t, &mut self.f) {
                self.trace.push_mark(self.t, fired);
                self.trace.push(self.t, &self.f);
                if let Err(e) = sync_back(&mut self.n, &self.f) {
                    return ControlFlow::Break(Err(e));
                }
                synced = true;
            }
            if synced {
                self.refresh();
            }
        }
        #[cfg(debug_assertions)]
        self.assert_cache_fresh();
        if self.opts.stop_hook.is_some_and(|stop| stop(&self.trace)) {
            self.trace.push(self.t, &self.f);
            return ControlFlow::Break(Ok(()));
        }
        ControlFlow::Continue(())
    }

    /// Applies the next timed injection at the current time, records it
    /// and polls the triggers.
    fn inject(&mut self) -> Result<(), SimError> {
        let inj = &self.injections[self.next_injection];
        let i = inj.species.index();
        self.n[i] += to_count(inj.amount)?;
        self.f[i] = self.n[i] as f64;
        self.trace.push(self.t, &self.f);
        self.next_injection += 1;
        for fired in self.triggers.poll(self.schedule, self.t, &mut self.f) {
            self.trace.push_mark(self.t, fired);
            sync_back(&mut self.n, &self.f)?;
        }
        self.refresh();
        Ok(())
    }

    /// Re-evaluates the whole propensity row after `n` changed outside a
    /// firing, and marks the mirror for a full refresh.
    fn refresh(&mut self) {
        for (j, p) in self.props.iter_mut().enumerate() {
            *p = self.compiled.propensity(j, &self.n);
        }
        self.mirror_dirty = true;
    }

    /// Debug builds: after every event the cached row, and the mirror
    /// unless it is marked dirty, equal a fresh evaluation bit for bit.
    #[cfg(debug_assertions)]
    fn assert_cache_fresh(&self) {
        for (j, &p) in self.props.iter().enumerate() {
            let fresh = self.compiled.propensity(j, &self.n);
            assert!(
                p.to_bits() == fresh.to_bits(),
                "cached propensity of reaction {j} is {p}, a fresh evaluation gives {fresh}"
            );
        }
        if !self.mirror_dirty {
            for (i, (&f, &c)) in self.f.iter().zip(&self.n).enumerate() {
                assert!(
                    f.to_bits() == (c as f64).to_bits(),
                    "f64 mirror of species {i} is {f}, its count is {c}"
                );
            }
        }
    }

    /// Ends the run with `outcome`: flushes the counters into the sink
    /// (every exit path reports the work done) and hands back the trace.
    pub(crate) fn finish(mut self, outcome: Result<(), SimError>) -> Result<Trace, SimError> {
        self.stats.final_time = self.t;
        SimMetrics::flush(self.opts.metrics, self.stats);
        outcome.map(|()| self.trace)
    }
}

/// Selects the reaction to fire from a prefix-sum scan of the propensities.
///
/// `pick` is uniform in `[0, a0)` where `a0` is the (positive) propensity
/// total, so the scan normally terminates at the first `j` with
/// `pick < Σ_{k≤j} a_k` — necessarily a reaction with positive propensity.
/// Floating-point round-off can, however, leave `pick >= acc` even after
/// the last reaction (the re-summed `acc` may land just below `a0`). The
/// fallback for that case must be the last reaction with *positive*
/// propensity: defaulting to the last reaction unconditionally (the old
/// behavior) could fire a zero-propensity reaction whose reactants are
/// exhausted and drive copy numbers negative.
pub(crate) fn select_reaction(
    count: usize,
    mut propensity: impl FnMut(usize) -> f64,
    pick: f64,
) -> usize {
    let mut acc = 0.0;
    let mut last_positive = 0;
    for j in 0..count {
        let p = propensity(j);
        if p > 0.0 {
            last_positive = j;
        }
        acc += p;
        if pick < acc {
            return j;
        }
    }
    last_positive
}

/// The largest copy number the stochastic engines accept: `2^53`, up to
/// which an f64 holds every integer exactly. The engines keep an f64
/// mirror of the integer state, so a larger count would silently round.
pub(crate) const MAX_COUNT: f64 = 9_007_199_254_740_992.0;

/// Converts an amount to an integer copy number.
///
/// # Errors
///
/// [`SimError::NonIntegerAmount`] for a negative, fractional or
/// non-finite amount, [`SimError::CountTooLarge`] above [`MAX_COUNT`].
pub(crate) fn to_count(v: f64) -> Result<i64, SimError> {
    let rounded = v.round();
    if v < 0.0 || (v - rounded).abs() > 1e-9 || !v.is_finite() {
        return Err(SimError::NonIntegerAmount { amount: v });
    }
    if rounded > MAX_COUNT {
        return Err(SimError::CountTooLarge { amount: v });
    }
    Ok(rounded as i64)
}

/// After a trigger's queue injection modified the f64 mirror, fold the
/// change back into the integer state.
pub(crate) fn sync_back(n: &mut [i64], f64_state: &[f64]) -> Result<(), SimError> {
    for (c, &f) in n.iter_mut().zip(f64_state) {
        *c = to_count(f)?;
    }
    Ok(())
}

pub(crate) fn record_until(
    trace: &mut Trace,
    state: &[f64],
    next_record: &mut f64,
    until: f64,
    opts: &SsaOptions,
) {
    while *next_record <= until && *next_record <= opts.t_end {
        trace.push(*next_record, state);
        *next_record += opts.record_interval;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SimSpec;
    use molseq_crn::{Crn, RateAssignment};

    /// Builder-backed stand-in for the deprecated free function (shadows
    /// the glob import), keeping every test on the new entry point.
    fn simulate_ssa(
        crn: &Crn,
        init: &State,
        schedule: &Schedule,
        opts: &SsaOptions,
        spec: &SimSpec,
    ) -> Result<Trace, SimError> {
        let compiled = CompiledCrn::new(crn, spec);
        crate::sim::Simulation::new(crn, &compiled)
            .init(init)
            .schedule(schedule)
            .options(*opts)
            .run()
    }

    #[test]
    fn decay_reaches_zero_and_conserves_integers() {
        let crn: Crn = "X -> Y @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let y = crn.find_species("Y").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 100.0);
        let opts = SsaOptions::default().with_t_end(50.0).with_seed(1);
        let trace =
            simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        let fin = trace.final_state();
        assert_eq!(fin[x.index()], 0.0);
        assert_eq!(fin[y.index()], 100.0);
        // every snapshot conserves X+Y
        for i in 0..trace.len() {
            assert_eq!(trace.state(i)[x.index()] + trace.state(i)[y.index()], 100.0);
        }
    }

    /// A stop hook ends the run `Ok` after the event it fires on: the
    /// samples before it are those of a run to `t_end`, and the final
    /// sample is the stop time.
    #[test]
    fn stop_hook_ends_the_run_on_a_prefix() {
        let crn: Crn = "X -> Y @slow\nY -> X @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 50.0);
        let opts = SsaOptions::default().with_t_end(5.0).with_seed(9);
        let full = simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        let stop = |trace: &Trace| trace.len() > 20;
        let sink = std::cell::Cell::new(crate::SimMetrics::default());
        let stopped = simulate_ssa(
            &crn,
            &init,
            &Schedule::new(),
            &opts.with_stop_hook(&stop).with_metrics(&sink),
            &SimSpec::default(),
        )
        .unwrap();
        let kept = stopped.len() - 1;
        assert!(kept > 20 && kept < full.len());
        assert_eq!(stopped.times()[..kept], full.times()[..kept]);
        for i in 0..kept {
            assert_eq!(stopped.state(i), full.state(i));
        }
        let m = sink.get();
        assert_eq!(stopped.times()[kept], m.final_time);
        assert!(m.final_time < 5.0);
    }

    #[test]
    fn seeded_runs_are_reproducible() {
        let crn: Crn = "X -> Y @slow\nY -> X @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 50.0);
        let opts = SsaOptions::default().with_t_end(5.0).with_seed(42);
        let a = simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        let b = simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        assert_eq!(a, b);
        let c = simulate_ssa(
            &crn,
            &init,
            &Schedule::new(),
            &opts.with_seed(43),
            &SimSpec::default(),
        )
        .unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn large_counts_approach_ode_mean() {
        // X -> 0 at k=1: after t=1, mean is N/e.
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let n0 = 10_000.0;
        let mut init = State::new(&crn);
        init.set(x, n0);
        let opts = SsaOptions::default().with_t_end(1.0).with_seed(3);
        let trace =
            simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        let expected = n0 / std::f64::consts::E;
        let got = trace.final_state()[x.index()];
        // 5 sigma ≈ 5·sqrt(N·p·(1−p)) ≈ 240
        assert!((got - expected).abs() < 250.0, "{got} vs {expected}");
    }

    #[test]
    fn injections_apply() {
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let schedule = Schedule::new().inject(2.0, x, 10.0);
        let opts = SsaOptions::default().with_t_end(2.1).with_seed(5);
        let trace = simulate_ssa(
            &crn,
            &State::new(&crn),
            &schedule,
            &opts,
            &SimSpec::default(),
        )
        .unwrap();
        assert!(trace.value_at(x, 1.9) < 1e-9);
        assert!(trace.value_at(x, 2.0 + 1e-9) >= 9.0);
    }

    #[test]
    fn rejects_fractional_amounts() {
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 1.5);
        let err = simulate_ssa(
            &crn,
            &init,
            &Schedule::new(),
            &SsaOptions::default(),
            &SimSpec::default(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::NonIntegerAmount { .. }));
    }

    #[test]
    fn empty_system_idles_to_end() {
        let crn: Crn = "X + Y -> 0 @fast".parse().unwrap();
        let opts = SsaOptions::default().with_t_end(3.0);
        let trace = simulate_ssa(
            &crn,
            &State::new(&crn),
            &Schedule::new(),
            &opts,
            &SimSpec::default(),
        )
        .unwrap();
        assert_eq!(*trace.times().last().unwrap(), 3.0);
    }

    #[test]
    fn bimolecular_uses_combination_counts() {
        // 2X -> Y with exactly 2 molecules: must fire exactly once.
        let crn: Crn = "2X -> Y @fast".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let y = crn.find_species("Y").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 2.0);
        let opts = SsaOptions::default().with_t_end(10.0).with_seed(11);
        let trace =
            simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        assert_eq!(trace.final_state()[x.index()], 0.0);
        assert_eq!(trace.final_state()[y.index()], 1.0);
    }

    #[test]
    fn step_hook_interrupts_event_loop() {
        let crn: Crn = "X -> Y @slow\nY -> X @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 1000.0);
        let hook = |events: u64, _t: f64| {
            if events > 50 {
                ControlFlow::Break("test budget".to_owned())
            } else {
                ControlFlow::Continue(())
            }
        };
        let opts = SsaOptions::default()
            .with_t_end(1000.0)
            .with_seed(9)
            .with_step_hook(&hook);
        let err =
            simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap_err();
        match err {
            SimError::Interrupted { reason, .. } => assert_eq!(reason, "test budget"),
            other => panic!("expected Interrupted, got {other:?}"),
        }
    }

    #[test]
    fn selection_never_falls_back_to_a_zero_propensity_reaction() {
        // Regression: with propensities [2, 0] and a round-off pick at (or
        // beyond) the total, the old fallback (`chosen = last reaction`)
        // fired reaction 1 despite its zero propensity — firing it would
        // drive its exhausted reactant negative. The fallback must be the
        // last reaction with positive propensity.
        let props = [2.0, 0.0];
        assert_eq!(select_reaction(2, |j| props[j], 2.0), 0);
        assert_eq!(select_reaction(2, |j| props[j], f64::INFINITY), 0);
        // zero-propensity reactions in the middle are skipped too
        let props = [0.0, 1.5, 0.0];
        assert_eq!(select_reaction(3, |j| props[j], 1.5), 1);
        // normal in-range picks are untouched by the fix
        let props = [1.0, 2.0, 3.0];
        assert_eq!(select_reaction(3, |j| props[j], 0.5), 0);
        assert_eq!(select_reaction(3, |j| props[j], 1.5), 1);
        assert_eq!(select_reaction(3, |j| props[j], 5.9), 2);
    }

    #[test]
    fn metrics_report_events_seed_and_final_time() {
        use crate::SimMetrics;
        use std::cell::Cell;

        let crn: Crn = "X -> Y @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 100.0);
        let sink = Cell::new(SimMetrics::default());
        let opts = SsaOptions::default()
            .with_t_end(50.0)
            .with_seed(6)
            .with_metrics(&sink);
        simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap();
        let m = sink.get();
        // every X was converted exactly once
        assert_eq!(m.ssa_events, 100);
        assert_eq!(m.seed, 6);
        assert_eq!(m.final_time, 50.0);
        assert_eq!(m.ode_steps_accepted, 0);
    }

    #[test]
    fn a_bad_span_flushes_nothing_but_a_fractional_count_flushes_the_seed() {
        use crate::SimMetrics;
        use std::cell::Cell;

        let crn: Crn = "X -> Y @slow\nY -> X @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut good = State::new(&crn);
        good.set(x, 10.0);
        // rejected before any work: nothing reaches the sink
        let sink = Cell::new(SimMetrics::default());
        let opts = SsaOptions::default()
            .with_t_end(f64::NAN)
            .with_metrics(&sink);
        let err =
            simulate_ssa(&crn, &good, &Schedule::new(), &opts, &SimSpec::default()).unwrap_err();
        assert!(matches!(err, SimError::BadTimeSpan { .. }), "{err:?}");
        assert_eq!(sink.get(), SimMetrics::default());
        // an unusable initial count fails the run after validation: the
        // sink still learns the seed and the (start) time it stopped at
        let mut bad = State::new(&crn);
        bad.set(x, 1.5);
        let opts = SsaOptions::default()
            .with_t_end(0.5)
            .with_seed(9)
            .with_metrics(&sink);
        let err =
            simulate_ssa(&crn, &bad, &Schedule::new(), &opts, &SimSpec::default()).unwrap_err();
        assert!(matches!(err, SimError::NonIntegerAmount { .. }), "{err:?}");
        let m = sink.get();
        assert_eq!(m.seed, 9);
        assert_eq!(m.final_time, 0.0);
        assert_eq!(m.ssa_events, 0);
        assert_eq!((m.batch_width, m.lanes_retired), (0, 0));
    }

    #[test]
    fn metrics_flush_on_interruption() {
        use crate::SimMetrics;
        use std::cell::Cell;

        let crn: Crn = "X -> Y @slow\nY -> X @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 1000.0);
        let hook = |events: u64, _t: f64| {
            if events > 50 {
                ControlFlow::Break("budget".to_owned())
            } else {
                ControlFlow::Continue(())
            }
        };
        let sink = Cell::new(SimMetrics::default());
        let opts = SsaOptions::default()
            .with_t_end(1000.0)
            .with_seed(9)
            .with_step_hook(&hook)
            .with_metrics(&sink);
        simulate_ssa(&crn, &init, &Schedule::new(), &opts, &SimSpec::default()).unwrap_err();
        assert_eq!(sink.get().ssa_events, 51);
    }

    /// The direct method without propensity caching: every propensity
    /// evaluated twice per event (for `a0` and in the selection scan) and
    /// the whole f64 mirror rewritten after every firing. The oracle the
    /// cached run must match bit for bit.
    fn full_recompute(
        crn: &Crn,
        compiled: &CompiledCrn,
        init: &State,
        schedule: &Schedule,
        opts: &SsaOptions,
        stats: &mut SimMetrics,
    ) -> Result<Trace, SimError> {
        let mut n: Vec<i64> = Vec::with_capacity(init.len());
        for &v in init.as_slice() {
            n.push(to_count(v)?);
        }
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut t = opts.t_start;
        let mut trace = Trace::new(crn);
        let mut f64_state: Vec<f64> = n.iter().map(|&v| v as f64).collect();
        trace.push(t, &f64_state);
        let mut triggers = TriggerRuntime::new(schedule, &f64_state);
        let injections = schedule.sorted_injections();
        let mut next_injection = 0usize;
        let mut next_record = opts.t_start + opts.record_interval;
        let mut events = 0usize;
        loop {
            let injection_time = injections
                .get(next_injection)
                .map_or(f64::INFINITY, |inj| inj.time);
            let mut a0 = 0.0;
            for j in 0..compiled.reaction_count() {
                a0 += compiled.propensity(j, &n);
            }
            let t_next = if a0 > 0.0 {
                let u: f64 = 1.0 - rng.random::<f64>();
                t - u.ln() / a0
            } else {
                f64::INFINITY
            };
            let stop = opts.t_end.min(injection_time);
            if t_next >= stop {
                record_until(&mut trace, &f64_state, &mut next_record, stop, opts);
                t = stop;
                stats.final_time = t;
                if injection_time <= opts.t_end {
                    let inj = &injections[next_injection];
                    n[inj.species.index()] += to_count(inj.amount)?;
                    f64_state[inj.species.index()] = n[inj.species.index()] as f64;
                    trace.push(t, &f64_state);
                    next_injection += 1;
                    for fired in triggers.poll(schedule, t, &mut f64_state) {
                        trace.push_mark(t, fired);
                        sync_back(&mut n, &f64_state)?;
                    }
                    continue;
                }
                break;
            }
            if events >= opts.max_events {
                return Err(SimError::StepLimitExceeded {
                    reached: t,
                    t_end: opts.t_end,
                    max_steps: opts.max_events,
                });
            }
            events += 1;
            stats.ssa_events = events as u64;
            record_until(&mut trace, &f64_state, &mut next_record, t_next, opts);
            t = t_next;
            stats.final_time = t;
            let pick: f64 = rng.random::<f64>() * a0;
            let chosen = select_reaction(
                compiled.reaction_count(),
                |j| compiled.propensity(j, &n),
                pick,
            );
            compiled.fire(chosen, &mut n);
            for (f, &c) in f64_state.iter_mut().zip(&n) {
                *f = c as f64;
            }
            if !schedule.triggers().is_empty() {
                for fired in triggers.poll(schedule, t, &mut f64_state) {
                    trace.push_mark(t, fired);
                    trace.push(t, &f64_state);
                    sync_back(&mut n, &f64_state)?;
                }
            }
        }
        trace.push(t, &f64_state);
        Ok(trace)
    }

    #[test]
    fn cached_propensities_reproduce_a_full_recompute_bit_for_bit() {
        use crate::events::{Condition, Trigger};
        use std::cell::Cell;

        // bimolecular, catalytic, dimerizing and zero-order reactions
        let crn: Crn = "X + Y -> Z @fast\nZ -> X + Y @slow\nC + X -> C + Y @fast\n\
                        2Y -> W @fast\nW -> 0 @fast\n0 -> X @slow\nY -> X @slow"
            .parse()
            .unwrap();
        let x = crn.find_species("X").unwrap();
        let y = crn.find_species("Y").unwrap();
        let c = crn.find_species("C").unwrap();
        let w = crn.find_species("W").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 30.0);
        init.set(y, 12.0);
        init.set(c, 2.0);
        // trigger amounts a hair off an integer leave a residue in the
        // f64 mirror of the catalyst C, which no reaction changes: only
        // the full mirror rewrite at the next firing clears it, as the
        // full recompute's per-event rewrite did. Timed injections land
        // mid-run.
        let schedule = Schedule::new()
            .inject(0.4, x, 7.0)
            .inject(1.1, c, 1.0)
            .trigger(
                Trigger::inject_queue(
                    Condition::Above {
                        species: w,
                        threshold: 0.5,
                    },
                    c,
                    vec![1.000_000_000_4, 0.999_999_999_6, 2.000_000_000_3, 1.0],
                )
                .with_rearm(Condition::Below {
                    species: w,
                    threshold: 0.5,
                }),
            )
            .trigger(Trigger::mark(Condition::Above {
                species: crn.find_species("Z").unwrap(),
                threshold: 8.0,
            }));
        let base = CompiledCrn::new(&crn, &SimSpec::default());
        for (ratio, seed) in [(1e3, 0u64), (10.0, 1), (1e5, 2), (50.0, 3), (1e3, 4)] {
            let compiled = base.rebind(&SimSpec::new(RateAssignment::from_ratio(ratio)));
            let opts = SsaOptions::default()
                .with_t_end(4.0)
                .with_record_interval(0.05)
                .with_seed(seed);
            let mut expected_stats = SimMetrics {
                seed,
                ..SimMetrics::default()
            };
            let expected = full_recompute(
                &crn,
                &compiled,
                &init,
                &schedule,
                &opts,
                &mut expected_stats,
            );
            let sink = Cell::new(SimMetrics::default());
            let got = crate::sim::Simulation::new(&crn, &compiled)
                .init(&init)
                .schedule(&schedule)
                .options(opts.with_metrics(&sink))
                .run();
            assert_eq!(got, expected, "ratio {ratio} seed {seed}");
            let trace = expected.expect("runs");
            assert!(
                trace.mark_times(0).len() >= 2,
                "ratio {ratio} seed {seed}: the queue trigger must fire repeatedly"
            );
            let m = sink.get();
            assert_eq!(m.ssa_events, expected_stats.ssa_events);
            assert_eq!(m.final_time.to_bits(), expected_stats.final_time.to_bits());
        }
    }

    #[test]
    fn counts_above_two_to_the_53_are_rejected_not_wrapped() {
        // 1e300 would saturate to i64::MAX and overflow on the first
        // `0 -> X` firing
        let crn: Crn = "0 -> X @slow".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let run = |init: f64, schedule: &Schedule| {
            let mut st = State::new(&crn);
            st.set(x, init);
            simulate_ssa(
                &crn,
                &st,
                schedule,
                &SsaOptions::default().with_t_end(1.0).with_seed(1),
                &SimSpec::default(),
            )
        };
        for big in [1e300, MAX_COUNT * 2.0, f64::MAX] {
            let err = run(big, &Schedule::new()).unwrap_err();
            assert!(
                matches!(err, SimError::CountTooLarge { amount } if amount == big),
                "{big}: {err:?}"
            );
        }
        // 2^53 itself is still exact
        assert!(run(MAX_COUNT, &Schedule::new()).is_ok());
        assert_eq!(to_count(MAX_COUNT).unwrap(), 1_i64 << 53);
        // injections take the same conversion
        let err = run(0.0, &Schedule::new().inject(0.5, x, 1e300)).unwrap_err();
        assert!(matches!(err, SimError::CountTooLarge { .. }), "{err:?}");
    }

    #[test]
    fn rate_assignment_scales_speed() {
        let crn: Crn = "X -> 0 @fast".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 1000.0);
        let fast_spec = SimSpec::new(RateAssignment::new(100.0, 1.0).unwrap());
        let opts = SsaOptions::default().with_t_end(0.1).with_seed(2);
        let trace = simulate_ssa(&crn, &init, &Schedule::new(), &opts, &fast_spec).unwrap();
        // k=100, t=0.1 → survival e^-10 ≈ 0: all gone
        assert!(trace.final_state()[x.index()] < 5.0);
    }
}
