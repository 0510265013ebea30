//! Stiffness-aware implicit tau-leaping.
//!
//! Explicit tau-leaping ([`crate::TauLeapOptions`]) is noise-limited on
//! stiff networks: a fast reversible reaction pair at partial equilibrium
//! contributes a huge variance `σ²` to the Cao–Gillespie step selection
//! even though its *net* drift is tiny, pinning `τ` to the fast timescale.
//! The implicit update of Cao, Gillespie & Petzold steps over that noise:
//!
//! ```text
//! x' = x + Σ_j ν_j · ( τ·a_j(x')  +  K_j − τ·a_j(x) ),   K_j ~ Poisson(a_j(x)·τ)
//! ```
//!
//! i.e. the *mean* extent is evaluated implicitly at the end state while
//! the zero-mean fluctuation `K_j − τ·a_j(x)` is kept explicit. Each leap
//! solves the nonlinear system with a damped Newton iteration whose matrix
//! `I − τ·ν·(∂a/∂x)` shares its sparsity pattern with the mass-action ODE
//! Jacobian, so the solver reuses the Rosenbrock integrator's machinery
//! wholesale: the minimum-degree symbolic factorization, the no-pivot
//! sparse LU and its pivoted-dense fallback guard (see `stiff.rs`), all
//! allocation-free across leaps through [`crate::OdeWorkspace`].
//!
//! The leaper is *adaptive*: per leap it computes both the explicit step
//! `τ_ex` (full Cao–Gillespie selection) and the implicit step `τ_im`
//! (same selection, but reactions belonging to a structurally reversible
//! pair that is currently near propensity balance — i.e. at partial
//! equilibrium — are excluded entirely, since the implicit update steps
//! over their fast manifold). A pair that is momentarily *out* of balance
//! keeps its constraints, which shrinks `τ_im` and routes that step to
//! the exact-SSA fallback — one cheap event is what restores balance at
//! low copy numbers, so the flicker is self-correcting. Only when `τ_im`
//! buys at least [`TauLeapImplicitOptions::stiff_ratio`] over `τ_ex`
//! does the Newton machinery engage; otherwise the leap is the cheap
//! explicit one.
//! Extents are rounded to integers as `round(K_j + τ·(a_j(x') − a_j(x)))`
//! and applied through the integer stoichiometry, so conservation laws
//! (left null vectors of `ν`) hold *exactly*, leap by leap.

use crate::compiled::CompiledCrn;
use crate::metrics::SimMetrics;
use crate::ode::OdeWorkspace;
use crate::stiff::{Factored, Symbolic};
use crate::tau::{apply_injection, poisson, TauLeapOptions};
use crate::{Schedule, SimError, State, Trace};
use molseq_crn::Crn;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Options for the stiffness-aware implicit tau-leaper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TauLeapImplicitOptions<'h> {
    /// The explicit leaper's options (span, recording, seed, budget, step
    /// hook, and the Cao–Gillespie `epsilon` shared by both selections).
    pub base: TauLeapOptions<'h>,
    /// Engage the implicit update only when `τ_im > stiff_ratio · τ_ex`
    /// (default `10.0`). `0` forces every leap implicit — useful for
    /// testing and for networks known to be permanently stiff.
    pub stiff_ratio: f64,
    /// Hard cap on the implicit step (default unbounded). The implicit
    /// update damps stationary fluctuations by `~1/(1 + c·τ)`, so callers
    /// who care about stationary *distributions* (not just means) should
    /// cap `τ` below the relaxation time of the observables they measure.
    pub tau_max: f64,
    /// Newton convergence threshold on `max_i |F_i| / (1 + |x'_i|)`
    /// (default `1e-9`).
    pub newton_tol: f64,
    /// Maximum Newton iterations per solve before the leap falls back to
    /// a halved step (default `25`).
    pub max_newton: usize,
}

impl Default for TauLeapImplicitOptions<'_> {
    fn default() -> Self {
        TauLeapImplicitOptions {
            base: TauLeapOptions::default(),
            stiff_ratio: 10.0,
            tau_max: f64::INFINITY,
            newton_tol: 1e-9,
            max_newton: 25,
        }
    }
}

/// Newton-solver buffers for implicit leaps, cached inside
/// [`OdeWorkspace`] so repeated runs over the same network (sweep cells,
/// replicate fans) allocate nothing per call — the same contract the
/// Rosenbrock scratch honours.
pub(crate) struct NewtonWork {
    /// Elimination structure of the (fixed) Newton-matrix pattern.
    sym: Symbolic,
    /// Propensity-Jacobian nonzeros over the compiled CSR pattern.
    jac_vals: Vec<f64>,
    /// The packed Newton-matrix factor, with its pivoted dense fallback
    /// (allocated on the first guard trip).
    lu: Factored,
    /// Permuted right-hand side scratch for the sparse triangular solves.
    bperm: Vec<f64>,
    x_new: Vec<f64>,
    x_try: Vec<f64>,
    f: Vec<f64>,
    delta: Vec<f64>,
    /// Per-reaction buffers: start propensities, iterate propensities,
    /// Poisson draws, explicit-part constants, integer extents.
    a0: Vec<f64>,
    a1: Vec<f64>,
    k_draw: Vec<f64>,
    c: Vec<f64>,
    extents: Vec<i64>,
    /// For each reaction, its structural reverse partner (`ν_j == −ν_j'`)
    /// if one exists — the partial-equilibrium candidates the implicit
    /// selection drops while their propensities are near balance.
    paired: Vec<Option<usize>>,
    /// Trial integer state for the negativity check.
    n_try: Vec<i64>,
}

impl NewtonWork {
    fn new(compiled: &CompiledCrn) -> Self {
        let n = compiled.species_count();
        let m = compiled.reaction_count();
        let sym = Symbolic::new(compiled);
        NewtonWork {
            jac_vals: vec![0.0; compiled.jacobian_nnz()],
            lu: Factored::new(&sym),
            sym,
            bperm: vec![0.0; n],
            x_new: vec![0.0; n],
            x_try: vec![0.0; n],
            f: vec![0.0; n],
            delta: vec![0.0; n],
            a0: vec![0.0; m],
            a1: vec![0.0; m],
            k_draw: vec![0.0; m],
            c: vec![0.0; m],
            extents: vec![0; m],
            paired: find_reverse_pairs(compiled),
            n_try: vec![0; n],
        }
    }

    fn matches(&self, compiled: &CompiledCrn) -> bool {
        self.sym.matches(compiled)
            && self.jac_vals.len() == compiled.jacobian_nnz()
            && self.a0.len() == compiled.reaction_count()
    }
}

/// Finds each reaction's structural reverse partner: another reaction
/// whose net stoichiometric change is the exact negation. Such pairs are
/// the candidates for partial equilibrium — when both run fast near
/// balance, their variance dominates the explicit step selection while
/// their net drift cancels, which is precisely the regime the implicit
/// update exploits. Structure decides *candidacy* (it cannot flicker);
/// the cheap propensity-balance test at the current state decides, per
/// leap, whether the pair is actually equilibrated.
pub(crate) fn find_reverse_pairs(compiled: &CompiledCrn) -> Vec<Option<usize>> {
    let m = compiled.reaction_count();
    let deltas: Vec<Vec<(usize, i64)>> = (0..m)
        .map(|j| {
            let mut d = compiled.changed_species(j).to_vec();
            d.sort_unstable_by_key(|&(i, _)| i);
            d
        })
        .collect();
    let mut paired = vec![None; m];
    for j1 in 0..m {
        for j2 in (j1 + 1)..m {
            if deltas[j1].len() == deltas[j2].len()
                && deltas[j1]
                    .iter()
                    .zip(&deltas[j2])
                    .all(|(&(i1, d1), &(i2, d2))| i1 == i2 && d1 == -d2)
            {
                paired[j1].get_or_insert(j2);
                paired[j2].get_or_insert(j1);
            }
        }
    }
    paired
}

/// How far out of balance a structural reverse pair may be — relative to
/// the smaller of the two propensities — and still count as equilibrated
/// for the implicit step selection.
const PAIR_BALANCE_DELTA: f64 = 0.2;

/// Whether reaction `j`'s structural reverse pair is currently near
/// propensity balance (partial equilibrium): `|a₊ − a₋| ≤ δ·min(a₊, a₋)`
/// with both sides firing.
fn pair_balanced(propensities: &[f64], paired: &[Option<usize>], j: usize) -> bool {
    match paired[j] {
        None => false,
        Some(q) => {
            let (pj, pq) = (propensities[j], propensities[q]);
            let floor = pj.min(pq);
            floor > 0.0 && (pj - pq).abs() <= PAIR_BALANCE_DELTA * floor
        }
    }
}

/// Cao–Gillespie step selection bounding each consumed species' relative
/// change by `epsilon`. With `drop_balanced_pairs` — the implicit
/// selection — reactions whose structural reverse pair is currently at
/// partial equilibrium are excluded from both the drift (`μ`) and the
/// variance (`σ²`) sums: the implicit update resolves their fast manifold
/// itself, so only the genuinely slow reactions should limit the step.
fn select_tau(
    compiled: &CompiledCrn,
    propensities: &[f64],
    n: &[i64],
    epsilon: f64,
    paired: &[Option<usize>],
    drop_balanced_pairs: bool,
) -> f64 {
    let m = compiled.reaction_count();
    let mut tau = f64::INFINITY;
    for j in 0..m {
        if propensities[j] == 0.0 {
            continue;
        }
        for &(i, _) in compiled.changed_species(j) {
            let mut mu = 0.0;
            let mut sigma2 = 0.0;
            for (jj, &p) in propensities.iter().enumerate() {
                if drop_balanced_pairs && pair_balanced(propensities, paired, jj) {
                    continue;
                }
                let v = compiled
                    .changed_species(jj)
                    .iter()
                    .find(|&&(ii, _)| ii == i)
                    .map_or(0, |&(_, d)| d) as f64;
                mu += v * p;
                sigma2 += v * v * p;
            }
            let bound = (epsilon * n[i].max(1) as f64).max(1.0);
            if mu != 0.0 {
                tau = tau.min(bound / mu.abs());
            }
            if sigma2 > 0.0 {
                tau = tau.min(bound * bound / sigma2);
            }
        }
    }
    tau
}

/// Residual of the implicit update at `x_eval`, written into `f`:
/// `F_i = x_eval_i − x_i − Σ_j ν_ij (τ·a_j(x_eval) + c_j)` with
/// `c_j = K_j − τ·a_j(x)`. Returns `max_i |F_i| / (1 + |x_eval_i|)`;
/// `a_buf` receives the propensities at `x_eval`.
fn residual(
    compiled: &CompiledCrn,
    tau: f64,
    c: &[f64],
    x: &[f64],
    x_eval: &[f64],
    a_buf: &mut [f64],
    f: &mut [f64],
) -> f64 {
    for (j, a) in a_buf.iter_mut().enumerate() {
        *a = compiled.propensity_f(j, x_eval);
    }
    for (fi, (&xe, &xi)) in f.iter_mut().zip(x_eval.iter().zip(x)) {
        *fi = xe - xi;
    }
    for (j, &a) in a_buf.iter().enumerate() {
        let extent = tau * a + c[j];
        if extent != 0.0 {
            for &(i, d) in compiled.changed_species(j) {
                f[i] -= d as f64 * extent;
            }
        }
    }
    let mut norm = 0.0f64;
    for (fi, xe) in f.iter().zip(x_eval) {
        norm = norm.max(fi.abs() / (1.0 + xe.abs()));
    }
    norm
}

/// Damped Newton solve of the implicit update for step `tau` from state
/// `x` (continuous copy of the integer state), with Poisson draws already
/// in `work.k_draw` and start propensities in `work.a0`. On success
/// `work.x_new` holds the end state and `work.a1` its propensities.
fn newton_solve(
    work: &mut NewtonWork,
    compiled: &CompiledCrn,
    x: &[f64],
    tau: f64,
    newton_tol: f64,
    max_newton: usize,
    stats: &mut SimMetrics,
) -> bool {
    for (cj, (&k, &a)) in work.c.iter_mut().zip(work.k_draw.iter().zip(&work.a0)) {
        *cj = k - tau * a;
    }
    work.x_new.copy_from_slice(x);
    let mut norm = residual(
        compiled,
        tau,
        &work.c,
        x,
        &work.x_new,
        &mut work.a1,
        &mut work.f,
    );
    for _ in 0..max_newton {
        if norm <= newton_tol {
            return true;
        }
        stats.newton_iterations += 1;
        // Assemble `I − τ·ν·(∂a/∂x)` at the current iterate over the
        // shared CSR pattern and factor it sparsely; a tripped stability
        // guard falls back to the pivoted dense factorization, exactly
        // like the Rosenbrock stepper.
        compiled.propensity_jacobian_sparse(&work.x_new, &mut work.jac_vals);
        if !work.lu.factor(&work.sym, compiled, &work.jac_vals, tau) {
            return false;
        }
        work.delta.copy_from_slice(&work.f);
        work.lu.solve(&work.sym, &mut work.delta, &mut work.bperm);
        // Line search: accept the first damping factor that reduces the
        // scaled residual norm; a full stall means the leap is too
        // ambitious and the caller halves τ.
        let mut advanced = false;
        for &lambda in &[1.0, 0.5, 0.25, 0.125] {
            for (xt, (&xn, &d)) in work
                .x_try
                .iter_mut()
                .zip(work.x_new.iter().zip(&work.delta))
            {
                *xt = (xn - lambda * d).max(0.0);
            }
            let try_norm = residual(
                compiled,
                tau,
                &work.c,
                x,
                &work.x_try,
                &mut work.a1,
                &mut work.f,
            );
            if try_norm < norm {
                std::mem::swap(&mut work.x_new, &mut work.x_try);
                norm = try_norm;
                advanced = true;
                break;
            }
        }
        if !advanced {
            return false;
        }
    }
    // `a1`/`f` were last evaluated at a rejected line-search candidate;
    // re-evaluate at the accepted iterate before the convergence check.
    norm = residual(
        compiled,
        tau,
        &work.c,
        x,
        &work.x_new,
        &mut work.a1,
        &mut work.f,
    );
    norm <= newton_tol
}

/// How many τ-halvings an implicit leap attempts (Newton failure or a
/// negative-population overshoot) before conceding the leap to one exact
/// SSA step.
const MAX_LEAP_RETRIES: usize = 6;

/// Validated entry point over a precompiled network: what the
/// [`Simulation`](crate::Simulation) builder dispatches to for
/// [`SimMethod::TauLeapImplicit`](crate::SimMethod::TauLeapImplicit).
pub(crate) fn run_tau_implicit(
    crn: &Crn,
    compiled: &CompiledCrn,
    init: &State,
    schedule: &Schedule,
    opts: &TauLeapImplicitOptions,
    workspace: &mut OdeWorkspace,
) -> Result<Trace, SimError> {
    assert!(
        schedule.triggers().is_empty(),
        "tau-leaping does not support triggers"
    );
    let base = &opts.base.base;
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
    if !base.t_start().is_finite()
        || !base.t_end().is_finite()
        || base.t_end() <= base.t_start()
        || opts.base.epsilon.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        || opts.stiff_ratio.partial_cmp(&0.0) == Some(std::cmp::Ordering::Less)
        || opts.stiff_ratio.is_nan()
        || opts.tau_max.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
        || opts.newton_tol.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater)
    {
        return Err(SimError::BadTimeSpan {
            t_start: base.t_start(),
            t_end: base.t_end(),
        });
    }

    let fallbacks = |ws: &OdeWorkspace| ws.newton.as_ref().map_or(0, |w| w.lu.fallbacks());
    match &mut workspace.newton {
        Some(work) if work.matches(compiled) => {}
        slot => *slot = Some(NewtonWork::new(compiled)),
    }
    let fallbacks_before = fallbacks(workspace);

    let mut stats = SimMetrics {
        seed: base.seed(),
        final_time: base.t_start(),
        ..SimMetrics::default()
    };
    let result = implicit_core(crn, compiled, init, schedule, opts, workspace, &mut stats);
    stats.dense_lu_fallbacks = fallbacks(workspace) - fallbacks_before;
    // flush even on failure: an interrupted or step-limited run still
    // reports the work it did
    SimMetrics::flush(base.metrics(), stats);
    result
}

#[allow(clippy::too_many_lines)]
fn implicit_core(
    crn: &Crn,
    compiled: &CompiledCrn,
    init: &State,
    schedule: &Schedule,
    opts: &TauLeapImplicitOptions,
    workspace: &mut OdeWorkspace,
    stats: &mut SimMetrics,
) -> Result<Trace, SimError> {
    let base = &opts.base.base;
    let epsilon = opts.base.epsilon;
    let work = workspace
        .newton
        .as_mut()
        .expect("prepared by run_tau_implicit");
    let mut n: Vec<i64> = Vec::with_capacity(init.len());
    for &v in init.as_slice() {
        n.push(crate::ssa::to_count(v)?);
    }
    let m = compiled.reaction_count();
    let mut rng = StdRng::seed_from_u64(base.seed());
    let mut t = base.t_start();
    let mut trace = Trace::new(crn);
    let mut f64_state: Vec<f64> = n.iter().map(|&v| v as f64).collect();
    trace.push(t, &f64_state);

    let injections = schedule.sorted_injections();
    let mut next_injection = 0usize;
    let mut next_record = base.t_start() + base.record_interval();
    let mut steps = 0usize;
    let mut propensities = vec![0.0; m];
    // Some(true) = the previous leap was implicit; exact fallback steps
    // do not flip the regime.
    let mut prev_implicit: Option<bool> = None;

    while t < base.t_end() {
        if steps >= base.max_events() {
            return Err(SimError::StepLimitExceeded {
                reached: t,
                t_end: base.t_end(),
                max_steps: base.max_events(),
            });
        }
        steps += 1;
        if let Some(hook) = base.step_hook() {
            if let std::ops::ControlFlow::Break(reason) = hook(steps as u64, t) {
                return Err(SimError::Interrupted { time: t, reason });
            }
        }

        let injection_time = injections
            .get(next_injection)
            .map_or(f64::INFINITY, |inj| inj.time);

        let mut a0 = 0.0;
        for (j, p) in propensities.iter_mut().enumerate() {
            *p = compiled.propensity(j, &n);
            a0 += *p;
        }
        if a0 <= 0.0 {
            let stop = base.t_end().min(injection_time);
            while next_record <= stop && next_record <= base.t_end() {
                trace.push(next_record, &f64_state);
                next_record += base.record_interval();
            }
            t = stop;
            stats.final_time = t;
            if injection_time <= base.t_end() {
                apply_injection(
                    &injections[next_injection],
                    &mut n,
                    &mut f64_state,
                    &mut trace,
                    t,
                )?;
                next_injection += 1;
                continue;
            }
            break;
        }

        let tau_ex = select_tau(compiled, &propensities, &n, epsilon, &work.paired, false);
        let tau_im =
            select_tau(compiled, &propensities, &n, epsilon, &work.paired, true).min(opts.tau_max);
        let stiff = opts.stiff_ratio == 0.0 || tau_im > opts.stiff_ratio * tau_ex;
        let tau = if stiff { tau_im } else { tau_ex };
        let stop = base.t_end().min(injection_time);

        let mut leaped = false;
        if tau >= 10.0 / a0 {
            let mut tau = tau.min(stop - t);
            if stiff {
                // Implicit leap: draw K at the start state, solve the
                // damped-Newton system, round extents, and retry at τ/2
                // (fresh draws — still deterministic per seed) if Newton
                // stalls or a population would go negative.
                work.a0.copy_from_slice(&propensities);
                for _ in 0..=MAX_LEAP_RETRIES {
                    for (k, &a) in work.k_draw.iter_mut().zip(&work.a0) {
                        *k = poisson(&mut rng, a * tau) as f64;
                    }
                    if !newton_solve(
                        work,
                        compiled,
                        &f64_state,
                        tau,
                        opts.newton_tol,
                        opts.max_newton,
                        stats,
                    ) {
                        tau *= 0.5;
                        continue;
                    }
                    // Conservation-exact integer extents: the rounded
                    // reaction counts are applied through ν, so any left
                    // null vector of ν is preserved to the last molecule.
                    for (ext, (&k, (&a1, &a0j))) in work
                        .extents
                        .iter_mut()
                        .zip(work.k_draw.iter().zip(work.a1.iter().zip(&work.a0)))
                    {
                        *ext = (k + tau * (a1 - a0j)).round().max(0.0) as i64;
                    }
                    work.n_try.copy_from_slice(&n);
                    for (j, &ext) in work.extents.iter().enumerate() {
                        if ext != 0 {
                            for &(i, d) in compiled.changed_species(j) {
                                work.n_try[i] += d * ext;
                            }
                        }
                    }
                    if work.n_try.iter().any(|&v| v < 0) {
                        tau *= 0.5;
                        continue;
                    }
                    n.copy_from_slice(&work.n_try);
                    stats.tau_leaps_implicit += 1;
                    if prev_implicit == Some(false) {
                        stats.leap_switchovers += 1;
                    }
                    prev_implicit = Some(true);
                    leaped = true;
                    break;
                }
            } else {
                stats.tau_leaps += 1;
                for (j, &p) in propensities.iter().enumerate() {
                    let k = poisson(&mut rng, p * tau);
                    if k == 0 {
                        continue;
                    }
                    for &(i, d) in compiled.changed_species(j) {
                        n[i] = (n[i] + d * k as i64).max(0);
                    }
                }
                if prev_implicit == Some(true) {
                    stats.leap_switchovers += 1;
                }
                prev_implicit = Some(false);
                leaped = true;
            }
            if leaped {
                for (f, &c) in f64_state.iter_mut().zip(&n) {
                    *f = c as f64;
                }
                let t_next = t + tau;
                while next_record <= t_next && next_record <= base.t_end() {
                    trace.push(next_record, &f64_state);
                    next_record += base.record_interval();
                }
                t = t_next;
                stats.final_time = t;
                if (t - injection_time).abs() < 1e-12 && injection_time <= base.t_end() {
                    apply_injection(
                        &injections[next_injection],
                        &mut n,
                        &mut f64_state,
                        &mut trace,
                        t,
                    )?;
                    next_injection += 1;
                }
                continue;
            }
        }

        // Exact SSA step: the selected leap was not worth it, or every
        // implicit retry failed.
        let u: f64 = 1.0 - rng.random::<f64>();
        let dt = -u.ln() / a0;
        let t_next = t + dt;
        if t_next >= stop {
            while next_record <= stop && next_record <= base.t_end() {
                trace.push(next_record, &f64_state);
                next_record += base.record_interval();
            }
            t = stop;
            stats.final_time = t;
            if injection_time <= base.t_end() {
                apply_injection(
                    &injections[next_injection],
                    &mut n,
                    &mut f64_state,
                    &mut trace,
                    t,
                )?;
                next_injection += 1;
                continue;
            }
            break;
        }
        while next_record <= t_next && next_record <= base.t_end() {
            trace.push(next_record, &f64_state);
            next_record += base.record_interval();
        }
        t = t_next;
        stats.final_time = t;
        stats.ssa_events += 1;
        let pick: f64 = rng.random::<f64>() * a0;
        let chosen = crate::ssa::select_reaction(m, |j| propensities[j], pick);
        compiled.fire(chosen, &mut n);
        for &(i, _) in compiled.changed_species(chosen) {
            f64_state[i] = n[i] as f64;
        }
    }

    trace.push(t, &f64_state);
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Simulation;
    use crate::{SimSpec, SsaOptions};
    use std::cell::Cell;

    fn run_implicit(
        crn: &Crn,
        compiled: &CompiledCrn,
        init: &State,
        opts: &TauLeapImplicitOptions,
    ) -> Result<Trace, SimError> {
        Simulation::new(crn, compiled)
            .init(init)
            .options(*opts)
            .run()
    }

    /// A birth–death chain at its Poisson stationary state: the reverse
    /// pair detector must flag nothing (the two reactions are not exact
    /// structural inverses of a *pair* here — they are: `0 → X` has
    /// `ν = +1`, `X → 0` has `ν = −1`), and the chain serves as the
    /// distribution-agreement workload.
    fn birth_death() -> (Crn, CompiledCrn, State) {
        let crn: Crn = "0 -> X @1000\nX -> 0 @1".parse().unwrap();
        let x = crn.find_species("X").unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut init = State::new(&crn);
        init.set(x, 1000.0);
        (crn, compiled, init)
    }

    /// The stiff-clock motif from the paper's absence-indicator clocks:
    /// an indicator `R` is generated from nothing and consumed fast by a
    /// large catalyst population `X`, forming a structurally reversible
    /// pair at quasi-steady state, while `X` drains on a slow timescale.
    fn stiff_clock() -> (Crn, CompiledCrn, State) {
        let crn: Crn = "0 -> R @10000\nR + X -> X @100\nX -> Y @0.01"
            .parse()
            .unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 100.0);
        (crn, compiled, init)
    }

    #[test]
    fn reverse_pairs_are_structural() {
        let (_, compiled, _) = stiff_clock();
        // 0 -> R and R + X -> X both touch only R, with +1/−1: a pair.
        // X -> Y has no negation partner.
        assert_eq!(find_reverse_pairs(&compiled), vec![Some(1), Some(0), None]);
    }

    #[test]
    fn same_seed_is_bit_identical_and_workspace_neutral() {
        let (crn, compiled, init) = birth_death();
        let opts = TauLeapImplicitOptions {
            base: TauLeapOptions {
                base: SsaOptions::default().with_t_end(2.0).with_seed(11),
                ..TauLeapOptions::default()
            },
            stiff_ratio: 0.0,
            tau_max: 0.25,
            ..TauLeapImplicitOptions::default()
        };
        let a = run_implicit(&crn, &compiled, &init, &opts).unwrap();
        let b = run_implicit(&crn, &compiled, &init, &opts).unwrap();
        assert_eq!(a, b);
        // a recycled workspace must not perturb the stream
        let mut ws = OdeWorkspace::new();
        let c = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(opts)
            .workspace(&mut ws)
            .run()
            .unwrap();
        let d = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(opts)
            .workspace(&mut ws)
            .run()
            .unwrap();
        assert_eq!(a, c);
        assert_eq!(c, d);
    }

    #[test]
    fn forced_implicit_leaps_are_implicit() {
        let (crn, compiled, init) = birth_death();
        let sink = Cell::new(SimMetrics::default());
        let opts = TauLeapImplicitOptions {
            base: TauLeapOptions {
                base: SsaOptions::default()
                    .with_t_end(5.0)
                    .with_seed(3)
                    .with_metrics(&sink),
                ..TauLeapOptions::default()
            },
            stiff_ratio: 0.0,
            tau_max: 0.25,
            ..TauLeapImplicitOptions::default()
        };
        run_implicit(&crn, &compiled, &init, &opts).unwrap();
        let m = sink.get();
        assert!(m.tau_leaps_implicit > 0, "{m:?}");
        assert_eq!(m.tau_leaps, 0, "{m:?}");
        assert!(m.newton_iterations >= m.tau_leaps_implicit, "{m:?}");
        assert_eq!(m.leap_switchovers, 0, "{m:?}");
        assert_eq!(m.final_time, 5.0);
    }

    #[test]
    fn infinite_stiff_ratio_reduces_to_explicit_leaping() {
        let (crn, compiled, init) = birth_death();
        let sink = Cell::new(SimMetrics::default());
        let opts = TauLeapImplicitOptions {
            base: TauLeapOptions {
                base: SsaOptions::default()
                    .with_t_end(5.0)
                    .with_seed(3)
                    .with_metrics(&sink),
                ..TauLeapOptions::default()
            },
            stiff_ratio: f64::INFINITY,
            ..TauLeapImplicitOptions::default()
        };
        run_implicit(&crn, &compiled, &init, &opts).unwrap();
        let m = sink.get();
        assert!(m.tau_leaps > 0, "{m:?}");
        assert_eq!(m.tau_leaps_implicit, 0, "{m:?}");
        assert_eq!(m.newton_iterations, 0, "{m:?}");
    }

    /// Distribution agreement on a non-stiff chain: forced-implicit and
    /// explicit leaping must reproduce the same stationary mean and
    /// variance (Poisson with mean 1000) within CLT-scale bounds. The
    /// implicit τ is capped well below the relaxation time (1/d = 1) so
    /// its known variance damping (~τ·d/2 ≈ 6%) stays inside the bounds.
    #[test]
    fn implicit_and_explicit_agree_in_distribution() {
        let (crn, compiled, init) = birth_death();
        let x = crn.find_species("X").unwrap();
        let replicates = 48u64;
        let t_end = 8.0;
        let mut finals_ex = Vec::new();
        let mut finals_im = Vec::new();
        for seed in 1..=replicates {
            let ssa = SsaOptions::default().with_t_end(t_end).with_seed(seed);
            let tau_opts = TauLeapOptions {
                base: ssa,
                ..TauLeapOptions::default()
            };
            let ex = Simulation::new(&crn, &compiled)
                .init(&init)
                .options(tau_opts)
                .run()
                .unwrap();
            finals_ex.push(ex.final_state()[x.index()]);
            let im_opts = TauLeapImplicitOptions {
                base: tau_opts,
                stiff_ratio: 0.0,
                tau_max: 0.125,
                ..TauLeapImplicitOptions::default()
            };
            let im = run_implicit(&crn, &compiled, &init, &im_opts).unwrap();
            finals_im.push(im.final_state()[x.index()]);
        }
        let stats = |v: &[f64]| {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let var = v.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / (v.len() - 1) as f64;
            (mean, var)
        };
        let (mean_ex, var_ex) = stats(&finals_ex);
        let (mean_im, var_im) = stats(&finals_im);
        // Stationary law is Poisson(1000): mean 1000, variance 1000.
        // std of the sample mean is √(1000/48) ≈ 4.6 → 5σ ≈ 23.
        assert!((mean_ex - 1000.0).abs() < 25.0, "explicit mean {mean_ex}");
        assert!((mean_im - 1000.0).abs() < 25.0, "implicit mean {mean_im}");
        assert!((mean_ex - mean_im).abs() < 35.0, "{mean_ex} vs {mean_im}");
        // Sample variance of 48 replicates is noisy (std ≈ 200); bound a
        // factor-of-two band around the Poisson value for both leapers.
        assert!(var_ex > 400.0 && var_ex < 2000.0, "explicit var {var_ex}");
        assert!(var_im > 400.0 && var_im < 2000.0, "implicit var {var_im}");
    }

    /// The headline regression: on the stiff clock motif, the implicit
    /// leaper finishes under a step budget that exhausts the explicit
    /// leaper — the fast indicator pair pins the explicit τ to ~1/σ²
    /// while the implicit selection steps on the slow drain timescale.
    #[test]
    fn stiff_clock_finishes_under_budget_that_kills_explicit() {
        let (crn, compiled, init) = stiff_clock();
        let budget = 5_000usize;
        let t_end = 10.0;

        let ex_opts = TauLeapOptions {
            base: SsaOptions::default()
                .with_t_end(t_end)
                .with_seed(5)
                .with_max_events(budget),
            ..TauLeapOptions::default()
        };
        let explicit = Simulation::new(&crn, &compiled)
            .init(&init)
            .options(ex_opts)
            .run();
        assert!(
            matches!(explicit, Err(SimError::StepLimitExceeded { .. })),
            "explicit leaper must exhaust the budget: {explicit:?}"
        );

        let sink = Cell::new(SimMetrics::default());
        let im_opts = TauLeapImplicitOptions {
            base: TauLeapOptions {
                base: SsaOptions::default()
                    .with_t_end(t_end)
                    .with_seed(5)
                    .with_max_events(budget)
                    .with_metrics(&sink),
                ..TauLeapOptions::default()
            },
            ..TauLeapImplicitOptions::default()
        };
        let trace = run_implicit(&crn, &compiled, &init, &im_opts).unwrap();
        let m = sink.get();
        assert_eq!(m.final_time, t_end, "{m:?}");
        assert!(m.tau_leaps_implicit > 0, "{m:?}");
        // the slow drain actually progressed
        let y = crn.find_species("Y").unwrap();
        assert!(trace.final_state()[y.index()] > 0.0);
    }

    /// Mass conservation through rounded extents: on a closed
    /// interconversion loop the total copy number is a left null vector
    /// of ν and must be preserved exactly by every implicit leap.
    #[test]
    fn conservation_is_exact_under_implicit_leaps() {
        let crn: Crn = "A -> B @1000\nB -> A @1000".parse().unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let a = crn.find_species("A").unwrap();
        let mut init = State::new(&crn);
        init.set(a, 500.0);
        let opts = TauLeapImplicitOptions {
            base: TauLeapOptions {
                base: SsaOptions::default().with_t_end(2.0).with_seed(9),
                ..TauLeapOptions::default()
            },
            stiff_ratio: 0.0,
            tau_max: 0.5,
            ..TauLeapImplicitOptions::default()
        };
        let trace = run_implicit(&crn, &compiled, &init, &opts).unwrap();
        for i in 0..trace.len() {
            let total: f64 = trace.state(i).iter().sum();
            assert_eq!(total, 500.0, "leaked at sample {i}");
        }
    }

    #[test]
    fn injections_are_honoured() {
        let (crn, compiled, _) = birth_death();
        let x = crn.find_species("X").unwrap();
        let mut init = State::new(&crn);
        init.set(x, 1000.0);
        let schedule = Schedule::new().inject(1.0, x, 5000.0);
        let opts = TauLeapImplicitOptions {
            base: TauLeapOptions {
                base: SsaOptions::default().with_t_end(1.25).with_seed(2),
                ..TauLeapOptions::default()
            },
            stiff_ratio: 0.0,
            tau_max: 0.125,
            ..TauLeapImplicitOptions::default()
        };
        let trace = Simulation::new(&crn, &compiled)
            .init(&init)
            .schedule(&schedule)
            .options(opts)
            .run()
            .unwrap();
        assert!(trace.value_at(x, 0.99) < 2000.0);
        assert!(trace.value_at(x, 1.01) > 4000.0);
    }

    #[test]
    fn bad_epsilon_and_spans_are_rejected() {
        let (crn, compiled, init) = birth_death();
        let mut opts = TauLeapImplicitOptions::default();
        opts.base.epsilon = 0.0;
        assert!(matches!(
            run_implicit(&crn, &compiled, &init, &opts),
            Err(SimError::BadTimeSpan { .. })
        ));
        let opts = TauLeapImplicitOptions {
            tau_max: 0.0,
            ..TauLeapImplicitOptions::default()
        };
        assert!(matches!(
            run_implicit(&crn, &compiled, &init, &opts),
            Err(SimError::BadTimeSpan { .. })
        ));
        let opts = TauLeapImplicitOptions {
            stiff_ratio: -1.0,
            ..TauLeapImplicitOptions::default()
        };
        assert!(matches!(
            run_implicit(&crn, &compiled, &init, &opts),
            Err(SimError::BadTimeSpan { .. })
        ));
    }
}
