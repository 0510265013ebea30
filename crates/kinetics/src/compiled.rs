//! Compilation of a [`Crn`] into flat arrays for fast simulation.
//!
//! Besides the per-reaction records, compilation precomputes the sparsity
//! structure of the mass-action Jacobian: mass-action CRNs from the
//! synchronous-logic construction are extremely sparse (each reaction
//! touches at most a handful of the tens-to-hundreds of species), so the
//! Jacobian has `O(reactions)` nonzeros rather than `n²`. The pattern is
//! stored CSR-style (`row_ptr`/`col_idx`) together with a flat
//! scatter-slot table that maps every `(reaction, reactant, delta)`
//! contribution to its nonzero slot, letting
//! [`jacobian_sparse`](CompiledCrn::jacobian_sparse) fill only the
//! nonzeros in one pass with no searching.
//!
//! The stochastic side gets the same treatment: a reaction dependency
//! graph, also CSR, lists for every reaction the reactions whose
//! propensity reads a species its firing changes. The exact SSA keeps
//! its propensities cached between events and re-evaluates only the
//! fired reaction's row.

use crate::SimSpec;
use molseq_crn::{Crn, Rate};

/// `x^s` for the small stoichiometries used in this workspace (1..=3),
/// unrolled into straight multiplies; falls back to `powi` beyond.
#[inline]
pub(crate) fn pow_stoich(x: f64, s: u32) -> f64 {
    match s {
        0 => 1.0,
        1 => x,
        2 => x * x,
        3 => x * x * x,
        _ => x.powi(s as i32),
    }
}

/// `x^(s−1)` for `s ≥ 1`, unrolled like [`pow_stoich`]. Matches
/// `x.powi(s-1)` including the `0^0 = 1` convention at `s = 1`.
#[inline]
fn pow_stoich_minus_one(x: f64, s: u32) -> f64 {
    match s {
        1 => 1.0,
        2 => x,
        3 => x * x,
        _ => x.powi(s as i32 - 1),
    }
}

/// One reaction, flattened: resolved numeric rate, reactant exponents and a
/// sparse net-change (delta) list.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledReaction {
    /// Resolved rate constant (assignment × jitter).
    pub k: f64,
    /// The symbolic rate category `k` was resolved from, kept so a
    /// compiled network can be [re-bound](CompiledCrn::rebind) to a new
    /// [`SimSpec`] without re-walking the reaction structure.
    pub rate: Rate,
    /// `(species index, stoichiometric exponent)` for each distinct reactant.
    pub reactants: Vec<(usize, u32)>,
    /// `(species index, net change)` for each species with nonzero net change.
    pub delta: Vec<(usize, f64)>,
    /// Same deltas as integers, for the stochastic simulator.
    pub delta_int: Vec<(usize, i64)>,
}

/// A [`Crn`] resolved against a [`SimSpec`]: every coarse rate category is a
/// number, every reaction is a flat record. Both simulators consume this.
///
/// Compilation is cheap; it exists so that sweeps which re-simulate the same
/// network under many rate assignments do not re-walk the reaction structure.
///
/// # Examples
///
/// ```
/// use molseq_crn::Crn;
/// use molseq_kinetics::{CompiledCrn, SimSpec};
///
/// let crn: Crn = "X + Y -> Z @fast".parse().unwrap();
/// let compiled = CompiledCrn::new(&crn, &SimSpec::default());
/// assert_eq!(compiled.species_count(), 3);
/// assert_eq!(compiled.reaction_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledCrn {
    species_count: usize,
    /// The source network's [`Crn::structural_hash`], captured at compile
    /// time and preserved by [`rebind`](Self::rebind).
    structural_hash: u64,
    pub(crate) reactions: Vec<CompiledReaction>,
    /// CSR row pointers of the Jacobian sparsity pattern (`n + 1` long).
    jac_row_ptr: Vec<usize>,
    /// CSR column indices, sorted within each row (`nnz` long).
    jac_col_idx: Vec<usize>,
    /// For every `(reaction, reactant jj, delta ii)` contribution — in the
    /// exact iteration order of [`jacobian`](Self::jacobian) — the index of
    /// the nonzero slot it accumulates into.
    jac_slots: Vec<usize>,
    /// CSR row pointers of the reaction dependency graph
    /// (`reactions + 1` long).
    dep_row_ptr: Vec<usize>,
    /// Row `j` lists, ascending, every reaction with a reactant whose
    /// count reaction `j` changes.
    dep_col_idx: Vec<usize>,
}

impl CompiledCrn {
    /// Compiles `crn` under `spec`.
    #[must_use]
    pub fn new(crn: &Crn, spec: &SimSpec) -> Self {
        let reactions: Vec<CompiledReaction> = crn
            .reactions()
            .iter()
            .enumerate()
            .map(|(j, r)| {
                let jitter = spec.jitter().map_or(1.0, |jit| jit.factor(j));
                let k = spec.assignment().value_of(r.rate()) * jitter;
                let reactants: Vec<(usize, u32)> = r
                    .reactants()
                    .iter()
                    .map(|t| (t.species.index(), t.stoich))
                    .collect();
                let mut delta = Vec::new();
                let mut delta_int = Vec::new();
                for s in r.species() {
                    let change = r.net_change(s);
                    if change != 0 {
                        delta.push((s.index(), change as f64));
                        delta_int.push((s.index(), change));
                    }
                }
                CompiledReaction {
                    k,
                    rate: r.rate(),
                    reactants,
                    delta,
                    delta_int,
                }
            })
            .collect();
        let (jac_row_ptr, jac_col_idx, jac_slots) =
            build_jacobian_pattern(crn.species_count(), &reactions);
        let (dep_row_ptr, dep_col_idx) = build_dependency_graph(crn.species_count(), &reactions);
        CompiledCrn {
            species_count: crn.species_count(),
            structural_hash: crn.structural_hash(),
            reactions,
            jac_row_ptr,
            jac_col_idx,
            jac_slots,
            dep_row_ptr,
            dep_col_idx,
        }
    }

    /// Re-resolves the rate constants against a new `spec`, leaving the
    /// flattened reaction structure untouched.
    ///
    /// This is the cheap path for parameter sweeps: compile the network
    /// once, then `rebind` per sweep cell (new rate assignment and/or new
    /// jitter draw). The result is identical to `CompiledCrn::new` on the
    /// original network with the same `spec`.
    ///
    /// # Examples
    ///
    /// ```
    /// use molseq_crn::{Crn, RateAssignment};
    /// use molseq_kinetics::{CompiledCrn, SimSpec};
    ///
    /// let crn: Crn = "X + Y -> Z @fast".parse().unwrap();
    /// let base = CompiledCrn::new(&crn, &SimSpec::default());
    /// let spec = SimSpec::new(RateAssignment::from_ratio(100.0));
    /// assert_eq!(base.rebind(&spec), CompiledCrn::new(&crn, &spec));
    /// ```
    #[must_use]
    pub fn rebind(&self, spec: &SimSpec) -> Self {
        let mut rebound = self.clone();
        for (j, r) in rebound.reactions.iter_mut().enumerate() {
            let jitter = spec.jitter().map_or(1.0, |jit| jit.factor(j));
            r.k = spec.assignment().value_of(r.rate) * jitter;
        }
        rebound
    }

    /// Number of species (the state-vector length).
    #[must_use]
    pub fn species_count(&self) -> usize {
        self.species_count
    }

    /// The source network's [`Crn::structural_hash`], captured when this
    /// compiled form was built and invariant under
    /// [`rebind`](Self::rebind).
    ///
    /// Two compiled networks with equal hashes came from structurally
    /// identical `Crn`s, so either can serve as the other's compile — this
    /// is the key the cross-request [`CompiledCache`](crate::CompiledCache)
    /// is keyed by.
    #[must_use]
    pub fn structural_hash(&self) -> u64 {
        self.structural_hash
    }

    /// Number of reactions.
    #[must_use]
    pub fn reaction_count(&self) -> usize {
        self.reactions.len()
    }

    /// Deterministic mass-action flux of reaction `j` at state `x`:
    /// `k · Π x_i^stoich_i` (unit volume; no combinatorial factors).
    #[must_use]
    pub fn flux(&self, j: usize, x: &[f64]) -> f64 {
        let r = &self.reactions[j];
        let mut f = r.k;
        for &(i, stoich) in &r.reactants {
            // stoichiometries in this workspace are 1..=3; the unrolled
            // multiply is exact (and matches powi bit-for-bit)
            f *= pow_stoich(x[i], stoich);
        }
        f
    }

    /// Writes the mass-action derivative `dx/dt` into `dx`.
    ///
    /// Concentrations are clamped at zero from below: a species that has
    /// reached zero contributes no flux (the projection the integrators rely
    /// on for stability near the axes).
    ///
    /// # Panics
    ///
    /// Panics if `x` and `dx` are not both `species_count()` long.
    pub fn derivative(&self, x: &[f64], dx: &mut [f64]) {
        assert_eq!(x.len(), self.species_count);
        assert_eq!(dx.len(), self.species_count);
        dx.fill(0.0);
        for r in &self.reactions {
            let mut f = r.k;
            for &(i, stoich) in &r.reactants {
                let xi = x[i].max(0.0);
                f *= pow_stoich(xi, stoich);
            }
            if f == 0.0 {
                continue;
            }
            for &(i, d) in &r.delta {
                dx[i] += d * f;
            }
        }
    }

    /// Writes the analytic Jacobian `J[i][j] = ∂(dx_i/dt)/∂x_j` of the
    /// mass-action derivative into `jac` (row-major, `n × n`).
    ///
    /// Negative concentrations are clamped to zero, consistent with
    /// [`derivative`](Self::derivative).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `species_count()` long or `jac` is not
    /// `species_count()²` long.
    pub fn jacobian(&self, x: &[f64], jac: &mut [f64]) {
        let n = self.species_count;
        assert_eq!(x.len(), n);
        assert_eq!(jac.len(), n * n);
        jac.fill(0.0);
        for r in &self.reactions {
            // ∂flux/∂x_j = k · s_j · x_j^(s_j−1) · Π_{i≠j} x_i^(s_i)
            for (jj, &(j, s_j)) in r.reactants.iter().enumerate() {
                let mut partial = r.k * f64::from(s_j);
                let xj = x[j].max(0.0);
                partial *= pow_stoich_minus_one(xj, s_j);
                for (ii, &(i, s_i)) in r.reactants.iter().enumerate() {
                    if ii != jj {
                        partial *= pow_stoich(x[i].max(0.0), s_i);
                    }
                }
                if partial == 0.0 {
                    continue;
                }
                for &(i, d) in &r.delta {
                    jac[i * n + j] += d * partial;
                }
            }
        }
    }

    /// Writes the nonzero values of the analytic Jacobian into `vals`,
    /// aligned with the precomputed CSR pattern (`jacobian_nnz()` long,
    /// rows delimited by the pattern's row pointers).
    ///
    /// The accumulation order per nonzero is identical to
    /// [`jacobian`](Self::jacobian), so the two paths agree bit-for-bit:
    /// scattering `vals` through the pattern reproduces the dense matrix
    /// exactly (see [`jacobian_sparse_to_dense`](Self::jacobian_sparse_to_dense)).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `species_count()` long or `vals` is not
    /// `jacobian_nnz()` long.
    pub fn jacobian_sparse(&self, x: &[f64], vals: &mut [f64]) {
        assert_eq!(x.len(), self.species_count);
        assert_eq!(vals.len(), self.jac_col_idx.len());
        vals.fill(0.0);
        let mut cursor = 0usize;
        for r in &self.reactions {
            for (jj, &(j, s_j)) in r.reactants.iter().enumerate() {
                let mut partial = r.k * f64::from(s_j);
                let xj = x[j].max(0.0);
                partial *= pow_stoich_minus_one(xj, s_j);
                for (ii, &(i, s_i)) in r.reactants.iter().enumerate() {
                    if ii != jj {
                        partial *= pow_stoich(x[i].max(0.0), s_i);
                    }
                }
                if partial == 0.0 {
                    cursor += r.delta.len();
                    continue;
                }
                for &(_, d) in &r.delta {
                    vals[self.jac_slots[cursor]] += d * partial;
                    cursor += 1;
                }
            }
        }
    }

    /// Number of structural nonzeros in the Jacobian sparsity pattern.
    #[must_use]
    pub fn jacobian_nnz(&self) -> usize {
        self.jac_col_idx.len()
    }

    /// Gathers the resolved rate constants of `lanes` into reaction-major,
    /// lane-contiguous layout (`ks[j * width + l]` = reaction `j`'s rate in
    /// lane `l`) — the per-lane parameterization the batched kernels
    /// consume. Every lane must be structurally identical to `self`
    /// (same source network, typically produced by [`rebind`](Self::rebind)).
    pub(crate) fn gather_rates(&self, lanes: &[&CompiledCrn], ks: &mut Vec<f64>) {
        let width = lanes.len();
        ks.clear();
        ks.resize(self.reactions.len() * width, 0.0);
        for (l, lane) in lanes.iter().enumerate() {
            assert_eq!(
                lane.structural_hash, self.structural_hash,
                "batched lanes must share one network structure"
            );
            assert_eq!(lane.reactions.len(), self.reactions.len());
            for (j, r) in lane.reactions.iter().enumerate() {
                ks[j * width + l] = r.k;
            }
        }
    }

    /// Whether `ks` holds exactly this network's own rate constants: a
    /// batch of one lane runs the scalar kernels on the reference network,
    /// which is that lane.
    fn holds_rates(&self, ks: &[f64]) -> bool {
        ks.len() == self.reactions.len()
            && self
                .reactions
                .iter()
                .zip(ks)
                .all(|(r, &k)| r.k.to_bits() == k.to_bits())
    }

    /// Multi-lane [`derivative`](Self::derivative): `x` and `dx` hold
    /// `width` cell states in species-major, lane-contiguous layout
    /// (`x[i * width + l]` = species `i` in lane `l`), `ks` holds the
    /// per-lane rate constants from [`gather_rates`](Self::gather_rates),
    /// and `flux` is a `width`-long scratch buffer.
    ///
    /// Per lane, the arithmetic (including the zero-flux scatter skip) is
    /// performed in exactly the scalar order, so every lane's result is
    /// bit-identical to a scalar `derivative` call on that lane's state.
    pub(crate) fn derivative_batch(&self, ks: &[f64], x: &[f64], dx: &mut [f64], flux: &mut [f64]) {
        // one lane runs the scalar kernel; monomorphize the hot widths so
        // the lane loops unroll and vectorize with a compile-time trip
        // count (WDC = 0 keeps one dynamic-width body for everything else)
        match flux.len() {
            1 => {
                debug_assert!(self.holds_rates(ks));
                self.derivative(x, dx);
            }
            2 => self.derivative_batch_impl::<2>(ks, x, dx, flux),
            4 => self.derivative_batch_impl::<4>(ks, x, dx, flux),
            8 => self.derivative_batch_impl::<8>(ks, x, dx, flux),
            16 => self.derivative_batch_impl::<16>(ks, x, dx, flux),
            32 => self.derivative_batch_impl::<32>(ks, x, dx, flux),
            _ => self.derivative_batch_impl::<0>(ks, x, dx, flux),
        }
    }

    #[inline(always)]
    fn derivative_batch_impl<const WDC: usize>(
        &self,
        ks: &[f64],
        x: &[f64],
        dx: &mut [f64],
        flux: &mut [f64],
    ) {
        let width = if WDC == 0 { flux.len() } else { WDC };
        assert_eq!(flux.len(), width);
        assert_eq!(x.len(), self.species_count * width);
        assert_eq!(dx.len(), self.species_count * width);
        assert_eq!(ks.len(), self.reactions.len() * width);
        dx.fill(0.0);
        for (j, r) in self.reactions.iter().enumerate() {
            flux.copy_from_slice(&ks[j * width..(j + 1) * width]);
            for &(i, stoich) in &r.reactants {
                let xi = &x[i * width..(i + 1) * width];
                // hoist the stoichiometry match out of the lane loop so the
                // per-lane multiplies stay straight-line (and bit-identical
                // to the scalar `pow_stoich` forms)
                match stoich {
                    1 => {
                        for (f, &v) in flux.iter_mut().zip(xi) {
                            *f *= v.max(0.0);
                        }
                    }
                    2 => {
                        for (f, &v) in flux.iter_mut().zip(xi) {
                            let c = v.max(0.0);
                            *f *= c * c;
                        }
                    }
                    _ => {
                        for (f, &v) in flux.iter_mut().zip(xi) {
                            *f *= pow_stoich(v.max(0.0), stoich);
                        }
                    }
                }
            }
            // the scalar path skips zero fluxes entirely; when every lane's
            // flux is zero the selects below would all keep old bits, so the
            // scatter is a no-op and can be skipped wholesale
            if flux.iter().all(|&f| f == 0.0) {
                continue;
            }
            for &(i, d) in &r.delta {
                let row = &mut dx[i * width..(i + 1) * width];
                for (acc, &f) in row.iter_mut().zip(flux.iter()) {
                    // the select keeps skipped lanes' bits (±0.0 included)
                    let updated = *acc + d * f;
                    *acc = if f != 0.0 { updated } else { *acc };
                }
            }
        }
    }

    /// Multi-lane [`jacobian_sparse`](Self::jacobian_sparse): writes the
    /// nonzero Jacobian values of `width` lanes into `vals`
    /// (slot-major, lane-contiguous: `vals[s * width + l]`). `partial` is a
    /// `width`-long scratch buffer. Per lane the accumulation order and the
    /// zero-partial skip match the scalar path bit-for-bit.
    pub(crate) fn jacobian_sparse_batch(
        &self,
        ks: &[f64],
        x: &[f64],
        vals: &mut [f64],
        partial: &mut [f64],
    ) {
        match partial.len() {
            1 => {
                debug_assert!(self.holds_rates(ks));
                self.jacobian_sparse(x, vals);
            }
            2 => self.jacobian_sparse_batch_impl::<2>(ks, x, vals, partial),
            4 => self.jacobian_sparse_batch_impl::<4>(ks, x, vals, partial),
            8 => self.jacobian_sparse_batch_impl::<8>(ks, x, vals, partial),
            16 => self.jacobian_sparse_batch_impl::<16>(ks, x, vals, partial),
            32 => self.jacobian_sparse_batch_impl::<32>(ks, x, vals, partial),
            _ => self.jacobian_sparse_batch_impl::<0>(ks, x, vals, partial),
        }
    }

    #[inline(always)]
    fn jacobian_sparse_batch_impl<const WDC: usize>(
        &self,
        ks: &[f64],
        x: &[f64],
        vals: &mut [f64],
        partial: &mut [f64],
    ) {
        let width = if WDC == 0 { partial.len() } else { WDC };
        assert_eq!(partial.len(), width);
        assert_eq!(x.len(), self.species_count * width);
        assert_eq!(vals.len(), self.jac_col_idx.len() * width);
        vals.fill(0.0);
        let mut cursor = 0usize;
        for (jr, r) in self.reactions.iter().enumerate() {
            for (jj, &(j, s_j)) in r.reactants.iter().enumerate() {
                let xj = &x[j * width..(j + 1) * width];
                let sj = f64::from(s_j);
                for ((p, &k), &v) in partial
                    .iter_mut()
                    .zip(&ks[jr * width..(jr + 1) * width])
                    .zip(xj)
                {
                    *p = k * sj * pow_stoich_minus_one(v.max(0.0), s_j);
                }
                for (ii, &(i, s_i)) in r.reactants.iter().enumerate() {
                    if ii != jj {
                        let xi = &x[i * width..(i + 1) * width];
                        for (p, &v) in partial.iter_mut().zip(xi) {
                            *p *= pow_stoich(v.max(0.0), s_i);
                        }
                    }
                }
                // the scalar path bulk-skips a zero partial; when every
                // lane's partial is zero the scatter is a no-op, so only
                // the cursor needs to advance
                if partial.iter().all(|&p| p == 0.0) {
                    cursor += r.delta.len();
                    continue;
                }
                for &(_, d) in &r.delta {
                    let slot = self.jac_slots[cursor];
                    cursor += 1;
                    let row = &mut vals[slot * width..(slot + 1) * width];
                    for (acc, &p) in row.iter_mut().zip(partial.iter()) {
                        // the select leaves skipped lanes' bits untouched
                        let updated = *acc + d * p;
                        *acc = if p != 0.0 { updated } else { *acc };
                    }
                }
            }
        }
    }

    /// The CSR Jacobian pattern as `(row_ptr, col_idx)`: row `i`'s nonzero
    /// columns are `col_idx[row_ptr[i]..row_ptr[i + 1]]`, sorted ascending.
    #[must_use]
    pub fn jacobian_pattern(&self) -> (&[usize], &[usize]) {
        (&self.jac_row_ptr, &self.jac_col_idx)
    }

    /// Scatters sparse Jacobian values (as written by
    /// [`jacobian_sparse`](Self::jacobian_sparse)) into a dense row-major
    /// `n × n` matrix. Entries outside the pattern are set to zero.
    ///
    /// # Panics
    ///
    /// Panics if `vals` is not `jacobian_nnz()` long or `jac` is not
    /// `species_count()²` long.
    pub fn jacobian_sparse_to_dense(&self, vals: &[f64], jac: &mut [f64]) {
        let n = self.species_count;
        assert_eq!(vals.len(), self.jac_col_idx.len());
        assert_eq!(jac.len(), n * n);
        jac.fill(0.0);
        for i in 0..n {
            for s in self.jac_row_ptr[i]..self.jac_row_ptr[i + 1] {
                jac[i * n + self.jac_col_idx[s]] = vals[s];
            }
        }
    }

    /// Stochastic propensity of reaction `j` at integer copy numbers `n`
    /// (unit volume): `k · Π n_i·(n_i−1)···(n_i−stoich+1) / stoich!`.
    #[must_use]
    pub fn propensity(&self, j: usize, n: &[i64]) -> f64 {
        let r = &self.reactions[j];
        let mut a = r.k;
        for &(i, stoich) in &r.reactants {
            let ni = n[i];
            let mut comb = 1.0;
            for s in 0..i64::from(stoich) {
                comb *= (ni - s) as f64;
            }
            let fact: f64 = (1..=i64::from(stoich)).map(|v| v as f64).product();
            a *= (comb / fact).max(0.0);
        }
        a
    }

    /// Continuous extension of [`propensity`](Self::propensity) to real
    /// states: `k · Π_i Π_{s<stoich_i} max(x_i − s, 0) / stoich_i!`.
    ///
    /// At integer states it equals the discrete propensity; between
    /// integers it interpolates the falling factorial with every factor
    /// clamped at zero, which is what the implicit tau-leap Newton solve
    /// iterates on.
    #[must_use]
    pub fn propensity_f(&self, j: usize, x: &[f64]) -> f64 {
        let r = &self.reactions[j];
        let mut a = r.k;
        for &(i, stoich) in &r.reactants {
            a *= falling_factorial(x[i], stoich);
        }
        a
    }

    /// Writes the nonzero values of the propensity Jacobian
    /// `∂(ν·a)_i/∂x_j` (the derivative of the net stochastic drift
    /// `Σ_j ν_j · a_j(x)` in its continuous extension) into `vals`,
    /// aligned with the same CSR pattern as
    /// [`jacobian_sparse`](Self::jacobian_sparse): the pattern is the union
    /// of `(delta species, reactant species)` pairs, which the mass-action
    /// and combinatorial forms share.
    ///
    /// Clamped falling-factorial factors contribute a zero derivative, so
    /// the values are consistent with [`propensity_f`](Self::propensity_f)
    /// everywhere the latter is differentiable.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not `species_count()` long or `vals` is not
    /// `jacobian_nnz()` long.
    pub fn propensity_jacobian_sparse(&self, x: &[f64], vals: &mut [f64]) {
        assert_eq!(x.len(), self.species_count);
        assert_eq!(vals.len(), self.jac_col_idx.len());
        vals.fill(0.0);
        let mut cursor = 0usize;
        for r in &self.reactions {
            for (jj, &(j, s_j)) in r.reactants.iter().enumerate() {
                let mut partial = r.k * falling_factorial_derivative(x[j], s_j);
                for (ii, &(i, s_i)) in r.reactants.iter().enumerate() {
                    if ii != jj {
                        partial *= falling_factorial(x[i], s_i);
                    }
                }
                if partial == 0.0 {
                    cursor += r.delta.len();
                    continue;
                }
                for &(_, d) in &r.delta {
                    vals[self.jac_slots[cursor]] += d * partial;
                    cursor += 1;
                }
            }
        }
    }

    /// Writes the combinatorial drift `Σ_j ν_j · a_j(x)` restricted to the
    /// reactions with `include[j]` set into `dx`, using the continuous
    /// propensity extension [`propensity_f`](Self::propensity_f). This is
    /// the right-hand side of the hybrid engine's fast (ODE) subsystem:
    /// only the reactions routed to the continuous side contribute.
    pub(crate) fn propensity_drift_masked(&self, x: &[f64], dx: &mut [f64], include: &[bool]) {
        assert_eq!(x.len(), self.species_count);
        assert_eq!(dx.len(), self.species_count);
        assert_eq!(include.len(), self.reactions.len());
        dx.fill(0.0);
        for (j, r) in self.reactions.iter().enumerate() {
            if !include[j] {
                continue;
            }
            let mut a = r.k;
            for &(i, stoich) in &r.reactants {
                a *= falling_factorial(x[i], stoich);
            }
            if a == 0.0 {
                continue;
            }
            for &(i, d) in &r.delta {
                dx[i] += d * a;
            }
        }
    }

    /// Masked [`propensity_jacobian_sparse`](Self::propensity_jacobian_sparse):
    /// only reactions with `include[j]` set contribute, so the values are
    /// the Jacobian of [`propensity_drift_masked`](Self::propensity_drift_masked)
    /// over the *full* shared CSR pattern (excluded reactions' slots stay
    /// zero — the symbolic factorization built for the full pattern still
    /// applies).
    pub(crate) fn propensity_jacobian_sparse_masked(
        &self,
        x: &[f64],
        vals: &mut [f64],
        include: &[bool],
    ) {
        assert_eq!(x.len(), self.species_count);
        assert_eq!(vals.len(), self.jac_col_idx.len());
        assert_eq!(include.len(), self.reactions.len());
        vals.fill(0.0);
        let mut cursor = 0usize;
        for (jr, r) in self.reactions.iter().enumerate() {
            if !include[jr] {
                cursor += r.reactants.len() * r.delta.len();
                continue;
            }
            for (jj, &(j, s_j)) in r.reactants.iter().enumerate() {
                let mut partial = r.k * falling_factorial_derivative(x[j], s_j);
                for (ii, &(i, s_i)) in r.reactants.iter().enumerate() {
                    if ii != jj {
                        partial *= falling_factorial(x[i], s_i);
                    }
                }
                if partial == 0.0 {
                    cursor += r.delta.len();
                    continue;
                }
                for &(_, d) in &r.delta {
                    vals[self.jac_slots[cursor]] += d * partial;
                    cursor += 1;
                }
            }
        }
    }

    /// The `(species index, stoichiometric exponent)` pairs of reaction
    /// `j`'s reactants — what its propensity depends on.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn reactant_indices(&self, j: usize) -> &[(usize, u32)] {
        &self.reactions[j].reactants
    }

    /// The `(species index, net change)` pairs of reaction `j` — which
    /// species firing it modifies.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    #[must_use]
    pub fn changed_species(&self, j: usize) -> &[(usize, i64)] {
        &self.reactions[j].delta_int
    }

    /// Applies reaction `j` once to integer state `n`, clamping at zero.
    pub(crate) fn fire(&self, j: usize, n: &mut [i64]) {
        for &(i, d) in &self.reactions[j].delta_int {
            n[i] = (n[i] + d).max(0);
        }
    }

    /// The reactions whose propensity can change when reaction `j`
    /// fires, ascending: every reaction with a reactant in
    /// [`changed_species(j)`](Self::changed_species). `j` itself is
    /// listed only if it reads a species it changes. A reaction outside
    /// the row keeps its propensity bit for bit, since
    /// [`propensity`](Self::propensity) reads nothing but its rate and
    /// its reactants' counts.
    pub(crate) fn dependents(&self, j: usize) -> &[usize] {
        &self.dep_col_idx[self.dep_row_ptr[j]..self.dep_row_ptr[j + 1]]
    }
}

/// Builds the CSR reaction dependency graph: row `j` is the sorted union,
/// over the species reaction `j` changes, of the reactions reading that
/// species.
fn build_dependency_graph(
    species_count: usize,
    reactions: &[CompiledReaction],
) -> (Vec<usize>, Vec<usize>) {
    let mut readers: Vec<Vec<usize>> = vec![Vec::new(); species_count];
    for (j, r) in reactions.iter().enumerate() {
        for &(i, _) in &r.reactants {
            readers[i].push(j);
        }
    }
    let mut row_ptr = Vec::with_capacity(reactions.len() + 1);
    row_ptr.push(0);
    let mut col_idx = Vec::new();
    let mut row = Vec::new();
    for r in reactions {
        row.clear();
        for &(i, _) in &r.delta_int {
            row.extend_from_slice(&readers[i]);
        }
        row.sort_unstable();
        row.dedup();
        col_idx.extend_from_slice(&row);
        row_ptr.push(col_idx.len());
    }
    (row_ptr, col_idx)
}

/// `Π_{s<stoich} max(x − s, 0) / stoich!` — the clamped continuous
/// falling factorial of the combinatorial propensity.
#[inline]
fn falling_factorial(x: f64, stoich: u32) -> f64 {
    let mut comb = 1.0;
    for s in 0..i64::from(stoich) {
        comb *= (x - s as f64).max(0.0);
    }
    let fact: f64 = (1..=i64::from(stoich)).map(|v| v as f64).product();
    comb / fact
}

/// `d/dx` of [`falling_factorial`]: the product rule over the unclamped
/// factors (a factor clamped at zero has derivative zero and kills every
/// other term it appears in).
#[inline]
fn falling_factorial_derivative(x: f64, stoich: u32) -> f64 {
    let mut sum = 0.0;
    for q in 0..i64::from(stoich) {
        if x <= q as f64 {
            continue; // the max(x − q, 0) factor is flat here
        }
        let mut term = 1.0;
        for s in 0..i64::from(stoich) {
            if s != q {
                term *= (x - s as f64).max(0.0);
            }
        }
        sum += term;
    }
    let fact: f64 = (1..=i64::from(stoich)).map(|v| v as f64).product();
    sum / fact
}

/// Builds the CSR Jacobian pattern and the flat scatter-slot table.
///
/// A reaction with reactant `j` and net change on species `i` contributes
/// to `J[i][j]`; the pattern is the union of those `(i, j)` pairs. Slots
/// are emitted in the exact loop order of `CompiledCrn::jacobian`
/// (reaction → reactant `jj` → delta `ii`) so `jacobian_sparse` can walk
/// them with a single cursor.
fn build_jacobian_pattern(
    species_count: usize,
    reactions: &[CompiledReaction],
) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
    let mut entries: Vec<(usize, usize)> = Vec::new();
    for r in reactions {
        for &(j, _) in &r.reactants {
            for &(i, _) in &r.delta {
                entries.push((i, j));
            }
        }
    }
    entries.sort_unstable();
    entries.dedup();

    let mut row_ptr = vec![0usize; species_count + 1];
    for &(i, _) in &entries {
        row_ptr[i + 1] += 1;
    }
    for i in 0..species_count {
        row_ptr[i + 1] += row_ptr[i];
    }
    let col_idx: Vec<usize> = entries.iter().map(|&(_, j)| j).collect();

    let mut slots = Vec::new();
    for r in reactions {
        for &(j, _) in &r.reactants {
            for &(i, _) in &r.delta {
                let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
                slots.push(row_ptr[i] + row.partition_point(|&c| c < j));
            }
        }
    }
    (row_ptr, col_idx, slots)
}

#[cfg(test)]
mod tests {
    use super::*;
    use molseq_crn::{JitterSpec, RateAssignment, RateJitter};

    fn network() -> Crn {
        "0 -> r @slow\nX -> Y @slow\n2X -> Z @fast\nC + X -> C + Y @fast"
            .parse()
            .unwrap()
    }

    #[test]
    fn fluxes_follow_mass_action() {
        let crn = network();
        let c = CompiledCrn::new(&crn, &SimSpec::new(RateAssignment::new(10.0, 2.0).unwrap()));
        // species order: r, X, Y, Z, C
        let x = [0.0, 3.0, 0.0, 0.0, 5.0];
        assert_eq!(c.flux(0, &x), 2.0); // zero order, slow
        assert_eq!(c.flux(1, &x), 2.0 * 3.0);
        assert_eq!(c.flux(2, &x), 10.0 * 9.0);
        assert_eq!(c.flux(3, &x), 10.0 * 5.0 * 3.0);
    }

    #[test]
    fn derivative_sums_deltas() {
        let crn: Crn = "X -> Y @slow".parse().unwrap();
        let c = CompiledCrn::new(&crn, &SimSpec::default());
        let x = [2.0, 0.0];
        let mut dx = [0.0, 0.0];
        c.derivative(&x, &mut dx);
        assert_eq!(dx, [-2.0, 2.0]);
    }

    #[test]
    fn catalyst_has_zero_delta() {
        let crn: Crn = "C + X -> C + Y @fast".parse().unwrap();
        let c = CompiledCrn::new(&crn, &SimSpec::default());
        let x = [1.0, 1.0, 0.0]; // C, X, Y
        let mut dx = [0.0; 3];
        c.derivative(&x, &mut dx);
        assert_eq!(dx[0], 0.0);
        assert!(dx[1] < 0.0 && dx[2] > 0.0);
    }

    #[test]
    fn negative_concentrations_contribute_no_flux() {
        let crn: Crn = "X -> Y @slow".parse().unwrap();
        let c = CompiledCrn::new(&crn, &SimSpec::default());
        let x = [-0.5, 0.0];
        let mut dx = [0.0, 0.0];
        c.derivative(&x, &mut dx);
        assert_eq!(dx, [0.0, 0.0]);
    }

    #[test]
    fn propensity_uses_combinations() {
        let crn: Crn = "2X -> Z @fast".parse().unwrap();
        let c = CompiledCrn::new(&crn, &SimSpec::new(RateAssignment::new(2.0, 1.0).unwrap()));
        assert_eq!(c.propensity(0, &[4, 0]), 2.0 * (4.0 * 3.0) / 2.0);
        assert_eq!(c.propensity(0, &[1, 0]), 0.0);
        assert_eq!(c.propensity(0, &[0, 0]), 0.0);
    }

    #[test]
    fn fire_applies_integer_deltas_with_clamp() {
        let crn: Crn = "2X -> Z @fast".parse().unwrap();
        let c = CompiledCrn::new(&crn, &SimSpec::default());
        let mut n = [5i64, 0];
        c.fire(0, &mut n);
        assert_eq!(n, [3, 1]);
    }

    #[test]
    fn rebind_matches_fresh_compile() {
        let crn = network();
        let base = CompiledCrn::new(&crn, &SimSpec::default());
        for ratio in [1.0, 10.0, 1e3, 1e5] {
            let spec = SimSpec::new(RateAssignment::from_ratio(ratio));
            assert_eq!(base.rebind(&spec), CompiledCrn::new(&crn, &spec));
        }
        // jitter draws rebind too
        let jit = RateJitter::sample(&crn, JitterSpec::new(0.3, 4));
        let spec = SimSpec::default().with_jitter(jit);
        assert_eq!(base.rebind(&spec), CompiledCrn::new(&crn, &spec));
        // and rebinding back recovers the original
        assert_eq!(base.rebind(&SimSpec::default()), base);
    }

    #[test]
    fn sparse_jacobian_matches_dense_bitwise() {
        let crn = network();
        let c = CompiledCrn::new(&crn, &SimSpec::new(RateAssignment::new(10.0, 2.0).unwrap()));
        let n = c.species_count();
        for x in [
            vec![0.0, 3.0, 0.0, 0.0, 5.0],
            vec![1.5, 0.25, 7.0, 2.0, 0.0],
            vec![-1.0, 2.0, 3.0, -0.5, 4.0], // clamping must agree too
        ] {
            let mut dense = vec![0.0; n * n];
            c.jacobian(&x, &mut dense);
            let mut vals = vec![0.0; c.jacobian_nnz()];
            c.jacobian_sparse(&x, &mut vals);
            let mut scattered = vec![0.0; n * n];
            c.jacobian_sparse_to_dense(&vals, &mut scattered);
            assert_eq!(dense, scattered, "at x = {x:?}");
        }
    }

    #[test]
    fn pattern_covers_exactly_the_structural_nonzeros() {
        let crn = network();
        let c = CompiledCrn::new(&crn, &SimSpec::default());
        let n = c.species_count();
        let (row_ptr, col_idx) = c.jacobian_pattern();
        assert_eq!(row_ptr.len(), n + 1);
        assert_eq!(*row_ptr.last().unwrap(), col_idx.len());
        // rows sorted, no duplicates
        for i in 0..n {
            let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
            assert!(row.windows(2).all(|w| w[0] < w[1]), "row {i}: {row:?}");
        }
        // a dense Jacobian at a generic positive state is nonzero only
        // inside the pattern
        let x = vec![1.1, 2.3, 0.7, 1.9, 3.1];
        let mut dense = vec![0.0; n * n];
        c.jacobian(&x, &mut dense);
        for i in 0..n {
            for j in 0..n {
                if dense[i * n + j] != 0.0 {
                    let row = &col_idx[row_ptr[i]..row_ptr[i + 1]];
                    assert!(row.contains(&j), "({i},{j}) outside pattern");
                }
            }
        }
        // sparsity actually pays off on this network
        assert!(c.jacobian_nnz() < n * n);
    }

    #[test]
    fn continuous_propensity_matches_discrete_at_integers() {
        let crn = network();
        let c = CompiledCrn::new(&crn, &SimSpec::new(RateAssignment::new(10.0, 2.0).unwrap()));
        for n in [
            vec![0i64, 3, 0, 0, 5],
            vec![1, 1, 7, 2, 0],
            vec![4, 0, 0, 1, 9],
        ] {
            let x: Vec<f64> = n.iter().map(|&v| v as f64).collect();
            for j in 0..c.reaction_count() {
                assert_eq!(c.propensity_f(j, &x), c.propensity(j, &n), "reaction {j}");
            }
        }
    }

    #[test]
    fn propensity_jacobian_matches_finite_differences() {
        let crn = network();
        let c = CompiledCrn::new(&crn, &SimSpec::new(RateAssignment::new(10.0, 2.0).unwrap()));
        let n = c.species_count();
        let x = vec![1.3, 2.7, 0.4, 1.9, 3.6];
        let mut vals = vec![0.0; c.jacobian_nnz()];
        c.propensity_jacobian_sparse(&x, &mut vals);
        let mut dense = vec![0.0; n * n];
        c.jacobian_sparse_to_dense(&vals, &mut dense);
        // J[i][j] = ∂ drift_i / ∂ x_j, with drift_i = Σ_r ν_ri · a_r(x)
        let drift = |x: &[f64]| {
            let mut d = vec![0.0; n];
            for j in 0..c.reaction_count() {
                let a = c.propensity_f(j, x);
                for &(i, v) in c.changed_species(j) {
                    d[i] += v as f64 * a;
                }
            }
            d
        };
        let h = 1e-6;
        for col in 0..n {
            let mut xp = x.clone();
            xp[col] += h;
            let mut xm = x.clone();
            xm[col] -= h;
            let (dp, dm) = (drift(&xp), drift(&xm));
            for row in 0..n {
                let fd = (dp[row] - dm[row]) / (2.0 * h);
                assert!(
                    (dense[row * n + col] - fd).abs() < 1e-4 * (1.0 + fd.abs()),
                    "({row},{col}): analytic {} vs fd {fd}",
                    dense[row * n + col]
                );
            }
        }
    }

    #[test]
    fn pattern_survives_rebind() {
        let crn = network();
        let base = CompiledCrn::new(&crn, &SimSpec::default());
        let spec = SimSpec::new(RateAssignment::from_ratio(1e4));
        let rebound = base.rebind(&spec);
        assert_eq!(base.jacobian_pattern(), rebound.jacobian_pattern());
        assert_eq!(base.jacobian_nnz(), rebound.jacobian_nnz());
    }

    #[test]
    fn dependency_graph_links_shared_species() {
        let crn: Crn =
            "A -> B @slow\nB -> C @slow\nC + A -> 0 @fast\n0 -> A @slow\nK + B -> K + C @fast"
                .parse()
                .unwrap();
        let c = CompiledCrn::new(&crn, &SimSpec::default());
        // r0 (A -> B) changes A and B: r0 and r2 read A, r1 and r4 read B
        assert_eq!(c.dependents(0), [0, 1, 2, 4]);
        // r1 (B -> C) changes B and C: r0 reads neither
        assert_eq!(c.dependents(1), [1, 2, 4]);
        // r2 (C + A -> 0) changes C and A
        assert_eq!(c.dependents(2), [0, 2]);
        // a zero-order source reads nothing, so it is not its own dependent
        assert_eq!(c.dependents(3), [0, 2]);
        // a catalyst is read but not changed: only B's and C's readers
        assert_eq!(c.dependents(4), [1, 2, 4]);
        // the graph is structural, so a rebind keeps it
        let rebound = c.rebind(&SimSpec::new(RateAssignment::from_ratio(50.0)));
        for j in 0..c.reaction_count() {
            assert_eq!(rebound.dependents(j), c.dependents(j));
        }
    }

    #[test]
    fn reactions_outside_a_row_keep_their_propensity_bits() {
        let crn = network();
        let c = CompiledCrn::new(&crn, &SimSpec::new(RateAssignment::new(10.0, 2.0).unwrap()));
        let n0 = [2i64, 5, 1, 3, 4];
        for j in 0..c.reaction_count() {
            let mut n = n0;
            c.fire(j, &mut n);
            let row = c.dependents(j);
            for q in 0..c.reaction_count() {
                if !row.contains(&q) {
                    assert_eq!(
                        c.propensity(q, &n).to_bits(),
                        c.propensity(q, &n0).to_bits(),
                        "firing {j} moved {q}"
                    );
                }
            }
        }
    }

    #[test]
    fn jitter_scales_rates() {
        let crn: Crn = "X -> Y @slow".parse().unwrap();
        let jit = RateJitter::from_multipliers(vec![3.0]);
        let spec = SimSpec::new(RateAssignment::new(10.0, 2.0).unwrap()).with_jitter(jit);
        let c = CompiledCrn::new(&crn, &spec);
        assert_eq!(c.flux(0, &[1.0, 0.0]), 6.0);
        // determinism of sampled jitter is covered in molseq-crn; here just
        // check that a sampled jitter threads through.
        let sampled = RateJitter::sample(&crn, JitterSpec::new(0.5, 9));
        let spec2 = SimSpec::default().with_jitter(sampled.clone());
        let c2 = CompiledCrn::new(&crn, &spec2);
        assert!((c2.reactions[0].k - sampled.factor(0)).abs() < 1e-12);
    }
}
