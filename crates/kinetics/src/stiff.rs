//! A linearly implicit (Rosenbrock) stiff integrator.
//!
//! The networks in this workspace are stiff by construction: fast
//! reactions run at `k_fast·X ≈ 10⁵` while the phenomena of interest live
//! on the `k_slow` timescale. Explicit methods are stability-limited to
//! steps of `~1/(k_fast·X)`; the Rosenbrock method here, RODAS4 (Hairer &
//! Wanner, *Solving Ordinary Differential Equations II*, §IV.7), takes
//! steps sized by *accuracy* instead, using the analytic mass-action
//! Jacobian. It is L-stable and stiffly accurate, of order 4 with an
//! embedded order-3 error estimate, and carries its own order-3
//! continuous extension, which the recorded samples are read from. Its
//! tableau is typed once, in [`rodas4`], and read by the scalar stepper
//! here, by the batched lanes and by the dense output.
//!
//! Three structural optimizations keep the per-step cost down on the
//! large networks (multi-bit counters run past 100 species):
//!
//! * the Jacobian is evaluated through the precomputed CSR pattern
//!   ([`CompiledCrn::jacobian_sparse`]) and `W = I − h·γ·J` is assembled
//!   by scattering only the nonzeros — no dense Jacobian is ever formed;
//! * the linear algebra exploits that W's sparsity pattern is *fixed*
//!   across the whole simulation. A one-time symbolic analysis
//!   ([`Symbolic`]) orders the species by minimum degree, closes the
//!   pattern under the fill-in of Gaussian elimination, and lays the
//!   factor out *packed*: each row of the permuted matrix holds its L
//!   entries, its diagonal and its U entries contiguously (857 slots on
//!   the 3-bit counter, against 9,801 dense positions). It also
//!   precomputes the slot every Jacobian nonzero, multiplier and row
//!   update lands in, so assembling `W` zeroes and scatters only the
//!   packed array, and the numeric factorization and the six
//!   triangular solves touch nothing else. The factorization runs
//!   without pivoting — at the step sizes the controller accepts,
//!   `W = I − h·γ·J` is dominated by its unit diagonal — but every pivot
//!   and multiplier is checked against a stability guard, and a step
//!   whose elimination misbehaves transparently falls back to the
//!   pivoted dense LU ([`Lu`], slice-based and vectorized). Its `n×n`
//!   buffer is allocated on the first guard trip, so a run whose guard
//!   never trips never holds one;
//! * all scratch, including the symbolic structure, lives in
//!   [`RosenbrockWork`] and is reused across steps, segments and whole
//!   simulations.
//!
//! Each step takes one Jacobian, one LU, six right-hand sides and six
//! stage solves. The Jacobian is evaluated once per accepted state: a
//! rejected step retries from the same state with the same Jacobian, the
//! same `f(y)` (and, when `h` repeats bit-identically, the same LU). It is
//! never carried across an accepted step: RODAS4 is not a W-method, its
//! order conditions assume a current Jacobian, and a lagged one inflates
//! the embedded error estimate into reject-and-retry cycles that cost more
//! than the skipped evaluations save. Nor is `f(y)` handed over from the
//! previous step: the new state's derivative is not one of RODAS4's stage
//! values, so every accepted state evaluates it afresh.

// Index loops mirror the textbook linear-algebra formulas.
#![allow(clippy::needless_range_loop)]

use crate::compiled::CompiledCrn;

/// The RODAS4 tableau: the coefficients of Hairer's RODAS code
/// (`METH = 1`), which KPP's `Rodas4` also uses, in the form that solves
/// for the stage increments `K_i` directly. With `W = I − h·γ·J`:
///
/// ```text
/// Y_i = y + Σ_{j<i} a_ij·K_j
/// W·K_i = h·γ·f(Y_i) + γ·Σ_{j<i} c_ij·K_j          (i = 1..6)
/// ```
///
/// The method is stiffly accurate: `a_6j = (a_51, .., a_54, 1)` and the
/// solution weights are `(a_51, .., a_54, 1, 1)`, so `Y_6 = Y_5 + K_5`
/// and `y_new = Y_6 + K_6`. The embedded order-3 solution is `Y_6`, so
/// the error estimate is `K_6`. The continuous extension over the step
/// `[t0, t0 + h]` is
///
/// ```text
/// y(t0 + θh) = (1 − θ)·y0 + θ·(y1 + (1 − θ)·(d2 + θ·d3)),
/// d2 = Σ_{j≤5} D2_j·K_j,   d3 = Σ_{j≤5} D3_j·K_j,
/// ```
///
/// which returns `y0` at `θ = 0` and `y1` at `θ = 1`. `γ = 1/4` is a
/// power of two, so `γ·c_ij` is exact and the stage arithmetic folds it
/// into the constants.
pub(crate) mod rodas4 {
    /// The diagonal `γ` of the method: `W = I − h·γ·J`.
    pub(crate) const GAMMA: f64 = 0.25;
    /// `A[i - 2][j - 1] = a_ij` for stages `i = 2..=5`.
    const A: [[f64; 4]; 4] = [
        [1.544, 0.0, 0.0, 0.0],
        [0.9466785280815826, 0.2557011698983284, 0.0, 0.0],
        [
            3.314825187068521,
            2.896124015972201,
            0.9986419139977817,
            0.0,
        ],
        [
            1.221224509226641,
            6.019134481288629,
            12.53708332932087,
            -0.687886036105895,
        ],
    ];
    /// `C[i - 2][j - 1] = c_ij` for stages `i = 2..=6`.
    const C: [[f64; 5]; 5] = [
        [-5.6688, 0.0, 0.0, 0.0, 0.0],
        [-2.430093356833875, -0.2063599157091915, 0.0, 0.0, 0.0],
        [
            -0.1073529058151375,
            -9.594562251023355,
            -20.47028614809616,
            0.0,
            0.0,
        ],
        [
            7.496443313967647,
            -10.24680431464352,
            -33.99990352819905,
            11.7089089320616,
            0.0,
        ],
        [
            8.083246795921522,
            -7.981132988064893,
            -31.52159432874371,
            16.31930543123136,
            -6.058818238834054,
        ],
    ];
    /// Dense-output weights of `d2` over `K_1..K_5`.
    const D2: [f64; 5] = [
        10.12623508344586,
        -7.487995877610167,
        -34.80091861555747,
        -7.992771707568823,
        1.025137723295662,
    ];
    /// Dense-output weights of `d3` over `K_1..K_5`.
    const D3: [f64; 5] = [
        -0.6762803392801253,
        6.087714651680015,
        16.43084320892478,
        24.76722511418386,
        -6.594389125716872,
    ];

    /// `γ·c_ij`, exact since `γ` is a power of two.
    const GC: [[f64; 5]; 5] = {
        let mut gc = C;
        let mut i = 0;
        while i < 5 {
            let mut j = 0;
            while j < 5 {
                gc[i][j] *= GAMMA;
                j += 1;
            }
            i += 1;
        }
        gc
    };

    /// `out += Σ_j w[j]·K_j` elementwise, one weight at a time in
    /// ascending `j`, for `K_j = ks[j·len..(j + 1)·len]`.
    fn accumulate(out: &mut [f64], w: &[f64], ks: &[f64]) {
        for (&a, k) in w.iter().zip(ks.chunks_exact(out.len())) {
            for (o, &kv) in out.iter_mut().zip(k) {
                *o += a * kv;
            }
        }
    }

    /// The six stages of one trial step from `y`, over vectors of
    /// `y.len()` entries: one cell (`hg` one long), or `hg.len()` lanes
    /// stored species-major, lane-contiguous. `f0` holds `f(y)`, `hg` each
    /// lane's `h·γ`, `derivative(Y, out)` writes `f(Y)`, and `solve(b)`
    /// overwrites `b` with `W⁻¹·b`. Fills `k` with `K_1..K_6`
    /// (stage-major) and `y_new`; `ytmp` ends holding the embedded
    /// solution `Y_6`. Every weight but `h·γ` is the same for every lane,
    /// so a lane sees exactly the operations, in the same order, that a
    /// cell stepped alone sees.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn stages(
        y: &[f64],
        f0: &[f64],
        hg: &[f64],
        k: &mut [f64],
        ytmp: &mut [f64],
        y_new: &mut [f64],
        mut derivative: impl FnMut(&[f64], &mut [f64]),
        mut solve: impl FnMut(&mut [f64]),
    ) {
        let len = y.len();
        for s in 0..6 {
            let (prev, rest) = k.split_at_mut(s * len);
            let ks = &mut rest[..len];
            if s == 0 {
                ks.copy_from_slice(f0);
            } else {
                if s < 5 {
                    ytmp.copy_from_slice(y);
                    accumulate(ytmp, &A[s - 1][..s], prev);
                } else {
                    // stiffly accurate: a_6j = (a_51, .., a_54, 1), so
                    // Y_6 = Y_5 + K_5
                    accumulate(ytmp, &[1.0], &prev[4 * len..]);
                }
                derivative(ytmp, ks);
            }
            for row in ks.chunks_exact_mut(hg.len()) {
                for (x, &h) in row.iter_mut().zip(hg) {
                    *x *= h;
                }
            }
            if s > 0 {
                accumulate(ks, &GC[s - 1][..s], prev);
            }
            solve(ks);
        }
        // the solution weights are a_6j followed by 1: y_new = Y_6 + K_6
        y_new.copy_from_slice(ytmp);
        accumulate(y_new, &[1.0], &k[5 * len..]);
    }

    /// `d2` and `d3` of one component, from its `K_1..K_5`.
    pub(crate) fn dense_coefficients(k: [f64; 5]) -> (f64, f64) {
        let (mut d2, mut d3) = (0.0, 0.0);
        for j in 0..5 {
            d2 += D2[j] * k[j];
            d3 += D3[j] * k[j];
        }
        (d2, d3)
    }

    /// One component of the continuous extension at `θ`, from `y0` to
    /// `y1`. A negative value is clamped to `+0.0`, as the post-step
    /// projection clamps the state.
    pub(crate) fn dense_value(y0: f64, y1: f64, theta: f64, d2: f64, d3: f64) -> f64 {
        let v = (1.0 - theta) * y0 + theta * (y1 + (1.0 - theta) * (d2 + theta * d3));
        if v < 0.0 {
            0.0
        } else {
            v
        }
    }
}

/// A multiplier this large during the no-pivot elimination means the
/// natural ordering is numerically unstable for this particular `W`;
/// the step falls back to the pivoted dense factorization. Partial
/// pivoting bounds multipliers by 1, so 10⁴ already concedes ~4 digits —
/// on the mass-action `W = I − h·γ·J` matrices here, where the unit
/// diagonal dominates at accepted step sizes, the guard never trips in
/// practice.
const MULTIPLIER_GUARD: f64 = 1e4;

/// Dense LU factorization with partial pivoting (row-major `n×n`),
/// factored in place. The fallback backend when the no-pivot sparse
/// elimination trips its stability guard, and the reference the sparse
/// path is tested against. An empty `Lu` holds no storage; the first
/// factorization allocates it and later ones reuse it.
#[derive(Default)]
pub(crate) struct Lu {
    lu: Vec<f64>,
    pivots: Vec<usize>,
    n: usize,
}

impl Lu {
    /// Assembles `W = I − hd·J` unpermuted into this
    /// factor's `n×n` buffer and factors it with partial pivoting.
    /// Returns `false` when `W` is numerically singular.
    pub(crate) fn factor_w(&mut self, compiled: &CompiledCrn, jac_vals: &[f64], hd: f64) -> bool {
        let n = compiled.species_count();
        self.n = n;
        self.lu.resize(n * n, 0.0);
        assemble_w(compiled, jac_vals, hd, &mut self.lu);
        self.factor()
    }

    /// Factors the row-major `n×n` matrix in `self.lu` in place. Returns
    /// `false` — leaving it partially eliminated — for a (numerically)
    /// singular matrix.
    fn factor(&mut self) -> bool {
        let n = self.n;
        let a = &mut self.lu;
        self.pivots.clear();
        self.pivots.resize(n, 0);
        for col in 0..n {
            // pivot search
            let mut pivot_row = col;
            let mut best = a[col * n + col].abs();
            for row in (col + 1)..n {
                let v = a[row * n + col].abs();
                if v > best {
                    best = v;
                    pivot_row = row;
                }
            }
            if best < 1e-300 {
                return false;
            }
            self.pivots[col] = pivot_row;
            if pivot_row != col {
                for k in 0..n {
                    a.swap(col * n + k, pivot_row * n + k);
                }
            }
            let inv = 1.0 / a[col * n + col];
            // Slice the pivot row off so the update is over plain slices:
            // the bounds-check-free zip below vectorizes.
            let (top, below) = a.split_at_mut((col + 1) * n);
            let pivot_tail = &top[col * n + col + 1..];
            for row in below.chunks_exact_mut(n) {
                let factor = row[col] * inv;
                row[col] = factor;
                if factor != 0.0 {
                    for (x, &p) in row[col + 1..].iter_mut().zip(pivot_tail) {
                        *x -= factor * p;
                    }
                }
            }
        }
        true
    }

    /// Solves `A·x = b` in place.
    pub(crate) fn solve(&self, b: &mut [f64]) {
        let n = self.n;
        for col in 0..n {
            b.swap(col, self.pivots[col]);
        }
        // forward substitution (unit lower triangle); row-major dot
        // products over slices so the reductions vectorize
        for row in 1..n {
            let lu_row = &self.lu[row * n..row * n + row];
            let mut acc = b[row];
            for (&l, &x) in lu_row.iter().zip(b.iter()) {
                acc -= l * x;
            }
            b[row] = acc;
        }
        // back substitution
        for row in (0..n).rev() {
            let lu_row = &self.lu[row * n + row + 1..(row + 1) * n];
            let mut acc = b[row];
            for (&l, &x) in lu_row.iter().zip(b[row + 1..].iter()) {
                acc -= l * x;
            }
            b[row] = acc / self.lu[row * n + row];
        }
    }
}

/// Greedy minimum-degree ordering of the symmetrized pattern: repeatedly
/// eliminate the vertex with the fewest remaining neighbors, connecting
/// its neighborhood into a clique (the fill that elimination would
/// create). The sequential networks here contain hub species — the clock
/// phases couple to almost every reaction — whose early elimination fills
/// the matrix almost completely (66% on the 2-bit counter, vs 7.5%
/// structural); deferring them keeps the factors sparse. Quadratic-ish
/// and dense-matrix naive, but it runs once per workspace and `n` stays
/// in the low hundreds.
fn min_degree_order(n: usize, pat: &[bool]) -> Vec<usize> {
    let mut adj = vec![false; n * n];
    for i in 0..n {
        for j in 0..n {
            if i != j && (pat[i * n + j] || pat[j * n + i]) {
                adj[i * n + j] = true;
                adj[j * n + i] = true;
            }
        }
    }
    let mut eliminated = vec![false; n];
    let mut perm = Vec::with_capacity(n);
    for _ in 0..n {
        let (mut best, mut best_deg) = (usize::MAX, usize::MAX);
        for v in 0..n {
            if eliminated[v] {
                continue;
            }
            let deg = (0..n).filter(|&u| !eliminated[u] && adj[v * n + u]).count();
            if deg < best_deg {
                best_deg = deg;
                best = v;
            }
        }
        eliminated[best] = true;
        let nbrs: Vec<usize> = (0..n)
            .filter(|&u| !eliminated[u] && adj[best * n + u])
            .collect();
        for (k, &u) in nbrs.iter().enumerate() {
            for &v in &nbrs[k + 1..] {
                adj[u * n + v] = true;
                adj[v * n + u] = true;
            }
        }
        perm.push(best);
    }
    perm
}

/// One-time symbolic factorization of `W = I − hd·J`: a fill-reducing
/// (minimum-degree) symmetric permutation of the Jacobian pattern plus
/// the diagonal, closed under the fill-in of Gaussian elimination in the
/// permuted order, and the packed layout of the factor.
///
/// Row `k` of the factored matrix `W' = P·W·Pᵀ` occupies the slots
/// `row_ptr[k]..row_ptr[k + 1]` of one flat array: its L entries in
/// ascending column order, then its diagonal at `diag[k]`, then its U
/// entries in ascending column order. Three precomputed slot lists drive
/// the numeric phases, so `assemble`, `factor` and `solve` never search
/// and never touch a position outside the elimination structure; their
/// cost scales with structural nonzeros, not with `n²`/`n³`.
pub(crate) struct Symbolic {
    n: usize,
    /// Copy of the source Jacobian pattern — the compatibility key that
    /// decides whether a recycled workspace still matches a network, and
    /// the row structure the assemble scatter walks.
    src_row_ptr: Vec<usize>,
    src_col_idx: Vec<usize>,
    /// `perm[k]` = the original index eliminated at step `k`; `pinv` is
    /// its inverse. The factored matrix is `W' = P·W·Pᵀ`, i.e.
    /// `W'[k, l] = W[perm[k], perm[l]]`.
    perm: Vec<usize>,
    pinv: Vec<usize>,
    /// Packed row pointers of `W'` (`n + 1` long).
    row_ptr: Vec<usize>,
    /// The slot of each row's diagonal.
    diag: Vec<usize>,
    /// The column of each packed slot.
    col: Vec<usize>,
    /// The packed slot of each Jacobian CSR nonzero.
    jac_slot: Vec<usize>,
    /// For each pivot column `k`: the slots of `(i, k)` for the rows
    /// `i > k` with a (filled) nonzero there, ascending in `i` — the
    /// multipliers of the elimination.
    below_ptr: Vec<usize>,
    below_slot: Vec<usize>,
    /// For each `(k, i)` pair in elimination order: the destination slots
    /// of row `i`'s update, one per U entry of pivot row `k` in ascending
    /// column order.
    update_slot: Vec<usize>,
}

impl Symbolic {
    pub(crate) fn new(compiled: &CompiledCrn) -> Self {
        let n = compiled.species_count();
        let (row_ptr, col_idx) = compiled.jacobian_pattern();
        let mut src = vec![false; n * n];
        for i in 0..n {
            src[i * n + i] = true;
            for s in row_ptr[i]..row_ptr[i + 1] {
                src[i * n + col_idx[s]] = true;
            }
        }
        let perm = min_degree_order(n, &src);
        let mut pinv = vec![0usize; n];
        for (k, &v) in perm.iter().enumerate() {
            pinv[v] = k;
        }
        // the pattern of W' = P·W·Pᵀ
        let mut pat = vec![false; n * n];
        for i in 0..n {
            for j in 0..n {
                if src[i * n + j] {
                    pat[pinv[i] * n + pinv[j]] = true;
                }
            }
        }
        // Fill-in: eliminating column k against pivot row k creates a
        // nonzero at (i, j) whenever (i, k) and (k, j) are nonzero. One
        // boolean Gaussian elimination, run once per workspace.
        for k in 0..n {
            let (top, below) = pat.split_at_mut((k + 1) * n);
            let pivot_tail = &top[k * n + k + 1..];
            for row in below.chunks_exact_mut(n) {
                if row[k] {
                    for (x, &p) in row[k + 1..].iter_mut().zip(pivot_tail) {
                        *x |= p;
                    }
                }
            }
        }
        // the packed rows: every structural column of row k, ascending,
        // so the diagonal falls between the L and the U entries
        let mut sym = Symbolic {
            n,
            src_row_ptr: row_ptr.to_vec(),
            src_col_idx: col_idx.to_vec(),
            perm,
            pinv,
            row_ptr: Vec::with_capacity(n + 1),
            diag: Vec::with_capacity(n),
            col: Vec::new(),
            jac_slot: Vec::with_capacity(col_idx.len()),
            below_ptr: Vec::new(),
            below_slot: Vec::new(),
            update_slot: Vec::new(),
        };
        sym.row_ptr.push(0);
        for k in 0..n {
            for j in 0..n {
                if pat[k * n + j] {
                    if j == k {
                        sym.diag.push(sym.col.len());
                    }
                    sym.col.push(j);
                }
            }
            sym.row_ptr.push(sym.col.len());
        }
        // the slot lists, each slot looked up in its packed row
        for i in 0..n {
            for s in row_ptr[i]..row_ptr[i + 1] {
                let slot = sym.slot(sym.pinv[i], sym.pinv[col_idx[s]]);
                sym.jac_slot.push(slot);
            }
        }
        // the multipliers and row updates, in elimination order
        let (mut below_ptr, mut below_slot, mut update_slot) = (vec![0], Vec::new(), Vec::new());
        for k in 0..n {
            for i in (k + 1)..n {
                if pat[i * n + k] {
                    below_slot.push(sym.slot(i, k));
                    update_slot.extend(sym.urow(k).iter().map(|&j| sym.slot(i, j)));
                }
            }
            below_ptr.push(below_slot.len());
        }
        sym.below_ptr = below_ptr;
        sym.below_slot = below_slot;
        sym.update_slot = update_slot;
        sym
    }

    /// The packed slot of `(i, j)` in `W'`; the entry must lie inside the
    /// elimination structure.
    fn slot(&self, i: usize, j: usize) -> usize {
        let row = &self.col[self.row_ptr[i]..self.row_ptr[i + 1]];
        self.row_ptr[i]
            + row
                .binary_search(&j)
                .expect("the fill closure contains every entry the elimination reaches")
    }

    /// The U columns of row `k`: `j > k`, ascending.
    fn urow(&self, k: usize) -> &[usize] {
        &self.col[self.diag[k] + 1..self.row_ptr[k + 1]]
    }

    /// Length of the packed factor array.
    pub(crate) fn packed_len(&self) -> usize {
        self.col.len()
    }

    /// Whether this symbolic analysis was built for exactly `compiled`'s
    /// Jacobian pattern (species count included).
    pub(crate) fn matches(&self, compiled: &CompiledCrn) -> bool {
        let (row_ptr, col_idx) = compiled.jacobian_pattern();
        self.n == compiled.species_count()
            && self.src_row_ptr.as_slice() == row_ptr
            && self.src_col_idx.as_slice() == col_idx
    }

    /// Scatters `W' = P·(I − hd·J)·Pᵀ` into the packed array `w`
    /// (`hd` the step times the method's diagonal, `jac_vals` aligned
    /// with the Jacobian CSR pattern):
    /// zeroes `w`, then writes every Jacobian nonzero and adds the unit
    /// diagonal, row by row.
    pub(crate) fn assemble(&self, jac_vals: &[f64], hd: f64, w: &mut [f64]) {
        w.fill(0.0);
        for i in 0..self.n {
            for s in self.src_row_ptr[i]..self.src_row_ptr[i + 1] {
                w[self.jac_slot[s]] = -hd * jac_vals[s];
            }
            w[self.diag[self.pinv[i]]] += 1.0;
        }
    }

    /// No-pivot numeric LU of the packed `a` over the precomputed
    /// structure, right-looking: for each pivot `k`, each row
    /// `i ∈ below(k)` gets its multiplier and, when that is nonzero, the
    /// update by pivot row `k`'s U entries. On success the unit-lower L
    /// and U overwrite `a` in place. Returns `false` — leaving `a`
    /// partially eliminated — when a pivot vanishes or a multiplier
    /// exceeds [`MULTIPLIER_GUARD`]; the caller then falls back to the
    /// pivoted dense [`Lu`].
    // The negated comparisons are deliberate: they send NaN pivots and
    // multipliers down the bail-out path too.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub(crate) fn factor(&self, a: &mut [f64]) -> bool {
        let mut updates = self.update_slot.as_slice();
        for k in 0..self.n {
            let piv = a[self.diag[k]];
            if !(piv.abs() > 1e-300) {
                return false;
            }
            let inv = 1.0 / piv;
            // every row i > k lies after row k, so the pivot row's U
            // entries are read from one side of the split and the
            // multipliers and updates written on the other
            let base = self.row_ptr[k + 1];
            let (head, tail) = a.split_at_mut(base);
            let pivot_u = &head[self.diag[k] + 1..];
            for &s in &self.below_slot[self.below_ptr[k]..self.below_ptr[k + 1]] {
                let m = tail[s - base] * inv;
                if !(m.abs() <= MULTIPLIER_GUARD) {
                    return false;
                }
                tail[s - base] = m;
                let (dst, rest) = updates.split_at(pivot_u.len());
                updates = rest;
                if m != 0.0 {
                    for (&d, &p) in dst.iter().zip(pivot_u) {
                        tail[d - base] -= m * p;
                    }
                }
            }
        }
        true
    }

    /// Solves `W·x = b` in place against a factor produced by
    /// [`Symbolic::factor`], by row-oriented forward and back
    /// substitution over the packed rows. `b` is in original species
    /// order; `scratch` (length `n`) holds the permuted right-hand side
    /// while the triangular solves run.
    pub(crate) fn solve(&self, a: &[f64], b: &mut [f64], scratch: &mut [f64]) {
        let n = self.n;
        // W'·(P·x) = P·b
        for k in 0..n {
            scratch[k] = b[self.perm[k]];
        }
        // forward substitution (unit lower triangle)
        for i in 1..n {
            let (lo, d) = (self.row_ptr[i], self.diag[i]);
            let mut acc = scratch[i];
            for (&l, &j) in a[lo..d].iter().zip(&self.col[lo..d]) {
                acc -= l * scratch[j];
            }
            scratch[i] = acc;
        }
        // back substitution
        for i in (0..n).rev() {
            let (d, hi) = (self.diag[i], self.row_ptr[i + 1]);
            let mut acc = scratch[i];
            for (&u, &j) in a[d + 1..hi].iter().zip(&self.col[d + 1..hi]) {
                acc -= u * scratch[j];
            }
            scratch[i] = acc / a[d];
        }
        for k in 0..n {
            b[self.perm[k]] = scratch[k];
        }
    }

    /// Multi-lane [`assemble`](Self::assemble): `jac_vals` holds `width`
    /// lanes of Jacobian nonzeros (slot-major, lane-contiguous), `hd` the
    /// per-lane `hd`, and `w` the packed `W` block (`packed_len × width`,
    /// slot-major, lane-contiguous). Only lanes with `need[l]` set are
    /// written; the others keep their cached factor bits untouched. When
    /// the caller can prove no lane's cached bits will ever be read again
    /// (`all` — every lane is either needed now or retired) the per-lane
    /// selects collapse to plain full-width writes; needed lanes receive
    /// bit-identical values either way.
    pub(crate) fn assemble_batch(
        &self,
        jac_vals: &[f64],
        hd: &[f64],
        need: &[bool],
        all: bool,
        w: &mut [f64],
    ) {
        // monomorphize the hot widths so the lane loops unroll and
        // vectorize with a compile-time trip count (WDC = 0 keeps one
        // dynamic-width body for everything else)
        match hd.len() {
            2 => self.assemble_batch_impl::<2>(jac_vals, hd, need, all, w),
            4 => self.assemble_batch_impl::<4>(jac_vals, hd, need, all, w),
            8 => self.assemble_batch_impl::<8>(jac_vals, hd, need, all, w),
            16 => self.assemble_batch_impl::<16>(jac_vals, hd, need, all, w),
            32 => self.assemble_batch_impl::<32>(jac_vals, hd, need, all, w),
            _ => self.assemble_batch_impl::<0>(jac_vals, hd, need, all, w),
        }
    }

    #[inline(always)]
    fn assemble_batch_impl<const WDC: usize>(
        &self,
        jac_vals: &[f64],
        hd: &[f64],
        need: &[bool],
        all: bool,
        w: &mut [f64],
    ) {
        let wd = if WDC == 0 { hd.len() } else { WDC };
        debug_assert_eq!(hd.len(), wd);
        debug_assert_eq!(need.len(), wd);
        debug_assert_eq!(w.len(), self.packed_len() * wd);
        if all {
            w.fill(0.0);
        } else {
            for chunk in w.chunks_exact_mut(wd) {
                for (x, &nd) in chunk.iter_mut().zip(need) {
                    *x = if nd { 0.0 } else { *x };
                }
            }
        }
        for i in 0..self.n {
            for s in self.src_row_ptr[i]..self.src_row_ptr[i + 1] {
                let dst = self.jac_slot[s] * wd;
                let vals = &jac_vals[s * wd..(s + 1) * wd];
                let out = &mut w[dst..dst + wd];
                if all {
                    for ((x, &v), &h) in out.iter_mut().zip(vals).zip(hd) {
                        *x = -h * v;
                    }
                } else {
                    for ((x, &v), (&h, &nd)) in out.iter_mut().zip(vals).zip(hd.iter().zip(need)) {
                        *x = if nd { -h * v } else { *x };
                    }
                }
            }
            let dst = self.diag[self.pinv[i]] * wd;
            let out = &mut w[dst..dst + wd];
            if all {
                for x in out.iter_mut() {
                    *x += 1.0;
                }
            } else {
                for (x, &nd) in out.iter_mut().zip(need) {
                    *x = if nd { *x + 1.0 } else { *x };
                }
            }
        }
    }

    /// Multi-lane [`factor`](Self::factor): one pass over the elimination
    /// structure factors every lane with `need[l]` set, in exactly the
    /// scalar operation order per lane. Instead of bailing out, a lane
    /// whose pivot vanishes or whose multiplier trips the guard has its
    /// `ok[l]` cleared (sticky) and keeps computing — the garbage stays in
    /// that lane and the caller routes it to the dense fallback, exactly
    /// as the scalar path does after `factor` returns `false`. Lanes
    /// without `need[l]` keep their cached factor bits untouched.
    /// `inv`/`m`/`upd` are `width`-long scratch buffers.
    // Negated comparisons deliberately classify NaN as failed, as in the
    // scalar `factor`.
    #[allow(clippy::neg_cmp_op_on_partial_ord, clippy::too_many_arguments)]
    pub(crate) fn factor_batch(
        &self,
        a: &mut [f64],
        need: &[bool],
        ok: &mut [bool],
        inv: &mut [f64],
        m: &mut [f64],
        upd: &mut [bool],
        all: bool,
    ) {
        match need.len() {
            2 => self.factor_batch_impl::<2>(a, need, ok, inv, m, upd, all),
            4 => self.factor_batch_impl::<4>(a, need, ok, inv, m, upd, all),
            8 => self.factor_batch_impl::<8>(a, need, ok, inv, m, upd, all),
            16 => self.factor_batch_impl::<16>(a, need, ok, inv, m, upd, all),
            32 => self.factor_batch_impl::<32>(a, need, ok, inv, m, upd, all),
            _ => self.factor_batch_impl::<0>(a, need, ok, inv, m, upd, all),
        }
    }

    /// `all` — every lane is either needed or retired, so keep-old-bits
    /// selects can become plain writes (retired lanes receive garbage
    /// nobody reads; needed lanes get bit-identical values).
    #[allow(clippy::neg_cmp_op_on_partial_ord, clippy::too_many_arguments)]
    #[inline(always)]
    fn factor_batch_impl<const WDC: usize>(
        &self,
        a: &mut [f64],
        need: &[bool],
        ok: &mut [bool],
        inv: &mut [f64],
        m: &mut [f64],
        upd: &mut [bool],
        all: bool,
    ) {
        let wd = if WDC == 0 { need.len() } else { WDC };
        debug_assert_eq!(need.len(), wd);
        debug_assert_eq!(a.len(), self.packed_len() * wd);
        for (o, &nd) in ok.iter_mut().zip(need) {
            *o = nd;
        }
        let mut updates = self.update_slot.as_slice();
        for k in 0..self.n {
            let kk = self.diag[k] * wd;
            {
                let diag = &a[kk..kk + wd];
                if all {
                    // `ok` starts as `need`, so retired lanes stay false
                    // without re-reading the mask
                    for ((iv, o), &piv) in inv.iter_mut().zip(ok.iter_mut()).zip(diag) {
                        if *o && !(piv.abs() > 1e-300) {
                            *o = false;
                        }
                        *iv = 1.0 / piv;
                    }
                } else {
                    for (((iv, o), &nd), &piv) in
                        inv.iter_mut().zip(ok.iter_mut()).zip(need).zip(diag)
                    {
                        if nd && *o && !(piv.abs() > 1e-300) {
                            *o = false;
                        }
                        *iv = 1.0 / piv;
                    }
                }
            }
            // rows i > k lie after row k: read the pivot row's U entries
            // from one side of the split, write the other
            let base = self.row_ptr[k + 1];
            let (head, tail) = a.split_at_mut(base * wd);
            let pivot_u = &head[kk + wd..];
            let width = self.row_ptr[k + 1] - self.diag[k] - 1;
            for &s in &self.below_slot[self.below_ptr[k]..self.below_ptr[k + 1]] {
                let (dst_slots, rest) = updates.split_at(width);
                updates = rest;
                let ik = (s - base) * wd;
                {
                    let col = &mut tail[ik..ik + wd];
                    if all {
                        for l in 0..wd {
                            let mm = col[l] * inv[l];
                            if ok[l] && !(mm.abs() <= MULTIPLIER_GUARD) {
                                ok[l] = false;
                            }
                            col[l] = mm;
                            m[l] = mm;
                            upd[l] = mm != 0.0;
                        }
                    } else {
                        for l in 0..wd {
                            let mm = col[l] * inv[l];
                            if need[l] && ok[l] && !(mm.abs() <= MULTIPLIER_GUARD) {
                                ok[l] = false;
                            }
                            col[l] = if need[l] { mm } else { col[l] };
                            m[l] = mm;
                            upd[l] = need[l] && mm != 0.0;
                        }
                    }
                }
                // the row update is the O(fill²) kernel; when no lane has a
                // nonzero multiplier every write below would keep its old
                // bits, so the whole sweep is a no-op — skip it, exactly as
                // the scalar factor's `m != 0` branch does per cell
                if !upd.iter().any(|&up| up) {
                    continue;
                }
                for (&d, src) in dst_slots.iter().zip(pivot_u.chunks_exact(wd)) {
                    let ij = (d - base) * wd;
                    let dst = &mut tail[ij..ij + wd];
                    // the per-lane select stays even in the `all` path:
                    // the scalar factor skips m == 0 row updates, and
                    // `x - 0·s` is not a bitwise no-op (−0.0, inf·0)
                    for (((x, &s), &mm), &up) in
                        dst.iter_mut().zip(src).zip(m.iter()).zip(upd.iter())
                    {
                        let nv = *x - mm * s;
                        *x = if up { nv } else { *x };
                    }
                }
            }
        }
    }

    /// Multi-lane [`solve`](Self::solve) against a factor from
    /// [`factor_batch`](Self::factor_batch): `b` and `scratch` hold
    /// `width` right-hand sides (species-major, lane-contiguous). The
    /// triangular sweeps run full-width — per lane in the scalar
    /// operation order — and the final scatter writes back only lanes
    /// with `write[l]` set, so lanes solved elsewhere (dense fallback,
    /// retired) keep their `b` bits.
    pub(crate) fn solve_batch(
        &self,
        a: &[f64],
        b: &mut [f64],
        scratch: &mut [f64],
        write: &[bool],
        all: bool,
    ) {
        match write.len() {
            2 => self.solve_batch_impl::<2>(a, b, scratch, write, all),
            4 => self.solve_batch_impl::<4>(a, b, scratch, write, all),
            8 => self.solve_batch_impl::<8>(a, b, scratch, write, all),
            16 => self.solve_batch_impl::<16>(a, b, scratch, write, all),
            32 => self.solve_batch_impl::<32>(a, b, scratch, write, all),
            _ => self.solve_batch_impl::<0>(a, b, scratch, write, all),
        }
    }

    /// `all` — every lane is either written back or retired, so the final
    /// scatter is a plain copy (retired lanes receive garbage nobody
    /// reads; written lanes get bit-identical values).
    #[inline(always)]
    fn solve_batch_impl<const WDC: usize>(
        &self,
        a: &[f64],
        b: &mut [f64],
        scratch: &mut [f64],
        write: &[bool],
        all: bool,
    ) {
        let n = self.n;
        let wd = if WDC == 0 { write.len() } else { WDC };
        debug_assert_eq!(write.len(), wd);
        debug_assert_eq!(a.len(), self.packed_len() * wd);
        debug_assert_eq!(b.len(), n * wd);
        debug_assert_eq!(scratch.len(), n * wd);
        for k in 0..n {
            let src = self.perm[k] * wd;
            scratch[k * wd..(k + 1) * wd].copy_from_slice(&b[src..src + wd]);
        }
        // forward substitution (unit lower triangle)
        for i in 1..n {
            let (lo, hi) = scratch.split_at_mut(i * wd);
            let row = &mut hi[..wd];
            for s in self.row_ptr[i]..self.diag[i] {
                let j = self.col[s];
                let av = &a[s * wd..(s + 1) * wd];
                let sv = &lo[j * wd..(j + 1) * wd];
                for ((x, &am), &sm) in row.iter_mut().zip(av).zip(sv) {
                    *x -= am * sm;
                }
            }
        }
        // back substitution
        for i in (0..n).rev() {
            let (lo, hi) = scratch.split_at_mut((i + 1) * wd);
            let row = &mut lo[i * wd..];
            for s in self.diag[i] + 1..self.row_ptr[i + 1] {
                let j = self.col[s];
                let av = &a[s * wd..(s + 1) * wd];
                let sv = &hi[(j - i - 1) * wd..(j - i) * wd];
                for ((x, &am), &sm) in row.iter_mut().zip(av).zip(sv) {
                    *x -= am * sm;
                }
            }
            let d = self.diag[i] * wd;
            for (x, &dv) in row.iter_mut().zip(&a[d..d + wd]) {
                *x /= dv;
            }
        }
        for k in 0..n {
            let dst = self.perm[k] * wd;
            let out = &mut b[dst..dst + wd];
            let sv = &scratch[k * wd..(k + 1) * wd];
            if all {
                out.copy_from_slice(sv);
            } else {
                for ((x, &s), &wr) in out.iter_mut().zip(sv).zip(write) {
                    *x = if wr { s } else { *x };
                }
            }
        }
    }
}

/// One W-solver's factor storage: the packed no-pivot LU over a
/// [`Symbolic`] structure, and the pivoted dense fallback [`Lu`], whose
/// `n×n` buffer is allocated on the first guard trip. The Rosenbrock
/// stepper, the hybrid engine's fast step and the implicit tau-leaper's
/// Newton solve each own one; their matrices `I − h·γ·J` (RODAS4),
/// `I − h·d·J` (the hybrid's ode23s) and
/// `I − τ·ν·(∂a/∂x)` share the Jacobian pattern.
pub(crate) struct Factored {
    packed: Vec<f64>,
    dense: Lu,
    /// Whether the current factor is the dense fallback.
    fell_back: bool,
    /// Tripped no-pivot guards over this factor's lifetime (monotone;
    /// owners snapshot-and-subtract to attribute them to one run).
    fallbacks: u64,
}

impl Factored {
    pub(crate) fn new(sym: &Symbolic) -> Self {
        Factored {
            packed: vec![0.0; sym.packed_len()],
            dense: Lu::default(),
            fell_back: false,
            fallbacks: 0,
        }
    }

    /// Assembles `W = I − hd·J` from the Jacobian nonzeros `jac_vals` and
    /// factors it: sparse and packed first, and — when the guard trips
    /// mid-elimination — rebuilt unpermuted and factored with partial
    /// pivoting. Returns `false` when `W` is singular even for that.
    pub(crate) fn factor(
        &mut self,
        sym: &Symbolic,
        compiled: &CompiledCrn,
        jac_vals: &[f64],
        hd: f64,
    ) -> bool {
        sym.assemble(jac_vals, hd, &mut self.packed);
        self.fell_back = !sym.factor(&mut self.packed);
        if !self.fell_back {
            return true;
        }
        self.fallbacks += 1;
        self.dense.factor_w(compiled, jac_vals, hd)
    }

    pub(crate) fn fallbacks(&self) -> u64 {
        self.fallbacks
    }

    /// Solves `W·x = b` in place against the last successful
    /// [`factor`](Self::factor); `scratch` is `n` long.
    pub(crate) fn solve(&self, sym: &Symbolic, b: &mut [f64], scratch: &mut [f64]) {
        if self.fell_back {
            self.dense.solve(b);
        } else {
            sym.solve(&self.packed, b, scratch);
        }
    }
}

/// Scatters `W = I − hd·J` over the Jacobian pattern into the dense
/// scratch matrix `w`, in original (unpermuted) species
/// order — the layout the pivoted dense fallback factors.
fn assemble_w(compiled: &CompiledCrn, jac_vals: &[f64], hd: f64, w: &mut [f64]) {
    let n = compiled.species_count();
    w.fill(0.0);
    let (row_ptr, col_idx) = compiled.jacobian_pattern();
    for i in 0..n {
        let base = i * n;
        for s in row_ptr[i]..row_ptr[i + 1] {
            w[base + col_idx[s]] = -hd * jac_vals[s];
        }
        w[base + i] += 1.0;
    }
}

/// Reusable buffers and cached factorization state for Rosenbrock
/// stepping. Survives across steps, segments and — via
/// [`OdeWorkspace`](crate::OdeWorkspace) — across whole simulation calls;
/// no per-step allocation happens once constructed. `W` lives in a
/// [`Factored`]: a packed array of [`Symbolic::packed_len`] entries, plus
/// the dense fallback's `n×n` buffer once a guard has tripped.
pub(crate) struct RosenbrockWork {
    n: usize,
    /// Elimination structure of `W`'s fixed sparsity pattern.
    sym: Symbolic,
    /// Jacobian nonzeros aligned with the compiled CSR pattern.
    jac_vals: Vec<f64>,
    /// True when `jac_vals` was evaluated at the current state.
    jac_fresh: bool,
    /// The factorization of `W = I − h·γ·J`; valid for `lu_h` and the
    /// current `jac_vals` while `lu_valid` holds.
    lu: Factored,
    lu_valid: bool,
    lu_h: f64,
    /// True when `f0` holds `f(y)` at the current state, evaluated by an
    /// earlier (rejected) trial from it.
    f0_fresh: bool,
    f0: Vec<f64>,
    /// The stage increments `K_1..K_6` of the last trial step,
    /// stage-major, `n` each; `K_6` is its error estimate.
    k: Vec<f64>,
    /// The stage states `Y_i`.
    ytmp: Vec<f64>,
    /// The continuous extension's `d2` and `d3` of the last accepted
    /// step, formed by [`prepare_dense`](Self::prepare_dense).
    d2: Vec<f64>,
    d3: Vec<f64>,
    /// Permuted right-hand side scratch for the sparse triangular solves.
    bperm: Vec<f64>,
    /// Completed numeric factorizations of `W` over the workspace's
    /// lifetime (sparse and pivoted-dense both count; a guard-tripped
    /// sparse attempt that falls back to dense counts once).
    factorizations: u64,
    /// The advanced solution of the trial step.
    pub y_new: Vec<f64>,
}

impl RosenbrockWork {
    pub(crate) fn new(compiled: &CompiledCrn) -> Self {
        let n = compiled.species_count();
        let sym = Symbolic::new(compiled);
        RosenbrockWork {
            n,
            jac_vals: vec![0.0; compiled.jacobian_nnz()],
            jac_fresh: false,
            lu: Factored::new(&sym),
            lu_valid: false,
            lu_h: f64::NAN,
            sym,
            f0_fresh: false,
            f0: vec![0.0; n],
            k: vec![0.0; 6 * n],
            ytmp: vec![0.0; n],
            d2: vec![0.0; n],
            d3: vec![0.0; n],
            bperm: vec![0.0; n],
            factorizations: 0,
            y_new: vec![0.0; n],
        }
    }

    /// Cumulative completed numeric factorizations (monotone over the
    /// workspace's lifetime; callers snapshot-and-subtract to attribute
    /// them to one simulation call).
    pub(crate) fn factorizations(&self) -> u64 {
        self.factorizations
    }

    /// Cumulative tripped no-pivot guards, counted like
    /// [`factorizations`](Self::factorizations).
    pub(crate) fn dense_fallbacks(&self) -> u64 {
        self.lu.fallbacks()
    }

    /// Whether this workspace (buffer sizes *and* symbolic elimination
    /// structure) was built for `compiled` — the compatibility key for
    /// workspace reuse across simulation calls.
    pub(crate) fn matches(&self, compiled: &CompiledCrn) -> bool {
        self.jac_vals.len() == compiled.jacobian_nnz() && self.sym.matches(compiled)
    }

    /// Forgets the cached Jacobian, factorization and `f(y)`. Call
    /// whenever the state moves — an accepted step, an injection, a
    /// trigger firing — or the workspace is recycled for a new
    /// simulation: the next step then behaves exactly like the first step
    /// of a fresh workspace. The last step's stage increments stay, so
    /// [`prepare_dense`](Self::prepare_dense) still reads an accepted
    /// step after it.
    pub(crate) fn invalidate(&mut self) {
        self.jac_fresh = false;
        self.f0_fresh = false;
    }

    /// One RODAS4 trial step of size `h` from `y`. Fills `y_new` and the
    /// stage increments, `K_6` among them as the error estimate; returns
    /// `false` when the linear system is singular (caller should shrink
    /// the step).
    ///
    /// The Jacobian and `f(y)` are re-evaluated unless an earlier
    /// (rejected) trial evaluated them at `y` since the last state change;
    /// the LU factorization is additionally reused when `h` is
    /// bit-identical to the cached one.
    pub(crate) fn step(&mut self, compiled: &CompiledCrn, y: &[f64], h: f64) -> bool {
        if !self.jac_fresh {
            compiled.jacobian_sparse(y, &mut self.jac_vals);
            self.jac_fresh = true;
            // any cached factorization was built from the old values
            self.lu_valid = false;
        }
        let hg = h * rodas4::GAMMA;
        if !self.lu_valid || self.lu_h != h {
            if !self.lu.factor(&self.sym, compiled, &self.jac_vals, hg) {
                self.lu_valid = false;
                // retry from an exact Jacobian at the smaller step
                self.jac_fresh = false;
                return false;
            }
            self.lu_valid = true;
            self.lu_h = h;
            self.factorizations += 1;
        }
        if !self.f0_fresh {
            compiled.derivative(y, &mut self.f0);
            self.f0_fresh = true;
        }
        let RosenbrockWork {
            sym,
            lu,
            f0,
            k,
            ytmp,
            bperm,
            y_new,
            ..
        } = self;
        rodas4::stages(
            y,
            f0,
            &[hg],
            k,
            ytmp,
            y_new,
            |x, out| compiled.derivative(x, out),
            |b| lu.solve(sym, b, bperm),
        );
        true
    }

    /// Max over components of `|err| / (atol + rtol·max(|y|, |y_new|))`,
    /// where `err` is the last trial step's error estimate `K_6`.
    pub(crate) fn error_ratio(&self, y: &[f64], rtol: f64, atol: f64) -> f64 {
        let mut worst = 0.0f64;
        for (i, &e) in self.k[5 * self.n..].iter().enumerate() {
            let scale = atol + rtol * y[i].abs().max(self.y_new[i].abs());
            worst = worst.max(e.abs() / scale);
        }
        worst
    }

    /// Forms the continuous extension of the last (accepted) step. Only a
    /// step that holds a recorded sample needs it.
    pub(crate) fn prepare_dense(&mut self) {
        let n = self.n;
        for i in 0..n {
            let (d2, d3) = rodas4::dense_coefficients(std::array::from_fn(|j| self.k[j * n + i]));
            self.d2[i] = d2;
            self.d3[i] = d3;
        }
    }

    /// The continuous extension at `θ ∈ [0, 1]` of the step prepared by
    /// [`prepare_dense`](Self::prepare_dense), from `y0` to the projected
    /// state `y1`, into `out`.
    pub(crate) fn dense_sample(&self, y0: &[f64], y1: &[f64], theta: f64, out: &mut [f64]) {
        for (i, o) in out.iter_mut().enumerate() {
            *o = rodas4::dense_value(y0[i], y1[i], theta, self.d2[i], self.d3[i]);
        }
    }
}

/// The no-pivot elimination in dense row-major `n×n` storage, over the
/// same symbolic structure and in the same operation order: the layout
/// the packed factor replaced, kept as the oracle the packed `assemble`,
/// `factor` and `solve` must reproduce bit for bit.
#[cfg(test)]
mod dense_reference {
    use super::{Symbolic, MULTIPLIER_GUARD};

    /// The L columns of row `i`: `j < i`, ascending.
    pub(super) fn lrow(sym: &Symbolic, i: usize) -> &[usize] {
        &sym.col[sym.row_ptr[i]..sym.diag[i]]
    }

    /// Rows `i > k` with a (filled) nonzero at `(i, k)`, ascending.
    pub(super) fn below_rows(sym: &Symbolic, k: usize) -> Vec<usize> {
        (k + 1..sym.n)
            .filter(|&i| lrow(sym, i).binary_search(&k).is_ok())
            .collect()
    }

    pub(super) fn assemble(sym: &Symbolic, jac_vals: &[f64], hd: f64, w: &mut [f64]) {
        let n = sym.n;
        w.fill(0.0);
        for i in 0..n {
            let base = sym.pinv[i] * n;
            for s in sym.src_row_ptr[i]..sym.src_row_ptr[i + 1] {
                w[base + sym.pinv[sym.src_col_idx[s]]] = -hd * jac_vals[s];
            }
            w[base + sym.pinv[i]] += 1.0;
        }
    }

    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub(super) fn factor(sym: &Symbolic, a: &mut [f64]) -> bool {
        let n = sym.n;
        for k in 0..n {
            let piv = a[k * n + k];
            if !(piv.abs() > 1e-300) {
                return false;
            }
            let inv = 1.0 / piv;
            let right = sym.urow(k);
            for i in below_rows(sym, k) {
                let m = a[i * n + k] * inv;
                if !(m.abs() <= MULTIPLIER_GUARD) {
                    return false;
                }
                a[i * n + k] = m;
                if m != 0.0 {
                    for &j in right {
                        a[i * n + j] -= m * a[k * n + j];
                    }
                }
            }
        }
        true
    }

    pub(super) fn solve(sym: &Symbolic, a: &[f64], b: &mut [f64], scratch: &mut [f64]) {
        let n = sym.n;
        for k in 0..n {
            scratch[k] = b[sym.perm[k]];
        }
        for i in 1..n {
            let mut acc = scratch[i];
            for &j in lrow(sym, i) {
                acc -= a[i * n + j] * scratch[j];
            }
            scratch[i] = acc;
        }
        for i in (0..n).rev() {
            let mut acc = scratch[i];
            for &j in sym.urow(i) {
                acc -= a[i * n + j] * scratch[j];
            }
            scratch[i] = acc / a[i * n + i];
        }
        for k in 0..n {
            b[sym.perm[k]] = scratch[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SimSpec, State};
    use molseq_crn::{Crn, Rate};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Factors the row-major `n×n` matrix `a` with partial pivoting.
    fn dense_lu(a: Vec<f64>, n: usize) -> (Lu, bool) {
        let mut lu = Lu {
            lu: a,
            pivots: Vec::new(),
            n,
        };
        let ok = lu.factor();
        (lu, ok)
    }

    #[test]
    fn lu_solves_a_known_system() {
        // A = [[2, 1], [1, 3]], b = [5, 10] → x = [1, 3]
        let (lu, ok) = dense_lu(vec![2.0, 1.0, 1.0, 3.0], 2);
        assert!(ok, "nonsingular");
        let mut b = vec![5.0, 10.0];
        lu.solve(&mut b);
        assert!((b[0] - 1.0).abs() < 1e-12);
        assert!((b[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lu_needs_pivoting() {
        // zero on the diagonal forces a row swap
        let (lu, ok) = dense_lu(vec![0.0, 1.0, 1.0, 0.0], 2);
        assert!(ok, "nonsingular with pivoting");
        let mut b = vec![2.0, 3.0];
        lu.solve(&mut b);
        assert!((b[0] - 3.0).abs() < 1e-12);
        assert!((b[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lu_detects_singular() {
        let (_, ok) = dense_lu(vec![1.0, 2.0, 2.0, 4.0], 2);
        assert!(!ok);
    }

    /// A star network whose hub species couples to every leaf: eliminating
    /// the hub column fills the whole trailing block, so this exercises
    /// the fill-in computation, not just the original pattern.
    fn star_crn(leaves: usize) -> Crn {
        let mut crn = Crn::new();
        let hub = crn.species("hub");
        let leaf: Vec<_> = (0..leaves)
            .map(|i| crn.species(format!("leaf{i}")))
            .collect();
        for (i, &l) in leaf.iter().enumerate() {
            let next = leaf[(i + 1) % leaves];
            crn.reaction(&[(hub, 1), (l, 1)], &[(next, 1)], Rate::Slow)
                .expect("reaction");
            crn.reaction(&[(l, 1)], &[(hub, 1)], Rate::Fast)
                .expect("reaction");
        }
        crn
    }

    #[test]
    fn sparse_factor_matches_pivoted_dense() {
        let crn = star_crn(5);
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let n = compiled.species_count();
        let sym = Symbolic::new(&compiled);
        assert!(sym.packed_len() < n * n, "the star fills, but not densely");

        let x: Vec<f64> = (0..n).map(|i| 1.5 + i as f64).collect();
        let mut jac_vals = vec![0.0; compiled.jacobian_nnz()];
        compiled.jacobian_sparse(&x, &mut jac_vals);
        // the sparse path factors the permuted W, the dense reference the
        // unpermuted one; both solve the same original-order system
        let mut wp = vec![0.0; sym.packed_len()];
        sym.assemble(&jac_vals, 1e-4 * rodas4::GAMMA, &mut wp);
        let mut dense = Lu::default();
        assert!(
            dense.factor_w(&compiled, &jac_vals, 1e-4 * rodas4::GAMMA),
            "nonsingular"
        );
        assert!(sym.factor(&mut wp), "guard must not trip on a tame W");

        let b0: Vec<f64> = (0..n).map(|i| (i as f64) - 2.0).collect();
        let mut bs = b0.clone();
        let mut bd = b0.clone();
        let mut scratch = vec![0.0; n];
        sym.solve(&wp, &mut bs, &mut scratch);
        dense.solve(&mut bd);
        for (s, d) in bs.iter().zip(&bd) {
            assert!((s - d).abs() <= 1e-12 * d.abs().max(1.0), "{s} vs {d}");
        }
    }

    /// A fully dense 2×2 structure with the identity ordering (both
    /// species have one neighbor; ties eliminate the lower index first),
    /// so the test controls exactly which entry becomes the first pivot.
    /// Its packed rows hold the dense row-major order.
    fn dense_2x2_symbolic() -> Symbolic {
        let crn: Crn = "A + B -> 0 @slow".parse().expect("parses");
        let sym = Symbolic::new(&CompiledCrn::new(&crn, &SimSpec::default()));
        assert_eq!(sym.perm, [0, 1]);
        assert_eq!(sym.col, [0, 1, 0, 1]);
        sym
    }

    #[test]
    fn sparse_factor_guard_rejects_unstable_elimination() {
        // a tiny leading pivot makes the multiplier blow past the guard
        // without pivoting, while a row swap keeps the matrix perfectly
        // well-conditioned for the pivoted backend
        let sym = dense_2x2_symbolic();
        let w = vec![1e-9, 1.0, 1.0, 1.0];
        assert!(!sym.factor(&mut w.clone()), "guard must trip");
        assert!(dense_lu(w, 2).1);
        // an exactly singular leading pivot is rejected too
        let mut singular = vec![0.0, 1.0, 1.0, 1.0];
        assert!(!sym.factor(&mut singular));
    }

    /// Every guard trip counts, and the stage solves then run through the
    /// pivoted fallback: here `W = I − 0.5·J` has a vanishing first pivot.
    #[test]
    fn factored_counts_guard_trips_and_solves_through_the_fallback() {
        let crn: Crn = "A + B -> 0 @slow".parse().expect("parses");
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let sym = dense_2x2_symbolic();
        let mut lu = Factored::new(&sym);
        let jac = [2.0, 1.0, 1.0, 1.0];
        assert!(lu.factor(&sym, &compiled, &jac, 0.5));
        assert_eq!(lu.fallbacks(), 1);
        let mut b = vec![1.0, 1.0];
        lu.solve(&sym, &mut b, &mut [0.0; 2]);
        // [[0, −0.5], [−0.5, 0.5]]·x = [1, 1]
        assert_eq!(b, [-4.0, -2.0]);
        // a tame W stays sparse and adds no trip
        assert!(lu.factor(&sym, &compiled, &jac, 1e-3));
        assert_eq!(lu.fallbacks(), 1);
    }

    #[test]
    fn symbolic_matches_is_pattern_exact() {
        let a = CompiledCrn::new(&star_crn(4), &SimSpec::default());
        let b = CompiledCrn::new(&star_crn(5), &SimSpec::default());
        let sym = Symbolic::new(&a);
        assert!(sym.matches(&a));
        assert!(!sym.matches(&b));
    }

    /// `10^u` for `u` uniform in `[lo, hi)`.
    fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
        10f64.powf(lo + (hi - lo) * rng.random::<f64>())
    }

    fn below(rng: &mut StdRng, n: usize) -> usize {
        (rng.random::<u64>() % n as u64) as usize
    }

    /// A random sparse network over `n` species: one or two reactants
    /// (stoichiometry 1 or 2) and up to two products per reaction, rates
    /// over five decades. With `hub`, species 0 joins most reactions as
    /// an extra reactant, the star shape of the clocked circuits.
    fn random_crn(rng: &mut StdRng, n: usize, hub: bool) -> Crn {
        let mut crn = Crn::new();
        let ids: Vec<_> = (0..n).map(|i| crn.species(format!("s{i}"))).collect();
        for _ in 0..(n + below(rng, 2 * n)) {
            let mut reactants = vec![(ids[below(rng, n)], 1 + below(rng, 2) as u32)];
            if rng.random::<f64>() < 0.4 {
                reactants.push((ids[below(rng, n)], 1));
            }
            if hub && rng.random::<f64>() < 0.7 {
                reactants.push((ids[0], 1));
            }
            reactants.sort_by_key(|&(s, _)| s.index());
            reactants.dedup_by_key(|&mut (s, _)| s.index());
            let products: Vec<_> = (0..below(rng, 3))
                .map(|_| (ids[below(rng, n)], 1))
                .collect();
            // a rejected draw (say, a reaction with no net change) is
            // simply skipped
            let _ = crn.reaction(
                &reactants,
                &products,
                Rate::Fixed(log_uniform(rng, -2.0, 3.0)),
            );
        }
        crn
    }

    /// A random state with about a fifth of the species at zero.
    fn random_state(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| {
                if rng.random::<f64>() < 0.2 {
                    0.0
                } else {
                    log_uniform(rng, -3.0, 1.0)
                }
            })
            .collect()
    }

    fn random_vec(rng: &mut StdRng, n: usize) -> Vec<f64> {
        (0..n).map(|_| 4.0 * rng.random::<f64>() - 2.0).collect()
    }

    /// Every packed slot holds the bits of its dense position.
    fn assert_packed_is_dense(sym: &Symbolic, packed: &[f64], dense: &[f64], what: &str) {
        for k in 0..sym.n {
            for s in sym.row_ptr[k]..sym.row_ptr[k + 1] {
                let d = dense[k * sym.n + sym.col[s]];
                assert!(
                    packed[s].to_bits() == d.to_bits(),
                    "{what}: ({k}, {}) packed {} vs dense {d}",
                    sym.col[s],
                    packed[s]
                );
            }
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Assembles and factors `W` for one random state and step in both
    /// layouts, checks the factor slot by slot and, unless the guard
    /// tripped (which it must do on both paths), three solves. Returns
    /// whether the guard held.
    fn check_against_reference(
        rng: &mut StdRng,
        compiled: &CompiledCrn,
        sym: &Symbolic,
        force_trip: bool,
    ) -> bool {
        let n = compiled.species_count();
        let x = random_state(rng, n);
        let h = 1e-6 * (0.25f64 / 1e-6).powf(rng.random::<f64>());
        let mut jac = vec![0.0; compiled.jacobian_nnz()];
        compiled.jacobian_sparse(&x, &mut jac);
        let mut packed = vec![f64::NAN; sym.packed_len()];
        let mut dense = vec![f64::NAN; n * n];
        sym.assemble(&jac, h * rodas4::GAMMA, &mut packed);
        dense_reference::assemble(sym, &jac, h * rodas4::GAMMA, &mut dense);
        assert_packed_is_dense(sym, &packed, &dense, "assemble");
        if force_trip {
            // a vanishing pivot over a unit entry below it
            if let Some(k) = (0..n).find(|&k| sym.below_ptr[k + 1] > sym.below_ptr[k]) {
                let s = sym.below_slot[sym.below_ptr[k]];
                let i = dense_reference::below_rows(sym, k)[0];
                packed[sym.diag[k]] = 1e-200;
                dense[k * n + k] = 1e-200;
                packed[s] = 1.0;
                dense[i * n + k] = 1.0;
            }
        }
        let ok = sym.factor(&mut packed);
        assert_eq!(
            ok,
            dense_reference::factor(sym, &mut dense),
            "guard verdicts"
        );
        // a tripped guard leaves both layouts at the same partial state
        assert_packed_is_dense(sym, &packed, &dense, "factor");
        if ok {
            let mut scratch = vec![0.0; n];
            for _ in 0..3 {
                let b = random_vec(rng, n);
                let (mut bp, mut bd) = (b.clone(), b);
                sym.solve(&packed, &mut bp, &mut scratch);
                dense_reference::solve(sym, &dense, &mut bd, &mut scratch);
                assert_eq!(bits(&bp), bits(&bd), "solve");
            }
        }
        ok
    }

    /// Runs `width` random lanes through the batched kernels — a random
    /// subset of them needed, the rest holding cached bits — and checks
    /// every needed lane against the scalar packed kernels and every
    /// other lane for untouched bits.
    fn check_batch_against_scalar(
        rng: &mut StdRng,
        compiled: &CompiledCrn,
        sym: &Symbolic,
        width: usize,
    ) {
        let n = compiled.species_count();
        let nnz = compiled.jacobian_nnz();
        let p = sym.packed_len();
        let need: Vec<bool> = (0..width).map(|_| rng.random::<f64>() < 0.75).collect();
        let all = need.iter().all(|&nd| nd);
        let hd: Vec<f64> = (0..width)
            .map(|_| 1e-6 * (0.25f64 / 1e-6).powf(rng.random::<f64>()) * rodas4::GAMMA)
            .collect();
        let mut jac = vec![0.0; nnz * width];
        let mut lane_jac = vec![0.0; nnz];
        let mut scalar_w: Vec<Vec<f64>> = Vec::new();
        for l in 0..width {
            compiled.jacobian_sparse(&random_state(rng, n), &mut lane_jac);
            crate::batch::store_lane(&mut jac, &lane_jac, width, l);
            let mut w = vec![0.0; p];
            sym.assemble(&lane_jac, hd[l], &mut w);
            let ok = sym.factor(&mut w);
            scalar_w.push(if ok { w } else { Vec::new() });
        }
        let cached = random_vec(rng, p * width);
        let mut w = cached.clone();
        let (mut ok, mut upd) = (vec![false; width], vec![false; width]);
        let (mut inv, mut m) = (vec![0.0; width], vec![0.0; width]);
        sym.assemble_batch(&jac, &hd, &need, all, &mut w);
        sym.factor_batch(&mut w, &need, &mut ok, &mut inv, &mut m, &mut upd, all);
        let mut lane_w = vec![0.0; p];
        for l in 0..width {
            crate::batch::extract_lane(&w, &mut lane_w, width, l);
            if !need[l] {
                let kept: Vec<f64> = (0..p).map(|s| cached[s * width + l]).collect();
                assert_eq!(bits(&lane_w), bits(&kept), "unneeded lane {l} moved");
                continue;
            }
            assert_eq!(ok[l], !scalar_w[l].is_empty(), "lane {l} guard verdict");
            if ok[l] {
                assert_eq!(bits(&lane_w), bits(&scalar_w[l]), "lane {l} factor");
            }
        }
        let write: Vec<bool> = (0..width).map(|l| need[l] && ok[l]).collect();
        let all_write = write.iter().all(|&wr| wr);
        let b0 = random_vec(rng, n * width);
        let mut b = b0.clone();
        let mut scratch = vec![0.0; n * width];
        sym.solve_batch(&w, &mut b, &mut scratch, &write, all_write);
        let (mut lane_b, mut expect) = (vec![0.0; n], vec![0.0; n]);
        let mut lane_scratch = vec![0.0; n];
        for l in 0..width {
            crate::batch::extract_lane(&b, &mut lane_b, width, l);
            crate::batch::extract_lane(&b0, &mut expect, width, l);
            if write[l] {
                sym.solve(&scalar_w[l], &mut expect, &mut lane_scratch);
            }
            assert_eq!(bits(&lane_b), bits(&expect), "lane {l} solve");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: 48,
            ..ProptestConfig::default()
        })]

        /// On random sparse networks (star hubs included), random states
        /// and steps from 1e-6 to 0.25, the packed `assemble`, `factor`
        /// and three `solve`s reproduce the dense-storage elimination bit
        /// for bit, a tripped guard fails on both paths, and the batched
        /// kernels reproduce the scalar packed ones lane by lane.
        #[test]
        fn packed_lu_reproduces_the_dense_reference_bit_for_bit(
            seed in 0u64..u64::MAX,
            n in 2usize..14,
            hub in 0usize..2,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let crn = random_crn(&mut rng, n, hub == 1);
            let compiled = CompiledCrn::new(&crn, &SimSpec::default());
            let sym = Symbolic::new(&compiled);
            let n = compiled.species_count();
            prop_assert_eq!(sym.row_ptr[n], sym.packed_len());
            for _ in 0..4 {
                check_against_reference(&mut rng, &compiled, &sym, false);
            }
            if sym.below_ptr[n] > 0 {
                prop_assert!(!check_against_reference(&mut rng, &compiled, &sym, true));
            }
            for width in [1, 2, 3, 4, 8] {
                check_batch_against_scalar(&mut rng, &compiled, &sym, width);
            }
        }
    }

    #[test]
    fn rosenbrock_step_matches_decay() {
        let crn: Crn = "X -> 0 @slow".parse().unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut work = RosenbrockWork::new(&compiled);
        let y = State::from_vec(vec![1.0]);
        assert!(work.step(&compiled, y.as_slice(), 0.01));
        // exp(-0.01) ≈ 0.99004983…; a 4th-order step is within ~h⁵
        assert!((work.y_new[0] - (-0.01f64).exp()).abs() < 1e-11);
        assert!(work.error_ratio(y.as_slice(), 1e-6, 1e-9) < 1.0);
    }

    #[test]
    fn invalidate_forces_refresh() {
        let crn: Crn = "2X -> Y @slow".parse().unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let mut work = RosenbrockWork::new(&compiled);
        let ya = [4.0, 0.0];
        assert!(work.step(&compiled, &ya, 0.01));
        // without invalidation the Jacobian and f(y) from `ya` would be
        // reused; after invalidation the step must match a fresh
        // workspace at `yb`
        let yb = [1.0, 1.5];
        work.invalidate();
        assert!(work.step(&compiled, &yb, 0.02));
        let mut fresh = RosenbrockWork::new(&compiled);
        assert!(fresh.step(&compiled, &yb, 0.02));
        assert_eq!(work.y_new, fresh.y_new);
        assert_eq!(work.k, fresh.k);
    }

    /// A rejected step's retry from the same state reuses the Jacobian
    /// and `f(y)` (and at a repeated `h` the LU), and gives the bits of a
    /// fresh workspace.
    #[test]
    fn a_retry_from_the_same_state_matches_a_fresh_workspace() {
        let crn: Crn = "X + Y -> 0 @fast\n0 -> X @slow\nX -> Y @slow"
            .parse()
            .unwrap();
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());
        let y = [3.0, 2.9];
        let mut work = RosenbrockWork::new(&compiled);
        assert!(work.step(&compiled, &y, 0.2));
        for h in [0.05, 0.05] {
            assert!(work.step(&compiled, &y, h));
            let mut fresh = RosenbrockWork::new(&compiled);
            assert!(fresh.step(&compiled, &y, h));
            assert_eq!(bits(&work.y_new), bits(&fresh.y_new), "h = {h}");
            assert_eq!(bits(&work.k), bits(&fresh.k), "h = {h}");
        }
        assert_eq!(work.factorizations(), 2, "the repeated h reuses the LU");
    }

    // --- the tableau oracle: RODAS4's orders, dense output and stability ---

    /// The two oracle networks: a bimolecular one, whose nonlinearity
    /// reaches every `a_ij` (a linear problem alone would miss typos in
    /// them), and a linear chain.
    fn oracle_networks() -> Vec<(CompiledCrn, Vec<f64>)> {
        [
            ("A + B -> C @slow\nC -> A @slow", vec![2.0, 1.5, 0.0]),
            (
                "A -> B @1\nB -> C @3\nC -> D @0.5",
                vec![1.0, 0.5, 0.25, 0.0],
            ),
        ]
        .into_iter()
        .map(|(src, init)| {
            let crn: Crn = src.parse().expect("parses");
            (CompiledCrn::new(&crn, &SimSpec::default()), init)
        })
        .collect()
    }

    fn max_dist(a: &[f64], b: &[f64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f64::max)
    }

    /// `steps` fixed RODAS4 steps over `[0, t_end]`, continuing from the
    /// main solution, or with `embedded` from the embedded one `Y_6`.
    fn fixed_steps(
        compiled: &CompiledCrn,
        init: &[f64],
        t_end: f64,
        steps: usize,
        embedded: bool,
    ) -> Vec<f64> {
        let mut work = RosenbrockWork::new(compiled);
        let h = t_end / steps as f64;
        let mut y = init.to_vec();
        for _ in 0..steps {
            assert!(work.step(compiled, &y, h));
            y.copy_from_slice(if embedded { &work.ytmp } else { &work.y_new });
            work.invalidate();
        }
        y
    }

    /// `log2` of the error ratios between successive halvings of `h`.
    fn observed_orders(errors: &[f64]) -> Vec<f64> {
        errors.windows(2).map(|e| (e[0] / e[1]).log2()).collect()
    }

    /// Global error at `t = 2` over 20, 40, 80 and 160 fixed steps
    /// against the RK4 reference: order 4 for the solution, 3 for the
    /// embedded one.
    #[test]
    fn rodas4_shows_its_global_orders() {
        for (compiled, init) in oracle_networks() {
            let exact = crate::ode::tests::rk4_reference(&compiled, &init, 2.0, 1e-4);
            for (embedded, floor) in [(false, 3.8), (true, 2.8)] {
                let errors: Vec<f64> = [20, 40, 80, 160]
                    .iter()
                    .map(|&steps| {
                        max_dist(&fixed_steps(&compiled, &init, 2.0, steps, embedded), &exact)
                    })
                    .collect();
                let orders = observed_orders(&errors);
                assert!(
                    orders.iter().all(|&p| p >= floor),
                    "embedded {embedded}: errors {errors:?}, orders {orders:?}"
                );
            }
        }
    }

    /// The continuous extension's interior local error, at `θ = 1/2` of
    /// one step from the initial state, falls at least 10× per halving
    /// of `h` (order 3 gives 16× asymptotically), and the extension
    /// returns both step ends exactly.
    #[test]
    fn rodas4_dense_output_converges_inside_the_step() {
        for (compiled, init) in oracle_networks() {
            let n = init.len();
            let mut errors = Vec::new();
            for h in [0.05, 0.025, 0.0125] {
                let mut work = RosenbrockWork::new(&compiled);
                assert!(work.step(&compiled, &init, h));
                work.prepare_dense();
                let mut mid = vec![0.0; n];
                work.dense_sample(&init, &work.y_new, 0.5, &mut mid);
                let exact = crate::ode::tests::rk4_reference(&compiled, &init, 0.5 * h, 1e-5);
                errors.push(max_dist(&mid, &exact));
                let mut end = vec![0.0; n];
                work.dense_sample(&init, &work.y_new, 0.0, &mut end);
                assert_eq!(bits(&end), bits(&init));
                work.dense_sample(&init, &work.y_new, 1.0, &mut end);
                assert_eq!(bits(&end), bits(&work.y_new));
            }
            let falls: Vec<f64> = errors.windows(2).map(|e| e[0] / e[1]).collect();
            assert!(
                falls.iter().all(|&f| f >= 10.0),
                "errors {errors:?}, falls {falls:?}"
            );
        }
    }

    /// L-stability: on `y' = λy` a step of `hλ = −10⁸` damps both the
    /// solution and the embedded one below `10⁻⁶`. The stages run on the
    /// scalar linear problem itself, because a mass-action network's
    /// derivative clamps the negative stage states such a step passes
    /// through.
    #[test]
    fn rodas4_is_l_stable() {
        let z = -1e8;
        let (mut k, mut ytmp, mut y_new) = ([0.0; 6], [0.0], [0.0]);
        rodas4::stages(
            &[1.0],
            &[z],
            &[rodas4::GAMMA],
            &mut k,
            &mut ytmp,
            &mut y_new,
            |x, out| out[0] = z * x[0],
            |b| b[0] /= 1.0 - rodas4::GAMMA * z,
        );
        let (main, embedded) = (y_new[0], ytmp[0]);
        assert!(main.abs() < 1e-6, "|R(−1e8)| = {main:e}");
        assert!(embedded.abs() < 1e-6, "embedded |R(−1e8)| = {embedded:e}");
    }
}
