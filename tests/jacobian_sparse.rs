//! Property tests for the precomputed sparse Jacobian
//! ([`CompiledCrn::jacobian_sparse`]).
//!
//! Two invariants, over random mass-action networks:
//!
//! 1. the CSR-scattered sparse Jacobian agrees with the dense one
//!    **bitwise** (both paths accumulate in the same order),
//! 2. the dense Jacobian agrees with a central difference of
//!    [`CompiledCrn::derivative`] (mass action with per-species order ≤ 2
//!    makes the difference quotient exact up to rounding).

use molseq::crn::{Crn, Rate};
use molseq::kinetics::{CompiledCrn, SimSpec};
use proptest::prelude::*;

/// One sampled reaction: reactant indices/stoichiometries, a product, and
/// the rate category. Indices are reduced modulo the species count when
/// the network is built.
type RawReaction = ((usize, u32), (usize, u32), (usize, u32), bool);

/// Builds a random mass-action CRN from sampled raw reactions, plus a
/// strictly positive state to evaluate it at.
fn build(n: usize, raw: &[RawReaction], amounts: &[f64]) -> (Crn, Vec<f64>) {
    let mut crn = Crn::new();
    let species: Vec<_> = (0..n).map(|i| crn.species(format!("s{i}"))).collect();
    for &((r1, s1), (r2, has2), (p, sp), fast) in raw {
        let a = species[r1 % n];
        let b = species[r2 % n];
        let mut reactants = vec![(a, s1)];
        // a distinct second reactant, order-1, only when sampled and not a
        // duplicate of the first (total order stays ≤ 3)
        if has2 == 1 && b != a {
            reactants.push((b, 1));
        }
        let products = [(species[p % n], sp)];
        let rate = if fast { Rate::Fast } else { Rate::Slow };
        crn.reaction(&reactants, &products, rate).expect("reaction");
    }
    let state: Vec<f64> = (0..n).map(|i| amounts[i % amounts.len()]).collect();
    (crn, state)
}

fn raw_reaction() -> impl Strategy<Value = RawReaction> {
    (
        (0usize..8, 1u32..=2),
        (0usize..8, 0u32..=1),
        (0usize..8, 1u32..=2),
        prop_oneof![Just(true), Just(false)],
    )
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        failure_persistence: None,
        ..ProptestConfig::default()
    })]

    /// The sparse Jacobian scattered onto the CSR pattern is bitwise
    /// identical to the dense assembly.
    #[test]
    fn sparse_jacobian_matches_dense_exactly(
        n in 2usize..7,
        raw in proptest::collection::vec(raw_reaction(), 1..9),
        amounts in proptest::collection::vec(1u32..=500, 2..8),
    ) {
        let amounts: Vec<f64> = amounts.iter().map(|&a| f64::from(a) / 10.0).collect();
        let (crn, x) = build(n, &raw, &amounts);
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());

        let mut dense = vec![0.0; n * n];
        compiled.jacobian(&x, &mut dense);
        let mut vals = vec![0.0; compiled.jacobian_nnz()];
        compiled.jacobian_sparse(&x, &mut vals);
        let mut scattered = vec![0.0; n * n];
        compiled.jacobian_sparse_to_dense(&vals, &mut scattered);

        for (i, (&d, &s)) in dense.iter().zip(&scattered).enumerate() {
            prop_assert!(
                d.to_bits() == s.to_bits(),
                "entry ({}, {}): dense {d:e} != scattered {s:e}", i / n, i % n
            );
        }
        // and every entry outside the pattern is structurally zero
        let (row_ptr, col_idx) = compiled.jacobian_pattern();
        for i in 0..n {
            let cols: Vec<usize> = col_idx[row_ptr[i]..row_ptr[i + 1]].to_vec();
            for j in 0..n {
                if !cols.contains(&j) {
                    prop_assert_eq!(dense[i * n + j], 0.0);
                }
            }
        }
    }

    /// The analytic Jacobian agrees with a central difference of the
    /// derivative kernel.
    #[test]
    fn jacobian_matches_central_difference(
        n in 2usize..6,
        raw in proptest::collection::vec(raw_reaction(), 1..7),
        amounts in proptest::collection::vec(1u32..=500, 2..8),
    ) {
        let amounts: Vec<f64> = amounts.iter().map(|&a| f64::from(a) / 10.0).collect();
        let (crn, x) = build(n, &raw, &amounts);
        let compiled = CompiledCrn::new(&crn, &SimSpec::default());

        let mut jac = vec![0.0; n * n];
        compiled.jacobian(&x, &mut jac);
        let scale = jac.iter().fold(1.0f64, |m, v| m.max(v.abs()));

        let (mut fp, mut fm) = (vec![0.0; n], vec![0.0; n]);
        let mut xp = x.clone();
        for j in 0..n {
            let h = 1e-5 * (1.0 + x[j].abs());
            let saved = xp[j];
            xp[j] = saved + h;
            compiled.derivative(&xp, &mut fp);
            xp[j] = saved - h;
            compiled.derivative(&xp, &mut fm);
            xp[j] = saved;
            for i in 0..n {
                let cd = (fp[i] - fm[i]) / (2.0 * h);
                prop_assert!(
                    (cd - jac[i * n + j]).abs() <= 1e-6 * scale,
                    "d f_{i} / d x_{j}: analytic {} vs central difference {cd}",
                    jac[i * n + j]
                );
            }
        }
    }
}
