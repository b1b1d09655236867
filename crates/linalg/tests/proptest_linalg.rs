//! Property-based tests for the dense linear-algebra substrate.

use gofmm_linalg::{
    id_reconstruct, interpolative_decomposition, matmul, matmul_nt, matmul_tn, pivoted_qr,
    trsm_left, Cholesky, DenseMatrix, PivotedQr, QrFactors, QrOptions, Triangle,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Strategy: a random matrix with dimensions in [1, 24] and entries in [-1, 1].
fn arb_matrix(max_dim: usize) -> impl Strategy<Value = DenseMatrix<f64>> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(r, c)| {
        prop::collection::vec(-1.0f64..1.0, r * c)
            .prop_map(move |data| DenseMatrix::from_vec(r, c, data))
    })
}

/// Strategy: an SPD matrix A = G G^T + n I.
fn arb_spd(max_dim: usize) -> impl Strategy<Value = DenseMatrix<f64>> {
    (2..=max_dim).prop_flat_map(|n| {
        prop::collection::vec(-1.0f64..1.0, n * n).prop_map(move |data| {
            let g = DenseMatrix::from_vec(n, n, data);
            let mut a = matmul_nt(&g, &g);
            for i in 0..n {
                a[(i, i)] += n as f64;
            }
            a.symmetrize();
            a
        })
    })
}

/// Strategy: a panel of the kind the tuner and the ID factor — tall or wide
/// (each side in [1, 40]), a sum of `terms` random rank-one terms with
/// geometrically decaying weights (rank-deficient whenever `terms` is below
/// the smaller side, so a tolerance ladder crosses many ranks), with up to
/// three columns zeroed and up to three copied over others (pivot ties), and
/// for half the seeds rounded through `f32` as a mixed-precision panel is.
fn arb_panel() -> impl Strategy<Value = DenseMatrix<f64>> {
    (
        (1usize..=40, 1usize..=40),
        (0usize..=14, 0.05f64..0.9),
        0u64..u64::MAX,
    )
        .prop_map(|((rows, cols), (terms, decay), seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut u = DenseMatrix::<f64>::random_gaussian(rows, terms, &mut rng);
            for t in 0..terms {
                let w = decay.powi(t as i32);
                u.col_mut(t).iter_mut().for_each(|x| *x *= w);
            }
            let v = DenseMatrix::<f64>::random_gaussian(cols, terms, &mut rng);
            let mut a = if terms == 0 {
                DenseMatrix::zeros(rows, cols)
            } else {
                matmul_nt(&u, &v)
            };
            for _ in 0..rng.gen_range(0usize..4) {
                let j = rng.gen_range(0..cols);
                a.col_mut(j).fill(0.0);
            }
            for _ in 0..rng.gen_range(0usize..4) {
                let (from, to) = (rng.gen_range(0..cols), rng.gen_range(0..cols));
                let col = a.col(from).to_vec();
                a.col_mut(to).copy_from_slice(&col);
            }
            if rng.gen::<bool>() {
                a = a.cast::<f32>().cast();
            }
            a
        })
}

fn bits(m: &DenseMatrix<f64>) -> Vec<u64> {
    m.data().iter().map(|v| v.to_bits()).collect()
}

/// `R` of a fresh factorization in the original column order.
fn unpivoted_r(qr: &QrFactors<f64>) -> DenseMatrix<f64> {
    let r = qr.r();
    let mut out = DenseMatrix::zeros(r.rows(), r.cols());
    for (j, &dst) in qr.pivots().iter().enumerate() {
        for i in 0..r.rows() {
            out.set(i, dst, r.get(i, j));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One factorization advanced down the tuner's tolerance ladder
    /// `0.25 * 0.5^k`, ending at `rel_tol = 0`, with a random rank cap and
    /// absolute tolerance on some rungs (the ID's stops; a cap below the
    /// steps already taken reads the rank back without a step): at every
    /// rung the rank, the leading pivots and the truncation equal those of
    /// a fresh `pivoted_qr` under the same options, bit for bit.
    #[test]
    fn resumed_pivoted_qr_matches_a_fresh_run_at_every_rung(
        a in arb_panel(),
        caps in prop::collection::vec(0usize..64, 26),
        abs in prop::collection::vec(0usize..12, 26),
    ) {
        let mut resumed = PivotedQr::new(a.clone());
        for (rung, (&cap, &abs)) in caps.iter().zip(&abs).enumerate() {
            let rel_tol = if rung + 1 == caps.len() { 0.0 } else { 0.25 * 0.5f64.powi(rung as i32) };
            let opts = QrOptions {
                max_rank: if cap < 40 { cap } else { usize::MAX },
                rel_tol,
                abs_tol: [1e-1, 1e-3, 1e-6].get(abs).copied().unwrap_or(0.0),
            };
            let fresh = pivoted_qr(&a, opts);
            let k = resumed.advance(opts);
            prop_assert_eq!(k, fresh.rank(), "rung {}: {:?}", rung, opts);
            prop_assert_eq!(&resumed.pivots()[..k], &fresh.pivots()[..k], "rung {}", rung);
            let lr = resumed.truncation(k);
            prop_assert_eq!(bits(&lr.left), bits(&fresh.q_thin()), "rung {}: left", rung);
            prop_assert_eq!(bits(&lr.right), bits(&unpivoted_r(&fresh)), "rung {}: right", rung);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn gemm_is_associative_with_identity(a in arb_matrix(20)) {
        let eye = DenseMatrix::<f64>::identity(a.cols());
        let prod = matmul(&a, &eye);
        prop_assert!(prod.sub(&a).norm_max() < 1e-12);
        let eye_l = DenseMatrix::<f64>::identity(a.rows());
        let prod_l = matmul(&eye_l, &a);
        prop_assert!(prod_l.sub(&a).norm_max() < 1e-12);
    }

    #[test]
    fn transpose_of_product_is_product_of_transposes(a in arb_matrix(16), b_cols in 1usize..12) {
        let b = DenseMatrix::<f64>::from_fn(a.cols(), b_cols, |i, j| ((i * 7 + j * 3) % 5) as f64 - 2.0);
        let ab_t = matmul(&a, &b).transpose();
        let bt_at = matmul(&b.transpose(), &a.transpose());
        prop_assert!(ab_t.sub(&bt_at).norm_max() < 1e-10);
    }

    #[test]
    fn gemm_tn_nt_consistency(a in arb_matrix(16)) {
        // A^T A computed two ways.
        let g1 = matmul_tn(&a, &a);
        let g2 = matmul(&a.transpose(), &a);
        prop_assert!(g1.sub(&g2).norm_max() < 1e-12);
        let h1 = matmul_nt(&a, &a);
        let h2 = matmul(&a, &a.transpose());
        prop_assert!(h1.sub(&h2).norm_max() < 1e-12);
    }

    #[test]
    fn pivoted_qr_reconstructs_any_matrix(a in arb_matrix(18)) {
        let qr = pivoted_qr(&a, QrOptions::default());
        let recon = qr.reconstruct_pivoted();
        let ap = a.select_cols(qr.pivots());
        prop_assert!(recon.sub(&ap).norm_max() < 1e-9);
    }

    #[test]
    fn qr_q_columns_are_orthonormal(a in arb_matrix(18)) {
        let qr = pivoted_qr(&a, QrOptions::default());
        let q = qr.q_thin();
        let qtq = matmul_tn(&q, &q);
        let eye = DenseMatrix::<f64>::identity(q.cols());
        prop_assert!(qtq.sub(&eye).norm_max() < 1e-9);
    }

    #[test]
    fn cholesky_solve_is_inverse_application(a in arb_spd(14)) {
        let n = a.rows();
        let b = DenseMatrix::<f64>::from_fn(n, 2, |i, j| ((i + j) % 3) as f64 - 1.0);
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&b);
        let back = matmul(&a, &x);
        prop_assert!(back.sub(&b).norm_max() < 1e-6);
    }

    #[test]
    fn cholesky_diag_positive(a in arb_spd(14)) {
        let ch = Cholesky::factor(&a).unwrap();
        for i in 0..a.rows() {
            prop_assert!(ch.l()[(i, i)] > 0.0);
        }
    }

    #[test]
    fn id_full_rank_is_exact(a in arb_matrix(14)) {
        let id = interpolative_decomposition(&a, a.cols(), 0.0);
        let recon = id_reconstruct(&a, &id);
        prop_assert!(recon.sub(&a).norm_max() < 1e-8);
    }

    #[test]
    fn id_skeleton_indices_unique_and_in_range(a in arb_matrix(16)) {
        let id = interpolative_decomposition(&a, 8, 1e-10);
        let mut seen = std::collections::HashSet::new();
        for &s in &id.skeleton {
            prop_assert!(s < a.cols());
            prop_assert!(seen.insert(s), "duplicate skeleton column {s}");
        }
    }

    #[test]
    fn trsm_upper_solves(n in 2usize..12, ncols in 1usize..4) {
        // Build a well-conditioned upper-triangular matrix.
        let u = DenseMatrix::<f64>::from_fn(n, n, |i, j| {
            if j > i { 0.3 * ((i * j + 1) % 4) as f64 } else if j == i { 2.0 + i as f64 * 0.1 } else { 0.0 }
        });
        let x = DenseMatrix::<f64>::from_fn(n, ncols, |i, j| (i + 2 * j) as f64 * 0.2 - 0.5);
        let b = matmul(&u, &x);
        let mut sol = b.clone();
        trsm_left(Triangle::Upper, false, &u, &mut sol);
        prop_assert!(sol.sub(&x).norm_max() < 1e-9);
    }

    #[test]
    fn frobenius_norm_triangle_inequality(a in arb_matrix(12)) {
        let b = DenseMatrix::<f64>::from_fn(a.rows(), a.cols(), |i, j| ((i + j) % 7) as f64 * 0.1);
        let sum = a.add(&b);
        prop_assert!(sum.norm_fro() <= a.norm_fro() + b.norm_fro() + 1e-12);
    }
}
