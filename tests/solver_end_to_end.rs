//! Workspace-level solver integration: the full build → compress → factor →
//! solve pipeline through the umbrella crate, on a zoo matrix rather than a
//! synthetic kernel.

use gofmm_suite::core::{compress, Evaluator, GofmmConfig, TraversalPolicy};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{build_matrix, TestMatrixId, ZooOptions};
use gofmm_suite::solver::{
    cg, GofmmOperator, HierarchicalFactor, KrylovOptions, LinearOperator, Shifted,
};

#[test]
fn kernel_regression_pipeline_solves_covtype_like_system() {
    // A COVTYPE-like Gaussian kernel ridge system (K + lambda I) w = y:
    // exactly the workload the paper motivates the solver with.
    let n = 1024;
    let lambda = 1e-2;
    let k = build_matrix(
        TestMatrixId::Covtype,
        &ZooOptions {
            n,
            seed: 5,
            bandwidth: None,
        },
    );
    let cfg = GofmmConfig::default()
        .with_leaf_size(64)
        .with_max_rank(64)
        .with_tolerance(1e-9)
        .with_budget(0.0)
        .with_threads(2)
        .with_policy(TraversalPolicy::DagHeft);
    let op = GofmmOperator::<f64>::builder(&k)
        .config(cfg)
        .factorize(lambda)
        .build()
        .expect("ridge system must factor");
    let y = DenseMatrix::<f64>::from_fn(n, 1, |i, _| if i % 3 == 0 { 1.0 } else { -1.0 });
    let (w, stats) = op
        .solve_cg(&y, &KrylovOptions::default())
        .expect("ridge system must solve");
    assert!(stats.converged, "residual {:.3e}", stats.relative_residual);
    assert!(stats.iterations <= 30, "iterations {}", stats.iterations);

    // Verify against the operator that was actually solved.
    let shifted = Shifted::new(op.evaluator(), lambda);
    let resid = shifted.matvec(&w).sub(&y).norm_fro() / y.norm_fro();
    assert!(resid <= 1e-9, "true residual {resid:.3e}");
}

#[test]
fn multi_rhs_solve_shares_iterations_across_columns() {
    let n = 512;
    let lambda = 5e-2;
    let k = build_matrix(
        TestMatrixId::K04,
        &ZooOptions {
            n,
            seed: 9,
            bandwidth: None,
        },
    );
    let cfg = GofmmConfig::default()
        .with_leaf_size(64)
        .with_max_rank(48)
        .with_tolerance(1e-9)
        .with_budget(0.0)
        .with_threads(2)
        .with_policy(TraversalPolicy::Sequential);
    let comp = compress::<f64, _>(&k, &cfg);
    let ev = Evaluator::new(&k, &comp);
    let factor = HierarchicalFactor::new(&k, &comp, lambda).unwrap();
    let b = DenseMatrix::<f64>::from_fn(n, 4, |i, j| ((i * (j + 2) % 19) as f64) / 9.0 - 1.0);
    let op = Shifted::new(&ev, lambda);
    let (x, stats) = cg(&op, &factor, &b, &KrylovOptions::default()).unwrap();
    assert!(stats.converged);
    assert_eq!(x.cols(), 4);
    // Batched CG: one matvec per iteration regardless of the column count.
    assert_eq!(stats.matvecs, stats.iterations);
}
