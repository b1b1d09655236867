//! Solver quickstart: compress a kernel matrix, factor the regularized
//! hierarchical operator, and solve `(K + lambda I) x = b` with
//! preconditioned CG — the paper's headline use case.
//!
//! Run with: `cargo run --release --example solve`

use gofmm_suite::core::{compress, Evaluator, GofmmConfig, TraversalPolicy};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_suite::solver::{cg, HierarchicalFactor, IdentityPreconditioner, KrylovOptions, Shifted};

fn main() {
    // 1. An ill-conditioned SPD system: Gaussian kernel over 4096 points,
    //    regularized by lambda = 1e-2 (condition number ~ ||K|| / lambda).
    let n = 4096;
    let lambda = 1e-2;
    let kernel = KernelMatrix::new(
        PointCloud::uniform(n, 3, 7),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "solve-example",
    );

    // 2. Compress once (pure HSS so the factorization covers the whole
    //    operator), then build the two persistent engines: the evaluator
    //    (kernel-free matvecs) and the hierarchical factorization
    //    (kernel-free preconditioner solves).
    let config = GofmmConfig::default()
        .with_leaf_size(128)
        .with_max_rank(96)
        .with_tolerance(1e-10)
        .with_budget(0.0)
        .with_policy(TraversalPolicy::DagHeft);
    let compressed = compress::<f64, _>(&kernel, &config);
    println!(
        "compressed {n}x{n} kernel in {:.2}s (avg rank {:.1})",
        compressed.stats.total_time,
        compressed.average_rank()
    );
    let evaluator = Evaluator::new(&kernel, &compressed);
    let factor = HierarchicalFactor::new(&kernel, &compressed, lambda)
        .expect("regularized kernel system must factor");
    println!(
        "hierarchical factorization: {:.3}s setup, {:.1} MB",
        factor.stats().setup_time,
        factor.stats().bytes as f64 / 1e6
    );

    // 3. Solve (K + lambda I) x = b, with and without the preconditioner.
    let b = DenseMatrix::<f64>::from_fn(n, 1, |i, _| ((i * 7919 % 101) as f64) / 50.0 - 1.0);
    let opts = KrylovOptions {
        tol: 1e-10,
        max_iters: 600,
        ..KrylovOptions::default()
    };
    let op = Shifted::new(&evaluator, lambda);

    let (_, plain) = cg(&op, &IdentityPreconditioner, &b, &opts).expect("well-formed system");
    println!(
        "unpreconditioned CG : {:>4} iterations, {:.2}s, residual {:.2e}",
        plain.iterations, plain.solve_time, plain.relative_residual
    );

    let (x, pre) = cg(&op, &factor, &b, &opts).expect("well-formed system");
    println!(
        "preconditioned CG   : {:>4} iterations, {:.2}s, residual {:.2e}",
        pre.iterations, pre.solve_time, pre.relative_residual
    );
    println!(
        "speedup: {:.0}x fewer iterations; first residuals {:?}",
        plain.iterations as f64 / pre.iterations.max(1) as f64,
        &pre.residual_history[..pre.residual_history.len().min(4)]
    );

    assert!(pre.converged && plain.converged, "solver regression");
    assert!(
        pre.iterations * 5 <= plain.iterations,
        "preconditioner regression"
    );
    let _ = x;
}
