//! Quickstart: compress a kernel matrix with GOFMM and compare the approximate
//! matvec against the exact one.
//!
//! Run with: `cargo run --release --example quickstart`

use gofmm_suite::core::{
    accuracy_report, compress, DistanceMetric, Evaluator, GofmmConfig, TraversalPolicy,
};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{sampled_relative_error, KernelMatrix, KernelType, PointCloud};

fn main() {
    // 1. Any SPD matrix that can return entries K_ij works. Here: a Gaussian
    //    kernel matrix over 4096 points in 6 dimensions (the paper's K04).
    let n = 4096;
    let points = PointCloud::uniform(n, 6, 0);
    let kernel = KernelMatrix::new(
        points,
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-5,
        "quickstart",
    );

    // 2. Configure GOFMM: leaf size m, maximum rank s, adaptive tolerance tau,
    //    budget (0 = HSS, >0 = FMM with direct near-field evaluation), and the
    //    geometry-oblivious angle distance.
    let config = GofmmConfig::default()
        .with_leaf_size(256)
        .with_max_rank(128)
        .with_tolerance(1e-5)
        .with_budget(0.03)
        .with_metric(DistanceMetric::Angle)
        .with_policy(TraversalPolicy::DagHeft);

    // 3. Compress: O(N log N) work and storage.
    let compressed = compress::<f64, _>(&kernel, &config);
    println!(
        "compressed {n}x{n} matrix in {:.2}s (avg rank {:.1}, {:.1} MB of bases)",
        compressed.stats.total_time,
        compressed.average_rank(),
        compressed.memory_bytes() as f64 / 1e6
    );

    // 4. Build a persistent evaluator once: it packs every near/far
    //    interaction block and the task DAG, so each subsequent apply touches
    //    the kernel zero times. This is the amortized path for solvers and
    //    services that issue many matvecs against one compression.
    let evaluator = Evaluator::new(&kernel, &compressed);
    println!(
        "evaluator setup: {:.3}s ({:.1} MB of packed blocks, paid once)",
        evaluator.setup_time(),
        evaluator.cached_bytes() as f64 / 1e6
    );

    // 5. Evaluate u = K w for 128 right-hand sides — twice, to show the
    //    steady-state cost. Both applies give the same bits.
    let w = DenseMatrix::<f64>::from_fn(n, 128, |i, j| ((i * 7 + j * 13) % 32) as f64 / 32.0 - 0.5);
    let (u, eval_stats) = evaluator.apply(&w).expect("matching dimensions");
    println!(
        "evaluation #1: {:.3}s ({:.1} GFLOP/s)",
        eval_stats.time,
        eval_stats.gflops()
    );
    let (u_again, eval_stats2) = evaluator.apply(&w).expect("matching dimensions");
    println!(
        "evaluation #2 (recycled buffers, cached DAG): {:.3}s ({:.1} GFLOP/s)",
        eval_stats2.time,
        eval_stats2.gflops()
    );
    assert_eq!(
        u.data(),
        u_again.data(),
        "repeated applies must be bit-identical"
    );

    // 6. Measure the relative error epsilon_2 on 100 sampled rows, exactly as
    //    the paper reports it, plus the artifact-style per-entry report
    //    (error of the first 10 entries and the average of 100 entries).
    let eps2 = sampled_relative_error(&kernel, &w, &u, 100, 0);
    println!("sampled relative error epsilon_2 = {eps2:.3e}");
    let report = accuracy_report(&kernel, &w, &u, 10, 100, 0);
    println!("artifact-style report: {report}");

    // 7. The same matvec done densely costs O(N^2 r); show the ratio of stored
    //    values (bases plus packed blocks) to give a feel for the compression.
    let dense_entries = (n as f64) * (n as f64);
    let compressed_bytes = compressed.memory_bytes() + evaluator.cached_bytes();
    let compressed_entries = compressed_bytes as f64 / 8.0;
    println!(
        "storage ratio vs dense: {:.1}x smaller",
        dense_entries / compressed_entries
    );
    assert!(eps2 < 1e-2, "accuracy regression in quickstart example");
}
