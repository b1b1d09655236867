//! Figure 7 (experiments #9-#12): effect of the partitioning scheme —
//! lexicographic, random, kernel (Gram-l2), angle, and geometric — on accuracy
//! and average skeleton rank.

use gofmm_bench::harness::{bench_threads, fmt_err, print_table, scaled, timed};
use gofmm_core::{compress, DistanceMetric, GofmmConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{build_matrix, sampled_relative_error, SpdMatrix, TestMatrixId, ZooOptions};

fn main() {
    let threads = bench_threads();
    let n = scaled(2048);
    // Paper panels: #9 K02, #10 K04, #11 K12, #12 G03 (no coordinates).
    let matrices = [
        TestMatrixId::K02,
        TestMatrixId::K04,
        TestMatrixId::K12,
        TestMatrixId::G03,
    ];
    let schemes = [
        DistanceMetric::Lexicographic,
        DistanceMetric::Random,
        DistanceMetric::Kernel,
        DistanceMetric::Angle,
        DistanceMetric::Geometric,
    ];

    let mut rows = Vec::new();
    for id in matrices {
        let k = build_matrix(
            id,
            &ZooOptions {
                n,
                seed: 1,
                bandwidth: None,
            },
        );
        let kn = k.n();
        let w =
            DenseMatrix::<f64>::from_fn(kn, 64, |i, j| (((i * 7 + j) % 23) as f64) / 23.0 - 0.5);
        for metric in schemes {
            if metric == DistanceMetric::Geometric && k.coords().is_none() {
                rows.push(vec![
                    id.name().to_string(),
                    metric.to_string(),
                    "n/a (no coordinates)".to_string(),
                    "-".to_string(),
                ]);
                continue;
            }
            // Distance-free schemes can only do HSS; distance-based schemes
            // use kappa = 32 and 3% budget (paper settings: tau 1e-7, s 512,
            // m 64 — rank scaled down with N).
            let budget = if metric.has_distance() { 0.03 } else { 0.0 };
            let cfg = GofmmConfig::default()
                .with_leaf_size(64)
                .with_max_rank(128)
                .with_tolerance(1e-7)
                .with_budget(budget)
                .with_metric(metric)
                .with_policy(TraversalPolicy::DagHeft)
                .with_threads(threads);
            let (comp, _t) = timed(|| compress::<f64, _>(&k, &cfg));
            let rank = comp.average_rank();
            let (u, _) = comp.into_evaluator(&k).apply(&w).unwrap();
            let eps = sampled_relative_error(&k, &w, &u, 100, 0);
            rows.push(vec![
                id.name().to_string(),
                metric.to_string(),
                fmt_err(eps),
                format!("{rank:.1}"),
            ]);
        }
    }

    print_table(
        "Figure 7: partitioning scheme comparison (eps2 and average rank)",
        &["matrix", "scheme", "eps2", "avg rank"],
        &rows,
    );
    println!("\nexpected shape: matrix-defined Gram distances (kernel/angle) match the geometric reference and beat lexicographic/random, especially on K04 and G03.");
}
