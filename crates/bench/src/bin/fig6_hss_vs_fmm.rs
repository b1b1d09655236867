//! Figure 6 (experiments #6-#8): HSS (budget 0) vs FMM (budget > 0) — for the
//! same accuracy, adding a small amount of direct evaluation is cheaper than
//! growing the off-diagonal rank.

use gofmm_bench::harness::{bench_threads, fmt_err, fmt_secs, print_table, scaled, timed};
use gofmm_core::{compress, DistanceMetric, GofmmConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{build_matrix, sampled_relative_error, SpdMatrix, TestMatrixId, ZooOptions};

fn main() {
    let threads = bench_threads();
    let n = scaled(4096);
    let r = 256;
    // (#6) K02 m=512, (#7) K15 m=512, (#8) COVTYPE m=800 in the paper; we keep
    // the same matrices with scaled leaf sizes.
    let panels = [
        (TestMatrixId::K02, 256usize, None),
        (TestMatrixId::K15, 256, None),
        (TestMatrixId::Covtype, 256, Some(0.1)),
    ];
    // Configurations swept per panel: HSS with growing rank, FMM with a small
    // rank plus growing budget.
    let sweeps: Vec<(&str, usize, f64)> = vec![
        ("HSS", 64, 0.0),
        ("HSS", 128, 0.0),
        ("HSS", 256, 0.0),
        ("FMM", 64, 0.01),
        ("FMM", 64, 0.03),
        ("FMM", 64, 0.10),
        ("FMM", 128, 0.03),
    ];

    let mut rows = Vec::new();
    for (id, m, bandwidth) in panels {
        let k = build_matrix(
            id,
            &ZooOptions {
                n,
                seed: 1,
                bandwidth,
            },
        );
        let kn = k.n();
        let w = DenseMatrix::<f64>::from_fn(kn, r, |i, j| (((i * 3 + j) % 19) as f64) / 19.0 - 0.5);
        for (mode, rank, budget) in &sweeps {
            let cfg = GofmmConfig::default()
                .with_leaf_size(m)
                .with_max_rank(*rank)
                .with_tolerance(0.0)
                .with_budget(*budget)
                .with_metric(DistanceMetric::Angle)
                .with_policy(TraversalPolicy::DagHeft)
                .with_threads(threads);
            let (comp, t_comp) = timed(|| compress::<f64, _>(&k, &cfg));
            let ((u, _), t_eval) = timed(|| comp.into_evaluator(&k).apply(&w).unwrap());
            let eps = sampled_relative_error(&k, &w, &u, 100, 0);
            rows.push(vec![
                id.name().to_string(),
                mode.to_string(),
                rank.to_string(),
                format!("{:.0}%", budget * 100.0),
                fmt_err(eps),
                fmt_secs(t_comp),
                fmt_secs(t_eval),
                fmt_secs(t_comp + t_eval),
            ]);
        }
    }

    print_table(
        "Figure 6: HSS (budget 0) vs FMM (rank + direct evaluation)",
        &[
            "matrix",
            "mode",
            "rank s",
            "budget",
            "eps2",
            "compress (s)",
            "setup+apply (s)",
            "total (s)",
        ],
        &rows,
    );
    println!("\nexpected shape: at matched accuracy, FMM rows (small rank + budget) finish faster than the HSS rows that need large rank.");
}
