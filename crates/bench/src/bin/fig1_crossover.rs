//! Figure 1: dense SGEMM O(N^2) vs GOFMM compression O(N log N) vs GOFMM
//! evaluation O(N) on the K02 operator, in single precision.
//!
//! The paper reports the crossover point (including compression time) and an
//! 18x speedup at its largest size; at our scaled-down sizes the point of the
//! figure is the *scaling shape*: SGEMM time grows ~4x per N doubling, GOFMM
//! evaluation grows ~2x.

use gofmm_bench::harness::{
    bench_threads, fmt_err, fmt_secs, parallel_matmul, print_table, scaled, timed,
};
use gofmm_core::{compress, DistanceMetric, Evaluator, GofmmConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{sampled_relative_error, spectral, DenseSpd, PointCloud};

fn main() {
    let threads = bench_threads();
    let sides = [scaled(32), scaled(48), scaled(64), scaled(80)];
    let rhs_counts = [128usize, 256, 512];
    let mut rows = Vec::new();

    for &side in &sides {
        let n = side * side;
        // Build the K02 analogue in f64, cast to f32 (the paper runs K02 in
        // single precision).
        let k64 = spectral::inverse_laplacian_squared_2d(side, side, 1.0);
        let k32: DenseSpd<f32> = DenseSpd::new(k64.dense().cast(), format!("K02(N={n})"))
            .with_coords(PointCloud::grid2d(side, side));

        let config = GofmmConfig::default()
            .with_leaf_size(256.min(n / 4).max(32))
            .with_max_rank(128)
            .with_tolerance(1e-4)
            .with_budget(0.03)
            .with_metric(DistanceMetric::Angle)
            .with_policy(TraversalPolicy::DagHeft)
            .with_threads(threads);
        let (comp, t_compress) = timed(|| compress::<f32, _>(&k32, &config));

        for &r in &rhs_counts {
            let w = DenseMatrix::<f32>::from_fn(n, r, |i, j| {
                (((i * 7 + j * 3) % 17) as f32) / 17.0 - 0.5
            });
            // Dense reference: K * W with the parallel blocked GEMM.
            let (dense_u, t_dense) = timed(|| parallel_matmul(k32.dense(), &w, threads));
            // GOFMM evaluation: evaluator construction plus one apply.
            let ((u, _), t_eval) = timed(|| Evaluator::new(&k32, &comp).apply(&w).unwrap());
            let eps = sampled_relative_error(&k32, &w, &u, 100, 0);
            let _ = dense_u;
            rows.push(vec![
                n.to_string(),
                r.to_string(),
                fmt_secs(t_dense),
                fmt_secs(t_compress),
                fmt_secs(t_eval),
                fmt_secs(t_compress + t_eval),
                format!("{:.1}", t_dense / t_eval),
                fmt_err(eps),
            ]);
        }
    }

    print_table(
        "Figure 1: SGEMM vs GOFMM on K02 (single precision)",
        &[
            "N",
            "r",
            "dense GEMM (s)",
            "compress (s)",
            "setup+apply (s)",
            "comp+eval (s)",
            "eval speedup",
            "eps2",
        ],
        &rows,
    );
    println!("\ncrossover: the first N where comp+eval < dense GEMM; eval speedup shows the O(N) vs O(N^2) gap.");
}
