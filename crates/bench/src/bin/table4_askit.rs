//! Table 4 (experiments #19-#26): GOFMM vs the ASKIT-style treecode on the
//! Gaussian kernel matrices K04 (compressible) and K06 (high rank), two sizes
//! and two tolerances, single right-hand side, geometric distances for both.

use gofmm_baselines::{AskitConfig, AskitMatrix};
use gofmm_bench::harness::{bench_threads, fmt_err, fmt_secs, print_table, scaled, timed};
use gofmm_core::{compress, DistanceMetric, GofmmConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{build_matrix, sampled_relative_error, SpdMatrix, TestMatrixId, ZooOptions};

fn main() {
    let threads = bench_threads();
    let sizes = [scaled(2048), scaled(4096)];
    let tolerances = [1e-3, 1e-6];
    let matrices = [TestMatrixId::K04, TestMatrixId::K06];
    let m = 256;
    let s = 256;
    let kappa = 32;

    let mut rows = Vec::new();
    let mut case = 19;
    for id in matrices {
        for &n in &sizes {
            for &tau in &tolerances {
                let k = build_matrix(
                    id,
                    &ZooOptions {
                        n,
                        seed: 1,
                        bandwidth: None,
                    },
                );
                let kn = k.n();
                let w_vec: Vec<f64> = (0..kn).map(|i| ((i % 31) as f64) / 31.0 - 0.5).collect();
                let w_mat = DenseMatrix::from_vec(kn, 1, w_vec.clone());

                // ASKIT-style: level-by-level, geometric, kappa-driven.
                let (askit, t_askit_c) = timed(|| {
                    AskitMatrix::<f64>::compress(
                        &k,
                        &AskitConfig {
                            leaf_size: m,
                            max_rank: s,
                            tolerance: tau,
                            neighbors: kappa,
                            num_threads: threads,
                            seed: 0,
                        },
                    )
                });
                let (u_askit, t_askit_e) = timed(|| askit.matvec_single(&k, &w_vec));
                let u_askit_mat = DenseMatrix::from_vec(kn, 1, u_askit);
                let e_askit = sampled_relative_error(&k, &w_mat, &u_askit_mat, 100, 0);

                // GOFMM: geometric distance, out-of-order runtime, 7% budget.
                let cfg = GofmmConfig::default()
                    .with_leaf_size(m)
                    .with_max_rank(s)
                    .with_tolerance(tau)
                    .with_budget(0.07)
                    .with_metric(DistanceMetric::Geometric)
                    .with_policy(TraversalPolicy::DagHeft)
                    .with_threads(threads);
                let (comp, t_gofmm_c) = timed(|| compress::<f64, _>(&k, &cfg));
                let ((u_gofmm, _), t_gofmm_e) =
                    timed(|| comp.into_evaluator(&k).apply(&w_mat).unwrap());
                let e_gofmm = sampled_relative_error(&k, &w_mat, &u_gofmm, 100, 0);

                rows.push(vec![
                    format!("#{case}"),
                    id.name().to_string(),
                    kn.to_string(),
                    format!("{tau:.0e}"),
                    fmt_err(e_askit),
                    fmt_secs(t_askit_c),
                    fmt_secs(t_askit_e),
                    fmt_err(e_gofmm),
                    fmt_secs(t_gofmm_c),
                    fmt_secs(t_gofmm_e),
                ]);
                case += 1;
            }
        }
    }

    print_table(
        "Table 4: ASKIT-style treecode vs GOFMM (r = 1, geometric distances)",
        &[
            "#",
            "matrix",
            "N",
            "tau",
            "ASKIT eps2",
            "ASKIT comp",
            "ASKIT setup+apply",
            "GOFMM eps2",
            "GOFMM comp",
            "GOFMM setup+apply",
        ],
        &rows,
    );
    println!("\nexpected shape: similar accuracy; GOFMM compresses faster on K06 (out-of-order traversal) — up to ~2x in the paper.");
}
