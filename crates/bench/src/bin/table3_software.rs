//! Table 3 (experiments #13-#18): wall-clock and accuracy comparison between
//! HODLR, STRUMPACK-style HSS and GOFMM on K02, K04, K07, K12, K17 and G03.

use gofmm_baselines::{Hodlr, HodlrConfig, HssConfig, HssMatrix};
use gofmm_bench::harness::{bench_threads, fmt_err, fmt_secs, print_table, scaled, timed};
use gofmm_core::{compress, DistanceMetric, GofmmConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{build_matrix, sampled_relative_error, SpdMatrix, TestMatrixId, ZooOptions};

fn main() {
    let threads = bench_threads();
    let n = scaled(2048);
    let r = 256;
    let m = 128;
    let rank = 128;
    let tol = 1e-5;
    let matrices = [
        TestMatrixId::K02,
        TestMatrixId::K04,
        TestMatrixId::K07,
        TestMatrixId::K12,
        TestMatrixId::K17,
        TestMatrixId::G03,
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
        let w = DenseMatrix::<f64>::from_fn(kn, r, |i, j| (((i + 7 * j) % 29) as f64) / 29.0 - 0.5);

        // HODLR: lexicographic + ACA.
        let (hodlr, t_hodlr_c) = timed(|| {
            Hodlr::<f64>::compress(
                &k,
                &HodlrConfig {
                    leaf_size: m,
                    max_rank: rank,
                    tolerance: tol,
                },
            )
        });
        let (u_hodlr, t_hodlr_e) = timed(|| hodlr.matvec(&w));
        let e_hodlr = sampled_relative_error(&k, &w, &u_hodlr, 100, 0);

        // STRUMPACK-style HSS: lexicographic + exhaustive sampling, no S.
        let (hss, t_hss_c) = timed(|| {
            HssMatrix::<f64>::compress(
                &k,
                &HssConfig {
                    leaf_size: m,
                    max_rank: rank,
                    tolerance: tol,
                    sample_rows: 0, // full sampling: the O(N^2) black-box route
                    num_threads: threads,
                },
            )
        });
        let (u_hss, t_hss_e) = timed(|| hss.matvec(&k, &w));
        let e_hss = sampled_relative_error(&k, &w, &u_hss, 100, 0);

        // GOFMM: angle distance, 3% budget.
        let cfg = GofmmConfig::default()
            .with_leaf_size(m)
            .with_max_rank(rank)
            .with_tolerance(tol)
            .with_budget(0.03)
            .with_metric(DistanceMetric::Angle)
            .with_policy(TraversalPolicy::DagHeft)
            .with_threads(threads);
        let (comp, t_gofmm_c) = timed(|| compress::<f64, _>(&k, &cfg));
        let ((u_gofmm, _), t_gofmm_e) = timed(|| comp.into_evaluator(&k).apply(&w).unwrap());
        let e_gofmm = sampled_relative_error(&k, &w, &u_gofmm, 100, 0);

        rows.push(vec![
            id.name().to_string(),
            fmt_err(e_hodlr),
            fmt_secs(t_hodlr_c),
            fmt_secs(t_hodlr_e),
            fmt_err(e_hss),
            fmt_secs(t_hss_c),
            fmt_secs(t_hss_e),
            fmt_err(e_gofmm),
            fmt_secs(t_gofmm_c),
            fmt_secs(t_gofmm_e),
        ]);
    }

    print_table(
        "Table 3: HODLR vs STRUMPACK-style HSS vs GOFMM",
        &[
            "matrix",
            "HODLR eps2",
            "HODLR comp",
            "HODLR eval",
            "HSS eps2",
            "HSS comp",
            "HSS setup+apply",
            "GOFMM eps2",
            "GOFMM comp",
            "GOFMM setup+apply",
        ],
        &rows,
    );
    println!("\nexpected shape: comparable accuracy on K02/K12; GOFMM wins on K04/K07 (permutation matters) and on G03 (sparse correction matters); K17 is hard for everyone.");
}
