//! Table 5 (experiments #27-#46): GOFMM across "architectures".
//!
//! The paper runs ARM, Haswell, Haswell+P100 and KNL nodes; this reproduction
//! runs on one shared-memory machine, so the architecture axis becomes a
//! (threads, precision) sweep — serial vs full-node, f32 vs f64 — with the
//! paper's per-workload budgets and ranks (scaled). GFLOPS are measured from
//! the executed GEMM counts.

use gofmm_bench::harness::{bench_threads, fmt_err, fmt_secs, print_table, scaled, timed};
use gofmm_core::{compress, DistanceMetric, GofmmConfig, TraversalPolicy};
use gofmm_linalg::{DenseMatrix, Scalar};
use gofmm_matrices::{build_matrix, sampled_relative_error, SpdMatrix, TestMatrixId, ZooOptions};

struct Workload {
    id: TestMatrixId,
    n: usize,
    bandwidth: Option<f64>,
    budget: f64,
    leaf: usize,
    rank: usize,
    rhs: usize,
    f32_mode: bool,
}

fn run_case<T: Scalar>(
    k: &(impl SpdMatrix<T> + ?Sized),
    w: &DenseMatrix<T>,
    wl: &Workload,
    threads: usize,
) -> (f64, f64, f64, f64, f64) {
    let cfg = GofmmConfig::default()
        .with_leaf_size(wl.leaf)
        .with_max_rank(wl.rank)
        .with_tolerance(1e-5)
        .with_budget(wl.budget)
        .with_metric(DistanceMetric::Angle)
        .with_policy(TraversalPolicy::DagHeft)
        .with_threads(threads);
    let (comp, t_comp) = timed(|| compress::<T, _>(k, &cfg));
    let comp_gflops = comp.stats.flops as f64 / t_comp.max(1e-9) / 1e9;
    let ((u, estats), t_eval) = timed(|| comp.into_evaluator(k).apply(w).unwrap());
    let eps = sampled_relative_error(k, w, &u, 100, 0);
    let eval_gflops = estats.flops as f64 / t_eval.max(1e-9) / 1e9;
    (eps, t_comp, comp_gflops, t_eval, eval_gflops)
}

fn main() {
    let max_threads = bench_threads();
    let archs: Vec<(String, usize)> = vec![
        ("1-core".to_string(), 1),
        (format!("{}-core", max_threads), max_threads),
    ];
    let workloads = vec![
        Workload {
            id: TestMatrixId::Mnist,
            n: scaled(2048),
            bandwidth: Some(1.0),
            budget: 0.05,
            leaf: 256,
            rank: 128,
            rhs: 256,
            f32_mode: false,
        },
        Workload {
            id: TestMatrixId::Covtype,
            n: scaled(4096),
            bandwidth: Some(0.1),
            budget: 0.12,
            leaf: 256,
            rank: 128,
            rhs: 256,
            f32_mode: false,
        },
        Workload {
            id: TestMatrixId::Higgs,
            n: scaled(4096),
            bandwidth: Some(0.9),
            budget: 0.003,
            leaf: 256,
            rank: 128,
            rhs: 256,
            f32_mode: false,
        },
        Workload {
            id: TestMatrixId::K02,
            n: scaled(4096),
            bandwidth: None,
            budget: 0.03,
            leaf: 256,
            rank: 128,
            rhs: 256,
            f32_mode: true,
        },
        Workload {
            id: TestMatrixId::K15,
            n: scaled(4096),
            bandwidth: None,
            budget: 0.10,
            leaf: 256,
            rank: 128,
            rhs: 256,
            f32_mode: true,
        },
        Workload {
            id: TestMatrixId::G03,
            n: scaled(2048),
            bandwidth: None,
            budget: 0.03,
            leaf: 128,
            rank: 128,
            rhs: 256,
            f32_mode: true,
        },
        Workload {
            id: TestMatrixId::G04,
            n: scaled(2048),
            bandwidth: None,
            budget: 0.03,
            leaf: 256,
            rank: 128,
            rhs: 256,
            f32_mode: true,
        },
    ];

    let mut rows = Vec::new();
    for wl in &workloads {
        let k = build_matrix(
            wl.id,
            &ZooOptions {
                n: wl.n,
                seed: 1,
                bandwidth: wl.bandwidth,
            },
        );
        let kn = k.n();
        for (arch, threads) in &archs {
            let (precision, (eps, t_comp, gf_c, t_eval, gf_e)) = if wl.f32_mode {
                let k32 = gofmm_matrices::CastedSpd::new(&k);
                let w = DenseMatrix::<f32>::from_fn(kn, wl.rhs, |i, j| {
                    (((i + 11 * j) % 41) as f32) / 41.0 - 0.5
                });
                ("f32", run_case::<f32>(&k32, &w, wl, *threads))
            } else {
                let w = DenseMatrix::<f64>::from_fn(kn, wl.rhs, |i, j| {
                    (((i + 11 * j) % 41) as f64) / 41.0 - 0.5
                });
                ("f64", run_case::<f64>(&&k, &w, wl, *threads))
            };
            rows.push(vec![
                wl.id.name().to_string(),
                kn.to_string(),
                format!("{:.1}%", wl.budget * 100.0),
                precision.to_string(),
                arch.clone(),
                fmt_err(eps),
                fmt_secs(t_comp),
                format!("{gf_c:.1}"),
                fmt_secs(t_eval),
                format!("{gf_e:.1}"),
            ]);
        }
    }

    print_table(
        "Table 5: GOFMM across (threads, precision) configurations",
        &[
            "matrix",
            "N",
            "budget",
            "prec",
            "arch",
            "eps2",
            "compress (s)",
            "comp GF/s",
            "setup+apply (s)",
            "setup+apply GF/s",
        ],
        &rows,
    );
    println!("\nexpected shape: multi-core evaluation reaches the highest GFLOPS on high-budget workloads (large GEMMs); tiny-rank workloads (G04) scale poorly, as in the paper.");
}
