//! Figure 4: strong scaling of compression and evaluation under three
//! scheduling schemes (level-by-level, FIFO task pool = "omp task", and the
//! HEFT DAG runtime), on a COVTYPE-like kernel matrix (#1/#2) and on K02
//! (#3/#4).

use gofmm_bench::harness::{bench_threads, fmt_err, fmt_secs, print_table, scaled, timed};
use gofmm_core::{compress, DistanceMetric, Evaluator, GofmmConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{build_matrix, sampled_relative_error, SpdMatrix, TestMatrixId, ZooOptions};

fn main() {
    let max_threads = bench_threads();
    let mut thread_counts = vec![1usize, 2, 4, 8, 16, 24];
    thread_counts.retain(|&t| t <= max_threads);
    if !thread_counts.contains(&max_threads) {
        thread_counts.push(max_threads);
    }
    let policies = [
        TraversalPolicy::LevelByLevel,
        TraversalPolicy::DagFifo,
        TraversalPolicy::DagHeft,
    ];
    let n = scaled(4096);
    let r = 256;

    // (#1,#2): COVTYPE-like Gaussian kernel, 12% budget. (#3,#4): K02, 3% budget.
    let workloads = [
        (
            TestMatrixId::Covtype,
            0.12,
            Some(0.1),
            "COVTYPE-like h=0.1, 12% budget",
        ),
        (TestMatrixId::K02, 0.03, None, "K02, 3% budget"),
    ];

    let mut rows = Vec::new();
    for (id, budget, bandwidth, label) in workloads {
        let k = build_matrix(
            id,
            &ZooOptions {
                n,
                seed: 1,
                bandwidth,
            },
        );
        let kn = k.n();
        let w = DenseMatrix::<f64>::from_fn(kn, r, |i, j| (((i + 3 * j) % 13) as f64) / 13.0 - 0.5);
        for &threads in &thread_counts {
            for policy in policies {
                let cfg = GofmmConfig::default()
                    .with_leaf_size(256)
                    .with_max_rank(128)
                    .with_tolerance(1e-5)
                    .with_budget(budget)
                    .with_metric(DistanceMetric::Angle)
                    .with_policy(policy)
                    .with_threads(threads);
                let (comp, t_comp) = timed(|| compress::<f64, _>(&k, &cfg));
                let ((evaluator, u), t_eval) = timed(|| {
                    let evaluator = Evaluator::with_options(&k, &comp, policy, threads);
                    let (u, _) = evaluator.apply(&w).unwrap();
                    (evaluator, u)
                });
                // Repeated-matvec column: the same evaluator serves the
                // second and later matvecs from packed blocks, a cached DAG
                // and recycled buffers; the steady-state cost of a matvec
                // service.
                let (_, t_reuse) = timed(|| evaluator.apply(&w));
                let eps = sampled_relative_error(&k, &w, &u, 100, 0);
                rows.push(vec![
                    label.to_string(),
                    threads.to_string(),
                    policy.to_string(),
                    fmt_secs(t_comp),
                    fmt_secs(t_eval),
                    fmt_secs(t_reuse),
                    format!("{:.1}", comp.average_rank()),
                    fmt_err(eps),
                ]);
            }
        }
    }

    print_table(
        "Figure 4: strong scaling of compression and evaluation (N-scaled)",
        &[
            "workload",
            "threads",
            "schedule",
            "compress (s)",
            "setup+apply (s)",
            "apply reuse (s)",
            "avg rank",
            "eps2",
        ],
        &rows,
    );
    println!("\nexpected shape: HEFT DAG <= FIFO <= level-by-level wall-clock; scaling saturates when the critical path dominates (paper #3/#4).");
    println!("'apply reuse' is a repeated matvec on a persistent Evaluator (blocks + DAG cached): the steady-state cost, strictly below the one-shot 'setup+apply' column (evaluator construction plus its first apply).");
}
