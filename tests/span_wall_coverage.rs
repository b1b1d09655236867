//! Wall coverage of the per-family span aggregates, in a test binary of its
//! own: the check times a sequential sweep, so no sibling test may run
//! multi-threaded sweeps on the same cores while it measures.

use gofmm_suite::core::{GofmmConfig, TraversalPolicy};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_suite::telemetry::SpanKind;
use gofmm_suite::{ApplyOptions, GofmmOperator, TraceSink};

fn build_operator(n: usize) -> GofmmOperator<f64> {
    let k = KernelMatrix::new(
        PointCloud::uniform(n, 3, 41),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "span-integrity",
    );
    let cfg = GofmmConfig::default()
        .with_leaf_size(48)
        .with_max_rank(48)
        .with_tolerance(1e-7)
        .with_budget(0.0)
        .with_threads(2)
        .with_policy(TraversalPolicy::LevelByLevel);
    GofmmOperator::builder(&k)
        .config(cfg)
        .factorize(1e-2)
        .build()
        .expect("operator must build")
}

fn rhs(n: usize, cols: usize, seed: usize) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(n, cols, |i, j| {
        (((i * 31 + j * 17 + seed * 7) % 23) as f64) / 11.0 - 1.0
    })
}

/// The acceptance contract on the aggregates: on a sequential traced apply
/// the per-family task times sum to within 5% of the traced wall time of
/// the apply phase (one worker, no overlap — tasks must tile the sweeps).
///
/// The floor is about tiling, so the sweep is one whose tasks average ~10 us
/// (n = 4096, 32 right-hand sides: 890 tasks over ~9 ms, cover 0.99): the
/// clock reads and the event write between two spans are ~100 ns whatever
/// the kernels do, and on a sweep of 2-4 us tasks (n = 1024, 4 columns)
/// every kernel speed-up moved the ratio towards the floor without any
/// change to the tiling.
#[test]
fn per_family_aggregates_account_for_sequential_wall_time() {
    let op = build_operator(4096);
    let sink = TraceSink::new();
    let w = rhs(4096, 32, 2);
    let opts = ApplyOptions::default()
        .with_policy(TraversalPolicy::Sequential)
        .with_threads(1)
        .with_trace(sink.clone());
    op.apply_with(&w, &opts).expect("traced apply");
    let trace = sink.trace();
    let summary = trace.summary();
    let family_sum: u64 = summary.per_family.values().sum();
    assert_eq!(
        family_sum, summary.task_ns,
        "family split must tile task time"
    );
    // Wall time of the sweep region: first task start to last task end.
    let tasks: Vec<_> = trace
        .events()
        .iter()
        .filter(|e| e.kind == SpanKind::Task)
        .collect();
    let sweep_start = tasks.iter().map(|e| e.t_start).min().unwrap();
    let sweep_end = tasks.iter().map(|e| e.t_end).max().unwrap();
    let sweep_wall = sweep_end - sweep_start;
    assert!(
        family_sum as f64 >= 0.95 * sweep_wall as f64,
        "per-family sums {family_sum}ns cover less than 95% of the sequential sweep wall {sweep_wall}ns"
    );
    assert!(
        family_sum <= sweep_wall,
        "task time cannot exceed a single-threaded wall"
    );
}
