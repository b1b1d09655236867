//! Criterion benchmarks of a reused [`Evaluator`] against one built per
//! matvec: the amortized-throughput story behind long-running matvec
//! services. Building an evaluator packs every interaction block and the
//! task DAG; `Evaluator::apply` serves each later matvec from that state.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gofmm_core::{compress, DistanceMetric, Evaluator, GofmmConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{build_matrix, TestMatrixId, ZooOptions};
use std::time::Duration;

fn bench_evaluator_reuse(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluator_reuse");
    group
        .measurement_time(Duration::from_secs(5))
        .sample_size(10);
    let n = 1024;
    let k = build_matrix(
        TestMatrixId::K04,
        &ZooOptions {
            n,
            seed: 1,
            bandwidth: None,
        },
    );
    let cfg = GofmmConfig::default()
        .with_leaf_size(128)
        .with_max_rank(64)
        .with_tolerance(1e-5)
        .with_budget(0.05)
        .with_metric(DistanceMetric::Angle)
        .with_policy(TraversalPolicy::DagHeft);
    let comp = compress::<f64, _>(&k, &cfg);
    let policy = TraversalPolicy::DagHeft;
    let threads = 8;

    for &r in &[16usize, 128] {
        let w = DenseMatrix::<f64>::from_fn(n, r, |i, j| (((i + j) % 7) as f64) - 3.0);

        // One-shot: pays block packing + DAG construction on every call.
        group.bench_with_input(BenchmarkId::new("setup_and_apply", r), &r, |bencher, _| {
            bencher.iter(|| Evaluator::with_options(&k, &comp, policy, threads).apply(&w));
        });

        // Reused: setup hoisted out of the measured loop — the service shape.
        let evaluator = Evaluator::with_options(&k, &comp, policy, threads);
        let _ = evaluator.apply(&w); // warm the buffers once
        group.bench_with_input(BenchmarkId::new("evaluator_apply", r), &r, |bencher, _| {
            bencher.iter(|| evaluator.apply(&w));
        });
    }

    // Setup cost in isolation, for the amortization break-even estimate.
    group.bench_function("evaluator_setup", |bencher| {
        bencher.iter(|| Evaluator::<f64>::with_options(&k, &comp, policy, threads));
    });
    group.finish();
}

criterion_group!(benches, bench_evaluator_reuse);
criterion_main!(benches);
