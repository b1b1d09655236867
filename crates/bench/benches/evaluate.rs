//! Criterion benchmarks of the GOFMM evaluation phase (paper Algorithm 2.7):
//! scheduling policies and number of right-hand sides.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gofmm_core::{compress, ApplyOptions, DistanceMetric, Evaluator, GofmmConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{build_matrix, TestMatrixId, ZooOptions};
use std::time::Duration;

fn bench_evaluate(c: &mut Criterion) {
    let mut group = c.benchmark_group("evaluate");
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
    let evaluator = Evaluator::new(&k, &comp);
    let apply = |w: &DenseMatrix<f64>, policy| {
        let opts = ApplyOptions::new().with_policy(policy).with_threads(8);
        evaluator.apply_with(w, &opts)
    };

    for policy in [
        TraversalPolicy::Sequential,
        TraversalPolicy::LevelByLevel,
        TraversalPolicy::DagFifo,
        TraversalPolicy::DagHeft,
    ] {
        let w = DenseMatrix::<f64>::from_fn(n, 128, |i, j| (((i + j) % 7) as f64) - 3.0);
        group.bench_with_input(
            BenchmarkId::new("policy_r128", policy.to_string()),
            &policy,
            |bencher, &policy| {
                bencher.iter(|| apply(&w, policy));
            },
        );
    }

    for &r in &[1usize, 64, 512] {
        let w = DenseMatrix::<f64>::from_fn(n, r, |i, j| (((i + j) % 7) as f64) - 3.0);
        group.bench_with_input(BenchmarkId::new("rhs_count", r), &r, |bencher, _| {
            bencher.iter(|| apply(&w, TraversalPolicy::DagHeft));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_evaluate);
criterion_main!(benches);
