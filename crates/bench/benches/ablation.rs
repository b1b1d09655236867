//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! adaptive vs fixed rank, neighbor importance sampling vs uniform sampling,
//! and distance metric choice.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gofmm_core::{compress, DistanceMetric, GofmmConfig, TraversalPolicy};
use gofmm_matrices::{build_matrix, TestMatrixId, ZooOptions};
use std::time::Duration;

fn base_config() -> GofmmConfig {
    GofmmConfig::default()
        .with_leaf_size(128)
        .with_max_rank(64)
        .with_tolerance(1e-5)
        .with_budget(0.03)
        .with_metric(DistanceMetric::Angle)
        .with_policy(TraversalPolicy::DagHeft)
}

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation");
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

    // Adaptive vs fixed rank.
    for (label, tol) in [("adaptive_rank_tau1e-5", 1e-5), ("fixed_rank", 0.0)] {
        let cfg = base_config().with_tolerance(tol);
        group.bench_function(BenchmarkId::new("rank_selection", label), |bencher| {
            bencher.iter(|| compress::<f64, _>(&k, &cfg));
        });
    }

    // Row-sample size for the ID (importance sampling pool).
    for &sample in &[96usize, 256, 1024] {
        let mut cfg = base_config();
        cfg.sample_size = sample;
        group.bench_with_input(
            BenchmarkId::new("id_sample_rows", sample),
            &sample,
            |bencher, _| {
                bencher.iter(|| compress::<f64, _>(&k, &cfg));
            },
        );
    }

    // Kernel vs angle distance (compression cost is dominated by ANN + ID).
    for metric in [
        DistanceMetric::Kernel,
        DistanceMetric::Angle,
        DistanceMetric::Lexicographic,
    ] {
        let cfg = base_config()
            .with_metric(metric)
            .with_budget(if metric.has_distance() { 0.03 } else { 0.0 });
        group.bench_with_input(
            BenchmarkId::new("metric", metric.to_string()),
            &metric,
            |bencher, _| {
                bencher.iter(|| compress::<f64, _>(&k, &cfg));
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
