//! Compressing the Hessian-like inverse operator of a PDE-constrained
//! optimization problem (the paper's K02) and using it inside a sampling loop.
//!
//! `K = (L + sigma I)^{-2}` with `L` the 5-point Dirichlet Laplacian is the
//! prototypical "inverse covariance" operator from uncertainty quantification:
//! dense, SPD, and expensive to apply directly. After GOFMM compression each
//! application costs `O(N)` instead of `O(N^2)`, which this example uses to
//! estimate `trace(K)` by Hutchinson sampling and to draw smooth random fields.
//!
//! Run with: `cargo run --release --example inverse_operator`

use gofmm_suite::core::{compress, DistanceMetric, Evaluator, GofmmConfig};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{sampled_relative_error, SpdMatrix};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    // 64 x 64 grid -> N = 4096.
    let side = 64;
    let n = side * side;
    println!("building K02 = (L + I)^-2 on a {side}x{side} grid (N = {n}) ...");
    let k = gofmm_suite::matrices::spectral::inverse_laplacian_squared_2d(side, side, 1.0);

    let config = GofmmConfig::default()
        .with_leaf_size(256)
        .with_max_rank(128)
        .with_tolerance(1e-5)
        .with_budget(0.03)
        .with_metric(DistanceMetric::Angle);
    let comp = compress::<f64, _>(&k, &config);
    println!(
        "compression: {:.2}s, avg rank {:.1}, near pairs {}, far pairs {}",
        comp.stats.total_time,
        comp.average_rank(),
        comp.stats.near_pairs,
        comp.stats.far_pairs
    );

    // One evaluator serves every product below.
    let evaluator = Evaluator::new(&k, comp);

    // Hutchinson trace estimator: trace(K) ~ mean_z z^T K z with Rademacher z.
    let samples = 64;
    let mut rng = StdRng::seed_from_u64(1);
    let z = DenseMatrix::<f64>::from_fn(
        n,
        samples,
        |_, _| if rng.gen::<bool>() { 1.0 } else { -1.0 },
    );
    let (kz, stats) = evaluator.apply(&z).expect("matching dimensions");
    let mut trace_est = 0.0;
    for s in 0..samples {
        let mut acc = 0.0;
        for i in 0..n {
            acc += z[(i, s)] * kz[(i, s)];
        }
        trace_est += acc;
    }
    trace_est /= samples as f64;
    let exact_trace: f64 = (0..n).map(|i| SpdMatrix::<f64>::diag(&k, i)).sum();
    println!(
        "Hutchinson trace estimate {:.4} vs exact {:.4} ({} probes, evaluation {:.3}s)",
        trace_est, exact_trace, samples, stats.time
    );
    let trace_rel = (trace_est - exact_trace).abs() / exact_trace;
    assert!(trace_rel < 0.2, "trace estimate too far off: {trace_rel}");

    // Accuracy of the compressed operator itself.
    let eps2 = sampled_relative_error(&k, &z, &kz, 100, 0);
    println!("sampled relative error of the compressed operator: {eps2:.3e}");
    assert!(eps2 < 1e-2);

    // Smooth random field: u = K g looks like a correlated Gaussian field.
    let g = DenseMatrix::<f64>::from_fn(n, 1, |_, _| rng.gen::<f64>() - 0.5);
    let (field, _) = evaluator.apply(&g).expect("matching dimensions");
    let mean: f64 = (0..n).map(|i| field[(i, 0)]).sum::<f64>() / n as f64;
    println!("smooth random field drawn; mean value {mean:.3e}");
}
