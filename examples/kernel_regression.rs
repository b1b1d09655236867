//! Kernel ridge regression accelerated by GOFMM.
//!
//! The motivating application from the paper's introduction: kernel methods in
//! machine learning need repeated products with a dense N x N Gaussian kernel
//! matrix. We solve the ridge-regularized normal equations
//! `(K + lambda I) c = y` through the operator front door: compress, factor
//! `K + lambda I`, then conjugate gradients preconditioned by that factor,
//! with the compressed operator serving every matvec. The residual of the
//! fitted system is checked against exact rows of `K` on sampled rows.
//!
//! At this configuration the compression is coarser than the ridge, so
//! `K~ + lambda I` is indefinite and the build stops with
//! `Error::NotPositiveDefinite` rather than returning a wrong fit.
//!
//! Run with: `cargo run --release --example kernel_regression`

use gofmm_suite::core::{DistanceMetric, GofmmConfig};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{KernelMatrix, KernelType, PointCloud, SpdMatrix};
use gofmm_suite::{Error, GofmmOperator, KrylovOptions};

fn main() -> Result<(), Error> {
    // Synthetic regression data: a clustered 28-D cloud (HIGGS-like) with a
    // smooth target function.
    let n = 2048;
    let dim = 28;
    let points = PointCloud::gaussian_mixture(n, dim, 8, 0.05, 3);
    let target = |p: &[f64]| -> f64 {
        p.iter()
            .enumerate()
            .map(|(d, v)| (v * (d as f64 + 1.0)).sin())
            .sum::<f64>()
            / dim as f64
    };
    let y: Vec<f64> = (0..n).map(|i| target(points.point(i))).collect();

    let kernel = KernelMatrix::new(
        points,
        KernelType::Gaussian { bandwidth: 0.9 },
        0.0,
        "HIGGS-like",
    );
    let ridge = 1e-3;

    // Compress and factor `K + ridge I` once, then solve with CG
    // preconditioned by the factor, every matvec served by the operator.
    let config = GofmmConfig::default()
        .with_leaf_size(128)
        .with_max_rank(128)
        .with_tolerance(1e-6)
        .with_budget(0.05)
        .with_metric(DistanceMetric::Kernel);
    let op = GofmmOperator::builder(&kernel)
        .config(config)
        .factorize(ridge)
        .build()?;
    let comp = op.compressed();
    println!(
        "compressed kernel matrix: {:.2}s, avg rank {:.1}",
        comp.stats.total_time,
        comp.average_rank()
    );

    let y_mat = DenseMatrix::from_vec(n, 1, y.clone());
    let (c_mat, stats) = op.solve_cg(&y_mat, &KrylovOptions::default())?;
    println!(
        "preconditioned CG: {} iterations, residual {:.2e}",
        stats.iterations, stats.relative_residual
    );

    // Residual of the ridge system (K + ridge I) c = y on a sample of rows,
    // using exact rows of K.
    let sample: Vec<usize> = (0..n).step_by(37).collect();
    let fitted = kernel.rows_times(&sample, &c_mat);
    let mut err = 0.0;
    let mut norm = 0.0;
    for (row, &i) in sample.iter().enumerate() {
        let f = fitted[(row, 0)] + ridge * c_mat[(i, 0)];
        err += (f - y[i]).powi(2);
        norm += y[i].powi(2);
    }
    let rel = (err / norm).sqrt();
    println!("relative residual of the ridge system on sampled rows: {rel:.3e}");
    assert!(rel < 5e-2, "kernel regression example lost accuracy");
    println!("kernel ridge regression with GOFMM-accelerated CG completed");
    Ok(())
}
