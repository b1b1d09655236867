//! Kernel ridge regression accelerated by GOFMM.
//!
//! The motivating application from the paper's introduction: kernel methods in
//! machine learning need repeated products with a dense N x N Gaussian kernel
//! matrix. We solve the ridge-regularized normal equations
//! `(K + lambda I) c = y` with conjugate gradients, using the GOFMM-compressed
//! operator for every matvec, then check the residual of the fitted system on
//! sampled rows.
//!
//! Run with: `cargo run --release --example kernel_regression`

use gofmm_suite::core::{compress, DistanceMetric, Evaluator, GofmmConfig};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{KernelMatrix, KernelType, PointCloud, SpdMatrix};

/// Conjugate gradients on the compressed operator plus a ridge shift.
fn cg_solve(evaluator: &Evaluator<'_, f64>, y: &[f64], ridge: f64, iters: usize) -> Vec<f64> {
    let n = y.len();
    let matvec = |x: &[f64]| -> Vec<f64> {
        let xm = DenseMatrix::from_vec(n, 1, x.to_vec());
        let (u, _) = evaluator.apply(&xm).expect("matching dimensions");
        (0..n).map(|i| u[(i, 0)] + ridge * x[i]).collect()
    };
    let mut x = vec![0.0; n];
    let mut r: Vec<f64> = y.to_vec();
    let mut p = r.clone();
    let mut rs_old: f64 = r.iter().map(|v| v * v).sum();
    for _ in 0..iters {
        let ap = matvec(&p);
        let denom: f64 = p.iter().zip(&ap).map(|(a, b)| a * b).sum();
        if denom.abs() < 1e-30 {
            break;
        }
        let alpha = rs_old / denom;
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rs_new: f64 = r.iter().map(|v| v * v).sum();
        if rs_new.sqrt() < 1e-10 {
            break;
        }
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs_old = rs_new;
    }
    x
}

fn main() {
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

    // Compress once, then serve every CG matvec from one evaluator.
    let config = GofmmConfig::default()
        .with_leaf_size(128)
        .with_max_rank(128)
        .with_tolerance(1e-6)
        .with_budget(0.05)
        .with_metric(DistanceMetric::Kernel);
    let comp = compress::<f64, _>(&kernel, &config);
    println!(
        "compressed kernel matrix: {:.2}s, avg rank {:.1}",
        comp.stats.total_time,
        comp.average_rank()
    );

    let evaluator = Evaluator::new(&kernel, comp);
    let coeffs = cg_solve(&evaluator, &y, ridge, 50);

    // Residual of the ridge system (K + ridge I) c = y on a sample of rows,
    // using exact rows of K.
    let c_mat = DenseMatrix::from_vec(n, 1, coeffs.clone());
    let sample: Vec<usize> = (0..n).step_by(37).collect();
    let fitted = kernel.rows_times(&sample, &c_mat);
    let mut err = 0.0;
    let mut norm = 0.0;
    for (row, &i) in sample.iter().enumerate() {
        let f = fitted[(row, 0)] + ridge * coeffs[i];
        err += (f - y[i]).powi(2);
        norm += y[i].powi(2);
    }
    let rel = (err / norm).sqrt();
    println!("relative residual of the ridge system on sampled rows: {rel:.3e}");
    assert!(rel < 5e-2, "kernel regression example lost accuracy");
    println!("kernel ridge regression with GOFMM-accelerated CG completed");
}
