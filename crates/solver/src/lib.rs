//! # gofmm-solver
//!
//! SPD system solving on top of the GOFMM compression: the paper's headline
//! use case is not the matvec itself but solving `(K + lambda I) x = b`,
//! using the hierarchically compressed operator both as the *system* (cheap
//! kernel-free matvecs through the persistent `Evaluator`) and — factored —
//! as the *preconditioner* for Krylov iteration.
//!
//! Three layers:
//!
//! * [`GofmmOperator`] — the unified front door: one builder
//!   (`GofmmOperator::builder(&k).config(cfg).factorize(lambda).build()?`)
//!   yields a `Send + Sync` handle with `&self` `apply`, `solve` and
//!   `solve_cg`, shareable across any number of request threads. New code
//!   should start here. Its `solve` and `solve_cg` go through the
//!   backward-stable [`UlvFactor`].
//! * [`UlvFactor`] / [`HierarchicalFactor`] — one bottom-up `FACTOR`
//!   driver, [`Factor`], over two node kernels. [`Ulv`], the one the
//!   operator uses, eliminates with orthogonal rotations and Cholesky
//!   factorizations only, making it backward stable across the whole
//!   regularization range (enforced by `tests/stability_envelope.rs`);
//!   [`Smw`] builds the classical Sherman–Morrison–Woodbury corrections from
//!   the skeleton bases and sibling skeleton blocks, accurate for `lambda`
//!   within a few orders of the operator scale, and is kept as the
//!   reference the tests compare ULV against. Both are built by
//!   [`Factor::new`] over a borrowed, owned or `Arc`-shared compression,
//!   with the config's policy and thread count as defaults, are persistent,
//!   and serve unlimited `&self` `solve` calls — each a cached-plan `SUP`/`SDOWN` double sweep
//!   with zero kernel-entry evaluations, mirroring `Evaluator::apply` — and
//!   run under all four traversal policies with bit-identical results.
//! * [`cg`] — preconditioned conjugate gradients, generic over
//!   [`LinearOperator`] (implemented by `Evaluator`, [`GofmmOperator`],
//!   [`Shifted`], [`DenseOperator`]) and [`Preconditioner`] (implemented by
//!   [`Factor`] and [`IdentityPreconditioner`]), with per-iteration residual
//!   history in [`SolveStats`]. Both traits take `&self`, so iterations run
//!   against shared handles, and return `Result`, so a store fault inside
//!   an iteration ends the solve with [`Error::Storage`] instead of a
//!   panic.
//! * [`BatchedServer`] — the serving traffic layer: an admission queue in
//!   front of one shared operator that coalesces small concurrent
//!   `apply`/`solve`/`solve_cg` requests into wide batched calls
//!   (bit-identical to solo execution), with per-request deadlines,
//!   cooperative cancellation and [`ServerStats`] telemetry.
//!
//! ## Quick start
//!
//! ```
//! use gofmm_core::{GofmmConfig, TraversalPolicy};
//! use gofmm_linalg::DenseMatrix;
//! use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
//! use gofmm_solver::{GofmmOperator, KrylovOptions};
//!
//! let n = 512;
//! let k = KernelMatrix::new(
//!     PointCloud::uniform(n, 3, 1),
//!     KernelType::Gaussian { bandwidth: 0.5 },
//!     1e-6,
//!     "doc",
//! );
//! let config = GofmmConfig::default()
//!     .with_leaf_size(64)
//!     .with_max_rank(64)
//!     .with_tolerance(1e-7)
//!     .with_budget(0.0)
//!     .with_threads(2)
//!     .with_policy(TraversalPolicy::Sequential);
//! let b = DenseMatrix::<f64>::from_fn(n, 1, |i, _| ((i % 11) as f64) - 5.0);
//!
//! // One builder: compress, pack the evaluator, factor K + 1e-2 I.
//! let op = GofmmOperator::<f64>::builder(&k)
//!     .config(config)
//!     .factorize(1e-2)
//!     .build()
//!     .unwrap();
//! // Solve (K~ + 1e-2 I) x = b with CG, preconditioned by the hierarchical
//! // factorization — all through one shared handle.
//! let (x, stats) = op.solve_cg(&b, &KrylovOptions::default()).unwrap();
//! assert!(stats.converged, "residual {}", stats.relative_residual);
//! assert_eq!(x.rows(), n);
//! ```

#![deny(missing_docs)]

pub mod factor;
mod kernel;
pub mod krylov;
pub mod operator;
pub mod serve;
mod smw;
pub mod ulv;

pub use factor::{Factor, FactorStats, HierarchicalFactor};
pub use gofmm_core::Error;
pub use gofmm_telemetry::{
    MetricsRegistry, ProgressHandle, ProgressListener, ProgressReport, Trace, TraceSink,
    TraceSummary,
};
pub use krylov::{
    cg, DenseOperator, IdentityPreconditioner, KrylovOptions, LinearOperator, Preconditioner,
    Shifted, SolveStats,
};
pub use operator::{GofmmOperator, GofmmOperatorBuilder};
pub use serve::{
    BatchedServer, FlightProgress, ServeConfig, ServerStats, Ticket, BATCH_WIDTH_BUCKETS,
    BATCH_WIDTH_BUCKET_BOUNDS, BATCH_WIDTH_BUCKET_LABELS,
};
pub use smw::Smw;
pub use ulv::{Ulv, UlvFactor};

/// Storage-tier types accepted by [`GofmmOperatorBuilder::storage`] and the
/// spill/attach surface; re-exported from `gofmm-core` (which re-exports
/// them from `gofmm-store`) so out-of-core callers need only this crate.
pub use gofmm_core::{FilePanelStore, StorageConfig, StoreStatsSnapshot, StoreWriter};

/// Accuracy-budget tuning types accepted by [`GofmmOperatorBuilder::tune`]
/// and [`GofmmOperator::tune`]; re-exported from `gofmm-core` so serving
/// callers can sparsify their operators without a core dependency.
pub use gofmm_core::{AccuracyBudget, TuneStats};

#[cfg(test)]
mod tests {
    use super::*;
    use gofmm_core::{compress, ApplyOptions, GofmmConfig, TraversalPolicy};
    use gofmm_linalg::{matmul_nt, DenseMatrix};
    use gofmm_matrices::SpdMatrix;
    use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_matrix(n: usize) -> KernelMatrix {
        KernelMatrix::new(
            PointCloud::uniform(n, 3, 42),
            KernelType::Gaussian { bandwidth: 1.0 },
            1e-6,
            "solver-test",
        )
    }

    fn hss_config() -> GofmmConfig {
        GofmmConfig::default()
            .with_leaf_size(32)
            .with_max_rank(48)
            .with_tolerance(1e-9)
            .with_budget(0.0)
            .with_threads(2)
            .with_policy(TraversalPolicy::Sequential)
    }

    #[test]
    fn dense_cg_solves_small_spd_system() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = DenseMatrix::<f64>::random_gaussian(40, 40, &mut rng);
        let mut a = matmul_nt(&g, &g);
        for i in 0..40 {
            a[(i, i)] += 40.0;
        }
        a.symmetrize();
        let x_true = DenseMatrix::<f64>::random_gaussian(40, 2, &mut rng);
        let b = gofmm_linalg::matmul(&a, &x_true);
        let op = DenseOperator::new(a);
        let (x, stats) = cg(&op, &IdentityPreconditioner, &b, &KrylovOptions::default()).unwrap();
        assert!(stats.converged);
        assert!(stats.iterations > 0);
        assert!(x.sub(&x_true).norm_max() < 1e-6);
        assert_eq!(stats.residual_history.len(), stats.iterations + 1);
    }

    #[test]
    fn zero_rhs_converges_immediately() {
        let op = DenseOperator::new(DenseMatrix::<f64>::identity(8));
        let b = DenseMatrix::<f64>::zeros(8, 1);
        let (x, stats) = cg(&op, &IdentityPreconditioner, &b, &KrylovOptions::default()).unwrap();
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
        assert_eq!(x.norm_max(), 0.0);
    }

    #[test]
    fn krylov_drivers_report_dimension_mismatch() {
        let op = DenseOperator::new(DenseMatrix::<f64>::identity(8));
        let b = DenseMatrix::<f64>::zeros(7, 1);
        assert!(matches!(
            cg(&op, &IdentityPreconditioner, &b, &KrylovOptions::default()),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn mismatched_preconditioner_is_an_error_not_a_panic() {
        // An operator of one size with a factorization of another: the
        // driver must refuse up front with a typed error instead of
        // panicking inside the first preconditioner application.
        let k_small = test_matrix(64);
        let comp_small = compress::<f64, _>(&k_small, &hss_config());
        let factor_small = HierarchicalFactor::new(&k_small, &comp_small, 1e-2).unwrap();
        let op_big = DenseOperator::new(DenseMatrix::<f64>::identity(128));
        let b = DenseMatrix::<f64>::zeros(128, 1);
        assert!(matches!(
            cg(&op_big, &factor_small, &b, &KrylovOptions::default()),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn shifted_operator_adds_diagonal() {
        let a = DenseMatrix::<f64>::identity(6);
        let op = Shifted::new(DenseOperator::new(a), 2.5);
        assert_eq!(op.shift(), 2.5);
        assert_eq!(LinearOperator::<f64>::dim(&op), 6);
        let x = DenseMatrix::<f64>::from_fn(6, 1, |i, _| i as f64);
        let y = op.matvec(&x).unwrap();
        for i in 0..6 {
            assert!((y[(i, 0)] - 3.5 * i as f64).abs() < 1e-14);
        }
    }

    #[test]
    fn hierarchical_factor_inverts_hss_operator() {
        // Budget 0: the factorization covers the whole compressed operator,
        // so factor.solve is (numerically) its exact inverse.
        let n = 300;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &hss_config());
        let lambda = 1e-2;
        let factor = HierarchicalFactor::new(&k, &comp, lambda).unwrap();
        assert!(factor.stats().setup_time > 0.0);
        assert!(factor.stats().bytes > 0);
        assert_eq!(factor.lambda(), lambda);
        let mut rng = StdRng::seed_from_u64(9);
        let x_true = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        // b = (K~ + lambda I) x_true through the evaluator.
        let ev = gofmm_core::Evaluator::new(&k, &comp);
        let op = Shifted::new(&ev, lambda);
        let b = op.matvec(&x_true).unwrap();
        let x = factor.solve(&b).unwrap();
        let resid = op.matvec(&x).unwrap().sub(&b).norm_fro() / b.norm_fro();
        assert!(resid < 1e-8, "HSS factor residual {resid}");
    }

    #[test]
    fn concurrent_solves_on_one_shared_factor_are_bit_identical() {
        // The &self serving contract for the factorization: many threads,
        // one factor, every result bit-identical to the sequential baseline
        // under every policy.
        let n = 320;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &hss_config());
        let factor = HierarchicalFactor::new(&k, &comp, 1e-2).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let b = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let x_ref = factor.solve(&b).unwrap();
        let policies = [
            TraversalPolicy::Sequential,
            TraversalPolicy::LevelByLevel,
            TraversalPolicy::DagHeft,
            TraversalPolicy::DagFifo,
        ];
        std::thread::scope(|scope| {
            for t in 0..6 {
                let (factor, b, x_ref) = (&factor, &b, &x_ref);
                let policy = policies[t % policies.len()];
                scope.spawn(move || {
                    let opts = ApplyOptions::new().with_policy(policy).with_threads(2);
                    for _ in 0..3 {
                        let x = factor.solve_with(b, &opts).unwrap();
                        assert_eq!(x.data(), x_ref.data(), "{policy}: concurrent solve drifted");
                    }
                });
            }
        });
    }

    #[test]
    fn factor_reports_not_spd_for_hostile_regularization() {
        // A strongly negative shift makes the regularized leaf blocks
        // indefinite; the factorization must refuse loudly.
        let n = 200;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &hss_config());
        let err = match HierarchicalFactor::<f64>::new(&k, &comp, -100.0) {
            Err(e) => e,
            Ok(_) => panic!("hostile regularization must not factor"),
        };
        match err {
            Error::NotPositiveDefinite { .. } => {}
            other => panic!("expected NotPositiveDefinite, got {other}"),
        }
        assert!(err.to_string().contains("lambda"));
    }

    #[test]
    fn factor_rejects_non_finite_lambda() {
        let n = 64;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &hss_config());
        assert!(matches!(
            HierarchicalFactor::<f64>::new(&k, &comp, f64::NAN),
            Err(Error::InvalidConfig { .. })
        ));
    }

    #[test]
    fn depth_zero_tree_factors_as_dense_cholesky() {
        let n = 24;
        let k = test_matrix(n);
        let cfg = hss_config().with_leaf_size(64); // single-leaf tree
        let comp = compress::<f64, _>(&k, &cfg);
        assert_eq!(comp.tree.leaf_count(), 1);
        let lambda = 1e-3;
        let factor = HierarchicalFactor::new(&k, &comp, lambda).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let x_true = DenseMatrix::<f64>::random_gaussian(n, 1, &mut rng);
        // Dense reference: (K + lambda I) x.
        let all: Vec<usize> = (0..n).collect();
        let mut a = k.submatrix(&all, &all);
        for i in 0..n {
            a[(i, i)] += lambda;
        }
        let b = gofmm_linalg::matmul(&a, &x_true);
        let x = factor.solve(&b).unwrap();
        assert!(x.sub(&x_true).norm_max() < 1e-8);
    }

    #[test]
    fn solve_recycles_buffers_across_rhs_widths() {
        let n = 256;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &hss_config());
        let factor = HierarchicalFactor::new(&k, &comp, 1e-2).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let b2 = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let b5 = DenseMatrix::<f64>::random_gaussian(n, 5, &mut rng);
        let x2a = factor.solve(&b2).unwrap();
        let x5 = factor.solve(&b5).unwrap(); // different width, new workspace
        let x2b = factor.solve(&b2).unwrap(); // recycles the width-2 one
        assert_eq!(x5.cols(), 5);
        // Same input after interleaved widths must give the same bits.
        assert_eq!(x2a.data(), x2b.data());
    }
}
