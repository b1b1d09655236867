//! ASKIT-style baseline (March, Xiao, Yu & Biros, 2016).
//!
//! ASKIT is the algebraic FMM GOFMM evolved from. The differences the paper
//! calls out (§4, Table 4):
//!
//! * ASKIT *requires point coordinates* — partitioning, neighbor search and
//!   importance sampling are all geometric,
//! * the traversals are level-by-level (no out-of-order runtime),
//! * the amount of direct (near) evaluation is decided purely by the neighbor
//!   count `kappa` (there is no budget parameter),
//! * evaluation handles a single right-hand side at a time.
//!
//! We reproduce that behaviour on top of the same substrates: geometric metric
//! ball tree, neighbor-driven near lists with an effectively unlimited budget,
//! level-by-level traversals, and a single-RHS matvec API.

use gofmm_core::{
    compress, Compressed, DistanceMetric, Evaluator, GofmmConfig, PanelPrecision, TraversalPolicy,
};
use gofmm_linalg::{DenseMatrix, Scalar};
use gofmm_matrices::SpdMatrix;
use std::time::Instant;

/// Parameters of the ASKIT-style baseline.
#[derive(Clone, Debug)]
pub struct AskitConfig {
    /// Leaf size.
    pub leaf_size: usize,
    /// Maximum skeleton rank.
    pub max_rank: usize,
    /// Adaptive tolerance.
    pub tolerance: f64,
    /// Number of nearest neighbors `kappa` (controls direct evaluation).
    pub neighbors: usize,
    /// Worker threads.
    pub num_threads: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for AskitConfig {
    fn default() -> Self {
        Self {
            leaf_size: 256,
            max_rank: 256,
            tolerance: 1e-5,
            neighbors: 32,
            num_threads: gofmm_runtime::available_threads(),
            seed: 0,
        }
    }
}

/// ASKIT-style compressed operator.
pub struct AskitMatrix<T: Scalar> {
    inner: Compressed<T>,
    /// Compression wall-clock seconds.
    pub compress_time: f64,
}

impl<T: Scalar> AskitMatrix<T> {
    /// Compress the matrix; requires point coordinates.
    ///
    /// # Panics
    /// Panics if the matrix exposes no coordinates (ASKIT cannot run without
    /// points — that limitation is exactly what GOFMM lifts).
    pub fn compress<M: SpdMatrix<T> + ?Sized>(matrix: &M, config: &AskitConfig) -> Self {
        assert!(
            matrix.coords().is_some(),
            "ASKIT requires point coordinates; use GOFMM for coordinate-free matrices"
        );
        let gofmm_cfg = GofmmConfig {
            leaf_size: config.leaf_size,
            max_rank: config.max_rank,
            tolerance: config.tolerance,
            neighbors: config.neighbors,
            // The near lists are limited only by what the neighbor votes
            // produce, mirroring ASKIT's kappa-driven pruning.
            budget: 1.0,
            metric: DistanceMetric::Geometric,
            num_threads: config.num_threads,
            policy: TraversalPolicy::LevelByLevel,
            sample_size: 0,
            ann_iters: 10,
            seed: config.seed,
            panel_precision: PanelPrecision::Native,
        };
        let t0 = Instant::now();
        let inner = compress(matrix, &gofmm_cfg);
        Self {
            inner,
            compress_time: t0.elapsed().as_secs_f64(),
        }
    }

    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.inner.n()
    }

    /// Average skeleton rank.
    pub fn average_rank(&self) -> f64 {
        self.inner.average_rank()
    }

    /// Approximate `u = K w` for a single right-hand side.
    pub fn matvec_single<M: SpdMatrix<T> + ?Sized>(&self, matrix: &M, w: &[T]) -> Vec<T> {
        assert_eq!(w.len(), self.n());
        let w_mat = DenseMatrix::from_vec(w.len(), 1, w.to_vec());
        let (u, _) = Evaluator::new(matrix, &self.inner)
            .apply(&w_mat)
            .expect("the length was checked above");
        u.col(0).to_vec()
    }

    /// Access the underlying compressed representation.
    pub fn compressed(&self) -> &Compressed<T> {
        &self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn kernel(n: usize) -> KernelMatrix {
        KernelMatrix::new(
            PointCloud::uniform(n, 3, 11),
            KernelType::Gaussian { bandwidth: 0.8 },
            1e-6,
            "askit-test",
        )
    }

    #[test]
    fn askit_matvec_is_accurate() {
        let n = 256;
        let k = kernel(n);
        let a = AskitMatrix::<f64>::compress(
            &k,
            &AskitConfig {
                leaf_size: 32,
                max_rank: 48,
                tolerance: 1e-7,
                neighbors: 16,
                num_threads: 2,
                seed: 1,
            },
        );
        let mut rng = StdRng::seed_from_u64(7);
        let w: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() - 0.5).collect();
        let u = a.matvec_single(&k, &w);
        let w_mat = DenseMatrix::from_vec(n, 1, w.clone());
        let exact = k.matvec_exact(&w_mat);
        let mut err = 0.0;
        let mut norm = 0.0;
        for i in 0..n {
            err += (u[i] - exact[(i, 0)]).powi(2);
            norm += exact[(i, 0)].powi(2);
        }
        let rel = (err / norm).sqrt();
        assert!(rel < 1e-3, "relative error {rel}");
        assert!(a.average_rank() > 0.0);
        assert_eq!(a.n(), n);
        assert!(a.compress_time >= 0.0);
    }

    #[test]
    fn more_neighbors_means_more_direct_evaluation() {
        let n = 512;
        let k = kernel(n);
        let few = AskitMatrix::<f64>::compress(
            &k,
            &AskitConfig {
                leaf_size: 32,
                max_rank: 32,
                neighbors: 4,
                num_threads: 2,
                ..Default::default()
            },
        );
        let many = AskitMatrix::<f64>::compress(
            &k,
            &AskitConfig {
                leaf_size: 32,
                max_rank: 32,
                neighbors: 48,
                num_threads: 2,
                ..Default::default()
            },
        );
        assert!(
            many.compressed().lists.near_pair_count() >= few.compressed().lists.near_pair_count(),
            "near pairs should grow with kappa"
        );
    }

    #[test]
    #[should_panic]
    fn askit_requires_coordinates() {
        // A graph-Laplacian-inverse style matrix without coordinates.
        let dense = gofmm_linalg::DenseMatrix::<f64>::identity(32);
        let m = gofmm_matrices::DenseSpd::new(dense, "no-coords");
        let _ = AskitMatrix::<f64>::compress(&m, &AskitConfig::default());
    }
}
