//! STRUMPACK-style HSS baseline.
//!
//! STRUMPACK compresses a dense matrix into a hierarchically semi-separable
//! (HSS) form using the *input (lexicographic) ordering* and randomized /
//! dense sampling of off-diagonal blocks; without a fast matvec this costs
//! `O(N^2)` work (paper, Related Work). We reproduce the algorithmic essence
//! by running the GOFMM machinery with:
//!
//! * lexicographic partitioning (no Gram distances, no permutation),
//! * budget 0 (no sparse correction — pure HSS),
//! * a much larger (optionally exhaustive) row sample for each node's ID,
//!   standing in for STRUMPACK's dense random projections.
//!
//! This keeps the comparison in Table 3 about what it is about in the paper:
//! the effect of the matrix-aware permutation and of the sparse correction.

use gofmm_core::{
    compress, Compressed, DistanceMetric, Evaluator, GofmmConfig, PanelPrecision, TraversalPolicy,
};
use gofmm_linalg::{DenseMatrix, Scalar};
use gofmm_matrices::SpdMatrix;
use std::time::Instant;

/// Parameters of the HSS baseline.
#[derive(Clone, Debug)]
pub struct HssConfig {
    /// Leaf size.
    pub leaf_size: usize,
    /// Maximum skeleton rank.
    pub max_rank: usize,
    /// Adaptive tolerance.
    pub tolerance: f64,
    /// Number of sampled rows per node ID; `0` means "sample everything"
    /// (the `O(N^2)` black-box route STRUMPACK takes for dense input).
    pub sample_rows: usize,
    /// Worker threads.
    pub num_threads: usize,
}

impl Default for HssConfig {
    fn default() -> Self {
        Self {
            leaf_size: 256,
            max_rank: 256,
            tolerance: 1e-5,
            sample_rows: 0,
            num_threads: gofmm_runtime::available_threads(),
        }
    }
}

/// A compressed HSS approximation (lexicographic ordering, no sparse
/// correction).
pub struct HssMatrix<T: Scalar> {
    inner: Compressed<T>,
    /// Compression wall-clock seconds.
    pub compress_time: f64,
}

impl<T: Scalar> HssMatrix<T> {
    /// Compress with the lexicographic HSS scheme.
    pub fn compress<M: SpdMatrix<T> + ?Sized>(matrix: &M, config: &HssConfig) -> Self {
        let n = matrix.n();
        let sample = if config.sample_rows == 0 {
            n
        } else {
            config.sample_rows
        };
        let gofmm_cfg = GofmmConfig {
            leaf_size: config.leaf_size,
            max_rank: config.max_rank,
            tolerance: config.tolerance,
            neighbors: 0,
            budget: 0.0,
            metric: DistanceMetric::Lexicographic,
            num_threads: config.num_threads,
            policy: TraversalPolicy::LevelByLevel,
            sample_size: sample,
            ann_iters: 0,
            seed: 1,
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

    /// Approximate `u = K w` through an evaluator packed for this one
    /// product. Panics when `w` does not have `n` rows.
    pub fn matvec<M: SpdMatrix<T> + ?Sized>(
        &self,
        matrix: &M,
        w: &DenseMatrix<T>,
    ) -> DenseMatrix<T> {
        match Evaluator::new(matrix, &self.inner).apply(w) {
            Ok((u, _)) => u,
            Err(err) => panic!("HSS matvec: {err}"),
        }
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
    use rand::SeedableRng;

    #[test]
    fn hss_compresses_smooth_kernel_in_lexicographic_order() {
        let n = 256;
        // 1-D points in index order: lexicographic ordering is already good,
        // exactly the case where STRUMPACK works well.
        let pts: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        let k = KernelMatrix::new(
            PointCloud::from_vec(1, pts),
            KernelType::Gaussian { bandwidth: 0.5 },
            1e-8,
            "ordered",
        );
        let hss = HssMatrix::<f64>::compress(
            &k,
            &HssConfig {
                leaf_size: 32,
                max_rank: 48,
                tolerance: 1e-8,
                sample_rows: 0,
                num_threads: 2,
            },
        );
        let mut rng = StdRng::seed_from_u64(5);
        let w = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let u = hss.matvec(&k, &w);
        let exact = k.matvec_exact(&w);
        let rel = u.sub(&exact).norm_fro() / exact.norm_fro();
        assert!(rel < 1e-4, "relative error {rel}");
        assert!(hss.average_rank() > 0.0);
        assert_eq!(hss.n(), n);
    }

    #[test]
    fn hss_struggles_when_ordering_is_scrambled() {
        // Same kernel but the points are in scrambled order: without a
        // permutation the off-diagonal blocks have high rank, so a small
        // rank cap gives a visibly worse error than GOFMM with angle distance.
        let n = 256;
        let mut order: Vec<usize> = (0..n).collect();
        // Deterministic scramble.
        for i in 0..n {
            order.swap(i, (i * 97 + 13) % n);
        }
        let pts: Vec<f64> = order.iter().map(|&i| i as f64 / n as f64).collect();
        let k = KernelMatrix::new(
            PointCloud::from_vec(1, pts),
            KernelType::Gaussian { bandwidth: 0.05 },
            1e-8,
            "scrambled",
        );
        let hss = HssMatrix::<f64>::compress(
            &k,
            &HssConfig {
                leaf_size: 32,
                max_rank: 16,
                tolerance: 0.0,
                sample_rows: 128,
                num_threads: 2,
            },
        );
        let gofmm_cfg = gofmm_core::GofmmConfig::default()
            .with_leaf_size(32)
            .with_max_rank(16)
            .with_tolerance(0.0)
            .with_budget(0.05)
            .with_metric(gofmm_core::DistanceMetric::Kernel)
            .with_policy(gofmm_core::TraversalPolicy::Sequential)
            .with_threads(2);
        let comp = gofmm_core::compress::<f64, _>(&k, &gofmm_cfg);
        let mut rng = StdRng::seed_from_u64(6);
        let w = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let exact = k.matvec_exact(&w);
        let e_hss = hss.matvec(&k, &w).sub(&exact).norm_fro() / exact.norm_fro();
        let (u_gofmm, _) = Evaluator::new(&k, comp).apply(&w).unwrap();
        let e_gofmm = u_gofmm.sub(&exact).norm_fro() / exact.norm_fro();
        assert!(
            e_gofmm < e_hss,
            "GOFMM ({e_gofmm}) should beat lexicographic HSS ({e_hss}) on scrambled input"
        );
    }
}
