//! Skeletonization: nested interpolative decompositions of the off-diagonal
//! blocks (paper §2.2, Algorithm 2.6).
//!
//! A node's skeletonization picks `s` representative columns (the skeleton)
//! out of its candidate columns — all of its indices for a leaf, the union of
//! the children's skeletons for an interior node — and an interpolation matrix
//! `P` such that `K_{I, cand} ≈ K_{I, skel} P`. The row set `I'` is sampled
//! with neighbor-based importance sampling (falling back to uniform sampling
//! when no neighbor information exists, e.g. for the lexicographic ordering).

use gofmm_linalg::{interpolative_decomposition, DenseMatrix, Scalar};
use gofmm_matrices::SpdMatrix;
use gofmm_tree::NeighborList;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// Skeleton basis of one tree node.
#[derive(Clone, Debug)]
pub struct NodeBasis<T: Scalar> {
    /// Original matrix indices selected as the node's skeleton.
    pub skeleton: Vec<usize>,
    /// Interpolation coefficients `P` (`rank x candidate_count`); candidate
    /// columns are the node's indices (leaf) or the concatenation of the
    /// children's skeletons (interior node), in that order.
    pub interp: DenseMatrix<T>,
    /// Estimate of the first rejected singular value (adaptive-rank
    /// diagnostic).
    pub residual: f64,
}

impl<T: Scalar> NodeBasis<T> {
    /// Skeleton rank of this node.
    pub fn rank(&self) -> usize {
        self.skeleton.len()
    }
}

/// Parameters of a single node skeletonization.
#[derive(Clone, Debug)]
pub struct SkelParams {
    /// Maximum rank `s`.
    pub max_rank: usize,
    /// Adaptive tolerance `tau` (0 disables the adaptive test).
    pub tolerance: f64,
    /// Number of rows sampled for the ID.
    pub sample_size: usize,
    /// RNG seed for the uniform part of the row sample.
    pub seed: u64,
}

/// Skeletonize one node.
///
/// * `columns` — candidate column indices (original matrix indices),
/// * `own` — all indices owned by the node (excluded from the row sample),
/// * `neighbors` — optional per-index neighbor lists for importance sampling.
pub fn skeletonize_node<T: Scalar, M: SpdMatrix<T> + ?Sized>(
    matrix: &M,
    columns: &[usize],
    own: &[usize],
    neighbors: Option<&NeighborList>,
    params: &SkelParams,
) -> NodeBasis<T> {
    let n = matrix.n();
    let own_set: HashSet<usize> = own.iter().copied().collect();
    let rows = sample_rows(n, columns, &own_set, neighbors, params);

    if rows.is_empty() || columns.is_empty() {
        // Degenerate case (e.g. the node covers the whole matrix): keep all
        // candidate columns with an identity interpolation.
        let rank = columns.len().min(params.max_rank.max(1));
        let mut interp = DenseMatrix::zeros(rank, columns.len());
        for k in 0..rank {
            interp.set(k, k, T::one());
        }
        return NodeBasis {
            skeleton: columns[..rank].to_vec(),
            interp,
            residual: 0.0,
        };
    }

    let block = matrix.submatrix(&rows, columns);
    let id = interpolative_decomposition(&block, params.max_rank, params.tolerance);
    let skeleton: Vec<usize> = id.skeleton.iter().map(|&c| columns[c]).collect();
    NodeBasis {
        skeleton,
        interp: id.interp,
        residual: id.residual_estimate,
    }
}

/// Neighbor-based importance sampling of the row set `I'` (paper §2.2 /
/// ASKIT): neighbors of the candidate columns that lie outside the node, then
/// uniform samples from the complement to fill up to `sample_size`.
fn sample_rows(
    n: usize,
    columns: &[usize],
    own: &HashSet<usize>,
    neighbors: Option<&NeighborList>,
    params: &SkelParams,
) -> Vec<usize> {
    let complement_size = n - own.len().min(n);
    let target = params.sample_size.min(complement_size);
    let mut chosen: Vec<usize> = Vec::with_capacity(target);
    let mut seen: HashSet<usize> = HashSet::with_capacity(target * 2);

    if let Some(nl) = neighbors {
        'outer: for &c in columns {
            for &(_, j) in nl.neighbors(c) {
                if !own.contains(&j) && seen.insert(j) {
                    chosen.push(j);
                    if chosen.len() >= target {
                        break 'outer;
                    }
                }
            }
        }
    }

    if chosen.len() < target {
        let mut rng = StdRng::seed_from_u64(params.seed);
        // Rejection-sample uniform rows from the complement.
        let mut attempts = 0usize;
        while chosen.len() < target && attempts < 50 * target + 100 {
            attempts += 1;
            let j = rng.gen_range(0..n);
            if !own.contains(&j) && seen.insert(j) {
                chosen.push(j);
            }
        }
        // If rejection sampling struggled (tiny complement), walk linearly.
        if chosen.len() < target {
            for j in 0..n {
                if chosen.len() >= target {
                    break;
                }
                if !own.contains(&j) && seen.insert(j) {
                    chosen.push(j);
                }
            }
        }
    }
    chosen
}

#[cfg(test)]
mod tests {
    use super::*;
    use gofmm_linalg::matmul;
    use gofmm_matrices::{DenseSpd, KernelMatrix, KernelType, PointCloud};

    fn gaussian_line_matrix(n: usize) -> KernelMatrix {
        let pts: Vec<f64> = (0..n).map(|i| i as f64 / n as f64).collect();
        KernelMatrix::new(
            PointCloud::from_vec(1, pts),
            KernelType::Gaussian { bandwidth: 0.5 },
            1e-8,
            "line",
        )
    }

    #[test]
    fn leaf_skeleton_reproduces_offdiagonal_block() {
        let n = 128;
        let k = gaussian_line_matrix(n);
        // Node owns indices 0..16; candidates are those same indices.
        let own: Vec<usize> = (0..16).collect();
        let params = SkelParams {
            max_rank: 16,
            tolerance: 1e-10,
            sample_size: 112,
            seed: 1,
        };
        let basis = skeletonize_node::<f64, _>(&k, &own, &own, None, &params);
        assert!(basis.rank() >= 1 && basis.rank() <= 16);
        // Check K[rest, own] ≈ K[rest, skel] * P on the full complement.
        let rest: Vec<usize> = (16..n).collect();
        let full = k.submatrix(&rest, &own);
        let skel_block: DenseMatrix<f64> = k.submatrix(&rest, &basis.skeleton);
        let approx = matmul(&skel_block, &basis.interp);
        let rel = approx.sub(&full).norm_fro() / full.norm_fro();
        assert!(rel < 1e-5, "relative error {rel}");
    }

    #[test]
    fn skeleton_indices_are_subset_of_candidates() {
        let n = 96;
        let k = gaussian_line_matrix(n);
        let own: Vec<usize> = (32..64).collect();
        let params = SkelParams {
            max_rank: 8,
            tolerance: 0.0,
            sample_size: 40,
            seed: 2,
        };
        let basis = skeletonize_node::<f64, _>(&k, &own, &own, None, &params);
        assert_eq!(basis.rank(), 8);
        for s in &basis.skeleton {
            assert!(own.contains(s));
        }
        assert_eq!(basis.interp.rows(), 8);
        assert_eq!(basis.interp.cols(), own.len());
    }

    #[test]
    fn adaptive_tolerance_reduces_rank_for_smooth_kernel() {
        let n = 200;
        let k = gaussian_line_matrix(n);
        let own: Vec<usize> = (0..64).collect();
        let tight = SkelParams {
            max_rank: 64,
            tolerance: 1e-12,
            sample_size: 136,
            seed: 3,
        };
        let loose = SkelParams {
            max_rank: 64,
            tolerance: 1e-2,
            sample_size: 136,
            seed: 3,
        };
        let b_tight = skeletonize_node::<f64, _>(&k, &own, &own, None, &tight);
        let b_loose = skeletonize_node::<f64, _>(&k, &own, &own, None, &loose);
        assert!(b_loose.rank() < b_tight.rank());
        assert!(b_loose.rank() >= 1);
    }

    #[test]
    fn neighbor_sampling_prefers_neighbor_rows() {
        let n = 64;
        let own: Vec<usize> = (0..8).collect();
        // Hand-built neighbor lists pointing at rows 8..16.
        let mut nl = gofmm_tree::NeighborList::new(n, 4);
        for i in 0..8 {
            for j in 8..12 {
                nl.insert(i, j, (j - i) as f64);
            }
        }
        let params = SkelParams {
            max_rank: 4,
            tolerance: 0.0,
            sample_size: 4,
            seed: 4,
        };
        let rows = sample_rows(n, &own, &own.iter().copied().collect(), Some(&nl), &params);
        assert_eq!(rows.len(), 4);
        assert!(rows.iter().all(|&r| (8..12).contains(&r)));
    }

    #[test]
    fn uniform_sampling_avoids_own_indices() {
        let params = SkelParams {
            max_rank: 4,
            tolerance: 0.0,
            sample_size: 20,
            seed: 5,
        };
        let own: HashSet<usize> = (0..30).collect();
        let rows = sample_rows(40, &(0..30).collect::<Vec<_>>(), &own, None, &params);
        assert_eq!(rows.len(), 10); // complement has only 10 rows
        assert!(rows.iter().all(|r| !own.contains(r)));
        let unique: HashSet<_> = rows.iter().collect();
        assert_eq!(unique.len(), rows.len());
    }

    #[test]
    fn degenerate_whole_matrix_node() {
        let k = gaussian_line_matrix(16);
        let own: Vec<usize> = (0..16).collect();
        let params = SkelParams {
            max_rank: 4,
            tolerance: 1e-6,
            sample_size: 8,
            seed: 6,
        };
        // Node owns everything: complement empty -> identity fallback.
        let basis = skeletonize_node::<f64, _>(&k, &own, &own, None, &params);
        assert_eq!(basis.rank(), 4);
        let ds: DenseSpd<f64> = DenseSpd::new(gofmm_linalg::DenseMatrix::identity(4), "eye");
        let _ = ds; // silence unused import lint for DenseSpd in this test file
    }

    #[test]
    fn nested_skeletonization_through_children() {
        // Two sibling leaves; the parent skeletonizes the union of their
        // skeletons and must still approximate its off-diagonal block.
        let n = 256;
        let k = gaussian_line_matrix(n);
        let left: Vec<usize> = (0..32).collect();
        let right: Vec<usize> = (32..64).collect();
        let parent_own: Vec<usize> = (0..64).collect();
        let params = SkelParams {
            max_rank: 24,
            tolerance: 1e-9,
            sample_size: 160,
            seed: 7,
        };
        let bl = skeletonize_node::<f64, _>(&k, &left, &left, None, &params);
        let br = skeletonize_node::<f64, _>(&k, &right, &right, None, &params);
        let mut cand = bl.skeleton.clone();
        cand.extend_from_slice(&br.skeleton);
        let bp = skeletonize_node::<f64, _>(&k, &cand, &parent_own, None, &params);
        assert!(bp.rank() <= cand.len());
        // Parent skeleton must be a subset of the children's skeletons (nesting).
        for s in &bp.skeleton {
            assert!(cand.contains(s));
        }
        // And it must approximate K[rest, cand].
        let rest: Vec<usize> = (64..n).collect();
        let full = k.submatrix(&rest, &cand);
        let skel_block: DenseMatrix<f64> = k.submatrix(&rest, &bp.skeleton);
        let approx = matmul(&skel_block, &bp.interp);
        let rel = approx.sub(&full).norm_fro() / full.norm_fro();
        assert!(rel < 1e-4, "parent relative error {rel}");
    }
}
