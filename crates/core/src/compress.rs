//! The compression phase (paper Algorithm 2.2): neighbor search, tree
//! partitioning, near/far pruning and skeletonization. Compression produces
//! structure only (tree, lists, bases); every interaction block's values are
//! evaluated from the matrix by the engine that stores them.

use crate::config::GofmmConfig;
use crate::distance::{DistanceMetric, GramOracle};
use crate::lists::{build_interaction_lists, InteractionLists};
use crate::skel::{skeletonize_node, NodeBasis, SkelParams};
use gofmm_linalg::Scalar;
use gofmm_matrices::SpdMatrix;
use gofmm_runtime::{DisjointCells, ExecStats, ReusablePlan};
use gofmm_tree::{
    ann_search, AnnConfig, DistanceOracle, NeighborList, PartitionTree, SplitRule, TreeOptions,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Timing and structural statistics gathered during compression.
#[derive(Clone, Debug, Default)]
pub struct CompressionStats {
    /// Total wall-clock compression time (seconds).
    pub total_time: f64,
    /// Time spent in the iterative neighbor search.
    pub ann_time: f64,
    /// Time spent building the metric ball tree.
    pub tree_time: f64,
    /// Time spent building Near/Far lists.
    pub lists_time: f64,
    /// Time spent in skeletonization (ID factorizations).
    pub skel_time: f64,
    /// Always `0.0`: compression caches no blocks. Kept for reports that
    /// still read it; the block evaluation now happens in evaluator
    /// construction (see `Evaluator::setup_time`).
    pub cache_time: f64,
    /// Average skeleton rank over all skeletonized nodes.
    pub avg_rank: f64,
    /// Maximum skeleton rank.
    pub max_rank: usize,
    /// Estimated recall of the neighbor search.
    pub ann_recall: f64,
    /// Number of near (direct) leaf block pairs.
    pub near_pairs: usize,
    /// Number of far (low-rank) node block pairs.
    pub far_pairs: usize,
    /// Estimated floating-point operations spent in skeletonization.
    pub flops: u64,
    /// Scheduler statistics of the skeletonization sweep, under every
    /// policy; `None` only when the tree is a single leaf.
    pub exec: Option<ExecStats>,
}

/// The compressed representation `K ≈ D + S + UV` produced by [`compress`].
#[derive(Debug)]
pub struct Compressed<T: Scalar> {
    /// The partition tree (permutation of the matrix).
    pub tree: PartitionTree,
    /// Near / Far interaction lists.
    pub lists: InteractionLists,
    /// Per-node skeleton bases (heap-indexed; `None` for the root and for
    /// trees of depth zero).
    pub bases: Vec<Option<NodeBasis<T>>>,
    /// Neighbor lists (kept for diagnostics and for baselines that reuse them).
    pub neighbors: Option<NeighborList>,
    /// The configuration used.
    pub config: GofmmConfig,
    /// Compression statistics.
    pub stats: CompressionStats,
}

impl<T: Scalar> Compressed<T> {
    /// Matrix dimension.
    pub fn n(&self) -> usize {
        self.tree.n()
    }

    /// Average skeleton rank (the paper reports this as "average rank").
    pub fn average_rank(&self) -> f64 {
        let ranks: Vec<usize> = self
            .bases
            .iter()
            .filter_map(|b| b.as_ref().map(|b| b.rank()))
            .collect();
        if ranks.is_empty() {
            0.0
        } else {
            ranks.iter().sum::<usize>() as f64 / ranks.len() as f64
        }
    }

    /// The skeleton basis of a node (`None` for the root and for trees of
    /// depth zero).
    pub fn basis(&self, heap: usize) -> Option<&NodeBasis<T>> {
        self.bases[heap].as_ref()
    }

    /// Approximate memory footprint of the compressed representation in bytes:
    /// the skeleton bases (interpolation matrices and skeleton indices). The
    /// interaction blocks live in an evaluator's panels
    /// (`Evaluator::cached_bytes`).
    pub fn memory_bytes(&self) -> usize {
        let scalar = std::mem::size_of::<T>();
        let mut total = 0usize;
        for b in self.bases.iter().flatten() {
            total += b.interp.rows() * b.interp.cols() * scalar;
            total += b.skeleton.len() * std::mem::size_of::<usize>();
        }
        total
    }
}

/// How a persistent engine (evaluator, hierarchical factorization, operator
/// handle) holds the compression it serves.
///
/// * `Borrowed` — the caller keeps the [`Compressed`] and the engine
///   references it (the classic construction path).
/// * `Owned` — the engine consumed the compression (`CompRef::from` a
///   [`Compressed`] by value).
/// * `Shared` — several engines serve the *same* compression behind an
///   [`Arc`](std::sync::Arc): the `GofmmOperator` front door builds its evaluator and its
///   factorization over one shared compression this way, which is what makes
///   the whole handle `'static`, `Send + Sync`, and cheap to share across
///   request-serving threads.
#[derive(Debug)]
pub enum CompRef<'a, T: Scalar> {
    /// Reference to a caller-owned compression.
    Borrowed(&'a Compressed<T>),
    /// Compression moved into the engine.
    Owned(Box<Compressed<T>>),
    /// Compression shared between engines.
    Shared(std::sync::Arc<Compressed<T>>),
}

impl<T: Scalar> std::ops::Deref for CompRef<'_, T> {
    type Target = Compressed<T>;
    fn deref(&self) -> &Compressed<T> {
        match self {
            CompRef::Borrowed(c) => c,
            CompRef::Owned(c) => c,
            CompRef::Shared(c) => c,
        }
    }
}

impl<'a, T: Scalar> From<&'a Compressed<T>> for CompRef<'a, T> {
    fn from(c: &'a Compressed<T>) -> Self {
        CompRef::Borrowed(c)
    }
}

impl<T: Scalar> From<Compressed<T>> for CompRef<'static, T> {
    fn from(c: Compressed<T>) -> Self {
        CompRef::Owned(Box::new(c))
    }
}

impl<T: Scalar> From<std::sync::Arc<Compressed<T>>> for CompRef<'static, T> {
    fn from(c: std::sync::Arc<Compressed<T>>) -> Self {
        CompRef::Shared(c)
    }
}

/// Oracle used for partitioning schemes that never query distances
/// (lexicographic and random ordering).
struct TrivialOracle(usize);

impl DistanceOracle for TrivialOracle {
    fn len(&self) -> usize {
        self.0
    }
    fn distance(&self, i: usize, j: usize) -> f64 {
        (i as f64 - j as f64).abs()
    }
}

/// Compress an SPD matrix into the hierarchical low-rank plus sparse form.
///
/// Convenience wrapper over [`try_compress`] that panics on invalid input
/// (empty matrix, out-of-range configuration, non-finite diagonal).
/// Services that must not panic call
/// [`try_compress`] and map the [`crate::Error`] themselves.
pub fn compress<T: Scalar, M: SpdMatrix<T> + ?Sized>(
    matrix: &M,
    config: &GofmmConfig,
) -> Compressed<T> {
    match try_compress(matrix, config) {
        Ok(comp) => comp,
        Err(err) => panic!("compress: {err}"),
    }
}

/// Fallible compression: the serving-grade boundary behind [`compress`].
///
/// Validates the input ([`crate::Error::EmptyInput`]) and the configuration
/// ([`GofmmConfig::validate`] → [`crate::Error::InvalidConfig`]) before doing
/// any work, and refuses a matrix with a NaN or infinite diagonal entry
/// ([`crate::Error::NonFiniteInput`]).
pub fn try_compress<T: Scalar, M: SpdMatrix<T> + ?Sized>(
    matrix: &M,
    config: &GofmmConfig,
) -> Result<Compressed<T>, crate::Error> {
    let n = matrix.n();
    if n == 0 {
        return Err(crate::Error::EmptyInput { what: "matrix" });
    }
    config.validate()?;
    let t_total = Instant::now();
    let mut stats = CompressionStats::default();

    // --- Neighbor search and tree partitioning ----------------------------
    let tree_opts = TreeOptions {
        leaf_size: config.leaf_size,
        centroid_samples: 32,
        split: match config.metric {
            DistanceMetric::Lexicographic => SplitRule::Lexicographic,
            DistanceMetric::Random => SplitRule::RandomShuffle,
            _ => SplitRule::FarthestPair,
        },
        seed: config.seed,
    };
    // A NaN or infinite diagonal (say, from a NaN coordinate) would surface
    // much later as an indefinite block; the distance metrics have the
    // diagonal at hand already.
    let oracle = config
        .metric
        .has_distance()
        .then(|| GramOracle::<T, M>::new(matrix, config.metric));
    let diagonal_finite = match &oracle {
        Some(oracle) => oracle.diagonal().iter().all(|d| d.is_finite()),
        None => (0..n).all(|i| matrix.diag(i).is_finite()),
    };
    if !diagonal_finite {
        return Err(crate::Error::NonFiniteInput {
            what: "matrix diagonal",
        });
    }
    let (tree, neighbors) = if let Some(oracle) = oracle {
        let t0 = Instant::now();
        let ann = ann_search(
            &oracle,
            &AnnConfig {
                k: config.neighbors,
                max_iters: config.ann_iters,
                target_recall: 0.8,
                leaf_size: config.leaf_size.max(4 * config.neighbors),
                recall_samples: 32,
                seed: config.seed.wrapping_add(17),
                num_threads: config.num_threads,
            },
        );
        stats.ann_time = t0.elapsed().as_secs_f64();
        stats.ann_recall = ann.estimated_recall;
        let t1 = Instant::now();
        let tree = PartitionTree::build(&oracle, &tree_opts);
        stats.tree_time = t1.elapsed().as_secs_f64();
        (tree, Some(ann.neighbors))
    } else {
        let t1 = Instant::now();
        let tree = PartitionTree::build(&TrivialOracle(n), &tree_opts);
        stats.tree_time = t1.elapsed().as_secs_f64();
        (tree, None)
    };

    // --- Near / Far lists ---------------------------------------------------
    let t2 = Instant::now();
    let lists = build_interaction_lists(&tree, neighbors.as_ref(), config);
    stats.lists_time = t2.elapsed().as_secs_f64();
    stats.near_pairs = lists.near_pair_count();
    stats.far_pairs = lists.far_pair_count();

    // --- Skeletonization ----------------------------------------------------
    let t3 = Instant::now();
    let (bases, exec) = skeletonize_all(matrix, &tree, neighbors.as_ref(), config, &mut stats);
    stats.skel_time = t3.elapsed().as_secs_f64();
    stats.exec = exec;

    let ranks: Vec<usize> = bases
        .iter()
        .filter_map(|b| b.as_ref().map(|b| b.rank()))
        .collect();
    stats.max_rank = ranks.iter().copied().max().unwrap_or(0);
    stats.avg_rank = if ranks.is_empty() {
        0.0
    } else {
        ranks.iter().sum::<usize>() as f64 / ranks.len() as f64
    };

    stats.total_time = t_total.elapsed().as_secs_f64();
    Ok(Compressed {
        tree,
        lists,
        bases,
        neighbors,
        config: config.clone(),
        stats,
    })
}

/// Skeletonize every non-root node with the configured traversal policy.
///
/// The per-node bases live in [`DisjointCells`]: each SKEL task writes its
/// own node's cell and reads its children's cells, and the plan orders that
/// access under every policy (by dependency edges, or by the barrier between
/// levels), so no cell ever needs a blocking lock.
fn skeletonize_all<T: Scalar, M: SpdMatrix<T> + ?Sized>(
    matrix: &M,
    tree: &PartitionTree,
    neighbors: Option<&NeighborList>,
    config: &GofmmConfig,
    stats: &mut CompressionStats,
) -> (Vec<Option<NodeBasis<T>>>, Option<ExecStats>) {
    let node_count = tree.node_count();
    if tree.depth() == 0 {
        return (vec![None; node_count], None);
    }
    let bases: DisjointCells<Option<NodeBasis<T>>> = DisjointCells::from_fn(node_count, |_| None);
    let flops = AtomicU64::new(0);

    let skel_one = |heap: usize| -> NodeBasis<T> {
        let own = tree.indices(heap);
        let columns: Vec<usize> = if tree.is_leaf(heap) {
            own.to_vec()
        } else {
            let (l, r) = tree.children(heap);
            let gl = bases.read(l);
            let gr = bases.read(r);
            let mut c = gl
                .as_ref()
                .expect("child skeleton missing (dependency violation)")
                .skeleton
                .clone();
            c.extend_from_slice(&gr.as_ref().unwrap().skeleton);
            c
        };
        let params = SkelParams {
            max_rank: config.max_rank,
            tolerance: config.tolerance,
            sample_size: config.effective_sample_size(),
            seed: config
                .seed
                .wrapping_add((heap as u64).wrapping_mul(0x9E3779B97F4A7C15)),
        };
        // Pivoted QR on an (sample x cols) block costs ~ 2 * rows * cols^2.
        flops.fetch_add(
            2 * params.sample_size as u64 * (columns.len() as u64).pow(2),
            Ordering::Relaxed,
        );
        skeletonize_node(matrix, &columns, own, neighbors, &params)
    };

    let m = config.leaf_size as f64;
    let s = config.max_rank as f64;
    let mut plan = ReusablePlan::new();
    plan.add_bottom_up(
        "SKEL",
        tree.node_count(),
        |heap| heap == 0,
        |heap| {
            if tree.is_leaf(heap) {
                2.0 * m * m * m
            } else {
                2.0 * s * s * s
            }
        },
    );
    let exec = plan.run(config.policy, config.num_threads, |_, heap| {
        bases.set(heap, Some(skel_one(heap)))
    });

    stats.flops += flops.load(Ordering::Relaxed);
    (bases.into_inner(), Some(exec))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TraversalPolicy;
    use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};

    fn small_kernel_matrix(n: usize) -> KernelMatrix {
        KernelMatrix::new(
            PointCloud::uniform(n, 3, 5),
            KernelType::Gaussian { bandwidth: 0.8 },
            1e-6,
            "test",
        )
    }

    /// A zero-dimensional SPD matrix, for exercising the empty-input error.
    struct EmptyMatrix;

    impl gofmm_matrices::SpdMatrix<f64> for EmptyMatrix {
        fn n(&self) -> usize {
            0
        }
        fn entry(&self, _: usize, _: usize) -> f64 {
            unreachable!("empty matrix has no entries")
        }
    }

    #[test]
    fn try_compress_rejects_empty_input_and_invalid_config() {
        match try_compress::<f64, _>(&EmptyMatrix, &base_config()) {
            Err(crate::Error::EmptyInput { what }) => assert_eq!(what, "matrix"),
            other => panic!("expected EmptyInput, got {other:?}"),
        }
        let k = small_kernel_matrix(64);
        let cases = [
            base_config().with_leaf_size(0),
            base_config().with_max_rank(0),
            base_config().with_tolerance(-1e-3),
            base_config().with_tolerance(f64::NAN),
            base_config().with_budget(-0.5),
            base_config().with_budget(1.5),
        ];
        for cfg in cases {
            match try_compress::<f64, _>(&k, &cfg) {
                Err(crate::Error::InvalidConfig { what, .. }) => {
                    assert!(!what.is_empty());
                }
                other => panic!("config {cfg:?} must be rejected, got {other:?}"),
            }
        }
    }

    #[test]
    #[should_panic(expected = "matrix is empty")]
    fn compress_wrapper_panics_with_the_error_message() {
        let _ = compress::<f64, _>(&EmptyMatrix, &base_config());
    }

    fn base_config() -> GofmmConfig {
        GofmmConfig::default()
            .with_leaf_size(32)
            .with_max_rank(32)
            .with_tolerance(1e-7)
            .with_threads(2)
            .with_policy(TraversalPolicy::Sequential)
    }

    #[test]
    fn compress_produces_bases_for_all_nonroot_nodes() {
        let k = small_kernel_matrix(256);
        let comp: Compressed<f64> = compress(&k, &base_config());
        assert_eq!(comp.n(), 256);
        assert!(comp.bases[0].is_none());
        for heap in 1..comp.tree.node_count() {
            let b = comp.bases[heap].as_ref().expect("missing basis");
            assert!(b.rank() >= 1);
            assert!(b.rank() <= 32);
        }
        assert!(comp.average_rank() > 0.0);
        assert!(comp.stats.total_time > 0.0);
        assert!(comp.stats.max_rank <= 32);
        assert!(comp.memory_bytes() > 0);
    }

    #[test]
    fn skeletons_are_nested() {
        let k = small_kernel_matrix(256);
        let comp: Compressed<f64> = compress(&k, &base_config());
        for heap in 1..comp.tree.node_count() {
            if comp.tree.is_leaf(heap) {
                continue;
            }
            let (l, r) = comp.tree.children(heap);
            let parent = &comp.bases[heap].as_ref().unwrap().skeleton;
            let mut child_union: Vec<usize> = comp.bases[l].as_ref().unwrap().skeleton.clone();
            child_union.extend_from_slice(&comp.bases[r].as_ref().unwrap().skeleton);
            for s in parent {
                assert!(child_union.contains(s), "skeleton nesting violated");
            }
        }
    }

    #[test]
    fn skeleton_indices_belong_to_their_node() {
        let k = small_kernel_matrix(200);
        let comp: Compressed<f64> = compress(&k, &base_config());
        for heap in 1..comp.tree.node_count() {
            let own: std::collections::HashSet<usize> =
                comp.tree.indices(heap).iter().copied().collect();
            for s in &comp.bases[heap].as_ref().unwrap().skeleton {
                assert!(own.contains(s));
            }
        }
    }

    #[test]
    fn all_policies_produce_valid_compressions() {
        let k = small_kernel_matrix(200);
        for policy in [
            TraversalPolicy::Sequential,
            TraversalPolicy::LevelByLevel,
            TraversalPolicy::DagHeft,
            TraversalPolicy::DagFifo,
        ] {
            let cfg = base_config().with_policy(policy);
            let comp: Compressed<f64> = compress(&k, &cfg);
            for heap in 1..comp.tree.node_count() {
                assert!(comp.bases[heap].is_some(), "{policy}: node {heap} missing");
            }
            assert!(comp.stats.exec.is_some(), "{policy}: no exec stats");
        }
    }

    #[test]
    fn lexicographic_and_random_metrics_skip_ann() {
        let k = small_kernel_matrix(128);
        for metric in [DistanceMetric::Lexicographic, DistanceMetric::Random] {
            let cfg = base_config().with_metric(metric).with_budget(0.0);
            let comp: Compressed<f64> = compress(&k, &cfg);
            assert!(comp.neighbors.is_none());
            assert_eq!(comp.stats.ann_time, 0.0);
            // HSS structure: every leaf is near only to itself.
            for leaf in comp.tree.leaf_range() {
                assert_eq!(comp.lists.near[leaf], vec![leaf]);
            }
        }
    }

    #[test]
    fn single_leaf_matrix_compresses_trivially() {
        let k = small_kernel_matrix(20);
        let cfg = base_config().with_leaf_size(64);
        let comp: Compressed<f64> = compress(&k, &cfg);
        assert_eq!(comp.tree.leaf_count(), 1);
        assert!(comp.bases.iter().all(|b| b.is_none()));
        assert_eq!(comp.average_rank(), 0.0);
    }
}
