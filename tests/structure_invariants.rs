//! Cross-crate structural invariants and property-based tests of the GOFMM
//! pipeline.

use gofmm_suite::core::{
    check_coverage, compress, DistanceMetric, Evaluator, GofmmConfig, TraversalPolicy,
};
use gofmm_suite::matrices::{KernelMatrix, KernelType, PointCloud};
use proptest::prelude::*;

fn kernel_matrix(n: usize, dim: usize, bandwidth: f64, seed: u64) -> KernelMatrix {
    KernelMatrix::new(
        PointCloud::uniform(n, dim, seed),
        KernelType::Gaussian { bandwidth },
        1e-6,
        "prop",
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// For any leaf size, budget and metric, the near/far lists must tile the
    /// set of leaf pairs exactly once (no double counting, no gaps).
    #[test]
    fn interaction_lists_always_cover_exactly_once(
        n in 96usize..320,
        leaf_size in 16usize..48,
        budget in 0.0f64..0.5,
        metric_idx in 0usize..3,
        seed in 0u64..1000,
    ) {
        let metric = [DistanceMetric::Angle, DistanceMetric::Kernel, DistanceMetric::Lexicographic][metric_idx];
        let k = kernel_matrix(n, 3, 0.8, seed);
        let cfg = GofmmConfig::default()
            .with_leaf_size(leaf_size)
            .with_max_rank(24)
            .with_tolerance(1e-4)
            .with_budget(budget)
            .with_metric(metric)
            .with_policy(TraversalPolicy::Sequential)
            .with_seed(seed);
        let comp = compress::<f64, _>(&k, &cfg);
        prop_assert!(check_coverage(&comp.tree, &comp.lists).is_ok());
    }

    /// Skeleton ranks never exceed the configured cap, and every skeleton
    /// index belongs to the node that owns it.
    #[test]
    fn skeleton_ranks_and_ownership(
        n in 128usize..384,
        max_rank in 8usize..48,
        seed in 0u64..1000,
    ) {
        let k = kernel_matrix(n, 2, 1.0, seed);
        let cfg = GofmmConfig::default()
            .with_leaf_size(32)
            .with_max_rank(max_rank)
            .with_tolerance(0.0)
            .with_budget(0.05)
            .with_policy(TraversalPolicy::Sequential)
            .with_seed(seed);
        let comp = compress::<f64, _>(&k, &cfg);
        for heap in 1..comp.tree.node_count() {
            let basis = comp.bases[heap].as_ref().unwrap();
            prop_assert!(basis.rank() <= max_rank);
            let own: std::collections::HashSet<usize> =
                comp.tree.indices(heap).iter().copied().collect();
            for s in &basis.skeleton {
                prop_assert!(own.contains(s));
            }
        }
    }

    /// The tree permutation is always a bijection over 0..n.
    #[test]
    fn permutation_is_bijective(n in 64usize..512, leaf in 8usize..64, seed in 0u64..1000) {
        let k = kernel_matrix(n, 2, 0.6, seed);
        let cfg = GofmmConfig::default()
            .with_leaf_size(leaf)
            .with_max_rank(16)
            .with_budget(0.0)
            .with_policy(TraversalPolicy::Sequential)
            .with_seed(seed);
        let comp = compress::<f64, _>(&k, &cfg);
        let mut seen = vec![false; n];
        for &p in comp.tree.perm() {
            prop_assert!(!seen[p]);
            seen[p] = true;
        }
        prop_assert!(seen.into_iter().all(|x| x));
    }
}

#[test]
fn memory_grows_subquadratically() {
    // Compressed memory — the bases plus the evaluator's interaction panels —
    // should grow roughly like N log N, far slower than N^2: doubling N
    // should far less than quadruple the footprint.
    let mut sizes = Vec::new();
    for &n in &[512usize, 1024, 2048] {
        let k = kernel_matrix(n, 3, 1.0, 7);
        let cfg = GofmmConfig::default()
            .with_leaf_size(64)
            .with_max_rank(64)
            .with_tolerance(1e-5)
            .with_budget(0.03)
            .with_policy(TraversalPolicy::LevelByLevel)
            .with_threads(4);
        let comp = compress::<f64, _>(&k, &cfg);
        let panels = Evaluator::new(&k, &comp).cached_bytes();
        sizes.push((comp.memory_bytes() + panels) as f64);
    }
    let growth1 = sizes[1] / sizes[0];
    let growth2 = sizes[2] / sizes[1];
    assert!(growth1 < 3.5, "512->1024 growth {growth1}");
    assert!(growth2 < 3.5, "1024->2048 growth {growth2}");
    // And the largest is far below dense storage (2048^2 * 8 bytes = 33 MB).
    assert!(sizes[2] < 0.5 * 2048.0 * 2048.0 * 8.0);
}

#[test]
fn hss_budget_zero_has_no_extra_near_blocks() {
    let k = kernel_matrix(1024, 3, 1.0, 9);
    let cfg = GofmmConfig::default()
        .with_leaf_size(64)
        .with_max_rank(32)
        .with_budget(0.0)
        .with_policy(TraversalPolicy::Sequential);
    let comp = compress::<f64, _>(&k, &cfg);
    assert_eq!(comp.stats.near_pairs, comp.tree.leaf_count());
}

#[test]
fn compressed_operator_is_symmetric() {
    // The paper's claim: "GOFMM guarantees symmetry of K~". Because the Near
    // lists are symmetrized and the far blocks reuse the same skeletons and
    // interpolation matrices on both sides, applying K~ to basis vectors must
    // give a symmetric matrix (up to round-off).
    use gofmm_suite::linalg::DenseMatrix;
    let n = 256;
    let k = kernel_matrix(n, 3, 0.8, 21);
    let cfg = GofmmConfig::default()
        .with_leaf_size(32)
        .with_max_rank(24)
        .with_tolerance(1e-4)
        .with_budget(0.1)
        .with_metric(DistanceMetric::Angle)
        .with_policy(TraversalPolicy::Sequential);
    let comp = compress::<f64, _>(&k, &cfg);
    // Apply K~ to a block of standard basis vectors and check pairwise
    // symmetry of the resulting columns.
    let cols: Vec<usize> = (0..n).step_by(17).collect();
    let mut basis = DenseMatrix::<f64>::zeros(n, cols.len());
    for (c, &i) in cols.iter().enumerate() {
        basis[(i, c)] = 1.0;
    }
    let (ktilde_cols, _) = Evaluator::new(&k, comp).apply(&basis).unwrap();
    let scale = ktilde_cols.norm_max();
    for (a, &i) in cols.iter().enumerate() {
        for (b, &j) in cols.iter().enumerate() {
            let kij = ktilde_cols[(j, a)]; // (K~ e_i)_j
            let kji = ktilde_cols[(i, b)]; // (K~ e_j)_i
            assert!(
                (kij - kji).abs() <= 1e-10 * scale.max(1.0),
                "K~ not symmetric at ({i},{j}): {kij} vs {kji}"
            );
        }
    }
}

#[test]
fn dag_runtime_handles_large_random_graphs() {
    // Stress the HEFT, FIFO and level-by-level executors with a randomized
    // layered DAG and verify that every task runs exactly once and in
    // dependency order.
    use gofmm_suite::runtime::{ReusablePlan, TraversalPolicy};
    use std::sync::atomic::{AtomicUsize, Ordering};
    let layers = 12;
    let width = 40;
    let finished: Vec<AtomicUsize> = (0..layers * width).map(|_| AtomicUsize::new(0)).collect();
    for policy in [
        TraversalPolicy::DagHeft,
        TraversalPolicy::DagFifo,
        TraversalPolicy::LevelByLevel,
    ] {
        // Each task depends on up to three pseudo-random tasks of the
        // previous layer.
        let dep_idxs = |idx: usize| -> Vec<usize> {
            let (layer, w) = (idx / width, idx % width);
            if layer == 0 {
                Vec::new()
            } else {
                (0..3)
                    .map(|d| (layer - 1) * width + (w * 7 + d * 13 + layer) % width)
                    .collect()
            }
        };
        let mut plan = ReusablePlan::new();
        for layer in 0..layers {
            for w in 0..width {
                let idx = layer * width + w;
                let deps: Vec<(&'static str, usize)> =
                    dep_idxs(idx).iter().map(|&d| ("t", d)).collect();
                plan.add("t", idx, (w % 5) as f64 + 1.0, &deps);
            }
        }
        let stats = plan.run(policy, 8, |_, idx| {
            // All dependencies must have completed already.
            for d in dep_idxs(idx) {
                assert!(
                    finished[d].load(Ordering::SeqCst) > 0,
                    "dependency {d} not done"
                );
            }
            finished[idx].fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(stats.tasks_executed, layers * width);
        for f in finished.iter() {
            assert_eq!(f.swap(0, Ordering::SeqCst), 1);
        }
    }
}
