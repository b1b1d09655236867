//! Property-based tests for the partition tree, its heap-index ancestry and
//! the neighbor search.

use gofmm_runtime::{heap_is_ancestor_or_self, heap_parent};
use gofmm_tree::{
    ann_search, exact_knn, AnnConfig, PartitionTree, PointOracle, SplitRule, TreeOptions,
};
use proptest::prelude::*;

fn arb_points(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<f64>> {
    (8..=max_n).prop_flat_map(move |n| prop::collection::vec(-10.0f64..10.0, n * dim))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every index appears exactly once across the leaves, leaves respect the
    /// size bound, and perm is a permutation of `0..n` — for any point set,
    /// leaf size and split rule.
    #[test]
    fn tree_partition_invariants(
        pts in arb_points(300, 2),
        leaf_size in 4usize..40,
        rule_idx in 0usize..4,
        seed in 0u64..500,
    ) {
        let rule = [
            SplitRule::FarthestPair,
            SplitRule::RandomPair,
            SplitRule::Lexicographic,
            SplitRule::RandomShuffle,
        ][rule_idx];
        let oracle = PointOracle::new(&pts, 2);
        let n = oracle_len(&pts, 2);
        let tree = PartitionTree::build(
            &oracle,
            &TreeOptions { leaf_size, split: rule, seed, ..Default::default() },
        );
        prop_assert_eq!(tree.n(), n);
        let mut seen = vec![false; n];
        for leaf in tree.leaf_range() {
            prop_assert!(tree.node(leaf).len <= leaf_size);
            for &i in tree.indices(leaf) {
                prop_assert!(!seen[i]);
                seen[i] = true;
            }
        }
        prop_assert!(seen.into_iter().all(|s| s));
        let mut sorted = tree.perm().to_vec();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..n).collect::<Vec<_>>());
    }

    /// A node's index range is always the concatenation of its children's
    /// ranges, and every node is an ancestor-or-self (by heap index, the
    /// paper's Morton ID) of the leaves of all indices it owns.
    #[test]
    fn tree_hierarchy_invariants(
        pts in arb_points(200, 3),
        leaf_size in 4usize..32,
        seed in 0u64..500,
    ) {
        let oracle = PointOracle::new(&pts, 3);
        let tree = PartitionTree::build(
            &oracle,
            &TreeOptions { leaf_size, seed, ..Default::default() },
        );
        for heap in 0..tree.node_count() {
            if !tree.is_leaf(heap) {
                let (l, r) = tree.children(heap);
                prop_assert_eq!(tree.node(l).len + tree.node(r).len, tree.node(heap).len);
                prop_assert_eq!(tree.node(l).start, tree.node(heap).start);
                prop_assert_eq!(tree.node(r).start, tree.node(heap).start + tree.node(l).len);
                prop_assert_eq!(tree.parent(l), Some(heap));
            }
            for &i in tree.indices(heap) {
                prop_assert!(heap_is_ancestor_or_self(heap, tree.leaf_containing(i)));
            }
        }
    }

    /// The approximate neighbor lists never contain the query index itself,
    /// never contain duplicates, are sorted by distance, and every reported
    /// distance is at least the true k-th nearest distance (they cannot be
    /// better than exact).
    #[test]
    fn ann_list_invariants(pts in arb_points(160, 2), k in 2usize..8, seed in 0u64..500) {
        let oracle = PointOracle::new(&pts, 2);
        let res = ann_search(
            &oracle,
            &AnnConfig { k, leaf_size: 24, max_iters: 3, seed, num_threads: 2, ..Default::default() },
        );
        let n = oracle_len(&pts, 2);
        for i in 0..n {
            let list = res.neighbors.neighbors(i);
            prop_assert!(list.len() <= k);
            let mut prev = 0.0f64;
            let mut seen = std::collections::HashSet::new();
            for &(d, j) in list {
                prop_assert!(j != i);
                prop_assert!(seen.insert(j));
                prop_assert!(d >= prev);
                prev = d;
                // Reported distance matches the oracle.
                prop_assert!((d - oracle_dist(&pts, 2, i, j)).abs() < 1e-9);
            }
            // The best reported distance cannot beat the true nearest neighbor.
            if let (Some(&(d0, _)), Some(&(t0, _))) =
                (list.first(), exact_knn(&oracle, i, 1).first())
            {
                prop_assert!(d0 + 1e-12 >= t0);
            }
        }
    }
}

fn oracle_len(pts: &[f64], dim: usize) -> usize {
    pts.len() / dim
}

fn oracle_dist(pts: &[f64], dim: usize, i: usize, j: usize) -> f64 {
    let mut acc = 0.0;
    for d in 0..dim {
        let t = pts[i * dim + d] - pts[j * dim + d];
        acc += t * t;
    }
    acc.sqrt()
}

/// The heap index's ancestor test (the paper's Morton-ID prefix test): a node
/// is an ancestor-or-self of another exactly when walking up parents from the
/// other reaches it — for every pair of nodes in a heap of depth 8.
#[test]
fn morton_properties() {
    let node_count = (1usize << 9) - 1;
    for node in 0..node_count {
        let mut path = vec![node];
        while let Some(p) = heap_parent(*path.last().unwrap()) {
            path.push(p);
        }
        assert_eq!(path.last(), Some(&0), "every walk ends at the root");
        for ancestor in 0..node_count {
            assert_eq!(
                heap_is_ancestor_or_self(ancestor, node),
                path.contains(&ancestor),
                "({ancestor}, {node})"
            );
        }
    }
}
