//! Interaction lists: per-index neighbors, per-leaf Near lists and per-node
//! Far lists (paper §2.2, Algorithms 2.3–2.5).
//!
//! The Near list of a leaf decides which off-diagonal blocks are evaluated
//! directly (the sparse correction `S`); everything else is covered by the Far
//! lists through low-rank skeleton interactions. The `budget` parameter limits
//! the Near lists by vote counting, which is how GOFMM interpolates between a
//! pure HSS approximation (budget 0) and a full FMM.

use crate::config::GofmmConfig;
use gofmm_tree::{NeighborList, PartitionTree};
use std::collections::{HashMap, HashSet};

/// Near and Far interaction lists for every tree node.
#[derive(Clone, Debug)]
pub struct InteractionLists {
    /// For each leaf (indexed by heap index): the heap indices of near leaves
    /// (always contains the leaf itself, first). Empty for interior nodes.
    ///
    /// Symmetric: `α ∈ near[β]` exactly when `β ∈ near[α]`, so with an SPD
    /// `K` the pair's two blocks are transposes, `K_{αβ} = K_{βα}^T`. An
    /// evaluator may therefore store one of them: the lower heap index owns
    /// each off-diagonal pair and serves both leaves from its block.
    pub near: Vec<Vec<usize>>,
    /// For each node (heap index): heap indices of far nodes whose interaction
    /// is compressed through skeletons.
    pub far: Vec<Vec<usize>>,
}

impl InteractionLists {
    /// Total number of near-list entries: ordered leaf pairs `(β, α)`, each
    /// self pair `(β, β)` included — the size of the sparse correction in
    /// blocks. Each off-diagonal pair counts twice, once per direction.
    pub fn near_pair_count(&self) -> usize {
        self.near.iter().map(|l| l.len()).sum()
    }

    /// Total number of far node pairs (number of low-rank blocks).
    pub fn far_pair_count(&self) -> usize {
        self.far.iter().map(|l| l.len()).sum()
    }
}

/// Build Near and Far lists from the tree and (optionally) the neighbor lists.
///
/// Without neighbor information (lexicographic / random partitioning, or
/// budget 0) the Near list of every leaf is just the leaf itself, which yields
/// the HSS structure.
pub fn build_interaction_lists(
    tree: &PartitionTree,
    neighbors: Option<&NeighborList>,
    config: &GofmmConfig,
) -> InteractionLists {
    let node_count = tree.node_count();
    let leaf_count = tree.leaf_count();
    let max_near = config.max_near(leaf_count);
    let mut near: Vec<Vec<usize>> = vec![Vec::new(); node_count];

    // --- Near lists (LeafNear with budget voting) -------------------------
    for leaf in tree.leaf_range() {
        let mut votes: HashMap<usize, usize> = HashMap::new();
        if let Some(nl) = neighbors {
            if !config.is_hss() {
                for &i in tree.indices(leaf) {
                    for &(_, j) in nl.neighbors(i) {
                        let lj = tree.leaf_containing(j);
                        if lj != leaf {
                            *votes.entry(lj).or_insert(0) += 1;
                        }
                    }
                }
            }
        }
        let mut list = vec![leaf];
        let mut candidates: Vec<(usize, usize)> = votes.into_iter().collect();
        // Highest vote count first; ties broken by heap index for determinism.
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        for (cand, _) in candidates {
            if list.len() >= max_near {
                break;
            }
            list.push(cand);
        }
        near[leaf] = list;
    }

    // Symmetrize: if alpha in Near(beta) then beta in Near(alpha).
    let mut to_add: Vec<(usize, usize)> = Vec::new();
    for leaf in tree.leaf_range() {
        for &other in &near[leaf] {
            if other != leaf && !near[other].contains(&leaf) {
                to_add.push((other, leaf));
            }
        }
    }
    for (node, extra) in to_add {
        near[node].push(extra);
    }

    // --- Far lists (FindFar per leaf, then MergeFar) -----------------------
    let mut far: Vec<Vec<usize>> = vec![Vec::new(); node_count];
    for leaf in tree.leaf_range() {
        let near_mortons: Vec<_> = near[leaf].iter().map(|&h| tree.node(h).morton).collect();
        let mut out = Vec::new();
        find_far(tree, 0, &near_mortons, &mut out);
        far[leaf] = out;
    }

    // MergeFar: bottom-up, move the intersection of the children's Far lists
    // into the parent.
    if tree.depth() > 0 {
        for level in (0..tree.depth()).rev() {
            for heap in tree.level_range(level) {
                let (l, r) = tree.children(heap);
                let set_l: HashSet<usize> = far[l].iter().copied().collect();
                let common: Vec<usize> = far[r]
                    .iter()
                    .copied()
                    .filter(|h| set_l.contains(h))
                    .collect();
                if common.is_empty() {
                    continue;
                }
                let common_set: HashSet<usize> = common.iter().copied().collect();
                far[l].retain(|h| !common_set.contains(h));
                far[r].retain(|h| !common_set.contains(h));
                far[heap] = common;
            }
        }
    }

    InteractionLists { near, far }
}

/// Recursive FindFar (Algorithm 2.4): walk down from `node`; whenever a
/// subtree contains no leaf from `Near(beta)`, add it to the Far list,
/// otherwise recurse.
fn find_far(
    tree: &PartitionTree,
    node: usize,
    near_mortons: &[gofmm_tree::MortonId],
    out: &mut Vec<usize>,
) {
    let m = tree.node(node).morton;
    let contains_near = near_mortons.iter().any(|nm| m.is_ancestor_of(*nm));
    if contains_near {
        if tree.is_leaf(node) {
            // The node itself is a near leaf: handled by direct evaluation.
            return;
        }
        let (l, r) = tree.children(node);
        find_far(tree, l, near_mortons, out);
        find_far(tree, r, near_mortons, out);
    } else {
        out.push(node);
    }
}

/// Verify that the near/far structure covers every leaf pair exactly once:
/// for every ordered pair of leaves `(beta, alpha)`, either `alpha` is in
/// `Near(beta)` or exactly one ancestor pair `(B, A)` with `beta ⊆ B`,
/// `alpha ⊆ A` has `A ∈ Far(B)`. Returns an error string describing the first
/// violation. Used by tests and debug assertions.
pub fn check_coverage(tree: &PartitionTree, lists: &InteractionLists) -> Result<(), String> {
    for beta in tree.leaf_range() {
        for alpha in tree.leaf_range() {
            let near_hit = lists.near[beta].contains(&alpha);
            // Count ancestor pairs (B, A) with A in Far(B).
            let mut far_hits = 0;
            let mut b = beta;
            loop {
                let mut a = alpha;
                loop {
                    if lists.far[b].contains(&a) {
                        far_hits += 1;
                    }
                    match tree.parent(a) {
                        Some(p) => a = p,
                        None => break,
                    }
                }
                match tree.parent(b) {
                    Some(p) => b = p,
                    None => break,
                }
            }
            let total = usize::from(near_hit) + far_hits;
            if total != 1 {
                return Err(format!(
                    "leaf pair ({beta},{alpha}) covered {total} times (near={near_hit}, far={far_hits})"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GofmmConfig;
    use crate::distance::DistanceMetric;
    use gofmm_tree::{ann_search, AnnConfig, PartitionTree, PointOracle, SplitRule, TreeOptions};

    fn line_tree(n: usize, leaf_size: usize) -> (Vec<f64>, PartitionTree) {
        let pts: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let tree = {
            let oracle = PointOracle::new(&pts, 1);
            PartitionTree::build(
                &oracle,
                &TreeOptions {
                    leaf_size,
                    split: SplitRule::FarthestPair,
                    ..Default::default()
                },
            )
        };
        (pts, tree)
    }

    #[test]
    fn hss_lists_have_single_near_and_sibling_far() {
        let (_pts, tree) = line_tree(64, 8);
        let cfg = GofmmConfig::default().with_budget(0.0).with_leaf_size(8);
        let lists = build_interaction_lists(&tree, None, &cfg);
        for leaf in tree.leaf_range() {
            assert_eq!(lists.near[leaf], vec![leaf]);
        }
        // In HSS every non-root node's Far list is exactly its sibling.
        for heap in 1..tree.node_count() {
            let parent = tree.parent(heap).unwrap();
            let (l, r) = tree.children(parent);
            let sibling = if heap == l { r } else { l };
            assert_eq!(lists.far[heap], vec![sibling], "node {heap}");
        }
        assert!(lists.far[0].is_empty());
        check_coverage(&tree, &lists).unwrap();
    }

    #[test]
    fn fmm_lists_cover_every_pair_exactly_once() {
        let (pts, tree) = line_tree(128, 8);
        let oracle = PointOracle::new(&pts, 1);
        let ann = ann_search(
            &oracle,
            &AnnConfig {
                k: 8,
                leaf_size: 16,
                max_iters: 6,
                ..Default::default()
            },
        );
        for budget in [0.1, 0.3, 1.0] {
            let cfg = GofmmConfig::default().with_budget(budget).with_leaf_size(8);
            let lists = build_interaction_lists(&tree, Some(&ann.neighbors), &cfg);
            check_coverage(&tree, &lists).unwrap();
        }
    }

    #[test]
    fn near_lists_are_symmetric() {
        let (pts, tree) = line_tree(128, 16);
        let oracle = PointOracle::new(&pts, 1);
        let ann = ann_search(
            &oracle,
            &AnnConfig {
                k: 8,
                leaf_size: 32,
                max_iters: 4,
                ..Default::default()
            },
        );
        let cfg = GofmmConfig::default().with_budget(0.5).with_leaf_size(16);
        let lists = build_interaction_lists(&tree, Some(&ann.neighbors), &cfg);
        for beta in tree.leaf_range() {
            for &alpha in &lists.near[beta] {
                assert!(
                    lists.near[alpha].contains(&beta),
                    "near list not symmetric for ({beta},{alpha})"
                );
            }
        }
    }

    #[test]
    fn budget_limits_near_size_before_symmetrization() {
        let (pts, tree) = line_tree(256, 8);
        let oracle = PointOracle::new(&pts, 1);
        let ann = ann_search(
            &oracle,
            &AnnConfig {
                k: 16,
                leaf_size: 16,
                max_iters: 6,
                ..Default::default()
            },
        );
        let leaf_count = tree.leaf_count();
        let small = GofmmConfig::default().with_budget(0.05).with_leaf_size(8);
        let large = GofmmConfig::default().with_budget(0.5).with_leaf_size(8);
        let l_small = build_interaction_lists(&tree, Some(&ann.neighbors), &small);
        let l_large = build_interaction_lists(&tree, Some(&ann.neighbors), &large);
        assert!(l_small.near_pair_count() <= l_large.near_pair_count());
        // Direct-evaluation share grows with the budget.
        assert!(l_large.near_pair_count() > leaf_count);
        // Far blocks shrink (or stay equal) when more pairs are near.
        assert!(l_large.far_pair_count() <= l_small.far_pair_count() + leaf_count * leaf_count);
        check_coverage(&tree, &l_small).unwrap();
        check_coverage(&tree, &l_large).unwrap();
    }

    #[test]
    fn single_leaf_tree_has_no_far() {
        let (_pts, tree) = line_tree(10, 64);
        let cfg = GofmmConfig::default().with_budget(0.0);
        let lists = build_interaction_lists(&tree, None, &cfg);
        assert_eq!(lists.near[0], vec![0]);
        assert!(lists.far[0].is_empty());
        check_coverage(&tree, &lists).unwrap();
    }

    #[test]
    fn full_budget_reduces_to_dense_near() {
        // budget 1.0 allows every leaf in every Near list provided votes exist;
        // neighbors that span all leaves make most pairs direct.
        let (pts, tree) = line_tree(64, 8);
        let oracle = PointOracle::new(&pts, 1);
        let ann = ann_search(
            &oracle,
            &AnnConfig {
                k: 48,
                leaf_size: 64,
                max_iters: 2,
                ..Default::default()
            },
        );
        let cfg = GofmmConfig {
            budget: 1.0,
            leaf_size: 8,
            metric: DistanceMetric::Kernel,
            ..Default::default()
        };
        let lists = build_interaction_lists(&tree, Some(&ann.neighbors), &cfg);
        check_coverage(&tree, &lists).unwrap();
        let near_pairs = lists.near_pair_count();
        assert!(
            near_pairs > tree.leaf_count() * 2,
            "near pairs {near_pairs}"
        );
    }
}
