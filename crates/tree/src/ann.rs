//! Iterative all-nearest-neighbor (ANN) search with randomized projection
//! trees.
//!
//! GOFMM's compression needs, for every matrix index `i`, the `kappa` indices
//! `j` with the smallest distance `d_ij` (paper §2.2, "Index nearest neighbor
//! list"). The search is greedy and iterative: build a randomized projection
//! tree, exhaustively search within every leaf, merge candidates into the
//! per-index neighbor lists, and repeat until the estimated recall reaches 80%
//! or a fixed number of iterations (10 in the paper).

use crate::oracle::DistanceOracle;
use crate::tree::{PartitionTree, SplitRule, TreeOptions};
use gofmm_runtime::parallel_for;
use std::sync::Mutex;

/// Per-index lists of (distance, neighbor) pairs, ascending by distance.
#[derive(Clone, Debug)]
pub struct NeighborList {
    k: usize,
    lists: Vec<Vec<(f64, usize)>>,
}

impl NeighborList {
    /// Empty neighbor lists for `n` indices with capacity `k` per index.
    pub fn new(n: usize, k: usize) -> Self {
        Self {
            k,
            lists: vec![Vec::with_capacity(k + 1); n],
        }
    }

    /// Number of indices.
    pub fn len(&self) -> usize {
        self.lists.len()
    }

    /// True if there are no indices.
    pub fn is_empty(&self) -> bool {
        self.lists.is_empty()
    }

    /// Neighbor capacity per index (the paper's `kappa`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Candidate insertion; keeps the `k` smallest distances, excludes self
    /// pairs and duplicates.
    pub fn insert(&mut self, i: usize, j: usize, d: f64) {
        insert_into(&mut self.lists[i], self.k, j, d, i);
    }

    /// Sorted `(distance, neighbor)` pairs for index `i`.
    pub fn neighbors(&self, i: usize) -> &[(f64, usize)] {
        &self.lists[i]
    }

    /// Neighbor indices only.
    pub fn neighbor_indices(&self, i: usize) -> Vec<usize> {
        self.lists[i].iter().map(|&(_, j)| j).collect()
    }
}

fn insert_into(list: &mut Vec<(f64, usize)>, k: usize, j: usize, d: f64, me: usize) {
    if j == me || !d.is_finite() {
        return;
    }
    // The k-th distance rejects nearly every candidate of a full list, so it
    // goes before the duplicate scan.
    if list.len() == k && list.last().is_some_and(|last| last.0 <= d) {
        return;
    }
    if list.iter().any(|&(_, idx)| idx == j) {
        return;
    }
    let pos = list.partition_point(|&(dist, _)| dist <= d);
    list.insert(pos, (d, j));
    if list.len() > k {
        list.pop();
    }
}

/// Configuration of the iterative ANN search.
#[derive(Clone, Debug)]
pub struct AnnConfig {
    /// Number of neighbors per index (`kappa`).
    pub k: usize,
    /// Maximum number of randomized-tree iterations.
    pub max_iters: usize,
    /// Target recall; iteration stops early once the estimated recall of the
    /// current lists reaches this value (the paper uses 0.8).
    pub target_recall: f64,
    /// Leaf size of the randomized projection trees.
    pub leaf_size: usize,
    /// Number of indices sampled for the recall estimate.
    pub recall_samples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads used for the per-leaf exhaustive searches.
    pub num_threads: usize,
}

impl Default for AnnConfig {
    fn default() -> Self {
        Self {
            k: 32,
            max_iters: 10,
            target_recall: 0.8,
            leaf_size: 256,
            recall_samples: 32,
            seed: 7,
            num_threads: 1,
        }
    }
}

/// Result of the ANN search.
#[derive(Clone, Debug)]
pub struct AnnResult {
    /// The per-index neighbor lists.
    pub neighbors: NeighborList,
    /// Estimated recall against exact neighbors on a sampled subset.
    pub estimated_recall: f64,
    /// Number of randomized-tree iterations performed.
    pub iterations: usize,
}

/// Run the iterative randomized-tree ANN search.
pub fn ann_search<O: DistanceOracle>(oracle: &O, cfg: &AnnConfig) -> AnnResult {
    let n = oracle.len();
    let k = cfg.k.min(n.saturating_sub(1)).max(1);
    let shared: Vec<Mutex<Vec<(f64, usize)>>> = (0..n)
        .map(|_| Mutex::new(Vec::with_capacity(k + 1)))
        .collect();

    let exact = recall_samples(oracle, k, cfg);
    let mut iterations = 0;
    let mut recall = 0.0;
    for iter in 0..cfg.max_iters.max(1) {
        iterations = iter + 1;
        let tree = PartitionTree::build(
            oracle,
            &TreeOptions {
                leaf_size: cfg.leaf_size,
                split: SplitRule::RandomPair,
                seed: cfg
                    .seed
                    .wrapping_add(iter as u64)
                    .wrapping_mul(0x9E3779B97F4A7C15),
                ..Default::default()
            },
        );
        // Exhaustive search inside every leaf; leaves own disjoint indices so
        // the per-index mutexes never contend across leaves.
        let leaves: Vec<usize> = tree.leaf_range().collect();
        parallel_for(leaves.len(), cfg.num_threads, |li| {
            let idx = tree.indices(leaves[li]);
            let len = idx.len();
            if len < 2 {
                return;
            }
            // The leaf's distance block in one oracle call.
            let mut dist = vec![0.0; len * len];
            oracle.distance_block(idx, idx, &mut dist);
            // One lock per index; its candidates arrive in leaf order, which
            // is what breaks distance ties. `insert_into` drops the self pair.
            for (&i, col) in idx.iter().zip(dist.chunks_exact(len)) {
                let mut list = shared[i].lock().expect(LOCK_POISONED);
                for (&j, &d) in idx.iter().zip(col) {
                    insert_into(&mut list, k, j, d, i);
                }
            }
        });

        recall = estimate_recall(&exact, &shared);
        if recall >= cfg.target_recall {
            break;
        }
    }

    let lists: Vec<Vec<(f64, usize)>> = shared
        .into_iter()
        .map(|m| m.into_inner().expect(LOCK_POISONED))
        .collect();
    AnnResult {
        neighbors: NeighborList { k, lists },
        estimated_recall: recall,
        iterations,
    }
}

/// Exact k-nearest neighbors of one index by exhaustive scan (testing and
/// recall estimation).
pub fn exact_knn<O: DistanceOracle>(oracle: &O, i: usize, k: usize) -> Vec<(f64, usize)> {
    let all: Vec<usize> = (0..oracle.len()).collect();
    let mut dist = vec![0.0; all.len()];
    oracle.distance_block(&all, &[i], &mut dist);
    let mut list = Vec::with_capacity(k + 1);
    for (j, d) in dist.into_iter().enumerate() {
        insert_into(&mut list, k, j, d, i);
    }
    list
}

/// Why a neighbor-list lock can only be poisoned by a bug in this module.
const LOCK_POISONED: &str = "a leaf search panicked while holding a neighbor list";

/// The sampled indices of the recall estimate with their exact neighbors:
/// fixed for the whole search, so computed once, not once per iteration.
fn recall_samples<O: DistanceOracle>(
    oracle: &O,
    k: usize,
    cfg: &AnnConfig,
) -> Vec<(usize, Vec<usize>)> {
    let n = oracle.len();
    if n <= 1 {
        return Vec::new();
    }
    let samples = cfg.recall_samples.clamp(1, n);
    let stride = (n / samples).max(1);
    let mut exact = Vec::with_capacity(samples);
    let mut total = 0usize;
    let mut i = 0usize;
    while i < n && total < samples * k {
        let ids: Vec<usize> = exact_knn(oracle, i, k).iter().map(|&(_, j)| j).collect();
        total += ids.len();
        exact.push((i, ids));
        i += stride;
    }
    exact
}

/// Share of the samples' exact neighbors present in the current lists.
fn estimate_recall(exact: &[(usize, Vec<usize>)], shared: &[Mutex<Vec<(f64, usize)>>]) -> f64 {
    let mut hit = 0usize;
    let mut total = 0usize;
    for (i, ids) in exact {
        let current = shared[*i].lock().expect(LOCK_POISONED);
        total += ids.len();
        hit += ids
            .iter()
            .filter(|&&j| current.iter().any(|&(_, c)| c == j))
            .count();
    }
    if total == 0 {
        1.0
    } else {
        hit as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::PointOracle;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn neighbor_list_keeps_k_smallest() {
        let mut nl = NeighborList::new(4, 3);
        nl.insert(0, 1, 5.0);
        nl.insert(0, 2, 1.0);
        nl.insert(0, 3, 3.0);
        nl.insert(0, 1, 5.0); // duplicate ignored
        nl.insert(0, 0, 0.0); // self ignored
        assert_eq!(nl.neighbor_indices(0), vec![2, 3, 1]);
        // Inserting a closer one evicts the farthest.
        let mut nl2 = NeighborList::new(4, 2);
        nl2.insert(0, 1, 5.0);
        nl2.insert(0, 2, 1.0);
        nl2.insert(0, 3, 0.5);
        assert_eq!(nl2.neighbor_indices(0), vec![3, 2]);
        assert_eq!(nl2.k(), 2);
        assert!(!nl2.is_empty());
    }

    #[test]
    fn exact_knn_on_line() {
        let pts: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let o = PointOracle::new(&pts, 1);
        let nn = exact_knn(&o, 5, 3);
        let ids: Vec<usize> = nn.iter().map(|&(_, j)| j).collect();
        assert_eq!(ids.len(), 3);
        assert!(ids.contains(&4) && ids.contains(&6));
    }

    #[test]
    fn ann_achieves_good_recall_on_clustered_points() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut pts = Vec::new();
        // 8 clusters of 32 points in 2-D.
        for c in 0..8 {
            let cx = (c % 4) as f64 * 10.0;
            let cy = (c / 4) as f64 * 10.0;
            for _ in 0..32 {
                pts.push(cx + rng.gen::<f64>());
                pts.push(cy + rng.gen::<f64>());
            }
        }
        let o = PointOracle::new(&pts, 2);
        let res = ann_search(
            &o,
            &AnnConfig {
                k: 8,
                leaf_size: 48,
                max_iters: 10,
                target_recall: 0.95,
                num_threads: 2,
                ..Default::default()
            },
        );
        assert!(
            res.estimated_recall >= 0.7,
            "recall {} after {} iterations",
            res.estimated_recall,
            res.iterations
        );
        // Check average recall against exact neighbors over a spread of
        // indices (the search is approximate, so individual indices may be
        // worse than the mean).
        let mut hits = 0usize;
        let mut total = 0usize;
        for i in (0..o.len()).step_by(13) {
            let exact: std::collections::HashSet<usize> =
                exact_knn(&o, i, 8).into_iter().map(|(_, j)| j).collect();
            let found = res.neighbors.neighbor_indices(i);
            hits += found.iter().filter(|j| exact.contains(j)).count();
            total += 8;
        }
        let measured = hits as f64 / total as f64;
        assert!(measured >= 0.6, "measured recall {measured}");
    }

    #[test]
    fn ann_small_input_is_exact() {
        let pts: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let o = PointOracle::new(&pts, 1);
        let res = ann_search(
            &o,
            &AnnConfig {
                k: 3,
                leaf_size: 16, // single leaf -> exhaustive
                max_iters: 1,
                ..Default::default()
            },
        );
        assert!((res.estimated_recall - 1.0).abs() < 1e-12);
        for i in 0..12 {
            let exact: Vec<usize> = exact_knn(&o, i, 3).into_iter().map(|(_, j)| j).collect();
            let got = res.neighbors.neighbor_indices(i);
            assert_eq!(
                got.iter().collect::<std::collections::HashSet<_>>(),
                exact.iter().collect::<std::collections::HashSet<_>>()
            );
        }
    }

    #[test]
    fn neighbor_lists_never_contain_self_or_duplicates() {
        let mut rng = StdRng::seed_from_u64(17);
        let pts: Vec<f64> = (0..256).map(|_| rng.gen::<f64>()).collect();
        let o = PointOracle::new(&pts, 1);
        let res = ann_search(
            &o,
            &AnnConfig {
                k: 6,
                leaf_size: 32,
                max_iters: 4,
                ..Default::default()
            },
        );
        for i in 0..o.len() {
            let ids = res.neighbors.neighbor_indices(i);
            assert!(!ids.contains(&i));
            let set: std::collections::HashSet<_> = ids.iter().collect();
            assert_eq!(set.len(), ids.len());
            // Distances sorted ascending.
            let ds: Vec<f64> = res.neighbors.neighbors(i).iter().map(|&(d, _)| d).collect();
            for w in ds.windows(2) {
                assert!(w[0] <= w[1]);
            }
        }
    }
}
