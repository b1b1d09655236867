//! Balanced binary partition trees ("metric ball trees").
//!
//! GOFMM permutes the SPD matrix by recursively splitting the index set with
//! `metricSplit` (Algorithm 2.1 of the paper): pick the point `p` farthest
//! from an approximate centroid, the point `q` farthest from `p`, and split
//! the node's indices at the median of `d(i,p) - d(i,q)`. The same structure
//! with random `p`, `q` gives the randomized projection trees used by the
//! neighbor search.

use crate::oracle::DistanceOracle;
use gofmm_runtime::{heap_children, heap_parent};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One node of a [`PartitionTree`], owning a contiguous range of the permuted
/// index order.
#[derive(Clone, Copy, Debug, Default)]
pub struct TreeNode {
    /// Start of this node's index range within [`PartitionTree::perm`].
    pub start: usize,
    /// Number of indices owned by this node.
    pub len: usize,
}

/// How to choose the split direction at interior nodes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SplitRule {
    /// `metricSplit`: farthest-point pair through an approximate centroid.
    FarthestPair,
    /// Random pair of points (randomized projection tree).
    RandomPair,
    /// Keep the current (lexicographic) order: no distance queries at all.
    Lexicographic,
    /// Random shuffle at the root, then even splits.
    RandomShuffle,
}

/// Options controlling tree construction.
#[derive(Clone, Debug)]
pub struct TreeOptions {
    /// Maximum number of indices per leaf (the paper's `m`).
    pub leaf_size: usize,
    /// Number of sampled Gram vectors used for the approximate centroid
    /// (`n_c` in the paper, an O(1) constant).
    pub centroid_samples: usize,
    /// Split rule.
    pub split: SplitRule,
    /// RNG seed (sampling, random pairs, shuffling).
    pub seed: u64,
}

impl Default for TreeOptions {
    fn default() -> Self {
        Self {
            leaf_size: 256,
            centroid_samples: 32,
            split: SplitRule::FarthestPair,
            seed: 0,
        }
    }
}

/// A complete balanced binary partition tree over matrix indices `0..n`.
///
/// Nodes are stored in heap (level) order: the root is `nodes[0]` and node `k`
/// has children `2k+1` and `2k+2` (the arithmetic lives in
/// [`gofmm_runtime::heap_children`] and [`gofmm_runtime::heap_parent`]). The
/// heap index is the only node identity: it carries what the paper's Morton
/// IDs carry, and [`gofmm_runtime::heap_is_ancestor_or_self`] is their
/// ancestor test. Every node owns a contiguous slice of the permutation
/// vector `perm`, so the leaf ranges concatenate to the full permuted index
/// order used to reorder the matrix.
#[derive(Clone, Debug)]
pub struct PartitionTree {
    n: usize,
    depth: u32,
    nodes: Vec<TreeNode>,
    perm: Vec<usize>,
    leaf_of: Vec<usize>,
}

impl PartitionTree {
    /// Build a partition tree using distances from `oracle`.
    pub fn build<O: DistanceOracle>(oracle: &O, opts: &TreeOptions) -> Self {
        let n = oracle.len();
        assert!(n > 0, "cannot build a tree over an empty index set");
        let leaf_size = opts.leaf_size.max(1);
        // Smallest depth such that ceil(n / 2^depth) <= leaf_size.
        let mut depth = 0u32;
        while n.div_ceil(1usize << depth) > leaf_size {
            depth += 1;
        }
        let mut rng = StdRng::seed_from_u64(opts.seed);
        let mut perm: Vec<usize> = (0..n).collect();
        if opts.split == SplitRule::RandomShuffle {
            perm.shuffle(&mut rng);
        }
        // Split every interior node's range, parents before children (heap
        // order is level order), so each child's range holds its half.
        let nodes = node_ranges(n, depth);
        for node in &nodes[..(1usize << depth) - 1] {
            let seed = rng.gen::<u64>();
            split_range(
                oracle,
                &mut perm[node.start..node.start + node.len],
                opts,
                seed,
            );
        }
        Self::from_perm(n, depth, perm)
    }

    /// Assemble a tree from the index count, depth and final permutation.
    /// [`PartitionTree::build`] ends here, and a reopened store rebuilds its
    /// tree here: everything else a [`PartitionTree`] holds (node ranges,
    /// leaf ownership) is a deterministic function of `(n, depth, perm)`,
    /// because ranges always split evenly (`left_len = len.div_ceil(2)`). The
    /// storage tier therefore persists only those three.
    pub fn from_perm(n: usize, depth: u32, perm: Vec<usize>) -> Self {
        assert!(n > 0, "cannot build a tree over an empty index set");
        assert_eq!(perm.len(), n, "permutation length must equal n");
        let nodes = node_ranges(n, depth);
        let mut leaf_of = vec![0usize; n];
        let leaf_first = (1usize << depth) - 1;
        for (heap, node) in nodes.iter().enumerate().skip(leaf_first) {
            for &orig in &perm[node.start..node.start + node.len] {
                leaf_of[orig] = heap;
            }
        }
        Self {
            n,
            depth,
            nodes,
            perm,
            leaf_of,
        }
    }

    /// Number of matrix indices.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Leaf level (root is level 0).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Total number of tree nodes (interior + leaves).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of leaf nodes.
    pub fn leaf_count(&self) -> usize {
        1usize << self.depth
    }

    /// Heap indices of the leaves.
    pub fn leaf_range(&self) -> std::ops::Range<usize> {
        ((1usize << self.depth) - 1)..self.node_count()
    }

    /// Heap indices of the nodes at `level`.
    pub fn level_range(&self, level: u32) -> std::ops::Range<usize> {
        ((1usize << level) - 1)..((1usize << (level + 1)) - 1)
    }

    /// Node accessor by heap index.
    pub fn node(&self, heap: usize) -> &TreeNode {
        &self.nodes[heap]
    }

    /// True if `heap` is a leaf.
    pub fn is_leaf(&self, heap: usize) -> bool {
        heap_children(heap, self.nodes.len()).is_none()
    }

    /// Heap indices of the children of an interior node.
    ///
    /// # Panics
    /// Panics if `heap` is a leaf.
    pub fn children(&self, heap: usize) -> (usize, usize) {
        heap_children(heap, self.nodes.len()).expect("a leaf has no children")
    }

    /// Heap index of the parent; `None` for the root.
    pub fn parent(&self, heap: usize) -> Option<usize> {
        heap_parent(heap)
    }

    /// Original matrix indices owned by a node, in permuted order.
    pub fn indices(&self, heap: usize) -> &[usize] {
        let node = &self.nodes[heap];
        &self.perm[node.start..node.start + node.len]
    }

    /// The full permutation: `perm[pos]` is the original index at permuted
    /// position `pos`.
    pub fn perm(&self) -> &[usize] {
        &self.perm
    }

    /// Heap index of the leaf that owns original index `i`.
    pub fn leaf_containing(&self, i: usize) -> usize {
        self.leaf_of[i]
    }
}

/// Node ranges of a depth-`depth` tree over `n` indices, in heap order: the
/// root owns `0..n` and every interior node gives its left child the first
/// `len.div_ceil(2)` of its indices.
fn node_ranges(n: usize, depth: u32) -> Vec<TreeNode> {
    let node_count = (1usize << (depth + 1)) - 1;
    let mut nodes = vec![TreeNode::default(); node_count];
    nodes[0].len = n;
    for heap in 0..(1usize << depth) - 1 {
        let TreeNode { start, len } = nodes[heap];
        let (l, r) = heap_children(heap, node_count).expect("interior node");
        let left_len = len.div_ceil(2);
        nodes[l] = TreeNode {
            start,
            len: left_len,
        };
        nodes[r] = TreeNode {
            start: start + left_len,
            len: len - left_len,
        };
    }
    nodes
}

/// Split (reorder in place) the indices of one node so that the first half is
/// "closer to p" and the second half "closer to q".
fn split_range<O: DistanceOracle>(oracle: &O, idx: &mut [usize], opts: &TreeOptions, seed: u64) {
    let len = idx.len();
    if len < 2 {
        return;
    }
    match opts.split {
        SplitRule::Lexicographic | SplitRule::RandomShuffle => {
            // Order is already what it should be; even split happens by range.
        }
        SplitRule::FarthestPair | SplitRule::RandomPair => {
            let mut rng = StdRng::seed_from_u64(seed);
            // The columns d(., p) and d(., q), each evaluated once.
            let mut d_pq = vec![0.0; 2 * len];
            if opts.split == SplitRule::RandomPair {
                let p = idx[rng.gen_range(0..len)];
                let mut q = idx[rng.gen_range(0..len)];
                // Ensure distinct picks when possible.
                for _ in 0..4 {
                    if q != p {
                        break;
                    }
                    q = idx[rng.gen_range(0..len)];
                }
                oracle.distance_block(idx, &[p, q], &mut d_pq);
            } else {
                // Approximate centroid from a small sample.
                let nc = opts.centroid_samples.clamp(1, len);
                let sample: Vec<usize> = idx.choose_multiple(&mut rng, nc).copied().collect();
                let d_c = oracle.distances_to_centroid(&sample, idx);
                let p = idx[argmax(&d_c)];
                let (d_p, d_q) = d_pq.split_at_mut(len);
                oracle.distance_block(idx, &[p], d_p);
                let q = idx[argmax(d_p)];
                oracle.distance_block(idx, &[q], d_q);
            }
            let (d_p, d_q) = d_pq.split_at(len);
            // Projection value d(i,p) - d(i,q): small = close to p.
            let mut keyed: Vec<(f64, usize)> = idx
                .iter()
                .zip(d_p.iter().zip(d_q))
                .map(|(&i, (dp, dq))| (dp - dq, i))
                .collect();
            keyed.sort_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.1.cmp(&b.1))
            });
            for (slot, (_, i)) in idx.iter_mut().zip(keyed) {
                *slot = i;
            }
        }
    }
}

fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, x) in v.iter().enumerate() {
        if *x > v[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::PointOracle;
    use gofmm_runtime::heap_is_ancestor_or_self;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn grid_points_1d(n: usize) -> Vec<f64> {
        (0..n).map(|i| i as f64).collect()
    }

    #[test]
    fn tree_covers_all_indices_exactly_once() {
        let pts = grid_points_1d(100);
        let oracle = PointOracle::new(&pts, 1);
        let tree = PartitionTree::build(
            &oracle,
            &TreeOptions {
                leaf_size: 8,
                ..Default::default()
            },
        );
        let mut seen = [false; 100];
        for leaf in tree.leaf_range() {
            for &i in tree.indices(leaf) {
                assert!(!seen[i], "index {i} appears twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(tree.leaf_range().all(|h| tree.node(h).len <= 8));
        assert_eq!(tree.leaf_count(), 16);
    }

    #[test]
    fn from_parts_replays_a_built_tree() {
        let pts = grid_points_1d(77);
        let oracle = PointOracle::new(&pts, 1);
        let tree = PartitionTree::build(
            &oracle,
            &TreeOptions {
                leaf_size: 10,
                ..Default::default()
            },
        );
        let replay = PartitionTree::from_perm(tree.n(), tree.depth(), tree.perm().to_vec());
        assert_eq!(replay.n(), tree.n());
        assert_eq!(replay.depth(), tree.depth());
        assert_eq!(replay.node_count(), tree.node_count());
        for h in 0..tree.node_count() {
            let (a, b) = (tree.node(h), replay.node(h));
            assert_eq!((a.start, a.len), (b.start, b.len));
        }
        assert_eq!(replay.perm(), tree.perm());
        for i in 0..tree.n() {
            assert_eq!(replay.leaf_containing(i), tree.leaf_containing(i));
        }
    }

    #[test]
    fn children_partition_parent() {
        let pts = grid_points_1d(64);
        let oracle = PointOracle::new(&pts, 1);
        let tree = PartitionTree::build(
            &oracle,
            &TreeOptions {
                leaf_size: 4,
                ..Default::default()
            },
        );
        for heap in 0..tree.node_count() {
            if tree.is_leaf(heap) {
                continue;
            }
            let (l, r) = tree.children(heap);
            let node = tree.node(heap);
            let ln = tree.node(l);
            let rn = tree.node(r);
            assert_eq!(ln.start, node.start);
            assert_eq!(rn.start, node.start + ln.len);
            assert_eq!(ln.len + rn.len, node.len);
            assert_eq!(tree.parent(l), Some(heap));
            assert_eq!(tree.parent(r), Some(heap));
        }
        assert_eq!(tree.parent(0), None);
    }

    #[test]
    fn metric_split_separates_line_clusters() {
        // Two well separated 1-D clusters must end up in different root children.
        let mut pts = Vec::new();
        for i in 0..32 {
            pts.push(i as f64 * 0.01);
        }
        for i in 0..32 {
            pts.push(100.0 + i as f64 * 0.01);
        }
        let oracle = PointOracle::new(&pts, 1);
        let tree = PartitionTree::build(
            &oracle,
            &TreeOptions {
                leaf_size: 32,
                ..Default::default()
            },
        );
        let (l, r) = tree.children(0);
        let left_set: std::collections::HashSet<_> = tree.indices(l).iter().copied().collect();
        let right_set: std::collections::HashSet<_> = tree.indices(r).iter().copied().collect();
        // One child holds cluster A (indices < 32), the other cluster B.
        let left_in_a = left_set.iter().filter(|&&i| i < 32).count();
        let right_in_a = right_set.iter().filter(|&&i| i < 32).count();
        assert!(
            (left_in_a == 32 && right_in_a == 0) || (left_in_a == 0 && right_in_a == 32),
            "clusters were not separated: {left_in_a} / {right_in_a}"
        );
    }

    /// The heap index is the paper's Morton ID: the leaf that owns an index
    /// holds it, and a node is an ancestor-or-self of that leaf exactly when
    /// it owns the index.
    #[test]
    fn morton_ids_match_tree_structure() {
        let pts = grid_points_1d(40);
        let oracle = PointOracle::new(&pts, 1);
        let tree = PartitionTree::build(
            &oracle,
            &TreeOptions {
                leaf_size: 5,
                ..Default::default()
            },
        );
        for i in 0..40 {
            let leaf = tree.leaf_containing(i);
            assert!(tree.is_leaf(leaf));
            assert!(tree.indices(leaf).contains(&i));
            for heap in 0..tree.node_count() {
                assert_eq!(
                    heap_is_ancestor_or_self(heap, leaf),
                    tree.indices(heap).contains(&i),
                    "node {heap}, index {i}"
                );
            }
        }
    }

    #[test]
    fn single_leaf_tree_when_n_small() {
        let pts = grid_points_1d(10);
        let oracle = PointOracle::new(&pts, 1);
        let tree = PartitionTree::build(
            &oracle,
            &TreeOptions {
                leaf_size: 64,
                ..Default::default()
            },
        );
        assert_eq!(tree.depth(), 0);
        assert_eq!(tree.leaf_count(), 1);
        assert_eq!(tree.indices(0).len(), 10);
    }

    #[test]
    fn lexicographic_split_preserves_order() {
        let pts = grid_points_1d(32);
        let oracle = PointOracle::new(&pts, 1);
        let tree = PartitionTree::build(
            &oracle,
            &TreeOptions {
                leaf_size: 4,
                split: SplitRule::Lexicographic,
                ..Default::default()
            },
        );
        assert_eq!(tree.perm(), (0..32).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn random_trees_differ_with_seed() {
        let mut rng = StdRng::seed_from_u64(99);
        let pts: Vec<f64> = (0..128).map(|_| rng.gen::<f64>()).collect();
        let oracle = PointOracle::new(&pts, 1);
        let t1 = PartitionTree::build(
            &oracle,
            &TreeOptions {
                leaf_size: 8,
                split: SplitRule::RandomPair,
                seed: 1,
                ..Default::default()
            },
        );
        let t2 = PartitionTree::build(
            &oracle,
            &TreeOptions {
                leaf_size: 8,
                split: SplitRule::RandomPair,
                seed: 2,
                ..Default::default()
            },
        );
        assert_ne!(t1.perm(), t2.perm());
    }

    #[test]
    fn odd_sizes_stay_balanced() {
        let pts = grid_points_1d(101);
        let oracle = PointOracle::new(&pts, 1);
        let tree = PartitionTree::build(
            &oracle,
            &TreeOptions {
                leaf_size: 7,
                ..Default::default()
            },
        );
        // ceil(101 / 16) = 7, so depth must be 4 and every leaf has <= 7 indices.
        assert_eq!(tree.depth(), 4);
        for leaf in tree.leaf_range() {
            assert!(tree.node(leaf).len <= 7);
            assert!(tree.node(leaf).len >= 6);
        }
    }
}
