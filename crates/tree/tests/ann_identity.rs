//! Result identity of the neighbor search: `ann_search` evaluates a leaf's
//! distance block once and merges each index's candidates under one lock,
//! rejecting on the k-th distance before the duplicate scan. This file keeps
//! the search it replaced — one pair at a time, both lists updated per pair,
//! duplicate scan first, recall samples recomputed every iteration — as the
//! reference, and requires the same lists from both: index for index,
//! distance bit for bit, with the same recall estimate and iteration count.
//!
//! Exact distance ties are where an insertion order could show, so one cloud
//! repeats every point four times (zero distances, and every other distance
//! four times over).

use gofmm_tree::{
    ann_search, AnnConfig, DistanceOracle, PartitionTree, PointOracle, SplitRule, TreeOptions,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

type List = Vec<(f64, usize)>;

/// The retired insertion: self and non-finite, duplicate scan, k-th
/// distance, sorted insert after equal distances.
fn reference_insert(list: &mut List, k: usize, j: usize, d: f64, me: usize) {
    if j == me || !d.is_finite() {
        return;
    }
    if list.iter().any(|&(_, idx)| idx == j) {
        return;
    }
    if list.len() == k && list.last().is_some_and(|last| last.0 <= d) {
        return;
    }
    let pos = list.partition_point(|&(dist, _)| dist <= d);
    list.insert(pos, (d, j));
    if list.len() > k {
        list.pop();
    }
}

fn reference_recall(oracle: &PointOracle<'_>, lists: &[List], k: usize, cfg: &AnnConfig) -> f64 {
    let n = oracle.len();
    let samples = cfg.recall_samples.clamp(1, n);
    let stride = (n / samples).max(1);
    let (mut hit, mut total, mut i) = (0usize, 0usize, 0usize);
    while i < n && total < samples * k {
        let mut exact = List::new();
        for j in 0..n {
            reference_insert(&mut exact, k, j, oracle.distance(i, j), i);
        }
        let current: HashSet<usize> = lists[i].iter().map(|&(_, j)| j).collect();
        total += exact.len();
        hit += exact.iter().filter(|(_, j)| current.contains(j)).count();
        i += stride;
    }
    hit as f64 / total as f64
}

/// The retired search, sequential: per leaf, per pair, both lists at once.
fn reference_search(oracle: &PointOracle<'_>, cfg: &AnnConfig) -> (Vec<List>, f64, usize) {
    let n = oracle.len();
    let k = cfg.k.min(n - 1).max(1);
    let mut lists = vec![List::new(); n];
    let mut recall = 0.0;
    let mut iterations = 0;
    for iter in 0..cfg.max_iters {
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
        for leaf in tree.leaf_range() {
            let idx = tree.indices(leaf);
            for (a, &i) in idx.iter().enumerate() {
                for &j in &idx[a + 1..] {
                    let d = oracle.distance(i, j);
                    reference_insert(&mut lists[i], k, j, d, i);
                    reference_insert(&mut lists[j], k, i, d, j);
                }
            }
        }
        recall = reference_recall(oracle, &lists, k, cfg);
        if recall >= cfg.target_recall {
            break;
        }
    }
    (lists, recall, iterations)
}

fn uniform_cloud(n: usize, dim: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n * dim).map(|_| rng.gen::<f64>()).collect()
}

/// `n / 4` uniform points, each stored four times, copies far apart in index.
fn duplicated_cloud(n: usize, dim: usize, seed: u64) -> Vec<f64> {
    let distinct = uniform_cloud(n / 4, dim, seed);
    let mut pts = Vec::with_capacity(n * dim);
    for _ in 0..4 {
        pts.extend_from_slice(&distinct);
    }
    pts
}

fn assert_identical(name: &str, pts: &[f64], dim: usize, cfg: &AnnConfig) {
    let oracle = PointOracle::new(pts, dim);
    let (lists, recall, iterations) = reference_search(&oracle, cfg);
    for threads in [1, 2] {
        let got = ann_search(
            &oracle,
            &AnnConfig {
                num_threads: threads,
                ..cfg.clone()
            },
        );
        let label = format!("{name}, {threads} thread(s)");
        assert_eq!(got.iterations, iterations, "{label}: iterations");
        assert_eq!(
            got.estimated_recall.to_bits(),
            recall.to_bits(),
            "{label}: recall estimate"
        );
        // Index and distance bits of every entry, in list order.
        let entries = |l: &[(f64, usize)]| -> Vec<(usize, u64)> {
            l.iter().map(|&(d, j)| (j, d.to_bits())).collect()
        };
        for (i, want) in lists.iter().enumerate() {
            let have = got.neighbors.neighbors(i);
            assert_eq!(entries(have), entries(want), "{label}: list of {i}");
        }
    }
}

#[test]
fn uniform_clouds_give_the_lists_of_the_per_pair_search() {
    // Recall target out of reach: all four iterations run.
    let cfg = AnnConfig {
        k: 16,
        leaf_size: 64,
        max_iters: 4,
        target_recall: 2.0,
        ..Default::default()
    };
    assert_identical("3-D", &uniform_cloud(1500, 3, 11), 3, &cfg);
    assert_identical("6-D", &uniform_cloud(1024, 6, 12), 6, &cfg);
    // The default stopping rule, lists shorter than a leaf and n - 1 < k.
    let early = AnnConfig {
        leaf_size: 128,
        ..Default::default()
    };
    assert_identical("3-D, default stop", &uniform_cloud(2048, 3, 13), 3, &early);
    assert_identical("tiny", &uniform_cloud(20, 2, 14), 2, &early);
}

#[test]
fn exact_distance_ties_break_as_in_the_per_pair_search() {
    let cfg = AnnConfig {
        k: 12,
        leaf_size: 48,
        max_iters: 5,
        target_recall: 2.0,
        ..Default::default()
    };
    assert_identical("duplicated 2-D", &duplicated_cloud(1200, 2, 21), 2, &cfg);
    // k below the multiplicity: every kept distance is a tie at zero or at
    // the nearest distinct point.
    let few = AnnConfig { k: 3, ..cfg };
    assert_identical(
        "duplicated 3-D, k = 3",
        &duplicated_cloud(800, 3, 22),
        3,
        &few,
    );
}
