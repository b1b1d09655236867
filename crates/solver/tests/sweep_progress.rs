//! Sweep progress comes from the task plan: every apply and every direct
//! solve (ULV and SMW) reports one `SweepLevel` stage per barrier group of
//! its plan — one per task family × tree level — with a `completed` count
//! that rises to `total`, under all four traversal policies.

use gofmm_core::{compress, ApplyOptions, Compressed, Evaluator, GofmmConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_solver::{Error, HierarchicalFactor, ProgressHandle, ProgressReport, UlvFactor};
use std::sync::{Arc, Mutex};

const ALL_POLICIES: [TraversalPolicy; 4] = [
    TraversalPolicy::Sequential,
    TraversalPolicy::LevelByLevel,
    TraversalPolicy::DagHeft,
    TraversalPolicy::DagFifo,
];

/// The apply plan's barrier groups: one N2S and one S2N group per tree
/// level below the root that holds a skeleton, one S2S group when any node
/// has far interactions, and one L2L group.
fn apply_stages(comp: &Compressed<f64>) -> usize {
    let tree = &comp.tree;
    let levels = (1..=tree.depth())
        .filter(|&level| tree.level_range(level).any(|h| comp.basis(h).is_some()))
        .count();
    let s2s =
        (1..tree.node_count()).any(|h| comp.basis(h).is_some() && !comp.lists.far[h].is_empty());
    2 * levels + usize::from(s2s) + 1
}

/// Run `sweep` under `policy` with a progress listener and check its
/// reports: `stages` of them, whose counts are 1 to `stages` of `stages`.
fn check(
    what: &str,
    policy: TraversalPolicy,
    stages: usize,
    sweep: impl FnOnce(&ApplyOptions) -> Result<(), Error>,
) {
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let handle = ProgressHandle::new(move |report: &ProgressReport<'_>| {
        if let ProgressReport::SweepLevel {
            completed, total, ..
        } = *report
        {
            sink.lock().unwrap().push((completed, total));
        }
    });
    let opts = ApplyOptions::new()
        .with_policy(policy)
        .with_threads(2)
        .with_progress(handle);
    sweep(&opts).expect("sweep");
    let delivered = seen.lock().unwrap().clone();
    assert_eq!(
        delivered.len(),
        stages,
        "{what} under {policy}: one report per stage"
    );
    // Concurrent workers may deliver two reports out of order; the counts
    // they carry are each stage's own, 1 to total.
    let mut sorted = delivered.clone();
    sorted.sort_unstable();
    if policy == TraversalPolicy::Sequential {
        assert_eq!(delivered, sorted, "{what}: one thread reports in order");
    }
    for (i, &(completed, total)) in sorted.iter().enumerate() {
        assert_eq!((completed, total), (i + 1, stages), "{what} under {policy}");
    }
}

#[test]
fn apply_and_both_solves_report_one_stage_per_plan_group() {
    let n = 512;
    let kernel = KernelMatrix::new(
        PointCloud::uniform(n, 3, 5),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "sweep-progress",
    );
    let config = GofmmConfig::default()
        .with_leaf_size(32)
        .with_max_rank(32)
        .with_tolerance(1e-7)
        .with_budget(0.05)
        .with_threads(2);
    let comp = compress::<f64, _>(&kernel, &config);
    let evaluator = Evaluator::new(&kernel, &comp);
    let ulv = UlvFactor::new(&kernel, &comp, 1.0).unwrap();
    let smw = HierarchicalFactor::new(&kernel, &comp, 1.0).unwrap();
    let w = DenseMatrix::<f64>::from_fn(n, 2, |i, j| ((i * 3 + j) % 7) as f64 - 3.0);

    // SUP and SDOWN: one group per tree level each, root included.
    let solve_stages = 2 * (comp.tree.depth() as usize + 1);
    for policy in ALL_POLICIES {
        let apply = |o: &ApplyOptions| evaluator.apply_with(&w, o).map(drop);
        check("apply", policy, apply_stages(&comp), apply);
        check("ULV solve", policy, solve_stages, |o| {
            ulv.solve_with(&w, o).map(drop)
        });
        check("SMW solve", policy, solve_stages, |o| {
            smw.solve_with(&w, o).map(drop)
        });
    }
}
