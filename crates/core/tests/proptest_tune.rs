//! Property battery for `Evaluator::tune` — the accuracy-budget
//! sparsification loop.
//!
//! The invariants under test are the tuning contract:
//! * tuned bytes are monotone non-increasing along a loosening budget;
//! * every accepted state's measured ε₂ fits the budget, and a matching
//!   error is visible externally against the pre-tune evaluator;
//! * tuned applies stay bit-identical across all four traversal policies
//!   and thread counts;
//! * an unattainable budget rejects cleanly, leaving the evaluator
//!   bit-identical to its pre-tune state;
//! * `cached_bytes` tracks *resident* panel storage — it shrinks when tune
//!   frees panels and when panels spill to a store.

use gofmm_core::{
    compress, AccuracyBudget, ApplyOptions, Error, Evaluator, FilePanelStore, GofmmConfig,
    StoreWriter, TraversalPolicy,
};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
use proptest::prelude::*;
use std::sync::Arc;

fn test_matrix(n: usize, seed: u64) -> KernelMatrix {
    KernelMatrix::new(
        PointCloud::uniform(n, 3, seed),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "tune-battery",
    )
}

fn config() -> GofmmConfig {
    GofmmConfig::default()
        .with_leaf_size(32)
        .with_max_rank(48)
        .with_tolerance(1e-8)
        .with_budget(0.1)
        .with_threads(2)
        .with_policy(TraversalPolicy::Sequential)
}

fn probe_w(n: usize, cols: usize, seed: u64) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(n, cols, |i, j| {
        let x = (seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (j as u64) << 17)
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        ((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Loosening the budget can only shrink (or keep) the tuned footprint:
    /// every budget scans the same aggressiveness ladder top-down, so a
    /// looser bar accepts at the same rung or an earlier, more aggressive
    /// one. Each budget tunes a fresh evaluator from the same compression.
    #[test]
    fn tuned_bytes_monotone_in_budget(seed in 0u64..64) {
        let n = 192;
        let k = test_matrix(n, seed);
        let comp = compress::<f64, _>(&k, &config());
        // Tight to loose.
        let budgets = [1e-8, 1e-4, 1e-1];
        let mut bytes = Vec::new();
        for eps2 in budgets {
            let mut ev = Evaluator::new(&k, &comp);
            let before = ev.cached_bytes();
            let stats = ev.tune(&AccuracyBudget::new(eps2)).unwrap();
            prop_assert_eq!(stats.bytes_before, before);
            prop_assert_eq!(stats.bytes_after, ev.cached_bytes());
            prop_assert!(stats.accepted <= 1);
            if stats.accepted == 1 {
                prop_assert!(
                    stats.measured_eps2 <= eps2,
                    "accepted eps2 {} above budget {}", stats.measured_eps2, eps2
                );
                prop_assert!(stats.bytes_after <= stats.bytes_before);
                prop_assert_eq!(ev.tune_stats(), Some(&stats));
            } else {
                prop_assert_eq!(stats.bytes_after, stats.bytes_before);
                prop_assert!(ev.tune_stats().is_none());
            }
            bytes.push(ev.cached_bytes());
        }
        for w in bytes.windows(2) {
            prop_assert!(
                w[1] <= w[0],
                "loosening the budget grew the footprint: {:?}", bytes
            );
        }
    }

    /// The budget bounds the error tuning introduces, measured externally:
    /// a tuned apply against the pre-tune apply on fresh right-hand sides
    /// lands near the sampled ε₂ the loop accepted on.
    #[test]
    fn accepted_state_error_visible_externally(seed in 0u64..64) {
        let n = 192;
        let eps2 = 1e-3;
        let k = test_matrix(n, seed);
        let comp = compress::<f64, _>(&k, &config());
        let ev_ref = Evaluator::new(&k, &comp);
        let mut ev = Evaluator::new(&k, &comp);
        let stats = ev.tune(&AccuracyBudget::new(eps2)).unwrap();
        if stats.accepted == 0 {
            // Nothing committed at this seed: nothing to measure.
            return;
        }
        let w = probe_w(n, 8, seed.wrapping_add(1));
        let (u_ref, _) = ev_ref.apply_with(&w, &ApplyOptions::default()).unwrap();
        let (u_tuned, _) = ev.apply_with(&w, &ApplyOptions::default()).unwrap();
        let rel = u_tuned.sub(&u_ref).norm_fro() / u_ref.norm_fro();
        // Fresh probes, so allow sampling slack over the accepted measure.
        prop_assert!(
            rel <= 50.0 * eps2,
            "external error {rel} far above accepted measure {}", stats.measured_eps2
        );
    }

    /// Tuning never breaks the serving contract: one tuned evaluator
    /// applies bit-identically under every traversal policy and thread
    /// count.
    #[test]
    fn tuned_apply_bit_identical_across_policies(seed in 0u64..64) {
        let n = 192;
        let k = test_matrix(n, seed);
        let comp = compress::<f64, _>(&k, &config());
        let mut ev = Evaluator::new(&k, &comp);
        ev.tune(&AccuracyBudget::new(1e-4)).unwrap();
        let w = probe_w(n, 3, seed);
        let (u_ref, _) = ev
            .apply_with(&w, &ApplyOptions::default().with_policy(TraversalPolicy::Sequential))
            .unwrap();
        let policies = [
            TraversalPolicy::Sequential,
            TraversalPolicy::LevelByLevel,
            TraversalPolicy::DagHeft,
            TraversalPolicy::DagFifo,
        ];
        for policy in policies {
            for threads in [1, 4] {
                let opts = ApplyOptions::default().with_policy(policy).with_threads(threads);
                let (u, _) = ev.apply_with(&w, &opts).unwrap();
                for (a, b) in u.data().iter().zip(u_ref.data()) {
                    prop_assert_eq!(
                        a.to_bits(), b.to_bits(),
                        "{:?} x{} drifted from the sequential apply", policy, threads
                    );
                }
            }
        }
    }
}

/// A budget no sparsification can meet is rejected cleanly: zero accepts,
/// bytes untouched, applies bit-identical to the pre-tune evaluator.
#[test]
fn unattainable_budget_rejects_cleanly() {
    let n = 192;
    let k = test_matrix(n, 5);
    let comp = compress::<f64, _>(&k, &config());
    let w = probe_w(n, 4, 9);
    let mut ev = Evaluator::new(&k, &comp);
    let before_bytes = ev.cached_bytes();
    let (u_before, _) = ev.apply_with(&w, &ApplyOptions::default()).unwrap();

    let stats = ev.tune(&AccuracyBudget::new(1e-300)).unwrap();
    assert_eq!(stats.accepted, 0, "1e-300 must be unattainable");
    assert!(stats.rejected > 0, "the loop must have measured candidates");
    assert_eq!(stats.bytes_after, stats.bytes_before);
    assert_eq!(ev.cached_bytes(), before_bytes);
    assert!(ev.tune_stats().is_none());

    let (u_after, stats_after) = ev.apply_with(&w, &ApplyOptions::default()).unwrap();
    assert!(stats_after.tune.is_none());
    for (a, b) in u_after.data().iter().zip(u_before.data()) {
        assert_eq!(a.to_bits(), b.to_bits(), "rejected tune changed the apply");
    }
}

/// Malformed budgets and untunable evaluators error out without touching
/// any state.
#[test]
fn tune_validates_budget_and_panel_ownership() {
    let n = 128;
    let k = test_matrix(n, 3);
    let comp = compress::<f64, _>(&k, &config());
    let mut ev = Evaluator::new(&k, &comp);

    for bad in [
        AccuracyBudget::new(0.0),
        AccuracyBudget::new(-1e-3),
        AccuracyBudget::new(f64::NAN),
    ] {
        assert!(
            matches!(ev.tune(&bad), Err(Error::InvalidConfig { .. })),
            "budget {bad:?} must be rejected"
        );
    }

    // Spilled panels cannot be tuned: tune before attaching a store.
    let dir = std::env::temp_dir().join(format!("gofmm-tune-own-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("panels.gfmm");
    {
        let mut writer = StoreWriter::create(&path).unwrap();
        ev.spill_panels(&mut writer).unwrap();
        writer.finish().unwrap();
    }
    let store = Arc::new(FilePanelStore::open(&path, 1 << 20).unwrap());
    ev.attach_store(&store);
    assert!(
        matches!(
            ev.tune(&AccuracyBudget::new(1e-3)),
            Err(Error::InvalidConfig { .. })
        ),
        "tuning file-backed panels must be rejected"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `cached_bytes` means *resident* bytes: an accepted tune frees panel
/// storage and the gauge (and the per-apply stats echoing it) must drop
/// with it.
#[test]
fn cached_bytes_shrinks_after_tune() {
    let n = 256;
    let k = test_matrix(n, 11);
    let comp = compress::<f64, _>(&k, &config());
    let mut ev = Evaluator::new(&k, &comp);
    let before = ev.cached_bytes();
    let stats = ev.tune(&AccuracyBudget::new(1e-2)).unwrap();
    assert_eq!(stats.accepted, 1, "1e-2 should be attainable at tol 1e-8");
    assert!(
        ev.cached_bytes() < before,
        "tune accepted but cached_bytes did not shrink ({before} -> {})",
        ev.cached_bytes()
    );
    let w = probe_w(n, 2, 1);
    let (_, apply_stats) = ev.apply_with(&w, &ApplyOptions::default()).unwrap();
    assert_eq!(apply_stats.cached_bytes, ev.cached_bytes());
    assert_eq!(apply_stats.tune.as_ref(), Some(&stats));
}

/// `cached_bytes` regression for the storage tier: spilling panels to a
/// file store swaps them for locators, so the resident gauge must drop to
/// (near) zero instead of still counting the on-disk bytes.
#[test]
fn cached_bytes_shrinks_after_spill_and_attach() {
    let n = 192;
    let k = test_matrix(n, 17);
    let comp = compress::<f64, _>(&k, &config());
    let mut ev = Evaluator::new(&k, &comp);
    let before = ev.cached_bytes();
    assert!(before > 0);

    let dir = std::env::temp_dir().join(format!("gofmm-tune-spill-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("panels.gfmm");
    {
        let mut writer = StoreWriter::create(&path).unwrap();
        ev.spill_panels(&mut writer).unwrap();
        writer.finish().unwrap();
    }
    let store = Arc::new(FilePanelStore::open(&path, 1 << 22).unwrap());
    ev.attach_store(&store);
    assert!(
        ev.cached_bytes() < before / 2,
        "spilled evaluator still reports {} of {before} resident bytes",
        ev.cached_bytes()
    );

    let w = probe_w(n, 2, 2);
    let (_, stats) = ev.apply_with(&w, &ApplyOptions::default()).unwrap();
    assert_eq!(
        stats.cached_bytes,
        ev.cached_bytes(),
        "per-apply stats disagree with the resident gauge"
    );
    std::fs::remove_dir_all(&dir).ok();
}
