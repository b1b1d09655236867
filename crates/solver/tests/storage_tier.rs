//! Integration tests of the storage tier: out-of-core (file-backed)
//! operators under eviction-thrashing resident budgets and operator
//! persistence round-trips — every path
//! asserted **bit-identical** to the in-memory baseline, because the spilled
//! bytes are exact IEEE bit patterns and the sweeps' reduction orders do not
//! depend on where a panel lives.

use gofmm_core::{ApplyOptions, Evaluator, GofmmConfig, StorageConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_solver::{GofmmOperator, StoreWriter, UlvFactor};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

const ALL_POLICIES: [TraversalPolicy; 4] = [
    TraversalPolicy::Sequential,
    TraversalPolicy::LevelByLevel,
    TraversalPolicy::DagHeft,
    TraversalPolicy::DagFifo,
];

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("gofmm-storage-tier-tests")
        .join(format!("{name}-{}", std::process::id()));
    // A fresh directory per test run: stale files from a crashed run must
    // not satisfy this run's reads.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn test_kernel(n: usize, seed: u64) -> KernelMatrix {
    KernelMatrix::new(
        PointCloud::uniform(n, 3, seed),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "storage-tier",
    )
}

fn test_config(leaf: usize, rank: usize) -> GofmmConfig {
    GofmmConfig::default()
        .with_leaf_size(leaf)
        .with_max_rank(rank)
        .with_tolerance(1e-8)
        .with_budget(0.0)
        .with_threads(2)
}

fn rhs(n: usize, cols: usize, seed: u64) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(n, cols, |i, j| {
        (((i * 31 + j * 7 + seed as usize * 13) % 23) as f64 - 11.0) / 7.0
    })
}

/// The acceptance scenario: a file-backed operator whose resident budget is
/// at most 25% of its packed-panel bytes must stay bit-identical to the
/// in-memory operator for applies and direct solves under all four traversal
/// policies, while its peak resident set respects the budget.
#[test]
fn file_backed_operator_bit_identical_under_tiny_budget() {
    let n = 512;
    let kernel = test_kernel(n, 7);
    let cfg = test_config(64, 48);
    let lambda = 1e-2;
    let baseline = GofmmOperator::<f64>::builder(&kernel)
        .config(cfg.clone())
        .factorize(lambda)
        .build()
        .expect("in-memory operator");
    // Packed interaction panels only; the spilled ULV blocks make the file
    // strictly larger, so this budget is < 25% of the spilled bytes too.
    let budget = baseline.evaluator().cached_bytes() / 4;
    assert!(budget > 0, "test operator must have packed panels");

    let dir = tmp_dir("file-backed");
    let op = GofmmOperator::<f64>::builder(&kernel)
        .config(cfg)
        .factorize(lambda)
        .storage(StorageConfig::File {
            dir: dir.clone(),
            resident_budget: budget,
        })
        .build()
        .expect("file-backed operator");
    let store = op.store().expect("file storage attached").clone();
    assert!(
        store.payload_bytes() as usize > 4 * budget,
        "budget {budget} is not <=25% of the {} spilled bytes",
        store.payload_bytes()
    );

    let w = rhs(n, 3, 11);
    let b = rhs(n, 2, 13);
    let want_u = baseline.apply(&w).expect("baseline apply");
    let want_x = baseline.solve(&b).expect("baseline solve");
    for policy in ALL_POLICIES {
        let opts = ApplyOptions::default().with_policy(policy);
        let (u, _) = op.apply_with(&w, &opts).expect("file-backed apply");
        assert_eq!(
            u.data(),
            want_u.data(),
            "file-backed apply diverged under {policy:?}"
        );
        let x = op.solve_with(&b, &opts).expect("file-backed solve");
        assert_eq!(
            x.data(),
            want_x.data(),
            "file-backed solve diverged under {policy:?}"
        );
    }

    let stats = op.store_stats().expect("store stats");
    assert!(stats.faults > 0, "a tiny budget must fault panels in");
    assert!(
        stats.evictions > 0,
        "a 25% budget must evict under eight full sweeps"
    );
    assert!(
        stats.peak_resident_bytes <= budget as u64,
        "peak resident {} exceeded the budget {budget}",
        stats.peak_resident_bytes
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Persistence round-trip: an operator written with `write_to` and reopened
/// with `open_from` — compression replayed from the store's headers, panels
/// and factor blocks served out of core — applies and solves bit-identically
/// to the operator that wrote it.
#[test]
fn persistence_round_trip_is_bit_identical() {
    let n = 384;
    let kernel = test_kernel(n, 33);
    let cfg = test_config(48, 36);
    let lambda = 1e-1;
    let op = GofmmOperator::<f64>::builder(&kernel)
        .config(cfg)
        .factorize(lambda)
        .build()
        .expect("operator");

    let dir = tmp_dir("round-trip");
    let path = dir.join("operator.gfmm");
    let mut writer = StoreWriter::create(&path).expect("create store");
    op.evaluator()
        .write_to(&mut writer)
        .expect("persist evaluator");
    op.ulv_factor()
        .expect("ULV factor present")
        .write_to(&mut writer)
        .expect("persist factor");
    writer.finish().expect("finish store");

    // A deliberately tiny budget: the reopened operator must page its whole
    // working set through the LRU and still match bit-for-bit.
    let budget = op.evaluator().cached_bytes() / 5;
    let (comp, evaluator) = Evaluator::<f64>::open_from(&path, budget).expect("reopen evaluator");
    let factor =
        UlvFactor::<f64>::open_from(&path, Arc::clone(&comp), budget).expect("reopen factor");

    let w = rhs(n, 3, 17);
    let b = rhs(n, 1, 19);
    let want_u = op.apply(&w).expect("baseline apply");
    let want_x = op.solve(&b).expect("baseline solve");
    let (u, _) = evaluator.apply(&w).expect("reopened apply");
    assert_eq!(u.data(), want_u.data(), "reopened apply diverged");
    let x = factor.solve(&b).expect("reopened solve");
    assert_eq!(x.data(), want_x.data(), "reopened solve diverged");

    // The reconstructed compression is faithful where it matters.
    assert_eq!(comp.tree.node_count(), op.compressed().tree.node_count());
    assert_eq!(comp.tree.depth(), op.compressed().tree.depth());
    let _ = std::fs::remove_dir_all(&dir);
}

/// One random problem instance for the property suite.
#[derive(Clone, Debug)]
struct Instance {
    n: usize,
    seed: u64,
    leaf_size: usize,
    max_rank: usize,
    rhs_cols: usize,
    budget_divisor: usize,
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        (160usize..=320, 0u64..1000),
        (4u32..=5, 16usize..=32),
        (1usize..=3, 3usize..=16),
    )
        .prop_map(
            |((n, seed), (leaf_pow, max_rank), (rhs_cols, budget_divisor))| Instance {
                n,
                seed,
                leaf_size: 1usize << leaf_pow,
                max_rank,
                rhs_cols,
                budget_divisor,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random kernels, leaf sizes, RHS widths and resident budgets (down to
    /// ~6% of the packed bytes, i.e. heavy eviction thrash): the file-backed
    /// path always matches the in-memory baseline bit-for-bit, and the
    /// budget is always respected.
    #[test]
    fn storage_paths_match_memory_bit_for_bit(inst in arb_instance()) {
        let kernel = test_kernel(inst.n, inst.seed);
        let cfg = test_config(inst.leaf_size, inst.max_rank);
        let lambda = 1e-2;
        let baseline = GofmmOperator::<f64>::builder(&kernel)
            .config(cfg.clone())
            .factorize(lambda)
            .build()
            .expect("in-memory operator");
        let w = rhs(inst.n, inst.rhs_cols, inst.seed ^ 0xabcd);
        let b = rhs(inst.n, inst.rhs_cols, inst.seed ^ 0x1234);
        let want_u = baseline.apply(&w).expect("baseline apply");
        let want_x = baseline.solve(&b).expect("baseline solve");
        let budget = (baseline.evaluator().cached_bytes() / inst.budget_divisor).max(1);

        // Out-of-core operator, built through the front door.
        let dir = tmp_dir(&format!("prop-{}", inst.seed));
        let op = GofmmOperator::<f64>::builder(&kernel)
            .config(cfg)
            .factorize(lambda)
            .storage(StorageConfig::File { dir: dir.clone(), resident_budget: budget })
            .build()
            .expect("file-backed operator");
        let (u, _) = op.apply_with(&w, &ApplyOptions::default()).expect("ooc apply");
        prop_assert_eq!(u.data(), want_u.data());
        let x = op.solve(&b).expect("ooc solve");
        prop_assert_eq!(x.data(), want_x.data());
        let stats = op.store_stats().expect("store stats");
        prop_assert!(stats.peak_resident_bytes <= budget as u64);
        drop(op);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
