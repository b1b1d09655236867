//! Allocation budget of a steady-state ULV solve — the solver-side twin of
//! `crates/core/tests/alloc_budget.rs`.
//!
//! `SUP`/`SDOWN` multiply through the same GEMM as the apply, whose pack
//! buffers used to be `vec!`-ed on every call (1.25 MiB per task). With the
//! buffers owned by the calling thread, and every per-task temporary (the
//! node's stacked right-hand side, the back-substituted block, the WY
//! rotation's staged rows, the blocked TRSM's operands) taken from the
//! thread's factorization scratch, one warmed-up single-thread
//! `UlvFactor::solve` requests the solution block and nothing else: 65 544 B
//! at both leaf sizes here, against 65 536 B of solution.
//! (With more than one worker the scratch is regrown per run; see the test.)
//! A spilled factor's solve also requests the values its faults decode —
//! about the bytes they read — but not the read bytes themselves, which
//! land in the store's per-thread read buffer.
//! This binary has its own counting `#[global_allocator]` and holds a single
//! test, so nothing else allocates inside the window.

use gofmm_core::{compress, GofmmConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_solver::{FilePanelStore, StoreWriter, UlvFactor};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAllocator;

static ENABLED: AtomicBool = AtomicBool::new(false);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn count(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Bytes requested from the allocator, by any thread, while `f` runs.
fn requested_bytes<R>(f: impl FnOnce() -> R) -> (R, u64) {
    BYTES.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    (out, BYTES.load(Ordering::SeqCst))
}

const N: usize = 2048;
const RHS: usize = 4;
/// The solution block, plus 16 KiB of headroom for bookkeeping.
const BUDGET: u64 = (N * RHS * std::mem::size_of::<f64>() + (16 << 10)) as u64;
/// The largest pack scratch a GEMM can ask for (`MC x KC` of `A` plus
/// `KC x NC` of `B`, rounded up to whole strips, in f64): 1.26 MiB.
const WORKER_SCRATCH: u64 = ((128 * 256 + 516 * 256) * std::mem::size_of::<f64>()) as u64;
/// What a spilled solve may request per fault beyond the blob's decoded
/// scalars: the `Arc`'d node, its WY block list and Cholesky wrapper.
const PER_FAULT: u64 = 1 << 10;
/// The multi-worker bound: a few multiples of `n × r` plus one maximum-size
/// scratch per worker.
const TWO_WORKERS: u64 =
    (16 * N * RHS * std::mem::size_of::<f64>() + (256 << 10)) as u64 + 2 * WORKER_SCRATCH;

#[test]
fn steady_state_solve_stays_inside_its_allocation_budget() {
    let k = KernelMatrix::new(
        PointCloud::uniform(N, 3, 1),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "alloc-budget",
    );
    let b = DenseMatrix::from_fn(N, RHS, |i, j| ((i * 7 + j * 13) % 29) as f64 / 14.0 - 1.0);
    // Twice the leaf size halves the task count; the budget must hold at
    // both, i.e. it cannot be a per-task figure. With two workers the scratch
    // is not kept between solves: workers are scoped threads spawned per run
    // (per level, for the level-by-level policy), and each grows one of its
    // own from empty inside the window. It is sized to the call — tens of KiB
    // for these r = 4 products — so one maximum-size scratch per worker is a
    // generous allowance, and still two orders of magnitude below what
    // per-call buffers cost.
    let runs = [
        (1, TraversalPolicy::Sequential, BUDGET),
        (2, TraversalPolicy::DagHeft, TWO_WORKERS),
        (2, TraversalPolicy::LevelByLevel, TWO_WORKERS),
    ];
    for (threads, policy, budget) in runs {
        for leaf in [64, 128] {
            let cfg = GofmmConfig::default()
                .with_leaf_size(leaf)
                .with_max_rank(64)
                .with_tolerance(1e-7)
                .with_budget(0.03)
                .with_threads(threads)
                .with_policy(policy);
            let comp = compress::<f64, _>(&k, &cfg);
            let ulv = UlvFactor::new(&k, &comp, 1.0).unwrap();
            // First solve: leases the workspace, grows this thread's scratch.
            let first = ulv.solve(&b).unwrap();
            let (second, bytes) = requested_bytes(|| ulv.solve(&b).unwrap());
            assert_eq!(first.data(), second.data());
            assert!(
                bytes < budget,
                "leaf {leaf}, {threads} x {policy:?}: a steady-state solve requested {bytes} B, budget {budget} B"
            );
        }
    }

    // Spilled at a quarter of the factor's bytes, a solve faults most nodes
    // back. Each fault reads into the thread's reused buffer, grown by the
    // warm-up solve, so what a steady-state solve requests is the decoded
    // values (about the bytes read), the solution, and per-fault overhead:
    // 2 677 832 B over 98 faults reading 2 593 315 B here.
    let cfg = GofmmConfig::default()
        .with_leaf_size(64)
        .with_max_rank(64)
        .with_tolerance(1e-7)
        .with_budget(0.03)
        .with_threads(1)
        .with_policy(TraversalPolicy::Sequential);
    let comp = compress::<f64, _>(&k, &cfg);
    let mut ulv = UlvFactor::new(&k, &comp, 1.0).unwrap();
    let resident = ulv.solve(&b).unwrap();
    let path = std::env::temp_dir().join(format!("gofmm-alloc-budget-{}.gfmm", std::process::id()));
    let mut writer = StoreWriter::create(&path).unwrap();
    ulv.spill_nodes(&mut writer).unwrap();
    let quarter = writer.payload_bytes() as usize / 4;
    writer.finish().unwrap();
    let store = Arc::new(FilePanelStore::open(&path, quarter).unwrap());
    ulv.attach_store(&store);
    let first = ulv.solve(&b).unwrap();
    let before = store.stats();
    let (second, bytes) = requested_bytes(|| ulv.solve(&b).unwrap());
    let after = store.stats();
    std::fs::remove_file(&path).unwrap();
    assert_eq!(first.data(), resident.data());
    assert_eq!(second.data(), resident.data());
    let faults = after.faults - before.faults;
    let read = after.bytes_read - before.bytes_read;
    assert!(faults > 0, "a quarter budget must fault");
    let bound = read + BUDGET + faults * PER_FAULT;
    assert!(
        bytes < bound,
        "a spilled solve requested {bytes} B over {faults} faults reading {read} B, bound {bound} B"
    );
}
