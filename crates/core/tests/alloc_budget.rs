//! Allocation budget of a steady-state apply.
//!
//! The GEMM pack buffers used to be `vec!`-ed on every call — 1.25 MiB per
//! task, hundreds of MiB per apply, and most of its time. Today GEMM copies
//! nothing but a transposed `A` (at most `MC x KC`, 256 KiB of f64) and the
//! stream path's block sums, both into the calling thread's scratch, so
//! what one warmed-up `Evaluator::apply` requests from the allocator is the
//! output block plus small per-task temporaries: a few multiples of `n × r`
//! scalars, independent of how many tasks the tree has. With more than one
//! worker the scratch is not kept between applies (workers are scoped
//! threads), but it is sized to the call, so the same bound covers it. This binary has its own counting `#[global_allocator]`
//! and holds a single test, so nothing else allocates inside the window.

use gofmm_core::{compress, Evaluator, GofmmConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

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

/// The bound for an `r`-column apply.
fn budget(r: usize) -> u64 {
    (16 * N * r * std::mem::size_of::<f64>() + (256 << 10)) as u64
}

#[test]
fn steady_state_apply_stays_inside_its_allocation_budget() {
    let k = KernelMatrix::new(
        PointCloud::uniform(N, 3, 1),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "alloc-budget",
    );
    // Twice the leaf size halves the task count; the budget must hold at
    // both, i.e. it cannot be a per-task figure. It must also hold with two
    // workers: those are scoped threads spawned per run (per level, for the
    // level-by-level policy), so each grows a pack scratch of its own from
    // empty inside the window — sized to the call, a few KiB at r = 4. At
    // r = 64 the staged tree-order input is pooled with the workspace, so
    // it is not requested again either.
    let runs = [
        (1, TraversalPolicy::Sequential),
        (2, TraversalPolicy::DagHeft),
        (2, TraversalPolicy::LevelByLevel),
    ];
    for (threads, policy) in runs {
        for leaf in [64, 128] {
            let cfg = GofmmConfig::default()
                .with_leaf_size(leaf)
                .with_max_rank(64)
                .with_tolerance(1e-7)
                .with_budget(0.03)
                .with_threads(threads)
                .with_policy(policy);
            let comp = compress::<f64, _>(&k, &cfg);
            let ev = Evaluator::new(&k, &comp);
            for rhs in [4, 64] {
                let w = DenseMatrix::from_fn(N, rhs, |i, j| {
                    ((i * 7 + j * 13) % 29) as f64 / 14.0 - 1.0
                });
                // First apply: leases the workspace, grows this thread's scratch.
                let (first, _) = ev.apply(&w).unwrap();
                let (second, bytes) = requested_bytes(|| ev.apply(&w).unwrap().0);
                assert_eq!(first.data(), second.data());
                let budget = budget(rhs);
                assert!(
                    bytes < budget,
                    "leaf {leaf}, r = {rhs}, {threads} x {policy:?}: a steady-state apply requested {bytes} B, budget {budget} B"
                );
            }
        }
    }
}
