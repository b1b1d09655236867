//! Idle workspace retention across right-hand-side widths.
//!
//! An evaluator and a ULV factor each lease their per-call buffers from one
//! shelf and resize a leased workspace to the call's width in place. A
//! sequential caller that mixes widths — as a batching server does, with
//! batches of 1 to 32 columns — therefore keeps one workspace per engine,
//! sized to the widest call it has served, instead of one per width seen.
//! After a warm-up at the widest width, a pass over every narrower width
//! must leave the live heap where it was and allocate no second workspace.
//! This binary has its own counting `#[global_allocator]` and holds a
//! single test, so nothing else allocates while it measures.

use gofmm_core::{compress, Evaluator, GofmmConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_solver::UlvFactor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LiveBytes = LiveBytes;

const N: usize = 2048;
const WIDEST: usize = 32;
/// Live-heap growth allowed over the pass: well under one workspace of a
/// single extra width at this size.
const BOUND: i64 = 1 << 20;

#[test]
fn mixed_widths_keep_one_workspace_per_engine() {
    let k = KernelMatrix::new(
        PointCloud::uniform(N, 3, 1),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "workspace-retention",
    );
    let cfg = GofmmConfig::default()
        .with_leaf_size(64)
        .with_max_rank(64)
        .with_tolerance(1e-7)
        .with_budget(0.03)
        .with_threads(1)
        .with_policy(TraversalPolicy::Sequential);
    let comp = compress::<f64, _>(&k, &cfg);
    let evaluator = Evaluator::new(&k, &comp);
    let ulv = UlvFactor::new(&k, &comp, 1.0).unwrap();
    let rhs =
        |r: usize| DenseMatrix::from_fn(N, r, |i, j| ((i * 7 + j * 13) % 29) as f64 / 14.0 - 1.0);

    let wide = rhs(WIDEST);
    drop(evaluator.apply(&wide).unwrap());
    drop(ulv.solve(&wide).unwrap());
    drop(wide);

    let before = LIVE.load(Ordering::SeqCst);
    for r in 1..=WIDEST {
        let b = rhs(r);
        drop(evaluator.apply(&b).unwrap());
        drop(ulv.solve(&b).unwrap());
    }
    let grown = LIVE.load(Ordering::SeqCst) - before;
    assert!(
        grown < BOUND,
        "one apply and one solve at each width 1..={WIDEST} left {grown} B more live heap, bound {BOUND} B"
    );
    assert_eq!(
        evaluator.pool_lease_stats().0,
        1,
        "apply workspaces created"
    );
    assert_eq!(ulv.pool_lease_stats().0, 1, "solve workspaces created");
}
