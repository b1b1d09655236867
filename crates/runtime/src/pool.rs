//! Shared-state serving support: recyclable per-call workspaces.
//!
//! The persistent GOFMM engines (`gofmm_core::Evaluator`,
//! `gofmm_solver::HierarchicalFactor`) historically took `&mut self` per
//! apply/solve because they recycled one set of per-node scratch buffers
//! in place. That made a compressed operator unusable as a shared handle:
//! one buffer set means one in-flight request. [`WorkspacePool`] turns those
//! engines into `&self` services: a pool of per-call buffer bundles keyed by
//! right-hand-side width. A call checks a workspace out (or allocates one on
//! a pool miss), runs on it exclusively, and the RAII [`Lease`] returns it
//! on drop. Concurrent callers never share a workspace; sequential callers
//! reuse one, preserving the old recycling behavior.
//!
//! Checkout and return traffic runs on one `crossbeam` injector per width;
//! the shelf map's mutex is taken only briefly at the start of each lease to
//! look the shelf up (returns go straight to the injector through the
//! lease's own shelf handle). The lookup is a hash probe plus an `Arc`
//! clone — negligible next to the tree sweep a lease exists to serve.

use crossbeam::deque::{Injector, Steal};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A pool of recyclable workspaces keyed by an integer shape key (for the
/// GOFMM engines: the right-hand-side column count).
///
/// Workspaces of different keys have different buffer shapes and live on
/// different shelves; a checkout for key `k` only ever returns a workspace
/// that was released under key `k`, so a leased workspace is always
/// correctly sized and never aliased with another in-flight lease.
///
/// Idle memory is bounded along both axes. Each shelf keeps at most
/// `shelf_capacity` workspaces (default: twice the machine's thread count,
/// at least 8), so a one-time concurrency spike does not pin its peak
/// buffer footprint; returns beyond the cap drop the workspace and a later
/// miss re-allocates. And at most [`MAX_IDLE_SHELVES`] shelves are kept:
/// when a new width would exceed that, the least-recently-used shelf is
/// evicted (in-flight leases of an evicted width stay valid — they hold
/// their own shelf handle — and their buffers are freed on return), so a
/// long tail of distinct widths cannot pin one shelf per width forever.
/// Neither cap ever limits concurrency, only idle retention.
pub struct WorkspacePool<W> {
    shelves: Mutex<HashMap<usize, ShelfEntry<W>>>,
    /// Maximum workspaces kept *idle* per shelf (best-effort under races).
    shelf_capacity: usize,
    /// Monotone lease counter driving the shelf LRU.
    ticks: AtomicU64,
    created: AtomicUsize,
    recycled: AtomicUsize,
}

/// Most shelves a pool keeps before evicting the least-recently-used one.
pub const MAX_IDLE_SHELVES: usize = 32;

/// One shelf plus the lease tick at which it was last used.
struct ShelfEntry<W> {
    shelf: Arc<Injector<W>>,
    last_used: u64,
}

impl<W> Default for WorkspacePool<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> WorkspacePool<W> {
    /// An empty pool with the default per-shelf retention cap (twice the
    /// available hardware threads, at least 8).
    pub fn new() -> Self {
        Self::with_shelf_capacity(
            crate::parallel::available_threads()
                .saturating_mul(2)
                .max(8),
        )
    }

    /// An empty pool keeping at most `capacity` idle workspaces per shelf
    /// (clamped to at least 1).
    pub fn with_shelf_capacity(capacity: usize) -> Self {
        Self {
            shelves: Mutex::new(HashMap::new()),
            shelf_capacity: capacity.max(1),
            ticks: AtomicU64::new(0),
            created: AtomicUsize::new(0),
            recycled: AtomicUsize::new(0),
        }
    }

    /// The per-shelf idle-retention cap.
    pub fn shelf_capacity(&self) -> usize {
        self.shelf_capacity
    }

    /// The shelf for `key`, created on first use and touched for the LRU.
    /// The map lock is held only for the lookup; checkout/return traffic
    /// runs on the shelf itself. Creating a shelf beyond [`MAX_IDLE_SHELVES`]
    /// evicts the least-recently-used one (its idle workspaces are freed;
    /// in-flight leases keep their own handle and stay valid).
    fn shelf(&self, key: usize) -> Arc<Injector<W>> {
        let tick = self.ticks.fetch_add(1, Ordering::Relaxed);
        let mut shelves = self.shelves.lock();
        if let Some(entry) = shelves.get_mut(&key) {
            entry.last_used = tick;
            return Arc::clone(&entry.shelf);
        }
        if shelves.len() >= MAX_IDLE_SHELVES {
            if let Some(&lru) = shelves
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                shelves.remove(&lru);
            }
        }
        let shelf = Arc::new(Injector::new());
        shelves.insert(
            key,
            ShelfEntry {
                shelf: Arc::clone(&shelf),
                last_used: tick,
            },
        );
        shelf
    }

    /// Check a workspace for `key` out of the pool, allocating a fresh one
    /// with `make` when none is shelved. The workspace is exclusively owned
    /// by the returned [`Lease`] until the lease drops, which shelves it
    /// back for the next caller of the same key.
    pub fn lease(&self, key: usize, make: impl FnOnce() -> W) -> Lease<W> {
        let shelf = self.shelf(key);
        loop {
            match shelf.steal() {
                Steal::Success(w) => {
                    self.recycled.fetch_add(1, Ordering::Relaxed);
                    return Lease {
                        shelf,
                        workspace: Some(w),
                        recycled: true,
                        shelf_capacity: self.shelf_capacity,
                    };
                }
                Steal::Empty => break,
                Steal::Retry => continue,
            }
        }
        self.created.fetch_add(1, Ordering::Relaxed);
        Lease {
            shelf,
            workspace: Some(make()),
            recycled: false,
            shelf_capacity: self.shelf_capacity,
        }
    }

    /// Number of workspaces currently shelved for `key` (diagnostics; zero
    /// for widths whose shelf was LRU-evicted).
    pub fn shelved(&self, key: usize) -> usize {
        self.shelves
            .lock()
            .get(&key)
            .map(|e| e.shelf.len())
            .unwrap_or(0)
    }

    /// Total workspaces ever allocated by this pool (pool misses).
    pub fn created(&self) -> usize {
        self.created.load(Ordering::Relaxed)
    }

    /// Total checkouts served from a shelved workspace (pool hits).
    pub fn recycled(&self) -> usize {
        self.recycled.load(Ordering::Relaxed)
    }
}

/// Exclusive ownership of one pooled workspace for the duration of a call;
/// returns the workspace to its shelf on drop.
pub struct Lease<W> {
    shelf: Arc<Injector<W>>,
    workspace: Option<W>,
    recycled: bool,
    shelf_capacity: usize,
}

impl<W> Lease<W> {
    /// True when this lease reuses a previously released workspace (whose
    /// accumulator buffers may hold stale values and need a reset) rather
    /// than a freshly allocated one.
    pub fn recycled(&self) -> bool {
        self.recycled
    }
}

impl<W> std::ops::Deref for Lease<W> {
    type Target = W;
    fn deref(&self) -> &W {
        self.workspace.as_ref().expect("lease already returned")
    }
}

impl<W> std::ops::DerefMut for Lease<W> {
    fn deref_mut(&mut self) -> &mut W {
        self.workspace.as_mut().expect("lease already returned")
    }
}

impl<W> Drop for Lease<W> {
    fn drop(&mut self) {
        if let Some(w) = self.workspace.take() {
            // Best-effort retention cap: concurrent returns may briefly
            // overshoot by a few entries, which the next over-cap return
            // corrects. Dropping here only costs a future re-allocation.
            if self.shelf.len() < self.shelf_capacity {
                self.shelf.push(w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_allocates_then_recycles() {
        let pool: WorkspacePool<Vec<u8>> = WorkspacePool::new();
        {
            let lease = pool.lease(4, || vec![0u8; 4]);
            assert!(!lease.recycled());
            assert_eq!(lease.len(), 4);
        }
        assert_eq!(pool.shelved(4), 1);
        {
            let lease = pool.lease(4, || unreachable!("must recycle"));
            assert!(lease.recycled());
        }
        assert_eq!((pool.created(), pool.recycled()), (1, 1));
    }

    #[test]
    fn keys_are_isolated() {
        let pool: WorkspacePool<Vec<u8>> = WorkspacePool::new();
        drop(pool.lease(2, || vec![0u8; 2]));
        let lease3 = pool.lease(3, || vec![0u8; 3]);
        assert!(!lease3.recycled(), "key 3 must not see key 2's workspace");
        assert_eq!(lease3.len(), 3);
        assert_eq!(pool.shelved(2), 1);
        assert_eq!(pool.shelved(3), 0);
    }

    #[test]
    fn concurrent_leases_never_alias() {
        let pool: WorkspacePool<Box<usize>> = WorkspacePool::new();
        let next_id = AtomicUsize::new(0);
        let in_use = Mutex::new(std::collections::HashSet::<usize>::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        let lease =
                            pool.lease(1, || Box::new(next_id.fetch_add(1, Ordering::Relaxed)));
                        let id = **lease;
                        assert!(
                            in_use.lock().insert(id),
                            "workspace {id} checked out twice concurrently"
                        );
                        std::hint::black_box(&lease);
                        assert!(in_use.lock().remove(&id));
                    }
                });
            }
        });
        // At most one workspace per thread was ever needed.
        assert!(pool.created() <= 8, "created {}", pool.created());
        assert_eq!(pool.created() + pool.recycled(), 8 * 200);
    }

    #[test]
    fn shelf_capacity_bounds_idle_retention() {
        let pool: WorkspacePool<Vec<u8>> = WorkspacePool::with_shelf_capacity(2);
        assert_eq!(pool.shelf_capacity(), 2);
        // Hold 5 leases at once (allocates 5), then release them all.
        let leases: Vec<_> = (0..5).map(|_| pool.lease(1, || vec![0u8; 1])).collect();
        assert_eq!(pool.created(), 5);
        drop(leases);
        // Only the cap survives on the shelf; the spike is not pinned.
        assert_eq!(pool.shelved(1), 2);
        // The default cap is never zero.
        assert!(WorkspacePool::<Vec<u8>>::new().shelf_capacity() >= 8);
    }

    #[test]
    fn lru_eviction_bounds_the_shelf_count() {
        let pool: WorkspacePool<Vec<u8>> = WorkspacePool::with_shelf_capacity(4);
        // March through far more widths than the shelf cap, shelving one
        // workspace per width.
        let total = MAX_IDLE_SHELVES + 20;
        for key in 0..total {
            drop(pool.lease(key, || vec![0u8; 1]));
        }
        // Old widths were evicted; recent ones survive.
        assert_eq!(pool.shelved(0), 0, "oldest shelf must be LRU-evicted");
        assert_eq!(pool.shelved(total - 1), 1, "newest shelf must survive");
        let kept: usize = (0..total).filter(|&k| pool.shelved(k) > 0).count();
        assert!(kept <= MAX_IDLE_SHELVES, "{kept} shelves retained");
        // An evicted width simply re-allocates; in-flight leases of a width
        // being evicted keep working (the lease holds its own shelf handle).
        let lease_old = pool.lease(0, || vec![7u8; 1]);
        assert!(!lease_old.recycled());
        assert_eq!(*lease_old, vec![7u8; 1]);
    }
}
