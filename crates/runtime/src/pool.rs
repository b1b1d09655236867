//! Shared-state serving support: recyclable per-call workspaces.
//!
//! The persistent GOFMM engines (`gofmm_core::Evaluator`,
//! `gofmm_solver::HierarchicalFactor`) historically took `&mut self` per
//! apply/solve because they recycled one set of per-node scratch buffers
//! in place. That made a compressed operator unusable as a shared handle:
//! one buffer set means one in-flight request. [`WorkspacePool`] turns those
//! engines into `&self` services: one shelf of per-call buffer bundles. A
//! call checks any idle workspace out (or allocates one on a pool miss),
//! resizes it to its own right-hand-side width, runs on it exclusively, and
//! the RAII [`Lease`] returns it on drop. Concurrent callers never share a
//! workspace; sequential callers reuse one, whatever their widths.
//!
//! The shelf is a mutex-guarded stack, taken only for the push or pop at
//! the ends of a lease — negligible next to the tree sweep a lease exists
//! to serve.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A pool of recyclable workspaces on one shelf.
///
/// A checkout returns any idle workspace; the caller sizes it for its call
/// (for the GOFMM engines, `SweepWorkspace::reset` gives every cell the
/// call's column count in place). A leased workspace is never aliased with
/// another in-flight lease.
///
/// Idle memory is bounded: the shelf keeps at most twice the machine's
/// thread count (at least 8) workspaces, so a one-time concurrency spike
/// does not pin its peak buffer footprint; returns beyond the cap drop the
/// workspace and a later miss re-allocates. The cap never limits
/// concurrency, only idle retention.
pub struct WorkspacePool<W> {
    shelf: Mutex<Vec<W>>,
    /// Maximum workspaces kept idle.
    capacity: usize,
    created: AtomicUsize,
    recycled: AtomicUsize,
}

impl<W> Default for WorkspacePool<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> WorkspacePool<W> {
    /// An empty pool.
    pub fn new() -> Self {
        Self {
            shelf: Mutex::new(Vec::new()),
            capacity: crate::parallel::available_threads()
                .saturating_mul(2)
                .max(8),
            created: AtomicUsize::new(0),
            recycled: AtomicUsize::new(0),
        }
    }

    /// Check a workspace out of the pool, allocating a fresh one with
    /// `make` when none is shelved. The workspace is exclusively owned by
    /// the returned [`Lease`] until the lease drops, which shelves it back
    /// for the next caller.
    pub fn lease(&self, make: impl FnOnce() -> W) -> Lease<'_, W> {
        let shelved = self.shelf.lock().pop();
        let workspace = match shelved {
            Some(w) => {
                self.recycled.fetch_add(1, Ordering::Relaxed);
                w
            }
            None => {
                self.created.fetch_add(1, Ordering::Relaxed);
                make()
            }
        };
        Lease {
            pool: self,
            workspace: Some(workspace),
        }
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
/// returns the workspace to the shelf on drop.
pub struct Lease<'p, W> {
    pool: &'p WorkspacePool<W>,
    workspace: Option<W>,
}

impl<W> std::ops::Deref for Lease<'_, W> {
    type Target = W;
    fn deref(&self) -> &W {
        self.workspace.as_ref().expect("lease already returned")
    }
}

impl<W> std::ops::DerefMut for Lease<'_, W> {
    fn deref_mut(&mut self) -> &mut W {
        self.workspace.as_mut().expect("lease already returned")
    }
}

impl<W> Drop for Lease<'_, W> {
    fn drop(&mut self) {
        if let Some(w) = self.workspace.take() {
            let mut shelf = self.pool.shelf.lock();
            if shelf.len() < self.pool.capacity {
                shelf.push(w);
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
            let lease = pool.lease(|| vec![0u8; 4]);
            assert_eq!(lease.len(), 4);
        }
        assert_eq!((pool.created(), pool.recycled()), (1, 0));
        {
            let lease = pool.lease(|| unreachable!("must recycle"));
            assert_eq!(lease.len(), 4);
        }
        assert_eq!((pool.created(), pool.recycled()), (1, 1));
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
                            pool.lease(|| Box::new(next_id.fetch_add(1, Ordering::Relaxed)));
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
        let pool: WorkspacePool<Vec<u8>> = WorkspacePool::new();
        let cap = crate::parallel::available_threads()
            .saturating_mul(2)
            .max(8);
        // Hold more leases than the cap at once, then release them all.
        let leases: Vec<_> = (0..cap + 3).map(|_| pool.lease(|| vec![0u8; 1])).collect();
        assert_eq!(pool.created(), cap + 3);
        drop(leases);
        // Only the cap survives on the shelf: the next `cap` checkouts
        // recycle, the one after allocates.
        let again: Vec<_> = (0..cap + 1).map(|_| pool.lease(|| vec![0u8; 1])).collect();
        assert_eq!((pool.created(), pool.recycled()), (cap + 4, cap));
        drop(again);
    }
}
