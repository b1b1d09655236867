//! Property test of the serving workspace pool: across arbitrary concurrent
//! checkout/return schedules, no two in-flight leases ever hold the same
//! workspace (no aliasing), and the pool never allocates more workspaces
//! than its peak concurrency.

use gofmm_runtime::WorkspacePool;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A workspace with a unique identity. The `stamp` field is scribbled on
/// while leased to catch aliasing through data, not just through identity.
struct Ws {
    id: usize,
    stamp: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lease/return under concurrency never aliases.
    #[test]
    fn concurrent_leases_never_alias(
        threads in 1usize..6,
        iters in 1usize..40,
    ) {
        let pool: WorkspacePool<Ws> = WorkspacePool::new();
        let next_id = AtomicUsize::new(0);
        let in_flight: Mutex<HashSet<usize>> = Mutex::new(HashSet::new());
        let next_stamp = AtomicUsize::new(1);

        std::thread::scope(|scope| {
            for _ in 0..threads {
                let pool = &pool;
                let next_id = &next_id;
                let in_flight = &in_flight;
                let next_stamp = &next_stamp;
                scope.spawn(move || {
                    for _ in 0..iters {
                        let mut lease = pool.lease(|| Ws {
                            id: next_id.fetch_add(1, Ordering::Relaxed),
                            stamp: 0,
                        });
                        // Identity: this workspace must not be leased anywhere
                        // else right now.
                        assert!(
                            in_flight.lock().unwrap().insert(lease.id),
                            "workspace {} aliased across concurrent leases",
                            lease.id
                        );
                        // Data: scribble a unique stamp, yield, and verify no
                        // other lease overwrote it.
                        let stamp = next_stamp.fetch_add(1, Ordering::Relaxed);
                        lease.stamp = stamp;
                        std::thread::yield_now();
                        assert_eq!(lease.stamp, stamp, "workspace data raced");
                        // Retire the id before the workspace goes back on the
                        // shelf: once dropped, another thread may lease it
                        // and insert the same id at once.
                        assert!(in_flight.lock().unwrap().remove(&lease.id));
                        drop(lease);
                    }
                });
            }
        });

        // Peak concurrency bounds the allocations: at most one workspace per
        // thread can ever have been live at once.
        prop_assert!(pool.created() <= threads,
            "created {} > threads {}", pool.created(), threads);
        prop_assert_eq!(pool.created() + pool.recycled(), threads * iters);
    }
}
