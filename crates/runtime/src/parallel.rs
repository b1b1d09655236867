//! Data-parallel helper: a dynamically scheduled `parallel_for` over an index
//! range, built directly on scoped threads.
//!
//! It replaces the paper's `omp parallel for schedule(dynamic)` loops (used
//! for the "any order" tasks and the level-by-level traversals). We do not use
//! rayon: the point of the reproduction is GOFMM's own runtime, and this
//! helper is intentionally the simplest possible dynamic scheduler so the
//! comparison against the DAG runtime stays meaningful.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Number of hardware threads available, used as the default worker count.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Dynamically scheduled parallel loop over `0..n`.
///
/// `f(i)` is called exactly once for every index; chunks of indices are handed
/// to threads from a shared atomic counter, which provides load balancing for
/// irregular per-index costs (e.g. per-node skeletonization with adaptive
/// ranks).
pub fn parallel_for<F>(n: usize, num_threads: usize, f: F)
where
    F: Fn(usize) + Sync,
{
    let num_threads = num_threads.max(1).min(n.max(1));
    if n == 0 {
        return;
    }
    if num_threads == 1 {
        for i in 0..n {
            f(i);
        }
        return;
    }
    // Chunk size balances scheduling overhead against load balance.
    let chunk = (n / (num_threads * 8)).max(1);
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..num_threads {
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                for i in start..end {
                    f(i);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn parallel_for_visits_every_index_once() {
        let n = 10_000;
        let flags: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, 8, |i| {
            flags[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(flags.iter().all(|f| f.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_single_thread_and_empty() {
        let sum = AtomicU64::new(0);
        parallel_for(100, 1, |i| {
            sum.fetch_add(i as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 4950);
        parallel_for(0, 4, |_| panic!("must not be called"));
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
