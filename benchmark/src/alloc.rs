//! A counting `#[global_allocator]`: switched on only around the calls whose
//! allocations the traced run reports, so the untraced timings pay one
//! relaxed load per allocation and nothing else.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct CountingAllocator;

static ENABLED: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards to `System` unchanged; the counters are
// statistics that publish no other data.
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

#[inline]
fn count(bytes: usize) {
    if ENABLED.load(Ordering::Relaxed) {
        CALLS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

/// Allocation calls (alloc, alloc_zeroed, realloc) and requested bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AllocCount {
    pub calls: u64,
    pub bytes: u64,
}

/// Count every allocation made by any thread while `f` runs. Not reentrant:
/// the benchmark calls it from its one driving thread only.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    CALLS.store(0, Ordering::SeqCst);
    BYTES.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    let count = AllocCount {
        calls: CALLS.load(Ordering::SeqCst),
        bytes: BYTES.load(Ordering::SeqCst),
    };
    (out, count)
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test only: the counters are process-wide and `cargo test` runs
    // tests on parallel threads.
    #[test]
    fn counts_a_known_allocation_pattern_exactly() {
        // Retry until no other test thread allocated inside the window.
        let expected = AllocCount {
            calls: 4,
            bytes: 100 + 200 + 4096 + 8192,
        };
        for _ in 0..1000 {
            let (_, got) = counted(|| {
                let a = std::hint::black_box(vec![0u8; 100]);
                let b = std::hint::black_box(Vec::<u8>::with_capacity(200));
                let mut c = std::hint::black_box(Vec::<u8>::with_capacity(4096));
                c.reserve_exact(8192); // one realloc to exactly 8192 (len is 0)
                drop((a, b, c));
            });
            if got == expected {
                return;
            }
        }
        panic!("never observed the exact count {expected:?}");
    }
}
