//! Report-type progress listeners for long-running flights.
//!
//! Mirrors the listener pattern in sparrow's `util/listener.rs`: the
//! driver (here the CG loop) pushes typed [`ProgressReport`]s to an
//! installed [`ProgressListener`]; consumers decide what to do with them
//! (the batched server folds them into per-request progress cells exposed
//! through `Ticket::progress()`). Reports borrow the driver's working
//! state — listeners must copy out what they want to keep and return
//! quickly, since they run inline on the iteration path.

use std::fmt;
use std::sync::Arc;

/// One progress report from a long-running driver.
#[derive(Clone, Copy, Debug)]
pub enum ProgressReport<'a> {
    /// Emitted by the blocked-CG loop once per iteration, after the
    /// per-column residuals and the freezing mask have been updated.
    KrylovIteration {
        /// Iterations completed so far (1-based after the first).
        iteration: usize,
        /// Current maximum relative residual across still-active columns
        /// (the convergence criterion).
        max_residual: f64,
        /// Per-column relative residuals, one per right-hand-side column.
        column_residuals: &'a [f64],
        /// Per-column activity mask: `false` means the column has frozen
        /// (converged and left the iteration).
        column_active: &'a [bool],
    },
    /// Emitted by the apply/solve sweeps as tree-level stages complete, so
    /// plain (non-Krylov) flights can surface live progress. A "stage" is
    /// one level of one task family (e.g. N2S at level 3); `total` is fixed
    /// for the whole sweep, `completed` is monotone within it.
    SweepLevel {
        /// Task family of the stage that just finished ("N2S", "S2S",
        /// "S2N", "L2L", "SUP", "SDOWN").
        family: &'static str,
        /// Sweep stages completed so far (monotone, `<= total`).
        completed: usize,
        /// Total stages in this sweep.
        total: usize,
    },
}

/// A consumer of [`ProgressReport`]s. Implementations must be cheap and
/// non-blocking — they run inline in the driver's iteration loop.
pub trait ProgressListener: Send + Sync {
    /// Receive one report.
    fn report(&self, report: &ProgressReport<'_>);
}

impl<F> ProgressListener for F
where
    F: Fn(&ProgressReport<'_>) + Send + Sync,
{
    fn report(&self, report: &ProgressReport<'_>) {
        (self)(report);
    }
}

/// A cloneable, type-erased handle to a [`ProgressListener`], installable
/// on `KrylovOptions`. Equality is identity (same listener object), which
/// keeps option structs comparable.
#[derive(Clone)]
pub struct ProgressHandle {
    listener: Arc<dyn ProgressListener>,
}

impl ProgressHandle {
    /// Wrap a listener.
    pub fn new(listener: impl ProgressListener + 'static) -> Self {
        ProgressHandle {
            listener: Arc::new(listener),
        }
    }

    /// Forward one report to the listener.
    pub fn report(&self, report: &ProgressReport<'_>) {
        self.listener.report(report);
    }
}

impl fmt::Debug for ProgressHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ProgressHandle").finish_non_exhaustive()
    }
}

impl PartialEq for ProgressHandle {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.listener, &other.listener)
    }
}

impl Eq for ProgressHandle {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn closure_listeners_receive_reports() {
        let count = Arc::new(AtomicUsize::new(0));
        let c = Arc::clone(&count);
        let handle = ProgressHandle::new(move |r: &ProgressReport<'_>| {
            if matches!(r, ProgressReport::KrylovIteration { .. }) {
                c.fetch_add(1, Ordering::Relaxed);
            }
        });
        let residuals = [0.5, 1e-12];
        let active = [true, false];
        let report = ProgressReport::KrylovIteration {
            iteration: 3,
            max_residual: 0.5,
            column_residuals: &residuals,
            column_active: &active,
        };
        handle.report(&report);
        handle.report(&ProgressReport::SweepLevel {
            family: "N2S",
            completed: 1,
            total: 4,
        });
        assert_eq!(count.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn sweep_reports_reach_listeners() {
        let last = Arc::new(AtomicUsize::new(0));
        let l = Arc::clone(&last);
        let handle = ProgressHandle::new(move |r: &ProgressReport<'_>| {
            if let ProgressReport::SweepLevel { completed, .. } = r {
                l.store(*completed, Ordering::Relaxed);
            }
        });
        for completed in 1..=4 {
            handle.report(&ProgressReport::SweepLevel {
                family: "N2S",
                completed,
                total: 4,
            });
        }
        assert_eq!(last.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn handles_compare_by_identity() {
        let a = ProgressHandle::new(|_: &ProgressReport<'_>| {});
        let b = a.clone();
        let c = ProgressHandle::new(|_: &ProgressReport<'_>| {});
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
