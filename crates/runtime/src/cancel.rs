//! Cooperative cancellation for long-running sweeps.
//!
//! A [`CancelToken`] is a cloneable flag shared between a caller and the
//! engine working on its behalf. The caller sets it ([`CancelToken::cancel`]);
//! the engine polls it at checkpoints inside its sweep loops — before every
//! task under every schedule, between Krylov iterations — and winds down
//! instead of finishing the request. Cancellation is *cooperative*: nothing is
//! interrupted mid-task, so every workspace an engine leased stays
//! structurally valid and goes back to its pool for the next request.
//!
//! The runners keep their termination detection intact under
//! cancellation by *draining* rather than stopping: once the token is
//! observed, remaining tasks are popped and their successors released
//! without running the task bodies, so every worker's `done()` check still
//! fires and no queue is abandoned mid-flight.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A cloneable cancellation flag checked cooperatively inside sweep loops.
///
/// All clones share one flag: cancelling any clone cancels them all.
/// Checking costs one relaxed-ordering atomic load, cheap enough to poll
/// once per DAG task or Krylov iteration.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the flag. Idempotent; there is no way to un-cancel.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// True once any clone of this token was cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }

    /// True when `self` and `other` share the same underlying flag.
    pub fn same_token(&self, other: &CancelToken) -> bool {
        Arc::ptr_eq(&self.flag, &other.flag)
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        self.same_token(other)
    }
}

impl Eq for CancelToken {}

/// Marker error of the cancellable runners: the run observed its token and
/// drained instead of completing. Downstream crates map this onto their own
/// error enums (`gofmm_core::Error::Cancelled`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Cancelled;

impl std::fmt::Display for Cancelled {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run cancelled before completion")
    }
}

impl std::error::Error for Cancelled {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        // Idempotent.
        a.cancel();
        assert!(a.is_cancelled());
    }

    #[test]
    fn equality_is_flag_identity() {
        let a = CancelToken::new();
        let b = a.clone();
        let c = CancelToken::new();
        assert_eq!(a, b);
        assert!(a.same_token(&b));
        assert_ne!(a, c);
        assert!(!a.same_token(&c));
    }

    #[test]
    fn cancelled_displays_and_boxes() {
        let boxed: Box<dyn std::error::Error> = Box::new(Cancelled);
        assert!(boxed.to_string().contains("cancelled"));
        assert!(boxed.source().is_none());
    }
}
