//! One way to run a sweep: the call protocol of
//! [`crate::Evaluator::apply_with`] and of the solver's one factor driver's
//! `solve_with`. Each re-runs one frozen task plan per call (paper §2.3)
//! and supplies only its workspace, its task bodies and its output
//! assembly; [`SweepDriver::run`] does the rest.
//!
//! Tasks return `Result`: the first task error (a failed store fault, say)
//! stops the run, the remaining tasks drain as under cancellation, and the
//! error is the call's. The lease hands its workspace back to the pool
//! either way, and [`SweepWorkspace::reset`] readies whichever workspace the
//! next call leases, so a failed or cancelled call leaves the engine
//! reusable.

use crate::config::{ApplyOptions, TraversalPolicy};
use crate::error::Error;
use gofmm_linalg::{DenseMatrix, Scalar};
use gofmm_runtime::{CancelToken, ExecStats, Family, ReusablePlan, WorkspacePool};
use gofmm_telemetry::SpanKind;
use gofmm_tree::PartitionTree;

/// The per-call buffers of one sweep, pooled whatever their width.
pub trait SweepWorkspace<T: Scalar>: Sync {
    /// The `n x r` input in tree order (row `pos` holds original row
    /// `perm[pos]`), filled in full before every sweep.
    fn staged(&mut self) -> &mut DenseMatrix<T>;

    /// Ready a fresh or recycled workspace for an `r`-column sweep: give
    /// every cell `r` columns in place ([`DenseMatrix::resize`], reusing its
    /// capacity) and zero the cells the sweep accumulates into.
    fn reset(&mut self, r: usize);
}

/// What a persistent engine re-runs per call: a frozen task plan, its
/// default policy and worker count, and a pool of workspaces.
pub struct SweepDriver<W> {
    /// Label of the call's `Phase` span.
    phase: &'static str,
    /// What a wrong input row count is reported as.
    rows: &'static str,
    plan: ReusablePlan,
    policy: TraversalPolicy,
    threads: usize,
    pool: WorkspacePool<W>,
}

impl<W> SweepDriver<W> {
    /// A driver running `plan` under `policy` on `threads` workers (at
    /// least one) unless a call overrides them, recording `phase` spans and
    /// reporting a wrong input row count as `rows`.
    pub fn new(
        phase: &'static str,
        rows: &'static str,
        plan: ReusablePlan,
        policy: TraversalPolicy,
        threads: usize,
    ) -> Self {
        Self {
            phase,
            rows,
            plan,
            policy,
            threads: threads.max(1),
            pool: WorkspacePool::new(),
        }
    }

    /// The default traversal policy.
    pub fn policy(&self) -> TraversalPolicy {
        self.policy
    }

    /// The default worker-thread count (always >= 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The policy and worker count of a call: its overrides, else the
    /// defaults.
    fn resolve(&self, opts: &ApplyOptions) -> (TraversalPolicy, usize) {
        let threads = opts.threads.map_or(self.threads, |t| t.max(1));
        (opts.policy.unwrap_or(self.policy), threads)
    }

    /// Lifetime lease traffic of the workspace pool, as `(created,
    /// recycled)` checkouts.
    pub fn pool_lease_stats(&self) -> (usize, usize) {
        (self.pool.created(), self.pool.recycled())
    }

    /// Run one sweep over `input` (`n x r`, original row order): check the
    /// rows and the cancel token, lease a workspace (`allocate` makes one on
    /// a pool miss) and reset it to `r` columns, stage the input through
    /// `tree`'s permutation, run every task as `task(workspace, family,
    /// node)` with the call's cancel token, trace sink and progress
    /// listener, then `assemble(workspace, stats)` and record the call's
    /// `Phase` span.
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] when `input.rows() != n`;
    /// [`Error::Cancelled`] when `opts.cancel` fires before the sweep
    /// completes; otherwise the first error a task returns.
    pub fn run<T: Scalar, O>(
        &self,
        tree: &PartitionTree,
        input: &DenseMatrix<T>,
        opts: &ApplyOptions,
        allocate: impl FnOnce() -> W,
        task: impl Fn(&W, Family, usize) -> Result<(), Error> + Sync,
        assemble: impl FnOnce(&mut W, ExecStats) -> O,
    ) -> Result<O, Error>
    where
        W: SweepWorkspace<T>,
    {
        if input.rows() != tree.n() {
            return Err(Error::DimensionMismatch {
                what: self.rows,
                expected: tree.n(),
                got: input.rows(),
            });
        }
        let cancel = opts.cancel.as_ref();
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(Error::Cancelled);
        }
        let (policy, threads) = self.resolve(opts);
        let sink = opts.trace.as_ref();
        let phase_start = sink.map(|s| s.now());
        let mut ws = self.pool.lease(allocate);
        ws.reset(input.cols());
        input.gather_rows_into(tree.perm(), ws.staged());
        let staged = &*ws;
        let progress = opts.progress.as_ref();
        let exec =
            self.plan
                .run_with(policy, threads, cancel, sink, progress, |family, node| {
                    task(staged, family, node)
                })?;
        let out = assemble(&mut ws, exec);
        if let (Some(s), Some(t0)) = (sink, phase_start) {
            s.record(SpanKind::Phase, self.phase, 0, 0, t0, s.now());
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_defaults_resolution() {
        use TraversalPolicy::{DagFifo, DagHeft, Sequential};
        let driver = |policy, threads| {
            SweepDriver::<()>::new("X", "rows", ReusablePlan::new(), policy, threads)
        };
        assert_eq!(driver(DagHeft, 0).threads(), 1, "thread count clamps to 1");
        let d = driver(Sequential, 4);
        assert_eq!((d.policy(), d.threads()), (Sequential, 4));
        assert_eq!(d.resolve(&ApplyOptions::new()), (Sequential, 4));
        let opts = ApplyOptions::new().with_policy(DagFifo).with_threads(0);
        assert_eq!(d.resolve(&opts), (DagFifo, 1));
    }
}
