//! # gofmm-runtime
//!
//! Self-contained shared-memory task runtime for the GOFMM reproduction.
//!
//! The GOFMM paper (§2.3) replaces level-by-level tree traversals with an
//! out-of-order task runtime: algorithmic tasks (SKEL, COEF, N2S, S2S, S2N,
//! L2L, ...) become nodes of a dependency DAG discovered by symbolic
//! traversal, and a light-weight HEFT scheduler with job stealing executes the
//! DAG. This crate provides:
//!
//! * [`plan`] — the task-DAG layer: symbolic `(family, node)` task keys
//!   over a tree topology, per-node cell storage with DAG-delegated
//!   synchronization, and uniform dispatch across the four schedules. Every
//!   GOFMM phase (SKEL compression, N2S/S2S/S2N/L2L evaluation, the solver
//!   factorizations and their SUP/SDOWN solves) builds its DAG through this
//!   layer: a [`plan::ReusablePlan`], which freezes the DAG once and runs
//!   it with one dispatch callback per run — once for the one-shot phases,
//!   any number of times (including from several threads at once) for the
//!   evaluation DAG behind a persistent evaluator and the solve sweeps,
//! * [`executor`] — the four schedules of [`TraversalPolicy`]: HEFT with
//!   per-worker queues and stealing, a plain FIFO pool (the
//!   `omp task depend` stand-in), level-by-level barrier groups, and a
//!   sequential baseline,
//! * [`parallel`] — the dynamically scheduled `parallel_for` used by the
//!   level-by-level schedule and by "any order" loops,
//! * [`pool`] — shared-state serving support: [`pool::WorkspacePool`] leases
//!   per-call buffer bundles from one shelf (the caller resizes a leased
//!   bundle to its right-hand-side width) so persistent engines can serve
//!   `&self` applies/solves concurrently.
//!
//! See `ARCHITECTURE.md` at the repository root for how these pieces fit the
//! paper's phases.

#![deny(missing_docs)]

pub mod cancel;
pub mod executor;
pub mod parallel;
pub mod plan;
pub mod pool;

pub use cancel::{CancelToken, Cancelled};
pub use executor::{ExecStats, TraversalPolicy};
pub use parallel::{available_threads, parallel_for};
pub use plan::{
    heap_children, heap_is_ancestor_or_self, heap_level, heap_parent, DisjointCells, Family,
    ReusablePlan,
};
pub use pool::{Lease, WorkspacePool};
