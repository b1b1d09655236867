//! Umbrella crate for the GOFMM reproduction workspace.
//!
//! Re-exports the public APIs of all member crates so that examples and
//! integration tests can use a single import root, and surfaces the
//! serving front door at the top level: [`GofmmOperator`] (one builder for
//! compress → evaluate → factor → solve, yielding a `Send + Sync` handle
//! with `&self` entry points), [`BatchedServer`] (the traffic layer that
//! coalesces concurrent requests into wide batched calls, with deadlines
//! and cancellation), and the workspace-wide [`Error`] type.
//!
//! The observability layer rides on the same handles: install a
//! [`TraceSink`] through `ApplyOptions` / [`KrylovOptions`] /
//! [`ServeConfig`] to record per-task spans (export them to Perfetto with
//! `Trace::to_chrome_json`), a [`MetricsRegistry`] for Prometheus-style
//! counters, and poll [`Ticket::progress`] for live per-flight solve
//! progress.

pub use gofmm_baselines as baselines;
pub use gofmm_core as core;
pub use gofmm_linalg as linalg;
pub use gofmm_matrices as matrices;
pub use gofmm_runtime as runtime;
pub use gofmm_solver as solver;
pub use gofmm_telemetry as telemetry;
pub use gofmm_tree as tree;

pub use gofmm_core::{AccuracyBudget, ApplyOptions, CancelToken, Error, PanelPrecision, TuneStats};
pub use gofmm_solver::{
    BatchedServer, FlightProgress, GofmmOperator, GofmmOperatorBuilder, KrylovOptions, ServeConfig,
    ServerStats, StorageConfig, StoreStatsSnapshot, Ticket,
};
pub use gofmm_telemetry::{MetricsRegistry, ProgressHandle, ProgressReport, Trace, TraceSink};
