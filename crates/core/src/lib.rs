//! # gofmm-core
//!
//! Geometry-oblivious FMM (GOFMM) for compressing dense SPD matrices —
//! a Rust reproduction of Yu, Levitt, Reiz & Biros, SC'17.
//!
//! GOFMM builds a hierarchical low-rank plus sparse approximation
//! `K ≈ D + S + UV` of an arbitrary SPD matrix using only entry evaluation
//! `K_{ij}`: because `K` is a Gram matrix, distances between indices can be
//! defined from three entries (`d^2 = K_ii + K_jj - 2 K_ij` or the angle
//! variant), which is enough to run the full FMM machinery — metric tree
//! partitioning, neighbor search, near/far pruning, nested interpolative
//! skeletonization — without any point coordinates.
//!
//! ## Quick start
//!
//! ```
//! use gofmm_core::{compress, Evaluator, GofmmConfig, TraversalPolicy, DistanceMetric};
//! use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
//! use gofmm_linalg::DenseMatrix;
//!
//! // Any SPD matrix that can return entries works; here a Gaussian kernel.
//! let n = 512;
//! let points = PointCloud::uniform(n, 3, 0);
//! let k = KernelMatrix::new(points, KernelType::Gaussian { bandwidth: 1.0 }, 1e-6, "demo");
//!
//! let config = GofmmConfig::default()
//!     .with_leaf_size(64)
//!     .with_max_rank(64)
//!     .with_tolerance(1e-5)
//!     .with_budget(0.03)
//!     .with_metric(DistanceMetric::Angle)
//!     .with_policy(TraversalPolicy::LevelByLevel);
//!
//! let compressed = compress::<f64, _>(&k, &config);
//! let w = DenseMatrix::<f64>::from_fn(n, 2, |i, j| ((i + j) % 5) as f64);
//! // One matvec, and the compression is not needed again: the evaluator
//! // takes it by value.
//! let evaluator = Evaluator::new(&k, compressed);
//! let (u, _stats) = evaluator.apply(&w).unwrap();
//! assert_eq!(u.rows(), n);
//! ```
//!
//! For repeated matvecs against one compression — iterative solvers,
//! long-running services — keep that [`Evaluator`] and call
//! [`Evaluator::apply`] per matvec: the interaction blocks, the task DAG and
//! the per-node buffers are then reused instead of rebuilt per call.
//! Passing `&compressed` to [`Evaluator::new`] borrows the compression
//! instead, for callers that still need it (a factorization, say).
//!
//! ## Crate map
//!
//! See `ARCHITECTURE.md` at the repository root for the full workspace map
//! and the compress/evaluate task-family walkthrough (paper Algorithms 2.2
//! and 2.7, Figure 3).

#![deny(missing_docs)]

pub mod accuracy;
pub mod compress;
pub mod config;
pub mod distance;
pub mod error;
pub mod evaluate;
pub mod lists;
mod panel;
mod persist;
pub mod skel;
pub mod sweep;
pub mod tune;

pub use accuracy::{accuracy_report, AccuracyReport};
pub use compress::{compress, try_compress, CompRef, Compressed, CompressionStats};
pub use config::{ApplyOptions, GofmmConfig, PanelPrecision, TraversalPolicy};
pub use distance::{DistanceMetric, GramOracle};
pub use error::Error;
pub use evaluate::{EvaluationStats, Evaluator};
pub use lists::{build_interaction_lists, check_coverage, InteractionLists};
#[doc(hidden)]
pub use persist::{policy_from_tag, policy_tag};
pub use skel::{skeletonize_node, NodeBasis, SkelParams};
pub use sweep::{SweepDriver, SweepWorkspace};
pub use tune::{AccuracyBudget, TuneStats};

/// Storage-tier types accepted by the spill/attach/persistence surface
/// ([`Evaluator::spill_panels`], [`Evaluator::attach_store`],
/// [`Evaluator::write_to`] / [`Evaluator::open_from`]); re-exported from
/// `gofmm-store` so out-of-core callers need not depend on the store crate
/// directly.
pub use gofmm_store::{FilePanelStore, StorageConfig, StoreStatsSnapshot, StoreWriter};

/// Cooperative cancellation token accepted by [`ApplyOptions::with_cancel`];
/// re-exported from `gofmm-runtime` so serving callers need not depend on
/// the runtime crate directly.
pub use gofmm_runtime::CancelToken;

/// Observability types accepted by [`ApplyOptions::with_trace`] and
/// returned from flushed traces; re-exported from `gofmm-telemetry` so
/// callers tracing an apply need not depend on the telemetry crate
/// directly.
pub use gofmm_telemetry::{MetricsRegistry, SpanKind, Trace, TraceSink, TraceSummary};

/// Relative error `||K w - u|| / ||K w||` estimated on sampled rows (the
/// paper's epsilon_2 metric); re-exported from `gofmm-matrices` for
/// convenience.
pub use gofmm_matrices::sampled_relative_error;
