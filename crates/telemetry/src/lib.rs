//! # gofmm-telemetry
//!
//! Observability layer for the GOFMM reproduction — the "flight deck" the
//! serving stack reports into. Everything here is strictly optional for the
//! numerical layers: when no sink, registry or listener is installed, the
//! instrumented hot paths pay only an `Option` check and stay bit-identical
//! to the uninstrumented code.
//!
//! Three independent instruments:
//!
//! * [`TraceSink`] — a lock-free span recorder. Worker threads append
//!   `(family, node, level, worker, t_start, t_end)` events into
//!   thread-local chunk lanes (fixed-size chunks chained through a shared
//!   registry; the registry mutex is touched once per few thousand events,
//!   never per event, and events are never overwritten or dropped). A sink
//!   is installed per call through `ApplyOptions` / `KrylovOptions` /
//!   `ServeConfig` in the downstream crates, and flushed at any time into a
//!   [`Trace`]: a sorted snapshot that exports Chrome trace-event JSON
//!   (viewable at <https://ui.perfetto.dev>) and computes a
//!   [`TraceSummary`] — per-family and per-level wall time, per-worker
//!   busy/idle fractions, and the realized critical path of the task DAG.
//! * [`MetricsRegistry`] — named [`Counter`]s, [`Gauge`]s and
//!   [`Histogram`]s with Prometheus-style text exposition
//!   ([`MetricsRegistry::prometheus_text`]) and JSON export. The serving
//!   layer publishes pool lease traffic, admission/rejection counts, batch
//!   widths, panel bytes and the kernel dispatch level through one
//!   registry.
//! * [`ProgressListener`] — a report-type listener (in the spirit of
//!   sparrow's `util/listener.rs`): long-running drivers push
//!   [`ProgressReport`]s (live CG iteration counts, current max column
//!   residual, frozen-column counts) to an installed [`ProgressHandle`],
//!   which the batched server surfaces per request via `Ticket::progress()`.
//!
//! The [`stats`] module holds the small shared timing vocabulary
//! ([`Stopwatch`], [`PhaseTimes`], [`LatencySummary`]) that the public
//! `EvaluationStats` / `SolveStats` / `ServerStats` structs expose thin
//! views over.

#![deny(missing_docs)]

pub mod json;
pub mod metrics;
pub mod progress;
pub mod sink;
pub mod stats;
pub mod trace;

pub use json::validate_chrome_trace;
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use progress::{ProgressHandle, ProgressListener, ProgressReport};
pub use sink::{SpanEvent, SpanGuard, SpanKind, TraceSink};
pub use stats::{LatencySummary, PhaseTimes, Stopwatch};
pub use trace::{Trace, TraceSummary};
