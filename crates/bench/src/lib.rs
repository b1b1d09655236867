//! # gofmm-bench
//!
//! Benchmark harness reproducing every table and figure of the GOFMM paper's
//! evaluation. The `fig*`/`table*` binaries in `src/bin/` print the same rows
//! and series the paper reports (scaled-down problem sizes; see DESIGN.md and
//! EXPERIMENTS.md); the Criterion benches in `benches/` track kernel-level
//! performance.

pub mod harness;
