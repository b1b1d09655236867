//! Width independence of the batched entry points.
//!
//! Column `j` of `apply(W)` and of `solve(W)` must be bit-equal to the
//! one-column call on `W[:, j]`, whatever the batch width. Every per-column
//! product is accumulated in the same order at any width (the GEMM's stream
//! and tile paths agree bit for bit), and the sweeps stage the right-hand
//! side in tree order once per call, so nothing that differs between widths
//! may reach a result. The widths cross every kind of edge of the GEMM's
//! stream path — one chunk of `NR` = 6 columns, a chunk tail, two full
//! chunks plus one (13), the `STREAM_MAX_COLS` gate and one past it — and
//! reach the register-tile path at 47 (a ragged tail of `NR` columns) and
//! 64; the operators cover native panels and tuned
//! `MixedF32` low-rank panels, held resident or spilled to a store file at a
//! thrashing budget; each is driven sequentially and on the two-worker DAG.
//! Widths interleave on one operator (64, then 4, then 64 again with the
//! columns reversed), so a recycled workspace that kept the previous call's
//! staged input would show up as a wrong column.

use gofmm_suite::core::{GofmmConfig, TraversalPolicy};
use gofmm_suite::linalg::blas::STREAM_MAX_COLS;
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_suite::{AccuracyBudget, ApplyOptions, GofmmOperator, PanelPrecision, StorageConfig};
use std::path::PathBuf;

const N: usize = 512;
const WIDE: usize = 64;

/// Resident budget far below one sweep's bytes: every call evicts.
const THRASHING_BUDGET: usize = 64 << 10;

fn kernel() -> KernelMatrix {
    KernelMatrix::new(
        PointCloud::uniform(N, 3, 27),
        KernelType::InverseMultiquadric { c: 0.5 },
        1e-6,
        "width-independence",
    )
}

fn config(precision: PanelPrecision) -> GofmmConfig {
    GofmmConfig::default()
        .with_leaf_size(32)
        .with_max_rank(48)
        .with_tolerance(1e-8)
        .with_budget(0.3)
        .with_threads(2)
        .with_policy(TraversalPolicy::Sequential)
        .with_panel_precision(precision)
}

/// `N x WIDE` right-hand sides from an integer hash: every column distinct.
fn rhs() -> DenseMatrix<f64> {
    DenseMatrix::from_fn(N, WIDE, |i, j| {
        let x = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((j as u64) << 23))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        ((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    })
}

fn build(
    k: &KernelMatrix,
    precision: PanelPrecision,
    tuned: bool,
    dir: Option<PathBuf>,
) -> GofmmOperator<f64> {
    let mut builder = GofmmOperator::<f64>::builder(k)
        .config(config(precision))
        .factorize(1.0);
    if tuned {
        builder = builder.tune(AccuracyBudget::new(1e-3));
    }
    if let Some(dir) = dir {
        builder = builder.storage(StorageConfig::File {
            dir,
            resident_budget: THRASHING_BUDGET,
        });
    }
    let op = builder.build().expect("operator");
    if tuned {
        let stats = op.tune_stats().expect("tune ran");
        assert!(
            stats.panels_truncated > 0,
            "the tune must produce low-rank panels"
        );
    }
    op
}

fn assert_column_bits(got: &DenseMatrix<f64>, c: usize, want: &DenseMatrix<f64>, what: &str) {
    let same = got
        .col(c)
        .iter()
        .zip(want.col(0))
        .all(|(a, b)| a.to_bits() == b.to_bits());
    assert!(same, "{what}: column {c} differs from its one-column call");
}

#[test]
fn batched_columns_match_one_column_calls_bit_for_bit() {
    let k = kernel();
    let w = rhs();
    // Column selections in call order; widths 1, 5, 6, 7 straddle the first
    // chunk edge, 13, `STREAM_MAX_COLS` and one more the chunk tails and the
    // stream/tile gate, 47 a ragged column tile, and the second 64-wide call
    // recycles the first one's workspace with different (reversed) inputs.
    let batches: Vec<Vec<usize>> = vec![
        (0..WIDE).collect(),
        vec![5, 17, 33, 62],
        (0..WIDE).rev().collect(),
        vec![9],
        (10..15).collect(),
        (20..26).collect(),
        (30..37).collect(),
        (40..56).collect(),
        (1..14).collect(),
        (8..8 + STREAM_MAX_COLS).collect(),
        (20..21 + STREAM_MAX_COLS).rev().collect(),
        (10..57).collect(),
    ];
    let root = std::env::temp_dir()
        .join("gofmm-width-independence")
        .join(std::process::id().to_string());
    let runs = [
        (TraversalPolicy::Sequential, 1),
        (TraversalPolicy::DagHeft, 2),
    ];
    for (precision, tuned) in [
        (PanelPrecision::Native, false),
        (PanelPrecision::MixedF32, true),
    ] {
        for spilled in [false, true] {
            let dir = spilled.then(|| root.join(format!("{precision:?}")));
            let op = build(&k, precision, tuned, dir);
            if spilled {
                assert_eq!(op.evaluator().cached_bytes(), 0, "every panel is on file");
            }
            for (policy, threads) in runs {
                let label = format!("{precision:?} spilled={spilled} {policy:?}/{threads}");
                let opts = ApplyOptions::new()
                    .with_policy(policy)
                    .with_threads(threads);
                let single: Vec<_> = (0..WIDE)
                    .map(|j| {
                        let col = w.select_cols(&[j]);
                        let (u, _) = op.apply_with(&col, &opts).unwrap();
                        (u, op.solve_with(&col, &opts).unwrap())
                    })
                    .collect();
                for cols in &batches {
                    let batch = w.select_cols(cols);
                    let (u, _) = op.apply_with(&batch, &opts).unwrap();
                    let x = op.solve_with(&batch, &opts).unwrap();
                    let r = cols.len();
                    for (c, &j) in cols.iter().enumerate() {
                        let (u1, x1) = &single[j];
                        assert_column_bits(&u, c, u1, &format!("{label} apply r={r}"));
                        assert_column_bits(&x, c, x1, &format!("{label} solve r={r}"));
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
