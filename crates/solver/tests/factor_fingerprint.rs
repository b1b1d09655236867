//! Golden-bits fingerprint of the factorizations' solves.
//!
//! The solver's other bit-identity suites compare two paths of the same
//! build (policies, threads, widths, residences) to each other, so a change
//! that moves every path together passes them. This test pins the bits
//! themselves: FNV-1a over the `to_bits()` of a 3-column solve, for the ULV
//! factor (resident, and persisted with `write_to` then reopened with
//! `open_from` at a thrashing resident budget) and the SMW factor, at a
//! pure-HSS budget and at a budget that leaves near blocks to the Krylov
//! iteration. Each factor's `stats().bytes` is pinned alongside, so the
//! storage accounting of either node kernel cannot drift.
//!
//! The matrix is an inverse-multiquadric kernel (`+ − × ÷ sqrt` only, all
//! correctly rounded by IEEE 754), the right-hand side an integer hash, so
//! no constant depends on the platform's libm. Compression uses the
//! dispatched dot product, which is roundoff-equal, not bit-equal, to the
//! scalar one, so each row is recorded per [`SimdLevel`]: the AVX2 column
//! runs under default dispatch, the scalar one under `GOFMM_FORCE_SCALAR=1`
//! (or on a host without AVX2).

use gofmm_core::{compress, Compressed, GofmmConfig, StoreWriter, TraversalPolicy};
use gofmm_linalg::{simd_level, DenseMatrix, SimdLevel};
use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_solver::{HierarchicalFactor, UlvFactor};
use std::path::PathBuf;
use std::sync::Arc;

const N: usize = 512;

/// Regularization of every factorization here.
const LAMBDA: f64 = 1e-1;

/// Decoded-byte budget far below the factor's node bytes: every reopened
/// solve evicts and faults nodes back in.
const THRASHING_BUDGET: usize = 16 << 10;

fn kernel() -> KernelMatrix {
    KernelMatrix::new(
        PointCloud::uniform(N, 3, 20171),
        KernelType::InverseMultiquadric { c: 0.5 },
        1e-6,
        "factor-fingerprint",
    )
}

fn config(budget: f64) -> GofmmConfig {
    GofmmConfig::default()
        .with_leaf_size(32)
        .with_max_rank(48)
        .with_tolerance(1e-8)
        .with_budget(budget)
        .with_threads(2)
        .with_policy(TraversalPolicy::Sequential)
}

fn rhs() -> DenseMatrix<f64> {
    DenseMatrix::from_fn(N, 3, |i, j| {
        let x = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ((j as u64) << 17))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9);
        ((x >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0
    })
}

fn fnv1a(u: &DenseMatrix<f64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in u.data() {
        for byte in v.to_bits().to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("gofmm-factor-fingerprint")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Index of the running dispatch level in the `[scalar, avx2]` columns.
fn level() -> usize {
    match simd_level() {
        SimdLevel::Scalar => 0,
        SimdLevel::Avx2 => 1,
    }
}

/// One recorded compression budget: FNV-1a of the solve output as
/// `[scalar, avx2]` and `stats().bytes`, for the ULV factor (the same bits
/// resident and reopened) and the SMW factor. Both factor the hierarchical
/// part of the operator only, which the budget leaves alone, so the two rows
/// agree: the second pins that near blocks never reach a factor.
struct Golden {
    budget: f64,
    ulv_solve: [u64; 2],
    ulv_bytes: usize,
    smw_solve: [u64; 2],
    smw_bytes: usize,
}

#[rustfmt::skip]
const GOLDEN: [Golden; 2] = [
    Golden {
        budget: 0.0,
        ulv_solve: [0xa570_9278_6fcf_fbbe, 0x972d_43ba_24af_a1d5], ulv_bytes:   780_928,
        smw_solve: [0xa038_35db_28b5_9bac, 0x0ea9_cdce_6000_da1a], smw_bytes: 2_625_536,
    },
    Golden {
        budget: 0.3,
        ulv_solve: [0xa570_9278_6fcf_fbbe, 0x972d_43ba_24af_a1d5], ulv_bytes:   780_928,
        smw_solve: [0xa038_35db_28b5_9bac, 0x0ea9_cdce_6000_da1a], smw_bytes: 2_625_536,
    },
];

fn check_ulv(k: &KernelMatrix, comp: &Arc<Compressed<f64>>, label: &str, golden: &Golden) {
    let ulv = UlvFactor::new(k, Arc::clone(comp), LAMBDA).unwrap();
    let x = ulv.solve(&rhs()).unwrap();
    assert_eq!(fnv1a(&x), golden.ulv_solve[level()], "{label}: ULV solve");
    assert_eq!(ulv.stats().bytes, golden.ulv_bytes, "{label}: ULV bytes");

    let dir = tmp_dir(label);
    let path = dir.join("factor.gfmm");
    let mut writer = StoreWriter::create(&path).unwrap();
    ulv.write_to(&mut writer).unwrap();
    writer.finish().unwrap();
    let reopened = UlvFactor::open_from(&path, Arc::clone(comp), THRASHING_BUDGET).unwrap();
    assert!(
        reopened.stats().bytes > 4 * THRASHING_BUDGET,
        "{label}: the budget must thrash"
    );
    for _ in 0..2 {
        let x = reopened.solve(&rhs()).unwrap();
        assert_eq!(
            fnv1a(&x),
            golden.ulv_solve[level()],
            "{label}: reopened ULV solve"
        );
    }
    assert_eq!(
        reopened.stats().bytes,
        golden.ulv_bytes,
        "{label}: reopened bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

fn check_smw(k: &KernelMatrix, comp: &Compressed<f64>, label: &str, golden: &Golden) {
    let smw = HierarchicalFactor::new(k, comp, LAMBDA).unwrap();
    let x = smw.solve(&rhs()).unwrap();
    assert_eq!(fnv1a(&x), golden.smw_solve[level()], "{label}: SMW solve");
    assert_eq!(smw.stats().bytes, golden.smw_bytes, "{label}: SMW bytes");
}

#[test]
fn solve_bits_match_the_recorded_fingerprints() {
    let k = kernel();
    for golden in &GOLDEN {
        let label = format!("budget-{}", golden.budget);
        let comp = Arc::new(compress::<f64, _>(&k, &config(golden.budget)));
        check_ulv(&k, &comp, &label, golden);
        check_smw(&k, &comp, &label, golden);
    }
}
