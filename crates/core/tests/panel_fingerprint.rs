//! Golden-bits fingerprint of the apply path.
//!
//! Every other bit-identity suite compares two paths of the *same build* to
//! each other, so a change that shifts all of them together (a reordered
//! GEMM, a different accumulation width) passes. This test pins the output
//! bit patterns themselves: FNV-1a over the `to_bits()` of a 3-column apply,
//! for each panel precision × {untuned, tuned} × {resident, spilled and
//! attached at a thrashing budget, persisted and reopened} — compared
//! against constants recorded before the seven-variant `Panel` enum was
//! collapsed. The resident-byte gauge is
//! pinned alongside, so the panel byte accounting cannot drift either. A
//! second table pins a tuned operator whose accepted rung drops far blocks
//! after rejecting several rungs, recorded before the tuner kept one
//! factorization per panel across rungs.
//!
//! The matrix is an inverse-multiquadric kernel (`+ − × ÷ sqrt` only, all
//! correctly rounded by IEEE 754), the right-hand side an integer hash, so
//! no constant depends on the platform's libm. The dispatched dot product is
//! roundoff-equal, not bit-equal, to the scalar one and compression uses it,
//! so each fingerprint is recorded per [`SimdLevel`]: the AVX2 column runs
//! under default dispatch, the scalar one under `GOFMM_FORCE_SCALAR=1` (or on
//! a host without AVX2).

use gofmm_core::{
    compress, AccuracyBudget, Evaluator, FilePanelStore, GofmmConfig, PanelPrecision, StoreWriter,
    TraversalPolicy,
};
use gofmm_linalg::{simd_level, DenseMatrix, SimdLevel};
use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
use std::path::PathBuf;
use std::sync::Arc;

const N: usize = 512;

/// Resident budget far below one sweep's panel bytes: every apply evicts.
const THRASHING_BUDGET: usize = 64 << 10;

fn kernel() -> KernelMatrix {
    KernelMatrix::new(
        PointCloud::uniform(N, 3, 20170),
        KernelType::InverseMultiquadric { c: 0.5 },
        1e-6,
        "panel-fingerprint",
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
        .join("gofmm-panel-fingerprint")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The recorded state of each (precision, tuned) operator: FNV-1a of the
/// apply output as `[scalar, avx2]` — identical wherever the panels live —
/// and `cached_bytes()` with every panel resident. Every operator stores
/// each symmetric near block once (the owner layout); a tuned one truncates
/// the owner panels in place, so a low-rank near panel also serves its
/// mirror blocks.
#[rustfmt::skip]
const GOLDEN: [(PanelPrecision, bool, [u64; 2], usize); 4] = [
    (PanelPrecision::Native,   false, [0x93a8_02a4_b555_1e62, 0x3aad_59e4_5868_0aca], 1_050_624),
    (PanelPrecision::Native,   true,  [0xaa16_d101_176b_fc48, 0x6087_e555_8593_1b1c],   645_120),
    (PanelPrecision::MixedF32, false, [0xc163_7543_3db3_f87d, 0x53eb_dc8e_19d9_3405],   525_312),
    (PanelPrecision::MixedF32, true,  [0xdc7e_168c_4117_834c, 0x4a5c_1858_c214_cfc4],   322_560),
];

/// `cached_bytes()` once every panel is file-backed: nothing stays resident.
const SPILLED_BYTES: usize = 0;

/// Index of the running dispatch level in the `[scalar, avx2]` columns.
fn level() -> usize {
    match simd_level() {
        SimdLevel::Scalar => 0,
        SimdLevel::Avx2 => 1,
    }
}

/// A tuned operator whose accepted rung also drops far blocks, as
/// `(precision, [scalar, avx2], cached_bytes())`: the points of [`kernel`]
/// dealt into three unit cubes at `x` offsets 0, 200 and 2000, so far blocks
/// between cubes are small at three different scales, tuned at a budget the
/// search reaches only after eight rejected rungs. The early rungs drop more
/// blocks than the accepted one, so the kept far lists change between
/// rungs and the tuner's per-panel factorizations restart on new column
/// sets.
#[rustfmt::skip]
const GOLDEN_DROPPING: [(PanelPrecision, [u64; 2], usize); 2] = [
    (PanelPrecision::Native,   [0x8238_e6b4_181a_7ed0, 0xc2f6_0283_6c58_79c5], 553_600),
    (PanelPrecision::MixedF32, [0xe677_6c21_5231_9800, 0xf5c3_ee0b_0a40_9725], 276_800),
];

/// Budget of the [`GOLDEN_DROPPING`] rows.
const DROPPING_BUDGET: f64 = 1e-3;

fn three_cluster_kernel() -> KernelMatrix {
    const OFFSETS: [f64; 3] = [0.0, 200.0, 2000.0];
    let cube = PointCloud::uniform(N, 3, 20170);
    let data = cube
        .data()
        .chunks(3)
        .enumerate()
        .flat_map(|(i, p)| [p[0] + OFFSETS[i % 3], p[1], p[2]])
        .collect();
    KernelMatrix::new(
        PointCloud::from_vec(3, data),
        KernelType::InverseMultiquadric { c: 0.5 },
        1e-6,
        "panel-fingerprint-three-clusters",
    )
}

/// Apply `ev` resident, persisted and reopened out of core, and spilled and
/// attached at a thrashing budget: every apply must hash to `want`, and the
/// resident panels must hold `resident_bytes`.
fn check_every_residence(
    ev: &mut Evaluator<'_, f64>,
    label: &str,
    want: u64,
    resident_bytes: usize,
) {
    let w = rhs();

    // Resident.
    let (u, _) = ev.apply(&w).unwrap();
    assert_eq!(fnv1a(&u), want, "{label}: resident apply");
    assert_eq!(ev.cached_bytes(), resident_bytes, "{label}");

    // Persisted, then reopened out of core.
    let dir = tmp_dir(label);
    let operator_path = dir.join("operator.gfmm");
    let mut writer = StoreWriter::create(&operator_path).unwrap();
    ev.write_to(&mut writer).unwrap();
    writer.finish().unwrap();
    let (_, reopened) = Evaluator::<f64>::open_from(&operator_path, THRASHING_BUDGET).unwrap();
    let (u, _) = reopened.apply(&w).unwrap();
    assert_eq!(fnv1a(&u), want, "{label}: reopened apply");
    assert_eq!(reopened.cached_bytes(), SPILLED_BYTES, "{label}");

    // Spilled and attached at a thrashing budget.
    let panels_path = dir.join("panels.gfmm");
    let mut writer = StoreWriter::create(&panels_path).unwrap();
    ev.spill_panels(&mut writer).unwrap();
    writer.finish().unwrap();
    let store = Arc::new(FilePanelStore::open(&panels_path, THRASHING_BUDGET).unwrap());
    ev.attach_store(&store);
    let (u, _) = ev.apply(&w).unwrap();
    assert_eq!(fnv1a(&u), want, "{label}: attached apply");
    assert_eq!(ev.cached_bytes(), SPILLED_BYTES, "{label}");
    assert!(
        store.stats().evictions > 0,
        "{label}: the budget must thrash"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn apply_bits_match_the_recorded_fingerprints() {
    let k = kernel();
    for (precision, tuned, apply, resident_bytes) in GOLDEN {
        let label = format!("{precision:?} tuned={tuned}");
        let comp = compress::<f64, _>(&k, &config(precision));
        let mut ev = Evaluator::new(&k, &comp);
        if tuned {
            let stats = ev.tune(&AccuracyBudget::new(1e-3)).unwrap();
            assert!(stats.accepted_any(), "{label}: 1e-3 must be attainable");
            assert!(
                stats.panels_truncated > 0,
                "{label}: the tune must produce low-rank panels"
            );
        }
        check_every_residence(&mut ev, &label, apply[level()], resident_bytes);
    }
}

#[test]
fn tuned_apply_that_drops_far_blocks_matches_its_fingerprint() {
    let k = three_cluster_kernel();
    for (precision, apply, resident_bytes) in GOLDEN_DROPPING {
        let label = format!("{precision:?} dropping");
        let comp = compress::<f64, _>(&k, &config(precision));
        let mut ev = Evaluator::new(&k, &comp);
        let stats = ev.tune(&AccuracyBudget::new(DROPPING_BUDGET)).unwrap();
        assert!(
            stats.accepted_any(),
            "{label}: the budget must be attainable"
        );
        assert!(
            stats.rejected >= 3,
            "{label}: {} rejected rungs",
            stats.rejected
        );
        assert!(
            stats.blocks_dropped > 0,
            "{label}: the accepted rung must drop far blocks"
        );
        assert!(stats.panels_truncated > 0, "{label}: and truncate panels");
        check_every_residence(&mut ev, &label, apply[level()], resident_bytes);
    }
}
