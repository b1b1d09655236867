//! Kernel-equivalence tests for the two things `gemm` does besides multiply:
//! choosing between the packed path and the stream path, and packing into
//! thread-owned scratch that is never cleared.
//!
//! The contract: with at most `STREAM_MAX_COLS` right-hand-side columns and
//! an untransposed `B` (the stream path, one chunk of at most `NR` columns at
//! a time: the fused kernel for `A`, its in-place twin for `A^T`), `gemm` and
//! `gemm_mixed` produce the bits of the scalar-pinned packed reference; the
//! same columns computed as part of a wider product (which takes the packed
//! path) are bit-equal; `A^T B` read in place equals `A B` over the
//! transposed copy; `beta = 0` overwrites a NaN `C`; whatever an earlier GEMM
//! left in the thread's scratch never reaches a result; and the other
//! dispatch level (`GOFMM_FORCE_SCALAR`) produces the same bits.
//!
//! Entries use the full mantissa, so a changed accumulation order or block
//! boundary shows up in the last bit (the grid-valued entries of
//! `proptest_simd.rs` sum exactly in f64 and could not see it). Random shapes
//! cross `KC = 256`, the stream path's 512-row block, every chunk tail and the
//! stream/packed gate; [`edge_shapes`] walks every tail of the kernels on both
//! sides of those edges.

use gofmm_linalg::blas::{reference, STREAM_MAX_COLS};
use gofmm_linalg::{
    gemm, gemm_cols, gemm_mixed, gemm_mixed_cols, simd_level, DenseMatrix, Scalar, SimdLevel,
    Transpose,
};
use proptest::prelude::*;
use std::process::Command;

/// Register-tile width: the stream path takes `B` in chunks of this many
/// columns.
const NR: usize = <f64 as Scalar>::NR;

/// Every streamed width, every chunk tail, the gate and one past it.
const WIDTHS: std::ops::RangeInclusive<usize> = 1..=STREAM_MAX_COLS + NR;

const SCALES: [f64; 4] = [0.0, 1.0, -0.75, 1.5];

/// Deterministic full-mantissa entries in `[-1, 1)`.
fn fill<T: Scalar>(rows: usize, cols: usize, seed: u64) -> DenseMatrix<T> {
    DenseMatrix::from_fn(rows, cols, |i, j| {
        let mut z = (i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((j as u64).wrapping_mul(0xD1B5_4A32_D192_ED03))
            .wrapping_add(seed);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        T::from_f64(((z >> 11) as f64 / (1u64 << 53) as f64) * 2.0 - 1.0)
    })
}

/// Exact bit patterns (`f32 -> f64` is injective, signed zeros included).
fn bits<T: Scalar>(m: &DenseMatrix<T>) -> Vec<u64> {
    m.data().iter().map(|v| v.to_f64().to_bits()).collect()
}

/// `src` with `extra` more columns appended.
fn widen<T: Scalar>(src: &DenseMatrix<T>, extra: &DenseMatrix<T>) -> DenseMatrix<T> {
    DenseMatrix::from_fn(src.rows(), src.cols() + extra.cols(), |i, j| {
        if j < src.cols() {
            src[(i, j)]
        } else {
            extra[(i, j - src.cols())]
        }
    })
}

fn first_cols<T: Scalar>(src: &DenseMatrix<T>, n: usize) -> DenseMatrix<T> {
    DenseMatrix::from_fn(src.rows(), n, |i, j| src[(i, j)])
}

/// The signature shared by `gemm` and `reference::gemm`.
type Gemm<T> =
    fn(T, &DenseMatrix<T>, Transpose, &DenseMatrix<T>, Transpose, T, &mut DenseMatrix<T>);

/// The product `alpha * op_a(a) * b + beta * c0`.
fn product<T: Scalar>(
    f: Gemm<T>,
    alpha: T,
    (a, op_a): (&DenseMatrix<T>, Transpose),
    b: &DenseMatrix<T>,
    beta: T,
    c0: &DenseMatrix<T>,
) -> DenseMatrix<T> {
    let mut c = c0.clone();
    f(alpha, a, op_a, b, Transpose::No, beta, &mut c);
    c
}

/// Shapes `(m, k, n)` on both sides of every edge of the stream kernels, for
/// every `n` in [`WIDTHS`]: `k mod 4` in `{0, 1, 2, 3}` (the fused kernel's
/// groups of 4, 2 and 1 columns) and partial cache lines of a column (the
/// transposed kernel's prefetch step) below `KC`, across it and across
/// `2 * KC`; and row counts around one and two registers of either precision
/// (`rows mod lanes != 0`, the transposed kernel's 8/4/2/1 columns, fewer
/// rows than `MR`) and around the 512-row block.
fn edge_shapes() -> Vec<(usize, usize, usize)> {
    let ks = (1..=9).chain(252..=260).chain(510..=515);
    let ms = (1..=18).chain([31, 32, 33, 510, 511, 512, 513, 519, 1030]);
    let mut shapes = Vec::new();
    for n in WIDTHS {
        // Past `NR` every chunk runs the kernels of the narrow widths, so a
        // rotating half of the edges meets each of them at many chunk tails.
        let keep = |i: usize| n <= NR || (i + n) % 2 == 0;
        for (i, k) in ks.clone().enumerate().filter(|&(i, _)| keep(i)) {
            shapes.push(([7, 13, 520][i % 3], k, n));
        }
        for (i, m) in ms.clone().enumerate().filter(|&(i, _)| keep(i)) {
            shapes.push((m, [5, 258][i % 2], n));
        }
    }
    shapes
}

/// One stream-shaped product (packed once `n` passes the gate) in accumulator
/// precision `T` — native, mixed and with `A` stored transposed — against
/// (a) the scalar-pinned packed reference and (b) the same columns of a
/// product widened past `STREAM_MAX_COLS` so that it is packed. With
/// `beta = 0`, `C` starts as NaN.
fn check_stream_shape<T: Scalar>(m: usize, k: usize, n: usize, alpha: T, beta: T, seed: u64) {
    let a = fill::<T>(m, k, seed);
    let b = fill::<T>(k, n, seed ^ 0x5bd1);
    let c0 = if beta == T::zero() {
        DenseMatrix::from_fn(m, n, |_, _| T::from_f64(f64::NAN))
    } else {
        fill::<T>(m, n, seed ^ 0xa3c5)
    };
    let pad = (STREAM_MAX_COLS + 1).saturating_sub(n).max(1);
    let b_wide = widen(&b, &fill(k, pad, seed ^ 0x77));
    let c0_wide = widen(&c0, &fill(m, pad, seed ^ 0x99));
    let label = format!(
        "{} {m}x{n}x{k} alpha={alpha} beta={beta}",
        T::precision_name()
    );

    let no = Transpose::No;
    let c = bits(&product(gemm, alpha, (&a, no), &b, beta, &c0));
    let c_ref = bits(&product(reference::gemm, alpha, (&a, no), &b, beta, &c0));
    assert_eq!(c, c_ref, "{label}: stream vs reference");
    let c_wide = product(gemm, alpha, (&a, no), &b_wide, beta, &c0_wide);
    assert_eq!(
        bits(&first_cols(&c_wide, n)),
        c,
        "{label}: stream vs packed"
    );

    // Per element the transposed kernel runs the same fma chain, so the
    // product does not depend on which way `A` is stored.
    let at = (&a.transpose(), Transpose::Yes);
    let c_t = bits(&product(gemm, alpha, at, &b, beta, &c0));
    assert_eq!(c_t, c, "{label}: transposed in place vs stream");
    let c_ref = bits(&product(reference::gemm, alpha, at, &b, beta, &c0));
    assert_eq!(c_t, c_ref, "{label}: transposed in place vs reference");
    let c_wide = product(gemm, alpha, at, &b_wide, beta, &c0_wide);
    assert_eq!(
        bits(&first_cols(&c_wide, n)),
        c_t,
        "{label}: transposed in place vs packed"
    );

    let a_stored = a.cast::<T::PanelScalar>();
    let mut c_mixed = c0.clone();
    gemm_mixed(alpha, &a_stored, &b, beta, &mut c_mixed);
    let c_mixed = bits(&c_mixed);
    let c_ref = product(
        reference::gemm,
        alpha,
        (&a_stored.cast(), no),
        &b,
        beta,
        &c0,
    );
    assert_eq!(c_mixed, bits(&c_ref), "{label}: mixed stream vs reference");
    let mut c_wide = c0_wide;
    gemm_mixed(alpha, &a_stored, &b_wide, beta, &mut c_wide);
    assert_eq!(
        bits(&first_cols(&c_wide, n)),
        c_mixed,
        "{label}: mixed stream vs packed"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn stream_path_is_bit_identical_to_the_packed_reference_f64(
        m in 1usize..700, k in 1usize..600, n in WIDTHS,
        alpha_sel in 0usize..4, beta_sel in 0usize..4, seed in 0u64..1_000_000,
    ) {
        check_stream_shape::<f64>(m, k, n, SCALES[alpha_sel], SCALES[beta_sel], seed);
    }

    #[test]
    fn stream_path_is_bit_identical_to_the_packed_reference_f32(
        m in 1usize..700, k in 1usize..600, n in WIDTHS,
        alpha_sel in 0usize..4, beta_sel in 0usize..4, seed in 0u64..1_000_000,
    ) {
        check_stream_shape::<f32>(m, k, n, SCALES[alpha_sel] as f32, SCALES[beta_sel] as f32, seed);
    }
}

/// Every tail of the fused kernel and of its transposed twin, in both
/// precisions, native and mixed.
#[test]
fn kernel_edges_are_bit_identical_to_the_packed_reference() {
    for (i, (m, k, n)) in edge_shapes().into_iter().enumerate() {
        let (alpha, beta) = (SCALES[1 + i % 3], SCALES[(i / 3) % 4]);
        check_stream_shape::<f64>(m, k, n, alpha, beta, i as u64);
        check_stream_shape::<f32>(m, k, n, alpha as f32, beta as f32, i as u64);
    }
}

/// A column range of `A` multiplied in place — either way round, native and
/// mixed, streamed and packed — gives the bits of the same product over the
/// copied block.
fn check_column_range<T: Scalar>(rows: usize, lead: usize, m: usize, n: usize, seed: u64) {
    let panel = fill::<T>(rows, lead + m + 3, seed);
    let cols = lead..lead + m;
    let block = panel.block(0, rows, cols.start, cols.end);
    let stored = panel.cast::<T::PanelScalar>();
    let (alpha, beta) = (T::from_f64(-0.75), T::from_f64(1.5));
    for op in [Transpose::No, Transpose::Yes] {
        let (out_rows, inner) = match op {
            Transpose::No => (rows, m),
            Transpose::Yes => (m, rows),
        };
        let b = fill::<T>(inner, n, seed ^ 0x5bd1);
        let c0 = fill::<T>(out_rows, n, seed ^ 0xa3c5);
        let label = format!("{} {rows}x{m}@{lead} r={n} {op:?}", T::precision_name());

        let want = product(reference::gemm, alpha, (&block, op), &b, beta, &c0);
        let mut c = c0.clone();
        gemm_cols(alpha, &panel, cols.clone(), op, &b, beta, &mut c);
        assert_eq!(bits(&c), bits(&want), "{label}: native");

        let want = product(
            reference::gemm,
            alpha,
            (&block.cast::<T::PanelScalar>().cast(), op),
            &b,
            beta,
            &c0,
        );
        let mut c = c0.clone();
        gemm_mixed_cols(alpha, &stored, cols.clone(), op, &b, beta, &mut c);
        assert_eq!(bits(&c), bits(&want), "{label}: mixed");
    }
}

#[test]
fn column_ranges_multiply_in_place_bit_for_bit() {
    let shapes = [
        (64, 64, 448),
        (64, 0, 64),
        (7, 5, 1),
        (300, 13, 260),
        (32, 32, 96),
    ];
    for (i, (rows, lead, m)) in shapes.into_iter().enumerate() {
        for n in [1, 4, 13, 32, 33, 64] {
            check_column_range::<f64>(rows, lead, m, n, i as u64);
            check_column_range::<f32>(rows, lead, m, n, i as u64);
        }
    }
}

#[test]
#[should_panic(expected = "outside")]
fn column_range_past_the_last_column_panics() {
    let a = fill::<f64>(4, 3, 1);
    let b = fill::<f64>(4, 1, 2);
    let mut c = DenseMatrix::zeros(2, 1);
    gemm_cols(1.0, &a, 2..4, Transpose::Yes, &b, 0.0, &mut c);
}

/// `beta == 0` overwrites `C` and the early-outs leave `beta * C`: the
/// stream path sits behind the same prologue as the packed one.
#[test]
fn stream_shapes_keep_the_beta_and_empty_product_contract() {
    let a = fill::<f64>(9, 5, 1);
    let b = fill::<f64>(5, 2, 2);
    let mut clean = DenseMatrix::<f64>::zeros(9, 2);
    gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut clean);
    let stale = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
    let mut c = DenseMatrix::from_fn(9, 2, |i, j| stale[(i + j) % 3]);
    gemm(1.0, &a, Transpose::No, &b, Transpose::No, 0.0, &mut c);
    assert_eq!(bits(&c), bits(&clean));

    let c0 = fill::<f64>(9, 2, 3);
    let mut halved = c0.clone();
    halved.scale(0.5);
    let mut c = c0.clone();
    gemm(0.0, &a, Transpose::No, &b, Transpose::No, 0.5, &mut c);
    assert_eq!(bits(&c), bits(&halved), "alpha = 0");
    let mut c = c0;
    let (a_empty, b_empty) = (
        DenseMatrix::<f64>::zeros(9, 0),
        DenseMatrix::<f64>::zeros(0, 2),
    );
    gemm(
        1.0,
        &a_empty,
        Transpose::No,
        &b_empty,
        Transpose::No,
        0.5,
        &mut c,
    );
    assert_eq!(bits(&c), bits(&halved), "k = 0");
}

/// Products small enough to leave most of a dirtied scratch stale: a wide
/// packed one, a chunked stream one, a narrow transposed one (whose row-major
/// `B` and block sums live in the scratch, padding lanes included), and a
/// narrow mixed one.
fn small_products<T: Scalar>() -> Vec<u64> {
    let no = Transpose::No;
    let mut out = Vec::new();
    for n in [STREAM_MAX_COLS + 2, NR + 2] {
        let (a, b) = (fill::<T>(13, 9, 41), fill::<T>(9, n, 42));
        let mut c = fill::<T>(13, n, 43);
        gemm(T::one(), &a, no, &b, no, T::one(), &mut c);
        out.extend(bits(&c));
    }
    let (a, b) = (fill::<T>(21, 5, 44), fill::<T>(21, 3, 45));
    let mut c = DenseMatrix::<T>::zeros(5, 3);
    gemm(T::one(), &a, Transpose::Yes, &b, no, T::zero(), &mut c);
    out.extend(bits(&c));
    let (a, b) = (fill::<T::PanelScalar>(17, 11, 46), fill::<T>(11, 3, 47));
    let mut c = fill::<T>(17, 3, 48);
    gemm_mixed(T::one(), &a, &b, T::one(), &mut c);
    out.extend(bits(&c));
    out
}

fn stale_scratch_cannot_leak<T: Scalar>() {
    let fresh = std::thread::spawn(small_products::<T>)
        .join()
        .expect("fresh-thread GEMM panicked");
    let dirtied = std::thread::spawn(|| {
        // Fill this thread's scratch, edge to edge, with NaN strips.
        let nan = DenseMatrix::from_fn(300, 300, |_, _| T::from_f64(f64::NAN));
        let mut sink = DenseMatrix::<T>::zeros(300, 300);
        gemm(
            T::one(),
            &nan,
            Transpose::No,
            &nan,
            Transpose::No,
            T::zero(),
            &mut sink,
        );
        assert!(sink.data().iter().all(|v| !v.is_finite()));
        small_products::<T>()
    })
    .join()
    .expect("dirtied-thread GEMM panicked");
    assert_eq!(dirtied, fresh, "{}", T::precision_name());
}

#[test]
fn stale_pack_scratch_never_reaches_a_result() {
    stale_scratch_cannot_leak::<f64>();
    stale_scratch_cannot_leak::<f32>();
}

/// FNV-1a over the result bits of a fixed list of stream- and packed-path
/// products plus every [`edge_shapes`] entry, in both precisions, native,
/// mixed and transposed.
fn dispatch_digest() -> u64 {
    fn products<T: Scalar>(out: &mut Vec<u64>) {
        let fixed = [
            (1, 1, 1),
            (19, 300, 4),
            (530, 70, NR),
            (64, 257, 3),
            (40, 40, NR + 3),
            (37, 300, 7),
            (130, 260, 13),
            (70, 513, STREAM_MAX_COLS),
            (40, 40, STREAM_MAX_COLS + 3),
        ];
        for (m, k, n) in fixed.into_iter().chain(edge_shapes()) {
            let (a, b) = (fill::<T>(m, k, 7), fill::<T>(k, n, 8));
            let mut c = fill::<T>(m, n, 9);
            gemm(
                T::from_f64(1.5),
                &a,
                Transpose::No,
                &b,
                Transpose::No,
                T::one(),
                &mut c,
            );
            out.extend(bits(&c));
            gemm_mixed(
                T::one(),
                &a.cast::<T::PanelScalar>(),
                &b,
                T::from_f64(-0.5),
                &mut c,
            );
            out.extend(bits(&c));
            gemm(
                T::from_f64(-0.75),
                &a.transpose(),
                Transpose::Yes,
                &b,
                Transpose::No,
                T::one(),
                &mut c,
            );
            out.extend(bits(&c));
        }
    }
    let mut all = Vec::new();
    products::<f64>(&mut all);
    products::<f32>(&mut all);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in all.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

const DIGEST_TAG: &str = "stream-dispatch-digest";

/// Prints this process's dispatch level and digest; the test below runs it
/// in a child process pinned to the other level.
#[test]
fn print_dispatch_digest() {
    println!(
        "{DIGEST_TAG} {} {:016x}",
        simd_level().name(),
        dispatch_digest()
    );
}

/// The dispatch level is fixed once per process, so the other one is
/// observed by re-running this test binary with `GOFMM_FORCE_SCALAR`
/// flipped.
#[test]
fn the_other_dispatch_level_produces_the_same_bits() {
    let exe = std::env::current_exe().expect("test binary path");
    let mut child = Command::new(exe);
    child.args([
        "--exact",
        "print_dispatch_digest",
        "--nocapture",
        "--test-threads",
        "1",
    ]);
    match simd_level() {
        SimdLevel::Scalar => child.env_remove("GOFMM_FORCE_SCALAR"),
        SimdLevel::Avx2 => child.env("GOFMM_FORCE_SCALAR", "1"),
    };
    let output = child.output().expect("re-running the test binary");
    assert!(output.status.success(), "child run failed: {output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .find_map(|l| {
            l.split_once(DIGEST_TAG)
                .map(|(_, rest)| rest.trim().to_string())
        })
        .unwrap_or_else(|| panic!("no digest line in child output: {stdout}"));
    let (level, digest) = line.split_once(' ').expect("`<level> <digest>`");
    if simd_level() == SimdLevel::Avx2 {
        assert_eq!(level, "scalar", "the child must run the portable kernels");
    }
    assert_eq!(
        digest,
        format!("{:016x}", dispatch_digest()),
        "child ran {level}"
    );
}
