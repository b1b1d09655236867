//! Runtime-dispatched SIMD micro-kernels behind the dense BLAS layer.
//!
//! The GEMM in [`crate::blas`], the triangular solves and the Householder
//! reflection applies all bottom out in five primitives: an `MR x NR`
//! register micro-kernel over packed panels, the fused and the transposed
//! stream kernel of GEMM's narrow-RHS path (which read `A` in place, see
//! [`stream_scalar`] and [`stream_t_scalar`] for their contracts), a dot
//! product and an axpy. Kernel-matrix blocks add a sixth, an in-place `exp`
//! over a slice ([`exp_in_place`]). This module provides two implementations
//! of each:
//!
//! * an x86-64 AVX2/FMA path written against `core::arch` intrinsics
//!   (`8 x 6` tiles of f64, `16 x 6` tiles of f32 — twelve ymm accumulators,
//!   two panel loads and one broadcast per update, fitting the sixteen
//!   architectural vector registers; the stream kernels are written once
//!   over a register-lane trait, for f64, f32 and f32 widened to f64 on the
//!   load), and
//! * a portable scalar fallback with the exact same per-element accumulation
//!   order.
//!
//! The path is chosen **once per process** via [`simd_level`]:
//! `is_x86_feature_detected!("avx2")` + `("fma")` at first use, overridable
//! with the `GOFMM_FORCE_SCALAR` environment variable (any non-empty value
//! other than `0`) so CI can exercise the portable path on AVX2 hardware.
//!
//! # Bit-compatibility contract
//!
//! The GEMM micro-kernel accumulates every output element over `k` in
//! increasing order with one fused multiply-add per step; AVX2 lanes map
//! one-to-one onto output elements (`vfmaddxxxpd` is a per-lane IEEE fma), so
//! the SIMD and scalar micro-kernels — and therefore [`crate::blas::gemm`] on
//! either dispatch path — produce **bit-identical** results. The stream
//! kernels keep that order too: the fused one chains its four fmas per
//! element in increasing `p`, and every lane of the transposed one is a
//! zero-initialised sequential chain, so they agree with the micro-kernel and
//! with their scalar twins bit for bit. The same holds
//! for [`crate::blas::axpy`] and [`exp_in_place`], which are element-wise
//! ([`exp_scalar`] is the per-lane sequence of the latter). [`crate::blas::dot`]
//! splits its accumulation
//! across vector lanes and recombines, so its SIMD result may differ from
//! the scalar one in the last bits (the kernel-equivalence suite bounds the
//! drift in ULPs).

use crate::scalar::{Scalar, StreamInto};
use std::sync::OnceLock;

/// Maximum `MR * NR` accumulator-tile footprint across supported precisions
/// (16 x 6 for f32). Callers hand the micro-kernel a `&mut [T]` of at least
/// `MR * NR` elements; a fixed-size stack array of this size always fits.
pub const ACC_TILE: usize = 96;

/// Instruction set selected for the dense kernels of this process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimdLevel {
    /// Portable scalar loops (also the `GOFMM_FORCE_SCALAR` override).
    Scalar,
    /// x86-64 AVX2 + FMA intrinsics.
    Avx2,
}

impl SimdLevel {
    /// Short human-readable name ("scalar"/"avx2"), used in bench reports.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Avx2 => "avx2",
        }
    }
}

/// The dispatch decision, made once per process and cached.
///
/// Honors `GOFMM_FORCE_SCALAR` (any non-empty value other than `0`) before
/// probing CPU features, so the portable fallback is testable on AVX2 hosts.
pub fn simd_level() -> SimdLevel {
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        if std::env::var("GOFMM_FORCE_SCALAR").is_ok_and(|v| !v.is_empty() && v != "0") {
            return SimdLevel::Scalar;
        }
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Scalar
    })
}

/// Portable reference micro-kernel: overwrite `acc[c*mr + r]` with
/// `sum_p a[p*mr + r] * b[p*nr + c]`, accumulated in increasing `p` with one
/// fma per step. This is the exact accumulation order of the AVX2 kernels
/// (and of the pre-SIMD seed GEMM), so results are bit-identical across
/// dispatch paths.
pub fn microkernel_scalar<T: Scalar>(
    mr: usize,
    nr: usize,
    kb: usize,
    a: &[T],
    b: &[T],
    acc: &mut [T],
) {
    debug_assert!(a.len() >= kb * mr);
    debug_assert!(b.len() >= kb * nr);
    let acc = &mut acc[..mr * nr];
    for v in acc.iter_mut() {
        *v = T::zero();
    }
    for p in 0..kb {
        let arow = &a[p * mr..p * mr + mr];
        let brow = &b[p * nr..p * nr + nr];
        for (c, bv) in brow.iter().enumerate() {
            let tile = &mut acc[c * mr..(c + 1) * mr];
            for (av, cv) in arow.iter().zip(tile.iter_mut()) {
                *cv = av.mul_add(*bv, *cv);
            }
        }
    }
}

/// `1 / k!` for `k = 13, 12, ..., 2`: the Horner coefficients of the
/// degree-13 Taylor polynomial of `exp` on `|r| <= ln(2) / 2`, whose
/// truncation error there is below 0.06 ulp.
const EXP_TAYLOR: [f64; 12] = [
    1.0 / 6_227_020_800.0,
    1.0 / 479_001_600.0,
    1.0 / 39_916_800.0,
    1.0 / 3_628_800.0,
    1.0 / 362_880.0,
    1.0 / 40_320.0,
    1.0 / 5_040.0,
    1.0 / 720.0,
    1.0 / 120.0,
    1.0 / 24.0,
    1.0 / 6.0,
    1.0 / 2.0,
];
/// `1.5 * 2^52`: adding it rounds any `|v| < 2^51` to an integer, which
/// then sits in the low mantissa bits.
const EXP_SHIFT: f64 = 6_755_399_441_055_744.0;
/// `ln 2` split Cody–Waite style: the last 20 mantissa bits of `LN2_HI`
/// are zero, so `k * LN2_HI` is exact for every `|k| <= 1076`.
const EXP_LN2_HI: f64 = 0.693_147_180_369_123_8;
const EXP_LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// Inputs are clamped into `[EXP_MIN, EXP_MAX]` before the reduction; the
/// clamped ends still evaluate to `0` and `+inf`.
const EXP_MIN: f64 = -746.0;
const EXP_MAX: f64 = 710.0;

/// Portable `exp`: the exact operation sequence of each lane of the AVX2
/// kernel behind [`exp_in_place`], so both paths give the same bits.
///
/// `x` is clamped to `[-746, 710]`; `k = round(x / ln 2)` comes from the
/// `1.5 * 2^52` shift, `r = x - k ln 2` from a two-constant Cody–Waite
/// reduction, `exp(r)` from a degree-13 Horner polynomial in fmas, and the
/// result is scaled by `2^k` as `2^floor(k/2) * 2^ceil(k/2)` so that every
/// result from overflow down to the subnormals takes one rounding. Within
/// 1 ulp of libm everywhere; `exp(±0) = 1`, `exp(-inf) = 0`,
/// `exp(+inf) = +inf` and a NaN is returned unchanged.
#[inline(always)]
pub fn exp_scalar(x: f64) -> f64 {
    let xc = x.clamp(EXP_MIN, EXP_MAX);
    let shifted = xc.mul_add(std::f64::consts::LOG2_E, EXP_SHIFT);
    let k = shifted - EXP_SHIFT;
    let r = k.mul_add(-EXP_LN2_HI, xc);
    let r = k.mul_add(-EXP_LN2_LO, r);
    let mut p = EXP_TAYLOR[0];
    for c in &EXP_TAYLOR[1..] {
        p = p.mul_add(r, *c);
    }
    p = p.mul_add(r, 1.0);
    p = p.mul_add(r, 1.0);
    // The mantissa of `shifted` is `2^51 + k`, so the low 12 bits of
    // `bits >> 1` and of `bits - (bits >> 1)` are `floor(k/2)` and
    // `ceil(k/2)` modulo 4096: biased and shifted into place, the exponent
    // fields of the two factors.
    let bits = shifted.to_bits();
    let half = bits >> 1;
    let lo = f64::from_bits(half.wrapping_add(1023) << 52);
    let hi = f64::from_bits(bits.wrapping_sub(half).wrapping_add(1023) << 52);
    let y = p * lo * hi;
    if x.is_nan() {
        x
    } else {
        y
    }
}

/// Portable dot product: sequential fma accumulation.
pub fn dot_scalar<T: Scalar>(x: &[T], y: &[T]) -> T {
    let mut acc = T::zero();
    for (a, b) in x.iter().zip(y.iter()) {
        acc = a.mul_add(*b, acc);
    }
    acc
}

/// Portable axpy: `y[i] = fma(alpha, x[i], y[i])`.
pub fn axpy_scalar<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    for (yv, xv) in y.iter_mut().zip(x.iter()) {
        *yv = alpha.mul_add(*xv, *yv);
    }
}

/// Columns of `A` one pass of the fused stream kernel takes: each accumulator
/// element is loaded and stored once per this many fmas.
const STREAM_GROUP: usize = 4;

/// Row stride of the transposed stream kernel's row-major `B` and of its
/// sums: the `n <= STREAM_T_WIDTH` lanes of one row (a chunk of that many
/// columns of `B`), zero-padded to two AVX2 registers of
/// f64 (one of f32).
pub const STREAM_T_WIDTH: usize = 8;

/// Lossless storage-to-accumulator widening (`f32 -> f64` for reduced
/// panels, identity otherwise).
#[inline(always)]
pub(crate) fn widen<P: Scalar, T: Scalar>(x: P) -> T {
    T::from_f64(x.to_f64())
}

/// Portable fused stream kernel: for every row `r < rows` and every column
/// `c` of the `rows`-long columns of `acc`,
/// `acc[c*rows + r] = fma(a[p*lda + r], b[c*ldb + p], acc[c*rows + r])` for
/// `p = 0..kb` in increasing order, `a` widened to `T` on the load. This is
/// the per-element sequence of [`microkernel_scalar`] continued from whatever
/// `acc` holds, taken four columns of `a` per pass over `acc`.
pub fn stream_scalar<P: Scalar, T: Scalar>(
    rows: usize,
    kb: usize,
    a: &[P],
    lda: usize,
    b: &[T],
    ldb: usize,
    acc: &mut [T],
) {
    for p0 in (0..kb).step_by(STREAM_GROUP) {
        let group = STREAM_GROUP.min(kb - p0);
        for (c, sums) in acc.chunks_exact_mut(rows).enumerate() {
            let bs = &b[c * ldb + p0..c * ldb + p0 + group];
            for (r, sum) in sums.iter_mut().enumerate() {
                let mut s = *sum;
                for (g, bv) in bs.iter().enumerate() {
                    s = widen::<P, T>(a[(p0 + g) * lda + r]).mul_add(*bv, s);
                }
                *sum = s;
            }
        }
    }
}

/// Portable transposed stream kernel: for every column `j < m` of `a` and
/// lane `l < n`, overwrite `out[j*W + l]` (`W` = [`STREAM_T_WIDTH`]) with
/// `sum_i a[j*lda + i] * brow[i*W + l]`, accumulated from zero in increasing
/// `i < kb` with one fma per step — [`microkernel_scalar`]'s sequence for the
/// element `(j, l)` of `A^T B`.
pub fn stream_t_scalar<P: Scalar, T: Scalar>(
    kb: usize,
    m: usize,
    n: usize,
    a: &[P],
    lda: usize,
    brow: &[T],
    out: &mut [T],
) {
    for j in 0..m {
        let sums = &mut out[j * STREAM_T_WIDTH..j * STREAM_T_WIDTH + n];
        sums.fill(T::zero());
        for (i, av) in a[j * lda..j * lda + kb].iter().enumerate() {
            let av: T = widen(*av);
            let row = &brow[i * STREAM_T_WIDTH..i * STREAM_T_WIDTH + n];
            for (s, bv) in sums.iter_mut().zip(row) {
                *s = av.mul_add(*bv, *s);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    //! AVX2/FMA kernels. All functions here are `unsafe` because of
    //! `#[target_feature]`; callers must have checked [`super::simd_level`].
    use super::{
        widen, EXP_LN2_HI, EXP_LN2_LO, EXP_MAX, EXP_MIN, EXP_SHIFT, EXP_TAYLOR, STREAM_GROUP,
        STREAM_T_WIDTH,
    };
    use crate::scalar::Scalar;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    /// How many columns ahead of the one being read the stream kernels
    /// prefetch `A`. Between two bursts of `A` loads a kernel does tens of
    /// cycles of L1-resident work, which leaves the hardware prefetcher too few
    /// demand misses to run ahead on: without the hint the fused kernel reads a
    /// cold 128-row panel at 5.5 GB/s, with it at 15 (4 to 32 columns ahead
    /// read alike). Past the end of `A` the hint touches nothing.
    const PREFETCH_COLS: usize = 2 * STREAM_GROUP;

    /// One AVX2 register of accumulator precision `Self`: what lets the
    /// stream kernels be written once for f64 and f32.
    ///
    /// # Safety
    /// Every method requires AVX2 + FMA; `load` reads and `store` writes `N`
    /// elements at `p`, at any alignment.
    pub trait Lanes: Scalar {
        /// The register type.
        type V: Copy;
        /// Elements per register.
        const N: usize;
        /// Unaligned load of `N` elements.
        unsafe fn load(p: *const Self) -> Self::V;
        /// Unaligned store of `N` elements.
        unsafe fn store(p: *mut Self, v: Self::V);
        /// `x` in every lane.
        unsafe fn splat(x: Self) -> Self::V;
        /// Per-lane IEEE `a * b + c`.
        unsafe fn fma(a: Self::V, b: Self::V, c: Self::V) -> Self::V;
    }

    /// A storage precision whose elements load, widened in register, into
    /// the lanes of accumulator precision `T`.
    ///
    /// # Safety
    /// `load_as` requires AVX2 + FMA and reads `T::N` elements at `p`, at any
    /// alignment.
    pub trait LoadAs<T: Lanes>: Scalar {
        /// Unaligned load of `T::N` elements, each converted exactly as
        /// [`widen`] converts one.
        unsafe fn load_as(p: *const Self) -> T::V;
    }

    impl Lanes for f64 {
        type V = __m256d;
        const N: usize = 4;
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn load(p: *const f64) -> __m256d {
            _mm256_loadu_pd(p)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn store(p: *mut f64, v: __m256d) {
            _mm256_storeu_pd(p, v)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn splat(x: f64) -> __m256d {
            _mm256_set1_pd(x)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn fma(a: __m256d, b: __m256d, c: __m256d) -> __m256d {
            _mm256_fmadd_pd(a, b, c)
        }
    }

    impl Lanes for f32 {
        type V = __m256;
        const N: usize = 8;
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn load(p: *const f32) -> __m256 {
            _mm256_loadu_ps(p)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn store(p: *mut f32, v: __m256) {
            _mm256_storeu_ps(p, v)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn splat(x: f32) -> __m256 {
            _mm256_set1_ps(x)
        }
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn fma(a: __m256, b: __m256, c: __m256) -> __m256 {
            _mm256_fmadd_ps(a, b, c)
        }
    }

    impl LoadAs<f64> for f64 {
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn load_as(p: *const f64) -> __m256d {
            _mm256_loadu_pd(p)
        }
    }

    impl LoadAs<f64> for f32 {
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn load_as(p: *const f32) -> __m256d {
            _mm256_cvtps_pd(_mm_loadu_ps(p))
        }
    }

    impl LoadAs<f32> for f32 {
        #[inline]
        #[target_feature(enable = "avx2,fma")]
        unsafe fn load_as(p: *const f32) -> __m256 {
            _mm256_loadu_ps(p)
        }
    }

    /// One pass of the fused stream kernel over `G` columns of `a`: per two
    /// registers of rows, the `2 * G` vectors of `a` are loaded once and every
    /// accumulator column takes its `G` chained fmas between one load and one
    /// store. A single-register step and a scalar loop finish `rows mod
    /// (2 * T::N)`.
    ///
    /// # Safety
    /// Requires AVX2 + FMA; `a` readable for `(G-1)*lda + rows` elements, `b`
    /// for `(n-1)*ldb + G`, `acc` readable and writable for `n * rows`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn stream_group<const G: usize, P: LoadAs<T>, T: Lanes>(
        rows: usize,
        n: usize,
        a: *const P,
        lda: usize,
        b: *const T,
        ldb: usize,
        acc: *mut T,
    ) {
        let mut r = 0;
        while r + 2 * T::N <= rows {
            let mut av = [[T::splat(T::zero()); 2]; G];
            for (g, v) in av.iter_mut().enumerate() {
                v[0] = P::load_as(a.add(g * lda + r));
                v[1] = P::load_as(a.add(g * lda + r + T::N));
                _mm_prefetch::<_MM_HINT_T0>(a.wrapping_add((g + PREFETCH_COLS) * lda + r).cast());
            }
            for c in 0..n {
                let sums = acc.add(c * rows + r);
                let mut s0 = T::load(sums);
                let mut s1 = T::load(sums.add(T::N));
                for (g, v) in av.iter().enumerate() {
                    let bv = T::splat(*b.add(c * ldb + g));
                    s0 = T::fma(v[0], bv, s0);
                    s1 = T::fma(v[1], bv, s1);
                }
                T::store(sums, s0);
                T::store(sums.add(T::N), s1);
            }
            r += 2 * T::N;
        }
        if r + T::N <= rows {
            let mut av = [T::splat(T::zero()); G];
            for (g, v) in av.iter_mut().enumerate() {
                *v = P::load_as(a.add(g * lda + r));
            }
            for c in 0..n {
                let sums = acc.add(c * rows + r);
                let mut s = T::load(sums);
                for (g, v) in av.iter().enumerate() {
                    s = T::fma(*v, T::splat(*b.add(c * ldb + g)), s);
                }
                T::store(sums, s);
            }
            r += T::N;
        }
        while r < rows {
            for c in 0..n {
                let sum = acc.add(c * rows + r);
                let mut s = *sum;
                for g in 0..G {
                    s = widen::<P, T>(*a.add(g * lda + r)).mul_add(*b.add(c * ldb + g), s);
                }
                *sum = s;
            }
            r += 1;
        }
    }

    /// AVX2 fused stream kernel; see [`super::stream_scalar`] for the
    /// contract. Groups of [`STREAM_GROUP`], then 2, then 1 columns of `a`.
    ///
    /// # Safety
    /// Requires AVX2 + FMA; `rows` and `kb` non-zero, `acc.len() == n*rows`
    /// with `n >= 1`, `a.len() >= (kb-1)*lda + rows`,
    /// `b.len() >= (n-1)*ldb + kb`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn stream<P: LoadAs<T>, T: Lanes>(
        rows: usize,
        kb: usize,
        a: &[P],
        lda: usize,
        b: &[T],
        ldb: usize,
        acc: &mut [T],
    ) {
        let n = acc.len() / rows;
        let (a, b, acc) = (a.as_ptr(), b.as_ptr(), acc.as_mut_ptr());
        let mut p = 0;
        while p + STREAM_GROUP <= kb {
            stream_group::<STREAM_GROUP, P, T>(rows, n, a.add(p * lda), lda, b.add(p), ldb, acc);
            p += STREAM_GROUP;
        }
        if p + 2 <= kb {
            stream_group::<2, P, T>(rows, n, a.add(p * lda), lda, b.add(p), ldb, acc);
            p += 2;
        }
        if p < kb {
            stream_group::<1, P, T>(rows, n, a.add(p * lda), lda, b.add(p), ldb, acc);
        }
    }

    /// `J` columns of `a` against the row-major `brow`: one accumulator of
    /// `W` registers per column, zero-initialised, one broadcast-fma per
    /// element of the column in increasing `i`, so every lane is the
    /// sequential chain of [`super::stream_t_scalar`].
    ///
    /// # Safety
    /// Requires AVX2 + FMA; `a` readable for `(J-1)*lda + kb` elements,
    /// `brow` for `kb * STREAM_T_WIDTH`, `out` writable for
    /// `J * STREAM_T_WIDTH`; `W * T::N <= STREAM_T_WIDTH`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn stream_t_cols<const J: usize, const W: usize, P: Scalar, T: Lanes>(
        kb: usize,
        a: *const P,
        lda: usize,
        brow: *const T,
        out: *mut T,
    ) {
        let mut sums = [[T::splat(T::zero()); W]; J];
        // One cache line of every column per outer step, so that the next
        // `J` columns can be prefetched a line at a time.
        let line = 64 / std::mem::size_of::<P>();
        for i0 in (0..kb).step_by(line) {
            for j in J..2 * J {
                _mm_prefetch::<_MM_HINT_T0>(a.wrapping_add(j * lda + i0).cast());
            }
            for i in i0..kb.min(i0 + line) {
                let mut bv = [T::splat(T::zero()); W];
                for (w, v) in bv.iter_mut().enumerate() {
                    *v = T::load(brow.add(i * STREAM_T_WIDTH + w * T::N));
                }
                for (j, s) in sums.iter_mut().enumerate() {
                    let av = T::splat(widen(*a.add(j * lda + i)));
                    for (sv, v) in s.iter_mut().zip(&bv) {
                        *sv = T::fma(av, *v, *sv);
                    }
                }
            }
        }
        for (j, s) in sums.iter().enumerate() {
            for (w, sv) in s.iter().enumerate() {
                T::store(out.add(j * STREAM_T_WIDTH + w * T::N), *sv);
            }
        }
    }

    /// All `m` columns of `a` with `W` registers per row of `brow`: eight
    /// columns at a time when one register holds the `n` lanes (eight
    /// accumulators), four when it takes two, then 2 and 1.
    ///
    /// # Safety
    /// As [`stream_t`], with `n <= W * T::N <= STREAM_T_WIDTH`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn stream_t_lanes<const W: usize, P: Scalar, T: Lanes>(
        kb: usize,
        m: usize,
        a: *const P,
        lda: usize,
        brow: *const T,
        out: *mut T,
    ) {
        let mut j = 0;
        if W == 1 {
            while j + 8 <= m {
                let dst = out.add(j * STREAM_T_WIDTH);
                stream_t_cols::<8, W, P, T>(kb, a.add(j * lda), lda, brow, dst);
                j += 8;
            }
        }
        while j + 4 <= m {
            let dst = out.add(j * STREAM_T_WIDTH);
            stream_t_cols::<4, W, P, T>(kb, a.add(j * lda), lda, brow, dst);
            j += 4;
        }
        if j + 2 <= m {
            let dst = out.add(j * STREAM_T_WIDTH);
            stream_t_cols::<2, W, P, T>(kb, a.add(j * lda), lda, brow, dst);
            j += 2;
        }
        if j < m {
            let dst = out.add(j * STREAM_T_WIDTH);
            stream_t_cols::<1, W, P, T>(kb, a.add(j * lda), lda, brow, dst);
        }
    }

    /// AVX2 transposed stream kernel; see [`super::stream_t_scalar`] for the
    /// contract (lanes `n..` of each `out` row are unspecified).
    ///
    /// # Safety
    /// Requires AVX2 + FMA; `a.len() >= (m-1)*lda + kb`,
    /// `brow.len() >= kb * STREAM_T_WIDTH`, `out.len() >= m * STREAM_T_WIDTH`,
    /// `1 <= n <= STREAM_T_WIDTH`, `m` non-zero.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn stream_t<P: Scalar, T: Lanes>(
        kb: usize,
        m: usize,
        n: usize,
        a: &[P],
        lda: usize,
        brow: &[T],
        out: &mut [T],
    ) {
        let (a, brow, out) = (a.as_ptr(), brow.as_ptr(), out.as_mut_ptr());
        if n <= T::N {
            stream_t_lanes::<1, P, T>(kb, m, a, lda, brow, out);
        } else {
            stream_t_lanes::<2, P, T>(kb, m, a, lda, brow, out);
        }
    }

    /// 8 x 6 f64 micro-kernel: twelve 4-lane accumulators, overwriting
    /// `acc[c*8 + r]` with the packed-panel product.
    ///
    /// # Safety
    /// Requires AVX2 + FMA; `a.len() >= kb*8`, `b.len() >= kb*6`,
    /// `acc.len() >= 48`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn microkernel_f64_8x6(kb: usize, a: &[f64], b: &[f64], acc: &mut [f64]) {
        debug_assert!(a.len() >= kb * 8);
        debug_assert!(b.len() >= kb * 6);
        debug_assert!(acc.len() >= 48);
        let mut c00 = _mm256_setzero_pd();
        let mut c01 = _mm256_setzero_pd();
        let mut c10 = _mm256_setzero_pd();
        let mut c11 = _mm256_setzero_pd();
        let mut c20 = _mm256_setzero_pd();
        let mut c21 = _mm256_setzero_pd();
        let mut c30 = _mm256_setzero_pd();
        let mut c31 = _mm256_setzero_pd();
        let mut c40 = _mm256_setzero_pd();
        let mut c41 = _mm256_setzero_pd();
        let mut c50 = _mm256_setzero_pd();
        let mut c51 = _mm256_setzero_pd();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        for p in 0..kb {
            let a0 = _mm256_loadu_pd(ap.add(p * 8));
            let a1 = _mm256_loadu_pd(ap.add(p * 8 + 4));
            let b0 = _mm256_set1_pd(*bp.add(p * 6));
            c00 = _mm256_fmadd_pd(a0, b0, c00);
            c01 = _mm256_fmadd_pd(a1, b0, c01);
            let b1 = _mm256_set1_pd(*bp.add(p * 6 + 1));
            c10 = _mm256_fmadd_pd(a0, b1, c10);
            c11 = _mm256_fmadd_pd(a1, b1, c11);
            let b2 = _mm256_set1_pd(*bp.add(p * 6 + 2));
            c20 = _mm256_fmadd_pd(a0, b2, c20);
            c21 = _mm256_fmadd_pd(a1, b2, c21);
            let b3 = _mm256_set1_pd(*bp.add(p * 6 + 3));
            c30 = _mm256_fmadd_pd(a0, b3, c30);
            c31 = _mm256_fmadd_pd(a1, b3, c31);
            let b4 = _mm256_set1_pd(*bp.add(p * 6 + 4));
            c40 = _mm256_fmadd_pd(a0, b4, c40);
            c41 = _mm256_fmadd_pd(a1, b4, c41);
            let b5 = _mm256_set1_pd(*bp.add(p * 6 + 5));
            c50 = _mm256_fmadd_pd(a0, b5, c50);
            c51 = _mm256_fmadd_pd(a1, b5, c51);
        }
        let cp = acc.as_mut_ptr();
        _mm256_storeu_pd(cp, c00);
        _mm256_storeu_pd(cp.add(4), c01);
        _mm256_storeu_pd(cp.add(8), c10);
        _mm256_storeu_pd(cp.add(12), c11);
        _mm256_storeu_pd(cp.add(16), c20);
        _mm256_storeu_pd(cp.add(20), c21);
        _mm256_storeu_pd(cp.add(24), c30);
        _mm256_storeu_pd(cp.add(28), c31);
        _mm256_storeu_pd(cp.add(32), c40);
        _mm256_storeu_pd(cp.add(36), c41);
        _mm256_storeu_pd(cp.add(40), c50);
        _mm256_storeu_pd(cp.add(44), c51);
    }

    /// 16 x 6 f32 micro-kernel: twelve 8-lane accumulators, overwriting
    /// `acc[c*16 + r]` with the packed-panel product.
    ///
    /// # Safety
    /// Requires AVX2 + FMA; `a.len() >= kb*16`, `b.len() >= kb*6`,
    /// `acc.len() >= 96`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn microkernel_f32_16x6(kb: usize, a: &[f32], b: &[f32], acc: &mut [f32]) {
        debug_assert!(a.len() >= kb * 16);
        debug_assert!(b.len() >= kb * 6);
        debug_assert!(acc.len() >= 96);
        let mut c00 = _mm256_setzero_ps();
        let mut c01 = _mm256_setzero_ps();
        let mut c10 = _mm256_setzero_ps();
        let mut c11 = _mm256_setzero_ps();
        let mut c20 = _mm256_setzero_ps();
        let mut c21 = _mm256_setzero_ps();
        let mut c30 = _mm256_setzero_ps();
        let mut c31 = _mm256_setzero_ps();
        let mut c40 = _mm256_setzero_ps();
        let mut c41 = _mm256_setzero_ps();
        let mut c50 = _mm256_setzero_ps();
        let mut c51 = _mm256_setzero_ps();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        for p in 0..kb {
            let a0 = _mm256_loadu_ps(ap.add(p * 16));
            let a1 = _mm256_loadu_ps(ap.add(p * 16 + 8));
            let b0 = _mm256_set1_ps(*bp.add(p * 6));
            c00 = _mm256_fmadd_ps(a0, b0, c00);
            c01 = _mm256_fmadd_ps(a1, b0, c01);
            let b1 = _mm256_set1_ps(*bp.add(p * 6 + 1));
            c10 = _mm256_fmadd_ps(a0, b1, c10);
            c11 = _mm256_fmadd_ps(a1, b1, c11);
            let b2 = _mm256_set1_ps(*bp.add(p * 6 + 2));
            c20 = _mm256_fmadd_ps(a0, b2, c20);
            c21 = _mm256_fmadd_ps(a1, b2, c21);
            let b3 = _mm256_set1_ps(*bp.add(p * 6 + 3));
            c30 = _mm256_fmadd_ps(a0, b3, c30);
            c31 = _mm256_fmadd_ps(a1, b3, c31);
            let b4 = _mm256_set1_ps(*bp.add(p * 6 + 4));
            c40 = _mm256_fmadd_ps(a0, b4, c40);
            c41 = _mm256_fmadd_ps(a1, b4, c41);
            let b5 = _mm256_set1_ps(*bp.add(p * 6 + 5));
            c50 = _mm256_fmadd_ps(a0, b5, c50);
            c51 = _mm256_fmadd_ps(a1, b5, c51);
        }
        let cp = acc.as_mut_ptr();
        _mm256_storeu_ps(cp, c00);
        _mm256_storeu_ps(cp.add(8), c01);
        _mm256_storeu_ps(cp.add(16), c10);
        _mm256_storeu_ps(cp.add(24), c11);
        _mm256_storeu_ps(cp.add(32), c20);
        _mm256_storeu_ps(cp.add(40), c21);
        _mm256_storeu_ps(cp.add(48), c30);
        _mm256_storeu_ps(cp.add(56), c31);
        _mm256_storeu_ps(cp.add(64), c40);
        _mm256_storeu_ps(cp.add(72), c41);
        _mm256_storeu_ps(cp.add(80), c50);
        _mm256_storeu_ps(cp.add(88), c51);
    }

    /// AVX2 f64 dot product: four independent 4-lane accumulators over the
    /// vector body, a tree reduction, then a sequential-fma scalar tail.
    ///
    /// # Safety
    /// Requires AVX2 + FMA; `x.len() == y.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_f64(x: &[f64], y: &[f64]) -> f64 {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut s0 = _mm256_setzero_pd();
        let mut s1 = _mm256_setzero_pd();
        let mut s2 = _mm256_setzero_pd();
        let mut s3 = _mm256_setzero_pd();
        let mut i = 0;
        while i + 16 <= n {
            s0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), s0);
            s1 = _mm256_fmadd_pd(
                _mm256_loadu_pd(xp.add(i + 4)),
                _mm256_loadu_pd(yp.add(i + 4)),
                s1,
            );
            s2 = _mm256_fmadd_pd(
                _mm256_loadu_pd(xp.add(i + 8)),
                _mm256_loadu_pd(yp.add(i + 8)),
                s2,
            );
            s3 = _mm256_fmadd_pd(
                _mm256_loadu_pd(xp.add(i + 12)),
                _mm256_loadu_pd(yp.add(i + 12)),
                s3,
            );
            i += 16;
        }
        while i + 4 <= n {
            s0 = _mm256_fmadd_pd(_mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)), s0);
            i += 4;
        }
        let s = _mm256_add_pd(_mm256_add_pd(s0, s1), _mm256_add_pd(s2, s3));
        let lo = _mm256_castpd256_pd128(s);
        let hi = _mm256_extractf128_pd(s, 1);
        let q = _mm_add_pd(lo, hi);
        let h = _mm_add_sd(q, _mm_unpackhi_pd(q, q));
        let mut acc = _mm_cvtsd_f64(h);
        while i < n {
            acc = (*xp.add(i)).mul_add(*yp.add(i), acc);
            i += 1;
        }
        acc
    }

    /// AVX2 f32 dot product (see [`dot_f64`] for the reduction shape).
    ///
    /// # Safety
    /// Requires AVX2 + FMA; `x.len() == y.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn dot_f32(x: &[f32], y: &[f32]) -> f32 {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_ptr();
        let mut s0 = _mm256_setzero_ps();
        let mut s1 = _mm256_setzero_ps();
        let mut s2 = _mm256_setzero_ps();
        let mut s3 = _mm256_setzero_ps();
        let mut i = 0;
        while i + 32 <= n {
            s0 = _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)), s0);
            s1 = _mm256_fmadd_ps(
                _mm256_loadu_ps(xp.add(i + 8)),
                _mm256_loadu_ps(yp.add(i + 8)),
                s1,
            );
            s2 = _mm256_fmadd_ps(
                _mm256_loadu_ps(xp.add(i + 16)),
                _mm256_loadu_ps(yp.add(i + 16)),
                s2,
            );
            s3 = _mm256_fmadd_ps(
                _mm256_loadu_ps(xp.add(i + 24)),
                _mm256_loadu_ps(yp.add(i + 24)),
                s3,
            );
            i += 32;
        }
        while i + 8 <= n {
            s0 = _mm256_fmadd_ps(_mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)), s0);
            i += 8;
        }
        let s = _mm256_add_ps(_mm256_add_ps(s0, s1), _mm256_add_ps(s2, s3));
        let lo = _mm256_castps256_ps128(s);
        let hi = _mm256_extractf128_ps(s, 1);
        let q = _mm_add_ps(lo, hi);
        let q = _mm_add_ps(q, _mm_movehl_ps(q, q));
        let q = _mm_add_ss(q, _mm_shuffle_ps(q, q, 1));
        let mut acc = _mm_cvtss_f32(q);
        while i < n {
            acc = (*xp.add(i)).mul_add(*yp.add(i), acc);
            i += 1;
        }
        acc
    }

    /// Four lanes of [`super::exp_scalar`], operation for operation. Only a
    /// NaN lane differs on the way (`vminpd` clamps it to the bound where
    /// `f64::clamp` keeps it), and the final blend returns it unchanged on
    /// both paths.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn exp_lanes(x: __m256d) -> __m256d {
        let shift = _mm256_set1_pd(EXP_SHIFT);
        let xc = _mm256_max_pd(
            _mm256_min_pd(x, _mm256_set1_pd(EXP_MAX)),
            _mm256_set1_pd(EXP_MIN),
        );
        let shifted = _mm256_fmadd_pd(xc, _mm256_set1_pd(std::f64::consts::LOG2_E), shift);
        let k = _mm256_sub_pd(shifted, shift);
        let r = _mm256_fmadd_pd(k, _mm256_set1_pd(-EXP_LN2_HI), xc);
        let r = _mm256_fmadd_pd(k, _mm256_set1_pd(-EXP_LN2_LO), r);
        let mut p = _mm256_set1_pd(EXP_TAYLOR[0]);
        for c in &EXP_TAYLOR[1..] {
            p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(*c));
        }
        let one = _mm256_set1_pd(1.0);
        p = _mm256_fmadd_pd(p, r, one);
        p = _mm256_fmadd_pd(p, r, one);
        let bits = _mm256_castpd_si256(shifted);
        let half = _mm256_srli_epi64::<1>(bits);
        let bias = _mm256_set1_epi64x(1023);
        let lo = _mm256_slli_epi64::<52>(_mm256_add_epi64(half, bias));
        let hi = _mm256_slli_epi64::<52>(_mm256_add_epi64(_mm256_sub_epi64(bits, half), bias));
        let y = _mm256_mul_pd(
            _mm256_mul_pd(p, _mm256_castsi256_pd(lo)),
            _mm256_castsi256_pd(hi),
        );
        _mm256_blendv_pd(y, x, _mm256_cmp_pd::<_CMP_UNORD_Q>(x, x))
    }

    /// AVX2 in-place `exp`. Each element of a short tail is broadcast and
    /// evaluated in registers, which keeps a one-element call (an entry of
    /// a kernel matrix) free of memory round trips.
    ///
    /// # Safety
    /// Requires AVX2 + FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn exp_in_place(xs: &mut [f64]) {
        let mut chunks = xs.chunks_exact_mut(4);
        for c in &mut chunks {
            _mm256_storeu_pd(c.as_mut_ptr(), exp_lanes(_mm256_loadu_pd(c.as_ptr())));
        }
        for x in chunks.into_remainder() {
            *x = _mm256_cvtsd_f64(exp_lanes(_mm256_set1_pd(*x)));
        }
    }

    /// AVX2 f64 axpy: element-wise `y[i] = fma(alpha, x[i], y[i])`,
    /// bit-identical to the scalar fallback.
    ///
    /// # Safety
    /// Requires AVX2 + FMA; `x.len() == y.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy_f64(alpha: f64, x: &[f64], y: &mut [f64]) {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let av = _mm256_set1_pd(alpha);
        let mut i = 0;
        while i + 4 <= n {
            let r = _mm256_fmadd_pd(av, _mm256_loadu_pd(xp.add(i)), _mm256_loadu_pd(yp.add(i)));
            _mm256_storeu_pd(yp.add(i), r);
            i += 4;
        }
        while i < n {
            *yp.add(i) = alpha.mul_add(*xp.add(i), *yp.add(i));
            i += 1;
        }
    }

    /// AVX2 f32 axpy (see [`axpy_f64`]).
    ///
    /// # Safety
    /// Requires AVX2 + FMA; `x.len() == y.len()`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
        let n = x.len();
        let xp = x.as_ptr();
        let yp = y.as_mut_ptr();
        let av = _mm256_set1_ps(alpha);
        let mut i = 0;
        while i + 8 <= n {
            let r = _mm256_fmadd_ps(av, _mm256_loadu_ps(xp.add(i)), _mm256_loadu_ps(yp.add(i)));
            _mm256_storeu_ps(yp.add(i), r);
            i += 8;
        }
        while i < n {
            *yp.add(i) = alpha.mul_add(*xp.add(i), *yp.add(i));
            i += 1;
        }
    }
}

/// Dispatched f64 micro-kernel (8 x 6 tile); see [`microkernel_scalar`] for
/// the contract.
pub fn microkernel_f64(kb: usize, a: &[f64], b: &[f64], acc: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2+FMA presence established by `simd_level`; slice
        // bounds are the caller's packed-panel invariant (debug-asserted).
        unsafe { avx2::microkernel_f64_8x6(kb, a, b, acc) };
        return;
    }
    microkernel_scalar::<f64>(8, 6, kb, a, b, acc);
}

/// Dispatched f32 micro-kernel (16 x 6 tile); see [`microkernel_scalar`] for
/// the contract.
pub fn microkernel_f32(kb: usize, a: &[f32], b: &[f32], acc: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2+FMA presence established by `simd_level`.
        unsafe { avx2::microkernel_f32_16x6(kb, a, b, acc) };
        return;
    }
    microkernel_scalar::<f32>(16, 6, kb, a, b, acc);
}

/// Dispatched f64 dot product.
pub fn dot_f64(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2+FMA presence established by `simd_level`.
        return unsafe { avx2::dot_f64(x, y) };
    }
    dot_scalar(x, y)
}

/// Dispatched f32 dot product.
pub fn dot_f32(x: &[f32], y: &[f32]) -> f32 {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2+FMA presence established by `simd_level`.
        return unsafe { avx2::dot_f32(x, y) };
    }
    dot_scalar(x, y)
}

/// Dispatched f64 axpy (bit-identical across paths).
pub fn axpy_f64(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2+FMA presence established by `simd_level`.
        unsafe { avx2::axpy_f64(alpha, x, y) };
        return;
    }
    axpy_scalar(alpha, x, y);
}

/// Dispatched in-place `exp` of every element, bit-identical across paths
/// (see [`exp_scalar`] for the method and its accuracy).
pub fn exp_in_place(xs: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2+FMA presence established by `simd_level`.
        unsafe { avx2::exp_in_place(xs) };
        return;
    }
    for x in xs {
        *x = exp_scalar(*x);
    }
}

/// Dispatched f32 axpy (bit-identical across paths).
pub fn axpy_f32(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if simd_level() == SimdLevel::Avx2 {
        // SAFETY: AVX2+FMA presence established by `simd_level`.
        unsafe { avx2::axpy_f32(alpha, x, y) };
        return;
    }
    axpy_scalar(alpha, x, y);
}

/// Implements [`StreamInto`] for storage precision `$p` accumulated in `$t`:
/// the dispatched fused and transposed stream kernels. The length checks are
/// `assert!`s because the AVX2 kernels index raw pointers on their strength.
macro_rules! impl_stream_into {
    ($p:ty, $t:ty) => {
        impl StreamInto<$t> for $p {
            fn stream_kernel(
                rows: usize,
                kb: usize,
                a: &[$p],
                lda: usize,
                b: &[$t],
                ldb: usize,
                acc: &mut [$t],
            ) {
                if rows == 0 || kb == 0 || acc.is_empty() {
                    return;
                }
                let n = acc.len() / rows;
                assert!(acc.len() == n * rows, "sums are not whole columns");
                assert!(a.len() >= (kb - 1) * lda + rows, "A too short");
                assert!(b.len() >= (n - 1) * ldb + kb, "B too short");
                #[cfg(target_arch = "x86_64")]
                if simd_level() == SimdLevel::Avx2 {
                    // SAFETY: AVX2+FMA presence established by `simd_level`;
                    // the slice lengths were asserted above.
                    unsafe { avx2::stream::<$p, $t>(rows, kb, a, lda, b, ldb, acc) };
                    return;
                }
                stream_scalar::<$p, $t>(rows, kb, a, lda, b, ldb, acc);
            }

            fn stream_t_kernel(
                kb: usize,
                m: usize,
                n: usize,
                a: &[$p],
                lda: usize,
                brow: &[$t],
                out: &mut [$t],
            ) {
                if m == 0 || n == 0 {
                    return;
                }
                assert!(n <= STREAM_T_WIDTH, "too many lanes");
                assert!(a.len() >= (m - 1) * lda + kb, "A too short");
                assert!(brow.len() >= kb * STREAM_T_WIDTH, "B rows too short");
                assert!(out.len() >= m * STREAM_T_WIDTH, "sums too short");
                #[cfg(target_arch = "x86_64")]
                if simd_level() == SimdLevel::Avx2 {
                    // SAFETY: AVX2+FMA presence established by `simd_level`;
                    // the slice lengths were asserted above.
                    unsafe { avx2::stream_t::<$p, $t>(kb, m, n, a, lda, brow, out) };
                    return;
                }
                stream_t_scalar::<$p, $t>(kb, m, n, a, lda, brow, out);
            }
        }
    };
}

impl_stream_into!(f64, f64);
impl_stream_into!(f32, f64);
impl_stream_into!(f32, f32);

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, scale: f64) -> Vec<f64> {
        (0..n)
            .map(|i| ((i * 37 % 19) as f64 - 9.0) * scale)
            .collect()
    }

    #[test]
    fn dispatched_dot_close_to_scalar() {
        for n in [0, 1, 3, 4, 5, 15, 16, 17, 64, 100, 1000] {
            let x = seq(n, 0.25);
            let y = seq(n, 0.5);
            let d = dot_f64(&x, &y);
            let s = dot_scalar(&x, &y);
            assert!(
                (d - s).abs() <= 1e-10 * (1.0 + s.abs()),
                "n={n}: {d} vs {s}"
            );
        }
    }

    #[test]
    fn dispatched_axpy_is_bit_identical_to_scalar() {
        for n in [0, 1, 3, 4, 7, 8, 33, 257] {
            let x = seq(n, 0.125);
            let mut y1 = seq(n, 1.0);
            let mut y2 = y1.clone();
            axpy_f64(1.5, &x, &mut y1);
            axpy_scalar(1.5, &x, &mut y2);
            assert_eq!(y1, y2, "n={n}");
        }
    }

    #[test]
    fn dispatched_microkernel_is_bit_identical_to_scalar() {
        for kb in [0, 1, 2, 7, 64] {
            let a = seq(kb * 8, 0.5);
            let b = seq(kb * 6, 0.25);
            let mut acc1 = [0.0f64; ACC_TILE];
            let mut acc2 = [1.0f64; ACC_TILE]; // overwrite contract: stale values must not leak
            microkernel_f64(kb, &a, &b, &mut acc1[..48]);
            microkernel_scalar::<f64>(8, 6, kb, &a, &b, &mut acc2[..48]);
            assert_eq!(&acc1[..48], &acc2[..48], "kb={kb}");
        }
    }

    #[test]
    fn simd_level_is_stable_and_named() {
        let l = simd_level();
        assert_eq!(l, simd_level());
        assert!(matches!(l.name(), "scalar" | "avx2"));
    }
}
