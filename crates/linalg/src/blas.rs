//! BLAS-like dense kernels: GEMM, GEMV, dot products and norm estimates.
//!
//! These are the work-horses behind skeletonization (`GEQP3`/`TRSM` call into
//! them) and behind the N2S/S2S/S2N/L2L evaluation tasks. [`gemm`] has two
//! paths, chosen from the shape, that produce the same bits:
//!
//! * **Packed** (every transpose combination, any width): BLIS-style cache
//!   blocking. Operands are copied into contiguous `MR`/`NR` strips with
//!   row/column **slice** copies (no per-element bounds checks), then
//!   multiplied by the register micro-kernel dispatched through
//!   [`Scalar::gemm_microkernel`] — AVX2/FMA on x86-64, a portable scalar
//!   loop elsewhere (see [`crate::simd`]). The pack buffers are the calling
//!   thread's grow-only scratch ([`Scalar::with_pack_scratch`]), so a GEMM
//!   allocates nothing once its thread has seen the largest shape. The
//!   scratch lives as long as the thread: a caller's own thread keeps it
//!   across calls, while the scoped workers a multi-threaded sweep spawns
//!   each grow one per run (at most 1.25 MiB of f64) and drop it at the join.
//! * **Stream** (`B` untransposed with at most [`STREAM_MAX_COLS`] columns —
//!   the applies, solves and PCG iterations of up to that many right-hand
//!   sides, coalesced server batches included): no packing at all. Each
//!   element of `A` is used once per column of `B`, so copying it into a
//!   strip first only doubles the memory traffic; instead `B` and `C` are
//!   taken one chunk of at most `NR` columns (`A * B`) or
//!   [`STREAM_T_WIDTH`] columns (`A^T * B`) at a time, and for each chunk
//!   `A` is read once, in place (from cache after the first chunk, as far as
//!   it fits), by one of two dispatched kernels ([`StreamInto`], AVX2/FMA or
//!   portable):
//!   - `A * B`: the **fused** kernel takes four consecutive columns of `A`
//!     per pass over an L1-resident block of sums (a few KiB of the same
//!     thread scratch) and updates all of the chunk's sum columns in that
//!     pass, so a sum is loaded and stored once per four fmas and `A` once
//!     per chunk. A reduced-precision `A` is widened in register on the load.
//!   - `A^T * B`: the **transposed** kernel re-lays the `KC`-deep block of
//!     `B` row-major, walks eight columns of `A` at once and keeps one
//!     register of sums per output row: `sums_j = fma(broadcast A[i,j],
//!     B[i,:], sums_j)`. Its chunks fill all eight lanes of a row (two f64
//!     registers, one f32): with six-column chunks a quarter of every f64
//!     fma was padding, and `A^T * B` ran at 10.7 GFLOP/s against 13.6 with
//!     eight (f64, `A` 64 x 474 hot, 16 columns, 2-vCPU AVX2 VM).
//!
//!   Both prefetch `A` a few columns ahead: they do enough L1-resident work
//!   per byte of `A` that the hardware prefetcher alone leaves a cold panel
//!   at a third of the memory rate.
//!
//! **Why the paths agree bit for bit.** Per output element and per `KC`-deep
//! block of the inner dimension, the micro-kernel starts from zero, does one
//! fused multiply-add per `p` in increasing order, and the block's sum is
//! folded into `C` with one `alpha.mul_add(sum, c)`. The stream kernels do
//! exactly that sequence — zeroed sums, `fma(A[r,p], B[p,c], sum)` for
//! increasing `p` inside the same `KC` blocks (the fused kernel chains its
//! four fmas per element in increasing `p`; every lane of the transposed one
//! is a sequential chain over `i`), one `alpha.mul_add` per block — only in a
//! different loop nest. Which chunk an output column falls in changes none
//! of that. Every fma is per element on every dispatch path, so
//! the SIMD and scalar builds, the three kernels, and [`reference::gemm`]
//! all agree.
//!
//! **Scratch-overwrite invariant.** The pack scratch is never cleared. The
//! pack step writes every element of every strip the micro-kernel then reads
//! — `kb` rows of each strip, zero padding of ragged strips included — so
//! whatever an earlier GEMM left in the buffer cannot reach a result. The
//! stream paths keep their block sums and the row-major `B` there under the
//! same rule: sums are zeroed (fused) or overwritten (transposed) per block,
//! and `B`'s padding lanes are written as zeros.
//!
//! [`gemm_mixed`] is the mixed-precision variant the serving layer uses for
//! `f32`-stored interaction panels: `A` is upconverted losslessly to the
//! accumulator precision `T` (while packing, or in register on the stream
//! path, which therefore moves half the bytes), so all arithmetic runs in `T`
//! (f64 accumulation over f32 storage) with the very same fma sequence.
//!
//! The pre-SIMD scalar kernels are retained verbatim under [`mod@reference`] as
//! the comparison baseline for the kernel-equivalence suite and the bench
//! grid.

use crate::matrix::DenseMatrix;
use crate::scalar::{Scalar, StreamInto};
use crate::simd::{self, widen, STREAM_T_WIDTH};
use std::ops::Range;

/// Whether an operand of [`gemm`] is used as-is or transposed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Transpose {
    /// Use the operand as stored.
    No,
    /// Use the transpose of the operand.
    Yes,
}

/// Cache-block sizes for the packed GEMM. Chosen for ~32 KiB L1 / 1 MiB L2;
/// `MC` is divisible by both precisions' `MR` so A-strips never straddle the
/// block edge.
const MC: usize = 128;
/// Depth of one accumulation block: every path sums a product's inner
/// dimension from zero in blocks of `KC` terms and folds each block into `C`
/// with one `alpha.mul_add`. So with `k <= KC`, `gemm(.., beta = 1, C)`
/// gives the bits of `C + gemm(.., beta = 0)`.
pub const KC: usize = 256;
const NC: usize = 512;

/// Row block of the fused stream path: `STREAM_ROWS x n` block sums (16 KiB of
/// f64 at `n = 4`, 24 KiB at `NR`) stay in L1 while four 4 KiB column runs of
/// `A` stream past. Measured with the fused kernel (f64, `n = 4`, hot,
/// 128 / 512 / 2048 rows per block): 463-521 / 397-403 / 429-533 us at
/// 4096 x 256, 584-664 / 525-537 / 440 us at 1024 x 1024; cold reads alike.
const STREAM_ROWS: usize = 512;

/// Widest untransposed `B` that [`gemm`] streams rather than packs. The
/// stream path reads `A` in place once per chunk of at most `NR` columns, so
/// past some width re-reading it costs more than packing it once. Measured
/// crossover (f64, µs per product, best of 5 over a pool of 8 MiB of
/// distinct `A`s, 2-vCPU AVX2 VM, two alternating runs, packed -> streamed):
///
/// | `A` (`m x k`) | n = 7 | n = 16 | n = 32 | n = 48 | n = 64 |
/// |---|---|---|---|---|---|
/// | `A·B` 64 x 220 | 34-37 -> 11-12 | 34-42 -> 18 | 66-70 -> 35-38 | 72-77 -> 52-53 | 87-91 -> 70-75 |
/// | `A·B` 128 x 1280 | 292-352 -> 116-144 | 366-575 -> 260-294 | 588-846 -> 464-585 | 725-1072 -> 655-759 | 1268-1406 -> 864-1167 |
/// | `A·B` 128 x 512 | 113-122 -> 57-65 | 155-160 -> 116-128 | 251-266 -> 234-258 | 319-415 -> 340-379 | 448-544 -> 457-501 |
/// | `Aᵀ·B` 128 x 512 | 145-149 -> 73-79 | 169-195 -> 104-131 | 247-313 -> 224-234 | 297-404 -> 317-348 | 485-533 -> 443-643 |
/// | `Aᵀ·B` 128 x 1280 | 276-344 -> 192-227 | 360-375 -> 347-367 | 806-863 -> 768-790 | 747-1064 -> 916-1137 | 956-1393 -> 1100-1490 |
///
/// Streaming wins by 2-3x at 7 columns and still by 5-40 % at 32; from 48
/// columns on some shapes stream slower than they pack. 32 is also the
/// serving layer's default batch cap.
pub const STREAM_MAX_COLS: usize = 32;

/// `y = beta * y` as BLAS defines it: `beta == 0` **overwrites** `y` with
/// zeros rather than multiplying, so NaN or Inf left in a recycled output
/// buffer cannot survive as `0 * NaN`.
fn scale_or_clear<T: Scalar>(beta: T, y: &mut [T]) {
    if beta == T::zero() {
        y.fill(T::zero());
    } else if beta != T::one() {
        for v in y {
            *v *= beta;
        }
    }
}

/// General matrix-matrix multiply: `C = alpha * op_a(A) * op_b(B) + beta * C`.
///
/// Dimensions are checked at runtime. `beta == 0` overwrites `C` (a recycled
/// buffer holding NaN or Inf does not leak into the result). Products with
/// an untransposed `B` of at most [`STREAM_MAX_COLS`] columns stream `A` (or
/// `A^T`) in place through the fused / transposed stream kernel, once per
/// chunk of at most `NR` / [`STREAM_T_WIDTH`] columns of `B`; everything else is
/// packed into cache-friendly panels and multiplied with the
/// runtime-dispatched `MR x NR` micro-kernel. Neither path allocates once
/// the calling thread's scratch has grown, and results are bit-identical
/// between the two paths and between the SIMD and scalar dispatch (see the
/// [module docs](self)).
pub fn gemm<T: Scalar>(
    alpha: T,
    a: &DenseMatrix<T>,
    op_a: Transpose,
    b: &DenseMatrix<T>,
    op_b: Transpose,
    beta: T,
    c: &mut DenseMatrix<T>,
) {
    gemm_core(alpha, a.into(), op_a, b, op_b, beta, c, false);
}

/// Mixed-precision multiply `C = alpha * A * B + beta * C` where `A` is
/// stored in the reduced panel precision [`Scalar::PanelScalar`] and all
/// arithmetic accumulates in `T`.
///
/// This is the serving-layer kernel for `f32`-stored far-field panels: `A`
/// is upconverted losslessly to `T` — while packing, or in register as the
/// fused stream kernel loads it, which therefore reads half the bytes of the
/// native product — and every fma runs in `T`, i.e. f32 storage, f64
/// accumulation when `T = f64`. The result is bit-identical to [`gemm`] over
/// the upconverted panel. [`gemm_mixed_cols`] adds the transposed form, over
/// a column range of the panel.
pub fn gemm_mixed<T: Scalar>(
    alpha: T,
    a: &DenseMatrix<T::PanelScalar>,
    b: &DenseMatrix<T>,
    beta: T,
    c: &mut DenseMatrix<T>,
) {
    gemm_core(
        alpha,
        a.into(),
        Transpose::No,
        b,
        Transpose::No,
        beta,
        c,
        false,
    );
}

/// [`gemm`] over a contiguous range of `A`'s columns:
/// `C = alpha * op_a(A[:, cols]) * B + beta * C`, with `B` untransposed.
/// Column-major storage makes the range one contiguous slice, so a block of
/// a packed panel is multiplied in place, never copied out. Bit-identical to
/// [`gemm`] over the copied block.
///
/// # Panics
/// When `cols` reaches past `A`'s last column, or on a dimension mismatch.
pub fn gemm_cols<T: Scalar>(
    alpha: T,
    a: &DenseMatrix<T>,
    cols: Range<usize>,
    op_a: Transpose,
    b: &DenseMatrix<T>,
    beta: T,
    c: &mut DenseMatrix<T>,
) {
    let a = ColBlock::new(a, cols);
    gemm_core(alpha, a, op_a, b, Transpose::No, beta, c, false);
}

/// [`gemm_mixed`] over a contiguous range of `A`'s columns, in either
/// orientation: `C = alpha * op_a(A[:, cols]) * B + beta * C` with `A`
/// stored in [`Scalar::PanelScalar`] (see [`gemm_cols`]).
pub fn gemm_mixed_cols<T: Scalar>(
    alpha: T,
    a: &DenseMatrix<T::PanelScalar>,
    cols: Range<usize>,
    op_a: Transpose,
    b: &DenseMatrix<T>,
    beta: T,
    c: &mut DenseMatrix<T>,
) {
    let a = ColBlock::new(a, cols);
    gemm_core(alpha, a, op_a, b, Transpose::No, beta, c, false);
}

/// The `A` operand of [`gemm_core`]: a contiguous range of a column-major
/// matrix's columns (all of them for [`gemm`]).
#[derive(Clone, Copy)]
struct ColBlock<'a, P> {
    data: &'a [P],
    rows: usize,
    cols: usize,
}

impl<'a, P: Scalar> ColBlock<'a, P> {
    fn new(a: &'a DenseMatrix<P>, cols: Range<usize>) -> Self {
        assert!(
            cols.start <= cols.end && cols.end <= a.cols(),
            "gemm column range {cols:?} outside {} columns",
            a.cols()
        );
        let rows = a.rows();
        Self {
            data: &a.data()[cols.start * rows..cols.end * rows],
            rows,
            cols: cols.len(),
        }
    }

    fn col(&self, j: usize) -> &'a [P] {
        &self.data[j * self.rows..(j + 1) * self.rows]
    }
}

impl<'a, P: Scalar> From<&'a DenseMatrix<P>> for ColBlock<'a, P> {
    fn from(a: &'a DenseMatrix<P>) -> Self {
        Self::new(a, 0..a.cols())
    }
}

/// The shared GEMM behind [`gemm`], [`gemm_mixed`], their column-range
/// forms and [`reference::gemm`]. `P` is the storage precision of `A` (equal
/// to `T` except for mixed panels); `force_scalar` pins the packed path and
/// the scalar micro-kernel for the retained reference.
#[allow(clippy::too_many_arguments)]
fn gemm_core<P: Scalar + StreamInto<T>, T: Scalar>(
    alpha: T,
    a: ColBlock<'_, P>,
    op_a: Transpose,
    b: &DenseMatrix<T>,
    op_b: Transpose,
    beta: T,
    c: &mut DenseMatrix<T>,
    force_scalar: bool,
) {
    let (m, ka) = match op_a {
        Transpose::No => (a.rows, a.cols),
        Transpose::Yes => (a.cols, a.rows),
    };
    let (kb, n) = match op_b {
        Transpose::No => (b.rows(), b.cols()),
        Transpose::Yes => (b.cols(), b.rows()),
    };
    assert_eq!(ka, kb, "gemm inner dimension mismatch: {ka} vs {kb}");
    assert_eq!(c.rows(), m, "gemm output row mismatch");
    assert_eq!(c.cols(), n, "gemm output col mismatch");
    let k = ka;

    // Scale C by beta once up front.
    scale_or_clear(beta, c.data_mut());
    if m == 0 || n == 0 || k == 0 || alpha == T::zero() {
        return;
    }

    // No floor on the rows: below `MR` rows the fused kernel beats packing
    // too (f64, hot, k = 256, n = 4, packed / fused: m = 1 2.1 / 0.45 us,
    // m = 4 2.2 / 0.48, m = 7 2.3 / 1.25), and so does its transposed twin
    // (m = 1 1.6 / 0.8 us, m = 4 1.9 / 0.8, k = 4 x m = 256 3.6 / 3.2).
    if !force_scalar && op_b == Transpose::No && n <= STREAM_MAX_COLS {
        // Column chunks of `B` and `C` are contiguous in column-major order.
        let width = match op_a {
            Transpose::No => T::NR,
            Transpose::Yes => STREAM_T_WIDTH,
        };
        let chunks = b.data().chunks(width * k);
        for (b, c) in chunks.zip(c.data_mut().chunks_mut(width * m)) {
            match op_a {
                Transpose::No => gemm_stream(alpha, a, b, c),
                Transpose::Yes => gemm_stream_t(alpha, a, b, c),
            }
        }
        return;
    }

    let mr = T::MR;
    let nr = T::NR;
    debug_assert!(MC % mr == 0, "MC must be a multiple of MR");
    debug_assert!(mr * nr <= simd::ACC_TILE);

    // Packed panels reused across blocks. A is packed in `mr`-row strips
    // (`a_pack[strip][p*mr + r]`), B in `nr`-column strips
    // (`b_pack[strip][p*nr + c]`), both zero-padded to full strip width so
    // the micro-kernel always runs complete tiles. Sized to this call's
    // largest block, not to the `MC x KC` / `KC x NC` maximum.
    let kc = KC.min(k);
    let a_len = MC.min(m).div_ceil(mr) * mr * kc;
    let b_len = NC.min(n).div_ceil(nr) * nr * kc;
    T::with_pack_scratch(a_len + b_len, |scratch| {
        let (a_pack, b_pack) = scratch.split_at_mut(a_len);
        let mut acc = [T::zero(); simd::ACC_TILE];
        let acc = &mut acc[..mr * nr];

        let mut jc = 0;
        while jc < n {
            let nb = NC.min(n - jc);
            let mut pc = 0;
            while pc < k {
                let kb_ = KC.min(k - pc);
                // Pack B panel with contiguous column-slice reads.
                for jstrip in 0..nb.div_ceil(nr) {
                    let j0 = jstrip * nr;
                    let cmax = nr.min(nb - j0);
                    let dst = &mut b_pack[jstrip * (kc * nr)..jstrip * (kc * nr) + kb_ * nr];
                    match op_b {
                        Transpose::No => {
                            for cc in 0..nr {
                                if cc < cmax {
                                    let src = &b.col(jc + j0 + cc)[pc..pc + kb_];
                                    for (p, v) in src.iter().enumerate() {
                                        dst[p * nr + cc] = *v;
                                    }
                                } else {
                                    for p in 0..kb_ {
                                        dst[p * nr + cc] = T::zero();
                                    }
                                }
                            }
                        }
                        Transpose::Yes => {
                            // bt(p, j) = B(j, p): row `p` of the packed strip is a
                            // contiguous run of column `pc + p`.
                            for p in 0..kb_ {
                                let src = &b.col(pc + p)[jc + j0..jc + j0 + cmax];
                                let row = &mut dst[p * nr..(p + 1) * nr];
                                row[..cmax].copy_from_slice(src);
                                for v in &mut row[cmax..] {
                                    *v = T::zero();
                                }
                            }
                        }
                    }
                }
                let mut ic = 0;
                while ic < m {
                    let mb = MC.min(m - ic);
                    // Pack A panel in `mr`-row strips with slice reads, upconverting
                    // storage precision to the accumulator precision.
                    for istrip in 0..mb.div_ceil(mr) {
                        let i0 = istrip * mr;
                        let rmax = mr.min(mb - i0);
                        let dst = &mut a_pack[istrip * (kc * mr)..istrip * (kc * mr) + kb_ * mr];
                        match op_a {
                            Transpose::No => {
                                for p in 0..kb_ {
                                    let src = &a.col(pc + p)[ic + i0..ic + i0 + rmax];
                                    let row = &mut dst[p * mr..(p + 1) * mr];
                                    for (rv, sv) in row.iter_mut().zip(src.iter()) {
                                        *rv = widen(*sv);
                                    }
                                    for rv in &mut row[rmax..] {
                                        *rv = T::zero();
                                    }
                                }
                            }
                            Transpose::Yes => {
                                // at(i, p) = A(p, i): lane `r` of the strip reads a
                                // contiguous run of column `ic + i0 + r`.
                                for r in 0..mr {
                                    if r < rmax {
                                        let src = &a.col(ic + i0 + r)[pc..pc + kb_];
                                        for (p, v) in src.iter().enumerate() {
                                            dst[p * mr + r] = widen(*v);
                                        }
                                    } else {
                                        for p in 0..kb_ {
                                            dst[p * mr + r] = T::zero();
                                        }
                                    }
                                }
                            }
                        }
                    }
                    // Macro kernel over micro tiles.
                    for jstrip in 0..nb.div_ceil(nr) {
                        let j0 = jstrip * nr;
                        let cmax = nr.min(nb - j0);
                        let b_strip = &b_pack[jstrip * (kc * nr)..jstrip * (kc * nr) + kb_ * nr];
                        for istrip in 0..mb.div_ceil(mr) {
                            let i0 = istrip * mr;
                            let rmax = mr.min(mb - i0);
                            let a_strip =
                                &a_pack[istrip * (kc * mr)..istrip * (kc * mr) + kb_ * mr];
                            if force_scalar {
                                simd::microkernel_scalar(mr, nr, kb_, a_strip, b_strip, acc);
                            } else {
                                T::gemm_microkernel(kb_, a_strip, b_strip, acc);
                            }
                            for cc in 0..cmax {
                                let tile = &acc[cc * mr..cc * mr + rmax];
                                let col = &mut c.col_mut(jc + j0 + cc)[ic + i0..ic + i0 + rmax];
                                for (cv, tv) in col.iter_mut().zip(tile.iter()) {
                                    *cv = alpha.mul_add(*tv, *cv);
                                }
                            }
                        }
                    }
                    ic += mb;
                }
                pc += kb_;
            }
            jc += nb;
        }
    });
}

/// One chunk of the stream path of [`gemm_core`]: `C += alpha * A * B` for
/// untransposed operands, `b` and `c` the column-major data of at most `NR`
/// columns of `B` and `C`, reading `A` once, in place. `beta` has already
/// been applied and the empty cases returned. Bit-identical to the packed
/// path: same zero-initialised per-`KC`-block sums, same fma per `p` in
/// increasing order, same single `alpha.mul_add` per block.
fn gemm_stream<P: Scalar + StreamInto<T>, T: Scalar>(
    alpha: T,
    a: ColBlock<'_, P>,
    b: &[T],
    c: &mut [T],
) {
    let (m, k) = (a.rows, a.cols);
    let n = b.len() / k;
    // The block sums live in the thread's scratch: the same few KiB every
    // call, so they stay in L1, and `fill` below clears exactly what a block
    // uses.
    T::with_pack_scratch(STREAM_ROWS.min(m) * n, |acc| {
        for i0 in (0..m).step_by(STREAM_ROWS) {
            let rb = STREAM_ROWS.min(m - i0);
            let acc = &mut acc[..rb * n];
            for pc in (0..k).step_by(KC) {
                let kb = KC.min(k - pc);
                acc.fill(T::zero());
                P::stream_kernel(rb, kb, &a.data[pc * m + i0..], m, &b[pc..], k, acc);
                for (col, sums) in c.chunks_exact_mut(m).zip(acc.chunks_exact(rb)) {
                    for (cv, sv) in col[i0..i0 + rb].iter_mut().zip(sums) {
                        *cv = alpha.mul_add(*sv, *cv);
                    }
                }
            }
        }
    });
}

/// One chunk of the stream path of [`gemm_core`] for a transposed `A`:
/// `C += alpha * A^T * B`, `b` and `c` the column-major data of at most
/// [`STREAM_T_WIDTH`] columns of `B` and `C`, reading `A` once, in place. Each `KC`-deep block
/// of `B` is re-laid row-major (zero-padded to [`STREAM_T_WIDTH`] lanes) so
/// that one column of `A` against it yields a whole row of `C`'s block sums;
/// those are folded into `C` with one `alpha.mul_add` per element and block,
/// as the packed path does. `beta` has already been applied and the empty
/// cases returned.
fn gemm_stream_t<P: Scalar + StreamInto<T>, T: Scalar>(
    alpha: T,
    a: ColBlock<'_, P>,
    b: &[T],
    c: &mut [T],
) {
    let (k, m) = (a.rows, a.cols);
    let n = b.len() / k;
    let brow_len = KC.min(k) * STREAM_T_WIDTH;
    T::with_pack_scratch(brow_len + m * STREAM_T_WIDTH, |scratch| {
        let (brow, sums) = scratch.split_at_mut(brow_len);
        for pc in (0..k).step_by(KC) {
            let kb = KC.min(k - pc);
            let brow = &mut brow[..kb * STREAM_T_WIDTH];
            brow.fill(T::zero());
            for (cc, col) in b.chunks_exact(k).enumerate() {
                for (i, v) in col[pc..pc + kb].iter().enumerate() {
                    brow[i * STREAM_T_WIDTH + cc] = *v;
                }
            }
            P::stream_t_kernel(kb, m, n, &a.data[pc..], k, brow, sums);
            for (cc, col) in c.chunks_exact_mut(m).enumerate() {
                for (j, cv) in col.iter_mut().enumerate() {
                    *cv = alpha.mul_add(sums[j * STREAM_T_WIDTH + cc], *cv);
                }
            }
        }
    });
}

/// Convenience: `C = A * B` (allocating).
pub fn matmul<T: Scalar>(a: &DenseMatrix<T>, b: &DenseMatrix<T>) -> DenseMatrix<T> {
    let mut c = DenseMatrix::zeros(a.rows(), b.cols());
    gemm(
        T::one(),
        a,
        Transpose::No,
        b,
        Transpose::No,
        T::zero(),
        &mut c,
    );
    c
}

/// Convenience: `C = A^T * B` (allocating).
pub fn matmul_tn<T: Scalar>(a: &DenseMatrix<T>, b: &DenseMatrix<T>) -> DenseMatrix<T> {
    let mut c = DenseMatrix::zeros(a.cols(), b.cols());
    gemm(
        T::one(),
        a,
        Transpose::Yes,
        b,
        Transpose::No,
        T::zero(),
        &mut c,
    );
    c
}

/// Convenience: `C = A * B^T` (allocating).
pub fn matmul_nt<T: Scalar>(a: &DenseMatrix<T>, b: &DenseMatrix<T>) -> DenseMatrix<T> {
    let mut c = DenseMatrix::zeros(a.rows(), b.rows());
    gemm(
        T::one(),
        a,
        Transpose::No,
        b,
        Transpose::Yes,
        T::zero(),
        &mut c,
    );
    c
}

/// Matrix-vector multiply `y = alpha * op(A) x + beta * y` (`beta == 0`
/// overwrites `y`, as in [`gemm`]).
///
/// The no-transpose form sweeps columns with the dispatched axpy (bit-
/// identical across dispatch paths); the transposed form reduces each column
/// with the dispatched dot product.
pub fn gemv<T: Scalar>(
    alpha: T,
    a: &DenseMatrix<T>,
    op_a: Transpose,
    x: &[T],
    beta: T,
    y: &mut [T],
) {
    let (m, n) = match op_a {
        Transpose::No => (a.rows(), a.cols()),
        Transpose::Yes => (a.cols(), a.rows()),
    };
    assert_eq!(x.len(), n, "gemv x length mismatch");
    assert_eq!(y.len(), m, "gemv y length mismatch");
    scale_or_clear(beta, y);
    match op_a {
        Transpose::No => {
            // y += alpha * A x, column sweep keeps A accesses contiguous.
            for j in 0..n {
                let s = alpha * x[j];
                if s == T::zero() {
                    continue;
                }
                T::axpy_kernel(s, a.col(j), y);
            }
        }
        Transpose::Yes => {
            for i in 0..m {
                let acc = T::dot_kernel(a.col(i), x);
                y[i] = alpha.mul_add(acc, y[i]);
            }
        }
    }
}

/// Euclidean dot product (runtime-dispatched).
pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
    assert_eq!(x.len(), y.len());
    T::dot_kernel(x, y)
}

/// Euclidean norm of a vector.
pub fn nrm2<T: Scalar>(x: &[T]) -> T {
    dot(x, x).sqrt()
}

/// `y += alpha * x` (runtime-dispatched, bit-identical across paths).
pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), y.len());
    T::axpy_kernel(alpha, x, y);
}

/// Estimate the spectral norm of `A` with a few power iterations on `A^T A`.
pub fn norm2_est<T: Scalar>(a: &DenseMatrix<T>, iters: usize) -> T {
    if a.is_empty() {
        return T::zero();
    }
    let n = a.cols();
    let mut x = vec![T::one(); n];
    let nx = nrm2(&x);
    for v in &mut x {
        *v /= nx;
    }
    let mut y = vec![T::zero(); a.rows()];
    let mut sigma = T::zero();
    for _ in 0..iters.max(1) {
        gemv(T::one(), a, Transpose::No, &x, T::zero(), &mut y);
        gemv(T::one(), a, Transpose::Yes, &y, T::zero(), &mut x);
        let nx = nrm2(&x);
        if nx == T::zero() {
            return T::zero();
        }
        for v in &mut x {
            *v /= nx;
        }
        sigma = nx.sqrt();
    }
    sigma
}

/// FLOP count of a GEMM with these dimensions (used by the cost model and the
/// GFLOPS reporting in the experiment harness).
pub fn gemm_flops(m: usize, n: usize, k: usize) -> u64 {
    2 * m as u64 * n as u64 * k as u64
}

pub mod reference {
    //! Retained scalar reference kernels.
    //!
    //! These run the exact packed-GEMM structure of [`super::gemm`] but pin
    //! the portable scalar micro-kernel regardless of the runtime dispatch
    //! decision, plus plain sequential-fma loops for GEMV/dot/axpy. The
    //! kernel-equivalence proptest suite compares the dispatched kernels
    //! against these, and the bench grid times simd-vs-scalar through them.

    use super::{DenseMatrix, Scalar, Transpose};
    use crate::simd;

    /// Scalar-pinned GEMM: bit-identical to [`super::gemm`] by construction
    /// (same packing, same per-element accumulation order).
    pub fn gemm<T: Scalar>(
        alpha: T,
        a: &DenseMatrix<T>,
        op_a: Transpose,
        b: &DenseMatrix<T>,
        op_b: Transpose,
        beta: T,
        c: &mut DenseMatrix<T>,
    ) {
        super::gemm_core(alpha, a.into(), op_a, b, op_b, beta, c, true);
    }

    /// Scalar GEMV with sequential fma accumulation.
    pub fn gemv<T: Scalar>(
        alpha: T,
        a: &DenseMatrix<T>,
        op_a: Transpose,
        x: &[T],
        beta: T,
        y: &mut [T],
    ) {
        let (m, n) = match op_a {
            Transpose::No => (a.rows(), a.cols()),
            Transpose::Yes => (a.cols(), a.rows()),
        };
        assert_eq!(x.len(), n, "gemv x length mismatch");
        assert_eq!(y.len(), m, "gemv y length mismatch");
        super::scale_or_clear(beta, y);
        match op_a {
            Transpose::No => {
                for j in 0..n {
                    let s = alpha * x[j];
                    if s == T::zero() {
                        continue;
                    }
                    simd::axpy_scalar(s, a.col(j), y);
                }
            }
            Transpose::Yes => {
                for i in 0..m {
                    let acc = simd::dot_scalar(a.col(i), x);
                    y[i] = alpha.mul_add(acc, y[i]);
                }
            }
        }
    }

    /// Scalar dot product (sequential fma).
    pub fn dot<T: Scalar>(x: &[T], y: &[T]) -> T {
        assert_eq!(x.len(), y.len());
        simd::dot_scalar(x, y)
    }

    /// Scalar axpy.
    pub fn axpy<T: Scalar>(alpha: T, x: &[T], y: &mut [T]) {
        assert_eq!(x.len(), y.len());
        simd::axpy_scalar(alpha, x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn naive_matmul(a: &DenseMatrix<f64>, b: &DenseMatrix<f64>) -> DenseMatrix<f64> {
        let mut c = DenseMatrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for p in 0..a.cols() {
                    acc += a[(i, p)] * b[(p, j)];
                }
                c[(i, j)] = acc;
            }
        }
        c
    }

    #[test]
    fn gemm_matches_naive_small() {
        let mut rng = StdRng::seed_from_u64(11);
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 4), (8, 8, 8), (17, 13, 9), (64, 32, 48)] {
            let a = DenseMatrix::<f64>::random_uniform(m, k, &mut rng);
            let b = DenseMatrix::<f64>::random_uniform(k, n, &mut rng);
            let c = matmul(&a, &b);
            let r = naive_matmul(&a, &b);
            assert!(c.sub(&r).norm_max() < 1e-12, "mismatch for {m}x{n}x{k}");
        }
    }

    #[test]
    fn gemm_matches_naive_larger_than_blocks() {
        let mut rng = StdRng::seed_from_u64(12);
        let (m, n, k) = (200, 300, 270);
        let a = DenseMatrix::<f64>::random_uniform(m, k, &mut rng);
        let b = DenseMatrix::<f64>::random_uniform(k, n, &mut rng);
        let c = matmul(&a, &b);
        let r = naive_matmul(&a, &b);
        assert!(c.sub(&r).norm_max() < 1e-10);
    }

    #[test]
    fn gemm_transposed_variants() {
        let mut rng = StdRng::seed_from_u64(13);
        let a = DenseMatrix::<f64>::random_uniform(20, 11, &mut rng);
        let b = DenseMatrix::<f64>::random_uniform(20, 7, &mut rng);
        // A^T * B
        let c1 = matmul_tn(&a, &b);
        let c2 = naive_matmul(&a.transpose(), &b);
        assert!(c1.sub(&c2).norm_max() < 1e-12);
        // A * A^T
        let d1 = matmul_nt(&a, &a);
        let d2 = naive_matmul(&a, &a.transpose());
        assert!(d1.sub(&d2).norm_max() < 1e-12);
    }

    #[test]
    fn gemm_alpha_beta() {
        let mut rng = StdRng::seed_from_u64(14);
        let a = DenseMatrix::<f64>::random_uniform(9, 6, &mut rng);
        let b = DenseMatrix::<f64>::random_uniform(6, 5, &mut rng);
        let mut c = DenseMatrix::<f64>::random_uniform(9, 5, &mut rng);
        let c0 = c.clone();
        gemm(2.0, &a, Transpose::No, &b, Transpose::No, 0.5, &mut c);
        let mut expect = naive_matmul(&a, &b);
        expect.scale(2.0);
        let mut half_c0 = c0.clone();
        half_c0.scale(0.5);
        expect = expect.add(&half_c0);
        assert!(c.sub(&expect).norm_max() < 1e-12);
    }

    #[test]
    fn dispatched_gemm_is_bit_identical_to_scalar_reference() {
        let mut rng = StdRng::seed_from_u64(21);
        for &(m, n, k) in &[(1, 1, 1), (7, 5, 3), (17, 13, 9), (130, 70, 300)] {
            let a = DenseMatrix::<f64>::random_uniform(m, k, &mut rng);
            let b = DenseMatrix::<f64>::random_uniform(k, n, &mut rng);
            for (oa, ob, ad, bd) in [
                (Transpose::No, Transpose::No, (m, k), (k, n)),
                (Transpose::Yes, Transpose::No, (k, m), (k, n)),
                (Transpose::No, Transpose::Yes, (m, k), (n, k)),
                (Transpose::Yes, Transpose::Yes, (k, m), (n, k)),
            ] {
                let at = DenseMatrix::<f64>::from_fn(ad.0, ad.1, |i, j| {
                    if oa == Transpose::No {
                        a[(i, j)]
                    } else {
                        a[(j, i)]
                    }
                });
                let bt = DenseMatrix::<f64>::from_fn(bd.0, bd.1, |i, j| {
                    if ob == Transpose::No {
                        b[(i, j)]
                    } else {
                        b[(j, i)]
                    }
                });
                let mut c1 = DenseMatrix::<f64>::zeros(m, n);
                let mut c2 = DenseMatrix::<f64>::zeros(m, n);
                gemm(1.0, &at, oa, &bt, ob, 0.0, &mut c1);
                reference::gemm(1.0, &at, oa, &bt, ob, 0.0, &mut c2);
                assert_eq!(c1.data(), c2.data(), "{m}x{n}x{k} {oa:?}/{ob:?}");
            }
        }
    }

    #[test]
    fn gemm_mixed_tracks_full_precision() {
        let mut rng = StdRng::seed_from_u64(22);
        let (m, n, k) = (33, 9, 150);
        let a = DenseMatrix::<f64>::random_uniform(m, k, &mut rng);
        let b = DenseMatrix::<f64>::random_uniform(k, n, &mut rng);
        let a32 = a.cast::<f32>();
        let mut c_mixed = DenseMatrix::<f64>::zeros(m, n);
        gemm_mixed(1.0, &a32, &b, 0.0, &mut c_mixed);
        let c_full = matmul(&a, &b);
        // Storage roundoff only: one f32 rounding per A entry, f64 accumulation.
        let bound = f32::EPSILON as f64 * k as f64;
        assert!(
            c_mixed.sub(&c_full).norm_max() < bound,
            "mixed drift {} above {bound}",
            c_mixed.sub(&c_full).norm_max()
        );
    }

    #[test]
    fn gemv_matches_gemm() {
        let mut rng = StdRng::seed_from_u64(15);
        let a = DenseMatrix::<f64>::random_uniform(13, 8, &mut rng);
        let x = DenseMatrix::<f64>::random_uniform(8, 1, &mut rng);
        let mut y = vec![0.0; 13];
        gemv(1.0, &a, Transpose::No, x.col(0), 0.0, &mut y);
        let expect = matmul(&a, &x);
        for i in 0..13 {
            assert!((y[i] - expect[(i, 0)]).abs() < 1e-12);
        }
        // transposed
        let mut z = vec![1.0; 8];
        gemv(1.0, &a, Transpose::Yes, &y, 1.0, &mut z);
        let mut expect_z = matmul_tn(&a, &DenseMatrix::from_vec(13, 1, y.clone()));
        for v in 0..8 {
            expect_z[(v, 0)] += 1.0;
            assert!((z[v] - expect_z[(v, 0)]).abs() < 1e-10);
        }
    }

    #[test]
    fn gemv_beta_zero_overwrites_non_finite_output() {
        let mut rng = StdRng::seed_from_u64(17);
        let a = DenseMatrix::<f64>::random_uniform(5, 3, &mut rng);
        let stale = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        for op in [Transpose::No, Transpose::Yes] {
            let (m, n) = if op == Transpose::No { (5, 3) } else { (3, 5) };
            let x = vec![0.5; n];
            let mut clean = vec![0.0; m];
            gemv(1.5, &a, op, &x, 0.0, &mut clean);
            let mut y: Vec<f64> = (0..m).map(|i| stale[i % 3]).collect();
            let mut y_ref = y.clone();
            gemv(1.5, &a, op, &x, 0.0, &mut y);
            reference::gemv(1.5, &a, op, &x, 0.0, &mut y_ref);
            assert_eq!(y, clean, "{op:?}");
            assert!(y_ref.iter().all(|v| v.is_finite()), "{op:?}: {y_ref:?}");
        }
    }

    #[test]
    fn dot_axpy_nrm2() {
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![4.0, 5.0, 6.0];
        assert_eq!(dot(&x, &y), 32.0);
        axpy(2.0, &x, &mut y);
        assert_eq!(y, vec![6.0, 9.0, 12.0]);
        assert!((nrm2(&x) - 14.0f64.sqrt()).abs() < 1e-14);
    }

    #[test]
    fn norm2_est_on_diagonal_matrix() {
        let mut d = DenseMatrix::<f64>::zeros(6, 6);
        for i in 0..6 {
            d[(i, i)] = (i + 1) as f64;
        }
        let est = norm2_est(&d, 30);
        assert!((est - 6.0).abs() < 1e-6, "est {est}");
    }

    #[test]
    fn gemm_f32_precision() {
        let mut rng = StdRng::seed_from_u64(16);
        let a = DenseMatrix::<f32>::random_uniform(40, 30, &mut rng);
        let b = DenseMatrix::<f32>::random_uniform(30, 20, &mut rng);
        let c = matmul(&a, &b);
        // check one entry against f64 accumulation
        let mut acc = 0.0f64;
        for p in 0..30 {
            acc += a[(5, p)] as f64 * b[(p, 7)] as f64;
        }
        assert!((c[(5, 7)] as f64 - acc).abs() < 1e-4);
    }

    #[test]
    fn gemm_flops_formula() {
        assert_eq!(gemm_flops(2, 3, 4), 48);
    }
}
