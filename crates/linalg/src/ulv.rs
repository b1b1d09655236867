//! Dense building blocks of the backward-stable ULV factorization.
//!
//! A ULV elimination step takes a symmetric block `D` whose off-diagonal
//! coupling to the rest of the matrix lives in the column space of a tall
//! basis `U` (`m x s`), and reduces it with *orthogonal* transformations
//! only:
//!
//! 1. **Basis compression** — a Householder QR of `U` gives `Q^T U = [U~; 0]`
//!    (`U~ = R`, `s x s`): in the rotated coordinates, the trailing `m - s`
//!    variables decouple from everything outside the block.
//! 2. **Two-sided block reduction** — [`rotate_symmetric`] forms
//!    `D^ = Q^T D Q` without ever materializing `Q`: from block order
//!    [`ROTATE_WY_MIN_ORDER`] on as one symmetric rank-`2k` update with the
//!    compact-WY form `Q = I - V T V^T` (GEMMs only), below it as two passes
//!    of the `k` reflectors.
//! 3. **Trailing elimination** — [`eliminate_trailing`] Cholesky-factors the
//!    trailing block `D^_22 = L L^T` and forms the Schur complement
//!    `S = D^_11 - X X^T` with `X^T = L^{-1} D^_21` (small-core triangular
//!    solves): the block's contribution to the rest of the matrix collapses
//!    to the `s x s` pair `(S, U~)`.
//!
//! Unlike the Sherman–Morrison–Woodbury recursion, no step inverts an
//! ill-conditioned core: the rotations are orthogonal and the only
//! factorizations are Cholesky factorizations of principal submatrices of
//! congruence-rotated SPD matrices, so the sweep is backward stable for any
//! regularization `lambda > -lambda_min`.
//!
//! The solve sweeps keep only [`WyRotation`], the rotation in **blocked
//! compact-WY** form: the `k` reflectors in column blocks of width
//! `nb = min(`[`SOLVE_WY_NB`]`, ceil(k / 2))`, block `g` stored as its
//! row-trimmed `(m - g nb) x nb` reflector matrix `V_g` (unit diagonal, zeros
//! above it) and its packed upper-triangular `nb x nb` factor `T_g`, so that
//! `Q = prod_g (I - V_g T_g V_g^T)`. The trimmed rows and the halved `T`
//! fit in the scalars the dead `R` triangle and `tau` used to take: a
//! rotation never stores more than `m k + k` scalars. Applying `Q^T` or `Q`
//! is, per block, two GEMMs (`w = V_g^T b`, `b -= V_g w`) around an
//! `nb^2 / 2` triangular product.

use crate::blas::gemm;
use crate::blas::Transpose;
use crate::cholesky::{Cholesky, NotPositiveDefinite};
use crate::matrix::{gather_rows, DenseMatrix};
use crate::qr::{apply_reflector, QrFactors};
use crate::scalar::Scalar;
use crate::trsm::{trsm_left_blocked, Triangle};

/// Smallest block order `m` at which [`rotate_symmetric`] takes the
/// compact-WY GEMM form, provided fewer than two thirds of the order are
/// reflectors (`3k < 2m`). Below either bound the WY form's extra flops
/// (`O(m k^2)` for `T`, `Y`, `M` and `W`) and its small GEMMs cost more than
/// the two reflector passes save. Measured on one AVX2 core in f64,
/// WY / two-pass in us at `m x k`: 64 x 16 56 / 55, 64 x 32 103 / 96,
/// 96 x 16 98 / 147, 96 x 48 294 / 318, 96 x 64 407 / 377,
/// 128 x 64 536 / 766, 128 x 96 968 / 852, 256 x 128 3 440 / 5 640.
pub const ROTATE_WY_MIN_ORDER: usize = 96;

/// Two-sided orthogonal reduction `Q^T A Q` for a symmetric `A`, using the
/// compact Householder representation of `Q` (never materialized). The
/// result is explicitly symmetrized: in exact arithmetic `Q^T A Q` is
/// symmetric, and enforcing the symmetry roundoff loses keeps downstream
/// Cholesky factorizations and CG's symmetry assumption exact.
///
/// From order [`ROTATE_WY_MIN_ORDER`] on (with `k` reflectors, `3k < 2m`),
/// `Q = I - V T V^T` is taken in compact-WY form (`V` the unit
/// lower-trapezoidal reflectors, `T` upper triangular) and the reduction is
/// one symmetric rank-`2k` update: with `Y = V T`, `X = A Y`, `M = Y^T X`
/// and `W = X - V M / 2`, `Q^T A Q = A - W V^T - V W^T`, all GEMMs. Smaller
/// rotations apply the reflectors one at a time, twice: `Q^T (Q^T A)^T`.
/// The two forms agree to roundoff, not bit for bit.
pub fn rotate_symmetric<T: Scalar>(q: &QrFactors<T>, a: &DenseMatrix<T>) -> DenseMatrix<T> {
    assert_eq!(a.rows(), a.cols(), "rotate_symmetric requires a square A");
    assert_eq!(a.rows(), q.rows(), "rotation/matrix dimension mismatch");
    let m = a.rows();
    if m >= ROTATE_WY_MIN_ORDER && 3 * q.rank() < 2 * m {
        return rotate_wy(q, a);
    }
    let mut m1 = a.clone();
    q.apply_qt(&mut m1);
    let mut m2 = m1.transpose();
    q.apply_qt(&mut m2);
    let mut out = m2.transpose();
    out.symmetrize();
    out
}

/// The compact-WY form of [`rotate_symmetric`]. It updates the lower
/// triangle only and mirrors it into the upper one. Its temporaries come
/// from the thread's factorization scratch, so a sweep of rotations
/// allocates only the results.
fn rotate_wy<T: Scalar>(q: &QrFactors<T>, a: &DenseMatrix<T>) -> DenseMatrix<T> {
    let (m, k) = (a.rows(), q.rank());
    let (one, zero) = (T::one(), T::zero());
    T::with_factor_scratch(|stash| {
        let mut take = |rows: usize, cols: usize| {
            let mut buf = stash.pop().unwrap_or_default();
            buf.clear();
            buf.resize(rows * cols, zero);
            DenseMatrix::from_vec(rows, cols, buf)
        };
        let (mut v, mut t, mut y, mut x, mut g) =
            (take(m, k), take(k, k), take(m, k), take(m, k), take(k, k));
        for j in 0..k {
            let col = v.col_mut(j);
            col[j] = one;
            col[j + 1..].copy_from_slice(&q.compact().col(j)[j + 1..]);
        }
        larft(&v, q.tau(), &mut g, &mut t);
        gemm(one, &v, Transpose::No, &t, Transpose::No, zero, &mut y);
        gemm(one, a, Transpose::No, &y, Transpose::No, zero, &mut x);
        // g is M = Y^T A Y from here on, and x becomes W.
        gemm(one, &y, Transpose::Yes, &x, Transpose::No, zero, &mut g);
        gemm(
            T::from_f64(-0.5),
            &v,
            Transpose::No,
            &g,
            Transpose::No,
            one,
            &mut x,
        );
        // The rank-2k update of the lower triangle, one column block at a
        // time: out[c0.., c0..c1] -= [W V][c0.., :] [V W][c0..c1, :]^T.
        let mut out = a.clone();
        let wv = || (0..k).map(|j| x.col(j)).chain((0..k).map(|j| v.col(j)));
        let vw = || (0..k).map(|j| v.col(j)).chain((0..k).map(|j| x.col(j)));
        for c0 in (0..m).step_by(UPDATE_NB) {
            let c1 = (c0 + UPDATE_NB).min(m);
            let lhs = gather_rows(wv(), c0..m, stash.pop().unwrap_or_default());
            let rhs = gather_rows(vw(), c0..c1, stash.pop().unwrap_or_default());
            let mut blk = gather_rows(
                (c0..c1).map(|j| out.col(j)),
                c0..m,
                stash.pop().unwrap_or_default(),
            );
            gemm(
                -one,
                &lhs,
                Transpose::No,
                &rhs,
                Transpose::Yes,
                one,
                &mut blk,
            );
            for j in c0..c1 {
                out.col_mut(j)[c0..].copy_from_slice(blk.col(j - c0));
            }
            stash.extend([blk.into_vec(), rhs.into_vec(), lhs.into_vec()]);
        }
        for j in 0..m {
            for i in (j + 1)..m {
                out.set(j, i, out.get(i, j));
            }
        }
        // Pushed in reverse so the next call pops each buffer for its old role.
        stash.extend([g, x, y, t, v].map(DenseMatrix::into_vec));
        out
    })
}

/// Column width of the lower-triangle blocks of [`rotate_wy`]'s rank-`2k`
/// update: narrower blocks skip more of the upper triangle, wider ones run
/// fewer, larger GEMMs.
const UPDATE_NB: usize = 64;

/// Forward `larft`: the upper-triangular `t` with
/// `H_0 H_1 ... H_{k-1} = I - V T V^T` for the reflectors in the columns of
/// `v` (explicit: unit diagonal, zeros above it). `T[j, j] = tau_j` and
/// `T[..j, j] = -tau_j T[..j, ..j] (V^T V)[..j, j]`, the triangular product
/// as column axpys. `g` (`k x k`) receives `V^T V`; `t` must arrive zeroed.
fn larft<T: Scalar>(v: &DenseMatrix<T>, tau: &[T], g: &mut DenseMatrix<T>, t: &mut DenseMatrix<T>) {
    gemm(T::one(), v, Transpose::Yes, v, Transpose::No, T::zero(), g);
    for (j, &tau) in tau.iter().enumerate().take(v.cols()) {
        for p in 0..j {
            let (tp, tj) = t.two_cols_mut(p, j);
            T::axpy_kernel(-tau * g.get(p, j), &tp[..=p], &mut tj[..=p]);
        }
        t.set(j, j, tau);
    }
}

/// Widest column block of a [`WyRotation`]. A rotation of `k` reflectors
/// takes blocks `min(SOLVE_WY_NB, ceil(k / 2))` wide: two or more blocks
/// whenever `k > 1`, which is what keeps the packed `T_g` inside the
/// scalars the row trimming frees (see [`WyRotation::stored_scalars_for`]).
/// Every block costs two GEMM calls whose fixed part (the fold of the block
/// sums into `b`, per row and column) does not shrink with the block, so
/// wide blocks win: on the 256 x 128 nodes of a rank-128 6-D compression,
/// `nb` = 32 cut the r = 4 ULV solve by ~11 % (two alternating pairs) and
/// `nb` = 64 by ~13 % (ten pairs, 11.4 -> 9.9 ms median; benchmark
/// `solve_r4_ms`, 2-vCPU AVX2 VM). `nb` = 32 would store ~4 000 fewer
/// scalars per such node, `nb` = 64 saves 64.
pub const SOLVE_WY_NB: usize = 64;

/// Smallest order `m` at which [`WyRotation`] applies its blocks as GEMMs.
/// Below it the same stored blocks are applied one reflector at a time
/// (`v` a column of `V_g`, `tau` the diagonal of `T_g`), bit for bit as
/// [`QrFactors::apply_qt`] would: there the per-block staging and the small
/// GEMMs cost more than the WY form saves. Measured over a 32 MiB pool of
/// distinct `m x m/2` rotations (so `V` comes from outside L2, as in a solve
/// sweep), f64, one AVX2 core, WY / reflector loop in us per `Q^T` plus `Q`
/// at r = 1, 4, 16, 64: m = 64 (k = 20) 4.5 / 3.1, 10.7 / 5.1, 30 / 15,
/// 124 / 55; m = 128 23 / 20, 40 / 34, 122 / 101, 335 / 303; m = 160
/// 24 / 21, 38 / 41, 127 / 112, 478 / 457; m = 192 33 / 35, 52 / 62,
/// 168 / 164, 621 / 648; m = 256 54 / 68, 85 / 114, 257 / 281, 967 / 1 137.
pub const SOLVE_WY_MIN_ORDER: usize = 192;

/// A node rotation `Q = H_0 H_1 ... H_{k-1}` (`m x m`, from a Householder QR
/// of an `m x k` basis) in the blocked compact-WY form the ULV solve sweeps
/// apply: reflectors `g nb .. g nb + w_g` make block `g`, stored as
/// `V_g`, its rows `g nb ..` (unit diagonal, zeros above it), and the packed
/// upper triangle of `T_g`, with `Q = prod_g (I - V_g T_g V_g^T)`. Nothing of
/// the QR's `R`, pivots or norms is kept.
#[derive(Clone, Debug)]
pub struct WyRotation<T: Scalar> {
    pub(crate) rows: usize,
    pub(crate) rank: usize,
    /// Block width `nb`, [`WyRotation::block_width`] of the rank.
    pub(crate) nb: usize,
    /// `V_g`, `(rows - g nb) x w_g`.
    pub(crate) v: Vec<DenseMatrix<T>>,
    /// Every `T_g`'s upper triangle by columns, block after block, in one
    /// buffer (so that decoding a rotation costs one allocation per block,
    /// plus two): see [`WyRotation::t_block`].
    pub(crate) t: Vec<T>,
}

impl<T: Scalar> WyRotation<T> {
    /// Block width of a rotation of `rank` reflectors:
    /// `min(`[`SOLVE_WY_NB`]`, ceil(rank / 2))`, zero for no reflectors.
    pub fn block_width(rank: usize) -> usize {
        SOLVE_WY_NB.min(rank.div_ceil(2))
    }

    /// Scalars a rotation of `rank` reflectors of length `rows` stores:
    /// `sum_g (rows - g nb) w_g + w_g (w_g + 1) / 2`, at most
    /// `rows * rank + rank`. `None` on overflow.
    pub fn stored_scalars_for(rows: usize, rank: usize) -> Option<usize> {
        let nb = Self::block_width(rank).max(1);
        (0..rank).step_by(nb).try_fold(0usize, |acc, j0| {
            let w = nb.min(rank - j0);
            rows.checked_sub(j0)?
                .checked_mul(w)?
                .checked_add(w * (w + 1) / 2)?
                .checked_add(acc)
        })
    }

    /// The blocked form of the first `q.rank()` reflectors of `q`, with each
    /// `T_g` formed by the same `larft` as [`rotate_symmetric`]'s.
    pub fn from_qr(q: &QrFactors<T>) -> Self {
        let (m, k) = (q.rows(), q.rank());
        let nb = Self::block_width(k);
        let mut v = Vec::new();
        let mut t = Vec::with_capacity(Self::packed_len(k, nb));
        for j0 in (0..k).step_by(nb.max(1)) {
            let w = nb.min(k - j0);
            let mut vg = DenseMatrix::zeros(m - j0, w);
            for c in 0..w {
                let col = vg.col_mut(c);
                col[c] = T::one();
                col[c + 1..].copy_from_slice(&q.compact().col(j0 + c)[j0 + c + 1..]);
            }
            let (mut g, mut tg) = (DenseMatrix::zeros(w, w), DenseMatrix::zeros(w, w));
            larft(&vg, &q.tau()[j0..j0 + w], &mut g, &mut tg);
            for j in 0..w {
                t.extend_from_slice(&tg.col(j)[..=j]);
            }
            v.push(vg);
        }
        Self {
            rows: m,
            rank: k,
            nb,
            v,
            t,
        }
    }

    /// Order `m` of the rotation.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of reflectors `k`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Scalars held: every `V_g` and every packed `T_g`.
    pub fn stored_scalars(&self) -> usize {
        let v: usize = self.v.iter().map(|v| v.rows() * v.cols()).sum();
        v + self.t.len()
    }

    /// Length of the packed `T_g`s of `rank` reflectors in blocks of `nb`.
    pub(crate) fn packed_len(rank: usize, nb: usize) -> usize {
        let (full, last) = (rank / nb.max(1), rank % nb.max(1));
        full * (nb * (nb + 1) / 2) + last * (last + 1) / 2
    }

    /// `T_g` packed by columns: its column `j` is `t_block(g)[j (j + 1) / 2..][..=j]`.
    /// Every block before the last is `nb` wide, so block `g` starts at
    /// `g nb (nb + 1) / 2`.
    fn t_block(&self, g: usize) -> &[T] {
        let (w, start) = (self.v[g].cols(), g * (self.nb * (self.nb + 1) / 2));
        &self.t[start..start + w * (w + 1) / 2]
    }

    /// `B <- Q^T B` in place (`B` has [`WyRotation::rows`] rows). Column `j`
    /// of the result does not depend on the other columns of `B`, bit for
    /// bit.
    pub fn apply_qt(&self, b: &mut DenseMatrix<T>) {
        self.apply(b, true);
    }

    /// `B <- Q B` in place, the inverse of [`WyRotation::apply_qt`].
    pub fn apply_q(&self, b: &mut DenseMatrix<T>) {
        self.apply(b, false);
    }

    /// `Q^T = prod_g (I - V_g T_g^T V_g^T)` from the first block on
    /// (`transpose`), `Q` from the last. Block `g` touches rows `g nb..` of
    /// `B`: staged into the thread's factorization scratch (block 0 spans
    /// all of `B` and works in place), they take `w = V_g^T b_g`,
    /// `w <- T_g^T w` (or `T_g w`) and `b_g -= V_g w`.
    fn apply(&self, b: &mut DenseMatrix<T>, transpose: bool) {
        assert_eq!(b.rows(), self.rows, "rotation/matrix dimension mismatch");
        if self.rows < SOLVE_WY_MIN_ORDER {
            self.apply_reflections(b, transpose);
            return;
        }
        let (r, blocks) = (b.cols(), self.v.len());
        T::with_factor_scratch(|stash| {
            let mut staged = stash.pop().unwrap_or_default();
            let mut w = stash.pop().unwrap_or_default();
            for idx in 0..blocks {
                let g = if transpose { idx } else { blocks - 1 - idx };
                let (v, t) = (&self.v[g], self.t_block(g));
                w.clear();
                w.resize(v.cols() * r, T::zero());
                let mut wg = DenseMatrix::from_vec(v.cols(), r, w);
                let r0 = self.rows - v.rows();
                if r0 == 0 {
                    apply_block(v, t, transpose, b, &mut wg);
                } else {
                    staged.clear();
                    for j in 0..r {
                        staged.extend_from_slice(&b.col(j)[r0..]);
                    }
                    let mut bg = DenseMatrix::from_vec(v.rows(), r, staged);
                    apply_block(v, t, transpose, &mut bg, &mut wg);
                    for j in 0..r {
                        b.col_mut(j)[r0..].copy_from_slice(bg.col(j));
                    }
                    staged = bg.into_vec();
                }
                w = wg.into_vec();
            }
            stash.extend([w, staged]);
        });
    }

    /// The reflectors one at a time from the stored blocks, in the order and
    /// with the arithmetic of [`QrFactors::apply_qt`] / `apply_q`.
    fn apply_reflections(&self, b: &mut DenseMatrix<T>, transpose: bool) {
        let m = self.rows;
        for idx in 0..self.rank {
            let step = if transpose { idx } else { self.rank - 1 - idx };
            let (g, c) = (step / self.nb, step % self.nb);
            let tau = self.t_block(g)[c * (c + 3) / 2];
            let v = &self.v[g].col(c)[c + 1..];
            for j in 0..b.cols() {
                apply_reflector(tau, v, &mut b.col_mut(j)[step..m]);
            }
        }
    }
}

/// `b <- (I - V T^T V^T) b` (`transpose`) or `(I - V T V^T) b` for one WY
/// block, `T` packed; `w` (`nb x r`, zeroed) is the GEMMs' middle operand.
fn apply_block<T: Scalar>(
    v: &DenseMatrix<T>,
    t: &[T],
    transpose: bool,
    b: &mut DenseMatrix<T>,
    w: &mut DenseMatrix<T>,
) {
    gemm(T::one(), v, Transpose::Yes, b, Transpose::No, T::zero(), w);
    for j in 0..b.cols() {
        if transpose {
            packed_upper_t_mul(t, w.col_mut(j));
        } else {
            packed_upper_mul(t, w.col_mut(j));
        }
    }
    gemm(-T::one(), v, Transpose::No, w, Transpose::No, T::one(), b);
}

/// `w <- T^T w` for an upper-triangular `T` packed by columns: entry `i`
/// becomes column `i` of `T` dotted with `w[..=i]`, from the bottom up, so
/// the entries still to be read are unchanged.
fn packed_upper_t_mul<T: Scalar>(t: &[T], w: &mut [T]) {
    for i in (0..w.len()).rev() {
        let off = i * (i + 1) / 2;
        w[i] = T::dot_kernel(&t[off..=off + i], &w[..=i]);
    }
}

/// `w <- T w` for an upper-triangular `T` packed by columns: column `p`
/// scaled by `w[p]` is added from the left, so every `w[p]` is read before
/// it is scaled.
fn packed_upper_mul<T: Scalar>(t: &[T], w: &mut [T]) {
    for p in 0..w.len() {
        let off = p * (p + 1) / 2;
        let x = w[p];
        T::axpy_kernel(x, &t[off..off + p], &mut w[..p]);
        w[p] = t[off + p] * x;
    }
}

/// One ULV elimination of the trailing block: the Cholesky factor of the
/// eliminated block, the coupling panel, and the Schur complement onto the
/// kept variables. Produced by [`eliminate_trailing`].
#[derive(Clone, Debug)]
pub struct TrailingElimination<T: Scalar> {
    /// Cholesky factor of the trailing block `D^_22` (`None` when nothing is
    /// eliminated, i.e. `keep == n`).
    pub chol: Option<Cholesky<T>>,
    /// `X^T = L^{-1} D^_21` (`(n - keep) x keep`): the coupling panel in the
    /// form both solve sweeps consume (`X y` is a transposed GEMM against
    /// it, `X^T x` a plain one).
    pub xt: DenseMatrix<T>,
    /// Schur complement `S = D^_11 - X X^T` onto the kept leading block
    /// (`keep x keep`, explicitly symmetrized).
    pub schur: DenseMatrix<T>,
}

/// Eliminate the trailing `n - keep` variables of a symmetric block `dhat`
/// (typically the output of [`rotate_symmetric`]): factor
/// `D^_22 = L L^T`, form `X^T = L^{-1} D^_21` and the Schur complement
/// `S = D^_11 - X X^T`.
///
/// With `keep == 0` this is a plain Cholesky factorization of the whole
/// block (the ULV root step); with `keep == n` it is a no-op pass-through.
///
/// # Errors
/// [`NotPositiveDefinite`] (with the offending pivot index and its value)
/// when the trailing block is not numerically positive definite.
pub fn eliminate_trailing<T: Scalar>(
    dhat: &DenseMatrix<T>,
    keep: usize,
) -> Result<TrailingElimination<T>, NotPositiveDefinite> {
    let n = dhat.rows();
    assert_eq!(dhat.cols(), n, "eliminate_trailing requires a square block");
    assert!(keep <= n, "cannot keep more variables than the block holds");
    if keep == n {
        return Ok(TrailingElimination {
            chol: None,
            xt: DenseMatrix::zeros(0, keep),
            schur: dhat.clone(),
        });
    }
    let d22 = dhat.block(keep, n, keep, n);
    let chol = Cholesky::factor(&d22)?;
    // X^T = L^{-1} D^_21, one blocked multi-RHS triangular solve.
    let mut xt = dhat.block(keep, n, 0, keep);
    trsm_left_blocked(Triangle::Lower, false, chol.l(), &mut xt);
    // S = D^_11 - X X^T = D^_11 - xt^T xt.
    let mut schur = dhat.block(0, keep, 0, keep);
    gemm(
        -T::one(),
        &xt,
        Transpose::Yes,
        &xt,
        Transpose::No,
        T::one(),
        &mut schur,
    );
    schur.symmetrize();
    Ok(TrailingElimination {
        chol: Some(chol),
        xt,
        schur,
    })
}

impl<T: Scalar> TrailingElimination<T> {
    /// Number of kept (leading) variables.
    pub fn kept(&self) -> usize {
        self.xt.cols()
    }

    /// Number of eliminated (trailing) variables.
    pub fn eliminated(&self) -> usize {
        self.chol.as_ref().map(|c| c.n()).unwrap_or(0)
    }

    /// Forward half-solve on the eliminated variables: `y2 = L^{-1} b2` in
    /// place. No-op when nothing was eliminated.
    pub fn forward_eliminated(&self, b2: &mut DenseMatrix<T>) {
        if let Some(chol) = &self.chol {
            trsm_left_blocked(Triangle::Lower, false, chol.l(), b2);
        }
    }

    /// Backward half-solve on the eliminated variables: `x2 = L^{-T} w` in
    /// place. No-op when nothing was eliminated.
    pub fn backward_eliminated(&self, w: &mut DenseMatrix<T>) {
        if let Some(chol) = &self.chol {
            trsm_left_blocked(Triangle::Lower, true, chol.l(), w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{matmul, matmul_nt, matmul_tn};
    use crate::qr::householder_qr;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_spd(n: usize, seed: u64) -> DenseMatrix<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = DenseMatrix::<f64>::random_gaussian(n, n, &mut rng);
        let mut a = matmul_nt(&g, &g);
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a.symmetrize();
        a
    }

    #[test]
    fn rotate_symmetric_matches_explicit_q() {
        let mut rng = StdRng::seed_from_u64(71);
        let a = random_spd(14, 70);
        let u = DenseMatrix::<f64>::random_gaussian(14, 5, &mut rng);
        let qr = householder_qr(&u);
        let rotated = rotate_symmetric(&qr, &a);
        // Explicit m x m Q through apply_q on the identity.
        let mut q = DenseMatrix::<f64>::identity(14);
        qr.apply_q(&mut q);
        let explicit = matmul(&matmul_tn(&q, &a), &q);
        assert!(rotated.sub(&explicit).norm_max() < 1e-10);
        // Result is exactly symmetric.
        for i in 0..14 {
            for j in 0..14 {
                assert_eq!(rotated[(i, j)], rotated[(j, i)]);
            }
        }
    }

    #[test]
    fn eliminate_trailing_reconstructs_block_inverse() {
        // Eliminating then substituting must solve D x = b exactly.
        let n = 20;
        let keep = 7;
        let d = random_spd(n, 72);
        let elim = eliminate_trailing(&d, keep).unwrap();
        assert_eq!(elim.kept(), keep);
        assert_eq!(elim.eliminated(), n - keep);
        let mut rng = StdRng::seed_from_u64(73);
        let x_true = DenseMatrix::<f64>::random_gaussian(n, 3, &mut rng);
        let b = matmul(&d, &x_true);
        // Forward: y2 = L^{-1} b2, reduced RHS b1 - X y2, reduced solve with
        // the Schur complement, backward: x2 = L^{-T}(y2 - X^T x1).
        let b1 = b.block(0, keep, 0, 3);
        let mut y2 = b.block(keep, n, 0, 3);
        elim.forward_eliminated(&mut y2);
        let mut bred = b1.clone();
        gemm(
            -1.0,
            &elim.xt,
            Transpose::Yes,
            &y2,
            Transpose::No,
            1.0,
            &mut bred,
        );
        let x1 = Cholesky::factor(&elim.schur).unwrap().solve(&bred);
        let mut x2 = y2.clone();
        gemm(
            -1.0,
            &elim.xt,
            Transpose::No,
            &x1,
            Transpose::No,
            1.0,
            &mut x2,
        );
        elim.backward_eliminated(&mut x2);
        let x = x1.vstack(&x2);
        assert!(x.sub(&x_true).norm_max() < 1e-9);
    }

    #[test]
    fn eliminate_all_is_plain_cholesky() {
        let d = random_spd(12, 74);
        let elim = eliminate_trailing(&d, 0).unwrap();
        assert_eq!(elim.kept(), 0);
        assert_eq!(elim.eliminated(), 12);
        assert_eq!(elim.schur.rows(), 0);
        let reference = Cholesky::factor(&d).unwrap();
        assert_eq!(elim.chol.unwrap().l().data(), reference.l().data());
    }

    #[test]
    fn eliminate_nothing_passes_through() {
        let d = random_spd(9, 75);
        let elim = eliminate_trailing(&d, 9).unwrap();
        assert!(elim.chol.is_none());
        assert_eq!(elim.schur.data(), d.data());
    }

    #[test]
    fn indefinite_trailing_block_reports_pivot_and_value() {
        let mut d = DenseMatrix::<f64>::identity(6);
        d[(4, 4)] = -3.0;
        let err = eliminate_trailing(&d, 2).unwrap_err();
        assert_eq!(err.pivot, 2); // index within the trailing block
        assert!((err.value - (-3.0)).abs() < 1e-12);
    }

    #[test]
    fn schur_complement_is_spd_for_spd_input() {
        let d = random_spd(16, 76);
        let elim = eliminate_trailing(&d, 5).unwrap();
        assert!(crate::cholesky::is_spd(&elim.schur));
    }
}
