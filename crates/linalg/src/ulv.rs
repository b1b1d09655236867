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

use crate::blas::gemm;
use crate::blas::Transpose;
use crate::cholesky::{Cholesky, NotPositiveDefinite};
use crate::matrix::DenseMatrix;
use crate::qr::QrFactors;
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
        // Forward `larft`: T[j, j] = tau_j and T[..j, j] = -tau_j T[..j, ..j]
        // (V^T V)[..j, j], the triangular product as column axpys.
        gemm(one, &v, Transpose::Yes, &v, Transpose::No, zero, &mut g);
        for j in 0..k {
            let tau = q.tau()[j];
            for p in 0..j {
                let (tp, tj) = t.two_cols_mut(p, j);
                T::axpy_kernel(-tau * g.get(p, j), &tp[..=p], &mut tj[..=p]);
            }
            t.set(j, j, tau);
        }
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

/// `rows` of the given columns, side by side, as a matrix over `buf`'s
/// storage.
fn gather_rows<'a, T: Scalar>(
    cols: impl Iterator<Item = &'a [T]>,
    rows: std::ops::Range<usize>,
    mut buf: Vec<T>,
) -> DenseMatrix<T> {
    buf.clear();
    let mut count = 0;
    for col in cols {
        buf.extend_from_slice(&col[rows.clone()]);
        count += 1;
    }
    DenseMatrix::from_vec(rows.len(), count, buf)
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
