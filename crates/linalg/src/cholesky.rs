//! Cholesky factorization, SPD solves and SPD inversion.
//!
//! The hierarchical solvers factor with it: the ULV trailing elimination
//! ([`crate::ulv::eliminate_trailing`], every node's eliminated block and
//! the root's whole merged block) and the SMW backend's leaf blocks. The
//! matrix zoo uses it to build "inverse operator" SPD matrices (regularized
//! inverse graph Laplacians), and [`is_spd`] checks that generated matrices
//! really are positive definite.

use crate::blas::{gemm, Transpose};
use crate::matrix::DenseMatrix;
use crate::scalar::Scalar;
use crate::trsm::{tri_inverse, trsm_left, trsm_left_blocked, Triangle};

/// Error returned when a matrix is not (numerically) positive definite.
#[derive(Debug, Clone, PartialEq)]
pub struct NotPositiveDefinite {
    /// Pivot index at which the factorization broke down.
    pub pivot: usize,
    /// The non-positive (or non-finite) downdated diagonal value at that
    /// pivot. A strongly negative value means the matrix is indefinite; a
    /// value at roundoff scale means it is numerically singular — callers
    /// use the distinction to report "increase lambda" versus "the block is
    /// singular".
    pub value: f64,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite (pivot {} has non-positive value {:.3e})",
            self.pivot, self.value
        )
    }
}

impl std::error::Error for NotPositiveDefinite {}

/// Lower-triangular Cholesky factor of an SPD matrix.
#[derive(Clone, Debug)]
pub struct Cholesky<T: Scalar> {
    l: DenseMatrix<T>,
}

impl<T: Scalar> Cholesky<T> {
    /// Factor `A = L L^T`. Only the lower triangle of `a` is referenced.
    ///
    /// A right-looking column sweep: once column `j` is final it is scaled
    /// by its pivot and subtracted from every column to its right, each
    /// update a contiguous slice loop. Every entry therefore sees the same
    /// products, subtracted one at a time (a multiply, then a subtract — no
    /// fma) in the same increasing-`k` order as the textbook dot form
    /// `l_ij = (a_ij - sum_k l_ik l_jk) / l_jj`, so the factor and any
    /// breakdown's pivot and value are bit-identical to it.
    pub fn factor(a: &DenseMatrix<T>) -> Result<Self, NotPositiveDefinite> {
        let n = a.rows();
        assert_eq!(a.cols(), n, "Cholesky requires a square matrix");
        let mut l = DenseMatrix::zeros(n, n);
        for j in 0..n {
            l.col_mut(j)[j..].copy_from_slice(&a.col(j)[j..]);
        }
        for j in 0..n {
            // The diagonal entry, downdated by every column left of it.
            let d = l.get(j, j);
            if d.to_f64() <= 0.0 || !d.is_finite() {
                return Err(NotPositiveDefinite {
                    pivot: j,
                    value: d.to_f64(),
                });
            }
            let dj = d.sqrt();
            let col = &mut l.col_mut(j)[j..];
            col[0] = dj;
            for v in &mut col[1..] {
                *v /= dj;
            }
            // Downdate the trailing lower triangle: a_ic -= l_ij l_cj.
            for c in (j + 1)..n {
                let (src, dst) = l.two_cols_mut(j, c);
                let l_cj = src[c];
                for (d, s) in dst[c..].iter_mut().zip(&src[c..]) {
                    *d -= *s * l_cj;
                }
            }
        }
        Ok(Self { l })
    }

    /// Rebuild a factorization from a previously computed lower-triangular
    /// factor (as returned by [`Cholesky::l`]). The storage tier uses this
    /// to round-trip spilled ULV leaf factors bit-identically.
    pub fn from_l(l: DenseMatrix<T>) -> Self {
        assert_eq!(l.rows(), l.cols(), "Cholesky factor must be square");
        Self { l }
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &DenseMatrix<T> {
        &self.l
    }

    /// Order of the factored matrix.
    pub fn n(&self) -> usize {
        self.l.rows()
    }

    /// Solve `A X = B` (in place on a copy of `B`).
    pub fn solve(&self, b: &DenseMatrix<T>) -> DenseMatrix<T> {
        let mut x = b.clone();
        trsm_left(Triangle::Lower, false, &self.l, &mut x);
        trsm_left(Triangle::Lower, true, &self.l, &mut x);
        x
    }

    /// Solve `A X = B` in place with the blocked multi-RHS triangular solves
    /// (`trsm_left_blocked`): the fast path for wide right-hand sides, used
    /// by the hierarchical solver's leaf factor and solve sweeps. Same
    /// result as [`Cholesky::solve`] up to blocked-accumulation rounding.
    pub fn solve_into(&self, b: &mut DenseMatrix<T>) {
        trsm_left_blocked(Triangle::Lower, false, &self.l, b);
        trsm_left_blocked(Triangle::Lower, true, &self.l, b);
    }

    /// Explicit inverse `A^{-1} = L^{-T} L^{-1}` (symmetric by construction).
    pub fn inverse(&self) -> DenseMatrix<T> {
        let linv = tri_inverse(Triangle::Lower, &self.l);
        let mut inv = DenseMatrix::zeros(self.n(), self.n());
        gemm(
            T::one(),
            &linv,
            Transpose::Yes,
            &linv,
            Transpose::No,
            T::zero(),
            &mut inv,
        );
        inv.symmetrize();
        inv
    }

    /// Log-determinant of `A` (sum of `2 ln L_ii`), handy for sanity checks.
    pub fn log_det(&self) -> f64 {
        (0..self.n())
            .map(|i| 2.0 * self.l.get(i, i).to_f64().ln())
            .sum()
    }
}

/// Returns true if `a` is numerically SPD (Cholesky succeeds).
pub fn is_spd<T: Scalar>(a: &DenseMatrix<T>) -> bool {
    Cholesky::factor(a).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{matmul, matmul_nt};
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
    fn factor_and_reconstruct() {
        let a = random_spd(15, 41);
        let ch = Cholesky::factor(&a).unwrap();
        let recon = matmul_nt(ch.l(), ch.l());
        assert!(recon.sub(&a).norm_max() < 1e-9 * a.norm_max());
    }

    #[test]
    fn solve_matches_direct() {
        let a = random_spd(12, 42);
        let mut rng = StdRng::seed_from_u64(43);
        let x = DenseMatrix::<f64>::random_uniform(12, 3, &mut rng);
        let b = matmul(&a, &x);
        let ch = Cholesky::factor(&a).unwrap();
        let sol = ch.solve(&b);
        assert!(sol.sub(&x).norm_max() < 1e-8);
    }

    #[test]
    fn solve_into_matches_solve() {
        let a = random_spd(130, 45); // large enough for the blocked path
        let mut rng = StdRng::seed_from_u64(46);
        let x = DenseMatrix::<f64>::random_uniform(130, 6, &mut rng);
        let b = matmul(&a, &x);
        let ch = Cholesky::factor(&a).unwrap();
        let reference = ch.solve(&b);
        let mut blocked = b;
        ch.solve_into(&mut blocked);
        assert!(blocked.sub(&x).norm_max() < 1e-7);
        assert!(blocked.sub(&reference).norm_max() < 1e-8);
    }

    #[test]
    fn inverse_is_true_inverse() {
        let a = random_spd(10, 44);
        let ch = Cholesky::factor(&a).unwrap();
        let inv = ch.inverse();
        let prod = matmul(&a, &inv);
        let eye = DenseMatrix::<f64>::identity(10);
        assert!(prod.sub(&eye).norm_max() < 1e-8);
        // inverse should be symmetric
        for i in 0..10 {
            for j in 0..10 {
                assert!((inv[(i, j)] - inv[(j, i)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = DenseMatrix::<f64>::identity(4);
        a[(2, 2)] = -1.0;
        assert!(Cholesky::factor(&a).is_err());
        assert!(!is_spd(&a));
    }

    #[test]
    fn log_det_of_diagonal() {
        let mut a = DenseMatrix::<f64>::zeros(3, 3);
        a[(0, 0)] = 2.0;
        a[(1, 1)] = 3.0;
        a[(2, 2)] = 4.0;
        let ch = Cholesky::factor(&a).unwrap();
        assert!((ch.log_det() - (24.0f64).ln()).abs() < 1e-12);
    }

    #[test]
    fn spd_check_accepts_identity() {
        assert!(is_spd(&DenseMatrix::<f64>::identity(6)));
    }
}
