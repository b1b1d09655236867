//! Triangular solves (TRSM/TRSV equivalents).
//!
//! GOFMM computes interpolation coefficients with `R11 * P = R12` (upper
//! triangular, left side), and the Cholesky-based matrix generators need
//! forward/backward substitution.

use crate::blas::{gemm, Transpose};
use crate::matrix::{gather_rows, DenseMatrix};
use crate::scalar::Scalar;
use std::ops::Range;

/// Which triangle of the coefficient matrix is referenced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Triangle {
    /// Lower triangular.
    Lower,
    /// Upper triangular.
    Upper,
}

/// Solve `op(T) * X = B` in place, overwriting `B` with the solution, where
/// `T` is triangular. `transpose` selects `op`.
///
/// The substitution is phrased so every inner loop runs over a contiguous
/// column slice of `T` through the runtime-dispatched [`Scalar::dot_kernel`]
/// / [`Scalar::axpy_kernel`]: the transposed solves reduce with dots
/// (`op(T)`'s row `i` is `T`'s column `i`), the untransposed ones scatter
/// with axpy column sweeps (right-looking substitution).
///
/// # Panics
/// Panics on dimension mismatch or an exactly zero diagonal entry.
pub fn trsm_left<T: Scalar>(
    tri: Triangle,
    transpose: bool,
    t: &DenseMatrix<T>,
    b: &mut DenseMatrix<T>,
) {
    let n = t.rows();
    assert_eq!(t.cols(), n, "triangular matrix must be square");
    assert_eq!(b.rows(), n, "rhs row mismatch");
    trsm_diagonal_block(tri, transpose, t, 0..n, b);
}

/// [`trsm_left`] against the diagonal block `t[rows, rows]`, in place on rows
/// `rows` of `b` — the panel solve of [`trsm_left_blocked`], which therefore
/// copies no block of the factor.
fn trsm_diagonal_block<T: Scalar>(
    tri: Triangle,
    transpose: bool,
    t: &DenseMatrix<T>,
    rows: Range<usize>,
    b: &mut DenseMatrix<T>,
) {
    let n = rows.len();
    // Effective triangle after an optional transpose.
    let lower_effective = match (tri, transpose) {
        (Triangle::Lower, false) | (Triangle::Upper, true) => true,
        (Triangle::Upper, false) | (Triangle::Lower, true) => false,
    };
    let t_col = |i: usize| &t.col(rows.start + i)[rows.clone()];
    for col in 0..b.cols() {
        let x = &mut b.col_mut(col)[rows.clone()];
        match (lower_effective, transpose) {
            // Forward substitution, op(T) = T^T with T upper: row i of op(T)
            // left of the diagonal is the top of T's column i.
            (true, true) => {
                for i in 0..n {
                    let ti = t_col(i);
                    let acc = x[i] - T::dot_kernel(&ti[..i], &x[..i]);
                    let d = ti[i];
                    assert!(d != T::zero(), "zero diagonal in triangular solve");
                    x[i] = acc / d;
                }
            }
            // Forward substitution, T lower: right-looking column sweep.
            (true, false) => {
                for k in 0..n {
                    let tk = t_col(k);
                    let d = tk[k];
                    assert!(d != T::zero(), "zero diagonal in triangular solve");
                    let xk = x[k] / d;
                    x[k] = xk;
                    T::axpy_kernel(-xk, &tk[k + 1..], &mut x[k + 1..]);
                }
            }
            // Backward substitution, op(T) = T^T with T lower: row i of op(T)
            // right of the diagonal is the bottom of T's column i.
            (false, true) => {
                for i in (0..n).rev() {
                    let ti = t_col(i);
                    let acc = x[i] - T::dot_kernel(&ti[i + 1..], &x[i + 1..]);
                    let d = ti[i];
                    assert!(d != T::zero(), "zero diagonal in triangular solve");
                    x[i] = acc / d;
                }
            }
            // Backward substitution, T upper: right-looking column sweep.
            (false, false) => {
                for k in (0..n).rev() {
                    let tk = t_col(k);
                    let d = tk[k];
                    assert!(d != T::zero(), "zero diagonal in triangular solve");
                    let xk = x[k] / d;
                    x[k] = xk;
                    T::axpy_kernel(-xk, &tk[..k], &mut x[..k]);
                }
            }
        }
    }
}

/// Solve the vector system `op(T) x = b` in place.
pub fn trsv<T: Scalar>(tri: Triangle, transpose: bool, t: &DenseMatrix<T>, b: &mut [T]) {
    let mut m = DenseMatrix::from_vec(b.len(), 1, b.to_vec());
    trsm_left(tri, transpose, t, &mut m);
    b.copy_from_slice(m.col(0));
}

/// Invert a triangular matrix by solving against the identity.
pub fn tri_inverse<T: Scalar>(tri: Triangle, t: &DenseMatrix<T>) -> DenseMatrix<T> {
    let n = t.rows();
    let mut inv = DenseMatrix::identity(n);
    trsm_left(tri, false, t, &mut inv);
    inv
}

/// Panel width of [`trsm_left_blocked`]: small enough that a diagonal block
/// fits in L1, large enough that the trailing update is GEMM-bound.
const TRSM_NB: usize = 64;

/// Blocked variant of [`trsm_left`] for multi-RHS solves: solve the diagonal
/// panel with the scalar kernel, then fold the remaining rows with one GEMM
/// per panel. This is the multi-RHS fast path the hierarchical solver uses
/// for its leaf solves (`L Y = U` with `s` right-hand sides at once); for a
/// single column it degenerates to roughly the scalar kernel.
///
/// The result is the exact same triangular solve as [`trsm_left`], but the
/// accumulation order differs (GEMM-blocked instead of scalar), so outputs
/// may differ in the last bits.
pub fn trsm_left_blocked<T: Scalar>(
    tri: Triangle,
    transpose: bool,
    t: &DenseMatrix<T>,
    b: &mut DenseMatrix<T>,
) {
    let n = t.rows();
    assert_eq!(t.cols(), n, "triangular matrix must be square");
    assert_eq!(b.rows(), n, "rhs row mismatch");
    if n <= TRSM_NB || b.cols() == 0 {
        return trsm_left(tri, transpose, t, b);
    }
    // Effective triangle after an optional transpose (forward vs backward).
    let lower_effective = match (tri, transpose) {
        (Triangle::Lower, false) | (Triangle::Upper, true) => true,
        (Triangle::Upper, false) | (Triangle::Lower, true) => false,
    };
    let r = b.cols();
    let panels = n.div_ceil(TRSM_NB);
    // The GEMM operands are gathered into the thread's factorization
    // scratch, so a solve sweep's triangular solves do not allocate.
    T::with_factor_scratch(|stash| {
        for idx in 0..panels {
            let p = if lower_effective {
                idx
            } else {
                panels - 1 - idx
            };
            let (k0, k1) = (p * TRSM_NB, ((p + 1) * TRSM_NB).min(n));
            // Solve the diagonal panel with the scalar kernel.
            trsm_diagonal_block(tri, transpose, t, k0..k1, b);
            // Fold the solved panel out of the not-yet-solved rows with one GEMM.
            let (u0, u1) = if lower_effective { (k1, n) } else { (0, k0) };
            if u0 == u1 {
                continue;
            }
            let panel = gather_rows(cols(b, 0..r), k0..k1, stash.pop().unwrap_or_default());
            // op(T)[u0..u1, k0..k1]: stored block for the no-transpose case,
            // the mirrored block driven through GEMM's transpose flag
            // otherwise.
            let (coef, op) = if transpose {
                (cols(t, u0..u1), Transpose::Yes)
            } else {
                (cols(t, k0..k1), Transpose::No)
            };
            let rows = if transpose { k0..k1 } else { u0..u1 };
            let coef = gather_rows(coef, rows, stash.pop().unwrap_or_default());
            let mut trailing = gather_rows(cols(b, 0..r), u0..u1, stash.pop().unwrap_or_default());
            gemm(
                -T::one(),
                &coef,
                op,
                &panel,
                Transpose::No,
                T::one(),
                &mut trailing,
            );
            for j in 0..r {
                b.col_mut(j)[u0..u1].copy_from_slice(trailing.col(j));
            }
            stash.extend([trailing, coef, panel].map(DenseMatrix::into_vec));
        }
    });
}

/// Columns `c` of `m`, as slices.
fn cols<T: Scalar>(m: &DenseMatrix<T>, c: Range<usize>) -> impl Iterator<Item = &[T]> + '_ {
    c.map(|j| m.col(j))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::matmul;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_triangular(n: usize, lower: bool, seed: u64) -> DenseMatrix<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = DenseMatrix::<f64>::random_uniform(n, n, &mut rng);
        for i in 0..n {
            // Make strongly diagonally dominant so solves are well conditioned.
            t[(i, i)] = 3.0 + t[(i, i)].abs();
            for j in 0..n {
                if (lower && j > i) || (!lower && j < i) {
                    t[(i, j)] = 0.0;
                }
            }
        }
        t
    }

    #[test]
    fn lower_solve_roundtrip() {
        let n = 12;
        let l = random_triangular(n, true, 31);
        let mut rng = StdRng::seed_from_u64(32);
        let x = DenseMatrix::<f64>::random_uniform(n, 4, &mut rng);
        let b = matmul(&l, &x);
        let mut sol = b.clone();
        trsm_left(Triangle::Lower, false, &l, &mut sol);
        assert!(sol.sub(&x).norm_max() < 1e-10);
    }

    #[test]
    fn upper_solve_roundtrip() {
        let n = 9;
        let u = random_triangular(n, false, 33);
        let mut rng = StdRng::seed_from_u64(34);
        let x = DenseMatrix::<f64>::random_uniform(n, 3, &mut rng);
        let b = matmul(&u, &x);
        let mut sol = b.clone();
        trsm_left(Triangle::Upper, false, &u, &mut sol);
        assert!(sol.sub(&x).norm_max() < 1e-10);
    }

    #[test]
    fn transposed_solves() {
        let n = 10;
        let l = random_triangular(n, true, 35);
        let mut rng = StdRng::seed_from_u64(36);
        let x = DenseMatrix::<f64>::random_uniform(n, 2, &mut rng);
        // L^T x = b  => solve with (Lower, transpose=true)
        let b = matmul(&l.transpose(), &x);
        let mut sol = b.clone();
        trsm_left(Triangle::Lower, true, &l, &mut sol);
        assert!(sol.sub(&x).norm_max() < 1e-10);
    }

    #[test]
    fn trsv_matches_trsm() {
        let n = 8;
        let u = random_triangular(n, false, 37);
        let mut rng = StdRng::seed_from_u64(38);
        let x = DenseMatrix::<f64>::random_uniform(n, 1, &mut rng);
        let b = matmul(&u, &x);
        let mut v = b.col(0).to_vec();
        trsv(Triangle::Upper, false, &u, &mut v);
        for i in 0..n {
            assert!((v[i] - x[(i, 0)]).abs() < 1e-10);
        }
    }

    #[test]
    fn triangular_inverse() {
        let n = 7;
        let l = random_triangular(n, true, 39);
        let inv = tri_inverse(Triangle::Lower, &l);
        let prod = matmul(&l, &inv);
        let eye = DenseMatrix::<f64>::identity(n);
        assert!(prod.sub(&eye).norm_max() < 1e-10);
    }

    #[test]
    fn blocked_matches_scalar_for_all_variants() {
        let n = 150; // forces multiple panels (TRSM_NB = 64)
        let mut rng = StdRng::seed_from_u64(40);
        let x = DenseMatrix::<f64>::random_uniform(n, 5, &mut rng);
        for (lower, transpose) in [(true, false), (true, true), (false, false), (false, true)] {
            let t = random_triangular(n, lower, 41 + u64::from(lower) + 2 * u64::from(transpose));
            let tri = if lower {
                Triangle::Lower
            } else {
                Triangle::Upper
            };
            let opt = if transpose { t.transpose() } else { t.clone() };
            let b = matmul(&opt, &x);
            let mut scalar_sol = b.clone();
            trsm_left(tri, transpose, &t, &mut scalar_sol);
            let mut blocked_sol = b.clone();
            trsm_left_blocked(tri, transpose, &t, &mut blocked_sol);
            assert!(
                blocked_sol.sub(&x).norm_max() < 1e-9,
                "blocked solve wrong for lower={lower} transpose={transpose}"
            );
            assert!(
                blocked_sol.sub(&scalar_sol).norm_max() < 1e-10,
                "blocked vs scalar drift for lower={lower} transpose={transpose}"
            );
            // The panel solve runs in place on `t[k0..k1, k0..k1]` and rows
            // `k0..k1` of `b`: the same bits as solving copies of the two.
            let forward = lower != transpose;
            let mut by_copy = b.clone();
            let mut panels: Vec<usize> = (0..n).step_by(TRSM_NB).collect();
            if !forward {
                panels.reverse();
            }
            for k0 in panels {
                let k1 = (k0 + TRSM_NB).min(n);
                let mut panel = by_copy.block(k0, k1, 0, 5);
                trsm_left(tri, transpose, &t.block(k0, k1, k0, k1), &mut panel);
                by_copy.set_block(k0, 0, &panel);
                let (u0, u1) = if forward { (k1, n) } else { (0, k0) };
                let coef = opt.block(u0, u1, k0, k1);
                let mut trailing = by_copy.block(u0, u1, 0, 5);
                gemm(
                    -1.0,
                    &coef,
                    Transpose::No,
                    &panel,
                    Transpose::No,
                    1.0,
                    &mut trailing,
                );
                by_copy.set_block(u0, 0, &trailing);
            }
            assert_eq!(blocked_sol.data(), by_copy.data());
        }
    }

    #[test]
    fn blocked_small_matrix_delegates_to_scalar() {
        let l = random_triangular(10, true, 47);
        let mut rng = StdRng::seed_from_u64(48);
        let x = DenseMatrix::<f64>::random_uniform(10, 2, &mut rng);
        let b = matmul(&l, &x);
        let mut sol = b.clone();
        trsm_left_blocked(Triangle::Lower, false, &l, &mut sol);
        let mut reference = b;
        trsm_left(Triangle::Lower, false, &l, &mut reference);
        // Small orders fall through to the scalar kernel: bit-identical.
        assert_eq!(sol.data(), reference.data());
    }

    #[test]
    #[should_panic]
    fn zero_diagonal_panics() {
        let mut l = DenseMatrix::<f64>::identity(3);
        l[(1, 1)] = 0.0;
        let mut b = DenseMatrix::<f64>::identity(3);
        trsm_left(Triangle::Lower, false, &l, &mut b);
    }
}
