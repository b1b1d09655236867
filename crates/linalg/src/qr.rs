//! Householder QR and column-pivoted (rank-revealing) QR.
//!
//! The pivoted factorization is the Rust stand-in for LAPACK's `GEQP3`, which
//! GOFMM uses inside skeletonization: the first `s` pivot columns become the
//! skeleton, and the interpolation coefficients come from a triangular solve
//! with the leading `s x s` block of `R` (see `crate::id`).

use crate::blas::{gemm, Transpose};
use crate::matrix::DenseMatrix;
use crate::scalar::Scalar;

/// Result of an (optionally pivoted) Householder QR factorization.
///
/// The Householder vectors are stored below the diagonal of `factors` and the
/// upper triangle holds `R`, exactly like LAPACK's compact representation.
#[derive(Clone, Debug)]
pub struct QrFactors<T: Scalar> {
    factors: DenseMatrix<T>,
    tau: Vec<T>,
    /// `pivots[k]` is the original column index that ended up in position `k`.
    pivots: Vec<usize>,
    /// Numerical rank detected during factorization (= number of Householder
    /// steps actually performed).
    rank: usize,
    /// Largest (downdated) column norm among the candidates left when
    /// pivoting stopped — the classical estimate of `sigma_{rank+1}`; zero
    /// when every column was consumed.
    next_norm: f64,
    /// True when pivoting stopped at the `max_rank` cap while the next
    /// candidate was still above the stopping threshold: the rank budget,
    /// not the tolerance, decided the rank.
    rank_capped: bool,
}

/// Termination options for the pivoted QR.
#[derive(Clone, Copy, Debug)]
pub struct QrOptions {
    /// Stop after this many pivots (maximum rank). `usize::MAX` = no cap.
    pub max_rank: usize,
    /// Stop when the largest remaining column norm falls below
    /// `rel_tol * (largest initial column norm)`. `0.0` disables the test.
    pub rel_tol: f64,
    /// Stop when the largest remaining column norm falls below this absolute
    /// threshold. `0.0` disables the test.
    pub abs_tol: f64,
}

impl Default for QrOptions {
    fn default() -> Self {
        Self {
            max_rank: usize::MAX,
            rel_tol: 0.0,
            abs_tol: 0.0,
        }
    }
}

impl QrOptions {
    /// Convenience constructor for an adaptive-rank factorization.
    pub fn adaptive(max_rank: usize, rel_tol: f64) -> Self {
        Self {
            max_rank,
            rel_tol,
            abs_tol: 0.0,
        }
    }
}

impl<T: Scalar> QrFactors<T> {
    /// The compact LAPACK-style factor storage: Householder vectors below
    /// the diagonal, `R` on and above it.
    pub fn compact(&self) -> &DenseMatrix<T> {
        &self.factors
    }

    /// The Householder scalar coefficients, one per reflection.
    pub fn tau(&self) -> &[T] {
        &self.tau
    }

    /// Number of rows of the factored matrix.
    pub fn rows(&self) -> usize {
        self.factors.rows()
    }

    /// Number of columns of the factored matrix.
    pub fn cols(&self) -> usize {
        self.factors.cols()
    }

    /// Detected numerical rank (number of Householder reflections).
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Largest remaining (downdated) column norm when pivoting stopped: the
    /// classical estimate of `sigma_{rank+1}`, i.e. the magnitude of the
    /// first rejected pivot. Zero when every column was consumed.
    pub fn next_pivot_norm(&self) -> f64 {
        self.next_norm
    }

    /// True when pivoting stopped at the `max_rank` cap with the next
    /// candidate still above the stopping threshold — the rank budget, not
    /// the adaptive tolerance, decided the rank.
    pub fn rank_capped(&self) -> bool {
        self.rank_capped
    }

    /// Column pivot permutation: position `k` holds original column `pivots[k]`.
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// The upper-trapezoidal factor `R` restricted to the detected rank
    /// (`rank x cols`).
    pub fn r(&self) -> DenseMatrix<T> {
        let k = self.rank;
        DenseMatrix::from_fn(k, self.cols(), |i, j| {
            if j >= i {
                self.factors.get(i, j)
            } else {
                T::zero()
            }
        })
    }

    /// Leading `rank x rank` upper-triangular block `R11`.
    pub fn r11(&self) -> DenseMatrix<T> {
        let k = self.rank;
        DenseMatrix::from_fn(k, k, |i, j| {
            if j >= i {
                self.factors.get(i, j)
            } else {
                T::zero()
            }
        })
    }

    /// Trailing `rank x (cols - rank)` block `R12`.
    pub fn r12(&self) -> DenseMatrix<T> {
        let k = self.rank;
        DenseMatrix::from_fn(k, self.cols() - k, |i, j| self.factors.get(i, k + j))
    }

    /// Diagonal of `R` (absolute values monotonically decreasing for the
    /// pivoted factorization); `|R[k,k]|` estimates the `k+1`-st singular value.
    pub fn r_diag(&self) -> Vec<T> {
        (0..self.rank).map(|i| self.factors.get(i, i)).collect()
    }

    /// Form the thin orthogonal factor `Q` (`rows x rank`) explicitly.
    pub fn q_thin(&self) -> DenseMatrix<T> {
        let m = self.rows();
        let k = self.rank;
        let mut q = DenseMatrix::zeros(m, k);
        for j in 0..k {
            q.set(j, j, T::one());
        }
        self.apply_q(&mut q);
        q
    }

    /// Apply the stored Householder reflections to `b` in place: steps
    /// `0..rank` in order for `Q^T` (`forward`), in reverse for `Q`. The one
    /// place the compact-representation conventions (implicit `v[step] = 1`,
    /// `tau == 0` skip) live. Both the reflector and the updated column are
    /// contiguous column slices, so the reduction and the rank-1 update run
    /// through the dispatched dot/axpy kernels. Its callers: the two-pass
    /// form of [`crate::ulv::rotate_symmetric`] (blocks below
    /// `ROTATE_WY_MIN_ORDER`), [`QrFactors::q_thin`] (and with it
    /// [`truncate_low_rank`] and the ID), and [`QlFactors`]. The ULV solves
    /// apply [`crate::ulv::WyRotation`] instead, which runs these same steps
    /// on its stored blocks below `SOLVE_WY_MIN_ORDER`.
    fn apply_reflections(&self, b: &mut DenseMatrix<T>, transpose: bool) {
        assert_eq!(b.rows(), self.rows());
        let m = self.rows();
        for idx in 0..self.rank {
            let step = if transpose { idx } else { self.rank - 1 - idx };
            let tau = self.tau[step];
            if tau == T::zero() {
                continue;
            }
            // v = [1, factors[step+1.., step]]
            let v = &self.factors.col(step)[step + 1..m];
            for j in 0..b.cols() {
                let bj = b.col_mut(j);
                let dotv = bj[step] + T::dot_kernel(v, &bj[step + 1..m]);
                let s = tau * dotv;
                bj[step] -= s;
                T::axpy_kernel(-s, v, &mut bj[step + 1..m]);
            }
        }
    }

    /// Apply `Q^T` to a matrix `B` in place (`B <- Q^T B`), using the compact
    /// Householder representation. `B` must have `rows()` rows.
    pub fn apply_qt(&self, b: &mut DenseMatrix<T>) {
        self.apply_reflections(b, true);
    }

    /// Apply `Q` to a matrix `B` in place (`B <- Q B`), using the compact
    /// Householder representation. `B` must have `rows()` rows. This is the
    /// inverse rotation of [`QrFactors::apply_qt`]: the backward-substitution
    /// half of a ULV solve maps rotated local solutions back to original
    /// coordinates with it.
    pub fn apply_q(&self, b: &mut DenseMatrix<T>) {
        self.apply_reflections(b, false);
    }

    /// Reconstruct (an approximation of) the original matrix `A * P` where `P`
    /// is the pivot permutation: `Q * R`. Mostly used by tests.
    pub fn reconstruct_pivoted(&self) -> DenseMatrix<T> {
        let q = self.q_thin();
        let r = self.r();
        let mut out = DenseMatrix::zeros(self.rows(), self.cols());
        gemm(
            T::one(),
            &q,
            Transpose::No,
            &r,
            Transpose::No,
            T::zero(),
            &mut out,
        );
        out
    }
}

/// Column-pivoted Householder QR with optional early termination.
///
/// Mirrors `xGEQP3` behaviour: at every step the remaining column with the
/// largest partial norm is swapped to the front. Early termination happens
/// when either `opts.max_rank` pivots have been produced or the largest
/// remaining column norm drops below the requested tolerance — this is exactly
/// the adaptive-rank criterion GOFMM uses (`sigma_{s+1} < tau`).
pub fn pivoted_qr<T: Scalar>(a: &DenseMatrix<T>, opts: QrOptions) -> QrFactors<T> {
    let m = a.rows();
    let n = a.cols();
    let mut f = a.clone();
    let kmax = m.min(n).min(opts.max_rank);
    let mut tau = Vec::with_capacity(kmax);
    let mut pivots: Vec<usize> = (0..n).collect();

    // Partial column norms, updated (downdated) after every reflection.
    let mut colnorm: Vec<T> = (0..n).map(|j| crate::blas::nrm2(f.col(j))).collect();
    let mut colnorm_ref = colnorm.clone();
    let norm0 = colnorm
        .iter()
        .fold(T::zero(), |acc, v| acc.max(*v))
        .to_f64();

    let mut rank = 0usize;
    for k in 0..kmax {
        // Pivot: column with largest remaining norm.
        let (jmax, &vmax) = colnorm[k..]
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(idx, v)| (idx + k, v))
            .unwrap();
        let vmax_f = vmax.to_f64();
        if (opts.rel_tol > 0.0 && vmax_f <= opts.rel_tol * norm0)
            || (opts.abs_tol > 0.0 && vmax_f <= opts.abs_tol)
            || vmax_f == 0.0
        {
            break;
        }
        if jmax != k {
            // Swap columns k and jmax (jmax > k) plus bookkeeping.
            let (lo, hi) = f.data_mut().split_at_mut(jmax * m);
            lo[k * m..(k + 1) * m].swap_with_slice(&mut hi[..m]);
            colnorm.swap(k, jmax);
            colnorm_ref.swap(k, jmax);
            pivots.swap(k, jmax);
        }

        // Householder reflector for column k, rows k..m.
        let alpha = f.get(k, k);
        let normx = {
            let x = &f.col(k)[k..m];
            T::dot_kernel(x, x).sqrt()
        };
        if normx == T::zero() {
            tau.push(T::zero());
            rank = k + 1;
            continue;
        }
        let beta = if alpha.to_f64() >= 0.0 { -normx } else { normx };
        let tau_k = (beta - alpha) / beta;
        let scale = T::one() / (alpha - beta);
        // v = [1, x_{k+1..m} * scale], stored below the diagonal.
        for v in &mut f.col_mut(k)[k + 1..m] {
            *v *= scale;
        }
        f.set(k, k, beta);
        tau.push(tau_k);

        // Apply reflector to trailing columns: A_j -= tau * v (v^T A_j),
        // one dispatched dot + axpy per column via a split borrow.
        for j in (k + 1)..n {
            let (ck, cj) = f.two_cols_mut(k, j);
            let v = &ck[k + 1..m];
            let dotv = cj[k] + T::dot_kernel(v, &cj[k + 1..m]);
            let s = tau_k * dotv;
            cj[k] -= s;
            T::axpy_kernel(-s, v, &mut cj[k + 1..m]);
        }

        // Downdate partial column norms (LAPACK's safeguarded update).
        for j in (k + 1)..n {
            if colnorm[j] == T::zero() {
                continue;
            }
            let r = f.get(k, j) / colnorm[j];
            let temp = (T::one() - r * r).max(T::zero());
            let ratio = colnorm[j] / colnorm_ref[j];
            let temp2 = temp * ratio * ratio;
            if temp2.to_f64() <= 1e-7 {
                // Recompute the norm from scratch to avoid cancellation.
                let x = &f.col(j)[k + 1..m];
                colnorm[j] = T::dot_kernel(x, x).sqrt();
                colnorm_ref[j] = colnorm[j];
            } else {
                colnorm[j] *= temp.sqrt();
            }
        }
        rank = k + 1;
    }

    // Estimate of the first rejected pivot: the largest downdated norm among
    // the columns pivoting never consumed.
    let next_norm = if rank < n {
        colnorm[rank..]
            .iter()
            .fold(T::zero(), |acc, v| acc.max(*v))
            .to_f64()
    } else {
        0.0
    };
    let threshold = (opts.rel_tol * norm0).max(opts.abs_tol);
    // Cap-decided only when the cap (not row/column exhaustion) ended the
    // loop and the tolerance criterion was still unmet.
    let rank_capped = rank == opts.max_rank && rank < m.min(n) && next_norm > threshold;

    QrFactors {
        factors: f,
        tau,
        pivots,
        rank,
        next_norm,
        rank_capped,
    }
}

/// Unpivoted Householder QR (full factorization, rank = min(m, n)).
///
/// The ULV factorization compresses every rotated node's outgoing basis
/// with it, and [`householder_ql`] is built on it.
pub fn householder_qr<T: Scalar>(a: &DenseMatrix<T>) -> QrFactors<T> {
    pivoted_qr_nopivot(a)
}

fn pivoted_qr_nopivot<T: Scalar>(a: &DenseMatrix<T>) -> QrFactors<T> {
    // Same kernel as pivoted_qr but with pivoting disabled so column order is
    // preserved. Kept separate to avoid branching in the hot loop above.
    let m = a.rows();
    let n = a.cols();
    let mut f = a.clone();
    let kmax = m.min(n);
    let mut tau = Vec::with_capacity(kmax);
    let pivots: Vec<usize> = (0..n).collect();
    for k in 0..kmax {
        let normx = {
            let x = &f.col(k)[k..m];
            T::dot_kernel(x, x).sqrt()
        };
        if normx == T::zero() {
            tau.push(T::zero());
            continue;
        }
        let alpha = f.get(k, k);
        let beta = if alpha.to_f64() >= 0.0 { -normx } else { normx };
        let tau_k = (beta - alpha) / beta;
        let scale = T::one() / (alpha - beta);
        for v in &mut f.col_mut(k)[k + 1..m] {
            *v *= scale;
        }
        f.set(k, k, beta);
        tau.push(tau_k);
        for j in (k + 1)..n {
            let (ck, cj) = f.two_cols_mut(k, j);
            let v = &ck[k + 1..m];
            let dotv = cj[k] + T::dot_kernel(v, &cj[k + 1..m]);
            let s = tau_k * dotv;
            cj[k] -= s;
            T::axpy_kernel(-s, v, &mut cj[k + 1..m]);
        }
    }
    QrFactors {
        factors: f,
        tau,
        pivots,
        rank: kmax,
        next_norm: 0.0,
        rank_capped: false,
    }
}

/// Result of a Householder QL factorization `A = Q L`, where `L` is
/// lower-trapezoidal occupying the *bottom* `min(m, n)` rows: `Q^T A` has
/// zeros in the leading `m - n` rows. This is the classical shape of the ULV
/// basis compression (`Q^T U = [0; L~]`), dual to the QR shape `[R~; 0]`.
///
/// Implemented as a QR factorization of the row- and column-reversed matrix;
/// the reversal is folded into [`QlFactors::apply_q`]/[`QlFactors::apply_qt`],
/// so applying the rotation costs the same as the QR form.
#[derive(Clone, Debug)]
pub struct QlFactors<T: Scalar> {
    /// QR factors of `J_m A J_n` (`J` = index reversal).
    flipped: QrFactors<T>,
    cols: usize,
}

/// Reverse the row order of `b` in place.
fn flip_rows<T: Scalar>(b: &mut DenseMatrix<T>) {
    for j in 0..b.cols() {
        b.col_mut(j).reverse();
    }
}

impl<T: Scalar> QlFactors<T> {
    /// Number of rows of the factored matrix.
    pub fn rows(&self) -> usize {
        self.flipped.rows()
    }

    /// Number of columns of the factored matrix.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The lower-trapezoidal factor `L` (`rows x cols`, nonzeros confined to
    /// the bottom `min(rows, cols)` rows with `L[i, j] = 0` for
    /// `j > i - (rows - cols)`).
    pub fn l(&self) -> DenseMatrix<T> {
        // L = J_m R' J_n where R' is the upper-trapezoidal factor of the
        // flipped matrix (padded back to full height).
        let m = self.rows();
        let n = self.cols;
        let r = self.flipped.r();
        let k = r.rows();
        DenseMatrix::from_fn(m, n, |i, j| {
            let fi = m - 1 - i;
            let fj = n - 1 - j;
            if fi < k {
                r.get(fi, fj)
            } else {
                T::zero()
            }
        })
    }

    /// Apply `Q^T` in place (`B <- Q^T B`).
    pub fn apply_qt(&self, b: &mut DenseMatrix<T>) {
        flip_rows(b);
        self.flipped.apply_qt(b);
        flip_rows(b);
    }

    /// Apply `Q` in place (`B <- Q B`).
    pub fn apply_q(&self, b: &mut DenseMatrix<T>) {
        flip_rows(b);
        self.flipped.apply_q(b);
        flip_rows(b);
    }
}

/// Unpivoted Householder QL factorization `A = Q L` (see [`QlFactors`]).
///
/// Together with [`householder_qr`] this gives both elimination orders for
/// ULV-style basis compression: QR zeroes the trailing rows of the rotated
/// basis (eliminate the *trailing* block), QL zeroes the leading rows
/// (eliminate the *leading* block).
pub fn householder_ql<T: Scalar>(a: &DenseMatrix<T>) -> QlFactors<T> {
    let m = a.rows();
    let n = a.cols();
    let flipped_in = DenseMatrix::from_fn(m, n, |i, j| a.get(m - 1 - i, n - 1 - j));
    QlFactors {
        flipped: householder_qr(&flipped_in),
        cols: n,
    }
}

/// A rank-`k` two-factor approximation `A ≈ left * right` with `left` of
/// shape `m × k` and `right` of shape `k × n`, produced by
/// [`truncate_low_rank`]. Unlike [`QrFactors`], the `right` factor is stored
/// in the *original* column order (the pivot permutation is already undone),
/// so `left * right` approximates `A` directly.
#[derive(Clone, Debug)]
pub struct LowRankFactors<T: Scalar> {
    /// Orthonormal column basis, `m × k` (the thin Q of the pivoted QR).
    pub left: DenseMatrix<T>,
    /// Coefficients in original column order, `k × n` (the unpivoted R).
    pub right: DenseMatrix<T>,
}

impl<T: Scalar> LowRankFactors<T> {
    /// The truncation rank `k`.
    pub fn rank(&self) -> usize {
        self.left.cols()
    }

    /// Stored values of both factors: `k * (m + n)` scalars. Compare against
    /// the dense `m * n` to decide whether the truncation actually shrinks.
    pub fn stored_values(&self) -> usize {
        self.left.rows() * self.left.cols() + self.right.rows() * self.right.cols()
    }

    /// Dense reconstruction `left * right` (tests and diagnostics).
    pub fn reconstruct(&self) -> DenseMatrix<T> {
        let mut out = DenseMatrix::zeros(self.left.rows(), self.right.cols());
        gemm(
            T::one(),
            &self.left,
            Transpose::No,
            &self.right,
            Transpose::No,
            T::zero(),
            &mut out,
        );
        out
    }
}

/// Rank-truncate `a` with a column-pivoted QR: `A ≈ left * right` where
/// `left` is the thin orthonormal Q and `right` is R carried back to the
/// original column order (`right[:, pivots[j]] = R[:, j]`). The rank is
/// chosen by [`pivoted_qr`]'s adaptive criterion under `opts` — columns stop
/// being pivoted once the largest remaining partial norm drops below
/// `rel_tol * max_initial_column_norm` (or `abs_tol`), so the truncation
/// error is on the order of [`QrFactors::next_pivot_norm`].
///
/// A rank of zero (every column below the tolerance) yields empty factors;
/// callers typically replace the block with nothing at all in that case.
pub fn truncate_low_rank<T: Scalar>(a: &DenseMatrix<T>, opts: QrOptions) -> LowRankFactors<T> {
    let qr = pivoted_qr(a, opts);
    let k = qr.rank();
    let left = qr.q_thin();
    let r = qr.r();
    let mut right = DenseMatrix::zeros(k, a.cols());
    for j in 0..a.cols() {
        let dst = qr.pivots()[j];
        for i in 0..k {
            right.set(i, dst, r.get(i, j));
        }
    }
    LowRankFactors { left, right }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{matmul, matmul_tn};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn permute_cols(a: &DenseMatrix<f64>, pivots: &[usize]) -> DenseMatrix<f64> {
        a.select_cols(pivots)
    }

    #[test]
    fn full_rank_reconstruction() {
        let mut rng = StdRng::seed_from_u64(21);
        let a = DenseMatrix::<f64>::random_uniform(20, 12, &mut rng);
        let qr = pivoted_qr(&a, QrOptions::default());
        assert_eq!(qr.rank(), 12);
        let recon = qr.reconstruct_pivoted();
        let ap = permute_cols(&a, qr.pivots());
        assert!(recon.sub(&ap).norm_max() < 1e-10);
    }

    #[test]
    fn q_is_orthonormal() {
        let mut rng = StdRng::seed_from_u64(22);
        let a = DenseMatrix::<f64>::random_uniform(30, 10, &mut rng);
        let qr = pivoted_qr(&a, QrOptions::default());
        let q = qr.q_thin();
        let qtq = matmul_tn(&q, &q);
        let eye = DenseMatrix::<f64>::identity(10);
        assert!(qtq.sub(&eye).norm_max() < 1e-12);
    }

    #[test]
    fn low_rank_matrix_detected() {
        let mut rng = StdRng::seed_from_u64(23);
        // Rank-5 matrix: A = U V^T
        let u = DenseMatrix::<f64>::random_uniform(40, 5, &mut rng);
        let v = DenseMatrix::<f64>::random_uniform(30, 5, &mut rng);
        let a = crate::blas::matmul_nt(&u, &v);
        let qr = pivoted_qr(&a, QrOptions::adaptive(usize::MAX, 1e-10));
        assert_eq!(qr.rank(), 5, "rank detected {}", qr.rank());
        let recon = qr.reconstruct_pivoted();
        let ap = permute_cols(&a, qr.pivots());
        assert!(recon.sub(&ap).norm_max() < 1e-9);
    }

    #[test]
    fn max_rank_truncation() {
        let mut rng = StdRng::seed_from_u64(24);
        let a = DenseMatrix::<f64>::random_uniform(25, 25, &mut rng);
        let qr = pivoted_qr(
            &a,
            QrOptions {
                max_rank: 7,
                ..Default::default()
            },
        );
        assert_eq!(qr.rank(), 7);
        assert_eq!(qr.r().rows(), 7);
        assert_eq!(qr.r11().rows(), 7);
        assert_eq!(qr.r12().cols(), 18);
    }

    #[test]
    fn pivot_diagonal_is_decreasing() {
        let mut rng = StdRng::seed_from_u64(25);
        let a = DenseMatrix::<f64>::random_uniform(30, 20, &mut rng);
        let qr = pivoted_qr(&a, QrOptions::default());
        let d = qr.r_diag();
        for w in d.windows(2) {
            assert!(
                w[0].abs() >= w[1].abs() - 1e-12,
                "diagonal not decreasing: {} then {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn unpivoted_qr_reconstructs() {
        let mut rng = StdRng::seed_from_u64(26);
        let a = DenseMatrix::<f64>::random_uniform(15, 15, &mut rng);
        let qr = householder_qr(&a);
        let q = qr.q_thin();
        let r = qr.r();
        let recon = matmul(&q, &r);
        assert!(recon.sub(&a).norm_max() < 1e-11);
        // pivots are identity
        assert_eq!(qr.pivots(), (0..15).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn apply_qt_matches_explicit() {
        let mut rng = StdRng::seed_from_u64(27);
        let a = DenseMatrix::<f64>::random_uniform(18, 6, &mut rng);
        let b = DenseMatrix::<f64>::random_uniform(18, 3, &mut rng);
        let qr = pivoted_qr(&a, QrOptions::default());
        let mut b1 = b.clone();
        qr.apply_qt(&mut b1);
        // Explicit: full Q is 18x6 thin here, so compare only the first 6 rows.
        let q = qr.q_thin();
        let expect = matmul_tn(&q, &b);
        for i in 0..6 {
            for j in 0..3 {
                assert!((b1[(i, j)] - expect[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn apply_q_inverts_apply_qt() {
        let mut rng = StdRng::seed_from_u64(61);
        let a = DenseMatrix::<f64>::random_uniform(16, 7, &mut rng);
        let b = DenseMatrix::<f64>::random_uniform(16, 4, &mut rng);
        let qr = pivoted_qr(&a, QrOptions::default());
        let mut roundtrip = b.clone();
        qr.apply_qt(&mut roundtrip);
        qr.apply_q(&mut roundtrip);
        assert!(roundtrip.sub(&b).norm_max() < 1e-12);
        // Q R reconstructs A P through apply_q as well.
        let mut qr_full = DenseMatrix::<f64>::zeros(16, 7);
        qr_full.set_block(0, 0, &qr.r());
        qr.apply_q(&mut qr_full);
        assert!(qr_full.sub(&a.select_cols(qr.pivots())).norm_max() < 1e-10);
    }

    #[test]
    fn ql_zeroes_leading_rows_and_reconstructs() {
        let mut rng = StdRng::seed_from_u64(62);
        for (m, n) in [(18, 6), (10, 10), (9, 0)] {
            let a = DenseMatrix::<f64>::random_uniform(m, n, &mut rng);
            let ql = householder_ql(&a);
            assert_eq!((ql.rows(), ql.cols()), (m, n));
            let l = ql.l();
            // Q^T A = L: leading m - n rows of the rotated matrix vanish and
            // the bottom block is lower triangular.
            let mut rotated = a.clone();
            ql.apply_qt(&mut rotated);
            assert!(rotated.sub(&l).norm_max() < 1e-10);
            // Zero strictly above the bottom-aligned trapezoid
            // (nonzeros only where j <= i - (m - n)).
            for i in 0..m {
                for j in 0..n {
                    if i + n < m + j {
                        assert_eq!(l.get(i, j), 0.0, "L[{i},{j}] above the trapezoid");
                    }
                }
            }
            // Q L reconstructs A.
            let mut recon = l.clone();
            ql.apply_q(&mut recon);
            assert!(recon.sub(&a).norm_max() < 1e-10);
            // The rotation is orthogonal: Q^T Q b = b.
            let b = DenseMatrix::<f64>::random_uniform(m, 2, &mut rng);
            let mut rt = b.clone();
            ql.apply_q(&mut rt);
            ql.apply_qt(&mut rt);
            assert!(rt.sub(&b).norm_max() < 1e-12);
        }
    }

    #[test]
    fn adaptive_tolerance_on_decaying_singular_values() {
        // Diagonal matrix with geometric decay: rank at tolerance 1e-3 should
        // cut where the diagonal crosses 1e-3 relative to the largest.
        let n = 20;
        let a =
            DenseMatrix::<f64>::from_fn(
                n,
                n,
                |i, j| {
                    if i == j {
                        (0.5f64).powi(i as i32)
                    } else {
                        0.0
                    }
                },
            );
        let qr = pivoted_qr(&a, QrOptions::adaptive(usize::MAX, 1e-3));
        // 0.5^k < 1e-3 at k = 10
        assert!(qr.rank() >= 9 && qr.rank() <= 11, "rank {}", qr.rank());
    }

    #[test]
    fn works_in_single_precision() {
        let mut rng = StdRng::seed_from_u64(28);
        let a = DenseMatrix::<f32>::random_uniform(20, 10, &mut rng);
        let qr = pivoted_qr(&a, QrOptions::default());
        let recon = qr.reconstruct_pivoted();
        let ap = a.select_cols(qr.pivots());
        assert!(recon.sub(&ap).norm_max() < 1e-4);
    }

    #[test]
    fn truncate_low_rank_recovers_exact_low_rank_matrix() {
        // A = u * v^T has rank 2; the truncation must reconstruct it to
        // roundoff with exactly rank 2 and undo the pivot permutation.
        let mut rng = StdRng::seed_from_u64(91);
        let u = DenseMatrix::<f64>::random_gaussian(24, 2, &mut rng);
        let v = DenseMatrix::<f64>::random_gaussian(17, 2, &mut rng);
        let mut a = DenseMatrix::zeros(24, 17);
        gemm(1.0, &u, Transpose::No, &v, Transpose::Yes, 0.0, &mut a);
        let lr = truncate_low_rank(&a, QrOptions::adaptive(usize::MAX, 1e-12));
        assert_eq!(lr.rank(), 2);
        assert_eq!(lr.stored_values(), 2 * (24 + 17));
        assert!(lr.reconstruct().sub(&a).norm_max() < 1e-10);
    }

    #[test]
    fn truncate_low_rank_error_tracks_tolerance() {
        // Geometric singular-value decay: the truncation error at rel_tol
        // tau must be O(tau) relative to the matrix norm.
        let n = 32;
        let mut rng = StdRng::seed_from_u64(92);
        let q1 = householder_qr(&DenseMatrix::<f64>::random_gaussian(n, n, &mut rng)).q_thin();
        let q2 = householder_qr(&DenseMatrix::<f64>::random_gaussian(n, n, &mut rng)).q_thin();
        let mut scaled = q1.clone();
        for j in 0..n {
            let s = (0.4f64).powi(j as i32);
            for i in 0..n {
                let v = scaled.get(i, j) * s;
                scaled.set(i, j, v);
            }
        }
        let mut a = DenseMatrix::zeros(n, n);
        gemm(
            1.0,
            &scaled,
            Transpose::No,
            &q2,
            Transpose::Yes,
            0.0,
            &mut a,
        );
        for tau in [1e-2, 1e-5, 1e-8] {
            let lr = truncate_low_rank(&a, QrOptions::adaptive(usize::MAX, tau));
            let rel = lr.reconstruct().sub(&a).norm_fro() / a.norm_fro();
            assert!(rel < 40.0 * tau, "tau {tau}: rel error {rel}");
            assert!(lr.rank() < n, "tau {tau}: rank not truncated");
        }
    }

    #[test]
    fn truncate_low_rank_zero_matrix_is_rank_zero() {
        let a = DenseMatrix::<f64>::zeros(8, 5);
        let lr = truncate_low_rank(&a, QrOptions::adaptive(usize::MAX, 1e-8));
        assert_eq!(lr.rank(), 0);
        assert_eq!(lr.left.rows(), 8);
        assert_eq!(lr.right.cols(), 5);
    }
}
