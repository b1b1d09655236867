//! Householder QR and column-pivoted (rank-revealing) QR.
//!
//! The pivoted factorization is the Rust stand-in for LAPACK's `GEQP3`, which
//! GOFMM uses inside skeletonization: the first `s` pivot columns become the
//! skeleton, and the interpolation coefficients come from a triangular solve
//! with the leading `s x s` block of `R` (see `crate::id`). Its engine,
//! [`PivotedQr`], can be continued where it stopped, so a search over a
//! descending ladder of tolerances factors a matrix once.

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

    /// Apply `Q^T` to a matrix `B` in place (`B <- Q^T B`), using the compact
    /// Householder representation. `B` must have `rows()` rows.
    pub fn apply_qt(&self, b: &mut DenseMatrix<T>) {
        apply_reflectors(&self.factors, &self.tau, b, true);
    }

    /// Apply `Q` to a matrix `B` in place (`B <- Q B`), using the compact
    /// Householder representation. `B` must have `rows()` rows. This is the
    /// inverse rotation of [`QrFactors::apply_qt`]: the backward-substitution
    /// half of a ULV solve maps rotated local solutions back to original
    /// coordinates with it.
    pub fn apply_q(&self, b: &mut DenseMatrix<T>) {
        apply_reflectors(&self.factors, &self.tau, b, false);
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

/// Apply the first `tau.len()` Householder reflections stored below the
/// diagonal of `factors` to `b` in place: steps in order for `Q^T`
/// (`transpose`), in reverse for `Q`. Its callers: [`QrFactors::apply_qt`] /
/// [`QrFactors::apply_q`] (the two-pass form of
/// [`crate::ulv::rotate_symmetric`] below `ROTATE_WY_MIN_ORDER`, and
/// [`QrFactors::q_thin`] with it the ID) and [`PivotedQr::truncation`]. The
/// ULV solves apply [`crate::ulv::WyRotation`] instead, which runs these
/// same steps on its stored blocks below `SOLVE_WY_MIN_ORDER`.
fn apply_reflectors<T: Scalar>(
    factors: &DenseMatrix<T>,
    tau: &[T],
    b: &mut DenseMatrix<T>,
    transpose: bool,
) {
    let m = factors.rows();
    assert_eq!(b.rows(), m);
    let k = tau.len();
    for idx in 0..k {
        let step = if transpose { idx } else { k - 1 - idx };
        let v = &factors.col(step)[step + 1..m];
        for j in 0..b.cols() {
            apply_reflector(tau[step], v, &mut b.col_mut(j)[step..m]);
        }
    }
}

/// Turn `x` into its Householder reflector, LAPACK's compact convention:
/// `x[0]` becomes `beta = -sign(x[0]) ||x||`, `x[1..]` the reflector's tail
/// `v` (its head `v[0] = 1` is implicit), and the return value is `tau`, so
/// that `(I - tau [1; v] [1; v]^T) x = beta e_1`. A zero `x` is left as it
/// is and gets `tau = 0` (no reflection).
fn generate_reflector<T: Scalar>(x: &mut [T]) -> T {
    let normx = T::dot_kernel(x, x).sqrt();
    if normx == T::zero() {
        return T::zero();
    }
    let alpha = x[0];
    let beta = if alpha.to_f64() >= 0.0 { -normx } else { normx };
    let tau = (beta - alpha) / beta;
    let scale = T::one() / (alpha - beta);
    for v in &mut x[1..] {
        *v *= scale;
    }
    x[0] = beta;
    tau
}

/// `y <- (I - tau [1; v] [1; v]^T) y` for a reflector stored in compact
/// form (`y.len() == v.len() + 1`); a zero `tau` leaves `y` untouched. The
/// one place the reflection arithmetic lives: the QR steps apply it to
/// their trailing columns, [`QrFactors::apply_qt`] / `apply_q` and
/// [`crate::ulv::WyRotation`]'s one-reflector path to their operands. `v`
/// and `y` are contiguous column slices, so the reduction and the rank-1
/// update run through the dispatched dot/axpy kernels.
pub(crate) fn apply_reflector<T: Scalar>(tau: T, v: &[T], y: &mut [T]) {
    if tau == T::zero() {
        return;
    }
    let (head, tail) = y.split_first_mut().expect("a reflector acts on rows");
    let s = tau * (*head + T::dot_kernel(v, tail));
    *head -= s;
    T::axpy_kernel(-s, v, tail);
}

/// Householder step `k` of a QR of `f`: the reflector of column `k` from
/// row `k` down (stored there), applied to every column right of it.
/// Returns its `tau`.
fn householder_step<T: Scalar>(f: &mut DenseMatrix<T>, k: usize) -> T {
    let tau = generate_reflector(&mut f.col_mut(k)[k..]);
    for j in (k + 1)..f.cols() {
        let (ck, cj) = f.two_cols_mut(k, j);
        apply_reflector(tau, &ck[k + 1..], &mut cj[k..]);
    }
    tau
}

/// A column-pivoted Householder QR that can be continued where it stopped.
///
/// Mirrors `xGEQP3`: at every step the remaining column with the largest
/// partial norm is swapped to the front, and the factorization stops once
/// `max_rank` pivots exist or that norm falls below the tolerance — the
/// adaptive-rank criterion GOFMM uses (`sigma_{s+1} < tau`). The steps do not
/// depend on where the run stops, so the factorization keeps its working
/// matrix, partial column norms, pivots and the norm each step tested:
/// [`PivotedQr::advance`] continues from the last step and stops exactly
/// where a fresh run with the same options would. [`pivoted_qr`] is one
/// `new` + `advance`; `Evaluator::tune` in `gofmm-core` advances one
/// factorization per panel down its ladder of tolerances.
///
/// [`PivotedQr::truncation`] reads the rank-`k` approximation of any `k` up
/// to the steps taken: later pivot swaps move whole columns at positions
/// `≥ k` and later reflectors touch only rows `≥ k`, so the first `k`
/// reflectors and the rows `< k` of `R` hold the bits of a fresh run stopped
/// at `k`.
#[derive(Clone, Debug)]
pub struct PivotedQr<T: Scalar> {
    /// Householder vectors below the diagonal, `R` on and above it (in the
    /// columns factored so far), the partially reduced trailing block.
    factors: DenseMatrix<T>,
    /// One Householder scalar per step taken.
    tau: Vec<T>,
    /// `pivots[k]` is the original column index now in position `k`.
    pivots: Vec<usize>,
    /// Partial (downdated) column norms, and the norms they were last
    /// recomputed from (LAPACK's safeguard).
    colnorm: Vec<T>,
    colnorm_ref: Vec<T>,
    /// Largest initial column norm: the scale of `rel_tol`.
    norm0: f64,
    /// `tested[k]`: the pivot norm step `k` tested and passed.
    tested: Vec<f64>,
}

impl<T: Scalar> PivotedQr<T> {
    /// Start factoring `a` (no step taken yet).
    pub fn new(a: DenseMatrix<T>) -> Self {
        let colnorm: Vec<T> = (0..a.cols()).map(|j| crate::blas::nrm2(a.col(j))).collect();
        let norm0 = colnorm
            .iter()
            .fold(T::zero(), |acc, v| acc.max(*v))
            .to_f64();
        Self {
            pivots: (0..a.cols()).collect(),
            colnorm_ref: colnorm.clone(),
            colnorm,
            norm0,
            factors: a,
            tau: Vec::new(),
            tested: Vec::new(),
        }
    }

    /// Householder steps taken so far.
    fn steps(&self) -> usize {
        self.tau.len()
    }

    /// Column pivot permutation: position `k` holds original column
    /// `pivots[k]`. Positions below the steps taken are final.
    pub fn pivots(&self) -> &[usize] {
        &self.pivots
    }

    /// Run the steps a fresh factorization under `opts` would take, starting
    /// after the last step taken, and return the rank that run stops at.
    /// When earlier calls already went past it, no step is taken: the rank
    /// is read from the recorded pivot norms.
    pub fn advance(&mut self, opts: QrOptions) -> usize {
        let (m, n) = (self.factors.rows(), self.factors.cols());
        let kmax = m.min(n).min(opts.max_rank);
        let norm0 = self.norm0;
        let stops = |v: f64| {
            (opts.rel_tol > 0.0 && v <= opts.rel_tol * norm0)
                || (opts.abs_tol > 0.0 && v <= opts.abs_tol)
                || v == 0.0
        };
        if let Some(k) = self.tested[..kmax.min(self.steps())]
            .iter()
            .position(|&v| stops(v))
        {
            return k;
        }
        for k in self.steps()..kmax {
            // Pivot: column with largest remaining norm.
            let (jmax, &vmax) = self.colnorm[k..]
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|(idx, v)| (idx + k, v))
                .unwrap();
            let vmax = vmax.to_f64();
            if stops(vmax) {
                return k;
            }
            self.tested.push(vmax);
            self.step(k, jmax);
        }
        kmax
    }

    /// Householder step `k` with pivot column `jmax`.
    fn step(&mut self, k: usize, jmax: usize) {
        let (m, n) = (self.factors.rows(), self.factors.cols());
        let f = &mut self.factors;
        if jmax != k {
            // Swap columns k and jmax (jmax > k) plus bookkeeping.
            let (lo, hi) = f.data_mut().split_at_mut(jmax * m);
            lo[k * m..(k + 1) * m].swap_with_slice(&mut hi[..m]);
            self.colnorm.swap(k, jmax);
            self.colnorm_ref.swap(k, jmax);
            self.pivots.swap(k, jmax);
        }

        let tau = householder_step(f, k);
        self.tau.push(tau);
        if tau == T::zero() {
            return;
        }

        // Downdate partial column norms (LAPACK's safeguarded update).
        let (colnorm, colnorm_ref) = (&mut self.colnorm, &mut self.colnorm_ref);
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
    }

    /// The rank-`k` truncation `A ≈ left * right` (`k` at most the steps
    /// taken, e.g. a rank [`PivotedQr::advance`] returned): `left` is
    /// the thin `Q` of the first `k` reflectors, `right` the first `k` rows of
    /// `R` carried back to the original column order
    /// (`right[:, pivots[j]] = R[:, j]`). Bit for bit what a fresh run
    /// stopped at `k` gives.
    pub fn truncation(&self, k: usize) -> LowRankFactors<T> {
        assert!(k <= self.steps(), "truncation past the steps taken");
        let (m, n) = (self.factors.rows(), self.factors.cols());
        let mut left = DenseMatrix::zeros(m, k);
        for j in 0..k {
            left.set(j, j, T::one());
        }
        apply_reflectors(&self.factors, &self.tau[..k], &mut left, false);
        let mut right = DenseMatrix::zeros(k, n);
        for (j, &dst) in self.pivots.iter().enumerate() {
            for i in 0..k.min(j + 1) {
                right.set(i, dst, self.factors.get(i, j));
            }
        }
        LowRankFactors { left, right }
    }
}

/// Column-pivoted Householder QR with optional early termination: a fresh
/// [`PivotedQr`] advanced once under `opts`.
pub fn pivoted_qr<T: Scalar>(a: &DenseMatrix<T>, opts: QrOptions) -> QrFactors<T> {
    let mut qr = PivotedQr::new(a.clone());
    let rank = qr.advance(opts);
    let PivotedQr {
        factors,
        tau,
        pivots,
        colnorm,
        norm0,
        ..
    } = qr;
    let (m, n) = (factors.rows(), factors.cols());

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
        factors,
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
/// with it.
pub fn householder_qr<T: Scalar>(a: &DenseMatrix<T>) -> QrFactors<T> {
    let (m, n) = (a.rows(), a.cols());
    let mut factors = a.clone();
    let tau = (0..m.min(n))
        .map(|k| householder_step(&mut factors, k))
        .collect();
    QrFactors {
        factors,
        tau,
        pivots: (0..n).collect(),
        rank: m.min(n),
        next_norm: 0.0,
        rank_capped: false,
    }
}

/// A rank-`k` two-factor approximation `A ≈ left * right` with `left` of
/// shape `m × k` and `right` of shape `k × n`, produced by
/// [`PivotedQr::truncation`]. Unlike [`QrFactors`], the `right` factor is stored
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas::{matmul, matmul_tn};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn permute_cols(a: &DenseMatrix<f64>, pivots: &[usize]) -> DenseMatrix<f64> {
        a.select_cols(pivots)
    }

    /// The truncation of a fresh factorization advanced once under `opts`.
    fn truncate(a: &DenseMatrix<f64>, opts: QrOptions) -> LowRankFactors<f64> {
        let mut qr = PivotedQr::new(a.clone());
        let k = qr.advance(opts);
        qr.truncation(k)
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
        let r = qr.r();
        let d: Vec<f64> = (0..qr.rank()).map(|i| r.get(i, i)).collect();
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
    fn truncation_recovers_exact_low_rank_matrix() {
        // A = u * v^T has rank 2; the truncation must reconstruct it to
        // roundoff with exactly rank 2 and undo the pivot permutation.
        let mut rng = StdRng::seed_from_u64(91);
        let u = DenseMatrix::<f64>::random_gaussian(24, 2, &mut rng);
        let v = DenseMatrix::<f64>::random_gaussian(17, 2, &mut rng);
        let mut a = DenseMatrix::zeros(24, 17);
        gemm(1.0, &u, Transpose::No, &v, Transpose::Yes, 0.0, &mut a);
        let lr = truncate(&a, QrOptions::adaptive(usize::MAX, 1e-12));
        assert_eq!(lr.rank(), 2);
        assert_eq!((lr.left.rows(), lr.right.cols()), (24, 17));
        assert!(lr.reconstruct().sub(&a).norm_max() < 1e-10);
    }

    #[test]
    fn truncation_error_tracks_tolerance() {
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
            let lr = truncate(&a, QrOptions::adaptive(usize::MAX, tau));
            let rel = lr.reconstruct().sub(&a).norm_fro() / a.norm_fro();
            assert!(rel < 40.0 * tau, "tau {tau}: rel error {rel}");
            assert!(lr.rank() < n, "tau {tau}: rank not truncated");
        }
    }

    #[test]
    fn truncation_of_zero_matrix_is_rank_zero() {
        let a = DenseMatrix::<f64>::zeros(8, 5);
        let lr = truncate(&a, QrOptions::adaptive(usize::MAX, 1e-8));
        assert_eq!(lr.rank(), 0);
        assert_eq!(lr.left.rows(), 8);
        assert_eq!(lr.right.cols(), 5);
    }
}
