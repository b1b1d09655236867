//! Preconditioned Krylov drivers: conjugate gradients and restarted GMRES.
//!
//! Both drivers are generic over a [`LinearOperator`] (implemented by the
//! persistent `gofmm_core::Evaluator`, by the [`Shifted`] regularized
//! wrapper, and by plain dense matrices for testing) and a
//! [`Preconditioner`] (implemented by [`crate::HierarchicalFactor`] and the
//! trivial [`IdentityPreconditioner`]). Both traits take `&self`: the GOFMM
//! evaluator and factorization lease their scratch from internal workspace
//! pools, so shared references are all an iteration needs — which is what
//! lets one `GofmmOperator` handle run Krylov solves from many threads at
//! once.
//!
//! CG runs all right-hand-side columns simultaneously with per-column
//! scalars, so one evaluator apply serves every column per iteration. GMRES
//! builds a separate Arnoldi basis per column.

use gofmm_core::{CancelToken, Error, Evaluator};
use gofmm_linalg::{axpy, dot, matmul, nrm2, DenseMatrix, Scalar};
use gofmm_telemetry::{PhaseTimes, ProgressHandle, ProgressReport, SpanKind, Stopwatch, TraceSink};

use crate::factor::HierarchicalFactor;

/// An abstract `x -> A x` usable by the Krylov drivers.
pub trait LinearOperator<T: Scalar> {
    /// Operator dimension `N` (square).
    fn dim(&self) -> usize;

    /// Apply the operator to a block of vectors (`N x r`).
    fn matvec(&self, x: &DenseMatrix<T>) -> DenseMatrix<T>;
}

impl<T: Scalar> LinearOperator<T> for Evaluator<'_, T> {
    fn dim(&self) -> usize {
        self.n()
    }
    fn matvec(&self, x: &DenseMatrix<T>) -> DenseMatrix<T> {
        // The drivers pre-check dimensions, so a failure here is an internal
        // invariant violation, not an input error.
        self.apply(x).expect("evaluator apply inside Krylov").0
    }
}

impl<T: Scalar, Op: LinearOperator<T> + ?Sized> LinearOperator<T> for &Op {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn matvec(&self, x: &DenseMatrix<T>) -> DenseMatrix<T> {
        (**self).matvec(x)
    }
}

/// The regularized operator `x -> A x + shift * x`: what a GOFMM-compressed
/// kernel system actually solves (`K + lambda I`).
pub struct Shifted<Op> {
    op: Op,
    shift: f64,
}

impl<Op> Shifted<Op> {
    /// Wrap `op` with a diagonal shift.
    pub fn new(op: Op, shift: f64) -> Self {
        Self { op, shift }
    }

    /// The diagonal shift.
    pub fn shift(&self) -> f64 {
        self.shift
    }

    /// Unwrap the inner operator.
    pub fn into_inner(self) -> Op {
        self.op
    }
}

impl<T: Scalar, Op: LinearOperator<T>> LinearOperator<T> for Shifted<Op> {
    fn dim(&self) -> usize {
        self.op.dim()
    }
    fn matvec(&self, x: &DenseMatrix<T>) -> DenseMatrix<T> {
        let mut y = self.op.matvec(x);
        y.axpy(T::from_f64(self.shift), x);
        y
    }
}

/// A dense matrix as a [`LinearOperator`] (reference path for tests and for
/// problems small enough to hold densely).
pub struct DenseOperator<T: Scalar> {
    a: DenseMatrix<T>,
}

impl<T: Scalar> DenseOperator<T> {
    /// Wrap a square dense matrix.
    pub fn new(a: DenseMatrix<T>) -> Self {
        assert_eq!(a.rows(), a.cols(), "operator must be square");
        Self { a }
    }
}

impl<T: Scalar> LinearOperator<T> for DenseOperator<T> {
    fn dim(&self) -> usize {
        self.a.rows()
    }
    fn matvec(&self, x: &DenseMatrix<T>) -> DenseMatrix<T> {
        matmul(&self.a, x)
    }
}

/// An abstract approximate inverse `r -> M^{-1} r` used to precondition the
/// Krylov iterations.
pub trait Preconditioner<T: Scalar> {
    /// Apply the approximate inverse to a block of residuals.
    fn apply_inverse(&self, r: &DenseMatrix<T>) -> DenseMatrix<T>;

    /// The dimension this preconditioner requires of its residuals, when it
    /// has one (`None` for dimension-agnostic preconditioners like the
    /// identity). The drivers check it up front so a mismatched
    /// preconditioner surfaces as [`Error::DimensionMismatch`] rather than a
    /// panic inside the iteration.
    fn dim(&self) -> Option<usize> {
        None
    }
}

impl<T: Scalar> Preconditioner<T> for HierarchicalFactor<'_, T> {
    fn apply_inverse(&self, r: &DenseMatrix<T>) -> DenseMatrix<T> {
        self.solve(r).expect("factor solve inside Krylov")
    }
    fn dim(&self) -> Option<usize> {
        Some(self.n())
    }
}

impl<T: Scalar> Preconditioner<T> for crate::ulv::UlvFactor<'_, T> {
    fn apply_inverse(&self, r: &DenseMatrix<T>) -> DenseMatrix<T> {
        self.solve(r).expect("ULV factor solve inside Krylov")
    }
    fn dim(&self) -> Option<usize> {
        Some(self.n())
    }
}

impl<T: Scalar, P: Preconditioner<T> + ?Sized> Preconditioner<T> for &P {
    fn apply_inverse(&self, r: &DenseMatrix<T>) -> DenseMatrix<T> {
        (**self).apply_inverse(r)
    }
    fn dim(&self) -> Option<usize> {
        (**self).dim()
    }
}

/// The do-nothing preconditioner (`M = I`): plain CG / GMRES.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityPreconditioner;

impl<T: Scalar> Preconditioner<T> for IdentityPreconditioner {
    fn apply_inverse(&self, r: &DenseMatrix<T>) -> DenseMatrix<T> {
        r.clone()
    }
}

/// Options shared by the Krylov drivers.
#[derive(Clone, Debug)]
pub struct KrylovOptions {
    /// Convergence threshold on the relative residual `||b - A x|| / ||b||`
    /// (per right-hand-side column; the worst column decides).
    pub tol: f64,
    /// Maximum number of iterations (matvecs for CG; inner iterations for
    /// GMRES).
    pub max_iters: usize,
    /// GMRES restart length (ignored by CG).
    pub restart: usize,
    /// Optional cooperative cancellation token, polled once per iteration.
    /// When it fires the driver returns [`Error::Cancelled`]; the operator
    /// and preconditioner stay fully reusable (their workspaces are pooled
    /// and reset / overwritten on reuse).
    pub cancel: Option<CancelToken>,
    /// Optional span sink: the driver records a phase span (`"CG"` /
    /// `"GMRES"`) plus one [`SpanKind::Iteration`] span per iteration.
    /// Tracing never changes the iterates — traced and untraced solves are
    /// bit-identical.
    pub trace: Option<TraceSink>,
    /// Optional progress listener: [`cg`] pushes one
    /// [`ProgressReport::KrylovIteration`] per iteration (iterations done,
    /// worst live column residual, the per-column residuals and the
    /// freezing mask). This is what feeds the batched server's
    /// `Ticket::progress()`.
    pub progress: Option<ProgressHandle>,
}

impl Default for KrylovOptions {
    fn default() -> Self {
        Self {
            tol: 1e-10,
            max_iters: 500,
            restart: 50,
            cancel: None,
            trace: None,
            progress: None,
        }
    }
}

impl KrylovOptions {
    /// Builder-style cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Builder-style trace sink.
    #[must_use]
    pub fn with_trace(mut self, trace: TraceSink) -> Self {
        self.trace = Some(trace);
        self
    }

    /// Builder-style progress listener.
    #[must_use]
    pub fn with_progress(mut self, progress: ProgressHandle) -> Self {
        self.progress = Some(progress);
        self
    }
}

/// Report of one Krylov solve.
#[derive(Clone, Debug, Default)]
pub struct SolveStats {
    /// Wall-clock seconds spent building the preconditioner (0 when the
    /// caller timed it separately or used the identity).
    pub setup_time: f64,
    /// Wall-clock seconds of the iteration itself.
    pub solve_time: f64,
    /// Iterations performed (CG steps, or GMRES inner iterations summed over
    /// restarts).
    pub iterations: usize,
    /// Operator applications performed.
    pub matvecs: usize,
    /// True when every column reached the tolerance.
    pub converged: bool,
    /// Final worst-column relative residual `||b - A x|| / ||b||`.
    pub relative_residual: f64,
    /// Per-iteration residual curve (entry 0 is the initial residual, i.e. 1
    /// for a zero initial guess). For [`cg`] this is the exact worst-column
    /// relative residual after every iteration. For [`gmres`] it is the
    /// Givens-recurrence estimate of the *preconditioned* relative residual,
    /// scaled consistently across restarts, for the column that iterated
    /// longest; the authoritative final value is `relative_residual`.
    pub residual_history: Vec<f64>,
    /// Iterations each right-hand-side column actually consumed. For [`cg`]
    /// a column stops iterating — its solution, residual and search
    /// direction freeze — the moment it reaches the tolerance, even while
    /// wider columns in the same batch keep going; this is what makes a
    /// column's result bit-identical whether it was solved alone or
    /// coalesced into a wider batch.
    pub column_iterations: Vec<usize>,
    /// Final per-column relative residuals `||b_j - A x_j|| / ||b_j||`
    /// (`relative_residual` is their maximum).
    pub column_residuals: Vec<f64>,
}

impl SolveStats {
    /// The timing fields as a [`PhaseTimes`] view — `"setup"`
    /// (preconditioner construction, when the driver timed it) and
    /// `"solve"` (the iteration), in seconds. The unified shape shared
    /// with `EvaluationStats::phase_times()` and the serving stats.
    pub fn phase_times(&self) -> PhaseTimes {
        PhaseTimes::new()
            .with("setup", self.setup_time)
            .with("solve", self.solve_time)
    }
}

/// Per-column norms of `b`, with zero columns mapped to 1 so the relative
/// residual of an all-zero right-hand side is well defined (and immediately
/// below any tolerance).
fn column_norms<T: Scalar>(b: &DenseMatrix<T>) -> Vec<f64> {
    (0..b.cols())
        .map(|j| {
            let n = nrm2(b.col(j)).to_f64();
            if n > 0.0 {
                n
            } else {
                1.0
            }
        })
        .collect()
}

/// Check that `b` matches the operator's dimension and is finite, and that
/// the preconditioner (when it has a dimension) matches the operator. A NaN
/// entry would otherwise make its column's residual NaN, which no `> tol`
/// test ever keeps iterating: the column would report converged at `x = 0`.
fn check_system<T: Scalar>(
    op: &impl LinearOperator<T>,
    pre: &impl Preconditioner<T>,
    b: &DenseMatrix<T>,
) -> Result<(), Error> {
    if b.rows() != op.dim() {
        return Err(Error::DimensionMismatch {
            what: "right-hand-side rows",
            expected: op.dim(),
            got: b.rows(),
        });
    }
    if let Some(pdim) = pre.dim() {
        if pdim != op.dim() {
            return Err(Error::DimensionMismatch {
                what: "preconditioner dimension",
                expected: op.dim(),
                got: pdim,
            });
        }
    }
    check_finite_rhs(b)
}

/// [`Error::NonFiniteInput`] unless every entry of `b` is finite.
pub(crate) fn check_finite_rhs<T: Scalar>(b: &DenseMatrix<T>) -> Result<(), Error> {
    if b.data().iter().all(|v| v.to_f64().is_finite()) {
        Ok(())
    } else {
        Err(Error::NonFiniteInput {
            what: "right-hand side",
        })
    }
}

/// Preconditioned conjugate gradients for SPD systems `A x = b`.
///
/// All columns of `b` are iterated simultaneously with per-column step
/// sizes, so each iteration costs one operator apply and one preconditioner
/// apply regardless of the column count. A column *freezes* the moment its
/// own relative residual reaches the tolerance: its solution, residual and
/// search direction stop updating while slower columns keep iterating.
/// Combined with the column-invariance of the underlying block kernels,
/// this makes every column's solution bit-identical whether it was solved
/// alone or stacked into a wider batch — the property the batched serving
/// front door relies on when it coalesces concurrent solves. Returns the
/// solution and a [`SolveStats`] report whose `residual_history` tracks the
/// worst column and whose `column_iterations` records each column's freeze
/// point.
///
/// # Errors
/// [`Error::DimensionMismatch`] when `b.rows() != op.dim()` or the
/// preconditioner's dimension does not match the operator's;
/// [`Error::NonFiniteInput`] when `b` holds a NaN or infinite entry;
/// [`Error::Cancelled`] when `opts.cancel` fires between iterations.
pub fn cg<T: Scalar>(
    op: &impl LinearOperator<T>,
    pre: &impl Preconditioner<T>,
    b: &DenseMatrix<T>,
    opts: &KrylovOptions,
) -> Result<(DenseMatrix<T>, SolveStats), Error> {
    check_system(op, pre, b)?;
    let n = op.dim();
    let sw = Stopwatch::start();
    let sink = opts.trace.as_ref();
    let phase_start = sink.map(|s| s.now());
    let close_phase = |stats_done: &SolveStats| {
        if let (Some(s), Some(t0)) = (sink, phase_start) {
            s.record(SpanKind::Phase, "CG", stats_done.iterations, 0, t0, s.now());
        }
    };
    let cols = b.cols();
    let bnorm = column_norms(b);
    let cancel = opts.cancel.as_ref();
    let mut stats = SolveStats::default();

    let mut x = DenseMatrix::<T>::zeros(n, cols);
    let mut r = b.clone();
    // Per-column relative residuals; frozen columns keep their last value
    // (their residual vector no longer changes, so recomputing it would
    // reproduce the same number).
    let mut col_res: Vec<f64> = (0..cols)
        .map(|j| nrm2(r.col(j)).to_f64() / bnorm[j])
        .collect();
    let mut history = vec![col_res.iter().copied().fold(0.0f64, f64::max)];
    let mut column_iterations = vec![0usize; cols];
    if history[0] <= opts.tol || cols == 0 {
        stats.converged = true;
        stats.relative_residual = history[0];
        stats.residual_history = history;
        stats.column_iterations = column_iterations;
        stats.column_residuals = col_res;
        stats.solve_time = sw.seconds();
        close_phase(&stats);
        return Ok((x, stats));
    }

    let mut z = pre.apply_inverse(&r);
    let mut p = z.clone();
    let mut rz: Vec<T> = (0..cols).map(|j| dot(r.col(j), z.col(j))).collect();
    let mut active: Vec<bool> = col_res.iter().map(|&res| res > opts.tol).collect();

    let close_iter = |it: usize, iter_start: Option<u64>| {
        if let (Some(s), Some(t0)) = (sink, iter_start) {
            s.record(SpanKind::Iteration, "CG_ITER", it + 1, 0, t0, s.now());
        }
    };
    for it in 0..opts.max_iters {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(Error::Cancelled);
        }
        let iter_start = sink.map(|s| s.now());
        let q = op.matvec(&p);
        stats.matvecs += 1;
        stats.iterations += 1;
        for j in 0..cols {
            if !active[j] {
                continue;
            }
            let pq = dot(p.col(j), q.col(j));
            let alpha = if pq != T::zero() {
                rz[j] / pq
            } else {
                T::zero()
            };
            axpy(alpha, p.col(j), x.col_mut(j));
            axpy(-alpha, q.col(j), r.col_mut(j));
            col_res[j] = nrm2(r.col(j)).to_f64() / bnorm[j];
            column_iterations[j] += 1;
            if col_res[j] <= opts.tol {
                // Freeze: exactly where a solo run of this column would have
                // broken out of the loop — before the preconditioner and
                // direction update below.
                active[j] = false;
            }
        }
        history.push(col_res.iter().copied().fold(0.0f64, f64::max));
        if let Some(progress) = opts.progress.as_ref() {
            progress.report(&ProgressReport::KrylovIteration {
                iteration: it + 1,
                max_residual: *history.last().unwrap(),
                column_residuals: &col_res,
                column_active: &active,
            });
        }
        if active.iter().all(|&a| !a) {
            stats.converged = true;
            close_iter(it, iter_start);
            break;
        }
        if it + 1 == opts.max_iters {
            // Out of iterations: skip the preconditioner application and
            // direction update that no further step would consume.
            close_iter(it, iter_start);
            break;
        }
        z = pre.apply_inverse(&r);
        for j in 0..cols {
            if !active[j] {
                continue;
            }
            let rz_new = dot(r.col(j), z.col(j));
            let beta = if rz[j] != T::zero() {
                rz_new / rz[j]
            } else {
                T::zero()
            };
            rz[j] = rz_new;
            // p = z + beta p.
            let zc = z.col(j);
            for (pv, &zv) in p.col_mut(j).iter_mut().zip(zc) {
                *pv = beta.mul_add(*pv, zv);
            }
        }
        close_iter(it, iter_start);
    }

    stats.relative_residual = *history.last().unwrap();
    stats.residual_history = history;
    stats.column_iterations = column_iterations;
    stats.column_residuals = col_res;
    stats.solve_time = sw.seconds();
    close_phase(&stats);
    Ok((x, stats))
}

/// Unpreconditioned conjugate gradients (`M = I`).
///
/// # Errors
/// [`Error::DimensionMismatch`] when `b.rows() != op.dim()`;
/// [`Error::NonFiniteInput`] when `b` holds a NaN or infinite entry.
pub fn cg_unpreconditioned<T: Scalar>(
    op: &impl LinearOperator<T>,
    b: &DenseMatrix<T>,
    opts: &KrylovOptions,
) -> Result<(DenseMatrix<T>, SolveStats), Error> {
    cg(op, &IdentityPreconditioner, b, opts)
}

/// Left-preconditioned restarted GMRES(`restart`).
///
/// Works for any (possibly non-symmetric) operator; each right-hand-side
/// column gets its own Arnoldi process. The residual history tracks the
/// preconditioned residual estimate from the Givens recurrence; the final
/// `relative_residual` is the true unpreconditioned `||b - A x|| / ||b||`
/// (one extra matvec per column).
///
/// # Errors
/// [`Error::DimensionMismatch`] when `b.rows() != op.dim()` or the
/// preconditioner's dimension does not match the operator's;
/// [`Error::NonFiniteInput`] when `b` holds a NaN or infinite entry;
/// [`Error::Cancelled`] when `opts.cancel` fires between restart cycles.
pub fn gmres<T: Scalar>(
    op: &impl LinearOperator<T>,
    pre: &impl Preconditioner<T>,
    b: &DenseMatrix<T>,
    opts: &KrylovOptions,
) -> Result<(DenseMatrix<T>, SolveStats), Error> {
    check_system(op, pre, b)?;
    let n = op.dim();
    let sw = Stopwatch::start();
    let sink = opts.trace.as_ref();
    let phase_start = sink.map(|s| s.now());
    // One Iteration span per inner Arnoldi step; `node` is the global
    // inner-iteration count, `level` the column being solved.
    let close_inner = |iter: usize, col: usize, iter_start: Option<u64>| {
        if let (Some(s), Some(t0)) = (sink, iter_start) {
            s.record(SpanKind::Iteration, "GMRES_ITER", iter, col, t0, s.now());
        }
    };
    let m = opts.restart.max(1);
    let bnorm = column_norms(b);
    let cancel = opts.cancel.as_ref();
    let mut stats = SolveStats {
        converged: true,
        ..SolveStats::default()
    };
    let mut x = DenseMatrix::<T>::zeros(n, b.cols());
    let mut worst_final = 0.0f64;
    let mut history: Vec<f64> = Vec::new();

    for j in 0..b.cols() {
        let bj = DenseMatrix::from_vec(n, 1, b.col(j).to_vec());
        let mut xj = DenseMatrix::<T>::zeros(n, 1);
        let mut iterations_left = opts.max_iters;
        let mut converged = false;
        let mut col_history = vec![1.0f64];
        let mut beta0: Option<f64> = None;

        'restarts: while iterations_left > 0 {
            if cancel.is_some_and(CancelToken::is_cancelled) {
                return Err(Error::Cancelled);
            }
            // True residual at the restart, then precondition it.
            let ax = op.matvec(&xj);
            stats.matvecs += 1;
            let mut r = bj.clone();
            r.axpy(-T::one(), &ax);
            if nrm2(r.col(0)).to_f64() / bnorm[j] <= opts.tol {
                converged = true;
                break 'restarts;
            }
            let z = pre.apply_inverse(&r);
            let beta = nrm2(z.col(0));
            if beta.to_f64() == 0.0 {
                converged = true;
                break 'restarts;
            }
            // Preconditioned norm of the initial residual: fixes the scale of
            // the residual-history estimates across restarts.
            if beta0.is_none() {
                beta0 = Some(beta.to_f64());
            }
            let beta0_val = beta0.unwrap();
            // Arnoldi basis (n x (m+1)), Hessenberg (m+1 x m), Givens.
            let mut v: Vec<DenseMatrix<T>> = Vec::with_capacity(m + 1);
            let mut first = z;
            first.scale(T::one() / beta);
            v.push(first);
            let mut h = DenseMatrix::<T>::zeros(m + 1, m);
            let mut cs = vec![T::zero(); m];
            let mut sn = vec![T::zero(); m];
            let mut g = vec![T::zero(); m + 1];
            g[0] = beta;
            let mut k_used = 0;

            for k in 0..m {
                if iterations_left == 0 {
                    break;
                }
                iterations_left -= 1;
                stats.iterations += 1;
                let iter_start = sink.map(|s| s.now());
                // w = M^{-1} A v_k, modified Gram-Schmidt.
                let av = op.matvec(&v[k]);
                stats.matvecs += 1;
                let mut w = pre.apply_inverse(&av);
                for (i, vi) in v.iter().enumerate().take(k + 1) {
                    let hik = dot(vi.col(0), w.col(0));
                    h.set(i, k, hik);
                    axpy(-hik, vi.col(0), w.col_mut(0));
                }
                let wnorm = nrm2(w.col(0));
                h.set(k + 1, k, wnorm);
                // Apply the accumulated Givens rotations to the new column.
                for i in 0..k {
                    let hi = h.get(i, k);
                    let hi1 = h.get(i + 1, k);
                    h.set(i, k, cs[i].mul_add(hi, sn[i] * hi1));
                    h.set(i + 1, k, (-sn[i]).mul_add(hi, cs[i] * hi1));
                }
                // New rotation annihilating h[k+1, k].
                let (hk, hk1) = (h.get(k, k), h.get(k + 1, k));
                let denom = (hk * hk + hk1 * hk1).sqrt();
                let (c, s) = if denom == T::zero() {
                    (T::one(), T::zero())
                } else {
                    (hk / denom, hk1 / denom)
                };
                cs[k] = c;
                sn[k] = s;
                h.set(k, k, denom);
                h.set(k + 1, k, T::zero());
                g[k + 1] = -s * g[k];
                g[k] = c * g[k];
                if denom == T::zero() {
                    // Total breakdown: A v_k lies in the current span and the
                    // projected system is singular. The step is unusable —
                    // drop it (do not advance k_used) and close the cycle.
                    close_inner(stats.iterations, j, iter_start);
                    break;
                }
                k_used = k + 1;
                let est = g[k + 1].abs().to_f64() / beta0_val.max(f64::MIN_POSITIVE);
                col_history.push(est);
                let breakdown = wnorm.to_f64() == 0.0;
                close_inner(stats.iterations, j, iter_start);
                if est <= opts.tol * 0.1 || breakdown {
                    break;
                }
                let mut next = w;
                next.scale(T::one() / wnorm);
                v.push(next);
            }

            if k_used == 0 {
                break 'restarts;
            }
            // Back-substitute y from the triangularized Hessenberg, update x.
            let mut y = vec![T::zero(); k_used];
            for ii in (0..k_used).rev() {
                let mut acc = g[ii];
                for kk in (ii + 1)..k_used {
                    acc -= h.get(ii, kk) * y[kk];
                }
                y[ii] = acc / h.get(ii, ii);
            }
            for (i, &yi) in y.iter().enumerate() {
                axpy(yi, v[i].col(0), xj.col_mut(0));
            }
        }

        // True final residual for this column.
        let ax = op.matvec(&xj);
        stats.matvecs += 1;
        let mut r = bj;
        r.axpy(-T::one(), &ax);
        let rel = nrm2(r.col(0)).to_f64() / bnorm[j];
        worst_final = worst_final.max(rel);
        let column_converged = converged || rel <= opts.tol;
        stats.converged &= column_converged;
        stats
            .column_iterations
            .push(opts.max_iters - iterations_left);
        stats.column_residuals.push(rel);
        if col_history.len() > history.len() {
            history = col_history;
        }
        for (dst, src) in x.col_mut(j).iter_mut().zip(xj.col(0)) {
            *dst = *src;
        }
    }

    stats.relative_residual = worst_final;
    stats.residual_history = history;
    stats.solve_time = sw.seconds();
    if let (Some(s), Some(t0)) = (sink, phase_start) {
        s.record(SpanKind::Phase, "GMRES", stats.iterations, 0, t0, s.now());
    }
    Ok((x, stats))
}
