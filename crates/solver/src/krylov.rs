//! The Krylov driver: preconditioned conjugate gradients for the SPD system
//! `(K~ + lambda I) x = b`.
//!
//! [`cg`] is generic over a [`LinearOperator`] (implemented by the
//! persistent `gofmm_core::Evaluator`, by the [`Shifted`] regularized
//! wrapper, and by plain dense matrices for testing) and a
//! [`Preconditioner`] (implemented by both factorizations, [`crate::Factor`],
//! and by the trivial [`IdentityPreconditioner`]). Both traits take `&self`:
//! the GOFMM evaluator and factorization lease their scratch from internal
//! workspace pools, so shared references are all an iteration needs — which
//! is what lets one `GofmmOperator` handle run Krylov solves from many
//! threads at once.
//!
//! CG runs all right-hand-side columns simultaneously with per-column
//! scalars, so one evaluator apply serves every column per iteration.
//! Unpreconditioned CG is `cg(op, &IdentityPreconditioner, b, opts)`.

use gofmm_core::{CancelToken, Error, Evaluator};
use gofmm_linalg::{axpy, dot, matmul, nrm2, DenseMatrix, Scalar};
use gofmm_telemetry::{PhaseTimes, ProgressHandle, ProgressReport, SpanKind, Stopwatch, TraceSink};

use crate::factor::Factor;
use crate::kernel::NodeKernel;

/// An abstract `x -> A x` usable by [`cg`].
pub trait LinearOperator<T: Scalar> {
    /// Operator dimension `N` (square).
    fn dim(&self) -> usize;

    /// Apply the operator to a block of vectors (`N x r`).
    ///
    /// # Errors
    /// Whatever the operator's apply reports, e.g. [`Error::Storage`] when
    /// a file-backed panel fails to fault in.
    fn matvec(&self, x: &DenseMatrix<T>) -> Result<DenseMatrix<T>, Error>;
}

impl<T: Scalar> LinearOperator<T> for Evaluator<'_, T> {
    fn dim(&self) -> usize {
        self.n()
    }
    fn matvec(&self, x: &DenseMatrix<T>) -> Result<DenseMatrix<T>, Error> {
        Ok(self.apply(x)?.0)
    }
}

impl<T: Scalar, Op: LinearOperator<T> + ?Sized> LinearOperator<T> for &Op {
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn matvec(&self, x: &DenseMatrix<T>) -> Result<DenseMatrix<T>, Error> {
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
    fn matvec(&self, x: &DenseMatrix<T>) -> Result<DenseMatrix<T>, Error> {
        let mut y = self.op.matvec(x)?;
        y.axpy(T::from_f64(self.shift), x);
        Ok(y)
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
    fn matvec(&self, x: &DenseMatrix<T>) -> Result<DenseMatrix<T>, Error> {
        Ok(matmul(&self.a, x))
    }
}

/// An abstract approximate inverse `r -> M^{-1} r` used to precondition the
/// Krylov iterations.
pub trait Preconditioner<T: Scalar> {
    /// Apply the approximate inverse to a block of residuals.
    ///
    /// # Errors
    /// Whatever the preconditioner's solve reports, e.g.
    /// [`Error::Storage`] when a file-backed factor node fails to fault in.
    fn apply_inverse(&self, r: &DenseMatrix<T>) -> Result<DenseMatrix<T>, Error>;

    /// The dimension this preconditioner requires of its residuals, when it
    /// has one (`None` for dimension-agnostic preconditioners like the
    /// identity). [`cg`] checks it up front so a mismatched
    /// preconditioner surfaces as [`Error::DimensionMismatch`] rather than a
    /// panic inside the iteration.
    fn dim(&self) -> Option<usize> {
        None
    }
}

impl<T: Scalar, K: NodeKernel<T>> Preconditioner<T> for Factor<'_, T, K> {
    fn apply_inverse(&self, r: &DenseMatrix<T>) -> Result<DenseMatrix<T>, Error> {
        self.solve(r)
    }
    fn dim(&self) -> Option<usize> {
        Some(self.n())
    }
}

impl<T: Scalar, P: Preconditioner<T> + ?Sized> Preconditioner<T> for &P {
    fn apply_inverse(&self, r: &DenseMatrix<T>) -> Result<DenseMatrix<T>, Error> {
        (**self).apply_inverse(r)
    }
    fn dim(&self) -> Option<usize> {
        (**self).dim()
    }
}

/// The do-nothing preconditioner (`M = I`): plain CG.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityPreconditioner;

impl<T: Scalar> Preconditioner<T> for IdentityPreconditioner {
    fn apply_inverse(&self, r: &DenseMatrix<T>) -> Result<DenseMatrix<T>, Error> {
        Ok(r.clone())
    }
}

/// Options of the [`cg`] driver.
#[derive(Clone, Debug)]
pub struct KrylovOptions {
    /// Convergence threshold on the relative residual `||b - A x|| / ||b||`
    /// (per right-hand-side column; the worst column decides).
    pub tol: f64,
    /// Maximum number of iterations (one matvec each).
    pub max_iters: usize,
    /// Optional cooperative cancellation token, polled once per iteration.
    /// When it fires the driver returns [`Error::Cancelled`]; the operator
    /// and preconditioner stay fully reusable (their workspaces are pooled
    /// and reset / overwritten on reuse).
    pub cancel: Option<CancelToken>,
    /// Optional span sink: the driver records a `"CG"` phase span plus one
    /// [`SpanKind::Iteration`] span per iteration.
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
    /// CG iterations performed.
    pub iterations: usize,
    /// Operator applications performed.
    pub matvecs: usize,
    /// True when every column reached the tolerance.
    pub converged: bool,
    /// Final worst-column relative residual `||b - A x|| / ||b||`.
    pub relative_residual: f64,
    /// Per-iteration residual curve: the exact worst-column relative
    /// residual after every iteration (entry 0 is the initial residual, i.e.
    /// 1 for a zero initial guess).
    pub residual_history: Vec<f64>,
    /// Iterations each right-hand-side column actually consumed. A column
    /// stops iterating — its solution, residual and search
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
/// [`Error::Cancelled`] when `opts.cancel` fires between iterations; the
/// first error of an operator or preconditioner apply (e.g.
/// [`Error::Storage`] from a file-backed panel or factor node).
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

    let mut z = pre.apply_inverse(&r)?;
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
        let q = op.matvec(&p)?;
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
        z = pre.apply_inverse(&r)?;
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
