//! The workspace-wide error type returned at fallible public boundaries.
//!
//! GOFMM used to panic on invalid input at its public entry points
//! (`compress` asserted non-emptiness, `Evaluator::apply` and the solver's
//! `solve` asserted dimensions, the factorization had its own ad-hoc
//! `FactorError`). Services cannot turn panics into HTTP 400s, so every
//! public boundary now has a fallible form returning this enum:
//! [`crate::try_compress`], [`crate::Evaluator::apply`], the solver crate's
//! `HierarchicalFactor::solve` / `cg` / `gmres`, and the `GofmmOperator`
//! front door. Internal *invariant* violations (task-DAG ordering, skeleton
//! nesting) still panic — they are bugs, not inputs.
//!
//! The enum is `thiserror`-shaped by hand (the build environment vendors its
//! dependencies, so no derive macro is pulled in): every variant carries the
//! data a caller needs to react programmatically, `Display` produces the
//! operator-facing message, and `std::error::Error` is implemented.

/// Why a GOFMM public entry point could not serve a request.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// The input matrix or right-hand-side block has zero size where a
    /// non-empty one is required.
    EmptyInput {
        /// What was empty (e.g. `"matrix"`).
        what: &'static str,
    },
    /// An operand's dimension does not match the compressed operator.
    DimensionMismatch {
        /// What was mismatched (e.g. `"right-hand-side rows"`).
        what: &'static str,
        /// The dimension the operator requires.
        expected: usize,
        /// The dimension the caller supplied.
        got: usize,
    },
    /// An input holds a NaN or infinite entry where the engine would
    /// otherwise report a meaningless result (e.g. a Krylov right-hand side,
    /// whose NaN residual would compare as converged).
    NonFiniteInput {
        /// What was non-finite (e.g. `"right-hand side"`).
        what: &'static str,
    },
    /// A configuration parameter is outside its valid range.
    InvalidConfig {
        /// Which parameter (e.g. `"leaf_size"`).
        what: &'static str,
        /// Human-readable description of the violated constraint.
        constraint: &'static str,
    },
    /// The adaptive skeletonization hit the rank cap `max_rank` with
    /// candidate columns still above the tolerance: the rank budget, not the
    /// accuracy target, decided a skeleton. Only reported when the
    /// compression was asked to be strict about it
    /// (`GofmmConfig::with_strict_rank_budget`).
    BudgetExhausted {
        /// Heap index of the first offending node.
        node: usize,
        /// The rank cap that was hit.
        max_rank: usize,
        /// Estimated first rejected singular value at that node.
        residual: f64,
    },
    /// A regularized block was not positive definite during hierarchical
    /// factorization: a leaf's diagonal block (SMW backend), or a rotated
    /// diagonal / eliminated trailing block (ULV backend).
    NotPositiveDefinite {
        /// Heap index of the offending node.
        node: usize,
        /// Pivot at which the Cholesky factorization broke down.
        pivot: usize,
    },
    /// A factorization core block was numerically singular: the
    /// Sherman–Morrison–Woodbury core `I + C G` (SMW backend), or a
    /// regularized block whose Cholesky pivot sat at roundoff scale (ULV
    /// backend — the block is singular rather than indefinite).
    SingularCore {
        /// Heap index of the offending node.
        node: usize,
    },
    /// A solve was requested from an operator handle that was built without
    /// a factorization (`GofmmOperator::builder(..).factorize(lambda)` was
    /// never called).
    NoFactorization,
    /// The request's cooperative cancellation token fired before the work
    /// completed: the engine drained its remaining sweep tasks (leaving its
    /// pooled workspaces reusable) and produced no result.
    Cancelled,
    /// The request's deadline had already passed when it was checked — at
    /// admission, or while the request waited in a serving queue. The work
    /// was never started.
    DeadlineExceeded,
    /// A serving queue was at capacity and refused admission. Back-pressure,
    /// not failure: the caller may retry once in-flight requests drain.
    Overloaded {
        /// Requests queued when admission was refused.
        queue_depth: usize,
        /// The queue's configured capacity.
        capacity: usize,
    },
    /// The out-of-core storage tier failed: an I/O error, a corrupt or
    /// incomplete store file, or a blob missing from it. Carries the
    /// storage-layer message (`gofmm_store::StoreError`).
    Storage {
        /// The underlying storage-layer message.
        message: String,
    },
}

impl From<gofmm_store::StoreError> for Error {
    fn from(e: gofmm_store::StoreError) -> Self {
        Error::Storage {
            message: e.to_string(),
        }
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::EmptyInput { what } => write!(f, "{what} is empty"),
            Error::DimensionMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: expected {expected}, got {got}"),
            Error::NonFiniteInput { what } => {
                write!(f, "{what} contains a NaN or infinite entry")
            }
            Error::InvalidConfig { what, constraint } => {
                write!(f, "invalid configuration: {what} {constraint}")
            }
            Error::BudgetExhausted {
                node,
                max_rank,
                residual,
            } => write!(
                f,
                "node {node}: rank budget exhausted (rank cap {max_rank} hit with estimated \
                 residual {residual:.3e} above tolerance); raise max_rank or loosen the tolerance"
            ),
            Error::NotPositiveDefinite { node, pivot } => write!(
                f,
                "node {node}: regularized block not positive definite (pivot {pivot}); \
                 increase lambda"
            ),
            Error::SingularCore { node } => write!(
                f,
                "node {node}: factorization core block is numerically singular; \
                 increase lambda or tighten the compression tolerance"
            ),
            Error::NoFactorization => write!(
                f,
                "operator was built without a factorization; call .factorize(lambda) on the \
                 builder to enable solve/solve_cg"
            ),
            Error::Cancelled => write!(f, "request cancelled before completion"),
            Error::DeadlineExceeded => {
                write!(f, "request deadline expired before the work started")
            }
            Error::Overloaded {
                queue_depth,
                capacity,
            } => write!(
                f,
                "serving queue at capacity ({queue_depth}/{capacity} requests queued); \
                 retry after in-flight requests drain"
            ),
            Error::Storage { message } => write!(
                f,
                "storage tier failure: {message}; the store file may be missing, incomplete, \
                 or written by a different-precision operator"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_actionable() {
        let cases: Vec<(Error, &str)> = vec![
            (Error::EmptyInput { what: "matrix" }, "matrix is empty"),
            (
                Error::DimensionMismatch {
                    what: "input rows",
                    expected: 8,
                    got: 7,
                },
                "expected 8, got 7",
            ),
            (
                Error::NonFiniteInput {
                    what: "right-hand side",
                },
                "NaN or infinite",
            ),
            (
                Error::InvalidConfig {
                    what: "leaf_size",
                    constraint: "must be positive",
                },
                "leaf_size",
            ),
            (
                Error::BudgetExhausted {
                    node: 3,
                    max_rank: 16,
                    residual: 1e-3,
                },
                "rank budget exhausted",
            ),
            (
                Error::NotPositiveDefinite { node: 5, pivot: 2 },
                "increase lambda",
            ),
            (Error::SingularCore { node: 1 }, "singular"),
            (Error::NoFactorization, "factorize"),
            (Error::Cancelled, "cancelled"),
            (Error::DeadlineExceeded, "deadline"),
            (
                Error::Overloaded {
                    queue_depth: 64,
                    capacity: 64,
                },
                "64/64",
            ),
            (
                Error::Storage {
                    message: "store has no blob for class 1 node 9".into(),
                },
                "class 1 node 9",
            ),
        ];
        for (err, needle) in cases {
            let msg = err.to_string();
            assert!(msg.contains(needle), "{msg:?} missing {needle:?}");
            // The std::error::Error impl is object-safe and source-free.
            let boxed: Box<dyn std::error::Error> = Box::new(err);
            assert!(boxed.source().is_none());
        }
    }
}
