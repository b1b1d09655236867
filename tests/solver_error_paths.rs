//! Solver error paths through the `GofmmOperator` front door and its ULV
//! factorization, each checked against the SMW `HierarchicalFactor` built
//! on the operator's own compression as well: a deliberately singular
//! regularized block surfaces as a typed error (never a panic),
//! solve-before-factorize reports `NoFactorization`, a wrong-length
//! right-hand side reports `DimensionMismatch`, and a non-finite Krylov
//! right-hand side reports `NonFiniteInput` (directly and at serving
//! admission), as does a matrix with a non-finite diagonal under every
//! distance metric and a NaN off the diagonal that reaches the ULV factor.

use gofmm_suite::core::DistanceMetric;
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{KernelMatrix, KernelType, PointCloud, SpdMatrix};
use gofmm_suite::solver::{cg, HierarchicalFactor, IdentityPreconditioner, Shifted};
use gofmm_suite::{BatchedServer, Error, GofmmOperator, KrylovOptions, ServeConfig};
use std::sync::Arc;

/// A diagonal SPD-except-for-one-entry matrix: entry `n/2` of the diagonal
/// is exactly zero, so with `lambda = 0` one leaf's regularized block is
/// *deliberately, exactly singular* — the factorizations must refuse with a
/// typed error instead of producing garbage or panicking.
struct DiagonalWithZero {
    n: usize,
}

impl SpdMatrix<f64> for DiagonalWithZero {
    fn n(&self) -> usize {
        self.n
    }
    fn entry(&self, i: usize, j: usize) -> f64 {
        if i == j && i != self.n / 2 {
            1.0 + (i as f64) / (self.n as f64)
        } else {
            0.0
        }
    }
    fn name(&self) -> String {
        "diag-with-zero".to_string()
    }
}

fn well_posed_kernel(n: usize) -> KernelMatrix {
    KernelMatrix::new(
        PointCloud::uniform(n, 3, 31),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "error-paths",
    )
}

fn config() -> gofmm_suite::core::GofmmConfig {
    gofmm_suite::core::GofmmConfig::default()
        .with_leaf_size(16)
        .with_max_rank(32)
        .with_tolerance(1e-9)
        .with_budget(0.0)
        .with_threads(2)
}

/// The ULV factorization of `K + lambda I` through the operator builder and
/// the SMW one built on the same compression: `Err` where either refuses.
fn factor_both<M: SpdMatrix<f64>>(m: &M, lambda: f64) -> [(&'static str, Result<(), Error>); 2] {
    let ulv = GofmmOperator::<f64>::builder(m)
        .config(config())
        .factorize(lambda)
        .build()
        .map(drop);
    let op = GofmmOperator::<f64>::builder(m)
        .config(config())
        .build()
        .expect("operator without factorization must build");
    let smw = HierarchicalFactor::new(m, op.compressed(), lambda).map(drop);
    [("ULV", ulv), ("SMW", smw)]
}

#[test]
fn singular_regularized_block_is_a_typed_error_in_both_backends() {
    let m = DiagonalWithZero { n: 128 };
    // lambda = 0 keeps the zero diagonal entry exactly singular.
    for (backend, result) in factor_both(&m, 0.0) {
        let err = match result {
            Err(e) => e,
            Ok(_) => panic!("{backend:?}: a singular block must not factor"),
        };
        // ULV classifies the exactly-zero pivot as a singular core; SMW
        // reports the failed leaf Cholesky as not positive definite. Both
        // are typed errors with an actionable message.
        match (backend, &err) {
            ("ULV", Error::SingularCore { .. }) => {}
            ("SMW", Error::NotPositiveDefinite { .. }) => {}
            other => panic!("unexpected classification {other:?}"),
        }
        assert!(err.to_string().contains("lambda"), "message: {err}");
    }
}

#[test]
fn indefinite_regularization_is_not_positive_definite_in_both_backends() {
    // A strongly negative shift is indefinite, not singular: both backends
    // must say so (and not confuse it with the roundoff-singular case).
    let k = well_posed_kernel(128);
    for (backend, result) in factor_both(&k, -50.0) {
        assert!(
            matches!(result, Err(Error::NotPositiveDefinite { .. })),
            "{backend:?}: expected NotPositiveDefinite"
        );
    }
}

#[test]
fn solve_before_factorize_reports_no_factorization() {
    let k = well_posed_kernel(96);
    let op = GofmmOperator::<f64>::builder(&k)
        .config(config())
        .build()
        .expect("operator without factorization must build");
    assert_eq!(op.lambda(), None);
    let b = DenseMatrix::<f64>::zeros(96, 1);
    assert_eq!(op.solve(&b), Err(Error::NoFactorization));
    assert!(matches!(
        op.solve_cg(&b, &KrylovOptions::default()),
        Err(Error::NoFactorization)
    ));
    // Matvecs still work: the evaluator does not need a factorization.
    assert!(op.apply(&b).is_ok());
}

#[test]
fn wrong_length_rhs_reports_dimension_mismatch_in_both_backends() {
    let n = 96;
    let lambda = 1e-2;
    let k = well_posed_kernel(n);
    let op = GofmmOperator::<f64>::builder(&k)
        .config(config())
        .factorize(lambda)
        .build()
        .expect("well-posed operator must build");
    let smw = HierarchicalFactor::new(&k, op.compressed(), lambda)
        .expect("well-posed system must factor");
    let shifted = Shifted::new(op.evaluator(), lambda);
    let opts = KrylovOptions::default();
    let bad = DenseMatrix::<f64>::zeros(n - 3, 2);
    let b = DenseMatrix::<f64>::from_fn(n, 1, |i, _| ((i % 5) as f64) - 2.0);
    // The ULV factor behind the operator's `solve` / `solve_cg`, and the SMW
    // factor of the same compression through `cg` over the same evaluator.
    let cases = [
        (
            "ULV",
            [
                op.solve(&bad).unwrap_err(),
                op.apply(&bad).unwrap_err(),
                op.solve_cg(&bad, &opts).unwrap_err(),
            ],
            op.solve_cg(&b, &opts),
        ),
        (
            "SMW",
            [
                smw.solve(&bad).unwrap_err(),
                op.apply(&bad).unwrap_err(),
                cg(&shifted, &smw, &bad, &opts).unwrap_err(),
            ],
            cg(&shifted, &smw, &b, &opts),
        ),
    ];
    for (backend, errors, solved) in cases {
        for err in errors {
            match err {
                Error::DimensionMismatch { expected, got, .. } => {
                    assert_eq!((expected, got), (n, n - 3));
                }
                other => panic!("{backend:?}: expected DimensionMismatch, got {other}"),
            }
        }
        // And the well-formed path still solves.
        let (_, stats) = solved.unwrap();
        assert!(stats.converged);
    }
}

#[test]
fn non_finite_matrix_diagonal_is_refused_before_compression() {
    // One NaN coordinate makes its kernel row and diagonal NaN; that used to
    // build as far as the factorization and blame lambda for the failure.
    let n = 300;
    let mut coords = PointCloud::uniform(n, 3, 31).data().to_vec();
    coords[3 * 123 + 1] = f64::NAN;
    let k = KernelMatrix::new(
        PointCloud::from_vec(3, coords),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "nan-coordinate",
    );
    for metric in [
        DistanceMetric::Kernel,
        DistanceMetric::Angle,
        DistanceMetric::Geometric,
        DistanceMetric::Lexicographic,
        DistanceMetric::Random,
    ] {
        let result = GofmmOperator::<f64>::builder(&k)
            .config(config().with_metric(metric))
            .factorize(1e-2)
            .build();
        match result {
            Err(Error::NonFiniteInput { what }) => assert_eq!(what, "matrix diagonal"),
            Err(other) => panic!("{metric}: expected NonFiniteInput, got {other}"),
            Ok(_) => panic!("{metric}: a NaN diagonal must not build"),
        }
    }
}

/// A well-posed Gaussian kernel with one NaN planted off the diagonal, at
/// `at` and its mirror.
struct NanOffDiagonal {
    kernel: KernelMatrix,
    at: (usize, usize),
}

impl SpdMatrix<f64> for NanOffDiagonal {
    fn n(&self) -> usize {
        SpdMatrix::<f64>::n(&self.kernel)
    }
    fn entry(&self, i: usize, j: usize) -> f64 {
        if (i, j) == self.at || (j, i) == self.at {
            f64::NAN
        } else {
            SpdMatrix::<f64>::entry(&self.kernel, i, j)
        }
    }
}

#[test]
fn non_finite_off_diagonal_entry_is_not_blamed_on_lambda() {
    // The diagonal is finite, so compression accepts the matrix; the NaN
    // reaches the ULV factor as a NaN Cholesky pivot, which used to read
    // "not positive definite; increase lambda". (The SMW backend reports
    // this case as a numerically singular core; it is left as is.)
    for (n, at) in [(12, (2, 5)), (300, (10, 290))] {
        let m = NanOffDiagonal {
            kernel: well_posed_kernel(n),
            at,
        };
        match GofmmOperator::<f64>::builder(&m)
            .config(config())
            .factorize(1e-2)
            .build()
        {
            Err(Error::NonFiniteInput { what }) => assert_eq!(what, "matrix block"),
            Err(other) => panic!("n = {n}, NaN at {at:?}: expected NonFiniteInput, got {other}"),
            Ok(_) => panic!("n = {n}, NaN at {at:?}: a NaN block must not factor"),
        }
    }
}

/// A well-posed right-hand side with entry `i` replaced by `bad`.
fn poisoned_rhs(n: usize, i: usize, bad: f64) -> DenseMatrix<f64> {
    let mut b = DenseMatrix::<f64>::from_fn(n, 1, |r, _| ((r % 7) as f64) - 3.0);
    b[(i, 0)] = bad;
    b
}

#[test]
fn non_finite_rhs_is_refused_by_every_krylov_entry_point() {
    // One NaN used to return `converged: true` at `x = 0`: the NaN residual
    // fails every `> tol` test, so the column froze before iterating.
    let n = 128;
    let k = well_posed_kernel(n);
    let op = GofmmOperator::<f64>::builder(&k)
        .config(config())
        .factorize(1e-2)
        .build()
        .expect("well-posed operator must build");
    let opts = KrylovOptions::default();
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let b = poisoned_rhs(n, n / 3, bad);
        for err in [
            cg(&op, &IdentityPreconditioner, &b, &opts).unwrap_err(),
            op.solve_cg(&b, &opts).unwrap_err(),
        ] {
            assert!(
                matches!(err, Error::NonFiniteInput { .. }),
                "{bad}: expected NonFiniteInput, got {err}"
            );
        }
    }
}

#[test]
fn served_non_finite_cg_request_is_rejected_at_admission() {
    let n = 128;
    let k = well_posed_kernel(n);
    let op = GofmmOperator::<f64>::builder(&k)
        .config(config())
        .factorize(1e-2)
        .build()
        .expect("well-posed operator must build");
    let opts = KrylovOptions::default();
    let finite = DenseMatrix::<f64>::from_fn(n, 1, |i, _| ((i % 5) as f64) - 2.0);
    let (solo, _) = op.solve_cg(&finite, &opts).expect("solo solve");

    let server = BatchedServer::new(Arc::new(op), ServeConfig::default());
    let before = server.submit_solve_cg(&finite, &opts, None).expect("admit");
    let poisoned = server.submit_solve_cg(&poisoned_rhs(n, 7, f64::NAN), &opts, None);
    assert!(
        matches!(poisoned, Err(Error::NonFiniteInput { .. })),
        "a NaN CG request must be refused at admission"
    );
    let after = server.submit_solve_cg(&finite, &opts, None).expect("admit");
    for ticket in [before, after] {
        let x = ticket.wait().expect("finite request must be served");
        assert_eq!(x.data(), solo.data(), "served CG must match its solo solve");
    }
    assert_eq!(
        server.stats().admitted,
        2,
        "only finite requests are admitted"
    );
}
