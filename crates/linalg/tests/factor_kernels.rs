//! The dense kernels of the ULV `FACTOR` sweep against their textbook forms.
//!
//! * `Cholesky::factor` (a right-looking column sweep) must reproduce the
//!   dot form `l_ij = (a_ij - sum_k l_ik l_jk) / l_jj` bit for bit: the
//!   factor of every SPD matrix, and the pivot and value of every breakdown.
//! * `rotate_symmetric` must agree with two passes of the reflectors,
//!   `Q^T (Q^T A)^T`, to roundoff on both sides of the compact-WY crossover
//!   (`ulv::ROTATE_WY_MIN_ORDER`), and its result must be exactly symmetric.

use gofmm_linalg::ulv::ROTATE_WY_MIN_ORDER;
use gofmm_linalg::{householder_qr, rotate_symmetric, Cholesky, DenseMatrix, Scalar};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The dot-form Cholesky the sweep replaced: `Ok(L)`, or the failed pivot
/// and its downdated value.
fn cholesky_dot_form<T: Scalar>(a: &DenseMatrix<T>) -> Result<DenseMatrix<T>, (usize, f64)> {
    let n = a.rows();
    let mut l = DenseMatrix::zeros(n, n);
    for j in 0..n {
        let mut d = a.get(j, j);
        for k in 0..j {
            let v = l.get(j, k);
            d -= v * v;
        }
        if d.to_f64() <= 0.0 || !d.is_finite() {
            return Err((j, d.to_f64()));
        }
        let dj = d.sqrt();
        l.set(j, j, dj);
        for i in (j + 1)..n {
            let mut s = a.get(i, j);
            for k in 0..j {
                s -= l.get(i, k) * l.get(j, k);
            }
            l.set(i, j, s / dj);
        }
    }
    Ok(l)
}

/// A random symmetric, strictly diagonally dominant (hence SPD) matrix.
fn random_spd<T: Scalar>(n: usize, rng: &mut StdRng) -> DenseMatrix<T> {
    let mut a = DenseMatrix::zeros(n, n);
    for j in 0..n {
        for i in j..n {
            let v = if i == j {
                n as f64 + rng.gen_range(0.0..1.0)
            } else {
                rng.gen_range(-1.0..1.0)
            };
            a.set(i, j, T::from_f64(v));
            a.set(j, i, T::from_f64(v));
        }
    }
    a
}

fn assert_cholesky_matches_dot_form<T: Scalar>(a: &DenseMatrix<T>, what: &str) {
    match (Cholesky::factor(a), cholesky_dot_form(a)) {
        (Ok(chol), Ok(l)) => assert!(
            chol.l()
                .data()
                .iter()
                .zip(l.data())
                .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits()),
            "{what}: factor bits differ from the dot form"
        ),
        (Err(e), Err((pivot, value))) => {
            assert_eq!(e.pivot, pivot, "{what}: breakdown pivot");
            assert_eq!(
                e.value.to_bits(),
                value.to_bits(),
                "{what}: breakdown value"
            );
        }
        (ours, theirs) => panic!(
            "{what}: outcomes differ: {:?} vs {:?}",
            ours.map(|_| ()),
            theirs.map(|_| ())
        ),
    }
}

#[test]
fn cholesky_is_bit_identical_to_the_dot_form() {
    let mut rng = StdRng::seed_from_u64(2801);
    for n in 1..=300 {
        let a = random_spd::<f64>(n, &mut rng);
        assert_cholesky_matches_dot_form(&a, &format!("f64 n = {n}"));
    }
    for n in [1, 5, 64, 129] {
        let a = random_spd::<f32>(n, &mut rng);
        assert_cholesky_matches_dot_form(&a, &format!("f32 n = {n}"));
    }
}

#[test]
fn cholesky_breakdown_reports_the_dot_form_pivot_and_value() {
    let mut rng = StdRng::seed_from_u64(2802);
    for (n, bad) in [(1, 0), (6, 3), (40, 39), (130, 70), (257, 200)] {
        // Indefinite: a strongly negative diagonal entry.
        let mut a = random_spd::<f64>(n, &mut rng);
        a.set(bad, bad, -(n as f64));
        assert_cholesky_matches_dot_form(&a, &format!("indefinite n = {n}"));
        // Singular at roundoff: the pivot's downdated value is tiny but has
        // to come out of the same subtractions.
        let mut a = random_spd::<f64>(n, &mut rng);
        let d = cholesky_dot_form(&a.block(0, bad + 1, 0, bad + 1))
            .map(|l| l.get(bad, bad) * l.get(bad, bad))
            .expect("leading block is SPD");
        a.set(bad, bad, a.get(bad, bad) - d);
        assert_cholesky_matches_dot_form(&a, &format!("singular n = {n}"));
        // A NaN off the diagonal poisons the first pivot below it.
        if bad > 0 {
            let mut a = random_spd::<f64>(n, &mut rng);
            a.set(bad, 0, f64::NAN);
            let err = Cholesky::factor(&a).unwrap_err();
            assert_eq!(err.pivot, bad, "NaN at ({bad}, 0), n = {n}");
            assert!(err.value.is_nan());
        }
    }
}

/// `Q^T (Q^T A)^T` with one reflector at a time: the narrow-shape form of
/// `rotate_symmetric`, and the reference of its WY form.
fn rotate_two_pass<T: Scalar>(
    q: &gofmm_linalg::QrFactors<T>,
    a: &DenseMatrix<T>,
) -> DenseMatrix<T> {
    let mut m1 = a.clone();
    q.apply_qt(&mut m1);
    let mut m2 = m1.transpose();
    q.apply_qt(&mut m2);
    m2.transpose()
}

fn check_rotation<T: Scalar>(m: usize, k: usize, zero_col: Option<usize>, rng: &mut StdRng) {
    let g = DenseMatrix::<T>::random_gaussian(m, m, rng);
    let mut a = g.add(&g.transpose());
    for i in 0..m {
        a.set(i, i, a.get(i, i) + T::from_f64(2.0 * m as f64));
    }
    let mut u = DenseMatrix::<T>::random_gaussian(m, k, rng);
    if let Some(c) = zero_col {
        u.col_mut(c).fill(T::zero()); // a reflector with tau = 0
    }
    let q = householder_qr(&u);
    let rotated = rotate_symmetric(&q, &a);
    let reference = rotate_two_pass(&q, &a);
    // 1e-13 in f64, the same multiple of the unit roundoff in f32.
    let tol = 1e-13 * T::epsilon().to_f64() / f64::EPSILON * a.norm_max().to_f64();
    let err = rotated.sub(&reference).norm_max().to_f64();
    assert!(
        err <= tol,
        "{} m = {m}, k = {k}: |WY - two-pass| = {err:.3e} > {tol:.3e}",
        T::precision_name()
    );
    for j in 0..m {
        for i in 0..m {
            assert!(
                rotated.get(i, j) == rotated.get(j, i),
                "{} m = {m}, k = {k}: not symmetric at ({i}, {j})",
                T::precision_name()
            );
        }
    }
}

#[test]
fn rotate_symmetric_agrees_with_two_reflector_passes() {
    let c = ROTATE_WY_MIN_ORDER;
    let shapes = [
        (1, 0, None),
        (1, 1, None),
        (7, 0, None),
        (7, 7, None),
        (c - 1, 16, None),
        (c - 1, 40, None),
        (c, 0, None),
        (c, 1, None),
        (c, 16, None),
        (c, 2 * c / 3 - 1, None),
        (c, 2 * c / 3, None),
        (c, c, None),
        (c + 37, 40, Some(5)),
        (2 * c, c, None),
        (256, 128, None),
    ];
    let mut rng = StdRng::seed_from_u64(2803);
    for &(m, k, zero_col) in &shapes {
        check_rotation::<f64>(m, k, zero_col, &mut rng);
        check_rotation::<f32>(m, k, zero_col, &mut rng);
    }
}
