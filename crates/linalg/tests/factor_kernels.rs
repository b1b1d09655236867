//! The dense kernels of the ULV `FACTOR` sweep against their textbook forms.
//!
//! * `Cholesky::factor` (a right-looking column sweep) must reproduce the
//!   dot form `l_ij = (a_ij - sum_k l_ik l_jk) / l_jj` bit for bit: the
//!   factor of every SPD matrix, and the pivot and value of every breakdown.
//! * `rotate_symmetric` must agree with two passes of the reflectors,
//!   `Q^T (Q^T A)^T`, to roundoff on both sides of the compact-WY crossover
//!   (`ulv::ROTATE_WY_MIN_ORDER`), and its result must be exactly symmetric.
//! * The solve sweeps' `WyRotation` must apply `Q^T` and `Q` as the
//!   reflectors do, to roundoff from `ulv::SOLVE_WY_MIN_ORDER` on and bit
//!   for bit below it; each column of a batched apply must equal its
//!   one-column apply bit for bit; and it must never store more scalars than
//!   the QR it replaces (`m k + k`).

use gofmm_linalg::ulv::{ROTATE_WY_MIN_ORDER, SOLVE_WY_MIN_ORDER, SOLVE_WY_NB};
use gofmm_linalg::{
    householder_qr, rotate_symmetric, Cholesky, DenseMatrix, QrFactors, Scalar, WyRotation,
};
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

/// A QR of a random `m x k` basis, column `zero_col` zeroed so that its
/// reflector has `tau = 0`.
fn basis_qr<T: Scalar>(
    m: usize,
    k: usize,
    zero_col: Option<usize>,
    rng: &mut StdRng,
) -> QrFactors<T> {
    let mut u = DenseMatrix::<T>::random_gaussian(m, k, rng);
    if let Some(c) = zero_col {
        u.col_mut(c).fill(T::zero());
    }
    householder_qr(&u)
}

/// Shapes on both sides of the block width and of the GEMM gate: no
/// reflector, one, `m - 1`, ragged last blocks, and a `tau = 0` reflector.
fn wy_shapes() -> Vec<(usize, usize, Option<usize>)> {
    let (g, nb) = (SOLVE_WY_MIN_ORDER, SOLVE_WY_NB);
    vec![
        (1, 0, None),
        (2, 1, None),
        (7, 0, None),
        (7, 1, None),
        (7, 6, None),
        (40, 21, Some(3)),
        (g - 1, 2 * nb, None),
        (g - 1, g - 2, None),
        (g, 0, None),
        (g, 1, None),
        (g, 2, None),
        (g, nb - 1, None),
        (g, nb + 1, None),
        (g, 2 * nb - 1, None),
        (g, 2 * nb, None),
        (g, 2 * nb + 1, Some(nb)),
        (g, g - 1, None),
        (g + 1, 2 * nb + 37, Some(2)),
        (256, 128, None),
    ]
}

fn max_col_err<T: Scalar>(a: &DenseMatrix<T>, b: &DenseMatrix<T>, scale: &DenseMatrix<T>) -> f64 {
    (0..a.cols())
        .map(|j| {
            let d: f64 = a
                .col(j)
                .iter()
                .zip(b.col(j))
                .map(|(x, y)| (x.to_f64() - y.to_f64()).powi(2))
                .sum();
            let n: f64 = scale.col(j).iter().map(|x| x.to_f64().powi(2)).sum();
            (d / n).sqrt()
        })
        .fold(0.0, f64::max)
}

fn check_wy_rotation<T: Scalar>(m: usize, k: usize, zero_col: Option<usize>, rng: &mut StdRng) {
    let what = format!("{} m = {m}, k = {k}", T::precision_name());
    let q = basis_qr::<T>(m, k, zero_col, rng);
    let wy = WyRotation::from_qr(&q);
    assert_eq!((wy.rows(), wy.rank()), (m, k), "{what}");
    assert_eq!(
        Some(wy.stored_scalars()),
        WyRotation::<T>::stored_scalars_for(m, k),
        "{what}: stored scalars"
    );
    let b = DenseMatrix::<T>::random_gaussian(m, 5, rng);
    let tol = 16.0 * T::epsilon().to_f64();
    for transpose in [true, false] {
        let (mut ours, mut theirs) = (b.clone(), b.clone());
        if transpose {
            wy.apply_qt(&mut ours);
            q.apply_qt(&mut theirs);
        } else {
            wy.apply_q(&mut ours);
            q.apply_q(&mut theirs);
        }
        if m < SOLVE_WY_MIN_ORDER {
            // The reflector loop on the stored blocks: the QR's bits.
            assert!(
                ours.data()
                    .iter()
                    .zip(theirs.data())
                    .all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits()),
                "{what}, transpose {transpose}: reflector loop bits differ from the QR's"
            );
        }
        let err = max_col_err(&ours, &theirs, &b);
        assert!(
            err <= tol,
            "{what}, transpose {transpose}: |WY - reflectors| / |b| = {err:.3e} > {tol:.3e}"
        );
    }
    let mut roundtrip = b.clone();
    wy.apply_qt(&mut roundtrip);
    wy.apply_q(&mut roundtrip);
    let err = max_col_err(&roundtrip, &b, &b);
    assert!(
        err <= tol,
        "{what}: |Q Q^T b - b| / |b| = {err:.3e} > {tol:.3e}"
    );
}

#[test]
fn wy_rotation_applies_the_reflectors() {
    let mut rng = StdRng::seed_from_u64(3101);
    for (m, k, zero_col) in wy_shapes() {
        check_wy_rotation::<f64>(m, k, zero_col, &mut rng);
        check_wy_rotation::<f32>(m, k, zero_col, &mut rng);
    }
}

fn check_wy_width_independence<T: Scalar>(m: usize, k: usize, rng: &mut StdRng) {
    let wy = WyRotation::from_qr(&basis_qr::<T>(m, k, None, rng));
    for r in [1, 4, 7, 32, 33, 64] {
        let b = DenseMatrix::<T>::random_gaussian(m, r, rng);
        for transpose in [true, false] {
            let apply = |x: &mut DenseMatrix<T>| {
                if transpose {
                    wy.apply_qt(x)
                } else {
                    wy.apply_q(x)
                }
            };
            let mut wide = b.clone();
            apply(&mut wide);
            for j in 0..r {
                let mut one = b.block(0, m, j, j + 1);
                apply(&mut one);
                assert!(
                    one.col(0).iter().zip(wide.col(j)).all(|(x, y)| x.to_f64().to_bits() == y.to_f64().to_bits()),
                    "{} m = {m}, k = {k}, r = {r}, transpose {transpose}: column {j} differs from its one-column apply",
                    T::precision_name()
                );
            }
        }
    }
}

#[test]
fn wy_rotation_columns_match_their_one_column_apply() {
    let mut rng = StdRng::seed_from_u64(3102);
    let g = SOLVE_WY_MIN_ORDER;
    for (m, k) in [(40, 21), (g - 1, 100), (g, 2 * SOLVE_WY_NB + 3), (256, 128)] {
        check_wy_width_independence::<f64>(m, k, &mut rng);
        check_wy_width_independence::<f32>(m, k, &mut rng);
    }
}

#[test]
fn wy_rotation_never_stores_more_than_the_qr() {
    for m in 1..=300 {
        for k in 0..=m {
            let stored = WyRotation::<f64>::stored_scalars_for(m, k).expect("no overflow");
            assert!(
                stored <= m * k + k,
                "m = {m}, k = {k}: {stored} > {}",
                m * k + k
            );
        }
    }
    assert_eq!(WyRotation::<f64>::stored_scalars_for(usize::MAX, 2), None);
}
