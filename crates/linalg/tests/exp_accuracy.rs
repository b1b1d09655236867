//! The vectorised `exp` behind kernel-matrix blocks against libm.
//!
//! * Within 1 ulp of `f64::exp` on a 4M-point sweep of the whole finite
//!   domain `[-745.2, 709.8]` (subnormal and zero results included) and on
//!   random points.
//! * Exact special values: `exp(±0) = 1`, NaN stays NaN, `exp(-inf) = 0`,
//!   `exp(+inf)` and overflow give `+inf`.
//! * The dispatched kernel ([`exp_in_place`], AVX2 on capable hosts) equals
//!   its portable twin [`exp_scalar`] bit for bit, for every slice length.
//!
//! Under `GOFMM_FORCE_SCALAR=1` the dispatched kernel is the twin itself,
//! and the libm bound is what the suite checks.

use gofmm_linalg::simd::{exp_in_place, exp_scalar};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Distance in representable values between two non-negative results
/// (`+inf` is one step above `f64::MAX`, `+0` one below the least subnormal).
fn ulps(a: f64, b: f64) -> u64 {
    assert!(
        a >= 0.0 && b >= 0.0,
        "exp results are non-negative: {a} {b}"
    );
    a.to_bits().abs_diff(b.to_bits())
}

/// Runs the dispatched kernel over `xs` and checks every lane against the
/// twin (bits) and libm (1 ulp); returns the largest libm distance and the
/// count of results that differ from libm at all.
fn check(xs: &[f64]) -> (u64, usize) {
    let mut ys = xs.to_vec();
    exp_in_place(&mut ys);
    let mut worst = 0;
    let mut differ = 0;
    for (&x, &y) in xs.iter().zip(&ys) {
        assert_eq!(
            y.to_bits(),
            exp_scalar(x).to_bits(),
            "x = {x:e}: lanes vs twin"
        );
        let d = ulps(y, x.exp());
        assert!(
            d <= 1,
            "x = {x:e}: {y:e} is {d} ulp from libm {:e}",
            x.exp()
        );
        worst = worst.max(d);
        differ += usize::from(d != 0);
    }
    (worst, differ)
}

#[test]
fn sweep_of_the_whole_domain_is_within_one_ulp_of_libm() {
    const POINTS: usize = 1 << 22;
    let (lo, hi) = (-745.2, 709.8);
    let step = (hi - lo) / (POINTS - 1) as f64;
    let xs: Vec<f64> = (0..POINTS).map(|i| lo + step * i as f64).collect();
    let (worst, differ) = check(&xs);
    // Most results are libm's own; a 1-ulp step is the exception.
    assert!(worst <= 1);
    assert!(differ < POINTS / 5, "{differ} of {POINTS} results differ");
}

#[test]
fn random_points_are_within_one_ulp_of_libm() {
    let mut rng = StdRng::seed_from_u64(0x5eed);
    // The whole domain, the neighbourhood of zero (where the result is near
    // 1 and the reduction is trivial), and the subnormal band.
    let mut xs: Vec<f64> = (0..200_000).map(|_| rng.gen_range(-745.2..709.8)).collect();
    xs.extend((0..100_000).map(|_| rng.gen_range(-1e-3..1e-3)));
    xs.extend((0..100_000).map(|_| rng.gen_range(-745.2..-708.3)));
    xs.extend((0..50_000).map(|_| rng.gen_range(-40.0..0.0)));
    check(&xs);
}

#[test]
fn special_values_are_exact() {
    let xs = [
        0.0,
        -0.0,
        f64::NEG_INFINITY,
        f64::INFINITY,
        709.79,
        710.0,
        1e300,
        -745.2,
        -746.0,
        -1e300,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
    ];
    let mut ys = xs;
    exp_in_place(&mut ys);
    assert_eq!(ys[0].to_bits(), 1.0f64.to_bits(), "exp(+0)");
    assert_eq!(ys[1].to_bits(), 1.0f64.to_bits(), "exp(-0)");
    assert_eq!(ys[2].to_bits(), 0.0f64.to_bits(), "exp(-inf)");
    for (x, y) in xs[3..7].iter().zip(&ys[3..7]) {
        assert_eq!(*y, f64::INFINITY, "exp({x}) overflows");
    }
    for (x, y) in xs[7..10].iter().zip(&ys[7..10]) {
        assert_eq!(y.to_bits(), 0.0f64.to_bits(), "exp({x}) underflows to +0");
    }
    assert_eq!(ys[10], 1.0);
    assert_eq!(ys[11], 1.0);
    // The least subnormal and the largest finite result are reached.
    let mut edge = [-744.44, 709.78];
    exp_in_place(&mut edge);
    assert_eq!(edge[0].to_bits(), 1, "exp(-744.44) is the least subnormal");
    assert!(edge[1].is_finite() && edge[1] > 1.7e308);
    for nan in [f64::NAN, -f64::NAN, f64::from_bits(0x7ff8_0000_dead_beef)] {
        // One NaN in a full vector, one in the tail.
        let mut v = [1.0, nan, -2.0, 3.0, nan];
        exp_in_place(&mut v);
        for i in [1, 4] {
            assert!(v[i].is_nan(), "a NaN input must give NaN");
            assert_eq!(
                v[i].to_bits(),
                nan.to_bits(),
                "the NaN is returned unchanged"
            );
        }
        for (i, x) in [(0, 1.0), (2, -2.0), (3, 3.0)] {
            assert_eq!(
                v[i],
                exp_scalar(x),
                "a NaN lane leaves its neighbours alone"
            );
        }
        assert!(exp_scalar(nan).is_nan());
    }
}

#[test]
fn every_slice_length_takes_the_same_bits() {
    // Vector body, element-wise tail, and the one-element calls entry-wise
    // kernel evaluation makes.
    let base: Vec<f64> = (0..37).map(|i| (i as f64 - 18.0) * 1.37).collect();
    for len in 0..base.len() {
        let mut ys = base[..len].to_vec();
        exp_in_place(&mut ys);
        for (x, y) in base.iter().zip(&ys) {
            assert_eq!(y.to_bits(), exp_scalar(*x).to_bits(), "len {len}, x = {x}");
        }
    }
}
