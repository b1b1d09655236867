//! The enforced accuracy envelope of the two solver backends.
//!
//! Sweeps the regularization `lambda` across `1e-8 ..= 1e8` times the
//! operator's spectral scale on a kernel zoo and pins down, per backend:
//!
//! * **ULV** (`UlvFactor`, the default): normwise backward error
//!   `eta = ||b - A x|| / (||A|| ||x|| + ||b||)` at roundoff level for
//!   *every* `lambda` — the backward-stability contract — and
//!   ULV-preconditioned CG converging within a handful of iterations at
//!   both extremes.
//! * **SMW** (`HierarchicalFactor`): accurate near the operator scale (its
//!   documented envelope), *degraded* at the small-`lambda` extreme where
//!   its `(I + C G)^{-1}` cores condition like the system itself. The
//!   degradation is asserted too: if either backend's envelope moves — ULV
//!   regressing, or SMW silently becoming stable (making the envelope note
//!   stale) — this suite fails loudly.
//!
//! Solutions are additionally checked bit-identical across all four
//! traversal policies at the extremes.

use gofmm_suite::core::{compress, Evaluator, GofmmConfig, PanelPrecision, TraversalPolicy};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{KernelMatrix, KernelType, PointCloud, SpdMatrix};
use gofmm_suite::solver::{cg, HierarchicalFactor, LinearOperator, Shifted, UlvFactor};
use gofmm_suite::{ApplyOptions, KrylovOptions};

/// The swept relative regularizations `lambda / ||K||`.
const LAMBDA_RELS: [f64; 9] = [1e-8, 1e-6, 1e-4, 1e-2, 1.0, 1e2, 1e4, 1e6, 1e8];

/// SMW's documented safe band: `lambda` within a few orders of the operator
/// scale (and everything above — large shifts only make its cores better
/// conditioned).
const SMW_SAFE_MIN_REL: f64 = 1e-4;

/// Backward-error ceiling enforced on SMW inside its safe band (and the
/// line above which it counts as degraded outside).
const ETA_PASS: f64 = 1e-8;

/// Backward-error ceiling enforced on ULV everywhere: the backward-stability
/// contract (observed values sit near 1e-16; the slack covers platform
/// rounding differences).
const ULV_ETA_PASS: f64 = 1e-12;

/// The kernel zoo swept by this suite: smooth, entry-evaluated kernel
/// matrices with a near-machine-precision nugget (`1e-9`). Smoothness makes
/// the compression essentially exact at the configured tolerance (the sweep
/// factors the operator it measures residuals against — a loose compression
/// would make `K~ + lambda I` indefinite at the smallest `lambda` for *any*
/// backend), while the fast spectral decay drives `lambda_min` down to the
/// nugget, so the small-`lambda` end really exercises condition numbers
/// beyond 1e10.
fn kernel_zoo(n: usize) -> Vec<KernelMatrix> {
    vec![
        KernelMatrix::new(
            PointCloud::uniform(n, 3, 11),
            KernelType::Gaussian { bandwidth: 1.0 },
            1e-9,
            "gauss-1.0",
        ),
        KernelMatrix::new(
            PointCloud::uniform(n, 3, 12),
            KernelType::Gaussian { bandwidth: 2.0 },
            1e-9,
            "gauss-2.0",
        ),
        KernelMatrix::new(
            PointCloud::uniform(n, 3, 13),
            KernelType::Laplace { shift: 1.0 },
            1e-9,
            "laplace-1.0",
        ),
        KernelMatrix::new(
            PointCloud::uniform(n, 3, 14),
            KernelType::InverseMultiquadric { c: 2.0 },
            1e-9,
            "imq-2.0",
        ),
    ]
}

fn envelope_config() -> GofmmConfig {
    GofmmConfig::default()
        .with_leaf_size(32)
        .with_max_rank(96)
        .with_tolerance(1e-12)
        .with_budget(0.0) // pure HSS: the factorizations cover the operator
        .with_threads(2)
        .with_policy(TraversalPolicy::Sequential)
}

/// Power-iteration estimate of the operator's spectral scale `||K~||_2`.
fn operator_scale(ev: &Evaluator<'_, f64>, n: usize) -> f64 {
    let mut v = DenseMatrix::<f64>::from_fn(n, 1, |i, _| ((i % 7) as f64) - 3.0);
    let mut scale = 1.0f64;
    for _ in 0..5 {
        let av = ev.matvec(&v).unwrap();
        scale = av.norm_fro() / v.norm_fro();
        let inv = 1.0 / av.norm_fro();
        v = av;
        v.scale(inv);
    }
    scale
}

/// Normwise backward error of `x` as a solve of `(K~ + lambda I) x = b`.
fn backward_error(
    op: &Shifted<&Evaluator<'_, f64>>,
    opnorm: f64,
    x: &DenseMatrix<f64>,
    b: &DenseMatrix<f64>,
) -> f64 {
    let resid = op.matvec(x).unwrap().sub(b).norm_fro();
    resid / (opnorm * x.norm_fro() + b.norm_fro())
}

/// One measured row of the envelope sweep.
struct Row {
    matrix: String,
    lambda_rel: f64,
    eta_ulv: f64,
    eta_smw: f64,
}

/// Run the sweep over the zoo, collecting backward errors for both backends.
fn sweep(n: usize) -> Vec<Row> {
    let cfg = envelope_config();
    let mut rows = Vec::new();
    for k in kernel_zoo(n) {
        let comp = compress::<f64, _>(&k, &cfg);
        let ev = Evaluator::new(&k, &comp);
        let scale = operator_scale(&ev, n);
        let b = DenseMatrix::<f64>::from_fn(n, 1, |i, _| (((i * 31) % 23) as f64) / 11.0 - 1.0);
        for rel in LAMBDA_RELS {
            let lambda = rel * scale;
            let ulv = UlvFactor::new(&k, &comp, lambda).expect("ULV factorization");
            let smw = HierarchicalFactor::new(&k, &comp, lambda).expect("SMW factorization");
            let op = Shifted::new(&ev, lambda);
            let opnorm = scale + lambda;
            let x_ulv = ulv.solve(&b).expect("ULV solve");
            let x_smw = smw.solve(&b).expect("SMW solve");
            rows.push(Row {
                matrix: SpdMatrix::<f64>::name(&k),
                lambda_rel: rel,
                eta_ulv: backward_error(&op, opnorm, &x_ulv, &b),
                eta_smw: backward_error(&op, opnorm, &x_smw, &b),
            });
        }
    }
    rows
}

#[test]
fn ulv_is_backward_stable_across_the_full_lambda_range() {
    let rows = sweep(320);
    println!(
        "{:<12} {:>10} {:>12} {:>12}",
        "matrix", "lambda/||K||", "eta_ulv", "eta_smw"
    );
    for r in &rows {
        println!(
            "{:<12} {:>10.0e} {:>12.2e} {:>12.2e}",
            r.matrix, r.lambda_rel, r.eta_ulv, r.eta_smw
        );
    }
    // ULV: backward error at roundoff level for every matrix and lambda.
    for r in &rows {
        assert!(
            r.eta_ulv <= ULV_ETA_PASS,
            "{} at lambda = {:.0e} x scale: ULV backward error {:.2e} above {ULV_ETA_PASS:.0e}",
            r.matrix,
            r.lambda_rel,
            r.eta_ulv
        );
    }
    // SMW inside its documented envelope: as accurate as ULV's ceiling.
    for r in rows.iter().filter(|r| r.lambda_rel >= SMW_SAFE_MIN_REL) {
        assert!(
            r.eta_smw <= ETA_PASS,
            "{} at lambda = {:.0e} x scale: SMW backward error {:.2e} left its safe band",
            r.matrix,
            r.lambda_rel,
            r.eta_smw
        );
    }
    // SMW outside: documented-degraded. The worst zoo case at the smallest
    // lambda must sit clearly above the pass line (if SMW ever becomes
    // backward stable, the envelope note — and this suite — must change).
    let worst_smw_small = rows
        .iter()
        .filter(|r| r.lambda_rel <= 1e-8)
        .map(|r| r.eta_smw)
        .fold(0.0f64, f64::max);
    assert!(
        worst_smw_small > ETA_PASS,
        "SMW no longer degrades at lambda = 1e-8 x scale (worst eta {worst_smw_small:.2e}); \
         the stability-envelope documentation is stale"
    );
}

#[test]
fn ulv_preconditioned_cg_converges_in_few_iterations_at_the_extremes() {
    // The acceptance bar: at lambda = 1e-6 x scale (where SMW's residual
    // demonstrably degrades — see the sweep above) and at 1e6 x scale, CG
    // preconditioned by the ULV factorization reaches 1e-10 within 10
    // iterations on every zoo matrix.
    let n = 320;
    let cfg = envelope_config();
    let opts = KrylovOptions {
        tol: 1e-10,
        max_iters: 50,
        ..KrylovOptions::default()
    };
    for k in kernel_zoo(n) {
        let name = SpdMatrix::<f64>::name(&k);
        let comp = compress::<f64, _>(&k, &cfg);
        let ev = Evaluator::new(&k, &comp);
        let scale = operator_scale(&ev, n);
        let b = DenseMatrix::<f64>::from_fn(n, 1, |i, _| (((i * 13) % 29) as f64) / 14.0 - 1.0);
        for rel in [1e-6, 1e6] {
            let lambda = rel * scale;
            let ulv = UlvFactor::new(&k, &comp, lambda).expect("ULV factorization");
            let op = Shifted::new(&ev, lambda);
            let (_, stats) = cg(&op, &ulv, &b, &opts).expect("well-formed system");
            println!(
                "{name} at lambda = {rel:.0e} x scale: ULV-preconditioned CG \
                 {} iterations, residual {:.2e}",
                stats.iterations, stats.relative_residual
            );
            assert!(
                stats.converged,
                "{name} at lambda = {rel:.0e} x scale: CG stalled at {:.2e}",
                stats.relative_residual
            );
            assert!(
                stats.iterations <= 10,
                "{name} at lambda = {rel:.0e} x scale: {} CG iterations",
                stats.iterations
            );
        }
    }
}

#[test]
fn mixed_precision_panels_stay_inside_the_serving_envelope() {
    // The f32-storage / f64-accumulation panel mode must (a) actually halve
    // the evaluator's cached footprint on the zoo, (b) keep matvecs within
    // single-precision relative error of the native-storage evaluator, and
    // (c) leave the full-precision ULV factorization usable as a CG
    // preconditioner for the mixed-storage operator at a tolerance the f32
    // panel rounding can support.
    let n = 320;
    let cfg = envelope_config();
    let cfg_mixed = envelope_config().with_panel_precision(PanelPrecision::MixedF32);
    for k in kernel_zoo(n) {
        let name = SpdMatrix::<f64>::name(&k);
        let comp = compress::<f64, _>(&k, &cfg);
        let comp_mixed = compress::<f64, _>(&k, &cfg_mixed);
        let ev = Evaluator::new(&k, &comp);
        let ev_mixed = Evaluator::new(&k, &comp_mixed);
        assert_eq!(ev_mixed.panel_precision(), PanelPrecision::MixedF32);
        let ratio = ev_mixed.cached_bytes() as f64 / ev.cached_bytes() as f64;
        println!(
            "{name}: cached bytes {} -> {} (ratio {ratio:.3})",
            ev.cached_bytes(),
            ev_mixed.cached_bytes()
        );
        assert!(
            ratio <= 0.55,
            "{name}: mixed panels only shrank storage to {ratio:.3}x"
        );

        let w =
            DenseMatrix::<f64>::from_fn(n, 2, |i, j| (((i * 17 + j * 5) % 13) as f64) / 6.0 - 1.0);
        let u = ev.matvec(&w).unwrap();
        let u_mixed = ev_mixed.matvec(&w).unwrap();
        let rel = u_mixed.sub(&u).norm_fro() / u.norm_fro();
        assert!(
            rel <= 1e-5,
            "{name}: mixed-storage matvec drifted {rel:.2e} from native"
        );

        // ULV runs in full precision on the compression; preconditioning the
        // mixed-storage operator still converges, to a tolerance compatible
        // with the f32 panel rounding in the matvec.
        let scale = operator_scale(&ev, n);
        let lambda = 1e-2 * scale;
        let ulv = UlvFactor::new(&k, &comp_mixed, lambda).expect("ULV factorization");
        let op = Shifted::new(&ev_mixed, lambda);
        let b = DenseMatrix::<f64>::from_fn(n, 1, |i, _| (((i * 13) % 29) as f64) / 14.0 - 1.0);
        let opts = KrylovOptions {
            tol: 1e-6,
            max_iters: 50,
            ..KrylovOptions::default()
        };
        let (_, stats) = cg(&op, &ulv, &b, &opts).expect("well-formed system");
        assert!(
            stats.converged,
            "{name}: CG on the mixed-storage operator stalled at {:.2e}",
            stats.relative_residual
        );
    }
}

#[test]
fn ulv_solves_are_bit_identical_across_policies_at_the_extremes() {
    // Scheduling must never change bits, including at the extreme ends of
    // the regularization range.
    let n = 320;
    let cfg = envelope_config();
    let k = &kernel_zoo(n)[0];
    let comp = compress::<f64, _>(k, &cfg);
    let ev = Evaluator::new(k, &comp);
    let scale = operator_scale(&ev, n);
    let b = DenseMatrix::<f64>::from_fn(n, 2, |i, j| (((i + 7 * j) % 19) as f64) / 9.0 - 1.0);
    for rel in [1e-8, 1e8] {
        let ulv = UlvFactor::new(k, &comp, rel * scale).expect("ULV factorization");
        let x_ref = ulv.solve(&b).expect("baseline solve");
        for policy in [
            TraversalPolicy::Sequential,
            TraversalPolicy::LevelByLevel,
            TraversalPolicy::DagHeft,
            TraversalPolicy::DagFifo,
        ] {
            for threads in [1, 4] {
                let opts = ApplyOptions::new()
                    .with_policy(policy)
                    .with_threads(threads);
                let x = ulv.solve_with(&b, &opts).expect("solve");
                assert_eq!(
                    x.data(),
                    x_ref.data(),
                    "lambda = {rel:.0e} x scale, {policy}/{threads} threads: solve drifted"
                );
            }
        }
    }
}
