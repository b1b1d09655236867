//! Concurrent-serving integration: one shared `GofmmOperator` fired at by N
//! threads with mixed applies and solves, every result bit-identical to the
//! sequential baseline — the contract the whole shared-state API redesign
//! exists to guarantee.

use gofmm_suite::core::{GofmmConfig, TraversalPolicy};
use gofmm_suite::linalg::DenseMatrix;
use gofmm_suite::matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_suite::solver::{cg, HierarchicalFactor, Shifted};
use gofmm_suite::{ApplyOptions, GofmmOperator, KrylovOptions};
use std::sync::Arc;

const ALL_POLICIES: [TraversalPolicy; 4] = [
    TraversalPolicy::Sequential,
    TraversalPolicy::LevelByLevel,
    TraversalPolicy::DagHeft,
    TraversalPolicy::DagFifo,
];

fn kernel(n: usize) -> KernelMatrix {
    KernelMatrix::new(
        PointCloud::uniform(n, 3, 23),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "concurrent-serving",
    )
}

/// The operator over [`kernel`], factored by ULV at `lambda`.
fn build_operator_over(k: &KernelMatrix, lambda: f64) -> GofmmOperator<f64> {
    let cfg = GofmmConfig::default()
        .with_leaf_size(48)
        .with_max_rank(48)
        .with_tolerance(1e-9)
        .with_budget(0.0)
        .with_threads(2)
        .with_policy(TraversalPolicy::Sequential);
    GofmmOperator::builder(k)
        .config(cfg)
        .factorize(lambda)
        .build()
        .expect("operator must build")
}

fn build_operator(n: usize, lambda: f64) -> GofmmOperator<f64> {
    build_operator_over(&kernel(n), lambda)
}

fn rhs(n: usize, cols: usize, seed: usize) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(n, cols, |i, j| {
        (((i * 31 + j * 17 + seed * 7) % 23) as f64) / 11.0 - 1.0
    })
}

#[test]
fn shared_operator_serves_mixed_concurrent_traffic_bit_identically() {
    let n = 512;
    let op = Arc::new(build_operator(n, 1e-2));

    // Sequential baselines for every (request kind, width) this test issues.
    let w1 = rhs(n, 1, 0);
    let w3 = rhs(n, 3, 1);
    let u1_ref = op.apply(&w1).expect("baseline apply");
    let u3_ref = op.apply(&w3).expect("baseline apply");
    let x1_ref = op.solve(&w1).expect("baseline solve");
    let x3_ref = op.solve(&w3).expect("baseline solve");
    let (xcg_ref, _) = op
        .solve_cg(&w1, &KrylovOptions::default())
        .expect("baseline CG");

    // 8 client threads, each issuing a mixed stream of applies / direct
    // solves / CG solves under its own traversal policy, against the one
    // shared handle.
    let rounds = 4;
    std::thread::scope(|scope| {
        for t in 0..8 {
            let op = Arc::clone(&op);
            let (w1, w3) = (&w1, &w3);
            let (u1_ref, u3_ref, x1_ref, x3_ref, xcg_ref) =
                (&u1_ref, &u3_ref, &x1_ref, &x3_ref, &xcg_ref);
            let policy = ALL_POLICIES[t % ALL_POLICIES.len()];
            scope.spawn(move || {
                let opts = ApplyOptions::new().with_policy(policy).with_threads(2);
                for round in 0..rounds {
                    match (t + round) % 3 {
                        0 => {
                            let (u1, _) = op.apply_with(w1, &opts).unwrap();
                            let (u3, _) = op.apply_with(w3, &opts).unwrap();
                            assert_eq!(u1.data(), u1_ref.data(), "{policy}: apply w1 drifted");
                            assert_eq!(u3.data(), u3_ref.data(), "{policy}: apply w3 drifted");
                        }
                        1 => {
                            let x1 = op.solve_with(w1, &opts).unwrap();
                            let x3 = op.solve_with(w3, &opts).unwrap();
                            assert_eq!(x1.data(), x1_ref.data(), "{policy}: solve w1 drifted");
                            assert_eq!(x3.data(), x3_ref.data(), "{policy}: solve w3 drifted");
                        }
                        _ => {
                            let (x, stats) = op.solve_cg(w1, &KrylovOptions::default()).unwrap();
                            assert!(stats.converged, "{policy}: CG failed to converge");
                            assert_eq!(x.data(), xcg_ref.data(), "{policy}: CG drifted");
                        }
                    }
                }
            });
        }
    });
}

#[test]
fn concurrent_evaluator_and_factor_handles_match_one_shot_pipeline() {
    // The operator's engines are also reachable directly; concurrent use of
    // the evaluator and the factorization through their &self entry points
    // must agree with one-shot results — for the operator's ULV factor and
    // for an SMW factor of its compression.
    let n = 384;
    let k = kernel(n);
    let op = Arc::new(build_operator_over(&k, 5e-2));
    let smw = HierarchicalFactor::new(&k, op.compressed(), 5e-2).expect("SMW factor");
    let w = rhs(n, 2, 3);
    let u_ref = op.apply(&w).unwrap();
    let ulv = op.ulv_factor().expect("ULV-backed handle");
    type Solve<'f> = &'f (dyn Fn(&DenseMatrix<f64>) -> DenseMatrix<f64> + Sync);
    let engines: [(&str, DenseMatrix<f64>, Solve); 2] = [
        ("ULV", op.solve(&w).unwrap(), &|w| ulv.solve(w).unwrap()),
        ("SMW", smw.solve(&w).unwrap(), &|w| smw.solve(w).unwrap()),
    ];
    for (backend, x_ref, solve) in engines {
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let op = Arc::clone(&op);
                let w = &w;
                let (u_ref, x_ref) = (&u_ref, &x_ref);
                scope.spawn(move || {
                    let (u, _) = op.evaluator().apply(w).unwrap();
                    let x = solve(w);
                    assert_eq!(u.data(), u_ref.data());
                    assert_eq!(x.data(), x_ref.data(), "{backend:?} engine drifted");
                });
            }
        });
    }
}

#[test]
fn smw_backed_operator_still_serves_concurrent_traffic_bit_identically() {
    // The SMW factorization of the operator's compression keeps the same
    // serving contract next to the shared handle: mixed policies,
    // bit-identical to its own sequential baseline.
    let n = 384;
    let lambda = 1e-2;
    let k = kernel(n);
    let op = Arc::new(build_operator_over(&k, lambda));
    let smw = HierarchicalFactor::new(&k, op.compressed(), lambda).expect("SMW factor");
    let shifted = Shifted::new(op.evaluator(), lambda);
    let w = rhs(n, 2, 5);
    let x_ref = smw.solve(&w).expect("baseline solve");
    let (xcg_ref, _) = cg(&shifted, &smw, &w, &KrylovOptions::default()).expect("baseline CG");
    std::thread::scope(|scope| {
        for t in 0..4 {
            let (smw, shifted) = (&smw, &shifted);
            let w = &w;
            let (x_ref, xcg_ref) = (&x_ref, &xcg_ref);
            let policy = ALL_POLICIES[t % ALL_POLICIES.len()];
            scope.spawn(move || {
                let opts = ApplyOptions::new().with_policy(policy).with_threads(2);
                for _ in 0..3 {
                    let x = smw.solve_with(w, &opts).unwrap();
                    assert_eq!(x.data(), x_ref.data(), "{policy}: SMW solve drifted");
                    let (xcg, _) = cg(shifted, smw, w, &KrylovOptions::default()).unwrap();
                    assert_eq!(xcg.data(), xcg_ref.data(), "{policy}: SMW CG drifted");
                }
            });
        }
    });
}

#[test]
fn operator_handle_is_send_and_sync() {
    fn assert_send_sync<X: Send + Sync>(_: &X) {}
    let op = build_operator(128, 1e-2);
    assert_send_sync(&op);
}
