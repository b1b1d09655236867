//! Property-based battery for the batched serving front door: random
//! mixes of `apply` / `solve` / `solve_cg` requests with random widths and
//! arrival orders, pushed through a [`BatchedServer`] configured to
//! coalesce aggressively, must resolve bit-identically to running the same
//! requests one at a time on the bare operator — under every traversal
//! policy the batch executor can schedule with.
//!
//! This is the contract the whole serving layer rests on: coalescing is a
//! pure throughput optimization, invisible in the results.

use std::sync::Arc;
use std::time::Duration;

use gofmm_core::{ApplyOptions, GofmmConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_solver::{BatchedServer, GofmmOperator, KrylovOptions, ServeConfig};
use proptest::prelude::*;

const ALL_POLICIES: [TraversalPolicy; 4] = [
    TraversalPolicy::Sequential,
    TraversalPolicy::LevelByLevel,
    TraversalPolicy::DagHeft,
    TraversalPolicy::DagFifo,
];

/// What one random client asks for.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Op {
    Apply,
    Solve,
    SolveCg,
}

/// One random request mix over one random operator.
#[derive(Clone, Debug)]
struct Mix {
    seed: u64,
    requests: Vec<(Op, usize)>, // (operation, rhs width)
}

fn arb_request() -> impl Strategy<Value = (Op, usize)> {
    // Up to eight columns a request, so coalesced batches routinely cross the
    // GEMM's `NR`-column chunk tails and, at the 32-column batch cap, its
    // stream/packed gate.
    (0u8..3, 1usize..=8).prop_map(|(op, width)| {
        let op = match op {
            0 => Op::Apply,
            1 => Op::Solve,
            _ => Op::SolveCg,
        };
        (op, width)
    })
}

fn arb_mix() -> impl Strategy<Value = Mix> {
    (0u64..1000, 3usize..=8).prop_flat_map(|(seed, len)| {
        prop::collection::vec(arb_request(), len).prop_map(move |requests| Mix { seed, requests })
    })
}

fn build_operator(seed: u64) -> Arc<GofmmOperator<f64>> {
    let n = 192;
    let kernel = KernelMatrix::new(
        PointCloud::uniform(n, 3, seed),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "proptest-batching",
    );
    let config = GofmmConfig::default()
        .with_leaf_size(32)
        .with_max_rank(32)
        .with_tolerance(1e-7)
        .with_budget(0.0)
        .with_threads(2)
        .with_policy(TraversalPolicy::Sequential);
    Arc::new(
        GofmmOperator::builder(&kernel)
            .config(config)
            .factorize(1e-2)
            .build()
            .expect("build operator"),
    )
}

fn rhs_matrix(n: usize, cols: usize, seed: u64) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(n, cols, |i, j| {
        (((i as u64 * 31 + j as u64 * 17 + seed * 7) % 23) as f64) / 11.0 - 1.0
    })
}

fn cg_opts() -> KrylovOptions {
    KrylovOptions {
        tol: 1e-8,
        max_iters: 200,
        ..KrylovOptions::default()
    }
}

/// The sequential one-at-a-time baseline on the bare operator.
fn baseline(op: &GofmmOperator<f64>, kind: Op, rhs: &DenseMatrix<f64>) -> DenseMatrix<f64> {
    match kind {
        Op::Apply => op.apply(rhs).expect("baseline apply"),
        Op::Solve => op.solve(rhs).expect("baseline solve"),
        Op::SolveCg => op.solve_cg(rhs, &cg_opts()).expect("baseline cg").0,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every request in a random coalesced mix resolves to exactly the bits
    /// the bare operator produces for it alone, for all four traversal
    /// policies of the batch executor.
    #[test]
    fn coalesced_mixes_are_bit_identical_to_sequential(mix in arb_mix()) {
        let op = build_operator(mix.seed);
        let n = op.n();
        let inputs: Vec<(Op, DenseMatrix<f64>)> = mix
            .requests
            .iter()
            .enumerate()
            .map(|(i, &(kind, width))| (kind, rhs_matrix(n, width, mix.seed + i as u64)))
            .collect();
        let expected: Vec<DenseMatrix<f64>> = inputs
            .iter()
            .map(|(kind, rhs)| baseline(&op, *kind, rhs))
            .collect();

        for policy in ALL_POLICIES {
            // A generous holdoff piles the whole burst into as few batches
            // as compatibility allows, maximizing the coalescing under test.
            let cfg = ServeConfig::default()
                .with_holdoff(Duration::from_millis(25))
                .with_options(ApplyOptions::new().with_policy(policy).with_threads(2));
            let server = BatchedServer::new(Arc::clone(&op), cfg);
            let tickets: Vec<_> = inputs
                .iter()
                .map(|(kind, rhs)| match kind {
                    Op::Apply => server.submit_apply(rhs, None).expect("admit apply"),
                    Op::Solve => server.submit_solve(rhs, None).expect("admit solve"),
                    Op::SolveCg => server
                        .submit_solve_cg(rhs, &cg_opts(), None)
                        .expect("admit cg"),
                })
                .collect();
            for (i, (ticket, want)) in tickets.into_iter().zip(&expected).enumerate() {
                let got = ticket.wait().expect("served result");
                prop_assert_eq!(
                    got.data(),
                    want.data(),
                    "request {} ({:?}) drifted under {}",
                    i,
                    inputs[i].0,
                    policy
                );
            }
            let stats = server.stats();
            prop_assert_eq!(stats.completed, inputs.len());
            prop_assert_eq!(stats.queue_depth, 0);
        }
    }

    /// The same mix submitted from concurrent client threads (arrival order
    /// decided by the scheduler) still resolves bit-identically — coalescing
    /// must be order-insensitive per request.
    #[test]
    fn concurrent_submission_order_does_not_change_results(mix in arb_mix()) {
        let op = build_operator(mix.seed);
        let n = op.n();
        let inputs: Vec<(Op, DenseMatrix<f64>)> = mix
            .requests
            .iter()
            .enumerate()
            .map(|(i, &(kind, width))| (kind, rhs_matrix(n, width, mix.seed + i as u64)))
            .collect();
        let expected: Vec<DenseMatrix<f64>> = inputs
            .iter()
            .map(|(kind, rhs)| baseline(&op, *kind, rhs))
            .collect();

        let cfg = ServeConfig::default().with_holdoff(Duration::from_millis(10));
        let server = BatchedServer::new(Arc::clone(&op), cfg);
        let failures = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for ((kind, rhs), want) in inputs.iter().zip(&expected) {
                let (server, failures) = (&server, &failures);
                scope.spawn(move || {
                    let ticket = match kind {
                        Op::Apply => server.submit_apply(rhs, None).expect("admit apply"),
                        Op::Solve => server.submit_solve(rhs, None).expect("admit solve"),
                        Op::SolveCg => server
                            .submit_solve_cg(rhs, &cg_opts(), None)
                            .expect("admit cg"),
                    };
                    let got = ticket.wait().expect("served result");
                    if got.data() != want.data() {
                        failures.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
        });
        prop_assert_eq!(failures.into_inner(), 0, "concurrent submissions drifted");
    }
}
