//! Property-based tests of the backward-stable ULV solver backend: random
//! SPD kernels, leaf sizes, rank budgets, regularizations and right-hand-side
//! widths; solve round-trips, bit-identity across every traversal policy,
//! and bit-identity between concurrent `&self` solves and the sequential
//! baseline.

use gofmm_core::{compress, ApplyOptions, Evaluator, GofmmConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
use gofmm_solver::{HierarchicalFactor, LinearOperator, Shifted, UlvFactor};
use proptest::prelude::*;

const ALL_POLICIES: [TraversalPolicy; 4] = [
    TraversalPolicy::Sequential,
    TraversalPolicy::LevelByLevel,
    TraversalPolicy::DagHeft,
    TraversalPolicy::DagFifo,
];

/// One random problem instance: a kernel matrix plus compression knobs.
#[derive(Clone, Debug)]
struct Instance {
    n: usize,
    dim: usize,
    seed: u64,
    bandwidth: f64,
    leaf_size: usize,
    max_rank: usize,
    lambda: f64,
    rhs: usize,
}

fn arb_instance() -> impl Strategy<Value = Instance> {
    (
        (48usize..=160, 2usize..=4, 0u64..1000, 0.5f64..2.0),
        (
            3u32..=5, // log2 leaf size: 8 / 16 / 32
            16usize..=48,
            -4.0f64..1.0, // log10 lambda
            1usize..=4,
        ),
    )
        .prop_map(
            |((n, dim, seed, bandwidth), (leaf_pow, max_rank, log_lambda, rhs))| Instance {
                n,
                dim,
                seed,
                bandwidth,
                leaf_size: 1usize << leaf_pow,
                max_rank,
                lambda: 10f64.powf(log_lambda),
                rhs,
            },
        )
}

fn build(inst: &Instance) -> (KernelMatrix, GofmmConfig) {
    let k = KernelMatrix::new(
        PointCloud::uniform(inst.n, inst.dim, inst.seed),
        KernelType::Gaussian {
            bandwidth: inst.bandwidth,
        },
        1e-6,
        "proptest-ulv",
    );
    let cfg = GofmmConfig::default()
        .with_leaf_size(inst.leaf_size)
        .with_max_rank(inst.max_rank)
        .with_tolerance(1e-9)
        .with_budget(0.0)
        .with_threads(2)
        .with_policy(TraversalPolicy::Sequential);
    (k, cfg)
}

fn rhs_matrix(n: usize, cols: usize, seed: u64) -> DenseMatrix<f64> {
    DenseMatrix::from_fn(n, cols, |i, j| {
        (((i as u64 * 31 + j as u64 * 17 + seed * 7) % 23) as f64) / 11.0 - 1.0
    })
}

/// Build the ULV factorization, or `None` when the sampled instance is
/// legitimately un-factorable: with a rank-capped compression and a small
/// sampled `lambda`, the compressed operator `K~ + lambda I` can be
/// numerically indefinite — refusing it with a typed error is the correct
/// behavior (covered by the error-path suite), not a round-trip
/// counterexample. The vendored proptest has no `prop_assume`, so such
/// cases are skipped by hand.
fn try_ulv<'a>(
    k: &KernelMatrix,
    comp: &'a gofmm_core::Compressed<f64>,
    lambda: f64,
) -> Option<UlvFactor<'a, f64>> {
    UlvFactor::new(k, comp, lambda).ok()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The factorization inverts the compressed operator it was built from:
    /// in-range right-hand sides round-trip through solve at solver
    /// precision, for every sampled combination of kernel, tree shape, rank
    /// budget, regularization and right-hand-side width.
    #[test]
    fn ulv_solve_round_trips(inst in arb_instance()) {
        let (k, cfg) = build(&inst);
        let comp = compress::<f64, _>(&k, &cfg);
        let ev = Evaluator::new(&k, &comp);
        let Some(ulv) = try_ulv(&k, &comp, inst.lambda) else { return; };
        let op = Shifted::new(&ev, inst.lambda);
        let x_true = rhs_matrix(inst.n, inst.rhs, inst.seed);
        let b = op.matvec(&x_true).unwrap();
        let x = ulv.solve(&b).expect("ULV solve");
        let resid = op.matvec(&x).unwrap().sub(&b).norm_fro() / b.norm_fro();
        prop_assert!(resid < 1e-8, "round-trip residual {resid}");
    }

    /// Solutions are bit-identical across all four traversal policies and
    /// worker counts — and the SMW backend upholds the same invariant on the
    /// same instance.
    #[test]
    fn ulv_solves_bit_identical_across_policies(inst in arb_instance()) {
        let (k, cfg) = build(&inst);
        let comp = compress::<f64, _>(&k, &cfg);
        let Some(ulv) = try_ulv(&k, &comp, inst.lambda) else { return; };
        let Ok(smw) = HierarchicalFactor::new(&k, &comp, inst.lambda) else { return; };
        let b = rhs_matrix(inst.n, inst.rhs, inst.seed);
        let x_ulv = ulv.solve(&b).expect("ULV solve");
        let x_smw = smw.solve(&b).expect("SMW solve");
        for policy in ALL_POLICIES {
            for threads in [1usize, 4] {
                let opts = ApplyOptions::new().with_policy(policy).with_threads(threads);
                let xu = ulv.solve_with(&b, &opts).expect("ULV solve");
                prop_assert_eq!(
                    xu.data(), x_ulv.data(),
                    "ULV drifted under {}/{} threads", policy, threads
                );
                let xs = smw.solve_with(&b, &opts).expect("SMW solve");
                prop_assert_eq!(
                    xs.data(), x_smw.data(),
                    "SMW drifted under {}/{} threads", policy, threads
                );
            }
        }
    }

    /// Concurrent `&self` solves on one shared factorization are
    /// bit-identical to the sequential baseline (each thread under its own
    /// policy).
    #[test]
    fn concurrent_ulv_solves_match_sequential(inst in arb_instance()) {
        let (k, cfg) = build(&inst);
        let comp = compress::<f64, _>(&k, &cfg);
        let Some(ulv) = try_ulv(&k, &comp, inst.lambda) else { return; };
        let b = rhs_matrix(inst.n, inst.rhs, inst.seed);
        let x_ref = ulv.solve(&b).expect("baseline solve");
        let failures = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let (ulv, b, x_ref, failures) = (&ulv, &b, &x_ref, &failures);
                let policy = ALL_POLICIES[t % ALL_POLICIES.len()];
                scope.spawn(move || {
                    let opts = ApplyOptions::new().with_policy(policy).with_threads(2);
                    for _ in 0..2 {
                        let x = ulv.solve_with(b, &opts).expect("concurrent solve");
                        if x.data() != x_ref.data() {
                            failures.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        prop_assert_eq!(failures.into_inner(), 0, "concurrent solves drifted");
    }
}
