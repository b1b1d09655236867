//! Integration tests of the hierarchical solver: round-trips across the
//! matrix zoo, bit-identity across traversal policies, kernel-freedom after
//! factorization, and the iteration-count regression that justifies the
//! preconditioner's existence.

use gofmm_core::{compress, Compressed, Evaluator, GofmmConfig, TraversalPolicy};
use gofmm_linalg::DenseMatrix;
use gofmm_matrices::{
    build_matrix, KernelMatrix, KernelType, PointCloud, SpdMatrix, TestMatrixId, ZooOptions,
};
use gofmm_solver::{cg, HierarchicalFactor, IdentityPreconditioner, KrylovOptions, Shifted};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

const ALL_POLICIES: [TraversalPolicy; 4] = [
    TraversalPolicy::Sequential,
    TraversalPolicy::LevelByLevel,
    TraversalPolicy::DagHeft,
    TraversalPolicy::DagFifo,
];

fn hss_config(leaf: usize, rank: usize) -> GofmmConfig {
    GofmmConfig::default()
        .with_leaf_size(leaf)
        .with_max_rank(rank)
        .with_tolerance(1e-10)
        .with_budget(0.0)
        .with_threads(2)
        .with_policy(TraversalPolicy::Sequential)
}

/// An SPD wrapper counting kernel-entry evaluations.
struct CountingMatrix<'m, M> {
    inner: &'m M,
    entries: AtomicU64,
}

impl<'m, M> CountingMatrix<'m, M> {
    fn new(inner: &'m M) -> Self {
        Self {
            inner,
            entries: AtomicU64::new(0),
        }
    }
    fn count(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }
}

impl<M: SpdMatrix<f64>> SpdMatrix<f64> for CountingMatrix<'_, M> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn entry(&self, i: usize, j: usize) -> f64 {
        self.entries.fetch_add(1, Ordering::Relaxed);
        self.inner.entry(i, j)
    }
}

/// Kernel entries a factorization of `comp` evaluates: `|β|²` per leaf β
/// (its diagonal block) plus `|skel(l)|·|skel(r)|` per interior node with
/// children `l`, `r` (their sibling skeleton block).
fn factor_block_entries(comp: &Compressed<f64>) -> u64 {
    let tree = &comp.tree;
    let rank = |h: usize| comp.basis(h).map_or(0, |b| b.rank()) as u64;
    (0..tree.node_count())
        .map(|h| {
            if tree.is_leaf(h) {
                (tree.node(h).len as u64).pow(2)
            } else {
                let (l, r) = tree.children(h);
                rank(l) * rank(r)
            }
        })
        .sum()
}

/// Relative residual of `x` for the compressed system `(K~ + lambda I) x = b`.
fn system_residual(
    matrix: &dyn SpdMatrix<f64>,
    comp: &Compressed<f64>,
    lambda: f64,
    x: &DenseMatrix<f64>,
    b: &DenseMatrix<f64>,
) -> f64 {
    let ev = Evaluator::new(&matrix, comp);
    let op = Shifted::new(&ev, lambda);
    use gofmm_solver::LinearOperator;
    let ax = op.matvec(x).unwrap();
    ax.sub(b).norm_fro() / b.norm_fro()
}

#[test]
fn preconditioned_cg_beats_unpreconditioned_on_ill_conditioned_kernel() {
    // The acceptance scenario: an ill-conditioned Gaussian kernel system at
    // n = 4096 (condition ~ ||K|| / lambda ~ 1e5), solved to 1e-10. The
    // hierarchical factorization must cut the iteration count by at least
    // 5x — measured, not assumed — and run entirely kernel-free after
    // factorization.
    let n = 4096;
    let k = KernelMatrix::new(
        PointCloud::uniform(n, 3, 7),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "acceptance",
    );
    let lambda = 1e-2;
    let cfg = hss_config(128, 96)
        .with_threads(4)
        .with_policy(TraversalPolicy::DagHeft);
    let comp = compress::<f64, _>(&k, &cfg);
    let ev = Evaluator::new(&k, &comp);

    // The factorization evaluates exactly each leaf's diagonal block and
    // each interior node's sibling skeleton block; after it, both the CG
    // matvec (through the evaluator) and every preconditioner application
    // are kernel-free.
    let counter = CountingMatrix::new(&k);
    let factor = HierarchicalFactor::new(&counter, &comp, lambda)
        .expect("regularized kernel system must factor");
    let factor_evals = counter.count();
    assert_eq!(
        factor_evals,
        factor_block_entries(&comp),
        "factorization evaluates one diagonal block per leaf, one sibling block per interior node"
    );

    let b = DenseMatrix::<f64>::from_fn(n, 1, |i, _| ((i * 7919 % 101) as f64) / 50.0 - 1.0);
    let opts = KrylovOptions {
        tol: 1e-10,
        max_iters: 600,
        ..KrylovOptions::default()
    };
    let op = Shifted::new(&ev, lambda);
    let (x_un, s_un) = cg(&op, &IdentityPreconditioner, &b, &opts).unwrap();
    let (x_pre, s_pre) = cg(&op, &factor, &b, &opts).unwrap();
    assert_eq!(
        counter.count(),
        factor_evals,
        "solves must stay kernel-free after factorization"
    );

    assert!(
        s_un.converged,
        "unpreconditioned CG failed: {} iters, residual {:.3e}",
        s_un.iterations, s_un.relative_residual
    );
    assert!(
        s_pre.converged,
        "preconditioned CG failed: residual {:.3e}",
        s_pre.relative_residual
    );
    assert!(s_pre.relative_residual <= 1e-10);
    assert!(
        s_pre.iterations * 5 <= s_un.iterations,
        "preconditioner not pulling its weight: {} vs {} iterations",
        s_pre.iterations,
        s_un.iterations
    );
    // Both solve the same system.
    assert!(x_un.sub(&x_pre).norm_max() < 1e-7);
    // The residual history is monotone enough to be a real convergence curve.
    assert_eq!(s_un.residual_history.len(), s_un.iterations + 1);
    assert!(s_un.residual_history[0] >= s_un.relative_residual);
}

#[test]
fn solve_is_bit_identical_across_all_four_traversal_policies() {
    let n = 600;
    let k = KernelMatrix::new(
        PointCloud::uniform(n, 3, 11),
        KernelType::Gaussian { bandwidth: 1.0 },
        1e-6,
        "policies",
    );
    let mut comp = compress::<f64, _>(&k, &hss_config(48, 48));
    let b = DenseMatrix::<f64>::from_fn(n, 2, |i, j| ((i * 31 + j * 7) % 23) as f64 / 11.0 - 1.0);
    let lambda = 1e-2;
    let mut reference: Option<DenseMatrix<f64>> = None;
    for policy in ALL_POLICIES {
        // Factor under the policy, then solve twice (the second solve runs
        // on recycled buffers) under 1 and 4 workers.
        comp.config.policy = policy;
        comp.config.num_threads = 4;
        let factor = HierarchicalFactor::new(&k, &comp, lambda).unwrap();
        assert_eq!(factor.policy(), policy);
        assert!(factor.stats().exec.is_some(), "{policy}: no exec stats");
        let x1 = factor.solve(&b).unwrap();
        let x2 = factor
            .solve_with(&b, &gofmm_core::ApplyOptions::new().with_threads(1))
            .unwrap();
        for (idx, (a, c)) in x1.data().iter().zip(x2.data()).enumerate() {
            assert_eq!(a.to_bits(), c.to_bits(), "{policy}: resolve entry {idx}");
        }
        match &reference {
            None => reference = Some(x1),
            Some(r) => {
                for (idx, (a, c)) in r.data().iter().zip(x1.data()).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        c.to_bits(),
                        "{policy}: entry {idx} differs from sequential"
                    );
                }
            }
        }
    }
}

#[test]
fn fmm_mode_compression_still_preconditions() {
    // Budget > 0: the compression has off-diagonal near blocks the
    // factorization does not cover, and sibling skeleton blocks may be
    // missing from the Far lists (extracted from the kernel at factor
    // time). The factorization is then a genuine preconditioner rather
    // than an inverse — CG must still converge, faster than without it.
    let n = 1024;
    let k = KernelMatrix::new(
        PointCloud::uniform(n, 3, 17),
        KernelType::Gaussian { bandwidth: 0.8 },
        1e-6,
        "fmm",
    );
    let lambda = 1e-2;
    let cfg = GofmmConfig::default()
        .with_leaf_size(64)
        .with_max_rank(64)
        .with_tolerance(1e-10)
        .with_budget(0.25)
        .with_threads(2)
        .with_policy(TraversalPolicy::Sequential);
    let comp = compress::<f64, _>(&k, &cfg);
    assert!(
        comp.lists.near_pair_count() > comp.tree.leaf_count(),
        "budget must produce off-diagonal near blocks"
    );
    let ev = Evaluator::new(&k, &comp);
    let factor = HierarchicalFactor::new(&k, &comp, lambda).unwrap();
    let b = DenseMatrix::<f64>::from_fn(n, 1, |i, _| ((i * 13 % 29) as f64) / 14.0 - 1.0);
    let opts = KrylovOptions {
        tol: 1e-10,
        max_iters: 400,
        ..KrylovOptions::default()
    };
    let op = Shifted::new(&ev, lambda);
    let (_, s_un) = cg(&op, &IdentityPreconditioner, &b, &opts).unwrap();
    let (x, s_pre) = cg(&op, &factor, &b, &opts).unwrap();
    assert!(s_pre.converged, "residual {:.3e}", s_pre.relative_residual);
    assert!(
        s_pre.iterations < s_un.iterations,
        "preconditioned {} vs unpreconditioned {}",
        s_pre.iterations,
        s_un.iterations
    );
    let resid = system_residual(&k, &comp, lambda, &x, &b);
    assert!(resid <= 1e-9, "true residual {resid:.3e}");
}

/// Zoo matrices that stay well-posed at small n and factor cleanly with a
/// moderate regularization.
fn zoo_candidates() -> Vec<TestMatrixId> {
    vec![
        TestMatrixId::K04,
        TestMatrixId::K08,
        TestMatrixId::K10,
        TestMatrixId::G03,
        TestMatrixId::Covtype,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Round-trip `A x = b` across the matrix zoo: build, compress (HSS),
    /// factor, CG-solve, and check the relative residual of the *compressed*
    /// system that was actually solved.
    #[test]
    fn cg_round_trips_zoo_systems(
        id_idx in 0usize..5,
        n in 160usize..320,
        lambda_exp in 1u32..3,
        seed in 0u64..1000,
    ) {
        let id = zoo_candidates()[id_idx];
        let lambda = 10f64.powi(-(lambda_exp as i32));
        let m = build_matrix(id, &ZooOptions { n, seed, bandwidth: None });
        let n_actual = m.n();
        let cfg = hss_config(32, 32).with_tolerance(1e-8);
        let comp = compress::<f64, _>(&m, &cfg);
        let factor = match HierarchicalFactor::new(&m, &comp, lambda) {
            Ok(f) => f,
            Err(e) => panic!("{id} n={n_actual} lambda={lambda}: {e}"),
        };
        let b = DenseMatrix::<f64>::from_fn(n_actual, 1, |i, _| {
            ((i as u64).wrapping_mul(seed.wrapping_add(3)) % 17) as f64 / 8.0 - 1.0
        });
        let ev = Evaluator::new(&m, &comp);
        let opts = KrylovOptions { tol: 1e-10, max_iters: 300,
        ..KrylovOptions::default() };
        let op = Shifted::new(&ev, lambda);
        let (x, stats) = cg(&op, &factor, &b, &opts).unwrap();
        prop_assert!(
            stats.relative_residual <= 1e-8,
            "{id} n={n_actual} lambda={lambda}: residual {:.3e} after {} iters",
            stats.relative_residual,
            stats.iterations
        );
        prop_assert_eq!(x.rows(), n_actual);
    }
}
