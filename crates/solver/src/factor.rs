//! One hierarchical factorization driver of `K + lambda I`, two node
//! kernels.
//!
//! Both factorizations follow the telescoping structure of the compression
//! tree: one bottom-up `FACTOR` sweep builds a per-node factor, and every
//! solve is one cached `SUP` (postorder) / `SDOWN` (preorder) double sweep
//! over it. [`Factor`] runs that shape once for both: the constructors, the
//! `FACTOR` plan with its slot protocol (a failed node's ancestors stay
//! pending, and the deepest failure is the one reported), [`FactorStats`],
//! the solve plan and its pooled workspaces, and the [`crate::Preconditioner`]
//! the Krylov drivers use. What differs is the arithmetic of one node, which
//! a node kernel supplies:
//!
//! * [`crate::Smw`] — the recursive Sherman–Morrison–Woodbury
//!   factorization ([`crate::HierarchicalFactor`]);
//! * [`crate::Ulv`] — the backward-stable orthogonal ULV elimination
//!   ([`crate::UlvFactor`], the default behind `GofmmOperator`), which can
//!   also spill its nodes to a store file.
//!
//! The sweeps are `(family, node)` task families on the shared
//! execution-plan layer, so they run under all four traversal policies with
//! the same DAG-ordered [`DisjointCells`]
//! storage as compression and evaluation — and, because every cell has
//! exactly one writing task per run, solves are bit-identical across
//! policies, worker counts and concurrent callers. The factorizations cover
//! the *hierarchical* (HSS) part of the compressed operator plus the
//! regularization; off-diagonal near blocks beyond the leaf diagonal are
//! left to the Krylov iteration they precondition.

use gofmm_core::{ApplyOptions, CompRef, Compressed, Error, SweepDriver, TraversalPolicy};
use gofmm_linalg::{DenseMatrix, Scalar};
use gofmm_matrices::SpdMatrix;
use gofmm_runtime::{DisjointCells, ExecStats, ReusablePlan};
use std::time::Instant;

use crate::kernel::{NodeKernel, SolveWorkspace};
use crate::smw::Smw;

/// Timing and size statistics of a factorization.
#[derive(Clone, Debug, Default)]
pub struct FactorStats {
    /// Wall-clock seconds of the `FACTOR` sweep.
    pub setup_time: f64,
    /// Bytes of the per-node factor blocks the solves read.
    pub bytes: usize,
    /// Regularization used.
    pub lambda: f64,
    /// Scheduler statistics of the factor sweep, under every policy; `None`
    /// for a ULV factor opened from a store file (it ran no sweep).
    pub exec: Option<ExecStats>,
}

/// Outcome slot of one node's factor task.
enum Slot<N, U> {
    Pending,
    Ready(Box<(N, U)>),
    Failed(Error),
}

/// A persistent hierarchical factorization of `K + lambda I` with node
/// kernel `K` ([`crate::HierarchicalFactor`] and [`crate::UlvFactor`]).
///
/// Built once per compression (one `FACTOR` bottom-up sweep), it serves
/// unlimited [`Factor::solve`] calls — each a cached-plan `SUP`/`SDOWN`
/// double sweep that performs **zero kernel-entry evaluations**, re-running
/// one frozen DAG against a workspace leased per call. `solve` takes
/// `&self`, so one factorization can serve many threads concurrently;
/// solutions are bit-identical across policies, worker counts, and
/// concurrency. It is the preconditioner behind [`crate::cg`].
pub struct Factor<'a, T: Scalar, K: NodeKernel<T>> {
    pub(crate) comp: CompRef<'a, T>,
    /// Per-node factor blocks, as the kernel keeps them between solves.
    pub(crate) nodes: Vec<K::Held>,
    /// Per-node `(kept, local)` sweep dimensions, kept apart from the nodes
    /// so workspace allocation never faults a store-backed node in.
    pub(crate) dims: Vec<(usize, usize)>,
    /// The SUP/SDOWN solve DAG with its default policy / worker count
    /// (overridable per call through [`ApplyOptions`]) and the per-solve
    /// sweep buffers, leased per call and recycled across calls.
    pub(crate) sweep: SweepDriver<SolveWorkspace<T>>,
    pub(crate) stats: FactorStats,
}

/// A persistent hierarchical Sherman–Morrison–Woodbury factorization of
/// `K + lambda I`: the [`Factor`] driver over the [`Smw`] node kernel.
///
/// Leaves hold the Cholesky factor of their regularized diagonal block and
/// the projected panel `H_leaf^{-1} U`; interior nodes hold the small SMW
/// matrices. With a pure-HSS compression it is accurate enough to serve as
/// a direct solver for the compressed operator.
///
/// # Example
///
/// ```
/// use gofmm_core::{compress, GofmmConfig, TraversalPolicy};
/// use gofmm_linalg::DenseMatrix;
/// use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
/// use gofmm_solver::HierarchicalFactor;
///
/// let n = 256;
/// let k = KernelMatrix::new(
///     PointCloud::uniform(n, 3, 7),
///     KernelType::Gaussian { bandwidth: 1.0 },
///     1e-6,
///     "doc",
/// );
/// let config = GofmmConfig::default()
///     .with_leaf_size(32)
///     .with_max_rank(32)
///     .with_tolerance(1e-7)
///     .with_budget(0.0) // pure HSS: the factorization is essentially exact
///     .with_threads(2)
///     .with_policy(TraversalPolicy::Sequential);
/// let comp = compress::<f64, _>(&k, &config);
/// let factor = HierarchicalFactor::new(&k, &comp, 1e-2).unwrap();
/// let b = DenseMatrix::<f64>::from_fn(n, 1, |i, _| (i % 7) as f64);
/// let x = factor.solve(&b).unwrap(); // &self: shareable across threads
/// assert_eq!(x.rows(), n);
/// ```
pub type HierarchicalFactor<'a, T> = Factor<'a, T, Smw>;

impl<'a, T: Scalar, K: NodeKernel<T>> Factor<'a, T, K> {
    /// Factor `K + lambda I` over a borrowed (`&comp`), owned (`comp`) or
    /// `Arc`-shared compression. The `FACTOR` sweep runs under the
    /// configuration's traversal policy and thread count, which also become
    /// the solve defaults (override them per call with
    /// [`Factor::solve_with`]).
    ///
    /// The `matrix` supplies each leaf's diagonal block and each interior
    /// node's sibling skeleton block `K_{skel(l), skel(r)}`; after this
    /// returns, [`Factor::solve`] never evaluates a kernel entry.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] for a non-finite `lambda`; the kernel's
    /// breakdown error ([`Error::NotPositiveDefinite`],
    /// [`Error::SingularCore`], [`Error::NonFiniteInput`]) of the deepest
    /// node that failed.
    pub fn new<M: SpdMatrix<T> + ?Sized>(
        matrix: &M,
        comp: impl Into<CompRef<'a, T>>,
        lambda: f64,
    ) -> Result<Self, Error> {
        if !lambda.is_finite() {
            return Err(Error::InvalidConfig {
                what: "lambda",
                constraint: "must be finite",
            });
        }
        let comp = comp.into();
        let policy = comp.config.policy;
        let num_threads = comp.config.num_threads.max(1);
        let shift = T::from_f64(lambda);
        let t0 = Instant::now();
        let tree = &comp.tree;
        let node_count = tree.node_count();

        let slots: DisjointCells<Slot<K::Node, K::Up>> =
            DisjointCells::from_fn(node_count, |_| Slot::Pending);
        let comp_ref = &*comp;
        let factor_one = |heap: usize| {
            let factored = if tree.is_leaf(heap) {
                K::factor_leaf(matrix, comp_ref, heap, shift)
            } else {
                let (l, r) = tree.children(heap);
                let (gl, gr) = (slots.read(l), slots.read(r));
                match (&*gl, &*gr) {
                    (Slot::Ready(fl), Slot::Ready(fr)) => {
                        K::factor_interior(matrix, comp_ref, heap, fl, fr)
                    }
                    // A failed child already recorded its error; stay silent.
                    _ => return,
                }
            };
            slots.set(
                heap,
                match factored {
                    Ok(f) => Slot::Ready(Box::new(f)),
                    Err(e) => Slot::Failed(e),
                },
            );
        };

        let mut plan = ReusablePlan::new();
        plan.add_bottom_up(
            "FACTOR",
            tree.node_count(),
            |_| false,
            |heap| K::factor_cost(comp_ref, heap),
        );
        let exec = plan.run(policy, num_threads, |_, heap| factor_one(heap));

        let mut slots = slots.into_inner();
        // Surface the deepest-level failure first; ancestors of a failed
        // node deliberately stay pending.
        if let Some(err) = slots.iter().rev().find_map(|s| match s {
            Slot::Failed(err) => Some(err.clone()),
            _ => None,
        }) {
            return Err(err);
        }
        let nodes: Vec<K::Node> = slots
            .drain(..)
            .enumerate()
            .map(|(heap, slot)| match slot {
                Slot::Ready(f) => f.0,
                _ => unreachable!(
                    "factor task for node {heap} neither completed nor reported an error"
                ),
            })
            .collect();

        let stats = FactorStats {
            setup_time: t0.elapsed().as_secs_f64(),
            bytes: nodes.iter().map(K::bytes).sum(),
            lambda,
            exec: Some(exec),
        };
        Ok(Factor {
            dims: nodes.iter().map(K::dims).collect(),
            nodes: nodes.into_iter().map(K::hold).collect(),
            sweep: solve_driver(&comp, policy, num_threads),
            comp,
            stats,
        })
    }

    /// Matrix dimension `N`.
    pub fn n(&self) -> usize {
        self.comp.n()
    }

    /// The regularization this factorization inverts with.
    pub fn lambda(&self) -> f64 {
        self.stats.lambda
    }

    /// Lifetime lease traffic of the internal solve-workspace pool, as
    /// `(created, recycled)` checkouts.
    pub fn pool_lease_stats(&self) -> (usize, usize) {
        self.sweep.pool_lease_stats()
    }

    /// Factorization statistics (setup time, storage, scheduler stats).
    pub fn stats(&self) -> &FactorStats {
        &self.stats
    }

    /// The default traversal policy of [`Factor::solve`] (override per call
    /// with [`Factor::solve_with`]).
    pub fn policy(&self) -> TraversalPolicy {
        self.sweep.policy()
    }

    /// The default worker-thread count of [`Factor::solve`] (override per
    /// call with [`Factor::solve_with`]).
    pub fn threads(&self) -> usize {
        self.sweep.threads()
    }

    /// Solve `(K_hss + lambda I) x = b` from the factored state: one upward
    /// and one downward tree sweep, zero kernel evaluations, the sweep
    /// buffers leased from an internal pool.
    ///
    /// Takes `&self`: any number of threads may call this simultaneously on
    /// one shared factorization; all of them produce bit-identical
    /// solutions.
    ///
    /// # Errors
    /// As [`Factor::solve_with`].
    pub fn solve(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>, Error> {
        self.solve_with(b, &ApplyOptions::default())
    }

    /// Solve with per-call policy / thread-count overrides (bit-identical to
    /// every other policy/thread combination).
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] when `b.rows() != n`;
    /// [`Error::Cancelled`] when `opts.cancel` fires before the sweeps
    /// complete; [`Error::Storage`] when a file-backed ULV node fails to
    /// fault in (the first failed fault stops the sweeps; an SMW factor
    /// holds every node in memory). A cancelled or failed solve leaves the
    /// factor fully reusable: the sweep workspace is overwritten from
    /// scratch on every run, so no partial state can leak into a later
    /// solve.
    pub fn solve_with(
        &self,
        b: &DenseMatrix<T>,
        opts: &ApplyOptions,
    ) -> Result<DenseMatrix<T>, Error> {
        self.sweep.run(
            &self.comp.tree,
            b,
            opts,
            || SolveWorkspace::allocate(&self.comp, &self.dims),
            |ws, family, heap| match family {
                "SUP" => K::sweep_up(self, ws, heap),
                "SDOWN" => K::sweep_down(self, ws, heap),
                other => unreachable!("unknown solve task family {other}"),
            },
            |ws, _| scatter_leaves(&self.comp, &mut ws.x, b.cols()),
        )
    }
}

/// The `r`-column solution in original index order: each leaf's block of
/// `x` scattered through the tree permutation one output column at a time.
fn scatter_leaves<T: Scalar>(
    comp: &Compressed<T>,
    x: &mut DisjointCells<DenseMatrix<T>>,
    r: usize,
) -> DenseMatrix<T> {
    let mut out = DenseMatrix::zeros(comp.n(), r);
    for c in 0..r {
        let dst = out.col_mut(c);
        for leaf in comp.tree.leaf_range() {
            let x = x.get_mut(leaf).col(c);
            for (&orig, &v) in comp.tree.indices(leaf).iter().zip(x) {
                dst[orig] = v;
            }
        }
    }
    out
}

/// The solve sweeps' driver over the two-sweep solve DAG: `SUP` postorder,
/// `SDOWN` preorder with an explicit `SUP(node) -> SDOWN(node)` edge (the
/// downward task reads what its upward task kept). Like the evaluation
/// plan, it depends only on the compressed structure, so one plan serves
/// every solve of either kernel.
pub(crate) fn solve_driver<T: Scalar>(
    comp: &Compressed<T>,
    policy: TraversalPolicy,
    threads: usize,
) -> SweepDriver<SolveWorkspace<T>> {
    let tree = &comp.tree;
    let m = comp.config.leaf_size as f64;
    let s = comp.config.max_rank as f64;
    let mut plan = ReusablePlan::new();
    let cost = |heap: usize| {
        if tree.is_leaf(heap) {
            2.0 * m * m + 2.0 * m * s
        } else {
            8.0 * s * s
        }
    };
    plan.add_bottom_up("SUP", tree.node_count(), |_| false, cost);
    plan.add_top_down(
        "SDOWN",
        tree.node_count(),
        |_| false,
        cost,
        |heap, deps| {
            deps.push(("SUP", heap));
        },
    );
    SweepDriver::new("SOLVE", "right-hand-side rows", plan, policy, threads)
}

#[cfg(test)]
mod tests {
    use crate::{HierarchicalFactor, UlvFactor};
    use gofmm_core::{compress, Error, GofmmConfig, TraversalPolicy};
    use gofmm_linalg::DenseMatrix;
    use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
    use std::sync::Arc;

    /// Both kernels factor a borrowed, an owned and an `Arc`-shared
    /// compression into the same factor: their solves agree bit for bit.
    #[test]
    fn every_compression_form_factors_to_the_same_solves() {
        let n = 256;
        let k = KernelMatrix::new(
            PointCloud::uniform(n, 3, 9),
            KernelType::Gaussian { bandwidth: 1.0 },
            1e-6,
            "compression-forms",
        );
        let config = GofmmConfig::default()
            .with_leaf_size(32)
            .with_max_rank(32)
            .with_tolerance(1e-7)
            .with_budget(0.0);
        let comp = compress::<f64, _>(&k, &config);
        let shared = Arc::new(compress::<f64, _>(&k, &config));
        let b = DenseMatrix::<f64>::from_fn(n, 2, |i, j| ((i * 5 + j * 3) % 11) as f64 - 5.0);
        let lambda = 1e-2;
        let bits = |x: DenseMatrix<f64>| x.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();

        let smw = |f: HierarchicalFactor<'_, f64>| bits(f.solve(&b).unwrap());
        let want = smw(HierarchicalFactor::new(&k, &comp, lambda).unwrap());
        let owned = compress::<f64, _>(&k, &config);
        let owning = HierarchicalFactor::new(&k, owned, lambda).unwrap();
        assert_eq!(smw(owning), want, "SMW over an owned compression");
        let from_arc = HierarchicalFactor::new(&k, Arc::clone(&shared), lambda).unwrap();
        assert_eq!(smw(from_arc), want, "SMW over a shared compression");

        let ulv = |f: UlvFactor<'_, f64>| bits(f.solve(&b).unwrap());
        let want = ulv(UlvFactor::new(&k, &comp, lambda).unwrap());
        let owned = compress::<f64, _>(&k, &config);
        let owning = UlvFactor::new(&k, owned, lambda).unwrap();
        assert_eq!(ulv(owning), want, "ULV over an owned compression");
        let from_arc = UlvFactor::new(&k, Arc::clone(&shared), lambda).unwrap();
        assert_eq!(ulv(from_arc), want, "ULV over a shared compression");
    }

    /// Every leaf block of `K - 100 I` (Gaussian entries are at most 1) is
    /// indefinite, so every leaf task fails and every interior task stays
    /// pending. Both kernels, under every policy and worker count, must
    /// report the deepest failure: the last leaf in heap order.
    #[test]
    fn the_deepest_failure_is_reported_under_every_policy() {
        let n = 256;
        let k = KernelMatrix::new(
            PointCloud::uniform(n, 3, 5),
            KernelType::Gaussian { bandwidth: 1.0 },
            1e-6,
            "deepest-failure",
        );
        let config = GofmmConfig::default()
            .with_leaf_size(32)
            .with_max_rank(32)
            .with_tolerance(1e-7)
            .with_budget(0.0);
        let mut comp = compress::<f64, _>(&k, &config);
        let last_leaf = comp.tree.leaf_range().end - 1;
        for policy in [
            TraversalPolicy::Sequential,
            TraversalPolicy::LevelByLevel,
            TraversalPolicy::DagHeft,
            TraversalPolicy::DagFifo,
        ] {
            for threads in [1, 2] {
                comp.config.policy = policy;
                comp.config.num_threads = threads;
                let errors = [
                    ("SMW", HierarchicalFactor::new(&k, &comp, -100.0).err()),
                    ("ULV", UlvFactor::new(&k, &comp, -100.0).err()),
                ];
                for (kernel, err) in errors {
                    match err {
                        Some(Error::NotPositiveDefinite { node, .. }) => {
                            assert_eq!(node, last_leaf, "{kernel} {policy}/{threads}")
                        }
                        other => panic!("{kernel} {policy}/{threads}: {other:?}"),
                    }
                }
            }
        }
    }
}
