//! Hierarchical regularized factorization of `K + lambda I`.
//!
//! The factorization follows the telescoping structure of the compression
//! tree (the HSS/HODLR ULV-style design the baselines stub out): writing the
//! hierarchical part of the approximation at node `alpha` with children
//! `l, r` as
//!
//! ```text
//! H_alpha = [ H_l                      U_l B U_r^T ]        B = K_{skel(l), skel(r)}
//!           [ U_r B^T U_l^T            H_r         ]
//!         = diag(H_l, H_r) + diag(U_l, U_r) C diag(U_l, U_r)^T,   C = [0 B; B^T 0]
//! ```
//!
//! with nested bases `U_alpha = diag(U_l, U_r) E_alpha` (where `E_alpha` is
//! the transpose of the node's interpolation matrix), the inverse is the
//! Sherman–Morrison–Woodbury recursion
//!
//! ```text
//! H_alpha^{-1} = D^{-1} - D^{-1} U_hat W_alpha U_hat^T D^{-1},
//!      D = diag(H_l, H_r),   U_hat = diag(U_l, U_r),
//!      W_alpha = (I + C G_hat)^{-1} C,   G_hat = diag(G_l, G_r),
//!      G_c = U_c^T H_c^{-1} U_c.
//! ```
//!
//! At the leaves `H_leaf = K_{beta,beta} + lambda I` is Cholesky-factored
//! directly. Everything above the leaves reduces to *small* dense matrices in
//! skeleton coordinates — `W`, `G_hat`, and the downward coefficient map
//! `E - W G_hat E` — so a full solve is two tree sweeps:
//!
//! * **`SUP` (bottom-up)**: leaves solve `y = H_leaf^{-1} b_leaf` and project
//!   `v = U^T y`; interior nodes combine children's projections into the SMW
//!   coefficients `z = W [v_l; v_r]` and push their own projection
//!   `v = E^T ([v_l; v_r] - G_hat z)` upward.
//! * **`SDOWN` (top-down)**: each node turns its coefficients plus the
//!   incoming correction `delta` (zero at the root) into per-child
//!   corrections `gamma = z + (E - W G_hat E) delta`, and leaves fold the
//!   correction into the output `x = y - (H_leaf^{-1} U) delta`.
//!
//! Both sweeps and the factor sweep itself are `(family, node)` task
//! families on the shared execution-plan layer, so they run under all four
//! traversal policies with the same DAG-ordered [`DisjointCells`] storage as
//! compression and evaluation — and, because every cell has exactly one
//! writing task per run, solves are bit-identical across policies.
//!
//! [`HierarchicalFactor::solve`] takes `&self`: the per-solve sweep buffers
//! live in a [`WorkspacePool`] keyed by the right-hand-side count, so one
//! factorization can serve parallel request streams exactly like the
//! evaluator (concurrent solves lease disjoint workspaces; sequential solves
//! recycle one).
//!
//! The factorization covers the *hierarchical* (HSS) part of the compressed
//! operator plus the regularization; off-diagonal near blocks beyond the
//! leaf diagonal are left to the Krylov iteration it preconditions. With a
//! budget-0 (pure HSS) compression the factorization inverts the compressed
//! operator essentially exactly, so preconditioned CG converges in a
//! handful of iterations.
//!
//! # Stability envelope
//!
//! This is the *plain* recursive SMW (the formulation the GOFMM line of work
//! uses for regularized kernel systems), not an orthogonal ULV
//! factorization. Its accuracy degrades when `lambda` is many orders of
//! magnitude below the operator's spectral scale: the SMW cores `I + C G`
//! then become as ill-conditioned as the system itself and the recursion
//! amplifies roundoff. In the regime the paper targets — kernel regression
//! and inverse-operator preconditioning, `lambda` within a few orders of
//! `||K||` — the factorization is accurate to solver precision (see the
//! `solver_convergence` experiment); for extreme small `lambda` it still
//! returns a symmetric operator (the SMW matrices are explicitly
//! symmetrized), but its backward error grows like the condition number.
//!
//! The limitation is *removed* by the backward-stable orthogonal
//! [`crate::UlvFactor`], which is the default solve backend behind
//! `GofmmOperator` (this SMW recursion is retained behind
//! `FactorBackend::Smw` for comparison). Both envelopes — ULV backward
//! stable across `lambda` from `1e-8` to `1e8` times the operator scale,
//! SMW accurate inside its band and degraded below it — are *enforced* by
//! the CI-gated `tests/stability_envelope.rs` suite, so a regression in
//! either backend fails loudly.

use gofmm_core::{ApplyOptions, CompRef, Compressed, Error, TraversalPolicy};
use gofmm_linalg::{gemm, matmul, matmul_tn, Cholesky, DenseMatrix, LuFactor, Scalar, Transpose};
use gofmm_matrices::SpdMatrix;
use gofmm_runtime::{
    parallel_for, CancelToken, DisjointCells, ExecStats, PhasePlan, ReusablePlan, RunDefaults,
    WorkspacePool,
};
use gofmm_telemetry::{traced_barrier, traced_task, SpanKind};
use std::sync::Arc;
use std::time::Instant;

/// Options of [`HierarchicalFactor::with_options`].
#[derive(Clone, Debug)]
pub struct FactorOptions {
    /// Regularization `lambda` added to the diagonal.
    pub lambda: f64,
    /// Traversal policy for the factor and solve sweeps; defaults to the
    /// compression's configured policy.
    pub policy: Option<TraversalPolicy>,
    /// Worker threads; defaults to the compression's configured count.
    pub num_threads: Option<usize>,
}

impl Default for FactorOptions {
    fn default() -> Self {
        Self {
            lambda: 1e-4,
            policy: None,
            num_threads: None,
        }
    }
}

/// Timing and size statistics of a factorization.
#[derive(Clone, Debug, Default)]
pub struct FactorStats {
    /// Wall-clock seconds of the factor sweep (Cholesky + SMW cores).
    pub setup_time: f64,
    /// Bytes of factor storage (leaf Cholesky factors, `H^{-1}U` panels,
    /// and the per-node SMW matrices).
    pub bytes: usize,
    /// Regularization used.
    pub lambda: f64,
    /// Scheduler statistics of the factor sweep (absent for level-by-level).
    pub exec: Option<ExecStats>,
}

/// Per-node factor storage. Leaves hold the Cholesky factor and the
/// projected solve panels; interior nodes hold the small SMW matrices.
struct NodeFactor<T: Scalar> {
    /// Leaf: Cholesky of `K_{beta,beta} + lambda I`.
    chol: Option<Cholesky<T>>,
    /// Leaf with a skeleton: `H_leaf^{-1} U` (`m x s`).
    yu: DenseMatrix<T>,
    /// Interior: SMW core `W = (I + C G_hat)^{-1} C`.
    w: DenseMatrix<T>,
    /// Interior: `G_hat = diag(G_l, G_r)`.
    gstack: DenseMatrix<T>,
    /// Interior non-root: downward coefficient map `E - W G_hat E`.
    down: DenseMatrix<T>,
    /// Non-root: reduced inverse `G = U^T H^{-1} U` (read by the parent).
    g: DenseMatrix<T>,
    /// Interior: rank of the left child (splits `z` between the children).
    split: usize,
}

impl<T: Scalar> NodeFactor<T> {
    fn bytes(&self) -> usize {
        let scalar = std::mem::size_of::<T>();
        let mat = |m: &DenseMatrix<T>| m.rows() * m.cols() * scalar;
        self.chol.as_ref().map(|c| mat(c.l())).unwrap_or(0)
            + mat(&self.yu)
            + mat(&self.w)
            + mat(&self.gstack)
            + mat(&self.down)
            + mat(&self.g)
    }
}

/// Everything a factorization computes before it is attached to a
/// compression handle: the per-node factor storage plus defaults and stats.
/// Produced by `HierarchicalFactor::compute_parts`, consumed by
/// `HierarchicalFactor::from_parts`.
pub(crate) struct FactorParts<T: Scalar> {
    nodes: Vec<NodeFactor<T>>,
    defaults: RunDefaults<TraversalPolicy>,
    stats: FactorStats,
}

/// Outcome slot of one node's factor task.
enum Slot<T: Scalar> {
    Pending,
    Ready(Box<NodeFactor<T>>),
    Failed(Error),
}

/// One solve's per-node sweep buffers, pooled by right-hand-side count.
///
/// No reset between solves is needed: every cell that a solve reads is fully
/// overwritten earlier in the same solve (the sweeps have no `+=`
/// accumulators into pooled storage).
struct SolveWorkspace<T: Scalar> {
    /// Leaf Cholesky solutions `y = H_leaf^{-1} b`.
    y: DisjointCells<DenseMatrix<T>>,
    /// Per-leaf output blocks.
    x: DisjointCells<DenseMatrix<T>>,
    /// Upward skeleton projections.
    v: DisjointCells<DenseMatrix<T>>,
    /// SMW coefficients per interior node.
    z: DisjointCells<DenseMatrix<T>>,
    /// Downward corrections.
    delta: DisjointCells<DenseMatrix<T>>,
}

impl<T: Scalar> SolveWorkspace<T> {
    fn allocate(comp: &Compressed<T>, nodes: &[NodeFactor<T>], r: usize) -> Self {
        let node_count = comp.tree.node_count();
        let rank_of = |heap: usize| comp.basis(heap).map(|b| b.rank()).unwrap_or(0);
        let leaf_rows = |heap: usize| {
            if comp.tree.is_leaf(heap) {
                comp.tree.node(heap).len
            } else {
                0
            }
        };
        Self {
            y: DisjointCells::from_fn(node_count, |h| DenseMatrix::zeros(leaf_rows(h), r)),
            x: DisjointCells::from_fn(node_count, |h| DenseMatrix::zeros(leaf_rows(h), r)),
            v: DisjointCells::from_fn(node_count, |h| DenseMatrix::zeros(rank_of(h), r)),
            z: DisjointCells::from_fn(node_count, |h| DenseMatrix::zeros(nodes[h].w.rows(), r)),
            delta: DisjointCells::from_fn(node_count, |h| DenseMatrix::zeros(rank_of(h), r)),
        }
    }
}

/// A persistent hierarchical factorization of `K + lambda I`.
///
/// Built once per compression (one `FACTOR` bottom-up sweep), it serves
/// unlimited [`HierarchicalFactor::solve`] calls — each a cached-plan
/// `SUP`/`SDOWN` double sweep that performs **zero kernel-entry
/// evaluations**, re-running one frozen DAG against a leased per-call
/// workspace. `solve` takes `&self`, so one factorization can serve many
/// threads concurrently; solutions are bit-identical across policies, worker
/// counts, and concurrency. It is the preconditioner behind [`crate::cg`]
/// and [`crate::gmres`], and with a pure-HSS compression it is accurate
/// enough to serve as a direct solver for the compressed operator.
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
pub struct HierarchicalFactor<'a, T: Scalar> {
    comp: CompRef<'a, T>,
    nodes: Vec<NodeFactor<T>>,
    /// The SUP/SDOWN solve DAG, built once and re-run per solve (safe to run
    /// from many threads at once).
    plan: ReusablePlan,
    /// Default traversal policy / worker count, overridable per call through
    /// [`ApplyOptions`].
    defaults: RunDefaults<TraversalPolicy>,
    stats: FactorStats,
    /// Per-solve sweep buffers, leased per call and recycled across calls.
    pool: WorkspacePool<SolveWorkspace<T>>,
}

impl<'a, T: Scalar> HierarchicalFactor<'a, T> {
    /// Factor `K + lambda I` using the compression's configured policy and
    /// thread count.
    ///
    /// The `matrix` is consulted only for blocks the compression did not
    /// cache (diagonal near blocks with `cache_blocks: false`, or sibling
    /// skeleton blocks absent from the Far lists in FMM mode); after this
    /// returns, [`HierarchicalFactor::solve`] never evaluates a kernel
    /// entry.
    pub fn new<M: SpdMatrix<T> + ?Sized>(
        matrix: &M,
        comp: &'a Compressed<T>,
        lambda: f64,
    ) -> Result<Self, Error> {
        Self::with_options(
            matrix,
            comp,
            &FactorOptions {
                lambda,
                ..FactorOptions::default()
            },
        )
    }

    /// Factor with explicit policy / thread-count overrides.
    pub fn with_options<M: SpdMatrix<T> + ?Sized>(
        matrix: &M,
        comp: &'a Compressed<T>,
        opts: &FactorOptions,
    ) -> Result<Self, Error> {
        Self::build(matrix, CompRef::Borrowed(comp), opts)
    }

    /// Factor an `Arc`-shared compression. The result is `'static` and
    /// `Send + Sync`, so it can live inside a shared service handle next to
    /// an evaluator serving the same compression (the `GofmmOperator` front
    /// door is built this way).
    pub fn from_shared<M: SpdMatrix<T> + ?Sized>(
        matrix: &M,
        comp: Arc<Compressed<T>>,
        opts: &FactorOptions,
    ) -> Result<HierarchicalFactor<'static, T>, Error> {
        HierarchicalFactor::build(matrix, CompRef::Shared(comp), opts)
    }

    /// Shared construction tail behind every public constructor.
    fn build<'c, M: SpdMatrix<T> + ?Sized>(
        matrix: &M,
        comp: CompRef<'c, T>,
        opts: &FactorOptions,
    ) -> Result<HierarchicalFactor<'c, T>, Error> {
        let parts = Self::compute_parts(matrix, &comp, opts)?;
        Ok(Self::from_parts(comp, parts))
    }

    /// Run the `FACTOR` sweep against `comp`, producing everything except
    /// the compression handle itself. Split from [`Self::from_parts`] so the
    /// operator front door can factor (which reads the block caches) *before*
    /// handing those caches to the evaluator's stealing constructor.
    pub(crate) fn compute_parts<M: SpdMatrix<T> + ?Sized>(
        matrix: &M,
        comp: &Compressed<T>,
        opts: &FactorOptions,
    ) -> Result<FactorParts<T>, Error> {
        if !opts.lambda.is_finite() {
            return Err(Error::InvalidConfig {
                what: "lambda",
                constraint: "must be finite",
            });
        }
        let policy = opts.policy.unwrap_or(comp.config.policy);
        let num_threads = opts.num_threads.unwrap_or(comp.config.num_threads).max(1);
        let lambda = T::from_f64(opts.lambda);
        let t0 = Instant::now();
        let tree = &comp.tree;
        let node_count = tree.node_count();

        let slots: DisjointCells<Slot<T>> = DisjointCells::from_fn(node_count, |_| Slot::Pending);
        let comp_ref = comp;
        let factor_one = |heap: usize| {
            let slot = if tree.is_leaf(heap) {
                factor_leaf(matrix, comp_ref, heap, lambda)
            } else {
                let (l, r) = tree.children(heap);
                let gl = slots.read(l);
                let gr = slots.read(r);
                match (&*gl, &*gr) {
                    (Slot::Ready(fl), Slot::Ready(fr)) => {
                        factor_interior(matrix, comp_ref, heap, &fl.g, &fr.g)
                    }
                    // A failed child already recorded its error; stay silent.
                    _ => Slot::Pending,
                }
            };
            slots.set(heap, slot);
        };

        let exec = match policy.schedule_policy() {
            None => {
                // Level-by-level: a barrier per level orders child factor
                // writes before parent reads.
                for level in (0..=tree.depth()).rev() {
                    let nodes: Vec<usize> = tree.level_range(level).collect();
                    parallel_for(nodes.len(), num_threads, |i| factor_one(nodes[i]));
                }
                None
            }
            Some(sched) => {
                let m = comp.config.leaf_size as f64;
                let s = comp.config.max_rank as f64;
                let factor_ref = &factor_one;
                let mut plan = PhasePlan::new();
                plan.add_bottom_up(
                    "FACTOR",
                    tree,
                    |_| false,
                    |heap| {
                        if tree.is_leaf(heap) {
                            m * m * m / 3.0 + 2.0 * m * m * s
                        } else {
                            8.0 * s * s * s
                        }
                    },
                    |heap| move || factor_ref(heap),
                );
                Some(plan.run(sched, num_threads))
            }
        };

        let mut slots = slots.into_inner();
        // Surface the deepest-level failure first; ancestors of a failed
        // node deliberately stay pending.
        if let Some(err) = slots.iter().rev().find_map(|s| match s {
            Slot::Failed(err) => Some(err.clone()),
            _ => None,
        }) {
            return Err(err);
        }
        let mut nodes: Vec<NodeFactor<T>> = Vec::with_capacity(node_count);
        for (heap, slot) in slots.drain(..).enumerate() {
            match slot {
                Slot::Ready(f) => nodes.push(*f),
                _ => unreachable!(
                    "factor task for node {heap} neither completed nor reported an error"
                ),
            }
        }

        let bytes = nodes.iter().map(NodeFactor::bytes).sum();
        Ok(FactorParts {
            nodes,
            defaults: RunDefaults::new(policy, num_threads),
            stats: FactorStats {
                setup_time: t0.elapsed().as_secs_f64(),
                bytes,
                lambda: opts.lambda,
                exec,
            },
        })
    }

    /// Attach precomputed [`FactorParts`] to a compression handle (the solve
    /// plan depends only on the compressed structure, so it is built here).
    pub(crate) fn from_parts<'c>(
        comp: CompRef<'c, T>,
        parts: FactorParts<T>,
    ) -> HierarchicalFactor<'c, T> {
        let plan = solve_plan(&comp);
        HierarchicalFactor {
            comp,
            nodes: parts.nodes,
            plan,
            defaults: parts.defaults,
            stats: parts.stats,
            pool: WorkspacePool::new(),
        }
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
        (self.pool.created(), self.pool.recycled())
    }

    /// Factorization statistics (setup time, storage, scheduler stats).
    pub fn stats(&self) -> &FactorStats {
        &self.stats
    }

    /// The default traversal policy of [`HierarchicalFactor::solve`]
    /// (override per call with [`HierarchicalFactor::solve_with`]).
    pub fn policy(&self) -> TraversalPolicy {
        self.defaults.policy()
    }

    /// The default worker-thread count of [`HierarchicalFactor::solve`]
    /// (override per call with [`HierarchicalFactor::solve_with`]).
    pub fn threads(&self) -> usize {
        self.defaults.threads()
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
    /// [`Error::DimensionMismatch`] when `b.rows() != n`.
    pub fn solve(&self, b: &DenseMatrix<T>) -> Result<DenseMatrix<T>, Error> {
        self.solve_with(b, &ApplyOptions::default())
    }

    /// Solve with per-call policy / thread-count overrides (bit-identical to
    /// every other policy/thread combination).
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] when `b.rows() != n`;
    /// [`Error::Cancelled`] when `opts.cancel` fires before the sweeps
    /// complete. A cancelled solve leaves the factor fully reusable: the
    /// sweep workspace is overwritten from scratch on every run, so no
    /// partial state can leak into a later solve.
    pub fn solve_with(
        &self,
        b: &DenseMatrix<T>,
        opts: &ApplyOptions,
    ) -> Result<DenseMatrix<T>, Error> {
        if b.rows() != self.comp.n() {
            return Err(Error::DimensionMismatch {
                what: "right-hand-side rows",
                expected: self.comp.n(),
                got: b.rows(),
            });
        }
        let cancel = opts.cancel.as_ref();
        if cancel.is_some_and(CancelToken::is_cancelled) {
            return Err(Error::Cancelled);
        }
        let (policy, num_threads) = self.defaults.resolve(opts.policy, opts.threads);
        let sink = opts.trace.as_ref();
        let phase_start = sink.map(|s| s.now());
        let ws = self.pool.lease(b.cols(), || {
            SolveWorkspace::allocate(&self.comp, &self.nodes, b.cols())
        });
        let tree = &self.comp.tree;
        let pass = SolvePass {
            factor: self,
            ws: &ws,
            b,
        };
        match (policy.schedule_policy(), cancel) {
            (None, cancel) => {
                let check = || -> Result<(), Error> {
                    if cancel.is_some_and(CancelToken::is_cancelled) {
                        Err(Error::Cancelled)
                    } else {
                        Ok(())
                    }
                };
                for level in (0..=tree.depth()).rev() {
                    check()?;
                    let nodes: Vec<usize> = tree.level_range(level).collect();
                    traced_barrier(sink, "SUP", level as usize, || {
                        parallel_for(nodes.len(), num_threads, |i| {
                            traced_task(sink, "SUP", nodes[i], level as usize, || {
                                pass.task_up(nodes[i])
                            })
                        })
                    });
                }
                for level in 0..=tree.depth() {
                    check()?;
                    let nodes: Vec<usize> = tree.level_range(level).collect();
                    traced_barrier(sink, "SDOWN", level as usize, || {
                        parallel_for(nodes.len(), num_threads, |i| {
                            traced_task(sink, "SDOWN", nodes[i], level as usize, || {
                                pass.task_down(nodes[i])
                            })
                        })
                    });
                }
            }
            (Some(sched), cancel) => {
                self.plan
                    .run_with(
                        sched,
                        num_threads,
                        cancel,
                        sink,
                        |family, node| match family {
                            "SUP" => pass.task_up(node),
                            "SDOWN" => pass.task_down(node),
                            other => unreachable!("unknown solve task family {other}"),
                        },
                    )
                    .map_err(|_| Error::Cancelled)?;
            }
        }
        let out = pass.assemble();
        if let (Some(s), Some(t0)) = (sink, phase_start) {
            s.record(SpanKind::Phase, "SOLVE", 0, 0, t0, s.now());
        }
        Ok(out)
    }
}

/// Factor one leaf: Cholesky of the regularized diagonal block plus the
/// projected panels the sweeps need.
fn factor_leaf<T: Scalar, M: SpdMatrix<T> + ?Sized>(
    matrix: &M,
    comp: &Compressed<T>,
    heap: usize,
    lambda: T,
) -> Slot<T> {
    let rows = comp.tree.indices(heap);
    let mut a = match comp.self_near_block(heap) {
        Some(cached) => cached.clone(),
        None => matrix.submatrix(rows, rows),
    };
    for i in 0..a.rows() {
        let d = a.get(i, i);
        a.set(i, i, d + lambda);
    }
    let chol = match Cholesky::factor(&a) {
        Ok(c) => c,
        Err(e) => {
            return Slot::Failed(Error::NotPositiveDefinite {
                node: heap,
                pivot: e.pivot,
            })
        }
    };
    let (yu, g) = match comp.basis(heap) {
        Some(basis) => {
            // U = P^T; solve H_leaf Y = U once, then G = U^T Y.
            let mut yu = basis.interp.transpose();
            chol.solve_into(&mut yu);
            let mut g = matmul(&basis.interp, &yu);
            g.symmetrize();
            (yu, g)
        }
        // Root leaf (depth-0 tree): the Cholesky factor is the whole story.
        None => (DenseMatrix::zeros(0, 0), DenseMatrix::zeros(0, 0)),
    };
    Slot::Ready(Box::new(NodeFactor {
        chol: Some(chol),
        yu,
        w: DenseMatrix::zeros(0, 0),
        gstack: DenseMatrix::zeros(0, 0),
        down: DenseMatrix::zeros(0, 0),
        g,
        split: 0,
    }))
}

/// Factor one interior node: the SMW core `W` from the sibling skeleton
/// block and the children's reduced inverses, plus the reduced inverse and
/// downward map for the parent.
fn factor_interior<T: Scalar, M: SpdMatrix<T> + ?Sized>(
    matrix: &M,
    comp: &Compressed<T>,
    heap: usize,
    g_left: &DenseMatrix<T>,
    g_right: &DenseMatrix<T>,
) -> Slot<T> {
    let (l, r) = comp.tree.children(heap);
    let (sl, sr) = (g_left.rows(), g_right.rows());
    let total = sl + sr;

    // B = K_{skel(l), skel(r)}: from the cached sibling far block when the
    // interaction lists have it (always in HSS mode), from the kernel
    // otherwise.
    let b = match comp.cached_far_block(l, r) {
        Some(cached) => cached.clone(),
        None => {
            let skel_l = &comp.basis(l).expect("child skeleton").skeleton;
            let skel_r = &comp.basis(r).expect("child skeleton").skeleton;
            matrix.submatrix(skel_l, skel_r)
        }
    };
    debug_assert_eq!((b.rows(), b.cols()), (sl, sr), "sibling block shape");

    // C = [0 B; B^T 0], G_hat = diag(G_l, G_r).
    let mut c = DenseMatrix::zeros(total, total);
    c.set_block(0, sl, &b);
    c.set_block(sl, 0, &b.transpose());
    let mut gstack = DenseMatrix::zeros(total, total);
    gstack.set_block(0, 0, g_left);
    gstack.set_block(sl, sl, g_right);

    // W = (I + C G_hat)^{-1} C — small, dense, non-symmetric system.
    let mut core = matmul(&c, &gstack);
    for i in 0..total {
        let d = core.get(i, i);
        core.set(i, i, d + T::one());
    }
    let lu = match LuFactor::factor(&core) {
        Ok(lu) => lu,
        Err(_) => return Slot::Failed(Error::SingularCore { node: heap }),
    };
    let mut w = lu.solve(&c);
    // `(I + C G)^{-1} C` is symmetric in exact arithmetic; enforcing the
    // symmetry the LU solve loses keeps every preconditioner application an
    // exactly symmetric operator, which is what CG assumes.
    w.symmetrize();

    let (down, g) = match comp.basis(heap) {
        Some(basis) => {
            // E = P^T maps the node's skeleton coefficients into the
            // children's; everything the sweeps need is precomposed here.
            let e = basis.interp.transpose();
            let ge = matmul(&gstack, &e);
            let wge = matmul(&w, &ge);
            let down = e.sub(&wge);
            // G = E^T G_hat E - (G_hat E)^T W (G_hat E).
            let mut g = matmul(&basis.interp, &ge).sub(&matmul_tn(&ge, &wge));
            g.symmetrize();
            (down, g)
        }
        // Root: no parent reads a reduced inverse or pushes corrections.
        None => (DenseMatrix::zeros(0, 0), DenseMatrix::zeros(0, 0)),
    };
    Slot::Ready(Box::new(NodeFactor {
        chol: None,
        yu: DenseMatrix::zeros(0, 0),
        w,
        gstack,
        down,
        g,
        split: sl,
    }))
}

/// Build the two-sweep solve DAG: `SUP` postorder, `SDOWN` preorder with an
/// explicit `SUP(node) -> SDOWN(node)` edge (the downward task reads the
/// coefficients its upward task wrote). Like the evaluation plan, it depends
/// only on the compressed structure, so one plan serves every solve — and
/// both solver backends (`HierarchicalFactor` and `crate::UlvFactor`) share
/// this builder, since their sweeps have identical task-family shapes.
pub(crate) fn solve_plan<T: Scalar>(comp: &Compressed<T>) -> ReusablePlan {
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
    plan.add_bottom_up("SUP", tree, |_| false, cost);
    plan.add_top_down(
        "SDOWN",
        tree,
        |_| false,
        cost,
        |heap, deps| {
            deps.push(("SUP", heap));
        },
    );
    plan
}

/// One in-flight solve: the factor's cached state, the leased workspace, and
/// the right-hand side.
///
/// Every buffer cell has exactly one writing task per solve, and every
/// cross-task read/write pair is ordered by a plan edge (or level barrier),
/// so no cell takes a blocking lock and the solution is bit-identical
/// across traversal policies and worker counts. Concurrent solves never
/// share a workspace, so they cannot interact at all.
struct SolvePass<'p, 'a, T: Scalar> {
    factor: &'p HierarchicalFactor<'a, T>,
    ws: &'p SolveWorkspace<T>,
    b: &'p DenseMatrix<T>,
}

impl<T: Scalar> SolvePass<'_, '_, T> {
    /// `SUP`: leaf Cholesky solves + upward skeleton reductions.
    fn task_up(&self, heap: usize) {
        let comp = &*self.factor.comp;
        let nf = &self.factor.nodes[heap];
        if comp.tree.is_leaf(heap) {
            let mut y = self.ws.y.write(heap);
            *y = self.b.select_rows(comp.tree.indices(heap));
            nf.chol
                .as_ref()
                .expect("leaf factor missing")
                .solve_into(&mut y);
            if let Some(basis) = comp.basis(heap) {
                let mut v = self.ws.v.write(heap);
                gemm(
                    T::one(),
                    &basis.interp,
                    Transpose::No,
                    &y,
                    Transpose::No,
                    T::zero(),
                    &mut v,
                );
            }
        } else {
            let (l, r) = comp.tree.children(heap);
            let vl = self.ws.v.read(l);
            let vr = self.ws.v.read(r);
            let vstack = vl.vstack(&vr);
            drop((vl, vr));
            let mut z = self.ws.z.write(heap);
            gemm(
                T::one(),
                &nf.w,
                Transpose::No,
                &vstack,
                Transpose::No,
                T::zero(),
                &mut z,
            );
            if let Some(basis) = comp.basis(heap) {
                // v = E^T (vstack - G_hat z).
                let mut q = vstack;
                gemm(
                    -T::one(),
                    &nf.gstack,
                    Transpose::No,
                    &z,
                    Transpose::No,
                    T::one(),
                    &mut q,
                );
                let mut v = self.ws.v.write(heap);
                gemm(
                    T::one(),
                    &basis.interp,
                    Transpose::No,
                    &q,
                    Transpose::No,
                    T::zero(),
                    &mut v,
                );
            }
        }
    }

    /// `SDOWN`: push corrections toward the leaves, fold them into `x`.
    fn task_down(&self, heap: usize) {
        let comp = &*self.factor.comp;
        let nf = &self.factor.nodes[heap];
        let is_root = heap == 0;
        if comp.tree.is_leaf(heap) {
            let y = self.ws.y.read(heap);
            let mut x = self.ws.x.write(heap);
            x.data_mut().copy_from_slice(y.data());
            drop(y);
            if !is_root {
                let delta = self.ws.delta.read(heap);
                gemm(
                    -T::one(),
                    &nf.yu,
                    Transpose::No,
                    &delta,
                    Transpose::No,
                    T::one(),
                    &mut x,
                );
            }
        } else {
            // gamma = z + (E - W G_hat E) delta, split between the children.
            let z = self.ws.z.read(heap);
            let mut gamma = z.clone();
            drop(z);
            if !is_root {
                let delta = self.ws.delta.read(heap);
                gemm(
                    T::one(),
                    &nf.down,
                    Transpose::No,
                    &delta,
                    Transpose::No,
                    T::one(),
                    &mut gamma,
                );
            }
            let (l, r) = comp.tree.children(heap);
            let cols = gamma.cols();
            self.ws.delta.set(l, gamma.block(0, nf.split, 0, cols));
            self.ws
                .delta
                .set(r, gamma.block(nf.split, gamma.rows(), 0, cols));
        }
    }

    /// Scatter the per-leaf solutions back into original index order.
    fn assemble(&self) -> DenseMatrix<T> {
        let comp = &*self.factor.comp;
        let n = comp.n();
        let r = self.b.cols();
        let mut out = DenseMatrix::zeros(n, r);
        for leaf in comp.tree.leaf_range() {
            let x = self.ws.x.read(leaf);
            for (local, &orig) in comp.tree.indices(leaf).iter().enumerate() {
                for c in 0..r {
                    out.set(orig, c, x.get(local, c));
                }
            }
        }
        out
    }
}
