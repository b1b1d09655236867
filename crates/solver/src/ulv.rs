//! Backward-stable ULV factorization of `K + lambda I`.
//!
//! [`UlvFactor`] factors the same hierarchical (HSS) part of the compressed
//! operator as [`crate::HierarchicalFactor`], but with *orthogonal*
//! eliminations instead of the recursive Sherman–Morrison–Woodbury identity.
//! Per node the sweep performs three dense steps (the `gofmm_linalg::ulv`
//! building blocks):
//!
//! 1. **Compress the basis.** A Householder QR of the node's outgoing basis
//!    (`U = P^T` at a leaf; the stacked `diag(U~_l, U~_r) E` at an interior
//!    node) rotates the local coordinates so that all coupling to the rest
//!    of the matrix lives in the leading `s` rotated variables:
//!    `Q^T U = [U~; 0]`. A square basis (`s == m`, a rank-saturated node)
//!    leaves nothing to eliminate: such a node skips the QR and the
//!    rotation, stores no rotation, and hands `U~ = U` to its parent.
//! 2. **Rotate the block.** `D^ = Q^T (D + lambda I) Q` (two-sided
//!    reduction, `Q` kept in compact Householder form; large blocks are
//!    rotated as one compact-WY GEMM update). The node then keeps `Q` only
//!    as the blocked compact-WY [`WyRotation`] the solve sweeps apply.
//! 3. **Eliminate the trailing block.** `D^_22 = L L^T` (Cholesky),
//!    `X^T = L^{-1} D^_21`, Schur complement `S = D^_11 - X X^T`. The
//!    `(S, U~)` pair is what the parent sees as its child's diagonal block
//!    and basis; the root has no outgoing basis and Cholesky-factors its
//!    whole merged block (`s = 0`, everything eliminated).
//!
//! Because every transformation is orthogonal or a Cholesky factorization of
//! a principal submatrix of an SPD matrix, the factorization is backward
//! stable for **any** `lambda > -lambda_min(K~)`: unlike the SMW recursion
//! there is no `(I + C G)^{-1}` core whose conditioning tracks the
//! condition number of the system itself. The solver stack's stability
//! envelope test (`tests/stability_envelope.rs`) pins this down across
//! `lambda in 1e-8..1e8` times the operator scale; the SMW backend remains
//! available for comparison via `FactorBackend::Smw`.
//!
//! The runtime shape mirrors the SMW backend exactly: the factorization runs
//! bottom-up as a `FACTOR` task family on a [`PhasePlan`], solves are a
//! cached [`ReusablePlan`] `SUP`/`SDOWN` double sweep over DAG-ordered
//! [`DisjointCells`] (one writer per cell per solve, hence bit-identical
//! solutions across all four traversal policies and worker counts), and
//! [`UlvFactor::solve`] takes `&self` with per-call workspaces leased from a
//! [`WorkspacePool`], so one factorization serves parallel request streams.

use gofmm_core::{
    policy_from_tag, policy_tag, ApplyOptions, CompRef, Compressed, Error, TraversalPolicy,
};
use gofmm_linalg::{
    check_scalar_width, eliminate_trailing, gemm, householder_qr, matmul, rotate_symmetric,
    Cholesky, DenseMatrix, NotPositiveDefinite, Scalar, TrailingElimination, Transpose, WyRotation,
};
use gofmm_matrices::SpdMatrix;
use gofmm_runtime::{
    heap_level, parallel_for, CancelToken, DisjointCells, PhasePlan, ReusablePlan, RunDefaults,
    WorkspacePool,
};
use gofmm_store::{classes, Blob, ByteReader, ByteWriter, FilePanelStore, StoreError, StoreWriter};
use gofmm_telemetry::{traced_barrier, traced_task, SpanKind, SweepProgress};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use crate::factor::{solve_plan, FactorOptions, FactorStats};

/// Relative threshold separating "numerically singular" from "indefinite"
/// when a Cholesky pivot fails: a non-positive pivot within this fraction of
/// the block's diagonal scale reports [`Error::SingularCore`], anything more
/// negative reports [`Error::NotPositiveDefinite`].
const SINGULAR_REL: f64 = 1e-10;

/// Per-node ULV factor storage.
struct UlvNode<T: Scalar> {
    /// Rotation of the node's outgoing basis in blocked compact-WY form;
    /// `None` at the root (no basis above), where the block is factored
    /// unrotated, and at square-basis nodes (`s == m`), where nothing is
    /// eliminated and the block passes to the parent unrotated.
    rotation: Option<WyRotation<T>>,
    /// Trailing elimination of the rotated block: Cholesky of `D^_22`,
    /// coupling panel `X^T`, (Schur complement stripped after the upward
    /// factor pass — parents consume it during factorization only).
    elim: TrailingElimination<T>,
    /// Kept (reduced) variables `s` = the node's skeleton rank.
    reduced: usize,
    /// Eliminated variables `t` (`m - s` at a leaf, `s_l + s_r - s` inside,
    /// everything at the root).
    eliminated: usize,
    /// Interior: the left child's reduced rank (row split of the merged
    /// block between the children).
    split: usize,
}

impl<T: Scalar> UlvNode<T> {
    fn bytes(&self) -> usize {
        let scalar = std::mem::size_of::<T>();
        let mat = |m: &DenseMatrix<T>| m.rows() * m.cols() * scalar;
        let rot = self
            .rotation
            .as_ref()
            .map(|q| q.stored_scalars() * scalar)
            .unwrap_or(0);
        let chol = self.elim.chol.as_ref().map(|c| mat(c.l())).unwrap_or(0);
        rot + chol + mat(&self.elim.xt)
    }
}

/// Append a nested blob with a length prefix, so the outer decoder can hand
/// the inner decoder exactly its own bytes (inner decoders reject trailers).
fn encode_nested(out: &mut Vec<u8>, inner: &impl Blob) {
    let mut scratch = Vec::new();
    inner.encode(&mut scratch);
    ByteWriter::new(out).bytes(&scratch);
}

impl<T: Scalar> Blob for UlvNode<T> {
    /// Everything the solve sweeps read: the blocked WY rotation, the
    /// trailing Cholesky, the coupling panel `X^T`, and the dimension
    /// triple. The Schur complement is *not* encoded — it is stripped after
    /// the factor pass and decodes back as the same empty placeholder.
    fn encode(&self, out: &mut Vec<u8>) {
        ByteWriter::new(out).u8(std::mem::size_of::<T>() as u8);
        ByteWriter::new(out).u8(self.rotation.is_some() as u8);
        if let Some(rotation) = &self.rotation {
            encode_nested(out, rotation);
        }
        ByteWriter::new(out).u8(self.elim.chol.is_some() as u8);
        if let Some(chol) = &self.elim.chol {
            encode_nested(out, chol.l());
        }
        encode_nested(out, &self.elim.xt);
        let mut w = ByteWriter::new(out);
        w.usize(self.reduced);
        w.usize(self.eliminated);
        w.usize(self.split);
    }

    /// Rejects, as [`StoreError::Corrupt`], any blob whose blocks disagree
    /// with its dimension triple: the solve sweeps index by those dimensions
    /// and must not be the first to find out.
    fn decode(bytes: &[u8]) -> Result<Self, StoreError> {
        let mut r = ByteReader::new(bytes);
        check_scalar_width::<T>(r.u8()?)?;
        let rotation = if r.u8()? != 0 {
            Some(WyRotation::<T>::decode(r.bytes()?)?)
        } else {
            None
        };
        let l = if r.u8()? != 0 {
            Some(DenseMatrix::<T>::decode(r.bytes()?)?)
        } else {
            None
        };
        let xt = DenseMatrix::<T>::decode(r.bytes()?)?;
        let reduced = r.usize()?;
        let eliminated = r.usize()?;
        let split = r.usize()?;
        r.finish()?;
        let order = reduced.checked_add(eliminated);
        let consistent = order.is_some_and(|m| split <= m)
            && match &rotation {
                Some(q) => Some(q.rows()) == order && q.rank() == reduced,
                None => true,
            }
            && match &l {
                Some(l) => l.rows() == eliminated && l.cols() == eliminated && eliminated > 0,
                None => eliminated == 0,
            }
            && (xt.rows(), xt.cols()) == (eliminated, reduced);
        if !consistent {
            return Err(StoreError::Corrupt(format!(
                "ULV node blocks disagree with its dimensions \
                 (reduced {reduced}, eliminated {eliminated}, split {split})"
            )));
        }
        let chol = l.map(Cholesky::from_l);
        Ok(UlvNode {
            rotation,
            elim: TrailingElimination {
                chol,
                xt,
                schur: DenseMatrix::zeros(0, 0),
            },
            reduced,
            eliminated,
            split,
        })
    }

    fn resident_bytes(&self) -> usize {
        self.bytes()
    }
}

/// Where one node's factor blocks live: in memory (the normal path) or in a
/// [`FilePanelStore`], faulted in per solve task behind the store's LRU
/// resident set (the out-of-core path).
enum NodeSlot<T: Scalar> {
    Mem(Box<UlvNode<T>>),
    Stored {
        store: Arc<FilePanelStore>,
        key: u32,
    },
}

/// A borrowed or store-cached view of one node's factor blocks; derefs to
/// [`UlvNode`] so the sweep tasks are storage-agnostic.
enum NodeRef<'a, T: Scalar> {
    Mem(&'a UlvNode<T>),
    Stored(Arc<UlvNode<T>>),
}

impl<T: Scalar> std::ops::Deref for NodeRef<'_, T> {
    type Target = UlvNode<T>;
    fn deref(&self) -> &UlvNode<T> {
        match self {
            NodeRef::Mem(n) => n,
            NodeRef::Stored(n) => n,
        }
    }
}

/// Outcome slot of one node's factor task; `schur`/`utilde` are the
/// transient `(S, U~)` pair the parent consumes.
enum Slot<T: Scalar> {
    Pending,
    Ready {
        node: Box<UlvNode<T>>,
        schur: DenseMatrix<T>,
        utilde: DenseMatrix<T>,
    },
    Failed(Error),
}

/// Everything a ULV factorization computes before it is attached to a
/// compression handle; mirrors `factor::FactorParts`.
pub(crate) struct UlvParts<T: Scalar> {
    nodes: Vec<UlvNode<T>>,
    defaults: RunDefaults<TraversalPolicy>,
    stats: FactorStats,
}

/// One solve's per-node sweep buffers, pooled by right-hand-side count.
///
/// Every cell is fully overwritten by its (single) writing task before any
/// reader runs, and `staged` is refilled before each sweep, so no reset
/// between solves is needed.
struct UlvWorkspace<T: Scalar> {
    /// The right-hand side in tree order (row `pos` holds original row
    /// `perm[pos]`), so every leaf's rows are one contiguous range.
    staged: DenseMatrix<T>,
    /// Reduced right-hand sides passed upward (`s x r`), written by
    /// `SUP(node)`, read by `SUP(parent)`.
    bred: DisjointCells<DenseMatrix<T>>,
    /// Forward-eliminated components `y2 = L^{-1} b^_2` (`t x r`), written
    /// by `SUP(node)`, read by `SDOWN(node)`.
    y2: DisjointCells<DenseMatrix<T>>,
    /// Reduced solutions passed downward (`s x r`), written by
    /// `SDOWN(parent)`, read by `SDOWN(node)`.
    xred: DisjointCells<DenseMatrix<T>>,
    /// Per-leaf output blocks in local coordinates.
    x: DisjointCells<DenseMatrix<T>>,
}

impl<T: Scalar> UlvWorkspace<T> {
    /// Sweep cells for every node, `r` columns wide. `dims[h]` is node `h`'s
    /// `(reduced, eliminated)` pair — kept on the factor (not read from the
    /// nodes) so allocation never faults a store-backed node in.
    fn allocate(comp: &Compressed<T>, dims: &[(usize, usize)], r: usize) -> Self {
        let node_count = comp.tree.node_count();
        let leaf_rows = |heap: usize| {
            if comp.tree.is_leaf(heap) {
                comp.tree.node(heap).len
            } else {
                0
            }
        };
        Self {
            staged: DenseMatrix::zeros(comp.n(), r),
            bred: DisjointCells::from_fn(node_count, |h| DenseMatrix::zeros(dims[h].0, r)),
            y2: DisjointCells::from_fn(node_count, |h| DenseMatrix::zeros(dims[h].1, r)),
            xred: DisjointCells::from_fn(node_count, |h| DenseMatrix::zeros(dims[h].0, r)),
            x: DisjointCells::from_fn(node_count, |h| DenseMatrix::zeros(leaf_rows(h), r)),
        }
    }

    /// The solution in original index order: each leaf's block scattered
    /// through the tree permutation one output column at a time.
    fn assemble(&mut self, comp: &Compressed<T>) -> DenseMatrix<T> {
        let r = self.staged.cols();
        let mut out = DenseMatrix::zeros(comp.n(), r);
        for c in 0..r {
            let dst = out.col_mut(c);
            for leaf in comp.tree.leaf_range() {
                let x = self.x.get_mut(leaf).col(c);
                for (&orig, &v) in comp.tree.indices(leaf).iter().zip(x) {
                    dst[orig] = v;
                }
            }
        }
        out
    }
}

/// A persistent backward-stable ULV factorization of `K + lambda I` — the
/// default solve backend behind `GofmmOperator` (the SMW
/// [`crate::HierarchicalFactor`] remains available via
/// `FactorBackend::Smw`).
///
/// Built once per compression (one `FACTOR` bottom-up sweep), it serves
/// unlimited [`UlvFactor::solve`] calls: each is a cached-plan `SUP`/`SDOWN`
/// double sweep with **zero kernel-entry evaluations**, bit-identical across
/// traversal policies, worker counts, and concurrency (`solve` takes
/// `&self`). Accuracy holds across the full regularization range — `lambda`
/// from `1e-8` to `1e8` times the operator scale solves to roundoff-level
/// relative residual, where the SMW recursion demonstrably degrades at the
/// small-`lambda` end.
///
/// # Example
///
/// ```
/// use gofmm_core::{compress, GofmmConfig, TraversalPolicy};
/// use gofmm_linalg::DenseMatrix;
/// use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
/// use gofmm_solver::UlvFactor;
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
/// let factor = UlvFactor::new(&k, &comp, 1e-2).unwrap();
/// let b = DenseMatrix::<f64>::from_fn(n, 1, |i, _| (i % 7) as f64);
/// let x = factor.solve(&b).unwrap(); // &self: shareable across threads
/// assert_eq!(x.rows(), n);
/// ```
pub struct UlvFactor<'a, T: Scalar> {
    comp: CompRef<'a, T>,
    slots: Vec<NodeSlot<T>>,
    /// Per-node `(reduced, eliminated)` sweep dimensions, kept separately
    /// from the slots so workspace allocation never faults a store-backed
    /// node in.
    dims: Vec<(usize, usize)>,
    /// The SUP/SDOWN solve DAG (same shape as the SMW backend's), built once
    /// and re-run per solve.
    plan: ReusablePlan,
    defaults: RunDefaults<TraversalPolicy>,
    stats: FactorStats,
    /// Per-solve sweep buffers, leased per call and recycled across calls.
    pool: WorkspacePool<UlvWorkspace<T>>,
}

impl<'a, T: Scalar> UlvFactor<'a, T> {
    /// Factor `K + lambda I` using the compression's configured policy and
    /// thread count.
    ///
    /// The `matrix` is consulted only for blocks the compression did not
    /// cache; after this returns, [`UlvFactor::solve`] never evaluates a
    /// kernel entry.
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

    /// Factor an `Arc`-shared compression; the result is `'static` and
    /// `Send + Sync` (how the `GofmmOperator` front door holds it).
    pub fn from_shared<M: SpdMatrix<T> + ?Sized>(
        matrix: &M,
        comp: Arc<Compressed<T>>,
        opts: &FactorOptions,
    ) -> Result<UlvFactor<'static, T>, Error> {
        UlvFactor::build(matrix, CompRef::Shared(comp), opts)
    }

    /// Shared construction tail behind every public constructor.
    fn build<'c, M: SpdMatrix<T> + ?Sized>(
        matrix: &M,
        comp: CompRef<'c, T>,
        opts: &FactorOptions,
    ) -> Result<UlvFactor<'c, T>, Error> {
        let parts = Self::compute_parts(matrix, &comp, opts)?;
        Ok(Self::from_parts(comp, parts))
    }

    /// Run the `FACTOR` sweep against `comp`. Split from
    /// [`Self::from_parts`] so the operator front door can factor (which
    /// reads the block caches) *before* the evaluator steals those caches.
    pub(crate) fn compute_parts<M: SpdMatrix<T> + ?Sized>(
        matrix: &M,
        comp: &Compressed<T>,
        opts: &FactorOptions,
    ) -> Result<UlvParts<T>, Error> {
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
        let factor_one = |heap: usize| {
            let slot = if tree.is_leaf(heap) {
                factor_leaf(matrix, comp, heap, lambda)
            } else {
                let (l, r) = tree.children(heap);
                let gl = slots.read(l);
                let gr = slots.read(r);
                match (&*gl, &*gr) {
                    (
                        Slot::Ready {
                            schur: sl,
                            utilde: ul,
                            ..
                        },
                        Slot::Ready {
                            schur: sr,
                            utilde: ur,
                            ..
                        },
                    ) => factor_interior(matrix, comp, heap, sl, ul, sr, ur),
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
                let rank = |heap: usize| comp.basis(heap).map_or(0, |b| b.rank());
                let factor_ref = &factor_one;
                let mut plan = PhasePlan::new();
                plan.add_bottom_up(
                    "FACTOR",
                    tree,
                    |_| false,
                    |heap| {
                        let m = if tree.is_leaf(heap) {
                            tree.node(heap).len
                        } else {
                            let (l, r) = tree.children(heap);
                            rank(l) + rank(r)
                        };
                        factor_cost(m, rank(heap))
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
        let mut nodes: Vec<UlvNode<T>> = Vec::with_capacity(node_count);
        for (heap, slot) in slots.drain(..).enumerate() {
            match slot {
                Slot::Ready { node, .. } => nodes.push(*node),
                _ => unreachable!(
                    "ULV factor task for node {heap} neither completed nor reported an error"
                ),
            }
        }

        let bytes = nodes.iter().map(UlvNode::bytes).sum();
        Ok(UlvParts {
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

    /// Attach precomputed [`UlvParts`] to a compression handle.
    pub(crate) fn from_parts<'c>(comp: CompRef<'c, T>, parts: UlvParts<T>) -> UlvFactor<'c, T> {
        let plan = solve_plan(&comp);
        let dims = parts
            .nodes
            .iter()
            .map(|n| (n.reduced, n.eliminated))
            .collect();
        UlvFactor {
            comp,
            slots: parts
                .nodes
                .into_iter()
                .map(|n| NodeSlot::Mem(Box::new(n)))
                .collect(),
            dims,
            plan,
            defaults: parts.defaults,
            stats: parts.stats,
            pool: WorkspacePool::new(),
        }
    }

    /// One node's factor blocks — borrowed when resident, faulted in through
    /// the store's LRU resident set when spilled.
    ///
    /// # Panics
    /// On a storage failure for a spilled node (solve tasks run on DAG
    /// worker threads with no error channel; a read error on a store that
    /// validated at open time is an environment failure).
    fn node(&self, heap: usize) -> NodeRef<'_, T> {
        match &self.slots[heap] {
            NodeSlot::Mem(n) => NodeRef::Mem(n),
            NodeSlot::Stored { store, key } => {
                match store.get::<UlvNode<T>>(classes::ULV_NODE, *key) {
                    Ok(n) => NodeRef::Stored(n),
                    Err(e) => {
                        panic!("out-of-core ULV node fault failed mid-solve (node {key}): {e}")
                    }
                }
            }
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

    /// The default traversal policy of [`UlvFactor::solve`] (override per
    /// call with [`UlvFactor::solve_with`]).
    pub fn policy(&self) -> TraversalPolicy {
        self.defaults.policy()
    }

    /// The default worker-thread count of [`UlvFactor::solve`] (override per
    /// call with [`UlvFactor::solve_with`]).
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
        let mut ws = self.pool.lease(b.cols(), || {
            UlvWorkspace::allocate(&self.comp, &self.dims, b.cols())
        });
        let tree = &self.comp.tree;
        b.gather_rows_into(tree.perm(), &mut ws.staged);
        let sweep = opts
            .progress
            .as_ref()
            .map(|handle| SweepProgress::new(handle.clone(), &self.sweep_stages()));
        let pass = UlvSolvePass {
            factor: self,
            ws: &ws,
        };
        let sink = opts.trace.as_ref();
        let phase_start = sink.map(|s| s.now());
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
                                pass.task_up(nodes[i]);
                            });
                        });
                    });
                    if let Some(sp) = sweep.as_ref() {
                        sp.stage_done("SUP", level as usize);
                    }
                }
                for level in 0..=tree.depth() {
                    check()?;
                    let nodes: Vec<usize> = tree.level_range(level).collect();
                    traced_barrier(sink, "SDOWN", level as usize, || {
                        parallel_for(nodes.len(), num_threads, |i| {
                            traced_task(sink, "SDOWN", nodes[i], level as usize, || {
                                pass.task_down(nodes[i]);
                            });
                        });
                    });
                    if let Some(sp) = sweep.as_ref() {
                        sp.stage_done("SDOWN", level as usize);
                    }
                }
            }
            (Some(sched), cancel) => {
                self.plan
                    .run_with(sched, num_threads, cancel, sink, |family, node| {
                        match family {
                            "SUP" => pass.task_up(node),
                            "SDOWN" => pass.task_down(node),
                            other => unreachable!("unknown solve task family {other}"),
                        }
                        if let Some(sp) = sweep.as_ref() {
                            sp.task_done(family, heap_level(node));
                        }
                    })
                    .map_err(|_| Error::Cancelled)?;
            }
        }
        let out = ws.assemble(&self.comp);
        if let (Some(s), Some(t0)) = (sink, phase_start) {
            s.record(SpanKind::Phase, "SOLVE", 0, 0, t0, s.now());
        }
        Ok(out)
    }

    /// The solve sweep's `(family, level, task_count)` stages — what a
    /// per-call [`SweepProgress`] tracker is seeded with. Every node runs
    /// one `SUP` and one `SDOWN` task, so each level's count is its node
    /// count; stage order is sweep order (SUP bottom-up, SDOWN top-down).
    fn sweep_stages(&self) -> Vec<(&'static str, usize, usize)> {
        let tree = &self.comp.tree;
        let mut stages = Vec::with_capacity(2 * tree.depth() as usize + 2);
        for level in (0..=tree.depth()).rev() {
            stages.push(("SUP", level as usize, tree.level_range(level).count()));
        }
        for level in 0..=tree.depth() {
            stages.push(("SDOWN", level as usize, tree.level_range(level).count()));
        }
        stages
    }

    /// Spill this factor's per-node blocks into `writer` under
    /// [`classes::ULV_NODE`], keyed by heap index. After the writer is
    /// finished and the file reopened as a [`FilePanelStore`], swap the
    /// in-memory nodes out with [`UlvFactor::attach_store`].
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] when a node is already file-backed;
    /// [`Error::Storage`] on a write failure.
    pub fn spill_nodes(&self, writer: &mut StoreWriter) -> Result<(), Error> {
        for (heap, slot) in self.slots.iter().enumerate() {
            match slot {
                NodeSlot::Mem(n) => writer
                    .put(classes::ULV_NODE, heap as u32, n.as_ref())
                    .map_err(Error::from)?,
                NodeSlot::Stored { .. } => {
                    return Err(Error::InvalidConfig {
                        what: "storage",
                        constraint: "requires a factor with in-memory nodes \
                                     (not an already file-backed one)",
                    })
                }
            }
        }
        Ok(())
    }

    /// Swap every in-memory node whose key exists in `store` for an
    /// out-of-core locator, freeing the in-memory copy. Subsequent solves
    /// fault those nodes per task through the store's LRU resident set;
    /// the spilled bytes are exact IEEE bit patterns, so file-backed solves
    /// are bit-identical under every traversal policy. Nodes absent from
    /// the store are left untouched.
    pub fn attach_store(&mut self, store: &Arc<FilePanelStore>) {
        for (heap, slot) in self.slots.iter_mut().enumerate() {
            if matches!(slot, NodeSlot::Mem(_)) && store.contains(classes::ULV_NODE, heap as u32) {
                *slot = NodeSlot::Stored {
                    store: Arc::clone(store),
                    key: heap as u32,
                };
            }
        }
    }

    /// Persist this factorization into `writer`: the solve-sweep dimension
    /// table, the factor metadata (lambda, run defaults, storage size), and
    /// every per-node block (via [`UlvFactor::spill_nodes`]). A finished
    /// file reopens with [`UlvFactor::open_from`] against the same
    /// compression into a factor whose solves are bit-identical to this
    /// one's.
    ///
    /// # Errors
    /// [`Error::InvalidConfig`] for already-file-backed factors;
    /// [`Error::Storage`] on a write failure.
    pub fn write_to(&self, writer: &mut StoreWriter) -> Result<(), Error> {
        let mut buf = Vec::new();
        {
            let mut w = ByteWriter::new(&mut buf);
            w.usize(self.dims.len());
            for &(s, t) in &self.dims {
                w.usize(s);
                w.usize(t);
            }
        }
        writer
            .put_raw(classes::ULV_DIMS, 0, &buf)
            .map_err(Error::from)?;
        buf.clear();
        {
            let mut w = ByteWriter::new(&mut buf);
            w.u8(std::mem::size_of::<T>() as u8);
            w.f64(self.stats.lambda);
            w.u8(policy_tag(self.defaults.policy()));
            w.usize(self.defaults.threads());
            w.usize(self.stats.bytes);
        }
        writer
            .put_raw(classes::ULV_META, 0, &buf)
            .map_err(Error::from)?;
        self.spill_nodes(writer)
    }
}

impl<T: Scalar> UlvFactor<'static, T> {
    /// Reopen a factorization persisted with [`UlvFactor::write_to`]
    /// against the compression it was factored from (e.g. the one
    /// [`gofmm_core::Evaluator::open_from`] reconstructs), serving every
    /// per-node factor block *out of core* through the store's LRU resident
    /// set, bounded by `resident_budget` decoded bytes.
    ///
    /// # Errors
    /// [`Error::Storage`] when the file is missing, incomplete, corrupt,
    /// written at a different scalar precision, or disagrees with `comp`'s
    /// tree shape.
    pub fn open_from(
        path: &Path,
        comp: Arc<Compressed<T>>,
        resident_budget: usize,
    ) -> Result<UlvFactor<'static, T>, Error> {
        let store = Arc::new(FilePanelStore::open(path, resident_budget)?);
        let meta = store.read_raw(classes::ULV_META, 0)?;
        let mut r = ByteReader::new(&meta);
        check_scalar_width::<T>(r.u8()?)?;
        let lambda = r.f64()?;
        let policy = policy_from_tag(r.u8()?)?;
        let threads = r.usize()?;
        let bytes = r.usize()?;
        r.finish().map_err(Error::from)?;

        let dims_raw = store.read_raw(classes::ULV_DIMS, 0)?;
        let mut r = ByteReader::new(&dims_raw);
        let count = r.usize()?;
        let node_count = comp.tree.node_count();
        if count != node_count {
            return Err(Error::Storage {
                message: format!(
                    "factor store holds {count} nodes but the compression's tree has {node_count}"
                ),
            });
        }
        let mut dims = Vec::with_capacity(count);
        for _ in 0..count {
            let s = r.usize()?;
            let t = r.usize()?;
            dims.push((s, t));
        }
        r.finish().map_err(Error::from)?;

        let mut slots = Vec::with_capacity(node_count);
        for heap in 0..node_count {
            if !store.contains(classes::ULV_NODE, heap as u32) {
                return Err(Error::Storage {
                    message: format!("factor store is missing node {heap}"),
                });
            }
            slots.push(NodeSlot::Stored {
                store: Arc::clone(&store),
                key: heap as u32,
            });
        }

        let comp = CompRef::Shared(comp);
        let plan = solve_plan(&comp);
        Ok(UlvFactor {
            comp,
            slots,
            dims,
            plan,
            defaults: RunDefaults::new(policy, threads),
            stats: FactorStats {
                setup_time: 0.0,
                bytes,
                lambda,
                exec: None,
            },
            pool: WorkspacePool::new(),
        })
    }
}

/// Classify a failed trailing Cholesky: a non-finite pivot means the matrix
/// fed the block a NaN or infinity ([`Error::NonFiniteInput`]), not that
/// lambda is too small; a pivot at roundoff scale relative to the block's
/// diagonal means the regularized block is numerically singular
/// ([`Error::SingularCore`]); a genuinely negative pivot means it is
/// indefinite ([`Error::NotPositiveDefinite`]).
fn classify_breakdown<T: Scalar>(
    heap: usize,
    keep: usize,
    dhat: &DenseMatrix<T>,
    err: &NotPositiveDefinite,
) -> Error {
    if !err.value.is_finite() {
        return Error::NonFiniteInput {
            what: "matrix block",
        };
    }
    let scale = (0..dhat.rows())
        .map(|i| dhat.get(i, i).to_f64().abs())
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    if err.value.is_finite() && err.value.abs() <= SINGULAR_REL * scale {
        Error::SingularCore { node: heap }
    } else {
        Error::NotPositiveDefinite {
            node: heap,
            // Report the pivot in rotated-block coordinates (the eliminated
            // block starts at row `keep`).
            pivot: keep + err.pivot,
        }
    }
}

/// HEFT cost estimate, in flops, of factoring a node of order `m` with an
/// `m x s` outgoing basis: the basis QR and the two-sided rotation
/// (`2 m s^2 + 8 m^2 s`; none for a square basis, which is not rotated), then
/// the trailing elimination of `t = m - s` variables (Cholesky, triangular
/// solve, Schur update: `t^3 / 3 + t^2 s + 2 t s^2`).
fn factor_cost(m: usize, s: usize) -> f64 {
    let (m, s) = (m as f64, s as f64);
    let t = m - s;
    let rotate = if t > 0.0 {
        2.0 * m * s * s + 8.0 * m * m * s
    } else {
        0.0
    };
    rotate + t * t * t / 3.0 + t * t * s + 2.0 * t * s * s
}

/// Shared tail of the leaf and interior factor tasks: compress the node's
/// outgoing basis `u` (`m x s`) and rotate the block with it, eliminate the
/// trailing variables, and package the persistent node plus the transient
/// `(S, U~)` pair.
///
/// A QR of the basis gives `Q^T U = [U~; 0]`, so the trailing `m - s`
/// rotated variables decouple from the rest of the matrix. A square basis
/// (`s == m`) decouples nothing: the node is neither rotated nor
/// eliminated, and hands `U~ = U` and its unrotated block to the parent.
/// The root has no basis and eliminates everything (`s = 0`).
fn finish_node<T: Scalar>(
    heap: usize,
    d: DenseMatrix<T>,
    u: Option<DenseMatrix<T>>,
    split: usize,
) -> Slot<T> {
    let (rotation, utilde, reduced) = match u {
        Some(u) if u.cols() < u.rows() => {
            let qr = householder_qr(&u);
            let utilde = qr.r();
            (Some(qr), utilde, u.cols())
        }
        Some(u) => {
            let reduced = u.cols();
            (None, u, reduced)
        }
        None => (None, DenseMatrix::zeros(0, 0), 0),
    };
    let dhat = match &rotation {
        Some(qr) => rotate_symmetric(qr, &d),
        None => d,
    };
    let rotation = rotation.as_ref().map(WyRotation::from_qr);
    let mut elim = match eliminate_trailing(&dhat, reduced) {
        Ok(elim) => elim,
        Err(e) => return Slot::Failed(classify_breakdown(heap, reduced, &dhat, &e)),
    };
    // The Schur complement travels up through the slot; the persistent node
    // keeps only what the solve sweeps read.
    let schur = std::mem::replace(&mut elim.schur, DenseMatrix::zeros(0, 0));
    let eliminated = dhat.rows() - reduced;
    Slot::Ready {
        node: Box::new(UlvNode {
            rotation,
            elim,
            reduced,
            eliminated,
            split,
        }),
        schur,
        utilde,
    }
}

/// Factor one leaf: its regularized diagonal block with the leaf basis
/// `U = P^T`.
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
    // A depth-0 tree's root leaf has no outgoing basis: plain dense Cholesky.
    let u = comp.basis(heap).map(|basis| basis.interp.transpose());
    finish_node(heap, a, u, 0)
}

/// Factor one interior node: assemble the merged block from the children's
/// Schur complements and the sibling skeleton block, and factor it with the
/// stacked basis.
fn factor_interior<T: Scalar, M: SpdMatrix<T> + ?Sized>(
    matrix: &M,
    comp: &Compressed<T>,
    heap: usize,
    schur_l: &DenseMatrix<T>,
    utilde_l: &DenseMatrix<T>,
    schur_r: &DenseMatrix<T>,
    utilde_r: &DenseMatrix<T>,
) -> Slot<T> {
    let (l, r) = comp.tree.children(heap);
    let (sl, sr) = (schur_l.rows(), schur_r.rows());
    let merged = sl + sr;

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

    // Merged block in the children's reduced coordinates:
    // [ S_l              U~_l B U~_r^T ]
    // [ (U~_l B U~_r^T)^T     S_r      ]
    let (perm_l, perm_r) = (as_permutation(utilde_l), as_permutation(utilde_r));
    let mut d = DenseMatrix::zeros(merged, merged);
    d.set_block(0, 0, schur_l);
    d.set_block(sl, sl, schur_r);
    // (U~_l B U~_r^T)^T = U~_r (U~_l B)^T.
    let left = basis_times(utilde_l, perm_l.as_deref(), &b);
    let coupling_t = basis_times(utilde_r, perm_r.as_deref(), &left.transpose());
    d.set_block(0, sl, &coupling_t.transpose());
    d.set_block(sl, 0, &coupling_t);

    // Stacked outgoing basis diag(U~_l, U~_r) E, E = P^T; the root has none
    // and Cholesky-factors the whole merged block.
    let u = comp.basis(heap).map(|basis| {
        let e = basis.interp.transpose();
        debug_assert_eq!(e.rows(), merged, "nested basis shape");
        let cols = e.cols();
        let mut ue = DenseMatrix::zeros(merged, cols);
        ue.set_block(
            0,
            0,
            &basis_times(utilde_l, perm_l.as_deref(), &e.block(0, sl, 0, cols)),
        );
        ue.set_block(
            sl,
            0,
            &basis_times(utilde_r, perm_r.as_deref(), &e.block(sl, merged, 0, cols)),
        );
        ue
    });
    finish_node(heap, d, u, sl)
}

/// `Some(perm)` when the child basis `U~` is a permutation matrix, column
/// `k` holding its single one in row `perm[k]`: the `U~ = P^T` a square,
/// unrotated leaf hands up (every point is a skeleton point, so `P` only
/// reorders them).
fn as_permutation<T: Scalar>(u: &DenseMatrix<T>) -> Option<Vec<usize>> {
    let mut taken = vec![false; u.rows()];
    let mut perm = Vec::with_capacity(u.cols());
    for k in 0..u.cols() {
        let mut one = None;
        for (i, &v) in u.col(k).iter().enumerate() {
            if v != T::zero() {
                if v != T::one() || one.is_some() || taken[i] {
                    return None;
                }
                one = Some(i);
            }
        }
        let i = one?;
        taken[i] = true;
        perm.push(i);
    }
    Some(perm)
}

/// `U~ X` for a child basis `U~`: a row scatter when `U~` is the
/// permutation `perm` (equal to the GEMM for finite `X`), a GEMM otherwise.
fn basis_times<T: Scalar>(
    u: &DenseMatrix<T>,
    perm: Option<&[usize]>,
    x: &DenseMatrix<T>,
) -> DenseMatrix<T> {
    match perm {
        Some(p) => {
            let mut out = DenseMatrix::zeros(u.rows(), x.cols());
            for c in 0..x.cols() {
                let (src, dst) = (x.col(c), out.col_mut(c));
                for (k, &i) in p.iter().enumerate() {
                    dst[i] = src[k];
                }
            }
            out
        }
        None => matmul(u, x),
    }
}

/// One in-flight ULV solve: the factor's frozen state and the leased
/// workspace, which holds the right-hand side in tree order.
///
/// Every buffer cell has exactly one writing task per solve, and every
/// cross-task read/write pair is ordered by a plan edge (or level barrier),
/// so solutions are bit-identical across traversal policies and worker
/// counts; concurrent solves never share a workspace.
struct UlvSolvePass<'p, 'a, T: Scalar> {
    factor: &'p UlvFactor<'a, T>,
    ws: &'p UlvWorkspace<T>,
}

impl<T: Scalar> UlvSolvePass<'_, '_, T> {
    /// `SUP`: rotate the node's right-hand side (a leaf's contiguous staged
    /// rows, or the children's reduced ones), forward-eliminate the trailing
    /// variables, push the reduced right-hand side upward.
    fn task_up(&self, heap: usize) {
        let comp = &*self.factor.comp;
        let nf = self.factor.node(heap);
        let (s, t) = (nf.reduced, nf.eliminated);
        let r = self.ws.staged.cols();
        // b^ is assembled in a factorization-scratch buffer, column by column.
        let mut buf = take_scratch::<T>();
        if comp.tree.is_leaf(heap) {
            let node = comp.tree.node(heap);
            for j in 0..r {
                buf.extend_from_slice(&self.ws.staged.col(j)[node.start..node.start + node.len]);
            }
        } else {
            let (l, rr) = comp.tree.children(heap);
            let bl = self.ws.bred.read(l);
            let br = self.ws.bred.read(rr);
            for j in 0..r {
                buf.extend_from_slice(bl.col(j));
                buf.extend_from_slice(br.col(j));
            }
        }
        let mut bh = DenseMatrix::from_vec(s + t, r, buf);
        if let Some(qr) = &nf.rotation {
            qr.apply_qt(&mut bh);
        }
        // y2 = L^{-1} b^_2 — kept for the downward substitution. Copied into
        // the pooled buffer (not replaced), so recycled workspaces really do
        // recycle their allocations.
        let mut y2 = self.ws.y2.write(heap);
        for j in 0..r {
            y2.col_mut(j).copy_from_slice(&bh.col(j)[s..s + t]);
        }
        nf.elim.forward_eliminated(&mut y2);
        // Reduced RHS for the parent: b~ = b^_1 - X y2.
        let mut bred = self.ws.bred.write(heap);
        for j in 0..r {
            bred.col_mut(j).copy_from_slice(&bh.col(j)[..s]);
        }
        if s > 0 && t > 0 {
            gemm(
                -T::one(),
                &nf.elim.xt,
                Transpose::Yes,
                &y2,
                Transpose::No,
                T::one(),
                &mut bred,
            );
        }
        give_scratch(bh);
    }

    /// `SDOWN`: back-substitute the eliminated variables, rotate back to the
    /// incoming coordinates, split to the children (or emit the leaf block).
    fn task_down(&self, heap: usize) {
        let comp = &*self.factor.comp;
        let nf = self.factor.node(heap);
        let (s, t) = (nf.reduced, nf.eliminated);
        let r = self.ws.staged.cols();
        let x1 = self.ws.xred.read(heap);
        // x2 = L^{-T} (y2 - X^T x1), in a factorization-scratch buffer.
        let mut x2 = take_scratch::<T>();
        x2.extend_from_slice(self.ws.y2.read(heap).data());
        let mut x2 = DenseMatrix::from_vec(t, r, x2);
        if t > 0 {
            if s > 0 {
                gemm(
                    -T::one(),
                    &nf.elim.xt,
                    Transpose::No,
                    &x1,
                    Transpose::No,
                    T::one(),
                    &mut x2,
                );
            }
            nf.elim.backward_eliminated(&mut x2);
        }
        // u = [x1; x2], rotated back.
        let mut u = take_scratch::<T>();
        for j in 0..r {
            u.extend_from_slice(x1.col(j));
            u.extend_from_slice(x2.col(j));
        }
        drop(x1);
        give_scratch(x2);
        let mut u = DenseMatrix::from_vec(s + t, r, u);
        if let Some(qr) = &nf.rotation {
            qr.apply_q(&mut u);
        }
        if comp.tree.is_leaf(heap) {
            let mut x = self.ws.x.write(heap);
            x.data_mut().copy_from_slice(u.data());
        } else {
            let (l, rr) = comp.tree.children(heap);
            let mut xl = self.ws.xred.write(l);
            for j in 0..r {
                xl.col_mut(j).copy_from_slice(&u.col(j)[..nf.split]);
            }
            drop(xl);
            let mut xr = self.ws.xred.write(rr);
            for j in 0..r {
                xr.col_mut(j).copy_from_slice(&u.col(j)[nf.split..]);
            }
        }
        give_scratch(u);
    }
}

/// An empty buffer from the calling thread's factorization scratch: a solve
/// task's temporaries reuse the capacity of earlier tasks' on that thread
/// instead of the allocator's. Return it with [`give_scratch`].
fn take_scratch<T: Scalar>() -> Vec<T> {
    let mut buf = T::with_factor_scratch(Vec::pop).unwrap_or_default();
    buf.clear();
    buf
}

/// Return a temporary's buffer to the calling thread's factorization scratch.
fn give_scratch<T: Scalar>(m: DenseMatrix<T>) {
    T::with_factor_scratch(|stash| stash.push(m.into_vec()));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::krylov::LinearOperator;
    use crate::Shifted;
    use gofmm_core::{compress, GofmmConfig};
    use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn test_matrix(n: usize) -> KernelMatrix {
        KernelMatrix::new(
            PointCloud::uniform(n, 3, 42),
            KernelType::Gaussian { bandwidth: 1.0 },
            1e-6,
            "ulv-test",
        )
    }

    fn hss_config() -> GofmmConfig {
        GofmmConfig::default()
            .with_leaf_size(32)
            .with_max_rank(48)
            .with_tolerance(1e-9)
            .with_budget(0.0)
            .with_threads(2)
            .with_policy(TraversalPolicy::Sequential)
    }

    #[test]
    fn ulv_factor_inverts_hss_operator() {
        // Budget 0: the factorization covers the whole compressed operator,
        // so factor.solve is (numerically) its exact inverse.
        let n = 300;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &hss_config());
        let lambda = 1e-2;
        let factor = UlvFactor::new(&k, &comp, lambda).unwrap();
        assert!(factor.stats().setup_time > 0.0);
        assert!(factor.stats().bytes > 0);
        assert_eq!(factor.lambda(), lambda);
        let mut rng = StdRng::seed_from_u64(9);
        let x_true = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        // b = (K~ + lambda I) x_true through the evaluator.
        let ev = gofmm_core::Evaluator::new(&k, &comp);
        let op = Shifted::new(&ev, lambda);
        let b = op.matvec(&x_true);
        let x = factor.solve(&b).unwrap();
        let resid = op.matvec(&x).sub(&b).norm_fro() / b.norm_fro();
        assert!(resid < 1e-10, "ULV factor residual {resid}");
    }

    #[test]
    fn square_basis_nodes_are_neither_rotated_nor_stored() {
        // leaf_size == max_rank on a 6-D cloud: every leaf basis saturates
        // (s == m), so no leaf eliminates anything.
        let n = 512;
        let k = KernelMatrix::new(
            PointCloud::uniform(n, 6, 42),
            KernelType::Gaussian { bandwidth: 1.0 },
            1e-6,
            "ulv-saturated",
        );
        let cfg = hss_config().with_leaf_size(32).with_max_rank(32);
        let comp = Arc::new(compress::<f64, _>(&k, &cfg));
        // The rank cap leaves a large compression error in 6-D: at small
        // lambda the HSS part is not positive definite.
        let lambda = 1.0;
        let opts = FactorOptions {
            lambda,
            ..FactorOptions::default()
        };
        let factor = UlvFactor::from_shared(&k, Arc::clone(&comp), &opts).unwrap();
        let tree = &comp.tree;
        let order = |h: usize| {
            if tree.is_leaf(h) {
                tree.node(h).len
            } else {
                let (l, r) = tree.children(h);
                factor.dims[l].0 + factor.dims[r].0
            }
        };
        let square: Vec<usize> = (0..tree.node_count())
            .filter(|&h| comp.basis(h).is_some_and(|b| b.rank() == order(h)))
            .collect();
        assert!(
            tree.leaf_range().all(|h| square.contains(&h)),
            "every leaf basis must be square in this configuration"
        );
        for &h in &square {
            let node = factor.node(h);
            assert!(node.rotation.is_none(), "node {h}: square basis rotated");
            assert_eq!((node.eliminated, node.bytes()), (0, 0), "node {h}");
        }

        // Storage: the dimension formula with no rotation at square nodes,
        // and exactly one m x m rotation less per square node than rotating
        // them too. A rotation of k reflectors of length m stores its WY
        // blocks: sum_g (m - g nb) w_g + w_g (w_g + 1) / 2 scalars, with
        // w_g the width of block g.
        let wy_scalars = |m: usize, k: usize| -> usize {
            WyRotation::<f64>::stored_scalars_for(m, k).expect("no overflow")
        };
        let scalar = std::mem::size_of::<f64>();
        let (mut expected, mut rotated_everywhere) = (0, 0);
        for (h, &(s, t)) in factor.dims.iter().enumerate() {
            let m = s + t;
            let elim = (t * t + t * s) * scalar;
            let rot = if comp.basis(h).is_some() {
                wy_scalars(m, s) * scalar
            } else {
                0
            };
            expected += elim + if t > 0 { rot } else { 0 };
            rotated_everywhere += elim + rot;
        }
        assert_eq!(factor.stats().bytes, expected);
        let dropped: usize = square
            .iter()
            .map(|&h| wy_scalars(order(h), order(h)) * scalar)
            .sum();
        assert_eq!(factor.stats().bytes + dropped, rotated_everywhere);

        // The solve still inverts the (budget 0) HSS operator.
        let mut rng = StdRng::seed_from_u64(28);
        let x_true = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let ev = gofmm_core::Evaluator::new(&k, &comp);
        let op = Shifted::new(&ev, lambda);
        let b = op.matvec(&x_true);
        let x = factor.solve(&b).unwrap();
        let resid = op.matvec(&x).sub(&b).norm_fro() / b.norm_fro();
        assert!(resid < 1e-10, "ULV factor residual {resid}");

        // Every factor and solve policy x {1, 2} threads: the same bits.
        for policy in [
            TraversalPolicy::Sequential,
            TraversalPolicy::LevelByLevel,
            TraversalPolicy::DagHeft,
            TraversalPolicy::DagFifo,
        ] {
            for threads in [1, 2] {
                let factor_opts = FactorOptions {
                    lambda,
                    policy: Some(policy),
                    num_threads: Some(threads),
                };
                let refactored = UlvFactor::with_options(&k, &comp, &factor_opts).unwrap();
                let opts = ApplyOptions::new()
                    .with_policy(policy)
                    .with_threads(threads);
                let ours = refactored.solve_with(&b, &opts).unwrap();
                let theirs = factor.solve_with(&b, &opts).unwrap();
                assert_eq!(ours.data(), x.data(), "{policy}/{threads}: refactored");
                assert_eq!(theirs.data(), x.data(), "{policy}/{threads}: solve");
            }
        }

        // A store round trip: square nodes encode as rotation-absent, and
        // the reopened factor solves bit for bit.
        let dir = std::env::temp_dir().join(format!("gofmm-ulv-square-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("factor.gfmm");
        let mut writer = StoreWriter::create(&path).unwrap();
        factor.write_to(&mut writer).unwrap();
        writer.finish().unwrap();
        let reopened = UlvFactor::open_from(&path, Arc::clone(&comp), 1 << 16).unwrap();
        assert_eq!(reopened.stats().bytes, factor.stats().bytes);
        for &h in &square {
            assert!(reopened.node(h).rotation.is_none(), "node {h} reopened");
        }
        assert_eq!(reopened.solve(&b).unwrap().data(), x.data());
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn corrupt<T: Scalar>(bytes: &[u8]) -> bool {
        matches!(UlvNode::<T>::decode(bytes), Err(StoreError::Corrupt(_)))
    }

    #[test]
    fn node_decode_rejects_truncated_inconsistent_and_hostile_blobs() {
        let n = 256;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &hss_config());
        let factor = UlvFactor::new(&k, &comp, 1e-2).unwrap();
        let rotated = (0..comp.tree.node_count())
            .map(|h| factor.node(h))
            .find(|node| node.rotation.is_some() && node.reduced > 1)
            .expect("a rotated node");
        let mut bytes = Vec::new();
        rotated.encode(&mut bytes);
        let back = UlvNode::<f64>::decode(&bytes).unwrap();
        assert_eq!(back.bytes(), rotated.bytes());
        let mut again = Vec::new();
        back.encode(&mut again);
        assert_eq!(again, bytes, "decode . encode is the identity");

        for len in 0..bytes.len() {
            assert!(corrupt::<f64>(&bytes[..len]), "truncated to {len} bytes");
        }
        assert!(!corrupt::<f64>(&bytes) && corrupt::<f32>(&bytes));
        // The rotation's length prefix sits after the width and presence
        // bytes; its own header follows: width, m, k, nb, block count.
        let patch = |at: usize, value: u64| {
            let mut b = bytes.clone();
            b[at..at + 8].copy_from_slice(&value.to_le_bytes());
            b
        };
        let (prefix, rot) = (2, 10);
        let s_nb = WyRotation::<f64>::block_width(rotated.reduced) as u64;
        for (at, value, what) in [
            (prefix, u64::MAX, "hostile rotation length"),
            (prefix, 1 << 40, "rotation longer than the blob"),
            (rot + 1, u64::MAX, "hostile m"),
            (rot + 9, 1 << 40, "hostile k"),
            (rot + 17, s_nb + 1, "nb disagrees with k"),
            (rot + 25, 1000, "block count disagrees with k"),
        ] {
            assert!(corrupt::<f64>(&patch(at, value)), "{what}");
        }
        // The dimension triple closes the blob: a rotation, Cholesky and
        // coupling panel sized for (s, t) cannot be served as anything else.
        let (s, t) = (rotated.reduced, rotated.eliminated);
        let tail = bytes.len() - 24;
        for (field, value, what) in [
            (0, s + 1, "reduced"),
            (0, s - 1, "reduced"),
            (1, t + 1, "eliminated"),
            (1, 0, "nothing eliminated"),
            (2, s + t + 1, "split past the block"),
            (1, usize::MAX, "hostile eliminated"),
        ] {
            assert!(
                corrupt::<f64>(&patch(tail + 8 * field, value as u64)),
                "{what} = {value}"
            );
        }
    }

    #[test]
    fn version_one_store_file_is_refused_with_a_typed_error() {
        let n = 128;
        let k = test_matrix(n);
        let comp = Arc::new(compress::<f64, _>(&k, &hss_config()));
        let opts = FactorOptions {
            lambda: 1e-2,
            ..FactorOptions::default()
        };
        let factor = UlvFactor::from_shared(&k, Arc::clone(&comp), &opts).unwrap();
        let dir = std::env::temp_dir().join(format!("gofmm-ulv-v1-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("factor.gfmm");
        let mut writer = StoreWriter::create(&path).unwrap();
        factor.write_to(&mut writer).unwrap();
        writer.finish().unwrap();
        assert!(UlvFactor::open_from(&path, Arc::clone(&comp), 1 << 20).is_ok());
        // A file from before blocked WY rotations: header version 1.
        let mut file = std::fs::read(&path).unwrap();
        file[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&path, &file).unwrap();
        match UlvFactor::open_from(&path, Arc::clone(&comp), 1 << 20) {
            Err(Error::Storage { message }) => {
                assert!(message.contains("version 1"), "{message}")
            }
            Err(other) => panic!("expected Error::Storage, got {other}"),
            Ok(_) => panic!("a version-1 store file must be refused"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn solves_are_bit_identical_across_policies_and_threads() {
        let n = 320;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &hss_config());
        let factor = UlvFactor::new(&k, &comp, 1e-3).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let b = DenseMatrix::<f64>::random_gaussian(n, 3, &mut rng);
        let x_ref = factor.solve(&b).unwrap();
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
                let x = factor.solve_with(&b, &opts).unwrap();
                assert_eq!(
                    x.data(),
                    x_ref.data(),
                    "{policy}/{threads} threads: solve drifted"
                );
            }
        }
    }

    #[test]
    fn concurrent_solves_on_one_shared_factor_are_bit_identical() {
        let n = 256;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &hss_config());
        let factor = UlvFactor::new(&k, &comp, 1e-2).unwrap();
        let mut rng = StdRng::seed_from_u64(14);
        let b = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let x_ref = factor.solve(&b).unwrap();
        let policies = [
            TraversalPolicy::Sequential,
            TraversalPolicy::LevelByLevel,
            TraversalPolicy::DagHeft,
            TraversalPolicy::DagFifo,
        ];
        std::thread::scope(|scope| {
            for t in 0..6 {
                let (factor, b, x_ref) = (&factor, &b, &x_ref);
                let policy = policies[t % policies.len()];
                scope.spawn(move || {
                    let opts = ApplyOptions::new().with_policy(policy).with_threads(2);
                    for _ in 0..3 {
                        let x = factor.solve_with(b, &opts).unwrap();
                        assert_eq!(x.data(), x_ref.data(), "{policy}: concurrent solve drifted");
                    }
                });
            }
        });
    }

    #[test]
    fn depth_zero_tree_factors_as_dense_cholesky() {
        let n = 24;
        let k = test_matrix(n);
        let cfg = hss_config().with_leaf_size(64); // single-leaf tree
        let comp = compress::<f64, _>(&k, &cfg);
        assert_eq!(comp.tree.leaf_count(), 1);
        let lambda = 1e-3;
        let factor = UlvFactor::new(&k, &comp, lambda).unwrap();
        let mut rng = StdRng::seed_from_u64(10);
        let x_true = DenseMatrix::<f64>::random_gaussian(n, 1, &mut rng);
        let all: Vec<usize> = (0..n).collect();
        let mut a = k.submatrix(&all, &all);
        for i in 0..n {
            a[(i, i)] += lambda;
        }
        let b = gofmm_linalg::matmul(&a, &x_true);
        let x = factor.solve(&b).unwrap();
        assert!(x.sub(&x_true).norm_max() < 1e-8);
    }

    #[test]
    fn solve_recycles_buffers_across_rhs_widths() {
        let n = 256;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &hss_config());
        let factor = UlvFactor::new(&k, &comp, 1e-2).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let b2 = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let b5 = DenseMatrix::<f64>::random_gaussian(n, 5, &mut rng);
        let x2a = factor.solve(&b2).unwrap();
        let x5 = factor.solve(&b5).unwrap(); // different width, new workspace
        let x2b = factor.solve(&b2).unwrap(); // recycles the width-2 one
        assert_eq!(x5.cols(), 5);
        assert_eq!(x2a.data(), x2b.data());
    }

    #[test]
    fn rejects_non_finite_lambda_and_wrong_rhs() {
        let n = 64;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &hss_config());
        assert!(matches!(
            UlvFactor::<f64>::new(&k, &comp, f64::NAN),
            Err(Error::InvalidConfig { .. })
        ));
        let factor = UlvFactor::new(&k, &comp, 1e-2).unwrap();
        let bad = DenseMatrix::<f64>::zeros(n - 1, 1);
        assert!(matches!(
            factor.solve(&bad),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn hostile_regularization_reports_not_positive_definite() {
        let n = 200;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &hss_config());
        match UlvFactor::<f64>::new(&k, &comp, -100.0) {
            Err(Error::NotPositiveDefinite { .. }) => {}
            Err(other) => panic!("expected NotPositiveDefinite, got {other}"),
            Ok(_) => panic!("hostile regularization must not factor"),
        }
    }

    #[test]
    fn extreme_lambdas_solve_to_roundoff_backward_error() {
        // The backward-stability claim in miniature: 12 orders of magnitude
        // of regularization, every solve at roundoff-level *backward error*
        // eta = ||b - A x|| / (||A|| ||x|| + ||b||) against the compressed
        // operator. (The b-relative residual necessarily scales like
        // eps * kappa for small lambda — no solver can beat that — which is
        // what CG refinement is for; see tests/stability_envelope.rs.)
        let n = 256;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &hss_config());
        let ev = gofmm_core::Evaluator::new(&k, &comp);
        let mut rng = StdRng::seed_from_u64(15);
        let b = DenseMatrix::<f64>::random_gaussian(n, 1, &mut rng);
        for lambda in [1e-6, 1e-3, 1.0, 1e3, 1e6] {
            let factor = UlvFactor::new(&k, &comp, lambda).unwrap();
            let x = factor.solve(&b).unwrap();
            let op = Shifted::new(&ev, lambda);
            // Power-iteration estimate of ||A||_2 (a lower bound suffices:
            // it only makes the asserted backward error larger).
            let mut v = DenseMatrix::<f64>::random_gaussian(n, 1, &mut rng);
            let mut opnorm = 0.0f64;
            for _ in 0..3 {
                let av = op.matvec(&v);
                opnorm = av.norm_fro() / v.norm_fro();
                let scale = 1.0 / av.norm_fro();
                v = av;
                v.scale(scale);
            }
            let resid = op.matvec(&x).sub(&b).norm_fro();
            let eta = resid / (opnorm * x.norm_fro() + b.norm_fro());
            assert!(eta < 1e-12, "lambda {lambda}: backward error {eta}");
        }
    }
}
