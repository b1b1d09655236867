//! The evaluation phase (paper Algorithm 2.7): approximate `u = K w` using the
//! compressed representation via the four task families N2S, S2S, S2N and L2L.
//!
//! One engine, [`Evaluator`], built by [`Evaluator::new`] over a compression
//! that it borrows (`&comp`), owns (`comp`; a one-shot matvec is
//! `Evaluator::new(&k, comp).apply(&w)`) or shares behind an `Arc` (the
//! construction behind the `GofmmOperator` front door), or reopened from a
//! store file by [`Evaluator::open_from`].
//!
//! It evaluates every near/far interaction block from the matrix straight
//! into contiguous per-node panels — the only copy of the block values;
//! compression stores none — builds the evaluation task DAG once (a
//! [`ReusablePlan`]), and then serves unlimited [`Evaluator::apply`] calls
//! that touch the matrix zero times. `apply` takes `&self`: every call
//! leases its per-node value buffers from an internal
//! [`WorkspacePool`](gofmm_runtime::WorkspacePool) and resizes them to its
//! width in place, so one evaluator can serve many request threads
//! concurrently.
//!
//! How a panel is stored and multiplied lives in `panel.rs`; the persisted
//! operator format ([`Evaluator::write_to`] / [`Evaluator::open_from`]) in
//! `persist.rs`. This file owns the engine: the constructor, the apply sweep
//! and its task bodies, and the plan.
//!
//! All three forms of the compression pack the same panels, hence give the
//! same bits, and every traversal policy gives bit-identical outputs: all
//! four schedules run the same plan, whose dependency edges fix every
//! cross-task accumulation order, so the schedule cannot change a bit.

use crate::compress::{CompRef, Compressed};
use crate::config::{ApplyOptions, PanelPrecision, TraversalPolicy};
use crate::error::Error;
use crate::lists::InteractionLists;
use crate::panel::{with_temp, Panel, Values};
use crate::sweep::{SweepDriver, SweepWorkspace};
use crate::tune::TuneStats;
use gofmm_linalg::blas::{gemm_flops, KC};
use gofmm_linalg::{gemm, DenseMatrix, Scalar, Transpose};
use gofmm_matrices::SpdMatrix;
use gofmm_runtime::{parallel_for, DisjointCells, ExecStats, Family, ReusablePlan};
use gofmm_telemetry::{PhaseTimes, Stopwatch};
use gofmm_tree::PartitionTree;
use std::sync::atomic::{AtomicU64, Ordering};

/// Statistics of one evaluation.
#[derive(Clone, Debug, Default)]
pub struct EvaluationStats {
    /// Wall-clock seconds of the apply itself (excludes evaluator setup).
    pub time: f64,
    /// Wall-clock seconds spent building the [`Evaluator`] that served this
    /// evaluation: packing interaction blocks and building the task DAG.
    /// Amortized over every subsequent apply on the same evaluator.
    pub setup_time: f64,
    /// Bytes of interaction blocks held *resident in memory* by the
    /// evaluator. These are read, never recomputed, on every apply. With
    /// [`PanelPrecision::MixedF32`] panels this reflects the
    /// reduced `f32` storage footprint; panels freed by
    /// [`Evaluator::tune`] or swapped out by [`Evaluator::attach_store`]
    /// (out-of-core serving) no longer count.
    pub cached_bytes: usize,
    /// Storage precision of the evaluator's owned packed panels.
    pub panel_precision: PanelPrecision,
    /// Floating-point operations performed (GEMM counts).
    pub flops: u64,
    /// Scheduler statistics of the sweep; `Some` for every apply.
    pub exec: Option<ExecStats>,
    /// Outcome of the last accepted [`Evaluator::tune`] run on the serving
    /// evaluator, `None` when it was never tuned.
    pub tune: Option<TuneStats>,
}

impl EvaluationStats {
    /// Achieved GFLOP/s of the apply phase.
    pub fn gflops(&self) -> f64 {
        if self.time > 0.0 {
            self.flops as f64 / self.time / 1e9
        } else {
            0.0
        }
    }

    /// The timing fields as a [`PhaseTimes`] view — `"setup"` (amortized
    /// evaluator construction) and `"apply"` (this call's sweep), in
    /// seconds. The unified shape shared with `SolveStats::phase_times()`
    /// and the serving stats.
    pub fn phase_times(&self) -> PhaseTimes {
        PhaseTimes::new()
            .with("setup", self.setup_time)
            .with("apply", self.time)
    }
}

/// A persistent evaluator: `u ≈ K w` served from precomputed state.
///
/// GOFMM splits work into a one-time compression and a per-matvec
/// evaluation. `Evaluator` hoists every piece of per-matvec state that does
/// not depend on the right-hand side into construction:
///
/// * every far block `K_{skel(beta), skel(alpha)}` and near block
///   `K_{beta, alpha}` is packed into one contiguous column-major matrix per
///   node (blocks side by side), so each S2S/L2L task is a single GEMM
///   against packed storage instead of a loop of small GEMMs against lazily
///   materialized blocks. Of each symmetric pair of off-diagonal near
///   blocks only the lower heap index's is packed (the owner layout);
///   its transpose serves the other leaf;
/// * the evaluation [`ReusablePlan`] (N2S postorder, S2S, S2N preorder, L2L;
///   Figure 3 of the paper) is built once and re-run for every apply;
/// * the per-node value buffers (`w~`, `u~`, far/near leaf outputs) live in
///   a [`WorkspacePool`](gofmm_runtime::WorkspacePool): each apply leases
///   any idle workspace (allocating only on a pool miss) and gives its
///   cells the call's right-hand-side count in place, which makes
///   [`Evaluator::apply`] a `&self` operation that any number of threads
///   may call on one shared evaluator simultaneously.
///
/// After construction, [`Evaluator::apply`] never evaluates a kernel entry —
/// the source matrix is not even reachable from it.
///
/// # Example
///
/// Build once, apply twice — the second apply pays no setup and recycles the
/// first apply's workspace:
///
/// ```
/// use gofmm_core::{compress, Evaluator, GofmmConfig, TraversalPolicy};
/// use gofmm_linalg::DenseMatrix;
/// use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};
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
///     .with_tolerance(1e-5)
///     .with_threads(2)
///     .with_policy(TraversalPolicy::Sequential);
/// let comp = compress::<f64, _>(&k, &config);
///
/// // Pays block packing + DAG construction once...
/// let evaluator = Evaluator::new(&k, &comp);
/// let w = DenseMatrix::<f64>::from_fn(n, 2, |i, j| ((i + 2 * j) % 5) as f64);
///
/// // ...then serves repeated matvecs from cached state, bit-identically —
/// // through a shared reference.
/// let (u1, stats) = evaluator.apply(&w).unwrap();
/// let (u2, _) = evaluator.apply(&w).unwrap();
/// assert_eq!(u1.data(), u2.data());
/// assert!(stats.cached_bytes > 0);
/// assert_eq!(stats.cached_bytes, evaluator.cached_bytes());
/// ```
pub struct Evaluator<'a, T: Scalar> {
    comp: CompRef<'a, T>,
    /// Per-node far blocks `K_{skel(beta), skel(alpha)}`, packed into one
    /// panel (in memory or file-backed); [`Panel::Empty`] when the node has
    /// none.
    pub(crate) far: Vec<Panel<T>>,
    /// Per-leaf near blocks `K_{beta, alpha}`, packed like `far`
    /// ([`Panel::Empty`] for interior nodes), laid out as `near_map` says.
    pub(crate) near: Vec<Panel<T>>,
    /// The per-leaf index lists of the owner layout.
    pub(crate) near_map: NearMap,
    /// Per-node *effective* far lists after [`Evaluator::tune`] dropped
    /// small-norm far blocks; `None` until a tune commits a drop. The
    /// compression's own lists are shared with the factorization and stay
    /// pristine — only the evaluator's packed-panel column order changes.
    pub(crate) tuned_far: Option<Vec<Vec<usize>>>,
    /// Outcome of the last accepted [`Evaluator::tune`] run, reported
    /// through every subsequent [`EvaluationStats::tune`].
    pub(crate) tune_stats: Option<TuneStats>,
    /// The evaluation task DAG with its default policy / worker count
    /// (overridable per call through [`ApplyOptions`]) and the per-apply
    /// value buffers, leased per call and recycled across calls.
    sweep: SweepDriver<ApplyWorkspace<T>>,
    setup_time: f64,
    pub(crate) cached_bytes: usize,
}

/// One apply's per-node value buffers, pooled whatever their width:
/// [`SweepWorkspace::reset`] gives every cell the call's column count.
///
/// Every cell is written by exactly one task per apply, ordered by the plan's
/// dependency edges; concurrent applies run on *different* workspaces, so the
/// DAG-delegated synchronization story is unchanged from the `&mut self`
/// days — it just holds per lease instead of per evaluator.
struct ApplyWorkspace<T: Scalar> {
    /// The right-hand side in tree order (row `pos` holds original row
    /// `perm[pos]`), so every node's rows are one contiguous range. Filled
    /// in full before each sweep.
    staged: DenseMatrix<T>,
    /// Skeleton weights `w~` per node.
    wtilde: DisjointCells<DenseMatrix<T>>,
    /// Skeleton potentials `u~` per node.
    utilde: DisjointCells<DenseMatrix<T>>,
    /// Far-field contribution to the output, per leaf.
    u_far: DisjointCells<DenseMatrix<T>>,
    /// Near-field (direct) contribution to the output, per leaf.
    u_near: DisjointCells<DenseMatrix<T>>,
    /// Mirror products `Y_β = K_{β,off}^T w_β` per owning leaf: the
    /// contributions of β's owned off-diagonal blocks to the other leaves'
    /// outputs, stacked in [`NearMap::mirror_entries`] order. Resized in
    /// place and overwritten by β's L2L task on every apply that computes
    /// them ([`NearMap::owner_mirrors`]); stale or empty otherwise.
    mirror: DisjointCells<DenseMatrix<T>>,
}

impl<T: Scalar> ApplyWorkspace<T> {
    /// Column-less buffers with their row counts: the staged input `n`,
    /// `w~`/`u~` the skeleton rank per node, the output accumulators the
    /// leaf size (zero elsewhere). [`SweepWorkspace::reset`] sizes them.
    fn allocate(comp: &Compressed<T>) -> Self {
        let node_count = comp.tree.node_count();
        let rank_of = |heap: usize| comp.bases[heap].as_ref().map(|b| b.rank()).unwrap_or(0);
        let leaf = |h: usize| {
            let rows = if comp.tree.is_leaf(h) {
                comp.tree.node(h).len
            } else {
                0
            };
            DenseMatrix::zeros(rows, 0)
        };
        Self {
            staged: DenseMatrix::zeros(comp.n(), 0),
            wtilde: DisjointCells::from_fn(node_count, |h| DenseMatrix::zeros(rank_of(h), 0)),
            utilde: DisjointCells::from_fn(node_count, |h| DenseMatrix::zeros(rank_of(h), 0)),
            u_far: DisjointCells::from_fn(node_count, leaf),
            u_near: DisjointCells::from_fn(node_count, leaf),
            mirror: DisjointCells::from_fn(node_count, |_| DenseMatrix::zeros(0, 0)),
        }
    }

    /// The output in original index order: each leaf's `u_far + u_near`,
    /// scattered through the tree permutation one output column at a time,
    /// so the random-row writes of a column stay within that column. First,
    /// in tree order, the mirror blocks its owners computed for a leaf are
    /// added into its `u_near` column in ascending owner order: the one
    /// fixed-order pass that closes a sweep.
    fn assemble(
        &mut self,
        comp: &Compressed<T>,
        near_map: &NearMap,
        owner_mirrors: bool,
    ) -> DenseMatrix<T> {
        let r = self.staged.cols();
        if owner_mirrors {
            for leaf in comp.tree.leaf_range() {
                let near = self.u_near.get_mut(leaf);
                for &(owner, row) in near_map.mirrors_in(leaf) {
                    let y = self.mirror.get_mut(owner);
                    for c in 0..r {
                        let y = &y.col(c)[row..row + near.rows()];
                        for (n, &m) in near.col_mut(c).iter_mut().zip(y) {
                            *n += m;
                        }
                    }
                }
            }
        }
        let mut out = DenseMatrix::zeros(comp.n(), r);
        for c in 0..r {
            let dst = out.col_mut(c);
            for leaf in comp.tree.leaf_range() {
                let far = self.u_far.get_mut(leaf).col(c);
                let near = self.u_near.get_mut(leaf).col(c);
                for ((&orig, &f), &n) in comp.tree.indices(leaf).iter().zip(far).zip(near) {
                    dst[orig] = f + n;
                }
            }
        }
        out
    }
}

impl<T: Scalar> SweepWorkspace<T> for ApplyWorkspace<T> {
    fn staged(&mut self) -> &mut DenseMatrix<T> {
        &mut self.staged
    }

    /// Resize `staged` and `wtilde` to `r` columns, and the accumulator
    /// families to `r` zeroed columns. `staged` is refilled before every
    /// sweep, and every `wtilde` cell that is ever read is fully
    /// overwritten by its node's N2S task. The `mirror` cells are left to
    /// the L2L tasks that compute them.
    fn reset(&mut self, r: usize) {
        self.staged.resize(self.staged.rows(), r);
        self.wtilde.for_each_mut(|_, m| m.resize(m.rows(), r));
        let zeroed = |_, m: &mut DenseMatrix<T>| {
            m.resize(m.rows(), 0);
            m.resize(m.rows(), r);
        };
        self.utilde.for_each_mut(zeroed);
        self.u_far.for_each_mut(zeroed);
        self.u_near.for_each_mut(zeroed);
    }
}

/// Widest apply whose owners compute their mirror blocks
/// ([`NearMap::owner_mirrors`]).
const OWNER_MIRROR_MAX_COLS: usize = 4;

/// Which near blocks each leaf's panel holds: the owner layout.
///
/// The near lists are symmetric and `K` is SPD, so `K_{αβ} = K_{βα}^T`: one
/// copy of each off-diagonal near block serves both leaves. The lower heap
/// index owns each pair: β's panel holds `K_{ββ}` and then `K_{βα}` for each
/// `α > β` in `Near(β)`, in list order — dense, or the `left · right` pair
/// a tune truncated it to. Mirror blocks are never stored: β's panel also
/// serves `K_{β,off}^T w_β` to the leaves it owns blocks of.
pub(crate) struct NearMap {
    /// Per leaf: the near leaves whose blocks its panel holds, in panel
    /// column order, the leaf itself first (empty for interior nodes).
    entries: Vec<Vec<usize>>,
    /// Per leaf α: `(β, row)` for every owner `β < α` of a block of α's,
    /// ascending in β: α's share of `Y_β` starts at row `row`.
    mirrors_in: Vec<Vec<(usize, usize)>>,
}

impl NearMap {
    pub(crate) fn new(tree: &PartitionTree, lists: &InteractionLists) -> Self {
        let node_count = tree.node_count();
        let mut map = NearMap {
            entries: vec![Vec::new(); node_count],
            mirrors_in: Vec::new(),
        };
        for beta in tree.leaf_range() {
            let near = &lists.near[beta];
            if near.is_empty() {
                continue;
            }
            debug_assert!(near.contains(&beta), "a Near list holds its leaf");
            let owned = near.iter().copied().filter(|&alpha| alpha > beta);
            map.entries[beta] = std::iter::once(beta).chain(owned).collect();
        }
        let mut mirrors_in = vec![Vec::new(); node_count];
        for beta in tree.leaf_range() {
            let mut row = 0;
            for &alpha in map.mirror_entries(beta) {
                mirrors_in[alpha].push((beta, row));
                row += tree.node(alpha).len;
            }
        }
        map.mirrors_in = mirrors_in;
        map
    }

    /// The near leaves whose blocks `heap`'s panel holds, in column order.
    pub(crate) fn entries(&self, heap: usize) -> &[usize] {
        &self.entries[heap]
    }

    /// The leaves `heap`'s mirror product serves: its owned off-diagonal
    /// entries.
    fn mirror_entries(&self, heap: usize) -> &[usize] {
        self.entries[heap]
            .split_first()
            .map_or(&[], |(_, owned)| owned)
    }

    /// Rows of `heap`'s mirror product `Y_heap`.
    fn mirror_rows(&self, tree: &PartitionTree, heap: usize) -> usize {
        let entries = self.mirror_entries(heap).iter();
        entries.map(|&alpha| tree.node(alpha).len).sum()
    }

    /// `(owner, row)` of every mirror block that lands in `heap`'s output.
    fn mirrors_in(&self, heap: usize) -> &[(usize, usize)] {
        &self.mirrors_in[heap]
    }

    /// Whether an apply of `r` columns over `near` panels has the owners
    /// compute their mirror blocks (each block read once, then a pass over
    /// the mirror cells), rather than each leaf reading the blocks its
    /// owners store in place (each block read twice, no mirror cells). The
    /// mirror cells hold `r` values per mirror row against the 64-odd panel
    /// values per mirror column they save reading, so they pay off only for
    /// narrow applies; a spilled panel always serves both products on one
    /// fault. Both ways give the same bits.
    fn owner_mirrors<T: Scalar>(&self, r: usize, near: &[Panel<T>]) -> bool {
        r <= OWNER_MIRROR_MAX_COLS || near.iter().any(Panel::is_stored)
    }
}

impl<'a, T: Scalar> Evaluator<'a, T> {
    /// Build an evaluator over a borrowed (`&comp`), owned (`comp`) or
    /// `Arc`-shared compression. The traversal policy and thread count in
    /// its configuration become the apply defaults (override them per call
    /// with [`Evaluator::apply_with`]).
    ///
    /// The `matrix` is consulted only here, to evaluate the panels; every
    /// subsequent [`Evaluator::apply`] runs without kernel access.
    pub fn new<M: SpdMatrix<T> + ?Sized>(matrix: &M, comp: impl Into<CompRef<'a, T>>) -> Self {
        let t0 = Stopwatch::start();
        let comp = comp.into();
        let node_count = comp.tree.node_count();

        // --- Pack interaction blocks into contiguous per-node storage ------
        // Every parallel iteration writes only its own node's cells
        // (DisjointCells verifies that at runtime).
        let far_cells: DisjointCells<Panel<T>> =
            DisjointCells::from_fn(node_count, |_| Panel::Empty);
        let near_cells: DisjointCells<Panel<T>> =
            DisjointCells::from_fn(node_count, |_| Panel::Empty);

        let near_map = NearMap::new(&comp.tree, &comp.lists);
        {
            let comp = &*comp;
            parallel_for(node_count, comp.config.num_threads.max(1), |heap| {
                let (near, far) = pack_node(matrix, comp, &near_map, heap);
                near_cells.set(heap, near);
                far_cells.set(heap, far);
            });
        }

        Evaluator::assemble_evaluator(
            comp,
            far_cells.into_inner(),
            near_cells.into_inner(),
            near_map,
            t0,
        )
    }

    /// Shared tail of [`Evaluator::new`] and [`Evaluator::open_from`]: DAG
    /// construction with the configuration's policy and thread count, cache
    /// accounting and pool setup.
    pub(crate) fn assemble_evaluator(
        comp: CompRef<'a, T>,
        far: Vec<Panel<T>>,
        near: Vec<Panel<T>>,
        near_map: NearMap,
        t0: Stopwatch,
    ) -> Self {
        // --- Build the evaluation DAG once ---------------------------------
        let plan = evaluation_plan(&comp, &near_map);
        let (policy, num_threads) = (comp.config.policy, comp.config.num_threads);

        let mut evaluator = Evaluator {
            comp,
            far,
            near,
            near_map,
            tuned_far: None,
            tune_stats: None,
            sweep: SweepDriver::new("APPLY", "input rows", plan, policy, num_threads),
            setup_time: t0.seconds(),
            cached_bytes: 0,
        };
        evaluator.recompute_cached_bytes();
        evaluator
    }

    /// Matrix dimension `N`.
    pub fn n(&self) -> usize {
        self.comp.n()
    }

    /// The compressed representation this evaluator serves (owned, borrowed
    /// or shared): the tree, the lists and the bases. It holds no block
    /// values; those live only in this evaluator's panels.
    pub fn compressed(&self) -> &Compressed<T> {
        &self.comp
    }

    /// Wall-clock seconds spent in construction (block packing + DAG build).
    pub fn setup_time(&self) -> f64 {
        self.setup_time
    }

    /// Bytes of interaction blocks held *resident in memory* by this
    /// evaluator; every other per-node structure it reads is the
    /// compression's. Each symmetric pair of off-diagonal near blocks is
    /// stored once (the owner layout), so this is about half the near
    /// blocks' bytes plus the far panels'. Shrinks when
    /// [`Evaluator::tune`] drops or rank-truncates panels (every tune edit
    /// removes columns or swaps in a strictly smaller pair) and when
    /// [`Evaluator::attach_store`] swaps panels out to a file store.
    pub fn cached_bytes(&self) -> usize {
        self.cached_bytes
    }

    /// Outcome of the last accepted [`Evaluator::tune`] run, `None` when the
    /// evaluator was never tuned (or every tune rejected).
    pub fn tune_stats(&self) -> Option<&TuneStats> {
        self.tune_stats.as_ref()
    }

    /// The *effective* far interaction list of `heap`: the compression's
    /// list, minus any far blocks a committed [`Evaluator::tune`] dropped.
    /// Every packed-panel apply stacks skeleton weights in this order.
    pub(crate) fn far_list(&self, heap: usize) -> &[usize] {
        match &self.tuned_far {
            Some(lists) => &lists[heap],
            None => &self.comp.lists.far[heap],
        }
    }

    /// Re-derive `cached_bytes` — the in-memory panel bytes — from the
    /// current panel set. Called whenever panels move (construction,
    /// [`Evaluator::tune`], [`Evaluator::attach_store`]).
    pub(crate) fn recompute_cached_bytes(&mut self) {
        let panels = self.far.iter().chain(&self.near);
        self.cached_bytes = panels.map(Panel::resident_bytes).sum();
    }

    /// Lifetime lease traffic of the internal apply-workspace pool, as
    /// `(created, recycled)`: how many checkouts allocated a fresh workspace
    /// versus reused a shelved one. A steady-state serving loop should see
    /// `recycled` grow and `created` stay flat.
    pub fn pool_lease_stats(&self) -> (usize, usize) {
        self.sweep.pool_lease_stats()
    }

    /// Storage precision of the packed panels, taken from
    /// [`crate::GofmmConfig::panel_precision`].
    pub fn panel_precision(&self) -> PanelPrecision {
        self.comp.config.panel_precision
    }

    /// The default traversal policy of [`Evaluator::apply`] (override per
    /// call with [`Evaluator::apply_with`]).
    pub fn policy(&self) -> TraversalPolicy {
        self.sweep.policy()
    }

    /// The default worker-thread count of [`Evaluator::apply`] (override per
    /// call with [`Evaluator::apply_with`]).
    pub fn threads(&self) -> usize {
        self.sweep.threads()
    }

    /// Evaluate `u ≈ K w` from cached state, using the evaluator's default
    /// policy and thread count.
    ///
    /// Takes `&self`: any number of threads may call this simultaneously on
    /// one shared evaluator; each call leases its own buffer workspace from
    /// the internal pool. Performs zero kernel-entry evaluations — every
    /// interaction block was packed at construction.
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] when `w.rows() != n`;
    /// [`Error::Storage`] when a file-backed panel fails to fault in.
    pub fn apply(&self, w: &DenseMatrix<T>) -> Result<(DenseMatrix<T>, EvaluationStats), Error> {
        self.apply_with(w, &ApplyOptions::default())
    }

    /// Evaluate `u ≈ K w` with per-call policy / thread-count overrides.
    ///
    /// All policies and worker counts produce bit-identical outputs; the
    /// options only steer scheduling. See [`Evaluator::apply`].
    ///
    /// # Errors
    /// [`Error::DimensionMismatch`] when `w.rows() != n`;
    /// [`Error::Cancelled`] when `opts.cancel` fires before the sweep
    /// completes (checked once per task under every policy);
    /// [`Error::Storage`] when a file-backed panel fails to fault in (the
    /// first failed fault stops the sweep).
    /// A cancelled or failed call leaves the evaluator fully reusable: its
    /// leased workspace is returned to the pool and reset on the next
    /// checkout.
    pub fn apply_with(
        &self,
        w: &DenseMatrix<T>,
        opts: &ApplyOptions,
    ) -> Result<(DenseMatrix<T>, EvaluationStats), Error> {
        let sw = Stopwatch::start();
        let flops = AtomicU64::new(0);
        let owner_mirrors = self.near_map.owner_mirrors(w.cols(), &self.near);
        let (out, exec) = self.sweep.run(
            &self.comp.tree,
            w,
            opts,
            || ApplyWorkspace::allocate(&self.comp),
            |ws, family, node| {
                let pass = ApplyPass {
                    ev: self,
                    ws,
                    flops: &flops,
                    owner_mirrors,
                };
                pass.dispatch(family, node)
            },
            |ws, exec| (ws.assemble(&self.comp, &self.near_map, owner_mirrors), exec),
        )?;
        let stats = EvaluationStats {
            time: sw.seconds(),
            setup_time: self.setup_time,
            cached_bytes: self.cached_bytes,
            panel_precision: self.panel_precision(),
            flops: flops.load(Ordering::Relaxed),
            exec: Some(exec),
            tune: self.tune_stats.clone(),
        };
        Ok((out, stats))
    }
}

/// The concatenation of `entries`' original row indices, in order: the
/// columns of a near panel.
fn near_gather_indices<T: Scalar>(comp: &Compressed<T>, entries: &[usize]) -> Vec<usize> {
    entries
        .iter()
        .flat_map(|&alpha| comp.tree.indices(alpha).iter().copied())
        .collect()
}

/// Evaluate one node's `(near panel, far panel)` from the matrix, in the
/// compression's configured panel precision: the one per-node routine
/// behind every constructor.
///
/// The near panel holds the blocks of `near_map`'s entries for the leaf, in
/// that order: `K_{ββ}` and the blocks `K_{βα}` of the owned pairs `α > β`
/// (one gathered block). The mirror blocks `K_{βα}`, `α < β`, are never
/// evaluated: their owner α packs the transpose.
fn pack_node<T: Scalar, M: SpdMatrix<T> + ?Sized>(
    matrix: &M,
    comp: &Compressed<T>,
    near_map: &NearMap,
    heap: usize,
) -> (Panel<T>, Panel<T>) {
    let owned = |mat| Panel::owned(Values::dense(mat, comp.config.panel_precision));
    let mut near = Panel::Empty;
    let entries = near_map.entries(heap);
    if !entries.is_empty() {
        let cols = near_gather_indices(comp, entries);
        near = owned(matrix.submatrix(comp.tree.indices(heap), &cols));
    }
    let mut far = Panel::Empty;
    if comp.bases[heap].is_some() && !comp.lists.far[heap].is_empty() {
        far = owned(extract_far_panel(matrix, comp, heap));
    }
    (near, far)
}

/// Evaluate the packed far panel `K_{skel(heap), skel(Far(heap))}` from the
/// matrix.
fn extract_far_panel<T: Scalar, M: SpdMatrix<T> + ?Sized>(
    matrix: &M,
    comp: &Compressed<T>,
    heap: usize,
) -> DenseMatrix<T> {
    let basis = comp.bases[heap]
        .as_ref()
        .expect("node must have a skeleton");
    let cols: Vec<usize> = comp.lists.far[heap]
        .iter()
        .flat_map(|&alpha| {
            comp.bases[alpha]
                .as_ref()
                .expect("far node must have a skeleton")
                .skeleton
                .iter()
                .copied()
        })
        .collect();
    matrix.submatrix(&basis.skeleton, &cols)
}

/// One in-flight apply: the evaluator's cached state and the leased
/// workspace, which holds the current right-hand sides in tree order.
///
/// All four per-node value families live in [`DisjointCells`] inside the
/// leased workspace: every cell has exactly one writing task, and every
/// cross-task read/write pair is ordered by a plan dependency edge (which
/// level-by-level honours with the barrier between groups), so no cell ever
/// takes a blocking lock. In particular the `utilde` accumulation —
/// written by a node's own S2S *and* by its parent's S2N — is ordered by the
/// explicit `S2S(child) -> S2N(parent)` edges in [`evaluation_plan`], which
/// also fixes the floating-point accumulation order, making outputs
/// bit-identical across all policies. Concurrent applies never share a
/// workspace, so they cannot interact at all.
struct ApplyPass<'p, 'a, T: Scalar> {
    ev: &'p Evaluator<'a, T>,
    ws: &'p ApplyWorkspace<T>,
    flops: &'p AtomicU64,
    /// Whether owners compute their mirror blocks into the workspace's
    /// mirror cells ([`NearMap::owner_mirrors`]); otherwise every leaf reads
    /// the blocks its owners store in place.
    owner_mirrors: bool,
}

impl<T: Scalar> ApplyPass<'_, '_, T> {
    fn count_flops(&self, flops: u64) {
        self.flops.fetch_add(flops, Ordering::Relaxed);
    }

    /// Right-hand-side count of this apply.
    fn r(&self) -> usize {
        self.ws.staged.cols()
    }

    /// Node `heap`'s rows of the staged right-hand side: one contiguous
    /// copy per column.
    fn staged_rows(&self, heap: usize) -> DenseMatrix<T> {
        let node = self.ev.compressed().tree.node(heap);
        self.ws
            .staged
            .block(node.start, node.start + node.len, 0, self.r())
    }

    /// Call `mul` with the staged rows of `entries` stacked in order —
    /// a packed near panel's `panel_cols` column order — in a reused
    /// buffer: one contiguous copy per near node per column.
    fn near_stack(
        &self,
        entries: &[usize],
        panel_cols: usize,
        mul: &mut dyn FnMut(&DenseMatrix<T>),
    ) {
        let tree = &self.ev.compressed().tree;
        let r = self.r();
        let fill = |data: &mut Vec<T>| {
            for c in 0..r {
                let src = self.ws.staged.col(c);
                for &alpha in entries {
                    let node = tree.node(alpha);
                    data.extend_from_slice(&src[node.start..node.start + node.len]);
                }
            }
        };
        with_temp(panel_cols, r, fill, |stack| mul(stack));
    }

    /// Add the mirror blocks of leaf `heap` into `out` (its `u_near`), in
    /// ascending owner order, reading each owner's block `K_{βα}` in place
    /// and transposed: `out += K_{βα}^T w_β`. The owners have not computed
    /// them this apply (see [`ApplyPass::owner_mirrors`]). Each product is
    /// summed from zero and then added, exactly as an owner's mirror cell
    /// is added by [`ApplyWorkspace::assemble`], so both ways give the same
    /// bits: within one GEMM accumulation block (an owner of at most
    /// [`KC`] rows, so a low-rank owner's rank is within it too) the GEMM's
    /// own `C + sum` is that addition; past it the product goes through a
    /// scratch block.
    fn read_mirrors(&self, heap: usize, out: &mut DenseMatrix<T>) -> u64 {
        let tree = &self.ev.compressed().tree;
        let (r, rows) = (self.r(), out.rows());
        let mut flops = 0;
        for &(owner, row) in self.ev.near_map.mirrors_in(heap) {
            let node = tree.node(owner);
            let (panel, cols) = (&self.ev.near[owner], node.len + row..node.len + row + rows);
            let fill = |buf: &mut Vec<T>| {
                for c in 0..r {
                    buf.extend_from_slice(
                        &self.ws.staged.col(c)[node.start..node.start + node.len],
                    );
                }
            };
            with_temp(node.len, r, fill, |w| {
                if node.len <= KC {
                    flops += panel.apply_t_cols(cols, w, T::one(), out);
                } else {
                    let zeros = |buf: &mut Vec<T>| buf.resize(rows * r, T::zero());
                    with_temp(rows, r, zeros, |y| {
                        flops += panel.apply_t_cols(cols, w, T::zero(), y);
                        out.axpy(T::one(), y);
                    })
                }
            });
        }
        flops
    }

    /// Stack the far nodes' skeleton weights in *effective* Far-list order
    /// (the compression's list minus tune-dropped blocks), matching a packed
    /// far panel's `panel_cols` column order.
    fn far_weight_stack(&self, heap: usize, panel_cols: usize, r: usize) -> DenseMatrix<T> {
        let mut wstack = DenseMatrix::zeros(panel_cols, r);
        let mut off = 0;
        for &alpha in self.ev.far_list(heap) {
            let wa = self.ws.wtilde.read(alpha);
            wstack.set_block(off, 0, &wa);
            off += wa.rows();
        }
        debug_assert_eq!(off, panel_cols, "far panel/weight stack mismatch");
        wstack
    }

    /// Route a `(family, node)` key from the cached plan to its task. Only
    /// the panel-reading families fault panels in, so only they can fail.
    fn dispatch(&self, family: Family, node: usize) -> Result<(), Error> {
        match family {
            "N2S" => self.task_n2s(node),
            "S2S" => return self.task_s2s(node),
            "S2N" => self.task_s2n(node),
            "L2L" => return self.task_l2l(node),
            other => unreachable!("unknown evaluation task family {other}"),
        }
        Ok(())
    }

    /// N2S: skeleton weights `w~_alpha = P w_alpha` (leaf) or
    /// `P [w~_l; w~_r]` (interior).
    fn task_n2s(&self, heap: usize) {
        let comp = self.ev.compressed();
        let Some(basis) = comp.bases[heap].as_ref() else {
            return;
        };
        let local = if comp.tree.is_leaf(heap) {
            self.staged_rows(heap)
        } else {
            let (l, r) = comp.tree.children(heap);
            let wl = self.ws.wtilde.read(l);
            let wr = self.ws.wtilde.read(r);
            wl.vstack(&wr)
        };
        let mut wt = self.ws.wtilde.write(heap);
        gemm(
            T::one(),
            &basis.interp,
            Transpose::No,
            &local,
            Transpose::No,
            T::zero(),
            &mut wt,
        );
        self.count_flops(gemm_flops(basis.rank(), self.r(), local.rows()));
    }

    /// S2S: skeleton potentials `u~_beta += K_{skel(beta), Far-skels} w~_Far`
    /// — the far panel times the far nodes' stacked skeleton weights.
    fn task_s2s(&self, heap: usize) -> Result<(), Error> {
        let panel = &self.ev.far[heap];
        if panel.is_empty() {
            return Ok(());
        }
        let mut ut = self.ws.utilde.write(heap);
        self.count_flops(panel.apply(
            |cols, mul| mul(&self.far_weight_stack(heap, cols, self.r())),
            &mut ut,
            None,
        )?);
        Ok(())
    }

    /// S2N: interpolate skeleton potentials back down the tree.
    fn task_s2n(&self, heap: usize) {
        let comp = self.ev.compressed();
        let Some(basis) = comp.bases[heap].as_ref() else {
            return;
        };
        let r = self.r();
        let ut = self.ws.utilde.read(heap);
        if comp.tree.is_leaf(heap) {
            let len = comp.tree.node(heap).len;
            let mut out = self.ws.u_far.write(heap);
            gemm(
                T::one(),
                &basis.interp,
                Transpose::Yes,
                &ut,
                Transpose::No,
                T::one(),
                &mut out,
            );
            self.count_flops(gemm_flops(len, r, basis.rank()));
        } else {
            let (l, rgt) = comp.tree.children(heap);
            let sl = comp.bases[l].as_ref().map(|b| b.rank()).unwrap_or(0);
            let sr = comp.bases[rgt].as_ref().map(|b| b.rank()).unwrap_or(0);
            let mut contrib = DenseMatrix::zeros(sl + sr, r);
            gemm(
                T::one(),
                &basis.interp,
                Transpose::Yes,
                &ut,
                Transpose::No,
                T::zero(),
                &mut contrib,
            );
            drop(ut);
            self.count_flops(gemm_flops(sl + sr, r, basis.rank()));
            let top = contrib.block(0, sl, 0, r);
            let bottom = contrib.block(sl, sl + sr, 0, r);
            self.ws.utilde.write(l).axpy(T::one(), &top);
            self.ws.utilde.write(rgt).axpy(T::one(), &bottom);
        }
    }

    /// L2L: direct (near) interactions — the near panel times the stacked
    /// input rows of its entries. On narrow or spilled applies the same
    /// task, on the same warm panel, also forms the mirror product
    /// `Y_β = K_{β,off}^T w_β` that [`ApplyWorkspace::assemble`] adds into
    /// the other leaves' outputs.
    fn task_l2l(&self, heap: usize) -> Result<(), Error> {
        let panel = &self.ev.near[heap];
        if panel.is_empty() {
            return Ok(());
        }
        let map = &self.ev.near_map;
        let entries = map.entries(heap);
        let mut out = self.ws.u_near.write(heap);
        let by_owner = self.owner_mirrors && !map.mirror_entries(heap).is_empty();
        let mut mirror = by_owner.then(|| {
            let mut y = self.ws.mirror.write(heap);
            y.resize(map.mirror_rows(&self.ev.compressed().tree, heap), self.r());
            y
        });
        self.count_flops(panel.apply(
            |cols, mul| self.near_stack(entries, cols, mul),
            &mut out,
            mirror.as_deref_mut(),
        )?);
        if !self.owner_mirrors {
            self.count_flops(self.read_mirrors(heap, &mut out));
        }
        Ok(())
    }
}

/// Build the evaluation phase plan (N2S postorder, S2S any order after its
/// inputs, S2N preorder, L2L independent) — Figure 3 of the paper — through
/// the shared execution-plan layer. The plan depends only on the compressed
/// structure, never on a right-hand side, which is what lets [`Evaluator`]
/// build it once and re-run it per matvec.
///
/// Beyond the paper's read-set edges, each `S2N(node)` also depends on the
/// S2S tasks of `node`'s children: `S2N(node)` accumulates into the
/// children's `utilde` cells, which their own S2S tasks also write. The extra
/// edges give every `utilde` cell a schedule-independent write order
/// (own S2S first, then parent's S2N), so all policies produce
/// bit-identical outputs.
fn evaluation_plan<T: Scalar>(comp: &Compressed<T>, near_map: &NearMap) -> ReusablePlan {
    let tree = &comp.tree;
    let node_count = tree.node_count();
    let m = comp.config.leaf_size as f64;
    let s = comp.config.max_rank as f64;
    // The RHS count is unknown at plan time; cost estimates only rank tasks
    // against each other, so the uniform per-column factor is dropped.
    let skip = |heap: usize| heap == 0 || comp.bases[heap].is_none();
    let updown_cost = |heap: usize| {
        if tree.is_leaf(heap) {
            2.0 * m * s
        } else {
            2.0 * s * s
        }
    };
    let mut plan = ReusablePlan::new();

    // N2S: children before parents.
    plan.add_bottom_up("N2S", node_count, skip, updown_cost);

    // S2S: any order once the far nodes' skeleton weights exist.
    for heap in 1..node_count {
        if skip(heap) || comp.lists.far[heap].is_empty() {
            continue;
        }
        let deps: Vec<(Family, usize)> = comp.lists.far[heap].iter().map(|&a| ("N2S", a)).collect();
        let cost = 2.0 * s * s * comp.lists.far[heap].len() as f64;
        plan.add("S2S", heap, cost, &deps);
    }

    // S2N: parents before children, after the node's own S2S and — for the
    // deterministic utilde write order — after the children's S2S.
    plan.add_top_down("S2N", node_count, skip, updown_cost, |heap, deps| {
        deps.push(("S2S", heap));
        if !tree.is_leaf(heap) {
            let (l, rgt) = tree.children(heap);
            deps.push(("S2S", l));
            deps.push(("S2S", rgt));
        }
    });

    // L2L: independent of everything else. Its work is the panel's direct
    // columns plus the mirror product's, which re-reads the off-diagonal
    // ones: an owner does about twice the work per stored block.
    for heap in tree.leaf_range() {
        let blocks = near_map.entries(heap).len() + near_map.mirror_entries(heap).len();
        let cost = 2.0 * m * m * blocks as f64;
        plan.add("L2L", heap, cost, &[]);
    }

    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::compress;
    use crate::config::GofmmConfig;
    use crate::distance::DistanceMetric;
    use crate::panel::Shape;
    use crate::tune::AccuracyBudget;
    use gofmm_matrices::{sampled_relative_error, KernelMatrix, KernelType, PointCloud, SpdMatrix};
    use gofmm_store::Residence;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::Arc;

    fn test_matrix(n: usize) -> KernelMatrix {
        KernelMatrix::new(
            PointCloud::uniform(n, 3, 42),
            KernelType::Gaussian { bandwidth: 1.0 },
            1e-6,
            "eval-test",
        )
    }

    fn config() -> GofmmConfig {
        GofmmConfig::default()
            .with_leaf_size(32)
            .with_max_rank(48)
            .with_tolerance(1e-8)
            .with_budget(0.1)
            .with_threads(2)
            .with_policy(TraversalPolicy::Sequential)
    }

    fn opts(policy: TraversalPolicy, threads: usize) -> ApplyOptions {
        ApplyOptions::new()
            .with_policy(policy)
            .with_threads(threads)
    }

    /// An SPD matrix wrapper that counts kernel-entry evaluations, used to
    /// prove that `Evaluator::apply` never touches the kernel.
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

    #[test]
    fn evaluation_matches_exact_matvec() {
        let n = 300;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &config());
        let mut rng = StdRng::seed_from_u64(9);
        let w = DenseMatrix::<f64>::random_gaussian(n, 4, &mut rng);
        let (u, stats) = Evaluator::new(&k, &comp).apply(&w).unwrap();
        assert_eq!(u.rows(), n);
        assert_eq!(u.cols(), 4);
        assert!(stats.flops > 0);
        assert!(stats.cached_bytes > 0);
        let exact = k.matvec_exact(&w);
        let rel = u.sub(&exact).norm_fro() / exact.norm_fro();
        assert!(rel < 1e-4, "relative error {rel}");
    }

    #[test]
    fn hss_mode_is_accurate_for_smooth_kernel() {
        let n = 256;
        let k = test_matrix(n);
        let cfg = config().with_budget(0.0);
        let comp = compress::<f64, _>(&k, &cfg);
        let mut rng = StdRng::seed_from_u64(10);
        let w = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let (u, _) = Evaluator::new(&k, &comp).apply(&w).unwrap();
        let exact = k.matvec_exact(&w);
        let rel = u.sub(&exact).norm_fro() / exact.norm_fro();
        assert!(rel < 1e-3, "HSS relative error {rel}");
    }

    #[test]
    fn all_policies_agree() {
        let n = 256;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &config());
        let mut rng = StdRng::seed_from_u64(11);
        let w = DenseMatrix::<f64>::random_gaussian(n, 3, &mut rng);
        let ev = Evaluator::new(&k, &comp);
        let apply = |policy, threads| ev.apply_with(&w, &opts(policy, threads)).unwrap();
        let (u_seq, _) = apply(TraversalPolicy::Sequential, 1);
        for policy in [
            TraversalPolicy::LevelByLevel,
            TraversalPolicy::DagHeft,
            TraversalPolicy::DagFifo,
        ] {
            let (u, stats) = apply(policy, 4);
            let diff = u.sub(&u_seq).norm_max();
            assert!(diff < 1e-8, "{policy}: max diff {diff}");
            assert!(stats.exec.is_some(), "{policy}: no exec stats");
        }
    }

    #[test]
    fn level_by_level_and_dag_policies_agree_to_machine_precision() {
        // The execution-plan layer orders every utilde accumulation with
        // explicit S2S(child) -> S2N(parent) edges, and the level-by-level
        // barriers impose the same per-cell write order, so all policies
        // must agree far below the 1e-12 bar (in fact bit-identically).
        let n = 320;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &config());
        let mut rng = StdRng::seed_from_u64(21);
        let w = DenseMatrix::<f64>::random_gaussian(n, 3, &mut rng);
        let ev = Evaluator::new(&k, &comp);
        let apply = |policy, threads| ev.apply_with(&w, &opts(policy, threads)).unwrap().0;
        let u_lvl = apply(TraversalPolicy::LevelByLevel, 4);
        for policy in [
            TraversalPolicy::Sequential,
            TraversalPolicy::DagHeft,
            TraversalPolicy::DagFifo,
        ] {
            let u = apply(policy, 4);
            let diff = u.sub(&u_lvl).norm_max();
            assert!(diff <= 1e-12, "{policy} vs level-by-level: max diff {diff}");
        }
        // The DAG policies share one plan; they must agree bit-for-bit.
        let u_heft = apply(TraversalPolicy::DagHeft, 8);
        let u_fifo = apply(TraversalPolicy::DagFifo, 8);
        let u_seq = apply(TraversalPolicy::Sequential, 1);
        for i in 0..n {
            for c in 0..3 {
                assert_eq!(u_heft.get(i, c).to_bits(), u_seq.get(i, c).to_bits());
                assert_eq!(u_fifo.get(i, c).to_bits(), u_seq.get(i, c).to_bits());
            }
        }
    }

    #[test]
    fn evaluator_is_bit_identical_across_policies_and_applies() {
        let n = 300;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &config());
        let mut rng = StdRng::seed_from_u64(31);
        let w = DenseMatrix::<f64>::random_gaussian(n, 3, &mut rng);
        // Reference: sequential, single-threaded.
        let (packed_ref, _) = Evaluator::new(&k, &comp)
            .apply_with(&w, &opts(TraversalPolicy::Sequential, 1))
            .unwrap();
        for policy in [
            TraversalPolicy::Sequential,
            TraversalPolicy::LevelByLevel,
            TraversalPolicy::DagHeft,
            TraversalPolicy::DagFifo,
        ] {
            // Bit-identical across policies and across consecutive applies
            // (the second runs entirely on recycled buffers and must not see
            // leaked state).
            let evaluator = Evaluator::new(&k, &comp);
            let (u1, s1) = evaluator.apply_with(&w, &opts(policy, 4)).unwrap();
            let (u2, s2) = evaluator.apply_with(&w, &opts(policy, 4)).unwrap();
            for (idx, (a, b)) in packed_ref.data().iter().zip(u1.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{policy}: apply #1 entry {idx}");
            }
            for (idx, (a, b)) in u1.data().iter().zip(u2.data()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "{policy}: apply #2 entry {idx}");
            }
            assert!(s1.flops > 0);
            assert_eq!(s1.flops, s2.flops, "{policy}: flops drifted across applies");
        }
    }

    #[test]
    fn concurrent_applies_on_one_shared_evaluator_are_bit_identical() {
        // The &self serving contract: one evaluator, several threads, each
        // leasing its own workspace from the pool — every result must match
        // the single-threaded reference bit-for-bit, for every policy.
        let n = 320;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &config());
        let mut rng = StdRng::seed_from_u64(40);
        let w = DenseMatrix::<f64>::random_gaussian(n, 3, &mut rng);
        let evaluator = Evaluator::new(&k, &comp);
        let (u_ref, _) = evaluator.apply(&w).unwrap();
        let policies = [
            TraversalPolicy::Sequential,
            TraversalPolicy::LevelByLevel,
            TraversalPolicy::DagHeft,
            TraversalPolicy::DagFifo,
        ];
        std::thread::scope(|scope| {
            for t in 0..6 {
                let (evaluator, w, u_ref) = (&evaluator, &w, &u_ref);
                let policy = policies[t % policies.len()];
                scope.spawn(move || {
                    let opts = ApplyOptions::new().with_policy(policy).with_threads(2);
                    for _ in 0..3 {
                        let (u, _) = evaluator.apply_with(w, &opts).unwrap();
                        assert_eq!(u.data(), u_ref.data(), "{policy}: concurrent apply drifted");
                    }
                });
            }
        });
    }

    #[test]
    fn apply_reports_dimension_mismatch() {
        let n = 200;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &config());
        let evaluator = Evaluator::new(&k, &comp);
        let w_bad = DenseMatrix::<f64>::zeros(n + 1, 2);
        match evaluator.apply(&w_bad) {
            Err(Error::DimensionMismatch { expected, got, .. }) => {
                assert_eq!((expected, got), (n, n + 1));
            }
            other => panic!("expected DimensionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn owned_evaluator_matches_borrowing_evaluator() {
        let n = 300;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &config());
        let mut rng = StdRng::seed_from_u64(37);
        let w = DenseMatrix::<f64>::random_gaussian(n, 3, &mut rng);
        let (u_ref, _) = Evaluator::new(&k, &comp).apply(&w).unwrap();
        // The owning form packs the identical panels, so its applies are
        // bit-identical to the borrowing one's.
        let owned = Evaluator::new(&k, compress::<f64, _>(&k, &config()));
        let (u, _) = owned.apply(&w).unwrap();
        for (idx, (a, b)) in u_ref.data().iter().zip(u.data()).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "owned evaluator entry {idx}");
        }
    }

    #[test]
    fn shared_evaluator_matches_borrowed_construction() {
        let n = 256;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &config());
        let mut rng = StdRng::seed_from_u64(38);
        let w = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let (u_ref, _) = Evaluator::new(&k, &comp).apply(&w).unwrap();
        let shared = Arc::new(comp);
        let ev = Evaluator::new(&k, Arc::clone(&shared));
        let (u, _) = ev.apply(&w).unwrap();
        assert_eq!(u_ref.data(), u.data());
        // The Arc is genuinely shared: the caller's handle and the
        // evaluator's both see the same compression.
        assert_eq!(Arc::strong_count(&shared), 2);
        assert_eq!(ev.compressed().n(), n);
    }

    #[test]
    fn evaluator_resizes_buffers_when_rhs_count_changes() {
        let n = 256;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &config());
        let mut rng = StdRng::seed_from_u64(32);
        let w2 = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let w5 = DenseMatrix::<f64>::random_gaussian(n, 5, &mut rng);
        let evaluator = Evaluator::new(&k, &comp);
        let (u2a, _) = evaluator.apply(&w2).unwrap();
        let (u5, _) = evaluator.apply(&w5).unwrap(); // the same workspace, grown to 5 columns
        let (u2b, _) = evaluator.apply(&w2).unwrap(); // and shrunk back to 2 in place
        let (u2_ref, _) = Evaluator::new(&k, &comp).apply(&w2).unwrap();
        let (u5_ref, _) = Evaluator::new(&k, &comp).apply(&w5).unwrap();
        assert!(u2a.sub(&u2_ref).norm_max() == 0.0);
        assert!(u5.sub(&u5_ref).norm_max() == 0.0);
        assert!(u2b.sub(&u2_ref).norm_max() == 0.0);
    }

    #[test]
    fn evaluator_apply_performs_zero_kernel_evaluations() {
        // With off-diagonal near pairs, every construction evaluates exactly
        // the owner-layout near panels and the far skeleton panels (never a
        // mirror block: 126 650 entries here, against 154 298 for both
        // blocks of every pair), and applies touch the kernel zero times.
        let n = 512;
        let k = test_matrix(n);
        let mut rng = StdRng::seed_from_u64(33);
        let w = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let comp = compress::<f64, _>(&k, &config().with_budget(0.3));
        let (tree, lists) = (&comp.tree, &comp.lists);
        let len = |h: usize| tree.node(h).len as u64;
        let rank = |h: usize| comp.bases[h].as_ref().map_or(0, |b| b.rank()) as u64;
        let near = |entries: &[usize]| entries.iter().map(|&a| len(a)).sum::<u64>();
        let owner_map = NearMap::new(tree, lists);
        let owner_near: u64 = tree
            .leaf_range()
            .map(|h| len(h) * near(owner_map.entries(h)))
            .sum();
        let full_near: u64 = tree
            .leaf_range()
            .map(|h| len(h) * near(&lists.near[h]))
            .sum();
        let far: u64 = (0..tree.node_count())
            .map(|h| rank(h) * lists.far[h].iter().map(|&a| rank(a)).sum::<u64>())
            .sum();
        assert!(
            owner_near < full_near,
            "the lists must have off-diagonal near pairs"
        );
        let check =
            |label: &str, counter: &CountingMatrix<'_, KernelMatrix>, ev: Evaluator<'_, f64>| {
                let setup_evals = counter.count();
                assert_eq!(setup_evals, owner_near + far, "{label}: setup evaluations");
                let (u1, _) = ev.apply(&w).unwrap();
                let (u2, _) = ev.apply(&w).unwrap();
                assert_eq!(
                    counter.count(),
                    setup_evals,
                    "{label}: applies must stay kernel-free"
                );
                assert_eq!(u1.data(), u2.data(), "{label}");
                u1
            };
        let counter = CountingMatrix::new(&k);
        let u = check("new", &counter, Evaluator::new(&counter, &comp));
        let shared = Arc::new(compress::<f64, _>(&k, &config().with_budget(0.3)));
        let counter = CountingMatrix::new(&k);
        let ev = Evaluator::new(&counter, shared);
        assert_eq!(check("shared", &counter, ev).data(), u.data());
        let owned = compress::<f64, _>(&k, &config().with_budget(0.3));
        let counter = CountingMatrix::new(&k);
        let ev = Evaluator::new(&counter, owned);
        assert_eq!(check("owned", &counter, ev).data(), u.data());
    }

    #[test]
    fn zero_column_rhs_yields_empty_output() {
        // Degenerate but legal: no right-hand sides. The apply must allocate
        // a zero-width workspace and return an n x 0 result.
        let n = 200;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &config());
        let w = DenseMatrix::<f64>::zeros(n, 0);
        let evaluator = Evaluator::new(&k, &comp);
        let (u, stats) = evaluator.apply(&w).unwrap();
        assert_eq!((u.rows(), u.cols()), (n, 0));
        assert_eq!(stats.flops, 0);
    }

    #[test]
    fn evaluator_reports_setup_and_cache_accounting() {
        let n = 200;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &config());
        let evaluator = Evaluator::<f64>::new(&k, &comp);
        assert!(evaluator.setup_time() > 0.0);
        assert!(evaluator.cached_bytes() > 0);
        let mut rng = StdRng::seed_from_u64(34);
        let w = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let (_, stats) = evaluator.apply(&w).unwrap();
        assert_eq!(stats.cached_bytes, evaluator.cached_bytes());
        assert_eq!(stats.setup_time, evaluator.setup_time());
        assert!(stats.time > 0.0);
    }

    #[test]
    fn apply_options_override_policy_per_call() {
        let n = 256;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &config());
        let mut rng = StdRng::seed_from_u64(35);
        let w = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let evaluator = Evaluator::new(&k, &comp);
        assert_eq!(evaluator.policy(), TraversalPolicy::Sequential);
        assert_eq!(evaluator.threads(), 2);
        let (u_seq, _) = evaluator.apply(&w).unwrap();
        let opts = ApplyOptions::new()
            .with_policy(TraversalPolicy::DagHeft)
            .with_threads(4);
        let (u_heft, stats) = evaluator.apply_with(&w, &opts).unwrap();
        assert!(stats.exec.is_some());
        for (a, b) in u_seq.data().iter().zip(u_heft.data()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The per-call override did not mutate the shared defaults.
        assert_eq!(evaluator.policy(), TraversalPolicy::Sequential);
    }

    #[test]
    fn sampled_error_agrees_with_full_error() {
        let n = 256;
        let k = test_matrix(n);
        let comp = compress::<f64, _>(&k, &config());
        let mut rng = StdRng::seed_from_u64(13);
        let w = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let (u, _) = Evaluator::new(&k, &comp).apply(&w).unwrap();
        let full = {
            let exact = k.matvec_exact(&w);
            u.sub(&exact).norm_fro() / exact.norm_fro()
        };
        let sampled = sampled_relative_error(&k, &w, &u, 100, 0);
        // Same order of magnitude.
        assert!(sampled < full * 20.0 + 1e-12 && full < sampled * 20.0 + 1e-12);
    }

    #[test]
    fn single_leaf_evaluation_is_exact() {
        let n = 24;
        let k = test_matrix(n);
        let cfg = config().with_leaf_size(64);
        let comp = compress::<f64, _>(&k, &cfg);
        let mut rng = StdRng::seed_from_u64(14);
        let w = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let (u, _) = Evaluator::new(&k, &comp).apply(&w).unwrap();
        let exact = k.matvec_exact(&w);
        assert!(u.sub(&exact).norm_max() < 1e-10);
    }

    #[test]
    fn geometric_metric_evaluation_works() {
        let n = 256;
        let k = test_matrix(n);
        let cfg = config().with_metric(DistanceMetric::Geometric);
        let comp = compress::<f64, _>(&k, &cfg);
        let mut rng = StdRng::seed_from_u64(15);
        let w = DenseMatrix::<f64>::random_gaussian(n, 2, &mut rng);
        let (u, _) = Evaluator::new(&k, &comp).apply(&w).unwrap();
        let exact = k.matvec_exact(&w);
        let rel = u.sub(&exact).norm_fro() / exact.norm_fro();
        assert!(rel < 1e-4, "geometric metric error {rel}");
    }

    #[test]
    fn f32_evaluation_reaches_single_precision_accuracy() {
        let n = 256;
        let k = test_matrix(n);
        let cfg = config().with_tolerance(1e-6);
        let comp = compress::<f32, _>(&k, &cfg);
        let mut rng = StdRng::seed_from_u64(16);
        let w = DenseMatrix::<f32>::random_gaussian(n, 2, &mut rng);
        let (u, _) = Evaluator::new(&k, &comp).apply(&w).unwrap();
        let exact = SpdMatrix::<f32>::matvec_exact(&k, &w);
        let rel = (u.sub(&exact).norm_fro() / exact.norm_fro()) as f64;
        assert!(rel < 1e-3, "f32 relative error {rel}");
    }

    #[test]
    fn mixed_precision_panels_halve_storage_and_track_native() {
        let n = 300;
        let k = test_matrix(n);
        let native = compress::<f64, _>(&k, &config());
        let mixed =
            compress::<f64, _>(&k, &config().with_panel_precision(PanelPrecision::MixedF32));
        let ev_native = Evaluator::new(&k, &native);
        let ev_mixed = Evaluator::new(&k, &mixed);
        assert_eq!(ev_native.panel_precision(), PanelPrecision::Native);
        assert_eq!(ev_mixed.panel_precision(), PanelPrecision::MixedF32);
        // cached_bytes is panel values only, so f32 storage halves it exactly.
        assert_eq!(ev_mixed.cached_bytes() * 2, ev_native.cached_bytes());

        let mut rng = StdRng::seed_from_u64(11);
        let w = DenseMatrix::<f64>::random_gaussian(n, 3, &mut rng);
        let (u_native, _) = ev_native.apply(&w).unwrap();
        let (u_mixed, stats) = ev_mixed.apply(&w).unwrap();
        assert_eq!(stats.panel_precision, PanelPrecision::MixedF32);
        // f32 storage / f64 accumulation: agreement at single-precision level.
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for c in 0..3 {
            for r in 0..n {
                let d = u_native.get(r, c) - u_mixed.get(r, c);
                num += d * d;
                den += u_native.get(r, c) * u_native.get(r, c);
            }
        }
        let rel = (num / den).sqrt();
        assert!(rel < 1e-5, "mixed-vs-native relative error {rel}");
    }

    #[test]
    fn mixed_precision_is_identity_for_f32_operators() {
        let n = 200;
        let k = test_matrix(n);
        let native = compress::<f32, _>(&k, &config());
        let mixed =
            compress::<f32, _>(&k, &config().with_panel_precision(PanelPrecision::MixedF32));
        let ev_native = Evaluator::new(&k, &native);
        let ev_mixed = Evaluator::new(&k, &mixed);
        // f32 panels are already single precision: same footprint either way.
        assert_eq!(ev_mixed.cached_bytes(), ev_native.cached_bytes());
        let mut rng = StdRng::seed_from_u64(12);
        let w = DenseMatrix::<f32>::random_gaussian(n, 2, &mut rng);
        let (u_native, _) = ev_native.apply(&w).unwrap();
        let (u_mixed, _) = ev_mixed.apply(&w).unwrap();
        for c in 0..2 {
            for r in 0..n {
                let d = (u_native.get(r, c) - u_mixed.get(r, c)).abs();
                assert!(d <= 1e-4 * u_native.get(r, c).abs().max(1.0));
            }
        }
    }

    /// Narrow applies have the owners compute the mirror blocks, wide ones
    /// have each leaf read its owners' blocks in place; every column of a
    /// wide apply carries the bits of the same column applied alone, with
    /// leaves within one GEMM accumulation block and past it, on dense
    /// owner panels and on the low-rank pairs a tune leaves.
    #[test]
    fn both_mirror_paths_give_the_same_bits() {
        for (n, leaf) in [(512, 32), (1100, KC + 44)] {
            let k = test_matrix(n);
            let cfg = config().with_leaf_size(leaf).with_budget(1.0);
            let comp = compress::<f64, _>(&k, &cfg);
            let rows = comp.tree.leaf_range().map(|h| comp.tree.node(h).len);
            assert_eq!(rows.max().unwrap() > KC, leaf > KC);
            let mut ev = Evaluator::new(&k, &comp);
            let mirrors = comp
                .tree
                .leaf_range()
                .map(|h| ev.near_map.mirrors_in(h).len());
            assert!(
                mirrors.sum::<usize>() > 0,
                "leaf {leaf}: no off-diagonal near pairs"
            );
            let r = OWNER_MIRROR_MAX_COLS + 2;
            let mut rng = StdRng::seed_from_u64(43);
            let w = DenseMatrix::<f64>::random_gaussian(n, r, &mut rng);
            for tuned in [false, true] {
                if tuned {
                    let stats = ev.tune(&AccuracyBudget::new(1e-3)).unwrap();
                    assert!(stats.accepted_any(), "leaf {leaf}: 1e-3 must be attainable");
                    let low_rank_owner = comp.tree.leaf_range().any(|h| {
                        let low_rank = match &ev.near[h] {
                            Panel::Packed(Residence::Memory(values)) => {
                                matches!(values.view(), Shape::LowRank { .. })
                            }
                            _ => false,
                        };
                        low_rank && !ev.near_map.mirror_entries(h).is_empty()
                    });
                    assert!(
                        low_rank_owner,
                        "leaf {leaf}: no low-rank panel with mirrors"
                    );
                }
                let (wide, _) = ev.apply(&w).unwrap();
                for c in 0..r {
                    let (one, _) = ev.apply(&w.block(0, n, c, c + 1)).unwrap();
                    assert_eq!(
                        one.col(0),
                        wide.col(c),
                        "leaf {leaf} tuned {tuned}: column {c}"
                    );
                }
            }
        }
    }

    /// Replace the off-diagonal columns of every near panel by zeros, so only
    /// the diagonal blocks `K_ββ` remain: the direct and mirror products of
    /// every owned pair vanish.
    fn zero_off_diagonal_near_blocks(ev: &mut Evaluator<'_, f64>) {
        fn zero<S: Scalar>(m: &mut DenseMatrix<S>) {
            for c in m.rows()..m.cols() {
                m.col_mut(c).fill(S::zero());
            }
        }
        for panel in &mut ev.near {
            match panel {
                Panel::Packed(Residence::Memory(Values::Native(Shape::Dense(m)))) => zero(m),
                Panel::Packed(Residence::Memory(Values::Reduced(Shape::Dense(m)))) => zero(m),
                Panel::Empty => {}
                _ => unreachable!("untuned in-memory near panels are dense"),
            }
        }
    }

    /// The owner layout serves every off-diagonal near block, both
    /// orientations, from one stored copy: the apply minus that of a copy
    /// whose near panels keep only their diagonal blocks equals the dense
    /// `Σ_{α ∈ Near(β), α ≠ β} K_{βα} w_α` gathered from the matrix to
    /// 1e-12, owned in memory (native and `MixedF32`), spilled and attached
    /// at a thrashing budget, and persisted then reopened.
    #[test]
    fn owner_layout_serves_both_blocks_of_every_pair_in_every_residence() {
        use gofmm_store::{FilePanelStore, StoreWriter};
        let n = 512;
        let k = test_matrix(n);
        let dir = std::env::temp_dir().join(format!("gofmm-owner-layout-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let thrashing = 32 << 10;
        let mut rng = StdRng::seed_from_u64(41);
        let w = DenseMatrix::<f64>::random_gaussian(n, 3, &mut rng);
        for precision in [PanelPrecision::Native, PanelPrecision::MixedF32] {
            let cfg = config().with_budget(0.3).with_panel_precision(precision);
            let comp = compress::<f64, _>(&k, &cfg);
            let tree = &comp.tree;
            // The off-diagonal near field, from the matrix, with each block
            // rounded to the panel precision the way the panels store it.
            let mut off_near = DenseMatrix::<f64>::zeros(n, 3);
            let mut pairs = 0;
            for beta in tree.leaf_range() {
                let rows = tree.indices(beta);
                for &alpha in comp.lists.near[beta].iter().filter(|&&a| a != beta) {
                    let mut block = SpdMatrix::<f64>::submatrix(&k, rows, tree.indices(alpha));
                    if precision == PanelPrecision::MixedF32 {
                        block = block.cast::<f32>().cast();
                    }
                    let u = gofmm_linalg::matmul(&block, &w.select_rows(tree.indices(alpha)));
                    for (i, &row) in rows.iter().enumerate() {
                        for c in 0..3 {
                            off_near.set(row, c, off_near.get(row, c) + u.get(i, c));
                        }
                    }
                    pairs += 1;
                }
            }
            assert!(
                pairs > 0,
                "{precision:?}: the lists must have off-diagonal near pairs"
            );

            let mut owner = Evaluator::new(&k, &comp);
            let mut diagonal = Evaluator::new(&k, &comp);
            zero_off_diagonal_near_blocks(&mut diagonal);
            let (u_diag, _) = diagonal.apply(&w).unwrap();
            let agree = |u: &DenseMatrix<f64>, residence: &str| {
                let got = u.sub(&u_diag);
                let rel = got.sub(&off_near).norm_fro() / off_near.norm_fro();
                assert!(
                    rel <= 1e-12,
                    "{precision:?} {residence}: off-diagonal near field {rel:e}"
                );
            };
            let (u_owned, _) = owner.apply(&w).unwrap();
            agree(&u_owned, "owned");

            let path = dir.join(format!("{precision:?}-operator.gfmm"));
            let mut writer = StoreWriter::create(&path).unwrap();
            owner.write_to(&mut writer).unwrap();
            writer.finish().unwrap();
            let (_, reopened) = Evaluator::<f64>::open_from(&path, thrashing).unwrap();
            let (u, _) = reopened.apply(&w).unwrap();
            agree(&u, "reopened");
            assert_eq!(u.data(), u_owned.data(), "{precision:?}: reopened bits");

            let path = dir.join(format!("{precision:?}-panels.gfmm"));
            let mut writer = StoreWriter::create(&path).unwrap();
            owner.spill_panels(&mut writer).unwrap();
            writer.finish().unwrap();
            let store = Arc::new(FilePanelStore::open(&path, thrashing).unwrap());
            owner.attach_store(&store);
            let (u, _) = owner.apply(&w).unwrap();
            agree(&u, "spilled");
            assert_eq!(u.data(), u_owned.data(), "{precision:?}: spilled bits");
            assert!(
                store.stats().evictions > 0,
                "{precision:?}: the budget must thrash"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn gflops_reporting() {
        let stats = EvaluationStats {
            time: 2.0,
            flops: 4_000_000_000,
            ..Default::default()
        };
        assert!((stats.gflops() - 2.0).abs() < 1e-12);
    }
}
