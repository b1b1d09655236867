//! Execution plans: the shared task-DAG layer used by both GOFMM phases.
//!
//! The compression phase (SKEL/COEF tasks) and the evaluation phase
//! (N2S/S2S/S2N/L2L tasks) used to each hand-roll the same machinery: a
//! `Vec<Mutex<...>>` per per-node value, a `HashMap<usize, TaskId>` per task
//! family, and a policy `match` dispatching between a sequential loop and the
//! DAG executors. This module centralizes all three:
//!
//! * [`ReusablePlan`] — the structural core: a frozen `(family, node)`-keyed
//!   DAG (costs, dependency edges, successor lists) with no closures attached,
//!   executable any number of times via [`ReusablePlan::run`] with a
//!   task-dispatch callback. Long-lived evaluators build their DAG once at
//!   setup and re-run it for every matvec,
//! * [`PhasePlan`] — a one-shot plan: a [`ReusablePlan`] plus one closure per
//!   task, so dependencies are declared symbolically ("N2S of my left child")
//!   and resolved once, with [`PhasePlan::run`] dispatching uniformly to the
//!   sequential / FIFO / HEFT executors,
//! * [`PlanTopology`] — the minimal binary-tree interface plans need to wire
//!   postorder (bottom-up) and preorder (top-down) task families,
//! * [`DisjointCells`] — per-node storage whose synchronization is delegated
//!   to the DAG: tasks access disjoint cells (or ordered by dependency
//!   edges), so cells need no blocking locks. Access is checked by a per-cell
//!   atomic borrow flag that panics on a conflicting concurrent access, which
//!   turns a scheduling bug into a loud failure instead of a silent data
//!   race,
//! * [`SharedCells`] — mutex-backed cells for values that genuinely are
//!   accumulated by concurrently schedulable tasks.

use crate::cancel::{CancelToken, Cancelled};
use crate::executor::{run_dag_with_cancel, DagShape, ExecStats, SchedulePolicy};
use crate::graph::{TaskGraph, TaskId};
use gofmm_telemetry::{SpanKind, TraceSink};
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;

/// A task family inside a phase, e.g. `"SKEL"` or `"N2S"`. Families plus the
/// node index form the symbolic key of a task.
pub type Family = &'static str;

/// Tree level of a heap-indexed node (root 0 is level 0, its children are
/// level 1, ...). This is the level recorded on task spans.
pub fn heap_level(node: usize) -> usize {
    (node + 1).ilog2() as usize
}

/// The minimal binary-tree shape information a [`PhasePlan`] needs to wire
/// structural (parent/child) dependencies. Implemented by
/// `gofmm_tree::PartitionTree`; tests implement it on plain vectors.
pub trait PlanTopology {
    /// Number of nodes (heap indexing: 0 is the root).
    fn node_count(&self) -> usize;

    /// The two children of `node`, or `None` for leaves.
    fn plan_children(&self, node: usize) -> Option<(usize, usize)>;

    /// The parent of `node`, or `None` for the root.
    fn plan_parent(&self, node: usize) -> Option<usize>;
}

/// A frozen, re-runnable task DAG keyed by `(family, node)`.
///
/// This is the structural half of a [`PhasePlan`]: task keys, cost estimates
/// and dependency edges, but no closures. Because nothing in it is consumed
/// by execution, one `ReusablePlan` can drive any number of
/// [`ReusablePlan::run`] calls — the GOFMM evaluation phase builds its
/// N2S/S2S/S2N/L2L DAG once per compressed matrix and re-runs it for every
/// matvec, paying symbolic-traversal cost once instead of per call.
///
/// Dependency keys that were never added are treated as already satisfied and
/// skipped — e.g. "N2S of node 7" when node 7 has no skeleton and therefore
/// no N2S task. This mirrors the paper's symbolic traversal, where absent
/// producers simply contribute nothing to the read set.
#[derive(Default)]
pub struct ReusablePlan {
    /// `(family, node)` key per task, in insertion (topological) order.
    keys: Vec<(Family, usize)>,
    /// Cost estimate per task.
    costs: Vec<f64>,
    /// Resolved dependency edges per task (indices into `keys`).
    deps: Vec<Vec<usize>>,
    index: HashMap<(Family, usize), usize>,
    /// Dependency keys that were unresolved when declared, kept to detect
    /// out-of-order construction: registering a task under one of these keys
    /// later would mean an edge was silently dropped.
    unresolved: std::collections::HashSet<(Family, usize)>,
    /// Successor adjacency + indegrees, derived lazily on first run and
    /// shared by all subsequent runs.
    frozen: OnceLock<(Vec<Vec<usize>>, Vec<usize>)>,
}

impl ReusablePlan {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.keys.len()
    }

    /// True when no tasks were added.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The task index registered for `(family, node)`, if any.
    pub fn id(&self, family: Family, node: usize) -> Option<usize> {
        self.index.get(&(family, node)).copied()
    }

    /// The `(family, node)` key of task `idx`.
    pub fn key(&self, idx: usize) -> (Family, usize) {
        self.keys[idx]
    }

    /// Sum of all task cost estimates.
    pub fn total_cost(&self) -> f64 {
        self.costs.iter().sum()
    }

    /// Longest dependency chain of costs (the runtime's lower bound on
    /// parallel wall-clock time).
    pub fn critical_path_cost(&self) -> f64 {
        let mut finish = vec![0.0f64; self.keys.len()];
        for i in 0..self.keys.len() {
            let start = self.deps[i]
                .iter()
                .map(|&d| finish[d])
                .fold(0.0f64, f64::max);
            finish[i] = start + self.costs[i];
        }
        finish.iter().copied().fold(0.0f64, f64::max)
    }

    /// Register the task `(family, node)` with symbolic dependencies and
    /// return its index (insertion order is the topological order).
    ///
    /// # Panics
    /// Panics if the key is already taken, or if the key was previously
    /// declared as a dependency of an earlier task — i.e. the producer is
    /// being registered after its consumer, which would otherwise drop the
    /// edge silently (insertion order is the topological order).
    pub fn add(
        &mut self,
        family: Family,
        node: usize,
        cost: f64,
        deps: &[(Family, usize)],
    ) -> usize {
        assert!(
            self.frozen.get().is_none(),
            "cannot add tasks to a plan that has already run"
        );
        let mut resolved: Vec<usize> = Vec::with_capacity(deps.len());
        for key in deps {
            match self.index.get(key) {
                Some(&id) => resolved.push(id),
                // Absent producers are treated as already satisfied, but
                // remembered: if they show up later, construction order was
                // wrong and we must fail loudly instead of racing at run time.
                None => {
                    self.unresolved.insert(*key);
                }
            }
        }
        assert!(
            !self.unresolved.contains(&(family, node)),
            "task {family}({node}) registered after a task that depends on it; \
             add producers before consumers"
        );
        let id = self.keys.len();
        self.keys.push((family, node));
        self.costs.push(cost);
        self.deps.push(resolved);
        let prev = self.index.insert((family, node), id);
        assert!(prev.is_none(), "duplicate task {family}({node})");
        id
    }

    /// Register one task per non-skipped node in bottom-up (postorder) sweep
    /// order: children before parents, each task depending on its children's
    /// tasks of the same family (the shape of SKEL and N2S).
    pub fn add_bottom_up(
        &mut self,
        family: Family,
        topo: &impl PlanTopology,
        skip: impl Fn(usize) -> bool,
        cost: impl Fn(usize) -> f64,
    ) {
        // Children have larger heap indices than their parent, so descending
        // index order is a valid postorder insertion order.
        for node in (0..topo.node_count()).rev() {
            if skip(node) {
                continue;
            }
            let deps: Vec<(Family, usize)> = match topo.plan_children(node) {
                Some((l, r)) => vec![(family, l), (family, r)],
                None => Vec::new(),
            };
            self.add(family, node, cost(node), &deps);
        }
    }

    /// Register one task per non-skipped node in top-down (preorder) sweep
    /// order: parents before children, each task depending on its parent's
    /// task of the same family plus any `extra_deps` (the shape of S2N).
    pub fn add_top_down(
        &mut self,
        family: Family,
        topo: &impl PlanTopology,
        skip: impl Fn(usize) -> bool,
        cost: impl Fn(usize) -> f64,
        extra_deps: impl Fn(usize, &mut Vec<(Family, usize)>),
    ) {
        for node in 0..topo.node_count() {
            if skip(node) {
                continue;
            }
            let mut deps: Vec<(Family, usize)> = Vec::new();
            if let Some(parent) = topo.plan_parent(node) {
                deps.push((family, parent));
            }
            extra_deps(node, &mut deps);
            self.add(family, node, cost(node), &deps);
        }
    }

    /// Successor adjacency and indegrees, derived once and cached.
    fn freeze(&self) -> &(Vec<Vec<usize>>, Vec<usize>) {
        self.frozen.get_or_init(|| {
            let mut successors: Vec<Vec<usize>> = vec![Vec::new(); self.keys.len()];
            let mut indegrees = vec![0usize; self.keys.len()];
            for (i, deps) in self.deps.iter().enumerate() {
                indegrees[i] = deps.len();
                for &d in deps {
                    successors[d].push(i);
                }
            }
            (successors, indegrees)
        })
    }

    /// Execute the plan, running task `idx` as `task(family, node)` where
    /// `(family, node) == self.key(idx)`.
    ///
    /// Unlike [`PhasePlan::run`] this borrows the plan immutably, so the same
    /// plan can be executed arbitrarily often — with any mix of policies and
    /// worker counts — and every run observes the identical DAG, which keeps
    /// outputs bit-identical across policies for deterministic tasks.
    ///
    /// Runs are also safe to issue **concurrently** from several threads:
    /// every piece of mutable scheduling state (remaining-dependency
    /// counters, ready queues, worker accounting) is allocated per run, and
    /// the shared successor/indegree tables are frozen once behind a
    /// `OnceLock`. Callers only need to hand each concurrent run its own
    /// disjoint output storage — which is exactly what a
    /// [`crate::pool::WorkspacePool`] lease provides.
    pub fn run(
        &self,
        policy: SchedulePolicy,
        workers: usize,
        task: impl Fn(Family, usize) + Sync,
    ) -> ExecStats {
        self.run_indexed(policy, workers, |idx| {
            let (family, node) = self.keys[idx];
            task(family, node);
        })
    }

    /// [`ReusablePlan::run`] with a cooperative cancellation token, polled
    /// once per task by the underlying DAG runner.
    ///
    /// When the token fires mid-run, the remaining tasks are drained
    /// (dependencies released, bodies skipped) so the runner winds down
    /// promptly, and `Err(Cancelled)` is returned — the run's outputs are
    /// incomplete and must be discarded. A token that only fires after the
    /// last task body ran returns `Ok`: the results are complete and
    /// usable. This is the checkpoint layer the serving front door threads
    /// its per-request cancellation through.
    pub fn run_cancellable(
        &self,
        policy: SchedulePolicy,
        workers: usize,
        cancel: &CancelToken,
        task: impl Fn(Family, usize) + Sync,
    ) -> Result<ExecStats, Cancelled> {
        self.run_with(policy, workers, Some(cancel), None, task)
    }

    /// The fully general entry point: [`ReusablePlan::run`] plus optional
    /// cooperative cancellation *and* optional span tracing in one call.
    ///
    /// When `trace` is `Some`, every task body is wrapped in a
    /// [`SpanKind::Task`] span recorded into the sink — keyed by the
    /// task's family, node and heap level — with zero effect on the task's
    /// outputs (the hard observability contract: traced and untraced runs
    /// are bit-identical). When `trace` is `None` the only extra cost over
    /// [`ReusablePlan::run`] is one branch per task.
    ///
    /// Cancellation semantics match [`ReusablePlan::run_cancellable`]; pass
    /// `cancel: None` for an uncancellable run (the `Err` case is then
    /// unreachable).
    pub fn run_with(
        &self,
        policy: SchedulePolicy,
        workers: usize,
        cancel: Option<&CancelToken>,
        trace: Option<&TraceSink>,
        task: impl Fn(Family, usize) + Sync,
    ) -> Result<ExecStats, Cancelled> {
        if let (Some(sink), SchedulePolicy::Sequential) = (trace, policy) {
            // The tasks run on this thread: set its lane up before the first
            // span opens, not between the first span and the second.
            sink.register_thread();
        }
        let stats = self.run_indexed_with_cancel(policy, workers, cancel, |idx| {
            let (family, node) = self.keys[idx];
            match trace {
                None => task(family, node),
                Some(sink) => {
                    let t0 = sink.now();
                    task(family, node);
                    let t1 = sink.now();
                    sink.record(SpanKind::Task, family, node, heap_level(node), t0, t1);
                }
            }
        });
        if stats.cancelled {
            Err(Cancelled)
        } else {
            Ok(stats)
        }
    }

    /// Execute the plan, dispatching tasks by raw index. Used by
    /// [`PhasePlan`] (whose payload is one closure per index) and by callers
    /// that keep their own per-task state.
    pub fn run_indexed(
        &self,
        policy: SchedulePolicy,
        workers: usize,
        run: impl Fn(usize) + Sync,
    ) -> ExecStats {
        self.run_indexed_with_cancel(policy, workers, None, run)
    }

    fn run_indexed_with_cancel(
        &self,
        policy: SchedulePolicy,
        workers: usize,
        cancel: Option<&CancelToken>,
        run: impl Fn(usize) + Sync,
    ) -> ExecStats {
        let (successors, indegrees) = self.freeze();
        run_dag_with_cancel(
            DagShape {
                indegrees,
                successors,
                costs: &self.costs,
            },
            policy,
            workers,
            cancel,
            run,
        )
    }
}

/// A [`ReusablePlan`] paired with one closure per task: the one-shot plan
/// used when a phase runs exactly once (compression, and the legacy
/// `evaluate()` path before evaluators existed).
///
/// See [`ReusablePlan`] for the key/dependency semantics; `PhasePlan` simply
/// forwards construction and attaches the work.
#[derive(Default)]
pub struct PhasePlan<'a> {
    shape: ReusablePlan,
    funcs: Vec<Option<Box<dyn FnOnce() + Send + 'a>>>,
}

impl<'a> PhasePlan<'a> {
    /// Empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of tasks added so far.
    pub fn task_count(&self) -> usize {
        self.shape.task_count()
    }

    /// True when no tasks were added.
    pub fn is_empty(&self) -> bool {
        self.shape.is_empty()
    }

    /// The task id registered for `(family, node)`, if any.
    pub fn id(&self, family: Family, node: usize) -> Option<TaskId> {
        self.shape.id(family, node).map(TaskId)
    }

    /// Sum of all task cost estimates.
    pub fn total_cost(&self) -> f64 {
        self.shape.total_cost()
    }

    /// Longest dependency chain of costs (the runtime's lower bound on
    /// parallel wall-clock time).
    pub fn critical_path_cost(&self) -> f64 {
        self.shape.critical_path_cost()
    }

    /// Add the task `(family, node)` with symbolic dependencies.
    ///
    /// # Panics
    /// Panics if the key is already taken, or if the key was previously
    /// declared as a dependency of an earlier task — i.e. the producer is
    /// being registered after its consumer, which would otherwise drop the
    /// edge silently (insertion order is the topological order).
    pub fn add(
        &mut self,
        family: Family,
        node: usize,
        cost: f64,
        deps: &[(Family, usize)],
        func: impl FnOnce() + Send + 'a,
    ) -> TaskId {
        let id = self.shape.add(family, node, cost, deps);
        self.funcs.push(Some(Box::new(func)));
        TaskId(id)
    }

    /// Add one task per non-skipped node in bottom-up (postorder) sweep
    /// order: children before parents, each task depending on its children's
    /// tasks of the same family. This is the shape of SKEL (compression) and
    /// N2S (evaluation).
    pub fn add_bottom_up<F>(
        &mut self,
        family: Family,
        topo: &impl PlanTopology,
        skip: impl Fn(usize) -> bool,
        cost: impl Fn(usize) -> f64,
        make_task: impl Fn(usize) -> F,
    ) where
        F: FnOnce() + Send + 'a,
    {
        let before = self.shape.task_count();
        self.shape.add_bottom_up(family, topo, skip, cost);
        self.attach_sweep_tasks(before, make_task);
    }

    /// Add one task per non-skipped node in top-down (preorder) sweep order:
    /// parents before children, each task depending on its parent's task of
    /// the same family plus any `extra_deps`. This is the shape of S2N
    /// (evaluation).
    pub fn add_top_down<F>(
        &mut self,
        family: Family,
        topo: &impl PlanTopology,
        skip: impl Fn(usize) -> bool,
        cost: impl Fn(usize) -> f64,
        extra_deps: impl Fn(usize, &mut Vec<(Family, usize)>),
        make_task: impl Fn(usize) -> F,
    ) where
        F: FnOnce() + Send + 'a,
    {
        let before = self.shape.task_count();
        self.shape
            .add_top_down(family, topo, skip, cost, extra_deps);
        self.attach_sweep_tasks(before, make_task);
    }

    /// Attach closures for the tasks a sweep helper just registered on the
    /// shape (indices `before..`), in the same insertion order.
    fn attach_sweep_tasks<F>(&mut self, before: usize, make_task: impl Fn(usize) -> F)
    where
        F: FnOnce() + Send + 'a,
    {
        for idx in before..self.shape.task_count() {
            let (_, node) = self.shape.key(idx);
            self.funcs.push(Some(Box::new(make_task(node))));
        }
    }

    /// Execute the plan with the given policy and worker count.
    ///
    /// All three policies run the identical task closures; only the schedule
    /// differs. Because insertion order is a topological order and every
    /// cross-task data access is covered by a dependency edge, outputs are
    /// identical (bit-for-bit for deterministic tasks) across policies.
    pub fn run(self, policy: SchedulePolicy, workers: usize) -> ExecStats {
        self.run_traced(policy, workers, None)
    }

    /// [`PhasePlan::run`] with optional span tracing: when `trace` is
    /// `Some`, each task body is recorded as a [`SpanKind::Task`] span
    /// keyed by its family, node and heap level. Outputs are identical
    /// with or without a sink.
    pub fn run_traced(
        self,
        policy: SchedulePolicy,
        workers: usize,
        trace: Option<&TraceSink>,
    ) -> ExecStats {
        let PhasePlan { shape, funcs } = self;
        let slots: Vec<crate::executor::TaskSlot<'a>> = funcs.into_iter().map(Mutex::new).collect();
        shape.run_indexed(policy, workers, |idx| match trace {
            None => crate::executor::take_and_run(&slots, idx),
            Some(sink) => {
                let (family, node) = shape.key(idx);
                let t0 = sink.now();
                crate::executor::take_and_run(&slots, idx);
                let t1 = sink.now();
                sink.record(SpanKind::Task, family, node, heap_level(node), t0, t1);
            }
        })
    }

    /// Consume the plan into an equivalent [`TaskGraph`] (for custom
    /// execution through the `execute_*` entry points).
    pub fn into_graph(self) -> TaskGraph<'a> {
        let PhasePlan { shape, funcs } = self;
        let mut graph = TaskGraph::new();
        for (idx, func) in funcs.into_iter().enumerate() {
            let (family, node) = shape.key(idx);
            let deps: Vec<TaskId> = shape.deps[idx].iter().map(|&d| TaskId(d)).collect();
            let func = func.expect("task already executed");
            graph.add_task(format!("{family}({node})"), shape.costs[idx], &deps, func);
        }
        graph
    }
}

const CELL_FREE: u32 = 0;
const CELL_WRITER: u32 = u32::MAX;

/// Per-node storage with DAG-delegated synchronization.
///
/// The task DAG (or a barrier between phases, for level-by-level traversals)
/// guarantees that a cell is never written while another task accesses it;
/// under that invariant no blocking lock is needed, so reads and writes cost
/// one atomic transition each. The invariant is *checked*, not assumed: each
/// cell carries an atomic borrow state (reader count / writer flag), and a
/// conflicting concurrent access panics with a dependency-violation message
/// instead of racing.
pub struct DisjointCells<T> {
    cells: Vec<UnsafeCell<T>>,
    states: Vec<AtomicU32>,
}

// SAFETY: all access to the UnsafeCells goes through the per-cell atomic
// borrow protocol below, which enforces unique writers / shared readers (it
// is a panicking try-rwlock). `T: Send` suffices because guards hand out
// references only while the borrow state is held.
unsafe impl<T: Send> Sync for DisjointCells<T> {}
unsafe impl<T: Send> Send for DisjointCells<T> {}

impl<T> DisjointCells<T> {
    /// `n` cells initialised by `init(i)`.
    pub fn from_fn(n: usize, mut init: impl FnMut(usize) -> T) -> Self {
        Self {
            cells: (0..n).map(|i| UnsafeCell::new(init(i))).collect(),
            states: (0..n).map(|_| AtomicU32::new(CELL_FREE)).collect(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when there are no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Shared read access to cell `i`.
    ///
    /// # Panics
    /// Panics if a write access is concurrently held — i.e. the task graph
    /// failed to order a writer before this reader.
    pub fn read(&self, i: usize) -> CellRead<'_, T> {
        let state = &self.states[i];
        let mut cur = state.load(Ordering::Relaxed);
        loop {
            assert!(
                cur != CELL_WRITER,
                "task-DAG ordering violation: cell {i} read while written"
            );
            match state.compare_exchange_weak(cur, cur + 1, Ordering::Acquire, Ordering::Relaxed) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        CellRead { cells: self, i }
    }

    /// Exclusive write access to cell `i`.
    ///
    /// # Panics
    /// Panics if any access is concurrently held — i.e. the task graph
    /// scheduled two tasks touching the same cell concurrently.
    pub fn write(&self, i: usize) -> CellWrite<'_, T> {
        let state = &self.states[i];
        assert!(
            state
                .compare_exchange(CELL_FREE, CELL_WRITER, Ordering::Acquire, Ordering::Relaxed)
                .is_ok(),
            "task-DAG ordering violation: cell {i} written while in use"
        );
        CellWrite { cells: self, i }
    }

    /// Replace the value of cell `i`.
    pub fn set(&self, i: usize, value: T) {
        *self.write(i) = value;
    }

    /// Direct mutable access through a unique borrow (no atomics needed).
    pub fn get_mut(&mut self, i: usize) -> &mut T {
        self.cells[i].get_mut()
    }

    /// Visit every cell mutably through a unique borrow (no atomics needed).
    /// Long-lived evaluators and solvers use this to zero their recycled
    /// per-node buffers between runs.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(usize, &mut T)) {
        for (i, cell) in self.cells.iter_mut().enumerate() {
            f(i, cell.get_mut());
        }
    }

    /// Unwrap into the plain values.
    pub fn into_inner(self) -> Vec<T> {
        self.cells.into_iter().map(UnsafeCell::into_inner).collect()
    }
}

/// Shared read guard for one cell of a [`DisjointCells`].
pub struct CellRead<'a, T> {
    cells: &'a DisjointCells<T>,
    i: usize,
}

impl<T> std::ops::Deref for CellRead<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the borrow state holds a reader count, so no writer exists.
        unsafe { &*self.cells.cells[self.i].get() }
    }
}

impl<T> Drop for CellRead<'_, T> {
    fn drop(&mut self) {
        self.cells.states[self.i].fetch_sub(1, Ordering::Release);
    }
}

/// Exclusive write guard for one cell of a [`DisjointCells`].
pub struct CellWrite<'a, T> {
    cells: &'a DisjointCells<T>,
    i: usize,
}

impl<T> std::ops::Deref for CellWrite<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the borrow state holds the writer flag.
        unsafe { &*self.cells.cells[self.i].get() }
    }
}

impl<T> std::ops::DerefMut for CellWrite<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: the borrow state holds the writer flag.
        unsafe { &mut *self.cells.cells[self.i].get() }
    }
}

impl<T> Drop for CellWrite<'_, T> {
    fn drop(&mut self) {
        self.cells.states[self.i].store(CELL_FREE, Ordering::Release);
    }
}

/// Mutex-backed per-node cells, for values accumulated by tasks that the DAG
/// deliberately allows to run concurrently. Prefer [`DisjointCells`] whenever
/// dependency edges already serialize all access.
pub struct SharedCells<T> {
    cells: Vec<parking_lot::Mutex<T>>,
}

impl<T> SharedCells<T> {
    /// `n` cells initialised by `init(i)`.
    pub fn from_fn(n: usize, mut init: impl FnMut(usize) -> T) -> Self {
        Self {
            cells: (0..n).map(|i| parking_lot::Mutex::new(init(i))).collect(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when there are no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Lock cell `i`.
    pub fn lock(&self, i: usize) -> parking_lot::MutexGuard<'_, T> {
        self.cells[i].lock()
    }

    /// Unwrap into the plain values.
    pub fn into_inner(self) -> Vec<T> {
        self.cells.into_iter().map(|m| m.into_inner()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// A perfect binary tree with `levels` levels in heap order.
    struct HeapTree {
        levels: u32,
    }

    impl PlanTopology for HeapTree {
        fn node_count(&self) -> usize {
            (1usize << self.levels) - 1
        }
        fn plan_children(&self, node: usize) -> Option<(usize, usize)> {
            let (l, r) = (2 * node + 1, 2 * node + 2);
            (r < self.node_count()).then_some((l, r))
        }
        fn plan_parent(&self, node: usize) -> Option<usize> {
            (node > 0).then(|| (node - 1) / 2)
        }
    }

    #[test]
    fn bottom_up_runs_children_first() {
        let topo = HeapTree { levels: 4 };
        let n = topo.node_count();
        let order = SharedCells::from_fn(1, |_| Vec::new());
        for policy in [
            SchedulePolicy::Sequential,
            SchedulePolicy::Fifo,
            SchedulePolicy::Heft,
        ] {
            let mut plan = PhasePlan::new();
            let order = &order;
            plan.add_bottom_up(
                "UP",
                &topo,
                |_| false,
                |_| 1.0,
                |node| move || order.lock(0).push(node),
            );
            assert_eq!(plan.task_count(), n);
            plan.run(policy, 4);
            let seen = std::mem::take(&mut *order.lock(0));
            assert_eq!(seen.len(), n);
            let pos = |x: usize| seen.iter().position(|&v| v == x).unwrap();
            for node in 0..n {
                if let Some((l, r)) = topo.plan_children(node) {
                    assert!(
                        pos(l) < pos(node),
                        "{policy}: child {l} after parent {node}"
                    );
                    assert!(
                        pos(r) < pos(node),
                        "{policy}: child {r} after parent {node}"
                    );
                }
            }
        }
    }

    #[test]
    fn top_down_runs_parents_first() {
        let topo = HeapTree { levels: 4 };
        let n = topo.node_count();
        let order = SharedCells::from_fn(1, |_| Vec::new());
        let mut plan = PhasePlan::new();
        {
            let order = &order;
            plan.add_top_down(
                "DOWN",
                &topo,
                |_| false,
                |_| 1.0,
                |_, _| {},
                |node| move || order.lock(0).push(node),
            );
        }
        plan.run(SchedulePolicy::Heft, 4);
        let seen = order.into_inner().pop().unwrap();
        let pos = |x: usize| seen.iter().position(|&v| v == x).unwrap();
        for node in 1..n {
            let parent = topo.plan_parent(node).unwrap();
            assert!(pos(parent) < pos(node), "parent {parent} after node {node}");
        }
    }

    #[test]
    fn traced_runs_record_one_span_per_task() {
        let topo = HeapTree { levels: 4 };
        let n = topo.node_count();
        let mut shape = ReusablePlan::new();
        shape.add_bottom_up("UP", &topo, |_| false, |_| 1.0);
        let sink = TraceSink::new();
        let hits = AtomicUsize::new(0);
        for policy in [
            SchedulePolicy::Sequential,
            SchedulePolicy::Fifo,
            SchedulePolicy::Heft,
        ] {
            shape
                .run_with(policy, 3, None, Some(&sink), |_, _| {
                    hits.fetch_add(1, Ordering::SeqCst);
                })
                .unwrap();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 3 * n);
        let trace = sink.trace();
        assert_eq!(trace.len(), 3 * n, "one span per executed task");
        for ev in trace.events() {
            assert_eq!(ev.family, "UP");
            assert_eq!(ev.level, heap_level(ev.node), "span level matches node");
            assert!(ev.t_end >= ev.t_start, "spans close after they open");
        }
    }

    #[test]
    fn heap_levels() {
        assert_eq!(heap_level(0), 0);
        assert_eq!(heap_level(1), 1);
        assert_eq!(heap_level(2), 1);
        assert_eq!(heap_level(3), 2);
        assert_eq!(heap_level(6), 2);
        assert_eq!(heap_level(7), 3);
    }

    #[test]
    fn missing_dependencies_are_skipped() {
        let counter = AtomicUsize::new(0);
        let mut plan = PhasePlan::new();
        // Depend on a key that no task ever registers.
        plan.add("A", 0, 1.0, &[("GHOST", 3)], || {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert!(plan.id("GHOST", 3).is_none());
        assert!(plan.id("A", 0).is_some());
        plan.run(SchedulePolicy::Sequential, 1);
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate task")]
    fn duplicate_key_panics() {
        let mut plan = PhasePlan::new();
        plan.add("A", 0, 1.0, &[], || {});
        plan.add("A", 0, 1.0, &[], || {});
    }

    #[test]
    #[should_panic(expected = "add producers before consumers")]
    fn producer_after_consumer_panics() {
        let mut plan = PhasePlan::new();
        // "B(1)" is consumed before it is produced: the dropped edge must be
        // detected at construction time, not surface as a runtime race.
        plan.add("A", 0, 1.0, &[("B", 1)], || {});
        plan.add("B", 1, 1.0, &[], || {});
    }

    #[test]
    fn disjoint_cells_ordered_access() {
        let cells: DisjointCells<u64> = DisjointCells::from_fn(4, |i| i as u64);
        cells.set(2, 40);
        *cells.write(2) += 2;
        assert_eq!(*cells.read(2), 42);
        // Two concurrent readers are fine.
        let a = cells.read(1);
        let b = cells.read(1);
        assert_eq!(*a + *b, 2);
        drop((a, b));
        let v = cells.into_inner();
        assert_eq!(v, vec![0, 1, 42, 3]);
    }

    #[test]
    #[should_panic(expected = "task-DAG ordering violation")]
    fn disjoint_cells_catch_read_write_conflict() {
        let cells: DisjointCells<u64> = DisjointCells::from_fn(1, |_| 0);
        let _r = cells.read(0);
        let _w = cells.write(0); // must panic, not race
    }

    #[test]
    #[should_panic(expected = "task-DAG ordering violation")]
    fn disjoint_cells_catch_write_write_conflict() {
        let cells: DisjointCells<u64> = DisjointCells::from_fn(1, |_| 0);
        let _w1 = cells.write(0);
        let _w2 = cells.write(0);
    }

    #[test]
    fn disjoint_cells_parallel_disjoint_writes() {
        let n = 512;
        let cells: DisjointCells<usize> = DisjointCells::from_fn(n, |_| 0);
        crate::parallel::parallel_for(n, 8, |i| {
            *cells.write(i) = i * 3;
        });
        let v = cells.into_inner();
        assert!(v.iter().enumerate().all(|(i, &x)| x == i * 3));
    }

    #[test]
    fn reusable_plan_runs_many_times() {
        let topo = HeapTree { levels: 5 };
        let n = topo.node_count();
        let mut plan = ReusablePlan::new();
        plan.add_bottom_up("UP", &topo, |_| false, |_| 1.0);
        for node in 0..n {
            // TOP(node) rewrites the cell that UP(parent) reads, so it must
            // wait for the parent's sweep step as well as its own.
            let mut deps = vec![("UP", node)];
            if let Some(parent) = topo.plan_parent(node) {
                deps.push(("UP", parent));
            }
            plan.add("TOP", node, 1.0, &deps);
        }
        assert_eq!(plan.task_count(), 2 * n);
        assert_eq!(plan.id("UP", 3), Some(n - 1 - 3));
        assert_eq!(plan.key(plan.id("TOP", 0).unwrap()), ("TOP", 0));

        // The same plan must drive repeated runs under every policy, and the
        // per-cell write order it encodes must make results identical.
        let reference: Option<Vec<f64>> = None;
        let mut reference = reference;
        for policy in [
            SchedulePolicy::Sequential,
            SchedulePolicy::Fifo,
            SchedulePolicy::Heft,
        ] {
            for _ in 0..3 {
                let cells: DisjointCells<f64> = DisjointCells::from_fn(n, |i| i as f64 * 0.5);
                let stats = plan.run(policy, 4, |family, node| match family {
                    "UP" => {
                        let v = match topo.plan_children(node) {
                            Some((l, r)) => (*cells.read(l)).mul_add(1.01, *cells.read(r)),
                            None => (node as f64).cos(),
                        };
                        *cells.write(node) += v;
                    }
                    "TOP" => *cells.write(node) *= 1.5,
                    other => panic!("unexpected family {other}"),
                });
                assert_eq!(stats.tasks_executed, 2 * n, "{policy}");
                let out = cells.into_inner();
                match &reference {
                    None => reference = Some(out),
                    Some(r) => {
                        assert!(
                            r.iter().zip(&out).all(|(a, b)| a.to_bits() == b.to_bits()),
                            "{policy}: rerun changed the result"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn reusable_plan_runs_concurrently_from_many_threads() {
        // The serving contract: one frozen plan, many simultaneous runs, each
        // with its own cell storage, all producing the identical result. This
        // is what lets a shared evaluator serve parallel request streams.
        let topo = HeapTree { levels: 6 };
        let n = topo.node_count();
        let mut plan = ReusablePlan::new();
        plan.add_bottom_up("UP", &topo, |_| false, |_| 1.0);
        let task = |cells: &DisjointCells<f64>, node: usize| {
            let v = match topo.plan_children(node) {
                Some((l, r)) => (*cells.read(l)).mul_add(1.01, *cells.read(r)),
                None => (node as f64).cos(),
            };
            *cells.write(node) += v;
        };
        // Sequential reference.
        let reference = {
            let cells: DisjointCells<f64> = DisjointCells::from_fn(n, |i| i as f64 * 0.5);
            plan.run(SchedulePolicy::Sequential, 1, |_, node| task(&cells, node));
            cells.into_inner()
        };
        let plan = &plan;
        std::thread::scope(|scope| {
            for t in 0..6 {
                let reference = &reference;
                let task = &task;
                scope.spawn(move || {
                    let policy = [
                        SchedulePolicy::Sequential,
                        SchedulePolicy::Fifo,
                        SchedulePolicy::Heft,
                    ][t % 3];
                    for _ in 0..4 {
                        let cells: DisjointCells<f64> =
                            DisjointCells::from_fn(n, |i| i as f64 * 0.5);
                        plan.run(policy, 3, |_, node| task(&cells, node));
                        let out = cells.into_inner();
                        assert!(
                            reference
                                .iter()
                                .zip(&out)
                                .all(|(a, b)| a.to_bits() == b.to_bits()),
                            "{policy}: concurrent run diverged from the sequential reference"
                        );
                    }
                });
            }
        });
    }

    #[test]
    fn cancellable_run_with_quiet_token_matches_plain_run() {
        let topo = HeapTree { levels: 4 };
        let n = topo.node_count();
        let mut plan = ReusablePlan::new();
        plan.add_bottom_up("UP", &topo, |_| false, |_| 1.0);
        for policy in [
            SchedulePolicy::Sequential,
            SchedulePolicy::Fifo,
            SchedulePolicy::Heft,
        ] {
            let token = CancelToken::new();
            let counter = AtomicUsize::new(0);
            let stats = plan
                .run_cancellable(policy, 3, &token, |_, _| {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
                .expect("un-cancelled run must complete");
            assert_eq!(stats.tasks_executed, n, "{policy}");
            assert!(!stats.cancelled, "{policy}");
            assert_eq!(counter.load(Ordering::SeqCst), n, "{policy}");
        }
    }

    #[test]
    fn pre_cancelled_token_drains_without_running_bodies() {
        let topo = HeapTree { levels: 5 };
        let mut plan = ReusablePlan::new();
        plan.add_bottom_up("UP", &topo, |_| false, |_| 1.0);
        for policy in [
            SchedulePolicy::Sequential,
            SchedulePolicy::Fifo,
            SchedulePolicy::Heft,
        ] {
            let token = CancelToken::new();
            token.cancel();
            let counter = AtomicUsize::new(0);
            let err = plan.run_cancellable(policy, 3, &token, |_, _| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
            assert!(matches!(err, Err(Cancelled)), "{policy}");
            assert_eq!(counter.load(Ordering::SeqCst), 0, "{policy}: body ran");
        }
    }

    #[test]
    fn mid_run_cancellation_terminates_and_reports() {
        // Cancel from inside an early task: the runner must drain the rest
        // (no hang on termination detection) and report Err, and the same
        // plan must serve a fresh complete run afterwards.
        let topo = HeapTree { levels: 6 };
        let n = topo.node_count();
        let mut plan = ReusablePlan::new();
        plan.add_bottom_up("UP", &topo, |_| false, |_| 1.0);
        for policy in [
            SchedulePolicy::Sequential,
            SchedulePolicy::Fifo,
            SchedulePolicy::Heft,
        ] {
            let token = CancelToken::new();
            let ran = AtomicUsize::new(0);
            let err = plan.run_cancellable(policy, 4, &token, |_, _| {
                if ran.fetch_add(1, Ordering::SeqCst) == 2 {
                    token.cancel();
                }
            });
            assert!(matches!(err, Err(Cancelled)), "{policy}");
            assert!(
                ran.load(Ordering::SeqCst) < n,
                "{policy}: every body still ran"
            );
            // The plan itself is untouched by a cancelled run.
            let counter = AtomicUsize::new(0);
            let stats = plan
                .run_cancellable(policy, 4, &CancelToken::new(), |_, _| {
                    counter.fetch_add(1, Ordering::SeqCst);
                })
                .expect("fresh token must complete");
            assert_eq!(stats.tasks_executed, n, "{policy}");
            assert_eq!(counter.load(Ordering::SeqCst), n, "{policy}");
        }
    }

    #[test]
    fn reusable_plan_cost_accessors() {
        let mut plan = ReusablePlan::new();
        plan.add("A", 0, 2.0, &[]);
        plan.add("B", 0, 3.0, &[("A", 0)]);
        plan.add("C", 0, 1.0, &[("A", 0)]);
        assert_eq!(plan.total_cost(), 6.0);
        assert_eq!(plan.critical_path_cost(), 5.0);
        assert!(ReusablePlan::new().is_empty());
    }

    #[test]
    #[should_panic(expected = "already run")]
    fn reusable_plan_rejects_adds_after_running() {
        let mut plan = ReusablePlan::new();
        plan.add("A", 0, 1.0, &[]);
        plan.run(SchedulePolicy::Sequential, 1, |_, _| {});
        plan.add("A", 1, 1.0, &[]);
    }

    #[test]
    fn plan_cost_accessors() {
        let mut plan = PhasePlan::new();
        plan.add("A", 0, 2.0, &[], || {});
        plan.add("B", 0, 3.0, &[("A", 0)], || {});
        assert_eq!(plan.total_cost(), 5.0);
        assert_eq!(plan.critical_path_cost(), 5.0);
        assert_eq!(plan.task_count(), 2);
        assert!(!plan.is_empty());
        assert!(PhasePlan::new().is_empty());
    }
}
