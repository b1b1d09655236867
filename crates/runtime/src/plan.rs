//! Execution plans: the shared task-DAG layer used by both GOFMM phases.
//!
//! The compression phase (SKEL/COEF tasks) and the evaluation phase
//! (N2S/S2S/S2N/L2L tasks) used to each hand-roll the same machinery: a
//! `Vec<Mutex<...>>` per per-node value, a node-to-task-id map per task
//! family, and a policy `match` dispatching between a sequential loop and the
//! DAG executors. This module centralizes all three:
//!
//! * [`ReusablePlan`] — the structural core: a frozen `(family, node)`-keyed
//!   DAG (costs, dependency edges, successor lists, barrier groups) with no
//!   closures attached, executable any number of times via
//!   [`ReusablePlan::run`] with a task-dispatch callback, under any of the
//!   four schedules of [`TraversalPolicy`]. Dependencies are declared
//!   symbolically ("N2S of my left child") and resolved once. Long-lived
//!   evaluators build their DAG once at setup and re-run it for every
//!   matvec; one-shot phases (SKEL, the factorizations) build one and run it
//!   once,
//! * the complete-heap arithmetic ([`heap_level`], [`heap_parent`],
//!   [`heap_children`], [`heap_is_ancestor_or_self`]) — the one home of the
//!   tree shape: node `k` has children `2k+1` and `2k+2`, so a node count is
//!   all a plan needs to wire postorder (bottom-up) and preorder (top-down)
//!   task families,
//! * [`DisjointCells`] — per-node storage whose synchronization is delegated
//!   to the DAG: tasks access disjoint cells (or ordered by dependency
//!   edges), so cells need no blocking locks. Access is checked by a per-cell
//!   atomic borrow flag that panics on a conflicting concurrent access, which
//!   turns a scheduling bug into a loud failure instead of a silent data
//!   race.
//!
//! Level-by-level traversal is a schedule of the same DAG, not a separate
//! loop: freezing a plan splits its insertion order into *barrier groups*.
//! A group closes when the task family changes or when the next task
//! depends on a task already in the group, so a bottom-up or top-down
//! family gets one group per tree level and a flat family (S2S, L2L) one
//! group. [`TraversalPolicy::LevelByLevel`] runs the groups one after
//! another with a barrier between them and, under a trace sink, records one
//! [`SpanKind::Marker`] span per group. The same groups are the stages a
//! [`ReusablePlan::run_with`] progress listener hears about.

use crate::cancel::{CancelToken, Cancelled};
use crate::executor::{run_dag_with_cancel, BarrierHook, DagShape, ExecStats, TraversalPolicy};
use gofmm_telemetry::{ProgressHandle, ProgressReport, SpanKind, TraceSink};
use parking_lot::Mutex;
use std::cell::UnsafeCell;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// A task family inside a phase, e.g. `"SKEL"` or `"N2S"`. Families plus the
/// node index form the symbolic key of a task.
pub type Family = &'static str;

/// Tree level of a heap-indexed node (root 0 is level 0, its children are
/// level 1, ...). This is the level recorded on task spans.
pub fn heap_level(node: usize) -> usize {
    (node + 1).ilog2() as usize
}

/// Heap index of the parent of `node`; `None` for the root.
pub fn heap_parent(node: usize) -> Option<usize> {
    (node > 0).then(|| (node - 1) / 2)
}

/// The two children of `node` in a complete heap of `node_count` nodes;
/// `None` for a leaf.
pub fn heap_children(node: usize, node_count: usize) -> Option<(usize, usize)> {
    let left = 2 * node + 1;
    (left + 1 < node_count).then_some((left, left + 1))
}

/// True when `ancestor` is `node` itself or one of its ancestors. This is
/// the prefix test of the paper's Morton IDs: in one-based heap numbering a
/// node's path from the root is the bit string after its leading one, so
/// `ancestor` qualifies exactly when its number is a leading-bit prefix of
/// `node`'s.
pub fn heap_is_ancestor_or_self(ancestor: usize, node: usize) -> bool {
    let (la, lb) = (heap_level(ancestor), heap_level(node));
    la <= lb && (node + 1) >> (lb - la) == ancestor + 1
}

/// A frozen, re-runnable task DAG keyed by `(family, node)`.
///
/// Task keys, cost estimates and dependency edges, but no closures: the
/// work arrives as one dispatch callback per run. Because nothing in it is
/// consumed by execution, one `ReusablePlan` can drive any number of
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
    /// Successor adjacency, indegrees and barrier groups, derived lazily on
    /// first run and shared by all subsequent runs.
    frozen: OnceLock<Frozen>,
}

/// The run-time tables of a [`ReusablePlan`], derived once by `freeze`.
struct Frozen {
    successors: Vec<Vec<usize>>,
    indegrees: Vec<usize>,
    /// Barrier groups of the level-by-level schedule (see the module docs).
    groups: Vec<Range<usize>>,
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

    /// Register one task per non-skipped node of a complete heap of
    /// `node_count` nodes in bottom-up (postorder) sweep order: children
    /// before parents, each task depending on its children's tasks of the
    /// same family (the shape of SKEL and N2S).
    pub fn add_bottom_up(
        &mut self,
        family: Family,
        node_count: usize,
        skip: impl Fn(usize) -> bool,
        cost: impl Fn(usize) -> f64,
    ) {
        // Children have larger heap indices than their parent, so descending
        // index order is a valid postorder insertion order.
        for node in (0..node_count).rev() {
            if skip(node) {
                continue;
            }
            let deps: Vec<(Family, usize)> = match heap_children(node, node_count) {
                Some((l, r)) => vec![(family, l), (family, r)],
                None => Vec::new(),
            };
            self.add(family, node, cost(node), &deps);
        }
    }

    /// Register one task per non-skipped node of a complete heap of
    /// `node_count` nodes in top-down (preorder) sweep order: parents before
    /// children, each task depending on its parent's task of the same family
    /// plus any `extra_deps` (the shape of S2N).
    pub fn add_top_down(
        &mut self,
        family: Family,
        node_count: usize,
        skip: impl Fn(usize) -> bool,
        cost: impl Fn(usize) -> f64,
        extra_deps: impl Fn(usize, &mut Vec<(Family, usize)>),
    ) {
        for node in 0..node_count {
            if skip(node) {
                continue;
            }
            let mut deps: Vec<(Family, usize)> = Vec::new();
            if let Some(parent) = heap_parent(node) {
                deps.push((family, parent));
            }
            extra_deps(node, &mut deps);
            self.add(family, node, cost(node), &deps);
        }
    }

    /// Successor adjacency, indegrees and barrier groups, derived once and
    /// cached.
    fn freeze(&self) -> &Frozen {
        self.frozen.get_or_init(|| {
            let n = self.keys.len();
            let mut successors: Vec<Vec<usize>> = vec![Vec::new(); n];
            let mut indegrees = vec![0usize; n];
            let mut groups: Vec<Range<usize>> = Vec::new();
            let mut start = 0;
            for (i, deps) in self.deps.iter().enumerate() {
                indegrees[i] = deps.len();
                for &d in deps {
                    successors[d].push(i);
                }
                if i > start
                    && (self.keys[i].0 != self.keys[start].0 || deps.iter().any(|&d| d >= start))
                {
                    groups.push(start..i);
                    start = i;
                }
            }
            if start < n {
                groups.push(start..n);
            }
            // The barrier before a group must cover every edge into it.
            for group in &groups {
                for i in group.clone() {
                    assert!(
                        self.deps[i].iter().all(|&d| d < group.start),
                        "task {}({}) shares a barrier group with a dependency",
                        self.keys[i].0,
                        self.keys[i].1
                    );
                }
            }
            Frozen {
                successors,
                indegrees,
                groups,
            }
        })
    }

    /// Execute the plan, running task `idx` as `task(family, node)` where
    /// `(family, node) == self.key(idx)`.
    ///
    /// This borrows the plan immutably, so the same plan can be executed
    /// arbitrarily often — with any mix of policies and worker counts — and
    /// every run observes the identical DAG, which keeps outputs
    /// bit-identical across policies for deterministic tasks.
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
        policy: TraversalPolicy,
        workers: usize,
        task: impl Fn(Family, usize) + Sync,
    ) -> ExecStats {
        let run = |idx: usize| {
            let (family, node) = self.keys[idx];
            task(family, node);
            true
        };
        self.execute(policy, workers, None, run, &|_, body| body())
    }

    /// [`ReusablePlan::run`] with fallible tasks, plus optional cooperative
    /// cancellation, span tracing and progress reports in one call.
    ///
    /// The first task that returns `Err` stops the run: every task body not
    /// yet started is skipped, the remaining tasks drain (dependencies
    /// released) so the runner winds down promptly, and that error is
    /// returned. When `cancel` fires mid-run the tasks drain the same way
    /// and `Err(Cancelled.into())` is returned. Either way the run's
    /// outputs are incomplete and must be discarded. A token that only
    /// fires after the last task body ran returns `Ok`: the results are
    /// complete and usable. A run in which no task fails executes exactly
    /// the bodies [`ReusablePlan::run`] would, so its outputs keep their
    /// bits.
    ///
    /// When `trace` is `Some`, every task body is wrapped in a
    /// [`SpanKind::Task`] span recorded into the sink — keyed by the
    /// task's family, node and heap level — and, under level-by-level,
    /// every barrier group in a [`SpanKind::Marker`] span labelled with its
    /// family and its first task's heap level. Neither has any effect on
    /// the task's outputs (the hard observability contract: traced and
    /// untraced runs are bit-identical).
    ///
    /// When `progress` is `Some`, each barrier group is one stage: as the
    /// last task of a group succeeds, the listener gets a
    /// [`ProgressReport::SweepLevel`] report with a monotone count of
    /// completed groups out of the plan's group count — so a sweep's stages
    /// are one per family × tree level, as the plan holds them.
    ///
    /// With `trace` and `progress` both `None`, the extra cost over
    /// [`ReusablePlan::run`] is two branches per task.
    pub fn run_with<E: From<Cancelled> + Send>(
        &self,
        policy: TraversalPolicy,
        workers: usize,
        cancel: Option<&CancelToken>,
        trace: Option<&TraceSink>,
        progress: Option<&ProgressHandle>,
        task: impl Fn(Family, usize) -> Result<(), E> + Sync,
    ) -> Result<ExecStats, E> {
        if let (Some(sink), TraversalPolicy::Sequential) = (trace, policy) {
            // The tasks run on this thread: set its lane up before the first
            // span opens, not between the first span and the second.
            sink.register_thread();
        }
        let stages = progress.map(|handle| Stages::new(handle, &self.freeze().groups));
        let failure: Mutex<Option<E>> = Mutex::new(None);
        let run = |idx: usize| {
            let (family, node) = self.keys[idx];
            let result = match trace {
                None => task(family, node),
                Some(sink) => {
                    let t0 = sink.now();
                    let result = task(family, node);
                    let t1 = sink.now();
                    sink.record(SpanKind::Task, family, node, heap_level(node), t0, t1);
                    result
                }
            };
            match result {
                Ok(()) => {
                    if let Some(stages) = &stages {
                        stages.task_done(family, idx);
                    }
                    true
                }
                Err(err) => {
                    failure.lock().get_or_insert(err);
                    false
                }
            }
        };
        let barrier = |group: Range<usize>, body: &dyn Fn()| match trace {
            None => body(),
            Some(sink) => {
                let (family, node) = self.keys[group.start];
                let t0 = sink.now();
                body();
                sink.record(
                    SpanKind::Marker,
                    family,
                    0,
                    heap_level(node),
                    t0,
                    sink.now(),
                );
            }
        };
        let stats = self.execute(policy, workers, cancel, run, &barrier);
        match failure.into_inner() {
            Some(err) => Err(err),
            None if stats.cancelled => Err(Cancelled.into()),
            None => Ok(stats),
        }
    }

    fn execute(
        &self,
        policy: TraversalPolicy,
        workers: usize,
        cancel: Option<&CancelToken>,
        run: impl Fn(usize) -> bool + Sync,
        barrier: &BarrierHook<'_>,
    ) -> ExecStats {
        let frozen = self.freeze();
        run_dag_with_cancel(
            DagShape {
                indegrees: &frozen.indegrees,
                successors: &frozen.successors,
                costs: &self.costs,
                groups: &frozen.groups,
            },
            policy,
            workers,
            cancel,
            run,
            barrier,
        )
    }
}

/// The progress of one run, with the plan's barrier groups as its stages:
/// when the last task of a group succeeds, the listener gets one
/// [`ProgressReport::SweepLevel`] report with the monotone count of
/// completed groups.
struct Stages<'r> {
    handle: &'r ProgressHandle,
    groups: &'r [Range<usize>],
    /// Per group, its tasks still to succeed.
    remaining: Vec<AtomicUsize>,
    completed: AtomicUsize,
}

impl<'r> Stages<'r> {
    fn new(handle: &'r ProgressHandle, groups: &'r [Range<usize>]) -> Self {
        Self {
            handle,
            groups,
            remaining: groups.iter().map(|g| AtomicUsize::new(g.len())).collect(),
            completed: AtomicUsize::new(0),
        }
    }

    /// Record the success of task `idx` of `family`.
    fn task_done(&self, family: Family, idx: usize) {
        let group = self.groups.partition_point(|g| g.end <= idx);
        if self.remaining[group].fetch_sub(1, Ordering::AcqRel) == 1 {
            let completed = self.completed.fetch_add(1, Ordering::Relaxed) + 1;
            self.handle.report(&ProgressReport::SweepLevel {
                family,
                completed,
                total: self.groups.len(),
            });
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use gofmm_telemetry::SpanEvent;
    use std::sync::atomic::AtomicUsize;

    const POLICIES: [TraversalPolicy; 4] = [
        TraversalPolicy::Sequential,
        TraversalPolicy::LevelByLevel,
        TraversalPolicy::DagFifo,
        TraversalPolicy::DagHeft,
    ];

    /// Node count of a perfect binary tree with `levels` levels.
    fn heap_nodes(levels: u32) -> usize {
        (1usize << levels) - 1
    }

    #[test]
    fn bottom_up_runs_children_first() {
        let n = heap_nodes(4);
        let order = Mutex::new(Vec::new());
        for policy in POLICIES {
            let mut plan = ReusablePlan::new();
            plan.add_bottom_up("UP", n, |_| false, |_| 1.0);
            assert_eq!(plan.task_count(), n);
            plan.run(policy, 4, |_, node| order.lock().push(node));
            let seen = std::mem::take(&mut *order.lock());
            assert_eq!(seen.len(), n);
            let pos = |x: usize| seen.iter().position(|&v| v == x).unwrap();
            for node in 0..n {
                if let Some((l, r)) = heap_children(node, n) {
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
        let n = heap_nodes(4);
        let order = Mutex::new(Vec::new());
        let mut plan = ReusablePlan::new();
        plan.add_top_down("DOWN", n, |_| false, |_| 1.0, |_, _| {});
        plan.run(TraversalPolicy::DagHeft, 4, |_, node| {
            order.lock().push(node)
        });
        let seen = order.into_inner();
        let pos = |x: usize| seen.iter().position(|&v| v == x).unwrap();
        for node in 1..n {
            let parent = heap_parent(node).unwrap();
            assert!(pos(parent) < pos(node), "parent {parent} after node {node}");
        }
    }

    #[test]
    fn traced_runs_record_one_span_per_task() {
        let levels = 4;
        let n = heap_nodes(levels);
        let mut shape = ReusablePlan::new();
        shape.add_bottom_up("UP", n, |_| false, |_| 1.0);
        let sink = TraceSink::new();
        let hits = AtomicUsize::new(0);
        for policy in POLICIES {
            shape
                .run_with::<Cancelled>(policy, 3, None, Some(&sink), None, |_, _| {
                    hits.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                })
                .unwrap();
        }
        assert_eq!(hits.load(Ordering::SeqCst), 4 * n);
        let trace = sink.trace();
        let (tasks, markers): (Vec<&SpanEvent>, Vec<&SpanEvent>) = trace
            .events()
            .iter()
            .partition(|ev| ev.kind == SpanKind::Task);
        assert_eq!(tasks.len(), 4 * n, "one span per executed task");
        // Level-by-level adds one marker per barrier group: one per level.
        assert_eq!(markers.len(), levels as usize);
        for ev in &tasks {
            assert_eq!(ev.family, "UP");
            assert_eq!(ev.level, heap_level(ev.node), "span level matches node");
            assert!(ev.t_end >= ev.t_start, "spans close after they open");
        }
        for ev in &markers {
            assert_eq!((ev.kind, ev.family), (SpanKind::Marker, "UP"));
            let inside = tasks
                .iter()
                .filter(|t| t.level == ev.level && ev.t_start <= t.t_start && t.t_end <= ev.t_end);
            assert_eq!(inside.count(), 1 << ev.level, "a marker brackets its level");
        }
    }

    /// Barrier groups on a heap tree: a bottom-up or top-down family gets
    /// one group per level, a flat family one group, and no group holds
    /// both ends of a dependency edge.
    #[test]
    fn barrier_groups_follow_levels_and_families() {
        let levels = 5;
        let n = heap_nodes(levels);
        let mut plan = ReusablePlan::new();
        plan.add_bottom_up("UP", n, |_| false, |_| 1.0);
        for node in 0..n {
            plan.add("FLAT", node, 1.0, &[("UP", node)]);
        }
        plan.add_top_down(
            "DOWN",
            n,
            |_| false,
            |_| 1.0,
            |node, deps| deps.push(("FLAT", node)),
        );
        let groups = &plan.freeze().groups;
        let levels = levels as usize;
        assert_eq!(groups.len(), 2 * levels + 1);
        assert_eq!(groups.iter().map(Range::len).sum::<usize>(), 3 * n);
        for (g, group) in groups.iter().enumerate() {
            let family = plan.key(group.start).0;
            let (want_family, want_level) = match g {
                g if g < levels => ("UP", Some(levels - 1 - g)),
                g if g == levels => ("FLAT", None),
                g => ("DOWN", Some(g - levels - 1)),
            };
            assert_eq!(family, want_family, "group {g}");
            for i in group.clone() {
                let (f, node) = plan.key(i);
                assert_eq!(f, family, "group {g} mixes families");
                if let Some(level) = want_level {
                    assert_eq!(heap_level(node), level, "group {g} mixes levels");
                }
                for &d in &plan.deps[i] {
                    assert!(!group.contains(&d), "group {g} holds an edge {d} -> {i}");
                }
            }
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
    fn children_and_parent_roundtrip() {
        let n = heap_nodes(4);
        assert_eq!(heap_children(0, n), Some((1, 2)));
        assert_eq!(heap_children(4, n), Some((9, 10)));
        assert_eq!(heap_children(7, n), None, "a leaf has no children");
        assert_eq!(heap_children(0, 1), None, "a single node is a leaf");
        assert_eq!(heap_parent(0), None);
        for node in 0..n {
            if let Some((l, r)) = heap_children(node, n) {
                assert_eq!((heap_parent(l), heap_parent(r)), (Some(node), Some(node)));
                assert_eq!(heap_level(l), heap_level(node) + 1);
            }
        }
    }

    #[test]
    fn ancestor_relation() {
        // Node 11 is level 3, path right-left-right: 0 -> 2 -> 5 -> 11.
        let node = 11;
        assert!(heap_is_ancestor_or_self(0, node));
        assert!(heap_is_ancestor_or_self(node, node));
        assert!(heap_is_ancestor_or_self(2, node));
        assert!(!heap_is_ancestor_or_self(1, node));
        assert!(!heap_is_ancestor_or_self(node, 0));
        assert!(heap_is_ancestor_or_self(5, node));
        assert!(!heap_is_ancestor_or_self(6, node));
    }

    #[test]
    fn missing_dependencies_are_skipped() {
        let counter = AtomicUsize::new(0);
        let mut plan = ReusablePlan::new();
        // Depend on a key that no task ever registers.
        plan.add("A", 0, 1.0, &[("GHOST", 3)]);
        assert!(plan.id("GHOST", 3).is_none());
        assert!(plan.id("A", 0).is_some());
        plan.run(TraversalPolicy::Sequential, 1, |_, _| {
            counter.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate task")]
    fn duplicate_key_panics() {
        let mut plan = ReusablePlan::new();
        plan.add("A", 0, 1.0, &[]);
        plan.add("A", 0, 1.0, &[]);
    }

    #[test]
    #[should_panic(expected = "add producers before consumers")]
    fn producer_after_consumer_panics() {
        let mut plan = ReusablePlan::new();
        // "B(1)" is consumed before it is produced: the dropped edge must be
        // detected at construction time, not surface as a runtime race.
        plan.add("A", 0, 1.0, &[("B", 1)]);
        plan.add("B", 1, 1.0, &[]);
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
        let n = heap_nodes(5);
        let mut plan = ReusablePlan::new();
        plan.add_bottom_up("UP", n, |_| false, |_| 1.0);
        for node in 0..n {
            // TOP(node) rewrites the cell that UP(parent) reads, so it must
            // wait for the parent's sweep step as well as its own.
            let mut deps = vec![("UP", node)];
            if let Some(parent) = heap_parent(node) {
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
        for policy in POLICIES {
            for _ in 0..3 {
                let cells: DisjointCells<f64> = DisjointCells::from_fn(n, |i| i as f64 * 0.5);
                let stats = plan.run(policy, 4, |family, node| match family {
                    "UP" => {
                        let v = match heap_children(node, n) {
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
        let n = heap_nodes(6);
        let mut plan = ReusablePlan::new();
        plan.add_bottom_up("UP", n, |_| false, |_| 1.0);
        let task = |cells: &DisjointCells<f64>, node: usize| {
            let v = match heap_children(node, n) {
                Some((l, r)) => (*cells.read(l)).mul_add(1.01, *cells.read(r)),
                None => (node as f64).cos(),
            };
            *cells.write(node) += v;
        };
        // Sequential reference.
        let reference = {
            let cells: DisjointCells<f64> = DisjointCells::from_fn(n, |i| i as f64 * 0.5);
            plan.run(TraversalPolicy::Sequential, 1, |_, node| task(&cells, node));
            cells.into_inner()
        };
        let plan = &plan;
        std::thread::scope(|scope| {
            for t in 0..6 {
                let reference = &reference;
                let task = &task;
                scope.spawn(move || {
                    let policy = POLICIES[t % POLICIES.len()];
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
        let n = heap_nodes(4);
        let mut plan = ReusablePlan::new();
        plan.add_bottom_up("UP", n, |_| false, |_| 1.0);
        for policy in POLICIES {
            let token = CancelToken::new();
            let counter = AtomicUsize::new(0);
            let stats = plan
                .run_with::<Cancelled>(policy, 3, Some(&token), None, None, |_, _| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                })
                .expect("un-cancelled run must complete");
            assert_eq!(stats.tasks_executed, n, "{policy}");
            assert!(!stats.cancelled, "{policy}");
            assert_eq!(counter.load(Ordering::SeqCst), n, "{policy}");
        }
    }

    #[test]
    fn pre_cancelled_token_drains_without_running_bodies() {
        let n = heap_nodes(5);
        let mut plan = ReusablePlan::new();
        plan.add_bottom_up("UP", n, |_| false, |_| 1.0);
        for policy in POLICIES {
            let token = CancelToken::new();
            token.cancel();
            let counter = AtomicUsize::new(0);
            let err = plan.run_with(policy, 3, Some(&token), None, None, |_, _| {
                counter.fetch_add(1, Ordering::SeqCst);
                Ok(())
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
        let n = heap_nodes(6);
        let mut plan = ReusablePlan::new();
        plan.add_bottom_up("UP", n, |_| false, |_| 1.0);
        for policy in POLICIES {
            let token = CancelToken::new();
            let ran = AtomicUsize::new(0);
            let err = plan.run_with(policy, 4, Some(&token), None, None, |_, _| {
                if ran.fetch_add(1, Ordering::SeqCst) == 2 {
                    token.cancel();
                }
                Ok(())
            });
            assert!(matches!(err, Err(Cancelled)), "{policy}");
            assert!(
                ran.load(Ordering::SeqCst) < n,
                "{policy}: every body still ran"
            );
            // The plan itself is untouched by a cancelled run.
            let counter = AtomicUsize::new(0);
            let stats = plan
                .run_with::<Cancelled>(policy, 4, Some(&CancelToken::new()), None, None, |_, _| {
                    counter.fetch_add(1, Ordering::SeqCst);
                    Ok(())
                })
                .expect("fresh token must complete");
            assert_eq!(stats.tasks_executed, n, "{policy}");
            assert_eq!(counter.load(Ordering::SeqCst), n, "{policy}");
        }
    }

    /// A task error of the run's own type: a failed task or a cancellation.
    #[derive(Debug, PartialEq)]
    enum Failure {
        Task(usize),
        Cancelled,
    }

    impl From<Cancelled> for Failure {
        fn from(_: Cancelled) -> Self {
            Failure::Cancelled
        }
    }

    #[test]
    fn first_failed_task_stops_the_run_and_returns_its_error() {
        // A failing task skips every body not yet started, drains the rest
        // like a cancellation, and hands its error back; the plan then
        // serves a complete run again.
        let n = heap_nodes(6);
        let mut plan = ReusablePlan::new();
        plan.add_bottom_up("UP", n, |_| false, |_| 1.0);
        for policy in POLICIES {
            for workers in [1, 3] {
                let ran = AtomicUsize::new(0);
                let err = plan.run_with(policy, workers, None, None, None, |_, node| {
                    ran.fetch_add(1, Ordering::SeqCst);
                    match node {
                        40 => Err(Failure::Task(node)),
                        _ => Ok(()),
                    }
                });
                assert_eq!(err.unwrap_err(), Failure::Task(40), "{policy}/{workers}");
                assert!(
                    ran.load(Ordering::SeqCst) < n,
                    "{policy}/{workers}: every body ran"
                );
                let stats = plan
                    .run_with::<Failure>(policy, workers, None, None, None, |_, _| Ok(()))
                    .expect("a run without failures completes");
                assert_eq!(stats.tasks_executed, n, "{policy}/{workers}");
                assert!(!stats.cancelled, "{policy}/{workers}");
            }
        }
    }

    #[test]
    fn progress_reports_one_stage_per_barrier_group() {
        let levels = 5;
        let n = heap_nodes(levels);
        let mut plan = ReusablePlan::new();
        plan.add_bottom_up("UP", n, |_| false, |_| 1.0);
        plan.add_top_down("DOWN", n, |_| false, |_| 1.0, |_, _| {});
        let groups = plan.freeze().groups.len();
        assert_eq!(groups, 2 * levels as usize);
        let seen = std::sync::Arc::new(Mutex::new(Vec::new()));
        let sink = std::sync::Arc::clone(&seen);
        let handle = ProgressHandle::new(move |r: &ProgressReport<'_>| {
            if let ProgressReport::SweepLevel {
                family,
                completed,
                total,
            } = *r
            {
                sink.lock().push((family, completed, total));
            }
        });
        for policy in POLICIES {
            plan.run_with::<Cancelled>(policy, 3, None, None, Some(&handle), |_, _| Ok(()))
                .unwrap();
            let mut reports = std::mem::take(&mut *seen.lock());
            assert_eq!(reports.len(), groups, "{policy}: one report per group");
            let ups = reports.iter().filter(|r| r.0 == "UP").count();
            assert_eq!(ups, levels as usize, "{policy}: one UP stage per level");
            // Two workers may deliver their reports out of order; the
            // counts they carry are still each stage's own.
            reports.sort_by_key(|r| r.1);
            for (i, &(_, completed, total)) in reports.iter().enumerate() {
                assert_eq!((completed, total), (i + 1, groups), "{policy}");
            }
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
        plan.run(TraversalPolicy::Sequential, 1, |_, _| {});
        plan.add("A", 1, 1.0, &[]);
    }

    #[test]
    fn plan_cost_accessors() {
        let mut plan = ReusablePlan::new();
        plan.add("A", 0, 2.0, &[]);
        plan.add("B", 0, 3.0, &[("A", 0)]);
        assert_eq!(plan.total_cost(), 5.0);
        assert_eq!(plan.critical_path_cost(), 5.0);
        assert_eq!(plan.task_count(), 2);
        assert!(!plan.is_empty());
        assert!(ReusablePlan::new().is_empty());
    }
}
