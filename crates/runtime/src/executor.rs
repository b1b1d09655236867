//! Schedulers that execute a frozen task DAG (a [`crate::plan::ReusablePlan`]).
//!
//! Four policies mirror the paper's comparison (§2.3, Figure 4), all over
//! the same DAG:
//!
//! * [`TraversalPolicy::DagHeft`] — the GOFMM runtime: dynamic out-of-order
//!   execution with per-worker ready queues, tasks dispatched to the worker
//!   with the smallest estimated finish time (a light-weight HEFT), plus job
//!   stealing.
//! * [`TraversalPolicy::DagFifo`] — a plain shared ready queue without a
//!   cost model; the stand-in for `omp task depend`.
//! * [`TraversalPolicy::LevelByLevel`] — the classical static schedule: the
//!   plan's barrier groups (one per tree level for a sweep family, one for
//!   a flat family) run one after another, each through
//!   [`crate::parallel::parallel_for`].
//! * [`TraversalPolicy::Sequential`] — topological-order execution on the
//!   calling thread, used as the single-core baseline and in tests.
//!
//! Every runner checks once per task whether the run was stopped — by the
//! cancellation token or by a task that reported failure.

use crate::cancel::CancelToken;
use crate::parallel::parallel_for;
use crossbeam::deque::{Injector, Steal};
use parking_lot::Mutex;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

/// How tree traversals are executed (paper §2.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraversalPolicy {
    /// Single-threaded reference traversals.
    Sequential,
    /// Parallel level-by-level traversals with a barrier per tree level
    /// (the classical static-scheduling approach): the plan's barrier
    /// groups in order, each run by `parallel_for`.
    LevelByLevel,
    /// Out-of-order execution of the task dependency DAG with the HEFT
    /// runtime (GOFMM's own scheduler).
    DagHeft,
    /// Out-of-order execution with a plain FIFO task pool (the paper's
    /// `omp task depend` comparison point).
    DagFifo,
}

impl TraversalPolicy {
    /// Display label used in experiment tables.
    pub fn label(&self) -> &'static str {
        match self {
            TraversalPolicy::Sequential => "sequential",
            TraversalPolicy::LevelByLevel => "level-by-level",
            TraversalPolicy::DagHeft => "dag-heft",
            TraversalPolicy::DagFifo => "dag-fifo",
        }
    }
}

impl std::fmt::Display for TraversalPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Statistics returned by the executors.
#[derive(Clone, Debug, Default)]
pub struct ExecStats {
    /// Wall-clock seconds spent inside the executor.
    pub elapsed: f64,
    /// Number of tasks executed.
    pub tasks_executed: usize,
    /// Sum of per-task execution times across all workers (seconds). The
    /// sequential policy does not time tasks one by one: there it equals
    /// `elapsed`.
    pub total_task_time: f64,
    /// Per-worker busy seconds. Empty under level-by-level, whose
    /// `parallel_for` threads are anonymous and respawned per group.
    pub worker_busy: Vec<f64>,
    /// Number of successful steals (HEFT only).
    pub steals: usize,
    /// Number of workers used.
    pub workers: usize,
    /// True when the run stopped early — a cancellation token fired or a
    /// task failed — and the remaining tasks were drained (dependencies
    /// released, bodies skipped) instead of executed, so the run's outputs
    /// are incomplete.
    pub cancelled: bool,
}

impl ExecStats {
    /// Parallel efficiency: total task time / (workers * elapsed).
    pub fn efficiency(&self) -> f64 {
        if self.elapsed <= 0.0 || self.workers == 0 {
            return 0.0;
        }
        self.total_task_time / (self.workers as f64 * self.elapsed)
    }
}

/// The frozen shape of a DAG: everything a scheduler needs except the work
/// itself. Borrowed by [`run_dag_with_cancel`], which pairs it with a
/// run-task callback; the same shape can therefore drive many runs (see
/// `crate::plan::ReusablePlan`).
pub(crate) struct DagShape<'s> {
    /// Initial dependency count per task.
    pub indegrees: &'s [usize],
    /// Successor adjacency per task.
    pub successors: &'s [Vec<usize>],
    /// Cost estimates per task (HEFT dispatch; ignored by the others).
    pub costs: &'s [f64],
    /// Barrier groups of the level-by-level schedule: consecutive index
    /// ranges covering every task, no task in the same group as a task it
    /// depends on.
    pub groups: &'s [Range<usize>],
}

impl DagShape<'_> {
    fn len(&self) -> usize {
        self.indegrees.len()
    }
}

/// Runs one level-by-level barrier group: called with the group's task range
/// and a `body` that runs the group, it calls `body` once (a traced run
/// records its marker span around it).
pub(crate) type BarrierHook<'h> = dyn Fn(Range<usize>, &dyn Fn()) + 'h;

/// Execute a DAG described by `shape` with the given policy, running task `i`
/// by calling `run(i)`. Task indices are assumed to be in topological
/// (insertion) order, as guaranteed by `ReusablePlan`. Under level-by-level,
/// `barrier(group, body)` wraps each barrier group's run (`body`); the other
/// policies never call it.
///
/// The run stops when the optional cooperative cancellation token fires or
/// when `run` returns `false` (the task failed); both are polled once per
/// task. Once stopped, the remaining tasks are *drained*: popped, counted
/// as complete and their successors released — but their bodies are
/// skipped. Draining (rather than abandoning) keeps the workers'
/// termination detection intact, so a stopped run winds down promptly with
/// no thread left spinning on an abandoned queue. The returned stats have
/// `cancelled` set when any task body was skipped.
pub(crate) fn run_dag_with_cancel(
    shape: DagShape<'_>,
    policy: TraversalPolicy,
    workers: usize,
    cancel: Option<&CancelToken>,
    run: impl Fn(usize) -> bool + Sync,
    barrier: &BarrierHook<'_>,
) -> ExecStats {
    match policy {
        TraversalPolicy::Sequential => run_dag_sequential(shape.len(), cancel, run),
        TraversalPolicy::LevelByLevel => run_dag_barriers(shape, workers, cancel, run, barrier),
        TraversalPolicy::DagFifo => run_dag_queues(shape, workers, cancel, run, false),
        TraversalPolicy::DagHeft => run_dag_queues(shape, workers, cancel, run, true),
    }
}

/// Run every task on the calling thread in index (topological) order, up to
/// the first failed one.
fn run_dag_sequential(
    n: usize,
    cancel: Option<&CancelToken>,
    run: impl Fn(usize) -> bool,
) -> ExecStats {
    let start = Instant::now();
    let mut executed = 0usize;
    for i in 0..n {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            break;
        }
        executed += 1;
        if !run(i) {
            break;
        }
    }
    // One worker and no queue: the tasks tile the run, so the run's clock is
    // the task time and no task pays for two clock reads of its own.
    let elapsed = start.elapsed().as_secs_f64();
    let total_task_time = elapsed;
    ExecStats {
        elapsed,
        tasks_executed: executed,
        total_task_time,
        worker_busy: vec![total_task_time],
        steals: 0,
        workers: 1,
        cancelled: executed < n,
    }
}

/// Dynamic scheduling state shared by the parallel runners: remaining
/// dependency counts plus a completion counter for termination detection.
struct RunState<'s> {
    remaining: Vec<AtomicUsize>,
    shape: DagShape<'s>,
    completed: AtomicUsize,
    total: usize,
    cancel: Option<&'s CancelToken>,
    /// Set by the first failed task: every later body is skipped.
    failed: AtomicBool,
}

impl<'s> RunState<'s> {
    fn new(shape: DagShape<'s>, cancel: Option<&'s CancelToken>) -> Self {
        Self {
            remaining: shape
                .indegrees
                .iter()
                .map(|&d| AtomicUsize::new(d))
                .collect(),
            completed: AtomicUsize::new(0),
            total: shape.len(),
            shape,
            cancel,
            failed: AtomicBool::new(false),
        }
    }

    /// Run (or, when the run was stopped, drain) task `idx`. Returns the
    /// task's wall time when the body ran, `None` when it was drained.
    /// Either way the task counts as completed for termination detection,
    /// and the caller must still release its successors.
    fn run_task(&self, idx: usize, run: &(impl Fn(usize) -> bool + Sync)) -> Option<f64> {
        let dt = if self.is_stopped() {
            None
        } else {
            let t0 = Instant::now();
            if !run(idx) {
                self.failed.store(true, Ordering::Relaxed);
            }
            Some(t0.elapsed().as_secs_f64())
        };
        self.completed.fetch_add(1, Ordering::Release);
        dt
    }

    fn is_stopped(&self) -> bool {
        self.failed.load(Ordering::Relaxed) || self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    fn done(&self) -> bool {
        self.completed.load(Ordering::Acquire) >= self.total
    }
}

/// Run a DAG level by level: the shape's barrier groups one after another,
/// each through [`parallel_for`]. The barrier after a group stands in for
/// every dependency edge out of it, since no task shares a group with a task
/// it depends on, so no dependency counters are kept.
fn run_dag_barriers(
    shape: DagShape<'_>,
    workers: usize,
    cancel: Option<&CancelToken>,
    run: impl Fn(usize) -> bool + Sync,
    barrier: &BarrierHook<'_>,
) -> ExecStats {
    let workers = workers.max(1);
    let groups = shape.groups;
    let state = RunState {
        remaining: Vec::new(),
        completed: AtomicUsize::new(0),
        total: shape.len(),
        shape,
        cancel,
        failed: AtomicBool::new(false),
    };
    let busy_ns = AtomicU64::new(0);
    let executed = AtomicUsize::new(0);
    let start = Instant::now();
    for group in groups {
        barrier(group.clone(), &|| {
            parallel_for(group.len(), workers, |i| {
                if let Some(dt) = state.run_task(group.start + i, &run) {
                    busy_ns.fetch_add((dt * 1e9) as u64, Ordering::Relaxed);
                    executed.fetch_add(1, Ordering::Relaxed);
                }
            });
        });
    }
    let tasks_executed = executed.load(Ordering::Relaxed);
    ExecStats {
        elapsed: start.elapsed().as_secs_f64(),
        tasks_executed,
        total_task_time: busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
        worker_busy: Vec::new(),
        steals: 0,
        workers,
        cancelled: tasks_executed < state.total,
    }
}

/// Run a DAG from ready queues on `workers` threads.
///
/// With `heft`, the GOFMM-style runtime: every ready task is pushed to the
/// queue of the worker whose estimated finish time (sum of costs of tasks
/// already queued there) is smallest, and idle workers steal round-robin,
/// which covers cost-model inaccuracy exactly like the paper's job-stealing
/// fallback. Without, one shared FIFO ready queue (no cost model, no
/// affinity).
fn run_dag_queues(
    shape: DagShape<'_>,
    workers: usize,
    cancel: Option<&CancelToken>,
    run: impl Fn(usize) -> bool + Sync,
    heft: bool,
) -> ExecStats {
    let workers = workers.max(1);
    let state = RunState::new(shape, cancel);
    if state.total == 0 {
        return ExecStats {
            workers,
            ..Default::default()
        };
    }
    let queue_count = if heft { workers } else { 1 };
    let queues: Vec<Injector<usize>> = (0..queue_count).map(|_| Injector::new()).collect();
    // Estimated finish time per queue, protected by a single small mutex:
    // dispatch is O(workers) and happens once per task, so contention is low.
    let eft = Mutex::new(vec![0.0f64; queue_count]);

    let dispatch = |idx: usize| {
        if !heft {
            return queues[0].push(idx);
        }
        let mut eft = eft.lock();
        let (wmin, _) = eft
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .unwrap();
        // A negative cost estimate counts as zero.
        eft[wmin] += state.shape.costs[idx].max(0.0);
        queues[wmin].push(idx);
    };
    for (i, r) in state.remaining.iter().enumerate() {
        if r.load(Ordering::Relaxed) == 0 {
            dispatch(i);
        }
    }

    let start = Instant::now();
    let busy: Vec<Mutex<f64>> = (0..workers).map(|_| Mutex::new(0.0)).collect();
    let steals = AtomicUsize::new(0);
    let executed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let state = &state;
            let queues = &queues;
            let busy = &busy[w];
            let steals = &steals;
            let executed = &executed;
            let dispatch = &dispatch;
            let run = &run;
            scope.spawn(move || {
                let own = w % queues.len();
                loop {
                    if state.done() {
                        break;
                    }
                    // Own queue first, then steal round-robin.
                    let mut task = None;
                    if let Steal::Success(idx) = queues[own].steal() {
                        task = Some(idx);
                    } else {
                        for off in 1..queues.len() {
                            let victim = (own + off) % queues.len();
                            if let Steal::Success(idx) = queues[victim].steal() {
                                steals.fetch_add(1, Ordering::Relaxed);
                                task = Some(idx);
                                break;
                            }
                        }
                    }
                    match task {
                        Some(idx) => {
                            if let Some(dt) = state.run_task(idx, run) {
                                *busy.lock() += dt;
                                executed.fetch_add(1, Ordering::Relaxed);
                            }
                            for &s in &state.shape.successors[idx] {
                                if state.remaining[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                                    dispatch(s);
                                }
                            }
                        }
                        None => std::thread::yield_now(),
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let worker_busy: Vec<f64> = busy.iter().map(|b| *b.lock()).collect();
    let tasks_executed = executed.load(Ordering::Relaxed);
    ExecStats {
        elapsed,
        tasks_executed,
        total_task_time: worker_busy.iter().sum(),
        worker_busy,
        steals: steals.load(Ordering::Relaxed),
        workers,
        cancelled: tasks_executed < state.total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::ReusablePlan;

    const POLICIES: [TraversalPolicy; 4] = [
        TraversalPolicy::Sequential,
        TraversalPolicy::LevelByLevel,
        TraversalPolicy::DagFifo,
        TraversalPolicy::DagHeft,
    ];

    /// Run a diamond DAG, recording its execution order into `order`.
    fn diamond(
        order: &Mutex<Vec<&'static str>>,
        policy: TraversalPolicy,
        workers: usize,
    ) -> ExecStats {
        let mut g = ReusablePlan::new();
        g.add("a", 0, 1.0, &[]);
        g.add("b", 0, 1.0, &[("a", 0)]);
        g.add("c", 0, 1.0, &[("a", 0)]);
        g.add("d", 0, 1.0, &[("b", 0), ("c", 0)]);
        g.run(policy, workers, |family, _| order.lock().push(family))
    }

    fn check_diamond_order(order: &[&str]) {
        assert_eq!(order.len(), 4);
        assert_eq!(order[0], "a");
        assert_eq!(order[3], "d");
        assert!(order[1..3].contains(&"b"));
        assert!(order[1..3].contains(&"c"));
    }

    #[test]
    fn sequential_respects_dependencies() {
        let order = Mutex::new(Vec::new());
        let stats = diamond(&order, TraversalPolicy::Sequential, 1);
        check_diamond_order(&order.lock());
        assert_eq!(stats.tasks_executed, 4);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn fifo_respects_dependencies() {
        let order = Mutex::new(Vec::new());
        let stats = diamond(&order, TraversalPolicy::DagFifo, 4);
        check_diamond_order(&order.lock());
        assert_eq!(stats.tasks_executed, 4);
    }

    #[test]
    fn heft_respects_dependencies() {
        let order = Mutex::new(Vec::new());
        let stats = diamond(&order, TraversalPolicy::DagHeft, 4);
        check_diamond_order(&order.lock());
        assert_eq!(stats.tasks_executed, 4);
        assert_eq!(stats.workers, 4);
    }

    #[test]
    fn all_policies_run_every_task_once() {
        for policy in POLICIES {
            let counter = AtomicUsize::new(0);
            let mut g = ReusablePlan::new();
            let mut prev_level: Vec<(&'static str, usize)> = Vec::new();
            // Three levels of 20 tasks with full bipartite dependencies.
            for level in 0..3 {
                let mut this_level = Vec::new();
                for i in 0..20 {
                    let node = level * 20 + i;
                    g.add("t", node, 1.0 + i as f64, &prev_level);
                    this_level.push(("t", node));
                }
                prev_level = this_level;
            }
            let stats = g.run(policy, 6, |_, _| {
                counter.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(counter.load(Ordering::SeqCst), 60, "policy {policy}");
            assert_eq!(stats.tasks_executed, 60, "policy {policy}");
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        for policy in POLICIES {
            let stats = ReusablePlan::new().run(policy, 3, |_, _| {});
            assert_eq!(stats.tasks_executed, 0);
        }
    }

    #[test]
    fn heft_balances_independent_tasks() {
        // 64 independent tasks of equal cost on 4 workers: every worker should
        // get some share of work (dispatch is round-robin-ish through EFT).
        let mut g = ReusablePlan::new();
        for i in 0..64 {
            g.add("t", i, 1.0, &[]);
        }
        let stats = g.run(TraversalPolicy::DagHeft, 4, |_, _| {
            // Simulate real work so busy times are measurable; black_box
            // the loop variable so the sum cannot be constant-folded in
            // optimized test builds.
            let mut acc = 0u64;
            for k in 0..200_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(k).wrapping_mul(2654435761));
            }
            std::hint::black_box(acc);
        });
        assert_eq!(stats.tasks_executed, 64);
        let active_workers = stats.worker_busy.iter().filter(|&&b| b > 0.0).count();
        assert!(active_workers >= 2, "only {active_workers} workers active");
        assert!(stats.efficiency() > 0.0);
    }

    #[test]
    fn stats_efficiency_bounds() {
        let mut g = ReusablePlan::new();
        for i in 0..8 {
            g.add("t", i, 1.0, &[]);
        }
        let stats = g.run(TraversalPolicy::DagHeft, 4, |_, _| {
            std::thread::sleep(std::time::Duration::from_millis(2));
        });
        assert!(
            stats.efficiency() <= 1.05,
            "efficiency {}",
            stats.efficiency()
        );
        assert!(stats.elapsed > 0.0);
    }

    #[test]
    fn policy_display_names() {
        assert_eq!(TraversalPolicy::Sequential.to_string(), "sequential");
        assert_eq!(TraversalPolicy::LevelByLevel.to_string(), "level-by-level");
        assert_eq!(TraversalPolicy::DagHeft.to_string(), "dag-heft");
        assert_eq!(TraversalPolicy::DagFifo.label(), "dag-fifo");
    }
}
