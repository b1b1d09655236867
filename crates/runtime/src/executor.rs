//! Schedulers that execute a [`TaskGraph`].
//!
//! Three policies mirror the paper's comparison (§2.3, Figure 4):
//!
//! * [`execute_heft`] — the GOFMM runtime: dynamic out-of-order execution with
//!   per-worker ready queues, tasks dispatched to the worker with the smallest
//!   estimated finish time (a light-weight HEFT), plus job stealing.
//! * [`execute_fifo`] — a plain shared ready queue without a cost model; the
//!   stand-in for `omp task depend`.
//! * [`execute_sequential`] — topological-order execution on the calling
//!   thread, used as the single-core baseline and in tests.
//!
//! Level-by-level traversal (the third scheme in the paper) is not a DAG
//! policy — it is a different driver loop in `gofmm-core` built on
//! [`crate::parallel::parallel_for`] with a barrier per tree level.

use crate::cancel::CancelToken;
use crate::graph::TaskGraph;
use crossbeam::deque::{Injector, Steal};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Which DAG scheduling policy to use.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SchedulePolicy {
    /// Dynamic HEFT-style scheduling with per-worker queues and stealing.
    Heft,
    /// Single shared FIFO ready queue (models `omp task depend`).
    Fifo,
    /// Sequential topological execution on the calling thread.
    Sequential,
}

impl std::fmt::Display for SchedulePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulePolicy::Heft => write!(f, "heft"),
            SchedulePolicy::Fifo => write!(f, "fifo"),
            SchedulePolicy::Sequential => write!(f, "sequential"),
        }
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
    /// Per-worker busy seconds.
    pub worker_busy: Vec<f64>,
    /// Number of successful steals (HEFT only).
    pub steals: usize,
    /// Number of workers used.
    pub workers: usize,
    /// True when a cancellation token fired mid-run: the remaining tasks
    /// were drained (dependencies released, bodies skipped) instead of
    /// executed, so the run's outputs are incomplete.
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

/// Execute the graph with the requested policy and worker count.
pub fn execute(graph: TaskGraph<'_>, policy: SchedulePolicy, workers: usize) -> ExecStats {
    match policy {
        SchedulePolicy::Sequential => execute_sequential(graph),
        SchedulePolicy::Fifo => execute_fifo(graph, workers),
        SchedulePolicy::Heft => execute_heft(graph, workers),
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
    /// Cost estimates per task (HEFT dispatch; ignored by FIFO/sequential).
    pub costs: &'s [f64],
}

impl DagShape<'_> {
    fn len(&self) -> usize {
        self.indegrees.len()
    }
}

/// Execute a DAG described by `shape` with the given policy, running task `i`
/// by calling `run(i)`. Task indices are assumed to be in topological
/// (insertion) order, as guaranteed by [`TaskGraph`] and `PhasePlan`.
///
/// Takes an optional cooperative cancellation token, polled once
/// per task. Once the token fires, the remaining tasks are *drained*:
/// popped, counted as complete and their successors released — but their
/// bodies are skipped. Draining (rather than stopping) keeps the workers'
/// termination detection intact, so a cancelled run winds down promptly
/// with no thread left spinning on an abandoned queue. The returned stats
/// have `cancelled` set when any task body was skipped.
pub(crate) fn run_dag_with_cancel(
    shape: DagShape<'_>,
    policy: SchedulePolicy,
    workers: usize,
    cancel: Option<&CancelToken>,
    run: impl Fn(usize) + Sync,
) -> ExecStats {
    match policy {
        SchedulePolicy::Sequential => run_dag_sequential(shape.len(), cancel, run),
        SchedulePolicy::Fifo => run_dag_fifo(shape, workers, cancel, run),
        SchedulePolicy::Heft => run_dag_heft(shape, workers, cancel, run),
    }
}

/// Run every task on the calling thread in index (topological) order.
fn run_dag_sequential(n: usize, cancel: Option<&CancelToken>, run: impl Fn(usize)) -> ExecStats {
    let start = Instant::now();
    let mut executed = 0usize;
    for i in 0..n {
        if cancel.is_some_and(CancelToken::is_cancelled) {
            break;
        }
        run(i);
        executed += 1;
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

/// Execute every task on the calling thread in insertion (topological) order.
pub fn execute_sequential(graph: TaskGraph<'_>) -> ExecStats {
    with_graph_slots(graph, |shape, run| {
        run_dag_sequential(shape.len(), None, run)
    })
}

/// A task closure slot, emptied by whichever worker runs the task.
pub(crate) type TaskSlot<'a> = Mutex<Option<Box<dyn FnOnce() + Send + 'a>>>;

/// Take the closure out of `slots[i]` and run it, panicking if the scheduler
/// dispatched the same task twice. Shared by every slot-backed runner
/// (`with_graph_slots` here, `PhasePlan::run` in the plan layer).
pub(crate) fn take_and_run(slots: &[TaskSlot<'_>], i: usize) {
    let f = slots[i]
        .lock()
        .take()
        .expect("task executed twice or missing");
    f();
}

/// Move the task closures out of `graph` into lock-protected take-once slots
/// and hand the resulting (shape, run-callback) pair to `body`. This is the
/// bridge between the consuming [`TaskGraph`] API and the index-based
/// [`run_dag`] runners that re-runnable plans also use.
fn with_graph_slots(
    mut graph: TaskGraph<'_>,
    body: impl FnOnce(DagShape<'_>, &(dyn Fn(usize) + Sync)) -> ExecStats,
) -> ExecStats {
    graph.finalize();
    let indegrees = graph.indegrees();
    let total = graph.tasks.len();
    let mut slots: Vec<TaskSlot<'_>> = Vec::with_capacity(total);
    let mut successors: Vec<Vec<usize>> = Vec::with_capacity(total);
    let mut costs: Vec<f64> = Vec::with_capacity(total);
    for t in &mut graph.tasks {
        slots.push(Mutex::new(t.func.take()));
        successors.push(t.successors.iter().map(|s| s.0).collect());
        costs.push(t.cost.max(0.0));
    }
    let run = |i: usize| take_and_run(&slots, i);
    body(
        DagShape {
            indegrees: &indegrees,
            successors: &successors,
            costs: &costs,
        },
        &run,
    )
}

/// Dynamic scheduling state shared by the parallel DAG runners: remaining
/// dependency counts plus a completion counter for termination detection.
struct RunState<'s> {
    remaining: Vec<AtomicUsize>,
    shape: DagShape<'s>,
    completed: AtomicUsize,
    total: usize,
    cancel: Option<&'s CancelToken>,
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
        }
    }

    /// Run (or, when the cancellation token has fired, drain) task `idx`.
    /// Returns the task's wall time when the body ran, `None` when it was
    /// drained. Either way the task counts as completed for termination
    /// detection, and the caller must still release its successors.
    fn run_task(&self, idx: usize, run: &(impl Fn(usize) + Sync)) -> Option<f64> {
        let dt = if self.is_cancelled() {
            None
        } else {
            let t0 = Instant::now();
            run(idx);
            Some(t0.elapsed().as_secs_f64())
        };
        self.completed.fetch_add(1, Ordering::Release);
        dt
    }

    fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    fn done(&self) -> bool {
        self.completed.load(Ordering::Acquire) >= self.total
    }
}

/// Execute with one shared FIFO ready queue (no cost model, no affinity).
pub fn execute_fifo(graph: TaskGraph<'_>, workers: usize) -> ExecStats {
    with_graph_slots(graph, |shape, run| run_dag_fifo(shape, workers, None, run))
}

/// Run a DAG with one shared FIFO ready queue (no cost model, no affinity).
fn run_dag_fifo(
    shape: DagShape<'_>,
    workers: usize,
    cancel: Option<&CancelToken>,
    run: impl Fn(usize) + Sync,
) -> ExecStats {
    let workers = workers.max(1);
    let state = RunState::new(shape, cancel);
    if state.total == 0 {
        return ExecStats {
            workers,
            ..Default::default()
        };
    }
    let queue = Injector::<usize>::new();
    for (i, r) in state.remaining.iter().enumerate() {
        if r.load(Ordering::Relaxed) == 0 {
            queue.push(i);
        }
    }
    let start = Instant::now();
    let busy: Vec<Mutex<f64>> = (0..workers).map(|_| Mutex::new(0.0)).collect();
    let executed = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for w in 0..workers {
            let state = &state;
            let queue = &queue;
            let busy = &busy[w];
            let executed = &executed;
            let run = &run;
            scope.spawn(move || loop {
                if state.done() {
                    break;
                }
                match queue.steal() {
                    Steal::Success(idx) => {
                        if let Some(dt) = state.run_task(idx, run) {
                            *busy.lock() += dt;
                            executed.fetch_add(1, Ordering::Relaxed);
                        }
                        for &s in &state.shape.successors[idx] {
                            if state.remaining[s].fetch_sub(1, Ordering::AcqRel) == 1 {
                                queue.push(s);
                            }
                        }
                    }
                    Steal::Empty | Steal::Retry => {
                        std::thread::yield_now();
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
        steals: 0,
        workers,
        cancelled: tasks_executed < state.total,
    }
}

/// Execute with the GOFMM-style runtime: HEFT dispatch plus job stealing.
///
/// Every ready task is pushed to the queue of the worker whose estimated
/// finish time (sum of costs of tasks already queued there) is smallest. Idle
/// workers steal from the longest queue, which covers cost-model inaccuracy
/// exactly like the paper's job-stealing fallback.
pub fn execute_heft(graph: TaskGraph<'_>, workers: usize) -> ExecStats {
    with_graph_slots(graph, |shape, run| run_dag_heft(shape, workers, None, run))
}

/// Run a DAG with the GOFMM-style runtime: HEFT dispatch plus job stealing.
fn run_dag_heft(
    shape: DagShape<'_>,
    workers: usize,
    cancel: Option<&CancelToken>,
    run: impl Fn(usize) + Sync,
) -> ExecStats {
    let workers = workers.max(1);
    let state = RunState::new(shape, cancel);
    if state.total == 0 {
        return ExecStats {
            workers,
            ..Default::default()
        };
    }
    let queues: Vec<Injector<usize>> = (0..workers).map(|_| Injector::new()).collect();
    // Estimated finish time per worker, protected by a single small mutex:
    // dispatch is O(workers) and happens once per task, so contention is low.
    let eft = Mutex::new(vec![0.0f64; workers]);

    let dispatch = |idx: usize| {
        let mut eft = eft.lock();
        let (wmin, _) = eft
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .unwrap();
        // Clamp here (not only in with_graph_slots) so plans run directly via
        // run_dag see the same cost floor as the TaskGraph path.
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
                loop {
                    if state.done() {
                        break;
                    }
                    // Own queue first, then steal round-robin.
                    let mut task = None;
                    if let Steal::Success(idx) = queues[w].steal() {
                        task = Some(idx);
                    } else {
                        for off in 1..queues.len() {
                            let victim = (w + off) % queues.len();
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
    use crate::graph::TaskGraph;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    /// Build a diamond DAG that records execution order.
    fn diamond(order: Arc<parking_lot::Mutex<Vec<&'static str>>>) -> TaskGraph<'static> {
        let mut g = TaskGraph::new();
        let o = order.clone();
        let a = g.add_task("a", 1.0, &[], move || o.lock().push("a"));
        let o = order.clone();
        let b = g.add_task("b", 1.0, &[a], move || o.lock().push("b"));
        let o = order.clone();
        let c = g.add_task("c", 1.0, &[a], move || o.lock().push("c"));
        let o = order.clone();
        let _d = g.add_task("d", 1.0, &[b, c], move || o.lock().push("d"));
        g
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
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let stats = execute_sequential(diamond(order.clone()));
        check_diamond_order(&order.lock());
        assert_eq!(stats.tasks_executed, 4);
        assert_eq!(stats.workers, 1);
    }

    #[test]
    fn fifo_respects_dependencies() {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let stats = execute_fifo(diamond(order.clone()), 4);
        check_diamond_order(&order.lock());
        assert_eq!(stats.tasks_executed, 4);
    }

    #[test]
    fn heft_respects_dependencies() {
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let stats = execute_heft(diamond(order.clone()), 4);
        check_diamond_order(&order.lock());
        assert_eq!(stats.tasks_executed, 4);
        assert_eq!(stats.workers, 4);
    }

    #[test]
    fn all_policies_run_every_task_once() {
        for policy in [
            SchedulePolicy::Sequential,
            SchedulePolicy::Fifo,
            SchedulePolicy::Heft,
        ] {
            let counter = Arc::new(AtomicUsize::new(0));
            let mut g = TaskGraph::new();
            let mut prev_level: Vec<crate::graph::TaskId> = Vec::new();
            // Three levels of 20 tasks with full bipartite dependencies.
            for level in 0..3 {
                let mut this_level = Vec::new();
                for i in 0..20 {
                    let c = counter.clone();
                    let id = g.add_task(
                        format!("t{level}_{i}"),
                        1.0 + i as f64,
                        &prev_level,
                        move || {
                            c.fetch_add(1, Ordering::SeqCst);
                        },
                    );
                    this_level.push(id);
                }
                prev_level = this_level;
            }
            let stats = execute(g, policy, 6);
            assert_eq!(counter.load(Ordering::SeqCst), 60, "policy {policy}");
            assert_eq!(stats.tasks_executed, 60, "policy {policy}");
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        for policy in [
            SchedulePolicy::Sequential,
            SchedulePolicy::Fifo,
            SchedulePolicy::Heft,
        ] {
            let stats = execute(TaskGraph::new(), policy, 3);
            assert_eq!(stats.tasks_executed, 0);
        }
    }

    #[test]
    fn heft_balances_independent_tasks() {
        // 64 independent tasks of equal cost on 4 workers: every worker should
        // get some share of work (dispatch is round-robin-ish through EFT).
        let mut g = TaskGraph::new();
        for i in 0..64 {
            g.add_task(format!("t{i}"), 1.0, &[], move || {
                // Simulate real work so busy times are measurable; black_box
                // the loop variable so the sum cannot be constant-folded in
                // optimized test builds.
                let mut acc = 0u64;
                for k in 0..200_000u64 {
                    acc = acc.wrapping_add(std::hint::black_box(k).wrapping_mul(2654435761));
                }
                std::hint::black_box(acc);
            });
        }
        let stats = execute_heft(g, 4);
        assert_eq!(stats.tasks_executed, 64);
        let active_workers = stats.worker_busy.iter().filter(|&&b| b > 0.0).count();
        assert!(active_workers >= 2, "only {active_workers} workers active");
        assert!(stats.efficiency() > 0.0);
    }

    #[test]
    fn stats_efficiency_bounds() {
        let mut g = TaskGraph::new();
        for i in 0..8 {
            g.add_task(format!("t{i}"), 1.0, &[], || {
                std::thread::sleep(std::time::Duration::from_millis(2));
            });
        }
        let stats = execute_heft(g, 4);
        assert!(
            stats.efficiency() <= 1.05,
            "efficiency {}",
            stats.efficiency()
        );
        assert!(stats.elapsed > 0.0);
    }

    #[test]
    fn policy_display_names() {
        assert_eq!(SchedulePolicy::Heft.to_string(), "heft");
        assert_eq!(SchedulePolicy::Fifo.to_string(), "fifo");
        assert_eq!(SchedulePolicy::Sequential.to_string(), "sequential");
    }
}
