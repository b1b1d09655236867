//! Batched serving front door: an admission queue in front of a shared
//! [`GofmmOperator`].
//!
//! A compressed operator is compressed once and then queried many times,
//! often by many concurrent clients, each with a *narrow* right-hand side
//! (one to a handful of columns). Running those requests one at a time
//! wastes the block structure of the sweeps: on the 8192-point 3-D Gaussian
//! operator of the benchmark (`lowrank3d-n8k`, one thread, 2-vCPU AVX2 VM,
//! best of 15) one apply over an `n x 8` block takes 3.1-3.2 ms against
//! 1.1 ms for each of eight applies over `n x 1` vectors, and an `n x 32`
//! block 12.3-12.6 ms against 32 x 1.1 ms. And — because every block kernel
//! in the engine is column-invariant — it produces the *same bits* for each
//! column either way.
//!
//! [`BatchedServer`] exploits that. Clients submit requests and get back a
//! [`Ticket`]; a background worker coalesces compatible queued requests
//! (same operation, and for CG the same convergence settings) into one wide
//! column-stacked call on the shared operator, then scatters the result
//! columns back to the tickets. Coalescing is bounded by
//! [`ServeConfig::max_batch_cols`] and a small [`ServeConfig::holdoff`]
//! window that lets a burst of concurrent submissions pile into one batch.
//!
//! Three serving concerns ride along:
//!
//! - **Deadlines.** A request may carry a time budget. If it expires while
//!   the request is still queued, the request is rejected with
//!   [`Error::DeadlineExceeded`] *before* it consumes a batch slot — an
//!   expired request never does work.
//! - **Cancellation.** [`Ticket::cancel`] fires the request's cooperative
//!   [`CancelToken`]. A queued request is dropped at the next batch
//!   formation; an in-flight request abandons its result, and if *every*
//!   request in a flight cancels, the flight's own token fires and the
//!   engine drains its sweep mid-run (leaving all pooled workspaces
//!   reusable — the next request on the same operator is bit-identical to
//!   one served by a fresh operator).
//! - **Back-pressure.** When the queue is at [`ServeConfig::queue_capacity`]
//!   the submission is refused with [`Error::Overloaded`] rather than
//!   queued into unbounded memory.
//!
//! Dropping the server performs a graceful drain: queued work is still
//! executed (without holdoff) and every outstanding ticket resolves; the
//! drop never deadlocks.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gofmm_core::{ApplyOptions, CancelToken, Error};
use gofmm_linalg::{DenseMatrix, Scalar};
use gofmm_telemetry::{
    Counter, Gauge, Histogram, LatencySummary, MetricsRegistry, ProgressHandle, ProgressReport,
};

use crate::krylov::{check_finite_rhs, KrylovOptions};
use crate::operator::GofmmOperator;

/// Number of buckets in the batch-width histogram:
/// [`BATCH_WIDTH_BUCKET_BOUNDS`] inclusive upper bounds plus one overflow
/// bucket.
pub const BATCH_WIDTH_BUCKETS: usize = 6;

/// Inclusive upper bounds (in coalesced columns) of the first
/// `BATCH_WIDTH_BUCKETS - 1` batch-width buckets. The bounds double, so
/// each bucket spans twice the widths of the one before it: a batch of width
/// `w` lands in the first bucket whose bound is `>= w`, and anything past
/// the last bound lands in the overflow bucket. The same bounds seed the
/// `gofmm_server_batch_width_cols` histogram when a [`MetricsRegistry`] is
/// configured.
pub const BATCH_WIDTH_BUCKET_BOUNDS: [usize; BATCH_WIDTH_BUCKETS - 1] = [1, 2, 4, 8, 16];

/// Human-readable labels of the batch-width buckets, aligned with
/// [`ServerStats::batch_width_hist`].
pub const BATCH_WIDTH_BUCKET_LABELS: [&str; BATCH_WIDTH_BUCKETS] =
    ["1", "2", "3-4", "5-8", "9-16", "17+"];

/// Configuration of a [`BatchedServer`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Coalescing stops once a batch holds this many columns (default 32).
    /// A single oversized request still runs — alone in its own batch.
    /// Batches wider than [`gofmm_linalg::blas::STREAM_MAX_COLS`] (32) take
    /// the GEMM's register-tile path rather than its stream path (on
    /// `lowrank3d-n8k`, one sequential apply, 2-vCPU AVX2 VM: 0.31-0.40 ms
    /// per column at 64 columns against 0.39-0.44 at 32 and 0.46-0.50 at
    /// 4, two runs).
    pub max_batch_cols: usize,
    /// How long the worker holds a freshly seeded batch open for more
    /// requests to join before executing it (default 200 µs). Larger values
    /// trade first-request latency for wider batches.
    pub holdoff: Duration,
    /// Admission refuses (`Error::Overloaded`) once this many requests are
    /// queued (default 1024).
    pub queue_capacity: usize,
    /// Scheduling options for the coalesced apply/solve sweeps. The `cancel`
    /// field is ignored — the server installs its own per-flight token. The
    /// `trace` sink, when set, records every flight: apply/solve sweeps and
    /// CG iterations, where it takes the place of a request's own
    /// [`KrylovOptions::trace`]. Tracing never changes results: outputs are
    /// bit-identical with or without a sink. (CG batches take only that sink
    /// from here; they drive the evaluator and factor through their
    /// configured defaults, and results are policy-invariant either way.)
    pub options: ApplyOptions,
    /// Metrics registry the server publishes into (default none: a private
    /// one). At server construction the admission counters, the
    /// `gofmm_server_queue_depth` gauge and the batch-width and latency
    /// histograms are registered; [`BatchedServer::stats`] reads the same
    /// handles back as a [`ServerStats`] snapshot. Servers given one
    /// registry share its counters, so each one's snapshot reports their
    /// sum.
    pub metrics: Option<MetricsRegistry>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch_cols: 32,
            holdoff: Duration::from_micros(200),
            queue_capacity: 1024,
            options: ApplyOptions::default(),
            metrics: None,
        }
    }
}

impl ServeConfig {
    /// Set [`ServeConfig::max_batch_cols`] (clamped to at least 1).
    pub fn with_max_batch_cols(mut self, cols: usize) -> Self {
        self.max_batch_cols = cols.max(1);
        self
    }

    /// Set [`ServeConfig::holdoff`].
    pub fn with_holdoff(mut self, holdoff: Duration) -> Self {
        self.holdoff = holdoff;
        self
    }

    /// Set [`ServeConfig::queue_capacity`] (clamped to at least 1).
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// Set the scheduling [`ServeConfig::options`] for batch execution.
    pub fn with_options(mut self, options: ApplyOptions) -> Self {
        self.options = options;
        self
    }

    /// Install a [`MetricsRegistry`] the server publishes its admission,
    /// queue-depth and batch-width metrics into.
    pub fn with_metrics(mut self, metrics: MetricsRegistry) -> Self {
        self.metrics = Some(metrics);
        self
    }
}

/// Which operator entry point a request targets.
#[derive(Clone, Debug)]
enum RequestKind {
    /// Matvec `u = K w`.
    Apply,
    /// Hierarchical direct solve `(K + lambda I) x = b`.
    Solve,
    /// Preconditioned CG solve with these convergence settings.
    SolveCg(KrylovOptions),
}

impl RequestKind {
    /// Whether two requests may share one coalesced call. CG requests must
    /// agree on every setting that steers the iteration (the per-request
    /// `cancel` field is request identity, not iteration behavior, and is
    /// replaced by the flight token anyway).
    fn compatible(&self, other: &RequestKind) -> bool {
        match (self, other) {
            (RequestKind::Apply, RequestKind::Apply) => true,
            (RequestKind::Solve, RequestKind::Solve) => true,
            (RequestKind::SolveCg(a), RequestKind::SolveCg(b)) => {
                a.tol.to_bits() == b.tol.to_bits() && a.max_iters == b.max_iters
            }
            _ => false,
        }
    }
}

/// Cancellation plumbing shared between a [`Ticket`] and the worker.
///
/// `flight` is `Some` exactly while the request's batch is executing; the
/// lock serializes [`Ticket::cancel`] against flight registration so each
/// cancelled request decrements the flight's live count exactly once (the
/// count reaching zero fires the flight token and drains the engine).
#[derive(Debug)]
struct RequestShared {
    token: CancelToken,
    cancelled: AtomicBool,
    flight: Mutex<Option<FlightHandle>>,
    progress: ProgressCell,
}

/// Lock-free mailbox the worker's progress listener writes into and
/// [`Ticket::progress`] reads from. `reported` flips once the first
/// iteration lands (Release), after which the payload fields are coherent
/// enough for monitoring: each is updated atomically per iteration, and a
/// torn read across fields only mixes two adjacent iterations.
#[derive(Debug, Default)]
struct ProgressCell {
    reported: AtomicBool,
    iterations: AtomicUsize,
    residual_bits: AtomicU64,
    frozen: AtomicUsize,
    total: AtomicUsize,
    levels_done: AtomicUsize,
    levels_total: AtomicUsize,
}

#[derive(Debug)]
struct FlightHandle {
    remaining: Arc<AtomicUsize>,
    token: CancelToken,
}

impl RequestShared {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            token: CancelToken::new(),
            cancelled: AtomicBool::new(false),
            flight: Mutex::new(None),
            progress: ProgressCell::default(),
        })
    }

    fn cancel(&self) {
        if self.cancelled.swap(true, Ordering::SeqCst) {
            return;
        }
        self.token.cancel();
        let guard = self.flight.lock().expect("flight lock");
        if let Some(fh) = guard.as_ref() {
            if fh.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                fh.token.cancel();
            }
        }
    }

    /// Attach this request to an executing flight. If the request cancelled
    /// before the flight existed, its `cancel` found nothing to decrement —
    /// settle the debt here instead of registering.
    fn enter_flight(&self, remaining: &Arc<AtomicUsize>, token: &CancelToken) {
        let mut guard = self.flight.lock().expect("flight lock");
        if self.cancelled.load(Ordering::SeqCst) {
            if remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                token.cancel();
            }
        } else {
            *guard = Some(FlightHandle {
                remaining: Arc::clone(remaining),
                token: token.clone(),
            });
        }
    }

    fn leave_flight(&self) {
        *self.flight.lock().expect("flight lock") = None;
    }
}

/// One request waiting in the admission queue.
struct QueuedRequest<T: Scalar> {
    kind: RequestKind,
    rhs: DenseMatrix<T>,
    deadline: Option<Instant>,
    enqueued: Instant,
    shared: Arc<RequestShared>,
    reply: mpsc::Sender<Result<DenseMatrix<T>, Error>>,
}

/// A submitted request's handle: await the result, or cancel the work.
#[must_use = "a ticket resolves to the request's result; drop it only to abandon the request"]
#[derive(Debug)]
pub struct Ticket<T: Scalar> {
    rx: mpsc::Receiver<Result<DenseMatrix<T>, Error>>,
    shared: Arc<RequestShared>,
}

impl<T: Scalar> Ticket<T> {
    /// Block until the request resolves.
    ///
    /// # Errors
    /// Whatever the request resolved to: [`Error::DeadlineExceeded`] if its
    /// deadline expired while queued, [`Error::Cancelled`] if it was
    /// cancelled, or any error the underlying operator call produced.
    pub fn wait(self) -> Result<DenseMatrix<T>, Error> {
        self.rx.recv().unwrap_or(Err(Error::Cancelled))
    }

    /// Cooperatively cancel the request. A queued request is discarded at
    /// the next batch formation; an in-flight request abandons its result
    /// (and if every request in the flight cancels, the engine drains the
    /// sweep itself). The ticket then resolves to [`Error::Cancelled`].
    /// Idempotent.
    pub fn cancel(&self) {
        self.shared.cancel();
    }

    /// Live progress of this request's flight, while it is in flight or
    /// after it finished. `None` until the flight first reports: the first
    /// CG iteration for iterative solves, or the first completed sweep
    /// stage for plain apply / direct-solve flights (which track
    /// `levels_completed`/`levels_total` instead of iterations). Reads a
    /// lock-free cell the worker publishes into — safe to poll from any
    /// thread at any rate without slowing the flight down.
    pub fn progress(&self) -> Option<FlightProgress> {
        let p = &self.shared.progress;
        if !p.reported.load(Ordering::Acquire) {
            return None;
        }
        Some(FlightProgress {
            iterations: p.iterations.load(Ordering::Relaxed),
            max_residual: f64::from_bits(p.residual_bits.load(Ordering::Relaxed)),
            columns_frozen: p.frozen.load(Ordering::Relaxed),
            columns_total: p.total.load(Ordering::Relaxed),
            levels_completed: p.levels_done.load(Ordering::Relaxed),
            levels_total: p.levels_total.load(Ordering::Relaxed),
        })
    }
}

/// Snapshot of an in-flight request's progress, from [`Ticket::progress`].
/// Column numbers are scoped to the *request's own columns*, not the whole
/// coalesced batch it rides in. Iterative (CG) flights fill the iteration /
/// residual / column fields and leave the level fields at 0; plain apply
/// and direct-solve flights fill the level fields (one unit per completed
/// sweep stage — task family × tree level) and leave the rest at 0.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FlightProgress {
    /// CG iterations completed so far (0 for non-iterative flights).
    pub iterations: usize,
    /// Current largest relative residual over this request's columns.
    pub max_residual: f64,
    /// How many of this request's columns have converged and frozen (their
    /// iterates no longer update).
    pub columns_frozen: usize,
    /// Total columns in this request's right-hand side (0 for
    /// non-iterative flights).
    pub columns_total: usize,
    /// Sweep stages completed so far by a plain apply / direct-solve
    /// flight (0 for CG flights).
    pub levels_completed: usize,
    /// Total sweep stages in the flight (0 for CG flights).
    pub levels_total: usize,
}

/// Snapshot of a [`BatchedServer`]'s telemetry counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServerStats {
    /// Requests waiting in the admission queue right now.
    pub queue_depth: usize,
    /// Requests accepted into the queue since the server started.
    pub admitted: usize,
    /// Requests that resolved with a result.
    pub completed: usize,
    /// Requests rejected because their deadline expired (at admission or
    /// while queued) — none of them consumed a batch slot.
    pub deadline_rejected: usize,
    /// Submissions refused with [`Error::Overloaded`].
    pub overload_rejected: usize,
    /// Requests that resolved as cancelled.
    pub cancelled: usize,
    /// Coalesced operator calls executed.
    pub batches: usize,
    /// Total columns across all executed batches
    /// (`coalesced_columns / batches` is the mean batch width).
    pub coalesced_columns: usize,
    /// Histogram of executed batch widths in columns; buckets cover
    /// 1, 2, 3–4, 5–8, 9–16 and 17+.
    pub batch_width_hist: [usize; BATCH_WIDTH_BUCKETS],
    /// Mean admission-to-completion latency over completed requests, in
    /// microseconds.
    pub mean_latency_us: f64,
    /// Worst admission-to-completion latency, in microseconds.
    pub max_latency_us: u64,
}

impl ServerStats {
    /// The admission-to-completion latency figures as a
    /// [`LatencySummary`] (microsecond units, like the raw fields).
    pub fn latency(&self) -> LatencySummary {
        LatencySummary {
            mean_us: self.mean_latency_us,
            max_us: self.max_latency_us,
            count: self.completed as u64,
        }
    }
}

/// The server's counters: handles into the configured [`MetricsRegistry`]
/// (or a private one), registered once at server construction, plus the
/// worst latency, which a histogram does not keep. [`BatchedServer::stats`]
/// reads them back. Latency is published in microseconds, batch widths in
/// coalesced columns (histogram bounds = the named
/// [`BATCH_WIDTH_BUCKET_BOUNDS`]).
struct ServerMetrics {
    admitted: Counter,
    completed: Counter,
    deadline_rejected: Counter,
    overload_rejected: Counter,
    cancelled: Counter,
    batches: Counter,
    queue_depth: Gauge,
    batch_width: Histogram,
    latency_us: Histogram,
    latency_max_us: AtomicU64,
}

/// Bucket bounds (µs) of `gofmm_server_latency_us`: decades from 100 µs to
/// 1 s, bracketing both in-memory hits and heavyweight coalesced solves.
const LATENCY_BUCKET_BOUNDS_US: [f64; 5] = [100.0, 1_000.0, 10_000.0, 100_000.0, 1_000_000.0];

impl ServerMetrics {
    fn register(registry: &MetricsRegistry) -> Self {
        let width_bounds: Vec<f64> = BATCH_WIDTH_BUCKET_BOUNDS
            .iter()
            .map(|&b| b as f64)
            .collect();
        Self {
            admitted: registry.counter(
                "gofmm_server_admitted_total",
                "Requests accepted into the admission queue",
            ),
            completed: registry.counter(
                "gofmm_server_completed_total",
                "Requests that resolved with a result",
            ),
            deadline_rejected: registry.counter(
                "gofmm_server_deadline_rejected_total",
                "Requests rejected because their deadline expired before execution",
            ),
            overload_rejected: registry.counter(
                "gofmm_server_overload_rejected_total",
                "Submissions refused because the admission queue was full",
            ),
            cancelled: registry.counter(
                "gofmm_server_cancelled_total",
                "Requests that resolved as cancelled",
            ),
            batches: registry.counter(
                "gofmm_server_batches_total",
                "Coalesced operator calls executed",
            ),
            queue_depth: registry.gauge(
                "gofmm_server_queue_depth",
                "Requests waiting in the admission queue right now",
            ),
            batch_width: registry.histogram(
                "gofmm_server_batch_width_cols",
                "Executed batch widths in coalesced columns",
                &width_bounds,
            ),
            latency_us: registry.histogram(
                "gofmm_server_latency_us",
                "Admission-to-completion latency of completed requests in microseconds",
                &LATENCY_BUCKET_BOUNDS_US,
            ),
            latency_max_us: AtomicU64::new(0),
        }
    }

    fn on_admitted(&self, queue_depth: usize) {
        self.admitted.inc();
        self.queue_depth.set(queue_depth as f64);
    }

    fn on_completed(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.completed.inc();
        self.latency_us.observe(us as f64);
        self.latency_max_us.fetch_max(us, Ordering::Relaxed);
    }

    fn on_batch(&self, total_cols: usize) {
        self.batches.inc();
        self.batch_width.observe(total_cols as f64);
    }
}

struct Shared<T: Scalar> {
    op: Arc<GofmmOperator<T>>,
    cfg: ServeConfig,
    queue: Mutex<VecDeque<QueuedRequest<T>>>,
    available: Condvar,
    shutdown: AtomicBool,
    stats: ServerMetrics,
}

/// An admission queue plus coalescing worker in front of a shared
/// [`GofmmOperator`]; see the [module docs](crate::serve) for the serving
/// model.
///
/// The server owns a background worker thread. It is deliberately *not*
/// `Clone`: dropping the single handle is the signal to drain the queue and
/// stop the worker (outstanding [`Ticket`]s still resolve).
pub struct BatchedServer<T: Scalar> {
    shared: Arc<Shared<T>>,
    worker: Option<JoinHandle<()>>,
}

impl<T: Scalar> BatchedServer<T> {
    /// Start a server over `op` with `cfg`.
    pub fn new(op: Arc<GofmmOperator<T>>, cfg: ServeConfig) -> Self {
        let cfg = ServeConfig {
            max_batch_cols: cfg.max_batch_cols.max(1),
            queue_capacity: cfg.queue_capacity.max(1),
            ..cfg
        };
        let stats = ServerMetrics::register(&cfg.metrics.clone().unwrap_or_default());
        let shared = Arc::new(Shared {
            op,
            cfg,
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stats,
        });
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("gofmm-serve".into())
            .spawn(move || worker_loop(&worker_shared))
            .expect("spawn serving worker");
        Self {
            shared,
            worker: Some(worker),
        }
    }

    /// The operator being served.
    pub fn operator(&self) -> &GofmmOperator<T> {
        &self.shared.op
    }

    /// Submit a matvec `u = K w`. `deadline` is a time budget from now; see
    /// [`BatchedServer::submit_solve`] for the admission rules.
    ///
    /// # Errors
    /// [`Error::EmptyInput`] / [`Error::DimensionMismatch`] for a malformed
    /// right-hand side, [`Error::DeadlineExceeded`] for an already-expired
    /// deadline, [`Error::Overloaded`] when the queue is full.
    pub fn submit_apply(
        &self,
        w: &DenseMatrix<T>,
        deadline: Option<Duration>,
    ) -> Result<Ticket<T>, Error> {
        self.submit(RequestKind::Apply, w, deadline)
    }

    /// Submit a hierarchical direct solve `(K + lambda I) x = b`.
    ///
    /// The right-hand side is validated at admission (empty input, row
    /// count, missing factorization) so a malformed request fails
    /// immediately instead of occupying queue space. A `deadline` of zero —
    /// or one that expires while the request is still queued — rejects the
    /// request with [`Error::DeadlineExceeded`] without it ever consuming a
    /// batch slot.
    ///
    /// # Errors
    /// [`Error::NoFactorization`] when the operator has no factorization;
    /// otherwise as [`BatchedServer::submit_apply`].
    pub fn submit_solve(
        &self,
        b: &DenseMatrix<T>,
        deadline: Option<Duration>,
    ) -> Result<Ticket<T>, Error> {
        if self.shared.op.lambda().is_none() {
            return Err(Error::NoFactorization);
        }
        self.submit(RequestKind::Solve, b, deadline)
    }

    /// Submit a preconditioned CG solve. Requests coalesce only with other
    /// CG requests whose `tol` and `max_iters` agree exactly;
    /// `opts.cancel` is ignored (use [`Ticket::cancel`]). Per-column
    /// iteration freezing in the CG driver makes the coalesced solution of
    /// each column bit-identical to a solo solve. A right-hand side with a
    /// NaN or infinite entry is refused here, so it can never fail (or
    /// silently converge at zero) inside a coalesced batch.
    ///
    /// # Errors
    /// [`Error::NonFiniteInput`] for a non-finite right-hand side; otherwise
    /// as [`BatchedServer::submit_solve`].
    pub fn submit_solve_cg(
        &self,
        b: &DenseMatrix<T>,
        opts: &KrylovOptions,
        deadline: Option<Duration>,
    ) -> Result<Ticket<T>, Error> {
        if self.shared.op.lambda().is_none() {
            return Err(Error::NoFactorization);
        }
        check_finite_rhs(b)?;
        self.submit(RequestKind::SolveCg(opts.clone()), b, deadline)
    }

    /// Snapshot the server's telemetry counters: the queue as it stands,
    /// the rest read back from the server's metric handles.
    pub fn stats(&self) -> ServerStats {
        let s = &self.shared.stats;
        let completed = s.latency_us.count();
        let mut hist = [0usize; BATCH_WIDTH_BUCKETS];
        for (dst, src) in hist.iter_mut().zip(s.batch_width.bucket_counts()) {
            *dst = src as usize;
        }
        ServerStats {
            queue_depth: self.shared.queue.lock().expect("queue lock").len(),
            admitted: s.admitted.get() as usize,
            completed: s.completed.get() as usize,
            deadline_rejected: s.deadline_rejected.get() as usize,
            overload_rejected: s.overload_rejected.get() as usize,
            cancelled: s.cancelled.get() as usize,
            batches: s.batches.get() as usize,
            coalesced_columns: s.batch_width.sum() as usize,
            batch_width_hist: hist,
            mean_latency_us: if completed > 0 {
                s.latency_us.sum() / completed as f64
            } else {
                0.0
            },
            max_latency_us: s.latency_max_us.load(Ordering::Relaxed),
        }
    }

    fn submit(
        &self,
        kind: RequestKind,
        rhs: &DenseMatrix<T>,
        deadline: Option<Duration>,
    ) -> Result<Ticket<T>, Error> {
        if rhs.cols() == 0 {
            return Err(Error::EmptyInput {
                what: "right-hand side",
            });
        }
        if rhs.rows() != self.shared.op.n() {
            return Err(Error::DimensionMismatch {
                what: "right-hand-side rows",
                expected: self.shared.op.n(),
                got: rhs.rows(),
            });
        }
        let now = Instant::now();
        if let Some(budget) = deadline {
            if budget.is_zero() {
                self.shared.stats.deadline_rejected.inc();
                return Err(Error::DeadlineExceeded);
            }
        }
        let (tx, rx) = mpsc::channel();
        let shared_req = RequestShared::new();
        let request = QueuedRequest {
            kind,
            rhs: rhs.clone(),
            deadline: deadline.map(|budget| now + budget),
            enqueued: now,
            shared: Arc::clone(&shared_req),
            reply: tx,
        };
        let depth = {
            let mut queue = self.shared.queue.lock().expect("queue lock");
            if queue.len() >= self.shared.cfg.queue_capacity {
                self.shared.stats.overload_rejected.inc();
                return Err(Error::Overloaded {
                    queue_depth: queue.len(),
                    capacity: self.shared.cfg.queue_capacity,
                });
            }
            queue.push_back(request);
            queue.len()
        };
        self.shared.stats.on_admitted(depth);
        self.shared.available.notify_all();
        Ok(Ticket {
            rx,
            shared: shared_req,
        })
    }
}

impl<T: Scalar> Drop for BatchedServer<T> {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.available.notify_all();
        if let Some(worker) = self.worker.take() {
            // The worker drains the queue (skipping holdoff) before exiting,
            // so every outstanding ticket resolves and the join terminates.
            let _ = worker.join();
        }
    }
}

/// Reject `req` as expired without it ever consuming a batch slot.
fn reject_expired<T: Scalar>(stats: &ServerMetrics, req: &QueuedRequest<T>) {
    stats.deadline_rejected.inc();
    let _ = req.reply.send(Err(Error::DeadlineExceeded));
}

fn reject_cancelled<T: Scalar>(stats: &ServerMetrics, req: &QueuedRequest<T>) {
    stats.cancelled.inc();
    let _ = req.reply.send(Err(Error::Cancelled));
}

/// Drop expired and cancelled requests anywhere in the queue, resolving
/// their tickets.
fn purge_queue<T: Scalar>(
    queue: &mut VecDeque<QueuedRequest<T>>,
    stats: &ServerMetrics,
    now: Instant,
) {
    queue.retain(|req| {
        if req.shared.cancelled.load(Ordering::SeqCst) {
            reject_cancelled(stats, req);
            false
        } else if req.deadline.is_some_and(|d| d <= now) {
            reject_expired(stats, req);
            false
        } else {
            true
        }
    });
}

/// Columns that could join a batch seeded by the queue's front request.
fn compatible_cols<T: Scalar>(queue: &VecDeque<QueuedRequest<T>>) -> usize {
    let Some(seed) = queue.front() else { return 0 };
    queue
        .iter()
        .filter(|r| seed.kind.compatible(&r.kind))
        .map(|r| r.rhs.cols())
        .sum()
}

/// Extract the front request plus every compatible request behind it, in
/// FIFO order, until the batch holds `max_cols` columns. Incompatible
/// requests stay queued (and keep their order).
fn form_batch<T: Scalar>(
    queue: &mut VecDeque<QueuedRequest<T>>,
    max_cols: usize,
) -> Vec<QueuedRequest<T>> {
    let mut batch: Vec<QueuedRequest<T>> = Vec::new();
    let mut cols = 0usize;
    let mut rest: VecDeque<QueuedRequest<T>> = VecDeque::new();
    while let Some(req) = queue.pop_front() {
        let join = match batch.first() {
            None => true,
            Some(seed) => cols < max_cols && seed.kind.compatible(&req.kind),
        };
        if join {
            cols += req.rhs.cols();
            batch.push(req);
        } else {
            rest.push_back(req);
        }
    }
    *queue = rest;
    batch
}

fn worker_loop<T: Scalar>(shared: &Shared<T>) {
    loop {
        let batch = {
            let mut queue = shared.queue.lock().expect("queue lock");
            // Wait for work (or shutdown with an empty queue).
            loop {
                purge_queue(&mut queue, &shared.stats, Instant::now());
                if !queue.is_empty() {
                    break;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                // Bounded wait so a queued deadline can expire promptly even
                // with no new submissions arriving to wake the worker.
                let (guard, _) = shared
                    .available
                    .wait_timeout(queue, Duration::from_millis(1))
                    .expect("queue lock");
                queue = guard;
            }
            // Hold the seeded batch open briefly for more requests to join —
            // unless shutting down (drain fast) or already full.
            let holdoff_until = queue.front().expect("seed").enqueued + shared.cfg.holdoff;
            while !shared.shutdown.load(Ordering::SeqCst)
                && compatible_cols(&queue) < shared.cfg.max_batch_cols
            {
                let remaining = holdoff_until.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                let (guard, _) = shared
                    .available
                    .wait_timeout(queue, remaining)
                    .expect("queue lock");
                queue = guard;
                purge_queue(&mut queue, &shared.stats, Instant::now());
                if queue.is_empty() {
                    break;
                }
            }
            if queue.is_empty() {
                continue;
            }
            let batch = form_batch(&mut queue, shared.cfg.max_batch_cols);
            shared.stats.queue_depth.set(queue.len() as f64);
            batch
        };
        if batch.is_empty() {
            continue;
        }
        execute_batch(shared, batch);
    }
}

/// Build the progress listener for a coalesced CG flight: each batch-wide
/// `KrylovIteration` report is folded down to every member request's own
/// column range `[off, off + cols)` and published into its lock-free
/// [`ProgressCell`], which [`Ticket::progress`] reads mid-flight.
fn flight_progress_listener<T: Scalar>(
    batch: &[QueuedRequest<T>],
    offsets: &[usize],
) -> ProgressHandle {
    let spans: Vec<(Arc<RequestShared>, usize, usize)> = batch
        .iter()
        .zip(offsets)
        .map(|(req, &off)| (Arc::clone(&req.shared), off, req.rhs.cols()))
        .collect();
    for (shared_req, _, cols) in &spans {
        shared_req.progress.total.store(*cols, Ordering::Relaxed);
    }
    ProgressHandle::new(move |report: &ProgressReport<'_>| {
        let ProgressReport::KrylovIteration {
            iteration,
            column_residuals,
            column_active,
            ..
        } = *report
        else {
            return;
        };
        for (shared_req, off, cols) in &spans {
            let (lo, hi) = (*off, *off + *cols);
            let frozen = column_active[lo..hi].iter().filter(|a| !**a).count();
            let max_res = column_residuals[lo..hi]
                .iter()
                .copied()
                .fold(0.0_f64, f64::max);
            let p = &shared_req.progress;
            p.iterations.store(iteration, Ordering::Relaxed);
            p.residual_bits.store(max_res.to_bits(), Ordering::Relaxed);
            p.frozen.store(frozen, Ordering::Relaxed);
            p.reported.store(true, Ordering::Release);
        }
    })
}

/// Build the progress listener for a plain apply / direct-solve flight:
/// every `SweepLevel` report (one per completed task-family × tree-level
/// stage) is published to every member request's [`ProgressCell`], since a
/// sweep advances for the whole coalesced batch at once.
fn sweep_progress_listener<T: Scalar>(batch: &[QueuedRequest<T>]) -> ProgressHandle {
    let cells: Vec<Arc<RequestShared>> = batch.iter().map(|r| Arc::clone(&r.shared)).collect();
    ProgressHandle::new(move |report: &ProgressReport<'_>| {
        let ProgressReport::SweepLevel {
            completed, total, ..
        } = *report
        else {
            return;
        };
        for shared_req in &cells {
            let p = &shared_req.progress;
            p.levels_done.store(completed, Ordering::Relaxed);
            p.levels_total.store(total, Ordering::Relaxed);
            p.reported.store(true, Ordering::Release);
        }
    })
}

fn execute_batch<T: Scalar>(shared: &Shared<T>, batch: Vec<QueuedRequest<T>>) {
    let n = shared.op.n();
    let total_cols: usize = batch.iter().map(|r| r.rhs.cols()).sum();
    let mut wide = DenseMatrix::<T>::zeros(n, total_cols);
    let mut offset = 0usize;
    let mut offsets = Vec::with_capacity(batch.len());
    for req in &batch {
        wide.set_block(0, offset, &req.rhs);
        offsets.push(offset);
        offset += req.rhs.cols();
    }

    // One flight token shared by the whole batch: it fires only when every
    // request in the flight has cancelled, at which point the engine drains
    // the sweep instead of finishing work nobody wants.
    let flight_token = CancelToken::new();
    let remaining = Arc::new(AtomicUsize::new(batch.len()));
    for req in &batch {
        req.shared.enter_flight(&remaining, &flight_token);
    }

    let result = match &batch[0].kind {
        RequestKind::Apply => {
            let mut opts = shared.cfg.options.clone().with_cancel(flight_token.clone());
            opts.progress = Some(sweep_progress_listener(&batch));
            shared.op.apply_with(&wide, &opts).map(|(u, _)| u)
        }
        RequestKind::Solve => {
            let mut opts = shared.cfg.options.clone().with_cancel(flight_token.clone());
            opts.progress = Some(sweep_progress_listener(&batch));
            shared.op.solve_with(&wide, &opts)
        }
        RequestKind::SolveCg(krylov) => {
            let opts = KrylovOptions {
                cancel: Some(flight_token.clone()),
                trace: shared
                    .cfg
                    .options
                    .trace
                    .clone()
                    .or_else(|| krylov.trace.clone()),
                progress: Some(flight_progress_listener(&batch, &offsets)),
                ..krylov.clone()
            };
            shared.op.solve_cg(&wide, &opts).map(|(x, _)| x)
        }
    };

    for req in &batch {
        req.shared.leave_flight();
    }

    shared.stats.on_batch(total_cols);

    match result {
        Ok(out) => {
            for (req, &off) in batch.iter().zip(&offsets) {
                if req.shared.cancelled.load(Ordering::SeqCst) {
                    reject_cancelled(&shared.stats, req);
                } else {
                    let cols = req.rhs.cols();
                    let slice = out.block(0, n, off, off + cols);
                    shared.stats.on_completed(req.enqueued.elapsed());
                    let _ = req.reply.send(Ok(slice));
                }
            }
        }
        Err(err) => {
            for req in &batch {
                if matches!(err, Error::Cancelled) || req.shared.cancelled.load(Ordering::SeqCst) {
                    reject_cancelled(&shared.stats, req);
                } else {
                    let _ = req.reply.send(Err(err.clone()));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gofmm_core::GofmmConfig;
    use gofmm_matrices::{KernelMatrix, KernelType, PointCloud};

    fn test_operator(n: usize, factorize: bool) -> Arc<GofmmOperator<f64>> {
        let points = PointCloud::uniform(n, 3, 17);
        let kernel = KernelMatrix::new(
            points,
            KernelType::Gaussian { bandwidth: 1.0 },
            1e-6,
            "serve-test",
        );
        let config = GofmmConfig::default()
            .with_leaf_size(32)
            .with_max_rank(32)
            .with_tolerance(1e-7)
            .with_budget(0.0);
        let builder = GofmmOperator::builder(&kernel).config(config);
        let builder = if factorize {
            builder.factorize(1e-2)
        } else {
            builder
        };
        Arc::new(builder.build().expect("build operator"))
    }

    fn rhs(n: usize, cols: usize, seed: usize) -> DenseMatrix<f64> {
        DenseMatrix::from_fn(n, cols, |i, j| {
            (((i * 31 + j * 7 + seed * 13) % 23) as f64 - 11.0) / 7.0
        })
    }

    #[test]
    fn coalesced_apply_matches_direct_calls() {
        let op = test_operator(256, false);
        // A long holdoff forces every concurrent request into one batch.
        let cfg = ServeConfig::default().with_holdoff(Duration::from_millis(50));
        let server = BatchedServer::new(Arc::clone(&op), cfg);
        let inputs: Vec<_> = (0..6).map(|s| rhs(256, 1 + s % 3, s)).collect();
        let tickets: Vec<_> = inputs
            .iter()
            .map(|w| server.submit_apply(w, None).expect("admit"))
            .collect();
        for (w, ticket) in inputs.iter().zip(tickets) {
            let got = ticket.wait().expect("result");
            let want = op.apply(w).expect("direct");
            assert_eq!(
                got.data(),
                want.data(),
                "coalesced apply must be bit-identical"
            );
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 6);
        assert!(
            stats.batches < 6,
            "expected coalescing, got {} batches",
            stats.batches
        );
    }

    #[test]
    fn expired_deadline_rejected_without_batch_slot() {
        let op = test_operator(128, false);
        let server = BatchedServer::new(op, ServeConfig::default());
        let w = rhs(128, 1, 0);
        let err = server
            .submit_apply(&w, Some(Duration::ZERO))
            .expect_err("zero deadline must be rejected");
        assert!(matches!(err, Error::DeadlineExceeded));
        let stats = server.stats();
        assert_eq!(stats.deadline_rejected, 1);
        assert_eq!(stats.batches, 0, "an expired request must not form a batch");
    }

    #[test]
    fn solve_without_factorization_is_refused_at_admission() {
        let op = test_operator(128, false);
        let server = BatchedServer::new(op, ServeConfig::default());
        let b = rhs(128, 1, 0);
        assert!(matches!(
            server.submit_solve(&b, None),
            Err(Error::NoFactorization)
        ));
        assert!(matches!(
            server.submit_solve_cg(&b, &KrylovOptions::default(), None),
            Err(Error::NoFactorization)
        ));
    }

    #[test]
    fn malformed_requests_fail_fast() {
        let op = test_operator(128, false);
        let server = BatchedServer::new(op, ServeConfig::default());
        assert!(matches!(
            server.submit_apply(&DenseMatrix::<f64>::zeros(128, 0), None),
            Err(Error::EmptyInput { .. })
        ));
        assert!(matches!(
            server.submit_apply(&rhs(64, 1, 0), None),
            Err(Error::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn overload_is_reported_with_queue_depth() {
        let op = test_operator(128, false);
        // Capacity 1 and a long holdoff: the second submission while the
        // first is still queued must be refused.
        let cfg = ServeConfig::default()
            .with_queue_capacity(1)
            .with_holdoff(Duration::from_millis(200));
        let server = BatchedServer::new(op, cfg);
        let w = rhs(128, 1, 0);
        let first = server.submit_apply(&w, None).expect("first admit");
        let second = server.submit_apply(&w, None);
        match second {
            Err(Error::Overloaded {
                queue_depth,
                capacity,
            }) => {
                assert_eq!(capacity, 1);
                assert!(queue_depth >= 1);
            }
            other => panic!("expected Overloaded, got {other:?}"),
        }
        first.wait().expect("first result");
    }

    #[test]
    fn cancelled_ticket_resolves_to_cancelled() {
        let op = test_operator(128, false);
        let cfg = ServeConfig::default().with_holdoff(Duration::from_millis(100));
        let server = BatchedServer::new(op, cfg);
        let w = rhs(128, 1, 0);
        let ticket = server.submit_apply(&w, None).expect("admit");
        ticket.cancel();
        assert!(matches!(ticket.wait(), Err(Error::Cancelled)));
        let stats = server.stats();
        assert_eq!(stats.cancelled, 1);
    }

    #[test]
    fn drop_with_queued_work_resolves_tickets() {
        let op = test_operator(128, false);
        let cfg = ServeConfig::default().with_holdoff(Duration::from_millis(500));
        let server = BatchedServer::new(Arc::clone(&op), cfg);
        let w = rhs(128, 2, 1);
        let ticket = server.submit_apply(&w, None).expect("admit");
        drop(server); // must drain, not deadlock
        let got = ticket.wait().expect("drained result");
        let want = op.apply(&w).expect("direct");
        assert_eq!(got.data(), want.data());
    }

    /// The batch-width bucket a batch of `cols` columns lands in.
    fn width_bucket(cols: usize) -> usize {
        let metrics = ServerMetrics::register(&MetricsRegistry::new());
        metrics.on_batch(cols);
        let counts = metrics.batch_width.bucket_counts();
        counts.iter().position(|&c| c == 1).expect("one batch")
    }

    #[test]
    fn width_buckets_cover_all_sizes() {
        assert_eq!(width_bucket(1), 0);
        assert_eq!(width_bucket(2), 1);
        assert_eq!(width_bucket(4), 2);
        assert_eq!(width_bucket(8), 3);
        assert_eq!(width_bucket(16), 4);
        assert_eq!(width_bucket(64), 5);
        // The named bounds and the match-free bucketing agree bucket-by-bucket.
        for (i, &bound) in BATCH_WIDTH_BUCKET_BOUNDS.iter().enumerate() {
            assert_eq!(width_bucket(bound), i);
            assert_eq!(width_bucket(bound + 1), i + 1);
        }
        assert_eq!(BATCH_WIDTH_BUCKET_LABELS.len(), BATCH_WIDTH_BUCKETS);
    }

    /// The value of the series `name` in a Prometheus text exposition.
    fn exported(text: &str, name: &str) -> f64 {
        text.lines()
            .find_map(|line| line.strip_prefix(name)?.strip_prefix(' '))
            .unwrap_or_else(|| panic!("{name} missing from\n{text}"))
            .parse()
            .expect("numeric sample")
    }

    #[test]
    fn stats_read_back_the_registry() {
        let op = test_operator(128, false);
        let registry = MetricsRegistry::new();
        // Capacity 2 and a long holdoff: the first two submissions queue,
        // the third is refused, and the second is cancelled before the
        // batch forms.
        let cfg = ServeConfig::default()
            .with_queue_capacity(2)
            .with_holdoff(Duration::from_millis(200))
            .with_metrics(registry.clone());
        let server = BatchedServer::new(op, cfg);
        let w = rhs(128, 2, 0);
        let expired = server.submit_apply(&w, Some(Duration::ZERO));
        assert!(matches!(expired, Err(Error::DeadlineExceeded)));
        let done = server.submit_apply(&w, None).expect("admit");
        let dropped = server.submit_apply(&w, None).expect("admit");
        let refused = server.submit_apply(&w, None);
        assert!(matches!(refused, Err(Error::Overloaded { .. })));
        dropped.cancel();
        assert!(matches!(dropped.wait(), Err(Error::Cancelled)));
        done.wait().expect("result");

        let stats = server.stats();
        assert_eq!(
            (
                stats.admitted,
                stats.completed,
                stats.deadline_rejected,
                stats.overload_rejected,
                stats.cancelled,
                stats.batches,
            ),
            (2, 1, 1, 1, 1, 1)
        );
        let text = registry.prometheus_text();
        let value = |name: &str| exported(&text, name);
        assert_eq!(value("gofmm_server_admitted_total"), stats.admitted as f64);
        assert_eq!(
            value("gofmm_server_completed_total"),
            stats.completed as f64
        );
        assert_eq!(
            value("gofmm_server_deadline_rejected_total"),
            stats.deadline_rejected as f64
        );
        assert_eq!(
            value("gofmm_server_overload_rejected_total"),
            stats.overload_rejected as f64
        );
        assert_eq!(
            value("gofmm_server_cancelled_total"),
            stats.cancelled as f64
        );
        assert_eq!(value("gofmm_server_batches_total"), stats.batches as f64);
        assert_eq!(value("gofmm_server_queue_depth"), stats.queue_depth as f64);
        assert_eq!(
            value("gofmm_server_batch_width_cols_count"),
            stats.batches as f64
        );
        assert_eq!(
            value("gofmm_server_batch_width_cols_sum"),
            stats.coalesced_columns as f64
        );
        let mut below = 0;
        for (bound, count) in BATCH_WIDTH_BUCKET_BOUNDS.iter().zip(stats.batch_width_hist) {
            below += count;
            let series = format!("gofmm_server_batch_width_cols_bucket{{le=\"{bound}\"}}");
            assert_eq!(value(&series), below as f64, "{series}");
        }
        let completed = value("gofmm_server_latency_us_count");
        assert_eq!(completed, stats.completed as f64);
        assert_eq!(
            value("gofmm_server_latency_us_sum") / completed,
            stats.mean_latency_us
        );
        assert!(stats.max_latency_us as f64 >= stats.mean_latency_us);
    }

    #[test]
    fn ticket_reports_progress_mid_flight() {
        use gofmm_telemetry::MetricsRegistry;
        let op = test_operator(256, true);
        let registry = MetricsRegistry::new();
        let cfg = ServeConfig::default().with_metrics(registry.clone());
        let server = BatchedServer::new(Arc::clone(&op), cfg);
        let b = rhs(256, 2, 3);
        // An unattainable tolerance keeps the flight iterating to max_iters,
        // leaving a wide window to observe progress before completion.
        let opts = KrylovOptions {
            tol: 1e-30,
            max_iters: 400,
            ..KrylovOptions::default()
        };
        let ticket = server.submit_solve_cg(&b, &opts, None).expect("admit");
        let deadline = Instant::now() + Duration::from_secs(30);
        let mid_flight = loop {
            if let Some(p) = ticket.progress() {
                break p;
            }
            assert!(
                Instant::now() < deadline,
                "no progress report observed within 30s"
            );
            std::thread::yield_now();
        };
        assert!(mid_flight.iterations >= 1);
        assert_eq!(mid_flight.columns_total, 2);
        assert!(mid_flight.columns_frozen <= 2);
        assert!(mid_flight.max_residual.is_finite());
        let final_progress_seen = ticket.progress().expect("progress persists");
        assert!(final_progress_seen.iterations >= mid_flight.iterations);
        ticket.wait().expect("cg result");
        // The registry saw the admission and the batch.
        let text = registry.prometheus_text();
        assert!(text.contains("gofmm_server_admitted_total 1"));
        assert!(text.contains("gofmm_server_queue_depth"));
        assert!(text.contains("gofmm_server_batch_width_cols_count 1"));
    }

    #[test]
    fn apply_tickets_report_sweep_progress() {
        let op = test_operator(128, true);
        let server = BatchedServer::new(Arc::clone(&op), ServeConfig::default());

        // Plain apply: sweep-level progress, no iteration structure.
        let w = rhs(128, 1, 0);
        let ticket = server.submit_apply(&w, None).expect("admit");
        ticket.rx.recv().expect("reply").expect("result");
        let p = ticket
            .progress()
            .expect("apply flight reports sweep stages");
        assert_eq!(p.iterations, 0, "apply flights have no iterations");
        assert_eq!(p.columns_total, 0);
        assert!(p.levels_total > 0);
        assert_eq!(
            p.levels_completed, p.levels_total,
            "a finished sweep reports every stage done"
        );

        // Direct solve: same sweep-level progress through the ULV engine.
        let b = rhs(128, 2, 5);
        let ticket = server.submit_solve(&b, None).expect("admit");
        ticket.rx.recv().expect("reply").expect("result");
        let p = ticket
            .progress()
            .expect("solve flight reports sweep stages");
        assert_eq!(p.iterations, 0);
        assert!(p.levels_total > 0);
        assert_eq!(p.levels_completed, p.levels_total);
    }

    #[test]
    fn traced_server_flights_are_bit_identical_and_recorded() {
        use gofmm_telemetry::TraceSink;
        let op = test_operator(256, false);
        let sink = TraceSink::new();
        let cfg = ServeConfig::default().with_options(ApplyOptions::new().with_trace(sink.clone()));
        let server = BatchedServer::new(Arc::clone(&op), cfg);
        let w = rhs(256, 2, 7);
        let got = server
            .submit_apply(&w, None)
            .expect("admit")
            .wait()
            .expect("result");
        let want = op.apply(&w).expect("direct untraced");
        assert_eq!(got.data(), want.data(), "tracing must not change bits");
        assert!(sink.event_count() > 0, "flight recorded no spans");
        let trace = sink.trace();
        assert!(trace.summary().per_family.contains_key("N2S"));
    }
}
