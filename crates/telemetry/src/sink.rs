//! Lock-free span recording.
//!
//! A [`TraceSink`] collects closed spans from any number of threads without
//! taking a lock on the record path. Each recording thread owns a private
//! *lane* of fixed-size chunks: the thread writes events into its current
//! chunk and publishes each write with a release store of the chunk length;
//! when a chunk fills, the thread allocates a fresh one and registers it in
//! the sink's shared chunk list (the only mutex in the design, touched once
//! per [`CHUNK_EVENTS`] events). Chunks are chained, never recycled, so a
//! flush observes every event ever recorded — nothing is lost or
//! overwritten, which the concurrency proptests rely on.

use std::cell::{RefCell, UnsafeCell};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

use crate::trace::Trace;

/// Events per thread-local chunk. Chosen so a chunk is a few hundred KiB
/// and the shared registry mutex is touched at most once per this many
/// events on any thread.
pub const CHUNK_EVENTS: usize = 4096;

/// Maximum number of distinct sinks a single thread keeps lanes for. A
/// thread recording into more sinks than this evicts its oldest lane (the
/// evicted sink keeps the already-registered chunks; re-recording simply
/// opens a new lane under a fresh worker id).
const MAX_LANES: usize = 8;

/// What a recorded span measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One task body of a plan run, under any schedule (N2S/S2S/S2N/L2L,
    /// SUP/SDOWN, ...). Task spans are the unit of the per-family/per-level
    /// aggregates and the critical path.
    Task,
    /// A whole algorithmic phase (`APPLY`, `SOLVE`, `CG`);
    /// encloses the task and iteration spans it drives.
    Phase,
    /// A barrier marker: one per barrier group of a level-by-level plan
    /// run, recorded by the runtime and labelled with the group's family
    /// and its first task's level. Task spans of the group nest inside it.
    Marker,
    /// One Krylov iteration (`CG_ITER`); `node` carries the
    /// iteration index.
    Iteration,
}

/// One closed span: a `(family, node, level, worker)` identity plus start
/// and end timestamps in nanoseconds since the owning sink's epoch.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanEvent {
    /// Span category; see [`SpanKind`].
    pub kind: SpanKind,
    /// Task family or phase name (`"N2S"`, `"APPLY"`, `"CG_ITER"`, ...).
    pub family: &'static str,
    /// Heap index of the tree node the task touched, or the iteration
    /// index for [`SpanKind::Iteration`] spans; 0 for phase spans.
    pub node: usize,
    /// Tree level of the node (root = 0), or 0 where not meaningful.
    pub level: usize,
    /// Recording lane id: threads are numbered in the order they first
    /// record into the sink, so one worker thread maps to one id.
    pub worker: usize,
    /// Start time, nanoseconds since [`TraceSink::epoch`].
    pub t_start: u64,
    /// End time, nanoseconds since [`TraceSink::epoch`].
    pub t_end: u64,
}

impl SpanEvent {
    /// Span duration in nanoseconds (saturating, so a clock hiccup can
    /// never underflow).
    pub fn duration_ns(&self) -> u64 {
        self.t_end.saturating_sub(self.t_start)
    }
}

impl Default for SpanEvent {
    fn default() -> Self {
        SpanEvent {
            kind: SpanKind::Marker,
            family: "",
            node: 0,
            level: 0,
            worker: 0,
            t_start: 0,
            t_end: 0,
        }
    }
}

/// Fixed-size single-writer event buffer. Only the owning thread ever
/// writes `events[i]` and it publishes each write with a release store of
/// `len`; readers load `len` with acquire and touch only `events[..len]`,
/// which the writer never revisits.
struct Chunk {
    len: AtomicUsize,
    events: Box<[UnsafeCell<SpanEvent>]>,
}

// SAFETY: the single-writer protocol above — writes below `len` are
// published by the release store and never mutated again, and readers never
// touch slots at or above the acquired `len`.
unsafe impl Sync for Chunk {}
unsafe impl Send for Chunk {}

impl Chunk {
    fn new() -> Self {
        Chunk {
            len: AtomicUsize::new(0),
            events: (0..CHUNK_EVENTS)
                .map(|_| UnsafeCell::new(SpanEvent::default()))
                .collect(),
        }
    }

    /// Append an event; returns `false` when the chunk is full.
    fn push(&self, ev: SpanEvent) -> bool {
        let len = self.len.load(Ordering::Relaxed);
        if len == CHUNK_EVENTS {
            return false;
        }
        // SAFETY: this thread is the unique writer of this chunk and slot
        // `len` is unpublished, so no reader can observe the write until
        // the release store below.
        unsafe { *self.events[len].get() = ev };
        self.len.store(len + 1, Ordering::Release);
        true
    }

    fn published_len(&self) -> usize {
        self.len.load(Ordering::Acquire)
    }

    fn snapshot_into(&self, out: &mut Vec<SpanEvent>) {
        let len = self.published_len();
        for cell in &self.events[..len] {
            // SAFETY: slots below the acquired `len` are published and
            // immutable from here on.
            out.push(unsafe { *cell.get() });
        }
    }
}

static NEXT_SINK_ID: AtomicU64 = AtomicU64::new(1);

struct SinkInner {
    /// Globally unique, monotonically assigned id. Thread-local lanes key
    /// on this (not on the `Arc` pointer), so a freed sink's address being
    /// reused can never alias a stale lane.
    id: u64,
    epoch: Instant,
    chunks: Mutex<Vec<Arc<Chunk>>>,
    next_worker: AtomicUsize,
}

/// A shareable, lock-free recorder of [`SpanEvent`]s.
///
/// Cloning is cheap (an `Arc` bump) and all clones feed the same buffer.
/// Install a clone on `ApplyOptions` / `KrylovOptions` / `ServeConfig` and
/// call [`TraceSink::trace`] at any time — including while recording is
/// still in progress on other threads — to snapshot a [`Trace`].
///
/// Equality is identity: two sinks compare equal iff they share a buffer
/// (the same convention as `CancelToken`), which lets option structs keep
/// their derived `PartialEq`/`Eq`.
#[derive(Clone)]
pub struct TraceSink {
    inner: Arc<SinkInner>,
}

impl Default for TraceSink {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceSink")
            .field("id", &self.inner.id)
            .field("events", &self.event_count())
            .finish()
    }
}

impl PartialEq for TraceSink {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for TraceSink {}

struct Lane {
    sink_id: u64,
    worker: usize,
    chunk: Arc<Chunk>,
}

thread_local! {
    static LANES: RefCell<Vec<Lane>> = const { RefCell::new(Vec::new()) };
}

impl TraceSink {
    /// Create an empty sink; its epoch (the zero point of all recorded
    /// timestamps) is the moment of creation.
    pub fn new() -> Self {
        TraceSink {
            inner: Arc::new(SinkInner {
                id: NEXT_SINK_ID.fetch_add(1, Ordering::Relaxed),
                epoch: Instant::now(),
                chunks: Mutex::new(Vec::new()),
                next_worker: AtomicUsize::new(0),
            }),
        }
    }

    /// Nanoseconds elapsed since the sink's epoch — the timestamp source
    /// for [`TraceSink::record`].
    pub fn now(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// The sink's epoch instant (timestamp zero).
    pub fn epoch(&self) -> Instant {
        self.inner.epoch
    }

    /// Record one closed span. Lock-free on the hot path: the calling
    /// thread appends into its private lane and only touches the shared
    /// chunk list when a chunk of [`CHUNK_EVENTS`] events fills up (or on
    /// the thread's very first record into this sink).
    pub fn record(
        &self,
        kind: SpanKind,
        family: &'static str,
        node: usize,
        level: usize,
        t_start_ns: u64,
        t_end_ns: u64,
    ) {
        self.with_lane(|lane| {
            let ev = SpanEvent {
                kind,
                family,
                node,
                level,
                worker: lane.worker,
                t_start: t_start_ns,
                t_end: t_end_ns,
            };
            if !lane.chunk.push(ev) {
                lane.chunk = self.register_chunk();
                let pushed = lane.chunk.push(ev);
                debug_assert!(pushed, "a fresh chunk cannot be full");
            }
        });
    }

    /// Register the calling thread's lane now instead of on its first
    /// [`TraceSink::record`]. Registration allocates and fills a chunk
    /// (256 KiB, ~0.1 ms of page faults); an executor calls this before it
    /// starts a traced sweep so that cost is not a gap between the sweep's
    /// first two spans.
    pub fn register_thread(&self) {
        self.with_lane(|_| {});
    }

    /// Run `f` on the calling thread's lane into this sink, registering the
    /// lane and its first chunk if the thread has none.
    fn with_lane(&self, f: impl FnOnce(&mut Lane)) {
        LANES.with(|lanes| {
            let mut lanes = lanes.borrow_mut();
            let pos = match lanes.iter().position(|l| l.sink_id == self.inner.id) {
                Some(p) => p,
                None => {
                    if lanes.len() >= MAX_LANES {
                        lanes.remove(0);
                    }
                    let worker = self.inner.next_worker.fetch_add(1, Ordering::Relaxed);
                    let chunk = self.register_chunk();
                    lanes.push(Lane {
                        sink_id: self.inner.id,
                        worker,
                        chunk,
                    });
                    lanes.len() - 1
                }
            };
            f(&mut lanes[pos]);
        });
    }

    fn register_chunk(&self) -> Arc<Chunk> {
        let chunk = Arc::new(Chunk::new());
        self.inner.chunks.lock().push(Arc::clone(&chunk));
        chunk
    }

    /// Open a span now and record it when the guard drops. Convenience for
    /// phase-shaped instrumentation; task bodies on the hot path use
    /// [`TraceSink::now`] + [`TraceSink::record`] directly.
    #[must_use = "the span is recorded when the guard is dropped"]
    pub fn span(
        &self,
        kind: SpanKind,
        family: &'static str,
        node: usize,
        level: usize,
    ) -> SpanGuard {
        SpanGuard {
            sink: self.clone(),
            kind,
            family,
            node,
            level,
            t_start: self.now(),
        }
    }

    /// Number of events recorded so far (a racy lower bound while other
    /// threads are still recording).
    pub fn event_count(&self) -> usize {
        self.inner
            .chunks
            .lock()
            .iter()
            .map(|c| c.published_len())
            .sum()
    }

    /// Snapshot every event recorded so far into a [`Trace`]. The sink
    /// keeps recording; call again later for a larger snapshot.
    pub fn trace(&self) -> Trace {
        let chunks: Vec<Arc<Chunk>> = self.inner.chunks.lock().clone();
        let mut events = Vec::with_capacity(chunks.len() * 64);
        for chunk in &chunks {
            chunk.snapshot_into(&mut events);
        }
        Trace::from_events(events)
    }
}

/// Drop guard returned by [`TraceSink::span`]: records the span, closed at
/// drop time, into the originating sink.
pub struct SpanGuard {
    sink: TraceSink,
    kind: SpanKind,
    family: &'static str,
    node: usize,
    level: usize,
    t_start: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let t_end = self.sink.now();
        self.sink.record(
            self.kind,
            self.family,
            self.node,
            self.level,
            self.t_start,
            t_end,
        );
    }
}

impl fmt::Debug for SpanGuard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SpanGuard")
            .field("family", &self.family)
            .field("node", &self.node)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_snapshots() {
        let sink = TraceSink::new();
        let t0 = sink.now();
        sink.record(SpanKind::Task, "N2S", 3, 1, t0, t0 + 10);
        sink.record(SpanKind::Task, "S2S", 4, 2, t0 + 10, t0 + 25);
        assert_eq!(sink.event_count(), 2);
        let trace = sink.trace();
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.events()[0].family, "N2S");
        assert_eq!(trace.events()[1].duration_ns(), 15);
    }

    #[test]
    fn register_thread_moves_the_chunk_setup_ahead_of_the_first_record() {
        let sink = TraceSink::new();
        sink.register_thread();
        assert_eq!(sink.inner.chunks.lock().len(), 1);
        assert_eq!(sink.event_count(), 0);
        sink.register_thread();
        sink.record(SpanKind::Task, "N2S", 3, 1, 0, 10);
        // Same lane, same chunk: the record found both in place.
        assert_eq!(sink.inner.chunks.lock().len(), 1);
        assert_eq!(sink.trace().events()[0].worker, 0);
    }

    #[test]
    fn chunk_rollover_loses_nothing() {
        let sink = TraceSink::new();
        let total = CHUNK_EVENTS * 2 + 7;
        for i in 0..total {
            sink.record(SpanKind::Task, "T", i, 0, i as u64, i as u64 + 1);
        }
        assert_eq!(sink.event_count(), total);
        let trace = sink.trace();
        assert_eq!(trace.events().len(), total);
        // Every node index present exactly once.
        let mut nodes: Vec<usize> = trace.events().iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert_eq!(nodes.len(), total);
    }

    #[test]
    fn guard_records_on_drop() {
        let sink = TraceSink::new();
        {
            let _g = sink.span(SpanKind::Phase, "APPLY", 0, 0);
        }
        let trace = sink.trace();
        assert_eq!(trace.events().len(), 1);
        assert_eq!(trace.events()[0].kind, SpanKind::Phase);
    }

    #[test]
    fn sinks_are_identity_equal() {
        let a = TraceSink::new();
        let b = a.clone();
        let c = TraceSink::new();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn worker_ids_follow_threads() {
        let sink = TraceSink::new();
        let t0 = sink.now();
        sink.record(SpanKind::Task, "A", 0, 0, t0, t0 + 1);
        let clone = sink.clone();
        std::thread::spawn(move || {
            let t = clone.now();
            clone.record(SpanKind::Task, "B", 1, 0, t, t + 1);
        })
        .join()
        .unwrap();
        let trace = sink.trace();
        let workers: std::collections::BTreeSet<usize> =
            trace.events().iter().map(|e| e.worker).collect();
        assert_eq!(workers.len(), 2, "two threads -> two worker lanes");
    }
}
