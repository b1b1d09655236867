//! The benchmark's own spans: one around every call it makes into a layer,
//! kept in memory and written as a Chrome trace when the run ends.
//!
//! Spans are recorded from outside the library; the only spans that come
//! from inside it are the per-task events of the `TraceSink` the traced run
//! installs, which [`Recorder::import_tasks`] files under the bench span that
//! made the call. A span's self time is its duration minus the part of it
//! that its children cover.

use crate::json::Json;
use gofmm_suite::telemetry::{SpanKind, Trace, TraceSink};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in the recorder; `ROOT` is "no parent".
pub type SpanId = usize;
pub const ROOT: SpanId = usize::MAX;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: SpanId,
    pub name: String,
    pub lane: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicUsize,
    spans: Mutex<Vec<Span>>,
}

static NEXT_LANE: AtomicUsize = AtomicUsize::new(0);
thread_local! {
    /// Chrome-trace row of the calling thread, in order of first use.
    static LANE: usize = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

/// Lane offset of imported library task spans, so worker rows sort below
/// the benchmark's own threads.
const TASK_LANE_BASE: usize = 100;

impl Recorder {
    /// A disabled recorder hands out ids but stores nothing, so the untraced
    /// run pays one branch per span.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicUsize::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Open a span; it closes when the guard drops.
    pub fn open(&self, name: &'static str, parent: SpanId) -> Guard<'_> {
        Guard {
            rec: self,
            id: self.next_id.fetch_add(1, Ordering::Relaxed),
            parent,
            name,
            start: Instant::now(),
        }
    }

    /// Run `f` inside a span and return its result with the wall seconds.
    pub fn time<R>(&self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> (R, f64) {
        let guard = self.open(name, parent);
        let out = f();
        let secs = guard.start.elapsed().as_secs_f64();
        (out, secs)
    }

    fn ns_since_epoch(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// File the task spans a `TraceSink` recorded during one library call
    /// under the bench span `parent` that made the call.
    pub fn import_tasks(&self, sink: &TraceSink, trace: &Trace, parent: SpanId) {
        if !self.enabled {
            return;
        }
        let offset = self.ns_since_epoch(sink.epoch());
        let mut spans = self.spans.lock().expect("span list lock");
        for ev in trace.events().iter().filter(|e| e.kind == SpanKind::Task) {
            spans.push(Span {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent,
                name: format!("task.{}", ev.family),
                lane: TASK_LANE_BASE + ev.worker,
                start_ns: offset + ev.t_start,
                end_ns: offset + ev.t_end,
            });
        }
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

pub struct Guard<'r> {
    rec: &'r Recorder,
    id: SpanId,
    parent: SpanId,
    name: &'static str,
    start: Instant,
}

impl Guard<'_> {
    pub fn id(&self) -> SpanId {
        self.id
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if !self.rec.enabled {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name.to_string(),
            lane: LANE.with(|l| *l),
            start_ns: self.rec.ns_since_epoch(self.start),
            end_ns: self.rec.ns_since_epoch(Instant::now()),
        };
        // A poisoned list only loses trace rows; never panic in drop.
        if let Ok(mut spans) = self.rec.spans.lock() {
            spans.push(span);
        }
    }
}

/// Self time of span `id`: its duration minus the union of its children's
/// intervals (clipped to the span), so overlapping parallel children are
/// not subtracted twice.
pub fn self_ns(spans: &[Span], id: SpanId) -> u64 {
    let Some(span) = spans.iter().find(|s| s.id == id) else {
        return 0;
    };
    let mut kids: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(|s| {
            (
                s.start_ns.clamp(span.start_ns, span.end_ns),
                s.end_ns.clamp(span.start_ns, span.end_ns),
            )
        })
        .collect();
    kids.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in kids {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    (span.end_ns - span.start_ns).saturating_sub(covered)
}

/// Chrome trace-event JSON (open at <https://ui.perfetto.dev>): one complete
/// `"ph":"X"` event per span, `tid` = thread lane, and the span's id, parent
/// and workload in `args`.
pub fn chrome_trace(spans: &[Span], workload: &str) -> String {
    let events = spans
        .iter()
        .map(|s| {
            let parent = if s.parent == ROOT {
                Json::Null
            } else {
                Json::Num(s.parent as f64)
            };
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.clone())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                (
                    "dur".into(),
                    Json::Num((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
                ("pid".into(), Json::Num(0.0)),
                ("tid".into(), Json::Num(s.lane as f64)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("id".into(), Json::Num(s.id as f64)),
                        ("parent".into(), parent),
                        ("workload".into(), Json::Str(workload.into())),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::Str("ms".into())),
    ])
    .to_line()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            lane: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, ROOT, 0, 100),
            span(1, 0, 10, 30),
            span(2, 0, 20, 50),  // overlaps span 1: union covers 10..50
            span(3, 0, 90, 120), // clipped to 90..100
            span(4, 1, 10, 30),  // grandchild: not subtracted from span 0
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 40 - 10);
        assert_eq!(self_ns(&spans, 1), 0);
        assert_eq!(self_ns(&spans, 2), 30);
        assert_eq!(self_ns(&spans, 99), 0);
    }

    #[test]
    fn recorder_links_parents_and_exports_valid_chrome_json() {
        let rec = Recorder::new(true);
        {
            let phase = rec.open("phase", ROOT);
            let (value, secs) = rec.time("call", phase.id(), || 7);
            assert_eq!(value, 7);
            assert!(secs >= 0.0);
        }
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        let call = spans.iter().find(|s| s.name == "call").unwrap();
        let phase = spans.iter().find(|s| s.name == "phase").unwrap();
        assert_eq!(call.parent, phase.id);
        assert_eq!(phase.parent, ROOT);
        assert!(phase.start_ns <= call.start_ns && call.end_ns <= phase.end_ns);
        let text = chrome_trace(&spans, "w");
        assert_eq!(gofmm_suite::telemetry::validate_chrome_trace(&text), Ok(2));

        let off = Recorder::new(false);
        drop(off.open("ignored", ROOT));
        assert!(off.snapshot().is_empty());
    }
}
