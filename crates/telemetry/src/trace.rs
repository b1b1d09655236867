//! Flushed traces: sorted span snapshots, aggregates, and Chrome
//! trace-event JSON export.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::sink::{SpanEvent, SpanKind};

/// An immutable snapshot of recorded spans, sorted by start time.
///
/// Produced by `TraceSink::trace()`. Export with
/// [`Trace::to_chrome_json`] (open the file at <https://ui.perfetto.dev>)
/// or aggregate with [`Trace::summary`].
#[derive(Clone, Debug, Default)]
pub struct Trace {
    events: Vec<SpanEvent>,
}

impl Trace {
    /// Build a trace from raw events (sorts them by start, then end time).
    pub fn from_events(mut events: Vec<SpanEvent>) -> Self {
        events.sort_by_key(|e| (e.t_start, e.t_end));
        Trace { events }
    }

    /// The recorded spans, sorted by `(t_start, t_end)`.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no spans.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Wall-clock extent of the trace in nanoseconds: latest end minus
    /// earliest start over all spans (0 for an empty trace).
    pub fn wall_ns(&self) -> u64 {
        if self.events.is_empty() {
            return 0;
        }
        let start = self.events.iter().map(|e| e.t_start).min().unwrap_or(0);
        let end = self.events.iter().map(|e| e.t_end).max().unwrap_or(0);
        end.saturating_sub(start)
    }

    /// Compute the aggregate [`TraceSummary`].
    pub fn summary(&self) -> TraceSummary {
        let wall_ns = self.wall_ns();
        let mut per_family: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut per_level: BTreeMap<usize, u64> = BTreeMap::new();
        let mut busy_ns: Vec<u64> = Vec::new();
        let mut task_ns = 0u64;
        for ev in &self.events {
            let dur = ev.duration_ns();
            match ev.kind {
                SpanKind::Task => {
                    task_ns += dur;
                    *per_family.entry(ev.family).or_insert(0) += dur;
                    *per_level.entry(ev.level).or_insert(0) += dur;
                }
                SpanKind::Iteration => {}
                SpanKind::Phase | SpanKind::Marker => continue,
            }
            // Busy time per worker counts task bodies and driver-side
            // iterations, not the enclosing phase/marker envelopes.
            if ev.worker >= busy_ns.len() {
                busy_ns.resize(ev.worker + 1, 0);
            }
            busy_ns[ev.worker] += dur;
        }
        let worker_busy = busy_ns
            .iter()
            .map(|&b| {
                if wall_ns == 0 {
                    0.0
                } else {
                    (b as f64 / wall_ns as f64).min(1.0)
                }
            })
            .collect();
        TraceSummary {
            wall_ns,
            task_ns,
            per_family,
            per_level,
            worker_busy,
            critical_path_ns: self.critical_path_ns(),
        }
    }

    /// Realized critical path: the maximum total task time along any
    /// temporally ordered chain of [`SpanKind::Task`] spans (each span in
    /// the chain starts at or after the previous one ended). For a
    /// sequential schedule this is essentially the whole task time; the
    /// gap between it and the wall under a parallel schedule is the
    /// schedule's realized slack. `O(n log n)`.
    pub fn critical_path_ns(&self) -> u64 {
        let mut tasks: Vec<(u64, u64)> = self
            .events
            .iter()
            .filter(|e| e.kind == SpanKind::Task)
            .map(|e| (e.t_start, e.t_end))
            .collect();
        if tasks.is_empty() {
            return 0;
        }
        tasks.sort_by_key(|&(s, e)| (e, s));
        let ends: Vec<u64> = tasks.iter().map(|&(_, e)| e).collect();
        // best[k] = max chain weight using only the first k tasks (by end
        // time); predecessors of task j are exactly a prefix of that order.
        let mut best = vec![0u64; tasks.len() + 1];
        for (j, &(start, end)) in tasks.iter().enumerate() {
            let k = ends[..j].partition_point(|&e| e <= start);
            let chain = end.saturating_sub(start) + best[k];
            best[j + 1] = best[j].max(chain);
        }
        best[tasks.len()]
    }

    /// Serialize as Chrome trace-event JSON (the `traceEvents` array of
    /// complete `"ph":"X"` events, timestamps in microseconds). The output
    /// loads directly in Perfetto (<https://ui.perfetto.dev>) and in
    /// `chrome://tracing`; workers map to rows (`tid`), families to event
    /// names, and `node`/`level` ride along in `args`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 128 + 64);
        out.push_str("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let ts_us = ev.t_start as f64 / 1000.0;
            let dur_us = ev.duration_ns() as f64 / 1000.0;
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{:?}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"node\":{},\"level\":{}}}}}",
                escape(ev.family),
                ev.kind,
                ts_us,
                dur_us,
                ev.worker,
                ev.node,
                ev.level
            );
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }
}

fn escape(s: &str) -> String {
    if s.contains(['"', '\\']) {
        s.replace('\\', "\\\\").replace('"', "\\\"")
    } else {
        s.to_string()
    }
}

/// Aggregates computed from a [`Trace`].
///
/// All per-family / per-level totals count [`SpanKind::Task`] spans only,
/// so a sequential run's family totals tile the wall time exactly (phase
/// and marker envelopes would otherwise double-count their contents).
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// Wall-clock extent of the trace, nanoseconds.
    pub wall_ns: u64,
    /// Total task-span time across all workers, nanoseconds.
    pub task_ns: u64,
    /// Task time per task family, nanoseconds.
    pub per_family: BTreeMap<&'static str, u64>,
    /// Task time per tree level, nanoseconds.
    pub per_level: BTreeMap<usize, u64>,
    /// Per-worker busy fraction of the wall (task + iteration spans);
    /// index = worker lane id.
    pub worker_busy: Vec<f64>,
    /// Realized critical path through the task spans, nanoseconds; see
    /// [`Trace::critical_path_ns`].
    pub critical_path_ns: u64,
}

impl TraceSummary {
    /// Number of worker lanes that recorded task or iteration spans.
    pub fn workers(&self) -> usize {
        self.worker_busy.len()
    }

    /// Task time recorded for one family, nanoseconds (0 when absent).
    pub fn family_ns(&self, family: &str) -> u64 {
        self.per_family.get(family).copied().unwrap_or(0)
    }

    /// Critical path as a fraction of wall time (0 for an empty trace).
    pub fn critical_path_fraction(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            (self.critical_path_ns as f64 / self.wall_ns as f64).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(family: &'static str, level: usize, worker: usize, s: u64, e: u64) -> SpanEvent {
        SpanEvent {
            kind: SpanKind::Task,
            family,
            node: 0,
            level,
            worker,
            t_start: s,
            t_end: e,
        }
    }

    #[test]
    fn summary_tiles_sequential_run() {
        // Three back-to-back tasks on one worker: families sum to wall.
        let trace = Trace::from_events(vec![
            task("N2S", 2, 0, 0, 10),
            task("S2S", 1, 0, 10, 30),
            task("L2L", 2, 0, 30, 60),
        ]);
        let s = trace.summary();
        assert_eq!(s.wall_ns, 60);
        assert_eq!(s.task_ns, 60);
        assert_eq!(s.family_ns("N2S"), 10);
        assert_eq!(s.family_ns("S2S"), 20);
        assert_eq!(s.family_ns("L2L"), 30);
        assert_eq!(s.per_level[&2], 40);
        assert_eq!(s.workers(), 1);
        assert!((s.worker_busy[0] - 1.0).abs() < 1e-12);
        assert_eq!(s.critical_path_ns, 60);
        assert!((s.critical_path_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_spans_do_not_double_count() {
        let mut events = vec![task("T", 0, 0, 0, 50)];
        events.push(SpanEvent {
            kind: SpanKind::Phase,
            family: "APPLY",
            node: 0,
            level: 0,
            worker: 0,
            t_start: 0,
            t_end: 50,
        });
        let s = Trace::from_events(events).summary();
        assert_eq!(s.task_ns, 50);
        assert_eq!(s.per_family.len(), 1);
    }

    #[test]
    fn critical_path_of_parallel_run() {
        // Two workers: w0 runs 0..40, w1 runs two tasks 0..10 and 15..50.
        // Longest temporally ordered chain is 10 + 35 = 45 (w1's pair);
        // w0's single task gives 40.
        let trace = Trace::from_events(vec![
            task("A", 0, 0, 0, 40),
            task("B", 0, 1, 0, 10),
            task("C", 0, 1, 15, 50),
        ]);
        assert_eq!(trace.critical_path_ns(), 45);
        let s = trace.summary();
        assert_eq!(s.wall_ns, 50);
        assert!(s.critical_path_fraction() < 1.0);
    }

    #[test]
    fn chrome_json_is_valid_and_nonempty() {
        let trace = Trace::from_events(vec![task("N2S", 1, 0, 500, 2500)]);
        let json = trace.to_chrome_json();
        let n = crate::json::validate_chrome_trace(&json).expect("valid chrome trace");
        assert_eq!(n, 1);
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":0.500"));
    }

    #[test]
    fn empty_trace_is_well_behaved() {
        let trace = Trace::default();
        assert!(trace.is_empty());
        assert_eq!(trace.wall_ns(), 0);
        let s = trace.summary();
        assert_eq!(s.critical_path_fraction(), 0.0);
        assert_eq!(s.workers(), 0);
    }
}
