//! Shared timing vocabulary for the public stats structs.
//!
//! `EvaluationStats` / `SolveStats` / `ServerStats` in the downstream
//! crates keep their public shape, but their timing internals are built
//! from these three small types instead of hand-rolled `Instant` pairs and
//! ad-hoc micros math.

use std::time::Instant;

/// A started wall-clock timer; replaces scattered `Instant::now()` /
/// `elapsed().as_secs_f64()` pairs.
#[derive(Clone, Copy, Debug)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Start timing now.
    pub fn start() -> Self {
        Stopwatch {
            start: Instant::now(),
        }
    }

    /// Seconds elapsed since the stopwatch started.
    pub fn seconds(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// Microseconds elapsed since the stopwatch started (saturating).
    pub fn micros(&self) -> u64 {
        self.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Self::start()
    }
}

/// Named per-phase wall times in seconds, in insertion order.
///
/// The thin view the public stats structs expose: `stats.phase_times()`
/// returns one of these with entries like `("setup", 0.012)`,
/// `("apply", 0.003)`.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PhaseTimes {
    entries: Vec<(&'static str, f64)>,
}

impl PhaseTimes {
    /// An empty set of phase times.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append a phase (phases may repeat; `get` returns the sum).
    pub fn push(&mut self, phase: &'static str, seconds: f64) {
        self.entries.push((phase, seconds));
    }

    /// Builder-style [`PhaseTimes::push`].
    #[must_use]
    pub fn with(mut self, phase: &'static str, seconds: f64) -> Self {
        self.push(phase, seconds);
        self
    }

    /// Total seconds recorded for `phase` (0.0 when absent).
    pub fn get(&self, phase: &str) -> f64 {
        self.entries
            .iter()
            .filter(|(p, _)| *p == phase)
            .map(|(_, s)| s)
            .sum()
    }

    /// Sum of all phases, seconds.
    pub fn total(&self) -> f64 {
        self.entries.iter().map(|(_, s)| s).sum()
    }

    /// The `(phase, seconds)` entries in insertion order.
    pub fn entries(&self) -> &[(&'static str, f64)] {
        &self.entries
    }

    /// Number of recorded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no phases were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A latency roll-up in microseconds: the view `ServerStats::latency()`
/// exposes over the server's completion counters.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LatencySummary {
    /// Mean end-to-end latency over completed requests, microseconds.
    pub mean_us: f64,
    /// Maximum observed latency, microseconds.
    pub max_us: u64,
    /// Number of completed requests the summary covers.
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_moves_forward() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(sw.seconds() > 0.0);
        assert!(sw.micros() >= 1000);
    }

    #[test]
    fn phase_times_accumulate() {
        let pt = PhaseTimes::new()
            .with("setup", 0.5)
            .with("apply", 0.25)
            .with("apply", 0.25);
        assert_eq!(pt.get("setup"), 0.5);
        assert_eq!(pt.get("apply"), 0.5);
        assert_eq!(pt.get("missing"), 0.0);
        assert!((pt.total() - 1.0).abs() < 1e-12);
        assert_eq!(pt.len(), 3);
    }

    #[test]
    fn latency_summary_handles_zero() {
        let s = LatencySummary::default();
        assert_eq!((s.mean_us, s.max_us, s.count), (0.0, 0, 0));
    }
}
