//! Order statistics and the fixed-cost line fit the reports are built from.

/// Linear-interpolated quantile `q` in `[0, 1]` of an unsorted sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The statistic every repeated timing is reported as: the fastest sample,
/// the time of a call no neighbour disturbed.
///
/// The reference host is a shared VM whose neighbours contend for the memory
/// system, from one side and for minutes on end. Over a recorded 4-minute
/// timeline of a 53 ms apply that streams 133 MiB of panels, cut into
/// 30-second runs of 54 samples each, the runs' medians spread over
/// 65 .. 84 ms (inter-quartile 20 % of their median), their 10th percentiles
/// over 53 .. 68 ms (13 %), their minima over 52.0 .. 57.5 ms (2.7 %); a
/// loop that stays in cache read 5.76 .. 5.82 ms throughout. The work of a
/// call is deterministic, so its fastest sample is the time that work takes
/// when nothing else is on the memory bus, and the only figure about it this
/// host can repeat.
pub fn fastest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest of an empty sample");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Reported value, quartiles and count of one sample set; the quartiles let
/// `--compare` tell "worse" from "unresolved".
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// `value` as reported, with the quartiles and count of `samples`.
    pub fn with_value(value: f64, samples: &[f64]) -> Self {
        Summary {
            value,
            q1: quantile(samples, 0.25),
            q3: quantile(samples, 0.75),
            n: samples.len(),
        }
    }

    /// Reported as the median.
    pub fn of(samples: &[f64]) -> Self {
        Self::with_value(median(samples), samples)
    }

    /// Reported as the fastest sample (repeated timings).
    pub fn fast(samples: &[f64]) -> Self {
        Self::with_value(fastest(samples), samples)
    }

    /// A value measured once (a count, a deterministic figure).
    pub fn exact(value: f64) -> Self {
        Summary {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    /// The same summary under a monotone decreasing map such as `64 / t`:
    /// the quartiles swap so `q1 <= q3` still holds.
    pub fn map_decreasing(self, f: impl Fn(f64) -> f64) -> Self {
        Summary {
            value: f(self.value),
            q1: f(self.q3),
            q3: f(self.q1),
            n: self.n,
        }
    }
}

/// The highest percentile that still has at least ten samples beyond it, as
/// `(percentile in [0, 100), value)`: with 1000 samples p98.9, the eleventh
/// largest. Fewer than eleven samples (a `--smoke` window) have no such
/// percentile; the smallest sample is returned, which claims nothing about
/// the tail.
pub fn high_percentile(samples: &[f64]) -> (f64, f64) {
    const BEYOND: usize = 10;
    assert!(!samples.is_empty(), "percentile of an empty sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = sorted.len().saturating_sub(1 + BEYOND);
    (100.0 * idx as f64 / sorted.len() as f64, sorted[idx])
}

/// Least-squares line `y = fixed + per_x * x`; returns `(fixed, per_x)`.
pub fn line_fit(points: &[(f64, f64)]) -> (f64, f64) {
    assert!(points.len() >= 2, "a line needs two points");
    let n = points.len() as f64;
    let mx = points.iter().map(|p| p.0).sum::<f64>() / n;
    let my = points.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = points.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = points.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let slope = sxy / sxx;
    (my - slope * mx, slope)
}

/// Growth exponent between two sizes: `ln(y1 / y0) / ln(x1 / x0)`.
pub fn log_ratio_exponent(x0: f64, y0: f64, x1: f64, y1: f64) -> f64 {
    (y1 / y0).ln() / (x1 / x0).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!((s.q1, s.value, s.q3, s.n), (2.0, 3.0, 4.0, 5));
        let r = s.map_decreasing(|t| 60.0 / t);
        assert_eq!((r.q1, r.value, r.q3), (15.0, 20.0, 30.0));
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), 1.5);
        let f = Summary::fast(&[5.0, 1.0, 2.0, 4.0, 3.0]);
        assert_eq!((f.value, f.q1, f.q3), (1.0, 2.0, 4.0));
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let (pct, value) = high_percentile(&samples);
        assert_eq!(value, 989.0);
        assert_eq!(samples.iter().filter(|&&v| v > value).count(), 10);
        assert!((pct - 98.9).abs() < 1e-12);
        // Eleven samples: the smallest is the only one with ten beyond it.
        assert_eq!(high_percentile(&samples[..11]), (0.0, 989.0));
        // Fewer: no percentile qualifies, the smallest sample stands in.
        assert_eq!(high_percentile(&[3.0, 1.0, 2.0]), (0.0, 1.0));
    }

    #[test]
    fn line_fit_recovers_fixed_and_per_column_cost() {
        let pts: Vec<(f64, f64)> = [1.0, 4.0, 16.0, 64.0]
            .iter()
            .map(|&r| (r, 7.5 + 0.25 * r))
            .collect();
        let (fixed, per_col) = line_fit(&pts);
        assert!((fixed - 7.5).abs() < 1e-12 && (per_col - 0.25).abs() < 1e-12);
        assert!((log_ratio_exponent(8192.0, 1.0, 32768.0, 4.0) - 1.0).abs() < 1e-12);
    }
}
