//! Compact latency summaries extracted from histograms.

use crate::histogram::LogHistogram;
use core::fmt;

/// The percentile set the paper reports (Figures 8 and 9 left panels),
/// plus mean/max/count, all in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Median response time (ns).
    pub p50: u64,
    /// 90th-percentile response time (ns).
    pub p90: u64,
    /// 95th-percentile response time (ns) — the paper's SLA metric.
    pub p95: u64,
    /// 99th-percentile response time (ns).
    pub p99: u64,
    /// Mean response time (ns).
    pub mean: f64,
    /// Worst observed response time (ns).
    pub max: u64,
    /// Number of completed requests.
    pub count: u64,
}

impl LatencySummary {
    /// Extracts the summary from a histogram of nanosecond latencies.
    ///
    /// # Example
    ///
    /// ```
    /// use simstats::{LatencySummary, LogHistogram};
    /// let mut h = LogHistogram::new();
    /// for v in 1..=100u64 {
    ///     h.record(v * 1_000);
    /// }
    /// let s = LatencySummary::from_histogram(&h);
    /// assert_eq!(s.count, 100);
    /// assert!(s.p95 >= s.p50);
    /// ```
    #[must_use]
    pub fn from_histogram(h: &LogHistogram) -> Self {
        LatencySummary {
            p50: h.percentile(50.0),
            p90: h.percentile(90.0),
            p95: h.percentile(95.0),
            p99: h.percentile(99.0),
            mean: h.mean(),
            max: h.max(),
            count: h.count(),
        }
    }

    /// All four reported percentiles, normalized by `sla_ns`
    /// (the paper normalizes response times to the SLA; values > 1.0
    /// violate it).
    #[must_use]
    pub fn normalized(&self, sla_ns: u64) -> [f64; 4] {
        let n = |v: u64| v as f64 / sla_ns as f64;
        [n(self.p50), n(self.p90), n(self.p95), n(self.p99)]
    }

    /// `true` when the p95 response time meets the SLA. A summary with
    /// no samples never meets it: its p95 reads 0 only because nothing
    /// completed.
    #[must_use]
    pub fn meets_sla(&self, sla_ns: u64) -> bool {
        self.count > 0 && self.p95 <= sla_ns
    }
}

impl fmt::Display for LatencySummary {
    /// One line of percentiles, or a plain note when nothing completed:
    /// the percentiles of an empty summary read 0 and would mislead.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "n=0 (no completed requests)");
        }
        write!(
            f,
            "n={} mean={:.1}us p50={:.1}us p90={:.1}us p95={:.1}us p99={:.1}us max={:.1}us",
            self.count,
            self.mean / 1e3,
            self.p50 as f64 / 1e3,
            self.p90 as f64 / 1e3,
            self.p95 as f64 / 1e3,
            self.p99 as f64 / 1e3,
            self.max as f64 / 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uniform_hist() -> LogHistogram {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1_000);
        }
        h
    }

    #[test]
    fn percentiles_are_ordered() {
        let s = LatencySummary::from_histogram(&uniform_hist());
        assert!(s.p50 <= s.p90);
        assert!(s.p90 <= s.p95);
        assert!(s.p95 <= s.p99);
        assert!(s.p99 <= s.max);
    }

    #[test]
    fn normalization_against_sla() {
        let s = LatencySummary::from_histogram(&uniform_hist());
        let [_, _, p95n, _] = s.normalized(s.p95);
        assert!((p95n - 1.0).abs() < 1e-9);
        assert!(s.meets_sla(s.p95));
        assert!(!s.meets_sla(s.p95 - 1_000));
    }

    #[test]
    fn empty_histogram_summary() {
        let s = LatencySummary::from_histogram(&LogHistogram::new());
        assert_eq!(s.count, 0);
        assert_eq!(s.p95, 0);
        assert!(
            !s.meets_sla(u64::MAX),
            "a run that completed nothing meets no SLA"
        );
        assert_eq!(s.to_string(), "n=0 (no completed requests)");
    }

    #[test]
    fn display_mentions_count() {
        let s = LatencySummary::from_histogram(&uniform_hist());
        assert!(s.to_string().contains("n=1000"));
    }
}
