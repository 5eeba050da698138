//! Run outputs: per-window approximate answers plus run-level metrics.

use sa_types::{Window, WindowResult};
use std::time::Duration;

/// The result of driving one system over one recorded stream: completed
/// windows plus the throughput/latency bookkeeping the evaluation plots.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Completed windows in event-time order.
    pub windows: Vec<WindowResult>,
    /// Items that entered the system.
    pub items_ingested: u64,
    /// Items that were actually aggregated (sampled); equals
    /// `items_ingested` for native execution.
    pub items_aggregated: u64,
    /// Wall-clock time for the whole run — the paper's latency metric
    /// ("total time required for processing the respective dataset", §6.1).
    pub elapsed: Duration,
}

impl RunOutput {
    /// The paper's throughput metric: items processed per second of wall
    /// time (§6.1).
    pub fn throughput(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.items_ingested as f64 / secs
        }
    }

    /// Fraction of ingested items that were aggregated.
    pub fn effective_fraction(&self) -> f64 {
        if self.items_ingested == 0 {
            1.0
        } else {
            self.items_aggregated as f64 / self.items_ingested as f64
        }
    }

    /// Finds the result for the window starting at the given time.
    pub fn window_at(&self, window: Window) -> Option<&WindowResult> {
        self.windows.iter().find(|w| w.window == window)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_types::{ApproxResult, Confidence, ErrorBound, EventTime, StratumId};

    fn result(v: f64) -> ApproxResult {
        ApproxResult::new(v, ErrorBound::new(1.0, Confidence::P95), 1, 2)
    }

    fn window(s: i64) -> Window {
        Window::new(EventTime::from_secs(s), EventTime::from_secs(s + 10))
    }

    fn window_result(s: i64) -> WindowResult {
        WindowResult {
            window: window(s),
            sum: result(10.0),
            mean: result(5.0),
            sum_by_stratum: vec![(StratumId(0), result(4.0)), (StratumId(1), result(6.0))],
            mean_by_stratum: vec![(StratumId(0), result(2.0))],
            degraded: false,
            lost_items: 0,
        }
    }

    #[test]
    fn stratum_lookup() {
        let w = window_result(0);
        assert_eq!(w.stratum_sum(StratumId(1)).unwrap().value, 6.0);
        assert!(w.stratum_sum(StratumId(9)).is_none());
        assert_eq!(w.stratum_mean(StratumId(0)).unwrap().value, 2.0);
        assert!(w.stratum_mean(StratumId(1)).is_none());
    }

    #[test]
    fn throughput_and_fraction() {
        let out = RunOutput {
            windows: vec![window_result(0)],
            items_ingested: 10_000,
            items_aggregated: 6_000,
            elapsed: Duration::from_secs(2),
        };
        assert!((out.throughput() - 5_000.0).abs() < 1e-9);
        assert!((out.effective_fraction() - 0.6).abs() < 1e-12);
        assert!(out.window_at(window(0)).is_some());
        assert!(out.window_at(window(5)).is_none());
    }

    #[test]
    fn empty_run_degrades_gracefully() {
        let out = RunOutput {
            windows: vec![],
            items_ingested: 0,
            items_aggregated: 0,
            elapsed: Duration::ZERO,
        };
        assert_eq!(out.throughput(), 0.0);
        assert_eq!(out.effective_fraction(), 1.0);
    }
}
