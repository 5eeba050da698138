//! Approximate results and their error bounds.

use crate::budget::Confidence;
use crate::item::StratumId;
use crate::window::Window;
use serde::{Deserialize, Serialize};
use std::fmt;

/// The `± error` part of an approximate answer.
///
/// The bound is an absolute margin at a given confidence: the true value lies
/// within `value ± margin` with the stated probability, per the 68-95-99.7
/// rule the paper applies to the estimated variance (§3.3).
///
/// # Example
///
/// ```
/// use sa_types::{ErrorBound, Confidence};
/// let b = ErrorBound::new(2.5, Confidence::P95);
/// assert_eq!(b.margin(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorBound {
    margin: f64,
    confidence: Confidence,
}

impl ErrorBound {
    /// Creates an error bound with the given absolute margin.
    ///
    /// # Panics
    ///
    /// Panics if `margin` is negative or NaN.
    pub fn new(margin: f64, confidence: Confidence) -> Self {
        assert!(
            margin >= 0.0 && margin.is_finite(),
            "error margin must be a non-negative finite number"
        );
        ErrorBound { margin, confidence }
    }

    /// An exact answer: zero margin (used when a window was fully processed,
    /// e.g. under native execution or a 100% sampling fraction).
    pub fn exact() -> Self {
        ErrorBound {
            margin: 0.0,
            confidence: Confidence::P997,
        }
    }

    /// Absolute half-width of the confidence interval.
    #[inline]
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Confidence level at which the margin holds.
    #[inline]
    pub fn confidence(&self) -> Confidence {
        self.confidence
    }
}

impl fmt::Display for ErrorBound {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "±{:.4} @ {}", self.margin, self.confidence)
    }
}

/// An approximate query result in the paper's `output ± error bound` form
/// (§3.1), plus the sample/population bookkeeping needed to judge it.
///
/// # Example
///
/// ```
/// use sa_types::{ApproxResult, ErrorBound, Confidence};
/// let r = ApproxResult::new(100.0, ErrorBound::new(3.0, Confidence::P95), 60, 100);
/// assert_eq!(r.value, 100.0);
/// assert!(r.interval().0 <= r.value && r.value <= r.interval().1);
/// assert!((r.sampling_fraction() - 0.6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ApproxResult {
    /// The estimated value of the query.
    pub value: f64,
    /// The error bound around `value`.
    pub bound: ErrorBound,
    /// Number of items actually aggregated (across all strata).
    pub sample_size: u64,
    /// Number of items that arrived in the window (across all strata).
    pub population_size: u64,
}

impl ApproxResult {
    /// Creates an approximate result.
    pub fn new(value: f64, bound: ErrorBound, sample_size: u64, population_size: u64) -> Self {
        ApproxResult {
            value,
            bound,
            sample_size,
            population_size,
        }
    }

    /// The confidence interval `(low, high)` implied by the bound.
    #[inline]
    pub fn interval(&self) -> (f64, f64) {
        (
            self.value - self.bound.margin(),
            self.value + self.bound.margin(),
        )
    }

    /// Fraction of the window's items that contributed to the answer.
    /// Returns 1.0 for an empty window (nothing was left out).
    #[inline]
    pub fn sampling_fraction(&self) -> f64 {
        if self.population_size == 0 {
            1.0
        } else {
            self.sample_size as f64 / self.population_size as f64
        }
    }

    /// Relative half-width of the confidence interval (margin / |value|);
    /// `f64::INFINITY` when the value is zero but the margin is not.
    #[inline]
    pub fn relative_error(&self) -> f64 {
        if self.value == 0.0 {
            if self.bound.margin() == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            self.bound.margin() / self.value.abs()
        }
    }
}

impl fmt::Display for ApproxResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.4} {} (n={}/{})",
            self.value, self.bound, self.sample_size, self.population_size
        )
    }
}

/// Every aggregate the evaluation queries, for one completed sliding
/// window, each in the paper's `output ± error bound` form (§3.1).
///
/// All four aggregates are computed for every window — they share the same
/// per-stratum sufficient statistics, so the extra cost is a handful of
/// float operations per stratum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowResult {
    /// The completed window.
    pub window: Window,
    /// Approximate sum of all item values in the window (Equations 2–3).
    pub sum: ApproxResult,
    /// Approximate mean of all item values (Equation 4).
    pub mean: ApproxResult,
    /// Per-sub-stream sums — the network-monitoring query (§6.2).
    pub sum_by_stratum: Vec<(StratumId, ApproxResult)>,
    /// Per-sub-stream means — the taxi query (§6.3).
    pub mean_by_stratum: Vec<(StratumId, ApproxResult)>,
    /// `true` if any pane of this window merged without a dead or
    /// straggling shard's digest. The estimates above already account for
    /// the loss: populations were inflated by the estimated shortfall, so
    /// the error bounds are *wider* than a healthy window's, never
    /// silently narrower.
    #[serde(default)]
    pub degraded: bool,
    /// Estimated items lost to missing shards across this window's panes
    /// (0 for healthy windows).
    #[serde(default)]
    pub lost_items: u64,
}

impl WindowResult {
    /// Looks up one stratum's sum estimate.
    pub fn stratum_sum(&self, id: StratumId) -> Option<&ApproxResult> {
        self.sum_by_stratum
            .iter()
            .find(|(s, _)| *s == id)
            .map(|(_, r)| r)
    }

    /// Looks up one stratum's mean estimate.
    pub fn stratum_mean(&self, id: StratumId) -> Option<&ApproxResult> {
        self.mean_by_stratum
            .iter()
            .find(|(s, _)| *s == id)
            .map(|(_, r)| r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_is_symmetric() {
        let r = ApproxResult::new(10.0, ErrorBound::new(2.0, Confidence::P68), 5, 10);
        assert_eq!(r.interval(), (8.0, 12.0));
    }

    #[test]
    fn exact_bound_has_zero_margin() {
        let b = ErrorBound::exact();
        assert_eq!(b.margin(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative finite")]
    fn negative_margin_rejected() {
        let _ = ErrorBound::new(-1.0, Confidence::P95);
    }

    #[test]
    #[should_panic(expected = "non-negative finite")]
    fn nan_margin_rejected() {
        let _ = ErrorBound::new(f64::NAN, Confidence::P95);
    }

    #[test]
    fn sampling_fraction_handles_empty_window() {
        let r = ApproxResult::new(0.0, ErrorBound::exact(), 0, 0);
        assert_eq!(r.sampling_fraction(), 1.0);
    }

    #[test]
    fn relative_error_cases() {
        let r = ApproxResult::new(50.0, ErrorBound::new(5.0, Confidence::P95), 1, 1);
        assert!((r.relative_error() - 0.1).abs() < 1e-12);
        let zero_exact = ApproxResult::new(0.0, ErrorBound::exact(), 1, 1);
        assert_eq!(zero_exact.relative_error(), 0.0);
        let zero_loose = ApproxResult::new(0.0, ErrorBound::new(1.0, Confidence::P95), 1, 1);
        assert!(zero_loose.relative_error().is_infinite());
    }

    #[test]
    fn display_mentions_everything() {
        let r = ApproxResult::new(1.0, ErrorBound::new(0.5, Confidence::P95), 3, 4);
        let s = r.to_string();
        assert!(s.contains("1.0000"), "{s}");
        assert!(s.contains("±0.5000"), "{s}");
        assert!(s.contains("n=3/4"), "{s}");
    }
}
