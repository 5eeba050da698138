//! Query budgets and confidence levels.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Confidence level attached to an error bound.
///
/// The paper reports error bounds via the "68-95-99.7" rule (§3.3): the
/// approximate result falls within one, two, or three standard deviations of
/// the true result with probability 68%, 95% and 99.7% respectively.
///
/// # Example
///
/// ```
/// use sa_types::Confidence;
/// assert_eq!(Confidence::P95.z(), 2.0);
/// assert!(Confidence::P997.z() > Confidence::P68.z());
/// ```
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub enum Confidence {
    /// One standard deviation: ~68% of results fall within the bound.
    P68,
    /// Two standard deviations: ~95% of results fall within the bound.
    #[default]
    P95,
    /// Three standard deviations: ~99.7% of results fall within the bound.
    P997,
}

impl Confidence {
    /// The number of standard deviations ("z value") this level corresponds
    /// to under the 68-95-99.7 rule used by the paper.
    #[inline]
    pub fn z(self) -> f64 {
        match self {
            Confidence::P68 => 1.0,
            Confidence::P95 => 2.0,
            Confidence::P997 => 3.0,
        }
    }

    /// Nominal coverage probability of the bound.
    #[inline]
    pub fn coverage(self) -> f64 {
        match self {
            Confidence::P68 => 0.6827,
            Confidence::P95 => 0.9545,
            Confidence::P997 => 0.9973,
        }
    }
}

impl fmt::Display for Confidence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Confidence::P68 => write!(f, "68%"),
            Confidence::P95 => write!(f, "95%"),
            Confidence::P997 => write!(f, "99.7%"),
        }
    }
}

/// What the sampler should do for the next time interval: the
/// per-interval form of a [`QueryBudget`] that cost policies produce and
/// every engine — local or distributed — runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SizingDirective {
    /// Target this sampling fraction (OASRS adapts per-stratum reservoir
    /// capacities to `fraction × last interval's arrivals`).
    Fraction(f64),
    /// Give every stratum a reservoir of exactly this many slots.
    PerStratum(usize),
    /// Split this total budget evenly over the strata seen.
    SharedTotal(usize),
    /// Process everything (native execution / 100% fraction).
    Everything,
}

/// A user-specified query execution budget (§2.1 of the paper).
///
/// StreamApprox lets users trade output accuracy for computation efficiency
/// by declaring what they can afford; a *cost function* translates the budget
/// into a concrete sample size per window (the paper assumes such a function
/// exists — §2.3 assumption 1 — and sketches implementations in §7; the
/// `streamapprox` crate provides them).
///
/// # Example
///
/// ```
/// use sa_types::QueryBudget;
/// let budget = QueryBudget::SampleFraction(0.6);
/// assert!(matches!(budget, QueryBudget::SampleFraction(f) if f == 0.6));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum QueryBudget {
    /// Sample a fixed fraction of the arriving items (`0 < f <= 1`). This is
    /// the knob the paper's evaluation sweeps (10%–90%).
    SampleFraction(f64),
    /// Sample at most this many items per window, split across strata.
    SampleSize(usize),
    /// Keep the per-window processing latency below this many milliseconds;
    /// an adaptive controller shrinks or grows the sample to comply.
    LatencyMillis(u64),
    /// Keep the relative error of the answer below `max_relative_error`
    /// (e.g. `0.01` for 1%) at the given confidence; the controller grows the
    /// sample until the reported bound complies.
    Accuracy {
        /// Target relative half-width of the confidence interval.
        max_relative_error: f64,
        /// Confidence level at which the target must hold.
        confidence: Confidence,
    },
    /// Spend at most this many abstract resource tokens per window
    /// (Pulsar-style virtual-cost accounting, paper §7-I).
    ResourceTokens(u64),
}

impl QueryBudget {
    /// Validates the budget's parameters, returning a human-readable reason
    /// when the budget can never be satisfied.
    ///
    /// # Errors
    ///
    /// Returns `Err` if a fraction is outside `(0, 1]`, a size/latency/token
    /// budget is zero, or an accuracy target is not a positive fraction.
    pub fn validate(&self) -> Result<(), crate::SaError> {
        use crate::SaError::InvalidBudget;
        match *self {
            QueryBudget::SampleFraction(f) if !(f > 0.0 && f <= 1.0) => {
                Err(InvalidBudget(format!("sample fraction {f} outside (0, 1]")))
            }
            QueryBudget::SampleSize(0) => Err(InvalidBudget("sample size must be positive".into())),
            QueryBudget::LatencyMillis(0) => {
                Err(InvalidBudget("latency budget must be positive".into()))
            }
            QueryBudget::Accuracy {
                max_relative_error, ..
            } if !(max_relative_error > 0.0 && max_relative_error < 1.0) => Err(InvalidBudget(
                format!("accuracy target {max_relative_error} outside (0, 1)"),
            )),
            QueryBudget::ResourceTokens(0) => {
                Err(InvalidBudget("token budget must be positive".into()))
            }
            _ => Ok(()),
        }
    }
}

impl Default for QueryBudget {
    /// The fraction most experiments in the paper fix when sweeping other
    /// parameters: 60%.
    fn default() -> Self {
        QueryBudget::SampleFraction(0.6)
    }
}

impl fmt::Display for QueryBudget {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryBudget::SampleFraction(x) => write!(f, "fraction {:.0}%", x * 100.0),
            QueryBudget::SampleSize(n) => write!(f, "sample size {n}"),
            QueryBudget::LatencyMillis(ms) => write!(f, "latency {ms}ms"),
            QueryBudget::Accuracy {
                max_relative_error,
                confidence,
            } => write!(
                f,
                "accuracy {:.2}% @ {confidence}",
                max_relative_error * 100.0
            ),
            QueryBudget::ResourceTokens(t) => write!(f, "{t} tokens"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn z_values_follow_the_rule() {
        assert_eq!(Confidence::P68.z(), 1.0);
        assert_eq!(Confidence::P95.z(), 2.0);
        assert_eq!(Confidence::P997.z(), 3.0);
    }

    #[test]
    fn coverage_is_monotone_in_z() {
        assert!(Confidence::P68.coverage() < Confidence::P95.coverage());
        assert!(Confidence::P95.coverage() < Confidence::P997.coverage());
    }

    #[test]
    fn valid_budgets_pass() {
        for b in [
            QueryBudget::SampleFraction(0.1),
            QueryBudget::SampleFraction(1.0),
            QueryBudget::SampleSize(10),
            QueryBudget::LatencyMillis(250),
            QueryBudget::Accuracy {
                max_relative_error: 0.01,
                confidence: Confidence::P95,
            },
            QueryBudget::ResourceTokens(1_000),
        ] {
            assert!(b.validate().is_ok(), "{b}");
        }
    }

    #[test]
    fn invalid_budgets_fail() {
        for b in [
            QueryBudget::SampleFraction(0.0),
            QueryBudget::SampleFraction(1.5),
            QueryBudget::SampleFraction(-0.3),
            QueryBudget::SampleSize(0),
            QueryBudget::LatencyMillis(0),
            QueryBudget::Accuracy {
                max_relative_error: 0.0,
                confidence: Confidence::P68,
            },
            QueryBudget::Accuracy {
                max_relative_error: 1.0,
                confidence: Confidence::P68,
            },
            QueryBudget::ResourceTokens(0),
        ] {
            assert!(b.validate().is_err(), "{b}");
        }
    }

    #[test]
    fn default_budget_matches_paper_sweeps() {
        assert_eq!(QueryBudget::default(), QueryBudget::SampleFraction(0.6));
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(QueryBudget::SampleFraction(0.6).to_string(), "fraction 60%");
        assert_eq!(Confidence::P997.to_string(), "99.7%");
    }
}
