//! Combining pane payloads into per-window `output ± error bound` results.

use sa_estimate::{
    estimate_mean, estimate_mean_by_stratum, estimate_sum, estimate_sum_by_stratum, srs_mean,
    srs_mean_by_stratum, srs_sum, srs_sum_by_stratum, SrsSample, StratumStats,
};
use sa_types::{Confidence, StratumId, Window, WindowResult};
use std::collections::BTreeMap;

/// What one pane (one batch interval / one slide interval) produced, per
/// sampling worker.
#[derive(Debug, Clone, PartialEq)]
pub enum PanePayload {
    /// Per-stratum sufficient statistics — produced by OASRS, STS and
    /// native execution.
    Stratified(Vec<StratumStats>),
    /// An unstratified simple random sample of projected values — produced
    /// by the SRS baseline, which forgets stratum populations by design.
    Srs {
        /// `(stratum, projected value)` pairs of the sampled items.
        samples: Vec<(StratumId, f64)>,
        /// How many items arrived in the pane.
        population: u64,
    },
}

impl PanePayload {
    /// Items that arrived in the pane.
    pub fn population(&self) -> u64 {
        match self {
            PanePayload::Stratified(stats) => stats.iter().map(|s| s.population).sum(),
            PanePayload::Srs { population, .. } => *population,
        }
    }

    /// Items that were sampled/aggregated in the pane.
    pub fn sampled(&self) -> u64 {
        match self {
            PanePayload::Stratified(stats) => stats.iter().map(|s| s.sample_size()).sum(),
            PanePayload::Srs { samples, .. } => samples.len() as u64,
        }
    }
}

/// Merges the per-stratum statistics of all of a window's panes (same
/// stratum across panes/workers merges via Welford/Chan) and estimates all
/// four aggregates.
fn combine_stratified(
    window: Window,
    payloads: Vec<Vec<StratumStats>>,
    confidence: Confidence,
) -> WindowResult {
    // Parallel workers deliver their pane statistics in scheduler-dependent
    // order, and floating-point merges are not associative — impose a
    // canonical order so a run is bit-for-bit reproducible from its seed.
    let mut all: Vec<StratumStats> = payloads.into_iter().flatten().collect();
    all.sort_by_key(|s| {
        (
            s.stratum,
            s.population,
            s.acc.count(),
            s.acc.mean().to_bits(),
            s.acc.sample_variance().to_bits(),
        )
    });
    let mut merged: BTreeMap<StratumId, StratumStats> = BTreeMap::new();
    for stats in all {
        match merged.get_mut(&stats.stratum) {
            Some(m) => m.merge(&stats),
            None => {
                merged.insert(stats.stratum, stats);
            }
        }
    }
    let stats: Vec<StratumStats> = merged.into_values().collect();
    WindowResult {
        window,
        sum: estimate_sum(&stats, confidence),
        mean: estimate_mean(&stats, confidence),
        sum_by_stratum: estimate_sum_by_stratum(&stats, confidence),
        mean_by_stratum: estimate_mean_by_stratum(&stats, confidence),
        degraded: false,
        lost_items: 0,
    }
}

/// Concatenates a window's SRS pane samples (the per-pane fraction is
/// constant, so the union is a simple random sample of the window) and
/// estimates all four aggregates with the SRS/domain estimators.
fn combine_srs(
    window: Window,
    parts: Vec<(Vec<(StratumId, f64)>, u64)>,
    confidence: Confidence,
) -> WindowResult {
    let mut samples = Vec::new();
    let mut population = 0u64;
    for (s, p) in parts {
        samples.extend(s);
        population += p;
    }
    let sample = SrsSample::new(samples, population);
    WindowResult {
        window,
        sum: srs_sum(&sample, |v| *v, confidence),
        mean: srs_mean(&sample, |v| *v, confidence),
        sum_by_stratum: srs_sum_by_stratum(&sample, |v| *v, confidence),
        mean_by_stratum: srs_mean_by_stratum(&sample, |v| *v, confidence),
        degraded: false,
        lost_items: 0,
    }
}

/// Combines a completed window's pane payloads into a [`WindowResult`].
/// All payloads of one run have the same variant; mixing is a programming
/// error.
///
/// # Panics
///
/// Panics if stratified and SRS payloads are mixed within one window.
pub fn combine_window(
    window: Window,
    payloads: Vec<PanePayload>,
    confidence: Confidence,
) -> WindowResult {
    let mut stratified = Vec::new();
    let mut srs = Vec::new();
    for p in payloads {
        match p {
            PanePayload::Stratified(stats) => stratified.push(stats),
            PanePayload::Srs {
                samples,
                population,
            } => srs.push((samples, population)),
        }
    }
    match (stratified.is_empty(), srs.is_empty()) {
        (false, true) => combine_stratified(window, stratified, confidence),
        (true, false) => combine_srs(window, srs, confidence),
        (true, true) => combine_stratified(window, Vec::new(), confidence),
        (false, false) => panic!("mixed stratified and SRS panes in one window"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_estimate::Welford;
    use sa_types::EventTime;

    fn window() -> Window {
        Window::new(EventTime::from_secs(0), EventTime::from_secs(10))
    }

    fn stats(id: u32, pop: u64, values: &[f64]) -> StratumStats {
        let acc: Welford = values.iter().copied().collect();
        StratumStats::from_parts(StratumId(id), pop, acc)
    }

    #[test]
    fn stratified_panes_merge_per_stratum() {
        // Two panes, same stratum, fully sampled: exact sum 1+2+3+4.
        let payloads = vec![
            PanePayload::Stratified(vec![stats(0, 2, &[1.0, 2.0])]),
            PanePayload::Stratified(vec![stats(0, 2, &[3.0, 4.0])]),
        ];
        let r = combine_window(window(), payloads, Confidence::P95);
        assert!((r.sum.value - 10.0).abs() < 1e-12);
        assert_eq!(r.sum.bound.margin(), 0.0);
        assert!((r.mean.value - 2.5).abs() < 1e-12);
        assert_eq!(r.sum_by_stratum.len(), 1);
    }

    #[test]
    fn stratified_weights_apply_after_merge() {
        // One stratum: 4 sampled of 8 across two panes → weight 2.
        let payloads = vec![
            PanePayload::Stratified(vec![stats(0, 4, &[1.0, 2.0])]),
            PanePayload::Stratified(vec![stats(0, 4, &[3.0, 4.0])]),
        ];
        let r = combine_window(window(), payloads, Confidence::P95);
        assert!((r.sum.value - 20.0).abs() < 1e-12);
        assert_eq!(r.sum.sample_size, 4);
        assert_eq!(r.sum.population_size, 8);
    }

    #[test]
    fn srs_panes_concatenate() {
        let payloads = vec![
            PanePayload::Srs {
                samples: vec![(StratumId(0), 2.0)],
                population: 2,
            },
            PanePayload::Srs {
                samples: vec![(StratumId(0), 4.0)],
                population: 2,
            },
        ];
        let r = combine_window(window(), payloads, Confidence::P95);
        // 2 sampled of 4 → HT expansion (4/2)·6 = 12.
        assert!((r.sum.value - 12.0).abs() < 1e-12);
        assert!((r.mean.value - 3.0).abs() < 1e-12);
    }

    #[test]
    fn empty_window_is_exact_zero() {
        let r = combine_window(window(), vec![], Confidence::P95);
        assert_eq!(r.sum.value, 0.0);
        assert_eq!(r.sum.bound.margin(), 0.0);
        assert!(r.sum_by_stratum.is_empty());
    }

    #[test]
    #[should_panic(expected = "mixed stratified and SRS panes")]
    fn mixed_payloads_rejected() {
        let payloads = vec![
            PanePayload::Stratified(vec![]),
            PanePayload::Srs {
                samples: vec![],
                population: 0,
            },
        ];
        let _ = combine_window(window(), payloads, Confidence::P95);
    }

    #[test]
    fn payload_counters() {
        let p = PanePayload::Stratified(vec![stats(0, 10, &[1.0, 2.0])]);
        assert_eq!(p.population(), 10);
        assert_eq!(p.sampled(), 2);
        let s = PanePayload::Srs {
            samples: vec![(StratumId(0), 1.0)],
            population: 5,
        };
        assert_eq!(s.population(), 5);
        assert_eq!(s.sampled(), 1);
    }
}
