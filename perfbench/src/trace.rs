//! Spans around the benchmark's calls into the system, self-time
//! arithmetic, and the percentile rule.

use std::time::Instant;

/// One timed call: its name, the pane or window it serves, its interval in
/// nanoseconds since the run's origin, and the span that caused it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub id: i64,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

/// Records spans in memory when enabled; does nothing otherwise, so the
/// untraced runs pay only a branch per call.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        Tracer {
            enabled,
            origin,
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; pass the result to [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, id: i64, parent: Option<usize>) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start = self.now();
        self.spans.push(Span {
            name,
            id,
            start,
            end: start,
            parent,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, span: Option<usize>) {
        if let Some(i) = span {
            self.spans[i].end = self.now();
        }
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (overlapping children count once, and a child
/// reaching outside its parent counts only inside it).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0, s.start);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration() - covered
        })
        .collect()
}

/// The highest whole percentile with at least ten samples beyond it, from
/// p99 down to p50; `None` below 20 samples.
pub fn supported_percentile(samples: usize) -> Option<u32> {
    (50..=99)
        .rev()
        .find(|&p| samples as u64 * u64::from(100 - p) >= 1_000)
}

/// Nearest-rank percentile `p` (0–100) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            id: 0,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(20, 50, Some(0)), // overlaps the first child: 10..50 covered
            span(60, 70, Some(0)),
            span(90, 120, Some(0)), // leaks past the parent: only 90..100 counts
            span(25, 28, Some(1)),  // a grandchild counts against its parent only
        ];
        assert_eq!(
            self_times(&spans),
            vec![100 - 40 - 10 - 10, 17, 30, 10, 30, 3]
        );
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(1_000), Some(99));
        assert_eq!(supported_percentile(999), Some(98));
        assert_eq!(supported_percentile(500), Some(98));
        assert_eq!(supported_percentile(200), Some(95));
        assert_eq!(supported_percentile(20), Some(50));
        assert_eq!(supported_percentile(19), None);
        let values: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(percentile(&values, 99.0), 990.0);
        assert_eq!(median(&values), 500.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 100.0), 3.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.begin("x", 1, None);
        t.end(s);
        assert!(s.is_none() && t.spans.is_empty());
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("outer", 1, None);
        let inner = t.begin("inner", 1, outer);
        t.end(inner);
        t.end(outer);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t.spans[0].start <= t.spans[1].start && t.spans[1].end <= t.spans[0].end);
    }
}
