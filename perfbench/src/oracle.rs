//! The exact oracle and the per-window correctness checks.
//!
//! Built from the generated block alone — no `streamapprox` code — the
//! oracle holds per-pane, per-stratum item counts and value sums for one
//! lap. Because laps repeat the block with shifted times, any window of
//! the replayed stream is the sum of its panes taken modulo the block.

use sa_types::StreamItem;

/// Exact count and value sum of one stratum in one window or pane.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cell {
    pub count: u64,
    pub sum: f64,
}

/// What a window should report.
#[derive(Debug, Clone, PartialEq)]
pub struct Truth {
    pub strata: Vec<Cell>,
    /// Items the sample must hold under a fixed per-stratum budget: the
    /// sum over panes and strata of `min(budget, count)`.
    pub per_stratum_sample: u64,
}

impl Truth {
    pub fn count(&self) -> u64 {
        self.strata.iter().map(|c| c.count).sum()
    }

    pub fn mean(&self) -> f64 {
        self.strata.iter().map(|c| c.sum).sum::<f64>() / self.count() as f64
    }
}

/// Per-pane truth for one lap of the replayed stream.
pub struct Oracle {
    pane_ms: i64,
    size_ms: i64,
    panes_per_lap: i64,
    /// `panes[p][s]`: pane `p` of the lap, stratum `s`.
    panes: Vec<Vec<Cell>>,
    per_stratum_budget: u64,
}

impl Oracle {
    /// The oracle of a block of `block_ms` replayed under sliding windows
    /// of `size_ms` / `pane_ms` (panes are one slide long);
    /// `per_stratum_budget` is the fixed sample size per pane and stratum,
    /// or 0 for fraction budgets.
    pub fn new(
        block: &[StreamItem<f64>],
        block_ms: i64,
        strata: usize,
        size_ms: i64,
        pane_ms: i64,
        per_stratum_budget: u64,
    ) -> Oracle {
        assert!(block_ms % pane_ms == 0, "the block must hold whole panes");
        assert!(size_ms % pane_ms == 0, "windows must hold whole panes");
        let panes_per_lap = block_ms / pane_ms;
        let mut panes = vec![vec![Cell::default(); strata]; panes_per_lap as usize];
        for item in block {
            let cell = &mut panes[(item.time.as_millis() / pane_ms) as usize][item.stratum.index()];
            cell.count += 1;
            cell.sum += item.value;
        }
        Oracle {
            pane_ms,
            size_ms,
            panes_per_lap,
            panes,
            per_stratum_budget,
        }
    }

    /// The window starts a stream of `laps` whole laps must produce: every
    /// slide multiple from 0 whose window holds at least one pane.
    pub fn window_starts(&self, laps: u64) -> impl Iterator<Item = i64> {
        let panes = laps as i64 * self.panes_per_lap;
        let pane_ms = self.pane_ms;
        (0..panes).map(move |p| p * pane_ms)
    }

    /// The truth of the window starting at `start_ms` in a stream of
    /// `laps` whole laps (panes past the stream's end are empty).
    pub fn window(&self, start_ms: i64, laps: u64) -> Truth {
        let total_panes = laps as i64 * self.panes_per_lap;
        let first = start_ms / self.pane_ms;
        let last = ((start_ms + self.size_ms) / self.pane_ms).min(total_panes);
        let mut strata = vec![Cell::default(); self.panes[0].len()];
        let mut per_stratum_sample = 0;
        for p in first..last {
            for (acc, cell) in strata
                .iter_mut()
                .zip(&self.panes[p.rem_euclid(self.panes_per_lap) as usize])
            {
                acc.count += cell.count;
                acc.sum += cell.sum;
                per_stratum_sample += cell.count.min(self.per_stratum_budget);
            }
        }
        Truth {
            strata,
            per_stratum_sample,
        }
    }
}

/// The paper's accuracy loss, `|approx − exact| / |exact|`.
pub fn accuracy_loss(approx: f64, exact: f64) -> f64 {
    (approx - exact).abs() / exact.abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sa_types::{EventTime, StratumId};

    fn item(s: u32, ms: i64, v: f64) -> StreamItem<f64> {
        StreamItem::new(StratumId(s), EventTime::from_millis(ms), v)
    }

    /// A 4 s block, 1 s panes, 2 s windows, worked out by hand.
    fn oracle() -> Oracle {
        let block = vec![
            item(0, 0, 1.0),
            item(1, 10, 10.0),
            item(0, 999, 3.0),
            item(0, 1_000, 5.0),
            item(1, 2_500, 20.0),
            item(1, 2_600, 40.0),
            item(0, 3_999, 7.0),
        ];
        Oracle::new(&block, 4_000, 2, 2_000, 1_000, 1)
    }

    #[test]
    fn windows_sum_their_panes() {
        let o = oracle();
        // [0, 2s): panes 0 and 1 → stratum 0 holds 1, 3, 5; stratum 1 holds 10.
        let w = o.window(0, 1);
        assert_eq!(w.strata[0], Cell { count: 3, sum: 9.0 });
        assert_eq!(
            w.strata[1],
            Cell {
                count: 1,
                sum: 10.0
            }
        );
        assert_eq!(w.count(), 4);
        assert_eq!(w.mean(), 19.0 / 4.0);
        // min(1, count) per pane and stratum: pane 0 has both strata, pane 1 one.
        assert_eq!(w.per_stratum_sample, 3);
        // [2s, 4s): stratum 0 holds 7; stratum 1 holds 20, 40.
        let w = o.window(2_000, 1);
        assert_eq!(w.strata[0], Cell { count: 1, sum: 7.0 });
        assert_eq!(
            w.strata[1],
            Cell {
                count: 2,
                sum: 60.0
            }
        );
    }

    #[test]
    fn windows_wrap_laps_and_stop_at_the_end() {
        let o = oracle();
        // [3s, 5s) in a two-lap stream: pane 3 of lap 0 and pane 0 of lap 1.
        let w = o.window(3_000, 2);
        assert_eq!(
            w.strata[0],
            Cell {
                count: 3,
                sum: 11.0
            }
        );
        assert_eq!(
            w.strata[1],
            Cell {
                count: 1,
                sum: 10.0
            }
        );
        // In a one-lap stream the same window holds only pane 3.
        let w = o.window(3_000, 1);
        assert_eq!(w.count(), 1);
        assert_eq!(o.window_starts(2).count(), 8);
        assert_eq!(o.window_starts(1).last(), Some(3_000));
    }

    #[test]
    fn accuracy_loss_is_relative() {
        assert_eq!(accuracy_loss(11.0, 10.0), 0.1);
        assert_eq!(accuracy_loss(-9.0, -10.0), 0.1);
    }
}
