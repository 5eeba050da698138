//! The seeded workload generator.
//!
//! One block of event time is generated up front and replayed lap after
//! lap, each lap shifted by the block length, so a run can last as long as
//! it likes while holding one block of items. Each stratum emits evenly
//! spaced items with a stratum-specific phase and Gaussian values, the
//! shape of `sa_workloads::Mix`; the generator is the benchmark's own so
//! that a change to the repository's workload crate cannot change the
//! benchmark's inputs.

use sa_types::{EventTime, StratumId, StreamItem};

/// One sub-stream of a mix: its arrival rate and value distribution.
#[derive(Debug, Clone, Copy)]
pub struct Stratum {
    /// Items per second of event time.
    pub rate: f64,
    /// Mean of the Gaussian values.
    pub mean: f64,
    /// Standard deviation of the Gaussian values.
    pub std_dev: f64,
}

/// The paper's Gaussian microbenchmark mix (§5.1, the fig4 stream) at the
/// given per-stratum rates.
pub fn gaussian_mix(rates: [f64; 3]) -> Vec<Stratum> {
    let params = [(10.0, 5.0), (1_000.0, 50.0), (10_000.0, 500.0)];
    params
        .iter()
        .zip(rates)
        .map(|(&(mean, std_dev), rate)| Stratum {
            rate,
            mean,
            std_dev,
        })
        .collect()
}

/// The skewed Gaussian mix of §5.7-I: 80% / 19% / 1% of `total_rate`.
pub fn skewed_mix(total_rate: f64) -> Vec<Stratum> {
    [
        (0.80, 100.0, 10.0),
        (0.19, 1_000.0, 100.0),
        (0.01, 10_000.0, 1_000.0),
    ]
    .iter()
    .map(|&(share, mean, std_dev)| Stratum {
        rate: total_rate * share,
        mean,
        std_dev,
    })
    .collect()
}

/// A small, fast, seedable generator (SplitMix64).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]`.
    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// A standard normal draw (Box–Muller).
    fn normal(&mut self) -> f64 {
        let (u, v) = (self.unit(), self.unit());
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// One generated block: time-ordered items over `[0, len_ms)`.
pub struct Block {
    pub items: Vec<StreamItem<f64>>,
    pub len_ms: i64,
}

impl Block {
    /// Generates `len_ms` of event time of `mix` from `seed`.
    pub fn generate(mix: &[Stratum], len_ms: i64, seed: u64) -> Block {
        assert!(len_ms > 0, "block length must be positive");
        let parts: Vec<Vec<StreamItem<f64>>> = mix
            .iter()
            .enumerate()
            .map(|(s, spec)| {
                let mut rng = SplitMix::new(seed ^ (s as u64 + 1).wrapping_mul(0xC0FF_EE00_D15C));
                let n = (spec.rate * len_ms as f64 / 1_000.0).round() as usize;
                let spacing = len_ms as f64 / n.max(1) as f64;
                let phase = spacing * (s % 7 + 1) as f64 / 8.0;
                (0..n)
                    .map(|i| {
                        let t = (phase + i as f64 * spacing) as i64;
                        let v = spec.mean + spec.std_dev * rng.normal();
                        StreamItem::new(StratumId(s as u32), EventTime::from_millis(t), v)
                    })
                    .collect()
            })
            .collect();
        Block {
            items: merge_by_time(parts),
            len_ms,
        }
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// How many chunks of `chunk` items one lap is cut into (chunks never
    /// cross a lap end).
    pub fn chunks_per_lap(&self, chunk: usize) -> usize {
        self.items.len().div_ceil(chunk)
    }

    /// Copies chunk `c` of the endless replay into `buf`, event times
    /// shifted by the chunk's lap.
    pub fn fill_chunk(&self, c: u64, chunk: usize, buf: &mut Vec<StreamItem<f64>>) {
        let per_lap = self.chunks_per_lap(chunk) as u64;
        let (lap, k) = (c / per_lap, (c % per_lap) as usize);
        let lo = k * chunk;
        let hi = (lo + chunk).min(self.items.len());
        let shift = lap as i64 * self.len_ms;
        buf.clear();
        buf.extend(self.items[lo..hi].iter().map(|it| StreamItem {
            time: it.time + shift,
            ..*it
        }));
    }

    /// Global index of the first item of chunk `c`.
    pub fn chunk_start(&self, c: u64, chunk: usize) -> u64 {
        let per_lap = self.chunks_per_lap(chunk) as u64;
        (c / per_lap) * self.items.len() as u64 + (c % per_lap) * chunk as u64
    }

    /// The chunk holding the first item at or after event time `t_ms`.
    pub fn chunk_of_time(&self, t_ms: i64, chunk: usize) -> u64 {
        let per_lap = self.chunks_per_lap(chunk) as u64;
        let lap = t_ms.div_euclid(self.len_ms);
        let within = t_ms - lap * self.len_ms;
        let pos = self
            .items
            .partition_point(|it| it.time.as_millis() < within);
        if pos == self.items.len() {
            (lap as u64 + 1) * per_lap
        } else {
            lap as u64 * per_lap + (pos / chunk) as u64
        }
    }
}

/// Merges time-ordered parts into one time-ordered stream (ties keep part
/// order).
fn merge_by_time(parts: Vec<Vec<StreamItem<f64>>>) -> Vec<StreamItem<f64>> {
    let mut out = Vec::with_capacity(parts.iter().map(Vec::len).sum());
    let mut heads = vec![0usize; parts.len()];
    loop {
        let mut best: Option<usize> = None;
        for (p, part) in parts.iter().enumerate() {
            if let Some(item) = part.get(heads[p]) {
                if best.is_none_or(|b| item.time < parts[b][heads[b]].time) {
                    best = Some(p);
                }
            }
        }
        let Some(b) = best else { return out };
        out.push(parts[b][heads[b]]);
        heads[b] += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_are_seeded_ordered_and_sized() {
        let mix = gaussian_mix([480.0, 120.0, 12.0]);
        let a = Block::generate(&mix, 10_000, 7);
        let b = Block::generate(&mix, 10_000, 7);
        let c = Block::generate(&mix, 10_000, 8);
        assert_eq!(a.items, b.items);
        assert_ne!(a.items, c.items);
        assert_eq!(a.len(), 4_800 + 1_200 + 120);
        assert!(a.items.windows(2).all(|w| w[0].time <= w[1].time));
        assert!(a
            .items
            .iter()
            .all(|it| (0..10_000).contains(&it.time.as_millis())));
    }

    #[test]
    fn replay_shifts_laps_and_locates_times() {
        let block = Block::generate(&skewed_mix(1_000.0), 2_000, 1);
        let chunk = 300;
        let per_lap = block.chunks_per_lap(chunk) as u64;
        let mut buf = Vec::new();
        block.fill_chunk(per_lap + 1, chunk, &mut buf);
        assert_eq!(
            block.chunk_start(per_lap + 1, chunk),
            block.len() as u64 + chunk as u64
        );
        assert_eq!(
            buf[0].time.as_millis(),
            block.items[chunk].time.as_millis() + 2_000
        );
        // The first item at or after t sits in the chunk chunk_of_time names.
        for t in [0, 1, 999, 1_500, 2_000, 3_999, 4_000] {
            let c = block.chunk_of_time(t, chunk);
            block.fill_chunk(c, chunk, &mut buf);
            assert!(buf.last().expect("non-empty chunk").time.as_millis() >= t);
            if !c.is_multiple_of(per_lap) {
                block.fill_chunk(c - 1, chunk, &mut buf);
                assert!(buf.last().expect("non-empty chunk").time.as_millis() < t);
            }
        }
    }
}
