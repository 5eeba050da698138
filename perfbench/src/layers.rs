//! The layer replay: the workload's items driven through each layer's
//! public functions in the order the engines call them, each call timed
//! on its own.
//!
//! Per chunk, items are routed as the workload's engine routes them (one
//! shard inline, `ShardSet::route` sharded, chunk by chunk across workers
//! in the live fleet) and offered to `IntervalWorker::observe_chunk`. At
//! every pane boundary each worker closes (`close_interval_parts`), its
//! digest is framed and unframed (`sa_net::frame`) and sent once around a
//! loopback socket pair owned by the replay, the panes are merged
//! (`ShardSet::merge_panes`), and the result goes through
//! `WindowFinalizer`. Estimation is timed on its own beside the calls
//! that embed it: `StratumStats::from_sample` on the first worker's pane,
//! and the `sa_estimate::estimate_*` functions over each finished
//! window's pane statistics.

use crate::gen::Block;
use crate::workloads::{start_local, Kind, Spec, CHUNK};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sa_estimate::{
    estimate_mean, estimate_mean_by_stratum, estimate_sum, estimate_sum_by_stratum, StratumStats,
};
use sa_net::frame::{read_message, write_message};
use sa_net::{Digest, DigestPayload, FrameBuffer, Message};
use sa_types::{EventTime, IngestCounters, RunSeed, SessionSnapshot, Window};
use std::collections::VecDeque;
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::thread;
use std::time::{Duration, Instant};
use streamapprox::{seal_session_snapshot, PanePayload, ShardSet, WindowFinalizer, WorkerPane};

/// Timings and counts of one replay; times in microseconds unless named.
#[derive(Default)]
pub struct Layers {
    pub observe_ns: f64,
    pub observed: u64,
    pub seen: u64,
    pub held: u64,
    pub close_us: Vec<f64>,
    pub merge_us: Vec<f64>,
    pub estimate_pane_us: Vec<f64>,
    pub estimate_window_us: Vec<f64>,
    pub finalize_pane_us: Vec<f64>,
    pub finalize_window_us: Vec<f64>,
    pub encode_us: Vec<f64>,
    pub decode_us: Vec<f64>,
    pub digest_bytes: Vec<f64>,
    pub rtt_us: Vec<f64>,
    pub checkpoint_us: Vec<f64>,
    pub checkpoint_bytes: Vec<f64>,
    pub panes: u64,
    pub failures: u64,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let out = f();
    (out, us(started.elapsed()))
}

/// An echo peer on a loopback socket pair: every frame sent comes back.
struct Echo {
    stream: TcpStream,
    peer: Option<thread::JoinHandle<()>>,
}

impl Echo {
    fn start() -> std::io::Result<Echo> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        let (mut inbound, _) = listener.accept()?;
        let peer = thread::spawn(move || {
            while let Ok(Some(msg)) = read_message(&mut inbound) {
                if write_message(&mut inbound, &msg).is_err() {
                    break;
                }
            }
        });
        Ok(Echo {
            stream,
            peer: Some(peer),
        })
    }

    fn round_trip(&mut self, msg: &Message) -> bool {
        write_message(&mut self.stream, msg).is_ok()
            && matches!(read_message(&mut self.stream), Ok(Some(_)))
    }
}

impl Drop for Echo {
    fn drop(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        if let Some(peer) = self.peer.take() {
            let _ = peer.join();
        }
    }
}

/// Replays whole laps of `block` through the layers until `budget_s` has
/// passed (at least `min_laps`). `snapshot` is a session checkpoint taken
/// by the workload's own run, sealed here when the workload's engine
/// cannot be checkpointed locally.
pub fn replay(
    spec: &Spec,
    block: &Block,
    seed: u64,
    budget_s: f64,
    min_laps: u64,
    snapshot: Option<&SessionSnapshot>,
) -> Layers {
    let mut l = Layers::default();
    let query = spec.query();
    let mut shard_set = ShardSet::new(spec.shards, RunSeed::new(seed), query.projection());
    let mut workers = shard_set
        .rearm(spec.budget.directive(), spec.pane_items)
        .expect("a fresh shard set arms");
    let mut finalizer = WindowFinalizer::new(query.window(), query.confidence());
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut echo = Echo::start().expect("a loopback socket pair");
    let panes_per_window = (spec.size_ms / spec.slide_ms) as usize;
    let mut recent: VecDeque<Vec<StratumStats>> = VecDeque::new();
    let mut routed: Vec<Vec<_>> = vec![Vec::with_capacity(CHUNK); spec.shards];
    let mut buf = Vec::with_capacity(CHUNK);
    let mut fb = FrameBuffer::new();
    let per_lap = block.chunks_per_lap(CHUNK) as u64;
    let mut pane: Option<i64> = None;
    let mut seq = 0u64;
    let started = Instant::now();
    let mut c = 0u64;
    while !c.is_multiple_of(per_lap)
        || c < min_laps * per_lap
        || started.elapsed().as_secs_f64() < budget_s
    {
        block.fill_chunk(c, CHUNK, &mut buf);
        let mut rest = &buf[..];
        while !rest.is_empty() {
            let p = rest[0].time.as_millis().div_euclid(spec.slide_ms);
            if pane.is_some_and(|open| open != p) {
                close_pane(
                    spec,
                    pane.take().expect("an open pane"),
                    &mut workers,
                    &shard_set,
                    &mut finalizer,
                    &mut rng,
                    &mut echo,
                    &mut fb,
                    &mut recent,
                    panes_per_window,
                    &mut l,
                );
            }
            pane = Some(p);
            let split =
                rest.partition_point(|it| it.time.as_millis().div_euclid(spec.slide_ms) == p);
            for item in &rest[..split] {
                let shard = match spec.kind {
                    Kind::Inline => 0,
                    Kind::Sharded => shard_set.route(item.stratum, seq),
                    Kind::Live => (c % spec.shards as u64) as usize,
                };
                seq += 1;
                routed[shard].push(*item);
            }
            for (worker, items) in workers.iter_mut().zip(&mut routed) {
                if items.is_empty() {
                    continue;
                }
                let n = items.len() as u64;
                let started = Instant::now();
                worker.observe_chunk(items);
                l.observe_ns += started.elapsed().as_nanos() as f64;
                l.observed += n;
            }
            rest = &rest[split..];
        }
        c += 1;
    }
    // The pane still open at the end is left unclosed: only whole panes count.
    checkpoint_replay(spec, block, seed, snapshot, &mut l);
    l
}

#[allow(clippy::too_many_arguments)]
fn close_pane(
    spec: &Spec,
    pane: i64,
    workers: &mut [streamapprox::IntervalWorker<f64>],
    shard_set: &ShardSet<f64>,
    finalizer: &mut WindowFinalizer,
    rng: &mut SmallRng,
    echo: &mut Echo,
    fb: &mut FrameBuffer,
    recent: &mut VecDeque<Vec<StratumStats>>,
    panes_per_window: usize,
    l: &mut Layers,
) {
    let start = pane * spec.slide_ms;
    let window = Window::new(
        EventTime::from_millis(start),
        EventTime::from_millis(start + spec.slide_ms),
    );
    let mut parts = Vec::with_capacity(workers.len());
    for (w, worker) in workers.iter_mut().enumerate() {
        let (part, t) = timed(|| worker.close_interval_parts());
        l.close_us.push(t);
        if let WorkerPane::Sampled(sample) = &part {
            l.seen += sample.total_population();
            l.held += sample.total_sampled();
            if w == 0 {
                let (_, t) = timed(|| {
                    black_box(
                        sample
                            .iter()
                            .map(|s| StratumStats::from_sample(s, |v| *v))
                            .collect::<Vec<_>>(),
                    )
                });
                l.estimate_pane_us.push(t);
            }
            let msg = Message::PaneDigest(Digest {
                worker: w as u32,
                pane: window,
                counters: IngestCounters::default(),
                watermark: Some(window.end),
                lag: 0,
                last_checkpoint_pane: None,
                items_since_checkpoint: 0,
                snapshot_bytes: 0,
                payload: DigestPayload::Sampled(sample.clone()),
            });
            let mut wire = Vec::new();
            let (ok, t) = timed(|| write_message(&mut wire, &msg).is_ok());
            l.encode_us.push(t);
            l.digest_bytes.push(wire.len() as f64);
            let (decoded, t) = timed(|| {
                fb.extend(&wire);
                fb.next_message()
            });
            l.decode_us.push(t);
            if !ok || !matches!(decoded, Ok(Some(ref m)) if *m == msg) {
                l.failures += 1;
            }
            let (ok, t) = timed(|| echo.round_trip(&msg));
            l.rtt_us.push(t);
            if !ok {
                l.failures += 1;
            }
        }
        parts.push(part);
    }
    let (payload, t) = timed(|| shard_set.merge_panes(parts, rng));
    l.merge_us.push(t);
    if let PanePayload::Stratified(stats) = &payload {
        recent.push_back(stats.clone());
        if recent.len() > panes_per_window {
            recent.pop_front();
        }
    }
    let (_, t) = timed(|| finalizer.ingest_interval(window, payload));
    l.finalize_pane_us.push(t);
    let (done, t) = timed(|| {
        finalizer.close_interval(window.end);
        finalizer.drain_windows()
    });
    if !done.is_empty() {
        l.finalize_window_us.push(t / done.len() as f64);
        let confidence = finalizer.confidence();
        let (_, t) = timed(|| {
            let mut merged: Vec<StratumStats> = Vec::new();
            for s in recent.iter().flatten() {
                match merged.iter_mut().find(|m| m.stratum == s.stratum) {
                    Some(m) => m.merge(s),
                    None => merged.push(*s),
                }
            }
            merged.sort_by_key(|s| s.stratum);
            black_box((
                estimate_sum(&merged, confidence),
                estimate_mean(&merged, confidence),
                estimate_sum_by_stratum(&merged, confidence),
                estimate_mean_by_stratum(&merged, confidence),
            ))
        });
        l.estimate_window_us.push(t);
    }
    l.panes += 1;
}

/// Session checkpoints and their sealing. Local engines are checkpointed
/// at every due point of a checkpointable session fed the block's first
/// two laps; the distributed worker's engine needs a coordinator, so its
/// snapshot comes from the workload's own run and is only sealed here.
fn checkpoint_replay(
    spec: &Spec,
    block: &Block,
    seed: u64,
    snapshot: Option<&SessionSnapshot>,
    l: &mut Layers,
) {
    let seal = |snapshot: &SessionSnapshot, l: &mut Layers| match seal_session_snapshot(snapshot) {
        Ok(bytes) => l.checkpoint_bytes.push(bytes.len() as f64),
        Err(_) => l.failures += 1,
    };
    if spec.kind == Kind::Live {
        if let Some(snapshot) = snapshot {
            seal(snapshot, l);
        }
        return;
    }
    let mut session = start_local(spec, seed, true);
    let mut buf = Vec::with_capacity(CHUNK);
    for c in 0..2 * block.chunks_per_lap(CHUNK) as u64 {
        block.fill_chunk(c, CHUNK, &mut buf);
        if session.push_batch(buf.drain(..)).is_err() {
            l.failures += 1;
        }
        if session.checkpoint_due() {
            let (taken, t) = timed(|| session.checkpoint());
            l.checkpoint_us.push(t);
            match taken {
                Ok(snapshot) => seal(&snapshot, l),
                Err(_) => l.failures += 1,
            }
        }
    }
    let _ = session.finish();
}
