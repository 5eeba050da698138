//! The three workloads and the session-level drive loops.
//!
//! Closed loops (`inline_ingest`, `sharded_skew`) push the next chunk as
//! soon as the previous `push_batch` and `poll_windows` return. The open
//! loop (`live_fleet`) hands chunks to two loopback workers on a fixed
//! schedule that does not slow down when the system does, and times each
//! window from the moment its closing chunk was due.

use crate::gen::{gaussian_mix, skewed_mix, Block, Stratum};
use crate::procfs;
use crate::trace::{Span, Tracer};
use sa_types::{RunSeed, SessionSnapshot, SessionStatus, StratumId, WindowSpec};
use std::collections::VecDeque;
use std::thread;
use std::time::{Duration, Instant};
use streamapprox::{
    connect_worker, AggregatedConfig, ApproxSession, CostPolicy, DigestEngine, DistributedConfig,
    DistributedSession, FixedFraction, FixedPerStratum, Query, RecordCodec, ShardedConfig,
    SizingDirective, StreamApprox, WindowResult,
};

/// Items per `push_batch` call — a realistic consumer poll size.
pub const CHUNK: usize = 4_096;

/// Laps of a closed loop's block per measured segment: 1–2 s, so a
/// segment's CPU time spans 150+ ticks of the 10 ms process CPU clock.
const SEGMENT_LAPS: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Inline,
    Sharded,
    Live,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    Fraction(f64),
    PerStratum(usize),
}

impl Budget {
    pub fn directive(self) -> SizingDirective {
        match self {
            Budget::Fraction(f) => SizingDirective::Fraction(f),
            Budget::PerStratum(n) => SizingDirective::PerStratum(n),
        }
    }

    fn policy(self) -> Box<dyn CostPolicy> {
        match self {
            Budget::Fraction(f) => Box::new(FixedFraction(f)),
            Budget::PerStratum(n) => Box::new(FixedPerStratum(n)),
        }
    }
}

/// One workload: its stream, windows, budget and engine.
pub struct Spec {
    pub name: &'static str,
    pub kind: Kind,
    pub mix: Vec<Stratum>,
    /// Event time of the pre-generated block, a whole number of panes.
    pub block_ms: i64,
    pub size_ms: i64,
    pub slide_ms: i64,
    pub budget: Budget,
    /// Shards (sharded engine) or workers (distributed tier); 1 inline.
    pub shards: usize,
    /// Items per pane at the mix's rate: the first pane's sizing hint.
    pub pane_items: usize,
    /// Offered load of the open loop in items per wall second.
    pub rate: Option<f64>,
}

impl Spec {
    pub fn query(&self) -> Query<f64> {
        Query::new(|v: &f64| *v)
            .with_window(WindowSpec::sliding_millis(self.size_ms, self.slide_ms))
    }

    pub fn per_stratum_budget(&self) -> u64 {
        match self.budget {
            Budget::PerStratum(n) => n as u64,
            Budget::Fraction(_) => 0,
        }
    }
}

pub const NAMES: [&str; 3] = ["inline_ingest", "sharded_skew", "live_fleet"];

pub fn spec(name: &str) -> Option<Spec> {
    // 48k + 12k + 1.2k items per event-second: the fig4 stream.
    let fig4_rate = 61_200.0;
    Some(match name {
        "inline_ingest" => Spec {
            name: "inline_ingest",
            kind: Kind::Inline,
            mix: gaussian_mix([48_000.0, 12_000.0, 1_200.0]),
            block_ms: 20_000,
            size_ms: 2_000,
            slide_ms: 1_000,
            budget: Budget::Fraction(0.20),
            shards: 1,
            pane_items: fig4_rate as usize,
            rate: None,
        },
        // One shard: the caller routes, so the engine runs one thread more
        // than it has shards, and two shards on a 2-vCPU host put three
        // spinning threads on two CPUs. Throughput then follows the
        // scheduler (51–76 M items/s within one run; one competing busy
        // process cut it sixfold), not the program.
        "sharded_skew" => Spec {
            name: "sharded_skew",
            kind: Kind::Sharded,
            mix: skewed_mix(fig4_rate),
            block_ms: 20_000,
            size_ms: 2_000,
            slide_ms: 1_000,
            budget: Budget::Fraction(0.05),
            shards: 1,
            pane_items: fig4_rate as usize,
            rate: None,
        },
        // 100k items per event-second offered at 10M items per wall
        // second: event time runs 100x faster than the wall clock, so a
        // 10 s run closes ~4,000 windows of 40 panes each — enough for a
        // supported p99 — and each worker closes a pane every 2.5 ms.
        "live_fleet" => Spec {
            name: "live_fleet",
            kind: Kind::Live,
            mix: skewed_mix(100_000.0),
            block_ms: 8_000,
            size_ms: 10_000,
            slide_ms: 250,
            budget: Budget::PerStratum(200),
            shards: 2,
            pane_items: 25_000,
            rate: Some(10_000_000.0),
        },
        _ => return None,
    })
}

/// Strata of every mix the generator makes.
pub const STRATA: usize = 3;

/// What the checks need of one window. Runs keep this instead of the whole
/// `WindowResult` (several heap vectors each), so the harness's own memory
/// barely grows with a run's throughput and `peak_rss_mb` stays the
/// system's.
pub struct Seen {
    pub start: i64,
    pub population: u64,
    pub sample: u64,
    /// Per stratum: population and estimated sum; `None` where the window
    /// has no estimate for the stratum.
    pub strata: [Option<(u64, f64)>; STRATA],
    pub mean: f64,
    pub interval: (f64, f64),
    /// `degraded`, or items lost to missing shards.
    pub degraded: bool,
}

impl Seen {
    fn of(w: &WindowResult) -> Seen {
        Seen {
            start: w.window.start.as_millis(),
            population: w.sum.population_size,
            sample: w.sum.sample_size,
            strata: std::array::from_fn(|s| {
                w.stratum_sum(StratumId(s as u32))
                    .map(|r| (r.population_size, r.value))
            }),
            mean: w.mean.value,
            interval: w.mean.interval(),
            degraded: w.degraded || w.lost_items > 0,
        }
    }
}

/// What one drive of a workload measured.
#[derive(Default)]
pub struct Run {
    /// Items handed to the system in the timed region.
    pub items: u64,
    /// Whole laps of the block each stream of the timed region replayed.
    pub laps: u64,
    /// Independent streams the run drove, each from event time 0: one per
    /// live fleet, one for a closed loop.
    pub streams: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Throughput (M items/s) and CPU (ns/item) of each whole segment of
    /// the timed region; host noise comes in bursts, so their medians are
    /// steadier than whole-run ratios.
    pub segment_mitems_s: Vec<f64>,
    pub segment_cpu_ns: Vec<f64>,
    pub setup_s: Vec<f64>,
    /// Emit latency of every polled window.
    pub latencies_ms: Vec<f64>,
    /// Emit latency minus the blocking path's own times (generator lag,
    /// the closing `push_batch`, the returning poll).
    pub wait_ms: Vec<f64>,
    /// Every window the run produced, polled or flushed by `finish`.
    pub windows: Vec<Seen>,
    pub ingested: u64,
    pub aggregated: u64,
    /// `push_batch` calls, and those that erred or late-dropped items.
    pub calls: u64,
    pub failed_calls: u64,
    /// Generator lateness per chunk: behind schedule (open loop), or the
    /// caller's wait on the generator between pushes (closed loop, traced
    /// runs only: one value per chunk would grow with throughput).
    pub gen_lag_ms: Vec<f64>,
    pub spans: Vec<Span>,
    /// Session status just before `finish` (the last fleet's).
    pub status: Option<SessionStatus>,
    /// Degraded panes and lost items over every coordinator of the run.
    pub health: (u64, u64),
    pub worker_lag_max: u64,
    /// The last checkpoint a live worker took.
    pub snapshot: Option<SessionSnapshot>,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Builds and drives `spec` for `seconds`, after `setup_reps` timed
/// set-ups (the last one is kept for the run).
pub fn drive(spec: &Spec, seed: u64, seconds: f64, trace: bool, setup_reps: usize) -> (Run, Block) {
    match spec.kind {
        Kind::Inline | Kind::Sharded => closed_loop(spec, seed, seconds, trace, setup_reps),
        Kind::Live => live_fleet(spec, seed, seconds, trace, setup_reps),
    }
}

/// A local session of the workload's engine; checkpointable on request.
pub fn start_local(spec: &Spec, seed: u64, checkpointable: bool) -> ApproxSession<'static, f64> {
    let mut builder = StreamApprox::new(spec.query(), spec.budget.policy());
    if checkpointable {
        builder = builder.checkpointable();
    }
    match spec.kind {
        Kind::Inline => builder.aggregated(AggregatedConfig::new().with_seed(seed)),
        Kind::Sharded => builder.sharded(
            ShardedConfig::new(spec.shards)
                .with_seed(seed)
                .with_expected_pane_items(spec.pane_items),
        ),
        Kind::Live => unreachable!("the live fleet runs distributed sessions"),
    }
    .start()
}

fn closed_loop(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_reps: usize,
) -> (Run, Block) {
    let mut run = Run::default();
    let mut ready = None;
    for rep in 0..setup_reps.max(1) {
        let started = Instant::now();
        let block = Block::generate(&spec.mix, spec.block_ms, seed);
        let session = start_local(spec, seed, false);
        run.setup_s.push(started.elapsed().as_secs_f64());
        if rep + 1 < setup_reps {
            let _ = session.finish();
        } else {
            ready = Some((block, session));
        }
    }
    let (block, mut session) = ready.expect("at least one set-up");
    let per_lap = block.chunks_per_lap(CHUNK) as u64;
    let deadline = Duration::from_secs_f64(seconds);
    let mut buf = Vec::with_capacity(CHUNK);
    // Pushed chunks not yet matched to a window: (last item ms, handed to
    // push_batch, push_batch returned).
    let mut pending: VecDeque<(i64, Instant, Instant)> = VecDeque::new();

    let cpu0 = procfs::cpu_seconds();
    let origin = Instant::now();
    let mut tr = Tracer::new(trace, origin);
    let mut last_return = origin;
    let mut segment = (origin, cpu0, 0u64);
    let mut c = 0u64;
    while !c.is_multiple_of(per_lap) || c == 0 || origin.elapsed() < deadline {
        let root = tr.begin("chunk", c as i64, None);
        let g = tr.begin("gen.replay", c as i64, root);
        block.fill_chunk(c, CHUNK, &mut buf);
        tr.end(g);
        let last = buf.last().expect("chunks are non-empty").time.as_millis();
        let id = last / spec.slide_ms;
        run.items += buf.len() as u64;
        let hand = Instant::now();
        if trace {
            run.gen_lag_ms.push(ms(hand - last_return));
        }
        let p = tr.begin("push_batch", id, root);
        match session.push_batch(buf.drain(..)) {
            Ok(delta) if delta.dropped_late == 0 => {}
            _ => run.failed_calls += 1,
        }
        tr.end(p);
        run.calls += 1;
        let pushed = Instant::now();
        pending.push_back((last, hand, pushed));
        let q = tr.begin("poll_windows", id, root);
        let windows = session.poll_windows();
        tr.end(q);
        let now = Instant::now();
        if !windows.is_empty() {
            for w in windows {
                let end = w.window.end.as_millis();
                while pending.front().is_some_and(|f| f.0 < end) {
                    pending.pop_front();
                }
                let &(_, hand, closed) = pending.front().expect("the closing chunk was pushed");
                run.latencies_ms.push(ms(now - hand));
                // What is left once the closing push and the returning
                // poll are taken out: the wait between them.
                run.wait_ms
                    .push(ms(pushed.saturating_duration_since(closed)));
                run.windows.push(Seen::of(&w));
            }
            let s = tr.begin("settle", id, root);
            if session.settle().is_err() {
                run.failed_calls += 1;
            }
            tr.end(s);
        }
        tr.end(root);
        last_return = Instant::now();
        c += 1;
        if c.is_multiple_of(per_lap * SEGMENT_LAPS) {
            let (cpu, items) = (procfs::cpu_seconds(), run.items - segment.2);
            let wall = last_return - segment.0;
            run.segment_mitems_s
                .push(items as f64 / wall.as_secs_f64() / 1e6);
            run.segment_cpu_ns
                .push((cpu - segment.1) * 1e9 / items as f64);
            segment = (last_return, cpu, run.items);
        }
    }
    run.laps = c / per_lap;
    run.streams = 1;
    run.status = Some(session.status());
    let f = tr.begin("finish", -1, None);
    let out = session.finish();
    tr.end(f);
    run.wall_s = origin.elapsed().as_secs_f64();
    run.cpu_s = procfs::cpu_seconds() - cpu0;
    run.ingested = out.items_ingested;
    run.aggregated = out.items_aggregated;
    run.windows.extend(out.windows.iter().map(Seen::of));
    run.spans = tr.spans;
    (run, block)
}

/// Per-chunk schedule record of a live feeder, in ns since the origin.
#[derive(Clone, Copy)]
struct ChunkRec {
    chunk: u64,
    due: u64,
    start: u64,
    end: u64,
}

struct FeedOut {
    recs: Vec<ChunkRec>,
    spans: Vec<Span>,
    calls: u64,
    failed: u64,
    snapshot: Option<SessionSnapshot>,
    ingested: u64,
}

fn start_fleet(
    spec: &Spec,
    seed: u64,
) -> Result<(DistributedSession, Vec<DigestEngine<f64>>), sa_types::SaError> {
    let coordinator = StreamApprox::new(spec.query(), spec.budget.policy()).distributed(
        DistributedConfig::new(spec.shards as u32)
            .with_seed(RunSeed::new(seed))
            .with_expected_pane_items(spec.pane_items),
    )?;
    let addr = coordinator.addr();
    let workers = (0..spec.shards as u32)
        .map(|w| {
            connect_worker(addr, w, false, |v: &f64| *v)
                .map(|e| e.checkpointable(RecordCodec::new()))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((coordinator, workers))
}

/// Fleets started one after another in a live run. A fleet's worker
/// connections settle into one of two transport modes that usually holds
/// for the rest of its run (see the README), so the latency medians, taken
/// over groups of windows, are a majority vote over several fleets rather
/// than one coin toss.
const FLEETS: usize = 5;

/// Share of each fleet's schedule whose windows are not timed.
const WARMUP_SHARE: f64 = 0.2;

fn live_fleet(
    spec: &Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_reps: usize,
) -> (Run, Block) {
    let mut run = Run::default();
    // Set-ups beyond one per fleet are timed and torn down unused.
    for _ in FLEETS..setup_reps {
        let started = Instant::now();
        let block = Block::generate(&spec.mix, spec.block_ms, seed);
        let (coordinator, workers) = start_fleet(spec, seed).expect("a loopback fleet starts");
        run.setup_s.push(started.elapsed().as_secs_f64());
        drop(block);
        for w in workers {
            let _ = ApproxSession::from_engine(Box::new(w)).finish();
        }
        let _ = coordinator.finish();
    }
    let origin = Instant::now();
    let mut last = None;
    for _ in 0..FLEETS {
        drop(last.take());
        let started = Instant::now();
        let block = Block::generate(&spec.mix, spec.block_ms, seed);
        let fleet = start_fleet(spec, seed).expect("a loopback fleet starts");
        run.setup_s.push(started.elapsed().as_secs_f64());
        let share = seconds / FLEETS as f64;
        drive_fleet(spec, &block, fleet, share, trace, origin, &mut run);
        last = Some(block);
    }
    (run, last.expect("at least one fleet"))
}

/// Drives one fleet for `seconds` and adds what it measured to `run`.
fn drive_fleet(
    spec: &Spec,
    block: &Block,
    fleet: (DistributedSession, Vec<DigestEngine<f64>>),
    seconds: f64,
    trace: bool,
    origin: Instant,
    run: &mut Run,
) {
    let rate = spec.rate.expect("the live fleet is an open loop");
    let (mut coordinator, workers) = fleet;
    let per_lap = block.chunks_per_lap(CHUNK) as u64;
    let laps = ((seconds * rate) / block.len() as f64).ceil().max(1.0) as u64;
    let total_chunks = laps * per_lap;
    let nodes = workers.len() as u64;

    // Windows closed in the first fifth of the schedule are checked but
    // not timed: the fleet's connections are still settling.
    let warm_chunks = (WARMUP_SHARE * total_chunks as f64) as u64;

    let cpu0 = procfs::cpu_seconds();
    let started = Instant::now();
    // A short lead lets both feeders reach their first due time.
    let t0 = started + Duration::from_millis(5);
    let due_of = |c: u64| t0 + Duration::from_secs_f64(block.chunk_start(c, CHUNK) as f64 / rate);
    let mut tr = Tracer::new(trace, origin);
    // Polled windows: (closing chunk, poll began, poll returned).
    let mut polled: Vec<(u64, Instant, Instant)> = Vec::new();
    let outs: Vec<FeedOut> = thread::scope(|scope| {
        let feeders: Vec<_> = workers
            .into_iter()
            .enumerate()
            .map(|(w, engine)| {
                scope.spawn(move || {
                    feed(
                        engine,
                        block,
                        w as u64,
                        nodes,
                        total_chunks,
                        rate,
                        t0,
                        origin,
                        trace,
                    )
                })
            })
            .collect();
        let mut polls = 0u64;
        loop {
            let done = feeders.iter().all(|f| f.is_finished());
            let began = Instant::now();
            let q = tr.begin("net.poll", polls as i64, None);
            let result = coordinator.poll_windows();
            tr.end(q);
            let now = Instant::now();
            match result {
                Ok(windows) => {
                    for w in windows {
                        // The window closes once both workers hold an item
                        // at or past its end: the chunk after the one
                        // holding the first such item. Windows the final
                        // shutdown closes have no closing chunk.
                        let close = block.chunk_of_time(w.window.end.as_millis(), CHUNK) + 1;
                        if (warm_chunks..total_chunks).contains(&close) {
                            run.latencies_ms
                                .push(ms(now.saturating_duration_since(due_of(close))));
                            polled.push((close, began, now));
                        }
                        run.windows.push(Seen::of(&w));
                    }
                }
                Err(_) => run.failed_calls += 1,
            }
            polls += 1;
            if polls.is_multiple_of(64) {
                let status = coordinator.status();
                let lag = status.workers.iter().map(|w| w.lag).max().unwrap_or(0);
                run.worker_lag_max = run.worker_lag_max.max(lag);
            }
            if done {
                break;
            }
            thread::sleep(Duration::from_micros(200));
        }
        feeders
            .into_iter()
            .map(|f| f.join().expect("feeder thread"))
            .collect()
    });
    let status = coordinator.status();
    let f = tr.begin("finish", -1, None);
    let out = coordinator.finish();
    tr.end(f);
    run.wall_s += started.elapsed().as_secs_f64();
    run.cpu_s += procfs::cpu_seconds() - cpu0;
    run.laps = laps;
    run.items += laps * block.len() as u64;
    run.worker_lag_max = run
        .worker_lag_max
        .max(status.workers.iter().map(|w| w.lag).max().unwrap_or(0));
    run.health.0 += status.degraded_panes;
    run.health.1 += status.lost_items;
    run.status = Some(status);
    match out {
        Ok(out) => {
            run.aggregated += out.items_aggregated;
            run.windows.extend(out.windows.iter().map(Seen::of));
        }
        Err(_) => run.failed_calls += 1,
    }

    let mut recs: Vec<Option<ChunkRec>> = vec![None; total_chunks as usize];
    for out in outs {
        run.calls += out.calls;
        run.failed_calls += out.failed;
        run.ingested += out.ingested;
        run.snapshot = out.snapshot.or(run.snapshot.take());
        run.spans.extend(out.spans);
        for r in out.recs {
            run.gen_lag_ms
                .push((r.start.saturating_sub(r.due)) as f64 / 1e6);
            recs[r.chunk as usize] = Some(r);
        }
    }
    for (close, began, now) in polled {
        let Some(r) = recs.get(close as usize).copied().flatten() else {
            continue;
        };
        let latency = ms(now - origin) - r.due as f64 / 1e6;
        let blocking = (r.end - r.due) as f64 / 1e6 + ms(now - began);
        run.wait_ms.push(latency - blocking);
    }
    run.spans.extend(tr.spans);
    run.streams += 1;
}

/// One feeder thread: hands worker `w` chunks `w, w + nodes, …` at their
/// due times and checkpoints whenever the session says one is due.
#[allow(clippy::too_many_arguments)]
fn feed(
    engine: DigestEngine<f64>,
    block: &Block,
    w: u64,
    nodes: u64,
    total_chunks: u64,
    rate: f64,
    t0: Instant,
    origin: Instant,
    trace: bool,
) -> FeedOut {
    let lag = engine.lag_handle();
    let mut session = ApproxSession::from_engine(Box::new(engine));
    let mut tr = Tracer::new(trace, origin);
    let since = |t: Instant| t.saturating_duration_since(origin).as_nanos() as u64;
    let mut buf = Vec::with_capacity(CHUNK);
    let mut out = FeedOut {
        recs: Vec::new(),
        spans: Vec::new(),
        calls: 0,
        failed: 0,
        snapshot: None,
        ingested: 0,
    };
    let mut c = w;
    while c < total_chunks {
        let first = block.chunk_start(c, CHUNK);
        let due = t0 + Duration::from_secs_f64(first as f64 / rate);
        let now = Instant::now();
        if due > now {
            thread::sleep(due - now);
        }
        let start = Instant::now();
        let behind = ((start.saturating_duration_since(t0)).as_secs_f64() * rate) as u64;
        lag.store(
            behind.saturating_sub(first),
            std::sync::atomic::Ordering::Relaxed,
        );
        let g = tr.begin("gen.replay", c as i64, None);
        block.fill_chunk(c, CHUNK, &mut buf);
        tr.end(g);
        let id = buf[0].time.as_millis();
        let p = tr.begin("push_batch", id, None);
        match session.push_batch(buf.drain(..)) {
            Ok(delta) if delta.dropped_late == 0 => {}
            _ => out.failed += 1,
        }
        tr.end(p);
        out.calls += 1;
        out.recs.push(ChunkRec {
            chunk: c,
            due: since(due),
            start: since(start),
            end: since(Instant::now()),
        });
        if session.checkpoint_due() {
            let k = tr.begin("checkpoint", id, None);
            match session.checkpoint() {
                Ok(snapshot) => out.snapshot = Some(snapshot),
                Err(_) => out.failed += 1,
            }
            tr.end(k);
        }
        c += nodes;
    }
    out.ingested = session.status().ingest.ingested;
    let f = tr.begin("finish", -1, None);
    let _ = session.finish();
    tr.end(f);
    out.spans = tr.spans;
    out
}
