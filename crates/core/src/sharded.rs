//! The sharded data-parallel engine: hash-partitioned OASRS over
//! mergeable stratified samplers, on a lock-free SPSC ring fabric.
//!
//! StreamApprox's core scalability claim is that OASRS is *mergeable*:
//! shard-local samples combine without bias, so sampling parallelizes
//! across workers with no synchronization on the hot path (§3.2; the
//! distributed follow-up develops the same idea across nodes). This
//! engine is that claim as an execution substrate:
//!
//! * **Routing over bounded rings** — every accepted item is
//!   hash-partitioned ([`ShardSet::route`]) across `N` worker shards,
//!   each a thread owning its own per-stratum [`IntervalWorker`] (OASRS
//!   samplers at *full* per-stratum capacity, or exact Welford
//!   accumulators under native execution). Items travel in chunks over a
//!   pair of bounded SPSC rings per shard ([`crossbeam::spsc`]): a
//!   command ring down (arm/chunk/close, FIFO per shard) and a return
//!   ring back up (drained chunk buffers and close answers). The rings
//!   are lock-free slot arrays — no allocation, mutex or condvar wakeup
//!   per message on the hot path.
//! * **Buffer recycling** — a shard *drains* each chunk into its sampler
//!   and hands the emptied `Vec` back on the return ring; the router
//!   reuses it for a later chunk. At steady state routing therefore
//!   performs **zero allocations per chunk** (only the first ring-depth
//!   chunks are freshly allocated); the `chunks_routed`/`chunks_recycled`
//!   counters on [`ShardIngest`] make this observable.
//! * **Backpressure** — the command ring is bounded, so a shard that
//!   falls behind fills its ring and the router's `push_chunk` blocks
//!   (spinning and yielding, while still draining returns) instead of
//!   queueing unboundedly: a lagging shard costs latency, never unbounded
//!   memory.
//! * **Merge/ingest overlap** — at a pane boundary the engine broadcasts
//!   the close and *returns immediately*: shards answer the close and
//!   begin the next pane's chunks (already queued behind the close in
//!   FIFO order) while the caller keeps routing. The barrier is settled —
//!   answers collected, shard panes merged in canonical ascending-shard
//!   order ([`ShardSet::merge_panes`]), the pane estimated and handed to
//!   the shared [`ApproxRuntime`] — at the latest when the *next* pane
//!   closes, and eagerly on `poll_windows`/`status`. Exactly one barrier
//!   is ever in flight, so every close answer is attributable without
//!   tags.
//!
//! # Watermark and ordering semantics
//!
//! The session in front of this engine enforces global event-time order,
//! and each shard's command ring is FIFO, so a shard observes its
//! sub-stream in stream order and always finishes pane `k` (by answering
//! its close) before touching pane `k+1` items. The engine's watermark
//! only advances when a barrier *resolves* — after every shard has
//! answered — so no shard can contribute items to a pane whose windows
//! the finalizer already sealed, and deferring the barrier never
//! reorders or loses data relative to the single-threaded engines. The
//! cost policy is consulted once per pane, as on the blocking design;
//! because the previous pane's merge may still be in flight at consult
//! time, feedback-driven policies observe each pane's feedback one pane
//! later than the batched engine (constant policies are unaffected).
//! With one shard the engine stays bit-for-bit identical to the batched
//! engine at the same seed and pane interval (`tests/engine_parity.rs`
//! holds that oracle); with many shards the answers agree statistically,
//! within the estimators' confidence bounds.

use crate::checkpoint::RecordCodec;
use crate::combine::PanePayload;
use crate::cost::PolicyHandle;
use crate::engine::Engine;
use crate::output::RunOutput;
use crate::query::Query;
use crate::runtime::{ApproxRuntime, IntervalWorker, PaneCursor, ShardSet, WorkerPane};
use crossbeam::spsc;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sa_types::wire::put_varint;
use sa_types::{
    EngineSnapshot, EventTime, RunSeed, SaError, ShardIngest, SizingDirective, StreamItem, Window,
    WindowResult, WireDecode, WireEncode, WireReader,
};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// Configuration of the sharded engine for one session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardedConfig {
    /// Number of worker shards (threads).
    pub shards: usize,
    /// Sampling-interval length in event-time milliseconds; `None` uses
    /// the query's window slide, the paper's interval choice (§5.5).
    pub pane_interval_ms: Option<i64>,
    /// Items buffered per shard before a chunk is shipped to its thread;
    /// larger chunks amortize ring traffic, smaller ones reduce the
    /// sampling lag behind ingestion.
    pub chunk_items: usize,
    /// Chunks each shard's command ring holds before routing blocks on
    /// that shard — the backpressure depth. Smaller rings bound memory
    /// tighter and stall the router sooner behind a slow shard; larger
    /// rings absorb longer hiccups.
    pub ring_chunks: usize,
    /// Seed for every sampling (and merge) decision.
    pub seed: RunSeed,
    /// Expected items in the first pane — the fraction policy's
    /// first-interval capacity hint, exactly as on the pipelined engine;
    /// from the second pane on, sizing adapts from real arrival counters.
    pub expected_pane_items: usize,
}

impl ShardedConfig {
    /// A configuration with `shards` worker threads and defaults
    /// otherwise: slide-sized panes, 1024-item chunks, 8-chunk rings,
    /// default seed.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        ShardedConfig {
            shards,
            pane_interval_ms: None,
            chunk_items: 1_024,
            ring_chunks: 8,
            seed: RunSeed::DEFAULT,
            expected_pane_items: 0,
        }
    }

    /// Overrides the sampling-interval length.
    ///
    /// # Panics
    ///
    /// Panics if `ms` is not positive.
    #[must_use]
    pub fn with_pane_interval_ms(mut self, ms: i64) -> Self {
        assert!(ms > 0, "pane interval must be positive");
        self.pane_interval_ms = Some(ms);
        self
    }

    /// Sets the per-shard chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `items` is zero.
    #[must_use]
    pub fn with_chunk_items(mut self, items: usize) -> Self {
        assert!(items > 0, "chunk size must be positive");
        self.chunk_items = items;
        self
    }

    /// Sets the per-shard command-ring depth (in chunks).
    ///
    /// # Panics
    ///
    /// Panics if `chunks` is zero.
    #[must_use]
    pub fn with_ring_chunks(mut self, chunks: usize) -> Self {
        assert!(chunks > 0, "ring depth must be positive");
        self.ring_chunks = chunks;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: impl Into<RunSeed>) -> Self {
        self.seed = seed.into();
        self
    }

    /// Sets the first-pane volume hint for fraction budgets.
    #[must_use]
    pub fn with_expected_pane_items(mut self, items: usize) -> Self {
        self.expected_pane_items = items;
        self
    }
}

/// Commands the engine sends down a shard's command ring.
enum ToShard<R> {
    /// Replace the shard's interval worker (first pane, or the cost
    /// policy changed its directive).
    Arm(Box<IntervalWorker<R>>),
    /// A chunk of routed items to observe, in stream order. The shard
    /// drains the buffer and returns it for recycling.
    Chunk(Vec<StreamItem<R>>),
    /// Close the current interval and answer with a [`ShardClose`].
    Close,
    /// Serialize the shard's worker state (for a checkpoint) and answer
    /// with a [`FromShard::Snapshot`]. Sent only on a quiescent fabric —
    /// after the pending barrier resolved and every buffer flushed — so
    /// the encoded state is exactly the shard's view of the open pane.
    Snapshot(RecordCodec<R>),
}

/// Traffic a shard sends back up its return ring.
enum FromShard<R> {
    /// A drained chunk buffer, ready for the router to reuse.
    Buffer(Vec<StreamItem<R>>),
    /// The shard's answer to the in-flight close barrier.
    Close(Box<ShardClose<R>>),
    /// The shard's answer to a [`ToShard::Snapshot`]: its serialized
    /// worker state (`Option<IntervalWorker>` as a tag byte + state).
    Snapshot(Vec<u8>),
}

/// One shard's answer to a close barrier: the shard index is implied by
/// which return ring carried it.
struct ShardClose<R> {
    pane: WorkerPane<R>,
    ingested: u64,
    sampled: u64,
}

/// A pane whose close barrier has been broadcast but not yet resolved:
/// the caller keeps routing the next pane while shard answers accumulate
/// here, and the merge happens once all have arrived.
struct PendingPane<R> {
    window: Window,
    arrived: u64,
    /// Pane index for the canonical merge RNG seed.
    idx: u64,
    /// Time already spent broadcasting the close (the resolve adds its
    /// collect-and-merge span before the total reaches the cost policy).
    nanos: u64,
    answers: Vec<Option<Box<ShardClose<R>>>>,
    collected: usize,
    /// This close is the retiring workers' last report (a directive
    /// change armed replacements behind it): when resolving, fold the
    /// settled counters into the lifetime base.
    folds_counters: bool,
}

/// The shard worker loop: owns the shard's [`IntervalWorker`] between
/// rearms and runs until the engine drops the command ring's producer.
/// Drained chunk buffers and close answers travel back on `results`; a
/// dead engine (either ring disconnected) just ends the loop.
fn shard_loop<R>(
    mut commands: spsc::Consumer<ToShard<R>>,
    mut results: spsc::Producer<FromShard<R>>,
) {
    let mut worker: Option<IntervalWorker<R>> = None;
    while let Ok(command) = commands.pop() {
        match command {
            ToShard::Arm(fresh) => worker = Some(*fresh),
            ToShard::Chunk(mut items) => {
                let worker = worker.as_mut().expect("shard armed before items");
                worker.observe_chunk(&mut items);
                if results.push(FromShard::Buffer(items)).is_err() {
                    return;
                }
            }
            ToShard::Close => {
                let worker = worker.as_mut().expect("shard armed before close");
                let pane = worker.close_interval_parts();
                let (ingested, sampled) = worker.counters();
                let answer = Box::new(ShardClose {
                    pane,
                    ingested,
                    sampled,
                });
                if results.push(FromShard::Close(answer)).is_err() {
                    return;
                }
            }
            ToShard::Snapshot(codec) => {
                let mut state = Vec::new();
                match &worker {
                    None => 0u8.encode(&mut state),
                    Some(worker) => {
                        1u8.encode(&mut state);
                        worker.encode_state(codec, &mut state);
                    }
                }
                if results.push(FromShard::Snapshot(state)).is_err() {
                    return;
                }
            }
        }
    }
}

/// The sharded substrate as an incremental [`Engine`]; see the module
/// docs for the execution model.
pub(crate) struct ShardedEngine<'p, R> {
    runtime: ApproxRuntime<'p, R>,
    shard_set: ShardSet<R>,
    config: ShardedConfig,
    cursor: PaneCursor,
    to_shards: Vec<spsc::Producer<ToShard<R>>>,
    from_shards: Vec<spsc::Consumer<FromShard<R>>>,
    threads: Vec<JoinHandle<()>>,
    buffers: Vec<Vec<StreamItem<R>>>,
    /// Drained chunk buffers returned by the shards, awaiting reuse.
    free: Vec<Vec<StreamItem<R>>>,
    counters: Vec<ShardIngest>,
    /// Counter totals folded in from workers retired by a directive
    /// change: a [`ShardClose`] reports the *current* worker's lifetime
    /// counters, so the session-facing totals are `base + worker`.
    counter_base: Vec<ShardIngest>,
    /// The one close barrier allowed in flight; `None` when fully merged.
    pending: Option<PendingPane<R>>,
    /// Per-shard worker-state answers to an in-flight snapshot request;
    /// `None` when no snapshot is being collected.
    pending_snapshots: Option<Vec<Option<Vec<u8>>>>,
    codec: Option<RecordCodec<R>>,
    pane_open: bool,
    first_pane: bool,
    pane_arrived: u64,
    prev_pane_arrived: usize,
    pane_idx: u64,
    seq: u64,
    alive: bool,
}

impl<'p, R> ShardedEngine<'p, R>
where
    R: Send + Sync + 'static,
{
    pub(crate) fn new(
        config: ShardedConfig,
        query: Query<R>,
        policy: impl Into<PolicyHandle<'p>>,
        codec: Option<RecordCodec<R>>,
    ) -> Self {
        let pane_ms = config
            .pane_interval_ms
            .unwrap_or_else(|| query.window().slide_millis());
        let cursor = PaneCursor::new(pane_ms, query.window());
        let runtime = ApproxRuntime::new(&query, policy, config.seed, config.shards);
        let shard_set = ShardSet::new(config.shards, config.seed, query.projection());
        let mut to_shards = Vec::with_capacity(config.shards);
        let mut from_shards = Vec::with_capacity(config.shards);
        let mut threads = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            let (cmd_tx, cmd_rx) = spsc::ring(config.ring_chunks);
            // The return ring is deeper than the command ring (buffers in
            // flight plus one close answer), so a shard essentially never
            // blocks handing buffers back; if it still fills, the
            // router's send loop drains it, so progress is guaranteed.
            let (ret_tx, ret_rx) = spsc::ring(config.ring_chunks + 2);
            to_shards.push(cmd_tx);
            from_shards.push(ret_rx);
            threads.push(std::thread::spawn(move || shard_loop(cmd_rx, ret_tx)));
        }
        ShardedEngine {
            runtime,
            shard_set,
            config,
            cursor,
            to_shards,
            from_shards,
            threads,
            buffers: (0..config.shards)
                .map(|_| Vec::with_capacity(config.chunk_items))
                .collect(),
            free: Vec::new(),
            counters: (0..config.shards)
                .map(|shard| ShardIngest {
                    shard,
                    ..ShardIngest::default()
                })
                .collect(),
            counter_base: (0..config.shards)
                .map(|shard| ShardIngest {
                    shard,
                    ..ShardIngest::default()
                })
                .collect(),
            pending: None,
            pending_snapshots: None,
            codec,
            pane_open: false,
            first_pane: true,
            pane_arrived: 0,
            prev_pane_arrived: 0,
            pane_idx: 0,
            seq: 0,
            alive: true,
        }
    }

    fn dead(&mut self) -> SaError {
        self.alive = false;
        SaError::Disconnected("sharded worker thread died")
    }

    fn require_codec(&self) -> Result<RecordCodec<R>, SaError> {
        self.codec.ok_or_else(|| {
            SaError::Checkpoint(
                "engine built without a record codec; enable with StreamApprox::checkpointable"
                    .into(),
            )
        })
    }

    /// Returns a drained buffer to the freelist. No cap is needed: a
    /// fresh buffer is only ever allocated when the freelist is empty, so
    /// the buffer population is bounded by the fabric's peak demand
    /// (every ring slot plus one in the shard and one in the router, per
    /// shard) — and dropping spares here would just force the router to
    /// re-allocate them later.
    fn recycle(&mut self, buffer: Vec<StreamItem<R>>) {
        self.free.push(buffer);
    }

    /// Pops everything currently waiting in one shard's return ring:
    /// drained buffers go to the freelist, a close answer to the pending
    /// barrier.
    fn drain_returns(&mut self, shard: usize) -> Result<(), SaError> {
        loop {
            match self.from_shards[shard].try_pop() {
                Ok(FromShard::Buffer(buffer)) => self.recycle(buffer),
                Ok(FromShard::Close(answer)) => {
                    let pending = self
                        .pending
                        .as_mut()
                        .expect("close answer without a pending barrier");
                    debug_assert!(pending.answers[shard].is_none());
                    pending.answers[shard] = Some(answer);
                    pending.collected += 1;
                }
                Ok(FromShard::Snapshot(state)) => {
                    let slots = self
                        .pending_snapshots
                        .as_mut()
                        .expect("snapshot answer without a snapshot request");
                    debug_assert!(slots[shard].is_none());
                    slots[shard] = Some(state);
                }
                Err(spsc::PopError::Empty) => return Ok(()),
                Err(spsc::PopError::Disconnected) => return Err(self.dead()),
            }
        }
    }

    /// Sends one command down a shard's ring, spinning (and draining the
    /// shard's returns, so the pair of bounded rings can never deadlock)
    /// while the ring is full. This wait *is* the backpressure: a slow
    /// shard stalls the router here with bounded memory in flight.
    fn send(&mut self, shard: usize, command: ToShard<R>) -> Result<(), SaError> {
        let mut command = command;
        let mut spins = 0u32;
        loop {
            match self.to_shards[shard].try_push(command) {
                Ok(()) => return Ok(()),
                Err(spsc::PushError::Disconnected(_)) => return Err(self.dead()),
                Err(spsc::PushError::Full(rejected)) => command = rejected,
            }
            self.drain_returns(shard)?;
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }

    /// Opens the cursor's current pane if none is open: consults the cost
    /// policy and, when its directive changed (or this is the first
    /// pane), arms every shard with a fresh worker. The arm command is
    /// FIFO-ordered behind the just-broadcast close, so the retiring
    /// worker still answers its pane before being replaced. With an
    /// unchanged directive the armed workers keep running, so capacity
    /// adaptation carries across panes exactly like the single-threaded
    /// sampler pool.
    fn ensure_armed(&mut self) -> Result<(), SaError> {
        if self.pane_open {
            return Ok(());
        }
        let directive = self.runtime.interval_sizing();
        let expected = if self.first_pane {
            self.config.expected_pane_items
        } else {
            self.prev_pane_arrived
        };
        if let Some(workers) = self.shard_set.rearm(directive, expected) {
            // The retiring workers' final counters arrive with the close
            // that is still in flight (if any): fold the base then. With
            // no barrier pending the counters are already settled.
            match self.pending.as_mut() {
                Some(pending) => pending.folds_counters = true,
                None => self.counter_base.clone_from(&self.counters),
            }
            for (shard, worker) in workers.into_iter().enumerate() {
                self.send(shard, ToShard::Arm(Box::new(worker)))?;
            }
        }
        self.first_pane = false;
        self.pane_open = true;
        self.pane_arrived = 0;
        Ok(())
    }

    /// Flushes a shard's routing buffer to its thread, swapping in a
    /// recycled buffer from the freelist — the steady-state zero
    /// allocation path — or a fresh one only when no buffer has come
    /// back yet.
    fn flush(&mut self, shard: usize) -> Result<(), SaError> {
        if self.buffers[shard].is_empty() {
            return Ok(());
        }
        if self.free.is_empty() {
            // Refill opportunistically before paying for an allocation.
            for other in 0..self.shard_set.num_shards() {
                self.drain_returns(other)?;
            }
        }
        let replacement = match self.free.pop() {
            Some(buffer) => {
                self.counters[shard].chunks_recycled += 1;
                buffer
            }
            None => Vec::with_capacity(self.config.chunk_items),
        };
        self.counters[shard].chunks_routed += 1;
        let chunk = std::mem::replace(&mut self.buffers[shard], replacement);
        self.send(shard, ToShard::Chunk(chunk))
    }

    /// Closes the open pane *without waiting for the shards*: flushes
    /// every buffer, broadcasts the close barrier and records the pane as
    /// pending. Shards answer at their own pace and move straight on to
    /// the next pane's chunks; the caller merges when the barrier
    /// resolves. Strict depth-1: any previous barrier is settled first,
    /// so every incoming answer belongs to exactly one pane.
    fn begin_close(&mut self) -> Result<(), SaError> {
        self.resolve_pending()?;
        let (start, end) = self.cursor.pane().expect("begin_close needs an open pane");
        let window = Window::new(EventTime::from_millis(start), EventTime::from_millis(end));
        // Only the barrier is clocked: routing stays clock-free, at the
        // price of process_nanos under-reporting the (concurrent)
        // per-item observe cost, like the aggregated engine.
        let closing = Instant::now();
        let shards = self.shard_set.num_shards();
        for shard in 0..shards {
            self.flush(shard)?;
        }
        self.pending = Some(PendingPane {
            window,
            arrived: self.pane_arrived,
            idx: self.pane_idx,
            nanos: 0,
            answers: (0..shards).map(|_| None).collect(),
            collected: 0,
            folds_counters: false,
        });
        for shard in 0..shards {
            self.send(shard, ToShard::Close)?;
        }
        let pending = self.pending.as_mut().expect("created above");
        pending.nanos += closing.elapsed().as_nanos() as u64;
        self.prev_pane_arrived = self.pane_arrived as usize;
        self.pane_open = false;
        self.pane_idx += 1;
        Ok(())
    }

    /// Settles the in-flight barrier, blocking until every shard has
    /// answered: updates lifetime counters, merges the shard panes in
    /// canonical ascending-shard order with the pane-seeded merge RNG,
    /// hands the pane to the runtime and advances the watermark. A no-op
    /// when nothing is pending.
    fn resolve_pending(&mut self) -> Result<(), SaError> {
        if self.pending.is_none() {
            return Ok(());
        }
        let merging = Instant::now();
        let shards = self.shard_set.num_shards();
        let mut spins = 0u32;
        loop {
            for shard in 0..shards {
                self.drain_returns(shard)?;
            }
            let pending = self.pending.as_ref().expect("still pending");
            if pending.collected == shards {
                break;
            }
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let mut pending = self.pending.take().expect("resolved above");
        let mut panes: Vec<WorkerPane<R>> = Vec::with_capacity(shards);
        for (shard, slot) in pending.answers.iter_mut().enumerate() {
            let answer = slot.take().expect("every shard answers one close");
            self.counters[shard].ingested = self.counter_base[shard].ingested + answer.ingested;
            self.counters[shard].sampled = self.counter_base[shard].sampled + answer.sampled;
            panes.push(answer.pane);
        }
        if pending.folds_counters {
            self.counter_base.clone_from(&self.counters);
        }
        let mut merge_rng = SmallRng::seed_from_u64(
            self.config
                .seed
                .derive(0x5AADED)
                .derive(pending.idx)
                .value(),
        );
        let payload: PanePayload = self.shard_set.merge_panes(panes, &mut merge_rng);
        let process_nanos = pending.nanos + merging.elapsed().as_nanos() as u64;
        self.runtime
            .ingest_interval(pending.window, payload, pending.arrived, process_nanos);
        self.runtime.close_interval(pending.window.end);
        Ok(())
    }

    /// Settles the in-flight barrier only if every shard has already
    /// answered — the overlap's happy path, merging mid-ingest without
    /// ever waiting on a shard.
    fn try_resolve(&mut self) -> Result<(), SaError> {
        if self.pending.is_none() {
            return Ok(());
        }
        let shards = self.shard_set.num_shards();
        for shard in 0..shards {
            self.drain_returns(shard)?;
        }
        let complete = self
            .pending
            .as_ref()
            .is_some_and(|pending| pending.collected == shards);
        if complete {
            self.resolve_pending()?;
        }
        Ok(())
    }
}

impl<R> Engine<R> for ShardedEngine<'_, R>
where
    R: Send + Sync + 'static,
{
    fn push_chunk(&mut self, items: &mut Vec<StreamItem<R>>) -> Result<(), SaError> {
        if !self.alive {
            return Err(SaError::Disconnected("sharded worker thread died"));
        }
        // Merge mid-ingest when the previous pane's answers are already
        // in — one cheap ring sweep per run, not per item.
        self.try_resolve()?;
        // The shared cursor aligns the first pane to the first item's
        // interval, yields quiet intervals as empty panes (each consulting
        // the policy, mirroring the batched engine), and jumps oversized
        // gaps. Cursor and arm checks run once per pane portion; the
        // portion is then routed item by item (routing is per-item by
        // contract — `route(stratum, seq)` — but costs no RNG or locks)
        // into the shard buffers.
        while let Some(head) = items.first() {
            let t = head.time.as_millis();
            while self.cursor.needs_close(t) {
                self.ensure_armed()?;
                self.begin_close()?;
                self.cursor.next(t);
            }
            self.ensure_armed()?;
            let n = self.cursor.in_pane(items);
            self.pane_arrived += n as u64;
            for item in items.drain(..n) {
                let shard = self.shard_set.route(item.stratum, self.seq);
                self.seq += 1;
                self.buffers[shard].push(item);
                if self.buffers[shard].len() >= self.config.chunk_items {
                    self.flush(shard)?;
                }
            }
        }
        Ok(())
    }

    fn poll_windows(&mut self) -> Vec<WindowResult> {
        // Settle a completed barrier so its windows are observable now;
        // an error here resurfaces on the next push/finish.
        if self.alive {
            let _ = self.try_resolve();
        }
        self.runtime.take_windows()
    }

    fn settle(&mut self) -> Result<(), SaError> {
        if !self.alive {
            return Err(SaError::Disconnected("sharded worker thread died"));
        }
        self.resolve_pending()
    }

    fn shard_ingest(&self) -> Vec<ShardIngest> {
        // Read-only by contract: counters are as of the last settled
        // barrier — callers that need them no staler than the last closed
        // pane call `settle` first (the session's status path does).
        self.counters.clone()
    }

    fn panes_closed(&self) -> u64 {
        self.runtime.panes_closed()
    }

    fn snapshot(&mut self) -> Result<EngineSnapshot, SaError> {
        let codec = self.require_codec()?;
        if !self.alive {
            return Err(SaError::Disconnected("sharded worker thread died"));
        }
        // Quiesce the fabric: settle the in-flight barrier, hand every
        // buffered item to its shard, then ask each shard (FIFO behind
        // those chunks) for its serialized worker. The engine keeps
        // running afterwards — the snapshot is a pure read.
        self.resolve_pending()?;
        let shards = self.shard_set.num_shards();
        for shard in 0..shards {
            self.flush(shard)?;
        }
        self.pending_snapshots = Some((0..shards).map(|_| None).collect());
        for shard in 0..shards {
            self.send(shard, ToShard::Snapshot(codec))?;
        }
        let mut spins = 0u32;
        loop {
            for shard in 0..shards {
                self.drain_returns(shard)?;
            }
            let slots = self.pending_snapshots.as_ref().expect("requested above");
            if slots.iter().all(Option::is_some) {
                break;
            }
            spins += 1;
            if spins < 128 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let slots = self.pending_snapshots.take().expect("collected above");
        let mut state = Vec::new();
        self.cursor.start().encode(&mut state);
        put_varint(&mut state, self.seq);
        put_varint(&mut state, self.pane_idx);
        put_varint(&mut state, self.pane_arrived);
        put_varint(&mut state, self.prev_pane_arrived as u64);
        self.first_pane.encode(&mut state);
        self.pane_open.encode(&mut state);
        self.counters.encode(&mut state);
        self.counter_base.encode(&mut state);
        self.shard_set.directive().encode(&mut state);
        for blob in &slots {
            state.extend_from_slice(blob.as_deref().expect("every slot collected"));
        }
        self.runtime.encode_state(codec, &mut state);
        Ok(EngineSnapshot {
            engine: "sharded".into(),
            pane: self.cursor.start(),
            state,
        })
    }

    fn restore(&mut self, snapshot: &EngineSnapshot) -> Result<(), SaError> {
        let codec = self.require_codec()?;
        if snapshot.engine != "sharded" {
            return Err(SaError::Checkpoint(format!(
                "cannot restore a '{}' snapshot into the sharded engine",
                snapshot.engine
            )));
        }
        if !self.alive {
            return Err(SaError::Disconnected("sharded worker thread died"));
        }
        let mut r = WireReader::new(&snapshot.state);
        self.cursor.restore_start(Option::decode(&mut r)?);
        self.seq = r.read_varint()?;
        self.pane_idx = r.read_varint()?;
        self.pane_arrived = r.read_varint()?;
        self.prev_pane_arrived = usize::decode(&mut r)?;
        self.first_pane = bool::decode(&mut r)?;
        self.pane_open = bool::decode(&mut r)?;
        self.counters = Vec::decode(&mut r)?;
        self.counter_base = Vec::decode(&mut r)?;
        let shards = self.shard_set.num_shards();
        if self.counters.len() != shards || self.counter_base.len() != shards {
            return Err(SaError::Checkpoint(format!(
                "snapshot covers {} shards but the engine has {shards}",
                self.counters.len()
            )));
        }
        let directive = Option::<SizingDirective>::decode(&mut r)?;
        // Force the armed directive so the next `ensure_armed` compares
        // against what the restored workers are actually running, instead
        // of rearming fresh ones over them.
        self.shard_set.force_directive(directive);
        let proj = self.shard_set.projection();
        for shard in 0..shards {
            match u8::decode(&mut r)? {
                0 => {}
                1 => {
                    let worker = IntervalWorker::decode_state(&mut r, codec, Arc::clone(&proj))?;
                    self.send(shard, ToShard::Arm(Box::new(worker)))?;
                }
                tag => {
                    return Err(SaError::Wire(format!("unknown shard-worker tag {tag}")));
                }
            }
        }
        self.runtime.restore_state(&mut r, codec)?;
        r.finish()
    }

    fn finish(mut self: Box<Self>) -> RunOutput {
        // A trailing pane exists exactly when items arrived since the
        // last boundary, mirroring the batched engine. A dead shard loses
        // its trailing pane, like an operator death on the pipelined
        // engine.
        if self.alive {
            if self.pane_open {
                let _ = self.begin_close();
            }
            let _ = self.resolve_pending();
        }
        let ShardedEngine {
            runtime,
            to_shards,
            threads,
            ..
        } = *self;
        // Dropping the command producers ends every shard loop; join so
        // no thread outlives the run.
        drop(to_shards);
        for thread in threads {
            let _ = thread.join();
        }
        runtime.finish()
    }
}
