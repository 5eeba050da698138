//! The aggregator consumer path: StreamApprox as a plain in-process loop.
//!
//! The paper's deployment (§2.1, §4.1) puts a stream aggregator (Apache
//! Kafka) in front of the stream engine; the smallest real deployment is a
//! consumer polling that aggregator and sampling inline — no dataset
//! formation, no operator threads, just OASRS between the consumer loop
//! and the window estimator. [`AggregatedEngine`] is that path as an
//! [`Engine`](crate::Engine): it embeds the shared
//! [`ApproxRuntime`](crate::ApproxRuntime) directly (sampler pool,
//! cost-policy feedback, window assembly) and adds only slide-interval
//! pane bookkeeping, making it the cheapest substrate for live
//! [`crate::ApproxSession`]s fed from `sa_aggregator::Consumer` —
//! see [`crate::ApproxSession::ingest_consumer`].
//!
//! Unlike the batched engine it holds no per-pane item buffer: every
//! pushed item meets the sampler immediately and is dropped or retained
//! on the spot, so memory stays bounded by reservoir capacity even for
//! unbounded streams.

use crate::checkpoint::RecordCodec;
use crate::combine::PanePayload;
use crate::cost::PolicyHandle;
use crate::engine::Engine;
use crate::output::RunOutput;
use crate::query::Query;
use crate::runtime::{ApproxRuntime, ExactAccumulator, PaneCursor};
use sa_estimate::StratumStats;
use sa_sampling::OasrsSampler;
use sa_types::wire::put_varint;
use sa_types::{
    EngineSnapshot, EventTime, RunSeed, SaError, SizingDirective, StreamItem, Window, WindowResult,
    WireDecode, WireEncode, WireReader,
};
use std::sync::Arc;
use std::time::Instant;

/// Configuration of the aggregated (consumer-path) engine for one
/// session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AggregatedConfig {
    /// Seed for every sampling decision.
    pub seed: RunSeed,
    /// Sampling-interval length in event-time milliseconds; `None` uses
    /// the query's window slide, the paper's interval choice (§5.5).
    pub pane_interval_ms: Option<i64>,
}

impl AggregatedConfig {
    /// The default configuration: default seed, slide-sized panes.
    pub fn new() -> Self {
        AggregatedConfig {
            seed: RunSeed::DEFAULT,
            pane_interval_ms: None,
        }
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: impl Into<RunSeed>) -> Self {
        self.seed = seed.into();
        self
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
}

impl Default for AggregatedConfig {
    fn default() -> Self {
        AggregatedConfig::new()
    }
}

/// The in-flight state of the current pane.
enum PaneState<R> {
    /// No pane open (before the first item, and transiently at close).
    Idle,
    /// Sampling under a budget with a sampler borrowed from the runtime's
    /// pool.
    Sampling(OasrsSampler<R>),
    /// Exact accumulation (native execution / `Everything` directive).
    Exact(ExactAccumulator<R>),
}

/// The consumer-path substrate: single-threaded, inline, per-push
/// sampling over the shared [`ApproxRuntime`].
pub(crate) struct AggregatedEngine<'p, R> {
    runtime: ApproxRuntime<'p, R>,
    proj: Arc<dyn Fn(&R) -> f64 + Send + Sync>,
    cursor: PaneCursor,
    state: PaneState<R>,
    pane_arrived: u64,
    prev_pane_arrived: usize,
    codec: Option<RecordCodec<R>>,
}

impl<'p, R> AggregatedEngine<'p, R> {
    pub(crate) fn new(
        config: AggregatedConfig,
        query: Query<R>,
        policy: impl Into<PolicyHandle<'p>>,
        codec: Option<RecordCodec<R>>,
    ) -> Self {
        let pane_ms = config
            .pane_interval_ms
            .unwrap_or_else(|| query.window().slide_millis());
        let cursor = PaneCursor::new(pane_ms, query.window());
        let runtime = ApproxRuntime::new(&query, policy, config.seed, 1);
        AggregatedEngine {
            runtime,
            proj: query.projection(),
            cursor,
            state: PaneState::Idle,
            pane_arrived: 0,
            prev_pane_arrived: 0,
            codec,
        }
    }

    fn require_codec(&self) -> Result<RecordCodec<R>, SaError> {
        self.codec.ok_or_else(|| {
            SaError::Checkpoint(
                "engine built without a record codec; enable with StreamApprox::checkpointable"
                    .into(),
            )
        })
    }

    /// Opens the cursor's current pane: consults the cost policy and
    /// arms either a pooled sampler (capacity adaptation carries across
    /// panes) or an exact accumulator.
    fn open_pane(&mut self) {
        self.state = match self.runtime.interval_sizing() {
            SizingDirective::Everything => {
                PaneState::Exact(ExactAccumulator::new(Arc::clone(&self.proj)))
            }
            directive => PaneState::Sampling(
                self.runtime
                    .checkout_samplers(directive, self.prev_pane_arrived)
                    .pop()
                    .expect("single-worker pool"),
            ),
        };
        self.pane_arrived = 0;
    }

    /// Closes the current pane into per-stratum statistics, feeds the
    /// policy, and advances the watermark to the pane end.
    fn close_pane(&mut self) {
        let (start, end) = self.cursor.pane().expect("close_pane needs an open pane");
        let pane = Window::new(EventTime::from_millis(start), EventTime::from_millis(end));
        // Only the interval-close work is clocked: per-item observes stay
        // clock-free so push costs no syscalls, at the price of
        // process_nanos under-reporting the (tiny, O(1)-per-item) observe
        // cost on this engine.
        let closing = Instant::now();
        let stats = match std::mem::replace(&mut self.state, PaneState::Idle) {
            PaneState::Sampling(mut sampler) => {
                let sample = sampler.finish_interval();
                let proj = &self.proj;
                let stats = sample
                    .iter()
                    .map(|stratum| StratumStats::from_sample(stratum, |r| proj(r)))
                    .collect();
                self.runtime.checkin_samplers(vec![sampler]);
                stats
            }
            PaneState::Exact(mut acc) => acc.close_interval(),
            PaneState::Idle => Vec::new(),
        };
        let nanos = closing.elapsed().as_nanos() as u64;
        self.runtime.ingest_interval(
            pane,
            PanePayload::Stratified(stats),
            self.pane_arrived,
            nanos,
        );
        self.runtime.close_interval(pane.end);
        self.prev_pane_arrived = self.pane_arrived as usize;
    }
}

impl<R> Engine<R> for AggregatedEngine<'_, R> {
    fn push_chunk(&mut self, items: &mut Vec<StreamItem<R>>) -> Result<(), SaError> {
        // The shared cursor aligns the first pane to the first item's
        // interval, yields quiet intervals as empty panes (each with its
        // own policy consultation, like the engines' empty
        // micro-batches), and jumps oversized gaps. It runs once per pane
        // portion of the run, and each portion meets the sampler or
        // accumulator as one slice.
        while let Some(head) = items.first() {
            let t = head.time.as_millis();
            while self.cursor.needs_close(t) {
                if matches!(self.state, PaneState::Idle) {
                    self.open_pane();
                }
                self.close_pane();
                self.cursor.next(t);
            }
            if matches!(self.state, PaneState::Idle) {
                self.open_pane();
            }
            let n = self.cursor.in_pane(items);
            self.pane_arrived += n as u64;
            match &mut self.state {
                PaneState::Sampling(sampler) => sampler.observe_drain(items.drain(..n)),
                PaneState::Exact(acc) => {
                    acc.observe_slice(&items[..n]);
                    items.drain(..n);
                }
                PaneState::Idle => unreachable!("a pane is open whenever items are observed"),
            }
        }
        Ok(())
    }

    fn poll_windows(&mut self) -> Vec<WindowResult> {
        self.runtime.take_windows()
    }

    fn panes_closed(&self) -> u64 {
        self.runtime.panes_closed()
    }

    fn snapshot(&mut self) -> Result<EngineSnapshot, SaError> {
        let codec = self.require_codec()?;
        let mut state = Vec::new();
        self.cursor.start().encode(&mut state);
        put_varint(&mut state, self.pane_arrived);
        put_varint(&mut state, self.prev_pane_arrived as u64);
        match &self.state {
            PaneState::Idle => 0u8.encode(&mut state),
            PaneState::Sampling(sampler) => {
                1u8.encode(&mut state);
                sampler.encode_state_with(&mut state, &mut |v, out| (codec.encode)(v, out));
            }
            PaneState::Exact(acc) => {
                2u8.encode(&mut state);
                acc.encode_state(&mut state);
            }
        }
        self.runtime.encode_state(codec, &mut state);
        Ok(EngineSnapshot {
            engine: "aggregated".into(),
            pane: self.cursor.start(),
            state,
        })
    }

    fn restore(&mut self, snapshot: &EngineSnapshot) -> Result<(), SaError> {
        let codec = self.require_codec()?;
        if snapshot.engine != "aggregated" {
            return Err(SaError::Checkpoint(format!(
                "cannot restore a '{}' snapshot into the aggregated engine",
                snapshot.engine
            )));
        }
        let mut r = WireReader::new(&snapshot.state);
        self.cursor.restore_start(Option::decode(&mut r)?);
        self.pane_arrived = r.read_varint()?;
        self.prev_pane_arrived = usize::decode(&mut r)?;
        self.state = match u8::decode(&mut r)? {
            0 => PaneState::Idle,
            // A mid-pane sampler was checked out of the runtime pool when
            // the snapshot was taken, so the pool state restored below has
            // it missing — close_pane checks it back in, as in the
            // original run.
            1 => PaneState::Sampling(OasrsSampler::decode_state_with(&mut r, &mut |r| {
                (codec.decode)(r)
            })?),
            2 => PaneState::Exact(ExactAccumulator::decode_state(
                &mut r,
                Arc::clone(&self.proj),
            )?),
            tag => {
                return Err(SaError::Wire(format!("unknown pane-state tag {tag}")));
            }
        };
        self.runtime.restore_state(&mut r, codec)?;
        r.finish()
    }

    fn finish(mut self: Box<Self>) -> RunOutput {
        if !matches!(self.state, PaneState::Idle) {
            self.close_pane();
        }
        self.runtime.finish()
    }
}
