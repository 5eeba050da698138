//! Golden-byte fixtures: the exact encodings of every distributed-tier
//! protocol message variant and of the sealed session snapshots the
//! snapshotable engines take after a small fixed-seed run.
//!
//! Codec refactors must leave these bytes unchanged: old checkpoint files
//! stay readable and peers at the same wire version keep understanding each
//! other. A deliberate format change rewrites the affected fixtures in the
//! same change that bumps `sa_net::WIRE_VERSION` or
//! `sa_net::SNAPSHOT_VERSION`; regenerate them with
//! `cargo test --test golden_bytes -- --ignored bless_fixtures`.

use sa_batched::Cluster;
use sa_estimate::{StratumStats, Welford};
use sa_net::{Digest, DigestPayload, Message};
use sa_types::{
    ApproxResult, Confidence, ErrorBound, EventTime, IngestCounters, RunSeed, SizingDirective,
    StratifiedSample, StratumId, StratumSample, StreamItem, Window, WindowResult, WindowSpec,
    WireEncode,
};
use std::path::PathBuf;
use streamapprox::{
    seal_session_snapshot, AggregatedConfig, BatchedConfig, BatchedSystem, FixedFraction, Query,
    ShardedConfig, StreamApprox,
};

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/fixtures/golden")
        .join(format!("{name}.hex"))
}

fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2 + bytes.len() / 32 + 1);
    for line in bytes.chunks(32) {
        for b in line {
            out.push_str(&format!("{b:02x}"));
        }
        out.push('\n');
    }
    out
}

fn from_hex(text: &str) -> Vec<u8> {
    let digits: Vec<u8> = text.bytes().filter(|b| !b.is_ascii_whitespace()).collect();
    digits
        .chunks(2)
        .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
        .collect()
}

fn digest(payload: DigestPayload) -> Digest {
    Digest {
        worker: 1,
        pane: Window::new(EventTime::from_millis(0), EventTime::from_millis(500)),
        counters: IngestCounters {
            ingested: 140,
            dropped_late: 3,
        },
        watermark: Some(EventTime::from_millis(499)),
        lag: 12,
        last_checkpoint_pane: Some(0),
        items_since_checkpoint: 140,
        snapshot_bytes: 512,
        payload,
    }
}

fn assign(directive: SizingDirective) -> Message {
    Message::HelloAssign {
        worker: 2,
        num_workers: 3,
        seed: RunSeed::new(42),
        directive,
        pane_interval_ms: 500,
        expected_pane_items: 10_000,
        window: WindowSpec::sliding_millis(1_000, 500),
        confidence: Confidence::P95,
        heartbeat_interval_ms: 500,
    }
}

/// One value of every `Message` variant the codec refactor touches, by
/// fixture name.
fn messages() -> Vec<(&'static str, Message)> {
    let sampled: StratifiedSample<f64> = [
        StratumSample::new(StratumId(0), vec![1.0, 2.0], 100, 2),
        StratumSample::new(StratumId(3), vec![4.5], 40, 1),
    ]
    .into_iter()
    .collect();
    let exact = vec![
        StratumStats::from_parts(StratumId(0), 7, [1.0, 2.5, 4.0].into_iter().collect()),
        StratumStats::from_parts(StratumId(2), 3, Welford::new()),
    ];
    let result = |v: f64| ApproxResult::new(v, ErrorBound::new(0.5, Confidence::P95), 100, 1_000);
    vec![
        (
            "msg_pane_digest_sampled",
            Message::PaneDigest(digest(DigestPayload::Sampled(sampled))),
        ),
        (
            "msg_pane_digest_exact",
            Message::PaneDigest(digest(DigestPayload::Exact(exact))),
        ),
        (
            "msg_hello_assign_fraction",
            assign(SizingDirective::Fraction(0.05)),
        ),
        (
            "msg_hello_assign_per_stratum",
            assign(SizingDirective::PerStratum(64)),
        ),
        (
            "msg_hello_assign_shared_total",
            assign(SizingDirective::SharedTotal(1_000)),
        ),
        (
            "msg_hello_assign_everything",
            assign(SizingDirective::Everything),
        ),
        (
            "msg_window_result",
            Message::WindowResult(WindowResult {
                window: Window::new(EventTime::from_millis(0), EventTime::from_millis(1_000)),
                sum: result(10.125),
                mean: result(1.0125),
                sum_by_stratum: vec![(StratumId(0), result(4.0)), (StratumId(1), result(6.125))],
                mean_by_stratum: vec![(StratumId(0), result(2.0))],
                degraded: true,
                lost_items: 321,
            }),
        ),
    ]
}

/// A small deterministic stream: three strata, one item per millisecond
/// with a quiet gap, values from a fixed integer hash.
fn stream() -> Vec<StreamItem<f64>> {
    (0..3_000u32)
        .map(|i| {
            let ms = i64::from(i) + if i >= 2_000 { 700 } else { 0 };
            let value = f64::from((i.wrapping_mul(7_919)) % 1_000) / 10.0;
            StreamItem::new(StratumId(i % 3), EventTime::from_millis(ms), value)
        })
        .collect()
}

fn query() -> Query<f64> {
    Query::new(|v: &f64| *v).with_window(WindowSpec::sliding_millis(1_000, 500))
}

/// Drives a checkpointable session over the stream — chunked pushes, then
/// per-item pushes — and returns its sealed snapshot, taken mid-pane after
/// `settle` and a final poll.
fn sealed_snapshot(builder: StreamApprox<'_, f64>) -> Vec<u8> {
    let mut session = builder.checkpointable().start();
    let items = stream();
    let (chunked, single) = items.split_at(2_900);
    for chunk in chunked.chunks(97) {
        session.push_batch(chunk.to_vec()).expect("in order");
    }
    for item in single {
        session.push(*item).expect("in order");
    }
    // Settle before polling: on the sharded engine a poll may race the
    // last pane's merge, and a window left undrained is snapshot state.
    session.settle().expect("settles");
    let _ = session.poll_windows();
    let snapshot = session.checkpoint().expect("checkpointable");
    seal_session_snapshot(&snapshot).expect("seals")
}

fn snapshots() -> Vec<(&'static str, Vec<u8>)> {
    let seed = 0x601D_u64;
    let mut policy = FixedFraction(0.3);
    let aggregated = sealed_snapshot(
        StreamApprox::new(query(), &mut policy).aggregated(AggregatedConfig::new().with_seed(seed)),
    );
    let mut policy = FixedFraction(0.3);
    let batched = sealed_snapshot(
        StreamApprox::new(query(), &mut policy).batched(
            BatchedConfig::new(Cluster::new(2))
                .with_batch_interval_ms(500)
                .with_seed(seed)
                .with_system(BatchedSystem::StreamApprox),
        ),
    );
    // Chunks larger than a pane make every shard flush exactly at pane
    // close, after the previous barrier returned every buffer — so the
    // chunk-recycling counters inside the snapshot do not depend on
    // thread timing.
    let mut policy = FixedFraction(0.3);
    let sharded = sealed_snapshot(
        StreamApprox::new(query(), &mut policy).sharded(
            ShardedConfig::new(2)
                .with_pane_interval_ms(500)
                .with_chunk_items(4_096)
                .with_seed(seed),
        ),
    );
    vec![
        ("snapshot_aggregated", aggregated),
        ("snapshot_batched", batched),
        ("snapshot_sharded2", sharded),
    ]
}

fn check(name: &str, actual: &[u8]) {
    let path = fixture_path(name);
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    assert!(
        from_hex(&expected) == actual,
        "{name} moved; the bytes are now:\n{}",
        to_hex(actual)
    );
}

#[test]
fn message_encodings_match_the_fixtures() {
    for (name, msg) in messages() {
        check(name, &msg.to_wire_bytes());
    }
}

#[test]
fn sealed_snapshots_match_the_fixtures() {
    for (name, bytes) in snapshots() {
        check(name, &bytes);
    }
}

#[test]
fn snapshot_runs_are_reproducible() {
    // The fixtures are only meaningful if the same run seals the same
    // bytes every time.
    assert_eq!(snapshots(), snapshots());
}

#[test]
#[ignore = "rewrites the fixtures; run only after a deliberate format change"]
fn bless_fixtures() {
    let dir = fixture_path("x").parent().unwrap().to_path_buf();
    std::fs::create_dir_all(&dir).unwrap();
    let messages = messages()
        .into_iter()
        .map(|(name, msg)| (name, msg.to_wire_bytes()));
    for (name, bytes) in messages.chain(snapshots()) {
        std::fs::write(fixture_path(name), to_hex(&bytes)).unwrap();
    }
}
