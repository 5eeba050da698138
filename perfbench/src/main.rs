//! The StreamApprox session-path benchmark.
//!
//! ```text
//! perfbench --workload <inline_ingest|sharded_skew|live_fleet> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` the workload runs once untraced and the last line of
//! standard output is a JSON object with the end-to-end metrics. With
//! `--trace 1` it runs untraced, then traced, then through the layer
//! replay, and the JSON holds the per-layer metrics. Spans of the traced
//! run are written to `<out>/<workload>.spans.csv` (each traced run of a
//! workload overwrites its file); `<out>` defaults to `.bench_out` under
//! the current directory. See `README.md`.

mod gen;
mod layers;
mod oracle;
mod procfs;
mod trace;
mod workloads;

use oracle::{accuracy_loss, Oracle};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::{median, percentile, self_times, supported_percentile};
use workloads::{Budget, Kind, Run, Spec};

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut out) = (None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = Some(value == "1"),
            "--out" => out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let out = match out {
        Some(out) => out,
        None => std::env::current_dir()
            .map_err(|e| format!("no current directory: {e}"))?
            .join(".bench_out"),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

/// The outcome of the correctness checks of one run.
struct Verdict {
    attempted: u64,
    failed: u64,
    accuracy_loss_pct: f64,
    ci_coverage: f64,
    problems: Vec<String>,
}

/// Checks a run against the exact oracle: the window sequence, that every
/// generated item is counted, that the sample matches the budget, that no
/// window is degraded, and the push calls' errors and late drops.
fn check(spec: &Spec, block: &gen::Block, run: &Run) -> Verdict {
    let strata = spec.mix.len();
    let oracle = Oracle::new(
        &block.items,
        block.len_ms,
        strata,
        spec.size_ms,
        spec.slide_ms,
        spec.per_stratum_budget(),
    );
    let mut v = Verdict {
        attempted: run.calls,
        failed: run.failed_calls,
        accuracy_loss_pct: 0.0,
        ci_coverage: 0.0,
        problems: Vec::new(),
    };
    if run.failed_calls > 0 {
        v.problems
            .push(format!("{} failed push/poll calls", run.failed_calls));
    }
    let starts: Vec<i64> = (0..run.streams)
        .flat_map(|_| oracle.window_starts(run.laps))
        .collect();
    v.attempted += starts.len() as u64;
    if run.windows.len() != starts.len() {
        v.problems.push(format!(
            "{} windows, expected {}",
            run.windows.len(),
            starts.len()
        ));
        v.failed += starts.len().abs_diff(run.windows.len()) as u64;
    }
    let (mut losses, mut loss_terms, mut covered) = (0.0, 0u64, 0u64);
    for (w, &start) in run.windows.iter().zip(&starts) {
        let truth = oracle.window(start, run.laps);
        let mut bad = Vec::new();
        if w.start != start {
            bad.push(format!("starts at {} not {start}", w.start));
        }
        if w.population != truth.count() {
            bad.push(format!(
                "counts {} of {} items",
                w.population,
                truth.count()
            ));
        }
        for (s, cell) in truth.strata.iter().enumerate() {
            let got = w.strata.get(s).copied().flatten();
            if got.map_or(0, |(n, _)| n) != cell.count {
                bad.push(format!("stratum {s} miscounted"));
            }
            if let Some((_, sum)) = got.filter(|_| cell.count > 0) {
                losses += accuracy_loss(sum, cell.sum);
                loss_terms += 1;
            }
        }
        if let Budget::PerStratum(_) = spec.budget {
            if w.sample != truth.per_stratum_sample {
                bad.push(format!(
                    "holds {} sampled items, budget implies {}",
                    w.sample, truth.per_stratum_sample
                ));
            }
        }
        if w.degraded {
            bad.push("degraded".into());
        }
        let exact_mean = truth.mean();
        losses += accuracy_loss(w.mean, exact_mean);
        loss_terms += 1;
        let (lo, hi) = w.interval;
        if lo <= exact_mean && exact_mean <= hi {
            covered += 1;
        }
        if !bad.is_empty() {
            v.failed += 1;
            if v.problems.len() < 8 {
                v.problems
                    .push(format!("window {start}: {}", bad.join(", ")));
            }
        }
    }
    v.accuracy_loss_pct = 100.0 * losses / loss_terms.max(1) as f64;
    v.ci_coverage = covered as f64 / run.windows.len().max(1) as f64;

    // Run-level checks, one operation each.
    let expected_items = run.streams * run.laps * block.len() as u64;
    v.attempted += 2;
    if run.ingested != expected_items || run.items != expected_items {
        v.failed += 1;
        v.problems.push(format!(
            "ingested {} of {} generated items",
            run.ingested, expected_items
        ));
    }
    let health = run.health;
    if let Budget::Fraction(f) = spec.budget {
        v.attempted += 1;
        let effective = run.aggregated as f64 / run.ingested.max(1) as f64;
        if (effective / f - 1.0).abs() > 0.10 {
            v.failed += 1;
            v.problems
                .push(format!("sampled {effective:.4} of the stream, budget {f}"));
        }
    }
    if health != (0, 0) {
        v.failed += 1;
        v.problems.push(format!(
            "{} degraded panes, {} lost items",
            health.0, health.1
        ));
    }
    v
}

type Metrics = Vec<(String, f64, &'static str)>;

/// Windows per latency group: the fewest that support a p99.
const LATENCY_GROUP: usize = 1_000;

/// Emit latency at p50 and p99, each the median over groups of 1,000
/// consecutive polled windows of that group's percentile: host stalls come
/// in bursts that would otherwise decide a whole run's tail. Runs with
/// fewer than two groups report whole-run percentiles instead, the tail at
/// the highest percentile the sample supports, named by that percentile.
fn latency_metrics(m: &mut Metrics, latencies: &[f64]) {
    let groups: Vec<&[f64]> = latencies.chunks_exact(LATENCY_GROUP).collect();
    let (p50, name, tail) = if groups.len() >= 2 {
        let per_group =
            |p: f64| median(&groups.iter().map(|g| percentile(g, p)).collect::<Vec<_>>());
        (
            per_group(50.0),
            "emit_latency_p99_ms".to_string(),
            per_group(99.0),
        )
    } else {
        let (name, p) = match supported_percentile(latencies.len()) {
            Some(p) => (format!("emit_latency_p{p}_ms"), f64::from(p)),
            None => ("emit_latency_max_ms".into(), 100.0),
        };
        (median(latencies), name, percentile(latencies, p))
    };
    let deciles: Vec<String> = (1..10)
        .map(|d| format!("{:.3}", percentile(latencies, f64::from(d * 10))))
        .collect();
    println!(
        "{name} over {} polled windows in {} groups; whole-run deciles (ms): {}",
        latencies.len(),
        groups.len(),
        deciles.join(" ")
    );
    m.push(("emit_latency_p50_ms".into(), p50, "ms"));
    m.push((name, tail, "ms"));
}

fn end_to_end(run: &Run, verdict: &Verdict) -> Metrics {
    // Closed loops report the median over their segments; the open loop's
    // rate is fixed by its schedule, so it reports whole-run ratios.
    let (throughput, cpu) = if run.segment_mitems_s.is_empty() {
        (
            run.items as f64 / run.wall_s / 1e6,
            run.cpu_s * 1e9 / run.items as f64,
        )
    } else {
        (median(&run.segment_mitems_s), median(&run.segment_cpu_ns))
    };
    let mut m: Metrics = vec![
        ("throughput_mitems_s".into(), throughput, "Mitems/s"),
        ("cpu_ns_per_item".into(), cpu, "ns/item"),
    ];
    latency_metrics(&mut m, &run.latencies_ms);
    m.extend([
        ("accuracy_loss_pct".into(), verdict.accuracy_loss_pct, "%"),
        ("ci_coverage".into(), verdict.ci_coverage, "ratio"),
        ("setup_s".into(), median(&run.setup_s), "s"),
        ("peak_rss_mb".into(), procfs::peak_rss_mib(), "MiB"),
    ]);
    m
}

fn span_durations(run: &Run, name: &str) -> Vec<f64> {
    run.spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64)
        .collect()
}

fn or_zero(x: f64) -> f64 {
    if x.is_finite() {
        x
    } else {
        0.0
    }
}

/// The per-layer ledger of one workload from its untraced run, its traced
/// run and the layer replay.
fn per_layer(spec: &Spec, base: &Run, traced: &Run, l: &layers::Layers) -> Metrics {
    let items = traced.items as f64;
    let sum = |name: &str| span_durations(traced, name).iter().sum::<f64>();
    let med_us = |name: &str| or_zero(median(&span_durations(traced, name)) / 1e3);
    let push = span_durations(traced, "push_batch");
    let push_ns = push.iter().sum::<f64>() / items;
    let observe_ns = l.observe_ns / l.observed.max(1) as f64;
    let items_per_pane = spec.pane_items as f64;
    let pane_ns = |us: f64| or_zero(us) * 1e3 / items_per_pane;
    // Per-item share of the pane work on the caller's path: every
    // worker's close, the merge (its StratumStats conversion included) and
    // finalization (its window estimation included).
    let close_ns = pane_ns(median(&l.close_us)) * spec.shards as f64;
    let pane_work_ns = close_ns
        + pane_ns(median(&l.merge_us))
        + pane_ns(median(&l.finalize_pane_us))
        + pane_ns(median(&l.finalize_window_us));
    let encode_ns = pane_ns(median(&l.encode_us)) * spec.shards as f64;
    let session_self_ns = match spec.kind {
        Kind::Inline => push_ns - observe_ns - pane_work_ns,
        // The shard thread samples and closes panes while the caller routes;
        // the caller merges and finalizes.
        Kind::Sharded => push_ns - (pane_work_ns - close_ns),
        // Feeders sample, close and encode; the coordinator merges and
        // finalizes on its own thread.
        Kind::Live => push_ns - observe_ns - close_ns - encode_ns,
    };
    let status = traced
        .status
        .as_ref()
        .expect("every drive records the status before finish");
    let loads: Vec<f64> = match spec.kind {
        Kind::Sharded => status.shards.iter().map(|s| s.ingested as f64).collect(),
        Kind::Live => status
            .workers
            .iter()
            .map(|w| w.ingest.ingested as f64)
            .collect(),
        Kind::Inline => vec![items],
    };
    let skew = loads.iter().cloned().fold(0.0, f64::max)
        / (loads.iter().sum::<f64>() / loads.len().max(1) as f64);
    let (routed, recycled) = status.shards.iter().fold((0u64, 0u64), |(r, c), s| {
        (r + s.chunks_routed, c + s.chunks_recycled)
    });
    let is_live = spec.kind == Kind::Live;
    let live = |x: f64| if is_live { x } else { 0.0 };

    // The ledger: self time of every span, plus the replayed work that
    // runs on threads the spans do not cover (shard threads sample; the
    // coordinator's reader threads decode digests).
    let selfs = self_times(&traced.spans);
    let mut ledger_ns: f64 = traced
        .spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.name != "chunk")
        .map(|(_, &t)| t as f64)
        .sum();
    let panes = items / items_per_pane;
    match spec.kind {
        Kind::Inline => {}
        Kind::Sharded => ledger_ns += observe_ns * items + close_ns * items,
        Kind::Live => ledger_ns += or_zero(median(&l.decode_us)) * 1e3 * panes * spec.shards as f64,
    }
    let cpu_per_item = |r: &Run| r.cpu_s * 1e9 / r.items as f64;
    let explained = 100.0 * ledger_ns / (traced.cpu_s * 1e9);
    let overhead = 100.0 * (cpu_per_item(traced) / cpu_per_item(base) - 1.0);
    let checkpoint_us = if is_live {
        med_us("checkpoint")
    } else {
        median(&l.checkpoint_us)
    };

    let m: Metrics = vec![
        (
            "gen.replay_ns_per_item".into(),
            sum("gen.replay") / items,
            "ns/item",
        ),
        (
            "gen.lag_p99_ms".into(),
            percentile(&traced.gen_lag_ms, 99.0),
            "ms",
        ),
        (
            "gen.lag_max_ms".into(),
            percentile(&traced.gen_lag_ms, 100.0),
            "ms",
        ),
        ("session.push_batch_ns_per_item".into(), push_ns, "ns/item"),
        (
            "session.push_batch_p99_us".into(),
            percentile(&push, 99.0) / 1e3,
            "us",
        ),
        (
            "session.self_ns_per_item".into(),
            session_self_ns,
            "ns/item",
        ),
        (
            "session.poll_windows_us".into(),
            if is_live {
                med_us("net.poll")
            } else {
                med_us("poll_windows")
            },
            "us",
        ),
        ("sampling.observe_ns_per_item".into(), observe_ns, "ns/item"),
        (
            "sampling.accept_ratio".into(),
            l.held as f64 / l.seen.max(1) as f64,
            "ratio",
        ),
        ("sampling.close_us".into(), median(&l.close_us), "us"),
        (
            "sharded.fabric_ns_per_item".into(),
            if spec.kind == Kind::Sharded {
                push_ns - observe_ns
            } else {
                0.0
            },
            "ns/item",
        ),
        ("sharded.settle_us".into(), med_us("settle"), "us"),
        (
            "sharded.recycle_ratio".into(),
            recycled as f64 / routed.max(1) as f64,
            "ratio",
        ),
        ("sharded.shard_skew".into(), skew, "ratio"),
        ("merge.pane_us".into(), median(&l.merge_us), "us"),
        ("estimate.pane_us".into(), median(&l.estimate_pane_us), "us"),
        (
            "estimate.window_us".into(),
            median(&l.estimate_window_us),
            "us",
        ),
        ("finalize.pane_us".into(), median(&l.finalize_pane_us), "us"),
        (
            "finalize.window_us".into(),
            median(&l.finalize_window_us),
            "us",
        ),
        ("wire.encode_us".into(), median(&l.encode_us), "us"),
        ("wire.decode_us".into(), median(&l.decode_us), "us"),
        ("wire.digest_bytes".into(), median(&l.digest_bytes), "bytes"),
        ("net.frame_rtt_us".into(), median(&l.rtt_us), "us"),
        ("net.poll_us".into(), live(med_us("net.poll")), "us"),
        (
            "net.worker_lag_max".into(),
            live(traced.worker_lag_max as f64),
            "items",
        ),
        ("net.wait_ms".into(), median(&traced.wait_ms), "ms"),
        ("net.degraded_panes".into(), traced.health.0 as f64, "count"),
        ("net.lost_items".into(), traced.health.1 as f64, "count"),
        ("checkpoint.us".into(), checkpoint_us, "us"),
        (
            "checkpoint.bytes".into(),
            median(&l.checkpoint_bytes),
            "bytes",
        ),
        ("trace.explained_pct".into(), explained, "%"),
        ("trace.overhead_pct".into(), overhead, "%"),
    ];
    m.into_iter().map(|(n, v, u)| (n, or_zero(v), u)).collect()
}

fn write_spans(args: &Args, spans: &[trace::Span]) -> std::io::Result<PathBuf> {
    std::fs::create_dir_all(&args.out)?;
    let path = args.out.join(format!("{}.spans.csv", args.workload));
    let selfs = self_times(spans);
    let mut text = String::from("name,id,start_ns,end_ns,parent,self_ns\n");
    for (s, t) in spans.iter().zip(selfs) {
        let parent = s.parent.map_or(String::new(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{},{},{},{},{parent},{t}",
            s.name, s.id, s.start, s.end
        );
    }
    std::fs::write(&path, text)?;
    Ok(path)
}

fn json(verdict: &Verdict, metrics: &Metrics) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        verdict.failed == 0,
        verdict.attempted.max(1),
        verdict.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let value = or_zero(*value);
        let _ = write!(
            out,
            "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = workloads::spec(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {}; one of {:?}",
            args.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    let (verdict, metrics) = if args.trace {
        // A third of the time each: untraced, traced, layer replay.
        let third = args.seconds / 3.0;
        let (base, _) = workloads::drive(&spec, args.seed, third, false, 1);
        let (traced, block) = workloads::drive(&spec, args.seed, third, true, 1);
        let mut verdict = check(&spec, &block, &traced);
        let l = layers::replay(&spec, &block, args.seed, third, 3, traced.snapshot.as_ref());
        verdict.attempted += l.panes;
        verdict.failed += l.failures;
        if l.failures > 0 {
            verdict
                .problems
                .push(format!("{} layer replay failures", l.failures));
        }
        match write_spans(&args, &traced.spans) {
            Ok(path) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans: {e}"),
        }
        (verdict, per_layer(&spec, &base, &traced, &l))
    } else {
        let (run, block) = workloads::drive(&spec, args.seed, args.seconds, false, SETUP_REPS);
        let verdict = check(&spec, &block, &run);
        println!(
            "{}: {} items in {} laps, {} windows, {} push calls",
            spec.name,
            run.items,
            run.laps,
            run.windows.len(),
            run.calls
        );
        let metrics = end_to_end(&run, &verdict);
        (verdict, metrics)
    };
    for (name, value, unit) in &metrics {
        println!("{name:<34} {value:>16.6} {unit}");
    }
    println!(
        "error_rate {:.6} ({} of {} operations failed)",
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
        verdict.failed,
        verdict.attempted
    );
    for p in &verdict.problems {
        println!("CHECK FAILED: {p}");
    }
    println!("{}", json(&verdict, &metrics));
    ExitCode::SUCCESS
}
