//! End-to-end benchmark of the rtft user-facing paths.
//!
//! One process drives one workload: an in-process `rtft serve` daemon
//! over real loopback sockets (`serve_warm`, `query_cold`),
//! `run_campaign` (`campaign_grid`) or the `rtft replay` path
//! (`replay_capture`). Every answer is checked. An untraced run reports
//! the end-to-end metrics; a traced run (`--trace 1`) reports the
//! per-layer split, from spans the benchmark records around its own
//! calls into each crate's public functions. See `README.md`.

mod campaign_grid;
pub mod daemon;
mod gen;
mod query_cold;
mod replay_capture;
mod serve_warm;
mod spans;
pub mod stats;

use stats::Outcome;

pub const WORKLOADS: [&str; 4] = [
    "serve_warm",
    "query_cold",
    "campaign_grid",
    "replay_capture",
];

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("p99_ms", "ms"),
    ("stats_p50_ms", "ms"),
    ("trace_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A workload that does not
/// exercise a layer reports 0 for it.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.transport_ms", "ms"),
    ("serve.http_read_us", "us"),
    ("serve.http_write_us", "us"),
    ("query.parse_us", "us"),
    ("diag.lint_us", "us"),
    ("serve.key_us", "us"),
    ("serve.cache_us", "us"),
    ("part.warm_batch_us", "us"),
    ("query.render_us", "us"),
    ("serve.live_ms", "ms"),
    ("serve.live_events", "count"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("part.cold_batch_ms.uni", "ms"),
    ("part.cold_batch_ms.partitioned", "ms"),
    ("part.cold_batch_ms.global", "ms"),
    ("core.query_ms.feasibility", "ms"),
    ("core.query_ms.wcrt", "ms"),
    ("core.query_ms.thresholds", "ms"),
    ("core.query_ms.equitable", "ms"),
    ("core.query_ms.system_allowance", "ms"),
    ("core.query_ms.overrun", "ms"),
    ("core.query_ms.sensitivity", "ms"),
    ("part.alloc_us", "us"),
    ("serve.fan_ms", "ms"),
    ("campaign.expand_ms", "ms"),
    ("campaign.lint_ms", "ms"),
    ("campaign.analysis_ms", "ms"),
    ("campaign.sessions", "count"),
    ("sim.ns_per_event.uni", "ns"),
    ("sim.ns_per_event.partitioned", "ns"),
    ("sim.ns_per_event.global", "ns"),
    ("sim.events", "count"),
    ("campaign.oracle_us", "us"),
    ("trace.hash_us", "us"),
    ("campaign.digest_us", "us"),
    ("campaign.report_ms", "ms"),
    ("campaign.jobs.ran", "count"),
    ("campaign.jobs.infeasible_base", "count"),
    ("campaign.jobs.unplaceable", "count"),
    ("campaign.jobs.analysis_error", "count"),
    ("trace.parse_ns_per_event", "ns"),
    ("replay.job_us", "us"),
    ("replay.bounds_us", "us"),
    ("replay.step_ns_per_event", "ns"),
    ("replay.minimize_ms", "ms"),
    ("replay.divergences", "count"),
    ("client.gen_lag_ms", "ms"),
    ("client.late_sends", "count"),
    ("overhead.p50_ms", "ms"),
    ("overhead.p99_ms", "ms"),
    ("overhead.ops_per_s", "1/s"),
];

/// One invocation's settings.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Run one workload.
///
/// # Errors
/// An unknown workload name.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = match args.workload.as_str() {
        "serve_warm" => serve_warm::run(args.seed, args.seconds, args.trace),
        "query_cold" => query_cold::run(args.seed, args.seconds, args.trace),
        "campaign_grid" => campaign_grid::run(args.seed, args.seconds, args.trace),
        "replay_capture" => replay_capture::run(args.seed, args.seconds, args.trace),
        other => {
            return Err(format!(
                "unknown workload `{other}` (expected one of {WORKLOADS:?})"
            ))
        }
    };
    out.metric("peak_rss_mb", stats::peak_rss_mb(), "MiB");
    Ok(out)
}

/// Run `setup` `REPEATS` times, closing all but the last result, and
/// report the median set-up time as `setup_s`: one set-up lasts well
/// under the time over which this host's speed swings, so a single one
/// is too noisy to hold a later change to a bound.
pub fn timed_setup<S>(out: &mut Outcome, mut setup: impl FnMut() -> S, close: impl Fn(S)) -> S {
    const REPEATS: usize = 5;
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..REPEATS {
        let t = std::time::Instant::now();
        let s = setup();
        times.push(t.elapsed().as_secs_f64());
        if let Some(old) = kept.replace(s) {
            close(old);
        }
    }
    out.metric("setup_s", stats::median(&times).expect("repeated"), "s");
    kept.expect("at least one set-up")
}

/// Write the traced run's spans next to the build output.
pub fn write_spans(workload: &str, seed: u64, tracer: &spans::Tracer) {
    let dir = std::path::PathBuf::from(
        std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_string()),
    )
    .join("perfbench-spans");
    let path = dir.join(format!("{workload}-{seed}.tsv"));
    if let Err(e) =
        std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.render_tsv()))
    {
        eprintln!("perfbench: could not write {}: {e}", path.display());
    }
}

/// Tracing overhead of a workload whose traced run splits the layers
/// offline, after a timed loop that carries no spans: zero by
/// construction.
pub fn offline_overhead(out: &mut Outcome) {
    for (name, unit) in [
        ("overhead.p50_ms", "ms"),
        ("overhead.p99_ms", "ms"),
        ("overhead.ops_per_s", "1/s"),
    ] {
        out.metric(name, 0.0, unit);
    }
}

/// Tracing overhead of a workload that records spans inside its timed
/// loop: the traced half's end-to-end metrics minus the untraced half's.
/// The untraced half's checks and work counts join the traced half's.
pub fn overhead(traced: &mut Outcome, untraced: &Outcome) {
    for (metric, name, unit) in [
        ("p50_ms", "overhead.p50_ms", "ms"),
        ("p99_ms", "overhead.p99_ms", "ms"),
        ("ops_per_s", "overhead.ops_per_s", "1/s"),
    ] {
        if let (Some(t), Some(u)) = (traced.metrics.get(metric), untraced.metrics.get(metric)) {
            let delta = t.0 - u.0;
            traced.metric(name, delta, unit);
        }
    }
    traced.attempted += untraced.attempted;
    traced.failed += untraced.failed;
    traced.failures.extend(untraced.failures.iter().cloned());
    for (name, n) in &untraced.work {
        traced.count(name.clone(), *n);
    }
}
