//! Trace capture and replay benchmarks.
//!
//! * `replay_import` — parse a rendered capture back into a
//!   `TraceCapture` (throughput in events): the cost of loading a saved
//!   trace before any checking happens, on the flat one-core capture
//!   (`parse_text`) and on the merged 2-core one (`parse_text_merged`);
//! * `replay_render` — the inverse direction, for the export path;
//! * `replay_step` — step an imported capture against pre-resolved
//!   bounds (`replay_with`, the hot path of campaign-scale replays), on
//!   the flat one-core capture and on a merged 2-core partitioned one;
//! * `replay_end_to_end` — `replay()` including bounds resolution, what
//!   one `rtft replay` invocation costs after parsing;
//! * `stream_sink/<buffered|streamed>` — the same 64-task detect
//!   scenario with and without a live `TraceSink` attached: the
//!   streaming seam must stay within a few percent of the buffered
//!   run (the `rtft serve` `POST /trace` overhead budget).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rtft_campaign::capture_job;
use rtft_core::analyzer::AnalyzerBuilder;
use rtft_ft::harness::{run_on_cores, run_scenario_buffered, Scenario};
use rtft_ft::treatment::Treatment;
use rtft_replay::{job_from_campaign, replay, replay_with, resolve_bounds};
use rtft_sim::engine::SimBuffers;
use rtft_sim::fault::FaultPlan;
use rtft_taskgen::GeneratorConfig;
use rtft_trace::TraceCapture;
use std::hint::black_box;

/// The paper system under `detect`/jRate over many hyperperiods — a
/// multi-thousand-event capture, the realistic import/replay workload.
const LONG_PAPER_JOB: &str = "\
campaign bench-replay
horizon 30000ms
taskgen paper
faults paper
policy fp
cores 1
treatment detect
platform jrate
";

fn bench_replay(c: &mut Criterion) {
    let job = job_from_campaign(LONG_PAPER_JOB).expect("bench job parses");
    // The same system spread over two partitioned cores: a merged
    // (core-tagged) capture body with events on both.
    let merged_job = job_from_campaign(&LONG_PAPER_JOB.replace("cores 1", "cores 2\nalloc wfd"))
        .expect("merged bench job parses");
    let merged = capture_job(&merged_job).expect("merged bench job captures");
    let merged_bounds = resolve_bounds(&merged_job).expect("merged bounds resolve");
    let capture = capture_job(&job).expect("bench job captures");
    let text = capture.render_text();
    let events = capture.len() as u64;

    let mut group = c.benchmark_group("replay_import");
    group.throughput(Throughput::Elements(events));
    group.bench_function(BenchmarkId::from_parameter("parse_text"), |b| {
        b.iter(|| TraceCapture::parse_text(black_box(&text)).unwrap())
    });
    group.finish();
    let merged_text = merged.render_text();
    let mut group = c.benchmark_group("replay_import");
    group.throughput(Throughput::Elements(merged.len() as u64));
    group.bench_function(BenchmarkId::from_parameter("parse_text_merged"), |b| {
        b.iter(|| TraceCapture::parse_text(black_box(&merged_text)).unwrap())
    });
    group.finish();

    let mut group = c.benchmark_group("replay_render");
    group.throughput(Throughput::Elements(events));
    group.bench_function(BenchmarkId::from_parameter("render_text"), |b| {
        b.iter(|| black_box(&capture).render_text())
    });
    group.finish();

    let bounds = resolve_bounds(&job).expect("bounds resolve");
    let mut group = c.benchmark_group("replay_step");
    group.throughput(Throughput::Elements(events));
    group.bench_function(BenchmarkId::from_parameter("replay_with"), |b| {
        b.iter(|| replay_with(black_box(&capture), black_box(&job), black_box(&bounds)))
    });
    group.finish();
    let mut group = c.benchmark_group("replay_step");
    group.throughput(Throughput::Elements(merged.len() as u64));
    group.bench_function(BenchmarkId::from_parameter("replay_with_merged"), |b| {
        b.iter(|| {
            replay_with(
                black_box(&merged),
                black_box(&merged_job),
                black_box(&merged_bounds),
            )
        })
    });
    group.finish();

    c.bench_function("replay_end_to_end", |b| {
        b.iter(|| replay(black_box(&capture), black_box(&job)).unwrap())
    });

    // Streaming-sink overhead: identical 64-task scenario, with and
    // without a per-event observer. The engines drain the freshly
    // appended log suffix to the sink after each wake, so the delta is
    // the true cost of the live seam.
    let set = GeneratorConfig::new(64)
        .with_utilization(0.6)
        .with_periods(
            rtft_core::time::Duration::millis(5),
            rtft_core::time::Duration::millis(100),
        )
        .generate(3);
    let sc = Scenario::new(
        "stream-sink",
        set.clone(),
        FaultPlan::none(),
        Treatment::DetectOnly,
        rtft_core::time::Instant::from_millis(1_000),
    );
    let mut session = AnalyzerBuilder::new(&sc.set)
        .sched_policy(sc.policy)
        .build();
    let mut bufs = SimBuffers::new();
    let streamed_events = run_scenario_buffered(&sc, &mut session, &mut bufs)
        .expect("bench scenario runs")
        .log
        .len() as u64;

    let mut group = c.benchmark_group("stream_sink");
    group.throughput(Throughput::Elements(streamed_events));
    group.bench_function(BenchmarkId::from_parameter("buffered"), |b| {
        b.iter(|| run_scenario_buffered(black_box(&sc), &mut session, &mut bufs).unwrap())
    });
    group.bench_function(BenchmarkId::from_parameter("streamed"), |b| {
        b.iter(|| {
            let mut seen = 0u64;
            let mut sink = |_core: Option<usize>, _at, _kind| seen += 1;
            let (out, _) =
                run_on_cores(black_box(&sc), &mut session, 1, &mut bufs, Some(&mut sink)).unwrap();
            black_box(seen);
            out
        })
    });
    group.finish();
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
