//! Simulator benchmarks (EXP-X4): event throughput and determinism cost.
//!
//! * `sim_table2_hyperperiods` — the paper system over many hyperperiods;
//! * `sim_events/<n>` — random n-task sets for one second of virtual
//!   time, throughput in trace events; n now reaches 256 so the
//!   component engine's event-count scaling (not task-count scaling)
//!   is what the JSON records;
//! * `sim_idle/<n>` — a 64-task set at 5% utilization: most components
//!   sleep through most of the horizon, so per-event cost should match
//!   the busy sets (idle tasks cost nothing between their wakes);
//! * `sim_trace_roundtrip` — serialize + parse the produced trace (the
//!   measurement pipeline of the paper's §5);
//! * `trace_post/{stats,content_hash}` — the post-processing every
//!   simulated job pays on the 64-task `sim_events` trace: rebuilding
//!   job lifecycles (`TraceStats::from_log`) and the digest's content
//!   hash, throughput in trace events.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rtft_core::time::Instant;
use rtft_sim::engine::run_plain;
use rtft_taskgen::paper;
use rtft_taskgen::GeneratorConfig;
use rtft_trace::format::{from_text, to_text};
use rtft_trace::TraceStats;
use std::hint::black_box;

fn bench_sim(c: &mut Criterion) {
    c.bench_function("sim_table2_hyperperiods", |b| {
        // 10 hyperperiods of the paper system (30 s of virtual time).
        b.iter(|| run_plain(black_box(paper::table2()), Instant::from_millis(30_000)))
    });

    let mut group = c.benchmark_group("sim_events");
    for n in [4usize, 16, 64, 128, 256] {
        let set = GeneratorConfig::new(n)
            .with_utilization(0.6)
            .with_periods(
                rtft_core::time::Duration::millis(5),
                rtft_core::time::Duration::millis(100),
            )
            .generate(3);
        let events = run_plain(set.clone(), Instant::from_millis(1_000)).len();
        group.throughput(Throughput::Elements(events as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &set, |b, set| {
            b.iter(|| run_plain(black_box(set.clone()), Instant::from_millis(1_000)))
        });
    }
    group.finish();

    // Idle-heavy: 64 tasks at 5% total utilization. The set produces far
    // fewer events than the 60%-utilization sets above; per-event cost
    // (the ns/element figure in the JSON) should stay in the same band —
    // sleeping components are not scanned between their wakes.
    let mut group = c.benchmark_group("sim_idle");
    let set = GeneratorConfig::new(64)
        .with_utilization(0.05)
        .with_periods(
            rtft_core::time::Duration::millis(5),
            rtft_core::time::Duration::millis(100),
        )
        .generate(3);
    let events = run_plain(set.clone(), Instant::from_millis(1_000)).len();
    group.throughput(Throughput::Elements(events as u64));
    group.bench_with_input(BenchmarkId::from_parameter(64usize), &set, |b, set| {
        b.iter(|| run_plain(black_box(set.clone()), Instant::from_millis(1_000)))
    });
    group.finish();

    // The 64-task trace of `sim_events/64`.
    let mut group = c.benchmark_group("trace_post");
    let set = GeneratorConfig::new(64)
        .with_utilization(0.6)
        .with_periods(
            rtft_core::time::Duration::millis(5),
            rtft_core::time::Duration::millis(100),
        )
        .generate(3);
    let log = run_plain(set.clone(), Instant::from_millis(1_000));
    group.throughput(Throughput::Elements(log.len() as u64));
    group.bench_function(BenchmarkId::from_parameter("stats"), |b| {
        b.iter(|| TraceStats::from_log(black_box(&log), Some(&set)))
    });
    group.bench_function(BenchmarkId::from_parameter("content_hash"), |b| {
        b.iter(|| black_box(&log).content_hash())
    });
    group.finish();

    let log = run_plain(paper::table2(), Instant::from_millis(30_000));
    let text = to_text(&log);
    c.bench_function("sim_trace_serialize", |b| {
        b.iter(|| to_text(black_box(&log)))
    });
    c.bench_function("sim_trace_parse", |b| {
        b.iter(|| from_text(black_box(&text)).unwrap())
    });
}

criterion_group!(benches, bench_sim);
criterion_main!(benches);
