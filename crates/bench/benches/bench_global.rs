//! Global-scheduling benchmarks: sufficient-test cost and migrating-
//! engine throughput.
//!
//! * `global_feasibility/<policy>/<n>` — one cold `GlobalAnalyzer`
//!   feasibility probe (GFP interference bounds or the GEDF density
//!   condition) on an n-task workload over 4 cores; this is the price
//!   the campaign admission gate pays per global cell;
//! * `global_sim_events/<m>` — the one engine over one second of
//!   virtual time at m = 1, 2 and 4 cores, throughput in trace events,
//!   same workload regime as `sim_events` so the per-event figures are
//!   comparable across core counts (m = 1 is the uniprocessor case).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rtft_core::policy::PolicyKind;
use rtft_core::task::TaskSet;
use rtft_core::time::{Duration, Instant};
use rtft_global::GlobalAnalyzer;
use rtft_sim::engine::{SimBuffers, SimConfig, Simulator};
use rtft_sim::supervisor::NullSupervisor;
use rtft_taskgen::GeneratorConfig;
use rtft_trace::TraceLog;
use std::hint::black_box;

/// `set` on `cores` cores of the engine, fault-free and unsupervised.
fn run_plain_on(set: TaskSet, cores: usize, horizon: Instant) -> TraceLog {
    let mut sim = Simulator::new_in(
        set,
        cores,
        SimConfig::until(horizon),
        &mut SimBuffers::new(),
    );
    sim.run(&mut NullSupervisor);
    sim.into_trace()
}

fn bench_global(c: &mut Criterion) {
    let mut group = c.benchmark_group("global_feasibility");
    for n in [16usize, 32] {
        let set = GeneratorConfig::multicore(n, 4).generate(5);
        for policy in [PolicyKind::FixedPriority, PolicyKind::Edf] {
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new(policy.label(), n), &set, |b, set| {
                b.iter(|| GlobalAnalyzer::new(black_box(set).clone(), 4, policy).is_feasible())
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("global_sim_events");
    for m in [1usize, 2, 4] {
        let set = GeneratorConfig::multicore(16, m)
            .with_periods(Duration::millis(5), Duration::millis(100))
            .generate(3);
        let events = run_plain_on(set.clone(), m, Instant::from_millis(1_000)).len();
        group.throughput(Throughput::Elements(events as u64));
        group.bench_with_input(BenchmarkId::from_parameter(m), &set, |b, set| {
            b.iter(|| run_plain_on(black_box(set.clone()), m, Instant::from_millis(1_000)))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_global);
criterion_main!(benches);
