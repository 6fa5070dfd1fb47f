//! Partitioned-multiprocessor benchmarks: allocator throughput and the
//! cost of per-core analysis.
//!
//! * `partition_alloc/<alloc>/<n>` — partition an n-task multicore
//!   workload (U = 0.55 × 4 cores) over 4 cores; every placement runs a
//!   per-core feasibility probe, so this prices the probe-driven bin
//!   packing, not utilization arithmetic;
//! * `partition_analysis/<cores>` — build the per-core sessions and
//!   compute every core's policy thresholds for a fixed 16-task
//!   workload at 1/2/4 cores (1 core = the uniprocessor baseline).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rtft_core::policy::PolicyKind;
use rtft_part::prelude::*;
use rtft_taskgen::GeneratorConfig;
use std::hint::black_box;

fn bench_partition(c: &mut Criterion) {
    let mut group = c.benchmark_group("partition_alloc");
    for n in [16usize, 32] {
        let set = GeneratorConfig::multicore(n, 4).generate(5);
        for alloc in AllocPolicy::HEURISTICS {
            group.throughput(Throughput::Elements(n as u64));
            group.bench_with_input(BenchmarkId::new(alloc.label(), n), &set, |b, set| {
                b.iter(|| {
                    allocate(black_box(set), 4, PolicyKind::FixedPriority, alloc)
                        .expect("the workload fits four cores")
                })
            });
        }
    }
    group.finish();

    let mut group = c.benchmark_group("partition_analysis");
    let set = GeneratorConfig::new(16).with_utilization(0.55).generate(9);
    for cores in [1usize, 2, 4] {
        let partition = allocate(
            &set,
            cores,
            PolicyKind::FixedPriority,
            AllocPolicy::WorstFitDecreasing,
        )
        .expect("U = 0.55 fits everywhere");
        group.bench_with_input(
            BenchmarkId::from_parameter(cores),
            &partition,
            |b, partition| {
                b.iter(|| {
                    let mut sessions = PartitionedAnalyzer::new(
                        black_box(partition).clone(),
                        PolicyKind::FixedPriority,
                    );
                    sessions
                        .sessions_mut()
                        .map(|(_, session)| session.policy_thresholds().expect("feasible").len())
                        .sum::<usize>()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_partition);
criterion_main!(benches);
