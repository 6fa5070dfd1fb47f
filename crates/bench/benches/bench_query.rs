//! Query-plane benchmarks: what `Workbench::run_batch` buys over
//! issuing the same queries one-shot on cold sessions.
//!
//! * `query_allowances/{batched,one_shot}/{uni,4core,global}` — the
//!   headline workload: the allowance-heavy batch (thresholds,
//!   equitable, system allowance, every task's overrun) on a 50-task
//!   UUniFast set, uniprocessor, partitioned over 4 cores, and
//!   globally scheduled on 4 cores (a lighter set the sufficient
//!   global test proves, so every search runs). The
//!   one-shot path builds a fresh `Workbench` per query, exactly what a
//!   naive service endpoint would do; the batched path shares one
//!   workbench, whose run ordering feeds every search the memoized
//!   busy-period state of the queries before it.
//! * `query_dispatch/<platform>` — the fixed cost of answering a single
//!   feasibility query from scratch (session build + load test +
//!   fixed point), the floor a batch amortizes against.
//!
//! Both paths are asserted to return identical responses before any
//! timing runs: ordering and memo sharing are accelerations, never
//! different numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rtft_core::allowance::SlackPolicy;
use rtft_core::query::{AllocPolicy, Placement, Query, Response, SystemSpec};
use rtft_core::task::{TaskId, TaskSet};
use rtft_part::workbench::Workbench;
use rtft_taskgen::GeneratorConfig;
use std::hint::black_box;

/// The allowance-heavy batch of the acceptance workload: the full
/// allowance report — thresholds, the equitable allowance, the system
/// allowance and every task's individual overrun headroom. Issued
/// one-shot, each overrun query re-runs its binary search on a cold
/// session; batched, the workbench orders the system allowance first
/// and the per-task queries answer from its memoized searches.
fn allowance_batch(set: &TaskSet) -> Vec<Query> {
    let mut queries = vec![
        Query::Feasibility,
        Query::Thresholds,
        Query::EquitableAllowance,
        Query::SystemAllowance(SlackPolicy::ProtectAll),
    ];
    for rank in 0..set.len() {
        queries.push(Query::MaxSingleOverrun(set.by_rank(rank).id));
    }
    queries
}

fn specs() -> Vec<(&'static str, SystemSpec)> {
    // 50 tasks at U = 0.72 on one core; 50 tasks at U = 2.2 over four;
    // 50 tasks at U = GLOBAL_U migrating over four.
    let uni_set = GeneratorConfig::new(50).with_utilization(0.72).generate(21);
    let multi_set = GeneratorConfig::multicore(50, 4).generate(21);
    let global_set = GeneratorConfig::new(50)
        .with_utilization(GLOBAL_U)
        .generate(21);
    let global = SystemSpec::uniprocessor("bench-global", global_set)
        .with_cores(4, AllocPolicy::WorstFitDecreasing)
        .with_placement(Placement::Global);
    assert!(
        matches!(
            Workbench::new(global.clone()).run(&Query::Feasibility),
            Ok(Response::Feasibility { feasible: true, .. })
        ),
        "the global bench set must be proven, or its searches never run"
    );
    vec![
        ("uni", SystemSpec::uniprocessor("bench-uni", uni_set)),
        (
            "4core",
            SystemSpec::uniprocessor("bench-4core", multi_set)
                .with_cores(4, AllocPolicy::WorstFitDecreasing),
        ),
        ("global", global),
    ]
}

/// Total utilization of the global bench set.
const GLOBAL_U: f64 = 1.2;

fn bench_allowance_queries(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_allowances");
    for (label, spec) in specs() {
        let queries = allowance_batch(&spec.set);
        // Sanity: batched and one-shot answers are identical.
        let batched = Workbench::new(spec.clone()).run_batch(&queries).unwrap();
        for (q, expected) in queries.iter().zip(&batched) {
            let one_shot = Workbench::new(spec.clone()).run(q).unwrap();
            assert_eq!(&one_shot, expected, "{q:?} on {label}");
        }

        group.bench_with_input(BenchmarkId::new("batched", label), &spec, |b, spec| {
            b.iter(|| {
                Workbench::new(black_box(spec.clone()))
                    .run_batch(&queries)
                    .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("one_shot", label), &spec, |b, spec| {
            b.iter(|| {
                queries
                    .iter()
                    .map(|q| Workbench::new(black_box(spec.clone())).run(q).unwrap())
                    .collect::<Vec<_>>()
            })
        });
    }
    group.finish();
}

fn bench_single_query_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("query_dispatch");
    for (label, spec) in specs() {
        group.bench_with_input(BenchmarkId::new("feasibility", label), &spec, |b, spec| {
            b.iter(|| {
                Workbench::new(black_box(spec.clone()))
                    .run(&Query::Feasibility)
                    .unwrap()
            })
        });
    }
    // The overrun search on the paper system — the cheapest non-trivial
    // query, dominated by session-build cost.
    let paper = rtft_taskgen::paper::table2();
    let spec = SystemSpec::uniprocessor("paper", paper);
    group.bench_function(BenchmarkId::new("overrun", "paper"), |b| {
        b.iter(|| {
            Workbench::new(black_box(spec.clone()))
                .run(&Query::MaxSingleOverrun(TaskId(1)))
                .unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_allowance_queries,
    bench_single_query_dispatch
);
criterion_main!(benches);
