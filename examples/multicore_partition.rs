//! Multicore partitioned scheduling end to end in ~60 lines.
//!
//! 1. Generate a workload with total utilization past one core
//!    (UUniFast-discard, U = 2.2 over 10 tasks);
//! 2. place it on a `Workbench` that partitions it over 4 cores with
//!    worst-fit decreasing, every placement validated by a per-core
//!    feasibility probe;
//! 3. inspect the per-core analysis (WCRTs, equitable allowances);
//! 4. execute it — one engine per core — with a fault injected, and
//!    check the damage stays on the faulty task's core.
//!
//! ```text
//! cargo run --example multicore_partition
//! ```

use rtft::part::{AllocPolicy, Workbench};
use rtft::prelude::*;
use rtft::sim::engine::SimBuffers;
use rtft_core::query::SystemSpec;
use rtft_core::time::{Duration, Instant};

fn main() {
    // 1. A workload no single processor can run: U ≈ 2.2.
    let set = rtft::taskgen::GeneratorConfig::multicore(10, 4).generate(7);
    println!(
        "workload: {} tasks, U = {:.3}\n",
        set.len(),
        set.utilization()
    );

    // 2. Partition over 4 cores (worst-fit decreasing balances load).
    let spec = SystemSpec::uniprocessor("multicore-demo", set.clone())
        .with_cores(4, AllocPolicy::WorstFitDecreasing);
    let mut bench = Workbench::new(spec);
    let partition = bench
        .partition()
        .expect("the workload fits four cores")
        .clone();
    print!("{}", partition.render());

    // 3. Per-core analysis: one memoized session per core.
    let sessions = bench.partitioned_mut().expect("a partitioned spec");
    for (core, session) in sessions.sessions_mut() {
        assert!(session.is_feasible().expect("analysis converges"));
        let allowance = session
            .equitable_allowance()
            .expect("converges")
            .map(|eq| eq.allowance.to_string())
            .unwrap_or_else(|| "-".to_string());
        println!("core {core}: equitable allowance A = {allowance}");
    }

    // 4. Execute with a fault on the first task: one engine per core,
    //    immediate-stop treatment, merged core-tagged trace.
    let faulty = set.by_rank(0).id;
    let faults = FaultPlan::none().overrun(faulty, 1, Duration::millis(30));
    let scenario = Scenario::new(
        "multicore-demo",
        set,
        faults,
        Treatment::ImmediateStop {
            mode: StopMode::Permanent,
        },
        Instant::from_millis(2000),
    );
    let run = bench
        .simulate(&scenario, &mut SimBuffers::new(), None)
        .expect("feasible partition runs");
    println!(
        "\nran {} cores, {} events, merged hash {:016x}",
        run.parts().count(),
        run.parts().map(|outcome| outcome.log.len()).sum::<usize>(),
        run.trace_hash()
    );
    println!(
        "fault injected on {} (core {}); collateral failures: {:?}",
        faulty,
        partition.core_of(faulty).expect("assigned"),
        run.collateral_failures()
    );
    assert!(
        run.collateral_failures().is_empty(),
        "partitioned isolation plus the stop treatment confine the fault"
    );
    println!("damage confined to the faulty task's core.");
}
