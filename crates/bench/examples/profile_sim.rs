//! Ad-hoc breakdown of sim_events/64 cost. Sections are interleaved in
//! rounds and the per-section minimum is reported, so slow host windows
//! (shared single-core VM) don't skew one section against another.
use rtft_core::time::{Duration, Instant};
use rtft_sim::prelude::*;
use rtft_taskgen::GeneratorConfig;
use std::hint::black_box;

fn main() {
    let set = GeneratorConfig::new(64)
        .with_utilization(0.6)
        .with_periods(Duration::millis(5), Duration::millis(100))
        .generate(3);
    let horizon = Instant::from_millis(1_000);
    let per_round = 50u32;
    let rounds = 20;

    for _ in 0..50 {
        black_box(run_plain(set.clone(), horizon));
    }

    let mut best_full = std::time::Duration::MAX;
    let mut best_buf = std::time::Duration::MAX;
    let mut bufs = SimBuffers::new();
    for _ in 0..rounds {
        let t0 = std::time::Instant::now();
        for _ in 0..per_round {
            black_box(run_plain(black_box(set.clone()), horizon));
        }
        best_full = best_full.min(t0.elapsed() / per_round);

        let t0 = std::time::Instant::now();
        for _ in 0..per_round {
            let mut sim = Simulator::new_in(
                black_box(set.clone()),
                1,
                SimConfig::until(horizon),
                &mut bufs,
            );
            sim.run(&mut NullSupervisor);
            let log = sim.finish(&mut bufs);
            black_box(&log);
            bufs.recycle_log(log);
        }
        best_buf = best_buf.min(t0.elapsed() / per_round);
    }

    let events = run_plain(set, horizon).len();
    println!("events per run: {events}");
    println!("full run (min):     {best_full:>10.2?}");
    println!("buffered run (min): {best_buf:>10.2?}");
}
