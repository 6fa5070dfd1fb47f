//! The streaming-sink seam: a sink must observe exactly the recorded
//! trace, in order, with the engine's own core attribution — and its
//! presence must not perturb the run.

use rtft_core::task::{TaskBuilder, TaskId, TaskSet};
use rtft_core::time::{Duration, Instant};
use rtft_sim::prelude::*;
use rtft_trace::{EventKind, TraceEvent};

fn ms(v: i64) -> Duration {
    Duration::millis(v)
}

fn t(v: i64) -> Instant {
    Instant::from_millis(v)
}

fn table2() -> TaskSet {
    TaskSet::from_specs(vec![
        TaskBuilder::new(1, 20, ms(200), ms(29))
            .deadline(ms(70))
            .build(),
        TaskBuilder::new(2, 18, ms(250), ms(29))
            .deadline(ms(120))
            .build(),
        TaskBuilder::new(3, 16, ms(1500), ms(29))
            .deadline(ms(120))
            .build(),
    ])
}

#[test]
fn uniprocessor_sink_sees_exactly_the_log() {
    let plan = FaultPlan::none().overrun(TaskId(1), 2, ms(17));
    let mut seen: Vec<(Option<usize>, TraceEvent)> = Vec::new();
    let mut sink = |core: Option<usize>, at: Instant, kind: EventKind| {
        seen.push((core, TraceEvent::new(at, kind)));
    };
    let mut sim = Simulator::new(table2(), SimConfig::until(t(3000))).with_faults(plan.clone());
    sim.run_streamed(&mut NullSupervisor, &mut sink);
    let log = sim.into_trace();

    assert_eq!(seen.len(), log.len());
    for (i, e) in log.events().iter().enumerate() {
        assert_eq!(seen[i].0, None, "uniprocessor events carry no core");
        assert_eq!(&seen[i].1, e, "event {i} must stream in log order");
    }

    // And the recorded trace is byte-identical to a sink-less run.
    let mut plain = Simulator::new(table2(), SimConfig::until(t(3000))).with_faults(plan);
    plain.run(&mut NullSupervisor);
    assert_eq!(plain.into_trace().content_hash(), log.content_hash());
}

#[test]
fn global_sink_reports_the_engine_core_tags() {
    let mut seen: Vec<(Option<usize>, TraceEvent)> = Vec::new();
    let mut sink = |core: Option<usize>, at: Instant, kind: EventKind| {
        seen.push((core, TraceEvent::new(at, kind)));
    };
    let mut sim = Simulator::new_in(
        table2(),
        2,
        SimConfig::until(t(2000)),
        &mut SimBuffers::new(),
    );
    sim.run_streamed(&mut NullSupervisor, &mut sink);

    assert_eq!(seen.len(), sim.trace().len());
    for (i, e) in sim.trace().events().iter().enumerate() {
        assert_eq!(
            seen[i].0,
            sim.core_of(i),
            "event {i} must stream with the engine's own attribution"
        );
        assert_eq!(&seen[i].1, e);
    }
    // A 2-core run of 3 busy tasks executes on both cores.
    assert!(seen.iter().any(|(c, _)| *c == Some(0)));
    assert!(seen.iter().any(|(c, _)| *c == Some(1)));
    assert!(
        seen.iter().any(|(c, _)| c.is_none()),
        "releases are platform-level"
    );

    // The core-tagged logs are unchanged by observation.
    let mut plain = Simulator::new_in(
        table2(),
        2,
        SimConfig::until(t(2000)),
        &mut SimBuffers::new(),
    );
    plain.run(&mut NullSupervisor);
    assert_eq!(plain.core_logs(), sim.core_logs());
}

#[test]
fn core_tag_adapter_attributes_partitioned_engines() {
    // Two independent engines sharing one sink through CoreTag — the
    // partitioned driver's composition.
    let set_a = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(100), ms(10)).build()]);
    let set_b = TaskSet::from_specs(vec![TaskBuilder::new(2, 18, ms(150), ms(20)).build()]);
    let mut seen: Vec<(Option<usize>, EventKind)> = Vec::new();
    let mut sink = |core: Option<usize>, _at: Instant, kind: EventKind| seen.push((core, kind));

    for (core, set) in [(0usize, set_a), (2usize, set_b)] {
        let mut tagged = CoreTag::new(core, &mut sink);
        let mut sim = Simulator::new(set, SimConfig::until(t(400)));
        sim.run_streamed(&mut NullSupervisor, &mut tagged);
    }
    assert!(seen.iter().all(|(c, _)| c.is_some()));
    assert!(seen.iter().any(|(c, _)| *c == Some(0)));
    assert!(
        seen.iter().any(|(c, _)| *c == Some(2)),
        "actual core ids, not positions"
    );
}
