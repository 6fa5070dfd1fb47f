//! The trace hashes against their documented definitions, written out
//! here byte by byte: [`TraceLog::content_hash`] is byte-serial FNV-1a
//! over each event's fields, and a merged capture's hash is
//! [`merged_content_hash`] over its per-core logs.
//!
//! The kernel's fast paths are exact, so any slip in them shows here: a
//! word path that drops the multiply for the high zero bytes, or a tag
//! table built from the wrong low byte, changes the hash of almost every
//! random log.

use proptest::prelude::*;
use rtft_core::task::TaskId;
use rtft_core::time::{Duration, Instant};
use rtft_trace::{
    merged_content_hash, CaptureBody, CoreEvent, EventKind, TraceCapture, TraceEvent, TraceLog,
};

/// Byte-serial FNV-1a over the fields [`TraceLog::content_hash`]
/// documents, with the workspace's multiplier.
fn reference_hash(log: &TraceLog) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
    };
    for e in log.events() {
        eat(&e.at.as_nanos().to_le_bytes());
        eat(e.kind.tag().as_bytes());
        eat(&e
            .kind
            .task()
            .map_or(u64::MAX, |t| u64::from(t.0))
            .to_le_bytes());
        eat(&e.kind.job().unwrap_or(u64::MAX).to_le_bytes());
        match e.kind {
            EventKind::Preempted { by, .. } => eat(&u64::from(by.0).to_le_bytes()),
            EventKind::AllowanceGranted { amount, .. } => eat(&amount.as_nanos().to_le_bytes()),
            _ => {}
        }
    }
    h
}

fn arb_nanos() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(0i64),
        Just(1i64 << 40),
        Just(i64::MAX),
        i64::MIN..0,
        0i64..=1 << 42,
    ]
}

fn arb_task() -> impl Strategy<Value = TaskId> {
    prop_oneof![
        Just(0u32),
        Just(255u32),
        Just(256u32),
        Just(u32::MAX),
        0u32..=u32::MAX,
    ]
    .prop_map(TaskId)
}

fn arb_job() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), Just(256u64), Just(u64::MAX), 0u64..=u64::MAX]
}

/// Every variant, with its payload drawn from the edge values above.
fn arb_kind() -> impl Strategy<Value = EventKind> {
    (
        (0usize..12, arb_task()),
        (arb_job(), arb_task(), arb_nanos()),
    )
        .prop_map(|((variant, task), (job, by, amount))| match variant {
            0 => EventKind::JobRelease { task, job },
            1 => EventKind::JobStart { task, job },
            2 => EventKind::JobEnd { task, job },
            3 => EventKind::Preempted { task, job, by },
            4 => EventKind::Resumed { task, job },
            5 => EventKind::DeadlineMiss { task, job },
            6 => EventKind::DetectorRelease { task, job },
            7 => EventKind::FaultDetected { task, job },
            8 => EventKind::AllowanceGranted {
                task,
                job,
                amount: Duration::nanos(amount),
            },
            9 => EventKind::TaskStopped { task, job },
            10 => EventKind::CpuIdle,
            _ => EventKind::SimEnd,
        })
}

/// Random events in time order (the order a log requires).
fn arb_events(max: usize) -> impl Strategy<Value = Vec<TraceEvent>> {
    proptest::collection::vec((arb_nanos(), arb_kind()), 0..=max).prop_map(|raw| {
        let mut events: Vec<TraceEvent> = raw
            .into_iter()
            .map(|(at, kind)| TraceEvent::new(Instant::from_nanos(at), kind))
            .collect();
        events.sort_by_key(|e| e.at);
        events
    })
}

fn arb_core() -> impl Strategy<Value = usize> {
    prop_oneof![
        Just(0usize),
        Just(1usize),
        Just(2usize),
        Just(5usize),
        Just(1000usize),
    ]
}

#[test]
fn every_variant_and_edge_value_hashes_as_defined() {
    // One log holding the payload-carrying and payload-free variants at
    // each edge value, so no edge is left to chance.
    let mut events = Vec::new();
    for at in [i64::MIN, -1, 0, 1 << 40, i64::MAX] {
        for task in [0, 255, 256, u32::MAX].map(TaskId) {
            for job in [0, 256, u64::MAX] {
                let kinds = [
                    EventKind::JobRelease { task, job },
                    EventKind::Preempted {
                        task,
                        job,
                        by: TaskId(u32::MAX - task.0),
                    },
                    EventKind::AllowanceGranted {
                        task,
                        job,
                        amount: Duration::nanos(at),
                    },
                    EventKind::CpuIdle,
                    EventKind::SimEnd,
                ];
                events.extend(kinds.map(|k| TraceEvent::new(Instant::from_nanos(at), k)));
            }
        }
    }
    let log: TraceLog = events.into_iter().collect();
    assert_eq!(log.content_hash(), reference_hash(&log));
    assert_eq!(
        TraceLog::new().content_hash(),
        reference_hash(&TraceLog::new())
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The fast kernel and the byte-serial definition agree on random
    /// logs over every variant and the edge task ids, job indices,
    /// instants and grant amounts.
    #[test]
    fn content_hash_is_byte_serial_fnv1a(events in arb_events(40)) {
        let log: TraceLog = events.into_iter().collect();
        prop_assert_eq!(log.content_hash(), reference_hash(&log));
    }

    /// A merged capture's one-pass hash equals `merged_content_hash`
    /// over the per-core logs it groups into, whatever order the core
    /// tags arrive in.
    #[test]
    fn merged_capture_hash_is_the_per_core_fold(
        events in arb_events(60),
        tags in proptest::collection::vec(arb_core(), 60),
    ) {
        let body: Vec<CoreEvent> = events
            .into_iter()
            .zip(tags)
            .map(|(event, core)| CoreEvent { core, event })
            .collect();
        let capture = TraceCapture { header: None, body: CaptureBody::Merged(body) };
        let mut logs: std::collections::BTreeMap<usize, TraceLog> = Default::default();
        for e in capture.events().iter() {
            logs.entry(e.core).or_default().push_event(e.event);
        }
        let refs: Vec<(usize, &TraceLog)> = logs.iter().map(|(c, l)| (*c, l)).collect();
        prop_assert_eq!(capture.recomputed_hash(), merged_content_hash(&refs));
    }
}
