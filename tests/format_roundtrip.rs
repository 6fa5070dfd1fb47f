//! Property tests for the interchange formats: the trace log format and
//! the task-description file must round-trip exactly, and their parsers
//! must never panic on junk.

use proptest::prelude::*;
use rtft::prelude::*;
use rtft_core::task::{TaskBuilder, TaskId, TaskSet};
use rtft_core::time::{Duration, Instant};
use rtft_trace::format::{from_text, to_text};
use rtft_trace::EventKind;

fn arb_event_kind() -> impl Strategy<Value = EventKind> {
    let task = (1u32..5).prop_map(TaskId);
    let job = 0u64..100;
    prop_oneof![
        (task.clone(), job.clone()).prop_map(|(task, job)| EventKind::JobRelease { task, job }),
        (task.clone(), job.clone()).prop_map(|(task, job)| EventKind::JobStart { task, job }),
        (task.clone(), job.clone()).prop_map(|(task, job)| EventKind::JobEnd { task, job }),
        (task.clone(), job.clone()).prop_map(|(task, job)| EventKind::Resumed { task, job }),
        (task.clone(), job.clone()).prop_map(|(task, job)| EventKind::DeadlineMiss { task, job }),
        (task.clone(), job.clone())
            .prop_map(|(task, job)| EventKind::DetectorRelease { task, job }),
        (task.clone(), job.clone()).prop_map(|(task, job)| EventKind::FaultDetected { task, job }),
        (task.clone(), job.clone()).prop_map(|(task, job)| EventKind::TaskStopped { task, job }),
        (task.clone(), job.clone(), task.clone())
            .prop_map(|(task, job, by)| EventKind::Preempted { task, job, by }),
        (task, job, 0i64..10_000_000).prop_map(|(task, job, ns)| EventKind::AllowanceGranted {
            task,
            job,
            amount: Duration::nanos(ns),
        }),
        Just(EventKind::CpuIdle),
        Just(EventKind::SimEnd),
    ]
}

fn arb_log() -> impl Strategy<Value = TraceLog> {
    proptest::collection::vec((0i64..10_000_000, arb_event_kind()), 0..200).prop_map(
        |mut entries| {
            entries.sort_by_key(|(ns, _)| *ns);
            let mut log = TraceLog::new();
            for (ns, kind) in entries {
                log.push(Instant::from_nanos(ns), kind);
            }
            log
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn trace_format_roundtrip(log in arb_log()) {
        let text = to_text(&log);
        let back = from_text(&text).unwrap();
        prop_assert_eq!(back, log);
    }

    #[test]
    fn trace_parser_never_panics(junk in "\\PC{0,200}") {
        let _ = from_text(&junk);
    }

    #[test]
    fn trace_parser_rejects_or_accepts_line_mutations(
        log in arb_log(),
        flip in 0usize..50,
    ) {
        // Dropping one line of a valid file either still parses or fails
        // cleanly with a line number — never panics, never misattributes.
        let text = to_text(&log);
        let lines: Vec<&str> = text.lines().collect();
        if lines.len() > 1 {
            let skip = 1 + (flip % (lines.len() - 1));
            let mutated: String = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, l)| format!("{l}\n"))
                .collect();
            let _ = from_text(&mutated);
        }
    }

    #[test]
    fn task_file_roundtrip(
        params in proptest::collection::vec((1i64..1000, 1i64..100, 0i64..500), 1..8),
        faults in proptest::collection::vec((0usize..8, 0u64..10, -49i64..50), 0..5),
    ) {
        let mut text = String::new();
        for (i, (period, cost, offset)) in params.iter().enumerate() {
            let cost = (*cost).min(*period);
            text.push_str(&format!(
                "task{i} {} {}ms {}ms {}ms {}ms\n",
                i + 1, period, period, cost, offset
            ));
        }
        for (t, job, amount) in &faults {
            let t = t % params.len();
            // Negative draws are underruns; 0 becomes a 50 ms overrun.
            let (kind, amount) = match *amount {
                a if a < 0 => ("underrun", -a),
                0 => ("overrun", 50),
                a => ("overrun", a),
            };
            text.push_str(&format!("fault task{t} job {job} {kind} {amount}ms\n"));
        }
        let desc = rtft::taskgen::parse(&text).unwrap();
        let serialized = rtft::taskgen::to_text(&desc);
        let back = rtft::taskgen::parse(&serialized).unwrap();
        prop_assert_eq!(&back.tasks, &desc.tasks);
        prop_assert_eq!(&back.faults, &desc.faults);
    }

    #[test]
    fn task_file_parser_never_panics(junk in "\\PC{0,200}") {
        let _ = rtft::taskgen::parse(&junk);
    }
}

#[test]
fn chart_renders_any_simulated_window() {
    // Chart rendering over shifted windows of a real trace: must never
    // panic and always contain the legend, whatever the clipping.
    let set = TaskSet::from_specs(vec![
        TaskBuilder::new(1, 20, Duration::millis(200), Duration::millis(29))
            .deadline(Duration::millis(70))
            .build(),
        TaskBuilder::new(2, 18, Duration::millis(250), Duration::millis(29))
            .deadline(Duration::millis(120))
            .build(),
    ]);
    let log = run_plain(set.clone(), Instant::from_millis(2_000));
    for from in (0..2_000).step_by(130) {
        let cfg = ChartConfig::window(Instant::from_millis(from), Instant::from_millis(from + 170))
            .with_cell(Duration::millis(2));
        let chart = rtft::trace::render(&log, Some(&set), &cfg);
        assert!(chart.contains("legend"));
    }
}
