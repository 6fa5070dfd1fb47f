//! Property tests for the capture format behind `rtft trace` /
//! `rtft replay`: `parse ∘ render == id` in both renderings, across
//! policies × placements, and a replay of an oracle-clean campaign job
//! never reports a divergence.

use proptest::prelude::*;
use rtft_core::task::TaskId;
use rtft_core::time::{Duration, Instant};
use rtft_replay::Certification;
use rtft_trace::{EventKind, TraceCapture, TraceLog};

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

fn arb_log(min: usize, max: usize) -> impl Strategy<Value = TraceLog> {
    proptest::collection::vec((0i64..10_000_000, arb_event_kind()), min..max).prop_map(
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

fn arb_policy() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("fp"), Just("edf"), Just("npfp")]
}

fn arb_placement() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("partitioned"), Just("global")]
}

fn arb_treatment() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("none"),
        Just("detect"),
        Just("stop"),
        Just("equitable"),
        Just("system"),
    ]
}

fn arb_flat() -> impl Strategy<Value = TraceCapture> {
    (
        (0u64..u64::MAX),
        arb_policy(),
        arb_treatment(),
        arb_log(0, 120),
    )
        .prop_map(|(hash, policy, treatment, log)| TraceCapture::flat(hash, policy, treatment, log))
}

fn arb_merged() -> impl Strategy<Value = TraceCapture> {
    (
        ((0u64..u64::MAX), arb_policy()),
        arb_placement(),
        arb_treatment(),
        proptest::collection::vec(arb_log(1, 60), 2..5),
    )
        .prop_map(|((hash, policy), placement, treatment, logs)| {
            // Every per-core log carries at least one event (an
            // all-empty merged body would re-parse as an empty *flat*
            // one; real multicore runs always record events).
            let refs: Vec<(usize, &TraceLog)> = logs.iter().enumerate().collect();
            TraceCapture::merged(hash, policy, placement, logs.len(), treatment, &refs)
        })
}

fn arb_capture() -> impl Strategy<Value = TraceCapture> {
    prop_oneof![arb_flat(), arb_merged()]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn capture_text_roundtrip(capture in arb_capture()) {
        let text = capture.render_text();
        let back = TraceCapture::parse_text(&text).unwrap();
        prop_assert_eq!(&back, &capture);
        prop_assert_eq!(back.hash_matches(), Some(true));
        prop_assert_eq!(back.render_text(), text);
    }

    #[test]
    fn capture_json_roundtrip(capture in arb_capture()) {
        let json = capture.render_json();
        let back = TraceCapture::parse_json(&json).unwrap();
        prop_assert_eq!(&back, &capture);
        prop_assert_eq!(back.render_json(), json);
    }

    #[test]
    fn capture_parsers_never_panic(junk in "\\PC{0,300}") {
        let _ = TraceCapture::parse_text(&junk);
        let _ = TraceCapture::parse_json(&junk);
    }

    #[test]
    fn clean_job_replay_never_diverges(
        policy in prop_oneof![Just("fp"), Just("edf"), Just("npfp")],
        treatment in prop_oneof![
            Just("none"), Just("detect"), Just("stop"), Just("equitable"), Just("system"),
        ],
        shape in prop_oneof![Just("cores 1"), Just("cores 2"), Just("cores 2\nplacement global")],
        // Fault-free, in allowance (A = 11 ms on the paper set under
        // fp), and the paper's out-of-allowance 40 ms overrun.
        faults in prop_oneof![
            Just("none"), Just("single task=1 job=5 overrun=11ms"), Just("paper"),
        ],
        platform in prop_oneof![Just("exact"), Just("jrate"), Just("exact dispatch=1ms")],
    ) {
        // An honestly captured trace of any runnable job replays clean:
        // whatever the simulator did is exactly what the analysis plane
        // admits (the same invariant the campaign oracle enforces).
        let spec = format!(
            "campaign clean-replay\n\
             horizon 1300ms\n\
             taskgen paper\n\
             faults {faults}\n\
             policy {policy}\n\
             {shape}\n\
             treatment {treatment}\n\
             platform {platform}\n",
        );
        let job = rtft::replay::job_from_campaign(&spec).unwrap();
        let capture = match rtft::campaign::capture_job(&job) {
            Ok(c) => c,
            // Infeasible or unplaceable cells never ran, so no honest
            // trace of them exists to replay — vacuously clean.
            Err(_) => return Ok(()),
        };
        prop_assert_eq!(rtft::replay::spec_matches(&capture, &job), Some(true));
        let report = rtft::replay::replay(&capture, &job).unwrap();
        prop_assert!(
            report.is_clean(),
            "{policy}/{treatment}/{shape} diverged: {:?}",
            report.divergence
        );
        prop_assert!(report.checked > 0);

        // The oracle's verdict on the same job is replay's
        // certification: checked exactly when certified, and a skip
        // carries the reason replay prints.
        let oracle = rtft::campaign::run_single(&job, true).unwrap().oracle;
        prop_assert!(oracle.violations().is_empty(), "{:?}", oracle);
        prop_assert_eq!(
            oracle.was_checked(),
            report.certification.is_certified(),
            "{}/{}/{}/{}: oracle {:?} vs replay {}",
            policy, treatment, shape, faults, oracle, report.certification
        );
        if let rtft::campaign::oracle::OracleOutcome::Skipped(skip) = &oracle {
            let expected = match skip {
                rtft::campaign::oracle::OracleSkip::Overheads => Certification::Overheads,
                reason => Certification::Uncertified {
                    dmax: job.faults.max_overrun(),
                    reason: reason.to_string(),
                },
            };
            prop_assert_eq!(&report.certification, &expected);
        }
    }
}
