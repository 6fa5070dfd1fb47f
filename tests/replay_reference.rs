//! The replay stepper against a reference model.
//!
//! `reference` below is the stepper replay used before it moved onto the
//! shared per-task job table: job state in a `BTreeMap<(TaskId, u64), _>`
//! over a copied core-tagged event vector, and the verdict rebuilt from a
//! copied `TraceLog`. The stepper must agree with it on the divergence
//! (index, instant and kind), on the completions checked and on the
//! verdict, for real captures, tampered ones and adversarial synthetic
//! streams, in both body kinds.

use proptest::prelude::*;
use rtft::campaign::{capture_job, JobSpec};
use rtft::core::task::TaskId;
use rtft::core::time::{Duration, Instant};
use rtft::ft::verdict::Verdict;
use rtft::replay::{
    job_from_campaign, replay_with, resolve_bounds, Divergence, DivergenceKind, ReplayBounds,
};
use rtft::trace::{CaptureBody, CoreEvent, EventKind, TraceCapture, TraceEvent, TraceLog};
use std::collections::BTreeMap;
use std::sync::OnceLock;

#[derive(Default)]
struct JobState {
    released_at: Option<Instant>,
    ended: bool,
    stopped: bool,
    detected: bool,
}

/// What a replay must report: the first divergence, the completions
/// checked, and the verdict's rendering.
type Outcome = (Option<Divergence>, usize, String);

/// The reference stepper: a verbatim copy of the map-based replay.
fn reference(capture: &TraceCapture, job: &JobSpec, bounds: &ReplayBounds) -> Outcome {
    let events: Vec<CoreEvent> = capture.events().iter().collect();
    let mut state: BTreeMap<(TaskId, u64), JobState> = BTreeMap::new();
    let mut divergence: Option<Divergence> = None;
    let mut checked = 0usize;
    let mut group = 0;
    while group < events.len() {
        let at = events[group].event.at;
        let mut end = group;
        while end < events.len() && events[end].event.at == at {
            end += 1;
        }
        for phase in 0..3u8 {
            for (index, ce) in events.iter().enumerate().take(end).skip(group) {
                if step_phase(ce.event.kind) != phase {
                    continue;
                }
                let verdict = step_event(&mut state, bounds, ce.event.kind, at, &mut checked);
                if divergence.is_none() {
                    if let Some(kind) = verdict {
                        divergence = Some(Divergence { index, at, kind });
                    }
                }
            }
        }
        group = end;
    }
    let log: TraceLog = events.iter().map(|ce| ce.event).collect();
    (
        divergence,
        checked,
        Verdict::from_log(&job.set, &log).to_string(),
    )
}

fn step_phase(kind: EventKind) -> u8 {
    match kind {
        EventKind::JobRelease { .. } => 0,
        EventKind::DetectorRelease { .. }
        | EventKind::FaultDetected { .. }
        | EventKind::AllowanceGranted { .. } => 1,
        _ => 2,
    }
}

fn step_event(
    state: &mut BTreeMap<(TaskId, u64), JobState>,
    bounds: &ReplayBounds,
    kind: EventKind,
    at: Instant,
    checked: &mut usize,
) -> Option<DivergenceKind> {
    match kind {
        EventKind::JobRelease { task, job: j } => {
            let slot = state.entry((task, j)).or_default();
            if slot.released_at.is_some() {
                Some(DivergenceKind::OrderMismatch {
                    detail: format!("{task:?} job {j} released twice"),
                })
            } else {
                slot.released_at = Some(at);
                None
            }
        }
        EventKind::JobStart { task, job: j }
        | EventKind::Resumed { task, job: j }
        | EventKind::Preempted { task, job: j, .. } => {
            let tag = kind.tag();
            match state.get(&(task, j)) {
                None => Some(DivergenceKind::OrderMismatch {
                    detail: format!("`{tag}` for unreleased {task:?} job {j}"),
                }),
                Some(s) if s.ended => Some(DivergenceKind::OrderMismatch {
                    detail: format!("`{tag}` after {task:?} job {j} already ended"),
                }),
                Some(s) if s.stopped => Some(DivergenceKind::OrderMismatch {
                    detail: format!("`{tag}` after {task:?} job {j} was stopped"),
                }),
                Some(_) => None,
            }
        }
        EventKind::JobEnd { task, job: j } => match state.get_mut(&(task, j)) {
            None => Some(DivergenceKind::OrderMismatch {
                detail: format!("`end` for unreleased {task:?} job {j}"),
            }),
            Some(s) if s.ended => Some(DivergenceKind::OrderMismatch {
                detail: format!("{task:?} job {j} ended twice"),
            }),
            Some(s) if s.stopped => Some(DivergenceKind::OrderMismatch {
                detail: format!("`end` after {task:?} job {j} was stopped"),
            }),
            Some(s) => {
                let released = s.released_at.expect("released jobs carry their instant");
                let detected = s.detected;
                s.ended = true;
                *checked += 1;
                check_completion(bounds, task, j, at - released, detected)
            }
        },
        EventKind::TaskStopped { task, job: j } => match state.get_mut(&(task, j)) {
            None => Some(DivergenceKind::OrderMismatch {
                detail: format!("`stop` for unreleased {task:?} job {j}"),
            }),
            Some(s) if s.ended => Some(DivergenceKind::OrderMismatch {
                detail: format!("`stop` after {task:?} job {j} already ended"),
            }),
            Some(s) if s.stopped => Some(DivergenceKind::OrderMismatch {
                detail: format!("{task:?} job {j} stopped twice"),
            }),
            Some(s) => {
                let released = s.released_at.expect("released jobs carry their instant");
                s.stopped = true;
                let latency = at - released;
                let threshold = bounds.of(task).and_then(|b| b.threshold);
                if !bounds.stops {
                    Some(DivergenceKind::UncertifiedStop {
                        task,
                        job: j,
                        latency,
                        threshold: None,
                    })
                } else {
                    match threshold {
                        Some(t) if latency < t => Some(DivergenceKind::UncertifiedStop {
                            task,
                            job: j,
                            latency,
                            threshold: Some(t),
                        }),
                        _ => None,
                    }
                }
            }
        },
        EventKind::FaultDetected { task, job: j } => {
            if let Some(s) = state.get_mut(&(task, j)) {
                s.detected = true;
            }
            None
        }
        EventKind::DetectorRelease { .. }
        | EventKind::AllowanceGranted { .. }
        | EventKind::DeadlineMiss { .. }
        | EventKind::CpuIdle
        | EventKind::SimEnd => None,
    }
}

fn check_completion(
    bounds: &ReplayBounds,
    task: TaskId,
    job: u64,
    response: Duration,
    detected: bool,
) -> Option<DivergenceKind> {
    let b = bounds.of(task)?;
    if let Some(bound) = b.certified {
        if response > bound {
            return Some(DivergenceKind::MissedThreshold {
                task,
                job,
                response,
                bound,
                certified: true,
            });
        }
    }
    if let Some(threshold) = b.threshold {
        let line = threshold + b.detect_delay;
        if response > line && !detected {
            return Some(DivergenceKind::MissedThreshold {
                task,
                job,
                response,
                bound: line,
                certified: false,
            });
        }
    }
    None
}

/// The stepper under test, in the same shape.
fn stepper(capture: &TraceCapture, job: &JobSpec, bounds: &ReplayBounds) -> Outcome {
    let report = replay_with(capture, job, bounds);
    assert_eq!(report.events, capture.len());
    (
        report.divergence,
        report.checked,
        report.verdict.to_string(),
    )
}

fn assert_agree(capture: &TraceCapture, job: &JobSpec, bounds: &ReplayBounds) {
    let got = stepper(capture, job, bounds);
    let want = reference(capture, job, bounds);
    let text = |o: &Outcome| o.0.as_ref().map(|d| d.to_string());
    assert_eq!(text(&got), text(&want), "divergence text");
    assert_eq!(got, want, "capture:\n{}", capture.render_text());
}

/// Three tasks (ids 1–3) on `shape`, one in-allowance overrun.
const SHAPES: [&str; 4] = ["cores 1", "cores 2", "cores 3", "cores 2\nplacement global"];
const TREATMENTS: [&str; 5] = ["none", "detect", "stop", "equitable", "system"];

struct Fixture {
    job: JobSpec,
    bounds: ReplayBounds,
    /// A real capture of the job.
    capture: TraceCapture,
}

/// One job per (shape, treatment), with its bounds and a real capture.
fn fixtures() -> &'static [Fixture] {
    static FIXTURES: OnceLock<Vec<Fixture>> = OnceLock::new();
    FIXTURES.get_or_init(|| {
        let mut out = Vec::new();
        for (s, shape) in SHAPES.iter().enumerate() {
            for (t, treatment) in TREATMENTS.iter().enumerate() {
                let job = job_from_campaign(&format!(
                    "campaign reference\nhorizon 600ms\n\
                     task a 30 50ms 50ms 8ms\ntask b 20 80ms 70ms 12ms\n\
                     task c 10 120ms 120ms 20ms\n\
                     fault a job 2 overrun {}ms\n\
                     policy {}\n{shape}\ntreatment {treatment}\nplatform {}\n",
                    [1, 4, 40][(s + t) % 3],
                    ["fp", "edf", "npfp"][if s == 3 { t % 2 } else { t % 3 }],
                    ["exact", "jrate"][t % 2],
                ))
                .expect("fixture spec is one job");
                let bounds = resolve_bounds(&job).expect("fixture analyses");
                let capture = capture_job(&job).expect("fixture runs");
                out.push(Fixture {
                    job,
                    bounds,
                    capture,
                });
            }
        }
        out
    })
}

/// SplitMix64: one seed drives one case.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// Task ids: the job's three, one outside its set, and ids past the
/// job table's direct range.
const TASKS: [u32; 7] = [1, 2, 3, 7, 1024, 5000, u32::MAX];
/// Job indices around the byte boundary and at the top of the range.
const JOBS: [u64; 5] = [0, 255, 256, u64::MAX - 1, u64::MAX];

/// An adversarial stream: releases and execution events for jobs drawn
/// from small, boundary and huge indices, ascending, descending and
/// gapped; events for jobs never released or already stopped; bursts
/// of same-instant events.
fn synthetic(rng: &mut Rng, events: usize) -> Vec<TraceEvent> {
    let mut next = [0u64; TASKS.len()];
    let mut now = 0i64;
    let mut out = Vec::with_capacity(events);
    for _ in 0..events {
        if rng.below(3) == 0 {
            now += rng.below(30) as i64;
        }
        let pool = if rng.below(4) == 0 { 7 } else { 3 };
        let slot = rng.below(pool) as usize;
        let task = TaskId(TASKS[slot]);
        let job = match rng.below(8) {
            0 => JOBS[rng.below(JOBS.len() as u64) as usize],
            1 => {
                next[slot] = next[slot].saturating_add(1 + rng.below(40));
                next[slot]
            }
            2 => next[slot].saturating_sub(1 + rng.below(5)),
            3 => {
                next[slot] = next[slot].saturating_add(1);
                next[slot]
            }
            _ => next[slot],
        };
        let kind = match rng.below(14) {
            0..=2 => EventKind::JobRelease { task, job },
            3 | 4 => EventKind::JobStart { task, job },
            5 | 6 => EventKind::JobEnd { task, job },
            7 => EventKind::Preempted {
                task,
                job,
                by: TaskId(1),
            },
            8 => EventKind::Resumed { task, job },
            9 => EventKind::TaskStopped { task, job },
            10 => EventKind::FaultDetected { task, job },
            11 => EventKind::DetectorRelease { task, job },
            12 => EventKind::AllowanceGranted {
                task,
                job,
                amount: Duration::millis(1),
            },
            _ => [EventKind::DeadlineMiss { task, job }, EventKind::CpuIdle][rng.below(2) as usize],
        };
        out.push(TraceEvent::new(Instant::from_millis(now), kind));
    }
    out
}

/// Tamper with a real stream: drop, duplicate or re-index a few events.
fn tampered(rng: &mut Rng, events: &[CoreEvent]) -> Vec<CoreEvent> {
    let mut out = events.to_vec();
    for _ in 0..1 + rng.below(4) {
        if out.is_empty() {
            break;
        }
        let i = rng.below(out.len() as u64) as usize;
        match rng.below(3) {
            0 => {
                out.remove(i);
            }
            1 => out.insert(i, out[i]),
            _ => {
                let e = &mut out[i].event;
                if let (Some(task), Some(job)) = (e.kind.task(), e.kind.job()) {
                    let job = JOBS[rng.below(JOBS.len() as u64) as usize].max(job);
                    e.kind = match e.kind {
                        EventKind::JobRelease { .. } => EventKind::JobRelease { task, job },
                        EventKind::JobEnd { .. } => EventKind::JobEnd { task, job },
                        _ => EventKind::TaskStopped { task, job },
                    };
                }
            }
        }
    }
    out
}

/// The same events as a flat and as a merged capture (random core
/// tags), both headerless.
fn both_bodies(rng: &mut Rng, events: &[TraceEvent]) -> [TraceCapture; 2] {
    let merged = events
        .iter()
        .map(|&event| CoreEvent {
            core: rng.below(3) as usize,
            event,
        })
        .collect();
    [
        TraceCapture {
            header: None,
            body: CaptureBody::Flat(events.iter().copied().collect()),
        },
        TraceCapture {
            header: None,
            body: CaptureBody::Merged(merged),
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Real captures, clean and tampered, in their own body kind and
    /// re-bodied.
    #[test]
    fn stepper_matches_the_reference_on_real_and_tampered_captures(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let fixtures = fixtures();
        let f = &fixtures[rng.below(fixtures.len() as u64) as usize];
        assert_agree(&f.capture, &f.job, &f.bounds);
        let real: Vec<CoreEvent> = f.capture.events().iter().collect();
        let events: Vec<TraceEvent> = tampered(&mut rng, &real).iter().map(|e| e.event).collect();
        for capture in both_bodies(&mut rng, &events) {
            assert_agree(&capture, &f.job, &f.bounds);
        }
    }

    /// Adversarial synthetic streams against every fixture's bounds.
    #[test]
    fn stepper_matches_the_reference_on_adversarial_streams(seed in 0u64..u64::MAX) {
        let mut rng = Rng(seed);
        let fixtures = fixtures();
        let f = &fixtures[rng.below(fixtures.len() as u64) as usize];
        let len = 1 + rng.below(300) as usize;
        let events = synthetic(&mut rng, len);
        for capture in both_bodies(&mut rng, &events) {
            assert_agree(&capture, &f.job, &f.bounds);
        }
    }
}

#[test]
fn descending_and_extreme_indices_agree() {
    let f = &fixtures()[0];
    let mut events = Vec::new();
    let mut push = |ms: i64, kind| events.push(TraceEvent::new(Instant::from_millis(ms), kind));
    let t = TaskId(1);
    for (i, job) in [u64::MAX, 256, 255, 0, u64::MAX - 1, 300, 1]
        .iter()
        .enumerate()
    {
        let at = i as i64 * 10;
        push(at, EventKind::JobRelease { task: t, job: *job });
        push(at, EventKind::JobStart { task: t, job: *job });
        push(at + 5, EventKind::JobEnd { task: t, job: *job });
    }
    push(100, EventKind::JobEnd { task: t, job: 2 });
    let mut rng = Rng(7);
    for capture in both_bodies(&mut rng, &events) {
        assert_agree(&capture, &f.job, &f.bounds);
    }
}

/// A capture naming the largest task id and job index replays without
/// anything sized by either: 60,000 events over descending huge job
/// indices of task 4294967295 finish quickly.
#[test]
fn the_largest_task_and_job_replay_in_bounded_memory() {
    let f = &fixtures()[0];
    let mut text = String::from("0 release task 4294967295 job 18446744073709551615\n");
    text.push_str("0 start task 4294967295 job 18446744073709551615\n");
    text.push_str("1 end task 4294967295 job 18446744073709551615\n");
    for k in 1..20_000u64 {
        let job = u64::MAX - 2 * k;
        let at = 1 + k;
        text.push_str(&format!(
            "{at} release task 4294967295 job {job}\n{at} start task 4294967295 job {job}\n\
             {at} end task 4294967295 job {job}\n"
        ));
    }
    let capture = TraceCapture::parse_text(&text).expect("capture parses");
    let start = std::time::Instant::now();
    let report = replay_with(&capture, &f.job, &f.bounds);
    assert!(start.elapsed() < std::time::Duration::from_secs(5));
    assert_eq!(report.events, 60_000);
    assert!(report.is_clean(), "{:?}", report.divergence);
    assert_eq!(report.checked, 20_000);
    assert_agree(&capture, &f.job, &f.bounds);
}
