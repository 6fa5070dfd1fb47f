//! `replay_capture`: the `rtft replay` path on captures generated at
//! set-up from seeded one-job specs across placements and policies.
//! Some captures are clean, some carry out-of-allowance overruns, and
//! some are tampered (their detection events deleted) so they diverge.
//! Each operation parses a capture, builds its job, replays it, and
//! minimizes it when it diverges; trace parsing and replay's bounds and
//! divergence stepping do the work.

use std::time::Instant;

use rtft_replay::{job_from_campaign, minimize, replay, replay_with, resolve_bounds, ReplayReport};
use rtft_serve::ServerHandle;
use rtft_trace::TraceCapture;

use crate::daemon::{self, TraceCase};
use crate::gen::{self, Placement, Policy, Rng};
use crate::spans::Tracer;
use crate::stats::{ms, windowed_rate, Outcome};

/// Short captures: 1 to 3 s runs of 4 to 8 tasks, cycling over every
/// policy, placement and kind.
const SHORT_CAPTURES: usize = 96;
/// Long captures: 40 s runs of 8 fp tasks on one core, one of each kind.
/// They are 4 % of the replays, each about ten times a short one, so
/// `p99_ms` is the replay of a long capture and lies inside their
/// samples. With short captures alone it lay among the few short
/// replays a busy host had preempted, and moved with the host.
const LONG_HORIZON_MS: u64 = 40_000;

const POLICIES: [(Policy, Placement); 6] = [
    (Policy::Fp, Placement::Uni),
    (Policy::Edf, Placement::Uni),
    (Policy::Npfp, Placement::Uni),
    (Policy::Fp, Placement::Partitioned(2)),
    (Policy::Edf, Placement::Partitioned(2)),
    (Policy::Fp, Placement::Global(2)),
];

/// One capture and what replaying it must yield.
struct Case {
    spec: String,
    capture: String,
    events: usize,
    verdict: String,
    divergence: Option<usize>,
}

struct Setup {
    handle: ServerHandle,
    cases: Vec<Case>,
    traces: Vec<TraceCase>,
}

fn cases(seed: u64) -> Vec<Case> {
    let mut rng = Rng::stream(seed, 31);
    // Sizes and horizons cycle with the index, so every seed replays the
    // same amount of work; only task parameters vary.
    let mut out: Vec<Case> = (0..SHORT_CAPTURES)
        .map(|i| {
            let (policy, placement) = POLICIES[i % POLICIES.len()];
            let shape = Shape {
                name: format!("capture-{seed}-{i}"),
                policy,
                placement,
                kind: i / 6 % 4,
                n: 4 + i % 5,
                horizon_ms: 1000 + 500 * (i % 5) as u64,
                platform: if i % 2 == 0 { "exact" } else { "jrate" },
            };
            shape.generate(&mut rng)
        })
        .collect();
    out.extend((0..4).map(|kind| {
        Shape {
            name: format!("long-{seed}-{kind}"),
            policy: Policy::Fp,
            placement: Placement::Uni,
            kind,
            n: 8,
            horizon_ms: LONG_HORIZON_MS,
            platform: "exact",
        }
        .generate(&mut rng)
    }));
    out
}

/// What one capture is made from. `kind` is 0 for a clean run, 1 for an
/// overrun within the allowance, 2 for one beyond it, and 3 for a
/// detect-only run whose `fault` events are then deleted, so it diverges.
struct Shape {
    name: String,
    policy: Policy,
    placement: Placement,
    kind: usize,
    n: usize,
    horizon_ms: u64,
    platform: &'static str,
}

impl Shape {
    fn generate(&self, rng: &mut Rng) -> Case {
        let treatment = ["equitable", "system", "none", "detect"][self.kind];
        let (spec, job, capture) = gen::runnable(rng, |rng| {
            let utilization = 0.5 * self.placement.cores() as f64;
            let tasks = gen::task_set(rng, self.n, utilization, 0.4, self.policy, false);
            let overrun_us = match self.kind {
                0 => None,
                1 => Some((tasks[0].cost_us / 20).max(1)),
                _ => Some(tasks[0].period_us),
            };
            gen::OneJob {
                name: self.name.clone(),
                tasks: &tasks,
                policy: self.policy,
                placement: self.placement,
                horizon_ms: self.horizon_ms,
                fault: overrun_us.map(|us| (0, 3, us)),
                treatment,
                platform: self.platform,
            }
            .spec()
        });
        let mut capture = capture.render_text();
        if self.kind == 3 {
            capture = capture
                .lines()
                .filter(|l| !l.split_ascii_whitespace().take(3).any(|w| w == "fault"))
                .map(|l| format!("{l}\n"))
                .collect();
        }
        let parsed = TraceCapture::parse_text(&capture).expect("capture parses");
        let report = replay(&parsed, &job).expect("capture replays");
        Case {
            events: parsed.len(),
            verdict: report.verdict.to_string(),
            divergence: report.divergence.as_ref().map(|d| d.index),
            spec,
            capture,
        }
    }
}

fn setup(seed: u64) -> Setup {
    let mut rng = Rng::stream(seed, 32);
    Setup {
        handle: daemon::spawn(8),
        cases: cases(seed),
        traces: daemon::trace_cases(&mut rng, seed, 4),
    }
}

/// What one replay operation produced, for checking after the clock
/// stops: the verdict, the divergence index, and the minimized length.
type Replayed = (String, Option<usize>, Option<usize>);

/// One operation, untraced: parse, build the job, replay, minimize.
fn replay_op(case: &Case) -> Replayed {
    let capture = TraceCapture::parse_text(&case.capture).expect("capture parses");
    let job = job_from_campaign(&case.spec).expect("one-job spec");
    let report = replay(&capture, &job).expect("replay");
    summarize(&capture, &job, &report)
}

/// The same operation with one span per call.
fn replay_op_traced(case: &Case, tr: &mut Tracer, op: u64) -> Replayed {
    let root = tr.open("replay.op", op, None);
    let id = tr.open("trace.parse", op, Some(root));
    let capture = TraceCapture::parse_text(&case.capture).expect("capture parses");
    tr.close_with(id, capture.len() as u64);
    let job = tr
        .time("replay.job", op, Some(root), || {
            job_from_campaign(&case.spec)
        })
        .expect("one-job spec");
    let bounds = tr
        .time("replay.bounds", op, Some(root), || resolve_bounds(&job))
        .expect("bounds");
    let id = tr.open("replay.step", op, Some(root));
    let report = replay_with(&capture, &job, &bounds);
    tr.close_with(id, report.events as u64);
    let id = tr.open("replay.minimize", op, Some(root));
    let out = summarize(&capture, &job, &report);
    tr.close(id);
    tr.close(root);
    out
}

fn summarize(
    capture: &TraceCapture,
    job: &rtft_campaign::JobSpec,
    report: &ReplayReport,
) -> Replayed {
    let minimized = report
        .divergence
        .as_ref()
        .map(|d| minimize(capture, job, d).capture.len());
    (
        report.verdict.to_string(),
        report.divergence.as_ref().map(|d| d.index),
        minimized,
    )
}

fn check(case: &Case, got: &Replayed) -> Result<(), String> {
    let (verdict, divergence, minimized) = got;
    if verdict != &case.verdict || divergence != &case.divergence {
        return Err(format!(
            "replay of `{}` changed its verdict or divergence",
            case.spec.lines().next().unwrap_or("")
        ));
    }
    if minimized.is_some() && *minimized != divergence.map(|i| i + 1) {
        return Err("minimized capture does not end at the divergence".to_string());
    }
    Ok(())
}

/// Replay captures round-robin for `seconds`.
fn measure(s: &Setup, seconds: f64, mut tracer: Option<&mut Tracer>, out: &mut Outcome) {
    let start = Instant::now();
    let mut done = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        let i = done.len();
        let case = &s.cases[i % s.cases.len()];
        let t0 = Instant::now();
        let got = match tracer.as_deref_mut() {
            Some(tr) => replay_op_traced(case, tr, i as u64),
            None => replay_op(case),
        };
        let t1 = Instant::now();
        // Check now and keep only the verdict, so memory does not
        // grow with the number of replays the host manages.
        let verdict = check(case, &got);
        done.push((ms(t0, t1), t1.duration_since(start).as_secs_f64(), verdict));
    }
    let mut latency = Vec::new();
    let mut completed = Vec::new();
    for (elapsed, at, verdict) in done {
        if verdict.is_ok() {
            completed.push(at);
        }
        latency.push(if verdict.is_ok() {
            elapsed
        } else {
            f64::INFINITY
        });
        out.check(verdict);
    }
    out.metric("ops_per_s", windowed_rate(&completed, seconds), "1/s");
    out.op_latency(latency);
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let s = crate::timed_setup(&mut out, || setup(seed), |s| s.handle.shutdown());
    for (i, c) in s.cases.iter().enumerate() {
        out.count("captures.events", c.events as u64);
        if let Some(index) = c.divergence {
            out.count("captures.diverging", 1);
            out.count(format!("divergence_index.{i:02}"), index as u64);
        }
    }
    let client = daemon::client(s.handle.addr());
    if trace {
        // Spans are recorded inside the timed loop here, so the traced
        // run measures an untraced half and a traced half.
        let mut base = Outcome::default();
        measure(&s, seconds / 2.0, None, &mut base);
        let mut tr = Tracer::new(Instant::now());
        measure(&s, seconds / 2.0, Some(&mut tr), &mut out);
        daemon::probe(&client, seed, &s.traces, &mut out);
        crate::overhead(&mut out, &base);
        let per_event = |name: &str| {
            let (ns, work) = tr.totals(name);
            if work > 0 {
                ns / work as f64
            } else {
                0.0
            }
        };
        let mean_of =
            |name: &str, scale: f64| crate::stats::mean(&tr.self_ns(name)).unwrap_or(0.0) / scale;
        out.metric("trace.parse_ns_per_event", per_event("trace.parse"), "ns");
        out.metric("replay.step_ns_per_event", per_event("replay.step"), "ns");
        out.metric("replay.job_us", mean_of("replay.job", 1e3), "us");
        out.metric("replay.bounds_us", mean_of("replay.bounds", 1e3), "us");
        // Only diverging captures are minimized; the others' spans are empty.
        let minimized: Vec<f64> = tr
            .spans
            .iter()
            .filter(|sp| sp.name == "replay.minimize")
            .filter(|sp| s.cases[sp.op as usize % s.cases.len()].divergence.is_some())
            .map(|sp| sp.ns() as f64)
            .collect();
        out.metric(
            "replay.minimize_ms",
            crate::stats::mean(&minimized).unwrap_or(0.0) / 1e6,
            "ms",
        );
        let divergences = s.cases.iter().filter(|c| c.divergence.is_some()).count();
        out.metric("replay.divergences", divergences as f64, "count");
        crate::write_spans("replay_capture", seed, &tr);
    } else {
        measure(&s, seconds, None, &mut out);
        daemon::probe(&client, seed, &s.traces, &mut out);
    }
    s.handle.shutdown();
    out
}
