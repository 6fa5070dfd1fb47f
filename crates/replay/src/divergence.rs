//! The event-stepping divergence checker.
//!
//! A saved trace is replayed event by event against the resolved
//! [`ReplayBounds`]; the first event the analysis plane cannot accept
//! is reported with its index in the capture stream. Three divergence
//! faces exist:
//!
//! * **missed threshold** — a job completed past a line the detectors
//!   guaranteed to police (the certified response bound when the fault
//!   plan is within the admitted allowance, or the quantized detection
//!   line with no preceding `fault` event);
//! * **uncertified stop** — a `stop` event under a treatment that never
//!   stops, or earlier than the detection threshold permits (stops can
//!   only be *delayed* by quantization and allowance grants, never
//!   hastened);
//! * **order mismatch** — an execution event for a job the trace never
//!   released, a duplicate completion, or activity after a stop.
//!
//! The checks are deliberately one-sided where the platform models
//! leave slack: a completion *between* the exact threshold and the
//! quantized detector fire legitimately carries no `fault` event
//! (Figure 5's τ2 ends at 1059 ms, response 59 ms > WCRT 58 ms, one
//! millisecond before its detector's 1060 ms grid slot), so the
//! detection-line check uses the quantized line, and the stop check is
//! a lower bound only (Figure 5's stop latency is 30 ms against a
//! 29 ms WCRT for the same reason). The Figure 3–7 golden traces —
//! including the out-of-allowance 40 ms injection — replay clean;
//! divergences mean the trace and the spec disagree.

use crate::bounds::{resolve_bounds, Certification, ReplayBounds, TaskBounds};
use crate::ReplayError;
use rtft_campaign::JobSpec;
use rtft_core::task::TaskId;
use rtft_core::time::{Duration, Instant};
use rtft_ft::verdict::Verdict;
use rtft_trace::jobs::{Indexed, JobTable};
use rtft_trace::{CaptureEvents, EventKind, JobIndex, TraceCapture, TraceEvent, TraceStats};

/// Why an event diverged from the analysis plane.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DivergenceKind {
    /// A completion responded past a policed line.
    MissedThreshold {
        /// Offending task.
        task: TaskId,
        /// Offending job.
        job: u64,
        /// Observed response time.
        response: Duration,
        /// The line it crossed (certified bound, or the quantized
        /// detection line relative to release).
        bound: Duration,
        /// `true` when the crossed line is the oracle's certified
        /// response bound; `false` for an unpoliced detection line.
        certified: bool,
    },
    /// A stop the treatment could not have issued.
    UncertifiedStop {
        /// Stopped task.
        task: TaskId,
        /// Stopped job.
        job: u64,
        /// Observed stop latency past the release.
        latency: Duration,
        /// The detection threshold stops must respect (`None` when the
        /// treatment never stops at all).
        threshold: Option<Duration>,
    },
    /// The event stream itself is inconsistent.
    OrderMismatch {
        /// What went wrong, human-readable.
        detail: String,
    },
}

impl std::fmt::Display for DivergenceKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DivergenceKind::MissedThreshold {
                task,
                job,
                response,
                bound,
                certified,
            } => write!(
                f,
                "{task:?} job {job} responded in {response} past the {} {bound}",
                if *certified {
                    "certified bound"
                } else {
                    "unpoliced detection line"
                }
            ),
            DivergenceKind::UncertifiedStop {
                task,
                job,
                latency,
                threshold,
            } => match threshold {
                Some(t) => write!(
                    f,
                    "{task:?} job {job} stopped {latency} after release, before its {t} threshold"
                ),
                None => write!(
                    f,
                    "{task:?} job {job} stopped {latency} after release under a non-stopping \
                     treatment"
                ),
            },
            DivergenceKind::OrderMismatch { detail } => f.write_str(detail),
        }
    }
}

/// The first point a capture and the analysis plane disagree.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Divergence {
    /// Index of the offending event in the capture's merged stream
    /// (what [`TraceCapture::events`] yields).
    pub index: usize,
    /// Its timestamp.
    pub at: Instant,
    /// What diverged.
    pub kind: DivergenceKind,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "event {} (t = {}): {}", self.index, self.at, self.kind)
    }
}

/// Everything a replay produced.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplayReport {
    /// Events stepped (the full stream, even past a divergence).
    pub events: usize,
    /// Completions compared against a bound or detection line.
    pub checked: usize,
    /// First divergence, when any.
    pub divergence: Option<Divergence>,
    /// Verdict reconstructed from the capture — for a clean replay of a
    /// faithful trace this is byte-identical (via `Display`) to the
    /// verdict the original run produced.
    pub verdict: Verdict,
    /// Whether completions were held to a certified bound.
    pub certification: Certification,
}

impl ReplayReport {
    /// `true` iff no divergence was found.
    pub fn is_clean(&self) -> bool {
        self.divergence.is_none()
    }
}

/// One job's replay state. A job enters the table at its release, so
/// every entry carries its release instant.
struct JobState {
    job: JobIndex,
    released_at: Instant,
    ended: bool,
    stopped: bool,
    detected: bool,
}

impl Indexed for JobState {
    fn index(&self) -> JobIndex {
        self.job
    }
}

/// Replay's job states in the table [`TraceStats`] builds on; each
/// task's meta is its bounds (`None` outside the job's set), looked up
/// once at its first release.
type Jobs<'b> = JobTable<JobState, Option<&'b TaskBounds>>;

/// A capture of this many events or more builds its statistics on a
/// second thread, beside the stepping, when the host has a second core.
/// A scoped thread costs about 60 µs to start and join; the statistics
/// of this many events take several times that.
const STATS_BESIDE_FROM: usize = 16_384;

/// Replay `capture` against the analysis of `job`: resolve the bounds,
/// then step every event to the first divergence.
///
/// The capture's statistics, behind the reconstructed verdict, are
/// built beside the bounds and the stepping: on a scoped thread for a
/// capture of 16,384 events or more on a host with a second core, on
/// the calling thread otherwise. The report is the same either way.
///
/// # Errors
/// [`ReplayError::Analysis`] when the job's analysis fails (see
/// [`resolve_bounds`]).
pub fn replay(capture: &TraceCapture, job: &JobSpec) -> Result<ReplayReport, ReplayError> {
    let events = capture.events();
    let (stepped, stats) = beside_stats(events, job, || {
        let bounds = resolve_bounds(job)?;
        Ok::<_, ReplayError>((step(events, &bounds), bounds.certification))
    });
    let (stepped, certification) = stepped?;
    Ok(stepped.report(events.len(), job, &stats, certification))
}

/// [`replay`] against bounds the caller already resolved — the hot path
/// for replaying many captures of one spec (benchmarks, campaign
/// digests). The capture's events are read in place, never copied, and
/// a long capture's statistics are built beside the stepping as in
/// [`replay`].
pub fn replay_with(capture: &TraceCapture, job: &JobSpec, bounds: &ReplayBounds) -> ReplayReport {
    let events = capture.events();
    let (stepped, stats) = beside_stats(events, job, || step(events, bounds));
    stepped.report(events.len(), job, &stats, bounds.certification.clone())
}

/// `work` on the calling thread, and the statistics of `events` beside
/// it: on a scoped thread for a long capture on a host with a second
/// core (or after `work` when that thread cannot start), after `work`
/// otherwise.
fn beside_stats<T>(
    events: CaptureEvents<'_>,
    job: &JobSpec,
    work: impl FnOnce() -> T,
) -> (T, TraceStats) {
    let stats = move || match events {
        CaptureEvents::Flat(events) => TraceStats::from_events(events, Some(&job.set)),
        CaptureEvents::Merged(events) => {
            TraceStats::from_events(events.iter().map(AsRef::as_ref), Some(&job.set))
        }
    };
    if events.len() < STATS_BESIDE_FROM
        || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) < 2
    {
        return (work(), stats());
    }
    std::thread::scope(|scope| {
        let Ok(thread) = std::thread::Builder::new().spawn_scoped(scope, stats) else {
            return (work(), stats());
        };
        let out = work();
        // Wait without parking, as `TraceCapture::parse_text` does: with
        // a parking `join`, the short replays run after a long one
        // measured 15–50 % slower.
        while !thread.is_finished() {
            std::hint::spin_loop();
        }
        let stats = thread
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (out, stats)
    })
}

/// What stepping a capture found.
struct Stepped {
    checked: usize,
    divergence: Option<Divergence>,
}

impl Stepped {
    fn report(
        self,
        events: usize,
        job: &JobSpec,
        stats: &TraceStats,
        certification: Certification,
    ) -> ReplayReport {
        ReplayReport {
            events,
            checked: self.checked,
            divergence: self.divergence,
            verdict: Verdict::new(&job.set, stats),
            certification,
        }
    }
}

/// Step every event of either body against `bounds`.
fn step(events: CaptureEvents<'_>, bounds: &ReplayBounds) -> Stepped {
    match events {
        CaptureEvents::Flat(events) => step_stream(events, bounds),
        CaptureEvents::Merged(events) => step_stream(events, bounds),
    }
}

/// [`step`] over one body's events.
fn step_stream<E: AsRef<TraceEvent>>(events: &[E], bounds: &ReplayBounds) -> Stepped {
    let mut jobs = Jobs::new();
    let mut divergence: Option<Divergence> = None;
    let mut checked = 0usize;

    // Simultaneous events have no defined interleaving across cores: a
    // merged capture renders the platform bucket's `release` *after* a
    // worker core's same-instant `start`. Each instant is therefore
    // stepped in phases — releases first, observer events (detector,
    // fault, allowance) second, execution events last — while
    // divergence indices keep pointing into the rendered stream.
    let mut group = 0;
    while group < events.len() {
        let at = events[group].as_ref().at;
        let mut end = group;
        while end < events.len() && events[end].as_ref().at == at {
            end += 1;
        }
        for phase in 0..3u8 {
            for (index, e) in events.iter().enumerate().take(end).skip(group) {
                let kind = e.as_ref().kind;
                if step_phase(kind) != phase {
                    continue;
                }
                let verdict = step_event(&mut jobs, bounds, kind, at, &mut checked);
                if divergence.is_none() {
                    if let Some(kind) = verdict {
                        divergence = Some(Divergence { index, at, kind });
                    }
                }
            }
        }
        group = end;
    }
    Stepped {
        checked,
        divergence,
    }
}

/// Within one instant, the phase an event steps in: `release` lands
/// before the observers, which land before execution events.
fn step_phase(kind: EventKind) -> u8 {
    match kind {
        EventKind::JobRelease { .. } => 0,
        EventKind::DetectorRelease { .. }
        | EventKind::FaultDetected { .. }
        | EventKind::AllowanceGranted { .. } => 1,
        _ => 2,
    }
}

/// Step one event against the job-state machine, returning the
/// divergence it provokes (if any).
fn step_event<'b>(
    jobs: &mut Jobs<'b>,
    bounds: &'b ReplayBounds,
    kind: EventKind,
    at: Instant,
    checked: &mut usize,
) -> Option<DivergenceKind> {
    match kind {
        EventKind::JobRelease { task, job: j } => {
            let mut fresh = false;
            jobs.task(task, || bounds.of(task)).slot(j, || {
                fresh = true;
                JobState {
                    job: j,
                    released_at: at,
                    ended: false,
                    stopped: false,
                    detected: false,
                }
            });
            (!fresh).then(|| DivergenceKind::OrderMismatch {
                detail: format!("{task:?} job {j} released twice"),
            })
        }
        EventKind::JobStart { task, job: j }
        | EventKind::Resumed { task, job: j }
        | EventKind::Preempted { task, job: j, .. } => {
            let tag = kind.tag();
            match jobs.get_task(task).and_then(|t| t.get_mut(j)) {
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
        EventKind::JobEnd { task, job: j } => {
            let (b, state) = match jobs.get_task(task) {
                Some(t) => (t.meta, t.get_mut(j)),
                None => (None, None),
            };
            match state {
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
                    s.ended = true;
                    *checked += 1;
                    check_completion(b, task, j, at - s.released_at, s.detected)
                }
            }
        }
        EventKind::TaskStopped { task, job: j } => {
            let (b, state) = match jobs.get_task(task) {
                Some(t) => (t.meta, t.get_mut(j)),
                None => (None, None),
            };
            match state {
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
                    s.stopped = true;
                    let latency = at - s.released_at;
                    let threshold = b.and_then(|b| b.threshold);
                    if !bounds.stops {
                        Some(DivergenceKind::UncertifiedStop {
                            task,
                            job: j,
                            latency,
                            threshold: None,
                        })
                    } else {
                        match threshold {
                            // Stops fire at the (quantized, allowance-
                            // extended) detection line — never before
                            // the exact threshold.
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
            }
        }
        EventKind::FaultDetected { task, job: j } => {
            if let Some(s) = jobs.get_task(task).and_then(|t| t.get_mut(j)) {
                s.detected = true;
            }
            None
        }
        // Detector fires, allowance grants, deadline misses and
        // platform events carry no obligation of their own: a miss
        // in an out-of-allowance run is the specified behaviour
        // (Figure 3), and detectors keep polling stopped tasks.
        EventKind::DetectorRelease { .. }
        | EventKind::AllowanceGranted { .. }
        | EventKind::DeadlineMiss { .. }
        | EventKind::CpuIdle
        | EventKind::SimEnd => None,
    }
}

/// The two completion checks: the oracle's certified bound (when the
/// fault plan is admitted), then the quantized detection line (a late
/// completion with no preceding `fault` event means the detectors the
/// spec prescribes were not running).
fn check_completion(
    bounds: Option<&TaskBounds>,
    task: TaskId,
    job: u64,
    response: Duration,
    detected: bool,
) -> Option<DivergenceKind> {
    let b = bounds?;
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
