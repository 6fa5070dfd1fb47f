//! Resolving the thresholds a trace must respect.
//!
//! Replay builds the job's `Workbench` — the one place a spec meets its
//! placement — and asks each of its parts the one certification recipe
//! ([`rtft_ft::recipe::Recipe`]) the runners arm their detectors from and
//! the campaign oracle certifies with: the detector thresholds the
//! treatment armed and the certified response bound, including the
//! out-of-allowance skip. Both are resolved **per task**, so the stepping
//! checker never cares which placement produced an event — a partitioned
//! job resolves each core's subset through its own session, at its own
//! fault slice, exactly as the multicore runner does.

use crate::ReplayError;
use rtft_campaign::JobSpec;
use rtft_core::task::TaskId;
use rtft_core::time::Duration;
use rtft_ft::harness::HarnessError;
use rtft_ft::recipe::{OracleSkip, Recipe};
use rtft_part::workbench::Workbench;
use std::collections::BTreeMap;

/// Whether completions can be held to a certified response bound — the
/// oracle's applicability verdict.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Certification {
    /// Every completion must respond within the Δmax-inflated bound.
    Certified {
        /// The inflation the bounds were computed at.
        dmax: Duration,
    },
    /// No certified bound applies (fault plan out of allowance, or the
    /// inflated analysis failed); only the detection-line checks run.
    Uncertified {
        /// Largest injected overrun.
        dmax: Duration,
        /// Why certification was declined.
        reason: String,
    },
    /// The platform charges overheads the analysis does not model.
    Overheads,
}

impl Certification {
    /// `true` iff completions are checked against a certified bound.
    pub fn is_certified(&self) -> bool {
        matches!(self, Certification::Certified { .. })
    }
}

impl std::fmt::Display for Certification {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Certification::Certified { dmax } => write!(f, "certified at Δmax = {dmax}"),
            Certification::Uncertified { dmax, reason } => {
                write!(f, "uncertified (Δmax = {dmax}: {reason})")
            }
            Certification::Overheads => write!(f, "uncertified (charged overheads)"),
        }
    }
}

/// What one task's events are held to.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TaskBounds {
    /// Detection threshold the treatment configured (`None` under
    /// [`NoDetection`](rtft_ft::treatment::Treatment::NoDetection)).
    pub threshold: Option<Duration>,
    /// Quantization delay of this task's detector line: its first fire
    /// is rounded up to the platform's timer grid, subsequent fires
    /// step exactly, so every job's detection instant is
    /// `release + threshold + detect_delay`.
    pub detect_delay: Duration,
    /// Certified response bound for completed jobs, when certification
    /// applies to this task's core.
    pub certified: Option<Duration>,
}

/// Per-task bounds plus the job-wide certification verdict.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ReplayBounds {
    /// Bounds of every task of the set.
    pub per_task: BTreeMap<TaskId, TaskBounds>,
    /// Job-wide certification face (the worst core's, under
    /// partitioned placement).
    pub certification: Certification,
    /// `true` iff the treatment is allowed to stop faulty tasks — a
    /// `stop` event in a trace of a non-stopping treatment is always a
    /// divergence.
    pub stops: bool,
}

impl ReplayBounds {
    /// Bounds of one task (`None` for tasks outside the job's set).
    pub fn of(&self, task: TaskId) -> Option<&TaskBounds> {
        self.per_task.get(&task)
    }
}

/// Resolve the bounds a trace of `job` must respect from every part of
/// its placement: the whole set on one core or under global placement,
/// each occupied core under partitioned placement (with the core's own
/// fault slice deciding its certification).
///
/// # Errors
/// [`ReplayError::Analysis`] when the base system is infeasible (an
/// infeasible system never ran, so no honest trace of it exists), the
/// allocator finds no partition, or an analysis query fails.
pub fn resolve_bounds(job: &JobSpec) -> Result<ReplayBounds, ReplayError> {
    let mut bench = Workbench::new(job.system_spec());
    if let Some(diag) = bench.unplaceable() {
        return Err(ReplayError::Analysis(diag.to_string()));
    }
    let dmax = job.faults.max_overrun();
    let mut per_task = BTreeMap::new();
    let mut skip = None;
    for part in bench.parts_mut() {
        // Each part is certified at its own fault slice: a partitioned
        // core at its tasks' faults, the one part of any other
        // placement at the job's.
        let part_dmax = part.faults(&job.faults).max_overrun();
        let part_skip = task_bounds(part.session, job, part_dmax, &mut per_task)?;
        // The job-wide face is the first uncertified part's.
        skip = skip.or(part_skip);
    }
    let certification = match skip {
        None => Certification::Certified { dmax },
        Some(OracleSkip::Overheads) => Certification::Overheads,
        Some(reason) => Certification::Uncertified {
            dmax,
            reason: reason.to_string(),
        },
    };
    Ok(ReplayBounds {
        per_task,
        certification,
        stops: job.treatment.stops_faulty_tasks(),
    })
}

/// One part's rows (thresholds, detection delay, Δmax certificate)
/// into `per_task`; returns why certification was declined, if it was.
/// The system-allowance search is never run.
fn task_bounds(
    session: &mut dyn Recipe,
    job: &JobSpec,
    dmax: Duration,
    per_task: &mut BTreeMap<TaskId, TaskBounds>,
) -> Result<Option<OracleSkip>, ReplayError> {
    // The runners refuse these jobs: no honest trace of them exists.
    let refused = |e: HarnessError| {
        ReplayError::Analysis(match e {
            HarnessError::InfeasibleBase => {
                "base system is not feasible — it cannot have produced a trace".into()
            }
            HarnessError::Analysis(e) => e.to_string(),
        })
    };
    let baseline = session.baseline().map_err(refused)?;
    let (thresholds, _) = session
        .detection(job.treatment, &baseline)
        .map_err(refused)?;
    let certified = session.certify(&baseline, dmax, job.platform.overheads.is_free());
    for (rank, spec) in session.task_set().tasks().iter().enumerate() {
        let threshold = thresholds.get(rank).copied();
        per_task.insert(
            spec.id,
            TaskBounds {
                threshold,
                detect_delay: threshold.map_or(Duration::ZERO, |t| {
                    job.platform.timer.delay(spec.offset + t)
                }),
                certified: certified.as_ref().ok().map(|c| c[rank]),
            },
        );
    }
    Ok(certified.err())
}
