//! Resolving the thresholds a trace must respect.
//!
//! Replay asks the one certification recipe ([`rtft_ft::recipe::Recipe`])
//! the runners arm their detectors from and the campaign oracle certifies
//! with: the detector thresholds the treatment armed and the certified
//! response bound, including the out-of-allowance skip. Both are resolved
//! **per task**, so the stepping checker never cares which placement
//! produced an event — a partitioned job resolves each core's subset
//! through its own session, exactly as the multicore runner does.

use crate::ReplayError;
use rtft_campaign::JobSpec;
use rtft_core::analyzer::Analyzer;
use rtft_core::query::Placement;
use rtft_core::task::{TaskId, TaskSet};
use rtft_core::time::Duration;
use rtft_ft::harness::HarnessError;
use rtft_ft::recipe::{OracleSkip, Recipe};
use rtft_global::GlobalAnalyzer;
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

/// Resolve the bounds a trace of `job` must respect, per placement:
/// one uniprocessor session for 1-core jobs, one session per occupied
/// core under partitioned placement (with each core's own fault slice
/// deciding its certification), the global sufficient test under
/// global placement.
///
/// # Errors
/// [`ReplayError::Analysis`] when the base system is infeasible (an
/// infeasible system never ran, so no honest trace of it exists), the
/// allocator finds no partition, or an analysis query fails.
pub fn resolve_bounds(job: &JobSpec) -> Result<ReplayBounds, ReplayError> {
    let mut per_task = BTreeMap::new();
    let dmax = job.faults.max_overrun();
    let skip = if job.cores <= 1 {
        let mut session = Analyzer::for_policy(&job.set, job.policy);
        task_bounds(&mut session, &job.set, job, dmax, &mut per_task)?
    } else if job.placement == Placement::Global {
        let mut session = GlobalAnalyzer::new((*job.set).clone(), job.cores, job.policy);
        task_bounds(&mut session, &job.set, job, dmax, &mut per_task)?
    } else {
        let partition = rtft_part::alloc::allocate(&job.set, job.cores, job.policy, job.alloc)
            .map_err(|e| ReplayError::Analysis(e.to_string()))?;
        let mut skip = None;
        for core in partition.occupied_cores() {
            let subset = partition.core_set(core).expect("occupied core");
            let core_dmax = partition.core_faults(&job.faults, core).max_overrun();
            let mut session = Analyzer::for_policy(subset, job.policy);
            let core_skip = task_bounds(&mut session, subset, job, core_dmax, &mut per_task)?;
            // The job-wide face is the first uncertified core's.
            skip = skip.or(core_skip);
        }
        skip
    };
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

/// One session's rows of `set` (thresholds, detection delay, Δmax
/// certificate) into `per_task`; returns why certification was declined,
/// if it was. The system-allowance search is never run.
fn task_bounds(
    session: &mut impl Recipe,
    set: &TaskSet,
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
    for (rank, spec) in set.tasks().iter().enumerate() {
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
