//! Trace event records — the "key dates in the system life" of the paper's
//! Section 5, plus scheduler-level detail (preemptions, stops, grants) that
//! the treatments need for verification.

use rtft_core::task::TaskId;
use rtft_core::time::{Duration, Instant};
use std::fmt;

/// Index of a job within its task (0 = first activation).
pub type JobIndex = u64;

/// What happened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EventKind {
    /// A job became ready (the ↑ marker of the paper's figures).
    JobRelease {
        /// Task concerned.
        task: TaskId,
        /// Job index.
        job: JobIndex,
    },
    /// A job got the CPU for the first time — the instant
    /// `computeBeforePeriodic()` runs in the paper's instrumentation.
    JobStart {
        /// Task concerned.
        task: TaskId,
        /// Job index.
        job: JobIndex,
    },
    /// A job completed — `computeAfterPeriodic()`.
    JobEnd {
        /// Task concerned.
        task: TaskId,
        /// Job index.
        job: JobIndex,
    },
    /// A running job lost the CPU to a higher-priority one.
    Preempted {
        /// Task concerned.
        task: TaskId,
        /// Job index.
        job: JobIndex,
        /// Task that took the CPU.
        by: TaskId,
    },
    /// A preempted job got the CPU back.
    Resumed {
        /// Task concerned.
        task: TaskId,
        /// Job index.
        job: JobIndex,
    },
    /// A job was still unfinished at its absolute deadline (the ↓ marker):
    /// the failure the treatments try to confine.
    DeadlineMiss {
        /// Task concerned.
        task: TaskId,
        /// Job index.
        job: JobIndex,
    },
    /// A detector fired (the ◆ marker). `job` is the job it inspected.
    DetectorRelease {
        /// Task watched.
        task: TaskId,
        /// Job inspected.
        job: JobIndex,
    },
    /// The detector found the inspected job unfinished: a temporal fault.
    FaultDetected {
        /// Faulty task.
        task: TaskId,
        /// Faulty job.
        job: JobIndex,
    },
    /// The treatment granted extra time to a faulty job.
    AllowanceGranted {
        /// Faulty task.
        task: TaskId,
        /// Faulty job.
        job: JobIndex,
        /// Extra time granted past the detection point.
        amount: Duration,
    },
    /// The treatment stopped the faulty task (its current job is abandoned
    /// and, in the paper's static setting, the task makes no further
    /// releases until re-admitted).
    TaskStopped {
        /// Stopped task.
        task: TaskId,
        /// Abandoned job.
        job: JobIndex,
    },
    /// The processor went idle.
    CpuIdle,
    /// The simulation horizon was reached.
    SimEnd,
}

impl EventKind {
    /// The task this event concerns, if any.
    pub fn task(&self) -> Option<TaskId> {
        match *self {
            EventKind::JobRelease { task, .. }
            | EventKind::JobStart { task, .. }
            | EventKind::JobEnd { task, .. }
            | EventKind::Preempted { task, .. }
            | EventKind::Resumed { task, .. }
            | EventKind::DeadlineMiss { task, .. }
            | EventKind::DetectorRelease { task, .. }
            | EventKind::FaultDetected { task, .. }
            | EventKind::AllowanceGranted { task, .. }
            | EventKind::TaskStopped { task, .. } => Some(task),
            EventKind::CpuIdle | EventKind::SimEnd => None,
        }
    }

    /// The job index this event concerns, if any.
    pub fn job(&self) -> Option<JobIndex> {
        match *self {
            EventKind::JobRelease { job, .. }
            | EventKind::JobStart { job, .. }
            | EventKind::JobEnd { job, .. }
            | EventKind::Preempted { job, .. }
            | EventKind::Resumed { job, .. }
            | EventKind::DeadlineMiss { job, .. }
            | EventKind::DetectorRelease { job, .. }
            | EventKind::FaultDetected { job, .. }
            | EventKind::AllowanceGranted { job, .. }
            | EventKind::TaskStopped { job, .. } => Some(job),
            EventKind::CpuIdle | EventKind::SimEnd => None,
        }
    }

    /// Position of this variant's tag in [`TAGS`]. The match is
    /// exhaustive, so a new variant must be given a tag here before it
    /// compiles.
    pub(crate) const fn tag_index(&self) -> usize {
        match self {
            EventKind::JobRelease { .. } => 0,
            EventKind::JobStart { .. } => 1,
            EventKind::JobEnd { .. } => 2,
            EventKind::Preempted { .. } => 3,
            EventKind::Resumed { .. } => 4,
            EventKind::DeadlineMiss { .. } => 5,
            EventKind::DetectorRelease { .. } => 6,
            EventKind::FaultDetected { .. } => 7,
            EventKind::AllowanceGranted { .. } => 8,
            EventKind::TaskStopped { .. } => 9,
            EventKind::CpuIdle => 10,
            EventKind::SimEnd => 11,
        }
    }

    /// Stable lowercase tag used by the text log format.
    pub fn tag(&self) -> &'static str {
        TAGS[self.tag_index()]
    }
}

/// Every variant's tag, indexed by [`EventKind::tag_index`]: the text
/// log format and [`TraceLog::content_hash`](crate::log::TraceLog::content_hash)
/// both read this one list.
pub(crate) const TAGS: [&str; 12] = [
    "release", "start", "end", "preempt", "resume", "miss", "detector", "fault", "grant", "stop",
    "idle", "simend",
];

/// A timestamped trace record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TraceEvent {
    /// When it happened (virtual time).
    pub at: Instant,
    /// What happened.
    pub kind: EventKind,
}

impl TraceEvent {
    /// Build a record.
    pub fn new(at: Instant, kind: EventKind) -> Self {
        TraceEvent { at, kind }
    }
}

/// Lets code generic over a capture's two bodies read a flat event and
/// a core-tagged one alike.
impl AsRef<TraceEvent> for TraceEvent {
    fn as_ref(&self) -> &TraceEvent {
        self
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind.task() {
            Some(task) => match self.kind.job() {
                Some(job) => write!(f, "{} {} {} job {}", self.at, self.kind.tag(), task, job),
                None => write!(f, "{} {} {}", self.at, self.kind.tag(), task),
            },
            None => write!(f, "{} {}", self.at, self.kind.tag()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let e = EventKind::JobEnd {
            task: TaskId(2),
            job: 4,
        };
        assert_eq!(e.task(), Some(TaskId(2)));
        assert_eq!(e.job(), Some(4));
        assert_eq!(e.tag(), "end");
        assert_eq!(EventKind::CpuIdle.task(), None);
        assert_eq!(EventKind::SimEnd.job(), None);
    }

    #[test]
    fn every_variant_has_its_own_tag() {
        let kinds = [
            EventKind::JobRelease {
                task: TaskId(1),
                job: 0,
            },
            EventKind::JobStart {
                task: TaskId(1),
                job: 0,
            },
            EventKind::JobEnd {
                task: TaskId(1),
                job: 0,
            },
            EventKind::Preempted {
                task: TaskId(1),
                job: 0,
                by: TaskId(2),
            },
            EventKind::Resumed {
                task: TaskId(1),
                job: 0,
            },
            EventKind::DeadlineMiss {
                task: TaskId(1),
                job: 0,
            },
            EventKind::DetectorRelease {
                task: TaskId(1),
                job: 0,
            },
            EventKind::FaultDetected {
                task: TaskId(1),
                job: 0,
            },
            EventKind::AllowanceGranted {
                task: TaskId(1),
                job: 0,
                amount: Duration::millis(1),
            },
            EventKind::TaskStopped {
                task: TaskId(1),
                job: 0,
            },
            EventKind::CpuIdle,
            EventKind::SimEnd,
        ];
        let indices: Vec<usize> = kinds.iter().map(EventKind::tag_index).collect();
        assert_eq!(indices, (0..TAGS.len()).collect::<Vec<_>>());
        let mut tags: Vec<&str> = kinds.iter().map(EventKind::tag).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), TAGS.len(), "tags must be unique");
    }

    #[test]
    fn display() {
        let e = TraceEvent::new(
            Instant::from_millis(1020),
            EventKind::FaultDetected {
                task: TaskId(1),
                job: 5,
            },
        );
        let s = e.to_string();
        assert!(s.contains("t=1020ms"));
        assert!(s.contains("fault"));
        assert!(s.contains("τ1"));
        assert!(s.contains("job 5"));
    }

    #[test]
    fn grant_carries_amount() {
        let e = EventKind::AllowanceGranted {
            task: TaskId(1),
            job: 5,
            amount: Duration::millis(33),
        };
        assert_eq!(e.tag(), "grant");
        if let EventKind::AllowanceGranted { amount, .. } = e {
            assert_eq!(amount, Duration::millis(33));
        }
    }
}
