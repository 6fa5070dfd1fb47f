//! Per-job and per-task statistics derived from a trace.
//!
//! This is the analysis half of the paper's second tool: given the raw key
//! dates (releases, starts, ends, detector firings), rebuild each job's
//! lifecycle and summarize response times, deadline outcomes and stops.

use crate::event::{EventKind, JobIndex, TraceEvent};
use crate::jobs::{Indexed, JobTable};
use crate::log::TraceLog;
use rtft_core::task::{TaskId, TaskSet};
use rtft_core::time::{Duration, Instant};

/// Reconstructed lifecycle of a single job.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobRecord {
    /// Owning task.
    pub task: TaskId,
    /// Job index.
    pub job: JobIndex,
    /// Release instant.
    pub release: Instant,
    /// First dispatch, if the job ever ran.
    pub start: Option<Instant>,
    /// Completion, if the job finished normally.
    pub end: Option<Instant>,
    /// Absolute deadline (`release + D`), when the task set is provided.
    pub deadline: Option<Instant>,
    /// `true` iff a deadline-miss event was recorded for this job.
    pub missed: bool,
    /// `true` iff the treatment stopped this job.
    pub stopped: bool,
    /// `true` iff a detector flagged this job faulty.
    pub faulty: bool,
}

impl JobRecord {
    /// Response time `end − release`, when the job completed.
    pub fn response(&self) -> Option<Duration> {
        self.end.map(|e| e - self.release)
    }

    /// `true` iff the job completed normally before its deadline.
    pub fn met_deadline(&self) -> bool {
        !self.missed
            && !self.stopped
            && match (self.end, self.deadline) {
                (Some(end), Some(dl)) => end <= dl,
                (Some(_), None) => true,
                _ => false,
            }
    }
}

/// Summary over the jobs of one task.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TaskSummary {
    /// Jobs released.
    pub released: usize,
    /// Jobs completed normally.
    pub completed: usize,
    /// Deadline misses.
    pub missed: usize,
    /// Jobs stopped by a treatment.
    pub stopped: usize,
    /// Jobs flagged faulty by a detector.
    pub faults: usize,
    /// Largest observed response time.
    pub max_response: Option<Duration>,
    /// Smallest observed response time.
    pub min_response: Option<Duration>,
    /// Sum of observed response times (for the mean).
    pub total_response: Duration,
}

impl TaskSummary {
    /// Mean observed response time.
    pub fn mean_response(&self) -> Option<Duration> {
        if self.completed == 0 {
            None
        } else {
            Some(self.total_response / self.completed as i64)
        }
    }
}

/// Job records and per-task summaries extracted from one trace.
///
/// **Storage.** Dense: one entry per task, ordered by task id, each
/// holding the task's summary and its job records ordered by job index.
/// Accessors are binary searches over those vectors, and the iterators
/// walk them in `(task, job)` order.
///
/// **Cost.** [`TraceStats::from_events`] is a single pass over the events
/// through the shared [`JobTable`], with each task's relative deadline
/// cached as its meta: O(1) per event on simulator output, O(log n) at
/// worst on untrusted captures, and nothing allocated in proportion to a
/// raw [`JobIndex`] or a large task id. Summaries are folded once per
/// job at the end.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct TraceStats {
    tasks: Vec<TaskStats>,
}

/// One task's slice of a [`TraceStats`].
#[derive(Clone, PartialEq, Debug)]
struct TaskStats {
    task: TaskId,
    summary: TaskSummary,
    /// Ascending job index.
    jobs: Vec<JobRecord>,
}

impl Indexed for JobRecord {
    fn index(&self) -> JobIndex {
        self.job
    }
}

/// Fold one task's job records into its summary.
fn finish(task: TaskId, jobs: Vec<JobRecord>) -> TaskStats {
    let mut summary = TaskSummary::default();
    for record in &jobs {
        summary.released += 1;
        if record.missed {
            summary.missed += 1;
        }
        if record.stopped {
            summary.stopped += 1;
        }
        if record.faulty {
            summary.faults += 1;
        }
        if let Some(r) = record.response() {
            summary.completed += 1;
            summary.total_response += r;
            summary.max_response = Some(summary.max_response.map_or(r, |m| m.max(r)));
            summary.min_response = Some(summary.min_response.map_or(r, |m| m.min(r)));
        }
    }
    TaskStats {
        task,
        summary,
        jobs,
    }
}

impl TraceStats {
    /// Build statistics from a log. When `set` is provided, absolute
    /// deadlines are attached so [`JobRecord::met_deadline`] can judge jobs
    /// even if the producer did not emit explicit miss events.
    pub fn from_log(log: &TraceLog, set: Option<&TaskSet>) -> Self {
        Self::from_events(log.events(), set)
    }

    /// [`TraceStats::from_log`] over borrowed events in chronological
    /// order — a log's, or a capture's through
    /// [`crate::capture::CaptureEvents`].
    pub fn from_events<'e>(
        events: impl IntoIterator<Item = &'e TraceEvent>,
        set: Option<&TaskSet>,
    ) -> Self {
        // Each task's meta is its relative deadline, looked up once.
        let mut table: JobTable<JobRecord, Option<Duration>> = JobTable::new();
        for e in events {
            let (Some(task), Some(job)) = (e.kind.task(), e.kind.job()) else {
                continue;
            };
            let t = table.task(task, || set.and_then(|s| s.by_id(task)).map(|s| s.deadline));
            let deadline = t.meta;
            let entry = t.slot(job, || JobRecord {
                task,
                job,
                release: e.at,
                start: None,
                end: None,
                deadline: None,
                missed: false,
                stopped: false,
                faulty: false,
            });
            match e.kind {
                EventKind::JobRelease { .. } => {
                    entry.release = e.at;
                    if let Some(d) = deadline {
                        entry.deadline = Some(e.at + d);
                    }
                }
                EventKind::JobStart { .. } => entry.start = Some(e.at),
                EventKind::JobEnd { .. } => entry.end = Some(e.at),
                EventKind::DeadlineMiss { .. } => entry.missed = true,
                EventKind::TaskStopped { .. } => entry.stopped = true,
                EventKind::FaultDetected { .. } => entry.faulty = true,
                _ => {}
            }
        }
        let tasks = table
            .into_tasks()
            .into_iter()
            .map(|(task, _, jobs)| finish(task, jobs))
            .collect();
        TraceStats { tasks }
    }

    fn entry(&self, task: TaskId) -> Option<&TaskStats> {
        self.tasks
            .binary_search_by_key(&task, |t| t.task)
            .ok()
            .map(|i| &self.tasks[i])
    }

    /// Record of a particular job.
    pub fn job(&self, task: TaskId, job: JobIndex) -> Option<&JobRecord> {
        let jobs = &self.entry(task)?.jobs;
        jobs.binary_search_by_key(&job, |r| r.job)
            .ok()
            .map(|i| &jobs[i])
    }

    /// All job records, ordered by `(task, job)`.
    pub fn jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.tasks.iter().flat_map(|t| &t.jobs)
    }

    /// Job records of one task, in job order.
    pub fn jobs_of(&self, task: TaskId) -> Vec<&JobRecord> {
        self.entry(task)
            .map_or_else(Vec::new, |t| t.jobs.iter().collect())
    }

    /// Summary of one task.
    pub fn summary(&self, task: TaskId) -> Option<&TaskSummary> {
        self.entry(task).map(|t| &t.summary)
    }

    /// All task summaries, by id.
    pub fn summaries(&self) -> impl Iterator<Item = (&TaskId, &TaskSummary)> {
        self.tasks.iter().map(|t| (&t.task, &t.summary))
    }

    /// Largest observed response of a task — the experimental counterpart
    /// of the analytical WCRT (the simulator can never exceed it on a
    /// fault-free run; tests assert exactly that).
    pub fn observed_wcrt(&self, task: TaskId) -> Option<Duration> {
        self.summary(task).and_then(|s| s.max_response)
    }

    /// Render a compact text table of the summaries.
    pub fn render_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<6} {:>8} {:>9} {:>7} {:>8} {:>7} {:>12} {:>12}",
            "task", "released", "completed", "missed", "stopped", "faults", "maxresp", "meanresp"
        );
        for (task, s) in self.summaries() {
            let _ = writeln!(
                out,
                "{:<6} {:>8} {:>9} {:>7} {:>8} {:>7} {:>12} {:>12}",
                task.to_string(),
                s.released,
                s.completed,
                s.missed,
                s.stopped,
                s.faults,
                s.max_response.map_or("-".into(), |d| d.to_string()),
                s.mean_response().map_or("-".into(), |d| d.to_string()),
            );
        }
        out
    }
}

/// A fixed-bucket histogram of non-negative [`Duration`] samples —
/// responses, detector latencies, allowance consumptions. Bucket `i`
/// covers `[i·w, (i+1)·w)`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DurationHistogram {
    /// Bucket width.
    pub bucket: Duration,
    /// Counts; bucket `i` covers `[i·w, (i+1)·w)`.
    pub counts: Vec<usize>,
    /// Samples observed.
    pub samples: usize,
}

impl DurationHistogram {
    /// Empty histogram with the given bucket width.
    ///
    /// # Panics
    /// Panics on a non-positive bucket width.
    pub fn new(bucket: Duration) -> Self {
        assert!(bucket.is_positive(), "bucket width must be positive");
        DurationHistogram {
            bucket,
            counts: Vec::new(),
            samples: 0,
        }
    }

    /// Build from an iterator of samples.
    ///
    /// # Panics
    /// Panics on a non-positive bucket width or a negative sample.
    pub fn of_samples(samples: impl IntoIterator<Item = Duration>, bucket: Duration) -> Self {
        let mut h = DurationHistogram::new(bucket);
        for s in samples {
            h.record(s);
        }
        h
    }

    /// Record one sample.
    ///
    /// # Panics
    /// Panics on a negative sample.
    pub fn record(&mut self, sample: Duration) {
        assert!(!sample.is_negative(), "histogram samples must be ≥ 0");
        let idx = (sample / self.bucket) as usize;
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.samples += 1;
    }

    /// The value at or below which `q` (in `[0,1]`) of the samples fall —
    /// bucket-resolution quantile, rounded up to the bucket's upper edge.
    /// `None` with no samples.
    pub fn quantile(&self, q: f64) -> Option<Duration> {
        assert!((0.0..=1.0).contains(&q), "quantile in [0,1]");
        if self.samples == 0 {
            return None;
        }
        let target = (q * self.samples as f64).ceil().max(1.0) as usize;
        let mut acc = 0usize;
        for (i, c) in self.counts.iter().enumerate() {
            acc += c;
            if acc >= target {
                return Some(self.bucket * (i as i64 + 1));
            }
        }
        Some(self.bucket * self.counts.len() as i64)
    }

    /// ASCII rendering, one row per non-empty bucket.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let peak = self.counts.iter().copied().max().unwrap_or(0).max(1);
        for (i, c) in self.counts.iter().enumerate() {
            if *c == 0 {
                continue;
            }
            let lo = self.bucket * i as i64;
            let hi = self.bucket * (i as i64 + 1);
            let bar = "#".repeat((c * 40).div_ceil(peak));
            let _ = writeln!(
                out,
                "{:>10}..{:<10} {c:>6} {bar}",
                lo.to_string(),
                hi.to_string()
            );
        }
        out
    }
}

/// Response-time histogram of one task: a [`DurationHistogram`] over the
/// completed jobs — the distribution view behind the paper's
/// "statistical work" on execution costs.
pub type ResponseHistogram = DurationHistogram;

impl ResponseHistogram {
    /// Build from the completed jobs of `task` with the given bucket
    /// width.
    ///
    /// # Panics
    /// Panics on a non-positive bucket width.
    pub fn of(stats: &TraceStats, task: TaskId, bucket: Duration) -> Self {
        DurationHistogram::of_samples(
            stats.jobs_of(task).iter().filter_map(|j| j.response()),
            bucket,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::task::TaskBuilder;
    use std::collections::BTreeMap;

    fn t(ms: i64) -> Instant {
        Instant::from_millis(ms)
    }

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    fn set() -> TaskSet {
        TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(200), ms(29))
                .deadline(ms(70))
                .build(),
            TaskBuilder::new(3, 16, ms(1500), ms(29))
                .deadline(ms(120))
                .build(),
        ])
    }

    fn log() -> TraceLog {
        let mut log = TraceLog::new();
        log.push(
            t(0),
            EventKind::JobRelease {
                task: TaskId(1),
                job: 0,
            },
        );
        log.push(
            t(0),
            EventKind::JobRelease {
                task: TaskId(3),
                job: 0,
            },
        );
        log.push(
            t(0),
            EventKind::JobStart {
                task: TaskId(1),
                job: 0,
            },
        );
        log.push(
            t(29),
            EventKind::JobEnd {
                task: TaskId(1),
                job: 0,
            },
        );
        log.push(
            t(29),
            EventKind::JobStart {
                task: TaskId(3),
                job: 0,
            },
        );
        log.push(
            t(58),
            EventKind::JobEnd {
                task: TaskId(3),
                job: 0,
            },
        );
        log.push(
            t(200),
            EventKind::JobRelease {
                task: TaskId(1),
                job: 1,
            },
        );
        log.push(
            t(200),
            EventKind::JobStart {
                task: TaskId(1),
                job: 1,
            },
        );
        log.push(
            t(240),
            EventKind::FaultDetected {
                task: TaskId(1),
                job: 1,
            },
        );
        log.push(
            t(270),
            EventKind::DeadlineMiss {
                task: TaskId(1),
                job: 1,
            },
        );
        log.push(
            t(275),
            EventKind::TaskStopped {
                task: TaskId(1),
                job: 1,
            },
        );
        log
    }

    #[test]
    fn job_lifecycles() {
        let stats = TraceStats::from_log(&log(), Some(&set()));
        let j0 = stats.job(TaskId(1), 0).unwrap();
        assert_eq!(j0.response(), Some(ms(29)));
        assert_eq!(j0.deadline, Some(t(70)));
        assert!(j0.met_deadline());

        let j1 = stats.job(TaskId(1), 1).unwrap();
        assert_eq!(j1.response(), None);
        assert!(j1.missed);
        assert!(j1.stopped);
        assert!(j1.faulty);
        assert!(!j1.met_deadline());

        let j3 = stats.job(TaskId(3), 0).unwrap();
        assert_eq!(j3.response(), Some(ms(58)));
        assert!(j3.met_deadline());
    }

    #[test]
    fn summaries() {
        let stats = TraceStats::from_log(&log(), Some(&set()));
        let s1 = stats.summary(TaskId(1)).unwrap();
        assert_eq!(s1.released, 2);
        assert_eq!(s1.completed, 1);
        assert_eq!(s1.missed, 1);
        assert_eq!(s1.stopped, 1);
        assert_eq!(s1.faults, 1);
        assert_eq!(s1.max_response, Some(ms(29)));
        assert_eq!(s1.mean_response(), Some(ms(29)));
        assert_eq!(stats.observed_wcrt(TaskId(3)), Some(ms(58)));
    }

    #[test]
    fn jobs_of_ordering() {
        let stats = TraceStats::from_log(&log(), None);
        let jobs = stats.jobs_of(TaskId(1));
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].job, 0);
        assert_eq!(jobs[1].job, 1);
        // Without a task set there are no deadlines attached.
        assert_eq!(jobs[0].deadline, None);
        // A finished job with no known deadline counts as met.
        assert!(jobs[0].met_deadline());
    }

    #[test]
    fn table_renders() {
        let stats = TraceStats::from_log(&log(), Some(&set()));
        let table = stats.render_table();
        assert!(table.contains("τ1"));
        assert!(table.contains("maxresp"));
        assert!(table.contains("29ms"));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut log = TraceLog::new();
        // Responses: 10, 10, 20, 40 ms.
        for (i, (rel, end)) in [(0, 10), (100, 110), (200, 220), (300, 340)]
            .iter()
            .enumerate()
        {
            log.push(
                t(*rel),
                EventKind::JobRelease {
                    task: TaskId(1),
                    job: i as u64,
                },
            );
            log.push(
                t(*rel),
                EventKind::JobStart {
                    task: TaskId(1),
                    job: i as u64,
                },
            );
            log.push(
                t(*end),
                EventKind::JobEnd {
                    task: TaskId(1),
                    job: i as u64,
                },
            );
        }
        let stats = TraceStats::from_log(&log, None);
        let h = ResponseHistogram::of(&stats, TaskId(1), ms(10));
        assert_eq!(h.samples, 4);
        // Buckets [10,20): 2 (responses of exactly 10 land in bucket 1),
        // [20,30): 1, [40,50): 1.
        assert_eq!(h.counts[1], 2);
        assert_eq!(h.counts[2], 1);
        assert_eq!(h.counts[4], 1);
        assert_eq!(h.quantile(0.5), Some(ms(20)));
        assert_eq!(h.quantile(1.0), Some(ms(50)));
        let render = h.render();
        assert!(render.contains("#"));
        assert!(render.contains("10ms..20ms"));
    }

    #[test]
    fn histogram_empty_task() {
        let stats = TraceStats::from_log(&TraceLog::new(), None);
        let h = ResponseHistogram::of(&stats, TaskId(9), ms(10));
        assert_eq!(h.samples, 0);
        assert_eq!(h.quantile(0.9), None);
        assert!(h.render().is_empty());
    }

    #[test]
    fn empty_log() {
        let stats = TraceStats::from_log(&TraceLog::new(), None);
        assert_eq!(stats.jobs().count(), 0);
        assert_eq!(stats.summary(TaskId(1)), None);
    }

    /// The original `BTreeMap` builder, kept verbatim as the reference
    /// model the dense storage is checked against.
    struct Reference {
        jobs: BTreeMap<(TaskId, JobIndex), JobRecord>,
        summaries: BTreeMap<TaskId, TaskSummary>,
    }

    impl Reference {
        fn from_log(log: &TraceLog, set: Option<&TaskSet>) -> Self {
            let mut jobs: BTreeMap<(TaskId, JobIndex), JobRecord> = BTreeMap::new();
            for e in log.events() {
                let (Some(task), Some(job)) = (e.kind.task(), e.kind.job()) else {
                    continue;
                };
                let entry = jobs.entry((task, job)).or_insert(JobRecord {
                    task,
                    job,
                    release: e.at,
                    start: None,
                    end: None,
                    deadline: None,
                    missed: false,
                    stopped: false,
                    faulty: false,
                });
                match e.kind {
                    EventKind::JobRelease { .. } => {
                        entry.release = e.at;
                        if let Some(set) = set {
                            if let Some(spec) = set.by_id(task) {
                                entry.deadline = Some(e.at + spec.deadline);
                            }
                        }
                    }
                    EventKind::JobStart { .. } => entry.start = Some(e.at),
                    EventKind::JobEnd { .. } => entry.end = Some(e.at),
                    EventKind::DeadlineMiss { .. } => entry.missed = true,
                    EventKind::TaskStopped { .. } => entry.stopped = true,
                    EventKind::FaultDetected { .. } => entry.faulty = true,
                    _ => {}
                }
            }

            let mut summaries: BTreeMap<TaskId, TaskSummary> = BTreeMap::new();
            for record in jobs.values() {
                let s = summaries.entry(record.task).or_default();
                s.released += 1;
                if record.missed {
                    s.missed += 1;
                }
                if record.stopped {
                    s.stopped += 1;
                }
                if record.faulty {
                    s.faults += 1;
                }
                if let Some(r) = record.response() {
                    s.completed += 1;
                    s.total_response += r;
                    s.max_response = Some(s.max_response.map_or(r, |m| m.max(r)));
                    s.min_response = Some(s.min_response.map_or(r, |m| m.min(r)));
                }
            }
            Reference { jobs, summaries }
        }

        fn render_table(&self) -> String {
            use std::fmt::Write as _;
            let mut out = String::new();
            let _ = writeln!(
                out,
                "{:<6} {:>8} {:>9} {:>7} {:>8} {:>7} {:>12} {:>12}",
                "task",
                "released",
                "completed",
                "missed",
                "stopped",
                "faults",
                "maxresp",
                "meanresp"
            );
            for (task, s) in &self.summaries {
                let _ = writeln!(
                    out,
                    "{:<6} {:>8} {:>9} {:>7} {:>8} {:>7} {:>12} {:>12}",
                    task.to_string(),
                    s.released,
                    s.completed,
                    s.missed,
                    s.stopped,
                    s.faults,
                    s.max_response.map_or("-".into(), |d| d.to_string()),
                    s.mean_response().map_or("-".into(), |d| d.to_string()),
                );
            }
            out
        }
    }

    /// Assert every accessor of `stats` agrees with the reference model.
    fn assert_matches_reference(log: &TraceLog, set: Option<&TaskSet>, probes: &[TaskId]) {
        let stats = TraceStats::from_log(log, set);
        let reference = Reference::from_log(log, set);
        let jobs: Vec<JobRecord> = stats.jobs().copied().collect();
        let expected: Vec<JobRecord> = reference.jobs.values().copied().collect();
        assert_eq!(jobs, expected, "jobs() in (task, job) order");
        for (&(task, job), record) in &reference.jobs {
            assert_eq!(stats.job(task, job), Some(record));
            for near in [job.wrapping_sub(1), job.wrapping_add(1)] {
                assert_eq!(
                    stats.job(task, near),
                    reference.jobs.get(&(task, near)),
                    "probe {task} job {near}"
                );
            }
        }
        let summaries: Vec<(TaskId, TaskSummary)> =
            stats.summaries().map(|(t, s)| (*t, *s)).collect();
        let expected: Vec<(TaskId, TaskSummary)> =
            reference.summaries.iter().map(|(t, s)| (*t, *s)).collect();
        assert_eq!(summaries, expected, "summaries() by id");
        let tasks = reference.summaries.keys().chain(probes);
        for &task in tasks {
            assert_eq!(stats.summary(task), reference.summaries.get(&task));
            assert_eq!(
                stats.observed_wcrt(task),
                reference.summaries.get(&task).and_then(|s| s.max_response)
            );
            let of: Vec<&JobRecord> = reference
                .jobs
                .range((task, 0)..=(task, JobIndex::MAX))
                .map(|(_, v)| v)
                .collect();
            assert_eq!(stats.jobs_of(task), of, "jobs_of({task})");
            assert_eq!(
                stats.job(task, JobIndex::MAX),
                reference.jobs.get(&(task, JobIndex::MAX))
            );
        }
        assert_eq!(stats.render_table(), reference.render_table());
    }

    /// SplitMix64: a dependency-free seeded generator for the random logs.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// Task ids of the random logs: small ids (some absent from the set)
    /// plus ids past the direct lookup table.
    const POOL: [u32; 7] = [1, 2, 3, 7, 1023, 5000, u32::MAX];

    fn random_log(rng: &mut Rng, events: usize) -> TraceLog {
        let tasks = &POOL[..1 + rng.below(POOL.len() as u64) as usize];
        let mut next_job = vec![0u64; tasks.len()];
        let mut log = TraceLog::new();
        let mut now = 0i64;
        for _ in 0..events {
            now += rng.below(3) as i64;
            let slot = rng.below(tasks.len() as u64) as usize;
            let task = TaskId(tasks[slot]);
            // Mostly in-flight jobs near the newest index; sometimes a
            // revisit far back, a gap forward, or an index near u64::MAX.
            let job = match rng.below(10) {
                0 => rng.below(next_job[slot] + 1),
                1 => {
                    next_job[slot] += 1 + rng.below(50);
                    next_job[slot]
                }
                2 => u64::MAX - rng.below(3),
                3 => {
                    next_job[slot] += 1;
                    next_job[slot]
                }
                _ => next_job[slot].saturating_sub(rng.below(3)),
            };
            let kind = match rng.below(12) {
                0 | 1 => EventKind::JobRelease { task, job },
                2 => EventKind::JobStart { task, job },
                3 | 4 => EventKind::JobEnd { task, job },
                5 => EventKind::Preempted {
                    task,
                    job,
                    by: TaskId(1),
                },
                6 => EventKind::DeadlineMiss { task, job },
                7 => EventKind::TaskStopped { task, job },
                8 => EventKind::FaultDetected { task, job },
                9 => EventKind::AllowanceGranted {
                    task,
                    job,
                    amount: ms(1),
                },
                10 => EventKind::DetectorRelease { task, job },
                _ => EventKind::CpuIdle,
            };
            log.push(t(now), kind);
        }
        log
    }

    #[test]
    fn dense_storage_matches_the_btreemap_reference() {
        // The set knows τ1, τ3 and τ5000; τ2, τ7, τ1023 and τ4294967295
        // appear in logs without a deadline.
        let wide = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(200), ms(29))
                .deadline(ms(70))
                .build(),
            TaskBuilder::new(3, 16, ms(1500), ms(29))
                .deadline(ms(120))
                .build(),
            TaskBuilder::new(5000, 10, ms(400), ms(5))
                .deadline(ms(9))
                .build(),
        ]);
        let probes = [TaskId(0), TaskId(4), TaskId(1024), TaskId(u32::MAX - 1)];
        let mut rng = Rng(0x5eed);
        for round in 0..300 {
            let log = random_log(&mut rng, 1 + round % 97 * 3);
            assert_matches_reference(&log, Some(&wide), &probes);
            assert_matches_reference(&log, None, &probes);
        }
        assert_matches_reference(&log(), Some(&set()), &probes);
        assert_matches_reference(&TraceLog::new(), None, &probes);
    }

    #[test]
    fn jobs_without_a_release_keep_their_first_instant() {
        let mut log = TraceLog::new();
        let (a, b) = (TaskId(2), TaskId(1));
        log.push(t(5), EventKind::JobStart { task: a, job: 3 });
        log.push(t(6), EventKind::JobRelease { task: b, job: 0 });
        log.push(t(9), EventKind::JobEnd { task: a, job: 3 });
        log.push(t(9), EventKind::JobStart { task: a, job: 1 });
        let stats = TraceStats::from_log(&log, Some(&set()));
        let j = stats.job(a, 3).unwrap();
        assert_eq!(
            (j.release, j.deadline, j.response()),
            (t(5), None, Some(ms(4)))
        );
        assert_eq!(stats.job(b, 0).unwrap().deadline, Some(t(76)));
        let order: Vec<(u32, u64)> = stats.jobs().map(|j| (j.task.0, j.job)).collect();
        assert_eq!(order, vec![(1, 0), (2, 1), (2, 3)]);
        assert_matches_reference(&log, Some(&set()), &[]);
    }

    /// Release, start and end of each job in `order`, one task.
    fn lifecycle_log(order: impl Iterator<Item = JobIndex>) -> TraceLog {
        let task = TaskId(1);
        let mut log = TraceLog::new();
        for (i, job) in order.enumerate() {
            let at = t(i as i64);
            log.push(at, EventKind::JobRelease { task, job });
            log.push(at, EventKind::JobStart { task, job });
            log.push(at, EventKind::JobEnd { task, job });
        }
        log
    }

    #[test]
    fn descending_job_indices_stay_fast() {
        // 200k events, every job below the newest: each must take the
        // O(log n) path, never a shift of the sorted records.
        const JOBS: u64 = 200_000 / 3;
        let log = lifecycle_log((0..JOBS).rev());
        assert!(log.len() >= 200_000 - 2);
        let start = std::time::Instant::now();
        let stats = TraceStats::from_log(&log, None);
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(1),
            "{elapsed:?} for a descending 200k-event log"
        );
        assert_eq!(stats.summary(TaskId(1)).unwrap().released, JOBS as usize);
        let jobs = stats.jobs_of(TaskId(1));
        assert!(jobs.windows(2).all(|w| w[0].job < w[1].job));
        assert_eq!(stats.job(TaskId(1), 0).unwrap().release, t(JOBS as i64 - 1));
    }

    #[test]
    fn huge_job_indices_do_not_allocate_by_index() {
        // A table indexed by the raw job index would need ~2^64 slots.
        let order = [u64::MAX, 0, u64::MAX - 1, 1 << 40, u64::MAX / 2];
        let log = lifecycle_log(order.iter().copied());
        let stats = TraceStats::from_log(&log, None);
        let jobs: Vec<JobIndex> = stats.jobs().map(|j| j.job).collect();
        assert_eq!(jobs, vec![0, 1 << 40, u64::MAX / 2, u64::MAX - 1, u64::MAX]);
        assert_eq!(stats.job(TaskId(1), u64::MAX).unwrap().release, t(0));
        assert_matches_reference(&log, None, &[]);
    }
}
