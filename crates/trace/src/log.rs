//! In-memory trace log.
//!
//! The paper's instrumentation appends timestamps to `StringBuffer` fields
//! during the run "in order not to slow down the system with in-out
//! operations" and writes them out at the end. [`TraceLog`] is the same
//! architecture: an append-only buffer with cheap pushes, flushed/queried
//! after the run.

use crate::event::{EventKind, JobIndex, TraceEvent, TAGS};
use rtft_core::fnv::{Fnv1a, Fnv1aStr};
use rtft_core::task::TaskId;
use rtft_core::time::Instant;

/// Append-only, time-ordered event log.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct TraceLog {
    events: Vec<TraceEvent>,
}

impl TraceLog {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty log with pre-reserved capacity (the paper pre-sizes its
    /// buffers for the same reason: no allocation jitter mid-run).
    pub fn with_capacity(n: usize) -> Self {
        TraceLog {
            events: Vec::with_capacity(n),
        }
    }

    /// Reserve room for at least `additional` more events.
    pub fn reserve(&mut self, additional: usize) {
        self.events.reserve(additional);
    }

    /// Drop all records, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Append an event.
    ///
    /// # Panics
    /// In debug builds, panics if `at` precedes the last recorded event —
    /// the simulator must emit in order, and analysis code relies on it.
    pub fn push(&mut self, at: Instant, kind: EventKind) {
        debug_assert!(
            self.events.last().is_none_or(|last| last.at <= at),
            "events must be appended in time order ({:?} after {:?})",
            at,
            self.events.last().map(|e| e.at)
        );
        self.events.push(TraceEvent::new(at, kind));
    }

    /// Append a pre-built record (used by the log-file parser).
    pub fn push_event(&mut self, e: TraceEvent) {
        self.push(e.at, e.kind);
    }

    /// All events in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Time of the last event (the run horizon).
    pub fn end(&self) -> Option<Instant> {
        self.events.last().map(|e| e.at)
    }

    /// Events concerning one task.
    pub fn for_task(&self, task: TaskId) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(move |e| e.kind.task() == Some(task))
    }

    /// Events inside a half-open window `[from, to)`.
    pub fn window(&self, from: Instant, to: Instant) -> impl Iterator<Item = &TraceEvent> {
        self.events
            .iter()
            .filter(move |e| e.at >= from && e.at < to)
    }

    /// First event matching a predicate.
    pub fn find(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> Option<&TraceEvent> {
        self.events.iter().find(|e| pred(e))
    }

    /// Count of events matching a predicate.
    pub fn count(&self, mut pred: impl FnMut(&TraceEvent) -> bool) -> usize {
        self.events.iter().filter(|e| pred(e)).count()
    }

    /// Instant a given job of a task ended, if it did.
    pub fn job_end(&self, task: TaskId, job: JobIndex) -> Option<Instant> {
        self.find(|e| e.kind == EventKind::JobEnd { task, job })
            .map(|e| e.at)
    }

    /// Instant a given job was released, if recorded.
    pub fn job_release(&self, task: TaskId, job: JobIndex) -> Option<Instant> {
        self.find(|e| e.kind == EventKind::JobRelease { task, job })
            .map(|e| e.at)
    }

    /// Deadline-miss events for one task.
    pub fn misses(&self, task: TaskId) -> Vec<JobIndex> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::DeadlineMiss { task: t, job } if t == task => Some(job),
                _ => None,
            })
            .collect()
    }

    /// `true` iff any deadline miss was recorded at all.
    pub fn any_miss(&self) -> bool {
        self.events
            .iter()
            .any(|e| matches!(e.kind, EventKind::DeadlineMiss { .. }))
    }

    /// Stop events `(task, job, at)` in order.
    pub fn stops(&self) -> Vec<(TaskId, JobIndex, Instant)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::TaskStopped { task, job } => Some((task, job, e.at)),
                _ => None,
            })
            .collect()
    }

    /// Fault-detection events `(task, job, at)` in order.
    pub fn faults(&self) -> Vec<(TaskId, JobIndex, Instant)> {
        self.events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::FaultDetected { task, job } => Some((task, job, e.at)),
                _ => None,
            })
            .collect()
    }

    /// A stable content hash of the log — used by determinism tests and
    /// the campaign engine's per-job digests: same seed ⇒ same hash.
    ///
    /// The definition is byte-serial FNV-1a over, per event in order:
    /// `at` in nanoseconds as 8 little-endian bytes, the UTF-8 bytes of
    /// [`EventKind::tag`], the task id and the job index as 8 bytes each
    /// (`u64::MAX` when the variant has none), then the payload outside
    /// `(task, job)`: `by` of a preemption, `amount` in nanoseconds of a
    /// grant, 8 bytes each.
    ///
    /// It is computed with [`Fnv1a`]'s two exact fast paths, for about a
    /// third of the serial steps: each 8-byte field takes a full step
    /// only per significant low byte and one multiply for its high zero
    /// bytes (xor with 0 is the identity), and each tag takes one
    /// multiply, one table load and one add (the low 8 bits of the state
    /// alone decide what xoring a fixed string in adds). The result is
    /// bit-identical to the byte-serial definition. Allocation-free: the
    /// campaign hot path hashes millions of events.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        for e in &self.events {
            hash_event(&mut h, e);
        }
        h.finish()
    }
}

/// Every tag of [`TAGS`], folded for [`Fnv1a::fixed`].
static TAG_HASHES: [Fnv1aStr; TAGS.len()] = {
    let mut folded = [Fnv1aStr::new(""); TAGS.len()];
    let mut i = 0;
    while i < TAGS.len() {
        folded[i] = Fnv1aStr::new(TAGS[i]);
        i += 1;
    }
    folded
};

/// Feed one event to `h` as [`TraceLog::content_hash`] defines it.
pub(crate) fn hash_event(h: &mut Fnv1a, e: &TraceEvent) {
    h.word(e.at.as_nanos() as u64);
    h.fixed(&TAG_HASHES[e.kind.tag_index()]);
    h.word(e.kind.task().map_or(u64::MAX, |t| u64::from(t.0)));
    h.word(e.kind.job().unwrap_or(u64::MAX));
    // Payload fields outside (task, job) — extend this match when a new
    // variant carries extra data.
    match e.kind {
        EventKind::Preempted { by, .. } => h.word(u64::from(by.0)),
        EventKind::AllowanceGranted { amount, .. } => h.word(amount.as_nanos() as u64),
        _ => {}
    }
}

impl FromIterator<TraceEvent> for TraceLog {
    fn from_iter<I: IntoIterator<Item = TraceEvent>>(iter: I) -> Self {
        let mut log = TraceLog::new();
        for e in iter {
            log.push_event(e);
        }
        log
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::time::Duration;

    fn t(ms: i64) -> Instant {
        Instant::from_millis(ms)
    }

    fn sample() -> TraceLog {
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
            t(30),
            EventKind::DetectorRelease {
                task: TaskId(1),
                job: 0,
            },
        );
        log.push(
            t(120),
            EventKind::DeadlineMiss {
                task: TaskId(3),
                job: 0,
            },
        );
        log.push(t(150), EventKind::SimEnd);
        log
    }

    #[test]
    fn push_and_query() {
        let log = sample();
        assert_eq!(log.len(), 6);
        assert_eq!(log.end(), Some(t(150)));
        assert_eq!(log.for_task(TaskId(1)).count(), 4);
        assert_eq!(log.window(t(0), t(30)).count(), 3);
        assert_eq!(log.job_end(TaskId(1), 0), Some(t(29)));
        assert_eq!(log.job_release(TaskId(1), 0), Some(t(0)));
        assert_eq!(log.misses(TaskId(3)), vec![0]);
        assert!(log.any_miss());
        assert!(log.misses(TaskId(1)).is_empty());
    }

    #[test]
    #[should_panic(expected = "time order")]
    #[cfg(debug_assertions)]
    fn out_of_order_push_panics() {
        let mut log = TraceLog::new();
        log.push(t(10), EventKind::CpuIdle);
        log.push(t(5), EventKind::CpuIdle);
    }

    #[test]
    fn equal_timestamps_allowed() {
        let mut log = TraceLog::new();
        log.push(
            t(10),
            EventKind::JobEnd {
                task: TaskId(1),
                job: 0,
            },
        );
        log.push(
            t(10),
            EventKind::JobStart {
                task: TaskId(2),
                job: 0,
            },
        );
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn stops_and_faults() {
        let mut log = sample();
        log.push(
            t(160),
            EventKind::FaultDetected {
                task: TaskId(1),
                job: 5,
            },
        );
        log.push(
            t(160),
            EventKind::AllowanceGranted {
                task: TaskId(1),
                job: 5,
                amount: Duration::millis(11),
            },
        );
        log.push(
            t(171),
            EventKind::TaskStopped {
                task: TaskId(1),
                job: 5,
            },
        );
        assert_eq!(log.faults(), vec![(TaskId(1), 5, t(160))]);
        assert_eq!(log.stops(), vec![(TaskId(1), 5, t(171))]);
    }

    #[test]
    fn hash_is_content_sensitive() {
        let a = sample();
        let b = sample();
        assert_eq!(a.content_hash(), b.content_hash());
        let mut c = sample();
        c.push(t(200), EventKind::CpuIdle);
        assert_ne!(a.content_hash(), c.content_hash());
    }

    #[test]
    fn from_iterator() {
        let log: TraceLog = sample().events().iter().copied().collect();
        assert_eq!(log, sample());
    }

    #[test]
    fn each_tag_table_equals_the_byte_fold_for_every_low_byte() {
        // One byte from the offset basis reaches every low byte of the
        // state: xor with it and the multiply by the odd multiplier are
        // both bijections of the low 8 bits.
        let mut lows = std::collections::BTreeSet::new();
        for (tag, folded) in TAGS.iter().zip(&TAG_HASHES) {
            for b in 0..=255u8 {
                let mut fast = Fnv1a::new();
                fast.bytes(&[b]);
                lows.insert(fast.finish() & 0xff);
                let mut serial = fast;
                fast.fixed(folded);
                serial.bytes(tag.as_bytes());
                assert_eq!(fast, serial, "{tag} after byte {b:#x}");
            }
        }
        assert_eq!(lows.len(), 256);
    }
}
