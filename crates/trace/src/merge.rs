//! Merging per-core traces of a partitioned multiprocessor run.
//!
//! Partitioned scheduling keeps the per-core engines fully independent
//! (no migration), so a multicore run is a *set* of uniprocessor
//! [`TraceLog`]s sharing one virtual clock. This module recombines them
//! into a single chronological, **core-tagged** event stream: a stable
//! k-way merge ordered by `(instant, core index, per-core order)` — the
//! same inputs always merge to the same stream, so the merged view is as
//! deterministic as the per-core traces it came from.

use crate::event::TraceEvent;
use crate::log::TraceLog;
use rtft_core::fnv::Fnv1a;
use std::fmt;

/// One event of a merged multicore trace, tagged with the core that
/// produced it.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct CoreEvent {
    /// Index of the core whose engine recorded the event.
    pub core: usize,
    /// The event itself.
    pub event: TraceEvent,
}

impl AsRef<TraceEvent> for CoreEvent {
    fn as_ref(&self) -> &TraceEvent {
        &self.event
    }
}

impl fmt::Display for CoreEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{} {}", self.core, self.event)
    }
}

/// Merge per-core traces into one chronological core-tagged stream.
/// Each input is an explicit `(core id, log)` pair, so partitions with
/// interior empty cores tag their events with the *actual* core index,
/// not a positional one.
///
/// Ties on the instant are broken by input order (pass cores
/// ascending), then by each log's own order (which [`TraceLog::push`]
/// already guarantees is chronological): the merge is a pure,
/// scheduling-independent function of its inputs.
pub fn merge_core_traces(logs: &[(usize, &TraceLog)]) -> Vec<CoreEvent> {
    let total: usize = logs.iter().map(|(_, l)| l.len()).sum();
    let mut merged = Vec::with_capacity(total);
    let mut heads = vec![0usize; logs.len()];
    loop {
        // Smallest (instant, input position) among the remaining heads.
        let mut best: Option<(usize, usize, &TraceEvent)> = None;
        for (slot, (core, log)) in logs.iter().enumerate() {
            if let Some(e) = log.events().get(heads[slot]) {
                let earlier = match best {
                    None => true,
                    Some((_, _, b)) => e.at < b.at,
                };
                if earlier {
                    best = Some((slot, *core, e));
                }
            }
        }
        let Some((slot, core, event)) = best else {
            break;
        };
        merged.push(CoreEvent {
            core,
            event: *event,
        });
        heads[slot] += 1;
    }
    merged
}

/// A stable content hash of a multicore run: an FNV-1a fold over the
/// input count and, per input in order, the core id and the log's
/// [`TraceLog::content_hash`]. Core assignment is part of the hash;
/// same `(core, trace)` pairs ⇒ same hash, on any worker count.
///
/// The single-log hash intentionally differs from
/// [`TraceLog::content_hash`] — a 1-core *partitioned* digest and a bare
/// uniprocessor digest live in different domains (only the latter is
/// pinned by the golden traces).
pub fn merged_content_hash(logs: &[(usize, &TraceLog)]) -> u64 {
    fold_core_hashes(logs.iter().map(|(core, log)| (*core, log.content_hash())))
}

/// The fold behind [`merged_content_hash`], over `(core id, per-core
/// content hash)` pairs in input order. A caller that already hashed
/// each core's log folds those hashes here instead of hashing every
/// event a second time.
pub fn fold_core_hashes(hashes: impl ExactSizeIterator<Item = (usize, u64)>) -> u64 {
    let mut h = Fnv1a::new();
    h.word(hashes.len() as u64);
    for (core, hash) in hashes {
        h.word(core as u64);
        h.word(hash);
    }
    h.finish()
}

/// Render a merged stream as text lines (`c<core> <event>` per line) —
/// the multicore counterpart of the flat trace-file format, used by the
/// CLI's `--save-trace` on partitioned runs.
pub fn to_text(events: &[CoreEvent]) -> String {
    let mut out = String::new();
    for e in events {
        out.push_str(&e.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use rtft_core::task::TaskId;
    use rtft_core::time::Instant;

    fn t(ms: i64) -> Instant {
        Instant::from_millis(ms)
    }

    fn log(entries: &[(i64, u32)]) -> TraceLog {
        let mut log = TraceLog::new();
        for &(at, task) in entries {
            log.push(
                t(at),
                EventKind::JobRelease {
                    task: TaskId(task),
                    job: 0,
                },
            );
        }
        log
    }

    #[test]
    fn merge_orders_by_time_then_core() {
        let a = log(&[(0, 1), (10, 1)]);
        let b = log(&[(0, 2), (5, 2)]);
        let merged = merge_core_traces(&[(0, &a), (1, &b)]);
        let shape: Vec<(usize, i64)> = merged
            .iter()
            .map(|e| (e.core, e.event.at.as_millis()))
            .collect();
        assert_eq!(shape, vec![(0, 0), (1, 0), (1, 5), (0, 10)]);
    }

    #[test]
    fn merge_is_stable_within_a_core() {
        let a = log(&[(3, 1), (3, 2), (3, 3)]);
        let merged = merge_core_traces(&[(0, &a)]);
        let tasks: Vec<u32> = merged
            .iter()
            .map(|e| e.event.kind.task().unwrap().0)
            .collect();
        assert_eq!(tasks, vec![1, 2, 3], "same-instant events keep log order");
    }

    #[test]
    fn merge_keeps_actual_core_ids_across_gaps() {
        // Occupied cores {0, 2}: the tags must say c2, not c1.
        let a = log(&[(0, 1)]);
        let b = log(&[(5, 2)]);
        let merged = merge_core_traces(&[(0, &a), (2, &b)]);
        let cores: Vec<usize> = merged.iter().map(|e| e.core).collect();
        assert_eq!(cores, vec![0, 2]);
    }

    #[test]
    fn merged_hash_is_core_sensitive() {
        let a = log(&[(0, 1)]);
        let b = log(&[(0, 2)]);
        let ab = merged_content_hash(&[(0, &a), (1, &b)]);
        let ba = merged_content_hash(&[(0, &b), (1, &a)]);
        assert_ne!(ab, ba, "core assignment must be part of the hash");
        assert_eq!(ab, merged_content_hash(&[(0, &a), (1, &b)]));
        // Occupancy {0,1} and {0,2} are distinct placements.
        assert_ne!(ab, merged_content_hash(&[(0, &a), (2, &b)]));
        // And it differs from the flat uniprocessor hash domain.
        assert_ne!(merged_content_hash(&[(0, &a)]), a.content_hash());
    }

    /// The merged hash as it was computed before the fold was split
    /// out: one FNV-1a pass straight over the logs.
    fn reference_merged_hash(logs: &[(usize, &TraceLog)]) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= u64::from(*b);
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        eat(&(logs.len() as u64).to_le_bytes());
        for (core, log) in logs {
            eat(&(*core as u64).to_le_bytes());
            eat(&log.content_hash().to_le_bytes());
        }
        h
    }

    #[test]
    fn folding_per_core_hashes_equals_the_merged_hash() {
        let a = log(&[(0, 1), (4, 1)]);
        let b = log(&[(2, 2)]);
        let empty = TraceLog::new();
        // Interior and trailing empty cores, and a trailing platform log
        // at index `cores` as the global runner produces.
        let platform = log(&[(0, 9), (1, 9)]);
        let shapes: [Vec<(usize, &TraceLog)>; 5] = [
            vec![],
            vec![(0, &empty)],
            vec![(0, &a), (1, &empty), (2, &b)],
            vec![(0, &a), (1, &b), (2, &empty)],
            vec![(0, &empty), (1, &a), (2, &b), (3, &platform)],
        ];
        for logs in &shapes {
            let hashes: Vec<(usize, u64)> =
                logs.iter().map(|(c, l)| (*c, l.content_hash())).collect();
            let folded = fold_core_hashes(hashes.iter().copied());
            assert_eq!(folded, merged_content_hash(logs), "{} inputs", logs.len());
            assert_eq!(folded, reference_merged_hash(logs), "{} inputs", logs.len());
        }
    }

    #[test]
    fn text_rendering_tags_cores() {
        let a = log(&[(0, 1)]);
        let b = log(&[(1, 2)]);
        let text = to_text(&merge_core_traces(&[(0, &a), (1, &b)]));
        let mut lines = text.lines();
        assert!(lines.next().unwrap().starts_with("c0 "));
        assert!(lines.next().unwrap().starts_with("c1 "));
    }

    #[test]
    fn empty_inputs_merge_to_nothing() {
        assert!(merge_core_traces(&[]).is_empty());
        let empty = TraceLog::new();
        assert!(merge_core_traces(&[(0, &empty), (1, &empty)]).is_empty());
    }
}
