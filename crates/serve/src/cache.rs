//! Keyed LRU of warm [`Workbench`] sessions.
//!
//! Sessions are keyed by a content hash of the [`SystemSpec`] they
//! analyze, so two requests carrying byte-equivalent systems share one
//! warm workbench — and its memoized response-time/allowance state —
//! while any edit to the spec gets a fresh session. Each session is
//! wrapped in its own mutex so distinct specs analyze in parallel
//! across the accept pool; the cache's own lock is held only for the
//! brief lookup/insert.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use rtft_core::query::SystemSpec;
use rtft_part::workbench::Workbench;

/// Content hash of a spec: FNV-1a over the system name plus the
/// canonical `render_lines` serialization. The name is deliberately
/// part of the key (it is part of the rendering) so benchmarks and
/// tests can force cold misses by renaming an otherwise identical
/// system. Delegates to [`rtft_core::query::spec_hash`], the same hash
/// trace capture headers pin their spec with.
pub fn spec_key(spec: &SystemSpec) -> u64 {
    rtft_core::query::spec_hash(spec)
}

/// Monotonic counters describing cache behaviour, snapshotted for
/// `/stats`.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct CacheCounters {
    /// Warm sessions currently held.
    pub live: usize,
    /// Configured capacity.
    pub capacity: usize,
    /// Lookups answered by an existing warm session.
    pub hits: u64,
    /// Lookups that had to build a fresh session.
    pub misses: u64,
    /// Sessions discarded to make room.
    pub evictions: u64,
}

struct Entry {
    bench: Arc<Mutex<Workbench>>,
    last_used: u64,
}

struct Inner {
    entries: HashMap<u64, Entry>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// A bounded, least-recently-used pool of warm analysis sessions.
pub struct SessionCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl SessionCache {
    /// A cache holding at most `capacity` warm sessions (minimum 1).
    pub fn new(capacity: usize) -> Self {
        SessionCache {
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                tick: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
            capacity: capacity.max(1),
        }
    }

    /// Fetch the warm session for `spec`, building one on a miss.
    /// Returns the session and whether it was already warm. Lookup and
    /// insert happen under one lock acquisition, so hit/miss counts
    /// are exact even under concurrent identical requests — two racing
    /// clients of the same spec yield one miss and one hit, never two
    /// misses.
    pub fn get_or_insert(&self, spec: &SystemSpec) -> (Arc<Mutex<Workbench>>, bool) {
        let key = spec_key(spec);
        let mut inner = self.inner.lock().expect("session cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        // A session whose lock is poisoned (a handler panicked while
        // holding it) may hold half-updated memo state: evict it, and
        // answer this lookup as a miss.
        if inner
            .entries
            .get(&key)
            .is_some_and(|e| e.bench.is_poisoned())
        {
            inner.entries.remove(&key);
            inner.evictions += 1;
        }
        if let Some(entry) = inner.entries.get_mut(&key) {
            entry.last_used = tick;
            let bench = Arc::clone(&entry.bench);
            inner.hits += 1;
            return (bench, true);
        }
        inner.misses += 1;
        if inner.entries.len() >= self.capacity {
            // O(n) scan is fine: capacity is small (tens of sessions).
            if let Some(oldest) = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                inner.entries.remove(&oldest);
                inner.evictions += 1;
            }
        }
        let bench = Arc::new(Mutex::new(Workbench::new(spec.clone())));
        inner.entries.insert(
            key,
            Entry {
                bench: Arc::clone(&bench),
                last_used: tick,
            },
        );
        (bench, false)
    }

    /// Snapshot the counters for `/stats`.
    pub fn counters(&self) -> CacheCounters {
        let inner = self.inner.lock().expect("session cache poisoned");
        CacheCounters {
            live: inner.entries.len(),
            capacity: self.capacity,
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::query::parse_batch;

    fn spec(name: &str, cost: i64) -> SystemSpec {
        let text = format!(
            "system {name}\ntask a 1 100 100 {cost}\ntask b 2 200 200 20\nquery feasibility\n"
        );
        parse_batch(&text).expect("test spec parses").0
    }

    #[test]
    fn key_tracks_content_not_identity() {
        let a = spec("s", 10);
        assert_eq!(spec_key(&a), spec_key(&spec("s", 10)));
        assert_ne!(spec_key(&a), spec_key(&spec("s", 11)));
        assert_ne!(spec_key(&a), spec_key(&spec("renamed", 10)));
    }

    #[test]
    fn key_covers_the_placement_token() {
        // Two multicore specs differing only in placement must never
        // collide: a warm partitioned Workbench answers from per-core
        // sessions, a global one from the migrating analysis.
        let multicore = |placement: &str| {
            let text = format!(
                "system s\ntask a 1 100 100 10\ntask b 2 200 200 20\ncores 2\n{placement}query feasibility\n"
            );
            parse_batch(&text).expect("test spec parses").0
        };
        let partitioned = multicore("");
        let explicit = multicore("placement partitioned\n");
        let global = multicore("placement global\n");
        assert_eq!(
            spec_key(&partitioned),
            spec_key(&explicit),
            "the default placement renders canonically"
        );
        assert_ne!(spec_key(&partitioned), spec_key(&global));
    }

    #[test]
    fn hits_and_misses_are_counted_exactly() {
        let cache = SessionCache::new(4);
        let (_, warm) = cache.get_or_insert(&spec("s", 10));
        assert!(!warm);
        let (_, warm) = cache.get_or_insert(&spec("s", 10));
        assert!(warm);
        let c = cache.counters();
        assert_eq!((c.live, c.hits, c.misses, c.evictions), (1, 1, 1, 0));
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = SessionCache::new(2);
        cache.get_or_insert(&spec("a", 10));
        cache.get_or_insert(&spec("b", 10));
        cache.get_or_insert(&spec("a", 10)); // refresh a: b is now LRU
        cache.get_or_insert(&spec("c", 10)); // evicts b
        let c = cache.counters();
        assert_eq!((c.live, c.evictions), (2, 1));
        assert!(cache.get_or_insert(&spec("a", 10)).1, "a stayed warm");
        assert!(!cache.get_or_insert(&spec("b", 10)).1, "b was evicted");
    }

    #[test]
    fn a_poisoned_session_is_evicted_not_reused() {
        let cache = SessionCache::new(4);
        let (first, _) = cache.get_or_insert(&spec("s", 10));
        let held = Arc::clone(&first);
        let panicked = std::thread::spawn(move || {
            let _guard = held.lock().unwrap();
            panic!("handler panicked while holding the session");
        })
        .join();
        assert!(panicked.is_err() && first.is_poisoned());
        let (second, warm) = cache.get_or_insert(&spec("s", 10));
        assert!(!warm, "a poisoned session is a miss");
        assert!(!Arc::ptr_eq(&first, &second) && !second.is_poisoned());
        let c = cache.counters();
        assert_eq!((c.live, c.hits, c.misses, c.evictions), (1, 0, 2, 1));
        assert!(
            cache.get_or_insert(&spec("s", 10)).1,
            "the fresh one is warm"
        );
    }

    #[test]
    fn same_spec_shares_one_session() {
        let cache = SessionCache::new(4);
        let (first, _) = cache.get_or_insert(&spec("s", 10));
        let (second, _) = cache.get_or_insert(&spec("s", 10));
        assert!(Arc::ptr_eq(&first, &second));
    }
}
