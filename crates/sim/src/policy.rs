//! Pluggable dispatch rules — the engine's scheduling policy layer.
//!
//! The engine used to hard-code fixed-priority preemptive dispatch as a
//! linear scan over every task's job queue on *every* event. This
//! module extracts that decision behind [`SchedPolicy`]: the policy
//! owns an index-based ready structure, the engine notifies it whenever
//! a task's job queue changes ([`SchedPolicy::update`]), and asks it
//! who should run ([`SchedPolicy::pick`]) and whether the winner takes
//! the CPU from the incumbent ([`SchedPolicy::preempts`]). Updates are
//! O(1)–O(log n) instead of the O(n) rescan, and the dispatch rule
//! becomes a first-class scenario axis (see
//! [`rtft_core::policy::PolicyKind`]).
//!
//! Three rules are provided:
//!
//! * [`FixedPriority`] — the paper's scheduler, bit-for-bit identical
//!   to the historical scan: highest priority wins, ties broken by
//!   rank (ascending task id), preemption only by *strictly* higher
//!   priority;
//! * [`Edf`] — earliest absolute deadline of the head job wins, ties
//!   broken by task id, preemption only by a *strictly* earlier
//!   deadline (FIFO among equal deadlines);
//! * [`NonPreemptiveFp`] — fixed-priority dispatch, but a dispatched
//!   job always runs to completion.

use rtft_core::task::TaskSet;
use rtft_core::time::Instant;
use std::collections::BTreeSet;

pub use rtft_core::policy::PolicyKind;

/// A dispatch rule. The engine keeps the policy's view consistent by
/// calling [`SchedPolicy::update`] after every change to a task's job
/// queue (release, retirement, stop); in return the policy answers the
/// two scheduling questions the engine has.
pub trait SchedPolicy: std::fmt::Debug + Send {
    /// Task `rank`'s queue changed: it is now ready (with its head job
    /// released at `head_release`) or not ready. Must be idempotent.
    fn update(&mut self, rank: usize, ready: bool, head_release: Option<Instant>);

    /// The rank that should hold the CPU now (the running task is kept
    /// in the ready structure, so it is a valid answer).
    fn pick(&self) -> Option<usize>;

    /// `true` iff `challenger` takes the CPU from the running
    /// `incumbent`. Both are ready; `challenger != incumbent`.
    fn preempts(&self, incumbent: usize, challenger: usize) -> bool;
}

/// Build the policy implementation for `kind` over `set`.
pub fn build_policy(kind: PolicyKind, set: &TaskSet) -> Box<dyn SchedPolicy> {
    Box::new(PolicyImpl::build(kind, set))
}

/// Closed-world policy dispatch for the engine's hot path: the three
/// provided rules behind a `match` instead of a vtable, so `update`,
/// `pick` and `preempts` (called once or more per event) inline into
/// the engine loop. [`SchedPolicy`] remains the open extension trait;
/// this enum is what the engine actually stores.
#[derive(Clone, Debug)]
pub enum PolicyImpl {
    /// Preemptive fixed priority (the paper's platform).
    FixedPriority(FixedPriority),
    /// Earliest deadline first.
    Edf(Edf),
    /// Non-preemptive fixed priority.
    NonPreemptiveFp(NonPreemptiveFp),
}

impl PolicyImpl {
    /// Build the implementation for `kind` over `set`.
    pub fn build(kind: PolicyKind, set: &TaskSet) -> Self {
        match kind {
            PolicyKind::FixedPriority => PolicyImpl::FixedPriority(FixedPriority::new(set)),
            PolicyKind::Edf => PolicyImpl::Edf(Edf::new(set)),
            PolicyKind::NonPreemptiveFp => PolicyImpl::NonPreemptiveFp(NonPreemptiveFp::new(set)),
        }
    }

    /// The best `k` ready ranks in dispatch order (best first) — the
    /// engine's top-`m` placement on `m > 1` cores. At `k = 1` this is
    /// `pick`. Ranks are priority-sorted, so for the fixed-priority rules the
    /// ready mask's ascending scan *is* dispatch order (priority
    /// descending, ties by task id); EDF walks its deadline-ordered set.
    pub(crate) fn top(&self, k: usize, out: &mut Vec<usize>) {
        out.clear();
        match self {
            PolicyImpl::FixedPriority(p) => p.ready.top(k, out),
            PolicyImpl::NonPreemptiveFp(p) => p.ready.top(k, out),
            PolicyImpl::Edf(p) => {
                out.extend(p.ready.iter().take(k).map(|&(_, _, rank)| rank));
            }
        }
    }

    /// `true` iff ready rank `a` strictly precedes ready rank `b` in
    /// dispatch order — the total order underlying [`Self::top`],
    /// including the deterministic tie-breaks (`preempts` is the
    /// *strict* sub-relation of this order that justifies taking a
    /// core away).
    pub(crate) fn ahead(&self, a: usize, b: usize) -> bool {
        match self {
            // Ranks are priority-sorted with a stable id tie-break.
            PolicyImpl::FixedPriority(_) | PolicyImpl::NonPreemptiveFp(_) => a < b,
            PolicyImpl::Edf(p) => match (p.key[a], p.key[b]) {
                (Some(ka), Some(kb)) => ka < kb || (ka == kb && a < b),
                _ => a < b,
            },
        }
    }
}

impl SchedPolicy for PolicyImpl {
    #[inline]
    fn update(&mut self, rank: usize, ready: bool, head_release: Option<Instant>) {
        match self {
            PolicyImpl::FixedPriority(p) => p.update(rank, ready, head_release),
            PolicyImpl::Edf(p) => p.update(rank, ready, head_release),
            PolicyImpl::NonPreemptiveFp(p) => p.update(rank, ready, head_release),
        }
    }

    #[inline]
    fn pick(&self) -> Option<usize> {
        match self {
            PolicyImpl::FixedPriority(p) => p.pick(),
            PolicyImpl::Edf(p) => p.pick(),
            PolicyImpl::NonPreemptiveFp(p) => p.pick(),
        }
    }

    #[inline]
    fn preempts(&self, incumbent: usize, challenger: usize) -> bool {
        match self {
            PolicyImpl::FixedPriority(p) => p.preempts(incumbent, challenger),
            PolicyImpl::Edf(p) => p.preempts(incumbent, challenger),
            PolicyImpl::NonPreemptiveFp(p) => p.preempts(incumbent, challenger),
        }
    }
}

/// A dense per-rank ready set with O(1) toggles and first-set-bit
/// dispatch — ranks are already priority-sorted, so "lowest ready
/// rank" is exactly the fixed-priority winner.
#[derive(Clone, Debug, Default)]
struct ReadyMask {
    words: Vec<u64>,
}

impl ReadyMask {
    fn new(n: usize) -> Self {
        ReadyMask {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn set(&mut self, rank: usize, on: bool) {
        let bit = 1u64 << (rank % 64);
        let word = &mut self.words[rank / 64];
        if on {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    fn first(&self) -> Option<usize> {
        self.words
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * 64 + w.trailing_zeros() as usize)
    }

    /// Append the first `k` set ranks (ascending) to `out`.
    fn top(&self, k: usize, out: &mut Vec<usize>) {
        for (i, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                if out.len() == k {
                    return;
                }
                out.push(i * 64 + w.trailing_zeros() as usize);
                w &= w - 1;
            }
        }
    }
}

/// The paper's scheduler: preemptive fixed priority, FIFO among equal
/// priorities.
#[derive(Clone, Debug)]
pub struct FixedPriority {
    priority: Vec<i32>,
    ready: ReadyMask,
}

impl FixedPriority {
    /// Policy over `set` (priorities are read once at construction).
    pub fn new(set: &TaskSet) -> Self {
        FixedPriority {
            priority: set.tasks().iter().map(|t| t.priority.0).collect(),
            ready: ReadyMask::new(set.len()),
        }
    }
}

impl SchedPolicy for FixedPriority {
    fn update(&mut self, rank: usize, ready: bool, _head_release: Option<Instant>) {
        self.ready.set(rank, ready);
    }

    fn pick(&self) -> Option<usize> {
        self.ready.first()
    }

    fn preempts(&self, incumbent: usize, challenger: usize) -> bool {
        self.priority[challenger] > self.priority[incumbent]
    }
}

/// Fixed-priority dispatch without preemption: a dispatched job runs
/// to completion (or to its stop point).
#[derive(Clone, Debug)]
pub struct NonPreemptiveFp {
    ready: ReadyMask,
}

impl NonPreemptiveFp {
    /// Policy over `set`.
    pub fn new(set: &TaskSet) -> Self {
        NonPreemptiveFp {
            ready: ReadyMask::new(set.len()),
        }
    }
}

impl SchedPolicy for NonPreemptiveFp {
    fn update(&mut self, rank: usize, ready: bool, _head_release: Option<Instant>) {
        self.ready.set(rank, ready);
    }

    fn pick(&self) -> Option<usize> {
        self.ready.first()
    }

    fn preempts(&self, _incumbent: usize, _challenger: usize) -> bool {
        false
    }
}

/// Earliest-deadline-first: the head job with the earliest absolute
/// deadline (`release + D_i`) runs; ties broken by task id; equal
/// deadlines never preempt each other. Within a task jobs stay FIFO
/// (their deadlines are monotone in the release order), so the head
/// job is always the task's earliest.
#[derive(Clone, Debug)]
pub struct Edf {
    deadline: Vec<rtft_core::time::Duration>,
    id: Vec<u32>,
    /// The key currently in `ready` for each rank, if any.
    key: Vec<Option<(i64, u32)>>,
    /// Ready ranks ordered by (absolute deadline, task id).
    ready: BTreeSet<(i64, u32, usize)>,
}

impl Edf {
    /// Policy over `set` (deadlines and ids are read once).
    pub fn new(set: &TaskSet) -> Self {
        Edf {
            deadline: set.tasks().iter().map(|t| t.deadline).collect(),
            id: set.tasks().iter().map(|t| t.id.0).collect(),
            key: vec![None; set.len()],
            ready: BTreeSet::new(),
        }
    }
}

impl SchedPolicy for Edf {
    fn update(&mut self, rank: usize, ready: bool, head_release: Option<Instant>) {
        if let Some((d, id)) = self.key[rank].take() {
            self.ready.remove(&(d, id, rank));
        }
        if ready {
            let release = head_release.expect("a ready task has a head job");
            let d = (release + self.deadline[rank]).as_nanos();
            let id = self.id[rank];
            self.key[rank] = Some((d, id));
            self.ready.insert((d, id, rank));
        }
    }

    fn pick(&self) -> Option<usize> {
        self.ready.first().map(|&(_, _, rank)| rank)
    }

    fn preempts(&self, incumbent: usize, challenger: usize) -> bool {
        match (self.key[incumbent], self.key[challenger]) {
            (Some((di, _)), Some((dc, _))) => dc < di,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::task::TaskBuilder;
    use rtft_core::time::Duration;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    fn set3() -> TaskSet {
        TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(200), ms(29))
                .deadline(ms(70))
                .build(),
            TaskBuilder::new(2, 18, ms(250), ms(29))
                .deadline(ms(120))
                .build(),
            TaskBuilder::new(3, 16, ms(1500), ms(29))
                .deadline(ms(120))
                .build(),
        ])
    }

    #[test]
    fn ready_mask_toggles_and_scans_across_words() {
        let mut mask = ReadyMask::new(130);
        assert_eq!(mask.first(), None);
        mask.set(129, true);
        assert_eq!(mask.first(), Some(129));
        mask.set(5, true);
        assert_eq!(mask.first(), Some(5));
        mask.set(5, false);
        mask.set(5, false); // idempotent
        assert_eq!(mask.first(), Some(129));
    }

    #[test]
    fn fixed_priority_picks_lowest_rank_and_preempts_strictly() {
        let set = set3();
        let mut fp = FixedPriority::new(&set);
        fp.update(2, true, Some(Instant::EPOCH));
        fp.update(1, true, Some(Instant::EPOCH));
        assert_eq!(fp.pick(), Some(1));
        assert!(fp.preempts(2, 1));
        assert!(!fp.preempts(1, 2));
        fp.update(1, false, None);
        assert_eq!(fp.pick(), Some(2));
    }

    #[test]
    fn edf_orders_by_absolute_deadline_then_id() {
        let set = set3();
        let mut edf = Edf::new(&set);
        // τ1 released at 100 (deadline 170); τ3 released at 0 (deadline
        // 120): τ3 wins despite its lower priority.
        edf.update(0, true, Some(Instant::from_millis(100)));
        edf.update(2, true, Some(Instant::EPOCH));
        assert_eq!(edf.pick(), Some(2));
        assert!(edf.preempts(0, 2));
        assert!(!edf.preempts(2, 0));
        // τ2 released at 0 shares the 120 deadline: tie broken by id,
        // and neither preempts the other.
        edf.update(1, true, Some(Instant::EPOCH));
        assert_eq!(edf.pick(), Some(1));
        assert!(!edf.preempts(2, 1));
        assert!(!edf.preempts(1, 2));
        // Head job change moves the key.
        edf.update(2, true, Some(Instant::from_millis(1500)));
        assert_eq!(edf.pick(), Some(1));
    }

    #[test]
    fn non_preemptive_never_preempts() {
        let set = set3();
        let mut np = NonPreemptiveFp::new(&set);
        np.update(2, true, Some(Instant::EPOCH));
        np.update(0, true, Some(Instant::EPOCH));
        assert_eq!(np.pick(), Some(0));
        assert!(!np.preempts(2, 0));
    }

    #[test]
    fn build_policy_covers_every_kind() {
        let set = set3();
        for kind in PolicyKind::ALL {
            let mut p = build_policy(kind, &set);
            assert_eq!(p.pick(), None);
            p.update(0, true, Some(Instant::EPOCH));
            assert_eq!(p.pick(), Some(0));
        }
    }
}
