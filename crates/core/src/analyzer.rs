//! The incremental analysis session — the single entry point unifying
//! everything `rtft-core` can compute.
//!
//! The paper's construction derives fault detection (WCRT thresholds) and
//! fault allowance (equitable / system slack) entirely from numbers the
//! admission analysis already produced. Historically this crate exposed
//! those computations as disconnected free functions, each rebuilding a
//! [`ResponseAnalysis`](crate::response::ResponseAnalysis) and re-running
//! the full fixed point from scratch — including *inside* the binary
//! searches of [`crate::allowance`] and [`crate::sensitivity`], and on
//! every epoch of an online system.
//!
//! [`Analyzer`] replaces that: one session that
//!
//! * composes the previously siloed options — release jitter
//!   ([`JitterModel`]), priority-ceiling blocking ([`ResourceModel`]),
//!   aperiodic polling servers ([`ServerParams`]), slack policy
//!   ([`SlackPolicy`]) — behind one [`AnalyzerBuilder`];
//! * **memoizes** per-task WCRTs, busy-period solutions and the load
//!   test, so repeated queries are free;
//! * **incrementally revalidates** when a single task's parameters are
//!   perturbed: only tasks whose level-i workload actually changed are
//!   recomputed, and the response-time recurrence is **warm-started**
//!   from the previous fixed point instead of from `C_i` (valid because
//!   `W_q` is monotone in the costs: any old solution under costs ≤ the
//!   current ones is at or below the new least fixed point);
//! * warm-starts its binary searches the same way: each probe of the
//!   allowance / sensitivity searches seeds from the solution at the
//!   highest feasible inflation found so far, turning
//!   `O(probes × full fixed point)` into `O(probes × small delta)`.
//!
//! Warm starting changes the number of recurrence iterations, never the
//! fixed point: a session returns **bit-identical** results to the cold
//! [`crate::response::ResponseAnalysis`] path.
//!
//! ```
//! use rtft_core::analyzer::Analyzer;
//! use rtft_core::prelude::*;
//!
//! let set = TaskSet::from_specs(vec![
//!     TaskBuilder::new(1, 20, Duration::millis(200), Duration::millis(29))
//!         .deadline(Duration::millis(70)).build(),
//!     TaskBuilder::new(2, 18, Duration::millis(250), Duration::millis(29))
//!         .deadline(Duration::millis(120)).build(),
//!     TaskBuilder::new(3, 16, Duration::millis(1500), Duration::millis(29))
//!         .deadline(Duration::millis(120)).build(),
//! ]);
//! let mut session = Analyzer::new(&set);
//! let wcrt = session.wcrt_all().unwrap();           // computed once…
//! assert_eq!(wcrt, vec![Duration::millis(29), Duration::millis(58),
//!                       Duration::millis(87)]);
//! let eq = session.equitable_allowance().unwrap().unwrap();
//! assert_eq!(eq.allowance, Duration::millis(11));   // …and reused here.
//! ```

use crate::allowance::{EquitableAllowance, SlackPolicy, SystemAllowance};
use crate::blocking::ResourceModel;
use crate::error::AnalysisError;
use crate::feasibility::{Admission, AdmissionError, FeasibilityReport, TaskFeasibility};
use crate::jitter::JitterModel;
use crate::policy::PolicyKind;
use crate::response::{TaskResponse, DEFAULT_ITERATION_LIMIT};
use crate::sensitivity::UnderrunReclaim;
use crate::server::{polling_server_task, ServerParams};
use crate::task::{TaskId, TaskSet, TaskSpec};
use crate::time::Duration;

/// Precision of the multiplicative scaling-factor search (mirrors
/// `sensitivity::SCALE_EPSILON`).
const SCALE_EPSILON: f64 = 1e-9;

/// Builder composing the analysis options that used to live in separate
/// modules. All options are optional; `AnalyzerBuilder::new(set).build()`
/// is the plain analysis of the paper's Figure 2.
#[derive(Clone, Debug)]
pub struct AnalyzerBuilder {
    set: TaskSet,
    blocking: Vec<Duration>,
    jitter: Option<Vec<Duration>>,
    policy: SlackPolicy,
    sched: PolicyKind,
    iteration_limit: u64,
    warm_start: bool,
}

impl AnalyzerBuilder {
    /// Start a session over `set` with no jitter, no blocking, the
    /// default slack policy and warm starting enabled.
    pub fn new(set: &TaskSet) -> Self {
        AnalyzerBuilder {
            blocking: vec![Duration::ZERO; set.len()],
            jitter: None,
            policy: SlackPolicy::default(),
            sched: PolicyKind::FixedPriority,
            iteration_limit: DEFAULT_ITERATION_LIMIT,
            warm_start: true,
            set: set.clone(),
        }
    }

    /// Analyse under a scheduling policy other than the default
    /// preemptive fixed priority:
    ///
    /// * [`PolicyKind::Edf`] — feasibility and allowance searches use
    ///   the processor-demand test of [`crate::edf`]; the WCRT queries
    ///   remain the fixed-priority reference numbers. The demand test
    ///   models neither blocking terms nor release jitter, so
    ///   [`AnalyzerBuilder::build`] rejects an EDF session combined
    ///   with either option rather than certify unsoundly;
    /// * [`PolicyKind::NonPreemptiveFp`] — every response-time query
    ///   adds the non-preemption blocking term `max_{j ∈ lp(i)} C_j` to
    ///   `B_i`, a sufficient (conservative) bound on the
    ///   run-to-completion dispatcher.
    pub fn sched_policy(mut self, kind: PolicyKind) -> Self {
        self.sched = kind;
        self
    }

    /// Analyse under a release-jitter model (Audsley's recurrence; see
    /// [`crate::jitter`]). Jitter-aware queries use the
    /// constrained-deadline single-job analysis, like the module did.
    pub fn jitter(mut self, model: &JitterModel) -> Self {
        self.jitter = Some((0..self.set.len()).map(|r| model.of(r)).collect());
        self
    }

    /// Install the blocking terms `B_i` induced by `resources` under the
    /// immediate priority ceiling protocol (see [`crate::blocking`]).
    pub fn blocking(mut self, resources: &ResourceModel) -> Self {
        self.blocking = resources.blocking_all(&self.set);
        self
    }

    /// Install explicit per-rank blocking terms.
    ///
    /// # Panics
    /// Panics on a length mismatch or a negative term.
    pub fn blocking_terms(mut self, terms: Vec<Duration>) -> Self {
        assert_eq!(terms.len(), self.set.len(), "one blocking term per task");
        assert!(
            terms.iter().all(|b| !b.is_negative()),
            "blocking must be ≥ 0"
        );
        self.blocking = terms;
        self
    }

    /// Add a polling server for aperiodic work as an ordinary periodic
    /// task (see [`crate::server`]); it is analysed — and granted
    /// allowance — like any other task.
    ///
    /// # Errors
    /// [`crate::error::ModelError`] if the server id collides or the
    /// parameters are invalid.
    pub fn polling_server(
        mut self,
        id: u32,
        params: ServerParams,
    ) -> Result<Self, crate::error::ModelError> {
        let server = polling_server_task(id, params);
        let old_set = self.set.clone();
        self.set = self.set.with_added(server)?;
        // `with_added` re-sorts by priority: remap the per-rank options
        // already configured onto the new ranks (the server itself gets
        // zero blocking and zero jitter).
        fn remap(old_set: &TaskSet, new_set: &TaskSet, old: &[Duration]) -> Vec<Duration> {
            (0..new_set.len())
                .map(|new_rank| {
                    old_set
                        .rank_of(new_set.by_rank(new_rank).id)
                        .map_or(Duration::ZERO, |old_rank| old[old_rank])
                })
                .collect()
        }
        self.blocking = remap(&old_set, &self.set, &self.blocking);
        self.jitter = self
            .jitter
            .as_deref()
            .map(|j| remap(&old_set, &self.set, j));
        Ok(self)
    }

    /// Slack policy used by the single-task overrun searches when no
    /// explicit policy is passed.
    pub fn slack_policy(mut self, policy: SlackPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the per-analysis iteration guard.
    pub fn iteration_limit(mut self, limit: u64) -> Self {
        self.iteration_limit = limit;
        self
    }

    /// Disable warm starting: every recurrence restarts from `C_i` as the
    /// legacy free functions did. Only useful for benchmarking the
    /// incremental path against the cold one and for equivalence tests —
    /// results are identical either way.
    pub fn warm_start(mut self, enabled: bool) -> Self {
        self.warm_start = enabled;
        self
    }

    /// Finish building.
    ///
    /// # Panics
    /// Panics when an EDF session is combined with blocking terms or a
    /// jitter model — the processor-demand test does not model either,
    /// and silently dropping them would turn the feasibility
    /// certificate unsound.
    pub fn build(self) -> Analyzer {
        if self.sched == PolicyKind::Edf {
            assert!(
                self.blocking.iter().all(|b| b.is_zero()),
                "EDF analysis does not model blocking terms"
            );
            assert!(
                self.jitter.is_none(),
                "EDF analysis does not model release jitter"
            );
        }
        let n = self.set.len();
        Analyzer {
            hp: (0..n).map(|r| self.set.hp_ranks(r)).collect(),
            lp: (0..n).map(|r| self.set.lp_ranks(r)).collect(),
            costs: self.set.tasks().iter().map(|t| t.cost).collect(),
            set: self.set,
            blocking: self.blocking,
            jitter: self.jitter,
            policy: self.policy,
            sched: self.sched,
            iteration_limit: self.iteration_limit,
            warm_start: self.warm_start,
            cache: vec![TaskCache::default(); n],
            eq_cache: None,
            sys_cache: None,
        }
    }
}

/// A feasible search frontier: the delta plus the per-rank busy-period
/// solution found there (used to warm-start the next, larger probe).
type Frontier = (Duration, Vec<Vec<Duration>>);

/// Everything one task's analysis reads, for cache-salvage comparisons:
/// `(period, cost, blocking, jitter, sorted hp (period, cost, jitter))`.
type ViewKey = (
    Duration,
    Duration,
    Duration,
    Duration,
    Vec<(Duration, Duration, Duration)>,
);

/// Memoized per-task state.
#[derive(Clone, Debug, Default)]
struct TaskCache {
    /// Completion times of the last converged busy-period solution that
    /// is still a valid **lower bound** for the current parameters
    /// (i.e. computed under component-wise smaller-or-equal costs and
    /// blocking). Used to warm-start the recurrence.
    seeds: Vec<Duration>,
    /// Fully valid memoized response for the *current* parameters.
    result: Option<TaskResponse>,
    /// Memoized jitter-analysis WCRT for the current parameters.
    jitter_wcrt: Option<Duration>,
}

/// The incremental analysis session. See the [module docs](self).
#[derive(Clone, Debug)]
pub struct Analyzer {
    set: TaskSet,
    /// `hp_ranks(r)` for every rank, precomputed once per set.
    hp: Vec<Vec<usize>>,
    /// `lp_ranks(r)` for every rank (the non-preemptive blocking set).
    lp: Vec<Vec<usize>>,
    /// Effective costs (start at the declared ones; perturbable).
    costs: Vec<Duration>,
    blocking: Vec<Duration>,
    /// Per-rank release jitter when a jitter model is installed.
    jitter: Option<Vec<Duration>>,
    policy: SlackPolicy,
    /// Dispatch rule the session analyses for.
    sched: PolicyKind,
    iteration_limit: u64,
    warm_start: bool,
    cache: Vec<TaskCache>,
    eq_cache: Option<Option<EquitableAllowance>>,
    sys_cache: Option<(SlackPolicy, Option<SystemAllowance>)>,
}

impl Analyzer {
    /// Plain session over `set`: declared costs, no jitter, no blocking.
    pub fn new(set: &TaskSet) -> Self {
        AnalyzerBuilder::new(set).build()
    }

    /// Plain session over `set` analysed for `kind` (see
    /// [`AnalyzerBuilder::sched_policy`]).
    pub fn for_policy(set: &TaskSet, kind: PolicyKind) -> Self {
        AnalyzerBuilder::new(set).sched_policy(kind).build()
    }

    /// Scheduling policy the session was built for.
    pub fn sched_policy(&self) -> PolicyKind {
        self.sched
    }

    /// The task set under analysis.
    pub fn task_set(&self) -> &TaskSet {
        &self.set
    }

    /// Number of tasks in the session.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// `true` iff the session has no tasks (never, for a validated set).
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// Effective cost of the task at `rank`.
    pub fn cost(&self, rank: usize) -> Duration {
        self.costs[rank]
    }

    /// Slack policy the session was built with.
    pub fn slack_policy(&self) -> SlackPolicy {
        self.policy
    }

    // ------------------------------------------------------------------
    // Perturbation — the incremental-revalidation API.
    // ------------------------------------------------------------------

    /// Override the effective cost of the task at `rank`, invalidating
    /// exactly the tasks whose level workload includes it. A cost
    /// *increase* keeps the old solutions as warm seeds; a decrease
    /// clears them (the recurrence can only be seeded from below).
    ///
    /// # Panics
    /// Panics if `cost` is not strictly positive.
    pub fn set_cost(&mut self, rank: usize, cost: Duration) {
        assert!(cost.is_positive(), "effective cost must be positive");
        if self.costs[rank] == cost {
            return;
        }
        let increased = cost > self.costs[rank];
        self.costs[rank] = cost;
        self.invalidate_dependents_of(rank, increased);
    }

    /// Add `delta` to every task's *declared* cost — the uniform
    /// inflation of the equitable-allowance search.
    ///
    /// # Panics
    /// Panics if any resulting cost is not strictly positive.
    pub fn inflate_all(&mut self, delta: Duration) {
        for rank in 0..self.set.len() {
            let cost = self.set.by_rank(rank).cost + delta;
            assert!(cost.is_positive(), "inflated cost must stay positive");
        }
        for rank in 0..self.set.len() {
            let cost = self.set.by_rank(rank).cost + delta;
            if cost < self.costs[rank] {
                self.cache[rank].seeds.clear();
            }
            self.costs[rank] = cost;
            self.cache[rank].result = None;
            self.cache[rank].jitter_wcrt = None;
        }
        // A decrease of any cost may invalidate every seed (all tasks can
        // see all others through equal priorities); be conservative.
        if self.cache.iter().any(|c| c.seeds.is_empty()) {
            for c in &mut self.cache {
                c.seeds.clear();
            }
        }
        self.eq_cache = None;
        self.sys_cache = None;
    }

    /// Reset every effective cost back to the declared one.
    pub fn reset_costs(&mut self) {
        for rank in 0..self.set.len() {
            let declared = self.set.by_rank(rank).cost;
            if self.costs[rank] != declared {
                let increased = declared > self.costs[rank];
                self.costs[rank] = declared;
                self.invalidate_dependents_of(rank, increased);
            }
        }
    }

    /// Set the blocking term `B_i` of the task at `rank`. Blocking only
    /// enters `τ_rank`'s own recurrence, so only that task revalidates.
    ///
    /// # Panics
    /// Panics on a negative term.
    pub fn set_blocking(&mut self, rank: usize, b: Duration) {
        assert!(!b.is_negative(), "blocking must be non-negative");
        if self.blocking[rank] == b {
            return;
        }
        let increased = b > self.blocking[rank];
        self.blocking[rank] = b;
        let cache = &mut self.cache[rank];
        cache.result = None;
        cache.jitter_wcrt = None;
        if !increased {
            cache.seeds.clear();
        }
        self.eq_cache = None;
        self.sys_cache = None;
    }

    /// Perturb one task of the underlying set (matched by id), keeping
    /// every cached solution that the change cannot affect.
    ///
    /// * cost-only changes go through the warm [`Analyzer::set_cost`]
    ///   path (the effective cost follows the new declared cost);
    /// * deadline-only changes invalidate nothing — deadlines are read
    ///   live by the feasibility queries;
    /// * period / priority / offset changes rebuild the session,
    ///   salvaging the caches of unaffected tasks.
    ///
    /// # Panics
    /// Panics if the id is not in the set.
    pub fn replace_task(&mut self, spec: TaskSpec) {
        let rank = self.set.rank_of(spec.id).expect("replace_task: unknown id");
        let old = self.set.by_rank(rank).clone();
        if old.period == spec.period && old.priority == spec.priority && old.offset == spec.offset {
            let was_declared = self.costs[rank] == old.cost;
            let new_cost = spec.cost;
            self.set = self.set.with_replaced(spec);
            if was_declared && new_cost != self.costs[rank] {
                self.set_cost(rank, new_cost);
            } else if !was_declared {
                // A session override is in place; keep it but note the
                // new declared baseline for inflate_all / reset_costs.
                self.eq_cache = None;
                self.sys_cache = None;
            } else {
                // Deadline-only change: feasibility reads deadlines live,
                // but any memoized allowance depended on them.
                self.eq_cache = None;
                self.sys_cache = None;
            }
            return;
        }
        let new_set = self.set.with_replaced(spec);
        *self = self.rebuilt_for(new_set);
    }

    // ------------------------------------------------------------------
    // Online admission — add/remove with cache salvage.
    // ------------------------------------------------------------------

    /// RTSJ `addToFeasibility` as a session operation: admit `spec` iff
    /// the grown system stays feasible. Higher-priority tasks keep their
    /// cached solutions (the newcomer cannot interfere with them); only
    /// the newcomer and the tasks below it are analysed, warm-started
    /// where possible. On rejection the session is unchanged.
    ///
    /// # Errors
    /// Model errors (duplicate id, bad parameters) and analysis errors
    /// are reported as in [`crate::feasibility::AdmissionController`].
    pub fn admit(&mut self, spec: TaskSpec) -> Result<Admission, AdmissionError> {
        let cut = spec.priority;
        let candidate_set = self.set.with_added(spec).map_err(AdmissionError::Model)?;
        // Interference can only grow on admission: every old busy-period
        // solution keeps bounding the new one from below, and tasks above
        // the newcomer are untouched entirely.
        let mut candidate = self.rebuilt_for_change(candidate_set, cut, true);
        let report = candidate.report().map_err(AdmissionError::Analysis)?;
        if report.is_feasible() {
            *self = candidate;
            Ok(Admission::Admitted(report))
        } else {
            Ok(Admission::Rejected(report))
        }
    }

    /// Remove a task from the session. Higher-priority tasks keep their
    /// cached solutions; for the rest, interference only shrank, so
    /// their caches are dropped (warm seeds must bound from below).
    ///
    /// # Errors
    /// [`crate::error::ModelError::UnknownTask`] via
    /// [`AdmissionError::Model`] when absent; removing the last task
    /// yields [`crate::error::ModelError::Empty`].
    pub fn remove(&mut self, id: TaskId) -> Result<(), AdmissionError> {
        let cut = self
            .set
            .by_id(id)
            .map(|t| t.priority)
            .unwrap_or(crate::task::Priority::MAX);
        let new_set = self.set.with_removed(id).map_err(AdmissionError::Model)?;
        // Interference shrank for tasks at or below the departed priority:
        // their seeds no longer bound from below and are dropped.
        *self = self.rebuilt_for_change(new_set, cut, false);
        Ok(())
    }

    /// Rebuild the session over `new_set` after a change confined to
    /// priority level `cut`: tasks *strictly above* `cut` keep their full
    /// caches (the change is invisible to them). For the rest, `grew`
    /// says whether interference only increased (admission) — then the
    /// old busy-period solutions survive as warm seeds — or may have
    /// decreased (removal), dropping them. Per-task options and
    /// effective-cost overrides carry over by id either way.
    fn rebuilt_for_change(
        &self,
        new_set: TaskSet,
        cut: crate::task::Priority,
        grew: bool,
    ) -> Analyzer {
        let mut next = AnalyzerBuilder::new(&new_set)
            .slack_policy(self.policy)
            .sched_policy(self.sched)
            .iteration_limit(self.iteration_limit)
            .warm_start(self.warm_start)
            .build();
        let mut jitter_next = self
            .jitter
            .as_ref()
            .map(|_| vec![Duration::ZERO; new_set.len()]);
        for new_rank in 0..new_set.len() {
            let spec = new_set.by_rank(new_rank);
            let Some(old_rank) = self.set.rank_of(spec.id) else {
                continue;
            };
            next.blocking[new_rank] = self.blocking[old_rank];
            next.costs[new_rank] = self.costs[old_rank];
            if let (Some(jn), Some(jo)) = (jitter_next.as_mut(), self.jitter.as_ref()) {
                jn[new_rank] = jo[old_rank];
            }
            // Non-preemptive blocking makes every task's analysis read
            // every cost, so full results never survive a set change
            // there; the seeds still bound from below when the change
            // only grew interference.
            let np = self.sched == PolicyKind::NonPreemptiveFp;
            if spec.priority > cut && !np {
                next.cache[new_rank] = self.cache[old_rank].clone();
            } else if grew && self.warm_start {
                next.cache[new_rank].seeds = self.cache[old_rank].seeds.clone();
            }
        }
        next.jitter = jitter_next;
        next
    }

    /// Rebuild the session over `new_set`, salvaging cached solutions of
    /// every task whose own parameters and whole higher-priority
    /// workload are unchanged. Effective costs reset to declared for
    /// tasks whose cached view changed.
    fn rebuilt_for(&self, new_set: TaskSet) -> Analyzer {
        let mut next = AnalyzerBuilder::new(&new_set)
            .slack_policy(self.policy)
            .sched_policy(self.sched)
            .iteration_limit(self.iteration_limit)
            .warm_start(self.warm_start)
            .build();
        // Carry per-task options and effective costs over by id.
        let mut jitter_next = self
            .jitter
            .as_ref()
            .map(|_| vec![Duration::ZERO; new_set.len()]);
        for new_rank in 0..new_set.len() {
            let id = new_set.by_rank(new_rank).id;
            let Some(old_rank) = self.set.rank_of(id) else {
                continue;
            };
            next.blocking[new_rank] = self.blocking[old_rank];
            if let (Some(jn), Some(jo)) = (jitter_next.as_mut(), self.jitter.as_ref()) {
                jn[new_rank] = jo[old_rank];
            }
            if self.set.by_rank(old_rank).cost == new_set.by_rank(new_rank).cost {
                next.costs[new_rank] = self.costs[old_rank];
            }
        }
        next.jitter = jitter_next;
        // Salvage caches where the analysed view is identical.
        for new_rank in 0..new_set.len() {
            let id = new_set.by_rank(new_rank).id;
            let Some(old_rank) = self.set.rank_of(id) else {
                continue;
            };
            if self.view_key(old_rank) == next.view_key(new_rank) {
                next.cache[new_rank] = self.cache[old_rank].clone();
            }
        }
        next
    }

    /// Everything the response-time analysis of one task reads: its own
    /// parameters plus the interference profile of its hp set (sorted —
    /// the recurrence is order-insensitive).
    fn view_key(&self, rank: usize) -> ViewKey {
        let spec = self.set.by_rank(rank);
        let mut hp: Vec<(Duration, Duration, Duration)> = self.hp[rank]
            .iter()
            .map(|&j| {
                (
                    self.set.by_rank(j).period,
                    self.costs[j],
                    self.jitter.as_ref().map_or(Duration::ZERO, |v| v[j]),
                )
            })
            .collect();
        hp.sort_unstable();
        (
            spec.period,
            self.costs[rank],
            // The *effective* term, so the non-preemptive lp-blocking
            // contribution participates in cache-salvage comparisons.
            self.effective_blocking(&self.costs, rank),
            self.jitter.as_ref().map_or(Duration::ZERO, |v| v[rank]),
            hp,
        )
    }

    /// Invalidate the memoized state of `rank` and of every task that
    /// counts it as interference. On a monotone increase the busy-period
    /// seeds survive (they still bound the new fixed point from below).
    fn invalidate_dependents_of(&mut self, rank: usize, increased: bool) {
        let p = self.set.by_rank(rank).priority;
        // Non-preemptive blocking flows *upward* (a lower-priority cost
        // enters every higher task's B_i), so under that policy every
        // task depends on every cost.
        let np = self.sched == PolicyKind::NonPreemptiveFp;
        for j in 0..self.set.len() {
            let affected = np || j == rank || self.set.by_rank(j).priority <= p;
            if !affected {
                continue;
            }
            let cache = &mut self.cache[j];
            cache.result = None;
            cache.jitter_wcrt = None;
            if !increased {
                cache.seeds.clear();
            }
        }
        self.eq_cache = None;
        self.sys_cache = None;
    }

    // ------------------------------------------------------------------
    // Delegation into the one shared fixed-point engine
    // (`crate::response::engine`) — warm seeds are the only addition.
    // ------------------------------------------------------------------

    /// Blocking term entering `rank`'s recurrence under `costs`: the
    /// configured `B_i`, plus — for the non-preemptive policy — the
    /// largest lower-priority cost (a lower-priority job holding the
    /// CPU at the critical instant runs to completion).
    fn effective_blocking(&self, costs: &[Duration], rank: usize) -> Duration {
        let mut b = self.blocking[rank];
        if self.sched == PolicyKind::NonPreemptiveFp {
            b += self.lp[rank]
                .iter()
                .map(|&j| costs[j])
                .fold(Duration::ZERO, Duration::max);
        }
        b
    }

    /// Busy-period analysis of `rank` under `costs`, warm-started from
    /// `seeds` (which must bound the solution from below, per job).
    /// Identical to `ResponseAnalysis::analyze` in results — both call
    /// the same engine.
    fn solve(
        &self,
        costs: &[Duration],
        rank: usize,
        seeds: &[Duration],
    ) -> Result<TaskResponse, AnalysisError> {
        self.solve_bounded(costs, rank, seeds, None)
    }

    /// [`Analyzer::solve`] with an early-abort response bound — the
    /// feasibility probes pass the deadline, so an infeasible probe
    /// stops at the first blown job instead of unrolling a busy period
    /// that the boundary inflation (and non-preemptive blocking) can
    /// stretch to millions of jobs.
    fn solve_bounded(
        &self,
        costs: &[Duration],
        rank: usize,
        seeds: &[Duration],
        abort_above: Option<Duration>,
    ) -> Result<TaskResponse, AnalysisError> {
        let seeds = if self.warm_start { seeds } else { &[] };
        crate::response::engine::solve_busy_period_bounded(
            &self.set,
            costs,
            self.effective_blocking(costs, rank),
            &self.hp[rank],
            rank,
            seeds,
            abort_above,
            self.iteration_limit,
        )
    }

    // ------------------------------------------------------------------
    // Memoized queries.
    // ------------------------------------------------------------------

    /// Full per-job analysis of the task at `rank`, memoized.
    ///
    /// # Errors
    /// [`AnalysisError::Divergent`] on a saturated level workload,
    /// [`AnalysisError::IterationLimit`] if the guard trips.
    pub fn analyze(&mut self, rank: usize) -> Result<TaskResponse, AnalysisError> {
        if let Some(r) = &self.cache[rank].result {
            return Ok(r.clone());
        }
        let seeds: Vec<Duration> = self.cache[rank].seeds.clone();
        let result = self.solve(&self.costs, rank, &seeds)?;
        let cache = &mut self.cache[rank];
        cache.seeds = result.jobs.iter().map(|j| j.completion).collect();
        cache.result = Some(result.clone());
        Ok(result)
    }

    /// Memoized WCRT of the task at `rank`. Cache hits read the scalar
    /// directly — no per-job clone on the hot feasibility paths.
    pub fn wcrt(&mut self, rank: usize) -> Result<Duration, AnalysisError> {
        if let Some(r) = &self.cache[rank].result {
            return Ok(r.wcrt);
        }
        self.analyze(rank).map(|r| r.wcrt)
    }

    /// Memoized WCRTs of every task, rank order.
    pub fn wcrt_all(&mut self) -> Result<Vec<Duration>, AnalysisError> {
        (0..self.set.len()).map(|rank| self.wcrt(rank)).collect()
    }

    /// EDF processor-demand feasibility of `costs` (see [`crate::edf`]);
    /// `skip` exempts one task's deadlines from the requirement.
    fn edf_feasible_under(&self, costs: &[Duration], skip: Option<usize>) -> bool {
        crate::edf::feasible(&self.set, costs, skip, self.iteration_limit)
    }

    /// Per-task detection thresholds under the session's scheduling
    /// policy: the memoized WCRTs for the fixed-priority policies
    /// (non-preemptive sessions include the blocking term), the
    /// relative deadlines for EDF — under EDF a feasible system
    /// guarantees nothing tighter than "done by the deadline", so the
    /// deadline *is* the detection threshold (a job past it has
    /// necessarily suffered a fault).
    pub fn policy_thresholds(&mut self) -> Result<Vec<Duration>, AnalysisError> {
        match self.sched {
            PolicyKind::Edf => Ok((0..self.set.len())
                .map(|r| self.set.by_rank(r).deadline)
                .collect()),
            _ => self.wcrt_all(),
        }
    }

    /// `true` iff every task meets its deadline under the current
    /// effective parameters and the session's scheduling policy (a
    /// diverging task counts as a miss).
    pub fn is_feasible(&mut self) -> Result<bool, AnalysisError> {
        if self.sched == PolicyKind::Edf {
            return Ok(self.edf_feasible_under(&self.costs, None));
        }
        for rank in 0..self.set.len() {
            match self.wcrt(rank) {
                Ok(w) => {
                    if w > self.set.by_rank(rank).deadline {
                        return Ok(false);
                    }
                }
                Err(AnalysisError::Divergent { .. }) => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Length of the level-`rank` busy period (not memoized — rarely on
    /// a hot path; see [`crate::response::ResponseAnalysis`]).
    pub fn level_busy_period(&self, rank: usize) -> Result<Duration, AnalysisError> {
        crate::response::engine::busy_period_length(
            &self.set,
            &self.costs,
            self.effective_blocking(&self.costs, rank),
            &self.hp[rank],
            rank,
            self.iteration_limit,
        )
    }

    /// The full admission report — load test first (paper §2.1), then
    /// the memoized exact response times (paper §2.2). Equivalent to the
    /// legacy `feasibility::analyze_set`.
    pub fn report(&mut self) -> Result<FeasibilityReport, AnalysisError> {
        let utilization: f64 = (0..self.set.len())
            .map(|r| self.costs[r].as_nanos() as f64 / self.set.by_rank(r).period.as_nanos() as f64)
            .sum();
        if utilization > 1.0 {
            return Ok(FeasibilityReport {
                utilization,
                overloaded: true,
                per_task: Vec::new(),
            });
        }
        if self.sched == PolicyKind::Edf {
            // The demand test is a whole-set verdict: report it on every
            // task (there is no per-task WCRT under EDF).
            let ok = self.edf_feasible_under(&self.costs, None);
            let per_task = self
                .set
                .tasks()
                .iter()
                .map(|t| TaskFeasibility {
                    task: t.id,
                    wcrt: None,
                    deadline: t.deadline,
                    feasible: ok,
                })
                .collect();
            return Ok(FeasibilityReport {
                utilization,
                overloaded: false,
                per_task,
            });
        }
        let mut per_task = Vec::with_capacity(self.set.len());
        for rank in 0..self.set.len() {
            let wcrt = match self.wcrt(rank) {
                Ok(w) => Some(w),
                Err(AnalysisError::Divergent { .. }) => None,
                Err(e) => return Err(e),
            };
            let task = self.set.by_rank(rank);
            per_task.push(TaskFeasibility {
                task: task.id,
                wcrt,
                deadline: task.deadline,
                feasible: wcrt.is_some_and(|w| w <= task.deadline),
            });
        }
        Ok(FeasibilityReport {
            utilization,
            overloaded: false,
            per_task,
        })
    }

    // ------------------------------------------------------------------
    // Jitter-aware queries (Audsley's recurrence, as crate::jitter).
    // ------------------------------------------------------------------

    /// Jitter of the task at `rank` (zero when no model is installed).
    pub fn jitter_of(&self, rank: usize) -> Duration {
        self.jitter.as_ref().map_or(Duration::ZERO, |v| v[rank])
    }

    /// WCRT of `rank` under the installed jitter model (constrained-
    /// deadline single-job analysis), memoized. Identical to
    /// [`crate::jitter::wcrt_with_jitter`] when no blocking is set; with
    /// blocking the term `B_i` is added to the window, an extension the
    /// jitter module never had.
    pub fn wcrt_with_jitter(&mut self, rank: usize) -> Result<Duration, AnalysisError> {
        if let Some(w) = self.cache[rank].jitter_wcrt {
            return Ok(w);
        }
        let zeros;
        let jitter: &[Duration] = match &self.jitter {
            Some(v) => v,
            None => {
                zeros = vec![Duration::ZERO; self.set.len()];
                &zeros
            }
        };
        let r = crate::jitter::engine::jitter_wcrt(
            &self.set,
            &self.costs,
            self.effective_blocking(&self.costs, rank),
            jitter,
            &self.hp[rank],
            rank,
            self.iteration_limit,
        )?;
        self.cache[rank].jitter_wcrt = Some(r);
        Ok(r)
    }

    /// Jitter-aware WCRTs of every task, rank order.
    pub fn wcrt_all_with_jitter(&mut self) -> Result<Vec<Duration>, AnalysisError> {
        (0..self.set.len())
            .map(|r| self.wcrt_with_jitter(r))
            .collect()
    }

    /// Feasibility under the installed jitter model.
    pub fn feasible_with_jitter(&mut self) -> Result<bool, AnalysisError> {
        for rank in 0..self.set.len() {
            match self.wcrt_with_jitter(rank) {
                Ok(r) => {
                    if r > self.set.by_rank(rank).deadline {
                        return Ok(false);
                    }
                }
                Err(AnalysisError::Divergent { .. }) => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Warm-started searches.
    // ------------------------------------------------------------------

    /// Feasibility of the whole set under an explicit cost vector,
    /// seeded from `seeds` (per rank, per job; must bound from below).
    /// On a feasible outcome, `seeds` is replaced by the new solution so
    /// the next, larger probe starts even closer.
    fn feasible_under(
        &self,
        costs: &[Duration],
        seeds: &mut Vec<Vec<Duration>>,
        skip: Option<usize>,
    ) -> Result<bool, AnalysisError> {
        let mut fresh: Vec<Vec<Duration>> = Vec::with_capacity(self.set.len());
        for rank in 0..self.set.len() {
            if skip == Some(rank) {
                fresh.push(seeds.get(rank).cloned().unwrap_or_default());
                continue;
            }
            let warm: &[Duration] = seeds.get(rank).map_or(&[], |s| s.as_slice());
            let deadline = self.set.by_rank(rank).deadline;
            match self.solve_bounded(costs, rank, warm, Some(deadline)) {
                Ok(r) => {
                    if r.wcrt > deadline {
                        return Ok(false);
                    }
                    fresh.push(r.jobs.iter().map(|j| j.completion).collect());
                }
                Err(AnalysisError::Divergent { .. }) => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        *seeds = fresh;
        Ok(true)
    }

    /// Per-rank warm seeds from the session's memoized solutions —
    /// valid lower bounds for any probe whose costs dominate the
    /// current effective ones.
    fn session_seeds(&self) -> Vec<Vec<Duration>> {
        self.cache.iter().map(|c| c.seeds.clone()).collect()
    }

    /// Monotone binary search for the largest feasible `delta` in
    /// `[0, hi]`, where `costs_at(delta)` materialises the probe's cost
    /// vector. Warm seeds start from `seeds` (the session's memoized
    /// solutions) and follow the feasible frontier `lo`; the frontier's
    /// solution is returned with the delta so callers can finish warm.
    /// Mirrors the probe sequence of `allowance::max_feasible` exactly.
    fn max_feasible_delta(
        &self,
        hi: Duration,
        mut costs_at: impl FnMut(Duration) -> Vec<Duration>,
        skip: Option<usize>,
        mut seeds: Vec<Vec<Duration>>,
    ) -> Result<Option<Frontier>, AnalysisError> {
        if !self.feasible_under(&costs_at(Duration::ZERO), &mut seeds, skip)? {
            return Ok(None);
        }
        let mut hi_seeds = seeds.clone();
        if self.feasible_under(&costs_at(hi), &mut hi_seeds, skip)? {
            return Ok(Some((hi, hi_seeds)));
        }
        let mut lo = Duration::ZERO;
        let mut hi = hi;
        while hi - lo > Duration::NANO {
            let mid = lo + (hi - lo) / 2;
            let mut probe = seeds.clone();
            if self.feasible_under(&costs_at(mid), &mut probe, skip)? {
                lo = mid;
                seeds = probe;
            } else {
                hi = mid;
            }
        }
        Ok(Some((lo, seeds)))
    }

    /// Largest uniform cost increment keeping the set feasible — the
    /// paper's §4.2, memoized per session state. Equivalent to the
    /// legacy `allowance::equitable_allowance`, warm-started.
    pub fn equitable_allowance(&mut self) -> Result<Option<EquitableAllowance>, AnalysisError> {
        if let Some(cached) = &self.eq_cache {
            return Ok(cached.clone());
        }
        if self.sched == PolicyKind::Edf {
            let eq = self.edf_equitable_allowance();
            self.eq_cache = Some(eq.clone());
            return Ok(eq);
        }
        let base_wcrt = match self.wcrt_all() {
            Ok(w) => w,
            Err(AnalysisError::Divergent { .. }) => {
                self.eq_cache = Some(None);
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        let hi = (0..self.set.len())
            .map(|r| self.set.by_rank(r).deadline - self.costs[r])
            .fold(Duration::MAX, Duration::min)
            .max(Duration::ZERO);
        let base_costs = self.costs.clone();
        let costs_at =
            |delta: Duration| -> Vec<Duration> { base_costs.iter().map(|&c| c + delta).collect() };
        let frontier = self.max_feasible_delta(hi, costs_at, None, self.session_seeds())?;
        let Some((allowance, frontier_seeds)) = frontier else {
            self.eq_cache = Some(None);
            return Ok(None);
        };
        // Final solution at the allowance, seeded from the search
        // frontier — when the last feasible probe *was* the allowance,
        // these seeds are already the exact fixed points.
        let costs = base_costs
            .iter()
            .map(|&c| c + allowance)
            .collect::<Vec<_>>();
        let mut inflated_wcrt = Vec::with_capacity(self.set.len());
        for (rank, rank_seeds) in frontier_seeds.iter().enumerate() {
            inflated_wcrt.push(self.solve(&costs, rank, rank_seeds)?.wcrt);
        }
        let eq = EquitableAllowance {
            allowance,
            inflated_wcrt,
            base_wcrt,
        };
        self.eq_cache = Some(Some(eq.clone()));
        Ok(Some(eq))
    }

    /// Equitable allowance under EDF: the largest uniform cost
    /// increment keeping the set demand-feasible. The thresholds
    /// (`inflated_wcrt`/`base_wcrt`) are the relative deadlines — the
    /// only per-task guarantee EDF feasibility provides (see
    /// [`Analyzer::policy_thresholds`]).
    fn edf_equitable_allowance(&self) -> Option<EquitableAllowance> {
        let base = self.costs.clone();
        if !self.edf_feasible_under(&base, None) {
            return None;
        }
        let hi = (0..self.set.len())
            .map(|r| self.set.by_rank(r).deadline - self.costs[r])
            .fold(Duration::MAX, Duration::min)
            .max(Duration::ZERO);
        let costs_at =
            |delta: Duration| -> Vec<Duration> { base.iter().map(|&c| c + delta).collect() };
        let allowance = self.edf_max_delta(hi, costs_at, None);
        let deadlines: Vec<Duration> = (0..self.set.len())
            .map(|r| self.set.by_rank(r).deadline)
            .collect();
        Some(EquitableAllowance {
            allowance,
            inflated_wcrt: deadlines.clone(),
            base_wcrt: deadlines,
        })
    }

    /// Largest `delta` in `[0, hi]` whose cost vector passes the EDF
    /// demand test (the base, `delta = 0`, must already pass). Same
    /// probe sequence as [`Analyzer::max_feasible_delta`].
    fn edf_max_delta(
        &self,
        hi: Duration,
        mut costs_at: impl FnMut(Duration) -> Vec<Duration>,
        skip: Option<usize>,
    ) -> Duration {
        if self.edf_feasible_under(&costs_at(hi), skip) {
            return hi;
        }
        let mut lo = Duration::ZERO;
        let mut hi = hi;
        while hi - lo > Duration::NANO {
            let mid = lo + (hi - lo) / 2;
            if self.edf_feasible_under(&costs_at(mid), skip) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Largest overrun the task at `rank` can make alone under `policy`
    /// (the paper's §4.3 `M_i`), warm-started. Equivalent to the legacy
    /// `allowance::max_single_overrun`.
    pub fn max_single_overrun_with(
        &mut self,
        rank: usize,
        policy: SlackPolicy,
    ) -> Result<Option<Duration>, AnalysisError> {
        // A memoized system allowance under the same policy already ran
        // this exact search: `M_rank` is its per-task entry. Only a
        // `Some` result can be reused — a `None` system allowance does
        // NOT mean every per-rank search is `None` (under
        // `ProtectOthers` the probed task's own deadline is exempt, so
        // base feasibility is rank-dependent).
        if let Some((p, Some(sa))) = &self.sys_cache {
            if *p == policy {
                return Ok(Some(sa.max_overrun[rank]));
            }
        }
        let task = self.set.by_rank(rank);
        let hi = match policy {
            SlackPolicy::ProtectAll => (task.deadline - self.costs[rank]).max(Duration::ZERO),
            SlackPolicy::ProtectOthers => self.set.max_deadline() + task.period,
        };
        let skip = (policy == SlackPolicy::ProtectOthers).then_some(rank);
        let base_costs = self.costs.clone();
        let costs_at = |delta: Duration| -> Vec<Duration> {
            let mut c = base_costs.clone();
            c[rank] += delta;
            c
        };
        if self.sched == PolicyKind::Edf {
            if !self.edf_feasible_under(&self.costs, skip) {
                return Ok(None);
            }
            return Ok(Some(self.edf_max_delta(hi, costs_at, skip)));
        }
        Ok(self
            .max_feasible_delta(hi, costs_at, skip, self.session_seeds())?
            .map(|(delta, _)| delta))
    }

    /// [`Analyzer::max_single_overrun_with`] under the session's
    /// configured slack policy.
    pub fn max_single_overrun(&mut self, rank: usize) -> Result<Option<Duration>, AnalysisError> {
        self.max_single_overrun_with(rank, self.policy)
    }

    /// `M_i` for every task under `policy` (paper §4.3), memoized.
    /// Equivalent to the legacy `allowance::system_allowance`.
    pub fn system_allowance_with(
        &mut self,
        policy: SlackPolicy,
    ) -> Result<Option<SystemAllowance>, AnalysisError> {
        if let Some((p, cached)) = &self.sys_cache {
            if *p == policy {
                return Ok(cached.clone());
            }
        }
        // Policy thresholds, not raw FP WCRTs: an EDF session must not
        // run (or fail on) the fixed-priority fixed point here — its
        // baseline is the deadline vector, consistent with
        // `equitable_allowance` and `policy_thresholds`.
        let base_wcrt = match self.policy_thresholds() {
            Ok(w) => w,
            Err(AnalysisError::Divergent { .. }) => {
                self.sys_cache = Some((policy, None));
                return Ok(None);
            }
            Err(e) => return Err(e),
        };
        if self.sched == PolicyKind::Edf && !self.edf_feasible_under(&self.costs, None) {
            self.sys_cache = Some((policy, None));
            return Ok(None);
        }
        let mut max_overrun = Vec::with_capacity(self.set.len());
        for rank in 0..self.set.len() {
            match self.max_single_overrun_with(rank, policy)? {
                Some(m) => max_overrun.push(m),
                None => {
                    self.sys_cache = Some((policy, None));
                    return Ok(None);
                }
            }
        }
        let sa = SystemAllowance {
            max_overrun,
            base_wcrt,
            policy,
        };
        self.sys_cache = Some((policy, Some(sa.clone())));
        Ok(Some(sa))
    }

    /// [`Analyzer::system_allowance_with`] under the session's policy.
    pub fn system_allowance(&mut self) -> Result<Option<SystemAllowance>, AnalysisError> {
        self.system_allowance_with(self.policy)
    }

    /// WCRT of `victim` when each `(rank, overrun)` pair inflates the
    /// corresponding effective cost; the session state is untouched.
    /// Equivalent to the legacy `allowance::wcrt_under_overruns`.
    pub fn wcrt_under_overruns(
        &self,
        victim: usize,
        overruns: &[(usize, Duration)],
    ) -> Result<Duration, AnalysisError> {
        let mut costs = self.costs.clone();
        let mut grew = true;
        for &(rank, delta) in overruns {
            costs[rank] = self.set.by_rank(rank).cost + delta;
            grew &= costs[rank] >= self.costs[rank];
        }
        let seeds: &[Duration] = if grew { &self.cache[victim].seeds } else { &[] };
        self.solve(&costs, victim, seeds).map(|r| r.wcrt)
    }

    /// Largest factor `f ≥ 1` (within `1e-9`) keeping the set feasible
    /// when every cost scales by `f`; `None` for an infeasible base.
    /// Equivalent to the legacy `sensitivity::cost_scaling_margin`,
    /// warm-started along the growing feasible frontier.
    pub fn cost_scaling_margin(&mut self) -> Result<Option<f64>, AnalysisError> {
        let base_costs = self.costs.clone();
        let costs_at = |f: f64| -> Option<Vec<Duration>> {
            let mut out = Vec::with_capacity(base_costs.len());
            for c in &base_costs {
                let scaled = c.as_nanos() as f64 * f;
                if scaled > i64::MAX as f64 {
                    return None;
                }
                out.push(Duration::nanos(scaled.ceil() as i64));
            }
            Some(out)
        };
        // `f = 1` reproduces the current effective costs, so the
        // session's memoized solutions are valid seeds from the start.
        let mut seeds: Vec<Vec<Duration>> = self.session_seeds();
        let edf = self.sched == PolicyKind::Edf;
        let feasible = |s: &mut Vec<Vec<Duration>>, f: f64| -> Result<bool, AnalysisError> {
            match costs_at(f) {
                Some(costs) if edf => Ok(self.edf_feasible_under(&costs, None)),
                Some(costs) => self.feasible_under(&costs, s, None),
                None => Ok(false),
            }
        };
        if !feasible(&mut seeds, 1.0)? {
            return Ok(None);
        }
        let mut hi = 2.0;
        let mut lo = 1.0;
        loop {
            let mut probe = seeds.clone();
            if !feasible(&mut probe, hi)? {
                break;
            }
            seeds = probe;
            lo = hi;
            hi *= 2.0;
            if hi > 1e6 {
                return Ok(Some(lo));
            }
        }
        while hi - lo > SCALE_EPSILON {
            let mid = 0.5 * (lo + hi);
            let mut probe = seeds.clone();
            if feasible(&mut probe, mid)? {
                seeds = probe;
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Ok(Some(lo))
    }

    /// Equitable allowance regained when `measured` observed costs (each
    /// at most the declared one) replace the declared ones — the
    /// paper's §7 under-run reclamation. The session itself is not
    /// modified. Equivalent to the legacy `sensitivity::underrun_reclaim`.
    ///
    /// # Panics
    /// Panics when an observed cost exceeds the declared one or is not
    /// positive.
    pub fn underrun_reclaim(
        &mut self,
        measured: &[(TaskId, Duration)],
    ) -> Result<Option<UnderrunReclaim>, AnalysisError> {
        let Some(declared) = self.equitable_allowance()? else {
            return Ok(None);
        };
        let mut adjusted = self.set.clone();
        for &(id, observed) in measured {
            let Some(spec) = adjusted.by_id(id) else {
                continue;
            };
            assert!(
                observed <= spec.cost,
                "underrun_reclaim expects observed ≤ declared for {id}"
            );
            assert!(observed.is_positive(), "observed cost must be positive");
            let mut spec = spec.clone();
            spec.cost = observed;
            adjusted = adjusted.with_replaced(spec);
        }
        let mut measured_session = self.rebuilt_for(adjusted);
        let Some(measured_eq) = measured_session.equitable_allowance()? else {
            return Ok(None);
        };
        Ok(Some(UnderrunReclaim {
            declared_allowance: declared.allowance,
            measured_allowance: measured_eq.allowance,
            gained: measured_eq.allowance - declared.allowance,
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::response::ResponseAnalysis;
    use crate::task::TaskBuilder;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    fn table2() -> TaskSet {
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
    fn matches_response_analysis_on_the_paper_set() {
        let set = table2();
        let mut a = Analyzer::new(&set);
        assert_eq!(a.wcrt_all().unwrap(), vec![ms(29), ms(58), ms(87)]);
        // Memoized: identical on the second call.
        assert_eq!(a.wcrt_all().unwrap(), vec![ms(29), ms(58), ms(87)]);
        assert!(a.is_feasible().unwrap());
        let report = a.report().unwrap();
        assert!(report.is_feasible());
        assert!((report.utilization - set.utilization()).abs() < 1e-12);
    }

    #[test]
    fn allowances_match_paper_and_are_memoized() {
        let mut a = Analyzer::new(&table2());
        let eq = a.equitable_allowance().unwrap().unwrap();
        assert_eq!(eq.allowance, ms(11));
        assert_eq!(eq.inflated_wcrt, vec![ms(40), ms(80), ms(120)]);
        assert_eq!(eq.base_wcrt, vec![ms(29), ms(58), ms(87)]);
        // Second call hits the memo.
        assert_eq!(a.equitable_allowance().unwrap().unwrap(), eq);
        let sa = a
            .system_allowance_with(SlackPolicy::ProtectAll)
            .unwrap()
            .unwrap();
        assert_eq!(sa.max_overrun, vec![ms(33), ms(33), ms(33)]);
        assert_eq!(
            a.cost_scaling_margin().unwrap().map(|f| (f * 1e6).round()),
            Some((120.0f64 / 87.0 * 1e6).round())
        );
    }

    #[test]
    fn warm_and_cold_sessions_agree() {
        let set = table2();
        let mut warm = AnalyzerBuilder::new(&set).build();
        let mut cold = AnalyzerBuilder::new(&set).warm_start(false).build();
        assert_eq!(
            warm.equitable_allowance().unwrap(),
            cold.equitable_allowance().unwrap()
        );
        assert_eq!(
            warm.system_allowance_with(SlackPolicy::ProtectOthers)
                .unwrap(),
            cold.system_allowance_with(SlackPolicy::ProtectOthers)
                .unwrap()
        );
        assert_eq!(
            warm.cost_scaling_margin().unwrap(),
            cold.cost_scaling_margin().unwrap()
        );
    }

    #[test]
    fn cost_perturbation_revalidates_incrementally() {
        let set = table2();
        let mut a = Analyzer::new(&set);
        a.wcrt_all().unwrap();
        // Inflate τ1 by the paper's 33 ms system slack: τ3 lands exactly
        // on its deadline, matching the from-scratch analysis.
        a.set_cost(0, ms(29 + 33));
        assert_eq!(a.wcrt(2).unwrap(), ms(120));
        assert!(a.is_feasible().unwrap());
        a.set_cost(0, ms(29 + 34));
        assert!(!a.is_feasible().unwrap());
        // Shrinking back clears the seeds and still agrees with scratch.
        a.set_cost(0, ms(29));
        assert_eq!(a.wcrt_all().unwrap(), vec![ms(29), ms(58), ms(87)]);
    }

    #[test]
    fn inflate_all_matches_scratch() {
        let set = table2();
        let mut a = Analyzer::new(&set);
        a.equitable_allowance().unwrap();
        a.inflate_all(ms(11));
        assert_eq!(a.wcrt_all().unwrap(), vec![ms(40), ms(80), ms(120)]);
        assert!(a.is_feasible().unwrap());
        a.inflate_all(ms(12));
        assert!(!a.is_feasible().unwrap());
        a.reset_costs();
        assert_eq!(a.wcrt_all().unwrap(), vec![ms(29), ms(58), ms(87)]);
    }

    #[test]
    fn admit_salvages_higher_priority_caches_and_rolls_back() {
        let mut a = Analyzer::new(&TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(200), ms(29))
                .deadline(ms(70))
                .build(),
            TaskBuilder::new(2, 18, ms(250), ms(29))
                .deadline(ms(120))
                .build(),
        ]));
        a.wcrt_all().unwrap();
        // Admit a mid-priority task: ranks shift, τ2 recomputes.
        let adm = a
            .admit(
                TaskBuilder::new(9, 19, ms(300), ms(10))
                    .deadline(ms(300))
                    .build(),
            )
            .unwrap();
        assert!(adm.is_admitted());
        assert_eq!(a.wcrt_all().unwrap(), vec![ms(29), ms(39), ms(68)]);
        // A hog is rejected and the session stays as-is.
        let rejected = a
            .admit(TaskBuilder::new(4, 17, ms(100), ms(90)).build())
            .unwrap();
        assert!(!rejected.is_admitted());
        assert_eq!(a.len(), 3);
        assert_eq!(a.wcrt_all().unwrap(), vec![ms(29), ms(39), ms(68)]);
        // Removal returns to the two-task numbers.
        a.remove(TaskId(9)).unwrap();
        assert_eq!(a.wcrt_all().unwrap(), vec![ms(29), ms(58)]);
    }

    #[test]
    fn replace_task_handles_all_parameter_kinds() {
        let set = table2();
        let mut a = Analyzer::new(&set);
        a.wcrt_all().unwrap();
        // Cost-only change.
        let mut spec = set.by_id(TaskId(1)).unwrap().clone();
        spec.cost = ms(40);
        a.replace_task(spec.clone());
        let scratch = ResponseAnalysis::new(a.task_set()).wcrt_all().unwrap();
        assert_eq!(a.wcrt_all().unwrap(), scratch);
        // Deadline-only change flips feasibility without recomputation
        // (R3 = 40 + 29 + 29 = 98 ms > 90 ms).
        let mut spec = a.task_set().by_id(TaskId(3)).unwrap().clone();
        spec.deadline = ms(90);
        a.replace_task(spec);
        assert!(!a.is_feasible().unwrap());
        // Period change triggers a rebuild and still matches scratch.
        let mut spec = a.task_set().by_id(TaskId(2)).unwrap().clone();
        spec.period = ms(300);
        a.replace_task(spec);
        let scratch = ResponseAnalysis::new(a.task_set()).wcrt_all().unwrap();
        assert_eq!(a.wcrt_all().unwrap(), scratch);
    }

    #[test]
    fn jitter_queries_match_the_jitter_module() {
        use crate::jitter::{wcrt_with_jitter, JitterModel};
        let set = table2();
        let jm = JitterModel::per_task(&set, vec![ms(3), ms(0), ms(5)]);
        let mut a = AnalyzerBuilder::new(&set).jitter(&jm).build();
        let cold: Vec<Duration> = (0..set.len())
            .map(|r| wcrt_with_jitter(&set, r, &jm).unwrap())
            .collect();
        assert_eq!(a.wcrt_all_with_jitter().unwrap(), cold);
        assert!(a.feasible_with_jitter().unwrap());
    }

    #[test]
    fn blocking_composes_with_allowance() {
        use crate::blocking::ResourceId;
        let set = table2();
        let mut rm = ResourceModel::new();
        rm.add_section(TaskId(1), ResourceId(1), ms(2));
        rm.add_section(TaskId(3), ResourceId(1), ms(7));
        let mut a = AnalyzerBuilder::new(&set).blocking(&rm).build();
        assert_eq!(a.wcrt_all().unwrap(), vec![ms(36), ms(65), ms(87)]);
        let eq = a.equitable_allowance().unwrap().unwrap();
        assert_eq!(eq.allowance, ms(11));
        assert_eq!(eq.inflated_wcrt, vec![ms(47), ms(87), ms(120)]);
    }

    #[test]
    fn polling_server_composes() {
        let set = table2();
        let a = AnalyzerBuilder::new(&set)
            .polling_server(
                9,
                ServerParams {
                    period: ms(100),
                    budget: ms(10),
                    priority: 25,
                },
            )
            .unwrap()
            .build();
        let mut a = a;
        let rank3 = a.task_set().rank_of(TaskId(3)).unwrap();
        assert_eq!(a.wcrt(rank3).unwrap(), ms(97));
        assert!(a.is_feasible().unwrap());
    }

    #[test]
    fn polling_server_preserves_configured_options() {
        use crate::blocking::ResourceId;
        let set = table2();
        let mut rm = ResourceModel::new();
        rm.add_section(TaskId(1), ResourceId(1), ms(2));
        rm.add_section(TaskId(3), ResourceId(1), ms(7));
        // Order must not matter: blocking configured before the server is
        // added still applies to the original tasks afterwards.
        let mut with_server = AnalyzerBuilder::new(&set)
            .blocking(&rm)
            .polling_server(
                9,
                ServerParams {
                    period: ms(100),
                    budget: ms(10),
                    priority: 25,
                },
            )
            .unwrap()
            .build();
        let rank1 = with_server.task_set().rank_of(TaskId(1)).unwrap();
        // τ1 keeps its 7 ms blocking term under the server's interference:
        // R1 = 29 + 7 + 10 = 46.
        assert_eq!(with_server.wcrt(rank1).unwrap(), ms(46));
        // And a jitter model survives too (server itself gets zero).
        let jm = crate::jitter::JitterModel::per_task(&set, vec![ms(3), ms(0), ms(0)]);
        let jittered = AnalyzerBuilder::new(&set)
            .jitter(&jm)
            .polling_server(
                9,
                ServerParams {
                    period: ms(100),
                    budget: ms(10),
                    priority: 25,
                },
            )
            .unwrap()
            .build();
        let rank1 = jittered.task_set().rank_of(TaskId(1)).unwrap();
        assert_eq!(jittered.jitter_of(rank1), ms(3));
        let server_rank = jittered.task_set().rank_of(TaskId(9)).unwrap();
        assert_eq!(jittered.jitter_of(server_rank), Duration::ZERO);
    }

    #[test]
    fn underrun_reclaim_matches_sensitivity() {
        let mut a = Analyzer::new(&table2());
        let r = a.underrun_reclaim(&[(TaskId(1), ms(9))]).unwrap().unwrap();
        assert_eq!(r.declared_allowance, ms(11));
        assert_eq!(r.measured_allowance.as_nanos(), 17_666_666);
    }

    #[test]
    fn divergent_levels_are_classified_not_fatal() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 10, ms(10), ms(6)).build(),
            TaskBuilder::new(2, 5, ms(10), ms(5)).build(),
        ]);
        let mut a = Analyzer::new(&set);
        assert!(matches!(
            a.wcrt(1),
            Err(AnalysisError::Divergent { task: TaskId(2) })
        ));
        assert!(!a.is_feasible().unwrap());
        assert_eq!(a.equitable_allowance().unwrap(), None);
        assert_eq!(
            a.system_allowance_with(SlackPolicy::ProtectAll).unwrap(),
            None
        );
        assert_eq!(a.cost_scaling_margin().unwrap(), None);
    }

    #[test]
    fn iteration_limit_still_guards() {
        let mut a = AnalyzerBuilder::new(&table2()).iteration_limit(1).build();
        assert!(matches!(
            a.analyze(2),
            Err(AnalysisError::IterationLimit { limit: 1, .. })
        ));
    }

    #[test]
    fn edf_session_admits_what_fp_rejects() {
        // U = 1.0, non-harmonic: RM misses (R2 = 7 > 6), EDF is exact.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 2, ms(4), ms(2)).build(),
            TaskBuilder::new(2, 1, ms(6), ms(3)).build(),
        ]);
        let mut fp = Analyzer::new(&set);
        assert!(!fp.is_feasible().unwrap());
        let mut edf = Analyzer::for_policy(&set, PolicyKind::Edf);
        assert_eq!(edf.sched_policy(), PolicyKind::Edf);
        assert!(edf.is_feasible().unwrap());
        assert!(edf.report().unwrap().is_feasible());
        // Thresholds under EDF are the relative deadlines.
        assert_eq!(edf.policy_thresholds().unwrap(), vec![ms(4), ms(6)]);
        // Zero slack at U = 1: no allowance to hand out.
        assert_eq!(
            edf.equitable_allowance().unwrap().unwrap().allowance,
            Duration::ZERO
        );
    }

    #[test]
    fn edf_allowances_on_the_paper_set() {
        let mut a = Analyzer::for_policy(&table2(), PolicyKind::Edf);
        // h(120) = 3(29 + A) ≤ 120 binds: A = 11 ms, like FP.
        let eq = a.equitable_allowance().unwrap().unwrap();
        assert_eq!(eq.allowance, ms(11));
        assert_eq!(eq.inflated_wcrt, vec![ms(70), ms(120), ms(120)]);
        // Single-task slack: 3·29 + M ≤ 120 → M = 33 ms for every task
        // (τ1 is additionally capped by D1 − C1 = 41, not binding).
        let sa = a
            .system_allowance_with(SlackPolicy::ProtectAll)
            .unwrap()
            .unwrap();
        assert_eq!(sa.max_overrun, vec![ms(33), ms(33), ms(33)]);
        // Perturbation invalidates the memo like the FP paths do.
        a.inflate_all(ms(12));
        assert!(!a.is_feasible().unwrap());
        a.reset_costs();
        assert!(a.is_feasible().unwrap());
        assert_eq!(a.equitable_allowance().unwrap().unwrap().allowance, ms(11));
    }

    #[test]
    fn edf_system_allowance_never_runs_the_fp_fixed_point() {
        // The U = 1.0 set FP rejects: an EDF session's system allowance
        // must report the policy baseline (deadlines), not FP WCRTs —
        // and must not fail just because the FP analysis would.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 2, ms(4), ms(2)).build(),
            TaskBuilder::new(2, 1, ms(6), ms(3)).build(),
        ]);
        let mut edf = Analyzer::for_policy(&set, PolicyKind::Edf);
        let sa = edf
            .system_allowance_with(SlackPolicy::ProtectAll)
            .unwrap()
            .unwrap();
        assert_eq!(sa.base_wcrt, vec![ms(4), ms(6)], "deadlines, not FP WCRTs");
        assert_eq!(sa.max_overrun, vec![Duration::ZERO, Duration::ZERO]);
    }

    #[test]
    #[should_panic(expected = "EDF analysis does not model blocking")]
    fn edf_rejects_blocking_terms() {
        let _ = AnalyzerBuilder::new(&table2())
            .blocking_terms(vec![ms(1), ms(0), ms(0)])
            .sched_policy(PolicyKind::Edf)
            .build();
    }

    #[test]
    #[should_panic(expected = "EDF analysis does not model release jitter")]
    fn edf_rejects_jitter_models() {
        let set = table2();
        let jm = crate::jitter::JitterModel::per_task(&set, vec![ms(1), ms(0), ms(0)]);
        let _ = AnalyzerBuilder::new(&set)
            .jitter(&jm)
            .sched_policy(PolicyKind::Edf)
            .build();
    }

    #[test]
    fn non_preemptive_session_adds_lp_blocking() {
        let set = table2();
        let mut np = Analyzer::for_policy(&set, PolicyKind::NonPreemptiveFp);
        // Each task is blocked by the longest lower-priority cost
        // (29 ms); τ3 has no lower-priority tasks.
        assert_eq!(np.wcrt_all().unwrap(), vec![ms(58), ms(87), ms(87)]);
        assert!(np.is_feasible().unwrap());
        // R1 = 2(29 + A) ≤ 70 now binds the equitable allowance: A = 6.
        let eq = np.equitable_allowance().unwrap().unwrap();
        assert_eq!(eq.allowance, ms(6));
        // Raising a *lower-priority* cost must invalidate τ1's memo
        // (blocking flows upward under non-preemption).
        np.set_cost(2, ms(41));
        assert_eq!(np.wcrt(0).unwrap(), ms(70));
        np.set_cost(2, ms(42));
        assert!(!np.is_feasible().unwrap());
    }

    #[test]
    fn wcrt_under_overruns_is_scratch_free() {
        let mut a = Analyzer::new(&table2());
        a.wcrt_all().unwrap();
        assert_eq!(a.wcrt_under_overruns(2, &[(0, ms(20))]).unwrap(), ms(107));
        assert_eq!(
            a.wcrt_under_overruns(2, &[(0, ms(20)), (1, ms(20))])
                .unwrap(),
            ms(127)
        );
        // Session state untouched.
        assert_eq!(a.wcrt_all().unwrap(), vec![ms(29), ms(58), ms(87)]);
    }

    #[test]
    fn overrun_search_is_not_poisoned_by_a_none_system_allowance() {
        // τ2 misses its own deadline at base (10 + 50 > 55): the
        // whole-system allowance under ProtectOthers is None (τ1's
        // search must protect τ2's hopeless deadline), but τ2's own
        // search — which exempts its deadline — still has an answer.
        // The system-allowance memo must not conflate the two.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 2, ms(100), ms(10)).build(),
            TaskBuilder::new(2, 1, ms(100), ms(50))
                .deadline(ms(55))
                .build(),
        ]);
        let direct = Analyzer::new(&set)
            .max_single_overrun_with(1, SlackPolicy::ProtectOthers)
            .unwrap();
        assert!(direct.is_some(), "τ2's own-deadline-exempt search answers");
        let mut session = Analyzer::new(&set);
        assert_eq!(
            session
                .system_allowance_with(SlackPolicy::ProtectOthers)
                .unwrap(),
            None
        );
        assert_eq!(
            session
                .max_single_overrun_with(1, SlackPolicy::ProtectOthers)
                .unwrap(),
            direct,
            "a memoized None system allowance must not shadow the per-task search"
        );
        // A Some system allowance IS reused, bit for bit.
        let mut warm = Analyzer::new(&table2());
        let sa = warm
            .system_allowance_with(SlackPolicy::ProtectAll)
            .unwrap()
            .unwrap();
        for rank in 0..3 {
            assert_eq!(
                warm.max_single_overrun_with(rank, SlackPolicy::ProtectAll)
                    .unwrap(),
                Some(sa.max_overrun[rank])
            );
        }
    }
}
