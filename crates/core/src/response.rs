//! Worst-case response-time (WCRT) analysis for fixed-priority preemptive
//! scheduling — the algorithm of the paper's Figure 2.
//!
//! The computation follows Liu & Layland (1973) generalised by Lehoczky
//! (1990) to *arbitrary deadlines* (`D_i > T_i` allowed): the response time
//! of a task is no longer necessarily maximal for the first job released at
//! the synchronous critical instant, so all jobs inside the **level-i busy
//! period** must be examined (the paper's Table 1 / Figure 1 example).
//!
//! For job `q = 0, 1, 2, …` of task `i`, the completion time measured from
//! the start of the busy period is the least fixed point of
//!
//! ```text
//! W_q(t) = (q + 1)·C_i + B_i + Σ_{j ∈ hp(i)} ⌈t / T_j⌉ · C_j
//! ```
//!
//! where `hp(i)` is the set of tasks with priority higher than or equal to
//! `τ_i`'s (excluding `τ_i` itself) and `B_i` an optional blocking term
//! (zero in the paper; see [`crate::blocking`] for the extension it lists as
//! future work). Job `q`'s response time is `R_q − q·T_i`; iteration stops
//! at the first job with `R_q ≤ (q+1)·T_i`, i.e. the first job that does not
//! push work into the next period, closing the busy period.
//!
//! All arithmetic is exact (integer nanoseconds): the fixed points and the
//! derived allowances of [`crate::allowance`] are bit-precise, unlike
//! floating-point formulations.

use crate::error::AnalysisError;
use crate::task::{TaskId, TaskSet};
use crate::time::Duration;

/// Guard on the total number of recurrence iterations per task analysis.
/// Generously above anything a sane task set needs; tripping it means the
/// set is pathological (utilization extremely close to 1 with huge period
/// spreads) and the result is reported as an error instead of hanging.
pub const DEFAULT_ITERATION_LIMIT: u64 = 4_000_000;

/// Response time of one job inside the level-i busy period.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct JobResponse {
    /// Job index within the busy period (0 = released at the critical
    /// instant).
    pub q: u64,
    /// Completion time `R_q`, measured from the start of the busy period.
    pub completion: Duration,
    /// Response time `R_q − q·T_i` of this job.
    pub response: Duration,
}

/// Full analysis outcome for one task.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TaskResponse {
    /// The analysed task.
    pub task: TaskId,
    /// Worst-case response time over all jobs of the busy period.
    pub wcrt: Duration,
    /// Index of the job attaining the worst case.
    pub worst_job: u64,
    /// Per-job detail (the series plotted in the paper's Figure 1).
    pub jobs: Vec<JobResponse>,
}

/// The one shared fixed-point engine. Both [`ResponseAnalysis`] (cold,
/// borrow-based) and [`crate::analyzer::Analyzer`] (memoized,
/// warm-started) delegate here, so the recurrence arithmetic exists in
/// exactly one place and the two paths cannot drift apart — the
/// bit-identical-results guarantee between them rests on it.
pub(crate) mod engine {
    use super::{AnalysisError, Duration, JobResponse, TaskResponse, TaskSet};

    /// Level-`rank` workload `C_i/T_i + Σ_{j ∈ hp} C_j/T_j`; strictly
    /// above 1 the busy period never closes.
    pub(crate) fn level_utilization(
        set: &TaskSet,
        costs: &[Duration],
        hp: &[usize],
        rank: usize,
    ) -> f64 {
        let own = costs[rank].as_nanos() as f64 / set.by_rank(rank).period.as_nanos() as f64;
        let interference: f64 = hp
            .iter()
            .map(|&j| costs[j].as_nanos() as f64 / set.by_rank(j).period.as_nanos() as f64)
            .sum();
        own + interference
    }

    /// Does the level-`rank` busy period provably never close? Above a
    /// workload of 1 it never does; at exactly 1 it closes only without
    /// blocking (each window then carries exactly its own demand, so a
    /// positive `B_i` is never worked off). With blocking, a workload
    /// near 1 is compared exactly: ten tasks of `U = 0.1` sum to
    /// `0.9999999999999999` in `f64` but saturate the level all the same.
    pub(crate) fn diverges(
        set: &TaskSet,
        costs: &[Duration],
        blocking_i: Duration,
        hp: &[usize],
        rank: usize,
    ) -> bool {
        let load = level_utilization(set, costs, hp, rank);
        if load > 1.0 || !blocking_i.is_positive() || load < 1.0 - 1e-9 {
            return load > 1.0;
        }
        // Σ C_j/T_j as the fraction num/den over little-endian base-2^64
        // limbs (equal lengths, so limb order compares them).
        fn mul_add(a: &[u64], m: u64, b: &[u64], k: u64) -> Vec<u64> {
            let mut carry = 0u128;
            let mut out: Vec<u64> = (0..a.len())
                .map(|i| {
                    let v = a[i] as u128 * m as u128 + b[i] as u128 * k as u128 + carry;
                    carry = v >> 64;
                    v as u64
                })
                .collect();
            out.push(carry as u64);
            out
        }
        let (mut num, mut den) = (vec![0u64], vec![1u64]);
        for &j in hp.iter().chain([&rank]) {
            let (c, t) = (
                costs[j].as_nanos() as u64,
                set.by_rank(j).period.as_nanos() as u64,
            );
            (num, den) = (mul_add(&num, t, &den, c), mul_add(&den, t, &den, 0));
        }
        num.iter().rev().ge(den.iter().rev())
    }

    /// Least fixed point of `W_q` for job `q` of `rank`, iterating from
    /// `seed` (any value at or below the fixed point is a valid start —
    /// `W_q` is monotone). When `abort_above` is set and an iterate
    /// exceeds it, that iterate is returned immediately: it is a lower
    /// bound on the true fixed point, which is all a deadline test
    /// needs.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn fixed_point(
        set: &TaskSet,
        costs: &[Duration],
        blocking_i: Duration,
        hp: &[usize],
        rank: usize,
        q: u64,
        seed: Duration,
        abort_above: Option<Duration>,
        budget: &mut u64,
        limit: u64,
    ) -> Result<Duration, AnalysisError> {
        let task = set.by_rank(rank);
        let base = costs[rank].saturating_mul(q as i64 + 1) + blocking_i;
        let mut r = seed.max(base);
        loop {
            if abort_above.is_some_and(|cap| r > cap) {
                return Ok(r);
            }
            if *budget == 0 {
                return Err(AnalysisError::IterationLimit {
                    task: task.id,
                    limit,
                });
            }
            *budget -= 1;
            let mut next = base;
            for &j in hp {
                let tj = set.by_rank(j);
                next = next.saturating_add(costs[j].saturating_mul(r.div_ceil(tj.period)));
            }
            if next == r {
                return Ok(r);
            }
            debug_assert!(next > r, "W_q must be monotone above the seed");
            r = next;
        }
    }

    /// Busy-period analysis of `rank` under `costs`: the paper's Figure 2
    /// routine. `seeds` warm-starts each job's fixed point from a
    /// previous solution (pass `&[]` for a cold start); seeding changes
    /// iteration counts, never the fixed points.
    pub(crate) fn solve_busy_period(
        set: &TaskSet,
        costs: &[Duration],
        blocking_i: Duration,
        hp: &[usize],
        rank: usize,
        seeds: &[Duration],
        limit: u64,
    ) -> Result<TaskResponse, AnalysisError> {
        solve_busy_period_bounded(set, costs, blocking_i, hp, rank, seeds, None, limit)
    }

    /// [`solve_busy_period`] with an early-abort bound for feasibility
    /// probes: as soon as some job's *response* provably exceeds
    /// `abort_above`, a truncated solution with `wcrt > abort_above` is
    /// returned instead of unrolling the rest of the busy period. Near
    /// the feasibility boundary (the allowance searches probe exactly
    /// there, and non-preemptive blocking inflates busy periods
    /// further) this turns a multi-million-job unroll into a handful of
    /// iterations. Feasible outcomes are never truncated, so any
    /// solution with `wcrt ≤ abort_above` is the exact one.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn solve_busy_period_bounded(
        set: &TaskSet,
        costs: &[Duration],
        blocking_i: Duration,
        hp: &[usize],
        rank: usize,
        seeds: &[Duration],
        abort_above: Option<Duration>,
        limit: u64,
    ) -> Result<TaskResponse, AnalysisError> {
        let task = set.by_rank(rank);
        if diverges(set, costs, blocking_i, hp, rank) {
            return Err(AnalysisError::Divergent { task: task.id });
        }
        let mut budget = limit;
        let mut jobs = Vec::new();
        let mut wcrt = Duration::ZERO;
        let mut worst_job = 0u64;
        let mut q: u64 = 0;
        let mut prev_completion = Duration::ZERO;
        loop {
            let warm = seeds.get(q as usize).copied().unwrap_or(Duration::ZERO);
            let seed = prev_completion.max(warm);
            // Translate the response cap into this job's completion cap.
            let abort_completion =
                abort_above.map(|cap| cap.saturating_add(task.period.saturating_mul(q as i64)));
            let completion = fixed_point(
                set,
                costs,
                blocking_i,
                hp,
                rank,
                q,
                seed,
                abort_completion,
                &mut budget,
                limit,
            )?;
            let response = completion - task.period.saturating_mul(q as i64);
            jobs.push(JobResponse {
                q,
                completion,
                response,
            });
            if response > wcrt {
                wcrt = response;
                worst_job = q;
            }
            if abort_above.is_some_and(|cap| response > cap) {
                break; // infeasible for the caller's test: stop unrolling
            }
            // Busy period closes at the first job finishing within its own
            // period window.
            if completion <= task.period.saturating_mul(q as i64 + 1) {
                break;
            }
            prev_completion = completion;
            q += 1;
        }
        Ok(TaskResponse {
            task: task.id,
            wcrt,
            worst_job,
            jobs,
        })
    }

    /// Length of the level-`rank` busy period: least fixed point of
    /// `L = B_i + Σ_{j ∈ hp ∪ {rank}} ⌈L/T_j⌉·C_j`.
    pub(crate) fn busy_period_length(
        set: &TaskSet,
        costs: &[Duration],
        blocking_i: Duration,
        hp: &[usize],
        rank: usize,
        limit: u64,
    ) -> Result<Duration, AnalysisError> {
        let task = set.by_rank(rank);
        if diverges(set, costs, blocking_i, hp, rank) {
            return Err(AnalysisError::Divergent { task: task.id });
        }
        let mut ranks = hp.to_vec();
        ranks.push(rank);
        let mut budget = limit;
        let mut l = costs[rank] + blocking_i;
        loop {
            if budget == 0 {
                return Err(AnalysisError::IterationLimit {
                    task: task.id,
                    limit,
                });
            }
            budget -= 1;
            let mut next = blocking_i;
            for &j in &ranks {
                let tj = set.by_rank(j);
                next = next.saturating_add(costs[j].saturating_mul(l.div_ceil(tj.period)));
            }
            if next == l {
                return Ok(l);
            }
            l = next;
        }
    }
}

/// Analysis configuration: effective costs and blocking can be overridden
/// without rebuilding the task set — this is what the allowance search of
/// [`crate::allowance`] exercises thousands of times.
#[derive(Clone, Debug)]
pub struct ResponseAnalysis<'a> {
    set: &'a TaskSet,
    costs: Vec<Duration>,
    blocking: Vec<Duration>,
    iteration_limit: u64,
}

impl<'a> ResponseAnalysis<'a> {
    /// Analysis of `set` with its declared costs and no blocking.
    pub fn new(set: &'a TaskSet) -> Self {
        ResponseAnalysis {
            costs: set.tasks().iter().map(|t| t.cost).collect(),
            blocking: vec![Duration::ZERO; set.len()],
            iteration_limit: DEFAULT_ITERATION_LIMIT,
            set,
        }
    }

    /// The task set under analysis.
    pub fn task_set(&self) -> &TaskSet {
        self.set
    }

    /// Override the effective cost of the task at `rank`.
    ///
    /// # Panics
    /// Panics if the override is not strictly positive.
    pub fn set_cost(&mut self, rank: usize, cost: Duration) {
        assert!(cost.is_positive(), "effective cost must be positive");
        self.costs[rank] = cost;
    }

    /// Add `delta` to the effective cost of every task — the uniform
    /// inflation explored by the equitable-allowance search.
    pub fn inflate_all(&mut self, delta: Duration) {
        for (rank, c) in self.costs.iter_mut().enumerate() {
            *c = self.set.by_rank(rank).cost + delta;
        }
    }

    /// Effective cost of the task at `rank`.
    pub fn cost(&self, rank: usize) -> Duration {
        self.costs[rank]
    }

    /// Set the blocking term `B_i` for the task at `rank` (priority-ceiling
    /// blocking from [`crate::blocking`]).
    pub fn set_blocking(&mut self, rank: usize, b: Duration) {
        assert!(!b.is_negative(), "blocking must be non-negative");
        self.blocking[rank] = b;
    }

    /// Replace the iteration guard (tests use small values to exercise the
    /// error path).
    pub fn set_iteration_limit(&mut self, limit: u64) {
        self.iteration_limit = limit;
    }

    /// Worst-case response time of the task at priority `rank` — the
    /// paper's Figure 2 `WCResponseTime` routine.
    ///
    /// # Errors
    /// [`AnalysisError::Divergent`] when the level-i workload exceeds the
    /// processor, [`AnalysisError::IterationLimit`] if the guard trips.
    pub fn wcrt(&self, rank: usize) -> Result<Duration, AnalysisError> {
        self.analyze(rank).map(|r| r.wcrt)
    }

    /// Full per-job analysis of the task at priority `rank`.
    pub fn analyze(&self, rank: usize) -> Result<TaskResponse, AnalysisError> {
        engine::solve_busy_period(
            self.set,
            &self.costs,
            self.blocking[rank],
            &self.set.hp_ranks(rank),
            rank,
            &[],
            self.iteration_limit,
        )
    }

    /// WCRTs of every task, in priority-rank order.
    pub fn wcrt_all(&self) -> Result<Vec<Duration>, AnalysisError> {
        (0..self.set.len()).map(|rank| self.wcrt(rank)).collect()
    }

    /// `true` iff every task's WCRT is at or below its deadline under the
    /// current effective costs.
    pub fn is_feasible(&self) -> Result<bool, AnalysisError> {
        for rank in 0..self.set.len() {
            match self.wcrt(rank) {
                Ok(w) => {
                    if w > self.set.by_rank(rank).deadline {
                        return Ok(false);
                    }
                }
                // A diverging task certainly misses its deadline.
                Err(AnalysisError::Divergent { .. }) => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    /// Length of the level-i busy period: least fixed point of
    /// `L = Σ_{j ∈ hp(i) ∪ {i}} ⌈L/T_j⌉·C_j (+ B_i)`, i.e. how long the
    /// processor stays busy at priority ≥ `P_i` after a synchronous release.
    pub fn level_busy_period(&self, rank: usize) -> Result<Duration, AnalysisError> {
        engine::busy_period_length(
            self.set,
            &self.costs,
            self.blocking[rank],
            &self.set.hp_ranks(rank),
            rank,
            self.iteration_limit,
        )
    }
}

/// Convenience: WCRT of the task at `rank` with declared costs.
pub fn wcrt(set: &TaskSet, rank: usize) -> Result<Duration, AnalysisError> {
    ResponseAnalysis::new(set).wcrt(rank)
}

/// Convenience: WCRTs of all tasks with declared costs, in rank order.
pub fn wcrt_all(set: &TaskSet) -> Result<Vec<Duration>, AnalysisError> {
    ResponseAnalysis::new(set).wcrt_all()
}

/// Convenience: full per-job analysis (paper Figure 1 data).
pub fn analyze(set: &TaskSet, rank: usize) -> Result<TaskResponse, AnalysisError> {
    ResponseAnalysis::new(set).analyze(rank)
}

/// Classic single-job recurrence, valid only when `D_i ≤ T_i` for the task
/// under analysis (Joseph & Pandya / Audsley et al.): the least fixed point
/// of `R = C_i + B_i + Σ ⌈R/T_j⌉·C_j`.
///
/// Exposed separately because it is the textbook special case; the general
/// routine [`ResponseAnalysis::wcrt`] degenerates to it when the first job
/// closes the busy period, which unit tests verify.
pub fn wcrt_constrained(set: &TaskSet, rank: usize) -> Result<Duration, AnalysisError> {
    let task = set.by_rank(rank);
    assert!(
        task.is_constrained(),
        "wcrt_constrained requires D ≤ T for {}",
        task.id
    );
    let costs: Vec<Duration> = set.tasks().iter().map(|t| t.cost).collect();
    let hp = set.hp_ranks(rank);
    if engine::level_utilization(set, &costs, &hp, rank) > 1.0 {
        return Err(AnalysisError::Divergent { task: task.id });
    }
    let mut budget = DEFAULT_ITERATION_LIMIT;
    engine::fixed_point(
        set,
        &costs,
        Duration::ZERO,
        &hp,
        rank,
        0,
        Duration::ZERO,
        None,
        &mut budget,
        DEFAULT_ITERATION_LIMIT,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskBuilder;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    /// Paper Table 1: τ1 (P20, D6, T6, C3), τ2 (P15, D2, T4, C2).
    fn table1() -> TaskSet {
        TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(6), ms(3))
                .deadline(ms(6))
                .build(),
            TaskBuilder::new(2, 15, ms(4), ms(2))
                .deadline(ms(2))
                .build(),
        ])
    }

    /// Paper Table 2: the evaluated 3-task system.
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
    fn table2_wcrt_matches_paper() {
        // Paper Table 2 column WCRT_i: 29, 58, 87 ms.
        let w = wcrt_all(&table2()).unwrap();
        assert_eq!(w, vec![ms(29), ms(58), ms(87)]);
    }

    #[test]
    fn table1_worst_case_is_not_the_first_job() {
        // The paper's Figure 1 point: for τ2 (D > T) the synchronous first
        // job is NOT the worst. Job responses are 5, 6, 4 ms; WCRT = 6 at
        // job q = 1.
        let set = table1();
        let r = analyze(&set, 1).unwrap();
        let responses: Vec<i64> = r.jobs.iter().map(|j| j.response.as_millis()).collect();
        assert_eq!(responses, vec![5, 6, 4]);
        assert_eq!(r.wcrt, ms(6));
        assert_eq!(r.worst_job, 1);
        // And the high-priority task is trivial.
        assert_eq!(wcrt(&set, 0).unwrap(), ms(3));
    }

    #[test]
    fn busy_period_of_table1_low_task() {
        // Level-2 busy period: fixed point of L = ceil(L/6)*3 + ceil(L/4)*2
        // = 12 ms (three τ2 jobs and two τ1 jobs fill [0,12)).
        let set = table1();
        let l = ResponseAnalysis::new(&set).level_busy_period(1).unwrap();
        assert_eq!(l, ms(12));
    }

    #[test]
    fn constrained_special_case_agrees_with_general() {
        let set = table2();
        for rank in 0..set.len() {
            assert_eq!(
                wcrt_constrained(&set, rank).unwrap(),
                wcrt(&set, rank).unwrap(),
                "rank {rank}"
            );
        }
    }

    #[test]
    fn divergence_detected() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 10, ms(10), ms(6)).build(),
            TaskBuilder::new(2, 5, ms(10), ms(5)).build(),
        ]);
        assert!(matches!(
            wcrt(&set, 1),
            Err(AnalysisError::Divergent { task: TaskId(2) })
        ));
        // The high-priority task alone is fine.
        assert_eq!(wcrt(&set, 0).unwrap(), ms(6));
        // And feasibility classifies the diverging set as infeasible
        // rather than erroring.
        assert!(!ResponseAnalysis::new(&set).is_feasible().unwrap());
    }

    #[test]
    fn exactly_full_utilization_converges() {
        // U = 1 exactly: busy period closes at the hyperperiod.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 10, ms(4), ms(2)).build(),
            TaskBuilder::new(2, 5, ms(8), ms(4)).deadline(ms(8)).build(),
        ]);
        let w = wcrt(&set, 1).unwrap();
        assert_eq!(w, ms(8));
    }

    #[test]
    fn iteration_limit_trips() {
        let set = table2();
        let mut a = ResponseAnalysis::new(&set);
        a.set_iteration_limit(1);
        assert!(matches!(
            a.analyze(2),
            Err(AnalysisError::IterationLimit { limit: 1, .. })
        ));
    }

    #[test]
    fn cost_overrides_feed_through() {
        let set = table2();
        let mut a = ResponseAnalysis::new(&set);
        // Inflate every cost by the paper's equitable allowance (11 ms):
        // Table 3 expects WCRTs of 40 / 80 / 120 ms.
        a.inflate_all(ms(11));
        assert_eq!(a.wcrt_all().unwrap(), vec![ms(40), ms(80), ms(120)]);
        assert!(a.is_feasible().unwrap());
        // One more millisecond and τ3 blows its 120 ms deadline.
        a.inflate_all(ms(12));
        assert!(!a.is_feasible().unwrap());
    }

    #[test]
    fn single_cost_override() {
        let set = table2();
        let mut a = ResponseAnalysis::new(&set);
        // τ1 alone inflated by 33 ms (the paper's system allowance): τ3
        // completes exactly at its 120 ms deadline.
        a.set_cost(0, ms(29 + 33));
        assert_eq!(a.wcrt(2).unwrap(), ms(120));
        assert!(a.is_feasible().unwrap());
        a.set_cost(0, ms(29 + 34));
        assert!(!a.is_feasible().unwrap());
    }

    #[test]
    fn blocking_term_shifts_response() {
        let set = table2();
        let mut a = ResponseAnalysis::new(&set);
        a.set_blocking(0, ms(5));
        assert_eq!(a.wcrt(0).unwrap(), ms(34));
        // Blocking of a low-priority task does not affect higher ones.
        assert_eq!(a.wcrt(1).unwrap(), ms(58));
    }

    #[test]
    fn equal_priorities_interfere_both_ways() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 7, ms(10), ms(2)).build(),
            TaskBuilder::new(2, 7, ms(10), ms(3)).build(),
        ]);
        // Each sees the other as interference: R1 = 2+3, R2 = 3+2.
        assert_eq!(wcrt(&set, 0).unwrap(), ms(5));
        assert_eq!(wcrt(&set, 1).unwrap(), ms(5));
    }

    #[test]
    fn highest_priority_wcrt_is_its_cost() {
        let set = table2();
        assert_eq!(wcrt(&set, 0).unwrap(), set.by_rank(0).cost);
    }

    #[test]
    fn deep_busy_period_multi_job() {
        // τ2: T=10, D=30, C=7 under τ1: T=7, C=2. Level-2 utilization
        // 7/10 + 2/7 ≈ 0.986: a long busy period with several τ2 jobs.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 9, ms(7), ms(2)).build(),
            TaskBuilder::new(2, 3, ms(10), ms(7))
                .deadline(ms(30))
                .build(),
        ]);
        let r = analyze(&set, 1).unwrap();
        // Busy period spans several jobs; every response must be consistent
        // (completion − q·T) and the reported worst must be the max.
        assert!(r.jobs.len() > 1, "expected a multi-job busy period");
        let max = r
            .jobs
            .iter()
            .map(|j| j.response)
            .fold(Duration::ZERO, Duration::max);
        assert_eq!(max, r.wcrt);
        for j in &r.jobs {
            assert_eq!(j.response, j.completion - ms(10) * (j.q as i64));
        }
    }
}
