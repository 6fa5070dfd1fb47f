//! The memoized global-analysis session: one [`GlobalAnalyzer`] per
//! `(set, cores, policy)`. It is the one part of a global placement: the
//! query-plane `Workbench`, the runners, the campaign oracle and replay
//! all ask it through the [`Recipe`] trait, exactly as they ask the
//! uniprocessor session of each other placement's parts.
//!
//! The verdict, response bounds and every allowance search are computed
//! once and cached; the searches are binary searches over the
//! *sufficient* test of [`crate::bounds`], so every answer inherits its
//! polarity — an allowance here is a proof, an absent allowance only
//! means "unproven".

use crate::bounds;
use rtft_core::allowance::SlackPolicy;
use rtft_core::error::AnalysisError;
use rtft_core::policy::PolicyKind;
use rtft_core::task::TaskSet;
use rtft_core::time::Duration;
use rtft_ft::harness::HarnessError;
use rtft_ft::recipe::Recipe;

/// The memoized feasibility verdict of a global session.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct GlobalVerdict {
    /// The sufficient test accepted the set (a schedulability proof).
    pub feasible: bool,
    /// The necessary envelope already fails (`U > m` or a density
    /// above 1) — a sound *in*feasibility proof.
    pub overloaded: bool,
    /// Total utilization of the set.
    pub utilization: f64,
}

/// A memoized global-schedulability session over one task set on `m`
/// identical cores. See the [module docs](self).
#[derive(Debug)]
pub struct GlobalAnalyzer {
    set: TaskSet,
    cores: usize,
    policy: PolicyKind,
    costs: Vec<Duration>,
    verdict: Option<GlobalVerdict>,
    wcrt: Option<Vec<Option<Duration>>>,
    equitable: Option<Option<Duration>>,
    overruns: Vec<Option<Option<Duration>>>,
    margin: Option<Option<f64>>,
}

impl GlobalAnalyzer {
    /// A session for `set` under `policy` on `cores` cores. Nothing is
    /// computed until the first question.
    pub fn new(set: TaskSet, cores: usize, policy: PolicyKind) -> Self {
        assert!(cores >= 1, "a platform needs at least one core");
        let costs: Vec<Duration> = set.tasks().iter().map(|t| t.cost).collect();
        let n = set.len();
        GlobalAnalyzer {
            set,
            cores,
            policy,
            costs,
            verdict: None,
            wcrt: None,
            equitable: None,
            overruns: vec![None; n],
            margin: None,
        }
    }

    /// The task set under analysis.
    pub fn task_set(&self) -> &TaskSet {
        &self.set
    }

    /// The platform's core count.
    pub fn cores(&self) -> usize {
        self.cores
    }

    /// The memoized feasibility verdict.
    pub fn verdict(&mut self) -> GlobalVerdict {
        if let Some(v) = self.verdict {
            return v;
        }
        let (utilization, _) = bounds::load(&self.set, &self.costs);
        let v = GlobalVerdict {
            feasible: bounds::schedulable(&self.set, &self.costs, self.cores, self.policy),
            overloaded: !bounds::envelope(&self.set, &self.costs, self.cores),
            utilization,
        };
        self.verdict = Some(v);
        v
    }

    /// Did the sufficient test accept the set?
    pub fn is_feasible(&mut self) -> bool {
        self.verdict().feasible
    }

    /// Per-rank response-time *upper bounds*: the Bertogna–Cirinei
    /// fixed point under global FP, `None` rows under EDF (the density
    /// condition yields no per-task bound) and non-preemptive FP.
    pub fn wcrt_bounds(&mut self) -> &[Option<Duration>] {
        if self.wcrt.is_none() {
            let rows = match self.policy {
                PolicyKind::FixedPriority => (0..self.set.len())
                    .map(|rank| {
                        bounds::gfp_response_bound(&self.set, &self.costs, self.cores, rank)
                    })
                    .collect(),
                PolicyKind::Edf | PolicyKind::NonPreemptiveFp => vec![None; self.set.len()],
            };
            self.wcrt = Some(rows);
        }
        self.wcrt.as_deref().expect("just filled")
    }

    /// Does the sufficient test still accept with every cost inflated
    /// by `delta`?
    fn accepts_inflated(&self, delta: Duration) -> bool {
        let probe: Vec<Duration> = self.costs.iter().map(|c| c.saturating_add(delta)).collect();
        bounds::schedulable(&self.set, &probe, self.cores, self.policy)
    }

    /// The global analogue of the paper's §4.2 equitable allowance:
    /// the largest uniform cost inflation `A` the sufficient test still
    /// accepts (every task may overrun by `A` simultaneously, proven).
    /// `None` when the base set is already unproven.
    pub fn equitable_allowance(&mut self) -> Option<Duration> {
        if let Some(memo) = self.equitable {
            return memo;
        }
        let answer = if self.is_feasible() {
            Some(self.search(
                |s, delta| s.accepts_inflated(delta),
                self.set.max_deadline(),
            ))
        } else {
            None
        };
        self.equitable = Some(answer);
        answer
    }

    /// The global analogue of the paper's §4.3 system allowance `M_i`:
    /// the largest overrun of task `rank` *alone* the sufficient test
    /// still accepts. `None` when the base set is unproven.
    pub fn max_single_overrun(&mut self, rank: usize) -> Option<Duration> {
        if let Some(memo) = self.overruns[rank] {
            return memo;
        }
        let answer = if self.is_feasible() {
            let cap = self.set.by_rank(rank).deadline;
            Some(self.search(
                |s, delta| {
                    let mut probe = s.costs.clone();
                    probe[rank] = probe[rank].saturating_add(delta);
                    bounds::schedulable(&s.set, &probe, s.cores, s.policy)
                },
                cap,
            ))
        } else {
            None
        };
        self.overruns[rank] = Some(answer);
        answer
    }

    /// Detection thresholds once every cost is inflated by `allowance`:
    /// the GFP response bounds at the inflated costs where they exist,
    /// the relative deadline otherwise (and always, under EDF).
    pub fn stop_thresholds_at(&mut self, allowance: Duration) -> Vec<Duration> {
        let probe: Vec<Duration> = self
            .costs
            .iter()
            .map(|c| c.saturating_add(allowance))
            .collect();
        (0..self.set.len())
            .map(|rank| {
                let deadline = self.set.by_rank(rank).deadline;
                if self.policy == PolicyKind::FixedPriority {
                    bounds::gfp_response_bound(&self.set, &probe, self.cores, rank)
                        .unwrap_or(deadline)
                } else {
                    deadline
                }
            })
            .collect()
    }

    /// The critical cost-scaling factor under the sufficient test: the
    /// largest multiplier `f` with every cost scaled by `f` still
    /// accepted (`None` when the base set is unproven). Factors are
    /// resolved to one part in 2^32 by bisection.
    pub fn cost_scaling_margin(&mut self) -> Option<f64> {
        if let Some(memo) = self.margin {
            return memo;
        }
        let answer = if self.is_feasible() {
            let accepts = |s: &Self, f: f64| {
                let probe: Vec<Duration> = s
                    .costs
                    .iter()
                    .map(|c| Duration::nanos((c.as_nanos() as f64 * f).ceil() as i64))
                    .collect();
                bounds::schedulable(&s.set, &probe, s.cores, s.policy)
            };
            // The largest window/cost ratio bounds any feasible factor.
            let hi_cap = (0..self.set.len())
                .map(|rank| {
                    bounds::window(&self.set, rank).as_nanos() as f64
                        / self.costs[rank].as_nanos().max(1) as f64
                })
                .fold(f64::INFINITY, f64::min)
                .max(1.0)
                + 1.0;
            let (mut lo, mut hi) = (1.0f64, hi_cap);
            for _ in 0..48 {
                let mid = (lo + hi) / 2.0;
                if accepts(self, mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            Some(lo)
        } else {
            None
        };
        self.margin = Some(answer);
        answer
    }

    /// Largest `delta` in `[0, cap]` nanoseconds accepted by `probe`
    /// (which must accept 0 — callers gate on [`Self::is_feasible`]).
    fn search(&self, probe: impl Fn(&Self, Duration) -> bool, cap: Duration) -> Duration {
        if probe(self, cap) {
            return cap;
        }
        let (mut lo, mut hi) = (0i64, cap.as_nanos());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if probe(self, Duration::nanos(mid)) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Duration::nanos(lo)
    }
}

/// The global flavour of the certification recipe: the sufficient test
/// gates admission, and every threshold is a stop bound of
/// [`GlobalAnalyzer::stop_thresholds_at`] — the Bertogna–Cirinei fixed
/// point where it converges, the deadline elsewhere (always, under EDF
/// and non-preemptive dispatch). Wherever `Δmax` is admitted by the
/// global equitable allowance the inflated set passes the sufficient
/// test, so its stop bounds hold for every completed job.
impl Recipe for GlobalAnalyzer {
    fn task_set(&self) -> &TaskSet {
        &self.set
    }

    fn policy(&self) -> PolicyKind {
        self.policy
    }

    /// The `m` migrating cores of the shared queue.
    fn engine_cores(&self) -> usize {
        self.cores
    }

    fn baseline(&mut self) -> Result<Vec<Duration>, HarnessError> {
        // Unproven systems never run.
        if !self.is_feasible() {
            return Err(HarnessError::InfeasibleBase);
        }
        Ok(self.stop_thresholds_at(Duration::ZERO))
    }

    fn allowance(&mut self) -> Result<Option<Duration>, AnalysisError> {
        Ok(self.equitable_allowance())
    }

    fn equitable(&mut self) -> Result<Option<(Duration, Vec<Duration>)>, AnalysisError> {
        Ok(self
            .equitable_allowance()
            .map(|a| (a, self.stop_thresholds_at(a))))
    }

    fn inflated(&mut self, dmax: Duration) -> Result<Vec<Duration>, AnalysisError> {
        Ok(self.stop_thresholds_at(dmax))
    }

    /// The necessary envelope fails (`U > m` or a density above 1).
    fn overloaded(&mut self) -> bool {
        self.verdict().overloaded
    }

    /// The sufficient test: `false` means "unproven".
    fn admits(&mut self) -> Result<bool, AnalysisError> {
        Ok(self.is_feasible())
    }

    fn wcrt_rows(&mut self) -> Result<Vec<Option<Duration>>, AnalysisError> {
        Ok(self.wcrt_bounds().to_vec())
    }

    /// The stop bounds at the declared costs.
    fn threshold_rows(&mut self) -> Result<Vec<Option<Duration>>, AnalysisError> {
        Ok(self
            .stop_thresholds_at(Duration::ZERO)
            .into_iter()
            .map(Some)
            .collect())
    }

    /// Per-rank [`GlobalAnalyzer::max_single_overrun`]. `SlackPolicy` is
    /// intentionally ignored: the global interference bound charges an
    /// overrun against all lower-priority work system-wide, so
    /// protect-all is the only sound grant policy.
    fn system_allowance_rows(
        &mut self,
        _policy: SlackPolicy,
    ) -> Result<Vec<Option<Duration>>, AnalysisError> {
        Ok((0..self.set.len())
            .map(|rank| self.max_single_overrun(rank))
            .collect())
    }

    fn protect_all_overrun(&mut self, rank: usize) -> Result<Option<Duration>, AnalysisError> {
        Ok(self.max_single_overrun(rank))
    }

    fn scaling_margin(&mut self) -> Result<Option<f64>, AnalysisError> {
        Ok(self.cost_scaling_margin())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::task::TaskBuilder;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    /// Twin paper system (Table 2 twice) with the costs halved to
    /// 14 ms: at the paper's full 29 ms the sufficient tests cannot
    /// prove two copies on two cores (the BC interference bound on the
    /// 70 ms-deadline tasks overflows, and Σδ ≈ 1.80 exceeds the GEDF
    /// limit 2 − δmax ≈ 1.59) even though each copy partitions cleanly
    /// — exactly the sufficient-only pessimism the crate documents.
    /// The light twins sit provably inside both tests.
    fn twin_paper_set() -> TaskSet {
        let mut specs = Vec::new();
        for base in [0u32, 10] {
            specs.push(
                TaskBuilder::new(base + 1, 20 + base as i32, ms(200), ms(14))
                    .deadline(ms(70))
                    .build(),
            );
            specs.push(
                TaskBuilder::new(base + 2, 18 + base as i32, ms(250), ms(14))
                    .deadline(ms(120))
                    .build(),
            );
            specs.push(
                TaskBuilder::new(base + 3, 16 + base as i32, ms(1500), ms(14))
                    .deadline(ms(120))
                    .build(),
            );
        }
        TaskSet::from_specs(specs)
    }

    #[test]
    fn twin_paper_system_is_gfp_feasible_on_two_cores() {
        let mut ga = GlobalAnalyzer::new(twin_paper_set(), 2, PolicyKind::FixedPriority);
        let v = ga.verdict();
        assert!(v.feasible && !v.overloaded, "{v:?}");
        assert!((v.utilization - 2.0 * (14.0 / 200.0 + 14.0 / 250.0 + 14.0 / 1500.0)).abs() < 1e-9);
        // The highest-priority task sees < m interferers: bound = C.
        assert_eq!(ga.wcrt_bounds()[0], Some(ms(14)));
        // Every bound that exists is a real upper bound ≤ D.
        for (rank, b) in ga.wcrt_bounds().to_vec().into_iter().enumerate() {
            let d = ga.task_set().by_rank(rank).deadline;
            assert!(b.is_some_and(|b| b <= d), "rank {rank}: {b:?} vs {d}");
        }
    }

    #[test]
    fn overloaded_sets_report_the_envelope_violation() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 3, ms(10), ms(9)).build(),
            TaskBuilder::new(2, 2, ms(10), ms(9)).build(),
            TaskBuilder::new(3, 1, ms(10), ms(9)).build(),
        ]);
        let mut ga = GlobalAnalyzer::new(set, 2, PolicyKind::FixedPriority);
        let v = ga.verdict();
        assert!(!v.feasible && v.overloaded);
        assert!(ga.equitable_allowance().is_none());
        assert!(ga.max_single_overrun(0).is_none());
        assert!(ga.cost_scaling_margin().is_none());
    }

    #[test]
    fn allowances_are_proofs_of_their_own_inflation() {
        let mut ga = GlobalAnalyzer::new(twin_paper_set(), 2, PolicyKind::FixedPriority);
        let a = ga.equitable_allowance().unwrap();
        assert!(a.is_positive(), "{a}");
        // Accepted at A, rejected at A + 1ns: a tight binary search.
        assert!(ga.accepts_inflated(a));
        assert!(!ga.accepts_inflated(a + Duration::NANO));
        let m0 = ga.max_single_overrun(0).unwrap();
        assert!(m0 >= a, "a single overrun has at least the shared slack");
        let f = ga.cost_scaling_margin().unwrap();
        assert!(f > 1.0, "{f}");
    }

    #[test]
    fn edf_session_has_no_per_task_bounds_but_deadline_thresholds() {
        let mut ga = GlobalAnalyzer::new(twin_paper_set(), 2, PolicyKind::Edf);
        assert!(ga.is_feasible(), "density test accepts the light twins");
        assert!(ga.wcrt_bounds().iter().all(Option::is_none));
        let deadlines = vec![ms(70), ms(120), ms(120), ms(70), ms(120), ms(120)];
        assert_eq!(ga.stop_thresholds_at(Duration::ZERO), deadlines);
        assert_eq!(ga.stop_thresholds_at(ms(5)), deadlines);
    }

    #[test]
    fn stop_thresholds_track_the_inflated_fp_bounds() {
        let mut ga = GlobalAnalyzer::new(twin_paper_set(), 2, PolicyKind::FixedPriority);
        let at_zero = ga.stop_thresholds_at(Duration::ZERO);
        assert_eq!(at_zero[0], ms(14), "rank 0 bound is its bare cost");
        let a = ga.equitable_allowance().unwrap();
        let at_a = ga.stop_thresholds_at(a);
        assert!(at_a[0] > at_zero[0]);
        for (rank, th) in at_a.iter().enumerate() {
            assert!(*th <= ga.task_set().by_rank(rank).deadline, "rank {rank}");
        }
    }

    #[test]
    fn verdict_is_memoized() {
        let mut ga = GlobalAnalyzer::new(twin_paper_set(), 2, PolicyKind::FixedPriority);
        let first = ga.verdict();
        assert_eq!(ga.verdict(), first);
        assert_eq!(ga.equitable_allowance(), ga.equitable_allowance());
        assert_eq!(ga.max_single_overrun(2), ga.max_single_overrun(2));
        assert_eq!(ga.cost_scaling_margin(), ga.cost_scaling_margin());
    }
}
