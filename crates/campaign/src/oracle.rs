//! The differential sim-vs-analysis oracle.
//!
//! The analysis (PR 1's [`Analyzer`]) and the simulator model the same
//! system independently; where their domains overlap they must agree,
//! and every campaign job can cheaply check that they do:
//!
//! > If every injected delta stays within the admitted equitable
//! > allowance `A`, then every *completed* job's observed response time
//! > is at most the WCRT of the system with all costs inflated by the
//! > largest injected delta.
//!
//! Why that is the right bound, for any treatment:
//!
//! * every job's execution demand in the simulator is `C_i + δ` with
//!   `δ ≤ Δmax`, so the fixed point of the inflated recurrence bounds
//!   every response regardless of the interleaving;
//! * treatments only ever *stop* jobs — a stopped job has no completion
//!   (so no observed response) and only removes interference from the
//!   remaining jobs, keeping the bound conservative;
//! * `Δmax ≤ A` guarantees the inflated analysis converges (the
//!   equitable-allowance search admitted exactly that inflation);
//! * the polled-stop model can never make a job consume more than its
//!   demand (the engine caps a doomed job's extra runtime at its
//!   remaining work), so stop mechanics never break the bound.
//!
//! The oracle is therefore **not applicable** only when the platform
//! charges scheduling overheads ([`rtft_sim::overhead::Overheads`]) —
//! those add demand the
//! analysis does not model — and **not certifying** when `Δmax > A`
//! (there the detectors, not the bound, are the specified behaviour:
//! see `crates/sim/tests/differential_oracle.rs`).
//!
//! The certificate follows the job's scheduling policy (the session is
//! built for it): under the fixed-priority policies the bound is the
//! (Δmax-inflated) WCRT — with the lower-priority blocking term for
//! non-preemptive dispatch — while under EDF the demand test certifies
//! nothing tighter than "done by the deadline", so the bound *is* the
//! relative deadline: the equitable-allowance search admitted exactly
//! the Δmax inflation, hence the inflated system is demand-feasible and
//! every completed job must respond within `D_i`.
//!
//! The bound itself — the overheads skip, the `Δmax = 0` shortcut, the
//! equitable-allowance gate, the EDF shortcut and the inflated analysis
//! — is [`Recipe::certify`], the one certification recipe the runners
//! arm their detectors from and `rtft replay` checks traces against.
//! [`check`] and [`check_global`] are the same body over the
//! uniprocessor and the global session; the campaign engine asks it
//! with whichever session its workbench placed the run on.

use crate::spec::JobSpec;
use rtft_core::analyzer::Analyzer;
use rtft_core::task::TaskId;
use rtft_core::time::Duration;
use rtft_ft::harness::ScenarioOutcome;
pub use rtft_ft::recipe::OracleSkip;
use rtft_ft::recipe::Recipe;
use rtft_sim::fault::FaultPlan;
use rtft_trace::TraceStats;

/// One observed response above the certified bound — an analysis/sim
/// disagreement, minimized to a replayable spec.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct OracleViolation {
    /// Job index in the expanded grid.
    pub job_index: usize,
    /// Offending task.
    pub task: TaskId,
    /// Offending job of that task.
    pub job: u64,
    /// Observed response time.
    pub observed: Duration,
    /// Certified WCRT bound at the inflation `Δmax`.
    pub bound: Duration,
    /// The inflation the bound was computed at.
    pub dmax: Duration,
    /// A standalone one-job campaign spec reproducing the violation.
    pub repro: String,
}

impl std::fmt::Display for OracleViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "grid job {}: {:?} job {} responded in {} > bound {} (Δmax = {})",
            self.job_index, self.task, self.job, self.observed, self.bound, self.dmax
        )
    }
}

/// Outcome of the oracle on one job.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OracleOutcome {
    /// The oracle was not run (campaign had it off).
    NotRun,
    /// Checked clean: `checked` completed jobs all within the bound.
    Clean {
        /// Completed jobs compared against the bound.
        checked: usize,
    },
    /// Not checked, with the reason.
    Skipped(OracleSkip),
    /// Bound violations found.
    Violated(Vec<OracleViolation>),
}

impl OracleOutcome {
    /// `true` iff the job was actually compared against a bound.
    pub fn was_checked(&self) -> bool {
        matches!(
            self,
            OracleOutcome::Clean { .. } | OracleOutcome::Violated(_)
        )
    }

    /// The violations, when any.
    pub fn violations(&self) -> &[OracleViolation] {
        match self {
            OracleOutcome::Violated(v) => v,
            _ => &[],
        }
    }
}

/// Largest positive injected delta of a plan — [`FaultPlan::max_overrun`].
pub fn max_overrun(plan: &FaultPlan) -> Duration {
    plan.max_overrun()
}

/// Run the oracle on one executed job. `session` must be the analysis
/// session for the job's task set (its caches are reused and restored).
pub fn check(job: &JobSpec, outcome: &ScenarioOutcome, session: &mut Analyzer) -> OracleOutcome {
    check_part(job, outcome, session)
}

/// Run the oracle on one executed *global* job. `session` must be the
/// global analysis session for the job's task set and core count.
///
/// The global runner only ever executes systems the sufficient test
/// *proved*, so the bound is unconditionally certified for the jobs
/// that run — an observed response above it is a hard analysis/sim
/// disagreement, never expected pessimism. (Pessimism shows up
/// upstream, as jobs that refuse to run at all.)
pub fn check_global(
    job: &JobSpec,
    outcome: &ScenarioOutcome,
    session: &mut rtft_global::GlobalAnalyzer,
) -> OracleOutcome {
    check_part(job, outcome, session)
}

/// The one oracle body: certify the run's baseline at the plan's
/// `Δmax`, then compare every completion against the bound. `session`
/// is the analysis session behind the run (or behind one core's slice
/// of a partitioned run, with `job` restricted to that core).
pub(crate) fn check_part(
    job: &JobSpec,
    outcome: &ScenarioOutcome,
    session: &mut (impl Recipe + ?Sized),
) -> OracleOutcome {
    let dmax = job.faults.max_overrun();
    let overheads_free = job.platform.overheads.is_free();
    let bounds = match session.certify(&outcome.analysis.wcrt, dmax, overheads_free) {
        Ok(bounds) => bounds,
        Err(skip) => return OracleOutcome::Skipped(skip),
    };
    let violations = collect_violations(job, &outcome.stats, &bounds, dmax);
    if violations.is_empty() {
        let checked = outcome
            .stats
            .jobs()
            .filter(|j| j.response().is_some())
            .count();
        OracleOutcome::Clean { checked }
    } else {
        OracleOutcome::Violated(violations)
    }
}

fn collect_violations(
    job: &JobSpec,
    stats: &TraceStats,
    bounds: &[Duration],
    dmax: Duration,
) -> Vec<OracleViolation> {
    let mut violations = Vec::new();
    for record in stats.jobs() {
        let Some(response) = record.response() else {
            continue;
        };
        let Some(rank) = job.set.rank_of(record.task) else {
            continue; // not a task of the set (defensive)
        };
        let bound = bounds[rank];
        if response > bound {
            violations.push(OracleViolation {
                job_index: job.index,
                task: record.task,
                job: record.job,
                observed: response,
                bound,
                dmax,
                repro: job.repro_spec(),
            });
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{parse_spec, JobSpec};
    use rtft_ft::harness::run_scenario_with;

    fn one_job(text: &str) -> JobSpec {
        parse_spec(text)
            .unwrap()
            .expand()
            .unwrap()
            .into_iter()
            .next()
            .unwrap()
    }

    #[test]
    fn paper_fault_free_run_is_clean() {
        let job = one_job("taskgen paper\nfaults none\ntreatment detect\nplatform exact\n");
        let mut session = Analyzer::new(&job.set);
        let outcome = run_scenario_with(&job.scenario(), &mut session).unwrap();
        let result = check(&job, &outcome, &mut session);
        assert!(
            matches!(result, OracleOutcome::Clean { checked } if checked > 0),
            "{result:?}"
        );
    }

    #[test]
    fn in_allowance_fault_is_certified_by_the_inflated_bound() {
        // Δ = 11 ms is exactly the paper system's equitable allowance.
        let job = one_job(
            "horizon 1300ms\ntaskgen paper\nfaults single task=1 job=5 overrun=11ms\n\
             treatment none\nplatform exact\n",
        );
        let mut session = Analyzer::new(&job.set);
        let outcome = run_scenario_with(&job.scenario(), &mut session).unwrap();
        let result = check(&job, &outcome, &mut session);
        assert!(result.was_checked(), "{result:?}");
        assert!(result.violations().is_empty(), "{result:?}");
    }

    #[test]
    fn out_of_allowance_fault_is_not_certified() {
        let job = one_job(
            "horizon 1300ms\ntaskgen paper\nfaults paper\ntreatment none\nplatform exact\n",
        );
        let mut session = Analyzer::new(&job.set);
        let outcome = run_scenario_with(&job.scenario(), &mut session).unwrap();
        // The paper's Δ = 40 ms > A = 11 ms.
        let result = check(&job, &outcome, &mut session);
        assert_eq!(result, OracleOutcome::Skipped(OracleSkip::OutOfAllowance));
    }

    #[test]
    fn charged_overheads_disable_the_oracle() {
        let job =
            one_job("taskgen paper\nfaults none\ntreatment detect\nplatform exact dispatch=1ms\n");
        let mut session = Analyzer::new(&job.set);
        let outcome = run_scenario_with(&job.scenario(), &mut session).unwrap();
        assert_eq!(
            check(&job, &outcome, &mut session),
            OracleOutcome::Skipped(OracleSkip::Overheads)
        );
    }

    #[test]
    fn session_costs_are_restored_after_a_check() {
        let job = one_job(
            "horizon 1300ms\ntaskgen paper\nfaults single task=1 job=5 overrun=5ms\n\
             treatment detect\nplatform exact\n",
        );
        let mut session = Analyzer::new(&job.set);
        let before = session.wcrt_all().unwrap();
        let outcome = run_scenario_with(&job.scenario(), &mut session).unwrap();
        let _ = check(&job, &outcome, &mut session);
        assert_eq!(session.wcrt_all().unwrap(), before);
    }
}
