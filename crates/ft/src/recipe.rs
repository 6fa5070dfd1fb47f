//! The per-part analysis recipe: what a run of a job arms, what it
//! certifies at Δmax (the largest injected overrun), and the per-rank
//! rows the query plane renders.
//!
//! A placement is a list of parts, each answered by one [`Recipe`]
//! session: the whole set on a uniprocessor or global platform, one
//! core's subset under partitioning. The one run body
//! ([`crate::harness::run_on_cores`], before a run), the campaign oracle
//! and trace replay (after it) ask the same session, so their answers
//! cannot drift apart: [`Recipe::baseline`] gates admission and yields
//! the per-rank baseline, [`Recipe::detection`] maps a treatment to
//! detector thresholds, [`Recipe::system_allowance`] yields the maxima a
//! live run's allowance manager grants, and [`Recipe::certify`] yields
//! the response bound every completed job must respect when `Δmax`
//! stays within the equitable allowance `A` — or the [`OracleSkip`]
//! reason none applies. The query plane's `Workbench` answers every
//! query kind from the same parts: [`Recipe::overloaded`] and
//! [`Recipe::admits`] for feasibility, the `*_rows` methods for per-task
//! answers, [`Recipe::equitable`], [`Recipe::protect_all_overrun`] and
//! [`Recipe::scaling_margin`] for the searches.
//!
//! Implemented here for the exact uniprocessor [`Analyzer`] and in
//! `rtft_global` for the sufficient-only `GlobalAnalyzer`.

use crate::harness::HarnessError;
use crate::treatment::Treatment;
use rtft_core::allowance::SlackPolicy;
use rtft_core::analyzer::Analyzer;
use rtft_core::error::AnalysisError;
use rtft_core::policy::PolicyKind;
use rtft_core::task::TaskSet;
use rtft_core::time::Duration;

/// Why a run is not held to a certified response bound.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum OracleSkip {
    /// The platform charges overheads the analysis does not model.
    Overheads,
    /// The fault plan exceeds the admitted allowance (`Δmax > A`, or no
    /// allowance exists) — the bound is not guaranteed there.
    OutOfAllowance,
    /// The inflated analysis failed (divergence past the allowance
    /// search's own precision, or an analysis error).
    Analysis(String),
}

impl std::fmt::Display for OracleSkip {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OracleSkip::Overheads => f.write_str("charged overheads"),
            OracleSkip::OutOfAllowance => f.write_str("fault plan exceeds the admitted allowance"),
            OracleSkip::Analysis(e) => f.write_str(e),
        }
    }
}

/// One part's analysis session: its certification recipe and its
/// per-rank query rows. See the [module docs](self).
pub trait Recipe {
    /// The task set the session analyses.
    fn task_set(&self) -> &TaskSet;

    /// Scheduling policy the session analyses under.
    fn policy(&self) -> PolicyKind;

    /// Cores of the one engine the session's part runs on: one for a
    /// uniprocessor session, `m` for a shared-queue global one.
    fn engine_cores(&self) -> usize {
        1
    }

    /// The admission gate ([`HarnessError::InfeasibleBase`] when the base
    /// system is not admitted), then the per-rank baseline thresholds.
    fn baseline(&mut self) -> Result<Vec<Duration>, HarnessError>;

    /// The equitable allowance `A` (`None` when the set admits none).
    fn allowance(&mut self) -> Result<Option<Duration>, AnalysisError>;

    /// `A` together with the per-rank thresholds of the system with
    /// every cost inflated by it.
    fn equitable(&mut self) -> Result<Option<(Duration, Vec<Duration>)>, AnalysisError>;

    /// Per-rank response bounds with every cost inflated by `dmax`; the
    /// session's costs are left as they were.
    fn inflated(&mut self, dmax: Duration) -> Result<Vec<Duration>, AnalysisError>;

    /// Is the set statically overloaded (a necessary condition already
    /// fails, so no analysis can admit it)?
    fn overloaded(&mut self) -> bool;

    /// The admission test: does the session's feasibility test accept
    /// the set?
    fn admits(&mut self) -> Result<bool, AnalysisError>;

    /// Per-rank WCRTs (`None` where no per-task bound exists or the
    /// level diverges).
    fn wcrt_rows(&mut self) -> Result<Vec<Option<Duration>>, AnalysisError>;

    /// Per-rank detection thresholds (`None` where the level diverges).
    fn threshold_rows(&mut self) -> Result<Vec<Option<Duration>>, AnalysisError>;

    /// Per-rank system-allowance maxima `M_i` under `policy` (all `None`
    /// when the set admits none).
    fn system_allowance_rows(
        &mut self,
        policy: SlackPolicy,
    ) -> Result<Vec<Option<Duration>>, AnalysisError>;

    /// The largest overrun of the task at `rank` alone that keeps every
    /// deadline (protect-all); `None` when the set admits none.
    fn protect_all_overrun(&mut self, rank: usize) -> Result<Option<Duration>, AnalysisError>;

    /// The critical cost-scaling factor (`None` for an unadmitted set).
    fn scaling_margin(&mut self) -> Result<Option<f64>, AnalysisError>;

    /// The per-rank system-allowance maxima `M_i` the allowance manager
    /// grants under `policy` ([`HarnessError::InfeasibleBase`] when the
    /// set admits none).
    fn system_allowance(&mut self, policy: SlackPolicy) -> Result<Vec<Duration>, HarnessError> {
        self.system_allowance_rows(policy)?
            .into_iter()
            .collect::<Option<Vec<Duration>>>()
            .ok_or(HarnessError::InfeasibleBase)
    }

    /// The detector thresholds `treatment` arms over `baseline` (empty
    /// under [`Treatment::NoDetection`]) and the equitable allowance
    /// they are inflated by ([`HarnessError::InfeasibleBase`] when the
    /// equitable treatment finds none).
    fn detection(
        &mut self,
        treatment: Treatment,
        baseline: &[Duration],
    ) -> Result<(Vec<Duration>, Option<Duration>), HarnessError> {
        match treatment {
            Treatment::NoDetection => Ok((Vec::new(), None)),
            Treatment::DetectOnly
            | Treatment::ImmediateStop { .. }
            | Treatment::SystemAllowance { .. } => Ok((baseline.to_vec(), None)),
            Treatment::EquitableAllowance { .. } => {
                let (allowance, thresholds) =
                    self.equitable()?.ok_or(HarnessError::InfeasibleBase)?;
                Ok((thresholds, Some(allowance)))
            }
        }
    }

    /// The certified per-rank response bound when every injected overrun
    /// is at most `dmax`, or why none applies: charged overheads, `dmax`
    /// beyond the equitable allowance, or a failed inflated analysis.
    fn certify(
        &mut self,
        baseline: &[Duration],
        dmax: Duration,
        overheads_free: bool,
    ) -> Result<Vec<Duration>, OracleSkip> {
        if !overheads_free {
            return Err(OracleSkip::Overheads);
        }
        // Fault-free (or pure under-runs): the baseline bounds every
        // response.
        if dmax.is_zero() {
            return Ok(baseline.to_vec());
        }
        let analysis = |e: AnalysisError| OracleSkip::Analysis(e.to_string());
        match self.allowance().map_err(analysis)? {
            Some(allowance) if dmax <= allowance => {}
            _ => return Err(OracleSkip::OutOfAllowance),
        }
        if self.policy() == PolicyKind::Edf {
            // Deadlines do not move under inflation; admitting Δmax
            // means the inflated system stays demand-feasible, so the
            // baseline deadline bounds keep holding.
            return Ok(baseline.to_vec());
        }
        self.inflated(dmax).map_err(analysis)
    }
}

impl Recipe for Analyzer {
    fn task_set(&self) -> &TaskSet {
        Analyzer::task_set(self)
    }

    fn policy(&self) -> PolicyKind {
        self.sched_policy()
    }

    /// Exact WCRT test for FP, WCRT-with-blocking for non-preemptive FP,
    /// processor-demand test for EDF; the baseline is
    /// [`Analyzer::policy_thresholds`].
    fn baseline(&mut self) -> Result<Vec<Duration>, HarnessError> {
        if !self.is_feasible()? {
            return Err(HarnessError::InfeasibleBase);
        }
        self.policy_thresholds().map_err(|e| match e {
            AnalysisError::Divergent { .. } => HarnessError::InfeasibleBase,
            e => e.into(),
        })
    }

    fn allowance(&mut self) -> Result<Option<Duration>, AnalysisError> {
        Ok(self.equitable_allowance()?.map(|eq| eq.allowance))
    }

    fn equitable(&mut self) -> Result<Option<(Duration, Vec<Duration>)>, AnalysisError> {
        Ok(self
            .equitable_allowance()?
            .map(|eq| (eq.allowance, eq.inflated_wcrt)))
    }

    fn inflated(&mut self, dmax: Duration) -> Result<Vec<Duration>, AnalysisError> {
        self.inflate_all(dmax);
        let inflated = self.policy_thresholds();
        self.reset_costs();
        inflated
    }

    /// `U > 1` on the session's set.
    fn overloaded(&mut self) -> bool {
        self.task_set().utilization() > 1.0
    }

    /// Exact WCRT test for FP, WCRT-with-blocking for non-preemptive FP,
    /// processor-demand test for EDF.
    fn admits(&mut self) -> Result<bool, AnalysisError> {
        self.is_feasible()
    }

    /// The exact WCRTs; EDF yields no per-task bound.
    fn wcrt_rows(&mut self) -> Result<Vec<Option<Duration>>, AnalysisError> {
        if self.sched_policy() == PolicyKind::Edf {
            return Ok(vec![None; self.len()]);
        }
        (0..self.len())
            .map(|rank| match self.wcrt(rank) {
                Ok(w) => Ok(Some(w)),
                Err(AnalysisError::Divergent { .. }) => Ok(None),
                Err(e) => Err(e),
            })
            .collect()
    }

    /// The WCRTs, or the relative deadlines under EDF.
    fn threshold_rows(&mut self) -> Result<Vec<Option<Duration>>, AnalysisError> {
        if self.sched_policy() != PolicyKind::Edf {
            return self.wcrt_rows();
        }
        Ok(self.policy_thresholds()?.into_iter().map(Some).collect())
    }

    /// The exact uniprocessor search under `policy`.
    fn system_allowance_rows(
        &mut self,
        policy: SlackPolicy,
    ) -> Result<Vec<Option<Duration>>, AnalysisError> {
        let sa = self.system_allowance_with(policy)?;
        Ok((0..self.len())
            .map(|rank| sa.as_ref().map(|sa| sa.max_overrun[rank]))
            .collect())
    }

    fn protect_all_overrun(&mut self, rank: usize) -> Result<Option<Duration>, AnalysisError> {
        self.max_single_overrun_with(rank, SlackPolicy::ProtectAll)
    }

    fn scaling_margin(&mut self) -> Result<Option<f64>, AnalysisError> {
        self.cost_scaling_margin()
    }
}
