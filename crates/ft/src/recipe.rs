//! The certification recipe: what a run of a job arms, and what it
//! certifies at Δmax (the largest injected overrun).
//!
//! The one run body ([`crate::harness::run_on_cores`], before a run),
//! the campaign oracle and trace replay (after it) all ask one
//! [`Recipe`] session, so their answers cannot drift apart:
//! [`Recipe::baseline`] gates admission and yields the per-rank
//! baseline, [`Recipe::detection`] maps a treatment to detector
//! thresholds, [`Recipe::system_allowance`] yields the maxima a live
//! run's allowance manager grants, and [`Recipe::certify`] yields the
//! response bound every completed job must respect when `Δmax` stays
//! within the equitable allowance `A` — or the [`OracleSkip`] reason
//! none applies.
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

/// One analysis session's answers to the certification recipe. See the
/// [module docs](self).
pub trait Recipe {
    /// The task set the session analyses.
    fn task_set(&self) -> &TaskSet;

    /// Scheduling policy the session analyses under.
    fn policy(&self) -> PolicyKind;

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

    /// The per-rank system-allowance maxima `M_i` the allowance manager
    /// grants under `policy` ([`HarnessError::InfeasibleBase`] when the
    /// set admits none).
    fn system_allowance(&mut self, policy: SlackPolicy) -> Result<Vec<Duration>, HarnessError>;

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

    /// The exact uniprocessor search under `policy`.
    fn system_allowance(&mut self, policy: SlackPolicy) -> Result<Vec<Duration>, HarnessError> {
        Ok(self
            .system_allowance_with(policy)?
            .ok_or(HarnessError::InfeasibleBase)?
            .max_overrun)
    }
}
