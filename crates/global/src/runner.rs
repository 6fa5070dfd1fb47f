//! The global scenario runner: task set × fault plan × treatment →
//! core-tagged trace, on `m` migrating cores.
//!
//! This is the `m`-core case of the one run body,
//! `rtft_ft::harness::run_on_cores`: the same admission gate, detector
//! grid, supervised simulation and trace reduction as a uniprocessor
//! run, on `m` cores of the one engine (one shared ready structure,
//! free migration), with the treatments parameterized from the
//! sufficient-only [`GlobalAnalyzer`] (its `Recipe` impl) instead of the
//! exact uniprocessor analysis.
//!
//! The admission gate is strict: a set the sufficient test cannot prove
//! maps to [`HarnessError::InfeasibleBase`] and never runs. That keeps
//! the differential-oracle contract crisp — every global job that
//! *does* run is analysis-feasible, so an observed deadline miss is a
//! hard oracle violation rather than expected noise.
//!
//! Treatment mapping (global flavours of the paper's Figures 3–7):
//!
//! - **NoDetection / DetectOnly / ImmediateStop** — thresholds are the
//!   baseline stop bounds ([`GlobalAnalyzer::stop_thresholds_at`] with a
//!   zero allowance): the Bertogna–Cirinei response bound where the
//!   fixed point converges, the deadline elsewhere.
//! - **EquitableAllowance** — the uniform allowance is the largest `A`
//!   for which the inflated set still passes the sufficient test
//!   ([`GlobalAnalyzer::equitable_allowance`]); thresholds are the
//!   inflated bounds. `None` (no provable slack) is `InfeasibleBase`.
//! - **SystemAllowance** — per-rank maxima come from
//!   [`GlobalAnalyzer::max_single_overrun`]. The paper's
//!   [`SlackPolicy`](rtft_core::allowance::SlackPolicy) parameter is
//!   ignored: the global bound already charges the overrun against
//!   every lower-priority task on every core, so the only sound grant
//!   policy is protect-all.

use rtft_ft::harness::{run_on_cores, HarnessError, Scenario, ScenarioOutcome};
use rtft_sim::engine::SimBuffers;
use rtft_trace::TraceLog;

use crate::analyzer::GlobalAnalyzer;

/// Everything a global run produced: the merged scenario outcome plus
/// its per-core split.
#[derive(Debug)]
pub struct GlobalOutcome {
    /// The merged, core-tagged outcome (trace, stats, verdicts and the
    /// analysis numbers that parameterized the run).
    pub outcome: ScenarioOutcome,
    /// The per-core projections of the trace, ascending core index,
    /// with one extra trailing log (index `cores`) holding the
    /// platform-level events (releases, deadline checks, `SimEnd`).
    /// Folding these with [`rtft_trace::merge::merged_content_hash`]
    /// gives the run's trace hash; trace exporters persist them
    /// core-tagged. Empty on one core, whose trace is the flat
    /// `outcome.log`.
    pub core_logs: Vec<(usize, TraceLog)>,
}

/// Run a scenario on the session's migrating cores against a
/// caller-held [`GlobalAnalyzer`] session — the memoized bounds and
/// allowances are then shared across scenarios, exactly as the
/// uniprocessor harness shares its `Analyzer` — reusing caller-held
/// simulation storage (see `rtft_ft::harness::run_scenario_buffered`
/// for the recycling contract — it is identical here). The
/// `rtft-part` `Workbench` runs a global job through the same body.
///
/// # Errors
/// [`HarnessError::InfeasibleBase`] when the sufficient test does not
/// prove the set (or finds no allowance the treatment needs).
///
/// # Panics
/// Panics if `session` analyses a different task set, or was built for
/// a different scheduling policy, than the scenario.
pub fn run_global_buffered(
    sc: &Scenario,
    session: &mut GlobalAnalyzer,
    bufs: &mut SimBuffers,
) -> Result<GlobalOutcome, HarnessError> {
    let cores = session.cores();
    let (outcome, core_logs) = run_on_cores(sc, session, cores, bufs, None)?;
    Ok(GlobalOutcome { outcome, core_logs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::task::{TaskBuilder, TaskId, TaskSet};
    use rtft_core::time::Duration;
    use rtft_core::time::Instant;
    use rtft_ft::treatment::Treatment;
    use rtft_sim::fault::FaultPlan;
    use rtft_sim::stop::StopMode;
    use rtft_trace::event::EventKind;
    use rtft_trace::merge::merged_content_hash;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    /// A run on `cores` cores against a throwaway session.
    fn run_global(sc: &Scenario, cores: usize) -> Result<GlobalOutcome, HarnessError> {
        let mut session = GlobalAnalyzer::new(sc.set.clone(), cores, sc.policy);
        run_global_buffered(sc, &mut session, &mut SimBuffers::new())
    }

    /// The run's trace hash: the fold over its per-core projections.
    fn merged_hash(out: &GlobalOutcome) -> u64 {
        let logs: Vec<(usize, &TraceLog)> = out.core_logs.iter().map(|(c, l)| (*c, l)).collect();
        merged_content_hash(&logs)
    }

    /// The paper's lineup with costs halved to 14 ms — provable by the
    /// sufficient bound at m = 2 (the full 29 ms costs are not).
    fn provable_set() -> TaskSet {
        TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(200), ms(14))
                .deadline(ms(70))
                .build(),
            TaskBuilder::new(2, 18, ms(250), ms(14))
                .deadline(ms(120))
                .build(),
            TaskBuilder::new(3, 16, ms(1500), ms(14))
                .deadline(ms(120))
                .build(),
        ])
    }

    fn scenario(treatment: Treatment) -> Scenario {
        Scenario::new(
            "global",
            provable_set(),
            FaultPlan::none().overrun(TaskId(1), 3, ms(30)),
            treatment,
            Instant::from_millis(2000),
        )
    }

    #[test]
    fn unproven_base_is_rejected_before_running() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(100), ms(90)).build(),
            TaskBuilder::new(2, 18, ms(100), ms(90)).build(),
            TaskBuilder::new(3, 16, ms(100), ms(90)).build(),
        ]);
        let sc = Scenario::new(
            "overloaded",
            set,
            FaultPlan::none(),
            Treatment::DetectOnly,
            Instant::from_millis(1000),
        );
        assert_eq!(
            run_global(&sc, 2).unwrap_err(),
            HarnessError::InfeasibleBase
        );
    }

    #[test]
    fn detect_only_runs_and_reports_the_injected_task() {
        let out = run_global(&scenario(Treatment::DetectOnly), 2).unwrap();
        // Two cores plus the trailing platform-level log.
        assert_eq!(out.core_logs.len(), 3);
        assert_eq!(out.outcome.injected_faulty, vec![TaskId(1)]);
        assert!(out
            .outcome
            .log
            .events()
            .iter()
            .any(|e| matches!(e.kind, EventKind::DetectorRelease { .. })));
        // The analysis numbers that parameterized the run are echoed.
        assert_eq!(out.outcome.analysis.thresholds, out.outcome.analysis.wcrt);
    }

    #[test]
    fn equitable_inflates_thresholds_above_baseline() {
        let out = run_global(
            &scenario(Treatment::EquitableAllowance {
                mode: StopMode::Permanent,
            }),
            2,
        )
        .unwrap();
        let eq = out.outcome.analysis.equitable.expect("provable slack");
        assert!(eq.is_positive());
        for (t, w) in out
            .outcome
            .analysis
            .thresholds
            .iter()
            .zip(&out.outcome.analysis.wcrt)
        {
            assert!(t >= w, "inflated threshold must dominate the baseline");
        }
    }

    #[test]
    fn system_allowance_ignores_slack_policy() {
        use rtft_core::allowance::SlackPolicy;
        let a = run_global(
            &scenario(Treatment::SystemAllowance {
                mode: StopMode::Permanent,
                policy: SlackPolicy::ProtectAll,
            }),
            2,
        )
        .unwrap();
        let b = run_global(
            &scenario(Treatment::SystemAllowance {
                mode: StopMode::Permanent,
                policy: SlackPolicy::ProtectOthers,
            }),
            2,
        )
        .unwrap();
        assert_eq!(
            a.outcome.analysis.system_allowance,
            b.outcome.analysis.system_allowance
        );
        assert_eq!(merged_hash(&a), merged_hash(&b));
    }

    #[test]
    fn one_core_run_hashes_its_flat_log() {
        let sc = scenario(Treatment::DetectOnly);
        let out = run_global(&sc, 1).unwrap();
        assert!(out.core_logs.is_empty(), "one core keeps no split");
        assert!(!out.outcome.log.is_empty());
        assert_eq!(
            out.outcome.log.content_hash(),
            run_global(&sc, 1).unwrap().outcome.log.content_hash()
        );
    }

    #[test]
    fn merged_hash_matches_a_replayed_run() {
        let sc = scenario(Treatment::ImmediateStop {
            mode: StopMode::Permanent,
        });
        let a = run_global(&sc, 2).unwrap();
        let b = run_global(&sc, 2).unwrap();
        assert_eq!(merged_hash(&a), merged_hash(&b));
        assert_eq!(a.outcome.log.events(), b.outcome.log.events());
    }
}
