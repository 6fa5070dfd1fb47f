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
use rtft_sim::sink::TraceSink;
use rtft_trace::merge::merged_content_hash;
use rtft_trace::TraceLog;

use crate::analyzer::GlobalAnalyzer;

/// Everything a global run produced: the merged scenario outcome plus
/// the multiprocessor-specific extras.
#[derive(Debug)]
pub struct GlobalOutcome {
    /// The merged, core-tagged outcome (trace, stats, verdicts and the
    /// analysis numbers that parameterized the run).
    pub outcome: ScenarioOutcome,
    /// Core count the scenario ran on.
    pub cores: usize,
    /// Order-insensitive hash over the per-core projections of the
    /// trace — comparable across worker counts and with a partitioned
    /// run's merged hash. Computed once, by
    /// [`rtft_trace::merge::merged_content_hash`] over `core_logs`, so
    /// the run's trace is split and hashed a single time.
    pub merged_hash: u64,
    /// The per-core projections themselves, ascending core index, with
    /// one extra trailing log (index `cores`) holding the platform-level
    /// events (releases, deadline checks, `SimEnd`). Folding these with
    /// [`rtft_trace::merge::merged_content_hash`] reproduces
    /// `merged_hash`; trace exporters persist them core-tagged. Empty on
    /// one core, whose trace is the flat `outcome.log`.
    pub core_logs: Vec<(usize, TraceLog)>,
}

/// Run a scenario on `cores` migrating cores with a throwaway analysis
/// session.
pub fn run_global(sc: &Scenario, cores: usize) -> Result<GlobalOutcome, HarnessError> {
    let mut session = GlobalAnalyzer::new(sc.set.clone(), cores, sc.policy);
    run_global_with(sc, &mut session)
}

/// Run a scenario against a caller-held [`GlobalAnalyzer`] session —
/// the memoized bounds and allowances are then shared across scenarios,
/// exactly as the uniprocessor harness shares its `Analyzer`.
///
/// # Panics
/// Panics if `session` analyses a different task set, or was built for
/// a different scheduling policy, than the scenario.
pub fn run_global_with(
    sc: &Scenario,
    session: &mut GlobalAnalyzer,
) -> Result<GlobalOutcome, HarnessError> {
    run_global_buffered(sc, session, &mut SimBuffers::new())
}

/// [`run_global_with`], reusing caller-held simulation storage (see
/// `rtft_ft::harness::run_scenario_buffered` for the recycling
/// contract — it is identical here).
///
/// # Panics
/// Panics if `session` analyses a different task set, or was built for
/// a different scheduling policy, than the scenario.
pub fn run_global_buffered(
    sc: &Scenario,
    session: &mut GlobalAnalyzer,
    bufs: &mut SimBuffers,
) -> Result<GlobalOutcome, HarnessError> {
    run_global_streamed(sc, session, bufs, None)
}

/// [`run_global_buffered`], additionally feeding every recorded event to
/// `sink` (when given) as the simulation produces it: execution events
/// arrive tagged with their executing core, platform-level events
/// (releases, detector fires, `SimEnd`) with `None` — the same
/// attribution the core-tagged trace persists (see
/// [`Simulator::core_of`](rtft_sim::engine::Simulator::core_of)). The
/// outcome is byte-identical to the unsunk run.
///
/// # Errors
/// As [`run_global`].
///
/// # Panics
/// As [`run_global_with`].
pub fn run_global_streamed(
    sc: &Scenario,
    session: &mut GlobalAnalyzer,
    bufs: &mut SimBuffers,
    sink: Option<&mut dyn TraceSink>,
) -> Result<GlobalOutcome, HarnessError> {
    let cores = session.cores();
    let (outcome, core_logs) = run_on_cores(sc, session, cores, bufs, sink)?;
    let refs: Vec<(usize, &TraceLog)> = if core_logs.is_empty() {
        // One core keeps no split: its only log is the whole trace.
        vec![(0, &outcome.log)]
    } else {
        core_logs.iter().map(|(c, l)| (*c, l)).collect()
    };
    let merged_hash = merged_content_hash(&refs);
    Ok(GlobalOutcome {
        outcome,
        cores,
        merged_hash,
        core_logs,
    })
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

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
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
        assert_eq!(out.cores, 2);
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
        assert_eq!(a.merged_hash, b.merged_hash);
    }

    #[test]
    fn one_core_run_hashes_its_flat_log() {
        let out = run_global(&scenario(Treatment::DetectOnly), 1).unwrap();
        assert_eq!(out.cores, 1);
        assert!(out.core_logs.is_empty(), "one core keeps no split");
        assert_eq!(
            out.merged_hash,
            merged_content_hash(&[(0, &out.outcome.log)])
        );
    }

    #[test]
    fn merged_hash_matches_a_replayed_run() {
        let sc = scenario(Treatment::ImmediateStop {
            mode: StopMode::Permanent,
        });
        let a = run_global(&sc, 2).unwrap();
        let b = run_global(&sc, 2).unwrap();
        assert_eq!(a.merged_hash, b.merged_hash);
        assert_eq!(a.outcome.log.events(), b.outcome.log.events());
    }
}
