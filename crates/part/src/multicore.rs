//! Multicore partitioned execution.
//!
//! Partitioned scheduling runs one independent one-core engine per core
//! over a shared virtual clock: no task migrates, so the cores never
//! interact and each core's schedule is exactly what a one-core
//! [`Simulator`](rtft_sim::engine::Simulator) produces for the core's
//! subset. The `Workbench` exploits that: every occupied core is one
//! [`Part`](crate::workbench::Part) of the placement, whose job slice is
//! an ordinary [`Scenario`] (the core's task set, the fault plan
//! restricted to it, the `@cN` label, the same
//! treatment/platform/policy), executed by the one run body
//! [`rtft_ft::harness::run_on_cores`] against the core's memoized
//! session — detectors, allowance managers and verdicts all work per
//! core without modification — and the per-core traces recombine into a
//! deterministic, core-tagged merged stream ([`rtft_trace::merge`]).
//! [`run_partitioned_buffered`] is the same part loop over a
//! caller-held [`PartitionedAnalyzer`].
//!
//! A 1-core partition's one part runs the input scenario itself, so its
//! trace is bit-for-bit the uniprocessor engine's output.

use crate::analyzer::PartitionedAnalyzer;
use crate::workbench::PlacedRun;
use rtft_ft::harness::{HarnessError, Scenario, ScenarioOutcome};
use rtft_sim::engine::SimBuffers;
use rtft_trace::merge::merged_content_hash;
use rtft_trace::TraceLog;

/// One core's slice of a partitioned run.
#[derive(Debug)]
pub struct CoreOutcome {
    /// The core index.
    pub core: usize,
    /// The uniprocessor outcome of the core's subset.
    pub outcome: ScenarioOutcome,
}

/// Everything a partitioned run produced: per-core outcomes in core
/// order, recombinable into one merged core-tagged stream.
#[derive(Debug)]
pub struct MulticoreOutcome {
    /// Per-core outcomes, ascending core index (occupied cores only).
    pub cores: Vec<CoreOutcome>,
}

impl MulticoreOutcome {
    /// The per-core `(core id, trace log)` pairs, in core order — the
    /// actual core indices, so interior empty cores leave gaps.
    pub fn logs(&self) -> Vec<(usize, &TraceLog)> {
        self.cores
            .iter()
            .map(|c| (c.core, &c.outcome.log))
            .collect()
    }

    /// Stable content hash of the whole run (all cores, core-tagged).
    pub fn merged_hash(&self) -> u64 {
        merged_content_hash(&self.logs())
    }
}

/// The label of one core's slice of a named run — the single format
/// shared by per-core scenarios, campaign digests and repro specs.
pub fn core_label(name: &str, core: usize) -> String {
    format!("{name}@c{core}")
}

/// Execute `sc` partitioned, reusing caller-held simulation storage:
/// one engine per occupied core of the session's partition, each run
/// through the one run body against the core's memoized analysis
/// session. The cores run sequentially, so one [`SimBuffers`] serves
/// them all (each core's trace is kept for the merge; the wake queue
/// and occurrence outbox carry over).
///
/// # Errors
/// [`HarnessError`] from the first core whose admission or treatment
/// analysis fails (an allocator-probed partition passes the admission
/// gate, but treatment derivation — e.g. an equitable allowance that
/// does not exist — can still reject).
///
/// # Panics
/// Panics if the session's partition does not cover `sc.set` (the
/// scenario and partition must describe the same system).
pub fn run_partitioned_buffered(
    sc: &Scenario,
    session: &mut PartitionedAnalyzer,
    bufs: &mut SimBuffers,
) -> Result<MulticoreOutcome, HarnessError> {
    let partition = session.partition();
    assert!(
        partition.len() == sc.set.len()
            && sc
                .set
                .tasks()
                .iter()
                .all(|t| partition.core_of(t.id).is_some()),
        "run_partitioned_buffered: partition and scenario disagree on the task set"
    );
    let run = PlacedRun::run(session.parts_mut(), sc, bufs, None)?;
    Ok(MulticoreOutcome {
        cores: run
            .into_parts()
            .into_iter()
            .map(|(core, outcome)| CoreOutcome { core, outcome })
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{allocate, AllocPolicy};
    use crate::partition::Partition;
    use rtft_core::policy::PolicyKind;
    use rtft_core::task::{TaskBuilder, TaskSet};
    use rtft_core::time::{Duration, Instant};
    use rtft_ft::harness::run_scenario;
    use rtft_ft::treatment::Treatment;
    use rtft_sim::fault::FaultPlan;
    use rtft_sim::stop::StopMode;
    use rtft_trace::merge::merge_core_traces;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    fn run_partitioned(
        sc: &Scenario,
        session: &mut PartitionedAnalyzer,
    ) -> Result<MulticoreOutcome, HarnessError> {
        run_partitioned_buffered(sc, session, &mut SimBuffers::new())
    }

    /// Every core's `tasks` of its outcome, across the run.
    fn across(
        multi: &MulticoreOutcome,
        tasks: impl Fn(&ScenarioOutcome) -> Vec<rtft_core::task::TaskId>,
    ) -> Vec<rtft_core::task::TaskId> {
        multi.cores.iter().flat_map(|c| tasks(&c.outcome)).collect()
    }

    fn paper_set() -> TaskSet {
        TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(200), ms(29))
                .deadline(ms(70))
                .build(),
            TaskBuilder::new(2, 18, ms(250), ms(29))
                .deadline(ms(120))
                .build(),
            TaskBuilder::new(3, 16, ms(1500), ms(29))
                .deadline(ms(120))
                .offset(ms(1000))
                .build(),
        ])
    }

    fn paper_fault() -> FaultPlan {
        FaultPlan::none().overrun(rtft_core::task::TaskId(1), 5, ms(40))
    }

    #[test]
    fn one_core_partitioned_run_is_bit_identical_to_the_uniprocessor_engine() {
        for treatment in [
            Treatment::NoDetection,
            Treatment::DetectOnly,
            Treatment::SystemAllowance {
                mode: StopMode::Permanent,
                policy: rtft_core::allowance::SlackPolicy::ProtectAll,
            },
        ] {
            let sc = Scenario::new(
                "uni",
                paper_set(),
                paper_fault(),
                treatment,
                Instant::from_millis(1300),
            )
            .with_jrate_timers();
            let direct = run_scenario(&sc).unwrap();
            let mut session = PartitionedAnalyzer::new(
                Partition::single_core(&sc.set),
                PolicyKind::FixedPriority,
            );
            let multi = run_partitioned(&sc, &mut session).unwrap();
            assert_eq!(multi.cores.len(), 1);
            assert_eq!(
                multi.cores[0].outcome.log, direct.log,
                "{treatment:?}: 1-core partitioned trace must equal the uniprocessor trace"
            );
        }
    }

    #[test]
    fn partitioned_cores_do_not_interfere() {
        // τ1's fault on core 0 cannot delay the core-1 tasks: their
        // schedule equals a solo run of core 1's subset.
        let set = paper_set();
        let p = allocate(
            &set,
            2,
            PolicyKind::FixedPriority,
            AllocPolicy::WorstFitDecreasing,
        )
        .unwrap();
        let tau1_core = p.core_of(rtft_core::task::TaskId(1)).unwrap();
        let other: Vec<usize> = p.occupied_cores().filter(|&c| c != tau1_core).collect();
        assert!(
            !other.is_empty(),
            "WFD must spread three tasks over two cores"
        );

        let sc = Scenario::new(
            "split",
            set.clone(),
            paper_fault(),
            Treatment::NoDetection,
            Instant::from_millis(1300),
        );
        let mut session = PartitionedAnalyzer::new(p.clone(), PolicyKind::FixedPriority);
        let multi = run_partitioned(&sc, &mut session).unwrap();
        for &core in &other {
            let solo = run_scenario(&Scenario::new(
                "solo",
                p.core_set(core).unwrap().clone(),
                FaultPlan::none(),
                Treatment::NoDetection,
                Instant::from_millis(1300),
            ))
            .unwrap();
            let run = multi.cores.iter().find(|c| c.core == core).unwrap();
            assert_eq!(run.outcome.log, solo.log, "core {core} saw interference");
        }
        // And the fault's damage stays on τ1's core: the paper fault
        // overloads a lone core far less than the shared one, so no
        // collateral failure exists at all here.
        assert!(across(&multi, ScenarioOutcome::collateral_failures).is_empty());
    }

    #[test]
    fn merged_stream_is_chronological_and_core_tagged() {
        let set = paper_set();
        let p = allocate(
            &set,
            2,
            PolicyKind::FixedPriority,
            AllocPolicy::WorstFitDecreasing,
        )
        .unwrap();
        let sc = Scenario::new(
            "merge",
            set,
            FaultPlan::none(),
            Treatment::DetectOnly,
            Instant::from_millis(1300),
        );
        let mut session = PartitionedAnalyzer::new(p, PolicyKind::FixedPriority);
        let multi = run_partitioned(&sc, &mut session).unwrap();
        let merged = merge_core_traces(&multi.logs());
        assert_eq!(
            merged.len(),
            multi
                .cores
                .iter()
                .map(|c| c.outcome.log.len())
                .sum::<usize>()
        );
        for w in merged.windows(2) {
            assert!(
                w[0].event.at <= w[1].event.at,
                "merge must be chronological"
            );
        }
        assert!(merged.iter().any(|e| e.core == 0));
        assert!(merged.iter().any(|e| e.core == 1));
        assert_eq!(multi.merged_hash(), multi.merged_hash());
    }

    #[test]
    fn treatments_stop_faulty_tasks_per_core() {
        // The paper fault under immediate stop, split over two cores:
        // τ1 is stopped on its own core, every other task passes.
        let set = paper_set();
        let p = allocate(
            &set,
            2,
            PolicyKind::FixedPriority,
            AllocPolicy::WorstFitDecreasing,
        )
        .unwrap();
        let sc = Scenario::new(
            "stop",
            set,
            paper_fault(),
            Treatment::ImmediateStop {
                mode: StopMode::Permanent,
            },
            Instant::from_millis(1300),
        );
        let mut session = PartitionedAnalyzer::new(p, PolicyKind::FixedPriority);
        let multi = run_partitioned(&sc, &mut session).unwrap();
        assert_eq!(
            across(&multi, |o| o.verdict.failed_tasks()),
            vec![rtft_core::task::TaskId(1)]
        );
        assert!(across(&multi, ScenarioOutcome::collateral_failures).is_empty());
        let stops: usize = multi
            .cores
            .iter()
            .map(|c| c.outcome.log.stops().len())
            .sum();
        assert_eq!(stops, 1, "exactly the faulty job is stopped");
    }
}
