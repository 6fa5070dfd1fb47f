//! Per-core analysis sessions over a [`Partition`].
//!
//! Under partitioned scheduling every analytical question factors
//! through the cores: a task's WCRT, detector threshold or allowance
//! depends only on the tasks sharing its core. [`PartitionedAnalyzer`]
//! therefore owns one memoized uniprocessor [`Analyzer`] session per
//! occupied core — the exact session the harness, detectors and
//! differential oracle already consume. It asks nothing itself: it
//! hands each core's session out as one [`Part`] of the placement, and
//! every query and run is answered core by core from there.

use crate::partition::Partition;
use crate::workbench::Part;
use rtft_core::analyzer::Analyzer;
use rtft_core::policy::PolicyKind;

/// One memoized [`Analyzer`] session per occupied core of a partition.
#[derive(Debug)]
pub struct PartitionedAnalyzer {
    partition: Partition,
    sessions: Vec<Option<Analyzer>>,
}

impl PartitionedAnalyzer {
    /// Build the per-core sessions for `partition` under `policy`.
    pub fn new(partition: Partition, policy: PolicyKind) -> Self {
        let sessions = (0..partition.cores())
            .map(|c| {
                partition
                    .core_set(c)
                    .map(|set| Analyzer::for_policy(set, policy))
            })
            .collect();
        PartitionedAnalyzer {
            partition,
            sessions,
        }
    }

    /// The partition the sessions were built for.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// The analysis session of one core (`None` for empty cores).
    pub fn core_session_mut(&mut self, core: usize) -> Option<&mut Analyzer> {
        self.sessions.get_mut(core).and_then(Option::as_mut)
    }

    /// Every occupied core's session, cores ascending — the parts the
    /// `Workbench` hands out for a partitioned spec.
    pub fn sessions_mut(&mut self) -> impl Iterator<Item = (usize, &mut Analyzer)> {
        self.sessions
            .iter_mut()
            .enumerate()
            .filter_map(|(core, s)| s.as_mut().map(|s| (core, s)))
    }

    /// Every occupied core's session as a [`Part`], cores ascending:
    /// the core slices of a partitioned job, or — over the single-core
    /// partition — the one part that runs the whole job.
    pub fn parts_mut(&mut self) -> Vec<Part<'_>> {
        let slice = (self.partition.cores() > 1).then_some(&self.partition);
        self.sessions
            .iter_mut()
            .enumerate()
            .filter_map(|(core, s)| {
                s.as_mut().map(|session| Part {
                    core,
                    session,
                    slice,
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{allocate, AllocPolicy};
    use rtft_core::task::{TaskBuilder, TaskId, TaskSet};
    use rtft_core::time::Duration;
    use rtft_ft::recipe::Recipe;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    /// Two copies of the paper's Table 2 system (ids 1–3 and 11–13):
    /// together they overload one core's deadlines, split 1:1 across two
    /// cores each half reproduces the paper's numbers exactly.
    fn twin_paper_set() -> TaskSet {
        let mut specs = Vec::new();
        for base in [0u32, 10] {
            specs.push(
                TaskBuilder::new(base + 1, 20, ms(200), ms(29))
                    .deadline(ms(70))
                    .build(),
            );
            specs.push(
                TaskBuilder::new(base + 2, 18, ms(250), ms(29))
                    .deadline(ms(120))
                    .build(),
            );
            specs.push(
                TaskBuilder::new(base + 3, 16, ms(1500), ms(29))
                    .deadline(ms(120))
                    .build(),
            );
        }
        TaskSet::from_specs(specs)
    }

    /// Every occupied core admits its subset.
    fn all_feasible(pa: &mut PartitionedAnalyzer) -> bool {
        pa.sessions_mut()
            .all(|(_, session)| session.is_feasible().unwrap())
    }

    /// A task's WCRT row on its owning core (`None` under EDF).
    fn wcrt_of(pa: &mut PartitionedAnalyzer, id: TaskId) -> Option<Duration> {
        let core = pa.partition().core_of(id).expect("assigned task");
        let session = pa.core_session_mut(core).expect("occupied core");
        let rank = session.task_set().rank_of(id).expect("task on its core");
        session.wcrt_rows().unwrap()[rank]
    }

    #[test]
    fn per_core_analysis_reproduces_the_uniprocessor_numbers() {
        let set = twin_paper_set();
        // WFD balances the twin system 3 tasks per core.
        let p = allocate(
            &set,
            2,
            PolicyKind::FixedPriority,
            AllocPolicy::WorstFitDecreasing,
        )
        .unwrap();
        let mut pa = PartitionedAnalyzer::new(p, PolicyKind::FixedPriority);
        assert!(all_feasible(&mut pa));
        for core in 0..2 {
            assert_eq!(pa.partition().core_set(core).unwrap().len(), 3);
            let session = pa.core_session_mut(core).unwrap();
            let thresholds = session.policy_thresholds().unwrap();
            assert_eq!(thresholds, vec![ms(29), ms(58), ms(87)], "core {core}");
            // Each core's equitable allowance is the paper's A = 11 ms.
            let eq = session.equitable_allowance().unwrap().unwrap();
            assert_eq!(eq.allowance, ms(11));
            // System allowance per core: the paper's M = 33 ms.
            let sa = session.system_allowance().unwrap().unwrap();
            assert_eq!(sa.max_overrun, vec![ms(33), ms(33), ms(33)]);
        }
    }

    #[test]
    fn wcrt_follows_the_owning_core() {
        let set = twin_paper_set();
        let p = allocate(
            &set,
            2,
            PolicyKind::FixedPriority,
            AllocPolicy::WorstFitDecreasing,
        )
        .unwrap();
        let mut pa = PartitionedAnalyzer::new(p, PolicyKind::FixedPriority);
        // Both τ1 twins are their core's highest-priority task: WCRT = C.
        assert_eq!(wcrt_of(&mut pa, TaskId(1)), Some(ms(29)));
        assert_eq!(wcrt_of(&mut pa, TaskId(11)), Some(ms(29)));
    }

    #[test]
    fn edf_cores_have_no_per_task_wcrt() {
        let set = twin_paper_set();
        let p = allocate(&set, 2, PolicyKind::Edf, AllocPolicy::WorstFitDecreasing).unwrap();
        let mut pa = PartitionedAnalyzer::new(p, PolicyKind::Edf);
        assert!(all_feasible(&mut pa));
        assert_eq!(wcrt_of(&mut pa, TaskId(1)), None);
        // Thresholds fall back to deadlines per core.
        for (_, session) in pa.sessions_mut() {
            let set = session.task_set().clone();
            let thresholds = session.policy_thresholds().unwrap();
            for (rank, th) in thresholds.iter().enumerate() {
                assert_eq!(*th, set.by_rank(rank).deadline);
            }
        }
    }

    #[test]
    fn npfp_blocking_is_local_to_the_core() {
        // τ1 (C=5, D=8) over a long lower-priority task (C=10): under
        // npfp on one core τ1 can be blocked for 10 − ε and misses, so
        // the probe forces two cores; split, τ1 has no local blocker
        // and its threshold is its bare cost.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 9, ms(40), ms(5))
                .deadline(ms(8))
                .build(),
            TaskBuilder::new(2, 3, ms(100), ms(10)).build(),
        ]);
        let e = allocate(
            &set,
            1,
            PolicyKind::NonPreemptiveFp,
            AllocPolicy::FirstFitDecreasing,
        );
        assert!(e.is_err(), "npfp blocking must fail the 1-core probe");
        // The same set under preemptive fp fits one core — allocation
        // is policy-sensitive.
        assert!(allocate(
            &set,
            1,
            PolicyKind::FixedPriority,
            AllocPolicy::FirstFitDecreasing
        )
        .is_ok());
        let p = allocate(
            &set,
            2,
            PolicyKind::NonPreemptiveFp,
            AllocPolicy::FirstFitDecreasing,
        )
        .unwrap();
        let mut pa = PartitionedAnalyzer::new(p, PolicyKind::NonPreemptiveFp);
        assert!(all_feasible(&mut pa));
        assert_eq!(
            wcrt_of(&mut pa, TaskId(1)),
            Some(ms(5)),
            "no local blocker left"
        );
    }

    #[test]
    fn empty_cores_are_skipped() {
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 9, ms(100), ms(10)).build()]);
        let p = allocate(
            &set,
            3,
            PolicyKind::FixedPriority,
            AllocPolicy::FirstFitDecreasing,
        )
        .unwrap();
        let mut pa = PartitionedAnalyzer::new(p, PolicyKind::FixedPriority);
        assert!(all_feasible(&mut pa));
        assert!(pa.core_session_mut(1).is_none());
        let occupied: Vec<usize> = pa.sessions_mut().map(|(core, _)| core).collect();
        assert_eq!(occupied, vec![0]);
    }
}
