//! Global dispatch on `m > 1` cores: the engine's migrating cases
//! (placement, preemption of the policy-worst incumbent, migration,
//! per-core attribution of the trace).

mod tests {
    use crate::engine::{SimBuffers, SimConfig, Simulator};
    use crate::policy::PolicyKind;
    use crate::supervisor::NullSupervisor;
    use rtft_core::task::{TaskBuilder, TaskId, TaskSet};
    use rtft_core::time::{Duration, Instant};
    use rtft_trace::{EventKind, TraceLog};

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    fn t(v: i64) -> Instant {
        Instant::from_millis(v)
    }

    /// `set` on `cores` migrating cores, fault-free and unsupervised.
    fn run_plain_global(set: TaskSet, cores: usize, horizon: Instant) -> TraceLog {
        let mut sim = on_cores(set, cores, SimConfig::until(horizon));
        sim.run(&mut NullSupervisor);
        sim.into_trace()
    }

    fn on_cores(set: TaskSet, cores: usize, config: SimConfig) -> Simulator {
        Simulator::new_in(set, cores, config, &mut SimBuffers::new())
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
    fn two_cores_run_the_synchronous_release_in_parallel() {
        // All three Table 2 tasks release at t = 0; on two cores τ1 and
        // τ2 start immediately and τ3 waits for the first completion.
        let log = run_plain_global(table2(), 2, t(300));
        assert_eq!(log.job_end(TaskId(1), 0), Some(t(29)));
        assert_eq!(log.job_end(TaskId(2), 0), Some(t(29)));
        // τ3 starts at 29 (first core free) and ends at 58.
        assert_eq!(log.job_end(TaskId(3), 0), Some(t(58)));
        assert!(!log.any_miss());
    }

    #[test]
    fn three_cores_make_the_whole_set_independent() {
        let log = run_plain_global(table2(), 3, t(300));
        for id in [1, 2, 3] {
            assert_eq!(log.job_end(TaskId(id), 0), Some(t(29)));
        }
        assert_eq!(
            log.count(|e| matches!(e.kind, EventKind::Preempted { .. })),
            0
        );
    }

    #[test]
    fn global_fp_preempts_only_the_policy_worst_incumbent() {
        // Two cores saturated by τ3 and τ4 (low priorities); τ1 arrives
        // and must evict τ4 (the dispatch-order-last incumbent), not τ3.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 30, ms(100), ms(10))
                .offset(ms(2))
                .build(),
            TaskBuilder::new(3, 10, ms(100), ms(50)).build(),
            TaskBuilder::new(4, 8, ms(100), ms(50)).build(),
        ]);
        let log = run_plain_global(set, 2, t(100));
        let pre = log
            .find(|e| matches!(e.kind, EventKind::Preempted { .. }))
            .expect("preemption");
        assert_eq!(pre.at, t(2));
        assert!(matches!(
            pre.kind,
            EventKind::Preempted {
                task: TaskId(4),
                by: TaskId(1),
                ..
            }
        ));
    }

    #[test]
    fn migration_resumes_on_a_different_core() {
        // τ2 is preempted on core 1 by τ1's arrival, then resumes on
        // core 0 when τ3 finishes there first.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 30, ms(200), ms(40))
                .offset(ms(5))
                .build(),
            TaskBuilder::new(2, 10, ms(200), ms(20)).build(),
            TaskBuilder::new(3, 20, ms(200), ms(10)).build(),
        ]);
        let mut sim = on_cores(set, 2, SimConfig::until(t(200)));
        sim.run(&mut NullSupervisor);
        // Dispatch at t = 0: τ3 (prio 20) on core 0, τ2 (prio 10) on
        // core 1. τ1 arrives at 5 and evicts τ2. τ3 ends at 10 on core
        // 0; τ2 resumes there.
        let resumed_idx = sim
            .trace()
            .events()
            .iter()
            .position(|e| {
                matches!(
                    e.kind,
                    EventKind::Resumed {
                        task: TaskId(2),
                        ..
                    }
                )
            })
            .expect("τ2 resumes");
        assert_eq!(sim.trace().events()[resumed_idx].at, t(10));
        assert_eq!(sim.core_of(resumed_idx), Some(0), "resumed on core 0");
        let start_idx = sim
            .trace()
            .events()
            .iter()
            .position(|e| {
                matches!(
                    e.kind,
                    EventKind::JobStart {
                        task: TaskId(2),
                        ..
                    }
                )
            })
            .expect("τ2 starts");
        assert_eq!(sim.core_of(start_idx), Some(1), "started on core 1");
    }

    #[test]
    fn gedf_on_two_cores_runs_the_two_earliest_deadlines() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(100), ms(10))
                .deadline(ms(90))
                .build(),
            TaskBuilder::new(2, 15, ms(100), ms(10))
                .deadline(ms(30))
                .build(),
            TaskBuilder::new(3, 10, ms(100), ms(10))
                .deadline(ms(50))
                .build(),
        ]);
        let log = {
            let mut sim = on_cores(
                set,
                2,
                SimConfig::until(t(100)).with_policy(PolicyKind::Edf),
            );
            sim.run(&mut NullSupervisor);
            sim.into_trace()
        };
        // τ2 (deadline 30) and τ3 (deadline 50) start at 0; τ1 waits.
        assert_eq!(log.job_end(TaskId(2), 0), Some(t(10)));
        assert_eq!(log.job_end(TaskId(3), 0), Some(t(10)));
        assert_eq!(log.job_end(TaskId(1), 0), Some(t(20)));
    }

    #[test]
    fn core_tags_split_into_mergeable_logs() {
        let mut sim = on_cores(table2(), 2, SimConfig::until(t(300)));
        sim.run(&mut NullSupervisor);
        let logs = sim.core_logs();
        assert_eq!(logs.len(), 3, "two cores + the platform bucket");
        let total: usize = logs.iter().map(|(_, l)| l.events().len()).sum();
        assert_eq!(total, sim.trace().events().len());
        // Execution events all landed on a real core.
        for (c, log) in &logs[..2] {
            assert!(*c < 2);
            for e in log.events() {
                assert!(matches!(
                    e.kind,
                    EventKind::JobStart { .. }
                        | EventKind::Resumed { .. }
                        | EventKind::Preempted { .. }
                        | EventKind::JobEnd { .. }
                        | EventKind::TaskStopped { .. }
                        | EventKind::CpuIdle
                ));
            }
        }
        // The split is deterministic.
        let mut again = on_cores(table2(), 2, SimConfig::until(t(300)));
        again.run(&mut NullSupervisor);
        assert_eq!(sim.core_logs(), again.core_logs());
    }

    #[test]
    fn per_core_idle_notes_carry_their_core() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(100), ms(10)).build(),
            TaskBuilder::new(2, 10, ms(100), ms(30)).build(),
        ]);
        let mut sim = on_cores(set, 2, SimConfig::until(t(100)));
        sim.run(&mut NullSupervisor);
        let idles: Vec<(Instant, Option<usize>)> = sim
            .trace()
            .events()
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.kind, EventKind::CpuIdle))
            .map(|(i, e)| (e.at, sim.core_of(i)))
            .collect();
        // τ1 ends at 10 (core 0 idles), τ2 at 30 (core 1 idles).
        assert_eq!(idles, vec![(t(10), Some(0)), (t(30), Some(1))]);
    }

    #[test]
    fn buffered_global_runs_reuse_storage_and_match_fresh_runs() {
        let mut bufs = SimBuffers::new();
        let fresh = run_plain_global(table2(), 2, t(3000)).content_hash();
        for _ in 0..3 {
            let mut sim = Simulator::new_in(table2(), 2, SimConfig::until(t(3000)), &mut bufs);
            sim.run(&mut NullSupervisor);
            let log = sim.finish(&mut bufs);
            assert_eq!(
                log.content_hash(),
                fresh,
                "buffer reuse must not leak state"
            );
            bufs.recycle_log(log);
        }
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = on_cores(table2(), 0, SimConfig::until(t(10)));
    }
}
