//! Integration tests for the paper's §7 future-work extensions: dynamic
//! admission, under-run reclamation, resource blocking, aperiodic
//! servers — all exercised through the public API and cross-checked
//! against the executable simulator where applicable.

use rtft::prelude::*;
use rtft_core::blocking::{allowance_with_blocking, wcrt_with_blocking, ResourceId, ResourceModel};
use rtft_core::server::{admit_polling_server, polling_server_response, ServerParams};
use rtft_core::task::{TaskBuilder, TaskId, TaskSet};
use rtft_core::time::{Duration, Instant};
use rtft_ft::dynamic::{run_epochs, DynamicSystem, EpochChange};
use rtft_ft::underrun::{suggest_reassignment, ObservedCosts};

fn ms(v: i64) -> Duration {
    Duration::millis(v)
}

fn paper_set() -> TaskSet {
    rtft::taskgen::paper::table2()
}

#[test]
fn dynamic_admission_lifecycle() {
    let mut sys = DynamicSystem::new();
    // Build the paper system incrementally.
    for spec in paper_set().tasks() {
        let plan = sys.admit(spec.clone()).unwrap();
        assert!(plan.is_some(), "{} must be admitted", spec.name);
    }
    let plan = sys.plan().unwrap();
    assert_eq!(
        plan.wcrt.iter().map(|d| d.as_millis()).collect::<Vec<_>>(),
        vec![29, 58, 87]
    );
    assert_eq!(plan.equitable, Some(ms(11)));

    // A fourth task squeezes the allowance.
    let extra = TaskBuilder::new(9, 17, ms(500), ms(20))
        .deadline(ms(500))
        .build();
    let with_extra = sys.admit(extra).unwrap().unwrap();
    assert!(with_extra.equitable.unwrap() < ms(11));

    // Removing it restores the original tolerance.
    let restored = sys.remove(TaskId(9)).unwrap();
    assert_eq!(restored.equitable, Some(ms(11)));
}

#[test]
fn dynamic_epochs_with_treatment() {
    let base = paper_set();
    let changes = vec![
        (EpochChange::Reset(base), FaultPlan::none()),
        (
            EpochChange::Add(TaskBuilder::new(4, 19, ms(400), ms(15)).build()),
            FaultPlan::none().overrun(TaskId(1), 1, ms(60)),
        ),
    ];
    let outs = run_epochs(
        &changes,
        ms(1_200),
        Treatment::EquitableAllowance {
            mode: StopMode::JobOnly,
        },
        TimerModel::EXACT,
        PolicyKind::FixedPriority,
    )
    .unwrap();
    assert!(outs[0].verdict.all_ok());
    // The faulty τ1 job is stopped at its (newly computed) inflated WCRT;
    // nobody else is harmed despite the mid-life admission.
    assert_eq!(outs[1].verdict.failed_tasks(), vec![TaskId(1)]);
    assert!(outs[1].collateral_failures().is_empty());
}

#[test]
fn underrun_measurement_feeds_reassignment() {
    let set = paper_set();
    let mut faults = FaultPlan::none();
    for job in 0..15 {
        faults = faults.underrun(TaskId(2), job, ms(15)); // τ2 runs 14 ms
    }
    let mut sim = Simulator::new(set.clone(), SimConfig::until(Instant::from_millis(3_000)))
        .with_faults(faults);
    let mut sup = NullSupervisor;
    sim.run(&mut sup);
    let observed = ObservedCosts::from_log(sim.trace());
    assert_eq!(observed.max_cost(TaskId(2)), Some(ms(14)));
    let reclaim = suggest_reassignment(&set, &observed, ms(1))
        .unwrap()
        .unwrap();
    assert_eq!(reclaim.declared_allowance, ms(11));
    // τ2 measured at 14 (+1 margin): R3 base = 29+15+29 = 73 →
    // A ≤ (120−73)/3 = 15.666 ms.
    assert!(reclaim.measured_allowance > ms(15));
    assert!(reclaim.measured_allowance < ms(16));
}

#[test]
fn blocking_shrinks_allowance_end_to_end() {
    let set = paper_set();
    let mut rm = ResourceModel::new();
    rm.add_section(TaskId(1), ResourceId(1), ms(2));
    rm.add_section(TaskId(3), ResourceId(1), ms(7));
    let blocked = wcrt_with_blocking(&set, &rm).unwrap();
    assert_eq!(blocked, vec![ms(36), ms(65), ms(87)]);
    let eq = allowance_with_blocking(&set, &rm).unwrap().unwrap();
    // τ3 still binds: A stays 11, but τ1/τ2 stop thresholds carry B.
    assert_eq!(eq.allowance, ms(11));
    assert_eq!(eq.inflated_wcrt, vec![ms(47), ms(87), ms(120)]);
}

#[test]
fn polling_server_hosts_aperiodics_next_to_paper_system() {
    let set = paper_set();
    let params = ServerParams {
        period: ms(100),
        budget: ms(10),
        priority: 25,
    };
    let with_server = admit_polling_server(&set, 9, params).unwrap().unwrap();
    assert_eq!(with_server.len(), 4);
    // The application tasks stay feasible under the server's interference.
    let report = Analyzer::new(&with_server).report().unwrap();
    assert!(report.is_feasible());
    // Aperiodic response bound for a 25 ms request: 3 chunks.
    let rank = with_server.rank_of(TaskId(9)).unwrap();
    assert_eq!(
        polling_server_response(&with_server, rank, ms(25)).unwrap(),
        ms(310)
    );
    // And the combined set still executes cleanly.
    let log = run_plain(with_server, Instant::from_millis(3_000));
    assert!(!log.any_miss());
}

#[test]
fn rtsj_runtime_end_to_end_with_all_treatments() {
    use rtft::rtsj::prelude::*;
    for treatment in Treatment::paper_lineup() {
        let mut rt = RtsjRuntime::new();
        rt.use_jrate_timers();
        rt.set_treatment(treatment);
        let t1 = rt
            .start(
                "tau1",
                PriorityParameters::new(20),
                PeriodicParameters::new(ms(0), ms(200), ms(29), ms(70)),
            )
            .unwrap()
            .unwrap();
        let t2 = rt
            .start(
                "tau2",
                PriorityParameters::new(18),
                PeriodicParameters::new(ms(0), ms(250), ms(29), ms(120)),
            )
            .unwrap()
            .unwrap();
        let t3 = rt
            .start(
                "tau3",
                PriorityParameters::new(16),
                PeriodicParameters::new(ms(1000), ms(1500), ms(29), ms(120)),
            )
            .unwrap()
            .unwrap();
        rt.inject_overrun(t1, 5, ms(40));
        let report = rt.run_for(ms(1300)).unwrap();
        match treatment {
            Treatment::NoDetection | Treatment::DetectOnly => {
                assert_eq!(report.missed_deadlines(t3), 1, "{treatment}");
            }
            _ => {
                assert!(report.was_stopped(t1), "{treatment}");
                assert_eq!(report.missed_deadlines(t2), 0, "{treatment}");
                assert_eq!(report.missed_deadlines(t3), 0, "{treatment}");
            }
        }
    }
}
