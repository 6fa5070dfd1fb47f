//! Differential property tests: the simulator against the analysis.
//!
//! Two independent models of the same mathematics must agree wherever
//! their domains overlap:
//!
//! * for random UUniFast systems whose fault plans stay **within** the
//!   admitted equitable allowance, no simulated response may exceed the
//!   analyzer's (inflated-)WCRT bound — checked by the campaign
//!   engine's differential oracle over a four-axis random grid;
//! * for overruns **beyond** the detection threshold, the detectors
//!   must flag the faulty job (the paper's §4 mechanism).

use rtft_campaign::prelude::*;
use rtft_core::analyzer::Analyzer;
use rtft_core::time::{Duration, Instant};
use rtft_ft::harness::run_scenario_with;
use rtft_ft::treatment::Treatment;
use rtft_sim::fault::FaultPlan;
use rtft_taskgen::{DeadlineKind, GeneratorConfig};

fn ms(v: i64) -> Duration {
    Duration::millis(v)
}

/// The one-job campaign spec a lone scenario runs as: 1 core, exact
/// platform.
fn lone_job(sc: &rtft_ft::harness::Scenario) -> JobSpec {
    JobSpec {
        index: 0,
        set_ordinal: 0,
        set_label: sc.name.clone(),
        set: std::sync::Arc::new(sc.set.clone()),
        policy: sc.policy,
        cores: 1,
        placement: rtft_core::query::Placement::Partitioned,
        alloc: rtft_core::query::AllocPolicy::FirstFitDecreasing,
        fault_label: "explicit".to_string(),
        faults: sc.faults.clone(),
        treatment: sc.treatment,
        platform: PlatformSpec::EXACT,
        horizon: sc.horizon,
    }
}

/// The random grid: 112 systems × 3 policies × 3 fault plans ×
/// 2 treatments × 2 platforms = 4032 scenarios.
fn random_grid() -> CampaignSpec {
    let uunifast = |n: usize, utilization: f64, seeds: (u64, u64)| SetSource::UUniFast {
        n,
        utilization,
        cap: 0.8,
        periods: (ms(20), ms(150)),
        deadlines: DeadlineKind::Implicit,
        seeds,
    };
    CampaignSpec {
        name: "differential-oracle".to_string(),
        policies: rtft_core::policy::PolicyKind::ALL.to_vec(),
        cores: Vec::new(),
        placements: Vec::new(),
        allocs: Vec::new(),
        sets: vec![
            uunifast(3, 0.45, (0, 28)),
            uunifast(4, 0.60, (100, 128)),
            uunifast(5, 0.70, (200, 228)),
            uunifast(6, 0.50, (300, 328)),
        ],
        faults: vec![
            FaultSource::None,
            FaultSource::Random {
                probability: 0.04,
                magnitude: (Duration::millis(1), Duration::millis(4)),
                jobs_per_task: 24,
                seeds: (0, 2),
            },
        ],
        treatments: vec![
            Treatment::DetectOnly,
            Treatment::EquitableAllowance {
                mode: rtft_sim::stop::StopMode::Permanent,
            },
        ],
        platforms: vec![PlatformSpec::EXACT, PlatformSpec::jrate()],
        horizon: Instant::from_millis(600),
        oracle: true,
    }
}

#[test]
fn oracle_runs_clean_over_a_thousand_random_scenarios() {
    let spec = random_grid();
    let report = run_campaign(&spec, &RunConfig::default()).expect("grid expands");
    assert!(
        report.jobs.len() >= 1000,
        "grid too small: {}",
        report.jobs.len()
    );
    assert!(
        report.oracle_clean(),
        "sim-vs-analysis violations:\n{}",
        report.render()
    );
    // The oracle must have genuinely certified the bulk of the grid —
    // not skipped it.
    assert!(
        report.oracle_checked >= 800,
        "only {} of {} jobs were checked ({} out-of-allowance, {} skipped)",
        report.oracle_checked,
        report.jobs.len(),
        report.oracle_out_of_allowance,
        report.oracle_skipped
    );
    // Nothing in this grid charges overheads, so nothing may be skipped
    // for any reason other than exceeding the allowance.
    assert_eq!(report.oracle_skipped, 0);
}

#[test]
fn out_of_allowance_overruns_are_flagged_by_the_detectors() {
    let mut flagged = 0;
    for seed in 0..25u64 {
        let set = GeneratorConfig::new(3)
            .with_utilization(0.5)
            .with_periods(ms(20), ms(100))
            .generate(seed);
        let mut session = Analyzer::new(&set);
        let Ok(wcrt) = session.wcrt_all() else {
            continue;
        };
        if (0..set.len()).any(|r| wcrt[r] > set.by_rank(r).deadline) {
            continue; // infeasible base — the harness rejects it anyway
        }
        let allowance = session
            .equitable_allowance()
            .expect("analysis converges")
            .map_or(Duration::ZERO, |eq| eq.allowance);
        // An overrun past both the detection threshold (WCRT) and the
        // allowance: the victim's own demand exceeds its threshold, so
        // even running alone it cannot finish before the detector looks.
        let victim = set.by_rank(0).clone();
        let delta = (wcrt[0] - victim.cost).max(allowance) + ms(5);
        let faults = FaultPlan::none().overrun(victim.id, 0, delta);

        let sc = rtft_ft::harness::Scenario::new(
            format!("oob-{seed}"),
            set.clone(),
            faults,
            Treatment::DetectOnly,
            Instant::EPOCH + victim.period,
        );
        let outcome = run_scenario_with(&sc, &mut session).expect("feasible base");
        assert!(
            outcome
                .log
                .faults()
                .iter()
                .any(|(task, job, _)| *task == victim.id && *job == 0),
            "seed {seed}: Δ = {delta} past the threshold must be flagged\n{:?}",
            outcome.log.faults()
        );
        // And the oracle refuses to certify it: Δ exceeds the allowance.
        let oracle = run_single(&lone_job(&sc), true)
            .expect("feasible base")
            .oracle;
        assert!(
            !oracle.was_checked(),
            "seed {seed}: Δ = {delta} > A = {allowance} cannot be certified"
        );
        flagged += 1;
    }
    assert!(flagged >= 15, "too few feasible systems: {flagged}");
}

#[test]
fn allowance_boundary_is_certified_exactly() {
    // Δ = A is the largest certifiable overrun: the oracle must accept
    // it (in-allowance) and the run must stay within the inflated bound.
    let mut certified = 0;
    for seed in 0..15u64 {
        let set = GeneratorConfig::new(4)
            .with_utilization(0.55)
            .with_periods(ms(20), ms(120))
            .generate(seed);
        let mut session = Analyzer::new(&set);
        if session.wcrt_all().is_err() {
            continue;
        }
        let Ok(Some(eq)) = session.equitable_allowance() else {
            continue;
        };
        if !eq.allowance.is_positive() {
            continue;
        }
        let victim = set.by_rank(0).clone();
        let sc = rtft_ft::harness::Scenario::new(
            format!("boundary-{seed}"),
            set.clone(),
            FaultPlan::none().overrun(victim.id, 1, eq.allowance),
            Treatment::DetectOnly,
            Instant::from_millis(500),
        );
        let Ok(SingleRun { oracle, .. }) = run_single(&lone_job(&sc), true) else {
            continue;
        };
        assert!(
            oracle.was_checked(),
            "seed {seed}: Δ = A = {} must be in-allowance",
            eq.allowance
        );
        assert!(oracle.violations().is_empty(), "seed {seed}");
        certified += 1;
    }
    assert!(certified >= 8, "too few certifiable systems: {certified}");
}
