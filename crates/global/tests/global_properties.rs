//! Property tests of the global sufficient analyses, in the oracle
//! direction: a set the analysis *accepts* must be sim-clean — the
//! migrating engine never misses a deadline on it — both fault-free
//! and across a randomized grid of single-fault plans gated by the
//! equitable allowance (the paper's fault model: at most one overrun
//! in any window the allowance certifies). The reverse direction is
//! deliberately untested: the analyses are sufficient-only, so a
//! rejected set that happens to run clean is pessimism, not a bug.

use proptest::prelude::*;
use rtft_core::policy::PolicyKind;
use rtft_core::task::{TaskBuilder, TaskSet};
use rtft_core::time::{Duration, Instant};
use rtft_ft::harness::Scenario;
use rtft_ft::treatment::Treatment;
use rtft_global::prelude::*;
use rtft_sim::engine::SimBuffers;
use rtft_sim::fault::FaultPlan;
use rtft_taskgen::generator::GeneratorConfig;

fn ms(v: i64) -> Duration {
    Duration::millis(v)
}

const HORIZON: i64 = 4_000;

fn gen_set(n: usize, cores: usize, utilization: f64, seed: u64) -> TaskSet {
    GeneratorConfig::multicore(n, cores)
        .with_utilization(utilization)
        .generate(seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fault-free soundness under every policy: an accepted UUniFast
    /// set never misses a deadline in the migrating engine.
    #[test]
    fn accepted_sets_are_sim_clean(
        seed in 0u64..10_000,
        cores in 2usize..=4,
        policy_ix in 0usize..3,
    ) {
        let policy = PolicyKind::ALL[policy_ix];
        let set = gen_set(6, cores, 0.45 * cores as f64, seed);
        let mut session = GlobalAnalyzer::new(set.clone(), cores, policy);
        if !session.is_feasible() {
            return Ok(()); // unproven: nothing to certify
        }
        let sc = Scenario::new(
            "prop",
            set,
            FaultPlan::none(),
            Treatment::NoDetection,
            Instant::from_millis(HORIZON),
        )
        .with_policy(policy);
        let out = run_global_buffered(&sc, &mut session, &mut SimBuffers::new()).expect("accepted sets run");
        prop_assert!(
            out.outcome.verdict.all_ok(),
            "analysis-feasible set missed under {policy:?}: {:?}",
            out.outcome.verdict.failed_tasks()
        );
    }

    /// Single-fault grid, gated exactly as the campaign oracle gates
    /// it: when the injected overrun fits the equitable allowance,
    /// every observed response stays within the inflated stop
    /// thresholds (which the allowance keeps at or below the
    /// deadlines), so the run is still miss-free.
    #[test]
    fn allowance_certified_faults_stay_within_thresholds(
        seed in 0u64..10_000,
        cores in 2usize..=4,
        victim in 0usize..6,
        job in 0u64..3,
        overrun_ms in 1i64..=30,
    ) {
        let set = gen_set(6, cores, 0.45 * cores as f64, seed);
        let mut session = GlobalAnalyzer::new(set.clone(), cores, PolicyKind::FixedPriority);
        if !session.is_feasible() {
            return Ok(()); // unproven: nothing to certify
        }
        let delta = ms(overrun_ms);
        match session.equitable_allowance() {
            Some(a) if delta <= a => {}
            _ => return Ok(()), // outside the certified allowance: the oracle skips too
        }
        let bounds = session.stop_thresholds_at(delta);
        let task = set.tasks()[victim % set.len()].id;
        let sc = Scenario::new(
            "prop-fault",
            set.clone(),
            FaultPlan::none().overrun(task, job, delta),
            Treatment::DetectOnly,
            Instant::from_millis(HORIZON),
        );
        let out = run_global_buffered(&sc, &mut session, &mut SimBuffers::new()).expect("accepted sets run");
        for (i, t) in set.tasks().iter().enumerate() {
            if let Some(observed) = out.outcome.stats.observed_wcrt(t.id) {
                prop_assert!(
                    observed <= bounds[i],
                    "task {:?} observed {observed:?} over certified bound {:?}",
                    t.id,
                    bounds[i]
                );
            }
        }
        prop_assert!(out.outcome.verdict.all_ok());
    }
}

/// The acceptance regime above is not vacuous: at U = 0.45·m a solid
/// share of generated sets pass the sufficient tests, under GFP and
/// GEDF alike, so the properties genuinely exercise accepted runs.
#[test]
fn the_generated_regime_accepts_a_real_share_of_sets() {
    for policy in [PolicyKind::FixedPriority, PolicyKind::Edf] {
        let accepted = (0u64..100)
            .filter(|&seed| {
                let set = gen_set(6, 2, 0.9, seed);
                GlobalAnalyzer::new(set, 2, policy).is_feasible()
            })
            .count();
        assert!(
            accepted >= 10,
            "only {accepted}/100 sets accepted under {policy:?}: the property tests are vacuous"
        );
    }
}

/// Dhall-effect lineup: one near-unit-density task plus m light tasks.
/// Utilization is barely above 1 — far under m, and no single density
/// exceeds 1, so the necessary envelope holds — yet the GEDF density
/// condition must reject it for every m ≥ 2 (the classic failure mode
/// global EDF inherits from Dhall & Liu).
#[test]
fn dhall_effect_sets_are_rejected_by_gedf_density() {
    for m in 2usize..=8 {
        let mut specs = vec![TaskBuilder::new(1, 1, ms(101), ms(100)).build()];
        for i in 0..m {
            let id = i as u32 + 2;
            specs.push(TaskBuilder::new(id, 10 + i as i32, ms(100), ms(2)).build());
        }
        let set = TaskSet::from_specs(specs);
        let mut session = GlobalAnalyzer::new(set, m, PolicyKind::Edf);
        let verdict = session.verdict();
        assert!(
            !verdict.overloaded,
            "m = {m}: the envelope should hold (U = {:.3})",
            verdict.utilization
        );
        assert!(
            !verdict.feasible,
            "m = {m}: the density test must reject the Dhall lineup"
        );
    }
}
