//! Property test: the end-to-end run path and perfbench's per-layer
//! faces are one program. Over random sets, every policy and the three
//! placements (one core, two partitioned cores, two global cores),
//! `run_single`'s trace hash and capture bytes must equal what the kept
//! `_buffered` faces compute from the same `Workbench` sessions:
//!
//! - one core: the `run_scenario_buffered` log's content hash, captured
//!   flat;
//! - partitioned: `run_partitioned_buffered(..).merged_hash()`, captured
//!   merged over the per-core logs;
//! - global: `merged_content_hash` over `run_global_buffered(..)`'s
//!   `core_logs`, captured merged over them.

use proptest::prelude::*;
use rtft_campaign::{run_single, treatment_keyword, JobSpec, PlatformSpec, RunError, Workbench};
use rtft_core::policy::PolicyKind;
use rtft_core::query::{spec_hash, AllocPolicy, Placement};
use rtft_core::task::TaskSet;
use rtft_core::time::{Duration, Instant};
use rtft_ft::harness::{run_scenario_buffered, HarnessError};
use rtft_ft::treatment::Treatment;
use rtft_part::multicore::run_partitioned_buffered;
use rtft_sim::engine::SimBuffers;
use rtft_sim::fault::FaultPlan;
use rtft_taskgen::{DeadlineKind, GeneratorConfig};
use rtft_trace::merge::merged_content_hash;
use rtft_trace::{TraceCapture, TraceLog};
use std::sync::Arc;

/// A job over a random implicit-deadline set on `cores` cores, with an
/// optional overrun on one task's early job.
#[allow(clippy::too_many_arguments)]
fn job(
    set: TaskSet,
    policy: PolicyKind,
    cores: usize,
    placement: Placement,
    treatment: Treatment,
    fault: Option<(usize, u64, i64)>,
    jrate: bool,
) -> JobSpec {
    let faults = match fault {
        Some((victim, job, ms)) => {
            let task = set.tasks()[victim % set.len()].id;
            FaultPlan::none().overrun(task, job, Duration::millis(ms))
        }
        None => FaultPlan::none(),
    };
    JobSpec {
        index: 0,
        set_ordinal: 0,
        set_label: "prop".to_string(),
        set: Arc::new(set),
        policy,
        cores,
        placement,
        alloc: AllocPolicy::WorstFitDecreasing,
        fault_label: "prop".to_string(),
        faults,
        treatment,
        platform: if jrate {
            PlatformSpec::jrate()
        } else {
            PlatformSpec::EXACT
        },
        horizon: Instant::from_millis(600),
    }
}

/// The trace hash and capture text the perfbench faces compute for
/// `job`, against the sessions of a fresh workbench over its spec.
fn via_faces(job: &JobSpec) -> Result<(u64, String), HarnessError> {
    let mut bench = Workbench::new(job.system_spec());
    let spec = bench.spec().clone();
    let (hash, policy) = (spec_hash(&spec), spec.policy.label());
    let treatment = treatment_keyword(job.treatment);
    let merged = |logs: &[(usize, &TraceLog)]| {
        TraceCapture::merged(
            hash,
            policy,
            spec.placement.label(),
            spec.cores,
            treatment,
            logs,
        )
    };
    let scenario = job.scenario();
    let bufs = &mut SimBuffers::new();
    let (trace_hash, capture) = if let Some(session) = bench.uni_session_mut() {
        let outcome = run_scenario_buffered(&scenario, session, bufs)?;
        let trace_hash = outcome.log.content_hash();
        (
            trace_hash,
            TraceCapture::flat(hash, policy, treatment, outcome.log),
        )
    } else if let Some(session) = bench.global_mut() {
        let global = rtft_global::run_global_buffered(&scenario, session, bufs)?;
        let logs: Vec<(usize, &TraceLog)> = global.core_logs.iter().map(|(c, l)| (*c, l)).collect();
        (merged_content_hash(&logs), merged(&logs))
    } else {
        let sessions = bench.partitioned_mut().expect("a placed partitioned spec");
        let multi = run_partitioned_buffered(&scenario, sessions, bufs)?;
        (multi.merged_hash(), merged(&multi.logs()))
    };
    Ok((trace_hash, capture.render_text()))
}

fn arb_job() -> impl Strategy<Value = JobSpec> {
    (
        (3usize..=6, 0u64..1_000, 0usize..3, 0usize..3),
        (0usize..5, 0usize..4, 0u64..3, 1i64..=30),
        0usize..2,
    )
        .prop_map(
            |((n, seed, policy_ix, placement_ix), (treatment_ix, victim, at, ms), jrate)| {
                let (cores, placement) = [
                    (1, Placement::Partitioned),
                    (2, Placement::Partitioned),
                    (2, Placement::Global),
                ][placement_ix];
                let set = GeneratorConfig {
                    n,
                    utilization: 0.45 * cores as f64,
                    period_range: (Duration::millis(20), Duration::millis(200)),
                    deadlines: DeadlineKind::Implicit,
                    per_task_cap: 0.8,
                }
                .generate(seed);
                // One case in four runs fault-free.
                let fault = (victim < 3).then_some((victim, at, ms));
                job(
                    set,
                    PolicyKind::ALL[policy_ix],
                    cores,
                    placement,
                    Treatment::paper_lineup()[treatment_ix],
                    fault,
                    jrate == 1,
                )
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn run_single_equals_the_perfbench_faces(job in arb_job()) {
        match run_single(&job, false) {
            Ok(single) => {
                let trace_hash = single.run.trace_hash();
                let capture = single
                    .run
                    .capture(single.bench.spec(), treatment_keyword(job.treatment))
                    .render_text();
                prop_assert_eq!(via_faces(&job), Ok((trace_hash, capture)));
            }
            // No placement: the faces have no session to run against.
            Err(RunError::Unplaceable(_)) => {}
            Err(RunError::Harness(e)) => prop_assert_eq!(via_faces(&job), Err(e)),
        }
    }
}
