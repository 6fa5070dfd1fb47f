//! Property test of the query plane's one body over partitioned parts:
//! a partitioned [`Workbench`] answers every query core by core exactly
//! as a uniprocessor `Workbench` over that core's subset does, once the
//! uniprocessor rows (all on core 0) are relabelled to the core.

use proptest::prelude::*;
use rtft_core::allowance::SlackPolicy;
use rtft_core::policy::PolicyKind;
use rtft_core::query::{CoreAllowance, CoreScale, Query, Response, SystemSpec, TaskValue};
use rtft_core::task::TaskSet;
use rtft_part::prelude::*;
use rtft_taskgen::{DeadlineKind, GeneratorConfig};

/// Random multicore workloads under every policy and heuristic
/// allocator (implicit deadlines, so non-preemptive sets place too).
fn arb_case() -> impl Strategy<Value = (TaskSet, usize, PolicyKind, AllocPolicy)> {
    (3usize..=8, 2usize..=4, 0u64..500, 0usize..9).prop_map(|(n, cores, seed, mix)| {
        let cfg = GeneratorConfig {
            n,
            utilization: (0.45 * cores as f64).min(0.6 * n as f64),
            period_range: (
                rtft_core::time::Duration::millis(20),
                rtft_core::time::Duration::millis(200),
            ),
            deadlines: DeadlineKind::Implicit,
            per_task_cap: 0.8,
        };
        (
            cfg.generate(seed),
            cores,
            PolicyKind::ALL[mix % 3],
            AllocPolicy::HEURISTICS[mix / 3],
        )
    })
}

/// The rows of `response` on `core` — or, with `relabel`, every row
/// moved to `core`.
fn on_core(response: &Response, core: usize, relabel: bool) -> Response {
    let keep = |c: usize| relabel || c == core;
    let rows = |rows: &[TaskValue]| -> Vec<TaskValue> {
        rows.iter()
            .filter(|r| keep(r.core))
            .map(|r| TaskValue { core, ..r.clone() })
            .collect()
    };
    match response {
        Response::WcrtAll(r) => Response::WcrtAll(rows(r)),
        Response::Thresholds(r) => Response::Thresholds(rows(r)),
        Response::SystemAllowance { policy, per_task } => Response::SystemAllowance {
            policy: *policy,
            per_task: rows(per_task),
        },
        Response::EquitableAllowance(cores) => Response::EquitableAllowance(
            cores
                .iter()
                .filter(|c| keep(c.core))
                .map(|c| CoreAllowance {
                    core,
                    allowance: c.allowance,
                    stop_thresholds: rows(&c.stop_thresholds),
                })
                .collect(),
        ),
        Response::Sensitivity(cores) => Response::Sensitivity(
            cores
                .iter()
                .filter(|c| keep(c.core))
                .map(|c| CoreScale { core, ..c.clone() })
                .collect(),
        ),
        Response::MaxSingleOverrun(row) => Response::MaxSingleOverrun(TaskValue {
            core,
            ..row.clone()
        }),
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn partitioned_rows_equal_the_per_core_uniprocessor_rows(case in arb_case()) {
        let (set, cores, policy, alloc) = case;
        let spec = SystemSpec::uniprocessor("multi", set)
            .with_policy(policy)
            .with_cores(cores, alloc);
        let mut multi = Workbench::new(spec);
        if rtft_core::diag::has_errors(multi.lint()) || multi.unplaceable().is_some() {
            return Ok(());
        }
        let partition = multi.partition().expect("a placed multicore spec").clone();
        let queries = [
            Query::WcrtAll,
            Query::Thresholds,
            Query::EquitableAllowance,
            Query::SystemAllowance(SlackPolicy::ProtectAll),
            Query::SystemAllowance(SlackPolicy::ProtectOthers),
            Query::Sensitivity,
        ];
        let answers = multi.run_batch(&queries).unwrap();
        let mut all_admit = true;
        for core in partition.occupied_cores() {
            let subset = partition.core_set(core).unwrap().clone();
            let ids: Vec<_> = subset.tasks().iter().map(|t| t.id).collect();
            let mut uni = Workbench::new(SystemSpec::uniprocessor("core", subset).with_policy(policy));
            for (query, answer) in queries.iter().zip(&answers) {
                let expected = on_core(&uni.run(query).unwrap(), core, true);
                prop_assert_eq!(on_core(answer, core, false), expected, "{:?} core {}", query, core);
            }
            for id in ids {
                let query = Query::MaxSingleOverrun(id);
                let expected = on_core(&uni.run(&query).unwrap(), core, true);
                prop_assert_eq!(multi.run(&query).unwrap(), expected, "{:?}", id);
            }
            let Response::Feasibility { feasible, .. } = uni.run(&Query::Feasibility).unwrap() else {
                panic!("feasibility response expected");
            };
            all_admit &= feasible;
        }
        let Response::Feasibility { feasible, .. } = multi.run(&Query::Feasibility).unwrap() else {
            panic!("feasibility response expected");
        };
        prop_assert_eq!(feasible, all_admit);
    }
}
