//! A busy period at a level workload of exactly 1 never closes when a
//! blocking term rides on it: every window carries exactly its own
//! demand, so the blocking is never worked off. Such levels must answer
//! [`AnalysisError::Divergent`] at once — an answer the searches treat
//! as "infeasible here" — instead of unrolling the fixed point until the
//! iteration guard trips.

use rtft_core::analyzer::Analyzer;
use rtft_core::error::AnalysisError;
use rtft_core::policy::PolicyKind;
use rtft_core::task::{TaskBuilder, TaskId, TaskSet};
use rtft_core::time::Duration;

fn ms(v: i64) -> Duration {
    Duration::millis(v)
}

#[test]
fn npfp_scaling_search_answers_where_the_top_level_saturates() {
    // At f = 2, τ1 alone fills its level (10 ms every 10 ms) while τ2's
    // 8 ms non-preemptive section blocks it. The search must read that
    // probe as infeasible and settle at f = 5/3, where the total
    // utilization reaches 1.
    let set = TaskSet::from_specs(vec![
        TaskBuilder::new(1, 5, ms(10), ms(5))
            .deadline(ms(20))
            .build(),
        TaskBuilder::new(2, 4, ms(40), ms(4)).build(),
    ]);
    let mut session = Analyzer::for_policy(&set, PolicyKind::NonPreemptiveFp);
    assert!(session.is_feasible().unwrap());
    let f = session
        .cost_scaling_margin()
        .expect("no iteration limit")
        .expect("feasible base");
    assert!((f - 5.0 / 3.0).abs() < 1e-6, "{f}");
}

#[test]
fn a_level_of_exactly_one_is_divergent_even_when_f64_rounds_below() {
    // Ten tasks of U = 0.1 sum to 0.9999999999999999 in f64; the
    // eleventh, lowest-priority task blocks them non-preemptively.
    let mut specs: Vec<_> = (0..10)
        .map(|i| TaskBuilder::new(i + 1, 20 - i as i32, ms(10), ms(1)).build())
        .collect();
    specs.push(TaskBuilder::new(11, 1, ms(1000), ms(1)).build());
    let set = TaskSet::from_specs(specs);
    let rank = set.rank_of(TaskId(10)).unwrap();
    let mut session = Analyzer::for_policy(&set, PolicyKind::NonPreemptiveFp);
    assert_eq!(
        session.wcrt(rank),
        Err(AnalysisError::Divergent { task: TaskId(10) })
    );
    assert!(!session.is_feasible().unwrap());
    // Preemptively nothing blocks the level: its busy period closes.
    let mut fp = Analyzer::for_policy(&set, PolicyKind::FixedPriority);
    assert_eq!(fp.wcrt(rank), Ok(ms(10)));
}
