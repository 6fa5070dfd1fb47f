//! Release-jitter response-time analysis.
//!
//! The paper's platform introduces jitter in two places: the 10 ms timer
//! grid delays detector releases by up to one quantum, and the polled
//! stop adds bounded lag. Classical jitter analysis (Audsley et al.)
//! extends the WCRT recurrence to tasks whose activation may lag their
//! nominal release by up to `J_i`:
//!
//! ```text
//! w_i = C_i + B_i + Σ_{j ∈ hp(i)} ⌈(w_i + J_j) / T_j⌉ · C_j
//! R_i = J_i + w_i
//! ```
//!
//! Interference grows because a jittered high-priority job can land
//! *back-to-back* with its successor; the task's own response is measured
//! from the nominal release, so its own jitter adds directly.
//!
//! This module provides the constrained-deadline (`R ≤ T`) jitter
//! analysis, plus a helper that derives detector-lag bounds from a
//! `TimerModel`-style quantum (see `rtft-sim`).

use crate::error::AnalysisError;
use crate::task::{TaskId, TaskSet};
use crate::time::Duration;

/// Per-task release jitter bounds, rank order.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JitterModel {
    jitter: Vec<Duration>,
}

impl JitterModel {
    /// No jitter.
    pub fn zero(set: &TaskSet) -> Self {
        JitterModel {
            jitter: vec![Duration::ZERO; set.len()],
        }
    }

    /// Uniform jitter on every task (e.g. a release-grid quantum).
    pub fn uniform(set: &TaskSet, j: Duration) -> Self {
        assert!(!j.is_negative(), "jitter must be non-negative");
        JitterModel {
            jitter: vec![j; set.len()],
        }
    }

    /// Explicit per-rank bounds.
    ///
    /// # Panics
    /// Panics if the length mismatches or any bound is negative.
    pub fn per_task(set: &TaskSet, jitter: Vec<Duration>) -> Self {
        assert_eq!(jitter.len(), set.len(), "one bound per task");
        assert!(
            jitter.iter().all(|j| !j.is_negative()),
            "jitter must be ≥ 0"
        );
        JitterModel { jitter }
    }

    /// Jitter of the task at `rank`.
    pub fn of(&self, rank: usize) -> Duration {
        self.jitter[rank]
    }
}

/// WCRT of the task at `rank` under release jitter (constrained-deadline
/// analysis; the busy period must close within one period).
///
/// # Errors
/// [`AnalysisError::Divergent`] when the level workload saturates,
/// [`AnalysisError::IterationLimit`] on the guard.
pub fn wcrt_with_jitter(
    set: &TaskSet,
    rank: usize,
    jitter: &JitterModel,
) -> Result<Duration, AnalysisError> {
    let costs: Vec<Duration> = set.tasks().iter().map(|t| t.cost).collect();
    let jitters: Vec<Duration> = (0..set.len()).map(|r| jitter.of(r)).collect();
    engine::jitter_wcrt(
        set,
        &costs,
        Duration::ZERO,
        &jitters,
        &set.hp_ranks(rank),
        rank,
        crate::response::DEFAULT_ITERATION_LIMIT,
    )
}

/// The shared jitter recurrence, used by [`wcrt_with_jitter`] and by the
/// jitter-aware queries of [`crate::analyzer::Analyzer`] (which feed it
/// effective costs and blocking), so the arithmetic exists once.
pub(crate) mod engine {
    use super::{AnalysisError, Duration, TaskSet};
    use crate::response::engine::diverges;

    /// Least fixed point of
    /// `w = C_i + B_i + Σ_{j ∈ hp} ⌈(w + J_j)/T_j⌉·C_j`, returned as
    /// `J_i + w` (the constrained-deadline single-job analysis).
    pub(crate) fn jitter_wcrt(
        set: &TaskSet,
        costs: &[Duration],
        blocking_i: Duration,
        jitter: &[Duration],
        hp: &[usize],
        rank: usize,
        limit: u64,
    ) -> Result<Duration, AnalysisError> {
        let task = set.by_rank(rank);
        if diverges(set, costs, blocking_i, hp, rank) {
            return Err(AnalysisError::Divergent { task: task.id });
        }
        let mut budget = limit;
        let mut w = costs[rank];
        loop {
            if budget == 0 {
                return Err(AnalysisError::IterationLimit {
                    task: task.id,
                    limit,
                });
            }
            budget -= 1;
            let mut next = costs[rank] + blocking_i;
            for &j in hp {
                let tj = set.by_rank(j);
                next = next
                    .saturating_add(costs[j].saturating_mul((w + jitter[j]).div_ceil(tj.period)));
            }
            if next == w {
                return Ok(jitter[rank] + w);
            }
            w = next;
        }
    }
}

/// Worst-case detector lag for each task when detector first releases are
/// snapped **up** to a grid of `quantum`: the paper's measured 1/2/3 ms
/// delays are instances (`29→30`, `58→60`, `87→90` on the 10 ms grid).
/// Returns `(task, requested offset, quantized offset, lag)` per rank,
/// taking `wcrt[rank]` as the requested offset.
pub fn detector_lags(
    set: &TaskSet,
    wcrt: &[Duration],
    quantum: Duration,
) -> Vec<(TaskId, Duration, Duration, Duration)> {
    assert!(quantum.is_positive(), "quantum must be positive");
    (0..set.len())
        .map(|rank| {
            let spec = set.by_rank(rank);
            let requested = spec.offset + wcrt[rank];
            let quantized = requested.round_up_to(quantum);
            (spec.id, requested, quantized, quantized - requested)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::AnalyzerBuilder;
    use crate::response::wcrt_all;

    /// Session under `set` with the jitter model installed — the
    /// replacement for the removed one-shot wrappers.
    fn jittered(set: &TaskSet, j: &JitterModel) -> crate::analyzer::Analyzer {
        AnalyzerBuilder::new(set).jitter(j).build()
    }
    use crate::task::TaskBuilder;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
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
    fn zero_jitter_matches_base_analysis() {
        let set = table2();
        let j = JitterModel::zero(&set);
        assert_eq!(
            jittered(&set, &j).wcrt_all_with_jitter().unwrap(),
            wcrt_all(&set).unwrap()
        );
        assert!(jittered(&set, &j).feasible_with_jitter().unwrap());
    }

    #[test]
    fn own_jitter_adds_directly() {
        let set = table2();
        let j = JitterModel::per_task(&set, vec![ms(3), ms(0), ms(0)]);
        // τ1's own response gains its jitter; its interference on others
        // does not change here because the windows stay within one period.
        assert_eq!(wcrt_with_jitter(&set, 0, &j).unwrap(), ms(32));
        assert_eq!(wcrt_with_jitter(&set, 1, &j).unwrap(), ms(58));
    }

    #[test]
    fn upstream_jitter_can_double_interference() {
        // τ1: T=10, C=2, J=4; τ2: C=5. Window w = 5 + ⌈(w+4)/10⌉·2:
        // w=7 → ⌈11/10⌉=2 → 5+4=9 → ⌈13/10⌉=2 → 9 ✓. Versus 7 without
        // jitter: the jittered τ1 squeezes two jobs into the window.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 9, ms(10), ms(2)).build(),
            TaskBuilder::new(2, 3, ms(20), ms(5)).build(),
        ]);
        let no_j = JitterModel::zero(&set);
        assert_eq!(wcrt_with_jitter(&set, 1, &no_j).unwrap(), ms(7));
        let j = JitterModel::per_task(&set, vec![ms(4), ms(0)]);
        assert_eq!(wcrt_with_jitter(&set, 1, &j).unwrap(), ms(9));
    }

    #[test]
    fn jitter_monotonicity() {
        let set = table2();
        let mut prev = jittered(&set, &JitterModel::zero(&set))
            .wcrt_all_with_jitter()
            .unwrap();
        for q in [1i64, 5, 10, 20] {
            let cur = jittered(&set, &JitterModel::uniform(&set, ms(q)))
                .wcrt_all_with_jitter()
                .unwrap();
            for (a, b) in prev.iter().zip(&cur) {
                assert!(b >= a, "jitter must not reduce response times");
            }
            prev = cur;
        }
    }

    #[test]
    fn infeasible_under_jitter_detected() {
        // Tight system where jitter breaks feasibility.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 9, ms(10), ms(4)).build(),
            TaskBuilder::new(2, 3, ms(20), ms(6))
                .deadline(ms(14))
                .build(),
        ]);
        // No jitter: w2 = 6 + ⌈w/10⌉·4 fixes at 10 ≤ 14 ✓.
        assert!(jittered(&set, &JitterModel::zero(&set))
            .feasible_with_jitter()
            .unwrap());
        // τ1 jitter 7 ms: w = 6 + ⌈(w+7)/10⌉·4 fixes at 18 > 14.
        let j = JitterModel::per_task(&set, vec![ms(7), ms(0)]);
        assert!(!jittered(&set, &j).feasible_with_jitter().unwrap());
    }

    #[test]
    fn detector_lags_match_figure4() {
        let set = table2();
        let wcrt = wcrt_all(&set).unwrap();
        let lags = detector_lags(&set, &wcrt, ms(10));
        let lag_ms: Vec<i64> = lags.iter().map(|(_, _, _, l)| l.as_millis()).collect();
        assert_eq!(lag_ms, vec![1, 2, 3], "the paper's 1/2/3 ms delays");
        assert_eq!(lags[0].2, ms(30));
        assert_eq!(lags[2].2, ms(90));
    }

    #[test]
    fn divergence_guard() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 9, ms(10), ms(6)).build(),
            TaskBuilder::new(2, 3, ms(10), ms(6)).build(),
        ]);
        let j = JitterModel::zero(&set);
        assert!(matches!(
            wcrt_with_jitter(&set, 1, &j),
            Err(AnalysisError::Divergent { .. })
        ));
    }
}
