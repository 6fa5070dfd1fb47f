//! Fault injection.
//!
//! The paper's fault model: a job "takes a little bit more than its cost,
//! either because it was underestimated, or because of an external event"
//! (§3). The evaluation injects a *voluntary cost overrun* into the
//! highest-priority task (§6). A [`FaultPlan`] maps `(task, job)` to a cost
//! delta — positive deltas are overruns, negative deltas model the cost
//! *under-runs* the paper's §7 wants to exploit.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use rtft_core::query::FaultEntry;
use rtft_core::task::{TaskId, TaskSet};
use rtft_core::time::Duration;
use std::collections::BTreeMap;

/// Per-job execution-time deltas.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FaultPlan {
    deltas: BTreeMap<(TaskId, u64), Duration>,
}

impl FaultPlan {
    /// Fault-free plan.
    pub fn none() -> Self {
        Self::default()
    }

    /// Inject a cost overrun of `amount` into job `job` of `task`.
    ///
    /// # Panics
    /// Panics on a non-positive amount (use [`FaultPlan::underrun`]).
    pub fn overrun(mut self, task: TaskId, job: u64, amount: Duration) -> Self {
        assert!(amount.is_positive(), "an overrun must be positive");
        *self.deltas.entry((task, job)).or_default() += amount;
        self
    }

    /// Make job `job` of `task` run `amount` *shorter* than declared.
    ///
    /// # Panics
    /// Panics on a non-positive amount.
    pub fn underrun(mut self, task: TaskId, job: u64, amount: Duration) -> Self {
        assert!(amount.is_positive(), "an underrun must be positive");
        *self.deltas.entry((task, job)).or_default() -= amount;
        self
    }

    /// Delta for a given job (zero when unplanned).
    pub fn delta(&self, task: TaskId, job: u64) -> Duration {
        self.deltas
            .get(&(task, job))
            .copied()
            .unwrap_or(Duration::ZERO)
    }

    /// Effective execution demand of a job: `C + δ`, saturating at
    /// [`Duration::MAX`] (an overrun past it never completes) and clamped
    /// to at least one nanosecond (a job always executes *something*).
    pub fn demand(&self, set: &TaskSet, task: TaskId, job: u64) -> Duration {
        let cost = set.by_id(task).map_or(Duration::ZERO, |t| t.cost);
        cost.saturating_add(self.delta(task, job))
            .max(Duration::NANO)
    }

    /// Number of planned faulty jobs.
    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    /// `true` when no fault is planned.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// All planned `(task, job, delta)` triples.
    pub fn entries(&self) -> impl Iterator<Item = (TaskId, u64, Duration)> + '_ {
        self.deltas.iter().map(|(&(t, j), &d)| (t, j, d))
    }

    /// Tasks with at least one injected overrun, ascending.
    pub fn overrun_tasks(&self) -> Vec<TaskId> {
        let mut tasks: Vec<TaskId> = self
            .entries()
            .filter(|(_, _, d)| d.is_positive())
            .map(|(t, _, _)| t)
            .collect();
        // Entries iterate in `(task, job)` order, so duplicates are adjacent.
        tasks.dedup();
        tasks
    }

    /// Largest positive injected delta — the plan's `Δmax` (`ZERO` when
    /// fault-free or all-underrun).
    pub fn max_overrun(&self) -> Duration {
        self.deltas
            .values()
            .copied()
            .filter(|d| d.is_positive())
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

/// Collect fault entries into a plan: repeated entries on one job sum,
/// and a job whose deltas cancel out is left fault-free. The entries
/// of one parsed system ([`rtft_core::query::SystemLines`]) never
/// overflow that sum.
impl FromIterator<FaultEntry> for FaultPlan {
    fn from_iter<I: IntoIterator<Item = FaultEntry>>(entries: I) -> Self {
        let mut deltas: BTreeMap<(TaskId, u64), Duration> = BTreeMap::new();
        for f in entries {
            *deltas.entry((f.task, f.job)).or_default() += f.delta;
        }
        deltas.retain(|_, delta| !delta.is_zero());
        FaultPlan { deltas }
    }
}

/// Configuration of a random fault generator (for sweep and stress
/// experiments beyond the paper's single-fault scenario).
#[derive(Clone, Debug)]
pub struct RandomFaults {
    /// Probability that any given job overruns, in `[0, 1]`.
    pub overrun_probability: f64,
    /// Overrun magnitude range, uniform (inclusive bounds).
    pub magnitude: (Duration, Duration),
    /// Jobs considered per task (plan horizon).
    pub jobs_per_task: u64,
}

impl RandomFaults {
    /// Draw a concrete [`FaultPlan`] for `set` from `seed`. Deterministic:
    /// same seed, same plan.
    ///
    /// # Panics
    /// Panics on a probability outside `[0, 1]` or an empty magnitude
    /// range.
    pub fn sample(&self, set: &TaskSet, seed: u64) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&self.overrun_probability),
            "probability must be in [0, 1]"
        );
        let (lo, hi) = self.magnitude;
        assert!(lo.is_positive() && hi >= lo, "bad magnitude range");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = FaultPlan::none();
        for task in set.tasks() {
            for job in 0..self.jobs_per_task {
                if rng.random::<f64>() < self.overrun_probability {
                    let amount = if lo == hi {
                        lo
                    } else {
                        Duration::nanos(rng.random_range(lo.as_nanos()..=hi.as_nanos()))
                    };
                    plan = plan.overrun(task.id, job, amount);
                }
            }
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::task::TaskBuilder;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    fn set() -> TaskSet {
        TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(200), ms(29)).build(),
            TaskBuilder::new(2, 18, ms(250), ms(29)).build(),
        ])
    }

    #[test]
    fn paper_fault_shape() {
        // The Figure 3–7 injection: +40 ms on τ1's job 5.
        let plan = FaultPlan::none().overrun(TaskId(1), 5, ms(40));
        assert_eq!(plan.delta(TaskId(1), 5), ms(40));
        assert_eq!(plan.delta(TaskId(1), 4), Duration::ZERO);
        assert_eq!(plan.demand(&set(), TaskId(1), 5), ms(69));
        assert_eq!(plan.demand(&set(), TaskId(1), 0), ms(29));
        assert_eq!(plan.len(), 1);
    }

    #[test]
    fn max_overrun_ignores_underruns() {
        assert_eq!(FaultPlan::none().max_overrun(), Duration::ZERO);
        let plan = FaultPlan::none()
            .overrun(TaskId(1), 5, ms(11))
            .overrun(TaskId(2), 1, ms(7))
            .underrun(TaskId(2), 0, ms(20));
        assert_eq!(plan.max_overrun(), ms(11));
        assert_eq!(plan.overrun_tasks(), vec![TaskId(1), TaskId(2)]);
        let under = FaultPlan::none().underrun(TaskId(2), 0, ms(9));
        assert_eq!(under.max_overrun(), Duration::ZERO);
        assert!(under.overrun_tasks().is_empty());
    }

    #[test]
    fn underrun_and_clamp() {
        let plan = FaultPlan::none().underrun(TaskId(2), 0, ms(9));
        assert_eq!(plan.demand(&set(), TaskId(2), 0), ms(20));
        // An underrun deeper than the cost clamps to 1 ns.
        let deep = FaultPlan::none().underrun(TaskId(2), 0, ms(99));
        assert_eq!(deep.demand(&set(), TaskId(2), 0), Duration::NANO);
    }

    #[test]
    fn deltas_accumulate() {
        let plan = FaultPlan::none()
            .overrun(TaskId(1), 0, ms(10))
            .overrun(TaskId(1), 0, ms(5))
            .underrun(TaskId(1), 0, ms(3));
        assert_eq!(plan.delta(TaskId(1), 0), ms(12));
    }

    #[test]
    fn unknown_task_demand_is_clamped_delta() {
        let plan = FaultPlan::none();
        assert_eq!(plan.demand(&set(), TaskId(42), 0), Duration::NANO);
    }

    #[test]
    fn random_plan_is_deterministic() {
        let cfg = RandomFaults {
            overrun_probability: 0.5,
            magnitude: (ms(1), ms(20)),
            jobs_per_task: 32,
        };
        let a = cfg.sample(&set(), 7);
        let b = cfg.sample(&set(), 7);
        assert_eq!(a, b);
        let c = cfg.sample(&set(), 8);
        assert_ne!(a, c, "different seeds should (overwhelmingly) differ");
    }

    #[test]
    fn random_plan_respects_bounds() {
        let cfg = RandomFaults {
            overrun_probability: 1.0,
            magnitude: (ms(2), ms(3)),
            jobs_per_task: 8,
        };
        let plan = cfg.sample(&set(), 1);
        assert_eq!(plan.len(), 16);
        for (_, _, d) in plan.entries() {
            assert!(d >= ms(2) && d <= ms(3));
        }
    }

    #[test]
    fn zero_probability_is_fault_free() {
        let cfg = RandomFaults {
            overrun_probability: 0.0,
            magnitude: (ms(1), ms(2)),
            jobs_per_task: 100,
        };
        assert!(cfg.sample(&set(), 3).is_empty());
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_overrun_rejected() {
        let _ = FaultPlan::none().overrun(TaskId(1), 0, Duration::ZERO);
    }
}
