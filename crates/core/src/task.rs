//! Periodic task model.
//!
//! A task `τ_i` carries the four parameters of the paper's Section 2 —
//! cost `C_i`, relative deadline `D_i`, period `T_i`, priority `P_i` —
//! plus a release offset (phase) used to reproduce the evaluation scenarios
//! (the paper's figures show τ3 activating inside the observation window,
//! which requires a non-zero phase: with τ3 strictly periodic from 0 its
//! releases never meet τ1's fifth job at t = 1000 ms).

use crate::error::ModelError;
use crate::time::Duration;
use std::fmt;

/// Stable identifier of a task inside a [`TaskSet`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "τ{}", self.0)
    }
}

/// Fixed scheduling priority. **Higher value = more urgent**, matching the
/// paper's tables (τ1 has `P = 20`, the strongest priority) and the RTSJ
/// `PriorityParameters` convention.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct Priority(pub i32);

impl Priority {
    /// Smallest priority usable by application tasks.
    pub const MIN: Priority = Priority(i32::MIN);
    /// Largest priority.
    pub const MAX: Priority = Priority(i32::MAX);
}

impl fmt::Display for Priority {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// Static description of one periodic task.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TaskSpec {
    /// Identifier, unique within a [`TaskSet`].
    pub id: TaskId,
    /// Human-readable name (defaults to `τ<id>`).
    pub name: String,
    /// Fixed priority, higher = more urgent.
    pub priority: Priority,
    /// Period `T_i` between successive activations. Must be positive.
    pub period: Duration,
    /// Relative deadline `D_i`, measured from each activation. May exceed
    /// the period (the general case analysed by Lehoczky and by the paper's
    /// Figure 2 algorithm).
    pub deadline: Duration,
    /// Worst-case execution cost `C_i` declared at admission. Must be
    /// positive and is the value the task may *violate* at run time —
    /// that violation is precisely the paper's notion of a fault.
    pub cost: Duration,
    /// Release offset (phase) of the first activation.
    pub offset: Duration,
}

impl TaskSpec {
    /// Utilization `C_i / T_i` of this task alone.
    pub fn utilization(&self) -> f64 {
        self.cost.as_nanos() as f64 / self.period.as_nanos() as f64
    }

    /// `true` iff the deadline does not exceed the period (the "constrained
    /// deadline" special case where the synchronous release is the critical
    /// instant and the single-job recurrence suffices).
    pub fn is_constrained(&self) -> bool {
        self.deadline <= self.period
    }
}

impl fmt::Display for TaskSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, T={}, D={}, C={}, O={})",
            self.name, self.priority, self.period, self.deadline, self.cost, self.offset
        )
    }
}

/// Builder for a [`TaskSpec`]; only the periodic parameters are mandatory.
#[derive(Clone, Debug)]
pub struct TaskBuilder {
    id: TaskId,
    name: Option<String>,
    priority: Priority,
    period: Duration,
    deadline: Option<Duration>,
    cost: Duration,
    offset: Duration,
}

impl TaskBuilder {
    /// Start building a task with the mandatory parameters. The deadline
    /// defaults to the period (implicit deadline) and the offset to zero.
    pub fn new(id: u32, priority: i32, period: Duration, cost: Duration) -> Self {
        TaskBuilder {
            id: TaskId(id),
            name: None,
            priority: Priority(priority),
            period,
            deadline: None,
            cost,
            offset: Duration::ZERO,
        }
    }

    /// Set a human-readable name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Set a relative deadline different from the period.
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Set the release offset of the first activation.
    pub fn offset(mut self, o: Duration) -> Self {
        self.offset = o;
        self
    }

    /// Finish building.
    pub fn build(self) -> TaskSpec {
        TaskSpec {
            name: self.name.unwrap_or_else(|| format!("τ{}", self.id.0)),
            id: self.id,
            priority: self.priority,
            period: self.period,
            deadline: self.deadline.unwrap_or(self.period),
            cost: self.cost,
            offset: self.offset,
        }
    }
}

/// An immutable, validated set of periodic tasks.
///
/// Internally tasks are stored **sorted by decreasing priority** (ties
/// broken by ascending id, a deterministic FIFO-among-equals convention
/// shared with the simulator), so analysis code can index tasks by *rank*:
/// rank 0 is the most urgent task and `hp(i)` is simply `0..i` plus any
/// equal-priority peers.
#[derive(Clone, PartialEq, Debug)]
pub struct TaskSet {
    tasks: Vec<TaskSpec>,
}

impl TaskSet {
    /// Validate and build a task set. Tasks are re-sorted by decreasing
    /// priority internally.
    ///
    /// # Errors
    /// * [`ModelError::Empty`] for an empty set;
    /// * [`ModelError::DuplicateId`] if two tasks share an id;
    /// * [`ModelError::InvalidParameter`] for non-positive periods/costs or
    ///   negative deadlines/offsets.
    pub fn new(mut tasks: Vec<TaskSpec>) -> Result<Self, ModelError> {
        if tasks.is_empty() {
            return Err(ModelError::Empty);
        }
        for t in &tasks {
            if !t.period.is_positive() {
                return Err(ModelError::InvalidParameter {
                    task: t.id,
                    what: "period must be positive",
                });
            }
            if !t.cost.is_positive() {
                return Err(ModelError::InvalidParameter {
                    task: t.id,
                    what: "cost must be positive",
                });
            }
            if !t.deadline.is_positive() {
                return Err(ModelError::InvalidParameter {
                    task: t.id,
                    what: "deadline must be positive",
                });
            }
            if t.offset.is_negative() {
                return Err(ModelError::InvalidParameter {
                    task: t.id,
                    what: "offset must be non-negative",
                });
            }
        }
        let mut ids: Vec<TaskId> = tasks.iter().map(|t| t.id).collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(ModelError::DuplicateId(w[0]));
        }
        tasks.sort_by(|a, b| b.priority.cmp(&a.priority).then(a.id.cmp(&b.id)));
        Ok(TaskSet { tasks })
    }

    /// Convenience constructor that panics on invalid input; intended for
    /// tests and fixed example systems.
    pub fn from_specs(tasks: Vec<TaskSpec>) -> Self {
        TaskSet::new(tasks).expect("invalid task set")
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` iff the set has no tasks (never true for a validated set).
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Tasks in decreasing-priority order.
    pub fn tasks(&self) -> &[TaskSpec] {
        &self.tasks
    }

    /// Task at a given priority rank (0 = most urgent).
    pub fn by_rank(&self, rank: usize) -> &TaskSpec {
        &self.tasks[rank]
    }

    /// Find a task by id.
    pub fn by_id(&self, id: TaskId) -> Option<&TaskSpec> {
        self.tasks.iter().find(|t| t.id == id)
    }

    /// Priority rank of a task id (0 = most urgent).
    pub fn rank_of(&self, id: TaskId) -> Option<usize> {
        self.tasks.iter().position(|t| t.id == id)
    }

    /// Ranks of the tasks with priority **higher than or equal to** the
    /// task at `rank` (excluding itself) — the `HP(S)` set of the paper's
    /// Figure 2 algorithm.
    pub fn hp_ranks(&self, rank: usize) -> Vec<usize> {
        let p = self.tasks[rank].priority;
        (0..self.tasks.len())
            .filter(|&j| j != rank && self.tasks[j].priority >= p)
            .collect()
    }

    /// Ranks of tasks with priority strictly lower than the task at `rank`.
    pub fn lp_ranks(&self, rank: usize) -> Vec<usize> {
        let p = self.tasks[rank].priority;
        (0..self.tasks.len())
            .filter(|&j| self.tasks[j].priority < p)
            .collect()
    }

    /// Total utilization `U = Σ C_i/T_i`.
    pub fn utilization(&self) -> f64 {
        self.tasks.iter().map(TaskSpec::utilization).sum()
    }

    /// Hyperperiod (LCM of the periods). Saturates at `Duration::MAX` if the
    /// LCM overflows, which analysis callers treat as "too long to unroll".
    pub fn hyperperiod(&self) -> Duration {
        fn gcd(a: i64, b: i64) -> i64 {
            if b == 0 {
                a
            } else {
                gcd(b, a % b)
            }
        }
        let mut l: i64 = 1;
        for t in &self.tasks {
            let p = t.period.as_nanos();
            let g = gcd(l, p);
            match (l / g).checked_mul(p) {
                Some(v) => l = v,
                None => return Duration::MAX,
            }
        }
        Duration::nanos(l)
    }

    /// Largest relative deadline in the set.
    pub fn max_deadline(&self) -> Duration {
        self.tasks
            .iter()
            .map(|t| t.deadline)
            .fold(Duration::ZERO, Duration::max)
    }

    /// Latest first release among the tasks.
    pub fn max_offset(&self) -> Duration {
        self.tasks
            .iter()
            .map(|t| t.offset)
            .fold(Duration::ZERO, Duration::max)
    }

    /// `true` iff every task has `D_i ≤ T_i`.
    pub fn all_constrained(&self) -> bool {
        self.tasks.iter().all(TaskSpec::is_constrained)
    }

    /// `true` iff every first release is at the epoch (synchronous set).
    pub fn is_synchronous(&self) -> bool {
        self.tasks.iter().all(|t| t.offset.is_zero())
    }

    /// A copy of this set with one task replaced (matched by id).
    ///
    /// # Panics
    /// Panics if the id is not present.
    pub fn with_replaced(&self, spec: TaskSpec) -> TaskSet {
        let mut tasks = self.tasks.clone();
        let rank = self
            .rank_of(spec.id)
            .expect("with_replaced: unknown task id");
        tasks[rank] = spec;
        TaskSet::from_specs(tasks)
    }

    /// A copy of this set with an extra task. Fails like [`TaskSet::new`].
    pub fn with_added(&self, spec: TaskSpec) -> Result<TaskSet, ModelError> {
        let mut tasks = self.tasks.clone();
        tasks.push(spec);
        TaskSet::new(tasks)
    }

    /// A copy of this set without the given task.
    ///
    /// # Errors
    /// [`ModelError::Empty`] if it was the last task, or
    /// [`ModelError::UnknownTask`] if the id is absent.
    pub fn with_removed(&self, id: TaskId) -> Result<TaskSet, ModelError> {
        if self.by_id(id).is_none() {
            return Err(ModelError::UnknownTask(id));
        }
        let tasks: Vec<TaskSpec> = self.tasks.iter().filter(|t| t.id != id).cloned().collect();
        TaskSet::new(tasks)
    }
}

impl fmt::Display for TaskSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<8} {:>6} {:>10} {:>10} {:>10}",
            "task", "P", "T", "D", "C"
        )?;
        for t in &self.tasks {
            writeln!(
                f,
                "{:<8} {:>6} {:>10} {:>10} {:>10}",
                t.name,
                t.priority.0,
                t.period.to_string(),
                t.deadline.to_string(),
                t.cost.to_string()
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    fn three_tasks() -> TaskSet {
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
    fn sorted_by_decreasing_priority() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(3, 16, ms(1500), ms(29)).build(),
            TaskBuilder::new(1, 20, ms(200), ms(29)).build(),
            TaskBuilder::new(2, 18, ms(250), ms(29)).build(),
        ]);
        let prios: Vec<i32> = set.tasks().iter().map(|t| t.priority.0).collect();
        assert_eq!(prios, vec![20, 18, 16]);
        assert_eq!(set.rank_of(TaskId(1)), Some(0));
        assert_eq!(set.rank_of(TaskId(3)), Some(2));
    }

    #[test]
    fn equal_priorities_tie_break_by_id() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(9, 5, ms(10), ms(1)).build(),
            TaskBuilder::new(4, 5, ms(10), ms(1)).build(),
        ]);
        assert_eq!(set.by_rank(0).id, TaskId(4));
        // Equal-priority peers interfere with each other.
        assert_eq!(set.hp_ranks(0), vec![1]);
        assert_eq!(set.hp_ranks(1), vec![0]);
    }

    #[test]
    fn hp_and_lp_ranks() {
        let set = three_tasks();
        assert_eq!(set.hp_ranks(0), Vec::<usize>::new());
        assert_eq!(set.hp_ranks(1), vec![0]);
        assert_eq!(set.hp_ranks(2), vec![0, 1]);
        assert_eq!(set.lp_ranks(0), vec![1, 2]);
        assert_eq!(set.lp_ranks(2), Vec::<usize>::new());
    }

    #[test]
    fn utilization_of_paper_system() {
        // 29/200 + 29/250 + 29/1500 ≈ 0.2804
        let u = three_tasks().utilization();
        assert!((u - (29.0 / 200.0 + 29.0 / 250.0 + 29.0 / 1500.0)).abs() < 1e-12);
    }

    #[test]
    fn hyperperiod_of_paper_system() {
        // lcm(200, 250, 1500) = 3000 ms
        assert_eq!(three_tasks().hyperperiod(), ms(3000));
    }

    #[test]
    fn validation_rejects_bad_input() {
        assert!(matches!(TaskSet::new(vec![]), Err(ModelError::Empty)));
        let dup = TaskSet::new(vec![
            TaskBuilder::new(1, 1, ms(10), ms(1)).build(),
            TaskBuilder::new(1, 2, ms(10), ms(1)).build(),
        ]);
        assert!(matches!(dup, Err(ModelError::DuplicateId(TaskId(1)))));
        let zero_cost = TaskSet::new(vec![TaskBuilder::new(1, 1, ms(10), ms(0)).build()]);
        assert!(matches!(
            zero_cost,
            Err(ModelError::InvalidParameter { .. })
        ));
        let neg_offset = TaskSet::new(vec![TaskBuilder::new(1, 1, ms(10), ms(1))
            .offset(ms(-1))
            .build()]);
        assert!(matches!(
            neg_offset,
            Err(ModelError::InvalidParameter { .. })
        ));
    }

    #[test]
    fn builder_defaults() {
        let t = TaskBuilder::new(7, 3, ms(100), ms(10)).build();
        assert_eq!(t.deadline, t.period, "implicit deadline by default");
        assert_eq!(t.name, "τ7");
        assert!(t.is_constrained());
        let t2 = TaskBuilder::new(8, 3, ms(4), ms(2)).deadline(ms(6)).build();
        assert!(!t2.is_constrained());
    }

    #[test]
    fn add_remove_replace() {
        let set = three_tasks();
        let bigger = set
            .with_added(TaskBuilder::new(4, 10, ms(500), ms(5)).build())
            .unwrap();
        assert_eq!(bigger.len(), 4);
        assert_eq!(bigger.by_rank(3).id, TaskId(4));
        let smaller = bigger.with_removed(TaskId(4)).unwrap();
        assert_eq!(smaller, set);
        assert!(matches!(
            set.with_removed(TaskId(99)),
            Err(ModelError::UnknownTask(TaskId(99)))
        ));
        let mut spec = set.by_id(TaskId(1)).unwrap().clone();
        spec.cost = ms(40);
        let replaced = set.with_replaced(spec);
        assert_eq!(replaced.by_id(TaskId(1)).unwrap().cost, ms(40));
    }

    #[test]
    fn display_renders_table() {
        let s = three_tasks().to_string();
        assert!(s.contains("τ1"));
        assert!(s.contains("200ms"));
    }

    #[test]
    fn synchronous_and_offsets() {
        let set = three_tasks();
        assert!(set.is_synchronous());
        let mut spec = set.by_id(TaskId(3)).unwrap().clone();
        spec.offset = ms(1000);
        let shifted = set.with_replaced(spec);
        assert!(!shifted.is_synchronous());
        assert_eq!(shifted.max_offset(), ms(1000));
    }
}
