//! The per-task job table behind trace statistics and replay.
//!
//! Both [`crate::stats::TraceStats`] and the replay stepper key state by
//! `(task, job)` while they walk a trace once, and both read untrusted
//! captures. [`JobTable`] is that map, shaped for trace order:
//!
//! * **Tasks** are found through a direct table for ids below 1024, an
//!   ordered map for larger ids, and a cache of the task touched last.
//! * **Jobs** of one task sit in a vector in ascending index order. A job
//!   above the newest is appended; any other is found by scanning back a
//!   few entries from the newest (in-flight jobs sit at the tail), then
//!   by binary search.
//! * A job first seen *below* its task's newest index (reversed,
//!   interleaved or gap-filling indices) goes to an ordered side map.
//!
//! So simulator output costs O(1) per event, no input costs more than
//! O(log n) per event, and nothing is allocated in proportion to a raw
//! [`JobIndex`] or a large task id.

use crate::event::JobIndex;
use rtft_core::task::TaskId;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// A per-job value that knows its own job index.
pub trait Indexed {
    /// The job index this value belongs to.
    fn index(&self) -> JobIndex;
}

/// Task ids below this bound are found through a direct table; larger
/// ids go through an ordered map.
const DIRECT_TASK_IDS: u32 = 1024;

/// Entries a job lookup scans back from the newest before it falls back
/// to binary search.
const TAIL_SCAN: usize = 4;

/// Marks an unseen task in the direct table.
const UNSEEN: usize = usize::MAX;

/// Per-job values `T` keyed by `(task, job)`, with one `M` per task that
/// its owner attaches when the task is first seen.
#[derive(Debug)]
pub struct JobTable<T, M> {
    /// Tasks in first-seen order.
    tasks: Vec<TaskJobs<T, M>>,
    /// `direct[id]` is the slot of task `id` (ids below
    /// [`DIRECT_TASK_IDS`]), or [`UNSEEN`].
    direct: Vec<usize>,
    /// Slots of the larger ids.
    wide: BTreeMap<TaskId, usize>,
    /// Slot of the task touched last.
    last: usize,
}

/// One task's jobs in a [`JobTable`].
#[derive(Debug)]
pub struct TaskJobs<T, M> {
    task: TaskId,
    /// What the owner attached to this task when it was first seen.
    pub meta: M,
    /// Ascending job index; a job above the newest one is appended.
    jobs: Vec<T>,
    /// Jobs first seen below the newest index in `jobs`.
    late: BTreeMap<JobIndex, T>,
}

impl<T, M> Default for JobTable<T, M> {
    fn default() -> Self {
        JobTable {
            tasks: Vec::new(),
            direct: Vec::new(),
            wide: BTreeMap::new(),
            last: 0,
        }
    }
}

impl<T: Indexed, M> JobTable<T, M> {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// The jobs of `task`, created with `meta()` if the task is unseen.
    pub fn task(&mut self, task: TaskId, meta: impl FnOnce() -> M) -> &mut TaskJobs<T, M> {
        if self.tasks.get(self.last).is_none_or(|t| t.task != task) {
            let fresh = self.tasks.len();
            let slot = if task.0 < DIRECT_TASK_IDS {
                let id = task.0 as usize;
                if id >= self.direct.len() {
                    self.direct.resize(id + 1, UNSEEN);
                }
                if self.direct[id] == UNSEEN {
                    self.direct[id] = fresh;
                }
                self.direct[id]
            } else {
                *self.wide.entry(task).or_insert(fresh)
            };
            if slot == fresh {
                self.tasks.push(TaskJobs {
                    task,
                    meta: meta(),
                    jobs: Vec::new(),
                    late: BTreeMap::new(),
                });
            }
            self.last = slot;
        }
        &mut self.tasks[self.last]
    }

    /// The jobs of `task`, or `None` if the task is unseen (nothing is
    /// created).
    pub fn get_task(&mut self, task: TaskId) -> Option<&mut TaskJobs<T, M>> {
        if self.tasks.get(self.last).is_none_or(|t| t.task != task) {
            self.last = if task.0 < DIRECT_TASK_IDS {
                match self.direct.get(task.0 as usize) {
                    Some(&slot) if slot != UNSEEN => slot,
                    _ => return None,
                }
            } else {
                *self.wide.get(&task)?
            };
        }
        Some(&mut self.tasks[self.last])
    }

    /// Every task's `(id, meta, jobs)`, by ascending id, each task's jobs
    /// in ascending index order.
    pub fn into_tasks(self) -> Vec<(TaskId, M, Vec<T>)> {
        let mut tasks: Vec<(TaskId, M, Vec<T>)> = self
            .tasks
            .into_iter()
            .map(|t| {
                let mut jobs = t.jobs;
                if !t.late.is_empty() {
                    jobs.extend(t.late.into_values());
                    jobs.sort_unstable_by_key(Indexed::index);
                }
                (t.task, t.meta, jobs)
            })
            .collect();
        tasks.sort_unstable_by_key(|t| t.0);
        tasks
    }
}

impl<T: Indexed, M> TaskJobs<T, M> {
    /// The value of `job`, created with `fresh()` if unseen (`fresh` must
    /// build a value whose [`Indexed::index`] is `job`).
    pub fn slot(&mut self, job: JobIndex, fresh: impl FnOnce() -> T) -> &mut T {
        if self.jobs.last().is_none_or(|newest| newest.index() < job) {
            self.jobs.push(fresh());
            return self.jobs.last_mut().expect("just pushed");
        }
        match self.find(job) {
            Some(i) => &mut self.jobs[i],
            None => self.late.entry(job).or_insert_with(fresh),
        }
    }

    /// The value of `job`, or `None` if it is unseen.
    pub fn get_mut(&mut self, job: JobIndex) -> Option<&mut T> {
        // A job above the newest is in neither store: late jobs all sit
        // below the newest one.
        if self.jobs.last().is_none_or(|newest| newest.index() < job) {
            return None;
        }
        match self.find(job) {
            Some(i) => Some(&mut self.jobs[i]),
            None => self.late.get_mut(&job),
        }
    }

    /// Position of `job` in `jobs`: a short scan back from the tail, then
    /// binary search over the rest.
    fn find(&self, job: JobIndex) -> Option<usize> {
        let n = self.jobs.len();
        let head = n.saturating_sub(TAIL_SCAN);
        for i in (head..n).rev() {
            match self.jobs[i].index().cmp(&job) {
                Ordering::Equal => return Some(i),
                Ordering::Less => return None,
                Ordering::Greater => {}
            }
        }
        self.jobs[..head].binary_search_by_key(&job, T::index).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, PartialEq, Eq, Debug)]
    struct Job(JobIndex, u32);

    impl Indexed for Job {
        fn index(&self) -> JobIndex {
            self.0
        }
    }

    #[test]
    fn lookups_never_create_and_slots_keep_their_first_value() {
        let mut table: JobTable<Job, u32> = JobTable::new();
        assert!(table.get_task(TaskId(3)).is_none());
        assert!(table.get_task(TaskId(u32::MAX)).is_none());
        let jobs = table.task(TaskId(3), || 7);
        assert_eq!(jobs.meta, 7);
        assert!(jobs.get_mut(0).is_none());
        jobs.slot(5, || Job(5, 1)).1 += 1;
        jobs.slot(5, || Job(5, 9)).1 += 1;
        // Below the newest: the side map.
        jobs.slot(2, || Job(2, 4));
        assert_eq!(jobs.get_mut(2), Some(&mut Job(2, 4)));
        assert_eq!(jobs.get_mut(5), Some(&mut Job(5, 3)));
        assert!(jobs.get_mut(3).is_none() && jobs.get_mut(6).is_none());
        // Meta is attached once.
        assert_eq!(table.task(TaskId(3), || 99).meta, 7);
        table
            .task(TaskId(u32::MAX), || 1)
            .slot(u64::MAX, || Job(u64::MAX, 0));
        assert!(table.get_task(TaskId(4)).is_none());
        let tasks = table.into_tasks();
        let shape: Vec<(u32, u32, Vec<JobIndex>)> = tasks
            .iter()
            .map(|(t, m, jobs)| (t.0, *m, jobs.iter().map(|j| j.0).collect()))
            .collect();
        assert_eq!(
            shape,
            vec![(3, 7, vec![2, 5]), (u32::MAX, 1, vec![u64::MAX])]
        );
    }

    #[test]
    fn the_direct_table_is_sized_by_small_ids_only() {
        let mut table: JobTable<Job, ()> = JobTable::new();
        for id in [1023, 1024, u32::MAX] {
            table.task(TaskId(id), || ()).slot(0, || Job(0, id));
        }
        assert_eq!(table.direct.len(), 1024);
        assert_eq!(table.wide.len(), 2);
        assert!(table.get_task(TaskId(4_000_000)).is_none());
        assert_eq!(table.direct.len(), 1024);
    }
}
