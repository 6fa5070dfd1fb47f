//! The component layer of the discrete-event engine.
//!
//! Everything that can wake the simulator is a [`Component`]: a sleeping
//! actor that publishes its next wake time ([`Component::next_tick`]) and
//! is ticked exactly when that wake becomes the global minimum
//! ([`Component::tick`]). Between wakes a component costs nothing — an
//! idle task with a 10 s period contributes one heap entry, not a stream
//! of per-event rescans — so simulation cost scales with the number of
//! *events*, not the number of *tasks*.
//!
//! The concrete components mirror the moving parts of the paper's
//! platform:
//!
//! * [`TaskComponent`] — one per task: its release source (periodic grid
//!   plus optional activation jitter) and its absolute-deadline checks;
//! * [`TimerComponent`] — one per registered timer (the paper's
//!   detectors on the jRate quantized grid);
//! * [`OneShotComponent`] — supervisor-armed one-shots (allowance stop
//!   points), multiplexed onto one component.
//!
//! The processors are not components: each core's wake is its running
//! job's completion, kept in a register beside the queue by the engine
//! (see `crate::engine`). Components own their wake state;
//! cross-component effects (dispatch, preemption, stops, overhead
//! charges) stay at engine scope where the wake queue and the cores are
//! visible. After each tick the engine re-keys the ticked
//! component from `next_tick()`, so the queue always holds exactly one
//! entry per awake component.

use crate::engine::System;
use crate::event::{Wake, WakeClass};
use crate::supervisor::Occurrence;
use crate::timer::TimerSpec;
use rtft_core::task::TaskId;
use rtft_core::time::{Duration, Instant};
use rtft_trace::EventKind;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A schedulable actor of the discrete-event engine.
pub trait Component {
    /// The earliest pending wake of this component, if any. The engine
    /// keeps the wake queue keyed by exactly this value.
    fn next_tick(&self) -> Option<Wake>;

    /// Handle the component's due wake at virtual time `now`. Called
    /// only when `next_tick()` is the global minimum and has come due;
    /// the implementation must consume that wake (so `next_tick()`
    /// afterwards reports a strictly later wake, or none).
    fn tick(&mut self, now: Instant, sys: &mut System);
}

/// A task's release source and deadline checker.
///
/// Scalar task parameters are cached at construction so the hot release
/// path never touches the full [`rtft_core::task::TaskSpec`] (whose
/// name allocation made cloning dominate). Deadline checks queue in
/// release order; release instants are strictly monotonic within a task
/// (jitter stays below the period), so the front of the deque is always
/// the earliest pending check.
pub struct TaskComponent {
    rank: usize,
    id: TaskId,
    period: Duration,
    deadline: Duration,
    /// Epoch + offset: job `j`'s nominal release is `base + j·period`.
    base: Instant,
    /// Next release wake (`None` once the task is dead and drained).
    release: Option<Wake>,
    /// Pending absolute-deadline checks, `(wake, job)` in release order.
    deadlines: VecDeque<(Wake, u64)>,
}

impl TaskComponent {
    /// Build the component for `rank` with its first release armed.
    pub(crate) fn new(
        rank: usize,
        id: TaskId,
        period: Duration,
        deadline: Duration,
        base: Instant,
        first_release: Wake,
    ) -> Self {
        TaskComponent {
            rank,
            id,
            period,
            deadline,
            base,
            release: Some(first_release),
            deadlines: VecDeque::new(),
        }
    }

    /// Drop the pending deadline check for `job` if it is the front
    /// entry — called by the engine when the job retires *finished*, so
    /// on-time jobs never wake the engine at their deadline. A non-front
    /// entry (an older missed/abandoned job's check is still pending)
    /// is left to fire and skip lazily, which is unobservable.
    pub(crate) fn cancel_deadline(&mut self, job: u64) {
        if self.deadlines.front().is_some_and(|&(_, j)| j == job) {
            self.deadlines.pop_front();
        }
    }

    fn tick_release(&mut self, now: Instant, sys: &mut System) {
        self.release = None;
        if sys.state.procs[self.rank].is_dead() {
            return; // a stopped thread makes no further releases
        }
        let job = sys.state.procs[self.rank].released();
        // By-rank cost lookup (O(1)) + fault delta: equivalent to
        // `FaultPlan::demand`, which would re-find the task by id.
        let cost = sys.state.set.by_rank(self.rank).cost;
        let demand = cost
            .saturating_add(sys.fault_plan.delta(self.id, job))
            .max(Duration::NANO);
        sys.state.procs[self.rank].release(now, demand);
        sys.sync_policy(self.rank);
        sys.trace
            .push(now, EventKind::JobRelease { task: self.id, job });
        let dl_seq = sys.next_seq();
        self.deadlines.push_back((
            Wake::new(now + self.deadline, WakeClass::Deadline, dl_seq),
            job,
        ));
        // The next release steps from the NOMINAL grid, not from the
        // (possibly jittered) activation — jitter never accumulates.
        let nominal_next = self.base + self.period * (job as i64 + 1);
        let jitter = sys.jitter(self.rank, job + 1);
        let rel_seq = sys.next_seq();
        self.release = Some(Wake::new(
            nominal_next + jitter,
            WakeClass::Release,
            rel_seq,
        ));
        sys.notify(Occurrence::JobReleased {
            rank: self.rank,
            job,
        });
    }

    fn tick_deadline(&mut self, now: Instant, sys: &mut System) {
        let (_, job) = self.deadlines.pop_front().expect("deadline wake due");
        if sys.state.procs[self.rank].is_finished(job) {
            return; // completed on time (check not eagerly cancelled)
        }
        sys.trace
            .push(now, EventKind::DeadlineMiss { task: self.id, job });
        sys.notify(Occurrence::DeadlineMissed {
            rank: self.rank,
            job,
        });
    }
}

impl Component for TaskComponent {
    fn next_tick(&self) -> Option<Wake> {
        let dl = self.deadlines.front().map(|&(w, _)| w);
        match (self.release, dl) {
            (Some(r), Some(d)) => Some(r.min(d)),
            (r, d) => r.or(d),
        }
    }

    fn tick(&mut self, now: Instant, sys: &mut System) {
        let due = self.next_tick().expect("tick without a pending wake");
        if Some(due) == self.release {
            self.tick_release(now, sys);
        } else {
            self.tick_deadline(now, sys);
        }
    }
}

/// A registered timer (periodic or one-shot) — the paper's detectors.
///
/// The engine charges the running job with the detector-fire overhead
/// *before* ticking this component (paper §6.2: a firing costs "that of
/// a pre-emption"), so the completion re-arm precedes the timer re-arm
/// in sequence order — exactly the historical event-queue behaviour.
pub struct TimerComponent {
    id: usize,
    spec: TimerSpec,
    fires: u64,
    wake: Option<Wake>,
}

impl TimerComponent {
    /// Build timer `id` with its (quantized) first fire armed.
    pub(crate) fn new(id: usize, spec: TimerSpec, first_seq: u64) -> Self {
        TimerComponent {
            id,
            spec,
            fires: 0,
            wake: Some(Wake::new(spec.first, WakeClass::Timer, first_seq)),
        }
    }
}

impl Component for TimerComponent {
    fn next_tick(&self) -> Option<Wake> {
        self.wake
    }

    fn tick(&mut self, _now: Instant, sys: &mut System) {
        self.wake = None;
        let count = self.fires;
        self.fires += 1;
        if let Some(next) = self.spec.fire_at(count + 1) {
            let seq = sys.next_seq();
            self.wake = Some(Wake::new(next, WakeClass::Timer, seq));
        }
        sys.notify(Occurrence::TimerFired {
            id: self.id,
            tag: self.spec.tag,
            count,
        });
    }
}

/// Supervisor-armed one-shots, multiplexed onto a single component.
///
/// Arbitrarily many can be pending (the allowance treatment arms one
/// stop point per released job), so this component keeps its own small
/// heap and exposes only the minimum to the engine's wake queue.
#[derive(Default)]
pub struct OneShotComponent {
    pending: BinaryHeap<Reverse<(Wake, u64)>>,
}

impl OneShotComponent {
    /// Queue a one-shot at `at` (already clamped to `now` by the engine).
    pub(crate) fn schedule(&mut self, at: Instant, seq: u64, tag: u64) {
        self.pending
            .push(Reverse((Wake::new(at, WakeClass::OneShot, seq), tag)));
    }
}

impl Component for OneShotComponent {
    fn next_tick(&self) -> Option<Wake> {
        self.pending.peek().map(|&Reverse((w, _))| w)
    }

    fn tick(&mut self, _now: Instant, sys: &mut System) {
        let Reverse((_, tag)) = self.pending.pop().expect("one-shot wake due");
        sys.notify(Occurrence::OneShotFired { tag });
    }
}
