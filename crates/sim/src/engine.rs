//! The discrete-event component engine: a scheduler over virtual time
//! on `m ≥ 1` cores with a pluggable dispatch rule.
//!
//! The engine is a wake-queue loop over [`Component`]s (see
//! [`crate::component`]): each task, timer and supervisor one-shot
//! sleeps until its own next wake, and the engine pops the minimum
//! `(time, class, seq)` key from an indexed min-heap
//! ([`crate::event::WakeQueue`]), ticks exactly that component, lets the
//! supervisor react, and re-evaluates dispatch. Idle tasks cost nothing
//! between their wakes, so cost scales with event count, not task count.
//!
//! One engine serves every placement. A uniprocessor run — the paper's
//! platform — is the one-core case ([`Simulator::new`]). Under global
//! placement `m` cores share the one ready structure and a job may
//! resume on a different core than it was preempted on (migration is
//! free, as the global analyses of `rtft-global` assume). Under
//! partitioned placement (`rtft-part`) nothing migrates, so a multicore
//! run is one independent one-core engine per core over a shared
//! virtual clock, with the per-core traces recombined by
//! `rtft_trace::merge`.
//!
//! This is the substrate substituting for the paper's execution platform
//! (jRate VM on a TimeSys RT-Linux kernel): it executes a [`TaskSet`] with
//! exact nanosecond bookkeeping, injecting faults from a [`FaultPlan`],
//! honouring the jRate timer-quantization model and the polled-stop model,
//! and emitting the same observable record the paper's instrumentation
//! produced — a [`TraceLog`] of releases, starts, ends, preemptions,
//! detector fires, misses and stops.
//!
//! Scheduling is delegated to a [`SchedPolicy`] selected through
//! [`SimConfig::with_policy`] (fixed-priority preemptive by default, the
//! paper's platform; EDF and non-preemptive FP are also provided — see
//! [`crate::policy`]). The policy owns an index-based ready structure the
//! engine keeps in sync; it is the dispatch layer underneath the wake
//! loop. The dispatch rule: the policy's best `m` ready ranks run. Idle
//! cores are filled lowest-index-first; when no core is idle, a top-`m`
//! challenger takes the core of the dispatch-order-last incumbent that
//! fell out of the top `m`, but only under the policy's *strict*
//! preemption relation — equal priorities and equal deadlines never
//! swap. Invariants independent of the policy:
//!
//! * within a task, jobs run FIFO (required for `D > T`);
//! * dispatch and preemption decisions are deterministic (policy ties
//!   break on stable task attributes, core ties on the core index);
//! * traces are bit-for-bit reproducible: the wake order is a total
//!   order and every wake is keyed by a deterministic sequence number
//!   drawn at scheduling time (see [`crate::event`]).
//!
//! On more than one core the engine also attributes each trace event:
//! execution events (starts, resumes, preemptions, completions, stops of
//! a running job, per-core idle notes) carry the core they happened on,
//! platform-level events (releases, deadline checks, supervisor markers,
//! the end-of-run marker) carry none. [`Simulator::core_logs`] splits
//! the log along that attribution for `rtft_trace::merge`. A one-core
//! run keeps no attribution: its trace is the flat log.

use crate::arrival::ArrivalModel;
use crate::component::{Component, OneShotComponent, TaskComponent, TimerComponent};
use crate::event::{Wake, WakeClass, WakeQueue};
use crate::fault::FaultPlan;
use crate::overhead::Overheads;
use crate::policy::{PolicyImpl, PolicyKind, SchedPolicy};
use crate::process::{JobOutcome, TaskProcess};
use crate::sink::TraceSink;
use crate::stop::{StopMode, StopModel};
use crate::supervisor::{Command, Occurrence, Supervisor};
use crate::timer::{TimerModel, TimerSpec};
use rtft_core::query::MAX_CORES;
use rtft_core::task::TaskSet;
use rtft_core::time::{Duration, Instant};
use rtft_trace::{EventKind, TraceLog};
use std::collections::VecDeque;

/// Core attribution of platform-level events (no specific core); the
/// core-index range is therefore `0..u16::MAX`, which is what bounds
/// every core count read from input ([`MAX_CORES`]).
const PLATFORM: u16 = u16::MAX;
const _: () = assert!(MAX_CORES == PLATFORM as usize);

/// Engine configuration.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Simulation horizon (events past it are not processed).
    pub horizon: Instant,
    /// Timer release-grid model (jRate quantization or exact).
    pub timer_model: TimerModel,
    /// Stop-flag poll model.
    pub stop_model: StopModel,
    /// Scheduling-overhead charges (context switches, detector firings).
    pub overheads: Overheads,
    /// Dispatch rule (fixed-priority preemptive by default).
    pub policy: PolicyKind,
}

impl SimConfig {
    /// Exact timers, immediate stops, fixed-priority dispatch, the
    /// given horizon.
    pub fn until(horizon: Instant) -> Self {
        SimConfig {
            horizon,
            timer_model: TimerModel::EXACT,
            stop_model: StopModel::IMMEDIATE,
            overheads: Overheads::NONE,
            policy: PolicyKind::FixedPriority,
        }
    }

    /// Use a different dispatch rule (see [`crate::policy`]).
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Use the jRate 10 ms timer grid.
    pub fn with_jrate_timers(mut self) -> Self {
        self.timer_model = TimerModel::jrate();
        self
    }

    /// Use a custom timer model.
    pub fn with_timer_model(mut self, m: TimerModel) -> Self {
        self.timer_model = m;
        self
    }

    /// Use a custom stop model.
    pub fn with_stop_model(mut self, m: StopModel) -> Self {
        self.stop_model = m;
        self
    }

    /// Charge scheduling overheads (context switches, detector firings).
    pub fn with_overheads(mut self, o: Overheads) -> Self {
        self.overheads = o;
        self
    }
}

/// Read-only scheduler state exposed to supervisors. Supervisors
/// introspect jobs, never cores.
#[derive(Debug)]
pub struct SimState {
    pub(crate) set: TaskSet,
    pub(crate) now: Instant,
    pub(crate) procs: Vec<TaskProcess>,
}

impl SimState {
    /// Current virtual time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// The task set under execution (priority-rank order).
    pub fn task_set(&self) -> &TaskSet {
        &self.set
    }

    /// Outcome of a job.
    pub fn outcome(&self, rank: usize, job: u64) -> JobOutcome {
        self.procs[rank].outcome(job)
    }

    /// `true` iff the job ran to completion.
    pub fn is_finished(&self, rank: usize, job: u64) -> bool {
        self.procs[rank].is_finished(job)
    }

    /// Jobs released so far for a task.
    pub fn released(&self, rank: usize) -> u64 {
        self.procs[rank].released()
    }

    /// `true` iff the task was permanently stopped.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.procs[rank].is_dead()
    }
}

/// The mutable simulation world handed to a ticking [`Component`]:
/// scheduler state, the dispatch policy's ready structure, the trace,
/// the occurrence outbox and the deterministic wake-sequence counter.
///
/// The wake queue itself is *not* here — cross-component wake effects
/// (dispatch, preemption, stops, overhead charges) happen at engine
/// scope, so a component can only consume its own wakes and append to
/// the shared record.
pub struct System {
    pub(crate) state: SimState,
    pub(crate) policy: PolicyImpl,
    pub(crate) trace: TraceLog,
    pub(crate) occurrences: VecDeque<Occurrence>,
    pub(crate) fault_plan: FaultPlan,
    pub(crate) arrivals: Option<ArrivalModel>,
    pub(crate) seq: u64,
    pub(crate) observe: bool,
}

impl System {
    /// Queue an occurrence for the supervisor, unless it declared
    /// itself passive (see [`Supervisor::observes`]).
    #[inline]
    pub(crate) fn notify(&mut self, occ: Occurrence) {
        if self.observe {
            self.occurrences.push_back(occ);
        }
    }

    /// Read-only scheduler state.
    pub fn state(&self) -> &SimState {
        &self.state
    }

    /// Draw the next wake-sequence number. Exactly one is consumed per
    /// scheduling decision, in decision order — the determinism (and
    /// golden-trace) tie-break contract.
    pub(crate) fn next_seq(&mut self) -> u64 {
        let s = self.seq;
        self.seq += 1;
        s
    }

    /// Activation jitter for `(rank, job)` under the arrival model.
    pub(crate) fn jitter(&self, rank: usize, job: u64) -> Duration {
        self.arrivals
            .as_ref()
            .map_or(Duration::ZERO, |a| a.jitter(rank, job))
    }

    /// Refresh the policy's view of `rank` after its job queue changed.
    pub(crate) fn sync_policy(&mut self, rank: usize) {
        let proc = &self.state.procs[rank];
        let ready = proc.is_ready();
        let head = proc.front().map(|j| j.released_at);
        self.policy.update(rank, ready, head);
    }

    pub(crate) fn task_id(&self, rank: usize) -> rtft_core::task::TaskId {
        self.state.set.by_rank(rank).id
    }
}

/// Reusable per-worker simulation storage: the trace log, the wake
/// queue and the occurrence outbox survive across runs so a campaign
/// worker allocates once per worker instead of once per job.
///
/// ```
/// use rtft_sim::prelude::*;
/// use rtft_core::prelude::*;
///
/// let set = TaskSet::from_specs(vec![
///     TaskBuilder::new(1, 20, Duration::millis(100), Duration::millis(10)).build(),
/// ]);
/// let mut bufs = SimBuffers::new();
/// for _ in 0..3 {
///     let mut sim = Simulator::new_in(set.clone(), 1, SimConfig::until(Instant::from_millis(500)), &mut bufs);
///     sim.run(&mut NullSupervisor);
///     let log = sim.finish(&mut bufs);
///     bufs.recycle_log(log);
/// }
/// ```
#[derive(Default)]
pub struct SimBuffers {
    pub(crate) trace: TraceLog,
    pub(crate) wakes: WakeQueue,
    pub(crate) occurrences: VecDeque<Occurrence>,
}

impl SimBuffers {
    /// Fresh (empty) buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Hand a finished run's trace back for reuse once its contents
    /// are no longer needed: the storage is cleared but its capacity
    /// feeds the next [`Simulator::new_in`].
    pub fn recycle_log(&mut self, mut log: TraceLog) {
        log.clear();
        self.trace = log;
    }
}

/// One processor: its running assignment and its completion register.
/// Completions are the most frequently re-armed wakes (every dispatch,
/// preemption and overhead charge), so they stay out of the wake heap
/// and are compared against its root instead — completion traffic
/// costs no sifts.
#[derive(Clone, Copy, Debug, Default)]
struct CoreSlot {
    /// Rank currently dispatched here.
    running: Option<usize>,
    /// When the current dispatch interval started. Consumed CPU is
    /// accounted lazily, when the interval ends or is charged.
    dispatched_at: Instant,
    /// The running job's completion wake. It always belongs to the
    /// running job: every re-dispatch re-arms it and an in-place
    /// abandonment disarms it, so no stale completion ever fires.
    completion: Option<Wake>,
    /// `true` once this core has ever run a job (gates idle notes).
    ever_busy: bool,
    /// `true` while an idle note for the current gap has been emitted.
    idle_noted: bool,
}

/// The simulator: `m ≥ 1` cores over one wake queue and one ready
/// structure (see the module docs).
pub struct Simulator {
    sys: System,
    wakes: WakeQueue,
    tasks: Vec<TaskComponent>,
    timer_components: Vec<TimerComponent>,
    oneshots: OneShotComponent,
    cores: Vec<CoreSlot>,
    timers: Vec<TimerSpec>,
    config: SimConfig,
    /// Core attribution per trace event, on more than one core only.
    /// Filled up to the last execution event; later events (and every
    /// `PLATFORM` entry) are platform-level.
    core_tags: Vec<u16>,
    /// Scratch: the policy's current top-`m` ready ranks.
    desired: Vec<usize>,
    /// Scratch: the supervisor's commands for one occurrence.
    commands: Vec<Command>,
    events_processed: u64,
    finished: bool,
}

impl Simulator {
    /// Build a one-core simulator for `set` under `config` — the
    /// paper's uniprocessor platform.
    pub fn new(set: TaskSet, config: SimConfig) -> Self {
        Simulator::new_in(set, 1, config, &mut SimBuffers::default())
    }

    /// Build a simulator for `set` on `cores` processors, reusing
    /// `bufs`' storage (see [`SimBuffers`]).
    ///
    /// # Panics
    /// Panics unless `1 ≤ cores ≤ MAX_CORES` (the core-attribution range).
    pub fn new_in(set: TaskSet, cores: usize, config: SimConfig, bufs: &mut SimBuffers) -> Self {
        assert!(
            (1..=MAX_CORES).contains(&cores),
            "a platform needs at least one core and at most {MAX_CORES} cores"
        );
        let n = set.len();
        let policy = PolicyImpl::build(config.policy, &set);
        let mut trace = std::mem::take(&mut bufs.trace);
        trace.clear();
        let mut occurrences = std::mem::take(&mut bufs.occurrences);
        occurrences.clear();
        Simulator {
            sys: System {
                state: SimState {
                    set,
                    now: Instant::EPOCH,
                    procs: (0..n).map(|_| TaskProcess::new()).collect(),
                },
                policy,
                trace,
                occurrences,
                fault_plan: FaultPlan::none(),
                arrivals: None,
                seq: 0,
                observe: true,
            },
            wakes: std::mem::take(&mut bufs.wakes),
            tasks: Vec::new(),
            timer_components: Vec::new(),
            oneshots: OneShotComponent::default(),
            cores: vec![CoreSlot::default(); cores],
            timers: Vec::new(),
            config,
            core_tags: Vec::new(),
            desired: Vec::new(),
            commands: Vec::new(),
            events_processed: 0,
            finished: false,
        }
    }

    /// Install a fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.sys.fault_plan = plan;
        self
    }

    /// Install a release-jitter arrival model. Every bound must stay
    /// below the task's period (activations never reorder within a task).
    ///
    /// # Panics
    /// Panics if any jitter bound reaches the task's period.
    pub fn with_arrivals(mut self, arrivals: ArrivalModel) -> Self {
        for rank in 0..self.sys.state.set.len() {
            assert!(
                arrivals.bound(rank) < self.sys.state.set.by_rank(rank).period,
                "jitter bound must stay below the period"
            );
        }
        self.sys.arrivals = Some(arrivals);
        self
    }

    /// Register a periodic timer. `first` is relative to the epoch and is
    /// quantized by the configured [`TimerModel`] (the jRate artifact);
    /// `period` steps exactly. Returns the timer id.
    pub fn add_periodic_timer(&mut self, first: Duration, period: Duration, tag: u64) -> usize {
        assert!(period.is_positive(), "timer period must be positive");
        self.add_timer(first, Some(period), tag)
    }

    /// Register a one-shot timer (same quantization rule).
    pub fn add_one_shot_timer(&mut self, at: Duration, tag: u64) -> usize {
        self.add_timer(at, None, tag)
    }

    fn add_timer(&mut self, first: Duration, period: Option<Duration>, tag: u64) -> usize {
        let first = Instant::EPOCH + self.config.timer_model.first_release(first);
        self.timers.push(TimerSpec { first, period, tag });
        self.timers.len() - 1
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Read-only state (exposed for tests and harnesses).
    pub fn state(&self) -> &SimState {
        &self.sys.state
    }

    /// The trace recorded so far.
    pub fn trace(&self) -> &TraceLog {
        &self.sys.trace
    }

    /// Consume the simulator, returning the trace.
    pub fn into_trace(self) -> TraceLog {
        self.sys.trace
    }

    /// Consume the simulator, returning the trace and handing the wake
    /// queue and occurrence storage back to `bufs` for the next run.
    pub fn finish(mut self, bufs: &mut SimBuffers) -> TraceLog {
        self.sys.occurrences.clear();
        bufs.wakes = self.wakes;
        bufs.occurrences = self.sys.occurrences;
        self.sys.trace
    }

    /// Wakes processed by the engine loop (an *event* count — idle
    /// tasks contribute nothing between their wakes).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Core of trace event `idx`, or `None` for platform-level events
    /// (releases, deadline checks, supervisor markers, `SimEnd`) and
    /// for every event of a one-core run.
    pub fn core_of(&self, idx: usize) -> Option<usize> {
        match self.core_tags.get(idx) {
            Some(&c) if c != PLATFORM => Some(usize::from(c)),
            _ => None,
        }
    }

    /// Split the log along [`Self::core_of`] into per-core logs for
    /// `rtft_trace::merge`: indices `0..m` are the cores, index `m`
    /// collects the platform-level events. Each log preserves the
    /// engine's chronological order.
    pub fn core_logs(&self) -> Vec<(usize, TraceLog)> {
        let m = self.cores.len();
        let mut logs: Vec<(usize, TraceLog)> = (0..=m).map(|c| (c, TraceLog::default())).collect();
        for (idx, e) in self.sys.trace.events().iter().enumerate() {
            let bucket = self.core_of(idx).unwrap_or(m);
            logs[bucket].1.push(e.at, e.kind);
        }
        logs
    }

    /// Component id of the one-shot multiplexer; core `k`'s completion
    /// register answers to the id `oneshot_cid + 1 + k`.
    fn oneshot_cid(&self) -> usize {
        self.tasks.len() + self.timer_components.len()
    }

    /// Attribute the event just recorded to core `k` (on more than one
    /// core; a one-core run keeps no attribution).
    #[inline]
    fn tag_last(&mut self, k: usize) {
        if self.cores.len() > 1 {
            let idx = self.sys.trace.len() - 1;
            self.core_tags.resize(idx, PLATFORM);
            self.core_tags.push(k as u16);
        }
    }

    /// Run to the horizon under `supervisor`. May be called once.
    ///
    /// # Panics
    /// Panics on a second call.
    pub fn run(&mut self, supervisor: &mut dyn Supervisor) -> &TraceLog {
        self.run_with(supervisor, None)
    }

    /// Like [`Self::run`], but also feed every recorded event to `sink`
    /// as soon as the wake that produced it is processed, with the
    /// attribution [`Self::core_of`] reports. The recorded trace is
    /// byte-identical with and without a sink: the sink observes the
    /// log, it never alters it.
    ///
    /// # Panics
    /// Panics on a second call.
    pub fn run_streamed(
        &mut self,
        supervisor: &mut dyn Supervisor,
        sink: &mut dyn TraceSink,
    ) -> &TraceLog {
        self.run_with(supervisor, Some(sink))
    }

    fn run_with(
        &mut self,
        supervisor: &mut dyn Supervisor,
        mut sink: Option<&mut dyn TraceSink>,
    ) -> &TraceLog {
        assert!(!self.finished, "run() called twice");
        // Sink cursor: events up to (but excluding) `fed` have been
        // streamed. Drained after every processed wake and once more
        // after the final SimEnd.
        let mut fed = 0usize;
        self.sys.observe = supervisor.observes();
        let n = self.sys.state.set.len();
        let n_timers = self.timers.len();
        self.wakes.reset(n + n_timers + 1);
        self.sys
            .trace
            .reserve(trace_estimate(&self.sys.state.set, self.config.horizon));
        self.core_tags.clear();

        // Build the components with their first wakes armed: tasks in
        // rank order, then timers in registration order (the sequence
        // numbers drawn here are the golden-trace tie-break for
        // simultaneous initial releases).
        self.tasks.clear();
        self.tasks.reserve(n);
        for rank in 0..n {
            let spec = self.sys.state.set.by_rank(rank);
            let (id, period, deadline, offset) = (spec.id, spec.period, spec.deadline, spec.offset);
            let jitter = self.sys.jitter(rank, 0);
            let seq = self.sys.next_seq();
            let first = Wake::new(Instant::EPOCH + offset + jitter, WakeClass::Release, seq);
            self.wakes.set(rank, first);
            self.tasks.push(TaskComponent::new(
                rank,
                id,
                period,
                deadline,
                Instant::EPOCH + offset,
                first,
            ));
        }
        self.timer_components.clear();
        self.timer_components.reserve(n_timers);
        for (id, spec) in self.timers.iter().enumerate() {
            let seq = self.sys.next_seq();
            let comp = TimerComponent::new(id, *spec, seq);
            self.wakes
                .set(n + id, comp.next_tick().expect("fresh timer is armed"));
            self.timer_components.push(comp);
        }

        let oneshot_cid = n + n_timers;
        // The ticked component is always the heap root and never wakes
        // earlier than the key just consumed, so each iteration re-keys
        // the root in place (`rekey_min`) instead of popping and
        // re-pushing — one sift per event. Wakes armed *during* a tick
        // (a completion charge, a cancelled deadline) are always keyed
        // later than the root, so the root entry stays put until its
        // rekey. The due wake is the minimum over the heap root and the
        // core completion registers; keys are unique (one sequence
        // number per scheduling decision), so `<` is an exact tie-break.
        loop {
            // The earliest core completion: on one core its register
            // itself, read directly since this runs on every event.
            let core_due = match &self.cores[..] {
                [core] => core.completion.map(|w| (w, 0)),
                cores => cores
                    .iter()
                    .enumerate()
                    .filter_map(|(k, c)| c.completion.map(|w| (w, k)))
                    .min(),
            };
            let (wake, cid) = match (self.wakes.peek(), core_due) {
                (Some((hw, hc)), Some((cw, k))) => {
                    if cw < hw {
                        (cw, oneshot_cid + 1 + k)
                    } else {
                        (hw, hc)
                    }
                }
                (Some(heap), None) => heap,
                (None, Some((cw, k))) => (cw, oneshot_cid + 1 + k),
                (None, None) => break,
            };
            let now = wake.at();
            if now > self.config.horizon {
                break;
            }
            self.sys.state.now = now;
            self.events_processed += 1;
            if cid < n {
                self.tasks[cid].tick(now, &mut self.sys);
                let next = self.tasks[cid].next_tick();
                self.wakes.rekey_min(cid, next);
            } else if cid < oneshot_cid {
                // A firing preempts a running job for the handler's
                // duration (paper §6.2: "that of a pre-emption") — the
                // charge (a completion re-arm) precedes the timer
                // re-arm in sequence order.
                self.charge_detector_fire();
                let timer = &mut self.timer_components[cid - n];
                timer.tick(now, &mut self.sys);
                let next = timer.next_tick();
                self.wakes.rekey_min(cid, next);
            } else if cid == oneshot_cid {
                self.oneshots.tick(now, &mut self.sys);
                self.wakes.rekey_min(cid, self.oneshots.next_tick());
            } else {
                self.complete_on(cid - oneshot_cid - 1);
            }
            self.drain_occurrences(supervisor);
            self.reschedule();
            if let Some(s) = sink.as_mut() {
                fed = self.feed(&mut **s, fed);
            }
        }
        self.sys.state.now = self.config.horizon;
        self.sys.trace.push(self.config.horizon, EventKind::SimEnd);
        if let Some(s) = sink.as_mut() {
            self.feed(&mut **s, fed);
        }
        self.finished = true;
        &self.sys.trace
    }

    /// Stream the events from `fed` on to `sink`; returns the new cursor.
    fn feed(&self, sink: &mut dyn TraceSink, mut fed: usize) -> usize {
        while fed < self.sys.trace.len() {
            let e = self.sys.trace.events()[fed];
            sink.record(self.core_of(fed), e.at, e.kind);
            fed += 1;
        }
        fed
    }

    /// Retire the job completing on core `k`.
    fn complete_on(&mut self, k: usize) {
        let now = self.sys.state.now;
        let core = &mut self.cores[k];
        let rank = core
            .running
            .take()
            .expect("completion wake on an idle core");
        core.completion = None;
        let elapsed = now - core.dispatched_at;
        let task = self.sys.task_id(rank);
        let proc = &mut self.sys.state.procs[rank];
        proc.account(elapsed);
        let doomed = proc.front().is_some_and(|j| j.doomed);
        let outcome = if doomed {
            JobOutcome::Abandoned
        } else {
            JobOutcome::Finished
        };
        let job = proc.retire_front(outcome).index;
        self.sys.sync_policy(rank);
        if doomed {
            self.sys
                .trace
                .push(now, EventKind::TaskStopped { task, job });
            self.tag_last(k);
            self.sys.notify(Occurrence::JobAbandoned { rank, job });
        } else {
            self.sys.trace.push(now, EventKind::JobEnd { task, job });
            self.tag_last(k);
            self.sys.notify(Occurrence::JobFinished { rank, job });
            // An on-time completion cancels its deadline check.
            self.tasks[rank].cancel_deadline(job);
            self.wakes.arm(rank, self.tasks[rank].next_tick());
        }
    }

    fn drain_occurrences(&mut self, supervisor: &mut dyn Supervisor) {
        let mut commands = std::mem::take(&mut self.commands);
        while let Some(occ) = self.sys.occurrences.pop_front() {
            supervisor.on_occurrence(&self.sys.state, occ, &mut commands);
            for cmd in commands.drain(..) {
                self.apply_command(cmd);
            }
        }
        self.commands = commands;
    }

    fn apply_command(&mut self, cmd: Command) {
        match cmd {
            Command::Trace(kind) => self.sys.trace.push(self.sys.state.now, kind),
            Command::ScheduleOneShot { at, tag } => {
                let at = at.max(self.sys.state.now);
                let seq = self.sys.next_seq();
                self.oneshots.schedule(at, seq, tag);
                let cid = self.oneshot_cid();
                self.wakes.arm(cid, self.oneshots.next_tick());
            }
            Command::Stop { rank, mode } => self.stop_task(rank, mode),
        }
    }

    /// Bank the live interval of the job running on core `k`, so its
    /// `consumed` and `remaining` are current at `now`.
    fn account_live(&mut self, k: usize) {
        let now = self.sys.state.now;
        let core = &mut self.cores[k];
        let rank = core.running.expect("accounting an idle core");
        let elapsed = now - core.dispatched_at;
        if elapsed.is_positive() {
            self.sys.state.procs[rank].account(elapsed);
            core.dispatched_at = now;
        }
    }

    fn stop_task(&mut self, rank: usize, mode: StopMode) {
        let now = self.sys.state.now;
        let task = self.sys.task_id(rank);
        let on_core = self.cores.iter().position(|c| c.running == Some(rank));
        if self.sys.state.procs[rank].front().is_some() {
            if let Some(k) = on_core {
                self.account_live(k);
            }
            let job = *self.sys.state.procs[rank].front().expect("checked above");
            let extra = self.config.stop_model.extra_runtime(job.consumed);
            if extra >= job.remaining && mode == StopMode::JobOnly {
                // The job finishes naturally before the next poll point;
                // nothing to doom.
            } else if extra.is_zero() {
                let retired = self.sys.state.procs[rank].retire_front(JobOutcome::Abandoned);
                if let Some(k) = on_core {
                    self.cores[k].running = None;
                    self.cores[k].completion = None;
                }
                self.sys.trace.push(
                    now,
                    EventKind::TaskStopped {
                        task,
                        job: retired.index,
                    },
                );
                if let Some(k) = on_core {
                    self.tag_last(k);
                }
                self.sys.notify(Occurrence::JobAbandoned {
                    rank,
                    job: retired.index,
                });
            } else {
                // Doom the job: it runs `extra` more CPU, then is
                // abandoned at its completion — the polled stop flag.
                let front = self.sys.state.procs[rank]
                    .front_mut()
                    .expect("checked above");
                front.doomed = true;
                if extra < front.remaining {
                    front.remaining = extra;
                }
                let remaining = front.remaining;
                if let Some(k) = on_core {
                    // Re-arm with the shortened remaining time.
                    self.arm_completion(k, now.saturating_add(remaining));
                }
            }
        }
        if mode == StopMode::Permanent {
            self.sys.state.procs[rank].kill();
        }
        self.sys.sync_policy(rank);
    }

    /// Charge the detector-fire overhead to the job on the
    /// lowest-indexed busy core (the only core on a uniprocessor) and
    /// re-arm its completion. No-op when the charge is zero or every
    /// core is idle.
    fn charge_detector_fire(&mut self) {
        let amount = self.config.overheads.detector_fire;
        if amount.is_zero() {
            return;
        }
        let Some(k) = self.cores.iter().position(|c| c.running.is_some()) else {
            return;
        };
        self.account_live(k);
        let rank = self.cores[k].running.expect("position checked");
        let job = self.sys.state.procs[rank]
            .front_mut()
            .expect("running job present");
        job.remaining = job.remaining.saturating_add(amount);
        job.demand = job.demand.saturating_add(amount);
        let remaining = job.remaining;
        self.arm_completion(k, self.sys.state.now.saturating_add(remaining));
    }

    /// (Re-)arm core `k`'s completion register, drawing a sequence number.
    fn arm_completion(&mut self, k: usize, at: Instant) {
        let seq = self.sys.next_seq();
        self.cores[k].completion = Some(Wake::new(at, WakeClass::Completion, seq));
    }

    /// Re-evaluate dispatch after an event: the policy's top `m` ready
    /// ranks should hold the cores. See the module docs for the rule.
    fn reschedule(&mut self) {
        if self.cores.len() == 1 {
            // One core: the top-1 rank is the policy's `pick`, and the
            // placement pass reduces to "dispatch it on the idle core,
            // or let it preempt the incumbent". This runs on every
            // event, so it skips the pass's scratch list and core scans.
            match (self.cores[0].running, self.sys.policy.pick()) {
                (None, Some(b)) => self.dispatch(0, b),
                (Some(r), Some(b)) if b != r && self.sys.policy.preempts(r, b) => {
                    self.preempt(0, r, b);
                    self.dispatch(0, b);
                }
                (None, None) => self.note_idle(0),
                _ => {}
            }
        } else {
            self.place_top_m();
            for k in 0..self.cores.len() {
                self.note_idle(k);
            }
        }
    }

    /// Note core `k`'s idle gap once, when it is still idle after
    /// placement (it has nothing it could run).
    fn note_idle(&mut self, k: usize) {
        let core = &mut self.cores[k];
        if core.running.is_none() && core.ever_busy && !core.idle_noted {
            core.idle_noted = true;
            self.sys.trace.push(self.sys.state.now, EventKind::CpuIdle);
            self.tag_last(k);
        }
    }

    /// Place the policy's top `m` ready ranks on `m > 1` cores: idle
    /// cores first, then strict preemption of the incumbents that fell
    /// out of the top `m`. Kept out of line so the one-core dispatch
    /// path in [`Self::reschedule`] stays small.
    #[inline(never)]
    fn place_top_m(&mut self) {
        let mut desired = std::mem::take(&mut self.desired);
        self.sys.policy.top(self.cores.len(), &mut desired);
        for &u in &desired {
            if self.cores.iter().any(|c| c.running == Some(u)) {
                continue;
            }
            if let Some(k) = self.cores.iter().position(|c| c.running.is_none()) {
                self.dispatch(k, u);
                continue;
            }
            // No idle core: the challenger may take the core of the
            // dispatch-order-last incumbent that fell out of the
            // top m. Challengers arrive best-first and victims are
            // taken worst-first, so the first failed `preempts` ends
            // the pass for every remaining challenger too.
            let mut victim: Option<(usize, usize)> = None;
            for (k, core) in self.cores.iter().enumerate() {
                let Some(v) = core.running else { continue };
                if desired.contains(&v) {
                    continue;
                }
                if victim.is_none_or(|(_, bv)| self.sys.policy.ahead(bv, v)) {
                    victim = Some((k, v));
                }
            }
            match victim {
                Some((k, v)) if self.sys.policy.preempts(v, u) => {
                    self.preempt(k, v, u);
                    self.dispatch(k, u);
                }
                _ => break,
            }
        }
        self.desired = desired;
    }

    fn dispatch(&mut self, k: usize, rank: usize) {
        let now = self.sys.state.now;
        let task = self.sys.task_id(rank);
        let core = &mut self.cores[k];
        core.running = Some(rank);
        core.dispatched_at = now;
        core.ever_busy = true;
        core.idle_noted = false;
        let ctx = self.config.overheads.dispatch;
        let job = self.sys.state.procs[rank]
            .front_mut()
            .expect("dispatch on empty queue");
        if ctx.is_positive() {
            job.remaining = job.remaining.saturating_add(ctx);
            job.demand = job.demand.saturating_add(ctx);
        }
        let (index, remaining, started) = (job.index, job.remaining, job.started);
        job.started = true;
        let kind = if started {
            EventKind::Resumed { task, job: index }
        } else {
            EventKind::JobStart { task, job: index }
        };
        self.sys.trace.push(now, kind);
        self.tag_last(k);
        // A saturated demand completes at the end of time, never wraps.
        self.arm_completion(k, now.saturating_add(remaining));
    }

    /// Take core `k` from `rank` for `by`; the caller dispatches `by`
    /// there in the same breath, which re-arms the completion register.
    fn preempt(&mut self, k: usize, rank: usize, by: usize) {
        self.account_live(k);
        let now = self.sys.state.now;
        let task = self.sys.task_id(rank);
        let by_id = self.sys.task_id(by);
        let job = self.sys.state.procs[rank]
            .front()
            .expect("preempt on empty queue")
            .index;
        self.sys.trace.push(
            now,
            EventKind::Preempted {
                task,
                job,
                by: by_id,
            },
        );
        self.tag_last(k);
        self.cores[k].running = None;
        self.cores[k].completion = None;
    }
}

/// A per-run trace-capacity estimate: ~4 trace events per job
/// (release, start, end, plus slack for preemptions/misses), capped so
/// degenerate horizons cannot trigger an absurd preallocation.
fn trace_estimate(set: &TaskSet, horizon: Instant) -> usize {
    let span = horizon.since_epoch();
    let mut total = 16usize;
    for rank in 0..set.len() {
        let spec = set.by_rank(rank);
        let avail = (span - spec.offset).as_nanos();
        if avail < 0 {
            continue;
        }
        let jobs = (avail / spec.period.as_nanos().max(1)) as usize + 1;
        total = total.saturating_add(jobs.saturating_mul(4));
    }
    total.min(1 << 20)
}

/// Convenience: run `set` on one core, fault-free with no supervision,
/// until `horizon`.
pub fn run_plain(set: TaskSet, horizon: Instant) -> TraceLog {
    let mut sim = Simulator::new(set, SimConfig::until(horizon));
    sim.run(&mut crate::supervisor::NullSupervisor);
    sim.into_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::NullSupervisor;
    use rtft_core::task::{TaskBuilder, TaskId};
    use rtft_trace::TraceStats;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    fn t(v: i64) -> Instant {
        Instant::from_millis(v)
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
    fn fault_free_table2_matches_analysis() {
        let set = table2();
        let log = run_plain(set.clone(), t(3000));
        let stats = TraceStats::from_log(&log, Some(&set));
        // Synchronous release: first responses equal the analytic WCRTs.
        assert_eq!(stats.job(TaskId(1), 0).unwrap().response(), Some(ms(29)));
        assert_eq!(stats.job(TaskId(2), 0).unwrap().response(), Some(ms(58)));
        assert_eq!(stats.job(TaskId(3), 0).unwrap().response(), Some(ms(87)));
        // Observed worst responses never exceed the analytic WCRTs.
        assert!(stats.observed_wcrt(TaskId(1)).unwrap() <= ms(29));
        assert!(stats.observed_wcrt(TaskId(2)).unwrap() <= ms(58));
        assert!(stats.observed_wcrt(TaskId(3)).unwrap() <= ms(87));
        assert!(!log.any_miss());
    }

    #[test]
    fn preemption_recorded() {
        // τ2 long job preempted by τ1.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 9, ms(10), ms(2)).offset(ms(3)).build(),
            TaskBuilder::new(2, 3, ms(50), ms(10)).build(),
        ]);
        let log = run_plain(set.clone(), t(50));
        // τ2 runs [0,3), preempted at 3, τ1 runs [3,5), τ2 resumes [5,12).
        let pre = log
            .find(|e| {
                matches!(
                    e.kind,
                    EventKind::Preempted {
                        task: TaskId(2),
                        by: TaskId(1),
                        ..
                    }
                )
            })
            .expect("preemption");
        assert_eq!(pre.at, t(3));
        let res = log
            .find(|e| {
                matches!(
                    e.kind,
                    EventKind::Resumed {
                        task: TaskId(2),
                        ..
                    }
                )
            })
            .expect("resume");
        assert_eq!(res.at, t(5));
        assert_eq!(log.job_end(TaskId(2), 0), Some(t(12)));
    }

    #[test]
    fn equal_priority_no_preemption() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 5, ms(100), ms(10)).build(),
            TaskBuilder::new(2, 5, ms(100), ms(10))
                .offset(ms(5))
                .build(),
        ]);
        let log = run_plain(set, t(100));
        assert_eq!(
            log.count(|e| matches!(e.kind, EventKind::Preempted { .. })),
            0,
            "equal priorities must run FIFO"
        );
        assert_eq!(log.job_end(TaskId(1), 0), Some(t(10)));
        assert_eq!(log.job_end(TaskId(2), 0), Some(t(20)));
    }

    #[test]
    fn arbitrary_deadline_multi_job_responses() {
        // The paper's Table 1 system: τ2 job responses 5, 6, 4 ms.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(6), ms(3))
                .deadline(ms(6))
                .build(),
            TaskBuilder::new(2, 15, ms(4), ms(2))
                .deadline(ms(2))
                .build(),
        ]);
        let log = run_plain(set.clone(), t(12));
        let stats = TraceStats::from_log(&log, Some(&set));
        let responses: Vec<i64> = stats
            .jobs_of(TaskId(2))
            .iter()
            .filter_map(|j| j.response())
            .map(|d| d.as_millis())
            .collect();
        assert_eq!(responses, vec![5, 6, 4]);
        // τ2's 2 ms deadline is blown by every one of those jobs.
        assert_eq!(log.misses(TaskId(2)).len(), 3);
        assert!(log.misses(TaskId(1)).is_empty());
    }

    #[test]
    fn fault_injection_shifts_completions() {
        // The Figure 3 scenario: τ3 offset 1000 ms, +40 ms on τ1's job 5.
        let specs = table2();
        let mut tau3 = specs.by_id(TaskId(3)).unwrap().clone();
        tau3.offset = ms(1000);
        let set = specs.with_replaced(tau3);
        let plan = FaultPlan::none().overrun(TaskId(1), 5, ms(40));
        let mut sim = Simulator::new(set.clone(), SimConfig::until(t(1500))).with_faults(plan);
        let mut sup = NullSupervisor;
        sim.run(&mut sup);
        let log = sim.into_trace();
        // τ1's job 5 (released at 1000) runs 69 ms → ends 1069 ≤ 1070. OK.
        assert_eq!(log.job_end(TaskId(1), 5), Some(t(1069)));
        // τ2's job 4 (released at 1000) ends at 1098 ≤ 1120. OK.
        assert_eq!(log.job_end(TaskId(2), 4), Some(t(1098)));
        // τ3's job 0 (released at 1000) ends at 1127 > 1120: misses.
        assert_eq!(log.job_end(TaskId(3), 0), Some(t(1127)));
        assert_eq!(log.misses(TaskId(3)), vec![0]);
        assert!(log.misses(TaskId(1)).is_empty());
        assert!(log.misses(TaskId(2)).is_empty());
    }

    #[test]
    fn determinism_same_inputs_same_trace() {
        let run = || {
            let plan = FaultPlan::none().overrun(TaskId(1), 2, ms(17));
            let mut sim = Simulator::new(table2(), SimConfig::until(t(3000))).with_faults(plan);
            let mut sup = NullSupervisor;
            sim.run(&mut sup);
            sim.into_trace().content_hash()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn timer_quantization_applies_to_first_release() {
        let mut sim = Simulator::new(table2(), SimConfig::until(t(500)).with_jrate_timers());
        let id = sim.add_periodic_timer(ms(29), ms(200), 42);
        assert_eq!(sim.timers[id].first, t(30), "29 ms quantized to 30 ms");
        assert_eq!(sim.timers[id].fire_at(1), Some(t(230)), "period exact");
    }

    /// A supervisor that stops a task when a one-shot fires.
    struct StopAt {
        rank: usize,
        at: Instant,
        armed: bool,
        mode: StopMode,
    }

    impl Supervisor for StopAt {
        fn on_occurrence(&mut self, _state: &SimState, occ: Occurrence, out: &mut Vec<Command>) {
            match occ {
                Occurrence::JobReleased { .. } if !self.armed => {
                    self.armed = true;
                    out.push(Command::ScheduleOneShot {
                        at: self.at,
                        tag: 1,
                    });
                }
                Occurrence::OneShotFired { tag: 1 } => {
                    out.push(Command::Stop {
                        rank: self.rank,
                        mode: self.mode,
                    });
                }
                _ => {}
            }
        }
    }

    #[test]
    fn stop_running_task_immediately() {
        // τ1 alone, cost 29 ms; stop it at t = 10.
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(200), ms(29))
            .deadline(ms(70))
            .build()]);
        let mut sim = Simulator::new(set, SimConfig::until(t(400)));
        let mut sup = StopAt {
            rank: 0,
            at: t(10),
            armed: false,
            mode: StopMode::Permanent,
        };
        sim.run(&mut sup);
        let log = sim.trace();
        let stops = log.stops();
        assert_eq!(stops, vec![(TaskId(1), 0, t(10))]);
        // Permanent: no release at t = 200.
        assert!(log.job_release(TaskId(1), 1).is_none());
        // The unfinished job misses its deadline at t = 70.
        assert_eq!(log.misses(TaskId(1)), vec![0]);
    }

    #[test]
    fn stop_job_only_allows_future_releases() {
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(200), ms(29))
            .deadline(ms(70))
            .build()]);
        let mut sim = Simulator::new(set, SimConfig::until(t(400)));
        let mut sup = StopAt {
            rank: 0,
            at: t(10),
            armed: false,
            mode: StopMode::JobOnly,
        };
        sim.run(&mut sup);
        let log = sim.trace();
        assert_eq!(log.stops().len(), 1);
        assert_eq!(log.job_release(TaskId(1), 1), Some(t(200)));
        assert_eq!(log.job_end(TaskId(1), 1), Some(t(229)));
    }

    #[test]
    fn polled_stop_runs_to_boundary() {
        // Poll every 4 ms of consumed CPU: a stop at consumed = 10 ms bites
        // at 12 ms.
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(200), ms(29))
            .deadline(ms(70))
            .build()]);
        let cfg = SimConfig::until(t(400)).with_stop_model(StopModel::polled(ms(4)));
        let mut sim = Simulator::new(set, cfg);
        let mut sup = StopAt {
            rank: 0,
            at: t(10),
            armed: false,
            mode: StopMode::Permanent,
        };
        sim.run(&mut sup);
        let log = sim.trace();
        assert_eq!(log.stops(), vec![(TaskId(1), 0, t(12))]);
    }

    #[test]
    fn stop_idle_task_with_no_job_is_noop_then_dead() {
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(200), ms(20))
            .deadline(ms(70))
            .build()]);
        let mut sim = Simulator::new(set, SimConfig::until(t(400)));
        // Stop after the job completed (t = 30 > end at 20).
        let mut sup = StopAt {
            rank: 0,
            at: t(30),
            armed: false,
            mode: StopMode::Permanent,
        };
        sim.run(&mut sup);
        let log = sim.trace();
        assert!(log.stops().is_empty(), "no job to abandon");
        assert!(
            log.job_release(TaskId(1), 1).is_none(),
            "but the thread is dead"
        );
        assert!(log.misses(TaskId(1)).is_empty());
    }

    #[test]
    fn idle_event_emitted_once_per_gap() {
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(100), ms(10)).build()]);
        let log = run_plain(set, t(250));
        let idles: Vec<Instant> = log
            .events()
            .iter()
            .filter(|e| matches!(e.kind, EventKind::CpuIdle))
            .map(|e| e.at)
            .collect();
        assert_eq!(idles, vec![t(10), t(110), t(210)]);
    }

    #[test]
    fn sim_end_at_horizon() {
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(100), ms(10)).build()]);
        let log = run_plain(set, t(123));
        assert_eq!(log.end(), Some(t(123)));
        assert!(matches!(
            log.events().last().unwrap().kind,
            EventKind::SimEnd
        ));
    }

    #[test]
    fn offsets_delay_first_release() {
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(100), ms(10))
            .offset(ms(42))
            .build()]);
        let log = run_plain(set, t(200));
        assert_eq!(log.job_release(TaskId(1), 0), Some(t(42)));
        assert_eq!(log.job_end(TaskId(1), 0), Some(t(52)));
        assert_eq!(log.job_release(TaskId(1), 1), Some(t(142)));
    }

    #[test]
    fn dispatch_overhead_charges_context_switches() {
        // τ2 preempted once by τ1: it pays the dispatch charge twice
        // (start + resume), τ1 once.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 9, ms(10), ms(2)).offset(ms(3)).build(),
            TaskBuilder::new(2, 3, ms(50), ms(10)).build(),
        ]);
        let cfg = SimConfig::until(t(50))
            .with_overheads(crate::overhead::Overheads::dispatch_cost(ms(1)));
        let mut sim = Simulator::new(set, cfg);
        let mut sup = NullSupervisor;
        sim.run(&mut sup);
        let log = sim.trace();
        // τ2 runs [0,3) (charged 1 at start); τ1's jobs at 3 and 13 each
        // cost 2+1 = 3; τ2 resumes at 6 and 16, charged 1 each time:
        // τ2's total demand = 10 + 3 charges = 13, plus 6 of interference
        // → ends at t = 19. τ1's first job ends at 3 + 3 = 6.
        assert_eq!(log.job_end(TaskId(1), 0), Some(t(6)));
        assert_eq!(log.job_end(TaskId(2), 0), Some(t(19)));
    }

    #[test]
    fn detector_fire_charges_running_job() {
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(200), ms(29))
            .deadline(ms(70))
            .build()]);
        let cfg = SimConfig::until(t(100))
            .with_overheads(crate::overhead::Overheads::NONE.with_detector_fire(ms(2)));
        let mut sim = Simulator::new(set, cfg);
        // A timer firing at t = 10 while τ1 runs: the job pays 2 ms.
        sim.add_one_shot_timer(ms(10), 7);
        let mut sup = NullSupervisor;
        sim.run(&mut sup);
        assert_eq!(sim.trace().job_end(TaskId(1), 0), Some(t(31)));
    }

    #[test]
    fn idle_timer_fire_is_free() {
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(200), ms(29))
            .deadline(ms(70))
            .build()]);
        let cfg = SimConfig::until(t(100))
            .with_overheads(crate::overhead::Overheads::NONE.with_detector_fire(ms(2)));
        let mut sim = Simulator::new(set, cfg);
        sim.add_one_shot_timer(ms(50), 7); // fires while idle
        let mut sup = NullSupervisor;
        sim.run(&mut sup);
        assert_eq!(sim.trace().job_end(TaskId(1), 0), Some(t(29)));
    }

    #[test]
    fn polled_stop_on_preempted_task_bites_on_resume() {
        // τ2 is preempted by τ1 when the stop request arrives; with a
        // 4 ms poll the doomed job still runs to its next poll boundary
        // after resuming.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 9, ms(50), ms(10)).offset(ms(5)).build(),
            TaskBuilder::new(2, 3, ms(100), ms(30)).build(),
        ]);
        let cfg = SimConfig::until(t(200)).with_stop_model(StopModel::polled(ms(4)));
        // Stop τ2 at t = 8, while τ1 runs [5, 15): τ2 consumed 5 ms →
        // boundary at 8 ms consumed → 3 ms extra after resuming at 15.
        let mut sup = StopAt {
            rank: 1,
            at: t(8),
            armed: false,
            mode: StopMode::Permanent,
        };
        let mut sim = Simulator::new(set, cfg);
        sim.run(&mut sup);
        let log = sim.trace();
        assert_eq!(log.stops(), vec![(TaskId(2), 0, t(18))]);
        // τ1 is untouched.
        assert_eq!(log.job_end(TaskId(1), 0), Some(t(15)));
    }

    #[test]
    fn stop_with_extra_beyond_remaining_lets_job_finish() {
        // Poll-boundary extra ≥ remaining work: the job completes normally
        // (JobOnly mode) — the stop flag is never observed.
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(200), ms(10)).build()]);
        let cfg = SimConfig::until(t(100)).with_stop_model(StopModel::polled(ms(50)));
        // Stop at t = 2 (consumed 2): boundary at 50 > 10 total demand.
        let mut sup = StopAt {
            rank: 0,
            at: t(2),
            armed: false,
            mode: StopMode::JobOnly,
        };
        let mut sim = Simulator::new(set, cfg);
        sim.run(&mut sup);
        let log = sim.trace();
        assert!(log.stops().is_empty());
        assert_eq!(log.job_end(TaskId(1), 0), Some(t(10)));
    }

    #[test]
    fn arrival_jitter_delays_activations_but_not_nominal_grid() {
        use crate::arrival::ArrivalModel;
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(100), ms(5)).build()]);
        let arrivals = ArrivalModel::uniform(&set, ms(9), 3);
        let mut sim =
            Simulator::new(set.clone(), SimConfig::until(t(1000))).with_arrivals(arrivals.clone());
        let mut sup = NullSupervisor;
        sim.run(&mut sup);
        let log = sim.trace();
        for job in 0..9u64 {
            let nominal = t(100 * job as i64);
            let actual = log.job_release(TaskId(1), job).unwrap();
            let lag = actual - nominal;
            assert!(!lag.is_negative() && lag <= ms(9), "job {job} lag {lag}");
            assert_eq!(lag, arrivals.jitter(0, job), "deterministic jitter");
        }
    }

    #[test]
    fn deep_queue_fifo_under_stress() {
        // D > T with a task that can never keep up for a while: jobs queue
        // and retire strictly in order.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 9, ms(7), ms(2)).build(),
            TaskBuilder::new(2, 3, ms(10), ms(7))
                .deadline(ms(30))
                .build(),
        ]);
        let log = run_plain(set.clone(), t(300));
        let mut last_end: Option<(u64, Instant)> = None;
        for e in log.events() {
            if let EventKind::JobEnd {
                task: TaskId(2),
                job,
            } = e.kind
            {
                if let Some((prev_job, prev_at)) = last_end {
                    assert!(job == prev_job + 1, "FIFO order violated");
                    assert!(e.at >= prev_at);
                }
                last_end = Some((job, e.at));
            }
        }
        assert!(last_end.is_some());
    }

    #[test]
    #[should_panic(expected = "jitter bound must stay below the period")]
    fn oversized_jitter_rejected() {
        use crate::arrival::ArrivalModel;
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(10), ms(1)).build()]);
        let _ = Simulator::new(set.clone(), SimConfig::until(t(100)))
            .with_arrivals(ArrivalModel::uniform(&set, ms(10), 0));
    }

    #[test]
    fn edf_runs_the_earliest_deadline_not_the_highest_priority() {
        // τ1 holds the stronger priority but the later deadline: FP runs
        // τ1 first, EDF runs τ2 first.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(100), ms(10))
                .deadline(ms(80))
                .build(),
            TaskBuilder::new(2, 10, ms(100), ms(10))
                .deadline(ms(40))
                .build(),
        ]);
        let fp = run_plain(set.clone(), t(100));
        assert_eq!(fp.job_end(TaskId(1), 0), Some(t(10)));
        assert_eq!(fp.job_end(TaskId(2), 0), Some(t(20)));

        let mut sim = Simulator::new(set, SimConfig::until(t(100)).with_policy(PolicyKind::Edf));
        sim.run(&mut NullSupervisor);
        let edf = sim.into_trace();
        assert_eq!(edf.job_end(TaskId(2), 0), Some(t(10)));
        assert_eq!(edf.job_end(TaskId(1), 0), Some(t(20)));
    }

    #[test]
    fn edf_preempts_only_on_strictly_earlier_deadlines() {
        // τ2 runs from 0 with deadline 100; τ1 releases at 10 with
        // deadline 10 + 30 = 40 < 100: preempts. A second τ1 job at 110
        // against τ2's job released 100 (deadline 200 vs 140): preempts
        // again. Equal-deadline case: τ3 released with τ2's deadline
        // never preempts (covered by equal_priority_no_preemption for
        // FP; here via the tie in fig-less form below).
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 5, ms(100), ms(5))
                .deadline(ms(30))
                .offset(ms(10))
                .build(),
            TaskBuilder::new(2, 9, ms(100), ms(20)).build(),
        ]);
        let mut sim = Simulator::new(set, SimConfig::until(t(100)).with_policy(PolicyKind::Edf));
        sim.run(&mut NullSupervisor);
        let log = sim.into_trace();
        // Despite τ2's higher priority value, EDF preempts it at t = 10.
        let pre = log
            .find(|e| {
                matches!(
                    e.kind,
                    EventKind::Preempted {
                        task: TaskId(2),
                        ..
                    }
                )
            })
            .expect("EDF preemption");
        assert_eq!(pre.at, t(10));
        assert_eq!(log.job_end(TaskId(1), 0), Some(t(15)));
        assert_eq!(log.job_end(TaskId(2), 0), Some(t(25)));
    }

    #[test]
    fn non_preemptive_jobs_run_to_completion() {
        // The preemption_recorded scenario: under NPFP τ1 must wait for
        // τ2's whole job instead of preempting at t = 3.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 9, ms(10), ms(2)).offset(ms(3)).build(),
            TaskBuilder::new(2, 3, ms(50), ms(10)).build(),
        ]);
        let mut sim = Simulator::new(
            set,
            SimConfig::until(t(50)).with_policy(PolicyKind::NonPreemptiveFp),
        );
        sim.run(&mut NullSupervisor);
        let log = sim.into_trace();
        assert_eq!(
            log.count(|e| matches!(e.kind, EventKind::Preempted { .. })),
            0,
            "non-preemptive dispatch must never preempt"
        );
        assert_eq!(log.job_end(TaskId(2), 0), Some(t(10)));
        assert_eq!(log.job_end(TaskId(1), 0), Some(t(12)));
        // Once the CPU frees, priority still picks the winner.
        assert_eq!(log.job_end(TaskId(1), 1), Some(t(15)));
    }

    #[test]
    fn policy_stops_compose_with_edf() {
        // A stopped EDF task leaves the ready queue like an FP one.
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(200), ms(29))
            .deadline(ms(70))
            .build()]);
        let mut sim = Simulator::new(set, SimConfig::until(t(400)).with_policy(PolicyKind::Edf));
        let mut sup = StopAt {
            rank: 0,
            at: t(10),
            armed: false,
            mode: StopMode::Permanent,
        };
        sim.run(&mut sup);
        let log = sim.trace();
        assert_eq!(log.stops(), vec![(TaskId(1), 0, t(10))]);
        assert!(log.job_release(TaskId(1), 1).is_none());
    }

    #[test]
    #[should_panic(expected = "run() called twice")]
    fn double_run_panics() {
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(100), ms(10)).build()]);
        let mut sim = Simulator::new(set, SimConfig::until(t(10)));
        let mut sup = NullSupervisor;
        sim.run(&mut sup);
        sim.run(&mut sup);
    }

    #[test]
    fn buffered_runs_reuse_storage_and_match_fresh_runs() {
        let mut bufs = SimBuffers::new();
        let fresh = run_plain(table2(), t(3000)).content_hash();
        for _ in 0..3 {
            let mut sim = Simulator::new_in(table2(), 1, SimConfig::until(t(3000)), &mut bufs);
            sim.run(&mut NullSupervisor);
            let log = sim.finish(&mut bufs);
            assert_eq!(
                log.content_hash(),
                fresh,
                "buffer reuse must not leak state"
            );
            bufs.recycle_log(log);
        }
    }

    #[test]
    fn on_time_jobs_never_wake_at_their_deadline() {
        // One task, one on-time job per period: the engine should see
        // release + completion per job (plus the final horizon-break
        // pop), never a deadline wake.
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(100), ms(10))
            .deadline(ms(50))
            .build()]);
        let mut sim = Simulator::new(set, SimConfig::until(t(1000)));
        sim.run(&mut NullSupervisor);
        // 11 releases (t=0..1000 inclusive) + 10 completions within the
        // horizon; the 11th job (released at t=1000) completes at 1010,
        // past the horizon.
        assert_eq!(sim.events_processed(), 21);
    }

    #[test]
    fn equal_time_timer_wakes_fire_in_registration_order() {
        // Two timers armed for the same instant coalesce at one pop time;
        // registration order (sequence numbers) breaks the tie.
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(200), ms(5)).build()]);
        let mut sim = Simulator::new(set, SimConfig::until(t(100)));
        sim.add_one_shot_timer(ms(40), 7);
        sim.add_one_shot_timer(ms(40), 8);
        sim.add_periodic_timer(ms(40), ms(30), 9);
        struct Record(Vec<(Instant, u64)>);
        impl Supervisor for Record {
            fn on_occurrence(&mut self, state: &SimState, occ: Occurrence, _: &mut Vec<Command>) {
                if let Occurrence::TimerFired { tag, .. } = occ {
                    self.0.push((state.now(), tag));
                }
            }
        }
        let mut sup = Record(Vec::new());
        sim.run(&mut sup);
        assert_eq!(
            sup.0,
            vec![(t(40), 7), (t(40), 8), (t(40), 9), (t(70), 9), (t(100), 9)]
        );
    }

    #[test]
    fn fault_on_idle_task_applies_at_its_release() {
        // The faulty job belongs to a task that is *asleep* when the
        // fault plan is consulted — the overrun must surface when the
        // component wakes for that release, not before.
        let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 20, ms(100), ms(10))
            .deadline(ms(50))
            .build()]);
        let plan = FaultPlan::none().overrun(TaskId(1), 3, ms(25));
        let mut sim = Simulator::new(set, SimConfig::until(t(600))).with_faults(plan);
        sim.run(&mut NullSupervisor);
        let log = sim.into_trace();
        assert_eq!(log.job_end(TaskId(1), 2), Some(t(210)));
        assert_eq!(log.job_end(TaskId(1), 3), Some(t(335)), "10+25 ms job");
        assert_eq!(log.job_end(TaskId(1), 4), Some(t(410)));
        assert!(log.misses(TaskId(1)).is_empty());
    }
}
