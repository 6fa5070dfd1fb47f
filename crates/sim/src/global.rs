//! Global multiprocessor dispatch: one ready queue, `m` cores, free
//! migration.
//!
//! Where partitioned execution composes `m` independent [`Simulator`](crate::engine::Simulator)s
//! (see `rtft-part`), global scheduling genuinely shares state: the
//! policy's single ready structure feeds every core, and a job may
//! resume on a different core than it was preempted on (migration is
//! free, as the global analyses of `rtft-global` assume). This engine
//! reuses the uniprocessor component layer unchanged — tasks, timers
//! and the one-shot multiplexer sleep in the same [`WakeQueue`] — and
//! replaces the single CPU register with one completion register per
//! core.
//!
//! Dispatch rule: the policy's best `m` ready ranks run. Idle cores are
//! filled lowest-index-first (the deterministic core tie-break); when
//! no core is idle, a top-`m` challenger takes the core of the
//! dispatch-order-last incumbent that fell out of the top-`m`, but only
//! under the policy's *strict* preemption relation — equal priorities
//! and equal deadlines never migrate a running job, exactly as the
//! uniprocessor engine never swaps equals. At `m = 1` every decision
//! reduces to the uniprocessor `reschedule_cpu`, and the engine draws
//! its wake-sequence numbers at the same points in the same order, so a
//! one-core global run is **byte-identical** to [`Simulator`](crate::engine::Simulator) (a pinned
//! test in `rtft-global` holds this on the paper scenarios).
//!
//! Bookkeeping differs from the uniprocessor engine in one deliberate
//! way: consumed CPU is accounted *eagerly* — every busy core's head
//! job is advanced to the popped event time before the event is
//! handled. The uniprocessor engine can account lazily because
//! [`SimState::front_job`] adds the single live interval back; with `m`
//! live intervals that trick does not scale, so here
//! `SimState::running` stays `None` and `front_job`/`consumed` are
//! always current. Accounting is invisible to traces, so this does not
//! disturb the `m = 1` identity.
//!
//! Traces are **core-tagged**: the engine keeps one core tag per trace
//! event. Execution events (starts, resumes, preemptions, completions,
//! stops of a running job, per-core idle notes) carry the core they
//! happened on; platform-level events (releases, deadline checks,
//! detector/supervisor markers, the end-of-run marker) carry no core.
//! [`GlobalSimulator::core_logs`] splits the interleaved log into
//! per-core logs (platform events under the pseudo-core `m`) for
//! `rtft_trace::merge`, whose `merged_content_hash` digests them as it
//! digests the partitioned runner's per-core logs.

use crate::arrival::ArrivalModel;
use crate::component::{Component, OneShotComponent, TaskComponent, TimerComponent};
use crate::engine::{trace_estimate, SimBuffers, SimConfig, SimState, System};
use crate::event::{Wake, WakeClass, WakeQueue};
use crate::fault::FaultPlan;
use crate::policy::{PolicyImpl, SchedPolicy};
use crate::process::{JobOutcome, TaskProcess};
use crate::sink::TraceSink;
use crate::stop::StopMode;
use crate::supervisor::{Command, Supervisor};
use rtft_core::task::TaskSet;
use rtft_core::time::{Duration, Instant};
use rtft_trace::{EventKind, TraceLog};

/// Core tag of platform-level events (no specific core).
const PLATFORM: u16 = u16::MAX;

/// One processor of the global platform: its running assignment and
/// its completion register (the analogue of the uniprocessor
/// `CpuComponent`, kept outside the wake heap for the same reason —
/// completions are the most frequently re-armed wakes).
#[derive(Clone, Copy, Debug, Default)]
struct CoreSlot {
    /// Rank currently dispatched here.
    running: Option<usize>,
    /// When the current dispatch interval started (advanced to "now"
    /// by the eager accounting pass).
    dispatched_at: Instant,
    /// The running job's completion wake.
    completion: Option<Wake>,
    /// `true` once this core has ever run a job (gates idle notes).
    ever_busy: bool,
    /// `true` while an idle note for the current gap has been emitted.
    idle_noted: bool,
}

/// The global `m`-core simulator. Mirrors [`Simulator`]'s construction
/// and run API; see the module docs for the dispatch rule.
///
/// [`Simulator`]: crate::engine::Simulator
pub struct GlobalSimulator {
    sys: System,
    wakes: WakeQueue,
    tasks: Vec<TaskComponent>,
    timer_components: Vec<TimerComponent>,
    oneshots: OneShotComponent,
    cores: Vec<CoreSlot>,
    timers: Vec<crate::timer::TimerSpec>,
    config: SimConfig,
    /// Per-trace-event core tag (`PLATFORM` for core-less events).
    core_tags: Vec<u16>,
    /// Scratch: the policy's current top-`m` ready ranks.
    desired: Vec<usize>,
    /// Scratch: desired ranks not yet on a core.
    unplaced: Vec<usize>,
    events_processed: u64,
    finished: bool,
}

impl GlobalSimulator {
    /// Build a global simulator for `set` on `cores` processors.
    ///
    /// # Panics
    /// Panics when `cores` is zero.
    pub fn new(set: TaskSet, cores: usize, config: SimConfig) -> Self {
        let mut bufs = SimBuffers::default();
        GlobalSimulator::new_in(set, cores, config, &mut bufs)
    }

    /// Build a global simulator reusing `bufs`' storage (see
    /// [`SimBuffers`]).
    ///
    /// # Panics
    /// Panics when `cores` is zero.
    pub fn new_in(set: TaskSet, cores: usize, config: SimConfig, bufs: &mut SimBuffers) -> Self {
        assert!(cores >= 1, "a platform needs at least one core");
        let n = set.len();
        let policy = PolicyImpl::build(config.policy, &set);
        let mut trace = std::mem::take(&mut bufs.trace);
        trace.clear();
        let mut occurrences = std::mem::take(&mut bufs.occurrences);
        occurrences.clear();
        GlobalSimulator {
            sys: System {
                state: SimState {
                    set,
                    now: Instant::EPOCH,
                    procs: (0..n).map(|_| TaskProcess::new()).collect(),
                    // Global mode never uses the single-CPU slot: per-core
                    // assignments live in `cores`, and eager accounting
                    // keeps `front_job` exact without a live interval.
                    running: None,
                    dispatched_at: Instant::EPOCH,
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
            desired: Vec::with_capacity(cores),
            unplaced: Vec::with_capacity(cores),
            events_processed: 0,
            finished: false,
        }
    }

    /// Install a fault plan.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.sys.fault_plan = plan;
        self
    }

    /// Install a release-jitter arrival model (same bound rule as the
    /// uniprocessor engine).
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

    /// Register a periodic timer (quantized first release, exact
    /// period). Returns the timer id.
    pub fn add_periodic_timer(&mut self, first: Duration, period: Duration, tag: u64) -> usize {
        assert!(period.is_positive(), "timer period must be positive");
        let first = Instant::EPOCH + self.config.timer_model.first_release(first);
        let id = self.timers.len();
        self.timers.push(crate::timer::TimerSpec {
            first,
            period: Some(period),
            tag,
        });
        id
    }

    /// Register a one-shot timer (same quantization rule).
    pub fn add_one_shot_timer(&mut self, at: Duration, tag: u64) -> usize {
        let first = Instant::EPOCH + self.config.timer_model.first_release(at);
        let id = self.timers.len();
        self.timers.push(crate::timer::TimerSpec {
            first,
            period: None,
            tag,
        });
        id
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores.len()
    }

    /// Read-only state. `running()` is always `None` here — per-core
    /// assignments are internal; supervisors introspect jobs, not cores.
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

    /// Consume the simulator, returning the trace and handing reusable
    /// storage back to `bufs`.
    pub fn finish(mut self, bufs: &mut SimBuffers) -> TraceLog {
        self.sys.occurrences.clear();
        bufs.wakes = self.wakes;
        bufs.occurrences = self.sys.occurrences;
        self.sys.trace
    }

    /// Wakes processed by the engine loop.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Core of trace event `idx`, or `None` for platform-level events
    /// (releases, deadline checks, supervisor markers, `SimEnd`).
    pub fn core_of(&self, idx: usize) -> Option<usize> {
        match self.core_tags.get(idx) {
            Some(&PLATFORM) | None => None,
            Some(&c) => Some(c as usize),
        }
    }

    /// Split the interleaved log into per-core logs for
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

    /// Component id of the one-shot multiplexer.
    fn oneshot_cid(&self) -> usize {
        self.tasks.len() + self.timer_components.len()
    }

    /// Tag every still-untagged trace event with `core`. Each push site
    /// tags immediately, so at most the events just pushed are pending.
    fn tag(&mut self, core: u16) {
        let len = self.sys.trace.events().len();
        while self.core_tags.len() < len {
            self.core_tags.push(core);
        }
    }

    /// The eager accounting pass: advance every busy core's head job to
    /// `now`. Sound because the popped wake is never later than any
    /// armed completion, so `elapsed ≤ remaining` on every core.
    fn advance_cores(&mut self, now: Instant) {
        for k in 0..self.cores.len() {
            if let Some(rank) = self.cores[k].running {
                let elapsed = now - self.cores[k].dispatched_at;
                if elapsed.is_positive() {
                    self.sys.state.procs[rank].account(elapsed);
                }
                self.cores[k].dispatched_at = now;
            }
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
    /// as soon as the wake that produced it is processed. `core` is the
    /// executing core for execution events and `None` for
    /// platform-level ones — the same attribution [`Self::core_of`]
    /// reports. The recorded trace (and its tags) are byte-identical
    /// with and without a sink.
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
        // Sink cursor: events below `fed` have been streamed already.
        let mut fed = 0usize;
        self.sys.observe = supervisor.observes();
        let n = self.sys.state.set.len();
        let n_timers = self.timers.len();
        self.wakes.reset(n + n_timers + 1);
        self.sys
            .trace
            .reserve(trace_estimate(&self.sys.state.set, self.config.horizon));
        self.core_tags.clear();

        // Component setup replicates the uniprocessor engine exactly —
        // tasks in rank order, then timers — so the initial sequence
        // numbers (the simultaneous-release tie-break) are identical.
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
        loop {
            // The due wake is the minimum over the heap root and the m
            // completion registers (`Ok` = heap component, `Err` = core
            // completion). Keys are unique, so `<` is an exact tie-break.
            let mut core_due: Option<(Wake, usize)> = None;
            for (k, core) in self.cores.iter().enumerate() {
                if let Some(w) = core.completion {
                    if core_due.is_none_or(|(bw, _)| w < bw) {
                        core_due = Some((w, k));
                    }
                }
            }
            let (wake, target): (Wake, Result<usize, usize>) = match (self.wakes.peek(), core_due) {
                (Some((hw, hc)), Some((cw, ck))) => {
                    if cw < hw {
                        (cw, Err(ck))
                    } else {
                        (hw, Ok(hc))
                    }
                }
                (Some((hw, hc)), None) => (hw, Ok(hc)),
                (None, Some((cw, ck))) => (cw, Err(ck)),
                (None, None) => break,
            };
            let now = wake.at();
            if now > self.config.horizon {
                break;
            }
            self.advance_cores(now);
            self.sys.state.now = now;
            self.events_processed += 1;
            match target {
                Ok(cid) if cid < n => {
                    self.tasks[cid].tick(now, &mut self.sys);
                    self.tag(PLATFORM);
                    let next = self.tasks[cid].next_tick();
                    self.wakes.rekey_min(cid, next);
                }
                Ok(cid) if cid < oneshot_cid => {
                    // A detector firing charges a running job (paper
                    // §6.2); on a multiprocessor the handler runs on
                    // the lowest-indexed busy core — deterministic, and
                    // the uniprocessor rule at m = 1.
                    self.charge_detector_fire();
                    self.timer_components[cid - n].tick(now, &mut self.sys);
                    self.tag(PLATFORM);
                    let next = self.timer_components[cid - n].next_tick();
                    self.wakes.rekey_min(cid, next);
                }
                Ok(cid) => {
                    debug_assert_eq!(cid, oneshot_cid);
                    self.oneshots.tick(now, &mut self.sys);
                    self.tag(PLATFORM);
                    self.wakes.rekey_min(cid, self.oneshots.next_tick());
                }
                Err(k) => self.complete_on(k),
            }
            self.drain_occurrences(supervisor);
            self.reschedule();
            if let Some(s) = sink.as_mut() {
                while fed < self.sys.trace.len() {
                    let e = self.sys.trace.events()[fed];
                    let core = match self.core_tags.get(fed) {
                        Some(&PLATFORM) | None => None,
                        Some(&c) => Some(c as usize),
                    };
                    s.record(core, e.at, e.kind);
                    fed += 1;
                }
            }
        }
        self.sys.state.now = self.config.horizon;
        self.sys.trace.push(self.config.horizon, EventKind::SimEnd);
        self.tag(PLATFORM);
        if let Some(s) = sink.as_mut() {
            while fed < self.sys.trace.len() {
                let e = self.sys.trace.events()[fed];
                s.record(None, e.at, e.kind);
                fed += 1;
            }
        }
        self.finished = true;
        &self.sys.trace
    }

    /// Retire the job completing on core `k`. The eager accounting pass
    /// has already drained its remaining demand; this is the
    /// uniprocessor `CpuComponent::tick` minus the accounting.
    fn complete_on(&mut self, k: usize) {
        let now = self.sys.state.now;
        let rank = self.cores[k].running.expect("completion wake on idle core");
        self.cores[k].completion = None;
        self.cores[k].running = None;
        let task = self.sys.task_id(rank);
        debug_assert!(
            self.sys.state.procs[rank]
                .front()
                .is_some_and(|j| j.remaining.is_zero()),
            "eager accounting must drain the completing job"
        );
        let doomed = self.sys.state.procs[rank].front().is_some_and(|j| j.doomed);
        let outcome = if doomed {
            JobOutcome::Abandoned
        } else {
            JobOutcome::Finished
        };
        let job = self.sys.state.procs[rank].retire_front(outcome);
        self.sys.sync_policy(rank);
        if doomed {
            self.sys.trace.push(
                now,
                EventKind::TaskStopped {
                    task,
                    job: job.index,
                },
            );
            self.tag(k as u16);
            self.sys
                .notify(crate::supervisor::Occurrence::JobAbandoned {
                    rank,
                    job: job.index,
                });
        } else {
            self.sys.trace.push(
                now,
                EventKind::JobEnd {
                    task,
                    job: job.index,
                },
            );
            self.tag(k as u16);
            self.sys.notify(crate::supervisor::Occurrence::JobFinished {
                rank,
                job: job.index,
            });
            // On-time completions cancel their deadline check, exactly
            // as the uniprocessor engine does after a CPU tick.
            self.tasks[rank].cancel_deadline(job.index);
            self.wakes.arm(rank, self.tasks[rank].next_tick());
        }
    }

    fn drain_occurrences(&mut self, supervisor: &mut dyn Supervisor) {
        while let Some(occ) = self.sys.occurrences.pop_front() {
            let commands = supervisor.on_occurrence(&self.sys.state, occ);
            for cmd in commands {
                self.apply_command(cmd);
            }
        }
    }

    fn apply_command(&mut self, cmd: Command) {
        match cmd {
            Command::Trace(kind) => {
                self.sys.trace.push(self.sys.state.now, kind);
                self.tag(PLATFORM);
            }
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

    /// The uniprocessor `stop_task` generalized to `m` cores: the only
    /// difference is finding which core (if any) runs the rank. The
    /// eager accounting pass keeps `consumed` current, so the polled
    /// stop boundary needs no live-interval correction.
    fn stop_task(&mut self, rank: usize, mode: StopMode) {
        let now = self.sys.state.now;
        let task = self.sys.task_id(rank);
        let on_core = self.cores.iter().position(|c| c.running == Some(rank));
        if self.sys.state.procs[rank].front().is_some() {
            let job = *self.sys.state.procs[rank].front().expect("checked above");
            let extra = self.config.stop_model.extra_runtime(job.consumed);
            if extra >= job.remaining && mode == StopMode::JobOnly {
                // Finishes naturally before the next poll point.
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
                self.tag(on_core.map_or(PLATFORM, |k| k as u16));
                self.sys
                    .notify(crate::supervisor::Occurrence::JobAbandoned {
                        rank,
                        job: retired.index,
                    });
            } else {
                // Doom the job to its poll boundary.
                let front = self.sys.state.procs[rank]
                    .front_mut()
                    .expect("checked above");
                front.doomed = true;
                if extra < front.remaining {
                    front.remaining = extra;
                }
                let remaining = front.remaining;
                if let Some(k) = on_core {
                    let seq = self.sys.next_seq();
                    self.cores[k].completion =
                        Some(Wake::new(now + remaining, WakeClass::Completion, seq));
                }
            }
        }
        if mode == StopMode::Permanent {
            self.sys.state.procs[rank].kill();
        }
        self.sys.sync_policy(rank);
    }

    /// Charge the detector-fire overhead to the job on the
    /// lowest-indexed busy core and re-arm its completion. No-op when
    /// the charge is zero or every core is idle.
    fn charge_detector_fire(&mut self) {
        let amount = self.config.overheads.detector_fire;
        if amount.is_zero() {
            return;
        }
        let Some(k) = self.cores.iter().position(|c| c.running.is_some()) else {
            return;
        };
        let rank = self.cores[k].running.expect("position checked");
        let now = self.sys.state.now;
        let job = self.sys.state.procs[rank]
            .front_mut()
            .expect("running job present");
        job.remaining += amount;
        job.demand += amount;
        let remaining = job.remaining;
        let seq = self.sys.next_seq();
        self.cores[k].completion = Some(Wake::new(now + remaining, WakeClass::Completion, seq));
    }

    /// Re-evaluate the global dispatch after an event: the policy's top
    /// `m` ready ranks should hold the cores. See the module docs for
    /// the placement/preemption rule and the `m = 1` reduction.
    fn reschedule(&mut self) {
        let m = self.cores.len();
        let mut desired = std::mem::take(&mut self.desired);
        let mut unplaced = std::mem::take(&mut self.unplaced);
        self.sys.policy.top(m, &mut desired);
        unplaced.clear();
        for &r in &desired {
            if !self.cores.iter().any(|c| c.running == Some(r)) {
                unplaced.push(r);
            }
        }
        for &u in &unplaced {
            if let Some(k) = self.cores.iter().position(|c| c.running.is_none()) {
                self.dispatch(k, u);
                continue;
            }
            // No idle core: the challenger may take the core of the
            // dispatch-order-last incumbent that fell out of the
            // top-m. Challengers arrive best-first and victims are
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
            let Some((k, v)) = victim else { break };
            if self.sys.policy.preempts(v, u) {
                self.preempt(k, v, u);
                self.dispatch(k, u);
            } else {
                break;
            }
        }
        self.desired = desired;
        self.unplaced = unplaced;
        // A core still idle after placement has nothing it could run:
        // note the gap once, tagged with the core.
        for k in 0..m {
            let core = &self.cores[k];
            if core.running.is_none() && core.ever_busy && !core.idle_noted {
                self.cores[k].idle_noted = true;
                self.sys.trace.push(self.sys.state.now, EventKind::CpuIdle);
                self.tag(k as u16);
            }
        }
    }

    fn dispatch(&mut self, k: usize, rank: usize) {
        let now = self.sys.state.now;
        let task = self.sys.task_id(rank);
        self.cores[k].running = Some(rank);
        self.cores[k].dispatched_at = now;
        self.cores[k].ever_busy = true;
        self.cores[k].idle_noted = false;
        let ctx = self.config.overheads.dispatch;
        let job = self.sys.state.procs[rank]
            .front_mut()
            .expect("dispatch on empty queue");
        if ctx.is_positive() {
            job.remaining += ctx;
            job.demand += ctx;
        }
        let (index, remaining, started) = (job.index, job.remaining, job.started);
        job.started = true;
        if started {
            self.sys
                .trace
                .push(now, EventKind::Resumed { task, job: index });
        } else {
            self.sys
                .trace
                .push(now, EventKind::JobStart { task, job: index });
        }
        self.tag(k as u16);
        let seq = self.sys.next_seq();
        self.cores[k].completion = Some(Wake::new(now + remaining, WakeClass::Completion, seq));
    }

    fn preempt(&mut self, k: usize, rank: usize, by: usize) {
        let now = self.sys.state.now;
        let task = self.sys.task_id(rank);
        let by_id = self.sys.task_id(by);
        // Eager accounting already banked the elapsed interval.
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
        self.tag(k as u16);
        self.cores[k].running = None;
        self.cores[k].completion = None;
    }
}

/// Convenience: run `set` globally on `cores` processors, fault-free
/// with no supervision, until `horizon`.
pub fn run_plain_global(set: TaskSet, cores: usize, horizon: Instant) -> TraceLog {
    let mut sim = GlobalSimulator::new(set, cores, SimConfig::until(horizon));
    let mut sup = crate::supervisor::NullSupervisor;
    sim.run(&mut sup);
    sim.into_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::run_plain;
    use crate::policy::PolicyKind;
    use crate::supervisor::NullSupervisor;
    use rtft_core::task::{TaskBuilder, TaskId};

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
    fn one_core_global_run_matches_the_uniprocessor_engine() {
        let uni = run_plain(table2(), t(3000));
        let glob = run_plain_global(table2(), 1, t(3000));
        assert_eq!(uni, glob, "m = 1 must be byte-identical");
        assert_eq!(uni.content_hash(), glob.content_hash());
    }

    #[test]
    fn two_cores_run_the_synchronous_release_in_parallel() {
        // All three Table 2 tasks release at t = 0; on two cores τ1 and
        // τ2 start immediately and τ3 waits for the first completion.
        let log = run_plain_global(table2(), 2, t(300));
        assert_eq!(log.job_end(TaskId(1), 0), Some(t(29)));
        assert_eq!(log.job_end(TaskId(2), 0), Some(t(29)));
        // τ3 starts at 29 (first core free) and ends at 58.
        assert_eq!(log.job_end(TaskId(3), 0), Some(t(58)));
        assert!(!log.any_miss());
    }

    #[test]
    fn three_cores_make_the_whole_set_independent() {
        let log = run_plain_global(table2(), 3, t(300));
        for id in [1, 2, 3] {
            assert_eq!(log.job_end(TaskId(id), 0), Some(t(29)));
        }
        assert_eq!(
            log.count(|e| matches!(e.kind, EventKind::Preempted { .. })),
            0
        );
    }

    #[test]
    fn global_fp_preempts_only_the_policy_worst_incumbent() {
        // Two cores saturated by τ3 and τ4 (low priorities); τ1 arrives
        // and must evict τ4 (the dispatch-order-last incumbent), not τ3.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 30, ms(100), ms(10))
                .offset(ms(2))
                .build(),
            TaskBuilder::new(3, 10, ms(100), ms(50)).build(),
            TaskBuilder::new(4, 8, ms(100), ms(50)).build(),
        ]);
        let log = run_plain_global(set, 2, t(100));
        let pre = log
            .find(|e| matches!(e.kind, EventKind::Preempted { .. }))
            .expect("preemption");
        assert_eq!(pre.at, t(2));
        assert!(matches!(
            pre.kind,
            EventKind::Preempted {
                task: TaskId(4),
                by: TaskId(1),
                ..
            }
        ));
    }

    #[test]
    fn migration_resumes_on_a_different_core() {
        // τ2 is preempted on core 1 by τ1's arrival, then resumes on
        // core 0 when τ3 finishes there first.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 30, ms(200), ms(40))
                .offset(ms(5))
                .build(),
            TaskBuilder::new(2, 10, ms(200), ms(20)).build(),
            TaskBuilder::new(3, 20, ms(200), ms(10)).build(),
        ]);
        let mut sim = GlobalSimulator::new(set, 2, SimConfig::until(t(200)));
        sim.run(&mut NullSupervisor);
        // Dispatch at t = 0: τ3 (prio 20) on core 0, τ2 (prio 10) on
        // core 1. τ1 arrives at 5 and evicts τ2. τ3 ends at 10 on core
        // 0; τ2 resumes there.
        let resumed_idx = sim
            .trace()
            .events()
            .iter()
            .position(|e| {
                matches!(
                    e.kind,
                    EventKind::Resumed {
                        task: TaskId(2),
                        ..
                    }
                )
            })
            .expect("τ2 resumes");
        assert_eq!(sim.trace().events()[resumed_idx].at, t(10));
        assert_eq!(sim.core_of(resumed_idx), Some(0), "resumed on core 0");
        let start_idx = sim
            .trace()
            .events()
            .iter()
            .position(|e| {
                matches!(
                    e.kind,
                    EventKind::JobStart {
                        task: TaskId(2),
                        ..
                    }
                )
            })
            .expect("τ2 starts");
        assert_eq!(sim.core_of(start_idx), Some(1), "started on core 1");
    }

    #[test]
    fn gedf_on_two_cores_runs_the_two_earliest_deadlines() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(100), ms(10))
                .deadline(ms(90))
                .build(),
            TaskBuilder::new(2, 15, ms(100), ms(10))
                .deadline(ms(30))
                .build(),
            TaskBuilder::new(3, 10, ms(100), ms(10))
                .deadline(ms(50))
                .build(),
        ]);
        let log = {
            let mut sim = GlobalSimulator::new(
                set,
                2,
                SimConfig::until(t(100)).with_policy(PolicyKind::Edf),
            );
            sim.run(&mut NullSupervisor);
            sim.into_trace()
        };
        // τ2 (deadline 30) and τ3 (deadline 50) start at 0; τ1 waits.
        assert_eq!(log.job_end(TaskId(2), 0), Some(t(10)));
        assert_eq!(log.job_end(TaskId(3), 0), Some(t(10)));
        assert_eq!(log.job_end(TaskId(1), 0), Some(t(20)));
    }

    #[test]
    fn core_tags_split_into_mergeable_logs() {
        let mut sim = GlobalSimulator::new(table2(), 2, SimConfig::until(t(300)));
        sim.run(&mut NullSupervisor);
        let logs = sim.core_logs();
        assert_eq!(logs.len(), 3, "two cores + the platform bucket");
        let total: usize = logs.iter().map(|(_, l)| l.events().len()).sum();
        assert_eq!(total, sim.trace().events().len());
        // Execution events all landed on a real core.
        for (c, log) in &logs[..2] {
            assert!(*c < 2);
            for e in log.events() {
                assert!(matches!(
                    e.kind,
                    EventKind::JobStart { .. }
                        | EventKind::Resumed { .. }
                        | EventKind::Preempted { .. }
                        | EventKind::JobEnd { .. }
                        | EventKind::TaskStopped { .. }
                        | EventKind::CpuIdle
                ));
            }
        }
        // The split is deterministic.
        let mut again = GlobalSimulator::new(table2(), 2, SimConfig::until(t(300)));
        again.run(&mut NullSupervisor);
        assert_eq!(sim.core_logs(), again.core_logs());
    }

    #[test]
    fn per_core_idle_notes_carry_their_core() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(100), ms(10)).build(),
            TaskBuilder::new(2, 10, ms(100), ms(30)).build(),
        ]);
        let mut sim = GlobalSimulator::new(set, 2, SimConfig::until(t(100)));
        sim.run(&mut NullSupervisor);
        let idles: Vec<(Instant, Option<usize>)> = sim
            .trace()
            .events()
            .iter()
            .enumerate()
            .filter(|(_, e)| matches!(e.kind, EventKind::CpuIdle))
            .map(|(i, e)| (e.at, sim.core_of(i)))
            .collect();
        // τ1 ends at 10 (core 0 idles), τ2 at 30 (core 1 idles).
        assert_eq!(idles, vec![(t(10), Some(0)), (t(30), Some(1))]);
    }

    #[test]
    fn buffered_global_runs_reuse_storage_and_match_fresh_runs() {
        let mut bufs = SimBuffers::new();
        let fresh = run_plain_global(table2(), 2, t(3000)).content_hash();
        for _ in 0..3 {
            let mut sim =
                GlobalSimulator::new_in(table2(), 2, SimConfig::until(t(3000)), &mut bufs);
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
    #[should_panic(expected = "at least one core")]
    fn zero_cores_rejected() {
        let _ = GlobalSimulator::new(table2(), 0, SimConfig::until(t(10)));
    }
}
