//! The supervisor interface — how fault-tolerance logic plugs into the
//! simulator.
//!
//! The engine pushes [`Occurrence`]s (job lifecycle, timer fires) to a
//! [`Supervisor`]; the supervisor answers with [`Command`]s (emit a trace
//! marker, stop a task, arm a one-shot). This is the simulator-side image
//! of the paper's architecture, where detectors are `PeriodicTimer`
//! handlers that inspect a job-finished boolean and trigger treatments.

use crate::engine::SimState;
use crate::stop::StopMode;
use rtft_core::time::Instant;
use rtft_trace::EventKind;

/// Something the engine wants the supervisor to know about.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Occurrence {
    /// A job was released.
    JobReleased {
        /// Task rank.
        rank: usize,
        /// Job index.
        job: u64,
    },
    /// A job was dispatched for the first time.
    JobStarted {
        /// Task rank.
        rank: usize,
        /// Job index.
        job: u64,
    },
    /// A job ran to completion.
    JobFinished {
        /// Task rank.
        rank: usize,
        /// Job index.
        job: u64,
    },
    /// A job was abandoned by a stop.
    JobAbandoned {
        /// Task rank.
        rank: usize,
        /// Job index.
        job: u64,
    },
    /// A job blew its absolute deadline.
    DeadlineMissed {
        /// Task rank.
        rank: usize,
        /// Job index.
        job: u64,
    },
    /// A registered periodic timer fired.
    TimerFired {
        /// Timer id returned by `add_periodic_timer`.
        id: usize,
        /// Caller tag.
        tag: u64,
        /// 0-based fire count.
        count: u64,
    },
    /// A supervisor-armed one-shot fired.
    OneShotFired {
        /// The tag passed to [`Command::ScheduleOneShot`].
        tag: u64,
    },
}

/// Something the supervisor wants done.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Command {
    /// Record a trace marker at the current instant (detector releases,
    /// fault detections, allowance grants).
    Trace(EventKind),
    /// Stop a task (the treatments of the paper's §4).
    Stop {
        /// Task rank to stop.
        rank: usize,
        /// Kill the job only, or the whole thread.
        mode: StopMode,
    },
    /// Arm a one-shot timer (allowance stop points).
    ScheduleOneShot {
        /// Absolute fire time (clamped to "now" if in the past).
        at: Instant,
        /// Tag returned in [`Occurrence::OneShotFired`].
        tag: u64,
    },
}

/// Fault-tolerance logic driven by the engine.
pub trait Supervisor {
    /// React to an occurrence. `state` is read-only introspection (job
    /// outcomes, queue heads, the task set); commands appended to `out`
    /// are applied immediately, in order. `out` arrives empty and is the
    /// engine's one reused buffer, so a reaction allocates nothing.
    fn on_occurrence(&mut self, state: &SimState, occ: Occurrence, out: &mut Vec<Command>);

    /// `false` lets the engine skip occurrence delivery entirely — the
    /// components then never construct or queue [`Occurrence`]s, which
    /// matters on plain-throughput runs. Defaults to `true`; only a
    /// supervisor whose `on_occurrence` is a no-op should override it.
    fn observes(&self) -> bool {
        true
    }
}

/// A supervisor that does nothing — the paper's "execution without
/// detection" baseline (Figure 3).
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSupervisor;

impl Supervisor for NullSupervisor {
    fn on_occurrence(&mut self, _state: &SimState, _occ: Occurrence, _out: &mut Vec<Command>) {}

    fn observes(&self) -> bool {
        false
    }
}
