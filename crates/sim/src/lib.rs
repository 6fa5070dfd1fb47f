//! # rtft-sim — deterministic real-time scheduling simulator
//!
//! The execution substrate substituting for the paper's platform (the jRate
//! RTSJ virtual machine on a TimeSys RT-Linux kernel, 2 GHz Pentium 4).
//! The paper's claims are about scheduling-level behaviour — who runs when,
//! which jobs miss deadlines, where the detectors fire — and this crate
//! reproduces exactly those orderings with a discrete-event simulation of
//! scheduling over an exact nanosecond virtual clock. One engine
//! ([`engine::Simulator`]) runs on `m ≥ 1` cores: the paper's uniprocessor
//! is its one-core case, global placement its `m`-core case, and a
//! partitioned platform one one-core run per core. The dispatch rule is
//! pluggable ([`policy::SchedPolicy`]): fixed-priority
//! preemptive (the paper's platform, and the default), EDF, or
//! non-preemptive fixed priority — selected per run via
//! [`engine::SimConfig::with_policy`].
//!
//! Platform quirks the paper measures are modelled explicitly:
//!
//! * [`timer::TimerModel`] — jRate's 10 ms first-release quantization of
//!   `PeriodicTimer` (the 1/2/3 ms detector delays of Figure 4);
//! * [`stop::StopModel`] — Java's polled stop flag and its unbounded
//!   `currentRealtimeThread()` overhead (§4.1);
//! * [`fault::FaultPlan`] — per-job cost overruns/under-runs (the paper's
//!   voluntary fault injection).
//!
//! Fault-tolerance logic attaches through [`supervisor::Supervisor`] — the
//! `rtft-ft` crate implements the paper's detectors and treatments on top
//! of it.
//!
//! ```
//! use rtft_core::prelude::*;
//! use rtft_sim::prelude::*;
//!
//! let set = TaskSet::from_specs(vec![
//!     TaskBuilder::new(1, 20, Duration::millis(200), Duration::millis(29))
//!         .deadline(Duration::millis(70)).build(),
//! ]);
//! let log = run_plain(set, Instant::from_millis(1000));
//! assert!(!log.any_miss());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod aperiodic;
pub mod arrival;
pub mod component;
pub mod engine;
pub mod event;
pub mod fault;
pub mod overhead;
pub mod policy;
pub mod process;
pub mod sink;
pub mod stop;
pub mod supervisor;
pub mod timer;

/// Tests of the engine's global dispatch on `m > 1` cores.
#[cfg(test)]
#[path = "global_tests.rs"]
mod global;

/// One-stop imports.
pub mod prelude {
    pub use crate::aperiodic::{attach as attach_aperiodics, AperiodicJob};
    pub use crate::arrival::ArrivalModel;
    pub use crate::component::Component;
    pub use crate::engine::{run_plain, SimBuffers, SimConfig, SimState, Simulator, System};
    pub use crate::event::{Wake, WakeClass, WakeQueue};
    pub use crate::fault::{FaultPlan, RandomFaults};
    pub use crate::overhead::Overheads;
    pub use crate::policy::{PolicyKind, SchedPolicy};
    pub use crate::process::JobOutcome;
    pub use crate::sink::{CoreTag, TraceSink};
    pub use crate::stop::{StopMode, StopModel};
    pub use crate::supervisor::{Command, NullSupervisor, Occurrence, Supervisor};
    pub use crate::timer::TimerModel;
}
