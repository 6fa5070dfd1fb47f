//! # rtft-rtsj — an RTSJ-shaped API over the simulator
//!
//! The paper is written against the Real-Time Specification for Java: its
//! mechanism lives in a `javax.realtime.extended` package whose
//! `RealtimeThreadExtended` overloads `start()`, `waitForNextPeriod()` and
//! the feasibility methods. This crate reproduces that API surface in
//! Rust, layered on the deterministic simulator:
//!
//! * [`params`] — `PriorityParameters` / `PeriodicParameters`;
//! * [`scheduler`] — the `PriorityScheduler` with a **working**
//!   `isFeasible` (the thing the RI got wrong and jRate never
//!   implemented);
//! * [`thread`] — `RealtimeThread` and the paper's
//!   `RealtimeThreadExtended` with the job counter / finished flag /
//!   stop boolean of §3.1 and §4.1;
//! * [`runtime`] — the executable glue: admission on `start()`, detector
//!   installation, simulated execution, results folded back into the
//!   thread objects;
//! * [`timer`] — `AsyncEvent` / `PeriodicTimer` / `OneShotTimer`,
//!   including jRate's quantization.
//!
//! The RTSJ memory-area classes and `NoHeapRealtimeThread` are not
//! modelled: they exist to keep handlers clear of the garbage
//! collector, and this port has no collector.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod params;
pub mod runtime;
pub mod scheduler;
pub mod thread;
pub mod timer;

/// One-stop imports.
pub mod prelude {
    pub use crate::params::{ImportanceParameters, PeriodicParameters, PriorityParameters};
    pub use crate::runtime::{RtsjRuntime, RunReport, ThreadHandle};
    pub use crate::scheduler::{PriorityScheduler, SchedulerError};
    pub use crate::thread::{RealtimeThread, RealtimeThreadExtended};
    pub use crate::timer::{AsyncEvent, OneShotTimer, PeriodicTimer};
}
