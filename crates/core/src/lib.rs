//! # rtft-core — feasibility analysis and allowance computation
//!
//! Analytical core of the `rtft` workspace, a Rust reproduction of
//! Masson & Midonnet, *"Fault Tolerance with Real-Time Java"* (WPDRTS 2006).
//!
//! The paper builds fault tolerance for fixed-priority preemptive periodic
//! systems out of the numbers that admission control already computes:
//!
//! 1. admission control ([`feasibility`]) runs the processor-load test
//!    ([`utilization`]) and the exact worst-case response-time analysis
//!    ([`response`], the paper's Figure 2 algorithm, valid for arbitrary
//!    deadlines);
//! 2. a job overrunning its task's WCRT has necessarily overrun its
//!    declared cost — a **temporal fault** — so the WCRTs double as fault
//!    detector thresholds (realized in `rtft-ft`);
//! 3. the slack the analysis proves unused is redistributed as an
//!    **allowance** ([`allowance`]): equitably, or wholly to the first
//!    faulty task.
//!
//! Extensions the paper lists as future work are implemented alongside:
//! blocking terms under priority-ceiling resource sharing ([`blocking`]),
//! parameter sensitivity ([`sensitivity`]), and aperiodic servers
//! ([`server`]).
//!
//! Everything here is pure, deterministic, exact integer-nanosecond
//! computation with no dependency on the simulator; the `rtft-sim` crate
//! provides the executable counterpart used to validate these numbers
//! experimentally.
//!
//! ## Quick example — the `Analyzer` session
//!
//! All of the above is served by **one incremental session**,
//! [`analyzer::Analyzer`]: WCRTs, busy periods and the load test are
//! computed once and memoized, single-task perturbations revalidate only
//! the affected tasks, and the allowance/sensitivity binary searches
//! warm-start the response-time fixed point instead of re-running it
//! from scratch per probe.
//!
//! ```
//! use rtft_core::prelude::*;
//!
//! // The paper's Table 2 system.
//! let set = TaskSet::from_specs(vec![
//!     TaskBuilder::new(1, 20, Duration::millis(200), Duration::millis(29))
//!         .deadline(Duration::millis(70)).build(),
//!     TaskBuilder::new(2, 18, Duration::millis(250), Duration::millis(29))
//!         .deadline(Duration::millis(120)).build(),
//!     TaskBuilder::new(3, 16, Duration::millis(1500), Duration::millis(29))
//!         .deadline(Duration::millis(120)).build(),
//! ]);
//!
//! let mut session = Analyzer::new(&set);
//!
//! // Admission control: the load test plus exact WCRTs (paper Table 2).
//! let report = session.report().unwrap();
//! assert!(report.is_feasible());
//! let wcrt: Vec<i64> = report.per_task.iter()
//!     .map(|t| t.wcrt.unwrap().as_millis()).collect();
//! assert_eq!(wcrt, vec![29, 58, 87]);
//!
//! // The allowance searches reuse the session's cached analysis.
//! let eq = session.equitable_allowance().unwrap().unwrap();
//! assert_eq!(eq.allowance, Duration::millis(11)); // paper Table 2, A_i
//! let sa = session.system_allowance().unwrap().unwrap();
//! assert_eq!(sa.max_overrun[0], Duration::millis(33)); // paper §6.5
//!
//! // Online perturbation: inflate τ1 and revalidate incrementally —
//! // only τ1's dependants are recomputed, warm-started.
//! session.set_cost(0, Duration::millis(29 + 33));
//! assert!(session.is_feasible().unwrap());
//! session.set_cost(0, Duration::millis(29 + 34));
//! assert!(!session.is_feasible().unwrap());
//! ```
//!
//! Composed options (release jitter, priority-ceiling blocking, polling
//! servers, slack policy) go through [`analyzer::AnalyzerBuilder`]. The
//! deprecated one-shot free functions of [`feasibility`], [`allowance`],
//! [`jitter`] and [`sensitivity`] have completed their deprecation cycle
//! and are gone; every caller holds a session.
//!
//! ## The query plane
//!
//! [`query`] serializes "which system, which question" once for every
//! layer: a [`query::SystemSpec`] (task set + policy + cores/alloc +
//! fault plan + platform) plus [`query::Query`] values answered by
//! typed [`query::Response`]s. `rtft-part`'s `Workbench` executes them,
//! dispatching to a uniprocessor or partitioned session automatically;
//! `rtft query` serves a batch from a file or stdin.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod allowance;
pub mod analyzer;
pub mod blocking;
pub mod diag;
pub mod edf;
pub mod error;
pub mod feasibility;
pub mod fnv;
pub mod jitter;
pub mod policy;
pub mod priority;
pub mod query;
pub mod response;
pub mod sensitivity;
pub mod server;
pub mod task;
pub mod time;
pub mod utilization;

/// One-stop imports for the common API surface.
pub mod prelude {
    pub use crate::allowance::{EquitableAllowance, SlackPolicy, SystemAllowance};
    pub use crate::analyzer::{Analyzer, AnalyzerBuilder};
    pub use crate::diag::{lint_batch, lint_system, Diagnostic, Severity};
    pub use crate::error::{AnalysisError, ModelError};
    pub use crate::feasibility::{Admission, AdmissionController, FeasibilityReport};
    pub use crate::policy::PolicyKind;
    pub use crate::query::{Query, Response, SystemSpec};
    pub use crate::response::{analyze, wcrt, wcrt_all, ResponseAnalysis, TaskResponse};
    pub use crate::task::{Priority, TaskBuilder, TaskId, TaskSet, TaskSpec};
    pub use crate::time::{Duration, Instant};
    pub use crate::utilization::{load_test, LoadVerdict};
}
