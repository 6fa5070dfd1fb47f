//! # rtft-campaign — the parallel scenario-campaign engine
//!
//! The paper validates its claims one scenario at a time; the ROADMAP
//! wants millions. This crate turns the scenario harness into a batch
//! instrument: a declarative [`CampaignSpec`] names task-set sources,
//! scheduling policies (fp / edf / npfp), core counts and partition
//! allocators (ffd / bfd / wfd, via `rtft-part`), fault-plan sources,
//! treatments and platform models, the engine
//! expands their cross product into jobs, fans the jobs out over a
//! `std::thread` chunked worker pool, and reduces every job to a compact
//! digest aggregated into a [`CampaignReport`] — miss rates, verdict
//! tallies per treatment, detector-latency histograms, throughput.
//!
//! Two properties make the engine usable as a test harness for the rest
//! of the stack:
//!
//! * **Determinism** — the report digest is bit-identical for a given
//!   spec regardless of worker count (jobs are merged in grid order;
//!   wall-clock figures are excluded from the digest).
//! * **The differential oracle** — every job can be cross-checked
//!   against the PR-1 [`Analyzer`](rtft_core::analyzer::Analyzer): when
//!   the fault plan stays within the admitted equitable allowance, no
//!   observed response may exceed the WCRT bound of the correspondingly
//!   inflated system (see [`oracle`] for the argument). A violation
//!   means the simulator and the analysis disagree about the same
//!   mathematics, and is minimized to a **repro artifact**: a standalone
//!   one-job campaign spec (seed + spec) that `rtft campaign` replays.
//!
//! ```
//! use rtft_campaign::prelude::*;
//!
//! let spec = parse_spec(
//!     "campaign demo\n\
//!      horizon 1300ms\n\
//!      taskgen paper\n\
//!      faults paper\n\
//!      treatment all\n\
//!      platform jrate\n",
//! ).unwrap();
//! let report = run_campaign(&spec, &RunConfig::sequential()).unwrap();
//! assert_eq!(report.ran, 5);
//! assert!(report.oracle_clean());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod engine;
pub mod lint;
pub mod oracle;
pub mod report;
pub mod spec;

pub use engine::{
    available_workers, capture_job, capture_job_streamed, capture_violation, digest_job,
    run_campaign, run_single, RunConfig, SingleRun,
};
pub use report::{CampaignReport, JobDigest, JobStatus};
pub use rtft_part::workbench::{PlacedRun, RunError, Workbench};
pub use spec::{
    parse_spec, treatment_keyword, CampaignSpec, FaultSource, JobSpec, PlatformSpec, SetSource,
    SpecError,
};

/// One-stop imports.
pub mod prelude {
    pub use crate::engine::{digest_job, run_campaign, run_single, RunConfig, SingleRun};
    pub use crate::oracle::{OracleOutcome, OracleViolation};
    pub use crate::report::{CampaignReport, JobDigest, JobStatus};
    pub use crate::spec::{
        parse_spec, CampaignSpec, FaultSource, JobSpec, PlatformSpec, SetSource, SpecError,
    };
    pub use rtft_part::workbench::Workbench;
}
