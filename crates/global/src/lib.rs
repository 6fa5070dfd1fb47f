//! Global multiprocessor scheduling for the fault-tolerance workbench:
//! sufficient schedulability tests (global fixed-priority via the
//! Bertogna–Cirinei interference bound, global EDF via the density
//! condition) behind a memoized [`GlobalAnalyzer`] session with the
//! same shape as the exact uniprocessor `Analyzer` and the partitioned
//! `PartitionedAnalyzer`.
//!
//! Under global placement, the `m` cores share one ready queue and jobs
//! migrate freely; no partitioning step exists, so the per-core exact
//! analysis of `rtft-part` does not apply. Exact global feasibility is
//! intractable in general — every answer this crate produces is
//! **sufficient-only**: "feasible" is a proof that no deadline can be
//! missed, "infeasible" only means "unproven" (except when the
//! necessary `U ≤ m` / density envelope fails, which is a sound
//! infeasibility proof and is reported separately as *overloaded*).
//! Downstream consumers — the differential oracle in `rtft-campaign`
//! above all — must hold the contract one-sided: an analysis-feasible
//! global system that misses a deadline in simulation is a hard
//! violation, but a simulation-clean run of an unproven system is
//! expected noise.

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod analyzer;
pub mod bounds;
pub mod runner;

pub use analyzer::{GlobalAnalyzer, GlobalVerdict};
pub use runner::{run_global_buffered, GlobalOutcome};

/// Convenience re-exports for downstream crates.
pub mod prelude {
    pub use crate::analyzer::{GlobalAnalyzer, GlobalVerdict};
    pub use crate::bounds::{
        envelope, gedf_schedulable, gfp_response_bound, gfp_schedulable, schedulable,
    };
    pub use crate::runner::{run_global_buffered, GlobalOutcome};
}
