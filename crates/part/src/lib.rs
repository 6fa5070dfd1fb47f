//! # rtft-part — partitioned multiprocessor scheduling
//!
//! Everything below this crate assumes one processor; everything above
//! it wants scale. Partitioned scheduling is the classical bridge (the
//! Joseph & Pandya response-time line and the Baruah–Rosier–Howell
//! demand-bound line both lift to per-core analysis under partitioning):
//! assign every task statically to one core, then analyse and execute
//! each core as an ordinary uniprocessor system. No migration means no
//! new theory — and no new simulator: the existing engine, detectors,
//! treatments and differential oracle all apply core by core, unchanged.
//!
//! Three layers:
//!
//! * [`alloc`] — first/best/worst-fit-decreasing bin packing over
//!   utilization, each placement validated by a per-core
//!   [`Analyzer`](rtft_core::analyzer::Analyzer) feasibility probe under
//!   the chosen [`PolicyKind`](rtft_core::policy::PolicyKind) (plus an
//!   exhaustive backtracking allocator for small sets, used as the test
//!   oracle), producing a [`Partition`] — or rejection diagnostics
//!   naming the first unplaceable task and the per-core loads;
//! * [`analyzer`] — [`PartitionedAnalyzer`], one memoized uniprocessor
//!   analysis session per occupied core, each asked exactly like a
//!   uniprocessor session — the [`Workbench`] answers the query plane,
//!   the runners and replay from these per-core parts;
//! * [`multicore`] — partitioned execution: one engine per core over a
//!   shared virtual clock, merged into a deterministic core-tagged
//!   trace ([`rtft_trace::merge`]). A 1-core partition reproduces the
//!   uniprocessor engine bit for bit;
//! * [`workbench`] — the [`Workbench`], which runs every placement
//!   (one core, partitioned or global) as one list of [`Part`]s.
//!
//! ```
//! use rtft_part::prelude::*;
//! use rtft_core::policy::PolicyKind;
//!
//! // Two heavy tasks (U = 0.6 each) cannot share a core…
//! let set = rtft_core::task::TaskSet::from_specs(vec![
//!     rtft_core::task::TaskBuilder::new(
//!         1, 9,
//!         rtft_core::time::Duration::millis(100),
//!         rtft_core::time::Duration::millis(60),
//!     ).build(),
//!     rtft_core::task::TaskBuilder::new(
//!         2, 8,
//!         rtft_core::time::Duration::millis(100),
//!         rtft_core::time::Duration::millis(60),
//!     ).build(),
//! ]);
//! assert!(allocate(&set, 1, PolicyKind::FixedPriority,
//!                  AllocPolicy::FirstFitDecreasing).is_err());
//!
//! // …but partition cleanly over two.
//! let partition = allocate(&set, 2, PolicyKind::FixedPriority,
//!                          AllocPolicy::FirstFitDecreasing).unwrap();
//! let mut sessions = PartitionedAnalyzer::new(partition, PolicyKind::FixedPriority);
//! assert!(sessions.sessions_mut().all(|(_, core)| core.is_feasible().unwrap()));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod alloc;
pub mod analyzer;
pub mod multicore;
pub mod partition;
pub mod workbench;

pub use alloc::{allocate, AllocError, AllocPolicy};
pub use analyzer::PartitionedAnalyzer;
pub use multicore::{run_partitioned_buffered, CoreOutcome, MulticoreOutcome};
pub use partition::Partition;
pub use workbench::{Part, PlacedRun, RunError, Workbench};

/// One-stop imports.
pub mod prelude {
    pub use crate::alloc::{allocate, AllocError, AllocPolicy};
    pub use crate::analyzer::PartitionedAnalyzer;
    pub use crate::multicore::{run_partitioned_buffered, MulticoreOutcome};
    pub use crate::partition::Partition;
    pub use crate::workbench::{Part, PlacedRun, RunError, Workbench};
}
