//! # rtft-trace — measurement, log format, statistics and charts
//!
//! Rust counterpart of the measurement toolchain in the paper's Section 5:
//! the authors timestamp "the key dates in the system life" (job starts,
//! job ends, detector releases) via `RDTSC`, buffer them in memory to avoid
//! I/O jitter, flush to a log file at the end of the run, and feed that
//! file to a time-series chart tool that produces Figures 3–7.
//!
//! The same pipeline here:
//!
//! * [`event`] / [`log`] — in-memory append-only trace ([`log::TraceLog`]);
//! * `format` — the log-file interchange format, with a strict parser;
//! * [`capture`] — the persisted capture format (v2): events plus a
//!   provenance header (spec hash, policy/placement/cores, treatment,
//!   content hash) in line and JSON renderings, imported by `rtft replay`;
//! * [`stats`] — per-job lifecycle reconstruction and task summaries,
//!   over the [`jobs`] table that replay shares;
//! * [`chart`] — the text time-series chart with the paper's glyphs
//!   (↑ releases, ↓ deadlines, ◆ detectors, `>` WCRTs);
//! * [`merge`] — core-tagged recombination of per-core traces from
//!   partitioned multiprocessor runs (`rtft-part`).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod capture;
pub mod chart;
pub mod event;
pub mod format;
pub mod jobs;
pub mod log;
pub mod merge;
pub mod stats;
pub mod svg;
pub mod validate;

pub use capture::{CaptureBody, CaptureEvents, TraceCapture, TraceHeader};
pub use chart::{render, ChartConfig};
pub use event::{EventKind, JobIndex, TraceEvent};
pub use log::TraceLog;
pub use merge::{merge_core_traces, merged_content_hash, CoreEvent};
pub use stats::{DurationHistogram, JobRecord, ResponseHistogram, TaskSummary, TraceStats};
pub use svg::{render_svg, SvgConfig};
