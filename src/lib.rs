//! # rtft — fault tolerance for fixed-priority real-time systems
//!
//! A Rust reproduction of Masson & Midonnet, *"Fault Tolerance with
//! Real-Time Java"* (WPDRTS/IPDPS 2006): admission control for periodic
//! task systems under fixed-priority preemptive scheduling, WCRT-based
//! temporal-fault detectors, and allowance treatments that stop faulty
//! tasks before they fail innocent lower-priority ones.
//!
//! This facade crate re-exports the workspace:
//!
//! | crate | contents |
//! |---|---|
//! | [`core`] | task model, feasibility analysis (paper Fig. 2 algorithm), allowance computation, blocking/sensitivity/server extensions |
//! | [`sim`] | deterministic discrete-event simulator on `m ≥ 1` cores (the paper's uniprocessor FPPS platform is the one-core case) with jRate timer quantization and polled-stop models |
//! | [`ft`] | detectors, the five paper treatments, scenario harness, dynamic-admission and under-run extensions |
//! | [`part`] | partitioned multiprocessor scheduling: bin-packing allocators with per-core feasibility probes, per-core analysis sessions, multicore partitioned execution |
//! | [`rtsj`] | RTSJ-shaped API (`RealtimeThreadExtended`, `PriorityScheduler`, timers) |
//! | [`trace`] | trace log, file format, statistics, time-series charts |
//! | [`taskgen`] | the paper's example systems, a task-file parser, UUniFast generators |
//! | [`campaign`] | parallel scenario-campaign engine with a differential sim-vs-analysis oracle |
//! | [`replay`] | trace-driven replay: step a saved capture against the analyzer's thresholds to the first divergence, minimized to a repro artifact |
//! | [`serve`] | warm-session analysis daemon: std-only HTTP/1.1 front end over the query-plane `Workbench`, with a keyed LRU of memoized sessions |
//!
//! ## Quickstart
//!
//! ```
//! use rtft::prelude::*;
//!
//! // The paper's evaluated system (Table 2), τ3 phased into the
//! // Figures 3–7 observation window.
//! let set = rtft::taskgen::paper::table2_figure_window();
//!
//! // Admission control through one analysis session: WCRTs and the
//! // tolerance factor share (and memoize) the same fixed-point state.
//! let mut session = Analyzer::new(&set);
//! let report = session.report().unwrap();
//! assert!(report.is_feasible());
//! let eq = session.equitable_allowance().unwrap().unwrap();
//! assert_eq!(eq.allowance, Duration::millis(11));
//!
//! // Inject the paper's fault and run under the system-allowance
//! // treatment: damage stays confined to the faulty task.
//! let faults = FaultPlan::none().overrun(TaskId(1), 5, Duration::millis(40));
//! let outcome = run_scenario(&Scenario::new(
//!     "demo", set, faults,
//!     Treatment::SystemAllowance {
//!         mode: StopMode::Permanent,
//!         policy: SlackPolicy::ProtectAll,
//!     },
//!     Instant::from_millis(1300),
//! ).with_jrate_timers()).unwrap();
//! assert!(outcome.collateral_failures().is_empty());
//! ```
//!
//! ## Running campaigns
//!
//! Single scenarios validate the figures; *campaigns* validate the
//! system. A campaign is a declarative grid — task-set sources × fault
//! plans × treatments × platform models — expanded into thousands of
//! jobs and executed on a worker pool, with every job optionally
//! cross-checked by the differential sim-vs-analysis oracle (observed
//! responses must stay under the [`core::analyzer::Analyzer`] WCRT
//! bound whenever the fault plan is within the admitted allowance).
//! Reports are bit-identical across worker counts; oracle violations
//! are minimized to replayable one-job spec files.
//!
//! ```
//! use rtft::campaign::prelude::*;
//!
//! let spec = parse_spec(
//!     "campaign sweep\n\
//!      horizon 1300ms\n\
//!      taskgen paper\n\
//!      faults single task=1 job=5 overrun=5ms,11ms,40ms\n\
//!      treatment all\n\
//!      platform exact\n\
//!      platform jrate\n",
//! ).unwrap();
//! let report = run_campaign(&spec, &RunConfig::default()).unwrap();
//! assert_eq!(report.jobs.len(), 3 * 5 * 2);
//! assert!(report.oracle_clean());
//! ```
//!
//! From the command line: `rtft campaign grid.campaign --workers 8
//! --repro-dir repros/` (exit code 3 signals oracle violations, so CI
//! can gate on the differential property).

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub use rtft_campaign as campaign;
pub use rtft_core as core;
pub use rtft_ft as ft;
pub use rtft_part as part;
pub use rtft_replay as replay;
pub use rtft_rtsj as rtsj;
pub use rtft_serve as serve;
pub use rtft_sim as sim;
pub use rtft_taskgen as taskgen;
pub use rtft_trace as trace;

/// Everything most programs need.
pub mod prelude {
    pub use rtft_campaign::prelude::*;
    pub use rtft_core::prelude::*;
    pub use rtft_ft::prelude::*;
    pub use rtft_part::prelude::*;
    pub use rtft_sim::prelude::*;
    pub use rtft_trace::{ChartConfig, TraceLog, TraceStats};
}
