//! # rtft-ft — temporal-fault detection and allowance treatments
//!
//! The runtime half of the paper's contribution. `rtft-core` proves what
//! the admission analysis knows (WCRTs, allowances); this crate turns
//! those numbers into executable fault tolerance on the `rtft-sim`
//! substrate:
//!
//! * [`detector`] — one periodic detector per task at `offset + WCRT`
//!   (paper §3): a WCRT overrun implies a cost overrun, so no CPU-usage
//!   monitoring is needed;
//! * [`treatment`] — the paper's §4 policies: no detection, detect-only,
//!   immediate stop, equitable allowance, system allowance;
//! * [`manager`] — the §4.3 consumed-overrun ledger;
//! * [`recipe`] — the one certification recipe: detector thresholds per
//!   treatment and the Δmax-certified response bound;
//! * [`harness`] — scenario runner regenerating the paper's Figures 3–7
//!   and the ablation sweeps;
//! * [`verdict`] — which tasks failed, and whether damage was confined to
//!   the faulty task (the paper's success criterion);
//! * [`dynamic`] — §7 future work: online add/remove with adapting
//!   detectors;
//! * [`underrun`] — §7 future work: measuring cost under-runs and
//!   reassigning the freed slack.
//!
//! ```
//! use rtft_core::prelude::*;
//! use rtft_sim::prelude::*;
//! use rtft_ft::prelude::*;
//!
//! // Paper Table 2 system, τ3 phased into the observation window.
//! let set = TaskSet::from_specs(vec![
//!     TaskBuilder::new(1, 20, Duration::millis(200), Duration::millis(29))
//!         .deadline(Duration::millis(70)).build(),
//!     TaskBuilder::new(2, 18, Duration::millis(250), Duration::millis(29))
//!         .deadline(Duration::millis(120)).build(),
//!     TaskBuilder::new(3, 16, Duration::millis(1500), Duration::millis(29))
//!         .deadline(Duration::millis(120)).offset(Duration::millis(1000)).build(),
//! ]);
//! let faults = FaultPlan::none().overrun(TaskId(1), 5, Duration::millis(40));
//!
//! // Without detection, the fault fails innocent τ3 (paper Figure 3)…
//! let fig3 = run_scenario(&Scenario::new(
//!     "fig3", set.clone(), faults.clone(),
//!     Treatment::NoDetection, Instant::from_millis(1300),
//! )).unwrap();
//! assert_eq!(fig3.collateral_failures(), vec![TaskId(3)]);
//!
//! // …with the system allowance, damage is confined to τ1 (Figure 7).
//! let fig7 = run_scenario(&Scenario::new(
//!     "fig7", set.clone(), faults,
//!     Treatment::SystemAllowance {
//!         mode: StopMode::Permanent,
//!         policy: SlackPolicy::ProtectAll,
//!     },
//!     Instant::from_millis(1300),
//! ).with_jrate_timers()).unwrap();
//! assert!(fig7.collateral_failures().is_empty());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod detector;
pub mod dynamic;
pub mod harness;
pub mod manager;
pub mod recipe;
pub mod treatment;
pub mod underrun;
pub mod verdict;
pub mod verify;

/// One-stop imports.
pub mod prelude {
    pub use crate::detector::FtSupervisor;
    pub use crate::dynamic::{DynamicSystem, EpochChange};
    pub use crate::harness::{
        run_paper_lineup, run_scenario, run_scenario_buffered, run_scenario_with, HarnessError,
        Scenario, ScenarioOutcome,
    };
    pub use crate::manager::AllowanceManager;
    pub use crate::treatment::Treatment;
    pub use crate::underrun::{suggest_reassignment, ObservedCosts};
    pub use crate::verdict::{TaskVerdict, Verdict};
    pub use crate::verify::{verify_analysis, VerificationReport};
    pub use rtft_core::allowance::SlackPolicy;
}
