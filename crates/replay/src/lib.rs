//! # rtft-replay — trace-driven replay against the analysis plane
//!
//! A saved [`TraceCapture`] is evidence of
//! what a run *did*; the analyzer's thresholds are a contract for what
//! any run *may* do. This crate steps a capture event-by-event against
//! that contract — the one certification recipe
//! ([`rtft_ft::recipe::Recipe`]) the runners arm their detectors from and
//! the campaign oracle certifies jobs with — and reports the **first
//! divergence**:
//!
//! * a *missed threshold* (a completion past the certified response
//!   bound, or past the quantized detection line with no `fault` event
//!   preceding it),
//! * an *uncertified stop* (a `stop` event the treatment could not have
//!   issued, or one earlier than its detection threshold permits),
//! * an *order mismatch* (execution events for jobs the trace never
//!   released, duplicate completions, activity after a stop).
//!
//! A divergence is [minimized](repro::minimize) to the campaign's
//! repro-artifact format: a standalone one-job spec plus the capture
//! truncated right after the diverging event, so `rtft replay` on the
//! minimized pair diverges at the same index. The Figure 3–7 golden
//! traces replay clean against the paper system and reproduce their
//! verdicts byte-identically — divergence means the trace and the spec
//! genuinely disagree.
//!
//! ```
//! use rtft_replay::{job_from_campaign, replay};
//! use rtft_trace::TraceCapture;
//!
//! let job = job_from_campaign(
//!     "campaign demo\n\
//!      horizon 1300ms\n\
//!      taskgen paper\n\
//!      faults paper\n\
//!      treatment detect\n\
//!      platform jrate\n",
//! )
//! .unwrap();
//! let outcome = rtft_ft::harness::run_scenario(&job.scenario()).unwrap();
//! let capture = TraceCapture::flat(0, "fp", "detect", outcome.log.clone());
//! let report = replay(&capture, &job).unwrap();
//! assert!(report.is_clean());
//! assert_eq!(report.verdict.to_string(), outcome.verdict.to_string());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bounds;
pub mod divergence;
pub mod repro;

pub use bounds::{resolve_bounds, Certification, ReplayBounds, TaskBounds};
pub use divergence::{replay, replay_with, Divergence, DivergenceKind, ReplayReport};
pub use repro::{minimize, Repro};

use rtft_campaign::{parse_spec, JobSpec, PlatformSpec};
use rtft_core::query::{spec_hash, SystemSpec};
use rtft_core::time::Instant;
use rtft_ft::treatment::Treatment;
use rtft_trace::TraceCapture;
use std::sync::Arc;

/// What went wrong while setting a replay up.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReplayError {
    /// The spec side is unusable (parse error, not exactly one job).
    Spec(String),
    /// The analysis plane rejected the job (infeasible base system, no
    /// admitted allowance to certify against).
    Analysis(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Spec(m) => write!(f, "replay spec error: {m}"),
            ReplayError::Analysis(m) => write!(f, "replay analysis error: {m}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// Parse a campaign spec that expands to **exactly one job** — the
/// repro-artifact contract — and return that job.
///
/// # Errors
/// [`ReplayError::Spec`] when the text does not parse or expands to
/// zero or several jobs (a grid, not a repro).
pub fn job_from_campaign(text: &str) -> Result<JobSpec, ReplayError> {
    let spec = parse_spec(text).map_err(|e| ReplayError::Spec(e.to_string()))?;
    let jobs = spec
        .expand()
        .map_err(|e| ReplayError::Spec(e.to_string()))?;
    match jobs.len() {
        1 => Ok(jobs.into_iter().next().expect("len checked")),
        n => Err(ReplayError::Spec(format!(
            "replay needs a one-job spec, but `{}` expands to {n} jobs",
            spec.name
        ))),
    }
}

/// Lift a query-plane [`SystemSpec`] (an `.rtft` batch header) into a
/// replayable job under `treatment`, simulated to `horizon`.
pub fn job_from_system(spec: &SystemSpec, treatment: Treatment, horizon: Instant) -> JobSpec {
    JobSpec {
        index: 0,
        set_ordinal: 0,
        set_label: spec.name.clone(),
        set: Arc::new(spec.set.clone()),
        policy: spec.policy,
        cores: spec.cores,
        placement: spec.placement,
        alloc: spec.alloc,
        fault_label: "explicit".to_string(),
        faults: spec.faults.iter().copied().collect(),
        treatment,
        platform: PlatformSpec::from_model(&spec.platform),
        horizon,
    }
}

/// Does the capture's header claim it was recorded from `job`'s system?
/// Compares the header's spec hash against
/// [`spec_hash`]`(&job.system_spec())`. `None` when the capture is
/// headerless (a legacy v1 trace) — the caller decides whether to
/// trust it.
pub fn spec_matches(capture: &TraceCapture, job: &JobSpec) -> Option<bool> {
    capture
        .header
        .as_ref()
        .map(|h| h.spec_hash == spec_hash(&job.system_spec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::error::AnalysisError;
    use rtft_core::task::TaskId;
    use rtft_core::time::Duration;

    /// The certification face `rtft replay` prints in brackets after
    /// the event count, for a paper-set job with `faults`, `shape` and
    /// `platform`.
    fn face(faults: &str, shape: &str, platform: &str) -> String {
        let job = job_from_campaign(&format!(
            "campaign face\nhorizon 1300ms\ntaskgen paper\nfaults {faults}\n{shape}\n\
             treatment detect\nplatform {platform}\n"
        ))
        .unwrap();
        resolve_bounds(&job).unwrap().certification.to_string()
    }

    #[test]
    fn certification_faces_are_pinned() {
        let in_allowance = "single task=1 job=5 overrun=11ms";
        for shape in ["cores 1", "cores 2", "cores 2\nplacement global"] {
            assert_eq!(
                face(in_allowance, shape, "exact"),
                "certified at Δmax = 11ms",
                "{shape}"
            );
            assert_eq!(
                face("paper", shape, "jrate"),
                "uncertified (Δmax = 40ms: fault plan exceeds the admitted allowance)",
                "{shape}"
            );
            assert_eq!(
                face("paper", shape, "exact dispatch=1ms"),
                "uncertified (charged overheads)",
                "{shape}"
            );
        }
        assert_eq!(face("none", "cores 1", "exact"), "certified at Δmax = 0ms");
        // An inflated analysis that fails reports the analysis error
        // itself as the reason.
        let reason = AnalysisError::Divergent { task: TaskId(2) }.to_string();
        assert_eq!(
            Certification::Uncertified {
                dmax: Duration::millis(5),
                reason,
            }
            .to_string(),
            "uncertified (Δmax = 5ms: response-time analysis diverges for τ2 (overload))"
        );
    }
}
