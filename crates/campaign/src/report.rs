//! Aggregated campaign results.
//!
//! Workers reduce each job to a compact [`JobDigest`] (the full
//! [`TraceLog`](rtft_trace::TraceLog) is dropped after digestion — a
//! million-job campaign must not hold a million traces); the engine
//! merges the digests, in grid order, into one [`CampaignReport`]. All
//! digest-derived fields are **bit-identical across worker counts**;
//! only the wall-clock figures (`wall_seconds`, `jobs_per_sec`,
//! `workers`) vary, and [`CampaignReport::digest`] excludes them.

use crate::oracle::{OracleOutcome, OracleSkip, OracleViolation};
use rtft_core::diag::{self, Diagnostic};
use rtft_core::fnv::Fnv1a;
use rtft_core::task::TaskId;
use rtft_core::time::Duration;
use rtft_trace::stats::DurationHistogram;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How one job terminated.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JobStatus {
    /// Simulated to the horizon.
    Ran,
    /// Rejected by admission (infeasible base system).
    InfeasibleBase,
    /// The allocator found no task→core placement (`cores > 1` jobs
    /// only); carries the rejection diagnostics.
    Unplaceable(String),
    /// The analysis errored.
    AnalysisError(String),
}

/// Everything the campaign keeps from one executed job.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct JobDigest {
    /// Position in the expanded grid.
    pub index: usize,
    /// Set-instance label.
    pub set_label: String,
    /// Scheduling-policy label (`fp`, `edf`, `npfp`).
    pub policy: &'static str,
    /// Core count the job ran on (1 = uniprocessor pipeline).
    pub cores: usize,
    /// Allocator label (`ffd`, `bfd`, `wfd`, `exhaustive`).
    pub alloc: &'static str,
    /// Fault-instance label.
    pub fault_label: String,
    /// Treatment name.
    pub treatment: &'static str,
    /// Platform label.
    pub platform: String,
    /// Termination status.
    pub status: JobStatus,
    /// Content hash of the full trace (determinism witness).
    pub trace_hash: u64,
    /// Jobs released / completed across all tasks.
    pub released: usize,
    /// Jobs completed normally.
    pub completed: usize,
    /// Deadline misses.
    pub missed: usize,
    /// Jobs stopped by the treatment.
    pub stopped: usize,
    /// Detector flags raised.
    pub faults_flagged: usize,
    /// Detector timer firings (the §6.2 overhead driver).
    pub detector_fires: usize,
    /// Tasks that failed their verdict.
    pub failed_tasks: Vec<TaskId>,
    /// Non-faulty tasks that failed anyway.
    pub collateral: Vec<TaskId>,
    /// Detection latencies: flag instant − (release + threshold).
    pub detector_latencies: Vec<Duration>,
    /// Oracle outcome.
    pub oracle: OracleOutcome,
}

/// Per-treatment aggregate.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TreatmentTally {
    /// Jobs run under this treatment.
    pub jobs: usize,
    /// Jobs with at least one failed task.
    pub failed_jobs: usize,
    /// Total deadline misses.
    pub misses: usize,
    /// Total treatment stops.
    pub stops: usize,
    /// Jobs with collateral failures.
    pub collateral_jobs: usize,
}

/// The aggregated outcome of a campaign run.
#[derive(Clone, PartialEq, Debug)]
pub struct CampaignReport {
    /// Campaign label.
    pub name: String,
    /// Per-job digests, in grid order.
    pub jobs: Vec<JobDigest>,
    /// Jobs that simulated to the horizon.
    pub ran: usize,
    /// Jobs rejected as infeasible.
    pub infeasible: usize,
    /// Multicore jobs whose allocator found no placement.
    pub unplaceable: usize,
    /// Jobs that errored in analysis.
    pub errors: usize,
    /// Per-treatment tallies.
    pub by_treatment: BTreeMap<&'static str, TreatmentTally>,
    /// Detector-latency distribution across all jobs.
    pub detector_latency: DurationHistogram,
    /// Oracle: jobs compared against a bound.
    pub oracle_checked: usize,
    /// Oracle: jobs skipped as out-of-allowance.
    pub oracle_out_of_allowance: usize,
    /// Oracle: jobs skipped for charged overheads or analysis errors.
    pub oracle_skipped: usize,
    /// All bound violations, in grid order.
    pub violations: Vec<OracleViolation>,
    /// Wall-clock seconds of the run (not part of [`Self::digest`]).
    pub wall_seconds: f64,
    /// Throughput (not part of [`Self::digest`]).
    pub jobs_per_sec: f64,
    /// Worker threads used (not part of [`Self::digest`]).
    pub workers: usize,
    /// Static campaign lint findings (annotation only — not part of
    /// [`Self::digest`], which covers executed results; empty unless
    /// attached via [`Self::with_lint`]).
    pub lint: Vec<Diagnostic>,
}

/// Bucket width of the detector-latency histogram: 1 ms — the scale of
/// the paper's measured quantization delays (Figure 4's 1/2/3 ms).
pub const LATENCY_BUCKET: Duration = Duration::millis(1);

impl CampaignReport {
    /// Assemble a report from digests (already in grid order).
    pub fn from_digests(
        name: String,
        jobs: Vec<JobDigest>,
        wall_seconds: f64,
        workers: usize,
    ) -> Self {
        let mut ran = 0;
        let mut infeasible = 0;
        let mut unplaceable = 0;
        let mut errors = 0;
        let mut by_treatment: BTreeMap<&'static str, TreatmentTally> = BTreeMap::new();
        let mut detector_latency = DurationHistogram::new(LATENCY_BUCKET);
        let mut oracle_checked = 0;
        let mut oracle_out_of_allowance = 0;
        let mut oracle_skipped = 0;
        let mut violations = Vec::new();
        for d in &jobs {
            match &d.status {
                JobStatus::Ran => ran += 1,
                JobStatus::InfeasibleBase => infeasible += 1,
                JobStatus::Unplaceable(_) => unplaceable += 1,
                JobStatus::AnalysisError(_) => errors += 1,
            }
            let tally = by_treatment.entry(d.treatment).or_default();
            tally.jobs += 1;
            if !d.failed_tasks.is_empty() {
                tally.failed_jobs += 1;
            }
            tally.misses += d.missed;
            tally.stops += d.stopped;
            if !d.collateral.is_empty() {
                tally.collateral_jobs += 1;
            }
            for l in &d.detector_latencies {
                detector_latency.record(*l);
            }
            match &d.oracle {
                OracleOutcome::NotRun => {}
                OracleOutcome::Clean { .. } => oracle_checked += 1,
                OracleOutcome::Skipped(OracleSkip::OutOfAllowance) => oracle_out_of_allowance += 1,
                OracleOutcome::Skipped(_) => oracle_skipped += 1,
                OracleOutcome::Violated(v) => {
                    oracle_checked += 1;
                    violations.extend(v.iter().cloned());
                }
            }
        }
        let jobs_per_sec = if wall_seconds > 0.0 {
            jobs.len() as f64 / wall_seconds
        } else {
            f64::INFINITY
        };
        CampaignReport {
            name,
            jobs,
            ran,
            infeasible,
            unplaceable,
            errors,
            by_treatment,
            detector_latency,
            oracle_checked,
            oracle_out_of_allowance,
            oracle_skipped,
            violations,
            wall_seconds,
            jobs_per_sec,
            workers,
            lint: Vec::new(),
        }
    }

    /// Attach static lint findings (builder-style, used by the engine
    /// so the many `from_digests` call sites stay unchanged).
    #[must_use]
    pub fn with_lint(mut self, lint: Vec<Diagnostic>) -> Self {
        self.lint = lint;
        self
    }

    /// `true` iff the differential oracle found no violation.
    pub fn oracle_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// A stable FNV-1a digest over every deterministic field — the same
    /// spec and seeds yield the same digest **regardless of worker
    /// count**. Wall-clock fields are excluded.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.bytes(self.name.as_bytes());
        for d in &self.jobs {
            h.word(d.index as u64);
            h.word(d.trace_hash);
            h.bytes(d.set_label.as_bytes());
            h.bytes(d.policy.as_bytes());
            h.word(d.cores as u64);
            h.bytes(d.alloc.as_bytes());
            h.bytes(d.fault_label.as_bytes());
            h.bytes(d.treatment.as_bytes());
            h.bytes(d.platform.as_bytes());
            let _ = write!(h, "{:?}", d.status);
            h.word(d.released as u64);
            h.word(d.completed as u64);
            h.word(d.missed as u64);
            h.word(d.stopped as u64);
            h.word(d.faults_flagged as u64);
            h.word(d.detector_fires as u64);
            let _ = write!(h, "{:?}", d.failed_tasks);
            let _ = write!(h, "{:?}", d.oracle);
        }
        h.finish()
    }

    /// Render the human-readable report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== campaign `{}` ==", self.name);
        let _ = writeln!(
            out,
            "jobs: {} total, {} ran, {} infeasible, {} unplaceable, {} errors",
            self.jobs.len(),
            self.ran,
            self.infeasible,
            self.unplaceable,
            self.errors
        );
        let _ = writeln!(
            out,
            "wall: {:.3}s with {} workers ({:.0} jobs/sec)",
            self.wall_seconds, self.workers, self.jobs_per_sec
        );
        if !self.lint.is_empty() {
            let (e, w, n) = diag::counts(&self.lint);
            let _ = writeln!(out, "\nlint: {e} errors, {w} warnings, {n} notes");
            for d in &self.lint {
                let _ = writeln!(out, "  {}", d.to_line());
            }
        }
        let _ = writeln!(
            out,
            "\n{:<22} {:>6} {:>8} {:>8} {:>8} {:>11}",
            "treatment", "jobs", "failed", "misses", "stops", "collateral"
        );
        for (name, t) in &self.by_treatment {
            let _ = writeln!(
                out,
                "{name:<22} {:>6} {:>8} {:>8} {:>8} {:>11}",
                t.jobs, t.failed_jobs, t.misses, t.stops, t.collateral_jobs
            );
        }
        if self.detector_latency.samples > 0 {
            let _ = writeln!(
                out,
                "\ndetector latency ({} samples, p50 {} p99 {}):",
                self.detector_latency.samples,
                self.detector_latency
                    .quantile(0.5)
                    .expect("samples present"),
                self.detector_latency
                    .quantile(0.99)
                    .expect("samples present"),
            );
            out.push_str(&self.detector_latency.render());
        }
        let _ = writeln!(
            out,
            "\noracle: {} checked, {} out-of-allowance, {} skipped, {} violations",
            self.oracle_checked,
            self.oracle_out_of_allowance,
            self.oracle_skipped,
            self.violations.len()
        );
        for v in &self.violations {
            let _ = writeln!(out, "  VIOLATION {v}");
        }
        let _ = writeln!(out, "\nreport digest: {:016x}", self.digest());
        out
    }

    /// Render the machine-readable JSON report (`rtft campaign --json`).
    ///
    /// Everything the text report states, as one JSON object; the
    /// `digest` field is the same 16-hex-digit value the text report's
    /// `report digest:` line prints, so the two emissions can be
    /// cross-checked. Wall-clock fields are included but, as in the text
    /// report, are not part of the digest.
    pub fn to_json(&self) -> String {
        // The one JSON escape table of the workspace lives on the
        // query plane.
        use rtft_core::query::json_escape as esc;
        fn num(v: f64) -> String {
            if v.is_finite() {
                format!("{v}")
            } else {
                "null".to_string()
            }
        }
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{{\n  \"name\": \"{}\",\n  \"digest\": \"{:016x}\",",
            esc(&self.name),
            self.digest()
        );
        let _ = writeln!(
            out,
            "  \"jobs_total\": {}, \"ran\": {}, \"infeasible\": {}, \
             \"unplaceable\": {}, \"errors\": {},",
            self.jobs.len(),
            self.ran,
            self.infeasible,
            self.unplaceable,
            self.errors
        );
        let _ = writeln!(
            out,
            "  \"workers\": {}, \"wall_seconds\": {}, \"jobs_per_sec\": {},",
            self.workers,
            num(self.wall_seconds),
            num(self.jobs_per_sec)
        );
        let _ = writeln!(
            out,
            "  \"oracle\": {{\"checked\": {}, \"out_of_allowance\": {}, \
             \"skipped\": {}, \"violations\": {}}},",
            self.oracle_checked,
            self.oracle_out_of_allowance,
            self.oracle_skipped,
            self.violations.len()
        );
        let lint: Vec<String> = self.lint.iter().map(Diagnostic::to_json).collect();
        let _ = writeln!(out, "  \"lint\": [{}],", lint.join(", "));
        let treatments: Vec<String> = self
            .by_treatment
            .iter()
            .map(|(name, t)| {
                format!(
                    "\"{}\": {{\"jobs\": {}, \"failed_jobs\": {}, \"misses\": {}, \
                     \"stops\": {}, \"collateral_jobs\": {}}}",
                    esc(name),
                    t.jobs,
                    t.failed_jobs,
                    t.misses,
                    t.stops,
                    t.collateral_jobs
                )
            })
            .collect();
        let _ = writeln!(out, "  \"by_treatment\": {{{}}},", treatments.join(", "));
        let (p50, p99) = (
            self.detector_latency.quantile(0.5),
            self.detector_latency.quantile(0.99),
        );
        let opt_ns =
            |d: Option<Duration>| d.map_or("null".to_string(), |d| d.as_nanos().to_string());
        let _ = writeln!(
            out,
            "  \"detector_latency\": {{\"samples\": {}, \"p50_ns\": {}, \"p99_ns\": {}}},",
            self.detector_latency.samples,
            opt_ns(p50),
            opt_ns(p99)
        );
        let violations: Vec<String> = self
            .violations
            .iter()
            .map(|v| {
                format!(
                    "{{\"job_index\": {}, \"task\": {}, \"job\": {}, \"observed_ns\": {}, \
                     \"bound_ns\": {}, \"dmax_ns\": {}}}",
                    v.job_index,
                    v.task.0,
                    v.job,
                    v.observed.as_nanos(),
                    v.bound.as_nanos(),
                    v.dmax.as_nanos()
                )
            })
            .collect();
        let _ = writeln!(out, "  \"violations\": [{}],", violations.join(", "));
        let jobs: Vec<String> = self
            .jobs
            .iter()
            .map(|d| {
                // Raw message text here — esc() runs once, below.
                let status = match &d.status {
                    JobStatus::Ran => "ran".to_string(),
                    JobStatus::InfeasibleBase => "infeasible".to_string(),
                    JobStatus::Unplaceable(m) => format!("unplaceable: {m}"),
                    JobStatus::AnalysisError(m) => format!("error: {m}"),
                };
                let oracle = match &d.oracle {
                    OracleOutcome::NotRun => "not-run",
                    OracleOutcome::Clean { .. } => "clean",
                    OracleOutcome::Skipped(_) => "skipped",
                    OracleOutcome::Violated(_) => "violated",
                };
                format!(
                    "    {{\"index\": {}, \"set\": \"{}\", \"policy\": \"{}\", \
                     \"cores\": {}, \"alloc\": \"{}\", \"fault\": \"{}\", \
                     \"treatment\": \"{}\", \"platform\": \"{}\", \"status\": \"{}\", \
                     \"trace_hash\": \"{:016x}\", \"released\": {}, \"completed\": {}, \
                     \"missed\": {}, \"stopped\": {}, \"oracle\": \"{}\"}}",
                    d.index,
                    esc(&d.set_label),
                    d.policy,
                    d.cores,
                    d.alloc,
                    esc(&d.fault_label),
                    d.treatment,
                    esc(&d.platform),
                    esc(&status),
                    d.trace_hash,
                    d.released,
                    d.completed,
                    d.missed,
                    d.stopped,
                    oracle
                )
            })
            .collect();
        let _ = writeln!(out, "  \"jobs\": [\n{}\n  ]\n}}", jobs.join(",\n"));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(index: usize, treatment: &'static str, missed: usize) -> JobDigest {
        JobDigest {
            index,
            set_label: "s".into(),
            policy: "fp",
            cores: 1,
            alloc: "ffd",
            fault_label: "f".into(),
            treatment,
            platform: "exact".into(),
            status: JobStatus::Ran,
            trace_hash: 7 + index as u64,
            released: 10,
            completed: 9,
            missed,
            stopped: 0,
            faults_flagged: 0,
            detector_fires: 3,
            failed_tasks: if missed > 0 { vec![TaskId(1)] } else { vec![] },
            collateral: vec![],
            detector_latencies: vec![Duration::millis(1)],
            oracle: OracleOutcome::Clean { checked: 9 },
        }
    }

    #[test]
    fn aggregates_and_digest_are_stable() {
        let jobs = vec![digest(0, "detect-only", 0), digest(1, "no-detection", 2)];
        let a = CampaignReport::from_digests("t".into(), jobs.clone(), 1.0, 1);
        let b = CampaignReport::from_digests("t".into(), jobs, 0.25, 4);
        assert_eq!(a.digest(), b.digest(), "wall clock must not leak");
        assert_eq!(a.ran, 2);
        assert_eq!(a.by_treatment["no-detection"].misses, 2);
        assert_eq!(a.by_treatment["no-detection"].failed_jobs, 1);
        assert_eq!(a.oracle_checked, 2);
        assert_eq!(a.detector_latency.samples, 2);
        assert!(a.oracle_clean());
        let text = a.render();
        assert!(text.contains("campaign `t`"));
        assert!(text.contains("detect-only"));
        assert!(text.contains("0 violations"));
    }

    #[test]
    fn digest_is_content_sensitive() {
        let a = CampaignReport::from_digests("t".into(), vec![digest(0, "detect-only", 0)], 1.0, 1);
        let mut altered = vec![digest(0, "detect-only", 0)];
        altered[0].trace_hash ^= 1;
        let b = CampaignReport::from_digests("t".into(), altered, 1.0, 1);
        assert_ne!(a.digest(), b.digest());
        // The multicore axes are digest-relevant too.
        let mut moved = vec![digest(0, "detect-only", 0)];
        moved[0].cores = 2;
        let c = CampaignReport::from_digests("t".into(), moved, 1.0, 1);
        assert_ne!(a.digest(), c.digest());
        let mut packed = vec![digest(0, "detect-only", 0)];
        packed[0].alloc = "wfd";
        let d = CampaignReport::from_digests("t".into(), packed, 1.0, 1);
        assert_ne!(a.digest(), d.digest());
    }

    #[test]
    fn unplaceable_jobs_are_tallied_separately() {
        let mut d = digest(0, "detect-only", 0);
        d.status = JobStatus::Unplaceable("no core fits τ1".into());
        let report = CampaignReport::from_digests("t".into(), vec![d], 1.0, 1);
        assert_eq!(report.unplaceable, 1);
        assert_eq!(report.ran, 0);
        assert_eq!(report.infeasible, 0);
        assert!(report.render().contains("1 unplaceable"));
    }

    #[test]
    fn json_report_carries_the_text_digest() {
        let mut jobs = vec![digest(0, "detect-only", 0), digest(1, "no-detection", 2)];
        jobs[1].status = JobStatus::Unplaceable("no core fits \"a\"".into());
        let report = CampaignReport::from_digests("t \"quoted\"".into(), jobs, 1.0, 1);
        let json = report.to_json();
        // Status messages are escaped exactly once.
        assert!(
            json.contains("unplaceable: no core fits \\\"a\\\""),
            "{json}"
        );
        assert!(json.contains(&format!("\"digest\": \"{:016x}\"", report.digest())));
        assert!(json.contains("\"jobs_total\": 2"));
        assert!(json.contains("\\\"quoted\\\""), "strings must be escaped");
        assert!(json.contains("\"cores\": 1"));
        assert!(json.contains("\"alloc\": \"ffd\""));
        assert!(json.contains("\"oracle\": \"clean\""));
        // Balanced braces/brackets (cheap well-formedness check).
        let depth = json.chars().fold(0i64, |d, c| match c {
            '{' | '[' => d + 1,
            '}' | ']' => d - 1,
            _ => d,
        });
        assert_eq!(depth, 0);
    }
}
