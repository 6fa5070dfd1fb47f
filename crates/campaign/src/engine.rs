//! The parallel campaign executor.
//!
//! Jobs are claimed from the expanded grid through a shared atomic
//! cursor in fixed-size chunks (no locks on the hot path), executed on
//! `std::thread`-scoped workers, digested immediately (the trace is
//! dropped after reduction), and merged back **in grid order** — so the
//! report is bit-identical no matter how many workers ran or how the
//! chunks interleaved.
//!
//! Each worker keeps the [`Workbench`] of the placement it is currently
//! inside, keyed by the job's `set_ordinal`. The expansion guarantees
//! the jobs of one `(set, policy, cores, placement, alloc)` tuple are
//! contiguous, so a chunked scan analyses (and partitions) each
//! placement at most once per worker that touches it.
//!
//! Every job takes one path, whatever its placement. The workbench
//! runs it as one list of parts ([`Workbench::simulate`]) and hands
//! back one [`PlacedRun`]. The differential oracle then checks each
//! part of that run against the part's own session and job slice: the
//! whole job on one core or under global placement, each core's slice
//! of a partitioned job. The parts fold into one digest. Lone runs
//! ([`run_single`]) take the same body, and trace captures
//! ([`capture_job`]) the same [`Workbench::simulate`].

use crate::oracle::{self, OracleOutcome, OracleSkip};
use crate::report::{CampaignReport, JobDigest, JobStatus};
use crate::spec::{treatment_keyword, CampaignSpec, JobSpec, SpecError};
use rtft_ft::harness::{HarnessError, ScenarioOutcome};
use rtft_part::workbench::{Part, PlacedRun, RunError, Workbench};
use rtft_sim::engine::SimBuffers;
use rtft_sim::sink::TraceSink;
use rtft_trace::{EventKind, TraceCapture};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Engine knobs.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Worker threads (1 = fully sequential, no threads spawned).
    pub workers: usize,
    /// Override the spec's oracle switch.
    pub oracle: Option<bool>,
    /// Jobs claimed per cursor bump; `None` sizes chunks to about eight
    /// per worker.
    pub chunk: Option<usize>,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            workers: available_workers(),
            oracle: None,
            chunk: None,
        }
    }
}

impl RunConfig {
    /// Sequential configuration.
    pub fn sequential() -> Self {
        RunConfig {
            workers: 1,
            ..RunConfig::default()
        }
    }

    /// Use `n` workers (clamped to ≥ 1).
    pub fn with_workers(mut self, n: usize) -> Self {
        self.workers = n.max(1);
        self
    }

    /// Force the oracle on or off regardless of the spec.
    pub fn with_oracle(mut self, on: bool) -> Self {
        self.oracle = Some(on);
        self
    }
}

/// Worker count the host advertises (`available_parallelism`, 1 on
/// failure).
pub fn available_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Expand and execute a campaign.
///
/// # Errors
/// [`SpecError`] when the grid cannot be expanded (empty axes, fault on
/// a missing task). Per-job analysis failures are *not* errors — they
/// are recorded in the report as infeasible/errored jobs.
pub fn run_campaign(spec: &CampaignSpec, cfg: &RunConfig) -> Result<CampaignReport, SpecError> {
    let jobs = spec.expand()?;
    let oracle = cfg.oracle.unwrap_or(spec.oracle);
    let workers = cfg.workers.clamp(1, jobs.len().max(1));
    let chunk = cfg
        .chunk
        .unwrap_or_else(|| (jobs.len() / (workers * 8)).max(1));
    let started = std::time::Instant::now();

    let digests: Vec<JobDigest> = if workers == 1 {
        let mut session: Option<(usize, Workbench)> = None;
        let mut bufs = SimBuffers::new();
        jobs.iter()
            .map(|j| run_job(j, oracle, &mut session, &mut bufs))
            .collect()
    } else {
        let cursor = AtomicUsize::new(0);
        let mut partials: Vec<Vec<JobDigest>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        let mut local: Vec<JobDigest> = Vec::new();
                        let mut session: Option<(usize, Workbench)> = None;
                        let mut bufs = SimBuffers::new();
                        loop {
                            let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                            if start >= jobs.len() {
                                break;
                            }
                            let end = (start + chunk).min(jobs.len());
                            for job in &jobs[start..end] {
                                local.push(run_job(job, oracle, &mut session, &mut bufs));
                            }
                        }
                        local
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign worker panicked"))
                .collect()
        });
        // Merge back into grid order: chunks are disjoint, so a sort by
        // job index is a pure permutation — the result is independent of
        // scheduling.
        let mut merged: Vec<JobDigest> = partials.drain(..).flatten().collect();
        merged.sort_unstable_by_key(|d| d.index);
        merged
    };
    debug_assert!(digests.iter().enumerate().all(|(i, d)| d.index == i));

    let wall = started.elapsed().as_secs_f64();
    Ok(
        CampaignReport::from_digests(spec.name.clone(), digests, wall, workers)
            .with_lint(crate::lint::lint_campaign(spec)),
    )
}

/// Execute one job and reduce it to a digest. `session` carries the
/// worker's memoized [`Workbench`] keyed by the job's placement
/// ordinal, so each placement is analysed (or its allocator rejection
/// diagnosed) once, not once per job.
fn run_job(
    job: &JobSpec,
    oracle: bool,
    session: &mut Option<(usize, Workbench)>,
    bufs: &mut SimBuffers,
) -> JobDigest {
    let fresh = !matches!(session, Some((ordinal, _)) if *ordinal == job.set_ordinal);
    if fresh {
        *session = Some((job.set_ordinal, Workbench::new(job.system_spec())));
    }
    let bench = &mut session.as_mut().expect("session just installed").1;
    digest_job_buffered(job, oracle, bench, bufs)
}

/// Run one job against a [`Workbench`] over its
/// [`system_spec`](JobSpec::system_spec) and reduce it to a digest —
/// the single job path behind the campaign engine (and the
/// lowered-to-queries cross-check tests).
pub fn digest_job(job: &JobSpec, oracle: bool, bench: &mut Workbench) -> JobDigest {
    digest_job_buffered(job, oracle, bench, &mut SimBuffers::new())
}

/// [`digest_job`], reusing the worker's simulation buffers: the trace
/// is digested then recycled, so a chunk of jobs allocates its trace,
/// wake-queue and outbox storage once instead of once per job.
pub fn digest_job_buffered(
    job: &JobSpec,
    oracle: bool,
    bench: &mut Workbench,
    bufs: &mut SimBuffers,
) -> JobDigest {
    match run_checked(job, oracle, bench, bufs) {
        Ok((run, digest)) => {
            // The trace served its purpose; hand the allocation back.
            run.recycle(bufs);
            digest
        }
        Err(RunError::Unplaceable(diag)) => empty_digest(job, JobStatus::Unplaceable(diag)),
        Err(RunError::Harness(HarnessError::InfeasibleBase)) => {
            empty_digest(job, JobStatus::InfeasibleBase)
        }
        Err(RunError::Harness(HarnessError::Analysis(e))) => {
            empty_digest(job, JobStatus::AnalysisError(e.to_string()))
        }
    }
}

/// The one job body: run `job` on `bench`, check every part of the run
/// against the differential oracle when `oracle` is set, and fold the
/// parts into the job's digest. The run comes back alongside, for the
/// caller to render or recycle.
fn run_checked(
    job: &JobSpec,
    oracle: bool,
    bench: &mut Workbench,
    bufs: &mut SimBuffers,
) -> Result<(PlacedRun, JobDigest), RunError> {
    let run = bench.simulate(&job.scenario(), bufs, None)?;
    let mut digest = empty_digest(job, JobStatus::Ran);
    digest.trace_hash = run.trace_hash();
    digest.failed_tasks = run.failed_tasks();
    digest.collateral = run.collateral_failures();
    let mut verdicts = Vec::new();
    // The run's parts and the workbench's parts share one order.
    for (outcome, part) in run.parts().zip(bench.parts_mut()) {
        let part_job = part_job(job, &part);
        if oracle {
            verdicts.push(oracle::check_part(&part_job, outcome, part.session));
        }
        tally(&mut digest, &part_job, outcome);
    }
    digest.oracle = merge_oracle(verdicts);
    Ok((run, digest))
}

/// The job one part runs: `job` itself, or — for a core's slice — the
/// core's subset, fault slice and label as a standalone 1-core job, so
/// a violation minimizes to a single-core repro spec.
fn part_job<'j>(job: &'j JobSpec, part: &Part<'_>) -> Cow<'j, JobSpec> {
    if !part.is_slice() {
        return Cow::Borrowed(job);
    }
    Cow::Owned(JobSpec {
        set_label: part.label(&job.set_label).into_owned(),
        set: Arc::new(part.session.task_set().clone()),
        cores: 1,
        placement: rtft_core::query::Placement::Partitioned,
        faults: part.faults(&job.faults).into_owned(),
        ..job.clone()
    })
}

/// Fold per-core oracle outcomes into the job's verdict: any violation
/// condemns the job; otherwise the weakest core rules (a skipped core
/// means the whole job is uncertified).
fn merge_oracle(outcomes: Vec<OracleOutcome>) -> OracleOutcome {
    let mut checked = 0;
    let mut skip: Option<OracleSkip> = None;
    let mut violations = Vec::new();
    let mut any = false;
    for outcome in outcomes {
        match outcome {
            OracleOutcome::NotRun => {}
            OracleOutcome::Clean { checked: c } => {
                any = true;
                checked += c;
            }
            OracleOutcome::Skipped(s) => {
                any = true;
                skip.get_or_insert(s);
            }
            OracleOutcome::Violated(v) => {
                any = true;
                violations.extend(v);
            }
        }
    }
    if !violations.is_empty() {
        OracleOutcome::Violated(violations)
    } else if let Some(s) = skip {
        OracleOutcome::Skipped(s)
    } else if any {
        OracleOutcome::Clean { checked }
    } else {
        OracleOutcome::NotRun
    }
}

/// Add one part's counts and detector latencies to `digest`. `part` is
/// the job slice the outcome ran: its ranks index the outcome's
/// thresholds.
fn tally(digest: &mut JobDigest, part: &JobSpec, outcome: &ScenarioOutcome) {
    for (_, s) in outcome.stats.summaries() {
        digest.released += s.released;
        digest.completed += s.completed;
        digest.missed += s.missed;
        digest.stopped += s.stopped;
        digest.faults_flagged += s.faults;
    }
    digest.detector_fires += outcome
        .log
        .count(|e| matches!(e.kind, EventKind::DetectorRelease { .. }));
    // Detection latency: how far past `release + threshold` the flag
    // landed (the timer-quantization delay the paper measures). The
    // release comes from the stats' job records, a binary search, not a
    // scan of the log per flagged fault.
    if !outcome.analysis.thresholds.is_empty() {
        for (task, flagged_job, at) in outcome.log.faults() {
            let (Some(rank), Some(record)) =
                (part.set.rank_of(task), outcome.stats.job(task, flagged_job))
            else {
                continue;
            };
            let lag = at - (record.release + outcome.analysis.thresholds[rank]);
            if !lag.is_negative() {
                digest.detector_latencies.push(lag);
            }
        }
    }
}

fn empty_digest(job: &JobSpec, status: JobStatus) -> JobDigest {
    JobDigest {
        index: job.index,
        set_label: job.set_label.clone(),
        policy: job.policy.label(),
        cores: job.cores,
        alloc: job.alloc.label(),
        fault_label: job.fault_label.clone(),
        treatment: job.treatment.name(),
        platform: job.platform.label(),
        status,
        trace_hash: 0,
        released: 0,
        completed: 0,
        missed: 0,
        stopped: 0,
        faults_flagged: 0,
        detector_fires: 0,
        failed_tasks: Vec::new(),
        collateral: Vec::new(),
        detector_latencies: Vec::new(),
        oracle: OracleOutcome::NotRun,
    }
}

/// A lone job run by [`run_single`].
pub struct SingleRun {
    /// The workbench the job was placed on (its spec and partition).
    pub bench: Workbench,
    /// The run itself.
    pub run: PlacedRun,
    /// The differential oracle's verdict over every part of the run.
    pub oracle: OracleOutcome,
}

/// Run one job through the campaign job body on a fresh workbench —
/// the entry `rtft run` and the tests delegate to, so a lone run and a
/// campaign job are the same code on every placement.
///
/// # Errors
/// [`RunError`] when the job cannot run: no placement (the allocator's
/// diagnostics), an infeasible base system or a failed analysis.
pub fn run_single(job: &JobSpec, oracle: bool) -> Result<SingleRun, RunError> {
    let mut bench = Workbench::new(job.system_spec());
    let (run, digest) = run_checked(job, oracle, &mut bench, &mut SimBuffers::new())?;
    Ok(SingleRun {
        bench,
        run,
        oracle: digest.oracle,
    })
}

/// Re-run one job deterministically and capture its trace as an
/// importable [`TraceCapture`] — flat for uniprocessor jobs, core-tagged
/// merged for partitioned and global multicore — with the provenance
/// header (`spec-hash`, policy, placement, cores, treatment, content
/// hash) that `rtft replay` verifies. Simulation is deterministic, so
/// capturing the same job twice yields byte-identical renderings.
///
/// # Errors
/// A message when the job cannot run (infeasible base system, no
/// partition).
pub fn capture_job(job: &JobSpec) -> Result<TraceCapture, String> {
    capture_job_streamed(job, &mut Workbench::new(job.system_spec()), None)
}

/// [`capture_job`] on a caller-held workbench over the job's
/// [`system_spec`](JobSpec::system_spec), additionally feeding every
/// recorded event to `sink` (when given) as the run produces it — the
/// live path behind `rtft serve`'s streaming trace route. Execution
/// events arrive tagged with their core (`None` on one core and for
/// global platform-level events); the capture is byte-identical to
/// [`capture_job`]'s.
///
/// # Errors
/// As [`capture_job`].
pub fn capture_job_streamed(
    job: &JobSpec,
    bench: &mut Workbench,
    sink: Option<&mut dyn TraceSink>,
) -> Result<TraceCapture, String> {
    let run = bench
        .simulate(&job.scenario(), &mut SimBuffers::new(), sink)
        .map_err(|e| e.to_string())?;
    Ok(run.capture(bench.spec(), treatment_keyword(job.treatment)))
}

/// Re-run the grid job an oracle violation names and capture its trace
/// — campaign artifact writers save this next to the repro spec, so the
/// divergence replays (`rtft replay`) without re-running the grid.
///
/// # Errors
/// A message when the grid cannot be expanded, the violation names a
/// job outside it, or the job cannot run.
pub fn capture_violation(
    spec: &CampaignSpec,
    v: &crate::oracle::OracleViolation,
) -> Result<TraceCapture, String> {
    let jobs = spec.expand().map_err(|e| e.to_string())?;
    if v.job_index >= jobs.len() {
        return Err(format!(
            "violation names job {} of a {}-job grid",
            v.job_index,
            jobs.len()
        ));
    }
    // Capture through the violation's repro artifact, not the grid job:
    // the artifact renames the system (`campaign repro-jobN`, inline
    // tasks), and the saved trace sits next to that spec — its header
    // must carry the hash `rtft replay` will recompute from it. The
    // events are identical either way (same system, deterministic sim).
    let repro = crate::parse_spec(&v.repro).map_err(|e| format!("repro artifact: {e}"))?;
    let rejobs = repro.expand().map_err(|e| format!("repro artifact: {e}"))?;
    match rejobs.as_slice() {
        [job] => capture_job(job),
        other => Err(format!(
            "repro artifact for job {} expands to {} jobs, not 1",
            v.job_index,
            other.len()
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec;

    const PAPER_GRID: &str = "\
campaign engine-smoke
horizon 1300ms
taskgen paper
faults paper
treatment all
platform jrate
";

    #[test]
    fn sequential_run_reproduces_the_paper_lineup() {
        let spec = parse_spec(PAPER_GRID).unwrap();
        let report = run_campaign(&spec, &RunConfig::sequential()).unwrap();
        assert_eq!(report.jobs.len(), 5);
        assert_eq!(report.ran, 5);
        // Figure 3: without treatment, τ3 fails collaterally.
        assert!(!report.jobs[0].collateral.is_empty());
        // Figures 5–7: every stopping treatment confines the damage.
        for d in &report.jobs[2..] {
            assert!(d.collateral.is_empty(), "{}", d.treatment);
            assert_eq!(d.stopped, 1, "{}", d.treatment);
        }
        // The jRate quantization shows up as 1–3 ms detection latency.
        assert!(report.detector_latency.samples > 0);
        // The paper fault (40 ms > A = 11 ms) is out of allowance.
        assert_eq!(report.oracle_out_of_allowance, 5);
        assert!(report.oracle_clean());
    }

    #[test]
    fn infeasible_sets_are_reported_not_fatal() {
        let spec =
            parse_spec("task a 20 10ms 10ms 8ms\ntask b 19 10ms 10ms 8ms\ntreatment detect\n")
                .unwrap();
        let report = run_campaign(&spec, &RunConfig::sequential()).unwrap();
        assert_eq!(report.infeasible, 1);
        assert_eq!(report.ran, 0);
    }

    #[test]
    fn run_single_matches_the_harness() {
        let spec = parse_spec(PAPER_GRID).unwrap();
        let job = &spec.expand().unwrap()[4];
        let mut single = run_single(job, true).unwrap();
        assert!(
            single.bench.uni_session_mut().is_some(),
            "a 1-core job runs on the uniprocessor session"
        );
        let outcomes: Vec<_> = single.run.parts().collect();
        assert_eq!(outcomes.len(), 1);
        let direct = rtft_ft::harness::run_scenario(&job.scenario()).unwrap();
        assert_eq!(outcomes[0].log, direct.log);
        assert_eq!(single.run.trace_hash(), direct.log.content_hash());
        assert!(!single.oracle.was_checked(), "40 ms is out of allowance");
    }

    /// `tally` reads each flagged job's release from the stats' job
    /// records; the log scan it replaced must give the same latencies,
    /// part by part, on every placement of a fault-heavy grid.
    #[test]
    fn detector_latencies_match_a_release_scan_of_the_log() {
        let spec = parse_spec(
            "campaign many-faults
horizon 1000ms
taskgen uunifast n=5 u=0.6 seeds=0..8 periods=10ms..100ms
policy fp edf npfp
cores 1 2
placement all
faults random p=0.5 mag=1ms..8ms jobs=100 seeds=0..1
treatment detect equitable system
platform jrate
",
        )
        .unwrap();
        let mut compared = 0;
        for job in spec.expand().unwrap() {
            let Ok(mut single) = run_single(&job, false) else {
                continue;
            };
            for (outcome, part) in single.run.parts().zip(single.bench.parts_mut()) {
                let part_job = part_job(&job, &part);
                let mut digest = empty_digest(&job, JobStatus::Ran);
                tally(&mut digest, &part_job, outcome);
                let mut scanned = Vec::new();
                if !outcome.analysis.thresholds.is_empty() {
                    for (task, flagged, at) in outcome.log.faults() {
                        let (Some(rank), Some(release)) = (
                            part_job.set.rank_of(task),
                            outcome.log.job_release(task, flagged),
                        ) else {
                            continue;
                        };
                        let lag = at - (release + outcome.analysis.thresholds[rank]);
                        if !lag.is_negative() {
                            scanned.push(lag);
                        }
                    }
                }
                assert_eq!(digest.detector_latencies, scanned, "job {}", job.index);
                compared += scanned.len();
            }
        }
        assert!(compared > 5000, "only {compared} latencies compared");
    }

    #[test]
    fn workers_beyond_jobs_are_clamped() {
        let spec = parse_spec("horizon 500ms\ntaskgen paper\ntreatment detect\n").unwrap();
        let report = run_campaign(&spec, &RunConfig::default().with_workers(64)).unwrap();
        assert_eq!(report.jobs.len(), 1);
        assert_eq!(report.workers, 1);
    }

    #[test]
    fn single_core_jobs_keep_the_uniprocessor_traces() {
        // A `cores 1` + `alloc` spec runs the very same engine path: the
        // per-job trace hashes are bit-identical to a spec without the
        // multicore axes.
        let plain = parse_spec(PAPER_GRID).unwrap();
        let tagged = parse_spec(&format!("{PAPER_GRID}cores 1\nalloc wfd\n")).unwrap();
        let a = run_campaign(&plain, &RunConfig::sequential()).unwrap();
        let b = run_campaign(&tagged, &RunConfig::sequential()).unwrap();
        let hashes = |r: &CampaignReport| r.jobs.iter().map(|d| d.trace_hash).collect::<Vec<_>>();
        assert_eq!(hashes(&a), hashes(&b));
        assert_eq!(b.jobs[0].cores, 1);
        assert_eq!(b.jobs[0].alloc, "wfd");
    }

    /// Two heavy tasks that no single core admits: unplaceable at
    /// `cores 1`, clean at `cores 2` under every allocator.
    const HEAVY_GRID: &str = "\
campaign heavy
horizon 500ms
task a 9 100ms 100ms 60ms
task b 8 100ms 100ms 60ms
cores 1 2
alloc all
treatment detect
platform exact
";

    #[test]
    fn multicore_jobs_partition_and_run() {
        let spec = parse_spec(HEAVY_GRID).unwrap();
        let report = run_campaign(&spec, &RunConfig::sequential()).unwrap();
        assert_eq!(report.jobs.len(), 6);
        // cores=1 takes the plain uniprocessor path: the admission gate
        // (not the allocator) rejects, exactly as before the multicore
        // axes existed.
        assert_eq!(report.infeasible, 3);
        for d in &report.jobs[..3] {
            assert_eq!(d.status, JobStatus::InfeasibleBase, "{}", d.alloc);
        }
        // cores=2: every allocator places one task per core and both
        // complete all five jobs of the 500 ms horizon.
        assert_eq!(report.ran, 3);
        for d in &report.jobs[3..] {
            assert_eq!(d.status, JobStatus::Ran, "{}", d.alloc);
            assert_eq!(d.cores, 2);
            // Six releases per task (t = 0..=500 inclusive of the
            // horizon instant); the last pair cannot finish in time.
            assert_eq!(d.released, 12);
            assert_eq!(d.completed, 10);
            assert_eq!(d.missed, 0);
            assert!(d.oracle.was_checked(), "{:?}", d.oracle);
        }
        assert!(report.oracle_clean());
    }

    /// Two light tasks the global sufficient test proves on two cores
    /// (each sees fewer than `m` interferers, so its bound is its
    /// cost), swept over both placements.
    const PLACEMENT_GRID: &str = "\
campaign placement
horizon 500ms
task a 9 100ms 100ms 30ms
task b 8 100ms 100ms 30ms
cores 2
placement all
treatment detect
platform exact
";

    #[test]
    fn global_jobs_run_and_certify_against_the_global_oracle() {
        let spec = parse_spec(PLACEMENT_GRID).unwrap();
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0].placement, rtft_core::query::Placement::Partitioned);
        assert_eq!(jobs[1].placement, rtft_core::query::Placement::Global);
        // Distinct placements are distinct analysis states: the worker
        // must not reuse the partitioned workbench for the global job.
        assert_ne!(jobs[0].set_ordinal, jobs[1].set_ordinal);
        let report = run_campaign(&spec, &RunConfig::sequential()).unwrap();
        assert_eq!(report.ran, 2);
        for d in &report.jobs {
            assert_eq!(d.status, JobStatus::Ran);
            assert_eq!(d.released, 12);
            assert_eq!(d.missed, 0);
            assert!(d.oracle.was_checked(), "{:?}", d.oracle);
        }
        assert!(report.oracle_clean());
        // Both cells produced a real (merged, core-tagged) trace hash.
        assert!(report.jobs.iter().all(|d| d.trace_hash != 0));
    }

    #[test]
    fn global_jobs_are_deterministic_across_worker_counts() {
        let spec = parse_spec(PLACEMENT_GRID).unwrap();
        let a = run_campaign(&spec, &RunConfig::sequential()).unwrap();
        let b = run_campaign(&spec, &RunConfig::default().with_workers(4)).unwrap();
        let hashes = |r: &CampaignReport| r.jobs.iter().map(|d| d.trace_hash).collect::<Vec<_>>();
        assert_eq!(hashes(&a), hashes(&b));
    }

    #[test]
    fn run_single_global_matches_the_campaign_path() {
        let spec = parse_spec(PLACEMENT_GRID).unwrap();
        let job = &spec.expand().unwrap()[1]; // the global cell
        let mut single = run_single(job, true).unwrap();
        assert!(
            single.bench.global_mut().is_some(),
            "a global cell runs on the global session"
        );
        assert_eq!(single.bench.spec().cores, 2);
        assert_eq!(single.run.parts().count(), 1);
        assert!(single.oracle.was_checked());
        assert!(single.oracle.violations().is_empty());
        let report = run_campaign(&spec, &RunConfig::sequential()).unwrap();
        assert_eq!(report.jobs[1].trace_hash, single.run.trace_hash());
    }

    #[test]
    fn unproven_global_jobs_surface_as_infeasible() {
        // Two heavy tasks plus a light third: the allocator places them
        // (a|c on one core, b on the other) and the partitioned cell
        // runs, but task c's global BC fixed point diverges — two 60 ms
        // interferers share its whole window — so the global cell is
        // unproven and refuses to run. Sufficient-only pessimism,
        // surfaced exactly like an infeasible uniprocessor base.
        let spec = parse_spec(
            "horizon 500ms\ntask a 9 100ms 100ms 60ms\ntask b 8 100ms 100ms 60ms\n\
             task c 7 100ms 100ms 25ms\ncores 2\nplacement all\ntreatment detect\nplatform exact\n",
        )
        .unwrap();
        let report = run_campaign(&spec, &RunConfig::sequential()).unwrap();
        assert_eq!(report.jobs.len(), 2);
        assert_eq!(report.jobs[0].status, JobStatus::Ran);
        assert_eq!(report.jobs[1].status, JobStatus::InfeasibleBase);
    }

    #[test]
    fn unplaceable_multicore_jobs_carry_allocator_diagnostics() {
        // Three tasks of U = 0.6 need three cores; on two the allocator
        // itself rejects and the digest records its diagnostics.
        let spec = parse_spec(
            "horizon 500ms\ntask a 9 100ms 100ms 60ms\ntask b 8 100ms 100ms 60ms\n\
             task c 7 100ms 100ms 60ms\ncores 2\ntreatment detect\n",
        )
        .unwrap();
        let report = run_campaign(&spec, &RunConfig::sequential()).unwrap();
        assert_eq!(report.unplaceable, 1);
        assert!(
            matches!(&report.jobs[0].status,
                     JobStatus::Unplaceable(m) if m.contains("feasibility probe")),
            "{:?}",
            report.jobs[0].status
        );
        assert!(report.render().contains("1 unplaceable"));
    }

    #[test]
    fn run_single_partitioned_matches_the_campaign_path() {
        let spec = parse_spec(HEAVY_GRID).unwrap();
        let job = &spec.expand().unwrap()[3]; // cores=2, ffd
        let mut single = run_single(job, true).unwrap();
        assert_eq!(single.bench.partition().unwrap().cores(), 2);
        assert_eq!(single.run.parts().count(), 2, "one part per occupied core");
        assert!(single.oracle.was_checked());
        assert!(single.oracle.violations().is_empty());
        let report = run_campaign(&spec, &RunConfig::sequential()).unwrap();
        assert_eq!(report.jobs[3].trace_hash, single.run.trace_hash());
    }

    #[test]
    fn unplaceable_sets_surface_the_allocator_diagnostics() {
        // Three U = 0.6 tasks on two cores: the allocator rejects, and a
        // lone run reports its own text.
        let spec = parse_spec(
            "horizon 500ms\ntask a 9 100ms 100ms 60ms\ntask b 8 100ms 100ms 60ms\n\
             task c 7 100ms 100ms 60ms\ncores 2\ntreatment detect\n",
        )
        .unwrap();
        let err = match run_single(&spec.expand().unwrap()[0], false) {
            Err(RunError::Unplaceable(e)) => e,
            Err(other) => panic!("expected an allocation error, got {other:?}"),
            Ok(_) => panic!("expected an allocation error, got a run"),
        };
        assert!(err.contains("cannot place"), "{err}");
        // The capture path surfaces the same text.
        let job = &spec.expand().unwrap()[0];
        assert_eq!(capture_job(job).unwrap_err(), err);
    }
}
