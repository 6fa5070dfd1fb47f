//! The parallel campaign executor.
//!
//! Jobs are claimed from the expanded grid through a shared atomic
//! cursor in fixed-size chunks (no locks on the hot path), executed on
//! `std::thread`-scoped workers, digested immediately (the trace is
//! dropped after reduction), and merged back **in grid order** — so the
//! report is bit-identical no matter how many workers ran or how the
//! chunks interleaved.
//!
//! Each worker keeps the analysis session of the placement it is
//! currently inside — a uniprocessor [`Analyzer`] for 1-core jobs, a
//! [`PartitionedAnalyzer`] (allocation included) for multicore ones; the
//! expansion guarantees the jobs of one `(set, policy, cores, alloc)`
//! tuple are contiguous, so a chunked scan re-analyses (and
//! re-partitions) each placement at most once per worker that touches
//! it.

use crate::oracle::{self, OracleOutcome, OracleSkip};
use crate::report::{CampaignReport, JobDigest, JobStatus};
use crate::spec::{CampaignSpec, JobSpec, SpecError};
use rtft_core::analyzer::Analyzer;
use rtft_ft::harness::{run_scenario_buffered, run_scenario_with, HarnessError, ScenarioOutcome};
use rtft_part::alloc::{allocate, AllocPolicy};
use rtft_part::analyzer::PartitionedAnalyzer;
use rtft_part::multicore::{
    run_partitioned, run_partitioned_buffered, MulticoreError, MulticoreOutcome,
};
use rtft_part::workbench::Workbench;
use rtft_sim::engine::SimBuffers;
use rtft_trace::merge::fold_core_hashes;
use rtft_trace::EventKind;
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
/// ordinal: the workbench owns exactly the analysis state the old
/// per-worker session enum did — a plain uniprocessor session for
/// 1-core jobs (the pre-multicore pipeline, bit for bit), per-core
/// sessions over the allocator's partition otherwise, or the
/// allocator's rejection diagnosed once, not once per job.
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
    if let Some(diag) = bench.unplaceable() {
        let status = JobStatus::Unplaceable(diag.to_string());
        return empty_digest(job, status);
    }
    if let Some(analyzer) = bench.uni_session_mut() {
        run_uni_job(job, oracle, analyzer, bufs)
    } else if let Some(session) = bench.global_mut() {
        run_global_job(job, oracle, session, bufs)
    } else {
        let sessions = bench.partitioned_mut().expect("multicore backend");
        run_multicore_job(job, oracle, sessions, bufs)
    }
}

/// The global job path: one migrating engine over the whole set, the
/// digest reduced from the merged core-tagged trace. Only systems the
/// global sufficient test proves ever run (unproven sets surface as
/// [`JobStatus::InfeasibleBase`]), so the differential oracle's bound
/// is unconditionally certified for every job that reaches it.
fn run_global_job(
    job: &JobSpec,
    oracle: bool,
    session: &mut rtft_global::GlobalAnalyzer,
    bufs: &mut SimBuffers,
) -> JobDigest {
    let scenario = job.scenario();
    match rtft_global::run_global_buffered(&scenario, session, bufs) {
        Ok(global) => {
            let oracle_outcome = if oracle {
                oracle::check_global(job, &global.outcome, session)
            } else {
                OracleOutcome::NotRun
            };
            // The flat log hash is worker-count-stable already, but the
            // merged core-tagged hash is what a partitioned run of the
            // same cell reports — keep the column comparable.
            let digest = digest_outcome(job, &global.outcome, oracle_outcome, global.merged_hash);
            bufs.recycle_log(global.outcome.log);
            digest
        }
        Err(HarnessError::InfeasibleBase) => empty_digest(job, JobStatus::InfeasibleBase),
        Err(HarnessError::Analysis(e)) => {
            empty_digest(job, JobStatus::AnalysisError(e.to_string()))
        }
    }
}

/// The uniprocessor job path — unchanged from the single-core engine, so
/// `cores = 1` traces stay bit-identical to the pre-multicore pipeline.
fn run_uni_job(
    job: &JobSpec,
    oracle: bool,
    analyzer: &mut Analyzer,
    bufs: &mut SimBuffers,
) -> JobDigest {
    let scenario = job.scenario();
    match run_scenario_buffered(&scenario, analyzer, bufs) {
        Ok(outcome) => {
            let oracle_outcome = if oracle {
                oracle::check(job, &outcome, analyzer)
            } else {
                OracleOutcome::NotRun
            };
            let trace_hash = outcome.log.content_hash();
            let digest = digest_outcome(job, &outcome, oracle_outcome, trace_hash);
            // The trace served its purpose; hand the allocation back.
            bufs.recycle_log(outcome.log);
            digest
        }
        Err(HarnessError::InfeasibleBase) => empty_digest(job, JobStatus::InfeasibleBase),
        Err(HarnessError::Analysis(e)) => {
            empty_digest(job, JobStatus::AnalysisError(e.to_string()))
        }
    }
}

/// The `cores`-restriction of a job: the core's subset and fault slice
/// as a standalone 1-core job spec. The detectors, the digest reduction
/// and the differential oracle then apply to the core *unchanged* — and
/// an oracle violation minimizes to a single-core repro spec.
fn core_job(job: &JobSpec, sessions: &PartitionedAnalyzer, core: usize) -> JobSpec {
    let partition = sessions.partition();
    let set = partition.core_set(core).expect("occupied core").clone();
    let faults = partition.core_faults(&job.faults, core);
    JobSpec {
        index: job.index,
        set_ordinal: job.set_ordinal,
        set_label: rtft_part::multicore::core_label(&job.set_label, core),
        set: Arc::new(set),
        policy: job.policy,
        cores: 1,
        placement: rtft_core::query::Placement::Partitioned,
        alloc: job.alloc,
        fault_label: job.fault_label.clone(),
        faults,
        treatment: job.treatment,
        platform: job.platform,
        horizon: job.horizon,
    }
}

/// Run the differential oracle on one core's slice of a job (`cjob`
/// from [`core_job`]) against the core's memoized session — the single
/// per-core check behind both the campaign path and
/// [`run_single_partitioned`].
fn check_core_oracle(
    cjob: &JobSpec,
    sessions: &mut PartitionedAnalyzer,
    run: &rtft_part::multicore::CoreOutcome,
) -> OracleOutcome {
    let session = sessions
        .core_session_mut(run.core)
        .expect("occupied core has a session");
    oracle::check(cjob, &run.outcome, session)
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

/// The multicore job path: one engine per occupied core over the
/// memoized partition, each core digested by the unchanged single-core
/// reduction, the digests folded into one job record whose trace hash is
/// the merged core-tagged hash.
fn run_multicore_job(
    job: &JobSpec,
    oracle: bool,
    sessions: &mut PartitionedAnalyzer,
    bufs: &mut SimBuffers,
) -> JobDigest {
    let scenario = job.scenario();
    let multi: MulticoreOutcome = match run_partitioned_buffered(&scenario, sessions, bufs) {
        Ok(m) => m,
        Err(HarnessError::InfeasibleBase) => return empty_digest(job, JobStatus::InfeasibleBase),
        Err(HarnessError::Analysis(e)) => {
            return empty_digest(job, JobStatus::AnalysisError(e.to_string()))
        }
    };
    // Each core's log is hashed once: the hash goes into the core's
    // digest and is folded into the merged core-tagged hash.
    let core_hashes: Vec<(usize, u64)> = multi
        .cores
        .iter()
        .map(|run| (run.core, run.outcome.log.content_hash()))
        .collect();
    let mut digest = empty_digest(job, JobStatus::Ran);
    digest.trace_hash = fold_core_hashes(core_hashes.iter().copied());
    let mut oracle_outcomes = Vec::with_capacity(multi.cores.len());
    for (run, &(_, core_hash)) in multi.cores.iter().zip(&core_hashes) {
        let cjob = core_job(job, sessions, run.core);
        let core_oracle = if oracle {
            check_core_oracle(&cjob, sessions, run)
        } else {
            OracleOutcome::NotRun
        };
        let part = digest_outcome(&cjob, &run.outcome, core_oracle, core_hash);
        digest.released += part.released;
        digest.completed += part.completed;
        digest.missed += part.missed;
        digest.stopped += part.stopped;
        digest.faults_flagged += part.faults_flagged;
        digest.detector_fires += part.detector_fires;
        digest.failed_tasks.extend(part.failed_tasks);
        digest.collateral.extend(part.collateral);
        digest.detector_latencies.extend(part.detector_latencies);
        oracle_outcomes.push(part.oracle);
    }
    digest.failed_tasks.sort_unstable();
    digest.collateral.sort_unstable();
    digest.oracle = merge_oracle(oracle_outcomes);
    // Recycle the largest core trace for the next job.
    if let Some(log) = multi
        .cores
        .into_iter()
        .map(|c| c.outcome.log)
        .max_by_key(rtft_trace::TraceLog::len)
    {
        bufs.recycle_log(log);
    }
    digest
}

/// Reduce one run to its digest. `trace_hash` comes from the caller,
/// which picks the hash domain (flat or merged core-tagged) and hashes
/// each event exactly once.
fn digest_outcome(
    job: &JobSpec,
    outcome: &ScenarioOutcome,
    oracle: OracleOutcome,
    trace_hash: u64,
) -> JobDigest {
    let mut released = 0;
    let mut completed = 0;
    let mut missed = 0;
    let mut stopped = 0;
    let mut faults_flagged = 0;
    for (_, s) in outcome.stats.summaries() {
        released += s.released;
        completed += s.completed;
        missed += s.missed;
        stopped += s.stopped;
        faults_flagged += s.faults;
    }
    let detector_fires = outcome
        .log
        .count(|e| matches!(e.kind, EventKind::DetectorRelease { .. }));
    // Detection latency: how far past `release + threshold` the flag
    // landed (the timer-quantization delay the paper measures).
    let mut detector_latencies = Vec::new();
    if !outcome.analysis.thresholds.is_empty() {
        for (task, flagged_job, at) in outcome.log.faults() {
            let (Some(rank), Some(release)) = (
                job.set.rank_of(task),
                outcome.log.job_release(task, flagged_job),
            ) else {
                continue;
            };
            let lag = at - (release + outcome.analysis.thresholds[rank]);
            if !lag.is_negative() {
                detector_latencies.push(lag);
            }
        }
    }
    JobDigest {
        index: job.index,
        set_label: job.set_label.clone(),
        policy: job.policy.label(),
        cores: job.cores,
        alloc: job.alloc.label(),
        fault_label: job.fault_label.clone(),
        treatment: job.treatment.name(),
        platform: job.platform.label(),
        status: JobStatus::Ran,
        trace_hash,
        released,
        completed,
        missed,
        stopped,
        faults_flagged,
        detector_fires,
        failed_tasks: outcome.verdict.failed_tasks(),
        collateral: outcome.collateral_failures(),
        detector_latencies,
        oracle,
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

/// Run one scenario through the campaign job path — the single-scenario
/// entry the CLI's `run` command and the harness tests delegate to, so a
/// lone run and a campaign job are the same code.
pub fn run_single(
    sc: &rtft_ft::harness::Scenario,
    oracle: bool,
) -> Result<(ScenarioOutcome, OracleOutcome), HarnessError> {
    let job = single_job_spec(sc, 1, AllocPolicy::FirstFitDecreasing);
    let mut bench = Workbench::new(job.system_spec());
    let analyzer = bench.uni_session_mut().expect("1-core spec");
    let outcome = run_scenario_with(sc, analyzer)?;
    let oracle_outcome = if oracle {
        oracle::check(&job, &outcome, analyzer)
    } else {
        OracleOutcome::NotRun
    };
    Ok((outcome, oracle_outcome))
}

/// The one-job spec a lone scenario corresponds to in the grid.
fn single_job_spec(sc: &rtft_ft::harness::Scenario, cores: usize, alloc: AllocPolicy) -> JobSpec {
    JobSpec {
        index: 0,
        set_ordinal: 0,
        set_label: sc.name.clone(),
        set: Arc::new(sc.set.clone()),
        policy: sc.policy,
        cores,
        placement: rtft_core::query::Placement::Partitioned,
        alloc,
        fault_label: "explicit".to_string(),
        faults: sc.faults.clone(),
        treatment: sc.treatment,
        platform: crate::spec::PlatformSpec {
            timer: sc.timer_model,
            stop: sc.stop_model,
            overheads: sc.overheads,
        },
        horizon: sc.horizon,
    }
}

/// Run one scenario partitioned over `cores` by `alloc` — the multicore
/// counterpart of [`run_single`], used by `rtft run --cores`. Returns
/// the per-core outcomes, the merged per-core oracle verdict, and the
/// partition the run used (so callers never re-derive the placement).
///
/// # Errors
/// [`MulticoreError`] when the allocator finds no placement or a core
/// fails its admission / treatment analysis.
pub fn run_single_partitioned(
    sc: &rtft_ft::harness::Scenario,
    cores: usize,
    alloc: AllocPolicy,
    oracle: bool,
) -> Result<(MulticoreOutcome, OracleOutcome, rtft_part::Partition), MulticoreError> {
    let partition = allocate(&sc.set, cores, sc.policy, alloc)?;
    let mut sessions = PartitionedAnalyzer::new(partition.clone(), sc.policy);
    let multi = run_partitioned(sc, &mut sessions)?;
    let job = single_job_spec(sc, cores, alloc);
    let mut outcomes = Vec::with_capacity(multi.cores.len());
    if oracle {
        for run in &multi.cores {
            let cjob = core_job(&job, &sessions, run.core);
            outcomes.push(check_core_oracle(&cjob, &mut sessions, run));
        }
    }
    Ok((multi, merge_oracle(outcomes), partition))
}

/// Run one scenario globally over `cores` migrating cores — the global
/// counterpart of [`run_single_partitioned`], used by
/// `rtft run --placement global`.
///
/// # Errors
/// [`HarnessError::InfeasibleBase`] when the global sufficient test
/// cannot prove the base system (unproven sets never run — see
/// [`rtft_global::run_global_with`]).
pub fn run_single_global(
    sc: &rtft_ft::harness::Scenario,
    cores: usize,
    oracle: bool,
) -> Result<(rtft_global::GlobalOutcome, OracleOutcome), HarnessError> {
    let mut session = rtft_global::GlobalAnalyzer::new(sc.set.clone(), cores, sc.policy);
    let global = rtft_global::run_global_with(sc, &mut session)?;
    let mut job = single_job_spec(sc, cores, AllocPolicy::FirstFitDecreasing);
    job.placement = rtft_core::query::Placement::Global;
    let oracle_outcome = if oracle {
        oracle::check_global(&job, &global.outcome, &mut session)
    } else {
        OracleOutcome::NotRun
    };
    Ok((global, oracle_outcome))
}

/// Re-run one job deterministically and capture its trace as an
/// importable [`rtft_trace::TraceCapture`] — flat for uniprocessor
/// jobs, core-tagged merged for partitioned and global multicore — with
/// the provenance header (`spec-hash`, policy, placement, cores,
/// treatment, content hash) that `rtft replay` verifies. Simulation is
/// deterministic, so capturing the same job twice yields byte-identical
/// renderings.
///
/// # Errors
/// A message when the job cannot run (infeasible base system, no
/// partition).
pub fn capture_job(job: &JobSpec) -> Result<rtft_trace::TraceCapture, String> {
    use rtft_trace::{TraceCapture, TraceLog};
    let sc = job.scenario();
    let hash = rtft_core::query::spec_hash(&job.system_spec());
    let policy = job.policy.label();
    let kw = crate::spec::treatment_keyword(job.treatment);
    if job.cores <= 1 {
        let outcome = rtft_ft::harness::run_scenario(&sc).map_err(|e| e.to_string())?;
        return Ok(TraceCapture::flat(hash, policy, kw, outcome.log));
    }
    match job.placement {
        rtft_core::query::Placement::Global => {
            let global = rtft_global::run_global(&sc, job.cores).map_err(|e| e.to_string())?;
            let refs: Vec<(usize, &TraceLog)> =
                global.core_logs.iter().map(|(c, l)| (*c, l)).collect();
            Ok(TraceCapture::merged(
                hash, policy, "global", job.cores, kw, &refs,
            ))
        }
        rtft_core::query::Placement::Partitioned => {
            let partition =
                allocate(&sc.set, job.cores, job.policy, job.alloc).map_err(|e| e.to_string())?;
            let mut sessions = PartitionedAnalyzer::new(partition, job.policy);
            let multi = run_partitioned(&sc, &mut sessions).map_err(|e| e.to_string())?;
            Ok(TraceCapture::merged(
                hash,
                policy,
                "partitioned",
                job.cores,
                kw,
                &multi.logs(),
            ))
        }
    }
}

/// [`capture_job`], additionally feeding every recorded event to `sink`
/// as the run produces it — the live path behind `rtft serve`'s
/// streaming trace route. Execution events arrive tagged with their
/// core (`None` on one core and for global platform-level events); the
/// returned capture is byte-identical to [`capture_job`]'s.
///
/// # Errors
/// As [`capture_job`].
pub fn capture_job_streamed(
    job: &JobSpec,
    sink: &mut dyn rtft_sim::sink::TraceSink,
) -> Result<rtft_trace::TraceCapture, String> {
    use rtft_trace::{TraceCapture, TraceLog};
    let sc = job.scenario();
    let hash = rtft_core::query::spec_hash(&job.system_spec());
    let policy = job.policy.label();
    let kw = crate::spec::treatment_keyword(job.treatment);
    if job.cores <= 1 {
        let mut session = rtft_core::analyzer::AnalyzerBuilder::new(&sc.set)
            .sched_policy(sc.policy)
            .build();
        let outcome = rtft_ft::harness::run_scenario_streamed(
            &sc,
            &mut session,
            &mut SimBuffers::new(),
            sink,
        )
        .map_err(|e| e.to_string())?;
        return Ok(TraceCapture::flat(hash, policy, kw, outcome.log));
    }
    match job.placement {
        rtft_core::query::Placement::Global => {
            let mut session =
                rtft_global::GlobalAnalyzer::new(sc.set.clone(), job.cores, sc.policy);
            let global =
                rtft_global::run_global_streamed(&sc, &mut session, &mut SimBuffers::new(), sink)
                    .map_err(|e| e.to_string())?;
            let refs: Vec<(usize, &TraceLog)> =
                global.core_logs.iter().map(|(c, l)| (*c, l)).collect();
            Ok(TraceCapture::merged(
                hash, policy, "global", job.cores, kw, &refs,
            ))
        }
        rtft_core::query::Placement::Partitioned => {
            let partition =
                allocate(&sc.set, job.cores, job.policy, job.alloc).map_err(|e| e.to_string())?;
            let mut sessions = PartitionedAnalyzer::new(partition, job.policy);
            let multi = rtft_part::multicore::run_partitioned_streamed(
                &sc,
                &mut sessions,
                &mut SimBuffers::new(),
                sink,
            )
            .map_err(|e| e.to_string())?;
            Ok(TraceCapture::merged(
                hash,
                policy,
                "partitioned",
                job.cores,
                kw,
                &multi.logs(),
            ))
        }
    }
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
) -> Result<rtft_trace::TraceCapture, String> {
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
        let (outcome, oracle) = run_single(&job.scenario(), true).unwrap();
        let direct = rtft_ft::harness::run_scenario(&job.scenario()).unwrap();
        assert_eq!(outcome.log, direct.log);
        assert!(!oracle.was_checked(), "40 ms is out of allowance");
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
        let (global, oracle) = run_single_global(&job.scenario(), job.cores, true).unwrap();
        assert_eq!(global.cores, 2);
        assert!(oracle.was_checked());
        assert!(oracle.violations().is_empty());
        let report = run_campaign(&spec, &RunConfig::sequential()).unwrap();
        assert_eq!(report.jobs[1].trace_hash, global.merged_hash);
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
        let (multi, oracle, partition) =
            run_single_partitioned(&job.scenario(), job.cores, job.alloc, true).unwrap();
        assert_eq!(partition.cores(), 2);
        assert_eq!(multi.cores.len(), 2);
        assert!(oracle.was_checked());
        assert!(oracle.violations().is_empty());
        let report = run_campaign(&spec, &RunConfig::sequential()).unwrap();
        assert_eq!(report.jobs[3].trace_hash, multi.merged_hash());
    }

    #[test]
    fn unplaceable_sets_surface_the_allocator_diagnostics() {
        let err = match run_single_partitioned(
            &parse_spec(HEAVY_GRID).unwrap().expand().unwrap()[0].scenario(),
            1,
            AllocPolicy::FirstFitDecreasing,
            false,
        ) {
            Err(MulticoreError::Alloc(e)) => e,
            other => panic!("expected an allocation error, got {other:?}"),
        };
        assert!(err.to_string().contains("cannot place"), "{err}");
    }
}
