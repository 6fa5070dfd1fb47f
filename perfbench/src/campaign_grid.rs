//! `campaign_grid`: `run_campaign` in process with `workers = nproc`
//! and the oracle on, over a seeded fault-injection grid with a long
//! horizon, one campaign per task set. Simulation events dominate and session analysis is memoized
//! per placement, so sim-engine and runner changes show here; the
//! expensive EDF allowance searches are left to `query_cold` (EDF runs
//! only under global placement).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use rtft_campaign::oracle::{self, OracleOutcome};
use rtft_campaign::{
    engine::digest_job_buffered, lint::lint_campaign, parse_spec, run_campaign, CampaignReport,
    CampaignSpec, JobDigest, JobSpec, JobStatus, RunConfig,
};
use rtft_core::query::Placement;
use rtft_part::workbench::Workbench;
use rtft_serve::ServerHandle;
use rtft_sim::engine::SimBuffers;

use crate::daemon::{self, TraceCase};
use crate::gen::Rng;
use crate::spans::Tracer;
use crate::stats::{ms, windowed_rate, Outcome};

/// The grid, one campaign spec per task set and policy: each of five
/// UUniFast sets at U = 0.7 and five overloaded ones at U = 1.4 under fp
/// and npfp over every placement, and under EDF on global cores only.
/// A small campaign is one operation, so a run holds enough of them for
/// a p99. Then one long campaign: a 30 s horizon over eight sets, the
/// same sets for every seed. It is one operation in 31 and about five times
/// the time of a small one, so `p99_ms` is its run and lies inside its
/// samples; with small campaigns alone the p99 lay among the few a busy
/// host had slowed, and moved with the host.
fn spec_texts(seed: u64) -> Vec<String> {
    let mut rng = Rng::stream(seed, 21);
    let mut first_seed = || rng.range(0, 1 << 20);
    let (uni, over, faults) = (first_seed(), first_seed(), first_seed());
    let axes = format!(
        "faults none\n\
         faults random p=0.05 mag=1ms..4ms jobs=16 seeds={faults}..{}\n\
         treatment detect\ntreatment equitable\ntreatment system\n\
         platform exact\nplatform jrate\n",
        faults + 1
    );
    let mut out = Vec::new();
    for k in 0..5 {
        for set in [
            format!(
                "uunifast n=6 u=0.7 seeds={0}..{1} periods=20ms..40ms",
                uni + k,
                uni + k + 1
            ),
            format!(
                "uunifast n=8 u=1.4 seeds={0}..{1} periods=20ms..40ms cap=0.6",
                over + k,
                over + k + 1
            ),
        ] {
            for grid in [
                "policy fp\ncores 1 2 4\nplacement all",
                "policy npfp\ncores 1 2 4\nplacement all",
                "policy edf\ncores 2 4\nplacement global",
            ] {
                let i = out.len();
                out.push(format!(
                    "campaign grid-{seed}-{i}\nhorizon 1500ms\noracle on\ntaskgen {set}\n\
                     {grid}\n{axes}"
                ));
            }
        }
    }
    out.push(format!(
        "campaign long-{seed}\nhorizon 30000ms\noracle on\n\
         taskgen uunifast n=8 u=0.7 seeds=0..8 periods=20ms..40ms\n\
         policy fp\ncores 1\nfaults none\ntreatment detect\ntreatment equitable\n\
         platform exact\n"
    ));
    out
}

struct Setup {
    handle: ServerHandle,
    specs: Vec<CampaignSpec>,
    /// Jobs per spec.
    jobs: Vec<usize>,
    /// Each spec run on one worker: the reports every run must match.
    reference: Vec<CampaignReport>,
    traces: Vec<TraceCase>,
}

fn setup(seed: u64) -> Setup {
    let specs: Vec<CampaignSpec> = spec_texts(seed)
        .iter()
        .map(|t| parse_spec(t).expect("generated campaign parses"))
        .collect();
    let jobs = specs
        .iter()
        .map(|s| s.expand().expect("grid expands").len())
        .collect();
    let reference = specs
        .iter()
        .map(|spec| {
            run_campaign(spec, &RunConfig::sequential().with_oracle(true)).expect("grid runs")
        })
        .collect();
    let mut rng = Rng::stream(seed, 22);
    Setup {
        handle: daemon::spawn(8),
        specs,
        jobs,
        reference,
        traces: daemon::trace_cases(&mut rng, seed, 4),
    }
}

/// Run the specs round-robin through `run_campaign` with `nproc`
/// workers for `seconds`; each campaign is one operation, and must
/// reproduce its one-worker digest with a clean oracle.
fn measure(s: &Setup, seconds: f64, out: &mut Outcome) {
    let cfg = RunConfig::default()
        .with_workers(daemon::nproc())
        .with_oracle(true);
    let start = Instant::now();
    let mut latency = Vec::new();
    let mut completed = Vec::new();
    while start.elapsed().as_secs_f64() < seconds {
        let i = latency.len() % s.specs.len();
        let t0 = Instant::now();
        let report = run_campaign(&s.specs[i], &cfg).expect("grid runs");
        let t1 = Instant::now();
        let verdict = check(&report, &s.reference[i]);
        if verdict.is_ok() {
            let at = t1.duration_since(start).as_secs_f64();
            completed.extend(std::iter::repeat_n(at, s.jobs[i]));
        }
        latency.push(if verdict.is_ok() {
            ms(t0, t1)
        } else {
            f64::INFINITY
        });
        out.check(verdict);
    }
    // Jobs per second, the median over one-second windows.
    out.metric("ops_per_s", windowed_rate(&completed, seconds), "1/s");
    out.op_latency(latency);
}

/// A campaign is right when its digest equals its one-worker digest and
/// the oracle found no violation.
fn check(report: &CampaignReport, reference: &CampaignReport) -> Result<(), String> {
    if report.digest() != reference.digest() {
        return Err(format!(
            "`{}` digest differs from its one-worker run",
            report.name
        ));
    }
    if !report.oracle_clean() {
        return Err(format!("`{}` has oracle violations", report.name));
    }
    Ok(())
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let s = crate::timed_setup(&mut out, || setup(seed), |s| s.handle.shutdown());
    // The traced run times the same loop and splits the layers offline
    // afterwards, so its end-to-end metrics carry no tracing cost.
    measure(&s, seconds, &mut out);
    let client = daemon::client(s.handle.addr());
    daemon::probe(&client, seed, &s.traces, &mut out);
    if trace {
        crate::offline_overhead(&mut out);
        let mut tr = Tracer::new(Instant::now());
        layers(&s, &mut tr, &mut out);
        crate::write_spans("campaign_grid", seed, &tr);
    }
    for report in &s.reference {
        for d in &report.jobs {
            out.count(format!("jobs.{}", status_label(&d.status)), 1);
            out.count("jobs.released", d.released as u64);
            out.count("jobs.completed", d.completed as u64);
            out.count("jobs.missed", d.missed as u64);
            out.count("jobs.stopped", d.stopped as u64);
            out.count("jobs.faults_flagged", d.faults_flagged as u64);
            out.count("jobs.detector_fires", d.detector_fires as u64);
        }
    }
    s.handle.shutdown();
    out
}

fn status_label(status: &JobStatus) -> &'static str {
    match status {
        JobStatus::Ran => "ran",
        JobStatus::InfeasibleBase => "infeasible_base",
        JobStatus::Unplaceable(_) => "unplaceable",
        JobStatus::AnalysisError(_) => "analysis_error",
    }
}

/// The traced run's layer split: one sequential pass over the grid
/// through the same public functions `run_campaign` calls, then each job
/// run again with its simulation, oracle and trace hash timed apart.
fn layers(s: &Setup, tr: &mut Tracer, out: &mut Outcome) {
    let mut sim_ns = [0.0f64; 3];
    let mut events = [0u64; 3];
    let mut split: Vec<(f64, f64, f64, f64)> = Vec::new();
    let mut statuses: BTreeMap<&str, u64> = BTreeMap::new();
    for spec in &s.specs {
        let jobs = tr
            .time("campaign.expand", 0, None, || spec.expand())
            .expect("grid expands");
        tr.time("campaign.lint", 0, None, || lint_campaign(spec));
        let mut session: Option<(usize, Workbench)> = None;
        let mut bufs = SimBuffers::new();
        let mut digests: Vec<JobDigest> = Vec::new();
        for job in &jobs {
            let op = job.index as u64;
            if !matches!(&session, Some((ordinal, _)) if *ordinal == job.set_ordinal) {
                let id = tr.open("campaign.session", op, None);
                let mut bench = Workbench::new(job.system_spec());
                // Build the backend now: allocation and analysis sessions.
                let _ = bench.unplaceable();
                tr.close(id);
                session = Some((job.set_ordinal, bench));
            }
            let bench = &mut session.as_mut().expect("session installed").1;
            let t0 = Instant::now();
            let digest = digest_job_buffered(job, true, bench, &mut bufs);
            let job_ns = t0.elapsed().as_nanos() as f64;
            tr.record("campaign.job", op, t0, Instant::now());
            if digest.status == JobStatus::Ran {
                let (slot, sim, n, oracle, hash) = split_job(job, bench, &mut bufs, tr);
                sim_ns[slot] += sim;
                events[slot] += n;
                split.push((job_ns, sim, oracle, hash));
            }
            *statuses.entry(status_label(&digest.status)).or_insert(0) += 1;
            digests.push(digest);
        }
        tr.time("campaign.report", 0, None, || {
            let report = CampaignReport::from_digests(spec.name.clone(), digests, 0.0, 1);
            (report.digest(), report.render().len())
        });
    }
    let total_ms = |name: &str| tr.totals(name).0 / 1e6;
    out.metric("campaign.expand_ms", total_ms("campaign.expand"), "ms");
    out.metric("campaign.lint_ms", total_ms("campaign.lint"), "ms");
    out.metric("campaign.analysis_ms", total_ms("campaign.session"), "ms");
    out.metric(
        "campaign.sessions",
        tr.self_ns("campaign.session").len() as f64,
        "count",
    );
    out.metric("campaign.report_ms", total_ms("campaign.report"), "ms");
    for (slot, label) in ["uni", "partitioned", "global"].iter().enumerate() {
        let rate = if events[slot] > 0 {
            sim_ns[slot] / events[slot] as f64
        } else {
            0.0
        };
        out.metric(&format!("sim.ns_per_event.{label}"), rate, "ns");
    }
    out.metric("sim.events", events.iter().sum::<u64>() as f64, "count");
    let per_job = |f: fn(&(f64, f64, f64, f64)) -> f64| {
        split.iter().map(f).sum::<f64>() / split.len().max(1) as f64 / 1e3
    };
    out.metric("campaign.oracle_us", per_job(|x| x.2), "us");
    out.metric("trace.hash_us", per_job(|x| x.3), "us");
    out.metric(
        "campaign.digest_us",
        per_job(|x| (x.0 - x.1 - x.2).max(0.0)),
        "us",
    );
    for (status, n) in statuses {
        out.metric(&format!("campaign.jobs.{status}"), n as f64, "count");
    }
}

/// Run one job's simulation, oracle and trace hash again on its warm
/// session, each in its own span. Returns the placement slot, the sim
/// time (ns), its event count, and the oracle and hash times (ns).
fn split_job(
    job: &JobSpec,
    bench: &mut Workbench,
    bufs: &mut SimBuffers,
    tr: &mut Tracer,
) -> (usize, f64, u64, f64, f64) {
    let op = job.index as u64;
    let scenario = job.scenario();
    let timed = |tr: &mut Tracer, name: &'static str, work: u64, t0: Instant| {
        let id = tr.record(name, op, t0, Instant::now());
        tr.spans[id].work = work;
        tr.spans[id].ns() as f64
    };
    if let Some(analyzer) = bench.uni_session_mut() {
        let t0 = Instant::now();
        let outcome =
            rtft_ft::harness::run_scenario_buffered(&scenario, analyzer, bufs).expect("job ran");
        let n = outcome.log.len() as u64;
        let sim = timed(tr, "sim.uni", n, t0);
        let t0 = Instant::now();
        let checked = oracle::check(job, &outcome, analyzer);
        let oracle = timed(tr, "campaign.oracle", u64::from(checked.was_checked()), t0);
        let t0 = Instant::now();
        std::hint::black_box(outcome.log.content_hash());
        let hash = timed(tr, "trace.hash", 0, t0);
        bufs.recycle_log(outcome.log);
        (0, sim, n, oracle, hash)
    } else if let Some(session) = bench.global_mut() {
        let t0 = Instant::now();
        let global = rtft_global::run_global_buffered(&scenario, session, bufs).expect("job ran");
        let n = global.outcome.log.len() as u64;
        let sim = timed(tr, "sim.global", n, t0);
        let t0 = Instant::now();
        let checked = oracle::check_global(job, &global.outcome, session);
        let oracle = timed(tr, "campaign.oracle", u64::from(checked.was_checked()), t0);
        let t0 = Instant::now();
        let refs: Vec<(usize, &rtft_trace::TraceLog)> =
            global.core_logs.iter().map(|(c, l)| (*c, l)).collect();
        std::hint::black_box(rtft_trace::merge::merged_content_hash(&refs));
        let hash = timed(tr, "trace.hash", 0, t0);
        bufs.recycle_log(global.outcome.log);
        (2, sim, n, oracle, hash)
    } else {
        let sessions = bench.partitioned_mut().expect("multicore backend");
        let t0 = Instant::now();
        let multi = rtft_part::multicore::run_partitioned_buffered(&scenario, sessions, bufs)
            .expect("job ran");
        let n: u64 = multi.cores.iter().map(|c| c.outcome.log.len() as u64).sum();
        let sim = timed(tr, "sim.partitioned", n, t0);
        let t0 = Instant::now();
        for run in &multi.cores {
            let partition = sessions.partition();
            let cjob = JobSpec {
                set_label: rtft_part::multicore::core_label(&job.set_label, run.core),
                set: Arc::new(partition.core_set(run.core).expect("occupied core").clone()),
                cores: 1,
                placement: Placement::Partitioned,
                faults: partition.core_faults(&job.faults, run.core),
                ..job.clone()
            };
            let session = sessions.core_session_mut(run.core).expect("occupied core");
            let checked: OracleOutcome = oracle::check(&cjob, &run.outcome, session);
            std::hint::black_box(checked);
        }
        let oracle = timed(tr, "campaign.oracle", multi.cores.len() as u64, t0);
        let t0 = Instant::now();
        std::hint::black_box(multi.merged_hash());
        let hash = timed(tr, "trace.hash", 0, t0);
        (1, sim, n, oracle, hash)
    }
}
