//! The scenario harness: task set × fault plan × treatment → trace.
//!
//! This is the top of the reproduction stack: given a system and a
//! treatment it (1) runs the admission analysis, (2) derives the detector
//! thresholds the treatment prescribes, (3) executes the system on the
//! simulator with the configured platform models, and (4) reduces the
//! trace to verdicts — everything needed to regenerate the paper's
//! Figures 3–7 and the ablation sweeps.
//!
//! [`run_on_cores`] is the one run body: admission gate, detector
//! thresholds and allowance maxima from a certification [`Recipe`]
//! session, the supervised simulation on `m ≥ 1` cores of the one
//! engine, and the trace reduction. Every placement runs through it.
//! The `rtft-part` `Workbench` runs a job as a list of parts, one call
//! of the body each: the whole scenario on one core against the exact
//! uniprocessor [`Analyzer`], each occupied core's slice (its subset,
//! fault slice and own session) of a partitioned system, or the whole
//! scenario on `m` cores against the sufficient-only global analysis of
//! `rtft-global`. Campaign grid jobs, lone runs
//! (`rtft_campaign::run_single`) and trace captures all go that way, so
//! a paper figure, a million-job sweep and a multicore run exercise
//! identical code. [`run_scenario_buffered`] is the body's one-core face
//! for callers that hold a bare [`Analyzer`] session.

use crate::detector::FtSupervisor;
use crate::manager::AllowanceManager;
use crate::recipe::Recipe;
use crate::treatment::Treatment;
use crate::verdict::Verdict;
use rtft_core::analyzer::{Analyzer, AnalyzerBuilder};
use rtft_core::error::AnalysisError;
use rtft_core::policy::PolicyKind;
use rtft_core::task::TaskSet;
use rtft_core::time::{Duration, Instant};
use rtft_sim::engine::{SimBuffers, SimConfig, Simulator};
use rtft_sim::fault::FaultPlan;
use rtft_sim::overhead::Overheads;
use rtft_sim::sink::TraceSink;
use rtft_sim::stop::StopModel;
use rtft_sim::supervisor::{NullSupervisor, Supervisor};
use rtft_sim::timer::TimerModel;
use rtft_trace::chart::{glyph, ChartConfig};
use rtft_trace::{TraceLog, TraceStats};

/// A complete experiment description.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Label used in artifacts.
    pub name: String,
    /// The system under test.
    pub set: TaskSet,
    /// Injected faults.
    pub faults: FaultPlan,
    /// Treatment configuration.
    pub treatment: Treatment,
    /// Simulation horizon.
    pub horizon: Instant,
    /// Platform timer grid (jRate quantization or exact).
    pub timer_model: TimerModel,
    /// Platform stop model.
    pub stop_model: StopModel,
    /// Scheduling-overhead charges.
    pub overheads: Overheads,
    /// Dispatch rule (fixed-priority preemptive by default). Detector
    /// thresholds, allowances and the admission gate all follow the
    /// policy — see [`Analyzer::policy_thresholds`].
    pub policy: PolicyKind,
}

impl Scenario {
    /// A scenario with exact timers, immediate stops and
    /// fixed-priority dispatch.
    pub fn new(
        name: impl Into<String>,
        set: TaskSet,
        faults: FaultPlan,
        treatment: Treatment,
        horizon: Instant,
    ) -> Self {
        Scenario {
            name: name.into(),
            set,
            faults,
            treatment,
            horizon,
            timer_model: TimerModel::EXACT,
            stop_model: StopModel::IMMEDIATE,
            overheads: Overheads::NONE,
            policy: PolicyKind::FixedPriority,
        }
    }

    /// Run (and analyse) under a different scheduling policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Use jRate's 10 ms timer grid (the paper's platform).
    pub fn with_jrate_timers(mut self) -> Self {
        self.timer_model = TimerModel::jrate();
        self
    }

    /// Use a custom timer model.
    pub fn with_timer_model(mut self, m: TimerModel) -> Self {
        self.timer_model = m;
        self
    }

    /// Use a custom stop model.
    pub fn with_stop_model(mut self, m: StopModel) -> Self {
        self.stop_model = m;
        self
    }

    /// Charge scheduling overheads (context switches, detector firings).
    pub fn with_overheads(mut self, o: Overheads) -> Self {
        self.overheads = o;
        self
    }
}

/// Static analysis attached to a run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct AnalysisSummary {
    /// Baseline detection threshold per rank: the WCRT under the
    /// fixed-priority policies, the relative deadline under EDF.
    pub wcrt: Vec<Duration>,
    /// Detector threshold per rank (equals WCRT, or the inflated WCRT for
    /// the equitable treatment). Empty for [`Treatment::NoDetection`].
    pub thresholds: Vec<Duration>,
    /// Equitable allowance, when that treatment was configured.
    pub equitable: Option<Duration>,
    /// System-allowance maxima `M_i`, when that treatment was configured.
    pub system_allowance: Option<Vec<Duration>>,
}

/// Everything a run produced.
#[derive(Debug)]
pub struct ScenarioOutcome {
    /// The scenario's label.
    pub name: String,
    /// The executed trace.
    pub log: TraceLog,
    /// Reconstructed per-job statistics.
    pub stats: TraceStats,
    /// Pass/fail per task.
    pub verdict: Verdict,
    /// Analysis numbers used to parameterize the run.
    pub analysis: AnalysisSummary,
    /// Ground truth: tasks with at least one injected overrun.
    pub injected_faulty: Vec<rtft_core::task::TaskId>,
}

impl ScenarioOutcome {
    /// Non-faulty tasks that failed anyway — the damage the treatments
    /// exist to prevent (judged against the injected fault plan).
    pub fn collateral_failures(&self) -> Vec<rtft_core::task::TaskId> {
        self.verdict.collateral_failures(&self.injected_faulty)
    }

    /// Render the paper-style time-series chart of a window, annotating
    /// each release's WCRT threshold with the `>` glyph like the figures.
    pub fn chart(&self, set: &TaskSet, from: Instant, to: Instant, cell: Duration) -> String {
        let mut cfg = ChartConfig::window(from, to).with_cell(cell);
        if !self.analysis.thresholds.is_empty() {
            for rank in 0..set.len() {
                let spec = set.by_rank(rank);
                let wcrt = self.analysis.wcrt[rank];
                // Annotate each release in the window.
                let mut k = 0i64;
                loop {
                    let release = Instant::EPOCH + spec.offset + spec.period * k;
                    if release >= to {
                        break;
                    }
                    let mark = release + wcrt;
                    if mark >= from && mark < to {
                        cfg = cfg.annotate(spec.id, mark, glyph::WCRT);
                    }
                    k += 1;
                }
            }
        }
        rtft_trace::render(&self.log, Some(set), &cfg)
    }
}

/// Why a scenario could not run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HarnessError {
    /// The admission analysis failed.
    Analysis(AnalysisError),
    /// The base system is infeasible — the paper's treatments presuppose a
    /// feasible admitted system.
    InfeasibleBase,
}

impl std::fmt::Display for HarnessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HarnessError::Analysis(e) => write!(f, "analysis error: {e}"),
            HarnessError::InfeasibleBase => write!(f, "base system is not feasible"),
        }
    }
}

impl std::error::Error for HarnessError {}

impl From<AnalysisError> for HarnessError {
    fn from(e: AnalysisError) -> Self {
        HarnessError::Analysis(e)
    }
}

/// Run a scenario end to end with a throwaway analysis session (built
/// for the scenario's policy).
pub fn run_scenario(sc: &Scenario) -> Result<ScenarioOutcome, HarnessError> {
    let mut session = AnalyzerBuilder::new(&sc.set)
        .sched_policy(sc.policy)
        .build();
    run_scenario_with(sc, &mut session)
}

/// Run a scenario end to end against a caller-held [`Analyzer`] session
/// over the same task set — the memoized WCRTs and allowances are then
/// shared across scenarios (and epochs, see [`crate::dynamic`]).
///
/// # Panics
/// Panics if `session` analyses a different task set, or was built for
/// a different scheduling policy, than the scenario.
pub fn run_scenario_with(
    sc: &Scenario,
    session: &mut Analyzer,
) -> Result<ScenarioOutcome, HarnessError> {
    run_scenario_buffered(sc, session, &mut SimBuffers::new())
}

/// [`run_scenario_with`], reusing caller-held simulation storage.
///
/// A batch driver holds one [`SimBuffers`] per worker and passes it to
/// every run: the wake queue and occurrence outbox then keep their
/// allocations across jobs, and a trace buffer handed back via
/// [`SimBuffers::recycle_log`] (after digesting the outcome's log) is
/// reused too. The produced trace is identical to an unbuffered run.
///
/// # Panics
/// Panics if `session` analyses a different task set, or was built for
/// a different scheduling policy, than the scenario.
pub fn run_scenario_buffered(
    sc: &Scenario,
    session: &mut Analyzer,
    bufs: &mut SimBuffers,
) -> Result<ScenarioOutcome, HarnessError> {
    run_on_cores(sc, session, 1, bufs, None).map(|(outcome, _)| outcome)
}

/// The one run body: run `sc` on `cores` cores of the one engine,
/// parameterized by `session`'s answers to the certification
/// [`Recipe`] — the admission gate, the detector thresholds the
/// treatment arms and, under the system-allowance treatment, the
/// maxima the allowance manager grants. Feeds every recorded event to
/// `sink` when given, as the simulation produces it (the live-streaming
/// path of `rtft serve`; see [`rtft_sim::sink::TraceSink`]); the
/// outcome — and its trace — is byte-identical to the unsunk run.
///
/// Returns the outcome and, on more than one core, the per-core split
/// of its trace (`rtft_sim::engine::Simulator::core_logs`). A one-core
/// run keeps no split: its trace is the flat log and the split is empty.
///
/// # Errors
/// [`HarnessError::InfeasibleBase`] when the session does not admit
/// the set (or finds no allowance the treatment needs), or the
/// session's analysis error.
///
/// # Panics
/// Panics if `session` analyses a different task set, or was built for
/// a different scheduling policy, than the scenario.
pub fn run_on_cores<R: Recipe + ?Sized>(
    sc: &Scenario,
    session: &mut R,
    cores: usize,
    bufs: &mut SimBuffers,
    sink: Option<&mut dyn TraceSink>,
) -> Result<(ScenarioOutcome, Vec<(usize, TraceLog)>), HarnessError> {
    assert_eq!(
        session.task_set(),
        &sc.set,
        "run_on_cores: session and scenario disagree on the task set"
    );
    assert_eq!(
        session.policy(),
        sc.policy,
        "run_on_cores: session and scenario disagree on the policy"
    );
    let wcrt = session.baseline()?;
    let (thresholds, equitable) = session.detection(sc.treatment, &wcrt)?;
    let system_max = match sc.treatment {
        Treatment::SystemAllowance { policy, .. } => Some(session.system_allowance(policy)?),
        _ => None,
    };

    let config = SimConfig::until(sc.horizon)
        .with_timer_model(sc.timer_model)
        .with_stop_model(sc.stop_model)
        .with_overheads(sc.overheads)
        .with_policy(sc.policy);
    let mut sim =
        Simulator::new_in(sc.set.clone(), cores, config, bufs).with_faults(sc.faults.clone());
    let mut ft;
    let mut null = NullSupervisor;
    let sup: &mut dyn Supervisor = if sc.treatment.has_detection() {
        let manager = system_max.clone().map(AllowanceManager::new);
        ft = FtSupervisor::new(sc.treatment, thresholds.clone(), wcrt.clone(), manager);
        ft.install_detectors(&mut sim, &sc.set);
        &mut ft
    } else {
        &mut null
    };
    match sink {
        Some(s) => sim.run_streamed(sup, s),
        None => sim.run(sup),
    };
    let core_logs = if cores > 1 {
        sim.core_logs()
    } else {
        Vec::new()
    };
    let log = sim.finish(bufs);

    let stats = TraceStats::from_log(&log, Some(&sc.set));
    let verdict = Verdict::new(&sc.set, &stats);
    let outcome = ScenarioOutcome {
        name: sc.name.clone(),
        log,
        stats,
        verdict,
        analysis: AnalysisSummary {
            wcrt,
            thresholds,
            equitable,
            system_allowance: system_max,
        },
        injected_faulty: sc.faults.overrun_tasks(),
    };
    Ok((outcome, core_logs))
}

/// Run the same system and fault plan under all five paper treatments, in
/// Figure 3→7 order.
pub fn run_paper_lineup(
    set: &TaskSet,
    faults: &FaultPlan,
    horizon: Instant,
    timer_model: TimerModel,
) -> Result<Vec<ScenarioOutcome>, HarnessError> {
    // One session serves all five treatments: the base WCRTs and both
    // allowance searches are computed once and memoized.
    let mut session = Analyzer::new(set);
    Treatment::paper_lineup()
        .into_iter()
        .map(|treatment| {
            let sc = Scenario::new(
                treatment.name(),
                set.clone(),
                faults.clone(),
                treatment,
                horizon,
            )
            .with_timer_model(timer_model);
            run_scenario_with(&sc, &mut session)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::task::{TaskBuilder, TaskId};
    use rtft_sim::stop::StopMode;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    fn t(v: i64) -> Instant {
        Instant::from_millis(v)
    }

    /// The paper's evaluation system (Table 2) with τ3 phased so a job of
    /// every task is released at t = 1000 (the Figures 3–7 window).
    pub fn paper_system() -> TaskSet {
        TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(200), ms(29))
                .deadline(ms(70))
                .build(),
            TaskBuilder::new(2, 18, ms(250), ms(29))
                .deadline(ms(120))
                .build(),
            TaskBuilder::new(3, 16, ms(1500), ms(29))
                .deadline(ms(120))
                .offset(ms(1000))
                .build(),
        ])
    }

    /// The paper's injected fault: a cost overrun on τ1's job released at
    /// t = 1000 (its 5th job counting the synchronous one as job 0).
    fn paper_fault() -> FaultPlan {
        FaultPlan::none().overrun(TaskId(1), 5, ms(40))
    }

    #[test]
    fn fig3_no_detection_tau3_fails() {
        let sc = Scenario::new(
            "fig3",
            paper_system(),
            paper_fault(),
            Treatment::NoDetection,
            t(1300),
        );
        let out = run_scenario(&sc).unwrap();
        // τ1 and τ2 end before their deadlines; τ3 misses — "the case we
        // wish to avoid".
        assert_eq!(out.log.job_end(TaskId(1), 5), Some(t(1069)));
        assert_eq!(out.log.job_end(TaskId(2), 4), Some(t(1098)));
        assert_eq!(out.log.job_end(TaskId(3), 0), Some(t(1127)));
        assert_eq!(out.verdict.failed_tasks(), vec![TaskId(3)]);
        assert_eq!(out.collateral_failures(), vec![TaskId(3)]);
    }

    #[test]
    fn fig4_detection_only_same_schedule_with_detectors() {
        let sc = Scenario::new(
            "fig4",
            paper_system(),
            paper_fault(),
            Treatment::DetectOnly,
            t(1300),
        )
        .with_jrate_timers();
        let out = run_scenario(&sc).unwrap();
        // Same executions as Figure 3…
        assert_eq!(out.log.job_end(TaskId(1), 5), Some(t(1069)));
        assert_eq!(out.log.job_end(TaskId(3), 0), Some(t(1127)));
        assert_eq!(out.verdict.failed_tasks(), vec![TaskId(3)]);
        // …plus detectors with the quantization delays: τ1's fires at
        // 1030 (29→30), τ2's at 1060 (58→60), τ3's at 1090 (1087→1090).
        // The mechanism observes WCRT overruns, so the delayed victims τ2
        // and τ3 are flagged too — τ1's, the true fault, comes first.
        let fault = out.log.faults();
        assert_eq!(
            fault,
            vec![
                (TaskId(1), 5, t(1030)),
                (TaskId(2), 4, t(1060)),
                (TaskId(3), 0, t(1090)),
            ]
        );
        let detector_times: Vec<i64> = out
            .log
            .events()
            .iter()
            .filter(|e| {
                matches!(e.kind, rtft_trace::EventKind::DetectorRelease { .. })
                    && e.at >= t(1000)
                    && e.at < t(1150)
            })
            .map(|e| e.at.as_millis())
            .collect();
        assert!(detector_times.contains(&1030));
        assert!(detector_times.contains(&1060));
        assert!(detector_times.contains(&1090));
    }

    #[test]
    fn fig5_immediate_stop_confines_failure_to_tau1() {
        let sc = Scenario::new(
            "fig5",
            paper_system(),
            paper_fault(),
            Treatment::ImmediateStop {
                mode: StopMode::Permanent,
            },
            t(1300),
        )
        .with_jrate_timers();
        let out = run_scenario(&sc).unwrap();
        // τ1 stopped at its quantized WCRT (t = 1030).
        assert_eq!(out.log.stops(), vec![(TaskId(1), 5, t(1030))]);
        // Only τ1 fails; τ2 and τ3 finish comfortably (1059 / 1088) and
        // the CPU goes idle well before τ3's deadline — the paper's
        // "wasted time" observation.
        assert_eq!(out.log.job_end(TaskId(2), 4), Some(t(1059)));
        assert_eq!(out.log.job_end(TaskId(3), 0), Some(t(1088)));
        assert_eq!(out.verdict.failed_tasks(), vec![TaskId(1)]);
        assert!(out.collateral_failures().is_empty());
        let idle_after = out
            .log
            .events()
            .iter()
            .any(|e| matches!(e.kind, rtft_trace::EventKind::CpuIdle) && e.at == t(1088));
        assert!(idle_after, "processor must be free after τ3 finishes");
    }

    #[test]
    fn fig6_equitable_allowance_saves_everyone_but_tau1() {
        let sc = Scenario::new(
            "fig6",
            paper_system(),
            paper_fault(),
            Treatment::EquitableAllowance {
                mode: StopMode::Permanent,
            },
            t(1300),
        )
        .with_jrate_timers();
        let out = run_scenario(&sc).unwrap();
        assert_eq!(out.analysis.equitable, Some(ms(11)));
        assert_eq!(out.analysis.thresholds, vec![ms(40), ms(80), ms(120)]);
        // τ1 stopped at release + inflated WCRT = 1000 + 40 (40 is on the
        // 10 ms grid: no quantization delay).
        assert_eq!(out.log.stops(), vec![(TaskId(1), 5, t(1040))]);
        // τ2 and τ3 meet their deadlines; unused allowance remains (they
        // finish before deadline − nothing at 1120).
        assert_eq!(out.log.job_end(TaskId(2), 4), Some(t(1069)));
        assert_eq!(out.log.job_end(TaskId(3), 0), Some(t(1098)));
        assert_eq!(out.verdict.failed_tasks(), vec![TaskId(1)]);
    }

    #[test]
    fn fig7_system_allowance_maximizes_tau1_runtime() {
        let sc = Scenario::new(
            "fig7",
            paper_system(),
            paper_fault(),
            Treatment::SystemAllowance {
                mode: StopMode::Permanent,
                policy: rtft_core::allowance::SlackPolicy::ProtectAll,
            },
            t(1300),
        )
        .with_jrate_timers();
        let out = run_scenario(&sc).unwrap();
        assert_eq!(
            out.analysis.system_allowance,
            Some(vec![ms(33), ms(33), ms(33)])
        );
        // τ1 stopped 33 ms after its WCRT: t = 1000 + 29 + 33 = 1062.
        assert_eq!(out.log.stops(), vec![(TaskId(1), 5, t(1062))]);
        // τ2 and τ3 finish "just before their deadlines": 1091 and 1120.
        assert_eq!(out.log.job_end(TaskId(2), 4), Some(t(1091)));
        assert_eq!(out.log.job_end(TaskId(3), 0), Some(t(1120)));
        assert!(
            out.log.misses(TaskId(3)).is_empty(),
            "1120 is exactly on time"
        );
        assert_eq!(out.verdict.failed_tasks(), vec![TaskId(1)]);
    }

    #[test]
    fn lineup_ordering_of_tau1_runtime() {
        // Across treatments, τ1's stop time strictly increases:
        // immediate (1030) < equitable (1040) < system (1062) — the
        // paper's headline comparison.
        let outs = run_paper_lineup(
            &paper_system(),
            &paper_fault(),
            t(1300),
            TimerModel::jrate(),
        )
        .unwrap();
        let stop_time = |o: &ScenarioOutcome| o.log.stops().first().map(|s| s.2);
        assert_eq!(stop_time(&outs[0]), None);
        assert_eq!(stop_time(&outs[1]), None);
        let s2 = stop_time(&outs[2]).unwrap();
        let s3 = stop_time(&outs[3]).unwrap();
        let s4 = stop_time(&outs[4]).unwrap();
        assert!(s2 < s3 && s3 < s4, "{s2} < {s3} < {s4}");
        // And collateral damage only occurs without treatment.
        assert!(!outs[0].collateral_failures().is_empty());
        assert!(!outs[1].collateral_failures().is_empty());
        for o in &outs[2..] {
            assert!(o.collateral_failures().is_empty(), "{}", o.name);
        }
    }

    #[test]
    fn infeasible_base_is_rejected() {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 5, ms(10), ms(8)).build(),
            TaskBuilder::new(2, 4, ms(10), ms(8)).build(),
        ]);
        let sc = Scenario::new("bad", set, FaultPlan::none(), Treatment::DetectOnly, t(100));
        assert_eq!(run_scenario(&sc).unwrap_err(), HarnessError::InfeasibleBase);
    }

    #[test]
    fn chart_renders_figures() {
        let sc = Scenario::new(
            "fig7",
            paper_system(),
            paper_fault(),
            Treatment::SystemAllowance {
                mode: StopMode::Permanent,
                policy: rtft_core::allowance::SlackPolicy::ProtectAll,
            },
            t(1300),
        )
        .with_jrate_timers();
        let out = run_scenario(&sc).unwrap();
        let chart = out.chart(&paper_system(), t(990), t(1140), ms(1));
        assert!(chart.contains("τ1"));
        assert!(chart.contains(glyph::STOP.to_string().as_str()));
        assert!(chart.contains(glyph::WCRT.to_string().as_str()));
        assert!(chart.contains(glyph::DETECTOR.to_string().as_str()));
    }
}
