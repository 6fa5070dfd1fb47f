//! The [`Workbench`]: the one place a [`SystemSpec`] meets its
//! placement.
//!
//! [`rtft_core::query`] defines *what* can be asked — a
//! [`SystemSpec`] plus [`Query`] values answered by typed
//! [`Response`]s. A `Workbench` owns *how*: it picks the backend for
//! its spec once, on first use — a uniprocessor [`Analyzer`] session on
//! one core, a per-core [`PartitionedAnalyzer`] over the allocator's
//! partition on several, a shared-queue [`GlobalAnalyzer`] under
//! `placement global`, or the allocator's rejection — and every
//! consumer goes through it, so callers never branch on platform:
//!
//! - **Queries.** [`Workbench::run`] and [`Workbench::run_batch`]
//!   answer the query plane for `rtft query`, `rtft analyze`,
//!   `rtft serve` and the benches.
//! - **Runs.** [`Workbench::simulate`] runs a scenario on the runner
//!   that matches the backend and returns one [`PlacedRun`], which
//!   knows its trace hash, its trace capture, its per-core parts and
//!   how to hand its logs back to [`SimBuffers`];
//!   [`Workbench::recipe_mut`] gives the differential oracle the
//!   session behind each part. Campaign digests, lone runs
//!   (`rtft run`), trace captures and `POST /trace` all run jobs here.
//!
//! [`Workbench::run_batch`] additionally *orders* the queries of a
//! batch to maximize warm-start reuse inside the existing fixed-point
//! and binary-search memoization: cheap memo-populating queries
//! (feasibility, WCRTs, thresholds) run first, then the equitable
//! search (which seeds the session's busy-period caches along its
//! feasible frontier), then the per-task overrun searches that reuse
//! those seeds, then the scaling search. Responses come back in the
//! caller's order; ordering changes *when* a fixed point is computed,
//! never its value.
//!
//! ```
//! use rtft_core::query::{parse_batch, Query, Response};
//! use rtft_part::workbench::Workbench;
//!
//! let (spec, queries) = parse_batch(
//!     "system paper\n\
//!      task tau1 20 200ms 70ms 29ms\n\
//!      task tau2 18 250ms 120ms 29ms\n\
//!      task tau3 16 1500ms 120ms 29ms\n\
//!      query feasibility\n\
//!      query equitable\n",
//! )
//! .unwrap();
//! let mut bench = Workbench::new(spec);
//! let responses = bench.run_batch(&queries).unwrap();
//! assert!(matches!(
//!     responses[0],
//!     Response::Feasibility { feasible: true, .. }
//! ));
//! let Response::EquitableAllowance(cores) = &responses[1] else {
//!     panic!("equitable response expected");
//! };
//! // The paper's Table 2 allowance: A = 11 ms.
//! assert_eq!(
//!     cores[0].allowance,
//!     Some(rtft_core::time::Duration::millis(11))
//! );
//! ```

use crate::alloc::allocate;
use crate::analyzer::PartitionedAnalyzer;
use crate::multicore::{run_partitioned_streamed, MulticoreOutcome};
use crate::partition::Partition;
use rtft_core::analyzer::{Analyzer, AnalyzerBuilder};
use rtft_core::diag::{self, Diagnostic};
use rtft_core::error::AnalysisError;
use rtft_core::policy::PolicyKind;
use rtft_core::query::{
    CoreAllowance, CoreScale, Placement, Query, Response, SystemSpec, TaskValue,
};
use rtft_core::task::TaskId;
use rtft_core::time::Duration;
use rtft_ft::harness::{run_scenario_streamed, HarnessError, Scenario, ScenarioOutcome};
use rtft_ft::recipe::Recipe;
use rtft_global::{run_global_streamed, GlobalAnalyzer, GlobalOutcome};
use rtft_sim::engine::SimBuffers;
use rtft_sim::sink::TraceSink;
use rtft_trace::{TraceCapture, TraceLog};

/// The memoized analysis state behind a [`Workbench`], built lazily on
/// the first query.
enum Backend {
    /// One core: the plain uniprocessor session — bit-identical to the
    /// pre-query-plane `Analyzer` path.
    Uni(Box<Analyzer>),
    /// Several cores: one session per occupied core over the
    /// allocator's partition.
    Multi(Box<PartitionedAnalyzer>),
    /// Several migrating cores (`placement global`): one shared-queue
    /// session over the whole set — sufficient-only bounds, no
    /// partition. Queries report every task on core 0.
    Global(Box<GlobalAnalyzer>),
    /// The allocator found no placement; the diagnostics answer every
    /// query.
    Unplaceable(String),
}

/// Why [`Workbench::simulate`] could not run a scenario.
#[derive(Clone, PartialEq, Debug)]
pub enum RunError {
    /// The allocator found no placement; its diagnostics.
    Unplaceable(String),
    /// The runner refused the base system, or an analysis failed.
    Harness(HarnessError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Unplaceable(diag) => f.write_str(diag),
            RunError::Harness(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<HarnessError> for RunError {
    fn from(e: HarnessError) -> Self {
        RunError::Harness(e)
    }
}

/// One scenario run on the placement its [`Workbench`] chose.
#[derive(Debug)]
pub enum PlacedRun {
    /// One core: the uniprocessor harness outcome.
    Uni(ScenarioOutcome),
    /// Partitioned cores: one uniprocessor outcome per occupied core.
    Partitioned(MulticoreOutcome),
    /// Global cores: the `m`-core run's merged outcome.
    Global(GlobalOutcome),
}

impl PlacedRun {
    /// The trace hash in the run's placement domain: the flat content
    /// hash on one core, the fold of the per-core hashes under
    /// partitioning, the merged core-tagged hash under global placement.
    pub fn trace_hash(&self) -> u64 {
        match self {
            PlacedRun::Uni(outcome) => outcome.log.content_hash(),
            PlacedRun::Partitioned(multi) => multi.merged_hash(),
            PlacedRun::Global(global) => global.merged_hash,
        }
    }

    /// The outcomes an oracle checks and a digest tallies, each with
    /// the core it ran on: one part without a core for a uniprocessor
    /// or global run, one per occupied core (ascending) for a
    /// partitioned run.
    pub fn parts(&self) -> Vec<(Option<usize>, &ScenarioOutcome)> {
        match self {
            PlacedRun::Uni(outcome) => vec![(None, outcome)],
            PlacedRun::Partitioned(multi) => multi
                .cores
                .iter()
                .map(|c| (Some(c.core), &c.outcome))
                .collect(),
            PlacedRun::Global(global) => vec![(None, &global.outcome)],
        }
    }

    /// Tasks that failed their verdict: rank order for a one-part run,
    /// sorted by task id across the cores of a partitioned run.
    pub fn failed_tasks(&self) -> Vec<TaskId> {
        match self {
            PlacedRun::Uni(outcome) | PlacedRun::Global(GlobalOutcome { outcome, .. }) => {
                outcome.verdict.failed_tasks()
            }
            PlacedRun::Partitioned(multi) => multi.failed_tasks(),
        }
    }

    /// Non-faulty tasks that failed anyway, ordered like
    /// [`PlacedRun::failed_tasks`].
    pub fn collateral_failures(&self) -> Vec<TaskId> {
        match self {
            PlacedRun::Uni(outcome) | PlacedRun::Global(GlobalOutcome { outcome, .. }) => {
                outcome.collateral_failures()
            }
            PlacedRun::Partitioned(multi) => multi.collateral_failures(),
        }
    }

    /// The importable capture of the run — flat on one core, core-tagged
    /// merged on several — with the provenance header `rtft replay`
    /// verifies: the hash, policy, placement and cores of `spec` (the
    /// spec the run's workbench was built over) and the `treatment`
    /// keyword.
    pub fn capture(self, spec: &SystemSpec, treatment: &str) -> TraceCapture {
        let hash = rtft_core::query::spec_hash(spec);
        let policy = spec.policy.label();
        let merged = |logs: &[(usize, &TraceLog)]| {
            TraceCapture::merged(
                hash,
                policy,
                spec.placement.label(),
                spec.cores,
                treatment,
                logs,
            )
        };
        match self {
            PlacedRun::Uni(outcome) => TraceCapture::flat(hash, policy, treatment, outcome.log),
            PlacedRun::Partitioned(multi) => merged(&multi.logs()),
            PlacedRun::Global(global) => {
                let logs: Vec<(usize, &TraceLog)> =
                    global.core_logs.iter().map(|(c, l)| (*c, l)).collect();
                merged(&logs)
            }
        }
    }

    /// Hand the run's largest trace buffer back to `bufs` for the next
    /// run.
    pub fn recycle(self, bufs: &mut SimBuffers) {
        let log = match self {
            PlacedRun::Uni(outcome) => Some(outcome.log),
            PlacedRun::Partitioned(multi) => multi
                .cores
                .into_iter()
                .map(|c| c.outcome.log)
                .max_by_key(TraceLog::len),
            PlacedRun::Global(global) => Some(global.outcome.log),
        };
        if let Some(log) = log {
            bufs.recycle_log(log);
        }
    }
}

/// Memoized query executor for one [`SystemSpec`]. See the
/// [module docs](self).
pub struct Workbench {
    spec: SystemSpec,
    backend: Option<Backend>,
    /// Pre-flight findings from [`diag::lint_system`], computed once at
    /// construction (static rules only — microseconds, no fixed point).
    lint: Vec<Diagnostic>,
}

impl Workbench {
    /// A workbench over `spec`. No analysis runs until the first query
    /// (or session accessor) forces the backend.
    pub fn new(spec: SystemSpec) -> Self {
        let lint = diag::lint_system(&spec);
        Workbench {
            spec,
            backend: None,
            lint,
        }
    }

    /// The spec this workbench answers queries about.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// The pre-flight diagnostics for the spec (all severities).
    /// Error-severity findings make every [`Workbench::run`] answer
    /// [`Response::Rejected`] without building a backend.
    pub fn lint(&self) -> &[Diagnostic] {
        &self.lint
    }

    fn ensure(&mut self) -> &mut Backend {
        self.backend.get_or_insert_with(|| {
            if self.spec.cores <= 1 {
                return Backend::Uni(Box::new(
                    AnalyzerBuilder::new(&self.spec.set)
                        .sched_policy(self.spec.policy)
                        .build(),
                ));
            }
            if self.spec.placement == Placement::Global {
                return Backend::Global(Box::new(GlobalAnalyzer::new(
                    self.spec.set.clone(),
                    self.spec.cores,
                    self.spec.policy,
                )));
            }
            match allocate(
                &self.spec.set,
                self.spec.cores,
                self.spec.policy,
                self.spec.alloc,
            ) {
                Ok(partition) => Backend::Multi(Box::new(PartitionedAnalyzer::new(
                    partition,
                    self.spec.policy,
                ))),
                Err(e) => Backend::Unplaceable(e.to_string()),
            }
        })
    }

    /// The uniprocessor session (`None` on a multicore or unplaceable
    /// spec) — the exact session the scenario harness consumes.
    pub fn uni_session_mut(&mut self) -> Option<&mut Analyzer> {
        match self.ensure() {
            Backend::Uni(a) => Some(a),
            _ => None,
        }
    }

    /// The per-core sessions (`None` on a uniprocessor or unplaceable
    /// spec).
    pub fn partitioned_mut(&mut self) -> Option<&mut PartitionedAnalyzer> {
        match self.ensure() {
            Backend::Multi(pa) => Some(pa),
            _ => None,
        }
    }

    /// The global session (`None` unless the spec is a multicore
    /// `placement global` system) — the session the global scenario
    /// runner consumes.
    pub fn global_mut(&mut self) -> Option<&mut GlobalAnalyzer> {
        match self.ensure() {
            Backend::Global(ga) => Some(ga),
            _ => None,
        }
    }

    /// The partition behind a multicore spec (`None` otherwise).
    pub fn partition(&mut self) -> Option<&Partition> {
        match self.ensure() {
            Backend::Multi(pa) => Some(pa.partition()),
            _ => None,
        }
    }

    /// The allocator's rejection diagnostics, when the spec is
    /// unplaceable.
    pub fn unplaceable(&mut self) -> Option<&str> {
        match self.ensure() {
            Backend::Unplaceable(diag) => Some(diag),
            _ => None,
        }
    }

    /// Run `sc` on the runner that matches this spec's placement — the
    /// uniprocessor harness, the partitioned runner or the global
    /// runner, each against this workbench's memoized sessions —
    /// feeding every recorded event to `sink` when given. The lint is
    /// not consulted: a caller that gates on it does so first.
    ///
    /// # Errors
    /// [`RunError::Unplaceable`] with the allocator's diagnostics, or
    /// the runner's [`HarnessError`] (infeasible base, failed analysis).
    ///
    /// # Panics
    /// Panics if `sc` runs a different task set or policy than the spec.
    pub fn simulate(
        &mut self,
        sc: &Scenario,
        bufs: &mut SimBuffers,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<PlacedRun, RunError> {
        Ok(match self.ensure() {
            Backend::Uni(session) => {
                PlacedRun::Uni(run_scenario_streamed(sc, session, bufs, sink)?)
            }
            Backend::Multi(pa) => {
                PlacedRun::Partitioned(run_partitioned_streamed(sc, pa, bufs, sink)?)
            }
            Backend::Global(ga) => PlacedRun::Global(run_global_streamed(sc, ga, bufs, sink)?),
            Backend::Unplaceable(diag) => return Err(RunError::Unplaceable(diag.clone())),
        })
    }

    /// The analysis session behind one part of a [`PlacedRun`] (see
    /// [`PlacedRun::parts`]), as the certification [`Recipe`] the
    /// oracle asks: the whole-set session for a part without a core,
    /// the core's session for a partitioned part. `None` when no such
    /// part exists on this placement.
    pub fn recipe_mut(&mut self, core: Option<usize>) -> Option<&mut dyn Recipe> {
        match (self.ensure(), core) {
            (Backend::Uni(session), None) => Some(&mut **session),
            (Backend::Global(session), None) => Some(&mut **session),
            (Backend::Multi(pa), Some(core)) => {
                pa.core_session_mut(core).map(|s| s as &mut dyn Recipe)
            }
            _ => None,
        }
    }

    /// Answer one query. Specs whose pre-flight [`Workbench::lint`]
    /// carries Error-severity findings answer [`Response::Rejected`]
    /// for every query — the static proofs make running the analyzer
    /// pointless.
    ///
    /// # Errors
    /// [`AnalysisError`] when an underlying fixed point trips its
    /// iteration guard. (Divergence — a saturated level workload — is
    /// an *answer*, reported as `None` values, not an error.)
    ///
    /// # Panics
    /// Panics when a [`Query::MaxSingleOverrun`] names a task that is
    /// not in the spec's set (a parsed batch cannot produce one).
    pub fn run(&mut self, query: &Query) -> Result<Response, AnalysisError> {
        if diag::has_errors(&self.lint) {
            // The static lint proved the spec broken or infeasible:
            // reject instead of spending analyzer time (or panicking in
            // a fixed point the proofs say cannot settle).
            return Ok(Response::Rejected(self.lint.clone()));
        }
        if let Some(diag) = self.unplaceable() {
            return Ok(Response::Unplaceable(diag.to_string()));
        }
        if matches!(self.ensure(), Backend::Global(_)) {
            return Ok(self.global_query(query));
        }
        match query {
            Query::Feasibility => self.feasibility(),
            Query::WcrtAll => self.per_task(false).map(Response::WcrtAll),
            Query::Thresholds => self.per_task(true).map(Response::Thresholds),
            Query::EquitableAllowance => self.equitable(),
            Query::SystemAllowance(policy) => {
                let policy = *policy;
                let per_task = self.for_each_core(|core, session| {
                    let sa = session.system_allowance_with(policy)?;
                    Ok(task_values(session, core, |rank| {
                        sa.as_ref().map(|sa| sa.max_overrun[rank])
                    }))
                })?;
                Ok(Response::SystemAllowance { policy, per_task })
            }
            Query::MaxSingleOverrun(id) => {
                let id = *id;
                let rows = self.for_each_core(|core, session| {
                    let Some(rank) = session.task_set().rank_of(id) else {
                        return Ok(Vec::new());
                    };
                    let m = session.max_single_overrun_with(
                        rank,
                        rtft_core::allowance::SlackPolicy::ProtectAll,
                    )?;
                    let spec = session.task_set().by_rank(rank);
                    Ok(vec![TaskValue {
                        task: spec.id,
                        name: spec.name.clone(),
                        core,
                        value: m,
                    }])
                })?;
                let v = rows
                    .into_iter()
                    .next()
                    .unwrap_or_else(|| panic!("overrun query names task {id:?} not in the set"));
                Ok(Response::MaxSingleOverrun(v))
            }
            Query::Sensitivity => {
                let cores = self.for_each_core(|core, session| {
                    Ok(vec![CoreScale {
                        core,
                        factor: session.cost_scaling_margin()?,
                    }])
                })?;
                Ok(Response::Sensitivity(cores))
            }
        }
    }

    /// Answer a batch, reordering execution for warm-start reuse while
    /// returning responses in the caller's order. This is the batched
    /// entry `rtft query` and the campaign path use; on cold sessions
    /// it is measurably faster than one-shot workbenches per query
    /// (see `bench_query`).
    ///
    /// # Errors
    /// The first [`AnalysisError`] any query produces.
    pub fn run_batch(&mut self, queries: &[Query]) -> Result<Vec<Response>, AnalysisError> {
        let mut order: Vec<usize> = (0..queries.len()).collect();
        order.sort_by_key(|&i| diag::execution_phase(&queries[i]));
        let mut responses: Vec<Option<Response>> = vec![None; queries.len()];
        for i in order {
            responses[i] = Some(self.run(&queries[i])?);
        }
        Ok(responses
            .into_iter()
            .map(|r| r.expect("answered"))
            .collect())
    }

    /// Run `f` over every occupied core's `(core, session)`,
    /// concatenating the per-core rows (cores ascending — rank order
    /// within a core). The core's task set is read through the
    /// session ([`Analyzer::task_set`]), so no set is cloned per query.
    fn for_each_core<T>(
        &mut self,
        mut f: impl FnMut(usize, &mut Analyzer) -> Result<Vec<T>, AnalysisError>,
    ) -> Result<Vec<T>, AnalysisError> {
        match self.ensure() {
            Backend::Uni(session) => f(0, session),
            Backend::Multi(pa) => {
                let mut out = Vec::new();
                for (core, session) in pa.sessions_mut() {
                    out.extend(f(core, session)?);
                }
                Ok(out)
            }
            Backend::Global(_) => unreachable!("run() routes global specs to global_query"),
            Backend::Unplaceable(_) => unreachable!("run() short-circuits unplaceable specs"),
        }
    }

    /// Answer one query over the global session. Globally scheduled
    /// tasks have no home core, so every row reports core 0; all
    /// numbers carry the crate's sufficient-only semantics (a `None`
    /// WCRT is "no convergent bound", infeasible means "unproven").
    fn global_query(&mut self, query: &Query) -> Response {
        let ga = match self.ensure() {
            Backend::Global(ga) => ga,
            _ => unreachable!("global_query requires the global backend"),
        };
        match query {
            Query::Feasibility => {
                let v = ga.verdict();
                Response::Feasibility {
                    feasible: v.feasible,
                    overloaded: v.overloaded,
                    utilization: v.utilization,
                }
            }
            Query::WcrtAll => {
                let bounds = ga.wcrt_bounds().to_vec();
                Response::WcrtAll(global_rows(ga.task_set(), &bounds))
            }
            Query::Thresholds => {
                let bounds: Vec<_> = ga
                    .stop_thresholds_at(Duration::ZERO)
                    .into_iter()
                    .map(Some)
                    .collect();
                Response::Thresholds(global_rows(ga.task_set(), &bounds))
            }
            Query::EquitableAllowance => {
                let allowance = ga.equitable_allowance();
                let stop_thresholds = allowance
                    .map(|a| {
                        let inflated: Vec<_> =
                            ga.stop_thresholds_at(a).into_iter().map(Some).collect();
                        global_rows(ga.task_set(), &inflated)
                    })
                    .unwrap_or_default();
                Response::EquitableAllowance(vec![CoreAllowance {
                    core: 0,
                    allowance,
                    stop_thresholds,
                }])
            }
            // SlackPolicy cannot loosen the global bound (an overrun
            // interferes with every lower-priority task system-wide),
            // so both policies answer the protect-all maxima.
            Query::SystemAllowance(policy) => {
                let maxima: Vec<_> = (0..ga.task_set().len())
                    .map(|rank| ga.max_single_overrun(rank))
                    .collect();
                Response::SystemAllowance {
                    policy: *policy,
                    per_task: global_rows(ga.task_set(), &maxima),
                }
            }
            Query::MaxSingleOverrun(id) => {
                let rank = ga
                    .task_set()
                    .rank_of(*id)
                    .unwrap_or_else(|| panic!("overrun query names task {id:?} not in the set"));
                let value = ga.max_single_overrun(rank);
                let spec = ga.task_set().by_rank(rank);
                Response::MaxSingleOverrun(TaskValue {
                    task: spec.id,
                    name: spec.name.clone(),
                    core: 0,
                    value,
                })
            }
            Query::Sensitivity => Response::Sensitivity(vec![CoreScale {
                core: 0,
                factor: ga.cost_scaling_margin(),
            }]),
        }
    }

    fn feasibility(&mut self) -> Result<Response, AnalysisError> {
        let utilization = self.spec.set.utilization();
        match self.ensure() {
            Backend::Uni(session) => {
                if utilization > 1.0 {
                    return Ok(Response::Feasibility {
                        feasible: false,
                        overloaded: true,
                        utilization,
                    });
                }
                Ok(Response::Feasibility {
                    feasible: session.is_feasible()?,
                    overloaded: false,
                    utilization,
                })
            }
            Backend::Multi(pa) => {
                let overloaded = pa.partition().occupied_cores().any(|c| {
                    pa.partition()
                        .core_set(c)
                        .is_some_and(|s| s.utilization() > 1.0)
                });
                if overloaded {
                    return Ok(Response::Feasibility {
                        feasible: false,
                        overloaded: true,
                        utilization,
                    });
                }
                Ok(Response::Feasibility {
                    feasible: pa.is_feasible()?,
                    overloaded: false,
                    utilization,
                })
            }
            Backend::Global(_) => unreachable!("run() routes global specs to global_query"),
            Backend::Unplaceable(_) => unreachable!("run() short-circuits unplaceable specs"),
        }
    }

    /// Per-task durations: WCRTs (`thresholds = false`, `None` under
    /// EDF) or detection thresholds (`thresholds = true`, deadlines
    /// under EDF). Divergent tasks answer `None` either way.
    fn per_task(&mut self, thresholds: bool) -> Result<Vec<TaskValue>, AnalysisError> {
        let policy = self.spec.policy;
        self.for_each_core(|core, session| {
            let mut rows = Vec::with_capacity(session.len());
            for rank in 0..session.len() {
                let value = if policy == PolicyKind::Edf {
                    if thresholds {
                        Some(session.task_set().by_rank(rank).deadline)
                    } else {
                        None
                    }
                } else {
                    match session.wcrt(rank) {
                        Ok(w) => Some(w),
                        Err(AnalysisError::Divergent { .. }) => None,
                        Err(e) => return Err(e),
                    }
                };
                let spec = session.task_set().by_rank(rank);
                rows.push(TaskValue {
                    task: spec.id,
                    name: spec.name.clone(),
                    core,
                    value,
                });
            }
            Ok(rows)
        })
    }

    fn equitable(&mut self) -> Result<Response, AnalysisError> {
        let cores = self.for_each_core(|core, session| {
            let eq = session.equitable_allowance()?;
            let stop_thresholds = eq
                .as_ref()
                .map(|eq| task_values(session, core, |rank| Some(eq.inflated_wcrt[rank])))
                .unwrap_or_default();
            Ok(vec![CoreAllowance {
                core,
                allowance: eq.map(|eq| eq.allowance),
                stop_thresholds,
            }])
        })?;
        Ok(Response::EquitableAllowance(cores))
    }
}

/// Rank-ordered [`TaskValue`] rows over a globally scheduled set —
/// every task on core 0 (global tasks have no home core).
fn global_rows(set: &rtft_core::task::TaskSet, values: &[Option<Duration>]) -> Vec<TaskValue> {
    (0..set.len())
        .map(|rank| {
            let spec = set.by_rank(rank);
            TaskValue {
                task: spec.id,
                name: spec.name.clone(),
                core: 0,
                value: values[rank],
            }
        })
        .collect()
}

/// Rank-ordered [`TaskValue`] rows over one core's session.
fn task_values(
    session: &Analyzer,
    core: usize,
    value: impl Fn(usize) -> Option<Duration>,
) -> Vec<TaskValue> {
    let set = session.task_set();
    (0..set.len())
        .map(|rank| {
            let spec = set.by_rank(rank);
            TaskValue {
                task: spec.id,
                name: spec.name.clone(),
                core,
                value: value(rank),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::allowance::SlackPolicy;
    use rtft_core::query::AllocPolicy;
    use rtft_core::task::{TaskBuilder, TaskId, TaskSet};

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    fn paper_set() -> TaskSet {
        TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(200), ms(29))
                .deadline(ms(70))
                .build(),
            TaskBuilder::new(2, 18, ms(250), ms(29))
                .deadline(ms(120))
                .build(),
            TaskBuilder::new(3, 16, ms(1500), ms(29))
                .deadline(ms(120))
                .build(),
        ])
    }

    /// Twin paper system: needs two cores, each half reproducing the
    /// uniprocessor Table 2 numbers.
    fn twin_set() -> TaskSet {
        let mut specs = Vec::new();
        for base in [0u32, 10] {
            specs.push(
                TaskBuilder::new(base + 1, 20, ms(200), ms(29))
                    .deadline(ms(70))
                    .build(),
            );
            specs.push(
                TaskBuilder::new(base + 2, 18, ms(250), ms(29))
                    .deadline(ms(120))
                    .build(),
            );
            specs.push(
                TaskBuilder::new(base + 3, 16, ms(1500), ms(29))
                    .deadline(ms(120))
                    .build(),
            );
        }
        TaskSet::from_specs(specs)
    }

    fn all_queries() -> Vec<Query> {
        vec![
            Query::Feasibility,
            Query::WcrtAll,
            Query::Thresholds,
            Query::EquitableAllowance,
            Query::SystemAllowance(SlackPolicy::ProtectAll),
            Query::MaxSingleOverrun(TaskId(1)),
            Query::Sensitivity,
        ]
    }

    #[test]
    fn uniprocessor_answers_match_the_analyzer_session() {
        let mut bench = Workbench::new(SystemSpec::uniprocessor("paper", paper_set()));
        let responses = bench.run_batch(&all_queries()).unwrap();
        assert_eq!(
            responses[0],
            Response::Feasibility {
                feasible: true,
                overloaded: false,
                utilization: paper_set().utilization(),
            }
        );
        let Response::WcrtAll(wcrt) = &responses[1] else {
            panic!()
        };
        let values: Vec<_> = wcrt.iter().map(|v| v.value.unwrap()).collect();
        assert_eq!(values, vec![ms(29), ms(58), ms(87)]);
        let Response::Thresholds(th) = &responses[2] else {
            panic!()
        };
        assert_eq!(th, wcrt, "fp thresholds are the WCRTs");
        let Response::EquitableAllowance(eq) = &responses[3] else {
            panic!()
        };
        assert_eq!(eq[0].allowance, Some(ms(11)));
        let stops: Vec<_> = eq[0]
            .stop_thresholds
            .iter()
            .map(|v| v.value.unwrap())
            .collect();
        assert_eq!(stops, vec![ms(40), ms(80), ms(120)]);
        let Response::SystemAllowance { per_task, .. } = &responses[4] else {
            panic!()
        };
        let ms33: Vec<_> = per_task.iter().map(|v| v.value.unwrap()).collect();
        assert_eq!(ms33, vec![ms(33), ms(33), ms(33)]);
        assert_eq!(
            responses[5],
            Response::MaxSingleOverrun(TaskValue {
                task: TaskId(1),
                name: "τ1".into(),
                core: 0,
                value: Some(ms(33)),
            })
        );
        let Response::Sensitivity(scale) = &responses[6] else {
            panic!()
        };
        assert!((scale[0].factor.unwrap() - 120.0 / 87.0).abs() < 1e-6);
    }

    #[test]
    fn batch_answers_equal_one_shot_answers() {
        // Ordering and session sharing are accelerations, never
        // different numbers: each batched response must equal a cold
        // workbench's answer to the same query.
        let spec = SystemSpec::uniprocessor("paper", paper_set());
        let queries = all_queries();
        let batched = Workbench::new(spec.clone()).run_batch(&queries).unwrap();
        for (q, batched_response) in queries.iter().zip(&batched) {
            let one_shot = Workbench::new(spec.clone()).run(q).unwrap();
            assert_eq!(&one_shot, batched_response, "{q:?}");
        }
    }

    #[test]
    fn multicore_dispatch_reproduces_per_core_numbers() {
        let spec = SystemSpec::uniprocessor("twin", twin_set())
            .with_cores(2, AllocPolicy::WorstFitDecreasing);
        let mut bench = Workbench::new(spec);
        let responses = bench
            .run_batch(&[
                Query::Feasibility,
                Query::Thresholds,
                Query::EquitableAllowance,
            ])
            .unwrap();
        assert!(matches!(
            responses[0],
            Response::Feasibility {
                feasible: true,
                overloaded: false,
                ..
            }
        ));
        let Response::Thresholds(th) = &responses[1] else {
            panic!()
        };
        assert_eq!(th.len(), 6);
        for core in 0..2 {
            let values: Vec<_> = th
                .iter()
                .filter(|v| v.core == core)
                .map(|v| v.value.unwrap())
                .collect();
            assert_eq!(values, vec![ms(29), ms(58), ms(87)], "core {core}");
        }
        let Response::EquitableAllowance(eq) = &responses[2] else {
            panic!()
        };
        assert_eq!(eq.len(), 2);
        for c in eq {
            assert_eq!(c.allowance, Some(ms(11)));
        }
    }

    #[test]
    fn edf_specs_answer_deadline_thresholds_and_no_wcrt() {
        let spec = SystemSpec::uniprocessor("paper", paper_set()).with_policy(PolicyKind::Edf);
        let mut bench = Workbench::new(spec);
        let Response::WcrtAll(wcrt) = bench.run(&Query::WcrtAll).unwrap() else {
            panic!()
        };
        assert!(wcrt.iter().all(|v| v.value.is_none()));
        let Response::Thresholds(th) = bench.run(&Query::Thresholds).unwrap() else {
            panic!()
        };
        let values: Vec<_> = th.iter().map(|v| v.value.unwrap()).collect();
        assert_eq!(values, vec![ms(70), ms(120), ms(120)]);
    }

    #[test]
    fn lint_rejected_specs_answer_every_query_without_analysis() {
        // U = 1.2 on one core: RT010 is a static infeasibility proof,
        // so the workbench must never build a backend for this spec.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 9, ms(100), ms(60)).build(),
            TaskBuilder::new(2, 8, ms(100), ms(60)).build(),
        ]);
        let mut bench = Workbench::new(SystemSpec::uniprocessor("overloaded", set));
        assert!(rtft_core::diag::has_errors(bench.lint()));
        for q in all_queries() {
            match bench.run(&q).unwrap() {
                Response::Rejected(diags) => {
                    assert!(diags.iter().any(|d| d.code == "RT010"), "{diags:?}")
                }
                other => panic!("expected rejection, got {other:?}"),
            }
        }
        assert!(bench.backend.is_none(), "no analyzer session may be built");
        // And the batch path agrees with the one-shot path.
        let responses = bench.run_batch(&all_queries()).unwrap();
        assert!(responses.iter().all(|r| matches!(r, Response::Rejected(_))));
    }

    #[test]
    fn unplaceable_specs_answer_every_query_with_diagnostics() {
        // Three 0.6-utilization tasks cannot fit two cores.
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 9, ms(100), ms(60)).build(),
            TaskBuilder::new(2, 8, ms(100), ms(60)).build(),
            TaskBuilder::new(3, 7, ms(100), ms(60)).build(),
        ]);
        let spec =
            SystemSpec::uniprocessor("heavy", set).with_cores(2, AllocPolicy::FirstFitDecreasing);
        let mut bench = Workbench::new(spec);
        for q in all_queries() {
            match bench.run(&q).unwrap() {
                Response::Unplaceable(diag) => {
                    assert!(diag.contains("cannot place"), "{diag}")
                }
                other => panic!("expected unplaceable, got {other:?}"),
            }
        }
    }

    /// Light twins (costs halved to 14 ms) — inside the global
    /// sufficient test at m = 2, unlike the full 29 ms twins.
    fn light_twin_set() -> TaskSet {
        let mut specs = Vec::new();
        for base in [0u32, 10] {
            specs.push(
                TaskBuilder::new(base + 1, 20 + base as i32, ms(200), ms(14))
                    .deadline(ms(70))
                    .build(),
            );
            specs.push(
                TaskBuilder::new(base + 2, 18 + base as i32, ms(250), ms(14))
                    .deadline(ms(120))
                    .build(),
            );
            specs.push(
                TaskBuilder::new(base + 3, 16 + base as i32, ms(1500), ms(14))
                    .deadline(ms(120))
                    .build(),
            );
        }
        TaskSet::from_specs(specs)
    }

    #[test]
    fn global_specs_answer_every_query_on_core_zero() {
        let spec = SystemSpec::uniprocessor("twin", light_twin_set())
            .with_cores(2, AllocPolicy::FirstFitDecreasing)
            .with_placement(Placement::Global);
        let mut bench = Workbench::new(spec);
        assert!(bench.global_mut().is_some());
        assert!(bench.partitioned_mut().is_none());
        for q in all_queries() {
            match bench.run(&q).unwrap() {
                Response::Feasibility {
                    feasible,
                    overloaded,
                    ..
                } => assert!(feasible && !overloaded),
                Response::WcrtAll(rows) | Response::Thresholds(rows) => {
                    assert_eq!(rows.len(), 6);
                    assert!(rows.iter().all(|r| r.core == 0));
                    // The top-priority task's bound is its cost.
                    assert_eq!(rows[0].value, Some(ms(14)));
                }
                Response::EquitableAllowance(cores) => {
                    assert_eq!(cores.len(), 1);
                    assert_eq!(cores[0].core, 0);
                    assert!(cores[0].allowance.is_some());
                    assert!(cores[0].stop_thresholds.iter().all(|r| r.core == 0));
                }
                Response::SystemAllowance { per_task, .. } => {
                    assert_eq!(per_task.len(), 6);
                    assert!(per_task.iter().all(|r| r.core == 0));
                }
                Response::MaxSingleOverrun(row) => {
                    assert_eq!(row.core, 0);
                    assert!(row.value.is_some());
                }
                Response::Sensitivity(cores) => {
                    assert_eq!(cores.len(), 1);
                    assert_eq!(cores[0].core, 0);
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
    }

    #[test]
    fn global_slack_policy_cannot_loosen_the_bound() {
        let spec = SystemSpec::uniprocessor("twin", light_twin_set())
            .with_cores(2, AllocPolicy::FirstFitDecreasing)
            .with_placement(Placement::Global);
        let mut bench = Workbench::new(spec);
        let a = bench
            .run(&Query::SystemAllowance(SlackPolicy::ProtectAll))
            .unwrap();
        let b = bench
            .run(&Query::SystemAllowance(SlackPolicy::ProtectOthers))
            .unwrap();
        let (
            Response::SystemAllowance { per_task: pa, .. },
            Response::SystemAllowance { per_task: pb, .. },
        ) = (a, b)
        else {
            panic!("system-allowance responses expected");
        };
        assert_eq!(pa, pb);
    }

    #[test]
    fn unproven_global_specs_answer_infeasible_not_unplaceable() {
        // Full-cost twins with staggered priorities (the second copy
        // strictly above the first) partition cleanly onto two cores,
        // but the global sufficient test cannot prove them — the BC
        // interference bound on the low-copy 70 ms-deadline task
        // overflows. The workbench must report "unproven" (infeasible),
        // never route to the allocator.
        let mut specs = Vec::new();
        for base in [0u32, 10] {
            specs.push(
                TaskBuilder::new(base + 1, 20 + base as i32, ms(200), ms(29))
                    .deadline(ms(70))
                    .build(),
            );
            specs.push(
                TaskBuilder::new(base + 2, 18 + base as i32, ms(250), ms(29))
                    .deadline(ms(120))
                    .build(),
            );
            specs.push(
                TaskBuilder::new(base + 3, 16 + base as i32, ms(1500), ms(29))
                    .deadline(ms(120))
                    .build(),
            );
        }
        let spec = SystemSpec::uniprocessor("twin", TaskSet::from_specs(specs))
            .with_cores(2, AllocPolicy::FirstFitDecreasing)
            .with_placement(Placement::Global);
        let mut bench = Workbench::new(spec);
        let Response::Feasibility {
            feasible,
            overloaded,
            ..
        } = bench.run(&Query::Feasibility).unwrap()
        else {
            panic!("feasibility response expected");
        };
        assert!(!feasible && !overloaded);
        assert!(bench.unplaceable().is_none());
    }
}
