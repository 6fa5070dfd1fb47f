//! The [`Workbench`]: the one place a [`SystemSpec`] meets its
//! placement.
//!
//! [`rtft_core::query`] defines *what* can be asked — a
//! [`SystemSpec`] plus [`Query`] values answered by typed
//! [`Response`]s. A `Workbench` owns *how*: it picks the backend for
//! its spec once, on first use — a per-core [`PartitionedAnalyzer`]
//! over the allocator's partition (over the trivial single-core
//! partition on one core), a shared-queue [`GlobalAnalyzer`] under
//! `placement global`, or the allocator's rejection. From then on the
//! placement is plain data: [`Workbench::parts_mut`] hands out its
//! sessions as one list of [`Part`]s — one on core 0 for a uniprocessor
//! or global spec, one per occupied core for a partitioned spec, none
//! when unplaceable. Each part carries its core, its session (a
//! [`Recipe`], which also names the core count of the engine the part
//! runs on: one, or `m` for global) and its job slice: the whole job, or
//! the core's subset, fault slice, `@cN` label and sink tag. Every
//! consumer iterates that list, so callers never branch on platform:
//!
//! - **Queries.** [`Workbench::run`] and [`Workbench::run_batch`]
//!   answer the query plane for `rtft query`, `rtft analyze`,
//!   `rtft serve` and the benches, with one body per query kind over
//!   the parts.
//! - **Runs.** [`Workbench::simulate`] runs a scenario as one loop of
//!   the run body [`run_on_cores`] over the parts and returns one
//!   [`PlacedRun`]: the per-part outcomes plus the engine's core-tagged
//!   split of a global run. It knows its trace hash, its trace capture
//!   and how to hand its logs back to [`SimBuffers`]; its parts come in
//!   the order of [`Workbench::parts_mut`], so the differential oracle
//!   zips the two. Campaign digests, lone runs (`rtft run`), trace
//!   captures and `POST /trace` all run jobs here, and replay resolves
//!   a capture's bounds from the same parts.
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
use crate::multicore::core_label;
use crate::partition::Partition;
use rtft_core::analyzer::Analyzer;
use rtft_core::diag::{self, Diagnostic};
use rtft_core::error::AnalysisError;
use rtft_core::query::{
    CoreAllowance, CoreScale, Placement, Query, Response, SystemSpec, TaskValue,
};
use rtft_core::task::TaskId;
use rtft_core::time::Duration;
use rtft_ft::harness::{run_on_cores, HarnessError, Scenario, ScenarioOutcome};
use rtft_ft::recipe::Recipe;
use rtft_global::GlobalAnalyzer;
use rtft_sim::engine::SimBuffers;
use rtft_sim::fault::FaultPlan;
use rtft_sim::sink::{CoreTag, TraceSink};
use rtft_trace::merge::merged_content_hash;
use rtft_trace::{TraceCapture, TraceLog};
use std::borrow::Cow;

/// The memoized analysis state behind a [`Workbench`], built lazily on
/// the first query.
enum Backend {
    /// One session per occupied core over the allocator's partition —
    /// on one core, the single-core partition whose one session is the
    /// plain uniprocessor `Analyzer`.
    Partitioned(Box<PartitionedAnalyzer>),
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

/// One part of a placement: an analysis session, the core it runs on
/// and the slice of a job it runs. See the [module docs](self).
pub struct Part<'a> {
    /// The part's core: 0 for a one-part placement.
    pub core: usize,
    /// The part's analysis session.
    pub session: &'a mut dyn Recipe,
    /// The partition the part is one core's slice of; `None` when the
    /// part runs the whole job.
    pub(crate) slice: Option<&'a Partition>,
}

impl Part<'_> {
    /// Is the part one core's slice of a partitioned job (rather than
    /// the whole job)?
    pub fn is_slice(&self) -> bool {
        self.slice.is_some()
    }

    /// The part's label for a job named `name`: the name itself, or the
    /// core's `name@cN`.
    pub fn label<'n>(&self, name: &'n str) -> Cow<'n, str> {
        match self.slice {
            None => Cow::Borrowed(name),
            Some(_) => Cow::Owned(core_label(name, self.core)),
        }
    }

    /// The part's share of `plan`: all of it, or the faults of the
    /// core's own tasks.
    pub fn faults<'p>(&self, plan: &'p FaultPlan) -> Cow<'p, FaultPlan> {
        match self.slice {
            None => Cow::Borrowed(plan),
            Some(partition) => Cow::Owned(partition.core_faults(plan, self.core)),
        }
    }

    /// The scenario the part runs: `sc` itself, or the core's subset,
    /// fault slice and label with everything else inherited.
    pub fn scenario<'s>(&self, sc: &'s Scenario) -> Cow<'s, Scenario> {
        if self.slice.is_none() {
            return Cow::Borrowed(sc);
        }
        Cow::Owned(Scenario {
            name: self.label(&sc.name).into_owned(),
            set: self.session.task_set().clone(),
            faults: self.faults(&sc.faults).into_owned(),
            ..*sc
        })
    }
}

/// One scenario run on the placement its [`Workbench`] chose: one
/// outcome per part, plus the engine's core-tagged split of a global
/// run.
#[derive(Debug)]
pub struct PlacedRun {
    /// `(core, outcome)` per part, in the order of the parts.
    parts: Vec<(usize, ScenarioOutcome)>,
    /// The per-core split of an `m`-core part's trace (global
    /// placement), platform-level events last; empty otherwise.
    split: Vec<(usize, TraceLog)>,
    /// Whether the parts are the core slices of a partitioned run.
    sliced: bool,
}

impl PlacedRun {
    /// The one per-part run loop: each part runs its slice of `sc` on
    /// its engine cores against its session, feeding `sink` (when given)
    /// with every event — tagged with the part's core for a core slice,
    /// as the engine attributes it otherwise.
    pub(crate) fn run(
        parts: Vec<Part<'_>>,
        sc: &Scenario,
        bufs: &mut SimBuffers,
        mut sink: Option<&mut dyn TraceSink>,
    ) -> Result<PlacedRun, HarnessError> {
        let mut run = PlacedRun {
            parts: Vec::with_capacity(parts.len()),
            split: Vec::new(),
            sliced: false,
        };
        for part in parts {
            let psc = part.scenario(sc);
            let mut tag;
            let part_sink: Option<&mut dyn TraceSink> = match sink.as_mut() {
                Some(s) if part.is_slice() => {
                    tag = CoreTag::new(part.core, &mut **s);
                    Some(&mut tag)
                }
                Some(s) => Some(&mut **s),
                None => None,
            };
            let cores = part.session.engine_cores();
            let (outcome, split) = run_on_cores(&psc, part.session, cores, bufs, part_sink)?;
            run.sliced |= part.is_slice();
            run.split.extend(split);
            run.parts.push((part.core, outcome));
        }
        Ok(run)
    }

    /// The per-part `(core, outcome)` pairs, in the order of the parts.
    pub(crate) fn into_parts(self) -> Vec<(usize, ScenarioOutcome)> {
        self.parts
    }

    /// The core-tagged logs of a run on several cores: the engine's
    /// split of a global run, each core slice's own log otherwise.
    fn tagged_logs(&self) -> Vec<(usize, &TraceLog)> {
        if self.split.is_empty() {
            self.parts.iter().map(|(c, o)| (*c, &o.log)).collect()
        } else {
            self.split.iter().map(|(c, l)| (*c, l)).collect()
        }
    }

    /// Is the trace core-tagged merged (a run on several cores) rather
    /// than flat (one core)?
    fn merged(&self) -> bool {
        self.sliced || !self.split.is_empty()
    }

    /// The trace hash in the run's placement domain: the flat content
    /// hash on one core, the fold of the per-core hashes of the
    /// core-tagged logs on several.
    pub fn trace_hash(&self) -> u64 {
        if self.merged() {
            merged_content_hash(&self.tagged_logs())
        } else {
            self.parts[0].1.log.content_hash()
        }
    }

    /// The outcomes an oracle checks and a digest tallies, one per part
    /// of [`Workbench::parts_mut`] and in its order: one for a
    /// uniprocessor or global run, one per occupied core (ascending) for
    /// a partitioned run.
    pub fn parts(&self) -> impl Iterator<Item = &ScenarioOutcome> + '_ {
        self.parts.iter().map(|(_, outcome)| outcome)
    }

    /// Tasks that failed their verdict: rank order for a whole-job part,
    /// sorted by task id across the core slices of a partitioned run.
    pub fn failed_tasks(&self) -> Vec<TaskId> {
        self.across_parts(|o| o.verdict.failed_tasks())
    }

    /// Non-faulty tasks that failed anyway, ordered like
    /// [`PlacedRun::failed_tasks`].
    pub fn collateral_failures(&self) -> Vec<TaskId> {
        self.across_parts(ScenarioOutcome::collateral_failures)
    }

    fn across_parts(&self, tasks: impl Fn(&ScenarioOutcome) -> Vec<TaskId>) -> Vec<TaskId> {
        let mut out: Vec<TaskId> = self.parts().flat_map(tasks).collect();
        if self.sliced {
            out.sort_unstable();
        }
        out
    }

    /// The importable capture of the run — flat on one core, core-tagged
    /// merged on several — with the provenance header `rtft replay`
    /// verifies: the hash, policy, placement and cores of `spec` (the
    /// spec the run's workbench was built over) and the `treatment`
    /// keyword.
    pub fn capture(self, spec: &SystemSpec, treatment: &str) -> TraceCapture {
        let hash = rtft_core::query::spec_hash(spec);
        let policy = spec.policy.label();
        if self.merged() {
            return TraceCapture::merged(
                hash,
                policy,
                spec.placement.label(),
                spec.cores,
                treatment,
                &self.tagged_logs(),
            );
        }
        let (_, outcome) = self.parts.into_iter().next().expect("a run has a part");
        TraceCapture::flat(hash, policy, treatment, outcome.log)
    }

    /// Hand the run's largest trace buffer back to `bufs` for the next
    /// run.
    pub fn recycle(self, bufs: &mut SimBuffers) {
        let log = self
            .parts
            .into_iter()
            .map(|(_, outcome)| outcome.log)
            .max_by_key(TraceLog::len);
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
            let spec = &self.spec;
            if spec.cores <= 1 {
                return Backend::Partitioned(Box::new(PartitionedAnalyzer::new(
                    Partition::single_core(&spec.set),
                    spec.policy,
                )));
            }
            if spec.placement == Placement::Global {
                return Backend::Global(Box::new(GlobalAnalyzer::new(
                    spec.set.clone(),
                    spec.cores,
                    spec.policy,
                )));
            }
            match allocate(&spec.set, spec.cores, spec.policy, spec.alloc) {
                Ok(partition) => {
                    Backend::Partitioned(Box::new(PartitionedAnalyzer::new(partition, spec.policy)))
                }
                Err(e) => Backend::Unplaceable(e.to_string()),
            }
        })
    }

    /// The uniprocessor session (`None` on a multicore or unplaceable
    /// spec) — the exact session the scenario harness consumes.
    pub fn uni_session_mut(&mut self) -> Option<&mut Analyzer> {
        match self.ensure() {
            Backend::Partitioned(pa) if pa.partition().cores() == 1 => pa.core_session_mut(0),
            _ => None,
        }
    }

    /// The per-core sessions (`None` on a global or unplaceable spec;
    /// a uniprocessor spec's is the single-core partition's).
    pub fn partitioned_mut(&mut self) -> Option<&mut PartitionedAnalyzer> {
        match self.ensure() {
            Backend::Partitioned(pa) => Some(pa),
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

    /// The partition behind a partitioned spec — the single-core one on
    /// one core (`None` for a global or unplaceable spec).
    pub fn partition(&mut self) -> Option<&Partition> {
        self.partitioned_mut().map(|pa| pa.partition())
    }

    /// The allocator's rejection diagnostics, when the spec is
    /// unplaceable.
    pub fn unplaceable(&mut self) -> Option<&str> {
        match self.ensure() {
            Backend::Unplaceable(diag) => Some(diag),
            _ => None,
        }
    }

    /// Run `sc` on this spec's placement: one call of the run body per
    /// [part](Self::parts_mut), each against the part's memoized
    /// session, feeding every recorded event to `sink` when given. The
    /// lint is not consulted: a caller that gates on it does so first.
    ///
    /// # Errors
    /// [`RunError::Unplaceable`] with the allocator's diagnostics, or
    /// the first part's [`HarnessError`] (infeasible base, failed
    /// analysis).
    ///
    /// # Panics
    /// Panics if `sc` runs a different task set or policy than the spec.
    pub fn simulate(
        &mut self,
        sc: &Scenario,
        bufs: &mut SimBuffers,
        sink: Option<&mut dyn TraceSink>,
    ) -> Result<PlacedRun, RunError> {
        assert!(
            sc.set == self.spec.set && sc.policy == self.spec.policy,
            "simulate: scenario and spec disagree on the task set or policy"
        );
        if let Some(diag) = self.unplaceable() {
            return Err(RunError::Unplaceable(diag.to_string()));
        }
        Ok(PlacedRun::run(self.parts_mut(), sc, bufs, sink)?)
    }

    /// The analysis sessions of the placement, one [`Part`] each: one
    /// part on core 0 for a uniprocessor or global spec, one per
    /// occupied core (ascending) for a partitioned spec, none when the
    /// spec is unplaceable — the order of [`PlacedRun::parts`].
    pub fn parts_mut(&mut self) -> Vec<Part<'_>> {
        match self.ensure() {
            Backend::Partitioned(pa) => pa.parts_mut(),
            Backend::Global(session) => vec![Part {
                core: 0,
                session: &mut **session,
                slice: None,
            }],
            Backend::Unplaceable(_) => Vec::new(),
        }
    }

    /// Answer one query from the placement's [parts](Self::parts_mut):
    /// per-task rows come cores ascending, rank order within a core
    /// (every row of a global spec reports core 0). Specs whose
    /// pre-flight [`Workbench::lint`] carries Error-severity findings
    /// answer [`Response::Rejected`] for every query — the static proofs
    /// make running the analyzer pointless.
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
        let utilization = self.spec.set.utilization();
        let mut parts = self.parts_mut();
        Ok(match query {
            Query::Feasibility => {
                let overloaded = parts.iter_mut().any(|part| part.session.overloaded());
                // Admission stops at the first part that refuses.
                let mut feasible = !overloaded;
                for part in &mut parts {
                    feasible = feasible && part.session.admits()?;
                }
                Response::Feasibility {
                    feasible,
                    overloaded,
                    utilization,
                }
            }
            Query::WcrtAll => Response::WcrtAll(rows(parts, |part| part.wcrt_rows())?),
            Query::Thresholds => Response::Thresholds(rows(parts, |part| part.threshold_rows())?),
            Query::EquitableAllowance => {
                let mut cores = Vec::with_capacity(parts.len());
                for Part { core, session, .. } in parts {
                    let (allowance, stops) = session
                        .equitable()?
                        .map_or((None, Vec::new()), |(a, s)| (Some(a), s));
                    let stop_thresholds = stops
                        .into_iter()
                        .enumerate()
                        .map(|(rank, stop)| row(session, core, rank, Some(stop)))
                        .collect();
                    cores.push(CoreAllowance {
                        core,
                        allowance,
                        stop_thresholds,
                    });
                }
                Response::EquitableAllowance(cores)
            }
            Query::SystemAllowance(policy) => Response::SystemAllowance {
                policy: *policy,
                per_task: rows(parts, |part| part.system_allowance_rows(*policy))?,
            },
            Query::MaxSingleOverrun(id) => {
                let (part, rank) = parts
                    .into_iter()
                    .find_map(|part| {
                        let rank = part.session.task_set().rank_of(*id)?;
                        Some((part, rank))
                    })
                    .unwrap_or_else(|| panic!("overrun query names task {id:?} not in the set"));
                let value = part.session.protect_all_overrun(rank)?;
                Response::MaxSingleOverrun(row(part.session, part.core, rank, value))
            }
            Query::Sensitivity => Response::Sensitivity(
                parts
                    .into_iter()
                    .map(|part| {
                        Ok(CoreScale {
                            core: part.core,
                            factor: part.session.scaling_margin()?,
                        })
                    })
                    .collect::<Result<_, AnalysisError>>()?,
            ),
        })
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
}

/// Every part's per-rank `values` as [`TaskValue`] rows, parts in order.
fn rows(
    parts: Vec<Part<'_>>,
    mut values: impl FnMut(&mut dyn Recipe) -> Result<Vec<Option<Duration>>, AnalysisError>,
) -> Result<Vec<TaskValue>, AnalysisError> {
    let mut out = Vec::new();
    for Part { core, session, .. } in parts {
        let part_values = values(&mut *session)?;
        out.extend(
            part_values
                .into_iter()
                .enumerate()
                .map(|(rank, value)| row(session, core, rank, value)),
        );
    }
    Ok(out)
}

/// The [`TaskValue`] row of the task at `rank` of one part.
fn row(part: &dyn Recipe, core: usize, rank: usize, value: Option<Duration>) -> TaskValue {
    let spec = part.task_set().by_rank(rank);
    TaskValue {
        task: spec.id,
        name: spec.name.clone(),
        core,
        value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::allowance::SlackPolicy;
    use rtft_core::policy::PolicyKind;
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
