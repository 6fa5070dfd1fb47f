//! Declarative campaign descriptions and their grid expansion.
//!
//! A [`CampaignSpec`] names *sources* along eight axes — task sets,
//! scheduling policies, core counts, placements, allocators, fault
//! plans, treatments, platform models — and
//! the engine runs their full cross product. The spec has a line-based
//! file format (see [`parse_spec`]) designed so that a **repro artifact
//! is itself a spec**: a violation found by the differential oracle is
//! minimized to a one-job campaign file that `rtft campaign` replays
//! directly.

use rtft_core::policy::PolicyKind;
use rtft_core::query::{
    parse_cores, FaultEntry, Placement, PlatformModel, SystemLines, SystemSpec,
};
use rtft_core::task::{TaskId, TaskSet};
use rtft_core::time::{Duration, Instant};
use rtft_ft::treatment::Treatment;
use rtft_part::alloc::AllocPolicy;
use rtft_sim::fault::{FaultPlan, RandomFaults};
use rtft_sim::overhead::Overheads;
use rtft_sim::stop::{StopMode, StopModel};
use rtft_sim::timer::TimerModel;
use rtft_taskgen::{DeadlineKind, GeneratorConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;

/// Where the task sets of a campaign come from.
#[derive(Clone, Debug, PartialEq)]
pub enum SetSource {
    /// The paper's Table 2 system, τ3 phased into the figure window.
    Paper,
    /// An explicit task set (from inline `task` lines of a spec file).
    Inline(TaskSet),
    /// UUniFast-generated sets, one per seed in `seeds`.
    UUniFast {
        /// Task count.
        n: usize,
        /// Target total utilization.
        utilization: f64,
        /// Per-task utilization cap (UUniFast-discard).
        cap: f64,
        /// Period range, sampled log-uniformly.
        periods: (Duration, Duration),
        /// Deadline style.
        deadlines: DeadlineKind,
        /// Seed range `[start, end)` — one set per seed.
        seeds: (u64, u64),
    },
}

impl SetSource {
    /// Materialize every concrete `(label, set)` instance of this source.
    pub fn instances(&self) -> Vec<(String, TaskSet)> {
        match self {
            SetSource::Paper => vec![(
                "paper".to_string(),
                rtft_taskgen::paper::table2_figure_window(),
            )],
            SetSource::Inline(set) => vec![("inline".to_string(), set.clone())],
            SetSource::UUniFast {
                n,
                utilization,
                cap,
                periods,
                deadlines,
                seeds,
            } => {
                let cfg = GeneratorConfig {
                    n: *n,
                    utilization: *utilization,
                    period_range: *periods,
                    deadlines: *deadlines,
                    per_task_cap: *cap,
                };
                (seeds.0..seeds.1)
                    .map(|seed| {
                        (
                            format!("uunifast-n{n}-u{utilization}-s{seed}"),
                            cfg.generate(seed),
                        )
                    })
                    .collect()
            }
        }
    }
}

/// Where the fault plans of a campaign come from. Plans are resolved
/// against each concrete task set.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultSource {
    /// Fault-free.
    None,
    /// The paper's injection: +40 ms on τ1's job released at t = 1000 ms.
    Paper,
    /// An explicit plan (from inline `fault` lines of a spec file).
    Explicit(FaultPlan),
    /// A single-job overrun sweep: one plan per delta.
    Single {
        /// Target task.
        task: TaskId,
        /// Target job index.
        job: u64,
        /// Overrun magnitudes, one plan each.
        deltas: Vec<Duration>,
    },
    /// Random per-job overruns, one plan per seed.
    Random {
        /// Per-job overrun probability.
        probability: f64,
        /// Magnitude range (uniform, inclusive).
        magnitude: (Duration, Duration),
        /// Plan horizon in jobs per task.
        jobs_per_task: u64,
        /// Seed range `[start, end)` — one plan per seed.
        seeds: (u64, u64),
    },
}

impl FaultSource {
    /// Materialize every `(label, plan)` instance against `set`.
    pub fn instances(&self, set: &TaskSet) -> Vec<(String, FaultPlan)> {
        match self {
            FaultSource::None => vec![("fault-free".to_string(), FaultPlan::none())],
            FaultSource::Paper => vec![(
                "paper-fault".to_string(),
                FaultPlan::none().overrun(
                    TaskId(1),
                    rtft_taskgen::paper::FAULTY_JOB_OF_TAU1,
                    rtft_taskgen::paper::injected_overrun(),
                ),
            )],
            FaultSource::Explicit(plan) => vec![("explicit".to_string(), plan.clone())],
            FaultSource::Single { task, job, deltas } => deltas
                .iter()
                .map(|d| {
                    (
                        format!("single-t{}-j{job}-d{d}", task.0),
                        FaultPlan::none().overrun(*task, *job, *d),
                    )
                })
                .collect(),
            FaultSource::Random {
                probability,
                magnitude,
                jobs_per_task,
                seeds,
            } => {
                let cfg = RandomFaults {
                    overrun_probability: *probability,
                    magnitude: *magnitude,
                    jobs_per_task: *jobs_per_task,
                };
                (seeds.0..seeds.1)
                    .map(|seed| (format!("random-s{seed}"), cfg.sample(set, seed)))
                    .collect()
            }
        }
    }
}

/// One platform model: timer grid × stop mechanics × overhead charges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PlatformSpec {
    /// Timer release-grid model.
    pub timer: TimerModel,
    /// Stop-flag poll model.
    pub stop: StopModel,
    /// Scheduling-overhead charges.
    pub overheads: Overheads,
}

impl PlatformSpec {
    /// Exact timers, immediate stops, free overheads.
    pub const EXACT: PlatformSpec = PlatformSpec {
        timer: TimerModel::EXACT,
        stop: StopModel::IMMEDIATE,
        overheads: Overheads::NONE,
    };

    /// The paper's platform: jRate 10 ms timer grid.
    pub fn jrate() -> Self {
        PlatformSpec {
            timer: TimerModel::jrate(),
            ..PlatformSpec::EXACT
        }
    }

    /// Stable label for reports (delegates to the query plane's
    /// [`PlatformModel`], the single rendering of platform fields).
    pub fn label(&self) -> String {
        self.to_model().label()
    }

    /// Project onto the serializable platform vocabulary of
    /// [`rtft_core::query`] — a `PlatformSpec` is now a thin wrapper
    /// binding that vocabulary to the simulator's executable models.
    pub fn to_model(&self) -> PlatformModel {
        PlatformModel {
            quantum: self.timer.quantum,
            poll: self.stop.poll,
            poll_overhead: self.stop.poll_overhead,
            dispatch: self.overheads.dispatch,
            detector_fire: self.overheads.detector_fire,
        }
    }

    /// Lift a serialized [`PlatformModel`] back into the simulator's
    /// executable timer/stop/overhead models.
    pub fn from_model(m: &PlatformModel) -> Self {
        PlatformSpec {
            timer: match m.quantum {
                None => TimerModel::EXACT,
                Some(q) => TimerModel::quantized(q),
            },
            stop: StopModel {
                poll: m.poll,
                poll_overhead: m.poll_overhead,
            },
            overheads: Overheads {
                dispatch: m.dispatch,
                detector_fire: m.detector_fire,
            },
        }
    }
}

/// A declarative campaign: the grid is the cross product `sets ×
/// policies × cores × placements × allocs × faults × treatments ×
/// platforms`.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Campaign label used in reports and artifacts.
    pub name: String,
    /// Task-set sources.
    pub sets: Vec<SetSource>,
    /// Scheduling policies (empty = fixed priority only).
    pub policies: Vec<PolicyKind>,
    /// Core counts (empty = uniprocessor only). A `cores > 1` job is
    /// partitioned by its allocator and runs one engine per core, or —
    /// under [`Placement::Global`] — runs one migrating engine over all
    /// cores.
    pub cores: Vec<usize>,
    /// Multiprocessor placements (empty = partitioned only, the
    /// historical grid). Moot on 1 core, where both kinds collapse to
    /// the uniprocessor pipeline.
    pub placements: Vec<Placement>,
    /// Partitioning allocators (empty = first-fit decreasing only).
    /// Irrelevant on 1 core, where every allocator yields the trivial
    /// partition, and under global placement, which does not partition.
    pub allocs: Vec<AllocPolicy>,
    /// Fault-plan sources.
    pub faults: Vec<FaultSource>,
    /// Treatments to run.
    pub treatments: Vec<Treatment>,
    /// Platform models.
    pub platforms: Vec<PlatformSpec>,
    /// Simulation horizon for every job.
    pub horizon: Instant,
    /// Run the differential sim-vs-analysis oracle on every job.
    pub oracle: bool,
}

impl Default for CampaignSpec {
    fn default() -> Self {
        CampaignSpec {
            name: "campaign".to_string(),
            sets: Vec::new(),
            policies: Vec::new(),
            cores: Vec::new(),
            placements: Vec::new(),
            allocs: Vec::new(),
            faults: Vec::new(),
            treatments: Vec::new(),
            platforms: Vec::new(),
            horizon: Instant::from_millis(3000),
            oracle: true,
        }
    }
}

/// One fully concrete job of the expanded grid.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// Position in the expanded grid (stable across runs).
    pub index: usize,
    /// Ordinal of the concrete `(set instance, policy, cores,
    /// placement, alloc)` tuple — engine workers key their memoized
    /// `Workbench` on it (a [`rtft_part::PartitionedAnalyzer`] over the
    /// single-core or the allocator's partition, or a
    /// [`rtft_global::GlobalAnalyzer`] for global multicore; each is
    /// built for one policy over one placement of one set).
    pub set_ordinal: usize,
    /// Label of the set instance.
    pub set_label: String,
    /// The task set (shared across the jobs of one instance).
    pub set: Arc<TaskSet>,
    /// Scheduling policy this job runs (and is analysed) under.
    pub policy: PolicyKind,
    /// Core count (1 = the uniprocessor engine, bit-identical to the
    /// pre-multicore pipeline).
    pub cores: usize,
    /// Multiprocessor placement kind when `cores > 1`.
    pub placement: Placement,
    /// Allocator partitioning the set when `cores > 1` (unused under
    /// [`Placement::Global`]).
    pub alloc: AllocPolicy,
    /// Label of the fault instance.
    pub fault_label: String,
    /// The concrete fault plan.
    pub faults: FaultPlan,
    /// Treatment under test.
    pub treatment: Treatment,
    /// Platform model.
    pub platform: PlatformSpec,
    /// Simulation horizon.
    pub horizon: Instant,
}

impl JobSpec {
    /// Build the harness scenario this job runs.
    pub fn scenario(&self) -> rtft_ft::harness::Scenario {
        rtft_ft::harness::Scenario::new(
            format!(
                "{}/{}/{}/{}/{}",
                self.set_label,
                self.policy.label(),
                self.fault_label,
                self.treatment.name(),
                self.platform.label()
            ),
            (*self.set).clone(),
            self.faults.clone(),
            self.treatment,
            self.horizon,
        )
        .with_timer_model(self.platform.timer)
        .with_stop_model(self.platform.stop)
        .with_overheads(self.platform.overheads)
        .with_policy(self.policy)
    }

    /// Lower this job to the query plane's [`SystemSpec`] — the one
    /// value the `Workbench`, the per-core engines and the repro
    /// artifact all consume. The campaign-only axes (treatment,
    /// horizon, oracle switch) stay on the job: they parameterize the
    /// *experiment*, not the system.
    pub fn system_spec(&self) -> SystemSpec {
        SystemSpec {
            name: self.set_label.clone(),
            set: (*self.set).clone(),
            policy: self.policy,
            cores: self.cores,
            placement: self.placement,
            alloc: self.alloc,
            faults: self
                .faults
                .entries()
                .map(|(task, job, delta)| FaultEntry { task, job, delta })
                .collect(),
            platform: self.platform.to_model(),
        }
    }

    /// Serialize this job as a standalone one-job campaign spec — the
    /// repro artifact emitted for oracle violations. The system body is
    /// the [`SystemSpec`] line rendering (the campaign format is a thin
    /// wrapper over it: a header, the system lines, the treatment).
    /// Round-trips through [`parse_spec`].
    pub fn repro_spec(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# repro: job {} ({})", self.index, self.set_label);
        let _ = writeln!(out, "campaign repro-job{}", self.index);
        let _ = writeln!(
            out,
            "horizon {}ns",
            (self.horizon - Instant::EPOCH).as_nanos()
        );
        let _ = writeln!(out, "oracle on");
        self.system_spec().render_lines(&mut out);
        let _ = writeln!(out, "treatment {}", treatment_keyword(self.treatment));
        out
    }
}

impl CampaignSpec {
    /// Expand the grid into concrete jobs, in a deterministic order
    /// (sets outermost, then policies, cores, placements, allocators,
    /// faults, treatments, platforms — jobs of one `(set instance,
    /// policy, cores, placement, alloc)` tuple are contiguous so engine
    /// workers can reuse one analysis session per tuple).
    ///
    /// # Errors
    /// [`SpecError`] when a fault source names a task absent from a set,
    /// or the spec has an empty axis.
    pub fn expand(&self) -> Result<Vec<JobSpec>, SpecError> {
        let fail = |message: String| SpecError { line: 0, message };
        if self.sets.is_empty() {
            return Err(fail("campaign has no task-set source".into()));
        }
        let policies: Vec<PolicyKind> = if self.policies.is_empty() {
            vec![PolicyKind::FixedPriority]
        } else {
            self.policies.clone()
        };
        let cores: Vec<usize> = if self.cores.is_empty() {
            vec![1]
        } else {
            self.cores.clone()
        };
        let placements: Vec<Placement> = if self.placements.is_empty() {
            vec![Placement::Partitioned]
        } else {
            self.placements.clone()
        };
        let allocs: Vec<AllocPolicy> = if self.allocs.is_empty() {
            vec![AllocPolicy::FirstFitDecreasing]
        } else {
            self.allocs.clone()
        };
        let faults: Vec<FaultSource> = if self.faults.is_empty() {
            vec![FaultSource::None]
        } else {
            self.faults.clone()
        };
        let treatments: Vec<Treatment> = if self.treatments.is_empty() {
            Treatment::paper_lineup().to_vec()
        } else {
            self.treatments.clone()
        };
        let platforms: Vec<PlatformSpec> = if self.platforms.is_empty() {
            vec![PlatformSpec::EXACT]
        } else {
            self.platforms.clone()
        };

        let mut jobs = Vec::new();
        let mut set_ordinal = 0usize;
        for source in &self.sets {
            for (set_label, set) in source.instances() {
                let set = Arc::new(set);
                // Fault targets are policy-independent: validate once
                // per set instance, not once per policy.
                for fsource in &faults {
                    for (task, job, _) in fsource_targets(fsource) {
                        if set.by_id(task).is_none() {
                            return Err(fail(format!(
                                "fault targets task {task:?} job {job}, absent from set `{set_label}`"
                            )));
                        }
                    }
                }
                for &policy in &policies {
                    for &core_count in &cores {
                        for &placement in &placements {
                            for &alloc in &allocs {
                                for fsource in &faults {
                                    for (fault_label, plan) in fsource.instances(&set) {
                                        for &treatment in &treatments {
                                            for &platform in &platforms {
                                                jobs.push(JobSpec {
                                                    index: jobs.len(),
                                                    set_ordinal,
                                                    set_label: set_label.clone(),
                                                    set: Arc::clone(&set),
                                                    policy,
                                                    cores: core_count,
                                                    placement,
                                                    alloc,
                                                    fault_label: fault_label.clone(),
                                                    faults: plan.clone(),
                                                    treatment,
                                                    platform,
                                                    horizon: self.horizon,
                                                });
                                            }
                                        }
                                    }
                                }
                                set_ordinal += 1;
                            }
                        }
                    }
                }
            }
        }
        Ok(jobs)
    }

    /// Number of jobs the grid expands to (without materializing sets).
    pub fn job_count(&self) -> usize {
        let sets: usize = self
            .sets
            .iter()
            .map(|s| match s {
                SetSource::UUniFast { seeds, .. } => (seeds.1.saturating_sub(seeds.0)) as usize,
                _ => 1,
            })
            .sum();
        let faults: usize = if self.faults.is_empty() {
            1
        } else {
            self.faults
                .iter()
                .map(|f| match f {
                    FaultSource::Single { deltas, .. } => deltas.len(),
                    FaultSource::Random { seeds, .. } => (seeds.1.saturating_sub(seeds.0)) as usize,
                    _ => 1,
                })
                .sum()
        };
        let treatments = if self.treatments.is_empty() {
            Treatment::paper_lineup().len()
        } else {
            self.treatments.len()
        };
        let platforms = self.platforms.len().max(1);
        let policies = self.policies.len().max(1);
        let cores = self.cores.len().max(1);
        let placements = self.placements.len().max(1);
        let allocs = self.allocs.len().max(1);
        sets * policies * cores * placements * allocs * faults * treatments * platforms
    }
}

/// Explicit fault targets of a source (for validation against a set).
pub(crate) fn fsource_targets(source: &FaultSource) -> Vec<(TaskId, u64, Duration)> {
    match source {
        FaultSource::Explicit(plan) => plan.entries().collect(),
        FaultSource::Single { task, job, deltas } => {
            deltas.iter().map(|d| (*task, *job, *d)).collect()
        }
        _ => Vec::new(),
    }
}

/// A spec-file problem with its 1-based line number (0 for whole-spec
/// errors).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpecError {
    /// Offending line (0 when not tied to a line).
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line == 0 {
            write!(f, "campaign spec error: {}", self.message)
        } else {
            write!(
                f,
                "campaign spec error at line {}: {}",
                self.line, self.message
            )
        }
    }
}

impl std::error::Error for SpecError {}

/// The spec-file keyword of a treatment (`none|detect|stop|equitable|
/// system`) — the inverse of [`parse_treatment`], also used to label
/// trace captures.
pub fn treatment_keyword(t: Treatment) -> &'static str {
    match t {
        Treatment::NoDetection => "none",
        Treatment::DetectOnly => "detect",
        Treatment::ImmediateStop { .. } => "stop",
        Treatment::EquitableAllowance { .. } => "equitable",
        Treatment::SystemAllowance { .. } => "system",
    }
}

/// Parse a treatment keyword (`none|detect|stop|equitable|system`), with
/// the paper's permanent-stop semantics.
pub fn parse_treatment(name: &str) -> Result<Treatment, String> {
    Ok(match name {
        "none" => Treatment::NoDetection,
        "detect" => Treatment::DetectOnly,
        "stop" => Treatment::ImmediateStop {
            mode: StopMode::Permanent,
        },
        "equitable" => Treatment::EquitableAllowance {
            mode: StopMode::Permanent,
        },
        "system" => Treatment::SystemAllowance {
            mode: StopMode::Permanent,
            policy: rtft_core::allowance::SlackPolicy::ProtectAll,
        },
        other => return Err(format!("unknown treatment `{other}`")),
    })
}

/// Split a `key=value` token.
fn kv(token: &str) -> Result<(&str, &str), String> {
    token
        .split_once('=')
        .ok_or_else(|| format!("expected key=value, got `{token}`"))
}

/// Parse `a..b` into a half-open `u64` range.
fn parse_seed_range(v: &str) -> Result<(u64, u64), String> {
    let (a, b) = v
        .split_once("..")
        .ok_or_else(|| format!("expected <start>..<end>, got `{v}`"))?;
    let a: u64 = a
        .parse()
        .map_err(|e| format!("bad range start `{a}`: {e}"))?;
    let b: u64 = b.parse().map_err(|e| format!("bad range end `{b}`: {e}"))?;
    if b <= a {
        return Err(format!("empty seed range `{v}`"));
    }
    Ok((a, b))
}

fn parse_duration_range(v: &str) -> Result<(Duration, Duration), String> {
    let (a, b) = v
        .split_once("..")
        .ok_or_else(|| format!("expected <dur>..<dur>, got `{v}`"))?;
    Ok((a.parse()?, b.parse()?))
}

/// Parse a campaign spec file.
///
/// Line grammar (`#` starts a comment; blank lines ignored):
///
/// ```text
/// campaign <name>
/// horizon <duration>
/// oracle on|off
/// task <name> <priority> <period> <deadline> <cost> [offset]   # inline set
/// fault <task-name> job <n> overrun|underrun <duration>        # inline plan
/// taskgen paper
/// taskgen uunifast n=<int> u=<float> seeds=<a>..<b> [cap=<f>]
///         [periods=<dur>..<dur>] [deadlines=implicit|constrained|arbitrary]
/// faults none | paper
/// faults single task=<id> job=<n> overrun=<dur>[,<dur>...]
/// faults random p=<float> mag=<dur>..<dur> jobs=<n> seeds=<a>..<b>
/// policy fp|edf|npfp... | all       # scheduling policies (grid axis)
/// cores <n>...                      # core counts (grid axis)
/// placement partitioned|global... | all   # multiprocessor placement (grid axis)
/// alloc ffd|bfd|wfd|exhaustive... | all   # partition allocators (grid axis)
/// treatment none|detect|stop|equitable|system|all
/// platform exact|jrate|quantum=<dur> [poll=<dur>] [pollovh=<dur>]
///          [dispatch=<dur>] [detfire=<dur>]
/// ```
///
/// A `policy` line lists one or more dispatch rules (`policy fp edf
/// npfp` and `policy all` are equivalent); each expands the grid by one
/// job per listed policy — analysis, detector thresholds and the
/// differential oracle all follow the policy.
///
/// `cores`, `placement` and `alloc` lines expand the grid the same
/// way: a partitioned `cores n` job with `n > 1` is partitioned by its
/// allocator (per-core feasibility probes under the job's policy) and
/// runs one engine per core, while a `placement global` job skips the
/// allocator and runs one migrating engine over all `n` cores (its
/// analysis is the sufficient global test — see `rtft-global`); `alloc
/// all` lists the three bin-packing heuristics (ffd, bfd, wfd) and
/// `placement all` both placement kinds. With `cores 1` every
/// allocator and placement yields the uniprocessor pipeline,
/// bit-identical to a spec without these lines.
///
/// Inline `task` lines form one [`SetSource::Inline`]; inline `fault`
/// lines form one [`FaultSource::Explicit`]. Omitted axes default to
/// fault-free / fixed-priority dispatch / the full paper treatment
/// lineup / the exact platform.
///
/// # Errors
/// [`SpecError`] with the offending line number.
pub fn parse_spec(text: &str) -> Result<CampaignSpec, SpecError> {
    parse_spec_with_warnings(text).map(|(spec, _)| spec)
}

/// A non-fatal problem noticed while parsing a campaign spec — today
/// always a repeated scalar directive (`campaign`, `horizon`,
/// `oracle`), whose last value silently wins. `rtft campaign` prints
/// these to stderr; `rtft lint` reports them as `RT030`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SpecWarning {
    /// Offending 1-based line (the *repeated* occurrence).
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for SpecWarning {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "campaign spec warning at line {}: {}",
            self.line, self.message
        )
    }
}

/// [`parse_spec`], but returning the non-fatal [`SpecWarning`]s the
/// grammar used to swallow alongside the spec.
///
/// # Errors
/// [`SpecError`] with the offending line number.
pub fn parse_spec_with_warnings(text: &str) -> Result<(CampaignSpec, Vec<SpecWarning>), SpecError> {
    let mut spec = CampaignSpec::default();
    let mut warnings: Vec<SpecWarning> = Vec::new();
    let mut seen_scalar: BTreeMap<&str, usize> = BTreeMap::new();
    let mut inline = SystemLines::default();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let words: Vec<&str> = line.split_ascii_whitespace().collect();
        let err = |message: String| SpecError {
            line: line_no,
            message,
        };

        if matches!(words[0], "campaign" | "horizon" | "oracle") {
            if let Some(prev) = seen_scalar.insert(words[0], line_no) {
                warnings.push(SpecWarning {
                    line: line_no,
                    message: format!(
                        "duplicate `{}` directive: this value overrides line {prev}",
                        words[0]
                    ),
                });
            }
        }

        match words[0] {
            "campaign" => {
                spec.name = words[1..].join(" ");
                if spec.name.is_empty() {
                    return Err(err("campaign: missing name".into()));
                }
            }
            "horizon" => {
                let d = words
                    .get(1)
                    .ok_or_else(|| err("horizon: missing duration".into()))
                    .and_then(|w| w.parse::<Duration>().map_err(&err))?;
                if !d.is_positive() {
                    return Err(err("horizon must be positive".into()));
                }
                spec.horizon = Instant::EPOCH + d;
            }
            "oracle" => match words.get(1).copied() {
                Some("on") => spec.oracle = true,
                Some("off") => spec.oracle = false,
                _ => return Err(err("oracle: expected on|off".into())),
            },
            "task" => {
                inline.task(&words[1..], true).map_err(&err)?;
            }
            "fault" => {
                inline.fault(&words[1..]).map_err(&err)?;
            }
            "taskgen" => match words.get(1).copied() {
                Some("paper") => spec.sets.push(SetSource::Paper),
                Some("uunifast") => {
                    let mut n = None;
                    let mut u = None;
                    let mut cap = 0.9f64;
                    let mut periods = (Duration::millis(10), Duration::secs(1));
                    let mut deadlines = DeadlineKind::Implicit;
                    let mut seeds = None;
                    for token in &words[2..] {
                        let (k, v) = kv(token).map_err(&err)?;
                        match k {
                            "n" => {
                                n = Some(v.parse().map_err(|e| err(format!("bad n `{v}`: {e}")))?)
                            }
                            "u" => {
                                u = Some(v.parse().map_err(|e| err(format!("bad u `{v}`: {e}")))?)
                            }
                            "cap" => {
                                cap = v.parse().map_err(|e| err(format!("bad cap `{v}`: {e}")))?;
                            }
                            "periods" => periods = parse_duration_range(v).map_err(&err)?,
                            "seeds" => seeds = Some(parse_seed_range(v).map_err(&err)?),
                            "deadlines" => {
                                deadlines = match v {
                                    "implicit" => DeadlineKind::Implicit,
                                    "constrained" => DeadlineKind::Constrained,
                                    "arbitrary" => DeadlineKind::Arbitrary,
                                    other => {
                                        return Err(err(format!("unknown deadline kind `{other}`")))
                                    }
                                }
                            }
                            other => return Err(err(format!("unknown uunifast key `{other}`"))),
                        }
                    }
                    let n: usize = n.ok_or_else(|| err("uunifast: missing n=".into()))?;
                    let u: f64 = u.ok_or_else(|| err("uunifast: missing u=".into()))?;
                    if n == 0 || !(u > 0.0 && u <= n as f64) {
                        return Err(err("uunifast: need n ≥ 1 and 0 < u ≤ n".into()));
                    }
                    spec.sets.push(SetSource::UUniFast {
                        n,
                        utilization: u,
                        cap,
                        periods,
                        deadlines,
                        seeds: seeds.unwrap_or((0, 1)),
                    });
                }
                _ => return Err(err("taskgen: expected paper|uunifast".into())),
            },
            "faults" => match words.get(1).copied() {
                Some("none") => spec.faults.push(FaultSource::None),
                Some("paper") => spec.faults.push(FaultSource::Paper),
                Some("single") => {
                    let mut task = None;
                    let mut job = 0u64;
                    let mut deltas = Vec::new();
                    for token in &words[2..] {
                        let (k, v) = kv(token).map_err(&err)?;
                        match k {
                            "task" => {
                                task = Some(TaskId(
                                    v.parse()
                                        .map_err(|e| err(format!("bad task id `{v}`: {e}")))?,
                                ))
                            }
                            "job" => {
                                job = v.parse().map_err(|e| err(format!("bad job `{v}`: {e}")))?;
                            }
                            "overrun" => {
                                for part in v.split(',') {
                                    let d: Duration = part.parse().map_err(&err)?;
                                    if !d.is_positive() {
                                        return Err(err("overrun must be positive".into()));
                                    }
                                    deltas.push(d);
                                }
                            }
                            other => return Err(err(format!("unknown single key `{other}`"))),
                        }
                    }
                    let task = task.ok_or_else(|| err("single: missing task=".into()))?;
                    if deltas.is_empty() {
                        return Err(err("single: missing overrun=".into()));
                    }
                    spec.faults.push(FaultSource::Single { task, job, deltas });
                }
                Some("random") => {
                    let mut probability = None;
                    let mut magnitude = None;
                    let mut jobs = None;
                    let mut seeds = None;
                    for token in &words[2..] {
                        let (k, v) = kv(token).map_err(&err)?;
                        match k {
                            "p" => {
                                probability =
                                    Some(v.parse().map_err(|e| err(format!("bad p `{v}`: {e}")))?)
                            }
                            "mag" => magnitude = Some(parse_duration_range(v).map_err(&err)?),
                            "jobs" => {
                                jobs = Some(
                                    v.parse().map_err(|e| err(format!("bad jobs `{v}`: {e}")))?,
                                )
                            }
                            "seeds" => seeds = Some(parse_seed_range(v).map_err(&err)?),
                            other => return Err(err(format!("unknown random key `{other}`"))),
                        }
                    }
                    let probability: f64 =
                        probability.ok_or_else(|| err("random: missing p=".into()))?;
                    if !(0.0..=1.0).contains(&probability) {
                        return Err(err("random: p must be in [0, 1]".into()));
                    }
                    let magnitude = magnitude.ok_or_else(|| err("random: missing mag=".into()))?;
                    if !magnitude.0.is_positive() || magnitude.1 < magnitude.0 {
                        return Err(err("random: bad magnitude range".into()));
                    }
                    spec.faults.push(FaultSource::Random {
                        probability,
                        magnitude,
                        jobs_per_task: jobs.ok_or_else(|| err("random: missing jobs=".into()))?,
                        seeds: seeds.unwrap_or((0, 1)),
                    });
                }
                _ => return Err(err("faults: expected none|paper|single|random".into())),
            },
            "policy" => {
                if words.len() < 2 {
                    return Err(err("policy: expected fp|edf|npfp|all".into()));
                }
                for word in &words[1..] {
                    if *word == "all" {
                        spec.policies.extend(PolicyKind::ALL);
                    } else {
                        spec.policies.push(word.parse().map_err(&err)?);
                    }
                }
            }
            "cores" => {
                if words.len() < 2 {
                    return Err(err("cores: expected one or more counts ≥ 1".into()));
                }
                for word in &words[1..] {
                    spec.cores.push(parse_cores(word).map_err(&err)?);
                }
            }
            "placement" => {
                if words.len() < 2 {
                    return Err(err("placement: expected partitioned|global|all".into()));
                }
                for word in &words[1..] {
                    if *word == "all" {
                        spec.placements.extend(Placement::ALL);
                    } else {
                        spec.placements.push(word.parse().map_err(&err)?);
                    }
                }
            }
            "alloc" => {
                if words.len() < 2 {
                    return Err(err("alloc: expected ffd|bfd|wfd|exhaustive|all".into()));
                }
                for word in &words[1..] {
                    if *word == "all" {
                        spec.allocs.extend(AllocPolicy::HEURISTICS);
                    } else {
                        spec.allocs.push(word.parse().map_err(&err)?);
                    }
                }
            }
            "treatment" => match words.get(1).copied() {
                Some("all") => spec.treatments.extend(Treatment::paper_lineup()),
                Some(name) => spec.treatments.push(parse_treatment(name).map_err(&err)?),
                None => return Err(err("treatment: missing name".into())),
            },
            "platform" => {
                // The platform token grammar is the query plane's (one
                // parser, shared with `rtft query` batches).
                let model = PlatformModel::parse_tokens(&words[1..]).map_err(&err)?;
                spec.platforms.push(PlatformSpec::from_model(&model));
            }
            other => return Err(err(format!("unknown directive `{other}`"))),
        }
    }

    let (inline_tasks, _, faults) = inline.into_parts();
    if !inline_tasks.is_empty() {
        let set = TaskSet::new(inline_tasks).map_err(|e| SpecError {
            line: 0,
            message: format!("inline task set invalid: {e}"),
        })?;
        spec.sets.insert(0, SetSource::Inline(set));
    }
    // A fault line names an inline task, so inline faults always come
    // with the inline set.
    if !faults.is_empty() {
        spec.faults
            .insert(0, FaultSource::Explicit(faults.into_iter().collect()));
    }
    Ok((spec, warnings))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = "\
campaign smoke
horizon 1300ms
oracle on
taskgen paper
faults paper
treatment all
platform jrate
";

    #[test]
    fn parses_and_expands_the_paper_grid() {
        let spec = parse_spec(SMALL).unwrap();
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.horizon, Instant::from_millis(1300));
        assert!(spec.oracle);
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 5, "one per treatment");
        assert_eq!(spec.job_count(), 5);
        assert_eq!(jobs[0].index, 0);
        assert_eq!(jobs[0].set_label, "paper");
        assert_eq!(jobs[0].platform, PlatformSpec::jrate());
    }

    #[test]
    fn inline_tasks_and_faults_round_trip_via_repro() {
        let text = "\
horizon 1300ms
task tau1 20 200ms 70ms 29ms
task tau3 16 1500ms 120ms 29ms 1000ms
fault tau1 job 5 overrun 40ms
treatment system
platform jrate poll=1ms
";
        let spec = parse_spec(text).unwrap();
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 1);
        let repro = jobs[0].repro_spec();
        let back = parse_spec(&repro).unwrap();
        let back_jobs = back.expand().unwrap();
        assert_eq!(back_jobs.len(), 1);
        assert_eq!(*back_jobs[0].set, *jobs[0].set);
        assert_eq!(back_jobs[0].faults, jobs[0].faults);
        assert_eq!(back_jobs[0].treatment, jobs[0].treatment);
        assert_eq!(back_jobs[0].platform, jobs[0].platform);
        assert_eq!(back_jobs[0].horizon, jobs[0].horizon);
        assert_eq!(back_jobs[0].policy, jobs[0].policy);
        assert_eq!(back_jobs[0].cores, jobs[0].cores);
        assert_eq!(back_jobs[0].alloc, jobs[0].alloc);
    }

    #[test]
    fn policy_axis_expands_the_grid() {
        let text = "\
taskgen paper
policy fp edf
policy npfp
treatment detect
platform exact
";
        let spec = parse_spec(text).unwrap();
        assert_eq!(
            spec.policies,
            vec![
                PolicyKind::FixedPriority,
                PolicyKind::Edf,
                PolicyKind::NonPreemptiveFp
            ]
        );
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 3);
        assert_eq!(spec.job_count(), 3);
        // Jobs of one (set, policy) pair get their own session ordinal.
        assert_eq!(jobs[0].policy, PolicyKind::FixedPriority);
        assert_eq!(jobs[2].policy, PolicyKind::NonPreemptiveFp);
        assert_ne!(jobs[0].set_ordinal, jobs[1].set_ordinal);
        // `policy all` is the same axis.
        let all = parse_spec("taskgen paper\npolicy all\ntreatment detect\n").unwrap();
        assert_eq!(all.policies, PolicyKind::ALL.to_vec());
        // A non-FP job's repro names its policy and round-trips.
        let edf_job = &jobs[1];
        assert_eq!(edf_job.policy, PolicyKind::Edf);
        let back = parse_spec(&edf_job.repro_spec()).unwrap();
        assert_eq!(back.policies, vec![PolicyKind::Edf]);
    }

    #[test]
    fn cores_and_alloc_axes_expand_the_grid() {
        let text = "\
taskgen paper
cores 1 2
alloc ffd wfd
treatment detect
platform exact
";
        let spec = parse_spec(text).unwrap();
        assert_eq!(spec.cores, vec![1, 2]);
        assert_eq!(
            spec.allocs,
            vec![
                AllocPolicy::FirstFitDecreasing,
                AllocPolicy::WorstFitDecreasing
            ]
        );
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 4);
        assert_eq!(spec.job_count(), 4);
        // Each (cores, alloc) cell owns its session ordinal.
        let ordinals: Vec<usize> = jobs.iter().map(|j| j.set_ordinal).collect();
        assert_eq!(ordinals, vec![0, 1, 2, 3]);
        assert_eq!((jobs[0].cores, jobs[0].alloc.label()), (1, "ffd"));
        assert_eq!((jobs[3].cores, jobs[3].alloc.label()), (2, "wfd"));
        // `alloc all` lists the three heuristics.
        let all = parse_spec("taskgen paper\nalloc all\ntreatment detect\n").unwrap();
        assert_eq!(all.allocs, AllocPolicy::HEURISTICS.to_vec());
        // A multicore job's repro names cores and alloc and round-trips.
        let repro = jobs[3].repro_spec();
        let back = parse_spec(&repro).unwrap();
        assert_eq!(back.cores, vec![2]);
        assert_eq!(back.allocs, vec![AllocPolicy::WorstFitDecreasing]);
        let back_jobs = back.expand().unwrap();
        assert_eq!(back_jobs[0].cores, 2);
        assert_eq!(back_jobs[0].alloc, AllocPolicy::WorstFitDecreasing);
    }

    #[test]
    fn bad_cores_and_alloc_lines_error_with_line_numbers() {
        for (text, needle) in [
            ("cores\n", "expected one or more"),
            ("cores 0\n", "must be ≥ 1"),
            ("cores two\n", "bad core count"),
            ("cores 1 99999999999\n", "≤ 65535"),
            ("alloc\n", "expected ffd|bfd|wfd"),
            ("alloc sideways\n", "unknown allocator"),
        ] {
            let e = parse_spec(text).unwrap_err();
            assert!(e.message.contains(needle), "{text}: {e}");
            assert_eq!(e.line, 1);
        }
    }

    #[test]
    fn bad_policy_lines_error_with_line_numbers() {
        for (text, needle) in [
            ("policy sideways\n", "unknown policy"),
            ("policy\n", "expected fp|edf|npfp|all"),
        ] {
            let e = parse_spec(text).unwrap_err();
            assert!(e.message.contains(needle), "{text}: {e}");
            assert_eq!(e.line, 1);
        }
    }

    #[test]
    fn uunifast_and_random_sources_expand_per_seed() {
        let text = "\
taskgen uunifast n=4 u=0.6 seeds=0..3 periods=20ms..200ms
faults random p=0.1 mag=1ms..5ms jobs=16 seeds=0..2
treatment detect
platform exact
";
        let spec = parse_spec(text).unwrap();
        let jobs = spec.expand().unwrap();
        assert_eq!(jobs.len(), 3 * 2);
        assert_eq!(spec.job_count(), 6);
        // Jobs of one set instance are contiguous with a shared ordinal.
        assert_eq!(jobs[0].set_ordinal, jobs[1].set_ordinal);
        assert_ne!(jobs[1].set_ordinal, jobs[2].set_ordinal);
        // Deterministic: expanding twice yields the same plans.
        let again = spec.expand().unwrap();
        assert_eq!(jobs[3].faults, again[3].faults);
    }

    #[test]
    fn defaults_fill_missing_axes() {
        let spec = parse_spec("taskgen paper\n").unwrap();
        let jobs = spec.expand().unwrap();
        // fault-free × full lineup × exact platform.
        assert_eq!(jobs.len(), 5);
        assert_eq!(jobs[0].fault_label, "fault-free");
        assert_eq!(jobs[0].platform, PlatformSpec::EXACT);
    }

    #[test]
    fn errors_carry_line_numbers() {
        for (text, needle) in [
            ("bogus directive\n", "unknown directive"),
            ("treatment sideways\n", "unknown treatment"),
            ("taskgen uunifast u=0.5\n", "missing n="),
            ("faults single job=0 overrun=5ms\n", "missing task="),
            ("faults random p=2.0 mag=1ms..2ms jobs=4\n", "p must be in"),
            ("horizon 0ms\n", "positive"),
            ("oracle maybe\n", "expected on|off"),
            ("fault tau9 job 0 overrun 5ms\n", "unknown task"),
        ] {
            let e = parse_spec(text).unwrap_err();
            assert!(e.message.contains(needle), "{text}: {e}");
            assert_eq!(e.line, 1, "{text}");
        }
    }

    #[test]
    fn nonpositive_and_overflowing_inline_faults_are_line_errors() {
        const MAX: &str = "9223372036854775807ns";
        for (faults, message) in [
            (
                "fault a job 0 overrun 0ms\n",
                "overrun amount `0ms` must be greater than zero",
            ),
            (
                "fault a job 0 underrun -5ms\n",
                "underrun amount `-5ms` must be greater than zero",
            ),
            (
                &format!("fault a job 0 overrun {MAX}\nfault a job 0 overrun {MAX}\n"),
                "summed fault delta of `a` job 0 overflows",
            ),
        ] {
            let text = format!("campaign c\ntask a 1 10ms 10ms 1ms\n{faults}treatment detect\n");
            let e = parse_spec(&text).unwrap_err();
            assert_eq!(e.message, message, "{text}");
            assert_eq!(e.line, faults.lines().count() + 2, "{text}");
        }
        // Repeats that fit sum into one plan entry.
        let spec = parse_spec(&format!(
            "task a 1 10ms 10ms 1ms\nfault a job 0 overrun {MAX}\nfault a job 0 underrun 2ns\n"
        ))
        .unwrap();
        let FaultSource::Explicit(plan) = &spec.faults[0] else {
            panic!("inline faults form an explicit plan");
        };
        assert_eq!(plan.delta(TaskId(1), 0), Duration::nanos(i64::MAX - 2));
    }

    #[test]
    fn fault_on_missing_task_is_an_expansion_error() {
        let spec = parse_spec(
            "taskgen uunifast n=2 u=0.4 seeds=0..1\nfaults single task=9 job=0 overrun=5ms\n",
        )
        .unwrap();
        let e = spec.expand().unwrap_err();
        assert!(e.message.contains("absent from set"));
    }

    #[test]
    fn empty_spec_is_rejected_at_expansion() {
        let e = CampaignSpec::default().expand().unwrap_err();
        assert!(e.message.contains("no task-set source"));
    }
}
