//! The unified query plane: one serializable request/response vocabulary
//! for every analytical question the workspace answers.
//!
//! Historically "which system, which question" was re-encoded by hand at
//! four surfaces — [`crate::analyzer::Analyzer`] methods, the per-core
//! duplicates of `rtft-part`'s `PartitionedAnalyzer`, campaign job
//! plumbing, and `rtft` CLI flags. This module names both halves once:
//!
//! * [`SystemSpec`] — the one value every layer consumes: a task set
//!   plus scheduling policy, core count and allocator, fault plan, and
//!   platform overheads;
//! * [`Query`] / [`Response`] — the questions of the paper
//!   (feasibility, WCRTs, detection thresholds, equitable and system
//!   allowances, single-task overrun, sensitivity) and their typed
//!   answers, per core where the platform is partitioned.
//!
//! The schedulability vocabulary follows the canonical formulations
//! already in-tree: Joseph & Pandya response-time analysis for the
//! fixed-priority policies, the Baruah–Rosier–Howell processor-demand
//! test with Zhang & Burns' QPA walk for EDF.
//!
//! `rtft-part`'s `Workbench` answers these queries, dispatching to a
//! uniprocessor session (1 core) or per-core sessions (N cores) so
//! callers never branch on platform. This module owns only the data
//! plane: the types and their line/JSON serialization.
//!
//! ## Line format
//!
//! A *query batch* is a system description plus query lines (`#`
//! starts a comment, blank lines are ignored). Its `task` and `fault`
//! lines go through [`SystemLines`], which campaign specs and task
//! files share:
//!
//! ```text
//! system paper
//! task tau1 20 200ms 70ms 29ms
//! task tau2 18 250ms 120ms 29ms
//! task tau3 16 1500ms 120ms 29ms
//! policy fp
//! cores 1
//! alloc ffd
//! platform exact
//! query feasibility
//! query equitable
//! ```
//!
//! [`parse_batch`] and [`render_batch`] round-trip: parsing a rendered
//! batch yields the identical [`SystemSpec`] and [`Query`] list.
//!
//! ```
//! use rtft_core::query::{parse_batch, render_batch, Query};
//!
//! let text = "\
//! system demo
//! task a 2 100ms 100ms 10ms
//! task b 1 200ms 200ms 20ms
//! policy fp
//! cores 1
//! alloc ffd
//! platform exact
//! query feasibility
//! query wcrt
//! ";
//! let (spec, queries) = parse_batch(text).unwrap();
//! assert_eq!(spec.name, "demo");
//! assert_eq!(queries, vec![Query::Feasibility, Query::WcrtAll]);
//! // Round trip: rendering re-parses to the identical batch.
//! let rendered = render_batch(&spec, &queries);
//! assert_eq!(parse_batch(&rendered).unwrap(), (spec, queries));
//! ```

use crate::allowance::SlackPolicy;
use crate::fnv::Fnv1a;
use crate::policy::PolicyKind;
use crate::task::{TaskBuilder, TaskId, TaskSet, TaskSpec};
use crate::time::Duration;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::str::FromStr;

/// Which bin-packing allocator places tasks onto cores when a
/// [`SystemSpec`] names more than one core. The allocators themselves
/// live in `rtft-part`; the *vocabulary* lives here so a serialized
/// spec can name its placement without depending on the implementation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum AllocPolicy {
    /// First-fit decreasing — the default everywhere.
    #[default]
    FirstFitDecreasing,
    /// Best-fit decreasing (tightest fitting core).
    BestFitDecreasing,
    /// Worst-fit decreasing (emptiest fitting core).
    WorstFitDecreasing,
    /// Exhaustive backtracking search (small sets only; test oracle).
    Exhaustive,
}

impl AllocPolicy {
    /// The three production heuristics, in the stable grid-expansion
    /// order used by campaign specs (`alloc all`). The exhaustive
    /// search is deliberately excluded — it is a test oracle.
    pub const HEURISTICS: [AllocPolicy; 3] = [
        AllocPolicy::FirstFitDecreasing,
        AllocPolicy::BestFitDecreasing,
        AllocPolicy::WorstFitDecreasing,
    ];

    /// Short stable label (spec files, report columns, bench ids).
    pub fn label(self) -> &'static str {
        match self {
            AllocPolicy::FirstFitDecreasing => "ffd",
            AllocPolicy::BestFitDecreasing => "bfd",
            AllocPolicy::WorstFitDecreasing => "wfd",
            AllocPolicy::Exhaustive => "exhaustive",
        }
    }
}

impl fmt::Display for AllocPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for AllocPolicy {
    type Err = String;

    /// Parse an allocator keyword: `ffd` (aliases `first-fit`), `bfd`
    /// (`best-fit`), `wfd` (`worst-fit`), `exhaustive`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "ffd" | "first-fit" => AllocPolicy::FirstFitDecreasing,
            "bfd" | "best-fit" => AllocPolicy::BestFitDecreasing,
            "wfd" | "worst-fit" => AllocPolicy::WorstFitDecreasing,
            "exhaustive" => AllocPolicy::Exhaustive,
            other => {
                return Err(format!(
                    "unknown allocator `{other}` (expected ffd|bfd|wfd|exhaustive)"
                ))
            }
        })
    }
}

/// The largest core count a platform may have. The simulation engine
/// attributes trace events to cores with a `u16` tag whose maximum value
/// marks platform-level events, so core indices run `0..u16::MAX`.
pub const MAX_CORES: usize = u16::MAX as usize;

/// Parse a core count: an integer in `1..=`[`MAX_CORES`]. Every reader
/// of a core count (spec and campaign files, CLI flags, capture
/// headers) goes through this one check.
///
/// # Errors
/// A message naming the rejected word.
pub fn parse_cores(word: &str) -> Result<usize, String> {
    match word.parse::<usize>() {
        Ok(n) if (1..=MAX_CORES).contains(&n) => Ok(n),
        Ok(_) => Err(format!(
            "bad core count `{word}`: must be ≥ 1 and ≤ {MAX_CORES}"
        )),
        Err(e) => Err(format!("bad core count `{word}`: {e}")),
    }
}

/// How tasks are mapped onto cores when a [`SystemSpec`] names more
/// than one: partitioned (each task pinned to one core by the
/// [`AllocPolicy`]) or global (one shared ready queue, free migration).
/// On a single core the two coincide. The default is partitioned, so
/// specs that never mention placement keep their historical meaning.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Placement {
    /// Tasks are statically allocated onto cores (the default).
    #[default]
    Partitioned,
    /// One shared ready queue; jobs migrate freely between cores.
    Global,
}

impl Placement {
    /// Both placement kinds, in the stable grid-expansion order used by
    /// campaign specs (`placement all`).
    pub const ALL: [Placement; 2] = [Placement::Partitioned, Placement::Global];

    /// Short stable label (spec files, report columns, bench ids).
    pub fn label(self) -> &'static str {
        match self {
            Placement::Partitioned => "partitioned",
            Placement::Global => "global",
        }
    }
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for Placement {
    type Err = String;

    /// Parse a placement keyword: `partitioned` (alias `part`) or
    /// `global`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "partitioned" | "part" => Placement::Partitioned,
            "global" => Placement::Global,
            other => {
                return Err(format!(
                    "unknown placement `{other}` (expected partitioned|global)"
                ))
            }
        })
    }
}

/// One injected fault: a signed cost delta on one job of one task
/// (positive = overrun, negative = underrun). The executable
/// counterpart is `rtft_sim::fault::FaultPlan`; this is its
/// serializable, simulator-independent projection.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEntry {
    /// The faulty task.
    pub task: TaskId,
    /// Zero-based job index within the run.
    pub job: u64,
    /// Cost delta of that job (positive overrun, negative underrun).
    pub delta: Duration,
}

/// Platform model of a [`SystemSpec`]: timer grid plus the overhead
/// charges the simulator levies. All analysis queries ignore these (the
/// paper's analysis assumes free overheads); they ride along so one
/// spec value describes the *whole* system a campaign job runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PlatformModel {
    /// Timer release grid (`None` = exact timers). 10 ms is the
    /// paper's jRate platform and renders as `jrate`.
    pub quantum: Option<Duration>,
    /// Stop-flag poll period (zero = immediate stops).
    pub poll: Duration,
    /// Charge per stop-flag poll.
    pub poll_overhead: Duration,
    /// Charge per dispatch (context switch).
    pub dispatch: Duration,
    /// Charge per detector firing.
    pub detector_fire: Duration,
}

impl Default for PlatformModel {
    fn default() -> Self {
        PlatformModel::EXACT
    }
}

impl PlatformModel {
    /// Exact timers, immediate stops, free overheads.
    pub const EXACT: PlatformModel = PlatformModel {
        quantum: None,
        poll: Duration::ZERO,
        poll_overhead: Duration::ZERO,
        dispatch: Duration::ZERO,
        detector_fire: Duration::ZERO,
    };

    /// The paper's platform: jRate's 10 ms timer grid.
    pub fn jrate() -> Self {
        PlatformModel {
            quantum: Some(Duration::millis(10)),
            ..PlatformModel::EXACT
        }
    }

    /// Stable label for reports (`exact`, `jrate`, `quantum=5ms+…`).
    pub fn label(&self) -> String {
        self.render("+", |d| d.to_string())
    }

    /// The `platform` spec-line tail (`exact`, `jrate`,
    /// `quantum=<ns>ns poll=<ns>ns …`) — the same field walk as
    /// [`PlatformModel::label`], so the two can never drift.
    pub fn spec_line(&self) -> String {
        self.render(" ", |d| format!("{}ns", d.as_nanos()))
    }

    fn render(&self, sep: &str, fmt: impl Fn(Duration) -> String) -> String {
        let mut s = match self.quantum {
            None => "exact".to_string(),
            Some(q) if q == Duration::millis(10) => "jrate".to_string(),
            Some(q) => format!("quantum={}", fmt(q)),
        };
        for (key, value) in [
            ("poll", self.poll),
            ("pollovh", self.poll_overhead),
            ("dispatch", self.dispatch),
            ("detfire", self.detector_fire),
        ] {
            if value.is_positive() {
                let _ = write!(s, "{sep}{key}={}", fmt(value));
            }
        }
        s
    }

    /// Parse the tokens after the `platform` keyword (shared between
    /// query batches and campaign specs).
    ///
    /// # Errors
    /// A message naming the offending token.
    pub fn parse_tokens(tokens: &[&str]) -> Result<PlatformModel, String> {
        let mut platform = PlatformModel::EXACT;
        for (i, token) in tokens.iter().enumerate() {
            match (i, *token) {
                (0, "exact") => {}
                (0, "jrate") => platform.quantum = Some(Duration::millis(10)),
                _ => {
                    let (k, v) = token
                        .split_once('=')
                        .ok_or_else(|| format!("expected key=value, got `{token}`"))?;
                    let d: Duration = v.parse()?;
                    if !d.is_positive() {
                        return Err(format!("{k} must be positive"));
                    }
                    match k {
                        "quantum" => platform.quantum = Some(d),
                        "poll" => platform.poll = d,
                        "pollovh" => platform.poll_overhead = d,
                        "dispatch" => platform.dispatch = d,
                        "detfire" => platform.detector_fire = d,
                        other => return Err(format!("unknown platform key `{other}`")),
                    }
                }
            }
        }
        Ok(platform)
    }
}

/// The one value every layer consumes: a complete, serializable system
/// description. Analysis (the `Workbench` in `rtft-part`) reads the
/// set, policy and placement; the simulator additionally reads the
/// fault plan and platform; campaign jobs lower to exactly this value.
#[derive(Clone, PartialEq, Debug)]
pub struct SystemSpec {
    /// Label used in reports and artifacts.
    pub name: String,
    /// The tasks under analysis.
    pub set: TaskSet,
    /// Dispatch rule on every core.
    pub policy: PolicyKind,
    /// Core count (1 = uniprocessor, the paper's platform).
    pub cores: usize,
    /// Allocator placing tasks onto cores when `cores > 1` (dead axis
    /// under [`Placement::Global`]).
    pub alloc: AllocPolicy,
    /// Partitioned or global multiprocessor placement (moot at 1 core).
    pub placement: Placement,
    /// Injected faults (ignored by analysis queries).
    pub faults: Vec<FaultEntry>,
    /// Timer grid and overhead charges (ignored by analysis queries).
    pub platform: PlatformModel,
}

impl SystemSpec {
    /// A uniprocessor fixed-priority spec with no faults and an exact
    /// platform — the paper's baseline system shape.
    pub fn uniprocessor(name: impl Into<String>, set: TaskSet) -> Self {
        SystemSpec {
            name: name.into(),
            set,
            policy: PolicyKind::FixedPriority,
            cores: 1,
            alloc: AllocPolicy::FirstFitDecreasing,
            placement: Placement::Partitioned,
            faults: Vec::new(),
            platform: PlatformModel::EXACT,
        }
    }

    /// Replace the scheduling policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Replace the platform shape (`cores` ≥ 1).
    pub fn with_cores(mut self, cores: usize, alloc: AllocPolicy) -> Self {
        assert!(cores >= 1, "a system needs at least one core");
        self.cores = cores;
        self.alloc = alloc;
        self
    }

    /// Replace the multiprocessor placement kind.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Display name of a task (its spec name; falls back to `t<id>` for
    /// ids not in the set).
    pub fn task_name(&self, id: TaskId) -> String {
        self.set
            .by_id(id)
            .map_or_else(|| format!("t{}", id.0), |t| t.name.clone())
    }

    /// Append the system's body lines — `task`, `fault`, `policy`,
    /// `cores`, `alloc`, `placement` (only when global, so legacy
    /// renderings stay byte-identical), `platform` — in the shared line
    /// grammar. This is the single rendering behind both query batches
    /// ([`render_batch`]) and campaign repro artifacts, which wrap the
    /// same body in their own header/trailer lines.
    pub fn render_lines(&self, out: &mut String) {
        SystemLines::render(out, true, self.set.tasks(), self.faults.iter().copied());
        let _ = writeln!(out, "policy {}", self.policy.label());
        let _ = writeln!(out, "cores {}", self.cores);
        let _ = writeln!(out, "alloc {}", self.alloc.label());
        if self.placement != Placement::Partitioned {
            let _ = writeln!(out, "placement {}", self.placement.label());
        }
        let _ = writeln!(out, "platform {}", self.platform.spec_line());
    }
}

/// A stable content hash of a [`SystemSpec`]: FNV-1a over the system
/// name plus the canonical [`SystemSpec::render_lines`] serialization.
/// The name is deliberately part of the hash (two otherwise identical
/// systems with different names are different specs); the separator
/// byte after it is one no rendering contains, so `("ab", "c")` and
/// `("a", "bc")` never collide.
///
/// This is the hash the serve cache keys warm sessions by and the hash
/// a trace capture header pins its originating spec with — byte-equal
/// specs share a key, any edit gets a fresh one.
pub fn spec_hash(spec: &SystemSpec) -> u64 {
    let mut text = spec.name.clone();
    text.push('\0');
    spec.render_lines(&mut text);
    let mut h = Fnv1a::new();
    h.bytes(text.as_bytes());
    h.finish()
}

/// An analytical question about a [`SystemSpec`]. Every variant maps to
/// a memoized `Analyzer` computation; on a partitioned spec the answer
/// is assembled core by core.
///
/// ```
/// use rtft_core::query::Query;
///
/// let q: Query = "equitable".parse().unwrap();
/// assert_eq!(q, Query::EquitableAllowance);
/// assert_eq!(q.to_line(|_| unreachable!()), "query equitable");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Query {
    /// Is the system schedulable under its policy? (Paper §2: load test
    /// plus exact response-time analysis; processor-demand test under
    /// EDF.)
    Feasibility,
    /// Worst-case response time of every task (`None` per task under
    /// EDF, where the demand test yields no per-task bound).
    WcrtAll,
    /// Per-task detection thresholds: WCRTs under the fixed-priority
    /// policies, relative deadlines under EDF.
    Thresholds,
    /// The paper's §4.2 equitable allowance `A`, per core, with the
    /// inflated-WCRT stop thresholds.
    EquitableAllowance,
    /// The paper's §4.3 system allowance `M_i` for every task, under a
    /// slack policy.
    SystemAllowance(SlackPolicy),
    /// Largest overrun one task can make alone (`M_i` of a single
    /// task), under [`SlackPolicy::ProtectAll`].
    MaxSingleOverrun(TaskId),
    /// Critical cost-scaling factor per core (sensitivity analysis).
    Sensitivity,
}

impl Query {
    /// Stable keyword of this query kind (the token after `query`).
    pub fn keyword(&self) -> &'static str {
        match self {
            Query::Feasibility => "feasibility",
            Query::WcrtAll => "wcrt",
            Query::Thresholds => "thresholds",
            Query::EquitableAllowance => "equitable",
            Query::SystemAllowance(_) => "system-allowance",
            Query::MaxSingleOverrun(_) => "overrun",
            Query::Sensitivity => "sensitivity",
        }
    }

    /// The `query …` spec line. `task_name` resolves ids for the
    /// [`Query::MaxSingleOverrun`] operand (use
    /// [`SystemSpec::task_name`]).
    pub fn to_line(&self, task_name: impl Fn(TaskId) -> String) -> String {
        match self {
            Query::SystemAllowance(policy) => format!("query system-allowance {}", policy.label()),
            Query::MaxSingleOverrun(id) => format!("query overrun {}", task_name(*id)),
            q => format!("query {}", q.keyword()),
        }
    }
}

impl FromStr for Query {
    type Err = String;

    /// Parse an operand-free query keyword. `overrun` (which needs a
    /// task operand) is only reachable through [`parse_batch`], where
    /// task names are in scope.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "feasibility" => Query::Feasibility,
            "wcrt" => Query::WcrtAll,
            "thresholds" => Query::Thresholds,
            "equitable" => Query::EquitableAllowance,
            "system-allowance" => Query::SystemAllowance(SlackPolicy::ProtectAll),
            "sensitivity" => Query::Sensitivity,
            other => {
                return Err(format!(
                    "unknown query `{other}` (expected feasibility|wcrt|thresholds|\
                     equitable|system-allowance|overrun <task>|sensitivity)"
                ))
            }
        })
    }
}

/// One task's answer within a [`Response`]: the owning core and an
/// optional duration (`None` = divergent analysis, or no per-task bound
/// under EDF).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TaskValue {
    /// The task.
    pub task: TaskId,
    /// Display name carried from the spec.
    pub name: String,
    /// Core the task is placed on (0 on a uniprocessor).
    pub core: usize,
    /// The duration answer, when defined.
    pub value: Option<Duration>,
}

/// One core's equitable-allowance answer.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct CoreAllowance {
    /// The core.
    pub core: usize,
    /// The uniform allowance `A` (`None` = core empty or infeasible).
    pub allowance: Option<Duration>,
    /// Stop thresholds at the allowance: each task's WCRT with every
    /// cost inflated by `A` (deadlines under EDF).
    pub stop_thresholds: Vec<TaskValue>,
}

/// One core's critical cost-scaling factor.
#[derive(Clone, PartialEq, Debug)]
pub struct CoreScale {
    /// The core.
    pub core: usize,
    /// Largest feasible multiplicative factor (`None` = core empty or
    /// infeasible as-is).
    pub factor: Option<f64>,
}

/// The typed answer to a [`Query`]. Produced by `rtft-part`'s
/// `Workbench`; rendered as text or JSON here.
///
/// ```
/// use rtft_core::query::Response;
/// use rtft_core::time::Duration;
///
/// let r = Response::Feasibility {
///     feasible: true,
///     overloaded: false,
///     utilization: 0.5,
/// };
/// assert!(r.render_text(false).contains("feasible"));
/// assert!(r.to_json().starts_with("{\"query\":\"feasibility\""));
/// # let _ = Duration::ZERO;
/// ```
#[derive(Clone, PartialEq, Debug)]
pub enum Response {
    /// Answer to [`Query::Feasibility`].
    Feasibility {
        /// Every core passes its policy's schedulability test.
        feasible: bool,
        /// The load test already fails (`U > 1` on a core).
        overloaded: bool,
        /// Total utilization of the whole set.
        utilization: f64,
    },
    /// Answer to [`Query::WcrtAll`], cores ascending, rank order within
    /// a core.
    WcrtAll(Vec<TaskValue>),
    /// Answer to [`Query::Thresholds`], same order.
    Thresholds(Vec<TaskValue>),
    /// Answer to [`Query::EquitableAllowance`], one entry per occupied
    /// core.
    EquitableAllowance(Vec<CoreAllowance>),
    /// Answer to [`Query::SystemAllowance`].
    SystemAllowance {
        /// Slack policy the search protected.
        policy: SlackPolicy,
        /// `M_i` per task (`None` = the owning core has no allowance).
        per_task: Vec<TaskValue>,
    },
    /// Answer to [`Query::MaxSingleOverrun`].
    MaxSingleOverrun(TaskValue),
    /// Answer to [`Query::Sensitivity`], one entry per occupied core.
    Sensitivity(Vec<CoreScale>),
    /// The allocator found no placement; carries its diagnostics. Every
    /// query on an unplaceable spec yields this.
    Unplaceable(String),
    /// The static pre-flight lint ([`crate::diag::lint_system`]) found
    /// Error-severity findings, so the analyzer never ran. Every query
    /// on a rejected spec yields this.
    Rejected(Vec<crate::diag::Diagnostic>),
}

fn fmt_task_value(out: &mut String, v: &TaskValue, what: &str, none: &str, multicore: bool) {
    if multicore {
        let _ = write!(out, "  [core {}] ", v.core);
    } else {
        out.push_str("  ");
    }
    match v.value {
        Some(d) => {
            let _ = writeln!(out, "{}: {what} = {d}", v.name);
        }
        None => {
            let _ = writeln!(out, "{}: {what} {none}", v.name);
        }
    }
}

/// `None` wording for the response-time queries, where an undefined
/// value means the analysis diverged or the policy is EDF.
const NONE_NO_BOUND: &str = "undefined (divergent or EDF)";
/// `None` wording for the allowance queries, where an undefined value
/// means the owning core's base system is infeasible.
const NONE_INFEASIBLE: &str = "none (infeasible base)";

impl Response {
    /// Human-oriented rendering (the `rtft query` text output).
    /// `multicore` switches on the `[core N]` tags — pass
    /// `spec.cores > 1` so the protocol is stable even when an
    /// allocator happens to pack every task onto core 0.
    pub fn render_text(&self, multicore: bool) -> String {
        let mc = multicore;
        let mut out = String::new();
        match self {
            Response::Feasibility {
                feasible,
                overloaded,
                utilization,
            } => {
                if *overloaded {
                    let _ = writeln!(out, "NOT FEASIBLE: U = {utilization:.4} > 1");
                } else if *feasible {
                    let _ = writeln!(out, "feasible (U = {utilization:.4})");
                } else {
                    let _ = writeln!(out, "NOT FEASIBLE (U = {utilization:.4})");
                }
            }
            Response::WcrtAll(tasks) => {
                for v in tasks {
                    fmt_task_value(&mut out, v, "WCRT", NONE_NO_BOUND, mc);
                }
            }
            Response::Thresholds(tasks) => {
                for v in tasks {
                    fmt_task_value(&mut out, v, "threshold", NONE_NO_BOUND, mc);
                }
            }
            Response::EquitableAllowance(cores) => {
                for c in cores {
                    let prefix = if mc {
                        format!("  [core {}] ", c.core)
                    } else {
                        "  ".to_string()
                    };
                    match c.allowance {
                        Some(a) => {
                            let _ = writeln!(out, "{prefix}equitable allowance A = {a}");
                        }
                        None => {
                            let _ = writeln!(out, "{prefix}no equitable allowance (infeasible)");
                        }
                    }
                    for v in &c.stop_thresholds {
                        fmt_task_value(&mut out, v, "stop threshold", NONE_NO_BOUND, mc);
                    }
                }
            }
            Response::SystemAllowance { policy, per_task } => {
                let _ = writeln!(out, "  slack policy: {}", policy.label());
                for v in per_task {
                    fmt_task_value(&mut out, v, "M", NONE_INFEASIBLE, mc);
                }
            }
            Response::MaxSingleOverrun(v) => {
                fmt_task_value(&mut out, v, "max single overrun", NONE_INFEASIBLE, mc);
            }
            Response::Sensitivity(cores) => {
                for c in cores {
                    let prefix = if mc {
                        format!("  [core {}] ", c.core)
                    } else {
                        "  ".to_string()
                    };
                    match c.factor {
                        Some(f) => {
                            let _ = writeln!(out, "{prefix}cost scaling margin f = {f:.9}");
                        }
                        None => {
                            let _ = writeln!(out, "{prefix}no scaling margin (infeasible)");
                        }
                    }
                }
            }
            Response::Unplaceable(diag) => {
                let _ = writeln!(out, "  UNPLACEABLE: {diag}");
            }
            Response::Rejected(diags) => {
                let (errors, _, _) = crate::diag::counts(diags);
                let _ = writeln!(
                    out,
                    "  REJECTED ({errors} lint error{})",
                    if errors == 1 { "" } else { "s" }
                );
                for d in diags {
                    let _ = writeln!(out, "    {}", d.to_line());
                }
            }
        }
        out
    }

    /// One JSON object for this response (hand-rolled, like the
    /// campaign report's JSON — the workspace has no serde).
    pub fn to_json(&self) -> String {
        fn opt_ns(v: Option<Duration>) -> String {
            v.map_or("null".to_string(), |d| d.as_nanos().to_string())
        }
        fn tasks_json(tasks: &[TaskValue]) -> String {
            let items: Vec<String> = tasks
                .iter()
                .map(|t| {
                    format!(
                        "{{\"task\":{},\"name\":{},\"core\":{},\"ns\":{}}}",
                        t.task.0,
                        json_string(&t.name),
                        t.core,
                        opt_ns(t.value)
                    )
                })
                .collect();
            format!("[{}]", items.join(","))
        }
        match self {
            Response::Feasibility {
                feasible,
                overloaded,
                utilization,
            } => format!(
                "{{\"query\":\"feasibility\",\"feasible\":{feasible},\
                 \"overloaded\":{overloaded},\"utilization\":{utilization:.6}}}"
            ),
            Response::WcrtAll(tasks) => {
                format!("{{\"query\":\"wcrt\",\"tasks\":{}}}", tasks_json(tasks))
            }
            Response::Thresholds(tasks) => {
                format!(
                    "{{\"query\":\"thresholds\",\"tasks\":{}}}",
                    tasks_json(tasks)
                )
            }
            Response::EquitableAllowance(cores) => {
                let items: Vec<String> = cores
                    .iter()
                    .map(|c| {
                        format!(
                            "{{\"core\":{},\"allowance_ns\":{},\"stop_thresholds\":{}}}",
                            c.core,
                            opt_ns(c.allowance),
                            tasks_json(&c.stop_thresholds)
                        )
                    })
                    .collect();
                format!(
                    "{{\"query\":\"equitable\",\"cores\":[{}]}}",
                    items.join(",")
                )
            }
            Response::SystemAllowance { policy, per_task } => format!(
                "{{\"query\":\"system-allowance\",\"policy\":\"{}\",\"tasks\":{}}}",
                policy.label(),
                tasks_json(per_task)
            ),
            Response::MaxSingleOverrun(v) => format!(
                "{{\"query\":\"overrun\",\"task\":{},\"name\":{},\"core\":{},\"ns\":{}}}",
                v.task.0,
                json_string(&v.name),
                v.core,
                opt_ns(v.value)
            ),
            Response::Sensitivity(cores) => {
                let items: Vec<String> = cores
                    .iter()
                    .map(|c| {
                        format!(
                            "{{\"core\":{},\"factor\":{}}}",
                            c.core,
                            c.factor.map_or("null".to_string(), |f| format!("{f:.9}"))
                        )
                    })
                    .collect();
                format!(
                    "{{\"query\":\"sensitivity\",\"cores\":[{}]}}",
                    items.join(",")
                )
            }
            Response::Unplaceable(diag) => format!(
                "{{\"query\":\"unplaceable\",\"diagnostics\":{}}}",
                json_string(diag)
            ),
            Response::Rejected(diags) => {
                let items: Vec<String> =
                    diags.iter().map(crate::diag::Diagnostic::to_json).collect();
                format!(
                    "{{\"query\":\"rejected\",\"diagnostics\":[{}]}}",
                    items.join(",")
                )
            }
        }
    }
}

/// Escape a string's content for JSON embedding (no surrounding
/// quotes) — the one escape table every hand-rolled JSON emission in
/// the workspace uses (the campaign report delegates here).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A quoted JSON string literal.
fn json_string(s: &str) -> String {
    format!("\"{}\"", json_escape(s))
}

/// Render a whole batch of responses as one text document — the
/// `rtft query` output and the `rtft-serve` `POST /query` body, byte
/// for byte: a `system` header line, then each query line followed by
/// its response rendering.
pub fn render_responses_text(
    spec: &SystemSpec,
    queries: &[Query],
    responses: &[Response],
) -> String {
    let mut out = String::new();
    // Global placement is called out explicitly; the partitioned header
    // stays byte-identical to the pinned pre-placement golden.
    let placement_tag = match spec.placement {
        Placement::Partitioned => String::new(),
        Placement::Global => format!(", placement {}", spec.placement),
    };
    let _ = writeln!(
        out,
        "system {} ({} tasks, policy {}, {} cores, alloc {}{placement_tag})",
        spec.name,
        spec.set.len(),
        spec.policy,
        spec.cores,
        spec.alloc
    );
    for (q, r) in queries.iter().zip(responses) {
        let _ = writeln!(out, "{}", q.to_line(|id| spec.task_name(id)));
        out.push_str(&r.render_text(spec.cores > 1));
    }
    out
}

/// Render a whole batch of responses as one JSON document (the
/// `rtft query --json` output).
pub fn render_responses_json(spec: &SystemSpec, responses: &[Response]) -> String {
    let items: Vec<String> = responses.iter().map(Response::to_json).collect();
    // As in the text header, the placement field appears only on global
    // specs so the pinned partitioned golden stays byte-identical.
    let placement_field = match spec.placement {
        Placement::Partitioned => String::new(),
        Placement::Global => format!("\n  \"placement\": \"{}\",", spec.placement.label()),
    };
    format!(
        "{{\n  \"system\": {},\n  \"policy\": \"{}\",\n  \"cores\": {},\n  \"alloc\": \"{}\",\
         {placement_field}\n  \"responses\": [\n    {}\n  ]\n}}\n",
        json_string(&spec.name),
        spec.policy.label(),
        spec.cores,
        spec.alloc.label(),
        items.join(",\n    ")
    )
}

/// A query-batch parse failure with its 1-based line number (0 for
/// whole-batch problems).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QueryParseError {
    /// Offending line (0 when not tied to a line).
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl fmt::Display for QueryParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "query batch error: {}", self.message)
        } else {
            write!(
                f,
                "query batch error at line {}: {}",
                self.line, self.message
            )
        }
    }
}

impl std::error::Error for QueryParseError {}

/// The task and fault lines of a system description, parsed and
/// rendered once for every text format that carries them: query
/// batches ([`parse_batch`]), campaign specs (`rtft_campaign::spec`)
/// and task files (`rtft_taskgen::parser`, the same lines without the
/// `task` keyword).
///
/// Feed it one line at a time; it assigns task ids in line order from
/// 1, resolves fault targets by name, and keeps every fault entry as
/// written. A line it rejects leaves it unchanged, and the error is a
/// message for the caller to put a line number on.
///
/// ```
/// use rtft_core::query::SystemLines;
/// use rtft_core::task::TaskId;
///
/// let mut lines = SystemLines::default();
/// lines.task(&["a", "2", "100ms", "100ms", "10ms"], true).unwrap();
/// lines.fault(&["a", "job", "3", "overrun", "5ms"]).unwrap();
/// assert_eq!(lines.task_id("a"), Some(TaskId(1)));
/// let e = lines.fault(&["a", "job", "3", "underrun", "0ms"]).unwrap_err();
/// assert!(e.contains("greater than zero"), "{e}");
/// ```
#[derive(Clone, Debug, Default)]
pub struct SystemLines {
    tasks: Vec<TaskSpec>,
    names: BTreeMap<String, TaskId>,
    faults: Vec<FaultEntry>,
    /// Each faulty job's summed delta, checked on every fault line.
    sums: BTreeMap<(TaskId, u64), Duration>,
}

impl SystemLines {
    /// Add the task of one line: `fields` are the words after the
    /// `task` keyword when `keyword` is set (batches, campaign specs),
    /// or the whole line when it is not (task files).
    ///
    /// # Errors
    /// A message on a wrong field count, a duplicate name, or a bad
    /// priority or duration.
    pub fn task(&mut self, fields: &[&str], keyword: bool) -> Result<(), String> {
        if !(5..=6).contains(&fields.len()) {
            let keyword = if keyword { "task " } else { "" };
            return Err(format!(
                "expected: {keyword}<name> <priority> <period> <deadline> <cost> [offset]"
            ));
        }
        let name = fields[0];
        if self.names.contains_key(name) {
            return Err(format!("duplicate task name `{name}`"));
        }
        let priority: i32 = fields[1]
            .parse()
            .map_err(|e| format!("bad priority `{}`: {e}", fields[1]))?;
        let period: Duration = fields[2].parse()?;
        let deadline: Duration = fields[3].parse()?;
        let cost: Duration = fields[4].parse()?;
        let id = TaskId(self.tasks.len() as u32 + 1);
        let mut b = TaskBuilder::new(id.0, priority, period, cost)
            .name(name)
            .deadline(deadline);
        if let Some(offset) = fields.get(5) {
            b = b.offset(offset.parse()?);
        }
        self.names.insert(name.to_string(), id);
        self.tasks.push(b.build());
        Ok(())
    }

    /// Add the fault of one `fault <task> job <n> overrun|underrun
    /// <duration>` line; `fields` are the words after `fault`.
    ///
    /// # Errors
    /// A message on a malformed line, an unknown task or fault kind, a
    /// bad job index or duration, an amount that is not greater than
    /// zero, or a job whose summed delta leaves the `i64` range.
    pub fn fault(&mut self, fields: &[&str]) -> Result<(), String> {
        if fields.len() != 5 || fields[1] != "job" {
            return Err("expected: fault <task> job <n> overrun|underrun <duration>".into());
        }
        let task = self
            .task_id(fields[0])
            .ok_or_else(|| format!("unknown task `{}`", fields[0]))?;
        let job: u64 = fields[2]
            .parse()
            .map_err(|e| format!("bad job index `{}`: {e}", fields[2]))?;
        let amount: Duration = fields[4].parse()?;
        let kind = fields[3];
        let underrun = match kind {
            "overrun" => false,
            "underrun" => true,
            other => return Err(format!("unknown fault kind `{other}`")),
        };
        // Checked before the negation, which `i64::MIN` would overflow.
        if !amount.is_positive() {
            return Err(format!(
                "{kind} amount `{}` must be greater than zero",
                fields[4]
            ));
        }
        let delta = if underrun { -amount } else { amount };
        // The sum must stay negatable too: a renderer writes a negative
        // sum as an underrun of its magnitude.
        let sum = self.sums.get(&(task, job)).copied().unwrap_or_default();
        let total = sum
            .checked_add(delta)
            .filter(|t| *t != Duration::nanos(i64::MIN))
            .ok_or_else(|| format!("summed fault delta of `{}` job {job} overflows", fields[0]))?;
        self.sums.insert((task, job), total);
        self.faults.push(FaultEntry { task, job, delta });
        Ok(())
    }

    /// The id of the task named `name`, when a task line declared it.
    pub fn task_id(&self, name: &str) -> Option<TaskId> {
        self.names.get(name).copied()
    }

    /// The tasks (in line order), the name → id map and the fault
    /// entries (in line order, duplicates kept).
    pub fn into_parts(self) -> (Vec<TaskSpec>, BTreeMap<String, TaskId>, Vec<FaultEntry>) {
        (self.tasks, self.names, self.faults)
    }

    /// Write `tasks` and `faults` as task and fault lines, the inverse
    /// of [`SystemLines::task`] and [`SystemLines::fault`]: durations
    /// in `ns`, a zero offset omitted, a negative delta written as an
    /// underrun. `keyword` prefixes each task line with `task`; fault
    /// targets are named from `tasks` (`t<id>` when absent).
    pub fn render(
        out: &mut String,
        keyword: bool,
        tasks: &[TaskSpec],
        faults: impl IntoIterator<Item = FaultEntry>,
    ) {
        for t in tasks {
            if keyword {
                out.push_str("task ");
            }
            let _ = write!(
                out,
                "{} {} {}ns {}ns {}ns",
                t.name,
                t.priority.0,
                t.period.as_nanos(),
                t.deadline.as_nanos(),
                t.cost.as_nanos()
            );
            if !t.offset.is_zero() {
                let _ = write!(out, " {}ns", t.offset.as_nanos());
            }
            out.push('\n');
        }
        for f in faults {
            let (kind, amount) = if f.delta.is_negative() {
                ("underrun", -f.delta)
            } else {
                ("overrun", f.delta)
            };
            let name = tasks
                .iter()
                .find(|t| t.id == f.task)
                .map_or_else(|| format!("t{}", f.task.0), |t| t.name.clone());
            let _ = writeln!(
                out,
                "fault {name} job {} {kind} {}ns",
                f.job,
                amount.as_nanos()
            );
        }
    }
}

/// Render a [`SystemSpec`] plus its queries as a batch file.
/// Round-trips through [`parse_batch`].
pub fn render_batch(spec: &SystemSpec, queries: &[Query]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "system {}", spec.name);
    spec.render_lines(&mut out);
    for q in queries {
        let _ = writeln!(out, "{}", q.to_line(|id| spec.task_name(id)));
    }
    out
}

/// Parse a query batch: `system` + `task`/`fault`/`policy`/`cores`/
/// `alloc`/`placement`/`platform` lines followed by `query` lines (see the
/// [module docs](self) for the grammar). Task ids are assigned in file
/// order starting at 1, exactly as campaign inline sets do.
///
/// # Errors
/// [`QueryParseError`] with the offending line number.
pub fn parse_batch(text: &str) -> Result<(SystemSpec, Vec<Query>), QueryParseError> {
    let mut name = "system".to_string();
    let mut lines = SystemLines::default();
    let mut policy = PolicyKind::FixedPriority;
    let mut cores = 1usize;
    let mut alloc = AllocPolicy::FirstFitDecreasing;
    let mut placement = Placement::Partitioned;
    let mut platform = PlatformModel::EXACT;
    let mut queries: Vec<Query> = Vec::new();

    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let words: Vec<&str> = line.split_ascii_whitespace().collect();
        let err = |message: String| QueryParseError {
            line: line_no,
            message,
        };

        match words[0] {
            "system" => {
                name = words[1..].join(" ");
                if name.is_empty() {
                    return Err(err("system: missing name".into()));
                }
            }
            "task" => {
                lines.task(&words[1..], true).map_err(&err)?;
            }
            "fault" => {
                lines.fault(&words[1..]).map_err(&err)?;
            }
            "policy" => {
                let word = words
                    .get(1)
                    .ok_or_else(|| err("policy: expected fp|edf|npfp".into()))?;
                policy = word.parse().map_err(&err)?;
            }
            "cores" => {
                let word = words
                    .get(1)
                    .ok_or_else(|| err("cores: missing count".into()))?;
                cores = parse_cores(word).map_err(&err)?;
            }
            "alloc" => {
                let word = words
                    .get(1)
                    .ok_or_else(|| err("alloc: expected ffd|bfd|wfd|exhaustive".into()))?;
                alloc = word.parse().map_err(&err)?;
            }
            "placement" => {
                let word = words
                    .get(1)
                    .ok_or_else(|| err("placement: expected partitioned|global".into()))?;
                placement = word.parse().map_err(&err)?;
            }
            "platform" => platform = PlatformModel::parse_tokens(&words[1..]).map_err(&err)?,
            "query" => {
                let word = words
                    .get(1)
                    .copied()
                    .ok_or_else(|| err("query: missing keyword".into()))?;
                let q = match word {
                    "overrun" => {
                        let target = words
                            .get(2)
                            .ok_or_else(|| err("overrun: missing task name".into()))?;
                        let id = lines
                            .task_id(target)
                            .ok_or_else(|| err(format!("unknown task `{target}`")))?;
                        Query::MaxSingleOverrun(id)
                    }
                    "system-allowance" => {
                        let policy = match words.get(2) {
                            None => SlackPolicy::ProtectAll,
                            Some(w) => w.parse().map_err(&err)?,
                        };
                        Query::SystemAllowance(policy)
                    }
                    other => other.parse().map_err(&err)?,
                };
                queries.push(q);
            }
            other => return Err(err(format!("unknown directive `{other}`"))),
        }
    }

    // Fault targets need no post-validation: every entry's id was
    // resolved by name, so it is necessarily in `set`.
    let (tasks, _, faults) = lines.into_parts();
    let set = TaskSet::new(tasks).map_err(|e| QueryParseError {
        line: 0,
        message: format!("task set invalid: {e}"),
    })?;
    Ok((
        SystemSpec {
            name,
            set,
            policy,
            cores,
            alloc,
            placement,
            faults,
            platform,
        },
        queries,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    fn paper_spec() -> SystemSpec {
        let set = TaskSet::from_specs(vec![
            TaskBuilder::new(1, 20, ms(200), ms(29))
                .name("tau1")
                .deadline(ms(70))
                .build(),
            TaskBuilder::new(2, 18, ms(250), ms(29))
                .name("tau2")
                .deadline(ms(120))
                .build(),
            TaskBuilder::new(3, 16, ms(1500), ms(29))
                .name("tau3")
                .deadline(ms(120))
                .build(),
        ]);
        SystemSpec::uniprocessor("paper", set)
    }

    #[test]
    fn batch_round_trips() {
        let mut spec = paper_spec();
        spec.faults.push(FaultEntry {
            task: TaskId(1),
            job: 5,
            delta: ms(40),
        });
        spec.faults.push(FaultEntry {
            task: TaskId(2),
            job: 3,
            delta: -ms(5),
        });
        let queries = vec![
            Query::Feasibility,
            Query::WcrtAll,
            Query::Thresholds,
            Query::EquitableAllowance,
            Query::SystemAllowance(SlackPolicy::ProtectOthers),
            Query::MaxSingleOverrun(TaskId(2)),
            Query::Sensitivity,
        ];
        let text = render_batch(&spec, &queries);
        let (back_spec, back_queries) = parse_batch(&text).unwrap();
        assert_eq!(back_spec, spec);
        assert_eq!(back_queries, queries);
        // Idempotent: a second round trip renders the same bytes.
        assert_eq!(render_batch(&back_spec, &back_queries), text);
    }

    #[test]
    fn multicore_platform_options_round_trip() {
        let mut spec = paper_spec().with_cores(4, AllocPolicy::WorstFitDecreasing);
        spec.policy = PolicyKind::NonPreemptiveFp;
        spec.platform = PlatformModel {
            quantum: Some(ms(10)),
            poll: ms(1),
            poll_overhead: Duration::micros(20),
            dispatch: Duration::micros(5),
            detector_fire: Duration::micros(7),
        };
        let text = render_batch(&spec, &[Query::Feasibility]);
        assert!(text.contains("platform jrate poll=1000000ns"), "{text}");
        let (back, _) = parse_batch(&text).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        for (text, needle) in [
            ("bogus\n", "unknown directive"),
            ("task a 1 10ms 10ms\n", "expected: task"),
            ("task a x 10ms 10ms 5ms\n", "bad priority"),
            ("fault a job 0 overrun 5ms\n", "unknown task"),
            ("query sideways\n", "unknown query"),
            ("query overrun ghost\n", "unknown task"),
            ("cores 0\n", "must be ≥ 1"),
            ("cores 65536\n", "must be ≥ 1 and ≤ 65535"),
            ("policy sideways\n", "unknown policy"),
            ("alloc sideways\n", "unknown allocator"),
            ("platform quantum=abc\n", "bad duration"),
        ] {
            let e = parse_batch(&format!("task ok 1 10ms 10ms 1ms\n{text}")).unwrap_err();
            assert!(e.message.contains(needle), "{text}: {e}");
            assert_eq!(e.line, 2, "{text}");
        }
    }

    #[test]
    fn fault_amounts_must_be_positive_and_job_sums_must_fit() {
        const MAX: &str = "9223372036854775807ns";
        for (faults, needle) in [
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
            (
                &format!("fault a job 7 underrun {MAX}\nfault a job 7 underrun 1ns\n"),
                "summed fault delta of `a` job 7 overflows",
            ),
        ] {
            let text = format!("task a 1 10ms 10ms 1ms\n{faults}query feasibility\n");
            let e = parse_batch(&text).unwrap_err();
            assert_eq!(e.message, needle, "{text}");
            assert_eq!(e.line, faults.lines().count() + 1, "{text}");
            let d = crate::diag::parse_failure(e.line, e.message);
            assert_eq!(d.code, "RT000", "{text}");
        }
        // Extreme amounts that fit stay separate entries (RT005 flags
        // the repeat) and render back to the same lines.
        let text = format!(
            "task a 1 10ms 10ms 1ms\nfault a job 0 overrun {MAX}\nfault a job 0 underrun {MAX}\n"
        );
        let (spec, _) = parse_batch(&text).unwrap();
        assert_eq!(spec.faults.len(), 2);
        assert_eq!(parse_batch(&render_batch(&spec, &[])).unwrap().0, spec);
    }

    #[test]
    fn empty_task_set_is_rejected() {
        let e = parse_batch("system empty\nquery feasibility\n").unwrap_err();
        assert_eq!(e.line, 0);
        assert!(e.message.contains("task set invalid"), "{e}");
    }

    #[test]
    fn responses_render_as_json_objects() {
        let r = Response::WcrtAll(vec![TaskValue {
            task: TaskId(1),
            name: "tau1".into(),
            core: 0,
            value: Some(ms(29)),
        }]);
        assert_eq!(
            r.to_json(),
            "{\"query\":\"wcrt\",\"tasks\":[{\"task\":1,\"name\":\"tau1\",\
             \"core\":0,\"ns\":29000000}]}"
        );
        let u = Response::Unplaceable("no \"fit\"".into());
        assert!(u.to_json().contains("\\\"fit\\\""));
        let doc = render_responses_json(&paper_spec(), &[r]);
        assert!(doc.starts_with("{\n  \"system\": \"paper\""), "{doc}");
        assert!(doc.ends_with("]\n}\n"), "{doc}");
    }

    #[test]
    fn placement_round_trips_and_defaults_render_nothing() {
        // Default placement emits no line, so legacy renderings are
        // byte-identical to the pre-placement grammar.
        let spec = paper_spec();
        let text = render_batch(&spec, &[Query::Feasibility]);
        assert!(!text.contains("placement"), "{text}");
        assert_eq!(
            parse_batch(&text).unwrap().0.placement,
            Placement::Partitioned
        );

        let spec = paper_spec()
            .with_cores(2, AllocPolicy::FirstFitDecreasing)
            .with_placement(Placement::Global);
        let text = render_batch(&spec, &[Query::Feasibility]);
        assert!(text.contains("placement global"), "{text}");
        let (back, _) = parse_batch(&text).unwrap();
        assert_eq!(back, spec);

        // The alias and the error path.
        assert_eq!("part".parse::<Placement>().unwrap(), Placement::Partitioned);
        assert!("sideways".parse::<Placement>().is_err());
        let e = parse_batch("task a 1 10ms 10ms 1ms\nplacement sideways\n").unwrap_err();
        assert!(e.message.contains("unknown placement"), "{e}");

        // Global headers are tagged; partitioned headers stay pinned.
        let doc = render_responses_text(&spec, &[], &[]);
        assert!(doc.contains(", placement global)"), "{doc}");
        let json = render_responses_json(&spec, &[]);
        assert!(json.contains("\"placement\": \"global\""), "{json}");
        let json = render_responses_json(&paper_spec(), &[]);
        assert!(!json.contains("placement"), "{json}");
    }

    #[test]
    fn alloc_policy_labels_round_trip() {
        for a in [
            AllocPolicy::FirstFitDecreasing,
            AllocPolicy::BestFitDecreasing,
            AllocPolicy::WorstFitDecreasing,
            AllocPolicy::Exhaustive,
        ] {
            assert_eq!(a.label().parse::<AllocPolicy>().unwrap(), a);
            assert_eq!(a.to_string(), a.label());
        }
        assert!("sideways".parse::<AllocPolicy>().is_err());
    }
}
