//! Static diagnostics (`rtft lint`) over the query plane: a rule set
//! that inspects a [`SystemSpec`] — and optionally its query batch —
//! and emits structured [`Diagnostic`]s *without running any fixed
//! point*. The rules are the classical necessary conditions the
//! paper's analysis assumes (C ≤ D, C ≤ T per Joseph & Pandya-style
//! sanity, `U ≤ 1` per the load test, deadline-monotonic optimality
//! per Leung & Whitehead, the Baruah–Rosier–Howell demand frontier
//! under EDF) plus structural checks on fault plans and batch hygiene
//! notes.
//!
//! Every rule has a stable `RT0xx` code registered in [`RULES`] —
//! the code, not the construction site, owns the severity, so a code
//! can never be emitted at two different severities. The README's
//! "Diagnostics" table is tested against this registry.
//!
//! Diagnostics render two ways, mirroring the query plane's contract:
//! a line-oriented text form that round-trips
//! ([`Diagnostic::to_line`] / [`Diagnostic::parse_line`], whole
//! documents via [`render_text`] / [`parse_text`]) and an emit-only
//! JSON form ([`render_json`]).
//!
//! The `Workbench` in `rtft-part` runs [`lint_system`] as a pre-flight
//! and answers every query on a spec with Error-severity findings with
//! `Response::Rejected` instead of spending analyzer time; the
//! campaign engine lints each grid cell once and annotates its report.
//!
//! ```
//! use rtft_core::diag::{lint_system, Severity};
//! use rtft_core::query::SystemSpec;
//! use rtft_core::task::{TaskBuilder, TaskSet};
//! use rtft_core::time::Duration;
//!
//! // Cost 80 ms against a 70 ms deadline: never schedulable.
//! let set = TaskSet::from_specs(vec![TaskBuilder::new(1, 1, Duration::millis(200), Duration::millis(80))
//!     .deadline(Duration::millis(70))
//!     .build()]);
//! let diags = lint_system(&SystemSpec::uniprocessor("demo", set));
//! assert!(diags.iter().any(|d| d.code == "RT002" && d.severity == Severity::Error));
//! ```

use crate::policy::PolicyKind;
use crate::query::{json_escape, AllocPolicy, Placement, Query, SystemSpec};
use crate::task::{TaskId, TaskSet, TaskSpec};
use crate::time::Duration;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fmt::Write as _;

/// How bad a finding is.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Severity {
    /// Advisory only; never gates anything.
    Note,
    /// Suspicious but possibly intended; gates under `--deny-warnings`.
    Warning,
    /// The input is broken or provably infeasible; the `Workbench`
    /// rejects the spec instead of analysing it.
    Error,
}

impl Severity {
    /// Stable lowercase label (`error` / `warning` / `note`).
    pub fn label(&self) -> &'static str {
        match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
            Severity::Note => "note",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl std::str::FromStr for Severity {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Ok(match s {
            "error" => Severity::Error,
            "warning" => Severity::Warning,
            "note" => Severity::Note,
            other => return Err(format!("unknown severity `{other}`")),
        })
    }
}

/// What a diagnostic points at.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Span {
    /// The whole input (no better anchor).
    Whole,
    /// A 1-based line of the source file.
    Line(usize),
    /// A task, by id and display name.
    Task(TaskId, String),
}

impl Span {
    /// Stable single-token rendering (`-`, `line:<n>`,
    /// `task:<id>:<name>`). Task names from the parsers are single
    /// whitespace-free tokens, so the token stays splittable.
    fn token(&self) -> String {
        match self {
            Span::Whole => "-".to_string(),
            Span::Line(n) => format!("line:{n}"),
            Span::Task(id, name) => format!("task:{}:{}", id.0, name),
        }
    }

    fn parse_token(tok: &str) -> Result<Span, String> {
        if tok == "-" {
            return Ok(Span::Whole);
        }
        if let Some(n) = tok.strip_prefix("line:") {
            return n
                .parse()
                .map(Span::Line)
                .map_err(|e| format!("bad span line `{n}`: {e}"));
        }
        if let Some(rest) = tok.strip_prefix("task:") {
            let (id, name) = rest
                .split_once(':')
                .ok_or_else(|| format!("bad task span `{tok}`"))?;
            let id: u32 = id
                .parse()
                .map_err(|e| format!("bad span task id `{id}`: {e}"))?;
            return Ok(Span::Task(TaskId(id), name.to_string()));
        }
        Err(format!("bad span token `{tok}`"))
    }
}

/// One lint finding: a stable code, the code's severity, an anchor,
/// a message, and a fix-it hint.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Stable rule code (`RT0xx`), from [`RULES`].
    pub code: &'static str,
    /// Severity owned by the code (see [`RULES`]).
    pub severity: Severity,
    /// What the finding points at.
    pub span: Span,
    /// What is wrong.
    pub message: String,
    /// How to fix it.
    pub help: String,
}

/// One registered rule: the code, the severity every emission of that
/// code carries, and a one-line summary (the README table row).
pub struct Rule {
    /// Stable `RT0xx` code.
    pub code: &'static str,
    /// Severity of every diagnostic with this code.
    pub severity: Severity,
    /// One-line summary.
    pub summary: &'static str,
}

/// The complete rule registry. [`Diagnostic::new`] refuses codes that
/// are not listed here, and the README's Diagnostics table is tested
/// to cover every row.
pub const RULES: &[Rule] = &[
    Rule {
        code: "RT000",
        severity: Severity::Error,
        summary: "input does not parse (bad token, invalid task set, unknown directive)",
    },
    Rule {
        code: "RT001",
        severity: Severity::Error,
        summary:
            "degenerate timing parameters (non-positive period/cost/deadline, negative offset)",
    },
    Rule {
        code: "RT002",
        severity: Severity::Error,
        summary: "cost exceeds deadline (C > D): the task can never meet its deadline",
    },
    Rule {
        code: "RT003",
        severity: Severity::Error,
        summary: "cost exceeds period (C > T): the task alone overloads its core",
    },
    Rule {
        code: "RT004",
        severity: Severity::Error,
        summary: "fault entry targets a task absent from the set",
    },
    Rule {
        code: "RT005",
        severity: Severity::Error,
        summary: "repeated fault injections on one job (fault inter-arrival below the period)",
    },
    Rule {
        code: "RT006",
        severity: Severity::Error,
        summary: "duplicate task id or name in the set",
    },
    Rule {
        code: "RT010",
        severity: Severity::Error,
        summary: "utilization exceeds 1 on a single core (the load test must fail)",
    },
    Rule {
        code: "RT011",
        severity: Severity::Error,
        summary: "total utilization exceeds the core count (every allocator must fail)",
    },
    Rule {
        code: "RT012",
        severity: Severity::Error,
        summary: "npfp blocking makes a deadline unreachable (C + max lower-priority C > D)",
    },
    Rule {
        code: "RT013",
        severity: Severity::Error,
        summary: "global placement fails a necessary condition (U > m, or a task density > 1)",
    },
    Rule {
        code: "RT020",
        severity: Severity::Warning,
        summary: "priorities are not deadline-monotonic under FP with constrained deadlines",
    },
    Rule {
        code: "RT021",
        severity: Severity::Warning,
        summary: "near-co-prime periods blow up the hyperperiod / EDF demand frontier",
    },
    Rule {
        code: "RT022",
        severity: Severity::Note,
        summary: "duplicate query in the batch (answered twice from the same memo)",
    },
    Rule {
        code: "RT023",
        severity: Severity::Note,
        summary: "batch is not in Workbench phase order (execution will be reordered)",
    },
    Rule {
        code: "RT030",
        severity: Severity::Warning,
        summary: "duplicate scalar directive in a campaign spec (last value wins)",
    },
    Rule {
        code: "RT031",
        severity: Severity::Warning,
        summary: "campaign axis value repeated (duplicates expand to identical jobs)",
    },
    Rule {
        code: "RT032",
        severity: Severity::Note,
        summary: "allocator axis has no effect (every grid cell is uniprocessor)",
    },
    Rule {
        code: "RT033",
        severity: Severity::Note,
        summary: "grid cell fails a necessary feasibility condition (job reports infeasible)",
    },
    Rule {
        code: "RT034",
        severity: Severity::Note,
        summary: "allocator named alongside global placement (the alloc axis is dead)",
    },
    Rule {
        code: "RT035",
        severity: Severity::Error,
        summary: "trace hash mismatch: the capture disagrees with its header or the replayed spec",
    },
];

/// Look up a rule by code.
pub fn rule(code: &str) -> Option<&'static Rule> {
    RULES.iter().find(|r| r.code == code)
}

impl Diagnostic {
    /// Build a diagnostic for a registered code; the severity comes
    /// from [`RULES`] so one code can never carry two severities.
    ///
    /// # Panics
    /// Panics on a code absent from [`RULES`] (a bug at the call site,
    /// not an input problem).
    pub fn new(
        code: &str,
        span: Span,
        message: impl Into<String>,
        help: impl Into<String>,
    ) -> Self {
        let rule = rule(code).unwrap_or_else(|| panic!("unregistered diagnostic code `{code}`"));
        Diagnostic {
            code: rule.code,
            severity: rule.severity,
            span,
            message: message.into(),
            help: help.into(),
        }
    }

    /// One-line rendering:
    /// `<code> <severity> <span> <message> | help: <help>` (the help
    /// clause is omitted when empty). Round-trips through
    /// [`Diagnostic::parse_line`].
    pub fn to_line(&self) -> String {
        let mut out = format!(
            "{} {} {} {}",
            self.code,
            self.severity.label(),
            self.span.token(),
            self.message
        );
        if !self.help.is_empty() {
            let _ = write!(out, " | help: {}", self.help);
        }
        out
    }

    /// Parse one [`Diagnostic::to_line`] line back. The severity must
    /// match the code's registered severity.
    ///
    /// # Errors
    /// A message naming the malformed part.
    pub fn parse_line(line: &str) -> Result<Diagnostic, String> {
        let (body, help) = match line.split_once(" | help: ") {
            Some((b, h)) => (b, h.to_string()),
            None => (line, String::new()),
        };
        let mut words = body.splitn(4, ' ');
        let code = words.next().filter(|w| !w.is_empty()).ok_or("empty line")?;
        let rule = rule(code).ok_or_else(|| format!("unknown diagnostic code `{code}`"))?;
        let sev: Severity = words
            .next()
            .ok_or_else(|| format!("`{code}`: missing severity"))?
            .parse()?;
        if sev != rule.severity {
            return Err(format!(
                "severity `{sev}` contradicts `{code}` (registered as {})",
                rule.severity
            ));
        }
        let span = Span::parse_token(
            words
                .next()
                .ok_or_else(|| format!("`{code}`: missing span"))?,
        )?;
        let message = words
            .next()
            .ok_or_else(|| format!("`{code}`: missing message"))?
            .to_string();
        Ok(Diagnostic {
            code: rule.code,
            severity: rule.severity,
            span,
            message,
            help,
        })
    }

    /// One JSON object for this diagnostic (hand-rolled, sharing the
    /// query plane's escape table — the workspace has no serde).
    pub fn to_json(&self) -> String {
        let (line, task, name) = match &self.span {
            Span::Whole => ("null".to_string(), "null".to_string(), "null".to_string()),
            Span::Line(n) => (n.to_string(), "null".to_string(), "null".to_string()),
            Span::Task(id, name) => (
                "null".to_string(),
                id.0.to_string(),
                format!("\"{}\"", json_escape(name)),
            ),
        };
        format!(
            "{{\"code\":\"{}\",\"severity\":\"{}\",\"line\":{line},\"task\":{task},\
             \"name\":{name},\"message\":\"{}\",\"help\":\"{}\"}}",
            self.code,
            self.severity.label(),
            json_escape(&self.message),
            json_escape(&self.help)
        )
    }
}

/// A parse failure lifted into the diagnostics vocabulary: the lint
/// entry points report unparseable input as a diagnostic instead of
/// aborting, so `rtft lint` can still render it. [`TaskSet`]
/// construction enforces positive periods/costs and unique ids, so the
/// corresponding defects only ever exist *before* a set is built —
/// this classifier routes their model errors to the structural codes
/// (`RT001`, `RT006`) and everything else to `RT000`.
pub fn parse_failure(line: usize, message: impl Into<String>) -> Diagnostic {
    let span = if line == 0 {
        Span::Whole
    } else {
        Span::Line(line)
    };
    let message = message.into();
    if message.contains("must be positive") || message.contains("must be non-negative") {
        return Diagnostic::new(
            "RT001",
            span,
            message,
            "period, cost and deadline must be positive, the offset non-negative",
        );
    }
    // A duplicate id in the set, or a duplicate name on a task line.
    if message.contains("duplicate task ") {
        return Diagnostic::new(
            "RT006",
            span,
            message,
            "give every task a unique id and name",
        );
    }
    Diagnostic::new(
        "RT000",
        span,
        message,
        "fix the reported token or directive; see the format docs",
    )
}

/// `(errors, warnings, notes)` counts.
pub fn counts(diags: &[Diagnostic]) -> (usize, usize, usize) {
    let mut c = (0, 0, 0);
    for d in diags {
        match d.severity {
            Severity::Error => c.0 += 1,
            Severity::Warning => c.1 += 1,
            Severity::Note => c.2 += 1,
        }
    }
    c
}

/// Any Error-severity finding?
pub fn has_errors(diags: &[Diagnostic]) -> bool {
    diags.iter().any(|d| d.severity == Severity::Error)
}

/// Render diagnostics as one [`Diagnostic::to_line`] line each.
/// Round-trips through [`parse_text`].
pub fn render_text(diags: &[Diagnostic]) -> String {
    let mut out = String::new();
    for d in diags {
        let _ = writeln!(out, "{}", d.to_line());
    }
    out
}

/// Parse a [`render_text`] document back. Lines that do not start with
/// a rule code (e.g. the CLI's trailing summary) are skipped, so the
/// round trip also accepts raw `rtft lint` output.
///
/// # Errors
/// The first malformed `RT…` line's message.
pub fn parse_text(text: &str) -> Result<Vec<Diagnostic>, String> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with("RT") {
            out.push(Diagnostic::parse_line(line)?);
        }
    }
    Ok(out)
}

/// Render diagnostics as one JSON document (emit-only, like the query
/// plane's response JSON):
/// `{"diagnostics": […], "errors": E, "warnings": W, "notes": N}`.
pub fn render_json(diags: &[Diagnostic]) -> String {
    let items: Vec<String> = diags.iter().map(Diagnostic::to_json).collect();
    let (e, w, n) = counts(diags);
    format!(
        "{{\n  \"diagnostics\": [\n    {}\n  ],\n  \"errors\": {e},\n  \"warnings\": {w},\n  \"notes\": {n}\n}}\n",
        items.join(",\n    ")
    )
}

/// The `Workbench`'s batch execution phase of a query (lower runs
/// first): memo-populating lookups, then the equitable search, then
/// the searches that reuse its warm frontier. `run_batch` sorts by
/// this key; [`lint_batch`] notes batches that are not already in this
/// order (RT023).
pub fn execution_phase(q: &Query) -> u8 {
    match q {
        Query::Feasibility => 0,
        Query::WcrtAll | Query::Thresholds => 1,
        Query::EquitableAllowance => 2,
        Query::SystemAllowance(_) => 3,
        Query::MaxSingleOverrun(_) => 4,
        Query::Sensitivity => 5,
    }
}

/// Tolerance for the utilization comparisons: `U` is a sum of `C/T`
/// ratios in `f64`, so an exact-1.0 system must not be flagged.
const U_EPS: f64 = 1e-9;

/// Release points past which the EDF demand frontier is considered
/// blown up (RT021): the QPA-style scan visits ~`Σ H/Tᵢ` deadlines.
const DEMAND_FRONTIER_LIMIT: i64 = 1_000_000;

fn task_span(t: &TaskSpec) -> Span {
    Span::Task(t.id, t.name.clone())
}

/// Lint one [`SystemSpec`]: structural rules (RT001–RT006), necessary
/// feasibility conditions (RT010–RT012) and analysis-hygiene warnings
/// (RT020, RT021). Pure parameter arithmetic — no fixed point, no
/// allocator run; a 50-task spec lints in well under a millisecond.
pub fn lint_system(spec: &SystemSpec) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let set = &spec.set;

    structural_rules(set, &mut out);
    fault_rules(spec, &mut out);
    necessary_conditions(spec, &mut out);
    hygiene_rules(spec, &mut out);

    out
}

/// Lint a spec *and* its query batch: [`lint_system`] plus the batch
/// hygiene notes (RT022 duplicate queries, RT023 non-phase order).
pub fn lint_batch(spec: &SystemSpec, queries: &[Query]) -> Vec<Diagnostic> {
    let mut out = lint_system(spec);

    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut reported: BTreeSet<String> = BTreeSet::new();
    for q in queries {
        let key = q.to_line(|id| spec.task_name(id));
        if !seen.insert(key.clone()) && reported.insert(key.clone()) {
            out.push(Diagnostic::new(
                "RT022",
                Span::Whole,
                format!("`{key}` appears more than once in the batch"),
                "drop the duplicate; both occurrences answer from the same memoized session",
            ));
        }
    }

    let phases: Vec<u8> = queries.iter().map(execution_phase).collect();
    if phases.windows(2).any(|w| w[0] > w[1]) {
        out.push(Diagnostic::new(
            "RT023",
            Span::Whole,
            "batch is not in Workbench phase order (feasibility → wcrt/thresholds → \
             equitable → system-allowance → overrun → sensitivity)",
            "no action needed: run_batch reorders execution and answers in submitted order",
        ));
    }

    out
}

/// RT002 (C > D) and RT003 (C > T). [`TaskSet`] construction already
/// guarantees positive periods/costs and unique ids (their violations
/// arrive via [`parse_failure`] as RT001/RT006), but it deliberately
/// allows C > D and C > T — those are *schedulability* defects, not
/// model defects, and they are this lint's to catch.
fn structural_rules(set: &TaskSet, out: &mut Vec<Diagnostic>) {
    for t in set.tasks() {
        if t.cost > t.deadline {
            out.push(Diagnostic::new(
                "RT002",
                task_span(t),
                format!("cost {} exceeds deadline {}", t.cost, t.deadline),
                "even alone on an idle core the task misses; shrink C or relax D",
            ));
        }
        if t.cost > t.period {
            out.push(Diagnostic::new(
                "RT003",
                task_span(t),
                format!("cost {} exceeds period {}", t.cost, t.period),
                "the task's own utilization exceeds 1; shrink C or stretch T",
            ));
        }
    }
}

/// RT004 (unknown fault target), RT005 (repeated injections on one
/// job — a fault inter-arrival below the task's period).
fn fault_rules(spec: &SystemSpec, out: &mut Vec<Diagnostic>) {
    let mut jobs: BTreeMap<(TaskId, u64), usize> = BTreeMap::new();
    let mut unknown: BTreeSet<TaskId> = BTreeSet::new();
    for f in &spec.faults {
        if spec.set.by_id(f.task).is_none() {
            if unknown.insert(f.task) {
                out.push(Diagnostic::new(
                    "RT004",
                    Span::Whole,
                    format!(
                        "fault plan targets task id {}, absent from the set",
                        f.task.0
                    ),
                    "point the fault at a task that exists (check the id/name mapping)",
                ));
            }
            continue;
        }
        *jobs.entry((f.task, f.job)).or_insert(0) += 1;
    }
    for ((task, job), n) in jobs {
        if n > 1 {
            let t = spec.set.by_id(task).expect("checked above");
            out.push(Diagnostic::new(
                "RT005",
                Span::Task(task, t.name.clone()),
                format!(
                    "{n} fault entries hit job {job}: the injections' inter-arrival \
                     is below the {} period",
                    t.period
                ),
                "merge the deltas into one entry, or spread them across jobs",
            ));
        }
    }
}

/// RT010 (U > 1 on one core), RT011 (U > m over m cores, partitioned),
/// RT013 (U > m or a task density > 1 under global placement), RT012
/// (npfp blocking + cost above a deadline). Error severity, so each is
/// a *sound* infeasibility proof, never a heuristic.
fn necessary_conditions(spec: &SystemSpec, out: &mut Vec<Diagnostic>) {
    let set = &spec.set;
    let u = set.utilization();
    if spec.cores <= 1 && u > 1.0 + U_EPS {
        out.push(Diagnostic::new(
            "RT010",
            Span::Whole,
            format!("utilization {u:.4} exceeds 1 on a single core"),
            "the load test fails under every policy; shed load or add cores",
        ));
    }
    let global = spec.placement == Placement::Global && spec.cores > 1;
    if spec.cores > 1 && !global && u > spec.cores as f64 + U_EPS {
        out.push(Diagnostic::new(
            "RT011",
            Span::Whole,
            format!(
                "utilization {u:.4} exceeds the {} available cores",
                spec.cores
            ),
            "no partitioning can place the set; shed load or add cores",
        ));
    }
    if global {
        // Necessary conditions for *any* global scheduler: total work
        // cannot exceed m processors, and a single job can occupy only
        // one core at a time, so a density C/min(D, T) above 1 misses
        // even with the whole platform to itself.
        if u > spec.cores as f64 + U_EPS {
            out.push(Diagnostic::new(
                "RT013",
                Span::Whole,
                format!(
                    "utilization {u:.4} exceeds the {} available cores under global placement",
                    spec.cores
                ),
                "no global scheduler can serve the load; shed load or add cores",
            ));
        }
        for t in set.tasks() {
            let window = t.deadline.min(t.period);
            let density = t.cost.as_nanos() as f64 / window.as_nanos() as f64;
            if density > 1.0 + U_EPS {
                out.push(Diagnostic::new(
                    "RT013",
                    task_span(t),
                    format!(
                        "density {density:.4} exceeds 1: cost {} does not fit the {window} \
                         scheduling window on any single core",
                        t.cost
                    ),
                    "a migrating job still runs on one core at a time; shrink C or relax D",
                ));
            }
        }
    }
    if spec.policy == PolicyKind::NonPreemptiveFp {
        // Non-preemptive blocking: a task's response time is at least
        // C_i plus the largest lower-priority cost (the analyzer adds
        // exactly this term), so C_i + B_i > D_i is a proof of a miss.
        for rank in 0..set.len() {
            let t = set.by_rank(rank);
            if t.cost > t.deadline {
                continue; // already RT002
            }
            let blocking = set
                .lp_ranks(rank)
                .into_iter()
                .map(|r| set.by_rank(r).cost)
                .max()
                .unwrap_or(Duration::ZERO);
            if blocking + t.cost > t.deadline {
                out.push(Diagnostic::new(
                    "RT012",
                    task_span(t),
                    format!(
                        "non-preemptive blocking {blocking} plus cost {} exceeds deadline {}",
                        t.cost, t.deadline
                    ),
                    "split the longest lower-priority task's cost, or schedule preemptively",
                ));
            }
        }
    }
}

/// RT020 (non-deadline-monotonic FP priorities), RT021 (hyperperiod /
/// EDF demand-frontier blowup) — warnings: suspicious, not fatal —
/// plus RT034, a note when a non-default allocator is named on a
/// global-placement spec (tasks migrate, so no allocator ever runs).
fn hygiene_rules(spec: &SystemSpec, out: &mut Vec<Diagnostic>) {
    let set = &spec.set;
    if spec.placement == Placement::Global
        && spec.cores > 1
        && spec.alloc != AllocPolicy::FirstFitDecreasing
    {
        out.push(Diagnostic::new(
            "RT034",
            Span::Whole,
            format!(
                "allocator `{}` has no effect under global placement",
                spec.alloc
            ),
            "drop the alloc directive, or switch to partitioned placement",
        ));
    }
    if spec.policy == PolicyKind::FixedPriority && set.all_constrained() {
        // Ranks are priority-descending; DM demands deadlines
        // non-decreasing along them (Leung & Whitehead: DM is optimal
        // for D ≤ T, so an inversion forfeits schedulability for free).
        for rank in 1..set.len() {
            let (hi, lo) = (set.by_rank(rank - 1), set.by_rank(rank));
            if hi.deadline > lo.deadline {
                out.push(Diagnostic::new(
                    "RT020",
                    task_span(lo),
                    format!(
                        "`{}` (D = {}) outranks `{}` (D = {}): not deadline-monotonic",
                        hi.name, hi.deadline, lo.name, lo.deadline
                    ),
                    "deadline-monotonic priorities are optimal for constrained deadlines",
                ));
                break;
            }
        }
    }
    if spec.policy == PolicyKind::Edf {
        let h = set.hyperperiod();
        if h == Duration::MAX {
            out.push(Diagnostic::new(
                "RT021",
                Span::Whole,
                "near-co-prime periods: the hyperperiod overflows 64-bit nanoseconds".to_string(),
                "harmonize periods (shared divisors) to keep the demand test tractable",
            ));
        } else {
            let releases: i64 = set
                .tasks()
                .iter()
                .map(|t| h.as_nanos() / t.period.as_nanos())
                .sum();
            if releases > DEMAND_FRONTIER_LIMIT {
                out.push(Diagnostic::new(
                    "RT021",
                    Span::Whole,
                    format!(
                        "near-co-prime periods: the demand frontier spans ≈{releases} \
                         release points over the {h} hyperperiod"
                    ),
                    "harmonize periods (shared divisors) to keep the demand test tractable",
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::{AllocPolicy, FaultEntry};
    use crate::task::TaskBuilder;

    fn ms(v: i64) -> Duration {
        Duration::millis(v)
    }

    fn task(id: u32, prio: i32, t: i64, d: i64, c: i64) -> TaskSpec {
        TaskBuilder::new(id, prio, ms(t), ms(c))
            .name(format!("t{id}"))
            .deadline(ms(d))
            .build()
    }

    fn spec_of(tasks: Vec<TaskSpec>) -> SystemSpec {
        SystemSpec::uniprocessor("lint", TaskSet::from_specs(tasks))
    }

    fn codes(diags: &[Diagnostic]) -> Vec<&'static str> {
        diags.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_spec_has_no_diagnostics() {
        let spec = spec_of(vec![task(1, 2, 200, 70, 29), task(2, 1, 250, 120, 29)]);
        assert!(lint_system(&spec).is_empty());
    }

    #[test]
    fn structural_errors_fire() {
        let spec = spec_of(vec![task(1, 2, 10, 7, 8), task(2, 1, 10, 40, 12)]);
        let diags = lint_system(&spec);
        // t1: C > D; t2: C > T (D = 40 keeps RT002 quiet on it).
        assert!(codes(&diags).contains(&"RT002"), "{diags:?}");
        assert!(codes(&diags).contains(&"RT003"), "{diags:?}");
    }

    #[test]
    fn parse_failures_classify_structural_model_errors() {
        // TaskSet construction rejects these before a set exists, so
        // the lint surface routes the model error to the right code.
        let d = parse_failure(
            3,
            "task set invalid: invalid parameter for τ1: period must be positive",
        );
        assert_eq!((d.code, &d.span), ("RT001", &Span::Line(3)));
        let d = parse_failure(0, "task set invalid: duplicate task id 4");
        assert_eq!((d.code, &d.span), ("RT006", &Span::Whole));
        let d = parse_failure(7, "bad duration `10xs`: unknown unit");
        assert_eq!(d.code, "RT000");
        assert_eq!(d.severity, Severity::Error);
    }

    #[test]
    fn fault_rules_fire() {
        let mut spec = spec_of(vec![task(1, 1, 100, 100, 10)]);
        spec.faults.push(FaultEntry {
            task: TaskId(9),
            job: 0,
            delta: ms(5),
        });
        spec.faults.push(FaultEntry {
            task: TaskId(1),
            job: 3,
            delta: ms(5),
        });
        spec.faults.push(FaultEntry {
            task: TaskId(1),
            job: 3,
            delta: ms(7),
        });
        let diags = lint_system(&spec);
        assert!(codes(&diags).contains(&"RT004"), "{diags:?}");
        assert!(codes(&diags).contains(&"RT005"), "{diags:?}");
    }

    #[test]
    fn overload_and_unallocatable_fire() {
        let over = spec_of(vec![task(1, 2, 10, 10, 8), task(2, 1, 10, 10, 8)]);
        assert_eq!(codes(&lint_system(&over)), vec!["RT010"]);
        let multi = spec_of(vec![
            task(1, 3, 10, 10, 9),
            task(2, 2, 10, 10, 9),
            task(3, 1, 10, 10, 9),
        ])
        .with_cores(2, AllocPolicy::FirstFitDecreasing);
        assert_eq!(codes(&lint_system(&multi)), vec!["RT011"]);
    }

    #[test]
    fn global_necessary_conditions_fire() {
        // U = 2.7 over 2 cores: RT013 under global, RT011 partitioned.
        let over = spec_of(vec![
            task(1, 3, 10, 10, 9),
            task(2, 2, 10, 10, 9),
            task(3, 1, 10, 10, 9),
        ])
        .with_cores(2, AllocPolicy::FirstFitDecreasing);
        assert_eq!(codes(&lint_system(&over)), vec!["RT011"]);
        let over = over.with_placement(Placement::Global);
        assert_eq!(codes(&lint_system(&over)), vec!["RT013"]);

        // Arbitrary deadline D > T: density uses the period window, so
        // C = 12 > T = 10 is a per-task RT013 (alongside RT003).
        let dense = spec_of(vec![task(1, 2, 10, 40, 12), task(2, 1, 100, 100, 1)])
            .with_cores(2, AllocPolicy::FirstFitDecreasing)
            .with_placement(Placement::Global);
        let diags = lint_system(&dense);
        assert!(codes(&diags).contains(&"RT013"), "{diags:?}");
        assert!(
            diags
                .iter()
                .any(|d| d.code == "RT013" && matches!(d.span, Span::Task(TaskId(1), _))),
            "{diags:?}"
        );
    }

    #[test]
    fn dead_allocator_under_global_placement_notes() {
        let spec = spec_of(vec![task(1, 1, 100, 100, 10)])
            .with_cores(2, AllocPolicy::WorstFitDecreasing)
            .with_placement(Placement::Global);
        let diags = lint_system(&spec);
        assert_eq!(codes(&diags), vec!["RT034"]);
        assert_eq!(diags[0].severity, Severity::Note);
        // The default allocator rides along silently, and partitioned
        // specs keep their allocator without comment.
        let quiet = spec_of(vec![task(1, 1, 100, 100, 10)])
            .with_cores(2, AllocPolicy::FirstFitDecreasing)
            .with_placement(Placement::Global);
        assert!(lint_system(&quiet).is_empty());
        let part =
            spec_of(vec![task(1, 1, 100, 100, 10)]).with_cores(2, AllocPolicy::WorstFitDecreasing);
        assert!(lint_system(&part).is_empty());
    }

    #[test]
    fn npfp_blocking_rule_is_sound() {
        // hi: D = 10 ms; lo: C = 12 ms → blocking alone overruns hi.
        let mut spec = spec_of(vec![task(1, 2, 100, 10, 2), task(2, 1, 100, 100, 12)]);
        spec.policy = PolicyKind::NonPreemptiveFp;
        assert_eq!(codes(&lint_system(&spec)), vec!["RT012"]);
        // Preemptive FP: same set, no blocking, no finding.
        spec.policy = PolicyKind::FixedPriority;
        assert!(lint_system(&spec).is_empty());
    }

    #[test]
    fn non_dm_priorities_warn_once() {
        let spec = spec_of(vec![task(1, 2, 200, 150, 10), task(2, 1, 200, 50, 10)]);
        let diags = lint_system(&spec);
        assert_eq!(codes(&diags), vec!["RT020"]);
        assert_eq!(diags[0].severity, Severity::Warning);
    }

    #[test]
    fn coprime_periods_warn_under_edf_only() {
        let mut spec = spec_of(vec![
            task(1, 3, 997, 997, 1),
            task(2, 2, 1009, 1009, 1),
            task(3, 1, 1013, 1013, 1),
        ]);
        assert!(lint_system(&spec).is_empty(), "FP ignores the hyperperiod");
        spec.policy = PolicyKind::Edf;
        assert_eq!(codes(&lint_system(&spec)), vec!["RT021"]);
    }

    #[test]
    fn batch_notes_fire() {
        let spec = spec_of(vec![task(1, 1, 100, 100, 10)]);
        let diags = lint_batch(
            &spec,
            &[Query::Sensitivity, Query::Feasibility, Query::Feasibility],
        );
        assert_eq!(codes(&diags), vec!["RT022", "RT023"]);
        assert!(diags.iter().all(|d| d.severity == Severity::Note));
    }

    #[test]
    fn lines_round_trip() {
        let mut spec = spec_of(vec![task(1, 2, 10, 7, 8), task(2, 1, 10, 10, 8)]);
        spec.faults.push(FaultEntry {
            task: TaskId(7),
            job: 1,
            delta: ms(1),
        });
        let diags = lint_batch(&spec, &[Query::WcrtAll, Query::Feasibility]);
        assert!(!diags.is_empty());
        let text = render_text(&diags);
        let back = parse_text(&text).unwrap();
        assert_eq!(back, diags);
        // A CLI-style trailing summary is tolerated.
        let with_summary = format!("{text}3 errors, 0 warnings, 1 note\n");
        assert_eq!(parse_text(&with_summary).unwrap(), diags);
        assert_eq!(render_text(&back), text, "printing is a fixed point");
    }

    #[test]
    fn parse_line_rejects_contradictory_severity() {
        assert!(Diagnostic::parse_line("RT002 note - whatever").is_err());
        assert!(Diagnostic::parse_line("RT999 error - whatever").is_err());
    }

    #[test]
    fn json_rendering_is_well_formed() {
        let spec = spec_of(vec![task(1, 1, 10, 5, 8)]);
        let doc = render_json(&lint_system(&spec));
        assert!(doc.contains("\"code\":\"RT002\""), "{doc}");
        assert!(doc.contains("\"errors\": 1"), "{doc}");
        assert!(doc.trim_end().ends_with('}'), "{doc}");
    }

    #[test]
    fn rule_codes_are_unique() {
        let mut seen = BTreeSet::new();
        for r in RULES {
            assert!(seen.insert(r.code), "duplicate rule code {}", r.code);
        }
    }

    #[test]
    fn fifty_task_spec_lints_in_under_a_millisecond() {
        // The acceptance bound: static rules only, no fixed point. 100
        // lints of a 50-task spec in < 100 ms keeps the per-lint cost
        // ≤ 1 ms with a debug-build safety margin (release is ~µs).
        let tasks: Vec<TaskSpec> = (0..50)
            .map(|i| {
                task(
                    i + 1,
                    50 - i as i32,
                    100 + 7 * i as i64,
                    90 + 7 * i as i64,
                    1,
                )
            })
            .collect();
        let spec = spec_of(tasks);
        let start = std::time::Instant::now();
        for _ in 0..100 {
            let diags = lint_system(&spec);
            assert!(diags.is_empty(), "{diags:?}");
        }
        assert!(
            start.elapsed() < std::time::Duration::from_millis(100),
            "lint too slow: {:?} for 100 iterations",
            start.elapsed()
        );
    }
}
