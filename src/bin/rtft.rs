//! `rtft` — command-line driver, the Rust counterpart of the paper's
//! first tool: "parse a file which describes the tasks in the system.
//! It builds and runs the tasks automatically."
//!
//! ```text
//! rtft analyze  <tasks.rtft>                  # admission report + allowances
//! rtft run      <tasks.rtft> [options]        # execute and chart
//! rtft chart    <trace.log>  [options]        # re-chart a saved trace
//! rtft campaign <spec.campaign> [options]     # run a scenario grid
//! rtft query    <batch.query|-> [--json]      # answer a query batch
//! rtft lint     <file|->         [options]    # static diagnostics only
//! rtft serve    [options]                     # warm-session analysis daemon
//! rtft trace    export|info ...               # capture persistence
//! rtft replay   <trace> [options]             # step a capture to divergence
//!
//! run options:
//!   --treatment <none|detect|stop|equitable|system>   (default: system)
//!   --policy    <fp|edf|npfp>      dispatch rule      (default: fp)
//!   --cores     <n>                processor cores    (default: 1)
//!   --alloc     <ffd|bfd|wfd|exhaustive>  allocator   (default: ffd)
//!   --placement <partitioned|global>  multicore placement kind
//!                                  (default: partitioned; global runs
//!                                  one migrating queue, no allocator)
//!   --horizon   <duration>                            (default: 3000ms)
//!   --window    <from>..<to>       chart window       (default: whole run)
//!   --cell      <duration>         chart cell         (default: auto)
//!   --jrate                        10 ms timer grid
//!   --save-trace <file>            write the trace capture: provenance
//!                                  header + events (core-tagged merged
//!                                  format with --cores > 1), importable
//!                                  by `rtft replay`
//!   --svg <file>                   write an SVG chart of the window
//!                                  (single-core runs only)
//!
//! analyze options:
//!   --policy <fp|edf|npfp>         analyse for that dispatch rule
//!   --cores  <n>                   partition over n cores first
//!   --alloc  <ffd|bfd|wfd|exhaustive>  allocator with --cores
//!   --placement <partitioned|global>  sufficient global tests with
//!                                  `global` (no partitioning step)
//!
//! campaign options:
//!   --workers <n>                  worker threads     (default: CPU count)
//!   --report <file>                also write the report text to a file
//!   --json <file>                  write the machine-readable JSON report
//!   --repro-dir <dir>              write oracle-violation repro specs
//!                                  (plus the offending traces) here
//!   --no-oracle                    disable the differential oracle
//!
//! query:
//!   reads a `system` + `query` line batch from a file (or stdin with
//!   `-`) and answers through the query-plane `Workbench`: one memoized
//!   session plan shared by the whole batch, dispatched automatically
//!   to the uniprocessor or partitioned analyzer. `--json` emits the
//!   machine-readable responses — the proto-service endpoint. With
//!   `--lint` the batch's static diagnostics print to stderr first.
//!   An unparsable or empty batch exits 4 with an `RT0xx` diagnostic
//!   on stderr (the lint contract); true I/O failures exit 1.
//!
//! campaign lint flags:
//!   `--lint` prints the grid's static diagnostics to stderr before the
//!   run; `--deny-warnings` aborts (exit 4, same gate code as `lint`)
//!   when the lint finds any warning or error. Duplicate scalar
//!   directives in the spec always warn on stderr.
//!
//! lint options:
//!   --kind <spec|batch|campaign|trace>  force the input kind (default:
//!                                  by extension, then content sniff)
//!   --json                         machine-readable diagnostics
//!   --deny-warnings                exit 4 on warnings, not just errors
//!
//!   `lint` runs only the static `RT0xx` rules (never a fixed point)
//!   and exits 0 when clean, 4 when the gate trips, 1 on I/O errors.
//!
//! serve options:
//!   --addr <host:port>             bind address  (default: 127.0.0.1:7878)
//!   --sessions <n>                 warm-session cache capacity (default: 64)
//!   --threads <n>                  worker threads (default: CPU count)
//!   --timeout-ms <n>               per-request socket timeout (default: 10000)
//!   --max-body <bytes>             request body cap (default: 1048576)
//!
//!   `serve` answers `POST /query` with the same renderings as
//!   `rtft query` (`?json` for JSON), `GET /stats` with cache and
//!   latency counters, streams a live run's events on `POST /trace`
//!   (body: a one-job campaign spec; one line per event, flushed as the
//!   simulation records it), and drains gracefully on `POST /shutdown`.
//!   Exits 0 after a graceful shutdown, 1 on bind/config errors.
//!
//! trace:
//!   `trace export <tasks.rtft|repro.campaign>` re-runs the system
//!   deterministically and writes an importable capture — provenance
//!   header (spec hash, policy, placement, cores, treatment, content
//!   hash) plus the events. Flags: `-o <file>` (default: stdout),
//!   `--json` for the JSON rendering, and the `run` system flags
//!   (`--treatment`, `--policy`, `--cores`, `--alloc`, `--placement`,
//!   `--horizon`, `--jrate`) for task files — a one-job campaign spec
//!   carries its own. `trace info <file>` prints the header fields,
//!   the event count and the hash check of a saved capture.
//!
//! replay options:
//!   --spec <file>       the system to replay against (default: the
//!                       sibling <trace>.campaign, then <trace>.rtft)
//!   --step              print every event as it is checked
//!   --minimize <out>    on divergence, write the one-job repro spec to
//!                       <out> plus the truncated capture next to it
//!   --force             replay despite an RT035 hash mismatch
//!
//!   `replay` steps a saved capture event-by-event against the
//!   analyzer's thresholds: exit 0 when the whole trace respects them,
//!   3 at the first divergence (the oracle-violation code, so CI gates
//!   the same way on `run`, `campaign` and `replay`), and 4 — the lint
//!   gate — when the capture's content hash or spec hash contradicts
//!   the replayed system (rule RT035, overridable with `--force`).
//!   Task-file replays accept the same system flags as `run`; header
//!   fields fill whatever the flags leave unset.
//!
//! `run` and `campaign` exit 0 on a clean run, 3 when the differential
//! oracle found sim-vs-analysis violations (so CI can gate on either).
//! The full exit-code contract is tabulated in README.md and pinned by
//! tests/exit_contract.rs.
//! ```

use rtft::prelude::*;
use rtft_core::diag::{self, Diagnostic};
use rtft_core::query::{
    parse_batch, parse_cores, render_responses_json, render_responses_text, FaultEntry, Placement,
    Query, Response,
};
use rtft_core::time::{Duration, Instant};
use rtft_taskgen::parser::parse as parse_tasks;
use std::process::ExitCode;

/// A command failure carrying its exit code: 1 for operational errors
/// (I/O, bad flags), 4 for diagnostics gates (`--deny-warnings`,
/// rejected query input) — the single contract tabulated in README.md.
struct CliError {
    exit: u8,
    message: String,
}

impl From<String> for CliError {
    /// Plain string errors keep the historical exit 1.
    fn from(message: String) -> Self {
        CliError { exit: 1, message }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError {
            exit: 1,
            message: message.to_string(),
        }
    }
}

/// A diagnostics-gate failure: exit 4, like `rtft lint`.
fn gate(message: impl Into<String>) -> CliError {
    CliError {
        exit: 4,
        message: message.into(),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("analyze") => cmd_analyze(&args[1..]),
        Some("run") => return exit_on_oracle(cmd_run(&args[1..])),
        Some("chart") => cmd_chart(&args[1..]),
        Some("campaign") => return exit_on_oracle(run_campaign_cmd(&args[1..])),
        Some("query") => cmd_query(&args[1..]),
        Some("lint") => return cmd_lint(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("trace") => cmd_trace(&args[1..]),
        Some("replay") => return exit_on_oracle(cmd_replay(&args[1..])),
        _ => {
            eprintln!(
                "usage: rtft <analyze|run|chart|campaign|query|lint|serve|trace|replay> \
                 <file> [options]"
            );
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("rtft: {}", e.message);
            ExitCode::from(e.exit)
        }
    }
}

type CliResult = Result<(), CliError>;

/// Map an oracle-aware command result to an exit code: 0 clean, 3 on
/// sim-vs-analysis violations, otherwise the error's own code (1 for
/// operational errors, 4 for the `--deny-warnings` gate) — same
/// contract for `run` and `campaign`, so CI can gate on either.
fn exit_on_oracle(result: Result<bool, CliError>) -> ExitCode {
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(3),
        Err(e) => {
            eprintln!("rtft: {}", e.message);
            ExitCode::from(e.exit)
        }
    }
}

fn load_system(path: &str) -> Result<(TaskSet, FaultPlan), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse_system(&text)
}

/// A task file's validated set and fault plan.
fn parse_system(text: &str) -> Result<(TaskSet, FaultPlan), String> {
    let desc = parse_tasks(text).map_err(|e| e.to_string())?;
    let set = desc.task_set().map_err(|e| e.to_string())?;
    Ok((set, desc.faults))
}

/// The system flags of a task-file command: `--policy` (fp), `--cores`
/// (1), `--alloc` (ffd) and `--placement` (partitioned). A replayed
/// capture's header fills what the flags leave unset; it records no
/// allocator.
struct SystemFlags {
    policy: PolicyKind,
    cores: usize,
    alloc: rtft::part::AllocPolicy,
    placement: Placement,
}

fn system_flags(
    args: &[String],
    header: Option<&rtft::trace::TraceHeader>,
) -> Result<SystemFlags, String> {
    let policy = flag_value(args, "--policy")
        .or_else(|| header.map(|h| h.policy.as_str()))
        .unwrap_or("fp")
        .parse()?;
    let cores = match flag_value(args, "--cores") {
        Some(c) => parse_cores(c).map_err(|e| format!("--cores: {e}"))?,
        None => header.map_or(1, |h| h.cores),
    };
    let alloc = flag_value(args, "--alloc").unwrap_or("ffd").parse()?;
    let placement = flag_value(args, "--placement")
        .or_else(|| header.map(|h| h.placement.as_str()))
        .unwrap_or("partitioned")
        .parse()
        .map_err(|e: String| format!("bad --placement: {e}"))?;
    Ok(SystemFlags {
        policy,
        cores,
        alloc,
        placement,
    })
}

/// `rtft analyze` is sugar over the query plane: the task file becomes
/// a [`SystemSpec`], the report becomes a query batch answered by one
/// [`Workbench`], and the rendering below is a view over the typed
/// responses — byte-identical to the pre-query-plane output.
fn cmd_analyze(args: &[String]) -> CliResult {
    let path = args.first().ok_or("analyze: missing task file")?;
    let (set, _) = load_system(path)?;
    let SystemFlags {
        policy,
        cores,
        alloc,
        placement,
    } = system_flags(args, None)?;
    let spec = SystemSpec::uniprocessor(path.clone(), set.clone())
        .with_policy(policy)
        .with_cores(cores, alloc)
        .with_placement(placement);
    if cores > 1 {
        if placement == Placement::Global {
            return analyze_global(spec);
        }
        return analyze_partitioned(spec);
    }
    println!("{set}");
    if policy != PolicyKind::FixedPriority {
        println!("policy: {policy}");
    }
    // One workbench serves the report and both allowance blocks. The
    // admission half runs first; the allowance searches are only
    // issued for feasible systems (their answers would go unprinted).
    let mut bench = Workbench::new(spec);
    let responses = bench
        .run_batch(&[Query::Feasibility, Query::WcrtAll])
        .map_err(|e| e.to_string())?;
    if let Response::Rejected(diags) = &responses[0] {
        // The lint gate fired before any fixed point ran. Keep the
        // report's utilization/feasible lines for overload rejections
        // so the admission verdict reads the same as before the gate.
        println!("utilization U = {:.4}", set.utilization());
        if diags.iter().any(|d| d.code == "RT010") {
            println!("NOT FEASIBLE: U > 1");
        }
        println!("rejected by lint:");
        for d in diags {
            println!("  {}", d.to_line());
        }
        return Ok(());
    }
    let Response::Feasibility {
        feasible,
        overloaded,
        utilization,
    } = responses[0]
    else {
        unreachable!("feasibility query answers with a feasibility response");
    };
    println!("utilization U = {utilization:.4}");
    if overloaded {
        println!("NOT FEASIBLE: U > 1");
        return Ok(());
    }
    if policy == PolicyKind::Edf {
        // EDF has no per-task WCRT: the demand test is a whole-set
        // verdict and the per-task thresholds are the deadlines.
        println!(
            "EDF processor-demand test: {}",
            if feasible { "feasible" } else { "NOT FEASIBLE" }
        );
    }
    let Response::WcrtAll(wcrt) = &responses[1] else {
        unreachable!("wcrt query answers with a wcrt response");
    };
    for line in wcrt {
        let deadline = set.by_id(line.task).expect("task from the set").deadline;
        match line.value {
            Some(w) => println!(
                "  {}: WCRT = {}  D = {}  slack = {}  [{}]",
                line.task,
                w,
                deadline,
                deadline - w,
                if w <= deadline { "ok" } else { "MISS" },
            ),
            None if policy == PolicyKind::Edf => println!(
                "  {}: detection threshold = deadline = {}",
                line.task, deadline
            ),
            None => println!("  {}: analysis diverges (level overload)", line.task),
        }
    }
    if !feasible {
        println!("NOT FEASIBLE");
        return Ok(());
    }
    let responses = bench
        .run_batch(&[
            Query::EquitableAllowance,
            Query::SystemAllowance(SlackPolicy::ProtectAll),
        ])
        .map_err(|e| e.to_string())?;
    let Response::EquitableAllowance(eq_cores) = &responses[0] else {
        unreachable!("equitable query answers with an equitable response");
    };
    if let Some(a) = eq_cores[0].allowance {
        println!("equitable allowance A = {a}");
        for stop in &eq_cores[0].stop_thresholds {
            println!(
                "  {}: stop threshold {}",
                stop.task,
                stop.value.expect("stop thresholds are always defined")
            );
        }
    }
    let Response::SystemAllowance { per_task, .. } = &responses[1] else {
        unreachable!("system-allowance query answers with a system-allowance response");
    };
    if per_task.iter().all(|v| v.value.is_some()) {
        let m: Vec<String> = per_task
            .iter()
            .map(|v| v.value.expect("checked above").to_string())
            .collect();
        println!("system allowance M = [{}]", m.join(", "));
    }
    Ok(())
}

/// `analyze --cores n`: the same query batch against a partitioned
/// spec — the workbench dispatches to the per-core sessions.
fn analyze_partitioned(spec: SystemSpec) -> CliResult {
    let set = spec.set.clone();
    let policy = spec.policy;
    println!("{set}");
    println!(
        "partitioning over {} cores with {} under {policy} (U = {:.4})",
        spec.cores,
        spec.alloc,
        set.utilization()
    );
    let mut bench = Workbench::new(spec);
    if diag::has_errors(bench.lint()) {
        println!("rejected by lint:");
        for d in bench.lint() {
            println!("  {}", d.to_line());
        }
        return Ok(());
    }
    if let Some(diag) = bench.unplaceable() {
        println!("UNPLACEABLE: {diag}");
        return Ok(());
    }
    print!(
        "{}",
        bench
            .partition()
            .expect("placeable multicore spec")
            .render()
    );
    let responses = bench
        .run_batch(&[Query::Thresholds, Query::EquitableAllowance])
        .map_err(|e| e.to_string())?;
    let Response::Thresholds(thresholds) = &responses[0] else {
        unreachable!("thresholds query answers with a thresholds response");
    };
    let Response::EquitableAllowance(eq_cores) = &responses[1] else {
        unreachable!("equitable query answers with an equitable response");
    };
    // Threshold rows arrive cores-ascending and contiguous; the
    // per-core allowance footer prints at each core boundary.
    let allowance_footer = |core: usize| {
        if let Some(a) = eq_cores
            .iter()
            .find(|c| c.core == core)
            .and_then(|c| c.allowance)
        {
            println!("  equitable allowance A = {a}");
        }
    };
    let mut last_core: Option<usize> = None;
    for line in thresholds {
        if last_core != Some(line.core) {
            if let Some(done) = last_core {
                allowance_footer(done);
            }
            println!("core {}:", line.core);
            last_core = Some(line.core);
        }
        println!(
            "  {}: {} = {}  D = {}",
            line.task,
            if policy == PolicyKind::Edf {
                "threshold"
            } else {
                "WCRT"
            },
            line.value.expect("thresholds are always defined"),
            set.by_id(line.task).expect("task from the set").deadline
        );
    }
    if let Some(done) = last_core {
        allowance_footer(done);
    }
    Ok(())
}

/// `analyze --cores n --placement global`: the sufficient global tests
/// through the same query batch — no partition to print, every task on
/// the shared queue, `None` bounds meaning "no convergent sufficient
/// bound" rather than a proof of a miss.
fn analyze_global(spec: SystemSpec) -> CliResult {
    let set = spec.set.clone();
    let policy = spec.policy;
    println!("{set}");
    println!(
        "global scheduling over {} migrating cores under {policy} (U = {:.4})",
        spec.cores,
        set.utilization()
    );
    let mut bench = Workbench::new(spec);
    if diag::has_errors(bench.lint()) {
        println!("rejected by lint:");
        for d in bench.lint() {
            println!("  {}", d.to_line());
        }
        return Ok(());
    }
    let responses = bench
        .run_batch(&[Query::Feasibility, Query::WcrtAll])
        .map_err(|e| e.to_string())?;
    let Response::Feasibility {
        feasible,
        overloaded,
        ..
    } = responses[0]
    else {
        unreachable!("feasibility query answers with a feasibility response");
    };
    if overloaded {
        println!("NOT FEASIBLE: the necessary envelope fails (U > m, or a task density > 1)");
        return Ok(());
    }
    let Response::WcrtAll(wcrt) = &responses[1] else {
        unreachable!("wcrt query answers with a wcrt response");
    };
    for line in wcrt {
        let deadline = set.by_id(line.task).expect("task from the set").deadline;
        match line.value {
            Some(w) => println!(
                "  {}: bound = {}  D = {}  slack = {}  [{}]",
                line.task,
                w,
                deadline,
                deadline - w,
                if w <= deadline { "ok" } else { "UNPROVEN" },
            ),
            None => println!(
                "  {}: no convergent sufficient bound  D = {deadline}",
                line.task
            ),
        }
    }
    if !feasible {
        println!("NOT PROVEN FEASIBLE (sufficient test)");
        return Ok(());
    }
    println!("feasible (sufficient {} test)", policy.label());
    let responses = bench
        .run_batch(&[
            Query::EquitableAllowance,
            Query::SystemAllowance(SlackPolicy::ProtectAll),
        ])
        .map_err(|e| e.to_string())?;
    let Response::EquitableAllowance(eq_cores) = &responses[0] else {
        unreachable!("equitable query answers with an equitable response");
    };
    if let Some(a) = eq_cores[0].allowance {
        println!("equitable allowance A = {a}");
        for stop in &eq_cores[0].stop_thresholds {
            println!(
                "  {}: stop threshold {}",
                stop.task,
                stop.value.expect("stop thresholds are always defined")
            );
        }
    }
    let Response::SystemAllowance { per_task, .. } = &responses[1] else {
        unreachable!("system-allowance query answers with a system-allowance response");
    };
    if per_task.iter().all(|v| v.value.is_some()) {
        let m: Vec<String> = per_task
            .iter()
            .map(|v| v.value.expect("checked above").to_string())
            .collect();
        println!("system allowance M = [{}]", m.join(", "));
    }
    Ok(())
}

/// What kind of input `rtft lint` is looking at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum LintKind {
    /// A task-file system spec (`.rtft`).
    Spec,
    /// A query batch (`.query`).
    Batch,
    /// A campaign grid (`.campaign`).
    Campaign,
    /// A saved trace capture (`.trace`).
    Trace,
}

/// Guess the input kind: extension first, then a content sniff over
/// the directive vocabulary (the capture header or all-numeric
/// timestamps of a trace, campaign-only keywords, then the batch's
/// `system`/`query` lines, else a task file).
fn lint_kind(path: &str, text: &str) -> LintKind {
    if path.ends_with(".campaign") {
        return LintKind::Campaign;
    }
    if path.ends_with(".query") {
        return LintKind::Batch;
    }
    if path.ends_with(".rtft") {
        return LintKind::Spec;
    }
    if path.ends_with(".trace") || text.trim_start().starts_with("# rtft trace") {
        return LintKind::Trace;
    }
    let mut first_words = text.lines().filter_map(|l| {
        let l = l.split('#').next().unwrap_or("").trim();
        l.split_ascii_whitespace().next()
    });
    if first_words.clone().any(|w| {
        matches!(
            w,
            "campaign" | "taskgen" | "faults" | "treatment" | "horizon" | "oracle"
        )
    }) {
        LintKind::Campaign
    } else if first_words.clone().any(|w| matches!(w, "system" | "query")) {
        LintKind::Batch
    } else if first_words.next().is_some_and(|w| w.parse::<i64>().is_ok()) {
        // Trace event lines lead with a nanosecond timestamp; no other
        // input kind starts a line with a bare integer.
        LintKind::Trace
    } else {
        LintKind::Spec
    }
}

/// Lint a task file: the parsed system lifted to a [`SystemSpec`]
/// (uniprocessor, the `analyze` defaults) plus its inline fault plan.
fn lint_task_file(text: &str) -> Vec<Diagnostic> {
    let desc = match parse_tasks(text) {
        Ok(d) => d,
        Err(e) => return vec![diag::parse_failure(e.line, e.message)],
    };
    let set = match desc.task_set() {
        Ok(s) => s,
        Err(e) => return vec![diag::parse_failure(0, format!("task set invalid: {e}"))],
    };
    let mut spec = SystemSpec::uniprocessor("tasks", set);
    spec.faults = desc
        .faults
        .entries()
        .map(|(task, job, delta)| FaultEntry { task, job, delta })
        .collect();
    diag::lint_system(&spec)
}

/// `rtft lint`: the static diagnostics plane, standalone. Runs only
/// the `RT0xx` rules — never a fixed point — and exits 0 clean / 4
/// when the gate trips (errors, or any warning under
/// `--deny-warnings`) / 1 on I/O or usage errors.
fn cmd_lint(args: &[String]) -> ExitCode {
    let inner = || -> Result<Vec<Diagnostic>, String> {
        let path = args
            .first()
            .filter(|a| !a.starts_with("--"))
            .ok_or("lint: missing input file (use `-` for stdin)")?;
        let text = if path == "-" {
            use std::io::Read as _;
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("read stdin: {e}"))?;
            buf
        } else {
            std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?
        };
        let kind = match flag_value(args, "--kind") {
            Some("spec") => LintKind::Spec,
            Some("batch") => LintKind::Batch,
            Some("campaign") => LintKind::Campaign,
            Some("trace") => LintKind::Trace,
            Some(other) => return Err(format!("lint: unknown --kind `{other}`")),
            None => lint_kind(path, &text),
        };
        Ok(match kind {
            LintKind::Campaign => rtft::campaign::lint::lint_campaign_text(&text),
            LintKind::Batch => match parse_batch(&text) {
                Ok((spec, queries)) => diag::lint_batch(&spec, &queries),
                Err(e) => vec![diag::parse_failure(e.line, e.message)],
            },
            LintKind::Spec => lint_task_file(&text),
            LintKind::Trace => rtft::trace::capture::lint_trace_text(&text),
        })
    };
    let diags = match inner() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("rtft: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (errors, warnings, notes) = diag::counts(&diags);
    if args.iter().any(|a| a == "--json") {
        print!("{}", diag::render_json(&diags));
    } else if diags.is_empty() {
        println!("clean (no diagnostics)");
    } else {
        print!("{}", diag::render_text(&diags));
        println!(
            "{errors} error{}, {warnings} warning{}, {notes} note{}",
            if errors == 1 { "" } else { "s" },
            if warnings == 1 { "" } else { "s" },
            if notes == 1 { "" } else { "s" },
        );
    }
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    if errors > 0 || (deny_warnings && warnings > 0) {
        ExitCode::from(4)
    } else {
        ExitCode::SUCCESS
    }
}

/// `rtft query`: the proto-service endpoint — read a batch, answer it
/// through one [`Workbench`], emit text or `--json` responses.
///
/// Input classification matches the lint contract: an unreadable file
/// is an operational failure (exit 1), while a file that *reads* but
/// does not parse as a batch — including an empty one — is rejected
/// input, reported as an `RT0xx` diagnostic with the gate exit 4.
fn cmd_query(args: &[String]) -> CliResult {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("query: missing batch file (use `-` for stdin)")?;
    let text = if path == "-" {
        use std::io::Read as _;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("read stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?
    };
    let (spec, queries) =
        parse_batch(&text).map_err(|e| gate(diag::parse_failure(e.line, e.message).to_line()))?;
    if queries.is_empty() {
        return Err(gate(
            diag::parse_failure(0, "batch has no `query` lines").to_line(),
        ));
    }
    if args.iter().any(|a| a == "--lint") {
        for d in diag::lint_batch(&spec, &queries) {
            eprintln!("lint: {}", d.to_line());
        }
    }
    let mut bench = Workbench::new(spec.clone());
    let responses = bench.run_batch(&queries).map_err(|e| e.to_string())?;
    if args.iter().any(|a| a == "--json") {
        print!("{}", render_responses_json(&spec, &responses));
    } else {
        print!("{}", render_responses_text(&spec, &queries, &responses));
    }
    Ok(())
}

/// `rtft serve`: the warm-session analysis daemon. Binds, prints the
/// listening line, and blocks until a `POST /shutdown` drains it.
fn cmd_serve(args: &[String]) -> CliResult {
    let mut cfg = rtft::serve::ServeConfig::default();
    if let Some(addr) = flag_value(args, "--addr") {
        cfg.addr = addr.to_string();
    }
    if let Some(n) = flag_value(args, "--sessions") {
        cfg.sessions = n.parse().map_err(|e| format!("bad --sessions: {e}"))?;
        if cfg.sessions == 0 {
            return Err("--sessions must be at least 1".into());
        }
    }
    if let Some(n) = flag_value(args, "--threads") {
        cfg.threads = n.parse().map_err(|e| format!("bad --threads: {e}"))?;
        if cfg.threads == 0 {
            return Err("--threads must be at least 1".into());
        }
    }
    if let Some(ms) = flag_value(args, "--timeout-ms") {
        let ms: u64 = ms.parse().map_err(|e| format!("bad --timeout-ms: {e}"))?;
        cfg.request_timeout = std::time::Duration::from_millis(ms);
    }
    if let Some(bytes) = flag_value(args, "--max-body") {
        cfg.max_body = bytes.parse().map_err(|e| format!("bad --max-body: {e}"))?;
    }
    let server =
        rtft::serve::Server::bind(cfg.clone()).map_err(|e| format!("bind {}: {e}", cfg.addr))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local addr: {e}"))?;
    println!(
        "rtft serve listening on {addr} ({} threads, {} warm sessions)",
        cfg.threads, cfg.sessions
    );
    // The smoke tests read that line through a pipe; make sure it is
    // out before the accept loop blocks this thread.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.run();
    println!("rtft serve drained");
    Ok(())
}

fn flag_value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Build the one-job [`rtft::campaign::JobSpec`] behind a task-file
/// invocation: the [`system_flags`] plus `--treatment` (system),
/// `--horizon` (3000ms) and `--jrate`, with a replayed capture's header
/// filling the unset ones. `run --save-trace`, `trace export` and
/// `replay --spec <tasks.rtft>` all construct the job here, so a
/// capture's spec hash (which covers the spec name — the file path as
/// given) matches on re-import.
fn task_file_job(
    path: &str,
    text: &str,
    args: &[String],
    header: Option<&rtft::trace::TraceHeader>,
) -> Result<rtft::campaign::JobSpec, String> {
    let (set, faults) = parse_system(text)?;
    let flags = system_flags(args, header)?;
    let treatment = rtft::campaign::spec::parse_treatment(
        flag_value(args, "--treatment")
            .or_else(|| header.map(|h| h.treatment.as_str()))
            .unwrap_or("system"),
    )?;
    let horizon: Duration = flag_value(args, "--horizon").unwrap_or("3000ms").parse()?;
    Ok(rtft::campaign::JobSpec {
        index: 0,
        set_ordinal: 0,
        set_label: path.to_string(),
        set: std::sync::Arc::new(set),
        policy: flags.policy,
        cores: flags.cores,
        placement: flags.placement,
        alloc: flags.alloc,
        fault_label: "explicit".to_string(),
        faults,
        treatment,
        platform: if args.iter().any(|a| a == "--jrate") {
            rtft::campaign::PlatformSpec::jrate()
        } else {
            rtft::campaign::PlatformSpec::EXACT
        },
        horizon: Instant::EPOCH + horizon,
    })
}

/// `rtft run`: a lone run is a one-job campaign — the same execution
/// path on every placement, plus the differential oracle for free.
/// Only the rendering follows the placement the workbench chose.
fn cmd_run(args: &[String]) -> Result<bool, CliError> {
    let path = args.first().ok_or("run: missing task file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let job = task_file_job(path, &text, args, None)?;
    let (cores, alloc) = (job.cores, job.alloc);
    if cores > 1 && flag_value(args, "--svg").is_some() {
        return Err("--svg is not supported with --cores > 1".into());
    }
    let SingleRun {
        mut bench,
        run,
        oracle,
    } = rtft_campaign::run_single(&job, true).map_err(|e| e.to_string())?;

    let (from, to) = match flag_value(args, "--window") {
        Some(w) => {
            let (a, b) = w.split_once("..").ok_or("window: expected <from>..<to>")?;
            (Instant::EPOCH + a.parse()?, Instant::EPOCH + b.parse()?)
        }
        None => (Instant::EPOCH, job.horizon),
    };
    let cell = match flag_value(args, "--cell") {
        Some(c) => c.parse()?,
        None => Duration::nanos((((to - from).as_nanos()) / 120).max(1)),
    };
    // One chart per part: the whole set (on a global run, jobs may
    // overlap in time: that's `m` cores executing in parallel), or each
    // core's slice under its own header.
    let mut sliced = false;
    for (outcome, part) in run.parts().zip(bench.parts_mut()) {
        if part.is_slice() {
            sliced = true;
            println!("== core {} ==", part.core);
        }
        println!("{}", outcome.chart(part.session.task_set(), from, to, cell));
        println!("{}", outcome.verdict);
    }
    if sliced {
        println!(
            "partitioned over {cores} cores ({alloc}): merged hash {:016x}",
            run.trace_hash()
        );
        println!("collateral failures: {:?}", run.collateral_failures());
    } else {
        if cores > 1 {
            println!(
                "global over {cores} migrating cores: merged hash {:016x}",
                run.trace_hash()
            );
        }
        let injected = job.faults.overrun_tasks();
        if !injected.is_empty() {
            println!(
                "injected faults on {injected:?}; collateral failures: {:?}",
                run.collateral_failures()
            );
        }
    }
    if let Some(file) = flag_value(args, "--svg") {
        // One core (`--svg` refuses more): the run's one part.
        let log = &run.parts().next().expect("a run has a part").log;
        let cfg = rtft::trace::SvgConfig::window(from, to);
        std::fs::write(file, rtft::trace::render_svg(log, &job.set, &cfg))
            .map_err(|e| format!("write {file}: {e}"))?;
        println!("SVG chart written to {file}");
    }
    if let Some(file) = flag_value(args, "--save-trace") {
        let saved = if cores > 1 {
            "core-tagged trace"
        } else {
            "trace"
        };
        let capture = run.capture(
            bench.spec(),
            rtft::campaign::treatment_keyword(job.treatment),
        );
        std::fs::write(file, capture.render_text()).map_err(|e| format!("write {file}: {e}"))?;
        println!("{saved} written to {file}");
    }
    for v in oracle.violations() {
        println!("ORACLE VIOLATION: {v}");
    }
    Ok(oracle.violations().is_empty())
}

fn run_campaign_cmd(args: &[String]) -> Result<bool, CliError> {
    let path = args.first().ok_or("campaign: missing spec file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let (spec, warnings) =
        rtft::campaign::spec::parse_spec_with_warnings(&text).map_err(|e| e.to_string())?;
    for w in &warnings {
        eprintln!("{w}");
    }
    if args.iter().any(|a| a == "--lint") || args.iter().any(|a| a == "--deny-warnings") {
        let lint = rtft::campaign::lint::lint_campaign(&spec);
        if args.iter().any(|a| a == "--lint") {
            for d in &lint {
                eprintln!("lint: {}", d.to_line());
            }
        }
        if args.iter().any(|a| a == "--deny-warnings") {
            let (errors, lint_warnings, _) = diag::counts(&lint);
            if errors > 0 || lint_warnings > 0 || !warnings.is_empty() {
                // Same gate, same exit code as `rtft lint`: 4.
                return Err(gate(format!(
                    "campaign: --deny-warnings with {} lint errors, {} lint warnings, \
                     {} parse warnings",
                    errors,
                    lint_warnings,
                    warnings.len()
                )));
            }
        }
    }
    let mut cfg = RunConfig::default();
    if let Some(w) = flag_value(args, "--workers") {
        let w: usize = w.parse().map_err(|e| format!("bad --workers: {e}"))?;
        if w == 0 {
            return Err("--workers must be at least 1".into());
        }
        cfg = cfg.with_workers(w);
    }
    if args.iter().any(|a| a == "--no-oracle") {
        cfg = cfg.with_oracle(false);
    }
    let report = run_campaign(&spec, &cfg).map_err(|e| e.to_string())?;
    let rendered = report.render();
    print!("{rendered}");
    if let Some(file) = flag_value(args, "--report") {
        std::fs::write(file, &rendered).map_err(|e| format!("write {file}: {e}"))?;
        println!("report written to {file}");
    }
    if let Some(file) = flag_value(args, "--json") {
        std::fs::write(file, report.to_json()).map_err(|e| format!("write {file}: {e}"))?;
        println!("JSON report written to {file}");
    }
    if let Some(dir) = flag_value(args, "--repro-dir") {
        let dir = std::path::Path::new(dir);
        std::fs::create_dir_all(dir).map_err(|e| format!("mkdir {}: {e}", dir.display()))?;
        for v in &report.violations {
            let file = dir.join(format!("repro-job{}.campaign", v.job_index));
            std::fs::write(&file, &v.repro)
                .map_err(|e| format!("write {}: {e}", file.display()))?;
            println!("repro written to {}", file.display());
            // Re-run the offending job and save its capture next to the
            // spec, so the violation replays (`rtft replay`) without
            // re-running the grid. Capture failure is not a new error:
            // the repro spec above is already the durable artifact.
            match rtft::campaign::capture_violation(&spec, v) {
                Ok(capture) => {
                    let tf = dir.join(format!("repro-job{}.trace", v.job_index));
                    std::fs::write(&tf, capture.render_text())
                        .map_err(|e| format!("write {}: {e}", tf.display()))?;
                    println!("offending trace written to {}", tf.display());
                }
                Err(e) => eprintln!("rtft: trace capture for job {}: {e}", v.job_index),
            }
        }
    }
    Ok(report.oracle_clean())
}

fn cmd_chart(args: &[String]) -> CliResult {
    let path = args.first().ok_or("chart: missing trace file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    // The capture parser accepts every save format: v2 captures (flat
    // or core-tagged, header comments skipped) and legacy headerless
    // v1 files. Charting flattens core tags away.
    let log = parse_capture(&text)
        .map_err(|e| format!("parse {path}: {e}"))?
        .into_log();
    let end = log.end().unwrap_or(Instant::EPOCH);
    let (from, to) = match flag_value(args, "--window") {
        Some(w) => {
            let (a, b) = w.split_once("..").ok_or("window: expected <from>..<to>")?;
            (Instant::EPOCH + a.parse()?, Instant::EPOCH + b.parse()?)
        }
        None => (Instant::EPOCH, end),
    };
    let cell = match flag_value(args, "--cell") {
        Some(c) => c.parse()?,
        None => Duration::nanos((((to - from).as_nanos()) / 120).max(1)),
    };
    let cfg = ChartConfig::window(from, to).with_cell(cell);
    println!("{}", rtft::trace::render(&log, None, &cfg));
    let stats = TraceStats::from_log(&log, None);
    println!("{}", stats.render_table());
    Ok(())
}

/// Parse a saved capture in either rendering: JSON when the text leads
/// with `{`, the line format (v2 header or legacy headerless v1)
/// otherwise.
fn parse_capture(text: &str) -> Result<rtft::trace::TraceCapture, String> {
    if text.trim_start().starts_with('{') {
        rtft::trace::TraceCapture::parse_json(text).map_err(|e| e.to_string())
    } else {
        rtft::trace::TraceCapture::parse_text(text).map_err(|e| e.to_string())
    }
}

/// Resolve the spec side of `trace export` / `replay`: a one-job
/// campaign file is self-contained; a task file takes the `run` system
/// flags, with the capture header (when replaying) filling whatever the
/// flags leave unset.
fn job_for_spec(
    path: &str,
    args: &[String],
    header: Option<&rtft::trace::TraceHeader>,
) -> Result<rtft::campaign::JobSpec, CliError> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    if lint_kind(path, &text) == LintKind::Campaign {
        return rtft::replay::job_from_campaign(&text).map_err(|e| e.to_string().into());
    }
    task_file_job(path, &text, args, header).map_err(CliError::from)
}

/// `rtft trace`: capture persistence — `export` re-runs a system
/// deterministically and writes the importable capture, `info`
/// inspects a saved one.
fn cmd_trace(args: &[String]) -> CliResult {
    match args.first().map(String::as_str) {
        Some("export") => trace_export(&args[1..]),
        Some("info") => trace_info(&args[1..]),
        _ => Err(CliError {
            exit: 2,
            message: "trace: expected `trace export <spec>` or `trace info <file>`".to_string(),
        }),
    }
}

/// `rtft trace export`: re-run the named system and persist the capture
/// (header + events) — the deterministic producer behind every
/// replayable artifact.
fn trace_export(args: &[String]) -> CliResult {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("trace export: missing spec file (a task file or a one-job campaign)")?;
    let job = job_for_spec(path, args, None)?;
    let capture = rtft::campaign::capture_job(&job).map_err(CliError::from)?;
    let rendered = if args.iter().any(|a| a == "--json") {
        capture.render_json()
    } else {
        capture.render_text()
    };
    match flag_value(args, "-o").or_else(|| flag_value(args, "--out")) {
        Some(file) => {
            std::fs::write(file, rendered).map_err(|e| format!("write {file}: {e}"))?;
            let h = capture
                .header
                .as_ref()
                .expect("fresh captures carry a header");
            println!(
                "capture written to {file} ({} events, spec hash {:016x})",
                capture.len(),
                h.spec_hash
            );
        }
        None => print!("{rendered}"),
    }
    Ok(())
}

/// `rtft trace info`: the header fields, hash check and event count of
/// a saved capture.
fn trace_info(args: &[String]) -> CliResult {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("trace info: missing trace file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let capture = parse_capture(&text).map_err(|e| format!("parse {path}: {e}"))?;
    match &capture.header {
        Some(h) => {
            println!("spec hash    {:016x}", h.spec_hash);
            println!("policy       {}", h.policy);
            println!("placement    {}", h.placement);
            println!("cores        {}", h.cores);
            println!("treatment    {}", h.treatment);
            match capture.hash_matches() {
                Some(true) => {
                    println!("content hash {:016x} (matches the events)", h.content_hash);
                }
                _ => println!(
                    "content hash {:016x} MISMATCH: the events recompute to {:016x}",
                    h.content_hash,
                    capture.recomputed_hash()
                ),
            }
        }
        None => println!("headerless legacy trace (v1): no provenance to check"),
    }
    let events = capture.events();
    let cores = events.cores();
    println!(
        "{} events over {cores} core log{}",
        events.len(),
        if cores == 1 { "" } else { "s" }
    );
    let mut stream = events.iter();
    if let Some(first) = stream.next() {
        let last = stream.last().unwrap_or(first);
        println!("span         {} .. {}", first.event.at, last.event.at);
    }
    Ok(())
}

/// Default spec for `replay` when `--spec` is absent: the sibling
/// `<trace>.campaign` (the campaign repro-artifact layout), then
/// `<trace>.rtft`.
fn sibling_spec(trace_path: &str) -> Result<String, CliError> {
    let p = std::path::Path::new(trace_path);
    for ext in ["campaign", "rtft"] {
        let cand = p.with_extension(ext);
        if cand.exists() {
            return Ok(cand.to_string_lossy().into_owned());
        }
    }
    Err(format!(
        "replay: no --spec given and no sibling {} / {} next to the trace",
        p.with_extension("campaign").display(),
        p.with_extension("rtft").display()
    )
    .into())
}

/// `rtft replay`: step a saved capture event-by-event against the
/// analyzer's thresholds — exit 0 when the trace holds, 3 at the first
/// divergence (via [`exit_on_oracle`], the oracle-violation code), 4
/// when the capture's hashes contradict the header or the replayed
/// spec (rule RT035) and `--force` is absent.
fn cmd_replay(args: &[String]) -> Result<bool, CliError> {
    let path = args
        .first()
        .filter(|a| !a.starts_with("--"))
        .ok_or("replay: missing trace file")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let capture = parse_capture(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let force = args.iter().any(|a| a == "--force");
    if capture.hash_matches() == Some(false) && !force {
        return Err(gate(format!(
            "RT035: trace content hash {:016x} disagrees with the header's {:016x} — \
             the events were edited after capture (replay them deliberately with --force)",
            capture.recomputed_hash(),
            capture
                .header
                .as_ref()
                .expect("mismatch implies header")
                .content_hash,
        )));
    }
    let spec_path = match flag_value(args, "--spec") {
        Some(s) => s.to_string(),
        None => sibling_spec(path)?,
    };
    let job = job_for_spec(&spec_path, args, capture.header.as_ref())?;
    if rtft::replay::spec_matches(&capture, &job) == Some(false) && !force {
        return Err(gate(format!(
            "RT035: the capture's spec hash {:016x} disagrees with `{spec_path}` \
             ({:016x}) — a replay against a different system proves nothing \
             (override with --force)",
            capture
                .header
                .as_ref()
                .expect("match implies header")
                .spec_hash,
            rtft_core::query::spec_hash(&job.system_spec()),
        )));
    }
    let report = rtft::replay::replay(&capture, &job).map_err(|e| e.to_string())?;
    if args.iter().any(|a| a == "--step") {
        for (i, ce) in capture.events().iter().enumerate() {
            let marker = match &report.divergence {
                Some(d) if d.index == i => "   <-- DIVERGENCE",
                _ => "",
            };
            println!("{i:>6}  {ce}{marker}");
        }
    }
    println!(
        "replayed {} events ({} completions checked) against `{spec_path}` [{}]",
        report.events, report.checked, report.certification
    );
    match &report.divergence {
        None => {
            println!("clean: the trace respects every threshold");
            println!("{}", report.verdict);
            Ok(true)
        }
        Some(d) => {
            println!("DIVERGENCE at {d}");
            if let Some(out) = flag_value(args, "--minimize") {
                let repro = rtft::replay::minimize(&capture, &job, d);
                std::fs::write(out, &repro.spec).map_err(|e| format!("write {out}: {e}"))?;
                let trace_out = std::path::Path::new(out).with_extension("trace");
                std::fs::write(&trace_out, repro.capture.render_text())
                    .map_err(|e| format!("write {}: {e}", trace_out.display()))?;
                println!(
                    "minimized repro written to {out} (+ {})",
                    trace_out.display()
                );
            }
            Ok(false)
        }
    }
}
