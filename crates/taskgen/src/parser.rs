//! Task-description file parser — the paper's first tool "enables us to
//! parse a file which describes the tasks in the system. It builds and
//! runs the tasks automatically."
//!
//! Format: one task per line,
//!
//! ```text
//! # name  priority  period  deadline  cost  [offset]
//! tau1    20        200ms   70ms      29ms
//! tau2    18        250ms   120ms     29ms
//! tau3    16        1500ms  120ms     29ms  1000ms
//! ```
//!
//! plus optional fault lines,
//!
//! ```text
//! fault tau1 job 5 overrun 40ms
//! fault tau2 job 3 underrun 5ms
//! ```
//!
//! These are the task and fault lines of query batches and campaign
//! specs ([`SystemLines`] parses and renders all of them), with no
//! `task` keyword. Durations accept `ns`, `us`, `ms`, `s` suffixes (bare
//! numbers = ms, matching the paper's tables), and a fault amount must
//! be greater than zero. Task ids are assigned in file order starting
//! at 1.

use rtft_core::query::{FaultEntry, SystemLines};
use rtft_core::task::{TaskId, TaskSet, TaskSpec};
use rtft_sim::fault::FaultPlan;
use std::collections::BTreeMap;

/// A parsed system description: tasks plus fault plan.
#[derive(Clone, Debug)]
pub struct SystemDescription {
    /// The tasks, in file order.
    pub tasks: Vec<TaskSpec>,
    /// Injected faults.
    pub faults: FaultPlan,
    /// Name → id mapping (for callers referencing tasks by name).
    pub names: BTreeMap<String, TaskId>,
}

impl SystemDescription {
    /// Build the validated task set.
    pub fn task_set(&self) -> Result<TaskSet, rtft_core::error::ModelError> {
        TaskSet::new(self.tasks.clone())
    }
}

/// Parse failure with its 1-based line number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// Offending line.
    pub line: usize,
    /// Explanation.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task file parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse a full system description: the task and fault lines of
/// [`SystemLines`], with no `task` keyword. Repeated faults on one job
/// sum into the [`FaultPlan`].
pub fn parse(text: &str) -> Result<SystemDescription, ParseError> {
    let mut lines = SystemLines::default();
    for (idx, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let words: Vec<&str> = line.split_ascii_whitespace().collect();
        let added = if words[0] == "fault" {
            lines.fault(&words[1..])
        } else {
            lines.task(&words, false)
        };
        added.map_err(|message| ParseError {
            line: idx + 1,
            message,
        })?;
    }
    let (tasks, names, faults) = lines.into_parts();
    Ok(SystemDescription {
        tasks,
        faults: faults.into_iter().collect(),
        names,
    })
}

/// Serialize a description back to the file format (round-trips with
/// [`parse`]).
pub fn to_text(desc: &SystemDescription) -> String {
    let mut out = String::from("# name priority period deadline cost [offset]\n");
    let faults = desc
        .faults
        .entries()
        .map(|(task, job, delta)| FaultEntry { task, job, delta });
    SystemLines::render(&mut out, false, &desc.tasks, faults);
    out
}

/// The paper's Table 2 + Figures 3–7 scenario, in the file format — used
/// by the quickstart example and as a parser fixture.
pub const PAPER_SCENARIO_FILE: &str = "\
# The evaluated system of Masson & Midonnet 2006 (Table 2), with tau3
# phased into the Figures 3-7 observation window.
tau1 20 200ms  70ms  29ms
tau2 18 250ms  120ms 29ms
tau3 16 1500ms 120ms 29ms 1000ms
# the voluntary cost overrun on tau1's job released at t = 1000 ms
fault tau1 job 5 overrun 40ms
";

#[cfg(test)]
mod tests {
    use super::*;
    use rtft_core::time::Duration;

    #[test]
    fn parses_paper_scenario() {
        let desc = parse(PAPER_SCENARIO_FILE).unwrap();
        assert_eq!(desc.tasks.len(), 3);
        let set = desc.task_set().unwrap();
        assert_eq!(set.by_id(TaskId(1)).unwrap().name, "tau1");
        assert_eq!(set.by_id(TaskId(3)).unwrap().offset, Duration::millis(1000));
        assert_eq!(desc.faults.delta(TaskId(1), 5), Duration::millis(40));
        assert_eq!(desc.names["tau2"], TaskId(2));
    }

    #[test]
    fn duration_suffixes() {
        let parse_duration = str::parse::<Duration>;
        assert_eq!(parse_duration("5").unwrap(), Duration::millis(5));
        assert_eq!(parse_duration("5ms").unwrap(), Duration::millis(5));
        assert_eq!(parse_duration("5us").unwrap(), Duration::micros(5));
        assert_eq!(parse_duration("5ns").unwrap(), Duration::nanos(5));
        assert_eq!(parse_duration("2s").unwrap(), Duration::secs(2));
        assert!(parse_duration("abc").is_err());
        assert!(parse_duration("9999999999999s").is_err());
    }

    #[test]
    fn roundtrip() {
        let desc = parse(PAPER_SCENARIO_FILE).unwrap();
        let text = to_text(&desc);
        let back = parse(&text).unwrap();
        assert_eq!(back.tasks, desc.tasks);
        assert_eq!(back.faults, desc.faults);
    }

    #[test]
    fn underrun_faults() {
        let desc = parse("a 1 10ms 10ms 2ms\nfault a job 0 underrun 1ms\n").unwrap();
        assert_eq!(desc.faults.delta(TaskId(1), 0), -Duration::millis(1));
    }

    #[test]
    fn comments_and_blank_lines() {
        let desc = parse("# full comment\n\na 1 10 10 2 # trailing comment\n").unwrap();
        assert_eq!(desc.tasks.len(), 1);
        assert_eq!(desc.tasks[0].period, Duration::millis(10));
    }

    #[test]
    fn errors_have_line_numbers() {
        let err = parse("a 1 10 10 2\nbogus\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = parse("a x 10 10 2\n").unwrap_err();
        assert!(err.message.contains("bad priority"));
        let err = parse("fault nosuch job 0 overrun 5ms\n").unwrap_err();
        assert!(err.message.contains("unknown task"));
        let err = parse("a 1 10 10 2\na 2 20 20 3\n").unwrap_err();
        assert!(err.message.contains("duplicate task name"));
        let err = parse("fault a job 0 sideways 5ms\n").unwrap_err();
        assert!(err.message.contains("unknown task") || err.message.contains("unknown fault"));
    }

    #[test]
    fn nonpositive_and_overflowing_faults_are_line_errors() {
        const MAX: &str = "9223372036854775807ns";
        for (faults, message) in [
            (
                "fault a job 0 overrun 0ms\n",
                "overrun amount `0ms` must be greater than zero",
            ),
            (
                "fault a job 0 overrun -5ms\n",
                "overrun amount `-5ms` must be greater than zero",
            ),
            (
                &format!("fault a job 0 overrun {MAX}\nfault a job 0 overrun {MAX}\n"),
                "summed fault delta of `a` job 0 overflows",
            ),
        ] {
            let err = parse(&format!("a 1 10 10 2\n{faults}")).unwrap_err();
            assert_eq!(err.message, message, "{faults}");
            assert_eq!(err.line, faults.lines().count() + 1, "{faults}");
        }
        // Repeats that fit still sum, and a cancelled job is fault-free.
        let desc = parse(&format!(
            "a 1 10 10 2\nfault a job 0 overrun {MAX}\nfault a job 0 underrun 1ns\n\
             fault a job 1 overrun 3ms\nfault a job 1 underrun 3ms\n"
        ))
        .unwrap();
        assert_eq!(
            desc.faults.delta(TaskId(1), 0),
            Duration::nanos(i64::MAX - 1)
        );
        assert_eq!(desc.faults.len(), 1);
        // The task line's arity message names no keyword.
        let err = parse("a 1 10 10\n").unwrap_err();
        assert_eq!(
            err.message,
            "expected: <name> <priority> <period> <deadline> <cost> [offset]"
        );
    }

    #[test]
    fn offset_field_is_optional() {
        let desc = parse("a 1 10 10 2 3ms\nb 2 20 20 3\n").unwrap();
        assert_eq!(desc.tasks[0].offset, Duration::millis(3));
        assert_eq!(desc.tasks[1].offset, Duration::ZERO);
    }
}
