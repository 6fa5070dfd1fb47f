//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: every end-to-end
//! metric untraced, every per-layer metric traced. The line before it
//! carries the run's provenance, sample spreads and work counts.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;

use rtft_perfbench::stats::{Outcome, Spread};
use rtft_perfbench::{Args, END_TO_END, PER_LAYER};

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".to_string());
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", rtft_core::query::json_escape(s))
}

/// A finite number as JSON, anything else as `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    // Keep git from searching for a repository above the working
    // directory: outside a checkout of this repository it has no revision.
    let parent = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(std::path::Path::to_path_buf))
        .unwrap_or_default();
    std::process::Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", parent)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn json_object<'a>(entries: impl Iterator<Item = (&'a String, String)>) -> String {
    let body: Vec<String> = entries
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The line before the result: provenance, sample spreads, work counts.
fn detail_line(args: &Args, out: &Outcome) -> String {
    let mut s = String::from("{\"provenance\": {");
    let _ = write!(
        s,
        "\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {}, \"cpu\": {}, \
         \"rustc\": {}, \"git_rev\": {}}}",
        json_str(&args.workload),
        args.seed,
        args.seconds,
        args.trace,
        rtft_perfbench::daemon::nproc(),
        json_str(&cpu_model()),
        json_str(&command_line("rustc", &["-V"])),
        json_str(&command_line("git", &["rev-parse", "HEAD"])),
    );
    let spread = json_object(out.samples.iter().filter_map(|(name, v)| {
        let sp = Spread::of(v)?;
        Some((
            name,
            format!(
                "{{\"n\": {}, \"p25\": {}, \"p50\": {}, \"p75\": {}, \"beyond_p99\": {}}}",
                sp.n,
                json_num(sp.p25),
                json_num(sp.p50),
                json_num(sp.p75),
                sp.beyond_p99
            ),
        ))
    }));
    let info = json_object(out.info.iter().map(|(k, v)| (k, json_num(*v))));
    let work = json_object(out.work.iter().map(|(k, v)| (k, v.to_string())));
    let failures: Vec<String> = out.failures.iter().map(|f| json_str(f)).collect();
    let _ = write!(
        s,
        ", \"spread\": {spread}, \"info\": {info}, \"work\": {work}, \"invalid\": {}, \"failures\": [{}]}}",
        out.invalid.as_deref().map_or("null".to_string(), json_str),
        failures.join(", ")
    );
    s
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let out = match rtft_perfbench::run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics: BTreeMap<&str, (f64, &str)> = BTreeMap::new();
    let mut missing = Vec::new();
    for &(name, unit) in wanted {
        let value = match out.metrics.get(name) {
            Some(&(v, _)) => v,
            // A layer this workload never calls did no work in it.
            None if args.trace => 0.0,
            None => f64::NAN,
        };
        if !value.is_finite() {
            missing.push(name);
        }
        metrics.insert(name, (value, unit));
    }
    for f in &out.failures {
        eprintln!("perfbench: wrong answer: {f}");
    }
    if let Some(why) = &out.invalid {
        eprintln!("perfbench: invalid run: {why}");
    }
    if !missing.is_empty() {
        eprintln!("perfbench: no value for {missing:?}");
    }
    // `correct` speaks for the answers only: a run the host slowed is
    // flagged in the detail line's `invalid`, its answers still checked.
    let correct = out.failed == 0 && missing.is_empty() && out.attempted > 0;
    println!("{}", detail_line(&args, &out));
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
