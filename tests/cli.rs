//! Integration tests for the `rtft` command-line driver.

use std::process::Command;

fn rtft() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rtft"))
}

fn write_paper_file(dir: &std::path::Path) -> std::path::PathBuf {
    let path = dir.join("paper.rtft");
    std::fs::write(&path, rtft::taskgen::PAPER_SCENARIO_FILE).unwrap();
    path
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("rtft-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn analyze_prints_paper_numbers() {
    let dir = temp_dir("analyze");
    let file = write_paper_file(&dir);
    let out = rtft().arg("analyze").arg(&file).output().unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("WCRT = 29ms"));
    assert!(stdout.contains("WCRT = 87ms"));
    assert!(stdout.contains("equitable allowance A = 11ms"));
    assert!(stdout.contains("system allowance M = [33ms, 33ms, 33ms]"));
}

#[test]
fn run_produces_chart_verdict_and_artifacts() {
    let dir = temp_dir("run");
    let file = write_paper_file(&dir);
    let trace = dir.join("trace.log");
    let svg = dir.join("chart.svg");
    let out = rtft()
        .args([
            "run",
            file.to_str().unwrap(),
            "--treatment",
            "system",
            "--jrate",
            "--horizon",
            "1300ms",
            "--window",
            "990ms..1140ms",
            "--cell",
            "1ms",
            "--save-trace",
            trace.to_str().unwrap(),
            "--svg",
            svg.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("legend"));
    assert!(stdout.contains("FAILED"), "τ1 is stopped");
    assert!(stdout.contains("collateral failures: []"));

    // The saved trace parses and contains the 1062 ms stop.
    let text = std::fs::read_to_string(&trace).unwrap();
    let log = rtft::trace::format::from_text(&text).unwrap();
    let stops = log.stops();
    assert_eq!(stops.len(), 1);
    assert_eq!(stops[0].2.as_millis(), 1062);

    // The SVG is a well-formed single document.
    let svg_text = std::fs::read_to_string(&svg).unwrap();
    assert!(svg_text.starts_with("<svg"));
    assert!(svg_text.trim_end().ends_with("</svg>"));
}

#[test]
fn chart_rerenders_saved_trace() {
    let dir = temp_dir("chart");
    let file = write_paper_file(&dir);
    let trace = dir.join("trace.log");
    assert!(rtft()
        .args([
            "run",
            file.to_str().unwrap(),
            "--treatment",
            "none",
            "--horizon",
            "1300ms",
            "--save-trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap()
        .status
        .success());
    let out = rtft()
        .args([
            "chart",
            trace.to_str().unwrap(),
            "--window",
            "990ms..1140ms",
        ])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("legend"));
    assert!(stdout.contains("τ3"));
}

#[test]
fn bad_usage_fails_cleanly() {
    let out = rtft().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = rtft()
        .args(["analyze", "/nonexistent/file"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("rtft:"));
    let dir = temp_dir("bad");
    let file = write_paper_file(&dir);
    let out = rtft()
        .args(["run", file.to_str().unwrap(), "--treatment", "bogus"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn nonpositive_fault_amounts_fail_cleanly_in_every_format() {
    // The same zero overrun as a task file, a campaign spec and a query
    // batch: a line-numbered RT000 error, never a panic.
    let dir = temp_dir("zero-fault");
    let tasks = dir.join("zero.rtft");
    std::fs::write(&tasks, "a 9 100ms 100ms 10ms\nfault a job 0 overrun 0ms\n").unwrap();
    let spec = dir.join("zero.campaign");
    std::fs::write(
        &spec,
        "campaign zero\ntask a 9 100ms 100ms 10ms\nfault a job 0 overrun 0ms\n",
    )
    .unwrap();
    let batch = dir.join("zero.query");
    std::fs::write(
        &batch,
        "system zero\ntask a 9 100ms 100ms 10ms\nfault a job 0 overrun 0ms\nquery wcrt\n",
    )
    .unwrap();
    for (args, exit) in [
        (["lint", tasks.to_str().unwrap()], 4),
        (["lint", spec.to_str().unwrap()], 4),
        (["lint", batch.to_str().unwrap()], 4),
        (["run", tasks.to_str().unwrap()], 1),
        (["campaign", spec.to_str().unwrap()], 1),
        (["query", batch.to_str().unwrap()], 4),
    ] {
        let out = rtft().args(args).output().unwrap();
        let text = format!(
            "{}{}",
            String::from_utf8_lossy(&out.stdout),
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(out.status.code(), Some(exit), "{args:?}: {text}");
        assert!(
            text.contains("overrun amount `0ms` must be greater than zero"),
            "{text}"
        );
        assert!(!text.contains("panicked"), "{args:?}: {text}");
    }
}

#[test]
fn an_overrun_at_the_top_of_the_range_saturates_and_is_flagged() {
    // A lint-clean i64::MAX-ns overrun: the job's demand saturates, so
    // the job never completes and its detector flags it, instead of the
    // add wrapping (or panicking in a debug build) and the overrun
    // vanishing from the run.
    let dir = temp_dir("saturate");
    let tasks = dir.join("max.rtft");
    std::fs::write(
        &tasks,
        "a 9 100ms 100ms 10ms\nb 5 200ms 200ms 20ms\n\
         fault a job 0 overrun 9223372036854775807ns\n",
    )
    .unwrap();
    let out = rtft()
        .args([
            "run",
            tasks.to_str().unwrap(),
            "--treatment",
            "detect",
            "--horizon",
            "300ms",
        ])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stdout}{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let row = stdout
        .lines()
        .find(|l| l.starts_with("τ1 ") && l.ends_with("FAILED"))
        .unwrap_or_else(|| panic!("τ1 is not reported failed:\n{stdout}"));
    // released completed missed stopped faults: job 0 never completes,
    // and its fault is flagged.
    let counts: Vec<usize> = row
        .split_whitespace()
        .skip(1)
        .take(5)
        .map(|w| w.parse().unwrap())
        .collect();
    assert_eq!(counts[1], 0, "{row}");
    assert!(counts[4] > 0, "{row}");
}

const CAMPAIGN_SPEC: &str = "\
campaign cli-smoke
horizon 1300ms
oracle on
taskgen paper
faults single task=1 job=5 overrun=5ms,40ms
treatment all
platform jrate
";

#[test]
fn campaign_runs_grid_and_emits_report() {
    let dir = temp_dir("campaign");
    let spec = dir.join("grid.campaign");
    std::fs::write(&spec, CAMPAIGN_SPEC).unwrap();
    let report_file = dir.join("report.txt");
    let out = rtft()
        .args([
            "campaign",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--report",
            report_file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{:?}", out);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("campaign `cli-smoke`"));
    assert!(stdout.contains("jobs: 10 total, 10 ran"));
    assert!(stdout.contains("0 violations"));
    assert!(stdout.contains("report digest:"));
    // The report file holds the same text.
    let saved = std::fs::read_to_string(&report_file).unwrap();
    assert!(saved.contains("campaign `cli-smoke`"));
    assert!(saved.contains("system-allowance"));
}

#[test]
fn run_accepts_a_policy_flag() {
    let dir = temp_dir("run-policy");
    let file = write_paper_file(&dir);
    for policy in ["fp", "edf", "npfp"] {
        let out = rtft()
            .args([
                "run",
                file.to_str().unwrap(),
                "--policy",
                policy,
                "--treatment",
                "detect",
                "--horizon",
                "1300ms",
            ])
            .output()
            .unwrap();
        assert!(out.status.success(), "--policy {policy}: {out:?}");
    }
    let bad = rtft()
        .args(["run", file.to_str().unwrap(), "--policy", "sideways"])
        .output()
        .unwrap();
    assert!(!bad.status.success());
    assert!(String::from_utf8(bad.stderr)
        .unwrap()
        .contains("unknown policy"));
}

#[test]
fn analyze_reports_the_edf_demand_test() {
    let dir = temp_dir("analyze-edf");
    let file = write_paper_file(&dir);
    let out = rtft()
        .args(["analyze", file.to_str().unwrap(), "--policy", "edf"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("policy: edf"));
    assert!(stdout.contains("EDF processor-demand test: feasible"));
    assert!(stdout.contains("equitable allowance A = 11ms"));
}

#[test]
fn policy_sweep_example_spec_runs_clean() {
    let spec =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/policy_sweep.campaign");
    let out = rtft()
        .args(["campaign", spec.to_str().unwrap(), "--workers", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // 1 set × 3 policies × 3 fault instances × 5 treatments × 2 platforms.
    assert!(stdout.contains("jobs: 90 total, 90 ran"), "{stdout}");
    assert!(stdout.contains("0 violations"));
}

#[test]
fn campaign_report_digest_is_worker_independent() {
    let dir = temp_dir("campaign-det");
    let spec = dir.join("grid.campaign");
    std::fs::write(&spec, CAMPAIGN_SPEC).unwrap();
    let digest_of = |workers: &str| {
        let out = rtft()
            .args(["campaign", spec.to_str().unwrap(), "--workers", workers])
            .output()
            .unwrap();
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        stdout
            .lines()
            .find(|l| l.starts_with("report digest:"))
            .expect("digest line")
            .to_string()
    };
    assert_eq!(digest_of("1"), digest_of("4"));
}

#[test]
fn campaign_spec_errors_fail_cleanly_with_line_numbers() {
    let dir = temp_dir("campaign-bad");
    let spec = dir.join("bad.campaign");
    std::fs::write(&spec, "taskgen paper\nbogus directive\n").unwrap();
    let out = rtft()
        .args(["campaign", spec.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("line 2"), "{stderr}");
    assert!(stderr.contains("unknown directive"), "{stderr}");

    // Bad flag values are also clean failures.
    std::fs::write(&spec, CAMPAIGN_SPEC).unwrap();
    let out = rtft()
        .args(["campaign", spec.to_str().unwrap(), "--workers", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    // And a missing spec file.
    let out = rtft()
        .args(["campaign", "/nonexistent/grid.campaign"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn campaign_repro_dir_is_created_and_empty_on_a_clean_run() {
    let dir = temp_dir("campaign-repro");
    let spec = dir.join("grid.campaign");
    std::fs::write(&spec, CAMPAIGN_SPEC).unwrap();
    let repro_dir = dir.join("repros");
    let out = rtft()
        .args([
            "campaign",
            spec.to_str().unwrap(),
            "--repro-dir",
            repro_dir.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "exit 0 = oracle clean");
    assert!(repro_dir.is_dir());
    assert_eq!(
        std::fs::read_dir(&repro_dir).unwrap().count(),
        0,
        "a clean oracle writes no repro artifacts"
    );
}

#[test]
fn infeasible_system_reported() {
    let dir = temp_dir("infeasible");
    let path = dir.join("overload.rtft");
    std::fs::write(&path, "a 20 10ms 10ms 8ms\nb 19 10ms 10ms 8ms\n").unwrap();
    let out = rtft()
        .args(["analyze", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("NOT FEASIBLE"));
}

#[test]
fn campaign_json_report_matches_the_text_digest() {
    let dir = temp_dir("campaign-json");
    let spec = dir.join("grid.campaign");
    std::fs::write(&spec, CAMPAIGN_SPEC).unwrap();
    let json_file = dir.join("report.json");
    let out = rtft()
        .args([
            "campaign",
            spec.to_str().unwrap(),
            "--workers",
            "2",
            "--json",
            json_file.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let text_digest = stdout
        .lines()
        .find(|l| l.starts_with("report digest:"))
        .expect("digest line")
        .trim_start_matches("report digest:")
        .trim()
        .to_string();
    let json = std::fs::read_to_string(&json_file).unwrap();
    assert!(
        json.contains(&format!("\"digest\": \"{text_digest}\"")),
        "JSON digest must match the text report digest `{text_digest}`:\n{json}"
    );
    assert!(json.contains("\"jobs_total\": 10"));
    assert!(json.contains("\"ran\": 10"));
    assert!(json.contains("\"by_treatment\""));
    // Cheap structural check: balanced braces and brackets.
    let depth = json.chars().fold(0i64, |d, c| match c {
        '{' | '[' => d + 1,
        '}' | ']' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0, "JSON nesting unbalanced");
}

#[test]
fn run_partitions_over_multiple_cores() {
    let dir = temp_dir("run-cores");
    let file = write_paper_file(&dir);
    let trace = dir.join("merged.trace");
    let out = rtft()
        .args([
            "run",
            file.to_str().unwrap(),
            "--cores",
            "2",
            "--alloc",
            "wfd",
            "--treatment",
            "detect",
            "--horizon",
            "1300ms",
            "--window",
            "990ms..1140ms",
            "--cell",
            "1ms",
            "--save-trace",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("== core 0 =="), "{stdout}");
    assert!(stdout.contains("== core 1 =="), "{stdout}");
    assert!(stdout.contains("partitioned over 2 cores (wfd)"));
    // The saved merged trace is core-tagged.
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.lines().any(|l| l.starts_with("c0 ")));
    assert!(text.lines().any(|l| l.starts_with("c1 ")));
    // A bad allocator name fails cleanly.
    let bad = rtft()
        .args([
            "run",
            file.to_str().unwrap(),
            "--cores",
            "2",
            "--alloc",
            "bogus",
        ])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1));
    assert!(String::from_utf8(bad.stderr)
        .unwrap()
        .contains("unknown allocator"));
}

#[test]
fn analyze_reports_the_partition_and_per_core_numbers() {
    let dir = temp_dir("analyze-cores");
    let file = write_paper_file(&dir);
    let out = rtft()
        .args([
            "analyze",
            file.to_str().unwrap(),
            "--cores",
            "2",
            "--alloc",
            "wfd",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("partitioning over 2 cores with wfd"),
        "{stdout}"
    );
    assert!(stdout.contains("core 0: U ="), "{stdout}");
    assert!(stdout.contains("core 1: U ="), "{stdout}");
    // τ1 alone on a core responds in exactly its cost.
    assert!(stdout.contains("WCRT = 29ms"), "{stdout}");
    assert!(stdout.contains("equitable allowance A ="), "{stdout}");
}

#[test]
fn placement_flag_routes_analyze_and_run_to_the_global_plane() {
    let dir = temp_dir("placement");
    let file = write_paper_file(&dir);
    let out = rtft()
        .args([
            "analyze",
            file.to_str().unwrap(),
            "--cores",
            "2",
            "--placement",
            "global",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("global scheduling over 2 migrating cores under fp"),
        "{stdout}"
    );
    assert!(stdout.contains("feasible (sufficient fp test)"), "{stdout}");
    assert!(stdout.contains("equitable allowance A ="), "{stdout}");

    let out = rtft()
        .args([
            "run",
            file.to_str().unwrap(),
            "--cores",
            "2",
            "--placement",
            "global",
            "--treatment",
            "detect",
            "--horizon",
            "1300ms",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("global over 2 migrating cores: merged hash"),
        "{stdout}"
    );
    assert!(stdout.contains("verdict"), "{stdout}");

    // A bad placement name fails cleanly.
    let bad = rtft()
        .args([
            "run",
            file.to_str().unwrap(),
            "--cores",
            "2",
            "--placement",
            "bogus",
        ])
        .output()
        .unwrap();
    assert_eq!(bad.status.code(), Some(1));
    let stderr = String::from_utf8(bad.stderr).unwrap();
    assert!(
        stderr.contains("bad --placement: unknown placement `bogus`"),
        "{stderr}"
    );
}

#[test]
fn placement_example_spec_runs_clean() {
    let spec = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/global_vs_partitioned.campaign");
    let out = rtft()
        .args(["campaign", spec.to_str().unwrap(), "--workers", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // 2 sets × 2 policies × 2 core counts × 2 placements, one
    // treatment: every cell is provable under both placements.
    assert!(stdout.contains("jobs: 16 total, 16 ran"), "{stdout}");
    assert!(stdout.contains("0 violations"), "{stdout}");
}

#[test]
fn multicore_sweep_example_spec_runs_clean() {
    let spec =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("examples/multicore_sweep.campaign");
    let out = rtft()
        .args(["campaign", spec.to_str().unwrap(), "--workers", "2"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    // 2 sets × 3 core counts × 3 allocators × 2 treatments: the U > 1
    // multicore sets are unplaceable on one core by design.
    assert!(stdout.contains("jobs: 36 total"), "{stdout}");
    assert!(stdout.contains("0 violations"));
}

/// Every pinned query batch with its golden JSON: the paper batch plus
/// one batch per placement and policy under `tests/golden/placement/`
/// (partitioned twins, proven and unproven global twins, an
/// unplaceable set).
fn golden_query_batches(root: &std::path::Path) -> Vec<(std::path::PathBuf, std::path::PathBuf)> {
    let mut batches = vec![(
        root.join("examples/paper_queries.query"),
        root.join("tests/golden/paper_queries.json"),
    )];
    let mut placement: Vec<_> = std::fs::read_dir(root.join("tests/golden/placement"))
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "query"))
        .collect();
    placement.sort();
    assert!(placement.len() >= 10, "{placement:?}");
    batches.extend(placement.into_iter().map(|batch| {
        let golden = batch.with_extension("json");
        (batch, golden)
    }));
    batches
}

#[test]
fn query_batch_answers_match_the_pinned_golden_json() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    for (batch, golden) in golden_query_batches(root) {
        let out = rtft()
            .args(["query", batch.to_str().unwrap(), "--json"])
            .output()
            .unwrap();
        assert!(out.status.success(), "{}: {out:?}", batch.display());
        let stdout = String::from_utf8(out.stdout).unwrap();
        if std::env::var("UPDATE_GOLDEN").is_ok() {
            std::fs::write(&golden, &stdout).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&golden).unwrap();
        assert_eq!(
            stdout,
            expected,
            "query responses drifted from {} (UPDATE_GOLDEN=1 to re-pin)",
            golden.display()
        );
    }
}

#[test]
fn query_text_output_reports_the_paper_numbers() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let batch = root.join("examples/paper_queries.query");
    let out = rtft()
        .args(["query", batch.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("equitable allowance A = 11ms"), "{stdout}");
    assert!(stdout.contains("tau3: WCRT = 87ms"), "{stdout}");
    assert!(stdout.contains("tau1: M = 33ms"), "{stdout}");
    assert!(stdout.contains("max single overrun = 33ms"), "{stdout}");
}

#[test]
fn query_batch_reads_stdin_and_dispatches_multicore() {
    use std::io::Write as _;
    // The twin paper system split over two cores: each core answers
    // the uniprocessor Table 2 allowance.
    let mut batch = String::from("system twin\n");
    for base in [0u32, 10] {
        batch.push_str(&format!("task a{} 20 200ms 70ms 29ms\n", base + 1));
        batch.push_str(&format!("task a{} 18 250ms 120ms 29ms\n", base + 2));
        batch.push_str(&format!("task a{} 16 1500ms 120ms 29ms\n", base + 3));
    }
    batch.push_str("cores 2\nalloc wfd\nquery equitable\n");
    let mut child = rtft()
        .args(["query", "-"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child
        .stdin
        .as_mut()
        .unwrap()
        .write_all(batch.as_bytes())
        .unwrap();
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("[core 0] equitable allowance A = 11ms"),
        "{stdout}"
    );
    assert!(
        stdout.contains("[core 1] equitable allowance A = 11ms"),
        "{stdout}"
    );
}

#[test]
fn npfp_sensitivity_answers_when_a_probe_saturates_a_blocked_level() {
    // Lint-clean, yet the scaling search's f = 2 probe fills τ1's level
    // exactly while τ2 blocks it: that probe is infeasible, not an
    // analysis failure, so the whole batch answers.
    let dir = temp_dir("npfp-saturated");
    let batch = dir.join("np.query");
    std::fs::write(
        &batch,
        "system np\n\
         task a 5 10ms 20ms 5ms\n\
         task b 4 40ms 40ms 4ms\n\
         policy npfp\n\
         query feasibility\n\
         query sensitivity\n",
    )
    .unwrap();
    let out = rtft()
        .args(["query", batch.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains(r#""feasible":true"#), "{stdout}");
    assert!(stdout.contains(r#""factor":1.666666"#), "{stdout}");
}

#[test]
fn query_errors_are_classified_io_vs_rejected_input() {
    // A true I/O failure (unreadable file) is an operational error:
    // exit 1, free-form message.
    let out = rtft()
        .args(["query", "/nonexistent/batch"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(!String::from_utf8(out.stderr).unwrap().contains("RT0"));

    // Parse errors are *rejected input*: the lint gate exit 4, with an
    // RT0xx diagnostic carrying the line number.
    let dir = temp_dir("query-bad");
    let bad = dir.join("bad.query");
    std::fs::write(&bad, "task a 1 10ms 10ms 1ms\nquery sideways\n").unwrap();
    let out = rtft()
        .args(["query", bad.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("RT000"), "{stderr}");
    assert!(stderr.contains("line:2"), "{stderr}");

    // An empty spec (e.g. `rtft query /dev/null`) reads fine but holds
    // no system: rejected input, not an I/O failure.
    let empty = dir.join("empty.query");
    std::fs::write(&empty, "").unwrap();
    let out = rtft()
        .args(["query", empty.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8(out.stderr).unwrap().contains("RT000"));

    // A batch with no query lines is likewise rejected input.
    let none = dir.join("none.query");
    std::fs::write(&none, "task a 1 10ms 10ms 1ms\n").unwrap();
    let out = rtft()
        .args(["query", none.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("RT000"), "{stderr}");
    assert!(stderr.contains("no `query` lines"), "{stderr}");
}

#[test]
fn deny_warnings_gate_exits_4_for_both_lint_and_campaign() {
    // `rtft lint --deny-warnings` on a warning-only input: exit 4.
    let fixture = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint/rt020_priority_inversion.rtft");
    let out = rtft()
        .args(["lint", fixture.to_str().unwrap(), "--deny-warnings"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "{out:?}");

    // `rtft campaign --deny-warnings` on a spec with a duplicate
    // scalar directive: the SAME gate exit code, 4 (not 1).
    let dir = temp_dir("campaign-gate");
    let spec = dir.join("dup.campaign");
    std::fs::write(
        &spec,
        "campaign dup\nhorizon 1300ms\nhorizon 1300ms\ntaskgen paper\n\
         faults single task=1 job=5 overrun=5ms\ntreatment none\nplatform exact\n",
    )
    .unwrap();
    let out = rtft()
        .args(["campaign", spec.to_str().unwrap(), "--deny-warnings"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4), "{out:?}");
    assert!(String::from_utf8(out.stderr)
        .unwrap()
        .contains("--deny-warnings"));

    // Without the gate the same spec runs clean (exit 0).
    let out = rtft()
        .args(["campaign", spec.to_str().unwrap(), "--workers", "2"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn serve_daemon_answers_the_paper_batch_and_drains() {
    use std::io::BufRead as _;
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut child = rtft()
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "2"])
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut lines = std::io::BufReader::new(child.stdout.take().unwrap()).lines();
    let listening = lines.next().expect("listening line").unwrap();
    assert!(
        listening.starts_with("rtft serve listening on "),
        "{listening}"
    );
    let addr: std::net::SocketAddr = listening
        .split_ascii_whitespace()
        .nth(4)
        .expect("addr token")
        .parse()
        .expect("addr parses");

    let client = rtft::serve::Client::new(addr);
    let batch = std::fs::read_to_string(root.join("examples/paper_queries.query")).unwrap();

    // JSON responses over HTTP are byte-identical to the pinned golden
    // (i.e. to `rtft query --json`).
    let reply = client.post_query(&batch, true).expect("query over http");
    assert_eq!(reply.status, 200, "{}", reply.body);
    let golden = std::fs::read_to_string(root.join("tests/golden/paper_queries.json")).unwrap();
    assert_eq!(reply.body, golden, "HTTP response drifted from golden");

    // Text responses match `rtft query`'s stdout byte for byte.
    let reply = client.post_query(&batch, false).expect("text query");
    let direct = rtft()
        .args([
            "query",
            root.join("examples/paper_queries.query").to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert_eq!(reply.body, String::from_utf8(direct.stdout).unwrap());

    // Graceful shutdown: the daemon drains and exits 0.
    client.shutdown().expect("shutdown");
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "drained exit");
    let rest: Vec<String> = lines.map(|l| l.unwrap()).collect();
    assert!(rest.iter().any(|l| l == "rtft serve drained"), "{rest:?}");
}

#[test]
fn capture_tamper_replay_minimize_round_trip() {
    // The whole forensic loop through the real binary: export a capture
    // of an out-of-allowance run, verify it replays clean, tamper with
    // the events (RT035 gate), force-replay to the divergence, minimize
    // it, and re-replay the minimized pair at the same event index.
    let dir = temp_dir("replay-loop");
    let tasks = dir.join("tasks.rtft");
    std::fs::write(
        &tasks,
        "tau1 20 200ms 70ms 29ms\n\
         tau2 15 450ms 450ms 50ms\n\
         tau3 10 900ms 900ms 87ms\n\
         fault tau1 job 5 overrun 40ms\n",
    )
    .unwrap();
    let trace = dir.join("run.trace");
    let out = rtft()
        .args(["trace", "export", tasks.to_str().unwrap()])
        .args([
            "--treatment",
            "detect",
            "--jrate",
            "-o",
            trace.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = rtft()
        .args(["trace", "info", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let info = String::from_utf8(out.stdout).unwrap();
    assert!(info.contains("matches the events"), "{info}");

    // Faithful capture + same system and flags = clean replay.
    let replay = |extra: &[&str]| {
        rtft()
            .args(["replay", trace.to_str().unwrap()])
            .args(["--spec", tasks.to_str().unwrap()])
            .args(["--treatment", "detect", "--jrate"])
            .args(extra)
            .output()
            .unwrap()
    };
    let out = replay(&[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("clean"));

    // Tampering (dropping the `fault` evidence) trips the RT035 gate...
    let text = std::fs::read_to_string(&trace).unwrap();
    let tampered: String =
        text.lines()
            .filter(|l| !l.contains(" fault "))
            .fold(String::new(), |mut acc, l| {
                acc.push_str(l);
                acc.push('\n');
                acc
            });
    assert_ne!(tampered, text, "the capture records the fault");
    std::fs::write(&trace, tampered).unwrap();
    let out = replay(&[]);
    assert_eq!(out.status.code(), Some(4));
    assert!(String::from_utf8_lossy(&out.stderr).contains("RT035"));

    // ...and `--force` steps to the divergence: the overrunning job now
    // completes past an unpoliced detection line.
    let repro = dir.join("repro.campaign");
    let out = replay(&["--force", "--minimize", repro.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let event = stdout
        .lines()
        .find_map(|l| l.split_once("DIVERGENCE at event ").map(|(_, r)| r))
        .and_then(|r| r.split_whitespace().next())
        .expect("divergence names its event index");

    // The minimized pair is self-contained: the truncated capture next
    // to the repro spec re-diverges at the same index, no flags needed.
    let mini = repro.with_extension("trace");
    assert!(repro.exists() && mini.exists());
    let out = rtft()
        .args(["replay", mini.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        String::from_utf8(out.stdout)
            .unwrap()
            .contains(&format!("DIVERGENCE at event {event} ")),
        "minimized pair must re-diverge at event {event}"
    );
}

/// A light four-task set: partitions over two cores and passes the
/// global sufficient test on two, with one in-allowance overrun.
const LIGHT_SET: &str = "\
a 20 100ms 100ms 20ms
b 18 150ms 150ms 30ms
c 16 200ms 200ms 25ms
d 14 300ms 300ms 30ms
fault a job 2 overrun 10ms
";

/// Run `rtft run <file> <flags>` inside a fresh directory holding
/// `file` (so paths, and with them the spec hash, are stable) and
/// render the exit code, stdout, stderr and any saved trace as one
/// golden text.
fn run_transcript(tag: &str, file: &str, contents: &str, flags: &[&str]) -> String {
    let dir = temp_dir(tag);
    std::fs::write(dir.join(file), contents).unwrap();
    let out = rtft()
        .current_dir(&dir)
        .arg("run")
        .arg(file)
        .args(flags)
        .output()
        .unwrap();
    let mut text = format!(
        "exit {:?}\n--- stdout\n{}--- stderr\n{}",
        out.status.code(),
        String::from_utf8(out.stdout).unwrap(),
        String::from_utf8(out.stderr).unwrap()
    );
    if let Some(i) = flags.iter().position(|f| *f == "--save-trace") {
        let saved = std::fs::read_to_string(dir.join(flags[i + 1])).unwrap();
        text.push_str("--- saved trace\n");
        text.push_str(&saved);
    }
    text
}

/// Compare against `tests/golden/<name>` (`UPDATE_GOLDEN=1` re-pins).
fn assert_golden(name: &str, actual: &str) {
    let golden = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var("UPDATE_GOLDEN").is_ok() {
        std::fs::write(&golden, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&golden)
        .unwrap_or_else(|e| panic!("{}: {e} (UPDATE_GOLDEN=1 to pin)", golden.display()));
    assert_eq!(
        actual, expected,
        "`rtft run` drifted from tests/golden/{name} (UPDATE_GOLDEN=1 to re-pin)"
    );
}

#[test]
fn run_paper_system_matches_the_pinned_golden() {
    let text = run_transcript(
        "golden-paper",
        "paper.rtft",
        rtft::taskgen::PAPER_SCENARIO_FILE,
        &[
            "--jrate",
            "--treatment",
            "system",
            "--window",
            "990ms..1140ms",
            "--cell",
            "1ms",
            "--save-trace",
            "paper.trace",
        ],
    );
    assert_golden("run_paper_system.txt", &text);
}

#[test]
fn run_partitioned_matches_the_pinned_golden() {
    let text = run_transcript(
        "golden-partitioned",
        "light.rtft",
        LIGHT_SET,
        &[
            "--cores",
            "2",
            "--alloc",
            "wfd",
            "--horizon",
            "600ms",
            "--window",
            "0ms..300ms",
            "--cell",
            "5ms",
            "--save-trace",
            "light.trace",
        ],
    );
    assert_golden("run_partitioned.txt", &text);
}

#[test]
fn run_global_matches_the_pinned_golden() {
    let text = run_transcript(
        "golden-global",
        "light.rtft",
        LIGHT_SET,
        &[
            "--cores",
            "2",
            "--placement",
            "global",
            "--horizon",
            "600ms",
            "--window",
            "0ms..300ms",
            "--cell",
            "5ms",
            "--save-trace",
            "light.trace",
        ],
    );
    assert_golden("run_global.txt", &text);
}

#[test]
fn run_errors_match_the_pinned_golden() {
    // U = 1.2 on one core: the admission gate refuses the base system.
    let infeasible = run_transcript(
        "golden-infeasible",
        "overload.rtft",
        "a 9 100ms 100ms 60ms\nb 8 100ms 100ms 60ms\n",
        &[],
    );
    // Three U = 0.6 tasks cannot fit two cores: the allocator's text.
    let unplaceable = run_transcript(
        "golden-unplaceable",
        "heavy.rtft",
        "a 9 100ms 100ms 60ms\nb 8 100ms 100ms 60ms\nc 7 100ms 100ms 60ms\n",
        &["--cores", "2"],
    );
    assert_golden(
        "run_errors.txt",
        &format!("{infeasible}=== --cores 2\n{unplaceable}"),
    );
}

#[test]
fn oversized_core_counts_are_rejected_input_not_an_abort() {
    // A core count beyond the engine's core-tag range must be refused
    // by the one core-count parser everywhere a count is read, never
    // reach an allocator or the engine.
    let dir = temp_dir("cores-cap");
    let paper = write_paper_file(&dir);
    for placement in ["partitioned", "global"] {
        let out = rtft()
            .args(["run", paper.to_str().unwrap(), "--cores", "99999999999"])
            .args(["--placement", placement])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(1), "{placement}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains("bad core count"), "{stderr}");
    }

    let batch = dir.join("big.query");
    std::fs::write(
        &batch,
        "task tau1 20 200ms 70ms 29ms\ncores 99999999999\nquery feasibility\n",
    )
    .unwrap();
    let out = rtft()
        .args(["query", batch.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(4));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("RT000"), "{stderr}");
    assert!(stderr.contains("line:2"), "{stderr}");

    // A capture whose header claims an oversized platform does not parse.
    let trace = dir.join("run.trace");
    let out = rtft()
        .args(["trace", "export", paper.to_str().unwrap()])
        .args(["--treatment", "detect", "--jrate", "-o"])
        .arg(&trace)
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = std::fs::read_to_string(&trace).unwrap();
    assert!(text.contains("# cores 1\n"));
    std::fs::write(&trace, text.replace("# cores 1\n", "# cores 99999999999\n")).unwrap();
    let out = rtft()
        .args(["replay", trace.to_str().unwrap()])
        .args(["--spec", paper.to_str().unwrap()])
        .args(["--treatment", "detect", "--jrate", "--force"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("bad core count"), "{stderr}");

    // The largest accepted count still answers.
    let out = rtft()
        .args(["run", paper.to_str().unwrap(), "--cores", "65535"])
        .args(["--placement", "global", "--horizon", "1300ms"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
