//! The benchmark's own checks: its work counts repeat exactly for one
//! seed, every workload answers correctly, and `BENCHMARK.json` declares
//! exactly the metrics the program reports.

use rtft_perfbench::{run, Args, END_TO_END, PER_LAYER, WORKLOADS};

fn once(workload: &str, trace: bool) -> rtft_perfbench::stats::Outcome {
    let args = Args {
        workload: workload.to_string(),
        seed: 7,
        seconds: 3.0,
        trace,
    };
    run(&args).expect("known workload")
}

#[test]
fn work_counts_repeat_exactly_for_one_seed() {
    for workload in WORKLOADS {
        let first = once(workload, false);
        let second = once(workload, false);
        assert_eq!(first.failed, 0, "{workload}: {:?}", first.failures);
        assert!(!first.work.is_empty(), "{workload} records work counts");
        assert_eq!(
            first.work, second.work,
            "{workload} work counts differ between runs"
        );
        for (name, _) in END_TO_END {
            let value = first.metrics.get(*name).map(|m| m.0);
            assert!(
                value.is_some_and(|v| v.is_finite() && v > 0.0),
                "{workload}: {name} = {value:?}"
            );
        }
    }
}

#[test]
fn traced_runs_answer_correctly_and_report_layers() {
    for workload in WORKLOADS {
        let out = once(workload, true);
        assert_eq!(out.failed, 0, "{workload}: {:?}", out.failures);
        let reported = PER_LAYER
            .iter()
            .filter(|(name, _)| out.metrics.contains_key(*name))
            .count();
        assert!(
            reported >= 5,
            "{workload} reports only {reported} layer metrics"
        );
    }
}

#[test]
fn benchmark_json_declares_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let declared = |section: &str| -> Vec<(String, String)> {
        let body = &text[text.find(&format!("\"{section}\"")).expect("section")..];
        let body = &body[..body.find(']').expect("section end")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let rest = &entry
                        [entry.find(&format!("\"{key}\": \"")).expect("field") + key.len() + 5..];
                    rest[..rest.find('"').expect("closing quote")].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(declared("end_to_end"), owned(END_TO_END));
    assert_eq!(declared("per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("\"name\": \"{w}\""))
        .collect();
    for w in workloads {
        assert!(text.contains(&w), "BENCHMARK.json names {w}");
    }
}
