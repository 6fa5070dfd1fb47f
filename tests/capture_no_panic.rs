//! Adversarial input for the capture parsers (`TraceCapture::parse_text`
//! and `parse_json`) and the HTTP head parser (`http::read_request`).
//! Documents are drawn from each grammar's own vocabulary — extreme
//! timestamps, task ids and job indices, missing and unknown fields,
//! mixed bodies, truncation — and must come back as `Ok` or `Err`, never
//! as a panic. Every capture that parses is then replayed, and
//! minimized when it diverges, against one-job specs on one core, two
//! partitioned cores and two global cores, which must not panic either.

use proptest::prelude::*;
use rtft::campaign::JobSpec;
use rtft::replay::{job_from_campaign, minimize, replay_with, resolve_bounds, ReplayBounds};
use rtft::serve::http::read_request;
use rtft::trace::TraceCapture;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::OnceLock;

/// SplitMix64: one seed drives a whole document. Half the documents
/// are noisy: only they take the rare corrupting branches, so the clean
/// half reaches the parsers' success paths.
struct Rng {
    state: u64,
    noisy: bool,
}

impl Rng {
    fn new(seed: u64) -> Self {
        let mut rng = Rng {
            state: seed,
            noisy: false,
        };
        rng.noisy = rng.below(2) == 0;
        rng
    }

    fn below(&mut self, n: usize) -> usize {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    /// A corrupting branch: one in `n`, in noisy documents only.
    fn rare(&mut self, n: usize) -> bool {
        self.noisy && self.below(n) == 0
    }

    fn pick<'a>(&mut self, words: &[&'a str]) -> &'a str {
        words[self.below(words.len())]
    }

    /// One of the first `valid` words, or rarely any of them.
    fn field<'a>(&mut self, words: &[&'a str], valid: usize) -> &'a str {
        if self.rare(4) {
            self.pick(words)
        } else {
            self.pick(&words[..valid])
        }
    }
}

/// Event tags; the last two are not tags.
const TAGS: [&str; 14] = [
    "release", "start", "end", "preempt", "resume", "miss", "detector", "fault", "grant", "stop",
    "idle", "simend", "sideways", "",
];
/// Task ids: the first three are the specs' tasks, and the next three
/// are valid ids outside them.
const IDS: [&str; 9] = [
    "1",
    "2",
    "3",
    "0",
    "1024",
    "4294967295",
    "4294967296",
    "-1",
    "x",
];
/// Job indices: the first five are valid.
const JOBS: [&str; 8] = [
    "0",
    "1",
    "255",
    "256",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
    "1e3",
];
/// Timestamps: the first is valid (but far out of order).
const EXTREME_TIMES: [&str; 6] = [
    "9223372036854775807",
    "-9223372036854775808",
    "9223372036854775808",
    "-1",
    "",
    "t",
];
/// Header keys and a valid value for each.
const HEADER: [(&str, &str); 9] = [
    ("rtft trace v2", ""),
    ("spec-hash", "00c0ffee00c0ffee"),
    ("policy", "fp"),
    ("placement", "partitioned"),
    ("cores", "2"),
    ("treatment", "detect"),
    ("content-hash", "0123456789abcdef"),
    ("free comment", "x"),
    ("", ""),
];
const BAD_HEADER_VALUES: [&str; 5] = ["0", "18446744073709551616", "zz", "ffffffffffffffffff", ""];
const AMOUNTS: [&str; 4] = ["1000000", "9223372036854775807", "-5", "q"];

/// One event's fields as `(key, value)` pairs: the ones its tag needs,
/// rarely one dropped or an unknown one added.
fn fields(rng: &mut Rng, tag: &str) -> Vec<(&'static str, String)> {
    let mut out = Vec::new();
    if !matches!(tag, "idle" | "simend") || rng.rare(8) {
        let (ids, jobs) = if rng.below(5) == 0 { (6, 5) } else { (3, 2) };
        out.push(("task", rng.field(&IDS, ids).to_string()));
        out.push(("job", rng.field(&JOBS, jobs).to_string()));
    }
    if tag == "preempt" || rng.rare(16) {
        out.push(("by", rng.field(&IDS, 6).to_string()));
    }
    if tag == "grant" || rng.rare(16) {
        out.push(("amount", rng.field(&AMOUNTS, 2).to_string()));
    }
    if rng.rare(12) && !out.is_empty() {
        out.remove(rng.below(out.len()));
    }
    if rng.rare(12) {
        out.push(("bogus", "1".to_string()));
    }
    out
}

/// A capture in the line format: header comments, then flat or
/// core-tagged event lines whose timestamps rise.
fn text_capture(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut out = String::new();
    if rng.below(3) != 0 {
        for (key, value) in HEADER {
            if !rng.rare(6) {
                let value = if rng.rare(6) {
                    rng.pick(&BAD_HEADER_VALUES)
                } else {
                    value
                };
                out.push_str(&format!("# {key} {value}\n"));
            }
        }
    }
    let tagged = rng.below(2) == 0;
    let mut now: u64 = 0;
    for _ in 0..rng.below(60) {
        if rng.below(4) == 0 {
            now += rng.below(20_000_000) as u64;
        }
        let at = if rng.rare(24) {
            rng.pick(&EXTREME_TIMES).to_string()
        } else {
            now.to_string()
        };
        let tag = rng.field(&TAGS, 12);
        let mut line = String::new();
        if tagged != rng.rare(30) {
            let core = rng.field(&["0", "1", "2", "18446744073709551616"], 3);
            line.push_str(&format!("c{core} "));
        }
        line.push_str(&format!("{at} {tag}"));
        for (k, v) in fields(&mut rng, tag) {
            line.push_str(&format!(" {k} {v}"));
        }
        if rng.rare(20) {
            line.truncate(rng.below(line.len() + 1));
        }
        if rng.rare(20) {
            line = format!("# {line}");
        }
        out.push_str(&line);
        out.push('\n');
    }
    out
}

/// A JSON value from the capture schema's vocabulary, rarely of the
/// wrong type or out of range.
fn json_value(rng: &mut Rng, good: &str) -> String {
    if rng.rare(5) {
        rng.pick(&["null", "\"7\"", "[1]", "9223372036854775808", "-1"])
            .to_string()
    } else {
        good.to_string()
    }
}

/// A capture in the JSON rendering, rarely with wrong types, missing
/// members or truncation.
fn json_capture(seed: u64) -> String {
    let mut rng = Rng::new(seed);
    let mut out = String::from("{\"version\": 2, ");
    if rng.below(3) == 0 {
        out.push_str("\"header\": null, ");
    } else {
        let cores = json_value(&mut rng, "2");
        let hash = |rng: &mut Rng| {
            if rng.rare(6) {
                rng.pick(&BAD_HEADER_VALUES)
            } else {
                "00c0ffee00c0ffee"
            }
        };
        out.push_str(&format!(
            "\"header\": {{\"spec_hash\": \"{}\", \"policy\": \"fp\", \"placement\": \
             \"partitioned\", \"cores\": {cores}, \"treatment\": \"detect\", \
             \"content_hash\": \"{}\"}}, ",
            hash(&mut rng),
            hash(&mut rng),
        ));
    }
    if !rng.rare(12) {
        let body = rng.field(&["flat", "merged", "mixed"], 2);
        out.push_str(&format!("\"body\": \"{body}\", "));
    }
    out.push_str("\"events\": [");
    let mut now: u64 = 0;
    for i in 0..rng.below(40) {
        if i > 0 {
            out.push_str(", ");
        }
        now += rng.below(5_000_000) as u64;
        let tag = rng.field(&TAGS, 12);
        let mut members = vec![
            format!("\"at\": {}", json_value(&mut rng, &now.to_string())),
            format!("\"tag\": \"{tag}\""),
        ];
        if rng.below(2) == 0 {
            members.push(format!("\"core\": {}", json_value(&mut rng, "1")));
        }
        for (k, v) in fields(&mut rng, tag) {
            let v = if v.parse::<i64>().is_ok() {
                json_value(&mut rng, &v)
            } else {
                format!("\"{v}\"")
            };
            members.push(format!("\"{k}\": {v}"));
        }
        if rng.rare(10) {
            members.remove(rng.below(members.len()));
        }
        out.push_str(&format!("{{{}}}", members.join(", ")));
    }
    out.push_str("]}");
    if rng.rare(4) {
        let mut cut = rng.below(out.len() + 1);
        while !out.is_char_boundary(cut) {
            cut -= 1;
        }
        out.truncate(cut);
    }
    out
}

/// One HTTP request head (and body), well-formed or not.
fn http_request(seed: u64) -> Vec<u8> {
    let mut rng = Rng::new(seed);
    let mut out = Vec::new();
    let method = rng.field(&["GET", "POST", "PUT", "", "G E T"], 3);
    let target = rng.field(
        &["/query", "/stats?json", "/trace", "/?a&b=c&format=json", ""],
        4,
    );
    let version = rng.field(&["HTTP/1.1", "HTTP/1.0", "HTTP/2", "SMTP/1.1", ""], 2);
    out.extend_from_slice(format!("{method} {target} {version}").as_bytes());
    if rng.rare(10) {
        out.extend_from_slice(b" extra");
    }
    out.extend_from_slice(b"\r\n");
    let body_len = rng.below(12);
    for _ in 0..rng.below(6) {
        let line = match rng.below(4) {
            0 => format!("Content-Length: {body_len}"),
            1 => "Accept: application/json".to_string(),
            _ => "Host: localhost".to_string(),
        };
        let line = if rng.rare(3) {
            match rng.below(5) {
                0 => format!(
                    "Content-Length: {}",
                    rng.pick(&["-1", "x", "18446744073709551616", "99999999", ""])
                ),
                1 => "no-colon-here".to_string(),
                2 => format!("X-Long: {}", "y".repeat(rng.below(20_000))),
                3 => ":".to_string(),
                _ => "\u{fffd}: \u{0}".to_string(),
            }
        } else {
            line
        };
        out.extend_from_slice(line.as_bytes());
        out.extend_from_slice(if rng.rare(6) { b"\n" } else { b"\r\n" });
    }
    if rng.rare(12) {
        out.extend_from_slice(&[0xff, 0xfe, b'\r', b'\n']);
    }
    out.extend_from_slice(b"\r\n");
    out.extend(std::iter::repeat_n(b'q', rng.below(16)));
    if rng.rare(6) {
        out.truncate(rng.below(out.len() + 1));
    }
    out
}

/// One-job specs over tasks 1–3: one core, two partitioned cores and
/// two global cores, with their bounds.
fn jobs() -> &'static [(JobSpec, ReplayBounds)] {
    static JOBS: OnceLock<Vec<(JobSpec, ReplayBounds)>> = OnceLock::new();
    JOBS.get_or_init(|| {
        [
            "cores 1\ntreatment stop",
            "cores 2\ntreatment detect",
            "cores 2\nplacement global\ntreatment equitable",
        ]
        .iter()
        .map(|shape| {
            let job = job_from_campaign(&format!(
                "campaign fuzz\nhorizon 300ms\ntask a 30 50ms 50ms 8ms\n\
                     task b 20 80ms 70ms 12ms\ntask c 10 120ms 120ms 20ms\n{shape}\n\
                     platform jrate\n"
            ))
            .expect("fuzz spec is one job");
            let bounds = resolve_bounds(&job).expect("fuzz spec analyses");
            (job, bounds)
        })
        .collect()
    })
}

/// Replay a parsed capture against every spec, minimizing divergences.
fn replay_everywhere(capture: &TraceCapture) {
    for (job, bounds) in jobs() {
        let report = replay_with(capture, job, bounds);
        assert_eq!(report.events, capture.len());
        if let Some(d) = &report.divergence {
            let repro = minimize(capture, job, d);
            assert_eq!(repro.capture.len(), d.index + 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The line format parses or errs; what parses replays.
    #[test]
    fn capture_text_never_panics(seed in 0u64..u64::MAX) {
        let text = text_capture(seed);
        let outcome = catch_unwind(|| {
            if let Ok(capture) = TraceCapture::parse_text(&text) {
                replay_everywhere(&capture);
                let again = TraceCapture::parse_text(&capture.render_text());
                assert_eq!(again.as_ref(), Ok(&capture));
            }
        });
        prop_assert!(outcome.is_ok(), "panicked on:\n{}", text);
    }

    /// The JSON rendering parses or errs; what parses replays.
    #[test]
    fn capture_json_never_panics(seed in 0u64..u64::MAX) {
        let text = json_capture(seed);
        let outcome = catch_unwind(|| {
            if let Ok(capture) = TraceCapture::parse_json(&text) {
                replay_everywhere(&capture);
                let again = TraceCapture::parse_json(&capture.render_json());
                assert_eq!(again.as_ref(), Ok(&capture));
            }
        });
        prop_assert!(outcome.is_ok(), "panicked on:\n{}", text);
    }

    /// The HTTP head parser reads or refuses any byte sequence.
    #[test]
    fn http_head_parser_never_panics(seed in 0u64..u64::MAX) {
        let bytes = http_request(seed);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let _ = read_request(&mut bytes.as_slice(), 64);
        }));
        prop_assert!(outcome.is_ok(), "panicked on {:?}", String::from_utf8_lossy(&bytes));
    }
}

/// The generators reach the parsers' success paths, not just their
/// first error.
#[test]
fn generated_documents_often_parse() {
    let parsed = |f: &dyn Fn(u64) -> bool| (0..400).filter(|&s| f(s)).count();
    let text = parsed(&|s| TraceCapture::parse_text(&text_capture(s)).is_ok());
    let json = parsed(&|s| TraceCapture::parse_json(&json_capture(s)).is_ok());
    let http = parsed(&|s| read_request(&mut http_request(s).as_slice(), 64).is_ok());
    assert!(
        text >= 100 && json >= 100 && http >= 100,
        "{text} {json} {http}"
    );
}
