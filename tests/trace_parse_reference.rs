//! Differential test of the trace text scanner: `TraceCapture::parse_text`
//! and `format::from_text` must return what the line-by-line parser they
//! replaced returned, on every input — the same capture, or the same
//! error line and message.
//!
//! The reference below is that parser, kept verbatim: `str::lines`,
//! `trim`, `split_ascii_whitespace` and one `str::parse` per word. The
//! inputs are rendered captures of random one-job specs (flat bodies on
//! one core, merged bodies on two partitioned and two global cores),
//! each taken as is or mutated: byte flips, whitespace variants, signs
//! and overflows, truncated, deleted and swapped lines, unknown tags and
//! fields, repeated and reordered fields, core-tag variants and header
//! damage.

use rtft::campaign::capture_job;
use rtft::replay::job_from_campaign;
use rtft::trace::format::{self, ParseError};
use rtft::trace::TraceCapture;

mod reference {
    use rtft_core::query::parse_cores;
    use rtft_core::task::TaskId;
    use rtft_core::time::{Duration, Instant};
    use rtft_trace::capture::{CaptureBody, TraceCapture, TraceHeader};
    use rtft_trace::format::ParseError;
    use rtft_trace::{CoreEvent, EventKind, TraceEvent, TraceLog};

    pub fn from_text(text: &str) -> Result<TraceLog, ParseError> {
        let mut log = TraceLog::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let event = parse_line(line).map_err(|message| ParseError {
                line: line_no,
                message,
            })?;
            if log.end().is_some_and(|last| event.at < last) {
                return Err(ParseError {
                    line: line_no,
                    message: format!("timestamp {} out of order", event.at.as_nanos()),
                });
            }
            log.push_event(event);
        }
        Ok(log)
    }

    fn parse_line(line: &str) -> Result<TraceEvent, String> {
        let mut words = line.split_ascii_whitespace();
        let ns: i64 = words
            .next()
            .ok_or("missing timestamp")?
            .parse()
            .map_err(|e| format!("bad timestamp: {e}"))?;
        let at = Instant::from_nanos(ns);
        let tag = words.next().ok_or("missing event tag")?;

        let mut task: Option<TaskId> = None;
        let mut job: Option<u64> = None;
        let mut amount: Option<Duration> = None;
        let mut by: Option<TaskId> = None;
        while let Some(key) = words.next() {
            let value = words
                .next()
                .ok_or_else(|| format!("missing value for `{key}`"))?;
            match key {
                "task" => {
                    task = Some(TaskId(
                        value.parse().map_err(|e| format!("bad task id: {e}"))?,
                    ));
                }
                "job" => {
                    job = Some(value.parse().map_err(|e| format!("bad job index: {e}"))?);
                }
                "amount" => {
                    amount = Some(Duration::nanos(
                        value.parse().map_err(|e| format!("bad amount: {e}"))?,
                    ));
                }
                "by" => {
                    by = Some(TaskId(
                        value.parse().map_err(|e| format!("bad `by` id: {e}"))?,
                    ));
                }
                other => return Err(format!("unknown field `{other}`")),
            }
        }

        let kind = kind_from_parts(tag, task, job, amount, by)?;
        Ok(TraceEvent::new(at, kind))
    }

    fn kind_from_parts(
        tag: &str,
        task: Option<TaskId>,
        job: Option<u64>,
        amount: Option<Duration>,
        by: Option<TaskId>,
    ) -> Result<EventKind, String> {
        let need_task_job = |kind: fn(TaskId, u64) -> EventKind| -> Result<EventKind, String> {
            match (task, job) {
                (Some(t), Some(j)) => Ok(kind(t, j)),
                _ => Err("event requires `task` and `job`".to_string()),
            }
        };

        let kind = match tag {
            "release" => need_task_job(|task, job| EventKind::JobRelease { task, job })?,
            "start" => need_task_job(|task, job| EventKind::JobStart { task, job })?,
            "end" => need_task_job(|task, job| EventKind::JobEnd { task, job })?,
            "resume" => need_task_job(|task, job| EventKind::Resumed { task, job })?,
            "miss" => need_task_job(|task, job| EventKind::DeadlineMiss { task, job })?,
            "detector" => need_task_job(|task, job| EventKind::DetectorRelease { task, job })?,
            "fault" => need_task_job(|task, job| EventKind::FaultDetected { task, job })?,
            "stop" => need_task_job(|task, job| EventKind::TaskStopped { task, job })?,
            "preempt" => match (task, job, by) {
                (Some(task), Some(job), Some(by)) => EventKind::Preempted { task, job, by },
                _ => return Err("preempt requires `task`, `job` and `by`".to_string()),
            },
            "grant" => match (task, job, amount) {
                (Some(task), Some(job), Some(amount)) => {
                    EventKind::AllowanceGranted { task, job, amount }
                }
                _ => return Err("grant requires `task`, `job` and `amount`".to_string()),
            },
            "idle" => EventKind::CpuIdle,
            "simend" => EventKind::SimEnd,
            other => return Err(format!("unknown event tag `{other}`")),
        };
        Ok(kind)
    }

    pub fn parse_text(text: &str) -> Result<TraceCapture, ParseError> {
        let mut spec_hash: Option<u64> = None;
        let mut policy: Option<String> = None;
        let mut placement: Option<String> = None;
        let mut cores: Option<usize> = None;
        let mut treatment: Option<String> = None;
        let mut content_hash: Option<u64> = None;
        let mut in_header = true;

        enum Acc {
            Empty,
            Flat(TraceLog),
            Merged(Vec<CoreEvent>),
        }
        let mut acc = Acc::Empty;
        let mut last_at: Option<Instant> = None;

        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let fail = |message: String| ParseError {
                line: line_no,
                message,
            };
            let line = raw.trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('#') {
                let rest = rest.trim();
                if !in_header {
                    continue;
                }
                if let Some((key, value)) = rest.split_once(' ') {
                    let value = value.trim();
                    match key {
                        "spec-hash" => {
                            spec_hash = Some(
                                u64::from_str_radix(value, 16)
                                    .map_err(|e| fail(format!("bad spec-hash: {e}")))?,
                            );
                        }
                        "content-hash" => {
                            content_hash = Some(
                                u64::from_str_radix(value, 16)
                                    .map_err(|e| fail(format!("bad content-hash: {e}")))?,
                            );
                        }
                        "policy" => policy = Some(value.to_string()),
                        "placement" => placement = Some(value.to_string()),
                        "treatment" => treatment = Some(value.to_string()),
                        "cores" => cores = Some(parse_cores(value).map_err(fail)?),
                        _ => {}
                    }
                }
                continue;
            }

            in_header = false;
            let tagged = line
                .strip_prefix('c')
                .and_then(|rest| rest.split_once(' '))
                .and_then(|(digits, event_line)| {
                    digits.parse::<usize>().ok().map(|c| (c, event_line))
                });
            if let Some((core, event_line)) = tagged {
                let event = parse_line(event_line).map_err(&fail)?;
                if last_at.is_some_and(|last| event.at < last) {
                    return Err(fail(format!(
                        "timestamp {} out of order",
                        event.at.as_nanos()
                    )));
                }
                last_at = Some(event.at);
                match &mut acc {
                    Acc::Empty => acc = Acc::Merged(vec![CoreEvent { core, event }]),
                    Acc::Merged(events) => events.push(CoreEvent { core, event }),
                    Acc::Flat(_) => {
                        return Err(fail(
                            "core-tagged line in a flat capture (mixed body)".to_string(),
                        ));
                    }
                }
            } else {
                let event = parse_line(line).map_err(&fail)?;
                if last_at.is_some_and(|last| event.at < last) {
                    return Err(fail(format!(
                        "timestamp {} out of order",
                        event.at.as_nanos()
                    )));
                }
                last_at = Some(event.at);
                match &mut acc {
                    Acc::Empty => {
                        let mut log = TraceLog::new();
                        log.push_event(event);
                        acc = Acc::Flat(log);
                    }
                    Acc::Flat(log) => log.push_event(event),
                    Acc::Merged(_) => {
                        return Err(fail(
                            "flat line in a core-tagged capture (mixed body)".to_string(),
                        ));
                    }
                }
            }
        }

        let any_field = spec_hash.is_some()
            || policy.is_some()
            || placement.is_some()
            || cores.is_some()
            || treatment.is_some()
            || content_hash.is_some();
        let header = if any_field {
            match (spec_hash, policy, placement, cores, treatment, content_hash) {
                (
                    Some(spec_hash),
                    Some(policy),
                    Some(placement),
                    Some(cores),
                    Some(treatment),
                    Some(content_hash),
                ) => Some(TraceHeader {
                    spec_hash,
                    policy,
                    placement,
                    cores,
                    treatment,
                    content_hash,
                }),
                _ => {
                    return Err(ParseError {
                        line: 1,
                        message: "incomplete capture header (need spec-hash, policy, \
                                  placement, cores, treatment, content-hash)"
                            .to_string(),
                    });
                }
            }
        } else {
            None
        };
        let body = match acc {
            Acc::Empty => CaptureBody::Flat(TraceLog::new()),
            Acc::Flat(log) => CaptureBody::Flat(log),
            Acc::Merged(events) => CaptureBody::Merged(events),
        };
        Ok(TraceCapture { header, body })
    }
}

/// SplitMix64.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

/// Placements of the one-job specs: one core, two partitioned cores,
/// two global cores.
const SHAPES: [&str; 3] = ["cores 1", "cores 2\nalloc wfd", "cores 2\nplacement global"];

/// A rendered capture of a random one-job spec, or `None` when the spec
/// does not run (an infeasible base system, say).
fn random_capture(rng: &mut Rng, shape: &str) -> Option<String> {
    let mut spec = format!("campaign diff\nhorizon {}ms\n", 200 + 100 * rng.below(5));
    let n = 2 + rng.below(3);
    let periods = [20, 30, 50, 70, 100];
    for (i, name) in ["a", "b", "c", "d"].iter().take(n).enumerate() {
        let period = periods[rng.below(periods.len())];
        let cost = 1 + rng.below(period / (n + 1));
        spec.push_str(&format!(
            "task {name} {} {period}ms {period}ms {cost}ms\n",
            40 - i
        ));
    }
    spec.push_str(shape);
    spec.push('\n');
    if !shape.contains("global") {
        spec.push_str(&format!("policy {}\n", rng.pick(&["fp", "edf", "npfp"])));
    }
    spec.push_str(&format!(
        "treatment {}\n",
        rng.pick(&["none", "detect", "stop", "equitable", "system"])
    ));
    if rng.below(3) != 0 {
        spec.push_str(&format!(
            "fault a job {} overrun {}ms\n",
            rng.below(4),
            1 + rng.below(15)
        ));
    }
    spec.push_str(&format!("platform {}\n", rng.pick(&["exact", "jrate"])));
    let job = job_from_campaign(&spec).ok()?;
    Some(capture_job(&job).ok()?.render_text())
}

/// Words a mutation writes over a number.
const NUMBERS: [&str; 16] = [
    "+7",
    "-7",
    "+",
    "-",
    "007",
    "-0",
    "4294967295",
    "4294967296",
    "9223372036854775807",
    "9223372036854775808",
    "-9223372036854775809",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999x",
    "9999999999999999999x9",
    "1e3",
];
/// Whitespace and stray characters, ASCII and not.
const JUNK: [&str; 16] = [
    " ", "  ", "\t", "\r", "\x0B", "\x0C", "\u{A0}", "\u{2003}", "\u{3000}", "\u{85}", "é", "#",
    "c", "\n", "\0", "x",
];
/// Words that are not tags, fields or core tags.
const WORDS: [&str; 12] = [
    "sideways",
    "task",
    "job",
    "amount",
    "by",
    "bogus",
    "c1",
    "c+1",
    "c",
    "c01",
    "cx",
    "c99999999999999999999",
];

fn lines_of(text: &str) -> Vec<String> {
    text.split('\n').map(str::to_string).collect()
}

/// Apply one random mutation to `text`.
fn mutate(rng: &mut Rng, text: &str) -> String {
    let mut lines = lines_of(text);
    let n = lines.len();
    let mut line = rng.below(n);
    // Event lines are far more common than header lines; aim at them.
    for _ in 0..4 {
        if !lines[line].starts_with('#') && !lines[line].is_empty() {
            break;
        }
        line = rng.below(n);
    }
    let words: Vec<String> = lines[line].split(' ').map(str::to_string).collect();
    let w = rng.below(words.len());
    let set_word = |lines: &mut Vec<String>, value: String| {
        let mut words = words.clone();
        words[w] = value;
        lines[line] = words.join(" ");
    };
    match rng.below(16) {
        0 => return text.replace('\n', "\r\n"),
        1 => {
            // A separator changed.
            lines[line] = lines[line].replacen(
                ' ',
                rng.pick(&["\t", "  ", " \x0C ", "\r ", " \t "]),
                1 + rng.below(3),
            );
        }
        2 => lines[line].push_str(rng.pick(&JUNK)),
        3 => lines[line].insert_str(0, rng.pick(&JUNK)),
        4 => set_word(&mut lines, rng.pick(&NUMBERS).to_string()),
        5 => {
            let sign = rng.pick(&["+", "-"]);
            set_word(&mut lines, format!("{sign}{}", words[w]));
        }
        6 => set_word(&mut lines, rng.pick(&WORDS).to_string()),
        7 => {
            // One character replaced, at a char boundary.
            let chars: Vec<char> = text.chars().collect();
            let at = rng.below(chars.len().max(1));
            let mut out: String = chars[..at.min(chars.len())].iter().collect();
            out.push_str(rng.pick(&JUNK));
            out.extend(chars.iter().skip(at + 1));
            return out;
        }
        8 => {
            let chars: Vec<char> = text.chars().collect();
            return chars[..rng.below(chars.len() + 1)].iter().collect();
        }
        9 => {
            lines.remove(line);
        }
        10 => {
            let other = rng.below(n);
            lines.swap(line, other);
        }
        11 => {
            // A field repeated, dropped, or two words swapped.
            let mut words = words.clone();
            match rng.below(3) {
                0 if words.len() >= 2 => {
                    let pair = [
                        words[words.len() - 2].clone(),
                        words[words.len() - 1].clone(),
                    ];
                    words.extend(pair);
                }
                1 if words.len() >= 2 => {
                    words.truncate(words.len() - 2);
                }
                _ => {
                    let other = rng.below(words.len());
                    words.swap(w, other);
                }
            }
            lines[line] = words.join(" ");
        }
        12 => {
            // A core tag added, removed or changed.
            let body = lines[line].clone();
            lines[line] = match body.strip_prefix('c').and_then(|r| r.split_once(' ')) {
                Some((_, rest)) if rng.below(2) == 0 => rest.to_string(),
                Some((_, rest)) => format!("{} {rest}", rng.pick(&WORDS[6..])),
                None => format!("c{} {body}", rng.below(3)),
            };
        }
        13 => lines.insert(
            line,
            rng.pick(&["", "#", "# note", "   ", "\t# x y"]).to_string(),
        ),
        14 => {
            // A header value damaged.
            let key = rng.pick(&["# spec-hash ", "# content-hash ", "# cores ", "# policy "]);
            if let Some(h) = lines.iter_mut().find(|l| l.starts_with(key)) {
                *h = format!(
                    "{key}{}",
                    rng.pick(&["0", "", "zz", "ffffffffffffffffff", "+1", "65", "1 2"])
                );
            }
        }
        _ => lines[line] = format!("# {}", lines[line]),
    }
    lines.join("\n")
}

fn check(text: &str) -> (bool, bool) {
    let got = TraceCapture::parse_text(text);
    let want = reference::parse_text(text);
    assert_eq!(got, want, "parse_text differs on:\n{text:?}");
    let got_v1: Result<_, ParseError> = format::from_text(text);
    let want_v1 = reference::from_text(text);
    assert_eq!(got_v1, want_v1, "from_text differs on:\n{text:?}");
    (got.is_ok(), got_v1.is_ok())
}

#[test]
fn scanner_matches_the_reference_parser() {
    let mut rng = Rng(0x7261_6365);
    let mut bases = Vec::new();
    let mut seed = 0;
    while bases.len() < 45 {
        seed += 1;
        let shape = SHAPES[bases.len() % SHAPES.len()];
        if let Some(text) = random_capture(&mut Rng(seed), shape) {
            bases.push(text);
        }
    }
    assert!(bases.iter().any(|b| b.contains("\nc1 ")), "a merged body");

    let (mut cases, mut ok, mut err, mut v1_ok) = (0, 0, 0, 0);
    for base in &bases {
        // As rendered, headerless, and as a v1 log (from a flat body).
        let headerless: String = base
            .lines()
            .filter(|l| !l.starts_with('#'))
            .map(|l| format!("{l}\n"))
            .collect();
        for text in [base.clone(), headerless] {
            check(&text);
            cases += 1;
        }
        for _ in 0..120 {
            let mut text = base.clone();
            for _ in 0..1 + rng.below(3) {
                text = mutate(&mut rng, &text);
            }
            let (parsed, parsed_v1) = check(&text);
            cases += 1;
            if parsed {
                ok += 1;
            } else {
                err += 1;
            }
            v1_ok += usize::from(parsed_v1);
        }
    }
    assert!(cases >= 5_000, "{cases} cases");
    // Both outcomes are exercised, on both entry points.
    assert!(ok >= 1_000 && err >= 1_000, "{ok} parsed, {err} refused");
    assert!(v1_ok >= 500, "{v1_ok} v1 logs parsed");
}

/// Hand-picked lines at the edges of the grammar.
#[test]
fn scanner_matches_the_reference_on_edge_lines() {
    let lines = [
        "",
        "\n",
        "\r\n",
        "0 idle",
        "0 idle\r",
        "0 idle\r\n1 simend\r\n",
        "\u{A0}0 idle\u{A0}",
        "0 idle\u{2003}\n",
        "\x0B0 idle\x0B",
        "0\x0Bidle",
        "0 idle \x0B",
        "0\tidle\x0C",
        "0  release   task 1 job 2",
        "+5 idle",
        "-5 idle",
        "5 release task +1 job +2",
        "5 release task -1 job 2",
        "5 release task 4294967296 job 2",
        "5 release task 1 job 18446744073709551616",
        "9223372036854775808 idle",
        "99999999999999999999x idle",
        "9999999999999999999x9 idle",
        "5 grant task 1 job 2 amount -3",
        "5 grant task 1 job 2 amount +3",
        "5 release task 1 job 2 task 3",
        "5 release job 2 task 1",
        "5 release task 1",
        "5 release task 1 job",
        "5 release task 1 job 2 bogus 3",
        "5 frob task 1 job 2",
        "5 frob task x",
        "5",
        "5 ",
        "5 \u{A0}",
        "c0 5 idle",
        "c0",
        "c0 ",
        "c0 \n",
        "c0 \u{A0}",
        "c 5 idle",
        "c+1 5 idle",
        "c01 5 idle",
        "c-1 5 idle",
        "c1\t5 idle",
        "c1  5 idle",
        "c99999999999999999999 5 idle",
        "cx 5 idle",
        "c0 5 idle\n5 idle",
        "5 idle\nc0 5 idle",
        "c0 5 idle\nc1 4 idle",
        "5 idle\n4 idle",
        "# rtft trace v2\n# spec-hash zz\n0 idle",
        "# rtft trace v2\n# cores 0\n0 idle",
        "# policy fp\n0 idle",
        "0 idle\n# policy fp\n1 idle",
        "\u{A0}# policy fp\n0 idle",
        "#",
        "# ",
        "release",
        "5 release\u{A0}task 1 job 2",
        "5 relea\u{e9}se task 1 job 2",
    ];
    for text in lines {
        check(text);
    }
}
