//! Adversarial input for the three text formats that carry task and
//! fault lines: query batches, campaign specs and task files. Random
//! token soup drawn from the grammar's own vocabulary (signed and
//! extreme durations, `u64::MAX` job indices, repeated names and
//! faults, unknown kinds) must come back as `Ok` or `Err`, never as a
//! panic, and a task or fault line must fail the same way in all three.

use proptest::prelude::*;
use rtft::campaign::parse_spec;
use rtft::core::query::parse_batch;
use rtft::taskgen::parser::parse as parse_task_file;

const NAMES: [&str; 4] = ["a", "b", "task", "tau1"];
const PRIORITIES: [&str; 5] = ["1", "-7", "2147483647", "-2147483648", "2147483648"];
/// Every duration shape; the first four are valid task parameters.
const DURATIONS: [&str; 13] = [
    "10",
    "29ms",
    "2s",
    "1ns",
    "4611686018427387904ns",
    "0ms",
    "-5ms",
    "9223372036854775807ns",
    "-9223372036854775808ns",
    "-9223372036854775807ns",
    "9223372036854775807ms",
    "9223372036854775808ns",
    "abc",
];
/// The first three are valid job indices.
const JOBS: [&str; 5] = [
    "0",
    "5",
    "18446744073709551615",
    "18446744073709551616",
    "-1",
];
/// The first two are valid fault kinds.
const KINDS: [&str; 4] = ["overrun", "underrun", "sideways", "job"];
/// Directive words of all three formats, for lines that are not task
/// or fault lines at all.
const DIRECTIVES: [&str; 16] = [
    "system",
    "campaign",
    "query",
    "feasibility",
    "horizon",
    "oracle",
    "treatment",
    "policy",
    "cores",
    "alloc",
    "placement",
    "platform",
    "taskgen",
    "faults",
    "single",
    "#",
];

/// SplitMix64: one seed drives a whole document.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick<'a>(&mut self, words: &[&'a str]) -> &'a str {
        words[self.below(words.len())]
    }

    /// Mostly one of the first `valid` words, sometimes any of them: a
    /// line gets past its early checks often enough to reach the later
    /// ones.
    fn field<'a>(&mut self, words: &[&'a str], valid: usize) -> &'a str {
        if self.below(12) == 0 {
            self.pick(words)
        } else {
            self.pick(&words[..valid])
        }
    }
}

/// One generated line: whether it is a task line (which the task-file
/// format writes without the `task` keyword), and its words.
struct Line {
    task: bool,
    words: Vec<&'static str>,
}

/// A task line (`kind` 0), a fault line (1) or a run of any words
/// (2); the field counts are sometimes off by one. Fault amounts favour
/// the extremes: non-positive, and large enough that two of them on one
/// job overflow.
fn line(rng: &mut Rng, kind: usize, name: &'static str) -> Line {
    let mut words = Vec::new();
    let task = match kind {
        0 => {
            words.push(name);
            words.push(rng.field(&PRIORITIES, 3));
            let fields = if rng.below(8) == 0 {
                2 + rng.below(5)
            } else {
                3 + rng.below(2)
            };
            for _ in 0..fields {
                words.push(rng.field(&DURATIONS, 4));
            }
            true
        }
        1 => {
            words.push("fault");
            words.push(rng.pick(&NAMES));
            words.push(if rng.below(16) == 0 { "jobs" } else { "job" });
            words.push(rng.field(&JOBS, 3));
            words.push(rng.field(&KINDS, 2));
            if rng.below(16) != 0 {
                words.push(rng.pick(&DURATIONS[4..]));
            }
            false
        }
        _ => {
            for _ in 0..1 + rng.below(5) {
                words.push(match rng.below(4) {
                    0 => rng.pick(&DIRECTIVES),
                    1 => rng.pick(&DURATIONS),
                    2 => rng.pick(&JOBS),
                    _ => rng.pick(&KINDS),
                });
            }
            false
        }
    };
    Line { task, words }
}

/// The same lines as a keyed document (batches, campaign specs) and as
/// a task file: a few task lines, then any mix of lines (with word runs
/// only when `soup`).
fn documents(seed: u64, soup: bool) -> (String, String) {
    let mut rng = Rng(seed);
    let (mut keyed, mut bare) = (String::new(), String::new());
    let tasks = rng.below(4);
    let mut last_fault: Option<Vec<&'static str>> = None;
    for i in 0..tasks + rng.below(8) {
        let kind = if i < tasks {
            0
        } else {
            [0, 1, 1, 2][rng.below(if soup { 4 } else { 3 })]
        };
        // The leading task lines mostly get distinct names.
        let name = match NAMES.get(i) {
            Some(&distinct) if i < tasks && rng.below(8) != 0 => distinct,
            _ => rng.pick(&NAMES),
        };
        let mut l = line(&mut rng, kind, name);
        if kind == 1 {
            // Repeat a fault line now and then: repeated faults on one
            // job sum, and two large ones overflow.
            if let Some(prev) = last_fault.as_ref().filter(|_| rng.below(3) == 0) {
                l.words.clone_from(prev);
            }
            last_fault = Some(l.words.clone());
        }
        let text = l.words.join(" ");
        if l.task {
            keyed.push_str("task ");
        }
        keyed.push_str(&text);
        keyed.push('\n');
        bare.push_str(&text);
        bare.push('\n');
    }
    (keyed, bare)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Every parser returns; none panics.
    #[test]
    fn no_text_parser_panics_on_token_soup(seed in 0u64..u64::MAX) {
        let (keyed, bare) = documents(seed, true);
        let outcome = std::panic::catch_unwind(|| {
            let _ = parse_batch(&keyed);
            let _ = parse_spec(&keyed);
            let _ = parse_task_file(&bare);
        });
        prop_assert!(outcome.is_ok(), "a parser panicked on:\n{}---\n{}", keyed, bare);
    }

    /// A task or fault line that one format rejects, every format
    /// rejects at the same line with the same message (the task-file
    /// arity message names no `task` keyword).
    #[test]
    fn task_and_fault_lines_fail_alike_in_every_format(seed in 0u64..u64::MAX) {
        let (keyed, bare) = documents(seed, false);
        let batch = parse_batch(&keyed).err().map(|e| (e.line, e.message));
        let campaign = parse_spec(&keyed).err().map(|e| (e.line, e.message));
        match parse_task_file(&bare) {
            Ok(_) => {
                // Only whole-document problems (an invalid set) remain.
                prop_assert!(batch.is_none_or(|(line, _)| line == 0), "{}", keyed);
                prop_assert!(campaign.is_none_or(|(line, _)| line == 0), "{}", keyed);
            }
            Err(e) => {
                let message = e.message.replace("expected: <name>", "expected: task <name>");
                let expected = Some((e.line, message));
                prop_assert_eq!(&batch, &expected);
                prop_assert_eq!(&campaign, &expected);
            }
        }
    }
}
