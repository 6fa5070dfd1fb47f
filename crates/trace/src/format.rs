//! Text log-file format.
//!
//! The paper's toolchain writes collected timestamps to "a log file which
//! can then be interpreted by our tool of time series chart". This module
//! defines that interchange format: one event per line,
//!
//! ```text
//! <nanoseconds> <tag> [task <id>] [job <q>] [amount <ns>] [by <id>]
//! ```
//!
//! Lines starting with `#` are comments. Serialization and parsing round-
//! trip exactly (property-tested in the crate's test suite).

use crate::event::{EventKind, TraceEvent, TAGS};
use crate::log::TraceLog;
use rtft_core::task::TaskId;
use rtft_core::time::{Duration, Instant};
use std::fmt::Write as _;
use std::num::ParseIntError;
use std::str::FromStr;

/// Serialize a log to the text format.
pub fn to_text(log: &TraceLog) -> String {
    let mut out = String::with_capacity(log.len() * 32 + 64);
    out.push_str("# rtft trace v1\n");
    for e in log.events() {
        write_line(&mut out, e);
    }
    out
}

/// Serialize one event as its machine line (trailing newline included)
/// — what live streamers (`rtft serve`'s trace route) emit per event so
/// their output re-parses with [`from_text`] /
/// [`crate::capture::TraceCapture::parse_text`].
pub fn event_line(e: &TraceEvent) -> String {
    let mut out = String::with_capacity(40);
    write_line(&mut out, e);
    out
}

pub(crate) fn write_line(out: &mut String, e: &TraceEvent) {
    let ns = e.at.as_nanos();
    match e.kind {
        EventKind::JobRelease { task, job }
        | EventKind::JobStart { task, job }
        | EventKind::JobEnd { task, job }
        | EventKind::Resumed { task, job }
        | EventKind::DeadlineMiss { task, job }
        | EventKind::DetectorRelease { task, job }
        | EventKind::FaultDetected { task, job }
        | EventKind::TaskStopped { task, job } => {
            let _ = writeln!(out, "{ns} {} task {} job {job}", e.kind.tag(), task.0);
        }
        EventKind::Preempted { task, job, by } => {
            let _ = writeln!(out, "{ns} preempt task {} job {job} by {}", task.0, by.0);
        }
        EventKind::AllowanceGranted { task, job, amount } => {
            let _ = writeln!(
                out,
                "{ns} grant task {} job {job} amount {}",
                task.0,
                amount.as_nanos()
            );
        }
        EventKind::CpuIdle | EventKind::SimEnd => {
            let _ = writeln!(out, "{ns} {}", e.kind.tag());
        }
    }
}

/// A parse failure, with the 1-based line number.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ParseError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseError {}

/// Parse the text format back into a [`TraceLog`].
pub fn from_text(text: &str) -> Result<TraceLog, ParseError> {
    let mut log = TraceLog::new();
    scan(text, false, |line| {
        if let Line::Event(_, event) = line {
            log.push_event(event);
        }
        Ok(())
    })?;
    Ok(log)
}

/// One non-blank line of trace text, as [`scan`] reads it.
pub(crate) enum Line<'a> {
    /// A comment: the line trimmed, `#` included.
    Comment(&'a str),
    /// An event, with its `c<index>` core tag when the scan reads tags
    /// and the line carries one.
    Event(Option<usize>, TraceEvent),
}

/// The one scanner for trace text, behind [`from_text`] and
/// [`TraceCapture::parse_text`](crate::capture::TraceCapture::parse_text):
/// hands each non-blank line to `on_line`, in order, and stops at the
/// first error, the scanner's or `on_line`'s, which it returns with the
/// line's 1-based number. `core_tags` reads a leading `c<index>` word
/// as a core tag, as a capture body may carry one. Events must come in
/// time order: a hand-edited file must not silently corrupt downstream
/// statistics.
///
/// An event line's bytes are read once: words split at ASCII
/// whitespace, numbers read eight digits at a time as the words are
/// found, and the line ends at its newline. A line means exactly what
/// `str::lines`, `str::trim` and `split_ascii_whitespace` made of it
/// before. Where `trim` might strip more than blanks (a line that starts
/// or ends with a vertical tab or a non-ASCII byte), and for every
/// comment and every error, the line is read again as its trimmed
/// `&str`, by the same word reader.
pub(crate) fn scan<'a>(
    text: &'a str,
    core_tags: bool,
    mut on_line: impl FnMut(Line<'a>) -> Result<(), String>,
) -> Result<(), ParseError> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let mut line_no = 0;
    let mut last = Instant::from_nanos(i64::MIN);
    while pos < bytes.len() {
        line_no += 1;
        let fail = |message| ParseError {
            line: line_no,
            message,
        };
        let start = pos;
        let mut words = Words::new(text, start);
        let fast = match words.peek() {
            None | Some(b'\n') => {
                pos = words.pos + 1;
                continue;
            }
            Some(b) if b == b'#' || trims(b) => None,
            Some(_) => words
                .event(core_tags)
                .ok()
                .filter(|_| !words.ends_trimmable()),
        };
        let line = match fast {
            Some(line) => {
                pos = words.pos + 1;
                line
            }
            None => {
                let end = text[start..].find('\n').map_or(text.len(), |i| start + i);
                pos = end + 1;
                let line = text[start..end].trim();
                if line.is_empty() {
                    continue;
                }
                if line.starts_with('#') {
                    Line::Comment(line)
                } else {
                    Words::new(line, 0).event(core_tags).map_err(fail)?
                }
            }
        };
        if let Line::Event(_, event) = &line {
            if event.at < last {
                return Err(fail(format!(
                    "timestamp {} out of order",
                    event.at.as_nanos()
                )));
            }
            last = event.at;
        }
        on_line(line).map_err(fail)?;
    }
    Ok(())
}

/// What `split_ascii_whitespace` splits at.
const SEPARATOR: [bool; 256] = {
    let mut table = [false; 256];
    table[b' ' as usize] = true;
    table[b'\t' as usize] = true;
    table[b'\n' as usize] = true;
    table[0x0C] = true;
    table[b'\r' as usize] = true;
    table
};

/// A separator other than the newline that ends a line.
#[inline]
fn is_blank(b: u8) -> bool {
    b != b'\n' && SEPARATOR[b as usize]
}

/// Whether `b` may belong to a character `str::trim` strips that is not
/// a separator: a vertical tab, or a byte of a non-ASCII character.
#[inline]
fn trims(b: u8) -> bool {
    b >= 0x80 || b == 0x0B
}

/// The words of one line, read from `pos` up to its newline or the end
/// of `text`.
struct Words<'a> {
    text: &'a str,
    pos: usize,
}

/// The eight bytes at `at`, as little-endian lanes.
#[inline]
fn lanes_at(bytes: &[u8], at: usize) -> Option<u64> {
    let chunk = bytes.get(at..at.checked_add(8)?)?;
    Some(u64::from_le_bytes(<[u8; 8]>::try_from(chunk).ok()?))
}

impl<'a> Words<'a> {
    #[inline]
    fn new(text: &'a str, pos: usize) -> Self {
        let mut words = Words { text, pos };
        words.skip_blanks();
        words
    }

    #[inline(always)]
    fn skip_blanks(&mut self) {
        let bytes = self.text.as_bytes();
        let mut at = self.pos;
        while at < bytes.len() && is_blank(bytes[at]) {
            at += 1;
        }
        self.pos = at;
    }

    /// The byte the next word starts with.
    #[inline]
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    /// Whether the line's last word, before `pos`, ends in a byte
    /// [`trims`] flags.
    #[inline]
    fn ends_trimmable(&self) -> bool {
        let bytes = self.text.as_bytes();
        let mut at = self.pos;
        while at > 0 && is_blank(bytes[at - 1]) {
            at -= 1;
        }
        at > 0 && trims(bytes[at - 1])
    }

    /// The next word, or `None` at the end of the line.
    #[inline(always)]
    fn word(&mut self) -> Option<&'a str> {
        self.skip_blanks();
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut at = start;
        // Eight bytes at a time up to the first lane below `!`, whose
        // top bit the subtraction sets (the lowest such lane is exact);
        // it ends the word if it is a separator.
        while let Some(lanes) = lanes_at(bytes, at) {
            let low = lanes.wrapping_sub(LANES * u64::from(b'!')) & !lanes & LANES << 7;
            let before = (low.trailing_zeros() / 8) as usize;
            at += before;
            if before < 8 {
                break;
            }
        }
        while at < bytes.len() && !SEPARATOR[bytes[at] as usize] {
            at += 1;
        }
        self.pos = at;
        (at > start).then(|| &self.text[start..at])
    }

    /// The next word where a field name belongs. The line's end and a
    /// name as the writer spells it, between single spaces, are found in
    /// one compare each; anything else is read as [`Words::word`] reads
    /// it.
    #[inline(always)]
    fn field_name(&mut self) -> Option<&'a str> {
        if matches!(self.peek(), None | Some(b'\n')) {
            return None;
        }
        if let Some(lanes) = lanes_at(self.text.as_bytes(), self.pos) {
            for (name, spaced, mask) in SPACED_FIELDS {
                if lanes & mask == spaced {
                    self.pos += 1 + name.len();
                    return Some(name);
                }
            }
        }
        self.word()
    }

    /// The next word, read as a number: the word, and its digits' value
    /// when it is digits only (wrapped when there are too many).
    #[inline(always)]
    fn number(&mut self) -> Option<Number<'a>> {
        self.skip_blanks();
        let bytes = self.text.as_bytes();
        let start = self.pos;
        let mut at = start;
        let mut value = 0u64;
        // Eight bytes at a time while they are digits. In each lane a
        // byte below `0` borrows into, and a byte above `9` carries
        // into, its top bit; the lowest such lane is exact.
        while let Some(lanes) = lanes_at(bytes, at) {
            let non_digits = (lanes.wrapping_sub(LANES * u64::from(b'0'))
                | lanes.wrapping_add(LANES * u64::from(0x7F - b'9')))
                & LANES << 7;
            let digits = (non_digits.trailing_zeros() / 8) as usize;
            if digits == 0 {
                break;
            }
            // Keep the digits, high, under zero lanes that read as
            // leading zeros.
            let lanes = lanes << (64 - 8 * digits);
            value = value
                .wrapping_mul(POW10[digits])
                .wrapping_add(eight_digits(lanes));
            at += digits;
            if digits < 8 {
                break;
            }
        }
        let mut plain = true;
        while at < bytes.len() && !SEPARATOR[bytes[at] as usize] {
            let digit = bytes[at].wrapping_sub(b'0');
            plain &= digit < 10;
            value = value.wrapping_mul(10).wrapping_add(u64::from(digit));
            at += 1;
        }
        self.pos = at;
        (at > start).then(|| Number {
            word: &self.text[start..at],
            value: plain.then_some(value),
        })
    }

    /// `first`'s core index when it is a `c<index>` tag: `c` and a
    /// `usize`, then a space and another word.
    #[inline(always)]
    fn core_tag(&mut self, first: &Number<'a>) -> Option<(usize, Number<'a>)> {
        let digits = first.word.strip_prefix('c')?;
        if self.peek() != Some(b' ') {
            return None;
        }
        let core = digits.parse().ok()?;
        Some((core, self.number()?))
    }

    /// The event on this line:
    /// `<ns> <tag> [task <id>] [job <q>] [amount <ns>] [by <id>]`,
    /// its fields in any order, the last of a repeated field counting.
    #[inline(always)]
    fn event(&mut self, core_tags: bool) -> Result<Line<'a>, String> {
        let mut first = self.number().ok_or("missing timestamp")?;
        let mut core = None;
        if core_tags {
            if let Some((c, next)) = self.core_tag(&first) {
                core = Some(c);
                first = next;
            }
        }
        let ns: i64 = first.get().map_err(|e| format!("bad timestamp: {e}"))?;
        let tag = self.word().ok_or("missing event tag")?;

        let mut task: Option<TaskId> = None;
        let mut job: Option<u64> = None;
        let mut amount: Option<Duration> = None;
        let mut by: Option<TaskId> = None;
        while let Some(key) = self.field_name() {
            let value = self
                .number()
                .ok_or_else(|| format!("missing value for `{key}`"))?;
            match key {
                "task" => {
                    task = Some(TaskId(
                        value.get().map_err(|e| format!("bad task id: {e}"))?,
                    ));
                }
                "job" => {
                    job = Some(value.get().map_err(|e| format!("bad job index: {e}"))?);
                }
                "amount" => {
                    amount = Some(Duration::nanos(
                        value.get().map_err(|e| format!("bad amount: {e}"))?,
                    ));
                }
                "by" => {
                    by = Some(TaskId(
                        value.get().map_err(|e| format!("bad `by` id: {e}"))?,
                    ));
                }
                other => return Err(format!("unknown field `{other}`")),
            }
        }

        let kind = kind_from_parts(tag, task, job, amount, by)?;
        Ok(Line::Event(
            core,
            TraceEvent::new(Instant::from_nanos(ns), kind),
        ))
    }
}

/// One lane per byte: multiplied by a byte, the byte in every lane.
const LANES: u64 = 0x0101_0101_0101_0101;

/// ` <name> ` as little-endian lanes, and the mask of the lanes it
/// fills, for a name of at most six bytes.
const fn spaced(name: &'static str) -> (&'static str, u64, u64) {
    let bytes = name.as_bytes();
    let mut lanes = b' ' as u64;
    let mut i = 0;
    while i < bytes.len() {
        lanes |= (bytes[i] as u64) << (8 * (i + 1));
        i += 1;
    }
    lanes |= (b' ' as u64) << (8 * (i + 1));
    let mask = if i + 2 == 8 {
        !0
    } else {
        (1 << (8 * (i + 2))) - 1
    };
    (name, lanes, mask)
}

/// The field names as the writer spells them, in the order it writes
/// them.
const SPACED_FIELDS: [(&str, u64, u64); 4] = [
    spaced("task"),
    spaced("job"),
    spaced("by"),
    spaced("amount"),
];

/// `10^k` for the digits a lane holds.
const POW10: [u64; 9] = {
    let mut pow = [1; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1] * 10;
        k += 1;
    }
    pow
};

/// The value of eight ASCII digits, the first in the low byte: pairs,
/// then quads, then the whole, one multiply each. A zero byte reads as
/// a zero digit.
#[inline]
fn eight_digits(lanes: u64) -> u64 {
    let pairs = ((lanes & 0x0F0F_0F0F_0F0F_0F0F).wrapping_mul(10 << 8 | 1)) >> 8;
    let quads = ((pairs & 0x00FF_00FF_00FF_00FF).wrapping_mul(100 << 16 | 1)) >> 16;
    ((quads & 0x0000_FFFF_0000_FFFF).wrapping_mul(10_000 << 32 | 1)) >> 32
}

/// A word read where a number belongs.
struct Number<'a> {
    word: &'a str,
    /// The digits' value, when the word is digits only.
    value: Option<u64>,
}

impl Number<'_> {
    /// `word.parse()`: a word of digits too short to overflow `T` is
    /// read from `value`; anything else (a sign, an overflow, a stray
    /// byte) takes `str::parse`, so every value and every error reads as
    /// it always has.
    #[inline]
    fn get<T: Int>(&self) -> Result<T, ParseIntError> {
        match self.value {
            Some(v) if self.word.len() <= T::DIGITS => Ok(T::from_u64(v)),
            _ => self.word.parse(),
        }
    }
}

/// An integer type a trace field holds.
trait Int: FromStr<Err = ParseIntError> {
    /// The most digits that cannot overflow it.
    const DIGITS: usize;
    /// `v`, known to fit.
    fn from_u64(v: u64) -> Self;
}

impl Int for i64 {
    const DIGITS: usize = 18;
    fn from_u64(v: u64) -> Self {
        v as i64
    }
}

impl Int for u64 {
    const DIGITS: usize = 19;
    fn from_u64(v: u64) -> Self {
        v
    }
}

impl Int for u32 {
    const DIGITS: usize = 9;
    fn from_u64(v: u64) -> Self {
        v as u32
    }
}

/// The position of `tag` in [`TAGS`]: one dispatch on its length and
/// first byte, then one comparison.
#[inline]
fn tag_index(tag: &str) -> Option<usize> {
    let i = match (tag.len(), *tag.as_bytes().first()?) {
        (7, b'r') => 0,
        (5, b's') => 1,
        (3, b'e') => 2,
        (7, b'p') => 3,
        (6, b'r') => 4,
        (4, b'm') => 5,
        (8, b'd') => 6,
        (5, b'f') => 7,
        (5, b'g') => 8,
        (4, b's') => 9,
        (4, b'i') => 10,
        (6, b's') => 11,
        _ => return None,
    };
    (TAGS[i] == tag).then_some(i)
}

/// Assemble an [`EventKind`] from a parsed tag and its optional fields —
/// shared by the text scanner and the JSON capture parser so both
/// enforce identical field requirements per tag.
#[inline(always)]
pub(crate) fn kind_from_parts(
    tag: &str,
    task: Option<TaskId>,
    job: Option<u64>,
    amount: Option<Duration>,
    by: Option<TaskId>,
) -> Result<EventKind, String> {
    let Some(index) = tag_index(tag) else {
        return Err(format!("unknown event tag `{tag}`"));
    };
    // Indices as `EventKind::tag_index` gives them.
    let need = match index {
        10 => return Ok(EventKind::CpuIdle),
        11 => return Ok(EventKind::SimEnd),
        3 => "preempt requires `task`, `job` and `by`",
        8 => "grant requires `task`, `job` and `amount`",
        _ => "event requires `task` and `job`",
    };
    let (Some(task), Some(job)) = (task, job) else {
        return Err(need.to_string());
    };
    Ok(match index {
        0 => EventKind::JobRelease { task, job },
        1 => EventKind::JobStart { task, job },
        2 => EventKind::JobEnd { task, job },
        3 => EventKind::Preempted {
            task,
            job,
            by: by.ok_or(need)?,
        },
        4 => EventKind::Resumed { task, job },
        5 => EventKind::DeadlineMiss { task, job },
        6 => EventKind::DetectorRelease { task, job },
        7 => EventKind::FaultDetected { task, job },
        8 => EventKind::AllowanceGranted {
            task,
            job,
            amount: amount.ok_or(need)?,
        },
        _ => EventKind::TaskStopped { task, job },
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: i64) -> Instant {
        Instant::from_millis(ms)
    }

    fn sample() -> TraceLog {
        let mut log = TraceLog::new();
        log.push(
            t(0),
            EventKind::JobRelease {
                task: TaskId(1),
                job: 0,
            },
        );
        log.push(
            t(0),
            EventKind::JobStart {
                task: TaskId(1),
                job: 0,
            },
        );
        log.push(
            t(5),
            EventKind::Preempted {
                task: TaskId(2),
                job: 3,
                by: TaskId(1),
            },
        );
        log.push(
            t(29),
            EventKind::JobEnd {
                task: TaskId(1),
                job: 0,
            },
        );
        log.push(
            t(30),
            EventKind::DetectorRelease {
                task: TaskId(1),
                job: 0,
            },
        );
        log.push(
            t(31),
            EventKind::FaultDetected {
                task: TaskId(1),
                job: 0,
            },
        );
        log.push(
            t(31),
            EventKind::AllowanceGranted {
                task: TaskId(1),
                job: 0,
                amount: Duration::millis(11),
            },
        );
        log.push(
            t(42),
            EventKind::TaskStopped {
                task: TaskId(1),
                job: 0,
            },
        );
        log.push(t(60), EventKind::CpuIdle);
        log.push(
            t(120),
            EventKind::DeadlineMiss {
                task: TaskId(3),
                job: 0,
            },
        );
        log.push(t(150), EventKind::SimEnd);
        log
    }

    #[test]
    fn roundtrip_every_kind() {
        let log = sample();
        let text = to_text(&log);
        let back = from_text(&text).unwrap();
        assert_eq!(log, back);
    }

    #[test]
    fn header_and_shape() {
        let text = to_text(&sample());
        assert!(text.starts_with("# rtft trace v1\n"));
        assert!(text.contains("0 release task 1 job 0"));
        assert!(text.contains("grant task 1 job 0 amount 11000000"));
        assert!(text.contains("preempt task 2 job 3 by 1"));
    }

    #[test]
    fn comments_and_blanks_skipped() {
        let log = from_text("# c\n\n  \n1000 idle\n").unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log.events()[0].kind, EventKind::CpuIdle);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = from_text("1000 idle\nnonsense line\n").unwrap_err();
        assert_eq!(err.line, 2);
        let err = from_text("1000 frobnicate\n").unwrap_err();
        assert!(err.message.contains("unknown event tag"));
        let err = from_text("1000 release task 1\n").unwrap_err();
        assert!(err.message.contains("requires"));
        let err = from_text("abc idle\n").unwrap_err();
        assert!(err.message.contains("bad timestamp"));
        let err = from_text("5 idle\n1 idle\n").unwrap_err();
        assert!(err.message.contains("out of order"));
        let err = from_text("5 release task 1 job\n").unwrap_err();
        assert!(err.message.contains("missing value"));
        let err = from_text("5 release task 1 job 0 bogus 3\n").unwrap_err();
        assert!(err.message.contains("unknown field"));
    }
}
