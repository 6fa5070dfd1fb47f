//! Capture format v2 — the persisted trace artifact behind `rtft trace`
//! and `rtft replay`.
//!
//! A *capture* is a trace log plus the provenance a replay needs: which
//! spec produced it (by content hash), under which policy, placement and
//! treatment, on how many cores, and the content hash of the events
//! themselves. The header rides as `#`-comment lines, so a flat capture
//! is still a valid v1 trace file — `format::from_text` (and therefore
//! `rtft chart`) skips the header and reads the events unchanged:
//!
//! ```text
//! # rtft trace v2
//! # spec-hash 00c0ffee00c0ffee
//! # policy fp
//! # placement partitioned
//! # cores 1
//! # treatment equitable
//! # content-hash 0123456789abcdef
//! 0 release task 1 job 0
//! ...
//! ```
//!
//! Multicore captures prefix every event line with its core tag
//! (`c0 1000 start task 1 job 0`), merged chronologically — the same
//! shape [`crate::merge::to_text`] has always written, now with the
//! header in front. A JSON rendering of the same data is available for
//! tooling ([`TraceCapture::render_json`] / [`TraceCapture::parse_json`]);
//! both renderings round-trip exactly (property-tested).
//!
//! Determinism contract: the simulator is deterministic, so capture →
//! import → replay sees byte-for-byte the events a fresh run would
//! produce, and the content hash in the header pins them. A capture
//! whose events no longer match its `content-hash` has been edited;
//! a capture whose `spec-hash` disagrees with the spec it is replayed
//! against belongs to a different system (lint rule RT035).

use crate::event::{EventKind, TraceEvent};
use crate::format::{self, Line, ParseError};
use crate::log::{hash_event, TraceLog};
use crate::merge::{fold_core_hashes, merge_core_traces, CoreEvent};
use rtft_core::fnv::Fnv1a;
use rtft_core::query::parse_cores;
use rtft_core::task::TaskId;
use rtft_core::time::{Duration, Instant};
use std::fmt::Write as _;

/// Provenance metadata of a capture: which spec produced the events,
/// under what scheduling configuration, and the content hash pinning
/// the events themselves.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceHeader {
    /// [`rtft_core::query::spec_hash`] of the originating [`SystemSpec`]
    /// (the serve cache keys warm sessions by the same hash).
    ///
    /// [`SystemSpec`]: rtft_core::query::SystemSpec
    pub spec_hash: u64,
    /// Scheduling policy label (`fp`, `edf`, `npfp`).
    pub policy: String,
    /// Placement label (`partitioned`, `global`).
    pub placement: String,
    /// Core count of the run.
    pub cores: usize,
    /// Fault-treatment keyword (`none`, `detect`, `stop`, `equitable`,
    /// `system`).
    pub treatment: String,
    /// Content hash of the events: [`TraceLog::content_hash`] for a
    /// flat capture, [`crate::merge::merged_content_hash`] over the
    /// per-core logs for a multicore one.
    pub content_hash: u64,
}

/// The event body of a capture.
#[derive(Clone, PartialEq, Debug)]
pub enum CaptureBody {
    /// A uniprocessor run: one chronological log, no core tags.
    Flat(TraceLog),
    /// A multicore run: the chronological core-tagged merge of the
    /// per-core logs.
    Merged(Vec<CoreEvent>),
}

/// A parsed or freshly built capture: optional header (legacy v1 files
/// have none) plus the event body.
#[derive(Clone, PartialEq, Debug)]
pub struct TraceCapture {
    /// Provenance header; `None` when importing a legacy headerless
    /// trace file.
    pub header: Option<TraceHeader>,
    /// The events.
    pub body: CaptureBody,
}

/// A borrowed view of a capture's events over either body, in stream
/// order: the stream `rtft replay` indexes divergences into, with a
/// flat body's events on core 0. Replay (its stepper, and the
/// [`TraceStats`] behind its verdict), `rtft replay --step` and the JSON
/// rendering read a capture through this view, so none of them copies
/// the events. A consumer with a hot loop matches the two slices once
/// and runs over each directly.
///
/// [`TraceStats`]: crate::stats::TraceStats
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum CaptureEvents<'a> {
    /// A flat body's log.
    Flat(&'a [TraceEvent]),
    /// A merged body's core-tagged events.
    Merged(&'a [CoreEvent]),
}

impl<'a> CaptureEvents<'a> {
    /// Number of events.
    pub fn len(self) -> usize {
        match self {
            CaptureEvents::Flat(events) => events.len(),
            CaptureEvents::Merged(events) => events.len(),
        }
    }

    /// `true` when there are no events.
    pub fn is_empty(self) -> bool {
        self.len() == 0
    }

    /// The events in stream order, core-tagged.
    pub fn iter(self) -> impl Iterator<Item = CoreEvent> + 'a {
        // One of the two slices is empty.
        let (flat, merged): (&[TraceEvent], &[CoreEvent]) = match self {
            CaptureEvents::Flat(events) => (events, &[]),
            CaptureEvents::Merged(events) => (&[], events),
        };
        flat.iter()
            .map(|&event| CoreEvent { core: 0, event })
            .chain(merged.iter().copied())
    }

    /// Number of per-core logs: one for a flat body (even an empty one),
    /// the distinct cores its events name for a merged body.
    pub fn cores(self) -> usize {
        match self {
            CaptureEvents::Flat(_) => 1,
            CaptureEvents::Merged(events) => {
                let mut cores: Vec<usize> = events.iter().map(|e| e.core).collect();
                cores.sort_unstable();
                cores.dedup();
                cores.len()
            }
        }
    }
}

/// [`crate::merge::merged_content_hash`] of the per-core logs a merged
/// stream groups back into (distinct cores, ascending), in one pass:
/// each core's events feed that core's own hasher, and the per-core
/// hashes are folded at the end. Both the capture constructors and
/// [`TraceCapture::recomputed_hash`] go through here, so a freshly built
/// capture's stored hash always matches its recomputed one (inputs that
/// contributed no events drop out of both sides identically).
fn merged_hash_of(events: &[CoreEvent]) -> u64 {
    // Ascending by core id; `last` is the slot of the previous event's
    // core, since a merged stream often stays on one core for a while.
    let mut cores: Vec<(usize, Fnv1a)> = Vec::new();
    let mut last = 0;
    for e in events {
        if cores.get(last).is_none_or(|(c, _)| *c != e.core) {
            last = match cores.binary_search_by_key(&e.core, |(c, _)| *c) {
                Ok(slot) => slot,
                Err(slot) => {
                    cores.insert(slot, (e.core, Fnv1a::new()));
                    slot
                }
            };
        }
        hash_event(&mut cores[last].1, &e.event);
    }
    fold_core_hashes(cores.iter().map(|(c, h)| (*c, h.finish())))
}

impl TraceCapture {
    /// Build a capture of a uniprocessor run.
    pub fn flat(spec_hash: u64, policy: &str, treatment: &str, log: TraceLog) -> Self {
        let content_hash = log.content_hash();
        TraceCapture {
            header: Some(TraceHeader {
                spec_hash,
                policy: policy.to_string(),
                placement: "partitioned".to_string(),
                cores: 1,
                treatment: treatment.to_string(),
                content_hash,
            }),
            body: CaptureBody::Flat(log),
        }
    }

    /// Build a capture of a multicore run from its per-core logs
    /// (`(core id, log)` pairs, cores ascending — the same inputs
    /// [`merge_core_traces`] takes).
    pub fn merged(
        spec_hash: u64,
        policy: &str,
        placement: &str,
        cores: usize,
        treatment: &str,
        logs: &[(usize, &TraceLog)],
    ) -> Self {
        let events = merge_core_traces(logs);
        let content_hash = merged_hash_of(&events);
        TraceCapture {
            header: Some(TraceHeader {
                spec_hash,
                policy: policy.to_string(),
                placement: placement.to_string(),
                cores,
                treatment: treatment.to_string(),
                content_hash,
            }),
            body: CaptureBody::Merged(events),
        }
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events().len()
    }

    /// `true` when the capture holds no events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The events as one borrowed core-tagged chronological stream (a
    /// flat body reads as core 0). Replay indexes divergences into this
    /// stream.
    pub fn events(&self) -> CaptureEvents<'_> {
        match &self.body {
            CaptureBody::Flat(log) => CaptureEvents::Flat(log.events()),
            CaptureBody::Merged(events) => CaptureEvents::Merged(events),
        }
    }

    /// The events as one chronological [`TraceLog`], core tags dropped
    /// (the merge is already time-ordered, so this is well-formed). A
    /// flat body's log is moved out, not copied.
    pub fn into_log(self) -> TraceLog {
        match self.body {
            CaptureBody::Flat(log) => log,
            CaptureBody::Merged(events) => events.iter().map(|e| e.event).collect(),
        }
    }

    /// Recompute the content hash from the events actually present —
    /// the check behind lint rule RT035's tampered-capture face.
    pub fn recomputed_hash(&self) -> u64 {
        match &self.body {
            CaptureBody::Flat(log) => log.content_hash(),
            CaptureBody::Merged(events) => merged_hash_of(events),
        }
    }

    /// Does the header's stored content hash match the events? `None`
    /// when the capture has no header to check against.
    pub fn hash_matches(&self) -> Option<bool> {
        self.header
            .as_ref()
            .map(|h| h.content_hash == self.recomputed_hash())
    }

    /// A copy keeping only the first `keep` events (of the chronological
    /// stream), with the header's content hash updated to match. Replay
    /// minimization truncates the suffix after the first divergence, so
    /// the divergence keeps its event index in the minimized capture.
    pub fn truncated(&self, keep: usize) -> TraceCapture {
        let body = match &self.body {
            CaptureBody::Flat(log) => CaptureBody::Flat(
                log.events()
                    .iter()
                    .take(keep)
                    .copied()
                    .collect::<TraceLog>(),
            ),
            CaptureBody::Merged(events) => {
                CaptureBody::Merged(events.iter().take(keep).cloned().collect())
            }
        };
        let recomputed = match &body {
            CaptureBody::Flat(log) => log.content_hash(),
            CaptureBody::Merged(events) => merged_hash_of(events),
        };
        let header = self.header.clone().map(|mut h| {
            h.content_hash = recomputed;
            h
        });
        TraceCapture { header, body }
    }

    /// Render the line format (header comments + event lines).
    pub fn render_text(&self) -> String {
        let mut out = String::with_capacity(self.len() * 40 + 192);
        out.push_str("# rtft trace v2\n");
        if let Some(h) = &self.header {
            let _ = writeln!(out, "# spec-hash {:016x}", h.spec_hash);
            let _ = writeln!(out, "# policy {}", h.policy);
            let _ = writeln!(out, "# placement {}", h.placement);
            let _ = writeln!(out, "# cores {}", h.cores);
            let _ = writeln!(out, "# treatment {}", h.treatment);
            let _ = writeln!(out, "# content-hash {:016x}", h.content_hash);
        }
        match &self.body {
            CaptureBody::Flat(log) => {
                for e in log.events() {
                    format::write_line(&mut out, e);
                }
            }
            CaptureBody::Merged(events) => {
                for ce in events {
                    let _ = write!(out, "c{} ", ce.core);
                    format::write_line(&mut out, &ce.event);
                }
            }
        }
        out
    }

    /// Parse the line format. Accepts a v2 capture (header + flat or
    /// core-tagged body), a legacy headerless v1 trace file (flat body,
    /// `header: None`), or a headerless core-tagged body (`header:
    /// None`). The *old* multicore `--save-trace` dumps used the human
    /// display format and were never machine-readable — those still
    /// fail to parse.
    pub fn parse_text(text: &str) -> Result<TraceCapture, ParseError> {
        let mut fields = HeaderFields::default();
        // The first event picks the body; until then comments are header.
        let mut flat = TraceLog::new();
        let mut merged: Vec<CoreEvent> = Vec::new();
        format::scan(text, true, |line| {
            match line {
                Line::Event(None, event) if merged.is_empty() => flat.push_event(event),
                Line::Event(Some(core), event) if flat.is_empty() => {
                    merged.push(CoreEvent { core, event });
                }
                Line::Event(None, _) => {
                    return Err("flat line in a core-tagged capture (mixed body)".to_string());
                }
                Line::Event(Some(_), _) => {
                    return Err("core-tagged line in a flat capture (mixed body)".to_string());
                }
                Line::Comment(comment) if flat.is_empty() && merged.is_empty() => {
                    return fields.read(comment);
                }
                Line::Comment(_) => {} // ordinary comment inside the body
            }
            Ok(())
        })?;

        let header = fields.header()?;
        let body = if merged.is_empty() {
            CaptureBody::Flat(flat)
        } else {
            CaptureBody::Merged(merged)
        };
        Ok(TraceCapture { header, body })
    }

    /// Render the JSON form of the same data (hashes as 16-hex-digit
    /// strings, times in nanoseconds).
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(self.len() * 64 + 256);
        out.push_str("{\n  \"version\": 2,\n");
        match &self.header {
            Some(h) => {
                out.push_str("  \"header\": {\n");
                let _ = writeln!(out, "    \"spec_hash\": \"{:016x}\",", h.spec_hash);
                let _ = writeln!(out, "    \"policy\": {},", json_string(&h.policy));
                let _ = writeln!(out, "    \"placement\": {},", json_string(&h.placement));
                let _ = writeln!(out, "    \"cores\": {},", h.cores);
                let _ = writeln!(out, "    \"treatment\": {},", json_string(&h.treatment));
                let _ = writeln!(out, "    \"content_hash\": \"{:016x}\"", h.content_hash);
                out.push_str("  },\n");
            }
            None => out.push_str("  \"header\": null,\n"),
        }
        let kind = match &self.body {
            CaptureBody::Flat(_) => "flat",
            CaptureBody::Merged(_) => "merged",
        };
        let _ = writeln!(out, "  \"body\": \"{kind}\",");
        out.push_str("  \"events\": [");
        for (i, ce) in self.events().iter().enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("    {");
            if matches!(self.body, CaptureBody::Merged(_)) {
                let _ = write!(out, "\"core\": {}, ", ce.core);
            }
            let e = &ce.event;
            let _ = write!(
                out,
                "\"at\": {}, \"tag\": \"{}\"",
                e.at.as_nanos(),
                e.kind.tag()
            );
            if let Some(task) = e.kind.task() {
                let _ = write!(out, ", \"task\": {}", task.0);
            }
            if let Some(job) = e.kind.job() {
                let _ = write!(out, ", \"job\": {job}");
            }
            match e.kind {
                EventKind::Preempted { by, .. } => {
                    let _ = write!(out, ", \"by\": {}", by.0);
                }
                EventKind::AllowanceGranted { amount, .. } => {
                    let _ = write!(out, ", \"amount\": {}", amount.as_nanos());
                }
                _ => {}
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Parse the JSON form.
    pub fn parse_json(text: &str) -> Result<TraceCapture, ParseError> {
        let value = json::parse(text)?;
        let obj = value.as_object().ok_or_else(|| ParseError {
            line: 1,
            message: "top-level JSON value must be an object".to_string(),
        })?;
        let fail = |message: String| ParseError { line: 1, message };

        let header = match obj.iter().find(|(k, _)| k == "header").map(|(_, v)| v) {
            None | Some(json::Value::Null) => None,
            Some(v) => {
                let h = v
                    .as_object()
                    .ok_or_else(|| fail("`header` must be an object or null".to_string()))?;
                let field = |name: &str| {
                    h.iter()
                        .find(|(k, _)| k == name)
                        .map(|(_, v)| v)
                        .ok_or_else(|| fail(format!("header missing `{name}`")))
                };
                let hex = |name: &str| -> Result<u64, ParseError> {
                    let s = field(name)?
                        .as_str()
                        .ok_or_else(|| fail(format!("header `{name}` must be a hex string")))?;
                    u64::from_str_radix(s, 16).map_err(|e| fail(format!("bad `{name}`: {e}")))
                };
                let string = |name: &str| -> Result<String, ParseError> {
                    field(name)?
                        .as_str()
                        .map(str::to_string)
                        .ok_or_else(|| fail(format!("header `{name}` must be a string")))
                };
                let cores = field("cores")?
                    .as_i64()
                    .ok_or_else(|| fail("header `cores` must be a number".to_string()))?;
                let cores = parse_cores(&cores.to_string()).map_err(fail)?;
                Some(TraceHeader {
                    spec_hash: hex("spec_hash")?,
                    policy: string("policy")?,
                    placement: string("placement")?,
                    cores,
                    treatment: string("treatment")?,
                    content_hash: hex("content_hash")?,
                })
            }
        };

        let body_kind = obj
            .iter()
            .find(|(k, _)| k == "body")
            .map(|(_, v)| v)
            .and_then(|v| v.as_str())
            .ok_or_else(|| fail("missing `body`: \"flat\" or \"merged\"".to_string()))?;
        let events_value = obj
            .iter()
            .find(|(k, _)| k == "events")
            .map(|(_, v)| v)
            .ok_or_else(|| fail("missing `events` array".to_string()))?;
        let items = events_value
            .as_array()
            .ok_or_else(|| fail("`events` must be an array".to_string()))?;

        let mut events: Vec<CoreEvent> = Vec::with_capacity(items.len());
        let mut last_at: Option<Instant> = None;
        for (i, item) in items.iter().enumerate() {
            let efail = |message: String| ParseError {
                line: 1,
                message: format!("event {i}: {message}"),
            };
            let fields = item
                .as_object()
                .ok_or_else(|| efail("must be an object".to_string()))?;
            let get = |name: &str| fields.iter().find(|(k, _)| k == name).map(|(_, v)| v);
            let num = |name: &str| -> Result<Option<i64>, ParseError> {
                match get(name) {
                    None => Ok(None),
                    Some(v) => v
                        .as_i64()
                        .map(Some)
                        .ok_or_else(|| efail(format!("`{name}` must be a number"))),
                }
            };
            let at = num("at")?.ok_or_else(|| efail("missing `at`".to_string()))?;
            let tag = get("tag")
                .and_then(|v| v.as_str())
                .ok_or_else(|| efail("missing `tag` string".to_string()))?;
            let task = num("task")?
                .map(|n| u32::try_from(n).map(TaskId))
                .transpose()
                .map_err(|_| efail("`task` out of range".to_string()))?;
            let job = num("job")?
                .map(u64::try_from)
                .transpose()
                .map_err(|_| efail("`job` out of range".to_string()))?;
            let by = num("by")?
                .map(|n| u32::try_from(n).map(TaskId))
                .transpose()
                .map_err(|_| efail("`by` out of range".to_string()))?;
            let amount = num("amount")?.map(Duration::nanos);
            let core = num("core")?
                .map(usize::try_from)
                .transpose()
                .map_err(|_| efail("`core` out of range".to_string()))?
                .unwrap_or(0);
            let kind = format::kind_from_parts(tag, task, job, amount, by).map_err(efail)?;
            let event = TraceEvent::new(Instant::from_nanos(at), kind);
            if last_at.is_some_and(|last| event.at < last) {
                return Err(ParseError {
                    line: 1,
                    message: format!("event {i}: timestamp {at} out of order"),
                });
            }
            last_at = Some(event.at);
            events.push(CoreEvent { core, event });
        }

        let body = match body_kind {
            "flat" => CaptureBody::Flat(events.iter().map(|e| e.event).collect()),
            "merged" => CaptureBody::Merged(events),
            other => return Err(fail(format!("unknown body kind `{other}`"))),
        };
        Ok(TraceCapture { header, body })
    }
}

/// The header fields a capture's leading comments name, as they are
/// read.
#[derive(Default)]
struct HeaderFields {
    spec_hash: Option<u64>,
    policy: Option<String>,
    placement: Option<String>,
    cores: Option<usize>,
    treatment: Option<String>,
    content_hash: Option<u64>,
}

impl HeaderFields {
    /// Read one header comment (`#` included); free comments and the
    /// version line name no field.
    #[cold]
    fn read(&mut self, comment: &str) -> Result<(), String> {
        if let Some((key, value)) = comment[1..].trim().split_once(' ') {
            let value = value.trim();
            match key {
                "spec-hash" => {
                    self.spec_hash = Some(
                        u64::from_str_radix(value, 16)
                            .map_err(|e| format!("bad spec-hash: {e}"))?,
                    );
                }
                "content-hash" => {
                    self.content_hash = Some(
                        u64::from_str_radix(value, 16)
                            .map_err(|e| format!("bad content-hash: {e}"))?,
                    );
                }
                "policy" => self.policy = Some(value.to_string()),
                "placement" => self.placement = Some(value.to_string()),
                "treatment" => self.treatment = Some(value.to_string()),
                "cores" => self.cores = Some(parse_cores(value)?),
                _ => {} // "rtft trace v2", "rtft trace v1", free comments
            }
        }
        Ok(())
    }

    /// The header: none when no field was named, an error (on line 1)
    /// when only some were.
    fn header(self) -> Result<Option<TraceHeader>, ParseError> {
        match self {
            HeaderFields {
                spec_hash: Some(spec_hash),
                policy: Some(policy),
                placement: Some(placement),
                cores: Some(cores),
                treatment: Some(treatment),
                content_hash: Some(content_hash),
            } => Ok(Some(TraceHeader {
                spec_hash,
                policy,
                placement,
                cores,
                treatment,
                content_hash,
            })),
            HeaderFields {
                spec_hash: None,
                policy: None,
                placement: None,
                cores: None,
                treatment: None,
                content_hash: None,
            } => Ok(None),
            _ => Err(ParseError {
                line: 1,
                message: "incomplete capture header (need spec-hash, policy, \
                          placement, cores, treatment, content-hash)"
                    .to_string(),
            }),
        }
    }
}

/// A quoted JSON string literal, escaped by the workspace's one table
/// ([`rtft_core::query::json_escape`]).
fn json_string(s: &str) -> String {
    format!("\"{}\"", rtft_core::query::json_escape(s))
}

/// A minimal recursive-descent JSON reader — just enough for the
/// capture schema (objects, arrays, strings, integer numbers, booleans,
/// null). Object members keep their document order.
mod json {
    use super::ParseError;

    /// A parsed JSON value.
    #[derive(Clone, PartialEq, Debug)]
    pub enum Value {
        /// `null`.
        Null,
        /// `true` / `false`.
        Bool(bool),
        /// An integer (the capture schema uses no fractions).
        Num(i64),
        /// A string.
        Str(String),
        /// An array.
        Arr(Vec<Value>),
        /// An object, members in document order.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_object(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(members) => Some(members),
                _ => None,
            }
        }
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(items) => Some(items),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_i64(&self) -> Option<i64> {
            match self {
                Value::Num(n) => Some(*n),
                _ => None,
            }
        }
    }

    struct Reader<'a> {
        bytes: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        fn error(&self, message: impl Into<String>) -> ParseError {
            let line = 1 + self.bytes[..self.pos.min(self.bytes.len())]
                .iter()
                .filter(|b| **b == b'\n')
                .count();
            ParseError {
                line,
                message: message.into(),
            }
        }

        fn skip_ws(&mut self) {
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            {
                self.pos += 1;
            }
        }

        fn peek(&mut self) -> Option<u8> {
            self.skip_ws();
            self.bytes.get(self.pos).copied()
        }

        fn eat(&mut self, byte: u8) -> Result<(), ParseError> {
            if self.peek() == Some(byte) {
                self.pos += 1;
                Ok(())
            } else {
                Err(self.error(format!("expected `{}`", byte as char)))
            }
        }

        fn eat_literal(&mut self, lit: &str) -> bool {
            if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
                self.pos += lit.len();
                true
            } else {
                false
            }
        }

        fn value(&mut self, depth: usize) -> Result<Value, ParseError> {
            if depth > 64 {
                return Err(self.error("nesting too deep"));
            }
            match self.peek() {
                Some(b'{') => {
                    self.pos += 1;
                    let mut members = Vec::new();
                    if self.peek() == Some(b'}') {
                        self.pos += 1;
                        return Ok(Value::Obj(members));
                    }
                    loop {
                        self.skip_ws();
                        let key = match self.string()? {
                            Value::Str(s) => s,
                            _ => unreachable!("string() yields Str"),
                        };
                        self.eat(b':')?;
                        let value = self.value(depth + 1)?;
                        members.push((key, value));
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b'}') => {
                                self.pos += 1;
                                return Ok(Value::Obj(members));
                            }
                            _ => return Err(self.error("expected `,` or `}`")),
                        }
                    }
                }
                Some(b'[') => {
                    self.pos += 1;
                    let mut items = Vec::new();
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        return Ok(Value::Arr(items));
                    }
                    loop {
                        items.push(self.value(depth + 1)?);
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b']') => {
                                self.pos += 1;
                                return Ok(Value::Arr(items));
                            }
                            _ => return Err(self.error("expected `,` or `]`")),
                        }
                    }
                }
                Some(b'"') => self.string(),
                Some(b't') if self.eat_literal("true") => Ok(Value::Bool(true)),
                Some(b'f') if self.eat_literal("false") => Ok(Value::Bool(false)),
                Some(b'n') if self.eat_literal("null") => Ok(Value::Null),
                Some(b'-' | b'0'..=b'9') => self.number(),
                _ => Err(self.error("expected a JSON value")),
            }
        }

        fn number(&mut self) -> Result<Value, ParseError> {
            let start = self.pos;
            if self.bytes.get(self.pos) == Some(&b'-') {
                self.pos += 1;
            }
            while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
            let text =
                std::str::from_utf8(&self.bytes[start..self.pos]).expect("digits are valid UTF-8");
            text.parse::<i64>()
                .map(Value::Num)
                .map_err(|e| self.error(format!("bad number: {e}")))
        }

        fn string(&mut self) -> Result<Value, ParseError> {
            self.eat(b'"')?;
            let mut out = String::new();
            loop {
                match self.bytes.get(self.pos).copied() {
                    None => return Err(self.error("unterminated string")),
                    Some(b'"') => {
                        self.pos += 1;
                        return Ok(Value::Str(out));
                    }
                    Some(b'\\') => {
                        self.pos += 1;
                        match self.bytes.get(self.pos).copied() {
                            Some(b'"') => out.push('"'),
                            Some(b'\\') => out.push('\\'),
                            Some(b'/') => out.push('/'),
                            Some(b'n') => out.push('\n'),
                            Some(b'r') => out.push('\r'),
                            Some(b't') => out.push('\t'),
                            Some(b'b') => out.push('\u{8}'),
                            Some(b'f') => out.push('\u{c}'),
                            Some(b'u') => {
                                let hex = self
                                    .bytes
                                    .get(self.pos + 1..self.pos + 5)
                                    .and_then(|b| std::str::from_utf8(b).ok())
                                    .ok_or_else(|| self.error("truncated \\u escape"))?;
                                let code = u32::from_str_radix(hex, 16)
                                    .map_err(|e| self.error(format!("bad \\u escape: {e}")))?;
                                out.push(
                                    char::from_u32(code)
                                        .ok_or_else(|| self.error("invalid \\u code point"))?,
                                );
                                self.pos += 4;
                            }
                            _ => return Err(self.error("bad escape")),
                        }
                        self.pos += 1;
                    }
                    Some(_) => {
                        // Consume one UTF-8 scalar (strings are already
                        // validated UTF-8 from the &str input).
                        let rest = std::str::from_utf8(&self.bytes[self.pos..])
                            .map_err(|_| self.error("invalid UTF-8"))?;
                        let c = rest.chars().next().expect("non-empty");
                        out.push(c);
                        self.pos += c.len_utf8();
                    }
                }
            }
        }
    }

    /// Parse one JSON document; trailing garbage is an error.
    pub fn parse(text: &str) -> Result<Value, ParseError> {
        let mut r = Reader {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = r.value(0)?;
        r.skip_ws();
        if r.pos != r.bytes.len() {
            return Err(r.error("trailing garbage after JSON document"));
        }
        Ok(value)
    }
}

/// The static diagnostics of a trace file — the `rtft lint` face of
/// rule `RT035`: a capture whose events no longer fold to the
/// `content-hash` its header pins has been edited (or truncated) since
/// it was recorded, so nothing replayed from it can be trusted against
/// the original run. Unparseable input reports through the shared
/// parse-failure codes; legacy headerless traces carry no pinned hash
/// and lint clean.
pub fn lint_trace_text(text: &str) -> Vec<rtft_core::diag::Diagnostic> {
    use rtft_core::diag::{parse_failure, Diagnostic, Span};
    let capture = match TraceCapture::parse_text(text) {
        Ok(c) => c,
        Err(e) => return vec![parse_failure(e.line, e.message)],
    };
    match capture.hash_matches() {
        Some(false) => {
            let stored = capture.header.as_ref().expect("hash implies header");
            vec![Diagnostic::new(
                "RT035",
                Span::Whole,
                format!(
                    "trace content hash {:016x} disagrees with the header's {:016x}: \
                     the events were edited after capture",
                    capture.recomputed_hash(),
                    stored.content_hash
                ),
                "re-export the trace, or replay the edited events deliberately with \
                 `rtft replay --force`",
            )]
        }
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: i64) -> Instant {
        Instant::from_millis(ms)
    }

    fn sample_log() -> TraceLog {
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
            t(31),
            EventKind::AllowanceGranted {
                task: TaskId(1),
                job: 0,
                amount: Duration::millis(11),
            },
        );
        log.push(t(150), EventKind::SimEnd);
        log
    }

    fn flat_capture() -> TraceCapture {
        TraceCapture::flat(0xc0ffee, "fp", "equitable", sample_log())
    }

    fn merged_capture() -> TraceCapture {
        let a = sample_log();
        let mut b = TraceLog::new();
        b.push(
            t(2),
            EventKind::JobStart {
                task: TaskId(3),
                job: 0,
            },
        );
        b.push(t(160), EventKind::SimEnd);
        TraceCapture::merged(
            0xc0ffee,
            "fp",
            "partitioned",
            2,
            "system",
            &[(0, &a), (1, &b)],
        )
    }

    #[test]
    fn text_roundtrip_flat() {
        let cap = flat_capture();
        let text = cap.render_text();
        let back = TraceCapture::parse_text(&text).unwrap();
        assert_eq!(back, cap);
    }

    #[test]
    fn text_roundtrip_merged() {
        let cap = merged_capture();
        let text = cap.render_text();
        assert!(text.contains("c0 "), "multicore bodies are core-tagged");
        let back = TraceCapture::parse_text(&text).unwrap();
        assert_eq!(back, cap);
    }

    #[test]
    fn json_roundtrip_flat_and_merged() {
        for cap in [flat_capture(), merged_capture()] {
            let json = cap.render_json();
            let back = TraceCapture::parse_json(&json).unwrap();
            assert_eq!(back, cap);
        }
    }

    #[test]
    fn stored_hash_always_matches_fresh_captures() {
        assert_eq!(flat_capture().hash_matches(), Some(true));
        assert_eq!(merged_capture().hash_matches(), Some(true));
    }

    #[test]
    fn flat_capture_is_still_a_valid_v1_trace_file() {
        // `rtft chart` (format::from_text) must read a v2 flat capture
        // unchanged: the header is all comments.
        let cap = flat_capture();
        let log = format::from_text(&cap.render_text()).unwrap();
        assert_eq!(log, sample_log());
    }

    #[test]
    fn legacy_headerless_v1_imports_with_no_header() {
        let text = format::to_text(&sample_log());
        let cap = TraceCapture::parse_text(&text).unwrap();
        assert_eq!(cap.header, None);
        assert_eq!(cap.body, CaptureBody::Flat(sample_log()));
        assert_eq!(cap.hash_matches(), None);
    }

    #[test]
    fn headerless_core_tagged_body_imports_as_merged() {
        let cap = TraceCapture::parse_text("c0 0 idle\nc1 5 simend\n").unwrap();
        assert_eq!(cap.header, None);
        match cap.body {
            CaptureBody::Merged(events) => {
                assert_eq!(events.len(), 2);
                assert_eq!(events[1].core, 1);
            }
            other => panic!("expected merged body, got {other:?}"),
        }
    }

    #[test]
    fn old_display_format_dumps_stay_unreadable() {
        // The pre-v2 multicore `--save-trace` wrote the human display
        // format (`c0 t=0ms release τ1 job 0`) — never importable, and
        // the capture parser must say so rather than misread it.
        let a = sample_log();
        let merged = merge_core_traces(&[(0, &a)]);
        let text = crate::merge::to_text(&merged);
        assert!(TraceCapture::parse_text(&text).is_err());
    }

    #[test]
    fn tampering_breaks_the_stored_hash() {
        let cap = flat_capture();
        let text = cap.render_text();
        // Delete one event line (not the header, not a comment).
        let mutated: String = text
            .lines()
            .filter(|l| !l.contains("preempt"))
            .map(|l| format!("{l}\n"))
            .collect();
        let back = TraceCapture::parse_text(&mutated).unwrap();
        assert_eq!(back.hash_matches(), Some(false));
    }

    #[test]
    fn truncation_updates_the_hash_and_keeps_prefix() {
        let cap = flat_capture();
        let cut = cap.truncated(3);
        assert_eq!(cut.len(), 3);
        assert_eq!(cut.hash_matches(), Some(true));
        let prefix: Vec<CoreEvent> = cap.events().iter().take(3).collect();
        assert_eq!(cut.events().iter().collect::<Vec<_>>(), prefix);
        // Header provenance is preserved.
        assert_eq!(
            cut.header.as_ref().unwrap().spec_hash,
            cap.header.as_ref().unwrap().spec_hash
        );
    }

    #[test]
    fn incomplete_header_is_an_error() {
        let text = "# rtft trace v2\n# spec-hash 00ff\n0 idle\n";
        let err = TraceCapture::parse_text(text).unwrap_err();
        assert!(err.message.contains("incomplete capture header"));
    }

    #[test]
    fn mixed_bodies_are_rejected() {
        let err = TraceCapture::parse_text("0 idle\nc0 5 idle\n").unwrap_err();
        assert!(err.message.contains("mixed"));
        let err = TraceCapture::parse_text("c0 0 idle\n5 idle\n").unwrap_err();
        assert!(err.message.contains("mixed"));
    }

    #[test]
    fn out_of_order_streams_are_rejected() {
        let err = TraceCapture::parse_text("c0 5 idle\nc1 1 idle\n").unwrap_err();
        assert!(err.message.contains("out of order"));
    }

    #[test]
    fn json_parser_rejects_garbage() {
        for junk in ["", "{", "[1,", "{\"a\" 1}", "{} trailing", "nulll"] {
            assert!(TraceCapture::parse_json(junk).is_err(), "junk: {junk:?}");
        }
    }

    #[test]
    fn events_view_tags_flat_bodies_with_core_zero() {
        let cap = flat_capture();
        assert!(cap.events().iter().all(|e| e.core == 0));
        assert_eq!(cap.events().cores(), 1);
        // An empty flat body is still one (empty) core log.
        assert_eq!(TraceCapture::parse_text("").unwrap().events().cores(), 1);
        assert_eq!(cap.into_log(), sample_log());
    }

    #[test]
    fn merged_core_logs_roundtrip_the_inputs() {
        let cap = merged_capture();
        let events = cap.events();
        assert_eq!(events.cores(), 2);
        let core = |c: usize| -> TraceLog {
            events
                .iter()
                .filter(|e| e.core == c)
                .map(|e| e.event)
                .collect()
        };
        assert_eq!(core(0), sample_log());
        assert_eq!(core(1).len(), 2);
    }
}
