//! The live trace subscription route: `POST /trace`.
//!
//! The body is a **one-job** campaign spec (the same contract as a
//! `rtft replay --spec` artifact). The daemon builds the job's
//! [`Workbench`] once and lints the spec through it: Error findings
//! answer 422 with the lint diagnostics, exactly as `POST /query` would
//! reject the same system. Otherwise the job runs on that workbench
//! through [`rtft_campaign::capture_job_streamed`], and every recorded
//! event goes down the socket *as the simulation produces it* — a
//! close-delimited body with no `Content-Length`, flushed per event, so
//! a subscriber watches the run live instead of waiting for it to
//! finish.
//!
//! The stream is line-oriented and deliberately close to the capture
//! text format:
//!
//! ```text
//! # rtft trace stream
//! # spec-hash 8789c78d0a77a4ec
//! # policy fp
//! # placement partitioned
//! # cores 1
//! # treatment detect
//! 0 release task 1 job 0
//! c1 29000000 end task 2 job 0        (core-tagged under multicore)
//! # content-hash 499dc77cfeda0d54
//! ```
//!
//! The `content-hash` arrives as a **trailer** — it folds over the
//! whole event stream, so it cannot lead it. Reordering that one line
//! into the header slot yields a capture `rtft replay` imports and
//! hash-checks. A lint-clean job that still cannot run (the runner's
//! admission gate refuses it, or no partition exists) reports
//! `# error: ...` as the trailer instead, since the head is committed
//! by then.

use std::io::Write;

use rtft_core::diag::{self, Diagnostic};
use rtft_part::workbench::Workbench;
use rtft_trace::TraceEvent;

use crate::http::{write_response, write_stream_head, Request};

/// Answer 422 with rejection diagnostics, one line each (or JSON).
fn reject(stream: &mut impl Write, diags: &[Diagnostic], json: bool) -> u16 {
    let (ct, body) = if json {
        ("application/json", diag::render_json(diags))
    } else {
        (
            "text/plain",
            diags.iter().map(|d| format!("{}\n", d.to_line())).collect(),
        )
    };
    let _ = write_response(stream, 422, ct, body.as_bytes());
    422
}

/// Handle one `POST /trace`, writing the whole response (head and
/// streamed body) itself. Returns the status code for the stats plane.
pub(crate) fn handle_trace_stream(stream: &mut impl Write, request: &Request) -> u16 {
    let json = request.wants_json();
    let Ok(text) = std::str::from_utf8(&request.body) else {
        let _ = write_response(stream, 400, "text/plain", b"body is not UTF-8\n");
        return 400;
    };

    let spec = match rtft_campaign::parse_spec(text) {
        Ok(s) => s,
        Err(e) => return reject(stream, &[diag::parse_failure(e.line, e.message)], json),
    };
    let jobs = match spec.expand() {
        Ok(j) => j,
        Err(e) => return reject(stream, &[diag::parse_failure(e.line, e.message)], json),
    };
    let [job] = jobs.as_slice() else {
        let d = diag::parse_failure(
            0,
            format!(
                "the streaming trace route wants a one-job campaign spec; this grid expands to \
                 {} jobs",
                jobs.len()
            ),
        );
        return reject(stream, &[d], json);
    };
    let mut bench = Workbench::new(job.system_spec());
    if diag::has_errors(bench.lint()) {
        return reject(stream, bench.lint(), json);
    }

    // From here the head is committed: run errors become trailers.
    if write_stream_head(stream, 200, "text/plain").is_err() {
        return 200;
    }
    let head = format!(
        "# rtft trace stream\n# spec-hash {:016x}\n# policy {}\n# placement {}\n# cores {}\n\
         # treatment {}\n",
        rtft_core::query::spec_hash(bench.spec()),
        job.policy.label(),
        job.placement.label(),
        job.cores,
        rtft_campaign::treatment_keyword(job.treatment),
    );
    if stream.write_all(head.as_bytes()).is_err() {
        return 200;
    }

    let mut dead = false;
    let mut sink = |core: Option<usize>, at, kind| {
        if dead {
            return; // subscriber hung up: let the run finish quietly
        }
        let event = rtft_trace::format::event_line(&TraceEvent { at, kind });
        let line = match core {
            Some(c) => format!("c{c} {event}"),
            None => event,
        };
        dead = stream.write_all(line.as_bytes()).is_err() || stream.flush().is_err();
    };
    let trailer = match rtft_campaign::capture_job_streamed(job, &mut bench, Some(&mut sink)) {
        Ok(capture) => match &capture.header {
            Some(h) => format!("# content-hash {:016x}\n", h.content_hash),
            None => String::new(),
        },
        Err(e) => format!("# error: {e}\n"),
    };
    let _ = stream.write_all(trailer.as_bytes());
    let _ = stream.flush();
    200
}
