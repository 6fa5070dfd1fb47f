//! Streaming trace sink — the live-observation seam of the engine.
//!
//! The paper's instrumentation buffers timestamps in memory and flushes
//! at the end of the run; [`rtft_trace::TraceLog`] keeps that
//! architecture, and it stays the source of truth. A [`TraceSink`] is
//! an *additional* observer fed a copy of every event as soon as the
//! engine records it, so a live consumer (the `rtft serve` streaming
//! route, a progress display, a tee to disk) can watch a run without
//! waiting for it to finish — and without perturbing it: the engine
//! drains the freshly appended suffix of the log to the sink after each
//! wake is processed, so the recorded trace is byte-for-byte identical
//! with and without a sink attached.
//!
//! Core attribution matches the engine's own
//! ([`crate::engine::Simulator::core_of`]): a one-core run reports
//! `core: None` for every event; an `m`-core run reports the executing
//! core for execution events and `None` for platform-level ones
//! (releases, deadline checks, supervisor markers, `SimEnd`). A
//! partitioned driver wraps the shared sink in a [`CoreTag`] per
//! one-core engine so every event arrives tagged with its core.

use rtft_core::time::Instant;
use rtft_trace::EventKind;

/// A per-event observer of a running simulation.
pub trait TraceSink {
    /// Called once per recorded event, in trace order. `core` is the
    /// executing core when the engine attributes one (`None` on one
    /// core and for platform-level events on `m` cores).
    fn record(&mut self, core: Option<usize>, at: Instant, kind: EventKind);
}

/// Any `FnMut(core, at, kind)` closure is a sink.
impl<F: FnMut(Option<usize>, Instant, EventKind)> TraceSink for F {
    fn record(&mut self, core: Option<usize>, at: Instant, kind: EventKind) {
        self(core, at, kind)
    }
}

/// Adapter tagging every event with a fixed core before forwarding —
/// how a partitioned multicore driver shares one sink across its
/// independent one-core engines (which themselves report `None`).
pub struct CoreTag<'a> {
    core: usize,
    inner: &'a mut dyn TraceSink,
}

impl<'a> CoreTag<'a> {
    /// Wrap `inner`, attributing untagged events to `core`.
    pub fn new(core: usize, inner: &'a mut dyn TraceSink) -> Self {
        CoreTag { core, inner }
    }
}

impl TraceSink for CoreTag<'_> {
    fn record(&mut self, core: Option<usize>, at: Instant, kind: EventKind) {
        self.inner.record(Some(core.unwrap_or(self.core)), at, kind);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_tag_fills_in_missing_cores_only() {
        let mut seen: Vec<Option<usize>> = Vec::new();
        let mut collect = |core: Option<usize>, _at: Instant, _kind: EventKind| {
            seen.push(core);
        };
        let mut tagged = CoreTag::new(3, &mut collect);
        tagged.record(None, Instant::EPOCH, EventKind::CpuIdle);
        tagged.record(Some(1), Instant::EPOCH, EventKind::CpuIdle);
        assert_eq!(seen, vec![Some(3), Some(1)]);
    }
}
