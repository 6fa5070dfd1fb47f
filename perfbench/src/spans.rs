//! In-memory spans for the traced run.
//!
//! Spans are opened and closed around calls into the program's public
//! functions, from the benchmark's own code only; nothing inside the
//! program is instrumented. Each span has a name, start, end, the span
//! that caused it, and the id of the operation it belongs to, plus an
//! optional work count (events stepped, jobs run) for per-unit rates.
//! They stay in memory and are written out once, when the run ends.

use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub work: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, op: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op,
            work: 0,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Close a span and record the work it did.
    pub fn close_with(&mut self, id: usize, work: u64) {
        self.close(id);
        self.spans[id].work = work;
    }

    /// Time `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, op, parent);
        let out = f();
        self.close(id);
        out
    }

    /// A span measured elsewhere (another thread, or before and after a
    /// blocking call), added with its own timestamps.
    pub fn record(&mut self, name: &'static str, op: u64, from: Instant, to: Instant) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let (start_ns, end_ns) = (at(from), at(to));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: None,
            op,
            work: 0,
        });
        self.spans.len() - 1
    }

    /// Self time of every span named `name`, in ns: its duration minus
    /// the durations of its children.
    pub fn self_ns(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.ns();
            }
        }
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| s.ns().saturating_sub(child_ns[i]) as f64)
            .collect()
    }

    /// Summed self time (ns) and summed work of every span named `name`.
    pub fn totals(&self, name: &str) -> (f64, u64) {
        let ns = self.self_ns(name).iter().sum();
        let work = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.work)
            .sum();
        (ns, work)
    }

    /// Tab-separated dump: id, parent, op, name, start, end, work.
    pub fn render_tsv(&self) -> String {
        let mut out = String::from("id\tparent\top\tname\tstart_ns\tend_ns\twork\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.op, s.name, s.start_ns, s.end_ns, s.work
            );
        }
        out
    }
}
