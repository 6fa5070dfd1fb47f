//! Offline, std-only stand-in for the slice of the `criterion` benchmark
//! API this workspace uses.
//!
//! Each benchmark routine is warmed up, then timed over adaptively sized
//! batches until a wall-clock budget is spent; the median batch mean is
//! reported, with the 25th and 75th percentiles as its spread. On exit,
//! `criterion_main!` writes every result to `BENCH_<target>.json` at the
//! workspace root (next to `ROADMAP.md`), so successive runs can be
//! diffed. Every row carries the host it ran on (CPU model, `nproc`,
//! `rustc -V`, git revision): rows from different hosts are not
//! comparable.
//!
//! Environment knobs:
//! * `BENCH_BUDGET_MS` — per-benchmark measurement budget (default 300).
//! * `BENCH_OUT_DIR` — where the JSON summary goes (default: workspace
//!   root, falling back to the current directory).

#![warn(missing_docs)]

use std::fmt;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Throughput annotation (recorded, not used in the statistics).
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier: function name plus an optional parameter.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `<name>/<parameter>`.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{name}/{parameter}"),
        }
    }

    /// Parameter-only id (grouped benches prepend the group name).
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            name: parameter.to_string(),
        }
    }
}

/// One measured result.
#[derive(Clone, Debug)]
pub struct BenchResult {
    /// Full benchmark path (`group/id` or plain name).
    pub name: String,
    /// Median time per iteration, nanoseconds.
    pub median_ns: f64,
    /// 25th percentile of the batch means, nanoseconds.
    pub p25_ns: f64,
    /// 75th percentile of the batch means, nanoseconds.
    pub p75_ns: f64,
    /// Total iterations measured.
    pub iterations: u64,
    /// Optional throughput annotation.
    pub throughput: Option<Throughput>,
}

/// Passed to benchmark closures; `iter` runs and times the routine.
pub struct Bencher<'a> {
    budget: Duration,
    result: &'a mut Option<Measured>,
}

/// What one routine measured: quartiles of the batch means and the
/// iterations run.
#[derive(Clone, Copy)]
struct Measured {
    p25: f64,
    median: f64,
    p75: f64,
    iterations: u64,
}

impl Bencher<'_> {
    /// Measure `routine`: warm up, then time batches until the budget is
    /// spent, recording the median batch mean.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up and batch sizing: aim for batches of roughly 1/50 of
        // the budget so the median is over ~dozens of samples.
        let t0 = Instant::now();
        std::hint::black_box(routine());
        let first = t0.elapsed().max(Duration::from_nanos(1));
        let target_batch = (self.budget / 50).max(Duration::from_micros(10));
        let batch_iters = ((target_batch.as_nanos() / first.as_nanos()).max(1)) as u64;

        let mut samples: Vec<f64> = Vec::new();
        let mut total_iters = 1u64;
        let started = Instant::now();
        while started.elapsed() < self.budget || samples.len() < 5 {
            let b0 = Instant::now();
            for _ in 0..batch_iters {
                std::hint::black_box(routine());
            }
            let per_iter = b0.elapsed().as_nanos() as f64 / batch_iters as f64;
            samples.push(per_iter);
            total_iters += batch_iters;
            if samples.len() >= 500 {
                break;
            }
        }
        samples.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
        let at = |q: usize| samples[(samples.len() - 1) * q / 4];
        *self.result = Some(Measured {
            p25: at(1),
            median: samples[samples.len() / 2],
            p75: at(3),
            iterations: total_iters,
        });
    }
}

/// The benchmark driver.
pub struct Criterion {
    budget: Duration,
    results: Vec<BenchResult>,
}

impl Default for Criterion {
    fn default() -> Self {
        Self::from_env()
    }
}

impl Criterion {
    /// Driver configured from the environment.
    pub fn from_env() -> Self {
        let ms = std::env::var("BENCH_BUDGET_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(300);
        Criterion {
            budget: Duration::from_millis(ms),
            results: Vec::new(),
        }
    }

    fn run_one(
        &mut self,
        name: String,
        throughput: Option<Throughput>,
        sample_budget: Duration,
        f: &mut dyn FnMut(&mut Bencher<'_>),
    ) {
        let mut slot = None;
        let mut bencher = Bencher {
            budget: sample_budget,
            result: &mut slot,
        };
        f(&mut bencher);
        let m = slot.unwrap_or(Measured {
            p25: f64::NAN,
            median: f64::NAN,
            p75: f64::NAN,
            iterations: 0,
        });
        eprintln!(
            "{name:<44} time: {:>12}  ({} iters)",
            fmt_ns(m.median),
            m.iterations
        );
        self.results.push(BenchResult {
            name,
            median_ns: m.median,
            p25_ns: m.p25,
            p75_ns: m.p75,
            iterations: m.iterations,
            throughput,
        });
    }

    /// Benchmark a routine under `name`.
    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(
        &mut self,
        name: impl fmt::Display,
        mut f: F,
    ) -> &mut Self {
        let budget = self.budget;
        self.run_one(name.to_string(), None, budget, &mut f);
        self
    }

    /// Open a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl fmt::Display) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            throughput: None,
            budget: self.budget,
            criterion: self,
        }
    }

    /// All results measured so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Write the JSON summary for a bench target. Called by
    /// [`criterion_main!`].
    pub fn finalize(&self, target: &str) {
        let path = out_dir().join(format!("BENCH_{target}.json"));
        let host = host();
        let mut json = String::from("[\n");
        for (i, r) in self.results.iter().enumerate() {
            let sep = if i + 1 == self.results.len() { "" } else { "," };
            let tp = match r.throughput {
                Some(Throughput::Elements(n)) => format!(",\"elements\":{n}"),
                Some(Throughput::Bytes(n)) => format!(",\"bytes\":{n}"),
                None => String::new(),
            };
            json.push_str(&format!(
                "  {{\"name\":{:?},\"median_ns\":{:.1},\"p25_ns\":{:.1},\"p75_ns\":{:.1},\
                 \"iterations\":{}{tp},{host}}}{sep}\n",
                r.name, r.median_ns, r.p25_ns, r.p75_ns, r.iterations
            ));
        }
        json.push_str("]\n");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("criterion: could not write {}: {e}", path.display());
        } else {
            eprintln!("criterion: results written to {}", path.display());
        }
    }
}

/// The host fields every row carries, as JSON members: CPU model,
/// `nproc`, `rustc -V` and the git revision, `"unknown"` where one cannot
/// be read.
fn host() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "\"cpu\":{cpu:?},\"nproc\":{nproc},\"rustc\":{:?},\"git_rev\":{:?}",
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "HEAD"]),
    )
}

/// The trimmed stdout of a command run at the workspace root, or
/// `"unknown"`.
fn command_line(program: &str, args: &[&str]) -> String {
    let dir = workspace_root();
    // Keep git from searching above the workspace: outside a checkout
    // of this repository it has no revision.
    let ceiling = dir.parent().map(PathBuf::from).unwrap_or_default();
    std::process::Command::new(program)
        .args(args)
        .current_dir(&dir)
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn out_dir() -> PathBuf {
    match std::env::var("BENCH_OUT_DIR") {
        Ok(dir) => PathBuf::from(dir),
        Err(_) => workspace_root(),
    }
}

fn workspace_root() -> PathBuf {
    // Walk up from the package to the workspace root (ROADMAP.md marker).
    let start = std::env::var("CARGO_MANIFEST_DIR").unwrap_or_else(|_| ".".into());
    let mut dir = PathBuf::from(start);
    loop {
        if dir.join("ROADMAP.md").exists() || dir.join(".git").exists() {
            return dir;
        }
        if !dir.pop() {
            return PathBuf::from(".");
        }
    }
}

fn fmt_ns(ns: f64) -> String {
    if !ns.is_finite() {
        "n/a".into()
    } else if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    name: String,
    throughput: Option<Throughput>,
    budget: Duration,
    criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Criterion-compatible sample-count hint; mapped onto the time
    /// budget (fewer samples → proportionally smaller budget).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        let base = self.criterion.budget;
        self.budget = base.mul_f64((n as f64 / 100.0).clamp(0.1, 1.0));
        self
    }

    /// Annotate subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmark a routine against a borrowed input.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher<'_>, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id.name);
        let (tp, budget) = (self.throughput, self.budget);
        self.criterion
            .run_one(name, tp, budget, &mut |b| f(b, input));
        self
    }

    /// Benchmark a routine under a grouped id.
    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(
        &mut self,
        id: BenchmarkId,
        mut f: F,
    ) -> &mut Self {
        let name = format!("{}/{}", self.name, id.name);
        let (tp, budget) = (self.throughput, self.budget);
        self.criterion.run_one(name, tp, budget, &mut |b| f(b));
        self
    }

    /// End the group (kept for API compatibility).
    pub fn finish(self) {}
}

/// Define a benchmark group function from target functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name(c: &mut $crate::Criterion) {
            $( $target(c); )+
        }
    };
}

/// Define `main` running the given groups and writing the JSON summary.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            let mut c = $crate::Criterion::from_env();
            $( $group(&mut c); )+
            let target = ::std::env::args()
                .next()
                .map(|p| {
                    let stem = ::std::path::Path::new(&p)
                        .file_stem()
                        .map(|s| s.to_string_lossy().into_owned())
                        .unwrap_or_else(|| "bench".to_string());
                    // Strip cargo's `-<hash>` suffix.
                    match stem.rsplit_once('-') {
                        Some((base, hash))
                            if hash.len() == 16
                                && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
                        {
                            base.to_string()
                        }
                        _ => stem,
                    }
                })
                .unwrap_or_else(|| "bench".to_string());
            c.finalize(&target);
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_something() {
        let mut c = Criterion {
            budget: Duration::from_millis(20),
            results: Vec::new(),
        };
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        assert_eq!(c.results().len(), 1);
        assert!(c.results()[0].median_ns >= 0.0);
    }

    #[test]
    fn group_paths_compose() {
        let mut c = Criterion {
            budget: Duration::from_millis(10),
            results: Vec::new(),
        };
        let mut g = c.benchmark_group("grp");
        g.sample_size(20);
        g.throughput(Throughput::Elements(10));
        g.bench_with_input(BenchmarkId::new("case", 4), &4usize, |b, &n| {
            b.iter(|| n * 2)
        });
        g.finish();
        assert_eq!(c.results()[0].name, "grp/case/4");
        assert!(matches!(
            c.results()[0].throughput,
            Some(Throughput::Elements(10))
        ));
    }

    #[test]
    fn rows_carry_spread_and_host() {
        let mut c = Criterion {
            budget: Duration::from_millis(10),
            results: Vec::new(),
        };
        c.bench_function("noop", |b| b.iter(|| 1 + 1));
        let r = &c.results()[0];
        assert!(r.p25_ns <= r.median_ns && r.median_ns <= r.p75_ns);
        let host = host();
        for key in ["\"cpu\":", "\"nproc\":", "\"rustc\":", "\"git_rev\":"] {
            assert!(host.contains(key), "{host}");
        }
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(12.0), "12.0 ns");
        assert_eq!(fmt_ns(1_500.0), "1.50 µs");
        assert_eq!(fmt_ns(2_000_000.0), "2.00 ms");
    }
}
