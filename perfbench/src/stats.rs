//! Sample summaries and the run's result record.

use std::collections::BTreeMap;

/// Quantile `q` of `samples` by linear interpolation between closest
/// ranks (the `statistics.quantiles(..., method="inclusive")` rule).
/// `None` when there are no samples.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

pub fn median(samples: &[f64]) -> Option<f64> {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Median and quartiles of one metric's samples, with the count and the
/// number of samples above p99 (the tail a p99 rests on).
pub struct Spread {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub beyond_p99: usize,
}

impl Spread {
    pub fn of(samples: &[f64]) -> Option<Spread> {
        let p99 = quantile(samples, 0.99)?;
        Some(Spread {
            n: samples.len(),
            p25: quantile(samples, 0.25)?,
            p50: quantile(samples, 0.5)?,
            p75: quantile(samples, 0.75)?,
            beyond_p99: samples.iter().filter(|&&s| s > p99).count(),
        })
    }
}

/// Everything one workload run reports.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (wrong or missing answers).
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the log.
    pub failures: Vec<String>,
    /// Reported metrics: name -> (value, unit).
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Deterministic work counts: identical for one seed on every run.
    pub work: BTreeMap<String, u64>,
    /// Raw latency samples per end-to-end metric, summarized into
    /// median and quartiles in the run's detail line.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Measured facts that are neither metrics nor deterministic, shown
    /// in the run's detail line.
    pub info: BTreeMap<String, f64>,
    /// Why the run's times cannot be trusted, when they cannot. Shown in
    /// the detail line; it does not make the answers wrong.
    pub invalid: Option<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.insert(name.to_string(), (value, unit));
    }

    pub fn count(&mut self, name: impl Into<String>, n: u64) {
        *self.work.entry(name.into()).or_insert(0) += n;
    }

    /// Record one operation's verdict: `Err` carries why it was wrong.
    pub fn check(&mut self, verdict: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// Store `samples` (ms) under `name` and report their median.
    pub fn latency_p50(&mut self, name: &str, samples: Vec<f64>) {
        self.metric(name, median(&samples).unwrap_or(f64::NAN), "ms");
        self.samples.insert(name.to_string(), samples);
    }

    /// `p50_ms` and `p99_ms` of the workload's main operation.
    pub fn op_latency(&mut self, samples: Vec<f64>) {
        self.metric("p99_ms", quantile(&samples, 0.99).unwrap_or(f64::NAN), "ms");
        self.latency_p50("p50_ms", samples);
    }
}

/// Completions per second as the median over the run's whole
/// one-second windows; `done` holds completion times in seconds from the
/// start. A slow phase of a shared host moves a median of windows less
/// than it moves the mean over the run.
pub fn windowed_rate(done: &[f64], seconds: f64) -> f64 {
    let windows = (seconds.floor() as usize).max(1);
    let width = seconds / windows as f64;
    let mut counts = vec![0.0; windows];
    for &t in done {
        if let Some(c) = counts.get_mut((t / width) as usize) {
            *c += 1.0;
        }
    }
    median(&counts).expect("at least one window") / width
}

/// Quantile `q` of timed samples, `(seconds from the start, value)`, as
/// the median over `windows` equal windows of the samples' time span of
/// each window's quantile. A stall of a shared host lasts well under a
/// window, so it moves the quantile of the window it falls in, not the
/// median.
pub fn windowed_quantile(samples: &[(f64, f64)], windows: usize, q: f64) -> f64 {
    let span = samples.iter().map(|s| s.0).fold(0.0, f64::max);
    let width = span / windows as f64;
    let mut per = vec![Vec::new(); windows];
    for &(t, v) in samples {
        let i = if width > 0.0 { (t / width) as usize } else { 0 };
        per[i.min(windows - 1)].push(v);
    }
    let quantiles: Vec<f64> = per.iter().filter_map(|w| quantile(w, q)).collect();
    median(&quantiles).unwrap_or(f64::NAN)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Milliseconds between two instants.
pub fn ms(from: std::time::Instant, to: std::time::Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}
