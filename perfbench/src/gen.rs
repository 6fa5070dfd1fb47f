//! Seeded input generation. Everything the program receives is built
//! here from the workload seed, with the benchmark's own generator, so
//! a change to the program's task generators never changes the inputs.

use std::fmt::Write as _;

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    /// An independent stream for one purpose of one seed.
    pub fn stream(seed: u64, purpose: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ purpose);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    /// Exponential inter-arrival gap for a Poisson process of `rate`
    /// events per second, in seconds.
    pub fn exp_gap(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }
}

/// Scheduling policy keyword of a generated system.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Policy {
    Fp,
    Npfp,
    Edf,
}

impl Policy {
    pub fn keyword(self) -> &'static str {
        match self {
            Policy::Fp => "fp",
            Policy::Npfp => "npfp",
            Policy::Edf => "edf",
        }
    }
}

/// Where a generated system runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Placement {
    Uni,
    Partitioned(usize),
    Global(usize),
}

impl Placement {
    pub fn label(self) -> &'static str {
        match self {
            Placement::Uni => "uni",
            Placement::Partitioned(_) => "partitioned",
            Placement::Global(_) => "global",
        }
    }

    pub fn cores(self) -> usize {
        match self {
            Placement::Uni => 1,
            Placement::Partitioned(m) | Placement::Global(m) => m,
        }
    }
}

/// One generated task: name, priority (higher runs first), period,
/// deadline and cost, in microseconds.
#[derive(Clone, Debug)]
pub struct Task {
    pub name: String,
    pub priority: u32,
    pub period_us: u64,
    pub deadline_us: u64,
    pub cost_us: u64,
}

/// Round periods with a small hyperperiod, for simulated and replayed
/// sets: task `i` of a set takes period `i mod 8`, so every seed
/// releases the same number of jobs, and only utilizations and deadlines
/// vary.
const ROUND_PERIODS_MS: [u64; 8] = [10, 20, 25, 40, 50, 100, 200, 250];

/// `n` periods with no common structure, for the analysis-bound EDF
/// sets: log-uniform over 10 ms to 1 s on a 1 us grid, so the demand
/// bound and QPA walks cover long busy periods with many deadlines.
pub fn wide_periods_us(rng: &mut Rng, n: usize) -> Vec<u64> {
    (0..n)
        .map(|_| (10_000.0 * 100f64.powf(rng.unit())).round() as u64)
        .collect()
}

/// UUniFast utilizations (Bini & Buttazzo), each capped at `cap`.
fn uunifast(rng: &mut Rng, n: usize, total: f64, cap: f64) -> Vec<f64> {
    loop {
        let mut out = Vec::with_capacity(n);
        let mut sum = total;
        for i in 1..n {
            let next = sum * rng.unit().powf(1.0 / (n - i) as f64);
            out.push(sum - next);
            sum = next;
        }
        out.push(sum);
        if out.iter().all(|&u| u <= cap) {
            return out;
        }
    }
}

/// A rate-monotonic task set of `n` tasks at total utilization `total`,
/// with implicit deadlines or, when `constrained`, deadlines drawn
/// between cost and period. Under npfp each task's cost is then clipped,
/// in priority order, so that no higher-priority task's cost plus its
/// own exceeds that task's deadline: every generated spec is one the
/// analysis answers, and the set costs one draw (redrawing until a set
/// passes took a seed-dependent number of draws, which showed in
/// `setup_s`). Clipping lowers the utilization of npfp sets below
/// `total`.
pub fn task_set(
    rng: &mut Rng,
    n: usize,
    total: f64,
    cap: f64,
    policy: Policy,
    constrained: bool,
) -> Vec<Task> {
    let periods: Vec<u64> = (0..n)
        .map(|i| ROUND_PERIODS_MS[i % ROUND_PERIODS_MS.len()] * 1000)
        .collect();
    task_set_over(rng, &periods, total, cap, policy, constrained)
}

/// [`task_set`] over the given periods (us), one task each.
pub fn task_set_over(
    rng: &mut Rng,
    periods_us: &[u64],
    total: f64,
    cap: f64,
    policy: Policy,
    constrained: bool,
) -> Vec<Task> {
    let n = periods_us.len();
    let utils = uunifast(rng, n, total, cap);
    let mut tasks: Vec<Task> = utils
        .iter()
        .zip(periods_us)
        .map(|(&u, &period_us)| {
            let cost_us = ((u * period_us as f64) as u64).max(1);
            let deadline_us = if constrained {
                cost_us + ((period_us - cost_us) as f64 * (0.5 + 0.5 * rng.unit())) as u64
            } else {
                period_us
            };
            Task {
                name: String::new(),
                priority: 0,
                period_us,
                deadline_us,
                cost_us,
            }
        })
        .collect();
    tasks.sort_by_key(|t| (t.deadline_us, t.period_us));
    let mut blocking_room = u64::MAX;
    for (rank, t) in tasks.iter_mut().enumerate() {
        t.name = format!("t{}", rank + 1);
        t.priority = (n - rank) as u32;
        if policy == Policy::Npfp {
            t.cost_us = t.cost_us.min(blocking_room).max(1);
            blocking_room = blocking_room.min(t.deadline_us - t.cost_us);
        }
    }
    tasks
}

/// The system header of a query batch.
pub fn system_lines(name: &str, tasks: &[Task], policy: Policy, placement: Placement) -> String {
    let mut out = format!("system {name}\n");
    for t in tasks {
        let _ = writeln!(
            out,
            "task {} {} {}us {}us {}us",
            t.name, t.priority, t.period_us, t.deadline_us, t.cost_us
        );
    }
    let _ = writeln!(out, "policy {}", policy.keyword());
    let _ = writeln!(out, "cores {}", placement.cores());
    if let Placement::Global(_) = placement {
        out.push_str("placement global\n");
    }
    out
}

/// The full allowance batch: every query kind, with an `overrun` query
/// for up to eight tasks.
pub fn allowance_queries(tasks: &[Task]) -> String {
    let mut out = String::from(
        "query feasibility\nquery wcrt\nquery thresholds\nquery equitable\n\
         query system-allowance\n",
    );
    for t in tasks.iter().take(8) {
        let _ = writeln!(out, "query overrun {}", t.name);
    }
    out.push_str("query sensitivity\n");
    out
}

/// A one-job campaign spec over an inline set: what `POST /trace`,
/// `rtft replay --spec` and the capture generator take.
pub struct OneJob<'a> {
    pub name: String,
    pub tasks: &'a [Task],
    pub policy: Policy,
    pub placement: Placement,
    pub horizon_ms: u64,
    /// Overrun `(task index, job, microseconds)`, if any.
    pub fault: Option<(usize, u64, u64)>,
    pub treatment: &'static str,
    pub platform: &'static str,
}

impl OneJob<'_> {
    pub fn spec(&self) -> String {
        let mut out = format!(
            "campaign {}\nhorizon {}ms\noracle off\n",
            self.name, self.horizon_ms
        );
        for t in self.tasks {
            let _ = writeln!(
                out,
                "task {} {} {}us {}us {}us",
                t.name, t.priority, t.period_us, t.deadline_us, t.cost_us
            );
        }
        match self.fault {
            Some((task, job, overrun_us)) => {
                let name = &self.tasks[task].name;
                let _ = writeln!(out, "fault {name} job {job} overrun {overrun_us}us");
            }
            None => out.push_str("faults none\n"),
        }
        let _ = writeln!(out, "policy {}", self.policy.keyword());
        let _ = writeln!(out, "cores {}", self.placement.cores());
        match self.placement {
            Placement::Global(_) => out.push_str("placement global\n"),
            _ => out.push_str("placement partitioned\n"),
        }
        let _ = writeln!(
            out,
            "treatment {}\nplatform {}",
            self.treatment, self.platform
        );
        out
    }
}

/// Draw one-job specs with `draw` until one's base system is feasible,
/// so the job runs; return it with its job and capture.
pub fn runnable(
    rng: &mut Rng,
    mut draw: impl FnMut(&mut Rng) -> String,
) -> (String, rtft_campaign::JobSpec, rtft_trace::TraceCapture) {
    loop {
        let spec = draw(rng);
        let job = rtft_replay::job_from_campaign(&spec).expect("generated one-job spec");
        if let Ok(capture) = rtft_campaign::capture_job(&job) {
            return (spec, job, capture);
        }
    }
}
