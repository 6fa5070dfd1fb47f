//! The in-process `rtft serve` daemon and the load it is driven with:
//! an open-loop generator (seeded Poisson arrivals, timed from each
//! request's due time), the expected `POST /trace` streams, and a short
//! probe of `GET /stats` and `POST /trace` that runs after the timed
//! loop of the workloads whose operations do not use those routes.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use rtft_serve::{Client, Reply, ServeConfig, Server, ServerHandle};

use crate::gen::{self, Placement, Policy, Rng};
use crate::stats::{ms, Outcome};

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A daemon on an ephemeral loopback port with `threads = nproc`.
pub fn spawn(sessions: usize) -> ServerHandle {
    Server::spawn(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        sessions,
        threads: nproc(),
        request_timeout: Duration::from_secs(30),
        max_body: 1024 * 1024,
    })
    .expect("bind a loopback port for the daemon")
}

pub fn client(addr: SocketAddr) -> Client {
    Client::new(addr).with_timeout(Duration::from_secs(30))
}

/// The session-cache counters out of a `GET /stats?json` body.
pub fn cache_counters(body: &str) -> Option<(u64, u64, u64)> {
    let field = |name: &str| -> Option<u64> {
        let key = format!("\"{name}\": ");
        let rest = &body[body.find(&key)? + key.len()..];
        rest[..rest.find(|c: char| !c.is_ascii_digit())?]
            .parse()
            .ok()
    };
    Some((field("hits")?, field("misses")?, field("evictions")?))
}

/// A one-job spec for `POST /trace` and what its stream must carry:
/// the capture's content hash as the trailer and its event count.
pub struct TraceCase {
    pub spec: String,
    pub content_hash: u64,
    pub events: usize,
}

impl TraceCase {
    pub fn new(spec: String, capture: &rtft_trace::TraceCapture) -> TraceCase {
        let header = capture.header.as_ref().expect("captures carry a header");
        TraceCase {
            content_hash: header.content_hash,
            events: capture.len(),
            spec,
        }
    }

    /// Check a stream; `Ok` carries its event count.
    pub fn check(&self, reply: &Reply) -> Result<usize, String> {
        if reply.status != 200 {
            return Err(format!("/trace answered {}", reply.status));
        }
        let trailer = format!("# content-hash {:016x}", self.content_hash);
        if reply.body.lines().last() != Some(trailer.as_str()) {
            return Err(format!("/trace trailer is not `{trailer}`"));
        }
        let events = reply.body.lines().filter(|l| !l.starts_with('#')).count();
        if events != self.events {
            return Err(format!(
                "/trace streamed {events} events, capture has {}",
                self.events
            ));
        }
        Ok(events)
    }
}

/// Short one-job runs for `POST /trace`, across policies and placements.
pub fn trace_cases(rng: &mut Rng, seed: u64, count: usize) -> Vec<TraceCase> {
    (0..count)
        .map(|i| {
            let (policy, placement) = [
                (Policy::Fp, Placement::Uni),
                (Policy::Edf, Placement::Uni),
                (Policy::Fp, Placement::Partitioned(2)),
                (Policy::Fp, Placement::Global(2)),
            ][i % 4];
            let (spec, _, capture) = gen::runnable(rng, |rng| {
                let tasks =
                    gen::task_set(rng, 4, 0.5 * placement.cores() as f64, 0.4, policy, false);
                gen::OneJob {
                    name: format!("live-{seed}-{i}"),
                    tasks: &tasks,
                    policy,
                    placement,
                    horizon_ms: 200,
                    fault: Some((0, 2, tasks[0].cost_us / 2)),
                    treatment: "detect",
                    platform: "exact",
                }
                .spec()
            });
            TraceCase::new(spec, &capture)
        })
        .collect()
}

/// One planned request: due `at` seconds after the loop starts.
pub struct Planned<Op> {
    pub at: f64,
    pub op: Op,
}

/// Seeded Poisson arrivals at `rate` per second over `seconds`.
pub fn poisson<Op>(
    rng: &mut Rng,
    rate: f64,
    seconds: f64,
    mut pick: impl FnMut(&mut Rng) -> Op,
) -> Vec<Planned<Op>> {
    let mut out = Vec::new();
    let mut at = rng.exp_gap(rate);
    while at < seconds {
        out.push(Planned { at, op: pick(rng) });
        at += rng.exp_gap(rate);
    }
    out
}

/// One finished request of an open loop.
pub struct Sent {
    /// Position in the plan.
    pub index: usize,
    /// When it was due, after any shift of the schedule (see
    /// [`open_loop`]).
    pub due: Instant,
    pub sent: Instant,
    pub done: Instant,
    /// How late the generator sent it although a client thread was
    /// free at the due time (ms); `None` when every thread was still busy
    /// with earlier requests, which is the daemon's delay, not the
    /// generator's.
    pub gen_lag: Option<f64>,
    pub reply: std::io::Result<Reply>,
}

impl Sent {
    /// Latency from the due time, in ms.
    pub fn latency(&self) -> f64 {
        ms(self.due, self.done)
    }

    pub fn round_trip(&self) -> f64 {
        ms(self.sent, self.done)
    }
}

/// Send `plan` on schedule from `threads` client threads, each request
/// on its own connection, regardless of how fast answers come back.
///
/// When an idle thread wakes more than [`LATE_MS`] after a request's due
/// time, the host stalled the generator: the rest of the schedule, and
/// that request's due time, shift by the lateness. Without the shift one
/// stall of the whole machine turns into a backlog of overdue requests
/// whose waits are charged to the daemon; on a shared host a few such
/// stalls a run moved `p99_ms` by a third between runs. Requests that
/// wait for a busy thread are still timed from their due time.
pub fn open_loop<Op: Sync>(
    plan: &[Planned<Op>],
    threads: usize,
    exec: impl Fn(&Op) -> std::io::Result<Reply> + Sync,
) -> (Instant, Vec<Sent>) {
    let start = Instant::now() + Duration::from_millis(5);
    let cursor = AtomicUsize::new(0);
    let shift_ns = AtomicU64::new(0);
    let mut sent: Vec<Sent> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let index = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(p) = plan.get(index) else { break };
                        let due_now = || {
                            start
                                + Duration::from_secs_f64(p.at)
                                + Duration::from_nanos(shift_ns.load(Ordering::Relaxed))
                        };
                        let mut due = due_now();
                        let idle = Instant::now() < due;
                        let mut gen_lag = None;
                        if idle {
                            // Another thread may shift the schedule
                            // while this one sleeps.
                            while let Some(left) = due.checked_duration_since(Instant::now()) {
                                std::thread::sleep(left);
                                due = due_now();
                            }
                            let lag = Instant::now().saturating_duration_since(due);
                            gen_lag = Some(lag.as_secs_f64() * 1e3);
                            if lag.as_secs_f64() * 1e3 > LATE_MS {
                                shift_ns.fetch_add(lag.as_nanos() as u64, Ordering::Relaxed);
                                due += lag;
                            }
                        }
                        let sent = Instant::now();
                        let reply = exec(&p.op);
                        let done = Instant::now();
                        mine.push(Sent {
                            index,
                            due,
                            sent,
                            done,
                            gen_lag,
                            reply,
                        });
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    sent.sort_by_key(|s| s.index);
    (start, sent)
}

/// Late sends: the generator woke more than this after the due time.
const LATE_MS: f64 = 2.0;

/// Summarize how late the generator ran, and mark the run's times
/// invalid when the generator rather than the daemon set the latency:
/// more than 5 % of the requests sent over 2 ms late from an idle
/// thread. On a quiet host about 0.3 % are; a busy shared host has been
/// seen above 5 %.
pub fn generator_lag(sent: &[Sent], out: &mut Outcome) -> (f64, u64) {
    let lags: Vec<f64> = sent.iter().filter_map(|s| s.gen_lag).collect();
    let late = lags.iter().filter(|&&l| l > LATE_MS).count() as u64;
    let p99 = crate::stats::quantile(&lags, 0.99).unwrap_or(0.0);
    if late * 20 > sent.len() as u64 {
        out.invalid = Some(format!(
            "the load generator sent {late} of {} requests over {LATE_MS} ms late",
            sent.len()
        ));
    }
    (p99, late)
}

/// How long the daemon probe runs, seconds.
const PROBE_SECONDS: f64 = 4.0;

/// Time the daemon's `/stats` and `/trace` routes on their own, after a
/// workload whose operations do not use them. One client sends, in a
/// closed loop to the otherwise idle daemon, `GET /stats` and a
/// `POST /trace` of each of `cases` in turn for [`PROBE_SECONDS`], so no
/// request queues behind another. A pause of up to one accept-poll
/// interval (5 ms) before each request keeps the loop from locking onto
/// the daemon's poll, which would time the poll alone; the pauses step
/// through the interval by the golden ratio from a seeded start, so the
/// requests meet every phase of the poll evenly and the medians do not
/// hang on which phases a few hundred random draws happen to hit.
/// Checks every answer and reports `stats_p50_ms` and `trace_p50_ms`,
/// each timed from the request's send.
pub fn probe(client: &Client, seed: u64, cases: &[TraceCase], out: &mut Outcome) {
    let phase = Rng::stream(seed, 0x6d6f6e).unit();
    let (mut stats, mut trace) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut k = 0;
    while start.elapsed().as_secs_f64() < PROBE_SECONDS {
        let pause = (phase + k as f64 * 0.618_033_988_749_895).fract();
        std::thread::sleep(Duration::from_secs_f64(0.005 * pause));
        let case = (k % 2 == 1).then_some(k / 2 % cases.len());
        k += 1;
        let sent = Instant::now();
        let reply = match case {
            None => client.stats(true),
            Some(i) => client.post_trace(&cases[i].spec),
        };
        let latency = ms(sent, Instant::now());
        let verdict = match (case, &reply) {
            (_, Err(e)) => Err(format!("probe request failed: {e}")),
            (None, Ok(r)) if r.status == 200 && cache_counters(&r.body).is_some() => Ok(()),
            (None, Ok(r)) => Err(format!("/stats answered {}", r.status)),
            (Some(i), Ok(r)) => cases[i].check(r).map(|_| ()),
        };
        let latency = if verdict.is_ok() {
            latency
        } else {
            f64::INFINITY
        };
        match case {
            None => stats.push(latency),
            Some(_) => trace.push(latency),
        }
        out.check(verdict);
    }
    out.latency_p50("stats_p50_ms", stats);
    out.latency_p50("trace_p50_ms", trace);
}
