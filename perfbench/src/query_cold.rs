//! `query_cold`: one client in a closed loop, every `POST /query` a spec
//! the daemon has never seen, carrying the full allowance batch. The
//! session cache misses and evicts on every request, so analysis fixed
//! points, allowance searches, allocator probes and the cold-batch
//! fan-out set the latency.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use rtft_core::diag;
use rtft_core::query::{
    parse_batch, render_responses_json, render_responses_text, Query, Response, SystemSpec,
};
use rtft_part::workbench::Workbench;
use rtft_serve::{fan, Client, Reply, ServerHandle, SessionCache};

use crate::daemon::{self, TraceCase};
use crate::gen::{self, Placement, Policy, Rng};
use crate::spans::Tracer;
use crate::stats::{mean, ms, Outcome};

/// Session cache capacity; filled at set-up so every request evicts.
const SESSIONS: usize = 8;

/// The seeded template cycle: (placement, policy, smallest n, largest n,
/// utilization per core, constrained deadlines, templates). Sizes are
/// spread evenly over each range, so every seed has the same shape of
/// work and only the task parameters vary. EDF sets stay at n <= 10.
#[rustfmt::skip]
const CELLS: &[(Placement, Policy, u64, u64, f64, bool, usize)] = &[
    (Placement::Uni, Policy::Fp, 10, 50, 0.7, false, 16),
    (Placement::Uni, Policy::Npfp, 10, 50, 0.6, false, 12),
    (Placement::Uni, Policy::Edf, 4, 10, 0.7, true, 12),
    (Placement::Partitioned(2), Policy::Fp, 10, 50, 0.6, false, 8),
    (Placement::Partitioned(4), Policy::Fp, 20, 50, 0.6, false, 8),
    (Placement::Partitioned(2), Policy::Npfp, 10, 50, 0.5, false, 8),
    (Placement::Partitioned(2), Policy::Edf, 6, 10, 0.6, true, 8),
    (Placement::Global(2), Policy::Fp, 8, 16, 0.35, false, 8),
    (Placement::Global(4), Policy::Fp, 8, 16, 0.35, false, 8),
    (Placement::Global(2), Policy::Edf, 4, 10, 0.35, false, 8),
];

/// The analysis-bound EDF sets: (placement, n), implicit deadlines,
/// periods with no common structure, utilization 0.7 per core. Their
/// allowance searches probe utilization 1, where the demand-bound busy
/// period runs into the iteration guard, so a request costs about a
/// hundred milliseconds, most of it the system-allowance query. That
/// cost jumps by whole guard runs with small changes to the task
/// parameters (the same shapes drawn per seed ranged from 0 to 800 ms),
/// so these sets are one fixed pool, the same for every seed: a seeded
/// draw would make `p99_ms` a lottery over the slowest draw. The seed
/// still names them and places them in the cycle.
const EDF_POOL: &[(Placement, usize)] = &[
    (Placement::Uni, 3),
    (Placement::Uni, 4),
    (Placement::Uni, 6),
    (Placement::Partitioned(2), 6),
];
/// The pool's stream: one whose sets all stay near 100 ms.
const EDF_POOL_STREAM: u64 = 15;
/// Copies of each pool set per cycle: enough that the slowest holds
/// about 2 % of the requests, so `p99_ms` lies inside its samples.
const EDF_POOL_COPIES: usize = 2;

/// One template: the batch body after its `system` line, plus the
/// in-process answers every renamed copy of it must reproduce.
#[derive(Clone)]
struct Template {
    placement: Placement,
    spec: SystemSpec,
    queries: Vec<Query>,
    body: String,
    responses: Vec<Response>,
}

impl Template {
    fn new(tasks: &[gen::Task], policy: Policy, placement: Placement) -> Template {
        let text = gen::system_lines("template", tasks, policy, placement)
            + &gen::allowance_queries(tasks);
        let (spec, queries) = parse_batch(&text).expect("generated batch parses");
        assert!(
            !diag::has_errors(&diag::lint_system(&spec)),
            "generated cold spec passes lint"
        );
        let responses = Workbench::new(spec.clone())
            .run_batch(&queries)
            .expect("generated batch analyzes");
        let body = text.split_once('\n').expect("system line").1.to_string();
        Template {
            placement,
            spec,
            queries,
            body,
            responses,
        }
    }
}

struct Setup {
    handle: ServerHandle,
    templates: Vec<Template>,
    traces: Vec<TraceCase>,
}

fn templates(seed: u64) -> Vec<Template> {
    let mut rng = Rng::stream(seed, 11);
    let mut out = Vec::new();
    for &(placement, policy, lo, hi, u, constrained, count) in CELLS {
        for k in 0..count {
            let n = lo + (hi - lo) * k as u64 / (count as u64 - 1).max(1);
            let total = u * placement.cores() as f64;
            let tasks = gen::task_set(&mut rng, n as usize, total, 0.5, policy, constrained);
            out.push(Template::new(&tasks, policy, placement));
        }
    }
    let mut pool = Rng::stream(0, EDF_POOL_STREAM);
    for &(placement, n) in EDF_POOL {
        let periods = gen::wide_periods_us(&mut pool, n);
        let total = 0.7 * placement.cores() as f64;
        let tasks = gen::task_set_over(&mut pool, &periods, total, 0.5, Policy::Edf, false);
        let t = Template::new(&tasks, Policy::Edf, placement);
        out.extend(std::iter::repeat_n(t, EDF_POOL_COPIES));
    }
    // Interleave the cells, so every stretch of the loop sees the mix.
    let mut order: Vec<usize> = (0..out.len()).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.next_u64() as usize % (i + 1));
    }
    let mut slots: Vec<Option<Template>> = out.into_iter().map(Some).collect();
    order
        .into_iter()
        .map(|i| slots[i].take().expect("each once"))
        .collect()
}

fn setup(seed: u64) -> Setup {
    let templates = templates(seed);
    let mut rng = Rng::stream(seed, 12);
    let traces = daemon::trace_cases(&mut rng, seed, 4);
    let handle = daemon::spawn(SESSIONS);
    let client = daemon::client(handle.addr());
    // Fill the cache with cheap sessions, so the first request evicts.
    for i in 0..SESSIONS {
        let tasks = gen::task_set(&mut rng, 3, 0.3, 0.3, Policy::Fp, false);
        let text = gen::system_lines(&format!("filler-{i}"), &tasks, Policy::Fp, Placement::Uni)
            + "query feasibility\n";
        let _ = client.post_query(&text, false);
    }
    Setup {
        handle,
        templates,
        traces,
    }
}

/// The never-seen spec of request `i`: its template, renamed.
fn request(s: &Setup, seed: u64, i: usize) -> (String, &Template) {
    let t = &s.templates[i % s.templates.len()];
    (format!("system cold-{seed}-{i}\n{}", t.body), t)
}

fn check(t: &Template, name: &str, json: bool, reply: &Reply) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!("`{name}` answered {}", reply.status));
    }
    let mut spec = t.spec.clone();
    spec.name = name.to_string();
    let expected = if json {
        render_responses_json(&spec, &t.responses)
    } else {
        render_responses_text(&spec, &t.queries, &t.responses)
    };
    if reply.body != expected {
        return Err(format!("`{name}` body differs from the in-process answer"));
    }
    Ok(())
}

/// One closed-loop request and its timing.
struct Done {
    index: usize,
    sent: Instant,
    done: Instant,
    reply: std::io::Result<Reply>,
}

/// The closed loop, for `seconds`: requests in cycle order from the
/// first template, each checked after the clock stops.
fn closed_loop(
    s: &Setup,
    client: &Client,
    seed: u64,
    seconds: f64,
    out: &mut Outcome,
) -> Vec<Done> {
    let start = Instant::now();
    let mut done = Vec::new();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let (text, _) = request(s, seed, i);
        let sent = Instant::now();
        let reply = client.post_query(&text, i % 2 == 1);
        done.push(Done {
            index: i,
            sent,
            done: Instant::now(),
            reply,
        });
        if i + 1 == s.templates.len() {
            // One full pass: its cache counts repeat exactly.
            if let Some((hits, misses, evictions)) = client
                .stats(true)
                .ok()
                .and_then(|r| daemon::cache_counters(&r.body))
            {
                out.count("first_pass.cache.hits", hits);
                out.count("first_pass.cache.misses", misses);
                out.count("first_pass.cache.evictions", evictions);
            }
        }
        i += 1;
    }
    let mut latency = Vec::new();
    for d in &done {
        let (text, t) = request(s, seed, d.index);
        let name = text[7..text.find('\n').expect("system line")].to_string();
        let verdict = match &d.reply {
            Ok(r) => check(t, &name, d.index % 2 == 1, r),
            Err(e) => Err(format!("request failed: {e}")),
        };
        latency.push(if verdict.is_ok() {
            ms(d.sent, d.done)
        } else {
            f64::INFINITY
        });
        out.check(verdict);
    }
    // Requests cost from milliseconds to a few hundred, so the rate is
    // taken over the whole loop, not as a median of short windows.
    let completed = latency.iter().filter(|l| l.is_finite()).count();
    if let Some(last) = done.last() {
        let elapsed = last.done.duration_since(start).as_secs_f64();
        out.metric("ops_per_s", completed as f64 / elapsed, "1/s");
    }
    out.op_latency(latency);
    done
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let s = crate::timed_setup(&mut out, || setup(seed), |s| s.handle.shutdown());
    for t in &s.templates {
        out.count(
            format!("templates.{}.{}", t.placement.label(), t.spec.policy),
            1,
        );
        for q in &t.queries {
            out.count(format!("queries.{}", q.keyword()), 1);
        }
    }
    let client = daemon::client(s.handle.addr());
    // The traced run times the same loop and splits the layers offline
    // afterwards, so its end-to-end metrics carry no tracing cost.
    let done = closed_loop(&s, &client, seed, seconds, &mut out);
    let sent = done.len() as u64;
    daemon::probe(&client, seed, &s.traces, &mut out);
    if trace {
        crate::offline_overhead(&mut out);
        layers(&s, seed, &done, &mut out);
    }

    let stats = client
        .stats(true)
        .ok()
        .and_then(|r| daemon::cache_counters(&r.body));
    let fillers = SESSIONS as u64;
    out.check(match stats {
        Some((0, misses, evictions)) if misses == fillers + sent && evictions == sent => Ok(()),
        Some((hits, misses, evictions)) => Err(format!(
            "/stats counts {hits} hits, {misses} misses, {evictions} evictions for {sent} cold queries"
        )),
        None => Err("final /stats unreadable".to_string()),
    });
    if let Some((hits, misses, evictions)) = stats {
        out.metric("serve.cache_hits", hits as f64, "count");
        out.metric("serve.cache_misses", misses as f64, "count");
        out.metric("serve.cache_evictions", evictions as f64, "count");
    }
    s.handle.shutdown();
    out
}

/// The traced run's layer split: one pass over the template cycle,
/// each renamed spec analyzed again in process, cold, call by call.
fn layers(s: &Setup, seed: u64, done: &[Done], out: &mut Outcome) {
    let mut tr = Tracer::new(Instant::now());
    let cache = SessionCache::new(SESSIONS);
    for i in 0..SESSIONS {
        cache.get_or_insert(&s.templates[i % s.templates.len()].spec);
    }
    for i in 0..s.templates.len() {
        let (text, t) = request(s, seed, i);
        let op = i as u64;
        let (spec, queries) = parse_batch(&text).expect("request parses");
        tr.time("serve.cache", op, None, || cache.get_or_insert(&spec));

        let mut bench = Workbench::new(spec.clone());
        if let Placement::Partitioned(_) = t.placement {
            tr.time("part.alloc", op, None, || bench.partition().is_some());
        }
        let mut order: Vec<&Query> = queries.iter().collect();
        order.sort_by_key(|q| diag::execution_phase(q));
        for q in order {
            tr.time(query_span(q), op, None, || {
                std::hint::black_box(bench.run(q)).is_ok()
            });
        }
        let cold = match t.placement {
            Placement::Uni => "part.cold_batch.uni",
            Placement::Partitioned(_) => "part.cold_batch.partitioned",
            Placement::Global(_) => "part.cold_batch.global",
        };
        tr.time(cold, op, None, || {
            std::hint::black_box(Workbench::new(spec.clone()).run_batch(&queries)).is_ok()
        });
        let shared = Arc::new(Mutex::new(Workbench::new(spec.clone())));
        tr.time("serve.fan", op, None, || {
            std::hint::black_box(fan::run_batch_fanned(
                &shared,
                &spec,
                &queries,
                daemon::nproc(),
            ))
            .is_ok()
        });
    }
    let mean_of = |span: &str, scale: f64| mean(&tr.self_ns(span)).unwrap_or(0.0) / scale;
    for kind in [
        "feasibility",
        "wcrt",
        "thresholds",
        "equitable",
        "system_allowance",
        "overrun",
        "sensitivity",
    ] {
        let span = format!("core.query.{kind}");
        out.metric(&format!("core.query_ms.{kind}"), mean_of(&span, 1e6), "ms");
    }
    for placement in ["uni", "partitioned", "global"] {
        let span = format!("part.cold_batch.{placement}");
        out.metric(
            &format!("part.cold_batch_ms.{placement}"),
            mean_of(&span, 1e6),
            "ms",
        );
    }
    out.metric("serve.cache_us", mean_of("serve.cache", 1e3), "us");
    out.metric("part.alloc_us", mean_of("part.alloc", 1e3), "us");
    out.metric("serve.fan_ms", mean_of("serve.fan", 1e6), "ms");
    for d in done {
        tr.record("client.round_trip", d.index as u64, d.sent, d.done);
    }
    crate::write_spans("query_cold", seed, &tr);
}

/// The span of one query kind, named as its per-layer metric.
fn query_span(q: &Query) -> &'static str {
    match q {
        Query::Feasibility => "core.query.feasibility",
        Query::WcrtAll => "core.query.wcrt",
        Query::Thresholds => "core.query.thresholds",
        Query::EquitableAllowance => "core.query.equitable",
        Query::SystemAllowance(_) => "core.query.system_allowance",
        Query::MaxSingleOverrun(_) => "core.query.overrun",
        Query::Sensitivity => "core.query.sensitivity",
    }
}
