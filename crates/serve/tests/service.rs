//! End-to-end tests of one daemon: wire-format fidelity against the
//! query plane, the 4xx/422 error contract, stats, and shutdown.

use rtft_core::allowance::SlackPolicy;
use rtft_core::diag;
use rtft_core::query::{
    parse_batch, render_responses_json, render_responses_text, Query, Response, SystemSpec,
};
use rtft_part::workbench::Workbench;
use rtft_serve::{Client, ServeConfig, Server};
use std::collections::BTreeMap;

/// A daemon on an ephemeral port with small, test-friendly limits.
fn spawn(cfg_tweak: impl FnOnce(&mut ServeConfig)) -> (rtft_serve::ServerHandle, Client) {
    let mut cfg = ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        sessions: 8,
        threads: 2,
        request_timeout: std::time::Duration::from_secs(5),
        max_body: 64 * 1024,
    };
    cfg_tweak(&mut cfg);
    let handle = Server::spawn(cfg).expect("bind ephemeral port");
    let client = Client::new(handle.addr());
    (handle, client)
}

const PAPER_BATCH: &str = "\
system table2
task t1 1 100 100 20
task t2 2 150 150 40
task t3 3 300 300 100
query feasibility
query wcrt
query equitable
query system-allowance
query overrun t1
";

/// What `rtft query` would print for the same batch — the byte-level
/// reference every service response is held to.
fn reference(batch: &str, json: bool) -> String {
    let (spec, queries) = parse_batch(batch).expect("reference batch parses");
    let responses = Workbench::new(spec.clone())
        .run_batch(&queries)
        .expect("reference batch runs");
    if json {
        render_responses_json(&spec, &responses)
    } else {
        render_responses_text(&spec, &queries, &responses)
    }
}

#[test]
fn text_and_json_answers_match_the_query_plane_byte_for_byte() {
    let (handle, client) = spawn(|_| {});
    for json in [false, true] {
        let reply = client.post_query(PAPER_BATCH, json).expect("query");
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert_eq!(reply.body, reference(PAPER_BATCH, json), "json={json}");
    }
    // Second round hits the warm session: still identical bytes.
    let reply = client.post_query(PAPER_BATCH, false).expect("warm query");
    assert_eq!(reply.body, reference(PAPER_BATCH, false));
    handle.shutdown();
}

#[test]
fn multicore_batches_round_trip_too() {
    let batch = "\
system quad
task a 1 100 100 40
task b 2 100 100 40
task c 3 100 100 40
task d 4 100 100 40
cores 2
alloc wfd
query feasibility
query thresholds
query equitable
";
    let (handle, client) = spawn(|_| {});
    let reply = client.post_query(batch, false).expect("query");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.body, reference(batch, false));
    handle.shutdown();
}

#[test]
fn lint_rejected_specs_answer_422_with_the_rejected_rendering() {
    // U > 1 on one core trips RT010, an Error — the workbench would
    // answer every query with `Rejected`, and so must the daemon.
    let batch = "\
system overload
task hog 1 100 100 90
task also 2 100 100 90
query feasibility
query wcrt
";
    let (spec, queries) = parse_batch(batch).unwrap();
    let lint = diag::lint_system(&spec);
    assert!(diag::has_errors(&lint), "fixture must lint-fail");

    let (handle, client) = spawn(|_| {});
    let reply = client.post_query(batch, false).expect("query");
    assert_eq!(reply.status, 422);
    assert!(reply.body.contains("RT010"), "{}", reply.body);
    let expected = render_responses_text(
        &spec,
        &queries,
        &vec![Response::Rejected(lint); queries.len()],
    );
    assert_eq!(reply.body, expected);

    // JSON flavour carries the same diagnostics.
    let reply = client.post_query(batch, true).expect("query json");
    assert_eq!(reply.status, 422);
    assert!(reply.body.contains("RT010"), "{}", reply.body);

    // Rejected specs never occupy a session slot.
    let stats = client.stats(false).expect("stats").body;
    assert!(stats.contains("sessions_live 0"), "{stats}");
    handle.shutdown();
}

#[test]
fn unparsable_batches_answer_422_with_a_parse_diagnostic() {
    let (handle, client) = spawn(|_| {});
    let reply = client
        .post_query("system x\nnonsense line\n", false)
        .expect("query");
    assert_eq!(reply.status, 422);
    assert!(reply.body.contains("RT0"), "{}", reply.body);

    // A batch with no `query` lines is rejected input, same code path.
    let reply = client
        .post_query("system x\ntask a 1 100 100 10\n", false)
        .expect("query");
    assert_eq!(reply.status, 422);
    assert!(reply.body.contains("RT0"), "{}", reply.body);
    handle.shutdown();
}

#[test]
fn oversized_core_counts_answer_422_and_the_daemon_keeps_serving() {
    let (handle, client) = spawn(|_| {});
    let batch = "system big\ntask t1 1 100 100 20\ncores 99999999999\nquery feasibility\n";
    let reply = client.post_query(batch, false).expect("query");
    assert_eq!(reply.status, 422, "{}", reply.body);
    assert!(reply.body.contains("bad core count"), "{}", reply.body);
    // The daemon is still up and answers the next request.
    let reply = client.post_query(PAPER_BATCH, false).expect("query");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.body, reference(PAPER_BATCH, false));
    handle.shutdown();
}

#[test]
fn malformed_http_answers_400_and_oversize_answers_413() {
    use std::io::{Read as _, Write as _};
    let (handle, client) = spawn(|cfg| cfg.max_body = 64);

    // Raw garbage instead of a request line.
    let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    stream.write_all(b"this is not http\r\n\r\n").unwrap();
    let mut answer = String::new();
    stream.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 400 "), "{answer}");

    // A body over the configured cap.
    let reply = client
        .post_query(&"x".repeat(1000), false)
        .expect("oversize query");
    assert_eq!(reply.status, 413);
    handle.shutdown();
}

#[test]
fn unknown_routes_404_and_wrong_methods_405() {
    use std::io::{Read as _, Write as _};
    let (handle, _client) = spawn(|_| {});
    let exchange = |raw: &str| {
        let mut stream = std::net::TcpStream::connect(handle.addr()).unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let mut answer = String::new();
        stream.read_to_string(&mut answer).unwrap();
        answer
    };
    assert!(exchange("GET /nope HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 404 "));
    assert!(exchange("GET /query HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405 "));
    assert!(exchange("DELETE /stats HTTP/1.1\r\n\r\n").starts_with("HTTP/1.1 405 "));
    handle.shutdown();
}

#[test]
fn stats_report_sessions_requests_and_latency() {
    let (handle, client) = spawn(|_| {});
    client.post_query(PAPER_BATCH, false).expect("query 1");
    client.post_query(PAPER_BATCH, false).expect("query 2");
    let text = client.stats(false).expect("stats").body;
    for field in [
        "sessions_live 1",
        "sessions_capacity 8",
        "session_hits 1",
        "session_misses 1",
        "session_evictions 0",
        "requests_query 2",
        "responses_ok 2",
        "latency_samples 2",
    ] {
        assert!(text.contains(field), "missing `{field}` in:\n{text}");
    }
    assert!(
        !text.contains("latency_p50 -"),
        "sampled p50 is numeric:\n{text}"
    );

    let json = client.stats(true).expect("stats json").body;
    for field in [
        "\"hits\": 1",
        "\"misses\": 1",
        "\"samples\":",
        "\"p99_ns\":",
    ] {
        assert!(json.contains(field), "missing `{field}` in:\n{json}");
    }
    handle.shutdown();
}

#[test]
fn post_shutdown_drains_gracefully() {
    let (handle, client) = spawn(|_| {});
    client.post_query(PAPER_BATCH, false).expect("query");
    let reply = client.shutdown().expect("shutdown responds before dying");
    assert_eq!(reply.status, 200);
    // run() returns: the join below must not hang (the test harness
    // would time out if the drain leaked a worker).
    handle.shutdown();
    assert!(
        client.post_query(PAPER_BATCH, false).is_err(),
        "daemon is gone after the drain"
    );
}

#[test]
fn warm_sessions_beat_cold_daemons_on_the_allowance_batch() {
    use rtft_taskgen::GeneratorConfig;
    // The acceptance workload: a 50-task allowance-heavy batch. Warm
    // repetition must be at least 2x faster than the first (cold)
    // request; in practice the memoized searches make it far more.
    let set = GeneratorConfig::new(50).with_utilization(0.72).generate(21);
    let spec = SystemSpec::uniprocessor("warmup", set);
    let mut batch = format!("system {}\n", spec.name);
    spec.render_lines(&mut batch);
    let mut queries = vec![
        Query::Feasibility,
        Query::Thresholds,
        Query::EquitableAllowance,
        Query::SystemAllowance(SlackPolicy::ProtectAll),
    ];
    for rank in 0..spec.set.len() {
        queries.push(Query::MaxSingleOverrun(spec.set.by_rank(rank).id));
    }
    for q in &queries {
        batch.push_str(&q.to_line(|id| spec.task_name(id)));
        batch.push('\n');
    }

    let (handle, client) = spawn(|_| {});
    let cold_start = std::time::Instant::now();
    let cold = client.post_query(&batch, false).expect("cold query");
    let cold_elapsed = cold_start.elapsed();
    assert_eq!(cold.status, 200, "{}", cold.body);

    // Median of several warm rounds guards against scheduler noise.
    let mut warm_times: Vec<std::time::Duration> = (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            let warm = client.post_query(&batch, false).expect("warm query");
            assert_eq!(warm.body, cold.body, "warm answers identical bytes");
            t.elapsed()
        })
        .collect();
    warm_times.sort();
    let warm_elapsed = warm_times[warm_times.len() / 2];
    assert!(
        warm_elapsed * 2 <= cold_elapsed,
        "warm {warm_elapsed:?} not 2x faster than cold {cold_elapsed:?}"
    );
    handle.shutdown();
}

const ONE_JOB_SPEC: &str = "\
campaign live
horizon 1300ms
taskgen paper
faults paper
policy fp
cores 1
treatment detect
platform jrate
";

#[test]
fn trace_route_streams_a_run_that_reassembles_into_a_valid_capture() {
    let (handle, client) = spawn(|_| {});
    // One core, two partitioned cores, two global cores.
    for cores in ["cores 1\n", "cores 2\n", "cores 2\nplacement global\n"] {
        let spec = ONE_JOB_SPEC.replace("cores 1\n", cores);
        let reply = client.post_trace(&spec).expect("trace");
        assert_eq!(reply.status, 200, "{}", reply.body);
        assert!(
            reply.body.starts_with("# rtft trace stream\n"),
            "{}",
            reply.body
        );
        let trailer = reply.body.lines().last().expect("stream has a trailer");
        assert!(trailer.starts_with("# content-hash "), "{}", reply.body);
        let job = &rtft_campaign::parse_spec(&spec).unwrap().expand().unwrap()[0];
        let buffered = rtft_campaign::capture_job(job).unwrap();
        let header = buffered.header.as_ref().expect("captures carry a header");
        assert_eq!(
            trailer,
            format!("# content-hash {:016x}", header.content_hash),
            "{cores}"
        );
        // Group the streamed event lines by their `cN` tag (untagged
        // lines are global platform events, or every event on one core):
        // each group is the matching per-core log of the buffered capture.
        let mut streamed: BTreeMap<Option<usize>, Vec<&str>> = BTreeMap::new();
        for line in reply.body.lines().filter(|l| !l.starts_with('#')) {
            let (core, event) = match line.split_once(' ') {
                Some((tag, event)) if tag.starts_with('c') => {
                    (Some(tag[1..].parse::<usize>().expect("core tag")), event)
                }
                _ => (None, line),
            };
            streamed.entry(core).or_default().push(event);
        }
        let mut expected: BTreeMap<Option<usize>, Vec<String>> = BTreeMap::new();
        for e in buffered.events().iter() {
            // The trailing platform log of a global run is untagged.
            let key = (job.cores > 1 && e.core < job.cores).then_some(e.core);
            let line = rtft_trace::format::event_line(&e.event);
            expected
                .entry(key)
                .or_default()
                .push(line.trim_end().to_string());
        }
        assert_eq!(
            streamed.keys().collect::<Vec<_>>(),
            expected.keys().collect::<Vec<_>>(),
            "{cores}"
        );
        for (core, lines) in &expected {
            assert_eq!(&streamed[core], lines, "{cores}: core {core:?}");
        }
        if job.cores > 1 {
            continue;
        }
        // One core streams untagged lines in trace order: moving the
        // trailer up into the header slot must yield an importable,
        // hash-consistent capture.
        let mut text = String::from("# rtft trace v2\n");
        for line in reply.body.lines().skip(1) {
            if line.starts_with("# content-hash") || !line.starts_with('#') {
                continue;
            }
            text.push_str(line);
            text.push('\n');
        }
        text.push_str(trailer);
        text.push('\n');
        for line in reply.body.lines().filter(|l| !l.starts_with('#')) {
            text.push_str(line);
            text.push('\n');
        }
        let capture =
            rtft_trace::TraceCapture::parse_text(&text).expect("reassembled capture parses");
        assert_eq!(capture.hash_matches(), Some(true));
        assert!(!capture.is_empty());
        // Byte-identical to the buffered capture of the same job: the
        // sink observes the run, it does not perturb it.
        assert_eq!(capture.render_text(), buffered.render_text());
    }
    handle.shutdown();
}

#[test]
fn trace_route_rejects_garbage_and_grids() {
    let (handle, client) = spawn(|_| {});
    let reply = client.post_trace("not a campaign spec\n").expect("reply");
    assert_eq!(reply.status, 422, "{}", reply.body);
    assert!(reply.body.starts_with("RT000"), "{}", reply.body);
    // A whole grid is not a subscription: the route wants one job.
    let grid = ONE_JOB_SPEC.replace("policy fp", "policy all");
    let reply = client.post_trace(&grid).expect("reply");
    assert_eq!(reply.status, 422, "{}", reply.body);
    assert!(
        reply.body.contains("one-job campaign spec"),
        "{}",
        reply.body
    );
    // A lint-broken system (U = 1.2 on one core) is rejected up front
    // with the lint's diagnostics, exactly as `POST /query` rejects it,
    // instead of a 200 stream ending in an error trailer.
    let overloaded = "campaign overload\nhorizon 500ms\ntask a 9 100ms 100ms 60ms\n\
                      task b 8 100ms 100ms 60ms\ntreatment detect\n";
    let reply = client.post_trace(overloaded).expect("reply");
    assert_eq!(reply.status, 422, "{}", reply.body);
    assert!(reply.body.contains("RT010"), "{}", reply.body);
    assert!(!reply.body.contains("# error"), "{}", reply.body);
    let query = "system overload\ntask a 9 100ms 100ms 60ms\ntask b 8 100ms 100ms 60ms\n\
                 query feasibility\n";
    assert_eq!(client.post_query(query, false).expect("reply").status, 422);
    handle.shutdown();
}

#[test]
fn nonpositive_fault_amounts_answer_422_and_the_worker_survives() {
    // One worker: a request that killed it would leave nobody to
    // answer the query below.
    let (handle, client) = spawn(|cfg| cfg.threads = 1);
    let client = client.with_timeout(std::time::Duration::from_secs(10));
    let spec = "campaign zero\nhorizon 500ms\ntask a 9 100ms 100ms 10ms\n\
                fault a job 0 overrun 0ms\ntreatment detect\n";
    let reply = client.post_trace(spec).expect("reply");
    assert_eq!(reply.status, 422, "{}", reply.body);
    assert!(
        reply.body.starts_with("RT000 error line:4"),
        "{}",
        reply.body
    );
    let batch = "system zero\ntask a 9 100ms 100ms 10ms\nfault a job 0 underrun -1ms\n\
                 query feasibility\n";
    let reply = client.post_query(batch, false).expect("reply");
    assert_eq!(reply.status, 422, "{}", reply.body);
    assert!(
        reply.body.starts_with("RT000 error line:3"),
        "{}",
        reply.body
    );
    let reply = client.post_query(PAPER_BATCH, false).expect("query");
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.body, reference(PAPER_BATCH, false));
    handle.shutdown();
}
