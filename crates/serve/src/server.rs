//! The blocking accept loop, worker pool, and request routing.
//!
//! One listener thread polls a non-blocking accept and feeds
//! connections over an mpsc channel to a fixed pool of worker threads;
//! each worker reads one request, routes it, and closes the
//! connection. A handler that panics costs its request a 500 (when no
//! response byte was written yet), never its worker. Shutdown (`POST /shutdown` or [`ServerHandle::shutdown`])
//! raises a flag, the listener drops the channel sender, and the
//! workers drain what was already accepted before exiting — a graceful
//! drain with no dropped in-flight requests.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rtft_core::diag;
use rtft_core::query::{parse_batch, render_responses_json, render_responses_text, Response};
use rtft_part::workbench::Workbench;

use crate::cache::SessionCache;
use crate::fan::run_batch_fanned;
use crate::http::{read_request, write_response, ReadError, Request};
use crate::stats::ServerStats;

/// Everything tunable about one daemon.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ServeConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Warm-session cache capacity.
    pub sessions: usize,
    /// Worker threads (also the cold-batch fan-out width).
    pub threads: usize,
    /// Per-connection socket read/write timeout.
    pub request_timeout: std::time::Duration,
    /// Largest accepted request body, in bytes.
    pub max_body: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7878".to_string(),
            sessions: 64,
            threads: std::thread::available_parallelism().map_or(2, |n| n.get()),
            request_timeout: std::time::Duration::from_secs(10),
            max_body: 1024 * 1024,
        }
    }
}

/// A bound (not yet running) daemon.
pub struct Server {
    cfg: ServeConfig,
    listener: TcpListener,
    state: Arc<Shared>,
}

/// State shared between the accept loop, the workers, and observers.
struct Shared {
    cache: SessionCache,
    stats: ServerStats,
    stop: AtomicBool,
}

/// Handle to a daemon running on a background thread (for in-process
/// tests and benches).
pub struct ServerHandle {
    addr: SocketAddr,
    state: Arc<Shared>,
    join: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Raise the stop flag and wait for the graceful drain.
    pub fn shutdown(self) {
        self.state.stop.store(true, Ordering::Relaxed);
        let _ = self.join.join();
    }
}

impl Server {
    /// Bind the listener. Nothing is served until [`Server::run`].
    ///
    /// # Errors
    /// Socket bind/configuration failures.
    pub fn bind(cfg: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        // Non-blocking accept so the loop can observe the stop flag
        // without a connection arriving to wake it.
        listener.set_nonblocking(true)?;
        Ok(Server {
            state: Arc::new(Shared {
                cache: SessionCache::new(cfg.sessions),
                stats: ServerStats::default(),
                stop: AtomicBool::new(false),
            }),
            cfg,
            listener,
        })
    }

    /// The bound address (resolves `:0` to the actual port).
    ///
    /// # Errors
    /// Propagated from the socket.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serve until shutdown is requested, then drain and return.
    /// Blocks the calling thread for the daemon's whole life.
    pub fn run(self) {
        let Server {
            cfg,
            listener,
            state,
        } = self;
        let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        std::thread::scope(|scope| {
            for _ in 0..cfg.threads.max(1) {
                let rx = Arc::clone(&rx);
                let state = &state;
                let cfg = &cfg;
                scope.spawn(move || {
                    worker_loop(&rx, &state.stats, |conn| {
                        handle_connection(conn, state, cfg);
                    });
                });
            }
            accept_loop(&listener, &tx, &state);
            // Dropping the sender closes the channel; workers finish
            // the streams already queued, then exit.
            drop(tx);
        });
    }

    /// Run on a background thread, returning a handle for tests.
    ///
    /// # Errors
    /// Propagated from the socket.
    pub fn spawn(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
        let server = Server::bind(cfg)?;
        let addr = server.local_addr()?;
        let state = Arc::clone(&server.state);
        let join = std::thread::spawn(move || server.run());
        Ok(ServerHandle { addr, state, join })
    }
}

fn accept_loop(listener: &TcpListener, tx: &Sender<TcpStream>, state: &Shared) {
    while !state.stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            Err(_) => {
                // Transient accept failure (connection reset mid
                // handshake and the like): keep serving.
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
    }
}

/// One accepted connection, which remembers whether any response byte
/// has been written to it.
struct Conn {
    socket: TcpStream,
    wrote: bool,
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.socket.read(buf)
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.wrote |= !buf.is_empty();
        self.socket.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.socket.flush()
    }
}

/// Serve connections from `rx` with `handle` until the channel closes.
/// A panic in `handle` is contained to its connection: the client gets
/// a 500 if nothing was written to it yet, and the worker goes on to
/// the next connection.
fn worker_loop(rx: &Mutex<Receiver<TcpStream>>, stats: &ServerStats, handle: impl Fn(&mut Conn)) {
    loop {
        // Hold the receiver lock only for the recv itself.
        let stream = match rx.lock().expect("receiver poisoned").recv() {
            Ok(s) => s,
            Err(_) => return, // channel closed: drain complete
        };
        let mut conn = Conn {
            socket: stream,
            wrote: false,
        };
        if catch_unwind(AssertUnwindSafe(|| handle(&mut conn))).is_err() {
            stats.record_status(500);
            if !conn.wrote {
                let body = b"internal error: the request handler panicked\n";
                let _ = write_response(&mut conn, 500, "text/plain", body);
            }
        }
    }
}

fn handle_connection(stream: &mut Conn, state: &Shared, cfg: &ServeConfig) {
    let _ = stream.socket.set_read_timeout(Some(cfg.request_timeout));
    let _ = stream.socket.set_write_timeout(Some(cfg.request_timeout));
    let request = match read_request(stream, cfg.max_body) {
        Ok(r) => r,
        Err(ReadError::Malformed(m)) => {
            state.stats.record_status(400);
            let _ = write_response(stream, 400, "text/plain", format!("{m}\n").as_bytes());
            return;
        }
        Err(ReadError::TooLarge { declared, limit }) => {
            state.stats.record_status(413);
            let body = format!("body of {declared} bytes exceeds the {limit}-byte limit\n");
            let _ = write_response(stream, 413, "text/plain", body.as_bytes());
            return;
        }
        // Includes read timeouts: nobody well-formed to answer.
        Err(ReadError::Io(_)) => return,
    };

    state.stats.record_request(&request.path);
    // The live trace route writes its own (close-delimited, per-event
    // flushed) response, so it bypasses the buffered route dispatch.
    if request.method == "POST" && request.path == "/trace" {
        let status = crate::live::handle_trace_stream(stream, &request);
        state.stats.record_status(status);
        return;
    }
    let started = Instant::now();
    let (status, content_type, body) = route(&request, state, cfg);
    if request.path == "/query" {
        state.stats.record_latency(started.elapsed());
    }
    state.stats.record_status(status);
    let _ = write_response(stream, status, content_type, body.as_bytes());
}

/// Dispatch one parsed request to (status, content type, body).
fn route(request: &Request, state: &Shared, cfg: &ServeConfig) -> (u16, &'static str, String) {
    let json = request.wants_json();
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/query") => handle_query(request, state, cfg),
        ("GET", "/stats") => {
            let snapshot = state.stats.snapshot();
            let cache = state.cache.counters();
            if json {
                (200, "application/json", snapshot.render_json(cache))
            } else {
                (200, "text/plain", snapshot.render_text(cache))
            }
        }
        ("POST", "/shutdown") => {
            state.stop.store(true, Ordering::Relaxed);
            (200, "text/plain", "draining\n".to_string())
        }
        (_, "/query" | "/stats" | "/shutdown" | "/trace") => {
            (405, "text/plain", "method not allowed\n".to_string())
        }
        (_, path) => (404, "text/plain", format!("no route for `{path}`\n")),
    }
}

/// Render one diagnostic the way the CLI's stderr/`--json` contract
/// does: its `RTnnn` line in text, the diag JSON array in JSON.
fn render_rejection(d: &diag::Diagnostic, json: bool) -> (&'static str, String) {
    if json {
        (
            "application/json",
            diag::render_json(std::slice::from_ref(d)),
        )
    } else {
        ("text/plain", format!("{}\n", d.to_line()))
    }
}

fn handle_query(
    request: &Request,
    state: &Shared,
    cfg: &ServeConfig,
) -> (u16, &'static str, String) {
    let json = request.wants_json();
    let Ok(text) = std::str::from_utf8(&request.body) else {
        return (400, "text/plain", "body is not UTF-8\n".to_string());
    };

    let (spec, queries) = match parse_batch(text) {
        Ok(parsed) => parsed,
        Err(e) => {
            let d = diag::parse_failure(e.line, e.message);
            let (ct, body) = render_rejection(&d, json);
            return (422, ct, body);
        }
    };
    if queries.is_empty() {
        let d = diag::parse_failure(0, "batch has no `query` lines");
        let (ct, body) = render_rejection(&d, json);
        return (422, ct, body);
    }

    // Lint before touching the cache: a spec with Error findings never
    // earns a session slot, but the client still gets the exact
    // `Rejected` rendering `rtft query` would print.
    let lint = diag::lint_system(&spec);
    if diag::has_errors(&lint) {
        let responses = vec![Response::Rejected(lint); queries.len()];
        let body = if json {
            render_responses_json(&spec, &responses)
        } else {
            render_responses_text(&spec, &queries, &responses)
        };
        let ct = if json {
            "application/json"
        } else {
            "text/plain"
        };
        return (422, ct, body);
    }

    let (session, warm) = state.cache.get_or_insert(&spec);
    let result = if warm {
        // A warm session answers from memoized state; fanning it out
        // would only rebuild that state on other threads. A session a
        // panicking handler left poisoned is not trusted: a fresh one
        // answers, and the cache evicts the poisoned one.
        match session.lock() {
            Ok(mut bench) => bench.run_batch(&queries),
            Err(_) => Workbench::new(spec.clone()).run_batch(&queries),
        }
    } else {
        run_batch_fanned(&session, &spec, &queries, cfg.threads)
    };
    match result {
        Ok(responses) => {
            let body = if json {
                render_responses_json(&spec, &responses)
            } else {
                render_responses_text(&spec, &queries, &responses)
            };
            let ct = if json {
                "application/json"
            } else {
                "text/plain"
            };
            (200, ct, body)
        }
        Err(e) => (500, "text/plain", format!("analysis failed: {e}\n")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    /// Send `request` on a fresh loopback connection whose server end
    /// goes to the workers, and read the whole reply.
    fn exchange(listener: &TcpListener, tx: &Sender<TcpStream>, request: &[u8]) -> String {
        let mut client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server_end, _) = listener.accept().unwrap();
        tx.send(server_end).unwrap();
        client.write_all(request).unwrap();
        let mut reply = String::new();
        client.read_to_string(&mut reply).unwrap();
        reply
    }

    #[test]
    fn a_panicking_handler_costs_its_request_not_its_worker() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
        let rx = Mutex::new(rx);
        let stats = ServerStats::default();
        let calls = AtomicUsize::new(0);
        // The first connection panics before writing, the second after
        // writing a partial head; the third is answered.
        let handle = |conn: &mut Conn| {
            let call = calls.fetch_add(1, Ordering::Relaxed);
            let _ = read_request(conn, 1024);
            match call {
                0 => panic!("handler bug"),
                1 => {
                    conn.write_all(b"HTTP/1.1 200 OK\r\n").unwrap();
                    panic!("handler bug after writing");
                }
                _ => {
                    let _ = write_response(conn, 200, "text/plain", b"still serving\n");
                }
            }
        };
        std::thread::scope(|scope| {
            // One worker: after a panic, only it can answer the next
            // connection.
            scope.spawn(|| worker_loop(&rx, &stats, handle));
            let request = b"GET /stats HTTP/1.1\r\n\r\n";
            let first = exchange(&listener, &tx, request);
            assert!(first.starts_with("HTTP/1.1 500 "), "{first}");
            let second = exchange(&listener, &tx, request);
            assert_eq!(
                second, "HTTP/1.1 200 OK\r\n",
                "no 500 after a partial write"
            );
            let third = exchange(&listener, &tx, request);
            assert!(third.starts_with("HTTP/1.1 200 "), "{third}");
            assert!(third.ends_with("still serving\n"), "{third}");
            drop(tx);
        });
        assert_eq!(calls.load(Ordering::Relaxed), 3);
        assert_eq!(stats.snapshot().server_errors, 2);
    }
}
