//! `lookahead bench serve` — transport benchmark for the experiment
//! service — and the nonblocking many-connection load engine behind it
//! (also used by `loadgen --connections`).
//!
//! The engine drives N concurrent HTTP/1.1 connections from **one
//! thread** using the same raw-syscall epoll wrapper the server's
//! reactor transport is built on ([`lookahead_serve::reactor`]): every
//! client socket is nonblocking, a per-slot state machine walks
//! send-request → read-response → (keep-alive reuse | reconnect), and
//! completion is detected from the response framing (`Content-Length`,
//! chunked terminator, or connection close). Thread-per-client load
//! generation tops out around the machine's thread budget; this engine
//! holds thousands of sockets open at once, which is exactly the
//! regime the reactor transport exists for.
//!
//! `lookahead bench serve` spawns one in-process service (shared body
//! memo, so transport — not simulation — dominates), warms every
//! target once, then measures four cells: each transport at a small
//! connection count (32) and at the big one (default 1000). Results
//! land in `BENCH_serve.json`: latency percentiles, the server-side
//! queue-wait vs handler service-time split (from `Server-Timing`),
//! keep-alive reuse and coalescing rates. The legacy transport is
//! expected to shed most of the 1000-connection run as 503s — its
//! queue bound *is* its capacity — and the JSON records that rather
//! than hiding it.

use crate::config_from_env;
use lookahead_harness::parallel;
use lookahead_harness::SizeTier;
use lookahead_serve::reactor::{raise_nofile_limit, Epoll, Event};
use lookahead_serve::{
    ExperimentService, Server, ServerConfig, ServiceConfig, ShutdownHandle, Transport,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One measured request: wall-clock total plus the server-reported
/// queue-wait and handler stage durations (from `Server-Timing`).
#[derive(Clone, Copy)]
pub struct LoadSample {
    pub total_us: u64,
    pub queue_us: Option<u64>,
    pub handler_us: Option<u64>,
}

/// What to drive: `connections` concurrent slots, each issuing
/// `requests_per_conn` sequential requests against `targets` (the
/// loadgen hot/cold mix: odd global indices hit `targets[0]`).
pub struct LoadOptions {
    pub addr: SocketAddr,
    pub connections: usize,
    pub requests_per_conn: usize,
    /// Reuse connections across requests (HTTP/1.1 keep-alive). When
    /// false every request asks for `Connection: close` and each slot
    /// reconnects per request — the legacy client shape.
    pub keepalive: bool,
    pub targets: Vec<String>,
    /// Per-request deadline; an expired slot is abandoned and its
    /// remaining requests counted as errors.
    pub request_timeout: Duration,
}

impl LoadOptions {
    pub fn new(addr: SocketAddr, connections: usize, requests_per_conn: usize) -> LoadOptions {
        LoadOptions {
            addr,
            connections,
            requests_per_conn,
            keepalive: true,
            targets: vec!["/healthz".to_string()],
            request_timeout: Duration::from_secs(30),
        }
    }
}

/// The engine's result: per-request samples plus error accounting.
pub struct LoadReport {
    pub samples: Vec<LoadSample>,
    pub errors: u64,
    pub elapsed: Duration,
    /// Responses received on a connection that had already carried at
    /// least one earlier response (client-observed keep-alive reuse).
    pub reused: u64,
}

impl LoadReport {
    /// Sorted wall-clock latencies, for percentile queries.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.samples.iter().map(|s| s.total_us).collect();
        v.sort_unstable();
        v
    }

    pub fn sorted_queue_waits(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.samples.iter().filter_map(|s| s.queue_us).collect();
        v.sort_unstable();
        v
    }

    pub fn sorted_services(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.samples.iter().filter_map(|s| s.handler_us).collect();
        v.sort_unstable();
        v
    }
}

/// Exact percentile of a sorted sample (nearest-rank on n-1).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// One stage's duration out of a `Server-Timing` header value
/// (`queue;dur=0.042, parse;dur=0.003, handler;dur=12.8`), in
/// microseconds.
pub fn server_timing_us(value: &str, stage: &str) -> Option<u64> {
    value.split(',').find_map(|part| {
        let ms: f64 = part
            .trim()
            .strip_prefix(stage)?
            .strip_prefix(";dur=")?
            .parse()
            .ok()?;
        Some((ms * 1000.0) as u64)
    })
}

/// A counter out of the `/metrics.json` JSON (flat `"path":value`), 0
/// when absent.
pub fn metric(body: &str, path: &str) -> u64 {
    let needle = format!("\"{path}\":");
    match body.find(&needle) {
        None => 0,
        Some(at) => body[at + needle.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap_or(0),
    }
}

/// How many connections beyond the fleet the process needs fds for
/// (epoll, listener, stdio, the service's own files).
const FD_SLACK: u64 = 64;

/// One client slot's in-flight connection.
struct ClientConn {
    stream: TcpStream,
    /// Request bytes still to send.
    out: Vec<u8>,
    out_at: usize,
    /// Response bytes received so far.
    inbuf: Vec<u8>,
    /// Byte offset just past `\r\n\r\n` once the head is complete.
    head_end: Option<usize>,
    content_length: Option<usize>,
    chunked: bool,
    /// The server will close after this response (no length framing,
    /// or an explicit `Connection: close`).
    close_framed: bool,
    /// Responses already carried by this TCP connection.
    served_on_conn: u64,
    t0: Instant,
    deadline: Instant,
    /// Current epoll interest (readable, writable).
    interest: (bool, bool),
}

/// What a slot should do next, decided under the connection borrow.
enum SlotStep {
    Continue,
    Park { readable: bool, writable: bool },
    Complete,
    Failed(String),
}

struct Engine<'a> {
    epoll: Epoll,
    opts: &'a LoadOptions,
    /// token = slot index; a slot has at most one live connection.
    conns: HashMap<u64, ClientConn>,
    /// Responses completed per slot (across reconnects).
    done: Vec<usize>,
    finished_slots: usize,
    samples: Vec<LoadSample>,
    errors: u64,
    reused: u64,
    error_lines: u64,
}

/// At most this many per-request error lines are printed; the rest are
/// summarized (a 1000-connection 503 storm is one fact, not one
/// thousand lines).
const MAX_ERROR_LINES: u64 = 5;

impl Engine<'_> {
    fn target_for(&self, slot: usize, r: usize) -> &str {
        let targets = &self.opts.targets;
        let global = slot * self.opts.requests_per_conn + r;
        if global % 2 == 1 {
            &targets[0]
        } else {
            &targets[global / 2 % targets.len()]
        }
    }

    fn request_bytes(&self, slot: usize, r: usize) -> Vec<u8> {
        let target = self.target_for(slot, r);
        if self.opts.keepalive {
            format!("GET {target} HTTP/1.1\r\nHost: loadgen\r\n\r\n").into_bytes()
        } else {
            format!("GET {target} HTTP/1.1\r\nHost: loadgen\r\nConnection: close\r\n\r\n")
                .into_bytes()
        }
    }

    /// Opens a fresh connection for `slot`'s next request. The TCP
    /// connect itself is blocking (loopback connect latency is not the
    /// measured quantity); the socket goes nonblocking before any
    /// request byte moves, so the measured request/response exchange
    /// is fully event-driven.
    fn start_fresh(&mut self, slot: usize) {
        let r = self.done[slot];
        let out = self.request_bytes(slot, r);
        let stream = match TcpStream::connect(self.opts.addr) {
            Ok(s) => s,
            Err(e) => {
                self.fail_slot_request(slot, &format!("connect failed: {e}"));
                return;
            }
        };
        if stream.set_nonblocking(true).is_err() {
            self.fail_slot_request(slot, "set_nonblocking failed");
            return;
        }
        let now = Instant::now();
        let token = slot as u64;
        use std::os::fd::AsRawFd;
        if let Err(e) = self.epoll.add(stream.as_raw_fd(), token, false, true) {
            self.fail_slot_request(slot, &format!("epoll add failed: {e}"));
            return;
        }
        self.conns.insert(
            token,
            ClientConn {
                stream,
                out,
                out_at: 0,
                inbuf: Vec::new(),
                head_end: None,
                content_length: None,
                chunked: false,
                close_framed: false,
                served_on_conn: 0,
                t0: now,
                deadline: now + self.opts.request_timeout,
                interest: (false, true),
            },
        );
        self.pump(token);
    }

    /// Reuses `slot`'s live keep-alive connection for its next
    /// request.
    fn start_reused(&mut self, token: u64) {
        let slot = token as usize;
        let r = self.done[slot];
        let out = self.request_bytes(slot, r);
        let now = Instant::now();
        if let Some(conn) = self.conns.get_mut(&token) {
            conn.out = out;
            conn.out_at = 0;
            conn.inbuf.clear();
            conn.head_end = None;
            conn.content_length = None;
            conn.chunked = false;
            conn.close_framed = false;
            conn.t0 = now;
            conn.deadline = now + self.opts.request_timeout;
        }
        self.pump(token);
    }

    /// Drives a slot's state machine as far as the socket allows:
    /// flush the request, then consume the response.
    fn pump(&mut self, token: u64) {
        let mut buf = [0u8; 16 * 1024];
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.out_at < conn.out.len() {
                    match conn.stream.write(&conn.out[conn.out_at..]) {
                        Ok(0) => SlotStep::Failed("write returned 0".into()),
                        Ok(n) => {
                            conn.out_at += n;
                            SlotStep::Continue
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => SlotStep::Park {
                            readable: false,
                            writable: true,
                        },
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => SlotStep::Continue,
                        Err(e) => SlotStep::Failed(format!("write failed: {e}")),
                    }
                } else {
                    match conn.stream.read(&mut buf) {
                        Ok(0) => {
                            // EOF: legitimate completion only for a
                            // close-framed response whose head we have.
                            if conn.head_end.is_some()
                                && conn.content_length.is_none()
                                && !conn.chunked
                            {
                                SlotStep::Complete
                            } else {
                                SlotStep::Failed("connection closed mid-response".into())
                            }
                        }
                        Ok(n) => {
                            conn.inbuf.extend_from_slice(&buf[..n]);
                            if conn.head_end.is_none() {
                                if let Some(at) = find_subsequence(&conn.inbuf, b"\r\n\r\n") {
                                    let end = at + 4;
                                    conn.head_end = Some(end);
                                    let head =
                                        String::from_utf8_lossy(&conn.inbuf[..end]).into_owned();
                                    conn.content_length = header_value(&head, "Content-Length")
                                        .and_then(|v| v.trim().parse().ok());
                                    conn.chunked = header_value(&head, "Transfer-Encoding")
                                        .is_some_and(|v| v.trim().eq_ignore_ascii_case("chunked"));
                                    conn.close_framed = header_value(&head, "Connection")
                                        .is_some_and(|v| v.trim().eq_ignore_ascii_case("close"));
                                }
                            }
                            match (conn.head_end, conn.content_length, conn.chunked) {
                                (Some(end), Some(cl), _) if conn.inbuf.len() >= end + cl => {
                                    SlotStep::Complete
                                }
                                (Some(end), None, true)
                                    if conn.inbuf[end..].ends_with(b"0\r\n\r\n") =>
                                {
                                    SlotStep::Complete
                                }
                                _ => SlotStep::Continue,
                            }
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => SlotStep::Park {
                            readable: true,
                            writable: false,
                        },
                        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => SlotStep::Continue,
                        Err(e) => SlotStep::Failed(format!("read failed: {e}")),
                    }
                }
            };
            match step {
                SlotStep::Continue => {}
                SlotStep::Park { readable, writable } => {
                    self.set_interest(token, readable, writable);
                    return;
                }
                SlotStep::Complete => {
                    self.complete_response(token);
                    return;
                }
                SlotStep::Failed(why) => {
                    self.close_conn(token);
                    self.fail_slot_request(token as usize, &why);
                    return;
                }
            }
        }
    }

    fn set_interest(&mut self, token: u64, readable: bool, writable: bool) {
        use std::os::fd::AsRawFd;
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.interest == (readable, writable) {
            return;
        }
        if self
            .epoll
            .modify(conn.stream.as_raw_fd(), token, readable, writable)
            .is_ok()
        {
            conn.interest = (readable, writable);
        }
    }

    fn close_conn(&mut self, token: u64) {
        use std::os::fd::AsRawFd;
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
        }
    }

    /// A full response is buffered: record the sample (or the error)
    /// and move the slot along.
    fn complete_response(&mut self, token: u64) {
        let slot = token as usize;
        let (sample, status, detail, reuse_ok) = {
            let conn = self.conns.get_mut(&token).expect("completing a live conn");
            let end = conn.head_end.unwrap_or(conn.inbuf.len());
            let head = String::from_utf8_lossy(&conn.inbuf[..end]).into_owned();
            let status: u16 = head
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            let timing = header_value(&head, "Server-Timing");
            let sample = LoadSample {
                total_us: conn.t0.elapsed().as_micros() as u64,
                queue_us: timing.as_deref().and_then(|t| server_timing_us(t, "queue")),
                handler_us: timing
                    .as_deref()
                    .and_then(|t| server_timing_us(t, "handler")),
            };
            if conn.served_on_conn > 0 {
                self.reused += 1;
            }
            conn.served_on_conn += 1;
            let detail = format!(
                "{status} (request_id={})",
                header_value(&head, "X-Request-Id").unwrap_or_else(|| "?".into()),
            );
            let reuse_ok = self.opts.keepalive && !conn.close_framed;
            (sample, status, detail, reuse_ok)
        };
        if status == 200 {
            self.samples.push(sample);
        } else {
            self.count_error(&format!(
                "{}: {detail}",
                self.target_for(slot, self.done[slot])
            ));
        }
        self.done[slot] += 1;
        if self.done[slot] >= self.opts.requests_per_conn {
            self.close_conn(token);
            self.finished_slots += 1;
        } else if reuse_ok {
            self.start_reused(token);
        } else {
            self.close_conn(token);
            self.start_fresh(slot);
        }
    }

    /// A request failed at the transport level; the slot is abandoned
    /// (its remaining requests all count as errors) — retrying against
    /// a server that is shedding load would just remeasure the
    /// shedding.
    fn fail_slot_request(&mut self, slot: usize, why: &str) {
        let remaining = (self.opts.requests_per_conn - self.done[slot]) as u64;
        self.errors += remaining.saturating_sub(1);
        self.count_error(&format!(
            "{}: {why}",
            self.target_for(slot, self.done[slot])
        ));
        self.done[slot] = self.opts.requests_per_conn;
        self.finished_slots += 1;
    }

    fn count_error(&mut self, line: &str) {
        self.errors += 1;
        self.error_lines += 1;
        if self.error_lines <= MAX_ERROR_LINES {
            eprintln!("loadgen: {line}");
        }
    }

    fn expire_deadlines(&mut self, now: Instant) {
        let expired: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.deadline <= now)
            .map(|(t, _)| *t)
            .collect();
        for token in expired {
            self.close_conn(token);
            self.fail_slot_request(token as usize, "request timed out");
        }
    }

    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut timeout = Duration::from_millis(100);
        for conn in self.conns.values() {
            timeout = timeout.min(conn.deadline.saturating_duration_since(now));
        }
        timeout
    }
}

/// Byte-subsequence search (the head terminator is 4 bytes; no need
/// for anything cleverer).
fn find_subsequence(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The first `Name: value` line of a response head, case-insensitive
/// on the name.
fn header_value(head: &str, name: &str) -> Option<String> {
    head.lines().skip(1).find_map(|line| {
        let (n, v) = line.split_once(':')?;
        if n.eq_ignore_ascii_case(name) {
            Some(v.trim().to_string())
        } else {
            None
        }
    })
}

/// Drives the configured load from one thread and reports per-request
/// samples. Raises the process fd limit toward the fleet size first.
pub fn run_load(opts: &LoadOptions) -> LoadReport {
    let _ = raise_nofile_limit(opts.connections as u64 + FD_SLACK);
    let started = Instant::now();
    let mut engine = Engine {
        epoll: Epoll::new().expect("epoll_create1 failed"),
        opts,
        conns: HashMap::new(),
        done: vec![0; opts.connections],
        finished_slots: 0,
        samples: Vec::with_capacity(opts.connections * opts.requests_per_conn),
        errors: 0,
        reused: 0,
        error_lines: 0,
    };
    for slot in 0..opts.connections {
        engine.start_fresh(slot);
    }
    let mut events: Vec<Event> = Vec::new();
    while engine.finished_slots < opts.connections {
        let timeout = engine.next_timeout();
        let n = engine.epoll.wait(&mut events, Some(timeout)).unwrap_or(0);
        let ready: Vec<u64> = events.iter().take(n).map(|ev| ev.token).collect();
        for token in ready {
            engine.pump(token);
        }
        engine.expire_deadlines(Instant::now());
    }
    if engine.error_lines > MAX_ERROR_LINES {
        eprintln!(
            "loadgen: ... and {} more errors",
            engine.error_lines - MAX_ERROR_LINES
        );
    }
    LoadReport {
        samples: engine.samples,
        errors: engine.errors,
        elapsed: started.elapsed(),
        reused: engine.reused,
    }
}

/// The benchmark's target pool (the loadgen hot/cold mix): two
/// applications across window sizes, `[0]` hot.
fn pool() -> Vec<String> {
    let mut targets = Vec::new();
    for app in ["lu", "mp3d"] {
        for window in [16usize, 64, 256] {
            targets.push(format!("/v1/experiments?app={app}&window={window}"));
        }
    }
    targets
}

/// One measured cell of the transport comparison.
struct Cell {
    name: &'static str,
    transport: Transport,
    connections: usize,
    requests_per_conn: usize,
    keepalive: bool,
}

/// A cell's rendered result.
struct CellResult {
    name: &'static str,
    transport: &'static str,
    connections: usize,
    ok: usize,
    errors: u64,
    elapsed: f64,
    reused: u64,
    p50: u64,
    p95: u64,
    p99: u64,
    queue_p99: u64,
    service_p99: u64,
    completed: bool,
}

fn transport_name(t: Transport) -> &'static str {
    match t {
        Transport::Reactor => "reactor",
        Transport::Legacy => "legacy",
    }
}

/// Boots an in-process server over the shared (pre-warmed) service.
fn spawn_server(
    service: &Arc<ExperimentService>,
    transport: Transport,
) -> Option<(
    SocketAddr,
    ShutdownHandle,
    std::thread::JoinHandle<lookahead_serve::ServerStats>,
)> {
    let server = match Server::bind(ServerConfig {
        addr: "127.0.0.1:0".parse().expect("loopback"),
        threads: 4,
        transport,
        ..ServerConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind: {e}");
            return None;
        }
    };
    let addr = server.local_addr();
    let handle = server.handle();
    let service = Arc::clone(service);
    let join = std::thread::spawn(move || server.run(service));
    Some((addr, handle, join))
}

fn run_cell(
    service: &Arc<ExperimentService>,
    cell: &Cell,
    timeout: Duration,
) -> Option<CellResult> {
    let (addr, handle, join) = spawn_server(service, cell.transport)?;
    // A throwaway pass first: the measured run should see a server
    // whose worker pool, allocator, and accept path are warm, not the
    // process's first-ever dispatch.
    let _ = run_load(&LoadOptions {
        addr,
        connections: cell.connections.min(32),
        requests_per_conn: 1,
        keepalive: cell.keepalive,
        targets: pool(),
        request_timeout: timeout,
    });
    let opts = LoadOptions {
        addr,
        connections: cell.connections,
        requests_per_conn: cell.requests_per_conn,
        keepalive: cell.keepalive,
        targets: pool(),
        request_timeout: timeout,
    };
    let report = run_load(&opts);
    handle.shutdown();
    let _ = join.join();
    let latencies = report.sorted_latencies();
    let queue_waits = report.sorted_queue_waits();
    let services = report.sorted_services();
    let result = CellResult {
        name: cell.name,
        transport: transport_name(cell.transport),
        connections: cell.connections,
        ok: report.samples.len(),
        errors: report.errors,
        elapsed: report.elapsed.as_secs_f64(),
        reused: report.reused,
        p50: percentile(&latencies, 50.0),
        p95: percentile(&latencies, 95.0),
        p99: percentile(&latencies, 99.0),
        queue_p99: percentile(&queue_waits, 99.0),
        service_p99: percentile(&services, 99.0),
        completed: report.errors == 0,
    };
    eprintln!(
        "bench serve: {} [{} x{}]: {} ok, {} errors, p50={}us p99={}us, {:.2}s{}",
        result.name,
        result.transport,
        result.connections,
        result.ok,
        result.errors,
        result.p50,
        result.p99,
        result.elapsed,
        if result.completed {
            ""
        } else {
            " (did not complete cleanly)"
        },
    );
    Some(result)
}

fn render_json(
    tier: SizeTier,
    big: usize,
    cells: &[CellResult],
    keepalive_reuses: u64,
    coalescing_rate: f64,
    body_cache_rate: f64,
) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"serve\",");
    let _ = writeln!(out, "  \"tier\": \"{}\",", tier.name());
    let _ = writeln!(out, "  \"big_connections\": {big},");
    let _ = writeln!(out, "  \"keepalive_reuses\": {keepalive_reuses},");
    let _ = writeln!(out, "  \"coalescing_rate_pct\": {coalescing_rate:.1},");
    let _ = writeln!(out, "  \"body_cache_rate_pct\": {body_cache_rate:.1},");
    let reactor32 = cells.iter().find(|c| c.name == "reactor_32");
    let legacy32 = cells.iter().find(|c| c.name == "legacy_32");
    if let (Some(r), Some(l)) = (reactor32, legacy32) {
        let _ = writeln!(
            out,
            "  \"reactor_p99_le_legacy_p99_at_32\": {},",
            r.p99 <= l.p99
        );
    }
    let _ = writeln!(out, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": \"{}\",", c.name);
        let _ = writeln!(out, "      \"transport\": \"{}\",", c.transport);
        let _ = writeln!(out, "      \"connections\": {},", c.connections);
        let _ = writeln!(out, "      \"ok\": {},", c.ok);
        let _ = writeln!(out, "      \"errors\": {},", c.errors);
        let _ = writeln!(out, "      \"completed\": {},", c.completed);
        let _ = writeln!(out, "      \"seconds\": {:.4},", c.elapsed);
        let _ = writeln!(out, "      \"keepalive_reused\": {},", c.reused);
        let _ = writeln!(out, "      \"p50_us\": {},", c.p50);
        let _ = writeln!(out, "      \"p95_us\": {},", c.p95);
        let _ = writeln!(out, "      \"p99_us\": {},", c.p99);
        let _ = writeln!(out, "      \"queue_wait_p99_us\": {},", c.queue_p99);
        let _ = writeln!(out, "      \"service_p99_us\": {}", c.service_p99);
        let _ = write!(out, "    }}");
        let _ = writeln!(out, "{}", if i + 1 < cells.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ]");
    out.push_str("}\n");
    out
}

const USAGE: &str = "usage: lookahead bench serve [OPTIONS]

Benchmarks the serve transports against each other: one in-process
service (pre-warmed body memo, so transport cost dominates), four
cells — reactor and legacy at 32 connections, then at the big count.
The legacy transport is expected to shed most of the big run as 503s;
the JSON records it.

options:
  --connections N  the big-run connection count (default 1000)
  --requests N     requests per connection (default 4)
  --out PATH       result file (default: BENCH_serve.json)
  --timeout-s S    per-request deadline in seconds (default 30)
  -h, --help       show this help

environment: LOOKAHEAD_SMALL=1, LOOKAHEAD_PROCS=n, LOOKAHEAD_JOBS=n";

/// Entry point for `lookahead bench serve`.
pub fn serve_bench_main(args: &[String]) -> ExitCode {
    let mut big = 1000usize;
    let mut requests = 4usize;
    let mut out_path = "BENCH_serve.json".to_string();
    let mut timeout_s = 30u64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (key, mut value) = match a.split_once('=') {
            Some((k, v)) => (k, Some(v.to_string())),
            None => (a.as_str(), None),
        };
        let mut take = |it: &mut std::slice::Iter<String>| match value.take() {
            Some(v) => Some(v),
            None => it.next().cloned(),
        };
        match key {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--out" => match take(&mut it) {
                Some(v) => out_path = v,
                None => return usage_error("--out needs a value"),
            },
            "--connections" => match take(&mut it).and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => big = n,
                _ => return usage_error("--connections needs a positive integer"),
            },
            "--requests" => match take(&mut it).and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => requests = n,
                _ => return usage_error("--requests needs a positive integer"),
            },
            "--timeout-s" => match take(&mut it).and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => timeout_s = n,
                _ => return usage_error("--timeout-s needs a positive integer"),
            },
            other => return usage_error(&format!("unknown option {other:?}")),
        }
    }
    if !lookahead_serve::reactor::supported() {
        eprintln!("error: the reactor transport is unsupported on this platform");
        return ExitCode::FAILURE;
    }

    let tier = SizeTier::from_env();
    let jobs = crate::fail_fast(parallel::workers_from_env());
    let service = Arc::new(ExperimentService::new(
        ServiceConfig {
            default_tier: tier,
            sim: config_from_env(),
            retime_workers: jobs,
            ..ServiceConfig::default()
        },
        None,
    ));

    // Warm every target once (in-process) so the measured cells compare
    // transports, not cold simulations.
    eprintln!(
        "bench serve: tier {}, warming {} targets...",
        tier.name(),
        pool().len()
    );
    for target in pool() {
        let response = lookahead_serve::handle_target(&service, &target);
        if response.status != 200 {
            eprintln!("error: warmup {target} answered {}", response.status);
            return ExitCode::FAILURE;
        }
    }

    let timeout = Duration::from_secs(timeout_s);
    let cells = [
        Cell {
            name: "reactor_32",
            transport: Transport::Reactor,
            connections: 32,
            requests_per_conn: requests,
            keepalive: true,
        },
        Cell {
            name: "legacy_32",
            transport: Transport::Legacy,
            connections: 32,
            requests_per_conn: requests,
            keepalive: false,
        },
        Cell {
            name: "reactor_big",
            transport: Transport::Reactor,
            connections: big,
            requests_per_conn: requests,
            keepalive: true,
        },
        Cell {
            name: "legacy_big",
            transport: Transport::Legacy,
            connections: big,
            requests_per_conn: requests,
            keepalive: false,
        },
    ];
    let mut results = Vec::new();
    for cell in &cells {
        match run_cell(&service, cell, timeout) {
            Some(r) => results.push(r),
            None => return ExitCode::FAILURE,
        }
    }

    // Coalescing and reuse rates from the shared service's metrics.
    let metrics = lookahead_serve::handle_target(&service, "/metrics.json").body;
    let led = metric(&metrics, "serve.flights.led");
    let coalesced = metric(&metrics, "serve.flights.coalesced");
    let memoized = metric(&metrics, "serve.flights.memoized");
    let flights = led + coalesced + memoized;
    let pct = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            100.0 * part as f64 / whole as f64
        }
    };
    let keepalive_reuses = metric(&metrics, "serve.reactor.keepalive_reuses");

    let json = render_json(
        tier,
        big,
        &results,
        keepalive_reuses,
        pct(coalesced, flights),
        pct(coalesced + memoized, flights),
    );
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: failed to write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    let reactor32 = results.iter().find(|c| c.name == "reactor_32");
    let legacy32 = results.iter().find(|c| c.name == "legacy_32");
    if let (Some(r), Some(l)) = (reactor32, legacy32) {
        println!(
            "serve transports at 32 connections: reactor p99 {}us vs legacy p99 {}us; \
             big run ({big} connections): reactor {} ok / {} errors, legacy {} ok / {} errors",
            r.p99,
            l.p99,
            results
                .iter()
                .find(|c| c.name == "reactor_big")
                .map_or(0, |c| c.ok),
            results
                .iter()
                .find(|c| c.name == "reactor_big")
                .map_or(0, |c| c.errors),
            results
                .iter()
                .find(|c| c.name == "legacy_big")
                .map_or(0, |c| c.ok),
            results
                .iter()
                .find(|c| c.name == "legacy_big")
                .map_or(0, |c| c.errors),
        );
    }
    eprintln!("bench serve: wrote {out_path}");
    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<u64> = (0..=100).collect();
        assert_eq!(percentile(&sorted, 50.0), 50);
        assert_eq!(percentile(&sorted, 99.0), 99);
        assert_eq!(percentile(&sorted, 100.0), 100);
        assert_eq!(percentile(&[], 99.0), 0);
    }

    #[test]
    fn server_timing_parses_stage_durations() {
        let v = "queue;dur=0.042, parse;dur=0.003, handler;dur=12.8";
        assert_eq!(server_timing_us(v, "queue"), Some(42));
        assert_eq!(server_timing_us(v, "handler"), Some(12800));
        assert_eq!(server_timing_us(v, "write"), None);
    }

    #[test]
    fn header_value_is_case_insensitive_and_first_wins() {
        let head = "HTTP/1.1 200 OK\r\ncontent-length: 12\r\nConnection: close\r\n\r\n";
        assert_eq!(header_value(head, "Content-Length").as_deref(), Some("12"));
        assert_eq!(header_value(head, "connection").as_deref(), Some("close"));
        assert_eq!(header_value(head, "Server-Timing"), None);
    }

    #[test]
    fn engine_drives_keepalive_load_against_the_reactor() {
        let service = Arc::new(ExperimentService::new(ServiceConfig::default(), None));
        let (addr, handle, join) =
            spawn_server(&service, Transport::Reactor).expect("spawn server");
        let opts = LoadOptions {
            targets: vec!["/healthz".to_string()],
            ..LoadOptions::new(addr, 8, 3)
        };
        let report = run_load(&opts);
        handle.shutdown();
        let stats = join.join().unwrap();
        assert_eq!(report.errors, 0);
        assert_eq!(report.samples.len(), 8 * 3);
        // Every slot reused its connection for requests 2..N.
        assert_eq!(report.reused, 8 * 2);
        assert_eq!(stats.accepted, 8, "keep-alive means one accept per slot");
        assert_eq!(stats.served, 24);
    }

    #[test]
    fn engine_reconnects_per_request_without_keepalive() {
        let service = Arc::new(ExperimentService::new(ServiceConfig::default(), None));
        let (addr, handle, join) = spawn_server(&service, Transport::Legacy).expect("spawn server");
        let opts = LoadOptions {
            keepalive: false,
            targets: vec!["/healthz".to_string()],
            ..LoadOptions::new(addr, 4, 2)
        };
        let report = run_load(&opts);
        handle.shutdown();
        let stats = join.join().unwrap();
        assert_eq!(report.errors, 0);
        assert_eq!(report.samples.len(), 8);
        assert_eq!(report.reused, 0);
        assert_eq!(stats.accepted, 8, "one connection per request");
    }
}
