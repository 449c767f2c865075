//! The nonblocking many-connection load engine behind `loadgen`.
//!
//! The engine drives N concurrent HTTP/1.1 connections from **one
//! thread** using the same raw-syscall epoll wrapper the server's
//! reactor is built on ([`lookahead_serve::reactor`]): every client
//! socket is nonblocking, a per-slot state machine walks
//! send-request → read-response → (keep-alive reuse | reconnect), and
//! completion is detected from the response framing (`Content-Length`,
//! or connection close for a head without one). Thread-per-client load
//! generation tops out around the machine's thread budget; this engine
//! holds thousands of sockets open at once, which is exactly the
//! regime the reactor exists for.

use lookahead_serve::reactor::{raise_nofile_limit, Epoll, Event};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
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
    /// reconnects per request.
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
                            if conn.head_end.is_some() && conn.content_length.is_none() {
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
                                    conn.close_framed = header_value(&head, "Connection")
                                        .is_some_and(|v| v.trim().eq_ignore_ascii_case("close"));
                                }
                            }
                            match (conn.head_end, conn.content_length) {
                                (Some(end), Some(cl)) if conn.inbuf.len() >= end + cl => {
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

#[cfg(test)]
mod tests {
    use super::*;
    use lookahead_serve::{
        ExperimentService, Server, ServerConfig, ServerStats, ServiceConfig, ShutdownHandle,
    };
    use std::sync::Arc;

    /// Boots an in-process server on a free loopback port.
    fn spawn_server() -> (
        SocketAddr,
        ShutdownHandle,
        std::thread::JoinHandle<ServerStats>,
    ) {
        let service = Arc::new(ExperimentService::new(ServiceConfig::default(), None));
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".parse().expect("loopback"),
            ..ServerConfig::default()
        })
        .expect("bind");
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run(service));
        (addr, handle, join)
    }

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
        let (addr, handle, join) = spawn_server();
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
        let (addr, handle, join) = spawn_server();
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
