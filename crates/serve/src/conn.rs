//! The reactor transport: per-connection state machines multiplexed
//! onto one epoll thread, with handler compute on the worker pool.
//!
//! This is the paper's thesis applied to the serve tier. A
//! thread-per-connection server parks a whole OS thread per
//! connection — one outstanding "operation" per context, exactly the
//! blocking-issue model the paper argues against. Here each connection
//! is a small explicit state machine (the serve-tier analog of a
//! reorder-buffer entry):
//!
//! ```text
//! Reading → Dispatched → Writing → Idle (keep-alive) ↺ / Closed
//! ```
//!
//! * **Reading** — the connection owns a resumable
//!   [`HeadParser`]; bytes are fed as they
//!   arrive and the state survives `EAGAIN`. A per-request
//!   header-completion deadline (the slow-loris fix) bounds how long a
//!   stalled client may hold the state, and it costs a table entry,
//!   not a worker.
//! * **Dispatched** — the parsed request sits in the job queue or in a
//!   handler on the worker pool. The reactor drops all readiness
//!   interest (pipelined bytes stay buffered) and waits for the
//!   completion, which arrives over a shared vector plus an `eventfd`
//!   wake.
//! * **Writing** — the worker hands back the whole response (head and
//!   `Content-Length` body) as one buffer, which flushes as `EPOLLOUT`
//!   allows; a slow client holds that buffer, never a worker.
//! * **Idle** — HTTP/1.1 keep-alive: the connection returns to the
//!   table awaiting the next request (or a pipelined one already
//!   buffered), bounded by an idle deadline.
//!
//! Backpressure is a bound on **open connections** (`max_connections`):
//! the dispatch queue needs no separate bound because each connection
//! has at most one request in flight, so it is bounded by the
//! connection cap already. Beyond the cap, a new connection gets
//! `503 + Retry-After` and is closed.
//!
//! Graceful drain is a state-machine property: stop accepting, close
//! idle connections, let mid-request and mid-write connections finish
//! (their deadlines bound the wait), then close the job queue and join
//! the workers.

use crate::http::{self, HeadParser, Request, RequestError};
use crate::reactor::{Epoll, Event, Waker};
use crate::server::{error_response, overloaded, server_timing, ServerConfig, ServerStats};
use crate::service::ExperimentService;
use crate::signal::sigint_received;
use lookahead_obs::log;
use lookahead_obs::span::{self, TraceContext, TraceScope};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const TOK_LISTENER: u64 = 0;
const TOK_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// The reactor never sleeps longer than this so the shutdown flag (and
/// SIGINT) is observed promptly even with no traffic.
const SHUTDOWN_POLL: Duration = Duration::from_millis(50);

/// Per-connection lifecycle. `Closed` from the doc diagram is not a
/// variant: a closed connection leaves the table entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Reading,
    Dispatched,
    Writing,
    Idle,
}

/// Why the response write finished — carries what the transport must
/// record once the last byte is flushed.
enum Finish {
    /// A handled request with a full trace: close the span tree and
    /// file it.
    Traced {
        ctx: TraceContext,
        root: u32,
        path: String,
        status: u16,
        write_start_us: u64,
        popped: Instant,
    },
    /// A transport-level response (parse error, 408): only the
    /// latency histogram is recorded.
    Plain { start: Instant },
}

/// Pending response bytes for one connection.
struct WriteState {
    buf: Vec<u8>,
    at: usize,
    close_after: bool,
    finish: Finish,
}

struct Conn {
    stream: TcpStream,
    state: State,
    parser: HeadParser,
    write: Option<WriteState>,
    /// When reading of the *current* request began — the trace epoch
    /// and the base of the header-completion deadline.
    request_start: Instant,
    deadline: Option<Instant>,
    /// Requests completed on this connection (keep-alive reuse count).
    served: u64,
    /// Interest currently registered with epoll; `None` when the fd is
    /// deregistered (dispatched, or hangup observed).
    interest: Option<(bool, bool)>,
}

/// One parsed request travelling to the worker pool.
struct Job {
    token: u64,
    request: Request,
    request_start: Instant,
    parse_us: u64,
    dispatched: Instant,
    reused: bool,
}

/// A worker's finished response travelling back to the reactor.
struct Completion {
    token: u64,
    /// Response head plus body, ready for the wire.
    bytes: Vec<u8>,
    close_after: bool,
    finish: Finish,
}

/// The blocking hand-off from the reactor to the handler workers.
/// Unbounded by construction: at most one job per open connection, and
/// open connections are capped.
struct JobQueue {
    state: Mutex<(VecDeque<Job>, bool)>,
    ready: Condvar,
}

impl JobQueue {
    fn new() -> JobQueue {
        JobQueue {
            state: Mutex::new((VecDeque::new(), false)),
            ready: Condvar::new(),
        }
    }

    fn push(&self, job: Job) {
        self.state
            .lock()
            .expect("job queue poisoned")
            .0
            .push_back(job);
        self.ready.notify_one();
    }

    fn pop(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("job queue poisoned");
        loop {
            if let Some(job) = state.0.pop_front() {
                return Some(job);
            }
            if state.1 {
                return None;
            }
            state = self.ready.wait(state).expect("job queue poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("job queue poisoned").1 = true;
        self.ready.notify_all();
    }
}

/// The reactor's kernel objects: the epoll instance with the listener
/// and the completion waker already registered. Created by
/// [`Server::bind`](crate::server::Server::bind), so a setup failure
/// is an error before the address is announced.
pub(crate) struct Poller {
    epoll: Epoll,
    waker: Arc<Waker>,
}

impl Poller {
    /// Creates the epoll instance and the waker and registers both
    /// with the (nonblocking) listener.
    pub(crate) fn new(listener: &TcpListener) -> io::Result<Poller> {
        let epoll = Epoll::new()?;
        let waker = Arc::new(Waker::new()?);
        epoll.add(listener.as_raw_fd(), TOK_LISTENER, true, false)?;
        epoll.add(waker.fd(), TOK_WAKER, true, false)?;
        Ok(Poller { epoll, waker })
    }
}

/// Runs the reactor until shutdown, returning the server stats.
pub(crate) fn run_reactor(
    listener: &TcpListener,
    poller: Poller,
    config: &ServerConfig,
    shutdown: &Arc<AtomicBool>,
    service: &Arc<ExperimentService>,
) -> ServerStats {
    let Poller { epoll, waker } = poller;
    let jobs = Arc::new(JobQueue::new());
    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));

    let mut r = Reactor {
        epoll,
        listener,
        conns: HashMap::new(),
        next_token: FIRST_CONN_TOKEN,
        stats: ServerStats::default(),
        eagain: 0,
        draining: false,
        config,
        service,
        jobs: Arc::clone(&jobs),
    };

    std::thread::scope(|scope| {
        for i in 0..config.threads.max(1) {
            let jobs = Arc::clone(&jobs);
            let completions = Arc::clone(&completions);
            let waker = Arc::clone(&waker);
            let service = Arc::clone(service);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn_scoped(scope, move || {
                    worker_loop(&jobs, &completions, &waker, &service)
                })
                .expect("spawn worker");
        }

        let mut events: Vec<Event> = Vec::new();
        loop {
            if !r.draining
                && (shutdown.load(Ordering::SeqCst) || (config.watch_sigint && sigint_received()))
            {
                r.begin_drain();
            }
            if r.draining && r.conns.is_empty() {
                break;
            }

            let timeout = r.next_timeout();
            let n = r.epoll.wait(&mut events, Some(timeout)).unwrap_or_default();
            let mut wakeups = 0u64;
            for &ev in events.iter().take(n) {
                match ev.token {
                    TOK_LISTENER => r.accept_ready(),
                    TOK_WAKER => {
                        waker.drain();
                        wakeups += 1;
                    }
                    token => r.conn_event(token, ev),
                }
            }

            // Completions are checked every round: the waker may have
            // been consumed by an earlier iteration and coalesced wakes
            // must not strand a response.
            let ready = std::mem::take(&mut *completions.lock().expect("completions poisoned"));
            for c in ready {
                r.queue_write(c.token, c.bytes, c.close_after, c.finish);
            }
            r.expire_deadlines(Instant::now());

            service.set_open_connections(r.conns.len() as u64);
            let eagain = std::mem::take(&mut r.eagain);
            service.record_reactor_tick(n as u64, wakeups, eagain);
        }

        jobs.close();
    });

    service.set_open_connections(0);
    r.stats
}

/// Handler workers: pop a job, run the service, push the completion.
fn worker_loop(
    jobs: &JobQueue,
    completions: &Mutex<Vec<Completion>>,
    waker: &Waker,
    service: &Arc<ExperimentService>,
) {
    while let Some(job) = jobs.pop() {
        let popped = Instant::now();
        let queue_us = popped.duration_since(job.dispatched).as_micros() as u64;
        service.record_queue_wait(queue_us);
        let rid = job
            .request
            .request_id
            .clone()
            .unwrap_or_else(span::next_request_id);
        let ctx = TraceContext::with_epoch(rid.clone(), job.request_start);
        let root = ctx.alloc_id();
        // Bytes are parsed *before* the dispatch queue, so `parse`
        // precedes `queue` on the request's timeline.
        ctx.record("parse", root, 0, job.parse_us);
        ctx.record("queue", root, job.parse_us, queue_us);
        if job.reused {
            // Stitch the connection's history into the request tree: a
            // zero-length marker span naming the reuse ordinal.
            ctx.record("conn.reuse", root, 0, 0);
            service.record_keepalive_reuse();
        }
        let prev = span::set_scope(Some(TraceScope::new(ctx.clone(), root)));
        let mut response = span::record_current("handler", || service.handle(&job.request));
        span::set_scope(prev);
        response.request_id = Some(rid);
        response.server_timing = Some(server_timing(&ctx, root));

        let close_after = !job.request.keep_alive;
        let write_start_us = ctx.now_us();
        let completion = Completion {
            token: job.token,
            bytes: http::response_bytes(&response, close_after),
            close_after,
            finish: Finish::Traced {
                ctx,
                root,
                path: job.request.path,
                status: response.status,
                write_start_us,
                popped,
            },
        };
        completions
            .lock()
            .expect("completions poisoned")
            .push(completion);
        waker.wake();
    }
}

/// The single-threaded event loop's working state. All I/O happens
/// here; the only cross-thread traffic is jobs out, completions back,
/// and the eventfd wake.
struct Reactor<'a> {
    epoll: Epoll,
    listener: &'a TcpListener,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    stats: ServerStats,
    eagain: u64,
    draining: bool,
    config: &'a ServerConfig,
    service: &'a Arc<ExperimentService>,
    jobs: Arc<JobQueue>,
}

/// One step of the write pump; computed under a short connection
/// borrow, acted on without it.
enum WriteStep {
    Progress,
    Blocked,
    Finished,
    Dead,
}

impl Reactor<'_> {
    /// Stops accepting and closes idle connections; mid-request and
    /// mid-write connections finish (bounded by their deadlines).
    fn begin_drain(&mut self) {
        self.draining = true;
        let _ = self.epoll.delete(self.listener.as_raw_fd());
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.state == State::Idle)
            .map(|(t, _)| *t)
            .collect();
        for token in idle {
            self.close_conn(token, false);
        }
    }

    /// Sleep no longer than the nearest deadline (or the shutdown
    /// poll tick).
    fn next_timeout(&self) -> Duration {
        let now = Instant::now();
        let mut timeout = SHUTDOWN_POLL;
        for conn in self.conns.values() {
            if let Some(d) = conn.deadline {
                timeout = timeout.min(d.saturating_duration_since(now));
            }
        }
        timeout
    }

    /// Accepts until the listener runs dry.
    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    self.stats.accepted += 1;
                    if self.draining {
                        continue;
                    }
                    if self.conns.len() >= self.config.max_connections {
                        self.reject_conn(stream);
                        continue;
                    }
                    if stream.set_nonblocking(true).is_err() {
                        self.stats.aborted += 1;
                        continue;
                    }
                    let token = self.next_token;
                    self.next_token += 1;
                    let now = Instant::now();
                    let conn = Conn {
                        stream,
                        state: State::Reading,
                        parser: HeadParser::new(),
                        write: None,
                        request_start: now,
                        // The header-completion deadline starts at
                        // accept: a silent client gets a 408.
                        deadline: Some(now + self.config.read_timeout),
                        served: 0,
                        interest: None,
                    };
                    if self
                        .epoll
                        .add(conn.stream.as_raw_fd(), token, true, false)
                        .is_ok()
                    {
                        let mut conn = conn;
                        conn.interest = Some((true, false));
                        self.conns.insert(token, conn);
                    } else {
                        self.stats.aborted += 1;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.eagain += 1;
                    return;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // A failed accept (e.g. fd exhaustion) is not fatal.
                Err(_) => return,
            }
        }
    }

    /// The connection-cap rejection: best-effort 503 +
    /// `Retry-After`, then close.
    fn reject_conn(&mut self, mut stream: TcpStream) {
        self.stats.rejected += 1;
        self.service.record_rejected();
        let rid = span::next_request_id();
        log::warn(
            "serve.http",
            "connection cap reached; rejecting with 503",
            &[
                ("request_id", &rid),
                ("max_connections", &self.config.max_connections.to_string()),
            ],
        );
        let mut response = overloaded();
        response.request_id = Some(rid);
        let bytes = http::response_bytes(&response, true);
        // Nonblocking so a zero-window client cannot stall the
        // reactor; the tiny response almost always fits the send
        // buffer, and an overloaded server does not retry.
        let _ = stream.set_nonblocking(true);
        let _ = stream.write_all(&bytes);
    }

    fn conn_event(&mut self, token: u64, ev: Event) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.state {
            State::Reading | State::Idle => {
                if ev.readable {
                    self.try_read(token);
                }
            }
            State::Writing => {
                if ev.hangup {
                    // Quiesce the fd: a fully-closed peer would
                    // otherwise deliver a level-triggered HUP storm.
                    // The write pump re-registers interest if it
                    // blocks.
                    if conn.interest.take().is_some() {
                        let _ = self.epoll.delete(conn.stream.as_raw_fd());
                    }
                }
                if ev.writable || ev.hangup {
                    self.try_write(token);
                }
            }
            State::Dispatched => {
                if ev.hangup && conn.interest.take().is_some() {
                    // Same storm avoidance; the completion's write
                    // will observe the failure and abort.
                    let _ = self.epoll.delete(conn.stream.as_raw_fd());
                }
            }
        }
    }

    /// Reads until `EAGAIN`, feeding the connection's parser; a
    /// completed head dispatches, a parse error answers its 4xx, EOF
    /// closes.
    fn try_read(&mut self, token: u64) {
        enum ReadOutcome {
            More,
            Stop,
            Dispatch(Request),
            Fail(RequestError),
            Close { aborted: bool },
        }
        let mut buf = [0u8; 4096];
        loop {
            let outcome = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        if conn.parser.has_buffered() {
                            ReadOutcome::Fail(RequestError::BadRequest(
                                "truncated request head".into(),
                            ))
                        } else {
                            // A keep-alive client closing between
                            // requests is clean; EOF before the first
                            // request ever arrived counts as aborted.
                            ReadOutcome::Close {
                                aborted: conn.served == 0,
                            }
                        }
                    }
                    Ok(n) => {
                        if conn.state == State::Idle {
                            // First byte of the next request: back to
                            // Reading with a fresh trace epoch and
                            // header deadline.
                            let now = Instant::now();
                            conn.state = State::Reading;
                            conn.request_start = now;
                            conn.deadline = Some(now + self.config.read_timeout);
                        }
                        match conn.parser.feed(&buf[..n]) {
                            Ok(Some(request)) => ReadOutcome::Dispatch(request),
                            Ok(None) => ReadOutcome::More,
                            Err(e) => ReadOutcome::Fail(e),
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        self.eagain += 1;
                        ReadOutcome::Stop
                    }
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => ReadOutcome::More,
                    Err(_) => ReadOutcome::Close { aborted: true },
                }
            };
            match outcome {
                ReadOutcome::More => {}
                ReadOutcome::Stop => return,
                ReadOutcome::Dispatch(request) => {
                    self.dispatch(token, request);
                    return;
                }
                ReadOutcome::Fail(e) => {
                    self.fail_request(token, e);
                    return;
                }
                ReadOutcome::Close { aborted } => {
                    self.close_conn(token, aborted);
                    return;
                }
            }
        }
    }

    /// Hands a parsed request to the worker pool and parks the
    /// connection (no readiness interest) until the completion comes
    /// back.
    fn dispatch(&mut self, token: u64, request: Request) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.state = State::Dispatched;
        conn.deadline = None;
        let parse_us = conn.request_start.elapsed().as_micros() as u64;
        let reused = conn.served > 0;
        if conn.interest.is_some() && conn.interest != Some((false, false)) {
            let _ = self
                .epoll
                .modify(conn.stream.as_raw_fd(), token, false, false);
            conn.interest = Some((false, false));
        }
        let request_start = conn.request_start;
        self.jobs.push(Job {
            token,
            request,
            request_start,
            parse_us,
            dispatched: Instant::now(),
            reused,
        });
    }

    /// Answers a transport-level failure (parse error, timeout) with
    /// its status and closes after the write; pure I/O failures close
    /// silently.
    fn fail_request(&mut self, token: u64, e: RequestError) {
        let Some(status) = e.status() else {
            self.close_conn(token, true);
            return;
        };
        let Some(conn) = self.conns.get(&token) else {
            return;
        };
        let start = conn.request_start;
        let rid = span::next_request_id();
        log::warn(
            "serve.http",
            "request parse failed",
            &[
                ("request_id", &rid),
                ("status", &status.to_string()),
                ("error", &format!("{e:?}")),
            ],
        );
        let mut response = error_response(status, &e);
        response.request_id = Some(rid);
        let bytes = http::response_bytes(&response, true);
        self.queue_write(token, bytes, true, Finish::Plain { start });
    }

    /// Installs response bytes on the connection and starts flushing.
    fn queue_write(&mut self, token: u64, bytes: Vec<u8>, close_after: bool, finish: Finish) {
        // The connection may have died while its request was in flight.
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.state = State::Writing;
        conn.deadline = Some(Instant::now() + self.config.write_timeout);
        conn.write = Some(WriteState {
            buf: bytes,
            at: 0,
            close_after,
            finish,
        });
        self.try_write(token);
    }

    /// Flushes as much of the pending response as the socket takes.
    fn try_write(&mut self, token: u64) {
        loop {
            let step = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                let Some(w) = conn.write.as_mut() else {
                    return;
                };
                if w.at < w.buf.len() {
                    match conn.stream.write(&w.buf[w.at..]) {
                        Ok(0) => WriteStep::Dead,
                        Ok(n) => {
                            w.at += n;
                            // Progress refreshes the write deadline
                            // (a per-write timeout).
                            conn.deadline = Some(Instant::now() + self.config.write_timeout);
                            WriteStep::Progress
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => WriteStep::Blocked,
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => WriteStep::Progress,
                        Err(_) => WriteStep::Dead,
                    }
                } else {
                    WriteStep::Finished
                }
            };
            match step {
                WriteStep::Progress => {}
                WriteStep::Blocked => {
                    self.eagain += 1;
                    self.set_interest(token, false, true);
                    return;
                }
                WriteStep::Finished => {
                    self.finish_write(token);
                    return;
                }
                WriteStep::Dead => {
                    self.close_conn(token, true);
                    return;
                }
            }
        }
    }

    /// The response is fully flushed: record the trace, then keep the
    /// connection alive (possibly straight into a pipelined request)
    /// or close it.
    fn finish_write(&mut self, token: u64) {
        let finished = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let Some(w) = conn.write.take() else {
                return;
            };
            conn.served += 1;
            conn.deadline = None;
            w
        };
        match finished.finish {
            Finish::Traced {
                ctx,
                root,
                path,
                status,
                write_start_us,
                popped,
            } => {
                ctx.record(
                    "write",
                    root,
                    write_start_us,
                    ctx.now_us().saturating_sub(write_start_us),
                );
                ctx.record("request", 0, 0, ctx.now_us());
                self.service.finish_request(&ctx, &path, status);
                self.service
                    .record_http(popped.elapsed().as_micros() as u64);
            }
            Finish::Plain { start } => {
                self.service.record_http(start.elapsed().as_micros() as u64);
            }
        }
        self.stats.served += 1;
        if finished.close_after || self.draining {
            self.close_conn(token, false);
            return;
        }
        // Keep-alive: a pipelined request may already be buffered.
        let next = {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            conn.parser.advance()
        };
        match next {
            Ok(Some(request)) => {
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.state = State::Reading;
                    conn.request_start = Instant::now();
                }
                self.dispatch(token, request);
            }
            Ok(None) => {
                let now = Instant::now();
                if let Some(conn) = self.conns.get_mut(&token) {
                    if conn.parser.has_buffered() {
                        // A partial next request is already here: it
                        // is mid-request, deadline and all.
                        conn.state = State::Reading;
                        conn.request_start = now;
                        conn.deadline = Some(now + self.config.read_timeout);
                    } else {
                        conn.state = State::Idle;
                        conn.deadline = Some(now + self.config.keepalive_timeout);
                    }
                }
                self.set_interest(token, true, false);
            }
            Err(e) => self.fail_request(token, e),
        }
    }

    fn expire_deadlines(&mut self, now: Instant) {
        let expired: Vec<(u64, State)> = self
            .conns
            .iter()
            .filter(|(_, c)| c.deadline.is_some_and(|d| d <= now))
            .map(|(t, c)| (*t, c.state))
            .collect();
        for (token, state) in expired {
            match state {
                // The header-completion deadline: stalled mid-head (or
                // silent) clients get a 408 from a table scan instead
                // of holding a worker hostage.
                State::Reading => self.fail_request(token, RequestError::Timeout),
                // An idle keep-alive connection expiring is routine.
                State::Idle => self.close_conn(token, false),
                State::Writing => self.close_conn(token, true),
                State::Dispatched => {}
            }
        }
    }

    fn set_interest(&mut self, token: u64, readable: bool, writable: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        if conn.interest == Some((readable, writable)) {
            return;
        }
        let fd = conn.stream.as_raw_fd();
        let result = match conn.interest {
            None => self.epoll.add(fd, token, readable, writable),
            Some(_) => self.epoll.modify(fd, token, readable, writable),
        };
        if result.is_ok() {
            conn.interest = Some((readable, writable));
        }
    }

    fn close_conn(&mut self, token: u64, aborted: bool) {
        let Some(conn) = self.conns.remove(&token) else {
            return;
        };
        if conn.interest.is_some() {
            let _ = self.epoll.delete(conn.stream.as_raw_fd());
        }
        if aborted {
            self.stats.aborted += 1;
        }
    }
}
