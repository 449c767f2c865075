//! The HTTP server: owns the listener and the epoll reactor that
//! serves every connection ([`crate::conn`]): one event-loop thread
//! multiplexes thousands of nonblocking keep-alive connections, and a
//! small worker pool runs only handler compute.
//!
//! [`Server::bind`] creates the listener and the reactor's kernel
//! objects (epoll instance, completion waker, both registrations), so
//! every setup failure — descriptor exhaustion, or a target without
//! epoll — is an `io::Error` before the caller announces the address.
//!
//! Backpressure is a connection cap (`max_connections`): each
//! connection has at most one request in flight, so the dispatch queue
//! is bounded by the connection table, and a connection beyond the cap
//! is answered `503` with `Retry-After` at accept.
//!
//! Shutdown (a [`ShutdownHandle`] or, opt-in, SIGINT) is graceful:
//! stop accepting, finish what is in flight, join the workers, and
//! `run` returns with the final stats.

use crate::conn::Poller;
use crate::http::{RequestError, Response};
use crate::service::ExperimentService;
use crate::signal::sigint_received;
use lookahead_obs::json::JsonObject;
use lookahead_obs::span::TraceContext;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Address to bind; port 0 lets the OS pick (see
    /// [`Server::local_addr`]).
    pub addr: SocketAddr,
    /// Handler worker threads. They run only handler compute; all
    /// socket I/O stays on the event loop.
    pub threads: usize,
    /// Per-connection header-completion deadline: a connection that
    /// has not produced a full request head within it gets a 408, so
    /// slow-loris clients cannot park forever.
    pub read_timeout: Duration,
    /// Per-connection write deadline, refreshed on every write that
    /// makes progress.
    pub write_timeout: Duration,
    /// Whether the event loop also treats SIGINT (via
    /// [`crate::signal`]) as a shutdown request. Off by default so
    /// in-process servers in tests are not shut down by the signal
    /// test's flag; the `lookahead serve` binary turns it on.
    pub watch_sigint: bool,
    /// Open-connection cap. New connections beyond it are answered
    /// 503 + `Retry-After` at accept and closed.
    pub max_connections: usize,
    /// How long an idle keep-alive connection is kept open before the
    /// server closes it.
    pub keepalive_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: crate::knobs::DEFAULT_ADDR.parse().expect("default addr"),
            threads: 4,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            watch_sigint: false,
            max_connections: 4096,
            keepalive_timeout: Duration::from_secs(5),
        }
    }
}

/// Counters the server reports when `run` returns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections accepted (including ones later rejected 503).
    pub accepted: u64,
    /// Requests answered (handled requests and transport-level error
    /// responses alike).
    pub served: u64,
    /// Connections answered 503 because they arrived beyond
    /// `max_connections`.
    pub rejected: u64,
    /// Connections that failed before a response could be written
    /// (peer vanished, I/O error).
    pub aborted: u64,
}

/// Asks a running [`Server`] to shut down gracefully; cloneable and
/// usable from any thread.
#[derive(Clone)]
pub struct ShutdownHandle(Arc<AtomicBool>);

impl ShutdownHandle {
    /// Requests a graceful drain: stop accepting, finish what is in
    /// flight, join the workers.
    pub fn shutdown(&self) {
        self.0.store(true, Ordering::SeqCst);
    }

    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.0.load(Ordering::SeqCst)
    }
}

/// The HTTP server: owns the listener and the reactor's kernel
/// objects; [`run`](Server::run) adds the worker pool.
pub struct Server {
    listener: TcpListener,
    poller: Poller,
    local_addr: SocketAddr,
    config: ServerConfig,
    shutdown: Arc<AtomicBool>,
}

impl Server {
    /// Binds the configured address (nonblocking) and sets up the
    /// reactor, without serving yet.
    ///
    /// # Errors
    ///
    /// Propagates bind failures and reactor setup failures (descriptor
    /// exhaustion, or `Unsupported` on a target without epoll).
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(config.addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Poller::new(&listener)?;
        Ok(Server {
            listener,
            poller,
            local_addr,
            config,
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A handle that can request a graceful shutdown from any thread.
    pub fn handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shutdown))
    }

    /// Serves until shutdown is requested, then drains and returns the
    /// server stats. Consumes the server (the listener closes on
    /// return).
    pub fn run(self, service: Arc<ExperimentService>) -> ServerStats {
        let Server {
            listener,
            poller,
            config,
            shutdown,
            ..
        } = self;
        let mut stats = ServerStats::default();
        std::thread::scope(|scope| {
            // Speculative pre-warm: strictly idle-priority. The thread
            // only computes a predicted body when no client request is
            // in flight (or being written), and parks otherwise; it
            // observes the same shutdown signals as the event loop.
            if service.prewarm_enabled() {
                let service = Arc::clone(&service);
                let shutdown = Arc::clone(&shutdown);
                let watch_sigint = config.watch_sigint;
                std::thread::Builder::new()
                    .name("serve-prewarm".to_string())
                    .spawn_scoped(scope, move || loop {
                        if shutdown.load(Ordering::SeqCst) || (watch_sigint && sigint_received()) {
                            return;
                        }
                        let worked = service.idle() && service.prewarm_tick();
                        if !worked {
                            std::thread::sleep(Duration::from_millis(10));
                        }
                    })
                    .expect("spawn prewarm");
            }

            stats = crate::conn::run_reactor(&listener, poller, &config, &shutdown, &service);
            // Make shutdown visible to the pre-warm thread even when
            // it was requested via SIGINT rather than the handle.
            shutdown.store(true, Ordering::SeqCst);
        });
        stats
    }
}

/// The canned backpressure response for connections beyond the cap.
pub(crate) fn overloaded() -> Response {
    Response {
        retry_after: Some(1),
        ..Response::json(
            503,
            JsonObject::render(|o| {
                o.str("error", "server overloaded, retry shortly");
            }),
        )
    }
}

/// Renders a `Server-Timing` header value from the root-level
/// transport spans (`queue`, `parse`, `handler`), in span order, as
/// `name;dur=<ms>` entries. Nested handler work stays out of the
/// header (it is in the trace); clients get the coarse where-did-the-
/// time-go split without asking for the full tree.
pub(crate) fn server_timing(ctx: &TraceContext, root: u32) -> String {
    let mut parts = Vec::new();
    for s in ctx.spans() {
        if s.parent == root && matches!(s.name.as_str(), "queue" | "parse" | "handler") {
            parts.push(format!("{};dur={:.3}", s.name, s.dur_us as f64 / 1000.0));
        }
    }
    parts.join(", ")
}

pub(crate) fn error_response(status: u16, e: &RequestError) -> Response {
    let message = match e {
        RequestError::BadRequest(m) => m.clone(),
        RequestError::MethodNotAllowed(m) => format!("method {m} not allowed; use GET"),
        RequestError::UriTooLong => "request line too long".into(),
        RequestError::HeadersTooLarge => "too many or too large headers".into(),
        RequestError::BodyUnsupported => "request bodies are not accepted".into(),
        RequestError::Timeout => "timed out reading the request".into(),
        RequestError::Io(e) => e.to_string(),
    };
    Response::json(
        status,
        JsonObject::render(|o| {
            o.str("error", &message);
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use std::io::{Read as _, Write as _};
    use std::net::TcpStream;

    fn spawn_server(
        config: ServerConfig,
    ) -> (
        SocketAddr,
        ShutdownHandle,
        std::thread::JoinHandle<ServerStats>,
    ) {
        let service = Arc::new(ExperimentService::new(ServiceConfig::default(), None));
        let server = Server::bind(config).unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run(service));
        (addr, handle, join)
    }

    fn get(addr: SocketAddr, target: &str) -> (u16, String) {
        let mut conn = TcpStream::connect(addr).unwrap();
        write!(
            conn,
            "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut text = String::new();
        conn.read_to_string(&mut text).unwrap();
        let status = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    fn local_config() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            threads: 2,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn serves_health_and_drains_on_shutdown() {
        let (addr, handle, join) = spawn_server(local_config());
        let (status, body) = get(addr, "/healthz");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"status\":\"ok\"}");
        handle.shutdown();
        let stats = join.join().unwrap();
        assert_eq!(stats.served, 1);
        assert_eq!(stats.rejected, 0);
    }

    #[test]
    fn unknown_route_is_404_and_bad_bytes_400() {
        let (addr, handle, join) = spawn_server(local_config());
        let (status, _) = get(addr, "/nope");
        assert_eq!(status, 404);

        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"\x01\x02garbage\r\n\r\n").unwrap();
        let mut text = String::new();
        conn.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 400 "), "{text}");

        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn slow_client_gets_408_not_a_stuck_worker() {
        let (addr, handle, join) = spawn_server(ServerConfig {
            read_timeout: Duration::from_millis(50),
            ..local_config()
        });
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(b"GET /healthz HTT").unwrap(); // ...and stall.
        let mut text = String::new();
        conn.read_to_string(&mut text).unwrap();
        assert!(text.starts_with("HTTP/1.1 408 "), "{text}");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn shutdown_with_no_traffic_exits_promptly() {
        let (_addr, handle, join) = spawn_server(local_config());
        handle.shutdown();
        let stats = join.join().unwrap();
        assert_eq!(stats, ServerStats::default());
    }

    #[test]
    fn reactor_keeps_connections_alive_across_requests() {
        let (addr, handle, join) = spawn_server(local_config());
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = std::io::BufReader::new(conn.try_clone().unwrap());
        for _ in 0..3 {
            write!(conn, "GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
            let (head, body) = read_one_response(&mut reader);
            assert!(head.starts_with("HTTP/1.1 200 "), "{head}");
            assert!(head.contains("Connection: keep-alive"), "{head}");
            assert_eq!(body, "{\"status\":\"ok\"}");
        }
        drop(conn);
        drop(reader);
        handle.shutdown();
        let stats = join.join().unwrap();
        assert_eq!(stats.accepted, 1, "one connection carried all requests");
        assert_eq!(stats.served, 3);
        assert_eq!(stats.aborted, 0, "client close between requests is clean");
    }

    /// Reads exactly one `Content-Length`-framed response off a
    /// keep-alive connection.
    fn read_one_response(reader: &mut impl std::io::BufRead) -> (String, String) {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .expect("content-length")
            .trim()
            .parse()
            .unwrap();
        let mut body = vec![0u8; len];
        reader.read_exact(&mut body).unwrap();
        (head, String::from_utf8(body).unwrap())
    }
}
