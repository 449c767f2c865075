//! `lookahead-serve`: the experiment suite as a concurrent service.
//!
//! The simulation stack underneath is expensive to run and perfectly
//! cacheable — the same query always produces the same bytes. This
//! crate puts a small, dependency-free HTTP/1.1 server in front of it
//! so the suite can be queried interactively:
//!
//! ```text
//! GET /v1/experiments?app=mp3d&model=ds&window=64&consistency=rc
//! GET /v1/figure3?app=lu      GET /v1/figure4?app=ocean
//! GET /v1/summary             GET /v1/apps
//! GET /healthz                GET /metrics
//! ```
//!
//! The concurrency story mirrors the paper's own theme — overlap
//! independent work, never duplicate it:
//!
//! * **single-flight dedup** ([`lookahead_harness::singleflight`]):
//!   N concurrent requests for the same cold key run exactly one
//!   simulation and share the bytes;
//! * **latency hiding** ([`conn`]): one epoll thread multiplexes
//!   thousands of nonblocking keep-alive connections, so a slow or
//!   idle client costs a table entry, not a thread, and handler
//!   workers run only handler compute;
//! * **backpressure** ([`server`]): a connection cap answers `503` +
//!   `Retry-After` beyond it, instead of unbounded latency;
//! * **graceful shutdown**: SIGINT (or a [`ShutdownHandle`]) finishes
//!   in-flight requests, joins the workers, then returns;
//! * **determinism**: response bodies are byte-identical regardless of
//!   concurrency, cache state, or worker count — pinned by golden
//!   tests against the `lookahead` CLI output.
//!
//! Module map: [`http`] (hardened parsing/framing, incremental
//! [`http::HeadParser`]), [`service`] (routing, queries, JSON bodies,
//! metrics), [`reactor`] (raw-syscall epoll + eventfd wakeups),
//! [`conn`] (per-connection state machines and the reactor event
//! loop), [`server`] (listener, reactor setup, worker pool, drain),
//! [`knobs`] (fail-fast env configuration), [`signal`] (SIGINT →
//! flag).
//!
//! The server needs epoll, so it runs on x86_64/aarch64 Linux; on any
//! other target [`Server::bind`] returns `Unsupported`. The service
//! itself ([`handle_target`]) answers every route in-process anywhere.

pub mod conn;
pub mod http;
pub mod knobs;
pub mod reactor;
pub mod server;
pub mod service;
pub mod signal;

pub use http::{Request, RequestError, Response};
pub use knobs::{
    parse_max_connections, parse_serve_addr, parse_serve_threads, serve_addr_from_env,
    serve_threads_from_env, DEFAULT_ADDR,
};
pub use server::{Server, ServerConfig, ServerStats, ShutdownHandle};
pub use service::{handle_target, ApiError, ExperimentService, ServiceConfig};
pub use signal::{install_sigint, sigint_received};
