//! End-to-end tests for the experiment service, pinning the contracts
//! the subsystem was built for:
//!
//! * bodies served over HTTP are **byte-identical** to bodies from the
//!   in-process [`handle_target`] path (which is also what the
//!   `lookahead query` CLI prints);
//! * cold and warm queries produce identical bytes (determinism does
//!   not depend on cache state), and a cache-backed service serves the
//!   same figure bytes as a memory-backed one;
//! * N concurrent clients asking for the same cold key trigger exactly
//!   one simulation, observable in `/metrics`.
//!
//! Everything runs at the small tier so a cold query is fast.

use lookahead_harness::{SizeTier, TraceCache};
use lookahead_multiproc::SimConfig;
use lookahead_serve::{handle_target, ExperimentService, Server, ServerConfig, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};

fn small_config() -> ServiceConfig {
    ServiceConfig {
        default_tier: SizeTier::Small,
        sim: SimConfig {
            num_procs: 4,
            ..SimConfig::default()
        },
        retime_workers: 2,
        ..ServiceConfig::default()
    }
}

fn small_service() -> Arc<ExperimentService> {
    Arc::new(ExperimentService::new(small_config(), None))
}

struct RunningServer {
    addr: SocketAddr,
    handle: lookahead_serve::ShutdownHandle,
    join: Option<std::thread::JoinHandle<lookahead_serve::ServerStats>>,
}

impl RunningServer {
    fn start(service: Arc<ExperimentService>) -> RunningServer {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".parse().unwrap(),
            threads: 4,
            ..ServerConfig::default()
        })
        .unwrap();
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run(service));
        RunningServer {
            addr,
            handle,
            join: Some(join),
        }
    }
}

impl Drop for RunningServer {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

fn http_get(addr: SocketAddr, target: &str) -> (u16, String) {
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

/// Reads one counter out of the /metrics.json JSON (flat "path":value).
fn metric(body: &str, path: &str) -> u64 {
    let needle = format!("\"{path}\":");
    let at = body
        .find(&needle)
        .unwrap_or_else(|| panic!("{path} not in {body}"));
    body[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

const QUERY: &str = "/v1/experiments?app=lu&model=ds&window=64&consistency=rc";

#[test]
fn http_body_matches_in_process_body_byte_for_byte() {
    let service = small_service();
    let direct = handle_target(&service, QUERY);
    assert_eq!(direct.status, 200, "{}", direct.body);

    let server = RunningServer::start(Arc::clone(&service));
    let (status, body) = http_get(server.addr, QUERY);
    assert_eq!(status, 200);
    assert_eq!(
        body, direct.body,
        "HTTP and in-process bodies must be identical bytes"
    );
}

#[test]
fn cold_and_warm_queries_are_byte_identical() {
    let service = small_service();
    let server = RunningServer::start(Arc::clone(&service));
    let (s1, cold) = http_get(server.addr, QUERY);
    let (s2, warm) = http_get(server.addr, QUERY);
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(cold, warm);

    // The warm query was a body-memo hit: still exactly one
    // generation, one body computation.
    let stats = service.run_stats();
    assert_eq!(stats.generations, 1, "{stats:?}");
}

#[test]
fn concurrent_identical_cold_queries_run_one_simulation() {
    let service = small_service();
    let server = RunningServer::start(Arc::clone(&service));

    let clients = 8;
    let barrier = Barrier::new(clients);
    let bodies: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let (status, body) = http_get(server.addr, QUERY);
                    assert_eq!(status, 200, "{body}");
                    body
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for b in &bodies[1..] {
        assert_eq!(
            b, &bodies[0],
            "all concurrent clients must see the same bytes"
        );
    }

    let stats = service.run_stats();
    assert_eq!(
        stats.generations, 1,
        "8 concurrent cold clients must trigger exactly one simulation: {stats:?}"
    );

    // The coalescing is observable via /metrics.json.
    let (status, metrics) = http_get(server.addr, "/metrics.json");
    assert_eq!(status, 200);
    assert_eq!(metric(&metrics, "serve.runs.generations"), 1);
    let led = metric(&metrics, "serve.flights.led");
    let coalesced = metric(&metrics, "serve.flights.coalesced");
    let memoized = metric(&metrics, "serve.flights.memoized");
    assert_eq!(led, 1, "one leader for the body flight");
    assert_eq!(
        led + coalesced + memoized,
        clients as u64,
        "every client accounted for: {metrics}"
    );
}

#[test]
fn bodies_over_a_memoized_base_equal_cold_bodies() {
    let warm = small_service();
    // Any experiment query over the run fills its BASE memo.
    let first = handle_target(&warm, "/v1/experiments?app=lu&model=ds&window=16");
    assert_eq!(first.status, 200, "{}", first.body);
    for target in [
        "/v1/experiments?app=lu&model=base",
        "/v1/experiments?app=lu&model=ssbr&consistency=pc",
        "/v1/experiments?app=lu&model=ss&consistency=sc",
        "/v1/experiments?app=lu&model=ds&window=32&width=2",
        "/v1/experiments?app=lu&model=ssbr&consistency=pc&window=256&width=16",
        "/v1/experiments?app=lu&model=ss&consistency=sc&window=16&width=7",
    ] {
        let served = handle_target(&warm, target);
        let cold = handle_target(&small_service(), target);
        assert_eq!((served.status, cold.status), (200, 200), "{target}");
        assert_eq!(
            served.body, cold.body,
            "{target}: the memoized BASE must not change a byte"
        );
    }
    assert_eq!(warm.run_stats().generations, 1, "one run serves them all");
}

#[test]
fn distinct_queries_generate_distinct_runs_but_share_the_app() {
    let service = small_service();
    // Two different windows over the same app: two bodies, one run.
    let a = handle_target(&service, "/v1/experiments?app=lu&window=16");
    let b = handle_target(&service, "/v1/experiments?app=lu&window=64");
    assert_eq!((a.status, b.status), (200, 200));
    assert_ne!(a.body, b.body);
    assert_eq!(service.run_stats().generations, 1, "one trace serves both");
}

#[test]
fn default_parameters_are_explicit_in_the_body() {
    let service = small_service();
    let full = handle_target(
        &service,
        "/v1/experiments?app=lu&model=ds&consistency=rc&window=64&width=1&tier=small",
    );
    let defaulted = handle_target(&service, "/v1/experiments?app=lu");
    assert_eq!(
        full.body, defaulted.body,
        "defaults must equal their explicit spelling"
    );
}

#[test]
fn query_validation_fails_fast() {
    let service = small_service();
    for (target, status) in [
        ("/v1/experiments", 400),                        // missing app
        ("/v1/experiments?app=doom", 404),               // unknown app
        ("/v1/experiments?app=lu&model=vliw", 400),      // unknown model
        ("/v1/experiments?app=lu&consistency=tso", 400), // unknown consistency
        ("/v1/experiments?app=lu&window=0", 400),        // window out of range
        ("/v1/experiments?app=lu&window=huge", 400),     // window not a number
        ("/v1/experiments?app=lu&width=0", 400),         // width out of range
        ("/v1/experiments?app=lu&frobnicate=1", 400),    // unknown parameter
        ("/v1/experiments?app=lu&tier=jumbo", 400),      // unknown tier
        ("/v1/figure3", 400),                            // missing app
        ("/v1/figure3?app=lu&window=64", 400),           // figure3 takes no window
        ("/v1/figure3?app=lu&stream=1", 400),            // figure3 takes no stream
        ("/v1/summary?app=lu", 400),                     // summary takes no app
        ("/v2/experiments?app=lu", 404),                 // unknown route
    ] {
        let r = handle_target(&service, target);
        assert_eq!(r.status, status, "{target}: {}", r.body);
        assert!(r.body.contains("error"), "{target}: {}", r.body);
    }
    // Validation failures must never reach the simulator.
    assert_eq!(service.run_stats().generations, 0);
}

#[test]
fn apps_listing_names_every_application_and_knob() {
    let service = small_service();
    let r = handle_target(&service, "/v1/apps");
    assert_eq!(r.status, 200);
    for expected in [
        "MP3D", "LU", "PTHOR", "LOCUS", "OCEAN", "small", "default", "paper", "large", "base",
        "ssbr", "ss", "ds", "SC", "PC", "WO", "RC",
    ] {
        assert!(
            r.body.contains(expected),
            "{expected} missing from {}",
            r.body
        );
    }
}

#[test]
fn healthz_is_static_and_metrics_counts_requests() {
    let service = small_service();
    let h = handle_target(&service, "/healthz");
    assert_eq!((h.status, h.body.as_str()), (200, "{\"status\":\"ok\"}"));
    let m = handle_target(&service, "/metrics.json");
    assert_eq!(m.status, 200);
    // /healthz + /metrics.json itself.
    assert_eq!(metric(&m.body, "serve.http.requests"), 2);
    assert_eq!(metric(&m.body, "serve.http.status.200"), 1);
}

#[test]
fn figure_routes_report_full_sweeps() {
    // Without a cache the gang slices the in-memory trace; with one it
    // streams the archive. Both must serve the same bytes.
    let dir = std::env::temp_dir().join(format!("lktr-figure-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut bodies = Vec::new();
    for cache in [None, Some(TraceCache::new(dir.clone()))] {
        let service = ExperimentService::new(small_config(), cache);
        let f3 = handle_target(&service, "/v1/figure3?app=lu");
        assert_eq!(f3.status, 200, "{}", f3.body);
        for label in ["BASE", "SSBR", "SS", "DS.16", "DS.256"] {
            assert!(f3.body.contains(label), "{label} missing from figure3");
        }
        let f4 = handle_target(&service, "/v1/figure4?app=lu");
        assert_eq!(f4.status, 200, "{}", f4.body);
        assert!(f4.body.contains("bp+nd"));
        // Both figures re-time the same single generated run.
        assert_eq!(service.run_stats().generations, 1);
        bodies.push((f3.body, f4.body));
    }
    assert_eq!(
        bodies[0], bodies[1],
        "the trace source must not change a byte"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn summary_covers_every_app_and_window() {
    let service = small_service();
    let r = handle_target(&service, "/v1/summary");
    assert_eq!(r.status, 200, "{}", r.body);
    for app in ["MP3D", "LU", "PTHOR", "LOCUS", "OCEAN"] {
        assert!(r.body.contains(app), "{app} missing from summary");
    }
    assert!(r.body.contains("\"windows\":[16,32,64,128,256]"));
    assert!(r.body.contains("\"average\":["));
    assert_eq!(service.run_stats().generations, 5, "one generation per app");

    // Asking again is free: body memo, no new generations.
    let again = handle_target(&service, "/v1/summary");
    assert_eq!(again.body, r.body);
    assert_eq!(service.run_stats().generations, 5);
}
