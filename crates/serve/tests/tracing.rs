//! End-to-end tests for the request-tracing layer, pinning the PR's
//! acceptance criteria:
//!
//! * a cold `/v1/figure3` request's span tree accounts for the
//!   measured end-to-end latency — the named stages (queue, cache
//!   lookup, generation, re-timing, render) sum to within 5% of the
//!   root `request` span; the tree holds each transport and pipeline
//!   stage once plus one `retime.cell` per unique cell and nothing
//!   else, so tracing work stays per cell;
//! * report bodies are byte-identical whether or not tracing is
//!   active (the HTTP path always traces; `handle_target` never does);
//! * every request — including coalesced single-flight followers and
//!   error responses — gets its own `X-Request-Id`, and a follower's
//!   trace shows the wait instead of a duplicated generation;
//! * an experiment query re-times BASE only the first time its run is
//!   asked for; later queries re-time just their own model.

use lookahead_harness::experiments::{figure3_cells, PAPER_WINDOWS};
use lookahead_harness::{SizeTier, TraceCache};
use lookahead_multiproc::SimConfig;
use lookahead_serve::{handle_target, ExperimentService, Server, ServerConfig, ServiceConfig};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

/// Runs this file's tests one at a time. A test that times its own
/// request loses time to the others' generation and re-timing on a
/// small machine; a failed test leaves the lock poisoned, which the
/// next one ignores.
fn serial() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

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

/// A scratch directory under the system temp dir, removed when the
/// guard drops, so a test leaves nothing behind even if it fails.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("lktr-tracing-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    TempDir(dir)
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

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// One GET with optional extra request headers, returning the parsed
/// status line, headers, and body.
fn http_get(addr: SocketAddr, target: &str, extra: &[(&str, &str)]) -> Reply {
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut req = format!("GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n");
    for (name, value) in extra {
        req.push_str(&format!("{name}: {value}\r\n"));
    }
    req.push_str("\r\n");
    conn.write_all(req.as_bytes()).unwrap();
    let mut text = String::new();
    conn.read_to_string(&mut text).unwrap();
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((text.as_str(), ""));
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let headers = lines
        .filter_map(|l| l.split_once(": "))
        .map(|(n, v)| (n.to_string(), v.to_string()))
        .collect();
    Reply {
        status,
        headers,
        body: body.to_string(),
    }
}

/// A span as parsed back out of a `/v1/debug/trace/<id>` body.
#[derive(Debug)]
struct Span {
    id: u64,
    parent: u64,
    name: String,
    dur_us: u64,
}

/// Parses the flat span objects out of the trace body. The renderer
/// emits each span as
/// `{"span":N,"parent":N,"name":"...","start_us":N,"dur_us":N}`,
/// so splitting on the object opener is unambiguous (names are
/// validated identifiers, never containing braces).
fn parse_spans(body: &str) -> Vec<Span> {
    let mut spans = Vec::new();
    for chunk in body.split("{\"span\":").skip(1) {
        let field = |key: &str| -> String {
            let at = chunk
                .find(key)
                .unwrap_or_else(|| panic!("{key} in {chunk}"));
            chunk[at + key.len()..]
                .chars()
                .take_while(|c| *c != ',' && *c != '}' && *c != '"')
                .collect()
        };
        spans.push(Span {
            id: chunk
                .chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
                .parse()
                .unwrap(),
            parent: field("\"parent\":").parse().unwrap(),
            name: field("\"name\":\"").to_string(),
            dur_us: field("\"dur_us\":").parse().unwrap(),
        });
    }
    spans
}

fn trace_field_u64(body: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle).unwrap();
    body[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn cold_figure3_trace_accounts_for_end_to_end_latency() {
    let _serial = serial();
    let cache = temp_dir("cold-figure3");
    let service = Arc::new(ExperimentService::new(
        small_config(),
        Some(TraceCache::new(&cache.0)),
    ));
    let server = RunningServer::start(Arc::clone(&service));

    let reply = http_get(
        server.addr,
        "/v1/figure3?app=lu",
        &[("X-Request-Id", "trace-me.1")],
    );
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(
        reply.header("X-Request-Id"),
        Some("trace-me.1"),
        "a well-formed client id is echoed back"
    );
    let timing = reply.header("Server-Timing").expect("Server-Timing set");
    for stage in ["queue;dur=", "parse;dur=", "handler;dur="] {
        assert!(timing.contains(stage), "{stage} missing from {timing}");
    }

    let trace = http_get(server.addr, "/v1/debug/trace/trace-me.1", &[]);
    assert_eq!(trace.status, 200, "{}", trace.body);
    let total = trace_field_u64(&trace.body, "total_us");
    let spans = parse_spans(&trace.body);

    // The transport stages and the handler's pipeline stages are all
    // present exactly once for a cold, cache-backed figure3.
    const STAGES: [&str; 10] = [
        "request",
        "queue",
        "parse",
        "handler",
        "write",
        "cache.lookup",
        "generate",
        "archive.finish",
        "retime",
        "render",
    ];
    for name in STAGES {
        assert_eq!(
            spans.iter().filter(|s| s.name == name).count(),
            1,
            "{name} in {spans:?}"
        );
    }
    // Besides them, one `retime.cell` per unique model the figure
    // re-times, and nothing else: tracing work stays per cell, never
    // per chunk or per entry, which keeps its cost bounded
    // (`crates/harness/tests/tracing_cost.rs`).
    let mut models = Vec::new();
    for cell in figure3_cells(&PAPER_WINDOWS) {
        if !models.contains(&cell.model) {
            models.push(cell.model);
        }
    }
    assert_eq!(models.len(), 14);
    assert_eq!(
        spans.iter().filter(|s| s.name == "retime.cell").count(),
        models.len(),
        "{spans:?}"
    );
    assert_eq!(spans.len(), STAGES.len() + models.len(), "{spans:?}");
    let root = spans.iter().find(|s| s.name == "request").unwrap();
    assert_eq!(root.parent, 0);
    assert_eq!(root.dur_us, total, "the root span spans the request");

    // The acceptance criterion: the named stages account for the
    // end-to-end latency to within 5%. (`parse` and `write` are
    // microseconds; generation dominates.)
    let stage_sum: u64 = spans
        .iter()
        .filter(|s| {
            matches!(
                s.name.as_str(),
                "queue" | "cache.lookup" | "generate" | "retime" | "render"
            )
        })
        .map(|s| s.dur_us)
        .sum();
    assert!(
        stage_sum <= total,
        "stages nest inside the request: {stage_sum} vs {total}"
    );
    assert!(
        stage_sum as f64 >= 0.95 * total as f64,
        "stages must account for >=95% of the {total}us end-to-end \
         latency, got {stage_sum}us: {spans:?}"
    );
}

#[test]
fn experiment_queries_retime_base_once_per_run() {
    let _serial = serial();
    let service = Arc::new(ExperimentService::new(small_config(), None));
    let server = RunningServer::start(Arc::clone(&service));
    // The `retime.cell` spans in one request's trace: one per pass
    // over the representative trace.
    let passes = |id: &str, target: &str| {
        let reply = http_get(server.addr, target, &[("X-Request-Id", id)]);
        assert_eq!(reply.status, 200, "{target}: {}", reply.body);
        let trace = http_get(server.addr, &format!("/v1/debug/trace/{id}"), &[]);
        assert_eq!(trace.status, 200, "{}", trace.body);
        parse_spans(&trace.body)
            .iter()
            .filter(|s| s.name == "retime.cell")
            .count()
    };
    assert_eq!(
        passes("base-1", "/v1/experiments?app=lu&model=base&window=16"),
        1,
        "the run's first query re-times BASE"
    );
    for model in ["ss", "ds"] {
        assert_eq!(
            passes(model, &format!("/v1/experiments?app=lu&model={model}")),
            1,
            "{model}: one pass for the model, none for BASE"
        );
    }
    assert_eq!(
        passes("base-2", "/v1/experiments?app=lu&model=base&window=32"),
        0,
        "a fresh BASE body reads the run's memo"
    );
    // Window and width configure DS only: an in-order result is one
    // pass per run and consistency model, whatever they say.
    for (id, target, expected) in [
        (
            "ssbr-pc-1",
            "/v1/experiments?app=lu&model=ssbr&consistency=pc&window=16&width=1",
            1,
        ),
        (
            "ssbr-pc-2",
            "/v1/experiments?app=lu&model=ssbr&consistency=pc&window=256&width=16",
            0,
        ),
        (
            "ssbr-sc",
            "/v1/experiments?app=lu&model=ssbr&consistency=sc&window=16&width=1",
            1,
        ),
        (
            "ds-2",
            "/v1/experiments?app=lu&model=ds&window=16&width=2",
            1,
        ),
        (
            "ds-3",
            "/v1/experiments?app=lu&model=ds&window=16&width=3",
            1,
        ),
    ] {
        assert_eq!(passes(id, target), expected, "{target}");
    }
}

#[test]
fn summary_cells_nest_under_dag_run() {
    let _serial = serial();
    // `small_config()` re-times on two DAG workers, so every gang runs
    // on a spawned worker thread; its cells still nest under dag.run.
    let service = Arc::new(ExperimentService::new(small_config(), None));
    let server = RunningServer::start(Arc::clone(&service));
    let reply = http_get(server.addr, "/v1/summary", &[("X-Request-Id", "summary-1")]);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let trace = http_get(server.addr, "/v1/debug/trace/summary-1", &[]);
    assert_eq!(trace.status, 200, "{}", trace.body);
    let spans = parse_spans(&trace.body);
    let runs: Vec<&Span> = spans.iter().filter(|s| s.name == "dag.run").collect();
    assert_eq!(runs.len(), 1, "{spans:?}");
    let cells: Vec<&Span> = spans.iter().filter(|s| s.name == "retime.cell").collect();
    assert!(!cells.is_empty(), "{spans:?}");
    assert!(
        cells.iter().all(|s| s.parent == runs[0].id),
        "every retime.cell hangs off dag.run: {spans:?}"
    );
}

#[test]
fn bodies_are_byte_identical_with_and_without_tracing() {
    let _serial = serial();
    // The HTTP path always traces; `handle_target` never installs a
    // scope. The bodies must not know the difference.
    let traced = Arc::new(ExperimentService::new(small_config(), None));
    let untraced = ExperimentService::new(small_config(), None);
    let server = RunningServer::start(Arc::clone(&traced));
    for target in [
        "/v1/figure3?app=lu",
        "/v1/figure4?app=lu",
        "/v1/summary",
        "/v1/experiments?app=lu&model=ds&window=64",
    ] {
        let over_http = http_get(server.addr, target, &[]);
        let direct = handle_target(&untraced, target);
        assert_eq!((over_http.status, direct.status), (200, 200), "{target}");
        assert_eq!(
            over_http.body, direct.body,
            "{target}: traced and untraced bodies must be identical bytes"
        );
    }
}

#[test]
fn concurrent_requests_get_distinct_ids_and_followers_record_the_wait() {
    let _serial = serial();
    let service = Arc::new(ExperimentService::new(small_config(), None));
    let server = RunningServer::start(Arc::clone(&service));

    const TARGET: &str = "/v1/figure3?app=mp3d";
    let clients = 4;
    let barrier = Barrier::new(clients);
    let replies: Vec<Reply> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    http_get(server.addr, TARGET, &[])
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let mut ids: Vec<String> = replies
        .iter()
        .map(|r| {
            assert_eq!(r.status, 200, "{}", r.body);
            assert_eq!(r.body, replies[0].body, "one shared body");
            r.header("X-Request-Id").expect("id on every reply").into()
        })
        .collect();
    ids.sort();
    ids.dedup();
    assert_eq!(ids.len(), clients, "every request keeps its own id");

    // Exactly one request led the generation; the rest either waited
    // on the in-flight computation or hit the memo, and their traces
    // say so instead of showing duplicated work.
    let mut leaders = 0;
    for id in &ids {
        let trace = http_get(server.addr, &format!("/v1/debug/trace/{id}"), &[]);
        assert_eq!(trace.status, 200, "{}", trace.body);
        let spans = parse_spans(&trace.body);
        let generated = spans.iter().any(|s| s.name == "generate");
        if generated {
            leaders += 1;
        } else {
            assert!(
                spans.iter().any(|s| matches!(
                    s.name.as_str(),
                    "flight.wait" | "flight.memo" | "run.wait" | "run.memo"
                )),
                "a follower's trace records how it was satisfied: {spans:?}"
            );
        }
    }
    assert_eq!(leaders, 1, "exactly one trace carries the generation");
}

#[test]
fn error_responses_carry_request_ids() {
    let _serial = serial();
    let service = Arc::new(ExperimentService::new(small_config(), None));
    let server = RunningServer::start(Arc::clone(&service));

    // Routed errors (404, 400) go through the full tracing path.
    for target in ["/nope", "/v1/experiments?app=lu&frobnicate=1"] {
        let reply = http_get(server.addr, target, &[]);
        assert!(reply.status == 400 || reply.status == 404, "{target}");
        let id = reply.header("X-Request-Id").expect("id on errors");
        assert!(id.starts_with("req-"), "{id}");
    }

    // A malformed client id is ignored, not echoed (no header
    // injection, no junk joining other people's logs).
    let reply = http_get(server.addr, "/healthz", &[("X-Request-Id", "bad id!")]);
    assert_eq!(reply.status, 200);
    let id = reply.header("X-Request-Id").unwrap();
    assert!(id.starts_with("req-"), "server replaced the junk id: {id}");

    // Even unparseable requests are answered with an id.
    let mut conn = TcpStream::connect(server.addr).unwrap();
    conn.write_all(b"\x01\x02garbage\r\n\r\n").unwrap();
    let mut text = String::new();
    conn.read_to_string(&mut text).unwrap();
    assert!(text.starts_with("HTTP/1.1 400 "), "{text}");
    assert!(text.contains("X-Request-Id: req-"), "{text}");
}

#[test]
fn debug_trace_of_unknown_id_is_404() {
    let _serial = serial();
    let service = Arc::new(ExperimentService::new(small_config(), None));
    let server = RunningServer::start(Arc::clone(&service));
    let reply = http_get(server.addr, "/v1/debug/trace/never-seen", &[]);
    assert_eq!(reply.status, 404);
    assert!(reply.body.contains("no retained trace"), "{}", reply.body);
}
