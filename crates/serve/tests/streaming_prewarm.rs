//! Integration tests for the two new serve behaviours riding on the
//! DAG scheduler:
//!
//! * **incremental streaming** — `stream=1` on the figure routes sends
//!   the body with chunked framing, one fragment per finished column,
//!   and the reassembled bytes are identical to the buffered body;
//! * **speculative pre-warm** — after a figure query, the idle service
//!   pre-computes the remaining apps; a later client asking for one of
//!   them gets a memoized body (a recorded pre-warm hit) that is
//!   byte-identical to what a cold service would have produced.
//!
//! Everything runs at the small tier so cold sweeps are fast.

use lookahead_harness::{SizeTier, TraceCache};
use lookahead_multiproc::SimConfig;
use lookahead_serve::http::{decode_chunked, write_response};
use lookahead_serve::{handle_target, ExperimentService, ServiceConfig};
use std::sync::Arc;

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

/// Splits a chunked transfer encoding body into its chunk payloads
/// (strict framing: size line, payload, CRLF, terminated by a zero
/// chunk). Panics on malformed framing so tests fail loudly.
fn split_chunks(body: &[u8]) -> Vec<Vec<u8>> {
    let mut chunks = Vec::new();
    let mut at = 0;
    loop {
        let line_end = body[at..]
            .windows(2)
            .position(|w| w == b"\r\n")
            .expect("chunk size line")
            + at;
        let size = usize::from_str_radix(
            std::str::from_utf8(&body[at..line_end]).expect("ascii size"),
            16,
        )
        .expect("hex chunk size");
        at = line_end + 2;
        if size == 0 {
            assert_eq!(&body[at..], b"\r\n", "terminator must end the stream");
            return chunks;
        }
        chunks.push(body[at..at + size].to_vec());
        at += size;
        assert_eq!(&body[at..at + 2], b"\r\n", "chunk payload ends with CRLF");
        at += 2;
    }
}

#[test]
fn streamed_figure_body_is_byte_identical_to_buffered() {
    // Without a cache the gang slices the in-memory trace; with one it
    // streams the archive. Both must stream the buffered bytes.
    let dir = std::env::temp_dir().join(format!("lktr-stream-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cached = Arc::new(ExperimentService::new(
        small_config(),
        Some(TraceCache::new(dir.clone())),
    ));
    let mut bodies = Vec::new();
    for service in [small_service(), cached] {
        let buffered = handle_target(&service, "/v1/figure3?app=lu");
        assert_eq!(buffered.status, 200, "{}", buffered.body);

        let streamed = handle_target(&service, "/v1/figure3?app=lu&stream=1");
        assert_eq!(streamed.status, 200);
        assert_eq!(
            streamed.full_body(),
            buffered.body,
            "drained stream must equal the buffered body byte-for-byte"
        );

        // figure4 streams too.
        let b4 = handle_target(&service, "/v1/figure4?app=lu");
        let s4 = handle_target(&service, "/v1/figure4?app=lu&stream=1");
        assert_eq!((b4.status, s4.status), (200, 200));
        assert_eq!(s4.full_body(), b4.body);
        bodies.push((buffered.body, b4.body));
    }
    assert_eq!(
        bodies[0], bodies[1],
        "the trace source must not change a byte"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn streamed_response_uses_chunked_framing_with_incremental_chunks() {
    let service = small_service();
    let buffered = handle_target(&service, "/v1/figure3?app=mp3d");
    assert_eq!(buffered.status, 200, "{}", buffered.body);

    let streamed = handle_target(&service, "/v1/figure3?app=mp3d&stream=1");
    let mut wire = Vec::new();
    write_response(&mut wire, &streamed).unwrap();

    let head_end = wire
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("header terminator")
        + 4;
    let head = std::str::from_utf8(&wire[..head_end]).unwrap();
    assert!(
        head.contains("Transfer-Encoding: chunked"),
        "streamed responses must use chunked framing: {head}"
    );
    assert!(
        !head.contains("Content-Length"),
        "chunked framing must not advertise a length: {head}"
    );

    let body = &wire[head_end..];
    assert_eq!(
        decode_chunked(body).unwrap(),
        buffered.body.as_bytes(),
        "reassembled chunks must equal the buffered body"
    );

    // One chunk per column plus prefix and suffix: the body arrives
    // incrementally, not as one monolithic write.
    let chunks = split_chunks(body);
    assert!(
        chunks.len() >= 4,
        "expected many incremental chunks, got {}",
        chunks.len()
    );
}

#[test]
fn stream_errors_stay_buffered() {
    let service = small_service();
    for target in [
        "/v1/figure3?app=doom&stream=1", // unknown app: 404 before streaming
        "/v1/figure3?app=lu&stream=2",   // bad stream value
    ] {
        let r = handle_target(&service, target);
        assert!(r.status >= 400, "{target}: {}", r.status);
        assert!(r.body.contains("error"), "{target}: {}", r.body);
    }
    assert_eq!(service.run_stats().generations, 0);
}

#[test]
fn prewarm_precomputes_likely_next_figures_and_records_hits() {
    let service = Arc::new(ExperimentService::new(
        ServiceConfig {
            prewarm: true,
            ..small_config()
        },
        None,
    ));

    // A figure query predicts the same sweep over the remaining apps.
    let first = handle_target(&service, "/v1/figure3?app=mp3d");
    assert_eq!(first.status, 200, "{}", first.body);

    // Drain the queue the way the server's pre-warm thread would.
    let mut ticks = 0;
    while service.prewarm_tick() {
        ticks += 1;
        assert!(ticks < 64, "pre-warm queue must drain");
    }
    assert!(ticks >= 1, "the first query must enqueue predictions");

    // A later client asking for a predicted figure is a memoized hit...
    let warmed = handle_target(&service, "/v1/figure3?app=lu");
    assert_eq!(warmed.status, 200, "{}", warmed.body);

    // ...whose bytes match a service that never pre-warmed.
    let cold = handle_target(&small_service(), "/v1/figure3?app=lu");
    assert_eq!(
        warmed.body, cold.body,
        "pre-warmed bodies must be byte-identical to cold ones"
    );

    let m = handle_target(&service, "/metrics.json");
    assert_eq!(m.status, 200);
    assert!(metric(&m.body, "serve.prewarm.computed") >= 1, "{}", m.body);
    assert!(
        metric(&m.body, "serve.prewarm.hits") >= 1,
        "the LU figure must be claimed from the pre-warm set: {}",
        m.body
    );
}

#[test]
fn prewarm_is_off_by_default_and_skips_known_bodies() {
    // Off by default: no predictions, no queue.
    let service = small_service();
    let r = handle_target(&service, "/v1/figure3?app=lu");
    assert_eq!(r.status, 200);
    assert!(!service.prewarm_enabled());
    assert!(!service.prewarm_tick(), "nothing may be queued");

    // On, but the predicted body was already computed by a client:
    // the tick skips instead of re-leading the flight.
    let service = Arc::new(ExperimentService::new(
        ServiceConfig {
            prewarm: true,
            ..small_config()
        },
        None,
    ));
    let a = handle_target(&service, "/v1/figure3?app=mp3d");
    let b = handle_target(&service, "/v1/figure3?app=lu");
    assert_eq!((a.status, b.status), (200, 200));
    let generations_before = service.run_stats().generations;
    while service.prewarm_tick() {}
    let m = handle_target(&service, "/metrics.json");
    assert!(metric(&m.body, "serve.prewarm.skipped") >= 1, "{}", m.body);
    // Pre-warming the remaining apps may generate their runs, but the
    // two already-served figures must not be recomputed.
    assert!(service.run_stats().generations >= generations_before);
}
