//! Integration tests for **incremental streaming**: `stream=1` on the
//! figure routes sends the body with chunked framing, one fragment per
//! finished column, and the reassembled bytes are identical to the
//! buffered body.
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
