//! Property tests for the incremental request parser: however a
//! request head is sliced across TCP reads, [`http::HeadParser`] must
//! produce exactly the result the one-shot [`http::read_request`]
//! parser produces — the same [`http::Request`] for valid heads, the
//! same status code (400/405/413/414/431) for each rejection class.
//!
//! (408 is the one status no byte sequence can produce: it is the
//! reactor's read-deadline, exercised end-to-end by the slow-loris
//! test.)
//!
//! Split points are exhaustive at byte granularity (feed one byte at a
//! time) and sampled for multi-byte chunks with a seeded LCG, so runs
//! are deterministic.

use lookahead_serve::http::{self, HeadParser, Request, RequestError};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

/// What parsing one complete request head yields, reduced to the
/// comparable part: the request itself, or the status the error maps
/// to (`None` for drop-the-connection I/O failures).
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Parsed(Request),
    Rejected(Option<u16>),
}

impl Outcome {
    fn of(result: Result<Request, RequestError>) -> Outcome {
        match result {
            Ok(request) => Outcome::Parsed(request),
            Err(e) => Outcome::Rejected(e.status()),
        }
    }
}

/// The one-shot parser's verdict on a complete head.
fn one_shot(raw: &[u8]) -> Outcome {
    Outcome::of(http::read_request(&mut &raw[..]))
}

/// The incremental parser's verdict when the head arrives in the given
/// chunks: the first `Some`/`Err` that `feed` produces.
fn incremental(chunks: &[&[u8]]) -> Option<Outcome> {
    let mut parser = HeadParser::new();
    for chunk in chunks {
        match parser.feed(chunk) {
            Ok(None) => {}
            Ok(Some(request)) => return Some(Outcome::Parsed(request)),
            Err(e) => return Some(Outcome::Rejected(e.status())),
        }
    }
    None
}

/// A minimal deterministic PRNG (64-bit LCG, Knuth constants) so the
/// sampled split points are reproducible run to run.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self, bound: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % bound.max(1)
    }
}

/// The corpus: one representative per accept/reject class, plus shapes
/// that historically trip buffering parsers (percent-encoding, header
/// whitespace, HTTP/1.0, CRLF-adjacent splits).
fn corpus() -> Vec<(&'static str, Vec<u8>)> {
    let long_line = {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', http::MAX_REQUEST_LINE + 10));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        raw
    };
    let many_headers = {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..http::MAX_HEADER_COUNT + 5 {
            raw.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        raw
    };
    let huge_header = {
        let mut raw = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        raw.extend(std::iter::repeat_n(b'a', http::MAX_HEADER_LINE + 10));
        raw.extend_from_slice(b"\r\n\r\n");
        raw
    };
    vec![
        ("plain", b"GET /healthz HTTP/1.1\r\n\r\n".to_vec()),
        (
            "query and headers",
            b"GET /v1/experiments?app=mp3d&window=64 HTTP/1.1\r\nHost: t\r\nAccept: */*\r\n\r\n"
                .to_vec(),
        ),
        (
            "percent encoding",
            b"GET /v1/experiments?app=mp%33d&x=a%20b HTTP/1.1\r\n\r\n".to_vec(),
        ),
        (
            "client request id",
            b"GET / HTTP/1.1\r\nX-Request-Id: abc-123\r\n\r\n".to_vec(),
        ),
        (
            "explicit close",
            b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n".to_vec(),
        ),
        (
            "http/1.0 keep-alive",
            b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n".to_vec(),
        ),
        ("http/1.0 default close", b"GET / HTTP/1.0\r\n\r\n".to_vec()),
        (
            "header whitespace",
            b"GET / HTTP/1.1\r\nHost:   spaced.example  \r\n\r\n".to_vec(),
        ),
        ("bad request line", b"BOGUS\r\n\r\n".to_vec()),
        ("missing version", b"GET /\r\n\r\n".to_vec()),
        (
            "bad header line",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n".to_vec(),
        ),
        ("method not allowed", b"POST / HTTP/1.1\r\n\r\n".to_vec()),
        (
            "announced body",
            b"GET / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello".to_vec(),
        ),
        ("uri too long", long_line),
        ("too many headers", many_headers),
        ("huge header line", huge_header),
    ]
}

#[test]
fn byte_at_a_time_matches_one_shot() {
    for (name, raw) in corpus() {
        let expected = one_shot(&raw);
        let chunks: Vec<&[u8]> = raw.chunks(1).collect();
        let got = incremental(&chunks);
        assert_eq!(got, Some(expected), "case {name:?}, fed byte at a time");
    }
}

#[test]
fn random_split_points_match_one_shot() {
    let mut rng = Lcg(0x5eed_cafe);
    for (name, raw) in corpus() {
        let expected = one_shot(&raw);
        for trial in 0..32 {
            // 1..=4 split points, sorted and deduplicated, carve the
            // head into contiguous chunks.
            let mut cuts: Vec<usize> = (0..1 + rng.next(4)).map(|_| rng.next(raw.len())).collect();
            cuts.sort_unstable();
            cuts.dedup();
            let mut chunks: Vec<&[u8]> = Vec::new();
            let mut last = 0;
            for cut in cuts {
                chunks.push(&raw[last..cut]);
                last = cut;
            }
            chunks.push(&raw[last..]);
            let got = incremental(&chunks);
            assert_eq!(
                got,
                Some(expected.clone()),
                "case {name:?}, trial {trial}, chunk lengths {:?}",
                chunks.iter().map(|c| c.len()).collect::<Vec<_>>(),
            );
        }
    }
}

#[test]
fn incomplete_heads_keep_waiting() {
    // Every proper prefix of a valid head parses to "need more bytes",
    // never to an error or a phantom request.
    let raw = b"GET /v1/apps HTTP/1.1\r\nHost: t\r\n\r\n";
    for end in 0..raw.len() - 1 {
        let mut parser = HeadParser::new();
        match parser.feed(&raw[..end]) {
            Ok(None) => {}
            other => panic!("prefix of {end} bytes yielded {other:?}"),
        }
        assert_eq!(parser.buffered(), end);
    }
}

#[test]
fn pipelined_bytes_are_retained_across_requests() {
    // Two requests in one chunk: feed returns the first, advance
    // returns the second from the retained buffer without new bytes.
    let mut parser = HeadParser::new();
    let raw = b"GET /first HTTP/1.1\r\n\r\nGET /second?x=1 HTTP/1.1\r\nConnection: close\r\n\r\n";
    let first = parser.feed(raw).expect("first parses").expect("complete");
    assert_eq!(first.path, "/first");
    assert!(first.keep_alive);
    assert!(parser.has_buffered());
    let second = parser
        .advance()
        .expect("second parses")
        .expect("already buffered");
    assert_eq!(second.path, "/second");
    assert_eq!(second.param("x"), Some("1"));
    assert!(!second.keep_alive);
    assert!(!parser.has_buffered());
    assert_eq!(parser.advance().expect("no error"), None);
}

/// End-to-end pipelining: N requests written in one burst on one
/// socket come back as N complete responses, in order, on that socket.
#[test]
fn reactor_answers_pipelined_requests_in_order() {
    if !lookahead_serve::reactor::supported() {
        eprintln!("skipping: reactor transport unsupported on this platform");
        return;
    }
    use lookahead_serve::{ExperimentService, Server, ServerConfig, ServiceConfig};
    let service = Arc::new(ExperimentService::new(ServiceConfig::default(), None));
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run(service));

    const N: usize = 5;
    let mut conn = TcpStream::connect(addr).expect("connect");
    let mut burst = String::new();
    for i in 0..N {
        // The last request closes so the reader below sees EOF.
        let extra = if i == N - 1 {
            "Connection: close\r\n"
        } else {
            ""
        };
        burst.push_str(&format!("GET /healthz HTTP/1.1\r\nHost: t\r\n{extra}\r\n"));
    }
    conn.write_all(burst.as_bytes()).expect("write burst");

    let mut reader = BufReader::new(conn);
    for i in 0..N {
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("status line");
        assert!(
            status_line.starts_with("HTTP/1.1 200 "),
            "response {i}: {status_line:?}"
        );
        let mut content_length = 0usize;
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).expect("header line");
            if line == "\r\n" {
                break;
            }
            if let Some(v) = line
                .strip_prefix("Content-Length:")
                .or_else(|| line.strip_prefix("content-length:"))
            {
                content_length = v.trim().parse().expect("content length");
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).expect("body");
        assert!(
            std::str::from_utf8(&body).expect("utf8").contains("ok"),
            "response {i} body"
        );
    }

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats.accepted, 1, "one socket carried the whole burst");
    assert_eq!(stats.served as usize, N);
    assert_eq!(stats.aborted, 0);
}
