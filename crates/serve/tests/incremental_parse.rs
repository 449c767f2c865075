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
//! are deterministic. A seeded mutation fuzzer holds the parser to the
//! same contract on damaged heads, including heads that never
//! complete.

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
    /// The bytes ran out before the head completed.
    EndOfInput,
}

impl Outcome {
    fn of(result: Result<Request, RequestError>) -> Outcome {
        match result {
            Ok(request) => Outcome::Parsed(request),
            Err(e) => Outcome::Rejected(e.status()),
        }
    }
}

/// The one-shot parser's verdict on the bytes: the request, the
/// rejection, or (its "connection closed" and "truncated request
/// head" errors) the end of input.
fn one_shot(raw: &[u8]) -> Outcome {
    match http::read_request(&mut &raw[..]) {
        Err(RequestError::Io(e)) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Outcome::EndOfInput
        }
        Err(RequestError::BadRequest(m)) if m == "truncated request head" => Outcome::EndOfInput,
        other => Outcome::of(other),
    }
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

/// [`incremental`], reporting a head that never completed as the end
/// of input: the parser must still be waiting for bytes.
fn fed(chunks: &[&[u8]]) -> Outcome {
    incremental(chunks).unwrap_or(Outcome::EndOfInput)
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
    // Cases the mutation fuzzer below found, and one boundary beside
    // them; each once depended on how the head was split.
    let long_line_unterminated = {
        let mut raw = long_line.clone();
        raw.truncate(raw.len() - 2);
        raw
    };
    let long_line_not_utf8 = {
        let mut raw = long_line.clone();
        raw[100] = 0x80;
        raw
    };
    let line_at_limit = {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', http::MAX_REQUEST_LINE - 14));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
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
        ("uri too long, no blank line", long_line_unterminated),
        ("uri too long, not UTF-8", long_line_not_utf8),
        ("request line at the limit", line_at_limit),
        (
            "bare-LF blank line, then more bytes",
            b"GET / HTTP/1.1\r\nHost: t\n\n\x80\r\n\r\n".to_vec(),
        ),
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

/// 1..=4 sampled split points, sorted and deduplicated, carving `raw`
/// into contiguous chunks.
fn random_chunks<'a>(rng: &mut Lcg, raw: &'a [u8]) -> Vec<&'a [u8]> {
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
    chunks
}

#[test]
fn random_split_points_match_one_shot() {
    let mut rng = Lcg(0x5eed_cafe);
    for (name, raw) in corpus() {
        let expected = one_shot(&raw);
        for trial in 0..32 {
            let chunks = random_chunks(&mut rng, &raw);
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

/// Bytes a head's structure hangs on. Overwritten and inserted bytes
/// come from here half the time, and are uniform otherwise.
const STRUCTURAL: [u8; 7] = [b'\r', b'\n', b':', b'%', b' ', 0, 0x80];

fn mutant_byte(rng: &mut Lcg) -> u8 {
    if rng.next(2) == 0 {
        STRUCTURAL[rng.next(STRUCTURAL.len())]
    } else {
        rng.next(256) as u8
    }
}

/// Offset one past the first blank line (`\r\n\r\n` or `\n\n`).
fn head_end(raw: &[u8]) -> Option<usize> {
    (2..=raw.len()).find(|&e| raw[..e].ends_with(b"\n\n") || raw[..e].ends_with(b"\r\n\r\n"))
}

/// One seeded mutation of a head: overwrite 1–8 bytes, insert or
/// delete 1–16 bytes, or drop or duplicate the blank line.
fn mutate(rng: &mut Lcg, raw: &mut Vec<u8>) {
    let pos = rng.next(raw.len());
    match rng.next(5) {
        0 => {
            let n = (1 + rng.next(8)).min(raw.len() - pos);
            for b in &mut raw[pos..pos + n] {
                *b = mutant_byte(rng);
            }
        }
        1 => {
            let n = 1 + rng.next(16);
            let bytes: Vec<u8> = (0..n).map(|_| mutant_byte(rng)).collect();
            raw.splice(pos..pos, bytes);
        }
        2 => {
            let n = (1 + rng.next(16)).min(raw.len() - pos);
            raw.drain(pos..pos + n);
        }
        op => {
            if let Some(end) = head_end(raw) {
                let blank = if raw[..end].ends_with(b"\r\n\r\n") {
                    2
                } else {
                    1
                };
                let line = raw[end - blank..end].to_vec();
                if op == 3 {
                    raw.drain(end - blank..end);
                } else {
                    raw.splice(end..end, line);
                }
            }
        }
    }
}

/// `cases` seeded mutants of the corpus, drawn from `seed`: each,
/// however it is fed, parses exactly as the one-shot parser reads it.
fn mutants_match_one_shot_however_fed(seed: u64, cases: usize) {
    let corpus = corpus();
    let mut rng = Lcg(seed);
    let mut incomplete = 0;
    for case in 0..cases {
        let (name, clean) = &corpus[case % corpus.len()];
        let mut raw = clean.clone();
        mutate(&mut rng, &mut raw);
        let expected = one_shot(&raw);
        incomplete += usize::from(expected == Outcome::EndOfInput);
        let bytes: Vec<&[u8]> = raw.chunks(1).collect();
        for (how, chunks) in [
            ("whole", vec![&raw[..]]),
            ("byte at a time", bytes),
            ("at sampled split points", random_chunks(&mut rng, &raw)),
        ] {
            assert_eq!(
                fed(&chunks),
                expected,
                "case {case}, a mutant of {name:?}, fed {how}: {:?}",
                String::from_utf8_lossy(&raw)
            );
        }
    }
    // Dropped blank lines and deleted terminators must reach the
    // end-of-input path; a fuzzer that never did would pass vacuously.
    assert!(
        incomplete * 20 > cases,
        "only {incomplete}/{cases} never completed"
    );
}

#[test]
fn seeded_mutations_match_one_shot_however_fed() {
    mutants_match_one_shot_however_fed(0xf022_4ead, 3000);
}

/// The long budget: run in release with `--include-ignored`.
#[test]
#[ignore = "long fuzz budget; run in release with --include-ignored"]
fn seeded_mutations_match_one_shot_however_fed_long() {
    mutants_match_one_shot_however_fed(0x5eed_0002, 60_000);
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
