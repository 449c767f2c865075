//! A deliberately small, hardened HTTP/1.1 layer over raw streams.
//!
//! This is not a general HTTP implementation: the service only needs
//! `GET` with a query string, HTTP/1.1 keep-alive with `Connection:
//! close` opt-out, and chunked streaming. What it *does* need — and
//! what this module is careful about — is surviving arbitrary bytes
//! from the network: every limit is explicit (request-line length,
//! header count and size), every malformed input is a typed error
//! mapped to a 4xx status, and nothing in here panics on any byte
//! stream. Parsing comes in two shapes over the same `parse_head`
//! core: the resumable [`HeadParser`] that the epoll reactor feeds as
//! bytes arrive, including pipelined requests left over from earlier
//! reads, and the blocking one-shot [`read_request`], the oracle the
//! parser is tested against.

use std::io::{self, Read, Write};
use std::sync::Mutex;

/// Longest accepted request line (method + target + version), bytes.
pub const MAX_REQUEST_LINE: usize = 8192;
/// Most header lines accepted before answering 431.
pub const MAX_HEADER_COUNT: usize = 100;
/// Longest accepted single header line, bytes.
pub const MAX_HEADER_LINE: usize = 8192;
/// Hard cap on the bytes read for one request head.
const MAX_HEAD_BYTES: usize = MAX_REQUEST_LINE + MAX_HEADER_COUNT * MAX_HEADER_LINE;

/// A parsed request: method, decoded path, decoded query parameters in
/// wire order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    pub method: String,
    /// Percent-decoded path, e.g. `/v1/experiments`.
    pub path: String,
    /// Percent-decoded `key=value` pairs in the order sent.
    pub query: Vec<(String, String)>,
    /// A client-supplied `X-Request-Id` header, kept only when it is
    /// safe to echo (see [`lookahead_obs::span::valid_request_id`]);
    /// the transport mints a deterministic id otherwise.
    pub request_id: Option<String>,
    /// Whether the connection may serve another request after this
    /// one: HTTP/1.1 defaults to keep-alive unless the client sent
    /// `Connection: close`; HTTP/1.0 requires an explicit
    /// `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// First value of query parameter `key`, if present.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be served; each variant maps to a status
/// (or to silently dropping the connection for pure I/O failures).
#[derive(Debug)]
pub enum RequestError {
    /// Unparseable request head → 400.
    BadRequest(String),
    /// Parsed, but a method other than GET → 405.
    MethodNotAllowed(String),
    /// Request line over [`MAX_REQUEST_LINE`] → 414.
    UriTooLong,
    /// Too many or too large headers → 431.
    HeadersTooLarge,
    /// A request body was announced; this service accepts none → 413.
    BodyUnsupported,
    /// The socket read timed out mid-request → 408.
    Timeout,
    /// The peer vanished or the socket failed; nothing to send.
    Io(io::Error),
}

impl RequestError {
    /// The status line to answer with, or `None` when the connection
    /// is not worth (or capable of) a response.
    pub fn status(&self) -> Option<u16> {
        match self {
            RequestError::BadRequest(_) => Some(400),
            RequestError::MethodNotAllowed(_) => Some(405),
            RequestError::UriTooLong => Some(414),
            RequestError::HeadersTooLarge => Some(431),
            RequestError::BodyUnsupported => Some(413),
            RequestError::Timeout => Some(408),
            RequestError::Io(_) => None,
        }
    }
}

/// The canonical reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        414 => "URI Too Long",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Reads one request head (everything through the blank line) from a
/// blocking `stream` and parses it. The server parses with
/// [`HeadParser`]; this one-shot path is the oracle the incremental
/// parser is tested against (same limits, same errors).
///
/// # Errors
///
/// Every malformed, oversized, or timed-out input is a typed
/// [`RequestError`]; this function does not panic on any byte stream.
pub fn read_request(stream: &mut impl Read) -> Result<Request, RequestError> {
    let head = read_head(stream)?;
    parse_head(&head)
}

/// Reads bytes until the `\r\n\r\n` (or lenient `\n\n`) terminator,
/// with hard caps on total size.
fn read_head(stream: &mut impl Read) -> Result<Vec<u8>, RequestError> {
    let mut head = Vec::with_capacity(512);
    let mut buf = [0u8; 512];
    loop {
        let n = match stream.read(&mut buf) {
            Ok(0) => {
                return Err(if head.is_empty() {
                    RequestError::Io(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed before a request",
                    ))
                } else {
                    RequestError::BadRequest("truncated request head".into())
                })
            }
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Err(RequestError::Timeout)
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(RequestError::Io(e)),
        };
        head.extend_from_slice(&buf[..n]);
        if head_end(&head, 0).is_some() {
            return Ok(head);
        }
        check_limits(&head, first_newline(&head, 0))?;
    }
}

/// Offset one past the earliest head terminator (`\r\n\r\n`, or a
/// lenient `\n\n`) that ends after `from`. The earliest, so that a
/// prefix of the bytes finds the same head as all of them.
fn head_end(bytes: &[u8], from: usize) -> Option<usize> {
    ((from + 1).max(2)..=bytes.len())
        .find(|&e| bytes[..e].ends_with(b"\n\n") || bytes[..e].ends_with(b"\r\n\r\n"))
}

/// The offset of the first `\n` at or after `from`.
fn first_newline(bytes: &[u8], from: usize) -> Option<usize> {
    bytes[from..]
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| from + i)
}

/// Rejects a head, complete or not, whose request line (without its
/// `\r\n`) is over [`MAX_REQUEST_LINE`] (414), or that is over the head
/// limit (431); `newline` is where the first line ends, if it has.
/// Both only grow as bytes arrive and [`parse_head`] checks them
/// first, so the verdict does not depend on how the bytes were split
/// across reads.
fn check_limits(head: &[u8], newline: Option<usize>) -> Result<(), RequestError> {
    let line_too_long = match newline {
        Some(nl) => {
            let line = &head[..nl];
            line.strip_suffix(b"\r").unwrap_or(line).len() > MAX_REQUEST_LINE
        }
        // A trailing `\r` may still turn out to start the line's `\r\n`.
        None => head.len() > MAX_REQUEST_LINE + 1,
    };
    if line_too_long {
        return Err(RequestError::UriTooLong);
    }
    if head.len() > MAX_HEAD_BYTES {
        return Err(RequestError::HeadersTooLarge);
    }
    Ok(())
}

fn parse_head(head: &[u8]) -> Result<Request, RequestError> {
    let end = head_end(head, 0).unwrap_or(head.len());
    let head = &head[..end];
    check_limits(head, first_newline(head, 0))?;
    let text = std::str::from_utf8(head)
        .map_err(|_| RequestError::BadRequest("request head is not UTF-8".into()))?;
    let mut lines = text.split('\n').map(|l| l.strip_suffix('\r').unwrap_or(l));

    let request_line = lines
        .next()
        .ok_or_else(|| RequestError::BadRequest("empty request".into()))?;
    let mut parts = request_line.split(' ').filter(|p| !p.is_empty());
    let method = parts
        .next()
        .ok_or_else(|| RequestError::BadRequest("missing method".into()))?;
    let target = parts
        .next()
        .ok_or_else(|| RequestError::BadRequest("missing request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| RequestError::BadRequest("missing HTTP version".into()))?;
    if parts.next().is_some() {
        return Err(RequestError::BadRequest("malformed request line".into()));
    }
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::BadRequest(format!(
            "unsupported version {version:?}"
        )));
    }
    if !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Err(RequestError::BadRequest(format!("bad method {method:?}")));
    }
    if method != "GET" {
        return Err(RequestError::MethodNotAllowed(method.to_string()));
    }

    // Headers: bounded, and a body announcement is rejected outright.
    let mut count = 0usize;
    let mut request_id = None;
    let mut conn_close = false;
    let mut conn_keep_alive = false;
    for line in lines {
        if line.is_empty() {
            break;
        }
        count += 1;
        if count > MAX_HEADER_COUNT || line.len() > MAX_HEADER_LINE {
            return Err(RequestError::HeadersTooLarge);
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(RequestError::BadRequest(format!(
                "malformed header line {line:?}"
            )));
        };
        let name = name.trim().to_ascii_lowercase();
        let value = value.trim();
        if name == "content-length" && value != "0" {
            return Err(RequestError::BodyUnsupported);
        }
        if name == "transfer-encoding" {
            return Err(RequestError::BodyUnsupported);
        }
        if name == "connection" {
            for token in value.split(',') {
                match token.trim().to_ascii_lowercase().as_str() {
                    "close" => conn_close = true,
                    "keep-alive" => conn_keep_alive = true,
                    _ => {}
                }
            }
        }
        // Honor a client correlation id only when it is safe to echo
        // into a response header and logs; junk is ignored, not a 4xx.
        if name == "x-request-id" && lookahead_obs::span::valid_request_id(value) {
            request_id = Some(value.to_string());
        }
    }

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    if !path.starts_with('/') {
        return Err(RequestError::BadRequest(format!(
            "request target must be absolute, got {target:?}"
        )));
    }
    Ok(Request {
        method: method.to_string(),
        path: percent_decode(path),
        query: parse_query(query),
        request_id,
        keep_alive: if version == "HTTP/1.0" {
            conn_keep_alive && !conn_close
        } else {
            !conn_close
        },
    })
}

/// A resumable request-head parser for non-blocking transports: feed
/// it whatever bytes `read` returned (including across `EAGAIN`
/// boundaries) and it yields a [`Request`] once the blank-line
/// terminator arrives. Bytes beyond the terminator — pipelined
/// requests — stay buffered; after the current response is written,
/// call [`HeadParser::advance`] to parse the next head without
/// touching the socket.
///
/// Limits and error codes are identical to the one-shot
/// [`read_request`] path: oversized heads are 431, an endless request
/// line is 414, malformed heads are 400 — pinned by the
/// split-invariance property tests.
#[derive(Default)]
pub struct HeadParser {
    buf: Vec<u8>,
    /// `buf[..scanned]` has been searched for a terminator and a
    /// newline, so each feed scans only the new bytes: a head trickled
    /// in byte by byte costs linear time, not quadratic.
    scanned: usize,
    /// Where the first line of `buf` ends, once it has.
    newline: Option<usize>,
}

impl HeadParser {
    pub fn new() -> HeadParser {
        HeadParser::default()
    }

    /// Appends freshly-read bytes and tries to complete a head.
    ///
    /// # Errors
    ///
    /// The same typed [`RequestError`]s as the one-shot parser; the
    /// caller answers the mapped status and closes the connection.
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Option<Request>, RequestError> {
        self.buf.extend_from_slice(chunk);
        self.advance()
    }

    /// Tries to parse a head from bytes already buffered (pipelined
    /// requests). Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// See [`HeadParser::feed`].
    pub fn advance(&mut self) -> Result<Option<Request>, RequestError> {
        if let Some(end) = head_end(&self.buf, self.scanned) {
            let request = parse_head(&self.buf[..end]);
            self.buf.drain(..end);
            (self.scanned, self.newline) = (0, None);
            return request.map(Some);
        }
        self.newline = self
            .newline
            .or_else(|| first_newline(&self.buf, self.scanned));
        self.scanned = self.buf.len();
        check_limits(&self.buf, self.newline)?;
        Ok(None)
    }

    /// Whether any bytes of a (possibly partial) next request are
    /// buffered — the reactor uses this to tell an idle keep-alive
    /// connection (safe to close silently) from one mid-request (a
    /// stall deserves a 408).
    pub fn has_buffered(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Buffered byte count (observability).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }
}

/// Splits a raw query string into decoded pairs, preserving order.
/// Empty segments are skipped; a segment without `=` gets an empty
/// value.
pub fn parse_query(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (percent_decode(k), percent_decode(v)),
            None => (percent_decode(pair), String::new()),
        })
        .collect()
}

/// Lenient percent-decoding: `%XX` becomes the byte, `+` becomes a
/// space, invalid escapes pass through literally, and invalid UTF-8 is
/// replaced rather than rejected (the router will 404/400 anyway).
pub fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes.get(i + 1..i + 3);
                match hex
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                {
                    Some(b) => {
                        out.push(b);
                        i += 3;
                    }
                    None => {
                        out.push(b'%');
                        i += 1;
                    }
                }
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// An incremental response body: a one-shot producer that writes the
/// body in fragments. Each `write` call the producer makes is framed
/// as one HTTP/1.1 chunk by [`write_response`], so a client sees
/// fragments as they are produced instead of waiting for the whole
/// body. The concatenated fragments must equal the body the buffered
/// path would have sent — streaming changes the framing, never the
/// bytes (the streaming tests pin this).
pub struct StreamBody {
    /// `FnOnce` behind a `Mutex<Option<..>>` so the producer can run
    /// through the `&Response` the transport already passes around.
    producer: Mutex<Option<BodyProducer>>,
}

type BodyProducer = Box<dyn FnOnce(&mut dyn Write) -> io::Result<()> + Send>;

impl StreamBody {
    /// Wraps a body producer. The producer receives the sink to write
    /// fragments into; every `write`/`write_all` becomes one chunk on
    /// the wire.
    pub fn new(
        producer: impl FnOnce(&mut dyn Write) -> io::Result<()> + Send + 'static,
    ) -> StreamBody {
        StreamBody {
            producer: Mutex::new(Some(Box::new(producer))),
        }
    }

    /// Runs the producer into `sink`. One-shot: a second call writes
    /// nothing (the body was already produced).
    ///
    /// # Errors
    ///
    /// Propagates the producer's sink write failures.
    pub fn produce(&self, sink: &mut dyn Write) -> io::Result<()> {
        let producer = self
            .producer
            .lock()
            .expect("stream producer poisoned")
            .take();
        match producer {
            Some(f) => f(sink),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for StreamBody {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let consumed = self.producer.lock().map(|g| g.is_none()).unwrap_or(true);
        f.debug_struct("StreamBody")
            .field("consumed", &consumed)
            .finish()
    }
}

/// A response about to be written: status, content type, body, and an
/// optional `Retry-After` (the backpressure signal on 503).
#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub content_type: &'static str,
    pub body: String,
    pub retry_after: Option<u32>,
    /// Echoed as `X-Request-Id` on every transport-written response
    /// (success, 4xx/5xx, and 503 backpressure alike).
    pub request_id: Option<String>,
    /// `Server-Timing` header value (per-stage durations for clients
    /// like `loadgen`); the transport fills this from the span tree.
    pub server_timing: Option<String>,
    /// When set, the body is produced incrementally and written with
    /// chunked framing; `body` is ignored by the transport (it stays
    /// empty on streamed responses).
    pub stream: Option<StreamBody>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Response {
        Response::with_type(status, "application/json", body)
    }

    /// A response with an explicit content type (e.g. the Prometheus
    /// text exposition).
    pub fn with_type(status: u16, content_type: &'static str, body: String) -> Response {
        Response {
            status,
            content_type,
            body,
            retry_after: None,
            request_id: None,
            server_timing: None,
            stream: None,
        }
    }

    /// A streamed JSON response: the producer's fragments are the
    /// body.
    pub fn json_stream(
        producer: impl FnOnce(&mut dyn Write) -> io::Result<()> + Send + 'static,
    ) -> Response {
        Response {
            stream: Some(StreamBody::new(producer)),
            ..Response::json(200, String::new())
        }
    }

    /// The complete body bytes, draining the stream producer into
    /// memory when the response is streamed (the `lookahead query`
    /// path and tests; the HTTP transport streams instead). One-shot
    /// for streamed responses.
    pub fn full_body(&self) -> String {
        match &self.stream {
            None => self.body.clone(),
            Some(s) => {
                let mut buf = Vec::new();
                s.produce(&mut buf).expect("in-memory sink cannot fail");
                String::from_utf8_lossy(&buf).into_owned()
            }
        }
    }
}

/// Frames every `write` call as one HTTP/1.1 chunk.
struct ChunkWriter<'a, W: Write> {
    inner: &'a mut W,
}

impl<W: Write> Write for ChunkWriter<'_, W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        // A zero-length chunk would terminate the body early; skip it.
        if !buf.is_empty() {
            write!(self.inner, "{:x}\r\n", buf.len())?;
            self.inner.write_all(buf)?;
            self.inner.write_all(b"\r\n")?;
            // Fragments should reach the client as they are produced.
            self.inner.flush()?;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Writes `response` with `Connection: close` framing: buffered bodies
/// with `Content-Length`, streamed bodies with `Transfer-Encoding:
/// chunked` (one chunk per produced fragment, then the zero-length
/// terminator).
///
/// # Errors
///
/// Propagates socket write failures (the caller logs and drops).
pub fn write_response(stream: &mut impl Write, response: &Response) -> io::Result<()> {
    stream.write_all(response_head(response, true).as_bytes())?;
    match &response.stream {
        Some(body) => {
            body.produce(&mut ChunkWriter { inner: stream })?;
            stream.write_all(b"0\r\n\r\n")?;
        }
        None => stream.write_all(response.body.as_bytes())?,
    }
    stream.flush()
}

/// Renders the response head: `Connection: close` when `close`, else
/// `Connection: keep-alive` (the reactor's keep-alive responses).
/// The two heads differ only in that header value.
pub fn response_head(response: &Response, close: bool) -> String {
    let framing = match &response.stream {
        Some(_) => "Transfer-Encoding: chunked".to_string(),
        None => format!("Content-Length: {}", response.body.len()),
    };
    let connection = if close { "close" } else { "keep-alive" };
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\n{framing}\r\nConnection: {connection}\r\n",
        response.status,
        reason(response.status),
        response.content_type,
    );
    if let Some(secs) = response.retry_after {
        head.push_str(&format!("Retry-After: {secs}\r\n"));
    }
    if let Some(id) = &response.request_id {
        head.push_str(&format!("X-Request-Id: {id}\r\n"));
    }
    if let Some(timing) = &response.server_timing {
        head.push_str(&format!("Server-Timing: {timing}\r\n"));
    }
    head.push_str("\r\n");
    head
}

/// Decodes a chunked transfer-encoded body back to its bytes (test
/// and CLI helper; lenient about trailing garbage after the
/// terminator).
///
/// # Errors
///
/// Returns a message when the chunk framing is malformed.
pub fn decode_chunked(body: &[u8]) -> Result<Vec<u8>, String> {
    let mut out = Vec::new();
    let mut rest = body;
    loop {
        let line_end = rest
            .windows(2)
            .position(|w| w == b"\r\n")
            .ok_or("missing chunk-size line terminator")?;
        let size_line =
            std::str::from_utf8(&rest[..line_end]).map_err(|_| "chunk size is not UTF-8")?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| format!("bad chunk size {size_line:?}"))?;
        rest = &rest[line_end + 2..];
        if size == 0 {
            return Ok(out);
        }
        if rest.len() < size + 2 {
            return Err(format!("truncated chunk of {size} bytes"));
        }
        out.extend_from_slice(&rest[..size]);
        if &rest[size..size + 2] != b"\r\n" {
            return Err("chunk data not terminated by CRLF".into());
        }
        rest = &rest[size + 2..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, RequestError> {
        let mut cursor = io::Cursor::new(bytes.to_vec());
        read_request(&mut cursor)
    }

    #[test]
    fn parses_a_plain_get() {
        let r = parse(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.method, "GET");
        assert_eq!(r.path, "/healthz");
        assert!(r.query.is_empty());
    }

    #[test]
    fn parses_query_parameters_in_order() {
        let r = parse(b"GET /v1/experiments?app=mp3d&model=ds&window=64 HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(
            r.query,
            vec![
                ("app".into(), "mp3d".into()),
                ("model".into(), "ds".into()),
                ("window".into(), "64".into()),
            ]
        );
        assert_eq!(r.param("model"), Some("ds"));
        assert_eq!(r.param("missing"), None);
    }

    #[test]
    fn percent_decoding_is_lenient() {
        assert_eq!(percent_decode("a%20b+c"), "a b c");
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("%"), "%");
        assert_eq!(percent_decode("%4"), "%4");
        assert_eq!(percent_decode("caf%C3%A9"), "café");
        // Invalid UTF-8 after decoding is replaced, not a panic.
        assert_eq!(percent_decode("%ff"), "\u{fffd}");
    }

    #[test]
    fn rejects_non_get_with_405() {
        for m in ["POST", "PUT", "DELETE", "HEAD", "OPTIONS"] {
            let e = parse(format!("{m} / HTTP/1.1\r\n\r\n").as_bytes()).unwrap_err();
            assert_eq!(e.status(), Some(405), "{m}");
        }
    }

    #[test]
    fn rejects_garbage_without_panicking() {
        for bytes in [
            &b"\x00\x01\x02\x03\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"GET / \r\n\r\n",
            b"GET / SPDY/3\r\n\r\n",
            b"get / http/1.1\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"\xff\xfe\xfd\r\n\r\n",
            b"GET /x HTTP/1.1\r\nbroken header\r\n\r\n",
        ] {
            let e = parse(bytes).unwrap_err();
            assert_eq!(e.status(), Some(400), "{bytes:?}");
        }
    }

    #[test]
    fn truncated_head_is_a_bad_request() {
        let e = parse(b"GET / HTTP/1.1\r\nHost: x").unwrap_err();
        assert_eq!(e.status(), Some(400));
    }

    #[test]
    fn empty_connection_is_io_not_a_status() {
        let e = parse(b"").unwrap_err();
        assert!(e.status().is_none());
    }

    #[test]
    fn oversized_request_line_is_414() {
        let mut req = b"GET /".to_vec();
        req.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE + 10));
        let e = parse(&req).unwrap_err();
        assert_eq!(e.status(), Some(414));
    }

    #[test]
    fn too_many_headers_is_431() {
        let mut req = b"GET / HTTP/1.1\r\n".to_vec();
        for i in 0..MAX_HEADER_COUNT + 5 {
            req.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        req.extend_from_slice(b"\r\n");
        let e = parse(&req).unwrap_err();
        assert_eq!(e.status(), Some(431));
    }

    #[test]
    fn announced_bodies_are_rejected() {
        let e = parse(b"GET / HTTP/1.1\r\nContent-Length: 10\r\n\r\n0123456789").unwrap_err();
        assert_eq!(e.status(), Some(413));
        let e = parse(b"GET / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n").unwrap_err();
        assert_eq!(e.status(), Some(413));
        // An explicit zero-length body is fine.
        assert!(parse(b"GET / HTTP/1.1\r\nContent-Length: 0\r\n\r\n").is_ok());
    }

    #[test]
    fn bare_lf_line_endings_are_tolerated() {
        let r = parse(b"GET /healthz HTTP/1.1\nHost: x\n\n").unwrap();
        assert_eq!(r.path, "/healthz");
    }

    #[test]
    fn keep_alive_follows_http_version_and_connection_header() {
        let r = parse(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert!(r.keep_alive, "HTTP/1.1 defaults to keep-alive");
        let r = parse(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!r.keep_alive);
        let r = parse(b"GET / HTTP/1.1\r\nConnection: Keep-Alive, close\r\n\r\n").unwrap();
        assert!(!r.keep_alive, "close wins over keep-alive");
        let r = parse(b"GET / HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
        assert!(!r.keep_alive, "HTTP/1.0 defaults to close");
        let r = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(r.keep_alive, "HTTP/1.0 may opt in");
    }

    #[test]
    fn head_parser_resumes_across_arbitrary_splits() {
        let wire = b"GET /v1/experiments?app=lu HTTP/1.1\r\nX-Request-Id: abc-1\r\n\r\n";
        let mut parser = HeadParser::new();
        for b in &wire[..wire.len() - 1] {
            assert!(parser.feed(&[*b]).unwrap().is_none());
        }
        let r = parser
            .feed(&wire[wire.len() - 1..])
            .unwrap()
            .expect("head complete");
        assert_eq!(r.path, "/v1/experiments");
        assert_eq!(r.request_id.as_deref(), Some("abc-1"));
        assert!(!parser.has_buffered());
    }

    #[test]
    fn head_parser_retains_pipelined_requests() {
        let mut parser = HeadParser::new();
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\nConnection: close\r\n\r\n";
        let first = parser.feed(two).unwrap().expect("first head");
        assert_eq!(first.path, "/a");
        assert!(first.keep_alive);
        assert!(parser.has_buffered(), "second request stays buffered");
        let second = parser.advance().unwrap().expect("second head");
        assert_eq!(second.path, "/b");
        assert!(!second.keep_alive);
        assert!(parser.advance().unwrap().is_none());
        assert!(!parser.has_buffered());
    }

    #[test]
    fn head_parser_applies_the_same_limits() {
        let mut parser = HeadParser::new();
        let mut line = b"GET /".to_vec();
        line.extend(std::iter::repeat_n(b'a', MAX_REQUEST_LINE + 10));
        let e = parser.feed(&line).unwrap_err();
        assert_eq!(e.status(), Some(414));
    }

    #[test]
    fn response_head_differs_only_in_connection_header() {
        let resp = Response {
            request_id: Some("req-000000000001".into()),
            ..Response::json(200, "{}".into())
        };
        let closed = response_head(&resp, true);
        let kept = response_head(&resp, false);
        assert_eq!(
            closed.replace("Connection: close", "Connection: keep-alive"),
            kept
        );
    }

    #[test]
    fn response_framing_includes_length_and_close() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{\"a\":1}".into())).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Length: 7\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
    }

    #[test]
    fn client_request_ids_are_kept_only_when_safe() {
        let r = parse(b"GET / HTTP/1.1\r\nX-Request-Id: client-42\r\n\r\n").unwrap();
        assert_eq!(r.request_id.as_deref(), Some("client-42"));
        // Unsafe ids (header injection, junk) are dropped, not a 4xx.
        let r = parse(b"GET / HTTP/1.1\r\nX-Request-Id: has space\r\n\r\n").unwrap();
        assert_eq!(r.request_id, None);
        let r = parse(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(r.request_id, None);
    }

    #[test]
    fn request_id_and_server_timing_headers_are_written() {
        let mut out = Vec::new();
        let resp = Response {
            request_id: Some("req-000000000009".into()),
            server_timing: Some("queue;dur=0.120, handler;dur=3.400".into()),
            ..Response::json(200, "{}".into())
        };
        write_response(&mut out, &resp).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(
            text.contains("X-Request-Id: req-000000000009\r\n"),
            "{text}"
        );
        assert!(
            text.contains("Server-Timing: queue;dur=0.120, handler;dur=3.400\r\n"),
            "{text}"
        );
    }

    #[test]
    fn retry_after_header_on_backpressure() {
        let mut out = Vec::new();
        let resp = Response {
            retry_after: Some(1),
            ..Response::json(503, "{}".into())
        };
        write_response(&mut out, &resp).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Retry-After: 1\r\n"));
    }

    #[test]
    fn random_byte_streams_never_panic() {
        // A tiny deterministic fuzz loop: whatever the bytes, the
        // parser must return, not panic.
        let mut state = 0x9e3779b97f4a7c15u64;
        for len in [0usize, 1, 7, 64, 512, 4096] {
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                bytes.push((state >> 32) as u8);
            }
            bytes.extend_from_slice(b"\r\n\r\n");
            let _ = parse(&bytes);
        }
    }
}
