//! Minimal blocking HTTP/1.1 client (`loadgen` reads the server's
//! `/metrics.json` with it), with typed errors for the failure modes a
//! client actually hits against a live service.
//!
//! The one that matters operationally: a server draining after SIGINT
//! accepts nothing new and closes in-flight sockets, which surfaces to
//! a naive client as `EPIPE`/`ECONNRESET` mid-write or an empty read —
//! historically a broken-pipe panic or a baffling `status 0` report.
//! [`ClientError::Disconnected`] names that case so callers can print
//! one clean line and move on.

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};

/// Why a request failed before yielding a parsed response.
#[derive(Debug)]
pub enum ClientError {
    /// The TCP connection could not be established (server down, port
    /// closed, network unreachable).
    Connect(io::Error),
    /// The server accepted the connection but closed it before
    /// sending a complete response — the signature of a server
    /// draining for shutdown.
    Disconnected,
    /// Any other I/O failure mid-request.
    Io(io::Error),
    /// Bytes arrived but did not parse as an HTTP response.
    Malformed(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "cannot connect: {e}"),
            ClientError::Disconnected => {
                write!(f, "server closed the connection mid-request (draining?)")
            }
            ClientError::Io(e) => write!(f, "request failed: {e}"),
            ClientError::Malformed(line) => write!(f, "malformed response: {line:?}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Connect(e) | ClientError::Io(e) => Some(e),
            ClientError::Disconnected | ClientError::Malformed(_) => None,
        }
    }
}

/// An I/O error that means "the peer hung up", not "something broke".
fn is_disconnect(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::BrokenPipe
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::UnexpectedEof
    )
}

fn map_io(e: io::Error) -> ClientError {
    if is_disconnect(&e) {
        ClientError::Disconnected
    } else {
        ClientError::Io(e)
    }
}

/// Issues one `GET` with `Connection: close` and returns
/// `(status, body)`.
///
/// # Errors
///
/// [`ClientError::Disconnected`] when the server closes the socket
/// before a complete status line arrives (a draining server);
/// [`ClientError::Connect`]/[`Io`](ClientError::Io) for transport
/// failures; [`ClientError::Malformed`] for non-HTTP bytes.
pub fn get(addr: SocketAddr, target: &str) -> Result<(u16, String), ClientError> {
    let mut conn = TcpStream::connect(addr).map_err(ClientError::Connect)?;
    write!(
        conn,
        "GET {target} HTTP/1.1\r\nHost: lookahead\r\nConnection: close\r\n\r\n"
    )
    .map_err(map_io)?;
    let mut text = String::new();
    conn.read_to_string(&mut text).map_err(map_io)?;
    if text.is_empty() {
        // Accepted, then closed without a byte: the drain signature.
        return Err(ClientError::Disconnected);
    }
    let status_line = text.lines().next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| ClientError::Malformed(status_line.to_string()))?;
    let body = text
        .split_once("\r\n\r\n")
        .map_or_else(String::new, |(_, b)| b.to_string());
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disconnect_kinds_map_to_disconnected() {
        for kind in [
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::UnexpectedEof,
        ] {
            assert!(matches!(
                map_io(io::Error::new(kind, "x")),
                ClientError::Disconnected
            ));
        }
        assert!(matches!(
            map_io(io::Error::new(io::ErrorKind::OutOfMemory, "x")),
            ClientError::Io(_)
        ));
    }

    #[test]
    fn disconnected_message_names_draining() {
        let msg = ClientError::Disconnected.to_string();
        assert!(msg.contains("draining"), "{msg}");
        assert!(msg.contains("closed the connection"), "{msg}");
    }
}
