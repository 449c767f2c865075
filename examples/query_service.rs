//! Query a running experiment service from plain `std` — no HTTP
//! client library needed, the protocol is one GET per connection.
//!
//! Start the server in another terminal (small tier so cold queries
//! are fast):
//!
//! ```text
//! LOOKAHEAD_SMALL=1 cargo run --release --bin lookahead -- serve --addr 127.0.0.1:7417
//! ```
//!
//! then run this client, optionally with the server's `IP:PORT`
//! (default `127.0.0.1:7417`; a malformed address exits 2):
//!
//! ```text
//! cargo run --release --example query_service
//! cargo run --release --example query_service -- 127.0.0.1:7417
//! ```

use lookahead_serve::{parse_serve_addr, DEFAULT_ADDR};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};

const USAGE: &str = "usage: query_service [IP:PORT]";

fn get(addr: SocketAddr, target: &str) -> std::io::Result<(u16, String)> {
    let mut conn = TcpStream::connect(addr)?;
    write!(
        conn,
        "GET {target} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    let mut text = String::new();
    conn.read_to_string(&mut text)?;
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok((status, body))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let arg = args.next().unwrap_or_else(|| DEFAULT_ADDR.to_string());
    let addr = match parse_serve_addr("the address argument", &arg) {
        Ok(addr) if args.next().is_none() => addr,
        Ok(_) => exit_usage("expected at most one argument, the server's IP:PORT"),
        Err(e) => exit_usage(&e),
    };

    let queries = [
        "/healthz",
        "/v1/apps",
        "/v1/experiments?app=mp3d&model=ds&window=64&consistency=rc",
        "/v1/experiments?app=mp3d&model=base",
        "/metrics",
    ];
    let mut stdout = std::io::stdout().lock();
    for target in queries {
        match get(addr, target) {
            Ok((status, body)) => {
                let mut shown =
                    writeln!(stdout, "GET {target}\n  -> {status}, {} bytes", body.len());
                // Bodies are compact JSON; show the small ones whole.
                if body.len() <= 400 {
                    shown = shown.and_then(|()| writeln!(stdout, "  {body}"));
                }
                // A reader that went away (`| head`) took all it wanted.
                match shown {
                    Ok(()) => {}
                    Err(e) if e.kind() == ErrorKind::BrokenPipe => return,
                    Err(e) => {
                        eprintln!("error: cannot write to stdout: {e}");
                        std::process::exit(1);
                    }
                }
            }
            Err(e) => {
                eprintln!(
                    "GET {target} failed: {e}\n\
                     is the server running? try:\n  \
                     LOOKAHEAD_SMALL=1 cargo run --release --bin lookahead -- serve"
                );
                std::process::exit(1);
            }
        }
    }
}

fn exit_usage(error: &str) -> ! {
    eprintln!("error: {error}\n\n{USAGE}");
    std::process::exit(2);
}
