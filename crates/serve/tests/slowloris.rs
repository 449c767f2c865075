//! Slow-loris regression: stalled connections must not delay healthy
//! clients.
//!
//! The attack shape: open many connections, send a *partial* request
//! head, then go silent. A thread-per-connection server burns one
//! worker per stalled socket — 64 stallers against a small pool
//! starves every healthy client. The reactor transport parks stalled
//! connections in epoll (they cost a file descriptor, not a thread)
//! and evicts them with `408 Request Timeout` when the per-connection
//! header-completion deadline expires.
//!
//! The test pins both halves: healthy p99 stays far below the read
//! timeout while 64 stallers sit open, and the stallers themselves get
//! a 408 once the deadline passes.

use lookahead_serve::{ExperimentService, Server, ServerConfig, ServiceConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

const STALLED: usize = 64;
const HEALTHY: usize = 32;
const READ_TIMEOUT: Duration = Duration::from_secs(2);

fn healthy_get(addr: std::net::SocketAddr) -> (u16, Duration) {
    let t0 = Instant::now();
    let mut conn = TcpStream::connect(addr).expect("connect");
    write!(
        conn,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut text = String::new();
    conn.read_to_string(&mut text).expect("read response");
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (status, t0.elapsed())
}

#[test]
fn stalled_connections_do_not_delay_healthy_clients() {
    if !lookahead_serve::reactor::supported() {
        eprintln!("skipping: reactor transport unsupported on this platform");
        return;
    }
    let service = Arc::new(ExperimentService::new(ServiceConfig::default(), None));
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".parse().unwrap(),
        threads: 2,
        read_timeout: READ_TIMEOUT,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run(service));

    // 64 connections send half a request head and then go silent. Keep
    // the sockets alive — dropping one would close it and release the
    // server's state early.
    let stalled: Vec<TcpStream> = (0..STALLED)
        .map(|_| {
            let mut conn = TcpStream::connect(addr).expect("staller connect");
            conn.write_all(b"GET /healthz HTTP/1.1\r\nHost: slow")
                .expect("staller partial head");
            conn
        })
        .collect();

    // Healthy traffic while all 64 stallers sit open: every request
    // must answer promptly. A transport that serialized behind the
    // stallers would stall for READ_TIMEOUT or forever.
    let mut latencies: Vec<Duration> = (0..HEALTHY)
        .map(|i| {
            let (status, elapsed) = healthy_get(addr);
            assert_eq!(status, 200, "healthy request {i} while stalled");
            elapsed
        })
        .collect();
    latencies.sort_unstable();
    let p99 = latencies[(99 * (latencies.len() - 1))
        .div_ceil(100)
        .min(latencies.len() - 1)];
    assert!(
        p99 < READ_TIMEOUT / 4,
        "healthy p99 {p99:?} while {STALLED} stalled connections are open \
         (read timeout {READ_TIMEOUT:?})"
    );

    // The stallers themselves are evicted with 408 once the
    // header-completion deadline expires.
    let mut evicted = 0;
    for mut conn in stalled {
        conn.set_read_timeout(Some(READ_TIMEOUT * 4)).unwrap();
        let mut text = String::new();
        if conn.read_to_string(&mut text).is_ok() && text.starts_with("HTTP/1.1 408 ") {
            evicted += 1;
        }
    }
    assert_eq!(evicted, STALLED, "every staller gets a 408 and a close");

    handle.shutdown();
    let stats = join.join().unwrap();
    assert_eq!(stats.accepted as usize, STALLED + HEALTHY);
    // 408s are fully written error responses, not aborts.
    assert_eq!(stats.served as usize, STALLED + HEALTHY);
    assert_eq!(stats.aborted, 0);
}
