//! Closed-loop HTTP/1.1 load from one thread over a few keep-alive
//! connections: each connection sends its next request only when the
//! previous response is complete, so a slower server receives less
//! load. Readiness comes from `poll(2)`.
//!
//! Every response must be a 200 with `Content-Length` framing and
//! nothing after the body. Each target's body digest must be the same
//! on every response; the first one per target is reported so the
//! caller can compare it with a reference. With `trace`, the
//! `Server-Timing` stages (queue, parse, handler) of every response
//! are kept, and the client time they leave unexplained is the
//! transport's.
//!
//! Latencies and the elapsed time are reported net of the CPU time the
//! hypervisor steals from the VM: `/proc/stat` steal is sampled every
//! second, and each second's times shrink by the share of the CPUs
//! stolen in it.

use crate::serve::{fnv1a, request_bytes};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short, c_ulong};
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;

/// What to send, where, and for how long.
pub struct Plan {
    pub addr: SocketAddr,
    pub conns: usize,
    pub duration: Duration,
    pub timeout: Duration,
    pub targets: Vec<String>,
    /// Indices into `targets`, sent in order until it or the duration
    /// runs out.
    pub stream: Vec<usize>,
    pub trace: bool,
    /// `/proc/stat` ticks per second and the CPUs they are spread over.
    pub ticks_per_s: f64,
    pub cpus: f64,
}

struct Conn {
    sock: TcpStream,
    buf: Vec<u8>,
    /// Target index and send instant of the outstanding request.
    busy: Option<(usize, Instant)>,
}

/// Per-request `Server-Timing` stages and client time, microseconds.
struct Stages {
    queue: f64,
    parse: f64,
    handler: f64,
    client: f64,
}

#[derive(Default)]
struct Failures {
    status: u64,
    framing: u64,
    timeout: u64,
    io: u64,
    mismatch: u64,
}

impl Failures {
    fn total(&self) -> u64 {
        self.status + self.framing + self.timeout + self.io + self.mismatch
    }
}

enum Parsed {
    NeedMore,
    Done {
        status: u16,
        digest: u64,
        timing: Option<(f64, f64, f64)>,
        close: bool,
    },
    Bad,
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn server_timing(value: &str) -> Option<(f64, f64, f64)> {
    let mut stages = [None; 3];
    for part in value.split(',') {
        let (name, dur) = part.trim().split_once(";dur=")?;
        let ms: f64 = dur.trim().parse().ok()?;
        let slot = match name {
            "queue" => 0,
            "parse" => 1,
            "handler" => 2,
            _ => continue,
        };
        stages[slot] = Some(ms * 1000.0);
    }
    Some((stages[0]?, stages[1]?, stages[2]?))
}

/// Parses one complete response off the front of `buf`, if there is
/// one; a complete response must be the only bytes buffered.
fn parse_response(buf: &[u8], trace: bool) -> Parsed {
    let Some(end) = find(buf, b"\r\n\r\n") else {
        return Parsed::NeedMore;
    };
    let Ok(head) = std::str::from_utf8(&buf[..end]) else {
        return Parsed::Bad;
    };
    let mut lines = head.split("\r\n");
    let status = lines
        .next()
        .and_then(|l| l.strip_prefix("HTTP/1.1 "))
        .and_then(|l| l.get(..3))
        .and_then(|s| s.parse::<u16>().ok());
    let Some(status) = status else {
        return Parsed::Bad;
    };
    let (mut length, mut timing, mut close) = (None, None, false);
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            return Parsed::Bad;
        };
        let value = value.trim();
        match name.to_ascii_lowercase().as_str() {
            "content-length" => length = value.parse::<usize>().ok(),
            "connection" => close = value.eq_ignore_ascii_case("close"),
            "server-timing" if trace => timing = server_timing(value),
            _ => {}
        }
    }
    let Some(length) = length else {
        return Parsed::Bad;
    };
    let body = end + 4;
    if buf.len() < body + length {
        return Parsed::NeedMore;
    }
    if buf.len() > body + length || (trace && timing.is_none()) {
        return Parsed::Bad;
    }
    Parsed::Done {
        status,
        digest: fnv1a(&buf[body..]),
        timing,
        close,
    }
}

fn write_all_polled(sock: &mut TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    while !bytes.is_empty() {
        match sock.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let mut fd = PollFd {
                    fd: sock.as_raw_fd(),
                    events: POLLOUT,
                    revents: 0,
                };
                // SAFETY: `fd` is one valid, initialized pollfd and
                // nfds is 1, so poll reads and writes only that struct.
                unsafe { poll(&mut fd, 1, 100) };
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

fn connect(addr: SocketAddr) -> io::Result<TcpStream> {
    let sock = TcpStream::connect(addr)?;
    sock.set_nodelay(true)?;
    sock.set_nonblocking(true)?;
    Ok(sock)
}

/// Drains readable bytes; `Ok(false)` when the peer closed.
fn read_available(conn: &mut Conn) -> io::Result<bool> {
    let mut chunk = [0u8; 16384];
    loop {
        match conn.sock.read(&mut chunk) {
            Ok(0) => return Ok(false),
            Ok(n) => conn.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(true),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The machine's cumulative steal ticks (`cpu` line of `/proc/stat`).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|stat| {
            let line = stat.lines().find(|l| l.starts_with("cpu "))?;
            line.split_whitespace().nth(8)?.parse().ok()
        })
        .unwrap_or(0)
}

/// Share of the CPUs stolen in each whole second of the run, and in
/// the partial last one (`steal_at[k]` was read at second `k`).
fn stolen_shares(plan: &Plan, steal_at: &[u64], last: u64, elapsed: f64) -> Vec<(f64, f64)> {
    let mut marks = steal_at.to_vec();
    marks.push(last);
    marks
        .windows(2)
        .enumerate()
        .map(|(k, w)| {
            let secs = (elapsed - k as f64).clamp(0.0, 1.0);
            let share = if secs > 0.0 {
                (w[1] - w[0]) as f64 / (plan.ticks_per_s * plan.cpus * secs)
            } else {
                0.0
            };
            (secs, share.clamp(0.0, 0.9))
        })
        .collect()
}

/// Runs the plan and returns its summary as one JSON object.
pub fn run(plan: &Plan) -> io::Result<String> {
    let requests: Vec<Vec<u8>> = plan.targets.iter().map(|t| request_bytes(t)).collect();
    let started = Instant::now();
    let deadline = started + plan.duration;
    let mut next = 0usize;
    let mut take = || -> Option<usize> {
        if Instant::now() >= deadline || next >= plan.stream.len() {
            return None;
        }
        let i = plan.stream[next];
        next += 1;
        Some(i)
    };

    let mut lat_ns: Vec<u64> = Vec::new();
    let mut stages: Vec<Stages> = Vec::new();
    let mut spans: Vec<(u64, u64)> = Vec::new();
    // Completion offset of each successful request, and the steal
    // counter at every whole second.
    let mut done_ns: Vec<u64> = Vec::new();
    let mut steal_at: Vec<u64> = vec![steal_ticks()];
    let mut digests: HashMap<usize, u64> = HashMap::new();
    let mut fail = Failures::default();
    let mut attempted = 0u64;
    let mut last_done = started;

    let mut conns: Vec<Conn> = Vec::new();
    for _ in 0..plan.conns {
        conns.push(Conn {
            sock: connect(plan.addr)?,
            buf: Vec::new(),
            busy: None,
        });
    }
    let send = |conn: &mut Conn, target: usize, attempted: &mut u64| -> io::Result<()> {
        *attempted += 1;
        conn.buf.clear();
        conn.busy = Some((target, Instant::now()));
        write_all_polled(&mut conn.sock, &requests[target])
    };
    for conn in &mut conns {
        if let Some(t) = take() {
            send(conn, t, &mut attempted)?;
        }
    }

    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    while conns.iter().any(|c| c.busy.is_some()) {
        fds.clear();
        fds.extend(conns.iter().map(|c| PollFd {
            fd: c.sock.as_raw_fd(),
            events: if c.busy.is_some() { POLLIN } else { 0 },
            revents: 0,
        }));
        // SAFETY: `fds` holds `fds.len()` initialized pollfds and is not
        // touched by anything else while poll runs.
        let ready = unsafe { poll(fds.as_mut_ptr(), fds.len() as c_ulong, 20) };
        while started.elapsed().as_secs() >= steal_at.len() as u64 {
            steal_at.push(steal_ticks());
        }
        if ready < 0 {
            let e = io::Error::last_os_error();
            if e.kind() != io::ErrorKind::Interrupted {
                return Err(e);
            }
            continue;
        }
        for (ci, conn) in conns.iter_mut().enumerate() {
            let Some((target, sent)) = conn.busy else {
                continue;
            };
            let broken;
            if fds[ci].revents != 0 {
                let outcome = match read_available(conn) {
                    Ok(open) => match parse_response(&conn.buf, plan.trace) {
                        Parsed::NeedMore if open && sent.elapsed() <= plan.timeout => None,
                        Parsed::NeedMore if open => {
                            fail.timeout += 1;
                            Some(true)
                        }
                        Parsed::NeedMore => {
                            fail.io += 1;
                            Some(true)
                        }
                        Parsed::Bad => {
                            fail.framing += 1;
                            Some(true)
                        }
                        Parsed::Done {
                            status,
                            digest,
                            timing,
                            close,
                        } => {
                            let now = Instant::now();
                            last_done = now;
                            if status != 200 {
                                fail.status += 1;
                            } else if *digests.entry(target).or_insert(digest) != digest {
                                fail.mismatch += 1;
                            } else {
                                let ns = now.duration_since(sent).as_nanos() as u64;
                                lat_ns.push(ns);
                                done_ns.push(now.duration_since(started).as_nanos() as u64);
                                if let Some((queue, parse, handler)) = timing {
                                    stages.push(Stages {
                                        queue,
                                        parse,
                                        handler,
                                        client: ns as f64 / 1000.0,
                                    });
                                    spans.push((
                                        sent.duration_since(started).as_nanos() as u64,
                                        now.duration_since(started).as_nanos() as u64,
                                    ));
                                }
                            }
                            conn.busy = None;
                            Some(close || !open)
                        }
                    },
                    Err(_) => {
                        fail.io += 1;
                        Some(true)
                    }
                };
                match outcome {
                    None => continue,
                    Some(b) => broken = b,
                }
            } else if sent.elapsed() > plan.timeout {
                fail.timeout += 1;
                broken = true;
            } else {
                continue;
            }
            conn.busy = None;
            if broken {
                conn.sock = connect(plan.addr)?;
            }
            if let Some(t) = take() {
                if send(conn, t, &mut attempted).is_err() {
                    // The failed send is counted when its read fails.
                    conn.sock = connect(plan.addr)?;
                    conn.busy = None;
                    fail.io += 1;
                }
            }
        }
    }

    let raw_elapsed = last_done.duration_since(started).as_secs_f64();
    steal_at.truncate(raw_elapsed.ceil().max(1.0) as usize);
    let shares = stolen_shares(plan, &steal_at, steal_ticks(), raw_elapsed);
    let elapsed: f64 = shares.iter().map(|(secs, f)| secs * (1.0 - f)).sum();
    let stolen_s: f64 = shares.iter().map(|(secs, f)| secs * f * plan.cpus).sum();
    for (lat, done) in lat_ns.iter_mut().zip(&done_ns) {
        let k = ((*done / 1_000_000_000) as usize).min(shares.len() - 1);
        *lat = (*lat as f64 * (1.0 - shares[k].1)) as u64;
    }
    let completed = lat_ns.len() as u64;
    lat_ns.sort_unstable();
    let n = lat_ns.len();
    let beyond_p99 = n - ((0.99 * n as f64).ceil() as usize).min(n);
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"attempted\":{attempted},\"completed\":{completed},\"failed\":{},\
         \"failures\":{{\"status\":{},\"framing\":{},\"timeout\":{},\"io\":{},\"mismatch\":{}}},\
         \"elapsed_s\":{elapsed},\"stolen_s\":{stolen_s},\"p50_ns\":{},\"p99_ns\":{},\"beyond_p99\":{beyond_p99}",
        fail.total(),
        fail.status,
        fail.framing,
        fail.timeout,
        fail.io,
        fail.mismatch,
        percentile(&lat_ns, 0.50),
        percentile(&lat_ns, 0.99),
    );
    out.push_str(",\"digests\":{");
    let mut keys: Vec<_> = digests.into_iter().collect();
    keys.sort_unstable();
    for (k, (t, d)) in keys.iter().enumerate() {
        let sep = if k == 0 { "" } else { "," };
        let _ = write!(out, "{sep}\"{t}\":\"{d:016x}\"");
    }
    out.push('}');
    if plan.trace {
        let pick = |f: fn(&Stages) -> f64| median(stages.iter().map(f).collect());
        let transport = median(
            stages
                .iter()
                .map(|s| s.client - s.queue - s.parse - s.handler)
                .collect(),
        );
        // Share of the load's wall time during which at least one
        // request was outstanding (the union of request spans).
        spans.sort_unstable();
        let (mut covered, mut reach) = (0u64, 0u64);
        for &(s, e) in &spans {
            let s = s.max(reach);
            if e > s {
                covered += e - s;
            }
            reach = reach.max(e);
        }
        let wall = last_done.duration_since(started).as_nanos().max(1) as f64;
        let _ = write!(
            out,
            ",\"trace\":{{\"queue_p50_us\":{},\"parse_p50_us\":{},\"handler_p50_us\":{},\
             \"client_p50_us\":{},\"transport_p50_us\":{transport},\"coverage\":{}}}",
            pick(|s| s.queue),
            pick(|s| s.parse),
            pick(|s| s.handler),
            pick(|s| s.client),
            covered as f64 / wall,
        );
    }
    out.push('}');
    Ok(out)
}
