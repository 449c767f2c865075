//! Load generator for the experiment service: mixed hot/cold traffic,
//! exact latency percentiles split into queue wait vs service time
//! (from the server's `Server-Timing` header), an optional p99 SLO
//! gate, and cache-hit / coalescing rates read back from
//! `/metrics.json`.
//!
//! ```text
//! # Against an in-process server (cold cache, small tier):
//! LOOKAHEAD_SMALL=1 cargo run --release --bin loadgen -- --spawn --clients 32
//!
//! # Against an already-running server:
//! cargo run --release --bin loadgen -- --addr 127.0.0.1:7417
//! ```
//!
//! Traffic model: every client thread issues `--requests` GETs; odd
//! request indices hit the *hot* target (the first of the pool), even
//! ones walk the pool round-robin, so the mix exercises both the body
//! memo (hot) and cold-key coalescing (the pool, hit by many clients
//! at once). The assignment is deterministic — a run is reproducible.
//!
//! With `--expect-single-flight` (meaningful against a cold, spawned
//! server) the run fails unless the service ran **exactly one
//! simulation per distinct application** and every request is
//! accounted to one body flight — the acceptance check for the
//! single-flight contract under real concurrency.

use lookahead_bench::client::{get, get_with_headers, ClientError};
use lookahead_bench::servebench::{run_load, LoadOptions};
use lookahead_bench::{config_from_env, fail_fast};
use lookahead_harness::parallel;
use lookahead_harness::SizeTier;
use lookahead_serve::{
    parse_serve_addr, serve_addr_from_env, ExperimentService, Server, ServerConfig, ServiceConfig,
};
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

const USAGE: &str = "usage: loadgen [OPTIONS]

Drives mixed hot/cold traffic at an experiment service and reports
latency percentiles plus cache-hit and coalescing rates.

options:
  --addr IP:PORT          target server (default: LOOKAHEAD_SERVE_ADDR
                          or 127.0.0.1:7417)
  --spawn                 boot an in-process server (cold cache) on a
                          free port and drive that instead
  --clients N             concurrent client threads (default 32)
  --requests N            requests per client (default 4)
  --connections N         drive N concurrent connections from one
                          nonblocking epoll thread instead of N client
                          threads (scales to thousands)
  --keepalive             with --connections: reuse each connection for
                          all its requests (HTTP/1.1 keep-alive)
                          instead of reconnecting per request
  --expect-single-flight  fail unless exactly one simulation ran per
                          distinct app and all requests coalesced
  --slo-p99-ms MS         fail the run when the measured p99 latency
                          exceeds MS milliseconds
  -h, --help              show this help

environment: LOOKAHEAD_SMALL=1, LOOKAHEAD_PROCS=n, LOOKAHEAD_JOBS=n,
LOOKAHEAD_SERVE_ADDR";

/// The target pool: two applications (two distinct generation keys)
/// across window sizes. `pool()[0]` is the hot target.
fn pool() -> Vec<String> {
    let mut targets = Vec::new();
    for app in ["lu", "mp3d"] {
        for window in [16usize, 64, 256] {
            targets.push(format!("/v1/experiments?app={app}&window={window}"));
        }
    }
    targets
}

const DISTINCT_APPS: u64 = 2;

struct Options {
    addr: Option<String>,
    spawn: bool,
    clients: usize,
    requests: usize,
    connections: Option<usize>,
    keepalive: bool,
    expect_single_flight: bool,
    slo_p99_ms: Option<f64>,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        addr: None,
        spawn: false,
        clients: 32,
        requests: 4,
        connections: None,
        keepalive: false,
        expect_single_flight: false,
        slo_p99_ms: None,
    };
    let mut it = args.iter();
    let positive = |v: &str, flag: &str| -> Result<usize, String> {
        v.parse::<usize>()
            .ok()
            .filter(|n| *n >= 1)
            .ok_or_else(|| format!("{flag} must be a positive integer, got {v:?}"))
    };
    let positive_ms = |v: &str, flag: &str| -> Result<f64, String> {
        v.parse::<f64>()
            .ok()
            .filter(|n| *n > 0.0 && n.is_finite())
            .ok_or_else(|| format!("{flag} must be a positive number of milliseconds, got {v:?}"))
    };
    while let Some(a) = it.next() {
        let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "-h" | "--help" => return Ok(None),
            "--spawn" => opts.spawn = true,
            "--keepalive" => opts.keepalive = true,
            "--expect-single-flight" => opts.expect_single_flight = true,
            "--addr" => opts.addr = Some(value(&mut it, "--addr")?),
            "--clients" => opts.clients = positive(&value(&mut it, "--clients")?, "--clients")?,
            "--requests" => opts.requests = positive(&value(&mut it, "--requests")?, "--requests")?,
            "--connections" => {
                opts.connections = Some(positive(
                    &value(&mut it, "--connections")?,
                    "--connections",
                )?)
            }
            "--slo-p99-ms" => {
                opts.slo_p99_ms = Some(positive_ms(
                    &value(&mut it, "--slo-p99-ms")?,
                    "--slo-p99-ms",
                )?)
            }
            _ => {
                if let Some(v) = a.strip_prefix("--addr=") {
                    opts.addr = Some(v.to_string());
                } else if let Some(v) = a.strip_prefix("--clients=") {
                    opts.clients = positive(v, "--clients")?;
                } else if let Some(v) = a.strip_prefix("--requests=") {
                    opts.requests = positive(v, "--requests")?;
                } else if let Some(v) = a.strip_prefix("--connections=") {
                    opts.connections = Some(positive(v, "--connections")?);
                } else if let Some(v) = a.strip_prefix("--slo-p99-ms=") {
                    opts.slo_p99_ms = Some(positive_ms(v, "--slo-p99-ms")?);
                } else {
                    return Err(format!("unknown option {a:?}"));
                }
            }
        }
    }
    if opts.spawn && opts.addr.is_some() {
        return Err("--spawn and --addr are mutually exclusive".to_string());
    }
    if opts.keepalive && opts.connections.is_none() {
        return Err("--keepalive needs --connections (the epoll engine)".to_string());
    }
    Ok(Some(opts))
}

/// Exact percentile of a sorted sample (nearest-rank on n-1).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p / 100.0 * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// A counter out of the `/metrics.json` JSON (flat `"path":value`), 0
/// when absent.
fn metric(body: &str, path: &str) -> u64 {
    let needle = format!("\"{path}\":");
    match body.find(&needle) {
        None => 0,
        Some(at) => body[at + needle.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .unwrap_or(0),
    }
}

/// One stage's duration out of a `Server-Timing` header value
/// (`queue;dur=0.042, parse;dur=0.003, handler;dur=12.8`), in
/// microseconds.
fn server_timing_us(value: &str, stage: &str) -> Option<u64> {
    value.split(',').find_map(|part| {
        let ms: f64 = part
            .trim()
            .strip_prefix(stage)?
            .strip_prefix(";dur=")?
            .parse()
            .ok()?;
        Some((ms * 1000.0) as u64)
    })
}

/// The original thread-per-client driver: one blocking client thread
/// per slot, fired through a barrier so cold keys really do see
/// concurrent identical requests.
fn run_threaded(
    opts: &Options,
    addr: std::net::SocketAddr,
    targets: &[String],
    errors: &AtomicU64,
) -> Vec<(u64, Option<u64>, Option<u64>)> {
    eprintln!(
        "loadgen: {} clients x {} requests against http://{addr} \
         ({} distinct targets, hot target {})",
        opts.clients,
        opts.requests,
        targets.len(),
        targets[0],
    );
    let barrier = Barrier::new(opts.clients);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..opts.clients)
            .map(|client| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut mine = Vec::with_capacity(opts.requests);
                    barrier.wait();
                    for r in 0..opts.requests {
                        let global = client * opts.requests + r;
                        let target = if global % 2 == 1 {
                            &targets[0]
                        } else {
                            &targets[global / 2 % targets.len()]
                        };
                        let t0 = Instant::now();
                        match get_with_headers(addr, target) {
                            Ok(reply) if reply.status == 200 => {
                                let timing = reply.header("Server-Timing");
                                mine.push((
                                    t0.elapsed().as_micros() as u64,
                                    timing.and_then(|t| server_timing_us(t, "queue")),
                                    timing.and_then(|t| server_timing_us(t, "handler")),
                                ));
                            }
                            Ok(reply) => {
                                // The request id joins this line to the
                                // server's own log of the failure.
                                eprintln!(
                                    "loadgen: {} for {target} (request_id={}): {}",
                                    reply.status,
                                    reply.header("X-Request-Id").unwrap_or("?"),
                                    reply.body
                                );
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e @ ClientError::Disconnected) => {
                                // A draining server closes in-flight
                                // sockets; report it as what it is.
                                eprintln!("loadgen: {target}: {e}");
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                            Err(e) => {
                                eprintln!("loadgen: {target} failed: {e}");
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    // Either an in-process server (cold cache, free port) or a remote.
    let mut spawned: Option<(lookahead_serve::ShutdownHandle, std::thread::JoinHandle<_>)> = None;
    let addr = if opts.spawn {
        let jobs = fail_fast(parallel::workers_from_env());
        let service = Arc::new(ExperimentService::new(
            ServiceConfig {
                default_tier: SizeTier::from_env(),
                sim: config_from_env(),
                retime_workers: jobs,
                ..ServiceConfig::default()
            },
            None,
        ));
        let server = match Server::bind(ServerConfig {
            addr: "127.0.0.1:0".parse().expect("loopback"),
            threads: opts.clients.min(16),
            queue_depth: opts.clients.max(64),
            ..ServerConfig::default()
        }) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot bind: {e}");
                return ExitCode::FAILURE;
            }
        };
        let addr = server.local_addr();
        let handle = server.handle();
        spawned = Some((handle, std::thread::spawn(move || server.run(service))));
        addr
    } else {
        match &opts.addr {
            Some(a) => fail_fast(parse_serve_addr(a)),
            None => fail_fast(serve_addr_from_env()),
        }
    };

    let targets = pool();
    let concurrency = opts.connections.unwrap_or(opts.clients);
    let total_requests = concurrency * opts.requests;
    let errors = AtomicU64::new(0);
    let started = Instant::now();
    // (total, queue wait, handler service time) per successful request,
    // the latter two from the server's Server-Timing header.
    let samples: Vec<(u64, Option<u64>, Option<u64>)> = if let Some(connections) = opts.connections
    {
        // The epoll engine: every connection is a nonblocking socket on
        // one reactor thread, so thousands of concurrent connections
        // cost fds, not threads.
        eprintln!(
            "loadgen: {connections} connections x {} requests (epoll engine, keep-alive {}) \
             against http://{addr} ({} distinct targets, hot target {})",
            opts.requests,
            if opts.keepalive { "on" } else { "off" },
            targets.len(),
            targets[0],
        );
        let report = run_load(&LoadOptions {
            keepalive: opts.keepalive,
            targets: targets.clone(),
            ..LoadOptions::new(addr, connections, opts.requests)
        });
        errors.fetch_add(report.errors, Ordering::Relaxed);
        if opts.keepalive {
            eprintln!(
                "loadgen: {} responses arrived on a reused connection",
                report.reused
            );
        }
        report
            .samples
            .iter()
            .map(|s| (s.total_us, s.queue_us, s.handler_us))
            .collect()
    } else {
        run_threaded(&opts, addr, &targets, &errors)
    };
    let elapsed = started.elapsed().as_secs_f64();
    let mut latencies: Vec<u64> = samples.iter().map(|(t, _, _)| *t).collect();
    let mut queue_waits: Vec<u64> = samples.iter().filter_map(|(_, q, _)| *q).collect();
    let mut services: Vec<u64> = samples.iter().filter_map(|(_, _, h)| *h).collect();
    latencies.sort_unstable();
    queue_waits.sort_unstable();
    services.sort_unstable();

    let metrics = match get(addr, "/metrics.json") {
        Ok((200, body)) => body,
        other => {
            eprintln!("error: /metrics.json failed: {other:?}");
            String::new()
        }
    };
    if let Some((handle, join)) = spawned {
        handle.shutdown();
        let _ = join.join();
    }

    let errors = errors.load(Ordering::Relaxed);
    let generations = metric(&metrics, "serve.runs.generations");
    let disk_hits = metric(&metrics, "serve.runs.disk_hits");
    let memo_hits = metric(&metrics, "serve.runs.memo_hits");
    let run_coalesced = metric(&metrics, "serve.runs.coalesced");
    let led = metric(&metrics, "serve.flights.led");
    let coalesced = metric(&metrics, "serve.flights.coalesced");
    let memoized = metric(&metrics, "serve.flights.memoized");
    let flights = led + coalesced + memoized;
    let pct = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            100.0 * part as f64 / whole as f64
        }
    };

    println!(
        "requests   {} ok, {errors} failed in {elapsed:.2}s ({:.0} req/s)",
        latencies.len(),
        latencies.len() as f64 / elapsed.max(1e-9),
    );
    println!(
        "latency    p50={}us p95={}us p99={}us max={}us",
        percentile(&latencies, 50.0),
        percentile(&latencies, 95.0),
        percentile(&latencies, 99.0),
        latencies.last().copied().unwrap_or(0),
    );
    if !queue_waits.is_empty() {
        println!(
            "queue wait p50={}us p95={}us p99={}us (server-side, {} samples)",
            percentile(&queue_waits, 50.0),
            percentile(&queue_waits, 95.0),
            percentile(&queue_waits, 99.0),
            queue_waits.len(),
        );
        println!(
            "service    p50={}us p95={}us p99={}us (handler time, {} samples)",
            percentile(&services, 50.0),
            percentile(&services, 95.0),
            percentile(&services, 99.0),
            services.len(),
        );
    }
    println!(
        "runs       generations={generations} disk_hits={disk_hits} \
         memo_hits={memo_hits} coalesced={run_coalesced}"
    );
    println!(
        "flights    led={led} coalesced={coalesced} memoized={memoized} \
         (body-cache rate {:.1}%, coalescing rate {:.1}%)",
        pct(coalesced + memoized, flights),
        pct(coalesced, flights),
    );

    if errors > 0 {
        eprintln!("loadgen: {errors} request(s) failed");
        return ExitCode::FAILURE;
    }
    if let Some(slo_ms) = opts.slo_p99_ms {
        let p99_ms = percentile(&latencies, 99.0) as f64 / 1000.0;
        if p99_ms > slo_ms {
            eprintln!("loadgen: p99 {p99_ms:.3}ms exceeds the --slo-p99-ms {slo_ms}ms budget");
            return ExitCode::FAILURE;
        }
        eprintln!("loadgen: p99 {p99_ms:.3}ms within the {slo_ms}ms SLO");
    }
    if opts.expect_single_flight {
        if generations != DISTINCT_APPS {
            eprintln!(
                "loadgen: expected exactly {DISTINCT_APPS} simulations \
                 (one per distinct app), measured {generations}"
            );
            return ExitCode::FAILURE;
        }
        if flights != total_requests as u64 {
            eprintln!(
                "loadgen: expected every request accounted to one body flight \
                 ({total_requests}), measured {flights}"
            );
            return ExitCode::FAILURE;
        }
        if led != targets.len() as u64 {
            eprintln!(
                "loadgen: expected one flight leader per distinct target \
                 ({}), measured {led}",
                targets.len()
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "loadgen: single-flight contract holds ({DISTINCT_APPS} simulations, \
             {} leaders, {} requests)",
            targets.len(),
            total_requests
        );
    }
    ExitCode::SUCCESS
}
