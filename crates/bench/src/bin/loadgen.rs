//! Load generator for the experiment service: mixed hot/cold traffic,
//! exact latency percentiles split into queue wait vs service time
//! (from the server's `Server-Timing` header), an optional p99 SLO
//! gate, and cache-hit / coalescing rates read back from
//! `/metrics.json`.
//!
//! ```text
//! # Against an in-process server (cold cache, small tier):
//! LOOKAHEAD_SMALL=1 cargo run --release --bin loadgen -- --spawn --connections 32
//!
//! # Against an already-running server:
//! cargo run --release --bin loadgen -- --addr 127.0.0.1:7417
//! ```
//!
//! Every connection is a nonblocking socket on one epoll thread (the
//! engine in `lookahead_bench::servebench`), so thousands of
//! concurrent connections cost descriptors, not threads.
//!
//! Traffic model: every connection slot issues `--requests` GETs; odd
//! request indices hit the *hot* target (the first of the pool), even
//! ones walk the pool round-robin, so the mix exercises both the body
//! memo (hot) and cold-key coalescing (the pool, hit by many slots at
//! once). The assignment is deterministic — a run is reproducible.
//!
//! With `--expect-single-flight` (meaningful against a cold, spawned
//! server) the run fails unless the service ran **exactly one
//! simulation per distinct application** and every request is
//! accounted to one body flight — the acceptance check for the
//! single-flight contract under real concurrency.

use lookahead_bench::client::get;
use lookahead_bench::servebench::{metric, percentile, run_load, LoadOptions};
use lookahead_bench::{config_from_env, fail_fast};
use lookahead_harness::parallel;
use lookahead_harness::SizeTier;
use lookahead_serve::{
    parse_serve_addr, serve_addr_from_env, ExperimentService, Server, ServerConfig, ServiceConfig,
};
use std::process::ExitCode;
use std::sync::Arc;

const USAGE: &str = "usage: loadgen [OPTIONS]

Drives mixed hot/cold traffic at an experiment service and reports
latency percentiles plus cache-hit and coalescing rates.

options:
  --addr IP:PORT          target server (default: LOOKAHEAD_SERVE_ADDR
                          or 127.0.0.1:7417)
  --spawn                 boot an in-process server (cold cache) on a
                          free port and drive that instead
  --connections N         concurrent connections, all driven from one
                          nonblocking epoll thread (default 32; scales
                          to thousands)
  --requests N            requests per connection (default 4)
  --keepalive             reuse each connection for all its requests
                          (HTTP/1.1 keep-alive) instead of reconnecting
                          with Connection: close per request
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
    connections: usize,
    requests: usize,
    keepalive: bool,
    expect_single_flight: bool,
    slo_p99_ms: Option<f64>,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        addr: None,
        spawn: false,
        connections: 32,
        requests: 4,
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
            "--requests" => opts.requests = positive(&value(&mut it, "--requests")?, "--requests")?,
            "--connections" => {
                opts.connections = positive(&value(&mut it, "--connections")?, "--connections")?
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
                } else if let Some(v) = a.strip_prefix("--requests=") {
                    opts.requests = positive(v, "--requests")?;
                } else if let Some(v) = a.strip_prefix("--connections=") {
                    opts.connections = positive(v, "--connections")?;
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
    Ok(Some(opts))
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
            threads: opts.connections.min(16),
            ..ServerConfig::default()
        }) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot start the server: {e}");
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
    let total_requests = opts.connections * opts.requests;
    eprintln!(
        "loadgen: {} connections x {} requests (keep-alive {}) against http://{addr} \
         ({} distinct targets, hot target {})",
        opts.connections,
        opts.requests,
        if opts.keepalive { "on" } else { "off" },
        targets.len(),
        targets[0],
    );
    let report = run_load(&LoadOptions {
        keepalive: opts.keepalive,
        targets: targets.clone(),
        ..LoadOptions::new(addr, opts.connections, opts.requests)
    });
    if opts.keepalive {
        eprintln!(
            "loadgen: {} responses arrived on a reused connection",
            report.reused
        );
    }
    let elapsed = report.elapsed.as_secs_f64();
    // Queue wait and handler service time come from the server's
    // Server-Timing header.
    let latencies = report.sorted_latencies();
    let queue_waits = report.sorted_queue_waits();
    let services = report.sorted_services();

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

    let errors = report.errors;
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
