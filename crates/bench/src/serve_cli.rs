//! The `lookahead serve` and `lookahead query` subcommands.
//!
//! `serve` boots the experiment service on an address; `query` answers
//! one request in-process and prints the body to stdout, **byte
//! identical** to what the HTTP server would send for the same target
//! (the golden tests pin this). Both build the service the same way —
//! same tier, simulation config, cache and worker knobs as the report
//! driver — so a served figure and a printed figure agree.

use crate::{cache_from_env_or, config_from_env, fail_fast};
use lookahead_harness::cache::TraceCache;
use lookahead_harness::parallel;
use lookahead_harness::SizeTier;
use lookahead_serve::{
    handle_target, install_sigint, parse_max_connections, parse_serve_addr, parse_serve_threads,
    serve_addr_from_env, serve_threads_from_env, ExperimentService, Server, ServerConfig,
    ServiceConfig,
};
use std::process::ExitCode;
use std::sync::Arc;

const DEFAULT_CACHE_DIR: &str = "target/trace-cache";
const DEFAULT_THREADS: usize = 4;

pub const SERVE_USAGE: &str = "usage: lookahead serve [OPTIONS]

Serves the experiment suite over HTTP until SIGINT (graceful drain).
One epoll event-loop thread multiplexes every connection (HTTP/1.1
keep-alive); the server runs on x86_64/aarch64 Linux.

routes:
  /healthz  /metrics (Prometheus)  /metrics.json  /v1/apps
  /v1/experiments?app=A[&model=M&consistency=C&window=W&width=I&tier=T]
  /v1/figure3?app=A  /v1/figure4?app=A  /v1/summary
  /v1/debug/trace/<request-id>

options:
  --addr IP:PORT   bind address (default: LOOKAHEAD_SERVE_ADDR or
                   127.0.0.1:7417; port 0 picks a free port)
  --addr-file F    write the bound address to F (for port-0 scripts)
  --threads N      handler worker threads (default:
                   LOOKAHEAD_SERVE_THREADS or 4); socket I/O stays on
                   the event-loop thread
  --max-connections N
                   open-connection cap; connections beyond it get
                   503 + Retry-After at accept (default: 4096)
  --jobs N         sweep tasks run at once (default: LOOKAHEAD_JOBS or
                   all cores; the flag wins over the environment
                   variable); each gang task runs one engine thread
                   per unique cell
  --prewarm        speculatively pre-compute likely-next report bodies
                   (remaining apps, adjacent windows) while idle
  --cache-dir DIR  cache traces under DIR (default: target/trace-cache,
                   or the LOOKAHEAD_CACHE environment variable)
  --no-cache       disable the trace cache
  --span-log FILE  append every request's spans to FILE as JSONL
                   (analyze with `trace_tool spans FILE`)
  -h, --help       show this help

Figure sweeps accept stream=1 (e.g. /v1/figure3?app=A&stream=1): the
body is sent with chunked framing, one column per chunk as cells
finish, byte-identical to the buffered body.

environment: LOOKAHEAD_SMALL=1, LOOKAHEAD_PAPER=1, LOOKAHEAD_PROCS=n,
LOOKAHEAD_SERVE_ADDR, LOOKAHEAD_SERVE_THREADS, LOOKAHEAD_CACHE=DIR|off,
LOOKAHEAD_JOBS=n, LOOKAHEAD_SERVE_PREWARM=1, LOOKAHEAD_LOG=level|target=level,...";

pub const QUERY_USAGE: &str = "usage: lookahead query TARGET [OPTIONS]

Answers one service query in-process and prints the body to stdout —
byte-identical to the HTTP response body for the same target.

  lookahead query '/v1/experiments?app=mp3d&model=ds&window=64'
  lookahead query /v1/summary

options:
  --jobs N         sweep tasks run at once, each gang with one engine
                   thread per unique cell (the flag wins over
                   LOOKAHEAD_JOBS)
  --cache-dir DIR  cache traces under DIR (default: target/trace-cache)
  --no-cache       disable the trace cache
  -h, --help       show this help

Streamed targets (stream=1) are drained in-process: the printed body
is byte-identical to the buffered one.";

#[derive(Default)]
struct Options {
    addr: Option<String>,
    addr_file: Option<String>,
    threads: Option<String>,
    jobs: Option<usize>,
    prewarm: bool,
    cache_dir: Option<String>,
    no_cache: bool,
    span_log: Option<String>,
    max_connections: Option<String>,
    target: Option<String>,
}

/// Parses the flags shared by `serve` and `query`; positional
/// arguments land in `target` (only `query` accepts one).
fn parse(args: &[String], usage: &'static str) -> Result<Option<Options>, String> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "-h" | "--help" => return Ok(None),
            "--no-cache" => opts.no_cache = true,
            "--prewarm" => opts.prewarm = true,
            "--max-connections" => {
                opts.max_connections = Some(value(&mut it, "--max-connections")?);
            }
            "--addr" => opts.addr = Some(value(&mut it, "--addr")?),
            "--addr-file" => opts.addr_file = Some(value(&mut it, "--addr-file")?),
            "--threads" => opts.threads = Some(value(&mut it, "--threads")?),
            "--cache-dir" => opts.cache_dir = Some(value(&mut it, "--cache-dir")?),
            "--span-log" => opts.span_log = Some(value(&mut it, "--span-log")?),
            "--jobs" => {
                opts.jobs = Some(parallel::parse_jobs("--jobs", &value(&mut it, "--jobs")?)?);
            }
            _ => {
                if let Some(v) = a.strip_prefix("--addr=") {
                    opts.addr = Some(v.to_string());
                } else if let Some(v) = a.strip_prefix("--addr-file=") {
                    opts.addr_file = Some(v.to_string());
                } else if let Some(v) = a.strip_prefix("--threads=") {
                    opts.threads = Some(v.to_string());
                } else if let Some(v) = a.strip_prefix("--cache-dir=") {
                    opts.cache_dir = Some(v.to_string());
                } else if let Some(v) = a.strip_prefix("--span-log=") {
                    opts.span_log = Some(v.to_string());
                } else if let Some(v) = a.strip_prefix("--jobs=") {
                    opts.jobs = Some(parallel::parse_jobs("--jobs", v)?);
                } else if let Some(v) = a.strip_prefix("--max-connections=") {
                    opts.max_connections = Some(v.to_string());
                } else if a.starts_with('-') {
                    return Err(format!("unknown option {a:?}\n\n{usage}"));
                } else if opts.target.is_none() {
                    opts.target = Some(a.clone());
                } else {
                    return Err(format!("unexpected argument {a:?}\n\n{usage}"));
                }
            }
        }
    }
    Ok(Some(opts))
}

fn cache_for(opts: &Options) -> Option<TraceCache> {
    if opts.no_cache {
        return None;
    }
    match &opts.cache_dir {
        Some(dir) => Some(TraceCache::new(dir.clone())),
        None => cache_from_env_or(Some(DEFAULT_CACHE_DIR)),
    }
}

/// `LOOKAHEAD_SERVE_PREWARM=1` enables the speculative pre-warm loop
/// when the `--prewarm` flag is absent (the flag wins).
fn prewarm_from_env() -> Result<bool, String> {
    match std::env::var("LOOKAHEAD_SERVE_PREWARM") {
        Ok(v) => match v.trim() {
            "1" => Ok(true),
            "0" | "" => Ok(false),
            _ => Err(format!("LOOKAHEAD_SERVE_PREWARM must be 0 or 1, got {v:?}")),
        },
        Err(_) => Ok(false),
    }
}

/// The service, built exactly as the report driver builds its runner:
/// tier and simulation config from the environment, plus the cache
/// and worker knobs (flags win over environment variables).
fn build_service(opts: &Options) -> (Arc<ExperimentService>, usize) {
    let jobs = opts
        .jobs
        .unwrap_or_else(|| fail_fast(parallel::workers_from_env()));
    let prewarm = opts.prewarm || fail_fast(prewarm_from_env());
    let service = ExperimentService::new(
        ServiceConfig {
            default_tier: SizeTier::from_env(),
            sim: config_from_env(),
            retime_workers: jobs,
            span_log: opts.span_log.as_ref().map(std::path::PathBuf::from),
            prewarm,
            ..ServiceConfig::default()
        },
        cache_for(opts),
    );
    (Arc::new(service), jobs)
}

/// `lookahead serve`: bind, announce, serve until SIGINT, drain.
pub fn serve_main(args: &[String]) -> ExitCode {
    let opts = match parse(args, SERVE_USAGE) {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{SERVE_USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(t) = &opts.target {
        eprintln!("error: serve takes no positional argument, got {t:?}\n\n{SERVE_USAGE}");
        return ExitCode::from(2);
    }

    // Fail-fast knob resolution: flags win, then environment, then
    // defaults; any malformed value is exit code 2. A malformed log
    // filter would otherwise be discovered only at the first log line.
    if let Err(e) = lookahead_obs::log::check_env_filter() {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    let addr = match &opts.addr {
        Some(a) => fail_fast(parse_serve_addr(a)),
        None => fail_fast(serve_addr_from_env()),
    };
    let threads = match &opts.threads {
        Some(t) => fail_fast(parse_serve_threads(t)),
        None => fail_fast(serve_threads_from_env()).unwrap_or(DEFAULT_THREADS),
    };
    let max_connections = match &opts.max_connections {
        Some(n) => fail_fast(parse_max_connections(n)),
        None => ServerConfig::default().max_connections,
    };
    let (service, jobs) = build_service(&opts);

    install_sigint();
    let server = match Server::bind(ServerConfig {
        addr,
        threads,
        watch_sigint: true,
        max_connections,
        ..ServerConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot start the server on {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let bound = server.local_addr();
    if let Some(path) = &opts.addr_file {
        if let Err(e) = std::fs::write(path, bound.to_string()) {
            eprintln!("error: cannot write --addr-file {path:?}: {e}");
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "lookahead serve: http://{bound} ({threads} handler workers, {jobs} re-timing workers, \
         tier {}, cache {}, prewarm {}); Ctrl-C drains and exits",
        service.config().default_tier.name(),
        if service.disk_cache_enabled() {
            "on"
        } else {
            "off"
        },
        if service.prewarm_enabled() {
            "on"
        } else {
            "off"
        },
    );

    let stats = server.run(Arc::clone(&service));
    let runs = service.run_stats();
    eprintln!(
        "lookahead serve: drained; {} served, {} rejected (503), {} aborted; \
         {} generations, {} disk hits, {} memo hits, {} coalesced",
        stats.served,
        stats.rejected,
        stats.aborted,
        runs.generations,
        runs.disk_hits,
        runs.memo_hits,
        runs.coalesced,
    );
    ExitCode::SUCCESS
}

/// `lookahead query`: answer one target in-process, print the body.
pub fn query_main(args: &[String]) -> ExitCode {
    let opts = match parse(args, QUERY_USAGE) {
        Ok(Some(o)) => o,
        Ok(None) => {
            println!("{QUERY_USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(target) = &opts.target else {
        eprintln!("error: query needs a TARGET\n\n{QUERY_USAGE}");
        return ExitCode::from(2);
    };
    if opts.addr.is_some() || opts.addr_file.is_some() || opts.threads.is_some() {
        eprintln!("error: --addr/--addr-file/--threads are serve options\n\n{QUERY_USAGE}");
        return ExitCode::from(2);
    }
    if opts.span_log.is_some() {
        eprintln!("error: --span-log is a serve option\n\n{QUERY_USAGE}");
        return ExitCode::from(2);
    }
    if opts.prewarm {
        eprintln!("error: --prewarm is a serve option\n\n{QUERY_USAGE}");
        return ExitCode::from(2);
    }
    if opts.max_connections.is_some() {
        eprintln!("error: --max-connections is a serve option\n\n{QUERY_USAGE}");
        return ExitCode::from(2);
    }

    let (service, _) = build_service(&opts);
    let response = handle_target(&service, target);
    // Streamed responses (stream=1) carry the body as a producer, not
    // a string; drain it here so the printed bytes still equal what
    // the HTTP server would have sent (after chunk reassembly).
    let body = response.full_body();
    // The body goes to stdout verbatim (no trailing newline): the
    // bytes must equal the HTTP response body for the same target.
    // Written by hand rather than print! so a closed pipe (query piped
    // into `head`, a consumer that went away mid-body) is a quiet
    // success or a clean error line, never a broken-pipe panic.
    {
        use std::io::Write as _;
        let mut stdout = std::io::stdout().lock();
        let write_result = stdout
            .write_all(body.as_bytes())
            .and_then(|()| stdout.flush());
        if let Err(e) = write_result {
            if e.kind() == std::io::ErrorKind::BrokenPipe {
                // The reader stopped consuming; nothing is wrong.
                return ExitCode::SUCCESS;
            }
            eprintln!("error: cannot write response body: {e}");
            return ExitCode::FAILURE;
        }
    }
    if response.status == 200 {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: {} for {target:?}", response.status);
        ExitCode::FAILURE
    }
}
