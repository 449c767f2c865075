//! The `lookahead serve` and `lookahead query` subcommands.
//!
//! `serve` boots the experiment service on an address; `query` answers
//! one request in-process and prints the body to stdout, **byte
//! identical** to what the HTTP server would send for the same target
//! (the golden tests pin this). Both build the service the same way —
//! same tier, simulation config, cache and worker knobs as the report
//! driver — so a served figure and a printed figure agree.

use crate::knobs::{self, Bin, Flags, Knobs, DEFAULT_CACHE_DIR};
use lookahead_harness::parallel;
use lookahead_serve::{
    handle_target, install_sigint, parse_max_connections, parse_serve_addr, parse_serve_threads,
    ExperimentService, Server, ServerConfig, ServiceConfig,
};
use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::Arc;

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
  --addr IP:PORT   bind address (default: 127.0.0.1:7417; port 0
                   picks a free port)
  --addr-file F    write the bound address to F (for port-0 scripts)
  --threads N      handler worker threads (default: 4); socket I/O
                   stays on the event-loop thread
  --max-connections N
                   open-connection cap; connections beyond it get
                   503 + Retry-After at accept (default: 4096)
  --jobs N         sweep tasks run at once (default: all cores); each
                   gang task runs one engine thread per unique cell
  --cache-dir DIR  cache traces under DIR (default: target/trace-cache)
  --no-cache       disable the trace cache
  --span-log FILE  append every request's spans to FILE as JSONL
                   (analyze with `trace_tool spans FILE`)
  -h, --help       show this help

Figure sweeps accept stream=1 (e.g. /v1/figure3?app=A&stream=1): the
body is sent with chunked framing, one column per chunk as cells
finish, byte-identical to the buffered body.";

pub const QUERY_USAGE: &str = "usage: lookahead query TARGET [OPTIONS]

Answers one service query in-process and prints the body to stdout —
byte-identical to the HTTP response body for the same target.

  lookahead query '/v1/experiments?app=mp3d&model=ds&window=64'
  lookahead query /v1/summary

options:
  --jobs N         sweep tasks run at once, each gang with one engine
                   thread per unique cell (default: all cores)
  --cache-dir DIR  cache traces under DIR (default: target/trace-cache)
  --no-cache       disable the trace cache
  -h, --help       show this help

Streamed targets (stream=1) are drained in-process: the printed body
is byte-identical to the buffered one.";

#[derive(Default)]
struct Options {
    addr: Option<SocketAddr>,
    addr_file: Option<String>,
    threads: Option<usize>,
    jobs: Option<usize>,
    cache_dir: Option<String>,
    no_cache: bool,
    span_log: Option<String>,
    max_connections: Option<usize>,
    target: Option<String>,
}

/// Parses the flags shared by `serve` and `query`; positional
/// arguments land in `target` (only `query` accepts one).
fn parse(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options::default();
    let mut args = Flags::new(args);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => return Ok(None),
            "--no-cache" => opts.no_cache = true,
            "--max-connections" => {
                opts.max_connections =
                    Some(parse_max_connections(&args.value("--max-connections")?)?);
            }
            "--addr" => opts.addr = Some(parse_serve_addr("--addr", &args.value("--addr")?)?),
            "--addr-file" => opts.addr_file = Some(args.value("--addr-file")?),
            "--threads" => {
                opts.threads = Some(parse_serve_threads("--threads", &args.value("--threads")?)?);
            }
            "--cache-dir" => opts.cache_dir = Some(args.value("--cache-dir")?),
            "--span-log" => opts.span_log = Some(args.value("--span-log")?),
            "--jobs" => opts.jobs = Some(parallel::parse_jobs("--jobs", &args.value("--jobs")?)?),
            _ if a.starts_with('-') => return Err(format!("unknown option {a:?}")),
            _ if opts.target.is_none() => opts.target = Some(a),
            _ => return Err(format!("unexpected argument {a:?}")),
        }
    }
    Ok(Some(opts))
}

/// The service, built exactly as the report driver builds its runner:
/// tier and simulation config from the knobs, plus the cache and
/// worker knobs (flags win over environment variables).
fn build_service(opts: &Options, knobs: &Knobs) -> (Arc<ExperimentService>, usize) {
    let jobs = knobs.jobs(opts.jobs);
    let service = ExperimentService::new(
        ServiceConfig {
            default_tier: knobs.tier(None),
            sim: knobs.config(),
            retime_workers: jobs,
            span_log: opts.span_log.as_ref().map(std::path::PathBuf::from),
            ..ServiceConfig::default()
        },
        knobs.cache(
            opts.no_cache,
            opts.cache_dir.as_deref(),
            Some(DEFAULT_CACHE_DIR),
        ),
    );
    (Arc::new(service), jobs)
}

/// `lookahead serve`: bind, announce, serve until SIGINT, drain.
pub fn serve_main(args: &[String], knobs: &Knobs) -> ExitCode {
    let usage = knobs::usage(Bin::Serve, SERVE_USAGE);
    let opts = match knobs::settle(parse(args), &usage) {
        Ok(opts) => opts,
        Err(code) => return code,
    };
    if let Some(t) = &opts.target {
        eprintln!("error: serve takes no positional argument, got {t:?}\n\n{usage}");
        return ExitCode::from(2);
    }

    let addr = knobs.serve_addr(opts.addr);
    let threads = knobs.serve_threads(opts.threads);
    let (service, jobs) = build_service(&opts, knobs);

    install_sigint();
    let defaults = ServerConfig::default();
    let server = match Server::bind(ServerConfig {
        addr,
        threads,
        watch_sigint: true,
        max_connections: opts.max_connections.unwrap_or(defaults.max_connections),
        ..defaults
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
         tier {}, cache {}); Ctrl-C drains and exits",
        service.config().default_tier.name(),
        if service.disk_cache_enabled() {
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
pub fn query_main(args: &[String], knobs: &Knobs) -> ExitCode {
    let usage = knobs::usage(Bin::Query, QUERY_USAGE);
    let opts = match knobs::settle(parse(args), &usage) {
        Ok(opts) => opts,
        Err(code) => return code,
    };
    let Some(target) = &opts.target else {
        eprintln!("error: query needs a TARGET\n\n{usage}");
        return ExitCode::from(2);
    };
    let serve_only = [
        ("--addr", opts.addr.is_some()),
        ("--addr-file", opts.addr_file.is_some()),
        ("--threads", opts.threads.is_some()),
        ("--span-log", opts.span_log.is_some()),
        ("--max-connections", opts.max_connections.is_some()),
    ];
    if let Some((flag, _)) = serve_only.iter().find(|(_, set)| *set) {
        eprintln!("error: {flag} is a serve option\n\n{usage}");
        return ExitCode::from(2);
    }

    let (service, _) = build_service(&opts, knobs);
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
