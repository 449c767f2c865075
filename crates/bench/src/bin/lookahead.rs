//! The experiment driver: regenerate any subset of the paper's tables
//! and figures in one process, generating (or cache-loading) each
//! application trace exactly once.
//!
//! ```text
//! cargo run --release -p lookahead-bench --bin lookahead -- summary figure3
//! cargo run --release -p lookahead-bench --bin lookahead -- all
//! cargo run --release -p lookahead-bench --bin lookahead -- serve
//! cargo run --release -p lookahead-bench --bin lookahead -- query /v1/summary
//! ```
//!
//! `serve` and `query` expose the same suite as a service (see
//! `lookahead_bench::serve_cli`); everything below concerns the report
//! driver.
//!
//! `lookahead <report>` is the one way to print a report. Several
//! reports in one process share trace generation, the
//! content-addressed trace cache and the parallel re-timing pool, and
//! print exactly the concatenation of their single-report runs.
//! Progress, timings and cache accounting go to stderr; report text
//! goes to stdout.
//!
//! Options:
//!
//! ```text
//! --cache-dir DIR   cache traces under DIR (default: target/trace-cache,
//!                   or the LOOKAHEAD_CACHE environment variable)
//! --no-cache        disable the trace cache
//! --jobs N          generation/re-timing tasks run at once (default:
//!                   LOOKAHEAD_JOBS or all cores); each re-timing task
//!                   is a gang with one engine thread per unique cell
//! --obs-out DIR     write observability artifacts under DIR
//! -h, --help        show this help
//! ```
//!
//! Environment: `LOOKAHEAD_SMALL=1`, `LOOKAHEAD_PAPER=1`,
//! `LOOKAHEAD_PROCS=n`, `LOOKAHEAD_APPS=LU,MP3D`,
//! `LOOKAHEAD_CACHE=DIR|off`, `LOOKAHEAD_JOBS=n`.

use lookahead_bench::{cache_from_env_or, config_from_env, fail_fast, reports, Runner, SizeTier};
use lookahead_harness::cache::TraceCache;
use lookahead_harness::dag::Scheduler;
use lookahead_harness::parallel;
use lookahead_harness::pipeline::AppRun;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Instant;

/// Reports that re-time the shared application runs.
const SHARED: &[&str] = &[
    "figure3",
    "figure4",
    "summary",
    "table1",
    "table2",
    "table3",
    "miss_delay",
    "multi_issue",
    "sc_boost",
    "prefetch",
    "contexts",
];

/// Reports that generate their own memory-system variants (still
/// through the runner's cache) or need no runs at all.
const STANDALONE: &[&str] = &["figure1", "latency100", "assoc", "contention", "sched"];

const DEFAULT_CACHE_DIR: &str = "target/trace-cache";

const USAGE: &str = "usage: lookahead [OPTIONS] REPORT [REPORT ...]
       lookahead serve [OPTIONS]    serve the suite over HTTP
       lookahead query TARGET       answer one service query, print body
       lookahead bench generation   time cold trace generation, both engines
       lookahead bench obs          measure request-tracing overhead
       lookahead bench dag          compare DAG vs flat sweep scheduling

Regenerates the requested tables and figures, generating or
cache-loading each application trace exactly once per process.
(`lookahead serve --help` / `lookahead query --help` for the service.)

reports:
  figure1 figure3 figure4 summary table1 table2 table3 miss_delay
  multi_issue sc_boost prefetch contexts latency100 assoc contention
  sched, or `all` for every one of them

options:
  --cache-dir DIR  cache traces under DIR (default: target/trace-cache,
                   or the LOOKAHEAD_CACHE environment variable)
  --no-cache       disable the trace cache
  --jobs N         generation/re-timing tasks run at once (default:
                   LOOKAHEAD_JOBS or all cores; the flag wins over the
                   environment variable). Not a thread bound: each
                   re-timing task is a gang with one engine thread per
                   unique cell
  --scheduler S    sweep scheduler: dag (critical-path rank, generation
                   overlapped with re-timing; the default) or flat (the
                   plain worker pool). Output is byte-identical either
                   way; the flag wins over LOOKAHEAD_SCHEDULER.
  --tier NAME      workload size tier: small, default, paper or large
                   (default: from the environment, see below)
  --obs-out DIR    write per-run observability artifacts under DIR
  -h, --help       show this help

environment: LOOKAHEAD_SMALL=1, LOOKAHEAD_PAPER=1, LOOKAHEAD_LARGE=1,
LOOKAHEAD_PROCS=n, LOOKAHEAD_APPS=LU,MP3D, LOOKAHEAD_CACHE=DIR|off,
LOOKAHEAD_JOBS=n, LOOKAHEAD_SCHEDULER=dag|flat";

struct Options {
    reports: Vec<String>,
    cache_dir: Option<String>,
    no_cache: bool,
    jobs: Option<usize>,
    tier: Option<SizeTier>,
    scheduler: Option<Scheduler>,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        reports: Vec::new(),
        cache_dir: None,
        no_cache: false,
        jobs: None,
        tier: None,
        scheduler: None,
    };
    let known: Vec<&str> = SHARED.iter().chain(STANDALONE).copied().collect();
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
            "--cache-dir" => opts.cache_dir = Some(value(&mut it, "--cache-dir")?),
            "--jobs" => {
                opts.jobs = Some(parallel::parse_jobs("--jobs", &value(&mut it, "--jobs")?)?);
            }
            "--tier" => {
                opts.tier = Some(parse_tier(&value(&mut it, "--tier")?)?);
            }
            "--scheduler" => {
                opts.scheduler = Some(parse_scheduler(&value(&mut it, "--scheduler")?)?);
            }
            "--obs-out" => {
                // Consumed here, parsed by obs_out_dir() from argv.
                value(&mut it, "--obs-out")?;
            }
            _ => {
                if let Some(v) = a.strip_prefix("--cache-dir=") {
                    opts.cache_dir = Some(v.to_string());
                } else if let Some(v) = a.strip_prefix("--jobs=") {
                    opts.jobs = Some(parallel::parse_jobs("--jobs", v)?);
                } else if let Some(v) = a.strip_prefix("--tier=") {
                    opts.tier = Some(parse_tier(v)?);
                } else if let Some(v) = a.strip_prefix("--scheduler=") {
                    opts.scheduler = Some(parse_scheduler(v)?);
                } else if a.strip_prefix("--obs-out=").is_some() {
                    // Parsed by obs_out_dir().
                } else if a == "all" {
                    for r in &known {
                        if !opts.reports.iter().any(|x| x == r) {
                            opts.reports.push((*r).to_string());
                        }
                    }
                } else if known.contains(&a.as_str()) {
                    if !opts.reports.contains(a) {
                        opts.reports.push(a.clone());
                    }
                } else {
                    return Err(format!("unknown report or option {a:?}"));
                }
            }
        }
    }
    if opts.reports.is_empty() {
        return Err("no reports requested".to_string());
    }
    Ok(Some(opts))
}

fn parse_tier(name: &str) -> Result<SizeTier, String> {
    SizeTier::from_name(name)
        .ok_or_else(|| format!("unknown tier {name:?}; valid tiers: small, default, paper, large"))
}

fn parse_scheduler(name: &str) -> Result<Scheduler, String> {
    Scheduler::from_name(name)
        .ok_or_else(|| format!("unknown scheduler {name:?}; valid schedulers: flat, dag"))
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

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("serve") => return lookahead_bench::serve_cli::serve_main(&args[1..]),
        Some("query") => return lookahead_bench::serve_cli::query_main(&args[1..]),
        Some("bench") => {
            return match args.get(1).map(String::as_str) {
                Some("generation") => lookahead_bench::generation::generation_main(&args[2..]),
                Some("obs") => lookahead_bench::obsbench::obs_main(&args[2..]),
                Some("dag") => lookahead_bench::dagbench::dag_main(&args[2..]),
                other => {
                    let what = other.map_or("no subcommand".to_string(), |o| format!("{o:?}"));
                    eprintln!(
                        "error: lookahead bench: {what}; subcommands: generation, obs, dag\n\n{USAGE}"
                    );
                    ExitCode::from(2)
                }
            }
        }
        _ => {}
    }
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

    // Fail-fast knob resolution: the flag wins, then the environment,
    // then the DAG default (output is byte-identical either way).
    let scheduler = match opts.scheduler {
        Some(s) => s,
        None => match Scheduler::from_env() {
            Ok(s) => s.unwrap_or(Scheduler::Dag),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let workers = opts
        .jobs
        .unwrap_or_else(|| fail_fast(parallel::workers_from_env()));
    let runner = Runner::new(
        config_from_env(),
        opts.tier.unwrap_or_else(SizeTier::from_env),
        cache_for(&opts),
        workers,
    );
    eprintln!(
        "lookahead: {} processors, {}-cycle miss penalty, tier {}, {} workers, cache {}, \
         scheduler {}",
        runner.config().num_procs,
        runner.config().mem.miss_penalty,
        runner.tier().name(),
        runner.workers(),
        if runner.cache_enabled() { "on" } else { "off" },
        scheduler.name(),
    );

    let total = Instant::now();
    // The shared application runs, generated (or cache-loaded) at most
    // once per process, lazily on the first report that needs them.
    let mut shared_runs: Option<Vec<AppRun>> = None;

    // Under the DAG scheduler, the figure3/figure4/summary sweeps and
    // trace generation merge into one task graph: generation nodes
    // overlap other applications' gangs and the per-report barriers
    // disappear. Texts come out byte-identical to the flat
    // path and the generated runs seed every other report.
    let mut dag_texts: HashMap<String, String> = HashMap::new();
    if scheduler == Scheduler::Dag {
        let wanted: Vec<&str> = opts
            .reports
            .iter()
            .map(String::as_str)
            .filter(|r| reports::DAG_REPORTS.contains(r))
            .collect();
        if !wanted.is_empty() {
            let started = Instant::now();
            let sweep = reports::dag_sweep(&runner, &wanted, workers);
            eprintln!(
                "dag sweep ({}): {} cells + {} generation nodes ({} collapsed), \
                 critical path {} / total cost {}, peak ready {}, {:.2}s",
                wanted.join(" "),
                sweep.cells,
                sweep.runs.len(),
                sweep.stats.collapsed,
                sweep.stats.critical_path,
                sweep.stats.total_cost,
                sweep.stats.peak_ready,
                started.elapsed().as_secs_f64(),
            );
            dag_texts = sweep.texts.into_iter().collect();
            shared_runs = Some(sweep.runs);
        }
    }
    macro_rules! shared {
        () => {
            shared_runs
                .get_or_insert_with(|| runner.run_all())
                .as_slice()
        };
    }

    // Reports print only once every requested one has succeeded: a
    // workload that fails its check exits 2 with nothing on stdout,
    // never with the reports before it.
    let mut out = String::new();
    for name in &opts.reports {
        let started = Instant::now();
        let text = match name.as_str() {
            _ if dag_texts.contains_key(name) => dag_texts[name].clone(),
            "figure1" => reports::figure1_report(),
            "figure3" => reports::figure3_report(shared!()),
            "figure4" => reports::figure4_report(shared!()),
            "summary" => reports::summary_report(shared!(), workers),
            "table1" => reports::table1_report(shared!(), runner.config().num_procs),
            "table2" => reports::table2_report(shared!(), runner.config().num_procs),
            "table3" => reports::table3_report(shared!()),
            "miss_delay" => reports::miss_delay_report(shared!()),
            "multi_issue" => reports::multi_issue_report(shared!(), workers),
            "sc_boost" => reports::sc_boost_report(shared!(), workers),
            "prefetch" => reports::prefetch_report(shared!()),
            "contexts" => reports::contexts_report(shared!()),
            "latency100" => reports::latency100_report(&runner),
            "assoc" => reports::assoc_report(&runner),
            "contention" => reports::contention_report(&runner),
            "sched" => reports::sched_report(&runner),
            other => unreachable!("unvalidated report {other}"),
        };
        out.push_str(&text);
        eprintln!("{name}: {:.2}s", started.elapsed().as_secs_f64());
    }
    print!("{out}");

    runner.report_cache_stats();
    eprintln!("total: {:.2}s", total.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
