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
//! content-addressed trace cache and the DAG executor, and print
//! exactly the concatenation of their single-report runs.
//! Progress, timings and cache accounting go to stderr; report text
//! goes to stdout.
//!
//! Options:
//!
//! ```text
//! --cache-dir DIR   cache traces under DIR (default: target/trace-cache)
//! --no-cache        disable the trace cache
//! --jobs N          generation/re-timing tasks run at once (default:
//!                   all cores); each re-timing task is a gang with one
//!                   engine thread per unique cell
//! --tier NAME       workload size tier: small, default, paper or large
//! --obs-out DIR     write observability artifacts under DIR
//! -h, --help        show this help
//! ```
//!
//! The environment variables are read once, at startup, through
//! `lookahead_bench::knobs`; README.md § Environment lists them.

use lookahead_bench::knobs::{self, Bin, Flags, DEFAULT_CACHE_DIR};
use lookahead_bench::{reports, Runner, SizeTier};
use lookahead_harness::parallel;
use lookahead_harness::pipeline::AppRun;
use std::collections::HashMap;
use std::path::PathBuf;
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

const USAGE: &str = "usage: lookahead [OPTIONS] REPORT [REPORT ...]
       lookahead serve [OPTIONS]    serve the suite over HTTP
       lookahead query TARGET       answer one service query, print body

Regenerates the requested tables and figures, generating or
cache-loading each application trace exactly once per process.
(`lookahead serve --help` / `lookahead query --help` for the service.)

reports:
  figure1 figure3 figure4 summary table1 table2 table3 miss_delay
  multi_issue sc_boost prefetch contexts latency100 assoc contention
  sched, or `all` for every one of them

options:
  --cache-dir DIR  cache traces under DIR (default: target/trace-cache)
  --no-cache       disable the trace cache
  --jobs N         generation/re-timing tasks run at once (default: all
                   cores). Not a thread bound: each re-timing task is a
                   gang with one engine thread per unique cell
  --tier NAME      workload size tier: small, default, paper or large
  --obs-out DIR    write per-run observability artifacts under DIR
  -h, --help       show this help";

struct Options {
    reports: Vec<String>,
    cache_dir: Option<String>,
    no_cache: bool,
    jobs: Option<usize>,
    tier: Option<SizeTier>,
    obs_out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        reports: Vec::new(),
        cache_dir: None,
        no_cache: false,
        jobs: None,
        tier: None,
        obs_out: None,
    };
    let known: Vec<&str> = SHARED.iter().chain(STANDALONE).copied().collect();
    let mut args = Flags::new(args);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => return Ok(None),
            "--no-cache" => opts.no_cache = true,
            "--cache-dir" => opts.cache_dir = Some(args.value("--cache-dir")?),
            "--jobs" => opts.jobs = Some(parallel::parse_jobs("--jobs", &args.value("--jobs")?)?),
            "--tier" => opts.tier = Some(parse_tier(&args.value("--tier")?)?),
            "--obs-out" => opts.obs_out = Some(args.value("--obs-out")?.into()),
            "all" => {
                for r in &known {
                    if !opts.reports.iter().any(|x| x == r) {
                        opts.reports.push((*r).to_string());
                    }
                }
            }
            _ if known.contains(&a.as_str()) => {
                if !opts.reports.contains(&a) {
                    opts.reports.push(a);
                }
            }
            _ => return Err(format!("unknown report or option {a:?}")),
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

fn main() -> ExitCode {
    let knobs = knobs::read();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = knobs::usage(Bin::Reports, USAGE);
    match args.first().map(String::as_str) {
        Some("serve") => return lookahead_bench::serve_cli::serve_main(&args[1..], &knobs),
        Some("query") => return lookahead_bench::serve_cli::query_main(&args[1..], &knobs),
        _ => {}
    }
    let opts = match knobs::settle(parse_args(&args), &usage) {
        Ok(opts) => opts,
        Err(code) => return code,
    };

    let workers = knobs.jobs(opts.jobs);
    let runner = Runner::new(
        knobs.config(),
        knobs.tier(opts.tier),
        knobs.cache(
            opts.no_cache,
            opts.cache_dir.as_deref(),
            Some(DEFAULT_CACHE_DIR),
        ),
        workers,
    )
    .with_apps(knobs.apps())
    .with_obs_out(knobs.obs_out(opts.obs_out.clone()));
    eprintln!(
        "lookahead: {} processors, {}-cycle miss penalty, tier {}, {} workers, cache {}",
        runner.config().num_procs,
        runner.config().mem.miss_penalty,
        runner.tier().name(),
        runner.workers(),
        if runner.cache_enabled() { "on" } else { "off" },
    );

    let total = Instant::now();
    // The shared application runs, generated (or cache-loaded) at most
    // once per process, lazily on the first report that needs them.
    let mut shared_runs: Option<Vec<AppRun>> = None;

    // The figure3/figure4/summary sweeps and trace generation merge
    // into one task graph: generation nodes overlap other
    // applications' gangs, and there is no per-report barrier. The
    // generated runs seed every other report.
    let mut dag_texts: HashMap<String, String> = HashMap::new();
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
