//! `lookahead bench obs` — wall-clock overhead of request tracing.
//!
//! The tracing layer promises to be a cheap passthrough when no scope
//! is installed and cheap enough to leave on when one is. This
//! benchmark measures both sides on the same work the serve tier
//! traces: a figure-3 window sweep, one gang per application, once
//! with no trace scope (exactly what `handle_target` / the report
//! driver sees) and once under a live [`TraceContext`] (exactly what
//! an HTTP request sees — every `retime.cell` span recorded).
//!
//! The acceptance gate: traced wall time within 5% of untraced.
//! Results land in `BENCH_obs.json`; timing is best-of-N with
//! `std::time::Instant` only.

use crate::{config_from_env, Runner, SizeTier};
use lookahead_harness::cache::TraceCache;
use lookahead_harness::experiments::{figure3_cells, run_cell_specs, PAPER_WINDOWS};
use lookahead_harness::pipeline::AppRun;
use lookahead_obs::span::{self, TraceContext, TraceScope};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// The overhead budget, in percent.
const BUDGET_PCT: f64 = 5.0;

/// Best-of-`iters` wall time of one full sweep over `runs`.
fn time_sweep(runs: &[AppRun], iters: u32) -> f64 {
    let cells = figure3_cells(&PAPER_WINDOWS);
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let started = Instant::now();
        for run in runs {
            std::hint::black_box(run_cell_specs(run, &cells));
        }
        best = best.min(started.elapsed().as_secs_f64());
    }
    best
}

fn render_json(
    runner: &Runner,
    iters: u32,
    untraced: f64,
    traced: f64,
    spans_recorded: usize,
) -> String {
    let overhead_pct = if untraced > 0.0 {
        100.0 * (traced - untraced) / untraced
    } else {
        0.0
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"obs-overhead\",");
    let _ = writeln!(out, "  \"tier\": \"{}\",", runner.tier().name());
    let apps: Vec<String> = runner
        .apps()
        .iter()
        .map(|a| format!("\"{}\"", a.name()))
        .collect();
    let _ = writeln!(out, "  \"apps\": [{}],", apps.join(", "));
    let _ = writeln!(out, "  \"iterations\": {iters},");
    let _ = writeln!(out, "  \"untraced_seconds\": {untraced:.6},");
    let _ = writeln!(out, "  \"traced_seconds\": {traced:.6},");
    let _ = writeln!(out, "  \"spans_per_sweep\": {spans_recorded},");
    let _ = writeln!(out, "  \"overhead_pct\": {overhead_pct:.3},");
    let _ = writeln!(out, "  \"budget_pct\": {BUDGET_PCT},");
    let _ = writeln!(out, "  \"pass\": {}", overhead_pct <= BUDGET_PCT);
    out.push_str("}\n");
    out
}

const USAGE: &str = "usage: lookahead bench obs [OPTIONS]

Measures the wall-clock overhead of request tracing on a figure-3
window sweep: untraced (no scope installed) vs traced (a live
TraceContext recording every span), best-of-N each. Fails when the
overhead exceeds 5%.

options:
  --out PATH       result file (default: BENCH_obs.json)
  --iters N        timed repetitions per side, best-of-N (default: 3)
  --cache-dir DIR  cache traces under DIR (default: target/trace-cache)
  --no-cache       disable the trace cache
  -h, --help       show this help

environment: LOOKAHEAD_SMALL=1, LOOKAHEAD_PROCS=n, LOOKAHEAD_APPS=...";

/// Entry point for `lookahead bench obs`.
pub fn obs_main(args: &[String]) -> ExitCode {
    let mut out_path = "BENCH_obs.json".to_string();
    let mut iters: u32 = 3;
    let mut cache_dir: Option<String> = Some("target/trace-cache".to_string());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--no-cache" => cache_dir = None,
            "--out" => match it.next() {
                Some(v) => out_path = v.clone(),
                None => return usage_error("--out needs a value"),
            },
            "--cache-dir" => match it.next() {
                Some(v) => cache_dir = Some(v.clone()),
                None => return usage_error("--cache-dir needs a value"),
            },
            "--iters" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => iters = v,
                _ => return usage_error("--iters needs a positive integer"),
            },
            other => {
                if let Some(v) = other.strip_prefix("--out=") {
                    out_path = v.to_string();
                } else if let Some(v) = other.strip_prefix("--cache-dir=") {
                    cache_dir = Some(v.to_string());
                } else if let Some(v) = other.strip_prefix("--iters=") {
                    match v.parse() {
                        Ok(n) if n > 0 => iters = n,
                        _ => return usage_error("--iters needs a positive integer"),
                    }
                } else {
                    return usage_error(&format!("unknown option {other:?}"));
                }
            }
        }
    }

    let runner = Runner::new(
        config_from_env(),
        SizeTier::from_env(),
        cache_dir.map(TraceCache::new),
        crate::fail_fast(lookahead_harness::parallel::workers_from_env()),
    );
    eprintln!(
        "bench obs: tier {}, {} processors, best of {iters} sweeps per side",
        runner.tier().name(),
        runner.config().num_procs,
    );
    let runs: Vec<AppRun> = runner
        .apps()
        .into_iter()
        .map(|app| runner.run_workload(runner.tier().workload(app).as_ref(), runner.config()))
        .collect();
    // Materialize every trace up front so neither side pays archive
    // I/O inside the timed region.
    for run in &runs {
        let _ = run.trace();
    }

    // Interleave the sides (untraced first — it is also the warmup).
    let untraced = time_sweep(&runs, iters);
    let ctx = TraceContext::new(span::next_request_id());
    let root = ctx.alloc_id();
    let prev = span::set_scope(Some(TraceScope::new(ctx.clone(), root)));
    let traced = time_sweep(&runs, iters);
    span::set_scope(prev);
    let spans_per_sweep = ctx.spans().len() / iters as usize;

    let overhead_pct = if untraced > 0.0 {
        100.0 * (traced - untraced) / untraced
    } else {
        0.0
    };
    println!("untraced  {untraced:.4}s");
    println!("traced    {traced:.4}s ({spans_per_sweep} spans per sweep)");
    println!("overhead  {overhead_pct:+.2}% (budget {BUDGET_PCT}%)");

    let json = render_json(&runner, iters, untraced, traced, spans_per_sweep);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: failed to write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("bench obs: wrote {out_path}");
    if overhead_pct > BUDGET_PCT {
        eprintln!(
            "bench obs: tracing overhead {overhead_pct:.2}% exceeds the {BUDGET_PCT}% budget"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
