//! `lookahead bench dag` — wall-clock comparison of the two sweep
//! schedulers on a cold cache.
//!
//! Runs the merged figure3/figure4/summary sweep twice from scratch
//! (no trace cache on either side):
//!
//! * **flat** — the pre-DAG shape: generate every application's trace
//!   (one barrier), then render each report with its own
//!   per-application re-timing pool (a barrier per report per app);
//! * **dag** — [`reports::dag_sweep`]: one costed task graph where
//!   each generation node feeds its application's gang node directly,
//!   ready work executes in upward-rank (critical-path) order, and
//!   each cell the three reports share (BASE, the summary's RC sweep)
//!   is computed once per application.
//!
//! The three report texts are asserted byte-identical between the two
//! schedules before any number is reported — a speedup over different
//! output would be meaningless. Results are written as
//! `BENCH_dag.json`; `--min-speedup` turns the headline ratio into a
//! hard gate (exit 1), which CI uses with a conservative floor on the
//! small tier where the sweep is too short for scheduling to matter.

use crate::{config_from_env, reports, Runner, SizeTier};
use lookahead_harness::experiments::{figure3_cells, figure4_cells, summary_cells, PAPER_WINDOWS};
use lookahead_harness::parallel;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// One timed side of the comparison.
struct Side {
    seconds: f64,
    /// `(report name, text)` in [`reports::DAG_REPORTS`] order.
    texts: Vec<(String, String)>,
}

/// Times the pre-DAG schedule: a generation barrier followed by the
/// three flat report functions.
fn run_flat(runner: &Runner, workers: usize) -> Side {
    let started = Instant::now();
    let runs = runner.run_all();
    let texts = vec![
        ("figure3".to_string(), reports::figure3_report(&runs)),
        ("figure4".to_string(), reports::figure4_report(&runs)),
        (
            "summary".to_string(),
            reports::summary_report(&runs, workers),
        ),
    ];
    Side {
        seconds: started.elapsed().as_secs_f64(),
        texts,
    }
}

/// Times the merged DAG schedule and keeps its executor stats.
fn run_dag(runner: &Runner, workers: usize) -> (Side, lookahead_harness::DagStats, usize) {
    let started = Instant::now();
    let sweep = reports::dag_sweep(runner, reports::DAG_REPORTS, workers);
    (
        Side {
            seconds: started.elapsed().as_secs_f64(),
            texts: sweep.texts,
        },
        sweep.stats,
        sweep.cells,
    )
}

/// Renders the machine-readable result object.
fn render_json(
    runner: &Runner,
    workers: usize,
    cells: usize,
    flat: &Side,
    dag: &Side,
    stats: &lookahead_harness::DagStats,
) -> String {
    let apps: Vec<String> = runner
        .apps()
        .iter()
        .map(|a| format!("\"{}\"", a.name()))
        .collect();
    let per_sec = |cells: usize, seconds: f64| {
        if seconds > 0.0 {
            cells as f64 / seconds
        } else {
            0.0
        }
    };
    // The flat schedule re-times every report's cells on their own;
    // the DAG computes the cells the reports share once per
    // application.
    let report_cells = figure3_cells(&PAPER_WINDOWS).len()
        + figure4_cells(&PAPER_WINDOWS).len()
        + summary_cells(&PAPER_WINDOWS).len();
    let flat_cells = report_cells * runner.apps().len();
    let speedup = if dag.seconds > 0.0 {
        flat.seconds / dag.seconds
    } else {
        0.0
    };
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"dag\",");
    let _ = writeln!(out, "  \"tier\": \"{}\",", runner.tier().name());
    let _ = writeln!(out, "  \"workers\": {workers},");
    let _ = writeln!(out, "  \"apps\": [{}],", apps.join(", "));
    let _ = writeln!(
        out,
        "  \"reports\": [\"figure3\", \"figure4\", \"summary\"],"
    );
    let _ = writeln!(out, "  \"byte_identical\": true,");
    let _ = writeln!(out, "  \"flat_seconds\": {:.4},", flat.seconds);
    let _ = writeln!(out, "  \"dag_seconds\": {:.4},", dag.seconds);
    let _ = writeln!(out, "  \"flat_cells\": {flat_cells},");
    let _ = writeln!(out, "  \"dag_cells\": {cells},");
    let _ = writeln!(
        out,
        "  \"flat_cells_per_sec\": {:.2},",
        per_sec(flat_cells, flat.seconds)
    );
    let _ = writeln!(
        out,
        "  \"dag_cells_per_sec\": {:.2},",
        per_sec(cells, dag.seconds)
    );
    let _ = writeln!(out, "  \"speedup\": {speedup:.3},");
    let _ = writeln!(out, "  \"dag_tasks\": {},", stats.tasks);
    let _ = writeln!(out, "  \"dag_edges\": {},", stats.edges);
    let _ = writeln!(out, "  \"dag_collapsed\": {},", stats.collapsed);
    let _ = writeln!(out, "  \"dag_critical_path\": {},", stats.critical_path);
    let _ = writeln!(out, "  \"dag_total_cost\": {},", stats.total_cost);
    let _ = writeln!(
        out,
        "  \"dag_planned_makespan\": {},",
        stats.planned_makespan
    );
    let _ = writeln!(out, "  \"dag_peak_ready\": {}", stats.peak_ready);
    out.push_str("}\n");
    out
}

const USAGE: &str = "usage: lookahead bench dag [OPTIONS]

Times the merged figure3/figure4/summary sweep under the flat
(barriered) schedule and the critical-path DAG schedule, cold cache on
both sides, asserting the report texts are byte-identical first.

options:
  --tier NAME       workload size tier: small|default|paper
                    (default: from LOOKAHEAD_SMALL/LOOKAHEAD_PAPER)
  --jobs N          worker threads (default: all cores)
  --out PATH        result file (default: BENCH_dag.json)
  --min-speedup X   exit 1 unless flat/dag wall-time ratio >= X
  -h, --help        show this help

environment: LOOKAHEAD_PROCS=n, LOOKAHEAD_APPS=...";

/// Entry point for `lookahead bench dag`.
pub fn dag_main(args: &[String]) -> ExitCode {
    let mut out_path = "BENCH_dag.json".to_string();
    let mut tier = SizeTier::from_env();
    let mut jobs: Option<usize> = None;
    let mut min_speedup: Option<f64> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let (key, mut value) = match a.split_once('=') {
            Some((k, v)) => (k, Some(v.to_string())),
            None => (a.as_str(), None),
        };
        let mut take = |it: &mut std::slice::Iter<String>| match value.take() {
            Some(v) => Some(v),
            None => it.next().cloned(),
        };
        match key {
            "-h" | "--help" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            "--out" => match take(&mut it) {
                Some(v) => out_path = v,
                None => return usage_error("--out needs a value"),
            },
            "--tier" => match take(&mut it).as_deref().and_then(SizeTier::from_name) {
                Some(t) => tier = t,
                None => return usage_error("--tier needs one of small|default|paper"),
            },
            "--jobs" => match take(&mut it).and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => jobs = Some(n),
                _ => return usage_error("--jobs needs a positive integer"),
            },
            "--min-speedup" => match take(&mut it).and_then(|v| v.parse().ok()) {
                Some(x) if x > 0.0 => min_speedup = Some(x),
                _ => return usage_error("--min-speedup needs a positive number"),
            },
            other => return usage_error(&format!("unknown option {other:?}")),
        }
    }

    let workers = jobs.unwrap_or_else(|| crate::fail_fast(parallel::workers_from_env()));
    // Cold cache on both sides: the point of the comparison is the
    // schedule, not disk reuse, and each side gets its own Runner so
    // hit/miss accounting stays per-side.
    let flat_runner = Runner::new(config_from_env(), tier, None, workers);
    eprintln!(
        "bench dag: tier {}, {} processors, {} workers, cold cache",
        tier.name(),
        flat_runner.config().num_procs,
        workers,
    );
    let flat = run_flat(&flat_runner, workers);
    eprintln!("bench dag: flat schedule {:.2}s", flat.seconds);
    let dag_runner = Runner::new(config_from_env(), tier, None, workers);
    let (dag, stats, cells) = run_dag(&dag_runner, workers);
    eprintln!(
        "bench dag: dag schedule {:.2}s (critical path {} / total cost {}, peak ready {})",
        dag.seconds, stats.critical_path, stats.total_cost, stats.peak_ready,
    );

    for ((name, flat_text), (_, dag_text)) in flat.texts.iter().zip(&dag.texts) {
        if flat_text != dag_text {
            eprintln!("error: {name} differs between flat and dag schedules — refusing to report a speedup over divergent output");
            return ExitCode::FAILURE;
        }
    }

    let json = render_json(&flat_runner, workers, cells, &flat, &dag, &stats);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: failed to write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    let speedup = flat.seconds / dag.seconds.max(f64::MIN_POSITIVE);
    println!(
        "dag sweep: {cells} cells, speedup {speedup:.3}x over flat ({:.2}s -> {:.2}s), reports byte-identical",
        flat.seconds, dag.seconds,
    );
    eprintln!("bench dag: wrote {out_path}");
    if let Some(min) = min_speedup {
        if speedup < min {
            eprintln!("error: speedup {speedup:.3} below required minimum {min}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}
