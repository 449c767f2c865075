//! `lookahead bench` — wall-clock benchmark of the re-timing engines.
//!
//! Measures retired-instructions-per-second and wall time for every
//! (model × consistency × latency) cell over the selected
//! applications' traces, including the dynamically scheduled model
//! under **both** engines: the event-driven skip-ahead engine
//! ([`Ds::run`]) and the retained cycle-by-cycle reference stepper
//! ([`Ds::run_reference`]). The headline number is the DS speedup on
//! the 100-cycle-latency sweep, where dead cycles dominate and
//! skipping pays the most.
//!
//! Results are written as `BENCH_retiming.json` (machine-readable, one
//! object per cell) and summarized on stdout. Timing uses
//! `std::time::Instant` only — no external benchmarking dependency.

use crate::{config_from_env, Runner, SizeTier};
use lookahead_core::base::Base;
use lookahead_core::consistency::ConsistencyModel;
use lookahead_core::ds::{Ds, DsConfig};
use lookahead_core::inorder::InOrder;
use lookahead_core::model::ProcessorModel;
use lookahead_harness::cache::TraceCache;
use lookahead_harness::pipeline::AppRun;
use lookahead_memsys::MemoryParams;
use lookahead_multiproc::SimConfig;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// The miss penalties benchmarked; 100 is the sweep the acceptance
/// criterion targets.
const LATENCIES: [u32; 2] = [50, 100];

/// One measured benchmark cell.
struct Cell {
    model: &'static str,
    engine: &'static str,
    consistency: &'static str,
    latency: u32,
    wall_seconds: f64,
    instructions: u64,
}

impl Cell {
    fn instructions_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.instructions as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// Times `iters` repetitions of re-timing every run, keeping the best
/// (minimum) wall time; returns (seconds, instructions retired in one
/// repetition).
fn time_model(runs: &[AppRun], iters: u32, f: impl Fn(&AppRun) -> u64) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut instructions = 0;
    for _ in 0..iters {
        instructions = 0;
        let started = Instant::now();
        for run in runs {
            instructions += f(run);
        }
        best = best.min(started.elapsed().as_secs_f64());
    }
    (best, instructions)
}

fn consistency_name(m: ConsistencyModel) -> &'static str {
    match m {
        ConsistencyModel::Sc => "sc",
        ConsistencyModel::Pc => "pc",
        ConsistencyModel::Wo => "wo",
        ConsistencyModel::Rc => "rc",
    }
}

fn bench_cells(runner: &Runner, iters: u32) -> Vec<Cell> {
    let mut cells = Vec::new();
    for latency in LATENCIES {
        let config = SimConfig {
            mem: MemoryParams::with_miss_penalty(latency),
            ..*runner.config()
        };
        let runs: Vec<AppRun> = runner
            .apps()
            .into_iter()
            .map(|app| runner.run_workload(runner.tier().workload(app).as_ref(), &config))
            .collect();

        let mut push = |model, engine, consistency, f: &dyn Fn(&AppRun) -> u64| {
            let (wall_seconds, instructions) = time_model(&runs, iters, f);
            cells.push(Cell {
                model,
                engine,
                consistency,
                latency,
                wall_seconds,
                instructions,
            });
        };

        push("BASE", "analytic", "-", &|r: &AppRun| {
            Base.run(&r.program, r.trace()).stats.instructions
        });
        for m in [ConsistencyModel::Sc, ConsistencyModel::Rc] {
            push(
                "SSBR",
                "analytic",
                consistency_name(m),
                &move |r: &AppRun| {
                    InOrder::ssbr(m)
                        .run(&r.program, r.trace())
                        .stats
                        .instructions
                },
            );
            push("SS", "analytic", consistency_name(m), &move |r: &AppRun| {
                InOrder::ss(m).run(&r.program, r.trace()).stats.instructions
            });
        }
        for m in [
            ConsistencyModel::Sc,
            ConsistencyModel::Pc,
            ConsistencyModel::Wo,
            ConsistencyModel::Rc,
        ] {
            let ds = Ds::new(DsConfig::with_model(m));
            push("DS", "skip", consistency_name(m), &move |r: &AppRun| {
                ds.run(&r.program, r.trace()).stats.instructions
            });
            push(
                "DS",
                "reference",
                consistency_name(m),
                &move |r: &AppRun| ds.run_reference(&r.program, r.trace()).stats.instructions,
            );
        }
    }
    cells
}

/// The DS skip-vs-reference wall-time ratio summed over one latency's
/// consistency cells (`None` if either side is missing or zero).
fn ds_speedup(cells: &[Cell], latency: u32) -> Option<f64> {
    let sum = |engine: &str| -> f64 {
        cells
            .iter()
            .filter(|c| c.model == "DS" && c.engine == engine && c.latency == latency)
            .map(|c| c.wall_seconds)
            .sum()
    };
    let (skip, reference) = (sum("skip"), sum("reference"));
    (skip > 0.0 && reference > 0.0).then(|| reference / skip)
}

fn render_json(runner: &Runner, iters: u32, cells: &[Cell]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"retiming\",");
    let _ = writeln!(out, "  \"tier\": \"{}\",", runner.tier().name());
    let apps: Vec<String> = runner
        .apps()
        .iter()
        .map(|a| format!("\"{}\"", a.name()))
        .collect();
    let _ = writeln!(out, "  \"apps\": [{}],", apps.join(", "));
    let _ = writeln!(out, "  \"iterations\": {iters},");
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"model\": \"{}\", \"engine\": \"{}\", \"consistency\": \"{}\", \
             \"latency\": {}, \"wall_seconds\": {:.6}, \"instructions\": {}, \
             \"instructions_per_second\": {:.0}}}",
            c.model,
            c.engine,
            c.consistency,
            c.latency,
            c.wall_seconds,
            c.instructions,
            c.instructions_per_second(),
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    for latency in LATENCIES {
        let speedup = ds_speedup(cells, latency).unwrap_or(0.0);
        let _ = writeln!(out, "  \"latency{latency}_ds_speedup\": {speedup:.2},");
    }
    // Trailing key so every earlier line can end with a comma.
    let _ = writeln!(out, "  \"latencies\": [50, 100]");
    out.push_str("}\n");
    out
}

fn render_table(cells: &[Cell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<6} {:<10} {:<5} {:>8} {:>12} {:>14}",
        "model", "engine", "cons", "latency", "wall (s)", "instr/sec"
    );
    for c in cells {
        let _ = writeln!(
            out,
            "{:<6} {:<10} {:<5} {:>8} {:>12.4} {:>14.0}",
            c.model,
            c.engine,
            c.consistency,
            c.latency,
            c.wall_seconds,
            c.instructions_per_second(),
        );
    }
    for latency in LATENCIES {
        if let Some(s) = ds_speedup(cells, latency) {
            let _ = writeln!(
                out,
                "DS skip-ahead speedup vs reference stepper @ latency {latency}: {s:.2}x"
            );
        }
    }
    out
}

const USAGE: &str = "usage: lookahead bench [OPTIONS]

Benchmarks the re-timing engines over every (model x consistency x
latency) cell and writes machine-readable results.

options:
  --out PATH       result file (default: BENCH_retiming.json)
  --iters N        timed repetitions per cell, best-of-N (default: 3)
  --cache-dir DIR  cache traces under DIR (default: target/trace-cache)
  --no-cache       disable the trace cache
  -h, --help       show this help

environment: LOOKAHEAD_SMALL=1, LOOKAHEAD_PROCS=n, LOOKAHEAD_APPS=...";

/// Entry point for `lookahead bench`.
pub fn bench_main(args: &[String]) -> ExitCode {
    let mut out_path = "BENCH_retiming.json".to_string();
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
        "bench: tier {}, {} processors, best of {iters} runs per cell",
        runner.tier().name(),
        runner.config().num_procs,
    );
    let total = Instant::now();
    let cells = bench_cells(&runner, iters);
    print!("{}", render_table(&cells));
    let json = render_json(&runner, iters, &cells);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: failed to write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "bench: wrote {out_path} in {:.2}s total",
        total.elapsed().as_secs_f64()
    );
    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(model: &'static str, engine: &'static str, latency: u32, wall: f64) -> Cell {
        Cell {
            model,
            engine,
            consistency: "rc",
            latency,
            wall_seconds: wall,
            instructions: 1000,
        }
    }

    #[test]
    fn speedup_is_reference_over_skip() {
        let cells = vec![
            cell("DS", "skip", 100, 1.0),
            cell("DS", "reference", 100, 4.0),
            cell("DS", "skip", 50, 2.0),
            cell("DS", "reference", 50, 3.0),
            cell("BASE", "analytic", 100, 9.0),
        ];
        assert_eq!(ds_speedup(&cells, 100), Some(4.0));
        assert_eq!(ds_speedup(&cells, 50), Some(1.5));
        assert_eq!(ds_speedup(&cells, 75), None);
    }

    #[test]
    fn instructions_per_second_handles_zero_time() {
        assert_eq!(cell("DS", "skip", 100, 0.0).instructions_per_second(), 0.0);
        let c = cell("DS", "skip", 100, 0.5);
        assert_eq!(c.instructions_per_second(), 2000.0);
    }
}
