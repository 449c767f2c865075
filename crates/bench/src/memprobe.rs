//! `lookahead bench memory` — peak-RSS comparison of the streamed and
//! materialized re-timing paths.
//!
//! The figure-3 window sweep is re-timed twice from a primed trace
//! cache, each time in a fresh subprocess so `VmHWM` (the kernel's
//! process-lifetime resident-set high-water mark) measures exactly one
//! mode:
//!
//! * **materialized** — `LOOKAHEAD_FORCE_MATERIALIZE=1`: every cache
//!   hit decodes its whole trace set into memory first (the pre-v3
//!   behaviour).
//! * **streamed** — the default: re-timing pulls chunks straight from
//!   the archive; resident memory is bounded by the engine's live
//!   window, not the trace length. The cursor drops each chunk once
//!   the window has retired past it, and the DS engine keeps its
//!   memory operations in a ring sized for the window and the store
//!   buffer, reusing an operation's slot once it has retired and
//!   performed.
//!
//! Both probes also report an FNV-1a digest of the report text they
//! produced, so the run doubles as an end-to-end check that the two
//! paths are byte-identical. Results go to `BENCH_memory.json`; the
//! CI perf-smoke job gates on `--min-ratio` (materialized ÷ streamed
//! peak RSS).

use crate::{config_from_env, reports, Runner, SizeTier};
use lookahead_harness::cache::TraceCache;
use lookahead_harness::pipeline::FORCE_MATERIALIZE_ENV;
use lookahead_trace::fnv1a;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};
use std::time::Instant;

/// This process's peak resident set size in bytes (`VmHWM` from
/// `/proc/self/status`); `None` where procfs is unavailable.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest.trim().trim_end_matches("kB").trim().parse().ok()?;
            return Some(kb * 1024);
        }
    }
    None
}

/// One mode's measurement, as reported by its probe subprocess.
struct Probe {
    mode: &'static str,
    peak_rss_bytes: u64,
    output_fnv: u64,
    wall_seconds: f64,
}

const USAGE: &str = "usage: lookahead bench memory [OPTIONS]

Measures the peak resident set size of the figure-3 window sweep on
the streamed and the force-materialized re-timing paths (one fresh
subprocess each, from a primed trace cache) and writes the comparison
to a JSON file. Fails if the two paths' report text differs.

options:
  --out PATH       result file (default: BENCH_memory.json)
  --tier NAME      workload size tier: small, default, paper or large
                   (default: from the environment)
  --cache-dir DIR  cache traces under DIR (default: target/trace-cache)
  --min-ratio R    fail unless materialized/streamed peak RSS >= R
                   (default: no gate)
  -h, --help       show this help

environment: LOOKAHEAD_SMALL=1, LOOKAHEAD_PROCS=n, LOOKAHEAD_APPS=...";

struct Options {
    out_path: String,
    tier: SizeTier,
    cache_dir: String,
    min_ratio: Option<f64>,
    probe: bool,
}

fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut opts = Options {
        out_path: "BENCH_memory.json".to_string(),
        tier: SizeTier::from_env(),
        cache_dir: "target/trace-cache".to_string(),
        min_ratio: None,
        probe: false,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match a.as_str() {
            "-h" | "--help" => return Ok(None),
            "--probe" => opts.probe = true,
            "--out" => opts.out_path = value("--out")?,
            "--cache-dir" => opts.cache_dir = value("--cache-dir")?,
            "--tier" => {
                let v = value("--tier")?;
                opts.tier = SizeTier::from_name(&v).ok_or_else(|| {
                    format!("unknown tier {v:?}; valid: small, default, paper, large")
                })?;
            }
            "--min-ratio" => {
                let v = value("--min-ratio")?;
                opts.min_ratio = Some(
                    v.parse()
                        .map_err(|_| format!("--min-ratio needs a number, got {v:?}"))?,
                );
            }
            other => {
                if let Some(v) = other.strip_prefix("--out=") {
                    opts.out_path = v.to_string();
                } else if let Some(v) = other.strip_prefix("--cache-dir=") {
                    opts.cache_dir = v.to_string();
                } else if let Some(v) = other.strip_prefix("--tier=") {
                    opts.tier = SizeTier::from_name(v).ok_or_else(|| {
                        format!("unknown tier {v:?}; valid: small, default, paper, large")
                    })?;
                } else if let Some(v) = other.strip_prefix("--min-ratio=") {
                    opts.min_ratio = Some(
                        v.parse()
                            .map_err(|_| format!("--min-ratio needs a number, got {v:?}"))?,
                    );
                } else {
                    return Err(format!("unknown option {other:?}"));
                }
            }
        }
    }
    Ok(Some(opts))
}

/// The probe body: load every app from the cache, run the figure-3
/// sweep single-threaded, and print one JSON line with the peak RSS
/// and a digest of the report text.
fn probe_main(opts: &Options) -> ExitCode {
    let runner = Runner::new(
        config_from_env(),
        opts.tier,
        Some(TraceCache::new(opts.cache_dir.clone())),
        1,
    );
    let runs = runner.run_all();
    let report = reports::figure3_report(&runs, 1);
    let digest = fnv1a(report.as_bytes());
    match peak_rss_bytes() {
        Some(rss) => {
            println!("{{\"peak_rss_bytes\": {rss}, \"output_fnv\": \"{digest:016x}\"}}");
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("error: VmHWM unavailable (/proc/self/status); cannot measure peak RSS");
            ExitCode::FAILURE
        }
    }
}

/// Runs one probe subprocess and parses its JSON line.
fn run_probe(opts: &Options, mode: &'static str, materialize: bool) -> Result<Probe, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let started = Instant::now();
    let mut cmd = Command::new(exe);
    cmd.args([
        "bench",
        "memory",
        "--probe",
        "--tier",
        opts.tier.name(),
        "--cache-dir",
        &opts.cache_dir,
    ]);
    if materialize {
        cmd.env(FORCE_MATERIALIZE_ENV, "1");
    } else {
        cmd.env_remove(FORCE_MATERIALIZE_ENV);
    }
    let output = cmd
        .output()
        .map_err(|e| format!("{mode} probe failed to spawn: {e}"))?;
    let wall_seconds = started.elapsed().as_secs_f64();
    if !output.status.success() {
        return Err(format!(
            "{mode} probe exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr).trim()
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{mode} probe printed no result line: {stdout:?}"))?;
    let field = |key: &str| -> Result<&str, String> {
        let pat = format!("\"{key}\": ");
        let at = line
            .find(&pat)
            .ok_or_else(|| format!("{mode} probe result missing {key}: {line}"))?;
        let rest = &line[at + pat.len()..];
        Ok(rest
            .trim_start_matches('"')
            .split(['"', ',', '}'])
            .next()
            .unwrap_or(""))
    };
    let peak_rss_bytes = field("peak_rss_bytes")?
        .parse()
        .map_err(|e| format!("{mode} probe: bad peak_rss_bytes: {e}"))?;
    let output_fnv = u64::from_str_radix(field("output_fnv")?, 16)
        .map_err(|e| format!("{mode} probe: bad output_fnv: {e}"))?;
    Ok(Probe {
        mode,
        peak_rss_bytes,
        output_fnv,
        wall_seconds,
    })
}

fn render_json(opts: &Options, runner: &Runner, probes: &[Probe], ratio: f64) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"memory\",");
    let _ = writeln!(out, "  \"workload\": \"figure3_sweep\",");
    let _ = writeln!(out, "  \"tier\": \"{}\",", opts.tier.name());
    let apps: Vec<String> = runner
        .apps()
        .iter()
        .map(|a| format!("\"{}\"", a.name()))
        .collect();
    let _ = writeln!(out, "  \"apps\": [{}],", apps.join(", "));
    out.push_str("  \"modes\": [\n");
    for (i, p) in probes.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"mode\": \"{}\", \"peak_rss_bytes\": {}, \"peak_rss_mib\": {:.1}, \
             \"output_fnv\": \"{:016x}\", \"wall_seconds\": {:.2}}}",
            p.mode,
            p.peak_rss_bytes,
            p.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            p.output_fnv,
            p.wall_seconds,
        );
        out.push_str(if i + 1 < probes.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let _ = writeln!(
        out,
        "  \"outputs_identical\": {},",
        probes
            .windows(2)
            .all(|w| w[0].output_fnv == w[1].output_fnv)
    );
    let _ = writeln!(
        out,
        "  \"rss_ratio_materialized_over_streamed\": {ratio:.2}"
    );
    out.push_str("}\n");
    out
}

/// Entry point for `lookahead bench memory`.
pub fn memory_main(args: &[String]) -> ExitCode {
    let opts = match parse_args(args) {
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
    if opts.probe {
        return probe_main(&opts);
    }

    // Prime the cache so both probes measure cache-hit re-timing, not
    // trace generation (which is already streamed and identical in
    // both modes).
    let runner = Runner::new(
        config_from_env(),
        opts.tier,
        Some(TraceCache::new(opts.cache_dir.clone())),
        crate::fail_fast(lookahead_harness::parallel::workers_from_env()),
    );
    eprintln!(
        "bench memory: priming {} cache under {}",
        opts.tier.name(),
        opts.cache_dir
    );
    drop(runner.run_all());

    let probes = match ["materialized", "streamed"]
        .into_iter()
        .map(|mode| run_probe(&opts, mode, mode == "materialized"))
        .collect::<Result<Vec<Probe>, String>>()
    {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    let ratio = probes[0].peak_rss_bytes as f64 / probes[1].peak_rss_bytes.max(1) as f64;
    for p in &probes {
        println!(
            "{:<13} peak RSS {:>8.1} MiB  ({:.2}s)",
            p.mode,
            p.peak_rss_bytes as f64 / (1024.0 * 1024.0),
            p.wall_seconds,
        );
    }
    println!("materialized / streamed peak RSS: {ratio:.2}x");

    let json = render_json(&opts, &runner, &probes, ratio);
    if let Err(e) = std::fs::write(&opts.out_path, &json) {
        eprintln!("error: failed to write {}: {e}", opts.out_path);
        return ExitCode::FAILURE;
    }
    eprintln!("bench memory: wrote {}", opts.out_path);

    if probes[0].output_fnv != probes[1].output_fnv {
        eprintln!(
            "error: streamed and materialized sweeps produced different report text \
             ({:016x} vs {:016x})",
            probes[0].output_fnv, probes[1].output_fnv
        );
        return ExitCode::FAILURE;
    }
    if let Some(min) = opts.min_ratio {
        if ratio < min {
            eprintln!(
                "error: peak-RSS ratio {ratio:.2} below the required minimum {min:.2} \
                 (streaming regressed)"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_available_and_plausible_on_linux() {
        let rss = peak_rss_bytes().expect("VmHWM should exist on Linux");
        // A running test binary surely holds more than 1 MiB and less
        // than 1 TiB resident.
        assert!(rss > 1 << 20, "implausibly small peak RSS: {rss}");
        assert!(rss < 1 << 40, "implausibly large peak RSS: {rss}");
    }

    #[test]
    fn probe_flag_and_tier_parse() {
        let args: Vec<String> = ["--probe", "--tier", "small", "--cache-dir=/tmp/c"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let opts = parse_args(&args).unwrap().unwrap();
        assert!(opts.probe);
        assert_eq!(opts.tier, SizeTier::Small);
        assert_eq!(opts.cache_dir, "/tmp/c");
        assert!(parse_args(&["--tier".to_string(), "huge".to_string()]).is_err());
        assert!(parse_args(&["--min-ratio=x".to_string()]).is_err());
    }
}
