//! Trace utility: generate, inspect, save, reload, and profile
//! workload traces.
//!
//! ```text
//! trace_tool stats   <APP>        print Tables 1-3 statistics
//! trace_tool dump    <APP> <N>    print the first N trace lines
//! trace_tool save    <APP> <FILE> write APP's run as a cache archive
//! trace_tool retime  <FILE>       re-time a saved archive
//! trace_tool profile <APP> [N]    re-time under DS-64/RC with the
//!                                 instrumentation layer and print the
//!                                 top-N stall sites (default 10)
//! ```
//!
//! `profile` requires the `obs` cargo feature; with `--obs-out DIR`
//! (or `LOOKAHEAD_OBS_OUT=DIR`) it also writes per-run artifacts
//! (manifest.json, journal.jsonl, Perfetto-loadable trace.json).
//!
//! Run with `cargo run --release -p lookahead-bench --bin trace_tool -- stats LU`.

use lookahead_bench::{config_from_env, generate_run, obs_out_dir, write_obs_artifacts, SizeTier};
use lookahead_core::ds::{Ds, DsConfig};
use lookahead_core::model::ProcessorModel;
use lookahead_core::{Btb, BtbConfig};
use lookahead_harness::cache::{cache_key, write_run};
use lookahead_harness::pipeline::AppRun;
use lookahead_obs::{StallCause, StallClass};
use lookahead_trace::storage::{read_archive_info, validate_archive_chunks};
use lookahead_trace::TraceStats;
use lookahead_workloads::App;
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: trace_tool <COMMAND>

commands:
  stats   <APP>         print instruction-mix statistics for APP's trace
  dump    <APP> <N>     print the first N lines of APP's trace
  save    <APP> <FILE>  generate APP's run and write it to FILE as a
                        trace-cache archive (LKTR v3)
  retime  <FILE>        re-time the representative trace of a saved
                        archive (or any trace-cache file) under BASE
                        and DS-64/RC, with the program it holds
  profile <APP> [N]     re-time APP under DS-64/RC with the obs
                        instrumentation layer; print the stall-cause
                        matrix, its reconciliation against the
                        execution-time breakdown, and the top-N stall
                        sites (default 10)
  spans <FILE> [--chrome OUT]
                        analyze a span JSONL file written by
                        `lookahead serve --span-log`: per-stage latency
                        table (count, total, mean, p95, max); with
                        --chrome, also write a Chrome/Perfetto
                        trace_event JSON to OUT
  promcheck <FILE>      validate FILE as Prometheus text exposition
                        (the format `/metrics` serves)

APP is one of MP3D, LU, PTHOR, LOCUS, OCEAN (case-insensitive).

options (all commands):
  --obs-out DIR   write per-run observability artifacts under DIR
                  (also via the LOOKAHEAD_OBS_OUT environment variable)
  -h, --help      show this help

environment: LOOKAHEAD_SMALL=1, LOOKAHEAD_PROCS=n, LOOKAHEAD_PAPER=1
`profile` (and artifact capture) need a build with `--features obs`.";

fn parse_app(name: &str) -> Result<App, String> {
    App::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!("unknown application {name:?}; one of MP3D, LU, PTHOR, LOCUS, OCEAN")
        })
}

/// Strips `--obs-out DIR` / `--obs-out=DIR` (consumed separately by
/// [`obs_out_dir`]) so the command match sees only positional args.
fn positional_args() -> Vec<String> {
    let mut out = Vec::new();
    let mut raw = std::env::args().skip(1);
    while let Some(a) = raw.next() {
        if a == "--obs-out" {
            let _ = raw.next();
        } else if !a.starts_with("--obs-out=") {
            out.push(a);
        }
    }
    out
}

fn main() -> ExitCode {
    let args = positional_args();
    if args.iter().any(|a| a == "-h" || a == "--help") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(UsageError::BadInvocation(msg)) => {
            eprintln!("trace_tool: {msg}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Err(UsageError::Failed(msg)) => {
            eprintln!("trace_tool: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// Distinguishes "you called it wrong" (exit 2) from "the operation
/// failed" (exit 1).
enum UsageError {
    BadInvocation(String),
    Failed(String),
}

fn run(args: &[String]) -> Result<(), UsageError> {
    let bad = |m: String| UsageError::BadInvocation(m);
    let failed = |m: String| UsageError::Failed(m);
    let config = config_from_env();
    match args {
        [cmd, app] if cmd == "stats" => {
            let run = generate_run(parse_app(app).map_err(bad)?, &config);
            let mut btb = Btb::new(BtbConfig::PAPER);
            let stats = TraceStats::collect(run.trace(), Some(&mut btb));
            println!(
                "{}: {} instructions (processor {})",
                run.app,
                run.trace_len(),
                run.proc
            );
            println!("  data:   {}", stats.data);
            println!("  sync:   {}", stats.sync);
            println!("  branch: {}", stats.branch);
            Ok(())
        }
        [cmd, app, n] if cmd == "dump" => {
            let n: usize = n
                .parse()
                .map_err(|_| bad(format!("dump: N must be a non-negative integer, got {n:?}")))?;
            let run = generate_run(parse_app(app).map_err(bad)?, &config);
            print!("{}", run.trace().listing(&run.program, n));
            Ok(())
        }
        [cmd, app, file] if cmd == "save" => {
            let run = generate_run(parse_app(app).map_err(bad)?, &config);
            // The cache's own key and format: a saved file is a valid
            // cache entry, and any cache file can be re-timed.
            let key = cache_key(&run.app, SizeTier::from_env().name(), &config);
            let f = File::create(file).map_err(|e| failed(format!("cannot create {file}: {e}")))?;
            write_run(BufWriter::new(f), &key, &run)
                .and_then(|w| w.into_inner().map_err(|e| e.into_error()))
                .map_err(|e| failed(format!("writing {file}: {e}")))?;
            println!(
                "wrote {} processors' traces of {} to {file} ({} representative entries, {} bytes)",
                run.num_procs(),
                run.app,
                run.trace_len(),
                std::fs::metadata(file).map(|m| m.len()).unwrap_or(0)
            );
            Ok(())
        }
        [cmd, file] if cmd == "retime" => {
            // Validated as a cache hit is, so streaming cannot trip
            // over damaged data; the program and the representative
            // processor come from the archive, nothing is regenerated.
            let f = File::open(file).map_err(|e| failed(format!("cannot open {file}: {e}")))?;
            let mut r = BufReader::new(f);
            let info = read_archive_info(&mut r)
                .and_then(|info| validate_archive_chunks(&mut r, &info).map(|()| info))
                .map_err(|e| {
                    failed(format!(
                        "{file} is not a valid trace archive (write one with `trace_tool save`): {e}"
                    ))
                })?;
            let run = AppRun::from_archive(PathBuf::from(file), info);
            let base = run.base();
            let ds = run.retime(&Ds::new(DsConfig::rc().window(64)));
            println!("BASE:     {}", base.breakdown);
            println!("DS-64/RC: {}", ds.breakdown);
            println!(
                "normalized: {:.1}",
                ds.breakdown.normalized_to(&base.breakdown)
            );
            Ok(())
        }
        [cmd, rest @ ..] if cmd == "profile" => {
            let (app, top_n) = match rest {
                [app] => (app, 10usize),
                [app, n] => (
                    app,
                    n.parse().map_err(|_| {
                        bad(format!("profile: N must be a positive integer, got {n:?}"))
                    })?,
                ),
                _ => return Err(bad("profile takes <APP> [N]".into())),
            };
            profile(parse_app(app).map_err(bad)?, &config, top_n).map_err(failed)
        }
        [cmd, rest @ ..] if cmd == "spans" => {
            let (file, chrome) = match rest {
                [file] => (file, None),
                [file, flag, out] if flag == "--chrome" => (file, Some(out.as_str())),
                _ => return Err(bad("spans takes <FILE> [--chrome OUT]".into())),
            };
            spans_report(file, chrome).map_err(failed)
        }
        [cmd, file] if cmd == "promcheck" => {
            let text = std::fs::read_to_string(file)
                .map_err(|e| failed(format!("cannot read {file}: {e}")))?;
            let summary = lookahead_obs::prom::check_exposition(&text)
                .map_err(|e| failed(format!("{file}: invalid Prometheus exposition: {e}")))?;
            println!(
                "{file}: valid Prometheus text exposition ({} families, {} samples)",
                summary.families, summary.samples
            );
            Ok(())
        }
        [] => Err(bad("no command given".into())),
        [cmd, ..] => Err(bad(format!("unknown or malformed command {cmd:?}"))),
    }
}

/// One span parsed back out of a `--span-log` JSONL line.
struct LoggedSpan {
    request_id: String,
    name: String,
    start_us: u64,
    dur_us: u64,
}

fn read_spans(file: &str) -> Result<Vec<LoggedSpan>, String> {
    let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
    let mut spans = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = lookahead_obs::json::parse_flat_object(line)
            .map_err(|e| format!("{file}:{}: not a span line: {e}", i + 1))?;
        let str_field = |k: &str| -> Result<String, String> {
            obj.get(k)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("{file}:{}: missing string field {k:?}", i + 1))
        };
        let u64_field = |k: &str| -> Result<u64, String> {
            obj.get(k)
                .and_then(|v| v.as_u64())
                .ok_or_else(|| format!("{file}:{}: missing numeric field {k:?}", i + 1))
        };
        spans.push(LoggedSpan {
            request_id: str_field("request_id")?,
            name: str_field("name")?,
            start_us: u64_field("start_us")?,
            dur_us: u64_field("dur_us")?,
        });
    }
    Ok(spans)
}

/// `trace_tool spans`: per-stage latency table over a span JSONL file,
/// plus an optional Chrome `trace_event` export (load it in
/// `chrome://tracing` or Perfetto; each request renders as one track).
fn spans_report(file: &str, chrome: Option<&str>) -> Result<(), String> {
    let spans = read_spans(file)?;
    if spans.is_empty() {
        return Err(format!("{file}: no spans"));
    }
    let mut requests: Vec<&str> = spans.iter().map(|s| s.request_id.as_str()).collect();
    requests.sort_unstable();
    requests.dedup();
    println!(
        "{file}: {} spans across {} requests",
        spans.len(),
        requests.len()
    );

    // Stage table: durations grouped by span name, worst-total first.
    let mut stages: std::collections::BTreeMap<&str, Vec<u64>> = std::collections::BTreeMap::new();
    for s in &spans {
        stages.entry(&s.name).or_default().push(s.dur_us);
    }
    let mut rows: Vec<(&str, Vec<u64>)> = stages.into_iter().collect();
    for (_, durs) in &mut rows {
        durs.sort_unstable();
    }
    rows.sort_by_key(|(_, durs)| std::cmp::Reverse(durs.iter().sum::<u64>()));
    println!(
        "{:<14} {:>7} {:>14} {:>12} {:>12} {:>12}",
        "stage", "count", "total_us", "mean_us", "p95_us", "max_us"
    );
    for (name, durs) in &rows {
        let total: u64 = durs.iter().sum();
        let p95 = durs[((durs.len() - 1) as f64 * 0.95).round() as usize];
        println!(
            "{name:<14} {:>7} {total:>14} {:>12} {p95:>12} {:>12}",
            durs.len(),
            total / durs.len() as u64,
            durs.last().unwrap(),
        );
    }

    if let Some(out) = chrome {
        let body = lookahead_obs::json::JsonObject::render(|o| {
            o.array("traceEvents", |a| {
                for s in &spans {
                    let tid = requests
                        .binary_search(&s.request_id.as_str())
                        .expect("deduped from spans") as u64;
                    a.object(|e| {
                        e.str("name", &s.name)
                            .str("cat", "span")
                            .str("ph", "X")
                            .u64("ts", s.start_us)
                            .u64("dur", s.dur_us)
                            .u64("pid", 1)
                            .u64("tid", tid);
                        e.object("args", |args| {
                            args.str("request_id", &s.request_id);
                        });
                    });
                }
            });
        });
        std::fs::write(out, body).map_err(|e| format!("cannot write {out}: {e}"))?;
        println!("wrote Chrome trace_event JSON to {out}");
    }
    Ok(())
}

/// Re-times `app` under DS-64/RC with a recorder installed, checks the
/// attribution/breakdown reconciliation, and prints the profile.
fn profile(app: App, config: &lookahead_multiproc::SimConfig, top_n: usize) -> Result<(), String> {
    if !cfg!(feature = "obs") {
        return Err(
            "profile needs the instrumentation hooks; rebuild with \
             `cargo run --release -p lookahead-bench --features obs --bin trace_tool -- profile ...`"
                .into(),
        );
    }
    // Generation captures its own recorder inside generate_run when
    // --obs-out is set; the profile recorder covers only the re-timing.
    let run = generate_run(app, config);
    lookahead_obs::install(lookahead_obs::Recorder::new(run.proc as u32));
    let model = Ds::new(DsConfig::rc().window(64));
    let result = model.run(&run.program, run.trace());
    let rec = lookahead_obs::take().expect("installed above");
    let attr = &rec.attribution;
    let b = &result.breakdown;

    println!(
        "{} under {}: {} cycles ({} instructions)",
        run.app,
        model.name(),
        result.cycles(),
        result.stats.instructions
    );
    println!("\nstall matrix (cycles by class x cause):");
    for (class, cause, n) in attr.cells() {
        println!("  {:>5} / {:<15} {:>12}", class.name(), cause.name(), n);
    }
    println!(
        "  {:>5}   {:<15} {:>12}",
        "busy", "(retired)", attr.busy_cycles
    );

    // Exact reconciliation against the run's breakdown: read/write/sync
    // classes match their components; fetch stalls are folded into
    // busy, as the models charge them.
    let checks = [
        ("read", attr.class_cycles(StallClass::Read), b.read),
        ("write", attr.class_cycles(StallClass::Write), b.write),
        ("sync", attr.class_cycles(StallClass::Sync), b.sync),
        (
            "busy",
            attr.busy_cycles + attr.class_cycles(StallClass::Fetch),
            b.busy,
        ),
        ("total", attr.total_cycles(), result.cycles()),
    ];
    println!("\nreconciliation vs execution-time breakdown:");
    let mut ok = true;
    for (name, got, want) in checks {
        let mark = if got == want { "ok" } else { "MISMATCH" };
        ok &= got == want;
        println!("  {name:>5}: attribution {got:>12}  breakdown {want:>12}  {mark}");
    }

    println!("\ntop {top_n} stall sites:");
    let total_stall = attr.stall_cycles().max(1);
    for site in attr.top_sites(top_n) {
        println!(
            "  pc {:>6}  {:<15} {:>12} cycles ({:>5.1}%)",
            site.pc,
            site.cause.name(),
            site.cycles,
            100.0 * site.cycles as f64 / total_stall as f64
        );
    }
    let fetch_limited = attr.cell(StallClass::Fetch, StallCause::FetchLimit);
    if fetch_limited > 0 {
        println!("  (+ {fetch_limited} fetch-limited cycles charged to busy)");
    }

    if let Some(dir) = obs_out_dir() {
        write_obs_artifacts(
            &dir,
            &format!("{}-{}", run.app, model.name()),
            config,
            &[(
                "breakdown",
                format!(
                    "{{\"busy\":{},\"read\":{},\"write\":{},\"sync\":{},\"cycles\":{}}}",
                    b.busy,
                    b.read,
                    b.write,
                    b.sync,
                    result.cycles()
                ),
            )],
            &rec,
        );
    }

    if ok {
        Ok(())
    } else {
        Err("stall attribution does not reconcile with the breakdown (simulator bug)".into())
    }
}
