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
//! it also writes per-run artifacts (manifest.json, journal.jsonl,
//! Perfetto-loadable trace.json).
//!
//! Run with `cargo run --release -p lookahead-bench --bin trace_tool -- stats LU`.

use lookahead_bench::knobs::{self, Bin, Flags};
use lookahead_bench::{write_obs_artifacts, write_stdout, Runner};
use lookahead_core::ds::{Ds, DsConfig};
use lookahead_core::model::ProcessorModel;
use lookahead_core::{Btb, BtbConfig};
use lookahead_harness::pipeline::AppRun;
use lookahead_obs::{StallCause, StallClass};
use lookahead_trace::storage::{read_archive_info, validate_archive_chunks};
use lookahead_trace::TraceStats;
use lookahead_workloads::App;
use std::fmt::Write as _;
use std::fs::File;
use std::io::BufReader;
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
  -h, --help      show this help

`profile` (and artifact capture) need a build with `--features obs`.";

fn parse_app(name: &str) -> Result<App, String> {
    App::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| {
            format!("unknown application {name:?}; one of MP3D, LU, PTHOR, LOCUS, OCEAN")
        })
}

fn main() -> ExitCode {
    let knobs = knobs::read();
    let usage = knobs::usage(Bin::TraceTool, USAGE);
    // `--obs-out` may come anywhere; the commands see the rest.
    let mut args = Vec::new();
    let mut obs_out = None;
    let mut flags = Flags::new(&std::env::args().skip(1).collect::<Vec<_>>());
    while let Some(a) = flags.next() {
        if a != "--obs-out" {
            args.push(a);
        } else {
            match flags.value("--obs-out") {
                Ok(dir) => obs_out = Some(dir.into()),
                Err(e) => {
                    eprintln!("trace_tool: {e}\n\n{usage}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    if args.iter().any(|a| a == "-h" || a == "--help") {
        return write_stdout(format!("{usage}\n").as_bytes())
            .err()
            .unwrap_or(ExitCode::SUCCESS);
    }
    let runner = Runner::new(
        knobs.config(),
        knobs.tier(None),
        knobs.cache(false, None, None),
        knobs.jobs(None),
    )
    .with_obs_out(knobs.obs_out(obs_out));
    // Output is written once, at the end, so a reader that stops early
    // (`trace_tool dump LU 5000 | head`) ends the program quietly.
    let mut out = String::new();
    let result = run(&args, &runner, &mut out);
    let written = write_stdout(out.as_bytes());
    match result {
        Ok(()) => written.err().unwrap_or(ExitCode::SUCCESS),
        Err(UsageError::BadInvocation(msg)) => {
            eprintln!("trace_tool: {msg}\n\n{usage}");
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

fn run(args: &[String], runner: &Runner, out: &mut String) -> Result<(), UsageError> {
    let bad = |m: String| UsageError::BadInvocation(m);
    let failed = |m: String| UsageError::Failed(m);
    match args {
        [cmd, app] if cmd == "stats" => {
            let run = runner.run_app(parse_app(app).map_err(bad)?);
            let mut btb = Btb::new(BtbConfig::PAPER);
            let stats = TraceStats::collect(run.trace(), Some(&mut btb));
            let _ = writeln!(
                out,
                "{}: {} instructions (processor {})",
                run.app,
                run.trace_len(),
                run.proc
            );
            let _ = writeln!(out, "  data:   {}", stats.data);
            let _ = writeln!(out, "  sync:   {}", stats.sync);
            let _ = writeln!(out, "  branch: {}", stats.branch);
            Ok(())
        }
        [cmd, app, n] if cmd == "dump" => {
            let n: usize = n
                .parse()
                .map_err(|_| bad(format!("dump: N must be a non-negative integer, got {n:?}")))?;
            let run = runner.run_app(parse_app(app).map_err(bad)?);
            out.push_str(&run.trace().listing(&run.program, n));
            Ok(())
        }
        [cmd, app, file] if cmd == "save" => {
            let run = runner.run_app(parse_app(app).map_err(bad)?);
            // The run's own archive, under the cache's key: a saved file
            // is a valid cache entry, and any cache file can be re-timed.
            let mut f =
                File::create(file).map_err(|e| failed(format!("cannot create {file}: {e}")))?;
            let bytes = run
                .write_archive(&mut f)
                .map_err(|e| failed(format!("writing {file}: {e}")))?;
            let _ = writeln!(
                out,
                "wrote {} processors' traces of {} to {file} ({} representative entries, {bytes} bytes)",
                run.num_procs(),
                run.app,
                run.trace_len(),
            );
            Ok(())
        }
        [cmd, file] if cmd == "retime" => {
            // Validated as a cache hit is, so streaming cannot trip
            // over damaged data; the program and the representative
            // processor come from the archive, nothing is regenerated.
            let f = File::open(file).map_err(|e| failed(format!("cannot open {file}: {e}")))?;
            let mut r = BufReader::new(f);
            let (info, index) = read_archive_info(&mut r)
                .and_then(|info| validate_archive_chunks(&mut r, &info).map(|index| (info, index)))
                .map_err(|e| {
                    failed(format!(
                        "{file} is not a valid trace archive (write one with `trace_tool save`): {e}"
                    ))
                })?;
            let run = AppRun::from_archive(PathBuf::from(file), info, index);
            let base = run.base();
            let ds = run.retime(&Ds::new(DsConfig::rc().window(64)));
            let _ = writeln!(out, "BASE:     {}", base.breakdown);
            let _ = writeln!(out, "DS-64/RC: {}", ds.breakdown);
            let _ = writeln!(
                out,
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
            profile(parse_app(app).map_err(bad)?, runner, top_n, out).map_err(failed)
        }
        [cmd, rest @ ..] if cmd == "spans" => {
            let (file, chrome) = match rest {
                [file] => (file, None),
                [file, flag, out] if flag == "--chrome" => (file, Some(out.as_str())),
                _ => return Err(bad("spans takes <FILE> [--chrome OUT]".into())),
            };
            spans_report(file, chrome, out).map_err(failed)
        }
        [cmd, file] if cmd == "promcheck" => {
            let text = std::fs::read_to_string(file)
                .map_err(|e| failed(format!("cannot read {file}: {e}")))?;
            let summary = lookahead_obs::prom::check_exposition(&text)
                .map_err(|e| failed(format!("{file}: invalid Prometheus exposition: {e}")))?;
            let _ = writeln!(
                out,
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
fn spans_report(file: &str, chrome: Option<&str>, out: &mut String) -> Result<(), String> {
    let spans = read_spans(file)?;
    if spans.is_empty() {
        return Err(format!("{file}: no spans"));
    }
    let mut requests: Vec<&str> = spans.iter().map(|s| s.request_id.as_str()).collect();
    requests.sort_unstable();
    requests.dedup();
    let _ = writeln!(
        out,
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
    let _ = writeln!(
        out,
        "{:<14} {:>7} {:>14} {:>12} {:>12} {:>12}",
        "stage", "count", "total_us", "mean_us", "p95_us", "max_us"
    );
    for (name, durs) in &rows {
        let total: u64 = durs.iter().sum();
        let p95 = durs[((durs.len() - 1) as f64 * 0.95).round() as usize];
        let _ = writeln!(
            out,
            "{name:<14} {:>7} {total:>14} {:>12} {p95:>12} {:>12}",
            durs.len(),
            total / durs.len() as u64,
            durs.last().unwrap(),
        );
    }

    if let Some(path) = chrome {
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
        std::fs::write(path, body).map_err(|e| format!("cannot write {path}: {e}"))?;
        let _ = writeln!(out, "wrote Chrome trace_event JSON to {path}");
    }
    Ok(())
}

/// Re-times `app` under DS-64/RC with a recorder installed, checks the
/// attribution/breakdown reconciliation, and prints the profile.
fn profile(app: App, runner: &Runner, top_n: usize, out: &mut String) -> Result<(), String> {
    if !cfg!(feature = "obs") {
        return Err(
            "profile needs the instrumentation hooks; rebuild with \
             `cargo run --release -p lookahead-bench --features obs --bin trace_tool -- profile ...`"
                .into(),
        );
    }
    // Generation captures its own recorder inside run_app when
    // --obs-out is set; the profile recorder covers only the re-timing.
    let run = runner.run_app(app);
    lookahead_obs::install(lookahead_obs::Recorder::new(run.proc as u32));
    let model = Ds::new(DsConfig::rc().window(64));
    let result = model.run(&run.program, run.trace());
    let rec = lookahead_obs::take().expect("installed above");
    let attr = &rec.attribution;
    let b = &result.breakdown;

    let _ = writeln!(
        out,
        "{} under {}: {} cycles ({} instructions)",
        run.app,
        model.name(),
        result.cycles(),
        result.stats.instructions
    );
    let _ = writeln!(out, "\nstall matrix (cycles by class x cause):");
    for (class, cause, n) in attr.cells() {
        let _ = writeln!(
            out,
            "  {:>5} / {:<15} {:>12}",
            class.name(),
            cause.name(),
            n
        );
    }
    let _ = writeln!(
        out,
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
    let _ = writeln!(out, "\nreconciliation vs execution-time breakdown:");
    let mut ok = true;
    for (name, got, want) in checks {
        let mark = if got == want { "ok" } else { "MISMATCH" };
        ok &= got == want;
        let _ = writeln!(
            out,
            "  {name:>5}: attribution {got:>12}  breakdown {want:>12}  {mark}"
        );
    }

    let _ = writeln!(out, "\ntop {top_n} stall sites:");
    let total_stall = attr.stall_cycles().max(1);
    for site in attr.top_sites(top_n) {
        let _ = writeln!(
            out,
            "  pc {:>6}  {:<15} {:>12} cycles ({:>5.1}%)",
            site.pc,
            site.cause.name(),
            site.cycles,
            100.0 * site.cycles as f64 / total_stall as f64
        );
    }
    let fetch_limited = attr.cell(StallClass::Fetch, StallCause::FetchLimit);
    if fetch_limited > 0 {
        let _ = writeln!(
            out,
            "  (+ {fetch_limited} fetch-limited cycles charged to busy)"
        );
    }

    if let Some(dir) = runner.obs_out() {
        write_obs_artifacts(
            dir,
            &format!("{}-{}", run.app, model.name()),
            runner.config(),
            runner.tier(),
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
