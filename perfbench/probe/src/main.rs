//! The in-process half of the Lookahead benchmark (`perfbench/run.py`
//! is the other half and the only caller).
//!
//! ```text
//! probe load   --addr A --conns N --seconds S --targets F --stream F
//!              --ticks-per-s T --cpus C [--trace]
//! probe refs   --cache-dir D --jobs N --targets F
//! probe replay --cache-dir D --jobs N --targets F --stream F --seconds S --spans F
//! probe cold   --cache-dir D --spans F
//! probe sweep  --cache-dir D --jobs N --spans F --text F
//! probe shape  --cache-dir D --jobs N
//! ```
//!
//! `load` drives a running `lookahead serve` and prints a JSON summary.
//! `refs` prints `<status> <digest>` per target, answered in-process.
//! `replay`, `cold` and `sweep` are the traced runs: they call each
//! layer's public functions with a span around each call and write the
//! spans as JSONL (plus one `counters` line) when they finish. `shape`
//! runs the program's own `reports::dag_sweep` and prints its DAG's
//! shape as one JSON object, the counters `sweep` must match.

mod load;
mod serve;
mod spans;
mod sweep;

use lookahead_bench::{reports, Runner};
use lookahead_harness::cache::TraceCache;
use lookahead_multiproc::SimConfig;
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected argument {a:?}"));
            };
            match it.peek() {
                Some(v) if !v.starts_with("--") => {
                    values.insert(key.to_string(), it.next().cloned().unwrap_or_default());
                }
                _ => flags.push(key.to_string()),
            }
        }
        Ok(Args { values, flags })
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("--{key} is required"))
    }

    fn num<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self.get(key)?;
        v.parse().map_err(|_| format!("--{key}: bad number {v:?}"))
    }

    fn path(&self, key: &str) -> Result<PathBuf, String> {
        self.get(key).map(PathBuf::from)
    }

    fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    fn lines(&self, key: &str) -> Result<Vec<String>, String> {
        let path = self.get(key)?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Ok(text.lines().map(str::to_string).collect())
    }

    fn stream(&self, key: &str, targets: usize) -> Result<Vec<usize>, String> {
        let path = self.get(key)?;
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        text.split_whitespace()
            .map(|w| match w.parse::<usize>() {
                Ok(i) if i < targets => Ok(i),
                _ => Err(format!("{path}: bad target index {w:?}")),
            })
            .collect()
    }
}

/// Writes the spans recorded so far plus one counters line.
fn write_spans(args: &Args, counters: &[(&str, f64)]) -> Result<(), String> {
    let path = args.get("spans")?;
    let run = format!("{}", std::process::id());
    let mut out = spans::to_jsonl(&run);
    let fields: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    out.push_str(&format!(
        "{{\"run\":\"{run}\",\"counters\":{{{}}}}}\n",
        fields.join(",")
    ));
    std::fs::write(path, out).map_err(|e| format!("{path}: {e}"))
}

fn main_load(args: &Args) -> Result<(), String> {
    let targets = args.lines("targets")?;
    let plan = load::Plan {
        addr: args
            .get("addr")?
            .parse()
            .map_err(|e| format!("--addr: {e}"))?,
        conns: args.num("conns")?,
        duration: Duration::from_secs_f64(args.num("seconds")?),
        timeout: Duration::from_secs(60),
        stream: args.stream("stream", targets.len())?,
        targets,
        trace: args.flag("trace"),
        ticks_per_s: args.num("ticks-per-s")?,
        cpus: args.num("cpus")?,
    };
    if plan.stream.is_empty() || plan.conns == 0 {
        return Err("load needs a non-empty stream and at least one connection".into());
    }
    let summary = load::run(&plan).map_err(|e| format!("load: {e}"))?;
    println!("{summary}");
    Ok(())
}

fn main_refs(args: &Args) -> Result<(), String> {
    let service = serve::service(&args.path("cache-dir")?, args.num("jobs")?);
    for target in args.lines("targets")? {
        let (status, digest) = serve::answer(&service, &target)?;
        println!("{status} {digest:016x}");
    }
    Ok(())
}

fn main_replay(args: &Args) -> Result<(), String> {
    let cache_dir = args.path("cache-dir")?;
    let targets = args.lines("targets")?;
    let stream = args.stream("stream", targets.len())?;
    let budget = Duration::from_secs_f64(args.num("seconds")?);
    let service = serve::service(&cache_dir, args.num("jobs")?);
    serve::replay(&service, &targets, &stream, budget)?;
    let mut seen = std::collections::HashSet::new();
    let fresh: Vec<&str> = stream
        .iter()
        .filter(|&&i| seen.insert(i))
        .map(|&i| targets[i].as_str())
        .collect();
    serve::cells(&cache_dir, &fresh, budget)?;
    write_spans(args, &[])
}

fn main_cold(args: &Args) -> Result<(), String> {
    sweep::cold(&args.path("cache-dir")?)?;
    write_spans(args, &[])
}

fn main_sweep(args: &Args) -> Result<(), String> {
    use std::sync::atomic::Ordering::Relaxed;
    let reports = sweep::Reports::new();
    let mut counts = sweep::SweepCounts::default();
    let warm = sweep::warm(
        &args.path("cache-dir")?,
        args.num("jobs")?,
        &reports,
        &mut counts,
    )?;
    let text_path = args.get("text")?;
    std::fs::write(text_path, &warm.text).map_err(|e| format!("{text_path}: {e}"))?;
    sweep::gang_insides(&warm.runs, &reports.union, &warm.results)?;
    sweep::engines(&warm.runs, &reports.union, &warm.results)?;
    let mut counters = vec![
        ("cache.hits", counts.hits.load(Relaxed) as f64),
        ("cache.misses", counts.misses.load(Relaxed) as f64),
        (
            "experiments.gang_fallbacks",
            counts.gang_fallbacks.load(Relaxed) as f64,
        ),
        ("experiments.report_cells", counts.report_cells as f64),
        ("dag.peak_ready", warm.stats.peak_ready as f64),
    ];
    counters.extend(sweep::shape(&warm.stats, counts.unique_cells as usize));
    write_spans(args, &counters)
}

fn main_shape(args: &Args) -> Result<(), String> {
    let jobs = args.num("jobs")?;
    let runner = Runner::new(
        SimConfig::default(),
        sweep::TIER,
        Some(TraceCache::new(args.path("cache-dir")?)),
        jobs,
    );
    let program = reports::dag_sweep(&runner, reports::DAG_REPORTS, jobs);
    let fields: Vec<String> = sweep::shape(&program.stats, program.cells)
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    println!("{{{}}}", fields.join(","));
    Ok(())
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = raw.split_first() else {
        eprintln!("usage: probe load|refs|replay|cold|sweep|shape [--key value ...]");
        return ExitCode::from(2);
    };
    let result = Args::parse(rest).and_then(|args| match cmd.as_str() {
        "load" => main_load(&args),
        "refs" => main_refs(&args),
        "replay" => main_replay(&args),
        "cold" => main_cold(&args),
        "sweep" => main_sweep(&args),
        "shape" => main_shape(&args),
        other => Err(format!("unknown subcommand {other:?}")),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("probe {cmd}: {e}");
            ExitCode::FAILURE
        }
    }
}
