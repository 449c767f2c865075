//! Traced replays of the `sweep` workload, composed from each layer's
//! public calls:
//!
//! * [`cold`]: what `lookahead figure3 figure4 summary` does on an
//!   empty cache before re-timing — `Workload::build`, then
//!   `Simulator::run_with_sink` streaming into an `ArchiveWriter`;
//! * [`warm`]: the re-timing sweep on a filled cache, shaped like
//!   `reports::dag_sweep` — `TaskDag` planning, `load_or_generate` (a
//!   checksummed `TraceCache::load`), one `experiments::retime_gang`
//!   node per application, then `columns_from_results` and
//!   `render_figure`. Its text must equal the CLI's stdout, and its
//!   [`shape`] must equal that of the program's own sweep;
//! * [`gang_insides`]: each application's gang again, composed from a
//!   `GangCursor` and its members so that chunk decode and fan-out can
//!   be timed; its results must equal `retime_gang`'s;
//! * [`engines`]: every unique cell's engine alone on one thread over
//!   the materialized trace (`ModelSpec::build` → `ProcessorModel::run`),
//!   so per-model rates are not blurred by the gang's thread contention.

use crate::spans;
use lookahead_core::model::ExecutionResult;
use lookahead_harness::cache::{cache_key, load_or_generate, CacheOutcome, TraceCache};
use lookahead_harness::dag::{run_dag_with_stats, DagStats, TaskDag};
use lookahead_harness::experiments::{
    columns_from_results, figure3_cells, figure4_cells, hidden_row, retime_gang, summary_cells,
    CellSpec, PAPER_WINDOWS,
};
use lookahead_harness::format::{render_figure, render_table};
use lookahead_harness::pipeline::AppRun;
use lookahead_harness::SizeTier;
use lookahead_multiproc::{SimConfig, Simulator};
use lookahead_trace::storage::ArchiveWriter;
use lookahead_trace::{GangCursor, StreamError, TraceChunk, TraceSink, TraceSource};
use lookahead_workloads::App;
use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The tier the benchmark runs, passed to the CLI as `--tier default`.
pub const TIER: SizeTier = SizeTier::Default;

/// Chunks the fastest gang member may lead the slowest by: the private
/// `GANG_MAX_LEAD` of `experiments::retime_gang`, read from the harness
/// source so that [`gang_insides`] follows it when it changes.
fn gang_max_lead() -> usize {
    const SOURCE: &str = include_str!("../../../crates/harness/src/experiments.rs");
    SOURCE
        .lines()
        .find_map(|l| {
            l.trim()
                .strip_prefix("const GANG_MAX_LEAD: usize = ")?
                .strip_suffix(';')?
                .parse()
                .ok()
        })
        .expect("crates/harness/src/experiments.rs defines `const GANG_MAX_LEAD: usize`")
}

/// A [`TraceSource`] that records a span around every `next_chunk`,
/// counting the entries it yields.
pub struct Timed<'s> {
    pub inner: &'s mut (dyn TraceSource + Send),
    pub name: &'static str,
}

impl TraceSource for Timed<'_> {
    fn next_chunk(&mut self) -> Result<Option<Arc<TraceChunk>>, StreamError> {
        spans::counted(self.name, || {
            let r = self.inner.next_chunk();
            let n = match &r {
                Ok(Some(c)) => c.len() as u64,
                _ => 0,
            };
            (r, n)
        })
    }

    fn entries_hint(&self) -> Option<u64> {
        self.inner.entries_hint()
    }

    fn mem_entries_hint(&self) -> Option<u64> {
        self.inner.mem_entries_hint()
    }

    fn max_latency_hint(&self) -> Option<u32> {
        self.inner.max_latency_hint()
    }
}

/// An `ArchiveWriter` whose every `accept` is a span.
struct TimedSink<W: Write> {
    writer: ArchiveWriter<W>,
}

impl<W: Write> TraceSink for TimedSink<W> {
    fn accept(&mut self, proc: usize, chunk: &TraceChunk) -> io::Result<()> {
        spans::counted("trace.archive_write", || {
            (self.writer.accept(proc, chunk), chunk.len() as u64)
        })
    }
}

/// Generates every application's trace into `cache_dir` as the CLI's
/// streamed generation does, with a span around each layer call. The
/// archive is not `sync_all`ed: the span measures the writer, not the
/// disk's flush.
pub fn cold(cache_dir: &Path) -> Result<(), String> {
    let config = SimConfig::default();
    let cache = TraceCache::new(cache_dir);
    fs::create_dir_all(cache_dir).map_err(|e| format!("{}: {e}", cache_dir.display()))?;
    for app in App::ALL {
        let workload = TIER.workload(app);
        let name = workload.name();
        let built = spans::span("workloads.build", || workload.build(config.num_procs));
        let key = cache_key(name, TIER.name(), &config);
        let path = cache.path_for(name, &key);
        let tmp = path.with_extension("tmp");
        let io_err = |e: io::Error| format!("{name} archive: {e}");
        let file = fs::File::create(&tmp).map_err(io_err)?;
        let writer = spans::span("trace.archive_write", || {
            ArchiveWriter::new(
                BufWriter::new(file),
                &key,
                name,
                config.num_procs,
                &built.program,
            )
        })
        .map_err(io_err)?;
        let mut sink = TimedSink { writer };
        let sim = Simulator::new(built.program, built.image, config)
            .map_err(|e| format!("{name}: {e}"))?;
        let outcome = spans::counted("multiproc.simulate", || {
            let r = sim.run_with_sink(&mut sink);
            let n = r.as_ref().map_or(0, |o| o.entry_counts.iter().sum());
            (r, n)
        })
        .map_err(|e| format!("{name}: {e}"))?;
        (built.verify)(&outcome.final_memory).map_err(|e| format!("{name} verify: {e}"))?;
        let proc = outcome.busiest_proc();
        spans::counted("trace.archive_finish", || {
            let r = sink
                .writer
                .finish(proc, outcome.total_cycles, &outcome.breakdowns)
                .and_then(|w| w.into_inner().map_err(|e| e.into_error()))
                .and_then(|f| f.metadata().map(|m| m.len()));
            let bytes = *r.as_ref().unwrap_or(&0);
            (r, bytes)
        })
        .map_err(io_err)?;
        fs::rename(&tmp, &path).map_err(io_err)?;
    }
    Ok(())
}

/// Counters of one warm sweep, reported beside its spans.
#[derive(Default)]
pub struct SweepCounts {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub gang_fallbacks: AtomicU64,
    pub unique_cells: u64,
    pub report_cells: u64,
}

/// The sweep's reports and their cells; `union` deduplicates cells by
/// model, as `reports::dag_sweep`'s gang nodes do.
pub struct Reports {
    pub specs: Vec<(&'static str, Vec<CellSpec>)>,
    pub union: Vec<CellSpec>,
    to_union: Vec<Vec<usize>>,
}

impl Reports {
    pub fn new() -> Reports {
        let specs = vec![
            ("figure3", figure3_cells(&PAPER_WINDOWS)),
            ("figure4", figure4_cells(&PAPER_WINDOWS)),
            ("summary", summary_cells(&PAPER_WINDOWS)),
        ];
        let mut union: Vec<CellSpec> = Vec::new();
        let mut to_union = Vec::new();
        for (_, cells) in &specs {
            let mut map = Vec::new();
            for cell in cells {
                let u = match union.iter().position(|c| c.model == cell.model) {
                    Some(u) => u,
                    None => {
                        union.push(cell.clone());
                        union.len() - 1
                    }
                };
                map.push(u);
            }
            to_union.push(map);
        }
        Reports {
            specs,
            union,
            to_union,
        }
    }
}

/// A DAG sweep's shape: what its scheduler was given and planned, as
/// counters. [`warm`]'s must equal that of `reports::dag_sweep` on the
/// same cache, or the traced sweep is no longer the program's.
pub fn shape(stats: &DagStats, cells: usize) -> Vec<(&'static str, f64)> {
    vec![
        ("dag.tasks", stats.tasks as f64),
        ("dag.edges", stats.edges as f64),
        ("dag.collapsed", stats.collapsed as f64),
        ("dag.critical_path", stats.critical_path as f64),
        ("dag.total_cost", stats.total_cost as f64),
        ("dag.planned_makespan", stats.planned_makespan as f64),
        ("dag.workers", stats.workers as f64),
        ("experiments.unique_cells", cells as f64),
    ]
}

/// What one traced warm sweep leaves behind.
pub struct Warm {
    pub runs: Vec<AppRun>,
    /// Each application's results, one per unique cell.
    pub results: Vec<Vec<ExecutionResult>>,
    /// The rendered stdout.
    pub text: String,
    pub stats: DagStats,
}

/// One traced warm sweep over the filled cache in `cache_dir`, shaped
/// like `reports::dag_sweep`: a collapsed generation node per
/// application feeding one gang node that calls
/// `experiments::retime_gang`.
pub fn warm(
    cache_dir: &Path,
    workers: usize,
    reports: &Reports,
    counts: &mut SweepCounts,
) -> Result<Warm, String> {
    let config = SimConfig::default();
    let cache = TraceCache::new(cache_dir);
    let union = &reports.union;
    counts.unique_cells = (union.len() * App::ALL.len()) as u64;
    counts.report_cells =
        (reports.specs.iter().map(|(_, c)| c.len()).sum::<usize>() * App::ALL.len()) as u64;
    for app in App::ALL {
        let workload = TIER.workload(app);
        let key = cache_key(workload.name(), TIER.name(), &config);
        if !cache.path_for(workload.name(), &key).exists() {
            return Err(format!(
                "{}: the warm sweep needs a filled cache",
                workload.name()
            ));
        }
    }
    Ok(spans::span("sweep", || {
        let mut dag = TaskDag::new();
        for _ in App::ALL {
            let gen = dag.add_collapsed(&[]);
            let cost = union.iter().map(|c| c.model.cost()).sum();
            dag.add_task_kind(cost, &[gen], "gang");
        }
        spans::span("dag.plan", || (dag.ranks(), dag.plan(workers)));

        let runs: Vec<OnceLock<AppRun>> = App::ALL.iter().map(|_| OnceLock::new()).collect();
        let results: Vec<OnceLock<Vec<ExecutionResult>>> =
            App::ALL.iter().map(|_| OnceLock::new()).collect();
        let stats = spans::span("dag.run", || {
            let parent = spans::current();
            let (runs, results, cache, config, counts) =
                (&runs, &results, &cache, &config, &*counts);
            let mut jobs: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
            for (ai, app) in App::ALL.into_iter().enumerate() {
                jobs.push(Box::new(move || {
                    spans::adopt(parent);
                    let workload = TIER.workload(app);
                    let run = spans::counted("cache.load", || {
                        let (run, outcome) =
                            load_or_generate(Some(cache), workload.as_ref(), TIER.name(), config)
                                .unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
                        let key = cache_key(workload.name(), TIER.name(), config);
                        let bytes = fs::metadata(cache.path_for(workload.name(), &key))
                            .map_or(0, |m| m.len());
                        match outcome {
                            CacheOutcome::Hit => counts.hits.fetch_add(1, Ordering::Relaxed),
                            CacheOutcome::Generated(_) => {
                                counts.misses.fetch_add(1, Ordering::Relaxed)
                            }
                        };
                        (run, bytes)
                    });
                    assert!(runs[ai].set(run).is_ok(), "generation node ran twice");
                    spans::adopt(0);
                }));
                jobs.push(Box::new(move || {
                    spans::adopt(parent);
                    let run = runs[ai].get().expect("gang ran before its generation node");
                    let r = spans::span("experiments.gang", || {
                        retime_gang(run, union).unwrap_or_else(|| {
                            counts.gang_fallbacks.fetch_add(1, Ordering::Relaxed);
                            union.iter().map(|c| c.model.retime(run)).collect()
                        })
                    });
                    assert!(results[ai].set(r).is_ok(), "gang node ran twice");
                    spans::adopt(0);
                }));
            }
            run_dag_with_stats(&dag, jobs, workers).1
        });

        let runs: Vec<AppRun> = runs
            .into_iter()
            .map(|r| r.into_inner().expect("every generation node ran"))
            .collect();
        let results: Vec<Vec<ExecutionResult>> = results
            .into_iter()
            .map(|r| r.into_inner().expect("every gang node ran"))
            .collect();
        let text = spans::span("reports.render", || render(reports, &runs, &results));
        Warm {
            runs,
            results,
            text,
            stats,
        }
    }))
}

/// Re-times `cells` (all distinct) over `run` in one streamed pass, as
/// `experiments::retime_gang` does: a `GangCursor` over the run's
/// `ChunkReader`, one engine thread per cell, with a span around every
/// `next_chunk` of the reader (`trace.decode`) and of each member
/// (`trace.gang_fanout`). `None` when the run cannot stream or an
/// engine fails.
fn gang(run: &AppRun, cells: &[CellSpec]) -> Option<Vec<ExecutionResult>> {
    let mut source = run.gang_source()?;
    let decode = Timed {
        inner: source.as_mut(),
        name: "trace.decode",
    };
    let mut cursor = GangCursor::new(Box::new(decode), cells.len(), gang_max_lead());
    let members = cursor.members();
    let parent = spans::current();
    let results: Vec<Option<ExecutionResult>> = std::thread::scope(|s| {
        let handles: Vec<_> = cells
            .iter()
            .zip(members)
            .map(|(cell, mut member)| {
                s.spawn(move || {
                    spans::adopt(parent);
                    let engine = cell.model.build();
                    let mut fanout = Timed {
                        inner: &mut member,
                        name: "trace.gang_fanout",
                    };
                    let r = spans::span("experiments.cell", || {
                        engine.run_source(&run.program, &mut fanout)
                    });
                    r.ok()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("gang member panicked"))
            .collect()
    });
    results.into_iter().collect()
}

/// Runs each application's gang again through [`gang`], one
/// application at a time, and checks its results against the sweep's.
pub fn gang_insides(
    runs: &[AppRun],
    cells: &[CellSpec],
    gang_results: &[Vec<ExecutionResult>],
) -> Result<(), String> {
    for (run, expected) in runs.iter().zip(gang_results) {
        let got = spans::span("trace.gang_pass", || gang(run, cells))
            .ok_or_else(|| format!("{}: the composed gang did not complete", run.app))?;
        if got != *expected {
            return Err(format!(
                "{}: the composed gang and experiments::retime_gang disagree",
                run.app
            ));
        }
    }
    Ok(())
}

/// `lookahead`'s stdout for `figure3 figure4 summary`, rebuilt from the
/// per-application unique-cell results.
fn render(reports: &Reports, runs: &[AppRun], results: &[Vec<ExecutionResult>]) -> String {
    let mut out = String::new();
    for (ri, (name, cells)) in reports.specs.iter().enumerate() {
        let picked = |ai: usize| -> Vec<ExecutionResult> {
            reports.to_union[ri]
                .iter()
                .map(|&u| results[ai][u].clone())
                .collect()
        };
        match *name {
            "figure3" | "figure4" => {
                for (ai, run) in runs.iter().enumerate() {
                    let title = if *name == "figure3" {
                        format!(
                            "Figure 3 — {} (trace: {} instructions, processor {})",
                            run.app,
                            run.trace_len(),
                            run.proc
                        )
                    } else {
                        format!(
                            "Figure 4 — {} (bp = perfect branch prediction; \
                             bp+nd = also ignoring data dependences)",
                            run.app
                        )
                    };
                    let cols = columns_from_results(cells, &picked(ai));
                    let _ = writeln!(out, "{}", render_figure(&title, &cols));
                }
            }
            _ => {
                let matrix: Vec<Vec<f64>> =
                    (0..runs.len()).map(|ai| hidden_row(&picked(ai))).collect();
                out.push_str(&summary_text(runs, &matrix));
            }
        }
    }
    out
}

fn summary_text(runs: &[AppRun], matrix: &[Vec<f64>]) -> String {
    let mut header = vec!["Program".to_string()];
    header.extend(PAPER_WINDOWS.iter().map(|w| format!("W={w}")));
    let mut rows = vec![header];
    for (run, row) in runs.iter().zip(matrix) {
        let mut r = vec![run.app.clone()];
        r.extend(row.iter().map(|h| format!("{:.0}%", h * 100.0)));
        rows.push(r);
    }
    let mut avg = vec!["AVERAGE".to_string()];
    avg.extend((0..PAPER_WINDOWS.len()).map(|j| {
        let mean = matrix.iter().map(|row| row[j]).sum::<f64>() / runs.len().max(1) as f64;
        format!("{:.0}%", mean * 100.0)
    }));
    rows.push(avg);
    format!(
        "Percentage of read latency hidden (DS under RC vs BASE)\n{}\n\
         Paper (§7, 50-cycle latency): 33% at W=16, 63% at W=32, 81% at W=64.\n",
        render_table(&rows)
    )
}

/// Runs every cell alone over each run's materialized trace, one span
/// `core.<kind>` per engine pass counting the instructions it retired,
/// and checks each result against the gang's.
pub fn engines(
    runs: &[AppRun],
    cells: &[CellSpec],
    gang_results: &[Vec<ExecutionResult>],
) -> Result<(), String> {
    for (run, expected) in runs.iter().zip(gang_results) {
        let trace = spans::counted("trace.materialize", || {
            let t = run.trace();
            (t, t.len() as u64)
        });
        for (cell, want) in cells.iter().zip(expected) {
            let got = spans::counted(&format!("core.{}", cell.model.kind()), || {
                (
                    cell.model.build().run(&run.program, trace),
                    trace.len() as u64,
                )
            });
            if got != *want {
                return Err(format!(
                    "{} {}: engine alone and in the gang disagree",
                    run.app,
                    cell.model.kind()
                ));
            }
        }
    }
    Ok(())
}
