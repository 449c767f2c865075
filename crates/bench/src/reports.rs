//! Every table and figure of the paper, rendered to a `String`.
//!
//! The `lookahead` driver prints these strings verbatim, one per
//! requested report; `tests/golden_all_reports.txt` pins every one of
//! them byte for byte. Reports that re-time the shared application
//! runs take `&[AppRun]` (the traces are generated once per process);
//! reports that need their own memory-system variants take a
//! [`Runner`] and go through its cache. Figure 3, Figure 4 and the
//! summary are rendered only by [`dag_sweep`], which merges their
//! cells into one gang per application. Other multi-cell sweeps
//! re-time each run's cells as one gang too, through
//! [`run_cell_specs`] or, across all runs at once, `retime_matrix`.

use crate::Runner;
use lookahead_core::base::Base;
use lookahead_core::consistency::MemOpKind;
use lookahead_core::contexts::Contexts;
use lookahead_core::ds::{Ds, DsConfig};
use lookahead_core::inorder::InOrder;
use lookahead_core::model::{ExecutionResult, ProcessorModel};
use lookahead_core::prefetch::{PrefetchConfig, StridePrefetcher};
use lookahead_core::ConsistencyModel;
use lookahead_harness::dag::{self, DagStats, TaskDag};
use lookahead_harness::experiments::{
    columns_from_results, figure3_cells, figure4_cells, hidden_row, miss_delay, rc_sweep_cells,
    retime_matrix, retime_run, run_cell_specs, summary_cells, table1, table2, table3, CellSpec,
    ModelSpec, PAPER_WINDOWS,
};
use lookahead_harness::format::{count_with_rate, render_figure, render_table};
use lookahead_harness::pipeline::AppRun;
use lookahead_isa::Program;
use lookahead_memsys::{CacheConfig, MemoryParams};
use lookahead_multiproc::{SimConfig, Simulator};
use lookahead_schedule::optimize_program;
use lookahead_trace::{Trace, TraceStats};
use lookahead_workloads::App;
use std::fmt::Write;
use std::sync::OnceLock;

/// **Figure 1**: the ordering restrictions each consistency model
/// places on accesses from the same processor.
pub fn figure1_report() -> String {
    let mut out = String::new();
    writeln!(out, "Figure 1 — ordering restrictions on memory accesses\n").unwrap();
    for model in ConsistencyModel::ALL {
        writeln!(out, "{}", model.rule_table()).unwrap();
    }

    // The figure's example: which of the numbered accesses
    //   1:W  2:R  3:acquire  4:R  5:W  6:release  7:R
    // may be overlapped (no must-wait edge) under each model?
    let seq = [
        (1, MemOpKind::Write),
        (2, MemOpKind::Read),
        (3, MemOpKind::Acquire),
        (4, MemOpKind::Read),
        (5, MemOpKind::Write),
        (6, MemOpKind::Release),
        (7, MemOpKind::Read),
    ];
    writeln!(
        out,
        "overlappable pairs in  1:W 2:R 3:acq 4:R 5:W 6:rel 7:R"
    )
    .unwrap();
    for model in ConsistencyModel::ALL {
        let mut free = Vec::new();
        for i in 0..seq.len() {
            for j in i + 1..seq.len() {
                if !model.must_wait_for(seq[i].1, seq[j].1) {
                    free.push(format!("{}-{}", seq[i].0, seq[j].0));
                }
            }
        }
        writeln!(
            out,
            "  {:<3} {}",
            model.abbrev(),
            if free.is_empty() {
                "none (fully serial)".to_string()
            } else {
                free.join(" ")
            }
        )
        .unwrap();
    }
    out
}

/// The heading of one application's block in Figure 3 or Figure 4.
fn figure_title(report: &str, run: &AppRun) -> String {
    if report == "figure3" {
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
    }
}

/// The rendered §7 summary for an already-computed hidden-latency
/// matrix (rows in `app_names` order, columns in `windows` order).
fn summary_text(app_names: &[&str], windows: &[usize], matrix: &[Vec<f64>]) -> String {
    let mut rows = vec![{
        let mut h = vec!["Program".to_string()];
        h.extend(windows.iter().map(|w| format!("W={w}")));
        h
    }];
    for (app, row) in app_names.iter().zip(matrix) {
        let mut r = vec![(*app).to_string()];
        r.extend(row.iter().map(|h| format!("{:.0}%", h * 100.0)));
        rows.push(r);
    }
    let mut avg = vec!["AVERAGE".to_string()];
    avg.extend((0..windows.len()).map(|j| {
        let mean = matrix.iter().map(|row| row[j]).sum::<f64>() / app_names.len().max(1) as f64;
        format!("{:.0}%", mean * 100.0)
    }));
    rows.push(avg);

    let mut out = String::new();
    writeln!(
        out,
        "Percentage of read latency hidden (DS under RC vs BASE)"
    )
    .unwrap();
    writeln!(out, "{}", render_table(&rows)).unwrap();
    writeln!(
        out,
        "Paper (§7, 50-cycle latency): 33% at W=16, 63% at W=32, 81% at W=64."
    )
    .unwrap();
    out
}

/// **Table 1**: statistics on data references.
pub fn table1_report(runs: &[AppRun], num_procs: usize) -> String {
    let mut rows = vec![vec![
        "Program".to_string(),
        "Busy Cycles".to_string(),
        "reads (/k)".to_string(),
        "writes (/k)".to_string(),
        "read misses (/k)".to_string(),
        "write misses (/k)".to_string(),
    ]];
    for run in runs {
        let t = table1(run);
        rows.push(vec![
            run.app.clone(),
            t.busy_cycles.to_string(),
            count_with_rate(t.reads, t.busy_cycles),
            count_with_rate(t.writes, t.busy_cycles),
            count_with_rate(t.read_misses, t.busy_cycles),
            count_with_rate(t.write_misses, t.busy_cycles),
        ]);
    }
    let mut out = String::new();
    writeln!(out, "Table 1 — Statistics on data references").unwrap();
    writeln!(out, "(single representative processor of {num_procs})").unwrap();
    writeln!(out, "{}", render_table(&rows)).unwrap();
    out
}

/// **Table 2**: statistics on synchronization, with the acquire
/// wait/access split of §4.1.2.
pub fn table2_report(runs: &[AppRun], num_procs: usize) -> String {
    let mut rows = vec![vec![
        "Program".to_string(),
        "locks".to_string(),
        "unlocks".to_string(),
        "wait event".to_string(),
        "set event".to_string(),
        "barriers".to_string(),
        "hidable acquire %".to_string(),
    ]];
    for run in runs {
        let t = table2(run);
        rows.push(vec![
            run.app.clone(),
            t.locks.to_string(),
            t.unlocks.to_string(),
            t.wait_events.to_string(),
            t.set_events.to_string(),
            t.barriers.to_string(),
            format!("{:.1}", t.hidable_acquire_fraction() * 100.0),
        ]);
    }
    let mut out = String::new();
    writeln!(out, "Table 2 — Statistics on synchronization").unwrap();
    writeln!(out, "(single representative processor of {num_procs})").unwrap();
    writeln!(out, "{}", render_table(&rows)).unwrap();
    writeln!(
        out,
        "The last column is the fraction of acquire overhead that is memory\n\
         access latency (hidable); the paper reports ~30% for PTHOR and\n\
         ~0% elsewhere (§4.1.2)."
    )
    .unwrap();
    out
}

/// **Table 3**: statistics on branch behaviour with the paper's BTB.
pub fn table3_report(runs: &[AppRun]) -> String {
    let mut rows = vec![vec![
        "Program".to_string(),
        "% of instructions".to_string(),
        "avg distance".to_string(),
        "% predicted".to_string(),
        "mispredict distance".to_string(),
    ]];
    for run in runs {
        let t = table3(run);
        rows.push(vec![
            run.app.clone(),
            format!("{:.1}%", t.branch_percent()),
            format!("{:.1}", t.avg_branch_distance()),
            format!("{:.1}%", t.predicted_percent().unwrap_or(100.0)),
            format!(
                "{:.1}",
                t.avg_mispredict_distance().unwrap_or(f64::INFINITY)
            ),
        ]);
    }
    let mut out = String::new();
    writeln!(
        out,
        "Table 3 — Statistics on branch behaviour (2048-entry 4-way BTB)"
    )
    .unwrap();
    writeln!(out, "{}", render_table(&rows)).unwrap();
    out
}

/// The §4.1.3 read-miss issue-delay diagnostic at DS-64/RC.
pub fn miss_delay_report(runs: &[AppRun]) -> String {
    let mut rows = vec![vec![
        "Program".to_string(),
        "read misses".to_string(),
        "mean delay".to_string(),
        "> 10 cycles".to_string(),
        "> 40 cycles".to_string(),
        "> 50 cycles".to_string(),
    ]];
    for run in runs {
        let d = miss_delay(run, 64);
        rows.push(vec![
            run.app.clone(),
            d.misses.to_string(),
            format!("{:.1}", d.mean),
            format!("{:.1}%", d.over_10 * 100.0),
            format!("{:.1}%", d.over_40 * 100.0),
            format!("{:.1}%", d.over_50 * 100.0),
        ]);
    }
    let mut out = String::new();
    writeln!(
        out,
        "Read-miss issue delay, decode to memory issue (DS-64, RC, perfect\n\
         branch prediction) — the paper's §4.1.3 dependence-chain diagnostic"
    )
    .unwrap();
    writeln!(out, "{}", render_table(&rows)).unwrap();
    out
}

/// The §4.2 multiple-issue study: 4-wide RC window sweep plus the
/// RC-over-SC speedup at window 128, single- and 4-wide. The speedup's
/// four cells ride in each run's gang (one archive pass per run), and
/// up to `workers` gangs run at once.
pub fn multi_issue_report(runs: &[AppRun], workers: usize) -> String {
    use ConsistencyModel::{Rc, Sc};
    let cells = rc_sweep_cells(&PAPER_WINDOWS, 4, "RCx4");
    // The paper also observes the RC:SC gain is larger 4-wide.
    let mut specs = cells.clone();
    specs.extend([(1, Sc), (1, Rc), (4, Sc), (4, Rc)].map(|(width, model)| {
        CellSpec::new(
            "DS.128",
            format!("{}x{width}", model.abbrev()),
            ModelSpec::Ds(DsConfig {
                issue_width: width,
                ..DsConfig::with_model(model).window(128)
            }),
        )
    }));
    let run_refs: Vec<&AppRun> = runs.iter().collect();
    let rows = retime_matrix(&run_refs, &specs, workers);
    let mut out = String::new();
    for (run, row) in runs.iter().zip(&rows) {
        let (sweep, gain) = row.split_at(cells.len());
        let cols = columns_from_results(&cells, sweep);
        writeln!(
            out,
            "{}",
            render_figure(&format!("{} — 4-wide issue under RC", run.app), &cols)
        )
        .unwrap();
        let t: Vec<f64> = gain.iter().map(|r| r.breakdown.total() as f64).collect();
        writeln!(
            out,
            "  RC speedup over SC at window 128: {:.2}x single-issue, {:.2}x 4-wide\n",
            t[0] / t[1],
            t[2] / t[3]
        )
        .unwrap();
    }
    out
}

/// The §6 SC/PC boosting study: non-binding prefetch and speculative
/// loads on the strict models, with RC as the ceiling. Each run's
/// seven DS-64 cells are one gang, and up to `workers` gangs run at
/// once.
pub fn sc_boost_report(runs: &[AppRun], workers: usize) -> String {
    use ConsistencyModel::{Pc, Rc, Sc};
    let variants = [
        ("SC", Sc, false, false),
        ("SC+pf", Sc, true, false),
        ("SC+spec", Sc, false, true),
        ("SC+both", Sc, true, true),
        ("PC", Pc, false, false),
        ("PC+both", Pc, true, true),
        ("RC", Rc, false, false),
    ];
    let cells: Vec<CellSpec> = variants
        .iter()
        .map(|&(name, model, pf, spec)| {
            CellSpec::new(
                "DS.64",
                name,
                ModelSpec::Ds(DsConfig {
                    nonbinding_prefetch: pf,
                    speculative_loads: spec,
                    ..DsConfig::with_model(model).window(64)
                }),
            )
        })
        .collect();
    let mut rows = vec![std::iter::once("Program")
        .chain(variants.iter().map(|v| v.0))
        .map(str::to_string)
        .collect::<Vec<_>>()];
    let run_refs: Vec<&AppRun> = runs.iter().collect();
    for (run, results) in runs.iter().zip(retime_matrix(&run_refs, &cells, workers)) {
        let base = run.base().breakdown;
        let mut row = vec![run.app.clone()];
        row.extend(
            results
                .iter()
                .map(|r| format!("{:.1}", r.breakdown.normalized_to(&base))),
        );
        rows.push(row);
    }
    let mut out = String::new();
    writeln!(
        out,
        "SC/PC boosting techniques of [Gharachorloo et al., ICPP'91] on the\n\
         DS-64 processor (execution time normalized to BASE = 100)"
    )
    .unwrap();
    writeln!(out, "{}", render_table(&rows)).unwrap();
    writeln!(
        out,
        "pf = non-binding prefetch for consistency-delayed loads;\n\
         spec = speculative load execution (best case: no rollbacks in\n\
         trace-driven re-timing). RC is the relaxed-model reference."
    )
    .unwrap();
    out
}

/// The §6 stride-prefetching conjecture: RPT coverage and its effect
/// on the blocking in-order processor.
pub fn prefetch_report(runs: &[AppRun]) -> String {
    let mut rows = vec![vec![
        "Program".to_string(),
        "misses covered".to_string(),
        "SSBR".to_string(),
        "SSBR+rpt".to_string(),
        "DS-64".to_string(),
    ]];
    for run in runs {
        let (covered_trace, stats) =
            StridePrefetcher::new(PrefetchConfig::default()).cover(run.trace());
        let base = run.base();
        let norm =
            |r: &ExecutionResult| format!("{:.1}", r.breakdown.normalized_to(&base.breakdown));
        let ssbr = InOrder::ssbr(ConsistencyModel::Rc);
        let plain = run.retime(&ssbr);
        let with_pf = ssbr.run(&run.program, &covered_trace);
        let ds = run.retime(&Ds::new(DsConfig::rc().window(64)));
        rows.push(vec![
            run.app.clone(),
            format!("{:.0}%", stats.coverage() * 100.0),
            norm(&plain),
            norm(&with_pf),
            norm(&ds),
        ]);
    }
    let mut out = String::new();
    writeln!(
        out,
        "Baer–Chen stride prefetching (512-entry RPT) vs dynamic scheduling\n\
         (execution time normalized to BASE = 100; the paper's §6 predicts\n\
         prefetching helps LU/OCEAN but not MP3D/PTHOR/LOCUS)"
    )
    .unwrap();
    writeln!(out, "{}", render_table(&rows)).unwrap();
    out
}

/// The §5 multiple-hardware-contexts comparison.
pub fn contexts_report(runs: &[AppRun]) -> String {
    let mut rows = vec![vec![
        "Program".to_string(),
        "MC x1".to_string(),
        "MC x2".to_string(),
        "MC x4".to_string(),
        "DS-16".to_string(),
        "DS-64".to_string(),
    ]];
    for run in runs {
        let base = run.base();
        // Multiple contexts: interleave k traces (starting from the
        // representative) and report per-context cost relative to the
        // representative's BASE time.
        let mc = |k: usize| {
            let picked: Vec<_> = (0..k)
                .map(|i| run.trace_for((run.proc + i) % run.num_procs()))
                .collect();
            let refs: Vec<&Trace> = picked.iter().map(|t| &**t).collect();
            let r = Contexts::default().run_traces(&refs);
            // Per-context cycles normalized to one BASE run.
            format!(
                "{:.1}",
                r.breakdown.total() as f64 / k as f64 * 100.0 / base.breakdown.total() as f64
            )
        };
        let ds = |w: usize| {
            let r = run.retime(&Ds::new(DsConfig::rc().window(w)));
            format!("{:.1}", r.breakdown.normalized_to(&base.breakdown))
        };
        rows.push(vec![run.app.clone(), mc(1), mc(2), mc(4), ds(16), ds(64)]);
    }
    let mut out = String::new();
    writeln!(
        out,
        "Multiple hardware contexts (blocked multithreading, 10-cycle switch)\n\
         vs dynamic scheduling; per-context execution time normalized to\n\
         BASE = 100 (lower is better)"
    )
    .unwrap();
    writeln!(out, "{}", render_table(&rows)).unwrap();
    out
}

/// The §4.2 100-cycle-latency study: the trace carries latencies, so
/// each penalty is a separate (cached) generation.
pub fn latency100_report(runner: &Runner) -> String {
    let mut out = String::new();
    for &app in runner.apps() {
        let workload = runner.tier().workload(app);
        for penalty in [50u32, 100] {
            let config = SimConfig {
                mem: MemoryParams::with_miss_penalty(penalty),
                ..*runner.config()
            };
            let run = runner.run_workload(workload.as_ref(), &config);
            let cols = run_cell_specs(&run, &rc_sweep_cells(&PAPER_WINDOWS, 1, "RC"));
            writeln!(
                out,
                "{}",
                render_figure(
                    &format!(
                        "{} — {}-cycle miss penalty (RC, DS sweep)",
                        run.app, penalty
                    ),
                    &cols
                )
            )
            .unwrap();
        }
    }
    out
}

/// The cache-associativity sensitivity check of §3.3's
/// communication-miss claim.
pub fn assoc_report(runner: &Runner) -> String {
    let mut rows = vec![vec![
        "Program".to_string(),
        "cache".to_string(),
        "ways".to_string(),
        "read misses".to_string(),
        "write misses".to_string(),
    ]];
    for app in [App::Lu, App::Mp3d] {
        let workload = runner.tier().workload(app);
        for (size, ways) in [(64 * 1024, 1), (64 * 1024, 4), (4 * 1024, 1), (4 * 1024, 4)] {
            let config = SimConfig {
                cache: CacheConfig {
                    size_bytes: size,
                    line_bytes: 16,
                    ways,
                },
                ..*runner.config()
            };
            let run = runner.run_workload(workload.as_ref(), &config);
            let stats = TraceStats::collect(run.trace(), None);
            rows.push(vec![
                run.app.clone(),
                format!("{}KB", size / 1024),
                ways.to_string(),
                stats.data.read_misses.to_string(),
                stats.data.write_misses.to_string(),
            ]);
        }
    }
    let mut out = String::new();
    writeln!(
        out,
        "Associativity sweep (representative processor's misses). At the\n\
         paper's 64KB, higher associativity changes little — misses are\n\
         communication, as §3.3 claims; at 4KB, conflicts appear and 4-way\n\
         removes a chunk of them."
    )
    .unwrap();
    writeln!(out, "{}", render_table(&rows)).unwrap();
    out
}

/// The §5 memory-bandwidth / contention caveat.
pub fn contention_report(runner: &Runner) -> String {
    let mut rows = vec![vec![
        "Program".to_string(),
        "bandwidth".to_string(),
        "BASE cycles".to_string(),
        "DS-64/RC".to_string(),
        "read hidden".to_string(),
    ]];
    for app in [App::Ocean, App::Mp3d] {
        let workload = runner.tier().workload(app);
        for bandwidth in [None, Some(8), Some(4), Some(2)] {
            let config = SimConfig {
                memory_bandwidth: bandwidth,
                ..*runner.config()
            };
            let run = runner.run_workload(workload.as_ref(), &config);
            let base = run.base();
            let ds = run.retime(&Ds::new(DsConfig::rc().window(64)));
            let hidden = ds
                .breakdown
                .read_latency_hidden_vs(&base.breakdown)
                .unwrap_or(1.0);
            rows.push(vec![
                run.app.clone(),
                bandwidth.map_or("inf".to_string(), |b| b.to_string()),
                base.cycles().to_string(),
                format!("{:.1}", ds.breakdown.normalized_to(&base.breakdown)),
                format!("{:.0}%", hidden * 100.0),
            ]);
        }
    }
    let mut out = String::new();
    writeln!(
        out,
        "Memory-bandwidth sensitivity (concurrent misses serviced across 16\n\
         processors; 'inf' = the paper's contention-free assumption)"
    )
    .unwrap();
    writeln!(out, "{}", render_table(&rows)).unwrap();
    writeln!(
        out,
        "As bandwidth drops, queueing inflates observed miss latencies:\n\
         BASE slows down and the 64-entry window covers a smaller share of\n\
         the (now longer) stalls — the direction of the paper's caveat."
    )
    .unwrap();
    out
}

/// The §7 compiler-rescheduling conjecture. Scheduled programs differ
/// from their workload's canonical program, so these runs bypass the
/// trace cache.
///
/// A program that fails to simulate or fails its workload's result
/// check exits the process with code 2, naming the application, which
/// program failed, the tier and the processor count (as
/// [`Runner::run_workload`] does for the canonical runs).
pub fn sched_report(runner: &Runner) -> String {
    fn trace_of(program: Program, which: &str, app: App, runner: &Runner) -> (Program, Trace) {
        let config = runner.config();
        let built = runner.tier().workload(app).build(config.num_procs);
        let out = crate::fail_fast(
            Simulator::new(program.clone(), built.image, *config)
                .and_then(Simulator::run)
                .map_err(|e| e.to_string())
                .and_then(|out| match (built.verify)(&out.final_memory) {
                    Ok(()) => Ok(out),
                    Err(e) => Err(format!("result verification failed: {e}")),
                })
                .map_err(|e| {
                    format!(
                        "{app} ({which} program) at tier {} with {} processors: {e}",
                        runner.tier().name(),
                        config.num_procs
                    )
                }),
        );
        let p = out.busiest_proc();
        (program, out.traces[p].clone())
    }

    let mut rows = vec![vec![
        "Program".to_string(),
        "hoist/unroll".to_string(),
        "SS".to_string(),
        "SS+sched".to_string(),
        "DS-16".to_string(),
        "DS-16+sched".to_string(),
        "DS-64".to_string(),
    ]];
    for &app in runner.apps() {
        let workload = runner.tier().workload(app);
        let original = workload.build(runner.config().num_procs).program;
        let (scheduled, stats, ustats) = optimize_program(&original, 4);
        let (orig_p, orig_t) = trace_of(original, "canonical", app, runner);
        let (sched_p, sched_t) = trace_of(scheduled, "compiler-scheduled", app, runner);
        let base = Base.run(&orig_p, &orig_t);
        let norm = |p: &Program, t: &Trace, m: &dyn ProcessorModel| {
            format!(
                "{:.1}",
                m.run(p, t).breakdown.normalized_to(&base.breakdown)
            )
        };
        let ss = InOrder::ss(ConsistencyModel::Rc);
        let ds16 = Ds::new(DsConfig::rc().window(16));
        let ds64 = Ds::new(DsConfig::rc().window(64));
        rows.push(vec![
            app.name().to_string(),
            format!("{}/{}", stats.loads_hoisted, ustats.loops_unrolled),
            norm(&orig_p, &orig_t, &ss),
            norm(&sched_p, &sched_t, &ss),
            norm(&orig_p, &orig_t, &ds16),
            norm(&sched_p, &sched_t, &ds16),
            norm(&orig_p, &orig_t, &ds64),
        ]);
        eprintln!(
            "  {} done ({} loads hoisted, {} loops unrolled, {} defs renamed)",
            app.name(),
            stats.loads_hoisted,
            ustats.loops_unrolled,
            stats.defs_renamed
        );
    }
    let mut out = String::new();
    writeln!(
        out,
        "Compiler load scheduling (RC-legal, basic-block) — the paper's §7\n\
         conjecture (execution time normalized to the unscheduled BASE = 100)"
    )
    .unwrap();
    writeln!(out, "{}", render_table(&rows)).unwrap();
    writeln!(
        out,
        "Pipeline: unroll x4 -> local register renaming -> per-block list\n\
         scheduling (loads first). All transformed programs re-verify\n\
         against the workload references before being timed."
    )
    .unwrap();
    out
}

/// The reports [`dag_sweep`] merges into one scheduled task graph.
pub const DAG_REPORTS: &[&str] = &["figure3", "figure4", "summary"];

/// Result of a merged DAG sweep: the generated runs (reusable by any
/// further report in the same process), the rendered report texts in
/// request order, and the scheduler's execution stats.
pub struct DagSweep {
    /// One generated (or cache-loaded) run per selected application.
    pub runs: Vec<AppRun>,
    /// `(report name, rendered text)` in the requested order, exactly
    /// as the driver prints them.
    pub texts: Vec<(String, String)>,
    /// What the DAG executor observed.
    pub stats: DagStats,
    /// Unique re-timing cells the gangs computed: applications times
    /// the merged reports' deduplicated cells.
    pub cells: usize,
}

/// Cost estimate for a cold generation node, calibrated from measured
/// cold-generation walls (PERFORMANCE.md § "The discrete-event
/// generation engine"; perfbench's `multiproc.simulate_s` row times
/// them today): generating a trace costs one to two orders of
/// magnitude more than the most expensive re-timing cell, so
/// generation nodes carry the critical path and are started first.
const COST_GENERATE: u64 = 600;

/// Runs the requested subset of [`DAG_REPORTS`] as **one** task graph:
/// per application a generation node (collapsed to near-zero cost when
/// the trace cache already holds it) feeding one *gang node*, which
/// computes the union of every merged report's unique cells off a
/// single streamed traversal ([`retime_run`]). Ready nodes execute in
/// upward-rank order, so app A's gang overlaps app B's still-running
/// generation instead of waiting behind a generate-everything barrier
/// — and there is no per-report barrier at all.
///
/// The merged reports repeat cells (every report starts with BASE, and
/// the summary rows repeat figure 3's RC sweep); the union computes
/// each once per app and shares its result.
///
/// A workload that fails to simulate or verify exits the process with
/// code 2 from its generation node (see [`Runner::run_workload`]).
///
/// # Panics
///
/// Panics if `wanted` contains a report outside [`DAG_REPORTS`].
pub fn dag_sweep(runner: &Runner, wanted: &[&str], workers: usize) -> DagSweep {
    let apps = runner.apps();
    let windows = &PAPER_WINDOWS;
    let report_specs: Vec<(&str, Vec<CellSpec>)> = wanted
        .iter()
        .map(|&name| {
            let specs = match name {
                "figure3" => figure3_cells(windows),
                "figure4" => figure4_cells(windows),
                "summary" => summary_cells(windows),
                other => panic!("{other} is not a DAG-merged report"),
            };
            (name, specs)
        })
        .collect();

    // The union of the merged reports' cells, deduplicated by model:
    // the gang node per application computes each unique cell exactly
    // once.
    let mut union: Vec<CellSpec> = Vec::new();
    let mut report_to_union: Vec<Vec<usize>> = Vec::new();
    for (_, specs) in &report_specs {
        let mut map = Vec::with_capacity(specs.len());
        for spec in specs {
            let u = match union.iter().position(|c| c.model == spec.model) {
                Some(u) => u,
                None => {
                    union.push(spec.clone());
                    union.len() - 1
                }
            };
            map.push(u);
        }
        report_to_union.push(map);
    }

    // Node 2·ai generates app ai; node 2·ai + 1 is its gang.
    let mut task_dag = TaskDag::new();
    let gang_cost = union.iter().map(|c| c.model.cost()).sum();
    for &app in apps {
        let gen = if runner.trace_cached(app) {
            task_dag.add_collapsed(&[])
        } else {
            task_dag.add_task_kind(COST_GENERATE, &[], "generate")
        };
        task_dag.add_task_kind(gang_cost, &[gen], "gang");
    }

    let gen_slots: Vec<OnceLock<AppRun>> = apps.iter().map(|_| OnceLock::new()).collect();
    let gang_slots: Vec<OnceLock<Vec<ExecutionResult>>> =
        apps.iter().map(|_| OnceLock::new()).collect();
    let jobs: Vec<Box<dyn FnOnce() + Send + '_>> = apps
        .iter()
        .enumerate()
        .flat_map(|(ai, &app)| -> [Box<dyn FnOnce() + Send + '_>; 2] {
            let (gen_slots, gang_slots, union) = (&gen_slots, &gang_slots, &union);
            [
                Box::new(move || {
                    assert!(
                        gen_slots[ai].set(runner.run_app(app)).is_ok(),
                        "generation node ran twice"
                    );
                }),
                Box::new(move || {
                    let run = gen_slots[ai]
                        .get()
                        .expect("scheduler ran a gang before its generation node");
                    let results = retime_run(run, union);
                    assert!(gang_slots[ai].set(results).is_ok(), "gang node ran twice");
                }),
            ]
        })
        .collect();
    let (_, stats) = dag::run_dag_with_stats(&task_dag, jobs, workers);

    let runs: Vec<AppRun> = gen_slots
        .into_iter()
        .map(|s| s.into_inner().expect("every generation node completed"))
        .collect();
    let gangs: Vec<Vec<ExecutionResult>> = gang_slots
        .into_iter()
        .map(|s| s.into_inner().expect("every gang node completed"))
        .collect();
    let results = |ai: usize, ri: usize| -> Vec<ExecutionResult> {
        report_to_union[ri]
            .iter()
            .map(|&u| gangs[ai][u].clone())
            .collect()
    };
    let texts = report_specs
        .iter()
        .enumerate()
        .map(|(ri, (name, specs))| {
            let text: String = if *name == "summary" {
                let matrix: Vec<Vec<f64>> = (0..runs.len())
                    .map(|ai| hidden_row(&results(ai, ri)))
                    .collect();
                let names: Vec<&str> = runs.iter().map(|r| r.app.as_str()).collect();
                summary_text(&names, windows, &matrix)
            } else {
                runs.iter()
                    .enumerate()
                    .map(|(ai, run)| {
                        let cols = columns_from_results(specs, &results(ai, ri));
                        format!("{}\n", render_figure(&figure_title(name, run), &cols))
                    })
                    .collect()
            };
            ((*name).to_string(), text)
        })
        .collect();
    DagSweep {
        cells: runs.len() * union.len(),
        runs,
        texts,
        stats,
    }
}
