//! Steps 4–5: re-time a generated trace under every configuration a
//! table or figure of the paper needs.
//!
//! Every sweep here is assembled from independent *cells* — one
//! deterministic processor-model simulation each — and re-timed as a
//! gang by [`retime_run`]: one streamed traversal of the run's trace
//! feeds every unique cell's engine. A sweep over several runs is one
//! gang node per run on the [`dag`] executor. Results are collected in
//! spec order, so the output is byte-for-byte identical whether the
//! executor has one worker (`LOOKAHEAD_JOBS=1`) or one per core.

use crate::dag::{self, TaskDag};
use crate::pipeline::{AppRun, PipelineError};
use lookahead_core::base::Base;
use lookahead_core::ds::{Ds, DsConfig};
use lookahead_core::inorder::InOrder;
use lookahead_core::model::{ExecutionResult, ProcessorModel};
use lookahead_core::{Btb, BtbConfig, ConsistencyModel};
use lookahead_memsys::MemoryParams;
use lookahead_multiproc::SimConfig;
use lookahead_obs::span;
use lookahead_trace::{
    BranchStats, Breakdown, DataRefStats, GangCursor, StreamError, SyncStats, TraceStats,
};
use lookahead_workloads::Workload;

/// The window sizes of the paper's sweeps.
pub const PAPER_WINDOWS: [usize; 5] = [16, 32, 64, 128, 256];

/// How many chunks the fastest gang member may run ahead of the
/// slowest before it blocks. Bounds a gang's shared-ring memory to
/// `GANG_MAX_LEAD` decoded chunks (each engine's own lookback window
/// may additionally retain chunks it has already consumed). A deeper
/// ring lets members run longer between blocking handoffs — on few
/// cores that means fewer condvar round-trips per traversal — at the
/// price of a few hundred KiB of extra decoded columns in flight.
const GANG_MAX_LEAD: usize = 8;

/// One stacked bar of Figure 3, Figure 4 or the latency/issue-width
/// variants.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure3Column {
    /// Column label as in the figure ("BASE", "SSBR", "DS.64", ...).
    pub label: String,
    /// Consistency model group ("" for BASE).
    pub model: String,
    /// The cycle breakdown.
    pub breakdown: Breakdown,
    /// Execution time normalized to BASE = 100.
    pub normalized: f64,
}

fn column(label: &str, model: &str, result: &ExecutionResult, base: &Breakdown) -> Figure3Column {
    Figure3Column {
        label: label.to_string(),
        model: model.to_string(),
        breakdown: result.breakdown,
        normalized: result.breakdown.normalized_to(base),
    }
}

/// The processor model one sweep cell re-times a run under. `Copy`
/// (every variant is plain configuration), so cells can be enumerated
/// once and shipped to any gang.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ModelSpec {
    /// The BASE in-order reference processor.
    Base,
    /// In-order with store buffer and blocking reads.
    Ssbr(ConsistencyModel),
    /// In-order with store buffer and non-blocking reads.
    Ss(ConsistencyModel),
    /// The dynamically-scheduled processor.
    Ds(DsConfig),
}

impl ModelSpec {
    /// Runs this model over the run's representative trace; BASE is
    /// the run's memoized reference ([`AppRun::base`]).
    #[must_use]
    pub fn retime(&self, run: &AppRun) -> ExecutionResult {
        match *self {
            ModelSpec::Base => run.base().clone(),
            ModelSpec::Ssbr(model) => run.retime(&InOrder::ssbr(model)),
            ModelSpec::Ss(model) => run.retime(&InOrder::ss(model)),
            ModelSpec::Ds(config) => run.retime(&Ds::new(config)),
        }
    }

    /// Coarse cost estimate of one cell, calibrated from measured
    /// per-cell re-timing times: the in-order models cost about the
    /// same per cell, and a DS cell costs more with a larger window.
    /// A gang node's DAG cost is the sum over its unique cells. The DS
    /// engine's per-cycle work no longer walks the in-flight memory
    /// operations, so the measured growth with window size is much
    /// flatter than this slope; the constants are kept because they set
    /// the DAG's planned shape.
    #[must_use]
    pub fn cost(&self) -> u64 {
        match *self {
            ModelSpec::Base => 4,
            ModelSpec::Ssbr(_) | ModelSpec::Ss(_) => 5,
            ModelSpec::Ds(config) => 6 + config.window_size as u64 / 16,
        }
    }

    /// The engine label of this cell (`BASE`, `SSBR`, `SS`, `DS.64`):
    /// the consistency model and ablation flags are left out, since
    /// engine type and window size dominate a cell's runtime. Names
    /// the cell in diagnostics and per-model measurements.
    #[must_use]
    pub fn kind(&self) -> String {
        match *self {
            ModelSpec::Base => "BASE".to_string(),
            ModelSpec::Ssbr(_) => "SSBR".to_string(),
            ModelSpec::Ss(_) => "SS".to_string(),
            ModelSpec::Ds(config) => format!("DS.{}", config.window_size),
        }
    }

    /// Boxes the processor model this spec describes: a gang runs one
    /// owned engine per unique spec on its own thread.
    #[must_use]
    pub fn build(&self) -> Box<dyn ProcessorModel + Send> {
        match *self {
            ModelSpec::Base => Box::new(Base),
            ModelSpec::Ssbr(model) => Box::new(InOrder::ssbr(model)),
            ModelSpec::Ss(model) => Box::new(InOrder::ss(model)),
            ModelSpec::Ds(config) => Box::new(Ds::new(config)),
        }
    }
}

/// One labelled cell of a sweep: which model, under which figure
/// label and group. Every report is enumerated as a `Vec<CellSpec>`
/// (the first cell is always the BASE reference the others are
/// normalized to), so the driver and the serve endpoints run literally
/// the same cells.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Column label as in the figure ("BASE", "SSBR", "DS.64", ...).
    pub label: String,
    /// Consistency model group ("" for BASE).
    pub group: String,
    /// The model to re-time under.
    pub model: ModelSpec,
}

impl CellSpec {
    /// A cell re-timing `model`, shown as `label` under `group`.
    pub fn new(label: impl Into<String>, group: impl Into<String>, model: ModelSpec) -> CellSpec {
        CellSpec {
            label: label.into(),
            group: group.into(),
            model,
        }
    }
}

/// The BASE reference cell every sweep starts with.
fn base_cell() -> CellSpec {
    CellSpec::new("BASE", "", ModelSpec::Base)
}

/// The shared cell-enumeration helper all sweep builders are phrased
/// in: one `DS.{w}` cell per window under `group`.
fn push_ds_sweep(
    cells: &mut Vec<CellSpec>,
    group: &str,
    windows: &[usize],
    config: impl Fn(usize) -> DsConfig,
) {
    for &w in windows {
        cells.push(CellSpec::new(
            format!("DS.{w}"),
            group,
            ModelSpec::Ds(config(w)),
        ));
    }
}

/// The cells of Figure 3: BASE, then {SSBR, SS, DS} under SC, PC and
/// RC, with the full window sweep under RC.
#[must_use]
pub fn figure3_cells(windows: &[usize]) -> Vec<CellSpec> {
    let mut cells = vec![base_cell()];
    for model in ConsistencyModel::EVALUATED {
        let group = model.abbrev();
        cells.push(CellSpec::new("SSBR", group, ModelSpec::Ssbr(model)));
        cells.push(CellSpec::new("SS", group, ModelSpec::Ss(model)));
        let ds_windows: &[usize] = if model == ConsistencyModel::Rc {
            windows
        } else {
            &[256]
        };
        push_ds_sweep(&mut cells, group, ds_windows, |w| {
            DsConfig::with_model(model).window(w)
        });
    }
    cells
}

/// The cells of Figure 4: BASE, then the perfect-branch-prediction and
/// ignored-data-dependence ablations across the window sweep.
#[must_use]
pub fn figure4_cells(windows: &[usize]) -> Vec<CellSpec> {
    let mut cells = vec![base_cell()];
    for (suffix, nodep) in [("bp", false), ("bp+nd", true)] {
        push_ds_sweep(&mut cells, suffix, windows, |w| DsConfig {
            perfect_branch_prediction: true,
            ignore_data_dependences: nodep,
            ..DsConfig::rc().window(w)
        });
    }
    cells
}

/// The cells of an RC DS window sweep at a given issue width: BASE
/// plus one DS cell per window.
#[must_use]
pub fn rc_sweep_cells(windows: &[usize], issue_width: usize, group: &str) -> Vec<CellSpec> {
    let mut cells = vec![base_cell()];
    push_ds_sweep(&mut cells, group, windows, |w| DsConfig {
        issue_width,
        ..DsConfig::rc().window(w)
    });
    cells
}

/// The cells behind one row of the §7 summary matrix: BASE plus the
/// single-issue RC DS sweep.
#[must_use]
pub fn summary_cells(windows: &[usize]) -> Vec<CellSpec> {
    rc_sweep_cells(windows, 1, "RC")
}

/// The DAG cost of a gang node: the unique cells run concurrently off
/// one traversal, but they still occupy the node's worker for about
/// the sum of their individual costs worth of work.
fn gang_cost(specs: &[CellSpec]) -> u64 {
    let mut uniq: Vec<ModelSpec> = Vec::new();
    let mut total = 0;
    for spec in specs {
        if !uniq.contains(&spec.model) {
            uniq.push(spec.model);
            total += spec.model.cost();
        }
    }
    total
}

/// [`retime_gang`], failing with the first source error when the
/// run's archive can no longer be read.
fn try_retime_gang(run: &AppRun, specs: &[CellSpec]) -> Result<Vec<ExecutionResult>, StreamError> {
    if specs.is_empty() {
        return Ok(Vec::new());
    }
    let mut uniq: Vec<ModelSpec> = Vec::new();
    let mut canon: Vec<usize> = Vec::with_capacity(specs.len());
    for spec in specs {
        match uniq.iter().position(|m| *m == spec.model) {
            Some(u) => canon.push(u),
            None => {
                uniq.push(spec.model);
                canon.push(uniq.len() - 1);
            }
        }
    }
    let source = run.source()?;
    let mut gang = GangCursor::new(source, uniq.len(), GANG_MAX_LEAD);
    let members = gang.members();
    let scope_in = span::current_scope();
    let unique_results = std::thread::scope(|s| {
        let engines: Vec<_> = uniq
            .iter()
            .zip(members)
            .map(|(model, mut member)| {
                let scope_in = scope_in.clone();
                s.spawn(move || {
                    // Adopt the submitter's trace scope so per-cell spans
                    // join the request's tree (as the DAG workers do).
                    span::set_scope(scope_in);
                    let engine = model.build();
                    let out = span::record_current("retime.cell", || {
                        engine.run_source(&run.program, &mut member)
                    });
                    span::set_scope(None);
                    out
                })
            })
            .collect();
        engines
            .into_iter()
            .map(|engine| engine.join().expect("a gang engine panicked"))
            .collect::<Result<Vec<_>, _>>()
    })?;
    Ok(canon.iter().map(|&u| unique_results[u].clone()).collect())
}

/// Re-times every spec over `run` in **one streamed pass**: identical
/// specs are deduplicated (a sweep's summary row repeats figure 3's RC
/// cells), one engine thread runs per unique spec, and a
/// [`GangCursor`] fans each decoded chunk out to all of them. Returns
/// `None` only when the run's archive can no longer be read, where
/// [`retime_run`] panics instead.
pub fn retime_gang(run: &AppRun, specs: &[CellSpec]) -> Option<Vec<ExecutionResult>> {
    try_retime_gang(run, specs).ok()
}

/// Re-times every spec over `run` as one gang ([`retime_gang`]),
/// returning results in spec order. Every sweep reaches the engines
/// through here.
///
/// # Panics
///
/// Panics if the run's archive (validated at load time) can no longer
/// be read, naming the archive, as [`AppRun::retime`] does.
pub fn retime_run(run: &AppRun, specs: &[CellSpec]) -> Vec<ExecutionResult> {
    run.expect_readable(try_retime_gang(run, specs))
}

/// Re-times the same cell list over several runs in one DAG pass;
/// returns one result row per run, each in spec order. Each run is one
/// gang node (one archive pass), and the nodes share a single
/// rank-ordered ready heap on up to `workers` threads.
#[must_use]
pub fn retime_matrix(
    runs: &[&AppRun],
    specs: &[CellSpec],
    workers: usize,
) -> Vec<Vec<ExecutionResult>> {
    let jobs: Vec<_> = runs
        .iter()
        .map(|&run| move || retime_run(run, specs))
        .collect();
    let mut dag = TaskDag::new();
    for _ in runs {
        dag.add_task(gang_cost(specs), &[]);
    }
    dag::run_dag(&dag, jobs, workers)
}

/// Normalizes spec-ordered results to the first (BASE) cell, yielding
/// the figure columns. Shared by every execution path — the driver's
/// reports and serve's bodies — so their rendered output is
/// byte-identical by construction.
#[must_use]
pub fn columns_from_results(specs: &[CellSpec], results: &[ExecutionResult]) -> Vec<Figure3Column> {
    let base = results[0].breakdown;
    specs
        .iter()
        .zip(results)
        .map(|(spec, r)| column(&spec.label, &spec.group, r, &base))
        .collect()
}

/// Runs one sweep's cells over `run` as one gang and normalizes to
/// BASE: the one per-run call every report, example and test makes.
#[must_use]
pub fn run_cell_specs(run: &AppRun, specs: &[CellSpec]) -> Vec<Figure3Column> {
    columns_from_results(specs, &retime_run(run, specs))
}

/// Table 1: data-reference statistics of the representative trace.
pub fn table1(run: &AppRun) -> DataRefStats {
    TraceStats::collect(run.trace(), None).data
}

/// Table 2: synchronization statistics of the representative trace.
pub fn table2(run: &AppRun) -> SyncStats {
    TraceStats::collect(run.trace(), None).sync
}

/// Table 3: branch statistics, scored with the paper's 2048-entry
/// 4-way BTB.
pub fn table3(run: &AppRun) -> BranchStats {
    let mut btb = Btb::new(BtbConfig::PAPER);
    TraceStats::collect(run.trace(), Some(&mut btb)).branch
}

/// The fraction of BASE's read-stall time hidden by `DS-window` under
/// RC — the paper's headline metric (§7: on average 33% at window 16,
/// 63% at 32, 81% at 64 with 50-cycle latency).
pub fn read_latency_hidden(run: &AppRun, window: usize) -> f64 {
    let base = run.base();
    let ds = run.retime(&Ds::new(DsConfig::rc().window(window)));
    ds.breakdown
        .read_latency_hidden_vs(&base.breakdown)
        .unwrap_or(1.0)
}

/// One summary-matrix row from spec-ordered results (`BASE` first,
/// then one DS cell per window): the fraction of BASE's read latency
/// each DS cell hides. Shared by the driver's DAG sweep and serve so
/// the rendered summaries agree to the byte.
#[must_use]
pub fn hidden_row(results: &[ExecutionResult]) -> Vec<f64> {
    let base = results[0].breakdown;
    results[1..]
        .iter()
        .map(|ds| ds.breakdown.read_latency_hidden_vs(&base).unwrap_or(1.0))
        .collect()
}

/// §4.1.3's read-miss issue-delay diagnostic for `DS-window` under RC
/// with perfect branch prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct MissDelayReport {
    /// Number of read misses observed.
    pub misses: usize,
    /// Fraction delayed more than 10 cycles from decode to issue.
    pub over_10: f64,
    /// Fraction delayed more than 40 cycles.
    pub over_40: f64,
    /// Fraction delayed more than 50 cycles.
    pub over_50: f64,
    /// Mean delay in cycles.
    pub mean: f64,
}

/// Measures how long read misses sit in the window before issuing —
/// long delays indicate dependence chains (§4.1.3).
pub fn miss_delay(run: &AppRun, window: usize) -> MissDelayReport {
    let ds = Ds::new(DsConfig {
        perfect_branch_prediction: true,
        ..DsConfig::rc().window(window)
    });
    let r = run.retime(&ds);
    let delays = &r.stats.read_miss_issue_delays;
    let n = delays.len();
    let frac = |t: u32| {
        if n == 0 {
            0.0
        } else {
            delays.iter().filter(|&&d| d > t).count() as f64 / n as f64
        }
    };
    MissDelayReport {
        misses: n,
        over_10: frac(10),
        over_40: frac(40),
        over_50: frac(50),
        mean: if n == 0 {
            0.0
        } else {
            delays.iter().map(|&d| d as f64).sum::<f64>() / n as f64
        },
    }
}

/// §4.2 latency study: regenerates the trace with a different miss
/// penalty (the trace carries latencies, so it must be regenerated)
/// and runs the RC window sweep.
///
/// # Errors
///
/// Propagates pipeline failures.
pub fn latency_sweep(
    workload: &dyn Workload,
    config: &SimConfig,
    miss_penalty: u32,
    windows: &[usize],
) -> Result<(AppRun, Vec<Figure3Column>), PipelineError> {
    let config = SimConfig {
        mem: MemoryParams::with_miss_penalty(miss_penalty),
        ..*config
    };
    let run = AppRun::generate(workload, &config)?;
    let cols = run_cell_specs(&run, &rc_sweep_cells(windows, 1, "RC"));
    Ok((run, cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookahead_workloads::lu::Lu;

    fn small_run() -> AppRun {
        let config = SimConfig {
            num_procs: 4,
            ..SimConfig::default()
        };
        AppRun::generate(&Lu { n: 12 }, &config).unwrap()
    }

    #[test]
    fn figure3_has_expected_columns() {
        let run = small_run();
        let cols = run_cell_specs(&run, &figure3_cells(&[16, 64]));
        // BASE + 3 models * (SSBR + SS) + SC:1 + PC:1 + RC:2 windows.
        assert_eq!(cols.len(), 1 + 3 * 2 + 1 + 1 + 2);
        assert_eq!(cols[0].label, "BASE");
        assert!((cols[0].normalized - 100.0).abs() < 1e-9);
        // Every column at or below BASE (overlap never hurts).
        for c in &cols {
            assert!(
                c.normalized <= 100.5,
                "{}/{} above BASE: {}",
                c.model,
                c.label,
                c.normalized
            );
        }
    }

    #[test]
    fn rc_ds_improves_with_window_size() {
        let run = small_run();
        let cols = run_cell_specs(&run, &figure3_cells(&[16, 256]));
        let rc16 = cols
            .iter()
            .find(|c| c.model == "RC" && c.label == "DS.16")
            .unwrap();
        let rc256 = cols
            .iter()
            .find(|c| c.model == "RC" && c.label == "DS.256")
            .unwrap();
        assert!(rc256.normalized <= rc16.normalized + 1e-9);
    }

    #[test]
    fn figure4_ablations_only_help() {
        let run = small_run();
        let f3 = run_cell_specs(&run, &figure3_cells(&[64]));
        let real = f3
            .iter()
            .find(|c| c.model == "RC" && c.label == "DS.64")
            .unwrap()
            .normalized;
        let f4 = run_cell_specs(&run, &figure4_cells(&[64]));
        let bp = f4
            .iter()
            .find(|c| c.model == "bp" && c.label == "DS.64")
            .unwrap();
        let nd = f4
            .iter()
            .find(|c| c.model == "bp+nd" && c.label == "DS.64")
            .unwrap();
        assert!(bp.normalized <= real + 1e-9);
        assert!(nd.normalized <= bp.normalized + 1e-9);
    }

    #[test]
    fn tables_report_activity() {
        let run = small_run();
        let t1 = table1(&run);
        assert!(t1.reads > 0 && t1.writes > 0);
        let t2 = table2(&run);
        assert!(t2.wait_events + t2.set_events > 0, "LU uses events");
        let t3 = table3(&run);
        assert!(t3.branches > 0);
        assert!(t3.predicted_percent().unwrap() > 50.0);
    }

    #[test]
    fn hidden_read_latency_grows_with_window() {
        let run = small_run();
        let h16 = read_latency_hidden(&run, 16);
        let h64 = read_latency_hidden(&run, 64);
        assert!(h64 >= h16 - 1e-9, "h16={h16} h64={h64}");
        let rows = retime_matrix(&[&run], &summary_cells(&[16, 64]), 1);
        let row = hidden_row(&rows[0]);
        assert_eq!(row.len(), 2);
        assert!((row[0] - h16).abs() < 1e-9);
    }

    #[test]
    fn miss_delay_reports_fractions() {
        let run = small_run();
        let d = miss_delay(&run, 64);
        assert!(d.misses > 0);
        assert!(d.over_40 <= d.over_10 + 1e-12);
        assert!(d.over_50 <= d.over_40 + 1e-12);
    }

    #[test]
    fn multi_issue_beats_single_issue() {
        let run = small_run();
        let single = run_cell_specs(&run, &figure3_cells(&[64]));
        let s64 = single
            .iter()
            .find(|c| c.model == "RC" && c.label == "DS.64")
            .unwrap()
            .normalized;
        let multi = run_cell_specs(&run, &rc_sweep_cells(&[64], 4, "RCx4"));
        let m64 = multi
            .iter()
            .find(|c| c.label == "DS.64")
            .unwrap()
            .normalized;
        assert!(m64 <= s64 + 1e-9, "4-wide {m64} vs 1-wide {s64}");
    }

    #[test]
    fn latency_sweep_regenerates_at_new_penalty() {
        let config = SimConfig {
            num_procs: 4,
            ..SimConfig::default()
        };
        let (run, cols) = latency_sweep(&Lu { n: 12 }, &config, 100, &[64]).unwrap();
        // Misses now cost 100 cycles; the trace must reflect it.
        let has_100 = run
            .trace()
            .iter()
            .filter_map(|e| e.mem_access())
            .any(|m| m.latency == 100);
        assert!(has_100);
        assert_eq!(cols.len(), 2);
    }
}
