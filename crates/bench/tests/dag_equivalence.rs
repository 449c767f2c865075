//! DAG sweep gate: the merged critical-path sweep must print the bytes
//! of `golden_small_tier.txt` on a cold cache and on a warm one (where
//! every generation node collapses), at any worker count and for any
//! subset of its reports.
//!
//! This is the in-process twin of the CI `dag-smoke` job's
//! `cmp dag.out crates/bench/tests/golden_small_tier.txt` check: if
//! the DAG scheduler ever reorders a mutation it shouldn't, shares a
//! cell it mustn't, or renders a report from the wrong result slot,
//! these assertions catch it before the driver golden does.

use lookahead_bench::{reports, Runner, SizeTier};
use lookahead_harness::cache::TraceCache;
use lookahead_multiproc::SimConfig;

/// `LOOKAHEAD_SMALL=1 lookahead figure3 figure4 summary --no-cache`.
const GOLDEN: &str = include_str!("golden_small_tier.txt");

fn concatenated(texts: &[(String, String)]) -> String {
    texts.iter().map(|(_, text)| text.as_str()).collect()
}

#[test]
fn dag_sweep_matches_flat_reports_cold() {
    let workers = 4;
    let dag_runner = Runner::new(SimConfig::default(), SizeTier::Small, None, workers);
    let sweep = reports::dag_sweep(&dag_runner, reports::DAG_REPORTS, workers);
    assert_eq!(sweep.runs.len(), dag_runner.apps().len());
    assert_eq!(
        sweep.stats.collapsed, 0,
        "cold sweep has nothing to collapse"
    );
    assert_eq!(concatenated(&sweep.texts), GOLDEN);
}

#[test]
fn dag_sweep_matches_flat_reports_warm_and_collapses_generation() {
    let workers = 4;
    let dir = std::env::temp_dir().join(format!("dag-equiv-{}", std::process::id()));
    let cache = || Some(TraceCache::new(dir.to_string_lossy().into_owned()));

    // Warm the cache, then sweep again: every generation node must be
    // collapsed (near-zero cost estimate) and the bytes unchanged.
    let warmup = Runner::new(SimConfig::default(), SizeTier::Small, cache(), workers);
    let cold = reports::dag_sweep(&warmup, reports::DAG_REPORTS, workers);
    let warm_runner = Runner::new(SimConfig::default(), SizeTier::Small, cache(), workers);
    let warm = reports::dag_sweep(&warm_runner, reports::DAG_REPORTS, workers);
    assert_eq!(
        warm.stats.collapsed,
        warm_runner.apps().len(),
        "every generation node should collapse on a warm cache"
    );
    assert!(warm.stats.critical_path < cold.stats.critical_path);
    assert_eq!(cold.texts, warm.texts);
    assert_eq!(concatenated(&warm.texts), GOLDEN);

    // With or without a cache, each app is one gang over the same
    // union of cells.
    let no_cache = Runner::new(SimConfig::default(), SizeTier::Small, None, workers);
    let uncached = reports::dag_sweep(&no_cache, reports::DAG_REPORTS, workers);
    assert_eq!(uncached.cells, warm.cells);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dag_sweep_serial_matches_parallel() {
    let serial = reports::dag_sweep(
        &Runner::new(SimConfig::default(), SizeTier::Small, None, 1),
        reports::DAG_REPORTS,
        1,
    );
    let parallel = reports::dag_sweep(
        &Runner::new(SimConfig::default(), SizeTier::Small, None, 8),
        reports::DAG_REPORTS,
        8,
    );
    assert_eq!(serial.texts, parallel.texts);
    assert_eq!(serial.cells, parallel.cells);
}

#[test]
fn dag_sweep_subset_respects_request_order() {
    let runner = Runner::new(SimConfig::default(), SizeTier::Small, None, 2);
    let sweep = reports::dag_sweep(&runner, &["summary", "figure3"], 2);
    let names: Vec<&str> = sweep.texts.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, ["summary", "figure3"]);
}
