//! Gang-vs-per-cell equivalence: one streamed traversal fanned out to
//! every cell's engine must produce results identical to re-timing
//! each cell alone through `ModelSpec::retime`, whatever backs the run
//! and at any worker count — the in-process twin of the CI golden
//! compares on the driver output.

use lookahead_harness::experiments::{figure3_cells, retime_gang, retime_matrix, summary_cells};
use lookahead_harness::{load_or_generate, AppRun, TraceCache};
use lookahead_multiproc::SimConfig;
use lookahead_workloads::lu::Lu;

fn small_config() -> SimConfig {
    SimConfig {
        num_procs: 4,
        ..SimConfig::default()
    }
}

/// The three sources a gang reads: the chunk reader over a cache file
/// (a run loaded through a throwaway cache) or over an archive
/// generated in memory, and a slice over a trace materialized from its
/// archive. Returns the cache directory for the caller to remove.
fn runs_of_every_backing(tag: &str) -> ([AppRun; 3], std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("lktr-gang-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = TraceCache::new(dir.clone());
    let archived = || load_or_generate(Some(&cache), &Lu { n: 12 }, "small", &small_config());
    let (streamed, _) = archived().unwrap();
    let (materialized, _) = archived().unwrap();
    assert!(!materialized.trace().is_empty());
    let generated = AppRun::generate(&Lu { n: 12 }, &small_config()).unwrap();
    ([streamed, materialized, generated], dir)
}

#[test]
fn gang_matches_per_cell_at_any_worker_count() {
    let (runs, dir) = runs_of_every_backing("matrix");
    let runs: Vec<&AppRun> = runs.iter().collect();
    // figure3 cells plus the summary cells that repeat its RC sweep:
    // the union exercises dedup (summary rows canonicalize onto the
    // figure3 RC results) alongside every engine family.
    let mut specs = figure3_cells(&[16, 32]);
    specs.extend(summary_cells(&[16, 32]));
    let per_cell: Vec<Vec<_>> = runs
        .iter()
        .map(|run| specs.iter().map(|s| s.model.retime(run)).collect())
        .collect();
    for workers in [1, 2, 3] {
        assert_eq!(
            retime_matrix(&runs, &specs, workers),
            per_cell,
            "gang must reproduce per-cell results ({workers} workers)"
        );
    }
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn gang_direct_path_matches_and_memory_runs_fall_back() {
    let (runs, dir) = runs_of_every_backing("direct");
    let specs = summary_cells(&[16, 32]);
    // A run whose trace is materialized streams a slice of it, and the
    // others read their archive, in a file or in memory: the gang runs
    // over every source, and agrees.
    for run in &runs {
        let per_cell: Vec<_> = specs.iter().map(|s| s.model.retime(run)).collect();
        let gang = retime_gang(run, &specs).expect("every run backing streams a gang");
        assert_eq!(gang, per_cell);
    }
    let _ = std::fs::remove_dir_all(dir);
}
