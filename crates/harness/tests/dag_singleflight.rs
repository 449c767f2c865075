//! Single-flight × DAG scheduler: N concurrent identical **cold**
//! sweeps must run the expensive trace generation exactly once, share
//! the memoized run (`Arc`-identical), and every sweep's DAG-scheduled
//! re-timing must produce identical columns. This is the contract the
//! experiment service relies on when several clients ask for the same
//! figure at once and each request body is rendered through the DAG
//! path.

use lookahead_harness::experiments::{
    figure3_cells, run_cell_specs, run_cell_specs_with_stats, Figure3Column,
};
use lookahead_harness::{AppRun, SharedRuns};
use lookahead_multiproc::SimConfig;
use lookahead_workloads::lu::Lu;
use std::sync::{Arc, Barrier};

fn small_config() -> SimConfig {
    SimConfig {
        num_procs: 4,
        ..SimConfig::default()
    }
}

const WINDOWS: [usize; 2] = [64, 256];

#[test]
fn concurrent_dag_sweeps_share_one_generation() {
    let threads = 4;
    let runs = SharedRuns::new(None);
    let barrier = Barrier::new(threads);
    let config = small_config();

    let sweeps: Vec<(Arc<AppRun>, Vec<Figure3Column>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    let run = runs.get(&Lu { n: 12 }, "small", &config).unwrap();
                    let (cols, _) = run_cell_specs_with_stats(&run, &figure3_cells(&WINDOWS));
                    (run, cols)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let stats = runs.stats();
    assert_eq!(
        stats.generations, 1,
        "N concurrent cold sweeps must generate exactly once: {stats:?}"
    );
    assert_eq!(
        stats.coalesced + stats.memo_hits,
        threads as u64 - 1,
        "every other sweep must coalesce onto the leader or hit the memo: {stats:?}"
    );
    for (run, cols) in &sweeps[1..] {
        assert!(
            Arc::ptr_eq(&sweeps[0].0, run),
            "all sweeps must share the memoized run"
        );
        assert_eq!(
            &sweeps[0].1, cols,
            "DAG-scheduled columns must be identical"
        );
    }

    // And the DAG schedule changes nothing about the numbers: a plain
    // gang over the same shared run agrees column for column.
    let plain = run_cell_specs(&sweeps[0].0, &figure3_cells(&WINDOWS));
    assert_eq!(plain, sweeps[0].1);
    assert_eq!(
        runs.stats().generations,
        1,
        "re-timing must never trigger another generation"
    );
}
