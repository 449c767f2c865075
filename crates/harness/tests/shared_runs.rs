//! Integration tests for [`SharedRuns`]: the concurrency contract the
//! experiment service is built on.
//!
//! Pinned here: **two threads requesting the same cold key run exactly
//! one generation and observe identical bytes** (literally the same
//! `Arc`), whether or not an on-disk cache sits underneath.

use lookahead_harness::{SharedRuns, TraceCache};
use lookahead_multiproc::SimConfig;
use lookahead_workloads::lu::Lu;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};

fn small_config() -> SimConfig {
    SimConfig {
        num_procs: 4,
        ..SimConfig::default()
    }
}

/// Removes its directory when dropped, so a test leaves nothing behind
/// in the system temp dir even if it fails.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A fresh, empty cache directory under the system temp dir, and the
/// guard that removes it.
fn temp_cache(tag: &str) -> (TempDir, TraceCache) {
    let dir = std::env::temp_dir().join(format!("lktr-shared-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (TempDir(dir.clone()), TraceCache::new(dir))
}

fn concurrent_cold_requests(
    runs: &SharedRuns,
    threads: usize,
) -> Vec<Arc<lookahead_harness::AppRun>> {
    let barrier = Barrier::new(threads);
    let config = small_config();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                s.spawn(|| {
                    barrier.wait();
                    runs.get(&Lu { n: 12 }, "small", &config).unwrap()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

#[test]
fn two_threads_same_cold_key_one_generation_identical_bytes() {
    let runs = SharedRuns::new(None);
    let results = concurrent_cold_requests(&runs, 2);

    let stats = runs.stats();
    assert_eq!(stats.generations, 1, "cold key must generate exactly once");
    assert_eq!(stats.disk_hits, 0);
    assert_eq!(
        stats.coalesced + stats.memo_hits,
        1,
        "the second request must coalesce or hit the memo: {stats:?}"
    );
    // Identical bytes, in the strongest possible sense.
    assert!(Arc::ptr_eq(&results[0], &results[1]));
}

#[test]
fn many_threads_with_disk_cache_still_one_generation() {
    let (_dir, cache) = temp_cache("many");
    let runs = SharedRuns::new(Some(cache));
    assert!(runs.disk_cache_enabled());
    let results = concurrent_cold_requests(&runs, 8);

    let stats = runs.stats();
    assert_eq!(stats.generations, 1, "{stats:?}");
    assert_eq!(stats.disk_hits, 0, "cold cache cannot hit: {stats:?}");
    assert_eq!(stats.coalesced + stats.memo_hits, 7, "{stats:?}");
    for r in &results[1..] {
        assert!(Arc::ptr_eq(&results[0], r));
    }

    // A later request is a pure in-memory memo hit — the disk cache is
    // not even consulted once the run is resident.
    let before = runs.stats();
    let again = runs.get(&Lu { n: 12 }, "small", &small_config()).unwrap();
    assert!(Arc::ptr_eq(&results[0], &again));
    let after = runs.stats();
    assert_eq!(after.generations, 1);
    assert_eq!(after.memo_hits, before.memo_hits + 1);
    assert_eq!(after.disk_hits, 0);
}

#[test]
fn distinct_keys_generate_independently() {
    // Keys are (app, tier, config) — the tier implies the problem
    // size, so the same workload under two tier labels is two keys.
    let runs = SharedRuns::new(None);
    let config = small_config();
    let a = runs.get(&Lu { n: 12 }, "small", &config).unwrap();
    let b = runs.get(&Lu { n: 12 }, "tiny", &config).unwrap();
    assert!(!Arc::ptr_eq(&a, &b));
    let stats = runs.stats();
    assert_eq!(stats.generations, 2);

    // A second process-lifetime request for either is memoized.
    let a2 = runs.get(&Lu { n: 12 }, "small", &config).unwrap();
    assert!(Arc::ptr_eq(&a, &a2));
    assert_eq!(runs.stats().memo_hits, 1);
}
