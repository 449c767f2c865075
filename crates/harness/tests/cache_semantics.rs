//! Integration tests for the content-addressed trace cache.
//!
//! The contract under test: a cache hit returns *exactly* the
//! `AppRun` that was stored; any configuration change produces a
//! different key and forces regeneration; and a damaged or mislabeled
//! cache file is evicted and regenerated — the cache may cost time,
//! never correctness.

use lookahead_harness::{
    cache_key, load_or_generate, AppRun, CacheOutcome, MissReason, TraceCache,
};
use lookahead_memsys::MemoryParams;
use lookahead_multiproc::SimConfig;
use lookahead_workloads::lu::Lu;
use std::path::PathBuf;

fn small_config() -> SimConfig {
    SimConfig {
        num_procs: 4,
        ..SimConfig::default()
    }
}

fn workload() -> Lu {
    Lu { n: 12 }
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
    let dir = std::env::temp_dir().join(format!("lktr-cache-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (TempDir(dir.clone()), TraceCache::new(dir))
}

fn assert_runs_equal(a: &AppRun, b: &AppRun) {
    assert_eq!(a.app, b.app);
    assert_eq!(a.program, b.program);
    assert_eq!(a.proc, b.proc);
    assert_eq!(a.trace(), b.trace());
    assert_eq!(a.all_traces(), b.all_traces());
    assert_eq!(a.mp_breakdowns, b.mp_breakdowns);
    assert_eq!(a.mp_cycles, b.mp_cycles);
}

#[test]
fn cold_miss_then_warm_hit_returns_the_identical_run() {
    let (_dir, cache) = temp_cache("roundtrip");
    let wl = workload();
    let config = small_config();

    let (first, cold) = load_or_generate(Some(&cache), &wl, "small", &config).unwrap();
    assert!(
        matches!(cold, CacheOutcome::Generated(MissReason::Absent)),
        "empty cache must report an absent-file miss, got {cold:?}"
    );

    let (second, warm) = load_or_generate(Some(&cache), &wl, "small", &config).unwrap();
    assert!(warm.is_hit(), "second lookup must hit, got {warm:?}");
    assert_runs_equal(&first, &second);
}

#[test]
fn changed_configuration_misses_while_the_original_still_hits() {
    let (_dir, cache) = temp_cache("knobs");
    let wl = workload();
    let base = small_config();

    let (_, cold) = load_or_generate(Some(&cache), &wl, "small", &base).unwrap();
    assert!(!cold.is_hit());

    // A different miss penalty re-times every memory access: must
    // regenerate, not reuse.
    let slower = SimConfig {
        mem: MemoryParams::with_miss_penalty(100),
        ..small_config()
    };
    let (_, out) = load_or_generate(Some(&cache), &wl, "small", &slower).unwrap();
    assert!(
        matches!(out, CacheOutcome::Generated(MissReason::Absent)),
        "changed miss penalty must look elsewhere, got {out:?}"
    );

    // A different processor count changes the whole parallel execution.
    let wider = SimConfig {
        num_procs: 8,
        ..small_config()
    };
    let (_, out) = load_or_generate(Some(&cache), &wl, "small", &wider).unwrap();
    assert!(
        matches!(out, CacheOutcome::Generated(MissReason::Absent)),
        "changed processor count must look elsewhere, got {out:?}"
    );

    // A different size tier is a different problem size even when the
    // SimConfig is identical.
    let (_, out) = load_or_generate(Some(&cache), &wl, "paper", &base).unwrap();
    assert!(
        matches!(out, CacheOutcome::Generated(MissReason::Absent)),
        "changed size tier must look elsewhere, got {out:?}"
    );

    // The original entry is untouched by all of the above.
    let (_, warm) = load_or_generate(Some(&cache), &wl, "small", &base).unwrap();
    assert!(warm.is_hit());
}

#[test]
fn format_version_is_part_of_the_key() {
    let config = small_config();
    let key = cache_key("LU", "small", &config);
    let version_prefix = format!("lktr-v{}", lookahead_trace::ARCHIVE_VERSION);
    assert!(
        key.starts_with(&version_prefix),
        "key must embed the archive format version: {key}"
    );

    // A (hypothetical) format bump changes the key string, which
    // changes the content address — old files simply become unreachable.
    let bumped = key.replacen(&version_prefix, "lktr-v999", 1);
    let (_dir, cache) = temp_cache("version");
    assert_ne!(cache.path_for("LU", &key), cache.path_for("LU", &bumped));
}

#[test]
fn key_mismatch_is_evicted_and_regenerated() {
    let (_dir, cache) = temp_cache("mismatch");
    let wl = workload();
    let config = small_config();

    let (_, _) = load_or_generate(Some(&cache), &wl, "small", &config).unwrap();
    let key_small = cache_key("LU", "small", &config);
    let key_paper = cache_key("LU", "paper", &config);

    // Plant the small-tier archive at the paper-tier address: the file
    // decodes fine but its embedded key names a different configuration.
    let path_paper = cache.path_for("LU", &key_paper);
    std::fs::copy(cache.path_for("LU", &key_small), &path_paper).unwrap();

    match cache.load("LU", &key_paper) {
        Err(MissReason::KeyMismatch { found }) => assert_eq!(found, key_small),
        other => panic!("expected a key mismatch, got {other:?}"),
    }
    assert!(
        !path_paper.exists(),
        "a mislabeled cache file must be evicted, not left to mislead again"
    );

    // Through the full path: plant it again, then let load_or_generate
    // observe the mismatch, regenerate, and store a trustworthy entry.
    std::fs::copy(cache.path_for("LU", &key_small), &path_paper).unwrap();
    let (_, out) = load_or_generate(Some(&cache), &wl, "paper", &config).unwrap();
    assert!(
        matches!(out, CacheOutcome::Generated(MissReason::KeyMismatch { .. })),
        "got {out:?}"
    );
    let (_, warm) = load_or_generate(Some(&cache), &wl, "paper", &config).unwrap();
    assert!(warm.is_hit(), "regenerated entry must now hit");
}

#[test]
fn corrupt_cache_file_is_evicted_and_regenerated() {
    let (_dir, cache) = temp_cache("corrupt");
    let wl = workload();
    let config = small_config();

    let (original, _) = load_or_generate(Some(&cache), &wl, "small", &config).unwrap();
    let key = cache_key("LU", "small", &config);
    let path = cache.path_for("LU", &key);

    // Flip one bit in the middle of the file.
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();

    let (regenerated, out) = load_or_generate(Some(&cache), &wl, "small", &config).unwrap();
    assert!(
        matches!(out, CacheOutcome::Generated(MissReason::Corrupt(_))),
        "a bit-flipped file must be treated as corrupt, got {out:?}"
    );
    assert_runs_equal(&original, &regenerated);

    // The rewritten entry is whole again.
    let (_, warm) = load_or_generate(Some(&cache), &wl, "small", &config).unwrap();
    assert!(warm.is_hit());

    // Truncation is caught the same way.
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
    let (_, out) = load_or_generate(Some(&cache), &wl, "small", &config).unwrap();
    assert!(
        matches!(out, CacheOutcome::Generated(MissReason::Corrupt(_))),
        "a truncated file must be treated as corrupt, got {out:?}"
    );
}

#[test]
fn legacy_v2_archive_is_evicted_and_regenerated_as_v3() {
    let (_dir, cache) = temp_cache("migrate");
    let wl = workload();
    let config = small_config();
    let key = cache_key("LU", "small", &config);
    let path = cache.path_for("LU", &key);

    // A legacy v2 container planted where the v3 key points: what an
    // upgrade-in-place finds when the cache directory outlives a
    // format bump (v2 keys also embedded their version, so a real
    // leftover v2 file sits at a v2-keyed path and is simply
    // unreachable — this is the adversarial case of a renamed file).
    let run = AppRun::generate(&wl, &config).unwrap();
    // The v2 layout's head: the shared magic, version byte 2, then the
    // checksummed payload, which opened with the length-prefixed key.
    let mut bytes = b"LKTR\x02".to_vec();
    bytes.extend_from_slice(&(key.len() as u32).to_le_bytes());
    bytes.extend_from_slice(key.as_bytes());
    bytes.extend_from_slice(&[0; 64]);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, &bytes).unwrap();

    // The v3 loader refuses the old container outright and evicts it.
    match cache.load("LU", &key) {
        Err(MissReason::Corrupt(e)) => {
            let msg = e.to_string();
            assert!(msg.contains("version"), "should name the version: {msg}");
        }
        other => panic!("expected a corrupt miss for a v2 file, got {other:?}"),
    }
    assert!(!path.exists(), "legacy file must be evicted, not retried");

    // Through the full path: regeneration replaces it with a v3 entry
    // holding the identical run, and the next lookup hits.
    std::fs::write(&path, &bytes).unwrap();
    let (fresh, out) = load_or_generate(Some(&cache), &wl, "small", &config).unwrap();
    assert!(
        matches!(out, CacheOutcome::Generated(MissReason::Corrupt(_))),
        "got {out:?}"
    );
    assert_runs_equal(&run, &fresh);
    let (_, warm) = load_or_generate(Some(&cache), &wl, "small", &config).unwrap();
    assert!(warm.is_hit(), "regenerated v3 entry must hit");
}

#[test]
fn archive_backed_hit_retimes_streamed_exactly_like_materialized() {
    use lookahead_core::base::Base;
    use lookahead_core::ds::{Ds, DsConfig};
    use lookahead_core::inorder::InOrder;
    use lookahead_core::{ConsistencyModel, ProcessorModel};

    let (_dir, cache) = temp_cache("streamhit");
    let wl = workload();
    let config = small_config();
    let (_, _) = load_or_generate(Some(&cache), &wl, "small", &config).unwrap();

    let (hit, warm) = load_or_generate(Some(&cache), &wl, "small", &config).unwrap();
    assert!(warm.is_hit());

    // Stream from the archive first (materializing the trace would
    // switch retime onto a slice of it and defeat the comparison), then
    // materialize and run over the in-memory trace.
    let models: Vec<Box<dyn ProcessorModel>> = vec![
        Box::new(Base),
        Box::new(InOrder::ssbr(ConsistencyModel::Sc)),
        Box::new(InOrder::ss(ConsistencyModel::Rc)),
        Box::new(Ds::new(DsConfig::rc().window(64))),
    ];
    let streamed: Vec<_> = models.iter().map(|m| hit.retime(m.as_ref())).collect();
    for (m, s) in models.iter().zip(&streamed) {
        let materialized = m.run(&hit.program, hit.trace());
        assert_eq!(
            *s,
            materialized,
            "{}: streamed cache hit diverged from the materialized run",
            m.name()
        );
    }
}

/// An archive deleted after load-time validation has one failure mode:
/// the gang reports `None`, and every re-timing call panics once, naming
/// the archive.
#[test]
fn vanished_archive_panics_naming_the_archive() {
    use lookahead_core::base::Base;
    use lookahead_harness::experiments::{retime_gang, run_cell_specs, summary_cells};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let (_dir, cache) = temp_cache("vanished");
    let wl = workload();
    let config = small_config();
    let (_, _) = load_or_generate(Some(&cache), &wl, "small", &config).unwrap();
    let (run, warm) = load_or_generate(Some(&cache), &wl, "small", &config).unwrap();
    assert!(warm.is_hit());
    let path = cache.path_for(&run.app, &cache_key(&run.app, "small", &config));
    std::fs::remove_file(&path).unwrap();

    let specs = summary_cells(&[16]);
    assert!(retime_gang(&run, &specs).is_none());
    let message = |outcome: std::thread::Result<()>| -> String {
        let payload = outcome.expect_err("re-timing a vanished archive must panic");
        payload
            .downcast_ref::<String>()
            .cloned()
            .expect("the panic carries a formatted message")
    };
    let retimed = message(catch_unwind(AssertUnwindSafe(|| {
        let _ = run.retime(&Base);
    })));
    let swept = message(catch_unwind(AssertUnwindSafe(|| {
        let _ = run_cell_specs(&run, &specs);
    })));
    for (call, msg) in [("AppRun::retime", retimed), ("run_cell_specs", swept)] {
        assert!(
            msg.contains(&path.display().to_string()) && msg.contains("can no longer be read"),
            "{call}: {msg}"
        );
    }
}

/// A run re-times each in-order result once: after that,
/// `ModelSpec::retime` answers from the run's memo without reading the
/// archive, while an in-order model not yet re-timed, and every DS
/// spec, still needs a pass.
#[test]
fn memoized_in_order_results_answer_without_the_archive() {
    use lookahead_core::ds::DsConfig;
    use lookahead_core::ConsistencyModel::{Pc, Sc};
    use lookahead_harness::experiments::ModelSpec;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    let (_dir, cache) = temp_cache("memo");
    let wl = workload();
    let config = small_config();
    let (_, _) = load_or_generate(Some(&cache), &wl, "small", &config).unwrap();
    let (run, warm) = load_or_generate(Some(&cache), &wl, "small", &config).unwrap();
    assert!(warm.is_hit());
    let path = cache.path_for(&run.app, &cache_key(&run.app, "small", &config));
    let ssbr = ModelSpec::Ssbr(Pc).retime(&run);
    // The run's shared handle is open now, so a real pass reads the
    // truncated file and fails.
    std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .and_then(|file| file.set_len(0))
        .unwrap();
    assert_eq!(
        ModelSpec::Ssbr(Pc).retime(&run),
        ssbr,
        "a memoized result must not need the archive"
    );
    for spec in [
        ModelSpec::Ssbr(Sc),
        ModelSpec::Ds(DsConfig::rc().window(16)),
    ] {
        let payload = catch_unwind(AssertUnwindSafe(|| {
            let _ = spec.retime(&run);
        }))
        .expect_err("a pass over a truncated archive must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("the panic carries a formatted message");
        assert!(
            msg.contains(&path.display().to_string()) && msg.contains("can no longer be read"),
            "{spec:?}: {msg}"
        );
    }
}

#[test]
fn disabled_cache_always_generates() {
    let wl = workload();
    let config = small_config();
    let (run, out) = load_or_generate(None, &wl, "small", &config).unwrap();
    assert!(matches!(out, CacheOutcome::Generated(MissReason::Absent)));
    assert!(!run.trace().is_empty());
}
