//! A small worker pool for fanning re-timing cells across cores.
//!
//! The re-timing side of the pipeline is embarrassingly parallel: every
//! (application × model × window × consistency) cell of a sweep is an
//! independent deterministic simulation over a shared, read-only trace.
//! This module runs such cells on a pool of scoped `std` threads and
//! returns the results **in submission order**, so output assembled
//! from them is byte-identical whether the pool runs with one worker
//! or sixteen.
//!
//! No external dependencies: plain `std::thread::scope` plus an atomic
//! work index.
//!
//! When the submitting thread is inside a traced request
//! ([`lookahead_obs::span`]), its trace scope is captured and installed
//! in every worker, so per-cell spans recorded on the pool land in the
//! submitter's request tree with the right parent.

use lookahead_obs::span;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of workers to use by default: the `LOOKAHEAD_JOBS`
/// environment variable if set, otherwise the machine's available
/// parallelism.
///
/// # Errors
///
/// Returns a descriptive message if `LOOKAHEAD_JOBS` is set but is not
/// a positive integer — a misspelled knob must fail fast, not silently
/// run serial. Binaries report it and exit with code 2.
pub fn workers_from_env() -> Result<usize, String> {
    match std::env::var("LOOKAHEAD_JOBS") {
        Ok(v) => parse_jobs("LOOKAHEAD_JOBS", &v),
        Err(_) => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
    }
}

/// Parses a worker count given through `knob` (`--jobs` or
/// `LOOKAHEAD_JOBS`), naming the knob in the error.
///
/// # Errors
///
/// Returns a descriptive message when the value is not a positive
/// integer.
pub fn parse_jobs(knob: &str, v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "{knob} must be a positive integer (worker count), got {v:?}"
        )),
    }
}

/// Runs `jobs` on up to `workers` threads and returns their results in
/// submission order.
///
/// With `workers <= 1` (or fewer than two jobs) everything runs on the
/// calling thread — the explicit serial path the determinism tests
/// compare against. Work is claimed from a shared atomic index, so a
/// slow cell never holds up faster ones behind it.
///
/// # Panics
///
/// If a job panics the panic is propagated to the caller once the
/// scope unwinds (no result is silently dropped).
pub fn run_ordered<T, F>(jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if workers <= 1 || n <= 1 {
        return jobs.into_iter().map(|f| f()).collect();
    }
    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let scope_in = span::current_scope();
    std::thread::scope(|s| {
        for _ in 0..workers.min(n) {
            let (slots, results, next) = (&slots, &results, &next);
            let scope_in = scope_in.clone();
            s.spawn(move || {
                // Workers are fresh threads; adopt the submitter's
                // trace scope so cell spans join the request's tree.
                span::set_scope(scope_in);
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = slots[i]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("job claimed twice");
                    let out = job();
                    *results[i].lock().expect("result slot poisoned") = Some(out);
                }
                span::set_scope(None);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("job did not produce a result")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_submission_order() {
        let jobs: Vec<_> = (0..64)
            .map(|i| {
                move || {
                    // Finish in scrambled real time; order must still hold.
                    if i % 7 == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    i * 3
                }
            })
            .collect();
        let out = run_ordered(jobs, 8);
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mk = || (0..40).map(|i| move || i * i).collect::<Vec<_>>();
        assert_eq!(run_ordered(mk(), 1), run_ordered(mk(), 16));
    }

    #[test]
    fn empty_and_single() {
        let none: Vec<fn() -> u32> = Vec::new();
        assert!(run_ordered(none, 4).is_empty());
        assert_eq!(run_ordered(vec![|| 7u32], 4), vec![7]);
    }

    #[test]
    fn trace_scope_propagates_to_pool_workers() {
        let ctx = lookahead_obs::TraceContext::new("req-pool");
        let root = ctx.alloc_id();
        let prev = span::set_scope(Some(span::TraceScope::new(ctx.clone(), root)));
        let jobs: Vec<_> = (0..12)
            .map(|i| move || span::record_current("cell", || i * 2))
            .collect();
        let out = run_ordered(jobs, 4);
        span::set_scope(prev);
        assert_eq!(out, (0..12).map(|i| i * 2).collect::<Vec<_>>());
        let spans = ctx.spans();
        assert_eq!(spans.len(), 12, "one span per cell");
        assert!(spans.iter().all(|s| s.name == "cell" && s.parent == root));
        // The caller's own thread is back to untraced.
        assert!(span::current_scope().is_none());
    }

    #[test]
    fn parse_jobs_validates() {
        assert_eq!(parse_jobs("LOOKAHEAD_JOBS", "4"), Ok(4));
        assert_eq!(parse_jobs("--jobs", " 1 "), Ok(1));
        assert!(parse_jobs("--jobs", "0")
            .unwrap_err()
            .starts_with("--jobs must be"));
        assert!(parse_jobs("LOOKAHEAD_JOBS", "four").is_err());
        assert!(parse_jobs("LOOKAHEAD_JOBS", "").is_err());
        assert!(parse_jobs("LOOKAHEAD_JOBS", "-2").is_err());
    }
}
