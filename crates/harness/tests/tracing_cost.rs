//! The cost of request tracing, bounded from its parts: tracing a
//! figure-3 window sweep may cost at most 5% of the untraced sweep.
//!
//! Timing the sweep traced and untraced and subtracting cannot resolve
//! 5%: the cost is microseconds against a sweep of milliseconds, well
//! inside the run-to-run spread of a shared machine. So the bound is
//! built from quantities that can be measured steadily: the spans one
//! traced sweep records, times the cost of recording one span, against
//! the untraced sweep. `crates/serve/tests/tracing.rs` pins in tier-1
//! that a figure-3 request records one span per unique cell, never one
//! per chunk or entry.
//!
//! Timing is only meaningful in release: run with
//! `cargo test --release -p lookahead-harness --test tracing_cost -- --include-ignored`.

use lookahead_harness::experiments::{figure3_cells, run_cell_specs, PAPER_WINDOWS};
use lookahead_harness::pipeline::AppRun;
use lookahead_harness::SizeTier;
use lookahead_multiproc::SimConfig;
use lookahead_obs::span::{self, TraceContext, TraceScope};
use lookahead_workloads::App;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// The tracing budget, in percent of the untraced sweep.
const BUDGET_PCT: f64 = 5.0;

/// Span recordings timed on each recording path.
const CALLS: u32 = 100_000;

/// Runs `f` under a live trace scope, as an HTTP request does, and
/// returns the trace it recorded.
fn traced(f: impl FnOnce()) -> TraceContext {
    let ctx = TraceContext::new(span::next_request_id());
    let prev = span::set_scope(Some(TraceScope::new(ctx.clone(), ctx.alloc_id())));
    f();
    span::set_scope(prev);
    ctx
}

/// The best of three wall times of `f`.
fn best_of_3(mut f: impl FnMut()) -> Duration {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed()
        })
        .min()
        .unwrap()
}

#[test]
#[ignore = "timing: run in release with --include-ignored"]
fn tracing_costs_at_most_five_percent_of_a_figure3_sweep() {
    // The small tier's five applications at the paper's 16 processors,
    // every trace materialized before anything is timed.
    let config = SimConfig::default();
    let runs: Vec<AppRun> = App::ALL
        .into_iter()
        .map(|app| {
            AppRun::generate(SizeTier::Small.workload(app).as_ref(), &config)
                .unwrap_or_else(|e| panic!("{app}: {e}"))
        })
        .collect();
    for run in &runs {
        black_box(run.trace());
    }
    let cells = figure3_cells(&PAPER_WINDOWS);
    let sweep = || {
        for run in &runs {
            black_box(run_cell_specs(run, &cells));
        }
    };
    let untraced = best_of_3(sweep);
    let spans = traced(sweep).spans().len();
    assert!(
        spans >= runs.len(),
        "a traced sweep records at least one span per run, got {spans}"
    );

    // A span is recorded either around a call (`record_current`) or
    // from a start time (`record_since`, through
    // `TraceContext::record`). Both are timed, and every span is
    // charged the dearer of the two.
    let around = best_of_3(|| {
        traced(|| {
            for i in 0..CALLS {
                span::record_current("retime.cell", || black_box(i));
            }
        });
    });
    let since = best_of_3(|| {
        traced(|| {
            for _ in 0..CALLS {
                span::record_since("retime.cell", 0);
            }
        });
    });
    let per_span = around.max(since) / CALLS;
    let cost = per_span * spans as u32;
    let pct = 100.0 * cost.as_secs_f64() / untraced.as_secs_f64();
    eprintln!(
        "untraced sweep {untraced:?}; {spans} spans x {per_span:?} \
         (around a call {:?}, from a start {:?}) = {cost:?}, {pct:.3}% (budget {BUDGET_PCT}%)",
        around / CALLS,
        since / CALLS,
    );
    assert!(
        pct <= BUDGET_PCT,
        "tracing would cost {pct:.2}% of the {untraced:?} sweep: \
         {spans} spans x {per_span:?} per span"
    );
}
