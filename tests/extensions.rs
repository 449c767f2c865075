//! Integration tests of the §5–6 extension studies on real workload
//! traces: SC boosting, stride prefetching, multiple contexts and
//! compiler scheduling, all end to end, and the direction of each
//! design ablation (MSHR count, store-buffer depth, BTB geometry).

use lookahead_core::base::Base;
use lookahead_core::btb::BtbConfig;
use lookahead_core::contexts::Contexts;
use lookahead_core::ds::{Ds, DsConfig};
use lookahead_core::inorder::InOrder;
use lookahead_core::model::{ExecutionResult, ProcessorModel};
use lookahead_core::prefetch::{PrefetchConfig, StridePrefetcher};
use lookahead_core::ConsistencyModel;
use lookahead_harness::pipeline::AppRun;
use lookahead_multiproc::{SimConfig, Simulator};
use lookahead_schedule::optimize_program;
use lookahead_trace::Trace;
use lookahead_workloads::App;

fn config() -> SimConfig {
    SimConfig {
        num_procs: 8,
        ..SimConfig::default()
    }
}

fn generate(app: App) -> AppRun {
    AppRun::generate(app.small_workload().as_ref(), &config())
        .unwrap_or_else(|e| panic!("{app}: {e}"))
}

/// §6 [8]: boosting recovers part of the SC–RC gap, and never beats
/// the fully relaxed model by more than noise.
#[test]
fn sc_boosting_recovers_gap() {
    let run = generate(App::Ocean);
    let cycles = |pf: bool, spec: bool, model: ConsistencyModel| {
        Ds::new(DsConfig {
            nonbinding_prefetch: pf,
            speculative_loads: spec,
            ..DsConfig::with_model(model).window(64)
        })
        .run(&run.program, run.trace())
        .cycles()
    };
    let sc = cycles(false, false, ConsistencyModel::Sc);
    let boosted = cycles(true, true, ConsistencyModel::Sc);
    let rc = cycles(false, false, ConsistencyModel::Rc);
    assert!(boosted < sc, "boosting must help SC: {boosted} vs {sc}");
    // Recovers at least a third of the gap.
    assert!(
        (sc - boosted) * 3 >= sc - rc,
        "too little recovery: SC {sc}, boosted {boosted}, RC {rc}"
    );
}

/// §6 conjecture: the prefetcher covers far more of OCEAN's misses
/// than PTHOR's.
#[test]
fn prefetcher_separates_regular_from_irregular() {
    // OCEAN's streams need enough length per row for the prefetcher's
    // lookahead to engage; the unit-test size is too tiny.
    let ocean = AppRun::generate(
        &lookahead_workloads::ocean::Ocean {
            n: 34,
            grids: 3,
            steps: 2,
        },
        &config(),
    )
    .unwrap();
    let pthor = generate(App::Pthor);
    let coverage = |run: &AppRun| {
        let (_, stats) = StridePrefetcher::new(PrefetchConfig::default()).cover(run.trace());
        stats.coverage()
    };
    let (co, cp) = (coverage(&ocean), coverage(&pthor));
    assert!(
        co > cp + 0.2,
        "OCEAN ({co:.2}) should be far more coverable than PTHOR ({cp:.2})"
    );
}

/// §5: running two of the same run's traces on one two-context
/// pipeline beats running them back to back.
#[test]
fn contexts_overlap_real_workload_misses() {
    let run = generate(App::Mp3d);
    let traces = run.all_traces();
    let a = &*traces[0];
    let b = &*traces[1];
    let mc = Contexts::default();
    let serial = mc.run_traces(&[a]).cycles() + mc.run_traces(&[b]).cycles();
    let together = mc.run_traces(&[a, b]);
    assert!(
        together.cycles() < serial,
        "two contexts ({}) should beat back-to-back ({serial})",
        together.cycles()
    );
    assert!(together.stats.context_switches > 0);
    assert_eq!(together.stats.instructions, (a.len() + b.len()) as u64);
}

/// §7 conjecture end to end: the optimized OCEAN program still
/// verifies and its trace runs faster on SS and small-window DS.
#[test]
fn compiler_scheduling_helps_regular_code() {
    let app = App::Ocean;
    let built = app.small_workload().build(config().num_procs);
    let (optimized, _, ustats) = optimize_program(&built.program, 4);
    assert!(ustats.loops_unrolled > 0, "OCEAN inner loops should unroll");
    let out = Simulator::new(optimized, built.image, config())
        .unwrap()
        .run()
        .unwrap();
    (built.verify)(&out.final_memory).expect("optimized OCEAN still correct");
    let sched_trace: &Trace = out.trace(out.busiest_proc());

    let orig = generate(app);
    let base = Base.run(&orig.program, orig.trace());
    let ss = InOrder::ss(ConsistencyModel::Rc);
    let before = ss.run(&orig.program, orig.trace()).cycles() as f64 / base.cycles() as f64;
    let after = ss.run(&orig.program, sched_trace).cycles() as f64 / base.cycles() as f64;
    assert!(
        after < before,
        "scheduling should speed SS up: {after:.3} vs {before:.3}"
    );
}

/// The prefetch trace transformer only ever shortens latencies — no
/// trace entry gains one — and leaves non-load entries untouched.
#[test]
fn prefetch_transformer_is_monotone() {
    let run = generate(App::Lu);
    let (covered, _) = StridePrefetcher::new(PrefetchConfig::default()).cover(run.trace());
    assert_eq!(covered.len(), run.trace_len());
    for (a, b) in run.trace().iter().zip(covered.iter()) {
        assert_eq!(a.pc, b.pc);
        match (&a.op, &b.op) {
            (lookahead_trace::TraceOp::Load(x), lookahead_trace::TraceOp::Load(y)) => {
                assert_eq!(x.addr, y.addr);
                assert!(y.latency <= x.latency, "latency grew at pc {}", a.pc);
            }
            (x, y) => assert_eq!(x, y, "non-load entry changed at pc {}", a.pc),
        }
    }
}

/// DS-64 under RC on `run`, with `config` applied to its configuration.
fn ds64(run: &AppRun, config: impl FnOnce(DsConfig) -> DsConfig) -> ExecutionResult {
    Ds::new(config(DsConfig::rc().window(64))).run(&run.program, run.trace())
}

/// Fewer MSHRs (outstanding misses) can never help.
#[test]
fn fewer_mshrs_never_help() {
    let run = generate(App::Ocean);
    let cycles = |mshr_limit| ds64(&run, |c| DsConfig { mshr_limit, ..c }).cycles();
    let (one, four, unbounded) = (cycles(Some(1)), cycles(Some(4)), cycles(None));
    assert!(
        one >= four && four >= unbounded,
        "MSHRs 1: {one}, 4: {four}, unbounded: {unbounded} cycles"
    );
}

/// A deeper store buffer can never hurt.
#[test]
fn deeper_store_buffer_never_hurts() {
    let run = generate(App::Ocean);
    let cycles = |store_buffer_depth| {
        ds64(&run, |c| DsConfig {
            store_buffer_depth,
            ..c
        })
        .cycles()
    };
    let (one, sixteen) = (cycles(1), cycles(16));
    assert!(one >= sixteen, "depth 1: {one}, depth 16: {sixteen} cycles");
}

/// On the branchy application, a 16-entry direct-mapped BTB mispredicts
/// at least as often as the paper's 2048x4, and perfect prediction is
/// never slower.
#[test]
fn btb_geometry_and_perfect_prediction_point_the_right_way() {
    let run = generate(App::Pthor);
    let paper = ds64(&run, |c| DsConfig {
        btb: BtbConfig::PAPER,
        ..c
    });
    let tiny = ds64(&run, |c| DsConfig {
        btb: BtbConfig {
            entries: 16,
            ways: 1,
        },
        ..c
    });
    let perfect = ds64(&run, |c| DsConfig {
        perfect_branch_prediction: true,
        ..c
    });
    assert!(
        tiny.stats.mispredictions >= paper.stats.mispredictions,
        "16x1: {}, 2048x4: {} mispredictions",
        tiny.stats.mispredictions,
        paper.stats.mispredictions
    );
    assert!(
        perfect.cycles() <= paper.cycles(),
        "perfect: {}, 2048x4: {} cycles",
        perfect.cycles(),
        paper.cycles()
    );
}
