//! Tests that the paper's qualitative findings hold on the small
//! workload sizes — the "shape" of every headline result. These are
//! the same checks a reviewer would make against Figures 3–4 and the
//! §7 summary, expressed as assertions.

use lookahead_core::base::Base;
use lookahead_core::ds::{Ds, DsConfig};
use lookahead_core::inorder::InOrder;
use lookahead_core::model::ProcessorModel;
use lookahead_core::ConsistencyModel;
use lookahead_harness::experiments::{
    figure4_cells, miss_delay, read_latency_hidden, run_cell_specs,
};
use lookahead_harness::pipeline::AppRun;
use lookahead_multiproc::SimConfig;
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

/// §4.1: "SC does not allow the read and write latency to be hidden
/// regardless of the processor architecture."
#[test]
fn sc_hides_nothing() {
    let run = generate(App::Ocean);
    let base = Base.run(&run.program, run.trace());
    for result in [
        InOrder::ssbr(ConsistencyModel::Sc).run(&run.program, run.trace()),
        InOrder::ss(ConsistencyModel::Sc).run(&run.program, run.trace()),
        Ds::new(DsConfig::with_model(ConsistencyModel::Sc).window(256))
            .run(&run.program, run.trace()),
    ] {
        assert!(
            result.cycles() as f64 > 0.90 * base.cycles() as f64,
            "SC config got {} vs BASE {}",
            result.cycles(),
            base.cycles()
        );
    }
}

/// §4.1: "PC is in general successful in hiding the latency of writes
/// with statically scheduled processors and does not gain much from
/// the use of dynamic scheduling."
#[test]
fn pc_hides_writes_in_order() {
    // MP3D is the write-heaviest application; use a size with enough
    // write misses for the ratio to be meaningful.
    let w = lookahead_workloads::mp3d::Mp3d {
        particles: 512,
        ..lookahead_workloads::mp3d::Mp3d::small()
    };
    let run = AppRun::generate(&w, &config()).unwrap();
    let base = Base.run(&run.program, run.trace());
    let pc = InOrder::ssbr(ConsistencyModel::Pc).run(&run.program, run.trace());
    assert!(
        pc.breakdown.write * 5 < base.breakdown.write,
        "PC write stall {} vs BASE {}",
        pc.breakdown.write,
        base.breakdown.write
    );
    // Reads stay: PC cannot hide read latency in order.
    assert!(pc.breakdown.read * 2 > base.breakdown.read);
}

/// §4.1.1: SS "improvement over SSBR is minimal" without compiler
/// rescheduling (the first use follows the load closely).
#[test]
fn ss_gains_little_over_ssbr() {
    for app in [App::Lu, App::Pthor] {
        let run = generate(app);
        let ssbr = InOrder::ssbr(ConsistencyModel::Rc).run(&run.program, run.trace());
        let ss = InOrder::ss(ConsistencyModel::Rc).run(&run.program, run.trace());
        assert!(ss.cycles() <= ssbr.cycles(), "{app}: SS slower than SSBR");
        let gain = 1.0 - ss.cycles() as f64 / ssbr.cycles() as f64;
        assert!(
            gain < 0.35,
            "{app}: SS gained {:.0}% over SSBR — too much for unscheduled code",
            gain * 100.0
        );
    }
}

/// §4.1.2: the regular applications hide virtually all read latency by
/// window 64; bigger windows change little.
#[test]
fn regular_apps_saturate_by_window_64() {
    for app in [App::Lu, App::Ocean] {
        let run = generate(app);
        let h64 = read_latency_hidden(&run, 64);
        assert!(
            h64 > 0.85,
            "{app}: only {:.0}% hidden at window 64",
            h64 * 100.0
        );
        let c64 = Ds::new(DsConfig::rc().window(64))
            .run(&run.program, run.trace())
            .cycles();
        let c256 = Ds::new(DsConfig::rc().window(256))
            .run(&run.program, run.trace())
            .cycles();
        let gain_past_64 = (c64 as f64 - c256 as f64) / c64 as f64;
        assert!(
            gain_past_64 < 0.05,
            "{app}: window 256 still gains {:.1}% over 64",
            (c64 as f64 - c256 as f64) * 100.0 / c64 as f64
        );
    }
}

/// §4.1.2/4.1.3: PTHOR is limited by dependences and branches at every
/// window size — a large fraction of its read latency stays unhidden.
#[test]
fn pthor_remains_limited() {
    let run = generate(App::Pthor);
    let h256 = read_latency_hidden(&run, 256);
    assert!(
        h256 < 0.9,
        "PTHOR hid {:.0}% at window 256 — the paper's limits should bite",
        h256 * 100.0
    );
    // And its miss-delay distribution shows dependence chains.
    let d = miss_delay(&run, 64);
    assert!(
        d.over_40 > 0.2,
        "PTHOR: only {:.0}% of misses delayed > 40 cycles",
        d.over_40 * 100.0
    );
}

/// §4.1.3: LU's read misses are mostly independent — rarely delayed in
/// the window once branches are perfect.
#[test]
fn lu_misses_are_independent() {
    // Needs a matrix big enough that misses are the paper's 20-30
    // instructions apart rather than bunched at tiny sizes.
    let run = AppRun::generate(&lookahead_workloads::lu::Lu { n: 48 }, &config()).unwrap();
    let d = miss_delay(&run, 64);
    assert!(
        d.over_40 < 0.25,
        "LU: {:.0}% of misses delayed > 40 cycles",
        d.over_40 * 100.0
    );
}

/// §4.1.3: for LU, ignoring data dependences adds nothing (no
/// dependence limit), while for PTHOR it helps.
#[test]
fn dependence_ablation_matches_application_character() {
    let lu = generate(App::Lu);
    let cols = run_cell_specs(&lu, &figure4_cells(&[64]));
    let bp = cols.iter().find(|c| c.model == "bp").unwrap().normalized;
    let nd = cols.iter().find(|c| c.model == "bp+nd").unwrap().normalized;
    assert!(
        bp - nd < 3.0,
        "LU: ignoring dependences gained {:.1} points",
        bp - nd
    );

    let pthor = generate(App::Pthor);
    let cols = run_cell_specs(&pthor, &figure4_cells(&[64]));
    let bp = cols.iter().find(|c| c.model == "bp").unwrap().normalized;
    let nd = cols.iter().find(|c| c.model == "bp+nd").unwrap().normalized;
    assert!(
        nd <= bp,
        "PTHOR: ignoring dependences should help ({nd} vs {bp})"
    );
}

/// §4.2: with 100-cycle latency the trends hold but saturation moves
/// to larger windows; with 4-wide issue, gains continue past 64.
#[test]
fn higher_latency_needs_bigger_windows() {
    // A medium OCEAN: enough independent misses per processor that
    // the window size is the binding constraint.
    let w = lookahead_workloads::ocean::Ocean {
        n: 34,
        grids: 4,
        steps: 2,
    };
    let (run100, _) =
        lookahead_harness::experiments::latency_sweep(&w, &config(), 100, &[]).unwrap();
    let c = |win: usize| {
        Ds::new(DsConfig::rc().window(win))
            .run(&run100.program, run100.trace())
            .cycles() as f64
    };
    let (c64, c128) = (c(64), c(128));
    // At 100-cycle latency, 64 -> 128 must still gain noticeably.
    assert!(
        c128 < c64 * 0.97,
        "100-cycle latency: window 128 gains only {:.1}%",
        (c64 - c128) * 100.0 / c64
    );
}

/// §7: the average hidden read latency grows strongly from window 16
/// to 64 (the paper reports 33% → 63% → 81%).
#[test]
fn summary_trend_matches_paper() {
    let runs: Vec<AppRun> = App::ALL.into_iter().map(generate).collect();
    let avg =
        |w: usize| runs.iter().map(|r| read_latency_hidden(r, w)).sum::<f64>() / runs.len() as f64;
    let (h16, h32, h64) = (avg(16), avg(32), avg(64));
    assert!(h16 < h32, "not increasing: {h16} {h32} {h64}");
    assert!(h32 < h64, "not increasing: {h16} {h32} {h64}");
    assert!(h16 > 0.15, "window 16 hides {:.0}%", h16 * 100.0);
    assert!(h64 > 0.6, "window 64 hides only {:.0}%", h64 * 100.0);
}
