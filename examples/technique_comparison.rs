//! Every latency-tolerance technique in the suite, head to head on one
//! application: the paper's dynamic scheduling, plus the alternatives
//! its discussion sections describe (multiple hardware contexts,
//! hardware stride prefetching, SC boosted with prefetch/speculation,
//! and compiler load scheduling).
//!
//! Run with `cargo run --release --example technique_comparison [APP]`
//! (defaults to OCEAN; small problem sizes, runs in seconds).

use lookahead_core::base::Base;
use lookahead_core::contexts::Contexts;
use lookahead_core::ds::{Ds, DsConfig};
use lookahead_core::inorder::InOrder;
use lookahead_core::model::ProcessorModel;
use lookahead_core::prefetch::{PrefetchConfig, StridePrefetcher};
use lookahead_core::ConsistencyModel;
use lookahead_harness::pipeline::AppRun;
use lookahead_multiproc::SimConfig;
use lookahead_multiproc::Simulator;
use lookahead_schedule::optimize_program;
use lookahead_trace::Trace;
use lookahead_workloads::App;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let wanted = std::env::args().nth(1).unwrap_or_else(|| "OCEAN".into());
    let app = App::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(&wanted))
        .ok_or_else(|| format!("unknown application {wanted}"))?;
    let config = SimConfig::default();
    let workload = app.small_workload();
    let run = AppRun::generate(workload.as_ref(), &config)?;
    let base = Base.run(&run.program, run.trace());
    println!(
        "{}: {} instructions; BASE = {} cycles (= 100.0)\n",
        run.app,
        run.trace_len(),
        base.cycles()
    );

    let pct = |c: u64| -> String { format!("{:6.1}", c as f64 * 100.0 / base.cycles() as f64) };
    let report = |name: &str, cycles: u64, note: &str| {
        println!("{name:<26} {} {note}", pct(cycles));
    };

    // The paper's technique: out-of-order lookahead under RC.
    for w in [16, 64] {
        let r = Ds::new(DsConfig::rc().window(w)).run(&run.program, run.trace());
        report(&format!("dynamic scheduling W={w}"), r.cycles(), "");
    }

    // Strict model + the boosting techniques of reference [8].
    let sc = Ds::new(DsConfig::with_model(ConsistencyModel::Sc).window(64))
        .run(&run.program, run.trace());
    report("SC (no boost), W=64", sc.cycles(), "");
    let boosted = Ds::new(DsConfig {
        nonbinding_prefetch: true,
        speculative_loads: true,
        ..DsConfig::with_model(ConsistencyModel::Sc).window(64)
    })
    .run(&run.program, run.trace());
    report("SC + prefetch/speculation", boosted.cycles(), "");

    // Multiple hardware contexts on an in-order pipe.
    let all_traces = run.all_traces();
    for k in [2usize, 4] {
        let picked: Vec<&Trace> = (0..k)
            .map(|i| &*all_traces[(run.proc + i) % all_traces.len()])
            .collect();
        let r = Contexts::default().run_traces(&picked);
        report(
            &format!("multiple contexts x{k}"),
            (r.cycles() as f64 / k as f64) as u64,
            "(per-context)",
        );
    }

    // Hardware stride prefetching on the blocking in-order processor:
    // the prefetcher rewrites the trace, which the model then re-times.
    let (covered, _) = StridePrefetcher::new(PrefetchConfig::default()).cover(run.trace());
    let pf = InOrder::ssbr(ConsistencyModel::Rc).run(&run.program, &covered);
    report("SSBR + stride prefetcher", pf.cycles(), "");

    // Compiler load scheduling feeding the small-window machine.
    let (optimized, _, _) = optimize_program(&run.program, 4);
    let built = app.small_workload().build(config.num_procs);
    let out = Simulator::new(optimized.clone(), built.image, config)?.run()?;
    (built.verify)(&out.final_memory).expect("optimized program still correct");
    let t = out.trace(out.busiest_proc());
    let r = Ds::new(DsConfig::rc().window(16)).run(&optimized, t);
    report(
        "compiler sched + DS W=16",
        r.cycles(),
        "(unroll x4 + reschedule)",
    );

    println!("\nLower is better; every row tolerates the same 50-cycle misses.");
    Ok(())
}
