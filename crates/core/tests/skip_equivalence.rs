//! The event-driven DS engine's correctness contract: skipping dead
//! cycles must be *invisible* in every reported number. For randomized
//! workloads across window sizes, MSHR limits, latencies, consistency
//! models and the §4.1.3/§6 ablations, the skip-ahead engine
//! ([`Ds::run`]) must produce results identical to the retained
//! cycle-by-cycle reference stepper ([`Ds::run_reference`]) — not just
//! total cycles but the full busy/read/write/sync breakdown and all
//! statistics — and both must satisfy the accounting invariant
//! `busy + read + write + sync == total`.

mod support;

use lookahead_core::ds::{Ds, DsConfig};
use lookahead_core::{ConsistencyModel, ProcessorModel};
use lookahead_isa::rng::XorShift64;
use lookahead_isa::{Assembler, IntReg, Program};
use lookahead_trace::{MemAccess, Trace, TraceEntry, TraceOp};
use support::gen_workload;

const MODELS: [ConsistencyModel; 4] = [
    ConsistencyModel::Sc,
    ConsistencyModel::Pc,
    ConsistencyModel::Wo,
    ConsistencyModel::Rc,
];

/// Runs both engines on one configuration and asserts full equality
/// plus the accounting invariant.
fn assert_equivalent(tag: &str, cfg: DsConfig, program: &Program, trace: &Trace) {
    let ds = Ds::new(cfg);
    let skip = ds.run(program, trace);
    let reference = ds.run_reference(program, trace);
    assert_eq!(
        skip, reference,
        "{tag}: skip-ahead and reference stepper disagree"
    );
    for (engine, r) in [("skip", &skip), ("reference", &reference)] {
        let b = &r.breakdown;
        assert_eq!(
            b.busy + b.read + b.write + b.sync,
            b.total(),
            "{tag} ({engine}): breakdown components must sum to total"
        );
    }
    assert_eq!(
        skip.stats.instructions,
        trace.len() as u64,
        "{tag}: every traced instruction retires"
    );
}

#[test]
fn skip_equals_reference_across_windows_and_models() {
    let mut rng = XorShift64::seed_from_u64(0x5EED_0001);
    for case in 0..20 {
        let (program, trace) = gen_workload(&mut rng);
        for model in MODELS {
            for w in [1, 4, 16, 64, 256] {
                let cfg = DsConfig::with_model(model).window(w);
                assert_equivalent(&format!("case {case} {model} w{w}"), cfg, &program, &trace);
            }
        }
    }
}

#[test]
fn skip_equals_reference_with_mshr_limits() {
    let mut rng = XorShift64::seed_from_u64(0x5EED_0002);
    for case in 0..20 {
        let (program, trace) = gen_workload(&mut rng);
        for model in [ConsistencyModel::Sc, ConsistencyModel::Rc] {
            for mshr_limit in [None, Some(1), Some(4)] {
                for store_buffer_depth in [1, 16] {
                    let cfg = DsConfig {
                        mshr_limit,
                        store_buffer_depth,
                        ..DsConfig::with_model(model).window(16)
                    };
                    assert_equivalent(
                        &format!("case {case} {model} mshr {mshr_limit:?} sb {store_buffer_depth}"),
                        cfg,
                        &program,
                        &trace,
                    );
                }
            }
        }
    }
}

#[test]
fn skip_equals_reference_under_ablations() {
    let mut rng = XorShift64::seed_from_u64(0x5EED_0003);
    for case in 0..16 {
        let (program, trace) = gen_workload(&mut rng);
        for model in [ConsistencyModel::Sc, ConsistencyModel::Rc] {
            let base = DsConfig::with_model(model).window(32);
            let variants = [
                DsConfig {
                    perfect_branch_prediction: true,
                    ..base
                },
                DsConfig {
                    ignore_data_dependences: true,
                    ..base
                },
                DsConfig {
                    nonbinding_prefetch: true,
                    ..base
                },
                DsConfig {
                    speculative_loads: true,
                    ..base
                },
                DsConfig {
                    issue_width: 4,
                    ..base
                },
            ];
            for (i, cfg) in variants.into_iter().enumerate() {
                assert_equivalent(
                    &format!("case {case} {model} ablation {i}"),
                    cfg,
                    &program,
                    &trace,
                );
            }
        }
    }
}

/// Degenerate traces must not trip the skip logic's progress bound.
#[test]
fn skip_handles_tiny_and_uniform_traces() {
    // Empty trace.
    let mut a = Assembler::new();
    a.halt();
    let p = a.assemble().unwrap();
    assert_equivalent("empty", DsConfig::rc(), &p, &Trace::new());

    // One giant miss.
    let mut a = Assembler::new();
    a.load(IntReg::T1, IntReg::G0, 0);
    a.halt();
    let p = a.assemble().unwrap();
    let t = Trace::from_entries(vec![TraceEntry {
        pc: 0,
        op: TraceOp::Load(MemAccess::miss(0, 10_000)),
    }]);
    for w in [1, 64] {
        assert_equivalent("one miss", DsConfig::rc().window(w), &p, &t);
    }

    // A long pure-compute run (fetch-limited, no memops at all).
    let mut a = Assembler::new();
    let mut entries = Vec::new();
    for i in 0..500u32 {
        a.addi(IntReg::T1, IntReg::T1, 1);
        entries.push(TraceEntry::compute(i));
    }
    a.halt();
    let p = a.assemble().unwrap();
    assert_equivalent(
        "pure compute",
        DsConfig::rc().window(8),
        &p,
        &Trace::from_entries(entries),
    );
}
