//! The stall-attribution reconciliation invariant (only meaningful
//! with the instrumentation compiled in): for every processor model,
//! every cycle of a run is accounted exactly once, and the per-class
//! attribution sums equal the model's own execution-time breakdown.
//!
//! Concretely, with a fresh recorder installed around a run:
//!
//! * `class_cycles(Read) == breakdown.read` (ditto Write, Sync);
//! * `busy_cycles + class_cycles(Fetch) == breakdown.busy` (the models
//!   fold fetch-limited cycles into busy);
//! * `total_cycles() == cycles()`.
//!
//! This pins the instrumentation to the timing model: a stall path
//! added to a model without a matching attribution call fails here.
#![cfg(feature = "obs")]

use lookahead_core::base::Base;
use lookahead_core::contexts::Contexts;
use lookahead_core::ds::{Ds, DsConfig};
use lookahead_core::inorder::InOrder;
use lookahead_core::model::{ExecutionResult, ProcessorModel};
use lookahead_core::ConsistencyModel;
use lookahead_isa::rng::XorShift64;
use lookahead_isa::{Assembler, IntReg, Program, SyncKind};
use lookahead_obs::{Recorder, StallAttribution, StallClass};
use lookahead_trace::{MemAccess, SyncAccess, Trace, TraceEntry, TraceOp};

/// A random workload over the full trace vocabulary: loads, stores,
/// compute, and properly paired lock/unlock synchronization.
fn gen_workload(rng: &mut XorShift64) -> (Program, Trace) {
    let regs = [IntReg::T1, IntReg::T2, IntReg::T3, IntReg::T4];
    let steps = rng.range_usize(99) + 1;
    let mut a = Assembler::new();
    let mut entries = Vec::new();
    let mut pc = 0u32;
    let mut held_lock = false;
    for _ in 0..steps {
        let op = rng.next_below(8);
        let addr = rng.next_below(48) * 8;
        let miss = rng.next_bool();
        let r = *rng.choose(&regs);
        let latency = if miss { 50 } else { 1 };
        match op {
            0..=2 => {
                a.load(r, IntReg::G0, addr as i64);
                entries.push(TraceEntry {
                    pc,
                    op: TraceOp::Load(MemAccess {
                        addr,
                        miss,
                        latency,
                    }),
                });
            }
            3..=4 => {
                a.store(r, IntReg::G0, addr as i64);
                entries.push(TraceEntry {
                    pc,
                    op: TraceOp::Store(MemAccess {
                        addr,
                        miss,
                        latency,
                    }),
                });
            }
            5 => {
                let (kind, wait) = if held_lock {
                    (SyncKind::Unlock, 0)
                } else {
                    (SyncKind::Lock, rng.next_below(120) as u32)
                };
                if held_lock {
                    a.unlock(IntReg::G1, 0);
                } else {
                    a.lock(IntReg::G1, 0);
                }
                held_lock = !held_lock;
                entries.push(TraceEntry {
                    pc,
                    op: TraceOp::Sync(SyncAccess {
                        kind,
                        addr: 8,
                        wait,
                        access: if miss { 50 } else { 1 },
                    }),
                });
            }
            _ => {
                a.addi(r, r, 1);
                entries.push(TraceEntry::compute(pc));
            }
        }
        pc += 1;
    }
    if held_lock {
        a.unlock(IntReg::G1, 0);
        entries.push(TraceEntry {
            pc,
            op: TraceOp::Sync(SyncAccess {
                kind: SyncKind::Unlock,
                addr: 8,
                wait: 0,
                access: 1,
            }),
        });
    }
    a.halt();
    (a.assemble().unwrap(), Trace::from_entries(entries))
}

/// Runs `model` with a fresh recorder installed and returns the result
/// together with the captured attribution.
fn record(
    model: &dyn ProcessorModel,
    program: &Program,
    trace: &Trace,
) -> (ExecutionResult, StallAttribution) {
    lookahead_obs::install(Recorder::new(0));
    let result = model.run(program, trace);
    let rec = lookahead_obs::take().expect("recorder installed above");
    (result, rec.attribution)
}

/// Asserts the full reconciliation for one recorded run.
fn assert_reconciles(tag: &str, result: &ExecutionResult, attr: &StallAttribution) {
    let b = &result.breakdown;
    assert_eq!(
        attr.class_cycles(StallClass::Read),
        b.read,
        "{tag}: read cycles"
    );
    assert_eq!(
        attr.class_cycles(StallClass::Write),
        b.write,
        "{tag}: write cycles"
    );
    assert_eq!(
        attr.class_cycles(StallClass::Sync),
        b.sync,
        "{tag}: sync cycles"
    );
    assert_eq!(
        attr.busy_cycles + attr.class_cycles(StallClass::Fetch),
        b.busy,
        "{tag}: busy cycles"
    );
    assert_eq!(attr.total_cycles(), result.cycles(), "{tag}: total cycles");
}

const MODELS: [ConsistencyModel; 4] = [
    ConsistencyModel::Sc,
    ConsistencyModel::Pc,
    ConsistencyModel::Wo,
    ConsistencyModel::Rc,
];

#[test]
fn ds_attribution_reconciles() {
    let mut rng = XorShift64::seed_from_u64(0xA11);
    for case in 0..24 {
        let (program, trace) = gen_workload(&mut rng);
        for model in MODELS {
            for w in [4, 16, 64] {
                let ds = Ds::new(DsConfig::with_model(model).window(w));
                let (result, attr) = record(&ds, &program, &trace);
                assert_reconciles(&format!("case {case} {}", ds.name()), &result, &attr);
            }
        }
    }
}

#[test]
fn inorder_attribution_reconciles() {
    let mut rng = XorShift64::seed_from_u64(0xA12);
    for case in 0..24 {
        let (program, trace) = gen_workload(&mut rng);
        for model in MODELS {
            for io in [InOrder::ssbr(model), InOrder::ss(model)] {
                let (result, attr) = record(&io, &program, &trace);
                assert_reconciles(&format!("case {case} {}", io.name()), &result, &attr);
            }
        }
    }
}

#[test]
fn base_attribution_reconciles() {
    let mut rng = XorShift64::seed_from_u64(0xA13);
    for case in 0..24 {
        let (program, trace) = gen_workload(&mut rng);
        let (result, attr) = record(&Base, &program, &trace);
        assert_reconciles(&format!("case {case} BASE"), &result, &attr);
    }
}

#[test]
fn contexts_attribution_reconciles() {
    let mut rng = XorShift64::seed_from_u64(0xA14);
    for case in 0..24 {
        // run_traces takes several per-context traces; the program is
        // unused by the contexts model, so record() fits single-trace
        // runs only. Install/take around the multi-trace call by hand.
        let traces: Vec<(Program, Trace)> = (0..3).map(|_| gen_workload(&mut rng)).collect();
        let refs: Vec<&Trace> = traces.iter().map(|(_, t)| t).collect();
        let mc = Contexts::default();
        lookahead_obs::install(Recorder::new(0));
        let result = mc.run_traces(&refs);
        let attr = lookahead_obs::take()
            .expect("recorder installed above")
            .attribution;
        assert_reconciles(&format!("case {case} MC"), &result, &attr);
        // Switch overhead is charged to busy; check it is visible.
        assert!(
            attr.busy_cycles >= result.stats.instructions,
            "case {case}: busy must include switch overhead"
        );
    }
}

/// The recorder also journals coalesced stall spans whose durations
/// must sum to the per-cycle attribution totals (the journal and the
/// matrix describe the same cycles at different granularity).
#[test]
fn journal_stall_spans_sum_to_attribution() {
    use lookahead_obs::EventKind;
    let mut rng = XorShift64::seed_from_u64(0xA15);
    for case in 0..24 {
        let (program, trace) = gen_workload(&mut rng);
        let ds = Ds::new(DsConfig::rc().window(16));
        lookahead_obs::install(Recorder::new(0));
        let result = ds.run(&program, &trace);
        let rec = lookahead_obs::take().expect("recorder installed above");
        if rec.journal.dropped() > 0 {
            continue; // ring wrapped: the tail alone cannot sum up
        }
        let span_total: u64 = rec
            .journal
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Stall { dur, .. } => Some(dur),
                _ => None,
            })
            .sum();
        assert_eq!(
            span_total,
            rec.attribution.stall_cycles(),
            "case {case}: journal spans vs attribution matrix"
        );
        assert_eq!(
            rec.attribution.total_cycles(),
            result.cycles(),
            "case {case}"
        );
    }
}
