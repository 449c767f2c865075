//! The streaming contract of every re-timing engine: chunking never
//! changes a result. Pulling a trace through
//! [`ProcessorModel::run_source`] in chunks of any size must reproduce
//! the one-entry-per-chunk run exactly — the full breakdown and all
//! statistics, for every engine (BASE, SSBR, SS, DS) and every
//! consistency model, at chunk sizes chosen to hit every boundary case
//! (a size coprime to the trace length, the default, and one chunk
//! covering the whole trace). The absolute values are pinned
//! elsewhere: by `ds_digests` and the report goldens.

use lookahead_core::base::Base;
use lookahead_core::ds::{Ds, DsConfig};
use lookahead_core::inorder::InOrder;
use lookahead_core::{ConsistencyModel, ProcessorModel};
use lookahead_isa::instr::BranchCond;
use lookahead_isa::rng::XorShift64;
use lookahead_isa::{Assembler, IntReg, Program, SyncKind};
use lookahead_trace::{
    MemAccess, SliceSource, SyncAccess, Trace, TraceEntry, TraceOp, DEFAULT_CHUNK_LEN,
};

/// A random workload over the full trace vocabulary (mirrors the
/// skip-equivalence generator: loads, stores, paired lock/unlock,
/// data-dependent branches, varying miss latencies).
fn gen_workload(rng: &mut XorShift64) -> (Program, Trace) {
    let regs = [IntReg::T1, IntReg::T2, IntReg::T3, IntReg::T4];
    let latencies = [20u32, 50, 100, 200];
    let steps = rng.range_usize(149) + 1;
    let mut a = Assembler::new();
    let mut entries = Vec::new();
    let mut pc = 0u32;
    let mut held_lock = false;
    for _ in 0..steps {
        let op = rng.next_below(10);
        let addr = rng.next_below(48) * 8;
        let miss = rng.next_bool();
        let r = *rng.choose(&regs);
        let latency = if miss { *rng.choose(&latencies) } else { 1 };
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
                    (SyncKind::Lock, rng.next_below(150) as u32)
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
                        access: if miss { latency.max(2) } else { 1 },
                    }),
                });
            }
            6 => {
                let fall = a.label();
                a.branch(BranchCond::Eq, r, IntReg::ZERO, fall);
                a.bind(fall).unwrap();
                entries.push(TraceEntry {
                    pc,
                    op: TraceOp::Branch {
                        taken: rng.next_bool(),
                        target: pc + 1,
                    },
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

const MODELS: [ConsistencyModel; 4] = [
    ConsistencyModel::Sc,
    ConsistencyModel::Pc,
    ConsistencyModel::Wo,
    ConsistencyModel::Rc,
];

/// Chunk sizes compared against the one-entry-per-chunk reference: a
/// size coprime to most trace lengths, the default, and a single chunk
/// larger than the trace.
fn chunk_sizes(trace: &Trace) -> [usize; 3] {
    [7, DEFAULT_CHUNK_LEN, trace.len() + 1]
}

fn assert_streamed_matches(
    tag: &str,
    model: &dyn ProcessorModel,
    program: &Program,
    trace: &Trace,
) {
    let run = |chunk_len: usize| {
        let mut source = SliceSource::with_chunk_len(trace, chunk_len);
        model
            .run_source(program, &mut source)
            .unwrap_or_else(|e| panic!("{tag} chunk {chunk_len}: stream failed: {e}"))
    };
    let reference = run(1);
    for chunk_len in chunk_sizes(trace) {
        assert_eq!(
            run(chunk_len),
            reference,
            "{tag} ({}) chunk {chunk_len}: the result depends on the chunking",
            model.name()
        );
    }
}

#[test]
fn base_and_inorder_stream_equals_materialized() {
    let mut rng = XorShift64::seed_from_u64(0x57E4_0001);
    for case in 0..16 {
        let (program, trace) = gen_workload(&mut rng);
        assert_streamed_matches(&format!("case {case}"), &Base, &program, &trace);
        for model in MODELS {
            for engine in [InOrder::ssbr(model), InOrder::ss(model)] {
                assert_streamed_matches(&format!("case {case}"), &engine, &program, &trace);
            }
        }
    }
}

#[test]
fn ds_stream_equals_materialized_across_windows_and_models() {
    let mut rng = XorShift64::seed_from_u64(0x57E4_0002);
    for case in 0..12 {
        let (program, trace) = gen_workload(&mut rng);
        for model in MODELS {
            for w in [1, 16, 64] {
                let ds = Ds::new(DsConfig::with_model(model).window(w));
                assert_streamed_matches(&format!("case {case} w{w}"), &ds, &program, &trace);
            }
        }
    }
}

#[test]
fn ds_stream_handles_degenerate_traces() {
    let mut a = Assembler::new();
    a.halt();
    let p = a.assemble().unwrap();
    assert_streamed_matches("empty", &Ds::new(DsConfig::rc()), &p, &Trace::new());

    let mut a = Assembler::new();
    a.load(IntReg::T1, IntReg::G0, 0);
    a.halt();
    let p = a.assemble().unwrap();
    let t = Trace::from_entries(vec![TraceEntry {
        pc: 0,
        op: TraceOp::Load(MemAccess::miss(0, 10_000)),
    }]);
    assert_streamed_matches("one miss", &Ds::new(DsConfig::rc()), &p, &t);
}
