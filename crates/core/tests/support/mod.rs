//! Random DS workloads shared by the DS test suites.

use lookahead_isa::instr::BranchCond;
use lookahead_isa::rng::XorShift64;
use lookahead_isa::{Assembler, IntReg, Program, SyncKind};
use lookahead_trace::{MemAccess, SyncAccess, Trace, TraceEntry, TraceOp};

/// A random workload over the full trace vocabulary — loads, stores,
/// compute, paired lock/unlock, and data-dependent branches (which
/// exercise the misprediction fetch-stall / fetch-resume path the skip
/// logic must respect). Miss latencies vary per access so completion
/// times do not align on a lattice.
pub fn gen_workload(rng: &mut XorShift64) -> (Program, Trace) {
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
