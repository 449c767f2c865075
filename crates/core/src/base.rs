//! The BASE processor: in-order execution with no overlap at all.
//!
//! BASE "completes each operation before initiating the next one
//! (i.e., no overlap in execution of instructions and memory
//! operations)" (§4.1). It is the left-most, 100%-height bar of
//! Figure 3 that every other configuration is normalized against.
//!
//! Costs per operation: one busy cycle for every instruction, the full
//! memory latency for every load *and* store (nothing is buffered),
//! and wait-plus-access for every synchronization operation. Releases
//! are charged to write time, acquires to sync time, matching the
//! paper's accounting ("release operations are included in the total
//! write miss time").

use crate::model::{ExecutionResult, ProcessorModel};
use lookahead_isa::Program;
#[cfg(feature = "obs")]
use lookahead_obs as obs;
use lookahead_trace::{EntryView, OpClass, StreamError, TraceSource};

/// Records `n` stalled cycles starting at `from`, blamed on `pc`.
#[cfg(feature = "obs")]
fn stall(from: u64, pc: u32, n: u64, class: obs::StallClass, cause: obs::StallCause) {
    obs::with(|r| r.stall_span(from, n, pc, class, cause));
}

/// The no-overlap in-order processor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Base;

/// Incremental BASE accounting: one `step` per trace entry.
#[derive(Debug, Default)]
struct Accounting {
    result: ExecutionResult,
    #[cfg(feature = "obs")]
    now: u64,
}

impl Accounting {
    /// Reads the entry's SoA columns directly through its view.
    fn step(&mut self, entry: &EntryView<'_>) {
        let result = &mut self.result;
        #[cfg(feature = "obs")]
        let now = self.now;
        let b = &mut result.breakdown;
        {
            b.busy += 1;
            result.stats.instructions += 1;
            #[cfg(feature = "obs")]
            obs::with(|r| r.busy_cycle());
            // Cycles past the busy one this entry serializes for.
            #[cfg(feature = "obs")]
            let mut spent = 0u64;
            match entry.class() {
                OpClass::Compute | OpClass::Jump => {}
                OpClass::Branch => {
                    result.stats.branches += 1;
                }
                OpClass::Load => {
                    let d = (entry.latency() - 1) as u64;
                    b.read += d;
                    #[cfg(feature = "obs")]
                    {
                        stall(
                            now + 1,
                            entry.pc(),
                            d,
                            obs::StallClass::Read,
                            obs::StallCause::ReadMiss,
                        );
                        spent = d;
                    }
                }
                OpClass::Store => {
                    let d = (entry.latency() - 1) as u64;
                    b.write += d;
                    #[cfg(feature = "obs")]
                    {
                        stall(
                            now + 1,
                            entry.pc(),
                            d,
                            obs::StallClass::Write,
                            obs::StallCause::WriteMiss,
                        );
                        spent = d;
                    }
                }
                OpClass::Sync(kind) => {
                    let d = entry.wait() as u64 + (entry.latency() - 1) as u64;
                    if kind.is_acquire() {
                        b.sync += d;
                        #[cfg(feature = "obs")]
                        stall(
                            now + 1,
                            entry.pc(),
                            d,
                            obs::StallClass::Sync,
                            obs::StallCause::Acquire,
                        );
                    } else {
                        b.write += d;
                        #[cfg(feature = "obs")]
                        stall(
                            now + 1,
                            entry.pc(),
                            d,
                            obs::StallClass::Write,
                            obs::StallCause::WriteMiss,
                        );
                    }
                    #[cfg(feature = "obs")]
                    {
                        spent = d;
                    }
                }
            }
            #[cfg(feature = "obs")]
            {
                self.now = now + 1 + spent;
            }
        }
    }
}

impl ProcessorModel for Base {
    fn name(&self) -> String {
        "BASE".to_string()
    }

    fn run_source(
        &self,
        _program: &Program,
        source: &mut dyn TraceSource,
    ) -> Result<ExecutionResult, StreamError> {
        let mut acc = Accounting::default();
        while let Some(chunk) = source.next_chunk()? {
            for view in chunk.views() {
                acc.step(&view);
            }
        }
        Ok(acc.result)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookahead_isa::SyncKind;
    use lookahead_trace::{MemAccess, SyncAccess, Trace, TraceEntry, TraceOp};

    fn entry(pc: u32, op: TraceOp) -> TraceEntry {
        TraceEntry { pc, op }
    }

    #[test]
    fn base_serializes_every_latency() {
        let trace = Trace::from_entries(vec![
            entry(0, TraceOp::Compute),
            entry(1, TraceOp::Load(MemAccess::miss(0, 50))),
            entry(2, TraceOp::Store(MemAccess::miss(16, 50))),
            entry(3, TraceOp::Load(MemAccess::hit(0))),
            entry(
                4,
                TraceOp::Sync(SyncAccess {
                    kind: SyncKind::Lock,
                    addr: 8,
                    wait: 30,
                    access: 50,
                }),
            ),
            entry(
                5,
                TraceOp::Sync(SyncAccess {
                    kind: SyncKind::Unlock,
                    addr: 8,
                    wait: 0,
                    access: 50,
                }),
            ),
        ]);
        let r = Base.run(&Program::default(), &trace);
        assert_eq!(r.breakdown.busy, 6);
        assert_eq!(r.breakdown.read, 49, "one read miss");
        assert_eq!(r.breakdown.write, 49 + 49, "store miss + release");
        assert_eq!(r.breakdown.sync, 30 + 49, "lock wait + access");
        assert_eq!(r.cycles(), 6 + 49 + 98 + 79);
        assert_eq!(r.stats.instructions, 6);
    }

    #[test]
    fn base_on_pure_compute_is_trace_length() {
        let trace: Trace = (0..100).map(TraceEntry::compute).collect();
        let r = Base.run(&Program::default(), &trace);
        assert_eq!(r.cycles(), 100);
        assert_eq!(r.breakdown.busy, 100);
    }

    #[test]
    fn name_is_base() {
        assert_eq!(Base.name(), "BASE");
    }
}
