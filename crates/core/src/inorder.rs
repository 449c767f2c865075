//! The statically scheduled processors: SSBR and SS.
//!
//! **SSBR** (statically scheduled, blocking reads) stalls for every
//! read's return value; writes go into a 16-entry write buffer so the
//! processor can run ahead of them. **SS** issues reads without
//! blocking (into a 16-entry read buffer) and stalls only at the first
//! *use* of the return value — which, as the paper observes (§4.1.1),
//! is usually a few instructions later, so SS gains little over SSBR
//! without compiler rescheduling.
//!
//! Both processors are in-order, so the consistency model's effect is
//! expressed entirely through when buffered operations may *perform*:
//!
//! * a load (or acquire) stalls the processor until every earlier
//!   buffered operation the model orders before it has performed —
//!   under SC that means the write buffer must drain before every
//!   read, which is exactly why SC hides nothing;
//! * a buffered write's completion time is pushed back behind earlier
//!   writes it must not overtake (serialized draining under SC/PC,
//!   overlapped under WO/RC);
//! * a release completes only after everything before it has
//!   performed, under every model.
//!
//! Stall attribution follows the paper: waiting for buffered writes
//! (including releases) is write time, waiting for outstanding reads
//! is read time, the wait-plus-access of an acquire is sync time.

use crate::consistency::{ConsistencyModel, MemOpKind};
use crate::model::{ExecutionResult, ProcessorModel};
use lookahead_isa::{Program, SyncKind};
#[cfg(feature = "obs")]
use lookahead_obs::{self as obs, EventKind};
use lookahead_trace::{EntryView, OpClass, StreamError, TraceSource};
use std::collections::VecDeque;

/// A statically scheduled in-order processor (SSBR or SS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InOrder {
    /// Consistency model enforced by the load/store unit.
    pub model: ConsistencyModel,
    /// `true` for SSBR (stall for every read), `false` for SS
    /// (stall at first use).
    pub blocking_reads: bool,
    /// Write buffer depth (paper: 16).
    pub write_buffer_depth: usize,
    /// Read buffer depth for SS (paper: 16).
    pub read_buffer_depth: usize,
}

impl InOrder {
    /// The paper's SSBR configuration under `model`.
    pub fn ssbr(model: ConsistencyModel) -> InOrder {
        InOrder {
            model,
            blocking_reads: true,
            write_buffer_depth: 16,
            read_buffer_depth: 16,
        }
    }

    /// The paper's SS configuration under `model`.
    pub fn ss(model: ConsistencyModel) -> InOrder {
        InOrder {
            blocking_reads: false,
            ..InOrder::ssbr(model)
        }
    }
}

/// Which category a stall is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallClass {
    Read,
    Write,
}

#[derive(Debug)]
struct Engine<'a> {
    cfg: InOrder,
    program: &'a Program,
    now: u64,
    /// Buffered writes/releases: (kind, completion time).
    writes: VecDeque<(MemOpKind, u64)>,
    /// Outstanding (non-blocking) reads: completion times.
    reads: VecDeque<u64>,
    /// Per-register value-ready times (ints 0..32, fp 32..64).
    reg_ready: [u64; 64],
    /// PC of the trace entry currently executing, for stall blame.
    #[cfg(feature = "obs")]
    cur_pc: u32,
    result: ExecutionResult,
}

impl<'a> Engine<'a> {
    fn new(cfg: InOrder, program: &'a Program) -> Engine<'a> {
        Engine {
            cfg,
            program,
            now: 0,
            writes: VecDeque::new(),
            reads: VecDeque::new(),
            reg_ready: [0; 64],
            #[cfg(feature = "obs")]
            cur_pc: 0,
            result: ExecutionResult::default(),
        }
    }

    /// Records `cycles` stalled cycles starting at `from`, blamed on
    /// the current instruction.
    #[cfg(feature = "obs")]
    fn obs_stall(&self, from: u64, cycles: u64, class: obs::StallClass, cause: obs::StallCause) {
        let pc = self.cur_pc;
        obs::with(|r| r.stall_span(from, cycles, pc, class, cause));
    }

    fn stall_to(&mut self, t: u64, class: StallClass) {
        if t > self.now {
            let d = t - self.now;
            match class {
                StallClass::Read => self.result.breakdown.read += d,
                StallClass::Write => self.result.breakdown.write += d,
            }
            #[cfg(feature = "obs")]
            {
                // Every read-class wait in this model is ultimately a
                // wait for an outstanding load's value (operand stalls
                // included), so it attributes as a read miss; write-
                // class waits are buffered-write drains.
                let (c, cause) = match class {
                    StallClass::Read => (obs::StallClass::Read, obs::StallCause::ReadMiss),
                    StallClass::Write => (obs::StallClass::Write, obs::StallCause::WriteMiss),
                };
                self.obs_stall(self.now, d, c, cause);
            }
            self.now = t;
        }
    }

    fn retire_buffers(&mut self) {
        let now = self.now;
        while self.writes.front().is_some_and(|&(_, t)| t <= now) {
            self.writes.pop_front();
        }
        while self.reads.front().is_some_and(|&t| t <= now) {
            self.reads.pop_front();
        }
    }

    /// The time by which every earlier buffered operation that `kind`
    /// must wait for will have performed, with the class of the
    /// latest constraint for attribution.
    fn constraint(&self, kind: MemOpKind) -> (u64, StallClass) {
        let mut t = self.now;
        let mut class = StallClass::Read;
        for &(k, done) in &self.writes {
            if self.cfg.model.must_wait_for(k, kind) && done > t {
                t = done;
                class = StallClass::Write;
            }
        }
        for &done in &self.reads {
            if self.cfg.model.must_wait_for(MemOpKind::Read, kind) && done > t {
                t = done;
                class = StallClass::Read;
            }
        }
        (t, class)
    }

    /// Stall until the processor may logically issue an operation of
    /// `kind` (loads and acquires stall the in-order pipe; buffered
    /// writes do not go through here).
    fn wait_for_issue(&mut self, kind: MemOpKind) {
        let (t, class) = self.constraint(kind);
        self.stall_to(t, class);
    }

    /// The completion time a buffered write/release observed now would
    /// have, honoring ordering against earlier buffered operations.
    fn buffered_completion(&self, kind: MemOpKind, latency: u32) -> u64 {
        let (t, _) = self.constraint(kind);
        t.max(self.now) + latency as u64
    }

    /// Stall (as `class`) until the write buffer has a free slot.
    fn wait_for_write_slot(&mut self) {
        // Drop already-completed entries first: `now` may have moved
        // past them during an operand stall, and a buffer that is only
        // stale-full costs nothing.
        self.retire_buffers();
        while self.writes.len() >= self.cfg.write_buffer_depth {
            let (_, head) = *self.writes.front().expect("non-empty");
            self.result.stats.write_buffer_full_stalls += 1;
            self.stall_to(head, StallClass::Write);
            self.retire_buffers();
        }
    }

    /// For SS: stall until all source registers of the instruction at
    /// `pc` are ready (the first-use stall).
    fn wait_for_operands(&mut self, pc: u32) {
        if self.cfg.blocking_reads {
            return; // registers are always ready on a blocking machine
        }
        let Some(instr) = self.program.fetch(pc as usize) else {
            return;
        };
        let mut t = self.now;
        for r in instr.int_sources().iter() {
            t = t.max(self.reg_ready[r.index()]);
        }
        for r in instr.fp_sources().iter() {
            t = t.max(self.reg_ready[32 + r.index()]);
        }
        self.stall_to(t, StallClass::Read);
    }

    fn set_dest_ready(&mut self, pc: u32, at: u64) {
        let Some(instr) = self.program.fetch(pc as usize) else {
            return;
        };
        if let Some(r) = instr.int_dest() {
            self.reg_ready[r.index()] = at;
        }
        if let Some(r) = instr.fp_dest() {
            self.reg_ready[32 + r.index()] = at;
        }
    }

    fn run_source(mut self, source: &mut dyn TraceSource) -> Result<ExecutionResult, StreamError> {
        while let Some(chunk) = source.next_chunk()? {
            for view in chunk.views() {
                self.step(&view);
            }
        }
        Ok(self.finish())
    }

    /// Advances the engine over one trace entry, reading its SoA
    /// columns directly through the view.
    fn step(&mut self, entry: &EntryView<'_>) {
        {
            #[cfg(feature = "obs")]
            {
                self.cur_pc = entry.pc();
            }
            self.retire_buffers();
            self.wait_for_operands(entry.pc());
            self.result.stats.instructions += 1;
            // Every instruction contributes exactly one busy cycle in
            // this model, so attribution's busy count equals the
            // instruction count.
            #[cfg(feature = "obs")]
            obs::with(|r| r.busy_cycle());
            match entry.class() {
                OpClass::Compute | OpClass::Jump => {
                    self.result.breakdown.busy += 1;
                    self.set_dest_ready(entry.pc(), self.now + 1);
                    self.now += 1;
                }
                OpClass::Branch => {
                    self.result.stats.branches += 1;
                    self.result.breakdown.busy += 1;
                    self.now += 1;
                }
                OpClass::Load => {
                    let latency = entry.latency();
                    self.wait_for_issue(MemOpKind::Read);
                    self.retire_buffers();
                    self.result.breakdown.busy += 1;
                    if self.cfg.blocking_reads {
                        self.result.breakdown.read += (latency - 1) as u64;
                        #[cfg(feature = "obs")]
                        self.obs_stall(
                            self.now + 1,
                            (latency - 1) as u64,
                            obs::StallClass::Read,
                            obs::StallCause::ReadMiss,
                        );
                        self.now += latency as u64;
                    } else {
                        // Non-blocking: issue, record availability,
                        // move on. Structural: bounded read buffer.
                        while self.reads.len() >= self.cfg.read_buffer_depth {
                            let head = *self.reads.front().expect("non-empty");
                            self.stall_to(head, StallClass::Read);
                            self.retire_buffers();
                        }
                        let done = self.now + latency as u64;
                        self.reads.push_back(done);
                        self.set_dest_ready(entry.pc(), done);
                        self.now += 1;
                    }
                }
                OpClass::Store => {
                    self.wait_for_write_slot();
                    let done = self.buffered_completion(MemOpKind::Write, entry.latency());
                    self.writes.push_back((MemOpKind::Write, done));
                    self.result.breakdown.busy += 1;
                    self.now += 1;
                }
                OpClass::Sync(sync) => {
                    let kind = sync_mem_kind(sync);
                    match sync {
                        SyncKind::Lock | SyncKind::WaitEvent | SyncKind::Barrier => {
                            let (wait, access) = (entry.wait(), entry.latency());
                            self.wait_for_issue(kind);
                            self.retire_buffers();
                            self.result.breakdown.busy += 1;
                            self.result.breakdown.sync += wait as u64 + (access - 1) as u64;
                            #[cfg(feature = "obs")]
                            {
                                let (now, addr) = (self.now, entry.addr());
                                let dur = wait as u64 + access as u64;
                                obs::with(|r| r.event(now, EventKind::AcquireWait { addr, dur }));
                                self.obs_stall(
                                    self.now + 1,
                                    wait as u64 + (access - 1) as u64,
                                    obs::StallClass::Sync,
                                    obs::StallCause::Acquire,
                                );
                            }
                            self.now += wait as u64 + access as u64;
                        }
                        SyncKind::Unlock | SyncKind::SetEvent => {
                            self.wait_for_write_slot();
                            let done = self.buffered_completion(kind, entry.latency());
                            self.writes.push_back((kind, done));
                            self.result.breakdown.busy += 1;
                            self.now += 1;
                        }
                    }
                }
            }
        }
    }

    /// Settles end-of-trace state and returns the result.
    fn finish(mut self) -> ExecutionResult {
        // Drain: execution ends when the last buffered operation
        // performs. Completion times are not monotonic in issue order
        // (a hit issued after a miss finishes first), so take the max.
        let read_drain = self.reads.iter().copied().max().unwrap_or(0);
        let write_drain = self.writes.iter().map(|&(_, t)| t).max().unwrap_or(0);
        if read_drain > self.now || write_drain > self.now {
            if write_drain >= read_drain {
                self.stall_to(read_drain, StallClass::Read);
                self.stall_to(write_drain, StallClass::Write);
            } else {
                self.stall_to(write_drain, StallClass::Write);
                self.stall_to(read_drain, StallClass::Read);
            }
        }
        self.result
    }
}

fn sync_mem_kind(kind: SyncKind) -> MemOpKind {
    match kind {
        SyncKind::Lock | SyncKind::WaitEvent => MemOpKind::Acquire,
        SyncKind::Unlock | SyncKind::SetEvent => MemOpKind::Release,
        SyncKind::Barrier => MemOpKind::Barrier,
    }
}

impl ProcessorModel for InOrder {
    fn name(&self) -> String {
        format!(
            "{}/{}",
            if self.blocking_reads { "SSBR" } else { "SS" },
            self.model
        )
    }

    fn run_source(
        &self,
        program: &Program,
        source: &mut dyn TraceSource,
    ) -> Result<ExecutionResult, StreamError> {
        Engine::new(*self, program).run_source(source)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Base;
    use lookahead_isa::{Assembler, IntReg};
    use lookahead_trace::{MemAccess, SyncAccess, Trace, TraceEntry, TraceOp};

    /// A program/trace pair: two miss stores then a compute tail.
    fn store_heavy() -> (Program, Trace) {
        let mut a = Assembler::new();
        a.li(IntReg::T0, 0);
        a.store(IntReg::T0, IntReg::T0, 0);
        a.store(IntReg::T0, IntReg::T0, 64);
        for _ in 0..10 {
            a.addi(IntReg::T1, IntReg::T1, 1);
        }
        a.halt();
        let p = a.assemble().unwrap();
        let mut entries = vec![TraceEntry::compute(0)];
        entries.push(TraceEntry {
            pc: 1,
            op: TraceOp::Store(MemAccess::miss(0, 50)),
        });
        entries.push(TraceEntry {
            pc: 2,
            op: TraceOp::Store(MemAccess::miss(64, 50)),
        });
        for i in 0..10 {
            entries.push(TraceEntry::compute(3 + i));
        }
        (p, Trace::from_entries(entries))
    }

    #[test]
    fn write_latency_hidden_under_all_models_with_buffering() {
        // Writes never stall the processor here (buffer is deep
        // enough and nothing reads afterwards), so SSBR under any
        // model beats BASE, which serializes both stores.
        let (p, t) = store_heavy();
        let base = Base.run(&p, &t);
        for model in ConsistencyModel::ALL {
            let r = InOrder::ssbr(model).run(&p, &t);
            assert!(
                r.cycles() < base.cycles(),
                "{model}: {} !< {}",
                r.cycles(),
                base.cycles()
            );
        }
    }

    /// Store miss then load miss to a different line.
    fn store_then_load() -> (Program, Trace) {
        let mut a = Assembler::new();
        a.store(IntReg::T0, IntReg::T0, 0);
        a.load(IntReg::T1, IntReg::T0, 64);
        a.halt();
        let p = a.assemble().unwrap();
        let t = Trace::from_entries(vec![
            TraceEntry {
                pc: 0,
                op: TraceOp::Store(MemAccess::miss(0, 50)),
            },
            TraceEntry {
                pc: 1,
                op: TraceOp::Load(MemAccess::miss(64, 50)),
            },
        ]);
        (p, t)
    }

    #[test]
    fn sc_read_waits_for_pending_write_but_pc_bypasses() {
        let (p, t) = store_then_load();
        let sc = InOrder::ssbr(ConsistencyModel::Sc).run(&p, &t);
        let pc = InOrder::ssbr(ConsistencyModel::Pc).run(&p, &t);
        // SC: store issues (1 busy), load waits ~49 more for the
        // store to perform, then 50 for itself.
        assert!(sc.breakdown.write >= 45, "SC write stall: {}", sc.breakdown);
        assert_eq!(pc.breakdown.write, 0, "PC read bypasses: {}", pc.breakdown);
        assert!(pc.cycles() < sc.cycles());
    }

    #[test]
    fn serialized_vs_overlapped_write_drain() {
        // Two miss stores: under PC they serialize in the buffer
        // (drain by ~100), under RC they overlap (drain by ~51).
        // A trailing release observes the difference.
        let mut a = Assembler::new();
        a.store(IntReg::T0, IntReg::T0, 0);
        a.store(IntReg::T0, IntReg::T0, 64);
        a.unlock(IntReg::T0, 128);
        a.halt();
        let p = a.assemble().unwrap();
        let t = Trace::from_entries(vec![
            TraceEntry {
                pc: 0,
                op: TraceOp::Store(MemAccess::miss(0, 50)),
            },
            TraceEntry {
                pc: 1,
                op: TraceOp::Store(MemAccess::miss(64, 50)),
            },
            TraceEntry {
                pc: 2,
                op: TraceOp::Sync(SyncAccess {
                    kind: SyncKind::Unlock,
                    addr: 128,
                    wait: 0,
                    access: 50,
                }),
            },
        ]);
        let pc = InOrder::ssbr(ConsistencyModel::Pc).run(&p, &t);
        let rc = InOrder::ssbr(ConsistencyModel::Rc).run(&p, &t);
        assert!(
            rc.cycles() + 40 < pc.cycles(),
            "RC {} should beat PC {} by ~one miss",
            rc.cycles(),
            pc.cycles()
        );
    }

    #[test]
    fn write_buffer_full_stalls_processor() {
        let mut a = Assembler::new();
        for i in 0..4 {
            a.store(IntReg::T0, IntReg::T0, i * 64);
        }
        a.halt();
        let p = a.assemble().unwrap();
        let entries: Vec<_> = (0..4)
            .map(|i| TraceEntry {
                pc: i,
                op: TraceOp::Store(MemAccess::miss(i as u64 * 64, 50)),
            })
            .collect();
        let t = Trace::from_entries(entries);
        let tiny = InOrder {
            write_buffer_depth: 2,
            ..InOrder::ssbr(ConsistencyModel::Rc)
        };
        let r = tiny.run(&p, &t);
        assert!(r.breakdown.write > 0, "{}", r.breakdown);
        assert!(r.stats.write_buffer_full_stalls > 0);
    }

    /// Load miss whose value is used immediately (load-use).
    fn load_use(gap: usize) -> (Program, Trace) {
        let mut a = Assembler::new();
        a.load(IntReg::T1, IntReg::T0, 0);
        for _ in 0..gap {
            a.addi(IntReg::T2, IntReg::T2, 1); // independent
        }
        a.addi(IntReg::T3, IntReg::T1, 1); // first use
        a.halt();
        let p = a.assemble().unwrap();
        let mut entries = vec![TraceEntry {
            pc: 0,
            op: TraceOp::Load(MemAccess::miss(0, 50)),
        }];
        for i in 0..gap {
            entries.push(TraceEntry::compute(1 + i as u32));
        }
        entries.push(TraceEntry::compute(1 + gap as u32));
        (p, Trace::from_entries(entries))
    }

    #[test]
    fn ss_overlaps_independent_work_until_first_use() {
        let (p0, t0) = load_use(0);
        let (p40, t40) = load_use(40);
        let rc = ConsistencyModel::Rc;
        let ssbr0 = InOrder::ssbr(rc).run(&p0, &t0);
        let ss0 = InOrder::ss(rc).run(&p0, &t0);
        // With no independent work, SS gains roughly nothing.
        assert!(ss0.cycles() + 2 >= ssbr0.cycles());
        let ssbr40 = InOrder::ssbr(rc).run(&p40, &t40);
        let ss40 = InOrder::ss(rc).run(&p40, &t40);
        // With 40 independent instructions, SS hides most of the miss.
        assert!(
            ss40.cycles() + 35 < ssbr40.cycles(),
            "SS {} vs SSBR {}",
            ss40.cycles(),
            ssbr40.cycles()
        );
        assert!(ss40.breakdown.read < ssbr40.breakdown.read);
    }

    #[test]
    fn ss_read_buffer_capacity_limits_overlap() {
        // More outstanding loads than buffer slots forces stalls.
        let mut a = Assembler::new();
        for i in 0..6 {
            a.load(IntReg::T1, IntReg::T0, i * 64);
        }
        a.halt();
        let p = a.assemble().unwrap();
        let entries: Vec<_> = (0..6)
            .map(|i| TraceEntry {
                pc: i,
                op: TraceOp::Load(MemAccess::miss(i as u64 * 64, 50)),
            })
            .collect();
        let t = Trace::from_entries(entries);
        let wide = InOrder::ss(ConsistencyModel::Rc).run(&p, &t);
        let narrow = InOrder {
            read_buffer_depth: 2,
            ..InOrder::ss(ConsistencyModel::Rc)
        }
        .run(&p, &t);
        assert!(narrow.cycles() > wide.cycles());
    }

    #[test]
    fn acquire_charged_to_sync_time() {
        let mut a = Assembler::new();
        a.lock(IntReg::T0, 0);
        a.halt();
        let p = a.assemble().unwrap();
        let t = Trace::from_entries(vec![TraceEntry {
            pc: 0,
            op: TraceOp::Sync(SyncAccess {
                kind: SyncKind::Lock,
                addr: 0,
                wait: 100,
                access: 50,
            }),
        }]);
        let r = InOrder::ssbr(ConsistencyModel::Rc).run(&p, &t);
        assert_eq!(r.breakdown.sync, 100 + 49);
        assert_eq!(r.breakdown.busy, 1);
    }

    #[test]
    fn drain_covers_out_of_order_completions() {
        // Regression: a long miss followed by a short hit at end of
        // trace — the drain must wait for the *max* completion, not
        // the last-issued read's.
        let mut a = Assembler::new();
        a.load(IntReg::T1, IntReg::T0, 0);
        a.load(IntReg::T2, IntReg::T0, 64);
        a.halt();
        let p = a.assemble().unwrap();
        let t = Trace::from_entries(vec![
            TraceEntry {
                pc: 0,
                op: TraceOp::Load(MemAccess::miss(0, 50)),
            },
            TraceEntry {
                pc: 1,
                op: TraceOp::Load(MemAccess::hit(64)),
            },
        ]);
        let r = InOrder::ss(ConsistencyModel::Rc).run(&p, &t);
        assert!(
            r.cycles() >= 50,
            "drain dropped the in-flight miss: {} cycles",
            r.cycles()
        );
    }

    #[test]
    fn names() {
        assert_eq!(InOrder::ssbr(ConsistencyModel::Sc).name(), "SSBR/SC");
        assert_eq!(InOrder::ss(ConsistencyModel::Rc).name(), "SS/RC");
    }

    #[test]
    fn breakdown_totals_are_consistent() {
        let (p, t) = store_then_load();
        for model in ConsistencyModel::ALL {
            for cfg in [InOrder::ssbr(model), InOrder::ss(model)] {
                let r = cfg.run(&p, &t);
                assert_eq!(r.breakdown.busy, t.len() as u64, "{}", cfg.name());
                assert!(r.cycles() >= t.len() as u64);
            }
        }
    }
}
