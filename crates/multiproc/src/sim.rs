//! The multiprocessor trace-generation simulator, in two engines.
//!
//! Each processor is the paper's trace-generation processor: in-order,
//! blocking reads, writes placed in a 16-entry write buffer draining
//! under release consistency, with the coherent cache model classifying
//! each access and the fixed-latency memory assigning its cost.
//!
//! **The discrete-event engine** ([`Simulator::run`] /
//! [`Simulator::run_with_sink`]) keeps one pending event per processor
//! — the next cycle it can make progress: instruction issue, load
//! return, full-write-buffer drain, lock grant, event-set visibility,
//! barrier release — in an [`EventQueue`]
//! ordered by `(cycle, processor id)`. The simulator pops the earliest
//! event, jumps `now` there in one step, and executes; cross-processor
//! wakeups (an unlock making a queued acquirer grantable, a set-event
//! reaching its waiters, the last barrier arrival) are scheduled at
//! their exact visibility cycle. Because every cross-processor
//! visibility time is strictly in the future and dispatch order equals
//! the reference engine's `(cycle, proc)` visit order, the two engines
//! mutate the shared cache, contention, and sync state in the same
//! order and produce byte-identical traces (pinned by the
//! `generation_equivalence` suite).
//!
//! **The reference engine** ([`Simulator::run_reference`] /
//! [`Simulator::run_reference_with_sink`]) is the original cycle
//! stepper: at each cycle every runnable processor executes at most
//! one instruction, in ascending processor order; when no processor
//! can run it fast-forwards to the next known event. It is the
//! specification the event engine is tested against.
//!
//! Stall cycles are attributed analytically at the point an
//! instruction's cost is known: a missing load adds `latency - 1` read
//! cycles, a blocked acquire adds its wait plus access latency to sync
//! time, and a full write buffer adds the cycles until its head drains
//! to write time. The per-processor [`Breakdown`]s therefore satisfy
//! `busy + sync + read + write == finish_time` exactly (tested).

use crate::config::SimConfig;
use crate::contention::MemoryContention;
use crate::event::EventQueue;
use crate::sync::{BarrierTable, EventTable, LockTable};
use lookahead_isa::interp::{Effect, FlatMemory, InterpError, Machine};
use lookahead_isa::program::DataImage;
use lookahead_isa::{Instruction, OpClass, Program, SyncKind};
use lookahead_memsys::{CoherenceStats, CoherentSystem, DrainPolicy, WriteBuffer};
#[cfg(feature = "obs")]
use lookahead_obs::{self as obs, Event, EventKind};
use lookahead_trace::{
    Breakdown, ChunkBuilder, CollectSink, MemAccess, SyncAccess, Trace, TraceEntry, TraceOp,
    TraceSink, DEFAULT_CHUNK_LEN,
};
use std::collections::HashMap;
use std::fmt;

/// Journals a cache hit/miss on processor `p`'s row at cycle `t`.
#[cfg(feature = "obs")]
fn cache_event(t: u64, p: usize, addr: u64, write: bool, miss: bool) {
    obs::with(|r| {
        let kind = if miss {
            EventKind::CacheMiss { addr, write }
        } else {
            EventKind::CacheHit { addr, write }
        };
        r.journal.push(Event {
            t,
            proc: p as u32,
            kind,
        });
    });
}

/// Journals an acquire that waited `wait` cycles then took `access`
/// cycles to perform, on processor `p`'s row.
#[cfg(feature = "obs")]
fn acquire_event(now: u64, p: usize, addr: u64, wait: u32, access: u32, counter: &'static str) {
    obs::with(|r| {
        r.metrics.inc(counter, 1);
        r.journal.push(Event {
            t: now.saturating_sub(wait as u64),
            proc: p as u32,
            kind: EventKind::AcquireWait {
                addr,
                dur: wait as u64 + access as u64,
            },
        });
    });
}

/// Errors from a multiprocessor simulation run.
#[derive(Debug)]
pub enum SimError {
    /// The configuration failed validation.
    Config(String),
    /// A processor hit an interpreter error (bad PC, unexpected block).
    Interp { proc: usize, error: InterpError },
    /// No processor can ever make progress again.
    Deadlock { cycle: u64, blocked: Vec<usize> },
    /// The run exceeded [`SimConfig::max_cycles`].
    CycleLimit { limit: u64 },
    /// The trace sink failed to accept a chunk (an I/O error when
    /// streaming trace generation straight to disk).
    Sink(std::io::Error),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Config(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::Interp { proc, error } => {
                write!(f, "processor {proc}: {error}")
            }
            SimError::Deadlock { cycle, blocked } => {
                write!(
                    f,
                    "deadlock at cycle {cycle}: processors {blocked:?} blocked forever"
                )
            }
            SimError::CycleLimit { limit } => write!(f, "exceeded cycle limit {limit}"),
            SimError::Sink(e) => write!(f, "trace sink failed: {e}"),
        }
    }
}

impl std::error::Error for SimError {}

/// Clamps a cycle delta into the `u32` wait field (saturating; waits
/// anywhere near 2^32 cycles mean the workload is pathological, but
/// the accounting must not wrap).
fn saturate(delta: u64) -> u32 {
    u32::try_from(delta).unwrap_or(u32::MAX)
}

/// Where a processor is in its execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    /// Can execute an instruction this cycle.
    Ready,
    /// Resumes execution at the given cycle.
    StallUntil { at: u64 },
    /// Waiting in a lock queue.
    BlockedLock { addr: u64, since: u64 },
    /// Waiting for an event to be set.
    BlockedEvent { addr: u64, since: u64 },
    /// Waiting for a barrier generation to complete.
    BlockedBarrier {
        addr: u64,
        generation: u64,
        since: u64,
    },
    /// Executed `halt`.
    Halted,
}

#[derive(Debug)]
struct Proc {
    machine: Machine,
    wb: WriteBuffer,
    status: Status,
    /// Bounded per-processor chunk buffer; completed chunks drain to
    /// the run's [`TraceSink`] instead of growing an owned trace.
    chunks: ChunkBuilder,
    breakdown: Breakdown,
    finish_time: u64,
}

impl Proc {
    #[inline]
    fn record(&mut self, entry: TraceEntry) {
        self.chunks.push(entry);
    }
}

/// Result of a completed multiprocessor run.
#[derive(Debug)]
pub struct SimOutcome {
    /// One annotated trace per processor when the run collected them
    /// ([`Simulator::run`]); empty when the chunks went to an external
    /// sink ([`Simulator::run_with_sink`]).
    pub traces: Vec<Trace>,
    /// Per-processor dynamic instruction counts — available on both
    /// the collected and the streamed path.
    pub entry_counts: Vec<u64>,
    /// Per-processor execution-time breakdown of the generating run
    /// (in-order blocking-read processors under RC).
    pub breakdowns: Vec<Breakdown>,
    /// Cycle at which each processor halted.
    pub finish_times: Vec<u64>,
    /// Cycle at which the last processor halted.
    pub total_cycles: u64,
    /// Per-processor cache/coherence statistics.
    pub coherence: Vec<CoherenceStats>,
    /// The shared memory at the end of the run, for verifying workload
    /// results.
    pub final_memory: FlatMemory,
}

impl SimOutcome {
    /// The trace of one processor.
    pub fn trace(&self, proc: usize) -> &Trace {
        &self.traces[proc]
    }

    /// The index of the processor with the most executed instructions —
    /// a reasonable "representative" processor to re-time, mirroring
    /// the paper's choice of one process's trace.
    pub fn busiest_proc(&self) -> usize {
        (0..self.entry_counts.len())
            .max_by_key(|&p| self.entry_counts[p])
            .unwrap_or(0)
    }
}

/// The multiprocessor simulator. Construct with [`Simulator::new`],
/// consume with [`Simulator::run`].
#[derive(Debug)]
pub struct Simulator {
    program: Program,
    config: SimConfig,
    mem: FlatMemory,
    coherent: CoherentSystem,
    procs: Vec<Proc>,
    locks: LockTable,
    events: EventTable,
    barriers: BarrierTable,
    contention: MemoryContention,
    now: u64,
    /// True on the discrete-event path; enables the wakeup bookkeeping
    /// below, which the per-cycle reference engine does not need (it
    /// re-polls every blocked processor each cycle).
    event_mode: bool,
    /// Cross-processor wakeups produced by the current dispatch:
    /// `(cycle, proc)` pairs flushed into the event queue after each
    /// dispatch, clamped to `now + 1` (a woken processor is re-visited
    /// no earlier than the next cycle, exactly as in the reference
    /// engine).
    pending_wakeups: Vec<(u64, usize)>,
    /// Processors blocked in `WaitEvent` per event address. Registered
    /// on block, deregistered on completion; a `SetEvent` wakes every
    /// registered waiter at the set's visibility cycle (which a later
    /// set may still pull earlier — waiters therefore stay registered
    /// until they actually complete).
    event_waiters: HashMap<u64, Vec<usize>>,
    /// Processors waiting per `(barrier address, generation)`. The
    /// arrival that completes a generation wakes and removes the whole
    /// group at the release cycle.
    barrier_waiters: HashMap<(u64, u64), Vec<usize>>,
}

impl Simulator {
    /// Creates a simulator for `program` over the shared memory image.
    ///
    /// Every processor starts at PC 0 with its processor id in `A0`
    /// and the processor count in `A1`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] if the configuration is invalid.
    pub fn new(
        program: Program,
        image: DataImage,
        config: SimConfig,
    ) -> Result<Simulator, SimError> {
        config.validate().map_err(SimError::Config)?;
        let image_bytes = image.size_bytes();
        let mem_bytes = config.memory_bytes.unwrap_or(image_bytes).max(image_bytes);
        let mem = FlatMemory::from_image(image.into_words(), mem_bytes);
        // Each processor buffers its trace in a fixed-capacity chunk
        // derived from its program size (small kernels get small
        // buffers, loopy programs get full chunks) rather than one
        // whole-trace guess: memory per processor is bounded by the
        // chunk, and the builder debug-asserts the buffer never
        // reallocates mid-run.
        let chunk_capacity = (program.len() * 16).clamp(256, DEFAULT_CHUNK_LEN);
        let procs = (0..config.num_procs)
            .map(|p| {
                let mut machine = Machine::new();
                machine.set_ireg(lookahead_isa::IntReg::A0, p as i64);
                machine.set_ireg(lookahead_isa::IntReg::A1, config.num_procs as i64);
                Proc {
                    machine,
                    wb: WriteBuffer::new(config.write_buffer_depth, DrainPolicy::Overlapped),
                    status: Status::Ready,
                    chunks: ChunkBuilder::new(chunk_capacity),
                    breakdown: Breakdown::new(),
                    finish_time: 0,
                }
            })
            .collect();
        Ok(Simulator {
            coherent: CoherentSystem::new(config.num_procs, config.cache),
            program,
            config,
            mem,
            procs,
            locks: LockTable::new(),
            events: EventTable::new(),
            barriers: BarrierTable::new(),
            contention: MemoryContention::new(config.memory_bandwidth),
            now: 0,
            event_mode: false,
            pending_wakeups: Vec::new(),
            event_waiters: HashMap::new(),
            barrier_waiters: HashMap::new(),
        })
    }

    /// Runs the simulation to completion on the discrete-event engine,
    /// collecting every processor's trace into [`SimOutcome::traces`].
    ///
    /// # Errors
    ///
    /// * [`SimError::Deadlock`] if blocked processors can never wake;
    /// * [`SimError::CycleLimit`] if the configured bound is exceeded;
    /// * [`SimError::Interp`] on an interpreter-level fault (a workload
    ///   bug, e.g. falling off the end of the program).
    pub fn run(self) -> Result<SimOutcome, SimError> {
        let mut sink = CollectSink::new(self.config.num_procs);
        let mut out = self.run_with_sink(&mut sink)?;
        out.traces = sink.into_traces();
        Ok(out)
    }

    /// Runs the simulation on the cycle-stepped reference engine,
    /// collecting traces. Produces byte-identical results to
    /// [`Simulator::run`] (the `generation_equivalence` suite pins
    /// this); it exists as the specification oracle and for
    /// benchmarking the event engine against.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run`].
    pub fn run_reference(self) -> Result<SimOutcome, SimError> {
        let mut sink = CollectSink::new(self.config.num_procs);
        let mut out = self.run_reference_with_sink(&mut sink)?;
        out.traces = sink.into_traces();
        Ok(out)
    }

    /// Runs the simulation to completion on the discrete-event engine,
    /// streaming every processor's trace through `sink` as fixed-size
    /// chunks. Memory for traces is bounded by one chunk per
    /// processor; [`SimOutcome::traces`] is left empty (use
    /// [`SimOutcome::entry_counts`] for lengths).
    ///
    /// Chunks of one processor arrive at the sink in trace order;
    /// chunks of different processors interleave as execution does —
    /// in exactly the same order as under the reference engine.
    ///
    /// # Errors
    ///
    /// Everything [`Simulator::run`] returns, plus [`SimError::Sink`]
    /// when the sink rejects a chunk.
    pub fn run_with_sink(mut self, sink: &mut dyn TraceSink) -> Result<SimOutcome, SimError> {
        self.event_mode = true;
        let num_procs = self.procs.len();
        let mut queue = EventQueue::new(num_procs);
        for p in 0..num_procs {
            queue.schedule(p, 0);
        }
        while let Some((t, first)) = queue.pop() {
            debug_assert!(t >= self.now, "events dispatch in time order");
            self.now = t;
            if t > self.config.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.config.max_cycles,
                });
            }
            // Dispatch every processor scheduled at this cycle, in
            // ascending id order — the reference stepper's visit order.
            // `pop` found the earliest of them; the rest are probed
            // directly by slot, so a cycle costs one minimum scan
            // however many processors run in it. No new event can
            // appear *at* this cycle mid-sweep: a dispatched processor
            // reschedules strictly later, and wakeups are clamped to
            // `now + 1`.
            for p in first..num_procs {
                if p != first && queue.take_if_at(p, t).is_none() {
                    continue;
                }
                let next = self.dispatch(p)?;
                if let Some(chunk) = self.procs[p].chunks.take_ready() {
                    sink.accept(p, &chunk).map_err(SimError::Sink)?;
                }
                while let Some((wt, wp)) = self.pending_wakeups.pop() {
                    queue.schedule(wp, wt.max(self.now + 1));
                }
                if let Some(next) = next {
                    debug_assert!(next > self.now, "a processor re-runs strictly later");
                    queue.schedule(p, next);
                }
                // A blocked or halted processor stays unscheduled: a
                // future wakeup (if any) re-queues it.
            }
        }
        // Queue empty: everyone halted, or the rest can never wake.
        let blocked: Vec<usize> = (0..num_procs)
            .filter(|&p| self.procs[p].status != Status::Halted)
            .collect();
        if !blocked.is_empty() {
            // The reference engine detects deadlock one cycle after the
            // last processor made progress.
            return Err(SimError::Deadlock {
                cycle: self.now + 1,
                blocked,
            });
        }
        self.finish(sink)
    }

    /// Dispatches processor `p` at `self.now`: retires its write
    /// buffer, then executes / completes / re-polls according to its
    /// status. Returns the next cycle at which `p` itself can make
    /// progress, or `None` when it halted or must wait for a
    /// cross-processor wakeup.
    fn dispatch(&mut self, p: usize) -> Result<Option<u64>, SimError> {
        self.procs[p].wb.retire(self.now);
        match self.procs[p].status {
            Status::Halted => {}
            Status::Ready => self.execute_one(p)?,
            Status::StallUntil { at } => {
                if self.now >= at {
                    self.procs[p].status = Status::Ready;
                    self.execute_one(p)?;
                }
            }
            Status::BlockedLock { addr, since } => {
                if self.locks.try_grant(addr, p, self.now) {
                    let wait = saturate(self.now - since);
                    self.complete_lock_acquire(p, addr, wait)?;
                }
            }
            Status::BlockedEvent { addr, since } => {
                if self.events.is_set(addr, self.now) {
                    let wait = saturate(self.now - since);
                    self.complete_event_wait(p, addr, wait)?;
                }
            }
            Status::BlockedBarrier {
                addr,
                generation,
                since,
            } => {
                if self
                    .barriers
                    .release_time(addr, generation)
                    .is_some_and(|t| self.now >= t)
                {
                    let wait = saturate(self.now - since);
                    self.complete_barrier(p, addr, wait);
                }
            }
        }
        Ok(self.next_time(p))
    }

    /// The next cycle processor `p` can make progress on its own, from
    /// its (possibly just-updated) status. Blocked processors report a
    /// time only when the sync tables already know it; otherwise they
    /// wait for a wakeup. Wake times are clamped to `now + 1` — the
    /// reference engine re-visits a blocked processor no earlier than
    /// the next cycle.
    fn next_time(&self, p: usize) -> Option<u64> {
        let floor = self.now + 1;
        match self.procs[p].status {
            Status::Halted => None,
            Status::Ready => Some(floor),
            Status::StallUntil { at } => Some(at.max(floor)),
            Status::BlockedLock { addr, .. } => self.locks.wake_time(addr, p).map(|t| t.max(floor)),
            Status::BlockedEvent { addr, .. } => self.events.set_time(addr).map(|t| t.max(floor)),
            Status::BlockedBarrier {
                addr, generation, ..
            } => self
                .barriers
                .release_time(addr, generation)
                .map(|t| t.max(floor)),
        }
    }

    /// Runs the simulation on the cycle-stepped reference engine,
    /// streaming chunks through `sink` — the original implementation
    /// of [`Simulator::run_with_sink`], retained as the oracle.
    ///
    /// # Errors
    ///
    /// Same as [`Simulator::run_with_sink`].
    pub fn run_reference_with_sink(
        mut self,
        sink: &mut dyn TraceSink,
    ) -> Result<SimOutcome, SimError> {
        loop {
            if self.procs.iter().all(|p| p.status == Status::Halted) {
                break;
            }
            if self.now > self.config.max_cycles {
                return Err(SimError::CycleLimit {
                    limit: self.config.max_cycles,
                });
            }
            let mut progressed = false;
            let mut next: Option<u64> = None;
            let mut note = |t: u64| {
                next = Some(next.map_or(t, |n: u64| n.min(t)));
            };
            for p in 0..self.procs.len() {
                self.procs[p].wb.retire(self.now);
                match self.procs[p].status {
                    Status::Halted => {}
                    Status::Ready => {
                        self.execute_one(p)?;
                        progressed = true;
                    }
                    Status::StallUntil { at } => {
                        if self.now >= at {
                            self.procs[p].status = Status::Ready;
                            self.execute_one(p)?;
                            progressed = true;
                        } else {
                            note(at);
                        }
                    }
                    Status::BlockedLock { addr, since } => {
                        if self.locks.try_grant(addr, p, self.now) {
                            let wait = saturate(self.now - since);
                            self.complete_lock_acquire(p, addr, wait)?;
                            progressed = true;
                        } else if let Some(t) = self.locks.wake_time(addr, p) {
                            // `try_grant` failed, so the wake time must
                            // still be in the future.
                            note(t.max(self.now + 1));
                        }
                    }
                    Status::BlockedEvent { addr, since } => {
                        if self.events.is_set(addr, self.now) {
                            let wait = saturate(self.now - since);
                            self.complete_event_wait(p, addr, wait)?;
                            progressed = true;
                        } else if let Some(t) = self.events.set_time(addr) {
                            note(t.max(self.now + 1));
                        }
                    }
                    Status::BlockedBarrier {
                        addr,
                        generation,
                        since,
                    } => {
                        if let Some(t) = self.barriers.release_time(addr, generation) {
                            if self.now >= t {
                                let wait = saturate(self.now - since);
                                self.complete_barrier(p, addr, wait);
                                progressed = true;
                            } else {
                                note(t);
                            }
                        }
                    }
                }
                // A turn records at most one entry, so at most one
                // chunk completes per turn; drain it before the buffer
                // can fill again.
                if let Some(chunk) = self.procs[p].chunks.take_ready() {
                    sink.accept(p, &chunk).map_err(SimError::Sink)?;
                }
            }
            if progressed {
                self.now += 1;
            } else if let Some(t) = next {
                debug_assert!(t > self.now, "fast-forward must move time forward");
                self.now = t;
            } else {
                let blocked = (0..self.procs.len())
                    .filter(|&p| self.procs[p].status != Status::Halted)
                    .collect();
                return Err(SimError::Deadlock {
                    cycle: self.now,
                    blocked,
                });
            }
        }
        self.finish(sink)
    }

    /// Shared run epilogue: drains each processor's final partial
    /// chunk into `sink` (in ascending processor order) and assembles
    /// the outcome.
    fn finish(mut self, sink: &mut dyn TraceSink) -> Result<SimOutcome, SimError> {
        for (p, proc) in self.procs.iter_mut().enumerate() {
            if let Some(chunk) = proc.chunks.finish() {
                sink.accept(p, &chunk).map_err(SimError::Sink)?;
            }
        }
        Ok(SimOutcome {
            traces: Vec::new(),
            entry_counts: self
                .procs
                .iter()
                .map(|p| p.chunks.entries_pushed())
                .collect(),
            breakdowns: self.procs.iter().map(|p| p.breakdown).collect(),
            finish_times: self.procs.iter().map(|p| p.finish_time).collect(),
            total_cycles: self
                .procs
                .iter()
                .map(|p| p.finish_time)
                .max()
                .unwrap_or(self.now),
            coherence: (0..self.procs.len())
                .map(|p| *self.coherent.stats(p))
                .collect(),
            final_memory: self.mem,
        })
    }

    fn interp_err(p: usize) -> impl FnOnce(InterpError) -> SimError {
        move |error| SimError::Interp { proc: p, error }
    }

    /// Effective latency of an access observed now: the configured
    /// hit/miss latency, plus memory queueing delay for misses when a
    /// bandwidth limit is configured.
    fn access_latency(&mut self, miss: bool) -> u32 {
        if !miss {
            return self.config.mem.hit_latency;
        }
        let done = self
            .contention
            .service(self.now, self.config.mem.miss_penalty);
        saturate(done - self.now)
    }

    /// Executes one instruction on a Ready processor `p` at `self.now`.
    fn execute_one(&mut self, p: usize) -> Result<(), SimError> {
        let now = self.now;
        let pc = self.procs[p].machine.pc();
        let instr: Instruction = *self.program.fetch(pc).ok_or(SimError::Interp {
            proc: p,
            error: InterpError::PcOutOfRange {
                pc,
                len: self.program.len(),
            },
        })?;
        match instr.class() {
            OpClass::IntAlu | OpClass::FpAlu | OpClass::Branch | OpClass::Jump | OpClass::Other => {
                let effect = self.procs[p]
                    .machine
                    .step(&self.program, &mut self.mem)
                    .map_err(Self::interp_err(p))?;
                match effect {
                    Effect::Halt => {
                        self.procs[p].status = Status::Halted;
                        self.procs[p].finish_time = now;
                        return Ok(());
                    }
                    Effect::Branch { taken, target } => self.procs[p].record(TraceEntry {
                        pc: pc as u32,
                        op: TraceOp::Branch {
                            taken,
                            target: target as u32,
                        },
                    }),
                    Effect::Jump { target } => self.procs[p].record(TraceEntry {
                        pc: pc as u32,
                        op: TraceOp::Jump {
                            target: target as u32,
                        },
                    }),
                    _ => self.procs[p].record(TraceEntry::compute(pc as u32)),
                }
                self.procs[p].breakdown.busy += 1;
            }
            OpClass::Load => {
                let addr = self.procs[p]
                    .machine
                    .peek_addr(&self.program)
                    .expect("load has an address");
                let miss = self.coherent.read(p, addr).is_miss();
                let latency = self.access_latency(miss);
                #[cfg(feature = "obs")]
                cache_event(now, p, addr, false, miss);
                self.procs[p]
                    .machine
                    .step(&self.program, &mut self.mem)
                    .map_err(Self::interp_err(p))?;
                self.procs[p].record(TraceEntry {
                    pc: pc as u32,
                    op: TraceOp::Load(MemAccess {
                        addr,
                        miss,
                        latency,
                    }),
                });
                self.procs[p].breakdown.busy += 1;
                self.procs[p].breakdown.read += (latency - 1) as u64;
                // Blocking read: the next instruction starts when the
                // value returns.
                self.procs[p].status = Status::StallUntil {
                    at: now + latency as u64,
                };
            }
            OpClass::Store => {
                let addr = self.procs[p]
                    .machine
                    .peek_addr(&self.program)
                    .expect("store has an address");
                if self.procs[p].wb.is_full() {
                    // Stall until the head write drains, then retry.
                    let t = self.procs[p]
                        .wb
                        .head_completion()
                        .expect("full buffer has a head");
                    debug_assert!(t > now, "retired at cycle start");
                    self.procs[p].breakdown.write += t - now;
                    self.procs[p].status = Status::StallUntil { at: t };
                    return Ok(());
                }
                let miss = self.coherent.write(p, addr).is_miss();
                let latency = self.access_latency(miss);
                #[cfg(feature = "obs")]
                cache_event(now, p, addr, true, miss);
                self.procs[p]
                    .machine
                    .step(&self.program, &mut self.mem)
                    .map_err(Self::interp_err(p))?;
                self.procs[p]
                    .wb
                    .push(addr, latency, now)
                    .expect("checked not full");
                self.procs[p].record(TraceEntry {
                    pc: pc as u32,
                    op: TraceOp::Store(MemAccess {
                        addr,
                        miss,
                        latency,
                    }),
                });
                self.procs[p].breakdown.busy += 1;
            }
            OpClass::Sync(kind) => self.execute_sync(p, kind)?,
        }
        Ok(())
    }

    fn execute_sync(&mut self, p: usize, kind: SyncKind) -> Result<(), SimError> {
        let now = self.now;
        let addr = self.procs[p]
            .machine
            .peek_addr(&self.program)
            .expect("sync has an address");
        match kind {
            SyncKind::Lock => {
                if self.locks.try_acquire(addr, p, now) {
                    self.complete_lock_acquire(p, addr, 0)?;
                } else {
                    self.procs[p].status = Status::BlockedLock { addr, since: now };
                }
            }
            SyncKind::Unlock | SyncKind::SetEvent => {
                if self.procs[p].wb.is_full() {
                    let t = self.procs[p]
                        .wb
                        .head_completion()
                        .expect("full buffer has a head");
                    self.procs[p].breakdown.write += t - now;
                    self.procs[p].status = Status::StallUntil { at: t };
                    return Ok(());
                }
                let miss = self.coherent.write(p, addr).is_miss();
                let latency = self.access_latency(miss);
                #[cfg(feature = "obs")]
                cache_event(now, p, addr, true, miss);
                self.procs[p]
                    .machine
                    .step(&self.program, &mut self.mem)
                    .map_err(Self::interp_err(p))?;
                let visible = self.procs[p]
                    .wb
                    .push_release(addr, latency, now)
                    .expect("checked not full");
                match kind {
                    SyncKind::Unlock => {
                        self.locks.release(addr, p, visible);
                        if self.event_mode {
                            // The queue head (if any) becomes grantable
                            // when the release is visible.
                            if let Some(head) = self.locks.head_waiter(addr) {
                                if let Some(t) = self.locks.wake_time(addr, head) {
                                    self.pending_wakeups.push((t, head));
                                }
                            }
                        }
                    }
                    SyncKind::SetEvent => {
                        self.events.set(addr, visible);
                        if self.event_mode {
                            // Wake every registered waiter at the set's
                            // visibility cycle (`set` keeps the earliest
                            // of repeated sets). Waiters deregister on
                            // completion, not here — a later set may
                            // still pull the visibility time earlier.
                            let t = self.events.set_time(addr).expect("just set");
                            if let Some(waiters) = self.event_waiters.get(&addr) {
                                for &w in waiters {
                                    self.pending_wakeups.push((t, w));
                                }
                            }
                        }
                    }
                    _ => unreachable!(),
                }
                let done_pc = self.procs[p].machine.pc() as u32 - 1;
                self.procs[p].record(TraceEntry {
                    pc: done_pc,
                    op: TraceOp::Sync(SyncAccess {
                        kind,
                        addr,
                        wait: 0,
                        access: latency,
                    }),
                });
                self.procs[p].breakdown.busy += 1;
            }
            SyncKind::WaitEvent => {
                if self.events.is_set(addr, now) {
                    self.complete_event_wait(p, addr, 0)?;
                } else {
                    self.procs[p].status = Status::BlockedEvent { addr, since: now };
                    if self.event_mode {
                        self.event_waiters.entry(addr).or_default().push(p);
                    }
                }
            }
            SyncKind::Barrier => {
                let arrive = now.max(self.procs[p].wb.pending_drain_time());
                self.procs[p]
                    .machine
                    .step(&self.program, &mut self.mem)
                    .map_err(Self::interp_err(p))?;
                let generation = self.barriers.arrive(addr, arrive, self.config.num_procs);
                self.procs[p].status = Status::BlockedBarrier {
                    addr,
                    generation,
                    since: now,
                };
                if self.event_mode {
                    let group = self.barrier_waiters.entry((addr, generation)).or_default();
                    group.push(p);
                    // The arrival that completes the generation frees
                    // the whole group at the release cycle.
                    if let Some(t) = self.barriers.release_time(addr, generation) {
                        let group = self
                            .barrier_waiters
                            .remove(&(addr, generation))
                            .expect("just inserted");
                        for w in group {
                            self.pending_wakeups.push((t, w));
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Finishes a lock acquire for `p` at `self.now` after `wait`
    /// blocked cycles (0 if the lock was free on arrival).
    ///
    /// # Errors
    ///
    /// Fails if the lock word was corrupted by an ordinary store (a
    /// workload bug: the interpreter then sees a held lock the lock
    /// table granted).
    fn complete_lock_acquire(&mut self, p: usize, addr: u64, wait: u32) -> Result<(), SimError> {
        let now = self.now;
        let pc = self.procs[p].machine.pc();
        let miss = self.coherent.write(p, addr).is_miss();
        let access = self.access_latency(miss);
        #[cfg(feature = "obs")]
        {
            cache_event(now, p, addr, true, miss);
            acquire_event(now, p, addr, wait, access, "multiproc.sync.lock_acquires");
        }
        self.procs[p]
            .machine
            .step(&self.program, &mut self.mem)
            .map_err(Self::interp_err(p))?;
        self.procs[p].record(TraceEntry {
            pc: pc as u32,
            op: TraceOp::Sync(SyncAccess {
                kind: SyncKind::Lock,
                addr,
                wait,
                access,
            }),
        });
        self.procs[p].breakdown.busy += 1;
        self.procs[p].breakdown.sync += wait as u64 + (access - 1) as u64;
        self.procs[p].status = Status::StallUntil {
            at: now + access as u64,
        };
        Ok(())
    }

    /// Finishes an event wait for `p` after `wait` blocked cycles.
    ///
    /// # Errors
    ///
    /// Fails if the event word was cleared by an ordinary store after
    /// the event table saw it set (a workload bug).
    fn complete_event_wait(&mut self, p: usize, addr: u64, wait: u32) -> Result<(), SimError> {
        if self.event_mode {
            if let Some(waiters) = self.event_waiters.get_mut(&addr) {
                waiters.retain(|&w| w != p);
            }
        }
        let now = self.now;
        let pc = self.procs[p].machine.pc();
        let miss = self.coherent.read(p, addr).is_miss();
        let access = self.access_latency(miss);
        #[cfg(feature = "obs")]
        {
            cache_event(now, p, addr, false, miss);
            acquire_event(now, p, addr, wait, access, "multiproc.sync.event_waits");
        }
        self.procs[p]
            .machine
            .step(&self.program, &mut self.mem)
            .map_err(Self::interp_err(p))?;
        self.procs[p].record(TraceEntry {
            pc: pc as u32,
            op: TraceOp::Sync(SyncAccess {
                kind: SyncKind::WaitEvent,
                addr,
                wait,
                access,
            }),
        });
        self.procs[p].breakdown.busy += 1;
        self.procs[p].breakdown.sync += wait as u64 + (access - 1) as u64;
        self.procs[p].status = Status::StallUntil {
            at: now + access as u64,
        };
        Ok(())
    }

    /// Finishes a barrier departure for `p` after `wait` blocked cycles.
    /// (The PC already advanced at arrival.)
    fn complete_barrier(&mut self, p: usize, addr: u64, wait: u32) {
        let now = self.now;
        let pc = self.procs[p].machine.pc().saturating_sub(1);
        let miss = self.coherent.read(p, addr).is_miss();
        let access = self.access_latency(miss);
        #[cfg(feature = "obs")]
        {
            cache_event(now, p, addr, false, miss);
            acquire_event(now, p, addr, wait, access, "multiproc.sync.barrier_waits");
        }
        self.procs[p].record(TraceEntry {
            pc: pc as u32,
            op: TraceOp::Sync(SyncAccess {
                kind: SyncKind::Barrier,
                addr,
                wait,
                access,
            }),
        });
        self.procs[p].breakdown.busy += 1;
        self.procs[p].breakdown.sync += wait as u64 + (access - 1) as u64;
        self.procs[p].status = Status::StallUntil {
            at: now + access as u64,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookahead_isa::{Assembler, BranchCond, IntReg};

    fn small_config(n: usize) -> SimConfig {
        SimConfig {
            num_procs: n,
            max_cycles: 10_000_000,
            ..SimConfig::default()
        }
    }

    fn run_program(build: impl FnOnce(&mut Assembler), image: DataImage, n: usize) -> SimOutcome {
        let mut a = Assembler::new();
        build(&mut a);
        a.halt();
        let program = a.assemble().unwrap();
        Simulator::new(program, image, small_config(n))
            .unwrap()
            .run()
            .unwrap()
    }

    #[test]
    fn pure_compute_is_all_busy() {
        let out = run_program(
            |a| {
                a.li(IntReg::T0, 0);
                for _ in 0..10 {
                    a.addi(IntReg::T0, IntReg::T0, 1);
                }
            },
            DataImage::new(),
            1,
        );
        let b = out.breakdowns[0];
        assert_eq!(b.busy, 11);
        assert_eq!(b.sync + b.read + b.write, 0);
        assert_eq!(out.finish_times[0], 11);
        assert_eq!(out.traces[0].len(), 11);
    }

    #[test]
    fn read_miss_stalls_blocking_processor() {
        let mut image = DataImage::new();
        let slot = image.alloc_i64(99);
        let out = run_program(
            move |a| {
                a.li(IntReg::G0, slot as i64);
                a.load(IntReg::T0, IntReg::G0, 0);
                a.addi(IntReg::T1, IntReg::T0, 1);
            },
            image,
            1,
        );
        let b = out.breakdowns[0];
        assert_eq!(b.busy, 3);
        assert_eq!(b.read, 49, "one 50-cycle cold miss");
        // li at 0, load at 1 (resumes at 51), addi at 51, halt at 52.
        assert_eq!(out.finish_times[0], 52);
        assert_eq!(b.total(), 52);
    }

    #[test]
    fn second_load_to_same_line_hits() {
        let mut image = DataImage::new();
        let base = image.align_to(16);
        image.alloc_i64_slice(&[1, 2]); // two words, same 16-byte line
        let out = run_program(
            move |a| {
                a.li(IntReg::G0, base as i64);
                a.load(IntReg::T0, IntReg::G0, 0);
                a.load(IntReg::T1, IntReg::G0, 8);
            },
            image,
            1,
        );
        let reads: Vec<_> = out.traces[0]
            .iter()
            .filter_map(|e| e.mem_access())
            .collect();
        assert_eq!(reads.len(), 2);
        assert!(reads[0].miss);
        assert!(!reads[1].miss, "same line: hit");
        assert_eq!(out.breakdowns[0].read, 49);
    }

    #[test]
    fn stores_overlap_under_release_consistency() {
        // Two miss stores back to back: the processor does not stall
        // (write buffer absorbs them) so busy dominates.
        let mut image = DataImage::new();
        let base = image.align_to(16);
        image.alloc_words(8);
        let out = run_program(
            move |a| {
                a.li(IntReg::G0, base as i64);
                a.li(IntReg::T0, 5);
                a.store(IntReg::T0, IntReg::G0, 0);
                a.store(IntReg::T0, IntReg::G0, 16); // different line
                a.store(IntReg::T0, IntReg::G0, 32);
            },
            image,
            1,
        );
        let b = out.breakdowns[0];
        assert_eq!(b.busy, 5);
        assert_eq!(b.write, 0, "buffer never fills");
        assert_eq!(out.finish_times[0], 5);
        assert_eq!(out.final_memory.read_i64(base + 32), 5);
    }

    #[test]
    fn full_write_buffer_stalls_and_accounts_write_time() {
        let mut image = DataImage::new();
        let base = image.align_to(16);
        image.alloc_words(64);
        let mut a = Assembler::new();
        a.li(IntReg::G0, base as i64);
        a.li(IntReg::T0, 1);
        for i in 0..4 {
            a.store(IntReg::T0, IntReg::G0, i * 16); // all misses
        }
        a.halt();
        let program = a.assemble().unwrap();
        let config = SimConfig {
            num_procs: 1,
            write_buffer_depth: 2,
            max_cycles: 100_000,
            ..SimConfig::default()
        };
        let out = Simulator::new(program, image, config)
            .unwrap()
            .run()
            .unwrap();
        let b = out.breakdowns[0];
        assert!(b.write > 0, "third store must stall on full buffer");
        assert_eq!(b.total(), out.finish_times[0]);
    }

    #[test]
    fn spmd_procs_write_disjoint_slots() {
        let mut image = DataImage::new();
        let array = image.alloc_words(4);
        let out = run_program(
            move |a| {
                a.li(IntReg::G0, array as i64);
                a.index_word(IntReg::T0, IntReg::G0, IntReg::A0);
                a.muli(IntReg::T1, IntReg::A0, 10);
                a.store(IntReg::T1, IntReg::T0, 0);
            },
            image,
            4,
        );
        for p in 0..4 {
            assert_eq!(out.final_memory.read_i64(array + p * 8), p as i64 * 10);
        }
    }

    #[test]
    fn lock_contention_records_wait() {
        // Both processors increment a shared counter under a lock.
        let mut image = DataImage::new();
        let lock = image.alloc_words(1);
        image.align_to(16);
        let counter = image.alloc_words(1);
        let out = run_program(
            move |a| {
                a.li(IntReg::G0, lock as i64);
                a.li(IntReg::G1, counter as i64);
                a.lock(IntReg::G0, 0);
                a.load(IntReg::T0, IntReg::G1, 0);
                a.addi(IntReg::T0, IntReg::T0, 1);
                a.store(IntReg::T0, IntReg::G1, 0);
                a.unlock(IntReg::G0, 0);
            },
            image,
            2,
        );
        assert_eq!(out.final_memory.read_i64(counter), 2, "mutual exclusion");
        let waits: Vec<u32> = out
            .traces
            .iter()
            .flat_map(|t| t.iter())
            .filter_map(|e| e.sync_access())
            .filter(|s| s.kind == SyncKind::Lock)
            .map(|s| s.wait)
            .collect();
        assert_eq!(waits.len(), 2);
        assert!(
            waits.iter().any(|&w| w > 0),
            "one processor must have waited: {waits:?}"
        );
    }

    #[test]
    fn barrier_synchronizes_generations() {
        // Proc 0 does extra work before the barrier; both must leave
        // together, so proc 1 records barrier wait time.
        let mut image = DataImage::new();
        let bar = image.alloc_words(1);
        let out = run_program(
            move |a| {
                a.li(IntReg::G0, bar as i64);
                a.if_then(BranchCond::Eq, IntReg::A0, IntReg::ZERO, |a| {
                    a.li(IntReg::T0, 0);
                    a.for_range(IntReg::T1, 0, 200, |a| {
                        a.addi(IntReg::T0, IntReg::T0, 1);
                    });
                });
                a.barrier(IntReg::G0, 0);
                a.barrier(IntReg::G0, 0);
            },
            image,
            2,
        );
        let p1_waits: Vec<u32> = out.traces[1]
            .iter()
            .filter_map(|e| e.sync_access())
            .filter(|s| s.kind == SyncKind::Barrier)
            .map(|s| s.wait)
            .collect();
        assert_eq!(p1_waits.len(), 2);
        assert!(p1_waits[0] > 300, "proc 1 waits for proc 0's loop");
        // Finish times are nearly equal because barriers align them.
        let diff = out.finish_times[0].abs_diff(out.finish_times[1]);
        assert!(diff < 200, "finish times {:?}", out.finish_times);
    }

    #[test]
    fn event_producer_consumer() {
        let mut image = DataImage::new();
        let ev = image.alloc_words(1);
        image.align_to(16);
        let data = image.alloc_words(1);
        let out = run_program(
            move |a| {
                a.li(IntReg::G0, ev as i64);
                a.li(IntReg::G1, data as i64);
                a.if_then_else(
                    BranchCond::Eq,
                    IntReg::A0,
                    IntReg::ZERO,
                    |a| {
                        // Producer: compute, publish, set event.
                        a.li(IntReg::T0, 0);
                        a.for_range(IntReg::T1, 0, 100, |a| {
                            a.addi(IntReg::T0, IntReg::T0, 3);
                        });
                        a.store(IntReg::T0, IntReg::G1, 0);
                        a.set_event(IntReg::G0, 0);
                    },
                    |a| {
                        // Consumer: wait, read.
                        a.wait_event(IntReg::G0, 0);
                        a.load(IntReg::T2, IntReg::G1, 0);
                    },
                );
            },
            image,
            2,
        );
        assert_eq!(out.final_memory.read_i64(data), 300);
        let wait = out.traces[1]
            .iter()
            .filter_map(|e| e.sync_access())
            .find(|s| s.kind == SyncKind::WaitEvent)
            .expect("consumer waited");
        assert!(wait.wait > 100, "consumer waited for producer: {wait:?}");
        // Under RC the set-event is a release: the consumer's
        // subsequent read must see the published data (verified by the
        // final-memory check above) and the wait reflects the
        // producer's write-buffer drain.
    }

    #[test]
    fn deadlock_detected_on_double_lock() {
        let mut image = DataImage::new();
        let lock = image.alloc_words(1);
        let mut a = Assembler::new();
        a.li(IntReg::G0, lock as i64);
        a.lock(IntReg::G0, 0);
        a.lock(IntReg::G0, 0);
        a.halt();
        let program = a.assemble().unwrap();
        let err = Simulator::new(program, image, small_config(1))
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::Deadlock { .. }), "{err}");
    }

    #[test]
    fn cycle_limit_enforced() {
        let mut a = Assembler::new();
        let top = a.label();
        a.bind(top).unwrap();
        a.li(IntReg::T0, 1);
        a.jump(top);
        let program = a.assemble().unwrap();
        let config = SimConfig {
            num_procs: 1,
            max_cycles: 1000,
            ..SimConfig::default()
        };
        let err = Simulator::new(program, DataImage::new(), config)
            .unwrap()
            .run()
            .unwrap_err();
        assert!(matches!(err, SimError::CycleLimit { limit: 1000 }));
    }

    #[test]
    fn breakdown_accounts_every_cycle() {
        // Mixed workload: loads, stores, branches, a lock.
        let mut image = DataImage::new();
        let lock = image.alloc_words(1);
        image.align_to(16);
        let data = image.alloc_words(32);
        let out = run_program(
            move |a| {
                a.li(IntReg::G0, lock as i64);
                a.li(IntReg::G1, data as i64);
                a.for_range(IntReg::S0, 0, 8, |a| {
                    a.index_word(IntReg::T0, IntReg::G1, IntReg::S0);
                    a.load(IntReg::T1, IntReg::T0, 0);
                    a.addi(IntReg::T1, IntReg::T1, 1);
                    a.store(IntReg::T1, IntReg::T0, 0);
                });
                a.lock(IntReg::G0, 0);
                a.unlock(IntReg::G0, 0);
            },
            image,
            2,
        );
        for p in 0..2 {
            assert_eq!(
                out.breakdowns[p].total(),
                out.finish_times[p],
                "proc {p}: breakdown must account every cycle"
            );
        }
    }

    #[test]
    fn event_engine_matches_reference_on_mixed_workload() {
        // Loads, stores, branches, a contended lock, an event pair and
        // barriers across 4 processors — both engines must agree on
        // every trace byte, breakdown, and finish time. (The heavy
        // randomized version lives in tests/generation_equivalence.rs.)
        let mut image = DataImage::new();
        let lock = image.alloc_words(1);
        let ev = image.alloc_words(1);
        let bar = image.alloc_words(1);
        image.align_to(16);
        let data = image.alloc_words(64);
        let build = move |a: &mut Assembler| {
            a.li(IntReg::G0, lock as i64);
            a.li(IntReg::G1, data as i64);
            a.li(IntReg::G2, ev as i64);
            a.li(IntReg::G3, bar as i64);
            a.for_range(IntReg::S0, 0, 6, |a| {
                a.index_word(IntReg::T0, IntReg::G1, IntReg::S0);
                a.load(IntReg::T1, IntReg::T0, 0);
                a.addi(IntReg::T1, IntReg::T1, 1);
                a.store(IntReg::T1, IntReg::T0, 0);
            });
            a.lock(IntReg::G0, 0);
            a.load(IntReg::T2, IntReg::G1, 0);
            a.addi(IntReg::T2, IntReg::T2, 1);
            a.store(IntReg::T2, IntReg::G1, 0);
            a.unlock(IntReg::G0, 0);
            a.if_then_else(
                BranchCond::Eq,
                IntReg::A0,
                IntReg::ZERO,
                |a| {
                    a.set_event(IntReg::G2, 0);
                },
                |a| {
                    a.wait_event(IntReg::G2, 0);
                },
            );
            a.barrier(IntReg::G3, 0);
            a.barrier(IntReg::G3, 0);
        };
        let assemble = |build: &dyn Fn(&mut Assembler)| {
            let mut a = Assembler::new();
            build(&mut a);
            a.halt();
            a.assemble().unwrap()
        };
        let program = assemble(&build);
        let config = small_config(4);
        let event = Simulator::new(program.clone(), image.clone(), config)
            .unwrap()
            .run()
            .unwrap();
        let reference = Simulator::new(program, image, config)
            .unwrap()
            .run_reference()
            .unwrap();
        assert_eq!(event.traces, reference.traces);
        assert_eq!(event.breakdowns, reference.breakdowns);
        assert_eq!(event.finish_times, reference.finish_times);
        assert_eq!(event.entry_counts, reference.entry_counts);
        assert_eq!(event.total_cycles, reference.total_cycles);
    }

    #[test]
    fn busiest_proc_selects_longest_trace() {
        let mut image = DataImage::new();
        let _ = image.alloc_words(1);
        let out = run_program(
            move |a| {
                // Proc 1 runs a longer loop.
                a.muli(IntReg::T2, IntReg::A0, 50);
                a.addi(IntReg::T2, IntReg::T2, 10);
                a.li(IntReg::T0, 0);
                a.for_to(IntReg::T1, 0, IntReg::T2, |a| {
                    a.addi(IntReg::T0, IntReg::T0, 1);
                });
            },
            image,
            2,
        );
        assert_eq!(out.busiest_proc(), 1);
    }
}
