//! Annotated dynamic instruction traces.
//!
//! The paper's methodology (§3.2) is *trace-driven*: a multiprocessor
//! simulation of simple in-order processors generates a dynamic
//! instruction trace per processor, augmented with effective addresses
//! and the effective latency of every memory and synchronization
//! operation; the processor timing models then re-time one processor's
//! trace. This crate defines that trace format and the statistics the
//! paper reports about it (Tables 1, 2 and 3).
//!
//! A [`Trace`] is a sequence of [`TraceEntry`] values. Each entry
//! holds only the *dynamic* facts of one executed instruction — the
//! PC, the effective address and observed latency of a memory access,
//! a branch's direction. The *static* facts (operand registers,
//! opcode) are recovered from the [`Program`](lookahead_isa::Program)
//! via the PC, which keeps traces compact.
//!
//! Acquire-type synchronization latencies are split into a **wait**
//! component (lock contention, barrier load imbalance — not hidable by
//! any processor technique the paper studies) and an **access**
//! component (the memory latency of reaching a free synchronization
//! variable — hidable exactly like an ordinary read miss). The split
//! mirrors the paper's §4.1.2 discussion of PTHOR's acquire overhead.

pub mod breakdown;
pub mod record;
pub mod stats;
pub mod storage;
pub mod stream;

pub use breakdown::Breakdown;
pub use record::{MemAccess, SyncAccess, Trace, TraceEntry, TraceOp};
pub use stats::{BranchPredictor, BranchStats, DataRefStats, SyncStats, TraceStats};
pub use storage::{fnv1a, DecodeError, ARCHIVE_VERSION};
pub use stream::{
    collect_source, ChunkBuilder, ChunkMeta, CollectSink, EntryView, GangCursor, GangMember,
    GangStats, NullSink, OpClass, SliceSource, StreamError, TraceChunk, TraceCursor, TraceSink,
    TraceSource, DEFAULT_CHUNK_LEN,
};
