//! Chunked trace streaming: bounded-memory producers and consumers.
//!
//! The materialized [`Trace`] representation costs O(full trace) memory
//! per processor at every pipeline stage — generation, caching and
//! re-timing each held complete entry vectors. This module introduces
//! the streaming counterparts the whole pipeline is built on:
//!
//! * a [`TraceChunk`] is a fixed-size block of consecutive entries plus
//!   the per-chunk metadata consumers pre-size from (memory-entry
//!   count, maximum observed latency). The payload is stored as
//!   structure-of-arrays columns (`pc`, packed op kind, address,
//!   latency, sync wait), decoded once per chunk and shared by every
//!   consumer holding the chunk's [`Arc`];
//! * a [`TraceSink`] accepts chunks as a producer emits them (the
//!   multiprocessor simulator pushes per-processor chunks through a
//!   sink instead of growing owned `Vec`s);
//! * a [`TraceSource`] yields refcounted chunks on demand (a sliced
//!   in-memory trace, or an archive file read incrementally from
//!   disk);
//! * a [`TraceCursor`] adapts a source to the random-access-within-a-
//!   window pattern the re-timing engines use, retaining only the
//!   chunks that cover the engine's live instruction window;
//! * a [`GangCursor`] fans one source out to N concurrent subscribers,
//!   so a whole sweep's worth of engines re-times the same trace from
//!   a single decode pass.
//!
//! Memory is therefore O(chunk × processors) during generation and
//! O(window) during re-timing, instead of O(full trace × processors).

use crate::record::{MemAccess, SyncAccess, Trace, TraceEntry, TraceOp};
use crate::storage::DecodeError;
use lookahead_isa::SyncKind;
use std::collections::VecDeque;
use std::fmt;
use std::io;
use std::sync::{Arc, Condvar, Mutex};

/// Default chunk granularity, in entries. At ~21 bytes per entry a
/// chunk is ~170 KiB: large enough to amortize per-chunk overhead,
/// small enough that a 16-processor generation holds only a few MiB of
/// in-flight trace.
pub const DEFAULT_CHUNK_LEN: usize = 8192;

/// Per-chunk metadata, aggregated as entries are appended. Consumers
/// use it to pre-size their structures (e.g. the DS engine's memop
/// list) without scanning entries twice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkMeta {
    /// Number of entries that perform a memory access (loads, stores,
    /// synchronization accesses).
    pub mem_entries: u32,
    /// Maximum access latency observed in the chunk (0 if none).
    pub max_latency: u32,
}

impl ChunkMeta {
    /// Folds one entry into the running metadata.
    pub fn observe(&mut self, e: &TraceEntry) {
        match e.op {
            TraceOp::Load(m) | TraceOp::Store(m) => {
                self.mem_entries += 1;
                self.max_latency = self.max_latency.max(m.latency);
            }
            TraceOp::Sync(s) => {
                self.mem_entries += 1;
                self.max_latency = self.max_latency.max(s.access);
            }
            TraceOp::Compute | TraceOp::Branch { .. } | TraceOp::Jump { .. } => {}
        }
    }

    /// The metadata of a whole slice (what `observe` over every entry
    /// accumulates).
    pub fn of_entries(entries: &[TraceEntry]) -> ChunkMeta {
        let mut m = ChunkMeta::default();
        for e in entries {
            m.observe(e);
        }
        m
    }
}

// The packed op-kind byte of the SoA layout: bits 0-2 select the
// operation, bit 3 is the per-op flag (cache miss for loads/stores,
// taken for branches), bits 4-6 carry the sync kind.
const KIND_COMPUTE: u8 = 0;
const KIND_LOAD: u8 = 1;
const KIND_STORE: u8 = 2;
const KIND_BRANCH: u8 = 3;
const KIND_JUMP: u8 = 4;
const KIND_SYNC: u8 = 5;
const KIND_OP_MASK: u8 = 0x07;
const KIND_FLAG: u8 = 0x08;
const KIND_SYNC_SHIFT: u8 = 4;

/// The packed kind byte of an entry of class `class`; `flag` is the
/// per-op flag (cache miss for loads and stores, taken for branches).
#[inline]
pub(crate) fn kind_byte(class: OpClass, flag: bool) -> u8 {
    let op = match class {
        OpClass::Compute => KIND_COMPUTE,
        OpClass::Load => KIND_LOAD,
        OpClass::Store => KIND_STORE,
        OpClass::Branch => KIND_BRANCH,
        OpClass::Jump => KIND_JUMP,
        OpClass::Sync(kind) => KIND_SYNC | sync_kind_bits(kind),
    };
    if flag {
        op | KIND_FLAG
    } else {
        op
    }
}

fn sync_kind_bits(kind: SyncKind) -> u8 {
    (match kind {
        SyncKind::Lock => 0u8,
        SyncKind::Unlock => 1,
        SyncKind::Barrier => 2,
        SyncKind::WaitEvent => 3,
        SyncKind::SetEvent => 4,
    }) << KIND_SYNC_SHIFT
}

fn sync_kind_from_bits(k: u8) -> SyncKind {
    match (k >> KIND_SYNC_SHIFT) & 0x07 {
        0 => SyncKind::Lock,
        1 => SyncKind::Unlock,
        2 => SyncKind::Barrier,
        3 => SyncKind::WaitEvent,
        _ => SyncKind::SetEvent,
    }
}

/// A block of consecutive trace entries from one processor's stream,
/// stored as structure-of-arrays columns.
///
/// The columns are decoded once (at generation or archive read) and
/// then shared read-only by every consumer via `Arc<TraceChunk>`: the
/// hot fields a re-timing engine touches per entry (`pc`, the packed
/// kind byte) are dense 4- and 1-byte columns instead of a 24-byte
/// tagged union, and entries are reconstructed on access with
/// [`entry`](Self::entry) / iterated with [`iter`](Self::iter).
#[derive(Debug, Clone, PartialEq)]
pub struct TraceChunk {
    /// Global index (within the processor's trace) of the first entry.
    pub first_index: u64,
    /// Aggregate metadata over the entries.
    pub meta: ChunkMeta,
    pc: Vec<u32>,
    kind: Vec<u8>,
    /// Memory/sync address, or branch/jump target (as u64).
    addr: Vec<u64>,
    /// Memory latency, or sync access latency.
    lat: Vec<u32>,
    /// Sync wait cycles (0 for everything else).
    wait: Vec<u32>,
}

impl TraceChunk {
    /// An empty chunk starting at `first_index` with room for
    /// `capacity` entries in every column.
    pub fn with_capacity(first_index: u64, capacity: usize) -> TraceChunk {
        TraceChunk {
            first_index,
            meta: ChunkMeta::default(),
            pc: Vec::with_capacity(capacity),
            kind: Vec::with_capacity(capacity),
            addr: Vec::with_capacity(capacity),
            lat: Vec::with_capacity(capacity),
            wait: Vec::with_capacity(capacity),
        }
    }

    /// Builds a chunk from a slice starting at `first_index`,
    /// transposing the entries into columns (no intermediate clone of
    /// the slice is made).
    pub fn from_slice(first_index: u64, entries: &[TraceEntry]) -> TraceChunk {
        let mut c = TraceChunk::with_capacity(first_index, entries.len());
        for e in entries {
            c.push(*e);
        }
        c
    }

    /// Assembles a chunk from columns a decoder filled directly, with
    /// the `meta` it folded over them. `kind` holds packed kind bytes
    /// ([`kind_byte`]); every column has one value per entry.
    pub(crate) fn from_columns(
        first_index: u64,
        meta: ChunkMeta,
        pc: Vec<u32>,
        kind: Vec<u8>,
        addr: Vec<u64>,
        lat: Vec<u32>,
        wait: Vec<u32>,
    ) -> TraceChunk {
        debug_assert!(
            [kind.len(), addr.len(), lat.len(), wait.len()]
                .iter()
                .all(|&n| n == pc.len()),
            "columns of one chunk must have equal lengths"
        );
        TraceChunk {
            first_index,
            meta,
            pc,
            kind,
            addr,
            lat,
            wait,
        }
    }

    /// Appends one entry, folding it into the chunk metadata.
    pub fn push(&mut self, e: TraceEntry) {
        self.meta.observe(&e);
        self.pc.push(e.pc);
        let (kind, addr, lat, wait) = match e.op {
            TraceOp::Compute => (kind_byte(OpClass::Compute, false), 0, 0, 0),
            TraceOp::Load(m) => (kind_byte(OpClass::Load, m.miss), m.addr, m.latency, 0),
            TraceOp::Store(m) => (kind_byte(OpClass::Store, m.miss), m.addr, m.latency, 0),
            TraceOp::Branch { taken, target } => {
                (kind_byte(OpClass::Branch, taken), u64::from(target), 0, 0)
            }
            TraceOp::Jump { target } => (kind_byte(OpClass::Jump, false), u64::from(target), 0, 0),
            TraceOp::Sync(s) => (
                kind_byte(OpClass::Sync(s.kind), false),
                s.addr,
                s.access,
                s.wait,
            ),
        };
        self.kind.push(kind);
        self.addr.push(addr);
        self.lat.push(lat);
        self.wait.push(wait);
    }

    /// Number of entries in the chunk.
    pub fn len(&self) -> usize {
        self.pc.len()
    }

    /// Whether the chunk holds no entries.
    pub fn is_empty(&self) -> bool {
        self.pc.is_empty()
    }

    /// Index one past the last entry of this chunk.
    pub fn end_index(&self) -> u64 {
        self.first_index + self.pc.len() as u64
    }

    /// The PC column value at `i` — the fast path for consumers that
    /// only need the instruction index (a dense 4-byte column read,
    /// no entry reconstruction).
    #[inline]
    pub fn pc_at(&self, i: usize) -> u32 {
        self.pc[i]
    }

    /// Reconstructs the entry at `i` from the columns.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[inline]
    pub fn entry(&self, i: usize) -> TraceEntry {
        let k = self.kind[i];
        let op = match k & KIND_OP_MASK {
            KIND_COMPUTE => TraceOp::Compute,
            KIND_LOAD => TraceOp::Load(MemAccess {
                addr: self.addr[i],
                miss: k & KIND_FLAG != 0,
                latency: self.lat[i],
            }),
            KIND_STORE => TraceOp::Store(MemAccess {
                addr: self.addr[i],
                miss: k & KIND_FLAG != 0,
                latency: self.lat[i],
            }),
            KIND_BRANCH => TraceOp::Branch {
                taken: k & KIND_FLAG != 0,
                target: self.addr[i] as u32,
            },
            KIND_JUMP => TraceOp::Jump {
                target: self.addr[i] as u32,
            },
            _ => TraceOp::Sync(SyncAccess {
                kind: sync_kind_from_bits(k),
                addr: self.addr[i],
                wait: self.wait[i],
                access: self.lat[i],
            }),
        };
        TraceEntry { pc: self.pc[i], op }
    }

    /// Iterates the entries in order, reconstructing each from the
    /// columns.
    pub fn iter(&self) -> ChunkIter<'_> {
        ChunkIter { chunk: self, i: 0 }
    }

    /// Iterates borrowed column views over the entries in order — the
    /// allocation-free counterpart of [`iter`](Self::iter): the
    /// re-timing engines read the columns they need through the view's
    /// accessors, and no [`TraceOp`] is built per entry.
    pub fn views(&self) -> impl Iterator<Item = EntryView<'_>> {
        (0..self.len()).map(move |i| EntryView { chunk: self, i })
    }
}

/// The operation class of one entry: [`TraceOp`] without its payload,
/// decodable straight from the packed kind byte of the SoA layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpClass {
    /// A compute (ALU) instruction.
    Compute,
    /// A load.
    Load,
    /// A store.
    Store,
    /// A conditional branch.
    Branch,
    /// An unconditional jump.
    Jump,
    /// A synchronization operation of the given kind.
    Sync(SyncKind),
}

/// A borrowed view of one entry's columns within a [`TraceChunk`].
///
/// Copy-cheap (a pointer and an index); every accessor is a single
/// column load.
#[derive(Debug, Clone, Copy)]
pub struct EntryView<'a> {
    chunk: &'a TraceChunk,
    i: usize,
}

impl EntryView<'_> {
    /// Program counter (instruction index).
    #[inline]
    pub fn pc(&self) -> u32 {
        self.chunk.pc[self.i]
    }

    /// Payload-free operation class.
    #[inline]
    pub fn class(&self) -> OpClass {
        let k = self.chunk.kind[self.i];
        match k & KIND_OP_MASK {
            KIND_COMPUTE => OpClass::Compute,
            KIND_LOAD => OpClass::Load,
            KIND_STORE => OpClass::Store,
            KIND_BRANCH => OpClass::Branch,
            KIND_JUMP => OpClass::Jump,
            _ => OpClass::Sync(sync_kind_from_bits(k)),
        }
    }

    /// Memory/sync address, or branch/jump target widened to `u64`.
    #[inline]
    pub fn addr(&self) -> u64 {
        self.chunk.addr[self.i]
    }

    /// Memory latency or sync access latency; 0 for everything else.
    #[inline]
    pub fn latency(&self) -> u32 {
        self.chunk.lat[self.i]
    }

    /// Sync wait cycles; 0 for everything else.
    #[inline]
    pub fn wait(&self) -> u32 {
        self.chunk.wait[self.i]
    }
}

/// Iterator over a chunk's reconstructed entries.
#[derive(Debug)]
pub struct ChunkIter<'a> {
    chunk: &'a TraceChunk,
    i: usize,
}

impl Iterator for ChunkIter<'_> {
    type Item = TraceEntry;

    #[inline]
    fn next(&mut self) -> Option<TraceEntry> {
        if self.i >= self.chunk.len() {
            return None;
        }
        let e = self.chunk.entry(self.i);
        self.i += 1;
        Some(e)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.chunk.len() - self.i;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ChunkIter<'_> {}

/// Consumes per-processor chunks as a producer emits them.
///
/// The error type is [`io::Error`] because the interesting sinks write
/// archives to disk; in-memory sinks simply never fail.
pub trait TraceSink {
    /// Accepts the next chunk of processor `proc`'s trace. Chunks of
    /// one processor arrive in trace order; chunks of different
    /// processors may interleave arbitrarily. Sinks only read the
    /// chunk, so producers keep ownership (and can hand the same chunk
    /// to several sinks).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures from disk-backed sinks.
    fn accept(&mut self, proc: usize, chunk: &TraceChunk) -> io::Result<()>;
}

/// A sink that reassembles the chunk stream into whole [`Trace`]s —
/// the adapter that keeps the materialized `SimOutcome::traces` API
/// working on top of the streamed producer.
#[derive(Debug)]
pub struct CollectSink {
    traces: Vec<Trace>,
}

impl CollectSink {
    /// A collector for `num_procs` processors.
    pub fn new(num_procs: usize) -> CollectSink {
        CollectSink {
            traces: (0..num_procs).map(|_| Trace::new()).collect(),
        }
    }

    /// The reassembled traces, one per processor.
    pub fn into_traces(self) -> Vec<Trace> {
        self.traces
    }
}

impl TraceSink for CollectSink {
    fn accept(&mut self, proc: usize, chunk: &TraceChunk) -> io::Result<()> {
        debug_assert_eq!(
            chunk.first_index,
            self.traces[proc].len() as u64,
            "chunks of one processor must arrive in trace order"
        );
        self.traces[proc].extend(chunk.iter());
        Ok(())
    }
}

/// A sink that discards every chunk (for producers whose side effects
/// — statistics, final memory — are all the caller wants).
#[derive(Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn accept(&mut self, _proc: usize, _chunk: &TraceChunk) -> io::Result<()> {
        Ok(())
    }
}

/// Accumulates one processor's entries into fixed-capacity chunks.
///
/// The column buffers never grow past their construction capacity
/// (asserted in debug builds): a full buffer is handed out as a chunk
/// and fresh columns are allocated. Entries are pushed straight into
/// the chunk's SoA columns, so the generation path is move-only — no
/// intermediate entry vector is built or cloned.
#[derive(Debug)]
pub struct ChunkBuilder {
    chunk: TraceChunk,
    capacity: usize,
    ready: Option<TraceChunk>,
}

impl ChunkBuilder {
    /// A builder emitting chunks of at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> ChunkBuilder {
        assert!(capacity > 0, "chunk capacity must be positive");
        ChunkBuilder {
            chunk: TraceChunk::with_capacity(0, capacity),
            capacity,
            ready: None,
        }
    }

    /// Appends one entry. When the buffer fills, the completed chunk
    /// becomes available from [`take_ready`](Self::take_ready); the
    /// caller must drain it before another `capacity` entries arrive.
    pub fn push(&mut self, e: TraceEntry) {
        debug_assert!(
            self.chunk.len() < self.capacity,
            "ready chunk not drained before the buffer refilled"
        );
        self.chunk.push(e);
        if self.chunk.len() == self.capacity {
            self.seal();
        }
    }

    /// Total entries pushed so far (across all chunks).
    pub fn entries_pushed(&self) -> u64 {
        self.chunk.end_index()
    }

    /// The completed chunk, if the buffer filled since the last call.
    pub fn take_ready(&mut self) -> Option<TraceChunk> {
        self.ready.take()
    }

    /// Seals any buffered entries into a final (possibly short) chunk.
    /// Returns `None` if nothing is buffered.
    pub fn finish(&mut self) -> Option<TraceChunk> {
        if self.chunk.is_empty() {
            return self.ready.take();
        }
        debug_assert!(self.ready.is_none(), "ready chunk not drained at finish");
        self.seal();
        self.ready.take()
    }

    fn seal(&mut self) {
        debug_assert_eq!(
            self.chunk.pc.capacity(),
            self.capacity,
            "chunk buffer must never reallocate mid-run"
        );
        let next_index = self.chunk.end_index();
        let chunk = std::mem::replace(
            &mut self.chunk,
            TraceChunk::with_capacity(next_index, self.capacity),
        );
        debug_assert!(self.ready.is_none(), "ready chunk not drained before seal");
        self.ready = Some(chunk);
    }
}

/// Errors produced while pulling chunks from a [`TraceSource`].
#[derive(Debug)]
pub enum StreamError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// A chunk failed its checksum or could not be decoded.
    Decode(DecodeError),
    /// The stream's structure is inconsistent (e.g. a gap between
    /// consecutive chunks of one processor).
    Corrupt(String),
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Io(e) => write!(f, "i/o error reading trace stream: {e}"),
            StreamError::Decode(e) => write!(f, "bad chunk in trace stream: {e}"),
            StreamError::Corrupt(m) => write!(f, "inconsistent trace stream: {m}"),
        }
    }
}

impl std::error::Error for StreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StreamError::Io(e) => Some(e),
            StreamError::Decode(e) => Some(e),
            StreamError::Corrupt(_) => None,
        }
    }
}

impl From<io::Error> for StreamError {
    fn from(e: io::Error) -> StreamError {
        StreamError::Io(e)
    }
}

impl From<DecodeError> for StreamError {
    fn from(e: DecodeError) -> StreamError {
        StreamError::Decode(e)
    }
}

/// Produces one processor's trace as a sequence of refcounted chunks.
///
/// Chunks are handed out as `Arc` so fan-out consumers (the
/// [`GangCursor`], cursors with live lookback windows) can share one
/// decoded chunk without copying it.
pub trait TraceSource {
    /// The next chunk in trace order, or `None` at end of stream.
    ///
    /// # Errors
    ///
    /// Returns a [`StreamError`] on I/O failure or a damaged chunk.
    fn next_chunk(&mut self) -> Result<Option<Arc<TraceChunk>>, StreamError>;

    /// Total entry count, when known up front (archives know it from
    /// their trailer; live generators do not).
    fn entries_hint(&self) -> Option<u64> {
        None
    }

    /// Total memory-entry count, when known up front.
    fn mem_entries_hint(&self) -> Option<u64> {
        None
    }

    /// Maximum access latency in the stream, when known up front.
    fn max_latency_hint(&self) -> Option<u32> {
        None
    }
}

/// A mutable reference to a source is itself a source, so engines
/// taking `&mut dyn TraceSource` can hand it to a [`TraceCursor`]
/// without taking ownership.
impl<T: TraceSource + ?Sized> TraceSource for &mut T {
    fn next_chunk(&mut self) -> Result<Option<Arc<TraceChunk>>, StreamError> {
        (**self).next_chunk()
    }

    fn entries_hint(&self) -> Option<u64> {
        (**self).entries_hint()
    }

    fn mem_entries_hint(&self) -> Option<u64> {
        (**self).mem_entries_hint()
    }

    fn max_latency_hint(&self) -> Option<u32> {
        (**self).max_latency_hint()
    }
}

/// A source over an in-memory entry slice, split into fixed-size
/// chunks. It is how a materialized trace reaches the re-timing
/// engines, which read only chunk sources, and the reference producer
/// for chunk-boundary tests. Each chunk is transposed into SoA columns
/// as it is pulled.
#[derive(Debug)]
pub struct SliceSource<'a> {
    entries: &'a [TraceEntry],
    pos: usize,
    chunk_len: usize,
}

impl<'a> SliceSource<'a> {
    /// A source over `trace` with the default chunk size.
    pub fn new(trace: &'a Trace) -> SliceSource<'a> {
        SliceSource::with_chunk_len(trace, DEFAULT_CHUNK_LEN)
    }

    /// A source over `trace` emitting chunks of `chunk_len` entries.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_len` is zero.
    pub fn with_chunk_len(trace: &'a Trace, chunk_len: usize) -> SliceSource<'a> {
        assert!(chunk_len > 0, "chunk length must be positive");
        SliceSource {
            entries: trace.entries(),
            pos: 0,
            chunk_len,
        }
    }
}

impl TraceSource for SliceSource<'_> {
    fn next_chunk(&mut self) -> Result<Option<Arc<TraceChunk>>, StreamError> {
        if self.pos >= self.entries.len() {
            return Ok(None);
        }
        let end = (self.pos + self.chunk_len).min(self.entries.len());
        let chunk = TraceChunk::from_slice(self.pos as u64, &self.entries[self.pos..end]);
        self.pos = end;
        Ok(Some(Arc::new(chunk)))
    }

    fn entries_hint(&self) -> Option<u64> {
        Some(self.entries.len() as u64)
    }
}

/// Drains a source into a materialized [`Trace`], for consumers that
/// need the whole trace at once (trace statistics, listings).
///
/// # Errors
///
/// Propagates the source's first error.
pub fn collect_source(source: &mut dyn TraceSource) -> Result<Trace, StreamError> {
    let mut trace = Trace::with_capacity(source.entries_hint().unwrap_or(0) as usize);
    while let Some(chunk) = source.next_chunk()? {
        if chunk.first_index != trace.len() as u64 {
            return Err(StreamError::Corrupt(format!(
                "chunk starts at entry {} but {} entries were read",
                chunk.first_index,
                trace.len()
            )));
        }
        trace.extend(chunk.iter());
    }
    Ok(trace)
}

/// Random access within a sliding window over a [`TraceSource`]
/// pulled on demand.
///
/// The re-timing engines access entries at indices that never precede
/// the oldest instruction of their live window and never exceed the
/// decode frontier; the cursor keeps exactly the chunks covering that
/// range, releasing older ones as the window retires past them.
///
/// Source errors do not surface in the per-entry accessors (which
/// would poison the engines' hot loops): a failing source behaves as
/// if the trace ended at the last good entry, and the deferred error
/// is retrieved with [`take_error`](Self::take_error) after the run.
pub struct TraceCursor<'a> {
    source: Box<dyn TraceSource + 'a>,
    chunks: VecDeque<Arc<TraceChunk>>,
    /// Global index of the first retained entry.
    base: u64,
    /// Global index one past the last pulled entry.
    loaded: u64,
    done: bool,
    error: Option<StreamError>,
}

impl fmt::Debug for TraceCursor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceCursor")
            .field("base", &self.base)
            .field("loaded", &self.loaded)
            .field("done", &self.done)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

impl<'a> TraceCursor<'a> {
    /// A cursor pulling chunks from `source` on demand.
    pub fn new(source: Box<dyn TraceSource + 'a>) -> TraceCursor<'a> {
        TraceCursor {
            source,
            chunks: VecDeque::new(),
            base: 0,
            loaded: 0,
            done: false,
            error: None,
        }
    }

    /// Whether `idx` lies beyond the end of the trace, pulling chunks
    /// as needed to decide. After a source error this reports the
    /// truncated end; check [`take_error`](Self::take_error).
    #[inline]
    pub fn past_end(&mut self, idx: usize) -> bool {
        while (idx as u64) >= self.loaded && !self.done && self.error.is_none() {
            match self.source.next_chunk() {
                Ok(Some(chunk)) => {
                    if chunk.first_index != self.loaded {
                        self.error = Some(StreamError::Corrupt(format!(
                            "chunk starts at entry {} but {} entries were pulled",
                            chunk.first_index, self.loaded
                        )));
                        break;
                    }
                    self.loaded = chunk.end_index();
                    self.chunks.push_back(chunk);
                }
                Ok(None) => self.done = true,
                Err(e) => self.error = Some(e),
            }
        }
        (idx as u64) >= self.loaded
    }

    /// Locates the retained chunk covering `idx`.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was released or never loaded.
    #[inline]
    fn chunk_for(&self, idx: u64) -> &TraceChunk {
        assert!(
            idx >= self.base && idx < self.loaded,
            "entry {idx} outside retained range [{}, {})",
            self.base,
            self.loaded
        );
        // The window spans very few chunks; scan from the back since
        // accesses cluster at the decode frontier.
        for c in self.chunks.iter().rev() {
            if idx >= c.first_index {
                return c;
            }
        }
        unreachable!("retained range covers idx")
    }

    /// The entry at `idx`. The caller must have established
    /// `!past_end(idx)`; the entry must not have been released.
    ///
    /// # Panics
    ///
    /// Panics if `idx` was released or never loaded.
    #[inline]
    pub fn entry(&self, idx: usize) -> TraceEntry {
        let c = self.chunk_for(idx as u64);
        c.entry(idx - c.first_index as usize)
    }

    /// The PC of the entry at `idx` — same contract as
    /// [`entry`](Self::entry), but touches only the dense PC column.
    #[inline]
    pub fn pc(&self, idx: usize) -> u32 {
        let c = self.chunk_for(idx as u64);
        c.pc_at(idx - c.first_index as usize)
    }

    /// Entries loaded so far: a monotonically growing lower bound on
    /// the trace length.
    pub fn loaded_len(&self) -> usize {
        self.loaded as usize
    }

    /// Declares that entries before `idx` will never be accessed
    /// again, allowing whole chunks to be dropped.
    #[inline]
    pub fn release_before(&mut self, idx: usize) {
        while let Some(front) = self.chunks.front() {
            if front.end_index() <= idx as u64 {
                self.base = front.end_index();
                self.chunks.pop_front();
            } else {
                break;
            }
        }
    }

    /// The deferred source error, if the stream failed mid-run. A run
    /// whose cursor carries an error is truncated and must be
    /// discarded.
    pub fn take_error(&mut self) -> Option<StreamError> {
        self.error.take()
    }
}

/// Counters a [`GangCursor`] accumulates over its pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GangStats {
    /// Chunks decoded from the underlying source (once each).
    pub chunks: u64,
    /// Largest number of chunks simultaneously retained in the ring.
    pub peak_ring: usize,
}

struct GangInner<'a> {
    /// Dropped once the stream ends or fails.
    source: Option<Box<dyn TraceSource + Send + 'a>>,
    /// Decoded chunks not yet consumed by every subscriber, oldest
    /// first. `ring[0]` has sequence number `base_seq`.
    ring: VecDeque<Arc<TraceChunk>>,
    base_seq: u64,
    /// Per-subscriber next chunk sequence (`u64::MAX` once the
    /// subscriber is dropped, so it never holds the ring back).
    next_seq: Vec<u64>,
    done: bool,
    /// First source failure, fanned out to every subscriber.
    error: Option<String>,
    stats: GangStats,
}

struct GangShared<'a> {
    inner: Mutex<GangInner<'a>>,
    /// Signalled when ring space frees up or the stream ends/fails.
    space: Condvar,
    max_lead: usize,
    entries: Option<u64>,
    mem_entries: Option<u64>,
    max_latency: Option<u32>,
}

/// Fans one seek-free pass over a trace source out to N concurrent
/// subscribers.
///
/// Each decoded chunk is pushed once into a bounded ring and handed to
/// every [`GangMember`] as an `Arc` clone; the ring drops its oldest
/// chunk exactly when the *slowest* subscriber has consumed it (a
/// subscriber's engine may additionally retain the `Arc` for its own
/// lookback window — the chunk is freed when the last holder lets go).
/// A subscriber that reaches the decode frontier performs the next
/// pull itself, under the gang lock; one that races `max_lead` chunks
/// ahead of the slowest blocks until the ring drains.
///
/// The protocol cannot deadlock: whenever the ring is non-empty, the
/// slowest subscriber's next chunk is in it, so that subscriber always
/// makes progress, eventually popping the front and waking blocked
/// leaders. Dropping a member (engine error, early exit) marks it
/// infinitely fast so it never stalls the others.
pub struct GangCursor<'a> {
    shared: Arc<GangShared<'a>>,
    members: usize,
    taken: bool,
}

impl fmt::Debug for GangCursor<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GangCursor")
            .field("members", &self.members)
            .finish()
    }
}

impl<'a> GangCursor<'a> {
    /// A gang of `members` subscribers over `source`, retaining at
    /// most `max_lead` chunks between the fastest and slowest.
    ///
    /// # Panics
    ///
    /// Panics if `members` is zero.
    pub fn new(
        source: Box<dyn TraceSource + Send + 'a>,
        members: usize,
        max_lead: usize,
    ) -> GangCursor<'a> {
        assert!(members > 0, "a gang needs at least one member");
        let shared = GangShared {
            max_lead: max_lead.max(1),
            entries: source.entries_hint(),
            mem_entries: source.mem_entries_hint(),
            max_latency: source.max_latency_hint(),
            inner: Mutex::new(GangInner {
                source: Some(source),
                ring: VecDeque::new(),
                base_seq: 0,
                next_seq: vec![0; members],
                done: false,
                error: None,
                stats: GangStats::default(),
            }),
            space: Condvar::new(),
        };
        GangCursor {
            shared: Arc::new(shared),
            members,
            taken: false,
        }
    }

    /// The subscriber handles, one per member.
    ///
    /// # Panics
    ///
    /// Panics if called twice — each member's position is tracked by
    /// identity, so handles must not be duplicated.
    pub fn members(&mut self) -> Vec<GangMember<'a>> {
        assert!(!self.taken, "gang members already handed out");
        self.taken = true;
        (0..self.members)
            .map(|id| GangMember {
                shared: Arc::clone(&self.shared),
                id,
                done: false,
            })
            .collect()
    }

    /// Counters observed so far (complete once every member finished).
    pub fn stats(&self) -> GangStats {
        self.shared.inner.lock().expect("gang lock").stats
    }
}

/// One subscriber of a [`GangCursor`] — a [`TraceSource`] yielding the
/// shared chunk sequence.
pub struct GangMember<'a> {
    shared: Arc<GangShared<'a>>,
    id: usize,
    done: bool,
}

impl fmt::Debug for GangMember<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GangMember").field("id", &self.id).finish()
    }
}

impl GangInner<'_> {
    /// Pops every ring chunk the slowest subscriber has passed.
    /// Returns whether anything was released (waiters need a wakeup).
    fn release_front(&mut self) -> bool {
        let min = self.next_seq.iter().copied().min().unwrap_or(u64::MAX);
        let mut released = false;
        while self.base_seq < min && !self.ring.is_empty() {
            self.ring.pop_front();
            self.base_seq += 1;
            released = true;
        }
        released
    }
}

impl TraceSource for GangMember<'_> {
    fn next_chunk(&mut self) -> Result<Option<Arc<TraceChunk>>, StreamError> {
        if self.done {
            return Ok(None);
        }
        let shared = &*self.shared;
        let mut inner = shared.inner.lock().expect("gang lock");
        loop {
            let my = inner.next_seq[self.id];
            let frontier = inner.base_seq + inner.ring.len() as u64;
            if my < frontier {
                let chunk = Arc::clone(&inner.ring[(my - inner.base_seq) as usize]);
                inner.next_seq[self.id] = my + 1;
                if inner.release_front() {
                    shared.space.notify_all();
                }
                return Ok(Some(chunk));
            }
            if let Some(msg) = &inner.error {
                return Err(StreamError::Corrupt(msg.clone()));
            }
            if inner.done {
                self.done = true;
                return Ok(None);
            }
            if inner.ring.len() >= shared.max_lead {
                // Too far ahead of the slowest member; wait for the
                // ring to drain (it always will: the slowest member's
                // next chunk is in the ring).
                inner = shared.space.wait(inner).expect("gang lock");
                continue;
            }
            // At the decode frontier with ring space: this member
            // performs the pull on everyone's behalf.
            match inner
                .source
                .as_mut()
                .expect("source until done")
                .next_chunk()
            {
                Ok(Some(chunk)) => {
                    inner.ring.push_back(chunk);
                    inner.stats.chunks += 1;
                    let len = inner.ring.len();
                    inner.stats.peak_ring = inner.stats.peak_ring.max(len);
                }
                Ok(None) => {
                    inner.done = true;
                    inner.source = None;
                    shared.space.notify_all();
                }
                Err(e) => {
                    inner.error = Some(e.to_string());
                    inner.source = None;
                    shared.space.notify_all();
                    return Err(e);
                }
            }
        }
    }

    fn entries_hint(&self) -> Option<u64> {
        self.shared.entries
    }

    fn mem_entries_hint(&self) -> Option<u64> {
        self.shared.mem_entries
    }

    fn max_latency_hint(&self) -> Option<u32> {
        self.shared.max_latency
    }
}

impl Drop for GangMember<'_> {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().expect("gang lock");
        // An abandoned member (panic, early engine exit) must never
        // hold the ring back or block leaders forever.
        inner.next_seq[self.id] = u64::MAX;
        inner.release_front();
        self.shared.space.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::MemAccess;

    fn trace_of(n: usize) -> Trace {
        let entries: Vec<TraceEntry> = (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    TraceEntry {
                        pc: i as u32,
                        op: TraceOp::Load(MemAccess::miss(i as u64 * 8, 10 + (i % 7) as u32)),
                    }
                } else {
                    TraceEntry::compute(i as u32)
                }
            })
            .collect();
        Trace::from_entries(entries)
    }

    #[test]
    fn gang_releases_each_chunk_exactly_at_the_slowest_horizon() {
        // The gang release property: a chunk stays alive while any
        // member still needs it (the ring) or retains it (its engine's
        // lookback horizon), and is freed the moment the slowest
        // covering horizon has passed — no early free, no unbounded
        // retention. Members emulate engines with mixed DS-style
        // lookback windows by holding the most recent `horizon` Arcs.
        let t = trace_of(57);
        let entries = 57usize;
        for chunk_len in [1usize, 7, DEFAULT_CHUNK_LEN, 60] {
            let horizons = [0usize, 3, 1];
            let weaks: Arc<Mutex<Vec<std::sync::Weak<TraceChunk>>>> = Arc::default();
            struct Tracking<'a> {
                inner: SliceSource<'a>,
                weaks: Arc<Mutex<Vec<std::sync::Weak<TraceChunk>>>>,
            }
            impl TraceSource for Tracking<'_> {
                fn next_chunk(&mut self) -> Result<Option<Arc<TraceChunk>>, StreamError> {
                    let got = self.inner.next_chunk()?;
                    if let Some(c) = &got {
                        self.weaks.lock().unwrap().push(Arc::downgrade(c));
                    }
                    Ok(got)
                }
            }
            let source = Tracking {
                inner: SliceSource::with_chunk_len(&t, chunk_len),
                weaks: Arc::clone(&weaks),
            };
            let mut gang = GangCursor::new(Box::new(source), horizons.len(), 4);
            let mut members = gang.members();
            let mut held: Vec<VecDeque<Arc<TraceChunk>>> = vec![VecDeque::new(); horizons.len()];
            let total = entries.div_ceil(chunk_len);
            for seq in 0..total {
                for (m, member) in members.iter_mut().enumerate() {
                    {
                        // Until the last member has consumed chunk
                        // `seq`, the ring must keep it alive even
                        // though faster members dropped their refs.
                        let w = weaks.lock().unwrap();
                        if seq < w.len() {
                            assert!(
                                w[seq].upgrade().is_some(),
                                "chunk {seq} freed before member {m} consumed it \
                                 (chunk_len {chunk_len})"
                            );
                        }
                    }
                    let chunk = member.next_chunk().unwrap().expect("stream not exhausted");
                    assert_eq!(chunk.first_index, (seq * chunk_len) as u64);
                    held[m].push_back(chunk);
                    while held[m].len() > horizons[m] {
                        held[m].pop_front();
                    }
                }
                // Every member consumed `seq` and trimmed to its
                // horizon: a chunk must now be alive exactly while
                // some member's lookback still covers it.
                let w = weaks.lock().unwrap();
                for (j, weak) in w.iter().enumerate().take(seq + 1) {
                    let covered = horizons.iter().any(|&h| j + h > seq);
                    assert_eq!(
                        weak.upgrade().is_some(),
                        covered,
                        "chunk {j} after round {seq} (chunk_len {chunk_len}): \
                         alive must equal covered-by-slowest-horizon"
                    );
                }
            }
            for member in &mut members {
                assert!(member.next_chunk().unwrap().is_none());
            }
            let stats = gang.stats();
            assert_eq!(stats.chunks as usize, total, "one decode per chunk");
            assert_eq!(
                stats.peak_ring, 1,
                "lockstep members keep the ring at one chunk"
            );
            drop(members);
            drop(held);
            assert!(
                weaks.lock().unwrap().iter().all(|w| w.upgrade().is_none()),
                "nothing may outlive the gang and the horizons (chunk_len {chunk_len})"
            );
        }
    }

    #[test]
    fn slice_source_roundtrips_at_awkward_chunk_sizes() {
        let t = trace_of(23);
        for chunk_len in [1, 7, DEFAULT_CHUNK_LEN, 100] {
            let mut src = SliceSource::with_chunk_len(&t, chunk_len);
            let got = collect_source(&mut src).unwrap();
            assert_eq!(got, t, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn soa_columns_roundtrip_every_op_kind() {
        use lookahead_isa::SyncKind;
        let entries = vec![
            TraceEntry::compute(7),
            TraceEntry {
                pc: 8,
                op: TraceOp::Load(MemAccess::hit(0x40)),
            },
            TraceEntry {
                pc: 9,
                op: TraceOp::Store(MemAccess::miss(0x48, 50)),
            },
            TraceEntry {
                pc: 10,
                op: TraceOp::Branch {
                    taken: true,
                    target: 3,
                },
            },
            TraceEntry {
                pc: 11,
                op: TraceOp::Branch {
                    taken: false,
                    target: 90,
                },
            },
            TraceEntry {
                pc: 12,
                op: TraceOp::Jump { target: 42 },
            },
            TraceEntry {
                pc: 13,
                op: TraceOp::Sync(SyncAccess {
                    kind: SyncKind::Barrier,
                    addr: 0x100,
                    wait: 17,
                    access: 50,
                }),
            },
            TraceEntry {
                pc: 14,
                op: TraceOp::Sync(SyncAccess {
                    kind: SyncKind::SetEvent,
                    addr: 0x108,
                    wait: 0,
                    access: 1,
                }),
            },
        ];
        let chunk = TraceChunk::from_slice(5, &entries);
        assert_eq!(chunk.len(), entries.len());
        assert_eq!(chunk.end_index(), 5 + entries.len() as u64);
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(chunk.entry(i), *e, "entry {i}");
            assert_eq!(chunk.pc_at(i), e.pc, "pc {i}");
        }
        let via_iter: Vec<TraceEntry> = chunk.iter().collect();
        assert_eq!(via_iter, entries);
        assert_eq!(chunk.meta, ChunkMeta::of_entries(&entries));
    }

    #[test]
    fn chunk_meta_counts_mem_entries_and_max_latency() {
        let t = trace_of(9);
        let meta = ChunkMeta::of_entries(t.entries());
        assert_eq!(meta.mem_entries as usize, t.mem_entries());
        assert_eq!(meta.max_latency, 16, "max of 10 + (i%7) over i=0,3,6");
    }

    #[test]
    fn builder_emits_fixed_chunks_then_remainder() {
        let mut b = ChunkBuilder::new(4);
        let mut got = Vec::new();
        for i in 0..10 {
            b.push(TraceEntry::compute(i));
            if let Some(c) = b.take_ready() {
                got.push(c);
            }
        }
        if let Some(c) = b.finish() {
            got.push(c);
        }
        assert_eq!(
            got.iter().map(TraceChunk::len).collect::<Vec<_>>(),
            [4, 4, 2]
        );
        assert_eq!(
            got.iter().map(|c| c.first_index).collect::<Vec<_>>(),
            [0, 4, 8]
        );
        assert_eq!(b.entries_pushed(), 10);
    }

    #[test]
    fn collect_sink_reassembles_interleaved_procs() {
        let mut sink = CollectSink::new(2);
        sink.accept(0, &TraceChunk::from_slice(0, &[TraceEntry::compute(0)]))
            .unwrap();
        sink.accept(1, &TraceChunk::from_slice(0, &[TraceEntry::compute(10)]))
            .unwrap();
        sink.accept(0, &TraceChunk::from_slice(1, &[TraceEntry::compute(1)]))
            .unwrap();
        let traces = sink.into_traces();
        assert_eq!(traces[0].len(), 2);
        assert_eq!(traces[1].len(), 1);
        assert_eq!(traces[0].entries()[1].pc, 1);
    }

    #[test]
    fn cursor_slice_and_stream_agree() {
        let t = trace_of(50);
        let mut stream = TraceCursor::new(Box::new(SliceSource::with_chunk_len(&t, 7)));
        for (i, e) in t.entries().iter().enumerate() {
            assert!(!stream.past_end(i));
            assert_eq!(stream.entry(i), *e, "entry {i}");
            assert_eq!(stream.pc(i), e.pc, "pc {i}");
        }
        assert!(stream.past_end(50));
        assert!(stream.take_error().is_none());
    }

    #[test]
    fn cursor_release_drops_chunks_and_forbids_rereads() {
        let t = trace_of(30);
        let mut c = TraceCursor::new(Box::new(SliceSource::with_chunk_len(&t, 5)));
        assert!(!c.past_end(17));
        c.release_before(12);
        // 12 falls inside the chunk [10, 15): only [0,10) dropped.
        assert_eq!(c.entry(10), t.entries()[10]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.entry(3)));
        assert!(result.is_err(), "released entries must not be readable");
    }

    #[test]
    fn cursor_reports_gap_as_error() {
        struct Gappy(u32);
        impl TraceSource for Gappy {
            fn next_chunk(&mut self) -> Result<Option<Arc<TraceChunk>>, StreamError> {
                self.0 += 1;
                match self.0 {
                    1 => Ok(Some(Arc::new(TraceChunk::from_slice(
                        0,
                        &[TraceEntry::compute(0)],
                    )))),
                    2 => Ok(Some(Arc::new(TraceChunk::from_slice(
                        5,
                        &[TraceEntry::compute(5)],
                    )))),
                    _ => Ok(None),
                }
            }
        }
        let mut c = TraceCursor::new(Box::new(Gappy(0)));
        assert!(!c.past_end(0));
        assert!(c.past_end(1), "gap truncates the stream");
        assert!(matches!(c.take_error(), Some(StreamError::Corrupt(_))));
    }

    #[test]
    fn gang_members_all_see_the_full_stream() {
        let t = trace_of(100);
        for members in [1, 2, 5] {
            let mut gang =
                GangCursor::new(Box::new(SliceSource::with_chunk_len(&t, 9)), members, 3);
            let handles = gang.members();
            let collected: Vec<Trace> = std::thread::scope(|s| {
                let joins: Vec<_> = handles
                    .into_iter()
                    .map(|mut m| s.spawn(move || collect_source(&mut m).unwrap()))
                    .collect();
                joins.into_iter().map(|j| j.join().unwrap()).collect()
            });
            for got in &collected {
                assert_eq!(*got, t, "{members} members");
            }
            let stats = gang.stats();
            assert_eq!(stats.chunks, 100usize.div_ceil(9) as u64);
            assert!(stats.peak_ring <= 3, "ring bounded by max_lead");
        }
    }

    #[test]
    fn gang_fans_out_one_error_to_every_member() {
        struct Failing(u32);
        impl TraceSource for Failing {
            fn next_chunk(&mut self) -> Result<Option<Arc<TraceChunk>>, StreamError> {
                self.0 += 1;
                if self.0 <= 2 {
                    Ok(Some(Arc::new(TraceChunk::from_slice(
                        u64::from(self.0 - 1),
                        &[TraceEntry::compute(self.0 - 1)],
                    ))))
                } else {
                    Err(StreamError::Corrupt("boom".into()))
                }
            }
        }
        let mut gang = GangCursor::new(Box::new(Failing(0)), 3, 2);
        let handles = gang.members();
        let outcomes: Vec<Result<Trace, StreamError>> = std::thread::scope(|s| {
            let joins: Vec<_> = handles
                .into_iter()
                .map(|mut m| s.spawn(move || collect_source(&mut m)))
                .collect();
            joins.into_iter().map(|j| j.join().unwrap()).collect()
        });
        for o in &outcomes {
            let e = o.as_ref().expect_err("every member sees the failure");
            assert!(e.to_string().contains("boom"), "got {e}");
        }
    }

    #[test]
    fn gang_dropped_member_does_not_stall_the_rest() {
        let t = trace_of(60);
        let mut gang = GangCursor::new(Box::new(SliceSource::with_chunk_len(&t, 4)), 2, 2);
        let mut handles = gang.members();
        let slowpoke = handles.pop().unwrap();
        let mut leader = handles.pop().unwrap();
        // The abandoned member would otherwise cap the leader at
        // max_lead chunks.
        drop(slowpoke);
        let got = collect_source(&mut leader).unwrap();
        assert_eq!(got, t);
    }
}
