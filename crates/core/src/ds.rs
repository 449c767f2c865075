//! The dynamically scheduled processor (Johnson-style) — §3.1.
//!
//! The model follows the paper's description of the architecture
//! derived from Johnson's design:
//!
//! * decoded instructions enter a **reorder buffer** (the *lookahead
//!   window*) of 16–256 entries, at most `issue_width` per cycle
//!   (1 in the main experiments, 4 in §4.2);
//! * **register renaming** through the reorder buffer removes WAR/WAW
//!   hazards — an instruction waits only for its true producers;
//! * all functional units are single-cycle and fully available (the
//!   paper assumes 1-cycle latency everywhere but the load/store
//!   unit), so an instruction completes one cycle after its operands
//!   are ready; only the **single cache port** (one load/store issued
//!   per cycle) and the window itself are structural hazards;
//! * a **branch target buffer** predicts branches at decode;
//!   speculative execution proceeds past predicted branches, and a
//!   misprediction stalls fetch until the branch resolves (wrong-path
//!   instructions are not in the trace; the modelled penalty is the
//!   fetch gap, the standard trace-driven treatment);
//! * **FIFO retirement** (precise interrupts): instructions leave the
//!   window in program order, so a long-latency load at the head holds
//!   window slots even when younger instructions have executed —
//!   exactly the conservatism the paper's §5 discusses;
//! * a store retires from the window "as soon as its address
//!   translation completes and the consistency constraints allow its
//!   issue" (paper footnote 2) into a 16-entry **store buffer** that
//!   issues to memory through the shared port; loads check the buffer
//!   and forward matching values;
//! * the data cache is **lockup-free**: misses occupy MSHRs
//!   (unbounded by default) and overlap; misses to the same line
//!   merge.
//!
//! Consistency models gate when each memory operation may issue, via
//! the [`ConsistencyModel::must_wait_for`] matrix over all earlier
//! not-yet-performed operations (window *and* store buffer).
//!
//! The §4.1.3 ablations are `perfect_branch_prediction` (never
//! mispredict) and `ignore_data_dependences` (operands always ready;
//! consistency constraints still respected, per the paper's
//! footnote 3).

use crate::btb::{Btb, BtbConfig};
use crate::consistency::{ConsistencyModel, MemOpKind};
use crate::model::{ExecutionResult, ProcessorModel};
use lookahead_isa::{Instruction, Program, SyncKind, WORD_BYTES};
use lookahead_memsys::MshrFile;
#[cfg(feature = "obs")]
use lookahead_obs::{self as obs, EventKind};
use lookahead_trace::{SliceSource, StreamError, Trace, TraceCursor, TraceOp, TraceSource};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::ops::{Index, IndexMut};

/// Cache line size used for MSHR merging (the paper's 16 bytes).
const LINE_BYTES: u64 = 16;

/// Configuration of the dynamically scheduled processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsConfig {
    /// Reorder-buffer (lookahead window) size: 16–256 in the paper.
    pub window_size: usize,
    /// Instructions decoded and retired per cycle (1, or 4 for §4.2).
    pub issue_width: usize,
    /// Consistency model enforced by the load/store unit.
    pub model: ConsistencyModel,
    /// §4.1.3 ablation: branches never mispredict.
    pub perfect_branch_prediction: bool,
    /// §4.1.3 ablation: register and memory data dependences are
    /// ignored (consistency constraints still apply).
    pub ignore_data_dependences: bool,
    /// Store buffer depth (paper: 16).
    pub store_buffer_depth: usize,
    /// Maximum outstanding missed lines (`None` = unbounded, the
    /// paper's aggressive memory system).
    pub mshr_limit: Option<usize>,
    /// Branch target buffer geometry.
    pub btb: BtbConfig,
    /// §6 / reference \[8\], technique 1: **non-binding prefetch** for
    /// loads delayed by consistency constraints. The cache fill starts
    /// when the address is known; by the time the constraints allow
    /// the binding access, the line is (partially) fetched, shrinking
    /// the observed latency. Boosts strict models (SC/PC) without
    /// violating them.
    pub nonbinding_prefetch: bool,
    /// §6 / reference \[8\], technique 2: **speculative load execution**
    /// — loads issue and bind their values regardless of consistency
    /// constraints, with hardware rollback on a detected violation. In
    /// trace-driven re-timing no violation can manifest, so this
    /// models the technique's best case (the paper's own caveat).
    pub speculative_loads: bool,
}

impl DsConfig {
    /// The paper's main configuration under the given model: 64-entry
    /// window, single issue, real BTB, dependences honored.
    pub fn with_model(model: ConsistencyModel) -> DsConfig {
        DsConfig {
            window_size: 64,
            issue_width: 1,
            model,
            perfect_branch_prediction: false,
            ignore_data_dependences: false,
            store_buffer_depth: 16,
            mshr_limit: None,
            btb: BtbConfig::PAPER,
            nonbinding_prefetch: false,
            speculative_loads: false,
        }
    }

    /// Shorthand for [`DsConfig::with_model`]`(ConsistencyModel::Rc)`.
    pub fn rc() -> DsConfig {
        DsConfig::with_model(ConsistencyModel::Rc)
    }

    /// Returns the configuration with a different window size.
    pub fn window(self, window_size: usize) -> DsConfig {
        DsConfig {
            window_size,
            ..self
        }
    }
}

/// The dynamically scheduled processor model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ds {
    config: DsConfig,
}

impl Ds {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate configuration (zero window size, issue
    /// width, or store buffer depth).
    pub fn new(config: DsConfig) -> Ds {
        assert!(config.window_size > 0, "window must hold an instruction");
        assert!(config.issue_width > 0, "issue width must be positive");
        assert!(config.store_buffer_depth > 0, "store buffer too small");
        Ds { config }
    }

    /// The configuration.
    pub fn config(&self) -> DsConfig {
        self.config
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum EKind {
    #[default]
    Alu,
    Branch,
    /// Any memory or synchronization operation; details in `MemOp`.
    Mem,
}

/// A window entry. The default value fills slab slots that have never
/// held one.
#[derive(Debug, Default)]
struct Entry {
    trace_idx: usize,
    kind: EKind,
    /// Producers not yet resolved.
    unresolved: u32,
    /// Max over decode time and known producer completion times.
    base_ready: u64,
    /// Completion time (ALU/branch: ready+1; load-like: set at memory
    /// issue; stores: unused, they retire into the buffer).
    completion: Option<u64>,
    /// Entries waiting on this one's completion. The vector outlives
    /// the entry: the next entry decoded into the same slab slot
    /// reuses its allocation.
    waiters: Vec<u64>,
    /// Register slots (0–31 integer, 32–63 FP) this entry renamed at
    /// decode; its completion time is folded into `reg_time` there.
    dests: [Option<u8>; 2],
    /// The memop's global index in `memops`, for memory operations.
    mem: Option<usize>,
    /// Whether fetch is stalled waiting for this branch to resolve.
    fetch_blocker: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MState {
    /// Operands not yet ready.
    Waiting,
    /// Operands ready (at the contained time); not yet issued.
    Ready(u64),
    /// Retired into the store buffer (stores/releases only).
    InBuffer,
    /// Issued to memory; performs at the contained time.
    Issued(u64),
}

#[derive(Debug)]
struct MemOp {
    kind: MemOpKind,
    word_addr: u64,
    /// Memory latency issued to the cache (for acquires this is the
    /// *access* component only; the wait component is charged at the
    /// window head, where it cannot be hidden).
    latency: u32,
    /// Unhidable wait component of an acquire/barrier (contention,
    /// load imbalance), charged while the operation sits at the head
    /// of the window.
    wait: u32,
    is_miss: bool,
    decode_time: u64,
    entry_id: u64,
    state: MState,
    /// Trace pc, for labelling the issue and completion events.
    #[cfg(feature = "obs")]
    pc: u32,
    /// First cycle the operation was observed at the window head.
    head_since: Option<u64>,
    /// For acquires/barriers: the cycle the operation retired, which
    /// is when it counts as performed for ordering purposes (the lock
    /// is not held before the wait has elapsed).
    acquire_done: Option<u64>,
}

impl MemOp {
    fn performed_by(&self, now: u64) -> bool {
        if self.kind.acquires() {
            self.acquire_done.is_some_and(|t| t <= now)
        } else {
            matches!(self.state, MState::Issued(done) if done <= now)
        }
    }
}

/// Fills ring slots that hold no memop; never read as one.
impl Default for MemOp {
    fn default() -> MemOp {
        MemOp {
            kind: MemOpKind::Read,
            word_addr: 0,
            latency: 0,
            wait: 0,
            is_miss: false,
            decode_time: 0,
            entry_id: 0,
            state: MState::Waiting,
            #[cfg(feature = "obs")]
            pc: 0,
            head_since: None,
            acquire_done: None,
        }
    }
}

/// Values addressed by a dense, increasing global index (for memops,
/// their position in program order), kept in a power-of-two ring of
/// slots at `index & mask`. The ring holds the indices `[low, next)`.
/// A push into a full ring reuses the slot of `low` if the caller
/// declares that value dead, and otherwise doubles the ring. Reuse is
/// decided at push time only, so reads and steady-state pushes do no
/// extra work; an index below `low` (the reuse watermark) reads as
/// absent. `low` rather than `next - capacity` marks the reused
/// indices: after a growth, indices reused before it map onto the new
/// ring's empty slots.
#[derive(Debug)]
struct Ring<T> {
    slots: Vec<T>,
    mask: usize,
    /// The lowest index whose slot has not been reused.
    low: usize,
    /// The index the next push takes.
    next: usize,
}

impl<T: Default> Ring<T> {
    /// An empty ring of `capacity` rounded up to a power of two.
    fn with_capacity(capacity: usize) -> Ring<T> {
        let capacity = capacity.next_power_of_two();
        Ring {
            slots: std::iter::repeat_with(T::default).take(capacity).collect(),
            mask: capacity - 1,
            low: 0,
            next: 0,
        }
    }

    /// Appends `value` and returns its index. If the ring is full,
    /// `dead` is asked about the value at `low`, the one whose slot
    /// the new index maps to.
    #[inline]
    fn push(&mut self, value: T, dead: impl FnOnce(&T) -> bool) -> usize {
        let index = self.next;
        if index - self.low == self.slots.len() {
            if dead(&self.slots[index & self.mask]) {
                self.low += 1;
            } else {
                self.grow();
            }
        }
        self.slots[index & self.mask] = value;
        self.next = index + 1;
        index
    }

    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let capacity = 2 * self.slots.len();
        let mut slots: Vec<T> = std::iter::repeat_with(T::default).take(capacity).collect();
        for index in self.low..self.next {
            slots[index & (capacity - 1)] = std::mem::take(&mut self.slots[index & self.mask]);
        }
        self.slots = slots;
        self.mask = capacity - 1;
    }
}

impl<T> Ring<T> {
    /// The value at `index`, or `None` if its slot was reused.
    #[inline]
    fn get(&self, index: usize) -> Option<&T> {
        debug_assert!(index < self.next, "index {index} not pushed yet");
        (index >= self.low).then(|| &self.slots[index & self.mask])
    }
}

impl Ring<MemOp> {
    /// Whether the memop at `mi` has performed by `now`. A reused slot
    /// held a memop that had performed, and performing is final.
    #[inline]
    fn performed(&self, mi: usize, now: u64) -> bool {
        self.get(mi).is_none_or(|m| m.performed_by(now))
    }
}

/// Indexing requires a live index: one in `[low, next)`.
impl<T> Index<usize> for Ring<T> {
    type Output = T;

    #[inline]
    fn index(&self, index: usize) -> &T {
        debug_assert!(
            self.low <= index && index < self.next,
            "index {index} outside the ring's live range [{}, {})",
            self.low,
            self.next
        );
        &self.slots[index & self.mask]
    }
}

impl<T> IndexMut<usize> for Ring<T> {
    #[inline]
    fn index_mut(&mut self, index: usize) -> &mut T {
        debug_assert!(
            self.low <= index && index < self.next,
            "index {index} outside the ring's live range [{}, {})",
            self.low,
            self.next
        );
        &mut self.slots[index & self.mask]
    }
}

/// The register slots (0–31 integer, 32–63 FP) one instruction reads
/// and writes, decoded once per run so that decode does not match on
/// its `Instruction` again for every trace entry.
#[derive(Debug, Clone, Copy)]
struct RegUse {
    /// Integer then FP sources, in the order the instruction reports
    /// them; the first `n_sources` are valid.
    sources: [u8; 4],
    n_sources: u8,
    /// Integer and FP destination.
    dests: [Option<u8>; 2],
}

impl RegUse {
    fn of(instr: &Instruction) -> RegUse {
        let (ints, fps) = (instr.int_sources(), instr.fp_sources());
        let slots = ints
            .iter()
            .map(|r| r.index())
            .chain(fps.iter().map(|r| 32 + r.index()));
        let mut sources = [0; 4];
        let mut n_sources = 0;
        for slot in slots {
            sources[n_sources] = slot as u8;
            n_sources += 1;
        }
        RegUse {
            sources,
            n_sources: n_sources as u8,
            dests: [
                instr.int_dest().map(|r| r.index() as u8),
                instr.fp_dest().map(|r| (32 + r.index()) as u8),
            ],
        }
    }

    fn sources(&self) -> &[u8] {
        &self.sources[..self.n_sources as usize]
    }
}

/// A window memop awaiting issue (load, acquire or barrier), with the
/// two facts the issue loop filters on, so that a load whose operands
/// are not ready, or which an older operation blocks, is passed over
/// without reading its `MemOp`.
#[derive(Debug, Clone, Copy)]
struct PendingLoad {
    mi: usize,
    kind: MemOpKind,
    /// Operand-ready time: the memop is `MState::Ready(ready)`.
    ready: u64,
}

/// Every [`MemOpKind`]; `kind as usize` is its position here and
/// indexes the engine's per-kind tables.
const MEM_KINDS: [MemOpKind; 5] = [
    MemOpKind::Read,
    MemOpKind::Write,
    MemOpKind::Acquire,
    MemOpKind::Release,
    MemOpKind::Barrier,
];

/// The kinds that issue from the window rather than the store buffer.
const LOAD_KINDS: [MemOpKind; 3] = [MemOpKind::Read, MemOpKind::Acquire, MemOpKind::Barrier];

const _: () = {
    let mut i = 0;
    while i < MEM_KINDS.len() {
        assert!(
            MEM_KINDS[i] as usize == i,
            "MEM_KINDS must follow MemOpKind's order"
        );
        i += 1;
    }
};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StallClass {
    Read,
    Write,
    Sync,
    Fetch,
}

struct Engine<'a> {
    cfg: DsConfig,
    /// Register use of every program instruction, by pc.
    regs: Vec<RegUse>,
    cursor: TraceCursor<'a>,
    now: u64,
    next_decode: usize,
    /// Whether `next_decode` is past the end of the trace, refreshed
    /// whenever `next_decode` moves (the check pulls chunks, so it
    /// cannot live in `&self` accessors).
    decode_exhausted: bool,
    /// Ids are dense and monotonic: the live window is exactly the id
    /// range `[head_id, next_id)`, stored in a preallocated slab ring
    /// indexed by `id & slab_mask` (capacity = window size rounded up
    /// to a power of two, so live ids can never collide). Retired
    /// entries stay in their slots until a decode overwrites them.
    head_id: u64,
    next_id: u64,
    slab: Vec<Entry>,
    slab_mask: u64,
    /// The memory operations, addressed by their global index (their
    /// position in program order), in a ring sized for the window plus
    /// the store buffer. Decode reuses a memop's slot once the memop
    /// has retired and performed, and grows the ring otherwise, so
    /// every memop in the window or the store buffer is live. A reused
    /// index reads as performed ([`Ring::performed`]); such indices can
    /// still sit in `unperformed` and the store buffer.
    memops: Ring<MemOp>,
    /// Per kind (indexed by `kind as usize`), the memops of that kind
    /// that may still be unperformed, in program order. Performed ops
    /// are popped off a queue's front before each push and whenever
    /// the front is read, so a front that is read is the oldest
    /// unperformed op of its kind. An op performs before it leaves
    /// both the window and the store buffer, so after each push
    /// everything queued is in one of them: together the queues hold
    /// at most the window plus the store buffer.
    unperformed: [VecDeque<usize>; 5],
    /// `waits_for[later][earlier]`: the model's
    /// [`ConsistencyModel::must_wait_for`], tabulated once.
    waits_for: [[bool; 5]; 5],
    /// Whether every load kind must wait for earlier ops of its own
    /// kind (SC and PC without speculative loads). A pending load is
    /// then eligible only if it is the oldest unperformed op of its
    /// kind.
    loads_self_ordered: bool,
    /// Pending `MState::Ready(t)` / `MState::Issued(done)` thresholds
    /// later than `now`, as a min-heap. A memop cannot leave
    /// `Ready(t)` before `t` and `Issued` is final, so every entry is
    /// a live threshold. Entries `<= now` are dropped at the start of
    /// every cycle, so the heap holds at most one threshold per memop
    /// in the window or the store buffer.
    thresholds: BinaryHeap<Reverse<u64>>,
    /// Window memops awaiting issue (loads/acquires/barriers), in the
    /// order their operand-ready times became known. That is not
    /// program order: a load whose producer completes late is queued
    /// behind younger loads that were ready earlier, and the issue
    /// phase takes the first eligible entry.
    pending_loads: VecDeque<PendingLoad>,
    /// Store buffer: memop indices in FIFO order. It issues in order,
    /// so the first `sb_issued` entries are `Issued` and the rest
    /// `InBuffer`; performed entries are popped off the front.
    store_buffer: VecDeque<usize>,
    sb_issued: usize,
    /// Register state: ready time or producing entry.
    reg_time: [u64; 64],
    reg_producer: [Option<u64>; 64],
    btb: Btb,
    mshrs: MshrFile,
    fetch_resume: u64,
    fetch_blocked: bool,
    /// Event-driven mode: skip straight over dead cycles. `false`
    /// retains the original cycle-by-cycle reference stepper that the
    /// equivalence suite compares against.
    skip: bool,
    /// Work stack of `set_completion`, kept to reuse its allocation.
    completions: Vec<(u64, u64)>,
    /// Oracle state: the first memop index that may still be
    /// unperformed. The linear scans that cross-check every indexed
    /// answer in debug builds start here.
    #[cfg(debug_assertions)]
    mem_head: usize,
    result: ExecutionResult,
}

impl<'a> Engine<'a> {
    fn new(
        cfg: DsConfig,
        program: &'a Program,
        mut cursor: TraceCursor<'a>,
        skip: bool,
    ) -> Engine<'a> {
        let slab_cap = cfg.window_size.next_power_of_two();
        let decode_exhausted = cursor.past_end(0);
        let pending_cap = cfg.window_size.min(cursor.loaded_len());
        let waits_for =
            MEM_KINDS.map(|later| MEM_KINDS.map(|earlier| cfg.model.must_wait_for(earlier, later)));
        let loads_self_ordered = !cfg.speculative_loads
            && LOAD_KINDS
                .into_iter()
                .all(|k| cfg.model.must_wait_for(k, k));
        Engine {
            cfg,
            regs: program.instructions().iter().map(RegUse::of).collect(),
            cursor,
            now: 0,
            next_decode: 0,
            decode_exhausted,
            head_id: 0,
            next_id: 0,
            slab: std::iter::repeat_with(Entry::default)
                .take(slab_cap)
                .collect(),
            slab_mask: (slab_cap - 1) as u64,
            memops: Ring::with_capacity(cfg.window_size + cfg.store_buffer_depth),
            unperformed: Default::default(),
            waits_for,
            loads_self_ordered,
            thresholds: BinaryHeap::with_capacity(pending_cap + cfg.store_buffer_depth),
            pending_loads: VecDeque::with_capacity(pending_cap),
            store_buffer: VecDeque::with_capacity(cfg.store_buffer_depth),
            sb_issued: 0,
            reg_time: [0; 64],
            reg_producer: [None; 64],
            btb: Btb::new(cfg.btb),
            mshrs: MshrFile::new(cfg.mshr_limit),
            fetch_resume: 0,
            fetch_blocked: false,
            skip,
            completions: Vec::new(),
            #[cfg(debug_assertions)]
            mem_head: 0,
            result: ExecutionResult::default(),
        }
    }

    fn window_len(&self) -> usize {
        (self.next_id - self.head_id) as usize
    }

    /// The live entry with id `id`. Ids outside `[head_id, next_id)`
    /// are a logic error (the slot may hold a different entry).
    fn entry(&self, id: u64) -> &Entry {
        debug_assert!(self.head_id <= id && id < self.next_id, "dead id {id}");
        &self.slab[(id & self.slab_mask) as usize]
    }

    fn entry_mut(&mut self, id: u64) -> &mut Entry {
        debug_assert!(self.head_id <= id && id < self.next_id, "dead id {id}");
        &mut self.slab[(id & self.slab_mask) as usize]
    }

    /// A hard progress bound: no trace entry can legitimately take
    /// longer than its worst-case serial latency, so a run exceeding
    /// this is a model deadlock (usually a mismatched program/trace
    /// pair) and must fail loudly. The bound grows with the entries
    /// pulled so far, which always covers everything decoded.
    fn progress_bound(&self) -> u64 {
        100_000 + (self.cursor.loaded_len() as u64) * (1 << 14)
    }

    fn run(&mut self) -> Result<ExecutionResult, StreamError> {
        loop {
            let bound = self.progress_bound();
            let done = self.decode_exhausted
                && self.head_id == self.next_id
                && self.store_buffer_occupancy() == 0;
            if done {
                break;
            }
            while self
                .thresholds
                .peek()
                .is_some_and(|&Reverse(t)| t <= self.now)
            {
                self.thresholds.pop();
            }
            self.mshrs.retire_completed(self.now);
            let retired = self.retire_phase();
            let issued = self.issue_phase();
            let decoded = self.fetch_phase();
            if retired > 0 {
                self.result.breakdown.busy += 1;
                #[cfg(feature = "obs")]
                {
                    let occupancy = self.window_len() as u64;
                    obs::with(|r| {
                        r.metrics.observe("core.ds.rob_occupancy", occupancy);
                        r.busy_cycle();
                    });
                }
                self.now += 1;
            } else {
                // Nothing retired at `now`. If nothing issued or
                // decoded either, the architectural state is frozen:
                // every eligibility predicate in the model is a
                // monotone threshold on time, so nothing can happen
                // strictly before the earliest pending threshold.
                // Jump there in one step and charge the whole span to
                // the stall class at `now` (constant across the span,
                // since no threshold fires inside it). The span is
                // clamped to the progress bound so a skip can never
                // jump past it silently: a deadlocked machine lands
                // exactly on the bound and the assert below fires.
                let span = if self.skip && !issued && decoded == 0 {
                    self.next_event_time()
                        .unwrap_or(bound)
                        .clamp(self.now + 1, bound)
                        - self.now
                } else {
                    1
                };
                let class = self.stall_class();
                match class {
                    StallClass::Read => self.result.breakdown.read += span,
                    StallClass::Write => self.result.breakdown.write += span,
                    StallClass::Sync => self.result.breakdown.sync += span,
                    StallClass::Fetch => {
                        self.result.breakdown.busy += span;
                        self.result.stats.fetch_stall_cycles += span;
                    }
                }
                #[cfg(feature = "obs")]
                {
                    let occupancy = self.window_len() as u64;
                    let (pc, cause) = self.stall_blame(class);
                    let now = self.now;
                    obs::with(|r| {
                        r.metrics
                            .observe_n("core.ds.rob_occupancy", occupancy, span);
                        r.stall_span(now, span, pc, obs_class(class), cause);
                    });
                }
                self.now += span;
            }
            assert!(
                self.now < self.progress_bound(),
                "no forward progress after {} cycles ({} trace entries decoded): \
                 the program and trace likely do not match",
                self.now,
                self.next_decode
            );
        }
        if let Some(e) = self.cursor.take_error() {
            // The source failed mid-run: the engine saw a truncated
            // trace, so the partial accounting is meaningless.
            return Err(e);
        }
        self.result.stats.peak_outstanding_misses = self.mshrs.peak();
        Ok(std::mem::take(&mut self.result))
    }

    /// The earliest future cycle at which the frozen machine state can
    /// change: a window-head completion or acquire-wait expiry, a
    /// pending operand-ready or memory-completion threshold, an MSHR
    /// retiring (freeing a slot for a structurally stalled request),
    /// or the fetch stage resuming after a resolved misprediction.
    /// `None` with work still outstanding is a model deadlock; the
    /// caller jumps to the progress bound so it fails loudly.
    fn next_event_time(&self) -> Option<u64> {
        let now = self.now;
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            if t > now {
                next = Some(next.map_or(t, |n: u64| n.min(t)));
            }
        };
        if self.head_id < self.next_id {
            let e = self.entry(self.head_id);
            if let Some(c) = e.completion {
                consider(c);
            }
            if let Some(mi) = e.mem {
                let m = &self.memops[mi];
                if m.kind.acquires() {
                    // head_since was set by this cycle's retire phase.
                    if let Some(since) = m.head_since {
                        consider(since + m.wait as u64);
                    }
                }
            }
        }
        // The earliest operand-ready or memory-completion threshold of
        // any memop. (These cover store-buffer drains and
        // consistency-constraint expiry: both are "an earlier op
        // performs", which is that op's own Issued threshold.)
        let threshold = self.thresholds.peek().map(|&Reverse(t)| t);
        #[cfg(debug_assertions)]
        debug_assert_eq!(threshold, self.threshold_scan(), "threshold heap");
        if let Some(t) = threshold {
            consider(t);
        }
        if let Some(t) = self.mshrs.next_completion() {
            consider(t);
        }
        if !self.fetch_blocked && self.window_len() < self.cfg.window_size && !self.decode_exhausted
        {
            consider(self.fetch_resume);
        }
        next
    }

    // ---- retirement ----------------------------------------------------

    fn retire_phase(&mut self) -> usize {
        let mut retired = 0;
        while retired < self.cfg.issue_width {
            if self.head_id == self.next_id {
                break;
            }
            let head = self.head_id;
            let (kind, mem_idx, completion) = {
                let e = self.entry(head);
                (e.kind, e.mem, e.completion)
            };
            let can_retire = match kind {
                EKind::Alu | EKind::Branch => completion.is_some_and(|c| c <= self.now),
                EKind::Mem => {
                    let mi = mem_idx.expect("mem entry");
                    match self.memops[mi].kind {
                        MemOpKind::Write | MemOpKind::Release => self.store_can_move_to_buffer(mi),
                        MemOpKind::Acquire | MemOpKind::Barrier => {
                            // The wait component starts counting when
                            // the acquire reaches the head: imbalance
                            // and contention cannot be looked past.
                            let m = &mut self.memops[mi];
                            let since = *m.head_since.get_or_insert(self.now);
                            let wait_over = self.now >= since + m.wait as u64;
                            let m = &self.memops[mi];
                            let access_done = matches!(m.state, MState::Issued(d) if d <= self.now);
                            wait_over && access_done
                        }
                        MemOpKind::Read => completion.is_some_and(|c| c <= self.now),
                    }
                }
            };
            if !can_retire {
                break;
            }
            if let Some(mi) = mem_idx {
                match self.memops[mi].kind {
                    MemOpKind::Write | MemOpKind::Release => {
                        self.memops[mi].state = MState::InBuffer;
                        self.store_buffer.push_back(mi);
                    }
                    MemOpKind::Acquire | MemOpKind::Barrier => {
                        self.memops[mi].acquire_done = Some(self.now);
                        let entry_id = self.memops[mi].entry_id;
                        self.set_completion(entry_id, self.now);
                    }
                    MemOpKind::Read => {}
                }
            }
            #[cfg(feature = "obs")]
            {
                let pc = self.cursor.pc(self.entry(head).trace_idx);
                let now = self.now;
                obs::with(|r| {
                    r.event(now, EventKind::Retire { pc });
                    r.metrics.inc("core.ds.retired", 1);
                });
            }
            self.head_id += 1;
            self.result.stats.instructions += 1;
            retired += 1;
        }
        if retired > 0 {
            // Entries older than the new window head can never be read
            // again (dataflow walks only live ids, whose trace indices
            // are monotone in id); let the cursor drop their chunks.
            let keep_from = if self.head_id < self.next_id {
                self.entry(self.head_id).trace_idx
            } else {
                self.next_decode
            };
            self.cursor.release_before(keep_from);
        }
        retired
    }

    /// Whether the store/release at `mi` (assumed at the window head)
    /// may retire into the store buffer now.
    fn store_can_move_to_buffer(&mut self, mi: usize) -> bool {
        let m = &self.memops[mi];
        let ready = match m.state {
            MState::Ready(t) => t <= self.now,
            _ => false,
        };
        ready
            && self.store_buffer_occupancy() < self.cfg.store_buffer_depth
            && self.consistency_eligible(mi)
    }

    fn store_buffer_occupancy(&self) -> usize {
        self.store_buffer
            .iter()
            .filter(|&&mi| !self.memops.performed(mi, self.now))
            .count()
    }

    // ---- memory issue ----------------------------------------------------

    /// The oldest unperformed memop of kind index `kind`, after popping
    /// performed ones off the front of its queue.
    fn oldest_unperformed(&mut self, kind: usize) -> Option<usize> {
        let queue = &mut self.unperformed[kind];
        while let Some(&mi) = queue.front() {
            if !self.memops.performed(mi, self.now) {
                return Some(mi);
            }
            queue.pop_front();
        }
        None
    }

    /// The oldest unperformed memop of every kind, by `kind as usize`.
    fn fronts(&mut self) -> [Option<usize>; 5] {
        std::array::from_fn(|kind| self.oldest_unperformed(kind))
    }

    /// The oldest op in `fronts` that an op of kind `later` must wait
    /// for under the model: `later` at index `mi` is
    /// consistency-eligible iff this is `None` or not before `mi`.
    fn blocker(&self, fronts: &[Option<usize>; 5], later: MemOpKind) -> Option<usize> {
        let waits = &self.waits_for[later as usize];
        (0..MEM_KINDS.len())
            .filter(|&k| waits[k])
            .filter_map(|k| fronts[k])
            .min()
    }

    /// Every earlier not-yet-performed memop the model orders before
    /// `mi` must have performed.
    fn consistency_eligible(&mut self, mi: usize) -> bool {
        let fronts = self.fronts();
        let eligible = self
            .blocker(&fronts, self.memops[mi].kind)
            .is_none_or(|b| b >= mi);
        #[cfg(debug_assertions)]
        debug_assert_eq!(eligible, self.consistency_eligible_scan(mi), "memop {mi}");
        eligible
    }

    /// For a load: the latest earlier unperformed store/release to the
    /// same word, if any. `oldest_store` is the oldest unperformed
    /// store or release; a load older than it has nothing to forward
    /// from.
    fn forwarding_source(&self, mi: usize, oldest_store: Option<usize>) -> Option<usize> {
        let src = if oldest_store.is_none_or(|s| s > mi) {
            None
        } else {
            let addr = self.memops[mi].word_addr;
            [MemOpKind::Write, MemOpKind::Release]
                .into_iter()
                .filter_map(|kind| {
                    let queue = &self.unperformed[kind as usize];
                    let end = queue.partition_point(|&j| j < mi);
                    queue.range(..end).rev().copied().find(|&j| {
                        self.memops
                            .get(j)
                            .is_some_and(|e| e.word_addr == addr && !e.performed_by(self.now))
                    })
                })
                .max()
        };
        #[cfg(debug_assertions)]
        debug_assert_eq!(src, self.forwarding_source_scan(mi), "load {mi}");
        src
    }

    /// Issues at most one memory operation to the single cache port.
    /// Returns whether anything issued (if so, the cycle made progress
    /// and cannot be skipped past).
    fn issue_phase(&mut self) -> bool {
        self.pop_performed_stores();
        let now = self.now;
        // Window ops (loads/acquires/barriers) have priority over the
        // store buffer on the single cache port.
        if let Some((pos, mi, done)) = self.select_load() {
            self.pending_loads.remove(pos);
            #[cfg(feature = "obs")]
            {
                let m = &self.memops[mi];
                let (pc, addr) = (m.pc, m.word_addr);
                obs::with(|r| {
                    r.event(now, EventKind::Issue { pc, addr });
                    r.event(done, EventKind::Complete { pc, addr });
                });
            }
            let m = &mut self.memops[mi];
            m.state = MState::Issued(done);
            if m.kind == MemOpKind::Read && m.is_miss {
                self.result
                    .stats
                    .read_miss_issue_delays
                    .push((now - m.decode_time) as u32);
            }
            let (kind, entry_id) = (m.kind, m.entry_id);
            self.push_threshold(done);
            if !kind.acquires() {
                // Acquires complete at retirement (after their wait);
                // everything else completes when memory responds.
                self.set_completion(entry_id, done);
            }
            return true;
        }
        // Otherwise the store buffer may use the port (FIFO). Store
        // misses occupy MSHRs like loads: same-line misses merge and a
        // full file stalls the issue.
        #[cfg(debug_assertions)]
        debug_assert_eq!(
            self.store_buffer.get(self.sb_issued),
            self.store_buffer.iter().find(|&&mi| {
                let m = self.memops.get(mi);
                m.is_some_and(|m| m.state == MState::InBuffer)
            }),
            "issued prefix of the store buffer"
        );
        if let Some(&mi) = self.store_buffer.get(self.sb_issued) {
            let m = &self.memops[mi];
            let done = if m.is_miss {
                let line = m.word_addr & !(LINE_BYTES - 1);
                match self.mshrs.request(line, now, m.latency) {
                    Some(done) => done,
                    None => return false, // MSHRs full: retry next cycle
                }
            } else {
                now + m.latency as u64
            };
            #[cfg(feature = "obs")]
            {
                let (pc, addr) = (m.pc, m.word_addr);
                obs::with(|r| {
                    r.event(now, EventKind::Issue { pc, addr });
                    r.event(done, EventKind::Complete { pc, addr });
                });
            }
            self.memops[mi].state = MState::Issued(done);
            self.sb_issued += 1;
            self.push_threshold(done);
            return true;
        }
        false
    }

    /// The first pending load that may issue now, as (its position in
    /// `pending_loads`, its memop, its completion time), having taken
    /// an MSHR for it if it misses.
    fn select_load(&mut self) -> Option<(usize, usize, u64)> {
        let now = self.now;
        let first = self.pending_loads.iter().position(|p| p.ready <= now)?;
        // The op blocking each load kind, computed once: a pending
        // load at `mi` is consistency-eligible iff its kind's blocker
        // is absent or not older than `mi`. Nothing performs during
        // the issue phase, so the answers hold for the whole loop.
        let fronts = self.fronts();
        let mut blocker = [None; 5];
        for later in LOAD_KINDS {
            blocker[later as usize] = self.blocker(&fronts, later);
        }
        if self.cfg.speculative_loads {
            // Speculative loads ([8], technique 2) bypass the
            // consistency check entirely.
            blocker[MemOpKind::Read as usize] = None;
        }
        if self.loads_self_ordered {
            // Only a queue front can be eligible: skip the walk when no
            // front is a ready load that nothing blocks. (A load, acquire
            // or barrier in state `Ready` is always in `pending_loads`.)
            let front_eligible = LOAD_KINDS.into_iter().any(|kind| {
                fronts[kind as usize].is_some_and(|f| {
                    blocker[kind as usize] == Some(f)
                        && matches!(self.memops[f].state, MState::Ready(t) if t <= now)
                })
            });
            if !front_eligible {
                #[cfg(debug_assertions)]
                debug_assert!(
                    self.pending_loads
                        .iter()
                        .all(|p| p.ready > now || !self.consistency_eligible_scan(p.mi)),
                    "the queue fronts missed an eligible pending load"
                );
                return None;
            }
        }
        let oldest_store = [MemOpKind::Write, MemOpKind::Release]
            .into_iter()
            .filter_map(|kind| fronts[kind as usize])
            .min();
        for (pos, p) in self.pending_loads.iter().enumerate().skip(first) {
            if p.ready > now {
                continue;
            }
            let eligible = blocker[p.kind as usize].is_none_or(|b| b >= p.mi);
            #[cfg(debug_assertions)]
            {
                debug_assert_eq!(self.memops[p.mi].state, MState::Ready(p.ready));
                let speculate = self.cfg.speculative_loads && p.kind == MemOpKind::Read;
                debug_assert_eq!(
                    eligible,
                    speculate || self.consistency_eligible_scan(p.mi),
                    "pending memop {}",
                    p.mi
                );
            }
            if !eligible {
                continue;
            }
            let m = &self.memops[p.mi];
            if p.kind == MemOpKind::Read {
                if let Some(src) = self.forwarding_source(p.mi, oldest_store) {
                    // Forward from the store buffer in one cycle once
                    // the store's data is actually available; block
                    // while it is unknown or still being computed
                    // (unless dependences are being ignored, in which
                    // case forwarding still applies — it is a latency
                    // shortcut, not a stall).
                    let data_available = match self.memops[src].state {
                        MState::Waiting => false,
                        MState::Ready(t) => t <= now,
                        MState::InBuffer | MState::Issued(_) => true,
                    };
                    if !data_available && !self.cfg.ignore_data_dependences {
                        continue;
                    }
                    return Some((pos, p.mi, now + 1));
                }
            }
            // Non-binding prefetch ([8], technique 1): the fill began
            // when the address became known; cycles spent blocked on
            // consistency constraints come off the latency.
            let latency = if self.cfg.nonbinding_prefetch && p.kind == MemOpKind::Read {
                let covered = now.saturating_sub(p.ready);
                (m.latency as u64).saturating_sub(covered).max(1) as u32
            } else {
                m.latency
            };
            if m.is_miss {
                let line = m.word_addr & !(LINE_BYTES - 1);
                match self.mshrs.request(line, now, latency) {
                    Some(done) => return Some((pos, p.mi, done)),
                    None => continue, // MSHRs full: structural stall
                }
            }
            return Some((pos, p.mi, now + latency as u64));
        }
        None
    }

    /// Pops performed memops off the front of the store buffer (and,
    /// in debug builds, advances the oracle's `mem_head` past every
    /// performed memop).
    fn pop_performed_stores(&mut self) {
        #[cfg(debug_assertions)]
        while self.mem_head < self.memops.next && self.memops[self.mem_head].performed_by(self.now)
        {
            self.mem_head += 1;
        }
        while self
            .store_buffer
            .front()
            .is_some_and(|&mi| self.memops.performed(mi, self.now))
        {
            self.store_buffer.pop_front();
            self.sb_issued -= 1;
        }
    }

    /// Records a memop's pending state threshold for `next_event_time`
    /// (a time already reached can wake nothing).
    fn push_threshold(&mut self, t: u64) {
        if t > self.now {
            self.thresholds.push(Reverse(t));
        }
    }

    // ---- decode / dataflow ----------------------------------------------

    /// Decodes up to `issue_width` trace entries into the window.
    /// Returns the number decoded (a cycle that decoded anything made
    /// progress and cannot be skipped past).
    fn fetch_phase(&mut self) -> usize {
        if self.fetch_blocked || self.now < self.fetch_resume {
            return 0;
        }
        let mut decoded = 0;
        for _ in 0..self.cfg.issue_width {
            if self.window_len() >= self.cfg.window_size || self.decode_exhausted {
                break;
            }
            let stop_after = self.decode_one();
            decoded += 1;
            if stop_after {
                break;
            }
        }
        decoded
    }

    /// Decodes one trace entry into the window. Returns `true` if
    /// fetch must stop (mispredicted branch).
    fn decode_one(&mut self) -> bool {
        let idx = self.next_decode;
        let te = &self.cursor.entry(idx);
        self.next_decode += 1;
        self.decode_exhausted = self.cursor.past_end(self.next_decode);
        let id = self.next_id;
        self.next_id += 1;
        #[cfg(feature = "obs")]
        {
            let (now, pc) = (self.now, te.pc);
            obs::with(|r| r.event(now, EventKind::Fetch { pc }));
        }

        // A memory operation's kind, address, latency, wait and miss.
        let (kind, mem) = match te.op {
            TraceOp::Compute | TraceOp::Jump { .. } => (EKind::Alu, None),
            TraceOp::Branch { .. } => (EKind::Branch, None),
            TraceOp::Load(m) => (
                EKind::Mem,
                Some((MemOpKind::Read, m.addr, m.latency, 0, m.miss)),
            ),
            TraceOp::Store(m) => (
                EKind::Mem,
                Some((MemOpKind::Write, m.addr, m.latency, 0, m.miss)),
            ),
            TraceOp::Sync(s) => {
                let kind = match s.kind {
                    SyncKind::Lock | SyncKind::WaitEvent => MemOpKind::Acquire,
                    SyncKind::Unlock | SyncKind::SetEvent => MemOpKind::Release,
                    SyncKind::Barrier => MemOpKind::Barrier,
                };
                // Acquires issue the memory access only; the wait is
                // charged at the window head. Releases carry no wait.
                let (latency, wait) = if kind.acquires() {
                    (s.access, s.wait)
                } else {
                    (s.wait + s.access, 0)
                };
                (EKind::Mem, Some((kind, s.addr, latency, wait, false)))
            }
        };

        let mem_kind = mem.map(|(kind, ..)| kind);
        let mem_idx = mem.map(|(kind, addr, latency, wait, is_miss)| {
            let m = MemOp {
                kind,
                word_addr: addr & !(WORD_BYTES - 1),
                latency,
                wait,
                is_miss,
                decode_time: self.now,
                entry_id: id,
                state: MState::Waiting,
                #[cfg(feature = "obs")]
                pc: te.pc,
                head_since: None,
                acquire_done: None,
            };
            // Popping before each push bounds the queue by the window
            // and the store buffer even if its front is never read.
            self.oldest_unperformed(kind as usize);
            let (head_id, now) = (self.head_id, self.now);
            let mi = self
                .memops
                .push(m, |old| old.entry_id < head_id && old.performed_by(now));
            self.unperformed[kind as usize].push_back(mi);
            // Every reused index had performed: the oracle scans start
            // at the ring's watermark at the earliest.
            #[cfg(debug_assertions)]
            {
                self.mem_head = self.mem_head.max(self.memops.low);
            }
            mi
        });

        // The slot's previous occupant retired: reuse its (drained)
        // waiter vector.
        let slot = (id & self.slab_mask) as usize;
        let mut waiters = std::mem::take(&mut self.slab[slot].waiters);
        waiters.clear();
        let mut entry = Entry {
            trace_idx: idx,
            kind,
            unresolved: 0,
            base_ready: self.now,
            completion: None,
            waiters,
            dests: [None; 2],
            mem: mem_idx,
            fetch_blocker: false,
        };

        // Register dependences (renaming: only true producers matter).
        // Store-like entries never complete through set_completion, so
        // they must not claim destination registers — with a matched
        // program/trace they have none, but a mismatched pair (user
        // error) must degrade to wrong timing, not a silent hang.
        let store_like = matches!(mem_kind, Some(MemOpKind::Write) | Some(MemOpKind::Release));
        if !self.cfg.ignore_data_dependences {
            if let Some(&regs) = self.regs.get(te.pc as usize) {
                let wait_on = |engine: &mut Engine<'a>, entry: &mut Entry, slot: usize| {
                    match engine.reg_producer[slot] {
                        // A producer id below head_id has retired: its
                        // time was folded into reg_time when it
                        // completed (its slab slot may already hold a
                        // different live entry).
                        Some(pid) if pid >= engine.head_id => {
                            let p = engine.entry_mut(pid);
                            if let Some(c) = p.completion {
                                entry.base_ready = entry.base_ready.max(c);
                            } else {
                                p.waiters.push(id);
                                entry.unresolved += 1;
                            }
                        }
                        _ => {
                            entry.base_ready = entry.base_ready.max(engine.reg_time[slot]);
                        }
                    }
                };
                for &slot in regs.sources() {
                    wait_on(self, &mut entry, slot as usize);
                }
                if !store_like {
                    for slot in regs.dests.into_iter().flatten() {
                        self.reg_producer[slot as usize] = Some(id);
                    }
                    entry.dests = regs.dests;
                }
            }
        }

        // Branch prediction at decode.
        let mut mispredicted = false;
        if let TraceOp::Branch { taken, target } = te.op {
            self.result.stats.branches += 1;
            if !self.cfg.perfect_branch_prediction {
                use lookahead_trace::BranchPredictor;
                let correct = self.btb.predict_and_update(te.pc, taken, target);
                if !correct {
                    self.result.stats.mispredictions += 1;
                    mispredicted = true;
                }
            }
        }

        let resolved = entry.unresolved == 0;
        let base = entry.base_ready;
        if mispredicted {
            entry.fetch_blocker = true;
            self.fetch_blocked = true;
        }
        self.slab[slot] = entry;
        if resolved {
            self.set_ready(id, base);
        }
        mispredicted
    }

    /// All producers of `id` are known: fix its ready time and, for
    /// single-cycle units, its completion.
    fn set_ready(&mut self, id: u64, ready: u64) {
        let e = self.entry(id);
        match e.kind {
            EKind::Alu | EKind::Branch => {
                let c = ready.max(e.base_ready) + 1;
                self.set_completion(id, c);
            }
            EKind::Mem => {
                let mi = e.mem.expect("mem entry");
                let m = &mut self.memops[mi];
                m.state = MState::Ready(ready);
                let kind = m.kind;
                if !matches!(kind, MemOpKind::Write | MemOpKind::Release) {
                    self.pending_loads
                        .push_back(PendingLoad { mi, kind, ready });
                }
                self.push_threshold(ready);
            }
        }
    }

    /// Propagate a known completion time to dependents (iteratively,
    /// to keep long ALU chains off the call stack).
    fn set_completion(&mut self, id: u64, time: u64) {
        let mut work = std::mem::take(&mut self.completions);
        work.push((id, time));
        while let Some((id, time)) = work.pop() {
            let e = self.entry_mut(id);
            e.completion = Some(time);
            let dests = e.dests;
            let mut waiters = std::mem::take(&mut e.waiters);
            if e.fetch_blocker {
                e.fetch_blocker = false;
                self.fetch_blocked = false;
                self.fetch_resume = self.fetch_resume.max(time + 1);
            }
            // Fold into the register file view for consumers that
            // decode after this entry retires.
            for slot in dests.into_iter().flatten() {
                let slot = slot as usize;
                if self.reg_producer[slot] == Some(id) {
                    self.reg_producer[slot] = None;
                    self.reg_time[slot] = time;
                }
            }
            for &w in &waiters {
                let we = self.entry_mut(w);
                we.base_ready = we.base_ready.max(time);
                we.unresolved -= 1;
                if we.unresolved == 0 {
                    let base = we.base_ready;
                    let kind = we.kind;
                    match kind {
                        EKind::Alu | EKind::Branch => work.push((w, base + 1)),
                        EKind::Mem => self.set_ready(w, base),
                    }
                }
            }
            waiters.clear();
            self.entry_mut(id).waiters = waiters;
        }
        self.completions = work;
    }

    // ---- stall attribution ------------------------------------------------

    fn stall_class(&mut self) -> StallClass {
        let head_class = (self.head_id < self.next_id).then(|| {
            let e = self.entry(self.head_id);
            match e.kind {
                EKind::Mem => {
                    let m = &self.memops[e.mem.expect("mem entry")];
                    Some(class_of(m.kind))
                }
                _ => None,
            }
        });
        match head_class {
            Some(Some(c)) => c,
            // ALU/branch at head (or an empty window): blame the
            // oldest unperformed memory operation, the usual producer
            // of the wait.
            _ => self.oldest_unperformed_class().unwrap_or(StallClass::Fetch),
        }
    }

    fn oldest_unperformed_class(&mut self) -> Option<StallClass> {
        let oldest = self.fronts().into_iter().flatten().min();
        #[cfg(debug_assertions)]
        debug_assert_eq!(oldest, self.oldest_unperformed_scan());
        oldest.map(|j| class_of(self.memops[j].kind))
    }

    /// Refines a coarse stall class into the blamed pc and fine cause.
    /// Purely observational: the coarse class is passed through
    /// unchanged, so attribution reconciles with the breakdown by
    /// construction.
    #[cfg(feature = "obs")]
    fn stall_blame(&self, class: StallClass) -> (u32, obs::StallCause) {
        use obs::StallCause as C;
        if self.head_id < self.next_id {
            let e = self.entry(self.head_id);
            let pc = self.cursor.pc(e.trace_idx);
            let cause = match e.kind {
                // ALU/branch at head: retirement waits on its operands.
                EKind::Alu | EKind::Branch => C::TrueDependence,
                EKind::Mem => {
                    let m = &self.memops[e.mem.expect("mem entry")];
                    match m.kind {
                        MemOpKind::Read => match m.state {
                            MState::Waiting => C::TrueDependence,
                            MState::Ready(t) if t > self.now => C::TrueDependence,
                            MState::Issued(_) if self.window_len() >= self.cfg.window_size => {
                                C::RobFull
                            }
                            _ => C::ReadMiss,
                        },
                        MemOpKind::Write | MemOpKind::Release => match m.state {
                            MState::Waiting => C::TrueDependence,
                            MState::Ready(t) if t > self.now => C::TrueDependence,
                            _ => C::WriteMiss,
                        },
                        MemOpKind::Acquire | MemOpKind::Barrier => C::Acquire,
                    }
                }
            };
            (pc, cause)
        } else {
            // Window empty: nothing to retire; blame the next
            // instruction the fetch stage would decode.
            let pc = if self.next_decode < self.cursor.loaded_len() {
                self.cursor.pc(self.next_decode)
            } else {
                0
            };
            let cause = match class {
                StallClass::Read => C::ReadMiss,
                StallClass::Write => C::WriteMiss,
                StallClass::Sync => C::Acquire,
                StallClass::Fetch => C::FetchLimit,
            };
            (pc, cause)
        }
    }
}

/// The linear scans the indexed structures replaced, kept as oracles:
/// debug builds (and so every tier-1 test) check each indexed answer
/// against them.
#[cfg(debug_assertions)]
impl Engine<'_> {
    /// [`consistency_eligible`](Self::consistency_eligible) by walking
    /// every earlier memop that may be unperformed.
    fn consistency_eligible_scan(&self, mi: usize) -> bool {
        let later = self.memops[mi].kind;
        (self.mem_head..mi).all(|j| {
            let e = &self.memops[j];
            e.performed_by(self.now) || !self.cfg.model.must_wait_for(e.kind, later)
        })
    }

    /// [`forwarding_source`](Self::forwarding_source) by the same walk.
    fn forwarding_source_scan(&self, mi: usize) -> Option<usize> {
        let addr = self.memops[mi].word_addr;
        (self.mem_head..mi).rev().find(|&j| {
            let e = &self.memops[j];
            matches!(e.kind, MemOpKind::Write | MemOpKind::Release)
                && e.word_addr == addr
                && !e.performed_by(self.now)
        })
    }

    /// The oldest unperformed memop, by the same walk.
    fn oldest_unperformed_scan(&self) -> Option<usize> {
        (self.mem_head..self.memops.next).find(|&j| !self.memops[j].performed_by(self.now))
    }

    /// The earliest `Ready`/`Issued` threshold after `now` over every
    /// memop that may be unperformed.
    fn threshold_scan(&self) -> Option<u64> {
        (self.mem_head..self.memops.next)
            .filter_map(|j| match self.memops[j].state {
                MState::Ready(t) | MState::Issued(t) => Some(t),
                MState::Waiting | MState::InBuffer => None,
            })
            .filter(|&t| t > self.now)
            .min()
    }
}

/// Maps the core-local stall class onto the obs taxonomy.
#[cfg(feature = "obs")]
fn obs_class(c: StallClass) -> obs::StallClass {
    match c {
        StallClass::Read => obs::StallClass::Read,
        StallClass::Write => obs::StallClass::Write,
        StallClass::Sync => obs::StallClass::Sync,
        StallClass::Fetch => obs::StallClass::Fetch,
    }
}

fn class_of(kind: MemOpKind) -> StallClass {
    match kind {
        MemOpKind::Read => StallClass::Read,
        MemOpKind::Write | MemOpKind::Release => StallClass::Write,
        MemOpKind::Acquire | MemOpKind::Barrier => StallClass::Sync,
    }
}

impl ProcessorModel for Ds {
    fn name(&self) -> String {
        let mut name = format!("DS-{}/{}", self.config.window_size, self.config.model);
        if self.config.perfect_branch_prediction {
            name.push_str("+pbp");
        }
        if self.config.ignore_data_dependences {
            name.push_str("+nodep");
        }
        if self.config.nonbinding_prefetch {
            name.push_str("+pf");
        }
        if self.config.speculative_loads {
            name.push_str("+spec");
        }
        if self.config.issue_width != 1 {
            name.push_str(&format!("+w{}", self.config.issue_width));
        }
        name
    }

    fn run_source(
        &self,
        program: &Program,
        source: &mut dyn TraceSource,
    ) -> Result<ExecutionResult, StreamError> {
        let cursor = TraceCursor::new(Box::new(source));
        Engine::new(self.config, program, cursor, true).run()
    }
}

impl Ds {
    /// Re-times `trace` with the retained cycle-by-cycle reference
    /// stepper: identical state machine, but every cycle is walked
    /// explicitly instead of skipping dead spans. Exists as the ground
    /// truth for the skip-ahead equivalence suite (`skip_equivalence`
    /// and `ds_digests`).
    pub fn run_reference(&self, program: &Program, trace: &Trace) -> ExecutionResult {
        let cursor = TraceCursor::new(Box::new(SliceSource::new(trace)));
        Engine::new(self.config, program, cursor, false)
            .run()
            .expect("an in-memory trace streams without error")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Base;
    use lookahead_isa::rng::XorShift64;
    use lookahead_isa::{Assembler, BranchCond, IntReg};
    use lookahead_trace::{fnv1a, MemAccess, TraceEntry};

    /// `n` independent load misses, each followed by `gap` independent
    /// compute instructions.
    fn independent_misses(n: usize, gap: usize) -> (Program, Trace) {
        let mut a = Assembler::new();
        let mut entries = Vec::new();
        let mut pc = 0u32;
        for i in 0..n {
            a.load(IntReg::T1, IntReg::T0, (i as i64) * 64);
            entries.push(TraceEntry {
                pc,
                op: TraceOp::Load(MemAccess::miss(i as u64 * 64, 50)),
            });
            pc += 1;
            for _ in 0..gap {
                a.addi(IntReg::T2, IntReg::T2, 1);
                entries.push(TraceEntry::compute(pc));
                pc += 1;
            }
        }
        a.halt();
        (a.assemble().unwrap(), Trace::from_entries(entries))
    }

    /// A chain of dependent load misses (each load's address depends
    /// on the previous load's value).
    fn dependent_misses(n: usize) -> (Program, Trace) {
        let mut a = Assembler::new();
        let mut entries = Vec::new();
        for i in 0..n {
            a.load(IntReg::T1, IntReg::T1, 0);
            entries.push(TraceEntry {
                pc: i as u32,
                op: TraceOp::Load(MemAccess::miss(i as u64 * 64, 50)),
            });
        }
        a.halt();
        (a.assemble().unwrap(), Trace::from_entries(entries))
    }

    fn ds(window: usize) -> Ds {
        Ds::new(DsConfig::rc().window(window))
    }

    #[test]
    fn independent_misses_overlap_under_rc() {
        let (p, t) = independent_misses(8, 2);
        let base = Base.run(&p, &t);
        let r = ds(64).run(&p, &t);
        // BASE pays 8 * 50; DS pays roughly one miss plus pipelining.
        assert!(
            r.cycles() < base.cycles() / 3,
            "DS {} vs BASE {}",
            r.cycles(),
            base.cycles()
        );
        assert!(r.breakdown.read < base.breakdown.read / 3);
    }

    #[test]
    fn dependent_misses_cannot_overlap() {
        let (p, t) = dependent_misses(6);
        let base = Base.run(&p, &t);
        let r = ds(256).run(&p, &t);
        // A dependence chain serializes no matter the window.
        assert!(
            r.cycles() + 20 > base.cycles(),
            "DS {} vs BASE {}",
            r.cycles(),
            base.cycles()
        );
        // And the issue-delay diagnostic shows the chain.
        assert!(r.stats.read_miss_delay_fraction_over(40) > 0.5);
    }

    #[test]
    fn sc_serializes_even_with_a_big_window() {
        let (p, t) = independent_misses(8, 2);
        let sc = Ds::new(DsConfig::with_model(ConsistencyModel::Sc).window(256)).run(&p, &t);
        let rc = Ds::new(DsConfig::rc().window(256)).run(&p, &t);
        assert!(
            sc.cycles() > rc.cycles() * 3,
            "SC {} vs RC {}",
            sc.cycles(),
            rc.cycles()
        );
    }

    #[test]
    fn bigger_windows_hide_more_read_latency() {
        // Misses 20 instructions apart: window 16 cannot reach the
        // next miss, window 64 can overlap several.
        let (p, t) = independent_misses(12, 19);
        let r16 = ds(16).run(&p, &t);
        let r64 = ds(64).run(&p, &t);
        let r256 = ds(256).run(&p, &t);
        assert!(r64.cycles() < r16.cycles());
        assert!(r256.cycles() <= r64.cycles());
        assert!(r64.breakdown.read < r16.breakdown.read);
    }

    #[test]
    fn window_one_behaves_like_base_on_loads() {
        let (p, t) = independent_misses(4, 3);
        let base = Base.run(&p, &t);
        let r = ds(1).run(&p, &t);
        // A 1-entry window cannot overlap anything; small constant
        // pipeline differences aside, it tracks BASE.
        assert!(r.cycles() + 8 >= base.cycles());
    }

    #[test]
    fn mispredicted_branches_stall_fetch() {
        // A data-dependent branch after each load: alternating
        // direction defeats the BTB, so fetch keeps stalling.
        let mut a = Assembler::new();
        let mut entries = Vec::new();
        let mut pc = 0u32;
        for i in 0..12u32 {
            a.load(IntReg::T1, IntReg::T0, 64 * i as i64);
            entries.push(TraceEntry {
                pc,
                op: TraceOp::Load(MemAccess::miss(64 * i as u64, 50)),
            });
            pc += 1;
            let skip = a.label();
            a.branch(BranchCond::Eq, IntReg::T1, IntReg::ZERO, skip);
            a.bind(skip).unwrap();
            entries.push(TraceEntry {
                pc,
                op: TraceOp::Branch {
                    taken: i % 2 == 0,
                    target: pc + 1,
                },
            });
            pc += 1;
        }
        a.halt();
        let p = a.assemble().unwrap();
        let t = Trace::from_entries(entries);
        let real = ds(64).run(&p, &t);
        let perfect = Ds::new(DsConfig {
            perfect_branch_prediction: true,
            ..DsConfig::rc().window(64)
        })
        .run(&p, &t);
        assert!(real.stats.mispredictions > 3);
        assert_eq!(perfect.stats.mispredictions, 0);
        assert!(
            perfect.cycles() < real.cycles(),
            "perfect {} vs real {}",
            perfect.cycles(),
            real.cycles()
        );
    }

    #[test]
    fn ignore_data_dependences_unlocks_chains() {
        let (p, t) = dependent_misses(6);
        let real = ds(64).run(&p, &t);
        let nodep = Ds::new(DsConfig {
            ignore_data_dependences: true,
            perfect_branch_prediction: true,
            ..DsConfig::rc().window(64)
        })
        .run(&p, &t);
        assert!(
            nodep.cycles() < real.cycles() / 2,
            "nodep {} vs real {}",
            nodep.cycles(),
            real.cycles()
        );
    }

    #[test]
    fn load_forwards_from_pending_store() {
        // store miss to A, then load of A: the load forwards from the
        // store buffer instead of paying a miss.
        let mut a = Assembler::new();
        a.store(IntReg::T0, IntReg::T0, 0);
        a.load(IntReg::T1, IntReg::T0, 0);
        a.halt();
        let p = a.assemble().unwrap();
        let t = Trace::from_entries(vec![
            TraceEntry {
                pc: 0,
                op: TraceOp::Store(MemAccess::miss(0, 50)),
            },
            TraceEntry {
                pc: 1,
                op: TraceOp::Load(MemAccess::miss(0, 50)),
            },
        ]);
        let r = ds(16).run(&p, &t);
        // Without forwarding this would be >= 100 cycles serial.
        assert!(r.cycles() < 70, "forwarding failed: {} cycles", r.cycles());
    }

    #[test]
    fn store_buffer_capacity_backpressures() {
        let mut a = Assembler::new();
        let mut entries = Vec::new();
        for i in 0..12u32 {
            a.store(IntReg::T0, IntReg::T0, 64 * i as i64);
            entries.push(TraceEntry {
                pc: i,
                op: TraceOp::Store(MemAccess::miss(64 * i as u64, 50)),
            });
        }
        a.halt();
        let p = a.assemble().unwrap();
        let t = Trace::from_entries(entries);
        let deep = ds(16).run(&p, &t);
        let shallow = Ds::new(DsConfig {
            store_buffer_depth: 1,
            ..DsConfig::rc().window(16)
        })
        .run(&p, &t);
        assert!(
            shallow.cycles() > deep.cycles() + 100,
            "shallow {} vs deep {}",
            shallow.cycles(),
            deep.cycles()
        );
    }

    #[test]
    fn mshr_limit_throttles_miss_overlap() {
        let (p, t) = independent_misses(8, 0);
        let unbounded = ds(64).run(&p, &t);
        let one = Ds::new(DsConfig {
            mshr_limit: Some(1),
            ..DsConfig::rc().window(64)
        })
        .run(&p, &t);
        assert!(one.cycles() > unbounded.cycles() * 2);
        assert!(unbounded.stats.peak_outstanding_misses >= 4);
        assert_eq!(one.stats.peak_outstanding_misses, 1);
    }

    #[test]
    fn busy_equals_instructions_single_issue() {
        let (p, t) = independent_misses(5, 7);
        for w in [16, 64, 256] {
            let r = ds(w).run(&p, &t);
            assert_eq!(r.stats.instructions, t.len() as u64, "window {w}");
            assert_eq!(
                r.breakdown.busy,
                t.len() as u64 + r.stats.fetch_stall_cycles,
                "window {w}: busy accounts instructions plus fetch gaps"
            );
        }
    }

    #[test]
    fn four_wide_issue_is_faster_but_needs_bigger_windows() {
        let (p, t) = independent_misses(10, 24);
        let one = ds(64).run(&p, &t);
        let four64 = Ds::new(DsConfig {
            issue_width: 4,
            ..DsConfig::rc().window(64)
        })
        .run(&p, &t);
        let four128 = Ds::new(DsConfig {
            issue_width: 4,
            ..DsConfig::rc().window(128)
        })
        .run(&p, &t);
        assert!(four64.cycles() < one.cycles());
        assert!(four128.cycles() <= four64.cycles());
    }

    #[test]
    fn nonbinding_prefetch_boosts_sc() {
        let (p, t) = independent_misses(8, 2);
        let sc = Ds::new(DsConfig::with_model(ConsistencyModel::Sc).window(64));
        let plain = sc.run(&p, &t);
        let boosted = Ds::new(DsConfig {
            nonbinding_prefetch: true,
            ..sc.config()
        })
        .run(&p, &t);
        let rc = ds(64).run(&p, &t);
        assert!(
            boosted.cycles() < plain.cycles(),
            "prefetch {} !< plain SC {}",
            boosted.cycles(),
            plain.cycles()
        );
        // Prefetch brings SC to within a whisker of RC — exactly the
        // claim of [8] — but cannot be dramatically better.
        assert!(
            boosted.cycles() * 10 >= rc.cycles() * 9,
            "boosted SC {} implausibly beats RC {}",
            boosted.cycles(),
            rc.cycles()
        );
    }

    #[test]
    fn speculative_loads_bring_sc_near_rc() {
        let (p, t) = independent_misses(8, 2);
        let spec = Ds::new(DsConfig {
            speculative_loads: true,
            ..DsConfig::with_model(ConsistencyModel::Sc).window(64)
        })
        .run(&p, &t);
        let rc = ds(64).run(&p, &t);
        // Loads dominate this trace, so speculative SC is close to RC.
        assert!(
            spec.cycles() as f64 <= rc.cycles() as f64 * 1.15,
            "speculative SC {} far from RC {}",
            spec.cycles(),
            rc.cycles()
        );
    }

    #[test]
    fn boosting_does_not_change_rc() {
        // Under RC loads are already unconstrained; the techniques are
        // no-ops (within a cycle of noise).
        let (p, t) = independent_misses(6, 3);
        let plain = ds(64).run(&p, &t).cycles();
        let boosted = Ds::new(DsConfig {
            nonbinding_prefetch: true,
            speculative_loads: true,
            ..DsConfig::rc().window(64)
        })
        .run(&p, &t)
        .cycles();
        assert!(boosted.abs_diff(plain) <= 2, "{boosted} vs {plain}");
    }

    #[test]
    fn ready_loads_issue_in_readiness_order() {
        // Lock (wait 20); P: a hit; A: a miss whose base register is
        // P's destination; B: an independent miss. Under RC the lock
        // blocks all three until it retires at cycle 21. P issues
        // then, which makes A ready at 22, after B has waited since
        // decode: B (decoded at 3) issues at 22, A (decoded at 2) at 23.
        let mut a = Assembler::new();
        a.lock(IntReg::G1, 0);
        a.load(IntReg::T1, IntReg::G0, 0);
        a.load(IntReg::T2, IntReg::T1, 0);
        a.load(IntReg::T3, IntReg::G0, 64);
        a.halt();
        let p = a.assemble().unwrap();
        let t = Trace::from_entries(vec![
            TraceEntry {
                pc: 0,
                op: TraceOp::Sync(lookahead_trace::SyncAccess {
                    kind: SyncKind::Lock,
                    addr: 8,
                    wait: 20,
                    access: 1,
                }),
            },
            TraceEntry {
                pc: 1,
                op: TraceOp::Load(MemAccess::hit(0)),
            },
            TraceEntry {
                pc: 2,
                op: TraceOp::Load(MemAccess::miss(128, 50)),
            },
            TraceEntry {
                pc: 3,
                op: TraceOp::Load(MemAccess::miss(64, 60)),
            },
        ]);
        let r = ds(16).run(&p, &t);
        assert_eq!(r.stats.read_miss_issue_delays, vec![22 - 3, 23 - 2]);
        assert_eq!(r, ds(16).run_reference(&p, &t));
    }

    #[test]
    fn ring_reads_exactly_the_unreused_indices() {
        let mut rng = XorShift64::seed_from_u64(0x21A6_0001);
        // Rings that grew after reusing a slot: their early reused
        // indices would map onto the grown ring's empty slots.
        let mut grew_after_reuse = 0;
        for _ in 0..200 {
            // Values are (index, payload), so `dead` knows what it is
            // asked about.
            let mut ring: Ring<(usize, u64)> = Ring::with_capacity(1 + rng.range_usize(8));
            let mut model: Vec<u64> = Vec::new();
            let mut reused: Vec<bool> = Vec::new();
            let dead_odds = 1 + rng.next_below(8);
            let mut reuses = 0;
            for _ in 0..rng.range_usize(300) {
                let index = model.len();
                let payload = rng.next_u64();
                let (full, capacity) = (ring.next - reuses == ring.slots.len(), ring.slots.len());
                let mut asked = None;
                let pushed = ring.push((index, payload), |&(old, old_payload)| {
                    let dead = rng.next_below(dead_odds) != 0;
                    asked = Some((old, old_payload, dead));
                    dead
                });
                assert_eq!(pushed, index);
                model.push(payload);
                reused.push(false);
                // Only a full ring asks, and only about a live index.
                assert_eq!(asked.is_some(), full, "push {index}");
                if let Some((old, old_payload, dead)) = asked {
                    assert!(old < index && !reused[old], "asked about {old}");
                    assert_eq!(old_payload, model[old]);
                    if dead {
                        reused[old] = true;
                        reuses += 1;
                    } else {
                        assert!(
                            ring.slots.len() > capacity,
                            "a live value must grow the ring"
                        );
                        grew_after_reuse += usize::from(reuses > 0);
                    }
                }
                for (i, (&value, &gone)) in model.iter().zip(&reused).enumerate() {
                    let got = ring.get(i);
                    if gone {
                        assert_eq!(got, None, "index {i} was reused");
                    } else {
                        assert_eq!(got, Some(&(i, value)), "index {i}");
                        assert_eq!(ring[i], (i, value));
                    }
                }
            }
        }
        assert!(grew_after_reuse > 0);
    }

    /// A store miss far longer than any window, then 400–600 random
    /// entries. The first part is loads and compute only, so every
    /// relaxed model retires hits behind the unperformed store; the
    /// rest adds store hits and misses, load misses and lock/unlock
    /// pairs. With one MSHR the later store misses cannot issue until
    /// the first performs, so the store buffer fills behind it.
    fn store_miss_backlog(rng: &mut XorShift64) -> (Program, Trace) {
        let regs = [IntReg::T1, IntReg::T2, IntReg::T3, IntReg::T4];
        let mut a = Assembler::new();
        let mut entries = Vec::new();
        let mut push = |op| {
            entries.push(TraceEntry {
                pc: entries.len() as u32,
                op,
            })
        };
        a.store(IntReg::T0, IntReg::G0, 0);
        let latency = 3000 + rng.next_below(1000) as u32;
        push(TraceOp::Store(MemAccess::miss(0, latency)));
        let mut held_lock = false;
        for step in 0..400 + rng.range_usize(200) {
            let addr = 16 + rng.next_below(256) * 8;
            let r = *rng.choose(&regs);
            let op = rng.next_below(if step < 200 { 5 } else { 11 });
            match op {
                0 | 1 => {
                    a.load(r, IntReg::G0, addr as i64);
                    push(TraceOp::Load(MemAccess::hit(addr)));
                }
                2 => {
                    a.addi(r, r, 1);
                    push(TraceOp::Compute);
                }
                3 | 4 => {
                    // The address comes from an earlier load's result.
                    a.load(r, *rng.choose(&regs), 0);
                    push(TraceOp::Load(MemAccess::hit(addr)));
                }
                5 => {
                    a.load(r, IntReg::G0, addr as i64);
                    let latency = 20 + rng.next_below(80) as u32;
                    push(TraceOp::Load(MemAccess::miss(addr, latency)));
                }
                6 | 7 => {
                    a.store(r, IntReg::G0, addr as i64);
                    push(TraceOp::Store(MemAccess::hit(addr)));
                }
                8 | 9 => {
                    a.store(r, IntReg::G0, addr as i64);
                    let latency = 100 + rng.next_below(300) as u32;
                    push(TraceOp::Store(MemAccess::miss(addr, latency)));
                }
                _ => {
                    let kind = if held_lock {
                        a.unlock(IntReg::G1, 0);
                        SyncKind::Unlock
                    } else {
                        a.lock(IntReg::G1, 0);
                        SyncKind::Lock
                    };
                    held_lock = !held_lock;
                    push(TraceOp::Sync(lookahead_trace::SyncAccess {
                        kind,
                        addr: 8,
                        wait: rng.next_below(40) as u32,
                        access: 1,
                    }));
                }
            }
        }
        if held_lock {
            a.unlock(IntReg::G1, 0);
            push(TraceOp::Sync(lookahead_trace::SyncAccess {
                kind: SyncKind::Unlock,
                addr: 8,
                wait: 0,
                access: 1,
            }));
        }
        a.halt();
        (a.assemble().unwrap(), Trace::from_entries(entries))
    }

    /// Appends every field of `r` to `bytes` in a fixed order.
    fn encode(r: &ExecutionResult, bytes: &mut Vec<u8>) {
        let (b, s) = (&r.breakdown, &r.stats);
        let words = [
            b.busy,
            b.sync,
            b.read,
            b.write,
            s.instructions,
            s.branches,
            s.mispredictions,
            s.fetch_stall_cycles,
            s.write_buffer_full_stalls,
            s.peak_outstanding_misses as u64,
            s.context_switches,
            s.switch_overhead_cycles,
            s.read_miss_issue_delays.len() as u64,
        ];
        for w in words {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        for &d in &s.read_miss_issue_delays {
            bytes.extend_from_slice(&d.to_le_bytes());
        }
    }

    #[test]
    fn store_miss_backlog_results_match_pinned_digests() {
        const MODELS: [ConsistencyModel; 4] = [
            ConsistencyModel::Sc,
            ConsistencyModel::Pc,
            ConsistencyModel::Wo,
            ConsistencyModel::Rc,
        ];
        const WINDOWS: [usize; 2] = [16, 64];
        /// `[model][window]`, taken before the memop ring replaced the
        /// trace-long memop vector. Do not edit to make a change pass.
        const EXPECTED: [[u64; 2]; 4] = [
            [0x41d6673633c863c3, 0x9aa9757db296a421],
            [0xd97038f8ab215869, 0x208418c3f601b8d3],
            [0xb2429dcaee131f07, 0xab3dd05bb424be24],
            [0xfdc805f66352621c, 0x13fb05c7c7c8e190],
        ];
        let workloads: Vec<(Program, Trace)> = {
            let mut rng = XorShift64::seed_from_u64(0x5B0F_F111);
            (0..3).map(|_| store_miss_backlog(&mut rng)).collect()
        };
        let mut actual = [[0u64; 2]; 4];
        for (row, model) in actual.iter_mut().zip(MODELS) {
            for (digest, window) in row.iter_mut().zip(WINDOWS) {
                let cfg = DsConfig {
                    store_buffer_depth: 16,
                    mshr_limit: Some(1),
                    ..DsConfig::with_model(model).window(window)
                };
                let mut bytes = Vec::new();
                for (p, t) in &workloads {
                    let cursor = TraceCursor::new(Box::new(SliceSource::new(t)));
                    let mut engine = Engine::new(cfg, p, cursor, true);
                    let r = engine.run().unwrap();
                    assert_eq!(r, Ds::new(cfg).run_reference(p, t), "{model} W={window}");
                    // SC holds every load behind the store miss; the
                    // relaxed models retire hits past it.
                    if model != ConsistencyModel::Sc {
                        assert!(
                            engine.memops.slots.len() > (window + 16).next_power_of_two(),
                            "{model} W={window}: the memop ring never grew"
                        );
                    }
                    encode(&r, &mut bytes);
                }
                *digest = fnv1a(&bytes);
            }
        }
        let table: String = actual
            .iter()
            .map(|row| format!("    [0x{:016x}, 0x{:016x}],\n", row[0], row[1]))
            .collect();
        assert_eq!(
            actual, EXPECTED,
            "DS results changed; digests now read:\n[\n{table}]"
        );
    }

    #[test]
    fn names_encode_configuration() {
        assert_eq!(ds(64).name(), "DS-64/RC");
        let name = Ds::new(DsConfig {
            perfect_branch_prediction: true,
            ignore_data_dependences: true,
            issue_width: 4,
            ..DsConfig::with_model(ConsistencyModel::Sc).window(128)
        })
        .name();
        assert_eq!(name, "DS-128/SC+pbp+nodep+w4");
        let boosted = Ds::new(DsConfig {
            nonbinding_prefetch: true,
            speculative_loads: true,
            ..DsConfig::with_model(ConsistencyModel::Sc)
        })
        .name();
        assert_eq!(boosted, "DS-64/SC+pf+spec");
    }
}
