//! Observability substrate for the Lookahead simulators.
//!
//! The paper's entire argument rests on attributing execution time to
//! busy/read/write/sync components; this crate makes that attribution
//! observable at every level instead of only as final tables:
//!
//! * [`metrics::MetricsRegistry`] — typed counters, gauges, and
//!   log2-bucketed histograms under a hierarchical dotted-path
//!   namespace (`core.ds.rob_occupancy`, `memsys.mshr.merge_hits`,
//!   `multiproc.net.contention_cycles`).
//! * [`journal::EventJournal`] — a ring-buffered stream of structured
//!   cycle-level events (fetch/issue/complete/retire, cache hit/miss/
//!   fill, MSHR allocate/merge, write-buffer drain, acquire waits,
//!   stalls), serializable as JSONL and as Chrome `trace_event` JSON
//!   so runs open directly in chrome://tracing or Perfetto.
//! * [`attr::StallAttribution`] — exact per-cycle accounting that
//!   classifies every stalled cycle into the paper-aligned taxonomy
//!   (read-miss, write-miss, acquire, ROB-full, fetch-limit, true
//!   dependence) and reconciles with the run's breakdown.
//! * [`span::TraceContext`] — request-scoped monotonic spans with
//!   parent/child links and deterministic request ids, threaded from
//!   the serve tier through the harness pipeline.
//! * [`log`] — leveled, structured JSONL logging to stderr, filtered
//!   by the `LOOKAHEAD_LOG` value a binary installs at startup.
//! * [`prom`] — Prometheus text-exposition rendering of a registry
//!   (plus [`metrics::ShardedMetrics`] for contention-free serving).
//!
//! # Wiring
//!
//! The instrumented crates (`lookahead-core`, `lookahead-memsys`,
//! `lookahead-multiproc`) only reference this crate behind their `obs`
//! cargo feature, so default builds compile none of the hooks and pay
//! nothing. With the feature on, instrumentation sites call
//! [`with`], which records into a **thread-local** [`Recorder`] — the
//! timing models run one per thread in the bench harness, so each run
//! gets its own isolated recorder without any API changes:
//!
//! ```
//! use lookahead_obs as obs;
//!
//! obs::install(obs::Recorder::new(0));
//! obs::with(|r| r.metrics.inc("core.ds.instructions", 1));
//! let rec = obs::take().expect("installed above");
//! assert_eq!(rec.metrics.counter("core.ds.instructions"), 1);
//! ```
//!
//! When no recorder is installed, [`with`] is a cheap thread-local
//! check that does nothing.

pub mod attr;
pub mod journal;
pub mod json;
pub mod log;
pub mod metrics;
pub mod prom;
pub mod span;

pub use attr::{StallAttribution, StallCause, StallClass, StallSite};
pub use journal::{Event, EventJournal, EventKind, JournalReadError, DEFAULT_JOURNAL_CAPACITY};
pub use metrics::{Histogram, Metric, MetricsRegistry, ShardedMetrics};
pub use span::{SpanRecord, TraceContext, TraceScope};

use std::cell::RefCell;

/// A stall span being coalesced: consecutive stalled cycles with the
/// same blame collapse into one journal event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OpenStall {
    start: u64,
    last: u64,
    pc: u32,
    class: StallClass,
    cause: StallCause,
}

/// Everything one instrumented run records: metrics, the event
/// journal, and exact stall attribution.
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    pub metrics: MetricsRegistry,
    pub journal: EventJournal,
    pub attribution: StallAttribution,
    /// Processor / lane id stamped on emitted events.
    pub proc: u32,
    open_stall: Option<OpenStall>,
}

impl Recorder {
    /// A recorder for processor/lane `proc` with the default journal
    /// capacity.
    pub fn new(proc: u32) -> Recorder {
        Recorder::with_capacity(proc, DEFAULT_JOURNAL_CAPACITY)
    }

    pub fn with_capacity(proc: u32, journal_capacity: usize) -> Recorder {
        Recorder {
            metrics: MetricsRegistry::new(),
            journal: EventJournal::new(journal_capacity),
            attribution: StallAttribution::new(),
            proc,
            open_stall: None,
        }
    }

    /// Appends an event at cycle `t`, flushing any open stall span
    /// first so journal order stays chronological.
    pub fn event(&mut self, t: u64, kind: EventKind) {
        self.flush_stall();
        self.journal.push(Event {
            t,
            proc: self.proc,
            kind,
        });
    }

    /// Records a cycle in which work retired.
    pub fn busy_cycle(&mut self) {
        self.busy_span(1);
    }

    /// Records `n` consecutive cycles in which work retired (or that
    /// are charged to busy time, e.g. context-switch overhead), in one
    /// call. Equivalent to `n` [`busy_cycle`](Self::busy_cycle)s.
    pub fn busy_span(&mut self, n: u64) {
        if n == 0 {
            return;
        }
        self.flush_stall();
        self.attribution.record_busy_n(n);
    }

    /// Records one stalled cycle at time `t`, blamed on `pc`.
    /// Consecutive cycles with identical blame coalesce into a single
    /// journal span; attribution counts stay exact per cycle.
    pub fn stall_cycle(&mut self, t: u64, pc: u32, class: StallClass, cause: StallCause) {
        self.stall_span(t, 1, pc, class, cause);
    }

    /// Records `dur` consecutive stalled cycles starting at `t`, all
    /// with the same blame, in one call. Byte-for-byte equivalent to
    /// `dur` consecutive [`stall_cycle`](Self::stall_cycle) calls —
    /// the span extends (or opens) the same coalesced journal event
    /// and bumps the attribution matrix by `dur` — but O(1), so
    /// event-driven engines can skip dead cycles without a per-cycle
    /// recording loop.
    pub fn stall_span(&mut self, t: u64, dur: u64, pc: u32, class: StallClass, cause: StallCause) {
        if dur == 0 {
            return;
        }
        self.attribution.record_stall_n(class, cause, pc, dur);
        match &mut self.open_stall {
            Some(open)
                if open.pc == pc
                    && open.class == class
                    && open.cause == cause
                    && t == open.last + 1 =>
            {
                open.last = t + dur - 1;
            }
            _ => {
                self.flush_stall();
                self.open_stall = Some(OpenStall {
                    start: t,
                    last: t + dur - 1,
                    pc,
                    class,
                    cause,
                });
            }
        }
    }

    /// Closes any open stall span. Call when a run finishes (also
    /// called automatically by [`event`](Self::event) and
    /// [`busy_cycle`](Self::busy_cycle)).
    pub fn flush_stall(&mut self) {
        if let Some(open) = self.open_stall.take() {
            self.journal.push(Event {
                t: open.start,
                proc: self.proc,
                kind: EventKind::Stall {
                    pc: open.pc,
                    class: open.class,
                    cause: open.cause,
                    dur: open.last - open.start + 1,
                },
            });
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Installs `recorder` as this thread's active recorder, returning the
/// previously installed one, if any.
pub fn install(recorder: Recorder) -> Option<Recorder> {
    RECORDER.with(|r| r.borrow_mut().replace(recorder))
}

/// Removes and returns this thread's active recorder (with any open
/// stall span flushed).
pub fn take() -> Option<Recorder> {
    RECORDER.with(|r| {
        let mut rec = r.borrow_mut().take();
        if let Some(rec) = rec.as_mut() {
            rec.flush_stall();
        }
        rec
    })
}

/// Whether a recorder is installed on this thread.
pub fn is_active() -> bool {
    RECORDER.with(|r| r.borrow().is_some())
}

/// Runs `f` against this thread's recorder; does nothing (cheaply) if
/// none is installed. All instrumentation sites funnel through here.
pub fn with<F: FnOnce(&mut Recorder)>(f: F) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            f(rec);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_take_roundtrip() {
        assert!(take().is_none());
        assert!(!is_active());
        install(Recorder::new(3));
        assert!(is_active());
        with(|r| r.metrics.inc("a.b", 2));
        with(|r| r.metrics.inc("a.b", 1));
        let rec = take().expect("installed");
        assert_eq!(rec.metrics.counter("a.b"), 3);
        assert_eq!(rec.proc, 3);
        assert!(take().is_none());
    }

    #[test]
    fn with_is_noop_without_recorder() {
        let mut ran = false;
        with(|_| ran = true);
        assert!(!ran);
    }

    #[test]
    fn stall_spans_coalesce() {
        let mut r = Recorder::new(0);
        for t in 10..15 {
            r.stall_cycle(t, 7, StallClass::Read, StallCause::ReadMiss);
        }
        r.busy_cycle();
        for t in 16..18 {
            r.stall_cycle(t, 9, StallClass::Sync, StallCause::Acquire);
        }
        r.flush_stall();
        let events: Vec<Event> = r.journal.iter().copied().collect();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[0].kind,
            EventKind::Stall {
                pc: 7,
                class: StallClass::Read,
                cause: StallCause::ReadMiss,
                dur: 5,
            }
        );
        assert_eq!(events[0].t, 10);
        assert_eq!(
            events[1].kind,
            EventKind::Stall {
                pc: 9,
                class: StallClass::Sync,
                cause: StallCause::Acquire,
                dur: 2,
            }
        );
        // Attribution remains per-cycle exact.
        assert_eq!(r.attribution.stall_cycles(), 7);
        assert_eq!(r.attribution.busy_cycles, 1);
    }

    #[test]
    fn nonconsecutive_stalls_do_not_merge() {
        let mut r = Recorder::new(0);
        r.stall_cycle(5, 1, StallClass::Read, StallCause::ReadMiss);
        r.stall_cycle(9, 1, StallClass::Read, StallCause::ReadMiss);
        r.flush_stall();
        assert_eq!(r.journal.len(), 2);
    }

    /// A span call must be indistinguishable from the equivalent run
    /// of per-cycle calls: same journal events, same attribution.
    #[test]
    fn spans_equal_per_cycle_recording() {
        let mut per_cycle = Recorder::new(0);
        for t in 10..15 {
            per_cycle.stall_cycle(t, 7, StallClass::Read, StallCause::ReadMiss);
        }
        for t in 15..18 {
            per_cycle.stall_cycle(t, 7, StallClass::Read, StallCause::ReadMiss);
        }
        per_cycle.busy_cycle();
        per_cycle.busy_cycle();
        for t in 20..24 {
            per_cycle.stall_cycle(t, 9, StallClass::Sync, StallCause::Acquire);
        }
        per_cycle.flush_stall();

        let mut spans = Recorder::new(0);
        spans.stall_span(10, 5, 7, StallClass::Read, StallCause::ReadMiss);
        spans.stall_span(15, 3, 7, StallClass::Read, StallCause::ReadMiss);
        spans.busy_span(2);
        spans.stall_span(20, 4, 9, StallClass::Sync, StallCause::Acquire);
        spans.flush_stall();

        let a: Vec<Event> = per_cycle.journal.iter().copied().collect();
        let b: Vec<Event> = spans.journal.iter().copied().collect();
        assert_eq!(a, b);
        assert_eq!(per_cycle.attribution, spans.attribution);
        // Adjacent same-blame spans coalesced into one journal event.
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn zero_length_spans_are_noops() {
        let mut r = Recorder::new(0);
        r.stall_span(5, 0, 1, StallClass::Read, StallCause::ReadMiss);
        r.busy_span(0);
        r.flush_stall();
        assert_eq!(r.journal.len(), 0);
        assert_eq!(r.attribution.total_cycles(), 0);
    }
}
