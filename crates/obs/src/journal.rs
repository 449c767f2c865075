//! The cycle-level event journal: a bounded ring buffer of structured
//! simulator events, serializable as JSONL (one event per line) and as
//! Chrome `trace_event` JSON for chrome://tracing / Perfetto.

use crate::attr::{StallCause, StallClass};
use crate::json::{self, FlatValue};
use std::collections::VecDeque;
use std::fmt;
use std::io::{self, Write};

/// What happened. Times and the owning processor live on [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// An instruction entered the window.
    Fetch { pc: u32 },
    /// A memory operation issued to the memory system.
    Issue { pc: u32, addr: u64 },
    /// A memory operation's reply returned.
    Complete { pc: u32, addr: u64 },
    /// An instruction retired from the window head.
    Retire { pc: u32 },
    /// A cache access hit.
    CacheHit { addr: u64, write: bool },
    /// A cache access missed.
    CacheMiss { addr: u64, write: bool },
    /// A line fill completed.
    CacheFill { addr: u64 },
    /// An MSHR was allocated for a line.
    MshrAlloc { line: u64 },
    /// A request merged into an existing MSHR.
    MshrMerge { line: u64 },
    /// A write entered the write buffer.
    WbPush { addr: u64 },
    /// A buffered write performed (drained).
    WbDrain { addr: u64 },
    /// A push was refused because the write buffer was full.
    WbFull,
    /// An acquire (lock/event/barrier) waited `dur` cycles starting at
    /// the event's timestamp.
    AcquireWait { addr: u64, dur: u64 },
    /// A miss queued `dur` cycles at the memory/network due to
    /// contention.
    Contention { dur: u64 },
    /// A hardware context switch (multiple-contexts processor).
    ContextSwitch { to: u32 },
    /// The pipeline stalled for `dur` consecutive cycles blamed on the
    /// instruction at `pc` (coalesced; starts at the timestamp).
    Stall {
        pc: u32,
        class: StallClass,
        cause: StallCause,
        dur: u64,
    },
}

impl EventKind {
    /// The event's wire name (the `"ev"` field in JSONL).
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::Fetch { .. } => "fetch",
            EventKind::Issue { .. } => "issue",
            EventKind::Complete { .. } => "complete",
            EventKind::Retire { .. } => "retire",
            EventKind::CacheHit { .. } => "cache_hit",
            EventKind::CacheMiss { .. } => "cache_miss",
            EventKind::CacheFill { .. } => "cache_fill",
            EventKind::MshrAlloc { .. } => "mshr_alloc",
            EventKind::MshrMerge { .. } => "mshr_merge",
            EventKind::WbPush { .. } => "wb_push",
            EventKind::WbDrain { .. } => "wb_drain",
            EventKind::WbFull => "wb_full",
            EventKind::AcquireWait { .. } => "acquire_wait",
            EventKind::Contention { .. } => "contention",
            EventKind::ContextSwitch { .. } => "context_switch",
            EventKind::Stall { .. } => "stall",
        }
    }

    /// The span length for duration events, if this is one.
    fn dur(&self) -> Option<u64> {
        match self {
            EventKind::AcquireWait { dur, .. }
            | EventKind::Contention { dur }
            | EventKind::Stall { dur, .. } => Some(*dur),
            _ => None,
        }
    }
}

/// One journal entry: a cycle timestamp, the processor (or model lane)
/// it belongs to, and what happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Simulated cycle the event occurred (span events: started).
    pub t: u64,
    /// Processor / lane id, used as the trace row in Perfetto.
    pub proc: u32,
    pub kind: EventKind,
}

/// Error from [`EventJournal::from_jsonl`].
#[derive(Debug)]
pub enum JournalReadError {
    Io(io::Error),
    /// Line number (1-based) and what was wrong with it.
    Malformed(usize, String),
}

impl fmt::Display for JournalReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalReadError::Io(e) => write!(f, "I/O error reading journal: {e}"),
            JournalReadError::Malformed(line, why) => {
                write!(f, "malformed journal line {line}: {why}")
            }
        }
    }
}

impl std::error::Error for JournalReadError {}

impl From<io::Error> for JournalReadError {
    fn from(e: io::Error) -> JournalReadError {
        JournalReadError::Io(e)
    }
}

/// A bounded ring buffer of [`Event`]s. When full, the oldest events
/// are dropped (and counted), so a journal holds the *tail* of a run —
/// the part you usually want when debugging where time went.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventJournal {
    events: VecDeque<Event>,
    capacity: usize,
    dropped: u64,
}

/// Default ring capacity: enough for the tail of a paper-size run
/// without letting instrumented runs grow unbounded.
pub const DEFAULT_JOURNAL_CAPACITY: usize = 1 << 16;

impl EventJournal {
    pub fn new(capacity: usize) -> EventJournal {
        EventJournal {
            events: VecDeque::with_capacity(capacity.min(1 << 20)),
            capacity,
            dropped: 0,
        }
    }

    pub fn push(&mut self, event: Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event);
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events dropped from the front because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    pub fn iter(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Writes the journal as JSONL: one flat JSON object per line with
    /// fields `t`, `proc`, `ev`, plus the kind's payload fields.
    /// Booleans are encoded as 0/1 so every value is a string or an
    /// unsigned integer.
    pub fn to_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        for e in &self.events {
            let mut line = format!(
                "{{\"t\":{},\"proc\":{},\"ev\":{}",
                e.t,
                e.proc,
                json::quote(e.kind.name())
            );
            match e.kind {
                EventKind::Fetch { pc } | EventKind::Retire { pc } => {
                    line.push_str(&format!(",\"pc\":{pc}"));
                }
                EventKind::Issue { pc, addr } | EventKind::Complete { pc, addr } => {
                    line.push_str(&format!(",\"pc\":{pc},\"addr\":{addr}"));
                }
                EventKind::CacheHit { addr, write } | EventKind::CacheMiss { addr, write } => {
                    line.push_str(&format!(",\"addr\":{addr},\"write\":{}", write as u8));
                }
                EventKind::CacheFill { addr }
                | EventKind::WbPush { addr }
                | EventKind::WbDrain { addr } => {
                    line.push_str(&format!(",\"addr\":{addr}"));
                }
                EventKind::MshrAlloc { line: l } | EventKind::MshrMerge { line: l } => {
                    line.push_str(&format!(",\"line\":{l}"));
                }
                EventKind::WbFull => {}
                EventKind::AcquireWait { addr, dur } => {
                    line.push_str(&format!(",\"addr\":{addr},\"dur\":{dur}"));
                }
                EventKind::Contention { dur } => {
                    line.push_str(&format!(",\"dur\":{dur}"));
                }
                EventKind::ContextSwitch { to } => {
                    line.push_str(&format!(",\"to\":{to}"));
                }
                EventKind::Stall {
                    pc,
                    class,
                    cause,
                    dur,
                } => {
                    line.push_str(&format!(
                        ",\"pc\":{pc},\"class\":\"{}\",\"cause\":\"{}\",\"dur\":{dur}",
                        class.name(),
                        cause.name()
                    ));
                }
            }
            line.push('}');
            writeln!(w, "{line}")?;
        }
        Ok(())
    }

    /// Reads a JSONL journal back (the inverse of [`Self::to_jsonl`]).
    /// The reconstructed journal has capacity equal to its length.
    pub fn from_jsonl(r: impl io::BufRead) -> Result<EventJournal, JournalReadError> {
        let mut events = VecDeque::new();
        for (i, line) in r.lines().enumerate() {
            let line = line?;
            if line.trim().is_empty() {
                continue;
            }
            let lineno = i + 1;
            let obj = json::parse_flat_object(&line)
                .map_err(|e| JournalReadError::Malformed(lineno, e.to_string()))?;
            let field = |name: &str| -> Result<u64, JournalReadError> {
                obj.get(name).and_then(FlatValue::as_u64).ok_or_else(|| {
                    JournalReadError::Malformed(lineno, format!("missing numeric field {name:?}"))
                })
            };
            let str_field = |name: &str| -> Result<&str, JournalReadError> {
                obj.get(name).and_then(FlatValue::as_str).ok_or_else(|| {
                    JournalReadError::Malformed(lineno, format!("missing string field {name:?}"))
                })
            };
            let ev = str_field("ev")?;
            let kind = match ev {
                "fetch" => EventKind::Fetch {
                    pc: field("pc")? as u32,
                },
                "retire" => EventKind::Retire {
                    pc: field("pc")? as u32,
                },
                "issue" => EventKind::Issue {
                    pc: field("pc")? as u32,
                    addr: field("addr")?,
                },
                "complete" => EventKind::Complete {
                    pc: field("pc")? as u32,
                    addr: field("addr")?,
                },
                "cache_hit" => EventKind::CacheHit {
                    addr: field("addr")?,
                    write: field("write")? != 0,
                },
                "cache_miss" => EventKind::CacheMiss {
                    addr: field("addr")?,
                    write: field("write")? != 0,
                },
                "cache_fill" => EventKind::CacheFill {
                    addr: field("addr")?,
                },
                "mshr_alloc" => EventKind::MshrAlloc {
                    line: field("line")?,
                },
                "mshr_merge" => EventKind::MshrMerge {
                    line: field("line")?,
                },
                "wb_push" => EventKind::WbPush {
                    addr: field("addr")?,
                },
                "wb_drain" => EventKind::WbDrain {
                    addr: field("addr")?,
                },
                "wb_full" => EventKind::WbFull,
                "acquire_wait" => EventKind::AcquireWait {
                    addr: field("addr")?,
                    dur: field("dur")?,
                },
                "contention" => EventKind::Contention { dur: field("dur")? },
                "context_switch" => EventKind::ContextSwitch {
                    to: field("to")? as u32,
                },
                "stall" => EventKind::Stall {
                    pc: field("pc")? as u32,
                    class: StallClass::from_name(str_field("class")?).ok_or_else(|| {
                        JournalReadError::Malformed(lineno, "unknown stall class".into())
                    })?,
                    cause: StallCause::from_name(str_field("cause")?).ok_or_else(|| {
                        JournalReadError::Malformed(lineno, "unknown stall cause".into())
                    })?,
                    dur: field("dur")?,
                },
                other => {
                    return Err(JournalReadError::Malformed(
                        lineno,
                        format!("unknown event kind {other:?}"),
                    ))
                }
            };
            events.push_back(Event {
                t: field("t")?,
                proc: field("proc")? as u32,
                kind,
            });
        }
        let capacity = events.len().max(1);
        Ok(EventJournal {
            events,
            capacity,
            dropped: 0,
        })
    }

    /// Writes the journal in Chrome `trace_event` format (the JSON
    /// object form, `{"traceEvents": [...]}`), loadable directly in
    /// chrome://tracing or <https://ui.perfetto.dev>.
    ///
    /// Span events (`stall`, `acquire_wait`, `contention`) become
    /// complete (`"ph":"X"`) events with their duration; everything
    /// else becomes a thread-scoped instant (`"ph":"i"`). Cycles map
    /// 1:1 onto microseconds — Perfetto's "us" are really cycles.
    pub fn to_chrome_trace(&self, w: &mut impl Write) -> io::Result<()> {
        write!(w, "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[")?;
        let mut first = true;
        for e in &self.events {
            if !first {
                write!(w, ",")?;
            }
            first = false;
            let name = match e.kind {
                EventKind::Stall { cause, .. } => format!("stall:{}", cause.name()),
                ref k => k.name().to_owned(),
            };
            let mut args = String::new();
            match e.kind {
                EventKind::Fetch { pc } | EventKind::Retire { pc } => {
                    args.push_str(&format!("\"pc\":{pc}"));
                }
                EventKind::Issue { pc, addr } | EventKind::Complete { pc, addr } => {
                    args.push_str(&format!("\"pc\":{pc},\"addr\":{addr}"));
                }
                EventKind::CacheHit { addr, write } | EventKind::CacheMiss { addr, write } => {
                    args.push_str(&format!("\"addr\":{addr},\"write\":{}", write as u8));
                }
                EventKind::CacheFill { addr }
                | EventKind::WbPush { addr }
                | EventKind::WbDrain { addr } => {
                    args.push_str(&format!("\"addr\":{addr}"));
                }
                EventKind::MshrAlloc { line } | EventKind::MshrMerge { line } => {
                    args.push_str(&format!("\"line\":{line}"));
                }
                EventKind::WbFull => {}
                EventKind::AcquireWait { addr, .. } => {
                    args.push_str(&format!("\"addr\":{addr}"));
                }
                EventKind::Contention { .. } => {}
                EventKind::ContextSwitch { to } => {
                    args.push_str(&format!("\"to\":{to}"));
                }
                EventKind::Stall { pc, class, .. } => {
                    args.push_str(&format!("\"pc\":{pc},\"class\":\"{}\"", class.name()));
                }
            }
            match e.kind.dur() {
                Some(dur) => write!(
                    w,
                    "{{\"name\":{},\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":{},\"args\":{{{args}}}}}",
                    json::quote(&name),
                    e.t,
                    dur.max(1),
                    e.proc
                )?,
                None => write!(
                    w,
                    "{{\"name\":{},\"ph\":\"i\",\"s\":\"t\",\"ts\":{},\"pid\":0,\"tid\":{},\"args\":{{{args}}}}}",
                    json::quote(&name),
                    e.t,
                    e.proc
                )?,
            }
        }
        write!(w, "]}}")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event {
                t: 0,
                proc: 0,
                kind: EventKind::Fetch { pc: 1 },
            },
            Event {
                t: 2,
                proc: 0,
                kind: EventKind::Issue { pc: 1, addr: 0x40 },
            },
            Event {
                t: 3,
                proc: 1,
                kind: EventKind::CacheMiss {
                    addr: 0x40,
                    write: false,
                },
            },
            Event {
                t: 3,
                proc: 1,
                kind: EventKind::MshrAlloc { line: 4 },
            },
            Event {
                t: 9,
                proc: 1,
                kind: EventKind::Stall {
                    pc: 1,
                    class: StallClass::Read,
                    cause: StallCause::ReadMiss,
                    dur: 47,
                },
            },
            Event {
                t: 60,
                proc: 0,
                kind: EventKind::AcquireWait {
                    addr: 0x80,
                    dur: 12,
                },
            },
            Event {
                t: 99,
                proc: 0,
                kind: EventKind::WbFull,
            },
        ]
    }

    #[test]
    fn jsonl_roundtrips() {
        let mut j = EventJournal::new(64);
        for e in sample_events() {
            j.push(e);
        }
        let mut buf = Vec::new();
        j.to_jsonl(&mut buf).unwrap();
        let back = EventJournal::from_jsonl(buf.as_slice()).unwrap();
        assert_eq!(
            back.iter().copied().collect::<Vec<_>>(),
            j.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn ring_drops_oldest() {
        let mut j = EventJournal::new(2);
        for e in sample_events() {
            j.push(e);
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 5);
        assert_eq!(j.iter().next().unwrap().t, 60);
    }

    #[test]
    fn malformed_jsonl_is_an_error() {
        assert!(matches!(
            EventJournal::from_jsonl("not json\n".as_bytes()),
            Err(JournalReadError::Malformed(1, _))
        ));
        assert!(matches!(
            EventJournal::from_jsonl("{\"t\":1,\"proc\":0,\"ev\":\"nope\"}\n".as_bytes()),
            Err(JournalReadError::Malformed(1, _))
        ));
        // Missing a payload field.
        assert!(matches!(
            EventJournal::from_jsonl("{\"t\":1,\"proc\":0,\"ev\":\"fetch\"}\n".as_bytes()),
            Err(JournalReadError::Malformed(1, _))
        ));
    }

    #[test]
    fn chrome_trace_is_wellformed_json() {
        let mut j = EventJournal::new(64);
        for e in sample_events() {
            j.push(e);
        }
        let mut buf = Vec::new();
        j.to_chrome_trace(&mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with("{\"displayTimeUnit\""));
        assert!(s.ends_with("]}"));
        assert!(s.contains("\"ph\":\"X\""));
        assert!(s.contains("\"ph\":\"i\""));
        assert!(s.contains("stall:read_miss"));
        // Balanced braces/brackets (no string in our output contains
        // either, so raw counting is sound).
        assert_eq!(s.matches('{').count(), s.matches('}').count());
        assert_eq!(s.matches('[').count(), s.matches(']').count());
    }
}
