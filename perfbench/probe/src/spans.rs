//! In-memory span recorder for the traced runs.
//!
//! A span is (id, parent, name, start, end, count): the benchmark opens
//! one around each call it makes into a layer's public API. Spans stay
//! in memory and are written as JSONL when the process ends, so the
//! recording itself never touches the disk on the measured path.
//!
//! Parentage follows a per-thread "current span" cell. A thread that
//! works for a span opened elsewhere (a DAG worker, a gang member)
//! adopts it with [`adopt`] before opening its own spans.

use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

struct Span {
    id: u64,
    parent: u64,
    name: String,
    start_ns: u64,
    end_ns: u64,
    n: u64,
}

static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Nanoseconds since the process's first span (or first call).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The span the calling thread is currently inside (0 at top level).
pub fn current() -> u64 {
    CURRENT.with(Cell::get)
}

/// Makes `parent` the calling thread's current span.
pub fn adopt(parent: u64) {
    CURRENT.with(|c| c.set(parent));
}

/// Runs `f` inside a span named `name`; `f` returns its result and the
/// span's work count (entries, bytes, instructions — whatever the
/// caller aggregates for this name).
pub fn counted<T>(name: &str, f: impl FnOnce() -> (T, u64)) -> T {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = current();
    adopt(id);
    let start_ns = now_ns();
    let (out, n) = f();
    let end_ns = now_ns();
    adopt(parent);
    SPANS.lock().expect("span store poisoned").push(Span {
        id,
        parent,
        name: name.to_string(),
        start_ns,
        end_ns,
        n,
    });
    out
}

/// Runs `f` inside a span named `name` with a work count of 0.
pub fn span<T>(name: &str, f: impl FnOnce() -> T) -> T {
    counted(name, || (f(), 0))
}

/// Every span recorded so far, one JSON object per line, tagged with
/// `run` so spans of several processes can be pooled.
pub fn to_jsonl(run: &str) -> String {
    let spans = SPANS.lock().expect("span store poisoned");
    let mut out = String::new();
    for s in spans.iter() {
        let _ = writeln!(
            out,
            "{{\"run\":\"{run}\",\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"n\":{}}}",
            s.id, s.parent, s.name, s.start_ns, s.end_ns, s.n
        );
    }
    out
}
