//! Multiple hardware contexts — the §5 alternative latency-tolerance
//! technique ("the use of multiple contexts \[2, 15, 17, 33, 37\]"),
//! modelled as blocked multithreading in the style of APRIL/MASA: one
//! pipeline holds several register contexts, each running its own
//! instruction stream; when the active context takes a long-latency
//! event (a read miss or an acquire), the processor switches to
//! another ready context after a fixed switch overhead, and the
//! blocked context's access completes in the background.
//!
//! Feeding the model several per-processor traces from the same
//! multiprocessor run gives a head-to-head comparison with dynamic
//! scheduling on identical work: both techniques hide read latency by
//! finding independent work, but multiple contexts find it in *other
//! threads* (cheap hardware, needs surplus parallelism and pays the
//! switch cost) where the window finds it in the *same* thread.
//!
//! The model keeps the usual trace-driven simplifications: stores
//! drain through an overlapped write buffer (release consistency,
//! never blocking), synchronization waits are taken from the trace,
//! and inter-context synchronization is not re-simulated — each
//! context is an independent stream, as in the multiple-context
//! studies the paper cites.

use crate::model::ExecutionResult;
#[cfg(feature = "obs")]
use lookahead_obs::{self as obs, EventKind};
use lookahead_trace::{Trace, TraceOp};

/// The blocked-multithreading processor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contexts {
    /// Cycles lost on every context switch (the paper's cited designs
    /// range from ~1 to ~16; APRIL-like default of 10).
    pub switch_overhead: u32,
}

impl Default for Contexts {
    fn default() -> Contexts {
        Contexts {
            switch_overhead: 10,
        }
    }
}

/// What a context is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CtxState {
    Ready,
    /// Blocked until the cycle, on a read (`true`) or sync (`false`).
    Blocked {
        until: u64,
        read: bool,
    },
    Done,
}

#[derive(Debug)]
struct Ctx<'a> {
    trace: &'a Trace,
    cursor: usize,
    state: CtxState,
}

impl Contexts {
    /// Runs `traces` (one per hardware context) to completion on one
    /// pipeline and returns the combined cycle accounting: `busy` is
    /// the total instructions (plus switch overhead, reported
    /// separately in the stats), `read`/`sync` are cycles with *every*
    /// context blocked, attributed to the event that unblocks first.
    pub fn run_traces(&self, traces: &[&Trace]) -> ExecutionResult {
        let mut result = ExecutionResult::default();
        if traces.is_empty() {
            return result;
        }
        let mut ctxs: Vec<Ctx> = traces
            .iter()
            .map(|t| Ctx {
                trace: t,
                cursor: 0,
                state: if t.is_empty() {
                    CtxState::Done
                } else {
                    CtxState::Ready
                },
            })
            .collect();
        let mut now: u64 = 0;
        let mut active = 0usize;
        loop {
            // Wake any contexts whose event completed.
            for c in ctxs.iter_mut() {
                if let CtxState::Blocked { until, .. } = c.state {
                    if until <= now {
                        c.state = if c.cursor >= c.trace.len() {
                            CtxState::Done
                        } else {
                            CtxState::Ready
                        };
                    }
                }
            }
            if ctxs.iter().all(|c| c.state == CtxState::Done) {
                break;
            }
            // Pick the active context if ready, else round-robin to
            // the next ready one (paying the switch overhead).
            if ctxs[active].state != CtxState::Ready {
                let next = (0..ctxs.len())
                    .map(|i| (active + 1 + i) % ctxs.len())
                    .find(|&i| ctxs[i].state == CtxState::Ready);
                match next {
                    Some(i) => {
                        result.stats.context_switches += 1;
                        result.stats.switch_overhead_cycles += self.switch_overhead as u64;
                        result.breakdown.busy += self.switch_overhead as u64;
                        #[cfg(feature = "obs")]
                        {
                            let overhead = self.switch_overhead as u64;
                            obs::with(|rec| {
                                rec.event(now, EventKind::ContextSwitch { to: i as u32 });
                                rec.metrics.inc("core.contexts.switches", 1);
                                // Switch overhead is charged to busy
                                // time, matching the breakdown.
                                rec.busy_span(overhead);
                            });
                        }
                        now += self.switch_overhead as u64;
                        active = i;
                        continue;
                    }
                    None => {
                        // Everyone is blocked: advance to the first
                        // wake-up, charging the stall to its class.
                        let (until, read) = ctxs
                            .iter()
                            .filter_map(|c| match c.state {
                                CtxState::Blocked { until, read } => Some((until, read)),
                                _ => None,
                            })
                            .min()
                            .expect("not all done, none ready");
                        let stall = until - now;
                        if read {
                            result.breakdown.read += stall;
                        } else {
                            result.breakdown.sync += stall;
                        }
                        #[cfg(feature = "obs")]
                        {
                            // Blame the instruction that blocked the
                            // context waking first (cursor is already
                            // past it).
                            let pc = ctxs
                                .iter()
                                .filter(|c| {
                                    matches!(c.state, CtxState::Blocked { until: u, read: r }
                                        if u == until && r == read)
                                })
                                .find_map(|c| {
                                    c.trace
                                        .entries()
                                        .get(c.cursor.wrapping_sub(1))
                                        .map(|e| e.pc)
                                })
                                .unwrap_or(0);
                            let (class, cause) = if read {
                                (obs::StallClass::Read, obs::StallCause::ReadMiss)
                            } else {
                                (obs::StallClass::Sync, obs::StallCause::Acquire)
                            };
                            obs::with(|rec| rec.stall_span(now, stall, pc, class, cause));
                        }
                        now = until;
                        continue;
                    }
                }
            }
            // Execute one instruction on the active context.
            let c = &mut ctxs[active];
            let entry = c.trace.entries()[c.cursor];
            c.cursor += 1;
            result.stats.instructions += 1;
            result.breakdown.busy += 1;
            #[cfg(feature = "obs")]
            obs::with(|rec| rec.busy_cycle());
            now += 1;
            match entry.op {
                TraceOp::Compute | TraceOp::Jump { .. } => {}
                TraceOp::Branch { .. } => result.stats.branches += 1,
                TraceOp::Store(_) => {
                    // Overlapped write buffer: never blocks.
                }
                TraceOp::Load(m) => {
                    if m.miss {
                        c.state = CtxState::Blocked {
                            until: now + (m.latency - 1) as u64,
                            read: true,
                        };
                    }
                }
                TraceOp::Sync(s) => {
                    let lat = s.wait as u64 + s.access as u64;
                    if s.kind.is_acquire() && lat > 1 {
                        c.state = CtxState::Blocked {
                            until: now + lat - 1,
                            read: false,
                        };
                    }
                }
            }
            if c.cursor >= c.trace.len() && c.state == CtxState::Ready {
                c.state = CtxState::Done;
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookahead_trace::{MemAccess, TraceEntry};

    fn missy_trace(n: usize, gap: usize) -> Trace {
        let mut entries = Vec::new();
        let mut pc = 0u32;
        for i in 0..n {
            entries.push(TraceEntry {
                pc,
                op: TraceOp::Load(MemAccess::miss(i as u64 * 64, 50)),
            });
            pc += 1;
            for _ in 0..gap {
                entries.push(TraceEntry::compute(pc));
                pc += 1;
            }
        }
        Trace::from_entries(entries)
    }

    #[test]
    fn single_context_blocks_on_every_miss() {
        let t = missy_trace(4, 3);
        let r = Contexts::default().run_traces(&[&t]);
        assert_eq!(r.stats.instructions, 16);
        assert_eq!(r.stats.context_switches, 0);
        assert_eq!(r.breakdown.read, 4 * 49);
    }

    #[test]
    fn two_contexts_overlap_each_others_misses() {
        let (a, b) = (missy_trace(6, 3), missy_trace(6, 3));
        let single: u64 = Contexts::default().run_traces(&[&a]).cycles()
            + Contexts::default().run_traces(&[&b]).cycles();
        let together = Contexts::default().run_traces(&[&a, &b]);
        assert!(
            together.cycles() < single * 7 / 10,
            "two contexts {} vs back-to-back {}",
            together.cycles(),
            single
        );
        assert!(together.stats.context_switches > 4);
        assert!(together.breakdown.read < single - together.breakdown.busy);
    }

    #[test]
    fn more_contexts_hide_more_until_saturation() {
        let ts: Vec<Trace> = (0..8).map(|_| missy_trace(8, 4)).collect();
        let cycles = |k: usize| {
            let refs: Vec<&Trace> = ts.iter().take(k).collect();
            let r = Contexts::default().run_traces(&refs);
            // Per-context cost for comparability.
            r.cycles() as f64 / k as f64
        };
        let (c1, c2, c4) = (cycles(1), cycles(2), cycles(4));
        assert!(c2 < c1, "2 contexts/thread {c2} vs 1 {c1}");
        assert!(c4 <= c2 * 1.05, "4 contexts {c4} vs 2 {c2}");
    }

    #[test]
    fn switch_overhead_eats_the_gains() {
        let (a, b) = (missy_trace(10, 0), missy_trace(10, 0));
        let cheap = Contexts { switch_overhead: 1 }.run_traces(&[&a, &b]);
        let dear = Contexts {
            switch_overhead: 40,
        }
        .run_traces(&[&a, &b]);
        assert!(dear.cycles() > cheap.cycles());
        assert!(dear.stats.switch_overhead_cycles > cheap.stats.switch_overhead_cycles);
    }

    #[test]
    fn acquire_waits_block_the_context() {
        use lookahead_isa::SyncKind;
        use lookahead_trace::SyncAccess;
        let t = Trace::from_entries(vec![TraceEntry {
            pc: 0,
            op: TraceOp::Sync(SyncAccess {
                kind: SyncKind::Lock,
                addr: 0,
                wait: 100,
                access: 50,
            }),
        }]);
        let r = Contexts::default().run_traces(&[&t]);
        assert_eq!(r.breakdown.sync, 149);
        assert_eq!(r.breakdown.busy, 1);
    }

    #[test]
    fn empty_input_is_empty_result() {
        let r = Contexts::default().run_traces(&[]);
        assert_eq!(r.cycles(), 0);
        let t = Trace::new();
        let r = Contexts::default().run_traces(&[&t]);
        assert_eq!(r.cycles(), 0);
    }
}
