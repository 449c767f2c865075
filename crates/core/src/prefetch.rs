//! Hardware stride prefetching — the Baer–Chen scheme discussed in the
//! paper's related work (§6).
//!
//! The paper conjectures that an "effective on-chip preloading scheme"
//! driven by a reference prediction table "may achieve reasonable
//! gains for applications with regular access behavior (e.g., LU and
//! OCEAN)" but "would probably fail to hide latency for applications
//! that do not have such regular characteristics (e.g., MP3D, PTHOR,
//! LOCUS)". This module lets us test that conjecture.
//!
//! The model is trace-level: a [`StridePrefetcher`] replays the
//! dynamic load stream through a reference prediction table (tagged by
//! load PC, tracking last address, stride, and a two-state confidence)
//! and rewrites the trace, converting a miss into a hit when the
//! prefetcher would have fetched the line in time. "In time" is
//! approximated by instruction distance: a prediction made fewer than
//! `lead_time` instructions before the access has not finished
//! fetching and only partially covers the latency. The rewritten trace
//! can then be re-timed under any processor model.

use lookahead_trace::{MemAccess, Trace, TraceOp};
use std::collections::HashMap;

/// Configuration of the stride prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Reference prediction table entries (per-PC); `0` disables.
    pub table_entries: usize,
    /// Instructions of lead time needed to fully cover a miss
    /// (≈ the miss penalty on a 1-IPC machine).
    pub lead_time: u32,
    /// Cache line size for next-line coverage.
    pub line_bytes: u64,
}

impl Default for PrefetchConfig {
    /// 512-entry table, 50-instruction lead time, 16-byte lines.
    fn default() -> PrefetchConfig {
        PrefetchConfig {
            table_entries: 512,
            lead_time: 50,
            line_bytes: 16,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct RptEntry {
    last_addr: u64,
    stride: i64,
    /// Consecutive accesses that confirmed the current stride.
    stable_count: u32,
    /// Instruction index of the last access (for inter-access gap).
    last_idx: u64,
    /// Line predicted one stride ahead by the last access.
    predicted_line: u64,
}

/// Statistics from a prefetching pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchStats {
    /// Loads examined.
    pub loads: u64,
    /// Read misses in the original trace.
    pub misses: u64,
    /// Misses fully covered (converted to hits).
    pub covered: u64,
    /// Misses partially covered (latency reduced but not to a hit).
    pub partial: u64,
}

impl PrefetchStats {
    /// Fraction of read misses fully covered.
    pub fn coverage(&self) -> f64 {
        if self.misses == 0 {
            0.0
        } else {
            self.covered as f64 / self.misses as f64
        }
    }
}

/// A Baer–Chen-style reference prediction table.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    config: PrefetchConfig,
    table: HashMap<u32, RptEntry>,
}

impl StridePrefetcher {
    /// Creates an empty prefetcher.
    pub fn new(config: PrefetchConfig) -> StridePrefetcher {
        StridePrefetcher {
            config,
            table: HashMap::new(),
        }
    }

    /// Rewrites `trace`, shortening the latency of read misses the
    /// prefetcher covers. Returns the new trace and coverage stats.
    pub fn cover(&mut self, trace: &Trace) -> (Trace, PrefetchStats) {
        let mut stats = PrefetchStats::default();
        let cfg = self.config;
        let line = |addr: u64| addr & !(cfg.line_bytes - 1);
        let mut out = Vec::with_capacity(trace.len());
        for (idx, e) in trace.iter().enumerate() {
            let idx = idx as u64;
            let mut entry = *e;
            if let TraceOp::Load(m) = e.op {
                stats.loads += 1;
                if m.miss {
                    stats.misses += 1;
                }
                let rpt = self.table.get(&e.pc).copied();
                // Does the stream's prefetcher cover this access? The
                // lookahead PC runs `needed` accesses ahead, where
                // `needed` is how many inter-access gaps fit in the
                // fetch latency; once the stride has been stable that
                // long, steady-state accesses arrive as hits.
                if let Some(r) = rpt {
                    if m.miss && r.stride != 0 {
                        let gap = (idx - r.last_idx).max(1) as u32;
                        let needed = cfg.lead_time / gap + 1;
                        let predicted = m.addr as i64 == r.last_addr as i64 + r.stride;
                        if predicted && r.stable_count >= needed {
                            stats.covered += 1;
                            entry.op = TraceOp::Load(MemAccess::hit(m.addr));
                        } else if r.predicted_line == line(m.addr) {
                            // Predicted but the fetch is still in
                            // flight: the gap's worth of latency is
                            // already covered.
                            stats.partial += 1;
                            entry.op = TraceOp::Load(MemAccess {
                                addr: m.addr,
                                miss: true,
                                latency: (m.latency - 1)
                                    .saturating_sub(gap * (m.latency - 1) / cfg.lead_time)
                                    .max(1)
                                    + 1,
                            });
                        }
                    }
                }
                // Update the table and issue the next prediction.
                let next = match rpt {
                    Some(r) => {
                        let stride = m.addr as i64 - r.last_addr as i64;
                        let stable = stride == r.stride && stride != 0;
                        let stable_count = if stable { r.stable_count + 1 } else { 0 };
                        let predicted_line = if stable {
                            line((m.addr as i64 + stride) as u64)
                        } else {
                            // Not confident: predict nothing (keep an
                            // impossible line).
                            u64::MAX
                        };
                        RptEntry {
                            last_addr: m.addr,
                            stride,
                            stable_count,
                            last_idx: idx,
                            predicted_line,
                        }
                    }
                    None => RptEntry {
                        last_addr: m.addr,
                        stride: 0,
                        stable_count: 0,
                        last_idx: idx,
                        predicted_line: u64::MAX,
                    },
                };
                if self.table.len() >= cfg.table_entries && !self.table.contains_key(&e.pc) {
                    // Table full: crude random-ish replacement — drop
                    // the entry with the smallest PC (deterministic).
                    if let Some(&victim) = self.table.keys().min() {
                        self.table.remove(&victim);
                    }
                }
                self.table.insert(e.pc, next);
            }
            out.push(entry);
        }
        #[cfg(feature = "obs")]
        lookahead_obs::with(|r| {
            r.metrics.inc("core.prefetch.loads", stats.loads);
            r.metrics.inc("core.prefetch.misses", stats.misses);
            r.metrics.inc("core.prefetch.covered", stats.covered);
            r.metrics.inc("core.prefetch.partial", stats.partial);
        });
        (Trace::from_entries(out), stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Base;
    use crate::model::ProcessorModel;
    use lookahead_isa::Program;
    use lookahead_trace::TraceEntry;

    fn strided_trace(n: usize, stride: u64, pc: u32) -> Trace {
        (0..n)
            .map(|i| TraceEntry {
                pc,
                op: TraceOp::Load(MemAccess::miss(0x1000 + i as u64 * stride, 50)),
            })
            .collect()
    }

    #[test]
    fn regular_stride_is_covered_after_warmup() {
        // A single load PC streaming with a fixed stride: after two
        // accesses the stride is stable; with interleaved filler
        // giving lead time, later misses are covered.
        let mut entries = Vec::new();
        for i in 0..20u64 {
            entries.push(TraceEntry {
                pc: 0,
                op: TraceOp::Load(MemAccess::miss(0x1000 + i * 64, 50)),
            });
            for f in 0..60u32 {
                entries.push(TraceEntry::compute(1 + f));
            }
        }
        let trace = Trace::from_entries(entries);
        let (covered, stats) = StridePrefetcher::new(PrefetchConfig::default()).cover(&trace);
        assert_eq!(stats.misses, 20);
        assert!(
            stats.covered >= 15,
            "regular stream should be covered: {stats:?}"
        );
        let misses_left = covered
            .iter()
            .filter_map(|e| e.mem_access())
            .filter(|m| m.miss)
            .count();
        assert_eq!(misses_left as u64, stats.misses - stats.covered);
    }

    #[test]
    fn irregular_stream_is_not_covered() {
        // Pseudo-random addresses: no stable stride, no coverage.
        let entries: Vec<_> = (0..50u64)
            .map(|i| TraceEntry {
                pc: 0,
                op: TraceOp::Load(MemAccess::miss((i * 7919 + 13) % 4096 * 16, 50)),
            })
            .collect();
        let trace = Trace::from_entries(entries);
        let (_, stats) = StridePrefetcher::new(PrefetchConfig::default()).cover(&trace);
        assert_eq!(stats.covered, 0, "{stats:?}");
    }

    #[test]
    fn lead_time_governs_coverage() {
        // With ~11 instructions between accesses the lookahead needs 5
        // stable strides: the stream starts partial and reaches full
        // coverage in steady state.
        let mut entries = Vec::new();
        for i in 0..20u64 {
            entries.push(TraceEntry {
                pc: 0,
                op: TraceOp::Load(MemAccess::miss(0x1000 + i * 64, 50)),
            });
            for f in 0..10u32 {
                entries.push(TraceEntry::compute(1 + f));
            }
        }
        let trace = Trace::from_entries(entries);
        let (covered, stats) = StridePrefetcher::new(PrefetchConfig::default()).cover(&trace);
        assert!(stats.partial >= 2, "{stats:?}");
        assert!(stats.covered >= 10, "{stats:?}");
        let total_before = Base.run(&Program::default(), &trace).cycles();
        let total_after = Base.run(&Program::default(), &covered).cycles();
        assert!(total_after < total_before);
        // Back-to-back misses (gap 1, lookahead needs 51 accesses in a
        // 10-access stream): never fully covered, marginal gain.
        let tight = strided_trace(10, 64, 0);
        let (covered_tight, st) = StridePrefetcher::new(PrefetchConfig::default()).cover(&tight);
        assert_eq!(st.covered, 0);
        let before = Base.run(&Program::default(), &tight).cycles();
        let after = Base.run(&Program::default(), &covered_tight).cycles();
        assert!(after + 30 > before, "no lead time, no meaningful gain");
    }

    #[test]
    fn table_capacity_is_bounded() {
        let mut entries = Vec::new();
        for pc in 0..100u32 {
            entries.push(TraceEntry {
                pc,
                op: TraceOp::Load(MemAccess::miss(pc as u64 * 8, 50)),
            });
        }
        let trace = Trace::from_entries(entries);
        let mut p = StridePrefetcher::new(PrefetchConfig {
            table_entries: 8,
            ..PrefetchConfig::default()
        });
        let _ = p.cover(&trace);
        assert!(p.table.len() <= 8);
    }
}
