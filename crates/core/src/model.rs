//! The processor-model interface and shared result types.

use lookahead_trace::Breakdown;
use std::fmt;

/// Additional statistics a model may report beyond the breakdown.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Instructions executed (equals the trace length).
    pub instructions: u64,
    /// Conditional branches executed.
    pub branches: u64,
    /// Mispredicted branches (0 for models without prediction).
    pub mispredictions: u64,
    /// Cycles with an empty window and no outstanding memory operation
    /// (pipeline refill after mispredictions); folded into `busy` in
    /// the breakdown.
    pub fetch_stall_cycles: u64,
    /// Cycles stalled because the write buffer was full.
    pub write_buffer_full_stalls: u64,
    /// For the dynamically scheduled model: per read *miss*, the delay
    /// in cycles from entering the window (decode) to issuing to
    /// memory — the paper's §4.1.3 dependence-chain diagnostic.
    pub read_miss_issue_delays: Vec<u32>,
    /// Peak simultaneously outstanding cache misses.
    pub peak_outstanding_misses: usize,
    /// For the multiple-contexts model: context switches taken.
    pub context_switches: u64,
    /// For the multiple-contexts model: cycles spent switching.
    pub switch_overhead_cycles: u64,
}

impl RunStats {
    /// Fraction of read misses delayed more than `threshold` cycles
    /// between decode and memory issue (the paper quotes delays over
    /// 40–50 cycles as evidence of dependence chains).
    pub fn read_miss_delay_fraction_over(&self, threshold: u32) -> f64 {
        if self.read_miss_issue_delays.is_empty() {
            return 0.0;
        }
        let over = self
            .read_miss_issue_delays
            .iter()
            .filter(|&&d| d > threshold)
            .count();
        over as f64 / self.read_miss_issue_delays.len() as f64
    }

    /// Branch prediction accuracy in percent, if any branches ran.
    pub fn prediction_percent(&self) -> Option<f64> {
        if self.branches == 0 {
            None
        } else {
            Some((self.branches - self.mispredictions) as f64 * 100.0 / self.branches as f64)
        }
    }
}

/// The outcome of re-timing one trace under one processor model.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecutionResult {
    /// Cycle accounting (the stacked bar of Figures 3 and 4).
    pub breakdown: Breakdown,
    /// Model-specific statistics.
    pub stats: RunStats,
}

impl ExecutionResult {
    /// Total execution time in cycles.
    pub fn cycles(&self) -> u64 {
        self.breakdown.total()
    }
}

impl fmt::Display for ExecutionResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.breakdown)
    }
}

/// A processor timing model: re-times an annotated trace.
///
/// The `program` supplies static instruction properties (operand
/// registers, opcodes); the trace supplies dynamic facts (addresses,
/// latencies, branch outcomes). Models are pure: they may be run
/// repeatedly and from multiple threads.
///
/// An engine implements [`name`](Self::name) and
/// [`run_source`](Self::run_source) only: it reads the trace chunk by
/// chunk, so its memory is bounded by its live window, not the trace
/// length, and how the source is chunked never changes a result.
pub trait ProcessorModel {
    /// A short display name ("BASE", "SSBR/SC", "DS-64/RC", ...).
    fn name(&self) -> String;

    /// Re-times the trace pulled chunk by chunk from `source` and
    /// returns the cycle accounting.
    ///
    /// # Errors
    ///
    /// Propagates the source's first I/O or decode error. The run's
    /// partial result is discarded — a truncated trace must never be
    /// mistaken for a short one.
    fn run_source(
        &self,
        program: &lookahead_isa::Program,
        source: &mut dyn lookahead_trace::TraceSource,
    ) -> Result<ExecutionResult, lookahead_trace::StreamError>;

    /// Re-times an in-memory `trace`: [`run_source`](Self::run_source)
    /// over a [`SliceSource`](lookahead_trace::SliceSource).
    fn run(
        &self,
        program: &lookahead_isa::Program,
        trace: &lookahead_trace::Trace,
    ) -> ExecutionResult {
        self.run_source(program, &mut lookahead_trace::SliceSource::new(trace))
            .expect("an in-memory trace streams without error")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_fraction() {
        let stats = RunStats {
            read_miss_issue_delays: vec![1, 10, 45, 60, 100],
            ..RunStats::default()
        };
        assert_eq!(stats.read_miss_delay_fraction_over(40), 3.0 / 5.0);
        assert_eq!(stats.read_miss_delay_fraction_over(1000), 0.0);
        assert_eq!(RunStats::default().read_miss_delay_fraction_over(40), 0.0);
    }

    #[test]
    fn prediction_percent() {
        let stats = RunStats {
            branches: 200,
            mispredictions: 20,
            ..RunStats::default()
        };
        assert_eq!(stats.prediction_percent(), Some(90.0));
        assert_eq!(RunStats::default().prediction_percent(), None);
    }
}
