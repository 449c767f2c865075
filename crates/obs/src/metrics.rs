//! The metrics registry: typed counters, gauges, and log2-bucketed
//! histograms under a hierarchical dotted-path namespace.
//!
//! Paths are plain strings like `core.ds.rob_occupancy` or
//! `memsys.mshr.merge_hits`: the first segment names the crate, the
//! second the component, the third the quantity. The registry is a
//! sorted map so reports and serialized snapshots list related metrics
//! together.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hash::{Hash as _, Hasher as _};
use std::sync::Mutex;

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket `i` counts samples whose bit length is `i`: bucket 0 holds
/// the value 0, bucket 1 holds 1, bucket 2 holds 2–3, bucket 3 holds
/// 4–7, and so on up to bucket 64. This gives a compact fixed-size
/// summary with ~2x resolution at every scale, which is plenty for
/// latencies and occupancies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }
}

/// The bucket index a value lands in: its bit length.
pub fn bucket_index(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

/// The half-open value range `[lo, hi)` covered by bucket `i`
/// (`hi == None` means the bucket is unbounded above only for i = 64,
/// where `hi` would overflow).
pub fn bucket_range(i: usize) -> (u64, Option<u64>) {
    match i {
        0 => (0, Some(1)),
        64 => (1 << 63, None),
        _ => (1 << (i - 1), Some(1 << i)),
    }
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        self.observe_n(value, 1);
    }

    /// Records the same sample `n` times in one update — equivalent to
    /// `n` [`observe`](Self::observe) calls, so per-cycle gauges stay
    /// exact when an event-driven engine skips a span of identical
    /// cycles.
    pub fn observe_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += n;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample value, or 0.0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Count in bucket `i` (see [`bucket_index`]).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// The non-empty buckets as `(index, count)` pairs.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i, c))
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonically increasing count.
    Counter(u64),
    /// A point-in-time signed value (last write wins).
    Gauge(i64),
    /// A distribution of samples (boxed: a histogram is ~70x larger
    /// than the scalar variants).
    Histogram(Box<Histogram>),
}

/// A sorted map of dotted metric paths to metric values.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `by` to the counter at `path`, creating it at zero first if
    /// absent. A path already registered with a different type is left
    /// unchanged (debug builds panic: that is an instrumentation bug).
    pub fn inc(&mut self, path: &str, by: u64) {
        match self
            .metrics
            .entry(path.to_owned())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(c) => *c += by,
            other => debug_assert!(false, "{path} is not a counter: {other:?}"),
        }
    }

    /// Sets the gauge at `path`.
    pub fn gauge_set(&mut self, path: &str, value: i64) {
        match self
            .metrics
            .entry(path.to_owned())
            .or_insert(Metric::Gauge(0))
        {
            Metric::Gauge(g) => *g = value,
            other => debug_assert!(false, "{path} is not a gauge: {other:?}"),
        }
    }

    /// Records a sample into the histogram at `path`.
    pub fn observe(&mut self, path: &str, value: u64) {
        self.observe_n(path, value, 1);
    }

    /// Records the same sample `n` times into the histogram at `path`
    /// (see [`Histogram::observe_n`]).
    pub fn observe_n(&mut self, path: &str, value: u64, n: u64) {
        match self
            .metrics
            .entry(path.to_owned())
            .or_insert_with(|| Metric::Histogram(Box::default()))
        {
            Metric::Histogram(h) => h.observe_n(value, n),
            other => debug_assert!(false, "{path} is not a histogram: {other:?}"),
        }
    }

    /// The metric at `path`, if registered.
    pub fn get(&self, path: &str) -> Option<&Metric> {
        self.metrics.get(path)
    }

    /// The counter value at `path` (0 if absent or not a counter).
    pub fn counter(&self, path: &str) -> u64 {
        match self.metrics.get(path) {
            Some(Metric::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// All metrics in path order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Merges another registry into this one: counters add, gauges
    /// take the other's value, histograms add bucket-wise.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (path, m) in other.iter() {
            match m {
                Metric::Counter(c) => self.inc(path, *c),
                Metric::Gauge(g) => self.gauge_set(path, *g),
                Metric::Histogram(h) => {
                    match self
                        .metrics
                        .entry(path.to_owned())
                        .or_insert_with(|| Metric::Histogram(Box::default()))
                    {
                        Metric::Histogram(mine) => {
                            mine.count += h.count;
                            mine.sum = mine.sum.saturating_add(h.sum);
                            mine.min = mine.min.min(h.min);
                            mine.max = mine.max.max(h.max);
                            for (i, b) in h.buckets.iter().enumerate() {
                                mine.buckets[i] += b;
                            }
                        }
                        other => debug_assert!(false, "{path} is not a histogram: {other:?}"),
                    }
                }
            }
        }
    }

    /// Serializes the registry as one JSON object keyed by path.
    /// Counters and gauges are plain numbers; histograms are objects
    /// with count/sum/min/max and the non-empty buckets.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (path, m)) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}:", crate::json::quote(path));
            match m {
                Metric::Counter(c) => {
                    let _ = write!(out, "{c}");
                }
                Metric::Gauge(g) => {
                    let _ = write!(out, "{g}");
                }
                Metric::Histogram(h) => {
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":{{",
                        h.count(),
                        h.sum(),
                        h.min(),
                        h.max()
                    );
                    for (j, (idx, c)) in h.nonzero_buckets().enumerate() {
                        if j > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "\"{idx}\":{c}");
                    }
                    out.push_str("}}");
                }
            }
        }
        out.push('}');
        out
    }
}

/// A sharded registry for hot concurrent writers: each calling thread
/// hashes onto one of a fixed set of `Mutex<MetricsRegistry>` shards,
/// so request workers updating metrics contend only with threads that
/// happen to share a shard — never with a scrape, which locks shards
/// *one at a time* and merges them into a snapshot.
///
/// Merging is deterministic: counters and histogram buckets add (so
/// any distribution of the same updates across shards merges to the
/// same registry), and the merged map is sorted by path as always.
/// Gauges remain last-write-wins per shard; use them for values where
/// any recent write is acceptable.
#[derive(Debug)]
pub struct ShardedMetrics {
    shards: Vec<Mutex<MetricsRegistry>>,
}

impl ShardedMetrics {
    /// A sharded registry with `shards` shards (at least 1).
    pub fn new(shards: usize) -> ShardedMetrics {
        ShardedMetrics {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(MetricsRegistry::new()))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn shard_for_thread(&self) -> usize {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        std::thread::current().id().hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    /// Runs `f` against the calling thread's shard.
    pub fn with<T>(&self, f: impl FnOnce(&mut MetricsRegistry) -> T) -> T {
        self.with_shard(self.shard_for_thread(), f)
    }

    /// Runs `f` against a specific shard (tests and deterministic
    /// setups; `i` wraps modulo the shard count).
    pub fn with_shard<T>(&self, i: usize, f: impl FnOnce(&mut MetricsRegistry) -> T) -> T {
        let mut shard = self.shards[i % self.shards.len()]
            .lock()
            .expect("metrics shard poisoned");
        f(&mut shard)
    }

    /// A merged snapshot of all shards (shard order, which is fixed,
    /// so the merge is deterministic for a given set of shard states).
    pub fn merged(&self) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        for shard in &self.shards {
            out.merge(&shard.lock().expect("metrics shard poisoned"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(7), 3);
        assert_eq!(bucket_index(8), 4);
        assert_eq!(bucket_index(u64::MAX), 64);
    }

    #[test]
    fn sharded_writes_merge_to_exact_totals() {
        let shards = ShardedMetrics::new(4);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for v in 0..100u64 {
                        shards.with(|r| {
                            r.inc("t.count", 1);
                            r.observe("t.lat", v);
                        });
                    }
                });
            }
        });
        let merged = shards.merged();
        assert_eq!(merged.counter("t.count"), 800);
        match merged.get("t.lat") {
            Some(Metric::Histogram(h)) => {
                assert_eq!(h.count(), 800);
                assert_eq!(h.sum(), 8 * (0..100).sum::<u64>());
                assert_eq!(h.max(), 99);
            }
            other => panic!("t.lat missing: {other:?}"),
        }
    }

    #[test]
    fn shard_count_is_clamped_to_one() {
        let shards = ShardedMetrics::new(0);
        assert_eq!(shards.shards(), 1);
        shards.with(|r| r.inc("a", 1));
        assert_eq!(shards.merged().counter("a"), 1);
    }

    #[test]
    fn bucket_ranges_partition_the_domain() {
        // Every value maps into the bucket whose range contains it.
        for v in [0u64, 1, 2, 3, 4, 5, 63, 64, 65, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_range(i);
            assert!(v >= lo, "{v} below bucket {i} range");
            if let Some(hi) = hi {
                assert!(v < hi, "{v} above bucket {i} range");
            }
        }
        // Ranges are contiguous.
        for i in 0..64 {
            let (_, hi) = bucket_range(i);
            let (lo_next, _) = bucket_range(i + 1);
            assert_eq!(hi, Some(lo_next));
        }
    }
}
