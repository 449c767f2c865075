//! Miss status holding registers (MSHRs) for lockup-free caches.
//!
//! The paper's dynamically scheduled processor uses a lockup-free data
//! cache [Kroft 81] "that allows for multiple outstanding requests"
//! (§3.1). The MSHR file tracks those outstanding misses: a primary
//! miss allocates an entry; a secondary miss to the same line merges
//! into the existing entry and completes when it does; the file has a
//! configurable capacity (unbounded by default, matching the paper's
//! aggressive memory-system assumption).

use std::collections::BTreeMap;

/// A file of miss status holding registers keyed by line address.
///
/// Timing is expressed in absolute cycles: the caller supplies `now`
/// and the miss latency and gets back the completion time.
///
/// # Example
///
/// ```
/// use lookahead_memsys::mshr::MshrFile;
///
/// let mut mshrs = MshrFile::new(Some(2));
/// let t1 = mshrs.request(0x100, 10, 50).expect("allocates");
/// assert_eq!(t1, 60);
/// // Secondary miss to the same line merges:
/// assert_eq!(mshrs.request(0x100, 12, 50), Some(60));
/// // A different line allocates the second entry:
/// assert_eq!(mshrs.request(0x200, 12, 50), Some(62));
/// // The file is now full for new lines:
/// assert_eq!(mshrs.request(0x300, 13, 50), None);
/// mshrs.retire_completed(60);
/// assert_eq!(mshrs.request(0x300, 61, 50), Some(111));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MshrFile {
    /// Maximum simultaneously outstanding lines; `None` = unbounded.
    capacity: Option<usize>,
    /// line address -> completion cycle
    outstanding: BTreeMap<u64, u64>,
    /// The minimum completion cycle in `outstanding`, kept current so
    /// that reading it, and retiring when nothing has completed, cost
    /// no walk of the map.
    earliest: Option<u64>,
    /// Peak simultaneously outstanding entries (for stats).
    peak: usize,
}

impl MshrFile {
    /// Creates an MSHR file with the given capacity (`None` for
    /// unbounded, the paper's aggressive assumption).
    pub fn new(capacity: Option<usize>) -> MshrFile {
        MshrFile {
            capacity,
            outstanding: BTreeMap::new(),
            earliest: None,
            peak: 0,
        }
    }

    /// Requests service for a miss on `line_addr` at cycle `now` with
    /// the given latency.
    ///
    /// Returns the completion cycle, or `None` if the file is full and
    /// the line has no outstanding entry (structural hazard: the caller
    /// must retry later). A request for a line already outstanding
    /// merges and returns the existing completion time.
    pub fn request(&mut self, line_addr: u64, now: u64, latency: u32) -> Option<u64> {
        if let Some(&done) = self.outstanding.get(&line_addr) {
            #[cfg(feature = "obs")]
            lookahead_obs::with(|r| {
                r.metrics.inc("memsys.mshr.merge_hits", 1);
                r.event(now, lookahead_obs::EventKind::MshrMerge { line: line_addr });
            });
            return Some(done);
        }
        if let Some(cap) = self.capacity {
            if self.outstanding.len() >= cap {
                #[cfg(feature = "obs")]
                lookahead_obs::with(|r| r.metrics.inc("memsys.mshr.full_stalls", 1));
                return None;
            }
        }
        let done = now + latency as u64;
        self.outstanding.insert(line_addr, done);
        self.earliest = Some(self.earliest.map_or(done, |t| t.min(done)));
        self.peak = self.peak.max(self.outstanding.len());
        #[cfg(feature = "obs")]
        lookahead_obs::with(|r| {
            r.metrics.inc("memsys.mshr.allocations", 1);
            r.metrics
                .observe("memsys.mshr.outstanding", self.outstanding.len() as u64);
            r.event(now, lookahead_obs::EventKind::MshrAlloc { line: line_addr });
        });
        Some(done)
    }

    /// Drops all entries whose completion time is `<= now`. Until the
    /// earliest outstanding miss completes this is a single comparison,
    /// so callers may call it every cycle.
    pub fn retire_completed(&mut self, now: u64) {
        if self.earliest.is_some_and(|t| t <= now) {
            self.outstanding.retain(|_, &mut done| done > now);
            self.earliest = self.outstanding.values().min().copied();
        }
    }

    /// Number of outstanding misses.
    pub fn len(&self) -> usize {
        self.outstanding.len()
    }

    /// Whether no misses are outstanding.
    pub fn is_empty(&self) -> bool {
        self.outstanding.is_empty()
    }

    /// Whether a new line cannot currently be allocated.
    pub fn is_full(&self) -> bool {
        self.capacity
            .is_some_and(|cap| self.outstanding.len() >= cap)
    }

    /// The earliest completion time among outstanding misses.
    pub fn next_completion(&self) -> Option<u64> {
        self.earliest
    }

    /// Peak number of simultaneously outstanding misses observed.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_miss_allocates() {
        let mut m = MshrFile::new(None);
        assert_eq!(m.request(0x40, 100, 50), Some(150));
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
    }

    #[test]
    fn secondary_miss_merges() {
        let mut m = MshrFile::new(None);
        let t = m.request(0x40, 100, 50).unwrap();
        assert_eq!(m.request(0x40, 120, 50), Some(t), "merged, same completion");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn capacity_limits_distinct_lines() {
        let mut m = MshrFile::new(Some(1));
        assert!(m.request(0x40, 0, 50).is_some());
        assert!(m.is_full());
        assert_eq!(m.request(0x80, 0, 50), None);
        // Merge into the existing line still works at capacity.
        assert!(m.request(0x40, 10, 50).is_some());
    }

    #[test]
    fn retire_frees_entries() {
        let mut m = MshrFile::new(Some(1));
        m.request(0x40, 0, 50);
        m.retire_completed(49);
        assert!(m.is_full(), "not yet complete at 49");
        m.retire_completed(50);
        assert!(m.is_empty());
        assert_eq!(m.request(0x80, 51, 50), Some(101));
    }

    #[test]
    fn next_completion_is_minimum() {
        let mut m = MshrFile::new(None);
        m.request(0x40, 0, 50);
        m.request(0x80, 10, 50);
        assert_eq!(m.next_completion(), Some(50));
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m = MshrFile::new(None);
        m.request(0x40, 0, 50);
        m.request(0x80, 0, 50);
        m.retire_completed(1000);
        assert_eq!(m.peak(), 2);
        assert!(m.is_empty());
    }
}
