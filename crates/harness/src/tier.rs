//! Workload size tiers: which problem size every application runs at.
//!
//! The tier is part of every trace-cache key (see
//! [`cache_key`](crate::cache::cache_key)), so the bench binaries, the
//! unified driver and the experiment service all agree on what a
//! cached trace means. The canonical tier names (`small`, `default`,
//! `paper`, `large`) are pinned by tests — renaming one silently
//! invalidates every existing cache.

use lookahead_workloads::{App, Workload};

/// Which workload size every application runs at, ordered by size.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SizeTier {
    /// Unit-test sizes (`--tier small`, `LOOKAHEAD_SMALL=1`).
    Small,
    /// The experiment-harness defaults.
    Default,
    /// The paper's published sizes (`--tier paper`, `LOOKAHEAD_PAPER=1`).
    Paper,
    /// Beyond the paper's sizes (`--tier large`, `LOOKAHEAD_LARGE=1`):
    /// traces big enough that only the streamed bounded-memory pipeline
    /// keeps the working set flat.
    Large,
}

impl SizeTier {
    /// Every tier, in increasing size order.
    pub const ALL: [SizeTier; 4] = [
        SizeTier::Small,
        SizeTier::Default,
        SizeTier::Paper,
        SizeTier::Large,
    ];

    /// The tier's name as spelled into cache keys.
    pub fn name(self) -> &'static str {
        match self {
            SizeTier::Small => "small",
            SizeTier::Default => "default",
            SizeTier::Paper => "paper",
            SizeTier::Large => "large",
        }
    }

    /// The tier named `name` (the inverse of [`name`](Self::name)),
    /// case-insensitively; `None` for anything else.
    pub fn from_name(name: &str) -> Option<SizeTier> {
        SizeTier::ALL
            .into_iter()
            .find(|t| t.name().eq_ignore_ascii_case(name.trim()))
    }

    /// The application's workload at this tier.
    pub fn workload(self, app: App) -> Box<dyn Workload + Send + Sync> {
        match self {
            SizeTier::Small => app.small_workload(),
            SizeTier::Default => app.default_workload(),
            SizeTier::Paper => app.paper_workload(),
            SizeTier::Large => app.large_workload(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_are_cache_key_stable() {
        // Cache keys embed these strings; renaming one silently
        // invalidates every existing cache, so pin them.
        assert_eq!(SizeTier::Small.name(), "small");
        assert_eq!(SizeTier::Default.name(), "default");
        assert_eq!(SizeTier::Paper.name(), "paper");
        assert_eq!(SizeTier::Large.name(), "large");
    }

    #[test]
    fn from_name_roundtrips_and_rejects_unknown() {
        for t in SizeTier::ALL {
            assert_eq!(SizeTier::from_name(t.name()), Some(t));
        }
        assert_eq!(SizeTier::from_name("SMALL"), Some(SizeTier::Small));
        assert_eq!(SizeTier::from_name(" paper "), Some(SizeTier::Paper));
        assert_eq!(SizeTier::from_name("Large"), Some(SizeTier::Large));
        assert_eq!(SizeTier::from_name("huge"), None);
        assert_eq!(SizeTier::from_name(""), None);
    }
}
