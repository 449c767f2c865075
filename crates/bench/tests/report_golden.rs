//! Byte-level golden pin of the small-tier figure3 + figure4 + summary
//! output — the guard the event-driven re-timing engine is held to:
//! any cycle-accounting drift (a skipped span charged to the wrong
//! class, an off-by-one in the jump target) changes these bytes.
//!
//! `golden_small_tier.txt` was captured from the cycle-by-cycle
//! engine before cycle skipping was introduced, exactly as the driver
//! prints it:
//!
//! ```text
//! LOOKAHEAD_SMALL=1 lookahead figure3 figure4 summary --no-cache
//! ```
//!
//! Regenerate with that command (stdout only) if a deliberate
//! modeling change shifts the numbers.

use lookahead_bench::{reports, Runner, SizeTier};
use lookahead_multiproc::SimConfig;

#[test]
fn small_tier_reports_match_golden_bytes() {
    let workers = 2;
    let runner = Runner::new(SimConfig::default(), SizeTier::Small, None, workers);
    let runs = runner.run_all();
    let actual = format!(
        "{}{}{}",
        reports::figure3_report(&runs),
        reports::figure4_report(&runs),
        reports::summary_report(&runs, workers),
    );
    let golden = include_str!("golden_small_tier.txt");
    assert_eq!(
        actual, golden,
        "small-tier report bytes drifted from the pre-skip baseline"
    );
}
