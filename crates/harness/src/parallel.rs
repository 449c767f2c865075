//! Positive-count parsing: the worker count (`--jobs N`,
//! `LOOKAHEAD_JOBS`) and every other knob that takes a count.
//!
//! A worker count bounds how many sweep tasks the [`dag`](crate::dag)
//! executor runs at once. Output never depends on it: results come
//! back in node-id order at any worker count.

/// Parses a positive integer given through `knob`. The error names the
/// knob and `what` it counts, so a typo is obvious; binaries report it
/// and exit with code 2.
///
/// # Errors
///
/// Returns a descriptive message when the value is not a positive
/// integer.
pub fn parse_positive(knob: &str, what: &str, v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "{knob} must be a positive integer ({what}), got {v:?}"
        )),
    }
}

/// Parses a worker count given through `knob` (`--jobs` or
/// `LOOKAHEAD_JOBS`), naming the knob in the error.
///
/// # Errors
///
/// Returns a descriptive message when the value is not a positive
/// integer.
pub fn parse_jobs(knob: &str, v: &str) -> Result<usize, String> {
    parse_positive(knob, "worker count", v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_jobs_validates() {
        assert_eq!(parse_jobs("LOOKAHEAD_JOBS", "4"), Ok(4));
        assert_eq!(parse_jobs("--jobs", " 1 "), Ok(1));
        assert!(parse_jobs("--jobs", "0")
            .unwrap_err()
            .starts_with("--jobs must be"));
        assert!(parse_jobs("LOOKAHEAD_JOBS", "four").is_err());
        assert!(parse_jobs("LOOKAHEAD_JOBS", "").is_err());
        assert!(parse_jobs("LOOKAHEAD_JOBS", "-2").is_err());
    }
}
