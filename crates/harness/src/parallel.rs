//! The worker-count knobs: `--jobs N` and `LOOKAHEAD_JOBS`.
//!
//! A worker count bounds how many sweep tasks the [`dag`](crate::dag)
//! executor runs at once. Output never depends on it: results come
//! back in node-id order at any worker count.

/// Number of workers to use by default: the `LOOKAHEAD_JOBS`
/// environment variable if set, otherwise the machine's available
/// parallelism.
///
/// # Errors
///
/// Returns a descriptive message if `LOOKAHEAD_JOBS` is set but is not
/// a positive integer — a misspelled knob must fail fast, not silently
/// run serial. Binaries report it and exit with code 2.
pub fn workers_from_env() -> Result<usize, String> {
    match std::env::var("LOOKAHEAD_JOBS") {
        Ok(v) => parse_jobs("LOOKAHEAD_JOBS", &v),
        Err(_) => Ok(std::thread::available_parallelism().map_or(1, |n| n.get())),
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
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "{knob} must be a positive integer (worker count), got {v:?}"
        )),
    }
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
