//! Leveled, structured JSONL logging to stderr.
//!
//! One log call = one flat JSON object on one stderr line: timestamp,
//! level, target, message, the caller's key/value fields, and — when
//! the calling thread is inside a traced request — the request id, so
//! server logs correlate with `X-Request-Id` headers and span files
//! without any plumbing at the call sites.
//!
//! A [`Filter`] is a default level, optionally refined per target
//! prefix; [`parse_filter`] reads the `LOOKAHEAD_LOG` syntax:
//!
//! ```text
//! LOOKAHEAD_LOG=info                 # info and up, everywhere
//! LOOKAHEAD_LOG=warn,serve.http=debug
//! LOOKAHEAD_LOG=off                  # silence
//! ```
//!
//! This module never reads the environment: binaries parse the
//! variable with the rest of their knobs at startup and hand the
//! result to [`install_filter`]. Until then, and in every process that
//! installs none, the filter is the default, `warn`: a healthy server
//! is silent.

use crate::json::JsonObject;
use std::io::Write as _;
use std::sync::OnceLock;

/// The environment variable holding the log filter.
pub const LOG_ENV: &str = "LOOKAHEAD_LOG";

/// Log severity, ordered: `Error` is always the most severe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    Error = 1,
    Warn = 2,
    Info = 3,
    Debug = 4,
}

impl Level {
    /// The lowercase name that appears in log lines and filters.
    pub fn name(self) -> &'static str {
        match self {
            Level::Error => "error",
            Level::Warn => "warn",
            Level::Info => "info",
            Level::Debug => "debug",
        }
    }

    fn from_name(s: &str) -> Option<Option<Level>> {
        match s {
            "error" => Some(Some(Level::Error)),
            "warn" => Some(Some(Level::Warn)),
            "info" => Some(Some(Level::Info)),
            "debug" => Some(Some(Level::Debug)),
            "off" => Some(None),
            _ => None,
        }
    }
}

/// A parsed `LOOKAHEAD_LOG` filter: a default maximum level plus
/// per-target-prefix overrides (`None` = off).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Filter {
    default: Option<Level>,
    /// `(prefix, max level)`, longest prefix wins.
    targets: Vec<(String, Option<Level>)>,
}

impl Default for Filter {
    fn default() -> Filter {
        Filter {
            default: Some(Level::Warn),
            targets: Vec::new(),
        }
    }
}

impl Filter {
    /// Whether a line at `level` for `target` passes the filter.
    pub fn enabled(&self, level: Level, target: &str) -> bool {
        let max = self
            .targets
            .iter()
            .filter(|(prefix, _)| {
                target == prefix
                    || (target.starts_with(prefix.as_str())
                        && target.as_bytes().get(prefix.len()) == Some(&b'.'))
            })
            .max_by_key(|(prefix, _)| prefix.len())
            .map(|(_, lvl)| *lvl)
            .unwrap_or(self.default);
        match max {
            Some(max) => level <= max,
            None => false,
        }
    }
}

/// Parses a `LOOKAHEAD_LOG` value: comma-separated entries, each a
/// bare level (the default) or `target=level`.
///
/// # Errors
///
/// Returns a descriptive message for unknown levels or malformed
/// entries.
pub fn parse_filter(value: &str) -> Result<Filter, String> {
    let mut filter = Filter::default();
    for entry in value.split(',') {
        let entry = entry.trim();
        if entry.is_empty() {
            continue;
        }
        match entry.split_once('=') {
            None => {
                filter.default = Level::from_name(entry).ok_or_else(|| {
                    format!(
                        "{LOG_ENV}: unknown level {entry:?}; valid: \
                         error, warn, info, debug, off"
                    )
                })?;
            }
            Some((target, level)) => {
                let target = target.trim();
                if target.is_empty() {
                    return Err(format!("{LOG_ENV}: empty target in {entry:?}"));
                }
                let level = Level::from_name(level.trim()).ok_or_else(|| {
                    format!(
                        "{LOG_ENV}: unknown level {:?} for target {target:?}; \
                         valid: error, warn, info, debug, off",
                        level.trim()
                    )
                })?;
                filter.targets.push((target.to_string(), level));
            }
        }
    }
    Ok(filter)
}

static FILTER: OnceLock<Filter> = OnceLock::new();

/// Installs the process's log filter. Call it once, before the first
/// log line; a filter installed later, or a second one, is ignored.
pub fn install_filter(filter: Filter) {
    let _ = FILTER.set(filter);
}

fn active_filter() -> &'static Filter {
    FILTER.get_or_init(Filter::default)
}

/// Whether a log call at `level` for `target` would be emitted (guard
/// expensive field formatting behind this).
pub fn enabled(level: Level, target: &str) -> bool {
    active_filter().enabled(level, target)
}

/// Renders one log line (without the trailing newline). Pure, so the
/// schema is unit-testable; [`log`] adds the timestamp and emits.
pub fn render_line(
    ts_us: u64,
    level: Level,
    target: &str,
    message: &str,
    request_id: Option<&str>,
    fields: &[(&str, &str)],
) -> String {
    JsonObject::render(|o| {
        o.u64("ts_us", ts_us)
            .str("level", level.name())
            .str("target", target)
            .str("msg", message);
        if let Some(id) = request_id {
            o.str("request_id", id);
        }
        for (k, v) in fields {
            o.str(k, v);
        }
    })
}

/// Emits one structured line to stderr if the filter allows it. The
/// request id of the current trace scope (if any) is attached
/// automatically.
pub fn log(level: Level, target: &str, message: &str, fields: &[(&str, &str)]) {
    if !enabled(level, target) {
        return;
    }
    let ts_us = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0);
    let request_id = crate::span::current_request_id();
    let line = render_line(ts_us, level, target, message, request_id.as_deref(), fields);
    // One write_all per line keeps concurrent workers' lines whole.
    let mut err = std::io::stderr().lock();
    let _ = err.write_all(line.as_bytes());
    let _ = err.write_all(b"\n");
}

/// [`log`] at [`Level::Error`].
pub fn error(target: &str, message: &str, fields: &[(&str, &str)]) {
    log(Level::Error, target, message, fields);
}

/// [`log`] at [`Level::Warn`].
pub fn warn(target: &str, message: &str, fields: &[(&str, &str)]) {
    log(Level::Warn, target, message, fields);
}

/// [`log`] at [`Level::Info`].
pub fn info(target: &str, message: &str, fields: &[(&str, &str)]) {
    log(Level::Info, target, message, fields);
}

/// [`log`] at [`Level::Debug`].
pub fn debug(target: &str, message: &str, fields: &[(&str, &str)]) {
    log(Level::Debug, target, message, fields);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_filter_is_warn_and_up() {
        let f = Filter::default();
        assert!(f.enabled(Level::Error, "serve.http"));
        assert!(f.enabled(Level::Warn, "serve.http"));
        assert!(!f.enabled(Level::Info, "serve.http"));
        assert!(!f.enabled(Level::Debug, "serve.http"));
    }

    #[test]
    fn per_target_overrides_use_longest_prefix() {
        let f = parse_filter("warn,serve=info,serve.http=debug,harness=off").unwrap();
        assert!(f.enabled(Level::Debug, "serve.http"));
        assert!(f.enabled(Level::Debug, "serve.http.conn"));
        assert!(f.enabled(Level::Info, "serve.queue"));
        assert!(!f.enabled(Level::Debug, "serve.queue"));
        assert!(!f.enabled(Level::Error, "harness.cache"));
        // Prefixes match whole dotted segments only.
        assert!(!f.enabled(Level::Info, "serves.other"));
        assert!(f.enabled(Level::Warn, "other"));
    }

    #[test]
    fn off_silences_everything() {
        let f = parse_filter("off").unwrap();
        assert!(!f.enabled(Level::Error, "anything"));
    }

    #[test]
    fn malformed_filters_are_descriptive_errors() {
        assert!(parse_filter("loud").unwrap_err().contains("unknown level"));
        assert!(parse_filter("serve=silly").unwrap_err().contains("silly"));
        assert!(parse_filter("=info").unwrap_err().contains("empty target"));
    }

    #[test]
    fn lines_are_flat_json_with_escaped_fields() {
        let line = render_line(
            42,
            Level::Error,
            "serve.http",
            "bad \"bytes\"",
            Some("req-000000000007"),
            &[("status", "400"), ("detail", "line1\nline2")],
        );
        let obj = crate::json::parse_flat_object(&line).expect("log line is flat JSON");
        assert_eq!(obj.get("level").and_then(|v| v.as_str()), Some("error"));
        assert_eq!(
            obj.get("msg").and_then(|v| v.as_str()),
            Some("bad \"bytes\"")
        );
        assert_eq!(
            obj.get("request_id").and_then(|v| v.as_str()),
            Some("req-000000000007")
        );
        assert_eq!(
            obj.get("detail").and_then(|v| v.as_str()),
            Some("line1\nline2")
        );
    }

    #[test]
    fn request_id_is_omitted_outside_a_trace() {
        let line = render_line(0, Level::Warn, "t", "m", None, &[]);
        assert!(!line.contains("request_id"), "{line}");
    }
}
