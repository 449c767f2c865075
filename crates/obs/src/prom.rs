//! Prometheus text-exposition (format 0.0.4) rendering of a
//! [`MetricsRegistry`], plus a strict checker for the produced text.
//!
//! The registry's dotted paths become underscore-separated metric
//! names (`serve.http.requests` → `serve_http_requests_total`);
//! counters get the conventional `_total` suffix, gauges render
//! plainly, and the log2 [`Histogram`](crate::metrics::Histogram)s render as *cumulative*
//! `_bucket{le="..."}` series with `_sum` and `_count` — each log2
//! bucket's inclusive upper bound (`2^i - 1`) becomes its `le` label,
//! so any Prometheus-compatible scraper can compute quantile estimates
//! without knowing the bucketing scheme.
//!
//! [`check_exposition`] validates text in this format — name charset,
//! one `# TYPE` per family before its samples, label syntax, bucket
//! monotonicity, `+Inf` consistency, duplicate series — and backs both
//! the unit tests and the `trace_tool promcheck` CI gate, so the
//! checker cannot drift from the renderer.

use crate::metrics::{bucket_range, Metric, MetricsRegistry};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Maps a dotted registry path onto a legal Prometheus metric name:
/// dots and other illegal characters become `_`, and a leading digit
/// is prefixed with `_`.
pub fn metric_name(path: &str) -> String {
    let mut name = String::with_capacity(path.len());
    for (i, c) in path.chars().enumerate() {
        let legal =
            c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            name.push('_');
            name.push(c);
        } else if legal {
            name.push(c);
        } else {
            name.push('_');
        }
    }
    if name.is_empty() {
        name.push('_');
    }
    name
}

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Renders `registry` in the Prometheus text exposition format.
/// Families appear in registry (path) order, so the output is
/// deterministic for a given registry state.
pub fn render(registry: &MetricsRegistry) -> String {
    let mut out = String::new();
    for (path, metric) in registry.iter() {
        let name = metric_name(path);
        match metric {
            Metric::Counter(v) => {
                let name = if name.ends_with("_total") {
                    name
                } else {
                    format!("{name}_total")
                };
                let _ = writeln!(out, "# TYPE {name} counter");
                let _ = writeln!(out, "{name} {v}");
            }
            Metric::Gauge(v) => {
                let _ = writeln!(out, "# TYPE {name} gauge");
                let _ = writeln!(out, "{name} {v}");
            }
            Metric::Histogram(h) => {
                let _ = writeln!(out, "# TYPE {name} histogram");
                let mut cumulative = 0u64;
                let top = h
                    .nonzero_buckets()
                    .map(|(i, _)| i)
                    .max()
                    .unwrap_or(0)
                    .min(63);
                for i in 0..=top {
                    cumulative += h.bucket(i);
                    // Inclusive upper bound of the half-open log2 range.
                    let le = bucket_range(i).1.expect("buckets 0..=63 are bounded") - 1;
                    let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                }
                let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                let _ = writeln!(out, "{name}_sum {}", h.sum());
                let _ = writeln!(out, "{name}_count {}", h.count());
            }
        }
    }
    out
}

/// What [`check_exposition`] found in a valid exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpositionSummary {
    /// `# TYPE` families declared.
    pub families: usize,
    /// Sample lines.
    pub samples: usize,
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Splits `name{labels} value` into parts; labels may be absent.
fn split_sample(line: &str) -> Result<(String, String, String), String> {
    if let Some(open) = line.find('{') {
        let close = line
            .rfind('}')
            .ok_or_else(|| format!("unclosed label set: {line:?}"))?;
        if close < open {
            return Err(format!("malformed label set: {line:?}"));
        }
        let name = line[..open].to_string();
        let labels = line[open + 1..close].to_string();
        let value = line[close + 1..].trim().to_string();
        Ok((name, labels, value))
    } else {
        let mut parts = line.split_whitespace();
        let name = parts
            .next()
            .ok_or_else(|| format!("empty sample line: {line:?}"))?;
        let value = parts
            .next()
            .ok_or_else(|| format!("sample without a value: {line:?}"))?;
        if parts.next().is_some() {
            // A third token would be a timestamp; this renderer never
            // emits one, so treat it as an error to keep output tight.
            return Err(format!("unexpected trailing tokens: {line:?}"));
        }
        Ok((name.to_string(), String::new(), value.to_string()))
    }
}

/// Parses a label set, validating names and escape sequences.
fn parse_labels(labels: &str) -> Result<Vec<(String, String)>, String> {
    let mut out = Vec::new();
    let mut rest = labels.trim();
    while !rest.is_empty() {
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=': {rest:?}"))?;
        let key = rest[..eq].trim();
        if !valid_name(key) {
            return Err(format!("bad label name {key:?}"));
        }
        let after = &rest[eq + 1..];
        if !after.starts_with('"') {
            return Err(format!("unquoted label value in {rest:?}"));
        }
        // Find the closing quote, honoring backslash escapes.
        let bytes = after.as_bytes();
        let mut i = 1;
        let mut value = String::new();
        loop {
            match bytes.get(i) {
                None => return Err(format!("unterminated label value in {rest:?}")),
                Some(b'"') => break,
                Some(b'\\') => match bytes.get(i + 1) {
                    Some(b'\\') => {
                        value.push('\\');
                        i += 2;
                    }
                    Some(b'"') => {
                        value.push('"');
                        i += 2;
                    }
                    Some(b'n') => {
                        value.push('\n');
                        i += 2;
                    }
                    other => return Err(format!("bad escape \\{other:?} in {rest:?}")),
                },
                Some(_) => {
                    // Multibyte-safe: push the whole char.
                    let c = after[i..].chars().next().expect("in bounds");
                    value.push(c);
                    i += c.len_utf8();
                }
            }
        }
        out.push((key.to_string(), value));
        rest = after[i + 1..].trim_start();
        if let Some(stripped) = rest.strip_prefix(',') {
            rest = stripped.trim_start();
        } else if !rest.is_empty() {
            return Err(format!("expected ',' between labels, got {rest:?}"));
        }
    }
    Ok(out)
}

fn parse_value(value: &str) -> Result<f64, String> {
    match value {
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        v => v
            .parse::<f64>()
            .map_err(|_| format!("unparseable sample value {v:?}")),
    }
}

/// Validates Prometheus exposition text as produced by [`render`].
///
/// Checks: every sample belongs to a family declared by exactly one
/// `# TYPE` line appearing first; legal metric and label names; legal
/// escape sequences; parseable values; no duplicate series; and for
/// histograms, `le` buckets cumulative (non-decreasing), a `+Inf`
/// bucket present, and `+Inf == _count`.
///
/// # Errors
///
/// Returns a message naming the first offending line or family.
pub fn check_exposition(text: &str) -> Result<ExpositionSummary, String> {
    #[derive(Default)]
    struct HistState {
        buckets: Vec<(f64, f64)>,
        inf: Option<f64>,
        count: Option<f64>,
        sum_seen: bool,
    }
    let mut families: BTreeMap<String, String> = BTreeMap::new();
    let mut hists: BTreeMap<String, HistState> = BTreeMap::new();
    let mut seen: BTreeMap<String, ()> = BTreeMap::new();
    let mut samples = 0usize;

    let family_of = |families: &BTreeMap<String, String>, name: &str| -> Option<(String, String)> {
        if let Some(kind) = families.get(name) {
            return Some((name.to_string(), kind.clone()));
        }
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                if families.get(base).is_some_and(|k| k == "histogram") {
                    return Some((base.to_string(), "histogram".to_string()));
                }
            }
        }
        None
    };

    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim_end();
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            if parts.next() != Some("TYPE") {
                continue; // HELP or free comments: ignored.
            }
            let name = parts
                .next()
                .ok_or_else(|| at("TYPE without a name".into()))?;
            let kind = parts
                .next()
                .ok_or_else(|| at("TYPE without a kind".into()))?;
            if !valid_name(name) {
                return Err(at(format!("illegal metric name {name:?}")));
            }
            if !matches!(
                kind,
                "counter" | "gauge" | "histogram" | "summary" | "untyped"
            ) {
                return Err(at(format!("unknown TYPE kind {kind:?}")));
            }
            if families
                .insert(name.to_string(), kind.to_string())
                .is_some()
            {
                return Err(at(format!("duplicate TYPE for {name}")));
            }
            continue;
        }

        let (name, labels, value) = split_sample(line).map_err(at)?;
        if !valid_name(&name) {
            return Err(at(format!("illegal metric name {name:?}")));
        }
        let labels = parse_labels(&labels).map_err(at)?;
        let value = parse_value(&value).map_err(at)?;
        let series = format!("{name}{labels:?}");
        if seen.insert(series, ()).is_some() {
            return Err(at(format!("duplicate series for {name}")));
        }
        let (base, kind) = family_of(&families, &name)
            .ok_or_else(|| at(format!("sample {name} has no preceding # TYPE")))?;
        samples += 1;

        if kind == "counter" && value < 0.0 {
            return Err(at(format!("negative counter {name}")));
        }
        if kind == "histogram" {
            let st = hists.entry(base.clone()).or_default();
            if name.ends_with("_bucket") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.as_str())
                    .ok_or_else(|| at(format!("{name} bucket without le label")))?;
                if le == "+Inf" {
                    st.inf = Some(value);
                } else {
                    let bound = le
                        .parse::<f64>()
                        .map_err(|_| at(format!("unparseable le {le:?}")))?;
                    st.buckets.push((bound, value));
                }
            } else if name.ends_with("_count") {
                st.count = Some(value);
            } else if name.ends_with("_sum") {
                st.sum_seen = true;
            }
        }
    }

    for (base, st) in &hists {
        let mut prev_bound = f64::NEG_INFINITY;
        let mut prev_cum = 0.0;
        for &(bound, cum) in &st.buckets {
            if bound <= prev_bound {
                return Err(format!("{base}: le bounds not increasing at {bound}"));
            }
            if cum < prev_cum {
                return Err(format!(
                    "{base}: bucket counts not cumulative ({cum} after {prev_cum})"
                ));
            }
            prev_bound = bound;
            prev_cum = cum;
        }
        let inf = st
            .inf
            .ok_or_else(|| format!("{base}: histogram without a +Inf bucket"))?;
        if inf < prev_cum {
            return Err(format!("{base}: +Inf bucket below the last finite bucket"));
        }
        match st.count {
            Some(count) if count == inf => {}
            Some(count) => {
                return Err(format!("{base}: +Inf bucket {inf} != _count {count}"));
            }
            None => return Err(format!("{base}: histogram without _count")),
        }
        if !st.sum_seen {
            return Err(format!("{base}: histogram without _sum"));
        }
    }

    Ok(ExpositionSummary {
        families: families.len(),
        samples,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_mangled_onto_the_legal_charset() {
        assert_eq!(metric_name("serve.http.requests"), "serve_http_requests");
        assert_eq!(metric_name("a-b c.d"), "a_b_c_d");
        assert_eq!(metric_name("9lives"), "_9lives");
        assert_eq!(
            metric_name("core.ds.rob_occupancy"),
            "core_ds_rob_occupancy"
        );
    }

    #[test]
    fn label_values_escape_quotes_backslashes_newlines() {
        assert_eq!(escape_label_value("plain"), "plain");
        assert_eq!(escape_label_value("a\"b"), "a\\\"b");
        assert_eq!(escape_label_value("a\\b"), "a\\\\b");
        assert_eq!(escape_label_value("a\nb"), "a\\nb");
        // And the checker reads them back.
        let parsed = parse_labels(&format!("le=\"{}\"", escape_label_value("a\"\\\nb"))).unwrap();
        assert_eq!(parsed[0].1, "a\"\\\nb");
    }

    #[test]
    fn counters_gauges_and_histograms_render_and_validate() {
        let mut r = MetricsRegistry::new();
        r.inc("serve.http.requests", 3);
        r.gauge_set("serve.queue.depth", -2);
        for v in [0u64, 1, 2, 3, 100, 5000] {
            r.observe("serve.http.latency_micros", v);
        }
        let text = render(&r);
        assert!(text.contains("# TYPE serve_http_requests_total counter"));
        assert!(text.contains("serve_http_requests_total 3"));
        assert!(text.contains("serve_queue_depth -2"));
        assert!(text.contains("serve_http_latency_micros_bucket{le=\"0\"} 1"));
        assert!(text.contains("serve_http_latency_micros_bucket{le=\"+Inf\"} 6"));
        assert!(text.contains("serve_http_latency_micros_count 6"));
        assert!(text.contains("serve_http_latency_micros_sum 5106"));
        let summary = check_exposition(&text).expect("renderer output must validate");
        assert_eq!(summary.families, 3);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let mut r = MetricsRegistry::new();
        // Samples landing in log2 buckets 1 (value 1), 2 (2–3), 4 (8–15).
        for v in [1u64, 2, 3, 9] {
            r.observe("h", v);
        }
        let text = render(&r);
        // Cumulative counts at the inclusive upper bounds.
        assert!(text.contains("h_bucket{le=\"0\"} 0"), "{text}");
        assert!(text.contains("h_bucket{le=\"1\"} 1"), "{text}");
        assert!(text.contains("h_bucket{le=\"3\"} 3"), "{text}");
        assert!(text.contains("h_bucket{le=\"7\"} 3"), "{text}");
        assert!(text.contains("h_bucket{le=\"15\"} 4"), "{text}");
        assert!(text.contains("h_bucket{le=\"+Inf\"} 4"), "{text}");
        check_exposition(&text).unwrap();
    }

    #[test]
    fn empty_registry_and_empty_histogram_are_valid() {
        assert_eq!(
            check_exposition(&render(&MetricsRegistry::new())).unwrap(),
            ExpositionSummary {
                families: 0,
                samples: 0
            }
        );
        let mut r = MetricsRegistry::new();
        r.observe_n("h", 0, 0); // registers the histogram, no samples
        let text = render(&r);
        assert!(text.contains("h_bucket{le=\"+Inf\"} 0"));
        check_exposition(&text).unwrap();
    }

    #[test]
    fn checker_rejects_broken_expositions() {
        for (text, needle) in [
            ("metric 1\n", "no preceding # TYPE"),
            ("# TYPE m counter\nm{ 1\n", "unclosed label"),
            ("# TYPE m counter\nm -1\n", "negative counter"),
            ("# TYPE m counter\nm 1\nm 2\n", "duplicate series"),
            (
                "# TYPE m counter\n# TYPE m counter\nm 1\n",
                "duplicate TYPE",
            ),
            ("# TYPE m counter\nm one\n", "unparseable sample value"),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"3\"} 1\n\
                 h_bucket{le=\"+Inf\"} 2\nh_sum 2\nh_count 2\n",
                "not cumulative",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
                "without a +Inf",
            ),
            (
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 2\nh_count 3\n",
                "!= _count",
            ),
        ] {
            let err = check_exposition(text).unwrap_err();
            assert!(err.contains(needle), "{text:?} => {err}");
        }
    }

    #[test]
    fn merge_of_shards_is_deterministic() {
        // The same totals distributed differently across shards must
        // render byte-identical expositions.
        let build = |split: &[(u64, u64)]| {
            let shards = crate::metrics::ShardedMetrics::new(4);
            for (i, &(reqs, lat)) in split.iter().enumerate() {
                shards.with_shard(i, |r| {
                    r.inc("serve.http.requests", reqs);
                    r.observe("serve.http.latency_micros", lat);
                    r.gauge_set("serve.queue.depth", 5);
                });
            }
            render(&shards.merged())
        };
        let a = build(&[(3, 100), (1, 900), (0, 7), (2, 100)]);
        let b = build(&[(0, 900), (2, 100), (3, 100), (1, 7)]);
        assert_eq!(a, b);
        check_exposition(&a).unwrap();
        assert!(a.contains("serve_http_requests_total 6"));
        assert!(a.contains("serve_http_latency_micros_count 4"));
    }
}
