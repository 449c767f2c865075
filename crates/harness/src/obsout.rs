//! Per-run observability artifacts.
//!
//! An instrumented run (a [`lookahead_obs::Recorder`] captured around
//! trace generation or a re-timing pass) is written as a directory of
//! three files:
//!
//! * `manifest.json` — the run name, git revision, configuration
//!   key/values, every metric, and the full stall-attribution matrix;
//! * `journal.jsonl` — the event journal, one JSON object per line;
//! * `trace.json` — the same journal as Chrome `trace_event` JSON,
//!   loadable directly in chrome://tracing or <https://ui.perfetto.dev>.
//!
//! The writers live in the harness (not the obs crate) because only
//! here do runs have names, configurations, and a place on disk.

use lookahead_obs::{json, Recorder};
use std::fmt::Write as _;
use std::fs;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Where one run's artifacts were written.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsArtifacts {
    /// The per-run directory (`<out>/<sanitized name>/`).
    pub dir: PathBuf,
    pub manifest: PathBuf,
    pub journal: PathBuf,
    pub chrome_trace: PathBuf,
}

/// The current git revision, or `"unknown"` outside a repository.
pub fn git_revision() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Replaces path-hostile characters so a run name like `DS-64/RC` maps
/// to one directory component.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| match c {
            '/' | '\\' | ':' | ' ' => '-',
            c => c,
        })
        .collect()
}

/// Writes `manifest.json`, `journal.jsonl`, and `trace.json` for one
/// recorded run into `<out_dir>/<sanitized name>/`.
///
/// `config` is a flat list of configuration key/values recorded
/// verbatim in the manifest; `extra` is a list of `(key, raw JSON)`
/// pairs spliced in unquoted (for pre-rendered values such as a
/// breakdown object).
///
/// # Errors
///
/// Propagates any filesystem error.
pub fn write_run_artifacts(
    out_dir: &Path,
    name: &str,
    config: &[(&str, String)],
    extra: &[(&str, String)],
    rec: &Recorder,
) -> io::Result<ObsArtifacts> {
    let dir = out_dir.join(sanitize(name));
    fs::create_dir_all(&dir)?;
    let journal = dir.join("journal.jsonl");
    let chrome_trace = dir.join("trace.json");
    let manifest = dir.join("manifest.json");

    let mut w = BufWriter::new(fs::File::create(&journal)?);
    rec.journal.to_jsonl(&mut w)?;
    w.flush()?;

    let mut w = BufWriter::new(fs::File::create(&chrome_trace)?);
    rec.journal.to_chrome_trace(&mut w)?;
    w.flush()?;

    let mut m = String::from("{");
    let _ = write!(m, "\"run\":{}", json::quote(name));
    let _ = write!(m, ",\"git_rev\":{}", json::quote(&git_revision()));
    m.push_str(",\"config\":{");
    for (i, (k, v)) in config.iter().enumerate() {
        if i > 0 {
            m.push(',');
        }
        let _ = write!(m, "{}:{}", json::quote(k), json::quote(v));
    }
    m.push('}');
    for (k, raw) in extra {
        let _ = write!(m, ",{}:{raw}", json::quote(k));
    }
    let _ = write!(
        m,
        ",\"journal\":{{\"events\":{},\"dropped\":{},\"jsonl\":\"journal.jsonl\",\"chrome_trace\":\"trace.json\"}}",
        rec.journal.len(),
        rec.journal.dropped()
    );
    let _ = write!(m, ",\"metrics\":{}", rec.metrics.to_json());
    let _ = write!(m, ",\"attribution\":{}", rec.attribution.to_json());
    m.push('}');
    fs::write(&manifest, m)?;

    Ok(ObsArtifacts {
        dir,
        manifest,
        journal,
        chrome_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookahead_obs::{Event, EventKind, StallCause, StallClass};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("lookahead-obsout-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn artifacts_are_written_and_parse() {
        let out = temp_dir("roundtrip");
        let mut rec = Recorder::new(0);
        rec.metrics.inc("core.ds.retired", 42);
        rec.event(5, EventKind::Fetch { pc: 7 });
        for t in 6..10 {
            rec.stall_cycle(t, 7, StallClass::Read, StallCause::ReadMiss);
        }
        rec.flush_stall();
        let art = write_run_artifacts(
            &out,
            "LU DS-64/RC",
            &[("window", "64".into())],
            &[("cycles", "123".into())],
            &rec,
        )
        .unwrap();
        assert!(art.dir.ends_with("LU-DS-64-RC"));
        let manifest = fs::read_to_string(&art.manifest).unwrap();
        assert!(manifest.contains("\"core.ds.retired\":42"));
        assert!(manifest.contains("\"cycles\":123"));
        assert!(manifest.contains("\"window\":\"64\""));
        // The journal reloads through the obs reader.
        let jsonl = fs::read(&art.journal).unwrap();
        let back = lookahead_obs::EventJournal::from_jsonl(jsonl.as_slice()).unwrap();
        assert_eq!(back.len(), 2, "fetch + coalesced stall");
        assert!(back
            .iter()
            .any(|e| matches!(e.kind, EventKind::Stall { dur: 4, .. })));
        // The chrome trace is balanced JSON.
        let trace = fs::read_to_string(&art.chrome_trace).unwrap();
        assert_eq!(trace.matches('{').count(), trace.matches('}').count());
        let _ = fs::remove_dir_all(&out);
    }

    #[test]
    fn empty_recorder_still_writes_manifest() {
        let out = temp_dir("empty");
        let rec = Recorder::new(0);
        let art = write_run_artifacts(&out, "empty", &[], &[], &rec).unwrap();
        let manifest = fs::read_to_string(&art.manifest).unwrap();
        assert!(manifest.contains("\"metrics\":{}"));
        assert!(manifest.contains("\"git_rev\":"));
        let _ = fs::remove_dir_all(&out);
    }

    #[test]
    fn events_list_export() {
        // push directly with distinct proc ids, as the multiprocessor
        // simulation does.
        let out = temp_dir("procs");
        let mut rec = Recorder::new(0);
        for p in 0..3u32 {
            rec.journal.push(Event {
                t: p as u64,
                proc: p,
                kind: EventKind::WbFull,
            });
        }
        let art = write_run_artifacts(&out, "procs", &[], &[], &rec).unwrap();
        let trace = fs::read_to_string(&art.chrome_trace).unwrap();
        assert!(trace.contains("\"tid\":2"));
        let _ = fs::remove_dir_all(&out);
    }
}
