//! Golden equivalence tests for the `lookahead` driver.
//!
//! The driver, the trace cache and the parallel re-timing pool must
//! all be *presentation-invariant*: cold vs. warm cache, serial vs.
//! parallel, one report per process vs. many — the bytes on stdout
//! are identical in every combination. These tests run the real
//! binaries (via `CARGO_BIN_EXE_*`) at the small size tier on a
//! reduced app set so they stay fast.

use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

/// The fast configuration shared by every test: small tier, four
/// processors, two applications.
const FAST: [(&str, &str); 3] = [
    ("LOOKAHEAD_SMALL", "1"),
    ("LOOKAHEAD_PROCS", "4"),
    ("LOOKAHEAD_APPS", "LU,MP3D"),
];

fn command(bin: &str, args: &[&str], envs: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    // Every harness knob cleared, so the ambient shell can't leak
    // configuration into the goldens.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("LOOKAHEAD_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(FAST.iter().copied());
    cmd.envs(envs.iter().copied());
    cmd
}

fn run(bin: &str, args: &[&str], envs: &[(&str, &str)]) -> Output {
    command(bin, args, envs).output().expect("binary runs")
}

fn assert_no_panic(out: &Output) {
    for stream in [&out.stdout, &out.stderr] {
        let text = String::from_utf8_lossy(stream);
        assert!(!text.contains("panicked"), "{text}");
    }
}

fn stdout_of(out: &Output) -> &str {
    assert!(
        out.status.success(),
        "exit {:?}, stderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    std::str::from_utf8(&out.stdout).expect("stdout is utf-8")
}

/// A scratch directory under the system temp directory, removed when
/// the guard drops, so a test leaves nothing behind even if it fails.
struct TempDir(PathBuf);

impl std::ops::Deref for TempDir {
    type Target = Path;

    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn temp_dir(tag: &str) -> TempDir {
    let dir = std::env::temp_dir().join(format!("lktr-golden-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    TempDir(dir)
}

#[test]
fn warm_cache_reproduces_cold_output_and_reports_hits() {
    let driver = env!("CARGO_BIN_EXE_lookahead");
    let cache = temp_dir("warm");
    let cache_arg = format!("--cache-dir={}", cache.display());

    let cold = run(driver, &["summary", &cache_arg], &[]);
    let warm = run(driver, &["summary", &cache_arg], &[]);

    assert_eq!(
        stdout_of(&cold),
        stdout_of(&warm),
        "a cache hit must not change a single output byte"
    );

    let cold_err = String::from_utf8_lossy(&cold.stderr);
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        cold_err.contains("trace cache: 0 hits, 2 misses"),
        "cold run should miss twice (one per app): {cold_err}"
    );
    assert!(
        warm_err.contains("trace cache: 2 hits, 0 misses"),
        "warm run must serve both apps from cache: {warm_err}"
    );
}

/// Every report's bytes, pinned on each path the driver offers.
///
/// `golden_all_reports.txt` is the stdout of
///
/// ```text
/// LOOKAHEAD_SMALL=1 LOOKAHEAD_PROCS=4 LOOKAHEAD_APPS=LU,MP3D lookahead all --no-cache
/// ```
///
/// Regenerate it with that command only when a deliberate modeling
/// change shifts the numbers.
#[test]
fn every_report_matches_the_golden_on_every_path() {
    let driver = env!("CARGO_BIN_EXE_lookahead");
    let golden = include_str!("golden_all_reports.txt");
    let cache = temp_dir("all");
    let cache_arg = format!("--cache-dir={}", cache.display());

    let uncached = run(driver, &["all", "--no-cache"], &[]);
    let cold = run(driver, &["all", &cache_arg], &[]);
    let warm = run(driver, &["all", &cache_arg], &[]);
    for (path, out) in [
        ("--no-cache", &uncached),
        ("cold cache", &cold),
        ("warm cache", &warm),
    ] {
        assert!(
            stdout_of(out) == golden,
            "{path}: stdout differs from the golden"
        );
        assert_no_panic(out);
    }
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_err.contains("trace cache: 22 hits, 0 misses"),
        "every cached generation must hit on the warm run: {warm_err}"
    );
}

#[test]
fn parallel_retiming_is_byte_identical_to_serial() {
    let driver = env!("CARGO_BIN_EXE_lookahead");
    let cache = temp_dir("jobs");
    let cache_arg = format!("--cache-dir={}", cache.display());

    let serial = run(driver, &["figure3", "summary", &cache_arg, "--jobs=1"], &[]);
    let parallel = run(driver, &["figure3", "summary", &cache_arg, "--jobs=8"], &[]);

    assert_eq!(
        stdout_of(&serial),
        stdout_of(&parallel),
        "the worker pool must preserve submission order exactly"
    );
}

#[test]
fn driver_output_is_the_concatenation_of_single_report_runs() {
    let driver = env!("CARGO_BIN_EXE_lookahead");
    let cache = temp_dir("equiv");
    let cache_env = cache.display().to_string();
    let cache_arg = format!("--cache-dir={}", cache.display());

    // The single-report runs take their cache from the environment
    // knob, the combined run from the flag. Sharing one directory also
    // proves an archive written by one process is readable by another.
    let combined = run(driver, &["summary", "figure3", &cache_arg], &[]);
    let cache_knob = [("LOOKAHEAD_CACHE", cache_env.as_str())];
    let summary = run(driver, &["summary"], &cache_knob);
    let figure3 = run(driver, &["figure3"], &cache_knob);

    let expected = format!("{}{}", stdout_of(&summary), stdout_of(&figure3));
    assert_eq!(
        stdout_of(&combined),
        expected,
        "a multi-report run must print the exact concatenation of single-report runs"
    );
    assert!(
        String::from_utf8_lossy(&figure3.stderr).contains("trace cache: 2 hits, 0 misses"),
        "the single-report runs must read the combined run's archives"
    );
}

#[test]
fn cache_can_be_disabled() {
    let driver = env!("CARGO_BIN_EXE_lookahead");
    let cache = temp_dir("disabled");
    let cache_env = cache.display().to_string();

    let out = run(
        driver,
        &["summary", "--no-cache"],
        &[("LOOKAHEAD_CACHE", cache_env.as_str())],
    );
    let _ = stdout_of(&out);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("trace cache:"),
        "--no-cache must win over LOOKAHEAD_CACHE: {stderr}"
    );
    assert!(!cache.exists(), "no cache directory may be created");
}

#[test]
fn unparsable_procs_knob_fails_fast() {
    let driver = env!("CARGO_BIN_EXE_lookahead");
    let out = run(driver, &["summary"], &[("LOOKAHEAD_PROCS", "abc")]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("LOOKAHEAD_PROCS"),
        "the error must name the knob: {stderr}"
    );
}

#[test]
fn malformed_jobs_fails_fast_naming_the_knob() {
    let driver = env!("CARGO_BIN_EXE_lookahead");
    for (out, knob) in [
        (
            run(driver, &["summary"], &[("LOOKAHEAD_JOBS", "abc")]),
            "LOOKAHEAD_JOBS",
        ),
        (run(driver, &["--jobs", "0", "summary"], &[]), "--jobs"),
        // The flag wins over a valid environment value.
        (
            run(driver, &["--jobs=x", "summary"], &[("LOOKAHEAD_JOBS", "2")]),
            "--jobs",
        ),
    ] {
        assert_eq!(out.status.code(), Some(2), "{knob}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: {knob} must be a positive integer")),
            "the error must name {knob}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

#[test]
fn unknown_app_in_apps_knob_fails_fast() {
    let driver = env!("CARGO_BIN_EXE_lookahead");
    let out = run(driver, &["summary"], &[("LOOKAHEAD_APPS", "LU,FFT")]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("LOOKAHEAD_APPS") && stderr.contains("FFT"),
        "the error must name the knob and the bad app: {stderr}"
    );
}

#[test]
fn unknown_report_name_fails_with_usage() {
    let driver = env!("CARGO_BIN_EXE_lookahead");
    for (args, word) in [
        (&["figure99"][..], "figure99"),
        (&["summary", "--scheduler", "flat"], "--scheduler"),
    ] {
        let out = run(driver, args, &[]);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(word) && stderr.contains("usage"),
            "{stderr}"
        );
    }
}

#[test]
fn bench_without_a_known_subcommand_fails_with_usage() {
    // `lookahead bench` is retired with every subcommand it had: each
    // form is an unknown report.
    let driver = env!("CARGO_BIN_EXE_lookahead");
    for args in [&["bench"][..], &["bench", "generation"], &["bench", "obs"]] {
        let out = run(driver, args, &[]);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("\"bench\"") && stderr.contains("usage"),
            "the error must name bench and print the usage: {stderr}"
        );
        assert_no_panic(&out);
    }
}

#[test]
fn trace_tool_ends_quietly_when_its_reader_goes_away() {
    // The listing is far larger than a pipe holds, so the tool is still
    // writing when the reader hangs up after one line, as `| head -1`.
    let tool = env!("CARGO_BIN_EXE_trace_tool");
    let mut child = command(tool, &["dump", "LU", "5000"], &[])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("trace_tool starts");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(!first.is_empty(), "the listing starts");
    let mut stderr = String::new();
    child
        .stderr
        .take()
        .unwrap()
        .read_to_string(&mut stderr)
        .unwrap();
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn help_ends_quietly_when_its_reader_is_gone() {
    let (driver, tool, loadgen) = (
        env!("CARGO_BIN_EXE_lookahead"),
        env!("CARGO_BIN_EXE_trace_tool"),
        env!("CARGO_BIN_EXE_loadgen"),
    );
    for (bin, args) in [
        (driver, &["--help"][..]),
        (driver, &["serve", "--help"]),
        (driver, &["query", "--help"]),
        (tool, &["--help"]),
        (loadgen, &["--help"]),
    ] {
        let mut child = command(bin, args, &[])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary starts");
        // The reader is gone before the usage is written.
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}");
        assert_no_panic(&out);
    }
}

#[test]
fn failed_workload_self_check_exits_2_naming_the_configuration() {
    let driver = env!("CARGO_BIN_EXE_lookahead");
    // LOCUS at the small tier loses more than 1% of its racy cost
    // updates at 40 processors, so its own result check fails. That is
    // a configuration error on both the per-report path (table3) and
    // the DAG sweep path (figure3 summary), not a crash. The
    // compiler-scheduled MP3D program fails its check at 16 processors,
    // where the canonical one still passes; `all` reaches it only after
    // fifteen other reports, none of which may print.
    for (reports, app, procs, program) in [
        (&["table3"][..], "LOCUS", "40", ""),
        (&["figure3", "summary"], "LOCUS", "40", ""),
        (&["sched"], "MP3D", "16", "(compiler-scheduled program)"),
        (&["all"], "MP3D", "16", "(compiler-scheduled program)"),
    ] {
        let mut args = reports.to_vec();
        args.push("--no-cache");
        let out = run(
            driver,
            &args,
            &[("LOOKAHEAD_APPS", app), ("LOOKAHEAD_PROCS", procs)],
        );
        assert_eq!(out.status.code(), Some(2), "{reports:?}");
        assert!(
            out.stdout.is_empty(),
            "{reports:?}: no report may print before the failure:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: {app}"))
                && stderr.contains(program)
                && stderr.contains("small")
                && stderr.contains(&format!("{procs} processors")),
            "the error must name the app, the program, the tier and the processor count: \
             {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
}

/// `--tier` reaches the observability manifest: a generation at the
/// small tier is recorded as small even with no `LOOKAHEAD_SMALL`.
#[test]
fn obs_manifest_records_the_tier_the_run_used() {
    let driver = env!("CARGO_BIN_EXE_lookahead");
    let dir = temp_dir("obs-tier");
    let obs_dir = dir.display().to_string();
    // `LOOKAHEAD_APPS=LU lookahead table1 --tier small --no-cache
    // --obs-out DIR`, with no other knob set.
    let mut cmd = command(
        driver,
        &[
            "table1",
            "--tier",
            "small",
            "--no-cache",
            "--obs-out",
            &obs_dir,
        ],
        &[("LOOKAHEAD_APPS", "LU")],
    );
    cmd.env_remove("LOOKAHEAD_SMALL")
        .env_remove("LOOKAHEAD_PROCS");
    let out = cmd.output().expect("binary runs");
    let _ = stdout_of(&out);
    assert_no_panic(&out);
    let manifest = std::fs::read_to_string(dir.join("generate-LU").join("manifest.json"))
        .expect("the generation wrote its manifest");
    for kv in [r#""small":"true""#, r#""paper":"false""#] {
        assert!(manifest.contains(kv), "manifest lacks {kv}: {manifest}");
    }
}

#[test]
fn two_processes_filling_one_cache_directory_agree() {
    let driver = env!("CARGO_BIN_EXE_lookahead");
    let cache = temp_dir("race");
    let cache_arg = format!("--cache-dir={}", cache.display());

    // Both start on an empty directory, so both may generate and
    // rename the same two archives into place.
    let racers: Vec<_> = (0..2)
        .map(|_| {
            command(driver, &["summary", &cache_arg], &[])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("binary starts")
        })
        .collect();
    let outs: Vec<Output> = racers
        .into_iter()
        .map(|c| c.wait_with_output().expect("binary runs"))
        .collect();
    let uncached = run(driver, &["summary", "--no-cache"], &[]);
    for out in &outs {
        assert_eq!(stdout_of(out), stdout_of(&uncached));
        assert_no_panic(out);
    }

    let warm = run(driver, &["summary", &cache_arg], &[]);
    assert_eq!(stdout_of(&warm), stdout_of(&uncached));
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_err.contains("trace cache: 2 hits, 0 misses"),
        "the racers must leave two whole archives behind: {warm_err}"
    );

    let mut names: Vec<String> = std::fs::read_dir(&*cache)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    assert_eq!(names.len(), 2, "{names:?}");
    assert!(
        names
            .iter()
            .all(|n| n.ends_with(".lktr") && !n.contains(".tmp")),
        "no temporary file may be left behind: {names:?}"
    );
}

#[test]
fn trace_tool_retimes_a_saved_archive_under_its_own_program() {
    let tool = env!("CARGO_BIN_EXE_trace_tool");
    let dir = temp_dir("trace-tool");
    std::fs::create_dir_all(&*dir).unwrap();
    let file = dir.join("lu.lktr").display().to_string();
    const LU: &str = "BASE:     total=14969 busy=5714 sync=3424 read=4116 write=1715\n\
                      DS-64/RC: total=8859 busy=5716 sync=2826 read=317 write=0\n\
                      normalized: 59.2\n";

    let save = run(tool, &["save", "LU", &file], &[]);
    let _ = stdout_of(&save);
    let retime = run(tool, &["retime", &file], &[]);
    assert_eq!(stdout_of(&retime), LU);

    // The archive names its application; a second one is a usage
    // error, never a re-timing under another program.
    let wrong = run(tool, &["retime", &file, "MP3D"], &[]);
    assert_eq!(wrong.status.code(), Some(2));
    assert!(wrong.stdout.is_empty());

    // Bytes slipped in between the end sentinel and the trailer are
    // found by the validation pass, not trusted.
    let mut bytes = std::fs::read(&file).unwrap();
    let trailer_len = u32::from_le_bytes(bytes[bytes.len() - 4..].try_into().unwrap()) as usize;
    let trailer_start = bytes.len() - trailer_len - 12;
    bytes.splice(trailer_start..trailer_start, [0u8; 14]);
    let gap = dir.join("gap.lktr").display().to_string();
    std::fs::write(&gap, bytes).unwrap();
    let gapped = run(tool, &["retime", &gap], &[]);
    assert_eq!(gapped.status.code(), Some(1));
    assert!(gapped.stdout.is_empty());
    let stderr = String::from_utf8_lossy(&gapped.stderr);
    assert!(stderr.contains("end sentinel offset"), "{stderr}");

    // A file in the retired bare-trace layout is refused by version.
    let v1 = dir.join("v1.lktr").display().to_string();
    std::fs::write(&v1, b"LKTR\x01\0\0\0\0\0\0\0\0").unwrap();
    let old = run(tool, &["retime", &v1], &[]);
    assert_eq!(old.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&old.stderr);
    assert!(stderr.contains("version 1"), "{stderr}");

    // Any trace-cache file re-times the same way.
    let cache = dir.join("cache");
    let driver = env!("CARGO_BIN_EXE_lookahead");
    let fill = run(
        driver,
        &["summary", &format!("--cache-dir={}", cache.display())],
        &[],
    );
    let _ = stdout_of(&fill);
    let cached = std::fs::read_dir(&*cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.file_name().unwrap().to_string_lossy().starts_with("LU-"))
        .expect("the driver cached LU");
    let from_cache = run(tool, &["retime", &cached.display().to_string()], &[]);
    assert_eq!(stdout_of(&from_cache), LU);

    for out in [&save, &retime, &wrong, &gapped, &old, &from_cache] {
        assert_no_panic(out);
    }
}
