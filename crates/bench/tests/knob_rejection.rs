//! Every binary checks the whole environment against the knob table
//! (`lookahead_bench::knobs`) before any work. A malformed value of
//! any variable, even one this binary does not read or a flag
//! overrides, and a `LOOKAHEAD_*` name the table does not hold, exit
//! with code 2, name the variable on stderr and print nothing on
//! stdout. Every `--help` names each variable its binary reads.

use lookahead_bench::knobs::{Bin, KNOBS};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// The fast configuration the goldens use; each case overrides one
/// variable, so a knob that is not rejected still runs briefly.
const FAST: [(&str, &str); 3] = [
    ("LOOKAHEAD_SMALL", "1"),
    ("LOOKAHEAD_PROCS", "4"),
    ("LOOKAHEAD_APPS", "LU,MP3D"),
];

/// One malformed value per row that has one, then three names the
/// table does not hold: two retired knobs and a typo.
const MALFORMED: &[(&str, &str)] = &[
    ("LOOKAHEAD_SMALL", "false"),
    ("LOOKAHEAD_PAPER", "yes"),
    ("LOOKAHEAD_LARGE", "2"),
    ("LOOKAHEAD_PROCS", "0"),
    ("LOOKAHEAD_APPS", "FFT"),
    ("LOOKAHEAD_JOBS", "many"),
    ("LOOKAHEAD_LOG", "bogus"),
    ("LOOKAHEAD_SERVE_ADDR", "localhost:80"),
    ("LOOKAHEAD_SERVE_THREADS", "0"),
    ("LOOKAHEAD_SCHEDULER", "flat"),
    ("LOOKAHEAD_SERVE_PREWARM", "1"),
    ("LOOKAHEAD_JOB", "2"),
];

/// Rows where every value is valid: any string names a directory.
const ANY_VALUE: [&str; 2] = ["LOOKAHEAD_CACHE", "LOOKAHEAD_OBS_OUT"];

const LOOKAHEAD: &str = env!("CARGO_BIN_EXE_lookahead");
const LOADGEN: &str = env!("CARGO_BIN_EXE_loadgen");
const TRACE_TOOL: &str = env!("CARGO_BIN_EXE_trace_tool");

fn command(bin: &str, args: &[&str], envs: &[(&str, &str)]) -> Command {
    let mut cmd = Command::new(bin);
    cmd.args(args);
    // Every harness knob cleared, so the ambient shell can't leak
    // configuration into the runs.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("LOOKAHEAD_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(envs.iter().copied());
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    cmd
}

/// Runs `cmd` to completion, killing it (and failing) after a minute:
/// a `serve` that accepts its environment would never exit.
fn run(mut cmd: Command, what: &str) -> Output {
    let mut child = cmd.spawn().expect("binary starts");
    let deadline = Instant::now() + Duration::from_secs(60);
    while child.try_wait().expect("child status").is_none() {
        if Instant::now() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{what}: still running after a minute; the knob was not rejected");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    child.wait_with_output().expect("binary output")
}

#[test]
fn every_row_with_a_malformed_value_is_covered() {
    for knob in KNOBS {
        assert!(
            MALFORMED.iter().any(|(name, _)| *name == knob.name) || ANY_VALUE.contains(&knob.name),
            "{} has no malformed case",
            knob.name
        );
    }
}

#[test]
fn every_binary_rejects_every_malformed_knob() {
    let out_file = std::env::temp_dir().join(format!("knob-rejection-{}.json", std::process::id()));
    let out_file = out_file.to_str().unwrap();
    let invocations: [(&str, &[&str]); 6] = [
        (LOOKAHEAD, &["summary", "--no-cache"]),
        (LOOKAHEAD, &["serve", "--addr", "127.0.0.1:0", "--no-cache"]),
        (LOOKAHEAD, &["query", "/healthz", "--no-cache"]),
        (
            LOOKAHEAD,
            &["bench", "generation", "--tier", "small", "--out", out_file],
        ),
        (LOADGEN, &["--spawn"]),
        (TRACE_TOOL, &["stats", "LU"]),
    ];
    for (bin, args) in invocations {
        for &(name, value) in MALFORMED {
            let what = format!("{name}={value} {bin} {}", args.join(" "));
            let mut envs: Vec<(&str, &str)> =
                FAST.iter().copied().filter(|(k, _)| *k != name).collect();
            envs.push((name, value));
            let out = run(command(bin, args, &envs), &what);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
            assert!(
                stderr.contains(name),
                "{what}: the error must name {name}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{what}: {stderr}");
            assert!(out.stdout.is_empty(), "{what}: nothing may reach stdout");
        }
    }
    let _ = std::fs::remove_file(out_file);
}

#[test]
fn every_help_names_the_variables_its_binary_reads() {
    let helps: [(Bin, &str, &[&str]); 7] = [
        (Bin::Reports, LOOKAHEAD, &["--help"]),
        (Bin::Serve, LOOKAHEAD, &["serve", "--help"]),
        (Bin::Query, LOOKAHEAD, &["query", "--help"]),
        (Bin::Bench, LOOKAHEAD, &["bench", "generation", "--help"]),
        (Bin::Bench, LOOKAHEAD, &["bench", "obs", "--help"]),
        (Bin::Loadgen, LOADGEN, &["--help"]),
        (Bin::TraceTool, TRACE_TOOL, &["--help"]),
    ];
    for (which, bin, args) in helps {
        let what = format!("{bin} {}", args.join(" "));
        let out = run(command(bin, args, &[]), &what);
        assert!(out.status.success(), "{what}");
        let help = String::from_utf8_lossy(&out.stdout);
        for knob in KNOBS.iter().filter(|k| k.bins.contains(&which)) {
            assert!(
                help.contains(knob.name),
                "{what} must name {}:\n{help}",
                knob.name
            );
        }
    }
}
