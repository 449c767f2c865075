//! Golden end-to-end tests for `lookahead serve` / `lookahead query`:
//! the real binary, a real socket, and the byte-identity contract
//! between the HTTP response body and the CLI query body.
//!
//! Runs at the small tier on a reduced app set (like the driver
//! goldens) so a cold query costs well under a second.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const FAST: [(&str, &str); 3] = [
    ("LOOKAHEAD_SMALL", "1"),
    ("LOOKAHEAD_PROCS", "4"),
    ("LOOKAHEAD_APPS", "LU,MP3D"),
];

fn lookahead_cmd(args: &[&str]) -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_lookahead"));
    cmd.args(args);
    fast_env(&mut cmd);
    cmd
}

/// Every harness knob cleared, so the ambient shell can't leak
/// configuration into the goldens, then the fast configuration.
fn fast_env(cmd: &mut Command) {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("LOOKAHEAD_") {
            cmd.env_remove(key);
        }
    }
    cmd.envs(FAST.iter().copied());
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("lktr-serve-golden-{}-{tag}", std::process::id()))
}

/// A `lookahead serve` child on an OS-picked port, killed on drop.
struct ServeProc {
    child: Option<Child>,
    addr: String,
}

impl ServeProc {
    fn start(tag: &str) -> ServeProc {
        let addr_file = temp_path(tag);
        let _ = std::fs::remove_file(&addr_file);
        let child = lookahead_cmd(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--no-cache",
            "--threads",
            "2",
            "--jobs",
            "2",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve starts");

        // The server writes the bound address once the listener is up.
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            if let Ok(s) = std::fs::read_to_string(&addr_file) {
                if !s.is_empty() {
                    break s;
                }
            }
            assert!(
                Instant::now() < deadline,
                "server never wrote {addr_file:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        };
        let _ = std::fs::remove_file(&addr_file);
        ServeProc {
            child: Some(child),
            addr,
        }
    }

    fn get(&self, target: &str) -> (u16, String) {
        let mut conn = TcpStream::connect(&self.addr).expect("connect");
        write!(
            conn,
            "GET {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
        )
        .unwrap();
        let mut text = String::new();
        conn.read_to_string(&mut text).unwrap();
        let status = text
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        let body = text
            .split_once("\r\n\r\n")
            .map(|(_, b)| b.to_string())
            .unwrap_or_default();
        (status, body)
    }

    /// SIGINT, then assert the graceful drain exits 0.
    fn interrupt_and_wait(mut self) {
        let child = self.child.take().expect("child present");
        let pid = child.id().to_string();
        let status = Command::new("kill")
            .args(["-INT", &pid])
            .status()
            .expect("kill runs");
        assert!(status.success(), "kill -INT failed");
        let out = child.wait_with_output().expect("serve exits");
        assert!(
            out.status.success(),
            "serve must exit 0 after SIGINT, got {:?}; stderr:\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("drained"), "no drain line in: {stderr}");
    }
}

impl Drop for ServeProc {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

const QUERY: &str = "/v1/experiments?app=lu&model=ds&window=64&consistency=rc";

#[test]
fn http_body_equals_cli_query_body_and_sigint_drains() {
    let server = ServeProc::start("golden");

    let (status, _) = server.get("/healthz");
    assert_eq!(status, 200);

    // Cold then warm: identical bytes.
    let (s1, cold) = server.get(QUERY);
    let (s2, warm) = server.get(QUERY);
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(cold, warm, "cold and warm bodies must be identical");

    // The CLI query path prints the same bytes (no trailing newline).
    let out = lookahead_cmd(&["query", QUERY, "--no-cache"])
        .output()
        .expect("query runs");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        cold,
        "HTTP body and `lookahead query` stdout must be identical bytes"
    );

    // The coalescing/caching accounting is visible in /metrics.json,
    // and /metrics serves the same snapshot as valid Prometheus text.
    let (status, metrics) = server.get("/metrics.json");
    assert_eq!(status, 200);
    assert!(
        metrics.contains("\"serve.runs.generations\":1"),
        "one simulation for cold+warm: {metrics}"
    );
    let (status, prom) = server.get("/metrics");
    assert_eq!(status, 200);
    lookahead_obs::prom::check_exposition(&prom).expect("valid Prometheus exposition");
    assert!(
        prom.contains("serve_runs_generations_total 1"),
        "the same counter in Prometheus form: {prom}"
    );

    server.interrupt_and_wait();
}

#[test]
fn malformed_serve_knobs_exit_2() {
    for args in [
        ["serve", "--addr", "not-an-addr"].as_slice(),
        ["serve", "--threads", "0"].as_slice(),
        ["serve", "--jobs", "zero"].as_slice(),
    ] {
        let out = lookahead_cmd(args).output().expect("runs");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("error"), "{args:?}: {stderr}");
    }

    // The same fail-fast convention for the environment knobs.
    for (knob, value) in [
        ("LOOKAHEAD_SERVE_ADDR", "localhost:banana"),
        ("LOOKAHEAD_SERVE_THREADS", "-3"),
        ("LOOKAHEAD_JOBS", "abc"),
    ] {
        let out = lookahead_cmd(&["serve"])
            .env(knob, value)
            .output()
            .expect("runs");
        assert_eq!(out.status.code(), Some(2), "{knob}={value}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(knob), "error must name {knob}: {stderr}");
    }
}

#[test]
fn malformed_jobs_knob_exits_2_in_query() {
    let target = "/v1/figure3?app=lu";
    let from_env = lookahead_cmd(&["query", target, "--no-cache"])
        .env("LOOKAHEAD_JOBS", "abc")
        .output()
        .expect("query runs");
    let from_flag = lookahead_cmd(&["query", target, "--no-cache", "--jobs", "0"])
        .output()
        .expect("query runs");
    for (out, knob) in [(from_env, "LOOKAHEAD_JOBS"), (from_flag, "--jobs")] {
        assert_eq!(out.status.code(), Some(2), "{knob}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: {knob} must be a positive integer")),
            "the error must name {knob}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(out.stdout.is_empty(), "no body before the knob is checked");
    }
}

#[test]
fn query_rejects_bad_targets_but_still_prints_the_error_body() {
    let out = lookahead_cmd(&["query", "/v1/experiments?app=doom", "--no-cache"])
        .output()
        .expect("query runs");
    assert!(!out.status.success());
    let body = String::from_utf8(out.stdout).unwrap();
    assert!(body.contains("unknown app"), "{body}");

    let out = lookahead_cmd(&["query"]).output().expect("query runs");
    assert_eq!(out.status.code(), Some(2), "missing target is usage error");
}

/// Whether a server at `addr` answers `/healthz` with 200.
fn healthy(addr: &str) -> bool {
    let Ok(mut conn) = TcpStream::connect(addr) else {
        return false;
    };
    let _ = conn.set_read_timeout(Some(Duration::from_secs(10)));
    let mut text = String::new();
    write!(
        conn,
        "GET /healthz HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n"
    )
    .is_ok()
        && conn.read_to_string(&mut text).is_ok()
        && text.starts_with("HTTP/1.1 200 ")
}

/// Descriptor exhaustion while the server sets up (listener, epoll
/// instance, completion waker, address file) is a clean start-up
/// error: a non-zero exit, no panic, and no address file, so a script
/// polling `--addr-file` never sees a server that is already dead.
/// Descriptors the child inherits shift where each limit lands, so the
/// limit is raised one at a time until the server comes up: every
/// setup step that needs a descriptor fails once on the way.
#[test]
fn descriptor_exhaustion_fails_before_the_address_is_announced() {
    let first = 3; // stdin, stdout and stderr
    for limit in first..32 {
        let addr_file = temp_path(&format!("nofile-{limit}"));
        let _ = std::fs::remove_file(&addr_file);
        let mut cmd = Command::new("sh");
        cmd.args([
            "-c",
            &format!(
                "ulimit -n {limit} && exec \"$0\" serve --addr 127.0.0.1:0 \
                 --addr-file \"$1\" --no-cache"
            ),
            env!("CARGO_BIN_EXE_lookahead"),
            addr_file.to_str().unwrap(),
        ]);
        fast_env(&mut cmd);
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("sh starts");

        // Until the child exits, or answers on the address it announced.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if child.try_wait().expect("child status").is_some() {
                break;
            }
            let announced = std::fs::read_to_string(&addr_file).unwrap_or_default();
            if !announced.is_empty() && healthy(&announced) {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_file(&addr_file);
                assert!(limit > first, "the server came up under every limit tried");
                return;
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                panic!("ulimit -n {limit}: neither exited nor served its address");
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let out = child.wait_with_output().expect("child output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "ulimit -n {limit}: {stderr}");
        assert!(!stderr.contains("panicked"), "ulimit -n {limit}: {stderr}");
        assert!(
            !addr_file.exists(),
            "ulimit -n {limit}: an address file was written for a server that exited: {stderr}"
        );
    }
    panic!("the server never came up under any limit tried");
}
