#!/usr/bin/env python3
"""Lookahead benchmark: drives the release `lookahead` binary the way
users run it and prints one JSON result line.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --steadiness [--runs 5] [--seconds S]

Run from the repository root. See perfbench/README.md for the
workloads, the metrics and the layer table.
"""

import argparse
import hashlib
import http.client
import json
import math
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

BENCH = os.path.dirname(os.path.abspath(__file__))
PROBE_MANIFEST = os.path.join(BENCH, "probe", "Cargo.toml")

# `lookahead figure3 figure4 summary --tier default` prints these bytes
# (sha256). Every setup and timed sweep, and every traced in-process
# sweep, must reproduce them.
SWEEP_REPORTS = ["figure3", "figure4", "summary"]
SWEEP_SHA256 = "7ade65e152eb0e3a44d5af04ef1b427dfc914b276e01a05be9a2d6469a9f4302"

# Preparations per run; setup_s is their median.
SETUPS = 5

APPS = ["MP3D", "LU", "PTHOR", "LOCUS", "OCEAN"]
PAPER_WINDOWS = [16, 32, 64, 128, 256]
EXPLORE_MODELS = ["base", "ssbr", "ss", "ds"]
EXPLORE_CONSISTENCY = ["SC", "PC", "WO", "RC"]
EXPLORE_WIDTHS = list(range(1, 17))
EXPLORE_REPEAT = 0.25
EXPLORE_SAMPLE = 24  # explore targets checked against a reference

END_TO_END_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "req_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
}

PER_LAYER_UNITS = {
    "workloads.build_ms": "ms",
    "multiproc.simulate_s": "s",
    "multiproc.minstr_per_s": "Minstr/s",
    "multiproc.instructions": "count",
    "trace.archive_write_s": "s",
    "trace.archive_mib": "MiB",
    "cache.load_s": "s",
    "cache.validate_mib_per_s": "MiB/s",
    "cache.hits": "count",
    "cache.misses": "count",
    "trace.decode_s": "s",
    "trace.decode_mentries_per_s": "Mentries/s",
    "trace.chunks_decoded": "count",
    "trace.gang_fanout_s": "s",
    "experiments.gang_s": "s",
    "experiments.unique_cells": "count",
    "experiments.report_cells": "count",
    "experiments.gang_fallbacks": "count",
    "core.base_minstr_per_s": "Minstr/s",
    "core.ssbr_minstr_per_s": "Minstr/s",
    "core.ss_minstr_per_s": "Minstr/s",
    "core.ds_w16_minstr_per_s": "Minstr/s",
    "core.ds_w64_minstr_per_s": "Minstr/s",
    "core.ds_w256_minstr_per_s": "Minstr/s",
    "core.ds_s": "s",
    "core.inorder_s": "s",
    "core.retired_minstr": "Minstr",
    "dag.plan_us": "us",
    "dag.critical_path": "count",
    "dag.makespan_s": "s",
    "dag.peak_ready": "count",
    "reports.render_ms": "ms",
    "singleflight.led": "count",
    "singleflight.memoized": "count",
    "singleflight.coalesced": "count",
    "singleflight.memo_ratio": "ratio",
    "runs.generations": "count",
    "runs.disk_hits": "count",
    "service.handle_p50_us": "us",
    "http.parse_us": "us",
    "serve.queue_p50_us": "us",
    "serve.handler_p50_us": "us",
    "serve.transport_p50_us": "us",
    "reactor.events_per_req": "ratio",
    "reactor.wakeups_per_req": "ratio",
    "reactor.eagain": "count",
    "reactor.keepalive_reuse_ratio": "ratio",
    "bench.span_coverage": "ratio",
    "bench.trace_overhead_pct": "%",
}


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


class Failed(Exception):
    """The benchmark could not run (as opposed to a wrong output)."""


# ---- machine fingerprint -------------------------------------------------


def read(path, default=""):
    try:
        with open(path) as f:
            return f.read()
    except OSError:
        return default


def steal_ticks():
    for line in read("/proc/stat").splitlines():
        fields = line.split()
        if fields and fields[0] == "cpu" and len(fields) > 8:
            return int(fields[8])
    return 0


TICKS_PER_S = os.sysconf("SC_CLK_TCK")


class Unstolen:
    """Wall time net of the CPU time the hypervisor stole from the VM
    meanwhile, per CPU. A shared cloud VM's hypervisor can steal a third
    of the CPU for minutes at a time; the program gets that time back
    here, so a storm on the host does not read as a slower program."""

    def __init__(self):
        self.wall = time.perf_counter()
        self.steal = steal_ticks()

    def split(self):
        """(wall seconds, unstolen seconds) since construction."""
        wall = time.perf_counter() - self.wall
        stolen = (steal_ticks() - self.steal) / TICKS_PER_S / os.cpu_count()
        return wall, max(wall - stolen, wall / 10)

    def seconds(self):
        return self.split()[1]


def loadavg():
    fields = read("/proc/loadavg").split()
    return float(fields[0]) if fields else None


def cpu_model():
    for line in read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def fs_type(path):
    path = os.path.realpath(path)
    best, kind = "", None
    for line in read("/proc/mounts").splitlines():
        fields = line.split()
        if len(fields) < 3:
            continue
        mount = fields[1]
        inside = path == mount or path.startswith(mount.rstrip("/") + "/")
        if inside and len(mount) > len(best):
            best, kind = mount, fields[2]
    return kind


def git_sha():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        return out.stdout.strip() if out.returncode == 0 else None
    except OSError:
        return None


def source_digest():
    """sha256 over the sources the program is built from (a checkout
    need not be a git repository, so this stands in for the sha)."""
    h = hashlib.sha256()
    files = ["Cargo.toml", "Cargo.lock"]
    for top, dirs, names in os.walk("crates"):
        dirs.sort()
        files += [os.path.join(top, n) for n in sorted(names)]
    for name in files:
        h.update(name.encode() + b"\0")
        with open(name, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


# ---- child processes -----------------------------------------------------


def clean_env():
    """The environment every child gets: no LOOKAHEAD_* knobs."""
    removed = sorted(k for k in os.environ if k.startswith("LOOKAHEAD_"))
    env = {k: v for k, v in os.environ.items() if k not in removed}
    return env, removed


def wait_child(proc, timeout):
    """Waits for `proc` (killing it after `timeout` seconds); returns its
    exit code and peak resident memory in MiB."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def run_child(cmd, env, stdout_path, stderr_path, timeout):
    """Runs `cmd` to completion: (unstolen seconds, exit code, peak RSS
    MiB)."""
    with open(stdout_path, "wb") as out, open(stderr_path, "ab") as err:
        clock = Unstolen()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env)
        code, rss = wait_child(proc, timeout)
        return clock.seconds(), code, rss


class Bench:
    def __init__(self, args):
        self.args = args
        self.env, self.removed_env = clean_env()
        self.nproc = len(os.sched_getaffinity(0))
        self.root = os.getcwd()
        self.dir = os.path.join(
            self.root, ".bench_run", f"{args.workload}-{args.seed}-{os.getpid()}"
        )
        self.servers = []
        self.serial = 0
        # A traced run measures the workload untraced, then traced:
        # half the time each, so it lasts as long as an untraced run.
        self.seconds = args.seconds / 2 if args.trace else args.seconds

    def path(self, name):
        return os.path.join(self.dir, name)

    def fresh(self, name):
        p = self.path(name)
        if os.path.isdir(p):
            shutil.rmtree(p)
        elif os.path.exists(p):
            os.remove(p)
        return p

    def build(self):
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        target = os.path.join(self.root, target)
        env = dict(self.env, CARGO_TARGET_DIR=target)
        for cmd in (
            ["cargo", "build", "--release", "--offline", "-p", "lookahead-bench",
             "--bin", "lookahead"],
            ["cargo", "build", "--release", "--offline", "--manifest-path",
             PROBE_MANIFEST],
        ):
            proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
            if proc.returncode != 0:
                raise Failed(f"build failed: {' '.join(cmd)}")
        self.lookahead = os.path.join(target, "release", "lookahead")
        self.probe_bin = os.path.join(target, "release", "lookahead-perfbench-probe")

    def log_path(self):
        return self.path("children.log")

    def lookahead_sweep(self, cache_dir):
        """One `lookahead figure3 figure4 summary` process:
        (seconds, ok, peak RSS MiB, stdout bytes)."""
        self.serial += 1
        out = self.path(f"sweep{self.serial}.out")
        cmd = [self.lookahead, *SWEEP_REPORTS, "--tier", "default", "--cache-dir",
               cache_dir, "--jobs", str(self.nproc)]
        secs, code, rss = run_child(cmd, self.env, out, self.log_path(), 120)
        with open(out, "rb") as f:
            text = f.read()
        os.remove(out)
        return secs, code == 0, rss, text

    def probe(self, *args, timeout=150):
        """Runs the probe to completion and returns its stdout."""
        self.serial += 1
        out = self.path(f"probe{self.serial}.out")
        _, code, _ = run_child([self.probe_bin, *args], self.env, out,
                               self.log_path(), timeout)
        with open(out) as f:
            text = f.read()
        os.remove(out)
        if code != 0:
            raise Failed(f"probe {args[0]} exited {code}; see {self.log_path()}")
        return text

    # ---- serve -----------------------------------------------------------

    def start_server(self, cache_dir):
        addr_file = self.fresh("addr")
        cmd = [self.lookahead, "serve", "--addr", "127.0.0.1:0", "--addr-file",
               addr_file, "--threads", str(self.nproc), "--jobs", str(self.nproc),
               "--cache-dir", cache_dir]
        err = open(self.log_path(), "ab")
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err, env=self.env)
        err.close()
        self.servers.append(proc)
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                raise Failed(f"server exited {proc.returncode}; see {self.log_path()}")
            # The file may be read while the server is still writing
            # it; an address counts once it accepts a connection.
            host, _, port = read(addr_file).strip().rpartition(":")
            try:
                socket.create_connection((host, int(port)), timeout=1).close()
                proc.addr = (host, int(port))
                return proc
            except (OSError, ValueError):
                time.sleep(0.01)
        raise Failed("server did not announce its address")

    def stop_server(self, proc):
        if proc.poll() is None:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.servers.remove(proc)

    def stop_all(self):
        for proc in list(self.servers):
            self.stop_server(proc)


def get(addr, target):
    conn = http.client.HTTPConnection(addr[0], addr[1], timeout=300)
    try:
        conn.request("GET", target)
        resp = conn.getresponse()
        return resp.status, resp.read()
    finally:
        conn.close()


def get_all(bench, addr, targets):
    """Fetches every target over `nproc` concurrent connections; all
    must answer 200."""
    with ThreadPoolExecutor(max_workers=bench.nproc) as pool:
        for target, (status, _) in zip(targets, pool.map(lambda t: get(addr, t), targets)):
            if status != 200:
                raise Failed(f"setup request {target} answered {status}")


def metrics_snapshot(addr):
    status, body = get(addr, "/metrics.json")
    if status != 200:
        raise Failed(f"/metrics.json answered {status}")
    return json.loads(body)


def vm_hwm_mib(pid):
    for line in read(f"/proc/{pid}/status").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise Failed("no VmHWM for the server")


# ---- statistics ----------------------------------------------------------


def nearest_rank(values, q):
    s = sorted(values)
    k = max(1, min(len(s), math.ceil(q * len(s) - 1e-9)))
    return s[k - 1]


def sha256(data):
    return hashlib.sha256(data).hexdigest()


# ---- inputs from the seed -----------------------------------------------


def resolve_targets():
    """One cheap query per application: resolving it generates the run.
    Window 1 is outside the explore space, so these never warm it."""
    return [f"/v1/experiments?app={a}&model=base&window=1&width=16" for a in APPS]


def explore_inputs(seed):
    """The explore space in a seeded, stratified order, and a seeded
    request stream over it in which one request in four repeats an
    earlier one.

    The space comes in rounds of one target per app × model ×
    consistency, shuffled. In round r = 5q + s, combination (a, c) has
    window PAPER_WINDOWS[(a + c + s) % 5] and the q-th width of its own
    seeded permutation, so each combination meets every window × width
    once over the 80 rounds, and every round holds each window equally
    often. A run reaches only the first ~20 rounds; the mix of cheap
    and costly queries in them is then the same whatever the seed."""
    rng = random.Random(seed)
    combos = [(a, m, c) for a in range(len(APPS)) for m in EXPLORE_MODELS
              for c in range(len(EXPLORE_CONSISTENCY))]
    widths = [rng.sample(EXPLORE_WIDTHS, len(EXPLORE_WIDTHS)) for _ in combos]
    space = []
    for r in range(len(PAPER_WINDOWS) * len(EXPLORE_WIDTHS)):
        q, s = divmod(r, len(PAPER_WINDOWS))
        for k in rng.sample(range(len(combos)), len(combos)):
            a, m, c = combos[k]
            w = PAPER_WINDOWS[(a + c + s) % len(PAPER_WINDOWS)]
            space.append(f"/v1/experiments?app={APPS[a]}&model={m}"
                         f"&consistency={EXPLORE_CONSISTENCY[c]}&window={w}&width={widths[k][q]}")
    stream, fresh = [], 0
    while fresh < len(space):
        if stream and rng.random() < EXPLORE_REPEAT:
            stream.append(rng.choice(stream))
        else:
            stream.append(fresh)
            fresh += 1
    return space, stream


def write_inputs(bench, targets, stream):
    tf, sf = bench.path("targets.txt"), bench.path("stream.txt")
    with open(tf, "w") as f:
        f.write("\n".join(targets) + "\n")
    with open(sf, "w") as f:
        f.write(" ".join(map(str, stream)) + "\n")
    return tf, sf


# ---- workloads -----------------------------------------------------------


class Outcome:
    """One workload run: end-to-end metrics, operation counts, checks."""

    def __init__(self):
        self.metrics = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, ok, problem):
        if not ok:
            self.problems.append(problem)
            log(f"check failed: {problem}")


def sweep_setup(bench, out, keep):
    """A cold `figure3 figure4 summary` into an empty cache; returns its
    wall time and leaves the filled cache at `keep`."""
    cache = bench.fresh(keep)
    secs, ok, rss, text = bench.lookahead_sweep(cache)
    out.check(ok, "setup sweep exited non-zero")
    out.check(sha256(text) == SWEEP_SHA256, "setup sweep stdout differs from the pinned digest")
    return secs, rss, text


def timed_sweeps(bench, out, cache, reference, seconds):
    """Sweeps until `seconds` have passed: (unstolen seconds of each
    good sweep, peak RSS of each, unstolen seconds in all)."""
    times, rss = [], []
    clock = Unstolen()
    started = time.perf_counter()
    while not times or time.perf_counter() - started < seconds:
        secs, ok, peak, text = bench.lookahead_sweep(cache)
        out.attempted += 1
        rss.append(peak)
        if ok and text == reference:
            times.append(secs)
        else:
            out.failed += 1
            out.check(False, "timed sweep failed or printed different bytes")
            if out.failed > 3:
                break
    return times, rss, clock.seconds()


def run_sweep(bench, out, setups):
    setup_times, rss = [], []
    for _ in range(setups):
        secs, peak, reference = sweep_setup(bench, out, "cache")
        setup_times.append(secs)
        rss.append(peak)
    cache = bench.path("cache")
    times, peaks, elapsed = timed_sweeps(bench, out, cache, reference, bench.seconds)
    rss += peaks
    out.metrics = {
        "setup_s": statistics.median(setup_times),
        "p50_ms": 1000 * statistics.median(times) if times else 0.0,
        "p99_ms": 1000 * nearest_rank(times, 0.99) if times else 0.0,
        "req_per_s": len(times) / elapsed,
        "peak_rss_mib": max(rss),
    }
    return cache, reference


def serve_setup(bench, reuse=False):
    """Starts a server on an empty cache (or the existing one with
    `reuse`) and resolves the five runs. Returns (server, unstolen
    seconds)."""
    cache = bench.path("cache") if reuse else bench.fresh("cache")
    clock = Unstolen()
    server = bench.start_server(cache)
    get_all(bench, server.addr, resolve_targets())
    return server, clock.seconds()


def load(bench, server, targets_file, stream_file, trace):
    args = ["load", "--addr", f"{server.addr[0]}:{server.addr[1]}", "--conns",
            str(bench.nproc), "--seconds", str(bench.seconds), "--targets",
            targets_file, "--stream", stream_file, "--ticks-per-s", str(TICKS_PER_S),
            "--cpus", str(os.cpu_count())]
    if trace:
        args.append("--trace")
    return json.loads(bench.probe(*args, timeout=bench.seconds + 120))


def check_references(bench, out, targets, stream, summary, cache):
    """Compares response digests with ExperimentService::handle run
    in-process, for a fixed sample of the targets served."""
    seen = summary["digests"]
    sample = []
    for p in range(0, len(stream), 37):
        i = stream[p]
        if str(i) in seen and i not in sample:
            sample.append(i)
        if len(sample) == EXPLORE_SAMPLE:
            break
    refs_file = bench.path("refs.txt")
    with open(refs_file, "w") as f:
        f.write("\n".join(targets[i] for i in sample) + "\n")
    lines = bench.probe("refs", "--cache-dir", cache, "--jobs", str(bench.nproc),
                        "--targets", refs_file).split()
    answers = list(zip(lines[0::2], lines[1::2]))
    bad = 0
    for i, (status, digest) in zip(sample, answers):
        if status != "200" or seen.get(str(i)) != digest:
            bad += 1
            out.check(False, f"{targets[i]}: served body differs from the reference")
    out.check(len(answers) == len(sample), "reference run answered too few targets")
    return bad


def run_serve(bench, out, setups):
    targets, stream = explore_inputs(bench.args.seed)
    tf, sf = write_inputs(bench, targets, stream)
    server, setup_times = None, []
    for _ in range(setups):
        if server is not None:
            bench.stop_server(server)
        server, secs = serve_setup(bench)
        setup_times.append(secs)
    summary = load(bench, server, tf, sf, trace=False)
    peak = vm_hwm_mib(server.pid)
    bench.stop_server(server)
    out.attempted += summary["attempted"]
    out.failed += summary["failed"]
    out.check(summary["failed"] == 0, f"load failures: {summary['failures']}")
    out.failed += check_references(bench, out, targets, stream, summary,
                                   bench.path("cache"))
    n = summary["completed"]
    if summary["beyond_p99"] < 10:
        log(f"only {summary['beyond_p99']} of {n} samples lie beyond p99")
    out.metrics = {
        "setup_s": statistics.median(setup_times),
        "p50_ms": summary["p50_ns"] / 1e6,
        "p99_ms": summary["p99_ns"] / 1e6,
        "req_per_s": n / summary["elapsed_s"] if summary["elapsed_s"] > 0 else 0.0,
        "peak_rss_mib": peak,
    }
    return tf, sf


# ---- traced runs ---------------------------------------------------------


def load_spans(path):
    spans, counters = [], {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            if "counters" in rec:
                counters.update(rec["counters"])
            else:
                spans.append(rec)
    return spans, counters


def covered(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, reach = 0, lo
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, hi)
        if e > s:
            total += e - s
        reach = max(reach, e)
    return total


class Layers:
    """Per-name totals over one traced process's spans."""

    def __init__(self, spans):
        children = {}
        for s in spans:
            children.setdefault(s["parent"], []).append((s["start_ns"], s["end_ns"]))
        self.spans = spans
        self.dur, self.self_ns, self.n, self.count = {}, {}, {}, {}
        for s in spans:
            name, d = s["name"], s["end_ns"] - s["start_ns"]
            inner = covered(children.get(s["id"], []), s["start_ns"], s["end_ns"])
            self.dur[name] = self.dur.get(name, 0) + d
            self.self_ns[name] = self.self_ns.get(name, 0) + d - inner
            self.n[name] = self.n.get(name, 0) + s["n"]
            self.count[name] = self.count.get(name, 0) + 1
        self.children = children

    def secs(self, *names, own=False):
        src = self.self_ns if own else self.dur
        return sum(src.get(n, 0) for n in names) / 1e9

    def work(self, *names):
        return sum(self.n.get(n, 0) for n in names)

    def mrate(self, names):
        """Millions of work units per second of self time."""
        secs = self.secs(*names, own=True)
        return self.work(*names) / 1e6 / secs if secs > 0 else 0.0

    def named(self, prefix):
        return [n for n in self.dur if n.startswith(prefix)]

    def durations(self, name):
        return [(s["end_ns"] - s["start_ns"]) for s in self.spans if s["name"] == name]

    def coverage(self, root):
        """Share of each `root` span covered by its direct children."""
        shares = []
        for s in self.spans:
            if s["name"] == root:
                d = s["end_ns"] - s["start_ns"]
                inner = covered(self.children.get(s["id"], []), s["start_ns"], s["end_ns"])
                shares.append(inner / d if d else 0.0)
        return shares


def cold_layers(bench):
    spans_file = bench.path("cold.jsonl")
    bench.probe("cold", "--cache-dir", bench.fresh("cold-cache"), "--spans", spans_file)
    shutil.rmtree(bench.path("cold-cache"), ignore_errors=True)
    layers = Layers(load_spans(spans_file)[0])
    instructions = layers.work("multiproc.simulate")
    simulate = layers.secs("multiproc.simulate", own=True)
    return {
        "workloads.build_ms": 1000 * layers.secs("workloads.build"),
        "multiproc.simulate_s": simulate,
        "multiproc.instructions": instructions,
        "multiproc.minstr_per_s": instructions / 1e6 / simulate if simulate else 0.0,
        "trace.archive_write_s": layers.secs("trace.archive_write", "trace.archive_finish"),
        "trace.archive_mib": layers.work("trace.archive_finish") / 2**20,
    }


def engine_layers(layers):
    """Engine spans are named `core.<ModelSpec::kind()>`: BASE, SSBR,
    SS, DS.<window>."""
    return {
        "core.base_minstr_per_s": layers.mrate(["core.BASE"]),
        "core.ssbr_minstr_per_s": layers.mrate(["core.SSBR"]),
        "core.ss_minstr_per_s": layers.mrate(["core.SS"]),
        "core.ds_w16_minstr_per_s": layers.mrate(["core.DS.16"]),
        "core.ds_w64_minstr_per_s": layers.mrate(["core.DS.64"]),
        "core.ds_w256_minstr_per_s": layers.mrate(["core.DS.256"]),
        "core.ds_s": layers.secs(*layers.named("core.DS."), own=True),
        "core.inorder_s": layers.secs("core.SSBR", "core.SS", own=True),
        "core.retired_minstr": layers.work(*layers.named("core.")) / 1e6,
    }


def decode_layers(layers):
    decode = layers.secs("trace.decode")
    entries = layers.work("trace.decode")
    return {
        "trace.decode_s": decode,
        "trace.decode_mentries_per_s": entries / 1e6 / decode if decode else 0.0,
        "trace.chunks_decoded": sum(1 for s in layers.spans
                                    if s["name"] == "trace.decode" and s["n"] > 0),
    }


def cache_layers(layers, counters):
    load_s = layers.secs("cache.load")
    mib = layers.work("cache.load") / 2**20
    return {
        "cache.load_s": load_s,
        "cache.validate_mib_per_s": mib / load_s if load_s and mib else 0.0,
        "cache.hits": counters.get("cache.hits", layers.count.get("cache.load", 0)),
        "cache.misses": counters.get("cache.misses", 0),
    }


def median_dicts(dicts):
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def trace_sweep(bench, out, cache, reference, untraced_p50_ms):
    """Fresh probe processes each run one traced sweep over the filled
    cache, the gangs again with their insides timed, then every engine
    alone. Each traced sweep's DAG must have the shape of the program's
    own sweep (`probe shape`)."""
    program = json.loads(bench.probe("shape", "--cache-dir", cache, "--jobs",
                                     str(bench.nproc)))
    per_run, roots = [], []
    started = time.perf_counter()
    while len(per_run) < 3 or time.perf_counter() - started < bench.seconds:
        spans_file, text_file = bench.path("sweep.jsonl"), bench.path("sweep.txt")
        clock = Unstolen()
        bench.probe("sweep", "--cache-dir", cache, "--jobs", str(bench.nproc),
                    "--spans", spans_file, "--text", text_file)
        wall, unstolen = clock.split()
        with open(text_file, "rb") as f:
            out.check(f.read() == reference, "traced sweep text differs from the CLI's stdout")
        spans, counters = load_spans(spans_file)
        for key, value in program.items():
            out.check(counters.get(key) == value,
                      f"traced sweep's {key} {counters.get(key)} differs from the program's "
                      f"{value}: update perfbench/probe/src/sweep.rs to match reports::dag_sweep")
        layers = Layers(spans)
        # Net of steal like the untraced p50, at the process's share.
        roots += [d * unstolen / wall for d in layers.durations("sweep")]
        m = {
            **cache_layers(layers, counters),
            **decode_layers(layers),
            **engine_layers(layers),
            "trace.gang_fanout_s": layers.secs("trace.gang_fanout", own=True),
            "experiments.gang_s": layers.secs("experiments.gang"),
            "dag.plan_us": 1e6 * layers.secs("dag.plan"),
            "dag.makespan_s": layers.secs("dag.run"),
            "reports.render_ms": 1000 * layers.secs("reports.render"),
            "bench.span_coverage": statistics.median(layers.coverage("sweep")),
        }
        for key in ("experiments.unique_cells", "experiments.report_cells",
                    "experiments.gang_fallbacks", "dag.critical_path", "dag.peak_ready"):
            m[key] = counters.get(key, 0)
        per_run.append(m)
    traced_p50_ms = statistics.median(roots) / 1e6
    metrics = median_dicts(per_run)
    metrics["bench.trace_overhead_pct"] = 100 * (traced_p50_ms / untraced_p50_ms - 1)
    return metrics


def trace_serve(bench, out, tf, sf, untraced_p50_ms):
    # A fresh server on the cache the untraced phase filled, so the
    # memo starts as empty as it did there.
    server, _ = serve_setup(bench, reuse=True)
    before = metrics_snapshot(server.addr)
    summary = load(bench, server, tf, sf, trace=True)
    after = metrics_snapshot(server.addr)
    bench.stop_server(server)
    out.check(summary["failed"] == 0, f"traced load failures: {summary['failures']}")

    def delta(key):
        return after.get(key, 0) - before.get(key, 0)

    n = max(summary["completed"], 1)
    led, memo, coal = (delta(f"serve.flights.{k}") for k in ("led", "memoized", "coalesced"))
    t = summary["trace"]
    metrics = {
        "singleflight.led": led,
        "singleflight.memoized": memo,
        "singleflight.coalesced": coal,
        "singleflight.memo_ratio": memo / (led + memo + coal) if led + memo + coal else 0.0,
        "runs.generations": delta("serve.runs.generations"),
        "runs.disk_hits": delta("serve.runs.disk_hits"),
        "serve.queue_p50_us": t["queue_p50_us"],
        "serve.handler_p50_us": t["handler_p50_us"],
        "serve.transport_p50_us": t["transport_p50_us"],
        "reactor.events_per_req": delta("serve.reactor.events") / n,
        "reactor.wakeups_per_req": delta("serve.reactor.wakeups") / n,
        "reactor.eagain": delta("serve.reactor.eagain"),
        "reactor.keepalive_reuse_ratio": delta("serve.reactor.keepalive_reuses") / n,
        "bench.span_coverage": t["coverage"],
        "bench.trace_overhead_pct": 100 * (summary["p50_ns"] / 1e6 / untraced_p50_ms - 1),
    }

    spans_file = bench.path("replay.jsonl")
    budget = str(min(5.0, bench.seconds / 2))
    bench.probe("replay", "--cache-dir", bench.path("cache"), "--jobs", str(bench.nproc),
                "--targets", tf, "--stream", sf, "--seconds", budget, "--spans", spans_file,
                timeout=120)
    spans, counters = load_spans(spans_file)
    layers = Layers(spans)
    metrics["service.handle_p50_us"] = statistics.median(layers.durations("service.handle")) / 1e3
    metrics["http.parse_us"] = statistics.median(layers.durations("http.parse")) / 1e3
    metrics.update(cache_layers(layers, counters))
    metrics.update(decode_layers(layers))
    metrics.update(engine_layers(layers))
    return metrics


def run_traced(bench, out):
    """The per-layer run: the workload once untraced (for the overhead
    baseline), then its traced replay."""
    workload = bench.args.workload
    if workload == "sweep":
        cache, reference = run_sweep(bench, out, setups=1)
        untraced = out.metrics["p50_ms"]
        metrics = trace_sweep(bench, out, cache, reference, untraced)
    else:
        tf, sf = run_serve(bench, out, setups=1)
        untraced = out.metrics["p50_ms"]
        metrics = trace_serve(bench, out, tf, sf, untraced)
    metrics.update(cold_layers(bench))
    return {k: metrics.get(k, 0.0) for k in PER_LAYER_UNITS}


# ---- one run -------------------------------------------------------------


def one_run(args):
    if not (os.path.isfile("Cargo.toml") and os.path.isdir(os.path.join("crates", "bench"))):
        raise Failed("run from the root of a Lookahead checkout (no Cargo.toml/crates here)")
    bench = Bench(args)
    os.makedirs(bench.dir, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": bench.nproc,
        "cpu_model": cpu_model(),
        "cache_fs": fs_type(bench.dir),
        "removed_env": bench.removed_env,
        "loadavg_1m_before": loadavg(),
        "steal_ticks_before": steal_ticks(),
    }
    out = Outcome()
    try:
        bench.build()
        if args.trace:
            values = run_traced(bench, out)
            units = PER_LAYER_UNITS
        else:
            if args.workload == "sweep":
                run_sweep(bench, out, SETUPS)
            else:
                run_serve(bench, out, SETUPS)
            ok = out.attempted - out.failed
            out.metrics["ok_frac"] = ok / out.attempted if out.attempted else 0.0
            values = out.metrics
            units = END_TO_END_UNITS
    finally:
        bench.stop_all()
        shutil.rmtree(bench.dir, ignore_errors=True)
    record["loadavg_1m_after"] = loadavg()
    record["steal_ticks_after"] = steal_ticks()
    print("run-record: " + json.dumps(record), file=sys.stderr, flush=True)
    return {
        "correct": not out.problems and out.failed == 0,
        "attempted": max(out.attempted, 1),
        "failed": out.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


# ---- steadiness ----------------------------------------------------------


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args):
    """Two interleaved sets of runs of the same build, every run with
    its own seed. Prints each set's median and quartiles per workload
    and end-to-end metric, the ratio of the two medians, and the
    spread (IQR / median) over all runs against the metric's bound."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values = {}  # (workload, metric, set) -> [values]
    failures = []
    seed = args.seed
    for r in range(args.runs):
        for s in ((0, 1) if r % 2 == 0 else (1, 0)):
            for w in workloads:
                seed += 1
                cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, capture_output=True, text=True)
                lines = proc.stdout.strip().splitlines()
                record = [l for l in proc.stderr.splitlines() if l.startswith("run-record: ")]
                if proc.returncode != 0 or not lines:
                    failures.append(f"{w} seed {seed}: exit {proc.returncode}")
                    sys.stderr.write(proc.stderr[-2000:])
                    continue
                result = json.loads(lines[-1])
                if not result["correct"]:
                    failures.append(f"{w} seed {seed}: incorrect")
                for name, m in result["metrics"].items():
                    values.setdefault((w, name, s), []).append(m["value"])
                rec = json.loads(record[-1][len("run-record: "):]) if record else {}
                log(f"run {r} set {'AB'[s]} {w} seed {seed}: "
                    + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
                    + f" load {rec.get('loadavg_1m_before')}->{rec.get('loadavg_1m_after')}"
                    + f" steal +{(rec.get('steal_ticks_after') or 0) - (rec.get('steal_ticks_before') or 0)}")
    print(f"{'workload/metric':32} {'set A median [q1, q3]':>32} {'set B median [q1, q3]':>32}"
          f" {'B/A':>7} {'spread':>7} {'bound':>6}")
    verdict = True
    for w in workloads:
        for name in END_TO_END_UNITS:
            a, b = values.get((w, name, 0), []), values.get((w, name, 1), [])
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            both = a + b
            q1, med, q3 = quartiles(both)
            spread = (q3 - q1) / med if med else 0.0
            ratio = statistics.median(b) / statistics.median(a) if statistics.median(a) else 1.0
            bound = bounds.get(name, 0.0)
            ok = spread <= bound and abs(ratio - 1) <= bound
            verdict &= ok
            print(f"{w + '/' + name:32} {qa[1]:12.4g} [{qa[0]:.4g}, {qa[2]:.4g}]"
                  f" {qb[1]:12.4g} [{qb[0]:.4g}, {qb[2]:.4g}] {ratio:7.3f} {spread:7.3f}"
                  f" {bound:6.2f}{'' if ok else '  OUT OF BOUND'}")
    if "sweep" in workloads:
        a, b = values.get(("sweep", "setup_s", 0), []), values.get(("sweep", "setup_s", 1), [])
        if a and b:
            print(f"sweep/setup_s: set A median {statistics.median(a):.4f} s, set B median "
                  f"{statistics.median(b):.4f} s, ratio {statistics.median(b) / statistics.median(a):.3f}")
    for f in failures:
        print(f"failure: {f}")
    print("steady" if verdict and not failures else "NOT steady")
    return 0 if verdict and not failures else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=["sweep", "serve-explore"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steadiness", action="store_true",
                   help="run two interleaved sets and compare them")
    p.add_argument("--runs", type=int, default=5, help="runs per set (--steadiness)")
    args = p.parse_args()
    # SIGTERM unwinds like Ctrl-C, so servers are stopped and the run
    # directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.steadiness:
            return steadiness(args)
        if not args.workload or not args.seconds or args.seconds <= 0:
            p.error("--workload and a positive --seconds are required")
        result = one_run(args)
    except Failed as e:
        log(f"error: {e}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
