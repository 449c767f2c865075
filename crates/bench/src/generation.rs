//! `lookahead bench generation` — wall-clock benchmark of cold trace
//! generation under the two multiprocessor engines.
//!
//! For every selected application at the selected size tier, the
//! benchmark times a **cold** generation run (no trace cache; the
//! chunks go to a [`NullSink`]) under both the discrete-event engine
//! ([`Simulator::run_with_sink`]) and the retained cycle-by-cycle
//! reference stepper ([`Simulator::run_reference_with_sink`]). Before
//! timing, a verification pass streams both engines through a
//! checksum sink and fails the benchmark unless the chunk sequences —
//! boundaries and entry contents — are byte-for-byte identical; the
//! speedup is only meaningful if the engines produce the same traces.
//!
//! Results are written as `BENCH_generation.json` and summarized on
//! stdout. The headline number is the overall event-engine speedup
//! (sum of reference walls over sum of event walls); `--min-speedup`
//! turns it into a gate for CI. Timing uses `std::time::Instant` only.

use crate::knobs::{self, Bin, Flags, Knobs};
use crate::SizeTier;
use lookahead_isa::program::DataImage;
use lookahead_isa::{Program, SyncKind};
use lookahead_memsys::MemoryParams;
use lookahead_multiproc::{SimConfig, SimOutcome, Simulator};
use lookahead_trace::{NullSink, TraceChunk, TraceOp, TraceSink};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

/// The miss penalties benchmarked — the same sweep as the re-timing
/// bench. 100 is where stalled cycles dominate and event scheduling
/// pays the most; it carries the `--min-speedup` gate.
const LATENCIES: [u32; 2] = [50, 100];

/// One measured benchmark cell: one application under one engine at
/// one miss penalty.
struct Cell {
    app: &'static str,
    engine: &'static str,
    latency: u32,
    wall_seconds: f64,
    instructions: u64,
    total_cycles: u64,
}

impl Cell {
    fn instructions_per_second(&self) -> f64 {
        if self.wall_seconds > 0.0 {
            self.instructions as f64 / self.wall_seconds
        } else {
            0.0
        }
    }
}

/// FNV-1a over the streamed chunk sequence: accept order, chunk
/// boundaries and the semantic content of every entry all land in the
/// digest, so two engines agree iff they stream identical traces in
/// identical chunks. (Same constants as [`lookahead_trace::fnv1a`];
/// folded incrementally here so the digest never materializes the
/// trace.)
struct ChecksumSink {
    hash: u64,
    entries: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl ChecksumSink {
    fn new() -> ChecksumSink {
        ChecksumSink {
            hash: FNV_OFFSET,
            entries: 0,
        }
    }

    fn fold(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
    }

    fn fold_u64(&mut self, v: u64) {
        self.fold(&v.to_le_bytes());
    }

    fn sync_tag(kind: SyncKind) -> u8 {
        match kind {
            SyncKind::Lock => 0,
            SyncKind::Unlock => 1,
            SyncKind::Barrier => 2,
            SyncKind::WaitEvent => 3,
            SyncKind::SetEvent => 4,
        }
    }
}

impl TraceSink for ChecksumSink {
    fn accept(&mut self, proc: usize, chunk: &TraceChunk) -> std::io::Result<()> {
        self.fold_u64(proc as u64);
        self.fold_u64(chunk.first_index);
        self.fold_u64(chunk.len() as u64);
        for e in chunk.iter() {
            self.fold(&e.pc.to_le_bytes());
            match e.op {
                TraceOp::Compute => self.fold(&[0]),
                TraceOp::Load(m) => {
                    self.fold(&[1, m.miss as u8]);
                    self.fold_u64(m.addr);
                    self.fold(&m.latency.to_le_bytes());
                }
                TraceOp::Store(m) => {
                    self.fold(&[2, m.miss as u8]);
                    self.fold_u64(m.addr);
                    self.fold(&m.latency.to_le_bytes());
                }
                TraceOp::Branch { taken, target } => {
                    self.fold(&[3, taken as u8]);
                    self.fold(&target.to_le_bytes());
                }
                TraceOp::Jump { target } => {
                    self.fold(&[4]);
                    self.fold(&target.to_le_bytes());
                }
                TraceOp::Sync(s) => {
                    self.fold(&[5, Self::sync_tag(s.kind)]);
                    self.fold_u64(s.addr);
                    self.fold(&s.wait.to_le_bytes());
                    self.fold(&s.access.to_le_bytes());
                }
            }
        }
        self.entries += chunk.len() as u64;
        Ok(())
    }
}

/// One cold generation run under the chosen engine, chunks discarded.
fn generate(
    program: &Program,
    image: &DataImage,
    config: &SimConfig,
    event_engine: bool,
    sink: &mut dyn TraceSink,
) -> SimOutcome {
    let sim = Simulator::new(program.clone(), image.clone(), *config)
        .unwrap_or_else(|e| panic!("simulator construction failed: {e}"));
    let run = if event_engine {
        sim.run_with_sink(sink)
    } else {
        sim.run_reference_with_sink(sink)
    };
    run.unwrap_or_else(|e| panic!("generation failed: {e}"))
}

/// Streams both engines through checksum sinks and returns an error
/// naming the first divergence (digest, entry count, finish times or
/// total cycles).
fn verify_engines_agree(
    app: &str,
    program: &Program,
    image: &DataImage,
    config: &SimConfig,
) -> Result<(), String> {
    let mut event = ChecksumSink::new();
    let mut reference = ChecksumSink::new();
    let ev = generate(program, image, config, true, &mut event);
    let re = generate(program, image, config, false, &mut reference);
    if event.hash != reference.hash {
        return Err(format!(
            "{app}: trace checksums diverge (event {:#018x}, reference {:#018x})",
            event.hash, reference.hash
        ));
    }
    if event.entries != reference.entries {
        return Err(format!(
            "{app}: entry counts diverge (event {}, reference {})",
            event.entries, reference.entries
        ));
    }
    if ev.finish_times != re.finish_times {
        return Err(format!(
            "{app}: finish times diverge (event {:?}, reference {:?})",
            ev.finish_times, re.finish_times
        ));
    }
    if ev.total_cycles != re.total_cycles {
        return Err(format!(
            "{app}: total cycles diverge (event {}, reference {})",
            ev.total_cycles, re.total_cycles
        ));
    }
    Ok(())
}

/// Times `iters` cold generations, keeping the best (minimum) wall
/// time.
fn time_engine(
    program: &Program,
    image: &DataImage,
    config: &SimConfig,
    event_engine: bool,
    iters: u32,
) -> (f64, u64, u64) {
    let mut best = f64::INFINITY;
    let mut instructions = 0;
    let mut total_cycles = 0;
    for _ in 0..iters {
        let started = Instant::now();
        let out = generate(program, image, config, event_engine, &mut NullSink);
        best = best.min(started.elapsed().as_secs_f64());
        instructions = out.entry_counts.iter().sum();
        total_cycles = out.total_cycles;
    }
    (best, instructions, total_cycles)
}

/// The reference-over-event wall-time ratio over the cells matching
/// the given application and/or latency (`None` filters nothing; both
/// `None` gives the overall ratio of the summed walls).
fn speedup(cells: &[Cell], app: Option<&str>, latency: Option<u32>) -> Option<f64> {
    let sum = |engine: &str| -> f64 {
        cells
            .iter()
            .filter(|c| {
                c.engine == engine
                    && app.is_none_or(|a| c.app == a)
                    && latency.is_none_or(|l| c.latency == l)
            })
            .map(|c| c.wall_seconds)
            .sum()
    };
    let (event, reference) = (sum("event"), sum("reference"));
    (event > 0.0 && reference > 0.0).then(|| reference / event)
}

fn render_json(tier: SizeTier, config: &SimConfig, iters: u32, cells: &[Cell]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"benchmark\": \"generation\",");
    let _ = writeln!(out, "  \"tier\": \"{}\",", tier.name());
    let _ = writeln!(out, "  \"num_procs\": {},", config.num_procs);
    let _ = writeln!(out, "  \"iterations\": {iters},");
    out.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"app\": \"{}\", \"engine\": \"{}\", \"latency\": {}, \
             \"wall_seconds\": {:.6}, \"instructions\": {}, \"total_cycles\": {}, \
             \"instructions_per_second\": {:.0}}}",
            c.app,
            c.engine,
            c.latency,
            c.wall_seconds,
            c.instructions,
            c.total_cycles,
            c.instructions_per_second(),
        );
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ],\n");
    let mut apps: Vec<&str> = Vec::new();
    for c in cells {
        if !apps.contains(&c.app) {
            apps.push(c.app);
        }
    }
    out.push_str("  \"app_speedups\": {\n");
    for (i, a) in apps.iter().enumerate() {
        let s = speedup(cells, Some(a), None).unwrap_or(0.0);
        let _ = write!(out, "    \"{a}\": {s:.2}");
        out.push_str(if i + 1 < apps.len() { ",\n" } else { "\n" });
    }
    out.push_str("  },\n");
    for latency in LATENCIES {
        let s = speedup(cells, None, Some(latency)).unwrap_or(0.0);
        let _ = writeln!(out, "  \"latency{latency}_speedup\": {s:.2},");
    }
    // Trailing key so every earlier line can end with a comma.
    let overall = speedup(cells, None, None).unwrap_or(0.0);
    let _ = writeln!(out, "  \"overall_speedup\": {overall:.2}");
    out.push_str("}\n");
    out
}

fn render_table(cells: &[Cell]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<10} {:<10} {:>8} {:>12} {:>14} {:>14} {:>9}",
        "app", "engine", "latency", "wall (s)", "instructions", "instr/sec", "speedup"
    );
    for c in cells {
        let s = if c.engine == "event" {
            speedup(cells, Some(c.app), Some(c.latency))
                .map_or(String::new(), |s| format!("{s:.2}x"))
        } else {
            String::new()
        };
        let _ = writeln!(
            out,
            "{:<10} {:<10} {:>8} {:>12.4} {:>14} {:>14.0} {:>9}",
            c.app,
            c.engine,
            c.latency,
            c.wall_seconds,
            c.instructions,
            c.instructions_per_second(),
            s,
        );
    }
    for latency in LATENCIES {
        if let Some(s) = speedup(cells, None, Some(latency)) {
            let _ = writeln!(
                out,
                "event-engine speedup vs reference stepper @ latency {latency}: {s:.2}x"
            );
        }
    }
    out
}

const USAGE: &str = "usage: lookahead bench generation [OPTIONS]

Times cold trace generation for every selected application at miss
penalties 50 and 100 under both the discrete-event engine and the
cycle-by-cycle reference stepper, after verifying that the two stream
byte-identical chunk sequences.

options:
  --out PATH       result file (default: BENCH_generation.json)
  --iters N        timed repetitions per cell, best-of-N (default: 3)
  --tier NAME      workload size tier: small, default, paper or large
  --min-speedup X  fail unless the latency-100 speedup is at least X
  --skip-verify    skip the engine-equivalence pass (timing only)
  -h, --help       show this help";

/// Entry point for `lookahead bench generation`.
pub fn generation_main(args: &[String], knobs: &Knobs) -> ExitCode {
    let mut out_path = "BENCH_generation.json".to_string();
    let mut iters: u32 = 3;
    let mut tier: Option<SizeTier> = None;
    let mut min_speedup: Option<f64> = None;
    let mut verify = true;
    let mut args = Flags::new(args);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-h" | "--help" => {
                println!("{}", knobs::usage(Bin::Bench, USAGE));
                return ExitCode::SUCCESS;
            }
            "--skip-verify" => verify = false,
            "--out" => match args.next() {
                Some(v) => out_path = v,
                None => return usage_error("--out needs a value"),
            },
            "--tier" => match args.next().as_deref().and_then(SizeTier::from_name) {
                Some(t) => tier = Some(t),
                None => return usage_error("--tier needs one of: small, default, paper, large"),
            },
            "--iters" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) if v > 0 => iters = v,
                _ => return usage_error("--iters needs a positive integer"),
            },
            "--min-speedup" => match args.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) if v > 0.0 => min_speedup = Some(v),
                _ => return usage_error("--min-speedup needs a positive number"),
            },
            other => return usage_error(&format!("unknown option {other:?}")),
        }
    }

    let tier = knobs.tier(tier);
    let config = knobs.config();
    let apps = knobs.apps();
    eprintln!(
        "bench generation: tier {}, {} processors, best of {iters} cold runs per cell",
        tier.name(),
        config.num_procs,
    );
    let total = Instant::now();
    let mut cells = Vec::new();
    for app in &apps {
        let built = tier.workload(*app).build(config.num_procs);
        for latency in LATENCIES {
            let config = SimConfig {
                mem: MemoryParams::with_miss_penalty(latency),
                ..config
            };
            if verify {
                let started = Instant::now();
                if let Err(e) =
                    verify_engines_agree(app.name(), &built.program, &built.image, &config)
                {
                    eprintln!("error: engine divergence — {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!(
                    "  {} @ {latency}: engines stream identical chunks ({:.1}s)",
                    app.name(),
                    started.elapsed().as_secs_f64()
                );
            }
            for (engine, event_engine) in [("event", true), ("reference", false)] {
                let (wall_seconds, instructions, total_cycles) =
                    time_engine(&built.program, &built.image, &config, event_engine, iters);
                eprintln!(
                    "  {} @ {latency} / {engine}: {instructions} instructions in {wall_seconds:.2}s",
                    app.name()
                );
                cells.push(Cell {
                    app: app.name(),
                    engine,
                    latency,
                    wall_seconds,
                    instructions,
                    total_cycles,
                });
            }
        }
    }
    print!("{}", render_table(&cells));
    let json = render_json(tier, &config, iters, &cells);
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: failed to write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "bench generation: wrote {out_path} in {:.2}s total",
        total.elapsed().as_secs_f64()
    );
    if let Some(gate) = min_speedup {
        let gated = speedup(&cells, None, Some(100)).unwrap_or(0.0);
        if gated < gate {
            eprintln!(
                "error: latency-100 speedup {gated:.2}x is below the --min-speedup {gate} gate"
            );
            return ExitCode::FAILURE;
        }
        eprintln!("speedup gate passed: {gated:.2}x >= {gate}x @ latency 100");
    }
    ExitCode::SUCCESS
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{}", knobs::usage(Bin::Bench, USAGE));
    ExitCode::from(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookahead_trace::{fnv1a, TraceEntry};

    fn cell(app: &'static str, engine: &'static str, latency: u32, wall: f64) -> Cell {
        Cell {
            app,
            engine,
            latency,
            wall_seconds: wall,
            instructions: 1000,
            total_cycles: 5000,
        }
    }

    #[test]
    fn speedup_is_reference_over_event() {
        let cells = vec![
            cell("LU", "event", 100, 1.0),
            cell("LU", "reference", 100, 4.0),
            cell("MP3D", "event", 50, 2.0),
            cell("MP3D", "reference", 50, 2.0),
        ];
        assert_eq!(speedup(&cells, Some("LU"), None), Some(4.0));
        assert_eq!(speedup(&cells, Some("MP3D"), None), Some(1.0));
        assert_eq!(speedup(&cells, None, Some(100)), Some(4.0));
        assert_eq!(speedup(&cells, None, Some(50)), Some(1.0));
        assert_eq!(speedup(&cells, None, None), Some(2.0));
        assert_eq!(speedup(&cells, Some("OCEAN"), None), None);
        assert_eq!(speedup(&cells, None, Some(75)), None);
    }

    #[test]
    fn checksum_fold_matches_the_trace_crate_fnv1a() {
        // The incremental fold must stay in lockstep with the archive
        // hash so a future constant change cannot silently decouple
        // them.
        let mut sink = ChecksumSink::new();
        let bytes = [1u8, 2, 3, 0xFF, 0, 42];
        sink.fold(&bytes);
        assert_eq!(sink.hash, fnv1a(&bytes));
    }

    #[test]
    fn checksum_is_sensitive_to_chunk_boundaries_and_order() {
        let entries = vec![TraceEntry::compute(0x10), TraceEntry::compute(0x14)];
        let chunk = |first: u64, e: &[TraceEntry]| TraceChunk::from_slice(first, e);
        // Same entries, one chunk vs two.
        let mut one = ChecksumSink::new();
        one.accept(0, &chunk(0, &entries)).unwrap();
        let mut two = ChecksumSink::new();
        two.accept(0, &chunk(0, &entries[..1])).unwrap();
        two.accept(0, &chunk(1, &entries[1..])).unwrap();
        assert_ne!(one.hash, two.hash);
        assert_eq!(one.entries, two.entries);
        // Same chunks, different accept order (processor interleaving).
        let mut ab = ChecksumSink::new();
        ab.accept(0, &chunk(0, &entries)).unwrap();
        ab.accept(1, &chunk(0, &entries)).unwrap();
        let mut ba = ChecksumSink::new();
        ba.accept(1, &chunk(0, &entries)).unwrap();
        ba.accept(0, &chunk(0, &entries)).unwrap();
        assert_ne!(ab.hash, ba.hash);
    }
}
