//! Cross-engine equivalence: the discrete-event engine
//! ([`Simulator::run`] / [`Simulator::run_with_sink`]) must produce
//! **byte-identical** results to the cycle-stepped reference engine
//! ([`Simulator::run_reference`] / `run_reference_with_sink`) — same
//! traces, same per-processor breakdowns and finish times, and the
//! same chunk boundaries arriving at the sink in the same order.
//!
//! Two families of inputs:
//!
//! * the five real applications at their small (and one default) sizes
//!   across processor counts, miss latencies, and memory-bandwidth
//!   limits;
//! * randomized synthetic SPMD programs mixing compute bursts, strided
//!   shared-array sweeps, lock-protected counters, producer/consumer
//!   event phases, and barriers, generated from an in-tree XorShift64
//!   so failures reproduce from the printed seed.
//!
//! One `#[ignore]`d test also holds the event engine to being faster:
//! run the suite in release with `-- --include-ignored` to include it.

use lookahead_isa::program::DataImage;
use lookahead_isa::{AluOp, Assembler, BranchCond, IntReg, Program};
use lookahead_memsys::MemoryParams;
use lookahead_multiproc::{SimConfig, SimOutcome, Simulator};
use lookahead_trace::{NullSink, TraceChunk, TraceEntry, TraceSink};
use lookahead_workloads::{App, BuiltWorkload};
use std::time::{Duration, Instant};

/// A sink that records the exact arrival order and boundaries of every
/// chunk, plus the reassembled per-processor entry streams.
#[derive(Default)]
struct RecordingSink {
    /// `(proc, first_index, len)` per accepted chunk, in arrival order.
    boundaries: Vec<(usize, u64, usize)>,
    /// Reassembled entries per processor.
    entries: Vec<Vec<TraceEntry>>,
}

impl RecordingSink {
    fn new(num_procs: usize) -> RecordingSink {
        RecordingSink {
            boundaries: Vec::new(),
            entries: vec![Vec::new(); num_procs],
        }
    }
}

impl TraceSink for RecordingSink {
    fn accept(&mut self, proc: usize, chunk: &TraceChunk) -> std::io::Result<()> {
        assert_eq!(
            chunk.first_index,
            self.entries[proc].len() as u64,
            "chunks of one processor arrive in trace order"
        );
        self.boundaries.push((proc, chunk.first_index, chunk.len()));
        self.entries[proc].extend(chunk.iter());
        Ok(())
    }
}

/// Runs `program` under both engines and asserts byte identity of
/// traces, chunk boundaries, breakdowns, finish times, and (when the
/// run errors) the error rendering.
fn assert_engines_agree(program: &Program, image: &DataImage, config: &SimConfig, label: &str) {
    let mut ev_sink = RecordingSink::new(config.num_procs);
    let event = Simulator::new(program.clone(), image.clone(), *config)
        .unwrap()
        .run_with_sink(&mut ev_sink);
    let mut rf_sink = RecordingSink::new(config.num_procs);
    let reference = Simulator::new(program.clone(), image.clone(), *config)
        .unwrap()
        .run_reference_with_sink(&mut rf_sink);
    match (&event, &reference) {
        (Ok(ev), Ok(rf)) => {
            assert_outcomes_match(ev, rf, label);
            assert_eq!(
                ev_sink.boundaries, rf_sink.boundaries,
                "{label}: chunk arrival order / boundaries differ"
            );
            assert_eq!(
                ev_sink.entries, rf_sink.entries,
                "{label}: trace bytes differ"
            );
        }
        (Err(ev), Err(rf)) => {
            assert_eq!(ev.to_string(), rf.to_string(), "{label}: errors differ");
        }
        (ev, rf) => panic!(
            "{label}: engines disagree on success: event={ev:?} reference={rf:?}",
            ev = ev.as_ref().map(|_| "ok"),
            rf = rf.as_ref().map(|_| "ok"),
        ),
    }
}

fn assert_outcomes_match(ev: &SimOutcome, rf: &SimOutcome, label: &str) {
    assert_eq!(
        ev.entry_counts, rf.entry_counts,
        "{label}: entry counts differ"
    );
    assert_eq!(ev.breakdowns, rf.breakdowns, "{label}: breakdowns differ");
    assert_eq!(
        ev.finish_times, rf.finish_times,
        "{label}: finish times differ"
    );
    assert_eq!(
        ev.total_cycles, rf.total_cycles,
        "{label}: total cycles differ"
    );
}

fn config(num_procs: usize, miss_penalty: u32, bandwidth: Option<usize>) -> SimConfig {
    SimConfig {
        num_procs,
        mem: MemoryParams {
            miss_penalty,
            ..MemoryParams::LATENCY_50
        },
        memory_bandwidth: bandwidth,
        max_cycles: 200_000_000,
        ..SimConfig::default()
    }
}

// ---------------------------------------------------------------------
// Real applications: apps × sizes × CPU counts × latencies × bandwidth.
// ---------------------------------------------------------------------

#[test]
fn small_apps_match_across_cpu_counts() {
    for app in App::ALL {
        let w = app.small_workload();
        for &n in &[2usize, 4, 16] {
            let built = w.build(n);
            assert_engines_agree(
                &built.program,
                &built.image,
                &config(n, 50, None),
                &format!("{app} small, {n} procs"),
            );
        }
    }
}

#[test]
fn small_apps_match_under_high_latency_and_bandwidth_limit() {
    for app in App::ALL {
        let w = app.small_workload();
        let built = w.build(4);
        assert_engines_agree(
            &built.program,
            &built.image,
            &config(4, 100, None),
            &format!("{app} small, latency 100"),
        );
        assert_engines_agree(
            &built.program,
            &built.image,
            &config(4, 50, Some(2)),
            &format!("{app} small, bandwidth 2"),
        );
        // The speed gate's own inputs: whatever it times must agree.
        let built = w.build(16);
        assert_engines_agree(
            &built.program,
            &built.image,
            &config(16, 100, None),
            &format!("{app} small, 16 procs, latency 100"),
        );
    }
}

#[test]
fn default_tier_app_matches_at_paper_geometry() {
    // One default-size application at the paper's 16 processors keeps
    // the suite honest at realistic scale without taking minutes.
    let built = App::Lu.default_workload().build(16);
    assert_engines_agree(
        &built.program,
        &built.image,
        &config(16, 50, None),
        "LU default, 16 procs",
    );
}

#[test]
fn small_app_matches_at_64_cpus() {
    let built = App::Ocean.small_workload().build(64);
    assert_engines_agree(
        &built.program,
        &built.image,
        &config(64, 50, None),
        "OCEAN small, 64 procs",
    );
}

/// The event engine must stay at least this much faster than the
/// reference stepper on [`event_engine_outruns_the_reference_stepper`]'s
/// workload.
const MIN_SPEEDUP: f64 = 1.2;

/// Best-of-3 wall time of one cold generation, simulator construction
/// included, chunks discarded.
fn best_of_3(built: &BuiltWorkload, config: &SimConfig, event: bool) -> Duration {
    (0..3)
        .map(|_| {
            let started = Instant::now();
            let sim = Simulator::new(built.program.clone(), built.image.clone(), *config).unwrap();
            let out = if event {
                sim.run_with_sink(&mut NullSink)
            } else {
                sim.run_reference_with_sink(&mut NullSink)
            };
            let wall = started.elapsed();
            out.unwrap();
            wall
        })
        .min()
        .unwrap()
}

/// The speed gate: cold generation of the five small-tier applications
/// at 16 processors and a 100-cycle miss penalty, best of 3 per engine.
/// The summed reference walls over the summed event walls must reach
/// [`MIN_SPEEDUP`].
#[test]
#[ignore = "timing: run in release with --include-ignored"]
fn event_engine_outruns_the_reference_stepper() {
    let config = SimConfig {
        num_procs: 16,
        mem: MemoryParams::with_miss_penalty(100),
        ..SimConfig::default()
    };
    let (mut event, mut reference) = (Duration::ZERO, Duration::ZERO);
    for app in App::ALL {
        let built = app.small_workload().build(config.num_procs);
        let (ev, rf) = (
            best_of_3(&built, &config, true),
            best_of_3(&built, &config, false),
        );
        eprintln!("{app}: event {ev:?}, reference {rf:?}");
        event += ev;
        reference += rf;
    }
    let speedup = reference.as_secs_f64() / event.as_secs_f64();
    eprintln!("event-engine speedup: {speedup:.2}x (gate {MIN_SPEEDUP}x)");
    assert!(
        speedup >= MIN_SPEEDUP,
        "the event engine is only {speedup:.2}x the reference stepper \
         (event {event:?}, reference {reference:?}); the gate is {MIN_SPEEDUP}x"
    );
}

// ---------------------------------------------------------------------
// Randomized synthetic sync mixes.
// ---------------------------------------------------------------------

/// In-tree deterministic generator (same xorshift64 idiom as PR 1).
struct XorShift64(u64);

impl XorShift64 {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }
}

/// A random SPMD program over shared locks/events/barriers and a
/// shared array. Every phase is one of:
///
/// * a compute burst (ALU chain);
/// * a strided sweep over the shared array (loads + stores → cache
///   misses, write-buffer pressure, coherence traffic);
/// * a lock-protected increment of a shared counter (contention,
///   waits);
/// * a producer/consumer event phase: processor 0 publishes then sets
///   a fresh event slot, everyone else waits on it;
/// * a barrier.
///
/// The program ends with a barrier so every generated phase is
/// exercised by all processors.
fn random_program(rng: &mut XorShift64) -> (Program, DataImage) {
    let mut image = DataImage::new();
    let lock_a = image.alloc_words(1);
    let lock_b = image.alloc_words(1);
    let bar = image.alloc_words(1);
    // One fresh event word per possible event phase (events are
    // one-shot; reuse would make later waits fall through instantly,
    // which is legal but less interesting).
    let n_event_slots = 8usize;
    let events = image.alloc_words(n_event_slots);
    image.align_to(16);
    let counter = image.alloc_words(1);
    image.align_to(16);
    let array_len = 64usize;
    let array = image.alloc_words(array_len);

    let mut a = Assembler::new();
    a.li(IntReg::G0, lock_a as i64);
    a.li(IntReg::G1, counter as i64);
    a.li(IntReg::G2, array as i64);
    a.li(IntReg::G3, bar as i64);

    let phases = 3 + rng.below(6);
    let mut used_events = 0usize;
    for _ in 0..phases {
        match rng.below(5) {
            0 => {
                // Compute burst.
                let len = 1 + rng.below(12) as i64;
                a.li(IntReg::T0, 0);
                a.for_range(IntReg::T1, 0, len, |a| {
                    a.addi(IntReg::T0, IntReg::T0, 1);
                });
            }
            1 => {
                // Strided sweep: each processor reads/writes slots
                // id, id+stride, ... over the shared array.
                let stride = 1 + rng.below(4) as i64;
                let iters = (array_len as i64) / stride.max(1) / 2;
                a.li(IntReg::T3, 0); // running index accumulator
                a.add(IntReg::T3, IntReg::A0, IntReg::ZERO);
                a.for_range(IntReg::S1, 0, iters.max(1), |a| {
                    // index = (T3 mod array_len), then T3 += stride
                    a.alu_imm(AluOp::Rem, IntReg::T4, IntReg::T3, array_len as i64);
                    a.index_word(IntReg::T5, IntReg::G2, IntReg::T4);
                    a.load(IntReg::T6, IntReg::T5, 0);
                    a.addi(IntReg::T6, IntReg::T6, 1);
                    a.store(IntReg::T6, IntReg::T5, 0);
                    a.addi(IntReg::T3, IntReg::T3, stride);
                });
            }
            2 => {
                // Lock-protected shared counter (alternate two locks).
                let lock = if rng.below(2) == 0 { lock_a } else { lock_b };
                a.li(IntReg::T7, lock as i64);
                a.lock(IntReg::T7, 0);
                a.load(IntReg::T0, IntReg::G1, 0);
                a.addi(IntReg::T0, IntReg::T0, 1);
                a.store(IntReg::T0, IntReg::G1, 0);
                a.unlock(IntReg::T7, 0);
            }
            3 if used_events < n_event_slots => {
                // Producer/consumer: proc 0 publishes and sets a fresh
                // event; everyone else waits on it.
                let ev = events + (used_events as u64) * 8;
                used_events += 1;
                a.li(IntReg::S2, ev as i64);
                a.if_then_else(
                    BranchCond::Eq,
                    IntReg::A0,
                    IntReg::ZERO,
                    |a| {
                        a.li(IntReg::T0, 7);
                        a.store(IntReg::T0, IntReg::G1, 0);
                        a.set_event(IntReg::S2, 0);
                    },
                    |a| {
                        a.wait_event(IntReg::S2, 0);
                        a.load(IntReg::T0, IntReg::G1, 0);
                    },
                );
            }
            _ => {
                a.barrier(IntReg::G3, 0);
            }
        }
    }
    a.barrier(IntReg::G3, 0);
    a.halt();
    (a.assemble().unwrap(), image)
}

#[test]
fn randomized_sync_mixes_match() {
    for seed in 1u64..=24 {
        let mut rng = XorShift64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
        let num_procs = [1usize, 2, 3, 4, 8, 16, 64][rng.below(7) as usize];
        let miss_penalty = [50u32, 100][rng.below(2) as usize];
        let bandwidth = [None, Some(2usize)][rng.below(2) as usize];
        let (program, image) = random_program(&mut rng);
        assert_engines_agree(
            &program,
            &image,
            &config(num_procs, miss_penalty, bandwidth),
            &format!("seed {seed}: {num_procs} procs, penalty {miss_penalty}, bw {bandwidth:?}"),
        );
    }
}

#[test]
fn deadlock_and_cycle_limit_render_identically() {
    // Double-acquire deadlock.
    let mut image = DataImage::new();
    let lock = image.alloc_words(1);
    let mut a = Assembler::new();
    a.li(IntReg::G0, lock as i64);
    a.lock(IntReg::G0, 0);
    a.lock(IntReg::G0, 0);
    a.halt();
    let program = a.assemble().unwrap();
    assert_engines_agree(&program, &image, &config(2, 50, None), "double lock");

    // Infinite loop under a tight cycle budget.
    let mut a = Assembler::new();
    let top = a.label();
    a.bind(top).unwrap();
    a.li(IntReg::T0, 1);
    a.jump(top);
    let program = a.assemble().unwrap();
    let mut cfg = config(2, 50, None);
    cfg.max_cycles = 500;
    assert_engines_agree(&program, &DataImage::new(), &cfg, "cycle limit");
}

#[test]
fn collected_run_matches_reference_traces_too() {
    // `run()` (CollectSink) and `run_reference()` agree on the full
    // `SimOutcome`, including materialized traces and final memory.
    let built = App::Mp3d.small_workload().build(4);
    let cfg = config(4, 50, None);
    let ev = Simulator::new(built.program.clone(), built.image.clone(), cfg)
        .unwrap()
        .run()
        .unwrap();
    let rf = Simulator::new(built.program, built.image, cfg)
        .unwrap()
        .run_reference()
        .unwrap();
    assert_eq!(ev.traces, rf.traces);
    assert_outcomes_match(&ev, &rf, "MP3D collected");
    (built.verify)(&ev.final_memory).expect("event engine result verifies");
    (built.verify)(&rf.final_memory).expect("reference engine result verifies");
}
