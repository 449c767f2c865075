//! The whole stack is deterministic: building and simulating the same
//! workload twice produces identical traces, statistics and
//! re-timings, and traces survive a serialization round trip.

use lookahead_core::ds::{Ds, DsConfig};
use lookahead_core::model::ProcessorModel;
use lookahead_harness::pipeline::AppRun;
use lookahead_multiproc::{SimConfig, Simulator};
use lookahead_trace::storage::{read_archive_info, validate_archive_chunks, ChunkReader};
use lookahead_trace::{collect_source, Trace};
use lookahead_workloads::App;
use std::io::Cursor;

fn config() -> SimConfig {
    SimConfig {
        num_procs: 4,
        ..SimConfig::default()
    }
}

#[test]
fn identical_runs_produce_identical_traces() {
    for app in [App::Mp3d, App::Pthor, App::Locus] {
        let w1 = app.small_workload();
        let w2 = app.small_workload();
        let r1 = AppRun::generate(w1.as_ref(), &config()).unwrap();
        let r2 = AppRun::generate(w2.as_ref(), &config()).unwrap();
        assert_eq!(r1.proc, r2.proc, "{app}");
        assert_eq!(r1.trace(), r2.trace(), "{app}: traces differ between runs");
        assert_eq!(r1.mp_cycles, r2.mp_cycles, "{app}");
    }
}

#[test]
fn retiming_is_deterministic() {
    let run = AppRun::generate(App::Lu.small_workload().as_ref(), &config()).unwrap();
    let ds = Ds::new(DsConfig::rc().window(64));
    let a = ds.run(&run.program, run.trace());
    let b = ds.run(&run.program, run.trace());
    assert_eq!(a, b);
}

/// Reads processor `proc`'s trace back the way the trace cache does:
/// header and trailer, one validation pass over every chunk, then a
/// chunk reader through the pass's index.
fn read_back(bytes: &[u8], proc: usize) -> Trace {
    let info = read_archive_info(Cursor::new(bytes)).unwrap();
    let index = validate_archive_chunks(Cursor::new(bytes), &info).unwrap();
    collect_source(&mut ChunkReader::new(Cursor::new(bytes), &info, &index, proc).unwrap()).unwrap()
}

#[test]
fn traces_round_trip_through_storage() {
    // The reference never went through an archive: the traces the
    // simulator collects in memory.
    let built = App::Ocean.small_workload().build(config().num_procs);
    let sim = Simulator::new(built.program, built.image, config()).unwrap();
    let collected = sim.run().unwrap();
    let run = AppRun::generate(App::Ocean.small_workload().as_ref(), &config()).unwrap();
    assert_eq!(run.proc, collected.busiest_proc());
    let mut bytes = Vec::new();
    run.write_archive(&mut bytes).unwrap();
    for (p, reference) in collected.traces.iter().enumerate() {
        assert_eq!(read_back(&bytes, p), *reference, "processor {p}");
    }
    // And the archived trace re-times identically, streamed or not.
    let reference = &collected.traces[run.proc];
    let ds = Ds::new(DsConfig::rc().window(32));
    let expected = ds.run(&run.program, reference);
    assert_eq!(run.retime(&ds), expected);
    assert_eq!(ds.run(&run.program, &read_back(&bytes, run.proc)), expected);
}
