//! Property tests that pin the LKTR wire format.
//!
//! The on-disk trace cache trusts the archive read path — header and
//! trailer ([`read_archive_info`]), one validation pass over every
//! chunk ([`validate_archive_chunks`]), then one [`ChunkReader`] per
//! processor through the index that pass returns — to either reproduce the exact run that was stored or
//! fail with a typed error so the caller regenerates. These tests
//! enforce that contract from outside the crate: randomized archives
//! round-trip exactly, and *every* single-bit flip, *every* truncation
//! and thousands of seeded mutations of an encoded archive yield an
//! error or the stored run — never a panic, never a silently wrong
//! answer.

use std::collections::BTreeMap;
use std::io::Cursor;

use lookahead_isa::rng::XorShift64;
use lookahead_isa::{
    AluOp, BranchCond, FpCmpOp, FpReg, FpuOp, Instruction, IntReg, Program, SyncKind,
};
use lookahead_trace::storage::{
    read_archive_info, validate_archive_chunks, ArchiveWriter, ChunkReader,
};
use lookahead_trace::{
    collect_source, fnv1a, Breakdown, DecodeError, MemAccess, SliceSource, StreamError, SyncAccess,
    Trace, TraceEntry, TraceOp, TraceSink, TraceSource,
};

const SYNC_KINDS: [SyncKind; 5] = [
    SyncKind::Lock,
    SyncKind::Unlock,
    SyncKind::Barrier,
    SyncKind::WaitEvent,
    SyncKind::SetEvent,
];

fn nonzero_u32(rng: &mut XorShift64) -> u32 {
    (rng.next_below(u32::MAX as u64) + 1) as u32
}

/// One random entry; the tag distribution covers all six record kinds.
fn gen_entry(rng: &mut XorShift64) -> TraceEntry {
    let pc = rng.next_u64() as u32;
    let op = match rng.next_below(6) {
        0 => TraceOp::Compute,
        1 => TraceOp::Load(MemAccess {
            addr: rng.next_u64(),
            miss: rng.next_bool(),
            latency: nonzero_u32(rng),
        }),
        2 => TraceOp::Store(MemAccess {
            addr: rng.next_u64(),
            miss: rng.next_bool(),
            latency: nonzero_u32(rng),
        }),
        3 => TraceOp::Branch {
            taken: rng.next_bool(),
            target: rng.next_u64() as u32,
        },
        4 => TraceOp::Jump {
            target: rng.next_u64() as u32,
        },
        _ => TraceOp::Sync(SyncAccess {
            kind: *rng.choose(&SYNC_KINDS),
            addr: rng.next_u64(),
            wait: rng.next_u64() as u32,
            access: nonzero_u32(rng),
        }),
    };
    TraceEntry { pc, op }
}

fn gen_trace(rng: &mut XorShift64, max_len: usize) -> Trace {
    let len = rng.range_usize(max_len + 1);
    Trace::from_entries((0..len).map(|_| gen_entry(rng)).collect())
}

/// A program exercising every instruction variant and every label
/// path of the codec, with extreme immediates.
fn every_instruction_program() -> Program {
    let r = |i: usize| IntReg::new(i).unwrap();
    let f = |i: usize| FpReg::new(i).unwrap();
    let instrs = vec![
        Instruction::Alu {
            op: AluOp::Add,
            rd: r(1),
            rs1: r(2),
            rs2: r(3),
        },
        Instruction::AluImm {
            op: AluOp::Xor,
            rd: r(4),
            rs1: r(5),
            imm: i64::MIN,
        },
        Instruction::LoadImm {
            rd: r(6),
            imm: i64::MAX,
        },
        Instruction::LoadImmF {
            fd: f(0),
            value: f64::MIN_POSITIVE,
        },
        Instruction::Fpu {
            op: FpuOp::Sqrt,
            fd: f(1),
            fs1: f(2),
            fs2: f(3),
        },
        Instruction::FpCmp {
            op: FpCmpOp::Le,
            rd: r(7),
            fs1: f(4),
            fs2: f(5),
        },
        Instruction::IntToFp { fd: f(6), rs: r(8) },
        Instruction::FpToInt { rd: r(9), fs: f(7) },
        Instruction::Load {
            rd: r(10),
            base: r(11),
            offset: -8,
        },
        Instruction::Store {
            rs: r(12),
            base: r(13),
            offset: 16,
        },
        Instruction::LoadF {
            fd: f(8),
            base: r(14),
            offset: i64::MIN,
        },
        Instruction::StoreF {
            fs: f(9),
            base: r(15),
            offset: i64::MAX,
        },
        Instruction::Branch {
            cond: BranchCond::Ge,
            rs1: r(16),
            rs2: r(17),
            target: 0,
        },
        Instruction::Jump { target: 5 },
        Instruction::JumpAndLink {
            rd: r(18),
            target: 2,
        },
        Instruction::JumpReg { rs: r(19) },
        Instruction::Sync {
            kind: SyncKind::Barrier,
            base: r(20),
            offset: 32,
        },
        Instruction::Nop,
        Instruction::Halt,
    ];
    let mut labels = BTreeMap::new();
    labels.insert(0, "entry".to_string());
    labels.insert(12, "loop_head".to_string());
    Program::with_labels(instrs, labels)
}

/// A generated run as the archive must reproduce it: header and
/// trailer fields plus every processor's trace.
#[derive(Debug, Clone, PartialEq)]
struct Run {
    key: String,
    app: String,
    proc: u32,
    mp_cycles: u64,
    breakdowns: Vec<Breakdown>,
    program: Program,
    traces: Vec<Trace>,
}

fn sample_archive(rng: &mut XorShift64, max_trace_len: usize) -> Run {
    let num_procs = 1 + rng.range_usize(4);
    let traces: Vec<Trace> = (0..num_procs)
        .map(|_| gen_trace(rng, max_trace_len))
        .collect();
    let breakdowns = (0..num_procs)
        .map(|_| Breakdown {
            busy: rng.next_u64(),
            sync: rng.next_u64(),
            read: rng.next_u64(),
            write: rng.next_u64(),
        })
        .collect();
    Run {
        key: "lktr-v3;app=LU;tier=small;procs=4;cache=16384/16/1;hit=1;miss=50;wb=16;\
              membytes=1048576;maxcycles=0;bw=none"
            .to_string(),
        app: "LU".to_string(),
        proc: rng.range_usize(num_procs) as u32,
        mp_cycles: rng.next_u64(),
        breakdowns,
        program: every_instruction_program(),
        traces,
    }
}

/// A one-processor run holding `trace`.
fn single(trace: Trace) -> Run {
    Run {
        key: "k".to_string(),
        app: "LU".to_string(),
        proc: 0,
        mp_cycles: 1,
        breakdowns: vec![Breakdown::default()],
        program: Program::new(vec![Instruction::Halt]),
        traces: vec![trace],
    }
}

/// Chunk length of the encoded fixtures: small, so every archive holds
/// several chunk records per processor.
const CHUNK_LEN: usize = 5;

/// Writes `run` through [`ArchiveWriter`], as the cache stores a run.
fn encode_archive(run: &Run) -> Vec<u8> {
    let mut buf = Vec::new();
    let mut w =
        ArchiveWriter::new(&mut buf, &run.key, &run.app, run.traces.len(), &run.program).unwrap();
    for (proc, trace) in run.traces.iter().enumerate() {
        let mut src = SliceSource::with_chunk_len(trace, CHUNK_LEN);
        while let Some(chunk) = src.next_chunk().unwrap() {
            w.accept(proc, &chunk).unwrap();
        }
    }
    w.finish(run.proc as usize, run.mp_cycles, &run.breakdowns)
        .unwrap();
    buf
}

/// Reads an archive the way the cache does: header and trailer, one
/// validation pass over every chunk, then one chunk reader per
/// processor through the pass's index.
fn decode_archive(bytes: &[u8]) -> Result<Run, StreamError> {
    let info = read_archive_info(Cursor::new(bytes))?;
    let index = validate_archive_chunks(Cursor::new(bytes), &info)?;
    let traces = (0..info.num_procs())
        .map(|p| collect_source(&mut ChunkReader::new(Cursor::new(bytes), &info, &index, p)?))
        .collect::<Result<_, _>>()?;
    Ok(Run {
        key: info.key,
        app: info.app,
        proc: info.proc,
        mp_cycles: info.mp_cycles,
        breakdowns: info.breakdowns,
        program: info.program,
        traces,
    })
}

/// Round-trips one trace through a one-processor archive.
fn roundtrip_trace(trace: &Trace) -> Trace {
    let back = decode_archive(&encode_archive(&single(trace.clone()))).unwrap();
    back.traces.into_iter().next().unwrap()
}

#[test]
fn randomized_archives_roundtrip_exactly() {
    for seed in 0..48u64 {
        let mut rng = XorShift64::seed_from_u64(0x5eed_0000 + seed);
        let archive = sample_archive(&mut rng, 60);
        let buf = encode_archive(&archive);
        let back = decode_archive(&buf).expect("decode of own encoding must succeed");
        assert_eq!(archive, back, "seed {seed} did not round-trip");
    }
}

#[test]
fn extreme_latencies_and_addresses_roundtrip() {
    let entries = vec![
        TraceEntry {
            pc: u32::MAX,
            op: TraceOp::Load(MemAccess {
                addr: u64::MAX,
                miss: true,
                latency: u32::MAX,
            }),
        },
        TraceEntry {
            pc: 0,
            op: TraceOp::Store(MemAccess {
                addr: 0,
                miss: false,
                latency: 1,
            }),
        },
        TraceEntry {
            pc: 1,
            op: TraceOp::Branch {
                taken: true,
                target: u32::MAX,
            },
        },
    ];
    let trace = Trace::from_entries(entries);
    let back = roundtrip_trace(&trace);
    assert_eq!(trace.entries(), back.entries());
}

#[test]
fn acquire_wait_access_split_is_preserved_exactly() {
    // The wait component may legitimately be zero (uncontended lock)
    // or enormous (barrier imbalance); the access component is a
    // memory latency and must stay nonzero. Both extremes round-trip.
    for (wait, access) in [(0u32, u32::MAX), (u32::MAX, 1u32)] {
        let trace = Trace::from_entries(vec![TraceEntry {
            pc: 7,
            op: TraceOp::Sync(SyncAccess {
                kind: SyncKind::Lock,
                addr: 0xdead_beef,
                wait,
                access,
            }),
        }]);
        let back = roundtrip_trace(&trace);
        assert_eq!(trace.entries(), back.entries());
    }
}

#[test]
fn zero_sync_access_latency_is_rejected() {
    // The writer does not validate; the reader must. A zero access
    // latency would let a timing model hide a sync for free.
    let trace = Trace::from_entries(vec![TraceEntry {
        pc: 0,
        op: TraceOp::Sync(SyncAccess {
            kind: SyncKind::Unlock,
            addr: 8,
            wait: 3,
            access: 0,
        }),
    }]);
    let buf = encode_archive(&single(trace));
    assert!(matches!(
        decode_archive(&buf),
        Err(StreamError::Decode(DecodeError::BadLatency))
    ));
}

#[test]
fn every_truncation_of_a_trace_is_a_typed_error() {
    let mut rng = XorShift64::seed_from_u64(0xabcd);
    let buf = encode_archive(&single(gen_trace(&mut rng, 24)));
    for cut in 0..buf.len() {
        match decode_archive(&buf[..cut]) {
            Err(_) => {}
            Ok(_) => panic!(
                "prefix of {cut}/{} bytes decoded as a full trace",
                buf.len()
            ),
        }
    }
}

#[test]
fn every_truncation_of_an_archive_is_a_typed_error() {
    let mut rng = XorShift64::seed_from_u64(0xfeed);
    let archive = sample_archive(&mut rng, 16);
    let buf = encode_archive(&archive);
    for cut in 0..buf.len() {
        match decode_archive(&buf[..cut]) {
            Err(_) => {}
            Ok(_) => panic!(
                "prefix of {cut}/{} bytes decoded as a full archive",
                buf.len()
            ),
        }
    }
}

#[test]
fn every_single_bit_flip_of_an_archive_is_detected() {
    // FNV-1a's per-byte XOR-then-multiply chain means a single flipped
    // input bit always changes the final hash, so a flip anywhere in
    // the header, a chunk record or the trailer is caught by that
    // section's checksum even when it still parses structurally;
    // flips in the magic, version, end sentinel or trailer length are
    // caught by their own checks. Every flip must surface as Err, not
    // as a panic and never as an Ok with altered contents.
    let mut rng = XorShift64::seed_from_u64(0xb17f);
    let archive = sample_archive(&mut rng, 8);
    let buf = encode_archive(&archive);
    assert!(buf.len() < 8192, "keep the fixture small: {}", buf.len());
    for byte in 0..buf.len() {
        for bit in 0..8 {
            let mut corrupt = buf.clone();
            corrupt[byte] ^= 1 << bit;
            match decode_archive(&corrupt) {
                Err(_) => {}
                Ok(_) => panic!("flip of bit {bit} in byte {byte} went undetected"),
            }
        }
    }
}

#[test]
fn bit_flips_that_parse_structurally_fail_the_checksum() {
    // Flip one bit inside a trace entry's effective address: the
    // chunk still parses, so only its checksum can catch it.
    let archive = single(Trace::from_entries(vec![TraceEntry {
        pc: 0,
        op: TraceOp::Load(MemAccess {
            addr: 0,
            miss: false,
            latency: 9,
        }),
    }]));
    let mut buf = encode_archive(&archive);
    // The only chunk record starts where the header ends: a 28-byte
    // record header, then the entry (pc u32, tag u8, miss u8, addr
    // u64, latency u32). Flip a bit in the middle of the addr.
    let info = read_archive_info(Cursor::new(&buf)).unwrap();
    let target = info.chunks_start as usize + 28 + 6 + 3;
    buf[target] ^= 0x10;
    match decode_archive(&buf) {
        Err(StreamError::Decode(DecodeError::BadChecksum { stored, computed })) => {
            assert_ne!(stored, computed);
        }
        other => panic!("expected BadChecksum, got {other:?}"),
    }
}

#[test]
fn version_confusion_is_rejected() {
    // The retired containers share the magic: version 1 held a bare
    // trace, version 2 a whole archive. Neither may decode as this one.
    let mut rng = XorShift64::seed_from_u64(0x77);
    let archive_bytes = encode_archive(&sample_archive(&mut rng, 4));
    for version in [1u8, 2] {
        let mut old = archive_bytes.clone();
        old[4] = version;
        assert!(
            matches!(
                decode_archive(&old),
                Err(StreamError::Decode(DecodeError::BadVersion(v))) if v == version
            ),
            "a version-{version} file must not decode as a v3 archive"
        );
    }
}

#[test]
fn out_of_range_representative_proc_is_rejected() {
    let mut rng = XorShift64::seed_from_u64(0x99);
    let mut archive = sample_archive(&mut rng, 4);
    archive.proc = archive.traces.len() as u32 + 3;
    let buf = encode_archive(&archive);
    match decode_archive(&buf) {
        Err(StreamError::Decode(DecodeError::BadCode { what, .. })) => {
            assert_eq!(what, "representative processor index");
        }
        other => panic!("expected BadCode, got {other:?}"),
    }
}

#[test]
fn bytes_between_the_end_sentinel_and_the_trailer_are_rejected() {
    let mut rng = XorShift64::seed_from_u64(0x7a11);
    let archive = sample_archive(&mut rng, 30);
    let clean = encode_archive(&archive);
    let trailer_len = u32::from_le_bytes(clean[clean.len() - 4..].try_into().unwrap()) as usize;
    let trailer_start = clean.len() - trailer_len - 12;
    assert_eq!(
        clean[trailer_start - 4..trailer_start],
        u32::MAX.to_le_bytes(),
        "the end sentinel sits right before the trailer"
    );
    for gap in [1, 14] {
        let mut buf = clean.clone();
        buf.splice(trailer_start..trailer_start, vec![0xA5; gap]);
        match decode_archive(&buf) {
            Err(StreamError::Decode(DecodeError::BadCode { what, .. })) => {
                assert_eq!(what, "end sentinel offset", "{gap}-byte gap");
            }
            other => panic!("{gap}-byte gap: expected BadCode, got {other:?}"),
        }
    }
}

/// One seeded mutation of `buf`: overwrite 1–8 bytes, insert or
/// delete 1–16 bytes, or rewrite a `u32` with a boundary value.
fn mutate(rng: &mut XorShift64, buf: &mut Vec<u8>) {
    let pos = rng.range_usize(buf.len());
    match rng.next_below(4) {
        0 => {
            let n = (1 + rng.range_usize(8)).min(buf.len() - pos);
            for b in &mut buf[pos..pos + n] {
                *b = rng.next_u64() as u8;
            }
        }
        1 => {
            let n = 1 + rng.range_usize(16);
            let bytes: Vec<u8> = (0..n).map(|_| rng.next_u64() as u8).collect();
            buf.splice(pos..pos, bytes);
        }
        2 => {
            let n = (1 + rng.range_usize(16)).min(buf.len() - pos);
            buf.drain(pos..pos + n);
        }
        _ => {
            let pos = pos.min(buf.len() - 4);
            let word = match rng.next_below(6) {
                0 => 0,
                1 => 1,
                2 => u32::MAX,
                3 => 1 << 24,
                4 => 1 << 29,
                _ => rng.next_u64() as u32,
            };
            buf[pos..pos + 4].copy_from_slice(&word.to_le_bytes());
        }
    }
}

/// `cases` seeded mutations of one archive drawn from `seed`: each
/// either fails to decode or, having changed nothing, decodes to the
/// stored run.
fn mutations_either_fail_or_decode_the_stored_run(seed: u64, cases: usize) {
    let mut rng = XorShift64::seed_from_u64(seed);
    let archive = sample_archive(&mut rng, 40);
    let clean = encode_archive(&archive);
    let mut errors = 0;
    for case in 0..cases {
        let mut buf = clean.clone();
        mutate(&mut rng, &mut buf);
        match decode_archive(&buf) {
            Err(_) => errors += 1,
            Ok(back) => {
                assert!(
                    back == archive,
                    "case {case}: a mutated archive decoded to a different run"
                );
                // Every byte of the file is checked, so only a mutation
                // that changed nothing may still decode.
                assert!(
                    buf == clean,
                    "case {case}: a changed archive decoded as the stored run"
                );
            }
        }
    }
    // Most mutations must actually damage the archive; a fuzzer whose
    // mutations never land would pass vacuously.
    assert!(
        errors * 10 > cases * 9,
        "only {errors}/{cases} cases failed"
    );
}

#[test]
fn seeded_mutations_either_fail_or_decode_the_stored_run() {
    mutations_either_fail_or_decode_the_stored_run(0xf022, 3000);
}

/// The long budget: run in release with `--include-ignored`.
#[test]
#[ignore = "long fuzz budget; run in release with --include-ignored"]
fn seeded_mutations_either_fail_or_decode_the_stored_run_long() {
    mutations_either_fail_or_decode_the_stored_run(0x5eed_0001, 60_000);
}

#[test]
fn fnv1a_matches_published_test_vectors() {
    // Draft-eastlake FNV-1a 64-bit vectors; the cache's file naming
    // and the archive checksum both depend on these exact values.
    assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
}
