//! Compact binary serialization of traces.
//!
//! Traces for realistic workload sizes run to millions of entries;
//! regenerating them for every experiment is wasteful. This module
//! provides a simple, versioned binary format so the harness can cache
//! generated runs on disk between experiments.
//!
//! There is one container, `LKTR` version 3
//! ([`ArchiveWriter`]/[`ArchiveInfo`]/[`ChunkReader`]): a complete
//! generated run in *chunked* form — a checksummed header (cache key,
//! application, program), a stream of per-chunk-checksummed
//! [`TraceChunk`] records (interleavable
//! across processors, so the writer can run concurrently with trace
//! generation), and a checksummed trailer (run statistics) found via a
//! trailing length word. A [`ChunkIndex`] says where each processor's
//! records lie; the writer builds it as it writes and the validation
//! pass as it checks a file, and readers seek through it to stream one
//! processor's chunks straight off disk without reading the others.
//! Files in the retired version-1 (bare trace) and version-2
//! (whole-archive) layouts share the magic and are refused with
//! [`DecodeError::BadVersion`].

use crate::breakdown::Breakdown;
use crate::record::{TraceEntry, TraceOp};
use crate::stream::{
    kind_byte, ChunkMeta, OpClass, StreamError, TraceChunk, TraceSink, TraceSource,
};
use lookahead_isa::{
    AluOp, BranchCond, FpCmpOp, FpReg, FpuOp, Instruction, IntReg, Program, SyncKind,
};
use std::collections::BTreeMap;
use std::fmt;
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"LKTR";

/// Version byte of the archive container (the chunked v3 layout). Part
/// of the cache fingerprint: bump it whenever the encoding changes and
/// every stale cache entry is regenerated instead of misread.
pub const ARCHIVE_VERSION: u8 = 3;

const TAG_COMPUTE: u8 = 0;
const TAG_LOAD: u8 = 1;
const TAG_STORE: u8 = 2;
const TAG_BRANCH: u8 = 3;
const TAG_JUMP: u8 = 4;
const TAG_SYNC: u8 = 5;

/// Errors produced when decoding a trace stream.
#[derive(Debug)]
pub enum DecodeError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Stream did not start with the trace magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u8),
    /// Unknown record tag.
    BadTag(u8),
    /// Unknown synchronization kind code.
    BadSyncKind(u8),
    /// A memory access with latency zero (the models require >= 1).
    BadLatency,
    /// An out-of-range code for the named field (archive sections:
    /// instruction tags, opcode codes, register indices).
    BadCode {
        /// What was being decoded ("instruction tag", "register", ...).
        what: &'static str,
        /// The offending value.
        code: u64,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadUtf8,
    /// The archive checksum footer does not match the decoded payload
    /// — the file was truncated, bit-flipped or otherwise damaged.
    BadChecksum {
        /// Checksum stored in the footer.
        stored: u64,
        /// Checksum computed over the payload actually read.
        computed: u64,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Io(e) => write!(f, "i/o error reading trace: {e}"),
            DecodeError::BadMagic => write!(f, "not a lookahead trace (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported trace version {v}"),
            DecodeError::BadTag(t) => write!(f, "unknown trace record tag {t}"),
            DecodeError::BadSyncKind(k) => write!(f, "unknown sync kind code {k}"),
            DecodeError::BadLatency => {
                write!(f, "memory access with zero latency (minimum is 1 cycle)")
            }
            DecodeError::BadCode { what, code } => {
                write!(f, "invalid {what} code {code}")
            }
            DecodeError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            DecodeError::BadChecksum { stored, computed } => write!(
                f,
                "archive checksum mismatch (stored {stored:#018x}, computed {computed:#018x}) — \
                 the file is damaged"
            ),
        }
    }
}

impl std::error::Error for DecodeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DecodeError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for DecodeError {
    fn from(e: io::Error) -> DecodeError {
        DecodeError::Io(e)
    }
}

fn sync_kind_code(kind: SyncKind) -> u8 {
    match kind {
        SyncKind::Lock => 0,
        SyncKind::Unlock => 1,
        SyncKind::Barrier => 2,
        SyncKind::WaitEvent => 3,
        SyncKind::SetEvent => 4,
    }
}

fn sync_kind_from_code(code: u8) -> Result<SyncKind, DecodeError> {
    Ok(match code {
        0 => SyncKind::Lock,
        1 => SyncKind::Unlock,
        2 => SyncKind::Barrier,
        3 => SyncKind::WaitEvent,
        4 => SyncKind::SetEvent,
        other => return Err(DecodeError::BadSyncKind(other)),
    })
}

fn write_entry<W: Write>(w: &mut W, e: &TraceEntry) -> io::Result<()> {
    w.write_all(&e.pc.to_le_bytes())?;
    match e.op {
        TraceOp::Compute => w.write_all(&[TAG_COMPUTE])?,
        TraceOp::Load(m) | TraceOp::Store(m) => {
            let tag = if matches!(e.op, TraceOp::Load(_)) {
                TAG_LOAD
            } else {
                TAG_STORE
            };
            w.write_all(&[tag, m.miss as u8])?;
            w.write_all(&m.addr.to_le_bytes())?;
            w.write_all(&m.latency.to_le_bytes())?;
        }
        TraceOp::Branch { taken, target } => {
            w.write_all(&[TAG_BRANCH, taken as u8])?;
            w.write_all(&target.to_le_bytes())?;
        }
        TraceOp::Jump { target } => {
            w.write_all(&[TAG_JUMP])?;
            w.write_all(&target.to_le_bytes())?;
        }
        TraceOp::Sync(s) => {
            w.write_all(&[TAG_SYNC, sync_kind_code(s.kind)])?;
            w.write_all(&s.addr.to_le_bytes())?;
            w.write_all(&s.wait.to_le_bytes())?;
            w.write_all(&s.access.to_le_bytes())?;
        }
    }
    Ok(())
}

fn read_exact<R: Read, const N: usize>(r: &mut R) -> io::Result<[u8; N]> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

// ---------------------------------------------------------------------
// Checksums and the header/trailer field codecs.
// ---------------------------------------------------------------------

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a over `bytes` — the workspace's content fingerprint
/// (used for both the archive footer and the cache-file names; no
/// external hashing crate required).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Reader adapter that folds everything read into an FNV-1a hash.
struct HashingReader<R: Read> {
    inner: R,
    hash: u64,
}

impl<R: Read> HashingReader<R> {
    fn new(inner: R) -> HashingReader<R> {
        HashingReader {
            inner,
            hash: FNV_OFFSET,
        }
    }
}

impl<R: Read> Read for HashingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        for &b in &buf[..n] {
            self.hash ^= b as u64;
            self.hash = self.hash.wrapping_mul(FNV_PRIME);
        }
        Ok(n)
    }
}

fn write_str<W: Write>(w: &mut W, s: &str) -> io::Result<()> {
    w.write_all(&(s.len() as u32).to_le_bytes())?;
    w.write_all(s.as_bytes())
}

fn read_str<R: Read>(r: &mut R) -> Result<String, DecodeError> {
    let len = u32::from_le_bytes(read_exact(r)?) as usize;
    let mut buf = vec![0u8; len.min(1 << 24)];
    if len > buf.len() {
        // A length this large can only come from corruption; don't
        // try to allocate it.
        return Err(DecodeError::BadCode {
            what: "string length",
            code: len as u64,
        });
    }
    r.read_exact(&mut buf)?;
    String::from_utf8(buf).map_err(|_| DecodeError::BadUtf8)
}

// Instruction tags of the archive program section.
const ITAG_ALU: u8 = 0;
const ITAG_ALU_IMM: u8 = 1;
const ITAG_LOAD_IMM: u8 = 2;
const ITAG_LOAD_IMM_F: u8 = 3;
const ITAG_FPU: u8 = 4;
const ITAG_FP_CMP: u8 = 5;
const ITAG_INT_TO_FP: u8 = 6;
const ITAG_FP_TO_INT: u8 = 7;
const ITAG_LOAD: u8 = 8;
const ITAG_STORE: u8 = 9;
const ITAG_LOAD_F: u8 = 10;
const ITAG_STORE_F: u8 = 11;
const ITAG_BRANCH: u8 = 12;
const ITAG_JUMP: u8 = 13;
const ITAG_JUMP_AND_LINK: u8 = 14;
const ITAG_JUMP_REG: u8 = 15;
const ITAG_SYNC: u8 = 16;
const ITAG_NOP: u8 = 17;
const ITAG_HALT: u8 = 18;

fn alu_op_code(op: AluOp) -> u8 {
    match op {
        AluOp::Add => 0,
        AluOp::Sub => 1,
        AluOp::Mul => 2,
        AluOp::Div => 3,
        AluOp::Rem => 4,
        AluOp::And => 5,
        AluOp::Or => 6,
        AluOp::Xor => 7,
        AluOp::Sll => 8,
        AluOp::Srl => 9,
        AluOp::Sra => 10,
        AluOp::Slt => 11,
        AluOp::Sltu => 12,
    }
}

fn alu_op_from_code(code: u8) -> Result<AluOp, DecodeError> {
    Ok(match code {
        0 => AluOp::Add,
        1 => AluOp::Sub,
        2 => AluOp::Mul,
        3 => AluOp::Div,
        4 => AluOp::Rem,
        5 => AluOp::And,
        6 => AluOp::Or,
        7 => AluOp::Xor,
        8 => AluOp::Sll,
        9 => AluOp::Srl,
        10 => AluOp::Sra,
        11 => AluOp::Slt,
        12 => AluOp::Sltu,
        other => {
            return Err(DecodeError::BadCode {
                what: "ALU op",
                code: other as u64,
            })
        }
    })
}

fn fpu_op_code(op: FpuOp) -> u8 {
    match op {
        FpuOp::Add => 0,
        FpuOp::Sub => 1,
        FpuOp::Mul => 2,
        FpuOp::Div => 3,
        FpuOp::Neg => 4,
        FpuOp::Abs => 5,
        FpuOp::Max => 6,
        FpuOp::Min => 7,
        FpuOp::Sqrt => 8,
    }
}

fn fpu_op_from_code(code: u8) -> Result<FpuOp, DecodeError> {
    Ok(match code {
        0 => FpuOp::Add,
        1 => FpuOp::Sub,
        2 => FpuOp::Mul,
        3 => FpuOp::Div,
        4 => FpuOp::Neg,
        5 => FpuOp::Abs,
        6 => FpuOp::Max,
        7 => FpuOp::Min,
        8 => FpuOp::Sqrt,
        other => {
            return Err(DecodeError::BadCode {
                what: "FPU op",
                code: other as u64,
            })
        }
    })
}

fn fp_cmp_code(op: FpCmpOp) -> u8 {
    match op {
        FpCmpOp::Eq => 0,
        FpCmpOp::Lt => 1,
        FpCmpOp::Le => 2,
    }
}

fn fp_cmp_from_code(code: u8) -> Result<FpCmpOp, DecodeError> {
    Ok(match code {
        0 => FpCmpOp::Eq,
        1 => FpCmpOp::Lt,
        2 => FpCmpOp::Le,
        other => {
            return Err(DecodeError::BadCode {
                what: "FP compare op",
                code: other as u64,
            })
        }
    })
}

fn branch_cond_code(c: BranchCond) -> u8 {
    match c {
        BranchCond::Eq => 0,
        BranchCond::Ne => 1,
        BranchCond::Lt => 2,
        BranchCond::Ge => 3,
        BranchCond::Le => 4,
        BranchCond::Gt => 5,
    }
}

fn branch_cond_from_code(code: u8) -> Result<BranchCond, DecodeError> {
    Ok(match code {
        0 => BranchCond::Eq,
        1 => BranchCond::Ne,
        2 => BranchCond::Lt,
        3 => BranchCond::Ge,
        4 => BranchCond::Le,
        5 => BranchCond::Gt,
        other => {
            return Err(DecodeError::BadCode {
                what: "branch condition",
                code: other as u64,
            })
        }
    })
}

fn int_reg_from_code(code: u8) -> Result<IntReg, DecodeError> {
    IntReg::new(code as usize).map_err(|_| DecodeError::BadCode {
        what: "integer register",
        code: code as u64,
    })
}

fn fp_reg_from_code(code: u8) -> Result<FpReg, DecodeError> {
    FpReg::new(code as usize).map_err(|_| DecodeError::BadCode {
        what: "fp register",
        code: code as u64,
    })
}

fn write_instruction<W: Write>(w: &mut W, i: &Instruction) -> io::Result<()> {
    let ireg = |r: IntReg| r.index() as u8;
    let freg = |r: FpReg| r.index() as u8;
    match *i {
        Instruction::Alu { op, rd, rs1, rs2 } => {
            w.write_all(&[ITAG_ALU, alu_op_code(op), ireg(rd), ireg(rs1), ireg(rs2)])
        }
        Instruction::AluImm { op, rd, rs1, imm } => {
            w.write_all(&[ITAG_ALU_IMM, alu_op_code(op), ireg(rd), ireg(rs1)])?;
            w.write_all(&imm.to_le_bytes())
        }
        Instruction::LoadImm { rd, imm } => {
            w.write_all(&[ITAG_LOAD_IMM, ireg(rd)])?;
            w.write_all(&imm.to_le_bytes())
        }
        Instruction::LoadImmF { fd, value } => {
            w.write_all(&[ITAG_LOAD_IMM_F, freg(fd)])?;
            w.write_all(&value.to_bits().to_le_bytes())
        }
        Instruction::Fpu { op, fd, fs1, fs2 } => {
            w.write_all(&[ITAG_FPU, fpu_op_code(op), freg(fd), freg(fs1), freg(fs2)])
        }
        Instruction::FpCmp { op, rd, fs1, fs2 } => {
            w.write_all(&[ITAG_FP_CMP, fp_cmp_code(op), ireg(rd), freg(fs1), freg(fs2)])
        }
        Instruction::IntToFp { fd, rs } => w.write_all(&[ITAG_INT_TO_FP, freg(fd), ireg(rs)]),
        Instruction::FpToInt { rd, fs } => w.write_all(&[ITAG_FP_TO_INT, ireg(rd), freg(fs)]),
        Instruction::Load { rd, base, offset } => {
            w.write_all(&[ITAG_LOAD, ireg(rd), ireg(base)])?;
            w.write_all(&offset.to_le_bytes())
        }
        Instruction::Store { rs, base, offset } => {
            w.write_all(&[ITAG_STORE, ireg(rs), ireg(base)])?;
            w.write_all(&offset.to_le_bytes())
        }
        Instruction::LoadF { fd, base, offset } => {
            w.write_all(&[ITAG_LOAD_F, freg(fd), ireg(base)])?;
            w.write_all(&offset.to_le_bytes())
        }
        Instruction::StoreF { fs, base, offset } => {
            w.write_all(&[ITAG_STORE_F, freg(fs), ireg(base)])?;
            w.write_all(&offset.to_le_bytes())
        }
        Instruction::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            w.write_all(&[ITAG_BRANCH, branch_cond_code(cond), ireg(rs1), ireg(rs2)])?;
            w.write_all(&(target as u32).to_le_bytes())
        }
        Instruction::Jump { target } => {
            w.write_all(&[ITAG_JUMP])?;
            w.write_all(&(target as u32).to_le_bytes())
        }
        Instruction::JumpAndLink { rd, target } => {
            w.write_all(&[ITAG_JUMP_AND_LINK, ireg(rd)])?;
            w.write_all(&(target as u32).to_le_bytes())
        }
        Instruction::JumpReg { rs } => w.write_all(&[ITAG_JUMP_REG, ireg(rs)]),
        Instruction::Sync { kind, base, offset } => {
            w.write_all(&[ITAG_SYNC, sync_kind_code(kind), ireg(base)])?;
            w.write_all(&offset.to_le_bytes())
        }
        Instruction::Nop => w.write_all(&[ITAG_NOP]),
        Instruction::Halt => w.write_all(&[ITAG_HALT]),
    }
}

fn read_instruction<R: Read>(r: &mut R) -> Result<Instruction, DecodeError> {
    let [tag] = read_exact::<_, 1>(r)?;
    let i64_field =
        |r: &mut R| -> Result<i64, DecodeError> { Ok(i64::from_le_bytes(read_exact(r)?)) };
    let target = |r: &mut R| -> Result<usize, DecodeError> {
        Ok(u32::from_le_bytes(read_exact(r)?) as usize)
    };
    Ok(match tag {
        ITAG_ALU => {
            let [op, rd, rs1, rs2] = read_exact(r)?;
            Instruction::Alu {
                op: alu_op_from_code(op)?,
                rd: int_reg_from_code(rd)?,
                rs1: int_reg_from_code(rs1)?,
                rs2: int_reg_from_code(rs2)?,
            }
        }
        ITAG_ALU_IMM => {
            let [op, rd, rs1] = read_exact(r)?;
            Instruction::AluImm {
                op: alu_op_from_code(op)?,
                rd: int_reg_from_code(rd)?,
                rs1: int_reg_from_code(rs1)?,
                imm: i64_field(r)?,
            }
        }
        ITAG_LOAD_IMM => {
            let [rd] = read_exact(r)?;
            Instruction::LoadImm {
                rd: int_reg_from_code(rd)?,
                imm: i64_field(r)?,
            }
        }
        ITAG_LOAD_IMM_F => {
            let [fd] = read_exact(r)?;
            Instruction::LoadImmF {
                fd: fp_reg_from_code(fd)?,
                value: f64::from_bits(u64::from_le_bytes(read_exact(r)?)),
            }
        }
        ITAG_FPU => {
            let [op, fd, fs1, fs2] = read_exact(r)?;
            Instruction::Fpu {
                op: fpu_op_from_code(op)?,
                fd: fp_reg_from_code(fd)?,
                fs1: fp_reg_from_code(fs1)?,
                fs2: fp_reg_from_code(fs2)?,
            }
        }
        ITAG_FP_CMP => {
            let [op, rd, fs1, fs2] = read_exact(r)?;
            Instruction::FpCmp {
                op: fp_cmp_from_code(op)?,
                rd: int_reg_from_code(rd)?,
                fs1: fp_reg_from_code(fs1)?,
                fs2: fp_reg_from_code(fs2)?,
            }
        }
        ITAG_INT_TO_FP => {
            let [fd, rs] = read_exact(r)?;
            Instruction::IntToFp {
                fd: fp_reg_from_code(fd)?,
                rs: int_reg_from_code(rs)?,
            }
        }
        ITAG_FP_TO_INT => {
            let [rd, fs] = read_exact(r)?;
            Instruction::FpToInt {
                rd: int_reg_from_code(rd)?,
                fs: fp_reg_from_code(fs)?,
            }
        }
        ITAG_LOAD => {
            let [rd, base] = read_exact(r)?;
            Instruction::Load {
                rd: int_reg_from_code(rd)?,
                base: int_reg_from_code(base)?,
                offset: i64_field(r)?,
            }
        }
        ITAG_STORE => {
            let [rs, base] = read_exact(r)?;
            Instruction::Store {
                rs: int_reg_from_code(rs)?,
                base: int_reg_from_code(base)?,
                offset: i64_field(r)?,
            }
        }
        ITAG_LOAD_F => {
            let [fd, base] = read_exact(r)?;
            Instruction::LoadF {
                fd: fp_reg_from_code(fd)?,
                base: int_reg_from_code(base)?,
                offset: i64_field(r)?,
            }
        }
        ITAG_STORE_F => {
            let [fs, base] = read_exact(r)?;
            Instruction::StoreF {
                fs: fp_reg_from_code(fs)?,
                base: int_reg_from_code(base)?,
                offset: i64_field(r)?,
            }
        }
        ITAG_BRANCH => {
            let [cond, rs1, rs2] = read_exact(r)?;
            Instruction::Branch {
                cond: branch_cond_from_code(cond)?,
                rs1: int_reg_from_code(rs1)?,
                rs2: int_reg_from_code(rs2)?,
                target: target(r)?,
            }
        }
        ITAG_JUMP => Instruction::Jump { target: target(r)? },
        ITAG_JUMP_AND_LINK => {
            let [rd] = read_exact(r)?;
            Instruction::JumpAndLink {
                rd: int_reg_from_code(rd)?,
                target: target(r)?,
            }
        }
        ITAG_JUMP_REG => {
            let [rs] = read_exact(r)?;
            Instruction::JumpReg {
                rs: int_reg_from_code(rs)?,
            }
        }
        ITAG_SYNC => {
            let [kind, base] = read_exact(r)?;
            Instruction::Sync {
                kind: sync_kind_from_code(kind)?,
                base: int_reg_from_code(base)?,
                offset: i64_field(r)?,
            }
        }
        ITAG_NOP => Instruction::Nop,
        ITAG_HALT => Instruction::Halt,
        other => {
            return Err(DecodeError::BadCode {
                what: "instruction tag",
                code: other as u64,
            })
        }
    })
}

fn write_program<W: Write>(w: &mut W, p: &Program) -> io::Result<()> {
    w.write_all(&(p.len() as u32).to_le_bytes())?;
    for i in p.instructions() {
        write_instruction(w, i)?;
    }
    let labels: Vec<(usize, &str)> = p.labels().collect();
    w.write_all(&(labels.len() as u32).to_le_bytes())?;
    for (pc, name) in labels {
        w.write_all(&(pc as u32).to_le_bytes())?;
        write_str(w, name)?;
    }
    Ok(())
}

fn read_program<R: Read>(r: &mut R) -> Result<Program, DecodeError> {
    let count = u32::from_le_bytes(read_exact(r)?);
    let mut instructions = Vec::with_capacity(count.min(1 << 22) as usize);
    for _ in 0..count {
        instructions.push(read_instruction(r)?);
    }
    let label_count = u32::from_le_bytes(read_exact(r)?);
    let mut labels = BTreeMap::new();
    for _ in 0..label_count {
        let pc = u32::from_le_bytes(read_exact(r)?) as usize;
        labels.insert(pc, read_str(r)?);
    }
    Ok(Program::with_labels(instructions, labels))
}

fn write_breakdown<W: Write>(w: &mut W, b: &Breakdown) -> io::Result<()> {
    for field in [b.busy, b.sync, b.read, b.write] {
        w.write_all(&field.to_le_bytes())?;
    }
    Ok(())
}

fn read_breakdown<R: Read>(r: &mut R) -> Result<Breakdown, DecodeError> {
    Ok(Breakdown {
        busy: u64::from_le_bytes(read_exact(r)?),
        sync: u64::from_le_bytes(read_exact(r)?),
        read: u64::from_le_bytes(read_exact(r)?),
        write: u64::from_le_bytes(read_exact(r)?),
    })
}

// ---------------------------------------------------------------------
// Version-3 archives: chunked, streamable, per-chunk checksums.
// ---------------------------------------------------------------------
//
// Layout (all integers little-endian):
//
// ```text
// "LKTR" | version=3
// header payload (FNV-hashed): key str | app str | num_procs u32 | program
// header checksum u64
// chunk record*                 -- any interleaving across processors
// end sentinel u32 = 0xFFFF_FFFF  -- the trailer starts right after it
// trailer payload (FNV-hashed): proc u32 | mp_cycles u64
//                             | breakdown count u32 | breakdowns
//                             | per-proc totals (entries u64,
//                               mem_entries u64, max_latency u32)
// trailer checksum u64
// trailer length u32            -- last 4 bytes; locates the trailer
//
// chunk record = proc u32 | entry_count u32 | byte_len u32
//              | first_index u64 | mem_entries u32 | max_latency u32
//              | entry payload (byte_len bytes)
//              | record checksum u64 (FNV over header + payload)
// ```
//
// The format is append-only — nothing is backpatched — so a writer can
// emit chunks while the multiprocessor simulation is still running and
// only needs the run statistics at `finish` time. The trailing length
// word lets readers find the trailer with two seeks from the end.
// `byte_len` sizes each record, so the writer (counting the bytes it
// writes) and the validation pass (walking the headers once) can each
// list every record's offset and length in a `ChunkIndex`; a
// per-processor reader then seeks from one of its own records to the
// next and never reads another processor's.

/// End-of-chunks sentinel in the processor field.
const END_PROC: u32 = u32::MAX;

/// A chunk record's header, and the bytes a record adds around its
/// payload (the header and the trailing checksum).
const RECORD_HEADER_LEN: usize = 28;
const RECORD_OVERHEAD: usize = RECORD_HEADER_LEN + 8;

/// The shortest encoded entry: a compute entry's pc and tag.
const MIN_ENTRY_LEN: usize = 5;

/// Sanity caps rejecting lengths only corruption can produce.
const MAX_CHUNK_ENTRIES: u32 = 1 << 24;
const MAX_CHUNK_BYTES: u32 = 1 << 29;
const MAX_TRAILER_BYTES: u32 = 1 << 24;

fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Per-processor aggregate totals stored in the v3 trailer, used both
/// to validate chunk streams and to pre-size re-timing structures
/// without scanning the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProcTotals {
    /// Total trace entries of the processor.
    pub entries: u64,
    /// Total memory-system entries (loads, stores, syncs).
    pub mem_entries: u64,
    /// Maximum access latency observed anywhere in the trace.
    pub max_latency: u32,
}

/// Everything in a v3 archive except the chunk payloads: the hashed
/// header and trailer sections, plus the file offsets where the chunk
/// records begin and where the trailer starts.
#[derive(Debug, Clone)]
pub struct ArchiveInfo {
    /// Canonical cache-key string the archive was generated under.
    pub key: String,
    /// Application name.
    pub app: String,
    /// The SPMD program all processors executed.
    pub program: Program,
    /// Index of the representative (busiest) processor.
    pub proc: u32,
    /// Total multiprocessor cycles of the generating run.
    pub mp_cycles: u64,
    /// Per-processor execution-time breakdowns of the generating run.
    pub breakdowns: Vec<Breakdown>,
    /// Per-processor trace totals.
    pub totals: Vec<ProcTotals>,
    /// Byte offset of the first chunk record.
    pub chunks_start: u64,
    /// Byte offset of the trailer payload; the end sentinel must end
    /// exactly here.
    pub trailer_start: u64,
}

impl ArchiveInfo {
    /// Number of per-processor traces in the archive.
    pub fn num_procs(&self) -> usize {
        self.totals.len()
    }
}

/// Where one chunk record lies in an archive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RecordSpan {
    /// File offset of the record's header.
    offset: u64,
    /// Length of the record's entry payload.
    byte_len: u32,
}

/// Where each processor's chunk records lie in a v3 archive: every
/// record's file offset and payload length, per processor, in trace
/// order.
///
/// [`ArchiveWriter`] builds it as it writes ([`ArchiveWriter::index`]),
/// and [`validate_archive_chunks`] returns it after checking an
/// archive; both see every record header once. A [`ChunkReader`] seeks
/// through it to its processor's records instead of walking the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkIndex {
    records: Vec<Vec<RecordSpan>>,
}

impl ChunkIndex {
    fn new(num_procs: usize) -> ChunkIndex {
        ChunkIndex {
            records: vec![Vec::new(); num_procs],
        }
    }

    fn push(&mut self, proc: usize, offset: u64, byte_len: u32) {
        self.records[proc].push(RecordSpan { offset, byte_len });
    }
}

/// Incremental v3 archive writer: a [`TraceSink`] that streams chunk
/// records to `w` as they arrive, then seals the trailer once the run
/// statistics are known.
#[derive(Debug)]
pub struct ArchiveWriter<W: Write> {
    w: W,
    totals: Vec<ProcTotals>,
    index: ChunkIndex,
    /// Bytes written so far: the offset of the next chunk record.
    pos: u64,
    scratch: Vec<u8>,
}

impl<W: Write> ArchiveWriter<W> {
    /// Starts a v3 archive on `w`, writing the checksummed header.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn new(
        mut w: W,
        key: &str,
        app: &str,
        num_procs: usize,
        program: &Program,
    ) -> io::Result<ArchiveWriter<W>> {
        let mut header = Vec::new();
        write_str(&mut header, key)?;
        write_str(&mut header, app)?;
        header.extend_from_slice(&(num_procs as u32).to_le_bytes());
        write_program(&mut header, program)?;
        w.write_all(MAGIC)?;
        w.write_all(&[ARCHIVE_VERSION])?;
        w.write_all(&header)?;
        w.write_all(&fnv1a(&header).to_le_bytes())?;
        Ok(ArchiveWriter {
            w,
            totals: vec![ProcTotals::default(); num_procs],
            index: ChunkIndex::new(num_procs),
            pos: (MAGIC.len() + 1 + header.len() + 8) as u64,
            scratch: Vec::new(),
        })
    }

    /// The index of the chunk records written so far. Once every chunk
    /// is accepted it is the archive's whole index, so read it before
    /// [`finish`](Self::finish) consumes the writer.
    pub fn index(&self) -> &ChunkIndex {
        &self.index
    }

    /// Writes the end sentinel and the checksummed trailer, returning
    /// the inner writer so the caller can flush or sync it.
    ///
    /// # Errors
    ///
    /// Propagates any I/O error from the writer.
    pub fn finish(
        mut self,
        proc: usize,
        mp_cycles: u64,
        breakdowns: &[Breakdown],
    ) -> io::Result<W> {
        self.w.write_all(&END_PROC.to_le_bytes())?;
        let mut payload = Vec::new();
        payload.extend_from_slice(&(proc as u32).to_le_bytes());
        payload.extend_from_slice(&mp_cycles.to_le_bytes());
        payload.extend_from_slice(&(breakdowns.len() as u32).to_le_bytes());
        for b in breakdowns {
            write_breakdown(&mut payload, b)?;
        }
        for t in &self.totals {
            payload.extend_from_slice(&t.entries.to_le_bytes());
            payload.extend_from_slice(&t.mem_entries.to_le_bytes());
            payload.extend_from_slice(&t.max_latency.to_le_bytes());
        }
        self.w.write_all(&payload)?;
        self.w.write_all(&fnv1a(&payload).to_le_bytes())?;
        self.w.write_all(&(payload.len() as u32).to_le_bytes())?;
        Ok(self.w)
    }
}

impl<W: Write> TraceSink for ArchiveWriter<W> {
    fn accept(&mut self, proc: usize, chunk: &TraceChunk) -> io::Result<()> {
        let totals = self.totals.get_mut(proc).ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("chunk for processor {proc} outside archive"),
            )
        })?;
        if chunk.first_index != totals.entries {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "chunk of processor {proc} starts at entry {} but {} were written",
                    chunk.first_index, totals.entries
                ),
            ));
        }
        self.scratch.clear();
        for e in chunk.iter() {
            write_entry(&mut self.scratch, &e)?;
        }
        let mut header = [0u8; RECORD_HEADER_LEN];
        header[0..4].copy_from_slice(&(proc as u32).to_le_bytes());
        header[4..8].copy_from_slice(&(chunk.len() as u32).to_le_bytes());
        header[8..12].copy_from_slice(&(self.scratch.len() as u32).to_le_bytes());
        header[12..20].copy_from_slice(&chunk.first_index.to_le_bytes());
        header[20..24].copy_from_slice(&chunk.meta.mem_entries.to_le_bytes());
        header[24..28].copy_from_slice(&chunk.meta.max_latency.to_le_bytes());
        let checksum = fnv1a_fold(fnv1a_fold(FNV_OFFSET, &header), &self.scratch);
        self.w.write_all(&header)?;
        self.w.write_all(&self.scratch)?;
        self.w.write_all(&checksum.to_le_bytes())?;
        self.index.push(proc, self.pos, self.scratch.len() as u32);
        self.pos += (RECORD_OVERHEAD + self.scratch.len()) as u64;
        totals.entries = chunk.end_index();
        totals.mem_entries += chunk.meta.mem_entries as u64;
        totals.max_latency = totals.max_latency.max(chunk.meta.max_latency);
        Ok(())
    }
}

/// One decoded chunk-record header.
struct ChunkHeader {
    proc: u32,
    entry_count: u32,
    byte_len: u32,
    first_index: u64,
    meta: ChunkMeta,
    raw: [u8; RECORD_HEADER_LEN],
}

/// Decodes a chunk-record header, rejecting lengths past the caps.
fn parse_chunk_header(raw: [u8; RECORD_HEADER_LEN]) -> Result<ChunkHeader, DecodeError> {
    let word = |at: usize| u32::from_le_bytes(raw[at..at + 4].try_into().unwrap());
    let (entry_count, byte_len) = (word(4), word(8));
    if entry_count > MAX_CHUNK_ENTRIES {
        return Err(DecodeError::BadCode {
            what: "chunk entry count",
            code: entry_count as u64,
        });
    }
    if byte_len > MAX_CHUNK_BYTES {
        return Err(DecodeError::BadCode {
            what: "chunk byte length",
            code: byte_len as u64,
        });
    }
    Ok(ChunkHeader {
        proc: word(0),
        entry_count,
        byte_len,
        first_index: u64::from_le_bytes(raw[12..20].try_into().unwrap()),
        meta: ChunkMeta {
            mem_entries: word(20),
            max_latency: word(24),
        },
        raw,
    })
}

/// Reads the next chunk-record header, or `None` at the end sentinel.
fn read_chunk_header<R: Read>(r: &mut R) -> Result<Option<ChunkHeader>, DecodeError> {
    let mut raw = [0u8; RECORD_HEADER_LEN];
    r.read_exact(&mut raw[..4])?;
    if raw[..4] == END_PROC.to_le_bytes() {
        return Ok(None);
    }
    r.read_exact(&mut raw[4..])?;
    parse_chunk_header(raw).map(Some)
}

/// Reads and checksum-verifies one record's payload into `buf`.
///
/// The payload is read through `take` rather than into a buffer sized
/// up front, so a damaged length costs at most the bytes actually
/// present in the file, not a `MAX_CHUNK_BYTES` allocation.
fn read_chunk_payload<R: Read>(
    r: &mut R,
    h: &ChunkHeader,
    buf: &mut Vec<u8>,
) -> Result<(), DecodeError> {
    buf.clear();
    r.by_ref().take(h.byte_len as u64).read_to_end(buf)?;
    if buf.len() != h.byte_len as usize {
        return Err(DecodeError::Io(io::ErrorKind::UnexpectedEof.into()));
    }
    let stored = u64::from_le_bytes(read_exact(r)?);
    let computed = fnv1a_fold(fnv1a_fold(FNV_OFFSET, &h.raw), buf);
    if stored != computed {
        return Err(DecodeError::BadChecksum { stored, computed });
    }
    Ok(())
}

/// Reads a v3 archive's header and trailer (both checksum-verified)
/// without touching the chunk payloads — two seeks plus the header
/// read, regardless of archive size.
///
/// # Errors
///
/// Returns a [`DecodeError`] on malformed or damaged input, including
/// [`DecodeError::BadVersion`] for v1/v2 files.
pub fn read_archive_info<R: Read + Seek>(mut r: R) -> Result<ArchiveInfo, DecodeError> {
    r.seek(SeekFrom::Start(0))?;
    let magic: [u8; 4] = read_exact(&mut r)?;
    if &magic != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let [version] = read_exact::<_, 1>(&mut r)?;
    if version != ARCHIVE_VERSION {
        return Err(DecodeError::BadVersion(version));
    }
    let mut hr = HashingReader::new(&mut r);
    let key = read_str(&mut hr)?;
    let app = read_str(&mut hr)?;
    let num_procs = u32::from_le_bytes(read_exact(&mut hr)?);
    if num_procs == 0 || num_procs > 1 << 16 {
        return Err(DecodeError::BadCode {
            what: "processor count",
            code: num_procs as u64,
        });
    }
    let program = read_program(&mut hr)?;
    let computed = hr.hash;
    let stored = u64::from_le_bytes(read_exact(&mut r)?);
    if stored != computed {
        return Err(DecodeError::BadChecksum { stored, computed });
    }
    let chunks_start = r.stream_position()?;

    let file_len = r.seek(SeekFrom::End(0))?;
    r.seek(SeekFrom::End(-4))?;
    let trailer_len = u32::from_le_bytes(read_exact(&mut r)?);
    if trailer_len > MAX_TRAILER_BYTES || (trailer_len as u64) + 12 > file_len - chunks_start {
        return Err(DecodeError::BadCode {
            what: "trailer length",
            code: trailer_len as u64,
        });
    }
    let trailer_start = r.seek(SeekFrom::End(-(trailer_len as i64 + 12)))?;
    let mut payload = vec![0u8; trailer_len as usize];
    r.read_exact(&mut payload)?;
    let stored = u64::from_le_bytes(read_exact(&mut r)?);
    let computed = fnv1a(&payload);
    if stored != computed {
        return Err(DecodeError::BadChecksum { stored, computed });
    }

    let p = &mut payload.as_slice();
    let proc = u32::from_le_bytes(read_exact(p)?);
    let mp_cycles = u64::from_le_bytes(read_exact(p)?);
    let breakdown_count = u32::from_le_bytes(read_exact(p)?);
    if breakdown_count != num_procs {
        return Err(DecodeError::BadCode {
            what: "breakdown count",
            code: breakdown_count as u64,
        });
    }
    let mut breakdowns = Vec::with_capacity(num_procs as usize);
    for _ in 0..breakdown_count {
        breakdowns.push(read_breakdown(p)?);
    }
    let mut totals = Vec::with_capacity(num_procs as usize);
    for _ in 0..num_procs {
        totals.push(ProcTotals {
            entries: u64::from_le_bytes(read_exact(p)?),
            mem_entries: u64::from_le_bytes(read_exact(p)?),
            max_latency: u32::from_le_bytes(read_exact(p)?),
        });
    }
    if !p.is_empty() {
        return Err(DecodeError::BadCode {
            what: "trailer length",
            code: trailer_len as u64,
        });
    }
    if proc >= num_procs {
        return Err(DecodeError::BadCode {
            what: "representative processor index",
            code: proc as u64,
        });
    }
    Ok(ArchiveInfo {
        key,
        app,
        program,
        proc,
        mp_cycles,
        breakdowns,
        totals,
        chunks_start,
        trailer_start,
    })
}

/// Sequentially verifies every chunk record of a v3 archive against
/// its per-record checksum and the trailer totals, without decoding a
/// single entry, and checks that the end sentinel ends exactly where
/// the trailer starts, so no byte between them goes unchecked. Memory
/// use is one chunk payload, regardless of archive size.
///
/// A cache can therefore establish, in one bounded pass at load time,
/// that streaming any processor's chunks later cannot fail on damaged
/// data — corruption is handled by eviction up front, not by surprise
/// mid-re-timing. The pass sees every record header, so it returns the
/// archive's [`ChunkIndex`] for the readers.
///
/// # Errors
///
/// Returns a [`DecodeError`] naming the first inconsistency.
pub fn validate_archive_chunks<R: Read + Seek>(
    mut r: R,
    info: &ArchiveInfo,
) -> Result<ChunkIndex, DecodeError> {
    r.seek(SeekFrom::Start(info.chunks_start))?;
    let mut seen = vec![ProcTotals::default(); info.totals.len()];
    let mut index = ChunkIndex::new(info.totals.len());
    let mut pos = info.chunks_start;
    let mut buf = Vec::new();
    while let Some(h) = read_chunk_header(&mut r)? {
        let proc = h.proc as usize;
        let Some(acc) = seen.get_mut(proc) else {
            return Err(DecodeError::BadCode {
                what: "chunk processor index",
                code: h.proc as u64,
            });
        };
        if h.first_index != acc.entries {
            return Err(DecodeError::BadCode {
                what: "chunk first index",
                code: h.first_index,
            });
        }
        read_chunk_payload(&mut r, &h, &mut buf)?;
        index.push(proc, pos, h.byte_len);
        pos += (RECORD_OVERHEAD + buf.len()) as u64;
        acc.entries += h.entry_count as u64;
        acc.mem_entries += h.meta.mem_entries as u64;
        acc.max_latency = acc.max_latency.max(h.meta.max_latency);
    }
    let sentinel_end = pos + 4;
    if sentinel_end != info.trailer_start {
        return Err(DecodeError::BadCode {
            what: "end sentinel offset",
            code: sentinel_end,
        });
    }
    if seen != info.totals {
        return Err(DecodeError::BadCode {
            what: "per-processor totals",
            code: 0,
        });
    }
    Ok(index)
}

fn eof() -> DecodeError {
    DecodeError::Io(io::ErrorKind::UnexpectedEof.into())
}

/// A record's payload being decoded, with the FNV-1a hash of the record
/// up to the bytes taken off it so far.
struct Payload<'a> {
    rest: &'a [u8],
    hash: u64,
}

impl Payload<'_> {
    /// Splits the next `N` bytes off the payload, folding them into the
    /// hash.
    #[inline]
    fn take<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let (head, rest) = self.rest.split_first_chunk::<N>().ok_or_else(eof)?;
        self.rest = rest;
        self.hash = fnv1a_fold(self.hash, head);
        Ok(*head)
    }
}

/// Decodes `count` entries off the front of `p` straight into a chunk's
/// columns, folding the chunk's metadata, and `p`'s hash, as it goes.
fn decode_entries(
    first_index: u64,
    count: u32,
    p: &mut Payload<'_>,
) -> Result<TraceChunk, DecodeError> {
    let n = count as usize;
    if n > p.rest.len() / MIN_ENTRY_LEN {
        return Err(eof());
    }
    let (mut pc, mut kind, mut addr) = (vec![0; n], vec![0; n], vec![0; n]);
    let (mut lat, mut wait) = (vec![0; n], vec![0; n]);
    let mut meta = ChunkMeta::default();
    let columns = pc
        .iter_mut()
        .zip(&mut kind)
        .zip(&mut addr)
        .zip(&mut lat)
        .zip(&mut wait);
    for ((((pc, k), a), l), w) in columns {
        let [p0, p1, p2, p3, tag] = p.take()?;
        *pc = u32::from_le_bytes([p0, p1, p2, p3]);
        match tag {
            TAG_COMPUTE => *k = kind_byte(OpClass::Compute, false),
            TAG_LOAD | TAG_STORE => {
                let [miss] = p.take()?;
                *a = u64::from_le_bytes(p.take()?);
                *l = u32::from_le_bytes(p.take()?);
                if *l == 0 {
                    return Err(DecodeError::BadLatency);
                }
                let class = if tag == TAG_LOAD {
                    OpClass::Load
                } else {
                    OpClass::Store
                };
                *k = kind_byte(class, miss != 0);
            }
            TAG_BRANCH => {
                let [taken] = p.take()?;
                *a = u64::from(u32::from_le_bytes(p.take()?));
                *k = kind_byte(OpClass::Branch, taken != 0);
            }
            TAG_JUMP => {
                *a = u64::from(u32::from_le_bytes(p.take()?));
                *k = kind_byte(OpClass::Jump, false);
            }
            TAG_SYNC => {
                let [code] = p.take()?;
                *a = u64::from_le_bytes(p.take()?);
                *w = u32::from_le_bytes(p.take()?);
                *l = u32::from_le_bytes(p.take()?);
                if *l == 0 {
                    return Err(DecodeError::BadLatency);
                }
                *k = kind_byte(OpClass::Sync(sync_kind_from_code(code)?), false);
            }
            other => return Err(DecodeError::BadTag(other)),
        }
        if *l != 0 {
            // Loads, stores and syncs, whose latencies are nonzero.
            meta.mem_entries += 1;
            meta.max_latency = meta.max_latency.max(*l);
        }
    }
    Ok(TraceChunk::from_columns(
        first_index,
        meta,
        pc,
        kind,
        addr,
        lat,
        wait,
    ))
}

/// A [`TraceSource`] streaming one processor's chunks out of a v3
/// archive.
///
/// The archive's [`ChunkIndex`] says where the processor's records lie,
/// so the reader seeks from one of them to the next and never reads a
/// byte of another processor's record: one read per record fetches its
/// header, payload and checksum. A record's header must match the index
/// (its processor, its payload length, and a first entry that continues
/// the stream); its entries are then decoded straight into the chunk's
/// columns while its checksum is folded, and the chunk is returned only
/// if the checksum matches. A damaged archive or an index that does not
/// fit it is a [`StreamError`], never a different trace.
#[derive(Debug)]
pub struct ChunkReader<'a, R: Read + Seek> {
    r: R,
    proc: u32,
    totals: ProcTotals,
    records: &'a [RecordSpan],
    /// Offsets the chunk records lie between.
    chunks: std::ops::Range<u64>,
    next_record: usize,
    next_index: u64,
    buf: Vec<u8>,
}

impl<'a, R: Read + Seek> ChunkReader<'a, R> {
    /// A source for processor `proc` of the archive described by `info`
    /// and `index`, reading from `r` (typically a positioned view of the
    /// archive's file, or its bytes in memory).
    ///
    /// # Errors
    ///
    /// Fails if `proc` is out of range of `info` or of `index`.
    pub fn new(
        r: R,
        info: &ArchiveInfo,
        index: &'a ChunkIndex,
        proc: usize,
    ) -> Result<ChunkReader<'a, R>, DecodeError> {
        let (Some(&totals), Some(records)) = (info.totals.get(proc), index.records.get(proc))
        else {
            return Err(DecodeError::BadCode {
                what: "processor index",
                code: proc as u64,
            });
        };
        Ok(ChunkReader {
            r,
            proc: proc as u32,
            totals,
            records,
            chunks: info.chunks_start..info.trailer_start,
            next_record: 0,
            next_index: 0,
            buf: Vec::new(),
        })
    }

    /// Reads the next record the index names into `buf` and checks its
    /// header against the index, returning the header.
    fn read_record(&mut self, rec: RecordSpan) -> Result<ChunkHeader, StreamError> {
        let len = RECORD_OVERHEAD + rec.byte_len as usize;
        let misplaced = |what: &str| {
            StreamError::Corrupt(format!(
                "processor {} record {} at byte {}: {what}; the chunk index does not fit the archive",
                self.proc, self.next_record, rec.offset
            ))
        };
        if rec.offset < self.chunks.start || rec.offset + len as u64 > self.chunks.end {
            return Err(misplaced("outside the chunk records"));
        }
        self.r
            .seek(SeekFrom::Start(rec.offset))
            .map_err(DecodeError::Io)?;
        self.buf.resize(len, 0);
        self.r.read_exact(&mut self.buf).map_err(DecodeError::Io)?;
        let h = parse_chunk_header(self.buf[..RECORD_HEADER_LEN].try_into().unwrap())?;
        if h.proc != self.proc || h.byte_len != rec.byte_len || h.first_index != self.next_index {
            return Err(misplaced(&format!(
                "the header names processor {}, {} payload bytes and entry {}, \
                 not {} bytes at entry {}",
                h.proc, h.byte_len, h.first_index, rec.byte_len, self.next_index
            )));
        }
        Ok(h)
    }
}

impl<R: Read + Seek> TraceSource for ChunkReader<'_, R> {
    fn next_chunk(&mut self) -> Result<Option<Arc<TraceChunk>>, StreamError> {
        let Some(&rec) = self.records.get(self.next_record) else {
            if self.next_index != self.totals.entries {
                return Err(StreamError::Corrupt(format!(
                    "processor {} stream ended at entry {} of {}",
                    self.proc, self.next_index, self.totals.entries
                )));
            }
            return Ok(None);
        };
        let h = self.read_record(rec)?;
        self.next_record += 1;
        let (record, stored) = self.buf.split_at(self.buf.len() - 8);
        let stored = u64::from_le_bytes(stored.try_into().unwrap());
        // The checksum is folded as the entries are decoded, so the
        // decoder works in the shadow of the hash's serial chain. A
        // checksum mismatch still outranks any decode error.
        let mut payload = Payload {
            rest: &record[RECORD_HEADER_LEN..],
            hash: fnv1a_fold(FNV_OFFSET, &h.raw),
        };
        let decoded = decode_entries(h.first_index, h.entry_count, &mut payload);
        let computed = match decoded {
            Ok(_) => fnv1a_fold(payload.hash, payload.rest),
            Err(_) => fnv1a(record),
        };
        if stored != computed {
            return Err(DecodeError::BadChecksum { stored, computed }.into());
        }
        let chunk = decoded?;
        if !payload.rest.is_empty() {
            return Err(StreamError::Corrupt(format!(
                "chunk of processor {} has {} trailing bytes",
                self.proc,
                payload.rest.len()
            )));
        }
        if chunk.meta != h.meta {
            return Err(StreamError::Corrupt(format!(
                "chunk of processor {} declares metadata {:?} but decodes to {:?}",
                self.proc, h.meta, chunk.meta
            )));
        }
        self.next_index = chunk.end_index();
        Ok(Some(Arc::new(chunk)))
    }

    fn entries_hint(&self) -> Option<u64> {
        Some(self.totals.entries)
    }

    fn mem_entries_hint(&self) -> Option<u64> {
        Some(self.totals.mem_entries)
    }

    fn max_latency_hint(&self) -> Option<u32> {
        Some(self.totals.max_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{MemAccess, SyncAccess, Trace};
    use crate::stream::{collect_source, SliceSource};
    use lookahead_isa::rng::XorShift64;

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

    /// Writes `run` through [`ArchiveWriter`], `chunk_len` entries per
    /// chunk record, one processor after another.
    fn encode(run: &Run, chunk_len: usize) -> Vec<u8> {
        encode_indexed(run, chunk_len).0
    }

    /// [`encode`], and the writer's index.
    fn encode_indexed(run: &Run, chunk_len: usize) -> (Vec<u8>, ChunkIndex) {
        encode_in_order(run, chunk_len, &proc_order(run, chunk_len))
    }

    /// [`encode_indexed`], with the processors' chunk records
    /// interleaved in a random order.
    fn encode_interleaved(
        run: &Run,
        chunk_len: usize,
        rng: &mut XorShift64,
    ) -> (Vec<u8>, ChunkIndex) {
        let mut order = proc_order(run, chunk_len);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.range_usize(i + 1));
        }
        encode_in_order(run, chunk_len, &order)
    }

    /// Each processor's number once per chunk record it gets, one
    /// processor after another.
    fn proc_order(run: &Run, chunk_len: usize) -> Vec<usize> {
        (0..run.traces.len())
            .flat_map(|p| std::iter::repeat_n(p, run.traces[p].len().div_ceil(chunk_len)))
            .collect()
    }

    /// Writes `run`, taking each next chunk record from the processor
    /// `order` names.
    fn encode_in_order(run: &Run, chunk_len: usize, order: &[usize]) -> (Vec<u8>, ChunkIndex) {
        let mut buf = Vec::new();
        let mut w =
            ArchiveWriter::new(&mut buf, &run.key, &run.app, run.traces.len(), &run.program)
                .unwrap();
        let mut sources: Vec<SliceSource> = run
            .traces
            .iter()
            .map(|t| SliceSource::with_chunk_len(t, chunk_len))
            .collect();
        for &proc in order {
            let chunk = sources[proc].next_chunk().unwrap().unwrap();
            w.accept(proc, &chunk).unwrap();
        }
        let index = w.index().clone();
        w.finish(run.proc as usize, run.mp_cycles, &run.breakdowns)
            .unwrap();
        (buf, index)
    }

    /// Reads an archive the way the trace cache does: header and
    /// trailer, one validation pass over every chunk, then one chunk
    /// reader per processor through the pass's index.
    fn decode(bytes: &[u8]) -> Result<Run, StreamError> {
        let info = read_archive_info(io::Cursor::new(bytes))?;
        let index = validate_archive_chunks(io::Cursor::new(bytes), &info)?;
        let traces = (0..info.num_procs())
            .map(|p| {
                collect_source(&mut ChunkReader::new(
                    io::Cursor::new(bytes),
                    &info,
                    &index,
                    p,
                )?)
            })
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

    fn halt_program() -> Program {
        let mut a = lookahead_isa::Assembler::new();
        a.halt();
        a.assemble().unwrap()
    }

    /// A one-processor run holding `trace`.
    fn single(trace: Trace) -> Run {
        Run {
            key: "k".to_string(),
            app: "APP".to_string(),
            proc: 0,
            mp_cycles: 1,
            breakdowns: vec![Breakdown::default()],
            program: halt_program(),
            traces: vec![trace],
        }
    }

    fn roundtrip(trace: &Trace) -> Trace {
        let run = decode(&encode(&single(trace.clone()), DEFAULT_TEST_CHUNK)).unwrap();
        run.traces.into_iter().next().unwrap()
    }

    const DEFAULT_TEST_CHUNK: usize = 16;

    #[test]
    fn empty_trace_roundtrips() {
        assert_eq!(roundtrip(&Trace::new()), Trace::new());
    }

    #[test]
    fn all_variants_roundtrip() {
        let mut t = Trace::new();
        t.push(TraceEntry::compute(1));
        t.push(TraceEntry {
            pc: 2,
            op: TraceOp::Load(MemAccess::miss(0xdead0, 50)),
        });
        t.push(TraceEntry {
            pc: 3,
            op: TraceOp::Store(MemAccess::hit(0x10)),
        });
        t.push(TraceEntry {
            pc: 4,
            op: TraceOp::Branch {
                taken: true,
                target: 99,
            },
        });
        t.push(TraceEntry {
            pc: 5,
            op: TraceOp::Jump { target: 7 },
        });
        t.push(TraceEntry {
            pc: 6,
            op: TraceOp::Sync(SyncAccess {
                kind: SyncKind::Barrier,
                addr: 0x40,
                wait: 123,
                access: 50,
            }),
        });
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn bad_magic_rejected() {
        let err = read_archive_info(io::Cursor::new(b"NOPE\x03\x00\x00\x00\x00\x00\x00\x00\x00"))
            .unwrap_err();
        assert!(matches!(err, DecodeError::BadMagic));
    }

    #[test]
    fn bad_version_rejected() {
        let mut buf = encode(&single(Trace::new()), DEFAULT_TEST_CHUNK);
        buf[4] = 99;
        assert!(matches!(
            read_archive_info(io::Cursor::new(&buf)).unwrap_err(),
            DecodeError::BadVersion(99)
        ));
    }

    #[test]
    fn zero_latency_rejected() {
        let mut t = Trace::new();
        t.push(TraceEntry {
            pc: 0,
            op: TraceOp::Load(MemAccess {
                addr: 8,
                miss: false,
                latency: 0,
            }),
        });
        let buf = encode(&single(t), DEFAULT_TEST_CHUNK);
        assert!(matches!(
            decode(&buf).unwrap_err(),
            StreamError::Decode(DecodeError::BadLatency)
        ));
    }

    #[test]
    fn truncated_stream_is_io_error() {
        let mut t = Trace::new();
        t.push(TraceEntry::compute(1));
        let (buf, index) = encode_indexed(&single(t), DEFAULT_TEST_CHUNK);
        let info = read_archive_info(io::Cursor::new(&buf)).unwrap();
        // The chunk stream ends one byte into its only record's
        // checksum: both chunk passes must hit end-of-file.
        let cut = &buf[..info.chunks_start as usize + 28 + 5 + 1];
        assert!(matches!(
            validate_archive_chunks(io::Cursor::new(cut), &info).unwrap_err(),
            DecodeError::Io(_)
        ));
        let mut src = ChunkReader::new(io::Cursor::new(cut), &info, &index, 0).unwrap();
        assert!(matches!(
            src.next_chunk().unwrap_err(),
            StreamError::Decode(DecodeError::Io(_))
        ));
    }

    const SYNC_KINDS: [SyncKind; 5] = [
        SyncKind::Lock,
        SyncKind::Unlock,
        SyncKind::Barrier,
        SyncKind::WaitEvent,
        SyncKind::SetEvent,
    ];

    fn gen_entry(rng: &mut XorShift64) -> TraceEntry {
        let nonzero_u32 = |rng: &mut XorShift64| (rng.next_u64() as u32).max(1);
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
        TraceEntry {
            pc: rng.next_u64() as u32,
            op,
        }
    }

    #[test]
    fn arbitrary_traces_roundtrip() {
        let mut rng = XorShift64::seed_from_u64(0xF1);
        for case in 0..128 {
            let len = rng.range_usize(200);
            let entries: Vec<TraceEntry> = (0..len).map(|_| gen_entry(&mut rng)).collect();
            let t = Trace::from_entries(entries);
            assert_eq!(roundtrip(&t), t, "case {case}");
        }
    }

    fn sample_run(rng: &mut XorShift64, num_procs: usize) -> Run {
        use lookahead_isa::{Assembler, IntReg};
        let mut a = Assembler::new();
        a.li(IntReg::T0, 1);
        a.halt();
        Run {
            key: "lktr-v3;app=TEST".to_string(),
            app: "TEST".to_string(),
            proc: (num_procs - 1) as u32,
            mp_cycles: 123_456,
            breakdowns: (0..num_procs)
                .map(|i| Breakdown {
                    busy: i as u64,
                    sync: 1,
                    read: 2,
                    write: 3,
                })
                .collect(),
            program: a.assemble().unwrap(),
            traces: (0..num_procs)
                .map(|_| {
                    let len = rng.range_usize(300);
                    Trace::from_entries((0..len).map(|_| gen_entry(rng)).collect())
                })
                .collect(),
        }
    }

    #[test]
    fn v3_roundtrips_at_awkward_chunk_sizes() {
        let mut rng = XorShift64::seed_from_u64(0xA3);
        for chunk_len in [1usize, 7, crate::stream::DEFAULT_CHUNK_LEN, 100_000] {
            let run = sample_run(&mut rng, 4);
            let got = decode(&encode(&run, chunk_len)).unwrap();
            assert_eq!(got, run, "chunk_len {chunk_len}");
        }
    }

    #[test]
    fn v3_info_and_validation_agree_with_content() {
        let mut rng = XorShift64::seed_from_u64(0xB4);
        let run = sample_run(&mut rng, 3);
        let buf = encode(&run, 16);
        let info = read_archive_info(io::Cursor::new(&buf)).unwrap();
        assert_eq!(info.key, run.key);
        assert_eq!(info.proc, run.proc);
        assert_eq!(info.mp_cycles, run.mp_cycles);
        assert_eq!(info.breakdowns, run.breakdowns);
        for (p, t) in run.traces.iter().enumerate() {
            assert_eq!(info.totals[p].entries, t.len() as u64);
            assert_eq!(info.totals[p].mem_entries, t.mem_entries() as u64);
        }
        validate_archive_chunks(io::Cursor::new(&buf), &info).unwrap();
    }

    #[test]
    fn v3_chunk_reader_hints_and_skip_foreign_procs() {
        let mut rng = XorShift64::seed_from_u64(0xC5);
        let run = sample_run(&mut rng, 4);
        let (buf, index) = encode_interleaved(&run, 9, &mut rng);
        let info = read_archive_info(io::Cursor::new(&buf)).unwrap();
        for (p, want) in run.traces.iter().enumerate() {
            let mut src = ChunkReader::new(io::Cursor::new(&buf), &info, &index, p).unwrap();
            assert_eq!(src.entries_hint(), Some(want.len() as u64));
            assert_eq!(src.mem_entries_hint(), Some(want.mem_entries() as u64));
            let got = collect_source(&mut src).unwrap();
            assert_eq!(&got, want, "proc {p}");
        }
    }

    #[test]
    fn v3_flipped_bit_is_detected_wherever_it_lands() {
        let mut rng = XorShift64::seed_from_u64(0xD6);
        let run = sample_run(&mut rng, 2);
        let clean = encode(&run, 8);
        for case in 0..64 {
            let mut buf = clean.clone();
            let pos = rng.range_usize(buf.len() - 5) + 5; // keep magic/version intact
            let bit = 1u8 << rng.next_below(8);
            buf[pos] ^= bit;
            let damaged = match read_archive_info(io::Cursor::new(&buf)) {
                Err(_) => true,
                Ok(info) => validate_archive_chunks(io::Cursor::new(&buf), &info).is_err(),
            };
            assert!(damaged, "case {case}: flip at byte {pos} went undetected");
        }
    }

    #[test]
    fn v3_reader_rejects_v2_files_as_bad_version() {
        // The retired whole-archive container: the shared magic, version
        // byte 2, then a length-prefixed key.
        let mut buf = b"LKTR\x02".to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(b"k");
        buf.extend_from_slice(&[0; 64]);
        assert!(matches!(
            read_archive_info(io::Cursor::new(&buf)).unwrap_err(),
            DecodeError::BadVersion(2)
        ));
    }

    #[test]
    fn v3_writer_streams_interleaved_procs() {
        let t0 = Trace::from_entries((0..10).map(TraceEntry::compute).collect());
        let t1 = Trace::from_entries((10..14).map(TraceEntry::compute).collect());
        let program = halt_program();
        let mut buf = Vec::new();
        let mut w = ArchiveWriter::new(&mut buf, "k", "APP", 2, &program).unwrap();
        // Interleave: proc 1, proc 0, proc 0, proc 1 — per-proc order holds.
        w.accept(1, &TraceChunk::from_slice(0, &t1.entries()[0..2]))
            .unwrap();
        w.accept(0, &TraceChunk::from_slice(0, &t0.entries()[0..6]))
            .unwrap();
        w.accept(0, &TraceChunk::from_slice(6, &t0.entries()[6..10]))
            .unwrap();
        w.accept(1, &TraceChunk::from_slice(2, &t1.entries()[2..4]))
            .unwrap();
        let breakdowns = vec![Breakdown::default(); 2];
        w.finish(0, 7, &breakdowns).unwrap();
        let got = decode(&buf).unwrap();
        assert_eq!(got.traces, vec![t0, t1]);
        assert_eq!(got.mp_cycles, 7);
    }

    #[test]
    fn v3_writer_rejects_out_of_order_chunks() {
        let program = halt_program();
        let mut buf = Vec::new();
        let mut w = ArchiveWriter::new(&mut buf, "k", "APP", 1, &program).unwrap();
        let err = w
            .accept(0, &TraceChunk::from_slice(5, &[TraceEntry::compute(0)]))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    /// A reader that logs the offset and length of every `read` call
    /// and the largest buffer any call asked it to fill.
    struct RecordingReader<'a> {
        inner: io::Cursor<&'a [u8]>,
        reads: Vec<(u64, usize)>,
        largest_read: usize,
    }

    impl<'a> RecordingReader<'a> {
        fn new(bytes: &'a [u8]) -> RecordingReader<'a> {
            RecordingReader {
                inner: io::Cursor::new(bytes),
                reads: Vec::new(),
                largest_read: 0,
            }
        }
    }

    impl Read for RecordingReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.largest_read = self.largest_read.max(buf.len());
            let at = self.inner.position();
            let n = self.inner.read(buf)?;
            self.reads.push((at, n));
            Ok(n)
        }
    }

    impl Seek for RecordingReader<'_> {
        fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
            self.inner.seek(pos)
        }
    }

    #[test]
    fn damaged_chunk_length_allocates_only_what_the_file_holds() {
        let mut rng = XorShift64::seed_from_u64(0xE8);
        let (buf, index) = encode_indexed(&sample_run(&mut rng, 2), 8);
        let info = read_archive_info(io::Cursor::new(&buf)).unwrap();
        // Set bit 28 of the first chunk record's byte length: the
        // header still parses (the cap is 1 << 29) but asks for ~256 MiB.
        let mut bad = buf.clone();
        bad[info.chunks_start as usize + 11] ^= 0x10;
        let file_len = bad.len();

        let mut r = RecordingReader::new(&bad);
        assert!(validate_archive_chunks(&mut r, &info).is_err());
        assert!(
            r.largest_read <= 2 * file_len,
            "validation asked for {} bytes of a {file_len}-byte file",
            r.largest_read
        );

        // `encode_indexed` writes processor 0's chunks first.
        let mut r = RecordingReader::new(&bad);
        let mut src = ChunkReader::new(&mut r, &info, &index, 0).unwrap();
        assert!(src.next_chunk().is_err());
        drop(src);
        assert!(
            r.largest_read <= 2 * file_len,
            "the chunk reader asked for {} bytes of a {file_len}-byte file",
            r.largest_read
        );
    }

    /// Every chunk record of an archive, found by walking its headers:
    /// `(processor, first byte, one past the last byte)`.
    fn record_extents(bytes: &[u8], info: &ArchiveInfo) -> Vec<(usize, u64, u64)> {
        let mut r = io::Cursor::new(bytes);
        r.set_position(info.chunks_start);
        let mut extents = Vec::new();
        while let Some(h) = read_chunk_header(&mut r).unwrap() {
            let start = r.position() - RECORD_HEADER_LEN as u64;
            let end = start + (RECORD_OVERHEAD + h.byte_len as usize) as u64;
            extents.push((h.proc as usize, start, end));
            r.set_position(end);
        }
        extents
    }

    #[test]
    fn chunk_reader_reads_each_own_record_once_and_nothing_else() {
        let mut rng = XorShift64::seed_from_u64(0x1D);
        let run = sample_run(&mut rng, 16);
        let (buf, index) = encode_interleaved(&run, 7, &mut rng);
        let info = read_archive_info(io::Cursor::new(&buf)).unwrap();
        let extents = record_extents(&buf, &info);
        for (p, want) in run.traces.iter().enumerate() {
            let own: Vec<(u64, u64)> = extents
                .iter()
                .filter(|&&(proc, ..)| proc == p)
                .map(|&(_, start, end)| (start, end))
                .collect();
            let mut r = RecordingReader::new(&buf);
            let got = collect_source(&mut ChunkReader::new(&mut r, &info, &index, p).unwrap());
            assert_eq!(&got.unwrap(), want, "proc {p}");
            assert_eq!(
                r.reads.len(),
                own.len(),
                "proc {p}: one read per own record"
            );
            let read: usize = r.reads.iter().map(|&(_, n)| n).sum();
            let expected: u64 = own.iter().map(|&(start, end)| end - start).sum();
            assert_eq!(read as u64, expected, "proc {p}: Σ(28 + byte_len + 8)");
            for &(at, n) in &r.reads {
                let end = at + n as u64;
                assert!(
                    own.iter().any(|&(s, e)| s <= at && end <= e),
                    "proc {p}: read of bytes {at}..{end} leaves its own records"
                );
            }
        }
    }

    #[test]
    fn writer_and_validation_build_the_same_index() {
        let mut rng = XorShift64::seed_from_u64(0x1E);
        for chunk_len in [1usize, 7, crate::stream::DEFAULT_CHUNK_LEN] {
            for _ in 0..4 {
                let procs = 1 + rng.range_usize(6);
                let run = sample_run(&mut rng, procs);
                let (buf, written) = encode_interleaved(&run, chunk_len, &mut rng);
                let info = read_archive_info(io::Cursor::new(&buf)).unwrap();
                let validated = validate_archive_chunks(io::Cursor::new(&buf), &info).unwrap();
                assert_eq!(written, validated, "chunk_len {chunk_len}");
            }
        }
    }

    /// Reads every processor of `bytes` through `index`, appending the
    /// chunks as they come: unlike `collect_source`, nothing here checks
    /// that they continue each other, so only the reader's own checks
    /// stand between a wrong index and a wrong trace.
    fn read_all(bytes: &[u8], index: &ChunkIndex) -> Result<Vec<Trace>, StreamError> {
        let info = read_archive_info(io::Cursor::new(bytes))?;
        (0..info.num_procs())
            .map(|p| {
                let mut src = ChunkReader::new(io::Cursor::new(bytes), &info, index, p)?;
                let mut trace = Trace::new();
                while let Some(chunk) = src.next_chunk()? {
                    trace.extend(chunk.iter());
                }
                Ok(trace)
            })
            .collect()
    }

    #[test]
    fn a_wrong_index_is_an_error_never_another_trace() {
        let mut rng = XorShift64::seed_from_u64(0x1F);
        let mut run = sample_run(&mut rng, 4);
        // Processors 0 and 1 get traces of one length, so their record
        // lists differ only in the processor their headers name.
        let twin_len = run.traces[0].len();
        run.traces[1] = Trace::from_entries((0..twin_len).map(|_| gen_entry(&mut rng)).collect());
        let (buf, index) = encode_interleaved(&run, 7, &mut rng);
        assert_eq!(read_all(&buf, &index).unwrap(), run.traces);
        let other = sample_run(&mut rng, 4);
        let (_, other_index) = encode_interleaved(&other, 7, &mut rng);
        let mut swapped = index.clone();
        swapped.records.swap(0, 1);
        let mut wrong = vec![
            ("another archive's", other_index),
            ("two processors' records swapped", swapped),
        ];
        for p in 0..run.traces.len() {
            if index.records[p].len() < 2 {
                continue;
            }
            let mut shifted = index.clone();
            let next = shifted.records[p].remove(0);
            shifted.records[p].push(next);
            wrong.push(("shifted by one record", shifted));
            let mut dropped = index.clone();
            dropped.records[p].remove(rng.range_usize(index.records[p].len()));
            wrong.push(("one record dropped", dropped));
            let mut dropped_last = index.clone();
            dropped_last.records[p].pop();
            wrong.push(("the last record dropped", dropped_last));
        }
        // Every file offset one record later in the file: each record
        // span now names the next record, of whichever processor.
        let extents = record_extents(&buf, &read_archive_info(io::Cursor::new(&buf)).unwrap());
        let mut moved = index.clone();
        for spans in &mut moved.records {
            for span in spans.iter_mut() {
                let i = extents
                    .iter()
                    .position(|&(_, s, _)| s == span.offset)
                    .unwrap();
                if let Some(&(_, next, end)) = extents.get(i + 1) {
                    span.offset = next;
                    span.byte_len = (end - next) as u32 - RECORD_OVERHEAD as u32;
                }
            }
        }
        wrong.push(("moved one record along the file", moved));
        for (what, index) in &wrong {
            assert!(
                read_all(&buf, index).is_err(),
                "an index with {what} read the archive without an error"
            );
        }
    }

    #[test]
    fn a_record_damaged_after_validation_fails_its_checksum() {
        let mut rng = XorShift64::seed_from_u64(0x20);
        let run = sample_run(&mut rng, 3);
        let (clean, index) = encode_interleaved(&run, 7, &mut rng);
        let info = read_archive_info(io::Cursor::new(&clean)).unwrap();
        assert_eq!(
            validate_archive_chunks(io::Cursor::new(&clean), &info).unwrap(),
            index
        );
        // Flip one bit in each record's payload and checksum in turn:
        // the header still matches the index, so only the checksum can
        // tell.
        for (proc, start, end) in record_extents(&clean, &info) {
            for pos in [start + RECORD_HEADER_LEN as u64, end - 1] {
                let mut buf = clean.clone();
                buf[pos as usize] ^= 0x04;
                let got = collect_source(
                    &mut ChunkReader::new(io::Cursor::new(&buf), &info, &index, proc).unwrap(),
                );
                assert!(
                    matches!(
                        got,
                        Err(StreamError::Decode(DecodeError::BadChecksum { .. }))
                    ),
                    "proc {proc}: a flip at byte {pos} gave {got:?}"
                );
            }
        }
    }
}
