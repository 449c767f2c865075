//! Steps 1–3 of the paper's methodology: workload → multiprocessor
//! simulation → representative annotated trace.
//!
//! A generated run is one LKTR v3 archive ([`lookahead_trace::storage`])
//! and nothing else. One generator streams the simulator's chunks
//! into an [`ArchiveWriter`] over any writer: the trace cache points it
//! at a temporary file ([`crate::cache`]), and a run without a cache at
//! a buffer in memory. Either way an [`AppRun`] reads its traces back
//! through a [`ChunkReader`], and materializes a processor's trace only
//! for a consumer that needs random access.

use crate::cache::cache_key;
use lookahead_core::base::Base;
use lookahead_core::{ExecutionResult, ProcessorModel};
use lookahead_isa::Program;
use lookahead_multiproc::{SimConfig, SimError, Simulator};
use lookahead_obs::span;
use lookahead_trace::storage::{read_archive_info, ArchiveInfo, ArchiveWriter, ChunkReader};
use lookahead_trace::{collect_source, Breakdown, SliceSource, StreamError, Trace, TraceSource};
use lookahead_workloads::Workload;
use std::fmt;
use std::fs;
use std::io::{self, BufReader, Cursor, Write};
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

/// Errors from trace generation.
#[derive(Debug)]
pub enum PipelineError {
    /// The multiprocessor simulation failed (deadlock, cycle limit,
    /// interpreter fault).
    Sim(SimError),
    /// The workload's self-check rejected the final memory — the
    /// simulation stack miscomputed the application.
    Verification { app: String, reason: String },
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::Sim(e) => write!(f, "multiprocessor simulation failed: {e}"),
            PipelineError::Verification { app, reason } => {
                write!(f, "{app} result verification failed: {reason}")
            }
        }
    }
}

impl std::error::Error for PipelineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PipelineError::Sim(e) => Some(e),
            PipelineError::Verification { .. } => None,
        }
    }
}

impl From<SimError> for PipelineError {
    fn from(e: SimError) -> PipelineError {
        PipelineError::Sim(e)
    }
}

/// How [`write_generated`] failed, deciding the recovery.
#[derive(Debug)]
pub(crate) enum GenerateError {
    /// The simulation or the workload's self-check failed: generating
    /// again would fail the same way, so this reaches the caller.
    Pipeline(PipelineError),
    /// The archive's writer failed (disk full, permissions): the
    /// simulation could still succeed into another writer.
    Io(io::Error),
}

/// Simulates `workload` under `config` and streams every processor's
/// trace chunks into an LKTR v3 archive on `w`, under `key`, as the
/// simulator produces them; the full trace set is never held. The
/// trailer that seals the archive is written only after the workload's
/// self-check passes. The representative processor is the one that
/// executed the most instructions (the paper picks "one of the
/// processes"; the busiest one avoids an unluckily idle pick). Returns
/// the writer, for the caller to flush, sync or keep.
pub(crate) fn write_generated<W: Write>(
    w: W,
    key: &str,
    workload: &dyn Workload,
    config: &SimConfig,
) -> Result<W, GenerateError> {
    use GenerateError::{Io, Pipeline};
    let built = workload.build(config.num_procs);
    let mut writer = ArchiveWriter::new(w, key, workload.name(), config.num_procs, &built.program)
        .map_err(Io)?;
    let sim =
        Simulator::new(built.program, built.image, *config).map_err(|e| Pipeline(e.into()))?;
    let outcome = sim.run_with_sink(&mut writer).map_err(|e| match e {
        SimError::Sink(e) => Io(e),
        other => Pipeline(other.into()),
    })?;
    (built.verify)(&outcome.final_memory).map_err(|reason| {
        Pipeline(PipelineError::Verification {
            app: workload.name().to_string(),
            reason,
        })
    })?;
    span::record_current("archive.finish", || {
        writer.finish(
            outcome.busiest_proc(),
            outcome.total_cycles,
            &outcome.breakdowns,
        )
    })
    .map_err(Io)
}

/// Where an [`AppRun`]'s archive bytes live.
#[derive(Debug)]
enum ArchiveBytes {
    /// A validated trace-cache file.
    File(SharedFile),
    /// The buffer a run was generated into: runs without a cache, and
    /// the fallback when the cache directory cannot be written.
    Memory(Vec<u8>),
}

/// An archive file with one OS handle, opened on first read and shared
/// by every reader; readers carry their own offsets, so concurrent
/// passes never fight over a cursor.
#[derive(Debug)]
struct SharedFile {
    path: PathBuf,
    handle: OnceLock<Arc<fs::File>>,
}

impl SharedFile {
    /// A reader at the start of the file, on the shared handle.
    fn reader(&self) -> io::Result<SharedFileReader> {
        let file = match self.handle.get() {
            Some(f) => Arc::clone(f),
            None => {
                let f = Arc::new(fs::File::open(&self.path)?);
                Arc::clone(self.handle.get_or_init(|| f))
            }
        };
        Ok(SharedFileReader { file, pos: 0 })
    }
}

/// A positioned view over a shared archive file: each reader tracks its
/// own offset and reads with `read_at`, so any number of concurrent
/// readers share one OS handle without interfering.
#[derive(Debug)]
struct SharedFileReader {
    file: Arc<fs::File>,
    pos: u64,
}

impl io::Read for SharedFileReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        use std::os::unix::fs::FileExt;
        let n = self.file.read_at(buf, self.pos)?;
        self.pos += n as u64;
        Ok(n)
    }
}

impl io::Seek for SharedFileReader {
    fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64> {
        let new = match pos {
            io::SeekFrom::Start(n) => Some(n),
            io::SeekFrom::Current(d) => self.pos.checked_add_signed(d),
            io::SeekFrom::End(d) => self.file.metadata()?.len().checked_add_signed(d),
        };
        self.pos = new.ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "seek before archive start")
        })?;
        Ok(self.pos)
    }
}

/// A generated run of one application: the program, the representative
/// processor's trace, and the multiprocessor-level statistics the
/// paper's Tables 1–2 report.
///
/// Every run is backed by one LKTR v3 archive, in a cache file or in
/// memory. Every re-timing of the representative trace, by
/// [`retime`](Self::retime) or by a gang, is one pass over a single
/// chunk source: the archive's chunk reader, or a slice of the trace
/// once it is materialized.
#[derive(Debug)]
pub struct AppRun {
    /// Application name ("MP3D", "LU", ...).
    pub app: String,
    /// The SPMD program (needed by the processor models for register
    /// dependences).
    pub program: Program,
    /// Which processor the representative trace belongs to.
    pub proc: usize,
    /// The generating run's per-processor breakdowns (diagnostic).
    pub mp_breakdowns: Vec<Breakdown>,
    /// Total multiprocessor cycles of the generating run.
    pub mp_cycles: u64,
    info: ArchiveInfo,
    bytes: ArchiveBytes,
    /// Each processor's trace, materialized on first access.
    traces: Vec<OnceLock<Arc<Trace>>>,
    /// The BASE reference result, re-timed on first use.
    base: OnceLock<ExecutionResult>,
}

impl AppRun {
    /// Generates a verified run of `workload` under `config` into
    /// memory: the archive the trace cache would write, keyed as the
    /// cache keys a run, with `custom` for the size tier (the workload's
    /// size is the caller's choice). Re-timing streams its chunks, as a
    /// cache hit does.
    ///
    /// # Errors
    ///
    /// Fails if the simulation fails or the workload's self-check
    /// rejects the result.
    pub fn generate(workload: &dyn Workload, config: &SimConfig) -> Result<AppRun, PipelineError> {
        AppRun::in_memory(
            &cache_key(workload.name(), "custom", config),
            workload,
            config,
        )
    }

    /// [`write_generated`] into a memory buffer under `key`, and the
    /// run that reads it.
    pub(crate) fn in_memory(
        key: &str,
        workload: &dyn Workload,
        config: &SimConfig,
    ) -> Result<AppRun, PipelineError> {
        let bytes = write_generated(Vec::new(), key, workload, config).map_err(|e| match e {
            GenerateError::Pipeline(e) => e,
            GenerateError::Io(e) => unreachable!("writing an archive into memory failed: {e}"),
        })?;
        let info =
            read_archive_info(Cursor::new(bytes.as_slice())).expect("a fresh archive reads back");
        Ok(AppRun::new(info, ArchiveBytes::Memory(bytes)))
    }

    /// A run backed by a validated v3 archive at `path`. Traces stream
    /// from the file on demand; nothing is materialized up front.
    pub fn from_archive(path: PathBuf, info: ArchiveInfo) -> AppRun {
        let file = SharedFile {
            path,
            handle: OnceLock::new(),
        };
        AppRun::new(info, ArchiveBytes::File(file))
    }

    fn new(info: ArchiveInfo, bytes: ArchiveBytes) -> AppRun {
        AppRun {
            app: info.app.clone(),
            program: info.program.clone(),
            proc: info.proc as usize,
            mp_breakdowns: info.breakdowns.clone(),
            mp_cycles: info.mp_cycles,
            traces: (0..info.num_procs()).map(|_| OnceLock::new()).collect(),
            info,
            bytes,
            base: OnceLock::new(),
        }
    }

    /// Number of processors whose traces this run carries.
    pub fn num_procs(&self) -> usize {
        self.info.num_procs()
    }

    /// Length of the representative trace, from the archive's trailer,
    /// without materializing it.
    pub fn trace_len(&self) -> usize {
        self.info.totals[self.proc].entries as usize
    }

    /// The representative processor's annotated trace, materializing
    /// it from the archive on first access.
    ///
    /// # Panics
    ///
    /// Panics if a cache archive (validated at load time) can no longer
    /// be read — the file was deleted or damaged mid-process.
    pub fn trace(&self) -> &Trace {
        self.materialized(self.proc)
    }

    /// Processor `p`'s trace (used by the multiple-contexts model,
    /// which interleaves several streams on one pipeline),
    /// materializing it on first access.
    ///
    /// # Panics
    ///
    /// As [`trace`](Self::trace); also panics if `p` is out of range.
    pub fn trace_for(&self, p: usize) -> Arc<Trace> {
        Arc::clone(self.materialized(p))
    }

    /// Every processor's trace, materializing as needed.
    pub fn all_traces(&self) -> Vec<Arc<Trace>> {
        (0..self.num_procs()).map(|p| self.trace_for(p)).collect()
    }

    fn materialized(&self, p: usize) -> &Arc<Trace> {
        self.traces[p].get_or_init(|| {
            let trace = self
                .chunks(p)
                .and_then(|mut reader| collect_source(reader.as_mut()));
            Arc::new(self.expect_readable(trace))
        })
    }

    /// A chunk reader over processor `p`'s trace in the run's archive.
    fn chunks(&self, p: usize) -> Result<Box<dyn TraceSource + Send + '_>, StreamError> {
        Ok(match &self.bytes {
            ArchiveBytes::File(file) => Box::new(ChunkReader::new(
                BufReader::new(file.reader()?),
                &self.info,
                p,
            )?),
            ArchiveBytes::Memory(bytes) => Box::new(ChunkReader::new(
                Cursor::new(bytes.as_slice()),
                &self.info,
                p,
            )?),
        })
    }

    /// Copies the run's archive, byte for byte, to `w`: a copy is a
    /// valid trace-cache file. Returns the number of bytes written.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from reading the cache file or writing `w`.
    pub fn write_archive(&self, w: &mut impl Write) -> io::Result<u64> {
        match &self.bytes {
            ArchiveBytes::File(file) => io::copy(&mut file.reader()?, w),
            ArchiveBytes::Memory(bytes) => w.write_all(bytes).map(|()| bytes.len() as u64),
        }
    }

    /// The representative trace as a chunk source: the archive's chunk
    /// reader while the trace is not materialized, otherwise a
    /// [`SliceSource`] over it (once the trace is in memory anyway,
    /// slicing it is cheaper than decoding the archive again). Every
    /// re-timing pass reads the trace through here.
    pub(crate) fn source(&self) -> Result<Box<dyn TraceSource + Send + '_>, StreamError> {
        match self.traces[self.proc].get() {
            Some(trace) => Ok(Box::new(SliceSource::new(trace))),
            None => self.chunks(self.proc),
        }
    }

    /// The chunk source every re-timing pass over the representative
    /// trace reads: the archive's chunk reader while the trace is not
    /// materialized, otherwise a slice of it. `None` only when a cache
    /// archive can no longer be opened.
    pub fn gang_source(&self) -> Option<Box<dyn TraceSource + Send + '_>> {
        self.source().ok()
    }

    /// Re-times the representative trace under `model` in one pass over
    /// its chunk source (see [`gang_source`](Self::gang_source)): memory
    /// is bounded by the model's live window, not the trace length.
    ///
    /// # Panics
    ///
    /// Panics if a cache archive (validated at load time) can no longer
    /// be read — the file was deleted or damaged mid-process.
    pub fn retime(&self, model: &dyn ProcessorModel) -> ExecutionResult {
        span::record_current("retime.cell", || {
            let pass = self
                .source()
                .and_then(|mut source| model.run_source(&self.program, source.as_mut()));
            self.expect_readable(pass)
        })
    }

    /// The value of a pass over the run's archive. Only a cache file can
    /// fail to stream, and only when it was deleted or damaged after
    /// load-time validation: that panics once, naming the archive.
    pub(crate) fn expect_readable<T>(&self, pass: Result<T, StreamError>) -> T {
        pass.unwrap_or_else(|e| match &self.bytes {
            ArchiveBytes::File(file) => panic!(
                "the {} trace archive at {} was validated at load time but can \
                 no longer be read ({e}); it was deleted or damaged mid-process",
                self.app,
                file.path.display()
            ),
            ArchiveBytes::Memory(_) => unreachable!("an archive in memory failed to stream: {e}"),
        })
    }

    /// The run's BASE reference result, which every other model is
    /// normalized to: re-timed through [`retime`](Self::retime) on the
    /// first call, the same result afterwards. Concurrent first calls
    /// wait for one pass. Gangs re-time BASE as an ordinary cell and
    /// neither read nor fill this.
    pub fn base(&self) -> &ExecutionResult {
        self.base.get_or_init(|| self.retime(&Base))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookahead_workloads::lu::Lu;

    #[test]
    fn generate_produces_verified_trace() {
        let config = SimConfig {
            num_procs: 4,
            ..SimConfig::default()
        };
        let run = AppRun::generate(&Lu { n: 12 }, &config).expect("pipeline succeeds");
        assert_eq!(run.app, "LU");
        assert!(!run.trace().is_empty());
        assert_eq!(run.trace_len(), run.trace().len());
        assert_eq!(run.num_procs(), 4);
        assert!(run.mp_cycles > 0);
        assert_eq!(run.mp_breakdowns.len(), 4);
        assert!(run.proc < 4);
        // Once the trace is materialized, a run re-times over a slice
        // of it, as a direct run of the engine does.
        let direct = Base.run(&run.program, run.trace());
        assert_eq!(run.retime(&Base), direct);
    }

    #[test]
    fn base_is_retimed_once_and_equals_a_base_cell() {
        let config = SimConfig {
            num_procs: 4,
            ..SimConfig::default()
        };
        let dir = std::env::temp_dir().join(format!("lktr-pipeline-test-{}", std::process::id()));
        let cache = crate::TraceCache::new(&dir);
        let load = |cache| crate::load_or_generate(cache, &Lu { n: 12 }, "small", &config);
        let (memory, _) = load(None).expect("pipeline succeeds");
        let (_, cold) = load(Some(&cache)).expect("pipeline succeeds");
        let (archived, warm) = load(Some(&cache)).expect("archive loads");
        assert!(!cold.is_hit() && warm.is_hit());
        for run in [&memory, &archived] {
            let first = run.base();
            assert_eq!(*first, run.retime(&Base));
            assert!(std::ptr::eq(first, run.base()), "the second call re-timed");
            assert!(
                run.traces[run.proc].get().is_none(),
                "BASE streamed without materializing the trace"
            );
        }
        assert_eq!(archived.base(), memory.base());
        let _ = fs::remove_dir_all(&dir);
    }
}
