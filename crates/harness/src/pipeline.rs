//! Steps 1–3 of the paper's methodology: workload → multiprocessor
//! simulation → representative annotated trace.

use lookahead_core::base::Base;
use lookahead_core::{ExecutionResult, ProcessorModel};
use lookahead_isa::Program;
use lookahead_multiproc::{SimConfig, SimError, SimOutcome, Simulator};
use lookahead_obs::span;
use lookahead_trace::storage::{ArchiveInfo, ChunkReader};
use lookahead_trace::{collect_source, Breakdown, SliceSource, StreamError, Trace, TraceSource};
use lookahead_workloads::Workload;
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::io::{self, BufReader};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

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

/// Where an [`AppRun`]'s traces live.
///
/// `Memory` is the fully-materialized form of direct generation: runs
/// without a cache, and the fallback when an archive cannot be
/// written. `Archive` backs every cache hit (and streamed generation)
/// with a validated on-disk v3 archive: re-timing streams chunks from
/// the file, and a trace is only materialized when a consumer
/// genuinely needs random access (trace statistics, listings, the
/// multiple-contexts model) — lazily, at most once per processor.
#[derive(Debug)]
enum TraceStore {
    Memory { traces: Vec<Arc<Trace>> },
    // Boxed: the archive bookkeeping dwarfs the Memory variant.
    Archive(Box<ArchiveStore>),
}

#[derive(Debug)]
struct ArchiveStore {
    path: PathBuf,
    info: ArchiveInfo,
    /// One OS handle shared by every streamed reader over this archive
    /// (previously each cell reopened the file); readers carry their
    /// own offsets, so concurrent cells never fight over a cursor.
    file: OnceLock<Arc<fs::File>>,
    /// Lazily materialized representative trace.
    rep: OnceLock<Arc<Trace>>,
    /// Lazily materialized non-representative traces.
    others: Mutex<BTreeMap<usize, Arc<Trace>>>,
}

impl ArchiveStore {
    /// The shared archive handle, opened once per run instead of once
    /// per cell.
    fn shared_file(&self) -> Result<Arc<fs::File>, StreamError> {
        if let Some(f) = self.file.get() {
            return Ok(Arc::clone(f));
        }
        let f = Arc::new(fs::File::open(&self.path).map_err(StreamError::Io)?);
        Ok(Arc::clone(self.file.get_or_init(|| f)))
    }

    /// A chunk reader over processor `proc`, on the shared handle.
    fn open_reader(
        &self,
        proc: usize,
    ) -> Result<ChunkReader<BufReader<SharedFileReader>>, StreamError> {
        let reader = SharedFileReader {
            file: self.shared_file()?,
            pos: 0,
        };
        ChunkReader::new(BufReader::new(reader), &self.info, proc).map_err(StreamError::Decode)
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
/// Every re-timing of the representative trace, by
/// [`retime`](Self::retime) or by a gang, is one pass over a single
/// chunk source: the archive reader, or a slice of the trace once it is
/// in memory.
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
    store: TraceStore,
    /// The BASE reference result, re-timed on first use.
    base: OnceLock<ExecutionResult>,
}

impl AppRun {
    /// Generates a verified trace for `workload` under `config`,
    /// materialized in memory.
    ///
    /// The representative processor is the one that executed the most
    /// instructions (the paper picks "one of the processes"; the
    /// busiest one avoids an unluckily idle pick).
    ///
    /// # Errors
    ///
    /// Fails if the simulation fails or the workload's self-check
    /// rejects the result.
    pub fn generate(workload: &dyn Workload, config: &SimConfig) -> Result<AppRun, PipelineError> {
        let built = workload.build(config.num_procs);
        let program = built.program.clone();
        let sim = Simulator::new(built.program, built.image, *config)?;
        let outcome: SimOutcome = sim.run()?;
        (built.verify)(&outcome.final_memory).map_err(|reason| PipelineError::Verification {
            app: workload.name().to_string(),
            reason,
        })?;
        let proc = outcome.busiest_proc();
        let traces: Vec<Arc<Trace>> = outcome.traces.into_iter().map(Arc::new).collect();
        Ok(AppRun {
            app: workload.name().to_string(),
            program,
            proc,
            mp_breakdowns: outcome.breakdowns,
            mp_cycles: outcome.total_cycles,
            store: TraceStore::Memory { traces },
            base: OnceLock::new(),
        })
    }

    /// A run backed by a validated v3 archive at `path`. Traces stream
    /// from the file on demand; nothing is materialized up front.
    pub fn from_archive(path: PathBuf, info: ArchiveInfo) -> AppRun {
        AppRun {
            app: info.app.clone(),
            program: info.program.clone(),
            proc: info.proc as usize,
            mp_breakdowns: info.breakdowns.clone(),
            mp_cycles: info.mp_cycles,
            store: TraceStore::Archive(Box::new(ArchiveStore {
                path,
                info,
                file: OnceLock::new(),
                rep: OnceLock::new(),
                others: Mutex::new(BTreeMap::new()),
            })),
            base: OnceLock::new(),
        }
    }

    /// Number of processors whose traces this run carries.
    pub fn num_procs(&self) -> usize {
        match &self.store {
            TraceStore::Memory { traces } => traces.len(),
            TraceStore::Archive(a) => a.info.num_procs(),
        }
    }

    /// Length of the representative trace, without materializing it
    /// (archives know it from their trailer).
    pub fn trace_len(&self) -> usize {
        match &self.store {
            TraceStore::Memory { traces } => traces[self.proc].len(),
            TraceStore::Archive(a) => a.info.totals[self.proc].entries as usize,
        }
    }

    /// The representative processor's annotated trace, materializing
    /// it from the backing archive on first access.
    ///
    /// # Panics
    ///
    /// Panics if the backing archive (validated at load time) can no
    /// longer be read — the file was deleted or damaged mid-process.
    pub fn trace(&self) -> &Trace {
        match &self.store {
            TraceStore::Memory { traces } => &traces[self.proc],
            TraceStore::Archive(a) => a.rep.get_or_init(|| {
                Arc::new(
                    read_proc_trace(&a.path, &a.info, self.proc)
                        .unwrap_or_else(|e| panic!("{}", archive_vanished(&self.app, &a.path, &e))),
                )
            }),
        }
    }

    /// Processor `p`'s trace (used by the multiple-contexts model,
    /// which interleaves several streams on one pipeline),
    /// materializing it on first access.
    ///
    /// # Panics
    ///
    /// As [`trace`](Self::trace); also panics if `p` is out of range.
    pub fn trace_for(&self, p: usize) -> Arc<Trace> {
        match &self.store {
            TraceStore::Memory { traces } => Arc::clone(&traces[p]),
            TraceStore::Archive(a) => {
                assert!(p < a.info.num_procs(), "processor {p} out of range");
                if p == self.proc {
                    self.trace();
                    return Arc::clone(a.rep.get().expect("just materialized"));
                }
                Arc::clone(
                    a.others
                        .lock()
                        .expect("trace cache lock")
                        .entry(p)
                        .or_insert_with(|| {
                            Arc::new(read_proc_trace(&a.path, &a.info, p).unwrap_or_else(|e| {
                                panic!("{}", archive_vanished(&self.app, &a.path, &e))
                            }))
                        }),
                )
            }
        }
    }

    /// Every processor's trace, materializing as needed.
    pub fn all_traces(&self) -> Vec<Arc<Trace>> {
        (0..self.num_procs()).map(|p| self.trace_for(p)).collect()
    }

    /// The representative trace as a chunk source: the archive reader
    /// while the trace is not materialized, otherwise a [`SliceSource`]
    /// over the in-memory trace (once the trace is materialized anyway,
    /// slicing it is cheaper than re-reading the file). Every re-timing
    /// pass reads the trace through here.
    pub(crate) fn source(&self) -> Result<Box<dyn TraceSource + Send + '_>, StreamError> {
        match &self.store {
            TraceStore::Archive(a) if a.rep.get().is_none() => {
                Ok(Box::new(a.open_reader(self.proc)?))
            }
            _ => Ok(Box::new(SliceSource::new(self.trace()))),
        }
    }

    /// The chunk source every re-timing pass over the representative
    /// trace reads: the archive reader while the trace is not
    /// materialized, otherwise a slice of it. `None` only when the
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
    /// Panics if the backing archive (validated at load time) can no
    /// longer be read — the file was deleted or damaged mid-process.
    pub fn retime(&self, model: &dyn ProcessorModel) -> ExecutionResult {
        span::record_current("retime.cell", || {
            let pass = self
                .source()
                .and_then(|mut source| model.run_source(&self.program, source.as_mut()));
            self.expect_readable(pass)
        })
    }

    /// The value of a pass over [`source`](Self::source). Only an
    /// archive can fail to stream, and only when it was deleted or
    /// damaged after load-time validation: that panics once, naming the
    /// archive.
    pub(crate) fn expect_readable<T>(&self, pass: Result<T, StreamError>) -> T {
        pass.unwrap_or_else(|e| match &self.store {
            TraceStore::Archive(a) => panic!("{}", archive_vanished(&self.app, &a.path, &e)),
            TraceStore::Memory { .. } => unreachable!("an in-memory trace failed to stream: {e}"),
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

fn archive_vanished(app: &str, path: &Path, e: &StreamError) -> String {
    format!(
        "the {app} trace archive at {} was validated at load time but can \
         no longer be read ({e}); it was deleted or damaged mid-process",
        path.display()
    )
}

fn open_reader(
    path: &Path,
    info: &ArchiveInfo,
    proc: usize,
) -> Result<ChunkReader<BufReader<fs::File>>, StreamError> {
    let file = fs::File::open(path).map_err(StreamError::Io)?;
    ChunkReader::new(BufReader::new(file), info, proc).map_err(StreamError::Decode)
}

fn read_proc_trace(path: &Path, info: &ArchiveInfo, proc: usize) -> Result<Trace, StreamError> {
    let mut reader = open_reader(path, info, proc)?;
    collect_source(&mut reader)
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
        // A memory-backed run re-times over a slice of its trace, as a
        // direct run of the engine does.
        let direct = Base.run(&run.program, run.trace());
        assert_eq!(run.retime(&Base), direct);
    }

    #[test]
    fn base_is_retimed_once_and_equals_a_base_cell() {
        let config = SimConfig {
            num_procs: 4,
            ..SimConfig::default()
        };
        let memory = AppRun::generate(&Lu { n: 12 }, &config).expect("pipeline succeeds");
        let dir = std::env::temp_dir().join(format!("lktr-pipeline-test-{}", std::process::id()));
        let cache = crate::TraceCache::new(&dir);
        let key = crate::cache_key("LU", "small", &config);
        cache.store(&key, &memory).expect("archive written");
        let archived = cache.load("LU", &key).expect("archive loads");
        for run in [&memory, &archived] {
            let first = run.base();
            assert_eq!(*first, run.retime(&Base));
            assert!(std::ptr::eq(first, run.base()), "the second call re-timed");
        }
        assert_eq!(archived.base(), memory.base());
        assert!(
            matches!(&archived.store, TraceStore::Archive(a) if a.rep.get().is_none()),
            "BASE streamed without materializing the trace"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
