//! Content-addressed on-disk cache of generated application runs.
//!
//! Trace generation is the expensive half of the pipeline: a full
//! 16-processor execution-driven simulation per application. The
//! re-timing half consumes the same trace dozens of times. This cache
//! makes generation pay-once: an [`AppRun`] is stored as a version-3
//! chunked `LKTR` archive ([`lookahead_trace::storage`]) under a file
//! name derived from a **fingerprint of everything that influences the
//! trace** — workload name, size tier, the full [`SimConfig`], and the
//! archive format version.
//!
//! The chunked layout makes the cache *streaming* in both directions:
//!
//! * on a **miss**, the simulator's per-processor chunks are written
//!   to the archive as they are produced ([`Simulator::run_with_sink`]
//!   into an [`ArchiveWriter`]), so generation never materializes the
//!   trace set in memory;
//! * on a **hit**, every chunk record is checksum-verified in one
//!   bounded pass ([`validate_archive_chunks`]) and the run is handed
//!   back *archive-backed*: re-timing streams chunks from disk
//!   ([`AppRun::retime`]), and traces materialize lazily only for
//!   consumers that need random access.
//!
//! Safety properties, in order of importance:
//!
//! * a key mismatch, checksum failure or decode error **falls back to
//!   regeneration, never to a wrong answer** — the canonical key
//!   string is stored inside the archive and compared on load, so even
//!   a hash collision or a renamed file cannot smuggle a stale trace in;
//! * corrupt files (including leftover v1/v2 archives) are evicted on
//!   sight so the next run is a clean miss;
//! * stores write to a temporary file and rename into place, so a
//!   crashed or concurrent writer never leaves a torn archive behind —
//!   including the streamed-generation path, whose partial archive
//!   only becomes visible after verification succeeds.

use crate::pipeline::{AppRun, PipelineError};
use lookahead_multiproc::{SimConfig, SimError, Simulator};
use lookahead_obs::span;
use lookahead_trace::storage::{
    read_archive_info, validate_archive_chunks, ArchiveWriter, ARCHIVE_VERSION,
};
use lookahead_trace::{fnv1a, DecodeError, SliceSource, TraceSink, TraceSource, DEFAULT_CHUNK_LEN};
use lookahead_workloads::Workload;
use std::fmt;
use std::fs;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};

/// Builds the canonical cache-key string for one generated run.
///
/// Every field of [`SimConfig`] is spelled into the key (the
/// destructuring below fails to compile when a field is added, forcing
/// this function to be updated), together with the workload name, the
/// size tier and [`ARCHIVE_VERSION`]. Two runs re-time identically if
/// and only if their keys match.
pub fn cache_key(app: &str, tier: &str, config: &SimConfig) -> String {
    let SimConfig {
        num_procs,
        cache,
        mem,
        write_buffer_depth,
        memory_bytes,
        max_cycles,
        memory_bandwidth,
    } = *config;
    let opt = |v: Option<u64>| v.map_or("none".to_string(), |x| x.to_string());
    format!(
        "lktr-v{ARCHIVE_VERSION};app={app};tier={tier};procs={num_procs};\
         cache={}/{}/{};hit={};miss={};wb={write_buffer_depth};\
         membytes={};maxcycles={max_cycles};bw={}",
        cache.size_bytes,
        cache.line_bytes,
        cache.ways,
        mem.hit_latency,
        mem.miss_penalty,
        opt(memory_bytes),
        opt(memory_bandwidth.map(|b| b as u64)),
    )
}

/// Why a cache lookup did not produce a run.
#[derive(Debug)]
pub enum MissReason {
    /// No file exists for the key.
    Absent,
    /// The file decoded but was generated under a different key
    /// (configuration drift or a fingerprint collision).
    KeyMismatch {
        /// The key stored in the archive.
        found: String,
    },
    /// The file failed to decode, failed a checksum or has mutually
    /// inconsistent sections (this includes archives in the retired
    /// v1/v2 layouts); it has been evicted.
    Corrupt(DecodeError),
    /// The file could not be read at the I/O level.
    Io(std::io::Error),
}

impl fmt::Display for MissReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MissReason::Absent => write!(f, "not cached"),
            MissReason::KeyMismatch { found } => {
                write!(f, "cached under a different key ({found})")
            }
            MissReason::Corrupt(e) => write!(f, "corrupt cache file ({e}); evicted"),
            MissReason::Io(e) => write!(f, "cache i/o error ({e})"),
        }
    }
}

/// Outcome of [`load_or_generate`].
#[derive(Debug)]
pub enum CacheOutcome {
    /// Served from disk; no multiprocessor simulation ran.
    Hit,
    /// Generated (and stored when a cache is present), with the reason
    /// the lookup missed.
    Generated(MissReason),
}

impl CacheOutcome {
    /// Whether this run was served from the cache.
    pub fn is_hit(&self) -> bool {
        matches!(self, CacheOutcome::Hit)
    }
}

/// A directory of content-addressed `.lktr` archives.
#[derive(Debug, Clone)]
pub struct TraceCache {
    dir: PathBuf,
}

impl TraceCache {
    /// Creates a handle on `dir`. The directory is created lazily on
    /// first store.
    pub fn new(dir: impl Into<PathBuf>) -> TraceCache {
        TraceCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file an archive with this key lives at. The app name is kept
    /// in the file name for human inspection; the fingerprint is what
    /// addresses the content.
    pub fn path_for(&self, app: &str, key: &str) -> PathBuf {
        let safe: String = app
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
            .collect();
        self.dir
            .join(format!("{safe}-{:016x}.lktr", fnv1a(key.as_bytes())))
    }

    /// Looks up `key`, returning the cached run or the reason there is
    /// none. Corrupt or mismatching files are evicted.
    ///
    /// Every chunk record is checksum-verified before the run is
    /// returned, so subsequent streaming from the archive cannot trip
    /// over damaged data. The run is archive-backed: traces stream from
    /// disk on demand.
    pub fn load(&self, app: &str, key: &str) -> Result<AppRun, MissReason> {
        let path = self.path_for(app, key);
        let file = match fs::File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(MissReason::Absent),
            Err(e) => return Err(MissReason::Io(e)),
        };
        let evict = |e: DecodeError| {
            let _ = fs::remove_file(&path);
            MissReason::Corrupt(e)
        };
        let mut r = BufReader::new(file);
        let info = read_archive_info(&mut r).map_err(evict)?;
        if info.key != key {
            let _ = fs::remove_file(&path);
            return Err(MissReason::KeyMismatch { found: info.key });
        }
        validate_archive_chunks(&mut r, &info).map_err(evict)?;
        Ok(AppRun::from_archive(path, info))
    }

    /// Stores `run` under `key`, atomically (write to a temporary file
    /// in the same directory, then rename into place) with
    /// [`write_run`].
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the cache directory is created if
    /// missing.
    pub fn store(&self, key: &str, run: &AppRun) -> std::io::Result<PathBuf> {
        fs::create_dir_all(&self.dir)?;
        let path = self.path_for(&run.app, key);
        let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
        let result = (|| {
            let w = write_run(BufWriter::new(fs::File::create(&tmp)?), key, run)?;
            w.into_inner().map_err(|e| e.into_error())?.sync_all()
        })();
        if let Err(e) = result {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
        fs::rename(&tmp, &path)?;
        Ok(path)
    }
}

/// Writes `run` to `w` as the v3 archive the cache stores under `key`.
/// Entries are encoded chunk-by-chunk straight out of the run's shared
/// traces; nothing is deep-copied. Returns the writer so the caller
/// can flush or sync it.
///
/// # Errors
///
/// Propagates any I/O error from the writer.
pub fn write_run<W: Write>(w: W, key: &str, run: &AppRun) -> std::io::Result<W> {
    let mut aw = ArchiveWriter::new(w, key, &run.app, run.num_procs(), &run.program)?;
    for p in 0..run.num_procs() {
        let trace = run.trace_for(p);
        let mut src = SliceSource::with_chunk_len(&trace, DEFAULT_CHUNK_LEN);
        while let Some(chunk) = src.next_chunk().expect("slice sources cannot fail") {
            aw.accept(p, &chunk)?;
        }
    }
    aw.finish(run.proc, run.mp_cycles, &run.mp_breakdowns)
}

/// How streamed generation failed, deciding the recovery strategy.
enum StreamedGenError {
    /// The simulation or verification itself failed — regeneration
    /// would fail identically, so this surfaces to the caller.
    Pipeline(PipelineError),
    /// Writing the archive failed (disk full, permissions): the caller
    /// falls back to in-memory generation, because the simulation
    /// could still succeed.
    Io(std::io::Error),
}

/// Generates `workload` with the simulator's chunks streamed straight
/// into the cache archive, so the full trace set never materializes in
/// memory. The archive only becomes visible (rename) after the
/// workload's self-check passes; the returned run is archive-backed.
fn generate_streamed(
    cache: &TraceCache,
    key: &str,
    workload: &dyn Workload,
    config: &SimConfig,
) -> Result<AppRun, StreamedGenError> {
    use StreamedGenError::{Io, Pipeline};
    fs::create_dir_all(cache.dir()).map_err(Io)?;
    let path = cache.path_for(workload.name(), key);
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let built = workload.build(config.num_procs);
    let program = built.program.clone();
    let sim = Simulator::new(built.program, built.image, *config)
        .map_err(|e| Pipeline(PipelineError::Sim(e)))?;
    let cleanup = |e: StreamedGenError| {
        let _ = fs::remove_file(&tmp);
        e
    };
    let w = BufWriter::new(fs::File::create(&tmp).map_err(Io)?);
    let mut writer = ArchiveWriter::new(w, key, workload.name(), config.num_procs, &program)
        .map_err(|e| cleanup(Io(e)))?;
    let outcome = sim.run_with_sink(&mut writer).map_err(|e| {
        cleanup(match e {
            SimError::Sink(io) => Io(io),
            other => Pipeline(PipelineError::Sim(other)),
        })
    })?;
    (built.verify)(&outcome.final_memory).map_err(|reason| {
        cleanup(Pipeline(PipelineError::Verification {
            app: workload.name().to_string(),
            reason,
        }))
    })?;
    let proc = outcome.busiest_proc();
    let io_step = span::record_current("archive.finish", || {
        let w = writer.finish(proc, outcome.total_cycles, &outcome.breakdowns)?;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        fs::rename(&tmp, &path)
    });
    io_step.map_err(|e| cleanup(Io(e)))?;
    // Re-read the header/trailer (cheap: no chunk scan) so the run is
    // backed by exactly what landed on disk.
    let reopen = (|| {
        let file = fs::File::open(&path)?;
        read_archive_info(BufReader::new(file))
            .map_err(|e| std::io::Error::other(format!("re-reading just-written archive: {e}")))
    })();
    let info = reopen.map_err(Io)?;
    Ok(AppRun::from_archive(path, info))
}

/// Serves `workload` under `config` from the cache when possible,
/// generating on any miss. With `cache` = `None` this is plain
/// in-memory generation.
///
/// With a cache present, generation *streams*: simulator chunks are
/// written to the archive as they are produced and the returned run is
/// archive-backed, so peak memory is bounded by the simulator state
/// rather than the trace set. If the archive cannot be written (disk
/// full), generation falls back to the in-memory path with a warning —
/// caching is an optimization, never a correctness dependency.
///
/// # Errors
///
/// Propagates generation failures ([`PipelineError`]); cache problems
/// never surface as errors.
pub fn load_or_generate(
    cache: Option<&TraceCache>,
    workload: &dyn Workload,
    tier: &str,
    config: &SimConfig,
) -> Result<(AppRun, CacheOutcome), PipelineError> {
    let key = cache_key(workload.name(), tier, config);
    let miss = match cache {
        Some(c) => match span::record_current("cache.lookup", || c.load(workload.name(), &key)) {
            Ok(run) => return Ok((run, CacheOutcome::Hit)),
            Err(reason) => reason,
        },
        None => MissReason::Absent,
    };
    if let Some(c) = cache {
        match span::record_current("generate", || generate_streamed(c, &key, workload, config)) {
            Ok(run) => return Ok((run, CacheOutcome::Generated(miss))),
            Err(StreamedGenError::Pipeline(e)) => return Err(e),
            Err(StreamedGenError::Io(e)) => eprintln!(
                "  warning: failed to stream {} trace into {}: {e}; \
                 falling back to in-memory generation",
                workload.name(),
                c.dir().display()
            ),
        }
    }
    let run = span::record_current("generate", || AppRun::generate(workload, config))?;
    if let Some(c) = cache {
        if let Err(e) = span::record_current("archive.store", || c.store(&key, &run)) {
            eprintln!(
                "  warning: failed to cache {} trace in {}: {e}",
                run.app,
                c.dir().display()
            );
        }
    }
    Ok((run, CacheOutcome::Generated(miss)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lookahead_memsys::MemoryParams;

    #[test]
    fn key_spells_out_configuration() {
        let key = cache_key("LU", "small", &SimConfig::default());
        assert!(key.contains("app=LU"));
        assert!(key.contains("tier=small"));
        assert!(key.contains("procs=16"));
        assert!(key.contains("miss=50"));
        assert!(key.starts_with(&format!("lktr-v{ARCHIVE_VERSION}")));
    }

    #[test]
    fn distinct_configurations_get_distinct_keys() {
        let base = SimConfig::default();
        let keys = [
            cache_key("LU", "default", &base),
            cache_key("LU", "small", &base),
            cache_key("MP3D", "default", &base),
            cache_key(
                "LU",
                "default",
                &SimConfig {
                    num_procs: 8,
                    ..base
                },
            ),
            cache_key(
                "LU",
                "default",
                &SimConfig {
                    mem: MemoryParams::with_miss_penalty(100),
                    ..base
                },
            ),
            cache_key(
                "LU",
                "default",
                &SimConfig {
                    memory_bandwidth: Some(4),
                    ..base
                },
            ),
        ];
        let unique: std::collections::BTreeSet<_> = keys.iter().collect();
        assert_eq!(unique.len(), keys.len(), "{keys:#?}");
    }
}
