//! Content-addressed on-disk cache of generated application runs.
//!
//! Trace generation is the expensive half of the pipeline: a full
//! 16-processor execution-driven simulation per application. The
//! re-timing half consumes the same trace dozens of times. This cache
//! makes generation pay-once: a run's version-3 chunked `LKTR` archive
//! ([`lookahead_trace::storage`]) is kept under a file name derived
//! from a **fingerprint of everything that influences the trace** —
//! workload name, size tier, the full [`SimConfig`], and the archive
//! format version.
//!
//! Every [`AppRun`] reads such an archive; the cache decides only
//! whether its bytes live in a file or in memory:
//!
//! * on a **miss**, the simulator's per-processor chunks are written
//!   to a file as they are produced (the pipeline's one generator,
//!   [`Simulator::run_with_sink`](lookahead_multiproc::Simulator::run_with_sink)
//!   into an [`ArchiveWriter`](lookahead_trace::storage::ArchiveWriter)),
//!   so generation never materializes the trace set; the writer
//!   indexes the records as it writes them, so the run reads the file
//!   without a validation pass;
//! * on a **hit**, every chunk record is checksum-verified in one
//!   bounded pass ([`validate_archive_chunks`]), which also indexes
//!   where each processor's records lie, and the run reads the file:
//!   re-timing seeks through the index to stream the representative's
//!   chunks ([`AppRun::retime`]), and traces materialize lazily only
//!   for consumers that need random access;
//! * **without a cache**, or when the cache directory cannot be
//!   written, the same generator fills a memory buffer, keyed as the
//!   cache would key it, and the run reads that buffer the same way.
//!
//! Safety properties, in order of importance:
//!
//! * a key mismatch, checksum failure or decode error **falls back to
//!   regeneration, never to a wrong answer** — the canonical key
//!   string is stored inside the archive and compared on load, so even
//!   a hash collision or a renamed file cannot smuggle a stale trace in;
//! * corrupt files (including leftover v1/v2 archives) are evicted on
//!   sight so the next run is a clean miss;
//! * generation writes a temporary file and renames it into place only
//!   after the workload's self-check passes, so a crashed or concurrent
//!   writer never leaves a torn archive behind.

use crate::pipeline::{write_generated, AppRun, GenerateError, PipelineError};
use lookahead_multiproc::SimConfig;
use lookahead_obs::span;
use lookahead_trace::storage::{read_archive_info, validate_archive_chunks, ARCHIVE_VERSION};
use lookahead_trace::{fnv1a, DecodeError};
use lookahead_workloads::Workload;
use std::fmt;
use std::fs;
use std::io::{BufReader, BufWriter};
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
    /// Generated (into the cache when one is present and writable, else
    /// into memory), with the reason the lookup missed.
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
    /// Creates a handle on `dir`. The directory is created lazily, by
    /// the first generation into it.
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
    /// over damaged data. The run reads the file through the chunk
    /// index that pass returns: traces stream from disk on demand.
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
        let index = validate_archive_chunks(&mut r, &info).map_err(evict)?;
        Ok(AppRun::from_archive(path, info, index))
    }
}

/// Generates `workload` into the cache: the simulator's chunks stream
/// into a temporary file, which is synced and renamed into place once
/// the workload's self-check passes. The returned run reads the file
/// through the writer's chunk index.
fn generate_streamed(
    cache: &TraceCache,
    key: &str,
    workload: &dyn Workload,
    config: &SimConfig,
) -> Result<AppRun, GenerateError> {
    use GenerateError::Io;
    fs::create_dir_all(cache.dir()).map_err(Io)?;
    let path = cache.path_for(workload.name(), key);
    let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
    let written = (|| {
        let file = fs::File::create(&tmp).map_err(Io)?;
        let (w, index) = write_generated(BufWriter::new(file), key, workload, config)?;
        let file = w.into_inner().map_err(|e| Io(e.into_error()))?;
        file.sync_all()
            .and_then(|()| fs::rename(&tmp, &path))
            .map_err(Io)?;
        Ok(index)
    })();
    let index = match written {
        Ok(index) => index,
        Err(e) => {
            let _ = fs::remove_file(&tmp);
            return Err(e);
        }
    };
    // Re-read the header and trailer (cheap: no chunk scan) so the run
    // reads exactly what landed on disk.
    let reread = fs::File::open(&path).and_then(|file| {
        read_archive_info(BufReader::new(file))
            .map_err(|e| std::io::Error::other(format!("re-reading just-written archive: {e}")))
    });
    Ok(AppRun::from_archive(path, reread.map_err(Io)?, index))
}

/// Serves `workload` under `config` from the cache when possible,
/// generating on any miss. With `cache` = `None` the run is generated
/// into memory, keyed as the cache would key it.
///
/// With a cache present, generation *streams*: simulator chunks are
/// written to the archive file as they are produced, so peak memory is
/// bounded by the simulator state rather than the trace set. If the
/// file cannot be written (disk full, a path that is not a directory),
/// generation warns once and falls back to memory — caching is an
/// optimization, never a correctness dependency.
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
    let Some(c) = cache else {
        let run = span::record_current("generate", || AppRun::in_memory(&key, workload, config))?;
        return Ok((run, CacheOutcome::Generated(MissReason::Absent)));
    };
    let miss = match span::record_current("cache.lookup", || c.load(workload.name(), &key)) {
        Ok(run) => return Ok((run, CacheOutcome::Hit)),
        Err(reason) => reason,
    };
    let run = span::record_current("generate", || {
        match generate_streamed(c, &key, workload, config) {
            Ok(run) => Ok(run),
            Err(GenerateError::Pipeline(e)) => Err(e),
            Err(GenerateError::Io(e)) => {
                eprintln!(
                    "  warning: failed to stream {} trace into {}: {e}; \
                     falling back to in-memory generation",
                    workload.name(),
                    c.dir().display()
                );
                AppRun::in_memory(&key, workload, config)
            }
        }
    })?;
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
