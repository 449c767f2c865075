//! Shared plumbing for the `lookahead` driver, which regenerates any
//! subset of the paper's tables and figures in one process
//! (`lookahead <report>`; see `DESIGN.md` for the index). A [`Runner`]
//! owns the simulation configuration, the workload size tier, the
//! selected applications, the optional content-addressed trace cache,
//! the worker count and the artifact directory, and the [`reports`]
//! module renders each table or figure to a string.
//!
//! Every binary reads its configuration once, at startup, through the
//! [`knobs`] table (README.md § Environment lists the variables). A
//! malformed knob is a hard error (exit code 2), never a silent
//! fallback: a typo in `LOOKAHEAD_PROCS` must not quietly run the
//! wrong experiment.

pub mod client;
pub mod knobs;
pub mod reports;
pub mod serve_cli;
pub mod servebench;

use lookahead_harness::cache::{load_or_generate, CacheOutcome, TraceCache};
use lookahead_harness::dag::{run_dag, TaskDag};
use lookahead_harness::parallel::parse_positive;
use lookahead_harness::pipeline::AppRun;
use lookahead_multiproc::SimConfig;
use lookahead_workloads::{App, Workload};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Parses a `LOOKAHEAD_PROCS` value.
///
/// # Errors
///
/// Returns a descriptive message when the value is not a positive
/// integer.
pub fn parse_procs(v: &str) -> Result<usize, String> {
    parse_positive("LOOKAHEAD_PROCS", "processor count", v)
}

/// Parses a `LOOKAHEAD_APPS` value into applications, preserving the
/// paper's order and dropping duplicates.
///
/// # Errors
///
/// Returns a descriptive message naming the first unknown application,
/// or complaining that the list selects nothing.
pub fn parse_apps(list: &str) -> Result<Vec<App>, String> {
    let valid = App::ALL.map(|a| a.name());
    let mut wanted = Vec::new();
    for name in list.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        match App::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
        {
            Some(app) => {
                if !wanted.contains(&app) {
                    wanted.push(app);
                }
            }
            None => {
                return Err(format!(
                    "LOOKAHEAD_APPS: unknown application {name:?}; valid names: {valid:?}"
                ))
            }
        }
    }
    if wanted.is_empty() {
        return Err(format!(
            "LOOKAHEAD_APPS={list:?} selects no applications; valid names: {valid:?}"
        ));
    }
    Ok(wanted)
}

/// Unwraps a knob-parse result, or prints the error and exits with
/// code 2 — the workspace's fail-fast convention for malformed
/// configuration (a typo must never silently run the wrong thing).
pub fn fail_fast<T>(result: Result<T, String>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    })
}

/// Writes `bytes` to stdout and flushes them, for output a reader may
/// stop consuming early (`| head`). A closed pipe is a quiet success:
/// the reader took all it wanted. Any other write error prints one
/// `error:` line. `Err` carries the code to exit with in either case.
pub fn write_stdout(bytes: &[u8]) -> Result<(), ExitCode> {
    let mut stdout = std::io::stdout().lock();
    match stdout.write_all(bytes).and_then(|()| stdout.flush()) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => Err(ExitCode::SUCCESS),
        Err(e) => {
            eprintln!("error: cannot write to stdout: {e}");
            Err(ExitCode::FAILURE)
        }
    }
}

// The size tier moved to the harness so the experiment service can
// share it; re-exported here so the bench API is unchanged.
pub use lookahead_harness::tier::SizeTier;

/// Flat key/value description of a run's `config` and size `tier`
/// for run manifests.
pub fn config_kv(config: &SimConfig, tier: SizeTier) -> Vec<(&'static str, String)> {
    vec![
        ("num_procs", config.num_procs.to_string()),
        ("hit_latency", config.mem.hit_latency.to_string()),
        ("miss_penalty", config.mem.miss_penalty.to_string()),
        ("write_buffer_depth", config.write_buffer_depth.to_string()),
        ("small", (tier == SizeTier::Small).to_string()),
        ("paper", (tier == SizeTier::Paper).to_string()),
        ("large", (tier == SizeTier::Large).to_string()),
        ("obs_feature", cfg!(feature = "obs").to_string()),
    ]
}

/// Writes observability artifacts for a recorded run at `tier`,
/// logging instead of failing: artifact output must never break a
/// benchmark run.
pub fn write_obs_artifacts(
    dir: &std::path::Path,
    name: &str,
    config: &SimConfig,
    tier: SizeTier,
    extra: &[(&str, String)],
    rec: &lookahead_obs::Recorder,
) {
    let kv = config_kv(config, tier);
    match lookahead_harness::obsout::write_run_artifacts(dir, name, &kv, extra, rec) {
        Ok(a) => eprintln!("  wrote observability artifacts to {}", a.dir.display()),
        Err(e) => eprintln!("  failed to write observability artifacts for {name}: {e}"),
    }
}

/// Executes trace generation for the experiment suite: one
/// configuration, one size tier, a set of applications, an optional
/// content-addressed trace cache, a worker pool and an optional
/// artifact directory, with cache hit/miss accounting.
pub struct Runner {
    config: SimConfig,
    tier: SizeTier,
    cache: Option<TraceCache>,
    workers: usize,
    apps: Vec<App>,
    obs_out: Option<PathBuf>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl Runner {
    /// A runner with explicit policy, over all five applications,
    /// writing no observability artifacts.
    pub fn new(
        config: SimConfig,
        tier: SizeTier,
        cache: Option<TraceCache>,
        workers: usize,
    ) -> Runner {
        Runner {
            config,
            tier,
            cache,
            workers,
            apps: App::ALL.to_vec(),
            obs_out: None,
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// This runner over `apps` instead of all five.
    #[must_use]
    pub fn with_apps(self, apps: Vec<App>) -> Runner {
        Runner { apps, ..self }
    }

    /// This runner writing observability artifacts for every
    /// generation under `dir` (`None` writes none).
    #[must_use]
    pub fn with_obs_out(self, dir: Option<PathBuf>) -> Runner {
        Runner {
            obs_out: dir,
            ..self
        }
    }

    /// The simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// The workload size tier.
    pub fn tier(&self) -> SizeTier {
        self.tier
    }

    /// The worker count for generation and re-timing.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether a trace cache is in use.
    pub fn cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// The applications this runner covers.
    pub fn apps(&self) -> &[App] {
        &self.apps
    }

    /// Where this runner writes observability artifacts, if anywhere.
    pub fn obs_out(&self) -> Option<&Path> {
        self.obs_out.as_deref()
    }

    /// Whether `app`'s trace at this tier and configuration is already
    /// in the disk cache — a cheap existence probe the DAG scheduler
    /// uses to collapse generation nodes to near-zero cost. A corrupt
    /// or stale file still takes the real load path (and regenerates);
    /// this only informs the cost estimate.
    pub fn trace_cached(&self, app: App) -> bool {
        let Some(cache) = &self.cache else {
            return false;
        };
        let workload = self.tier.workload(app);
        let key = lookahead_harness::cache_key(workload.name(), self.tier.name(), &self.config);
        cache.path_for(workload.name(), &key).exists()
    }

    /// Cache accounting so far: (hits, misses).
    pub fn cache_stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Prints the cache accounting to stderr (silent when no cache is
    /// configured).
    pub fn report_cache_stats(&self) {
        if let Some(c) = &self.cache {
            let (h, m) = self.cache_stats();
            eprintln!("trace cache: {h} hits, {m} misses ({})", c.dir().display());
        }
    }

    /// One application's run at this runner's tier and configuration.
    /// Exits with code 2 if the workload fails to simulate or verify
    /// (see [`Runner::run_workload`]).
    pub fn run_app(&self, app: App) -> AppRun {
        let workload = self.tier.workload(app);
        self.run_workload(workload.as_ref(), &self.config)
    }

    /// One workload's run under an explicit configuration (for the
    /// sweeps that vary the memory system). The configuration is part
    /// of the cache key, so variants never collide.
    ///
    /// A workload that fails to simulate or fails its own result check
    /// exits the process with code 2, naming the application, the tier
    /// and the processor count: past some processor count a small tier
    /// loses too many racy updates (EXPERIMENTS.md lists the supported
    /// counts), which calls for another configuration, not a crash.
    pub fn run_workload(&self, workload: &dyn Workload, config: &SimConfig) -> AppRun {
        if self.obs_out.is_some() {
            lookahead_obs::install(lookahead_obs::Recorder::new(0));
        }
        let started = Instant::now();
        let (run, outcome) = fail_fast(
            load_or_generate(self.cache.as_ref(), workload, self.tier.name(), config).map_err(
                |e| {
                    format!(
                        "{} at tier {} with {} processors: {e}",
                        workload.name(),
                        self.tier.name(),
                        config.num_procs
                    )
                },
            ),
        );
        match &outcome {
            CacheOutcome::Hit => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "  loaded {} trace from cache: {} instructions in {:.2}s",
                    run.app,
                    run.trace_len(),
                    started.elapsed().as_secs_f64()
                );
            }
            CacheOutcome::Generated(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                eprintln!(
                    "  generated {} trace: {} instructions ({} mp cycles) in {:.1}s",
                    run.app,
                    run.trace_len(),
                    run.mp_cycles,
                    started.elapsed().as_secs_f64()
                );
            }
        }
        if let Some(dir) = &self.obs_out {
            // Artifacts describe a simulation; a cache hit ran none.
            if let (Some(rec), CacheOutcome::Generated(_)) = (lookahead_obs::take(), &outcome) {
                write_obs_artifacts(
                    dir,
                    &format!("generate-{}", run.app),
                    config,
                    self.tier,
                    &[("mp_cycles", run.mp_cycles.to_string())],
                    &rec,
                );
            }
        }
        run
    }

    /// All selected applications' runs, generated on up to `workers`
    /// DAG workers as one independent node per application (each
    /// trace exactly once per process), in application order.
    pub fn run_all(&self) -> Vec<AppRun> {
        let mut dag = TaskDag::new();
        for _ in &self.apps {
            dag.add_task(1, &[]);
        }
        let jobs: Vec<_> = self
            .apps
            .iter()
            .map(|&app| move || self.run_app(app))
            .collect();
        run_dag(&dag, jobs, self.workers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_paper_config() {
        // Note: env-dependent knobs are exercised by the binaries; the
        // default path must match the paper.
        let c = SimConfig::default();
        assert_eq!(c.num_procs, 16);
        assert_eq!(c.mem.miss_penalty, 50);
    }

    #[test]
    fn selected_apps_defaults_to_all() {
        // Through the knob table with LOOKAHEAD_APPS unset, and for a
        // runner nobody restricted.
        let knobs = knobs::Knobs::from_vars(Vec::new()).unwrap();
        assert_eq!(knobs.apps(), App::ALL);
        let runner = Runner::new(SimConfig::default(), SizeTier::Small, None, 1);
        assert_eq!(runner.apps(), App::ALL);
        assert_eq!(runner.with_apps(vec![App::Lu]).apps(), [App::Lu]);
    }

    #[test]
    fn parse_procs_accepts_positive_integers_only() {
        assert_eq!(parse_procs("16"), Ok(16));
        assert_eq!(parse_procs(" 4 "), Ok(4));
        assert!(parse_procs("0").is_err());
        assert!(parse_procs("").is_err());
        assert!(parse_procs("sixteen").is_err());
        assert!(parse_procs("-4").is_err());
        assert!(parse_procs("4.0").is_err());
        // The message names the knob so the fix is obvious.
        assert!(parse_procs("x").unwrap_err().contains("LOOKAHEAD_PROCS"));
    }

    #[test]
    fn parse_apps_matches_names_case_insensitively() {
        let apps = parse_apps("lu, MP3D").unwrap();
        assert_eq!(apps, vec![App::Lu, App::Mp3d]);
        // Duplicates collapse; order of first mention is kept.
        assert_eq!(parse_apps("LU,lu,LU").unwrap(), vec![App::Lu]);
    }

    #[test]
    fn parse_apps_rejects_unknown_and_empty() {
        let err = parse_apps("LU,FFT").unwrap_err();
        assert!(err.contains("FFT"), "{err}");
        assert!(err.contains("MP3D"), "should list valid names: {err}");
        assert!(parse_apps("").is_err());
        assert!(parse_apps(" , ,").is_err());
    }

    #[test]
    fn tier_names_are_cache_key_stable() {
        // Cache keys embed these strings; renaming one silently
        // invalidates every existing cache, so pin them (the enum now
        // lives in the harness; the re-export must keep these names).
        assert_eq!(SizeTier::Small.name(), "small");
        assert_eq!(SizeTier::Default.name(), "default");
        assert_eq!(SizeTier::Paper.name(), "paper");
        assert_eq!(SizeTier::Large.name(), "large");
    }
}
