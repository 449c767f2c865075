//! Every `LOOKAHEAD_*` environment variable, in one table.
//!
//! Each [`Knob`] row names a variable, the flag that overrides it (if
//! any), the programs that read it, its parser and its help line. Each
//! binary calls [`read`] once at startup, which checks the whole
//! environment against the table before any work: a `LOOKAHEAD_*`
//! name the table does not hold, or a malformed value of any row (even
//! one a flag overrides), exits with code 2 and names the variable. A
//! typo must never silently run the wrong experiment.
//!
//! The [`Knobs`] accessors resolve each setting the same way: the
//! flag, else the variable, else the default. Usage texts render their
//! `environment:` paragraph from the table ([`usage`]); README.md's
//! Environment table lists the same rows. Nothing else in the
//! workspace reads the process environment. The flag side is here too:
//! every argument parser reads its flags through [`Flags`] and settles
//! `--help` and usage errors through [`settle`].

use crate::{fail_fast, parse_apps, parse_procs};
use lookahead_harness::cache::TraceCache;
use lookahead_harness::parallel::parse_jobs;
use lookahead_harness::SizeTier;
use lookahead_multiproc::SimConfig;
use lookahead_obs::log::{install_filter, parse_filter, Filter};
use lookahead_serve::{parse_serve_addr, parse_serve_threads, DEFAULT_ADDR};
use lookahead_workloads::App;
use std::ffi::OsString;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::process::ExitCode;

/// Where the driver and the service cache traces unless a flag or
/// `LOOKAHEAD_CACHE` says otherwise.
pub const DEFAULT_CACHE_DIR: &str = "target/trace-cache";

/// Handler threads `serve` runs without `--threads` or
/// `LOOKAHEAD_SERVE_THREADS`.
const DEFAULT_SERVE_THREADS: usize = 4;

/// A program that reads knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bin {
    /// `lookahead REPORT ...`
    Reports,
    /// `lookahead serve`
    Serve,
    /// `lookahead query`
    Query,
    /// `loadgen`
    Loadgen,
    /// `trace_tool`
    TraceTool,
}

use Bin::{Loadgen, Query, Reports, Serve, TraceTool};

const EVERY_BIN: &[Bin] = &[Reports, Serve, Query, Loadgen, TraceTool];

/// One row of the table: one environment variable.
pub struct Knob {
    /// The variable's name.
    pub name: &'static str,
    /// The flag that overrides it, if any.
    pub flag: Option<&'static str>,
    /// The programs that read it.
    pub bins: &'static [Bin],
    /// Parses a set value into [`Knobs`].
    pub parse: fn(&mut Knobs, &str) -> Result<(), String>,
    /// The value's shape, as the usage texts print it (`NAME=VALUE`).
    pub value: &'static str,
    /// What the variable does.
    pub help: &'static str,
}

/// The table: every `LOOKAHEAD_*` variable any binary reads.
pub const KNOBS: &[Knob] = &[
    Knob {
        name: "LOOKAHEAD_SMALL",
        flag: Some("--tier"),
        bins: EVERY_BIN,
        parse: |k, v| parse_bool("LOOKAHEAD_SMALL", v).map(|on| k.set_tier(on, SizeTier::Small)),
        value: "1",
        help: "small workload sizes; beats PAPER, LARGE",
    },
    Knob {
        name: "LOOKAHEAD_PAPER",
        flag: Some("--tier"),
        bins: EVERY_BIN,
        parse: |k, v| parse_bool("LOOKAHEAD_PAPER", v).map(|on| k.set_tier(on, SizeTier::Paper)),
        value: "1",
        help: "the paper's workload sizes; beats LARGE",
    },
    Knob {
        name: "LOOKAHEAD_LARGE",
        flag: Some("--tier"),
        bins: EVERY_BIN,
        parse: |k, v| parse_bool("LOOKAHEAD_LARGE", v).map(|on| k.set_tier(on, SizeTier::Large)),
        value: "1",
        help: "workload sizes beyond the paper's",
    },
    Knob {
        name: "LOOKAHEAD_PROCS",
        flag: None,
        bins: EVERY_BIN,
        parse: |k, v| parse_procs(v).map(|n| k.procs = Some(n)),
        value: "N",
        help: "simulated processors (default 16)",
    },
    Knob {
        name: "LOOKAHEAD_APPS",
        flag: None,
        bins: &[Reports],
        parse: |k, v| parse_apps(v).map(|apps| k.apps = Some(apps)),
        value: "LU,MP3D",
        help: "applications to run (default: all five)",
    },
    Knob {
        name: "LOOKAHEAD_CACHE",
        flag: Some("--cache-dir"),
        bins: &[Reports, Serve, Query, TraceTool],
        parse: |k, v| {
            k.cache = Some(parse_cache(v));
            Ok(())
        },
        value: "DIR|off",
        help: "trace cache dir; off disables it",
    },
    Knob {
        name: "LOOKAHEAD_JOBS",
        flag: Some("--jobs"),
        bins: &[Reports, Serve, Query, Loadgen, TraceTool],
        parse: |k, v| parse_jobs("LOOKAHEAD_JOBS", v).map(|n| k.jobs = Some(n)),
        value: "N",
        help: "tasks run at once (default: all cores)",
    },
    Knob {
        name: "LOOKAHEAD_OBS_OUT",
        flag: Some("--obs-out"),
        bins: &[Reports, TraceTool],
        parse: |k, v| {
            k.obs_out = Some(PathBuf::from(v));
            Ok(())
        },
        value: "DIR",
        help: "observability artifact directory",
    },
    Knob {
        name: "LOOKAHEAD_LOG",
        flag: None,
        bins: &[Serve, Query, Loadgen],
        parse: |k, v| parse_filter(v).map(|f| k.log = Some(f)),
        value: "FILTER",
        help: "log filter, e.g. info or warn,serve=debug",
    },
    Knob {
        name: "LOOKAHEAD_SERVE_ADDR",
        flag: Some("--addr"),
        bins: &[Serve, Loadgen],
        parse: |k, v| parse_serve_addr("LOOKAHEAD_SERVE_ADDR", v).map(|a| k.serve_addr = Some(a)),
        value: "IP:PORT",
        help: "service address (default 127.0.0.1:7417)",
    },
    Knob {
        name: "LOOKAHEAD_SERVE_THREADS",
        flag: Some("--threads"),
        bins: &[Serve],
        parse: |k, v| {
            parse_serve_threads("LOOKAHEAD_SERVE_THREADS", v).map(|n| k.serve_threads = Some(n))
        },
        value: "N",
        help: "handler threads (default 4)",
    },
];

/// The one boolean dialect: `1` is on, `0` or empty is off.
fn parse_bool(name: &str, v: &str) -> Result<bool, String> {
    match v.trim() {
        "1" => Ok(true),
        "0" | "" => Ok(false),
        _ => Err(format!("{name} must be 0 or 1, got {v:?}")),
    }
}

/// A `LOOKAHEAD_CACHE` value: `off`, `none`, `0` or empty disables the
/// cache (`None`); anything else is its directory.
fn parse_cache(v: &str) -> Option<PathBuf> {
    let t = v.trim();
    let off =
        t.is_empty() || t == "0" || t.eq_ignore_ascii_case("off") || t.eq_ignore_ascii_case("none");
    (!off).then(|| PathBuf::from(t))
}

/// Flag, else variable, else default: the precedence of every knob a
/// flag overrides.
fn resolve<T>(flag: Option<T>, var: Option<T>, default: impl FnOnce() -> T) -> T {
    flag.or(var).unwrap_or_else(default)
}

/// What the environment said: one field per variable that was set.
#[derive(Debug, Clone, Default)]
pub struct Knobs {
    tier: Option<SizeTier>,
    procs: Option<usize>,
    apps: Option<Vec<App>>,
    cache: Option<Option<PathBuf>>,
    jobs: Option<usize>,
    obs_out: Option<PathBuf>,
    log: Option<Filter>,
    serve_addr: Option<SocketAddr>,
    serve_threads: Option<usize>,
}

impl Knobs {
    /// Checks `vars` against the table, ignoring names without the
    /// `LOOKAHEAD_` prefix. Variables are checked in name order, so
    /// the first error is the same on every platform.
    ///
    /// # Errors
    ///
    /// Returns a message naming the variable when a `LOOKAHEAD_*` name
    /// is not in the table, or a value is not UTF-8 or does not parse.
    pub fn from_vars(
        vars: impl IntoIterator<Item = (OsString, OsString)>,
    ) -> Result<Knobs, String> {
        let mut vars: Vec<(String, OsString)> = vars
            .into_iter()
            .map(|(name, value)| (name.to_string_lossy().into_owned(), value))
            .filter(|(name, _)| name.starts_with("LOOKAHEAD_"))
            .collect();
        vars.sort();
        let mut knobs = Knobs::default();
        for (name, value) in vars {
            let Some(knob) = KNOBS.iter().find(|k| k.name == name) else {
                let known: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
                return Err(format!(
                    "unknown environment variable {name}; known: {}",
                    known.join(", ")
                ));
            };
            let value = value
                .to_str()
                .ok_or_else(|| format!("{name} is not valid UTF-8"))?;
            (knob.parse)(&mut knobs, value)?;
        }
        Ok(knobs)
    }

    /// The simulation configuration: the paper's, with
    /// `LOOKAHEAD_PROCS` processors when set.
    pub fn config(&self) -> SimConfig {
        let paper = SimConfig::default();
        SimConfig {
            num_procs: self.procs.unwrap_or(paper.num_procs),
            ..paper
        }
    }

    /// The selected applications (all five unless `LOOKAHEAD_APPS`
    /// says otherwise), in the paper's order.
    pub fn apps(&self) -> Vec<App> {
        self.apps.clone().unwrap_or_else(|| App::ALL.to_vec())
    }

    /// Records a tier variable that is on: when several are, the
    /// smallest tier wins (`LOOKAHEAD_SMALL` over `LOOKAHEAD_PAPER` over
    /// `LOOKAHEAD_LARGE`).
    fn set_tier(&mut self, on: bool, tier: SizeTier) {
        if on {
            self.tier = Some(self.tier.map_or(tier, |t| t.min(tier)));
        }
    }

    /// The size tier: `--tier`, else the tier variables, else the
    /// default.
    pub fn tier(&self, flag: Option<SizeTier>) -> SizeTier {
        resolve(flag, self.tier, || SizeTier::Default)
    }

    /// The worker count: `--jobs`, else `LOOKAHEAD_JOBS`, else every
    /// core.
    pub fn jobs(&self, flag: Option<usize>) -> usize {
        resolve(flag, self.jobs, || {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        })
    }

    /// The trace cache: `--no-cache` disables it and `--cache-dir`
    /// places it, else `LOOKAHEAD_CACHE`, else `default` (`None`
    /// caches nothing).
    pub fn cache(
        &self,
        no_cache: bool,
        cache_dir: Option<&str>,
        default: Option<&str>,
    ) -> Option<TraceCache> {
        let flag = if no_cache {
            Some(None)
        } else {
            cache_dir.map(|dir| Some(PathBuf::from(dir)))
        };
        resolve(flag, self.cache.clone(), || default.map(PathBuf::from)).map(TraceCache::new)
    }

    /// The observability artifact directory: `--obs-out`, else
    /// `LOOKAHEAD_OBS_OUT`; `None` writes no artifacts.
    pub fn obs_out(&self, flag: Option<PathBuf>) -> Option<PathBuf> {
        resolve(flag.map(Some), self.obs_out.clone().map(Some), || None)
    }

    /// The service address: `--addr`, else `LOOKAHEAD_SERVE_ADDR`,
    /// else [`DEFAULT_ADDR`].
    pub fn serve_addr(&self, flag: Option<SocketAddr>) -> SocketAddr {
        resolve(flag, self.serve_addr, || {
            DEFAULT_ADDR.parse().expect("the default address parses")
        })
    }

    /// Handler threads: `--threads`, else `LOOKAHEAD_SERVE_THREADS`,
    /// else 4.
    pub fn serve_threads(&self, flag: Option<usize>) -> usize {
        resolve(flag, self.serve_threads, || DEFAULT_SERVE_THREADS)
    }
}

/// Reads the process environment through the table and installs the
/// `LOOKAHEAD_LOG` filter, if set. Every binary calls this once, first:
/// a malformed or unknown variable prints `error: ...` naming it and
/// exits with code 2 before any work.
pub fn read() -> Knobs {
    let knobs = fail_fast(Knobs::from_vars(std::env::vars_os()));
    if let Some(filter) = &knobs.log {
        install_filter(filter.clone());
    }
    knobs
}

/// A binary's arguments, one at a time, with `--flag=value` read as
/// `--flag value`, so each parser matches one spelling of a flag.
pub struct Flags(std::vec::IntoIter<String>);

impl Flags {
    /// The flags in `args`, the arguments after the program name.
    pub fn new(args: &[String]) -> Flags {
        let split: Vec<String> = args
            .iter()
            .flat_map(|a| match a.split_once('=') {
                Some((flag, value)) if flag.starts_with("--") => {
                    vec![flag.to_string(), value.to_string()]
                }
                _ => vec![a.clone()],
            })
            .collect();
        Flags(split.into_iter())
    }

    /// The value that follows `flag`.
    ///
    /// # Errors
    ///
    /// `{flag} needs a value` when the arguments end first.
    pub fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().ok_or_else(|| format!("{flag} needs a value"))
    }
}

impl Iterator for Flags {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }
}

/// A command line's parse, settled: the options, or the exit code once
/// `--help` printed `usage` (success, even to a closed pipe) or an
/// error printed it (2).
pub fn settle<T>(parsed: Result<Option<T>, String>, usage: &str) -> Result<T, ExitCode> {
    match parsed {
        Ok(Some(opts)) => Ok(opts),
        Ok(None) => Err(crate::write_stdout(format!("{usage}\n").as_bytes())
            .err()
            .unwrap_or(ExitCode::SUCCESS)),
        Err(e) => {
            eprintln!("error: {e}\n\n{usage}");
            Err(ExitCode::from(2))
        }
    }
}

/// `head` followed by the `environment:` paragraph of the variables
/// `bin` reads, one line each, rendered from the table. A line names
/// the row's flag when `head` documents it.
pub fn usage(bin: Bin, head: &str) -> String {
    let mut out = format!("{head}\n\nenvironment (a flag wins over its variable):");
    for knob in KNOBS.iter().filter(|k| k.bins.contains(&bin)) {
        let setting = format!("{}={}", knob.name, knob.value);
        let _ = write!(out, "\n  {setting:<28} {}", knob.help);
        if let Some(flag) = knob.flag.filter(|f| head.contains(f)) {
            let _ = write!(out, " ({flag})");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(vars: &[(&str, &str)]) -> Result<Knobs, String> {
        Knobs::from_vars(vars.iter().map(|(k, v)| (k.into(), v.into())))
    }

    #[test]
    fn names_are_unique_and_prefixed() {
        for (i, knob) in KNOBS.iter().enumerate() {
            assert!(knob.name.starts_with("LOOKAHEAD_"), "{}", knob.name);
            assert!(!knob.bins.is_empty(), "{} is read by nothing", knob.name);
            assert!(
                KNOBS[..i].iter().all(|k| k.name != knob.name),
                "{} twice",
                knob.name
            );
        }
    }

    #[test]
    fn unknown_names_are_rejected_by_name() {
        for name in [
            "LOOKAHEAD_SCHEDULER",
            "LOOKAHEAD_SERVE_PREWARM",
            "LOOKAHEAD_JOB",
            "LOOKAHEAD_",
        ] {
            let err = parse(&[(name, "1")]).unwrap_err();
            assert!(err.contains(&format!("variable {name};")), "{err}");
        }
        // Other variables are none of the table's business.
        assert!(parse(&[("PATH", "/bin"), ("lookahead_small", "x")]).is_ok());
    }

    #[test]
    fn booleans_share_one_dialect() {
        for name in ["LOOKAHEAD_SMALL", "LOOKAHEAD_PAPER", "LOOKAHEAD_LARGE"] {
            for on in ["1", " 1 "] {
                assert!(parse(&[(name, on)]).is_ok(), "{name}={on:?}");
            }
            for bad in ["false", "no", "yes", "true", "2", "on"] {
                let err = parse(&[(name, bad)]).unwrap_err();
                assert!(err.contains(name), "{name}={bad:?}: {err}");
            }
        }
        let off = parse(&[("LOOKAHEAD_SMALL", "0"), ("LOOKAHEAD_PAPER", "")]).unwrap();
        assert_eq!(off.tier(None), SizeTier::Default);
    }

    #[test]
    fn tier_precedence_is_flag_then_small_paper_large() {
        let all = parse(&[
            ("LOOKAHEAD_LARGE", "1"),
            ("LOOKAHEAD_PAPER", "1"),
            ("LOOKAHEAD_SMALL", "1"),
        ])
        .unwrap();
        assert_eq!(all.tier(None), SizeTier::Small);
        assert_eq!(all.tier(Some(SizeTier::Large)), SizeTier::Large);
        let paper = parse(&[("LOOKAHEAD_LARGE", "1"), ("LOOKAHEAD_PAPER", "1")]).unwrap();
        assert_eq!(paper.tier(None), SizeTier::Paper);
        assert_eq!(parse(&[]).unwrap().tier(None), SizeTier::Default);
    }

    #[test]
    fn flags_win_over_variables_which_win_over_defaults() {
        let set = parse(&[
            ("LOOKAHEAD_JOBS", "3"),
            ("LOOKAHEAD_CACHE", "env-dir"),
            ("LOOKAHEAD_OBS_OUT", "env-obs"),
            ("LOOKAHEAD_SERVE_ADDR", "127.0.0.1:9"),
            ("LOOKAHEAD_SERVE_THREADS", "5"),
        ])
        .unwrap();
        let unset = parse(&[]).unwrap();
        assert_eq!((set.jobs(Some(7)), set.jobs(None)), (7, 3));
        assert!(unset.jobs(None) >= 1);
        let dir = |c: Option<TraceCache>| c.map(|c| c.dir().display().to_string());
        assert_eq!(
            dir(set.cache(false, Some("flag-dir"), None)).unwrap(),
            "flag-dir"
        );
        assert_eq!(dir(set.cache(false, None, None)).unwrap(), "env-dir");
        assert_eq!(dir(set.cache(true, Some("flag-dir"), None)), None);
        assert_eq!(dir(unset.cache(false, None, Some("d"))).unwrap(), "d");
        assert_eq!(dir(unset.cache(false, None, None)), None);
        let off = parse(&[("LOOKAHEAD_CACHE", " OFF ")]).unwrap();
        assert_eq!(dir(off.cache(false, None, Some("d"))), None);
        assert_eq!(set.obs_out(Some("f".into())), Some("f".into()));
        assert_eq!(set.obs_out(None), Some("env-obs".into()));
        assert_eq!(unset.obs_out(None), None);
        let flag_addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        assert_eq!(set.serve_addr(Some(flag_addr)), flag_addr);
        assert_eq!(set.serve_addr(None).port(), 9);
        assert_eq!(unset.serve_addr(None).to_string(), DEFAULT_ADDR);
        assert_eq!(
            (set.serve_threads(Some(2)), set.serve_threads(None)),
            (2, 5)
        );
        assert_eq!(unset.serve_threads(None), DEFAULT_SERVE_THREADS);
    }

    #[test]
    fn malformed_values_name_their_variable() {
        for (name, bad) in [
            ("LOOKAHEAD_PROCS", "0"),
            ("LOOKAHEAD_APPS", "FFT"),
            ("LOOKAHEAD_JOBS", "many"),
            ("LOOKAHEAD_LOG", "bogus"),
            ("LOOKAHEAD_SERVE_ADDR", "localhost:80"),
            ("LOOKAHEAD_SERVE_THREADS", "-1"),
        ] {
            let err = parse(&[(name, bad)]).unwrap_err();
            assert!(err.contains(name), "{name}={bad:?}: {err}");
        }
        let procs = parse(&[("LOOKAHEAD_PROCS", "8")]).unwrap();
        assert_eq!(procs.config().num_procs, 8);
        assert_eq!(parse(&[]).unwrap().config(), SimConfig::default());
    }

    #[test]
    fn readme_environment_table_lists_every_row_in_order() {
        let readme = include_str!("../../../README.md");
        let rows: Vec<&str> = readme
            .lines()
            .filter(|l| l.starts_with("| `LOOKAHEAD_"))
            .collect();
        assert_eq!(rows.len(), KNOBS.len(), "{rows:#?}");
        for (row, knob) in rows.iter().zip(KNOBS) {
            assert!(row.starts_with(&format!("| `{}` |", knob.name)), "{row}");
            assert!(knob.flag.is_none_or(|f| row.contains(f)), "{row}");
        }
    }

    #[test]
    fn usage_names_every_variable_its_binary_reads() {
        for bin in EVERY_BIN {
            let text = usage(*bin, "usage: x");
            for knob in KNOBS {
                assert_eq!(
                    text.contains(knob.name),
                    knob.bins.contains(bin),
                    "{bin:?} and {}:\n{text}",
                    knob.name
                );
            }
        }
        // Every line fits a terminal, flag included.
        let widest = usage(Serve, "--jobs --addr --threads --cache-dir");
        assert!(widest.lines().all(|l| l.len() <= 80), "{widest}");
        // A flag is named only where the usage documents it.
        let with = usage(Serve, "  --threads N  handler threads");
        assert!(with.contains("(--threads)"), "{with}");
        assert!(!usage(Serve, "").contains("(--threads)"));
    }
}
