//! In-process side of the serve workloads: reference bodies computed
//! with `ExperimentService::handle` outside the timed path, and traced
//! replays of a request stream through `HeadParser::feed`,
//! `ExperimentService::handle` and, for experiment queries, the
//! per-cell re-timing path each fresh query takes.

use crate::spans;
use crate::sweep::{Timed, TIER};
use lookahead_core::ds::DsConfig;
use lookahead_core::ConsistencyModel;
use lookahead_harness::cache::{cache_key, TraceCache};
use lookahead_harness::dag::Scheduler;
use lookahead_harness::experiments::ModelSpec;
use lookahead_harness::pipeline::AppRun;
use lookahead_multiproc::SimConfig;
use lookahead_serve::http::HeadParser;
use lookahead_serve::{ExperimentService, Request, ServiceConfig};
use lookahead_workloads::App;
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The request bytes the load generator sends for `target`.
pub fn request_bytes(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// 64-bit FNV-1a, the benchmark's body digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A service configured as `lookahead serve --jobs <jobs> --cache-dir
/// <dir>` with no `LOOKAHEAD_*` variables set.
pub fn service(cache_dir: &Path, jobs: usize) -> ExperimentService {
    ExperimentService::new(
        ServiceConfig {
            default_tier: TIER,
            sim: SimConfig::default(),
            retime_workers: jobs,
            span_log: None,
            scheduler: Scheduler::Dag,
            prewarm: false,
        },
        Some(TraceCache::new(cache_dir)),
    )
}

fn parse(target: &str) -> Result<Request, String> {
    let bytes = request_bytes(target);
    spans::span("http.parse", || HeadParser::new().feed(&bytes))
        .map_err(|e| format!("{target}: {e:?}"))?
        .ok_or_else(|| format!("{target}: incomplete request head"))
}

/// Status and body digest of `target` as the service answers it.
pub fn answer(service: &ExperimentService, target: &str) -> Result<(u16, u64), String> {
    let request = parse(target)?;
    let response = spans::span("service.handle", || service.handle(&request));
    Ok((response.status, fnv1a(response.full_body().as_bytes())))
}

/// Replays `stream` (indices into `targets`) in-process until the
/// stream or `budget` runs out. Every answer must be a 200, and every
/// answer for a target must have the digest of its first.
pub fn replay(
    service: &ExperimentService,
    targets: &[String],
    stream: &[usize],
    budget: Duration,
) -> Result<(), String> {
    let started = Instant::now();
    let mut first: HashMap<usize, u64> = HashMap::new();
    for &i in stream {
        if started.elapsed() >= budget {
            break;
        }
        let (status, digest) = answer(service, &targets[i])?;
        if status != 200 || *first.entry(i).or_insert(digest) != digest {
            return Err(format!(
                "{}: replay answered {status} {digest:016x}",
                targets[i]
            ));
        }
    }
    Ok(())
}

/// The model cell an experiment target re-times besides BASE.
fn experiment_cell(target: &str) -> Option<(App, ModelSpec)> {
    let query = target.strip_prefix("/v1/experiments?")?;
    let param = |k: &str| {
        query
            .split('&')
            .filter_map(|kv| kv.split_once('='))
            .find(|(key, _)| *key == k)
            .map(|(_, v)| v)
    };
    let name = param("app")?;
    let app = App::ALL
        .into_iter()
        .find(|a| a.name().eq_ignore_ascii_case(name))?;
    let cons = ConsistencyModel::ALL.into_iter().find(|m| {
        m.abbrev()
            .eq_ignore_ascii_case(param("consistency").unwrap_or("RC"))
    })?;
    let window = param("window").map_or(Some(64), |w| w.parse().ok())?;
    let width = param("width").map_or(Some(1), |w| w.parse().ok())?;
    let model = match param("model").unwrap_or("ds") {
        "base" => ModelSpec::Base,
        "ssbr" => ModelSpec::Ssbr(cons),
        "ss" => ModelSpec::Ss(cons),
        "ds" => ModelSpec::Ds(DsConfig {
            issue_width: width,
            ..DsConfig::with_model(cons).window(window)
        }),
        _ => return None,
    };
    Some((app, model))
}

/// Re-times each experiment target's cells the way a fresh query does
/// — one `ChunkReader` pass per cell: BASE, then the target's model
/// unless that is BASE too (the service reuses BASE's result then) —
/// with spans `core.<kind>` around each engine and `trace.decode`
/// around each chunk, until `budget` runs out.
pub fn cells(cache_dir: &Path, targets: &[&str], budget: Duration) -> Result<(), String> {
    let config = SimConfig::default();
    let cache = TraceCache::new(cache_dir);
    let mut runs: HashMap<&'static str, AppRun> = HashMap::new();
    let started = Instant::now();
    for target in targets {
        if started.elapsed() >= budget {
            break;
        }
        let Some((app, model)) = experiment_cell(target) else {
            continue;
        };
        if !runs.contains_key(app.name()) {
            let key = cache_key(app.name(), TIER.name(), &config);
            let run = spans::counted("cache.load", || {
                let bytes =
                    std::fs::metadata(cache.path_for(app.name(), &key)).map_or(0, |m| m.len());
                (cache.load(app.name(), &key), bytes)
            })
            .map_err(|e| format!("{}: {e}", app.name()))?;
            runs.insert(app.name(), run);
        }
        let run = &runs[app.name()];
        let mut specs = vec![ModelSpec::Base];
        if model != ModelSpec::Base {
            specs.push(model);
        }
        for spec in &specs {
            let mut source = run
                .gang_source()
                .ok_or_else(|| format!("{}: run cannot stream", app.name()))?;
            let mut decode = Timed {
                inner: source.as_mut(),
                name: "trace.decode",
            };
            spans::counted(&format!("core.{}", spec.kind()), || {
                (
                    spec.build().run_source(&run.program, &mut decode),
                    run.trace_len() as u64,
                )
            })
            .map_err(|e| format!("{target}: {e}"))?;
        }
    }
    Ok(())
}
