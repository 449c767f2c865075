//! The experiment service: queries in, deterministic JSON report
//! bodies out.
//!
//! This module is deliberately transport-free — it maps a parsed
//! [`Request`] to a [`Response`] — so the HTTP server, the `lookahead
//! query` CLI path and the tests all call the exact same code and get
//! **byte-identical bodies** by construction (the golden tests pin
//! this).
//!
//! Request flow for an experiment query:
//!
//! 1. the query is validated fail-fast (unknown parameters are a 400,
//!    matching the workspace's env-knob philosophy);
//! 2. the canonical body key enters a [`SingleFlight`]: concurrent
//!    identical queries coalesce onto one computation, and completed
//!    bodies are memoized;
//! 3. the leader resolves the application run through
//!    [`SharedRuns`] — in-memory memo over single-flight over the PR-2
//!    content-addressed on-disk trace cache — so each distinct trace
//!    generation runs **exactly once per process** no matter how many
//!    clients ask;
//! 4. `/v1/experiments` re-times the requested model in one per-cell
//!    pass and normalizes it to the run's memoized BASE result
//!    ([`AppRun::base`], re-timed once per run); the figure and summary
//!    routes run one gang per application run ([`retime_run`]: a single
//!    streamed traversal feeds every cell's engine). Results come out
//!    in spec order, so the body is byte-identical under any
//!    concurrency.
//!
//! Everything the paper's philosophy says about overlap applies here:
//! distinct cold queries overlap their simulations on separate
//! connection workers; identical ones never duplicate work.

use crate::http::{Request, Response};
use lookahead_core::ds::{Ds, DsConfig};
use lookahead_core::inorder::InOrder;
use lookahead_core::model::ExecutionResult;
use lookahead_core::ConsistencyModel;
use lookahead_harness::dag::{DagStats, Scheduler};
use lookahead_harness::experiments::{
    columns_from_results, figure3_cells, figure4_cells, hidden_row, retime_matrix, retime_run,
    run_cell_specs_with_stats, summary_cells, CellSpec, PAPER_WINDOWS,
};
use lookahead_harness::pipeline::AppRun;
use lookahead_harness::singleflight::{FlightOutcome, SharedRuns, SingleFlight};
use lookahead_harness::tier::SizeTier;
use lookahead_harness::TraceCache;
use lookahead_multiproc::SimConfig;
use lookahead_obs::json::JsonObject;
use lookahead_obs::metrics::{MetricsRegistry, ShardedMetrics};
use lookahead_obs::span::{self, TraceContext};
use lookahead_obs::{log, prom};
use lookahead_trace::Breakdown;
use lookahead_workloads::App;
use std::collections::VecDeque;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Metric shards for hot-path counters (a small power of two: enough
/// that a handful of workers rarely collide, cheap to merge).
const METRIC_SHARDS: usize = 16;

/// Finished request traces kept for `/v1/debug/trace/<id>`.
const TRACE_RING_CAPACITY: usize = 64;

/// Service-level configuration (transport knobs live in
/// [`ServerConfig`](crate::server::ServerConfig)).
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// The tier used when a query does not say `tier=`.
    pub default_tier: SizeTier,
    /// The simulation configuration queries run under.
    pub sim: SimConfig,
    /// DAG workers for multi-run sweeps (`/v1/summary`): how many
    /// applications' gangs re-time at once.
    pub retime_workers: usize,
    /// Append every finished request's spans (flat JSONL, one span per
    /// line) to this file; `None` disables the sink. The in-memory
    /// `/v1/debug/trace/<id>` ring works either way.
    pub span_log: Option<PathBuf>,
    /// Never read: sweep bodies always run on the DAG executor. The
    /// field remains only because the benchmark probe
    /// (`perfbench/probe/src/serve.rs`) names it in its
    /// `ServiceConfig` literal; delete it together with that literal
    /// and [`Scheduler`].
    pub scheduler: Scheduler,
    /// Never read: every body is computed because a client asked for
    /// it. The field remains only because the benchmark probe
    /// (`perfbench/probe/src/serve.rs`) names it in its
    /// `ServiceConfig` literal; delete it together with that literal.
    pub prewarm: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            default_tier: SizeTier::Default,
            sim: SimConfig::default(),
            retime_workers: 1,
            span_log: None,
            scheduler: Scheduler::Dag,
            prewarm: false,
        }
    }
}

/// A query failure, mapped to a status and a JSON error body. Cloned
/// to every coalesced waiter of a failed flight.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApiError {
    /// Unknown route or application → 404.
    NotFound(String),
    /// Malformed or unknown query parameter → 400.
    BadQuery(String),
    /// The simulation stack failed → 500.
    Internal(String),
}

impl ApiError {
    fn status(&self) -> u16 {
        match self {
            ApiError::NotFound(_) => 404,
            ApiError::BadQuery(_) => 400,
            ApiError::Internal(_) => 500,
        }
    }

    fn message(&self) -> &str {
        match self {
            ApiError::NotFound(m) | ApiError::BadQuery(m) | ApiError::Internal(m) => m,
        }
    }

    /// The error as a response (deterministic JSON body).
    pub fn into_response(self) -> Response {
        Response::json(
            self.status(),
            JsonObject::render(|o| {
                o.str("error", self.message());
            }),
        )
    }
}

/// The processor models a query may name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelKind {
    Base,
    Ssbr,
    Ss,
    Ds,
}

impl ModelKind {
    fn from_name(name: &str) -> Option<ModelKind> {
        match name.to_ascii_lowercase().as_str() {
            "base" => Some(ModelKind::Base),
            "ssbr" => Some(ModelKind::Ssbr),
            "ss" => Some(ModelKind::Ss),
            "ds" => Some(ModelKind::Ds),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            ModelKind::Base => "base",
            ModelKind::Ssbr => "ssbr",
            ModelKind::Ss => "ss",
            ModelKind::Ds => "ds",
        }
    }
}

/// A validated `/v1/experiments` query.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ExperimentQuery {
    app: App,
    tier: SizeTier,
    model: ModelKind,
    consistency: ConsistencyModel,
    window: usize,
    width: usize,
}

/// The experiment service: shared run resolution, single-flight body
/// deduplication, and metrics.
pub struct ExperimentService {
    config: ServiceConfig,
    runs: SharedRuns,
    bodies: SingleFlight<Result<Arc<String>, ApiError>>,
    /// Sharded so request workers bumping counters never serialize on
    /// one lock (and never contend with a `/metrics` scrape, which
    /// merges shard snapshots one at a time).
    metrics: ShardedMetrics,
    flights_led: AtomicU64,
    flights_coalesced: AtomicU64,
    flights_memoized: AtomicU64,
    /// Most recent finished request traces, newest at the back.
    traces: Mutex<VecDeque<(String, String)>>,
    span_sink: Option<Mutex<std::io::BufWriter<std::fs::File>>>,
    /// Connections currently open on the reactor (gauge).
    reactor_open_connections: AtomicU64,
}

impl ExperimentService {
    /// A service over an optional on-disk trace cache.
    pub fn new(config: ServiceConfig, cache: Option<TraceCache>) -> ExperimentService {
        let span_sink =
            config.span_log.as_ref().and_then(|path| {
                match std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)
                {
                    Ok(f) => Some(Mutex::new(std::io::BufWriter::new(f))),
                    Err(e) => {
                        log::warn(
                            "serve.spans",
                            "cannot open span log; spans will not be persisted",
                            &[
                                ("path", &path.display().to_string()),
                                ("error", &e.to_string()),
                            ],
                        );
                        None
                    }
                }
            });
        ExperimentService {
            config,
            runs: SharedRuns::new(cache),
            bodies: SingleFlight::new(),
            metrics: ShardedMetrics::new(METRIC_SHARDS),
            flights_led: AtomicU64::new(0),
            flights_coalesced: AtomicU64::new(0),
            flights_memoized: AtomicU64::new(0),
            traces: Mutex::new(VecDeque::new()),
            span_sink,
            reactor_open_connections: AtomicU64::new(0),
        }
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// The run resolver's accounting (generations, hits, coalescing).
    pub fn run_stats(&self) -> lookahead_harness::singleflight::SharedRunStats {
        self.runs.stats()
    }

    /// Whether an on-disk trace cache backs the run resolver.
    pub fn disk_cache_enabled(&self) -> bool {
        self.runs.disk_cache_enabled()
    }

    /// Routes one parsed request to a response. Bodies are
    /// deterministic for every route except `/metrics`,
    /// `/metrics.json` and `/v1/debug/trace/<id>`.
    pub fn handle(&self, request: &Request) -> Response {
        self.count("serve.http.requests", 1);
        let result = match request.path.as_str() {
            "/healthz" => Ok(Response::json(
                200,
                JsonObject::render(|o| {
                    o.str("status", "ok");
                }),
            )),
            "/metrics" => Ok(Response::with_type(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                prom::render(&self.metrics_snapshot()),
            )),
            "/metrics.json" => Ok(Response::json(200, self.metrics_body())),
            "/v1/apps" => Ok(Response::json(200, self.apps_body())),
            "/v1/experiments" => {
                self.report(request, Self::experiments_key, Self::experiments_body)
            }
            "/v1/figure3" => self.figure_route::<3>(request),
            "/v1/figure4" => self.figure_route::<4>(request),
            "/v1/summary" => self.report(request, Self::summary_key, Self::summary_body),
            other => match other.strip_prefix("/v1/debug/trace/") {
                Some(id) => self.debug_trace(id),
                None => Err(ApiError::NotFound(format!("no route {other:?}"))),
            },
        };
        let response = match result {
            Ok(r) => r,
            Err(e) => e.into_response(),
        };
        self.count(&format!("serve.http.status.{}", response.status), 1);
        if response.status >= 400 {
            // Structured error lines carry the request id automatically
            // when the transport installed a trace scope.
            let level = if response.status >= 500 {
                log::Level::Error
            } else {
                log::Level::Warn
            };
            log::log(
                level,
                "serve.http",
                "request failed",
                &[
                    ("target", request.path.as_str()),
                    ("status", &response.status.to_string()),
                ],
            );
        }
        response
    }

    /// Generic single-flight report path: canonicalize the query to a
    /// body key, then either lead the computation or share the result.
    fn report(
        &self,
        request: &Request,
        key: impl Fn(&Self, &Request) -> Result<String, ApiError>,
        body: impl Fn(&Self, &Request) -> Result<String, ApiError>,
    ) -> Result<Response, ApiError> {
        let key = key(self, request)?;
        let asked = span::now_current();
        let (result, outcome) = self.bodies.run(&key, || body(self, request).map(Arc::new));
        // A leading request's time shows up as its handler-stage spans;
        // followers record how they were satisfied instead.
        match outcome {
            FlightOutcome::Led => {
                self.flights_led.fetch_add(1, Ordering::Relaxed);
            }
            FlightOutcome::Coalesced => {
                self.flights_coalesced.fetch_add(1, Ordering::Relaxed);
                if let Some(start) = asked {
                    span::record_since("flight.wait", start);
                }
            }
            FlightOutcome::Memoized => {
                self.flights_memoized.fetch_add(1, Ordering::Relaxed);
                if let Some(start) = asked {
                    span::record_since("flight.memo", start);
                }
            }
        };
        result.map(|b| Response::json(200, (*b).clone()))
    }

    /// `/v1/figure3` and `/v1/figure4`: buffered through the body memo
    /// by default, or streamed cell-by-cell when the query says
    /// `stream=1` (same bytes, chunked framing, no memo).
    fn figure_route<const N: u8>(&self, request: &Request) -> Result<Response, ApiError> {
        match request.param("stream") {
            None | Some("0") => match N {
                3 => self.report(request, Self::figure_key::<3>, Self::figure3_body),
                _ => self.report(request, Self::figure_key::<4>, Self::figure4_body),
            },
            Some("1") => self.figure_stream::<N>(request),
            Some(v) => Err(ApiError::BadQuery(format!(
                "stream must be \"0\" or \"1\", got {v:?}"
            ))),
        }
    }

    fn count(&self, path: &str, by: u64) {
        self.metrics.with(|r| r.inc(path, by));
    }

    /// Records one served HTTP response (called by the transport).
    pub fn record_http(&self, micros: u64) {
        self.metrics
            .with(|r| r.observe("serve.http.latency_micros", micros));
    }

    /// Records how long a connection waited in the accept queue before
    /// a worker picked it up (called by the transport).
    pub fn record_queue_wait(&self, micros: u64) {
        self.metrics
            .with(|r| r.observe("serve.http.queue_wait_micros", micros));
    }

    /// Records a backpressure rejection (called by the transport).
    pub fn record_rejected(&self) {
        self.count("serve.http.rejected_503", 1);
    }

    /// Reactor loop accounting, batched once per `epoll_wait` round:
    /// readiness events delivered, eventfd wakeups consumed, and
    /// `EAGAIN`-terminated reads/writes (the measure of how often the
    /// reactor drains sockets dry).
    pub fn record_reactor_tick(&self, events: u64, wakeups: u64, eagain: u64) {
        self.metrics.with(|r| {
            if events > 0 {
                r.inc("serve.reactor.events", events);
            }
            if wakeups > 0 {
                r.inc("serve.reactor.wakeups", wakeups);
            }
            if eagain > 0 {
                r.inc("serve.reactor.eagain", eagain);
            }
        });
    }

    /// Records a request served on an already-used keep-alive
    /// connection (the connect the client did not have to pay).
    pub fn record_keepalive_reuse(&self) {
        self.count("serve.reactor.keepalive_reuses", 1);
    }

    /// Publishes the reactor's open-connection count (gauge).
    pub fn set_open_connections(&self, n: u64) {
        self.reactor_open_connections.store(n, Ordering::Relaxed);
    }

    /// Files a finished request's trace: into the debug ring (served
    /// by `/v1/debug/trace/<id>`) and, when configured, the span JSONL
    /// sink. Called by the transport after the response is written.
    pub fn finish_request(&self, ctx: &TraceContext, target: &str, status: u16) {
        let rendered = span::render_trace_json(ctx, target, status);
        {
            let mut ring = self.traces.lock().expect("trace ring poisoned");
            ring.push_back((ctx.request_id().to_string(), rendered));
            while ring.len() > TRACE_RING_CAPACITY {
                ring.pop_front();
            }
        }
        if let Some(sink) = &self.span_sink {
            let lines = span::render_spans_jsonl(ctx);
            let mut w = sink.lock().expect("span sink poisoned");
            // Flush per request so the file is complete even if the
            // process is killed rather than drained.
            if w.write_all(lines.as_bytes())
                .and_then(|()| w.flush())
                .is_err()
            {
                log::warn("serve.spans", "failed to append to the span log", &[]);
            }
        }
    }

    /// `/v1/debug/trace/<id>`: the retained trace for a recent request.
    fn debug_trace(&self, id: &str) -> Result<Response, ApiError> {
        let ring = self.traces.lock().expect("trace ring poisoned");
        ring.iter()
            .rev()
            .find(|(rid, _)| rid == id)
            .map(|(_, body)| Response::json(200, body.clone()))
            .ok_or_else(|| {
                ApiError::NotFound(format!(
                    "no retained trace for request id {id:?} \
                     (the ring keeps the last {TRACE_RING_CAPACITY} requests)"
                ))
            })
    }

    // ---- query validation ----------------------------------------

    fn parse_app(&self, name: &str) -> Result<App, ApiError> {
        App::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| {
                let valid: Vec<&str> = App::ALL.iter().map(|a| a.name()).collect();
                ApiError::NotFound(format!("unknown app {name:?}; valid apps: {valid:?}"))
            })
    }

    fn parse_tier(&self, request: &Request) -> Result<SizeTier, ApiError> {
        match request.param("tier") {
            None => Ok(self.config.default_tier),
            Some(t) => SizeTier::from_name(t).ok_or_else(|| {
                ApiError::BadQuery(format!(
                    "unknown tier {t:?}; valid tiers: [\"small\", \"default\", \"paper\", \"large\"]"
                ))
            }),
        }
    }

    fn reject_unknown_params(request: &Request, allowed: &[&str]) -> Result<(), ApiError> {
        for (k, _) in &request.query {
            if !allowed.contains(&k.as_str()) {
                return Err(ApiError::BadQuery(format!(
                    "unknown query parameter {k:?}; allowed: {allowed:?}"
                )));
            }
        }
        Ok(())
    }

    fn parse_experiment_query(&self, request: &Request) -> Result<ExperimentQuery, ApiError> {
        Self::reject_unknown_params(
            request,
            &["app", "tier", "model", "consistency", "window", "width"],
        )?;
        let app = self.parse_app(
            request
                .param("app")
                .ok_or_else(|| ApiError::BadQuery("missing required parameter \"app\"".into()))?,
        )?;
        let tier = self.parse_tier(request)?;
        let model = match request.param("model") {
            None => ModelKind::Ds,
            Some(m) => ModelKind::from_name(m).ok_or_else(|| {
                ApiError::BadQuery(format!(
                    "unknown model {m:?}; valid models: [\"base\", \"ssbr\", \"ss\", \"ds\"]"
                ))
            })?,
        };
        let consistency = match request.param("consistency") {
            None => ConsistencyModel::Rc,
            Some(c) => ConsistencyModel::ALL
                .into_iter()
                .find(|m| m.abbrev().eq_ignore_ascii_case(c))
                .ok_or_else(|| {
                    ApiError::BadQuery(format!(
                        "unknown consistency model {c:?}; valid: [\"SC\", \"PC\", \"WO\", \"RC\"]"
                    ))
                })?,
        };
        let window = match request.param("window") {
            None => 64,
            Some(w) => match w.parse::<usize>() {
                Ok(n) if (1..=4096).contains(&n) => n,
                _ => {
                    return Err(ApiError::BadQuery(format!(
                        "window must be an integer in 1..=4096, got {w:?}"
                    )))
                }
            },
        };
        let width = match request.param("width") {
            None => 1,
            Some(w) => match w.parse::<usize>() {
                Ok(n) if (1..=16).contains(&n) => n,
                _ => {
                    return Err(ApiError::BadQuery(format!(
                        "width must be an integer in 1..=16, got {w:?}"
                    )))
                }
            },
        };
        Ok(ExperimentQuery {
            app,
            tier,
            model,
            consistency,
            window,
            width,
        })
    }

    // ---- body keys (canonical: equal queries coalesce) -----------

    fn experiments_key(&self, request: &Request) -> Result<String, ApiError> {
        let q = self.parse_experiment_query(request)?;
        Ok(format!(
            "experiments;app={};tier={};model={};cons={};window={};width={}",
            q.app.name(),
            q.tier.name(),
            q.model.name(),
            q.consistency.abbrev(),
            q.window,
            q.width
        ))
    }

    fn figure_key<const N: u8>(&self, request: &Request) -> Result<String, ApiError> {
        Self::reject_unknown_params(request, &["app", "tier", "stream"])?;
        let app = self.parse_app(
            request
                .param("app")
                .ok_or_else(|| ApiError::BadQuery("missing required parameter \"app\"".into()))?,
        )?;
        let tier = self.parse_tier(request)?;
        Ok(format!("figure{N};app={};tier={}", app.name(), tier.name()))
    }

    fn summary_key(&self, request: &Request) -> Result<String, ApiError> {
        Self::reject_unknown_params(request, &["tier"])?;
        Ok(format!("summary;tier={}", self.parse_tier(request)?.name()))
    }

    // ---- run resolution ------------------------------------------

    fn resolve(&self, app: App, tier: SizeTier) -> Result<Arc<AppRun>, ApiError> {
        let workload = tier.workload(app);
        self.runs
            .get(workload.as_ref(), tier.name(), &self.config.sim)
            .map_err(ApiError::Internal)
    }

    // ---- bodies ---------------------------------------------------

    fn apps_body(&self) -> String {
        JsonObject::render(|o| {
            o.array("apps", |a| {
                for app in App::ALL {
                    a.str(app.name());
                }
            });
            o.array("tiers", |a| {
                for tier in SizeTier::ALL {
                    a.str(tier.name());
                }
            });
            o.str("default_tier", self.config.default_tier.name());
            o.array("models", |a| {
                a.str("base").str("ssbr").str("ss").str("ds");
            });
            o.array("consistency", |a| {
                for m in ConsistencyModel::ALL {
                    a.str(m.abbrev());
                }
            });
            o.array("paper_windows", |a| {
                for w in PAPER_WINDOWS {
                    a.u64(w as u64);
                }
            });
        })
    }

    /// The merged registry every metrics endpoint renders: the shards
    /// merged (deterministically — counters and buckets add), plus the
    /// run-resolver and single-flight accounting spliced in.
    fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut snapshot = self.metrics.merged();
        let runs = self.runs.stats();
        snapshot.inc("serve.runs.generations", runs.generations);
        snapshot.inc("serve.runs.disk_hits", runs.disk_hits);
        snapshot.inc("serve.runs.memo_hits", runs.memo_hits);
        snapshot.inc("serve.runs.coalesced", runs.coalesced);
        snapshot.inc(
            "serve.flights.led",
            self.flights_led.load(Ordering::Relaxed),
        );
        snapshot.inc(
            "serve.flights.coalesced",
            self.flights_coalesced.load(Ordering::Relaxed),
        );
        snapshot.inc(
            "serve.flights.memoized",
            self.flights_memoized.load(Ordering::Relaxed),
        );
        snapshot.gauge_set(
            "serve.reactor.open_connections",
            self.reactor_open_connections.load(Ordering::Relaxed) as i64,
        );
        snapshot
    }

    /// `/metrics.json`: the merged registry as flat JSON (`/metrics`
    /// serves the same snapshot in Prometheus text exposition).
    fn metrics_body(&self) -> String {
        self.metrics_snapshot().to_json()
    }

    fn experiments_body(&self, request: &Request) -> Result<String, ApiError> {
        let q = self.parse_experiment_query(request)?;
        let run = self.resolve(q.app, q.tier)?;

        // BASE is a property of the run, not of the query: the run's
        // first query re-times it once and every later one reuses it.
        let (base, result): (&ExecutionResult, ExecutionResult) =
            span::record_current("retime", || {
                let base = run.base();
                let result = match q.model {
                    ModelKind::Base => base.clone(),
                    ModelKind::Ssbr => run.retime(&InOrder::ssbr(q.consistency)),
                    ModelKind::Ss => run.retime(&InOrder::ss(q.consistency)),
                    ModelKind::Ds => run.retime(&Ds::new(DsConfig {
                        issue_width: q.width,
                        ..DsConfig::with_model(q.consistency).window(q.window)
                    })),
                };
                (base, result)
            });

        Ok(span::record_current("render", || {
            JsonObject::render(|o| {
                o.object("query", |qo| {
                    qo.str("app", q.app.name())
                        .str("tier", q.tier.name())
                        .str("model", q.model.name())
                        .str("consistency", q.consistency.abbrev())
                        .u64("window", q.window as u64)
                        .u64("width", q.width as u64);
                });
                o.object("trace", |t| {
                    t.u64("instructions", run.trace_len() as u64)
                        .u64("proc", run.proc as u64)
                        .u64("mp_cycles", run.mp_cycles);
                });
                o.raw("base", &breakdown_json(&base.breakdown));
                o.object("result", |r| {
                    write_breakdown_fields(r, &result.breakdown);
                    r.f64(
                        "normalized",
                        result.breakdown.normalized_to(&base.breakdown),
                    );
                    match result.breakdown.read_latency_hidden_vs(&base.breakdown) {
                        Some(h) => r.f64("read_latency_hidden", h),
                        None => r.null("read_latency_hidden"),
                    };
                });
            })
        }))
    }

    /// Records what one DAG-scheduled sweep observed.
    fn record_dag_stats(&self, s: &DagStats) {
        self.count("serve.dag.sweeps", 1);
        self.count("serve.dag.cells", s.tasks as u64);
        self.metrics.with(|r| {
            r.observe("serve.dag.peak_ready", s.peak_ready as u64);
            r.observe("serve.dag.critical_path", s.critical_path);
        });
    }

    fn figure_cells<const N: u8>() -> Vec<CellSpec> {
        match N {
            3 => figure3_cells(&PAPER_WINDOWS),
            _ => figure4_cells(&PAPER_WINDOWS),
        }
    }

    fn figure_body_for<const N: u8>(&self, request: &Request) -> Result<String, ApiError> {
        let app = self.parse_app(request.param("app").expect("validated by key"))?;
        let tier = self.parse_tier(request)?;
        let run = self.resolve(app, tier)?;
        let specs = Self::figure_cells::<N>();
        let (columns, stats) =
            span::record_current("retime", || run_cell_specs_with_stats(&run, &specs));
        self.record_dag_stats(&stats);
        let route = if N == 3 { "figure3" } else { "figure4" };
        Ok(span::record_current("render", || {
            figure_body(route, app, tier, &columns)
        }))
    }

    fn figure3_body(&self, request: &Request) -> Result<String, ApiError> {
        self.figure_body_for::<3>(request)
    }

    fn figure4_body(&self, request: &Request) -> Result<String, ApiError> {
        self.figure_body_for::<4>(request)
    }

    /// `stream=1` figure sweeps: the response body is produced
    /// incrementally — the JSON prefix as soon as the run is resolved,
    /// then each column the moment its engine in the run's gang has
    /// finished and every earlier column is out. The concatenated
    /// fragments are byte-identical to the buffered body; the trade is
    /// that a streamed response bypasses the body memo (its cost is
    /// re-paid per request, while the run resolution still shares the
    /// process-wide memo).
    fn figure_stream<const N: u8>(&self, request: &Request) -> Result<Response, ApiError> {
        // Validate exactly as the buffered path would.
        let _ = self.figure_key::<N>(request)?;
        let app = self.parse_app(request.param("app").expect("validated by key"))?;
        let tier = self.parse_tier(request)?;
        // Resolve before committing to stream: a generation failure is
        // still an ordinary buffered 500.
        let run = self.resolve(app, tier)?;
        let specs = Self::figure_cells::<N>();
        let route = if N == 3 { "figure3" } else { "figure4" };
        self.count("serve.stream.responses", 1);
        self.count("serve.stream.cells", specs.len() as u64);
        let prefix = figure_prefix(route, app, tier);
        Ok(Response::json_stream(move |sink| {
            sink.write_all(prefix.as_bytes())?;
            let (tx, rx) = std::sync::mpsc::channel::<(usize, ExecutionResult)>();
            std::thread::scope(|scope| -> std::io::Result<()> {
                let (run, specs) = (&run, &specs);
                scope.spawn(move || {
                    // One streamed traversal feeds every unique cell;
                    // each cell's column is sent the moment its engine
                    // finishes. After a mid-stream gang failure the
                    // per-cell fallback sends every cell again (results
                    // are deterministic, so a duplicate send is benign).
                    let tx = std::sync::Mutex::new(tx);
                    retime_run(run, specs, &|i, r| {
                        // A vanished receiver just means the client
                        // hung up mid-stream.
                        let _ = tx
                            .lock()
                            .expect("a gang engine panicked while sending")
                            .send((i, r.clone()));
                    });
                });
                let mut slots: Vec<Option<ExecutionResult>> = vec![None; specs.len()];
                let mut done: Vec<ExecutionResult> = Vec::new();
                for (i, result) in rx {
                    slots[i] = Some(result);
                    // Emit the contiguous prefix of finished columns.
                    while done.len() < specs.len() && slots[done.len()].is_some() {
                        let emit = done.len();
                        done.push(slots[emit].take().expect("checked above"));
                        let column = columns_from_results(&specs[..=emit], &done)
                            .pop()
                            .expect("one column per result");
                        let mut fragment = String::new();
                        if emit > 0 {
                            fragment.push(',');
                        }
                        fragment.push_str(&column_json(&column));
                        sink.write_all(fragment.as_bytes())?;
                    }
                }
                sink.write_all(b"]}")
            })
        }))
    }

    /// The §7 headline matrix: per-app hidden-read-latency fractions
    /// across the window sweep, plus the cross-application average.
    fn summary_body(&self, request: &Request) -> Result<String, ApiError> {
        let tier = self.parse_tier(request)?;
        let windows = PAPER_WINDOWS;

        // Resolve every app first (each at most one generation,
        // process-wide), then re-time the whole matrix on the DAG
        // executor (one shared cell enumeration with the driver's
        // summary report).
        let mut runs = Vec::new();
        for app in App::ALL {
            runs.push((app, self.resolve(app, tier)?));
        }
        let specs = summary_cells(&windows);
        let refs: Vec<&AppRun> = runs.iter().map(|(_, r)| r.as_ref()).collect();
        let matrix = span::record_current("retime", || {
            retime_matrix(&refs, &specs, self.config.retime_workers)
        });

        let per_app: Vec<(App, Vec<f64>)> = runs
            .iter()
            .zip(&matrix)
            .map(|((app, _), row)| (*app, hidden_row(row)))
            .collect();

        Ok(span::record_current("render", || {
            JsonObject::render(|o| {
                o.object("query", |qo| {
                    qo.str("tier", tier.name());
                });
                o.array("windows", |a| {
                    for w in windows {
                        a.u64(w as u64);
                    }
                });
                o.array("apps", |a| {
                    for (app, hidden) in &per_app {
                        a.object(|row| {
                            row.str("app", app.name());
                            row.array("read_latency_hidden", |h| {
                                for &v in hidden {
                                    h.f64(v);
                                }
                            });
                        });
                    }
                });
                o.array("average", |a| {
                    for j in 0..windows.len() {
                        let mean = per_app.iter().map(|(_, h)| h[j]).sum::<f64>()
                            / per_app.len().max(1) as f64;
                        a.f64(mean);
                    }
                });
            })
        }))
    }
}

/// One breakdown as a JSON object string.
fn breakdown_json(b: &Breakdown) -> String {
    JsonObject::render(|o| write_breakdown_fields(o, b))
}

fn write_breakdown_fields(o: &mut JsonObject<'_>, b: &Breakdown) {
    o.u64("busy", b.busy)
        .u64("sync", b.sync)
        .u64("read", b.read)
        .u64("write", b.write)
        .u64("total", b.total());
}

/// The figure body's byte prefix: everything before the first column.
/// The streamed and buffered paths both assemble the body from this
/// prefix, [`column_json`] fragments joined by commas, and the `]}`
/// suffix — byte-identity between the two framings holds by
/// construction.
fn figure_prefix(route: &str, app: App, tier: SizeTier) -> String {
    let query = JsonObject::render(|o| {
        o.str("route", route)
            .str("app", app.name())
            .str("tier", tier.name());
    });
    format!("{{\"query\":{query},\"columns\":[")
}

/// One rendered column of a figure body.
fn column_json(col: &lookahead_harness::Figure3Column) -> String {
    JsonObject::render(|c| {
        c.str("label", &col.label).str("model", &col.model);
        c.raw("breakdown", &breakdown_json(&col.breakdown));
        c.f64("normalized", col.normalized);
    })
}

/// Shared rendering for the figure3/figure4 column sweeps.
fn figure_body(
    route: &str,
    app: App,
    tier: SizeTier,
    columns: &[lookahead_harness::Figure3Column],
) -> String {
    let mut out = figure_prefix(route, app, tier);
    for (i, col) in columns.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&column_json(col));
    }
    out.push_str("]}");
    out
}

/// Convenience for the CLI and tests: handles a `GET` described by a
/// path-with-query string (`/v1/experiments?app=MP3D&...`), exactly as
/// the HTTP transport would.
pub fn handle_target(service: &ExperimentService, target: &str) -> Response {
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    service.handle(&Request {
        method: "GET".to_string(),
        path: crate::http::percent_decode(path),
        query: crate::http::parse_query(query),
        request_id: None,
        keep_alive: false,
    })
}
