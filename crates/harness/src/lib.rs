//! Experiment harness: the full pipeline from workload to the paper's
//! tables and figures.
//!
//! The pipeline mirrors the paper's methodology (§3):
//!
//! 1. compile a workload ([`lookahead_workloads`]) to SRISC,
//! 2. run the 16-processor execution-driven simulation
//!    ([`lookahead_multiproc`]) to produce annotated traces,
//! 3. pick a representative processor's trace,
//! 4. re-time it under every processor model / consistency model /
//!    window size of interest ([`lookahead_core`]),
//! 5. report normalized execution-time breakdowns and derived metrics.
//!
//! [`pipeline`] implements steps 1–3 (with verification),
//! [`experiments`] steps 4–5 for each table and figure of the paper,
//! and [`format`](mod@format) renders text tables and stacked bars.
//!
//! Four execution-layer modules make the experiment suite cheap to
//! rerun and safe to share: [`cache`] stores generated runs in a
//! content-addressed on-disk cache so the multiprocessor simulation is
//! pay-once, [`parallel`] fans independent re-timing cells across
//! cores with deterministic, submission-ordered results, [`dag`]
//! schedules a whole sweep as a costed task graph (critical-path rank,
//! earliest-finish placement, generation overlapped with re-timing),
//! and [`singleflight`] deduplicates concurrent requests for the same
//! run onto a single computation (the substrate of the experiment
//! service's coalescing).

pub mod cache;
pub mod dag;
pub mod experiments;
pub mod format;
pub mod obsout;
pub mod parallel;
pub mod pipeline;
pub mod singleflight;
pub mod tier;

pub use cache::{cache_key, load_or_generate, CacheOutcome, MissReason, TraceCache};
pub use dag::{
    cost_model, run_dag, run_dag_with_stats, CostModel, DagStats, Plan, Scheduler, TaskDag,
};
pub use experiments::{
    latency_sweep, miss_delay, retime_gang, run_cell_specs, table1, table2, table3, CellSpec,
    Figure3Column, MissDelayReport, ModelSpec,
};
pub use pipeline::{AppRun, PipelineError};
pub use singleflight::{FlightOutcome, SharedRunStats, SharedRuns, SingleFlight};
pub use tier::SizeTier;
