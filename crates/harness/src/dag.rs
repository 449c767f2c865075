//! Experiment-DAG scheduler: critical-path rank + earliest-finish
//! placement over the sweep task graph.
//!
//! A report sweep is really a DAG, not a flat job list: per-application
//! trace **generation** feeds every re-timing **cell** of that
//! application, and the cells feed report assembly. The flat
//! [`parallel`](crate::parallel) pool cannot express that shape — the
//! driver historically ran generation to a barrier, then each report's
//! cells to another barrier, losing the tail of every phase to its
//! slowest member. This module models the sweep explicitly:
//!
//! - **Nodes** carry cost estimates (coarse weights calibrated from
//!   measured generation and per-cell re-timing times: generation
//!   dominates a cold sweep, DS cells grow with window size; see
//!   [`ModelSpec::cost`](crate::experiments::ModelSpec::cost)). A
//!   cache or memo hit collapses a node to (near) zero cost via
//!   [`TaskDag::add_collapsed`].
//! - **Edges** carry the generated-run dependency: once a generation
//!   node completes, its cells re-time through `AppRun::retime`'s
//!   streamed `TraceCursor` path. (The representative processor is
//!   chosen by `busiest_proc()` *after* generation, so a cell cannot
//!   stream from its own app's in-flight generation; the overlap this
//!   scheduler buys is across applications and reports — app A's cells
//!   run while app B is still generating.)
//! - The **scheduler** orders ready work by *upward rank* (the
//!   classic critical-path priority: a node's cost plus the most
//!   expensive downstream chain hanging off it, after dslab-dag's
//!   lookahead scheduler), so the long DS.256 chains start early and
//!   never straggle the makespan.
//!
//! [`TaskDag::plan`] is the deterministic earliest-finish *placement*
//! simulation over the estimates (used for predicted makespans and the
//! determinism tests); [`run_dag`] is the executor. On homogeneous
//! workers, pulling the highest-ranked ready node from one shared heap
//! is exactly earliest-finish placement — whichever worker frees up
//! first takes the most critical ready node — and the shared heap *is*
//! the work-stealing fallback: an idle worker never waits while any
//! node is ready. Results return in node-id order, so assembled output
//! is byte-identical for any worker count or completion interleaving.

use lookahead_obs::span;
use std::collections::{BinaryHeap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Environment knob selecting the sweep scheduler (`flat` or `dag`);
/// the `--scheduler` flag wins over it.
pub const SCHEDULER_ENV: &str = "LOOKAHEAD_SCHEDULER";

/// Which engine runs a sweep's cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheduler {
    /// The flat [`parallel`](crate::parallel) pool (submission order,
    /// atomic work index).
    Flat,
    /// The rank-ordered DAG executor in this module.
    Dag,
}

impl Scheduler {
    /// Parses a scheduler name as used by `--scheduler` and
    /// [`SCHEDULER_ENV`].
    pub fn from_name(name: &str) -> Option<Scheduler> {
        match name.trim() {
            "flat" => Some(Scheduler::Flat),
            "dag" => Some(Scheduler::Dag),
            _ => None,
        }
    }

    /// The canonical name (`flat` / `dag`).
    pub fn name(self) -> &'static str {
        match self {
            Scheduler::Flat => "flat",
            Scheduler::Dag => "dag",
        }
    }

    /// Reads [`SCHEDULER_ENV`], failing fast on a malformed value.
    ///
    /// # Errors
    ///
    /// Returns a descriptive message when the variable is set to
    /// anything other than `flat` or `dag`.
    pub fn from_env() -> Result<Option<Scheduler>, String> {
        match std::env::var(SCHEDULER_ENV) {
            Ok(v) => Scheduler::from_name(&v)
                .map(Some)
                .ok_or_else(|| format!("{SCHEDULER_ENV} must be \"flat\" or \"dag\", got {v:?}")),
            Err(_) => Ok(None),
        }
    }
}

/// The cost assigned to a collapsed (cache/memo-hit) node. Non-zero so
/// ranks stay strictly decreasing along every edge, which is what lets
/// [`TaskDag::plan`] schedule dependencies before dependents.
pub const COLLAPSED_COST: u64 = 1;

/// EMA smoothing factor for observed task durations: recent sweeps
/// dominate, but one outlier (a cold file cache, a scheduling hiccup)
/// cannot swing an estimate by more than 30%.
const EMA_ALPHA: f64 = 0.3;

/// Learned task-cost estimates: an exponential moving average of
/// observed wall durations keyed by task kind (`"BASE"`, `"DS.64"`,
/// `"gang"`, `"generate"`, ...), fed back from [`run_dag_with_stats`]
/// so later sweeps in the same process plan with measured costs
/// instead of the static guesses.
///
/// Estimates are expressed in the DAG's nominal cost unit, which the
/// static weights (see `ModelSpec::cost`) chose to be roughly one
/// millisecond of work — so observed milliseconds feed back on the
/// same scale the planner already uses. Costs only reorder execution;
/// results are returned in node-id order, so learned costs can never
/// change sweep output.
#[derive(Debug, Default)]
pub struct CostModel {
    ema_ms: Mutex<HashMap<String, f64>>,
}

impl CostModel {
    /// Folds one observed duration for `kind` into the average.
    pub fn observe(&self, kind: &str, secs: f64) {
        if !secs.is_finite() || secs < 0.0 {
            return;
        }
        let ms = secs * 1000.0;
        let mut ema = self.ema_ms.lock().expect("cost model lock");
        match ema.get_mut(kind) {
            Some(v) => *v = *v * (1.0 - EMA_ALPHA) + ms * EMA_ALPHA,
            None => {
                ema.insert(kind.to_string(), ms);
            }
        }
    }

    /// The learned cost for `kind` in nominal units, or `fallback`
    /// (the static estimate) before the first observation.
    pub fn estimate(&self, kind: &str, fallback: u64) -> u64 {
        let ema = self.ema_ms.lock().expect("cost model lock");
        match ema.get(kind) {
            Some(&ms) => (ms as u64).max(1),
            None => fallback.max(1),
        }
    }

    /// Number of kinds with at least one observation.
    pub fn len(&self) -> usize {
        self.ema_ms.lock().expect("cost model lock").len()
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The process-wide [`CostModel`] every DAG execution feeds.
pub fn cost_model() -> &'static CostModel {
    static MODEL: OnceLock<CostModel> = OnceLock::new();
    MODEL.get_or_init(CostModel::default)
}

/// A dependency graph of costed tasks, built append-only: a task may
/// only depend on already-added tasks, so the graph is acyclic by
/// construction and node id order is a topological order.
#[derive(Debug, Clone, Default)]
pub struct TaskDag {
    costs: Vec<u64>,
    deps: Vec<Vec<usize>>,
    succs: Vec<Vec<usize>>,
    /// Cost-model kind per task (`None` for untracked tasks).
    kinds: Vec<Option<String>>,
    collapsed: usize,
}

impl TaskDag {
    /// An empty graph.
    #[must_use]
    pub fn new() -> TaskDag {
        TaskDag::default()
    }

    /// Adds a task with the given cost estimate (clamped to >= 1 so
    /// ranks strictly decrease along edges) depending on the given
    /// earlier tasks. Returns the new task's id.
    ///
    /// # Panics
    ///
    /// Panics if a dependency id does not refer to an earlier task.
    pub fn add_task(&mut self, cost: u64, deps: &[usize]) -> usize {
        let id = self.costs.len();
        for &d in deps {
            assert!(d < id, "task {id} depends on not-yet-added task {d}");
            self.succs[d].push(id);
        }
        self.costs.push(cost.max(1));
        self.deps.push(deps.to_vec());
        self.succs.push(Vec::new());
        self.kinds.push(None);
        id
    }

    /// [`add_task`](Self::add_task) with a cost-model kind attached:
    /// the task's cost estimate is refined by the process-wide
    /// [`cost_model`]'s learned average for `kind` (when one exists),
    /// and its observed duration is fed back after execution.
    pub fn add_task_kind(&mut self, cost: u64, deps: &[usize], kind: &str) -> usize {
        let id = self.add_task(cost_model().estimate(kind, cost), deps);
        self.kinds[id] = Some(kind.to_string());
        id
    }

    /// Adds a node whose real work is already memoized (a cache hit, a
    /// shared single-flight result): it still orders its dependents but
    /// costs [`COLLAPSED_COST`] in the schedule.
    pub fn add_collapsed(&mut self, deps: &[usize]) -> usize {
        self.collapsed += 1;
        self.add_task(COLLAPSED_COST, deps)
    }

    /// Number of tasks.
    #[must_use]
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// Whether the graph has no tasks.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// Number of dependency edges.
    #[must_use]
    pub fn edges(&self) -> usize {
        self.deps.iter().map(Vec::len).sum()
    }

    /// Number of collapsed (memoized) nodes.
    #[must_use]
    pub fn collapsed(&self) -> usize {
        self.collapsed
    }

    /// The cost estimate of task `id`.
    #[must_use]
    pub fn cost(&self, id: usize) -> u64 {
        self.costs[id]
    }

    /// The dependencies of task `id`.
    #[must_use]
    pub fn deps(&self, id: usize) -> &[usize] {
        &self.deps[id]
    }

    /// Sum of all cost estimates (the serial makespan).
    #[must_use]
    pub fn total_cost(&self) -> u64 {
        self.costs.iter().sum()
    }

    /// Upward ranks: `rank(t) = cost(t) + max(rank of successors)`,
    /// i.e. the cost of the most expensive chain starting at `t`. The
    /// maximum over all tasks is the critical-path cost. Because
    /// successors always have larger ids (append-only construction),
    /// one reverse pass suffices.
    #[must_use]
    pub fn ranks(&self) -> Vec<u64> {
        let mut ranks = vec![0u64; self.len()];
        for id in (0..self.len()).rev() {
            let down = self.succs[id].iter().map(|&s| ranks[s]).max().unwrap_or(0);
            ranks[id] = self.costs[id] + down;
        }
        ranks
    }

    /// The critical-path cost (longest chain of estimates).
    #[must_use]
    pub fn critical_path(&self) -> u64 {
        self.ranks().into_iter().max().unwrap_or(0)
    }

    /// Deterministic earliest-finish placement over the cost
    /// estimates: tasks in decreasing rank order (ties by id), each
    /// placed on the worker where it finishes earliest. Costs are at
    /// least 1, so every dependency outranks its dependents and is
    /// placed first.
    #[must_use]
    pub fn plan(&self, workers: usize) -> Plan {
        let n = self.len();
        let ranks = self.ranks();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| ranks[b].cmp(&ranks[a]).then(a.cmp(&b)));

        let mut free = vec![0u64; workers.max(1)];
        let mut start = vec![0u64; n];
        let mut finish = vec![0u64; n];
        let mut worker = vec![0usize; n];
        for &id in &order {
            let est = self.deps[id].iter().map(|&d| finish[d]).max().unwrap_or(0);
            let (w, s) = free
                .iter()
                .enumerate()
                .map(|(w, &f)| (w, f.max(est)))
                .min_by_key(|&(w, s)| (s, w))
                .expect("at least one worker");
            start[id] = s;
            finish[id] = s + self.costs[id];
            worker[id] = w;
            free[w] = finish[id];
        }
        let makespan = finish.iter().copied().max().unwrap_or(0);
        Plan {
            order,
            worker,
            start,
            finish,
            makespan,
        }
    }
}

/// The schedule produced by [`TaskDag::plan`]: purely a function of
/// the DAG and the worker count (the determinism tests pin this).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Plan {
    /// Task ids in scheduling (rank) order.
    pub order: Vec<usize>,
    /// Assigned worker per task id.
    pub worker: Vec<usize>,
    /// Simulated start time per task id.
    pub start: Vec<u64>,
    /// Simulated finish time per task id.
    pub finish: Vec<u64>,
    /// Simulated completion time of the whole graph.
    pub makespan: u64,
}

/// What a [`run_dag_with_stats`] execution observed — exported to
/// `/metrics` by serve and to `BENCH_dag.json` by `lookahead bench
/// dag`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DagStats {
    /// Number of tasks executed.
    pub tasks: usize,
    /// Number of dependency edges.
    pub edges: usize,
    /// Nodes collapsed to [`COLLAPSED_COST`] by a cache/memo hit.
    pub collapsed: usize,
    /// Critical-path cost (longest chain of estimates).
    pub critical_path: u64,
    /// Sum of all cost estimates.
    pub total_cost: u64,
    /// Predicted makespan of [`TaskDag::plan`] at this worker count.
    pub planned_makespan: u64,
    /// Largest ready-set size observed during execution.
    pub peak_ready: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Relative error of the planned makespan against the observed
    /// wall time: `(observed - predicted) / predicted`, with the
    /// prediction converted to seconds via the run's own
    /// cost-unit-to-seconds ratio. Positive means the plan was
    /// optimistic; 0 when the run was too small to measure.
    pub makespan_error: f64,
}

/// Max-heap priority: highest rank first, ties broken by lowest id so
/// the pop order is deterministic.
#[derive(PartialEq, Eq)]
struct Prio {
    rank: u64,
    id: usize,
}

impl Ord for Prio {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank.cmp(&other.rank).then(other.id.cmp(&self.id))
    }
}

impl PartialOrd for Prio {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct ExecState {
    ready: BinaryHeap<Prio>,
    /// Unmet dependency count per task; a task becomes ready at zero.
    waiting: Vec<usize>,
    done: usize,
    peak_ready: usize,
    /// Set when a worker unwinds, so the others stop waiting.
    poisoned: bool,
}

impl ExecState {
    fn new(dag: &TaskDag, ranks: &[u64]) -> ExecState {
        let waiting: Vec<usize> = (0..dag.len()).map(|id| dag.deps[id].len()).collect();
        let mut ready = BinaryHeap::new();
        for (id, &w) in waiting.iter().enumerate() {
            if w == 0 {
                ready.push(Prio {
                    rank: ranks[id],
                    id,
                });
            }
        }
        let peak_ready = ready.len();
        ExecState {
            ready,
            waiting,
            done: 0,
            peak_ready,
            poisoned: false,
        }
    }

    /// Marks `id` done and pushes newly-ready successors.
    fn complete(&mut self, dag: &TaskDag, ranks: &[u64], id: usize) {
        self.done += 1;
        for &s in &dag.succs[id] {
            self.waiting[s] -= 1;
            if self.waiting[s] == 0 {
                self.ready.push(Prio {
                    rank: ranks[s],
                    id: s,
                });
            }
        }
        self.peak_ready = self.peak_ready.max(self.ready.len());
    }
}

/// Runs one job per DAG node on up to `workers` threads, dependencies
/// strictly before dependents, ready nodes in decreasing rank order.
/// Results come back in node-id order regardless of execution
/// interleaving.
///
/// # Panics
///
/// Panics if `jobs.len() != dag.len()`; a panicking job is propagated
/// to the caller once the scope unwinds.
pub fn run_dag<T, F>(dag: &TaskDag, jobs: Vec<F>, workers: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    run_dag_with_stats(dag, jobs, workers).0
}

/// [`run_dag`] returning execution statistics alongside the results.
///
/// # Panics
///
/// Panics if `jobs.len() != dag.len()`; a panicking job is propagated
/// to the caller once the scope unwinds.
pub fn run_dag_with_stats<T, F>(dag: &TaskDag, jobs: Vec<F>, workers: usize) -> (Vec<T>, DagStats)
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = dag.len();
    assert_eq!(jobs.len(), n, "one job per DAG node");
    let (ranks, planned) =
        span::record_current("dag.schedule", || (dag.ranks(), dag.plan(workers).makespan));
    let mut stats = DagStats {
        tasks: n,
        edges: dag.edges(),
        collapsed: dag.collapsed(),
        critical_path: ranks.iter().copied().max().unwrap_or(0),
        total_cost: dag.total_cost(),
        planned_makespan: planned,
        peak_ready: 0,
        workers: workers.max(1).min(n.max(1)),
        makespan_error: 0.0,
    };
    let task_ns: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let wall_start = Instant::now();

    if workers <= 1 || n <= 1 {
        // Serial path: the same heap discipline on the calling thread —
        // execution order is exactly the one-worker plan.
        let results = span::record_current("dag.run", || {
            let mut state = ExecState::new(dag, &ranks);
            let mut slots: Vec<Option<F>> = jobs.into_iter().map(Some).collect();
            let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
            while let Some(Prio { id, .. }) = state.ready.pop() {
                let job = slots[id].take().expect("job claimed twice");
                let t0 = Instant::now();
                results[id] = Some(job());
                task_ns[id].store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                state.complete(dag, &ranks, id);
            }
            stats.peak_ready = state.peak_ready;
            results
                .into_iter()
                .map(|r| r.expect("dependency cycle: job never became ready"))
                .collect()
        });
        finish_stats(
            dag,
            &task_ns,
            wall_start.elapsed().as_secs_f64(),
            &mut stats,
        );
        return (results, stats);
    }

    let slots: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
    let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let state = Mutex::new(ExecState::new(dag, &ranks));
    let ready_cv = Condvar::new();
    let scope_in = span::current_scope();
    span::record_current("dag.run", || {
        std::thread::scope(|s| {
            for _ in 0..workers.min(n) {
                let (slots, results, state, ready_cv) = (&slots, &results, &state, &ready_cv);
                let (ranks, task_ns) = (&ranks, &task_ns);
                let scope_in = scope_in.clone();
                s.spawn(move || {
                    // Adopt the submitter's trace scope so per-cell
                    // spans join the request's tree (as parallel.rs).
                    span::set_scope(scope_in);
                    // If this worker's job panics, wake the others so
                    // they drain instead of waiting forever.
                    struct Wake<'a>(&'a Mutex<ExecState>, &'a Condvar);
                    impl Drop for Wake<'_> {
                        fn drop(&mut self) {
                            if std::thread::panicking() {
                                if let Ok(mut st) = self.0.lock() {
                                    st.poisoned = true;
                                }
                                self.1.notify_all();
                            }
                        }
                    }
                    let _wake = Wake(state, ready_cv);
                    loop {
                        let id = {
                            let mut st = state.lock().expect("scheduler state poisoned");
                            loop {
                                if st.poisoned || st.done == n {
                                    span::set_scope(None);
                                    return;
                                }
                                if let Some(Prio { id, .. }) = st.ready.pop() {
                                    break id;
                                }
                                st = ready_cv.wait(st).expect("scheduler state poisoned");
                            }
                        };
                        let job = slots[id]
                            .lock()
                            .expect("job slot poisoned")
                            .take()
                            .expect("job claimed twice");
                        let t0 = Instant::now();
                        let out = job();
                        task_ns[id].store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
                        *results[id].lock().expect("result slot poisoned") = Some(out);
                        let mut st = state.lock().expect("scheduler state poisoned");
                        st.complete(dag, ranks, id);
                        drop(st);
                        ready_cv.notify_all();
                    }
                });
            }
        });
    });
    stats.peak_ready = state.lock().expect("scheduler state poisoned").peak_ready;
    finish_stats(
        dag,
        &task_ns,
        wall_start.elapsed().as_secs_f64(),
        &mut stats,
    );
    let results = results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("job did not produce a result")
        })
        .collect();
    (results, stats)
}

/// Feeds observed task durations back into the process-wide
/// [`cost_model`] and scores the plan: the unit-less planned makespan
/// is converted to seconds with this run's own cost-to-seconds ratio
/// (`total observed task seconds / total estimated cost`) and compared
/// against the observed wall time. The relative error lands in
/// `stats.makespan_error` and on the active metrics recorder as the
/// `dag.plan.makespan_error` gauge (per-mille).
fn finish_stats(dag: &TaskDag, task_ns: &[AtomicU64], wall_secs: f64, stats: &mut DagStats) {
    let model = cost_model();
    let mut total_task_secs = 0.0;
    for (id, ns) in task_ns.iter().enumerate() {
        let secs = ns.load(Ordering::Relaxed) as f64 / 1e9;
        total_task_secs += secs;
        if let Some(kind) = &dag.kinds[id] {
            model.observe(kind, secs);
        }
    }
    if stats.total_cost > 0 && total_task_secs > 0.0 {
        let secs_per_unit = total_task_secs / stats.total_cost as f64;
        let predicted = stats.planned_makespan as f64 * secs_per_unit;
        if predicted > 0.0 {
            stats.makespan_error = (wall_secs - predicted) / predicted;
        }
    }
    let per_mille = (stats.makespan_error * 1000.0) as i64;
    lookahead_obs::with(|r| r.metrics.gauge_set("dag.plan.makespan_error", per_mille));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// gen -> {cells...} for two apps plus an independent tail.
    fn two_app_dag() -> TaskDag {
        let mut dag = TaskDag::new();
        let g0 = dag.add_task(100, &[]);
        let g1 = dag.add_task(80, &[]);
        for _ in 0..3 {
            dag.add_task(10, &[g0]);
            dag.add_task(10, &[g1]);
        }
        dag.add_task(5, &[]);
        dag
    }

    #[test]
    fn ranks_are_longest_downstream_chains() {
        let mut dag = TaskDag::new();
        let a = dag.add_task(10, &[]);
        let b = dag.add_task(5, &[a]);
        let c = dag.add_task(20, &[a]);
        let d = dag.add_task(1, &[b, c]);
        let ranks = dag.ranks();
        assert_eq!(ranks[d], 1);
        assert_eq!(ranks[b], 6);
        assert_eq!(ranks[c], 21);
        assert_eq!(ranks[a], 31);
        assert_eq!(dag.critical_path(), 31);
        assert_eq!(dag.total_cost(), 36);
        assert_eq!(dag.edges(), 4);
    }

    #[test]
    fn plan_respects_dependencies_and_is_deterministic() {
        let dag = two_app_dag();
        let plan = dag.plan(3);
        for id in 0..dag.len() {
            for &d in dag.deps(id) {
                assert!(
                    plan.finish[d] <= plan.start[id],
                    "dep {d} finishes after {id} starts"
                );
            }
        }
        assert_eq!(plan, dag.plan(3));
        // One worker serializes everything.
        assert_eq!(dag.plan(1).makespan, dag.total_cost());
        // More workers never hurt the predicted makespan.
        assert!(dag.plan(4).makespan <= dag.plan(2).makespan);
    }

    #[test]
    fn executes_dependencies_first_any_worker_count() {
        for workers in [1, 2, 8] {
            let dag = two_app_dag();
            let clock = AtomicUsize::new(0);
            let jobs: Vec<_> = (0..dag.len())
                .map(|_| || clock.fetch_add(1, Ordering::SeqCst))
                .collect();
            let seq = run_dag(&dag, jobs, workers);
            for id in 0..dag.len() {
                for &d in dag.deps(id) {
                    assert!(
                        seq[d] < seq[id],
                        "workers={workers}: dep {d} ran after {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn results_in_node_id_order() {
        let mut dag = TaskDag::new();
        for i in 0..40 {
            let deps: &[usize] = if i >= 10 { &[i - 10] } else { &[] };
            dag.add_task(1 + (i as u64 % 5), deps);
        }
        let mk = || (0..40).map(|i| move || i * 3).collect::<Vec<_>>();
        let serial = run_dag(&dag, mk(), 1);
        let parallel = run_dag(&dag, mk(), 8);
        assert_eq!(serial, (0..40).map(|i| i * 3).collect::<Vec<_>>());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn stats_count_collapsed_nodes_and_ready_peak() {
        let mut dag = TaskDag::new();
        let g = dag.add_collapsed(&[]);
        for _ in 0..4 {
            dag.add_task(10, &[g]);
        }
        let jobs: Vec<_> = (0..dag.len()).map(|i| move || i).collect();
        let (out, stats) = run_dag_with_stats(&dag, jobs, 2);
        assert_eq!(out, vec![0, 1, 2, 3, 4]);
        assert_eq!(stats.collapsed, 1);
        assert_eq!(stats.tasks, 5);
        // All four cells were ready at once after the collapsed root.
        assert_eq!(stats.peak_ready, 4);
        assert_eq!(stats.critical_path, COLLAPSED_COST + 10);
    }

    #[test]
    fn scheduler_names_round_trip() {
        assert_eq!(Scheduler::from_name("flat"), Some(Scheduler::Flat));
        assert_eq!(Scheduler::from_name(" dag "), Some(Scheduler::Dag));
        assert_eq!(Scheduler::from_name("greedy"), None);
        assert_eq!(Scheduler::Dag.name(), "dag");
        assert_eq!(Scheduler::Flat.name(), "flat");
    }

    #[test]
    fn empty_dag_runs() {
        let dag = TaskDag::new();
        let jobs: Vec<fn() -> u32> = Vec::new();
        let (out, stats) = run_dag_with_stats(&dag, jobs, 4);
        assert!(out.is_empty());
        assert_eq!(stats.critical_path, 0);
    }

    #[test]
    #[should_panic(expected = "depends on not-yet-added")]
    fn forward_dependencies_are_rejected() {
        let mut dag = TaskDag::new();
        dag.add_task(1, &[3]);
    }
}
