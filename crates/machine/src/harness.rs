//! Parallel experiment harness with shared trace/oracle caching and
//! supervised execution.
//!
//! The paper's evaluation is a matrix: applications × configurations
//! (× seeds, once replication enters the picture). Every cell is an
//! independent deterministic simulation, which makes the matrix
//! embarrassingly parallel — *except* that cells share expensive inputs:
//!
//! * the generated [`AppTrace`] is identical for every configuration of one
//!   (app, nodes, seed) triple, and
//! * the Oracle-Halt and Ideal configurations both need the Baseline run of
//!   that same triple to build their [`RecordedBitOracle`] (and the
//!   Baseline cell itself *is* that run).
//!
//! [`Harness`] therefore fans cells out across a scoped worker pool while
//! interning both inputs in content-keyed caches: each (app, nodes, seed)
//! generates its trace once and simulates Baseline exactly once, no matter
//! how many configurations, workers, or calls consume it. A cell's
//! [`Variant`] (an ablation's knob, the [`Substrate`], time-sharing, a
//! disturbed trace) joins those keys only where it changes the shared
//! input: a disturbed trace is cached apart from the clean one, and each
//! trace and substrate has its own Baseline. Results come
//! back in the caller's cell order (workers fill indexed slots, so
//! completion order never shows), which keeps parallel output byte-for-byte
//! identical to a serial run.
//!
//! # Supervision
//!
//! Long fault sweeps must survive individual cells misbehaving, so cells
//! run under the harness's [`SupervisionPolicy`] (see DESIGN.md §11):
//!
//! * a **panicking** cell is caught (`catch_unwind`) and reported as
//!   [`CellError::Panic`] with its message preserved;
//! * a **livelocked** simulation is stopped by the simulator's own
//!   progress watchdog and reported as [`CellError::Livelock`] with
//!   queue/episode diagnostics;
//! * a cell that exceeds the policy's **wall-clock deadline** is stopped
//!   by the simulator itself, which polls the [`Deadline`] every 1024
//!   events, and reported as [`CellError::Timeout`] — the attempt's work
//!   ends there, so a retry never competes with its own predecessor;
//! * **transient** failures (panic, timeout) are re-run up to
//!   `policy.retries` times with deterministic, seed-derived exponential
//!   backoff ([`retry_backoff`]); the full failure history lands in
//!   [`CellOutcome::retries`] and each re-run emits a
//!   [`TraceEventKind::CellRetry`] event through the policy's trace sink.
//!   Livelocks are deterministic (same seed → same wedge schedule), so
//!   they are never retried.

use crate::cluster::{ClusterConfig, MsgSimulator};
pub use crate::cpu::CellError;
use crate::cpu::Deadline;
use crate::report::{pair_with_baselines, AggregateReport, RunReport, View};
use crate::run::oracle_from_baseline;
use crate::sim::{try_simulate_faulted, SimulatorConfig, TimeSharing};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::hash::Hash;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::Duration;
use tb_core::{
    AlgorithmConfig, FaultPlan, PredictorChoice, RecordedBitOracle, SystemConfig, WakeupMode,
};
use tb_faults::FaultSummary;
use tb_mem::MachineConfig;
use tb_sim::{Cycles, SimRng};
use tb_trace::{MemorySink, SinkHandle, TraceEvent, TraceEventKind, TraceSummary};
use tb_workloads::calibrate::{self, Unreachable};
use tb_workloads::{AppSpec, AppTrace};

/// What an ablation changes about a cell beyond its application, size,
/// seed and configuration. The default variant runs the configuration as
/// named on the Table 1 machine, so default cells are the sweep's cells.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Variant {
    /// The one algorithm setting the ablation overrides, if any.
    pub knob: Option<Knob>,
    /// The machine the cell's barrier runs on.
    pub substrate: Substrate,
    /// Replace the barrier's sleep decisions with §3.4.1 spin-then-yield.
    pub time_sharing: Option<TimeSharing>,
    /// Inject the §3.4.2 preemptions into the trace ([`PREEMPTIONS`]).
    pub disturbed: bool,
}

/// The machine a cell runs on. Every substrate runs the same
/// [`tb_core::BarrierAlgorithm`] and reports a [`RunReport`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Substrate {
    /// The Table 1 CC-NUMA directory machine.
    #[default]
    Directory,
    /// A snooping-bus SMP ([`MachineConfig::bus_smp`]).
    Bus,
    /// A message-passing cluster ([`ClusterConfig::default_cluster`]) run by
    /// [`MsgSimulator`]. It takes no fault plan, time-sharing or oracle.
    Cluster,
}

/// One algorithm setting an ablation overrides.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Knob {
    /// The §3.3.3 overprediction cut-off as a fraction of BIT (`None`
    /// disables it).
    Cutoff(Option<f64>),
    /// The wake-up mechanism (§3.3).
    Wakeup(WakeupMode),
    /// The BIT predictor (§3.2).
    Predictor(PredictorChoice),
    /// The internal timer's anticipation margin (§3.3.2).
    Anticipation(Cycles),
    /// The §3.4.2 underprediction filter factor (`None` disables it).
    Underprediction(Option<f64>),
}

impl Knob {
    fn apply(self, algo: &mut AlgorithmConfig) {
        match self {
            Knob::Cutoff(threshold) => algo.overprediction_threshold = threshold,
            Knob::Wakeup(mode) => algo.wakeup = mode,
            Knob::Predictor(predictor) => algo.predictor = predictor,
            Knob::Anticipation(margin) => algo.wakeup_anticipation = margin,
            Knob::Underprediction(factor) => algo.underprediction_factor = factor,
        }
    }
}

/// The §3.4.2 preemptions a disturbed cell's trace carries, as (seed salt,
/// per-episode probability, delay) for [`AppTrace::with_disturbance`]: in
/// 10 % of episodes one thread loses 100 ms, an OS scheduling quantum
/// against ~10 ms barrier intervals, drawn from the cell seed xor the salt.
pub const PREEMPTIONS: (u64, f64, Cycles) = (0xD157, 0.10, Cycles::from_millis(100));

/// One cell of the experiment matrix.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The application to simulate.
    pub app: AppSpec,
    /// Machine size (power of two in `2..=64`).
    pub nodes: u16,
    /// Workload seed.
    pub seed: u64,
    /// The barrier system configuration.
    pub config: SystemConfig,
    /// Fault plan injected into this cell's simulation (`None`, or a
    /// disabled plan, runs the clean simulator path).
    pub faults: Option<FaultPlan>,
    /// What an ablation changes about the cell (default: nothing).
    pub variant: Variant,
}

impl Cell {
    /// Creates a fault-free cell.
    pub fn new(app: AppSpec, nodes: u16, seed: u64, config: SystemConfig) -> Self {
        Cell {
            app,
            nodes,
            seed,
            config,
            faults: None,
            variant: Variant::default(),
        }
    }

    /// Attaches a fault plan to the cell.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the cell's variant.
    pub fn with_variant(mut self, variant: Variant) -> Self {
        self.variant = variant;
        self
    }

    /// Whether the cell is the plain Baseline run of its trace and
    /// substrate (no knob, no time-sharing): the run the harness caches
    /// and other cells are normalized against.
    pub fn is_plain_baseline(&self) -> bool {
        self.config == SystemConfig::Baseline
            && self.variant.knob.is_none()
            && self.variant.time_sharing.is_none()
    }

    /// The algorithm configuration the cell runs: its configuration's,
    /// with the variant's knob applied.
    fn algorithm_config(&self) -> AlgorithmConfig {
        let mut algo = self.config.algorithm_config();
        if let Some(knob) = self.variant.knob {
            knob.apply(&mut algo);
        }
        algo
    }

    /// The fault-free cells of an `apps × configs × seeds` matrix,
    /// app-major, then config, then seed — the layout
    /// [`Harness::run_matrix`] runs and [`AppMatrix::from_flat_reports`]
    /// reshapes.
    pub fn matrix(
        apps: &[AppSpec],
        configs: &[SystemConfig],
        nodes: u16,
        seeds: &[u64],
    ) -> Vec<Cell> {
        apps.iter()
            .flat_map(|app| {
                configs.iter().flat_map(move |&config| {
                    seeds
                        .iter()
                        .map(move |&seed| Cell::new(app.clone(), nodes, seed, config))
                })
            })
            .collect()
    }
}

/// Checks that every (app, nodes, seed) of `cells` can reach its Table 2
/// imbalance (see [`tb_workloads::calibrate::check_reachable`]), so a
/// caller can refuse an unreachable target before any cell runs, whatever
/// executor then runs them. Each distinct triple is checked once, and the
/// error is the first unreachable one in cell order.
pub fn check_reachable(cells: &[Cell]) -> Result<(), Unreachable> {
    let mut checked = std::collections::HashSet::new();
    for cell in cells {
        if checked.insert((cell.app.name.as_str(), cell.nodes, cell.seed)) {
            calibrate::check_reachable(&cell.app, cell.nodes as usize, cell.seed)?;
        }
    }
    Ok(())
}

/// The result of one supervised cell: the report (or the typed error that
/// ended the final attempt) together with its injected-fault/recovery
/// tallies and the errors of every failed earlier attempt.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// The run report, or the error of the last attempt.
    pub report: Result<RunReport, CellError>,
    /// Fault-injection and recovery tallies for the cell (all zero for
    /// fault-free or failed cells).
    pub faults: FaultSummary,
    /// The error of each failed attempt that was retried, oldest first.
    /// Empty when the first attempt succeeded or the policy allowed no
    /// retries.
    pub retries: Vec<CellError>,
    /// How many times the cell's lease was revoked from a dead worker and
    /// the cell requeued (`tb-serve` fleets only; always zero for
    /// in-process runs). Reassignments are worker deaths, not cell
    /// failures, so they are tracked separately from `retries`.
    pub reassigned: u32,
    /// The cell's own trace events, sorted by `(timestamp, thread)`, when
    /// its harness records ([`Harness::with_record`]); empty otherwise.
    /// They never reach the journal or a worker's reply.
    pub events: Vec<TraceEvent>,
}

impl CellOutcome {
    /// Whether the cell failed to produce a report after all attempts.
    pub fn is_failed(&self) -> bool {
        self.report.is_err()
    }

    /// How many times the cell was attempted (1 = no retries).
    pub fn attempts(&self) -> u32 {
        self.retries.len() as u32 + 1
    }
}

/// How a [`Harness`] handles misbehaving cells (see
/// [`Harness::with_policy`]).
#[derive(Debug, Clone, Default)]
pub struct SupervisionPolicy {
    /// How many times a transiently failed cell (panic, timeout) is re-run
    /// before its error becomes final. `0` (the default) fails fast.
    pub retries: u32,
    /// Per-attempt wall-clock deadline. `None` (the default) waits
    /// indefinitely; `Some` makes the simulator stop an attempt that
    /// overruns and record [`CellError::Timeout`].
    pub timeout: Option<Duration>,
    /// Where [`TraceEventKind::CellRetry`] events are emitted. Disabled by
    /// default.
    pub trace: SinkHandle,
}

/// The deterministic backoff slept before retry number `attempt`
/// (1-based): 50 ms doubling per attempt, capped at 2 s, scaled by a
/// jitter factor in `[0.5, 1.0)` drawn from the cell seed's dedicated
/// `"retry-backoff"` RNG stream — reproducible across runs, decorrelated
/// across cells.
pub fn retry_backoff(seed: u64, attempt: u32) -> Duration {
    const BASE_MS: u64 = 50;
    const CAP_MS: u64 = 2_000;
    let shift = attempt.saturating_sub(1).min(6);
    let nominal = (BASE_MS << shift).min(CAP_MS);
    let mut rng = SimRng::new(seed).derive("retry-backoff", attempt as u64);
    let jitter = 0.5 + 0.5 * rng.uniform();
    Duration::from_millis((nominal as f64 * jitter).round() as u64)
}

/// Renders a `catch_unwind` payload as the human-readable panic message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic".to_string()
    }
}

/// Runs `trace` under `algo` on `substrate`, where `cfg` is the paper
/// machine of the cell's size with the cell's fault plan, time-sharing and
/// sink: the harness's one dispatch on the substrate.
///
/// # Panics
///
/// Panics if a cluster cell asks for a fault plan, time-sharing or an
/// oracle, which the message-passing simulator does not model.
fn simulate_on(
    substrate: Substrate,
    mut cfg: SimulatorConfig,
    trace: &AppTrace,
    algo: AlgorithmConfig,
    oracle: Option<RecordedBitOracle>,
    deadline: Option<Deadline>,
) -> Result<(RunReport, FaultSummary), CellError> {
    let nodes = cfg.machine.nodes;
    match substrate {
        Substrate::Directory => {}
        Substrate::Bus => cfg.machine = MachineConfig::bus_smp(nodes),
        Substrate::Cluster => {
            assert!(
                cfg.faults.is_none() && cfg.time_sharing.is_none() && oracle.is_none(),
                "a cluster cell runs no fault plan, time-sharing or oracle"
            );
            let cluster = ClusterConfig::default_cluster(nodes);
            let sim = MsgSimulator::new(cluster, trace.clone(), cfg.config_name, algo, cfg.trace);
            return Ok((sim.run(deadline)?, FaultSummary::default()));
        }
    }
    try_simulate_faulted(cfg, trace, algo, oracle, deadline)
}

/// The Baseline run of one (app, nodes, seed) triple together with the
/// oracle table derived from it — the shared input of the Baseline,
/// Oracle-Halt, and Ideal cells.
#[derive(Debug)]
pub struct BaselineBundle {
    /// The Baseline run report.
    pub report: RunReport,
    /// Perfect BIT prediction recorded from that run.
    pub oracle: RecordedBitOracle,
}

/// Trace cache key: everything a trace depends on — (app name, nodes,
/// seed, disturbed). App specs are identified by name:
/// [`AppSpec::splash2`] names are unique, and callers mixing custom specs
/// under one name would already be ambiguous everywhere else.
type TraceKey = (String, u16, u64, bool);

/// Baseline cache key: the trace it runs and the substrate it runs on.
type BaselineKey = (TraceKey, Substrate);

/// One cache entry: empty until a fill succeeds.
type Slot<T> = Mutex<Option<Arc<T>>>;

/// A content-keyed cache that fills each key at most once *successfully*.
/// Each key holds its own slot lock: the first looker-up computes while
/// concurrent ones for the same key wait, and later ones hit. A fill that
/// fails (or panics) leaves the slot empty, so the next lookup recomputes.
struct Cache<K, T> {
    slots: Mutex<HashMap<K, Arc<Slot<T>>>>,
    hits: AtomicU64,
    computes: AtomicU64,
}

impl<K, T> Default for Cache<K, T> {
    fn default() -> Self {
        Cache {
            slots: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            computes: AtomicU64::new(0),
        }
    }
}

impl<K: Eq + Hash, T> Cache<K, T> {
    fn get_or_try_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<T, E>,
    ) -> Result<Arc<T>, E> {
        // A panicking fill poisons its lock, but never leaves a half-written
        // value behind (the slot is only assigned after `compute` returns),
        // so recover the guard instead of cascading the panic.
        let slot = {
            let mut map = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
            Arc::clone(map.entry(key).or_default())
        };
        // The map lock is released before computing, so a slow fill never
        // blocks lookups of other keys; the slot lock serializes fills of
        // the *same* key, which is exactly the exactly-once guarantee.
        let mut slot = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(value) = slot.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(value));
        }
        let value = Arc::new(compute()?);
        self.computes.fetch_add(1, Ordering::Relaxed);
        *slot = Some(Arc::clone(&value));
        Ok(value)
    }

    fn computes(&self) -> u64 {
        self.computes.load(Ordering::Relaxed)
    }

    fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

/// Parallel experiment runner with shared trace and Baseline/oracle caches.
///
/// The caches live for the lifetime of the harness, so sequential calls
/// (`run` then `trace`, or repeated sweeps) keep amortizing the same
/// Baseline recordings — build one harness per process, not per call.
///
/// # Examples
///
/// ```
/// use tb_core::SystemConfig;
/// use tb_machine::harness::{Cell, Harness};
/// use tb_workloads::AppSpec;
///
/// let app = AppSpec::by_name("FMM").unwrap();
/// let harness = Harness::new(2);
/// let cells: Vec<Cell> = SystemConfig::ALL
///     .into_iter()
///     .map(|c| Cell::new(app.clone(), 16, 1, c))
///     .collect();
/// let outcomes = harness.run_cells_isolated(&cells);
/// assert_eq!(outcomes.len(), 5);
/// // All five configurations shared one trace and one Baseline run.
/// assert_eq!(harness.trace_generations(), 1);
/// assert_eq!(harness.baseline_runs(), 1);
/// let energy = |i: usize| outcomes[i].report.as_ref().unwrap().total_energy();
/// assert!(energy(3) < energy(0));
/// ```
pub struct Harness {
    jobs: usize,
    policy: SupervisionPolicy,
    record: Option<usize>,
    traces: Cache<TraceKey, AppTrace>,
    baselines: Cache<BaselineKey, BaselineBundle>,
}

impl std::fmt::Debug for Harness {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Harness")
            .field("jobs", &self.jobs)
            .field("policy", &self.policy)
            .field("record", &self.record)
            .field("trace_generations", &self.trace_generations())
            .field("baseline_runs", &self.baseline_runs())
            .field("cache_hits", &self.cache_hits())
            .finish()
    }
}

impl Harness {
    /// Creates a harness running up to `jobs` cells concurrently; `0`
    /// means one worker per available hardware thread. Cells run under the
    /// default [`SupervisionPolicy`]: no retries, no deadline.
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            jobs
        };
        Harness {
            jobs,
            policy: SupervisionPolicy::default(),
            record: None,
            traces: Cache::default(),
            baselines: Cache::default(),
        }
    }

    /// A single-worker harness: runs cells one at a time in caller order,
    /// still with the shared caches.
    pub fn serial() -> Self {
        Harness::new(1)
    }

    /// Sets the policy every cell of this harness runs under.
    pub fn with_policy(mut self, policy: SupervisionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Records each cell's own simulation — never the Baseline run behind
    /// its oracle — into per-thread rings of `Some(capacity)` events that
    /// drop their oldest on overflow ([`CellOutcome::events`], summarized
    /// in the report's `trace`). A recorded Baseline cell skips the cache.
    pub fn with_record(mut self, record: Option<usize>) -> Self {
        self.record = record;
        self
    }

    /// The interned trace of (app, nodes, seed), generating it on first
    /// use. Generation is never interrupted by a deadline.
    ///
    /// # Panics
    ///
    /// Panics if the app's Table 2 imbalance is [`Unreachable`] on `nodes`
    /// threads ([`check_reachable`] refuses such cells up front).
    pub fn trace(&self, app: &AppSpec, nodes: u16, seed: u64) -> Arc<AppTrace> {
        self.cell_trace(app, nodes, seed, false)
    }

    /// [`Harness::trace`], with [`PREEMPTIONS`] injected if `disturbed`: a
    /// disturbed trace is derived from the clean one once and cached under
    /// its own key. In a
    /// cell, the panic on an unreachable target becomes a
    /// [`CellError::Panic`].
    fn cell_trace(&self, app: &AppSpec, nodes: u16, seed: u64, disturbed: bool) -> Arc<AppTrace> {
        let (salt, prob, delay) = PREEMPTIONS;
        let generate = || match disturbed {
            false => app.try_generate(nodes as usize, seed),
            true => Ok(self
                .trace(app, nodes, seed)
                .with_disturbance(seed ^ salt, prob, delay)),
        };
        self.traces
            .get_or_try_compute((app.name.clone(), nodes, seed, disturbed), generate)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The interned Baseline run (and derived oracle) of (app, nodes,
    /// seed) on the directory machine, simulating it on first use without
    /// a deadline.
    ///
    /// # Panics
    ///
    /// Panics if the Baseline simulation livelocks.
    pub fn baseline(&self, app: &AppSpec, nodes: u16, seed: u64) -> Arc<BaselineBundle> {
        self.try_baseline(app, nodes, seed, &Variant::default(), None)
            .unwrap_or_else(|e| panic!("Baseline simulation failed: {e}"))
    }

    /// The one place the harness runs Baseline, so each trace and
    /// substrate runs it exactly once — unless an attempt fails (a
    /// `deadline` expires), which leaves the cache empty for the next one.
    /// Of the variant, only the disturbed trace and the substrate matter.
    fn try_baseline(
        &self,
        app: &AppSpec,
        nodes: u16,
        seed: u64,
        variant: &Variant,
        deadline: Option<Deadline>,
    ) -> Result<Arc<BaselineBundle>, CellError> {
        let trace = self.cell_trace(app, nodes, seed, variant.disturbed);
        let key = (
            (app.name.clone(), nodes, seed, variant.disturbed),
            variant.substrate,
        );
        self.baselines.get_or_try_compute(key, || {
            let cfg = SimulatorConfig::paper_with_nodes(SystemConfig::Baseline.name(), nodes);
            let algo = SystemConfig::Baseline.algorithm_config();
            let (report, _) = simulate_on(variant.substrate, cfg, &trace, algo, None, deadline)?;
            let oracle = oracle_from_baseline(&report);
            Ok(BaselineBundle { report, oracle })
        })
    }

    /// Runs one attempt of a cell under the harness policy's deadline,
    /// reusing the cached trace and (for Baseline and cells predicting
    /// from an oracle) the cached Baseline run of the cell's trace and
    /// substrate. Panics are caught, so every way the attempt can fail
    /// comes back as a [`CellError`].
    ///
    /// A cell whose plan is absent or disabled takes exactly the clean
    /// path (including the shared-Baseline cache shortcut) and reports an
    /// all-zero [`FaultSummary`]. A faulted cell never reads from or
    /// writes to the Baseline cache — cached bundles are fault-free by
    /// definition — though it still shares the trace cache and, for oracle
    /// configurations, consumes the clean Baseline's oracle (the oracle
    /// models *prediction* knowledge, not fault knowledge).
    pub fn try_run_cell_faulted(
        &self,
        cell: &Cell,
    ) -> Result<(RunReport, FaultSummary), CellError> {
        self.try_attempt(cell, SinkHandle::disabled())
    }

    /// [`Harness::try_run_cell_faulted`], emitting the cell's own events
    /// into `trace`; a traced cell never reads the Baseline cache.
    fn try_attempt(
        &self,
        cell: &Cell,
        trace: SinkHandle,
    ) -> Result<(RunReport, FaultSummary), CellError> {
        let deadline = self.policy.timeout.map(Deadline::after);
        let attempt = || {
            let plan = cell.faults.clone().filter(FaultPlan::enabled);
            let v = &cell.variant;
            let baseline = || self.try_baseline(&cell.app, cell.nodes, cell.seed, v, deadline);
            if plan.is_none() && cell.is_plain_baseline() && !trace.is_enabled() {
                return Ok((baseline()?.report.clone(), FaultSummary::default()));
            }
            let mut algo = cell.algorithm_config();
            let oracle = if algo.needs_oracle() {
                Some(baseline()?.oracle.clone())
            } else {
                None
            };
            let app_trace = self.cell_trace(&cell.app, cell.nodes, cell.seed, v.disturbed);
            let mut cfg = SimulatorConfig::paper_with_nodes(cell.config.name(), cell.nodes);
            if plan.is_some() {
                // Under injected faults the predictor needs its misprediction
                // backstop; quarantine is part of the hardened configuration.
                algo = algo.with_quarantine(true);
            }
            cfg.faults = plan;
            cfg.time_sharing = v.time_sharing;
            cfg.trace = trace;
            simulate_on(v.substrate, cfg, &app_trace, algo, oracle, deadline)
        };
        catch_unwind(AssertUnwindSafe(attempt))
            .unwrap_or_else(|payload| Err(CellError::Panic(panic_message(payload))))
    }

    /// One cell's attempts under the policy: transient failures are
    /// retried inline after their backoff, until one succeeds or the
    /// budget runs out. A recording harness gives each attempt a fresh
    /// sink and keeps the events of the one that succeeds.
    fn run_supervised(&self, index: usize, cell: &Cell) -> CellOutcome {
        let mut retries = Vec::new();
        let mut events = Vec::new();
        let (report, faults) = loop {
            let sink = (self.record).map(|cap| Arc::new(MemorySink::new(cell.nodes as usize, cap)));
            let trace = sink
                .clone()
                .map_or_else(SinkHandle::disabled, |s| SinkHandle::new(s));
            match self.try_attempt(cell, trace) {
                Ok((mut report, faults)) => {
                    if let Some(sink) = sink {
                        events = sink.drain_sorted();
                        report.trace = Some(TraceSummary::from_events(&events, sink.dropped()));
                    }
                    break (Ok(report), faults);
                }
                Err(err) if err.is_transient() && (retries.len() as u32) < self.policy.retries => {
                    let timed_out = matches!(err, CellError::Timeout { .. });
                    retries.push(err);
                    let attempt = retries.len() as u32;
                    let retry = TraceEventKind::CellRetry {
                        episode: index as u64,
                        pc: 0,
                        attempt,
                        timed_out,
                    };
                    self.policy
                        .trace
                        .emit(TraceEvent::new(Cycles::ZERO, index, retry));
                    std::thread::sleep(retry_backoff(cell.seed, attempt));
                }
                Err(err) => break (Err(err), FaultSummary::default()),
            }
        };
        CellOutcome {
            report,
            faults,
            retries,
            reassigned: 0,
            events,
        }
    }

    /// Runs every cell with per-cell panic isolation and returns the
    /// outcomes **in `cells` order**, regardless of completion order.
    pub fn run_cells_isolated(&self, cells: &[Cell]) -> Vec<CellOutcome> {
        self.run_cells_with(cells, |_, _| {})
    }

    /// The harness's one executor: a scoped pool of `jobs` workers — the
    /// calling thread plus `jobs - 1` helpers, so a serial harness spawns
    /// no thread at all. Each worker pulls the next unclaimed index from a
    /// shared counter (cheap work stealing: a long cell never blocks the
    /// queue behind it) and runs that cell with its retries. `on_complete`
    /// is called on the calling thread with each cell's index and final
    /// outcome as soon as that thread is between cells — the checkpointing
    /// hook a sweep journal uses to persist every completed cell without
    /// waiting for the whole batch. Completion order is nondeterministic;
    /// the returned vector is always in `cells` order, so output rendered
    /// from it is identical at every `jobs` level.
    pub fn run_cells_with(
        &self,
        cells: &[Cell],
        mut on_complete: impl FnMut(usize, &CellOutcome),
    ) -> Vec<CellOutcome> {
        let next = AtomicUsize::new(0);
        let claim = || {
            let i = next.fetch_add(1, Ordering::Relaxed);
            cells.get(i).map(|cell| (i, cell))
        };
        let mut slots: Vec<Option<CellOutcome>> = cells.iter().map(|_| None).collect();
        let mut finish = |i: usize, outcome: CellOutcome| {
            on_complete(i, &outcome);
            slots[i] = Some(outcome);
        };
        std::thread::scope(|scope| {
            let (tx, rx) = mpsc::channel();
            for _ in 1..self.jobs.min(cells.len()) {
                let tx = tx.clone();
                scope.spawn(move || {
                    while let Some((i, cell)) = claim() {
                        if tx.send((i, self.run_supervised(i, cell))).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            while let Some((i, cell)) = claim() {
                finish(i, self.run_supervised(i, cell));
                rx.try_iter().for_each(|(i, outcome)| finish(i, outcome));
            }
            rx.iter().for_each(|(i, outcome)| finish(i, outcome));
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("worker filled every slot"))
            .collect()
    }

    /// Runs the full `apps × configs × seeds` matrix and reshapes the
    /// reports per application (see [`AppMatrix`]). Cells are flattened
    /// as [`Cell::matrix`] lays them out, and the whole flat list is
    /// scheduled at once so parallelism spans applications. Fails with the
    /// error of the first cell (in cell order) that failed.
    pub fn run_matrix(
        &self,
        apps: &[AppSpec],
        configs: &[SystemConfig],
        nodes: u16,
        seeds: &[u64],
    ) -> Result<Vec<AppMatrix>, CellError> {
        let reports = self
            .run_cells_isolated(&Cell::matrix(apps, configs, nodes, seeds))
            .into_iter()
            .map(|outcome| outcome.report)
            .collect::<Result<_, _>>()?;
        Ok(AppMatrix::from_flat_reports(apps, configs, seeds, reports))
    }

    /// Traces generated so far (one per distinct (app, nodes, seed)).
    pub fn trace_generations(&self) -> u64 {
        self.traces.computes()
    }

    /// Baseline simulations completed so far (one per distinct triple —
    /// the exactly-once guarantee the caches exist for). Attempts stopped
    /// by a deadline do not count.
    pub fn baseline_runs(&self) -> u64 {
        self.baselines.computes()
    }

    /// Lookups served from a cache instead of recomputed, across both
    /// caches.
    pub fn cache_hits(&self) -> u64 {
        self.traces.hits() + self.baselines.hits()
    }
}

/// One application's slice of a [`Harness::run_matrix`] result.
#[derive(Debug, Clone)]
pub struct AppMatrix {
    /// The application.
    pub app: AppSpec,
    /// Configuration order of the `reports` rows.
    pub configs: Vec<SystemConfig>,
    /// Seed order of the `reports` columns.
    pub seeds: Vec<u64>,
    /// `reports[config][seed]`, in the order of `configs` and `seeds`.
    pub reports: Vec<Vec<RunReport>>,
}

impl AppMatrix {
    /// Reshapes reports laid out as [`Cell::matrix`] orders its cells
    /// (app-major, then config, then seed) into one matrix per
    /// application.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one report per matrix cell.
    pub fn from_flat_reports(
        apps: &[AppSpec],
        configs: &[SystemConfig],
        seeds: &[u64],
        reports: Vec<RunReport>,
    ) -> Vec<AppMatrix> {
        assert_eq!(
            reports.len(),
            apps.len() * configs.len() * seeds.len(),
            "one report per matrix cell"
        );
        let mut reports = reports.into_iter();
        apps.iter()
            .map(|app| AppMatrix {
                app: app.clone(),
                configs: configs.to_vec(),
                seeds: seeds.to_vec(),
                reports: configs
                    .iter()
                    .map(|_| (&mut reports).take(seeds.len()).collect())
                    .collect(),
            })
            .collect()
    }

    /// Mean/σ aggregation of every configuration across seeds, in the
    /// matrix's configuration order: [`aggregate`](crate::report::aggregate)'s
    /// pairing, so each seed's sample is normalized to the *same seed's*
    /// Baseline run.
    ///
    /// # Panics
    ///
    /// Panics if the matrix does not include Baseline (nothing to
    /// normalize against).
    pub fn aggregates(&self) -> Vec<AggregateReport> {
        let nodes = self.reports[0][0].threads as u16;
        let cells = Cell::matrix(
            std::slice::from_ref(&self.app),
            &self.configs,
            nodes,
            &self.seeds,
        );
        let clean = FaultSummary::default();
        let views: Vec<View> = self
            .reports
            .iter()
            .flatten()
            .map(|r| (Ok(r), &clean, 0))
            .collect();
        pair_with_baselines(&cells, &views)
    }

    /// The reports flattened config-major, then seed: this application's
    /// slice of the [`Cell::matrix`] layout.
    pub fn into_flat_reports(self) -> Vec<RunReport> {
        self.reports.into_iter().flatten().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use tb_trace::MemorySink;

    fn app() -> AppSpec {
        AppSpec::by_name("FMM").unwrap()
    }

    fn run(harness: &Harness, cell: &Cell) -> (RunReport, FaultSummary) {
        harness.try_run_cell_faulted(cell).expect("cell runs")
    }

    #[test]
    fn check_reachable_reports_the_first_unreachable_target() {
        // At two threads Volrend's 48.2% imbalance is out of reach, while
        // FMM's is not.
        let volrend = AppSpec::by_name("Volrend").unwrap();
        let cells: Vec<Cell> = [app(), volrend.clone(), volrend, app()]
            .into_iter()
            .zip([3, 3, 4, 3])
            .map(|(a, seed)| Cell::new(a, 2, seed, SystemConfig::Baseline))
            .collect();
        let err = check_reachable(&cells).unwrap_err();
        assert_eq!((err.app.as_str(), err.threads, err.seed), ("Volrend", 2, 3));
        assert!(err.max < err.target);
        check_reachable(&cells[..1]).unwrap();
    }

    #[test]
    fn faulted_cells_bypass_the_baseline_cache() {
        let harness = Harness::serial();
        let plan = FaultPlan::by_name("storm", 9).unwrap();
        let cell = Cell::new(app(), 8, 1, SystemConfig::Baseline).with_faults(plan);
        let (faulted, summary) = run(&harness, &cell);
        assert!(summary.injected() > 0, "storm plan injects faults");
        assert_eq!(
            harness.baseline_runs(),
            0,
            "a faulted Baseline cell must not populate the fault-free cache"
        );
        // The clean cell afterwards runs (and caches) the real Baseline,
        // and differs from the faulted run.
        let clean = run(&harness, &Cell::new(app(), 8, 1, SystemConfig::Baseline)).0;
        assert_eq!(harness.baseline_runs(), 1);
        assert!(faulted.wall_time >= clean.wall_time);
    }

    #[test]
    fn disabled_plan_takes_the_clean_cached_path() {
        let harness = Harness::serial();
        let clean = run(&harness, &Cell::new(app(), 8, 1, SystemConfig::Baseline)).0;
        let cell = Cell::new(app(), 8, 1, SystemConfig::Baseline).with_faults(FaultPlan::none());
        let (report, summary) = run(&harness, &cell);
        assert_eq!(summary, FaultSummary::default());
        assert_eq!(report.wall_time, clean.wall_time);
        assert_eq!(
            harness.baseline_runs(),
            1,
            "the disabled-plan cell is served from the cache"
        );
    }

    #[test]
    fn panicking_cell_is_isolated_and_reported() {
        let harness = Harness::new(2);
        // nodes = 3 is rejected deep inside the machine model (the
        // hypercube needs a power of two) — an organic panic.
        let cells = vec![
            Cell::new(app(), 8, 1, SystemConfig::Thrifty),
            Cell::new(app(), 3, 1, SystemConfig::Thrifty),
            Cell::new(app(), 8, 2, SystemConfig::Thrifty),
        ];
        let outcomes = harness.run_cells_isolated(&cells);
        assert_eq!(outcomes.len(), 3);
        assert!(outcomes[0].report.is_ok());
        assert!(outcomes[2].report.is_ok());
        assert!(outcomes[1].is_failed());
        let err = outcomes[1].report.as_ref().unwrap_err();
        let CellError::Panic(msg) = err else {
            panic!("expected a panic error, got {err}");
        };
        assert!(msg.contains("power of two"), "panic message kept: {msg}");
        assert_eq!(err.kind(), "panic");
        assert!(err.is_transient());
        // The typed error round-trips through the journal encoding.
        let back: CellError = serde::json::from_str(&serde::json::to_string(err)).unwrap();
        assert_eq!(&back, err);
        // The caches survive the panic: later cells still run normally.
        let after = run(&harness, &Cell::new(app(), 8, 1, SystemConfig::Baseline)).0;
        assert_eq!(after.config, "Baseline");
    }

    #[test]
    fn isolated_and_plain_runs_agree() {
        let harness = Harness::new(2);
        let cells: Vec<Cell> = SystemConfig::ALL
            .into_iter()
            .map(|c| Cell::new(app(), 8, 1, c))
            .collect();
        let outcomes = harness.run_cells_isolated(&cells);
        for (outcome, cell) in outcomes.iter().zip(&cells) {
            let ours = outcome.report.as_ref().unwrap();
            assert_eq!(ours.wall_time, run(&harness, cell).0.wall_time);
            assert_eq!(outcome.faults, FaultSummary::default());
            assert_eq!(outcome.attempts(), 1);
        }
    }

    #[test]
    fn retry_history_records_each_attempt() {
        let sink = Arc::new(MemorySink::new(1, 16));
        let policy = SupervisionPolicy {
            retries: 2,
            trace: SinkHandle::new(sink.clone()),
            ..SupervisionPolicy::default()
        };
        let harness = Harness::serial().with_policy(policy);
        // Deterministic panic: every retry fails the same way, exhausting
        // the budget.
        let cells = vec![Cell::new(app(), 3, 1, SystemConfig::Thrifty)];
        let outcomes = harness.run_cells_isolated(&cells);
        assert_eq!(outcomes.len(), 1);
        assert!(outcomes[0].is_failed());
        assert_eq!(outcomes[0].attempts(), 3, "1 attempt + 2 retries");
        assert_eq!(outcomes[0].retries.len(), 2);
        for err in &outcomes[0].retries {
            assert!(matches!(err, CellError::Panic(_)));
        }
        let events = sink.drain_sorted();
        let attempts: Vec<u32> = events
            .iter()
            .filter_map(|e| match e.kind {
                TraceEventKind::CellRetry {
                    attempt, timed_out, ..
                } => {
                    assert!(!timed_out, "panics are not timeouts");
                    Some(attempt)
                }
                _ => None,
            })
            .collect();
        assert_eq!(attempts, vec![1, 2]);
    }

    fn deadline_policy(ms: u64) -> SupervisionPolicy {
        SupervisionPolicy {
            timeout: Some(Duration::from_millis(ms)),
            ..SupervisionPolicy::default()
        }
    }

    #[test]
    fn deadline_times_out_stuck_cells() {
        // Ocean at 64 nodes takes far longer than 1 ms: the simulator
        // notices the expired deadline and stops the attempt.
        let harness = Harness::new(2).with_policy(deadline_policy(1));
        let cells = vec![Cell::new(
            AppSpec::by_name("Ocean").unwrap(),
            64,
            1,
            SystemConfig::Baseline,
        )];
        let outcomes = harness.run_cells_isolated(&cells);
        assert_eq!(outcomes.len(), 1);
        let err = outcomes[0].report.as_ref().unwrap_err();
        assert_eq!(err, &CellError::Timeout { limit_ms: 1 });
        assert!(err.is_transient());
        assert_eq!(format!("{err}"), "timeout after 1 ms");
    }

    #[test]
    fn deadline_completes_fast_cells_and_retries_slow_ones() {
        let policy = SupervisionPolicy {
            retries: 1,
            ..deadline_policy(1)
        };
        let harness = Harness::new(2).with_policy(policy);
        let cells = vec![Cell::new(
            AppSpec::by_name("Ocean").unwrap(),
            64,
            2,
            SystemConfig::Baseline,
        )];
        let outcomes = harness.run_cells_isolated(&cells);
        assert_eq!(outcomes[0].attempts(), 2, "one timeout retry was burned");
        assert_eq!(
            outcomes[0].retries,
            vec![CellError::Timeout { limit_ms: 1 }]
        );
        assert!(outcomes[0].is_failed(), "the retry times out as well");

        // A roomy deadline lets a normal matrix complete with no retries,
        // identical to the plain path.
        let roomy = Harness::new(2).with_policy(deadline_policy(600_000));
        let cells: Vec<Cell> = SystemConfig::ALL
            .into_iter()
            .map(|c| Cell::new(app(), 8, 1, c))
            .collect();
        let supervised = roomy.run_cells_isolated(&cells);
        let plain = Harness::new(2);
        for (outcome, cell) in supervised.iter().zip(&cells) {
            assert_eq!(outcome.attempts(), 1);
            let report = outcome.report.as_ref().unwrap();
            assert_eq!(report.wall_time, run(&plain, cell).0.wall_time);
        }
    }

    #[test]
    fn timed_out_attempt_stops_and_leaves_the_baseline_uncached() {
        let ocean = AppSpec::by_name("Ocean").unwrap();
        let start = std::time::Instant::now();
        Harness::serial().baseline(&ocean, 64, 1);
        let untimed = start.elapsed();

        let harness = Harness::serial().with_policy(deadline_policy(1));
        let cells = vec![Cell::new(ocean.clone(), 64, 1, SystemConfig::Baseline)];
        let outcomes = harness.run_cells_isolated(&cells);
        assert_eq!(
            outcomes[0].report.as_ref().unwrap_err(),
            &CellError::Timeout { limit_ms: 1 }
        );
        // An attempt still running in the background would have finished
        // its Baseline fill well within twice the untimed run time.
        std::thread::sleep(2 * untimed);
        assert_eq!(
            harness.baseline_runs(),
            0,
            "the timed-out fill stopped and left its key empty"
        );
        harness.baseline(&ocean, 64, 1);
        harness.baseline(&ocean, 64, 1);
        assert_eq!(
            harness.baseline_runs(),
            1,
            "the next fill runs exactly once"
        );
    }

    #[test]
    fn recorded_trace_agrees_with_event_counters() {
        let app = AppSpec::by_name("Ocean").unwrap();
        let directory = Cell::new(app, 16, crate::run::PAPER_SEED, SystemConfig::Thrifty);
        let cluster = directory.clone().with_variant(Variant {
            substrate: Substrate::Cluster,
            ..Variant::default()
        });
        for cell in [directory, cluster] {
            let substrate = cell.variant.substrate;
            let outcome = Harness::serial()
                .with_record(Some(1 << 16))
                .run_cells_isolated(&[cell])
                .remove(0);
            let report = outcome.report.as_ref().unwrap();
            let summary = report.trace.as_ref().unwrap();
            assert_eq!(
                summary.dropped, 0,
                "{substrate:?}: capacity should be ample"
            );
            assert_eq!(summary.events as usize, outcome.events.len());

            // Every physical counter in BarrierEventCounts must be visible
            // as the same number of trace events.
            let c = &report.counts;
            let k = &summary.counts;
            let pairs = [
                ("releases", k.releases, c.episodes),
                ("arrivals", k.arrivals, c.early_arrivals),
                ("last arrivals", k.last_arrivals, c.episodes),
                ("spin starts", k.spin_starts, c.spins),
                ("sleep starts", k.sleep_starts, c.total_sleeps()),
                ("flushes", k.flushes, c.flushes),
                ("internal wakes", k.internal_wakes, c.internal_wakeups),
                ("external wakes", k.external_wakes, c.external_wakeups),
                ("residual spins", k.residual_spins, c.early_wakeups),
                ("cut-off trips", k.cutoff_disables, c.cutoff_disables),
                (
                    "skipped updates",
                    k.releases_update_skipped,
                    c.updates_skipped,
                ),
                // Every thread departs every episode.
                ("departs", k.departs, c.episodes * 16),
            ];
            for (what, events, counter) in pairs {
                assert_eq!(events, counter, "{substrate:?}: {what}");
            }

            // The §3.4.2 accuracy report derives the same skip count from
            // the semantic stream alone.
            let acc = tb_trace::PredictionAccuracyReport::from_events(&outcome.events);
            assert_eq!(acc.skipped_updates, c.updates_skipped, "{substrate:?}");
            assert_eq!(acc.unmatched_predictions, 0, "{substrate:?}");
            assert!(acc.total_predictions() > 0, "{substrate:?}");

            // Something actually slept, so the latency histogram has
            // sleeper samples.
            assert!(summary.wake_latency.samples > 0, "{substrate:?}");
        }
    }

    #[test]
    fn recording_covers_each_cells_own_simulation_only() {
        let harness = Harness::serial().with_record(Some(1 << 16));
        let cells: Vec<Cell> = [SystemConfig::Baseline, SystemConfig::OracleHalt]
            .into_iter()
            .map(|c| Cell::new(app(), 8, 1, c))
            .collect();
        let outcomes = harness.run_cells_isolated(&cells);
        // The recorded Baseline cell ran its own simulation; the cache was
        // filled once, untraced, for Oracle-Halt's oracle.
        assert_eq!(harness.baseline_runs(), 1);
        let plain = Harness::serial();
        for (outcome, cell) in outcomes.iter().zip(&cells) {
            let report = outcome.report.as_ref().unwrap();
            let summary = report.trace.as_ref().expect("recorded");
            assert_eq!(summary.counts.departs, report.counts.episodes * 8);
            assert_eq!(summary.events as usize, outcome.events.len());
            // Recording changes nothing the report measures.
            let unrecorded = run(&plain, cell).0;
            assert_eq!(report.wall_time, unrecorded.wall_time);
            assert_eq!(report.total_energy(), unrecorded.total_energy());
            assert_eq!(
                serde::json::to_string(&report.counts),
                serde::json::to_string(&unrecorded.counts)
            );
        }
        // Without recording, no events are kept.
        assert!(plain.run_cells_isolated(&cells[..1])[0].events.is_empty());
    }

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        for attempt in 1..=10u32 {
            let a = retry_backoff(42, attempt);
            let b = retry_backoff(42, attempt);
            assert_eq!(a, b, "same seed and attempt, same backoff");
            assert!(a >= Duration::from_millis(25), "attempt {attempt}: {a:?}");
            assert!(
                a <= Duration::from_millis(2_000),
                "attempt {attempt}: {a:?}"
            );
        }
        // Different seeds decorrelate the jitter.
        assert_ne!(retry_backoff(1, 1), retry_backoff(2, 1));
        // The nominal delay grows until the cap.
        assert!(retry_backoff(7, 6) > retry_backoff(7, 1));
    }
}
