//! Per-run results: everything the evaluation section consumes.

use crate::harness::{Cell, CellError, CellOutcome};
use serde::{Deserialize, Serialize};
use std::fmt;
use tb_energy::{CategoryBreakdown, EnergyCategory, MachineLedger};
use tb_faults::FaultSummary;
use tb_sim::{Cycles, OnlineStats};
use tb_trace::TraceSummary;

/// Counts of barrier-related events during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BarrierEventCounts {
    /// Barrier episodes executed (dynamic instances).
    pub episodes: u64,
    /// Early (non-releasing) arrivals.
    pub early_arrivals: u64,
    /// Early arrivals that spun (no prediction, too-short stall, disabled,
    /// or conventional barrier).
    pub spins: u64,
    /// Early arrivals that entered each sleep state (indexed by state).
    pub sleeps_by_state: Vec<u64>,
    /// Cache flushes performed before non-snoopable sleeps.
    pub flushes: u64,
    /// Dirty shared lines written back by those flushes.
    pub flushed_lines: u64,
    /// Sleep episodes ended by the internal timer.
    pub internal_wakeups: u64,
    /// Sleep episodes ended by the flag invalidation.
    pub external_wakeups: u64,
    /// Wake-ups that landed before the release (residual spin followed).
    pub early_wakeups: u64,
    /// Wake-ups that landed after the release (the CPU came back up late;
    /// overprediction or external-only wake-up).
    pub late_wakeups: u64,
    /// §3.3.3 cut-off trips during the run, each of which disabled
    /// prediction for one (thread, site).
    pub cutoff_disables: u64,
    /// Predictor updates skipped by the §3.4.2 underprediction filter.
    pub updates_skipped: u64,
}

impl BarrierEventCounts {
    /// Total sleep episodes across all states.
    pub fn total_sleeps(&self) -> u64 {
        self.sleeps_by_state.iter().sum()
    }

    /// Adds another run's (or partial tally's) counts into this one.
    ///
    /// Merging is field-wise addition, so merging N partial counts equals
    /// counting once over the concatenated event stream. Sleep-state
    /// vectors of different lengths merge into the longer one.
    pub fn merge(&mut self, other: &BarrierEventCounts) {
        self.episodes += other.episodes;
        self.early_arrivals += other.early_arrivals;
        self.spins += other.spins;
        if self.sleeps_by_state.len() < other.sleeps_by_state.len() {
            self.sleeps_by_state.resize(other.sleeps_by_state.len(), 0);
        }
        for (mine, theirs) in self.sleeps_by_state.iter_mut().zip(&other.sleeps_by_state) {
            *mine += theirs;
        }
        self.flushes += other.flushes;
        self.flushed_lines += other.flushed_lines;
        self.internal_wakeups += other.internal_wakeups;
        self.external_wakeups += other.external_wakeups;
        self.early_wakeups += other.early_wakeups;
        self.late_wakeups += other.late_wakeups;
        self.cutoff_disables += other.cutoff_disables;
        self.updates_skipped += other.updates_skipped;
    }
}

/// One released barrier instance (the raw material of Figure 3 and of the
/// oracle tables).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InstanceRecord {
    /// The barrier site's PC.
    pub pc: u64,
    /// The site's dynamic instance index.
    pub site_instance: u64,
    /// Absolute release time.
    pub release_time: Cycles,
    /// Measured barrier interval time.
    pub bit: Cycles,
    /// The observed thread's compute time in this interval (trace value).
    pub observed_compute: Cycles,
}

impl InstanceRecord {
    /// The observed thread's stall: `bit − observed_compute` (saturating).
    pub fn observed_bst(&self) -> Cycles {
        self.bit.saturating_sub(self.observed_compute)
    }
}

/// The complete result of one simulation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunReport {
    /// Application name.
    pub app: String,
    /// Configuration name ("Baseline", "Thrifty", …).
    pub config: String,
    /// Processor/thread count.
    pub threads: usize,
    /// Wall-clock execution time.
    pub wall_time: Cycles,
    /// Per-CPU energy/time ledgers.
    pub ledger: MachineLedger,
    /// Barrier event counts.
    pub counts: BarrierEventCounts,
    /// Relative BIT prediction error `|predicted − actual| / actual` over
    /// all early arrivals that had a prediction.
    pub prediction_error: OnlineStats,
    /// Every released barrier instance, in release order: record `i` is
    /// the trace's episode `i`.
    pub instances: Vec<InstanceRecord>,
    /// The thread whose compute/BST decomposition `instances` records.
    pub observed_thread: usize,
    /// Digest of the captured event trace (`None` when tracing was off).
    pub trace: Option<TraceSummary>,
}

impl RunReport {
    /// Machine-wide energy per category, joules.
    pub fn energy(&self) -> CategoryBreakdown {
        self.ledger.energy()
    }

    /// Machine-wide CPU-time per category, cycles.
    pub fn time(&self) -> CategoryBreakdown {
        self.ledger.time()
    }

    /// Total energy, joules.
    pub fn total_energy(&self) -> f64 {
        self.ledger.total_energy()
    }

    /// Barrier imbalance: the fraction of accounted CPU time spent at
    /// barriers (spinning, transitioning, or sleeping). For a Baseline run
    /// this is exactly Table 2's metric (all barrier time is spin time).
    pub fn barrier_imbalance(&self) -> f64 {
        let t = self.time();
        let barrier =
            t[EnergyCategory::Spin] + t[EnergyCategory::Transition] + t[EnergyCategory::Sleep];
        let total = t.total();
        if total == 0.0 {
            0.0
        } else {
            barrier / total
        }
    }

    /// Energy of this run normalized to a baseline run's total (the y-axis
    /// of Figure 5).
    pub fn energy_normalized_to(&self, baseline: &RunReport) -> CategoryBreakdown {
        self.energy().normalized_to(baseline.total_energy())
    }

    /// Execution-time breakdown normalized to a baseline run's wall clock
    /// (the y-axis of Figure 6). Per-category times are averaged over CPUs
    /// so the bar height equals `wall_time / baseline.wall_time`.
    pub fn time_normalized_to(&self, baseline: &RunReport) -> CategoryBreakdown {
        let denom = baseline.wall_time.as_u64() as f64 * self.threads as f64;
        self.time().normalized_to(denom)
    }

    /// Relative wall-clock slowdown vs a baseline run (positive = slower).
    pub fn slowdown_vs(&self, baseline: &RunReport) -> f64 {
        self.wall_time.as_u64() as f64 / baseline.wall_time.as_u64() as f64 - 1.0
    }

    /// Relative energy savings vs a baseline run (positive = saves).
    pub fn energy_savings_vs(&self, baseline: &RunReport) -> f64 {
        1.0 - self.total_energy() / baseline.total_energy()
    }
}

/// Cell-level coverage accounting for one (app, configuration) aggregate:
/// how many matrix cells completed, how many needed retries, and how many
/// were lost to each failure class. This is what lets a degraded sweep
/// state exactly which cells its statistics cover instead of aborting the
/// whole run (DESIGN.md §11).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellCoverage {
    /// Cells that produced a report (possibly after retries).
    pub completed: u64,
    /// Cells that needed at least one retry, whether or not they
    /// eventually completed.
    pub retried: u64,
    /// Cells whose final attempt panicked.
    pub panicked: u64,
    /// Cells whose final attempt exceeded the wall-clock deadline.
    pub timed_out: u64,
    /// Cells whose final attempt livelocked (caught by the simulator's
    /// progress watchdog).
    pub livelocked: u64,
    /// Cells quarantined as poison by the multi-process coordinator after
    /// killing consecutive worker processes (`tb-serve` fleets only).
    pub poisoned: u64,
    /// Cells whose lease was reassigned from a dead worker at least once,
    /// whether or not they eventually completed (`tb-serve` fleets only).
    pub reassigned: u64,
}

impl CellCoverage {
    /// Total cells accounted for (completed + failed).
    pub fn attempted(&self) -> u64 {
        self.completed + self.failed()
    }

    /// Cells that failed to produce a report, across all classes.
    pub fn failed(&self) -> u64 {
        self.panicked + self.timed_out + self.livelocked + self.poisoned
    }

    /// Whether every attempted cell completed.
    pub fn is_complete(&self) -> bool {
        self.failed() == 0
    }

    /// Classifies one final cell error into its failure counter.
    pub fn record_error(&mut self, error: &CellError) {
        match error {
            CellError::Panic(_) => self.panicked += 1,
            CellError::Livelock(_) => self.livelocked += 1,
            CellError::Timeout { .. } => self.timed_out += 1,
            CellError::Poisoned { .. } => self.poisoned += 1,
        }
    }

    /// Notes that a cell's lease was reassigned from a dead worker
    /// `reassignments` times before its outcome became final.
    pub fn record_reassignments(&mut self, reassignments: u64) {
        if reassignments > 0 {
            self.reassigned += 1;
        }
    }

    /// Adds another coverage tally into this one (field-wise addition).
    pub fn merge(&mut self, other: &CellCoverage) {
        self.completed += other.completed;
        self.retried += other.retried;
        self.panicked += other.panicked;
        self.timed_out += other.timed_out;
        self.livelocked += other.livelocked;
        self.poisoned += other.poisoned;
        self.reassigned += other.reassigned;
    }
}

impl fmt::Display for CellCoverage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{} cells completed", self.completed, self.attempted())?;
        if self.retried > 0 {
            write!(f, ", {} retried", self.retried)?;
        }
        if self.panicked > 0 {
            write!(f, ", {} panicked", self.panicked)?;
        }
        if self.timed_out > 0 {
            write!(f, ", {} timed out", self.timed_out)?;
        }
        if self.livelocked > 0 {
            write!(f, ", {} livelocked", self.livelocked)?;
        }
        if self.poisoned > 0 {
            write!(f, ", {} poisoned", self.poisoned)?;
        }
        if self.reassigned > 0 {
            write!(f, ", {} reassigned", self.reassigned)?;
        }
        Ok(())
    }
}

/// Mean/σ summary of one (application, configuration) cell across
/// replicated seeds — what `sweep --seeds N` reports instead of a single
/// [`RunReport`].
///
/// Every per-seed sample is pushed together with its *same-seed* Baseline
/// run, so the normalized metrics (`energy_vs_baseline`,
/// `slowdown_vs_baseline`) pair each replication with its own control the
/// way the paper's figures do, rather than normalizing to a pooled mean.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AggregateReport {
    /// Application name.
    pub app: String,
    /// Configuration name.
    pub config: String,
    /// Processor/thread count.
    pub threads: usize,
    /// Wall-clock cycles per seed.
    pub wall_time: OnlineStats,
    /// Total machine energy (joules) per seed.
    pub total_energy: OnlineStats,
    /// Total energy normalized to the same-seed Baseline (1.0 = Baseline).
    pub energy_vs_baseline: OnlineStats,
    /// Fractional wall-clock slowdown vs the same-seed Baseline.
    pub slowdown_vs_baseline: OnlineStats,
    /// Barrier imbalance per seed.
    pub imbalance: OnlineStats,
    /// Event counts summed over all seeds.
    pub counts: BarrierEventCounts,
    /// Injected-fault and recovery tallies summed over all seeds (all zero
    /// for fault-free sweeps).
    pub faults: FaultSummary,
    /// Messages of the cells that failed instead of completing, in cell
    /// order; their metrics are absent from every statistic.
    pub failures: Vec<String>,
    /// Per-failure-class cell accounting (completed / retried / panicked /
    /// timed out / livelocked). Driven by [`AggregateReport::push`] and
    /// [`AggregateReport::record_error`]; the untyped
    /// [`AggregateReport::record_failure`] path leaves it unchanged.
    pub coverage: CellCoverage,
}

impl AggregateReport {
    /// Creates an empty aggregate for one matrix cell.
    pub fn new(app: impl Into<String>, config: impl Into<String>, threads: usize) -> Self {
        AggregateReport {
            app: app.into(),
            config: config.into(),
            threads,
            wall_time: OnlineStats::new(),
            total_energy: OnlineStats::new(),
            energy_vs_baseline: OnlineStats::new(),
            slowdown_vs_baseline: OnlineStats::new(),
            imbalance: OnlineStats::new(),
            counts: BarrierEventCounts::default(),
            faults: FaultSummary::default(),
            failures: Vec::new(),
            coverage: CellCoverage::default(),
        }
    }

    /// Folds in one seed's run, paired with the Baseline run of the *same*
    /// seed (pass the report itself when aggregating Baseline cells).
    pub fn push(&mut self, report: &RunReport, baseline: &RunReport) {
        self.wall_time.push(report.wall_time.as_u64() as f64);
        self.total_energy.push(report.total_energy());
        self.energy_vs_baseline
            .push(report.energy_normalized_to(baseline).total());
        self.slowdown_vs_baseline.push(report.slowdown_vs(baseline));
        self.imbalance.push(report.barrier_imbalance());
        self.counts.merge(&report.counts);
        self.coverage.completed += 1;
    }

    /// Folds in one seed's fault tallies (see [`AggregateReport::faults`]).
    pub fn merge_faults(&mut self, faults: &FaultSummary) {
        self.faults.merge(faults);
    }

    /// Records a cell that failed instead of completing.
    pub fn record_failure(&mut self, message: impl Into<String>) {
        self.failures.push(message.into());
    }

    /// Cells that failed instead of completing.
    pub fn failed_cells(&self) -> u64 {
        self.failures.len() as u64
    }

    /// Records a cell whose final supervised attempt failed with a typed
    /// error: the rendered message lands in `failures` and the error class
    /// in `coverage`.
    pub fn record_error(&mut self, error: &CellError) {
        self.coverage.record_error(error);
        self.record_failure(error.to_string());
    }

    /// Notes that a completed-or-failed cell burned `retries` retries
    /// before its outcome became final.
    pub fn record_retries(&mut self, retries: u64) {
        if retries > 0 {
            self.coverage.retried += 1;
        }
    }

    /// Notes that a cell's lease was revoked from dead workers
    /// `reassignments` times (`tb-serve` fleets; see
    /// [`CellCoverage::reassigned`]).
    pub fn record_reassignments(&mut self, reassignments: u64) {
        self.coverage.record_reassignments(reassignments);
    }

    /// Number of replicated seeds folded in so far.
    pub fn runs(&self) -> u64 {
        self.wall_time.count()
    }
}

/// Per-(application, configuration) aggregates of `cells` and the
/// `outcomes` an executor returned for them, one per cell in cell order.
/// Aggregates come in the order their pair first appears in `cells`.
///
/// Each cell is normalized to the Baseline cell of the same application,
/// machine size and seed in `cells`, found by what it is rather than where
/// it sits. Its fault tallies, retries and typed error are folded in; a
/// cell whose Baseline failed is recorded as "baseline cell failed".
///
/// # Panics
///
/// Panics unless there is one outcome per cell and every cell's Baseline
/// is among `cells`.
pub fn aggregate(cells: &[Cell], outcomes: &[CellOutcome]) -> Vec<AggregateReport> {
    assert_eq!(cells.len(), outcomes.len(), "one outcome per cell");
    let views: Vec<View> = outcomes
        .iter()
        .map(|o| (o.report.as_ref(), &o.faults, o.retries.len()))
        .collect();
    pair_with_baselines(cells, &views)
}

/// What the Baseline pairing reads of one cell's outcome: its report (or
/// final error), fault tallies and retry count.
pub(crate) type View<'a> = (
    Result<&'a RunReport, &'a CellError>,
    &'a FaultSummary,
    usize,
);

/// The Baseline pairing behind [`aggregate`] and
/// [`AppMatrix::aggregates`](crate::AppMatrix::aggregates), over one view
/// per cell.
pub(crate) fn pair_with_baselines(cells: &[Cell], views: &[View]) -> Vec<AggregateReport> {
    let mut aggs: Vec<AggregateReport> = Vec::new();
    for (cell, &(report, faults, retries)) in cells.iter().zip(views) {
        let (app, config) = (&cell.app.name, cell.config.name());
        let matches = |a: &AggregateReport| &a.app == app && a.config == config;
        let g = aggs.iter().position(matches).unwrap_or_else(|| {
            aggs.push(AggregateReport::new(app, config, cell.nodes as usize));
            aggs.len() - 1
        });
        let baseline = cells
            .iter()
            .position(|b| {
                b.is_plain_baseline()
                    && &b.app.name == app
                    && (b.nodes, b.seed) == (cell.nodes, cell.seed)
            })
            .unwrap_or_else(|| panic!("no Baseline cell for {app} seed {}", cell.seed));
        let agg = &mut aggs[g];
        agg.merge_faults(faults);
        agg.record_retries(retries as u64);
        match (report, views[baseline].0) {
            (Ok(report), Ok(baseline)) => agg.push(report, baseline),
            (Err(err), _) => agg.record_error(err),
            (Ok(_), Err(_)) => agg.record_failure("baseline cell failed"),
        }
    }
    aggs
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let e = self.energy().fractions();
        write!(
            f,
            "{}/{}: wall {} energy {:.3}J (compute {:.1}% spin {:.1}% trans {:.1}% sleep {:.1}%), imbalance {:.2}%",
            self.app,
            self.config,
            self.wall_time,
            self.total_energy(),
            e[EnergyCategory::Compute] * 100.0,
            e[EnergyCategory::Spin] * 100.0,
            e[EnergyCategory::Transition] * 100.0,
            e[EnergyCategory::Sleep] * 100.0,
            self.barrier_imbalance() * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(compute_j: f64, spin_j: f64, wall: u64) -> RunReport {
        let mut ledger = MachineLedger::new(2);
        for cpu in 0..2 {
            ledger.cpu_mut(cpu).record(
                EnergyCategory::Compute,
                Cycles::new(wall * 3 / 4),
                compute_j,
            );
            ledger
                .cpu_mut(cpu)
                .record(EnergyCategory::Spin, Cycles::new(wall / 4), spin_j);
        }
        RunReport {
            app: "X".into(),
            config: "Baseline".into(),
            threads: 2,
            wall_time: Cycles::new(wall),
            ledger,
            counts: BarrierEventCounts::default(),
            prediction_error: OnlineStats::new(),
            instances: Vec::new(),
            observed_thread: 0,
            trace: None,
        }
    }

    #[test]
    fn imbalance_is_barrier_time_fraction() {
        let r = report(10.0, 10.0, 1000);
        assert!((r.barrier_imbalance() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn normalization_against_self_is_unity_time() {
        let r = report(10.0, 10.0, 1000);
        let t = r.time_normalized_to(&r);
        assert!((t.total() - 1.0).abs() < 1e-9);
        assert!((r.slowdown_vs(&r)).abs() < 1e-12);
        assert!((r.energy_savings_vs(&r)).abs() < 1e-12);
    }

    #[test]
    fn savings_and_slowdown_signs() {
        let base = report(10.0, 10.0, 1000);
        let better = report(10.0, 1.0, 1010);
        assert!(better.energy_savings_vs(&base) > 0.0);
        assert!(better.slowdown_vs(&base) > 0.0);
        assert!((better.slowdown_vs(&base) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn observed_bst_saturates_at_zero() {
        let inst = |bit, compute| InstanceRecord {
            pc: 7,
            site_instance: 0,
            release_time: Cycles::new(1000),
            bit: Cycles::new(bit),
            observed_compute: Cycles::new(compute),
        };
        assert_eq!(inst(100, 30).observed_bst(), Cycles::new(70));
        assert_eq!(inst(100, 130).observed_bst(), Cycles::ZERO);
    }

    #[test]
    fn counts_total_sleeps() {
        let c = BarrierEventCounts {
            sleeps_by_state: vec![3, 0, 4],
            ..BarrierEventCounts::default()
        };
        assert_eq!(c.total_sleeps(), 7);
    }

    #[test]
    fn counts_merge_is_fieldwise_addition() {
        let mut a = BarrierEventCounts {
            episodes: 2,
            early_arrivals: 5,
            spins: 1,
            sleeps_by_state: vec![1, 2],
            flushes: 1,
            flushed_lines: 10,
            internal_wakeups: 2,
            external_wakeups: 1,
            early_wakeups: 1,
            late_wakeups: 0,
            cutoff_disables: 1,
            updates_skipped: 1,
        };
        let b = BarrierEventCounts {
            episodes: 3,
            sleeps_by_state: vec![0, 1, 4],
            ..BarrierEventCounts::default()
        };
        a.merge(&b);
        assert_eq!(a.episodes, 5);
        assert_eq!(a.sleeps_by_state, vec![1, 3, 4], "merges into the longer");
        assert_eq!(a.total_sleeps(), 8);
        assert_eq!(a.early_arrivals, 5);
    }

    #[test]
    fn aggregate_pairs_each_seed_with_its_baseline() {
        let base_a = report(10.0, 10.0, 1000);
        let run_a = report(10.0, 2.0, 1010);
        let base_b = report(10.0, 8.0, 2000);
        let run_b = report(10.0, 2.0, 2040);
        let mut agg = AggregateReport::new("X", "Thrifty", 2);
        assert_eq!(agg.runs(), 0);
        agg.push(&run_a, &base_a);
        agg.push(&run_b, &base_b);
        assert_eq!(agg.runs(), 2);
        let want = (run_a.slowdown_vs(&base_a) + run_b.slowdown_vs(&base_b)) / 2.0;
        assert!((agg.slowdown_vs_baseline.mean() - want).abs() < 1e-12);
        assert!(
            agg.energy_vs_baseline.mean() < 1.0,
            "both seeds save energy"
        );
        assert!((agg.wall_time.mean() - 1525.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_of_baseline_against_itself_is_unity() {
        let base = report(10.0, 10.0, 1000);
        let mut agg = AggregateReport::new("X", "Baseline", 2);
        agg.push(&base, &base);
        assert!((agg.energy_vs_baseline.mean() - 1.0).abs() < 1e-12);
        assert!(agg.slowdown_vs_baseline.mean().abs() < 1e-12);
        assert_eq!(agg.slowdown_vs_baseline.std_dev(), 0.0);
    }

    #[test]
    fn coverage_classifies_and_merges() {
        let mut agg = AggregateReport::new("X", "Thrifty", 2);
        let base = report(10.0, 10.0, 1000);
        agg.push(&base, &base);
        agg.record_error(&CellError::Panic("boom".into()));
        agg.record_error(&CellError::Timeout { limit_ms: 5 });
        agg.record_retries(2);
        agg.record_retries(0);
        assert_eq!(agg.failed_cells(), 2);
        assert_eq!(agg.failures[0], "panic: boom");
        assert_eq!(agg.coverage.completed, 1);
        assert_eq!(agg.coverage.failed(), 2);
        assert!(!agg.coverage.is_complete());
        assert_eq!(agg.coverage.retried, 1, "only nonzero retry counts mark");
        let mut total = CellCoverage::default();
        total.merge(&agg.coverage);
        total.merge(&agg.coverage);
        assert_eq!(total.attempted(), 6);
        let s = agg.coverage.to_string();
        assert!(s.contains("1/3 cells completed"), "{s}");
        assert!(s.contains("1 panicked"), "{s}");
        assert!(s.contains("1 timed out"), "{s}");
        assert!(!s.contains("livelocked"), "{s}");
    }

    #[test]
    fn display_has_key_fields() {
        let s = report(1.0, 1.0, 100).to_string();
        assert!(s.contains("Baseline"));
        assert!(s.contains("imbalance"));
    }
}
