//! Single-run entry points outside the harness.
//!
//! These wrap [`crate::sim::Simulator`] with the two-pass protocol the
//! oracle configurations need: Oracle-Halt and Ideal require *perfect* BIT
//! prediction, which is obtained by first running Baseline on the same
//! deterministic trace (barrier timing under Baseline equals the timing a
//! perfectly-predicting sleeper would see, because hybrid wake-up with an
//! exact prediction departs at the release, just like a spinner) and
//! recording every instance's measured BIT.

use crate::report::RunReport;
use crate::sim::{simulate, SimulatorConfig};
use std::sync::Arc;
use tb_core::{AlgorithmConfig, BarrierPc, RecordedBitOracle, SystemConfig};
use tb_trace::{MemorySink, SinkHandle, TraceEvent, TraceSummary};
use tb_workloads::AppTrace;

/// Default machine size (Table 1: 64 nodes) and seed used by the paper
/// reproduction binaries.
pub const PAPER_SEED: u64 = 0x7B41;

/// Builds the oracle table from a Baseline run's instance records.
pub fn oracle_from_baseline(baseline: &RunReport) -> RecordedBitOracle {
    let mut oracle = RecordedBitOracle::new();
    for inst in &baseline.instances {
        oracle.record(BarrierPc::new(inst.pc), inst.site_instance, inst.bit);
    }
    oracle
}

/// Runs `trace` under a named system configuration, performing the Baseline
/// pre-run when the configuration needs an oracle.
pub fn run_trace(trace: &AppTrace, threads_nodes: u16, sys: SystemConfig) -> RunReport {
    let cfg = SimulatorConfig::paper_with_nodes(sys.name(), threads_nodes);
    let oracle = baseline_oracle(trace, threads_nodes, sys);
    simulate(cfg, trace, sys.algorithm_config(), oracle)
}

/// The oracle `sys` needs, recorded from an untraced Baseline pre-run of
/// `trace` — or `None` for configurations that predict on their own.
fn baseline_oracle(trace: &AppTrace, nodes: u16, sys: SystemConfig) -> Option<RecordedBitOracle> {
    sys.needs_oracle().then(|| {
        let cfg = SimulatorConfig::paper_with_nodes("Baseline", nodes);
        oracle_from_baseline(&simulate(cfg, trace, AlgorithmConfig::baseline(), None))
    })
}

/// A run plus the trace events captured while it executed.
#[derive(Debug)]
pub struct TracedRun {
    /// The usual run report, with `report.trace` filled in.
    pub report: RunReport,
    /// Every captured event, sorted by `(timestamp, thread)`.
    pub events: Vec<TraceEvent>,
}

/// Like [`run_trace`], but records per-episode trace events through an
/// in-memory sink while the simulation executes.
///
/// `capacity_per_thread` bounds each thread's ring buffer; a busy thread
/// that overflows it drops its *oldest* events (the count of drops lands in
/// `report.trace.dropped`). The Baseline pre-run for oracle configurations
/// is *not* traced — only the run under `sys` is.
pub fn run_trace_recording(
    trace: &AppTrace,
    threads_nodes: u16,
    sys: SystemConfig,
    capacity_per_thread: usize,
) -> TracedRun {
    let mut cfg = SimulatorConfig::paper_with_nodes(sys.name(), threads_nodes);
    let sink = Arc::new(MemorySink::new(threads_nodes as usize, capacity_per_thread));
    cfg.trace = SinkHandle::new(sink.clone());
    let oracle = baseline_oracle(trace, threads_nodes, sys);
    let mut report = simulate(cfg, trace, sys.algorithm_config(), oracle);
    let events = sink.drain_sorted();
    report.trace = Some(TraceSummary::from_events(&events, sink.dropped()));
    TracedRun { report, events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{Cell, Harness};
    use tb_core::SystemConfig;
    use tb_workloads::AppSpec;

    #[test]
    fn baseline_cell_round_trips() {
        let app = AppSpec::by_name("Radiosity").unwrap();
        let cell = Cell::new(app, 16, 3, SystemConfig::Baseline);
        let r = Harness::serial().run_cells(&[cell]).unwrap().remove(0);
        assert_eq!(r.app, "Radiosity");
        assert_eq!(r.config, "Baseline");
        assert_eq!(r.threads, 16);
        assert!(r.counts.episodes > 0);
    }

    #[test]
    fn oracle_table_covers_every_instance() {
        let app = AppSpec::by_name("Radiosity").unwrap();
        let trace = app.generate(16, 3);
        let baseline = run_trace(&trace, 16, SystemConfig::Baseline);
        let oracle = oracle_from_baseline(&baseline);
        assert_eq!(oracle.len(), baseline.instances.len());
    }

    #[test]
    fn matrix_produces_five_reports_in_figure_order() {
        let app = AppSpec::by_name("Radiosity").unwrap();
        let cells = Cell::matrix(&[app], &SystemConfig::ALL, 16, &[3]);
        let reports = Harness::serial().run_cells(&cells).unwrap();
        let names: Vec<&str> = reports.iter().map(|r| r.config.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "Baseline",
                "Thrifty-Halt",
                "Oracle-Halt",
                "Thrifty",
                "Ideal"
            ]
        );
        // All ran the same trace.
        assert!(reports
            .iter()
            .all(|r| r.counts.episodes == reports[0].counts.episodes));
    }

    #[test]
    fn recorded_trace_agrees_with_event_counters() {
        let app = AppSpec::by_name("Ocean").unwrap();
        let trace = app.generate(16, PAPER_SEED);
        let traced = run_trace_recording(&trace, 16, SystemConfig::Thrifty, 1 << 16);
        let summary = traced.report.trace.as_ref().unwrap();
        assert_eq!(summary.dropped, 0, "capacity should be ample");
        assert_eq!(summary.events as usize, traced.events.len());

        // Every physical counter in BarrierEventCounts must be visible as
        // the same number of trace events.
        let c = &traced.report.counts;
        let k = &summary.counts;
        assert_eq!(k.releases, c.episodes);
        assert_eq!(k.arrivals, c.early_arrivals);
        assert_eq!(k.last_arrivals, c.episodes);
        assert_eq!(k.spin_starts, c.spins);
        assert_eq!(k.sleep_starts, c.total_sleeps());
        assert_eq!(k.flushes, c.flushes);
        assert_eq!(k.internal_wakes, c.internal_wakeups);
        assert_eq!(k.external_wakes, c.external_wakeups);
        assert_eq!(k.false_wakes, c.false_wakeups);
        assert_eq!(k.residual_spins, c.early_wakeups);
        assert_eq!(k.cutoff_disables, c.cutoff_disables);
        assert_eq!(k.releases_update_skipped, c.updates_skipped);
        // Every thread departs every episode.
        assert_eq!(k.departs, c.episodes * 16);

        // The §3.4.2 accuracy report derives the same skip count from the
        // semantic stream alone.
        let acc = tb_trace::PredictionAccuracyReport::from_events(&traced.events);
        assert_eq!(acc.skipped_updates, c.updates_skipped);
        assert_eq!(acc.unmatched_predictions, 0);
        assert!(acc.total_predictions() > 0);

        // Something actually slept, so the latency histogram has sleeper
        // samples.
        assert!(summary.wake_latency.samples > 0);
    }

    #[test]
    fn oracle_halt_never_slower_than_noticeable() {
        let app = AppSpec::by_name("Water-Sp").unwrap();
        let trace = app.generate(16, 5);
        let base = run_trace(&trace, 16, SystemConfig::Baseline);
        let oracle = run_trace(&trace, 16, SystemConfig::OracleHalt);
        assert!(
            oracle.slowdown_vs(&base) < 0.01,
            "Oracle-Halt should not degrade performance (got {})",
            oracle.slowdown_vs(&base)
        );
        assert!(oracle.energy_savings_vs(&base) > 0.0);
    }
}
