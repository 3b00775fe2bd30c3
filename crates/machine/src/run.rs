//! A single run outside the harness, and the oracle both build.
//!
//! Oracle-Halt and Ideal require *perfect* BIT prediction, which is
//! obtained by first running Baseline on the same deterministic trace
//! (barrier timing under Baseline equals the timing a perfectly-predicting
//! sleeper would see, because hybrid wake-up with an exact prediction
//! departs at the release, just like a spinner) and recording every
//! instance's measured BIT ([`oracle_from_baseline`]). The harness caches
//! that Baseline run; [`run_trace`] repeats it per call.

use crate::report::RunReport;
use crate::sim::{simulate, SimulatorConfig};
use tb_core::{AlgorithmConfig, BarrierPc, RecordedBitOracle, SystemConfig};
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

/// Runs `trace` under a named system configuration, performing an
/// uncached Baseline pre-run when the configuration needs an oracle.
pub fn run_trace(trace: &AppTrace, threads_nodes: u16, sys: SystemConfig) -> RunReport {
    let cfg = SimulatorConfig::paper_with_nodes(sys.name(), threads_nodes);
    let oracle = sys.needs_oracle().then(|| {
        let cfg = SimulatorConfig::paper_with_nodes("Baseline", threads_nodes);
        oracle_from_baseline(&simulate(cfg, trace, AlgorithmConfig::baseline(), None))
    });
    simulate(cfg, trace, sys.algorithm_config(), oracle)
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
        let outcome = Harness::serial().run_cells_isolated(&[cell]).remove(0);
        let r = outcome.report.unwrap();
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
        let reports: Vec<RunReport> = Harness::serial()
            .run_cells_isolated(&cells)
            .into_iter()
            .map(|outcome| outcome.report.unwrap())
            .collect();
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
