//! The metric table, summary statistics, the paper-fidelity gap, and the
//! one-line JSON result.

use std::collections::BTreeMap;
use tb_core::SystemConfig;
use tb_machine::AppMatrix;

/// A named metric and its unit. The tables below are the benchmark's
/// contract: `BENCHMARK.json` at the repository root lists the same names
/// (a unit test keeps the two in step).
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Printed by untraced runs (`--trace 0`).
pub const END_TO_END: &[MetricDef] = &[
    m("episodes_per_s", "1/s"),
    m("setup_s", "s"),
    m("peak_rss_mb", "MiB"),
    m("paper_gap_pp", "pp"),
];

/// Printed by traced runs (`--trace 1`).
pub const PER_LAYER: &[MetricDef] = &[
    m("workloads.generate_ms", "ms"),
    m("harness.overhead_pct", "%"),
    m("harness.trace_generations", "count"),
    m("harness.baseline_runs", "count"),
    m("harness.cache_hits", "count"),
    m("sim.ns_per_thread_episode.baseline", "ns"),
    m("sim.ns_per_thread_episode.thrifty-halt", "ns"),
    m("sim.ns_per_thread_episode.oracle-halt", "ns"),
    m("sim.ns_per_thread_episode.thrifty", "ns"),
    m("sim.ns_per_thread_episode.ideal", "ns"),
    m("sim.ns_per_thread_episode.thrifty.n8", "ns"),
    m("sim.ns_per_thread_episode.thrifty.n16", "ns"),
    m("sim.ns_per_thread_episode.thrifty.n32", "ns"),
    m("sim.ns_per_thread_episode.thrifty.n64", "ns"),
    m("sim.cell_ms.p50", "ms"),
    m("sim.cell_ms.tail", "ms"),
    m("sim.cell_ms.tail_pct", "percentile"),
    m("sim.cells", "count"),
    m("sim.flush_refill_share", "ratio"),
    m("sim.episodes", "count"),
    m("sim.spins", "count"),
    m("sim.sleeps", "count"),
    m("sim.flushes", "count"),
    m("sim.flushed_lines", "count"),
    m("sim.external_wakeups", "count"),
    m("sim.internal_wakeups", "count"),
    m("mem.rewrite_ns", "ns"),
    m("mem.checkin_write_ns", "ns"),
    m("mem.flag_read_ns", "ns"),
    m("mem.release_write_ns", "ns"),
    m("mem.flush_ns", "ns"),
    m("mem.writes", "count"),
    m("mem.dir_transactions", "count"),
    m("mem.invalidations_sent", "count"),
    m("mem.writebacks", "count"),
    m("event.schedule_ns", "ns"),
    m("event.pop_ns", "ns"),
    m("event.cancel_ns", "ns"),
    m("core.early_arrival_ns", "ns"),
    m("core.last_arrival_ns", "ns"),
    m("core.finish_ns", "ns"),
    m("trace.overhead_pct", "%"),
    m("serve.overhead_pct", "%"),
    m("serve.worker_deaths", "count"),
    m("serve.respawns", "count"),
    m("faults.injected", "count"),
    m("faults.guard_recoveries", "count"),
    m("faults.quarantine_entries", "count"),
    m("sec9.flushes", "count"),
    m("sec9.flushed_lines", "count"),
    m("sec9.rewrite_writes", "count"),
    m("self_ms.workloads", "ms"),
    m("self_ms.harness", "ms"),
    m("self_ms.sim", "ms"),
    m("bench.unattributed_pct", "%"),
    m("bench.trace_overhead_pct", "%"),
];

/// Metric names: letters, digits, `_`, `.` and `-`, starting with a letter
/// or digit, at most 64 characters.
pub fn valid_metric_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Measured values by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// The run's verdict and counts, printed with the metrics.
#[derive(Debug, Clone, Copy)]
pub struct Verdict {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
}

/// The final JSON line: every metric of `defs`, each with its unit.
pub fn result_line(
    verdict: Verdict,
    defs: &[MetricDef],
    values: &Values,
) -> Result<String, String> {
    let mut fields = Vec::with_capacity(defs.len());
    for d in defs {
        if !valid_metric_name(d.name) {
            return Err(format!("metric name {:?} is not allowed", d.name));
        }
        let v = values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not measured", d.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite ({v})", d.name));
        }
        fields.push(format!(
            r#""{}": {{"value": {}, "unit": "{}"}}"#,
            d.name, v, d.unit
        ));
    }
    Ok(format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        verdict.correct,
        verdict.attempted,
        verdict.failed,
        fields.join(", ")
    ))
}

/// The median of `values` (the mean of the middle two for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The 1-based nearest rank of percentile `p` (0–100] among `n` samples.
/// The product is rounded first, so 99.9 % of 10 000 is rank 9 990.
fn rank(n: usize, p: f64) -> usize {
    let exact = (p * n as f64 / 100.0 * 1e6).round() / 1e6;
    (exact.ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile `p` (0–100] of `values`.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), p) - 1]
}

/// The highest reporting percentile with at least ten samples beyond it,
/// from the ladder 99.9 / 99 / 95 / 90 / 75. With fewer than twenty
/// samples only the median (50) qualifies.
pub fn tail_percentile(samples: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| samples.saturating_sub(rank(samples, p)) >= 10)
        .unwrap_or(50.0)
}

/// The paper's §5.1 headline over the target applications, in percent.
const PAPER_THRIFTY_SAVINGS: f64 = 17.0;
const PAPER_HALT_SAVINGS: f64 = 11.0;
const PAPER_THRIFTY_SLOWDOWN: f64 = 2.0;

/// Mean over the target applications (and seeds) of the headline numbers,
/// in percent: (Thrifty savings, Thrifty-Halt savings, Thrifty slowdown).
pub fn headline(matrix: &[AppMatrix]) -> (f64, f64, f64) {
    let mut sums = (0.0, 0.0, 0.0);
    let mut apps = 0usize;
    for m in matrix.iter().filter(|m| m.app.is_target()) {
        let aggs = m.aggregates();
        let at = |c: SystemConfig| {
            let i = m
                .configs
                .iter()
                .position(|&x| x == c)
                .unwrap_or_else(|| panic!("the headline needs {}", c.name()));
            &aggs[i]
        };
        sums.0 += (1.0 - at(SystemConfig::Thrifty).energy_vs_baseline.mean()) * 100.0;
        sums.1 += (1.0 - at(SystemConfig::ThriftyHalt).energy_vs_baseline.mean()) * 100.0;
        sums.2 += at(SystemConfig::Thrifty).slowdown_vs_baseline.mean() * 100.0;
        apps += 1;
    }
    assert!(apps > 0, "no target applications in the matrix");
    let n = apps as f64;
    (sums.0 / n, sums.1 / n, sums.2 / n)
}

/// Mean absolute gap, in percentage points, between the measured headline
/// and the paper's.
pub fn paper_gap_pp(matrix: &[AppMatrix]) -> f64 {
    let (thr, halt, slow) = headline(matrix);
    ((thr - PAPER_THRIFTY_SAVINGS).abs()
        + (halt - PAPER_HALT_SAVINGS).abs()
        + (slow - PAPER_THRIFTY_SLOWDOWN).abs())
        / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use tb_energy::{EnergyCategory, MachineLedger};
    use tb_machine::{BarrierEventCounts, RunReport};
    use tb_sim::{Cycles, OnlineStats};
    use tb_workloads::AppSpec;

    #[test]
    fn every_metric_name_uses_the_allowed_charset_once() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_metric_name(d.name), "bad name {}", d.name);
            assert!(seen.insert(d.name), "duplicate name {}", d.name);
            assert!(!d.unit.is_empty() && d.unit.len() <= 16);
        }
        assert!(valid_metric_name("sim.cell_ms.p50"));
        assert!(valid_metric_name("9lives-x_y.z"));
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/y",
            "pct%",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad:?} should be rejected");
        }
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde::json::parse(&text).expect("BENCHMARK.json is JSON");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let Some(serde::Value::Seq(entries)) = doc.get(key) else {
                panic!("{key} is a list")
            };
            let listed: Vec<(String, String)> = entries
                .iter()
                .map(|e| match (e.get("name"), e.get("unit")) {
                    (Some(serde::Value::Str(n)), Some(serde::Value::Str(u))) => {
                        (n.clone(), u.clone())
                    }
                    _ => panic!("{key} entry without name and unit"),
                })
                .collect();
            let ours: Vec<(String, String)> = defs
                .iter()
                .map(|d| (d.name.to_string(), d.unit.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from the binary's table");
        }
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(5), 50.0);
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(150), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut values = Values::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            values.set(d.name, 1.5 + i as f64);
        }
        let verdict = Verdict {
            correct: true,
            attempted: 150,
            failed: 0,
        };
        let line = result_line(verdict, END_TO_END, &values).unwrap();
        let doc = serde::json::parse(&line).unwrap();
        assert_eq!(doc.get("correct"), Some(&serde::Value::Bool(true)));
        let metrics = doc.get("metrics").unwrap();
        let setup = metrics.get("setup_s").unwrap();
        assert_eq!(setup.get("unit"), Some(&serde::Value::Str("s".into())));
        values.set("setup_s", f64::NAN);
        assert!(result_line(verdict, END_TO_END, &values).is_err());
        assert!(result_line(verdict, PER_LAYER, &values).is_err(), "missing");
    }

    /// A two-CPU report whose energy is `energy` joules and whose wall
    /// time is `wall` cycles.
    fn report(config: SystemConfig, energy: f64, wall: u64) -> RunReport {
        let mut ledger = MachineLedger::new(2);
        let wall = Cycles::new(wall);
        for cpu in 0..2 {
            let watts = energy / 2.0 / wall.as_secs_f64();
            ledger
                .cpu_mut(cpu)
                .record(EnergyCategory::Compute, wall, watts);
        }
        RunReport {
            app: "X".into(),
            config: config.name().into(),
            threads: 2,
            wall_time: wall,
            ledger,
            counts: BarrierEventCounts::default(),
            prediction_error: OnlineStats::new(),
            instances: Vec::new(),
            observed_thread: 0,
            trace: None,
        }
    }

    fn matrix_row(app: AppSpec, thrifty: (f64, u64), halt: (f64, u64)) -> AppMatrix {
        let configs = vec![
            SystemConfig::Baseline,
            SystemConfig::ThriftyHalt,
            SystemConfig::Thrifty,
        ];
        AppMatrix {
            app,
            configs: configs.clone(),
            seeds: vec![1],
            reports: vec![
                vec![report(SystemConfig::Baseline, 100.0, 1000)],
                vec![report(SystemConfig::ThriftyHalt, halt.0, halt.1)],
                vec![report(SystemConfig::Thrifty, thrifty.0, thrifty.1)],
            ],
        }
    }

    #[test]
    fn paper_gap_averages_over_target_apps_only() {
        let apps = AppSpec::splash2();
        let target = apps.iter().find(|a| a.is_target()).unwrap().clone();
        let other = apps.iter().find(|a| !a.is_target()).unwrap().clone();
        // Target app: Thrifty saves 20% with 1% slowdown, Halt saves 10%.
        // Gaps: |20-17| = 3, |10-11| = 1, |1-2| = 1 → mean 5/3.
        let m = vec![
            matrix_row(target.clone(), (80.0, 1010), (90.0, 1000)),
            matrix_row(other, (10.0, 5000), (10.0, 5000)),
        ];
        let (thr, halt, slow) = headline(&m);
        assert!((thr - 20.0).abs() < 1e-9, "{thr}");
        assert!((halt - 10.0).abs() < 1e-9, "{halt}");
        assert!((slow - 1.0).abs() < 1e-9, "{slow}");
        assert!((paper_gap_pp(&m) - 5.0 / 3.0).abs() < 1e-9);
        // A second target app matching the paper exactly halves each gap.
        let exact = matrix_row(target, (83.0, 1020), (89.0, 1000));
        let m2 = vec![m[0].clone(), exact];
        assert!((paper_gap_pp(&m2) - 5.0 / 6.0).abs() < 1e-9);
    }
}
