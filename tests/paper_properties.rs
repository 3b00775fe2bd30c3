//! End-to-end integration tests asserting the paper's qualitative results
//! across the whole stack (workloads → machine → core → energy).
//!
//! These run at 16 nodes to stay fast; `thrifty-barrier reproduce`
//! regenerates the 64-node figures.

use thrifty_barrier::core::{FaultPlan, SystemConfig};
use thrifty_barrier::energy::{EnergyCategory, SleepTable};
use thrifty_barrier::machine::harness::{Cell, Knob, Variant};
use thrifty_barrier::machine::run::run_trace;
use thrifty_barrier::machine::RunReport;
use thrifty_barrier::serve::{execute, ExecConfig};
use thrifty_barrier::trace::TraceEventKind;
use thrifty_barrier::workloads::AppSpec;

const NODES: u16 = 16;
const SEED: u64 = 0x7B41;

/// The reports of fault-free cells, run one at a time through the
/// executor the CLI uses.
fn run_all(cells: &[Cell]) -> Vec<RunReport> {
    let serial = ExecConfig {
        jobs: 1,
        ..ExecConfig::default()
    };
    execute(cells, &serial)
        .expect("reachable targets")
        .into_iter()
        .map(|outcome| outcome.report.expect("fault-free cell"))
        .collect()
}

/// The five configurations of one application, in figure order.
fn matrix(name: &str) -> Vec<RunReport> {
    let app = AppSpec::by_name(name).expect("known app");
    run_all(&Cell::matrix(&[app], &SystemConfig::ALL, NODES, &[SEED]))
}

#[test]
fn every_app_measures_its_table2_imbalance() {
    for app in AppSpec::splash2() {
        let trace = app.generate(NODES as usize, SEED);
        let base = run_trace(&trace, NODES, SystemConfig::Baseline);
        assert!(
            (base.barrier_imbalance() - app.target_imbalance).abs() < 0.015,
            "{}: measured {:.4} vs Table 2 {:.4}",
            app.name,
            base.barrier_imbalance(),
            app.target_imbalance
        );
    }
}

#[test]
fn thrifty_saves_energy_on_every_target_app() {
    for app in AppSpec::targets() {
        let reports = matrix(&app.name);
        let (base, thrifty) = (&reports[0], &reports[3]);
        let savings = thrifty.energy_savings_vs(base);
        assert!(
            savings > 0.05,
            "{}: thrifty should save >5%, got {:.1}%",
            app.name,
            savings * 100.0
        );
        assert!(
            thrifty.slowdown_vs(base) < 0.03,
            "{}: slowdown {:.2}% too large",
            app.name,
            thrifty.slowdown_vs(base) * 100.0
        );
    }
}

#[test]
fn savings_track_imbalance_ordering() {
    // §5.1: the more imbalanced the application, the more thrifty saves.
    let volrend = matrix("Volrend");
    let water_sp = matrix("Water-Sp");
    let radiosity = matrix("Radiosity");
    let s = |m: &Vec<RunReport>| m[3].energy_savings_vs(&m[0]);
    assert!(s(&volrend) > s(&water_sp));
    assert!(s(&water_sp) > s(&radiosity));
}

#[test]
fn multiple_sleep_states_beat_halt_only() {
    // §5.1: "exploiting multiple sleep states is indeed beneficial".
    for name in ["Volrend", "FMM"] {
        let reports = matrix(name);
        let (base, halt, thrifty) = (&reports[0], &reports[1], &reports[3]);
        assert!(
            thrifty.energy_savings_vs(base) > halt.energy_savings_vs(base),
            "{name}: Thrifty should beat Thrifty-Halt"
        );
    }
}

#[test]
fn oracle_configurations_never_degrade_performance() {
    // §5.2: "the theoretical lower bounds Oracle-Halt and Ideal, which
    // never mispredict, would actually save energy without incurring any
    // performance penalty".
    for name in ["Volrend", "FMM", "Ocean", "Water-Nsq"] {
        let reports = matrix(name);
        let base = &reports[0];
        for r in [&reports[2], &reports[4]] {
            assert!(
                r.slowdown_vs(base) < 0.01,
                "{name}/{}: slowdown {:.2}%",
                r.config,
                r.slowdown_vs(base) * 100.0
            );
            assert!(r.total_energy() <= base.total_energy());
        }
    }
}

#[test]
fn fft_and_cholesky_behave_exactly_like_baseline() {
    // §5.1: "In the case of FFT and Cholesky, Thrifty (and Thrifty-Halt)
    // behaves just like Baseline … which leaves Thrifty's PC-indexed
    // predictor unused."
    for name in ["FFT", "Cholesky"] {
        let reports = matrix(name);
        let (base, halt, thrifty) = (&reports[0], &reports[1], &reports[3]);
        for r in [halt, thrifty] {
            assert_eq!(r.counts.total_sleeps(), 0, "{name}: no history, no sleep");
            assert!(
                (r.total_energy() / base.total_energy() - 1.0).abs() < 0.001,
                "{name}: energy must match baseline"
            );
            assert_eq!(
                r.wall_time, base.wall_time,
                "{name}: time must match baseline"
            );
        }
    }
}

#[test]
fn ideal_lower_bounds_every_configuration() {
    for name in ["Volrend", "Radix", "Barnes"] {
        let reports = matrix(name);
        let ideal_energy = reports[4].total_energy();
        for r in &reports[..4] {
            assert!(
                ideal_energy <= r.total_energy() * 1.01,
                "{name}: Ideal ({ideal_energy}) must lower-bound {} ({})",
                r.config,
                r.total_energy()
            );
        }
    }
}

#[test]
fn ocean_needs_the_cutoff() {
    // §5.2 / §3.3.3: without the cut-off Ocean degrades noticeably; with
    // it the damage is contained and the barrier mostly spins.
    let app = AppSpec::by_name("Ocean").unwrap();
    let cell = |config| Cell::new(app.clone(), NODES, SEED, config);
    let no_cutoff = Variant {
        knob: Some(Knob::Cutoff(None)),
        ..Variant::default()
    };
    let cells = [
        cell(SystemConfig::Baseline),
        cell(SystemConfig::Thrifty),
        cell(SystemConfig::Thrifty).with_variant(no_cutoff),
    ];
    let reports = run_all(&cells);
    let [base, with, without] = &reports[..] else {
        unreachable!("three cells, three reports")
    };
    assert!(
        with.counts.cutoff_disables > 0,
        "the cut-off engages on Ocean"
    );
    assert_eq!(without.counts.cutoff_disables, 0);
    assert!(
        without.slowdown_vs(base) > 2.0 * with.slowdown_vs(base),
        "cut-off must contain the slowdown: with {:.2}% vs without {:.2}%",
        with.slowdown_vs(base) * 100.0,
        without.slowdown_vs(base) * 100.0
    );
    assert!(
        with.counts.spins > without.counts.spins,
        "disabled (thread, site) pairs fall back to spinning"
    );
}

/// §3.3.3's cut-off judges a prediction, and the oracle's is exact: under
/// late wake-up signals at 8 nodes, Ocean's Oracle-Halt and Ideal cells
/// trip nothing and record no cut-off event.
#[test]
fn oracle_configurations_have_no_cutoff() {
    let app = AppSpec::by_name("Ocean").unwrap();
    let configs = [
        SystemConfig::Baseline,
        SystemConfig::OracleHalt,
        SystemConfig::Ideal,
    ];
    let cells: Vec<Cell> = Cell::matrix(&[app], &configs, 8, &[SEED])
        .into_iter()
        .map(|cell| {
            let plan = FaultPlan::by_name("late-wakeup", cell.seed).unwrap();
            cell.with_faults(plan)
        })
        .collect();
    let recorded = ExecConfig {
        jobs: 1,
        record: Some(1 << 14),
        ..ExecConfig::default()
    };
    let outcomes = execute(&cells, &recorded).expect("reachable targets");
    for (cell, outcome) in cells.iter().zip(&outcomes).skip(1) {
        let name = cell.config.name();
        let report = outcome.report.as_ref().expect("late-wakeup cells complete");
        assert!(
            outcome.faults.delayed_wakeups > 0,
            "{name}: faults injected"
        );
        assert!(report.counts.total_sleeps() > 0, "{name}: threads slept");
        assert_eq!(report.trace.as_ref().map(|t| t.dropped), Some(0), "{name}");
        assert_eq!(report.counts.cutoff_disables, 0, "{name}");
        let trips = outcome
            .events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::CutoffDisable { .. }))
            .count();
        assert_eq!(trips, 0, "{name}: cut-off events");
    }
}

#[test]
fn energy_breakdown_structure_matches_figures() {
    // Figure 5's structural claims: Baseline has no Transition/Sleep;
    // Thrifty converts most Spin into Sleep+Transition on stable apps.
    let reports = matrix("Volrend");
    let (base, thrifty) = (&reports[0], &reports[3]);
    let be = base.energy();
    assert_eq!(be[EnergyCategory::Transition], 0.0);
    assert_eq!(be[EnergyCategory::Sleep], 0.0);
    assert!(be[EnergyCategory::Spin] > 0.0);
    let te = thrifty.energy();
    assert!(te[EnergyCategory::Sleep] > 0.0);
    assert!(te[EnergyCategory::Transition] > 0.0);
    assert!(
        te[EnergyCategory::Spin] < 0.25 * be[EnergyCategory::Spin],
        "most spinning should be gone"
    );
}

#[test]
fn deep_sleep_flushes_show_up_in_compute() {
    // §5.2: "Thrifty is the only configuration for which Compute
    // energy/time increases for many applications, mainly due to cache
    // flush overheads associated with deep sleep states."
    let reports = matrix("Water-Nsq");
    let (base, halt, thrifty, ideal) = (&reports[0], &reports[1], &reports[3], &reports[4]);
    assert!(thrifty.counts.flushes > 0);
    assert_eq!(halt.counts.flushes, 0);
    // §5.1: Ideal has "no flushing overhead", so its deep sleeps flush
    // nothing.
    let sleep3 = SleepTable::paper().deepest().index();
    assert!(
        ideal.counts.sleeps_by_state[sleep3] > 0,
        "Ideal sleeps in Sleep3"
    );
    assert_eq!(ideal.counts.flushes, 0);
    assert_eq!(ideal.counts.flushed_lines, 0);
    let base_compute = base.energy()[EnergyCategory::Compute];
    let thrifty_compute = thrifty.energy()[EnergyCategory::Compute];
    assert!(
        thrifty_compute > base_compute,
        "flushes and post-flush upgrades must surface in Compute"
    );
}

#[test]
fn prediction_is_accurate_on_stable_apps_and_poor_on_ocean() {
    let fmm = matrix("FMM");
    let ocean = matrix("Ocean");
    assert!(
        fmm[3].prediction_error.mean() < 0.10,
        "FMM error {:.3}",
        fmm[3].prediction_error.mean()
    );
    assert!(
        ocean[3].prediction_error.mean() > 0.30,
        "Ocean error {:.3} should be large",
        ocean[3].prediction_error.mean()
    );
}

#[test]
fn whole_stack_is_deterministic() {
    let a = matrix("Barnes");
    let b = matrix("Barnes");
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.wall_time, rb.wall_time);
        assert_eq!(ra.total_energy(), rb.total_energy());
        assert_eq!(ra.counts.episodes, rb.counts.episodes);
    }
}
