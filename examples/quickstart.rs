//! Quickstart: simulate one SPLASH-2-like application on the paper's
//! 64-node machine under conventional and thrifty barriers, and compare.
//!
//! ```text
//! cargo run --release --example quickstart [app-name] [threads]
//! ```

use thrifty_barrier::core::SystemConfig;
use thrifty_barrier::energy::EnergyCategory;
use thrifty_barrier::machine::run::PAPER_SEED;
use thrifty_barrier::machine::{Cell, RunReport};
use thrifty_barrier::serve::{execute, ExecConfig};
use thrifty_barrier::workloads::AppSpec;

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "FMM".to_string());
    let threads: u16 = args
        .next()
        .map(|s| s.parse().expect("threads must be a number"))
        .unwrap_or(64);
    let app = AppSpec::by_name(&name).unwrap_or_else(|| {
        eprintln!("unknown application {name:?}; known apps:");
        for a in AppSpec::splash2() {
            eprintln!("  {}", a.name);
        }
        std::process::exit(1);
    });

    println!("== {app}");
    println!("machine: {threads} nodes (Table 1 latencies), seed {PAPER_SEED:#x}\n");

    // The five configurations share one trace and one Baseline run.
    let apps = std::slice::from_ref(&app);
    let cells = Cell::matrix(apps, &SystemConfig::ALL, threads, &[PAPER_SEED]);
    let outcomes = execute(&cells, &ExecConfig::default()).expect("reachable target");
    let reports: Vec<RunReport> = outcomes
        .into_iter()
        .map(|outcome| outcome.report.expect("fault-free cell"))
        .collect();
    let baseline = &reports[0];

    println!(
        "{:<13} {:>9} {:>10} {:>9}   energy breakdown (C/S/T/Z %)",
        "config", "energy", "vs base", "time"
    );
    for r in &reports {
        let e = r.energy_normalized_to(baseline);
        let t = r.time_normalized_to(baseline);
        println!(
            "{:<13} {:>8.1}% {:>9.1}% {:>8.1}%   {:>5.1} {:>5.1} {:>5.1} {:>5.1}",
            r.config,
            e.total() * 100.0,
            r.energy_savings_vs(baseline) * 100.0,
            t.total() * 100.0,
            e[EnergyCategory::Compute] * 100.0,
            e[EnergyCategory::Spin] * 100.0,
            e[EnergyCategory::Transition] * 100.0,
            e[EnergyCategory::Sleep] * 100.0,
        );
    }

    let thrifty = reports
        .iter()
        .find(|r| r.config == SystemConfig::Thrifty.name())
        .expect("matrix has Thrifty");
    println!(
        "\nbaseline barrier imbalance: {:.2}% (Table 2 target: {:.2}%)",
        baseline.barrier_imbalance() * 100.0,
        app.target_imbalance * 100.0
    );
    println!(
        "thrifty: {} sleeps ({} internal / {} external wake-ups), {} spins, \
         {} flushes, mean BIT prediction error {:.1}%",
        thrifty.counts.total_sleeps(),
        thrifty.counts.internal_wakeups,
        thrifty.counts.external_wakeups,
        thrifty.counts.spins,
        thrifty.counts.flushes,
        thrifty.prediction_error.mean() * 100.0
    );
}
