//! Cross-substrate integration: the *same* `tb-core` algorithm, driven by
//! three different machines (directory CC-NUMA, snooping-bus SMP,
//! message-passing cluster) and by real OS threads, must tell the same
//! story — the portability claim of the paper's §1/§7.

use thrifty_barrier::core::{AlgorithmConfig, SystemConfig};
use thrifty_barrier::machine::run::{run_trace, PAPER_SEED};
use thrifty_barrier::machine::sim::{simulate, SimulatorConfig};
use thrifty_barrier::mem::MachineConfig;
use thrifty_barrier::msg::{ClusterConfig, MsgSimulator};
use thrifty_barrier::sim::digest::fnv1a64_hex;
use thrifty_barrier::workloads::AppSpec;

const NODES: u16 = 16;
const SEED: u64 = 0x7B41;

/// (baseline_energy, thrifty_energy, thrifty_slowdown) per substrate.
fn directory_numbers(app: &AppSpec) -> (f64, f64, f64) {
    let trace = app.generate(NODES as usize, SEED);
    let base = run_trace(&trace, NODES, SystemConfig::Baseline);
    let thrifty = run_trace(&trace, NODES, SystemConfig::Thrifty);
    (
        base.total_energy(),
        thrifty.total_energy(),
        thrifty.slowdown_vs(&base),
    )
}

fn bus_numbers(app: &AppSpec) -> (f64, f64, f64) {
    let trace = app.generate(NODES as usize, SEED);
    let mut cfg = SimulatorConfig::paper_with_nodes("Baseline", NODES);
    cfg.machine = MachineConfig::bus_smp(NODES);
    let base = simulate(cfg.clone(), &trace, AlgorithmConfig::baseline(), None);
    let thrifty = simulate(cfg, &trace, AlgorithmConfig::thrifty(), None);
    (
        base.total_energy(),
        thrifty.total_energy(),
        thrifty.slowdown_vs(&base),
    )
}

fn msg_numbers(app: &AppSpec) -> (f64, f64, f64) {
    let trace = app.generate(NODES as usize, SEED);
    let cluster = ClusterConfig::default_cluster(NODES);
    let base = MsgSimulator::new(cluster.clone(), trace.clone(), AlgorithmConfig::baseline()).run();
    let thrifty = MsgSimulator::new(cluster, trace, AlgorithmConfig::thrifty()).run();
    (
        base.total_energy(),
        thrifty.total_energy(),
        thrifty.slowdown_vs(&base),
    )
}

#[test]
fn savings_agree_across_substrates() {
    // On every substrate, the relative savings for a stable target app
    // land in the same band.
    let app = AppSpec::by_name("FMM").unwrap();
    let mut ratios = Vec::new();
    for (label, (base, thrifty, slowdown)) in [
        ("directory", directory_numbers(&app)),
        ("bus", bus_numbers(&app)),
        ("msg", msg_numbers(&app)),
    ] {
        let ratio = thrifty / base;
        assert!(
            (0.80..0.95).contains(&ratio),
            "{label}: energy ratio {ratio} outside the FMM band"
        );
        assert!(slowdown < 0.02, "{label}: slowdown {slowdown}");
        ratios.push(ratio);
    }
    let spread = ratios.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        spread < 0.03,
        "substrates should agree within 3 points, spread {spread}"
    );
}

#[test]
fn volrend_approaches_ideal_everywhere() {
    let app = AppSpec::by_name("Volrend").unwrap();
    for (label, (base, thrifty, _)) in [
        ("directory", directory_numbers(&app)),
        ("bus", bus_numbers(&app)),
        ("msg", msg_numbers(&app)),
    ] {
        let savings = 1.0 - thrifty / base;
        assert!(
            savings > 0.30,
            "{label}: Volrend should save >30%, got {:.1}%",
            savings * 100.0
        );
    }
}

#[test]
fn balanced_apps_are_safe_everywhere() {
    // Radiosity (1% imbalance): no substrate may lose meaningful energy
    // or time under Thrifty.
    let app = AppSpec::by_name("Radiosity").unwrap();
    for (label, (base, thrifty, slowdown)) in [
        ("directory", directory_numbers(&app)),
        ("bus", bus_numbers(&app)),
        ("msg", msg_numbers(&app)),
    ] {
        assert!(
            thrifty <= base * 1.01,
            "{label}: Radiosity must not cost energy"
        );
        assert!(slowdown < 0.02, "{label}: slowdown {slowdown}");
    }
}

/// The X2 bus runs (Baseline and Thrifty for the four `extension_bus`
/// applications at 16 nodes) are pinned by the digest of their JSON
/// reports, so the bus interconnect's timing and wake-up delivery cannot
/// drift unnoticed.
#[test]
fn bus_n16_json_digest_matches_fixture() {
    let mut reports = Vec::new();
    for name in ["Volrend", "FMM", "Water-Nsq", "Ocean"] {
        let trace = AppSpec::by_name(name)
            .unwrap()
            .generate(NODES as usize, PAPER_SEED);
        let mut cfg = SimulatorConfig::paper_with_nodes("Baseline", NODES);
        cfg.machine = MachineConfig::bus_smp(NODES);
        reports.push(simulate(
            cfg.clone(),
            &trace,
            AlgorithmConfig::baseline(),
            None,
        ));
        cfg.config_name = "Thrifty".into();
        reports.push(simulate(cfg, &trace, AlgorithmConfig::thrifty(), None));
    }
    let json = serde::json::to_string(&reports);
    let path = format!(
        "{}/tests/golden/bus_n16_json.digest",
        env!("CARGO_MANIFEST_DIR")
    );
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    assert_eq!(
        fnv1a64_hex(json.as_bytes()),
        want.trim(),
        "X2 bus reports drifted from tests/golden/bus_n16_json.digest"
    );
}

#[test]
fn trace_reuse_is_exact_across_substrates() {
    // All three simulators consume the identical deterministic trace.
    let app = AppSpec::by_name("Barnes").unwrap();
    let t1 = app.generate(NODES as usize, SEED);
    let t2 = app.generate(NODES as usize, SEED);
    assert_eq!(t1, t2);
    assert_eq!(t1.threads, NODES as usize);
}
