//! Property-based tests of the message-passing executor.

use proptest::prelude::*;
use tb_core::AlgorithmConfig;
use tb_energy::EnergyCategory;
use tb_machine::cluster::{ClusterConfig, MsgSimulator};
use tb_machine::RunReport;
use tb_sim::Cycles;
use tb_trace::SinkHandle;
use tb_workloads::{AppSpec, AppTrace, PhaseSpec, Variability};

fn arb_app() -> impl Strategy<Value = AppSpec> {
    (1usize..3, 2u32..8, 1_000u64..8_000, 0.05f64..0.35).prop_map(
        |(phases, iterations, base_us, target)| AppSpec {
            name: "MsgProp".into(),
            problem_size: "prop".into(),
            target_imbalance: target,
            setup_phases: vec![],
            loop_phases: (0..phases)
                .map(|i| {
                    PhaseSpec::new(
                        0x600 + i as u64,
                        Cycles::from_micros(base_us + 500 * i as u64),
                        0,
                        Variability::Stable { jitter: 0.02 },
                    )
                })
                .collect(),
            iterations,
            skew: 2.0,
        },
    )
}

/// `trace` on `cluster` under `algo`.
fn run(cluster: ClusterConfig, trace: &AppTrace, algo: AlgorithmConfig) -> RunReport {
    MsgSimulator::new(
        cluster,
        trace.clone(),
        "MsgProp",
        algo,
        SinkHandle::disabled(),
    )
    .run(None)
    .expect("no deadline")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every run completes all episodes, accounts energy in every category
    /// it uses, and is deterministic.
    #[test]
    fn msg_runs_complete_and_are_deterministic(app in arb_app(), seed in any::<u64>()) {
        let trace = app.generate(8, seed);
        let mk = || run(ClusterConfig::default_cluster(8), &trace, AlgorithmConfig::thrifty());
        let a = mk();
        let b = mk();
        prop_assert_eq!(a.counts.episodes as usize, trace.len());
        prop_assert_eq!(a.wall_time, b.wall_time);
        prop_assert!((a.total_energy() - b.total_energy()).abs() < 1e-12);
        prop_assert_eq!(
            a.counts.internal_wakeups + a.counts.external_wakeups,
            a.counts.total_sleeps()
        );
    }

    /// The thrifty cluster never burns more energy than the polling one
    /// (beyond a small misprediction guard), and never slows down much.
    #[test]
    fn msg_thrifty_bounded_by_polling(app in arb_app(), seed in any::<u64>()) {
        let trace = app.generate(8, seed);
        let base = run(ClusterConfig::default_cluster(8), &trace, AlgorithmConfig::baseline());
        let thrifty = run(ClusterConfig::default_cluster(8), &trace, AlgorithmConfig::thrifty());
        prop_assert!(thrifty.total_energy() <= base.total_energy() * 1.05);
        prop_assert!(thrifty.slowdown_vs(&base) < 0.05);
        // Polling cluster never sleeps or transitions.
        prop_assert_eq!(base.counts.total_sleeps(), 0);
        prop_assert_eq!(base.ledger.energy()[EnergyCategory::Transition], 0.0);
    }

    /// Wall-clock per episode includes at least the release broadcast.
    #[test]
    fn msg_overheads_are_causal(app in arb_app(), seed in any::<u64>()) {
        let trace = app.generate(8, seed);
        let cluster = ClusterConfig::default_cluster(8);
        let latency = cluster.msg_latency;
        let base = run(cluster, &trace, AlgorithmConfig::baseline());
        prop_assert!(
            base.wall_time >= trace.ideal_duration() + latency.scale(trace.len() as f64 * 0.5),
            "release messages must cost wall-clock"
        );
    }
}
