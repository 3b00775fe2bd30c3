//! Property-based tests of the full machine simulation: conservation and
//! protocol invariants must hold for arbitrary (small) workloads.

use proptest::prelude::*;
use tb_core::SystemConfig;
use tb_energy::EnergyCategory;
use tb_machine::harness::{Cell, Harness};
use tb_machine::run::run_trace;
use tb_machine::{BarrierEventCounts, RunReport};
use tb_runtime::{RuntimeStats, ThreadStats};
use tb_sim::Cycles;
use tb_workloads::{AppSpec, PhaseSpec, Variability};

fn arb_app() -> impl Strategy<Value = AppSpec> {
    (
        1usize..3,     // loop phases
        2u32..8,       // iterations
        500u64..8_000, // base interval µs
        0.05f64..0.40, // imbalance
        0u32..64,      // dirty lines
    )
        .prop_map(|(phases, iterations, base_us, target, dirty)| AppSpec {
            name: "MachineProp".into(),
            problem_size: "prop".into(),
            target_imbalance: target,
            setup_phases: vec![],
            loop_phases: (0..phases)
                .map(|i| {
                    PhaseSpec::new(
                        0x500 + i as u64,
                        Cycles::from_micros(base_us + 300 * i as u64),
                        dirty,
                        Variability::Stable { jitter: 0.02 },
                    )
                })
                .collect(),
            iterations,
            skew: 2.0,
        })
}

fn check_conservation(r: &RunReport) -> Result<(), TestCaseError> {
    // Every episode produced exactly one instance record, in order, with
    // strictly increasing release times.
    prop_assert_eq!(r.instances.len() as u64, r.counts.episodes);
    for (i, inst) in r.instances.iter().enumerate() {
        prop_assert_eq!(inst.episode, i);
        prop_assert_eq!(inst.bit, inst.observed_compute + inst.observed_bst);
    }
    for w in r.instances.windows(2) {
        prop_assert!(w[0].release_time < w[1].release_time);
    }
    // The BRTS induction telescopes: the published BITs sum to the final
    // release (up to the flag-flip latency of each episode).
    let bit_sum: Cycles = r.instances.iter().map(|i| i.bit).sum();
    let last_release = r.instances.last().unwrap().release_time;
    let slack = Cycles::from_micros(2 * r.instances.len() as u64);
    prop_assert!(bit_sum <= last_release);
    prop_assert!(last_release.saturating_sub(bit_sum) < slack);
    // No CPU accounts more than the wall clock.
    let wall = r.wall_time.as_u64() as f64;
    for cpu in r.ledger.iter() {
        prop_assert!(cpu.total_time() <= wall * 1.001);
    }
    // Every sleep ends in exactly one wake-up.
    prop_assert_eq!(
        r.counts.internal_wakeups + r.counts.external_wakeups,
        r.counts.total_sleeps()
    );
    Ok(())
}

fn arb_counts() -> impl Strategy<Value = BarrierEventCounts> {
    (
        proptest::collection::vec(0u64..1_000, 12),
        proptest::collection::vec(0u64..1_000, 0..4),
    )
        .prop_map(|(f, sleeps_by_state)| BarrierEventCounts {
            episodes: f[0],
            early_arrivals: f[1],
            spins: f[2],
            sleeps_by_state,
            flushes: f[3],
            flushed_lines: f[4],
            internal_wakeups: f[5],
            external_wakeups: f[6],
            early_wakeups: f[7],
            late_wakeups: f[8],
            false_wakeups: f[9],
            cutoff_disables: f[10],
            updates_skipped: f[11],
        })
}

fn arb_thread_stats() -> impl Strategy<Value = ThreadStats> {
    proptest::collection::vec(0u64..1_000_000, 10).prop_map(|v| ThreadStats {
        spin: Cycles::new(v[0]),
        yielded: Cycles::new(v[1]),
        parked: Cycles::new(v[2]),
        escalated: Cycles::new(v[3]),
        sleeps: v[4],
        spins: v[5],
        early_wakeups: v[6],
        spurious_wakeups: v[7],
        escalations: v[8],
        cutoff_disables: v[9],
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Merging N partial event-count records must equal counting once over
    /// the concatenated run: every scalar is the sum of the partials'
    /// scalars and the per-state sleep histogram is the element-wise sum.
    #[test]
    fn counts_merge_equals_counting_once(
        partials in proptest::collection::vec(arb_counts(), 1..6)
    ) {
        let mut merged = BarrierEventCounts::default();
        for p in &partials {
            merged.merge(p);
        }
        let sum = |f: fn(&BarrierEventCounts) -> u64| partials.iter().map(f).sum::<u64>();
        prop_assert_eq!(merged.episodes, sum(|c| c.episodes));
        prop_assert_eq!(merged.early_arrivals, sum(|c| c.early_arrivals));
        prop_assert_eq!(merged.spins, sum(|c| c.spins));
        prop_assert_eq!(merged.flushes, sum(|c| c.flushes));
        prop_assert_eq!(merged.flushed_lines, sum(|c| c.flushed_lines));
        prop_assert_eq!(merged.internal_wakeups, sum(|c| c.internal_wakeups));
        prop_assert_eq!(merged.external_wakeups, sum(|c| c.external_wakeups));
        prop_assert_eq!(merged.early_wakeups, sum(|c| c.early_wakeups));
        prop_assert_eq!(merged.late_wakeups, sum(|c| c.late_wakeups));
        prop_assert_eq!(merged.false_wakeups, sum(|c| c.false_wakeups));
        prop_assert_eq!(merged.cutoff_disables, sum(|c| c.cutoff_disables));
        prop_assert_eq!(merged.updates_skipped, sum(|c| c.updates_skipped));
        prop_assert_eq!(merged.total_sleeps(), sum(|c| c.total_sleeps()));
        let widest = partials.iter().map(|c| c.sleeps_by_state.len()).max().unwrap_or(0);
        prop_assert_eq!(merged.sleeps_by_state.len(), widest);
        for (i, &n) in merged.sleeps_by_state.iter().enumerate() {
            let expect: u64 = partials
                .iter()
                .map(|c| c.sleeps_by_state.get(i).copied().unwrap_or(0))
                .sum();
            prop_assert_eq!(n, expect, "state {} histogram bin", i);
        }
    }

    /// Merge order never matters, and the empty record is the identity.
    #[test]
    fn counts_merge_commutes(a in arb_counts(), b in arb_counts()) {
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(&ab, &ba);
        let mut with_identity = a.clone();
        with_identity.merge(&BarrierEventCounts::default());
        prop_assert_eq!(&with_identity, &a);
    }

    /// The runtime's per-thread stats obey the same law: folding N partials
    /// through `merge` equals summing each field once, which is exactly
    /// what `RuntimeStats::combined` relies on.
    #[test]
    fn thread_stats_merge_equals_counting_once(
        partials in proptest::collection::vec(arb_thread_stats(), 1..8)
    ) {
        let combined = RuntimeStats {
            threads: partials.clone(),
            barriers_completed: 0,
            delayed_unparks: 0,
        }
        .combined();
        let sum = |f: fn(&ThreadStats) -> u64| partials.iter().map(f).sum::<u64>();
        prop_assert_eq!(combined.spin.as_u64(), sum(|t| t.spin.as_u64()));
        prop_assert_eq!(combined.yielded.as_u64(), sum(|t| t.yielded.as_u64()));
        prop_assert_eq!(combined.parked.as_u64(), sum(|t| t.parked.as_u64()));
        prop_assert_eq!(combined.escalated.as_u64(), sum(|t| t.escalated.as_u64()));
        prop_assert_eq!(combined.sleeps, sum(|t| t.sleeps));
        prop_assert_eq!(combined.spins, sum(|t| t.spins));
        prop_assert_eq!(combined.early_wakeups, sum(|t| t.early_wakeups));
        prop_assert_eq!(combined.spurious_wakeups, sum(|t| t.spurious_wakeups));
        prop_assert_eq!(combined.escalations, sum(|t| t.escalations));
        prop_assert_eq!(combined.cutoff_disables, sum(|t| t.cutoff_disables));
        let stall_sum: u64 = partials.iter().map(|t| t.total_stall().as_u64()).sum();
        prop_assert_eq!(combined.total_stall().as_u64(), stall_sum);
        // Commutativity: reversed fold gives the same totals.
        let mut reversed = ThreadStats::default();
        for p in partials.iter().rev() {
            reversed.merge(p);
        }
        prop_assert_eq!(&reversed, &combined);
    }

    /// Conservation laws hold for every configuration on arbitrary
    /// workloads, and the configurations keep their defining properties.
    #[test]
    fn conservation_across_configs(app in arb_app(), seed in any::<u64>()) {
        let trace = app.generate(8, seed);
        let base = run_trace(&trace, 8, SystemConfig::Baseline);
        check_conservation(&base)?;
        prop_assert_eq!(base.counts.total_sleeps(), 0);
        prop_assert_eq!(base.time()[EnergyCategory::Sleep], 0.0);

        let thrifty = run_trace(&trace, 8, SystemConfig::Thrifty);
        check_conservation(&thrifty)?;
        prop_assert_eq!(base.counts.episodes, thrifty.counts.episodes);

        let ideal = run_trace(&trace, 8, SystemConfig::Ideal);
        check_conservation(&ideal)?;
        // Ideal never mispredicts: it must not lose meaningful time.
        prop_assert!(
            ideal.slowdown_vs(&base) < 0.02,
            "Ideal slowdown {}",
            ideal.slowdown_vs(&base)
        );
        // Thrifty never uses more energy than baseline by more than a
        // small guard (mispredictions can cost a little).
        prop_assert!(
            thrifty.total_energy() <= base.total_energy() * 1.05,
            "thrifty burned {} vs baseline {}",
            thrifty.total_energy(),
            base.total_energy()
        );
        // And Ideal lower-bounds Thrifty (small tolerance for divergent
        // wake-up timing).
        prop_assert!(ideal.total_energy() <= thrifty.total_energy() * 1.02);
    }

    /// Determinism: identical inputs give bit-identical reports.
    #[test]
    fn runs_are_deterministic(app in arb_app(), seed in any::<u64>()) {
        let trace = app.generate(8, seed);
        let a = run_trace(&trace, 8, SystemConfig::Thrifty);
        let b = run_trace(&trace, 8, SystemConfig::Thrifty);
        prop_assert_eq!(a.wall_time, b.wall_time);
        prop_assert!((a.total_energy() - b.total_energy()).abs() < 1e-12);
        prop_assert_eq!(a.counts.internal_wakeups, b.counts.internal_wakeups);
        prop_assert_eq!(a.counts.external_wakeups, b.counts.external_wakeups);
        prop_assert_eq!(a.instances, b.instances);
    }

    /// The measured baseline imbalance tracks the trace's analytic value
    /// for any workload (barrier overheads are second-order).
    #[test]
    fn simulated_imbalance_tracks_analytic(app in arb_app(), seed in any::<u64>()) {
        let trace = app.generate(8, seed);
        let base = run_trace(&trace, 8, SystemConfig::Baseline);
        prop_assert!(
            (base.barrier_imbalance() - trace.analytic_imbalance()).abs() < 0.03,
            "simulated {} vs analytic {}",
            base.barrier_imbalance(),
            trace.analytic_imbalance()
        );
    }

    /// Disabling the sleep table's deep states can only reduce flush
    /// counts, and Halt-only never flushes.
    #[test]
    fn halt_only_never_flushes(app in arb_app(), seed in any::<u64>()) {
        let cell = Cell::new(app, 8, seed, SystemConfig::ThriftyHalt);
        let halt = Harness::serial().run_cells_isolated(&[cell]).remove(0).report.unwrap();
        prop_assert_eq!(halt.counts.flushes, 0);
        prop_assert_eq!(halt.counts.flushed_lines, 0);
        check_conservation(&halt)?;
    }
}
