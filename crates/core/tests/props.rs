//! Property-based tests of the thrifty-barrier algorithm invariants.

use proptest::prelude::*;
use tb_core::{
    AlgorithmConfig, BarrierAlgorithm, BarrierPc, BitPredictor, LastValuePredictor, SleepPolicy,
    ThreadId, ThreadTiming,
};
use tb_energy::SleepTable;
use tb_sim::Cycles;

proptest! {
    /// best_fit returns the deepest state whose scaled round trip fits;
    /// every deeper state must not fit, and the chosen one must.
    #[test]
    fn best_fit_is_deepest_that_fits(
        stall_us in 0u64..1_000,
        margin in 1.0f64..4.0,
    ) {
        let table = SleepTable::paper();
        let stall = Cycles::from_micros(stall_us);
        match table.best_fit(stall, margin) {
            Some(id) => {
                prop_assert!(table.state(id).round_trip().scale(margin) <= stall);
                for deeper in id.index() + 1..table.len() {
                    let s = table.iter().nth(deeper).unwrap();
                    prop_assert!(
                        s.round_trip().scale(margin) > stall,
                        "a deeper state also fits"
                    );
                }
            }
            None => {
                for s in &table {
                    prop_assert!(s.round_trip().scale(margin) > stall);
                }
            }
        }
    }

    /// best_fit is monotone: a longer stall never selects a shallower
    /// state.
    #[test]
    fn best_fit_monotone_in_stall(a_us in 0u64..2_000, b_us in 0u64..2_000) {
        let table = SleepTable::paper();
        let (lo, hi) = (a_us.min(b_us), a_us.max(b_us));
        let s_lo = table.best_fit(Cycles::from_micros(lo), 2.0).map(|i| i.index());
        let s_hi = table.best_fit(Cycles::from_micros(hi), 2.0).map(|i| i.index());
        match (s_lo, s_hi) {
            (Some(a), Some(b)) => prop_assert!(a <= b),
            (Some(_), None) => prop_assert!(false, "longer stall lost its state"),
            _ => {}
        }
    }

    /// BRTS induction: after any sequence of published BITs, every
    /// thread's BRTS equals their running sum, and the last thread's
    /// measured BIT reconstructs the published value exactly.
    #[test]
    fn brts_induction_sums(bits_us in proptest::collection::vec(1u64..100_000, 1..40)) {
        let mut timing = ThreadTiming::new();
        let mut sum = Cycles::ZERO;
        for &b in &bits_us {
            let bit = Cycles::from_micros(b);
            sum += bit;
            // The releaser arriving exactly at the release measures the BIT.
            prop_assert_eq!(timing.measure_bit(sum), bit);
            prop_assert_eq!(timing.advance(bit), sum);
            prop_assert_eq!(timing.brts(), sum);
        }
    }

    /// The arrival estimate decomposes exactly: compute + predicted stall
    /// equals predicted BIT whenever the thread arrives before the
    /// predicted release.
    #[test]
    fn estimate_decomposition(
        brts_us in 0u64..100_000,
        compute_us in 0u64..50_000,
        predicted_us in 0u64..100_000,
    ) {
        let mut timing = ThreadTiming::new();
        timing.advance(Cycles::from_micros(brts_us));
        let now = Cycles::from_micros(brts_us + compute_us);
        let e = timing.estimate(now, Cycles::from_micros(predicted_us));
        prop_assert_eq!(e.compute_time, Cycles::from_micros(compute_us));
        if compute_us <= predicted_us {
            prop_assert_eq!(
                e.compute_time + e.predicted_stall,
                Cycles::from_micros(predicted_us)
            );
        } else {
            prop_assert_eq!(e.predicted_stall, Cycles::ZERO);
        }
    }

    /// Overprediction penalties are never negative and equal the late
    /// part of the wake-up exactly.
    #[test]
    fn penalty_is_late_part(brts_us in 0u64..100_000, wake_us in 0u64..200_000) {
        let mut timing = ThreadTiming::new();
        timing.advance(Cycles::from_micros(brts_us));
        let penalty = timing.overprediction_penalty(Cycles::from_micros(wake_us));
        if wake_us > brts_us {
            prop_assert_eq!(penalty, Cycles::from_micros(wake_us - brts_us));
        } else {
            prop_assert_eq!(penalty, Cycles::ZERO);
        }
    }

    /// Last-value prediction returns exactly the last accepted update, to
    /// every thread.
    #[test]
    fn last_value_returns_last_accepted(
        updates_us in proptest::collection::vec(1u64..1_000_000, 1..30),
    ) {
        let pc = BarrierPc::new(0x10);
        let mut p = LastValuePredictor::new(None);
        let mut last = None;
        for (i, &u) in updates_us.iter().enumerate() {
            p.update(pc, i as u64, Cycles::from_micros(u));
            last = Some(Cycles::from_micros(u));
        }
        for t in 0..8 {
            prop_assert_eq!(p.predict(pc, 99, ThreadId::new(t)), last);
        }
    }

    /// The filtered predictor never installs a measurement more than
    /// `factor` times the current entry.
    #[test]
    fn underprediction_filter_bounds_growth(
        updates_us in proptest::collection::vec(1u64..10_000_000, 2..40),
        factor in 1.5f64..16.0,
    ) {
        let pc = BarrierPc::new(0x20);
        let mut p = LastValuePredictor::new(Some(factor));
        let mut entry: Option<u64> = None;
        for (i, &u) in updates_us.iter().enumerate() {
            let outcome = p.update(pc, i as u64, Cycles::from_micros(u));
            match entry {
                Some(prev) if (u as f64) > (prev as f64) * factor => {
                    prop_assert_eq!(outcome, tb_core::UpdateOutcome::SkippedInordinate);
                }
                _ => {
                    prop_assert_eq!(outcome, tb_core::UpdateOutcome::Applied);
                    entry = Some(u);
                }
            }
            prop_assert_eq!(
                p.predict(pc, i as u64 + 1, ThreadId::new(0)),
                entry.map(Cycles::from_micros)
            );
        }
    }

    /// A full algorithm episode driven with arbitrary (ordered) arrival
    /// times keeps every invariant: the measured BIT equals release minus
    /// previous release, all threads end with identical BRTS, and sleep
    /// decisions only fire with enough predicted stall.
    #[test]
    fn algorithm_episodes_maintain_invariants(
        episode_arrivals in proptest::collection::vec(
            proptest::collection::vec(1u64..50_000, 4),
            2..12,
        ),
    ) {
        let threads = 4;
        let pc = BarrierPc::new(0x33);
        let mut algo = BarrierAlgorithm::new(AlgorithmConfig::thrifty(), threads);
        let policy = SleepPolicy::paper();
        let mut release = Cycles::ZERO;
        for offsets in &episode_arrivals {
            // Arrival times: release + per-thread offset; the largest
            // offset arrives last.
            let mut order: Vec<usize> = (0..threads).collect();
            order.sort_by_key(|&t| offsets[t]);
            let last = *order.last().unwrap();
            for &t in &order[..threads - 1] {
                let now = release + Cycles::from_micros(offsets[t]);
                let d = algo.on_early_arrival(ThreadId::new(t), pc, now);
                if let tb_core::SleepChoice::Sleep { state, .. } = d.choice {
                    let stall = d.predicted_stall.expect("sleeping needs a prediction");
                    prop_assert!(
                        policy.table().state(state).round_trip().scale(2.0) <= stall
                    );
                }
            }
            let last_now = release + Cycles::from_micros(offsets[last]);
            let rel = algo.on_last_arrival(ThreadId::new(last), pc, last_now);
            prop_assert_eq!(rel.measured_bit, last_now - release);
            release = last_now;
            for t in 0..threads {
                let f = algo.finish_barrier(ThreadId::new(t), pc, release);
                prop_assert_eq!(f.new_brts, release);
                prop_assert_eq!(f.penalty, Cycles::ZERO, "on-time wake has no penalty");
            }
            for t in 0..threads {
                prop_assert_eq!(algo.brts(ThreadId::new(t)), release);
            }
        }
    }
}
