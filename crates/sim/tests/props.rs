//! Property-based tests of the discrete-event kernel.

use proptest::prelude::*;
use tb_sim::{Cycles, EventQueue, OnlineStats, SimRng};

proptest! {
    /// Pops come back in nondecreasing time order, FIFO among ties, and
    /// every scheduled (uncancelled) event is delivered exactly once.
    #[test]
    fn event_queue_orders_and_conserves(
        times in proptest::collection::vec(0u64..1_000, 1..200),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for (i, &t) in times.iter().enumerate() {
            ids.push((q.schedule(Cycles::new(t), i), t, i));
        }
        let mut cancelled = std::collections::HashSet::new();
        for ((id, _, i), &c) in ids.iter().zip(cancel_mask.iter().cycle()) {
            if c {
                prop_assert!(q.cancel(*id));
                cancelled.insert(*i);
            }
        }
        let mut delivered = Vec::new();
        let mut last = Cycles::ZERO;
        while let Some((at, i)) = q.pop() {
            prop_assert!(at >= last, "time order violated");
            // FIFO among equal times: sequence indices increase.
            if let Some(&(prev_at, prev_i)) = delivered.last() {
                if prev_at == at {
                    prop_assert!(i > prev_i, "FIFO violated among ties");
                }
            }
            prop_assert_eq!(Cycles::new(times[i]), at, "delivered at wrong time");
            prop_assert!(!cancelled.contains(&i), "cancelled event delivered");
            delivered.push((at, i));
            last = at;
        }
        prop_assert_eq!(delivered.len(), times.len() - cancelled.len());
    }

    /// Merging two accumulators equals accumulating the concatenation.
    #[test]
    fn stats_merge_equals_sequential(
        xs in proptest::collection::vec(-1e6f64..1e6, 0..100),
        ys in proptest::collection::vec(-1e6f64..1e6, 0..100),
    ) {
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        let mut all = OnlineStats::new();
        for &x in &xs { a.push(x); all.push(x); }
        for &y in &ys { b.push(y); all.push(y); }
        a.merge(&b);
        prop_assert_eq!(a.count(), all.count());
        if all.count() > 0 {
            prop_assert!((a.mean() - all.mean()).abs() < 1e-6 * (1.0 + all.mean().abs()));
            prop_assert!(
                (a.population_variance() - all.population_variance()).abs()
                    < 1e-4 * (1.0 + all.population_variance())
            );
        }
    }

    /// Derived RNG streams are reproducible and label/index separated.
    #[test]
    fn rng_derivation_reproducible(seed in any::<u64>(), idx in 0u64..1000) {
        let a: Vec<u64> = {
            let mut r = SimRng::new(seed).derive("x", idx);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SimRng::new(seed).derive("x", idx);
            (0..8).map(|_| r.next_u64()).collect()
        };
        prop_assert_eq!(&a, &b);
        let mut other = SimRng::new(seed).derive("x", idx.wrapping_add(1));
        let c: Vec<u64> = (0..8).map(|_| other.next_u64()).collect();
        prop_assert_ne!(a, c);
    }

    /// Uniform draws stay in range; shuffles are permutations.
    #[test]
    fn rng_ranges_and_shuffles(seed in any::<u64>(), lo in -100.0f64..0.0, width in 0.1f64..100.0) {
        let mut r = SimRng::new(seed);
        for _ in 0..100 {
            let v = r.uniform_range(lo, lo + width);
            prop_assert!(v >= lo && v < lo + width);
        }
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    /// Cycles arithmetic: saturating subtraction and deltas agree.
    #[test]
    fn cycles_delta_consistency(a in 0u64..u64::MAX / 2, b in 0u64..u64::MAX / 2) {
        let (ca, cb) = (Cycles::new(a), Cycles::new(b));
        let d = ca.delta(cb);
        prop_assert_eq!(d.abs(), if a >= b { ca - cb } else { cb - ca });
        prop_assert_eq!(d.late_by(), ca.saturating_sub(cb));
        prop_assert_eq!(d.is_positive(), a > b);
    }
}
