//! Deterministic, splittable randomness for reproducible experiments.
//!
//! Every experiment in the repository is driven by a single `u64` seed.
//! Components derive independent streams with [`SimRng::derive`], so adding
//! an RNG consumer in one module never perturbs the draws seen by another —
//! the property that keeps paper-figure regressions meaningful.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// A seeded random source with named sub-stream derivation and the
/// distributions the workload models need (normal, exponential)
/// implemented directly so no extra dependency is required.
///
/// # Examples
///
/// ```
/// use tb_sim::SimRng;
///
/// let mut a = SimRng::new(42).derive("thread", 3);
/// let mut b = SimRng::new(42).derive("thread", 3);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed + path => same draws
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    seed: u64,
    inner: SmallRng,
}

/// 64-bit mix (splitmix64 finalizer) used for stream derivation.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn hash_label(label: &str) -> u64 {
    // FNV-1a over the label bytes; only stability matters, not quality,
    // because the result is passed through `mix`.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in label.as_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

impl SimRng {
    /// Creates the root stream for a run.
    pub fn new(seed: u64) -> Self {
        SimRng {
            seed,
            inner: SmallRng::seed_from_u64(mix(seed)),
        }
    }

    /// The seed this stream was created from (root seed mixed with the
    /// derivation path).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Derives an independent child stream identified by `(label, index)`.
    ///
    /// Derivation depends only on the parent's seed and the path, never on
    /// how many values the parent has already drawn.
    pub fn derive(&self, label: &str, index: u64) -> SimRng {
        let child = mix(self.seed ^ hash_label(label).rotate_left(17) ^ mix(index));
        SimRng::new(child)
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform draw in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform draw in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "uniform_range requires lo < hi ({lo}..{hi})");
        lo + self.uniform() * (hi - lo)
    }

    /// Uniform integer in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0) is meaningless");
        self.inner.gen_range(0..n)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// Standard normal draw (Box–Muller; one value per call, the pair's
    /// second value is discarded for simplicity).
    pub fn standard_normal(&mut self) -> f64 {
        loop {
            let u1 = self.uniform();
            if u1 > 1e-300 {
                let u2 = self.uniform();
                return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            }
        }
    }

    /// Normal draw with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.standard_normal()
    }

    /// Exponential draw with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0`.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive, got {mean}");
        let u = loop {
            let u = self.uniform();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn derivation_is_path_dependent_not_draw_dependent() {
        let root = SimRng::new(99);
        let mut consumed = SimRng::new(99);
        for _ in 0..10 {
            consumed.next_u64();
        }
        let mut a = root.derive("x", 0);
        let mut b = consumed.derive("x", 0);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn derivation_separates_labels_and_indices() {
        let root = SimRng::new(5);
        let mut x0 = root.derive("x", 0);
        let mut x1 = root.derive("x", 1);
        let mut y0 = root.derive("y", 0);
        let a = x0.next_u64();
        assert_ne!(a, x1.next_u64());
        assert_ne!(a, y0.next_u64());
    }

    #[test]
    fn uniform_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn uniform_range_bounds() {
        let mut r = SimRng::new(4);
        for _ in 0..1_000 {
            let v = r.uniform_range(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn normal_moments_approximately_correct() {
        let mut r = SimRng::new(11);
        let mut s = crate::stats::OnlineStats::new();
        for _ in 0..50_000 {
            s.push(r.normal(10.0, 2.0));
        }
        assert!((s.mean() - 10.0).abs() < 0.05, "mean {}", s.mean());
        assert!((s.std_dev() - 2.0).abs() < 0.05, "sd {}", s.std_dev());
    }

    #[test]
    fn exponential_mean_approximately_correct() {
        let mut r = SimRng::new(12);
        let mut s = crate::stats::OnlineStats::new();
        for _ in 0..50_000 {
            s.push(r.exponential(5.0));
        }
        assert!((s.mean() - 5.0).abs() < 0.15, "mean {}", s.mean());
        assert!(s.min().unwrap() >= 0.0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::new(15);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(r.chance(2.0)); // clamped
    }

    #[test]
    fn below_is_in_range() {
        let mut r = SimRng::new(16);
        for _ in 0..1_000 {
            assert!(r.below(7) < 7);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = SimRng::new(17);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v,
            (0..100).collect::<Vec<_>>(),
            "astronomically unlikely identity"
        );
    }

    #[test]
    #[should_panic(expected = "below(0)")]
    fn below_zero_panics() {
        SimRng::new(1).below(0);
    }
}
