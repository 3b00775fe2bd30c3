//! Online statistics used by the machine's reporting layers.
//!
//! Everything here is streaming (O(1) memory per sample) because the
//! evaluation runs observe millions of barrier and memory events.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Streaming count/mean/variance/min/max accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use tb_sim::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.count(), 8);
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_variance() - 4.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

/// `Default` must agree with [`OnlineStats::new`]: a derived default would
/// start `min`/`max` at 0.0, which corrupts the extrema of any stream that
/// never crosses zero (e.g. all-positive latencies would report min 0.0).
impl Default for OnlineStats {
    fn default() -> Self {
        OnlineStats::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divide by N), or 0.0 with fewer than one sample.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// Coefficient of variation (σ/µ), or 0.0 when the mean is zero.
    ///
    /// The paper's Figure 3 argument is exactly a CV comparison: PC-indexed
    /// BIT has a much smaller CV than BST.
    pub fn cv(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.std_dev() / m.abs()
        }
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.mean() * self.count as f64
    }

    /// Merges another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.4} sd={:.4} min={:.4} max={:.4}",
            self.count,
            self.mean(),
            self.std_dev(),
            self.min().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN)
        )
    }
}

/// Number of linear sub-buckets per power-of-two octave in
/// [`QuantileSketch`]. 16 sub-buckets bound the relative quantile error by
/// `1/16 ≈ 6%` per octave.
const SKETCH_SUB_BUCKETS: usize = 16;
/// Octaves covering the full `u64` range (values `0..2^64`).
const SKETCH_OCTAVES: usize = 65;

/// A mergeable log-spaced quantile sketch for non-negative integer samples
/// (latencies in cycles), HDR-histogram style: one bucket row per
/// power-of-two octave, linearly subdivided, so memory is constant
/// (`65 × 16` counters) while relative error stays below ~6% across the
/// entire `u64` range.
///
/// # Examples
///
/// ```
/// use tb_sim::QuantileSketch;
///
/// let mut s = QuantileSketch::new();
/// for v in 1..=1000u64 {
///     s.push(v);
/// }
/// let p50 = s.quantile(0.50).unwrap();
/// assert!((p50 - 500.0).abs() / 500.0 < 0.07);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QuantileSketch {
    buckets: Vec<u64>,
    count: u64,
    max: u64,
}

impl QuantileSketch {
    /// Creates an empty sketch.
    pub fn new() -> Self {
        QuantileSketch {
            buckets: vec![0; SKETCH_OCTAVES * SKETCH_SUB_BUCKETS],
            count: 0,
            max: 0,
        }
    }

    fn bucket_index(v: u64) -> usize {
        if v < SKETCH_SUB_BUCKETS as u64 {
            // The first octaves are exact: one bucket per value.
            return v as usize;
        }
        let exp = 63 - v.leading_zeros() as usize;
        let sub = (v >> (exp - 4)) as usize & (SKETCH_SUB_BUCKETS - 1);
        exp * SKETCH_SUB_BUCKETS + sub
    }

    /// The representative (midpoint) value of bucket `idx`.
    fn bucket_value(idx: usize) -> f64 {
        if idx < SKETCH_SUB_BUCKETS {
            return idx as f64;
        }
        let exp = idx / SKETCH_SUB_BUCKETS;
        let sub = idx % SKETCH_SUB_BUCKETS;
        let lo = (1u128 << exp) + ((sub as u128) << (exp - 4));
        let width = 1u128 << (exp - 4);
        lo as f64 + width as f64 / 2.0
    }

    /// Records one sample.
    pub fn push(&mut self, v: u64) {
        self.buckets[Self::bucket_index(v)] += 1;
        self.count += 1;
        self.max = self.max.max(v);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The exact largest sample, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Approximate quantile `q` in `[0, 1]`, or `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        if target >= self.count {
            // The top rank is the exact maximum; don't approximate it.
            return Some(self.max as f64);
        }
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(Self::bucket_value(i).min(self.max as f64));
            }
        }
        Some(self.max as f64)
    }

    /// Merges another sketch into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.max = self.max.max(other.max);
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl fmt::Display for QuantileSketch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} p50={:.0} p95={:.0} p99={:.0} max={}",
            self.count,
            self.quantile(0.50).unwrap_or(0.0),
            self.quantile(0.95).unwrap_or(0.0),
            self.quantile(0.99).unwrap_or(0.0),
            self.max().unwrap_or(0)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zeroed() {
        let s = OnlineStats::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.sum(), 0.0);
    }

    #[test]
    fn welford_matches_naive() {
        let xs = [1.5, -2.0, 3.25, 7.0, 0.0, 4.5];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.population_variance() - var).abs() < 1e-12);
        assert_eq!(s.min(), Some(-2.0));
        assert_eq!(s.max(), Some(7.0));
    }

    #[test]
    fn merge_equals_sequential() {
        let xs: Vec<f64> = (0..50).map(|i| (i as f64) * 0.7 - 3.0).collect();
        let mut all = OnlineStats::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..20] {
            a.push(x);
        }
        for &x in &xs[20..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.population_variance() - all.population_variance()).abs() < 1e-10);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(2.0);
        let before = (a.count(), a.mean(), a.m2);
        a.merge(&OnlineStats::new());
        assert_eq!((a.count(), a.mean(), a.m2), before);

        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 2);
        assert!((empty.mean() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn default_matches_new_and_keeps_extrema_honest() {
        // Regression: the derived `Default` used to start min/max at 0.0,
        // so an all-positive stream reported min = 0.0 (and an all-negative
        // one max = 0.0).
        let mut s = OnlineStats::default();
        s.push(5.0);
        s.push(7.0);
        assert_eq!(s.min(), Some(5.0));
        assert_eq!(s.max(), Some(7.0));

        let mut neg = OnlineStats::default();
        neg.push(-3.0);
        assert_eq!(neg.max(), Some(-3.0));
        assert_eq!(neg.min(), Some(-3.0));

        // And an untouched default reports no extrema at all.
        assert_eq!(OnlineStats::default().min(), None);
        assert_eq!(OnlineStats::default().max(), None);
    }

    #[test]
    fn cv_is_relative_dispersion() {
        let mut tight = OnlineStats::new();
        let mut loose = OnlineStats::new();
        for x in [99.0, 100.0, 101.0] {
            tight.push(x);
        }
        for x in [50.0, 100.0, 150.0] {
            loose.push(x);
        }
        assert!(tight.cv() < loose.cv());
    }

    #[test]
    fn sketch_is_exact_for_small_values() {
        let mut s = QuantileSketch::new();
        for v in [0u64, 1, 2, 3, 3, 3, 9] {
            s.push(v);
        }
        assert_eq!(s.count(), 7);
        assert_eq!(s.max(), Some(9));
        assert_eq!(s.quantile(0.0), Some(0.0));
        assert_eq!(s.quantile(0.5), Some(3.0));
        assert_eq!(s.quantile(1.0), Some(9.0));
    }

    #[test]
    fn sketch_quantiles_bounded_relative_error() {
        let mut s = QuantileSketch::new();
        for v in 1..=100_000u64 {
            s.push(v);
        }
        for (q, expect) in [(0.50, 50_000.0), (0.95, 95_000.0), (0.99, 99_000.0)] {
            let got = s.quantile(q).unwrap();
            assert!(
                (got - expect).abs() / expect < 0.07,
                "q{q}: got {got}, want ~{expect}"
            );
        }
        assert!(s.quantile(0.5).unwrap() <= s.quantile(0.95).unwrap());
    }

    #[test]
    fn sketch_merge_equals_sequential() {
        let mut all = QuantileSketch::new();
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        for v in 0..5_000u64 {
            all.push(v * 17);
            if v % 2 == 0 {
                a.push(v * 17);
            } else {
                b.push(v * 17);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.max(), all.max());
        assert_eq!(a.quantile(0.9), all.quantile(0.9));
    }

    #[test]
    fn sketch_handles_extreme_values() {
        let mut s = QuantileSketch::new();
        s.push(u64::MAX);
        s.push(0);
        assert_eq!(s.quantile(0.01), Some(0.0));
        // The top quantile is clamped to the exact max.
        assert_eq!(s.quantile(1.0), Some(u64::MAX as f64));
        assert_eq!(QuantileSketch::default().quantile(0.5), None);
        assert!(!s.to_string().is_empty());
    }

    #[test]
    fn stats_display_nonempty() {
        let mut s = OnlineStats::new();
        s.push(1.0);
        assert!(!s.to_string().is_empty());
    }
}
