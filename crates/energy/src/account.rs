//! Per-CPU energy and time accounting, in the four categories of the
//! paper's Figures 5 and 6: Compute, Spin, Transition, Sleep.
//!
//! Energy is power × time; the ledger stores joules and cycles per category
//! so any figure can be rebuilt exactly. Transition intervals are charged at
//! the average of the endpoint powers, matching the paper's assumption that
//! "power consumption changes linearly along the transition latency".

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};
use tb_sim::Cycles;

/// The category an interval of a CPU's life belongs to.
///
/// `Compute` includes every stall that is not barrier-related (memory, lock
/// contention), exactly as in §5.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EnergyCategory {
    /// Executing application code (including non-barrier stalls).
    Compute,
    /// Spinning on a barrier flag.
    Spin,
    /// Transitioning into or out of a low-power sleep state.
    Transition,
    /// Resident in a low-power sleep state.
    Sleep,
}

impl EnergyCategory {
    /// All categories in the display order of the paper's figures.
    pub const ALL: [EnergyCategory; 4] = [
        EnergyCategory::Compute,
        EnergyCategory::Spin,
        EnergyCategory::Transition,
        EnergyCategory::Sleep,
    ];

    /// Stable index in `0..4`.
    pub fn index(self) -> usize {
        match self {
            EnergyCategory::Compute => 0,
            EnergyCategory::Spin => 1,
            EnergyCategory::Transition => 2,
            EnergyCategory::Sleep => 3,
        }
    }

    /// Human-readable label used in tables.
    pub fn label(self) -> &'static str {
        match self {
            EnergyCategory::Compute => "Compute",
            EnergyCategory::Spin => "Spin",
            EnergyCategory::Transition => "Transition",
            EnergyCategory::Sleep => "Sleep",
        }
    }
}

impl fmt::Display for EnergyCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-category totals of some additive quantity (joules or cycles).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CategoryBreakdown {
    values: [f64; 4],
}

impl CategoryBreakdown {
    /// An all-zero breakdown.
    pub fn new() -> Self {
        CategoryBreakdown::default()
    }

    /// Sum across categories.
    pub fn total(&self) -> f64 {
        self.values.iter().sum()
    }

    /// Each category as a fraction of this breakdown's own total
    /// (all zeros when the total is zero).
    pub fn fractions(&self) -> CategoryBreakdown {
        let t = self.total();
        if t == 0.0 {
            return CategoryBreakdown::new();
        }
        let mut out = CategoryBreakdown::new();
        for c in EnergyCategory::ALL {
            out[c] = self[c] / t;
        }
        out
    }

    /// Each category scaled by `1/denominator` — used to normalize a
    /// configuration's breakdown to the Baseline total, as in Figures 5-6.
    ///
    /// # Panics
    ///
    /// Panics if `denominator` is zero or negative.
    pub fn normalized_to(&self, denominator: f64) -> CategoryBreakdown {
        assert!(
            denominator > 0.0,
            "normalization denominator must be positive"
        );
        let mut out = CategoryBreakdown::new();
        for c in EnergyCategory::ALL {
            out[c] = self[c] / denominator;
        }
        out
    }

    /// Adds another breakdown element-wise.
    pub fn add(&mut self, other: &CategoryBreakdown) {
        for c in EnergyCategory::ALL {
            self[c] += other[c];
        }
    }
}

impl Index<EnergyCategory> for CategoryBreakdown {
    type Output = f64;
    fn index(&self, c: EnergyCategory) -> &f64 {
        &self.values[c.index()]
    }
}

impl IndexMut<EnergyCategory> for CategoryBreakdown {
    fn index_mut(&mut self, c: EnergyCategory) -> &mut f64 {
        &mut self.values[c.index()]
    }
}

impl fmt::Display for CategoryBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for c in EnergyCategory::ALL {
            if !first {
                write!(f, " ")?;
            }
            first = false;
            write!(f, "{}={:.4}", c.label(), self[c])?;
        }
        Ok(())
    }
}

/// The energy/time ledger of one CPU.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CpuLedger {
    energy_joules: CategoryBreakdown,
    time_cycles: CategoryBreakdown,
}

impl CpuLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        CpuLedger::default()
    }

    /// Records `duration` spent in `category` drawing `power_watts`.
    ///
    /// # Panics
    ///
    /// Panics if `power_watts` is negative or not finite.
    pub fn record(&mut self, category: EnergyCategory, duration: Cycles, power_watts: f64) {
        assert!(
            power_watts.is_finite() && power_watts >= 0.0,
            "power must be finite and non-negative, got {power_watts}"
        );
        let secs = duration.as_secs_f64();
        self.energy_joules[category] += power_watts * secs;
        self.time_cycles[category] += duration.as_u64() as f64;
    }

    /// Records a linear power ramp from `from_watts` to `to_watts` over
    /// `duration`, charged to `Transition`.
    pub fn record_transition(&mut self, duration: Cycles, from_watts: f64, to_watts: f64) {
        self.record(
            EnergyCategory::Transition,
            duration,
            0.5 * (from_watts + to_watts),
        );
    }

    /// Energy per category, joules.
    pub fn energy(&self) -> &CategoryBreakdown {
        &self.energy_joules
    }

    /// Time per category, cycles.
    pub fn time(&self) -> &CategoryBreakdown {
        &self.time_cycles
    }

    /// Total energy, joules.
    pub fn total_energy(&self) -> f64 {
        self.energy_joules.total()
    }

    /// Total accounted time, cycles.
    pub fn total_time(&self) -> f64 {
        self.time_cycles.total()
    }

    /// Merges another CPU's ledger into this one.
    pub fn merge(&mut self, other: &CpuLedger) {
        self.energy_joules.add(&other.energy_joules);
        self.time_cycles.add(&other.time_cycles);
    }
}

/// Ledgers for every CPU of a simulated machine.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MachineLedger {
    cpus: Vec<CpuLedger>,
}

impl MachineLedger {
    /// Creates a ledger for `n_cpus` processors.
    ///
    /// # Panics
    ///
    /// Panics if `n_cpus` is zero.
    pub fn new(n_cpus: usize) -> Self {
        assert!(n_cpus > 0, "a machine needs at least one CPU");
        MachineLedger {
            cpus: vec![CpuLedger::new(); n_cpus],
        }
    }

    /// Number of CPUs.
    pub fn len(&self) -> usize {
        self.cpus.len()
    }

    /// `true` when there are no CPUs (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.cpus.is_empty()
    }

    /// The ledger of one CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn cpu(&self, cpu: usize) -> &CpuLedger {
        &self.cpus[cpu]
    }

    /// Mutable ledger of one CPU.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn cpu_mut(&mut self, cpu: usize) -> &mut CpuLedger {
        &mut self.cpus[cpu]
    }

    /// Iterates over per-CPU ledgers.
    pub fn iter(&self) -> std::slice::Iter<'_, CpuLedger> {
        self.cpus.iter()
    }

    /// Machine-wide energy per category, joules.
    pub fn energy(&self) -> CategoryBreakdown {
        let mut out = CategoryBreakdown::new();
        for c in &self.cpus {
            out.add(c.energy());
        }
        out
    }

    /// Machine-wide CPU-time per category, cycles (sums over CPUs, so the
    /// total is `n_cpus ×` wall-clock when every cycle is accounted).
    pub fn time(&self) -> CategoryBreakdown {
        let mut out = CategoryBreakdown::new();
        for c in &self.cpus {
            out.add(c.time());
        }
        out
    }

    /// Machine-wide total energy, joules.
    pub fn total_energy(&self) -> f64 {
        self.energy().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_indices_are_stable_and_distinct() {
        let idx: Vec<usize> = EnergyCategory::ALL.iter().map(|c| c.index()).collect();
        assert_eq!(idx, vec![0, 1, 2, 3]);
    }

    #[test]
    fn record_accumulates_energy_and_time() {
        let mut l = CpuLedger::new();
        // 1 ms at 50 W = 0.05 J.
        l.record(EnergyCategory::Compute, Cycles::from_millis(1), 50.0);
        l.record(EnergyCategory::Compute, Cycles::from_millis(1), 50.0);
        assert!((l.energy()[EnergyCategory::Compute] - 0.1).abs() < 1e-12);
        assert_eq!(l.time()[EnergyCategory::Compute], 2e6);
        assert_eq!(l.time()[EnergyCategory::Spin], 0.0);
    }

    #[test]
    fn transition_uses_average_power() {
        let mut l = CpuLedger::new();
        // 10 µs ramping 60 W -> 20 W: average 40 W -> 0.4 mJ.
        l.record_transition(Cycles::from_micros(10), 60.0, 20.0);
        assert!((l.energy()[EnergyCategory::Transition] - 4e-4).abs() < 1e-12);
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut l = CpuLedger::new();
        l.record(EnergyCategory::Compute, Cycles::from_millis(3), 10.0);
        l.record(EnergyCategory::Spin, Cycles::from_millis(1), 10.0);
        let f = l.energy().fractions();
        assert!((f.total() - 1.0).abs() < 1e-12);
        assert!((f[EnergyCategory::Compute] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_fractions_are_zero() {
        assert_eq!(CategoryBreakdown::new().fractions().total(), 0.0);
    }

    #[test]
    fn normalization_to_baseline() {
        let mut thrifty = CategoryBreakdown::new();
        thrifty[EnergyCategory::Compute] = 8.0;
        thrifty[EnergyCategory::Sleep] = 1.0;
        let norm = thrifty.normalized_to(10.0); // baseline total = 10 J
        assert!((norm.total() - 0.9).abs() < 1e-12, "90% of baseline");
    }

    #[test]
    #[should_panic(expected = "denominator must be positive")]
    fn normalization_rejects_zero() {
        let _ = CategoryBreakdown::new().normalized_to(0.0);
    }

    #[test]
    #[should_panic(expected = "power must be finite")]
    fn negative_power_rejected() {
        CpuLedger::new().record(EnergyCategory::Sleep, Cycles::new(1), -1.0);
    }

    #[test]
    fn machine_ledger_aggregates() {
        let mut m = MachineLedger::new(4);
        for cpu in 0..4 {
            m.cpu_mut(cpu)
                .record(EnergyCategory::Compute, Cycles::from_millis(1), 25.0);
        }
        assert_eq!(m.len(), 4);
        assert!((m.total_energy() - 4.0 * 0.025).abs() < 1e-12);
        assert_eq!(m.time()[EnergyCategory::Compute], 4e6);
        assert_eq!(m.iter().count(), 4);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = CpuLedger::new();
        let mut b = CpuLedger::new();
        a.record(EnergyCategory::Sleep, Cycles::from_micros(10), 2.0);
        b.record(EnergyCategory::Sleep, Cycles::from_micros(30), 2.0);
        a.merge(&b);
        assert_eq!(a.time()[EnergyCategory::Sleep], 40_000.0);
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpu_machine_rejected() {
        let _ = MachineLedger::new(0);
    }

    #[test]
    fn display_contains_all_labels() {
        let s = CategoryBreakdown::new().to_string();
        for c in EnergyCategory::ALL {
            assert!(s.contains(c.label()), "missing {c}");
        }
    }
}
