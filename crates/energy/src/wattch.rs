//! Wattch-style architectural power model (§4.3 of the paper).
//!
//! The paper integrates Wattch into its simulator for *active* power and
//! stresses that Wattch is only reliable in relative terms. It therefore
//! (1) microbenchmarks a worst-case instruction mix to estimate TDPmax,
//! (2) takes the published *ratios* between datasheet TDPmax and sleep-state
//! powers, and (3) applies those ratios to the simulated TDPmax. We follow
//! the same recipe: [`WattchModel`] carries per-component peak powers and
//! activity factors, [`WattchModel::microbench_tdp_max`] evaluates the
//! worst-case mix, and [`PowerModel`] packages the derived operating powers.
//!
//! The paper also reports that, averaged over its applications, the barrier
//! spin-loop draws about 85 % of regular compute power; the default activity
//! factors below reproduce that ratio from first principles (a spin loop
//! saturates fetch and the L1 but leaves the FP/integer units and L2 nearly
//! idle).

use std::fmt;

/// One architectural component with its peak power share and activity
/// factors under the two active workload classes.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    name: &'static str,
    /// Fraction of chip peak power this component accounts for.
    peak_share: f64,
    /// Activity factor (0..=1) during ordinary computation.
    compute_activity: f64,
    /// Activity factor (0..=1) while executing a barrier spin-loop.
    spin_activity: f64,
}

impl Component {
    /// Creates a component description.
    ///
    /// # Panics
    ///
    /// Panics if any factor lies outside `[0, 1]`.
    pub fn new(
        name: &'static str,
        peak_share: f64,
        compute_activity: f64,
        spin_activity: f64,
    ) -> Self {
        for (label, v) in [
            ("peak_share", peak_share),
            ("compute_activity", compute_activity),
            ("spin_activity", spin_activity),
        ] {
            assert!(
                (0.0..=1.0).contains(&v),
                "component {name}: {label} must be in [0,1], got {v}"
            );
        }
        Component {
            name,
            peak_share,
            compute_activity,
            spin_activity,
        }
    }

    /// Component name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Fraction of chip peak power.
    pub fn peak_share(&self) -> f64 {
        self.peak_share
    }
}

/// A six-issue out-of-order processor modeled as a set of components with
/// activity-dependent power, in the spirit of Wattch.
#[derive(Debug, Clone, PartialEq)]
pub struct WattchModel {
    components: Vec<Component>,
    /// Chip peak power at worst-case activity, in watts.
    peak_watts: f64,
}

impl WattchModel {
    /// The default model of the paper's 1 GHz six-issue dynamic CPU
    /// (Table 1), with a 60 W worst-case envelope — representative of
    /// high-end server processors of the period (e.g. the Intel Xeon the
    /// paper cites).
    ///
    /// Component peak shares follow the familiar Wattch breakdown for a
    /// dynamically scheduled core; activity factors are set so that the
    /// spin/compute power ratio lands at the paper's measured ~0.85.
    pub fn default_six_issue() -> Self {
        WattchModel::from_components(
            vec![
                Component::new("fetch+bpred", 0.18, 0.80, 0.90),
                Component::new("rename", 0.04, 0.70, 0.60),
                Component::new("issue-window", 0.16, 0.75, 0.50),
                Component::new("regfile", 0.08, 0.70, 0.50),
                Component::new("fu(int+fp)", 0.22, 0.65, 0.30),
                Component::new("l1-caches", 0.16, 0.70, 0.90),
                Component::new("l2-cache", 0.08, 0.40, 0.05),
                Component::new("clock-tree", 0.08, 1.00, 1.00),
            ],
            60.0,
        )
    }

    /// Builds a model from explicit components.
    ///
    /// # Panics
    ///
    /// Panics if the peak shares do not sum to 1 (±1 %), if there are no
    /// components, or if `peak_watts` is not positive.
    pub fn from_components(components: Vec<Component>, peak_watts: f64) -> Self {
        assert!(!components.is_empty(), "a power model needs components");
        assert!(peak_watts > 0.0, "peak power must be positive");
        let share_sum: f64 = components.iter().map(|c| c.peak_share).sum();
        assert!(
            (share_sum - 1.0).abs() < 0.01,
            "component peak shares must sum to 1.0, got {share_sum}"
        );
        WattchModel {
            components,
            peak_watts,
        }
    }

    /// The components of the model.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// "Runs" the worst-case instruction-mix microbenchmark: every component
    /// at activity 1.0. This is the model's TDPmax, the reference for the
    /// sleep-state ratios of Table 3.
    pub fn microbench_tdp_max(&self) -> f64 {
        self.peak_watts
            * self
                .components
                .iter()
                .map(|c| c.peak_share * 1.0)
                .sum::<f64>()
    }

    /// Average power while executing application code, in watts.
    pub fn compute_power(&self) -> f64 {
        self.peak_watts
            * self
                .components
                .iter()
                .map(|c| c.peak_share * c.compute_activity)
                .sum::<f64>()
    }

    /// Average power while executing the barrier spin-loop, in watts.
    pub fn spin_power(&self) -> f64 {
        self.peak_watts
            * self
                .components
                .iter()
                .map(|c| c.peak_share * c.spin_activity)
                .sum::<f64>()
    }
}

/// The derived operating powers used throughout the simulation, in watts.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    tdp_max: f64,
    compute: f64,
    spin: f64,
}

impl PowerModel {
    /// The paper's configuration, derived from
    /// [`WattchModel::default_six_issue`].
    pub fn paper() -> Self {
        PowerModel::from_wattch(&WattchModel::default_six_issue())
    }

    /// Derives operating powers from a Wattch model.
    pub fn from_wattch(model: &WattchModel) -> Self {
        PowerModel {
            tdp_max: model.microbench_tdp_max(),
            compute: model.compute_power(),
            spin: model.spin_power(),
        }
    }

    /// Builds a model from explicit powers (for tests and ablations).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < spin <= compute <= tdp_max`.
    pub fn from_raw(tdp_max: f64, compute: f64, spin: f64) -> Self {
        assert!(
            0.0 < spin && spin <= compute && compute <= tdp_max,
            "powers must satisfy 0 < spin <= compute <= tdp_max \
             (got spin={spin}, compute={compute}, tdp_max={tdp_max})"
        );
        PowerModel {
            tdp_max,
            compute,
            spin,
        }
    }

    /// Maximum thermal design power, watts.
    pub fn tdp_max(&self) -> f64 {
        self.tdp_max
    }

    /// Average power while computing, watts.
    pub fn compute_watts(&self) -> f64 {
        self.compute
    }

    /// Average power while spinning at a barrier, watts.
    pub fn spin_watts(&self) -> f64 {
        self.spin
    }

    /// Ratio of spin power to compute power (paper: ≈ 0.85).
    pub fn spin_ratio(&self) -> f64 {
        self.spin / self.compute
    }
}

impl fmt::Display for PowerModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "TDPmax={:.1}W compute={:.1}W spin={:.1}W (spin/compute={:.3})",
            self.tdp_max,
            self.compute,
            self.spin,
            self.spin_ratio()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_model_shares_sum_to_one() {
        let m = WattchModel::default_six_issue();
        let sum: f64 = m.components().iter().map(|c| c.peak_share()).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn microbench_tdp_equals_peak() {
        let m = WattchModel::default_six_issue();
        assert!((m.microbench_tdp_max() - 60.0).abs() < 1e-9);
    }

    #[test]
    fn spin_to_compute_ratio_matches_paper() {
        // §4.3: "the power consumption of executing the spinloop is about
        // 85% of that of regular computation".
        let p = PowerModel::paper();
        assert!(
            (p.spin_ratio() - 0.85).abs() < 0.02,
            "spin/compute ratio {} should be ~0.85",
            p.spin_ratio()
        );
    }

    #[test]
    fn power_ordering_holds() {
        let p = PowerModel::paper();
        assert!(p.spin_watts() < p.compute_watts());
        assert!(p.compute_watts() < p.tdp_max());
    }

    #[test]
    fn from_raw_validates() {
        let p = PowerModel::from_raw(100.0, 75.0, 60.0);
        assert_eq!(p.tdp_max(), 100.0);
        assert!((p.spin_ratio() - 0.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "powers must satisfy")]
    fn from_raw_rejects_inverted() {
        let _ = PowerModel::from_raw(50.0, 75.0, 60.0);
    }

    #[test]
    #[should_panic(expected = "must sum to 1.0")]
    fn bad_shares_rejected() {
        let _ = WattchModel::from_components(vec![Component::new("x", 0.5, 1.0, 1.0)], 10.0);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn bad_activity_rejected() {
        let _ = Component::new("x", 0.5, 1.5, 1.0);
    }

    #[test]
    fn display_is_informative() {
        let s = PowerModel::paper().to_string();
        assert!(s.contains("TDPmax"));
        assert!(s.contains("spin"));
    }
}
