//! The five system configurations of the paper's evaluation (§5.1) and the
//! algorithm-level knobs behind them.
//!
//! | Config | Bar | Sleep states | Prediction | Flush overhead |
//! |---|---|---|---|---|
//! | Baseline | B | — (spin) | — | — |
//! | Thrifty-Halt | H | Halt only | last-value | n/a (Halt snoops) |
//! | Oracle-Halt | O | Halt only | perfect BIT | n/a |
//! | Thrifty | T | Table 3 (all three) | last-value | charged |
//! | Ideal | I | Table 3 | perfect BIT | waived |

use crate::wakeup::WakeupMode;
use serde::{Deserialize, Serialize};
use std::fmt;
use tb_energy::SleepTable;

/// Which BIT predictor the algorithm uses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PredictorChoice {
    /// PC-indexed last-value prediction (the paper's).
    LastValue,
    /// EWMA of PC-indexed BIT with the given smoothing factor (ablation).
    Averaging(f64),
    /// Direct per-thread BST last-value prediction (ablation strawman).
    DirectBst,
    /// Confidence-gated last-value prediction: a 2-bit counter per site
    /// must saturate before predictions are offered (extension ablation).
    Confidence(f64),
    /// Perfect per-instance BIT from a recorded trace (Oracle/Ideal).
    Oracle,
}

impl fmt::Display for PredictorChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PredictorChoice::LastValue => write!(f, "last-value"),
            PredictorChoice::Averaging(a) => write!(f, "ewma(alpha={a})"),
            PredictorChoice::DirectBst => write!(f, "direct-bst"),
            PredictorChoice::Confidence(t) => write!(f, "confidence(tol={t})"),
            PredictorChoice::Oracle => write!(f, "oracle"),
        }
    }
}

/// Predictor-quarantine thresholds (fault hardening): after
/// `consecutive` gross mispredictions in a row at one barrier PC — each
/// off by more than `tolerance` relative error — the site stops offering
/// predictions (falls back to plain spinning) until the 2-bit confidence
/// counter saturates again on accurate measurements.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuarantineConfig {
    /// Consecutive gross mispredictions before the site is quarantined.
    pub consecutive: u32,
    /// Relative error `|predicted − measured| / measured` above which a
    /// prediction counts as gross.
    pub tolerance: f64,
}

impl Default for QuarantineConfig {
    fn default() -> Self {
        QuarantineConfig {
            consecutive: 3,
            tolerance: 0.5,
        }
    }
}

/// A deterministic fault-injection plan (see `tb-faults`).
///
/// Every field is a per-opportunity probability (or a mean magnitude for
/// the delay-type faults); all randomness is drawn from splittable
/// `tb-sim::SimRng` streams derived from `seed`, so a plan replays
/// identically at any `--jobs` level. [`FaultPlan::none`] is the disabled
/// plan: all probabilities zero, and injection layers treat it as absent,
/// which keeps fault plumbing provably zero-cost on clean runs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Root seed of every derived fault stream.
    pub seed: u64,
    /// P(drop a barrier-flag invalidation wake-up signal).
    pub lose_wakeup: f64,
    /// P(delay a barrier-flag invalidation wake-up signal).
    pub delay_wakeup: f64,
    /// Mean of the exponential wake-up delay, in nanoseconds.
    pub delay_wakeup_mean_ns: f64,
    /// P(an armed countdown timer drifts late).
    pub timer_drift: f64,
    /// Max drift as a fraction of the programmed countdown.
    pub timer_drift_frac: f64,
    /// P(an armed countdown timer fires spuriously early).
    pub spurious_fire: f64,
    /// P(a sleep-state exit transition stalls past its rated latency).
    pub oversleep: f64,
    /// Mean of the exponential oversleep stall, in nanoseconds.
    pub oversleep_mean_ns: f64,
    /// P(a real-threads unpark analog is delayed).
    pub delay_unpark: f64,
    /// Mean of the exponential unpark delay, in nanoseconds.
    pub delay_unpark_mean_ns: f64,
    /// P(a firing guard timer wedges permanently instead of rescuing its
    /// thread). A wedged guard removes the last recovery path for a lost
    /// wake-up, so the episode can never complete — this is the class the
    /// harness-level livelock watchdog exists to catch.
    pub wedge_guard: f64,
}

impl FaultPlan {
    /// The disabled plan: nothing is ever injected.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            lose_wakeup: 0.0,
            delay_wakeup: 0.0,
            delay_wakeup_mean_ns: 0.0,
            timer_drift: 0.0,
            timer_drift_frac: 0.0,
            spurious_fire: 0.0,
            oversleep: 0.0,
            oversleep_mean_ns: 0.0,
            delay_unpark: 0.0,
            delay_unpark_mean_ns: 0.0,
            wedge_guard: 0.0,
        }
    }

    /// Whether any fault class can fire under this plan.
    pub fn enabled(&self) -> bool {
        [
            self.lose_wakeup,
            self.delay_wakeup,
            self.timer_drift,
            self.spurious_fire,
            self.oversleep,
            self.delay_unpark,
            self.wedge_guard,
        ]
        .iter()
        .any(|&p| p > 0.0)
    }

    /// The named scenarios of the fault-matrix sweep, in table order.
    pub fn scenario_names() -> &'static [&'static str] {
        &[
            "none",
            "lost-wakeup",
            "late-wakeup",
            "timer-drift",
            "spurious-timer",
            "oversleep",
            "storm",
            "hang",
        ]
    }

    /// Looks up a named scenario (case-insensitive), seeding its streams
    /// from `seed`.
    pub fn by_name(name: &str, seed: u64) -> Option<Self> {
        let base = FaultPlan {
            seed,
            ..FaultPlan::none()
        };
        let plan = match name.to_ascii_lowercase().as_str() {
            "none" => FaultPlan::none(),
            "lost-wakeup" => FaultPlan {
                lose_wakeup: 0.25,
                ..base
            },
            "late-wakeup" => FaultPlan {
                delay_wakeup: 0.5,
                delay_wakeup_mean_ns: 50_000.0,
                ..base
            },
            "timer-drift" => FaultPlan {
                timer_drift: 0.5,
                timer_drift_frac: 0.5,
                ..base
            },
            "spurious-timer" => FaultPlan {
                spurious_fire: 0.25,
                ..base
            },
            "oversleep" => FaultPlan {
                oversleep: 0.25,
                oversleep_mean_ns: 50_000.0,
                ..base
            },
            "storm" => FaultPlan {
                lose_wakeup: 0.15,
                delay_wakeup: 0.25,
                delay_wakeup_mean_ns: 50_000.0,
                timer_drift: 0.25,
                timer_drift_frac: 0.5,
                spurious_fire: 0.15,
                oversleep: 0.15,
                oversleep_mean_ns: 50_000.0,
                delay_unpark: 0.25,
                delay_unpark_mean_ns: 50_000.0,
                ..base
            },
            // Adversarial liveness scenario: lost wake-ups force threads
            // onto the guard-timer path, and every firing guard wedges, so
            // the first lost wake-up livelocks the cell. Exists to exercise
            // the harness watchdog, not the barrier's own hardening.
            "hang" => FaultPlan {
                lose_wakeup: 0.35,
                wedge_guard: 1.0,
                ..base
            },
            _ => return None,
        };
        Some(plan)
    }
}

/// Everything that parameterizes the thrifty-barrier algorithm.
#[derive(Debug, Clone)]
pub struct AlgorithmConfig {
    /// `false` = conventional spin barrier (Baseline).
    pub thrifty: bool,
    /// Predictor variant.
    pub predictor: PredictorChoice,
    /// Available sleep states.
    pub sleep_table: SleepTable,
    /// Wake-up mechanism.
    pub wakeup: WakeupMode,
    /// Profitability margin: predicted stall must exceed this multiple of
    /// a state's round-trip transition latency.
    pub min_stall_multiple: f64,
    /// §3.3.3 cut-off as a fraction of BIT; `None` disables it.
    pub overprediction_threshold: Option<f64>,
    /// §3.4.2 filter: measured BITs larger than this factor × the table
    /// entry are not installed; `None` disables it.
    pub underprediction_factor: Option<f64>,
    /// Whether deep-sleep cache flushes cost time/energy (`false` only for
    /// Ideal).
    pub flush_overhead: bool,
    /// Internal-timer anticipation margin (§3.3.2): the timer starts the
    /// exit transition this much *before* `predicted release − exit
    /// latency`, trading a little residual spin for keeping the exit
    /// latency off the critical path when the prediction is exact.
    pub wakeup_anticipation: tb_sim::Cycles,
    /// Predictor quarantine (fault hardening): `None` disables it, which
    /// is the default so clean runs are untouched.
    pub quarantine: Option<QuarantineConfig>,
}

impl AlgorithmConfig {
    /// Conventional sense-reversal spin barrier.
    pub fn baseline() -> Self {
        AlgorithmConfig {
            thrifty: false,
            predictor: PredictorChoice::LastValue,
            sleep_table: SleepTable::paper(),
            wakeup: WakeupMode::Hybrid,
            min_stall_multiple: 2.0,
            overprediction_threshold: Some(0.10),
            underprediction_factor: Some(8.0),
            flush_overhead: true,
            wakeup_anticipation: tb_sim::Cycles::from_micros(3),
            quarantine: None,
        }
    }

    /// The full thrifty barrier: all of Table 3, last-value prediction,
    /// hybrid wake-up, 10 % cut-off.
    pub fn thrifty() -> Self {
        AlgorithmConfig {
            thrifty: true,
            ..AlgorithmConfig::baseline()
        }
    }

    /// Thrifty with Halt as the only sleep state.
    pub fn thrifty_halt() -> Self {
        AlgorithmConfig {
            sleep_table: SleepTable::halt_only(),
            ..AlgorithmConfig::thrifty()
        }
    }

    /// Thrifty-Halt with perfect BIT prediction.
    pub fn oracle_halt() -> Self {
        AlgorithmConfig {
            predictor: PredictorChoice::Oracle,
            ..AlgorithmConfig::thrifty_halt()
        }
    }

    /// Perfect prediction, all sleep states, and no flushing overhead.
    pub fn ideal() -> Self {
        AlgorithmConfig {
            predictor: PredictorChoice::Oracle,
            flush_overhead: false,
            ..AlgorithmConfig::thrifty()
        }
    }

    /// Returns a copy with a different wake-up mode (ablation A1).
    pub fn with_wakeup(mut self, mode: WakeupMode) -> Self {
        self.wakeup = mode;
        self
    }

    /// Returns a copy with a different (or disabled) overprediction
    /// cut-off (experiment E8).
    pub fn with_overprediction_threshold(mut self, threshold: Option<f64>) -> Self {
        self.overprediction_threshold = threshold;
        self
    }

    /// Returns a copy with a different predictor (ablation A2).
    pub fn with_predictor(mut self, predictor: PredictorChoice) -> Self {
        self.predictor = predictor;
        self
    }

    /// Whether this configuration predicts from a recorded oracle table,
    /// which a Baseline run of the same trace has to supply.
    pub fn needs_oracle(&self) -> bool {
        self.predictor == PredictorChoice::Oracle
    }

    /// Returns a copy with predictor quarantine enabled (fault hardening).
    pub fn with_quarantine(mut self, quarantine: Option<QuarantineConfig>) -> Self {
        self.quarantine = quarantine;
        self
    }
}

/// The five named configurations of Figures 5 and 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemConfig {
    /// Conventional barriers.
    Baseline,
    /// Thrifty with Halt only.
    ThriftyHalt,
    /// Thrifty-Halt with perfect BIT prediction.
    OracleHalt,
    /// The full thrifty barrier.
    Thrifty,
    /// Perfect prediction and free flushes (lower bound).
    Ideal,
}

impl SystemConfig {
    /// All five, in the figures' bar order.
    pub const ALL: [SystemConfig; 5] = [
        SystemConfig::Baseline,
        SystemConfig::ThriftyHalt,
        SystemConfig::OracleHalt,
        SystemConfig::Thrifty,
        SystemConfig::Ideal,
    ];

    /// The single-letter label used in the figures (B, H, O, T, I).
    pub fn letter(self) -> char {
        match self {
            SystemConfig::Baseline => 'B',
            SystemConfig::ThriftyHalt => 'H',
            SystemConfig::OracleHalt => 'O',
            SystemConfig::Thrifty => 'T',
            SystemConfig::Ideal => 'I',
        }
    }

    /// Full name as used in the paper.
    pub fn name(self) -> &'static str {
        match self {
            SystemConfig::Baseline => "Baseline",
            SystemConfig::ThriftyHalt => "Thrifty-Halt",
            SystemConfig::OracleHalt => "Oracle-Halt",
            SystemConfig::Thrifty => "Thrifty",
            SystemConfig::Ideal => "Ideal",
        }
    }

    /// Whether this configuration needs a recorded oracle trace: whether
    /// its algorithm predicts from one ([`AlgorithmConfig::needs_oracle`]).
    pub fn needs_oracle(self) -> bool {
        self.algorithm_config().needs_oracle()
    }

    /// The algorithm configuration implementing this system.
    pub fn algorithm_config(self) -> AlgorithmConfig {
        match self {
            SystemConfig::Baseline => AlgorithmConfig::baseline(),
            SystemConfig::ThriftyHalt => AlgorithmConfig::thrifty_halt(),
            SystemConfig::OracleHalt => AlgorithmConfig::oracle_halt(),
            SystemConfig::Thrifty => AlgorithmConfig::thrifty(),
            SystemConfig::Ideal => AlgorithmConfig::ideal(),
        }
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn letters_match_figures() {
        let letters: String = SystemConfig::ALL.iter().map(|c| c.letter()).collect();
        assert_eq!(letters, "BHOTI");
    }

    #[test]
    fn baseline_is_not_thrifty() {
        assert!(!AlgorithmConfig::baseline().thrifty);
        assert!(AlgorithmConfig::thrifty().thrifty);
    }

    #[test]
    fn halt_configs_have_one_state() {
        assert_eq!(
            SystemConfig::ThriftyHalt
                .algorithm_config()
                .sleep_table
                .len(),
            1
        );
        assert_eq!(
            SystemConfig::OracleHalt
                .algorithm_config()
                .sleep_table
                .len(),
            1
        );
        assert_eq!(
            SystemConfig::Thrifty.algorithm_config().sleep_table.len(),
            3
        );
    }

    #[test]
    fn oracle_flags() {
        assert!(SystemConfig::OracleHalt.needs_oracle());
        assert!(SystemConfig::Ideal.needs_oracle());
        assert!(!SystemConfig::Thrifty.needs_oracle());
        for sys in SystemConfig::ALL {
            assert_eq!(sys.needs_oracle(), sys.algorithm_config().needs_oracle());
        }
        assert_eq!(
            SystemConfig::Ideal.algorithm_config().predictor,
            PredictorChoice::Oracle
        );
    }

    #[test]
    fn ideal_waives_flush_overhead() {
        assert!(!SystemConfig::Ideal.algorithm_config().flush_overhead);
        assert!(SystemConfig::Thrifty.algorithm_config().flush_overhead);
    }

    #[test]
    fn builder_knobs() {
        let c = AlgorithmConfig::thrifty()
            .with_wakeup(WakeupMode::ExternalOnly)
            .with_overprediction_threshold(None)
            .with_predictor(PredictorChoice::Averaging(0.5));
        assert_eq!(c.wakeup, WakeupMode::ExternalOnly);
        assert_eq!(c.overprediction_threshold, None);
        assert!(matches!(c.predictor, PredictorChoice::Averaging(_)));
    }

    #[test]
    fn fault_plan_scenarios_resolve() {
        assert!(!FaultPlan::none().enabled());
        for &name in FaultPlan::scenario_names() {
            let plan = FaultPlan::by_name(name, 42).unwrap_or_else(|| panic!("{name} resolves"));
            assert_eq!(plan.enabled(), name != "none", "{name}");
        }
        assert!(
            FaultPlan::by_name("LOST-WAKEUP", 1).is_some(),
            "case-insensitive"
        );
        assert!(FaultPlan::by_name("no-such-scenario", 1).is_none());
        let storm = FaultPlan::by_name("storm", 7).unwrap();
        assert_eq!(storm.seed, 7);
        assert!(storm.lose_wakeup > 0.0 && storm.oversleep > 0.0 && storm.delay_unpark > 0.0);
    }

    #[test]
    fn quarantine_defaults() {
        assert!(AlgorithmConfig::thrifty().quarantine.is_none());
        let q = QuarantineConfig::default();
        assert_eq!(q.consecutive, 3);
        let c = AlgorithmConfig::thrifty().with_quarantine(Some(q));
        assert_eq!(c.quarantine, Some(q));
    }

    #[test]
    fn names_and_display() {
        assert_eq!(SystemConfig::Thrifty.to_string(), "Thrifty");
        assert_eq!(SystemConfig::OracleHalt.name(), "Oracle-Halt");
        assert_eq!(PredictorChoice::LastValue.to_string(), "last-value");
        assert!(PredictorChoice::Averaging(0.25)
            .to_string()
            .contains("0.25"));
    }
}
