//! The `sleep()` decision (§3.1): spin, or pick a sleep state.
//!
//! The paper encapsulates sleep-state selection in a run-time library call
//! that scans a table for the deepest state usable within the estimated
//! stall time, returning immediately (the thread then spins) when not even
//! the shallowest state fits. [`SleepPolicy`] is that call, with the
//! profitability margin as an explicit knob so the evaluation can sweep it.
//! Whether a thread gets a prediction to decide on at all — the §3.3.3
//! overprediction cut-off — is the per-site gate's call in
//! [`BarrierAlgorithm`](crate::BarrierAlgorithm), not this policy's.

use serde::{Deserialize, Serialize};
use std::fmt;
use tb_energy::{SleepState, SleepStateId, SleepTable};
use tb_sim::Cycles;

/// What an early-arriving thread decided to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SleepChoice {
    /// Spin on the barrier flag, the conventional way.
    Spin,
    /// Enter the given sleep state.
    Sleep {
        /// The chosen state (an index into the policy's table).
        state: SleepStateId,
        /// Whether dirty shared data must be flushed first (the state's
        /// cache cannot service coherence requests).
        needs_flush: bool,
    },
}

impl SleepChoice {
    /// `true` when the thread spins.
    pub fn is_spin(&self) -> bool {
        matches!(self, SleepChoice::Spin)
    }

    /// `true` when the thread sleeps.
    pub fn is_sleep(&self) -> bool {
        matches!(self, SleepChoice::Sleep { .. })
    }

    /// The chosen state, if sleeping.
    pub fn state(&self) -> Option<SleepStateId> {
        match self {
            SleepChoice::Sleep { state, .. } => Some(*state),
            SleepChoice::Spin => None,
        }
    }
}

impl fmt::Display for SleepChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SleepChoice::Spin => write!(f, "spin"),
            SleepChoice::Sleep { state, needs_flush } => {
                write!(
                    f,
                    "sleep({state}{})",
                    if *needs_flush { ", flush" } else { "" }
                )
            }
        }
    }
}

/// The sleep-selection policy: a sleep-state table plus the profitability
/// margin.
#[derive(Debug, Clone)]
pub struct SleepPolicy {
    table: SleepTable,
    min_stall_multiple: f64,
}

impl SleepPolicy {
    /// Creates a policy over `table`.
    ///
    /// * `min_stall_multiple` — how many round-trip transition latencies of
    ///   predicted stall must lie ahead for a state to be considered
    ///   (≥ 1.0; 2.0 by default elsewhere).
    ///
    /// # Panics
    ///
    /// Panics if `min_stall_multiple < 1.0`.
    pub fn new(table: SleepTable, min_stall_multiple: f64) -> Self {
        assert!(
            min_stall_multiple >= 1.0,
            "min stall multiple must be >= 1.0, got {min_stall_multiple}"
        );
        SleepPolicy {
            table,
            min_stall_multiple,
        }
    }

    /// The paper's configuration: Table 3 states, 2× profitability margin.
    pub fn paper() -> Self {
        SleepPolicy::new(SleepTable::paper(), 2.0)
    }

    /// The sleep-state table.
    pub fn table(&self) -> &SleepTable {
        &self.table
    }

    /// The profitability margin.
    pub fn min_stall_multiple(&self) -> f64 {
        self.min_stall_multiple
    }

    /// The `sleep()` call: given the predicted stall (or `None` when no
    /// prediction is available), choose a state or spin.
    pub fn decide(&self, predicted_stall: Option<Cycles>) -> SleepChoice {
        let Some(stall) = predicted_stall else {
            return SleepChoice::Spin;
        };
        match self.table.best_fit(stall, self.min_stall_multiple) {
            Some(id) => SleepChoice::Sleep {
                state: id,
                needs_flush: !self.table.state(id).snoops(),
            },
            None => SleepChoice::Spin,
        }
    }

    /// The state behind a choice made by this policy.
    ///
    /// # Panics
    ///
    /// Panics if the id came from a different (larger) table.
    pub fn state(&self, id: SleepStateId) -> &SleepState {
        self.table.state(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_prediction_means_spin() {
        let p = SleepPolicy::paper();
        assert_eq!(p.decide(None), SleepChoice::Spin);
    }

    #[test]
    fn short_stall_means_spin() {
        let p = SleepPolicy::paper();
        // Halt round-trip is 20µs; with 2x margin anything under 40µs spins.
        assert!(p.decide(Some(Cycles::from_micros(30))).is_spin());
    }

    #[test]
    fn deep_stall_picks_sleep3_with_flush() {
        let p = SleepPolicy::paper();
        match p.decide(Some(Cycles::from_millis(5))) {
            SleepChoice::Sleep { state, needs_flush } => {
                assert_eq!(p.state(state).name(), "Sleep3");
                assert!(needs_flush, "Sleep3 cannot snoop");
            }
            SleepChoice::Spin => panic!("expected sleep"),
        }
    }

    #[test]
    fn halt_needs_no_flush() {
        let p = SleepPolicy::paper();
        match p.decide(Some(Cycles::from_micros(50))) {
            SleepChoice::Sleep { state, needs_flush } => {
                assert_eq!(p.state(state).name(), "Sleep1 (Halt)");
                assert!(!needs_flush, "Halt keeps snooping");
            }
            SleepChoice::Spin => panic!("expected sleep"),
        }
    }

    #[test]
    fn intermediate_stall_picks_sleep2() {
        let p = SleepPolicy::paper();
        // Sleep2 RT 30µs (needs 60µs at 2x); Sleep3 RT 70µs (needs 140µs).
        let c = p.decide(Some(Cycles::from_micros(100)));
        assert_eq!(p.state(c.state().unwrap()).name(), "Sleep2");
    }

    #[test]
    fn choice_accessors() {
        let p = SleepPolicy::paper();
        let c = p.decide(Some(Cycles::from_millis(1)));
        assert!(c.is_sleep());
        assert!(!c.is_spin());
        assert!(c.state().is_some());
        assert_eq!(SleepChoice::Spin.state(), None);
        assert!(c.to_string().starts_with("sleep("));
        assert_eq!(SleepChoice::Spin.to_string(), "spin");
    }

    #[test]
    #[should_panic(expected = "min stall multiple")]
    fn margin_below_one_rejected() {
        let _ = SleepPolicy::new(SleepTable::paper(), 0.9);
    }
}
