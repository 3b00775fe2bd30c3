//! Barrier interval time (BIT) prediction (§3.2 of the paper).
//!
//! The key insight of the paper is *indirect* stall-time estimation: the
//! per-thread barrier stall time (BST) is noisy, but the barrier interval
//! time — release-to-release, a thread-independent quantity — is highly
//! stable when indexed by the barrier's program counter. Simple last-value
//! prediction of PC-indexed BIT then suffices, and each thread derives its
//! own BST by subtracting its (known) compute time.
//!
//! This module provides the paper's predictor ([`LastValuePredictor`]) plus
//! the variants exercised by the ablation studies: an exponentially-weighted
//! averaging predictor, a *direct* per-thread BST predictor (to demonstrate
//! why the paper's indirection wins), and a recorded-trace oracle used for
//! the Oracle-Halt and Ideal configurations.
//!
//! The paper's **underprediction filter (§3.4.2)** is built in: when the
//! measured BIT is inordinately larger than the table entry (context
//! switch, I/O), the entry is left unchanged so one outlier does not poison
//! prediction.
//!
//! A predictor only answers *what* the next BIT will be. *Whether* a thread
//! may use an answer — the §3.3.3 overprediction cut-off and the fault
//! quarantine — is decided by one per-site gate in
//! [`BarrierAlgorithm`](crate::BarrierAlgorithm), which asks the gate before
//! it calls [`BitPredictor::predict`].

use crate::barrier::ThreadId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use tb_sim::Cycles;

/// The program counter identifying a static barrier site.
///
/// In SPMD codes the PC of the barrier call identifies the computation
/// phase ending at it (§3.2); non-SPMD codes would use the barrier
/// structure's address instead — any stable `u64` works.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BarrierPc(u64);

impl BarrierPc {
    /// Creates a site identifier.
    pub const fn new(pc: u64) -> Self {
        BarrierPc(pc)
    }

    /// The raw identifier.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for BarrierPc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pc:{:#x}", self.0)
    }
}

/// What happened when the last-arriving thread offered a measured BIT to
/// the predictor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum UpdateOutcome {
    /// The table entry was updated.
    Applied,
    /// The measurement was inordinately large (preemption / I/O, §3.4.2)
    /// and was ignored.
    SkippedInordinate,
}

/// A barrier interval time predictor.
///
/// `instance` is the per-site dynamic instance counter (0 for the first
/// execution of the site); history predictors ignore it, the oracle keys
/// on it.
pub trait BitPredictor: fmt::Debug {
    /// Predicts the BIT for the upcoming instance of `pc` as observed by
    /// `thread`, or `None` when no usable history exists.
    fn predict(&self, pc: BarrierPc, instance: u64, thread: ThreadId) -> Option<Cycles>;

    /// Offers the measured BIT of the just-released instance (called by the
    /// last-arriving thread). Returns whether the table accepted it.
    fn update(&mut self, pc: BarrierPc, instance: u64, measured: Cycles) -> UpdateOutcome;

    /// Offers a thread's measured BST for the just-released instance.
    /// Only direct-BST predictors use this; the default ignores it.
    fn update_bst(&mut self, _pc: BarrierPc, _thread: ThreadId, _measured: Cycles) {}
}

/// The paper's predictor: PC-indexed last-value prediction with the
/// underprediction filter.
#[derive(Debug, Clone)]
pub struct LastValuePredictor {
    entries: HashMap<BarrierPc, Cycles>,
    /// Measurements larger than `underprediction_factor ×` the current
    /// entry are treated as inordinate and skipped. `None` disables the
    /// filter.
    underprediction_factor: Option<f64>,
}

impl LastValuePredictor {
    /// Creates a predictor with the underprediction filter at the given
    /// factor (the paper tunes this per system; 8× is our default — an
    /// interval eight times longer than the previous one for the *same*
    /// barrier almost certainly contains a preemption).
    ///
    /// # Panics
    ///
    /// Panics if the factor is not greater than 1.
    pub fn new(underprediction_factor: Option<f64>) -> Self {
        if let Some(f) = underprediction_factor {
            assert!(f > 1.0, "underprediction factor must exceed 1, got {f}");
        }
        LastValuePredictor {
            entries: HashMap::new(),
            underprediction_factor,
        }
    }

    /// The default configuration used by the evaluation.
    pub fn with_defaults() -> Self {
        LastValuePredictor::new(Some(8.0))
    }

    /// The site's current table entry.
    pub fn last_bit(&self, pc: BarrierPc) -> Option<Cycles> {
        self.entries.get(&pc).copied()
    }
}

impl BitPredictor for LastValuePredictor {
    fn predict(&self, pc: BarrierPc, _instance: u64, _thread: ThreadId) -> Option<Cycles> {
        self.last_bit(pc)
    }

    fn update(&mut self, pc: BarrierPc, _instance: u64, measured: Cycles) -> UpdateOutcome {
        let Some(prev) = self.entries.get_mut(&pc) else {
            self.entries.insert(pc, measured);
            return UpdateOutcome::Applied;
        };
        if let Some(f) = self.underprediction_factor {
            if *prev > Cycles::ZERO && measured.as_u64() as f64 > prev.as_u64() as f64 * f {
                return UpdateOutcome::SkippedInordinate;
            }
        }
        *prev = measured;
        UpdateOutcome::Applied
    }
}

/// Ablation variant: exponentially-weighted moving average of PC-indexed
/// BIT instead of last-value.
#[derive(Debug, Clone)]
pub struct AveragingPredictor {
    inner: LastValuePredictor,
    averages: HashMap<BarrierPc, f64>,
    alpha: f64,
}

impl AveragingPredictor {
    /// Creates an EWMA predictor with smoothing factor `alpha` (weight of
    /// the newest sample).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0,1], got {alpha}"
        );
        AveragingPredictor {
            inner: LastValuePredictor::with_defaults(),
            averages: HashMap::new(),
            alpha,
        }
    }
}

impl BitPredictor for AveragingPredictor {
    fn predict(&self, pc: BarrierPc, _instance: u64, _thread: ThreadId) -> Option<Cycles> {
        // The inner predictor accepts every first measurement, so an
        // average exists exactly when the inner table has history.
        self.averages
            .get(&pc)
            .map(|&a| Cycles::new(a.round() as u64))
    }

    fn update(&mut self, pc: BarrierPc, instance: u64, measured: Cycles) -> UpdateOutcome {
        let outcome = self.inner.update(pc, instance, measured);
        if outcome == UpdateOutcome::Applied {
            let a = self.alpha;
            self.averages
                .entry(pc)
                .and_modify(|avg| *avg = (1.0 - a) * *avg + a * measured.as_u64() as f64)
                .or_insert(measured.as_u64() as f64);
        }
        outcome
    }
}

/// Ablation variant: *direct* last-value prediction of each thread's BST,
/// the strawman §3.2 argues against. Thread-dependent and therefore noisy
/// when work shifts among threads across instances.
#[derive(Debug, Clone, Default)]
pub struct DirectBstPredictor {
    last_bst: HashMap<(BarrierPc, ThreadId), Cycles>,
}

impl DirectBstPredictor {
    /// Creates an empty direct-BST predictor.
    pub fn new() -> Self {
        DirectBstPredictor::default()
    }
}

impl BitPredictor for DirectBstPredictor {
    fn predict(&self, pc: BarrierPc, _instance: u64, thread: ThreadId) -> Option<Cycles> {
        // NOTE: callers treat the returned value as a BIT and subtract
        // compute time; the executor using this variant must call
        // `predicts_stall_directly` and skip the subtraction.
        self.last_bst.get(&(pc, thread)).copied()
    }

    fn update(&mut self, _pc: BarrierPc, _instance: u64, _measured: Cycles) -> UpdateOutcome {
        UpdateOutcome::Applied
    }

    fn update_bst(&mut self, pc: BarrierPc, thread: ThreadId, measured: Cycles) {
        self.last_bst.insert((pc, thread), measured);
    }
}

/// Extension variant (§3.3.3 hints at "sophisticated predictors and/or
/// confidence estimators"): last-value prediction gated by a saturating
/// two-bit confidence counter per site.
///
/// The counter increments when a new measurement lands within `tolerance`
/// (relative) of the table entry and decrements otherwise; prediction is
/// offered only at confidence ≥ 2. Unlike the paper's permanent per-thread
/// disable bit, confidence *recovers* once a site stabilizes again — the
/// trade-off the ablation quantifies.
#[derive(Debug, Clone)]
pub struct ConfidencePredictor {
    inner: LastValuePredictor,
    confidence: HashMap<BarrierPc, u8>,
    tolerance: f64,
}

impl ConfidencePredictor {
    /// Creates a confidence-gated predictor.
    ///
    /// # Panics
    ///
    /// Panics if `tolerance` is not positive.
    pub fn new(tolerance: f64) -> Self {
        assert!(
            tolerance > 0.0,
            "tolerance must be positive, got {tolerance}"
        );
        ConfidencePredictor {
            inner: LastValuePredictor::with_defaults(),
            confidence: HashMap::new(),
            tolerance,
        }
    }

    /// Current confidence (0..=3) for a site.
    pub fn confidence(&self, pc: BarrierPc) -> u8 {
        self.confidence.get(&pc).copied().unwrap_or(0)
    }
}

impl BitPredictor for ConfidencePredictor {
    fn predict(&self, pc: BarrierPc, instance: u64, thread: ThreadId) -> Option<Cycles> {
        if self.confidence(pc) < 2 {
            return None;
        }
        self.inner.predict(pc, instance, thread)
    }

    fn update(&mut self, pc: BarrierPc, instance: u64, measured: Cycles) -> UpdateOutcome {
        // Compare against the site's table entry: confidence is a property
        // of the site, whichever threads the gate lets predict there.
        let prev = self.inner.last_bit(pc).filter(|p| *p > Cycles::ZERO);
        let outcome = self.inner.update(pc, instance, measured);
        let slot = self.confidence.entry(pc).or_insert(0);
        match prev {
            Some(prev) => {
                let rel =
                    (measured.as_u64() as f64 - prev.as_u64() as f64).abs() / prev.as_u64() as f64;
                if rel <= self.tolerance {
                    *slot = (*slot + 1).min(3);
                } else {
                    *slot = slot.saturating_sub(1);
                }
            }
            None => {
                // First measurement: history exists now, but it has not yet
                // proven stable.
                *slot = 1;
            }
        }
        outcome
    }
}

/// Perfect BIT prediction from a recorded trace — the Oracle-Halt and Ideal
/// configurations of §5.1.
///
/// The table is keyed by `(site, per-site instance index)` and is filled
/// from a prior Baseline run of the same deterministic workload (in which
/// barrier timing is identical because nobody sleeps).
#[derive(Debug, Clone, Default)]
pub struct RecordedBitOracle {
    table: HashMap<(BarrierPc, u64), Cycles>,
}

impl RecordedBitOracle {
    /// Creates an empty oracle (predicts nothing until fed).
    pub fn new() -> Self {
        RecordedBitOracle::default()
    }

    /// Records the true BIT of one barrier instance.
    pub fn record(&mut self, pc: BarrierPc, instance: u64, bit: Cycles) {
        self.table.insert((pc, instance), bit);
    }

    /// Number of recorded instances.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

impl BitPredictor for RecordedBitOracle {
    fn predict(&self, pc: BarrierPc, instance: u64, _thread: ThreadId) -> Option<Cycles> {
        self.table.get(&(pc, instance)).copied()
    }

    fn update(&mut self, _pc: BarrierPc, _instance: u64, _measured: Cycles) -> UpdateOutcome {
        UpdateOutcome::Applied
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(i: usize) -> ThreadId {
        ThreadId::new(i)
    }

    const PC: BarrierPc = BarrierPc::new(0x1000);
    const PC2: BarrierPc = BarrierPc::new(0x2000);

    #[test]
    fn no_history_predicts_none() {
        let p = LastValuePredictor::with_defaults();
        assert_eq!(p.predict(PC, 0, t(0)), None);
    }

    #[test]
    fn last_value_roundtrip() {
        let mut p = LastValuePredictor::with_defaults();
        assert_eq!(
            p.update(PC, 0, Cycles::from_micros(100)),
            UpdateOutcome::Applied
        );
        assert_eq!(p.predict(PC, 1, t(2)), Some(Cycles::from_micros(100)));
        p.update(PC, 1, Cycles::from_micros(150));
        assert_eq!(p.predict(PC, 2, t(2)), Some(Cycles::from_micros(150)));
    }

    #[test]
    fn sites_are_independent() {
        let mut p = LastValuePredictor::with_defaults();
        p.update(PC, 0, Cycles::from_micros(100));
        p.update(PC2, 0, Cycles::from_micros(900));
        assert_eq!(p.predict(PC, 1, t(0)), Some(Cycles::from_micros(100)));
        assert_eq!(p.predict(PC2, 1, t(0)), Some(Cycles::from_micros(900)));
    }

    #[test]
    fn underprediction_filter_skips_inordinate_bit() {
        let mut p = LastValuePredictor::new(Some(4.0));
        p.update(PC, 0, Cycles::from_micros(100));
        // 10x the entry: a preemption happened; must be skipped.
        assert_eq!(
            p.update(PC, 1, Cycles::from_millis(1)),
            UpdateOutcome::SkippedInordinate
        );
        assert_eq!(
            p.predict(PC, 2, t(0)),
            Some(Cycles::from_micros(100)),
            "older, shorter interval is used again (§3.4.2)"
        );
        // Just below the factor: accepted.
        assert_eq!(
            p.update(PC, 2, Cycles::from_micros(399)),
            UpdateOutcome::Applied
        );
    }

    #[test]
    fn filter_disabled_accepts_everything() {
        let mut p = LastValuePredictor::new(None);
        p.update(PC, 0, Cycles::from_micros(10));
        assert_eq!(
            p.update(PC, 1, Cycles::from_secs(10)),
            UpdateOutcome::Applied
        );
    }

    #[test]
    fn first_measurement_never_filtered() {
        let mut p = LastValuePredictor::new(Some(2.0));
        assert_eq!(
            p.update(PC, 0, Cycles::from_secs(100)),
            UpdateOutcome::Applied
        );
    }

    #[test]
    fn averaging_predictor_smooths() {
        let mut p = AveragingPredictor::new(0.5);
        p.update(PC, 0, Cycles::from_micros(100));
        p.update(PC, 1, Cycles::from_micros(200));
        // EWMA: 100, then 0.5*100 + 0.5*200 = 150.
        assert_eq!(p.predict(PC, 2, t(0)), Some(Cycles::from_micros(150)));
    }

    #[test]
    fn averaging_alpha_one_is_last_value() {
        let mut p = AveragingPredictor::new(1.0);
        p.update(PC, 0, Cycles::from_micros(100));
        p.update(PC, 1, Cycles::from_micros(250));
        assert_eq!(p.predict(PC, 2, t(0)), Some(Cycles::from_micros(250)));
    }

    #[test]
    fn direct_bst_is_per_thread() {
        let mut p = DirectBstPredictor::new();
        p.update_bst(PC, t(0), Cycles::from_micros(30));
        p.update_bst(PC, t(1), Cycles::from_micros(70));
        assert_eq!(p.predict(PC, 5, t(0)), Some(Cycles::from_micros(30)));
        assert_eq!(p.predict(PC, 5, t(1)), Some(Cycles::from_micros(70)));
        assert_eq!(p.predict(PC, 5, t(2)), None);
    }

    #[test]
    fn oracle_returns_exact_instances() {
        let mut o = RecordedBitOracle::new();
        assert!(o.is_empty());
        o.record(PC, 0, Cycles::from_micros(100));
        o.record(PC, 1, Cycles::from_micros(170));
        assert_eq!(o.len(), 2);
        assert_eq!(o.predict(PC, 0, t(3)), Some(Cycles::from_micros(100)));
        assert_eq!(o.predict(PC, 1, t(0)), Some(Cycles::from_micros(170)));
        assert_eq!(o.predict(PC, 2, t(0)), None);
    }

    #[test]
    fn confidence_gates_until_stable() {
        let mut p = ConfidencePredictor::new(0.10);
        assert_eq!(p.confidence(PC), 0);
        p.update(PC, 0, Cycles::from_micros(100));
        assert_eq!(p.confidence(PC), 1);
        assert_eq!(p.predict(PC, 1, t(0)), None, "one sample is not confidence");
        p.update(PC, 1, Cycles::from_micros(105)); // within 10%
        assert_eq!(p.confidence(PC), 2);
        assert_eq!(p.predict(PC, 2, t(0)), Some(Cycles::from_micros(105)));
    }

    #[test]
    fn confidence_drops_on_swings_and_recovers() {
        let mut p = ConfidencePredictor::new(0.10);
        for i in 0..3 {
            p.update(PC, i, Cycles::from_micros(100));
        }
        assert_eq!(p.confidence(PC), 3, "saturates at 3");
        assert!(p.predict(PC, 3, t(0)).is_some());
        // Two wild swings drop confidence below the prediction gate.
        p.update(PC, 3, Cycles::from_micros(500));
        p.update(PC, 4, Cycles::from_micros(90));
        assert_eq!(p.confidence(PC), 1);
        assert_eq!(p.predict(PC, 5, t(0)), None);
        // Stability restores prediction — unlike the permanent disable bit.
        p.update(PC, 5, Cycles::from_micros(92));
        assert!(p.predict(PC, 6, t(0)).is_some());
    }

    #[test]
    fn last_bit_reads_the_table_entry() {
        let mut p = LastValuePredictor::with_defaults();
        assert_eq!(p.last_bit(PC), None);
        p.update(PC, 0, Cycles::from_micros(100));
        assert_eq!(p.last_bit(PC), Some(Cycles::from_micros(100)));
    }

    #[test]
    #[should_panic(expected = "tolerance must be positive")]
    fn confidence_rejects_bad_tolerance() {
        let _ = ConfidencePredictor::new(0.0);
    }

    #[test]
    #[should_panic(expected = "underprediction factor")]
    fn bad_filter_factor_rejected() {
        let _ = LastValuePredictor::new(Some(1.0));
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn bad_alpha_rejected() {
        let _ = AveragingPredictor::new(0.0);
    }

    #[test]
    fn pc_display() {
        assert_eq!(BarrierPc::new(0x40).to_string(), "pc:0x40");
        assert_eq!(BarrierPc::new(0x40).as_u64(), 0x40);
    }
}
