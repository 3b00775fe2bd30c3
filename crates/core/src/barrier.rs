//! The barrier algorithm state machine, shared by the cycle-level machine
//! (`tb-machine`) and the real-threads runtime (`tb-runtime`).
//!
//! [`BarrierAlgorithm`] owns the predictor, per-thread timing state, and
//! per-site bookkeeping, and exposes the three call points of the paper's
//! barrier macro:
//!
//! 1. [`BarrierAlgorithm::on_early_arrival`] — a thread checked in and the
//!    count says others are still computing: predict, decide, plan wake-up.
//! 2. [`BarrierAlgorithm::on_last_arrival`] — the count reached the total:
//!    measure the true BIT, update the predictor (subject to the §3.4.2
//!    filter), publish the BIT, and flip the flag.
//! 3. [`BarrierAlgorithm::finish_barrier`] — a thread is awake *and* the
//!    barrier is released (in either order): advance its BRTS by the
//!    published BIT, measure the overprediction penalty, and set the
//!    §3.3.3 disable bit if it tripped the threshold.
//!
//! Whether a thread may predict at a site is decided in one place: a
//! private per-site *gate*. It holds the §3.3.3 cut-off (its threshold, its
//! trip test and the per-thread disable bits) and the fault quarantine
//! (its state and the shadow prediction it judges). Call point 1 asks the
//! gate before it calls the predictor; call points 2 and 3 are the only
//! ones that change it. The predictors themselves know nothing of either.
//!
//! The executor owns the count, the flag, and all physical effects (memory
//! traffic, transitions, energy); this type is the paper's "prediction code
//! + sleep() library" in one object.

use crate::config::{AlgorithmConfig, PredictorChoice};
use crate::policy::{SleepChoice, SleepPolicy};
use crate::predictor::{
    AveragingPredictor, BarrierPc, BitPredictor, ConfidencePredictor, DirectBstPredictor,
    LastValuePredictor, RecordedBitOracle, UpdateOutcome,
};
use crate::timing::ThreadTiming;
use crate::wakeup::WakeupPlan;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use tb_sim::Cycles;
use tb_trace::{SinkHandle, TraceEvent, TraceEventKind};

/// Index of a thread participating in the barrier (0-based, dense).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ThreadId(usize);

impl ThreadId {
    /// Creates a thread id.
    pub const fn new(index: usize) -> Self {
        ThreadId(index)
    }

    /// The thread's index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[derive(Debug, Clone)]
enum PredictorImpl {
    LastValue(LastValuePredictor),
    Averaging(AveragingPredictor),
    DirectBst(DirectBstPredictor),
    Confidence(ConfidencePredictor),
    Oracle(RecordedBitOracle),
}

impl PredictorImpl {
    fn as_dyn(&self) -> &dyn BitPredictor {
        match self {
            PredictorImpl::LastValue(p) => p,
            PredictorImpl::Averaging(p) => p,
            PredictorImpl::DirectBst(p) => p,
            PredictorImpl::Confidence(p) => p,
            PredictorImpl::Oracle(p) => p,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn BitPredictor {
        match self {
            PredictorImpl::LastValue(p) => p,
            PredictorImpl::Averaging(p) => p,
            PredictorImpl::DirectBst(p) => p,
            PredictorImpl::Confidence(p) => p,
            PredictorImpl::Oracle(p) => p,
        }
    }
}

/// Gross mispredictions in a row that put a site in quarantine.
const QUARANTINE_MISSES: u32 = 3;
/// Relative error `|predicted − measured| / measured` above which a shadow
/// prediction counts as a gross miss.
const QUARANTINE_TOLERANCE: f64 = 0.5;
/// Accurate shadow predictions in a row that let a site out again.
const QUARANTINE_RELEASE: u32 = 2;

/// Fault-hardening quarantine of one site: after [`QUARANTINE_MISSES`]
/// gross mispredictions in a row the site's threads spin, until
/// [`QUARANTINE_RELEASE`] accurate shadow predictions in a row.
#[derive(Debug, Clone, Copy, Default)]
struct Quarantine {
    /// Whether predictions are currently withheld at this site.
    quarantined: bool,
    /// Gross misses in a row while open, accurate shadows in a row while
    /// quarantined; the other kind of judgement resets it.
    streak: u32,
    /// The first prediction made for the in-flight instance, judged
    /// against the measured BIT at release even while it is withheld.
    shadow: Option<(u64, Cycles)>,
}

/// The per-site prediction gate: the §3.3.3 cut-off and the quarantine.
#[derive(Debug, Clone)]
struct Gate {
    /// §3.3.3 cut-off as a fraction of the BIT; `None` disables it. The
    /// oracle has none: the cut-off judges a prediction, and the oracle's
    /// is exact.
    cutoff: Option<f64>,
    /// Per-thread disable bits, grown on the first trip.
    disabled: Vec<bool>,
    /// `None` when quarantine is off.
    quarantine: Option<Quarantine>,
}

impl Gate {
    fn new(cfg: &AlgorithmConfig) -> Self {
        Gate {
            cutoff: cfg.overprediction_threshold.filter(|_| !cfg.needs_oracle()),
            disabled: Vec::new(),
            quarantine: cfg.quarantine.then(Quarantine::default),
        }
    }

    /// Whether the cut-off has stopped `thread` predicting here.
    fn is_disabled(&self, thread: ThreadId) -> bool {
        self.disabled.get(thread.index()).copied().unwrap_or(false)
    }

    /// The prediction `thread` may use at `instance`. A disabled thread
    /// gets none and never calls `predict`. Otherwise the instance's first
    /// prediction becomes the quarantine's shadow, and a quarantined site
    /// withholds it.
    fn admit(
        &mut self,
        thread: ThreadId,
        instance: u64,
        predict: impl FnOnce() -> Option<Cycles>,
    ) -> Option<Cycles> {
        if self.is_disabled(thread) {
            return None;
        }
        let predicted = predict();
        let Some(q) = &mut self.quarantine else {
            return predicted;
        };
        if let Some(bit) = predicted {
            if q.shadow.is_none_or(|(i, _)| i != instance) {
                q.shadow = Some((instance, bit));
            }
        }
        predicted.filter(|_| !q.quarantined)
    }

    /// Judges the shadow of the released `instance` against its measured
    /// BIT. Returns `Some(true)` when the site enters quarantine and
    /// `Some(false)` when it leaves.
    fn judge(&mut self, instance: u64, measured: Cycles) -> Option<bool> {
        let q = self.quarantine.as_mut()?;
        let (shadowed, predicted) = q.shadow.take()?;
        if shadowed != instance || measured == Cycles::ZERO {
            return None;
        }
        let rel_err =
            (predicted.as_u64() as f64 - measured.as_u64() as f64).abs() / measured.as_u64() as f64;
        // While open, a streak counts gross misses; while quarantined,
        // accurate shadows. The other kind of judgement breaks it.
        let gross = rel_err > QUARANTINE_TOLERANCE;
        if gross == q.quarantined {
            q.streak = 0;
            return None;
        }
        q.streak += 1;
        let limit = if q.quarantined {
            QUARANTINE_RELEASE
        } else {
            QUARANTINE_MISSES
        };
        if q.streak < limit {
            return None;
        }
        q.quarantined = !q.quarantined;
        q.streak = 0;
        Some(q.quarantined)
    }

    /// The §3.3.3 trip test: whether a sleeper that woke `penalty` after
    /// the release of an interval of `bit` overslept. A trip disables
    /// `thread` here for good.
    fn trip(&mut self, thread: ThreadId, penalty: Cycles, bit: Cycles) -> bool {
        let tripped = self.cutoff.is_some_and(|th| penalty > bit.scale(th));
        if tripped {
            let i = thread.index();
            if self.disabled.len() <= i {
                self.disabled.resize(i + 1, false);
            }
            self.disabled[i] = true;
        }
        tripped
    }
}

#[derive(Debug, Clone)]
struct SiteState {
    /// Dynamic instance counter: the index of the *next* instance to
    /// release at this site. All arrivals of the current instance observe
    /// the same value.
    next_instance: u64,
    /// The published BIT of the most recently released instance — the
    /// "shared BIT variable" of §3.2.1 (always the *measured* value, even
    /// when the predictor skipped the update).
    published_bit: Cycles,
    /// Who may predict here.
    gate: Gate,
}

/// What an early-arriving thread was told to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrivalDecision {
    /// The per-site dynamic instance index of this barrier episode.
    pub instance: u64,
    /// The thread's compute time since the previous release.
    pub compute_time: Cycles,
    /// The predicted BIT, if a usable prediction existed.
    pub predicted_bit: Option<Cycles>,
    /// The derived predicted stall (BST), if predicted.
    pub predicted_stall: Option<Cycles>,
    /// The estimated absolute release time, if predicted.
    pub estimated_release: Option<Cycles>,
    /// Spin or sleep (+state).
    pub choice: SleepChoice,
    /// Wake-up plan (meaningful only when sleeping).
    pub wakeup: WakeupPlan,
}

/// What the last-arriving thread produced when it released the barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReleaseInfo {
    /// The per-site dynamic instance index just released.
    pub instance: u64,
    /// The measured BIT (release-to-release).
    pub measured_bit: Cycles,
    /// Whether the predictor accepted the measurement (§3.4.2).
    pub update: UpdateOutcome,
    /// The releasing thread's local timestamp of the release — equal to
    /// every thread's new BRTS after [`BarrierAlgorithm::finish_barrier`].
    pub release_estimate: Cycles,
    /// Quarantine transition at this release, if any: `Some(true)` when
    /// the site entered quarantine, `Some(false)` when it left.
    pub quarantine: Option<bool>,
}

/// The outcome of a thread's post-barrier bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FinishInfo {
    /// The thread's new BRTS (local timestamp of the just-released
    /// barrier).
    pub new_brts: Cycles,
    /// How much later than the release the thread woke (zero if on time or
    /// early).
    pub penalty: Cycles,
    /// Whether the §3.3.3 cut-off fired and disabled future prediction for
    /// this (thread, site).
    pub disabled: bool,
}

/// The thrifty barrier algorithm object (or a conventional barrier when
/// configured with `thrifty: false`).
#[derive(Debug)]
pub struct BarrierAlgorithm {
    cfg: AlgorithmConfig,
    predictor: PredictorImpl,
    policy: SleepPolicy,
    timings: Vec<ThreadTiming>,
    arrivals: Vec<Cycles>,
    sites: HashMap<BarrierPc, SiteState>,
    /// The gate every new site starts with.
    gate: Gate,
    /// Semantic-event trace sink (disabled by default). The algorithm emits
    /// `prediction`, `release`, and `cutoff_disable` events — the kinds
    /// only it can observe — stamped with per-site instance numbering.
    trace: SinkHandle,
}

impl BarrierAlgorithm {
    /// Creates the algorithm for `threads` participants.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0` or the overprediction threshold is not
    /// positive.
    pub fn new(cfg: AlgorithmConfig, threads: usize) -> Self {
        assert!(threads > 0, "a barrier needs at least one thread");
        if let Some(th) = cfg.overprediction_threshold {
            assert!(
                th > 0.0,
                "overprediction threshold must be positive, got {th}"
            );
        }
        let predictor = match cfg.predictor {
            PredictorChoice::LastValue => {
                PredictorImpl::LastValue(LastValuePredictor::new(cfg.underprediction_factor))
            }
            PredictorChoice::Averaging(alpha) => {
                PredictorImpl::Averaging(AveragingPredictor::new(alpha))
            }
            PredictorChoice::DirectBst => PredictorImpl::DirectBst(DirectBstPredictor::new()),
            PredictorChoice::Confidence(tol) => {
                PredictorImpl::Confidence(ConfidencePredictor::new(tol))
            }
            PredictorChoice::Oracle => PredictorImpl::Oracle(RecordedBitOracle::new()),
        };
        let policy = SleepPolicy::new(cfg.sleep_table.clone(), cfg.min_stall_multiple);
        BarrierAlgorithm {
            predictor,
            policy,
            timings: vec![ThreadTiming::new(); threads],
            arrivals: vec![Cycles::ZERO; threads],
            sites: HashMap::new(),
            gate: Gate::new(&cfg),
            cfg,
            trace: SinkHandle::disabled(),
        }
    }

    /// Attaches (or detaches, with a disabled handle) the trace sink the
    /// algorithm emits its semantic events to. Events are attributed to the
    /// calling thread, so with per-thread sink storage the single-producer
    /// invariant holds as long as each `ThreadId` maps to one OS thread.
    pub fn set_trace(&mut self, trace: SinkHandle) {
        self.trace = trace;
    }

    /// The number of participating threads.
    pub fn threads(&self) -> usize {
        self.timings.len()
    }

    /// The configuration in force.
    pub fn config(&self) -> &AlgorithmConfig {
        &self.cfg
    }

    /// The sleep policy (table + profitability margin).
    pub fn policy(&self) -> &SleepPolicy {
        &self.policy
    }

    /// A thread's current BRTS (for tests and reports).
    pub fn brts(&self, thread: ThreadId) -> Cycles {
        self.timings[thread.index()].brts()
    }

    /// Installs a recorded oracle trace (Oracle-Halt / Ideal).
    ///
    /// # Panics
    ///
    /// Panics if the configuration does not use the oracle predictor.
    pub fn install_oracle(&mut self, oracle: RecordedBitOracle) {
        match &mut self.predictor {
            PredictorImpl::Oracle(slot) => *slot = oracle,
            other => panic!("config uses {other:?}, not the oracle predictor"),
        }
    }

    /// Call point 1: `thread` checked in at local time `now` and was not
    /// the last. Returns the sleep/spin decision.
    pub fn on_early_arrival(
        &mut self,
        thread: ThreadId,
        pc: BarrierPc,
        now: Cycles,
    ) -> ArrivalDecision {
        self.arrivals[thread.index()] = now;
        let site = site(&mut self.sites, &self.gate, pc);
        let instance = site.next_instance;
        let timing = self.timings[thread.index()];
        let compute_time = timing.compute_time(now);
        if !self.cfg.thrifty {
            return ArrivalDecision {
                instance,
                compute_time,
                predicted_bit: None,
                predicted_stall: None,
                estimated_release: None,
                choice: SleepChoice::Spin,
                wakeup: WakeupPlan {
                    external: false,
                    internal_at: None,
                },
            };
        }
        let predictor = &self.predictor;
        let predicted = site.gate.admit(thread, instance, || {
            predictor.as_dyn().predict(pc, instance, thread)
        });
        let estimate = predicted.map(|p| {
            if matches!(self.cfg.predictor, PredictorChoice::DirectBst) {
                timing.estimate_direct_stall(now, p)
            } else {
                timing.estimate(now, p)
            }
        });
        let choice = self.policy.decide(estimate.map(|e| e.predicted_stall));
        let wakeup = match choice {
            SleepChoice::Sleep { state, .. } => {
                let exit = self.policy.state(state).transition_latency();
                let est = estimate.expect("sleeping requires an estimate");
                WakeupPlan::new(
                    self.cfg.wakeup,
                    now,
                    est.estimated_release,
                    exit,
                    self.cfg.wakeup_anticipation,
                )
            }
            SleepChoice::Spin => WakeupPlan {
                external: false,
                internal_at: None,
            },
        };
        if let (Some(bit), Some(est)) = (predicted, estimate) {
            self.trace.emit(TraceEvent::new(
                now,
                thread.index(),
                TraceEventKind::Prediction {
                    episode: instance,
                    pc: pc.as_u64(),
                    predicted_bit: bit,
                    predicted_stall: est.predicted_stall,
                },
            ));
        }
        ArrivalDecision {
            instance,
            compute_time,
            predicted_bit: predicted,
            predicted_stall: estimate.map(|e| e.predicted_stall),
            estimated_release: estimate.map(|e| e.estimated_release),
            choice,
            wakeup,
        }
    }

    /// Call point 2: `thread` checked in at local time `now` and the count
    /// reached the total. Measures and publishes the BIT, updates the
    /// predictor, and logically flips the flag (the executor performs the
    /// actual write).
    pub fn on_last_arrival(&mut self, thread: ThreadId, pc: BarrierPc, now: Cycles) -> ReleaseInfo {
        self.arrivals[thread.index()] = now;
        let measured_bit = self.timings[thread.index()].measure_bit(now);
        let site = site(&mut self.sites, &self.gate, pc);
        let instance = site.next_instance;
        site.next_instance += 1;
        site.published_bit = measured_bit;
        let quarantine = site.gate.judge(instance, measured_bit);
        let update = if self.cfg.thrifty {
            self.predictor
                .as_dyn_mut()
                .update(pc, instance, measured_bit)
        } else {
            UpdateOutcome::Applied
        };
        self.trace.emit(TraceEvent::new(
            now,
            thread.index(),
            TraceEventKind::Release {
                episode: instance,
                pc: pc.as_u64(),
                measured_bit,
                update_skipped: update == UpdateOutcome::SkippedInordinate,
            },
        ));
        if let Some(entered) = quarantine {
            self.trace.emit(TraceEvent::new(
                now,
                thread.index(),
                TraceEventKind::Quarantine {
                    episode: instance,
                    pc: pc.as_u64(),
                    entered,
                },
            ));
        }
        ReleaseInfo {
            instance,
            measured_bit,
            update,
            release_estimate: now,
            quarantine,
        }
    }

    /// Whether the site at `pc` is currently in predictor quarantine.
    pub fn is_quarantined(&self, pc: BarrierPc) -> bool {
        self.sites
            .get(&pc)
            .and_then(|s| s.gate.quarantine)
            .is_some_and(|q| q.quarantined)
    }

    /// Call point 3: `thread` is awake and past the residual spin for the
    /// barrier at `pc`; `wakeup_timestamp` is when it came back up (for a
    /// spinner, the time it observed the flipped flag).
    ///
    /// Advances the thread's BRTS by the published BIT, evaluates the
    /// §3.3.3 cut-off, and feeds the direct-BST predictor when configured.
    pub fn finish_barrier(
        &mut self,
        thread: ThreadId,
        pc: BarrierPc,
        wakeup_timestamp: Cycles,
    ) -> FinishInfo {
        self.finish(thread, pc, Some(wakeup_timestamp))
    }

    /// Call point 3 for a thread that did not sleep: as
    /// [`BarrierAlgorithm::finish_barrier`], but without the §3.3.3
    /// cut-off, which judges how late a sleeper woke. On real threads a
    /// spinner or the releaser sees the flip late only when the host
    /// deschedules it, which says nothing about the prediction.
    pub fn finish_awake(&mut self, thread: ThreadId, pc: BarrierPc) -> FinishInfo {
        self.finish(thread, pc, None)
    }

    fn finish(
        &mut self,
        thread: ThreadId,
        pc: BarrierPc,
        wakeup_timestamp: Option<Cycles>,
    ) -> FinishInfo {
        let site = self
            .sites
            .get_mut(&pc)
            .expect("finish_barrier before any release at this site");
        let published = site.published_bit;
        let timing = &mut self.timings[thread.index()];
        let new_brts = timing.advance(published);
        let penalty = wakeup_timestamp.map_or(Cycles::ZERO, |ts| timing.overprediction_penalty(ts));
        let mut disabled = false;
        if self.cfg.thrifty {
            if let Some(wakeup_timestamp) =
                wakeup_timestamp.filter(|_| site.gate.trip(thread, penalty, published))
            {
                disabled = true;
                self.trace.emit(TraceEvent::new(
                    wakeup_timestamp,
                    thread.index(),
                    TraceEventKind::CutoffDisable {
                        episode: site.next_instance.saturating_sub(1),
                        pc: pc.as_u64(),
                        penalty,
                    },
                ));
            }
            let actual_stall = new_brts.saturating_sub(self.arrivals[thread.index()]);
            self.predictor
                .as_dyn_mut()
                .update_bst(pc, thread, actual_stall);
        }
        FinishInfo {
            new_brts,
            penalty,
            disabled,
        }
    }

    /// Whether the §3.3.3 cut-off has disabled prediction for `(thread,
    /// pc)`.
    pub fn is_disabled(&self, pc: BarrierPc, thread: ThreadId) -> bool {
        self.sites
            .get(&pc)
            .is_some_and(|s| s.gate.is_disabled(thread))
    }
}

/// The state of the site at `pc`, created with a fresh `gate` on first use.
/// A free function, so that callers keep their other fields borrowable.
fn site<'a>(
    sites: &'a mut HashMap<BarrierPc, SiteState>,
    gate: &Gate,
    pc: BarrierPc,
) -> &'a mut SiteState {
    sites.entry(pc).or_insert_with(|| SiteState {
        next_instance: 0,
        published_bit: Cycles::ZERO,
        gate: gate.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wakeup::WakeupMode;

    const PC: BarrierPc = BarrierPc::new(0x42);

    fn t(i: usize) -> ThreadId {
        ThreadId::new(i)
    }

    fn us(v: u64) -> Cycles {
        Cycles::from_micros(v)
    }

    /// Runs one full barrier episode for a 2-thread algorithm where thread
    /// 0 arrives at `t0` and thread 1 (the releaser) at `t1`, waking both
    /// at the release. Returns thread 0's decision.
    fn episode(algo: &mut BarrierAlgorithm, t0: Cycles, t1: Cycles) -> ArrivalDecision {
        let d = algo.on_early_arrival(t(0), PC, t0);
        let rel = algo.on_last_arrival(t(1), PC, t1);
        algo.finish_barrier(t(0), PC, rel.release_estimate);
        algo.finish_barrier(t(1), PC, rel.release_estimate);
        d
    }

    #[test]
    fn baseline_always_spins() {
        let mut algo = BarrierAlgorithm::new(AlgorithmConfig::baseline(), 2);
        for i in 1..5u64 {
            let d = episode(&mut algo, us(100 * i), us(100 * i + 50));
            assert!(d.choice.is_spin());
            assert_eq!(d.predicted_bit, None);
        }
    }

    #[test]
    fn warmup_instance_spins_then_prediction_kicks_in() {
        let mut algo = BarrierAlgorithm::new(AlgorithmConfig::thrifty(), 2);
        // Instance 0: no history.
        let d0 = episode(&mut algo, us(100), us(1000));
        assert!(d0.choice.is_spin(), "warm-up spins");
        // Instance 1: history says BIT = 1000µs; thread 0 computes 100µs,
        // so predicted stall = 900µs -> deep sleep.
        let d1 = episode(&mut algo, us(1100), us(2000));
        assert_eq!(d1.predicted_bit, Some(us(1000)));
        assert_eq!(d1.predicted_stall, Some(us(900)));
        assert!(d1.choice.is_sleep());
    }

    #[test]
    fn bit_and_brts_induction_across_instances() {
        let mut algo = BarrierAlgorithm::new(AlgorithmConfig::thrifty(), 2);
        let rel1 = {
            algo.on_early_arrival(t(0), PC, us(10));
            algo.on_last_arrival(t(1), PC, us(100))
        };
        assert_eq!(rel1.measured_bit, us(100));
        assert_eq!(rel1.instance, 0);
        let f0 = algo.finish_barrier(t(0), PC, us(100));
        algo.finish_barrier(t(1), PC, us(100));
        assert_eq!(f0.new_brts, us(100));
        assert_eq!(algo.brts(t(0)), algo.brts(t(1)));

        algo.on_early_arrival(t(0), PC, us(150));
        let rel2 = algo.on_last_arrival(t(1), PC, us(260));
        assert_eq!(
            rel2.measured_bit,
            us(160),
            "BIT measured from previous release"
        );
        assert_eq!(rel2.instance, 1);
    }

    #[test]
    fn estimated_release_matches_brts_plus_bit() {
        let mut algo = BarrierAlgorithm::new(AlgorithmConfig::thrifty(), 2);
        episode(&mut algo, us(100), us(1000)); // publishes BIT=1000µs, BRTS=1000µs
        let d = algo.on_early_arrival(t(0), PC, us(1400));
        assert_eq!(d.estimated_release, Some(us(2000)));
        assert_eq!(d.compute_time, us(400));
    }

    #[test]
    fn short_predicted_stall_spins() {
        let mut algo = BarrierAlgorithm::new(AlgorithmConfig::thrifty(), 2);
        episode(&mut algo, us(10), us(30)); // BIT = 30µs
                                            // Next instance: predicted stall ~ (30µs - compute) < Halt's 40µs
                                            // profitability bound -> spin.
        let d = algo.on_early_arrival(t(0), PC, us(40));
        assert_eq!(d.predicted_stall, Some(us(20)));
        assert!(d.choice.is_spin());
    }

    #[test]
    fn hybrid_wakeup_plan_targets_release_minus_exit() {
        let mut algo = BarrierAlgorithm::new(AlgorithmConfig::thrifty(), 2);
        episode(&mut algo, us(100), us(1000));
        let d = algo.on_early_arrival(t(0), PC, us(1100));
        let state = d.choice.state().expect("sleeps");
        let exit = algo.policy().state(state).transition_latency();
        assert!(d.wakeup.external);
        let anticipation = algo.config().wakeup_anticipation;
        assert_eq!(d.wakeup.internal_at, Some(us(2000) - exit - anticipation));
    }

    #[test]
    fn external_only_mode_has_no_timer() {
        let cfg = AlgorithmConfig::thrifty().with_wakeup(WakeupMode::ExternalOnly);
        let mut algo = BarrierAlgorithm::new(cfg, 2);
        episode(&mut algo, us(100), us(1000));
        let d = algo.on_early_arrival(t(0), PC, us(1100));
        assert!(d.choice.is_sleep());
        assert!(d.wakeup.external);
        assert_eq!(d.wakeup.internal_at, None);
    }

    #[test]
    fn overprediction_cutoff_disables_thread_site() {
        let mut algo = BarrierAlgorithm::new(AlgorithmConfig::thrifty(), 2);
        episode(&mut algo, us(100), us(1000)); // BRTS = 1000, BIT = 1000
        algo.on_early_arrival(t(0), PC, us(1100));
        let rel = algo.on_last_arrival(t(1), PC, us(1500)); // BIT = 500µs
                                                            // Thread 0 overslept: woke 200µs after the 1500µs release; the
                                                            // penalty (200µs) exceeds 10% of BIT (50µs).
        let f = algo.finish_barrier(t(0), PC, us(1700));
        assert_eq!(f.penalty, us(200));
        assert!(f.disabled);
        assert!(algo.is_disabled(PC, t(0)));
        assert!(!algo.is_disabled(PC, t(1)));
        algo.finish_barrier(t(1), PC, rel.release_estimate);
        // Next instance: thread 0 gets no prediction -> spins.
        let d = algo.on_early_arrival(t(0), PC, us(1800));
        assert_eq!(d.predicted_bit, None);
        assert!(d.choice.is_spin());
    }

    #[test]
    fn small_penalty_does_not_trip_cutoff() {
        let mut algo = BarrierAlgorithm::new(AlgorithmConfig::thrifty(), 2);
        episode(&mut algo, us(100), us(1000));
        algo.on_early_arrival(t(0), PC, us(1100));
        algo.on_last_arrival(t(1), PC, us(2000)); // BIT = 1000µs
                                                  // Woke 50µs late; 10% of BIT is 100µs -> fine.
        let f = algo.finish_barrier(t(0), PC, us(2050));
        assert_eq!(f.penalty, us(50));
        assert!(!f.disabled);
    }

    #[test]
    fn finishing_awake_never_trips_cutoff() {
        // However late the host lets a spinner depart, the cut-off judges
        // sleepers only: the spinner's prediction stays enabled.
        let mut algo = BarrierAlgorithm::new(AlgorithmConfig::thrifty(), 2);
        algo.on_early_arrival(t(0), PC, us(100));
        algo.on_last_arrival(t(1), PC, us(1000));
        let f = algo.finish_awake(t(0), PC);
        assert_eq!(f.penalty, Cycles::ZERO);
        assert_eq!(f.new_brts, us(1000));
        assert!(!f.disabled);
        assert!(!algo.is_disabled(PC, t(0)));
        algo.finish_awake(t(1), PC);
        let d = algo.on_early_arrival(t(0), PC, us(1100));
        assert_eq!(d.predicted_bit, Some(us(1000)));
        assert!(d.choice.is_sleep());
    }

    #[test]
    fn cutoff_disabled_never_disables() {
        let cfg = AlgorithmConfig::thrifty().with_overprediction_threshold(None);
        let mut algo = BarrierAlgorithm::new(cfg, 2);
        episode(&mut algo, us(100), us(1000));
        algo.on_early_arrival(t(0), PC, us(1100));
        algo.on_last_arrival(t(1), PC, us(1500));
        let f = algo.finish_barrier(t(0), PC, us(9000));
        assert!(!f.disabled, "no cut-off configured");
    }

    #[test]
    fn oracle_predicts_exact_instances() {
        let mut algo = BarrierAlgorithm::new(AlgorithmConfig::ideal(), 2);
        let mut oracle = RecordedBitOracle::new();
        oracle.record(PC, 0, us(500));
        oracle.record(PC, 1, us(700));
        algo.install_oracle(oracle);
        let d0 = algo.on_early_arrival(t(0), PC, us(100));
        assert_eq!(d0.predicted_bit, Some(us(500)));
        assert!(d0.choice.is_sleep(), "oracle sleeps even on instance 0");
        let rel = algo.on_last_arrival(t(1), PC, us(500));
        algo.finish_barrier(t(0), PC, rel.release_estimate);
        algo.finish_barrier(t(1), PC, rel.release_estimate);
        let d1 = algo.on_early_arrival(t(0), PC, us(600));
        assert_eq!(d1.predicted_bit, Some(us(700)));
    }

    #[test]
    #[should_panic(expected = "not the oracle predictor")]
    fn installing_oracle_on_last_value_panics() {
        let mut algo = BarrierAlgorithm::new(AlgorithmConfig::thrifty(), 2);
        algo.install_oracle(RecordedBitOracle::new());
    }

    #[test]
    fn direct_bst_uses_stall_not_interval() {
        let cfg = AlgorithmConfig::thrifty().with_predictor(PredictorChoice::DirectBst);
        let mut algo = BarrierAlgorithm::new(cfg, 2);
        // Episode 1: thread 0 arrives at 100µs, release at 1000µs ->
        // thread 0's actual BST = 900µs.
        episode(&mut algo, us(100), us(1000));
        // Episode 2: prediction = last BST (900µs), used directly as stall.
        let d = algo.on_early_arrival(t(0), PC, us(1200));
        assert_eq!(d.predicted_stall, Some(us(900)));
        assert_eq!(d.estimated_release, Some(us(2100)));
    }

    #[test]
    fn sites_have_independent_instances() {
        let pc2 = BarrierPc::new(0x99);
        let mut algo = BarrierAlgorithm::new(AlgorithmConfig::thrifty(), 2);
        algo.on_early_arrival(t(0), PC, us(10));
        let r1 = algo.on_last_arrival(t(1), PC, us(100));
        algo.finish_barrier(t(0), PC, us(100));
        algo.finish_barrier(t(1), PC, us(100));
        algo.on_early_arrival(t(0), pc2, us(150));
        let r2 = algo.on_last_arrival(t(1), pc2, us(300));
        assert_eq!(r1.instance, 0);
        assert_eq!(r2.instance, 0, "first instance at the second site");
        assert_eq!(
            r2.measured_bit,
            us(200),
            "interval spans sites (global BRTS)"
        );
    }

    #[test]
    fn semantic_events_reach_the_trace_sink() {
        use std::sync::Arc;
        use tb_trace::{MemorySink, TraceKindCounts};

        let mut algo = BarrierAlgorithm::new(AlgorithmConfig::thrifty(), 2);
        let sink = Arc::new(MemorySink::new(2, 256));
        algo.set_trace(SinkHandle::new(sink.clone()));

        // Warm-up episode (no prediction), then a predicted episode, then a
        // badly overpredicted one that trips the §3.3.3 cut-off.
        episode(&mut algo, us(100), us(1000));
        episode(&mut algo, us(1100), us(2000));
        algo.on_early_arrival(t(0), PC, us(2100));
        let rel = algo.on_last_arrival(t(1), PC, us(2500)); // BIT = 500µs
        let f = algo.finish_barrier(t(0), PC, us(2700)); // 200µs late
        assert!(f.disabled);
        algo.finish_barrier(t(1), PC, rel.release_estimate);

        let events = sink.drain_sorted();
        let c = TraceKindCounts::from_events(&events);
        assert_eq!(c.releases, 3);
        assert_eq!(c.predictions, 2, "episodes 1 and 2 had history");
        assert_eq!(c.cutoff_disables, 1);
        // Physical kinds are the executor's job; the algorithm emits none.
        assert_eq!(c.arrivals + c.last_arrivals + c.sleep_starts + c.departs, 0);
        // The cut-off event carries the measured penalty and the episode it
        // tripped on.
        let cutoff = events
            .iter()
            .find_map(|e| match e.kind {
                TraceEventKind::CutoffDisable {
                    episode, penalty, ..
                } => Some((episode, penalty)),
                _ => None,
            })
            .unwrap();
        assert_eq!(cutoff, (2, us(200)));
    }

    #[test]
    fn quarantine_enters_after_k_gross_misses_and_rebuilds() {
        use std::sync::Arc;
        use tb_trace::{MemorySink, SinkHandle, TraceKindCounts};

        let cfg = AlgorithmConfig::thrifty().with_quarantine(true);
        let mut algo = BarrierAlgorithm::new(cfg, 2);
        let sink = Arc::new(MemorySink::new(2, 256));
        algo.set_trace(SinkHandle::new(sink.clone()));

        // Releases at these absolute times give measured BITs of 1000,
        // 400, 160, 64, 64, 64, 64 µs: the last-value predictor overshoots
        // by 2.5× on episodes 1–3 (gross at tolerance 0.5), then the BIT
        // stabilizes so shadow predictions become exact.
        let releases = [1000u64, 1400, 1560, 1624, 1688, 1752, 1816];
        let mut transitions = Vec::new();
        let mut suppressed = Vec::new();
        let mut prev = 0u64;
        for (i, &r) in releases.iter().enumerate() {
            let d = algo.on_early_arrival(t(0), PC, us(prev + 10));
            suppressed.push(i > 0 && d.predicted_bit.is_none());
            let rel = algo.on_last_arrival(t(1), PC, us(r));
            if let Some(entered) = rel.quarantine {
                transitions.push((i, entered));
            }
            algo.finish_barrier(t(0), PC, rel.release_estimate);
            algo.finish_barrier(t(1), PC, rel.release_estimate);
            prev = r;
        }
        // Gross misses on episodes 1, 2, 3 → enter at 3; exact shadows on
        // 4 and 5 rebuild confidence → leave at 5.
        assert_eq!(transitions, vec![(3, true), (5, false)]);
        // Predictions were withheld while quarantined (episodes 4, 5) and
        // offered again after release (episode 6).
        assert_eq!(
            suppressed,
            vec![false, false, false, false, true, true, false]
        );
        assert!(!algo.is_quarantined(PC));
        let c = TraceKindCounts::from_events(&sink.drain_sorted());
        assert_eq!(c.quarantine_enters, 1);
        assert_eq!(c.quarantine_leaves, 1);
    }

    /// The §3.3.3 cut-off for each of the five predictors, on three threads
    /// (0 and 1 arrive early, 2 releases) alternating between two sites
    /// with a steady 1000 µs interval. Thread 0 wakes 200 µs late at the
    /// first episode at `PC`, before any predictor has history there.
    #[test]
    fn cutoff_gates_one_thread_at_one_site_for_every_predictor() {
        use std::sync::Arc;
        use tb_trace::{MemorySink, TraceKindCounts};

        let pc2 = BarrierPc::new(0x99);
        for choice in [
            PredictorChoice::LastValue,
            PredictorChoice::Averaging(0.5),
            PredictorChoice::DirectBst,
            PredictorChoice::Confidence(0.10),
            PredictorChoice::Oracle,
        ] {
            let oracle = choice == PredictorChoice::Oracle;
            // Every interval is 1000 µs; direct-BST predicts the 900 µs stall.
            let want = Some(if choice == PredictorChoice::DirectBst {
                us(900)
            } else {
                us(1000)
            });
            let mut algo =
                BarrierAlgorithm::new(AlgorithmConfig::thrifty().with_predictor(choice), 3);
            let sink = Arc::new(MemorySink::new(3, 256));
            algo.set_trace(SinkHandle::new(sink.clone()));
            if oracle {
                let mut table = RecordedBitOracle::new();
                for instance in 0..4 {
                    table.record(PC, instance, us(1000));
                    table.record(pc2, instance, us(1000));
                }
                algo.install_oracle(table);
            }
            // Predictions of threads 0 and 1 at each episode.
            let mut predicted = Vec::new();
            for k in 0..8u64 {
                let pc = if k % 2 == 0 { PC } else { pc2 };
                let (prev, release) = (us(1000 * k), us(1000 * (k + 1)));
                let d0 = algo.on_early_arrival(t(0), pc, prev + us(100));
                let d1 = algo.on_early_arrival(t(1), pc, prev + us(100));
                algo.on_last_arrival(t(2), pc, release);
                let late = if k == 0 { us(200) } else { Cycles::ZERO };
                let f0 = algo.finish_barrier(t(0), pc, release + late);
                let trips = k == 0 && !oracle;
                assert_eq!(f0.disabled, trips, "{choice}: only the late wake trips");
                algo.finish_barrier(t(1), pc, release);
                algo.finish_barrier(t(2), pc, release);
                predicted.push((d0.predicted_bit, d1.predicted_bit));
            }
            // The oracle has no cut-off: its late wake trips nothing.
            let c = TraceKindCounts::from_events(&sink.drain_sorted());
            assert_eq!(c.cutoff_disables, u64::from(!oracle), "{choice}");
            // Only (thread 0, PC) is gated, and the oracle never is.
            assert_eq!(algo.is_disabled(PC, t(0)), !oracle, "{choice}");
            assert!(!algo.is_disabled(PC, t(1)), "{choice}");
            assert!(!algo.is_disabled(pc2, t(0)), "{choice}");
            // The bit is sticky: thread 0 never predicts at PC again, while
            // thread 1 does. That holds for Confidence too, whose confidence
            // was built after thread 0 was gated: a disabled thread 0 once
            // pinned it at 1 for every thread.
            for k in [2, 4, 6] {
                let gated = if oracle { want } else { None };
                assert_eq!(predicted[k].0, gated, "{choice}: thread 0, episode {k}");
            }
            assert_eq!(predicted[6].1, want, "{choice}: thread 1 at PC");
            // Thread 0 keeps predicting at the other site.
            assert_eq!(predicted[7], (want, want), "{choice}: both at pc2");
        }
    }

    /// A disabled thread's prediction never becomes the quarantine's
    /// shadow: the first thread that may predict supplies it. Direct-BST
    /// predictions differ per thread, so the judged thread is visible.
    #[test]
    fn quarantine_judges_the_first_ungated_prediction() {
        let cfg = AlgorithmConfig::thrifty()
            .with_predictor(PredictorChoice::DirectBst)
            .with_quarantine(true);
        let mut algo = BarrierAlgorithm::new(cfg, 3);
        let mut transitions = Vec::new();
        for k in 0..4u64 {
            let (prev, release) = (us(1000 * k), us(1000 * (k + 1)));
            // Thread 0 arrives first and would predict its 990 µs stall,
            // within tolerance of the 1000 µs interval; thread 1 predicts
            // its 100 µs stall, a gross miss.
            let d0 = algo.on_early_arrival(t(0), PC, prev + us(10));
            let d1 = algo.on_early_arrival(t(1), PC, prev + us(900));
            assert_eq!(
                d0.predicted_bit, None,
                "thread 0 is gated or has no history"
            );
            assert_eq!(d1.predicted_bit, (k > 0).then(|| us(100)));
            let rel = algo.on_last_arrival(t(2), PC, release);
            transitions.push(rel.quarantine);
            // Thread 0 oversleeps the first episode and is cut off.
            let late = if k == 0 { us(200) } else { Cycles::ZERO };
            assert_eq!(
                algo.finish_barrier(t(0), PC, release + late).disabled,
                k == 0
            );
            algo.finish_barrier(t(1), PC, release);
            algo.finish_barrier(t(2), PC, release);
        }
        assert_eq!(transitions, vec![None, None, None, Some(true)]);
        assert!(algo.is_quarantined(PC));
    }

    #[test]
    fn cutoff_trip_uses_fraction_of_bit() {
        let mut gate = Gate::new(&AlgorithmConfig::thrifty()); // 10 %
        let bit = us(1000);
        assert!(!gate.trip(t(0), us(100), bit), "at threshold: no trip");
        assert!(!gate.trip(t(0), Cycles::ZERO, bit));
        assert!(!gate.is_disabled(t(0)));
        assert!(gate.trip(t(3), us(101), bit));
        assert!(gate.is_disabled(t(3)));
        assert!(!gate.is_disabled(t(2)) && !gate.is_disabled(t(4)));
        let mut off = Gate::new(&AlgorithmConfig::thrifty().with_overprediction_threshold(None));
        assert!(!off.trip(t(0), Cycles::from_secs(1), us(1)));
        let mut oracle = Gate::new(&AlgorithmConfig::ideal());
        assert!(
            !oracle.trip(t(0), us(101), bit),
            "the oracle has no cut-off"
        );
        assert!(!oracle.is_disabled(t(0)));
    }

    #[test]
    #[should_panic(expected = "overprediction threshold")]
    fn zero_threshold_rejected() {
        let cfg = AlgorithmConfig::thrifty().with_overprediction_threshold(Some(0.0));
        let _ = BarrierAlgorithm::new(cfg, 2);
    }

    #[test]
    fn threads_accessor() {
        let algo = BarrierAlgorithm::new(AlgorithmConfig::thrifty(), 7);
        assert_eq!(algo.threads(), 7);
        assert!(algo.config().thrifty);
        assert_eq!(ThreadId::new(3).to_string(), "t3");
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = BarrierAlgorithm::new(AlgorithmConfig::thrifty(), 0);
    }
}
