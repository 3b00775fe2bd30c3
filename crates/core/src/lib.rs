#![warn(missing_docs)]
//! The thrifty barrier algorithm — the primary contribution of
//! *"The Thrifty Barrier: Energy-Aware Synchronization in Shared-Memory
//! Multiprocessors"* (Li, Martínez, Huang; HPCA 2004).
//!
//! A thread arriving early at a thrifty barrier does not spin. It
//!
//! 1. predicts the **barrier interval time** (BIT) for this barrier site
//!    with PC-indexed last-value prediction ([`predictor`]),
//! 2. subtracts its own compute time — known at arrival — to derive its
//!    **barrier stall time** (BST), using the global-clock-free timestamp
//!    induction of §3.2.1 ([`timing`]),
//! 3. asks the sleep policy for the deepest low-power state whose
//!    transitions fit in the predicted stall ([`policy`]),
//! 4. arms a **hybrid wake-up**: an internal timer targeting the predicted
//!    release minus the exit latency, bounded by the **external** wake-up
//!    raised when the barrier flag's invalidation arrives ([`wakeup`]), and
//! 5. after waking, measures its overprediction penalty and disables
//!    prediction for this (thread, barrier) pair if the penalty exceeded
//!    the threshold — the cut-off that rescues Ocean (§3.3.3).
//!
//! [`barrier`] ties the pieces into a [`BarrierAlgorithm`] driven by an
//! executor (the cycle-level machine in `tb-machine`, or real threads in
//! `tb-runtime`); [`config`] names the five system configurations of the
//! paper's evaluation.
//!
//! This crate is pure algorithm: it owns no clock, no threads, and no
//! memory system. Executors feed it timestamps and act on its decisions.
//!
//! # Examples
//!
//! ```
//! use tb_core::{AlgorithmConfig, BarrierAlgorithm, BarrierPc, ThreadId};
//! use tb_sim::Cycles;
//!
//! // Two threads; thread 0 arrives early, thread 1 releases.
//! let mut algo = BarrierAlgorithm::new(AlgorithmConfig::thrifty(), 2);
//! let pc = BarrierPc::new(0x400200);
//!
//! // First instance is warm-up: no history, so the early thread spins.
//! let d = algo.on_early_arrival(ThreadId::new(0), pc, Cycles::from_micros(50));
//! assert!(d.choice.is_spin());
//! let rel = algo.on_last_arrival(ThreadId::new(1), pc, Cycles::from_micros(400));
//! algo.finish_barrier(ThreadId::new(0), pc, rel.release_estimate);
//! algo.finish_barrier(ThreadId::new(1), pc, rel.release_estimate);
//!
//! // Second instance: history exists, so a long predicted stall sleeps.
//! let d = algo.on_early_arrival(ThreadId::new(0), pc, Cycles::from_micros(450));
//! assert!(d.choice.is_sleep());
//! ```

pub mod barrier;
pub mod config;
pub mod policy;
pub mod predictor;
pub mod timing;
pub mod wakeup;

pub use barrier::{ArrivalDecision, BarrierAlgorithm, ReleaseInfo, ThreadId};
pub use config::{AlgorithmConfig, FaultPlan, PredictorChoice, SystemConfig};
pub use policy::{SleepChoice, SleepPolicy};
pub use predictor::{
    AveragingPredictor, BarrierPc, BitPredictor, ConfidencePredictor, DirectBstPredictor,
    LastValuePredictor, RecordedBitOracle, UpdateOutcome,
};
pub use timing::ThreadTiming;
pub use wakeup::{TimerSkew, WakeupMode, WakeupPlan};
