//! The trace event vocabulary: one `Copy` record per barrier-lifecycle
//! step, so recording never allocates on the hot path.

use serde::{Deserialize, Serialize};
use tb_sim::Cycles;

/// The class of an injected fault (see `tb-faults`). Lives here so every
/// layer that records a [`TraceEventKind::FaultInjected`] event shares one
/// vocabulary without depending on the injection crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FaultKind {
    /// A barrier-flag invalidation wake-up signal was dropped.
    LostWakeup,
    /// A barrier-flag invalidation wake-up signal was delivered late.
    DelayedWakeup,
    /// A countdown timer drifted from its programmed target.
    TimerDrift,
    /// A countdown timer fired spuriously early.
    SpuriousTimer,
    /// A sleep-state exit transition stalled past its rated latency.
    Oversleep,
    /// A real-threads `unpark` analog was delayed.
    DelayedUnpark,
    /// A guard timer wedged permanently: instead of rescuing its thread it
    /// went dead, leaving the thread stuck until the harness watchdog
    /// trips.
    WedgedGuard,
}

impl FaultKind {
    /// A stable short name for grouping and export.
    pub fn name(&self) -> &'static str {
        match self {
            FaultKind::LostWakeup => "lost_wakeup",
            FaultKind::DelayedWakeup => "delayed_wakeup",
            FaultKind::TimerDrift => "timer_drift",
            FaultKind::SpuriousTimer => "spurious_timer",
            FaultKind::Oversleep => "oversleep",
            FaultKind::DelayedUnpark => "delayed_unpark",
            FaultKind::WedgedGuard => "wedged_guard",
        }
    }
}

/// What happened at one point of a barrier episode.
///
/// Two producers share this vocabulary with disjoint kinds:
///
/// * the **algorithm** (`tb-core`) emits the semantic events `Prediction`,
///   `Release`, and `CutoffDisable`, stamping `episode` with the *per-site
///   dynamic instance*;
/// * the **executors** (`tb-machine`'s simulator, `tb-runtime`'s
///   real-threads barrier) emit the physical events (arrival, sleep/spin,
///   flush, wake-ups, departure), stamping `episode` with their own episode
///   index (the global trace step in the simulator, the per-site instance
///   in the runtime).
///
/// Within a producer the numbering is consistent, and every kind that needs
/// cross-referencing also carries the site `pc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEventKind {
    /// A thread checked in at the barrier (`last` marks the releaser).
    Arrival {
        /// Episode index (see type-level docs).
        episode: u64,
        /// Barrier site PC.
        pc: u64,
        /// Whether this arrival released the barrier.
        last: bool,
    },
    /// The predictor produced a usable BIT prediction for an early arrival.
    Prediction {
        /// Per-site dynamic instance the prediction is for.
        episode: u64,
        /// Barrier site PC.
        pc: u64,
        /// The predicted barrier interval time.
        predicted_bit: Cycles,
        /// The derived predicted stall (BST).
        predicted_stall: Cycles,
    },
    /// An early arrival chose to sleep.
    SleepStart {
        /// Episode index.
        episode: u64,
        /// Barrier site PC.
        pc: u64,
        /// Index of the chosen sleep state in the sleep table.
        state: u32,
        /// Whether the state required flushing dirty shared lines.
        needs_flush: bool,
    },
    /// An early arrival chose to spin conventionally.
    SpinStart {
        /// Episode index.
        episode: u64,
        /// Barrier site PC.
        pc: u64,
    },
    /// Dirty shared lines were written back before a non-snoopable sleep.
    Flush {
        /// Episode index.
        episode: u64,
        /// Barrier site PC.
        pc: u64,
        /// Lines written back.
        lines: u64,
        /// Time the write-back took.
        duration: Cycles,
    },
    /// A sleeping thread's internal timer fired.
    InternalWake {
        /// Episode index.
        episode: u64,
        /// Barrier site PC.
        pc: u64,
    },
    /// A sleeping thread was woken by the release invalidation.
    ExternalWake {
        /// Episode index.
        episode: u64,
        /// Barrier site PC.
        pc: u64,
    },
    /// A thread woke before the release and fell into the residual spin.
    ResidualSpin {
        /// Episode index.
        episode: u64,
        /// Barrier site PC.
        pc: u64,
    },
    /// The last arrival released the barrier and published the measured
    /// BIT.
    Release {
        /// Per-site dynamic instance just released.
        episode: u64,
        /// Barrier site PC.
        pc: u64,
        /// The measured barrier interval time.
        measured_bit: Cycles,
        /// Whether the §3.4.2 underprediction filter skipped the predictor
        /// update for this measurement.
        update_skipped: bool,
    },
    /// A thread left the barrier (awake and past the release).
    Depart {
        /// Episode index.
        episode: u64,
        /// Barrier site PC.
        pc: u64,
        /// How long after the release the thread departed (zero for the
        /// releaser and for on-time wake-ups).
        wake_latency: Cycles,
    },
    /// The §3.3.3 overprediction cut-off disabled prediction for this
    /// (thread, site).
    CutoffDisable {
        /// Per-site dynamic instance that tripped the cut-off.
        episode: u64,
        /// Barrier site PC.
        pc: u64,
        /// The overprediction penalty that tripped it.
        penalty: Cycles,
    },
    /// The fault-injection layer perturbed this thread's episode.
    FaultInjected {
        /// Episode index.
        episode: u64,
        /// Barrier site PC.
        pc: u64,
        /// Which failure was injected.
        fault: FaultKind,
    },
    /// The guard timer rescued a thread whose primary wake-up path failed.
    GuardRecovery {
        /// Episode index.
        episode: u64,
        /// Barrier site PC.
        pc: u64,
        /// Whether the thread was asleep (vs. stuck spinning on a stale
        /// flag copy) when the guard fired.
        slept: bool,
    },
    /// A barrier site entered (`entered`) or left predictor quarantine.
    Quarantine {
        /// Per-site dynamic instance at the transition.
        episode: u64,
        /// Barrier site PC.
        pc: u64,
        /// `true` on entry (predictions suppressed), `false` on release
        /// (confidence rebuilt).
        entered: bool,
    },
    /// The sweep supervisor re-ran a transiently failed cell. Emitted by
    /// the harness, not the simulator: `episode` carries the cell's index
    /// within the sweep and `pc` is always zero (no barrier site).
    CellRetry {
        /// Cell index within the sweep (not a barrier episode).
        episode: u64,
        /// Unused for supervisor events; always zero.
        pc: u64,
        /// The attempt number about to run (1 = first retry).
        attempt: u32,
        /// Whether the failed attempt timed out (vs. panicked).
        timed_out: bool,
    },
    /// The sweep coordinator spawned a worker process (`tb-serve`).
    /// Fleet events reuse the supervisor convention: `episode` carries a
    /// fleet-level index (worker id or cell index) and `pc` is always
    /// zero.
    WorkerSpawn {
        /// Worker id within the fleet.
        episode: u64,
        /// Unused for fleet events; always zero.
        pc: u64,
        /// Whether this spawn replaces a dead worker (vs. the initial
        /// fleet).
        respawn: bool,
    },
    /// A worker process died (crash, `kill -9`, or a missed-heartbeat
    /// kill by the coordinator).
    WorkerDeath {
        /// Worker id within the fleet.
        episode: u64,
        /// Unused for fleet events; always zero.
        pc: u64,
        /// Cells the worker held a lease on when it died.
        inflight: u32,
    },
    /// The coordinator leased a sweep cell to a worker.
    LeaseGrant {
        /// Cell index within the sweep.
        episode: u64,
        /// Unused for fleet events; always zero.
        pc: u64,
        /// The worker the lease was granted to.
        worker: u64,
    },
    /// A cell whose worker died was put back on the dispatch queue.
    LeaseReassign {
        /// Cell index within the sweep.
        episode: u64,
        /// Unused for fleet events; always zero.
        pc: u64,
        /// The dead worker whose lease was revoked.
        worker: u64,
        /// Consecutive worker deaths this cell has now caused.
        strikes: u32,
    },
    /// A cell killed enough workers in a row to be quarantined as poison:
    /// it is recorded in coverage as failed and never dispatched again.
    CellPoisoned {
        /// Cell index within the sweep.
        episode: u64,
        /// Unused for fleet events; always zero.
        pc: u64,
        /// Worker deaths that condemned the cell.
        strikes: u32,
    },
}

impl TraceEventKind {
    /// A stable short name for grouping and export.
    pub fn name(&self) -> &'static str {
        match self {
            TraceEventKind::Arrival { .. } => "arrival",
            TraceEventKind::Prediction { .. } => "prediction",
            TraceEventKind::SleepStart { .. } => "sleep_start",
            TraceEventKind::SpinStart { .. } => "spin_start",
            TraceEventKind::Flush { .. } => "flush",
            TraceEventKind::InternalWake { .. } => "internal_wake",
            TraceEventKind::ExternalWake { .. } => "external_wake",
            TraceEventKind::ResidualSpin { .. } => "residual_spin",
            TraceEventKind::Release { .. } => "release",
            TraceEventKind::Depart { .. } => "depart",
            TraceEventKind::CutoffDisable { .. } => "cutoff_disable",
            TraceEventKind::FaultInjected { .. } => "fault_injected",
            TraceEventKind::GuardRecovery { .. } => "guard_recovery",
            TraceEventKind::Quarantine { .. } => "quarantine",
            TraceEventKind::CellRetry { .. } => "cell_retry",
            TraceEventKind::WorkerSpawn { .. } => "worker_spawn",
            TraceEventKind::WorkerDeath { .. } => "worker_death",
            TraceEventKind::LeaseGrant { .. } => "lease_grant",
            TraceEventKind::LeaseReassign { .. } => "lease_reassign",
            TraceEventKind::CellPoisoned { .. } => "cell_poisoned",
        }
    }

    /// The episode index carried by the event.
    pub fn episode(&self) -> u64 {
        match *self {
            TraceEventKind::Arrival { episode, .. }
            | TraceEventKind::Prediction { episode, .. }
            | TraceEventKind::SleepStart { episode, .. }
            | TraceEventKind::SpinStart { episode, .. }
            | TraceEventKind::Flush { episode, .. }
            | TraceEventKind::InternalWake { episode, .. }
            | TraceEventKind::ExternalWake { episode, .. }
            | TraceEventKind::ResidualSpin { episode, .. }
            | TraceEventKind::Release { episode, .. }
            | TraceEventKind::Depart { episode, .. }
            | TraceEventKind::CutoffDisable { episode, .. }
            | TraceEventKind::FaultInjected { episode, .. }
            | TraceEventKind::GuardRecovery { episode, .. }
            | TraceEventKind::Quarantine { episode, .. }
            | TraceEventKind::CellRetry { episode, .. }
            | TraceEventKind::WorkerSpawn { episode, .. }
            | TraceEventKind::WorkerDeath { episode, .. }
            | TraceEventKind::LeaseGrant { episode, .. }
            | TraceEventKind::LeaseReassign { episode, .. }
            | TraceEventKind::CellPoisoned { episode, .. } => episode,
        }
    }

    /// The barrier site PC carried by the event.
    pub fn pc(&self) -> u64 {
        match *self {
            TraceEventKind::Arrival { pc, .. }
            | TraceEventKind::Prediction { pc, .. }
            | TraceEventKind::SleepStart { pc, .. }
            | TraceEventKind::SpinStart { pc, .. }
            | TraceEventKind::Flush { pc, .. }
            | TraceEventKind::InternalWake { pc, .. }
            | TraceEventKind::ExternalWake { pc, .. }
            | TraceEventKind::ResidualSpin { pc, .. }
            | TraceEventKind::Release { pc, .. }
            | TraceEventKind::Depart { pc, .. }
            | TraceEventKind::CutoffDisable { pc, .. }
            | TraceEventKind::FaultInjected { pc, .. }
            | TraceEventKind::GuardRecovery { pc, .. }
            | TraceEventKind::Quarantine { pc, .. }
            | TraceEventKind::CellRetry { pc, .. }
            | TraceEventKind::WorkerSpawn { pc, .. }
            | TraceEventKind::WorkerDeath { pc, .. }
            | TraceEventKind::LeaseGrant { pc, .. }
            | TraceEventKind::LeaseReassign { pc, .. }
            | TraceEventKind::CellPoisoned { pc, .. } => pc,
        }
    }
}

/// One timestamped, thread-attributed trace record. `Copy` and fixed-size
/// so ring-buffer capture never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Simulation (or runtime-clock) timestamp of the event.
    pub at: Cycles,
    /// Dense index of the thread the event belongs to.
    pub thread: u32,
    /// What happened.
    pub kind: TraceEventKind,
}

impl TraceEvent {
    /// Creates an event.
    pub fn new(at: Cycles, thread: usize, kind: TraceEventKind) -> Self {
        TraceEvent {
            at,
            thread: thread as u32,
            kind,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_every_kind() {
        let kinds = [
            TraceEventKind::Arrival {
                episode: 3,
                pc: 7,
                last: false,
            },
            TraceEventKind::Prediction {
                episode: 3,
                pc: 7,
                predicted_bit: Cycles::new(10),
                predicted_stall: Cycles::new(4),
            },
            TraceEventKind::SleepStart {
                episode: 3,
                pc: 7,
                state: 1,
                needs_flush: true,
            },
            TraceEventKind::SpinStart { episode: 3, pc: 7 },
            TraceEventKind::Flush {
                episode: 3,
                pc: 7,
                lines: 5,
                duration: Cycles::new(9),
            },
            TraceEventKind::InternalWake { episode: 3, pc: 7 },
            TraceEventKind::ExternalWake { episode: 3, pc: 7 },
            TraceEventKind::ResidualSpin { episode: 3, pc: 7 },
            TraceEventKind::Release {
                episode: 3,
                pc: 7,
                measured_bit: Cycles::new(22),
                update_skipped: false,
            },
            TraceEventKind::Depart {
                episode: 3,
                pc: 7,
                wake_latency: Cycles::new(1),
            },
            TraceEventKind::CutoffDisable {
                episode: 3,
                pc: 7,
                penalty: Cycles::new(2),
            },
            TraceEventKind::FaultInjected {
                episode: 3,
                pc: 7,
                fault: FaultKind::LostWakeup,
            },
            TraceEventKind::GuardRecovery {
                episode: 3,
                pc: 7,
                slept: true,
            },
            TraceEventKind::Quarantine {
                episode: 3,
                pc: 7,
                entered: true,
            },
            TraceEventKind::CellRetry {
                episode: 3,
                pc: 7,
                attempt: 1,
                timed_out: false,
            },
            TraceEventKind::WorkerSpawn {
                episode: 3,
                pc: 7,
                respawn: true,
            },
            TraceEventKind::WorkerDeath {
                episode: 3,
                pc: 7,
                inflight: 1,
            },
            TraceEventKind::LeaseGrant {
                episode: 3,
                pc: 7,
                worker: 2,
            },
            TraceEventKind::LeaseReassign {
                episode: 3,
                pc: 7,
                worker: 2,
                strikes: 1,
            },
            TraceEventKind::CellPoisoned {
                episode: 3,
                pc: 7,
                strikes: 2,
            },
        ];
        let mut names = std::collections::BTreeSet::new();
        for k in kinds {
            assert_eq!(k.episode(), 3);
            assert_eq!(k.pc(), 7);
            names.insert(k.name());
        }
        assert_eq!(names.len(), 20, "names are distinct");
    }

    #[test]
    fn fault_kind_names_are_distinct() {
        let kinds = [
            FaultKind::LostWakeup,
            FaultKind::DelayedWakeup,
            FaultKind::TimerDrift,
            FaultKind::SpuriousTimer,
            FaultKind::Oversleep,
            FaultKind::DelayedUnpark,
            FaultKind::WedgedGuard,
        ];
        let names: std::collections::BTreeSet<_> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(names.len(), kinds.len());
    }

    #[test]
    fn events_serialize() {
        let ev = TraceEvent::new(
            Cycles::new(42),
            5,
            TraceEventKind::SpinStart { episode: 0, pc: 16 },
        );
        let s = serde::json::to_string(&ev);
        assert!(s.contains("SpinStart"), "{s}");
        assert!(s.contains("42"), "{s}");
    }
}
