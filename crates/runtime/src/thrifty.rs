//! The thrifty barrier on real threads.
//!
//! Uses [`tb_core::BarrierAlgorithm`] unchanged: the same PC-indexed
//! last-value BIT predictor, the same derived stall times, the same
//! deepest-state-that-fits policy and §3.3.3 cut-off. Only the physical
//! actions differ: "sleep states" are a yield loop and a timed park, the
//! external wake-up is the releaser's condvar broadcast, and the internal
//! wake-up is the park timeout.

use crate::clock::RuntimeClock;
use crate::stats::{RuntimeStats, ThreadStats};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use tb_core::{AlgorithmConfig, BarrierAlgorithm, BarrierPc, FaultPlan, SleepChoice, ThreadId};
use tb_energy::{SleepState, SleepStateId, SleepTable};
use tb_faults::FaultInjector;
use tb_sim::Cycles;
use tb_trace::{SinkHandle, SpscSink, TraceEvent, TraceEventKind};

/// Residual-spin iterations before the spinner stops burning its core and
/// escalates to a guarded park (see [`ESCALATE_GUARD`]). On a healthy
/// barrier the flip lands orders of magnitude sooner; only a lost or
/// badly delayed release broadcast reaches the bound.
const RESIDUAL_SPIN_BOUND: u32 = 1 << 18;

/// Re-check period of the escalated park: the runtime guard timer. A
/// missed broadcast costs at most one period per re-arm, so every episode
/// terminates even if the condvar signal is lost entirely.
const ESCALATE_GUARD: Duration = Duration::from_micros(200);

/// The OS-level sleep-state table: a yield loop (shallow) and a timed park
/// (deep).
///
/// "Power savings" are core-occupancy proxies: a yielding thread still
/// competes for its core, a parked thread frees it entirely. Transition
/// latencies reflect scheduler costs (a quantum hand-off, a futex round
/// trip) and play the same role as the paper's PLL stabilization times.
#[derive(Debug, Clone)]
pub struct RuntimeSleepLevels;

impl RuntimeSleepLevels {
    /// Index of the yield level in [`RuntimeSleepLevels::table`].
    pub const YIELD: usize = 0;
    /// Index of the park level.
    pub const PARK: usize = 1;

    /// The two-level table.
    pub fn table() -> SleepTable {
        SleepTable::from_states(vec![
            SleepState::new("yield", 0.30, Cycles::from_micros(5), true, false),
            SleepState::new("park", 0.95, Cycles::from_micros(30), true, false),
        ])
    }

    /// `true` when the chosen state is the park level.
    pub fn is_park(id: SleepStateId) -> bool {
        id.index() == Self::PARK
    }
}

/// What one `wait` call did (for tests and instrumentation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitOutcome {
    /// `true` on the releasing thread.
    pub was_last: bool,
    /// The sleep/spin decision taken (always `Spin` for the releaser).
    pub choice: SleepChoice,
    /// The stall predicted at arrival, if any.
    pub predicted_stall: Option<Cycles>,
    /// Measured wall-clock stall from arrival to departure.
    pub stall: Cycles,
    /// The §3.3.3 overprediction penalty measured after waking (zero for
    /// a thread that did not sleep).
    pub penalty: Cycles,
    /// Whether this episode tripped the cut-off for (thread, site).
    pub disabled: bool,
}

#[derive(Debug)]
struct Inner {
    total: usize,
    clock: RuntimeClock,
    count: AtomicUsize,
    sense: AtomicBool,
    algo: Mutex<BarrierAlgorithm>,
    gate: Mutex<()>,
    condvar: Condvar,
    stats: Vec<Mutex<ThreadStats>>,
    barriers: AtomicU64,
    trace: SinkHandle,
    sink: Option<Arc<SpscSink>>,
    faults: Option<Mutex<FaultInjector>>,
    delayed_unparks: AtomicU64,
}

/// A reusable thrifty barrier for a fixed set of OS threads.
///
/// Wrap it in an [`std::sync::Arc`] and have each thread call
/// [`ThriftyRuntimeBarrier::wait`] with its dense thread index and the
/// barrier site's PC.
#[derive(Debug)]
pub struct ThriftyRuntimeBarrier {
    inner: Inner,
}

impl ThriftyRuntimeBarrier {
    /// Creates a barrier for `total` threads with the default runtime
    /// configuration (thrifty algorithm over the yield/park table).
    ///
    /// # Panics
    ///
    /// Panics if `total == 0`.
    pub fn new(total: usize) -> Self {
        let cfg = AlgorithmConfig {
            sleep_table: RuntimeSleepLevels::table(),
            ..AlgorithmConfig::thrifty()
        };
        ThriftyRuntimeBarrier::with_config(total, cfg)
    }

    /// Creates a barrier with an explicit algorithm configuration (e.g. a
    /// conventional baseline via [`AlgorithmConfig::baseline`], or ablated
    /// thresholds).
    ///
    /// # Panics
    ///
    /// Panics if `total == 0` or the table has more than two states (the
    /// runtime knows how to execute only yield and park).
    pub fn with_config(total: usize, cfg: AlgorithmConfig) -> Self {
        ThriftyRuntimeBarrier::build(total, cfg, None)
    }

    /// Creates a traced barrier: every thread records lifecycle events into
    /// its own lock-free ring of `capacity_per_thread` events (overflowing
    /// rings drop the *newest* events so old history stays intact). Drain
    /// with [`ThriftyRuntimeBarrier::drain_trace`].
    ///
    /// # Panics
    ///
    /// As [`ThriftyRuntimeBarrier::with_config`], plus
    /// `capacity_per_thread == 0`.
    pub fn with_trace(total: usize, cfg: AlgorithmConfig, capacity_per_thread: usize) -> Self {
        let sink = Arc::new(SpscSink::new(total, capacity_per_thread));
        ThriftyRuntimeBarrier::build(total, cfg, Some(sink))
    }

    /// Creates a barrier with seed-driven fault injection: spurious park
    /// wake-ups (absorbed by the predicate loop) and delayed release
    /// broadcasts (the unpark-analog delay), per `plan`. A disabled plan
    /// yields a plain barrier.
    ///
    /// # Panics
    ///
    /// As [`ThriftyRuntimeBarrier::with_config`].
    pub fn with_faults(total: usize, cfg: AlgorithmConfig, plan: &FaultPlan) -> Self {
        let mut barrier = ThriftyRuntimeBarrier::build(total, cfg, None);
        barrier.inner.faults = FaultInjector::from_plan(plan).map(Mutex::new);
        barrier
    }

    fn build(total: usize, cfg: AlgorithmConfig, sink: Option<Arc<SpscSink>>) -> Self {
        assert!(total > 0, "a barrier needs at least one thread");
        assert!(
            cfg.sleep_table.len() <= 2,
            "the runtime maps at most two sleep levels (yield, park)"
        );
        let trace = match &sink {
            Some(s) => SinkHandle::new(Arc::clone(s) as _),
            None => SinkHandle::disabled(),
        };
        let mut algo = BarrierAlgorithm::new(cfg, total);
        algo.set_trace(trace.clone());
        ThriftyRuntimeBarrier {
            inner: Inner {
                total,
                clock: RuntimeClock::new(),
                count: AtomicUsize::new(0),
                sense: AtomicBool::new(false),
                algo: Mutex::new(algo),
                gate: Mutex::new(()),
                condvar: Condvar::new(),
                stats: (0..total)
                    .map(|_| Mutex::new(ThreadStats::default()))
                    .collect(),
                barriers: AtomicU64::new(0),
                trace,
                sink,
                faults: None,
                delayed_unparks: AtomicU64::new(0),
            },
        }
    }

    /// Drains and returns all trace events captured so far, sorted by
    /// `(timestamp, thread)`, or `None` when the barrier was built without
    /// tracing. Call between episodes or after joining the workers; events
    /// pushed concurrently with the drain may be missed until the next one.
    pub fn drain_trace(&self) -> Option<Vec<TraceEvent>> {
        self.inner.sink.as_ref().map(|s| s.drain_sorted())
    }

    /// Events lost to ring overflow so far (0 without tracing).
    pub fn trace_dropped(&self) -> u64 {
        self.inner.sink.as_ref().map_or(0, |s| s.dropped())
    }

    /// Number of participating threads.
    pub fn total(&self) -> usize {
        self.inner.total
    }

    /// A snapshot of the accumulated statistics.
    pub fn stats(&self) -> RuntimeStats {
        RuntimeStats {
            threads: self.inner.stats.iter().map(|s| *s.lock()).collect(),
            barriers_completed: self.inner.barriers.load(Ordering::Acquire),
            delayed_unparks: self.inner.delayed_unparks.load(Ordering::Acquire),
        }
    }

    /// Waits at the barrier site `pc` as thread `thread`.
    ///
    /// # Panics
    ///
    /// Panics if `thread >= total`. Calling with a thread index that is
    /// concurrently used by another OS thread corrupts the statistics but
    /// not the barrier itself.
    pub fn wait(&self, thread: usize, pc: BarrierPc) -> WaitOutcome {
        assert!(thread < self.inner.total, "thread index out of range");
        let inner = &self.inner;
        let tid = ThreadId::new(thread);
        let local_sense = !inner.sense.load(Ordering::Acquire);
        let arrived = inner.count.fetch_add(1, Ordering::AcqRel) + 1;
        if arrived == inner.total {
            return self.release(tid, pc, local_sense);
        }
        let arrival = inner.clock.now();
        let episode = inner.barriers.load(Ordering::Acquire);
        inner.trace.emit(TraceEvent::new(
            arrival,
            thread,
            TraceEventKind::Arrival {
                episode,
                pc: pc.as_u64(),
                last: false,
            },
        ));
        let decision = inner.algo.lock().on_early_arrival(tid, pc, arrival);
        let (wake_ts, spin_since) = match decision.choice {
            SleepChoice::Spin => {
                inner.stats[thread].lock().spins += 1;
                inner.trace.emit(TraceEvent::new(
                    arrival,
                    thread,
                    TraceEventKind::SpinStart {
                        episode,
                        pc: pc.as_u64(),
                    },
                ));
                (None, arrival)
            }
            SleepChoice::Sleep { state, .. } => {
                inner.stats[thread].lock().sleeps += 1;
                inner.trace.emit(TraceEvent::new(
                    arrival,
                    thread,
                    TraceEventKind::SleepStart {
                        episode,
                        pc: pc.as_u64(),
                        state: state.index() as u32,
                        needs_flush: false,
                    },
                ));
                let (woke, timed_out, early) = if RuntimeSleepLevels::is_park(state) {
                    self.park_until(thread, local_sense, decision.wakeup.internal_at)
                } else {
                    self.yield_until(thread, local_sense, decision.wakeup.internal_at)
                };
                let wake_kind = if timed_out {
                    TraceEventKind::InternalWake {
                        episode,
                        pc: pc.as_u64(),
                    }
                } else {
                    TraceEventKind::ExternalWake {
                        episode,
                        pc: pc.as_u64(),
                    }
                };
                inner.trace.emit(TraceEvent::new(woke, thread, wake_kind));
                if early {
                    inner.trace.emit(TraceEvent::new(
                        woke,
                        thread,
                        TraceEventKind::ResidualSpin {
                            episode,
                            pc: pc.as_u64(),
                        },
                    ));
                }
                (Some(woke), woke)
            }
        };
        // Residual spin (§3.3.1): correctness never depends on the wake-up
        // being exact. Unlike the simulated hardware spinloop, a real
        // runtime must tolerate oversubscription (more threads than
        // cores), so the spin cedes the core every few thousand
        // iterations — without this, spinners can starve the releaser on
        // small machines.
        let mut iterations = 0u32;
        let mut escalated_at: Option<Cycles> = None;
        while inner.sense.load(Ordering::Acquire) != local_sense {
            std::hint::spin_loop();
            iterations += 1;
            if iterations.is_multiple_of(4096) {
                std::thread::yield_now();
            }
            if iterations >= RESIDUAL_SPIN_BOUND {
                // The flip is overdue — a delayed or lost release signal.
                // Stop burning the core: park on the condvar, re-arming a
                // guard timeout so even a missed broadcast terminates.
                escalated_at = Some(inner.clock.now());
                let mut guard = inner.gate.lock();
                while inner.sense.load(Ordering::Acquire) != local_sense {
                    let _ = inner.condvar.wait_for(&mut guard, ESCALATE_GUARD);
                }
                drop(guard);
                break;
            }
        }
        let departed = inner.clock.now();
        {
            let mut stats = inner.stats[thread].lock();
            match escalated_at {
                Some(since) => {
                    stats.spin += since.saturating_sub(spin_since);
                    stats.escalated += departed.saturating_sub(since);
                    stats.escalations += 1;
                }
                None => stats.spin += departed.saturating_sub(spin_since),
            }
        }
        // Only a sleeper's wake-up feeds the §3.3.3 cut-off: a spinner
        // sees the flip late only when the host deschedules it.
        let finish = {
            let mut algo = inner.algo.lock();
            match wake_ts {
                Some(woke) => algo.finish_barrier(tid, pc, woke),
                None => algo.finish_awake(tid, pc),
            }
        };
        if finish.disabled {
            inner.stats[thread].lock().cutoff_disables += 1;
        }
        inner.trace.emit(TraceEvent::new(
            departed,
            thread,
            TraceEventKind::Depart {
                episode,
                pc: pc.as_u64(),
                wake_latency: finish.penalty,
            },
        ));
        WaitOutcome {
            was_last: false,
            choice: decision.choice,
            predicted_stall: decision.predicted_stall,
            stall: departed.saturating_sub(arrival),
            penalty: finish.penalty,
            disabled: finish.disabled,
        }
    }

    fn release(&self, tid: ThreadId, pc: BarrierPc, local_sense: bool) -> WaitOutcome {
        let inner = &self.inner;
        let now = inner.clock.now();
        let episode = inner.barriers.load(Ordering::Acquire);
        inner.trace.emit(TraceEvent::new(
            now,
            tid.index(),
            TraceEventKind::Arrival {
                episode,
                pc: pc.as_u64(),
                last: true,
            },
        ));
        let mut algo = inner.algo.lock();
        algo.on_last_arrival(tid, pc, now);
        inner.count.store(0, Ordering::Release);
        {
            // Publish the flip under the gate so parked threads cannot miss
            // the broadcast between their predicate check and their wait.
            let _g = inner.gate.lock();
            inner.sense.store(local_sense, Ordering::Release);
        }
        // Fault (d): a delayed unpark analog — the flip is visible (spinners
        // proceed) but the broadcast that actually wakes parked threads is
        // held back. Parked threads ride their internal timeout or the
        // escalated guard until it lands.
        if let Some(faults) = &inner.faults {
            if let Some(delay) = faults.lock().unpark_delay() {
                inner.delayed_unparks.fetch_add(1, Ordering::AcqRel);
                std::thread::sleep(Duration::from_nanos(delay.as_u64()));
            }
        }
        inner.condvar.notify_all();
        let finish = algo.finish_awake(tid, pc);
        drop(algo);
        inner.barriers.fetch_add(1, Ordering::AcqRel);
        inner.trace.emit(TraceEvent::new(
            inner.clock.now(),
            tid.index(),
            TraceEventKind::Depart {
                episode,
                pc: pc.as_u64(),
                wake_latency: Cycles::ZERO,
            },
        ));
        WaitOutcome {
            was_last: true,
            choice: SleepChoice::Spin,
            predicted_stall: None,
            stall: Cycles::ZERO,
            penalty: finish.penalty,
            disabled: finish.disabled,
        }
    }

    /// Deep sleep: park on the condvar until the release broadcast
    /// (external wake-up) or the internal timeout. Returns the wake-up
    /// timestamp plus whether the timer fired and whether it fired *early*
    /// (before the release).
    fn park_until(
        &self,
        thread: usize,
        local_sense: bool,
        deadline: Option<Cycles>,
    ) -> (Cycles, bool, bool) {
        let inner = &self.inner;
        let start = inner.clock.now();
        let mut spurious = 0u64;
        let mut guard = inner.gate.lock();
        let mut timed_out = false;
        while inner.sense.load(Ordering::Acquire) != local_sense {
            // Fault (b), runtime flavor: a spurious OS wake-up — the wait
            // returns almost immediately without a signal. The predicate
            // loop absorbs it; the tiny timed wait releases the gate so the
            // releaser is never blocked by injection.
            let is_spurious = inner
                .faults
                .as_ref()
                .is_some_and(|f| f.lock().spurious_park_wake());
            if is_spurious {
                spurious += 1;
                let _ = inner.condvar.wait_for(&mut guard, Duration::from_micros(1));
                continue;
            }
            match deadline {
                Some(at) => {
                    let now = inner.clock.now();
                    if now >= at {
                        timed_out = true;
                        break;
                    }
                    let remaining = Duration::from_nanos(at.saturating_sub(now).as_u64());
                    if inner.condvar.wait_for(&mut guard, remaining).timed_out() {
                        timed_out = true;
                        break;
                    }
                }
                None => {
                    // Even an untimed park gets the guard period: a lost
                    // broadcast must not strand the thread forever.
                    let _ = inner.condvar.wait_for(&mut guard, ESCALATE_GUARD);
                }
            }
        }
        drop(guard);
        let woke = inner.clock.now();
        let early = timed_out && inner.sense.load(Ordering::Acquire) != local_sense;
        let mut stats = inner.stats[thread].lock();
        stats.parked += woke.saturating_sub(start);
        stats.spurious_wakeups += spurious;
        if early {
            stats.early_wakeups += 1;
        }
        (woke, timed_out, early)
    }

    /// Shallow sleep: cede the core repeatedly until the flip or the
    /// internal timeout. Same return convention as
    /// [`ThriftyRuntimeBarrier::park_until`].
    fn yield_until(
        &self,
        thread: usize,
        local_sense: bool,
        deadline: Option<Cycles>,
    ) -> (Cycles, bool, bool) {
        let inner = &self.inner;
        let start = inner.clock.now();
        let mut timed_out = false;
        while inner.sense.load(Ordering::Acquire) != local_sense {
            if let Some(at) = deadline {
                if inner.clock.now() >= at {
                    timed_out = true;
                    break;
                }
            }
            std::thread::yield_now();
        }
        let woke = inner.clock.now();
        let early = timed_out && inner.sense.load(Ordering::Acquire) != local_sense;
        let mut stats = inner.stats[thread].lock();
        stats.yielded += woke.saturating_sub(start);
        if early {
            stats.early_wakeups += 1;
        }
        (woke, timed_out, early)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    const PC: BarrierPc = BarrierPc::new(0xBEEF);

    fn run_phases(
        barrier: Arc<ThriftyRuntimeBarrier>,
        threads: usize,
        episodes: usize,
        stagger: impl Fn(usize, usize) -> Duration + Send + Sync + Copy + 'static,
    ) -> Vec<Vec<WaitOutcome>> {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let b = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    (0..episodes)
                        .map(|e| {
                            std::thread::sleep(stagger(t, e));
                            b.wait(t, PC)
                        })
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn synchronizes_correctly_under_stagger() {
        let threads = 4;
        let episodes = 20;
        let barrier = Arc::new(ThriftyRuntimeBarrier::new(threads));
        let counts: Arc<Vec<AtomicUsize>> =
            Arc::new((0..episodes).map(|_| AtomicUsize::new(0)).collect());
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let b = Arc::clone(&barrier);
                let counts = Arc::clone(&counts);
                std::thread::spawn(move || {
                    for e in 0..episodes {
                        std::thread::sleep(Duration::from_micros((t as u64) * 300));
                        counts[e].fetch_add(1, Ordering::SeqCst);
                        b.wait(t, PC);
                        assert_eq!(counts[e].load(Ordering::SeqCst), threads);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(barrier.stats().barriers_completed, episodes as u64);
    }

    #[test]
    fn imbalanced_workload_parks_the_early_threads() {
        // Thread 3 is an 8 ms straggler every episode; after the warm-up
        // episode the others should predict the stall and decide to park.
        // The test checks those decisions, not the share of host time
        // spent parked, which scheduling noise can swamp. A loaded host can
        // wake a parked thread more than a tenth of the interval late; the
        // §3.3.3 cut-off then ends that thread's predictions, so only the
        // episodes in which it still predicted are counted.
        let threads = 4;
        let episodes = 12;
        let barrier = Arc::new(ThriftyRuntimeBarrier::new(threads));
        let outcomes = run_phases(Arc::clone(&barrier), threads, episodes, |t, _| {
            if t == 3 {
                Duration::from_millis(8)
            } else {
                Duration::from_micros(100)
            }
        });
        let stats = barrier.stats();
        for (t, (outs, early)) in outcomes.iter().zip(&stats.threads).take(3).enumerate() {
            let predicted: Vec<_> = outs
                .iter()
                .filter(|o| o.predicted_stall.is_some())
                .collect();
            let sleeps = predicted.iter().filter(|o| o.choice.is_sleep()).count();
            // A thread descheduled for the straggler's whole phase may
            // arrive too late to sleep in an episode, but not in half of
            // them.
            assert!(
                sleeps > 0 && 2 * sleeps >= predicted.len(),
                "thread {t} slept in {sleeps} of the {} episodes it predicted: {early}",
                predicted.len()
            );
            assert!(
                early.parked > Cycles::ZERO,
                "thread {t} never parked: {early}"
            );
        }
    }

    #[test]
    fn warmup_episode_spins() {
        let threads = 2;
        let barrier = Arc::new(ThriftyRuntimeBarrier::new(threads));
        let b = Arc::clone(&barrier);
        let h = std::thread::spawn(move || b.wait(1, PC));
        std::thread::sleep(Duration::from_millis(1));
        barrier.wait(0, PC);
        h.join().unwrap();
        let stats = barrier.stats();
        assert_eq!(stats.combined().sleeps, 0, "no history on instance 0");
        assert_eq!(stats.combined().spins, 1);
    }

    #[test]
    fn balanced_workload_spins_on_short_predictions() {
        // Stalls far below the yield profitability bound: the policy should
        // keep everyone spinning. A loaded host can stretch a 3 µs phase
        // into a stall of milliseconds, and parking on such a prediction is
        // right, so each decision is checked against the stall it predicted
        // instead of counting spins.
        let threads = 4;
        let barrier = Arc::new(ThriftyRuntimeBarrier::new(threads));
        let outcomes = run_phases(Arc::clone(&barrier), threads, 10, |_, _| {
            Duration::from_micros(3)
        });
        let table = RuntimeSleepLevels::table();
        let bound = table
            .state(table.shallowest())
            .round_trip()
            .scale(AlgorithmConfig::thrifty().min_stall_multiple);
        let mut predictions = 0;
        for o in outcomes.iter().flatten() {
            if let Some(stall) = o.predicted_stall {
                predictions += 1;
                assert_eq!(o.choice.is_spin(), stall < bound, "{o:?}");
            }
        }
        assert!(predictions > 0, "no episode after warm-up predicted");
    }

    #[test]
    fn baseline_config_never_sleeps() {
        let threads = 4;
        let cfg = AlgorithmConfig {
            sleep_table: RuntimeSleepLevels::table(),
            ..AlgorithmConfig::baseline()
        };
        let barrier = Arc::new(ThriftyRuntimeBarrier::with_config(threads, cfg));
        run_phases(Arc::clone(&barrier), threads, 8, |t, _| {
            Duration::from_millis(if t == 0 { 2 } else { 0 })
        });
        let stats = barrier.stats().combined();
        assert_eq!(stats.sleeps, 0);
        assert_eq!(stats.parked, Cycles::ZERO);
    }

    #[test]
    fn distinct_sites_predict_independently() {
        let threads = 2;
        let barrier = Arc::new(ThriftyRuntimeBarrier::new(threads));
        let pc2 = BarrierPc::new(0xCAFE);
        let b = Arc::clone(&barrier);
        let h = std::thread::spawn(move || {
            for _ in 0..6 {
                b.wait(1, PC);
                b.wait(1, pc2);
            }
        });
        for _ in 0..6 {
            std::thread::sleep(Duration::from_millis(2));
            barrier.wait(0, PC);
            barrier.wait(0, pc2);
        }
        h.join().unwrap();
        assert_eq!(barrier.stats().barriers_completed, 12);
    }

    #[test]
    fn wait_outcome_reports_prediction() {
        let threads = 2;
        let barrier = Arc::new(ThriftyRuntimeBarrier::new(threads));
        let b = Arc::clone(&barrier);
        let outcomes = std::thread::spawn(move || {
            let mut outs = Vec::new();
            for _ in 0..5 {
                outs.push(b.wait(1, PC));
            }
            outs
        });
        for _ in 0..5 {
            // Thread 1 checks in first in every episode, however the host
            // schedules it: wait for its arrival, then stall 2 ms.
            while barrier.inner.count.load(Ordering::Acquire) == 0 {
                std::thread::yield_now();
            }
            std::thread::sleep(Duration::from_millis(2));
            barrier.wait(0, PC);
        }
        let outs = outcomes.join().unwrap();
        assert!(outs.iter().all(|o| !o.was_last));
        assert_eq!(outs[0].predicted_stall, None, "warm-up has no prediction");
        // Episode 1 predicts from the warm-up's interval; a late wake-up
        // from that sleep may trip the cut-off and end later predictions.
        assert!(
            outs[1..].iter().any(|o| o.predicted_stall.is_some()),
            "later episodes predict"
        );
        assert!(outs.iter().all(|o| o.stall > Cycles::ZERO));
    }

    #[test]
    fn traced_barrier_captures_consistent_events() {
        use tb_trace::{TraceKindCounts, TraceSummary};
        let threads = 4;
        let episodes = 10;
        let cfg = AlgorithmConfig {
            sleep_table: RuntimeSleepLevels::table(),
            ..AlgorithmConfig::thrifty()
        };
        let barrier = Arc::new(ThriftyRuntimeBarrier::with_trace(threads, cfg, 4096));
        run_phases(Arc::clone(&barrier), threads, episodes, |t, _| {
            if t == 0 {
                Duration::from_millis(4)
            } else {
                Duration::from_micros(50)
            }
        });
        let events = barrier.drain_trace().expect("tracing was enabled");
        assert_eq!(barrier.trace_dropped(), 0);
        assert!(events.windows(2).all(|w| w[0].at <= w[1].at), "sorted");

        let counts = TraceKindCounts::from_events(&events);
        let stats = barrier.stats().combined();
        let total = (threads * episodes) as u64;
        assert_eq!(counts.releases, episodes as u64);
        assert_eq!(counts.last_arrivals, episodes as u64);
        assert_eq!(counts.arrivals, total - episodes as u64);
        assert_eq!(counts.departs, total);
        assert_eq!(counts.sleep_starts, stats.sleeps);
        assert_eq!(counts.spin_starts, stats.spins);
        assert_eq!(
            counts.internal_wakes + counts.external_wakes,
            stats.sleeps,
            "every sleep woke exactly once"
        );
        assert_eq!(counts.residual_spins, stats.early_wakeups);
        assert!(counts.sleep_starts > 0, "the straggler forced sleeps");

        let summary = TraceSummary::from_events(&events, barrier.trace_dropped());
        assert_eq!(summary.events, events.len() as u64);
        // The latency digest covers sleeper departures only; each sleep is
        // followed by exactly one departure of that thread.
        assert_eq!(summary.wake_latency.samples, counts.sleep_starts);
    }

    #[test]
    fn untraced_barrier_has_no_trace() {
        let barrier = ThriftyRuntimeBarrier::new(1);
        assert!(barrier.drain_trace().is_none());
        assert_eq!(barrier.trace_dropped(), 0);
    }

    #[test]
    #[should_panic(expected = "thread index out of range")]
    fn out_of_range_thread_rejected() {
        ThriftyRuntimeBarrier::new(2).wait(2, PC);
    }

    #[test]
    #[should_panic(expected = "at most two sleep levels")]
    fn three_state_table_rejected() {
        let cfg = AlgorithmConfig::thrifty(); // paper table: 3 states
        let _ = ThriftyRuntimeBarrier::with_config(2, cfg);
    }
}
