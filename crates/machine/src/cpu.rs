//! The per-CPU barrier-wait state machine, and the one event loop that
//! runs it on every substrate.
//!
//! The paper's wait lifecycle is one mechanism on every substrate. An
//! early arrival spins, or enters a sleep state with a hybrid wake-up
//! (§3.1, §3.3). The timer or the external signal starts the exit. Back
//! up, the CPU checks for the release and spins out the residue if it
//! woke early (§3.3.1). At departure the algorithm judges the wake-up
//! (§3.3.3). [`Cpus`] runs that lifecycle for every CPU of a run, and
//! holds what it charges and counts: the energy ledger, the barrier event
//! counts, the prediction error, the CPU-level faults (timer skew,
//! oversleep) and the trace emits.
//!
//! [`Cpus::run`] is the run itself: it pops the one [`EventQueue`] of
//! [`Event`]s, polls the wall-clock [`Deadline`], and counts the events
//! since the last departure for the livelock watchdog. The lifecycle's
//! own events it handles here, the guard timer among them: under a fault
//! plan every waiting CPU has a guard that rescues it if the release
//! came and its wake-up signal did not (DESIGN.md §10).
//!
//! A simulator keeps only its [`Transport`]: how a check-in reaches the
//! releaser and how the release reaches the waiters. For the directory
//! machine ([`crate::sim`]) that is the coherent barrier flag; for the
//! cluster ([`crate::cluster`]) it is the arrival and release messages.
//! Their own events ride the same queue, wrapped in [`Event::Substrate`].

use crate::report::{BarrierEventCounts, InstanceRecord, RunReport};
use std::time::{Duration, Instant};
use tb_core::{
    ArrivalDecision, BarrierAlgorithm, BarrierPc, ReleaseInfo, ThreadId, UpdateOutcome, WakeupPlan,
};
use tb_energy::{EnergyCategory, MachineLedger, PowerModel, SleepStateId};
use tb_faults::{FaultInjector, FaultSummary};
use tb_sim::{Cycles, EventId, EventQueue, OnlineStats};
use tb_trace::{FaultKind, SinkHandle, TraceEvent, TraceEventKind};
use tb_workloads::AppTrace;

/// Default livelock watchdog budget: how many events a run may process
/// *since the last barrier departure* before it is declared livelocked.
/// Progress-relative (not total), so it is independent of trace length: a
/// healthy run needs only O(threads) events between departures (a few per
/// thread per episode), while a livelocked run cycles wedged guard timers
/// without ever departing. 2^18 leaves three orders of magnitude of
/// headroom at 64 nodes yet trips in milliseconds of host time.
pub(crate) const DEFAULT_PROGRESS_BUDGET: u64 = 1 << 18;

/// What the livelock watchdog saw when it tripped: either the
/// events-since-progress budget was exhausted (guard timers cycling with
/// no departures) or the event queue drained with threads still waiting
/// (`budget == 0`, `queue_len == 0` — every recovery path is dead).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LivelockDiagnostics {
    /// Events processed since the last barrier departure.
    pub events_since_progress: u64,
    /// The budget those events exhausted (zero when the queue drained
    /// instead).
    pub budget: u64,
    /// The earliest episode a live thread is stuck at.
    pub episode: u64,
    /// Pending events at the moment the watchdog tripped.
    pub queue_len: u64,
    /// Threads that had not finished their trace.
    pub live_threads: u64,
}

impl std::fmt::Display for LivelockDiagnostics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.queue_len == 0 && self.budget == 0 {
            write!(
                f,
                "event queue drained with {} live thread(s) stuck at episode {}",
                self.live_threads, self.episode
            )
        } else {
            write!(
                f,
                "no departure in {} events (budget {}); {} live thread(s) stuck at \
                 episode {}, {} event(s) pending",
                self.events_since_progress,
                self.budget,
                self.live_threads,
                self.episode,
                self.queue_len
            )
        }
    }
}

/// Why a cell (one simulation attempt) failed to produce a report.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum CellError {
    /// The simulation panicked; the payload is the panic message.
    Panic(String),
    /// The run's progress watchdog declared it livelocked.
    Livelock(LivelockDiagnostics),
    /// The attempt ran past its wall-clock [`Deadline`]; the run noticed
    /// at its next deadline poll and stopped.
    Timeout {
        /// The deadline that was exceeded, in milliseconds.
        limit_ms: u64,
    },
    /// The cell killed `strikes` worker processes in a row and was
    /// quarantined as poison by the multi-process sweep coordinator
    /// (`tb-serve`): it is recorded in coverage and never dispatched
    /// again. Only the coordinator produces this variant — an in-process
    /// harness has no worker processes to lose.
    Poisoned {
        /// Consecutive worker deaths that condemned the cell.
        strikes: u32,
    },
}

impl CellError {
    /// Whether a retry could plausibly succeed. Panics and timeouts are
    /// treated as transient (OOM, scheduling jitter, host interference);
    /// livelocks are deterministic — the same seed wedges the same guard
    /// timers — so retrying one only wastes the budget. A poisoned cell
    /// already exhausted its worker-death strikes, so it is final by
    /// definition.
    pub fn is_transient(&self) -> bool {
        matches!(self, CellError::Panic(_) | CellError::Timeout { .. })
    }

    /// Short machine-readable class name ("panic" / "livelock" /
    /// "timeout" / "poisoned").
    pub fn kind(&self) -> &'static str {
        match self {
            CellError::Panic(_) => "panic",
            CellError::Livelock(_) => "livelock",
            CellError::Timeout { .. } => "timeout",
            CellError::Poisoned { .. } => "poisoned",
        }
    }
}

impl std::fmt::Display for CellError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CellError::Panic(msg) => write!(f, "panic: {msg}"),
            CellError::Livelock(d) => write!(f, "livelock: {d}"),
            CellError::Timeout { limit_ms } => write!(f, "timeout after {limit_ms} ms"),
            CellError::Poisoned { strikes } => {
                write!(f, "poisoned after {strikes} worker deaths")
            }
        }
    }
}

/// How many events a run processes between two looks at the wall clock
/// when a [`Deadline`] is set: rare enough that the clock read is noise,
/// frequent enough that an expired run stops within about a millisecond
/// of host time.
pub(crate) const DEADLINE_POLL_EVENTS: u64 = 1024;

/// A wall-clock bound on one simulation attempt, checked cooperatively by
/// the event loop every 1024 events. An expired run returns
/// [`CellError::Timeout`] instead of finishing.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    at: Instant,
    limit_ms: u64,
}

impl Deadline {
    /// A deadline `limit` from now.
    pub fn after(limit: Duration) -> Self {
        Deadline {
            at: Instant::now() + limit,
            limit_ms: limit.as_millis() as u64,
        }
    }

    /// Counts one event of a run, reading the wall clock on the first and
    /// then every 1024th: a run past the deadline stops with
    /// [`CellError::Timeout`].
    fn poll(&self, events: &mut u64) -> Result<(), CellError> {
        let expired = events.is_multiple_of(DEADLINE_POLL_EVENTS) && Instant::now() >= self.at;
        *events += 1;
        if expired {
            return Err(CellError::Timeout {
                limit_ms: self.limit_ms,
            });
        }
        Ok(())
    }
}

/// How check-ins and releases travel on one substrate: everything of a
/// run that is not the wait lifecycle. [`Cpus::run`] hands it the
/// lifecycle's hand-offs and the substrate's own events.
pub(crate) trait Transport {
    /// The substrate's own events.
    type Event;
    /// `tid` finished its compute phase at `now`: it checks in.
    fn compute_done(&mut self, cpus: &mut Cpus<Self::Event>, tid: usize, now: Cycles);
    /// `tid`'s entry or exit transition finished at `now`, leaving it
    /// `settled`.
    fn settled(&mut self, cpus: &mut Cpus<Self::Event>, tid: usize, settled: Settled, now: Cycles);
    /// A substrate event came due at `now`.
    fn on_event(&mut self, cpus: &mut Cpus<Self::Event>, event: Self::Event, now: Cycles);
    /// `tid`'s guard found it spinning at `now` after its barrier
    /// released: the release signal was lost, so it looks again.
    fn rescue_spinner(&mut self, cpus: &mut Cpus<Self::Event>, tid: usize, now: Cycles);
}

/// One event of a run: one of the wait lifecycle's own, or one of the
/// substrate that drives it.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Event<X> {
    /// The CPU finished its compute phase.
    ComputeDone { tid: usize },
    /// The countdown timer armed at `episode` expired.
    TimerFired { tid: usize, episode: usize },
    /// A sleep-state entry or exit transition finished.
    TransitionDone { tid: usize },
    /// The guard armed when the CPU began waiting at `episode` fired
    /// (fault runs only).
    GuardTimer { tid: usize, episode: usize },
    /// An event of the substrate.
    Substrate(X),
}

/// Where a CPU is in its barrier episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum State {
    Computing,
    /// Awake and waiting for the release: spinning on the flag, or polling
    /// the network interface.
    Spinning {
        since: Cycles,
    },
    /// §3.4.1 time-sharing: the CPU is running another process; the
    /// barrier thread resumes at a quantum boundary.
    Yielded {
        since: Cycles,
    },
    EnteringSleep {
        state: SleepStateId,
        wake_pending: bool,
    },
    Sleeping {
        state: SleepStateId,
        since: Cycles,
    },
    ExitingSleep,
    Done,
}

/// One CPU's record.
#[derive(Debug)]
pub(crate) struct Cpu {
    pub state: State,
    /// Index of the next/current trace step.
    pub step: usize,
    /// When the thread departed the previous barrier.
    pub depart_time: Cycles,
    /// Whether the external signal (the flag invalidation or the release
    /// message) may end this sleep.
    wake_armed: bool,
    /// Pending internal-timer event, if armed.
    timer: Option<EventId>,
    /// The BIT predicted at this episode's arrival (for accuracy stats).
    predicted_bit: Option<Cycles>,
    /// How often the guard of this episode fires while the barrier waits.
    guard_interval: Cycles,
}

/// What a finished transition leaves to the substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Settled {
    /// Nothing: an entry ended (the CPU sleeps, or, with a wake-up
    /// pending, has begun its exit), or an exit ended ahead of the release
    /// and the CPU spins out the residue (§3.3.1) until the release
    /// reaches it as it reaches any spinner.
    Waiting,
    /// An exit ended with the release visible: the CPU departs.
    Released,
    /// An exit ended after the release was issued but before it was
    /// visible: the CPU spins out the residue, and the substrate must
    /// show it the release, whose signal went out while it was waking.
    InFlight,
}

/// Every CPU of one run, with the event queue, the algorithm and the
/// tallies their wait lifecycle feeds.
#[derive(Debug)]
pub(crate) struct Cpus<X> {
    queue: EventQueue<Event<X>>,
    pub cpu: Vec<Cpu>,
    pub trace: AppTrace,
    pub algo: BarrierAlgorithm,
    pub ledger: MachineLedger,
    pub counts: BarrierEventCounts,
    /// Fault source for the CPUs' timers and exit transitions (`None`
    /// unless a fault plan is enabled).
    pub injector: Option<FaultInjector>,
    /// Injected-fault and recovery tallies (all zero in fault-free runs).
    pub faults: FaultSummary,
    released: Vec<bool>,
    /// Semantic release time of each episode: the last thread's check-in.
    pub episode_release: Vec<Cycles>,
    pub p_compute: f64,
    pub p_spin: f64,
    /// How long after the semantic release each CPU back from sleep can
    /// see it.
    release_lag: Vec<Cycles>,
    /// Livelock watchdog: events processed since the last departure.
    events_since_progress: u64,
    arrivals: Vec<u32>,
    episode_bits: Vec<Cycles>,
    prediction_error: OnlineStats,
    sink: SinkHandle,
    tdp_max: f64,
}

impl<X> Cpus<X> {
    /// The CPUs of `trace`, all computing their first phase, under `algo`.
    /// CPU `tid` back from sleep sees the release `release_lag[tid]` after
    /// the last check-in; `sink` receives the lifecycle's events and the
    /// algorithm's. Every CPU draws the paper's power.
    pub fn new(
        trace: AppTrace,
        mut algo: BarrierAlgorithm,
        release_lag: Vec<Cycles>,
        sink: SinkHandle,
    ) -> Self {
        algo.set_trace(sink.clone());
        let power = PowerModel::paper();
        let threads = trace.threads;
        assert_eq!(release_lag.len(), threads, "one release lag per CPU");
        let episodes = trace.steps.len();
        let counts = BarrierEventCounts {
            sleeps_by_state: vec![0; algo.policy().table().len()],
            ..BarrierEventCounts::default()
        };
        Cpus {
            queue: EventQueue::new(),
            cpu: (0..threads)
                .map(|_| Cpu {
                    state: State::Computing,
                    step: 0,
                    depart_time: Cycles::ZERO,
                    wake_armed: false,
                    timer: None,
                    predicted_bit: None,
                    guard_interval: Cycles::ZERO,
                })
                .collect(),
            ledger: MachineLedger::new(threads),
            counts,
            injector: None,
            faults: FaultSummary::default(),
            released: vec![false; episodes],
            episode_release: vec![Cycles::MAX; episodes],
            p_compute: power.compute_watts(),
            p_spin: power.spin_watts(),
            release_lag,
            events_since_progress: 0,
            arrivals: vec![0; episodes],
            episode_bits: vec![Cycles::ZERO; episodes],
            prediction_error: OnlineStats::new(),
            sink,
            tdp_max: power.tdp_max(),
            trace,
            algo,
        }
    }

    /// Runs every CPU through its trace, handing `transport` the
    /// check-ins, the settled transitions, the guard's rescue of a spinner
    /// and the substrate's own events.
    ///
    /// The run stops early with a typed error when
    ///
    /// * the livelock watchdog trips ([`CellError::Livelock`]): either no
    ///   barrier departure happened within `budget` events (`None` never
    ///   trips), or the event queue drained with CPUs still waiting (a lost
    ///   wake-up whose every recovery path — the guard timer included — is
    ///   dead). Fault plans with `wedge_guard` provoke exactly this;
    /// * `deadline` passes ([`CellError::Timeout`]), noticed at the next
    ///   poll of the wall clock (every 1024 events).
    ///
    /// Neither check alters the event schedule, so a run that completes
    /// is identical with or without them.
    pub fn run<T: Transport<Event = X>>(
        &mut self,
        transport: &mut T,
        deadline: Option<Deadline>,
        budget: Option<u64>,
    ) -> Result<(), CellError> {
        for tid in 0..self.cpu.len() {
            let dur = self.trace.steps[0].compute[tid];
            self.queue.schedule(dur, Event::ComputeDone { tid });
        }
        let mut events = 0u64;
        while let Some((now, ev)) = self.queue.pop() {
            self.events_since_progress += 1;
            if let Some(budget) = budget {
                if self.events_since_progress > budget {
                    return Err(CellError::Livelock(self.livelock_diagnostics(budget)));
                }
            }
            if let Some(d) = &deadline {
                d.poll(&mut events)?;
            }
            match ev {
                Event::ComputeDone { tid } => transport.compute_done(self, tid, now),
                Event::TimerFired { tid, episode } => self.on_timer(tid, episode, now),
                Event::TransitionDone { tid } => {
                    let settled = self.on_transition_done(tid, now);
                    transport.settled(self, tid, settled, now);
                }
                Event::GuardTimer { tid, episode } => {
                    if self.on_guard_timer(tid, episode, now) {
                        transport.rescue_spinner(self, tid, now);
                    }
                }
                Event::Substrate(ev) => transport.on_event(self, ev, now),
            }
        }
        if self.cpu.iter().any(|c| c.state != State::Done) {
            return Err(CellError::Livelock(self.livelock_diagnostics(0)));
        }
        Ok(())
    }

    /// Snapshot of the stuck state for the watchdog's error report.
    fn livelock_diagnostics(&self, budget: u64) -> LivelockDiagnostics {
        let live: Vec<_> = self.cpu.iter().filter(|c| c.state != State::Done).collect();
        LivelockDiagnostics {
            events_since_progress: self.events_since_progress,
            budget,
            episode: live.iter().map(|c| c.step).min().unwrap_or(0) as u64,
            queue_len: self.queue.len() as u64,
            live_threads: live.len() as u64,
        }
    }

    /// Schedules a substrate event.
    #[inline]
    pub fn schedule(&mut self, at: Cycles, event: X) -> EventId {
        self.queue.schedule(at, Event::Substrate(event))
    }

    /// Emits one trace event (a no-op when tracing is off).
    #[inline]
    pub fn emit(&self, tid: usize, at: Cycles, kind: TraceEventKind) {
        self.sink.emit(TraceEvent::new(at, tid, kind));
    }

    /// The barrier site PC of trace step `step`.
    pub fn pc(&self, step: usize) -> u64 {
        self.trace.steps[step].pc
    }

    /// Charges everything from the last departure to `until` as Compute
    /// (§5.2: lock and memory stalls fall into Compute).
    pub fn charge_compute(&mut self, tid: usize, until: Cycles) {
        let depart = self.cpu[tid].depart_time;
        self.ledger.cpu_mut(tid).record(
            EnergyCategory::Compute,
            until.saturating_sub(depart),
            self.p_compute,
        );
    }

    /// Counts one check-in at `episode`; `true` when it completes the
    /// count.
    pub fn check_in(&mut self, episode: usize) -> bool {
        self.arrivals[episode] += 1;
        self.arrivals[episode] == self.cpu.len() as u32
    }

    /// `tid` checked in early at `now`: the algorithm's spin-or-sleep
    /// decision.
    pub fn arrive_early(&mut self, tid: usize, now: Cycles) -> ArrivalDecision {
        self.counts.early_arrivals += 1;
        let step = self.cpu[tid].step;
        let pc = self.pc(step);
        let arrival = TraceEventKind::Arrival {
            episode: step as u64,
            pc,
            last: false,
        };
        self.emit(tid, now, arrival);
        let decision = self
            .algo
            .on_early_arrival(ThreadId::new(tid), BarrierPc::new(pc), now);
        self.cpu[tid].predicted_bit = decision.predicted_bit;
        decision
    }

    /// `tid` waits awake from `now`.
    pub fn spin(&mut self, tid: usize, now: Cycles) {
        self.cpu[tid].state = State::Spinning { since: now };
        self.counts.spins += 1;
        let step = self.cpu[tid].step;
        let spin = TraceEventKind::SpinStart {
            episode: step as u64,
            pc: self.pc(step),
        };
        self.emit(tid, now, spin);
    }

    /// `tid`, which arrived at `now`, enters sleep `state` at `t` (later
    /// than `now` by any flush) under `wakeup`: the entry transition is
    /// charged and its end scheduled, and the countdown timer is armed.
    pub fn sleep(
        &mut self,
        tid: usize,
        state: SleepStateId,
        needs_flush: bool,
        wakeup: WakeupPlan,
        t: Cycles,
        now: Cycles,
    ) {
        let step = self.cpu[tid].step;
        let pc = self.pc(step);
        // Fault (b): skew the countdown timer before it is armed.
        let skew = match (&mut self.injector, wakeup.internal_at) {
            (Some(inj), Some(at)) => inj.timer_skew(at.saturating_sub(now)),
            _ => None,
        };
        let wakeup = match skew {
            Some((skew, fault)) => {
                self.faults.record(fault);
                let episode = step as u64;
                self.emit(
                    tid,
                    now,
                    TraceEventKind::FaultInjected { episode, pc, fault },
                );
                wakeup.with_skew(now, skew)
            }
            None => wakeup,
        };
        self.cpu[tid].wake_armed = wakeup.external;
        let st = self.algo.policy().state(state);
        let entry = st.transition_latency();
        let p_sleep = st.power_watts(self.tdp_max);
        self.ledger
            .cpu_mut(tid)
            .record_transition(entry, self.p_compute, p_sleep);
        let start = TraceEventKind::SleepStart {
            episode: step as u64,
            pc,
            state: state.index() as u32,
            needs_flush,
        };
        self.emit(tid, t, start);
        self.cpu[tid].state = State::EnteringSleep {
            state,
            wake_pending: false,
        };
        self.queue
            .schedule(t + entry, Event::TransitionDone { tid });
        if let Some(at) = wakeup.internal_at {
            let timer = Event::TimerFired { tid, episode: step };
            self.cpu[tid].timer = Some(self.queue.schedule(at.max(now), timer));
        }
        self.counts.sleeps_by_state[state.index()] += 1;
    }

    /// Ends `tid`'s sleep at `at`, or marks its entry for an immediate
    /// exit; `false` if it was neither asleep nor entering sleep.
    fn wake(&mut self, tid: usize, at: Cycles) -> bool {
        match self.cpu[tid].state {
            State::Sleeping { state, since } => self.begin_exit(tid, state, since, at),
            State::EnteringSleep { state, .. } => {
                self.cpu[tid].state = State::EnteringSleep {
                    state,
                    wake_pending: true,
                };
            }
            _ => return false,
        }
        true
    }

    /// Arms the guard of `tid`, which began waiting at `now` for a stall
    /// of `stall`: if the release comes and the wake-up signal does not,
    /// the guard rescues it. Only fault runs arm guards: a fault-free
    /// run's event schedule stays byte-identical with the guard present.
    pub fn arm_guard(&mut self, tid: usize, now: Cycles, stall: Option<Cycles>) {
        if self.injector.is_none() {
            return;
        }
        let deadline = tb_faults::guard_deadline(now, stall);
        let cpu = &mut self.cpu[tid];
        cpu.guard_interval = deadline.saturating_sub(now);
        let guard = Event::GuardTimer {
            tid,
            episode: cpu.step,
        };
        self.queue.schedule(deadline, guard);
    }

    /// `tid`'s guard for `episode` fired at `now`. If the barrier released
    /// but `tid` still waits — its wake-up signal was lost, or is grossly
    /// late — the guard rescues it: a sleeper is woken, and `true` asks
    /// the substrate to show a spinner the release. Otherwise the barrier
    /// is simply long, and the guard fires again one interval later.
    fn on_guard_timer(&mut self, tid: usize, episode: usize, now: Cycles) -> bool {
        if self.cpu[tid].step != episode {
            return false; // stale guard from a departed episode
        }
        let pc = self.pc(episode);
        // Fault (e): the firing guard may wedge — it neither rescues nor
        // re-arms, killing the last recovery path for this thread. The
        // livelock watchdog, not the barrier, must catch what follows.
        if self
            .injector
            .as_mut()
            .is_some_and(FaultInjector::wedge_guard)
        {
            let fault = FaultKind::WedgedGuard;
            self.faults.record(fault);
            let wedged = TraceEventKind::FaultInjected {
                episode: episode as u64,
                pc,
                fault,
            };
            self.emit(tid, now, wedged);
            return false;
        }
        let state = self.cpu[tid].state;
        let spinning = matches!(state, State::Spinning { .. });
        let waiting =
            spinning || matches!(state, State::Sleeping { .. } | State::EnteringSleep { .. });
        if !(waiting && self.released[episode]) {
            // The barrier is simply long, or the thread is already waking
            // (the transition's completion departs or re-arms): keep the
            // guard alive, one interval further out.
            if waiting || state == State::ExitingSleep {
                let at = now + self.cpu[tid].guard_interval;
                self.queue.schedule(at, Event::GuardTimer { tid, episode });
            }
            return false;
        }
        self.faults.guard_recoveries += 1;
        let recovery = TraceEventKind::GuardRecovery {
            episode: episode as u64,
            pc,
            slept: !spinning,
        };
        self.emit(tid, now, recovery);
        if spinning {
            return true;
        }
        self.wake(tid, now);
        false
    }

    /// `tid`'s countdown timer for `episode` expired at `now`.
    fn on_timer(&mut self, tid: usize, episode: usize, now: Cycles) {
        if self.cpu[tid].step != episode {
            return; // stale timer from a previous episode
        }
        self.cpu[tid].timer = None;
        if self.wake(tid, now) {
            self.counts.internal_wakeups += 1;
            let wake = TraceEventKind::InternalWake {
                episode: episode as u64,
                pc: self.pc(episode),
            };
            self.emit(tid, now, wake);
        }
    }

    /// The external wake-up signal reached `tid` at `at`; it ends a sleep
    /// only if it was armed.
    pub fn external_wake(&mut self, tid: usize, at: Cycles) {
        if self.cpu[tid].wake_armed && self.wake(tid, at) {
            self.counts.external_wakeups += 1;
            let step = self.cpu[tid].step;
            let wake = TraceEventKind::ExternalWake {
                episode: step as u64,
                pc: self.pc(step),
            };
            self.emit(tid, at, wake);
        }
    }

    /// Starts `tid`'s exit from sleep `state` at `at`, charging the
    /// residency since `since`.
    fn begin_exit(&mut self, tid: usize, state: SleepStateId, since: Cycles, at: Cycles) {
        if let Some(timer) = self.cpu[tid].timer.take() {
            self.queue.cancel(timer);
        }
        // Fault (c): this exit transition may oversleep — stall past the
        // state's rated latency.
        let oversleep = self
            .injector
            .as_mut()
            .and_then(FaultInjector::oversleep_extra);
        if oversleep.is_some() {
            self.faults.record(FaultKind::Oversleep);
            let step = self.cpu[tid].step;
            let fault = TraceEventKind::FaultInjected {
                episode: step as u64,
                pc: self.pc(step),
                fault: FaultKind::Oversleep,
            };
            self.emit(tid, at, fault);
        }
        let st = self.algo.policy().state(state);
        let p_sleep = st.power_watts(self.tdp_max);
        let exit_latency = match oversleep {
            Some(extra) => st.stalled_exit(extra),
            None => st.transition_latency(),
        };
        let ledger = self.ledger.cpu_mut(tid);
        ledger.record(EnergyCategory::Sleep, at.saturating_sub(since), p_sleep);
        ledger.record_transition(exit_latency, p_sleep, self.p_compute);
        self.cpu[tid].state = State::ExitingSleep;
        self.queue
            .schedule(at + exit_latency, Event::TransitionDone { tid });
    }

    /// `tid`'s entry or exit transition finished at `now`. Back up from
    /// sleep, the CPU checks for the release; if it cannot see it yet, it
    /// falls into the residual spin, guarded if the release is still ahead.
    fn on_transition_done(&mut self, tid: usize, now: Cycles) -> Settled {
        match self.cpu[tid].state {
            State::EnteringSleep {
                state,
                wake_pending: true,
            } => {
                // Woken (externally or by an immediate timer) during
                // entry: zero residency, exit right away.
                self.begin_exit(tid, state, now, now);
                Settled::Waiting
            }
            State::EnteringSleep { state, .. } => {
                self.cpu[tid].state = State::Sleeping { state, since: now };
                Settled::Waiting
            }
            State::ExitingSleep => {
                let step = self.cpu[tid].step;
                let visible = self.released[step]
                    .then(|| self.episode_release[step] + self.release_lag[tid])
                    .filter(|&visible| now >= visible);
                if let Some(visible) = visible {
                    if now > visible {
                        self.counts.late_wakeups += 1;
                    }
                    return Settled::Released;
                }
                self.counts.early_wakeups += 1;
                let residual = TraceEventKind::ResidualSpin {
                    episode: step as u64,
                    pc: self.pc(step),
                };
                self.emit(tid, now, residual);
                self.cpu[tid].state = State::Spinning { since: now };
                if self.released[step] {
                    return Settled::InFlight;
                }
                // Under a fault plan the release's signal may be lost: the
                // residual spin needs its own guard.
                self.arm_guard(tid, now, None);
                Settled::Waiting
            }
            _ => unreachable!("TransitionDone in a non-transition state"),
        }
    }

    /// `tid`'s check-in at `now` completed the count: the algorithm
    /// measures and publishes the BIT.
    pub fn release(&mut self, tid: usize, now: Cycles) -> ReleaseInfo {
        let step = self.cpu[tid].step;
        let pc = self.pc(step);
        let arrival = TraceEventKind::Arrival {
            episode: step as u64,
            pc,
            last: true,
        };
        self.emit(tid, now, arrival);
        let release = self
            .algo
            .on_last_arrival(ThreadId::new(tid), BarrierPc::new(pc), now);
        if release.update == UpdateOutcome::SkippedInordinate {
            self.counts.updates_skipped += 1;
        }
        match release.quarantine {
            Some(true) => self.faults.quarantine_entries += 1,
            Some(false) => self.faults.quarantine_exits += 1,
            None => {}
        }
        self.episode_bits[step] = release.measured_bit;
        self.released[step] = true;
        self.episode_release[step] = now;
        release
    }

    /// `tid` is awake and the barrier released: it woke at `wake_ts` and
    /// leaves at `depart_time`. Runs the §3.2.1/§3.3.3 bookkeeping and
    /// starts the next phase. Every departure is progress for the livelock
    /// watchdog.
    pub fn depart(&mut self, tid: usize, wake_ts: Cycles, depart_time: Cycles) {
        self.events_since_progress = 0;
        let step = self.cpu[tid].step;
        let pc = self.pc(step);
        let finish = self
            .algo
            .finish_barrier(ThreadId::new(tid), BarrierPc::new(pc), wake_ts);
        if finish.disabled {
            self.counts.cutoff_disables += 1;
        }
        let depart = TraceEventKind::Depart {
            episode: step as u64,
            pc,
            wake_latency: wake_ts.saturating_sub(self.episode_release[step]),
        };
        self.emit(tid, depart_time, depart);
        let cpu = &mut self.cpu[tid];
        if let Some(predicted) = cpu.predicted_bit.take() {
            let actual = self.episode_bits[step].as_u64() as f64;
            if actual > 0.0 {
                let err = (predicted.as_u64() as f64 - actual).abs() / actual;
                self.prediction_error.push(err);
            }
        }
        cpu.wake_armed = false;
        cpu.depart_time = depart_time;
        cpu.step += 1;
        if cpu.step < self.trace.steps.len() {
            cpu.state = State::Computing;
            let dur = self.trace.steps[cpu.step].compute[tid];
            self.queue
                .schedule(depart_time + dur, Event::ComputeDone { tid });
        } else {
            cpu.state = State::Done;
        }
    }

    /// The run's report, labelled `config`, with the fault tallies.
    pub fn into_report(
        mut self,
        config: String,
        instances: Vec<InstanceRecord>,
        observed_thread: usize,
    ) -> (RunReport, FaultSummary) {
        let wall_time = self.cpu.iter().map(|c| c.depart_time).max();
        self.counts.episodes = self.released.iter().filter(|&&r| r).count() as u64;
        let report = RunReport {
            app: self.trace.app_name.clone(),
            config,
            threads: self.trace.threads,
            wall_time: wall_time.unwrap_or(Cycles::ZERO),
            ledger: self.ledger,
            counts: self.counts,
            prediction_error: self.prediction_error,
            instances,
            observed_thread,
            trace: None,
        };
        (report, self.faults)
    }
}
