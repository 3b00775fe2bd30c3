//! The per-CPU barrier-wait state machine that both simulators drive.
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
//! A simulator keeps only its transport: how a check-in reaches the
//! releaser and how the release reaches the waiters. For the directory
//! machine ([`crate::sim`]) that is the coherent barrier flag; for the
//! cluster ([`crate::cluster`]) it is the arrival and release messages.
//! Both schedule on the one [`EventQueue`] of [`Event`]s held here: the
//! three events the lifecycle owns, and the substrate's own wrapped in
//! [`Event::Substrate`].

use crate::report::{BarrierEventCounts, InstanceRecord, RunReport};
use tb_core::{
    ArrivalDecision, BarrierAlgorithm, BarrierPc, ReleaseInfo, ThreadId, UpdateOutcome, WakeupPlan,
};
use tb_energy::{EnergyCategory, MachineLedger, PowerModel, SleepStateId};
use tb_faults::{FaultInjector, FaultSummary};
use tb_sim::{Cycles, EventId, EventQueue, OnlineStats};
use tb_trace::{FaultKind, SinkHandle, TraceEvent, TraceEventKind};
use tb_workloads::AppTrace;

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
}

/// What a finished transition leaves to the substrate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Settled {
    /// An entry ended: the CPU sleeps, or, with a wake-up pending, has
    /// begun its exit.
    Entered,
    /// An exit ended with the release visible: the CPU departs.
    Released,
    /// An exit ended before the release was visible: the CPU spins out the
    /// residue (§3.3.1).
    ResidualSpin,
}

/// Every CPU of one run, with the event queue, the algorithm and the
/// tallies their wait lifecycle feeds.
#[derive(Debug)]
pub(crate) struct Cpus<X> {
    pub queue: EventQueue<Event<X>>,
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
    pub released: Vec<bool>,
    /// Semantic release time of each episode: the last thread's check-in.
    pub episode_release: Vec<Cycles>,
    pub p_compute: f64,
    pub p_spin: f64,
    /// How long after the semantic release a CPU back from sleep can see
    /// it.
    release_lag: Cycles,
    arrivals: Vec<u32>,
    episode_bits: Vec<Cycles>,
    prediction_error: OnlineStats,
    sink: SinkHandle,
    tdp_max: f64,
}

impl<X> Cpus<X> {
    /// The CPUs of `trace`, all computing their first phase, under `algo`.
    /// A CPU back from sleep sees the release `release_lag` after the last
    /// check-in; `sink` receives the lifecycle's events and the algorithm's.
    pub fn new(
        trace: AppTrace,
        mut algo: BarrierAlgorithm,
        power: &PowerModel,
        release_lag: Cycles,
        sink: SinkHandle,
    ) -> Self {
        algo.set_trace(sink.clone());
        let threads = trace.threads;
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
            arrivals: vec![0; episodes],
            episode_bits: vec![Cycles::ZERO; episodes],
            prediction_error: OnlineStats::new(),
            sink,
            tdp_max: power.tdp_max(),
            trace,
            algo,
        }
    }

    /// Sends the lifecycle's events and the algorithm's to `sink`.
    pub fn set_trace(&mut self, sink: SinkHandle) {
        self.algo.set_trace(sink.clone());
        self.sink = sink;
    }

    /// Schedules every CPU's first compute phase.
    pub fn start(&mut self) {
        for tid in 0..self.cpu.len() {
            let dur = self.trace.steps[0].compute[tid];
            self.queue.schedule(dur, Event::ComputeDone { tid });
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

    /// `tid`'s countdown timer for `episode` expired at `now`.
    pub fn on_timer(&mut self, tid: usize, episode: usize, now: Cycles) {
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
    pub fn begin_exit(&mut self, tid: usize, state: SleepStateId, since: Cycles, at: Cycles) {
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
    /// falls into the residual spin.
    pub fn on_transition_done(&mut self, tid: usize, now: Cycles) -> Settled {
        match self.cpu[tid].state {
            State::EnteringSleep {
                state,
                wake_pending: true,
            } => {
                // Woken (externally or by an immediate timer) during
                // entry: zero residency, exit right away.
                self.begin_exit(tid, state, now, now);
                Settled::Entered
            }
            State::EnteringSleep { state, .. } => {
                self.cpu[tid].state = State::Sleeping { state, since: now };
                Settled::Entered
            }
            State::ExitingSleep => {
                let step = self.cpu[tid].step;
                let visible = self.released[step]
                    .then(|| self.episode_release[step] + self.release_lag)
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
                Settled::ResidualSpin
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
    /// starts the next phase.
    pub fn depart(&mut self, tid: usize, wake_ts: Cycles, depart_time: Cycles) {
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

    /// Whether every CPU finished its trace.
    pub fn all_done(&self) -> bool {
        self.cpu.iter().all(|c| c.state == State::Done)
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
