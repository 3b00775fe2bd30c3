//! The directory machine: workload trace × barrier algorithm × coherent
//! memory × energy model.
//!
//! One barrier data structure serves the whole run (as in real barrier
//! libraries): a lock/count line and a flag line on distinct shared pages.
//! Barrier *sites* differ only by PC, which is what the predictor indexes.
//! This module is that barrier's transport: how a check-in reaches the
//! releaser and how the flag's release reaches the waiters. The wait
//! lifecycle, the event loop, the deadline, the livelock watchdog and the
//! guard timers are the private `cpu` module's, shared with the cluster.
//!
//! Modeling notes (see DESIGN.md §7):
//!
//! * Check-in (`lock(c); count++`) is a serialized critical section whose
//!   hand-off and count-line transfer costs come from the coherence model.
//! * The flag is fully coherent: spinners and sleepers hold it Shared, the
//!   releaser's write fans out invalidations, and each delivery is an
//!   external wake-up candidate — but only for CPUs whose cache controller
//!   was armed with the flag's address (§3.3.1).
//! * Compute phases advance the clock by the trace duration and rewrite
//!   the thread's dirty working set through the memory system, so deep
//!   sleeps pay real flush time and real upgrade misses afterwards.

use crate::cpu::{CellError, Cpus, Deadline, Settled, State, Transport, DEFAULT_PROGRESS_BUDGET};
use crate::report::{InstanceRecord, RunReport};
use tb_core::{AlgorithmConfig, BarrierAlgorithm, FaultPlan, SleepChoice};
use tb_energy::EnergyCategory;
use tb_faults::{FaultInjector, FaultSummary};
use tb_mem::{Addr, CoherentMemory, InvalidationFaults, LineAddr, MachineConfig, NodeId};
use tb_sim::Cycles;
use tb_trace::{FaultKind, SinkHandle, TraceEventKind};
use tb_workloads::AppTrace;

/// How long one spin-loop iteration takes to notice an invalidated flag
/// and re-issue the load.
const SPIN_GRAIN: Cycles = Cycles::from_nanos(4);
/// Lock hand-off cost between consecutive barrier check-ins (ticket
/// transfer over the coherence protocol).
const LOCK_HANDOFF: Cycles = Cycles::from_nanos(40);
/// Shared page indices of the barrier data structure.
const COUNT_PAGE: u64 = 2;
const FLAG_PAGE: u64 = 3;
/// First shared page of the per-thread dirty working-set regions.
const DIRTY_BASE_PAGE: u64 = 64;
/// Pages reserved per thread for its working set (8 pages = 512 lines).
const DIRTY_PAGES_PER_THREAD: u64 = 8;

/// Executor configuration beyond the machine and algorithm configs. Every
/// run draws the paper's (Wattch-derived) power, and its instance records
/// observe thread 5, or the last thread of a smaller trace (Figure 3 uses
/// "a randomly picked thread, the same one in all instances").
#[derive(Debug, Clone)]
pub struct SimulatorConfig {
    /// The hardware platform (Table 1, or a bus SMP via
    /// [`MachineConfig::bus_smp`]).
    pub machine: MachineConfig,
    /// Label stored in the report.
    pub config_name: String,
    /// Optional §3.4.1 time-sharing policy: instead of the thrifty
    /// mechanism, early threads spin briefly and then *yield the CPU to
    /// another process*, resuming only at scheduling-quantum boundaries.
    /// Overrides the algorithm's sleep decisions when set.
    pub time_sharing: Option<TimeSharing>,
    /// Optional fault plan. A plan with any class enabled injects lost or
    /// delayed flag invalidations (in the memory substrate), countdown-timer
    /// drift and spurious fires, and oversleep exit stalls — and arms the
    /// guard timer that makes every such run terminate. A disabled plan (or
    /// `None`) leaves every event path byte-identical to a fault-free run.
    pub faults: Option<FaultPlan>,
    /// Trace sink for per-episode event capture (disabled by default).
    /// The simulator emits the physical events (arrivals, sleep/spin
    /// entries, flushes, wake-ups, departures) with the global episode
    /// index; the algorithm it drives emits the semantic events through
    /// the same handle.
    pub trace: SinkHandle,
    /// Livelock watchdog: the maximum number of events processed since the
    /// last barrier departure before the run gives up with
    /// [`CellError::Livelock`]. `None` disables the watchdog. Counting
    /// events does not alter the schedule, so the default budget (2^18) is
    /// active even on fault-free runs.
    pub progress_budget: Option<u64>,
}

/// Parameters of the §3.4.1 time-sharing alternative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct TimeSharing {
    /// How long an early thread spins before yielding its CPU.
    pub spin_before_yield: Cycles,
    /// The OS scheduling quantum: a yielded thread resumes only at the
    /// next quantum boundary after the release.
    pub quantum: Cycles,
}

impl SimulatorConfig {
    /// The Table 1 machine sized for `nodes` processors, with no
    /// time-sharing, fault plan or trace sink.
    pub fn paper_with_nodes(config_name: impl Into<String>, nodes: u16) -> Self {
        SimulatorConfig {
            machine: MachineConfig::table1_with_nodes(nodes),
            config_name: config_name.into(),
            time_sharing: None,
            faults: None,
            trace: SinkHandle::disabled(),
            progress_budget: Some(DEFAULT_PROGRESS_BUDGET),
        }
    }
}

/// The directory machine's own events, beside the wait lifecycle's.
#[derive(Debug, Clone, Copy)]
pub(crate) enum SimEvent {
    /// A spinner (or a yielded thread back on its CPU) reads the flag.
    Observe {
        tid: usize,
        episode: usize,
    },
    YieldNow {
        tid: usize,
        episode: usize,
    },
}

/// The directory machine's transport: the coherent memory holding the
/// barrier's count and flag lines, and the instance records of its
/// releases.
#[derive(Debug)]
pub(crate) struct Simulator {
    mem: CoherentMemory,
    time_sharing: Option<TimeSharing>,
    /// The thread whose compute time the instance records carry.
    observed_thread: usize,
    lock_free_at: Cycles,
    count_addr: Addr,
    flag_addr: Addr,
    flag_line: LineAddr,
    /// Completion time of each episode's flag-flip write (all
    /// invalidation acknowledgments collected).
    episode_flip_done: Vec<Cycles>,
    instances: Vec<InstanceRecord>,
}

impl Simulator {
    fn node(&self, tid: usize) -> NodeId {
        NodeId::new(tid as u16)
    }

    fn dirty_addr(&self, tid: usize, line_idx: u32) -> Addr {
        let page = DIRTY_BASE_PAGE + tid as u64 * DIRTY_PAGES_PER_THREAD + (line_idx as u64) / 64;
        self.mem
            .layout()
            .shared_addr(page, ((line_idx as u64) % 64) * 64)
    }

    fn on_early_arrival(&mut self, cpus: &mut Cpus<SimEvent>, tid: usize, now: Cycles) {
        let node = self.node(tid);
        let step = cpus.cpu[tid].step;
        let decision = cpus.arrive_early(tid, now);
        if let Some(ts) = self.time_sharing {
            // §3.4.1: spin briefly, then hand the CPU to another process.
            self.mem.read(node, self.flag_addr, now);
            cpus.spin(tid, now);
            let yield_now = SimEvent::YieldNow { tid, episode: step };
            cpus.schedule(now + ts.spin_before_yield, yield_now);
            return;
        }
        match decision.choice {
            SleepChoice::Spin => {
                // Conventional path: pull a Shared copy of the flag and
                // spin on it locally.
                self.mem.read(node, self.flag_addr, now);
                cpus.spin(tid, now);
            }
            SleepChoice::Sleep { state, needs_flush } => {
                // Ideal (§5.1) has "no flushing overhead for any low-power
                // sleep state": it flushes nothing, so the cache state and
                // the post-flush upgrade misses are left untouched.
                let t = if needs_flush && cpus.algo.config().flush_overhead {
                    self.flush(cpus, tid, now)
                } else {
                    now
                };
                // The sleep() call programs the cache controller with the
                // flag address: read the flag in (registering as sharer so
                // the release invalidation reaches this node).
                self.mem.read(node, self.flag_addr, t);
                cpus.sleep(tid, state, needs_flush, decision.wakeup, t, now);
            }
        }
        cpus.arm_guard(tid, now, decision.predicted_stall);
    }

    /// Writes `tid`'s dirty shared lines back before a non-snoopable sleep
    /// that begins at `now`; returns when the write-back ends.
    fn flush(&mut self, cpus: &mut Cpus<SimEvent>, tid: usize, now: Cycles) -> Cycles {
        let f = self.mem.flush_dirty_shared(self.node(tid), now);
        cpus.counts.flushes += 1;
        cpus.counts.flushed_lines += f.lines as u64;
        cpus.ledger
            .cpu_mut(tid)
            .record(EnergyCategory::Compute, f.duration, cpus.p_compute);
        let step = cpus.cpu[tid].step;
        let flush = TraceEventKind::Flush {
            episode: step as u64,
            pc: cpus.pc(step),
            lines: f.lines as u64,
            duration: f.duration,
        };
        cpus.emit(tid, now, flush);
        now + f.duration
    }

    fn on_last_arrival(&mut self, cpus: &mut Cpus<SimEvent>, tid: usize, now: Cycles) {
        let node = self.node(tid);
        let step = cpus.cpu[tid].step;
        let pc = cpus.pc(step);
        let release = cpus.release(tid, now);
        // Flip the flag: the coherence protocol invalidates every sharer.
        // Under a fault plan the substrate may drop or delay some of the
        // resulting wake-up signals; attribute those injections now.
        let write = self.mem.write(node, self.flag_addr, now);
        if cpus.injector.is_some() {
            for rec in self.mem.drain_fault_log() {
                let fault = match rec.kind {
                    tb_mem::InvalidationFaultKind::Lost => FaultKind::LostWakeup,
                    tb_mem::InvalidationFaultKind::Delayed(_) => FaultKind::DelayedWakeup,
                };
                cpus.faults.record(fault);
                let episode = step as u64;
                let injected = TraceEventKind::FaultInjected { episode, pc, fault };
                cpus.emit(rec.node.index(), rec.at, injected);
            }
        }
        self.episode_flip_done[step] = write.completion;
        let observed_compute = cpus.trace.steps[step].compute[self.observed_thread];
        self.instances.push(InstanceRecord {
            pc,
            site_instance: release.instance,
            release_time: write.completion,
            bit: release.measured_bit,
            observed_compute,
        });
        // Deliver external wake-up signals.
        for inv in &write.invalidations {
            debug_assert_eq!(inv.line, self.flag_line);
            let target = inv.node.index();
            let observe = SimEvent::Observe {
                tid: target,
                episode: step,
            };
            match cpus.cpu[target].state {
                State::Spinning { .. } => {
                    cpus.schedule(inv.at + SPIN_GRAIN, observe);
                }
                State::Yielded { since } => {
                    // The barrier is released, but the thread lacks a CPU
                    // until the next scheduling-quantum boundary (§3.4.1:
                    // "the barrier may be released but some threads may
                    // not be able to resume execution").
                    let ts = self.time_sharing.expect("yielded implies time-sharing");
                    let waited = inv.at.saturating_sub(since).as_u64();
                    let quanta = waited / ts.quantum.as_u64() + 1;
                    cpus.schedule(since + ts.quantum * quanta, observe);
                }
                // A sleeper wakes if its controller watches the flag; a
                // CPU already waking (first wins) schedules its own
                // observation, and a stale sharer has nothing to wake.
                _ => cpus.external_wake(target, inv.at),
            }
        }
        // The releaser departs as soon as its write completes.
        cpus.depart(tid, write.completion, write.completion);
    }

    /// The §3.4.1 spin budget expired: hand the CPU to another process.
    fn on_yield_now(&mut self, cpus: &mut Cpus<SimEvent>, tid: usize, episode: usize, now: Cycles) {
        if cpus.cpu[tid].step != episode {
            return;
        }
        if let State::Spinning { since } = cpus.cpu[tid].state {
            cpus.ledger.cpu_mut(tid).record(
                EnergyCategory::Spin,
                now.saturating_sub(since),
                cpus.p_spin,
            );
            cpus.cpu[tid].state = State::Yielded { since: now };
        }
    }

    fn on_observe(&mut self, cpus: &mut Cpus<SimEvent>, tid: usize, episode: usize, now: Cycles) {
        // A spinner (initial or residual) sees the invalidated flag, misses,
        // and fetches the flipped value. The event may be stale: the thread
        // can have departed through the exit-transition path (or even be
        // busy with a later episode) by the time it pops.
        if cpus.cpu[tid].step != episode {
            return;
        }
        let node = self.node(tid);
        match cpus.cpu[tid].state {
            State::Spinning { since } => {
                let access = self.mem.read(node, self.flag_addr, now);
                cpus.ledger.cpu_mut(tid).record(
                    EnergyCategory::Spin,
                    access.completion.saturating_sub(since),
                    cpus.p_spin,
                );
                cpus.depart(tid, access.completion, access.completion);
            }
            State::Yielded { since } => {
                // The quantum boundary arrived: the CPU comes back to this
                // thread. The yielded window costs this application no
                // energy (another process used the core usefully); it is
                // accounted as zero-power Sleep time.
                cpus.ledger.cpu_mut(tid).record(
                    EnergyCategory::Sleep,
                    now.saturating_sub(since),
                    0.0,
                );
                let access = self.mem.read(node, self.flag_addr, now);
                cpus.depart(tid, access.completion, access.completion);
            }
            _ => {
                // Still exiting; the TransitionDone path will depart.
            }
        }
    }
}

impl Transport for Simulator {
    type Event = SimEvent;

    fn compute_done(&mut self, cpus: &mut Cpus<SimEvent>, tid: usize, now: Cycles) {
        let node = self.node(tid);
        let step = cpus.cpu[tid].step;
        let dirty = cpus.trace.steps[step].dirty_lines;
        // Rewrite the working set; the access latencies extend the compute
        // segment (this is where post-flush upgrade misses hurt). The dirty
        // lines are consecutive (`dirty_addr` strides one line at a time
        // through the thread's pages), so the whole rewrite goes through the
        // substrate's batched run entry point.
        let mut t = now;
        if dirty > 0 {
            t = self
                .mem
                .write_line_run(node, self.dirty_addr(tid, 0), dirty, t);
        }
        // Check in: serialized lock + count update over coherence.
        let grant = t.max(self.lock_free_at);
        let access = self.mem.write(node, self.count_addr, grant);
        let checkin = access.completion;
        self.lock_free_at = checkin + LOCK_HANDOFF;
        cpus.charge_compute(tid, checkin);
        if cpus.check_in(step) {
            self.on_last_arrival(cpus, tid, checkin);
        } else {
            self.on_early_arrival(cpus, tid, checkin);
        }
    }

    fn settled(&mut self, cpus: &mut Cpus<SimEvent>, tid: usize, settled: Settled, now: Cycles) {
        let step = cpus.cpu[tid].step;
        match settled {
            Settled::Waiting => {}
            Settled::Released => {
                // The residual check reads the flag; the wake-up timestamp
                // annotated for §3.3.3 is the moment the CPU came back up.
                let access = self.mem.read(self.node(tid), self.flag_addr, now);
                cpus.depart(tid, now, access.completion);
            }
            // The release was issued while this CPU was mid-transition, so
            // no future invalidation will target it: observe once the
            // flip's propagation completes.
            Settled::InFlight => {
                let at = now.max(self.episode_flip_done[step]) + SPIN_GRAIN;
                cpus.schedule(at, SimEvent::Observe { tid, episode: step });
            }
        }
    }

    fn on_event(&mut self, cpus: &mut Cpus<SimEvent>, event: SimEvent, now: Cycles) {
        match event {
            SimEvent::Observe { tid, episode } => self.on_observe(cpus, tid, episode, now),
            SimEvent::YieldNow { tid, episode } => self.on_yield_now(cpus, tid, episode, now),
        }
    }

    /// The spinner never observed the flipped flag: its invalidation was
    /// dropped. It re-reads the flag now.
    fn rescue_spinner(&mut self, cpus: &mut Cpus<SimEvent>, tid: usize, now: Cycles) {
        let episode = cpus.cpu[tid].step;
        cpus.schedule(now + SPIN_GRAIN, SimEvent::Observe { tid, episode });
    }
}

/// Builds a [`BarrierAlgorithm`] and runs `trace` under it in one call.
///
/// # Panics
///
/// Panics if the livelock watchdog trips; use [`try_simulate_faulted`]
/// for the typed error and the fault tallies.
pub fn simulate(
    cfg: SimulatorConfig,
    trace: &AppTrace,
    algo_cfg: AlgorithmConfig,
    oracle: Option<tb_core::RecordedBitOracle>,
) -> RunReport {
    match try_simulate_faulted(cfg, trace, algo_cfg, oracle, None) {
        Ok((report, _)) => report,
        Err(e) => panic!("simulation failed: {e}"),
    }
}

/// Like [`simulate`], but also returns the run's [`FaultSummary`] — the
/// injected-fault/recovery side-channel for fault-matrix sweeps — and
/// reports a tripped watchdog or an expired `deadline` as a [`CellError`]
/// instead of panicking. The summary rides next to the report rather
/// than inside it because the serialized `RunReport` shape is frozen by
/// golden fixtures. With no (or a disabled) fault plan the summary is all
/// zeros and the report is byte-identical to [`simulate`]'s.
///
/// # Panics
///
/// Panics if the machine has fewer nodes than the trace has threads, or if
/// an enabled fault plan comes with §3.4.1 time-sharing.
pub fn try_simulate_faulted(
    cfg: SimulatorConfig,
    trace: &AppTrace,
    algo_cfg: AlgorithmConfig,
    oracle: Option<tb_core::RecordedBitOracle>,
    deadline: Option<Deadline>,
) -> Result<(RunReport, FaultSummary), CellError> {
    let threads = trace.threads;
    assert!(
        cfg.machine.nodes as usize >= threads,
        "machine has {} nodes but the trace needs {threads}",
        cfg.machine.nodes
    );
    let mut algo = BarrierAlgorithm::new(algo_cfg, threads);
    if let Some(oracle) = oracle {
        algo.install_oracle(oracle);
    }
    let trace = trace.clone();
    let episodes = trace.steps.len();
    let mut mem = CoherentMemory::directory(cfg.machine);
    let count_addr = mem.layout().shared_addr(COUNT_PAGE, 0);
    let flag_addr = mem.layout().shared_addr(FLAG_PAGE, 0);
    let injector = cfg.faults.as_ref().and_then(FaultInjector::from_plan);
    if let Some(plan) = injector.as_ref().map(FaultInjector::plan) {
        assert!(
            cfg.time_sharing.is_none(),
            "fault injection and §3.4.1 time-sharing are mutually exclusive \
             (yielded threads resume only via flag invalidations, which a \
             fault plan may drop)"
        );
        let mut inv_faults = InvalidationFaults::new(
            plan.seed,
            plan.lose_wakeup,
            plan.delay_wakeup,
            plan.delay_wakeup_mean_ns,
        );
        inv_faults.watch(flag_addr.line());
        mem.set_faults(inv_faults);
    }
    // The flag is observable from the last check-in onward; the algorithm
    // shares the executor's sink, so semantic and physical events
    // interleave in one capture.
    let lags = vec![Cycles::ZERO; threads];
    let mut cpus = Cpus::new(trace, algo, lags, cfg.trace);
    cpus.injector = injector;
    let mut sim = Simulator {
        mem,
        time_sharing: cfg.time_sharing,
        observed_thread: 5.min(threads - 1),
        lock_free_at: Cycles::ZERO,
        count_addr,
        flag_addr,
        flag_line: flag_addr.line(),
        episode_flip_done: vec![Cycles::MAX; episodes],
        instances: Vec::with_capacity(episodes),
    };
    cpus.run(&mut sim, deadline, cfg.progress_budget)?;
    Ok(cpus.into_report(cfg.config_name, sim.instances, sim.observed_thread))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{LivelockDiagnostics, DEADLINE_POLL_EVENTS};
    use std::time::Duration;
    use tb_core::BarrierPc;
    use tb_workloads::{AppSpec, PhaseSpec, Variability};

    fn tiny_app(iterations: u32, base_us: u64, imbalance: f64) -> AppSpec {
        AppSpec {
            name: "Tiny".into(),
            problem_size: "test".into(),
            target_imbalance: imbalance,
            setup_phases: vec![],
            loop_phases: vec![PhaseSpec::new(
                0x10,
                Cycles::from_micros(base_us),
                16,
                Variability::Stable { jitter: 0.0 },
            )],
            iterations,
            skew: 2.0,
        }
    }

    fn cfg(name: &str) -> SimulatorConfig {
        SimulatorConfig::paper_with_nodes(name, 16)
    }

    fn run_faulted(
        cfg: SimulatorConfig,
        trace: &AppTrace,
        algo_cfg: AlgorithmConfig,
        oracle: Option<tb_core::RecordedBitOracle>,
    ) -> (RunReport, FaultSummary) {
        try_simulate_faulted(cfg, trace, algo_cfg, oracle, None).expect("run completes")
    }

    #[test]
    fn deadline_stops_the_run_and_never_alters_a_completed_one() {
        // 200 episodes × 16 threads is several thousand events, so an
        // hour-away deadline is polled several times before the run ends.
        let trace = tiny_app(200, 2000, 0.25).generate(16, 66);
        let expired = try_simulate_faulted(
            cfg("Thrifty"),
            &trace,
            AlgorithmConfig::thrifty(),
            None,
            Some(Deadline::after(Duration::ZERO)),
        );
        assert_eq!(expired.unwrap_err(), CellError::Timeout { limit_ms: 0 });

        let (free, _) = run_faulted(cfg("Thrifty"), &trace, AlgorithmConfig::thrifty(), None);
        let (timed, _) = try_simulate_faulted(
            cfg("Thrifty"),
            &trace,
            AlgorithmConfig::thrifty(),
            None,
            Some(Deadline::after(Duration::from_secs(3600))),
        )
        .expect("an hour is ample");
        assert!(timed.counts.episodes * 16 > 2 * DEADLINE_POLL_EVENTS);
        assert_eq!(timed.wall_time, free.wall_time);
        assert_eq!(timed.counts, free.counts);
        assert_eq!(
            serde::json::to_string(&timed.ledger),
            serde::json::to_string(&free.ledger)
        );
    }

    #[test]
    fn baseline_run_completes_and_accounts_time() {
        let trace = tiny_app(10, 1000, 0.20).generate(16, 1);
        let r = simulate(cfg("Baseline"), &trace, AlgorithmConfig::baseline(), None);
        assert_eq!(r.counts.episodes, 10);
        assert!(r.wall_time >= trace.ideal_duration());
        // Spin time exists and sleeps do not.
        assert!(r.time()[EnergyCategory::Spin] > 0.0);
        assert_eq!(r.time()[EnergyCategory::Sleep], 0.0);
        assert_eq!(r.time()[EnergyCategory::Transition], 0.0);
        assert_eq!(r.counts.total_sleeps(), 0);
    }

    #[test]
    fn baseline_imbalance_matches_trace_calibration() {
        let trace = tiny_app(20, 2000, 0.20).generate(16, 2);
        let r = simulate(cfg("Baseline"), &trace, AlgorithmConfig::baseline(), None);
        let measured = r.barrier_imbalance();
        assert!(
            (measured - trace.analytic_imbalance()).abs() < 0.02,
            "simulated imbalance {measured} vs analytic {}",
            trace.analytic_imbalance()
        );
    }

    #[test]
    fn thrifty_sleeps_after_warmup_and_saves_energy() {
        let trace = tiny_app(12, 3000, 0.30).generate(16, 3);
        let base = simulate(cfg("Baseline"), &trace, AlgorithmConfig::baseline(), None);
        let thrifty = simulate(cfg("Thrifty"), &trace, AlgorithmConfig::thrifty(), None);
        assert!(thrifty.counts.total_sleeps() > 0, "threads slept");
        assert!(
            thrifty.total_energy() < base.total_energy(),
            "thrifty {} should beat baseline {}",
            thrifty.total_energy(),
            base.total_energy()
        );
        // Performance stays close (hybrid wake-up).
        assert!(
            thrifty.slowdown_vs(&base) < 0.05,
            "slowdown {}",
            thrifty.slowdown_vs(&base)
        );
    }

    #[test]
    fn warmup_instance_never_sleeps() {
        let trace = tiny_app(1, 3000, 0.30).generate(16, 4);
        let r = simulate(cfg("Thrifty"), &trace, AlgorithmConfig::thrifty(), None);
        assert_eq!(r.counts.total_sleeps(), 0, "single instance = warm-up only");
        assert_eq!(r.counts.spins, 15);
    }

    #[test]
    fn hybrid_exercises_both_wakeup_paths_with_bounded_cost() {
        // Even a "stable" workload's interval is a max-statistic over the
        // threads' draws, so last-value prediction errs symmetrically by a
        // few tens of µs: underpredictions wake internally (then spin a
        // little), overpredictions are bounded by the external signal.
        let trace = tiny_app(15, 3000, 0.30).generate(16, 5);
        let base = simulate(cfg("Baseline"), &trace, AlgorithmConfig::baseline(), None);
        let r = simulate(cfg("Thrifty"), &trace, AlgorithmConfig::thrifty(), None);
        assert!(r.counts.internal_wakeups > 0, "timer path fires");
        assert!(r.counts.external_wakeups > 0, "invalidation path fires");
        assert_eq!(
            r.counts.internal_wakeups + r.counts.external_wakeups,
            r.counts.total_sleeps(),
            "every sleep ends in exactly one wake-up"
        );
        assert!(
            r.prediction_error.mean() < 0.10,
            "last-value is accurate here (mean relative error {})",
            r.prediction_error.mean()
        );
        assert!(
            r.slowdown_vs(&base) < 0.03,
            "external bound keeps the penalty small (got {})",
            r.slowdown_vs(&base)
        );
    }

    #[test]
    fn deterministic_runs() {
        let trace = tiny_app(8, 2000, 0.25).generate(16, 6);
        let a = simulate(cfg("Thrifty"), &trace, AlgorithmConfig::thrifty(), None);
        let b = simulate(cfg("Thrifty"), &trace, AlgorithmConfig::thrifty(), None);
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.total_energy(), b.total_energy());
        assert_eq!(a.counts.internal_wakeups, b.counts.internal_wakeups);
    }

    #[test]
    fn every_cpu_accounts_nearly_all_wall_time() {
        let trace = tiny_app(10, 2000, 0.25).generate(16, 7);
        let r = simulate(cfg("Thrifty"), &trace, AlgorithmConfig::thrifty(), None);
        let wall = r.wall_time.as_u64() as f64;
        for (tid, cpu) in r.ledger.iter().enumerate() {
            let accounted = cpu.total_time();
            assert!(
                accounted <= wall * 1.001,
                "cpu {tid} accounted {accounted} > wall {wall}"
            );
            assert!(
                accounted >= wall * 0.97,
                "cpu {tid} accounted only {accounted} of {wall}"
            );
        }
    }

    #[test]
    fn instances_record_every_episode_in_order() {
        let trace = tiny_app(9, 1500, 0.2).generate(16, 8);
        let r = simulate(cfg("Baseline"), &trace, AlgorithmConfig::baseline(), None);
        assert_eq!(r.instances.len(), 9);
        for (i, inst) in r.instances.iter().enumerate() {
            assert_eq!(inst.site_instance, i as u64);
            assert_eq!(inst.pc, 0x10);
            assert_eq!(inst.bit, inst.observed_compute + inst.observed_bst());
        }
        // Release times strictly increase.
        for w in r.instances.windows(2) {
            assert!(w[0].release_time < w[1].release_time);
        }
    }

    #[test]
    fn oracle_outperforms_last_value_on_unstable_workload() {
        // A swinging workload: last-value mispredicts, the oracle does not.
        let mut app = tiny_app(30, 2000, 0.25);
        app.loop_phases[0].variability = Variability::Swing {
            low_scale: 0.1,
            low_prob: 0.5,
            jitter: 0.0,
        };
        let trace = app.generate(16, 9);
        let base = simulate(cfg("Baseline"), &trace, AlgorithmConfig::baseline(), None);
        let mut oracle = tb_core::RecordedBitOracle::new();
        for inst in &base.instances {
            oracle.record(BarrierPc::new(inst.pc), inst.site_instance, inst.bit);
        }
        let lv = simulate(cfg("Thrifty"), &trace, AlgorithmConfig::thrifty(), None);
        let ideal = simulate(cfg("Ideal"), &trace, AlgorithmConfig::ideal(), Some(oracle));
        assert!(ideal.total_energy() <= lv.total_energy() * 1.001);
        assert!(
            ideal.slowdown_vs(&base) < 0.01,
            "oracle never mispredicts: slowdown {}",
            ideal.slowdown_vs(&base)
        );
    }

    #[test]
    fn deep_sleep_triggers_flushes() {
        let trace = tiny_app(12, 5000, 0.35).generate(16, 10);
        let r = simulate(cfg("Thrifty"), &trace, AlgorithmConfig::thrifty(), None);
        assert!(
            r.counts.flushes > 0,
            "long stalls pick non-snoopable states"
        );
        assert!(r.counts.flushed_lines > 0);
    }

    #[test]
    fn halt_only_never_flushes() {
        let trace = tiny_app(12, 5000, 0.35).generate(16, 11);
        let r = simulate(
            cfg("Thrifty-Halt"),
            &trace,
            AlgorithmConfig::thrifty_halt(),
            None,
        );
        assert!(r.counts.total_sleeps() > 0);
        assert_eq!(r.counts.flushes, 0, "Halt snoops; no flush needed");
    }

    #[test]
    fn bus_substrate_runs_the_same_protocol() {
        // The machine executes unchanged on the snooping-bus SMP: same
        // barrier protocol, broadcast invalidations as wake-ups.
        let trace = tiny_app(10, 3000, 0.30).generate(16, 50);
        let mut bus_cfg = cfg("Baseline");
        bus_cfg.machine = MachineConfig::bus_smp(16);
        let base_bus = simulate(bus_cfg.clone(), &trace, AlgorithmConfig::baseline(), None);
        assert_eq!(base_bus.counts.episodes, 10);
        let mut thrifty_bus = cfg("Thrifty");
        thrifty_bus.machine = MachineConfig::bus_smp(16);
        let t = simulate(thrifty_bus, &trace, AlgorithmConfig::thrifty(), None);
        assert_eq!(t.counts.episodes, 10);
        assert!(t.counts.total_sleeps() > 0);
        assert!(
            t.total_energy() < base_bus.total_energy(),
            "thrifty saves on the bus too"
        );
        assert!(t.slowdown_vs(&base_bus) < 0.05);
        // Both substrates execute the identical episode structure.
        let dir = simulate(cfg("Baseline"), &trace, AlgorithmConfig::baseline(), None);
        assert_eq!(base_bus.counts.episodes, dir.counts.episodes);
    }

    #[test]
    fn time_sharing_saves_energy_but_hurts_performance() {
        // §3.4.1: "unless scheduling is carefully planned, time-sharing may
        // hurt performance significantly … the barrier may be released but
        // some threads may not be able to resume execution because they
        // lack a CPU."
        let trace = tiny_app(10, 3000, 0.30).generate(16, 40);
        let base = simulate(cfg("Baseline"), &trace, AlgorithmConfig::baseline(), None);
        let mut ts_cfg = cfg("TimeSharing");
        ts_cfg.time_sharing = Some(TimeSharing {
            spin_before_yield: Cycles::from_micros(50),
            quantum: Cycles::from_millis(10),
        });
        let ts = simulate(ts_cfg, &trace, AlgorithmConfig::baseline(), None);
        assert_eq!(ts.counts.episodes, 10, "time-sharing is still correct");
        assert!(
            ts.total_energy() < base.total_energy(),
            "yielded cores cost this app nothing"
        );
        assert!(
            ts.slowdown_vs(&base) > 0.10,
            "coarse quanta must hurt: slowdown {}",
            ts.slowdown_vs(&base)
        );
        // Thrifty achieves savings *without* that penalty — the paper's
        // §3.4.1 contrast.
        let thrifty = simulate(cfg("Thrifty"), &trace, AlgorithmConfig::thrifty(), None);
        assert!(thrifty.slowdown_vs(&base) < 0.02);
    }

    #[test]
    fn time_sharing_with_fine_quanta_behaves() {
        let trace = tiny_app(8, 2000, 0.25).generate(16, 41);
        let mut ts_cfg = cfg("TimeSharing");
        ts_cfg.time_sharing = Some(TimeSharing {
            spin_before_yield: Cycles::from_micros(20),
            quantum: Cycles::from_micros(100),
        });
        let base = simulate(cfg("Baseline"), &trace, AlgorithmConfig::baseline(), None);
        let ts = simulate(ts_cfg, &trace, AlgorithmConfig::baseline(), None);
        assert_eq!(ts.counts.episodes, 8);
        assert!(
            ts.slowdown_vs(&base) < 0.05,
            "fine quanta bound the resume lag: {}",
            ts.slowdown_vs(&base)
        );
    }

    #[test]
    fn spurious_timer_wakes_are_absorbed_by_residual_spin() {
        // §3.3.1: a thread woken before the release is left "spinning on
        // the flag for the duration of the barrier" — suboptimal but
        // correct. The `spurious-timer` scenario fires countdown timers
        // early; the residual spin keeps every barrier correct.
        let trace = tiny_app(12, 3000, 0.30).generate(16, 30);
        let mut c = cfg("Thrifty");
        c.faults = FaultPlan::by_name("spurious-timer", 99);
        let (r, faults) = run_faulted(c, &trace, AlgorithmConfig::thrifty(), None);
        assert_eq!(r.counts.episodes, 12, "all barriers complete");
        assert!(faults.spurious_timers > 0, "spurious fires injected");
        assert!(
            r.counts.early_wakeups > 0,
            "early wakes spin out the residue"
        );
        let clean = simulate(cfg("Thrifty"), &trace, AlgorithmConfig::thrifty(), None);
        assert!(
            r.ledger.energy()[EnergyCategory::Spin] >= clean.ledger.energy()[EnergyCategory::Spin],
            "early wakes cost residual spin energy"
        );
        // Execution remains essentially as fast (spinning threads still
        // observe the release promptly).
        assert!(r.slowdown_vs(&clean) < 0.01);
    }

    #[test]
    fn all_wakeup_modes_run_to_completion() {
        // Regression guard: a thread whose entry transition straddles the
        // release must still wake under every mode (external-only once
        // deadlocked here when the wake-pending branch was shadowed).
        use tb_core::WakeupMode;
        let trace = tiny_app(14, 2500, 0.30).generate(16, 21);
        for mode in [
            WakeupMode::ExternalOnly,
            WakeupMode::InternalOnly,
            WakeupMode::Hybrid,
        ] {
            let algo_cfg = AlgorithmConfig::thrifty().with_wakeup(mode);
            let r = simulate(cfg("mode"), &trace, algo_cfg, None);
            assert_eq!(r.counts.episodes, 14, "{mode} must complete");
            assert!(r.counts.total_sleeps() > 0, "{mode} slept");
            match mode {
                WakeupMode::ExternalOnly => {
                    assert_eq!(r.counts.internal_wakeups, 0);
                    assert!(r.counts.external_wakeups > 0);
                }
                WakeupMode::InternalOnly => {
                    assert_eq!(r.counts.external_wakeups, 0);
                    assert!(r.counts.internal_wakeups > 0);
                }
                WakeupMode::Hybrid => {
                    assert!(r.counts.internal_wakeups + r.counts.external_wakeups > 0);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "machine has")]
    fn too_many_threads_rejected() {
        let trace = tiny_app(2, 100, 0.2).generate(32, 0);
        let _ = simulate(cfg("x"), &trace, AlgorithmConfig::baseline(), None);
    }

    // ---- fault injection + hardening --------------------------------------

    fn fault_cfg(name: &str, scenario: &str, seed: u64) -> SimulatorConfig {
        SimulatorConfig {
            faults: Some(tb_core::FaultPlan::by_name(scenario, seed).expect("known scenario")),
            ..cfg(name)
        }
    }

    #[test]
    fn disabled_fault_plan_is_byte_identical() {
        // Satellite: fault plumbing must be provably zero-cost when off.
        let trace = tiny_app(12, 3000, 0.30).generate(16, 60);
        let clean = simulate(cfg("Thrifty"), &trace, AlgorithmConfig::thrifty(), None);
        let mut c = cfg("Thrifty");
        c.faults = Some(tb_core::FaultPlan::none());
        let (gated, summary) = run_faulted(c, &trace, AlgorithmConfig::thrifty(), None);
        assert_eq!(
            serde::json::to_string(&clean),
            serde::json::to_string(&gated)
        );
        assert_eq!(summary, FaultSummary::default());
    }

    #[test]
    fn every_fault_scenario_terminates() {
        // The acceptance property: under any seeded plan, every episode
        // releases every thread (the watchdog's Ok is the oracle). The
        // `hang` scenario is the deliberate exception — it wedges every
        // guard so the watchdog *must* trip instead of completing.
        let trace = tiny_app(20, 3000, 0.30).generate(16, 61);
        for scenario in tb_core::FaultPlan::scenario_names() {
            for seed in [1u64, 42, 1234] {
                let c = fault_cfg("Thrifty", scenario, seed);
                let algo = AlgorithmConfig::thrifty().with_quarantine(true);
                if *scenario == "hang" {
                    continue; // covered by hang_scenario_trips_the_watchdog
                }
                let (r, _) = run_faulted(c, &trace, algo, None);
                assert_eq!(r.counts.episodes, 20, "{scenario} seed {seed} completes");
            }
        }
    }

    #[test]
    fn hang_scenario_trips_the_watchdog() {
        // External-only wake-ups, lost invalidations, and wedged guards:
        // the first lost signal leaves its thread with no recovery path.
        // The run must end in a typed livelock, never an infinite loop.
        let trace = tiny_app(20, 3000, 0.30).generate(16, 62);
        let algo = AlgorithmConfig::thrifty().with_wakeup(tb_core::WakeupMode::ExternalOnly);
        let c = fault_cfg("Thrifty", "hang", 7);
        let err = try_simulate_faulted(c, &trace, algo, None, None)
            .expect_err("wedged guards must livelock this run");
        let CellError::Livelock(d) = err else {
            panic!("expected a livelock, got {err}");
        };
        assert!(d.live_threads > 0, "someone is stuck: {d}");
        assert!(
            (d.episode as usize) < trace.steps.len(),
            "stuck episode {} in range",
            d.episode
        );
        // Round-trips for the journal.
        let back: LivelockDiagnostics = serde::json::from_str(&serde::json::to_string(&d)).unwrap();
        assert_eq!(back, d);
    }

    #[test]
    fn watchdog_budget_bounds_events_without_progress() {
        // A healthy run under an absurdly small budget must trip (sanity
        // check that the counter is actually consulted) …
        let trace = tiny_app(8, 2000, 0.25).generate(16, 65);
        let mut c = cfg("Thrifty");
        c.progress_budget = Some(4);
        let err = try_simulate_faulted(c, &trace, AlgorithmConfig::thrifty(), None, None)
            .expect_err("budget of 4 events cannot reach a departure");
        let CellError::Livelock(d) = err else {
            panic!("expected a livelock, got {err}");
        };
        assert!(d.budget == 4 && d.events_since_progress > 4);
        // … while the default budget never interferes with clean runs
        // (every other test in this module exercises that) and disabling
        // the watchdog restores the unchecked behavior.
        let mut c = cfg("Thrifty");
        c.progress_budget = None;
        let (r, _) = run_faulted(c, &trace, AlgorithmConfig::thrifty(), None);
        assert_eq!(r.counts.episodes, 8);
    }

    #[test]
    fn lost_wakeups_are_rescued_by_the_guard_timer() {
        let trace = tiny_app(20, 3000, 0.30).generate(16, 62);
        // External-only wake-ups + lost invalidations: without the guard,
        // sleepers would hang forever.
        let algo = AlgorithmConfig::thrifty().with_wakeup(tb_core::WakeupMode::ExternalOnly);
        let (r, summary) = run_faulted(fault_cfg("Thrifty", "lost-wakeup", 7), &trace, algo, None);
        assert_eq!(r.counts.episodes, 20);
        assert!(summary.lost_wakeups > 0, "faults actually injected");
        assert!(
            summary.guard_recoveries >= summary.lost_wakeups,
            "every lost signal to a waiter needs a rescue \
             ({} lost, {} recovered)",
            summary.lost_wakeups,
            summary.guard_recoveries
        );
        assert_eq!(
            summary.injected(),
            summary.lost_wakeups,
            "single-class plan"
        );
    }

    #[test]
    fn timer_faults_surface_in_the_summary_and_trace() {
        let trace = tiny_app(20, 3000, 0.30).generate(16, 63);
        let sink = std::sync::Arc::new(tb_trace::MemorySink::new(16, 65536));
        let mut c = fault_cfg("Thrifty", "storm", 11);
        c.trace = SinkHandle::new(sink.clone());
        let algo = AlgorithmConfig::thrifty().with_quarantine(true);
        let (r, summary) = run_faulted(c, &trace, algo, None);
        assert_eq!(r.counts.episodes, 20);
        assert!(summary.injected() > 0, "storm injects across classes");
        assert!(
            summary.timer_drifts + summary.spurious_timers > 0,
            "timer classes fire"
        );
        assert!(summary.oversleeps > 0, "oversleep fires");
        let counts = tb_trace::TraceKindCounts::from_events(&sink.drain_sorted());
        assert_eq!(counts.faults_injected, summary.injected());
        assert_eq!(counts.guard_recoveries, summary.guard_recoveries);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let trace = tiny_app(15, 3000, 0.30).generate(16, 64);
        let algo = AlgorithmConfig::thrifty();
        let (a, sa) = run_faulted(fault_cfg("Thrifty", "storm", 5), &trace, algo.clone(), None);
        let (b, sb) = run_faulted(fault_cfg("Thrifty", "storm", 5), &trace, algo, None);
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(sa, sb);
        let (c, sc) = run_faulted(
            fault_cfg("Thrifty", "storm", 6),
            &trace,
            AlgorithmConfig::thrifty(),
            None,
        );
        assert!(a.wall_time != c.wall_time || sa != sc, "seed matters");
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn faults_with_time_sharing_rejected() {
        let trace = tiny_app(2, 100, 0.2).generate(16, 0);
        let mut c = fault_cfg("x", "storm", 1);
        c.time_sharing = Some(TimeSharing {
            spin_before_yield: Cycles::from_micros(50),
            quantum: Cycles::from_millis(10),
        });
        let _ = simulate(c, &trace, AlgorithmConfig::baseline(), None);
    }
}
