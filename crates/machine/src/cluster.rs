//! The thrifty barrier on a **message-passing** machine — the environment
//! the paper names as the natural extension ("the idea is conceptually
//! viable in other environments such as message-passing machines", §1;
//! "extending this concept to other parallel computing environments, such
//! as message-passing systems", §7).
//!
//! The mapping is direct, and in one respect *simpler* than shared memory:
//!
//! | Shared-memory mechanism | Message-passing analog |
//! |---|---|
//! | barrier flag + spin | arrival message to a coordinator + NIC polling |
//! | flag invalidation = external wake-up | release-message delivery = NIC interrupt wake-up |
//! | shared BIT variable (§3.2.1) | the release message **carries** the measured BIT |
//! | cache-controller timer | NIC-local countdown timer |
//! | dirty-data flush before deep sleep | — (no coherent caches to flush) |
//!
//! [`ClusterConfig`] models the distributed machine: nodes exchange
//! point-to-point messages over a full crossbar, where a message sent at
//! `t` is delivered at `t + latency` and a node broadcasting to many
//! destinations serializes its sends with a per-message dispatch gap (the
//! NIC's injection rate). Latencies default to a tightly-coupled cluster of
//! the paper's era (a few microseconds per message — an order of magnitude
//! above the CC-NUMA machine's coherence messages, which is exactly why the
//! trade-offs shift).
//!
//! [`MsgSimulator`] runs a coordinator barrier: every node finishing its
//! compute phase sends an *arrival* message to the coordinator (the
//! coordinator checks in with itself for free). When the count completes,
//! the coordinator measures the BIT against its own previous-release
//! timestamp and broadcasts a *release* message that carries the measured
//! BIT — the message-passing realization of §3.2.1's "shared BIT
//! variable".
//!
//! Non-coordinator nodes that arrive early run the *unmodified*
//! [`tb_core::BarrierAlgorithm`] that drives the shared-memory machine —
//! the strongest form of the paper's portability claim: predict the BIT,
//! derive their stall, pick a sleep state, and arm the hybrid wake-up, the
//! external signal being the release message's NIC interrupt, the internal
//! one a NIC timer. They also run the shared-memory machine's own per-CPU
//! wait state machine: this module supplies only the messages (arrival
//! delivery, the coordinator, the release broadcast and the poll grain).
//! A node back from sleep sees the release once its own copy of the
//! broadcast can have been delivered ([`ClusterConfig::release_offset`]
//! after the last arrival landed); before that it polls out the residue. The coordinator itself never sleeps (it must
//! service arrival messages); it polls, and its stall is charged as spin
//! energy. There are no coherent caches, so the deep states' flush
//! requirement is vacuous here: nothing is flushed.
//!
//! A run yields the same [`RunReport`] as the shared-memory machine, with
//! the same barrier event counts: polls are its `counts.spins`, and it
//! fills the early arrivals, the sleeps by state, the internal and
//! external wake-ups, the early and late wake-ups (at the residual check),
//! the §3.3.3 cut-off trips and the skipped predictor updates. `flushes`
//! and `flushed_lines` stay zero, and it records no per-instance records. With a sink set ([`MsgSimulator::set_trace`]) it
//! emits the same trace events as the shared-memory machine, bar flushes.
//! In the harness, a cell runs here when its variant's substrate is
//! [`Substrate::Cluster`](crate::harness::Substrate::Cluster).
//!
//! # Examples
//!
//! ```
//! use tb_core::AlgorithmConfig;
//! use tb_machine::cluster::{ClusterConfig, MsgSimulator};
//! use tb_workloads::AppSpec;
//!
//! let trace = AppSpec::by_name("FMM").unwrap().generate(16, 7);
//! let run = |name, algo| {
//!     MsgSimulator::new(ClusterConfig::default_cluster(16), trace.clone(), name, algo)
//!         .run(None)
//!         .unwrap()
//! };
//! let base = run("Baseline", AlgorithmConfig::baseline());
//! let thrifty = run("Thrifty", AlgorithmConfig::thrifty());
//! assert!(thrifty.total_energy() < base.total_energy());
//! ```

use crate::cpu::{Cpus, Event, Settled, State};
use crate::report::RunReport;
use crate::sim::{CellError, Deadline};
use serde::{Deserialize, Serialize};
use std::fmt;
use tb_core::{AlgorithmConfig, BarrierAlgorithm, SleepChoice};
use tb_energy::{EnergyCategory, PowerModel};
use tb_sim::Cycles;
use tb_trace::SinkHandle;
use tb_workloads::AppTrace;

/// Cluster parameters.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterConfig {
    /// Number of nodes (one process per node).
    pub nodes: u16,
    /// One-way small-message latency between any two distinct nodes.
    pub msg_latency: Cycles,
    /// Serialization gap between successive sends from one node (NIC
    /// injection rate).
    pub dispatch_gap: Cycles,
    /// Time for a polling loop iteration to notice a delivered message.
    pub poll_grain: Cycles,
    /// Which node coordinates the barrier (collects arrivals, broadcasts
    /// releases).
    pub coordinator: u16,
}

impl ClusterConfig {
    /// A tightly-coupled cluster: 5 µs messages, 200 ns injection gap,
    /// 100 ns polling grain, node 0 coordinating.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= nodes <= 1024`.
    pub fn default_cluster(nodes: u16) -> Self {
        assert!(
            (2..=1024).contains(&nodes),
            "cluster size must be in 2..=1024, got {nodes}"
        );
        ClusterConfig {
            nodes,
            msg_latency: Cycles::from_micros(5),
            dispatch_gap: Cycles::from_nanos(200),
            poll_grain: Cycles::from_nanos(100),
            coordinator: 0,
        }
    }

    /// Delivery time of a message sent from `from` to `to` at `sent`,
    /// as the `index`-th message of a batch (broadcasts serialize).
    ///
    /// A self-message (coordinator checking in with itself) is free.
    pub fn delivery(&self, from: u16, to: u16, sent: Cycles, index: u64) -> Cycles {
        if from == to {
            sent
        } else {
            sent + self.dispatch_gap * index + self.msg_latency
        }
    }

    /// How long after the coordinator broadcasts a release node `to`'s
    /// copy is delivered: the broadcast sends to every other node in node
    /// order, one dispatch gap apart.
    pub fn release_offset(&self, to: u16) -> Cycles {
        let index = if to > self.coordinator { to - 1 } else { to };
        self.delivery(self.coordinator, to, Cycles::ZERO, index as u64)
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics if the coordinator is out of range or latencies are zero.
    pub fn validate(&self) {
        assert!(
            self.coordinator < self.nodes,
            "coordinator {} outside the {}-node cluster",
            self.coordinator,
            self.nodes
        );
        assert!(
            self.msg_latency > Cycles::ZERO,
            "messages cannot be instant"
        );
        assert!(self.poll_grain > Cycles::ZERO, "polling cannot be instant");
    }
}

impl fmt::Display for ClusterConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} nodes, {} msg latency, {} dispatch gap, coordinator n{}",
            self.nodes, self.msg_latency, self.dispatch_gap, self.coordinator
        )
    }
}

/// The cluster's own events, beside the wait lifecycle's.
#[derive(Debug, Clone, Copy)]
enum MsgEvent {
    /// An arrival message for `episode` reached the coordinator.
    Arrive { episode: usize },
    /// The release message of `episode` reached node `tid`.
    ReleaseDelivered { tid: usize, episode: usize },
}

/// The message-passing cluster simulator.
#[derive(Debug)]
pub struct MsgSimulator {
    cluster: ClusterConfig,
    config_name: String,
    cpus: Cpus<MsgEvent>,
}

impl MsgSimulator {
    /// Creates a simulator for `trace` on `cluster` under `algo_cfg`, whose
    /// report is labelled `config_name`.
    ///
    /// # Panics
    ///
    /// Panics if the cluster is smaller than the trace's thread count or
    /// the configuration is invalid.
    pub fn new(
        cluster: ClusterConfig,
        trace: AppTrace,
        config_name: impl Into<String>,
        algo_cfg: AlgorithmConfig,
    ) -> Self {
        cluster.validate();
        assert!(
            cluster.nodes as usize >= trace.threads,
            "cluster has {} nodes but the trace needs {}",
            cluster.nodes,
            trace.threads
        );
        let algo = BarrierAlgorithm::new(algo_cfg, trace.threads);
        // A node back from sleep sees the release once its message can
        // have arrived.
        let lags = (0..trace.threads as u16)
            .map(|tid| cluster.release_offset(tid))
            .collect();
        MsgSimulator {
            cpus: Cpus::new(
                trace,
                algo,
                &PowerModel::paper(),
                lags,
                SinkHandle::disabled(),
            ),
            cluster,
            config_name: config_name.into(),
        }
    }

    /// Sends the run's events, the nodes' and the algorithm's, to `trace`
    /// (by default they go nowhere).
    pub fn set_trace(&mut self, trace: SinkHandle) {
        self.cpus.set_trace(trace);
    }

    fn coordinator(&self) -> usize {
        self.cluster.coordinator as usize
    }

    /// Runs to completion, or until `deadline` passes
    /// ([`CellError::Timeout`], noticed at the next poll of the wall clock,
    /// every 1024 events). Polls are the report's `counts.spins`, and it
    /// has no instance records.
    pub fn run(mut self, deadline: Option<Deadline>) -> Result<RunReport, CellError> {
        self.cpus.start();
        let mut events = 0u64;
        while let Some((now, ev)) = self.cpus.queue.pop() {
            if let Some(d) = &deadline {
                d.poll(&mut events)?;
            }
            match ev {
                Event::ComputeDone { tid } => self.on_compute_done(tid, now),
                Event::TimerFired { tid, episode } => self.cpus.on_timer(tid, episode, now),
                Event::TransitionDone { tid } => self.on_transition_done(tid, now),
                Event::Substrate(MsgEvent::Arrive { episode }) => self.on_arrive(episode, now),
                Event::Substrate(MsgEvent::ReleaseDelivered { tid, episode }) => {
                    self.on_release_delivered(tid, episode, now)
                }
            }
        }
        debug_assert!(self.cpus.all_done());
        Ok(self.cpus.into_report(self.config_name, Vec::new(), 0).0)
    }

    fn on_compute_done(&mut self, tid: usize, now: Cycles) {
        let step = self.cpus.cpu[tid].step;
        self.cpus.charge_compute(tid, now);
        // Send the arrival message (free for the coordinator itself).
        let delivered = self
            .cluster
            .delivery(tid as u16, self.cluster.coordinator, now, 0);
        self.cpus
            .schedule(delivered, MsgEvent::Arrive { episode: step });
        if tid == self.coordinator() {
            // The coordinator waits in a polling loop servicing arrivals;
            // its own barrier bookkeeping happens as arrivals land.
            self.cpus.cpu[tid].state = State::Spinning { since: now };
            return;
        }
        // Early-arrival decision with the *unmodified* algorithm.
        let decision = self.cpus.arrive_early(tid, now);
        match decision.choice {
            SleepChoice::Spin => self.cpus.spin(tid, now),
            // No caches to flush in a message-passing node.
            SleepChoice::Sleep { state, .. } => {
                self.cpus
                    .sleep(tid, state, false, decision.wakeup, now, now)
            }
        }
    }

    fn on_arrive(&mut self, episode: usize, now: Cycles) {
        if !self.cpus.check_in(episode) {
            return;
        }
        // All arrived: the coordinator measures the BIT against its own
        // previous-release timestamp and broadcasts the release.
        let coord = self.coordinator();
        debug_assert_eq!(self.cpus.cpu[coord].step, episode);
        self.cpus.release(coord, now);
        for tid in (0..self.cpus.cpu.len()).filter(|&tid| tid != coord) {
            let delivered = now + self.cluster.release_offset(tid as u16);
            self.cpus
                .schedule(delivered, MsgEvent::ReleaseDelivered { tid, episode });
        }
        // Coordinator's own stall was a poll from its check-in to now.
        if let State::Spinning { since } = self.cpus.cpu[coord].state {
            self.cpus.ledger.cpu_mut(coord).record(
                EnergyCategory::Spin,
                now.saturating_sub(since),
                self.cpus.p_spin,
            );
        }
        self.cpus.depart(coord, now, now);
    }

    fn on_release_delivered(&mut self, tid: usize, episode: usize, now: Cycles) {
        if self.cpus.cpu[tid].step != episode {
            return; // a second delivery to a node that already departed
        }
        if let State::Spinning { since } = self.cpus.cpu[tid].state {
            let seen = now + self.cluster.poll_grain;
            self.cpus.ledger.cpu_mut(tid).record(
                EnergyCategory::Spin,
                seen.saturating_sub(since),
                self.cpus.p_spin,
            );
            self.cpus.depart(tid, seen, seen);
        } else {
            // The NIC interrupt: wakes a sleeper whose wake-up it arms.
            self.cpus.external_wake(tid, now);
        }
    }

    fn on_transition_done(&mut self, tid: usize, now: Cycles) {
        let step = self.cpus.cpu[tid].step;
        match self.cpus.on_transition_done(tid, now) {
            // A release *message* is observable on arrival: the node
            // departs once it can have been delivered (it woke the node,
            // or the timer raced it) …
            Settled::Released => self.cpus.depart(tid, now, now),
            // … and polls for it otherwise, until its delivery when it is
            // already in flight.
            Settled::ResidualSpin if self.cpus.released[step] => {
                let at = self.cpus.episode_release[step] + self.cluster.release_offset(tid as u16);
                let delivered = MsgEvent::ReleaseDelivered { tid, episode: step };
                self.cpus.schedule(at, delivered);
            }
            Settled::ResidualSpin | Settled::Entered => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;
    use tb_trace::{MemorySink, TraceEventKind};
    use tb_workloads::{AppSpec, PhaseSpec, Variability};

    #[test]
    fn release_offset_follows_the_broadcast_order() {
        let mut c = ClusterConfig::default_cluster(8);
        c.coordinator = 3;
        let offsets: Vec<Cycles> = (0..8).map(|to| c.release_offset(to)).collect();
        let gap = |i: u64| c.msg_latency + c.dispatch_gap * i;
        assert_eq!(
            offsets,
            vec![
                gap(0),
                gap(1),
                gap(2),
                Cycles::ZERO,
                gap(3),
                gap(4),
                gap(5),
                gap(6)
            ]
        );
    }

    #[test]
    fn no_node_departs_before_its_release_message_is_delivered() {
        // 64 nodes put the last broadcast copy 62 dispatch gaps behind the
        // first, so a node late in the order that wakes between the two
        // must poll until its own copy lands.
        let trace = app(40, 3000, 0.30).generate(64, 5);
        let cluster = ClusterConfig::default_cluster(64);
        let sink = Arc::new(MemorySink::new(64, 1 << 14));
        let mut sim = MsgSimulator::new(
            cluster.clone(),
            trace,
            "MsgTest",
            AlgorithmConfig::thrifty(),
        );
        sim.set_trace(SinkHandle::new(sink.clone()));
        let report = sim.run(None).expect("no deadline");
        assert!(report.counts.total_sleeps() > 0);
        assert_eq!(sink.dropped(), 0);
        let mut departs = 0;
        for event in sink.drain_sorted() {
            if let TraceEventKind::Depart { wake_latency, .. } = event.kind {
                if event.thread != cluster.coordinator as u32 {
                    departs += 1;
                    let offset = cluster.release_offset(event.thread as u16);
                    assert!(
                        wake_latency >= offset,
                        "node {} departed {wake_latency} after the release, before its \
                         message arrived at {offset}",
                        event.thread
                    );
                }
            }
        }
        assert_eq!(departs, 63 * 40);
    }

    #[test]
    fn default_cluster_is_valid() {
        let c = ClusterConfig::default_cluster(64);
        c.validate();
        assert_eq!(c.nodes, 64);
    }

    #[test]
    fn delivery_adds_latency_and_gap() {
        let c = ClusterConfig::default_cluster(4);
        let t = Cycles::from_micros(100);
        assert_eq!(c.delivery(0, 1, t, 0), t + c.msg_latency);
        assert_eq!(
            c.delivery(0, 2, t, 3),
            t + c.dispatch_gap * 3 + c.msg_latency
        );
    }

    #[test]
    fn self_messages_are_free() {
        let c = ClusterConfig::default_cluster(4);
        let t = Cycles::from_micros(7);
        assert_eq!(c.delivery(2, 2, t, 5), t);
    }

    #[test]
    #[should_panic(expected = "cluster size")]
    fn one_node_rejected() {
        let _ = ClusterConfig::default_cluster(1);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn bad_coordinator_rejected() {
        let mut c = ClusterConfig::default_cluster(4);
        c.coordinator = 4;
        c.validate();
    }

    #[test]
    fn display_mentions_coordinator() {
        assert!(ClusterConfig::default_cluster(8)
            .to_string()
            .contains("coordinator n0"));
    }

    fn app(iterations: u32, base_us: u64, imbalance: f64) -> AppSpec {
        AppSpec {
            name: "MsgTest".into(),
            problem_size: "test".into(),
            target_imbalance: imbalance,
            setup_phases: vec![],
            loop_phases: vec![PhaseSpec::new(
                0x90,
                Cycles::from_micros(base_us),
                0,
                Variability::Stable { jitter: 0.0 },
            )],
            iterations,
            skew: 2.0,
        }
    }

    fn simulator(trace: &AppTrace, cfg: AlgorithmConfig) -> MsgSimulator {
        let cluster = ClusterConfig::default_cluster(trace.threads as u16);
        MsgSimulator::new(cluster, trace.clone(), "MsgTest", cfg)
    }

    fn run(trace: &AppTrace, cfg: AlgorithmConfig) -> RunReport {
        simulator(trace, cfg).run(None).expect("no deadline")
    }

    #[test]
    fn deadline_stops_the_run_and_never_alters_a_completed_one() {
        // 200 episodes × 16 nodes is several thousand events, so an
        // hour-away deadline is polled several times before the run ends.
        let trace = app(200, 2000, 0.25).generate(16, 9);
        let thrifty = || simulator(&trace, AlgorithmConfig::thrifty());
        let expired = thrifty().run(Some(Deadline::after(Duration::ZERO)));
        assert_eq!(expired.unwrap_err(), CellError::Timeout { limit_ms: 0 });

        let timed = thrifty()
            .run(Some(Deadline::after(Duration::from_secs(3600))))
            .expect("an hour is ample");
        let json = |r: &RunReport| serde::json::to_string(r);
        assert_eq!(json(&timed), json(&run(&trace, AlgorithmConfig::thrifty())));
    }

    #[test]
    fn baseline_completes_and_polls() {
        let trace = app(8, 2000, 0.25).generate(8, 1);
        let r = run(&trace, AlgorithmConfig::baseline());
        assert_eq!(r.counts.episodes, 8);
        assert_eq!(r.counts.total_sleeps(), 0);
        assert!(r.ledger.energy()[EnergyCategory::Spin] > 0.0);
        assert!(r.wall_time >= trace.ideal_duration());
    }

    #[test]
    fn thrifty_sleeps_and_saves_energy() {
        let trace = app(12, 4000, 0.30).generate(8, 2);
        let base = run(&trace, AlgorithmConfig::baseline());
        let thrifty = run(&trace, AlgorithmConfig::thrifty());
        assert!(thrifty.counts.total_sleeps() > 0);
        assert!(
            thrifty.total_energy() < base.total_energy(),
            "thrifty {} vs base {}",
            thrifty.total_energy(),
            base.total_energy()
        );
        assert!(thrifty.slowdown_vs(&base) < 0.05);
    }

    #[test]
    fn release_message_carries_bit_for_brts_induction() {
        // Prediction accuracy implies the BIT piggybacking works: with a
        // stable workload, errors should be small after warm-up.
        let trace = app(15, 4000, 0.20).generate(16, 3);
        let r = run(&trace, AlgorithmConfig::thrifty());
        assert!(r.prediction_error.count() > 0);
        // The interval is a max-statistic over 16 draws, so last-value
        // prediction carries that sampling noise; it must still be far
        // below the direct-BST regime (50-85%).
        assert!(
            r.prediction_error.mean() < 0.15,
            "mean error {}",
            r.prediction_error.mean()
        );
    }

    #[test]
    fn coordinator_never_sleeps() {
        let trace = app(10, 4000, 0.30).generate(8, 4);
        let r = run(&trace, AlgorithmConfig::thrifty());
        // The coordinator's ledger has no sleep or transition energy.
        let coord = r.ledger.cpu(0);
        assert_eq!(coord.energy()[EnergyCategory::Sleep], 0.0);
        assert_eq!(coord.energy()[EnergyCategory::Transition], 0.0);
    }

    #[test]
    fn wakeups_balance_sleeps() {
        let trace = app(12, 4000, 0.30).generate(8, 5);
        let r = run(&trace, AlgorithmConfig::thrifty());
        assert_eq!(
            r.counts.internal_wakeups + r.counts.external_wakeups,
            r.counts.total_sleeps(),
            "every sleep ends exactly once"
        );
    }

    #[test]
    fn deterministic() {
        let trace = app(6, 3000, 0.2).generate(8, 6);
        let a = run(&trace, AlgorithmConfig::thrifty());
        let b = run(&trace, AlgorithmConfig::thrifty());
        assert_eq!(a.wall_time, b.wall_time);
        assert_eq!(a.total_energy(), b.total_energy());
    }

    #[test]
    fn message_latency_dominates_short_barriers() {
        // With 5 µs messages, each episode pays at least the release
        // broadcast (5 µs), plus the arrival message whenever the last
        // arriver is not the coordinator itself.
        let trace = app(10, 500, 0.10).generate(4, 7);
        let base = run(&trace, AlgorithmConfig::baseline());
        let overhead = base.wall_time.saturating_sub(trace.ideal_duration());
        assert!(
            overhead >= Cycles::from_micros(10 * 5),
            "per-episode message overhead missing: {overhead}"
        );
    }

    #[test]
    #[should_panic(expected = "cluster has")]
    fn undersized_cluster_rejected() {
        let trace = app(2, 100, 0.2).generate(8, 8);
        let _ = MsgSimulator::new(
            ClusterConfig::default_cluster(4),
            trace,
            "Baseline",
            AlgorithmConfig::baseline(),
        );
    }
}
