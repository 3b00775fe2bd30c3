//! A reference memory model, and one property test that holds
//! [`CoherentMemory`] to it.
//!
//! The model works line by line. Its caches are plain set-associative
//! arrays with one LRU tick per way: no dirty-way index, no verified line
//! ranges, no stamps, no deferred flush. Its directory is a map. A line
//! run is one write per line, and a flush collects every dirty shared
//! line, downgrades it at both levels and in the directory, and times the
//! write-back stream from the list. It shares only data types and the
//! hypercube's latency table with the crate under test, and the fault
//! injector, which edits an invalidation list after the coherence
//! transition.
//!
//! The property drives both memories with one op sequence on both
//! interconnects, at 4 and at 64 nodes. The ops mix reads and writes of a
//! pool of lines (set collisions, private lines, a count line and a
//! watched flag line whose invalidations are lost or delayed), line runs
//! of up to 256 lines that start near page ends, short runs that rewrite
//! parts of earlier ones, flushes, remote reads and writes into the runs,
//! conflict reads that evict run lines from an L1, and conflict sweeps of
//! both levels. After every op it compares the op's completion, `Access`
//! or `FlushOutcome`, the `MemStats`, and `probe_levels` at every node
//! that ops can name and `dir_state` for every line the ops can touch.

use proptest::prelude::*;
use std::collections::HashMap;
use tb_mem::{
    Access, AccessClass, Addr, CacheConfig, CoherentMemory, DirState, FlushOutcome, Hypercube,
    Interconnect, Invalidation, InvalidationFaults, LineAddr, LineState, MachineConfig, MemLayout,
    MemStats, NodeId, SharerSet,
};
use tb_sim::Cycles;

/// The reference model.
mod model {
    use super::*;

    #[derive(Debug, Clone, Copy)]
    struct Way {
        line: LineAddr,
        state: LineState,
        last_used: u64,
    }

    /// A set-associative write-back cache with LRU replacement, one tick
    /// per access.
    #[derive(Debug)]
    pub struct Cache {
        sets: u64,
        assoc: usize,
        ways: Vec<Option<Way>>,
        tick: u64,
    }

    impl Cache {
        pub fn new(cfg: CacheConfig) -> Self {
            let assoc = cfg.associativity() as usize;
            Cache {
                sets: cfg.sets(),
                assoc,
                ways: vec![None; cfg.sets() as usize * assoc],
                tick: 0,
            }
        }

        /// The slots of `line`'s set, with the high address bits mixed in.
        fn set(&self, line: LineAddr) -> std::ops::Range<usize> {
            let raw = line.as_u64();
            let set = ((raw ^ (raw >> 32)) % self.sets) as usize;
            set * self.assoc..(set + 1) * self.assoc
        }

        fn find(&self, line: LineAddr) -> Option<usize> {
            self.set(line)
                .find(|&i| self.ways[i].is_some_and(|w| w.line == line))
        }

        pub fn probe(&self, line: LineAddr) -> LineState {
            self.find(line)
                .map_or(LineState::Invalid, |i| self.ways[i].unwrap().state)
        }

        /// A read's lookup: bumps the line's recency if present.
        pub fn access(&mut self, line: LineAddr) -> LineState {
            self.tick += 1;
            let Some(i) = self.find(line) else {
                return LineState::Invalid;
            };
            let way = self.ways[i].as_mut().unwrap();
            way.last_used = self.tick;
            way.state
        }

        /// A write's lookup: [`access`](Self::access), and a line held
        /// Exclusive or Modified becomes Modified. Returns the state
        /// before.
        pub fn write_access(&mut self, line: LineAddr) -> LineState {
            let before = self.access(line);
            if before.can_write_silently() {
                self.set_state(line, LineState::Modified);
            }
            before
        }

        /// Inserts or updates `line`; a full set evicts its least recently
        /// used line, which is returned.
        pub fn insert(
            &mut self,
            line: LineAddr,
            state: LineState,
        ) -> Option<(LineAddr, LineState)> {
            self.tick += 1;
            let fresh = Way {
                line,
                state,
                last_used: self.tick,
            };
            if let Some(i) = self.find(line) {
                self.ways[i] = Some(fresh);
                return None;
            }
            let set = self.set(line);
            if let Some(i) = set.clone().find(|&i| self.ways[i].is_none()) {
                self.ways[i] = Some(fresh);
                return None;
            }
            let victim = set
                .min_by_key(|&i| self.ways[i].unwrap().last_used)
                .unwrap();
            let old = self.ways[victim].replace(fresh).unwrap();
            Some((old.line, old.state))
        }

        pub fn set_state(&mut self, line: LineAddr, state: LineState) -> bool {
            match self.find(line) {
                Some(i) => {
                    self.ways[i].as_mut().unwrap().state = state;
                    true
                }
                None => false,
            }
        }

        pub fn invalidate(&mut self, line: LineAddr) -> Option<LineState> {
            let i = self.find(line)?;
            self.ways[i].take().map(|w| w.state)
        }

        pub fn dirty_lines(&self) -> impl Iterator<Item = LineAddr> + '_ {
            self.ways
                .iter()
                .flatten()
                .filter(|w| w.state.is_dirty())
                .map(|w| w.line)
        }
    }

    struct Node {
        l1: Cache,
        l2: Cache,
    }

    /// The reference memory: the same protocol and timing as
    /// [`CoherentMemory`], one line at a time.
    pub struct Memory {
        cfg: MachineConfig,
        layout: MemLayout,
        net: Hypercube,
        bus_free_at: Cycles,
        nodes: Vec<Node>,
        dir: HashMap<LineAddr, DirState>,
        stats: MemStats,
        faults: Option<InvalidationFaults>,
    }

    impl Memory {
        pub fn new(cfg: MachineConfig) -> Self {
            Memory {
                layout: MemLayout::new(cfg.nodes),
                net: Hypercube::table1(cfg.nodes.next_power_of_two()),
                bus_free_at: Cycles::ZERO,
                nodes: (0..cfg.nodes)
                    .map(|_| Node {
                        l1: Cache::new(cfg.l1),
                        l2: Cache::new(cfg.l2),
                    })
                    .collect(),
                dir: HashMap::new(),
                stats: MemStats::default(),
                faults: None,
                cfg,
            }
        }

        pub fn set_faults(&mut self, faults: InvalidationFaults) {
            self.faults = Some(faults);
        }

        pub fn stats(&self) -> &MemStats {
            &self.stats
        }

        pub fn dir_state(&self, line: LineAddr) -> DirState {
            self.dir.get(&line).copied().unwrap_or_default()
        }

        fn set_dir(&mut self, line: LineAddr, state: DirState) {
            self.dir.insert(line, state);
        }

        pub fn probe_levels(&self, node: NodeId, line: LineAddr) -> (LineState, LineState) {
            let n = &self.nodes[node.index()];
            (n.l1.probe(line), n.l2.probe(line))
        }

        fn access(completion: Cycles, class: AccessClass, line: LineAddr) -> Access {
            Access {
                completion,
                class,
                line,
                invalidations: Vec::new(),
            }
        }

        fn bus(&self) -> Option<(Cycles, Cycles)> {
            match self.cfg.interconnect {
                Interconnect::Bus { arbitration, snoop } => Some((arbitration, snoop)),
                Interconnect::Hypercube { .. } => None,
            }
        }

        /// Acquires the bus at or after `ready` plus arbitration for
        /// `occupancy`; returns the grant.
        fn grant(&mut self, ready: Cycles, occupancy: Cycles) -> Cycles {
            let (arbitration, _) = self.bus().expect("a bus machine");
            let grant = (ready + arbitration).max(self.bus_free_at);
            self.bus_free_at = grant + occupancy;
            grant
        }

        pub fn read(&mut self, node: NodeId, addr: Addr, now: Cycles) -> Access {
            self.stats.reads += 1;
            let line = addr.line();
            let n = &mut self.nodes[node.index()];
            if n.l1.access(line).is_valid() {
                self.stats.l1_hits += 1;
                return Self::access(now + self.cfg.l1_round_trip, AccessClass::L1Hit, line);
            }
            let l2 = n.l2.access(line);
            if l2.is_valid() {
                self.stats.l2_hits += 1;
                self.fill_l1(node, line, l2);
                return Self::access(now + self.cfg.l2_round_trip, AccessClass::L2Hit, line);
            }
            self.read_miss(node, line, now)
        }

        pub fn write(&mut self, node: NodeId, addr: Addr, now: Cycles) -> Access {
            let mut access = self.write_line(node, addr.line(), now);
            if let Some(f) = self.faults.as_mut() {
                f.apply(&mut access.invalidations);
            }
            access
        }

        /// One write, without the fault injector (a line run's writes).
        fn write_line(&mut self, node: NodeId, line: LineAddr, now: Cycles) -> Access {
            self.stats.writes += 1;
            let n = &mut self.nodes[node.index()];
            let l1 = n.l1.write_access(line);
            if l1.can_write_silently() {
                self.stats.l1_hits += 1;
                return Self::access(now + self.cfg.l1_round_trip, AccessClass::L1Hit, line);
            }
            if !l1.is_valid() {
                let l2 = n.l2.write_access(line);
                if l2.can_write_silently() {
                    self.stats.l2_hits += 1;
                    self.fill_l1(node, line, LineState::Modified);
                    return Self::access(now + self.cfg.l2_round_trip, AccessClass::L2Hit, line);
                }
                if !l2.is_valid() {
                    return self.write_past_l2(node, line, now, false);
                }
            }
            self.write_past_l2(node, line, now, true)
        }

        pub fn write_line_run(
            &mut self,
            node: NodeId,
            base: Addr,
            lines: u32,
            now: Cycles,
        ) -> Cycles {
            (0..lines as u64).fold(now, |t, i| {
                self.write_line(node, base.offset(i * 64).line(), t)
                    .completion
            })
        }

        pub fn flush_dirty_shared(&mut self, node: NodeId, now: Cycles) -> FlushOutcome {
            let n = &self.nodes[node.index()];
            let mut lines: Vec<LineAddr> = n.l1.dirty_lines().chain(n.l2.dirty_lines()).collect();
            lines.retain(|l| !l.base_addr().is_private());
            lines.sort_unstable();
            lines.dedup();
            for &line in &lines {
                let n = &mut self.nodes[node.index()];
                if n.l1.probe(line).is_dirty() {
                    n.l1.set_state(line, LineState::Shared);
                }
                assert!(n.l2.set_state(line, LineState::Shared), "inclusion");
                self.set_dir(line, DirState::Shared(SharerSet::singleton(node)));
            }
            let count = lines.len() as u64;
            self.stats.writebacks += count;
            self.stats.flushes += 1;
            self.stats.flushed_lines += count;
            let start = now + self.cfg.l2_round_trip;
            let end = match self.bus() {
                None => {
                    let farthest = lines
                        .iter()
                        .map(|&l| self.net.line_latency(node, self.layout.home_of(l)))
                        .max()
                        .unwrap_or(Cycles::ZERO);
                    start + self.cfg.mem_transfer * count + farthest
                }
                Some(_) => (0..count).fold(start, |end, _| {
                    self.grant(end, self.cfg.mem_transfer) + self.cfg.mem_transfer
                }),
            };
            FlushOutcome {
                lines: lines.len(),
                duration: end.saturating_sub(now),
            }
        }

        fn fill_l1(&mut self, node: NodeId, line: LineAddr, state: LineState) {
            let n = &mut self.nodes[node.index()];
            if let Some((victim, vs)) = n.l1.insert(line, state) {
                if vs.is_dirty() && !n.l2.set_state(victim, LineState::Modified) {
                    self.writeback_to_home(node, victim);
                }
            }
        }

        fn fill_both(&mut self, node: NodeId, line: LineAddr, state: LineState) {
            if let Some((victim, vs)) = self.nodes[node.index()].l2.insert(line, state) {
                let l1 = self.nodes[node.index()].l1.invalidate(victim);
                if vs.is_dirty() || l1.is_some_and(|s| s.is_dirty()) {
                    self.writeback_to_home(node, victim);
                } else {
                    self.drop_clean_holder(node, victim);
                }
            }
            self.fill_l1(node, line, state);
        }

        fn writeback_to_home(&mut self, node: NodeId, line: LineAddr) {
            self.stats.writebacks += 1;
            assert_eq!(self.dir_state(line), DirState::Exclusive(node));
            self.set_dir(line, DirState::Uncached);
        }

        fn drop_clean_holder(&mut self, node: NodeId, line: LineAddr) {
            match self.dir_state(line) {
                DirState::Exclusive(owner) if owner == node => {
                    self.set_dir(line, DirState::Uncached)
                }
                DirState::Shared(s) => {
                    let s = s.without(node);
                    let state = if s.is_empty() {
                        DirState::Uncached
                    } else {
                        DirState::Shared(s)
                    };
                    self.set_dir(line, state);
                }
                DirState::Uncached | DirState::Exclusive(_) => {}
            }
        }

        fn memory_class(home: NodeId, node: NodeId) -> AccessClass {
            if home == node {
                AccessClass::LocalMem
            } else {
                AccessClass::RemoteMem
            }
        }

        fn read_miss(&mut self, node: NodeId, line: LineAddr, now: Cycles) -> Access {
            self.stats.dir_transactions += 1;
            let state = self.dir_state(line);
            let owner = match state {
                DirState::Exclusive(owner) => Some(owner),
                _ => None,
            };
            let (completion, class) = match self.bus() {
                None => {
                    let home = self.layout.home_of(line);
                    let t_home =
                        now + self.cfg.l2_round_trip + self.net.control_latency(node, home);
                    match owner {
                        Some(owner) => {
                            let t_owner = t_home
                                + self.net.control_latency(home, owner)
                                + self.cfg.l2_round_trip;
                            (
                                t_owner + self.net.line_latency(owner, node),
                                AccessClass::CacheToCache,
                            )
                        }
                        None => (
                            t_home
                                + self.cfg.mem_access
                                + self.cfg.mem_transfer
                                + self.net.line_latency(home, node),
                            Self::memory_class(home, node),
                        ),
                    }
                }
                Some((_, snoop)) => {
                    let (occupancy, class) = match owner {
                        Some(_) => (snoop + self.cfg.mem_transfer, AccessClass::CacheToCache),
                        None => (
                            snoop + self.cfg.mem_access + self.cfg.mem_transfer,
                            AccessClass::LocalMem,
                        ),
                    };
                    let ready = now + self.cfg.l2_round_trip;
                    (self.grant(ready, occupancy) + occupancy, class)
                }
            };
            if let Some(owner) = owner {
                self.stats.cache_to_cache += 1;
                let o = &mut self.nodes[owner.index()];
                if o.l1.probe(line).is_dirty() || o.l2.probe(line).is_dirty() {
                    self.stats.writebacks += 1;
                }
                o.l1.set_state(line, LineState::Shared);
                o.l2.set_state(line, LineState::Shared);
            }
            let fill = if state == DirState::Uncached {
                self.set_dir(line, DirState::Exclusive(node));
                LineState::Exclusive
            } else {
                let mut holders = state.holders();
                holders.insert(node);
                self.set_dir(line, DirState::Shared(holders));
                LineState::Shared
            };
            self.fill_both(node, line, fill);
            Self::access(completion, class, line)
        }

        fn write_past_l2(
            &mut self,
            node: NodeId,
            line: LineAddr,
            now: Cycles,
            upgrade: bool,
        ) -> Access {
            self.stats.dir_transactions += 1;
            let state = self.dir_state(line);
            let owner = match state {
                DirState::Exclusive(owner) if owner != node && !upgrade => Some(owner),
                DirState::Exclusive(owner) => {
                    assert!(owner == node && upgrade, "{line}: {state}");
                    None
                }
                DirState::Shared(_) => None,
                DirState::Uncached => {
                    assert!(!upgrade, "{line}: {state}");
                    None
                }
            };
            let targets = state.holders().without(node);
            self.set_dir(line, DirState::Exclusive(node));
            let home = self.layout.home_of(line);
            let (completion, class, invalidations) = match (self.bus(), upgrade, owner) {
                (None, true, _) => {
                    let t_home =
                        now + self.cfg.l1_round_trip + self.net.control_latency(node, home);
                    let (invalidations, last_ack) = self.fan_out(node, line, targets, t_home);
                    let t_grant = now
                        + self.cfg.l1_round_trip
                        + self.net.control_latency(node, home)
                        + self.net.control_latency(home, node);
                    let n = &mut self.nodes[node.index()];
                    if !n.l2.set_state(line, LineState::Modified) {
                        n.l2.insert(line, LineState::Modified);
                    }
                    if !n.l1.set_state(line, LineState::Modified) {
                        self.fill_l1(node, line, LineState::Modified);
                    }
                    let access = Access {
                        completion: t_grant.max(last_ack),
                        class: AccessClass::Upgrade,
                        line,
                        invalidations,
                    };
                    return access;
                }
                (Some((_, snoop)), true, _) => {
                    let grant = self.grant(now + self.cfg.l2_round_trip, snoop);
                    let invalidations = self.invalidate_copies(line, targets, |_, _| grant + snoop);
                    (grant + snoop, AccessClass::Upgrade, invalidations)
                }
                (None, false, Some(owner)) => {
                    self.stats.cache_to_cache += 1;
                    let t_home =
                        now + self.cfg.l2_round_trip + self.net.control_latency(node, home);
                    let t_owner =
                        t_home + self.net.control_latency(home, owner) + self.cfg.l2_round_trip;
                    let invalidations = self.invalidate_copies(line, targets, |_, _| t_owner);
                    (
                        t_owner + self.net.line_latency(owner, node),
                        AccessClass::CacheToCache,
                        invalidations,
                    )
                }
                (None, false, None) => {
                    let t_home =
                        now + self.cfg.l2_round_trip + self.net.control_latency(node, home);
                    let (invalidations, last_ack) = self.fan_out(node, line, targets, t_home);
                    let t_data = t_home + self.cfg.mem_access + self.cfg.mem_transfer;
                    (
                        (t_data + self.net.line_latency(home, node)).max(last_ack),
                        Self::memory_class(home, node),
                        invalidations,
                    )
                }
                (Some((_, snoop)), false, owner) => {
                    let (occupancy, class) = match owner {
                        Some(_) => (snoop + self.cfg.mem_transfer, AccessClass::CacheToCache),
                        None => (
                            snoop + self.cfg.mem_access + self.cfg.mem_transfer,
                            AccessClass::LocalMem,
                        ),
                    };
                    let grant = self.grant(now + self.cfg.l2_round_trip, occupancy);
                    let invalidations = self.invalidate_copies(line, targets, |_, _| grant + snoop);
                    if owner.is_some() {
                        self.stats.cache_to_cache += 1;
                        self.stats.writebacks += 1;
                    }
                    (grant + occupancy, class, invalidations)
                }
            };
            self.fill_both(node, line, LineState::Modified);
            Access {
                completion,
                class,
                line,
                invalidations,
            }
        }

        /// The home invalidates `targets` one dispatch apart; each
        /// acknowledges to `node`. Returns the invalidations and the last
        /// acknowledgement (`t_home` if none).
        fn fan_out(
            &mut self,
            node: NodeId,
            line: LineAddr,
            targets: SharerSet,
            t_home: Cycles,
        ) -> (Vec<Invalidation>, Cycles) {
            let Interconnect::Hypercube { dir_dispatch } = self.cfg.interconnect else {
                unreachable!("a hypercube machine")
            };
            let home = self.layout.home_of(line);
            let net = self.net;
            let invalidations = self.invalidate_copies(line, targets, |i, sharer| {
                t_home + dir_dispatch * i as u64 + net.control_latency(home, sharer)
            });
            let last_ack = invalidations
                .iter()
                .map(|inv| inv.at + net.control_latency(inv.node, node))
                .fold(t_home, Cycles::max);
            (invalidations, last_ack)
        }

        fn invalidate_copies(
            &mut self,
            line: LineAddr,
            targets: SharerSet,
            at: impl Fn(usize, NodeId) -> Cycles,
        ) -> Vec<Invalidation> {
            let invalidations: Vec<Invalidation> = targets
                .iter()
                .enumerate()
                .map(|(i, sharer)| {
                    let n = &mut self.nodes[sharer.index()];
                    n.l1.invalidate(line);
                    n.l2.invalidate(line);
                    Invalidation {
                        node: sharer,
                        line,
                        at: at(i, sharer),
                    }
                })
                .collect();
            self.stats.invalidations_sent += invalidations.len() as u64;
            invalidations
        }
    }
}

/// Nodes that ops can name, at each machine size: every node at 4, and at
/// 64 a spread that puts homes and sharers far apart in the hypercube.
fn active_nodes(nodes: u16) -> Vec<NodeId> {
    let ids: &[u16] = if nodes == 4 {
        &[0, 1, 2, 3]
    } else {
        &[0, 1, 21, 42, 63]
    };
    ids.iter().copied().map(NodeId::new).collect()
}

/// Where the long runs start, as (shared page, line in page): near page
/// ends and overlapping, so a run crosses up to five pages (homes).
const RUN_STARTS: [(u64, u64); 4] = [(1, 63), (1, 50), (2, 60), (2, 33)];
/// Longest run an op issues.
const LONG_RUN: u32 = 256;
/// Lines between a line and its conflict lines: the same L1 and L2 set,
/// far above every run.
const CONFLICT: u64 = 1024 * 128;
/// The watched flag line's page and the count line's page.
const FLAG_PAGE: u64 = 8;
const COUNT_PAGE: u64 = 9;

/// One op. Node fields index [`active_nodes`]; line fields index the run
/// lines or the pool, modulo their lengths.
#[derive(Debug, Clone)]
enum Op {
    /// A line run of `lines` lines from one of [`RUN_STARTS`].
    Run {
        node: usize,
        start: usize,
        lines: u32,
    },
    /// A short run from any run line, rewriting part of earlier runs.
    Rewrite {
        node: usize,
        line: usize,
        lines: u32,
    },
    /// Ten short runs of 1 to 8 lines, five lines apart, lengths drawn
    /// from `lengths`: more one-step fragments than a cache keeps.
    Scatter {
        node: usize,
        line: usize,
        lengths: u32,
    },
    Flush {
        node: usize,
    },
    /// A read or a write of a run line, by any node.
    RunRead {
        node: usize,
        line: usize,
    },
    RunWrite {
        node: usize,
        line: usize,
    },
    /// A read or a write of a pool line.
    Read {
        node: usize,
        addr: usize,
    },
    Write {
        node: usize,
        addr: usize,
    },
    /// A read of a run line's conflict line: evicts a line of that set
    /// from the L1.
    Evict {
        node: usize,
        line: usize,
    },
    /// Eight reads of lines in a run line's set, each followed by a read
    /// of the run line: the L2 evicts the run line while the L1, where it
    /// stays recent, still holds it.
    Squeeze {
        node: usize,
        line: usize,
    },
    /// A conflict sweep from the `k`-th conflict block: one read per L1
    /// set, then, if `l2`, six writes per L2 set, which evict the least
    /// recent lines of both levels.
    Sweep {
        node: usize,
        k: u64,
        l2: bool,
    },
    /// Spinners read the flag and the releaser writes it: its
    /// invalidations may be lost or delayed.
    Release {
        node: usize,
    },
}

fn op() -> impl Strategy<Value = Op> {
    // Node 0 writes, flushes and evicts most often, so its runs rewrite
    // the lines its flushes left behind; every node reads and writes them.
    let owner = || prop_oneof![3 => Just(0usize), 1 => 0..5usize];
    let node = || 0..5usize;
    prop_oneof![
        6 => (owner(), 0..RUN_STARTS.len(), 1..=LONG_RUN)
            .prop_map(|(node, start, lines)| Op::Run { node, start, lines }),
        3 => (owner(), 0..1024usize, 1..=24u32)
            .prop_map(|(node, line, lines)| Op::Rewrite { node, line, lines }),
        2 => (owner(), 0..1024usize, any::<u32>())
            .prop_map(|(node, line, lengths)| Op::Scatter { node, line, lengths }),
        4 => owner().prop_map(|node| Op::Flush { node }),
        2 => (node(), 0..1024usize).prop_map(|(node, line)| Op::RunRead { node, line }),
        2 => (node(), 0..1024usize).prop_map(|(node, line)| Op::RunWrite { node, line }),
        2 => (node(), 0..64usize).prop_map(|(node, addr)| Op::Read { node, addr }),
        2 => (node(), 0..64usize).prop_map(|(node, addr)| Op::Write { node, addr }),
        2 => (owner(), 0..1024usize).prop_map(|(node, line)| Op::Evict { node, line }),
        1 => (owner(), 2..10u64, any::<bool>()).prop_map(|(node, k, l2)| Op::Sweep { node, k, l2 }),
        1 => (owner(), 0..1024usize).prop_map(|(node, line)| Op::Squeeze { node, line }),
        1 => node().prop_map(|node| Op::Release { node }),
    ]
}

/// The addresses ops name.
struct Lines {
    starts: Vec<Addr>,
    /// Every line a long run covers, sorted.
    run: Vec<Addr>,
    /// Shared lines that collide in one set, the count line, the flag
    /// line, and a private line per active node.
    pool: Vec<Addr>,
    flag: Addr,
    /// Every line whose states are compared.
    universe: Vec<LineAddr>,
}

fn conflict(a: Addr, k: u64) -> Addr {
    a.offset(k * CONFLICT * 64)
}

fn lines(layout: &MemLayout, active: &[NodeId]) -> Lines {
    let starts: Vec<Addr> = RUN_STARTS
        .iter()
        .map(|&(page, line)| layout.shared_addr(page, line * 64))
        .collect();
    let mut run: Vec<Addr> = starts
        .iter()
        .flat_map(|a| (0..LONG_RUN as u64).map(move |i| a.offset(i * 64)))
        .collect();
    run.sort_unstable();
    run.dedup();
    let flag = layout.shared_addr(FLAG_PAGE, 0);
    let mut pool: Vec<Addr> = (0..12u64)
        .map(|i| layout.shared_addr(16 + i * 2, 0))
        .collect();
    pool.push(layout.shared_addr(COUNT_PAGE, 0));
    pool.push(flag);
    pool.extend(active.iter().map(|&n| layout.private_addr(n, 0, 0)));
    let mut universe: Vec<LineAddr> = run
        .iter()
        .flat_map(|&a| [a.line(), conflict(a, 1).line()])
        .chain(pool.iter().map(|a| a.line()))
        .collect();
    universe.sort_unstable();
    universe.dedup();
    Lines {
        starts,
        run,
        pool,
        flag,
        universe,
    }
}

/// What an op returned, compared between the two memories.
#[derive(Debug, PartialEq)]
enum Outcome {
    Access(Access),
    Done(Cycles),
    Flush(FlushOutcome),
    Skipped,
}

/// The interface both memories offer the op driver.
trait Memory {
    fn read(&mut self, node: NodeId, addr: Addr, now: Cycles) -> Access;
    fn write(&mut self, node: NodeId, addr: Addr, now: Cycles) -> Access;
    fn write_line_run(&mut self, node: NodeId, base: Addr, lines: u32, now: Cycles) -> Cycles;
    fn flush_dirty_shared(&mut self, node: NodeId, now: Cycles) -> FlushOutcome;
}

macro_rules! memory {
    ($ty:ty) => {
        impl Memory for $ty {
            fn read(&mut self, node: NodeId, addr: Addr, now: Cycles) -> Access {
                <$ty>::read(self, node, addr, now)
            }
            fn write(&mut self, node: NodeId, addr: Addr, now: Cycles) -> Access {
                <$ty>::write(self, node, addr, now)
            }
            fn write_line_run(
                &mut self,
                node: NodeId,
                base: Addr,
                lines: u32,
                now: Cycles,
            ) -> Cycles {
                <$ty>::write_line_run(self, node, base, lines, now)
            }
            fn flush_dirty_shared(&mut self, node: NodeId, now: Cycles) -> FlushOutcome {
                <$ty>::flush_dirty_shared(self, node, now)
            }
        }
    };
}
memory!(CoherentMemory);
memory!(model::Memory);

/// Applies `op` at `t`; returns what it returned, one entry per call.
fn apply(mem: &mut impl Memory, at: &Lines, active: &[NodeId], op: &Op, t: Cycles) -> Vec<Outcome> {
    let pick = |i: usize| active[i % active.len()];
    let run_line = |i: usize| at.run[i % at.run.len()];
    match *op {
        Op::Run { node, start, lines } => {
            let end = mem.write_line_run(pick(node), at.starts[start], lines, t);
            vec![Outcome::Done(end)]
        }
        Op::Rewrite { node, line, lines } => {
            let end = mem.write_line_run(pick(node), run_line(line), lines, t);
            vec![Outcome::Done(end)]
        }
        Op::Scatter {
            node,
            line,
            lengths,
        } => (0..10)
            .map(|k| {
                let lines = 1 + ((lengths >> (3 * k)) & 7);
                let end = mem.write_line_run(pick(node), run_line(line + 5 * k), lines, t);
                Outcome::Done(end)
            })
            .collect(),
        Op::Flush { node } => vec![Outcome::Flush(mem.flush_dirty_shared(pick(node), t))],
        Op::RunRead { node, line } => {
            vec![Outcome::Access(mem.read(pick(node), run_line(line), t))]
        }
        Op::RunWrite { node, line } => {
            vec![Outcome::Access(mem.write(pick(node), run_line(line), t))]
        }
        Op::Evict { node, line } => {
            vec![Outcome::Access(mem.read(
                pick(node),
                conflict(run_line(line), 1),
                t,
            ))]
        }
        Op::Read { node, addr } | Op::Write { node, addr } => {
            let (node, addr) = (pick(node), at.pool[addr % at.pool.len()]);
            if addr.private_owner().is_some_and(|owner| owner != node) {
                return vec![Outcome::Skipped];
            }
            let access = if matches!(op, Op::Read { .. }) {
                mem.read(node, addr, t)
            } else {
                mem.write(node, addr, t)
            };
            vec![Outcome::Access(access)]
        }
        Op::Squeeze { node, line } => {
            let (node, line) = (pick(node), run_line(line));
            (10..18)
                .flat_map(|k| [conflict(line, k), line])
                .map(|addr| Outcome::Access(mem.read(node, addr, t)))
                .collect()
        }
        Op::Sweep { node, k, l2 } => {
            let node = pick(node);
            let sweep = conflict(at.run[0], k);
            let mut out: Vec<Outcome> = (0..128u64)
                .map(|i| Outcome::Access(mem.read(node, sweep.offset(i * 64), t)))
                .collect();
            if l2 {
                let next = sweep.offset(128 * 64);
                out.push(Outcome::Done(mem.write_line_run(node, next, 6 * 128, t)));
            }
            out
        }
        Op::Release { node } => {
            let releaser = pick(node);
            let mut out: Vec<Outcome> = active
                .iter()
                .filter(|&&n| n != releaser)
                .map(|&n| Outcome::Access(mem.read(n, at.flag, t)))
                .collect();
            out.push(Outcome::Access(mem.write(releaser, at.flag, t)));
            out
        }
    }
}

/// A line, its (L1, L2) states at each active node, and its directory
/// state.
type LineStates = (LineAddr, Vec<(LineState, LineState)>, DirState);

/// Each universe line's (L1, L2) states at each active node, then its
/// directory state.
fn states<'a>(
    active: &'a [NodeId],
    universe: &'a [LineAddr],
    probe: impl Fn(NodeId, LineAddr) -> (LineState, LineState) + 'a,
    dir: impl Fn(LineAddr) -> DirState + 'a,
) -> Vec<LineStates> {
    universe
        .iter()
        .map(|&line| {
            let held = active.iter().map(|&n| probe(n, line)).collect();
            (line, held, dir(line))
        })
        .collect()
}

fn machines() -> Vec<MachineConfig> {
    [4, 64]
        .into_iter()
        .flat_map(|n| {
            [
                MachineConfig::table1_with_nodes(n),
                MachineConfig::bus_smp(n),
            ]
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `CoherentMemory` is the reference model: on both interconnects at 4
    /// and 64 nodes, after every op, the op's results, the counters, and
    /// every compared line's cache and directory states agree.
    #[test]
    fn coherent_memory_matches_the_reference_model(
        ops in proptest::collection::vec(op(), 1..64),
    ) {
        for cfg in machines() {
            let name = cfg.to_string().replace('\n', "; ");
            let mut mem = CoherentMemory::directory(cfg.clone());
            let mut reference = model::Memory::new(cfg.clone());
            let active = active_nodes(cfg.nodes);
            let at = lines(mem.layout(), &active);
            let faults = || {
                let mut f = InvalidationFaults::new(0xFA17, 0.25, 0.25, 300.0);
                f.watch(at.flag.line());
                f
            };
            mem.set_faults(faults());
            reference.set_faults(faults());
            let mut t = Cycles::ZERO;
            for (step, op) in ops.iter().enumerate() {
                // One op in four shares the previous op's instant, so
                // transactions meet a busy bus.
                if step % 4 != 3 {
                    t += Cycles::from_nanos(150);
                }
                let ctx = format!("{name}: op {step} {op:?}");
                let got = apply(&mut mem, &at, &active, op, t);
                let want = apply(&mut reference, &at, &active, op, t);
                prop_assert_eq!(&got, &want, "{}", ctx);
                for outcome in &got {
                    if let Outcome::Done(end) = outcome {
                        t = t.max(*end);
                    }
                }
                prop_assert_eq!(mem.stats(), reference.stats(), "{}", ctx);
                let got = states(&active, &at.universe, |n, l| mem.probe_levels(n, l), |l| mem.dir_state(l));
                let want = states(
                    &active,
                    &at.universe,
                    |n, l| reference.probe_levels(n, l),
                    |l| reference.dir_state(l),
                );
                if got != want {
                    let diff = got.iter().zip(&want).find(|(g, w)| g != w);
                    prop_assert!(false, "{}: first differing line {:?}", ctx, diff);
                }
            }
        }
    }
}
