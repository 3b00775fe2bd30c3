//! The coherent memory system.
//!
//! Per-node two-level write-back caches sit in front of a full-map sharer
//! directory, and an [`Interconnect`] carries every transaction that goes
//! past the L2: the paper's hypercube of home directories (Table 1) or a
//! snooping bus. The model is *transaction-level*: the machine executes
//! accesses in global time order, and each access atomically updates
//! coherence state and returns
//!
//! * its **completion time**, composed from Table 1 latencies (L1/L2 round
//!   trips, memory row access, network hops or bus phases, invalidation
//!   fan-out and acknowledgment collection), and
//! * the **invalidation messages** it caused, each with its delivery time at
//!   the destination node.
//!
//! The second item is the load-bearing one for this paper: when the last
//! thread flips the barrier flag, the directory invalidates every sharer,
//! and those deliveries are the *external wake-up* signals (§3.3.1) that the
//! extended cache controller turns into CPU wake-ups.
//!
//! Hits, silent writes, fills, evictions and flush bookkeeping are the same
//! on both interconnects; each miss, upgrade and flush consults the
//! interconnect once for its timing and invalidation delivery.
//!
//! # Model simplifications (documented in DESIGN.md §7)
//!
//! * No data payloads are stored; the machine layer tracks logical values.
//! * Write-backs and replacement hints are off the critical path (a write
//!   buffer is assumed), so they update state but add no latency.
//! * Directory occupancy/contention is approximated by a per-message
//!   dispatch delay when fanning out invalidations.

use crate::addr::{Addr, LineAddr, MemLayout, NodeId};
use crate::cache::{Cache, CacheConfig, Evicted, PAGE_RESIDUES};
use crate::dir::Directory;
use crate::mesi::{DirState, LineState, SharerSet};
use crate::network::{Hypercube, Interconnect};
use serde::{Deserialize, Serialize};
use std::fmt;
use tb_sim::Cycles;

/// Architecture parameters (Table 1 of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of nodes (1 CPU per node): a power of two ≤ 64 on the
    /// hypercube, 2..=64 on a bus.
    pub nodes: u16,
    /// L1 geometry (Table 1: 16 kB, 2-way).
    pub l1: CacheConfig,
    /// L2 geometry (Table 1: 64 kB, 8-way).
    pub l2: CacheConfig,
    /// L1 round-trip latency from the processor (Table 1: 2 ns).
    pub l1_round_trip: Cycles,
    /// L2 round-trip latency from the processor (Table 1: 12 ns).
    pub l2_round_trip: Cycles,
    /// DRAM row-miss access time (Table 1: 60 ns, interleaved).
    pub mem_access: Cycles,
    /// Time to stream one 64 B line over the 16 B-wide 250 MHz bus.
    pub mem_transfer: Cycles,
    /// What carries transactions past the L2.
    pub interconnect: Interconnect,
}

impl MachineConfig {
    /// The paper's 64-node configuration (Table 1).
    pub fn table1() -> Self {
        MachineConfig::table1_with_nodes(64)
    }

    /// Table 1 latencies with a different machine size (for the scaling
    /// ablation).
    ///
    /// # Panics
    ///
    /// Panics unless `nodes` is a power of two in `1..=64`.
    pub fn table1_with_nodes(nodes: u16) -> Self {
        assert!(
            (1..=64).contains(&nodes) && nodes.is_power_of_two(),
            "node count must be a power of two in 1..=64, got {nodes}"
        );
        MachineConfig {
            nodes,
            l1: CacheConfig::table1_l1(),
            l2: CacheConfig::table1_l2(),
            l1_round_trip: Cycles::from_nanos(2),
            l2_round_trip: Cycles::from_nanos(12),
            mem_access: Cycles::from_nanos(60),
            mem_transfer: Cycles::from_nanos(16),
            interconnect: Interconnect::Hypercube {
                dir_dispatch: Cycles::from_nanos(4),
            },
        }
    }

    /// A bus SMP with Table 1's caches and DRAM: a 250 MHz snooping bus
    /// with 20 ns arbitration and 12 ns address (snoop) phases, and one
    /// `mem_transfer` data phase per line.
    ///
    /// # Panics
    ///
    /// Panics unless `2 <= nodes <= 64`.
    pub fn bus_smp(nodes: u16) -> Self {
        assert!(
            (2..=64).contains(&nodes),
            "bus SMP size must be in 2..=64, got {nodes}"
        );
        MachineConfig {
            nodes,
            interconnect: Interconnect::Bus {
                arbitration: Cycles::from_nanos(20),
                snoop: Cycles::from_nanos(12),
            },
            ..MachineConfig::table1()
        }
    }
}

impl fmt::Display for MachineConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "nodes              {}", self.nodes)?;
        writeln!(
            f,
            "L1                 {} B, {}-way, 64 B lines, RT {}",
            self.l1.size_bytes(),
            self.l1.associativity(),
            self.l1_round_trip
        )?;
        writeln!(
            f,
            "L2                 {} B, {}-way, 64 B lines, RT {}",
            self.l2.size_bytes(),
            self.l2.associativity(),
            self.l2_round_trip
        )?;
        writeln!(f, "memory             row miss {}", self.mem_access)?;
        writeln!(f, "line transfer      {}", self.mem_transfer)?;
        match self.interconnect {
            Interconnect::Hypercube { .. } => {
                write!(f, "network            hypercube, wormhole, 16ns/hop")
            }
            Interconnect::Bus { arbitration, snoop } => write!(
                f,
                "network            snooping bus, arbitration {arbitration}, snoop {snoop}"
            ),
        }
    }
}

/// How an access was satisfied (for statistics and tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessClass {
    /// Satisfied by the L1.
    L1Hit,
    /// Satisfied by the L2 (L1 filled).
    L2Hit,
    /// Satisfied by the local node's memory (on a bus: by the memory).
    LocalMem,
    /// Satisfied by a remote home's memory.
    RemoteMem,
    /// Satisfied by a cache-to-cache transfer from the owning node.
    CacheToCache,
    /// A write upgrade of an already-cached shared line.
    Upgrade,
}

/// One invalidation message caused by a write, with its delivery time.
///
/// The machine layer turns deliveries on *watched* lines into external
/// wake-up signals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Invalidation {
    /// Destination node whose cached copy is invalidated.
    pub node: NodeId,
    /// The invalidated line.
    pub line: LineAddr,
    /// When the message reaches the destination's cache controller.
    pub at: Cycles,
}

/// Result of a memory access.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Access {
    /// When the requesting processor can proceed.
    pub completion: Cycles,
    /// How the access was satisfied.
    pub class: AccessClass,
    /// The line involved.
    pub line: LineAddr,
    /// Invalidations sent to other nodes (writes only).
    pub invalidations: Vec<Invalidation>,
}

impl Access {
    /// Latency from issue to completion.
    pub fn latency(&self, issued: Cycles) -> Cycles {
        self.completion.saturating_sub(issued)
    }

    fn new(completion: Cycles, class: AccessClass, line: LineAddr) -> Self {
        Access {
            completion,
            class,
            line,
            invalidations: Vec::new(),
        }
    }
}

/// Result of flushing dirty shared lines before a non-snoopable sleep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FlushOutcome {
    /// Number of dirty shared lines written back.
    pub lines: usize,
    /// Time the flush occupied the processor/cache controller.
    pub duration: Cycles,
}

/// Aggregate event counts.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemStats {
    /// Total read accesses.
    pub reads: u64,
    /// Total write accesses.
    pub writes: u64,
    /// Accesses satisfied by the L1.
    pub l1_hits: u64,
    /// Accesses satisfied by the L2.
    pub l2_hits: u64,
    /// Directory transactions (anything past the L2).
    pub dir_transactions: u64,
    /// Invalidation messages sent.
    pub invalidations_sent: u64,
    /// Dirty lines written back (evictions and sharing write-backs).
    pub writebacks: u64,
    /// Cache-to-cache transfers.
    pub cache_to_cache: u64,
    /// Flush operations performed.
    pub flushes: u64,
    /// Lines written back by flushes.
    pub flushed_lines: u64,
}

#[derive(Debug)]
struct NodeCaches {
    l1: Cache,
    l2: Cache,
}

/// The configured [`Interconnect`] with its run-time model: the
/// hypercube's latencies, or when the bus is next free.
#[derive(Debug)]
enum Link {
    Hypercube {
        net: Hypercube,
        dir_dispatch: Cycles,
    },
    Bus {
        arbitration: Cycles,
        snoop: Cycles,
        free_at: Cycles,
    },
}

/// Acquires the bus at or after `ready` plus arbitration, holds it for
/// `occupancy`, and returns the grant time.
fn bus_grant(
    free_at: &mut Cycles,
    arbitration: Cycles,
    ready: Cycles,
    occupancy: Cycles,
) -> Cycles {
    let grant = (ready + arbitration).max(*free_at);
    *free_at = grant + occupancy;
    grant
}

/// The coherent memory system: all caches, the sharer directory, and the
/// interconnect.
#[derive(Debug)]
pub struct CoherentMemory {
    cfg: MachineConfig,
    layout: MemLayout,
    link: Link,
    nodes: Vec<NodeCaches>,
    dir: Directory,
    stats: MemStats,
    /// Wake-up fault injector (`None` outside fault experiments, so the
    /// baseline write path never even branches on a watched line).
    faults: Option<crate::faults::InvalidationFaults>,
}

impl CoherentMemory {
    /// Creates a memory system with cold caches on `cfg`'s interconnect.
    /// Both interconnects keep a full-map sharer directory, hence the
    /// name.
    pub fn directory(cfg: MachineConfig) -> Self {
        let layout = MemLayout::new(cfg.nodes);
        let link = match cfg.interconnect {
            Interconnect::Hypercube { dir_dispatch } => Link::Hypercube {
                net: Hypercube::table1(cfg.nodes),
                dir_dispatch,
            },
            Interconnect::Bus { arbitration, snoop } => Link::Bus {
                arbitration,
                snoop,
                free_at: Cycles::ZERO,
            },
        };
        let nodes = (0..cfg.nodes)
            .map(|_| NodeCaches {
                l1: Cache::new(cfg.l1),
                l2: Cache::new(cfg.l2),
            })
            .collect();
        CoherentMemory {
            cfg,
            layout,
            link,
            nodes,
            dir: Directory::new(),
            stats: MemStats::default(),
            faults: None,
        }
    }

    /// Installs a wake-up fault injector. Invalidations of its watched line
    /// produced by subsequent [`write`](Self::write) calls may be lost or
    /// delayed; everything else is untouched.
    pub fn set_faults(&mut self, faults: crate::faults::InvalidationFaults) {
        self.faults = Some(faults);
    }

    /// Drains the injector's fault log (empty when no injector is set).
    pub fn drain_fault_log(&mut self) -> Vec<crate::faults::InvalidationFaultRecord> {
        self.faults
            .as_mut()
            .map(crate::faults::InvalidationFaults::drain_log)
            .unwrap_or_default()
    }

    /// The machine's address layout.
    pub fn layout(&self) -> &MemLayout {
        &self.layout
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Event counters accumulated so far.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Directory state of a line (for tests and invariant checks): a line
    /// its owner holds flushed is `Shared` by that owner alone.
    pub fn dir_state(&self, line: LineAddr) -> DirState {
        match self.dir.get(line) {
            DirState::Exclusive(owner) if self.nodes[owner.index()].l2.holds_flushed(line) => {
                DirState::Shared(SharerSet::singleton(owner))
            }
            state => state,
        }
    }

    /// The per-level cache states of `line` at `node` (L1, L2), without
    /// perturbing LRU state — for invariant checks.
    pub fn probe_levels(&self, node: NodeId, line: LineAddr) -> (LineState, LineState) {
        let nc = &self.nodes[node.index()];
        (nc.l1.probe(line), nc.l2.probe(line))
    }

    /// `true` when every cache's dirty-way index marks exactly its
    /// `Modified` ways — for invariant checks.
    pub fn dirty_index_is_exact(&self) -> bool {
        self.nodes
            .iter()
            .all(|nc| nc.l1.dirty_index_is_exact() && nc.l2.dirty_index_is_exact())
    }

    /// `true` when every cache's verified line ranges hold only resident
    /// `Modified` lines — for invariant checks.
    pub fn verified_is_exact(&self) -> bool {
        self.nodes
            .iter()
            .all(|nc| nc.l1.verified_is_exact() && nc.l2.verified_is_exact())
    }

    /// When the bus is next free (`None` on the hypercube), without
    /// touching it — for reference models of bus timing.
    pub fn bus_free_at(&self) -> Option<Cycles> {
        match self.link {
            Link::Bus { free_at, .. } => Some(free_at),
            Link::Hypercube { .. } => None,
        }
    }

    /// The cache state of `line` at `node` (L1 first, then L2), without
    /// perturbing LRU state.
    pub fn cached_state(&self, node: NodeId, line: LineAddr) -> LineState {
        let nc = &self.nodes[node.index()];
        let l1 = nc.l1.probe(line);
        if l1.is_valid() {
            l1
        } else {
            nc.l2.probe(line)
        }
    }

    /// Performs a read by `node` at time `now`.
    pub fn read(&mut self, node: NodeId, addr: Addr, now: Cycles) -> Access {
        self.stats.reads += 1;
        let line = addr.line();
        let nc = &mut self.nodes[node.index()];
        let l1 = nc.l1.access(line);
        if l1.is_valid() {
            self.stats.l1_hits += 1;
            return Access::new(now + self.cfg.l1_round_trip, AccessClass::L1Hit, line);
        }
        let l2 = nc.l2.access(line);
        if l2.is_valid() {
            self.stats.l2_hits += 1;
            self.fill_l1(node, line, l2);
            return Access::new(now + self.cfg.l2_round_trip, AccessClass::L2Hit, line);
        }
        self.read_miss(node, line, now)
    }

    /// Performs a write by `node` at time `now`.
    ///
    /// Atomic read-modify-writes (the barrier's `count++` under its lock)
    /// are modeled as writes: the line ends up Modified at the writer.
    pub fn write(&mut self, node: NodeId, addr: Addr, now: Cycles) -> Access {
        self.stats.writes += 1;
        let line = addr.line();
        // Silent-write fast path: a line held Modified or Exclusive can be
        // written without consulting the directory at all, so the compute
        // phase's working-set rewrite stays entirely inside the node.
        let nc = &mut self.nodes[node.index()];
        let l1 = nc.l1.write_access(line);
        if l1.can_write_silently() {
            self.stats.l1_hits += 1;
            return Access::new(now + self.cfg.l1_round_trip, AccessClass::L1Hit, line);
        }
        let mut access = self.write_after_l1(node, line, l1, now);
        if let Some(f) = self.faults.as_mut() {
            f.apply(&mut access.invalidations);
        }
        access
    }

    /// The non-silent remainder of [`write`](Self::write), entered after the
    /// L1 probe (whose LRU bump already happened) returned `l1`.
    fn write_after_l1(
        &mut self,
        node: NodeId,
        line: LineAddr,
        l1: LineState,
        now: Cycles,
    ) -> Access {
        let nc = &mut self.nodes[node.index()];
        if !l1.is_valid() {
            let l2 = nc.l2.write_access(line);
            if l2.can_write_silently() {
                self.stats.l2_hits += 1;
                self.fill_l1(node, line, LineState::Modified);
                return Access::new(now + self.cfg.l2_round_trip, AccessClass::L2Hit, line);
            }
            if !l2.is_valid() {
                return self.write_past_l2(node, line, now, false);
            }
        }
        // Cached in Shared state somewhere locally: upgrade.
        self.write_past_l2(node, line, now, true)
    }

    /// Performs `lines` back-to-back writes to consecutive cache lines
    /// starting at `base`, chaining each write's completion into the next
    /// write's issue time, and returns the final completion.
    ///
    /// This is the compute phase's working-set rewrite loop, pulled below
    /// the dispatch layer: the L1's [`Cache::write_run`] writes each
    /// (overwhelmingly common) silent stretch of the run, one step per
    /// fragment it has already verified, without materializing an
    /// [`Access`] per line, and a stretch the last flush left behind is
    /// rewritten in one step per page. Only the lines they stop at take
    /// the per-line path. The sequence of coherence actions — and thus
    /// every timestamp and counter — is identical to calling
    /// [`write`](Self::write) once per line.
    pub fn write_line_run(&mut self, node: NodeId, base: Addr, lines: u32, now: Cycles) -> Cycles {
        self.stats.writes += lines as u64;
        let mut t = now;
        // Silent writes since `t` last advanced: each adds one L1 round
        // trip, settled in one step before the next non-silent write.
        let mut silent = 0;
        let mut line = base.line();
        let mut left = lines;
        // Only a node that flushed can have flushed runs to take.
        let flushed_runs = self.nodes[node.index()].l1.has_flushed_runs();
        while left > 0 {
            let l1 = &mut self.nodes[node.index()].l1;
            let flushed = if flushed_runs {
                l1.take_flushed_run(line, left)
            } else {
                0
            };
            if flushed > 0 {
                self.stats.l1_hits += silent;
                let now = t + self.cfg.l1_round_trip * silent;
                t = self.rewrite_flushed(node, line, flushed, now);
                left -= flushed;
                line = line.offset(flushed as u64);
                silent = 0;
                continue;
            }
            let (written, l1) = l1.write_run(line, left);
            left -= written;
            if l1.can_write_silently() {
                silent += written as u64;
                line = line.offset(written as u64);
                continue;
            }
            // The run stopped at its last written line.
            silent += written as u64 - 1;
            self.stats.l1_hits += silent;
            let stopped = line.offset(written as u64 - 1);
            let now = t + self.cfg.l1_round_trip * silent;
            t = self.write_run_line(node, stopped, l1, now);
            line = stopped.offset(1);
            silent = 0;
        }
        self.stats.l1_hits += silent;
        t + self.cfg.l1_round_trip * silent
    }

    /// The completion of a line run's non-silent write of `line`.
    // Kept out of line so the silent-write loop keeps `t` in a register.
    #[inline(never)]
    fn write_run_line(
        &mut self,
        node: NodeId,
        line: LineAddr,
        l1: LineState,
        now: Cycles,
    ) -> Cycles {
        self.write_after_l1(node, line, l1, now).completion
    }

    /// The owner's rewrite of `lines` flushed lines from `first`, which
    /// its L1 has just stamped as written and taken out of its flushed
    /// set, starting at `now`. Per line, a write of a flushed line is an
    /// upgrade with nobody to invalidate that leaves both levels Modified
    /// and the directory `Exclusive(node)`, as they are stored, so only
    /// its cost is settled here: one directory transaction per line, the
    /// L2 copies leave the flushed set, and the completion. On the
    /// hypercube each line adds the sole-sharer upgrade latency of its
    /// page's home; on the bus each line is a snoop-only bus transaction
    /// that also refreshes the L2 copy's recency, so the L2 stamps the
    /// lines and the bus settles its transactions in closed form.
    fn rewrite_flushed(
        &mut self,
        node: NodeId,
        first: LineAddr,
        lines: u32,
        now: Cycles,
    ) -> Cycles {
        self.stats.dir_transactions += lines as u64;
        let l2 = &mut self.nodes[node.index()].l2;
        l2.unflush(first, lines);
        match self.link {
            Link::Hypercube { net, .. } => {
                let end = first.offset(lines as u64);
                let mut t = now;
                let mut line = first;
                while line < end {
                    let page_end = line.next_page().min(end);
                    let step = self.sole_upgrade_latency(net, node, self.layout.home_of(line));
                    t += step * (page_end.as_u64() - line.as_u64());
                    line = page_end;
                }
                t
            }
            Link::Bus {
                arbitration,
                snoop,
                ref mut free_at,
            } => {
                l2.stamp(first, lines as u64);
                // After the first line, each upgrade is issued when the
                // previous one completes, which also frees the bus.
                let ready = now + self.cfg.l2_round_trip;
                let first_done = bus_grant(free_at, arbitration, ready, snoop) + snoop;
                let end = first_done
                    + (self.cfg.l2_round_trip + arbitration + snoop) * (lines as u64 - 1);
                *free_at = end;
                end
            }
        }
    }

    /// Flushes `node`'s dirty **shared** lines to memory, as required
    /// before entering a sleep state whose cache cannot service coherence
    /// requests (§3.1). Dirty copies are retained clean (the supply voltage
    /// is not interrupted, so data are preserved); the directory records the
    /// node as a clean sharer, letting the cache controller acknowledge
    /// later invalidations on the sleeping CPU's behalf.
    ///
    /// The write-back is deferred: every dirty shared line the L2 holds
    /// joins the caches' flushed sets without being visited, keeps its
    /// stored state, and reports the flushed one until its owner rewrites
    /// it or a transaction at its home looks the line up. Only the lines
    /// the L1 dirtied over a clean L2 copy are downgraded here, one by one.
    pub fn flush_dirty_shared(&mut self, node: NodeId, now: Cycles) -> FlushOutcome {
        let (layout, dir) = (&self.layout, &mut self.dir);
        let mut n = 0u64;
        let mut homes = SharerSet::EMPTY;
        let NodeCaches { l1, l2 } = &mut self.nodes[node.index()];
        l1.clean_silent(|line| {
            assert!(
                l2.set_state(line, LineState::Shared),
                "inclusion violated: {line} is dirty in {node}'s L1 but absent from its L2"
            );
            dir.set(line, DirState::Shared(SharerSet::singleton(node)));
            n += 1;
            homes.insert(layout.home_of(line));
        });
        // Every other dirty shared line is Modified in the L2, counted by
        // page: the count and the pages' homes are all the timing needs.
        let (deferred, residues) = l2.unflushed_dirty();
        n += deferred;
        l1.defer_flush();
        l2.defer_flush();
        self.stats.writebacks += n;
        self.stats.flushes += 1;
        self.stats.flushed_lines += n;
        let start = now + self.cfg.l2_round_trip;
        let end = match self.link {
            Link::Hypercube { net, .. } => {
                for r in 0..PAGE_RESIDUES as u64 {
                    if residues >> r & 1 == 1 {
                        homes.insert(layout.home_of(layout.shared_addr(r, 0).line()));
                    }
                }
                // Pipelined write-back stream: startup + per-line bus
                // occupancy + the tail message reaching the farthest home.
                let farthest = homes
                    .iter()
                    .map(|home| net.line_latency(node, home))
                    .max()
                    .unwrap_or(Cycles::ZERO);
                start + self.cfg.mem_transfer * n + farthest
            }
            Link::Bus {
                arbitration,
                ref mut free_at,
                ..
            } if n > 0 => {
                // Each write-back occupies one data phase; after the first,
                // each is issued as the previous one frees the bus.
                let transfer = self.cfg.mem_transfer;
                let first = bus_grant(free_at, arbitration, start, transfer) + transfer;
                *free_at = first + (arbitration + transfer) * (n - 1);
                *free_at
            }
            Link::Bus { .. } => start,
        };
        FlushOutcome {
            lines: n as usize,
            duration: end.saturating_sub(now),
        }
    }

    // ----- internal helpers ------------------------------------------------

    /// Fills the L1 with `line`, handling the inclusion consequences of the
    /// victim.
    fn fill_l1(&mut self, node: NodeId, line: LineAddr, state: LineState) {
        let nc = &mut self.nodes[node.index()];
        if let Some(Evicted {
            line: vl,
            state: vs,
        }) = nc.l1.insert(line, state)
        {
            if vs.is_dirty() {
                // Fold the dirty data back into the (inclusive) L2 copy.
                if !nc.l2.set_state(vl, LineState::Modified) {
                    // L2 lost the line (its own eviction invalidated our L1
                    // copy first, so this cannot normally happen); write back.
                    self.writeback_to_home(node, vl);
                }
            }
        }
    }

    /// Fills L2 then L1 with `line`, handling evictions at both levels.
    fn fill_both(&mut self, node: NodeId, line: LineAddr, state: LineState) {
        let evicted = self.nodes[node.index()].l2.insert(line, state);
        if let Some(Evicted {
            line: vl,
            state: vs,
        }) = evicted
        {
            // Inclusion: the L1 copy (if any) goes too; it may be dirtier
            // than the L2's record of it.
            let l1_state = self.nodes[node.index()].l1.invalidate(vl);
            let dirty = vs.is_dirty() || l1_state.is_some_and(|s| s.is_dirty());
            if dirty {
                self.writeback_to_home(node, vl);
            } else {
                self.drop_clean_holder(node, vl);
            }
        }
        self.fill_l1(node, line, state);
    }

    /// Write-back of a dirty line on eviction: memory becomes the only copy.
    fn writeback_to_home(&mut self, node: NodeId, line: LineAddr) {
        self.stats.writebacks += 1;
        match self.dir.get(line) {
            DirState::Exclusive(owner) if owner == node => {
                self.dir.set(line, DirState::Uncached);
            }
            other => panic!("write-back of {line} from {node} but directory says {other}"),
        }
    }

    /// Replacement hint for a clean eviction: the directory drops the node.
    /// A flushed line's entry still names the node as its owner; the hint
    /// leaves it `Uncached` all the same.
    fn drop_clean_holder(&mut self, node: NodeId, line: LineAddr) {
        match self.dir.get(line) {
            DirState::Exclusive(owner) if owner == node => {
                self.dir.set(line, DirState::Uncached);
            }
            DirState::Shared(s) => {
                let s = s.without(node);
                self.dir.set(
                    line,
                    if s.is_empty() {
                        DirState::Uncached
                    } else {
                        DirState::Shared(s)
                    },
                );
            }
            DirState::Uncached | DirState::Exclusive(_) => {
                // A stale hint; full-map directories tolerate it.
            }
        }
    }

    /// The memory access class on the hypercube: local or remote home.
    fn memory_class(home: NodeId, node: NodeId) -> AccessClass {
        if home == node {
            AccessClass::LocalMem
        } else {
            AccessClass::RemoteMem
        }
    }

    /// The directory entry of `line` for a transaction at its home. An
    /// owner that holds the line flushed is materialized first: its copies
    /// and the entry become what the flush would have left, `Shared` by
    /// the owner alone.
    fn lookup(&mut self, line: LineAddr) -> DirState {
        let state = self.dir.get(line);
        let DirState::Exclusive(owner) = state else {
            return state;
        };
        let nc = &mut self.nodes[owner.index()];
        if !nc.l2.holds_flushed(line) {
            return state;
        }
        nc.l1.set_state(line, LineState::Shared);
        nc.l2.set_state(line, LineState::Shared);
        let shared = DirState::Shared(SharerSet::singleton(owner));
        self.dir.set(line, shared);
        shared
    }

    fn read_miss(&mut self, node: NodeId, line: LineAddr, now: Cycles) -> Access {
        self.stats.dir_transactions += 1;
        let state = self.lookup(line);
        let owner = match state {
            DirState::Exclusive(owner) => {
                assert_ne!(owner, node, "missed a line the directory says we own");
                Some(owner)
            }
            DirState::Shared(s) => {
                debug_assert!(
                    !s.contains(node),
                    "missed a line the directory says we share"
                );
                None
            }
            DirState::Uncached => None,
        };
        let (completion, class) = match self.link {
            Link::Hypercube { net, .. } => {
                let home = self.layout.home_of(line);
                let t_home = now + self.cfg.l2_round_trip + net.control_latency(node, home);
                match owner {
                    // Forwarded to the owner, which supplies the data.
                    Some(owner) => {
                        let t_owner =
                            t_home + net.control_latency(home, owner) + self.cfg.l2_round_trip;
                        (
                            t_owner + net.line_latency(owner, node),
                            AccessClass::CacheToCache,
                        )
                    }
                    None => {
                        let t_data = t_home + self.cfg.mem_access + self.cfg.mem_transfer;
                        (
                            t_data + net.line_latency(home, node),
                            Self::memory_class(home, node),
                        )
                    }
                }
            }
            Link::Bus {
                arbitration,
                snoop,
                ref mut free_at,
            } => {
                let (occupancy, class) = match owner {
                    Some(_) => (snoop + self.cfg.mem_transfer, AccessClass::CacheToCache),
                    None => (
                        snoop + self.cfg.mem_access + self.cfg.mem_transfer,
                        AccessClass::LocalMem,
                    ),
                };
                let ready = now + self.cfg.l2_round_trip;
                (
                    bus_grant(free_at, arbitration, ready, occupancy) + occupancy,
                    class,
                )
            }
        };
        if let Some(owner) = owner {
            // The owner downgrades to Shared, writing dirty data back to
            // memory off the critical path.
            self.stats.cache_to_cache += 1;
            let onc = &mut self.nodes[owner.index()];
            let was_dirty = onc.l1.probe(line).is_dirty() || onc.l2.probe(line).is_dirty();
            if onc.l1.probe(line).is_valid() {
                onc.l1.set_state(line, LineState::Shared);
            }
            if onc.l2.probe(line).is_valid() {
                onc.l2.set_state(line, LineState::Shared);
            }
            if was_dirty {
                self.stats.writebacks += 1;
            }
        }
        // The first reader of an uncached line gets it Exclusive.
        let fill = if state == DirState::Uncached {
            self.dir.set(line, DirState::Exclusive(node));
            LineState::Exclusive
        } else {
            let mut holders = state.holders();
            holders.insert(node);
            self.dir.set(line, DirState::Shared(holders));
            LineState::Shared
        };
        self.fill_both(node, line, fill);
        Access::new(completion, class, line)
    }

    /// A write that needs the directory: a miss (`upgrade == false`) or an
    /// upgrade of a locally cached Shared copy. Every other copy is
    /// invalidated and the writer ends up holding the line Modified.
    fn write_past_l2(
        &mut self,
        node: NodeId,
        line: LineAddr,
        now: Cycles,
        upgrade: bool,
    ) -> Access {
        self.stats.dir_transactions += 1;
        let state = self.lookup(line);
        let owner = match state {
            DirState::Exclusive(owner) if owner == node => {
                // The L2 held E while the L1 held S: a silent upgrade.
                assert!(upgrade, "write-missed a line the directory says we own");
                None
            }
            DirState::Shared(_) => None,
            DirState::Exclusive(owner) if !upgrade => Some(owner),
            DirState::Uncached if !upgrade => None,
            other => panic!("upgrade of {line} by {node} but directory says {other}"),
        };
        let targets = state.holders().without(node);
        self.dir.set(line, DirState::Exclusive(node));
        if upgrade {
            let (completion, invalidations) = self.upgrade(node, line, targets, now);
            return Access {
                completion,
                class: AccessClass::Upgrade,
                line,
                invalidations,
            };
        }
        let (completion, class, invalidations) = match self.link {
            Link::Hypercube { net, dir_dispatch } => {
                let home = self.layout.home_of(line);
                let t_home = now + self.cfg.l2_round_trip + net.control_latency(node, home);
                match owner {
                    Some(owner) => {
                        self.stats.cache_to_cache += 1;
                        let t_owner =
                            t_home + net.control_latency(home, owner) + self.cfg.l2_round_trip;
                        let invalidations = self.invalidate_copies(line, targets, |_, _| t_owner);
                        (
                            t_owner + net.line_latency(owner, node),
                            AccessClass::CacheToCache,
                            invalidations,
                        )
                    }
                    None => {
                        let (invalidations, last_ack) =
                            self.fan_out(net, dir_dispatch, node, line, targets, t_home);
                        let t_data = t_home + self.cfg.mem_access + self.cfg.mem_transfer;
                        let t_grant = t_data + net.line_latency(home, node);
                        (
                            t_grant.max(last_ack),
                            Self::memory_class(home, node),
                            invalidations,
                        )
                    }
                }
            }
            Link::Bus {
                arbitration,
                snoop,
                ref mut free_at,
            } => {
                // One broadcast address phase invalidates every other copy
                // at the same instant.
                let (occupancy, class) = match owner {
                    Some(_) => (snoop + self.cfg.mem_transfer, AccessClass::CacheToCache),
                    None => (
                        snoop + self.cfg.mem_access + self.cfg.mem_transfer,
                        AccessClass::LocalMem,
                    ),
                };
                let ready = now + self.cfg.l2_round_trip;
                let grant = bus_grant(free_at, arbitration, ready, occupancy);
                let invalidations = self.invalidate_copies(line, targets, |_, _| grant + snoop);
                if owner.is_some() {
                    // The owner supplies the data and writes it back.
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

    /// The upgrade of `line`, which `node` caches Shared, once the
    /// directory has made `node` its owner: every copy `targets` hold is
    /// invalidated and both of `node`'s levels end up Modified. Returns
    /// the completion and the invalidations sent.
    fn upgrade(
        &mut self,
        node: NodeId,
        line: LineAddr,
        targets: SharerSet,
        now: Cycles,
    ) -> (Cycles, Vec<Invalidation>) {
        match self.link {
            Link::Hypercube { net, dir_dispatch } => {
                let home = self.layout.home_of(line);
                let t_home = now + self.cfg.l1_round_trip + net.control_latency(node, home);
                let (invalidations, last_ack) =
                    self.fan_out(net, dir_dispatch, node, line, targets, t_home);
                let t_grant = now + self.sole_upgrade_latency(net, node, home);
                let completion = t_grant.max(last_ack);
                let nc = &mut self.nodes[node.index()];
                if !nc.l2.set_state(line, LineState::Modified) {
                    nc.l2.insert(line, LineState::Modified);
                }
                if !nc.l1.set_state(line, LineState::Modified) {
                    self.fill_l1(node, line, LineState::Modified);
                }
                (completion, invalidations)
            }
            Link::Bus {
                arbitration,
                snoop,
                ref mut free_at,
            } => {
                // The address phase alone: the data are already here.
                let ready = now + self.cfg.l2_round_trip;
                let grant = bus_grant(free_at, arbitration, ready, snoop);
                let invalidations = self.invalidate_copies(line, targets, |_, _| grant + snoop);
                self.fill_both(node, line, LineState::Modified);
                (grant + snoop, invalidations)
            }
        }
    }

    /// How long a hypercube upgrade that `node` issues for a line homed at
    /// `home` takes when no other copy needs invalidating: the L1 round
    /// trip, the request to the home and the grant back.
    #[inline]
    fn sole_upgrade_latency(&self, net: Hypercube, node: NodeId, home: NodeId) -> Cycles {
        self.cfg.l1_round_trip + net.control_latency(node, home) + net.control_latency(home, node)
    }

    /// The hypercube home's invalidation fan-out, starting at `t_home`:
    /// the home invalidates `targets` one dispatch apart, and each
    /// acknowledges straight to the requester `node`. Returns the
    /// invalidations and the last acknowledgement (`t_home` if none).
    fn fan_out(
        &mut self,
        net: Hypercube,
        dir_dispatch: Cycles,
        node: NodeId,
        line: LineAddr,
        targets: SharerSet,
        t_home: Cycles,
    ) -> (Vec<Invalidation>, Cycles) {
        let home = self.layout.home_of(line);
        let invalidations = self.invalidate_copies(line, targets, |i, sharer| {
            t_home + dir_dispatch * i as u64 + net.control_latency(home, sharer)
        });
        let last_ack = invalidations
            .iter()
            .map(|inv| inv.at + net.control_latency(inv.node, node))
            .fold(t_home, Cycles::max);
        (invalidations, last_ack)
    }

    /// Removes every copy of `line` held by `targets` and returns one
    /// invalidation per sharer, the `i`-th delivered at `at(i, sharer)`.
    fn invalidate_copies(
        &mut self,
        line: LineAddr,
        targets: SharerSet,
        at: impl Fn(usize, NodeId) -> Cycles,
    ) -> Vec<Invalidation> {
        if targets.is_empty() {
            // The common refill after a flush: the writer was the only
            // sharer, so there is nothing to fan out.
            return Vec::new();
        }
        let mut invalidations = Vec::with_capacity(targets.len());
        for (i, sharer) in targets.iter().enumerate() {
            let nc = &mut self.nodes[sharer.index()];
            nc.l1.invalidate(line);
            nc.l2.invalidate(line);
            invalidations.push(Invalidation {
                node: sharer,
                line,
                at: at(i, sharer),
            });
        }
        self.stats.invalidations_sent += invalidations.len() as u64;
        invalidations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(nodes: u16) -> CoherentMemory {
        CoherentMemory::directory(MachineConfig::table1_with_nodes(nodes))
    }

    fn bus(nodes: u16) -> CoherentMemory {
        CoherentMemory::directory(MachineConfig::bus_smp(nodes))
    }

    /// One machine per interconnect, for tests that must hold on both.
    fn both(nodes: u16) -> [CoherentMemory; 2] {
        [sys(nodes), bus(nodes)]
    }

    fn n(i: u16) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn first_read_misses_then_hits() {
        for mut m in both(4) {
            let a = m.layout().shared_addr(0, 0);
            let r1 = m.read(n(1), a, Cycles::ZERO);
            assert_ne!(r1.class, AccessClass::L1Hit);
            assert!(r1.completion > Cycles::ZERO);
            let r2 = m.read(n(1), a, r1.completion);
            assert_eq!(r2.class, AccessClass::L1Hit);
            assert_eq!(r2.latency(r1.completion), Cycles::from_nanos(2));
        }
    }

    #[test]
    fn first_reader_gets_exclusive_then_sharers_downgrade() {
        for mut m in both(4) {
            let a = m.layout().shared_addr(0, 0);
            m.read(n(1), a, Cycles::ZERO);
            assert_eq!(m.dir_state(a.line()), DirState::Exclusive(n(1)));
            assert_eq!(m.cached_state(n(1), a.line()), LineState::Exclusive);
            let r = m.read(n(2), a, Cycles::from_nanos(500));
            assert_eq!(r.class, AccessClass::CacheToCache);
            assert_eq!(m.cached_state(n(1), a.line()), LineState::Shared);
            assert_eq!(m.cached_state(n(2), a.line()), LineState::Shared);
            match m.dir_state(a.line()) {
                DirState::Shared(s) => {
                    assert!(s.contains(n(1)) && s.contains(n(2)) && s.len() == 2)
                }
                other => panic!("expected Shared, got {other}"),
            }
        }
    }

    #[test]
    fn write_to_shared_line_invalidates_all_sharers() {
        for mut m in both(8) {
            let a = m.layout().shared_addr(0, 0);
            for i in 1..6 {
                m.read(n(i), a, Cycles::from_nanos(i as u64 * 1000));
            }
            let w = m.write(n(0), a, Cycles::from_micros(10));
            assert_eq!(w.invalidations.len(), 5);
            for inv in &w.invalidations {
                assert!(inv.at > Cycles::from_micros(10));
                assert_eq!(inv.line, a.line());
                assert_eq!(m.cached_state(inv.node, a.line()), LineState::Invalid);
            }
            assert_eq!(m.dir_state(a.line()), DirState::Exclusive(n(0)));
            assert_eq!(m.cached_state(n(0), a.line()), LineState::Modified);
            // Completion waits for the last acknowledgment.
            let max_delivery = w.invalidations.iter().map(|i| i.at).max().unwrap();
            assert!(w.completion >= max_delivery);
        }
    }

    #[test]
    fn silent_write_on_exclusive() {
        for mut m in both(4) {
            let a = m.layout().shared_addr(0, 0);
            let r = m.read(n(2), a, Cycles::ZERO);
            let w = m.write(n(2), a, r.completion);
            assert_eq!(w.class, AccessClass::L1Hit);
            assert!(w.invalidations.is_empty());
            assert_eq!(m.cached_state(n(2), a.line()), LineState::Modified);
            assert_eq!(m.dir_state(a.line()), DirState::Exclusive(n(2)));
        }
    }

    #[test]
    fn upgrade_from_shared_pays_coherence() {
        for mut m in both(4) {
            let a = m.layout().shared_addr(0, 0);
            m.read(n(0), a, Cycles::ZERO);
            m.read(n(1), a, Cycles::from_micros(1));
            let w = m.write(n(0), a, Cycles::from_micros(2));
            assert_eq!(w.class, AccessClass::Upgrade);
            assert_eq!(w.invalidations.len(), 1);
            assert_eq!(w.invalidations[0].node, n(1));
            assert_eq!(m.cached_state(n(1), a.line()), LineState::Invalid);
        }
    }

    #[test]
    fn write_miss_on_modified_steals_ownership() {
        for mut m in both(4) {
            let a = m.layout().shared_addr(0, 0);
            m.write(n(1), a, Cycles::ZERO);
            let w = m.write(n(2), a, Cycles::from_micros(1));
            assert_eq!(w.class, AccessClass::CacheToCache);
            assert_eq!(w.invalidations.len(), 1);
            assert_eq!(w.invalidations[0].node, n(1));
            assert_eq!(m.dir_state(a.line()), DirState::Exclusive(n(2)));
            assert_eq!(m.cached_state(n(1), a.line()), LineState::Invalid);
        }
    }

    #[test]
    fn local_vs_remote_memory_latency() {
        let mut m = sys(4);
        // Page 0 homes at node 0; page 1 at node 1.
        let local = m.layout().shared_addr(0, 0);
        let remote = m.layout().shared_addr(1, 0);
        let rl = m.read(n(0), local, Cycles::ZERO);
        let rr = m.read(n(0), remote, Cycles::ZERO);
        assert_eq!(rl.class, AccessClass::LocalMem);
        assert_eq!(rr.class, AccessClass::RemoteMem);
        assert!(rr.latency(Cycles::ZERO) > rl.latency(Cycles::ZERO));
    }

    #[test]
    fn flush_writes_back_shared_dirty_and_keeps_clean_copy() {
        for mut m in both(4) {
            let shared = m.layout().shared_addr(0, 0);
            let private = m.layout().private_addr(n(1), 0, 0);
            m.write(n(1), shared, Cycles::ZERO);
            m.write(n(1), private, Cycles::from_micros(1));
            let f = m.flush_dirty_shared(n(1), Cycles::from_micros(2));
            assert_eq!(f.lines, 1, "only the shared dirty line is flushed");
            assert!(f.duration > Cycles::ZERO);
            assert_eq!(m.cached_state(n(1), shared.line()), LineState::Shared);
            assert_eq!(
                m.dir_state(shared.line()),
                DirState::Shared(SharerSet::singleton(n(1)))
            );
            // Private line untouched.
            assert_eq!(m.cached_state(n(1), private.line()), LineState::Modified);
        }
    }

    #[test]
    fn flush_with_nothing_dirty_is_cheap() {
        for mut m in both(2) {
            let f = m.flush_dirty_shared(n(0), Cycles::ZERO);
            assert_eq!(f.lines, 0);
            assert_eq!(f.duration, m.config().l2_round_trip);
        }
    }

    #[test]
    fn reread_after_flush_hits_locally() {
        for mut m in both(4) {
            let a = m.layout().shared_addr(0, 0);
            m.write(n(1), a, Cycles::ZERO);
            m.flush_dirty_shared(n(1), Cycles::from_micros(1));
            let r = m.read(n(1), a, Cycles::from_micros(2));
            assert_eq!(r.class, AccessClass::L1Hit, "clean copy retained");
        }
    }

    #[test]
    fn rewrite_after_flush_needs_upgrade() {
        for mut m in both(4) {
            let a = m.layout().shared_addr(0, 0);
            m.write(n(1), a, Cycles::ZERO);
            m.flush_dirty_shared(n(1), Cycles::from_micros(1));
            let w = m.write(n(1), a, Cycles::from_micros(2));
            assert_eq!(
                w.class,
                AccessClass::Upgrade,
                "flush cost resurfaces on re-write"
            );
        }
    }

    #[test]
    fn barrier_flag_pattern_end_to_end() {
        // The paper's §3.3.1 mechanism: spinners cache the flag Shared; the
        // releaser's write invalidates every spinner, and the deliveries are
        // the wake-up signals.
        let mut m = sys(64);
        let flag = m.layout().shared_addr(10, 0);
        let releaser = n(13);
        let mut t = Cycles::ZERO;
        for i in 0..64u16 {
            if n(i) != releaser {
                m.read(n(i), flag, t);
                t += Cycles::from_nanos(200);
            }
        }
        let w = m.write(releaser, flag, Cycles::from_micros(100));
        assert_eq!(w.invalidations.len(), 63);
        let mut seen: Vec<u16> = w.invalidations.iter().map(|i| i.node.as_u16()).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 63);
        for inv in &w.invalidations {
            assert!(inv.at >= Cycles::from_micros(100));
            // Wake-up delivery is microseconds, not milliseconds: "much
            // smaller than the barrier interval time".
            assert!(inv.at < Cycles::from_micros(102));
        }
    }

    #[test]
    fn eviction_notifies_directory() {
        for mut m in both(2) {
            // Fill node 0's L2 far beyond capacity with private lines.
            let total_lines = (m.config().l2.size_bytes() / 64) * 4;
            let mut t = Cycles::ZERO;
            for i in 0..total_lines {
                let a = m.layout().private_addr(n(0), i / 64, (i % 64) * 64);
                m.write(n(0), a, t);
                t += Cycles::from_micros(1);
            }
            // Every line the directory still attributes to node 0 must actually
            // be resident somewhere in node 0's hierarchy.
            let mut resident = std::collections::HashSet::new();
            for (l, _) in m.nodes[0].l1.resident_lines() {
                resident.insert(l);
            }
            for (l, _) in m.nodes[0].l2.resident_lines() {
                resident.insert(l);
            }
            for (line, state) in m.dir.iter() {
                if let DirState::Exclusive(owner) = state {
                    if owner == n(0) {
                        assert!(resident.contains(&line), "directory stale for {line}");
                    }
                }
            }
            assert!(m.stats().writebacks > 0, "capacity evictions wrote back");
        }
    }

    #[test]
    fn stats_accumulate() {
        for mut m in both(4) {
            let a = m.layout().shared_addr(0, 0);
            m.read(n(0), a, Cycles::ZERO);
            m.read(n(0), a, Cycles::from_nanos(100));
            m.write(n(1), a, Cycles::from_micros(1));
            let s = m.stats();
            assert_eq!(s.reads, 2);
            assert_eq!(s.writes, 1);
            assert_eq!(s.l1_hits, 1);
            assert!(s.dir_transactions >= 2);
            assert!(s.invalidations_sent >= 1);
        }
    }

    #[test]
    fn config_display_mentions_table1_values() {
        let c = MachineConfig::table1();
        let s = c.to_string();
        assert!(s.contains("64"));
        assert!(s.contains("hypercube"));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_node_count_rejected() {
        let _ = MachineConfig::table1_with_nodes(5);
    }

    #[test]
    fn both_interconnects_answer_the_same_api() {
        for mut m in both(4) {
            let a = m.layout().shared_addr(0, 0);
            let r = m.read(n(1), a, Cycles::ZERO);
            assert!(r.completion > Cycles::ZERO);
            let w = m.write(n(2), a, Cycles::from_micros(1));
            assert_eq!(w.invalidations.len(), 1, "{}", m.config());
            let f = m.flush_dirty_shared(n(2), Cycles::from_micros(2));
            assert_eq!(f.lines, 1);
            assert!(m.stats().reads >= 1);
        }
    }

    #[test]
    fn write_line_run_matches_per_line_writes() {
        // The batched entry point must produce the same completion chain and
        // the same coherence state as issuing the writes one at a time.
        for (mut batched, mut looped) in both(8).into_iter().zip(both(8)) {
            let base = batched.layout().shared_addr(3, 0);
            let node = n(2);
            // Seed some remote sharers so part of the run needs upgrades.
            for i in 0..8u64 {
                let a = base.offset(i * 2 * 64);
                batched.read(n(5), a, Cycles::ZERO);
                looped.read(n(5), a, Cycles::ZERO);
            }
            let t0 = Cycles::from_micros(1);
            let end_b = batched.write_line_run(node, base, 40, t0);
            let mut end_l = t0;
            for i in 0..40u64 {
                end_l = looped.write(node, base.offset(i * 64), end_l).completion;
            }
            // Run again from a warm cache: now every write is silent.
            let end_b2 = batched.write_line_run(node, base, 40, end_b);
            let mut end_l2 = end_l;
            for i in 0..40u64 {
                end_l2 = looped.write(node, base.offset(i * 64), end_l2).completion;
            }
            // A second block in the same L2 sets, written before the flush,
            // so the refill's LRU bumps decide later victims.
            let other = base.offset(128 * 64);
            let end_b2 = batched.write_line_run(node, other, 40, end_b2);
            for i in 0..40u64 {
                end_l2 = looped.write(node, other.offset(i * 64), end_l2).completion;
            }
            // Flush, then refill: every line the flush left behind is held
            // Shared with this node as its only sharer, so the refill
            // upgrades each of them with nobody to invalidate.
            let f_b = batched.flush_dirty_shared(node, end_b2);
            let f_l = looped.flush_dirty_shared(node, end_l2);
            assert_eq!(f_b.lines, 80);
            for i in 0..40u64 {
                let line = base.offset(i * 64).line();
                assert_eq!(
                    batched.dir_state(line),
                    DirState::Shared(SharerSet::singleton(node))
                );
            }
            let t3 = end_b2 + f_b.duration;
            let end_b3 = batched.write_line_run(node, base, 40, t3);
            let mut end_l3 = t3;
            for i in 0..40u64 {
                end_l3 = looped.write(node, base.offset(i * 64), end_l3).completion;
            }
            let cfg = batched.config().to_string();
            assert_eq!(end_b, end_l, "{cfg}");
            assert_eq!(end_b2, end_l2, "{cfg}");
            assert_eq!(f_b, f_l, "{cfg}");
            assert_eq!(end_b3, end_l3, "{cfg}");
            assert_eq!(batched.stats(), looped.stats(), "{cfg}");
            for i in 0..48u64 {
                let line = base.offset(i * 64).line();
                for holder in [node, n(5)] {
                    assert_eq!(
                        batched.probe_levels(holder, line),
                        looped.probe_levels(holder, line),
                        "{cfg}"
                    );
                }
                assert_eq!(batched.dir_state(line), looped.dir_state(line), "{cfg}");
            }
            // LRU order must match too: seven more lines per L2 set evict
            // one line of each of those sets, the refilled (dirty) block's
            // or the other (clean) one's, whichever was used least recently.
            let far = base.offset(256 * 64);
            let end_b4 = batched.write_line_run(node, far, 7 * 128, end_b3);
            let mut end_l4 = end_l3;
            for i in 0..7 * 128u64 {
                end_l4 = looped.write(node, far.offset(i * 64), end_l4).completion;
            }
            assert_eq!(end_b4, end_l4, "{cfg}");
            assert_eq!(batched.stats(), looped.stats(), "{cfg}");
            assert!(batched.dirty_index_is_exact() && looped.dirty_index_is_exact());

            // Episodes: rewrites longer than the L1's 128 sets, each
            // followed by a check-in on a count line another node also
            // writes (L1 set 0) and a flag read (L1 set 64). Those two
            // lines thrash the run's lines in their 2-way sets, so each
            // rewrite splits into fragments: verified ones written as one
            // stamp, and the lines between them missing again.
            let count = batched.layout().shared_addr(2, 0);
            let flag = batched.layout().shared_addr(1, 0);
            let ws = batched.layout().shared_addr(64, 0);
            let (mut tb, mut tl) = (end_b4, end_l4);
            for round in 0..8u64 {
                let lines = [192, 256, 160, 256][round as usize % 4];
                tb = batched.write_line_run(node, ws, lines, tb);
                for i in 0..lines as u64 {
                    tl = looped.write(node, ws.offset(i * 64), tl).completion;
                }
                assert_eq!(tb, tl, "{cfg} round {round}");
                for (mem, t) in [(&mut batched, &mut tb), (&mut looped, &mut tl)] {
                    *t = mem.write(node, count, *t).completion;
                    *t = mem.write(n(5), count, *t).completion;
                    *t = mem.read(node, flag, *t).completion;
                    if round == 5 {
                        *t += mem.flush_dirty_shared(node, *t).duration;
                    }
                }
                assert_eq!(batched.stats(), looped.stats(), "{cfg} round {round}");
                assert!(batched.verified_is_exact(), "{cfg} round {round}");
            }
            for i in 0..256u64 {
                let line = ws.offset(i * 64).line();
                assert_eq!(
                    batched.probe_levels(node, line),
                    looped.probe_levels(node, line),
                    "{cfg}"
                );
            }
        }
    }

    #[test]
    fn broadcast_invalidation_is_simultaneous() {
        // The defining bus property: all sharers observe the flag flip at
        // the same instant.
        let mut m = bus(16);
        let flag = m.layout().shared_addr(0, 0);
        let mut t = Cycles::ZERO;
        for i in 1..16 {
            t += Cycles::from_micros(1);
            m.read(n(i), flag, t);
        }
        let w = m.write(n(0), flag, t + Cycles::from_micros(1));
        assert_eq!(w.invalidations.len(), 15);
        let first = w.invalidations[0].at;
        assert!(w.invalidations.iter().all(|i| i.at == first));
        assert!(w.completion >= first);
    }

    #[test]
    fn misses_serialize_on_the_bus() {
        // Two cold misses issued at the same instant: the second must wait
        // for the first transaction's occupancy.
        let mut m = bus(4);
        let a = m.layout().shared_addr(0, 0);
        let b = m.layout().shared_addr(1, 0);
        let r1 = m.read(n(0), a, Cycles::ZERO);
        let r2 = m.read(n(1), b, Cycles::ZERO);
        assert!(
            r2.completion > r1.completion,
            "bus contention must serialize: {} vs {}",
            r2.completion,
            r1.completion
        );
    }

    #[test]
    fn hit_paths_bypass_the_bus() {
        let mut m = bus(4);
        let a = m.layout().shared_addr(0, 0);
        let r1 = m.read(n(2), a, Cycles::ZERO);
        let busy = |m: &CoherentMemory| match m.link {
            Link::Bus { free_at, .. } => free_at,
            Link::Hypercube { .. } => unreachable!("a bus machine"),
        };
        let busy_before = busy(&m);
        let r2 = m.read(n(2), a, r1.completion);
        assert_eq!(r2.class, AccessClass::L1Hit);
        assert_eq!(busy(&m), busy_before, "hits leave the bus alone");
    }

    #[test]
    fn flush_occupies_the_bus_per_line() {
        let mut m = bus(4);
        let mut t = Cycles::ZERO;
        for page in 0..8 {
            t += Cycles::from_micros(1);
            m.write(n(1), m.layout().shared_addr(page, 0), t);
        }
        let f = m.flush_dirty_shared(n(1), t + Cycles::from_micros(1));
        assert_eq!(f.lines, 8);
        assert!(
            f.duration >= Cycles::from_nanos(8 * 16),
            "eight data phases: {}",
            f.duration
        );
        let f2 = m.flush_dirty_shared(n(1), t + Cycles::from_millis(1));
        assert_eq!(f2.lines, 0);
    }

    #[test]
    #[should_panic(expected = "bus SMP size")]
    fn single_node_bus_rejected() {
        let _ = MachineConfig::bus_smp(1);
    }

    #[test]
    fn bus_accepts_any_size_in_range() {
        // Unlike the hypercube, a bus need not have a power-of-two size.
        let mut m = bus(12);
        let a = m.layout().shared_addr(5, 0);
        m.read(n(11), a, Cycles::ZERO);
        assert_eq!(
            m.write(n(3), a, Cycles::from_micros(1)).invalidations.len(),
            1
        );
    }

    #[test]
    fn display_names_the_interconnect() {
        assert!(MachineConfig::table1_with_nodes(4)
            .to_string()
            .ends_with("hypercube, wormhole, 16ns/hop"));
        assert!(MachineConfig::bus_smp(8)
            .to_string()
            .contains("snooping bus"));
    }
}
