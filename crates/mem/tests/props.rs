//! Property-based tests of the coherence protocol on both interconnects:
//! after any sequence of reads, writes, line runs and flushes, the full-map
//! directory and the caches must agree exactly, every cache's dirty-way
//! index must match its ways, and its verified line ranges must hold only
//! resident `Modified` lines. A reference model of the flush (collect every
//! dirty line, filter, sort, dedup, downgrade) checks the indexed one-pass
//! flush. The bus adds its defining properties: one write's invalidations
//! share one instant, and misses serialize.
//!
//! At the cache level, a differential test runs one random op sequence on
//! two caches: one writes runs with [`Cache::write_run`] (verified ranges
//! and stamps), the other line by line with [`Cache::write_access`]. Every
//! return value, every `insert` victim and the resident lines must agree.
//! At the memory level, a second one runs long line runs, flushes and
//! remote accesses on two memories: one writes each run with
//! `write_line_run` (post-flush refills included), the other line by line
//! with `write`.

use proptest::prelude::*;
use tb_mem::{
    AccessClass, Addr, Cache, CacheConfig, CoherentMemory, DirState, FlushOutcome, Hypercube,
    Interconnect, LineAddr, LineState, MachineConfig, MemStats, NodeId, SharerSet,
};
use tb_sim::Cycles;

/// One machine per interconnect: the Table 1 hypercube and a bus SMP.
fn both(nodes: u16) -> [CoherentMemory; 2] {
    [
        CoherentMemory::directory(MachineConfig::table1_with_nodes(nodes)),
        CoherentMemory::directory(MachineConfig::bus_smp(nodes)),
    ]
}

fn bus(nodes: u16) -> CoherentMemory {
    CoherentMemory::directory(MachineConfig::bus_smp(nodes))
}

#[derive(Debug, Clone)]
enum Op {
    Read {
        node: u16,
        addr_idx: usize,
    },
    Write {
        node: u16,
        addr_idx: usize,
    },
    /// `write_line_run` of `lines` consecutive lines from a pool address.
    WriteRun {
        node: u16,
        addr_idx: usize,
        lines: u32,
    },
    Flush {
        node: u16,
    },
}

/// Longest line run an op issues.
const MAX_RUN: u32 = 8;

fn op_strategy(nodes: u16, addrs: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0..nodes, 0..addrs).prop_map(|(node, addr_idx)| Op::Read { node, addr_idx }),
        4 => (0..nodes, 0..addrs).prop_map(|(node, addr_idx)| Op::Write { node, addr_idx }),
        2 => (0..nodes, 0..addrs, 1..=MAX_RUN)
            .prop_map(|(node, addr_idx, lines)| Op::WriteRun { node, addr_idx, lines }),
        1 => (0..nodes).prop_map(|node| Op::Flush { node }),
    ]
}

/// The address pool: a mix of shared lines (some colliding in cache sets)
/// and per-node private lines.
fn addr_pool(mem: &CoherentMemory, nodes: u16) -> Vec<Addr> {
    let mut pool = Vec::new();
    for page in 0..6u64 {
        for line in 0..4u64 {
            pool.push(mem.layout().shared_addr(page, line * 64));
        }
    }
    for n in 0..nodes.min(4) {
        pool.push(mem.layout().private_addr(NodeId::new(n), 0, 0));
    }
    pool
}

/// Every line an op on `pool` can touch: each pool line and the lines a
/// run starting there covers.
fn line_universe(pool: &[Addr]) -> Vec<LineAddr> {
    let mut lines: Vec<LineAddr> = pool
        .iter()
        .flat_map(|a| (0..MAX_RUN as u64).map(move |i| a.offset(i * 64).line()))
        .collect();
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// Applies one op at `t`; private data is only touched by its owner.
fn apply(mem: &mut CoherentMemory, pool: &[Addr], op: &Op, t: Cycles) -> Option<FlushOutcome> {
    let owned = |node: u16, addr: Addr| {
        !addr.is_private() || addr.private_owner() == Some(NodeId::new(node))
    };
    match *op {
        Op::Read { node, addr_idx } => {
            let addr = pool[addr_idx % pool.len()];
            if owned(node, addr) {
                mem.read(NodeId::new(node), addr, t);
            }
        }
        Op::Write { node, addr_idx } => {
            let addr = pool[addr_idx % pool.len()];
            if owned(node, addr) {
                mem.write(NodeId::new(node), addr, t);
            }
        }
        Op::WriteRun {
            node,
            addr_idx,
            lines,
        } => {
            let addr = pool[addr_idx % pool.len()];
            if owned(node, addr) {
                mem.write_line_run(NodeId::new(node), addr, lines, t);
            }
        }
        Op::Flush { node } => return Some(mem.flush_dirty_shared(NodeId::new(node), t)),
    }
    None
}

/// Each line's (L1, L2) states at each node, and its directory state.
type LineStates = Vec<(NodeId, LineAddr, LineState, LineState, DirState)>;

fn line_states(mem: &CoherentMemory, universe: &[LineAddr]) -> LineStates {
    (0..mem.config().nodes)
        .map(NodeId::new)
        .flat_map(|node| {
            universe.iter().map(move |&line| {
                let (l1, l2) = mem.probe_levels(node, line);
                (node, line, l1, l2, mem.dir_state(line))
            })
        })
        .collect()
}

/// The flush as it was before the dirty-way index, rebuilt from public
/// probes: collect every line of `universe` dirty at either level of
/// `node`, drop private lines, sort and dedup, then downgrade each line at
/// both levels and record `node` as its only sharer. Returns what
/// `flush_dirty_shared(node, now)` must return and leave behind.
fn reference_flush(
    mem: &CoherentMemory,
    node: NodeId,
    now: Cycles,
    universe: &[LineAddr],
) -> (FlushOutcome, MemStats, LineStates) {
    let mut dirty: Vec<LineAddr> = universe
        .iter()
        .copied()
        .filter(|&line| {
            let (l1, l2) = mem.probe_levels(node, line);
            l1.is_dirty() || l2.is_dirty()
        })
        .collect();
    dirty.retain(|l| !l.base_addr().is_private());
    dirty.sort_unstable();
    dirty.dedup();
    let n = dirty.len() as u64;

    let mut states = line_states(mem, universe);
    for (holder, line, l1, l2, dir) in &mut states {
        if dirty.binary_search(line).is_ok() {
            *dir = DirState::Shared(SharerSet::singleton(node));
            if *holder == node {
                if l1.is_dirty() {
                    *l1 = LineState::Shared;
                }
                *l2 = LineState::Shared;
            }
        }
    }
    let mut stats = mem.stats().clone();
    stats.writebacks += n;
    stats.flushes += 1;
    stats.flushed_lines += n;

    let cfg = mem.config();
    let start = now + cfg.l2_round_trip;
    let end = match cfg.interconnect {
        Interconnect::Hypercube { .. } => {
            let net = Hypercube::table1(cfg.nodes);
            let farthest = dirty
                .iter()
                .map(|&line| net.line_latency(node, mem.layout().home_of(line)))
                .max()
                .unwrap_or(Cycles::ZERO);
            start + cfg.mem_transfer * n + farthest
        }
        Interconnect::Bus { arbitration, .. } => {
            let mut free_at = mem.bus_free_at().expect("a bus machine");
            let mut end = start;
            for _ in 0..n {
                let grant = (end + arbitration).max(free_at);
                free_at = grant + cfg.mem_transfer;
                end = free_at;
            }
            end
        }
    };
    let outcome = FlushOutcome {
        lines: n as usize,
        duration: end.saturating_sub(now),
    };
    (outcome, stats, states)
}

/// Checks every protocol invariant for every address in the pool, and
/// that every verified line range holds only resident `Modified` lines.
fn check_invariants(mem: &CoherentMemory, pool: &[Addr], nodes: u16) -> Result<(), TestCaseError> {
    for &addr in pool {
        let line = addr.line();
        let dir = mem.dir_state(line);
        let mut m_or_e_holders = 0;
        for n in 0..nodes {
            let node = NodeId::new(n);
            let (l1, l2) = mem.probe_levels(node, line);
            // Inclusion: a valid L1 line implies a valid L2 line.
            if l1.is_valid() {
                prop_assert!(
                    l2.is_valid(),
                    "inclusion violated at {node} for {line}: L1={l1} L2={l2}"
                );
            }
            let held = l1.is_valid() || l2.is_valid();
            let state = if l1.is_valid() { l1 } else { l2 };
            match dir {
                DirState::Uncached => {
                    prop_assert!(!held, "{node} holds {line} but directory says Uncached");
                }
                DirState::Shared(s) => {
                    prop_assert_eq!(
                        held,
                        s.contains(node),
                        "sharer set mismatch at {} for {}",
                        node,
                        line
                    );
                    if held {
                        prop_assert_eq!(
                            state,
                            LineState::Shared,
                            "{} holds {} in {} under a Shared directory",
                            node,
                            line,
                            state
                        );
                    }
                }
                DirState::Exclusive(owner) => {
                    prop_assert_eq!(
                        held,
                        node == owner,
                        "exclusivity mismatch at {} for {}",
                        node,
                        line
                    );
                }
            }
            if held && state.can_write_silently() {
                m_or_e_holders += 1;
            }
        }
        prop_assert!(m_or_e_holders <= 1, "multiple M/E holders of {line}");
        if m_or_e_holders == 1 {
            prop_assert!(
                matches!(dir, DirState::Exclusive(_)),
                "M/E holder of {line} but directory says {dir}"
            );
        }
    }
    prop_assert!(
        mem.verified_is_exact(),
        "a verified line range holds a line that is not resident and Modified"
    );
    Ok(())
}

/// One op of the cache-level differential test; `line` indexes the
/// line universe.
#[derive(Debug, Clone)]
enum CacheOp {
    /// A run of `n` lines as the memory system writes it: `write_run`
    /// against per-line `write_access`, and each line a run stops at is
    /// then inserted `Modified` (the miss or upgrade), until all `n` are
    /// written.
    Run {
        line: usize,
        n: u32,
    },
    Write {
        line: usize,
    },
    Read {
        line: usize,
    },
    Insert {
        line: usize,
        state: LineState,
    },
    SetState {
        line: usize,
        state: LineState,
    },
    Invalidate {
        line: usize,
    },
    /// `defer_flush`: every dirty shared line counts as flushed.
    Flush,
}

/// Lines the differential test's ops name: three blocks of 16
/// consecutive lines, so runs cover verified fragments and set conflicts
/// are frequent in every geometry. A small universe matters: it makes
/// runs overlap earlier runs' stamps partially.
const UNIVERSE: usize = 48;

fn universe_line(cfg: &CacheConfig, i: usize) -> LineAddr {
    // Blocks `sets` lines apart (at least 16) share sets in Table 1's L1
    // and are contiguous in the small geometries.
    let stride = cfg.sets().max(16);
    let line = (i / 16) as u64 * stride + (i % 16) as u64;
    Addr::new(line * 64).line()
}

fn valid_state() -> impl Strategy<Value = LineState> {
    prop_oneof![
        Just(LineState::Shared),
        Just(LineState::Exclusive),
        Just(LineState::Modified),
    ]
}

fn cache_op() -> impl Strategy<Value = CacheOp> {
    let line = 0..UNIVERSE;
    prop_oneof![
        5 => (line.clone(), 1..=24u32).prop_map(|(line, n)| CacheOp::Run { line, n }),
        2 => line.clone().prop_map(|line| CacheOp::Write { line }),
        2 => line.clone().prop_map(|line| CacheOp::Read { line }),
        4 => (line.clone(), valid_state()).prop_map(|(line, state)| CacheOp::Insert { line, state }),
        1 => (line.clone(), valid_state())
            .prop_map(|(line, state)| CacheOp::SetState { line, state }),
        1 => line.prop_map(|line| CacheOp::Invalidate { line }),
        1 => Just(CacheOp::Flush),
    ]
}

/// The line `k` lines after `line`.
fn line_after(line: LineAddr, k: u32) -> LineAddr {
    Addr::new((line.as_u64() + k as u64) * 64).line()
}

/// What `write_run(first, n)` must return: per-line `write_access` from
/// `first`, stopping after the first line that is not silent.
fn write_run_by_lines(cache: &mut Cache, first: LineAddr, n: u32) -> (u32, LineState) {
    let mut before = LineState::Modified;
    for k in 0..n {
        before = cache.write_access(line_after(first, k));
        if !before.can_write_silently() {
            return (k + 1, before);
        }
    }
    (n, before)
}

/// Nodes of the run-level differential test.
const RUN_NODES: u16 = 4;
/// Longest run of the run-level differential test.
const LONG_RUN: u32 = 160;
/// Where its runs start, as (shared page, line in page): near page ends
/// and overlapping, so a run crosses up to three page (home) boundaries
/// and rewrites lines that other runs and remote accesses touched.
const RUN_STARTS: [(u64, u64); 4] = [(1, 63), (1, 50), (2, 60), (2, 33)];
/// Lines between a line and its conflict line: the same L1 and L2 set,
/// far above every run.
const CONFLICT: u64 = 1024 * 128;

/// One op of the run-level differential test; `line` indexes the lines
/// the runs cover.
#[derive(Debug, Clone)]
enum RunOp {
    Run {
        node: u16,
        start: usize,
        lines: u32,
    },
    Flush {
        node: u16,
    },
    Read {
        node: u16,
        line: usize,
    },
    Write {
        node: u16,
        line: usize,
    },
    /// `node` reads the conflict line of a run line, evicting one line of
    /// that set from its L1.
    Evict {
        node: u16,
        line: usize,
    },
}

fn run_op() -> impl Strategy<Value = RunOp> {
    // Node 0 writes, flushes and evicts most often, so its runs refill
    // the lines its flushes left behind; any node reads or writes them.
    let owner = || prop_oneof![3 => Just(0), 1 => 1..RUN_NODES];
    let line = 0..512usize;
    prop_oneof![
        6 => (owner(), 0..RUN_STARTS.len(), 1..=LONG_RUN)
            .prop_map(|(node, start, lines)| RunOp::Run { node, start, lines }),
        3 => owner().prop_map(|node| RunOp::Flush { node }),
        2 => (0..RUN_NODES, line.clone()).prop_map(|(node, line)| RunOp::Read { node, line }),
        1 => (0..RUN_NODES, line.clone()).prop_map(|(node, line)| RunOp::Write { node, line }),
        2 => (owner(), line).prop_map(|(node, line)| RunOp::Evict { node, line }),
    ]
}

/// The first line of each run start, and every line a run covers.
fn run_lines(mem: &CoherentMemory) -> (Vec<Addr>, Vec<Addr>) {
    let starts: Vec<Addr> = RUN_STARTS
        .iter()
        .map(|&(page, line)| mem.layout().shared_addr(page, line * 64))
        .collect();
    let mut lines: Vec<Addr> = starts
        .iter()
        .flat_map(|a| (0..LONG_RUN as u64).map(move |i| a.offset(i * 64)))
        .collect();
    lines.sort_unstable_by_key(|a| a.as_u64());
    lines.dedup();
    (starts, lines)
}

/// `lines` per-line writes by `node` from `base`, each issued at the
/// previous one's completion; returns the last completion.
fn write_by_lines(
    mem: &mut CoherentMemory,
    node: NodeId,
    base: Addr,
    lines: u32,
    t: Cycles,
) -> Cycles {
    (0..lines as u64).fold(t, |t, i| mem.write(node, base.offset(i * 64), t).completion)
}

/// Compares the two memories of the run-level test: counters, every
/// universe line's states at every node and in the directory, and the
/// verified ranges.
fn same_memories(
    runs: &CoherentMemory,
    lines: &CoherentMemory,
    universe: &[LineAddr],
    ctx: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(runs.stats(), lines.stats(), "{}", ctx);
    prop_assert_eq!(
        line_states(runs, universe),
        line_states(lines, universe),
        "{}",
        ctx
    );
    prop_assert!(
        runs.verified_is_exact() && lines.verified_is_exact(),
        "{}",
        ctx
    );
    prop_assert!(runs.dirty_index_is_exact(), "{}", ctx);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `write_line_run` is per-line `write` over long runs: on both
    /// interconnects, after every op the run's completion, every access
    /// and flush, the counters, every line's cache and directory states
    /// and the verified ranges agree. Flushes turn later runs into
    /// refills, which cross pages, meet lines a remote read shared or a
    /// conflict evicted from the L1, and meet lines a remote write took.
    /// A closing conflict sweep compares the LRU victims of both levels.
    #[test]
    fn write_line_run_matches_per_line_writes_over_refills(
        ops in proptest::collection::vec(run_op(), 1..48),
    ) {
        for (mut runs, mut lines) in both(RUN_NODES).into_iter().zip(both(RUN_NODES)) {
            let (starts, run_lines) = run_lines(&runs);
            let conflict = |a: Addr| a.offset(CONFLICT * 64);
            let mut universe: Vec<LineAddr> = run_lines
                .iter()
                .flat_map(|&a| [a.line(), conflict(a).line()])
                .collect();
            universe.sort_unstable();
            let cfg = runs.config().to_string();
            let mut t = Cycles::ZERO;
            for (step, op) in ops.iter().enumerate() {
                t += Cycles::from_nanos(150);
                let ctx = format!("{cfg}, op {step} {op:?}");
                match *op {
                    RunOp::Run { node, start, lines: n } => {
                        let node = NodeId::new(node);
                        let got = runs.write_line_run(node, starts[start], n, t);
                        let want = write_by_lines(&mut lines, node, starts[start], n, t);
                        prop_assert_eq!(got, want, "{}", ctx);
                        t = t.max(got);
                    }
                    RunOp::Flush { node } => {
                        let node = NodeId::new(node);
                        prop_assert_eq!(
                            runs.flush_dirty_shared(node, t),
                            lines.flush_dirty_shared(node, t),
                            "{}", ctx
                        );
                    }
                    RunOp::Read { node, line } | RunOp::Evict { node, line } => {
                        let mut addr = run_lines[line % run_lines.len()];
                        if matches!(op, RunOp::Evict { .. }) {
                            addr = conflict(addr);
                        }
                        let node = NodeId::new(node);
                        prop_assert_eq!(runs.read(node, addr, t), lines.read(node, addr, t), "{}", ctx);
                    }
                    RunOp::Write { node, line } => {
                        let addr = run_lines[line % run_lines.len()];
                        let node = NodeId::new(node);
                        prop_assert_eq!(runs.write(node, addr, t), lines.write(node, addr, t), "{}", ctx);
                    }
                }
                same_memories(&runs, &lines, &universe, &ctx)?;
            }
            // The conflict sweep: each node first reads one line per set,
            // which evicts the least recent of two lines from each full L1
            // set, then writes six more per set, which evicts the least
            // recent lines from each L2 set that holds three or more.
            let sweep = runs.layout().shared_addr(4096, 0);
            for n in 0..RUN_NODES {
                let node = NodeId::new(n);
                for i in 0..128u64 {
                    let addr = sweep.offset(i * 64);
                    prop_assert_eq!(runs.read(node, addr, t), lines.read(node, addr, t), "{}", cfg);
                }
                let ctx = format!("{cfg}, L1 sweep of {node}");
                same_memories(&runs, &lines, &universe, &ctx)?;
                let next = sweep.offset(128 * 64);
                let got = runs.write_line_run(node, next, 6 * 128, t);
                prop_assert_eq!(got, write_by_lines(&mut lines, node, next, 6 * 128, t), "{}", cfg);
                let ctx = format!("{cfg}, L2 sweep of {node}");
                same_memories(&runs, &lines, &universe, &ctx)?;
            }
        }
    }

    /// `write_run` is per-line `write_access`: on 2-way x 8 sets, 4-way x
    /// 4 sets and Table 1's L1, after any op sequence every return value,
    /// every `insert` victim and the resident lines of a cache that writes
    /// runs equal those of one that writes line by line.
    #[test]
    fn write_run_matches_per_line_write_access(
        ops in proptest::collection::vec(cache_op(), 1..240),
    ) {
        let geometries = [
            CacheConfig::new(2 * 8 * 64, 2),
            CacheConfig::new(4 * 4 * 64, 4),
            CacheConfig::table1_l1(),
        ];
        for cfg in geometries {
            let (mut runs, mut lines) = (Cache::new(cfg), Cache::new(cfg));
            let at = |i: usize| universe_line(&cfg, i);
            for (step, op) in ops.iter().enumerate() {
                let ctx = format!("{}-way x {} sets, op {step} {op:?}", cfg.associativity(), cfg.sets());
                match *op {
                    CacheOp::Run { line, n } => {
                        let (mut first, mut left) = (at(line), n);
                        while left > 0 {
                            let got = runs.write_run(first, left);
                            prop_assert_eq!(got, write_run_by_lines(&mut lines, first, left), "{}", ctx);
                            let (written, before) = got;
                            left -= written;
                            let stopped = line_after(first, written - 1);
                            if !before.can_write_silently() {
                                prop_assert_eq!(
                                    runs.insert(stopped, LineState::Modified),
                                    lines.insert(stopped, LineState::Modified),
                                    "{}", ctx
                                );
                            }
                            first = line_after(first, written);
                        }
                    }
                    CacheOp::Write { line } => prop_assert_eq!(
                        runs.write_access(at(line)),
                        lines.write_access(at(line)),
                        "{}", ctx
                    ),
                    CacheOp::Read { line } => prop_assert_eq!(
                        runs.access(at(line)),
                        lines.access(at(line)),
                        "{}", ctx
                    ),
                    CacheOp::Insert { line, state } => prop_assert_eq!(
                        runs.insert(at(line), state),
                        lines.insert(at(line), state),
                        "{}", ctx
                    ),
                    CacheOp::SetState { line, state } => prop_assert_eq!(
                        runs.set_state(at(line), state),
                        lines.set_state(at(line), state),
                        "{}", ctx
                    ),
                    CacheOp::Invalidate { line } => prop_assert_eq!(
                        runs.invalidate(at(line)),
                        lines.invalidate(at(line)),
                        "{}", ctx
                    ),
                    CacheOp::Flush => {
                        runs.defer_flush();
                        lines.defer_flush();
                    }
                }
                prop_assert_eq!(runs.resident_lines(), lines.resident_lines(), "{}", ctx);
                prop_assert!(runs.verified_is_exact(), "{}", ctx);
                prop_assert!(runs.dirty_index_is_exact(), "{}", ctx);
            }
        }
    }

    /// Directory and caches agree exactly after any operation sequence.
    #[test]
    fn coherence_invariants_hold(
        ops in proptest::collection::vec(op_strategy(8, 28), 1..120),
    ) {
        let nodes = 8u16;
        for mut mem in both(nodes) {
            let pool = addr_pool(&mem, nodes);
            let mut t = Cycles::ZERO;
            for op in &ops {
                t += Cycles::from_micros(1);
                apply(&mut mem, &pool, op, t);
                check_invariants(&mem, &pool, nodes)?;
                prop_assert!(
                    mem.dirty_index_is_exact(),
                    "a dirty-way index drifted from its ways after {:?}",
                    op
                );
            }
        }
    }

    /// The indexed one-pass flush is the collect/filter/sort/dedup flush:
    /// after every flush, its outcome, the memory counters, and every
    /// line's cache and directory states equal the reference model's.
    #[test]
    fn flush_matches_the_reference_flush(
        ops in proptest::collection::vec(op_strategy(8, 28), 1..160),
    ) {
        let nodes = 8u16;
        for mut mem in both(nodes) {
            let pool = addr_pool(&mem, nodes);
            let universe = line_universe(&pool);
            let mut t = Cycles::ZERO;
            for op in &ops {
                // Some ops share an instant, so flushes meet a busy bus.
                if !matches!(op, Op::Flush { .. }) {
                    t += Cycles::from_nanos(150);
                }
                let expected = match *op {
                    Op::Flush { node } => {
                        Some(reference_flush(&mem, NodeId::new(node), t, &universe))
                    }
                    _ => None,
                };
                let got = apply(&mut mem, &pool, op, t);
                if let (Some((outcome, stats, states)), Some(f)) = (expected, got) {
                    let cfg = mem.config().to_string();
                    prop_assert_eq!(f, outcome, "{}", cfg);
                    prop_assert_eq!(mem.stats(), &stats, "{}", cfg);
                    prop_assert_eq!(line_states(&mem, &universe), states, "{}", cfg);
                }
            }
        }
    }

    /// A write's invalidation fan-out exactly matches the prior sharers,
    /// and its completion is no earlier than any delivery.
    #[test]
    fn write_invalidates_exactly_the_sharers(
        readers in proptest::collection::btree_set(1u16..8, 0..7),
        writer in 0u16..1,
    ) {
        for mut mem in both(8) {
            let addr = mem.layout().shared_addr(0, 0);
            let mut t = Cycles::ZERO;
            for &r in &readers {
                t += Cycles::from_micros(1);
                mem.read(NodeId::new(r), addr, t);
            }
            let w = mem.write(NodeId::new(writer), addr, t + Cycles::from_micros(1));
            let mut invalidated: Vec<u16> =
                w.invalidations.iter().map(|i| i.node.as_u16()).collect();
            invalidated.sort_unstable();
            let expected: Vec<u16> = readers.iter().copied().collect();
            prop_assert_eq!(invalidated, expected);
            for inv in &w.invalidations {
                prop_assert!(w.completion >= inv.at || !readers.is_empty());
                prop_assert_eq!(
                    mem.cached_state(inv.node, addr.line()),
                    LineState::Invalid
                );
            }
            prop_assert_eq!(mem.dir_state(addr.line()), DirState::Exclusive(NodeId::new(writer)));
        }
    }

    /// Flushing leaves no dirty shared lines and never touches private
    /// dirty data; flushing twice is idempotent in line count.
    #[test]
    fn flush_clears_exactly_shared_dirty(
        shared_writes in proptest::collection::vec(0u64..16, 0..20),
        private_writes in 0u32..10,
    ) {
        for mut mem in both(4) {
            let node = NodeId::new(1);
            let mut t = Cycles::ZERO;
            let mut distinct = std::collections::HashSet::new();
            for &page in &shared_writes {
                t += Cycles::from_micros(1);
                let addr = mem.layout().shared_addr(page, 0);
                mem.write(node, addr, t);
                distinct.insert(addr.line());
            }
            for i in 0..private_writes {
                t += Cycles::from_micros(1);
                let addr = mem.layout().private_addr(node, 0, (i as u64) * 64);
                mem.write(node, addr, t);
            }
            // Capacity evictions may already have written some lines back
            // (the pool collides in cache sets on purpose); the flush handles
            // exactly the lines still dirty in the hierarchy.
            let still_dirty = distinct
                .iter()
                .filter(|&&l| mem.cached_state(node, l) == LineState::Modified)
                .count();
            let f1 = mem.flush_dirty_shared(node, t + Cycles::from_micros(1));
            prop_assert_eq!(f1.lines, still_dirty);
            let f2 = mem.flush_dirty_shared(node, t + Cycles::from_micros(2));
            prop_assert_eq!(f2.lines, 0, "second flush finds nothing dirty");
            // Private data stayed dirty.
            for i in 0..private_writes {
                let addr = mem.layout().private_addr(node, 0, (i as u64) * 64);
                prop_assert_eq!(mem.cached_state(node, addr.line()), LineState::Modified);
            }
        }
    }

    /// Access completion never precedes issue, and repeated reads of the
    /// same location from the same node eventually become L1 hits.
    #[test]
    fn latencies_are_causal_and_caches_warm(
        node in 0u16..8,
        page in 0u64..32,
    ) {
        let mut mem = CoherentMemory::directory(MachineConfig::table1_with_nodes(8));
        let addr = mem.layout().shared_addr(page, 0);
        let mut t = Cycles::from_micros(1);
        let first = mem.read(NodeId::new(node), addr, t);
        prop_assert!(first.completion > t);
        t = first.completion + Cycles::from_micros(1);
        let second = mem.read(NodeId::new(node), addr, t);
        prop_assert_eq!(second.class, AccessClass::L1Hit);
        prop_assert_eq!(second.latency(t), Cycles::from_nanos(2));
    }

    /// Bus broadcast: every invalidation of one write shares a single
    /// observation instant.
    #[test]
    fn bus_invalidations_are_broadcast(
        readers in proptest::collection::btree_set(1u16..8, 0..7),
    ) {
        let mut m = bus(8);
        let addr = m.layout().shared_addr(0, 0);
        let mut t = Cycles::ZERO;
        for &r in &readers {
            t += Cycles::from_micros(1);
            m.read(NodeId::new(r), addr, t);
        }
        let w = m.write(NodeId::new(0), addr, t + Cycles::from_micros(1));
        prop_assert_eq!(w.invalidations.len(), readers.len());
        if let Some(first) = w.invalidations.first() {
            prop_assert!(w.invalidations.iter().all(|i| i.at == first.at));
        }
    }

    /// Bus transactions never travel back in time, and back-to-back misses
    /// keep strictly increasing completion times (serialization).
    #[test]
    fn bus_serializes_misses(pages in proptest::collection::vec(0u64..32, 2..12)) {
        let mut m = bus(4);
        let mut last = Cycles::ZERO;
        for (i, &page) in pages.iter().enumerate() {
            let node = NodeId::new((i % 4) as u16);
            let addr = m.layout().shared_addr(page, 0);
            // All issued at time zero: the bus must serialize them.
            let r = m.read(node, addr, Cycles::ZERO);
            if r.class != AccessClass::L1Hit && r.class != AccessClass::L2Hit {
                prop_assert!(r.completion > last, "bus transaction overlap");
                last = r.completion;
            }
        }
    }
}
