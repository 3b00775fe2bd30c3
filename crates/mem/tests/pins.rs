//! Byte-identity pins for both interconnects: a fixed seeded sequence of
//! reads, writes, line runs and flushes on a 16-node machine, digested
//! with FNV-1a and compared to committed fixtures. Every `Access`,
//! `FlushOutcome` and run completion is serialized in issue order, followed
//! by the final `MemStats` and the wake-up fault log, so any change to a
//! timestamp, a class, an invalidation list or a counter moves the digest.
//!
//! The sequence mixes lines that collide in one cache set (forcing L1 and
//! L2 evictions and write-backs), ordinary shared lines, per-node private
//! lines, and bursts issued at the same instant (bus contention). Half the
//! ops come from two nodes, whose full L2 sets make the digests sensitive
//! to LRU order, such as whether an upgrade refreshes the line's recency.
//!
//! A second pair of pins replays barrier episodes: every node rewrites its
//! working set (runs long enough that the count and flag lines thrash
//! their L1 sets), checks in on one count line and reads the flag that
//! one releaser writes, and some rounds flush before the release.
//!
//! A third pair replays the post-flush refill on 64 nodes: every waiter
//! flushes in every round, so each of its rewrites upgrades the lines its
//! last flush left behind. The runs start mid-page and cross two to five
//! pages, so a refill changes home as it goes. Between rounds another node
//! reads a line in the middle of some flushed runs, so the refill meets a
//! line with a second sharer, and a conflicting read evicts a flushed line
//! from some owners' L1s, so the refill meets a line only the L2 holds.

use tb_mem::{Addr, CoherentMemory, InvalidationFaults, MachineConfig, NodeId};
use tb_sim::digest::fnv1a64_hex;
use tb_sim::{Cycles, SimRng};

const NODES: u16 = 16;
const OPS: usize = 4000;

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
}

/// Shared lines: twelve that map to one cache set (8 KiB stride) plus a
/// spread of ordinary lines over six pages.
fn shared_pool(mem: &CoherentMemory) -> Vec<Addr> {
    let mut pool: Vec<Addr> = (0..12u64)
        .map(|i| mem.layout().shared_addr(i * 2, 0))
        .collect();
    for page in 0..6u64 {
        for line in 0..4u64 {
            pool.push(mem.layout().shared_addr(page, (line * 3 + 1) * 64));
        }
    }
    pool
}

/// Runs the pinned sequence and returns its digest.
fn digest_run(mut mem: CoherentMemory) -> String {
    let mut rng = SimRng::new(0x7B41);
    let shared = shared_pool(&mem);
    let mut faults = InvalidationFaults::new(0xFA17, 0.25, 0.25, 300.0);
    faults.watch(shared[0].line());
    mem.set_faults(faults);
    let mut out = String::new();
    let mut t = Cycles::ZERO;
    for _ in 0..OPS {
        // One op in four issues at the same instant as the previous one.
        if rng.below(4) != 0 {
            t += Cycles::from_nanos(rng.below(400));
        }
        // Half the ops come from two nodes only, so their L2 sets fill and
        // eviction order (LRU) decides later hits and misses.
        let active = if rng.chance(0.5) { 2 } else { NODES as u64 };
        let node = NodeId::new(rng.below(active) as u16);
        let addr = if rng.chance(0.2) {
            let page = rng.below(12) * 2;
            mem.layout().private_addr(node, page, rng.below(2) * 64)
        } else {
            shared[rng.below(shared.len() as u64) as usize]
        };
        match rng.below(20) {
            0..=8 => out.push_str(&serde::json::to_string(&mem.read(node, addr, t))),
            9..=16 => out.push_str(&serde::json::to_string(&mem.write(node, addr, t))),
            17..=18 => {
                let lines = 1 + rng.below(48) as u32;
                let end = mem.write_line_run(node, addr, lines, t);
                out.push_str(&serde::json::to_string(&end));
            }
            _ => {
                let f = mem.flush_dirty_shared(node, t);
                out.push_str(&serde::json::to_string(&f));
            }
        }
        out.push('\n');
    }
    out.push_str(&serde::json::to_string(mem.stats()));
    out.push('\n');
    out.push_str(&format!("{:?}", mem.drain_fault_log()));
    fnv1a64_hex(out.as_bytes())
}

/// Working-set sizes, in lines, that an episode's rewrite draws from.
const RUN_LINES: [u32; 7] = [32, 48, 64, 96, 128, 192, 256];
const ROUNDS: usize = 24;

/// Runs barrier-episode rounds and returns their digest. Each node's
/// working set starts at its own fixed base (its first line maps to L1 set
/// 0), the count line to set 0 and the flag line to set 64, as in the
/// simulator's layout, so rewrites of more than 64 or 128 lines compete
/// with them for the 2-way L1 sets.
fn episode_digest(mut mem: CoherentMemory) -> String {
    let mut rng = SimRng::new(0xE915);
    let count = mem.layout().shared_addr(2, 0);
    let flag = mem.layout().shared_addr(3, 0);
    let bases: Vec<Addr> = (0..NODES as u64)
        .map(|n| mem.layout().shared_addr(64 + n * 8, 0))
        .collect();
    let mut out = String::new();
    let mut t = Cycles::ZERO;
    for _ in 0..ROUNDS {
        let releaser = NodeId::new(rng.below(NODES as u64) as u16);
        // A flush round: every waiter flushes before it sleeps.
        let flush = rng.chance(0.3);
        let mut lock_free = t;
        let mut last = t;
        for n in 0..NODES {
            let node = NodeId::new(n);
            let lines = RUN_LINES[rng.below(RUN_LINES.len() as u64) as usize];
            let start = t + Cycles::from_nanos(rng.below(2000));
            let end = mem.write_line_run(node, bases[n as usize], lines, start);
            out.push_str(&serde::json::to_string(&end));
            let checkin = mem.write(node, count, end.max(lock_free));
            lock_free = checkin.completion + Cycles::from_nanos(10);
            last = last.max(checkin.completion);
            out.push_str(&serde::json::to_string(&checkin));
            if node != releaser {
                let spin = mem.read(node, flag, checkin.completion);
                out.push_str(&serde::json::to_string(&spin));
                if flush {
                    let f = mem.flush_dirty_shared(node, spin.completion);
                    out.push_str(&serde::json::to_string(&f));
                }
            }
            out.push('\n');
        }
        let release = mem.write(releaser, flag, last);
        out.push_str(&serde::json::to_string(&release));
        for n in (0..NODES).map(NodeId::new).filter(|&n| n != releaser) {
            let wake = mem.read(n, flag, release.completion);
            out.push_str(&serde::json::to_string(&wake));
        }
        out.push('\n');
        t = release.completion + Cycles::from_micros(1);
    }
    out.push_str(&serde::json::to_string(mem.stats()));
    fnv1a64_hex(out.as_bytes())
}

const REFILL_NODES: u16 = 64;
const REFILL_ROUNDS: usize = 12;
/// Lines between two lines that share an L1 and an L2 set: a multiple of
/// both levels' 128 sets, and far above every working set.
const CONFLICT_STRIDE: u64 = 1024 * 64;

/// Runs refill rounds on 64 nodes and returns their digest. Each node's
/// working set starts at a fixed mid-page offset; the run lengths range
/// from 96 to 256 lines.
fn refill_digest(mut mem: CoherentMemory) -> String {
    let mut rng = SimRng::new(0x5EF1);
    let count = mem.layout().shared_addr(2, 0);
    let flag = mem.layout().shared_addr(3, 0);
    let bases: Vec<Addr> = (0..REFILL_NODES as u64)
        .map(|n| {
            mem.layout()
                .shared_addr(64 + n * 8, (1 + rng.below(63)) * 64)
        })
        .collect();
    let pick = |rng: &mut SimRng| NodeId::new(rng.below(REFILL_NODES as u64) as u16);
    let mut out = String::new();
    let mut t = Cycles::ZERO;
    for round in 0..REFILL_ROUNDS {
        let releaser = pick(&mut rng);
        let mut lock_free = t;
        let mut last = t;
        for n in 0..REFILL_NODES {
            let node = NodeId::new(n);
            let lines = 96 + rng.below(161) as u32;
            let start = t + Cycles::from_nanos(rng.below(2000));
            let end = mem.write_line_run(node, bases[n as usize], lines, start);
            out.push_str(&serde::json::to_string(&end));
            let checkin = mem.write(node, count, end.max(lock_free));
            lock_free = checkin.completion + Cycles::from_nanos(10);
            last = last.max(checkin.completion);
            out.push_str(&serde::json::to_string(&checkin));
            if node != releaser {
                let spin = mem.read(node, flag, checkin.completion);
                let f = mem.flush_dirty_shared(node, spin.completion);
                out.push_str(&serde::json::to_string(&spin));
                out.push_str(&serde::json::to_string(&f));
            }
            out.push('\n');
        }
        // Two rounds in three disturb some flushed runs before their
        // refill: a remote read adds a sharer to a line in the middle of
        // a run, and a conflicting read evicts a line from its owner's L1.
        if round % 3 != 2 {
            for _ in 0..8 {
                let owner = pick(&mut rng);
                let mid = bases[owner.index()].offset(rng.below(96) * 64);
                let reader = pick(&mut rng);
                if reader != owner {
                    let r = mem.read(reader, mid, last);
                    out.push_str(&serde::json::to_string(&r));
                }
                let mid = bases[owner.index()].offset(rng.below(96) * 64);
                let r = mem.read(owner, mid.offset(CONFLICT_STRIDE * 64), last);
                out.push_str(&serde::json::to_string(&r));
            }
            out.push('\n');
        }
        let release = mem.write(releaser, flag, last);
        out.push_str(&serde::json::to_string(&release));
        for n in (0..REFILL_NODES)
            .map(NodeId::new)
            .filter(|&n| n != releaser)
        {
            let wake = mem.read(n, flag, release.completion);
            out.push_str(&serde::json::to_string(&wake));
        }
        out.push('\n');
        t = release.completion + Cycles::from_micros(1);
    }
    out.push_str(&serde::json::to_string(mem.stats()));
    fnv1a64_hex(out.as_bytes())
}

#[test]
fn directory_n64_refills_match_fixture() {
    let got = refill_digest(CoherentMemory::directory(MachineConfig::table1()));
    assert_eq!(
        got,
        fixture("directory_n64_refills.digest").trim(),
        "directory refills drifted from tests/golden/directory_n64_refills.digest"
    );
}

#[test]
fn bus_n64_refills_match_fixture() {
    let got = refill_digest(CoherentMemory::directory(MachineConfig::bus_smp(
        REFILL_NODES,
    )));
    assert_eq!(
        got,
        fixture("bus_n64_refills.digest").trim(),
        "bus refills drifted from tests/golden/bus_n64_refills.digest"
    );
}

#[test]
fn directory_n16_episodes_match_fixture() {
    let got = episode_digest(CoherentMemory::directory(MachineConfig::table1_with_nodes(
        NODES,
    )));
    assert_eq!(
        got,
        fixture("directory_n16_episodes.digest").trim(),
        "directory episodes drifted from tests/golden/directory_n16_episodes.digest"
    );
}

#[test]
fn bus_n16_episodes_match_fixture() {
    let got = episode_digest(CoherentMemory::directory(MachineConfig::bus_smp(NODES)));
    assert_eq!(
        got,
        fixture("bus_n16_episodes.digest").trim(),
        "bus episodes drifted from tests/golden/bus_n16_episodes.digest"
    );
}

#[test]
fn directory_n16_sequence_matches_fixture() {
    let got = digest_run(CoherentMemory::directory(MachineConfig::table1_with_nodes(
        NODES,
    )));
    assert_eq!(
        got,
        fixture("directory_n16.digest").trim(),
        "directory access stream drifted from tests/golden/directory_n16.digest"
    );
}

#[test]
fn bus_n16_sequence_matches_fixture() {
    let got = digest_run(CoherentMemory::directory(MachineConfig::bus_smp(NODES)));
    assert_eq!(
        got,
        fixture("bus_n16.digest").trim(),
        "bus access stream drifted from tests/golden/bus_n16.digest"
    );
}
