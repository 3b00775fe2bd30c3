//! Set-associative write-back caches with LRU replacement.
//!
//! Table 1 of the paper: 16 kB 2-way L1 and 64 kB 8-way L2, both with 64 B
//! lines. The caches are deliberately small "to capture the behavior that
//! real-sized input data would exhibit on an actual machine with larger
//! caches", following the SPLASH-2 methodology the paper cites.
//!
//! The cache stores coherence state only — the machine layer tracks logical
//! values (such as the barrier flag's sense) separately, so no data payload
//! is simulated. A dirty-way index (one bit per way, set exactly while the
//! way holds a `Modified` line) lets [`Cache::clean_dirty`] visit only the
//! lines a CPU must flush before entering a non-snoopable sleep state.
//!
//! # Layout
//!
//! The ways are stored as one flat `Vec<Way>` of length `sets × assoc`,
//! with set `s` occupying the contiguous slice
//! `[s * assoc, (s + 1) * assoc)`. Empty slots are marked
//! [`LineState::Invalid`] in place, so a lookup is a short inline scan over
//! at most `assoc` contiguous entries — no per-set `Vec` headers, no
//! pointer chase, no allocation after construction. The set count is a
//! power of two (asserted by [`CacheConfig::new`]), so the set index is a
//! bit-mask rather than a division. Every method that changes a slot's
//! state also keeps that slot's dirty-way bit current.
//!
//! # Silent runs
//!
//! The compute phase's working-set rewrite ([`Cache::write_run`]) is, in
//! steady state, one silent write after another. The cache keeps a few
//! disjoint *verified* line ranges, each known to be resident and
//! `Modified`: the per-line loop records every silent streak as one, the
//! memory system records each post-flush refill as one, and the methods
//! that can end that guarantee (`insert`, `set_state`, `invalidate`,
//! `clean_dirty`) split or clear the range they touch. A run fragment a
//! verified range covers is written as one *stamp* `(first, len, tick0)`:
//! line `first + j` was used at tick `tick0 + 1 + j`, exactly what `len`
//! calls of [`Cache::write_access`] would have stored. A way's recency is
//! the larger of its own `last_used` and the tick of the newest stamp
//! covering its line; every later use stores a larger tick, so that
//! maximum is the recency per-line writes would have left. Both lists are
//! bounded and start empty, so a cache that never sees a run (every L2)
//! allocates nothing.

use crate::addr::{Addr, LineAddr, LINE_BYTES};
use crate::mesi::LineState;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    size_bytes: u64,
    associativity: u32,
}

impl CacheConfig {
    /// Creates a configuration.
    ///
    /// # Panics
    ///
    /// Panics unless the size is a positive multiple of
    /// `associativity * 64 B` and the resulting set count is a power of two.
    pub fn new(size_bytes: u64, associativity: u32) -> Self {
        assert!(associativity > 0, "associativity must be positive");
        assert!(
            size_bytes > 0 && size_bytes.is_multiple_of(LINE_BYTES * associativity as u64),
            "cache size must be a positive multiple of associativity * line size"
        );
        let sets = size_bytes / (LINE_BYTES * associativity as u64);
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheConfig {
            size_bytes,
            associativity,
        }
    }

    /// Table 1 L1: 16 kB, 2-way, 64 B lines.
    pub fn table1_l1() -> Self {
        CacheConfig::new(16 * 1024, 2)
    }

    /// Table 1 L2: 64 kB, 8-way, 64 B lines.
    pub fn table1_l2() -> Self {
        CacheConfig::new(64 * 1024, 8)
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Ways per set.
    pub fn associativity(&self) -> u32 {
        self.associativity
    }

    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size_bytes / (LINE_BYTES * self.associativity as u64)
    }
}

/// One slot of the flat way array. `state == Invalid` marks an empty slot;
/// `line`/`last_used` are meaningless then.
#[derive(Debug, Clone)]
struct Way {
    line: LineAddr,
    state: LineState,
    last_used: u64,
}

impl Way {
    fn empty() -> Self {
        Way {
            line: Addr::new(0).line(),
            state: LineState::Invalid,
            last_used: 0,
        }
    }

    fn holds(&self, line: LineAddr) -> bool {
        self.state.is_valid() && self.line == line
    }
}

/// Most verified line ranges a cache keeps; recording one more drops the
/// oldest.
const MAX_VERIFIED: usize = 8;
/// Most stamps a cache keeps; adding one more folds the oldest into its
/// ways.
const MAX_STAMPS: usize = 8;

/// The silent writes of a verified run fragment, recorded in one step:
/// line `first + j` was used at tick `tick0 + 1 + j` for `j < len`.
#[derive(Debug, Clone, Copy)]
struct Stamp {
    first: LineAddr,
    len: u64,
    tick0: u64,
}

impl Stamp {
    /// The tick this stamp gave `line`, if it covers it.
    #[inline]
    fn tick_of(&self, line: LineAddr) -> Option<u64> {
        let j = line.as_u64().wrapping_sub(self.first.as_u64());
        (j < self.len).then(|| self.tick0 + 1 + j)
    }

    /// `true` when every line of `other` is one of this stamp's lines.
    fn covers(&self, other: &Stamp) -> bool {
        let (first, other_first) = (self.first.as_u64(), other.first.as_u64());
        first <= other_first && other_first + other.len <= first + self.len
    }
}

/// A single cache level.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets × assoc` slots; set `s` is the slice `[s*assoc, (s+1)*assoc)`.
    ways: Vec<Way>,
    /// `sets - 1`: power-of-two set count makes the index a mask.
    set_mask: u64,
    assoc: usize,
    /// Valid (non-`Invalid`) slots, kept incrementally so `len()` is O(1).
    valid: usize,
    /// Bit `i` is set exactly when `ways[i]` holds a `Modified` line.
    dirty: Vec<u64>,
    tick: u64,
    /// Disjoint half-open line ranges `[start, end)` whose every line is
    /// resident and `Modified`; the front one is dropped first when full.
    verified: Vec<(u64, u64)>,
    /// Run stamps, oldest first; a way's recency is the larger of its
    /// `last_used` and its line's newest stamp tick.
    stamps: Vec<Stamp>,
}

/// A line pushed out of the cache by [`Cache::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evicted {
    /// The displaced line.
    pub line: LineAddr,
    /// Its state at eviction; `Modified` means a write-back is required.
    pub state: LineState,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let assoc = config.associativity as usize;
        Cache {
            config,
            ways: vec![Way::empty(); sets as usize * assoc],
            set_mask: sets - 1,
            assoc,
            valid: 0,
            dirty: vec![0; (sets as usize * assoc).div_ceil(64)],
            tick: 0,
            verified: Vec::new(),
            stamps: Vec::new(),
        }
    }

    /// The cache's geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// First slot of `line`'s set in the flat way array.
    fn set_base(&self, line: LineAddr) -> usize {
        // Mix the high bits in so private-region lines (which share high
        // tag bits) spread across sets. Set count is a power of two, so
        // the modulo is a mask.
        let raw = line.as_u64();
        let mixed = raw ^ (raw >> 32);
        (mixed & self.set_mask) as usize * self.assoc
    }

    /// `line`'s set: its first slot and its ways.
    fn set_mut(&mut self, line: LineAddr) -> (usize, &mut [Way]) {
        let base = self.set_base(line);
        (base, &mut self.ways[base..base + self.assoc])
    }

    /// Keeps slot `i`'s dirty-way bit current as its state goes from
    /// `from` to `to`: the bit flips only when dirtiness changes.
    #[inline]
    fn mark(dirty: &mut [u64], i: usize, from: LineState, to: LineState) {
        if from.is_dirty() != to.is_dirty() {
            dirty[i / 64] ^= 1u64 << (i % 64);
        }
    }

    /// The state of `line`, updating LRU recency. `Invalid` if absent.
    pub fn access(&mut self, line: LineAddr) -> LineState {
        self.tick += 1;
        let tick = self.tick;
        let (_, set) = self.set_mut(line);
        for way in set {
            if way.holds(line) {
                way.last_used = tick;
                return way.state;
            }
        }
        LineState::Invalid
    }

    /// One-scan write probe: behaves like [`Cache::access`] (LRU bump,
    /// tick advance) and *additionally* performs the silent-write upgrade
    /// in the same pass when the line is writable without coherence
    /// (`Modified`/`Exclusive` — see [`LineState::can_write_silently`]).
    ///
    /// Returns the state **before** the upgrade, so the caller's decision
    /// logic is unchanged: `can_write_silently()` on the returned state
    /// means the write has already been applied. Equivalent to
    /// `access(line)` followed by `set_state(line, Modified)` on the
    /// silent path — one tag scan instead of two.
    #[inline]
    pub fn write_access(&mut self, line: LineAddr) -> LineState {
        self.tick += 1;
        let tick = self.tick;
        let (_, set) = self.set_mut(line);
        let Some(way) = set.iter_mut().find(|w| w.holds(line)) else {
            return LineState::Invalid;
        };
        way.last_used = tick;
        let before = way.state;
        // A Modified line is already marked dirty, so only E -> M changes
        // the index; keeping that rare case off the hit path keeps the
        // scan free of slot arithmetic.
        if before == LineState::Exclusive {
            self.dirty_exclusive(line);
        }
        before
    }

    /// The E -> M half of a silent write.
    #[cold]
    #[inline(never)]
    fn dirty_exclusive(&mut self, line: LineAddr) {
        self.set_state(line, LineState::Modified);
    }

    /// The write of a line whose upgrade needs no invalidation: when
    /// `line` is resident and `Shared`, bumps its recency exactly as
    /// [`Cache::write_access`] does and makes it `Modified` in the same
    /// scan. Returns `false`, with the cache and its tick untouched, when
    /// `line` is absent or in any other state.
    #[inline]
    pub(crate) fn claim_shared(&mut self, line: LineAddr) -> bool {
        let base = self.set_base(line);
        let set = &mut self.ways[base..base + self.assoc];
        let Some(i) = set
            .iter()
            .position(|w| w.line == line && w.state == LineState::Shared)
        else {
            return false;
        };
        self.tick += 1;
        set[i].last_used = self.tick;
        set[i].state = LineState::Modified;
        Self::mark(
            &mut self.dirty,
            base + i,
            LineState::Shared,
            LineState::Modified,
        );
        true
    }

    /// Writes the `n` consecutive lines from `first` until one is not
    /// silent: the same as calling [`Cache::write_access`] on each line in
    /// turn and stopping after the first whose returned state cannot be
    /// written silently. Returns how many lines were written (the
    /// non-silent one included) and the state the last of them had before
    /// its write, so the caller finishes a non-silent line itself.
    ///
    /// A fragment a verified range covers costs one stamp; other lines
    /// take the per-line probe, and each silent streak it finds is
    /// recorded as a verified range.
    pub fn write_run(&mut self, first: LineAddr, n: u32) -> (u32, LineState) {
        let end = first.as_u64() + n as u64;
        let mut line = first;
        let mut before = LineState::Modified;
        while line.as_u64() < end {
            let stop = match self.verified_at(line) {
                Ok(covered) => {
                    let len = covered.min(end) - line.as_u64();
                    self.stamp(line, len);
                    line = line.offset(len);
                    before = LineState::Modified;
                    continue;
                }
                Err(next) => next.min(end),
            };
            let streak = line.as_u64();
            while line.as_u64() < stop {
                before = self.write_access(line);
                if !before.can_write_silently() {
                    self.record_verified(streak, line.as_u64());
                    return ((line.as_u64() + 1 - first.as_u64()) as u32, before);
                }
                line = line.offset(1);
            }
            self.record_verified(streak, stop);
        }
        (n, before)
    }

    /// `Ok(end)` when a verified range `[_, end)` holds `line`, otherwise
    /// `Err(start)` of the next verified range above it (`u64::MAX` if
    /// none).
    #[inline]
    fn verified_at(&self, line: LineAddr) -> Result<u64, u64> {
        let line = line.as_u64();
        let mut next = u64::MAX;
        for &(start, end) in &self.verified {
            if line < start {
                next = next.min(start);
            } else if line < end {
                return Ok(end);
            }
        }
        Err(next)
    }

    /// Records `[start, end)`, just written (silently, or by a refill)
    /// and disjoint from every verified range, as verified, merged with
    /// any range it abuts.
    pub(crate) fn record_verified(&mut self, mut start: u64, mut end: u64) {
        if start == end {
            return;
        }
        self.verified.retain(|&(s, e)| {
            if e == start {
                start = s;
            } else if s == end {
                end = e;
            } else {
                return true;
            }
            false
        });
        if self.verified.len() == MAX_VERIFIED {
            self.verified.remove(0);
        }
        self.verified.push((start, end));
    }

    /// Takes `line` out of the verified range holding it, if any: it is
    /// about to stop being resident or `Modified`.
    fn unverify(&mut self, line: LineAddr) {
        let line = line.as_u64();
        let Some(i) = self
            .verified
            .iter()
            .position(|&(s, e)| s <= line && line < e)
        else {
            return;
        };
        let (start, end) = self.verified.remove(i);
        for piece in [(start, line), (line + 1, end)] {
            if piece.0 < piece.1 && self.verified.len() < MAX_VERIFIED {
                self.verified.push(piece);
            }
        }
    }

    /// Writes the `len` verified lines from `first` as one stamp. The new
    /// stamp's ticks exceed every older one's, so it drops the stamps it
    /// covers; when the list is full, the oldest is folded into its ways.
    fn stamp(&mut self, first: LineAddr, len: u64) {
        let stamp = Stamp {
            first,
            len,
            tick0: self.tick,
        };
        self.tick += len;
        self.stamps.retain(|old| !stamp.covers(old));
        if self.stamps.len() == MAX_STAMPS {
            let oldest = self.stamps.remove(0);
            self.fold(oldest);
        }
        self.stamps.push(stamp);
    }

    /// Moves `stamp`'s ticks into the `last_used` of each of its lines
    /// that is still resident.
    fn fold(&mut self, stamp: Stamp) {
        for j in 0..stamp.len {
            let line = stamp.first.offset(j);
            let (_, set) = self.set_mut(line);
            if let Some(way) = set.iter_mut().find(|w| w.holds(line)) {
                way.last_used = way.last_used.max(stamp.tick0 + 1 + j);
            }
        }
    }

    /// The tick the newest stamp covering `line` gave it, 0 if none.
    #[inline]
    fn stamp_tick(stamps: &[Stamp], line: LineAddr) -> u64 {
        stamps
            .iter()
            .rev()
            .find_map(|s| s.tick_of(line))
            .unwrap_or(0)
    }

    /// The state of `line` without touching LRU state (a coherence probe).
    pub fn probe(&self, line: LineAddr) -> LineState {
        let base = self.set_base(line);
        self.ways[base..base + self.assoc]
            .iter()
            .find(|w| w.holds(line))
            .map(|w| w.state)
            .unwrap_or(LineState::Invalid)
    }

    /// Inserts (or updates) `line` with `state`, evicting the LRU way if
    /// the set is full. Returns the evicted line, if any.
    ///
    /// # Panics
    ///
    /// Panics if `state` is `Invalid` — use [`Cache::invalidate`] instead.
    pub fn insert(&mut self, line: LineAddr, state: LineState) -> Option<Evicted> {
        assert!(state.is_valid(), "cannot insert a line in Invalid state");
        self.tick += 1;
        let tick = self.tick;
        let base = self.set_base(line);
        let set = &mut self.ways[base..base + self.assoc];
        let stamps = &self.stamps;
        let mut free: Option<usize> = None;
        let mut victim_idx = 0;
        let mut victim_used = u64::MAX;
        for (i, way) in set.iter_mut().enumerate() {
            if way.holds(line) {
                let from = std::mem::replace(&mut way.state, state);
                way.last_used = tick;
                Self::mark(&mut self.dirty, base + i, from, state);
                if !state.is_dirty() {
                    self.unverify(line);
                }
                return None;
            }
            if !way.state.is_valid() {
                if free.is_none() {
                    free = Some(i);
                }
                continue;
            }
            let used = match stamps.last() {
                // The newest stamp's ticks are the largest of any stamp.
                Some(newest) if way.last_used < newest.tick0 + newest.len => {
                    way.last_used.max(Self::stamp_tick(stamps, way.line))
                }
                _ => way.last_used,
            };
            // Recency ticks are unique (tick advances on every access,
            // insert and stamped line), so the LRU victim is unambiguous.
            if used < victim_used {
                victim_used = used;
                victim_idx = i;
            }
        }
        let fresh = Way {
            line,
            state,
            last_used: tick,
        };
        let i = free.unwrap_or(victim_idx);
        let old = std::mem::replace(&mut set[i], fresh);
        Self::mark(&mut self.dirty, base + i, old.state, state);
        if free.is_some() {
            self.valid += 1;
            return None;
        }
        self.unverify(old.line);
        Some(Evicted {
            line: old.line,
            state: old.state,
        })
    }

    /// Changes the state of a resident line in place; returns `false` if
    /// the line is absent.
    #[inline]
    pub fn set_state(&mut self, line: LineAddr, state: LineState) -> bool {
        assert!(state.is_valid(), "use invalidate to drop a line");
        let (base, set) = self.set_mut(line);
        let Some(i) = set.iter().position(|w| w.holds(line)) else {
            return false;
        };
        let from = std::mem::replace(&mut set[i].state, state);
        Self::mark(&mut self.dirty, base + i, from, state);
        if !state.is_dirty() {
            self.unverify(line);
        }
        true
    }

    /// Removes `line`; returns its prior state if it was present.
    #[inline]
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineState> {
        let (base, set) = self.set_mut(line);
        let i = set.iter().position(|w| w.holds(line))?;
        let prior = std::mem::replace(&mut set[i].state, LineState::Invalid);
        Self::mark(&mut self.dirty, base + i, prior, LineState::Invalid);
        self.valid -= 1;
        self.unverify(line);
        Some(prior)
    }

    /// Downgrades to `Shared` every `Modified` line for which `flush`
    /// returns `true`, visiting only the ways the dirty index marks — the
    /// deep-sleep flush. Lines `flush` declines stay `Modified`. LRU state
    /// is untouched, and visiting order is slot order.
    pub fn clean_dirty(&mut self, mut flush: impl FnMut(LineAddr) -> bool) {
        for word in 0..self.dirty.len() {
            let mut bits = self.dirty[word];
            while bits != 0 {
                let bit = bits & bits.wrapping_neg();
                bits ^= bit;
                let way = &mut self.ways[word * 64 + bit.trailing_zeros() as usize];
                if flush(way.line) {
                    way.state = LineState::Shared;
                    self.dirty[word] ^= bit;
                    self.verified.clear();
                }
            }
        }
    }

    /// `true` when the dirty-way index marks exactly the `Modified` ways —
    /// for invariant checks.
    pub fn dirty_index_is_exact(&self) -> bool {
        self.ways
            .iter()
            .enumerate()
            .all(|(i, w)| w.state.is_dirty() == (self.dirty[i / 64] >> (i % 64) & 1 == 1))
    }

    /// `true` when every line of every verified range is resident and
    /// `Modified`, and the ranges are disjoint — for invariant checks.
    pub fn verified_is_exact(&self) -> bool {
        let mut ranges = self.verified.clone();
        ranges.sort_unstable();
        ranges.windows(2).all(|w| w[0].1 <= w[1].0)
            && ranges.iter().all(|&(start, end)| {
                start < end
                    && (start..end).all(|l| {
                        self.probe(Addr::new(l * LINE_BYTES).line()) == LineState::Modified
                    })
            })
    }

    /// All valid lines, sorted, for invariant checks.
    pub fn resident_lines(&self) -> Vec<(LineAddr, LineState)> {
        let mut out: Vec<_> = self
            .ways
            .iter()
            .filter(|w| w.state.is_valid())
            .map(|w| (w.line, w.state))
            .collect();
        out.sort_unstable_by_key(|(l, _)| *l);
        out
    }

    /// Number of valid lines resident.
    pub fn len(&self) -> usize {
        self.valid
    }

    /// `true` when the cache holds no lines.
    pub fn is_empty(&self) -> bool {
        self.valid == 0
    }
}

impl fmt::Display for Cache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let dirty: u32 = self.dirty.iter().map(|w| w.count_ones()).sum();
        write!(
            f,
            "{}B {}-way: {} lines resident ({} dirty)",
            self.config.size_bytes,
            self.config.associativity,
            self.len(),
            dirty
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Addr;

    fn line(n: u64) -> LineAddr {
        Addr::new(n * LINE_BYTES).line()
    }

    #[test]
    fn table1_geometries() {
        let l1 = CacheConfig::table1_l1();
        assert_eq!(l1.sets(), 128);
        assert_eq!(l1.associativity(), 2);
        let l2 = CacheConfig::table1_l2();
        assert_eq!(l2.sets(), 128);
        assert_eq!(l2.associativity(), 8);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(CacheConfig::table1_l1());
        assert_eq!(c.access(line(1)), LineState::Invalid);
        assert!(c.insert(line(1), LineState::Shared).is_none());
        assert_eq!(c.access(line(1)), LineState::Shared);
        assert_eq!(c.probe(line(1)), LineState::Shared);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 2-way: fill a set with lines A and B, touch A, insert C in the
        // same set: B must be the victim.
        let cfg = CacheConfig::new(2 * 64 * 2, 2); // 2 sets, 2-way
        let mut c = Cache::new(cfg);
        let sets = cfg.sets();
        // Lines mapping to set 0 under the mixed index: choose multiples of sets.
        let a = line(0);
        let b = line(sets);
        let x = line(2 * sets);
        c.insert(a, LineState::Shared);
        c.insert(b, LineState::Shared);
        c.access(a); // make B the LRU
        let ev = c.insert(x, LineState::Shared).expect("set was full");
        assert_eq!(ev.line, b);
        assert_eq!(c.probe(a), LineState::Shared);
        assert_eq!(c.probe(b), LineState::Invalid);
    }

    #[test]
    fn dirty_eviction_reports_modified() {
        let cfg = CacheConfig::new(64 * 2, 2); // 1 set, 2-way
        let mut c = Cache::new(cfg);
        c.insert(line(0), LineState::Modified);
        c.insert(line(1), LineState::Shared);
        let ev = c.insert(line(2), LineState::Exclusive).unwrap();
        assert_eq!(ev.line, line(0));
        assert!(ev.state.is_dirty());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = Cache::new(CacheConfig::table1_l1());
        c.insert(line(9), LineState::Exclusive);
        assert!(c.insert(line(9), LineState::Modified).is_none());
        assert_eq!(c.len(), 1);
        assert_eq!(c.probe(line(9)), LineState::Modified);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = Cache::new(CacheConfig::table1_l1());
        c.insert(line(4), LineState::Shared);
        assert_eq!(c.invalidate(line(4)), Some(LineState::Shared));
        assert_eq!(c.invalidate(line(4)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn set_state_transitions() {
        let mut c = Cache::new(CacheConfig::table1_l1());
        c.insert(line(7), LineState::Exclusive);
        assert!(c.set_state(line(7), LineState::Modified));
        assert_eq!(c.probe(line(7)), LineState::Modified);
        assert!(!c.set_state(line(8), LineState::Shared));
    }

    /// The lines `clean_dirty` visits, declining every one.
    fn visited_dirty(c: &mut Cache) -> Vec<LineAddr> {
        let mut out = Vec::new();
        c.clean_dirty(|l| {
            out.push(l);
            false
        });
        out.sort_unstable();
        out
    }

    #[test]
    fn clean_dirty_visits_modified_only() {
        let mut c = Cache::new(CacheConfig::table1_l2());
        c.insert(line(1), LineState::Modified);
        c.insert(line(2), LineState::Shared);
        c.insert(line(3), LineState::Modified);
        assert_eq!(visited_dirty(&mut c), vec![line(1), line(3)]);
        assert_eq!(
            c.probe(line(1)),
            LineState::Modified,
            "declined lines stay dirty"
        );
        c.clean_dirty(|l| l == line(3));
        assert_eq!(c.probe(line(3)), LineState::Shared);
        assert_eq!(visited_dirty(&mut c), vec![line(1)]);
        assert!(c.dirty_index_is_exact());
    }

    #[test]
    fn dirty_index_follows_every_state_change() {
        let cfg = CacheConfig::new(64 * 2, 2); // 1 set, 2-way
        let mut c = Cache::new(cfg);
        c.insert(line(0), LineState::Exclusive);
        assert!(visited_dirty(&mut c).is_empty());
        c.write_access(line(0)); // E -> M
        assert_eq!(visited_dirty(&mut c), vec![line(0)]);
        c.set_state(line(0), LineState::Shared);
        assert!(visited_dirty(&mut c).is_empty());
        c.insert(line(0), LineState::Modified); // hit
        c.insert(line(1), LineState::Modified); // free slot
        assert_eq!(visited_dirty(&mut c), vec![line(0), line(1)]);
        c.insert(line(2), LineState::Shared); // evicts dirty line 0
        assert_eq!(visited_dirty(&mut c), vec![line(1)]);
        c.invalidate(line(1));
        assert!(visited_dirty(&mut c).is_empty());
        assert!(c.dirty_index_is_exact());
    }

    #[test]
    fn stamped_run_is_recent_use_and_evictions_split_it() {
        let cfg = CacheConfig::new(64 * 2 * 2, 2); // 2 sets, 2-way
        let mut c = Cache::new(cfg);
        for l in 0..4 {
            c.insert(line(l), LineState::Modified);
        }
        // The first run probes line by line and verifies lines 0..4; the
        // second covers 0..2 with one stamp.
        assert_eq!(c.write_run(line(0), 4), (4, LineState::Modified));
        assert_eq!(c.write_run(line(0), 2), (2, LineState::Modified));
        assert_eq!(c.write_run(line(0), 2), (2, LineState::Modified));
        assert_eq!(c.stamps.len(), 1, "a stamp drops the stamps it covers");
        // Set 0 holds lines 0 and 2; the stamp made line 0 the more
        // recent, so line 2 is the LRU victim.
        let ev = c.insert(line(4), LineState::Shared).expect("set was full");
        assert_eq!(ev.line, line(2));
        assert!(c.verified_is_exact());
        // The run now stops at the evicted line.
        assert_eq!(c.write_run(line(0), 4), (3, LineState::Invalid));
    }

    #[test]
    fn claim_shared_upgrades_only_a_resident_shared_line() {
        let mut c = Cache::new(CacheConfig::table1_l1());
        c.insert(line(1), LineState::Shared);
        c.insert(line(2), LineState::Exclusive);
        c.insert(line(3), LineState::Modified);
        // Verify line 3, so the verified-range check below is not vacuous.
        assert_eq!(c.write_run(line(3), 1), (1, LineState::Modified));
        for other in [2, 3, 4] {
            let before = format!("{c:?}");
            assert!(!c.claim_shared(line(other)), "line {other}");
            assert_eq!(format!("{c:?}"), before, "line {other} left untouched");
        }
        // A claim is the write's recency bump and the upgrade together.
        let mut reference = c.clone();
        reference.write_access(line(1));
        reference.set_state(line(1), LineState::Modified);
        let tick = c.tick;
        assert!(c.claim_shared(line(1)));
        assert_eq!(c.tick, tick + 1, "exactly one tick");
        assert_eq!(format!("{c:?}"), format!("{reference:?}"));
        assert_eq!(c.probe(line(1)), LineState::Modified);
        assert_eq!(visited_dirty(&mut c), vec![line(1), line(3)]);
        assert!(c.dirty_index_is_exact() && c.verified_is_exact());
    }

    #[test]
    fn probe_does_not_perturb_lru() {
        let cfg = CacheConfig::new(64 * 2, 2); // 1 set, 2-way
        let mut c = Cache::new(cfg);
        c.insert(line(0), LineState::Shared);
        c.insert(line(1), LineState::Shared);
        c.probe(line(0)); // must NOT refresh line 0
        let ev = c.insert(line(2), LineState::Shared).unwrap();
        assert_eq!(ev.line, line(0), "probe must not count as a use");
    }

    #[test]
    fn invalidated_slot_is_reused_before_eviction() {
        let cfg = CacheConfig::new(64 * 2, 2); // 1 set, 2-way
        let mut c = Cache::new(cfg);
        c.insert(line(0), LineState::Shared);
        c.insert(line(1), LineState::Shared);
        c.invalidate(line(0));
        // The set has a free slot again: no eviction on the next insert.
        assert!(c.insert(line(2), LineState::Shared).is_none());
        assert_eq!(c.len(), 2);
        assert_eq!(c.probe(line(1)), LineState::Shared);
        assert_eq!(c.probe(line(2)), LineState::Shared);
    }

    #[test]
    #[should_panic(expected = "Invalid state")]
    fn inserting_invalid_panics() {
        Cache::new(CacheConfig::table1_l1()).insert(line(0), LineState::Invalid);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheConfig::new(3 * 64 * 2, 2);
    }

    #[test]
    fn capacity_is_respected() {
        let cfg = CacheConfig::table1_l1();
        let mut c = Cache::new(cfg);
        let capacity = (cfg.size_bytes() / LINE_BYTES) as usize;
        for i in 0..10_000 {
            c.insert(line(i), LineState::Shared);
        }
        assert!(c.len() <= capacity);
    }

    #[test]
    fn display_mentions_dirty_count() {
        let mut c = Cache::new(CacheConfig::table1_l1());
        c.insert(line(0), LineState::Modified);
        assert!(c.to_string().contains("1 dirty"));
    }
}
