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
//! way holds a `Modified` line) is what a deep-sleep flush snapshots
//! instead of visiting the lines it writes back.
//!
//! # Levels
//!
//! The level is part of the type: [`Cache<L1>`] and [`Cache<L2>`]. Both
//! keep the ways, the dirty-way index, the flushed set and the run stamps.
//! Besides those, each keeps only what its own readers use:
//!
//! * the L1 keeps the ways a silent write of an `Exclusive` line dirtied
//!   (`Cache::clean_silent`), and the verified ranges and flushed runs
//!   that let [`Cache::write_run`] write a run one fragment at a time;
//! * the L2 keeps, per page residue, how many dirty shared lines it holds
//!   that are not flushed yet, so a flush learns how many lines it writes
//!   back, and to which homes, without visiting them.
//!
//! The methods that only one level's callers use exist only on that
//! level's type.
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
//! # Deferred flushes
//!
//! A flush ([`CoherentMemory::flush_dirty_shared`]) does not visit the
//! lines it writes back. It snapshots the dirty-way index as the cache's
//! *flushed* set: each marked way keeps its line `Modified` in storage,
//! but the line counts as `Shared`, the state the write-back leaves, and
//! every method that reports a state ([`Cache::probe`], [`Cache::access`],
//! [`Cache::write_access`], [`Cache::invalidate`], [`Cache::insert`]'s
//! victim) reports that one. A way leaves the set when anything changes
//! its state or replaces its line, and a range of lines leaves it in one
//! step when its owner rewrites it. A private line is never flushed.
//!
//! # Silent runs
//!
//! The compute phase's working-set rewrite ([`Cache::write_run`], on the
//! L1) is, in steady state, one silent write after another. The L1 keeps
//! a few disjoint *verified* line ranges, each known to be resident and
//! stored `Modified`: the per-line loop records every silent streak as
//! one, and the methods that can end that guarantee (`insert`,
//! `set_state`, `invalidate`) split the range they touch. A run fragment
//! a verified range covers is written as one *stamp* `(first, len,
//! tick0)`: line `first + j` was used at tick `tick0 + 1 + j`, exactly
//! what `len` calls of [`Cache::write_access`] would have stored. A way's
//! recency is the larger of its own `last_used` and the tick of the newest
//! stamp covering its line; every later use stores a larger tick, so that
//! maximum is the recency per-line writes would have left. Both lists are
//! bounded and start empty. A flush turns the verified ranges into
//! *flushed runs*, wholly flushed ranges that the owner's rewrite takes
//! one run at a time (`Cache::take_flushed_run`). The L2 stamps the lines
//! of a flushed run its bus upgrades rewrite, and keeps no ranges.
//!
//! [`CoherentMemory::flush_dirty_shared`]: crate::CoherentMemory::flush_dirty_shared

use crate::addr::{Addr, LineAddr, LINE_BYTES, PAGE_BYTES};
use crate::mesi::LineState;
use book::Book;
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

/// Most verified line ranges the L1 keeps; recording one more drops the
/// oldest.
const MAX_VERIFIED: usize = 8;
/// Most stamps a cache keeps; adding one more folds the oldest into its
/// ways.
const MAX_STAMPS: usize = 8;
/// Lines per page.
const PAGE_LINES: u64 = PAGE_BYTES / LINE_BYTES;
/// Pages are counted by page number modulo this: with at most 64 homes
/// assigned round-robin by page, every page a residue stands for has one
/// home when the node count is a power of two.
pub(crate) const PAGE_RESIDUES: usize = 64;

/// The page residue of line number `line`.
#[inline]
fn page_residue(line: u64) -> usize {
    (line / PAGE_LINES) as usize % PAGE_RESIDUES
}

/// The page residue of a shared line, `None` for a private one.
#[inline]
fn residue(line: LineAddr) -> Option<usize> {
    (!line.base_addr().is_private()).then(|| page_residue(line.as_u64()))
}

/// `true` when bit `i` of `bits` is set; bits past the end are clear.
#[inline]
fn bit(bits: &[u64], i: usize) -> bool {
    bits.get(i / 64).is_some_and(|w| w >> (i % 64) & 1 == 1)
}

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

/// The tick the newest of `stamps` covering `line` gave it, 0 if none.
#[inline]
fn stamp_tick(stamps: &[Stamp], line: LineAddr) -> u64 {
    stamps
        .iter()
        .rev()
        .find_map(|s| s.tick_of(line))
        .unwrap_or(0)
}

/// `Ok(end)` when a range `[_, end)` of `ranges` holds `line`, otherwise
/// `Err(start)` of the next range above it (`u64::MAX` if none).
#[inline]
fn range_at(ranges: &[(u64, u64)], line: u64) -> Result<u64, u64> {
    let mut next = u64::MAX;
    for &(start, end) in ranges {
        if line < start {
            next = next.min(start);
        } else if line < end {
            return Ok(end);
        }
    }
    Err(next)
}

/// Takes `[start, end)` out of the one of the disjoint `ranges` holding
/// `start`, if any, which must hold all of it; keeps a remaining piece
/// only while `ranges` has fewer than `cap` entries.
fn cut(ranges: &mut Vec<(u64, u64)>, start: u64, end: u64, cap: usize) {
    let Some(k) = ranges.iter().position(|&(s, e)| s <= start && start < e) else {
        return;
    };
    let (s, e) = ranges.remove(k);
    for piece in [(s, start), (end, e)] {
        if piece.0 < piece.1 && ranges.len() < cap {
            ranges.push(piece);
        }
    }
}

/// Adds `[start, end)`, disjoint from every one of `ranges`, to their back,
/// merged with the ranges it abuts.
fn absorb(ranges: &mut Vec<(u64, u64)>, mut start: u64, mut end: u64) {
    ranges.retain(|&(s, e)| {
        if e == start {
            start = s;
        } else if s == end {
            end = e;
        } else {
            return true;
        }
        false
    });
    ranges.push((start, end));
}

/// The lines the last flush wrote back without visiting them: each is
/// stored `Modified` and counts as `Shared`.
#[derive(Debug, Clone, Default)]
struct Flushed {
    /// The dirty-way index as the last flush found it (empty before the
    /// first): a marked way's line is flushed unless it is private, in
    /// `rewritten`, or the way changed since, which clears its bit.
    bits: Vec<u64>,
    /// Line ranges rewritten by their owner since that flush.
    rewritten: Vec<(u64, u64)>,
}

impl Flushed {
    /// `true` when way `i`, holding `line`, holds it flushed.
    #[inline]
    fn holds(&self, i: usize, line: LineAddr) -> bool {
        bit(&self.bits, i)
            && !line.base_addr().is_private()
            && range_at(&self.rewritten, line.as_u64()).is_err()
    }
}

/// The first cache level. It writes the compute phase's runs and tells the
/// flush which dirty lines its L2 copies do not know about.
#[derive(Debug, Clone, Copy)]
pub struct L1;

/// The second cache level. The flush counts its dirty shared lines.
#[derive(Debug, Clone, Copy)]
pub struct L2;

/// A cache level, [`L1`] or [`L2`]: its bookkeeping type holds what only
/// that level's readers use.
pub trait Level: fmt::Debug + Clone {
    /// What only this level's readers use.
    #[doc(hidden)]
    type Book: Book;
}

impl Level for L1 {
    type Book = book::L1Book;
}

impl Level for L2 {
    /// Dirty shared lines not flushed yet, by page residue.
    type Book = [u32; PAGE_RESIDUES];
}

/// Each level's bookkeeping and how the code both levels share updates it.
mod book {
    use super::*;

    /// The hooks the code both levels share calls at each change.
    pub trait Book: fmt::Debug + Clone {
        /// Empty bookkeeping for a cache of `words × 64` ways.
        fn new(words: usize) -> Self;
        /// Way `i`, holding `line`, became dirty (`dirty`) or clean.
        fn flip(&mut self, i: usize, line: LineAddr, dirty: bool);
        /// Way `i` has just been dirtied by a silent write of an
        /// `Exclusive` line.
        fn dirtied_silently(&mut self, _i: usize) {}
        /// `line`, held flushed and dirty, left the flushed set.
        fn unflushed(&mut self, line: u64);
        /// The way holding `line` is about to change state or line.
        fn unverify(&mut self, _line: u64) {}
        /// A flush: every dirty shared line is now flushed.
        fn flush(&mut self);
    }

    /// The L1's bookkeeping.
    #[derive(Debug, Clone)]
    pub struct L1Book {
        /// The ways a silent write of an `Exclusive` line made `Modified`
        /// (their L2 copies are clean).
        pub silent: Vec<u64>,
        /// Disjoint half-open line ranges `[start, end)` whose every line
        /// is resident and stored `Modified`; the front one is dropped
        /// first when full.
        pub verified: Vec<(u64, u64)>,
        /// Disjoint line ranges whose every line is flushed: the shared
        /// verified ranges at the last flush, less what left the set since.
        pub runs: Vec<(u64, u64)>,
    }

    impl Book for L1Book {
        fn new(words: usize) -> Self {
            L1Book {
                silent: vec![0; words],
                verified: Vec::new(),
                runs: Vec::new(),
            }
        }

        #[inline]
        fn flip(&mut self, i: usize, _: LineAddr, _: bool) {
            self.silent[i / 64] &= !(1u64 << (i % 64));
        }

        fn dirtied_silently(&mut self, i: usize) {
            self.silent[i / 64] |= 1u64 << (i % 64);
        }

        fn unflushed(&mut self, line: u64) {
            cut(&mut self.runs, line, line + 1, usize::MAX);
        }

        fn unverify(&mut self, line: u64) {
            cut(&mut self.verified, line, line + 1, MAX_VERIFIED);
        }

        fn flush(&mut self) {
            self.runs.clone_from(&self.verified);
            self.runs
                .retain(|&(start, _)| !Addr::new(start * LINE_BYTES).is_private());
        }
    }

    /// The L2's bookkeeping: its dirty shared lines not flushed yet, by
    /// page residue.
    impl Book for [u32; PAGE_RESIDUES] {
        fn new(_: usize) -> Self {
            [0; PAGE_RESIDUES]
        }

        #[inline]
        fn flip(&mut self, _: usize, line: LineAddr, dirty: bool) {
            if let Some(r) = residue(line) {
                if dirty {
                    self[r] += 1;
                } else {
                    self[r] -= 1;
                }
            }
        }

        fn unflushed(&mut self, line: u64) {
            self[page_residue(line)] += 1;
        }

        fn flush(&mut self) {
            *self = [0; PAGE_RESIDUES];
        }
    }
}

/// A single cache level.
#[derive(Debug, Clone)]
pub struct Cache<L: Level> {
    config: CacheConfig,
    /// `sets × assoc` slots; set `s` is the slice `[s*assoc, (s+1)*assoc)`.
    ways: Vec<Way>,
    /// `sets - 1`: power-of-two set count makes the index a mask.
    set_mask: u64,
    assoc: usize,
    /// Valid (non-`Invalid`) slots, kept incrementally so `len()` is O(1).
    valid: usize,
    /// The dirty-way index: bit `i` is set exactly when `ways[i]` holds a
    /// `Modified` line.
    dirty: Vec<u64>,
    flushed: Flushed,
    tick: u64,
    /// Run stamps, oldest first; a way's recency is the larger of its
    /// `last_used` and its line's newest stamp tick.
    stamps: Vec<Stamp>,
    /// What only this level's readers use.
    book: L::Book,
}

/// A line pushed out of the cache by [`Cache::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evicted {
    /// The displaced line.
    pub line: LineAddr,
    /// Its state at eviction; `Modified` means a write-back is required.
    pub state: LineState,
}

impl<L: Level> Cache<L> {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = config.sets();
        let assoc = config.associativity as usize;
        let words = (sets as usize * assoc).div_ceil(64);
        Cache {
            config,
            ways: vec![Way::empty(); sets as usize * assoc],
            set_mask: sets - 1,
            assoc,
            valid: 0,
            dirty: vec![0; words],
            flushed: Flushed::default(),
            tick: 0,
            stamps: Vec::new(),
            book: L::Book::new(words),
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

    /// The slot holding `line`, if any.
    fn slot(&self, line: LineAddr) -> Option<usize> {
        let base = self.set_base(line);
        self.ways[base..base + self.assoc]
            .iter()
            .position(|w| w.holds(line))
            .map(|i| base + i)
    }

    /// The state slot `i` reports: `Shared` for a flushed line.
    #[inline]
    fn reported(&self, i: usize) -> LineState {
        let way = &self.ways[i];
        if way.state == LineState::Modified && self.flushed.holds(i, way.line) {
            LineState::Shared
        } else {
            way.state
        }
    }

    /// Keeps slot `i`'s dirty-way bit and this level's bookkeeping current
    /// as its line `line` goes from `from` to `to`.
    #[inline]
    fn mark(&mut self, i: usize, line: LineAddr, from: LineState, to: LineState) {
        if from.is_dirty() != to.is_dirty() {
            self.dirty[i / 64] ^= 1u64 << (i % 64);
            self.book.flip(i, line, to.is_dirty());
        }
    }

    /// Slot `i`, holding `line`, takes `state`: `line` leaves the flushed
    /// set, and unless it stays dirty, any verified range.
    fn restate(&mut self, i: usize, line: LineAddr, state: LineState) {
        if self.flushed.holds(i, line) {
            self.book.unflushed(line.as_u64());
        }
        if let Some(word) = self.flushed.bits.get_mut(i / 64) {
            *word &= !(1u64 << (i % 64));
        }
        if !state.is_dirty() {
            self.book.unverify(line.as_u64());
        }
        let from = std::mem::replace(&mut self.ways[i].state, state);
        self.mark(i, line, from, state);
    }

    /// The state of `line`, updating LRU recency. `Invalid` if absent.
    pub fn access(&mut self, line: LineAddr) -> LineState {
        self.tick += 1;
        let tick = self.tick;
        let (base, set) = self.set_mut(line);
        let Some(i) = set.iter().position(|w| w.holds(line)) else {
            return LineState::Invalid;
        };
        set[i].last_used = tick;
        self.reported(base + i)
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
    /// silent path — one tag scan instead of two. A flushed line reports
    /// `Shared` and is left as it is.
    #[inline]
    pub fn write_access(&mut self, line: LineAddr) -> LineState {
        self.tick += 1;
        let tick = self.tick;
        let (base, set) = self.set_mut(line);
        let Some(i) = set.iter().position(|w| w.holds(line)) else {
            return LineState::Invalid;
        };
        set[i].last_used = tick;
        let before = set[i].state;
        // A Modified line is already marked dirty, so only the rare
        // E -> M changes the index, off the hit path; a Modified line the
        // last flush left behind is not written at all.
        match before {
            LineState::Exclusive => self.dirty_exclusive(base + i),
            LineState::Modified => return self.reported(base + i),
            _ => {}
        }
        before
    }

    /// The E -> M half of a silent write to slot `i`.
    #[cold]
    #[inline(never)]
    fn dirty_exclusive(&mut self, i: usize) {
        let line = self.ways[i].line;
        self.ways[i].state = LineState::Modified;
        self.mark(i, line, LineState::Exclusive, LineState::Modified);
        self.book.dirtied_silently(i);
    }

    /// Writes the `len` lines from `first`, all resident, as one stamp.
    /// The new stamp's ticks exceed every older one's, so it drops the
    /// stamps it covers; when the list is full, the oldest is folded into
    /// its ways.
    pub(crate) fn stamp(&mut self, first: LineAddr, len: u64) {
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

    /// The state of `line` without touching LRU state (a coherence probe).
    pub fn probe(&self, line: LineAddr) -> LineState {
        self.slot(line)
            .map_or(LineState::Invalid, |i| self.reported(i))
    }

    /// Inserts (or updates) `line` with `state`, evicting the LRU way if
    /// the set is full. Returns the evicted line, if any, with the state
    /// it reported.
    ///
    /// # Panics
    ///
    /// Panics if `state` is `Invalid` — use [`Cache::invalidate`] instead.
    pub fn insert(&mut self, line: LineAddr, state: LineState) -> Option<Evicted> {
        assert!(state.is_valid(), "cannot insert a line in Invalid state");
        self.tick += 1;
        let tick = self.tick;
        let base = self.set_base(line);
        let set = &self.ways[base..base + self.assoc];
        let stamps = &self.stamps;
        let mut free: Option<usize> = None;
        let mut victim_idx = 0;
        let mut victim_used = u64::MAX;
        for (i, way) in set.iter().enumerate() {
            if way.holds(line) {
                self.restate(base + i, line, state);
                self.ways[base + i].last_used = tick;
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
                    way.last_used.max(stamp_tick(stamps, way.line))
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
        let i = base + free.unwrap_or(victim_idx);
        let mut evicted = None;
        if free.is_some() {
            self.valid += 1;
        } else {
            let victim = self.ways[i].line;
            evicted = Some(Evicted {
                line: victim,
                state: self.reported(i),
            });
            self.restate(i, victim, LineState::Invalid);
        }
        self.ways[i] = Way {
            line,
            state,
            last_used: tick,
        };
        self.mark(i, line, LineState::Invalid, state);
        evicted
    }

    /// Changes the state of a resident line in place; returns `false` if
    /// the line is absent.
    #[inline]
    pub fn set_state(&mut self, line: LineAddr, state: LineState) -> bool {
        assert!(state.is_valid(), "use invalidate to drop a line");
        let Some(i) = self.slot(line) else {
            return false;
        };
        self.restate(i, line, state);
        true
    }

    /// Removes `line`; returns the state it reported if it was present.
    #[inline]
    pub fn invalidate(&mut self, line: LineAddr) -> Option<LineState> {
        let i = self.slot(line)?;
        let prior = self.reported(i);
        self.restate(i, line, LineState::Invalid);
        self.valid -= 1;
        Some(prior)
    }

    /// Flushes every dirty shared line without visiting it: the dirty-way
    /// index becomes the flushed set (and in the L1, the verified ranges,
    /// all resident and Modified, its flushed runs).
    pub fn defer_flush(&mut self) {
        self.flushed.bits.clone_from(&self.dirty);
        self.flushed.rewritten.clear();
        self.book.flush();
    }

    /// `true` when the dirty-way index marks exactly the `Modified` ways
    /// and the flushed set no other way.
    fn dirty_bits_are_exact(&self) -> bool {
        self.ways.iter().enumerate().all(|(i, w)| {
            w.state.is_dirty() == bit(&self.dirty, i)
                && (w.state.is_dirty() || !bit(&self.flushed.bits, i))
        })
    }

    /// All valid lines with the states they report, sorted, for invariant
    /// checks.
    pub fn resident_lines(&self) -> Vec<(LineAddr, LineState)> {
        let mut out: Vec<_> = self
            .ways
            .iter()
            .enumerate()
            .filter(|(_, w)| w.state.is_valid())
            .map(|(i, w)| (w.line, self.reported(i)))
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

impl Cache<L1> {
    /// Writes the `n` consecutive lines from `first` until one is not
    /// silent: the same as calling [`Cache::write_access`] on each line in
    /// turn and stopping after the first whose returned state cannot be
    /// written silently. Returns how many lines were written (the
    /// non-silent one included) and the state the last of them had before
    /// its write, so the caller finishes a non-silent line itself.
    ///
    /// A fragment a verified range covers costs one stamp; other lines
    /// take the per-line probe, and each silent streak it finds is
    /// recorded as a verified range. A flushed line is not silent: the
    /// memory system takes a flushed run in one step before writing it.
    pub fn write_run(&mut self, first: LineAddr, n: u32) -> (u32, LineState) {
        let end = first.as_u64() + n as u64;
        let mut line = first;
        let mut before = LineState::Modified;
        while line.as_u64() < end {
            let stop = match range_at(&self.book.verified, line.as_u64()) {
                Ok(covered) => match range_at(&self.book.runs, line.as_u64()) {
                    Err(next) => {
                        let len = covered.min(end).min(next) - line.as_u64();
                        self.stamp(line, len);
                        line = line.offset(len);
                        before = LineState::Modified;
                        continue;
                    }
                    // A flushed line reports Shared: write it per line.
                    Ok(_) => line.as_u64() + 1,
                },
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

    /// The owner's rewrite of the flushed run at `first`, up to `n` lines:
    /// when `first` starts a stretch of a flushed run, writes that stretch
    /// as one stamp (the recency the per-line writes would leave), takes
    /// it out of the flushed set and returns its length. Returns 0, with
    /// the cache untouched, when `first` is in no flushed run.
    pub(crate) fn take_flushed_run(&mut self, first: LineAddr, n: u32) -> u32 {
        let Ok(run_end) = range_at(&self.book.runs, first.as_u64()) else {
            return 0;
        };
        let (start, end) = (first.as_u64(), run_end.min(first.as_u64() + n as u64));
        cut(&mut self.book.runs, start, end, usize::MAX);
        absorb(&mut self.flushed.rewritten, start, end);
        self.stamp(first, end - start);
        (end - start) as u32
    }

    /// `true` when the last flush left flushed runs to take.
    pub(crate) fn has_flushed_runs(&self) -> bool {
        !self.book.runs.is_empty()
    }

    /// Records `[start, end)`, just written silently and disjoint from
    /// every verified range, as verified, merged with any range it abuts.
    fn record_verified(&mut self, start: u64, end: u64) {
        if start == end {
            return;
        }
        let verified = &mut self.book.verified;
        absorb(verified, start, end);
        if verified.len() > MAX_VERIFIED {
            verified.remove(0);
        }
    }

    /// Downgrades to `Shared` every shared line that a silent write of an
    /// `Exclusive` copy made `Modified`, passing each to `write_back`;
    /// forgets the rest of those writes (private lines, never flushed).
    /// These are the dirty lines whose L2 copy is still clean. LRU state
    /// is untouched, and visiting order is slot order.
    pub(crate) fn clean_silent(&mut self, mut write_back: impl FnMut(LineAddr)) {
        for word in 0..self.book.silent.len() {
            let mut bits = std::mem::take(&mut self.book.silent[word]);
            while bits != 0 {
                let i = word * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let line = self.ways[i].line;
                if line.base_addr().is_private() {
                    continue;
                }
                self.set_state(line, LineState::Shared);
                write_back(line);
            }
        }
    }

    /// `true` when the dirty-way index marks exactly the `Modified` ways,
    /// the flushed set and the silent-write bits no other way, and every
    /// flushed run holds only flushed lines — for invariant checks.
    pub fn dirty_index_is_exact(&self) -> bool {
        self.dirty_bits_are_exact()
            && (0..self.ways.len())
                .all(|i| self.ways[i].state.is_dirty() || !bit(&self.book.silent, i))
            && self.book.runs.iter().all(|&(start, end)| {
                (start..end).all(|l| {
                    let line = Addr::new(l * LINE_BYTES).line();
                    self.slot(line).is_some_and(|i| self.flushed.holds(i, line))
                })
            })
    }

    /// `true` when every line of every verified range is resident and
    /// stored `Modified`, and the ranges are disjoint — for invariant
    /// checks.
    pub fn verified_is_exact(&self) -> bool {
        let mut ranges = self.book.verified.clone();
        ranges.sort_unstable();
        ranges.windows(2).all(|w| w[0].1 <= w[1].0)
            && ranges.iter().all(|&(start, end)| {
                start < end
                    && (start..end).all(|l| {
                        self.slot(Addr::new(l * LINE_BYTES).line())
                            .is_some_and(|i| self.ways[i].state == LineState::Modified)
                    })
            })
    }
}

impl Cache<L2> {
    /// The owner rewrote the `n` flushed lines from `first`, which this
    /// cache holds flushed: they leave the flushed set in one step.
    pub(crate) fn unflush(&mut self, first: LineAddr, n: u32) {
        let (start, end) = (first.as_u64(), first.as_u64() + n as u64);
        let mut line = start;
        while line < end {
            let stop = ((line / PAGE_LINES + 1) * PAGE_LINES).min(end);
            self.book[page_residue(line)] += (stop - line) as u32;
            line = stop;
        }
        absorb(&mut self.flushed.rewritten, start, end);
    }

    /// `true` when this cache holds `line` flushed.
    pub(crate) fn holds_flushed(&self, line: LineAddr) -> bool {
        !self.flushed.bits.is_empty()
            && self.slot(line).is_some_and(|i| self.flushed.holds(i, line))
    }

    /// The flush's count: how many dirty shared lines this cache holds
    /// that are not flushed already, and the page residues they fall in,
    /// as a bit mask. Visits no line.
    pub(crate) fn unflushed_dirty(&self) -> (u64, u64) {
        let mut lines = 0;
        let mut residues = 0u64;
        for (r, &n) in self.book.iter().enumerate() {
            if n > 0 {
                lines += n as u64;
                residues |= 1 << r;
            }
        }
        (lines, residues)
    }

    /// `true` when the dirty-way index marks exactly the `Modified` ways,
    /// the flushed set no other way, and the per-page count is that of the
    /// dirty shared ways not flushed — for invariant checks.
    pub fn dirty_index_is_exact(&self) -> bool {
        let mut unflushed = [0; PAGE_RESIDUES];
        for (i, w) in self.ways.iter().enumerate() {
            if w.state.is_dirty() && !self.flushed.holds(i, w.line) {
                if let Some(r) = residue(w.line) {
                    unflushed[r] += 1;
                }
            }
        }
        self.dirty_bits_are_exact() && unflushed == self.book
    }
}

impl<L: Level> fmt::Display for Cache<L> {
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
        let mut c = Cache::<L1>::new(CacheConfig::table1_l1());
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
        let mut c = Cache::<L1>::new(cfg);
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
        let mut c = Cache::<L2>::new(cfg);
        c.insert(line(0), LineState::Modified);
        c.insert(line(1), LineState::Shared);
        let ev = c.insert(line(2), LineState::Exclusive).unwrap();
        assert_eq!(ev.line, line(0));
        assert!(ev.state.is_dirty());
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut c = Cache::<L1>::new(CacheConfig::table1_l1());
        c.insert(line(9), LineState::Exclusive);
        assert!(c.insert(line(9), LineState::Modified).is_none());
        assert_eq!(c.len(), 1);
        assert_eq!(c.probe(line(9)), LineState::Modified);
    }

    #[test]
    fn invalidate_removes() {
        let mut c = Cache::<L1>::new(CacheConfig::table1_l1());
        c.insert(line(4), LineState::Shared);
        assert_eq!(c.invalidate(line(4)), Some(LineState::Shared));
        assert_eq!(c.invalidate(line(4)), None);
        assert!(c.is_empty());
    }

    #[test]
    fn set_state_transitions() {
        let mut c = Cache::<L1>::new(CacheConfig::table1_l1());
        c.insert(line(7), LineState::Exclusive);
        assert!(c.set_state(line(7), LineState::Modified));
        assert_eq!(c.probe(line(7)), LineState::Modified);
        assert!(!c.set_state(line(8), LineState::Shared));
    }

    /// The lines the dirty-way index marks, sorted.
    fn indexed_dirty<L: Level>(c: &Cache<L>) -> Vec<LineAddr> {
        let mut out: Vec<LineAddr> = (0..c.ways.len())
            .filter(|&i| bit(&c.dirty, i))
            .map(|i| c.ways[i].line)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn flushed_lines_report_shared_until_they_change() {
        let mut c = Cache::<L2>::new(CacheConfig::table1_l2());
        let private = Addr::new(1 << 63).line();
        c.insert(line(1), LineState::Modified);
        c.insert(line(2), LineState::Shared);
        c.insert(line(3 * PAGE_LINES), LineState::Modified);
        c.insert(private, LineState::Modified);
        assert_eq!(c.unflushed_dirty(), (2, 0b1001));
        c.defer_flush();
        assert_eq!(c.unflushed_dirty(), (0, 0), "everything is flushed");
        assert_eq!(c.probe(line(1)), LineState::Shared);
        assert_eq!(c.probe(line(3 * PAGE_LINES)), LineState::Shared);
        assert_eq!(c.probe(private), LineState::Modified, "never flushed");
        assert_eq!(
            indexed_dirty(&c).len(),
            3,
            "flushed lines stay Modified in storage"
        );
        // A write of a flushed line is not silent and changes nothing.
        assert_eq!(c.write_access(line(1)), LineState::Shared);
        assert_eq!(c.probe(line(1)), LineState::Shared);
        // A change of state takes a line out of the flushed set.
        assert!(c.set_state(line(3 * PAGE_LINES), LineState::Modified));
        assert_eq!(c.probe(line(3 * PAGE_LINES)), LineState::Modified);
        assert_eq!(c.unflushed_dirty(), (1, 0b1000));
        let ev = c.invalidate(line(1));
        assert_eq!(ev, Some(LineState::Shared), "reports the flushed state");
        assert!(c.dirty_index_is_exact());
    }

    #[test]
    fn clean_silent_downgrades_only_lines_dirtied_over_exclusive() {
        let mut c = Cache::<L1>::new(CacheConfig::table1_l1());
        let private = Addr::new(1 << 63).line();
        c.insert(line(1), LineState::Exclusive);
        c.insert(line(2), LineState::Modified);
        c.insert(private, LineState::Exclusive);
        c.write_access(line(1));
        c.write_access(private);
        let mut seen = Vec::new();
        c.clean_silent(|l| seen.push(l));
        assert_eq!(seen, vec![line(1)]);
        assert_eq!(c.probe(line(1)), LineState::Shared);
        assert_eq!(c.probe(line(2)), LineState::Modified);
        assert_eq!(c.probe(private), LineState::Modified);
        c.clean_silent(|l| seen.push(l));
        assert_eq!(seen.len(), 1, "each silent write is visited once");
        assert!(c.dirty_index_is_exact());
    }

    #[test]
    fn dirty_index_follows_every_state_change() {
        let cfg = CacheConfig::new(64 * 2, 2); // 1 set, 2-way
        let mut c = Cache::<L2>::new(cfg);
        c.insert(line(0), LineState::Exclusive);
        assert!(indexed_dirty(&c).is_empty());
        c.write_access(line(0)); // E -> M
        assert_eq!(indexed_dirty(&c), vec![line(0)]);
        assert!(c.dirty_index_is_exact());
        c.set_state(line(0), LineState::Shared);
        assert!(indexed_dirty(&c).is_empty());
        c.insert(line(0), LineState::Modified); // hit
        c.insert(line(1), LineState::Modified); // free slot
        assert_eq!(indexed_dirty(&c), vec![line(0), line(1)]);
        assert_eq!(c.unflushed_dirty(), (2, 1));
        c.insert(line(2), LineState::Shared); // evicts dirty line 0
        assert_eq!(indexed_dirty(&c), vec![line(1)]);
        c.invalidate(line(1));
        assert!(indexed_dirty(&c).is_empty());
        assert_eq!(c.unflushed_dirty(), (0, 0));
        assert!(c.dirty_index_is_exact());
    }

    #[test]
    fn stamped_run_is_recent_use_and_evictions_split_it() {
        let cfg = CacheConfig::new(64 * 2 * 2, 2); // 2 sets, 2-way
        let mut c = Cache::<L1>::new(cfg);
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
    fn a_flushed_run_is_rewritten_in_one_step() {
        let mut c = Cache::<L1>::new(CacheConfig::table1_l1());
        // The L2 copies, which the memory system unflushes alongside.
        let mut l2 = Cache::<L2>::new(CacheConfig::table1_l2());
        for l in 0..6 {
            c.insert(line(l), LineState::Modified);
            l2.insert(line(l), LineState::Modified);
        }
        // Verify lines 0..6, then flush: they become one flushed run.
        assert_eq!(c.write_run(line(0), 6), (6, LineState::Modified));
        c.defer_flush();
        l2.defer_flush();
        let mut per_line = c.clone();
        // Written line by line, a flushed line stops the run.
        assert_eq!(c.clone().write_run(line(0), 4), (1, LineState::Shared));
        assert_eq!(c.take_flushed_run(line(7), 2), 0, "not flushed");
        assert_eq!(c.take_flushed_run(line(2), 2), 2);
        l2.unflush(line(2), 2);
        assert_eq!(c.write_run(line(0), 4), (1, LineState::Shared));
        assert_eq!(c.probe(line(2)), LineState::Modified);
        assert_eq!(c.probe(line(4)), LineState::Shared);
        assert_eq!(l2.unflushed_dirty(), (2, 1));
        // The stamp is the recency per-line writes leave: two lines per
        // tick, in order.
        for l in 2..4 {
            per_line.tick += 1;
            let i = per_line.slot(line(l)).unwrap();
            per_line.ways[i].last_used = per_line.tick;
        }
        assert_eq!(c.tick, per_line.tick + 1, "the write of line 0 ticks too");
        for l in 2..4 {
            let i = c.slot(line(l)).unwrap();
            assert_eq!(stamp_tick(&c.stamps, line(l)), per_line.ways[i].last_used);
        }
        assert!(c.dirty_index_is_exact() && c.verified_is_exact());
        assert!(l2.dirty_index_is_exact());
    }

    #[test]
    fn probe_does_not_perturb_lru() {
        let cfg = CacheConfig::new(64 * 2, 2); // 1 set, 2-way
        let mut c = Cache::<L1>::new(cfg);
        c.insert(line(0), LineState::Shared);
        c.insert(line(1), LineState::Shared);
        c.probe(line(0)); // must NOT refresh line 0
        let ev = c.insert(line(2), LineState::Shared).unwrap();
        assert_eq!(ev.line, line(0), "probe must not count as a use");
    }

    #[test]
    fn invalidated_slot_is_reused_before_eviction() {
        let cfg = CacheConfig::new(64 * 2, 2); // 1 set, 2-way
        let mut c = Cache::<L2>::new(cfg);
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
        Cache::<L1>::new(CacheConfig::table1_l1()).insert(line(0), LineState::Invalid);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_sets_rejected() {
        let _ = CacheConfig::new(3 * 64 * 2, 2);
    }

    #[test]
    fn capacity_is_respected() {
        let cfg = CacheConfig::table1_l1();
        let mut c = Cache::<L1>::new(cfg);
        let capacity = (cfg.size_bytes() / LINE_BYTES) as usize;
        for i in 0..10_000 {
            c.insert(line(i), LineState::Shared);
        }
        assert!(c.len() <= capacity);
    }

    #[test]
    fn display_mentions_dirty_count() {
        let mut c = Cache::<L1>::new(CacheConfig::table1_l1());
        c.insert(line(0), LineState::Modified);
        assert!(c.to_string().contains("1 dirty"));
    }
}
