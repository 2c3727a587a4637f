//! Set-associative cache arrays with MESI line states.
//!
//! [`CacheArray`] is the building block for every level: true LRU within a
//! set, per-line MESI state and an owner-defined 8-bit presence mask (the
//! L2 uses it as a directory of which L1s above it hold the line). Timing
//! and coherence policy live in [`crate::hier`]; this module is pure state.

/// MESI coherence states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mesi {
    /// Modified: exclusive and dirty.
    Modified,
    /// Exclusive: sole copy, clean.
    Exclusive,
    /// Shared: possibly other copies, clean.
    Shared,
    /// Invalid.
    Invalid,
}

/// The widest set a [`CacheArray`] holds: every modelled cache is 8-way.
const MAX_WAYS: usize = 8;

/// The key of an empty way, and of every way past the array's
/// associativity. No line address reaches it: a line address is a byte
/// address shifted right by the line size.
const KEY_INVALID: u64 = u64::MAX;

/// One simulated set in one 128-byte host block: keys, LRU stamps, MESI
/// states, presence masks and the MRU way. A lookup, a fill and its victim
/// choice read and write this block only.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(128))]
struct Set {
    /// Line address per way; [`KEY_INVALID`] for empty ways.
    keys: [u64; MAX_WAYS],
    /// LRU stamp per way (bigger = more recent); meaningless for empty
    /// ways, and distinct across a set's valid ways.
    stamps: [u32; MAX_WAYS],
    states: [Mesi; MAX_WAYS],
    /// Owner-defined presence mask (directory bits for inclusive L2s).
    presence: [u8; MAX_WAYS],
    /// The most-recently-used way.
    mru: u8,
}

const EMPTY_SET: Set = Set {
    keys: [KEY_INVALID; MAX_WAYS],
    stamps: [0; MAX_WAYS],
    states: [Mesi::Invalid; MAX_WAYS],
    presence: [0; MAX_WAYS],
    mru: 0,
};

/// Result of a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// Line present with the given state.
    Hit(Mesi),
    /// Line absent.
    Miss,
}

/// A victim evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Victim {
    /// The evicted line address (address / line_size).
    pub line_addr: u64,
    /// Its state at eviction (Modified ⇒ write-back needed).
    pub state: Mesi,
    /// Its presence mask at eviction (inclusive caches must back-invalidate).
    pub presence: u8,
}

/// Where a present line sits in its array: set × [`MAX_WAYS`] + way. Reads
/// and writes through a slot skip the set scan; a slot stays valid until
/// the next fill or invalidation on the same array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(usize);

impl Slot {
    #[inline]
    fn set(self) -> usize {
        self.0 / MAX_WAYS
    }

    #[inline]
    fn way(self) -> usize {
        self.0 % MAX_WAYS
    }
}

/// A set-associative array indexed by line address.
///
/// One host block per simulated set ([`Set`], 128 bytes): a lookup, a fill
/// and its victim choice touch one block, never several arrays. The key
/// compare covers all eight ways at once (ways past the associativity hold
/// [`KEY_INVALID`], which no line matches), so it needs no branch per way.
///
/// LRU stamps are u32. Before the counter would wrap, every set's stamps
/// are renumbered by rank (1 for its oldest valid way, and so on) and the
/// counter restarts above them: only the order inside a set decides a
/// victim, and renumbering keeps that order.
///
/// Two hints make the common lookups cheap without changing any answer. The
/// array remembers its newest-stamped line and that line's slot (the
/// *memo*): looking that line up again would only replace the newest stamp
/// with a newer one, which moves no relative LRU order, so the lookup
/// returns the slot and writes nothing. Failing that, each set's MRU way is
/// compared before the set is scanned.
#[derive(Debug, Clone)]
pub struct CacheArray {
    /// Set count minus one: the set index mask.
    set_mask: u64,
    ways: usize,
    sets: Vec<Set>,
    /// The newest LRU stamp handed out; advances only when a line takes it.
    stamp: u32,
    /// The line holding stamp `stamp`, or [`KEY_INVALID`] once it is gone.
    memo_line: u64,
    /// That line's slot.
    memo_slot: Slot,
}

impl CacheArray {
    /// Build an array with `sets` sets of `ways` ways (at most eight).
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let ways = usize::try_from(ways).expect("way count fits usize");
        assert!((1..=MAX_WAYS).contains(&ways), "1 to {MAX_WAYS} ways, not {ways}");
        CacheArray {
            set_mask: u64::from(sets - 1),
            ways,
            sets: vec![EMPTY_SET; sets as usize],
            stamp: 0,
            memo_line: KEY_INVALID,
            memo_slot: Slot(0),
        }
    }

    /// Build from a [`crate::config::CacheConfig`].
    pub fn from_config(cfg: &crate::config::CacheConfig) -> Self {
        Self::new(cfg.sets(), cfg.ways)
    }

    #[inline]
    fn set_of(&self, line_addr: u64) -> usize {
        debug_assert_ne!(line_addr, KEY_INVALID, "line address collides with the empty key");
        // Mask in u64 first; the result then converts exactly.
        usize::try_from(line_addr & self.set_mask).expect("masked to set index range")
    }

    /// The way of `set` holding `line_addr`: one compare of all eight keys
    /// folded into a bit mask, lowest set bit first (keys are unique in a
    /// set, so at most one bit is set).
    #[inline]
    fn way_in(set: &Set, line_addr: u64) -> Option<usize> {
        let hits = set
            .keys
            .iter()
            .enumerate()
            .fold(0u32, |m, (w, &k)| m | (u32::from(k == line_addr) << w));
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    fn find(&self, line_addr: u64) -> Option<Slot> {
        let set = self.set_of(line_addr);
        Self::way_in(&self.sets[set], line_addr).map(|w| Slot(set * MAX_WAYS + w))
    }

    /// Give `line_addr`, in slot `s`, the next stamp: it becomes the memo.
    #[inline]
    fn refresh(&mut self, s: Slot, line_addr: u64) {
        if self.stamp == u32::MAX {
            self.renumber();
        }
        self.stamp += 1;
        self.sets[s.set()].stamps[s.way()] = self.stamp;
        self.memo_line = line_addr;
        self.memo_slot = s;
    }

    /// [`CacheArray::refresh`], and slot `s` becomes its set's MRU way.
    #[inline]
    fn touch(&mut self, s: Slot, line_addr: u64) {
        self.refresh(s, line_addr);
        self.sets[s.set()].mru = u8::try_from(s.way()).expect("way index fits u8");
    }

    /// Replace every set's stamps by their rank among its valid ways and
    /// restart the counter above every rank. The order inside each set, the
    /// only order a victim choice reads, is unchanged. The memo is dropped:
    /// it must hold the newest stamp, and the refresh that follows re-arms
    /// it.
    #[cold]
    #[inline(never)]
    fn renumber(&mut self) {
        let ways = self.ways;
        for set in &mut self.sets {
            let old = set.stamps;
            let valid = |w: usize| set.keys[w] != KEY_INVALID;
            let mut ranked = [0u32; MAX_WAYS];
            for (w, rank) in ranked.iter_mut().enumerate().take(ways).filter(|&(w, _)| valid(w)) {
                let older = (0..ways).filter(|&v| valid(v) && old[v] < old[w]).count();
                *rank = 1 + u32::try_from(older).expect("rank fits u32");
            }
            set.stamps = ranked;
        }
        self.stamp = u32::try_from(ways).expect("way count fits u32");
        self.memo_line = KEY_INVALID;
    }

    /// Look up a line, refreshing LRU on a hit; returns where it sits.
    ///
    /// Inlined so the memory system's hit paths collapse into one compare
    /// at the call site: the memo line first, then the set's MRU way. The
    /// set scan is outlined.
    #[inline(always)]
    pub fn lookup_slot(&mut self, line_addr: u64) -> Option<Slot> {
        if line_addr == self.memo_line {
            debug_assert_eq!(
                self.sets[self.memo_slot.set()].stamps[self.memo_slot.way()],
                self.stamp,
                "memo is the newest line"
            );
            return Some(self.memo_slot);
        }
        let set = self.set_of(line_addr);
        let w = usize::from(self.sets[set].mru);
        if self.sets[set].keys[w] == line_addr {
            let s = Slot(set * MAX_WAYS + w);
            self.refresh(s, line_addr);
            return Some(s);
        }
        self.lookup_scan(set, line_addr)
    }

    /// The non-MRU half of [`CacheArray::lookup_slot`].
    fn lookup_scan(&mut self, set: usize, line_addr: u64) -> Option<Slot> {
        let s = Slot(set * MAX_WAYS + Self::way_in(&self.sets[set], line_addr)?);
        self.touch(s, line_addr);
        Some(s)
    }

    /// Look up a line, refreshing LRU on a hit.
    #[inline]
    pub fn lookup(&mut self, line_addr: u64) -> Lookup {
        match self.lookup_slot(line_addr) {
            Some(s) => Lookup::Hit(self.state_at(s)),
            None => Lookup::Miss,
        }
    }

    /// Where a line sits, without touching LRU (snoops, directory updates).
    pub(crate) fn slot_of(&self, line_addr: u64) -> Option<Slot> {
        self.find(line_addr)
    }

    /// Look up without touching LRU (snoops).
    pub fn probe(&self, line_addr: u64) -> Lookup {
        match self.slot_of(line_addr) {
            Some(s) => Lookup::Hit(self.state_at(s)),
            None => Lookup::Miss,
        }
    }

    /// The state of the line in a slot.
    #[inline]
    pub fn state_at(&self, s: Slot) -> Mesi {
        self.sets[s.set()].states[s.way()]
    }

    /// Change the state of the line in a slot.
    #[inline]
    pub fn set_state_at(&mut self, s: Slot, state: Mesi) {
        self.sets[s.set()].states[s.way()] = state;
    }

    /// The presence mask of the line in a slot.
    #[inline]
    pub fn presence_at(&self, s: Slot) -> u8 {
        self.sets[s.set()].presence[s.way()]
    }

    /// Replace the presence mask of the line in a slot.
    #[inline]
    pub fn set_presence_at(&mut self, s: Slot, mask: u8) {
        self.sets[s.set()].presence[s.way()] = mask;
    }

    /// Change the state of a present line. No-op if absent.
    pub fn set_state(&mut self, line_addr: u64, state: Mesi) {
        if let Some(s) = self.slot_of(line_addr) {
            self.set_state_at(s, state);
        }
    }

    /// Invalidate a line; returns its pre-invalidation state (and presence)
    /// if it was present.
    pub fn invalidate(&mut self, line_addr: u64) -> Option<(Mesi, u8)> {
        self.slot_of(line_addr).map(|s| self.invalidate_at(s))
    }

    /// Invalidate the line in a slot; returns its state and presence.
    pub(crate) fn invalidate_at(&mut self, s: Slot) -> (Mesi, u8) {
        if s == self.memo_slot {
            self.memo_line = KEY_INVALID;
        }
        let set = &mut self.sets[s.set()];
        let (w, state, presence) = (s.way(), set.states[s.way()], set.presence[s.way()]);
        set.keys[w] = KEY_INVALID;
        set.states[w] = Mesi::Invalid;
        set.presence[w] = 0;
        (state, presence)
    }

    /// Insert a line with the given state, evicting LRU if needed.
    pub fn fill(&mut self, line_addr: u64, state: Mesi) -> Option<Victim> {
        match self.find(line_addr) {
            Some(s) => {
                self.set_state_at(s, state);
                self.touch(s, line_addr);
                None
            }
            None => self.fill_absent(line_addr, state).1,
        }
    }

    /// [`CacheArray::fill`] of a line the caller knows is absent: skips the
    /// re-find and returns where the line now sits.
    #[inline]
    pub fn fill_absent(&mut self, line_addr: u64, state: Mesi) -> (Slot, Option<Victim>) {
        debug_assert!(self.find(line_addr).is_none(), "fill_absent of a present line");
        let si = self.set_of(line_addr);
        let set = &mut self.sets[si];
        // The first invalid way, else the least recent. Valid ways' stamps
        // are distinct, so only a 1-way set can leave every stamp at
        // u32::MAX unbeaten, and its one way is way 0.
        let mut w = 0;
        let mut oldest = u32::MAX;
        for v in 0..self.ways {
            if set.keys[v] == KEY_INVALID {
                w = v;
                break;
            }
            if set.stamps[v] < oldest {
                oldest = set.stamps[v];
                w = v;
            }
        }
        let victim = (set.keys[w] != KEY_INVALID).then(|| Victim {
            line_addr: set.keys[w],
            state: set.states[w],
            presence: set.presence[w],
        });
        set.keys[w] = line_addr;
        set.states[w] = state;
        set.presence[w] = 0;
        let s = Slot(si * MAX_WAYS + w);
        self.touch(s, line_addr);
        (s, victim)
    }

    /// Read the presence mask of a present line (0 if absent).
    pub fn presence(&self, line_addr: u64) -> u8 {
        self.slot_of(line_addr).map_or(0, |s| self.presence_at(s))
    }

    /// Update the presence mask of a present line.
    pub fn set_presence(&mut self, line_addr: u64, mask: u8) {
        if let Some(s) = self.slot_of(line_addr) {
            self.set_presence_at(s, mask);
        }
    }

    /// Or bits into the presence mask.
    pub fn add_presence(&mut self, line_addr: u64, bits: u8) {
        if let Some(s) = self.slot_of(line_addr) {
            self.set_presence_at(s, self.presence_at(s) | bits);
        }
    }

    /// Number of valid lines (tests / occupancy reporting).
    pub fn valid_lines(&self) -> usize {
        self.sets.iter().flat_map(|s| s.keys).filter(|&k| k != KEY_INVALID).count()
    }

    /// An empty array whose stamp counter starts at `stamp`, so a test can
    /// cross the renumbering.
    #[cfg(test)]
    fn with_stamp(sets: u32, ways: u32, stamp: u32) -> Self {
        CacheArray { stamp, ..Self::new(sets, ways) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> CacheArray {
        CacheArray::new(4, 2)
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert_eq!(c.lookup(100), Lookup::Miss);
        assert_eq!(c.fill(100, Mesi::Exclusive), None);
        assert_eq!(c.lookup(100), Lookup::Hit(Mesi::Exclusive));
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = small();
        // Lines 0, 4, 8 map to set 0 (4 sets). Two ways: filling three
        // evicts the least recently used.
        c.fill(0, Mesi::Exclusive);
        c.fill(4, Mesi::Exclusive);
        c.lookup(0); // refresh 0; 4 is now LRU
        let v = c.fill(8, Mesi::Exclusive).expect("eviction");
        assert_eq!(v.line_addr, 4);
        assert_eq!(c.probe(0), Lookup::Hit(Mesi::Exclusive));
        assert_eq!(c.probe(4), Lookup::Miss);
    }

    #[test]
    fn dirty_victim_reported() {
        let mut c = small();
        c.fill(0, Mesi::Modified);
        c.fill(4, Mesi::Exclusive);
        c.lookup(4);
        c.lookup(4);
        // 0 is LRU.
        let v = c.fill(8, Mesi::Exclusive).unwrap();
        assert_eq!(v.state, Mesi::Modified);
        assert_eq!(v.line_addr, 0);
    }

    #[test]
    fn invalidate_returns_state() {
        let mut c = small();
        c.fill(3, Mesi::Modified);
        assert_eq!(c.invalidate(3), Some((Mesi::Modified, 0)));
        assert_eq!(c.invalidate(3), None);
        assert_eq!(c.probe(3), Lookup::Miss);
    }

    #[test]
    fn presence_mask_tracks_sharers() {
        let mut c = small();
        c.fill(7, Mesi::Shared);
        c.add_presence(7, 0b01);
        c.add_presence(7, 0b10);
        assert_eq!(c.presence(7), 0b11);
        c.set_presence(7, 0b10);
        assert_eq!(c.presence(7), 0b10);
        assert_eq!(c.presence(999), 0);
    }

    #[test]
    fn refill_same_line_updates_state_without_eviction() {
        let mut c = small();
        c.fill(5, Mesi::Shared);
        assert_eq!(c.fill(5, Mesi::Modified), None);
        assert_eq!(c.probe(5), Lookup::Hit(Mesi::Modified));
        assert_eq!(c.valid_lines(), 1);
    }

    #[test]
    fn mru_fast_path_agrees_with_scan() {
        // Alternate hits between two ways of the same set: every lookup must
        // hit regardless of which way is MRU, and LRU ordering must be
        // unchanged by the fast path (the later-touched line survives).
        let mut c = small();
        c.fill(0, Mesi::Exclusive);
        c.fill(4, Mesi::Shared);
        for _ in 0..10 {
            assert_eq!(c.lookup(0), Lookup::Hit(Mesi::Exclusive));
            assert_eq!(c.lookup(4), Lookup::Hit(Mesi::Shared));
        }
        c.lookup(0); // 4 is now LRU
        let v = c.fill(8, Mesi::Exclusive).expect("eviction");
        assert_eq!(v.line_addr, 4);
    }

    #[test]
    fn mru_survives_invalidation_of_the_mru_way() {
        let mut c = small();
        c.fill(0, Mesi::Exclusive);
        c.fill(4, Mesi::Exclusive);
        c.lookup(4); // MRU points at 4's way
        c.invalidate(4);
        // Fast path misses on the stale MRU way; scan still finds 0.
        assert_eq!(c.lookup(0), Lookup::Hit(Mesi::Exclusive));
        assert_eq!(c.lookup(4), Lookup::Miss);
    }

    #[test]
    fn memo_hit_sees_state_changes_and_invalidation() {
        let mut c = small();
        c.fill(4, Mesi::Exclusive);
        c.set_state(4, Mesi::Modified);
        assert_eq!(c.lookup(4), Lookup::Hit(Mesi::Modified));
        c.invalidate(4);
        assert_eq!(c.lookup(4), Lookup::Miss);
        // Refilling into the freed way re-arms the memo on the new line.
        let (s, v) = c.fill_absent(8, Mesi::Shared);
        assert_eq!(v, None);
        assert_eq!(c.lookup_slot(8), Some(s));
        assert_eq!(c.lookup_slot(4), None);
    }

    #[test]
    fn stamps_renumber_across_the_wrap_without_moving_an_answer() {
        // The same ops on a fresh array and on one whose stamp counter
        // wraps a few dozen refreshes in: every hit, slot and victim must
        // agree, before, across and after the renumbering.
        for ways in [1, 2, 4, 8] {
            let mut fresh = CacheArray::new(4, ways);
            let mut wrapping = CacheArray::with_stamp(4, ways, u32::MAX - 40);
            let mut x = 0x853C_49E6_748F_EA9Bu64;
            for n in 0..3_000 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let line = (x >> 33) % 48;
                match (x >> 20) % 4 {
                    0 => assert_eq!(fresh.lookup(line), wrapping.lookup(line), "op {n}"),
                    1 => assert_eq!(
                        fresh.fill(line, Mesi::Exclusive),
                        wrapping.fill(line, Mesi::Exclusive),
                        "op {n}: victim"
                    ),
                    2 => assert_eq!(fresh.invalidate(line), wrapping.invalidate(line), "op {n}"),
                    _ => assert_eq!(fresh.lookup_slot(line), wrapping.lookup_slot(line), "op {n}"),
                }
            }
            assert_eq!(fresh.valid_lines(), wrapping.valid_lines());
            assert!(wrapping.stamp < fresh.stamp, "{ways} ways: the counter wrapped and restarted");
        }
    }

    #[test]
    fn different_sets_do_not_interfere() {
        let mut c = small();
        for addr in 0..4u64 {
            c.fill(addr, Mesi::Exclusive);
        }
        assert_eq!(c.valid_lines(), 4);
        for addr in 0..4u64 {
            assert!(matches!(c.probe(addr), Lookup::Hit(_)));
        }
    }
}
