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

/// Per-line metadata off the scan path: MESI state, presence mask, LRU
/// stamp. Only touched once a key compare has already identified the way.
#[derive(Debug, Clone, Copy)]
struct Meta {
    state: Mesi,
    /// Owner-defined presence mask (directory bits for inclusive L2s).
    presence: u8,
    /// LRU stamp (bigger = more recent).
    lru: u64,
}

const EMPTY_META: Meta = Meta { state: Mesi::Invalid, presence: 0, lru: 0 };

/// The key of an empty way. No line address reaches it: a line address is
/// a byte address shifted right by the line size.
const KEY_INVALID: u64 = u64::MAX;

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

/// Where a present line sits in its array. Reads and writes through a
/// slot skip the set scan; a slot stays valid until the next fill or
/// invalidation on the same array.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot(usize);

/// A set-associative array indexed by line address.
///
/// Structure-of-arrays layout: the scan path compares line addresses — one
/// u64 key per way, so an 8-way set scan touches a single host cache line —
/// while MESI state, presence and LRU stamps live in a parallel metadata
/// array that is only dereferenced once a key compare has identified the
/// way.
///
/// Two hints make the common lookups cheap without changing any answer. The
/// array remembers its newest-stamped line and that line's slot (the
/// *memo*): looking that line up again would only replace the newest stamp
/// with a newer one, which moves no relative LRU order, so the lookup
/// returns the slot and writes nothing. Failing that, each set's MRU way is
/// compared before the set is scanned.
#[derive(Debug, Clone)]
pub struct CacheArray {
    sets: u32,
    ways: u32,
    /// Line address per way; [`KEY_INVALID`] for empty ways.
    keys: Vec<u64>,
    meta: Vec<Meta>,
    /// The newest LRU stamp handed out; advances only when a line takes it.
    stamp: u64,
    /// Per-set slot of the most-recently-used way.
    mru: Vec<u32>,
    /// The line holding stamp `stamp`, or [`KEY_INVALID`] once it is gone.
    memo_line: u64,
    /// That line's slot.
    memo_slot: usize,
}

impl CacheArray {
    /// Build an array with `sets` sets of `ways` ways.
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(ways > 0);
        CacheArray {
            sets,
            ways,
            keys: vec![KEY_INVALID; (sets * ways) as usize],
            meta: vec![EMPTY_META; (sets * ways) as usize],
            stamp: 0,
            mru: (0..sets).map(|s| s * ways).collect(),
            memo_line: KEY_INVALID,
            memo_slot: 0,
        }
    }

    /// Build from a [`crate::config::CacheConfig`].
    pub fn from_config(cfg: &crate::config::CacheConfig) -> Self {
        Self::new(cfg.sets(), cfg.ways)
    }

    #[inline]
    fn set_of(&self, line_addr: u64) -> u32 {
        debug_assert_ne!(line_addr, KEY_INVALID, "line address collides with the empty key");
        // Mask in u64 first; the result then converts exactly.
        u32::try_from(line_addr & u64::from(self.sets - 1)).expect("masked to set index range")
    }

    #[inline]
    fn set_range(&self, set: u32) -> std::ops::Range<usize> {
        let base = (set * self.ways) as usize;
        base..base + self.ways as usize
    }

    fn find(&self, line_addr: u64) -> Option<usize> {
        self.set_range(self.set_of(line_addr)).find(|&i| self.keys[i] == line_addr)
    }

    /// Give `line_addr`, in slot `i`, the next stamp: it becomes the memo.
    #[inline]
    fn refresh(&mut self, i: usize, line_addr: u64) {
        self.stamp += 1;
        self.meta[i].lru = self.stamp;
        self.memo_line = line_addr;
        self.memo_slot = i;
    }

    /// [`CacheArray::refresh`], and slot `i` becomes its set's MRU way.
    #[inline]
    fn touch(&mut self, set: u32, i: usize, line_addr: u64) {
        self.refresh(i, line_addr);
        self.mru[set as usize] = u32::try_from(i).expect("slot index fits u32");
    }

    /// Look up a line, refreshing LRU on a hit; returns where it sits.
    ///
    /// Inlined so the memory system's hit paths collapse into one compare
    /// at the call site: the memo line first, then the set's MRU way. The
    /// set scan is outlined.
    #[inline(always)]
    pub fn lookup_slot(&mut self, line_addr: u64) -> Option<Slot> {
        if line_addr == self.memo_line {
            debug_assert_eq!(self.meta[self.memo_slot].lru, self.stamp, "memo is the newest line");
            return Some(Slot(self.memo_slot));
        }
        let set = self.set_of(line_addr);
        let i = self.mru[set as usize] as usize;
        if self.keys[i] == line_addr {
            self.refresh(i, line_addr);
            return Some(Slot(i));
        }
        self.lookup_scan(set, line_addr)
    }

    /// The non-MRU half of [`CacheArray::lookup_slot`].
    fn lookup_scan(&mut self, set: u32, line_addr: u64) -> Option<Slot> {
        let i = self.set_range(set).find(|&i| self.keys[i] == line_addr)?;
        self.touch(set, i, line_addr);
        Some(Slot(i))
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
        self.find(line_addr).map(Slot)
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
        self.meta[s.0].state
    }

    /// Change the state of the line in a slot.
    #[inline]
    pub fn set_state_at(&mut self, s: Slot, state: Mesi) {
        self.meta[s.0].state = state;
    }

    /// The presence mask of the line in a slot.
    #[inline]
    pub fn presence_at(&self, s: Slot) -> u8 {
        self.meta[s.0].presence
    }

    /// Replace the presence mask of the line in a slot.
    #[inline]
    pub fn set_presence_at(&mut self, s: Slot, mask: u8) {
        self.meta[s.0].presence = mask;
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
        let Meta { state, presence, .. } = self.meta[s.0];
        if s.0 == self.memo_slot {
            self.memo_line = KEY_INVALID;
        }
        self.keys[s.0] = KEY_INVALID;
        self.meta[s.0] = EMPTY_META;
        (state, presence)
    }

    /// Insert a line with the given state, evicting LRU if needed.
    pub fn fill(&mut self, line_addr: u64, state: Mesi) -> Option<Victim> {
        match self.find(line_addr) {
            Some(i) => {
                self.meta[i].state = state;
                self.touch(self.set_of(line_addr), i, line_addr);
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
        let set = self.set_of(line_addr);
        // Prefer an invalid way, else LRU.
        let mut victim_idx = None;
        let mut oldest = u64::MAX;
        for i in self.set_range(set) {
            if self.keys[i] == KEY_INVALID {
                victim_idx = Some(i);
                break;
            }
            if self.meta[i].lru < oldest {
                oldest = self.meta[i].lru;
                victim_idx = Some(i);
            }
        }
        let i = victim_idx.expect("ways > 0");
        let victim = (self.keys[i] != KEY_INVALID).then(|| Victim {
            line_addr: self.keys[i],
            state: self.meta[i].state,
            presence: self.meta[i].presence,
        });
        self.keys[i] = line_addr;
        self.meta[i] = Meta { state, presence: 0, lru: 0 };
        self.touch(set, i, line_addr);
        (Slot(i), victim)
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
        self.keys.iter().filter(|&&k| k != KEY_INVALID).count()
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
