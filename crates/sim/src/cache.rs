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
/// associativity. Keys are `u32` line addresses: every simulated byte
/// address lies below 4 GiB (the highest region base is the server's
/// third kernel region at `0x9000_0000`), so every line address is below
/// 2²⁶. This value is the key bound: a lookup of a line at or above it
/// misses, and a fill of one panics.
const KEY_INVALID: u32 = u32::MAX;

/// Bit 0 of every byte: column 0 of an age matrix.
const COLUMN: u64 = 0x0101_0101_0101_0101;

/// One simulated set in one 64-byte host line: keys, the LRU age matrix,
/// MESI states, presence masks and the MRU way. A lookup, a fill and its
/// victim choice read and write this line only.
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Set {
    /// Line address per way; [`KEY_INVALID`] for empty ways.
    keys: [u32; MAX_WAYS],
    /// The LRU age matrix, one byte per way: bit `v` of byte `w` is set
    /// when way `w` was touched more recently than way `v`. Touching `w`
    /// sets its row and clears its column, so the least recent way is the
    /// one whose row, over the array's ways, is zero.
    lru: u64,
    states: [Mesi; MAX_WAYS],
    /// Owner-defined presence mask (directory bits for inclusive L2s).
    presence: [u8; MAX_WAYS],
    /// The most-recently-used way.
    mru: u8,
}

const _: () = assert!(std::mem::size_of::<Set>() == 64, "a set is one host cache line");

const EMPTY_SET: Set = Set {
    keys: [KEY_INVALID; MAX_WAYS],
    lru: 0,
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
/// One host cache line per simulated set ([`Set`], 64 bytes): a lookup, a
/// fill and its victim choice touch one line, never several arrays. The
/// key compare covers all eight `u32` keys at once (ways past the
/// associativity hold [`KEY_INVALID`], which no line matches), so it needs
/// no branch per way.
///
/// Recency is an 8 × 8-bit age matrix per set, so no counter is shared
/// across sets and nothing wraps. The victim is the first invalid way,
/// else the way whose row is zero: one zero-byte find.
///
/// Two hints make the common lookups cheap without changing any answer. The
/// array remembers the line it touched last and that line's slot (the
/// *memo*): touching that line again would set a row that is already set
/// and clear a column that is already clear, so the lookup returns the
/// slot and writes nothing. Failing that, each set's MRU way is compared
/// before the set is scanned.
#[derive(Debug, Clone)]
pub struct CacheArray {
    /// Set count minus one: the set index mask.
    set_mask: u32,
    /// Bit `w` set for each way `w` of the associativity.
    way_mask: u32,
    /// Each age-matrix row masked to the associativity's columns, with
    /// every row past the associativity made nonzero: the operand of the
    /// zero-row find. The find takes the lowest zero byte, so the pad
    /// moves no victim; it keeps the array at 64 bytes, so the replay
    /// loop indexes the per-core arrays by a shift, not a multiply, and
    /// the grid read slower without it (DESIGN.md §11, layer 3).
    row_mask: u64,
    row_pad: u64,
    sets: Vec<Set>,
    /// The line touched last, or [`KEY_INVALID`] once it is gone.
    memo_key: u32,
    /// That line's slot.
    memo_slot: Slot,
}

impl CacheArray {
    /// Build an array with `sets` sets of `ways` ways (at most eight).
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        let ways = usize::try_from(ways).expect("way count fits usize");
        assert!((1..=MAX_WAYS).contains(&ways), "1 to {MAX_WAYS} ways, not {ways}");
        let way_mask = (1u32 << ways) - 1;
        CacheArray {
            set_mask: sets - 1,
            way_mask,
            row_mask: COLUMN * u64::from(way_mask),
            row_pad: COLUMN & !(u64::MAX >> (64 - 8 * ways)),
            sets: vec![EMPTY_SET; sets as usize],
            memo_key: KEY_INVALID,
            memo_slot: Slot(0),
        }
    }

    /// Build from a [`crate::config::CacheConfig`].
    pub fn from_config(cfg: &crate::config::CacheConfig) -> Self {
        Self::new(cfg.sets(), cfg.ways)
    }

    /// The key of a line address, or `None` at or above the key bound.
    #[inline]
    fn key(line_addr: u64) -> Option<u32> {
        u32::try_from(line_addr).ok().filter(|&k| k != KEY_INVALID)
    }

    #[inline]
    fn set_of(&self, key: u32) -> usize {
        (key & self.set_mask) as usize
    }

    /// Bit `w` set for each way of `keys` holding `key`: eight lane
    /// compares and a mask, no branch per way.
    #[inline]
    fn matches(keys: &[u32; MAX_WAYS], key: u32) -> u32 {
        keys.iter().enumerate().fold(0, |m, (w, &k)| m | (u32::from(k == key) << w))
    }

    /// The way of `set` holding `key` (keys are unique in a set, so at
    /// most one bit matches).
    #[inline]
    fn way_in(set: &Set, key: u32) -> Option<usize> {
        let hits = Self::matches(&set.keys, key);
        (hits != 0).then(|| hits.trailing_zeros() as usize)
    }

    /// Make slot `s`, holding `key`, its set's most recent way and the
    /// memo.
    #[inline]
    fn touch(&mut self, s: Slot, key: u32) {
        let w = s.way();
        let set = &mut self.sets[s.set()];
        set.lru = (set.lru | 0xFF << (8 * w)) & !(COLUMN << w);
        set.mru = u8::try_from(w).expect("way index fits u8");
        self.memo_key = key;
        self.memo_slot = s;
    }

    /// Look up a line, refreshing LRU on a hit; returns where it sits.
    ///
    /// Inlined so the memory system's hit paths collapse into one compare
    /// at the call site: the memo line first, then the set's MRU way. The
    /// set scan is outlined.
    #[inline(always)]
    pub fn lookup_slot(&mut self, line_addr: u64) -> Option<Slot> {
        let key = Self::key(line_addr)?;
        if key == self.memo_key {
            return Some(self.memo_slot);
        }
        let set = self.set_of(key);
        let w = usize::from(self.sets[set].mru);
        if self.sets[set].keys[w] == key {
            let s = Slot(set * MAX_WAYS + w);
            self.touch(s, key);
            return Some(s);
        }
        self.lookup_scan(set, key)
    }

    /// The non-MRU half of [`CacheArray::lookup_slot`].
    fn lookup_scan(&mut self, set: usize, key: u32) -> Option<Slot> {
        let s = Slot(set * MAX_WAYS + Self::way_in(&self.sets[set], key)?);
        self.touch(s, key);
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
        let key = Self::key(line_addr)?;
        let set = self.set_of(key);
        Self::way_in(&self.sets[set], key).map(|w| Slot(set * MAX_WAYS + w))
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

    /// Invalidate the line in a slot; returns its state and presence. The
    /// age matrix keeps the way's row: an empty way is chosen before any
    /// row is read, and its refill touches it.
    pub(crate) fn invalidate_at(&mut self, s: Slot) -> (Mesi, u8) {
        if s == self.memo_slot {
            self.memo_key = KEY_INVALID;
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
        match self.slot_of(line_addr) {
            Some(s) => {
                self.set_state_at(s, state);
                self.touch(s, self.sets[s.set()].keys[s.way()]);
                None
            }
            None => self.fill_absent(line_addr, state).1,
        }
    }

    /// [`CacheArray::fill`] of a line the caller knows is absent: skips the
    /// re-find and returns where the line now sits.
    ///
    /// # Panics
    ///
    /// If `line_addr` is not below the key bound, 2³² − 1.
    #[inline]
    pub fn fill_absent(&mut self, line_addr: u64, state: Mesi) -> (Slot, Option<Victim>) {
        let key = Self::key(line_addr).expect("a cached line address lies below 2^32 - 1");
        debug_assert!(self.slot_of(line_addr).is_none(), "fill_absent of a present line");
        let si = self.set_of(key);
        let set = &mut self.sets[si];
        // The first invalid way, else the least recent: with every way
        // valid, every way has been touched, so exactly one of their rows
        // is zero over their columns. Rows past the associativity are zero
        // too, but the find takes the lowest zero byte.
        let empty = Self::matches(&set.keys, KEY_INVALID) & self.way_mask;
        let w = if empty != 0 {
            empty.trailing_zeros() as usize
        } else {
            let rows = (set.lru & self.row_mask) | self.row_pad;
            let zero = rows.wrapping_sub(COLUMN) & !rows & (COLUMN << 7);
            (zero.trailing_zeros() / 8) as usize
        };
        let victim = (set.keys[w] != KEY_INVALID).then(|| Victim {
            line_addr: u64::from(set.keys[w]),
            state: set.states[w],
            presence: set.presence[w],
        });
        set.keys[w] = key;
        set.states[w] = state;
        set.presence[w] = 0;
        let s = Slot(si * MAX_WAYS + w);
        self.touch(s, key);
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
    fn the_victim_is_the_least_recent_valid_way() {
        // One set, a line universe half again the associativity, and a
        // recency list (least recent first) as the reference: after any mix
        // of touches, fills and invalidations, a fill evicts the head of
        // the list, and only when every way is valid.
        for ways in [1u32, 2, 4, 8] {
            let mut c = CacheArray::new(1, ways);
            let full = usize::try_from(ways).expect("way count fits usize");
            let mut recency: Vec<u64> = Vec::new();
            let mut x = 0x853C_49E6_748F_EA9Bu64;
            for n in 0..4_000 {
                x = x
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let line = (x >> 33) % u64::from(ways + ways / 2 + 1);
                let present = recency.contains(&line);
                match (x >> 20) % 3 {
                    0 => assert_eq!(c.lookup_slot(line).is_some(), present, "{ways} ways, op {n}"),
                    1 => assert_eq!(c.invalidate(line).is_some(), present, "{ways} ways, op {n}"),
                    _ => {
                        let want = (!present && recency.len() == full).then(|| recency[0]);
                        let got = c.fill(line, Mesi::Exclusive).map(|v| v.line_addr);
                        assert_eq!(got, want, "{ways} ways, op {n}: victim");
                        if let Some(v) = want {
                            recency.retain(|&l| l != v);
                        }
                    }
                }
                let touched = present || (x >> 20) % 3 == 2;
                recency.retain(|&l| l != line);
                if touched && (x >> 20) % 3 != 1 {
                    recency.push(line);
                }
            }
        }
    }

    #[test]
    fn lines_at_or_past_the_key_bound_miss() {
        // Every empty way holds the bound itself as its key: a lookup of
        // the bound must not find one of them, whether or not the memo is
        // armed.
        let mut c = small();
        let below = u64::from(u32::MAX) - 1;
        for line in [u64::from(u32::MAX), 1 << 32, u64::MAX] {
            assert_eq!(c.lookup(line), Lookup::Miss, "{line:#x}");
            assert_eq!(c.probe(line), Lookup::Miss, "{line:#x}");
            assert_eq!(c.invalidate(line), None, "{line:#x}");
            c.fill(below, Mesi::Shared);
            assert_eq!(c.lookup(line), Lookup::Miss, "{line:#x} after a fill");
            c.invalidate(below);
            assert_eq!(c.lookup(line), Lookup::Miss, "{line:#x} after an invalidation");
        }
        // The last line below the bound is an ordinary line.
        c.fill(below, Mesi::Modified);
        assert_eq!(c.lookup(below), Lookup::Hit(Mesi::Modified));
    }

    #[test]
    #[should_panic(expected = "below 2^32 - 1")]
    fn a_fill_of_the_key_bound_panics() {
        small().fill(u64::from(u32::MAX), Mesi::Shared);
    }

    #[test]
    #[should_panic(expected = "below 2^32 - 1")]
    fn a_fill_past_the_key_bound_panics() {
        small().fill_absent(1 << 32, Mesi::Shared);
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
