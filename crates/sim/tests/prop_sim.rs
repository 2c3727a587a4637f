//! Property tests for simulator components: the cache array (memo, MRU
//! hint, slot handles, lines up to the key bound) at 1, 2, 4 and 8 ways
//! against a reference LRU model, timeline monotonicity, and channel conservation.

use aon_sim::bus::{BusyTimeline, SlotTimeline};
use aon_sim::cache::{CacheArray, Lookup, Mesi, Victim};
use aon_sim::sync::{ChannelConfig, Msg, SimChannel};
use proptest::prelude::*;
use std::collections::VecDeque;

/// One line of the reference model.
#[derive(Debug, Clone, Copy)]
struct RefLine {
    line: u64,
    state: Mesi,
    presence: u8,
}

/// Reference model: per-set LRU lists, least recently used first.
struct RefCache {
    sets: u64,
    ways: usize,
    lists: Vec<VecDeque<RefLine>>,
}

impl RefCache {
    fn new(sets: u64, ways: usize) -> Self {
        RefCache { sets, ways, lists: (0..sets).map(|_| VecDeque::new()).collect() }
    }

    fn set_of(&self, line: u64) -> usize {
        usize::try_from(line % self.sets).expect("set count fits usize")
    }

    fn get(&mut self, line: u64) -> Option<&mut RefLine> {
        let s = self.set_of(line);
        self.lists[s].iter_mut().find(|l| l.line == line)
    }

    /// Move a present line to the MRU end and return it.
    fn touch(&mut self, line: u64) -> Option<&mut RefLine> {
        let s = self.set_of(line);
        let pos = self.lists[s].iter().position(|l| l.line == line)?;
        let l = self.lists[s].remove(pos).expect("present");
        self.lists[s].push_back(l);
        self.lists[s].back_mut()
    }

    fn lookup(&mut self, line: u64) -> Option<Mesi> {
        self.touch(line).map(|l| l.state)
    }

    fn fill(&mut self, line: u64, state: Mesi) -> Option<Victim> {
        if let Some(l) = self.touch(line) {
            l.state = state;
            return None;
        }
        let s = self.set_of(line);
        let victim = (self.lists[s].len() == self.ways).then(|| {
            let v = self.lists[s].pop_front().expect("full set");
            Victim { line_addr: v.line, state: v.state, presence: v.presence }
        });
        self.lists[s].push_back(RefLine { line, state, presence: 0 });
        victim
    }

    fn invalidate(&mut self, line: u64) -> Option<(Mesi, u8)> {
        let s = self.set_of(line);
        let pos = self.lists[s].iter().position(|l| l.line == line)?;
        self.lists[s].remove(pos).map(|l| (l.state, l.presence))
    }
}

#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Lookup,
    /// `lookup_slot`, then a state and presence write through the slot.
    LookupSlot,
    Probe,
    Fill,
    /// `fill_absent` when the line is absent, `fill` otherwise.
    FillAbsent,
    Invalidate,
    SetState,
    Presence,
    AddPresence,
    SetPresence,
}

/// An op, its line (`None`: the previous op's line — usually the memo
/// line, so lookups repeat it and invalidations and state changes hit
/// it), a state and a presence mask.
fn arb_cache_step() -> impl Strategy<Value = (CacheOp, Option<u64>, Mesi, u8)> {
    use CacheOp::*;
    (
        prop::sample::select(vec![
            Lookup,
            Lookup,
            LookupSlot,
            Probe,
            Fill,
            FillAbsent,
            Invalidate,
            SetState,
            Presence,
            AddPresence,
            SetPresence,
        ]),
        // A small line universe so sets conflict frequently: 256 lines at
        // the bottom and 256 just below the key bound, 2^32 - 1.
        (0u64..512, any::<bool>()).prop_map(|(n, again)| {
            let line = if n < 256 { n } else { u64::from(u32::MAX) - 512 + n };
            (!again).then_some(line)
        }),
        prop::sample::select(vec![Mesi::Modified, Mesi::Exclusive, Mesi::Shared]),
        any::<u8>(),
    )
}

proptest! {
    #[test]
    fn cache_agrees_with_reference_lru(
        ways in prop::sample::select(vec![1usize, 2, 4, 8]),
        steps in prop::collection::vec(arb_cache_step(), 1..500),
    ) {
        let mut cache = CacheArray::new(8, u32::try_from(ways).expect("ways fit u32"));
        let mut reference = RefCache::new(8, ways);
        let mut prev = 0u64;
        for (n, (op, line, state, bits)) in steps.into_iter().enumerate() {
            let l = line.unwrap_or(prev);
            prev = l;
            match op {
                CacheOp::Lookup => {
                    let want = reference.lookup(l).map_or(Lookup::Miss, Lookup::Hit);
                    let got = cache.lookup(l);
                    prop_assert_eq!(got, want, "op {}: lookup({}) {:?}, reference {:?}", n, l, got, want);
                }
                CacheOp::LookupSlot => {
                    let want = reference.touch(l).map(|r| {
                        r.state = state;
                        r.presence = bits;
                        (state, bits)
                    });
                    let got = cache.lookup_slot(l).map(|s| {
                        cache.set_state_at(s, state);
                        cache.set_presence_at(s, bits);
                        (cache.state_at(s), cache.presence_at(s))
                    });
                    prop_assert_eq!(got, want, "op {}: lookup_slot({}) {:?}, reference {:?}", n, l, got, want);
                }
                CacheOp::Probe => {
                    let want = reference.get(l).map_or(Lookup::Miss, |r| Lookup::Hit(r.state));
                    let got = cache.probe(l);
                    prop_assert_eq!(got, want, "op {}: probe({}) {:?}, reference {:?}", n, l, got, want);
                }
                CacheOp::Fill => {
                    let want = reference.fill(l, state);
                    let got = cache.fill(l, state);
                    prop_assert_eq!(got, want, "op {}: fill({}) victim {:?}, reference {:?}", n, l, got, want);
                }
                CacheOp::FillAbsent => {
                    let absent = reference.get(l).is_none();
                    let want = reference.fill(l, state);
                    let got = if absent {
                        let (s, v) = cache.fill_absent(l, state);
                        prop_assert_eq!(cache.state_at(s), state, "op {}: fill_absent({}) slot", n, l);
                        // The new line is the memo: a lookup finds it in the
                        // slot the fill returned and moves no LRU order.
                        prop_assert_eq!(cache.lookup_slot(l), Some(s), "op {}: fill_absent({}) slot", n, l);
                        v
                    } else {
                        cache.fill(l, state)
                    };
                    prop_assert_eq!(got, want, "op {}: fill_absent({}) victim {:?}, reference {:?}", n, l, got, want);
                }
                CacheOp::Invalidate => {
                    let want = reference.invalidate(l);
                    let got = cache.invalidate(l);
                    prop_assert_eq!(got, want, "op {}: invalidate({}) {:?}, reference {:?}", n, l, got, want);
                }
                CacheOp::SetState => {
                    if let Some(r) = reference.get(l) {
                        r.state = state;
                    }
                    cache.set_state(l, state);
                    let want = reference.get(l).map_or(Lookup::Miss, |r| Lookup::Hit(r.state));
                    let got = cache.probe(l);
                    prop_assert_eq!(got, want, "op {}: set_state({}) then {:?}, reference {:?}", n, l, got, want);
                }
                CacheOp::Presence => {
                    let want = reference.get(l).map_or(0, |r| r.presence);
                    let got = cache.presence(l);
                    prop_assert_eq!(got, want, "op {}: presence({}) {}, reference {}", n, l, got, want);
                }
                CacheOp::AddPresence => {
                    if let Some(r) = reference.get(l) {
                        r.presence |= bits;
                    }
                    cache.add_presence(l, bits);
                    let want = reference.get(l).map_or(0, |r| r.presence);
                    let got = cache.presence(l);
                    prop_assert_eq!(got, want, "op {}: add_presence({}) then {}, reference {}", n, l, got, want);
                }
                CacheOp::SetPresence => {
                    if let Some(r) = reference.get(l) {
                        r.presence = bits;
                    }
                    cache.set_presence(l, bits);
                    let want = reference.get(l).map_or(0, |r| r.presence);
                    let got = cache.presence(l);
                    prop_assert_eq!(got, want, "op {}: set_presence({}) then {}, reference {}", n, l, got, want);
                }
            }
        }
        let live: usize = reference.lists.iter().map(VecDeque::len).sum();
        prop_assert_eq!(cache.valid_lines(), live, "valid lines {}, reference {}", cache.valid_lines(), live);
    }

    #[test]
    fn slot_timeline_is_monotonic_and_rate_limited(
        width in 10u32..400,
        bookings in prop::collection::vec((0u64..10_000, 1u16..50), 1..200),
    ) {
        let mut t = SlotTimeline::new(width);
        let mut prev_end = 0u64;
        let mut total_slots = 0u64;
        let mut max_earliest = 0u64;
        for (earliest, slots) in bookings {
            let end = t.book(earliest, slots);
            total_slots += u64::from(slots);
            max_earliest = max_earliest.max(earliest);
            // Completion can never regress.
            prop_assert!(end >= prev_end);
            prev_end = end;
        }
        // Cannot complete faster than the width allows.
        let min_cycles = total_slots * 100 / width as u64;
        prop_assert!(prev_end + 1 >= min_cycles, "end {} < min {}", prev_end, min_cycles);
    }

    #[test]
    fn busy_timeline_bookings_never_overlap(
        bookings in prop::collection::vec((0u64..10_000, 1u64..100), 1..200),
    ) {
        let mut t = BusyTimeline::new();
        let mut prev_end = 0u64;
        let mut busy_sum = 0u64;
        for (earliest, busy) in bookings {
            let (start, end) = t.book(earliest, busy);
            prop_assert!(start >= earliest);
            prop_assert!(start >= prev_end, "windows must not overlap");
            prop_assert_eq!(end - start, busy);
            prev_end = end;
            busy_sum += busy;
        }
        prop_assert_eq!(t.busy_total(), busy_sum);
    }

    #[test]
    fn channel_conserves_bytes(
        capacity in 1000u32..100_000,
        sends in prop::collection::vec((1u32..5_000, any::<u64>()), 1..100),
    ) {
        let mut ch = SimChannel::new(ChannelConfig::bounded(capacity));
        let mut accepted = 0u64;
        let mut received = 0u64;
        let mut now = 0u64;
        for (bytes, tag) in sends {
            now += 10;
            if ch.try_send(Msg { bytes: bytes.min(capacity) , tag }, now) {
                accepted += bytes.min(capacity) as u64;
            }
            // Occasionally drain one message.
            if tag % 3 == 0 {
                if let Some(m) = ch.try_recv(now) {
                    received += m.bytes as u64;
                }
            }
            prop_assert!(ch.occupied(now) <= capacity as u64);
        }
        // Drain the rest.
        while let Some(m) = ch.try_recv(now) {
            received += m.bytes as u64;
        }
        prop_assert_eq!(accepted, received, "bytes in == bytes out");
        prop_assert_eq!(ch.occupied(now), 0);
    }

    #[test]
    fn draining_channel_never_loses_messages_midair(
        drain in 1u32..2000,
        msgs in prop::collection::vec(1u32..2000, 1..50),
    ) {
        let mut ch = SimChannel::new(ChannelConfig {
            capacity: 1 << 20,
            drain_per_kcycle: drain,
            fill: None,
        });
        let mut sent = 0u64;
        for (i, bytes) in msgs.iter().enumerate() {
            assert!(ch.try_send(Msg { bytes: *bytes, tag: i as u64 }, i as u64 * 5));
            sent += *bytes as u64;
        }
        // After enough time everything drains, exactly once.
        let eta = sent * 1024 / drain as u64 + msgs.len() as u64 * 10 + 10;
        prop_assert_eq!(ch.occupied(eta * 2), 0);
        prop_assert_eq!(ch.total_bytes_out, sent);
    }
}
