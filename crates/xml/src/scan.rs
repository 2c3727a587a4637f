//! SWAR delimiter scanning for the fast (untraced) parse path.
//!
//! Dependency-free `memchr`-style finders that examine input eight bytes
//! per iteration using the classic SWAR zero-byte trick: a byte of
//! interest is XOR-folded to zero, and `haszero(v) =
//! (v - 0x01…01) & !v & 0x80…80` lights the high bit of every zero byte.
//! `u64::from_le_bytes` fixes byte order, so `trailing_zeros / 8` is the
//! index of the *first* match on every platform.
//!
//! These back the serving path's event pass ([`crate::events`]) and the
//! untraced entity decoder. The traced path never calls into this module,
//! so simulator counter tables are unaffected by construction.
//!
//! Everything here is safe code (`unsafe_code = "forbid"` is a workspace
//! lint): chunking comes from `chunks_exact(8)` and word loads from an
//! explicit 8-byte array, which the compiler folds to a single load.

#![deny(clippy::as_conversions)]

/// Low bits of every byte lane.
const LO: u64 = 0x0101_0101_0101_0101;
/// High bits of every byte lane.
const HI: u64 = 0x8080_8080_8080_8080;

/// Broadcast `b` into all eight lanes.
#[inline]
fn splat(b: u8) -> u64 {
    LO * u64::from(b)
}

/// High bit set in every lane whose byte is zero.
#[inline]
const fn has_zero(v: u64) -> u64 {
    v.wrapping_sub(LO) & !v & HI
}

/// Load eight bytes as a little-endian word. `chunk` must be exactly eight
/// bytes (as produced by `chunks_exact(8)`).
#[inline]
fn word(chunk: &[u8]) -> u64 {
    u64::from_le_bytes([
        chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
    ])
}

/// Index of the first match from a non-zero lane mask.
#[inline]
fn first(mask: u64) -> usize {
    // trailing_zeros / 8 selects a lane, so the result is at most 7.
    usize::try_from(mask.trailing_zeros() >> 3).expect("lane index fits usize")
}

/// Position of the first `needle` in `hay`, eight bytes per iteration.
#[inline]
pub fn find_byte(needle: u8, hay: &[u8]) -> Option<usize> {
    let pat = splat(needle);
    let mut chunks = hay.chunks_exact(8);
    let mut off = 0usize;
    for c in chunks.by_ref() {
        let m = has_zero(word(c) ^ pat);
        if m != 0 {
            return Some(off + first(m));
        }
        off += 8;
    }
    chunks.remainder().iter().position(|&b| b == needle).map(|i| off + i)
}

/// Position of the first byte equal to `n1` or `n2`.
#[inline]
pub fn find_byte2(n1: u8, n2: u8, hay: &[u8]) -> Option<usize> {
    let p1 = splat(n1);
    let p2 = splat(n2);
    let mut chunks = hay.chunks_exact(8);
    let mut off = 0usize;
    for c in chunks.by_ref() {
        let w = word(c);
        let m = has_zero(w ^ p1) | has_zero(w ^ p2);
        if m != 0 {
            return Some(off + first(m));
        }
        off += 8;
    }
    chunks.remainder().iter().position(|&b| b == n1 || b == n2).map(|i| off + i)
}

/// Bytes per block of [`scan_until_amp`]'s outer loop.
const BLOCK: usize = 32;

/// Scan a character-data run: find the first `stop` byte while recording
/// whether any `&` occurs strictly before it.
///
/// Returns `(position of stop, saw_amp_before_stop)`; the position is
/// `None` when `stop` does not occur (the amp flag then covers all of
/// `hay`). This is the text-run workhorse: one pass, no re-scan for the
/// entity flag.
///
/// Character data is mostly long runs holding neither byte, so the outer
/// loop tests a whole block with a branch-free reduction over a fixed-size
/// array — a shape the compiler turns into two vector compares — and only
/// a block that holds one of them is looked at word by word. Kept out of
/// line: inlined into a caller's loop, the reduction has been seen to
/// compile to scalar code four times slower.
#[inline(never)]
pub fn scan_until_amp(stop: u8, hay: &[u8]) -> (Option<usize>, bool) {
    let mut amp = false;
    let mut blocks = hay.chunks_exact(BLOCK);
    let mut off = 0usize;
    for block in blocks.by_ref() {
        let block: &[u8; BLOCK] = block.try_into().expect("chunks_exact yields whole blocks");
        let mut hit = false;
        for &b in block {
            hit |= (b == stop) | (b == b'&');
        }
        if hit {
            if let Some(i) = scan_words(stop, stop, block, &mut amp) {
                return (Some(off + i), amp);
            }
        }
        off += BLOCK;
    }
    (scan_words(stop, stop, blocks.remainder(), &mut amp).map(|i| off + i), amp)
}

/// Like [`scan_until_amp`] but with two stop bytes (first of either wins),
/// word by word throughout. Used for attribute values, which are short,
/// terminate at the quote and reject `<`.
#[inline]
pub fn scan2_until_amp(s1: u8, s2: u8, hay: &[u8]) -> (Option<usize>, bool) {
    let mut amp = false;
    (scan_words(s1, s2, hay, &mut amp), amp)
}

/// The word-at-a-time core of the `*_until_amp` scanners: position of the first
/// stop byte in `hay`, setting `amp` when a `&` occurs strictly before it
/// (or anywhere, when there is no stop byte).
#[inline]
fn scan_words(s1: u8, s2: u8, hay: &[u8], amp: &mut bool) -> Option<usize> {
    let p1 = splat(s1);
    let p2 = splat(s2);
    let pa = splat(b'&');
    let mut chunks = hay.chunks_exact(8);
    let mut off = 0usize;
    for c in chunks.by_ref() {
        let w = word(c);
        let m_stop = has_zero(w ^ p1) | has_zero(w ^ p2);
        let m_amp = has_zero(w ^ pa);
        if m_stop != 0 {
            // Only `&` lanes strictly below the first stop lane count.
            let below = (m_stop & m_stop.wrapping_neg()).wrapping_sub(1);
            *amp |= m_amp & below != 0;
            return Some(off + first(m_stop));
        }
        *amp |= m_amp != 0;
        off += 8;
    }
    for (i, &b) in chunks.remainder().iter().enumerate() {
        if b == s1 || b == s2 {
            return Some(off + i);
        }
        *amp |= b == b'&';
    }
    None
}

/// Position of the first two-byte sequence `t0 t1` in `hay` (e.g. `?>`).
/// Overlapping candidates are handled (`??>` matches at index 1).
#[inline]
pub fn find_seq2(t0: u8, t1: u8, hay: &[u8]) -> Option<usize> {
    let mut from = 0usize;
    while let Some(i) = find_byte(t0, &hay[from..]) {
        let at = from + i;
        match hay.get(at + 1) {
            Some(&b) if b == t1 => return Some(at),
            Some(_) => from = at + 1,
            None => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalar reference for the differential checks below.
    fn ref_find2(n1: u8, n2: u8, hay: &[u8]) -> Option<usize> {
        hay.iter().position(|&b| b == n1 || b == n2)
    }

    #[test]
    fn finds_across_chunk_boundaries() {
        for len in 0..40usize {
            for at in 0..len {
                let mut v = vec![b'a'; len];
                v[at] = b'<';
                assert_eq!(find_byte(b'<', &v), Some(at), "len={len} at={at}");
            }
            let v = vec![b'a'; len];
            assert_eq!(find_byte(b'<', &v), None);
        }
    }

    #[test]
    fn first_match_wins_within_a_word() {
        let v = b"ab<d<f<h";
        assert_eq!(find_byte(b'<', v), Some(2));
        assert_eq!(find_byte2(b'<', b'f', v), Some(2));
        assert_eq!(find_byte2(b'f', b'<', v), Some(2));
    }

    #[test]
    fn find_byte2_matches_scalar_reference() {
        // Pseudo-random coverage of positions and byte values.
        let mut state = 0x2545_f491_4f6c_dd1du64;
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 31, 64] {
            for _ in 0..50 {
                let v: Vec<u8> = (0..len)
                    .map(|_| {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        (state >> 33).to_le_bytes()[0]
                    })
                    .collect();
                assert_eq!(find_byte2(b'<', b'"', &v), ref_find2(b'<', b'"', &v), "{v:?}");
                assert_eq!(find_byte(b'&', &v), v.iter().position(|&b| b == b'&'), "{v:?}");
            }
        }
    }

    #[test]
    fn amp_flag_only_counts_before_stop() {
        // '&' after the stop byte must not set the flag.
        assert_eq!(scan_until_amp(b'<', b"abc<def&"), (Some(3), false));
        assert_eq!(scan_until_amp(b'<', b"a&c<def"), (Some(3), true));
        // Same word: '&' in lane 1, '<' in lane 2.
        assert_eq!(scan_until_amp(b'<', b"a&<xxxxx"), (Some(2), true));
        // Same word, reversed: '<' before '&'.
        assert_eq!(scan_until_amp(b'<', b"a<&xxxxx"), (Some(1), false));
        // No stop byte at all.
        assert_eq!(scan_until_amp(b'<', b"no amp here"), (None, false));
        assert_eq!(scan_until_amp(b'<', b"an &amp; here"), (None, true));
        // Remainder handling (len % 8 != 0).
        assert_eq!(scan_until_amp(b'<', b"aaaaaaaaa&b<c"), (Some(11), true));
        assert_eq!(scan_until_amp(b'<', b"aaaaaaaaa<b&c"), (Some(9), false));
    }

    #[test]
    fn block_scan_matches_scalar_reference_across_block_boundaries() {
        // Stop byte and `&` at every pair of positions around the 32-byte
        // blocks, plus runs holding only one of them or neither.
        for len in [0usize, 1, 31, 32, 33, 63, 64, 65, 100] {
            let places: Vec<Option<usize>> =
                std::iter::once(None).chain((0..len).map(Some)).collect();
            for &stop in &places {
                for &amp in &places {
                    let mut v = vec![b'a'; len];
                    if let Some(i) = amp {
                        v[i] = b'&';
                    }
                    if let Some(i) = stop {
                        v[i] = b'<';
                    }
                    let end = stop.unwrap_or(len);
                    let want = (stop, v[..end].contains(&b'&'));
                    assert_eq!(
                        scan_until_amp(b'<', &v),
                        want,
                        "len={len} stop={stop:?} amp={amp:?}"
                    );
                    assert_eq!(scan2_until_amp(b'<', b'"', &v), want);
                }
            }
        }
    }

    #[test]
    fn two_stop_scan_reports_first_of_either() {
        assert_eq!(scan2_until_amp(b'"', b'<', b"val\"rest"), (Some(3), false));
        assert_eq!(scan2_until_amp(b'"', b'<', b"va<l\"rest"), (Some(2), false));
        assert_eq!(scan2_until_amp(b'"', b'<', b"a&b\"&"), (Some(3), true));
    }

    #[test]
    fn seq2_handles_overlap_and_tail() {
        assert_eq!(find_seq2(b'?', b'>', b"abc?>def"), Some(3));
        assert_eq!(find_seq2(b'?', b'>', b"ab??>def"), Some(3));
        assert_eq!(find_seq2(b'?', b'>', b"abc?d?"), None);
        assert_eq!(find_seq2(b'?', b'>', b"?>"), Some(0));
        assert_eq!(find_seq2(b'?', b'>', b"?"), None);
        assert_eq!(find_seq2(b'?', b'>', b""), None);
    }
}
