//! UTF-8 well-formedness validation.
//!
//! AON devices validate incoming message encoding before content
//! processing (a malformed byte stream must be rejected at the edge, not
//! crash the XPath engine). This is the classic DFA-style byte scan: one
//! load, a classify, and a state branch per byte.

use crate::input::TBuf;
use aon_trace::{br, site, Probe};

/// Validate that `buf` is well-formed UTF-8 (traced per byte). Returns the
/// number of decoded scalar values, or `None` if invalid.
pub fn validate_utf8<P: Probe>(buf: TBuf<'_>, p: &mut P) -> Option<usize> {
    let mut chars = 0usize;
    let mut i = 0usize;
    let len = buf.len();
    while i < len {
        let b = buf.get(i, p);
        p.alu(2);
        if !br!(p, 0xad28_a6da, b >= 0x80) {
            // ASCII fast path.
            i += 1;
            chars += 1;
            continue;
        }
        // Multi-byte sequence.
        let (need, min_cp, first_payload) = match b {
            0xC2..=0xDF => (1usize, 0x80u32, (b & 0x1F) as u32),
            0xE0..=0xEF => (2, 0x800, (b & 0x0F) as u32),
            0xF0..=0xF4 => (3, 0x10000, (b & 0x07) as u32),
            _ => {
                p.branch(site!(0xa065_f2af), true);
                return None;
            }
        };
        p.alu(3);
        let mut cp = first_payload;
        for k in 1..=need {
            let c = buf.try_get(i + k, p)?;
            p.alu(2);
            if !br!(p, 0xa105_571f, c & 0xC0 == 0x80) {
                return None;
            }
            cp = (cp << 6) | (c & 0x3F) as u32;
        }
        p.alu(3);
        if cp < min_cp || cp > 0x10FFFF || (0xD800..=0xDFFF).contains(&cp) {
            p.branch(site!(0xa5ac_108b), true);
            return None;
        }
        i += need + 1;
        chars += 1;
    }
    Some(chars)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_trace::RegionSlot;
    use aon_trace::{NullProbe, Tracer};

    fn check(bytes: &[u8]) -> Option<usize> {
        validate_utf8(TBuf::new(bytes, RegionSlot::MSG), &mut NullProbe)
    }

    #[test]
    fn ascii_ok() {
        assert_eq!(check(b"hello world"), Some(11));
        assert_eq!(check(b""), Some(0));
    }

    #[test]
    fn multibyte_ok() {
        let s = "héllo ☃ 𝄞";
        assert_eq!(check(s.as_bytes()), Some(s.chars().count()));
    }

    #[test]
    fn rejects_bad_sequences() {
        assert_eq!(check(&[0xC0, 0x80]), None); // overlong
        assert_eq!(check(&[0x80]), None); // lone continuation
        assert_eq!(check(&[0xE2, 0x28, 0xA1]), None); // bad continuation
        assert_eq!(check(&[0xED, 0xA0, 0x80]), None); // surrogate
        assert_eq!(check(&[0xF5, 0x80, 0x80, 0x80]), None); // > U+10FFFF
        assert_eq!(check(&[0xC2]), None); // truncated
    }

    #[test]
    fn agrees_with_std() {
        let cases: Vec<Vec<u8>> = vec![
            b"plain".to_vec(),
            "日本語テキスト".as_bytes().to_vec(),
            vec![0xFF, 0xFE],
            vec![b'a', 0xC3, 0xA9, b'b'],
            vec![0xE0, 0x80, 0xAF],
        ];
        for c in cases {
            assert_eq!(
                check(&c).is_some(),
                std::str::from_utf8(&c).is_ok(),
                "disagreement on {c:?}"
            );
        }
    }

    #[test]
    fn scan_is_traced_per_byte() {
        let mut t = Tracer::new();
        let data = b"abcdefghij";
        validate_utf8(TBuf::new(data, RegionSlot::MSG), &mut t).unwrap();
        let s = t.finish().stats();
        assert!(s.loads >= data.len() as u64);
        assert!(s.branches >= data.len() as u64);
    }
}
