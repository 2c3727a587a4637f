//! Instrumented SHA-1 — the crypto function of the paper's future work
//! (§6: "crucial AON operations such as deep packet inspection, XML
//! parsing, and crypto functions").
//!
//! A real, test-vector-correct SHA-1 implementation whose per-block work
//! is traced: the message words are loads from the message buffer, the 80
//! rounds are ALU work, and the schedule expansion adds its shifts/xors.
//! 2006-era WS-Security gateways authenticated messages exactly this way
//! (HMAC-SHA1 over the SOAP body).

use aon_trace::{Addr, Probe, RegionSlot};

/// SHA-1 digest output.
pub type Sha1Digest = [u8; 20];

/// Compute SHA-1 of `data`, tracing the work on `p`. The data notionally
/// lives at `base` within `slot` (use the message slot for payloads).
pub fn sha1_traced<P: Probe>(
    data: &[u8],
    slot: aon_trace::RegionSlot,
    base: u32,
    p: &mut P,
) -> Sha1Digest {
    let mut h: [u32; 5] = [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0];

    // Padding per FIPS 180: message + 0x80 + zeros + 64-bit bit length.
    let mut padded = data.to_vec();
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&((data.len() as u64) * 8).to_be_bytes());
    p.alu(8); // length math + padding setup

    for (blk_idx, block) in padded.chunks_exact(64).enumerate() {
        // Message schedule: 16 word loads from the buffer...
        let mut w = [0u32; 80];
        for (i, word) in block.chunks_exact(4).enumerate() {
            let off = u32::try_from(blk_idx * 64 + i * 4).expect("digest input is KiB-sized");
            p.load(Addr::new(slot, base + off), 4);
            w[i] = u32::from_be_bytes([word[0], word[1], word[2], word[3]]);
        }
        // ...then 64 expansion steps (3 xors + rotate each).
        for i in 16..80 {
            w[i] = (w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16]).rotate_left(1);
        }
        p.alu(64 * 4);

        let (mut a, mut b, mut c, mut d, mut e) = (h[0], h[1], h[2], h[3], h[4]);
        for (i, &wi) in w.iter().enumerate() {
            let (f, k) = match i {
                0..=19 => ((b & c) | ((!b) & d), 0x5A82_7999u32),
                20..=39 => (b ^ c ^ d, 0x6ED9_EBA1),
                40..=59 => ((b & c) | (b & d) | (c & d), 0x8F1B_BCDC),
                _ => (b ^ c ^ d, 0xCA62_C1D6),
            };
            let tmp =
                a.rotate_left(5).wrapping_add(f).wrapping_add(e).wrapping_add(k).wrapping_add(wi);
            e = d;
            d = c;
            c = b.rotate_left(30);
            b = a;
            a = tmp;
        }
        // 80 rounds ≈ 8 ALU ops each on a 2006 core.
        p.alu(80 * 8);

        h[0] = h[0].wrapping_add(a);
        h[1] = h[1].wrapping_add(b);
        h[2] = h[2].wrapping_add(c);
        h[3] = h[3].wrapping_add(d);
        h[4] = h[4].wrapping_add(e);
        p.alu(5);
    }

    let mut out = [0u8; 20];
    for (i, word) in h.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// HMAC-SHA1 (RFC 2104) over `data` with `key`, traced. The WS-Security
/// authentication primitive.
pub fn hmac_sha1_traced<P: Probe>(key: &[u8], data: &[u8], base: u32, p: &mut P) -> Sha1Digest {
    let mut k = [0u8; 64];
    if key.len() > 64 {
        let kd = sha1_traced(key, RegionSlot::STATIC, 0x1000, p);
        k[..20].copy_from_slice(&kd);
    } else {
        k[..key.len()].copy_from_slice(key);
    }
    p.alu(32);
    let mut inner = Vec::with_capacity(64 + data.len());
    inner.extend(k.iter().map(|b| b ^ 0x36));
    inner.extend_from_slice(data);
    let inner_hash = sha1_traced(&inner, RegionSlot::MSG, base, p);
    let mut outer = Vec::with_capacity(84);
    outer.extend(k.iter().map(|b| b ^ 0x5c));
    outer.extend_from_slice(&inner_hash);
    sha1_traced(&outer, RegionSlot::WORK, 0x8000, p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aon_trace::{NullProbe, Tracer};

    fn hex(d: &Sha1Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn sha1(data: &[u8]) -> String {
        hex(&sha1_traced(data, RegionSlot::MSG, 0, &mut NullProbe))
    }

    #[test]
    fn fips_test_vectors() {
        // FIPS 180-1 / RFC 3174 known answers.
        assert_eq!(sha1(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(
            sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
        assert_eq!(sha1(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
    }

    #[test]
    fn million_a_vector() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(sha1(&data), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn hmac_rfc2202_vectors() {
        // RFC 2202 test case 1.
        let d = hmac_sha1_traced(&[0x0b; 20], b"Hi There", 0, &mut NullProbe);
        assert_eq!(hex(&d), "b617318655057264e28bc0b6fb378c8ef146be00");
        // Test case 2.
        let d = hmac_sha1_traced(b"Jefe", b"what do ya want for nothing?", 0, &mut NullProbe);
        assert_eq!(hex(&d), "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79");
    }

    #[test]
    fn hashing_is_traced_per_block() {
        let data = vec![0x42u8; 640]; // 10 blocks + padding block
        let mut t = Tracer::new();
        sha1_traced(&data, RegionSlot::MSG, 0, &mut t);
        let s = t.finish().stats();
        assert!(s.loads >= 11 * 16, "16 word loads per block: {}", s.loads);
        assert!(s.alus > 10 * 800, "rounds dominate: {}", s.alus);
    }
}
