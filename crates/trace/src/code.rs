//! Synthetic program counters for instrumentation sites.
//!
//! Branch predictors and instruction caches key on program counters. Since
//! the workload runs as instrumented Rust rather than machine code, every
//! instrumentation call site is assigned a *stable* synthetic PC derived
//! from its `file!()/line!()/column!()` coordinates via an FNV-1a hash.
//!
//! Stability matters twice over: (a) runs are reproducible, and (b) the
//! same source-level branch maps to the same predictor entry on every
//! platform configuration, so cross-platform comparisons (Pentium M vs.
//! Xeon) see identical branch streams — exactly the paper's methodology of
//! running one binary on both machines.
//!
//! Site ids are 32-bit. The simulator folds them into the code segment
//! (`CODE_BASE + (site & MASK)`), giving a synthetic text layout of a few
//! megabytes; incidental aliasing between two source branches is both rare
//! and realistic (real predictors alias too).

use crate::vaddr::{VAddr, CODE_BASE};

/// A stable identifier for an instrumentation site (branch, jump, or the
/// notional location of straight-line code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteId(pub u32);

/// FNV-1a over the site coordinates. `const fn` so sites can be computed at
/// compile time by the [`site!`](crate::site) macro.
// Truncation is the point of the final fold (it's a hash), and `try_from`
// is not callable in a `const fn`.
#[allow(clippy::cast_possible_truncation)]
pub const fn site_hash(file: &str, line: u32, column: u32) -> u32 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let bytes = file.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
        i += 1;
    }
    h ^= line as u64;
    h = h.wrapping_mul(0x1000_0000_01b3);
    h ^= column as u64;
    h = h.wrapping_mul(0x1000_0000_01b3);
    // Fold to 32 bits.
    ((h >> 32) ^ (h & 0xffff_ffff)) as u32
}

/// Construct a [`SiteId`] from source coordinates.
pub const fn site_from(file: &str, line: u32, column: u32) -> SiteId {
    SiteId(site_hash(file, line, column))
}

/// Span of the synthetic text segment in bytes (4 MiB).
pub const TEXT_SPAN: u64 = 4 << 20;

/// Convert a site id to a synthetic program counter in the code segment.
#[inline]
pub fn site_pc(site: u32) -> VAddr {
    // Instructions are notionally 4 bytes; mask the hash into the text span.
    VAddr(CODE_BASE + ((site as u64 * 4) % TEXT_SPAN))
}

/// A [`SiteId`] from its literal id.
///
/// Usage: `probe.branch(site!(0x1234_abcd), cond)`.
#[macro_export]
macro_rules! site {
    ($id:literal) => {
        const {
            assert!($crate::code::site_hash(file!(), line!(), column!()) == $id);
            $crate::code::SiteId($id)
        }
    };
}

/// The eight sites that were hashed open-coded, where `column!()` is the
/// column of its own token: the caller keeps that token where it was.
#[macro_export]
macro_rules! site_at {
    ($file:expr, $line:expr, $column:expr, $id:literal) => {
        const {
            assert!($crate::code::site_hash($file, $line, $column) == $id);
            $crate::code::SiteId($id)
        }
    };
}

/// Record a conditional branch at site `$id` on `$probe` and yield the
/// condition value, so instrumented code reads naturally:
///
/// ```ignore
/// if br!(probe, 0x1234_abcd, byte == b'<') { ... }
/// ```
#[macro_export]
macro_rules! br {
    ($probe:expr, $id:literal, $cond:expr) => {{
        let __c: bool = $cond;
        $crate::probe::Probe::branch($probe, $crate::site!($id), __c);
        __c
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_is_stable() {
        assert_eq!(site_hash("a.rs", 1, 2), site_hash("a.rs", 1, 2));
        assert_ne!(site_hash("a.rs", 1, 2), site_hash("a.rs", 1, 3));
        assert_ne!(site_hash("a.rs", 1, 2), site_hash("b.rs", 1, 2));
    }

    #[test]
    fn pc_lands_in_text_segment() {
        for s in [0u32, 1, 0xdead_beef, u32::MAX] {
            let pc = site_pc(s);
            assert!(pc.0 >= CODE_BASE);
            assert!(pc.0 < CODE_BASE + TEXT_SPAN);
        }
    }

    #[test]
    fn site_macro_compiles_to_constant() {
        const S: SiteId = site_from(file!(), line!(), column!());
        let t = S;
        assert_eq!(S, t);
    }

    #[test]
    fn distinct_sites_mostly_distinct_pcs() {
        // Sanity-check collision rate over a plausible number of sites.
        let mut pcs = std::collections::HashSet::new();
        let mut collisions = 0;
        for line in 0..2000u32 {
            let pc = site_pc(site_hash("src/parser.rs", line, line % 80)).0;
            if !pcs.insert(pc) {
                collisions += 1;
            }
        }
        assert!(collisions < 20, "too many PC collisions: {collisions}");
    }
}
