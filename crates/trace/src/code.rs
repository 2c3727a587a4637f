//! Synthetic program counters for instrumentation sites.
//!
//! Branch predictors and instruction caches key on program counters. Since
//! the workload runs as instrumented Rust rather than machine code, every
//! instrumentation call site names its synthetic PC itself: `site!(0x…)`
//! and `br!(p, 0x…, cond)` take the site's 32-bit id as a literal. An id is
//! an address in the simulated binary's text, nothing more: it does not
//! depend on where the source file sits or how it is laid out, so the same
//! source is the same program in every checkout and through every build
//! path, and the same source-level branch maps to the same predictor entry
//! on every platform configuration — the paper's methodology of running
//! one binary on both machines.
//!
//! A new site takes any unused 32-bit value; `aon-audit`'s `site-id` pass
//! says if it is already taken. Today's values are the hashes the sites
//! had when ids were still derived from source position — there is no
//! meaning to find in them, and changing one changes the simulated program
//! (`recording_fingerprints_are_pinned` and the `EXPERIMENTS.md` byte
//! comparison both say so).
//!
//! [`site_pc`] folds an id into the code segment as a 4-byte instruction,
//! `CODE_BASE + (site * 4) % TEXT_SPAN`: a synthetic text layout of
//! [`TEXT_SPAN`] (4 MiB) in which ids a multiple of 2^20 apart share a PC.
//! Incidental aliasing between two source branches is both rare and
//! realistic (real predictors alias too).

use crate::vaddr::{VAddr, CODE_BASE};

/// The identifier of an instrumentation site (branch, jump, or the
/// notional location of straight-line code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SiteId(pub u32);

/// Span of the synthetic text segment in bytes (4 MiB).
pub const TEXT_SPAN: u64 = 4 << 20;

/// Convert a site id to a synthetic program counter in the code segment.
#[inline]
pub fn site_pc(site: u32) -> VAddr {
    // Instructions are notionally 4 bytes; mask the id into the text span.
    VAddr(CODE_BASE + ((site as u64 * 4) % TEXT_SPAN))
}

/// A [`SiteId`] from its literal id: `probe.branch(site!(0x1234_abcd), cond)`.
#[macro_export]
macro_rules! site {
    ($id:literal) => {
        $crate::code::SiteId($id)
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
    fn pc_lands_in_text_segment() {
        for s in [0u32, 1, 0xdead_beef, u32::MAX] {
            let pc = site_pc(s);
            assert!(pc.0 >= CODE_BASE);
            assert!(pc.0 < CODE_BASE + TEXT_SPAN);
        }
    }

    #[test]
    fn site_macro_is_a_constant() {
        const S: SiteId = site!(0x1234_abcd);
        assert_eq!(S, SiteId(0x1234_abcd));
    }
}
