//! Branch prediction.
//!
//! A gshare predictor (global history XOR PC indexing a table of 2-bit
//! saturating counters) per physical core. Under Hyperthreading the table
//! is *shared* between the two logical CPUs while each keeps a private
//! global-history register — the configuration Netburst used, and the
//! mechanism behind the paper's §5.5 observation that enabling HT inflates
//! the branch misprediction ratio by ≥25 %: the sibling's updates alias
//! into the same counters.

use crate::config::PredictorConfig;

/// Two-bit saturating counter states (weakly/strongly not-taken are 1/0).
const STRONG_NT: u8 = 0;
const WEAK_T: u8 = 2;
const STRONG_T: u8 = 3;

/// A gshare predictor (one per physical core).
#[derive(Debug, Clone)]
pub struct Gshare {
    table: Vec<u8>,
    mask: u32,
    history_mask: u32,
    /// Per-logical-thread history registers (index: SMT sibling id).
    history: [u32; 2],
    /// Netburst Hyperthreading shares the global history buffer between
    /// the two logical CPUs: each thread's outcomes scramble the other's
    /// patterns whenever both are active — the paper's §5.5 observation
    /// that HT alone inflates BrMPR by ≥25 %.
    shared_history: bool,
}

impl Gshare {
    /// Build from a geometry description.
    pub fn new(cfg: PredictorConfig) -> Self {
        Self::with_sharing(cfg, false)
    }

    /// Build with or without an SMT-shared history register.
    pub fn with_sharing(cfg: PredictorConfig, shared_history: bool) -> Self {
        let entries = 1usize << cfg.table_bits;
        Gshare {
            table: vec![WEAK_T; entries],
            mask: u32::try_from(entries - 1).expect("table_bits is far below 32"),
            history_mask: if cfg.history_bits >= 32 {
                u32::MAX
            } else {
                (1u32 << cfg.history_bits) - 1
            },
            history: [0; 2],
            shared_history,
        }
    }

    #[inline]
    fn hist_slot(&self, sibling: usize) -> usize {
        if self.shared_history {
            0
        } else {
            sibling
        }
    }

    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "keeping only the low PC bits is the gshare indexing scheme itself"
    )]
    fn index(&self, pc: u64, sibling: usize) -> usize {
        // Classic gshare: PC (shifted past the instruction alignment) XOR
        // global history.
        ((((pc >> 2) as u32) ^ self.history[self.hist_slot(sibling)]) & self.mask) as usize
    }

    /// Update with the actual outcome; returns whether the prediction was
    /// correct. Inlined: this runs once per replayed branch record.
    #[inline]
    pub fn update(&mut self, pc: u64, sibling: usize, taken: bool) -> bool {
        let idx = self.index(pc, sibling);
        let counter = &mut self.table[idx];
        let predicted = *counter >= WEAK_T;
        *counter = match (taken, *counter) {
            (true, STRONG_T) => STRONG_T,
            (true, c) => c + 1,
            (false, STRONG_NT) => STRONG_NT,
            (false, c) => c - 1,
        };
        let h = self.hist_slot(sibling);
        self.history[h] = ((self.history[h] << 1) | taken as u32) & self.history_mask;
        predicted == taken
    }

    /// Number of table entries (for tests / reporting).
    pub fn entries(&self) -> usize {
        self.table.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> PredictorConfig {
        PredictorConfig { table_bits: 10, history_bits: 8 }
    }

    #[test]
    fn learns_a_bias() {
        let mut g = Gshare::new(cfg());
        let pc = 0x40_1000;
        let mut correct = 0;
        for _ in 0..100 {
            if g.update(pc, 0, true) {
                correct += 1;
            }
        }
        assert!(correct >= 95, "should learn an always-taken branch: {correct}/100");
    }

    #[test]
    fn learns_alternation_via_history() {
        let mut g = Gshare::new(cfg());
        let pc = 0x40_2000;
        // Warm up, then measure: with history bits, alternating patterns
        // become predictable.
        let mut outcome = false;
        for _ in 0..200 {
            g.update(pc, 0, outcome);
            outcome = !outcome;
        }
        let mut correct = 0;
        for _ in 0..100 {
            if g.update(pc, 0, outcome) {
                correct += 1;
            }
            outcome = !outcome;
        }
        assert!(correct >= 90, "alternating branch should be predictable: {correct}/100");
    }

    #[test]
    fn random_branches_mispredict_often() {
        let mut g = Gshare::new(cfg());
        // A deterministic pseudo-random bit sequence.
        let mut x: u32 = 0x1234_5678;
        let mut wrong = 0;
        for i in 0..1000 {
            x = x.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let taken = (x >> 16) & 1 == 1;
            if !g.update(0x40_3000 + (i % 7) * 4, 0, taken) {
                wrong += 1;
            }
        }
        assert!(wrong > 250, "random branches should hurt: {wrong}/1000 wrong");
    }

    #[test]
    fn sibling_sharing_causes_aliasing() {
        // Two threads with conflicting biases on the same PC and identical
        // table indices (history disabled so the index is purely the PC):
        // sharing the table must produce more mispredictions than one
        // thread alone. With history enabled the same effect appears
        // statistically through table pressure; this test pins down the
        // mechanism deterministically.
        let no_hist = PredictorConfig { table_bits: 10, history_bits: 0 };
        let run = |two_threads: bool| -> u32 {
            let mut g = Gshare::new(no_hist);
            let pc = 0x40_4000;
            let mut wrong = 0;
            for i in 0..2000 {
                if two_threads && i % 2 == 1 {
                    // Sibling thread: opposite bias, same table.
                    if !g.update(pc, 1, false) {
                        wrong += 1;
                    }
                } else if !g.update(pc, 0, true) {
                    wrong += 1;
                }
            }
            wrong
        };
        let solo = run(false);
        let shared = run(true);
        assert!(
            shared > solo + 100,
            "conflicting siblings should alias: solo={solo} shared={shared}"
        );
    }

    #[test]
    fn geometry_respected() {
        let g = Gshare::new(PredictorConfig { table_bits: 12, history_bits: 10 });
        assert_eq!(g.entries(), 4096);
    }
}
