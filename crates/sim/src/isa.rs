//! Per-architecture instruction cracking.
//!
//! The workload traces are architecture-neutral abstract ops; real machines
//! retire different instruction counts for the same source code. The paper's
//! Table 5 shows the consequence: Pentium M retires branch instructions at
//! ~2x the *fraction* Xeon does (27–36 % vs. 15–19 %) for identical
//! binaries, because Netburst cracks x86 operations into more uops (which
//! its counters report as instructions retired) while branches stay 1:1.
//!
//! [`CrackModel`] holds per-class expansion factors in hundredths; the
//! counters count retired instructions in milli-instruction units so
//! integer arithmetic stays exact and deterministic.

use aon_trace::op::OpClass;

/// Retired-instruction expansion per abstract op class, in hundredths
/// (100 = one retired instruction per abstract op).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrackModel {
    /// ALU expansion.
    pub alu_x100: u32,
    /// Load expansion.
    pub load_x100: u32,
    /// Store expansion.
    pub store_x100: u32,
    /// Conditional branch expansion.
    pub branch_x100: u32,
    /// Unconditional transfer expansion.
    pub jump_x100: u32,
}

impl CrackModel {
    /// Pentium M: close to 1:1 for this op mix (its "wide dynamic
    /// execution" fuses rather than cracks).
    pub fn pentium_m() -> CrackModel {
        CrackModel {
            alu_x100: 100,
            load_x100: 100,
            store_x100: 100,
            branch_x100: 100,
            jump_x100: 100,
        }
    }

    /// Netburst: loads/stores crack into address-generation + access uops,
    /// ALU ops average ~1.6 uops; branches stay single instructions.
    pub fn netburst() -> CrackModel {
        CrackModel {
            alu_x100: 160,
            load_x100: 200,
            store_x100: 300,
            branch_x100: 100,
            jump_x100: 100,
        }
    }

    /// Expansion factor for an op class (hundredths).
    pub fn factor_x100(&self, class: OpClass) -> u32 {
        match class {
            OpClass::Alu => self.alu_x100,
            OpClass::Load => self.load_x100,
            OpClass::Store => self.store_x100,
            OpClass::Branch => self.branch_x100,
            OpClass::Jump => self.jump_x100,
        }
    }

    /// Retired milli-instructions for `n` abstract ops of `class`.
    pub fn retired_milli(&self, class: OpClass, n: u64) -> u64 {
        n * self.factor_x100(class) as u64 * 10
    }

    /// The branch fraction this model yields for a given abstract mix
    /// (branches / total retired). Used by calibration tests against
    /// Table 5.
    pub fn branch_fraction(&self, alu: u64, load: u64, store: u64, branch: u64, jump: u64) -> f64 {
        let total = self.retired_milli(OpClass::Alu, alu)
            + self.retired_milli(OpClass::Load, load)
            + self.retired_milli(OpClass::Store, store)
            + self.retired_milli(OpClass::Branch, branch)
            + self.retired_milli(OpClass::Jump, jump);
        if total == 0 {
            return 0.0;
        }
        aon_trace::num::ratio(
            self.retired_milli(OpClass::Branch, branch) + self.retired_milli(OpClass::Jump, jump),
            total,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pentium_m_is_identity() {
        let c = CrackModel::pentium_m();
        assert_eq!(c.retired_milli(OpClass::Load, 10), 10_000);
        assert_eq!(c.retired_milli(OpClass::Branch, 7), 7_000);
    }

    #[test]
    fn netburst_expands_memory_ops() {
        let c = CrackModel::netburst();
        assert_eq!(c.retired_milli(OpClass::Load, 10), 20_000);
        assert_eq!(c.retired_milli(OpClass::Store, 10), 30_000);
        assert_eq!(c.retired_milli(OpClass::Branch, 10), 10_000);
    }

    #[test]
    fn branch_fraction_halves_on_netburst() {
        // A representative XML-parsing mix: 35% alu, 25% load, 10% store,
        // 28% branch, 2% jump.
        let (a, l, s, b, j) = (35, 25, 10, 28, 2);
        let pm = CrackModel::pentium_m().branch_fraction(a, l, s, b, j);
        let xe = CrackModel::netburst().branch_fraction(a, l, s, b, j);
        // Table 5: PM 27-28%, Xeon ~15%.
        assert!(pm > 0.26 && pm < 0.33, "pm fraction {pm}");
        assert!(xe > 0.13 && xe < 0.20, "xeon fraction {xe}");
        assert!(pm / xe > 1.6 && pm / xe < 2.4, "ratio {}", pm / xe);
    }
}
