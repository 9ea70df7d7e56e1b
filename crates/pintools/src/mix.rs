//! Figure 1: dynamic branch-instruction breakdown.

use rebalance_isa::BranchKind;
use rebalance_trace::{EventBatch, Need, Pintool, Section, TraceEvent};
use serde::{Deserialize, Serialize};

use rebalance_trace::BySection;

/// Index of a [`BranchKind`] in the fixed-order count arrays.
fn kind_index(kind: BranchKind) -> usize {
    match kind {
        BranchKind::Call => 0,
        BranchKind::IndirectCall => 1,
        BranchKind::CondDirect => 2,
        BranchKind::UncondDirect => 3,
        BranchKind::IndirectBranch => 4,
        BranchKind::Syscall => 5,
        BranchKind::Return => 6,
    }
}

/// Raw per-section counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MixCounts {
    /// All instructions.
    pub insts: u64,
    /// Branch counts in [`BranchKind::ALL`] order
    /// (call, icall, cond, uncond, ibranch, syscall, return).
    pub by_kind: [u64; 7],
}

impl MixCounts {
    /// All branch instructions.
    pub fn branches(&self) -> u64 {
        self.by_kind.iter().sum()
    }

    /// Branch fraction of all instructions.
    pub fn branch_fraction(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.branches() as f64 / self.insts as f64
        }
    }

    /// Count for one branch kind.
    pub fn count(&self, kind: BranchKind) -> u64 {
        self.by_kind[kind_index(kind)]
    }

    /// One kind as a fraction of **all instructions** (the paper's
    /// Figure 1 y-axis).
    pub fn fraction_of_insts(&self, kind: BranchKind) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.count(kind) as f64 / self.insts as f64
        }
    }

    /// One kind as a fraction of **all branches**.
    pub fn fraction_of_branches(&self, kind: BranchKind) -> f64 {
        let b = self.branches();
        if b == 0 {
            0.0
        } else {
            self.count(kind) as f64 / b as f64
        }
    }

    /// Merges another counter set.
    pub fn merge(&mut self, other: &MixCounts) {
        self.insts += other.insts;
        for (a, b) in self.by_kind.iter_mut().zip(&other.by_kind) {
            *a += b;
        }
    }
}

/// Per-section + total view of the measured mix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BranchMixReport {
    /// Per-section counters.
    pub sections: BySection<MixCounts>,
}

impl BranchMixReport {
    /// Combined serial+parallel counters (the `total` bar).
    pub fn total(&self) -> MixCounts {
        let mut t = self.sections.serial;
        t.merge(&self.sections.parallel);
        t
    }

    /// Counters for one section.
    pub fn section(&self, section: Section) -> &MixCounts {
        self.sections.get(section)
    }
}

/// The Figure 1 pintool: counts every branch by type, split by section.
///
/// # Examples
///
/// ```
/// use rebalance_pintools::BranchMixTool;
/// use rebalance_trace::Pintool;
///
/// let tool = BranchMixTool::new();
/// let report = tool.report();
/// assert_eq!(report.total().insts, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BranchMixTool {
    sections: BySection<MixCounts>,
}

impl BranchMixTool {
    /// Creates an empty tool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the accumulated counts.
    pub fn report(&self) -> BranchMixReport {
        BranchMixReport {
            sections: self.sections,
        }
    }
}

impl Pintool for BranchMixTool {
    fn on_inst(&mut self, ev: &TraceEvent) {
        let c = self.sections.get_mut(ev.section);
        c.insts += 1;
        if let Some(br) = ev.branch {
            c.by_kind[kind_index(br.kind)] += 1;
        }
    }

    /// Hot path: instruction counts come from the batch's per-section
    /// totals; only the branch subset is walked for the kind breakdown.
    fn on_batch(&mut self, batch: &EventBatch) {
        let insts = batch.sections();
        self.sections.serial.insts += insts.serial;
        self.sections.parallel.insts += insts.parallel;
        for ev in batch.branch_events() {
            let br = ev.branch.expect("branch slice carries branch events");
            self.sections.get_mut(ev.section).by_kind[kind_index(br.kind)] += 1;
        }
    }

    /// `on_batch` reads only the branch slice and the batch's section
    /// counts.
    fn need(&self) -> Need {
        Need::Branches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_isa::{Addr, InstClass, Outcome};
    use rebalance_trace::BranchEvent;

    fn inst(section: Section) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(0x100),
            len: 4,
            class: InstClass::Other,
            branch: None,
            section,
        }
    }

    fn branch(kind: BranchKind, section: Section) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(0x200),
            len: 5,
            class: InstClass::Branch(kind),
            branch: Some(BranchEvent {
                kind,
                outcome: Outcome::Taken,
                target: Some(Addr::new(0x300)),
            }),
            section,
        }
    }

    #[test]
    fn counts_by_kind_and_section() {
        let mut t = BranchMixTool::new();
        for _ in 0..8 {
            t.on_inst(&inst(Section::Parallel));
        }
        t.on_inst(&branch(BranchKind::CondDirect, Section::Parallel));
        t.on_inst(&branch(BranchKind::Call, Section::Parallel));
        t.on_inst(&inst(Section::Serial));
        t.on_inst(&branch(BranchKind::Return, Section::Serial));

        let r = t.report();
        let par = r.section(Section::Parallel);
        assert_eq!(par.insts, 10);
        assert_eq!(par.branches(), 2);
        assert_eq!(par.count(BranchKind::CondDirect), 1);
        assert_eq!(par.count(BranchKind::Call), 1);
        assert_eq!(par.count(BranchKind::Syscall), 0);
        assert!((par.branch_fraction() - 0.2).abs() < 1e-12);

        let ser = r.section(Section::Serial);
        assert_eq!(ser.insts, 2);
        assert_eq!(ser.count(BranchKind::Return), 1);

        let total = r.total();
        assert_eq!(total.insts, 12);
        assert_eq!(total.branches(), 3);
        assert!((total.branch_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn fractions() {
        let mut t = BranchMixTool::new();
        for _ in 0..3 {
            t.on_inst(&inst(Section::Serial));
        }
        t.on_inst(&branch(BranchKind::UncondDirect, Section::Serial));
        let total = t.report().total();
        assert!((total.fraction_of_insts(BranchKind::UncondDirect) - 0.25).abs() < 1e-12);
        assert!((total.fraction_of_branches(BranchKind::UncondDirect) - 1.0).abs() < 1e-12);
        assert_eq!(total.fraction_of_insts(BranchKind::Call), 0.0);
    }

    #[test]
    fn empty_report_is_zero() {
        let r = BranchMixTool::new().report();
        assert_eq!(r.total().branch_fraction(), 0.0);
        assert_eq!(r.total().fraction_of_branches(BranchKind::Call), 0.0);
    }

    #[test]
    fn kind_index_covers_all_kinds() {
        let mut seen = [false; 7];
        for kind in BranchKind::ALL {
            seen[kind_index(kind)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
