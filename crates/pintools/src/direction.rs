//! Table I: backward vs forward taken branches.

use rebalance_isa::BranchTrajectory;
use rebalance_trace::{EventBatch, Need, Pintool, Section, TraceEvent};
use serde::{Deserialize, Serialize};

use rebalance_trace::BySection;

/// Per-section direction counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectionStats {
    /// Taken conditional branches jumping backward.
    pub cond_backward: u64,
    /// Taken conditional branches jumping forward.
    pub cond_forward: u64,
    /// All taken control transfers jumping backward.
    pub all_backward: u64,
    /// All taken control transfers jumping forward.
    pub all_forward: u64,
}

impl DirectionStats {
    /// Backward share of taken conditional branches — the paper's
    /// Table I metric.
    pub fn backward_fraction(&self) -> f64 {
        let total = self.cond_backward + self.cond_forward;
        if total == 0 {
            0.0
        } else {
            self.cond_backward as f64 / total as f64
        }
    }

    /// Backward share across *all* taken control transfers.
    pub fn backward_fraction_all(&self) -> f64 {
        let total = self.all_backward + self.all_forward;
        if total == 0 {
            0.0
        } else {
            self.all_backward as f64 / total as f64
        }
    }

    /// Merges another counter set.
    pub fn merge(&mut self, other: &DirectionStats) {
        self.cond_backward += other.cond_backward;
        self.cond_forward += other.cond_forward;
        self.all_backward += other.all_backward;
        self.all_forward += other.all_forward;
    }
}

/// Per-section + total report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirectionReport {
    /// Per-section counters.
    pub sections: BySection<DirectionStats>,
}

impl DirectionReport {
    /// Combined counters.
    pub fn total(&self) -> DirectionStats {
        let mut t = self.sections.serial;
        t.merge(&self.sections.parallel);
        t
    }

    /// Counters for one section.
    pub fn section(&self, section: Section) -> &DirectionStats {
        self.sections.get(section)
    }
}

/// The Table I pintool.
///
/// # Examples
///
/// ```
/// use rebalance_pintools::DirectionTool;
///
/// let tool = DirectionTool::new();
/// assert_eq!(tool.report().total().backward_fraction(), 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct DirectionTool {
    sections: BySection<DirectionStats>,
}

impl DirectionTool {
    /// Creates an empty tool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of the accumulated counts.
    pub fn report(&self) -> DirectionReport {
        DirectionReport {
            sections: self.sections,
        }
    }
}

impl DirectionTool {
    #[inline]
    fn step_branch(&mut self, ev: &TraceEvent, br: &rebalance_trace::BranchEvent) {
        let stats = self.sections.get_mut(ev.section);
        let backward = match br.trajectory(ev.pc) {
            BranchTrajectory::NotTaken => return,
            BranchTrajectory::TakenBackward => true,
            BranchTrajectory::TakenForward => false,
        };
        if backward {
            stats.all_backward += 1;
            if br.kind.is_conditional() {
                stats.cond_backward += 1;
            }
        } else {
            stats.all_forward += 1;
            if br.kind.is_conditional() {
                stats.cond_forward += 1;
            }
        }
    }
}

impl Pintool for DirectionTool {
    fn on_inst(&mut self, ev: &TraceEvent) {
        let Some(br) = ev.branch else { return };
        self.step_branch(ev, &br);
    }

    /// Hot path: the tool only looks at branches, so it walks the
    /// precomputed branch subset and never touches the other ~85% of
    /// the block.
    fn on_batch(&mut self, batch: &EventBatch) {
        for ev in batch.branch_events() {
            let br = ev.branch.expect("branch slice carries branch events");
            self.step_branch(ev, &br);
        }
    }

    /// `on_batch` reads only the branch slice.
    fn need(&self) -> Need {
        Need::Branches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_isa::{Addr, BranchKind, InstClass, Outcome};
    use rebalance_trace::BranchEvent;

    fn branch(kind: BranchKind, pc: u64, target: u64, taken: bool, s: Section) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(pc),
            len: 5,
            class: InstClass::Branch(kind),
            branch: Some(BranchEvent {
                kind,
                outcome: Outcome::from_taken(taken),
                target: Some(Addr::new(target)),
            }),
            section: s,
        }
    }

    #[test]
    fn counts_conditional_directions() {
        let mut t = DirectionTool::new();
        // 3 backward-taken, 1 forward-taken conditionals in parallel.
        for _ in 0..3 {
            t.on_inst(&branch(
                BranchKind::CondDirect,
                0x200,
                0x100,
                true,
                Section::Parallel,
            ));
        }
        t.on_inst(&branch(
            BranchKind::CondDirect,
            0x200,
            0x300,
            true,
            Section::Parallel,
        ));
        // Not-taken never counts.
        t.on_inst(&branch(
            BranchKind::CondDirect,
            0x200,
            0x100,
            false,
            Section::Parallel,
        ));
        let r = t.report();
        let p = r.section(Section::Parallel);
        assert_eq!(p.cond_backward, 3);
        assert_eq!(p.cond_forward, 1);
        assert!((p.backward_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn unconditional_branches_count_in_all_only() {
        let mut t = DirectionTool::new();
        t.on_inst(&branch(
            BranchKind::UncondDirect,
            0x200,
            0x100,
            true,
            Section::Serial,
        ));
        t.on_inst(&branch(
            BranchKind::Call,
            0x200,
            0x900,
            true,
            Section::Serial,
        ));
        let r = t.report();
        let s = r.section(Section::Serial);
        assert_eq!(s.cond_backward + s.cond_forward, 0);
        assert_eq!(s.all_backward, 1);
        assert_eq!(s.all_forward, 1);
        assert_eq!(s.backward_fraction(), 0.0);
        assert!((s.backward_fraction_all() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn total_merges_sections() {
        let mut t = DirectionTool::new();
        t.on_inst(&branch(
            BranchKind::CondDirect,
            0x200,
            0x100,
            true,
            Section::Serial,
        ));
        t.on_inst(&branch(
            BranchKind::CondDirect,
            0x200,
            0x300,
            true,
            Section::Parallel,
        ));
        let total = t.report().total();
        assert_eq!(total.cond_backward, 1);
        assert_eq!(total.cond_forward, 1);
        assert!((total.backward_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_is_zero() {
        let t = DirectionTool::new();
        assert_eq!(t.report().total().backward_fraction(), 0.0);
        assert_eq!(t.report().total().backward_fraction_all(), 0.0);
    }
}
