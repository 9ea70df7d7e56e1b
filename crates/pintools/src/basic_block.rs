//! Figure 4: average basic-block length and distance between taken
//! branches, in bytes.

use rebalance_trace::{EventBatch, Piece, Pintool, Section, TraceEvent};
use serde::{Deserialize, Serialize};

use rebalance_trace::BySection;

/// Per-section accumulators.
///
/// A *basic block* here is a maximal run of instructions ending at a
/// branch instruction (Pin's dynamic BBL notion); the *taken distance*
/// is the byte run between consecutive taken branches — the stretch an
/// I-cache fetches sequentially.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BasicBlockStats {
    /// Completed basic blocks.
    pub blocks: u64,
    /// Total bytes over completed blocks.
    pub block_bytes: u64,
    /// Completed taken-to-taken runs.
    pub taken_runs: u64,
    /// Total bytes over completed runs.
    pub taken_run_bytes: u64,
}

impl BasicBlockStats {
    /// Mean basic-block length in bytes.
    pub fn avg_block_bytes(&self) -> f64 {
        if self.blocks == 0 {
            0.0
        } else {
            self.block_bytes as f64 / self.blocks as f64
        }
    }

    /// Mean distance between taken branches in bytes.
    pub fn avg_taken_distance(&self) -> f64 {
        if self.taken_runs == 0 {
            0.0
        } else {
            self.taken_run_bytes as f64 / self.taken_runs as f64
        }
    }

    /// Merges another accumulator.
    pub fn merge(&mut self, other: &BasicBlockStats) {
        self.blocks += other.blocks;
        self.block_bytes += other.block_bytes;
        self.taken_runs += other.taken_runs;
        self.taken_run_bytes += other.taken_run_bytes;
    }
}

/// Per-section + total report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BasicBlockReport {
    /// Per-section stats.
    pub sections: BySection<BasicBlockStats>,
}

impl BasicBlockReport {
    /// Combined stats.
    pub fn total(&self) -> BasicBlockStats {
        let mut t = self.sections.serial;
        t.merge(&self.sections.parallel);
        t
    }

    /// Stats for one section.
    pub fn section(&self, section: Section) -> &BasicBlockStats {
        self.sections.get(section)
    }
}

/// The Figure 4 pintool.
///
/// Batched delivery reads runs ([`EventBatch::pieces`]): a sequential run of
/// plain instructions only lengthens the open block and taken run by
/// its bytes, so the tool does no per-instruction work.
///
/// # Examples
///
/// ```
/// use rebalance_pintools::BasicBlockTool;
///
/// let tool = BasicBlockTool::new();
/// assert_eq!(tool.report().total().avg_block_bytes(), 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BasicBlockTool {
    sections: BySection<BasicBlockStats>,
    cur_block: u64,
    cur_run: u64,
}

impl BasicBlockTool {
    /// Creates an empty tool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of completed blocks/runs (open partial runs are
    /// discarded, matching the paper's steady-state measurement).
    pub fn report(&self) -> BasicBlockReport {
        BasicBlockReport {
            sections: self.sections,
        }
    }
}

impl Pintool for BasicBlockTool {
    fn on_inst(&mut self, ev: &TraceEvent) {
        let len = u64::from(ev.len);
        self.cur_block += len;
        self.cur_run += len;
        if ev.branch.is_some() {
            let s = self.sections.get_mut(ev.section);
            s.blocks += 1;
            s.block_bytes += self.cur_block;
            self.cur_block = 0;
            if ev.is_taken_branch() {
                s.taken_runs += 1;
                s.taken_run_bytes += self.cur_run;
                self.cur_run = 0;
            }
        }
    }

    fn on_section_start(&mut self, _section: Section) {
        // Partial runs across a section boundary would smear serial
        // bytes into parallel stats; drop them instead.
        self.cur_block = 0;
        self.cur_run = 0;
    }

    /// Reads the batch as pieces: a plain run only adds its bytes to
    /// the open block and taken run, so the tool does one addition per
    /// run, and a branch or section start does what it does per event.
    fn on_batch(&mut self, batch: &EventBatch) {
        for piece in batch.pieces() {
            match piece {
                Piece::Start(section) => self.on_section_start(section),
                Piece::Branch(ev) => self.on_inst(ev),
                Piece::Run(run) => {
                    self.cur_block += run.bytes;
                    self.cur_run += run.bytes;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_isa::{Addr, BranchKind, InstClass, Outcome};
    use rebalance_trace::BranchEvent;

    fn other(len: u8, s: Section) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(0),
            len,
            class: InstClass::Other,
            branch: None,
            section: s,
        }
    }

    fn branch(len: u8, taken: bool, s: Section) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(0),
            len,
            class: InstClass::Branch(BranchKind::CondDirect),
            branch: Some(BranchEvent {
                kind: BranchKind::CondDirect,
                outcome: Outcome::from_taken(taken),
                target: Some(Addr::new(4)),
            }),
            section: s,
        }
    }

    #[test]
    fn block_lengths_accumulate_per_branch() {
        let mut t = BasicBlockTool::new();
        t.on_section_start(Section::Parallel);
        // Block 1: 4 + 4 + 6(branch, not taken) = 14 bytes.
        t.on_inst(&other(4, Section::Parallel));
        t.on_inst(&other(4, Section::Parallel));
        t.on_inst(&branch(6, false, Section::Parallel));
        // Block 2: 4 + 6(branch, taken) = 10 bytes.
        t.on_inst(&other(4, Section::Parallel));
        t.on_inst(&branch(6, true, Section::Parallel));
        let r = t.report();
        let p = r.section(Section::Parallel);
        assert_eq!(p.blocks, 2);
        assert_eq!(p.block_bytes, 24);
        assert!((p.avg_block_bytes() - 12.0).abs() < 1e-12);
        // Taken distance spans the not-taken branch: 14 + 10 = 24 bytes.
        assert_eq!(p.taken_runs, 1);
        assert_eq!(p.taken_run_bytes, 24);
        assert!((p.avg_taken_distance() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn taken_distance_longer_than_blocks_with_not_taken_branches() {
        let mut t = BasicBlockTool::new();
        t.on_section_start(Section::Serial);
        for _ in 0..10 {
            // 3 not-taken branches then a taken one.
            for _ in 0..3 {
                t.on_inst(&other(4, Section::Serial));
                t.on_inst(&branch(6, false, Section::Serial));
            }
            t.on_inst(&other(4, Section::Serial));
            t.on_inst(&branch(6, true, Section::Serial));
        }
        let s = *t.report().section(Section::Serial);
        assert!(s.avg_taken_distance() > 3.0 * s.avg_block_bytes());
    }

    #[test]
    fn section_boundary_resets_partial_runs() {
        let mut t = BasicBlockTool::new();
        t.on_section_start(Section::Serial);
        t.on_inst(&other(8, Section::Serial)); // dangling partial block
        t.on_section_start(Section::Parallel);
        t.on_inst(&other(4, Section::Parallel));
        t.on_inst(&branch(6, true, Section::Parallel));
        let r = t.report();
        // The serial partial block was discarded.
        assert_eq!(r.section(Section::Serial).blocks, 0);
        assert_eq!(r.section(Section::Parallel).block_bytes, 10);
    }

    #[test]
    fn total_merges_sections() {
        let mut t = BasicBlockTool::new();
        t.on_section_start(Section::Serial);
        t.on_inst(&branch(6, true, Section::Serial));
        t.on_section_start(Section::Parallel);
        t.on_inst(&branch(6, true, Section::Parallel));
        let total = t.report().total();
        assert_eq!(total.blocks, 2);
        assert_eq!(total.taken_runs, 2);
    }
}
