//! Figure 3: static instruction footprint and the memory needed to hold
//! 99% of dynamic instructions.

use rebalance_trace::{EventBatch, Piece, Pintool, Program, Section, TraceEvent};
use serde::{Deserialize, Serialize};

use rebalance_trace::BySection;

use crate::pc_hash::PcMap;

/// Footprint numbers for one section (or the total).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FootprintNumbers {
    /// Bytes of distinct instructions ever executed (the *touched*
    /// footprint).
    pub touched_bytes: u64,
    /// Bytes needed to hold 99% of dynamic instructions.
    pub dyn99_bytes: u64,
    /// Dynamic instructions observed.
    pub instructions: u64,
}

impl FootprintNumbers {
    /// `dyn99` in KB.
    pub fn dyn99_kb(&self) -> f64 {
        self.dyn99_bytes as f64 / 1024.0
    }
}

/// Full report, including the whole-program static footprint.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct FootprintReport {
    /// Per-section dynamic footprints.
    pub sections: BySection<FootprintNumbers>,
    /// Combined dynamic footprint.
    pub total: FootprintNumbers,
    /// Static code bytes of the whole program (Figure 3's second series).
    pub static_bytes: u64,
}

impl FootprintReport {
    /// Static footprint in KB.
    pub fn static_kb(&self) -> f64 {
        self.static_bytes as f64 / 1024.0
    }
}

/// The Figure 3 pintool: per-PC execution counting.
///
/// Equivalent to the paper's basic-block counting pintool: afterwards,
/// instructions are sorted by execution count and accumulated until the
/// requested coverage is reached.
///
/// It counts executions per distinct run, not per instruction: a
/// sequential run of plain instructions (a [`Piece::Run`])
/// costs one map lookup however long it is, and so does a branch. At
/// report time each distinct run expands to its instructions' counts.
/// A PC keeps the length and section of its first execution: runs are
/// expanded in the order they were first seen, so the earliest-seen run
/// covering a PC owns it. Reports are the same however the stream is
/// cut into runs, and the same as per-event delivery.
///
/// # Examples
///
/// ```
/// use rebalance_pintools::FootprintTool;
///
/// let tool = FootprintTool::new();
/// assert_eq!(tool.dynamic_footprint(0.99).total.instructions, 0);
/// ```
#[derive(Debug, Default)]
pub struct FootprintTool {
    /// Distinct runs in the order they were first seen.
    runs: Vec<RunCount>,
    /// Start PC → the first run seen from it; runs from the same PC
    /// with other lengths follow through [`RunCount::next`].
    index: PcMap<u64, usize>,
    /// Every distinct run's instruction lengths, back to back.
    lens: Vec<u8>,
}

/// One distinct run: where it starts, its lengths, the section of its
/// first execution and how often it ran.
#[derive(Debug, Clone, Copy)]
struct RunCount {
    pc: u64,
    /// Its lengths: `lens[at..at + insts]` of the tool.
    at: usize,
    insts: usize,
    section: Section,
    count: u64,
    /// The next run from the same PC.
    next: Option<usize>,
}

impl FootprintTool {
    /// Creates an empty tool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one execution of the instructions at `pc` with lengths
    /// `lens`, in `section`.
    #[inline]
    fn count(&mut self, pc: u64, lens: &[u8], section: Section) {
        let new = self.runs.len();
        let mut slot = self.index.get(&pc).copied();
        while let Some(i) = slot {
            let run = &mut self.runs[i];
            // Runs are short: a byte loop beats a `memcmp` call.
            let same = run.insts == lens.len()
                && (self.lens[run.at..run.at + lens.len()].iter())
                    .zip(lens)
                    .all(|(a, b)| a == b);
            if same {
                run.count += 1;
                return;
            }
            slot = run.next;
            if slot.is_none() {
                run.next = Some(new);
            }
        }
        self.index.entry(pc).or_insert(new);
        self.runs.push(RunCount {
            pc,
            at: self.lens.len(),
            insts: lens.len(),
            section,
            count: 1,
            next: None,
        });
        self.lens.extend_from_slice(lens);
    }

    /// Every executed PC with its execution count, and the length and
    /// section of its first execution.
    fn per_pc(&self) -> PcMap<u64, (u64, u8, Section)> {
        let mut pcs = PcMap::default();
        for run in &self.runs {
            let mut pc = run.pc;
            for &len in &self.lens[run.at..run.at + run.insts] {
                pcs.entry(pc).or_insert((0, len, run.section)).0 += run.count;
                pc = pc.wrapping_add(u64::from(len));
            }
        }
        pcs
    }

    /// Computes footprints at the given dynamic coverage (the paper uses
    /// `0.99`), without static information.
    ///
    /// # Panics
    ///
    /// Panics if `coverage` is not within `(0, 1]`.
    pub fn dynamic_footprint(&self, coverage: f64) -> FootprintReport {
        assert!(
            coverage > 0.0 && coverage <= 1.0,
            "coverage must be in (0,1], got {coverage}"
        );
        let pcs = self.per_pc();
        let mut per_section: BySection<Vec<(u64, u8)>> = BySection::default();
        let mut all: Vec<(u64, u8)> = Vec::with_capacity(pcs.len());
        for &(count, len, section) in pcs.values() {
            per_section.get_mut(section).push((count, len));
            all.push((count, len));
        }
        let sections = per_section.map(|v| summarize(v.clone(), coverage));
        let total = summarize(all, coverage);
        FootprintReport {
            sections,
            total,
            static_bytes: 0,
        }
    }

    /// Computes the full report including the program's static footprint.
    pub fn report(&self, program: &Program, coverage: f64) -> FootprintReport {
        self.report_with_static(program.static_bytes(), coverage)
    }

    /// Like [`FootprintTool::report`], from a pre-computed static code
    /// size — for callers replaying a cached snapshot, which carries
    /// the dynamic stream and the static code size but not the program
    /// model.
    pub fn report_with_static(&self, static_bytes: u64, coverage: f64) -> FootprintReport {
        let mut r = self.dynamic_footprint(coverage);
        r.static_bytes = static_bytes;
        r
    }

    /// Number of distinct instructions observed.
    pub fn distinct_instructions(&self) -> usize {
        self.per_pc().len()
    }
}

fn summarize(mut entries: Vec<(u64, u8)>, coverage: f64) -> FootprintNumbers {
    let instructions: u64 = entries.iter().map(|(c, _)| *c).sum();
    let touched_bytes: u64 = entries.iter().map(|(_, l)| u64::from(*l)).sum();
    // Total order (count desc, len desc): equal pairs are interchangeable,
    // so the cut-off is deterministic despite HashMap iteration order.
    entries.sort_unstable_by(|a, b| b.cmp(a));
    let target = instructions as f64 * coverage;
    let mut covered = 0u64;
    let mut bytes = 0u64;
    for (count, len) in entries {
        if covered as f64 >= target {
            break;
        }
        covered += count;
        bytes += u64::from(len);
    }
    FootprintNumbers {
        touched_bytes,
        dyn99_bytes: bytes,
        instructions,
    }
}

impl Pintool for FootprintTool {
    fn on_inst(&mut self, ev: &TraceEvent) {
        self.count(ev.pc.as_u64(), std::slice::from_ref(&ev.len), ev.section);
    }

    /// One count per branch and per plain run.
    fn on_batch(&mut self, batch: &EventBatch) {
        for piece in batch.pieces() {
            match piece {
                Piece::Start(_) => {}
                Piece::Branch(ev) => self.on_inst(ev),
                Piece::Run(run) => self.count(run.pc.as_u64(), run.lens, run.section),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_isa::{Addr, InstClass};

    fn ev(pc: u64, len: u8, section: Section) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(pc),
            len,
            class: InstClass::Other,
            branch: None,
            section,
        }
    }

    #[test]
    fn hot_instructions_dominate_the_99_footprint() {
        let mut t = FootprintTool::new();
        // Hot instruction: 990 executions, 4 bytes.
        for _ in 0..990 {
            t.on_inst(&ev(0x100, 4, Section::Parallel));
        }
        // Ten cold instructions: 1 execution each, 8 bytes each.
        for i in 0..10 {
            t.on_inst(&ev(0x200 + i * 8, 8, Section::Parallel));
        }
        let r = t.dynamic_footprint(0.99);
        let p = r.sections.parallel;
        assert_eq!(p.instructions, 1000);
        assert_eq!(p.touched_bytes, 4 + 80);
        // 990 of 1000 < 990 target? target = 990. covered after hot = 990
        // >= 990, so exactly the hot instruction suffices.
        assert_eq!(p.dyn99_bytes, 4);
    }

    #[test]
    fn full_coverage_equals_touched() {
        let mut t = FootprintTool::new();
        for i in 0..5 {
            t.on_inst(&ev(i * 4, 4, Section::Serial));
        }
        let r = t.dynamic_footprint(1.0);
        assert_eq!(r.sections.serial.dyn99_bytes, 20);
        assert_eq!(r.sections.serial.touched_bytes, 20);
        assert_eq!(r.sections.serial.dyn99_kb(), 20.0 / 1024.0);
    }

    #[test]
    fn sections_tracked_separately() {
        let mut t = FootprintTool::new();
        for _ in 0..10 {
            t.on_inst(&ev(0x100, 4, Section::Serial));
            t.on_inst(&ev(0x900, 6, Section::Parallel));
        }
        let r = t.dynamic_footprint(0.99);
        assert_eq!(r.sections.serial.touched_bytes, 4);
        assert_eq!(r.sections.parallel.touched_bytes, 6);
        assert_eq!(r.total.touched_bytes, 10);
        assert_eq!(r.total.instructions, 20);
        assert_eq!(t.distinct_instructions(), 2);
    }

    /// Runs that overlap and recur in another section: each PC keeps the
    /// section of its first execution, through run batches as per event.
    #[test]
    fn the_earliest_run_covering_a_pc_owns_it() {
        use rebalance_trace::{Snapshot, SnapshotWriter};
        let mut writer = SnapshotWriter::new(Vec::new(), 0, 0);
        let run = |writer: &mut SnapshotWriter<Vec<u8>>, pcs: &[u64], section| {
            writer.on_section_start(section);
            for &pc in pcs {
                writer.on_inst(&ev(pc, 4, section));
            }
        };
        run(&mut writer, &[0x104, 0x108], Section::Serial);
        run(
            &mut writer,
            &[0x100, 0x104, 0x108, 0x10C],
            Section::Parallel,
        );
        run(&mut writer, &[0x104, 0x108], Section::Parallel);
        let bytes = writer.finish().unwrap().0;
        let snapshot = Snapshot::parse(&bytes).unwrap();
        let mut by_runs = FootprintTool::new();
        snapshot.replay(&mut by_runs).unwrap();
        assert_eq!(by_runs.need(), rebalance_trace::Need::Events);
        let mut per_event = FootprintTool::new();
        snapshot.replay_per_event(&mut per_event).unwrap();
        for t in [&by_runs, &per_event] {
            let r = t.dynamic_footprint(1.0);
            assert_eq!(r.sections.serial.instructions, 6, "0x104 and 0x108, thrice");
            assert_eq!(r.sections.serial.touched_bytes, 8);
            assert_eq!(r.sections.parallel.instructions, 2, "0x100 and 0x10C, once");
            assert_eq!(r.sections.parallel.touched_bytes, 8);
            assert_eq!(t.distinct_instructions(), 4);
        }
    }

    #[test]
    #[should_panic(expected = "coverage")]
    fn invalid_coverage_panics() {
        FootprintTool::new().dynamic_footprint(0.0);
    }

    #[test]
    fn report_includes_static_bytes() {
        use rebalance_trace::{ProgramBuilder, Terminator};
        let mut b = ProgramBuilder::new();
        let r = b.region("r");
        b.add_block(r, 4, Terminator::Exit);
        let program = b.build().unwrap();
        let t = FootprintTool::new();
        let rep = t.report(&program, 0.99);
        assert_eq!(rep.static_bytes, program.static_bytes());
        assert!(rep.static_kb() > 0.0);
    }
}
