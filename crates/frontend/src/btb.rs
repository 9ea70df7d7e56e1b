//! Branch target buffer (Figure 7) with a return-address stack.

use rebalance_isa::Addr;
use rebalance_trace::{weighted_add, BySection, EventBatch, Need, Pintool, Section, TraceEvent};
use serde::{Deserialize, Serialize};

use crate::ras::ReturnAddressStack;

/// BTB geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BtbConfig {
    /// Total entries (power of two).
    pub entries: usize,
    /// Set associativity (power of two, ≤ entries).
    pub assoc: usize,
}

impl BtbConfig {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` and `assoc` are powers of two with
    /// `assoc <= entries`.
    pub fn new(entries: usize, assoc: usize) -> Self {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        assert!(assoc.is_power_of_two(), "assoc must be a power of two");
        assert!(assoc <= entries, "assoc cannot exceed entries");
        BtbConfig { entries, assoc }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.entries / self.assoc
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct BtbEntry {
    valid: bool,
    tag: u64,
    target: Addr,
    lru: u32,
}

/// Set-associative branch target buffer.
///
/// As in the paper: indexed by the branch address (simple modulo), only
/// *taken* branches allocate, and a hit requires both the tag and a
/// matching stored target.
///
/// # Examples
///
/// ```
/// use rebalance_frontend::{Btb, BtbConfig};
/// use rebalance_isa::Addr;
///
/// let mut btb = Btb::new(BtbConfig::new(256, 4));
/// let (pc, target) = (Addr::new(0x1000), Addr::new(0x2000));
/// assert_eq!(btb.lookup(pc), None);
/// btb.insert(pc, target);
/// assert_eq!(btb.lookup(pc), Some(target));
/// ```
#[derive(Debug, Clone)]
pub struct Btb {
    cfg: BtbConfig,
    sets: Vec<BtbEntry>,
    clock: u32,
}

impl Btb {
    /// Creates an empty BTB.
    pub fn new(cfg: BtbConfig) -> Self {
        Btb {
            sets: vec![BtbEntry::default(); cfg.entries],
            cfg,
            clock: 0,
        }
    }

    /// The geometry.
    pub fn config(&self) -> BtbConfig {
        self.cfg
    }

    #[inline]
    fn set_of(&self, pc: Addr) -> usize {
        ((pc.as_u64() >> 1) % self.cfg.sets() as u64) as usize
    }

    #[inline]
    fn tag_of(&self, pc: Addr) -> u64 {
        (pc.as_u64() >> 1) / self.cfg.sets() as u64
    }

    /// Looks up the stored target for `pc`, refreshing LRU on hit.
    pub fn lookup(&mut self, pc: Addr) -> Option<Addr> {
        self.clock += 1;
        let set = self.set_of(pc);
        let tag = self.tag_of(pc);
        let base = set * self.cfg.assoc;
        for way in &mut self.sets[base..base + self.cfg.assoc] {
            if way.valid && way.tag == tag {
                way.lru = self.clock;
                return Some(way.target);
            }
        }
        None
    }

    /// Inserts or updates the target for a taken branch at `pc`,
    /// evicting the set's LRU way if needed.
    pub fn insert(&mut self, pc: Addr, target: Addr) {
        self.clock += 1;
        let set = self.set_of(pc);
        let tag = self.tag_of(pc);
        let base = set * self.cfg.assoc;
        // Update an existing entry first.
        let mut victim = base;
        let mut oldest = u32::MAX;
        for i in base..base + self.cfg.assoc {
            let way = &mut self.sets[i];
            if way.valid && way.tag == tag {
                way.target = target;
                way.lru = self.clock;
                return;
            }
            let age = if way.valid { way.lru } else { 0 };
            if age < oldest {
                oldest = age;
                victim = i;
            }
        }
        self.sets[victim] = BtbEntry {
            valid: true,
            tag,
            target,
            lru: self.clock,
        };
    }
}

/// Per-section BTB statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BtbStats {
    /// All instructions (MPKI denominator).
    pub insts: u64,
    /// Taken branches that consulted the BTB.
    pub lookups: u64,
    /// Lookups that missed (absent or stale target).
    pub misses: u64,
    /// Returns predicted by the RAS.
    pub ras_predictions: u64,
    /// Returns the RAS got wrong (underflow/overwrite).
    pub ras_misses: u64,
}

impl BtbStats {
    /// BTB misses per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.misses as f64 * 1000.0 / self.insts as f64
        }
    }

    /// Miss rate per lookup.
    pub fn miss_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.misses as f64 / self.lookups as f64
        }
    }

    /// Merges another accumulator.
    pub fn merge(&mut self, other: &BtbStats) {
        self.insts += other.insts;
        self.lookups += other.lookups;
        self.misses += other.misses;
        self.ras_predictions += other.ras_predictions;
        self.ras_misses += other.ras_misses;
    }

    /// Rescales the counts accumulated since `mark` (an earlier copy of
    /// `self`) as if they had been observed `weight` times — saturating
    /// u128 math via [`weighted_add`].
    pub fn scale_from(&mut self, mark: &BtbStats, weight: u64) {
        self.insts = weighted_add(mark.insts, self.insts - mark.insts, weight);
        self.lookups = weighted_add(mark.lookups, self.lookups - mark.lookups, weight);
        self.misses = weighted_add(mark.misses, self.misses - mark.misses, weight);
        self.ras_predictions = weighted_add(
            mark.ras_predictions,
            self.ras_predictions - mark.ras_predictions,
            weight,
        );
        self.ras_misses = weighted_add(mark.ras_misses, self.ras_misses - mark.ras_misses, weight);
    }
}

/// Per-section + total BTB report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BtbReport {
    /// Geometry measured.
    pub config: BtbConfig,
    /// Per-section stats.
    pub sections: BySection<BtbStats>,
}

impl Default for BtbConfig {
    fn default() -> Self {
        BtbConfig::new(2048, 8)
    }
}

impl BtbReport {
    /// Combined stats.
    pub fn total(&self) -> BtbStats {
        let mut t = self.sections.serial;
        t.merge(&self.sections.parallel);
        t
    }

    /// Stats for one section.
    pub fn section(&self, section: Section) -> &BtbStats {
        self.sections.get(section)
    }
}

/// Drives a [`Btb`] (plus an 8-entry RAS for returns) over the
/// instruction stream — the Figure 7 measurement.
///
/// Taken non-return branches look the BTB up and allocate on miss;
/// returns go through the RAS, as on a real lean core, so deep call
/// chains produce RAS (not BTB) mispredictions.
///
/// # Examples
///
/// ```
/// use rebalance_frontend::{BtbConfig, BtbSim};
/// use rebalance_workloads::{find, Scale};
///
/// let trace = find("MG").unwrap().trace(Scale::Smoke).unwrap();
/// let mut sim = BtbSim::new(BtbConfig::new(256, 4));
/// trace.replay(&mut sim);
/// assert!(sim.report().total().mpki() < 20.0);
/// ```
#[derive(Debug)]
pub struct BtbSim {
    btb: Btb,
    ras: ReturnAddressStack,
    sections: BySection<BtbStats>,
    /// Counter snapshot at the last sampled-replay boundary.
    mark: BySection<BtbStats>,
}

impl BtbSim {
    /// Creates a measurement harness with an 8-entry RAS.
    pub fn new(cfg: BtbConfig) -> Self {
        BtbSim {
            btb: Btb::new(cfg),
            ras: ReturnAddressStack::new(8),
            sections: BySection::default(),
            mark: BySection::default(),
        }
    }

    /// Snapshot of the accumulated stats.
    pub fn report(&self) -> BtbReport {
        BtbReport {
            config: self.btb.config(),
            sections: self.sections,
        }
    }
}

impl BtbSim {
    /// The branch-only step shared by per-event and batched delivery
    /// (non-branch events only contribute to the instruction counters).
    #[inline]
    fn step_branch(&mut self, ev: &TraceEvent, br: &rebalance_trace::BranchEvent) {
        use rebalance_isa::BranchKind;
        let stats = self.sections.get_mut(ev.section);
        // Calls push the fall-through PC for the matching return.
        if br.kind.is_call() && br.outcome.is_taken() {
            self.ras.push(ev.next_pc());
        }
        if br.kind == BranchKind::Return {
            stats.ras_predictions += 1;
            let predicted = self.ras.pop();
            if predicted != br.target {
                self.sections.get_mut(ev.section).ras_misses += 1;
            }
            return;
        }
        if !br.kind.uses_btb() || !br.outcome.is_taken() {
            return;
        }
        let Some(actual) = br.target else { return };
        self.sections.get_mut(ev.section).lookups += 1;
        match self.btb.lookup(ev.pc) {
            Some(stored) if stored == actual => {}
            _ => {
                self.sections.get_mut(ev.section).misses += 1;
                self.btb.insert(ev.pc, actual);
            }
        }
    }
}

impl Pintool for BtbSim {
    fn on_inst(&mut self, ev: &TraceEvent) {
        self.sections.get_mut(ev.section).insts += 1;
        let Some(br) = ev.branch else { return };
        self.step_branch(ev, &br);
    }

    /// Hot path: instruction counts come from the batch's per-section
    /// totals; only the dense branch slice reaches the BTB/RAS step.
    fn on_batch(&mut self, batch: &EventBatch) {
        let insts = batch.sections();
        self.sections.serial.insts += insts.serial;
        self.sections.parallel.insts += insts.parallel;
        for ev in batch.branch_events() {
            let br = ev.branch.expect("branch slice carries branch events");
            self.step_branch(ev, &br);
        }
    }

    /// Scales the counter deltas of the window since the last boundary;
    /// BTB/RAS state stays live across representatives.
    fn on_sample_weight(&mut self, weight: u64) {
        if weight != 1 {
            self.sections.serial.scale_from(&self.mark.serial, weight);
            self.sections
                .parallel
                .scale_from(&self.mark.parallel, weight);
        }
        self.mark = self.sections;
    }

    fn supports_sampled_replay(&self) -> bool {
        true
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
    use rebalance_isa::{BranchKind, InstClass, Outcome};
    use rebalance_trace::BranchEvent;

    fn taken_branch(pc: u64, target: u64, kind: BranchKind) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(pc),
            len: 5,
            class: InstClass::Branch(kind),
            branch: Some(BranchEvent {
                kind,
                outcome: Outcome::Taken,
                target: Some(Addr::new(target)),
            }),
            section: Section::Parallel,
        }
    }

    #[test]
    fn config_geometry() {
        let c = BtbConfig::new(1024, 8);
        assert_eq!(c.sets(), 128);
        assert_eq!(BtbConfig::default().entries, 2048);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = BtbConfig::new(1000, 4);
    }

    #[test]
    fn hit_after_insert() {
        let mut btb = Btb::new(BtbConfig::new(64, 2));
        let pc = Addr::new(0x1234);
        btb.insert(pc, Addr::new(0x9000));
        assert_eq!(btb.lookup(pc), Some(Addr::new(0x9000)));
        // Target update.
        btb.insert(pc, Addr::new(0xa000));
        assert_eq!(btb.lookup(pc), Some(Addr::new(0xa000)));
    }

    #[test]
    fn lru_eviction_within_set() {
        // 2-way set: three conflicting PCs evict the least recently used.
        let cfg = BtbConfig::new(8, 2); // 4 sets
        let mut btb = Btb::new(cfg);
        let sets = cfg.sets() as u64;
        let a = Addr::new(2); // (pc>>1)=1 -> set 1
        let b = Addr::new(2 + 2 * sets);
        let c = Addr::new(2 + 4 * sets);
        btb.insert(a, Addr::new(0x1));
        btb.insert(b, Addr::new(0x2));
        let _ = btb.lookup(a); // refresh a
        btb.insert(c, Addr::new(0x3)); // evicts b
        assert!(btb.lookup(a).is_some());
        assert!(btb.lookup(b).is_none());
        assert!(btb.lookup(c).is_some());
    }

    #[test]
    fn sim_counts_cold_misses_then_hits() {
        let mut sim = BtbSim::new(BtbConfig::new(64, 4));
        let ev = taken_branch(0x100, 0x900, BranchKind::CondDirect);
        sim.on_inst(&ev);
        sim.on_inst(&ev);
        sim.on_inst(&ev);
        let t = sim.report().total();
        assert_eq!(t.lookups, 3);
        assert_eq!(t.misses, 1, "only the cold miss");
    }

    #[test]
    fn stale_target_counts_as_miss() {
        let mut sim = BtbSim::new(BtbConfig::new(64, 4));
        sim.on_inst(&taken_branch(0x100, 0x900, BranchKind::IndirectBranch));
        sim.on_inst(&taken_branch(0x100, 0xa00, BranchKind::IndirectBranch));
        sim.on_inst(&taken_branch(0x100, 0xa00, BranchKind::IndirectBranch));
        let t = sim.report().total();
        assert_eq!(t.misses, 2, "cold miss + retargeted miss");
    }

    #[test]
    fn returns_use_ras_not_btb() {
        let mut sim = BtbSim::new(BtbConfig::new(64, 4));
        // call from 0x100 (len 5 -> return addr 0x105), return to 0x105.
        sim.on_inst(&taken_branch(0x100, 0x900, BranchKind::Call));
        sim.on_inst(&taken_branch(0x910, 0x105, BranchKind::Return));
        let t = sim.report().total();
        assert_eq!(t.ras_predictions, 1);
        assert_eq!(t.ras_misses, 0);
        // The call did a BTB lookup; the return did not.
        assert_eq!(t.lookups, 1);
    }

    #[test]
    fn ras_underflow_is_a_miss() {
        let mut sim = BtbSim::new(BtbConfig::new(64, 4));
        sim.on_inst(&taken_branch(0x910, 0x105, BranchKind::Return));
        let t = sim.report().total();
        assert_eq!(t.ras_misses, 1);
    }

    #[test]
    fn not_taken_branches_skip_the_btb() {
        let mut sim = BtbSim::new(BtbConfig::new(64, 4));
        let mut ev = taken_branch(0x100, 0x900, BranchKind::CondDirect);
        ev.branch = Some(BranchEvent {
            kind: BranchKind::CondDirect,
            outcome: Outcome::NotTaken,
            target: Some(Addr::new(0x900)),
        });
        sim.on_inst(&ev);
        let t = sim.report().total();
        assert_eq!(t.lookups, 0);
        assert_eq!(t.mpki(), 0.0);
    }

    #[test]
    fn higher_associativity_reduces_conflicts() {
        // Many branches mapping to few sets: 8-way beats 2-way.
        let run = |assoc: usize| {
            let mut sim = BtbSim::new(BtbConfig::new(64, assoc));
            for round in 0..50 {
                for i in 0..48u64 {
                    // Stride chosen to collide heavily on the 2-way config.
                    let pc = 0x1000 + i * (64 / assoc.min(8)) as u64 * 16;
                    sim.on_inst(&taken_branch(pc, 0x9000 + i, BranchKind::CondDirect));
                }
                let _ = round;
            }
            sim.report().total().misses
        };
        assert!(run(8) <= run(2));
    }
}
