//! The branch-MPKI measurement harness (Figures 5 and 6).

use rebalance_isa::BranchTrajectory;
use rebalance_trace::{weighted_add, BySection, EventBatch, Need, Pintool, Section, TraceEvent};
use serde::{Deserialize, Serialize};

use super::DirectionPredictor;

/// Misprediction counts split by the *actual* branch trajectory — the
/// paper's Figure 6 stacking (mispredictions on not-taken, on
/// taken-backward, and on taken-forward branches).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MissBreakdown {
    /// Mispredictions where the branch was actually not taken.
    pub not_taken: u64,
    /// Mispredictions on taken backward branches.
    pub taken_backward: u64,
    /// Mispredictions on taken forward branches.
    pub taken_forward: u64,
}

impl MissBreakdown {
    /// Total mispredictions.
    pub fn total(&self) -> u64 {
        self.not_taken + self.taken_backward + self.taken_forward
    }

    /// Merges another breakdown.
    pub fn merge(&mut self, other: &MissBreakdown) {
        self.not_taken += other.not_taken;
        self.taken_backward += other.taken_backward;
        self.taken_forward += other.taken_forward;
    }

    /// Rescales the counts accumulated since `mark` (an earlier copy of
    /// `self`) as if they had been observed `weight` times.
    pub fn scale_from(&mut self, mark: &MissBreakdown, weight: u64) {
        self.not_taken = weighted_add(mark.not_taken, self.not_taken - mark.not_taken, weight);
        self.taken_backward = weighted_add(
            mark.taken_backward,
            self.taken_backward - mark.taken_backward,
            weight,
        );
        self.taken_forward = weighted_add(
            mark.taken_forward,
            self.taken_forward - mark.taken_forward,
            weight,
        );
    }
}

/// Per-section predictor statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PredictorStats {
    /// All instructions (the MPKI denominator).
    pub insts: u64,
    /// Conditional branches predicted.
    pub cond_branches: u64,
    /// Mispredictions, by actual trajectory.
    pub breakdown: MissBreakdown,
}

impl PredictorStats {
    /// Branch mispredictions per kilo-instruction.
    pub fn mpki(&self) -> f64 {
        if self.insts == 0 {
            0.0
        } else {
            self.breakdown.total() as f64 * 1000.0 / self.insts as f64
        }
    }

    /// Misprediction rate per conditional branch.
    pub fn miss_rate(&self) -> f64 {
        if self.cond_branches == 0 {
            0.0
        } else {
            self.breakdown.total() as f64 / self.cond_branches as f64
        }
    }

    /// Merges another accumulator.
    pub fn merge(&mut self, other: &PredictorStats) {
        self.insts += other.insts;
        self.cond_branches += other.cond_branches;
        self.breakdown.merge(&other.breakdown);
    }

    /// Rescales the counts accumulated since `mark` (an earlier copy of
    /// `self`) as if they had been observed `weight` times — saturating
    /// u128 math via [`weighted_add`], so extreme weights truncate to
    /// `u64::MAX` instead of wrapping.
    pub fn scale_from(&mut self, mark: &PredictorStats, weight: u64) {
        self.insts = weighted_add(mark.insts, self.insts - mark.insts, weight);
        self.cond_branches = weighted_add(
            mark.cond_branches,
            self.cond_branches - mark.cond_branches,
            weight,
        );
        self.breakdown.scale_from(&mark.breakdown, weight);
    }
}

/// Per-section + total predictor report.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PredictorReport {
    /// Predictor display name (e.g. `"L-gshare"`).
    pub name: String,
    /// Hardware budget in bits.
    pub budget_bits: u64,
    /// Per-section stats.
    pub sections: BySection<PredictorStats>,
}

impl PredictorReport {
    /// Combined stats.
    pub fn total(&self) -> PredictorStats {
        let mut t = self.sections.serial;
        t.merge(&self.sections.parallel);
        t
    }

    /// Stats for one section.
    pub fn section(&self, section: Section) -> &PredictorStats {
        self.sections.get(section)
    }
}

/// Drives a [`DirectionPredictor`] over the instruction stream and
/// counts MPKI plus the Figure 6 misprediction breakdown.
///
/// Only conditional direct branches consult the direction predictor
/// (unconditional transfers have nothing to predict); every instruction
/// counts toward the MPKI denominator, exactly as the paper reports it.
///
/// # Examples
///
/// ```
/// use rebalance_frontend::predictor::{PredictorSim, Tage, TageConfig};
/// use rebalance_workloads::{find, Scale};
///
/// let trace = find("swim").unwrap().trace(Scale::Smoke).unwrap();
/// let mut sim = PredictorSim::new(Tage::new(TageConfig::small()));
/// trace.replay(&mut sim);
/// assert!(sim.report().total().mpki() < 15.0);
/// ```
#[derive(Debug)]
pub struct PredictorSim<P> {
    predictor: P,
    sections: BySection<PredictorStats>,
    /// Counter snapshot at the last sampled-replay boundary.
    mark: BySection<PredictorStats>,
}

impl<P: DirectionPredictor> PredictorSim<P> {
    /// Wraps a predictor for measurement.
    pub fn new(predictor: P) -> Self {
        PredictorSim {
            predictor,
            sections: BySection::default(),
            mark: BySection::default(),
        }
    }

    /// Access to the wrapped predictor.
    pub fn predictor(&self) -> &P {
        &self.predictor
    }

    /// Snapshot of the accumulated statistics.
    pub fn report(&self) -> PredictorReport {
        PredictorReport {
            name: self.predictor.name().to_owned(),
            budget_bits: self.predictor.budget_bits(),
            sections: self.sections,
        }
    }

    fn classify(&mut self, trajectory: BranchTrajectory, section: Section) {
        let b = &mut self.sections.get_mut(section).breakdown;
        match trajectory {
            BranchTrajectory::NotTaken => b.not_taken += 1,
            BranchTrajectory::TakenBackward => b.taken_backward += 1,
            BranchTrajectory::TakenForward => b.taken_forward += 1,
        }
    }
}

impl<P: DirectionPredictor> Pintool for PredictorSim<P> {
    fn on_inst(&mut self, ev: &TraceEvent) {
        self.sections.get_mut(ev.section).insts += 1;
        let Some(br) = ev.branch else { return };
        if !br.kind.is_conditional() {
            return;
        }
        self.sections.get_mut(ev.section).cond_branches += 1;
        let taken = br.outcome.is_taken();
        let predicted = self.predictor.predict(ev.pc);
        if predicted != taken {
            self.classify(br.trajectory(ev.pc), ev.section);
        }
        self.predictor.update(ev.pc, taken);
    }

    /// Hot path: the MPKI denominator comes from the batch's
    /// per-section counts (two adds per block), the predictor loop
    /// walks only the precomputed branch subset (skipping the ~80-90%
    /// of events a direction predictor never looks at), and
    /// predict+update run as one fused [`DirectionPredictor::observe`]
    /// call — all bit-identical to the per-event path by the observe
    /// contract.
    fn on_batch(&mut self, batch: &EventBatch) {
        let insts = batch.sections();
        self.sections.serial.insts += insts.serial;
        self.sections.parallel.insts += insts.parallel;
        for ev in batch.branch_events() {
            let br = ev.branch.expect("branch slice carries branch events");
            if !br.kind.is_conditional() {
                continue;
            }
            self.sections.get_mut(ev.section).cond_branches += 1;
            let taken = br.outcome.is_taken();
            let predicted = self.predictor.observe(ev.pc, taken);
            if predicted != taken {
                self.classify(br.trajectory(ev.pc), ev.section);
            }
        }
    }

    /// The window since the previous boundary stands in for `weight`
    /// intervals: scale its counter deltas (predictor state stays live —
    /// representative intervals warm it for the next window).
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
    use crate::predictor::{Bimodal, Gshare, Tage, TageConfig, Tournament, WithLoop};
    use rebalance_isa::{Addr, BranchKind, InstClass, Outcome};
    use rebalance_trace::BranchEvent;
    use rebalance_workloads::{find, Scale};

    fn cond(pc: u64, target: u64, taken: bool) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(pc),
            len: 6,
            class: InstClass::Branch(BranchKind::CondDirect),
            branch: Some(BranchEvent {
                kind: BranchKind::CondDirect,
                outcome: Outcome::from_taken(taken),
                target: Some(Addr::new(target)),
            }),
            section: Section::Parallel,
        }
    }

    #[test]
    fn counts_and_classifies_misses() {
        let mut sim = PredictorSim::new(Bimodal::new(10));
        // Bimodal starts weakly-not-taken: the first taken backward
        // branch is a miss classified as taken-backward.
        sim.on_inst(&cond(0x100, 0x80, true));
        let r = sim.report();
        assert_eq!(r.total().cond_branches, 1);
        assert_eq!(r.total().breakdown.taken_backward, 1);
        assert_eq!(r.total().breakdown.total(), 1);
    }

    #[test]
    fn mpki_uses_all_instructions() {
        let mut sim = PredictorSim::new(Bimodal::new(10));
        for _ in 0..999 {
            sim.on_inst(&TraceEvent {
                pc: Addr::new(0x10),
                len: 4,
                class: InstClass::Other,
                branch: None,
                section: Section::Parallel,
            });
        }
        sim.on_inst(&cond(0x100, 0x200, true)); // one miss (forward)
        let total = sim.report().total();
        assert_eq!(total.insts, 1000);
        assert!((total.mpki() - 1.0).abs() < 1e-12);
        assert_eq!(total.breakdown.taken_forward, 1);
        assert!((total.miss_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unconditional_branches_not_predicted() {
        let mut sim = PredictorSim::new(Bimodal::new(10));
        let mut ev = cond(0x100, 0x200, true);
        ev.class = InstClass::Branch(BranchKind::UncondDirect);
        ev.branch = Some(BranchEvent {
            kind: BranchKind::UncondDirect,
            outcome: Outcome::Taken,
            target: Some(Addr::new(0x200)),
        });
        sim.on_inst(&ev);
        assert_eq!(sim.report().total().cond_branches, 0);
        assert_eq!(sim.report().total().breakdown.total(), 0);
    }

    /// End-to-end ordering check on a real HPC workload: TAGE ≤ gshare
    /// at equal budget, and the loop BP helps the small gshare. All
    /// three predictors observe one shared replay via a fan-out
    /// [`ToolSet`](rebalance_trace::ToolSet).
    #[test]
    fn predictor_quality_ordering_on_hpc_workload() {
        use crate::predictor::DirectionPredictor;
        use rebalance_trace::ToolSet;

        let trace = find("botsspar").unwrap().trace(Scale::Smoke).unwrap();
        let mut set: ToolSet<PredictorSim<Box<dyn DirectionPredictor>>> = [
            Box::new(Gshare::new(13)) as Box<dyn DirectionPredictor>,
            Box::new(WithLoop::new(Gshare::new(13))),
            Box::new(Tage::new(TageConfig::small())),
        ]
        .into_iter()
        .map(PredictorSim::new)
        .collect();
        trace.replay(&mut set);
        let mpki: Vec<f64> = set.iter().map(|s| s.report().total().mpki()).collect();
        let (g, lg, t) = (mpki[0], mpki[1], mpki[2]);
        assert!(lg <= g + 0.05, "LBP should not hurt: {lg} vs {g}");
        assert!(
            t <= g + 0.1,
            "TAGE should be competitive: {t} vs gshare {g}"
        );
    }

    #[test]
    fn report_carries_name_and_budget() {
        let sim = PredictorSim::new(Tournament::new(10, 8));
        let r = sim.report();
        assert_eq!(r.name, "tournament");
        assert_eq!(r.budget_bits, 1024 * 10 + 1024);
        assert_eq!(sim.predictor().name(), "tournament");
    }
}
