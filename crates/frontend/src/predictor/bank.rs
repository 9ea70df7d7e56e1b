//! A set of predictor configurations over one replay, running each
//! distinct base predictor once per branch.

use std::fmt;

use rebalance_isa::{Addr, BranchTrajectory};
use rebalance_trace::{BranchEvent, BySection, EventBatch, Need, Pintool, Section, TraceEvent};

use super::loop_pred::{with_loop_name, PAPER_LOOP_ENTRIES};
use super::{DirectionPredictor, LoopPredictor, PredictorReport, PredictorStats};
use crate::config::PredictorChoice;

/// One configuration's counters and where its prediction comes from.
#[derive(Debug)]
struct Member {
    /// Index of its base predictor.
    base: usize,
    /// Whether the shared loop predictor overrides the base.
    looped: bool,
    sections: BySection<PredictorStats>,
    /// Counter snapshot at the last sampled-replay boundary.
    mark: BySection<PredictorStats>,
}

/// A set of [`PredictorChoice`]s as one [`Pintool`]: every choice's
/// [`PredictorReport`] from one pass over the trace, bit-identical to a
/// solo [`PredictorSim`](super::PredictorSim) per choice.
///
/// A [`WithLoop`](super::WithLoop) base always trains on the resolved
/// direction, and its loop predictor never touches the base, so the
/// base of `L-X` goes through exactly the states of a plain `X`. The
/// loop predictor in turn trains on nothing but the branch stream. So
/// the bank builds each stage once per distinct key and fans its
/// output out, the rule `rebalance-fetchsim`'s `FetchGrid` follows:
///
/// | stage | one per |
/// |---|---|
/// | base predictor | (`class`, `size`) |
/// | loop predictor | one, if any choice sets `with_loop` |
/// | counters | choice |
///
/// Per conditional branch every base runs its fused
/// [`observe`](DirectionPredictor::observe) once; a looped choice then
/// takes the loop predictor's confident prediction, else its base's,
/// exactly as `WithLoop::observe` picks between them.
///
/// # Examples
///
/// ```
/// use rebalance_frontend::predictor::{PredictorBank, PredictorSim};
/// use rebalance_frontend::PredictorChoice;
/// use rebalance_workloads::{find, Scale};
///
/// let choices = PredictorChoice::figure5_set();
/// let mut bank = PredictorBank::new(&choices); // 6 bases, 1 loop predictor
/// let trace = find("CG").unwrap().trace(Scale::Smoke).unwrap();
/// trace.replay(&mut bank);
/// let mut solo = PredictorSim::new(choices[8].build());
/// trace.replay(&mut solo);
/// assert_eq!(bank.reports()[8], solo.report()); // L-tage-small
/// ```
pub struct PredictorBank {
    bases: Vec<Box<dyn DirectionPredictor>>,
    lbp: Option<LoopPredictor>,
    members: Vec<Member>,
}

impl fmt::Debug for PredictorBank {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PredictorBank")
            .field("bases", &self.bases.len())
            .field("lbp", &self.lbp.is_some())
            .field("members", &self.members)
            .finish_non_exhaustive()
    }
}

impl PredictorBank {
    /// Groups `choices` by base key (choices may repeat; each still
    /// gets its own counters and report).
    ///
    /// # Panics
    ///
    /// Panics if `choices` name more than 64 distinct bases (one bit
    /// each in the per-branch miss mask).
    pub fn new(choices: &[PredictorChoice]) -> Self {
        let mut keys = Vec::new();
        let mut bases = Vec::new();
        let mut members = Vec::with_capacity(choices.len());
        for choice in choices {
            let key = (choice.class, choice.size);
            let base = keys.iter().position(|k| *k == key).unwrap_or_else(|| {
                keys.push(key);
                bases.push(PredictorChoice::new(choice.class, choice.size, false).build());
                keys.len() - 1
            });
            members.push(Member {
                base,
                looped: choice.with_loop,
                sections: BySection::default(),
                mark: BySection::default(),
            });
        }
        assert!(bases.len() <= 64, "at most 64 distinct base predictors");
        let looped = members.iter().any(|m| m.looped);
        PredictorBank {
            bases,
            lbp: looped.then(|| LoopPredictor::new(PAPER_LOOP_ENTRIES)),
            members,
        }
    }

    /// `(base predictors, loop predictors)` the bank runs.
    pub fn shape(&self) -> (usize, usize) {
        (self.bases.len(), usize::from(self.lbp.is_some()))
    }

    /// One report per choice, in construction order, named and budgeted
    /// as the solo predictor would be.
    pub fn reports(&self) -> Vec<PredictorReport> {
        let lbp_bits = self.lbp.as_ref().map_or(0, LoopPredictor::budget_bits);
        (self.members.iter())
            .map(|m| {
                let base = &self.bases[m.base];
                let (name, budget_bits) = if m.looped {
                    (with_loop_name(base.name()), base.budget_bits() + lbp_bits)
                } else {
                    (base.name(), base.budget_bits())
                };
                PredictorReport {
                    name: name.to_owned(),
                    budget_bits,
                    sections: m.sections,
                }
            })
            .collect()
    }

    /// One conditional branch through every base once, then every
    /// member's miss count. The members are walked, and the trajectory
    /// computed, only when some base or the loop predictor's confident
    /// prediction missed.
    #[inline]
    fn step(&mut self, pc: Addr, br: BranchEvent, section: Section) {
        let taken = br.outcome.is_taken();
        // Bit b: base b mispredicted.
        let mut missed = 0u64;
        for (b, base) in self.bases.iter_mut().enumerate() {
            missed |= u64::from(base.observe(pc, taken) != taken) << b;
        }
        let confident = self.lbp.as_mut().and_then(|lbp| {
            let confident = lbp.confident_prediction(pc);
            lbp.update(pc, taken);
            confident
        });
        if missed == 0 && confident.is_none_or(|predicted| predicted == taken) {
            return;
        }
        let trajectory = br.trajectory(pc);
        for m in &mut self.members {
            let miss = match confident {
                Some(predicted) if m.looped => predicted != taken,
                _ => missed >> m.base & 1 == 1,
            };
            if miss {
                let b = &mut m.sections.get_mut(section).breakdown;
                match trajectory {
                    BranchTrajectory::NotTaken => b.not_taken += 1,
                    BranchTrajectory::TakenBackward => b.taken_backward += 1,
                    BranchTrajectory::TakenForward => b.taken_forward += 1,
                }
            }
        }
    }
}

impl Pintool for PredictorBank {
    fn on_inst(&mut self, ev: &TraceEvent) {
        let cond = ev.branch.filter(|br| br.kind.is_conditional());
        for m in &mut self.members {
            let stats = m.sections.get_mut(ev.section);
            stats.insts += 1;
            stats.cond_branches += u64::from(cond.is_some());
        }
        if let Some(br) = cond {
            self.step(ev.pc, br, ev.section);
        }
    }

    /// Hot path: one loop over the batch's branch subset that runs
    /// every base per branch, with the instruction and conditional
    /// branch counts added to each member once per block.
    fn on_batch(&mut self, batch: &EventBatch) {
        let mut cond = BySection::<u64>::default();
        for ev in batch.branch_events() {
            let br = ev.branch.expect("branch slice carries branch events");
            if br.kind.is_conditional() {
                *cond.get_mut(ev.section) += 1;
                self.step(ev.pc, br, ev.section);
            }
        }
        let insts = batch.sections();
        for m in &mut self.members {
            m.sections.serial.insts += insts.serial;
            m.sections.parallel.insts += insts.parallel;
            m.sections.serial.cond_branches += cond.serial;
            m.sections.parallel.cond_branches += cond.parallel;
        }
    }

    /// As [`PredictorSim`](super::PredictorSim): each member scales the
    /// counts since its mark; predictor state stays live.
    fn on_sample_weight(&mut self, weight: u64) {
        for m in &mut self.members {
            if weight != 1 {
                m.sections.serial.scale_from(&m.mark.serial, weight);
                m.sections.parallel.scale_from(&m.mark.parallel, weight);
            }
            m.mark = m.sections;
        }
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
    use crate::predictor::PredictorSim;
    use crate::{PredictorClass, PredictorSize};

    #[test]
    fn figure5_set_runs_six_bases_and_one_loop_predictor() {
        let bank = PredictorBank::new(&PredictorChoice::figure5_set());
        assert_eq!(bank.shape(), (6, 1));
        let bases: Vec<usize> = bank.members.iter().map(|m| m.base).collect();
        assert_eq!(bases, [0, 1, 2, 3, 4, 5, 3, 4, 5], "L-X shares X's base");
    }

    #[test]
    fn no_looped_choice_builds_no_loop_predictor() {
        let plain = PredictorChoice::new(PredictorClass::Tage, PredictorSize::Small, false);
        assert_eq!(PredictorBank::new(&[plain, plain]).shape(), (1, 0));
        assert_eq!(PredictorBank::new(&[]).shape(), (0, 0));
    }

    #[test]
    fn reports_carry_the_solo_names_and_budgets() {
        let choices = PredictorChoice::figure5_set();
        let bank = PredictorBank::new(&choices);
        for (report, choice) in bank.reports().iter().zip(&choices) {
            let solo = PredictorSim::new(choice.build()).report();
            assert_eq!(report, &solo, "{choice}");
        }
    }
}
