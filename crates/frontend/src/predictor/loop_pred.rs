//! The loop branch predictor (LBP) and the base+LBP hybrid.

use rebalance_isa::Addr;

use super::DirectionPredictor;

/// Confidence needed before the LBP overrides the base predictor.
const CONFIDENT: u8 = 3;
/// Trip counts above this are treated as "not a countable loop".
const MAX_TRIP: u16 = u16::MAX - 1;
/// Entries of the paper's loop predictor (Section IV-A).
pub(crate) const PAPER_LOOP_ENTRIES: usize = 64;

/// Display name of `base` with a loop predictor on top.
pub(crate) fn with_loop_name(base: &str) -> &'static str {
    match base {
        "gshare" => "L-gshare",
        "tournament" => "L-tournament",
        "tage" => "L-tage",
        "bimodal" => "L-bimodal",
        _ => "L-base",
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct LoopEntry {
    valid: bool,
    tag: u16,
    /// Learned consecutive-taken run length (trip count − 1).
    trip: u16,
    /// Taken streak observed in the current loop execution.
    count: u16,
    /// Consecutive loop executions matching `trip`.
    conf: u8,
}

/// A 64-entry loop predictor (~512 B) that identifies conditional
/// branches with a constant number of iterations and predicts the loop
/// *exit* exactly — the case where a saturating counter always fails
/// (paper, Section IV-A).
///
/// # Examples
///
/// ```
/// use rebalance_frontend::predictor::LoopPredictor;
/// use rebalance_isa::Addr;
///
/// let mut lbp = LoopPredictor::new(64);
/// let pc = Addr::new(0x100);
/// // Train several 5-taken/1-not-taken loop executions.
/// for _ in 0..6 {
///     for i in 0..6 {
///         lbp.update(pc, i != 5);
///     }
/// }
/// // Confident: predicts the 6th decision as the exit.
/// assert_eq!(lbp.confident_prediction(pc), Some(true)); // iteration 1
/// ```
#[derive(Debug, Clone)]
pub struct LoopPredictor {
    entries: Vec<LoopEntry>,
    index_mask: u64,
}

impl LoopPredictor {
    /// Creates a direct-mapped loop predictor with `entries` slots
    /// (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two in `2..=4096`.
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two() && (2..=4096).contains(&entries),
            "entries must be a power of two in 2..=4096"
        );
        LoopPredictor {
            entries: vec![LoopEntry::default(); entries],
            index_mask: (entries - 1) as u64,
        }
    }

    #[inline]
    fn index(&self, pc: Addr) -> usize {
        ((pc.as_u64() >> 1) & self.index_mask) as usize
    }

    #[inline]
    fn tag(&self, pc: Addr) -> u16 {
        ((pc.as_u64() >> 1) >> self.index_mask.count_ones()) as u16
    }

    /// High-confidence prediction for `pc`, or `None` when the LBP has
    /// no confident opinion and the base predictor should decide.
    pub fn confident_prediction(&self, pc: Addr) -> Option<bool> {
        let e = &self.entries[self.index(pc)];
        if e.valid && e.tag == self.tag(pc) && e.conf >= CONFIDENT {
            Some(e.count < e.trip)
        } else {
            None
        }
    }

    /// Trains on a resolved conditional branch.
    pub fn update(&mut self, pc: Addr, taken: bool) {
        let idx = self.index(pc);
        let tag = self.tag(pc);
        let e = &mut self.entries[idx];
        if !e.valid || e.tag != tag {
            // Allocate (replace) — cheap filter, no usefulness tracking.
            *e = LoopEntry {
                valid: true,
                tag,
                trip: 0,
                count: 0,
                conf: 0,
            };
        }
        if taken {
            if e.count >= MAX_TRIP {
                // Streak too long to be a countable loop; invalidate.
                e.valid = false;
            } else {
                e.count += 1;
            }
        } else {
            if e.count == e.trip && e.trip > 0 {
                e.conf = (e.conf + 1).min(CONFIDENT);
            } else {
                e.trip = e.count;
                e.conf = 0;
            }
            e.count = 0;
        }
    }

    /// Hardware budget: 64-bit entries (tag + trip + count + confidence),
    /// ~512 B at 64 entries as in the paper.
    pub fn budget_bits(&self) -> u64 {
        self.entries.len() as u64 * 64
    }
}

/// A base predictor augmented with a [`LoopPredictor`] — the paper's
/// `L-<base>-small` configurations.
///
/// The LBP's confident predictions override the base; both train on
/// every conditional branch.
///
/// # Examples
///
/// ```
/// use rebalance_frontend::predictor::{DirectionPredictor, Gshare, WithLoop};
///
/// let p = WithLoop::new(Gshare::new(13));
/// assert_eq!(p.name(), "L-gshare");
/// assert_eq!(p.budget_bits(), Gshare::new(13).budget_bits() + 64 * 64);
/// ```
#[derive(Debug, Clone)]
pub struct WithLoop<P> {
    base: P,
    lbp: LoopPredictor,
}

impl<P: DirectionPredictor> WithLoop<P> {
    /// Wraps `base` with the paper's 64-entry LBP.
    pub fn new(base: P) -> Self {
        Self::with_entries(base, PAPER_LOOP_ENTRIES)
    }

    /// Wraps `base` with an LBP of the given entry count (for the
    /// loop-BP sizing ablation).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two in `2..=4096`.
    pub fn with_entries(base: P, entries: usize) -> Self {
        WithLoop {
            base,
            lbp: LoopPredictor::new(entries),
        }
    }

    /// Access to the base predictor.
    pub fn base(&self) -> &P {
        &self.base
    }
}

impl<P: DirectionPredictor> DirectionPredictor for WithLoop<P> {
    fn predict(&mut self, pc: Addr) -> bool {
        match self.lbp.confident_prediction(pc) {
            Some(pred) => pred,
            None => self.base.predict(pc),
        }
    }

    fn update(&mut self, pc: Addr, taken: bool) {
        self.lbp.update(pc, taken);
        self.base.update(pc, taken);
    }

    fn observe(&mut self, pc: Addr, taken: bool) -> bool {
        // LBP and base are independent structures, so the base's fused
        // path can run first; the prediction is read before any update
        // touches state, exactly like the default sequence.
        let predicted = match self.lbp.confident_prediction(pc) {
            Some(pred) => {
                self.base.update(pc, taken);
                pred
            }
            None => self.base.observe(pc, taken),
        };
        self.lbp.update(pc, taken);
        predicted
    }

    fn budget_bits(&self) -> u64 {
        self.base.budget_bits() + self.lbp.budget_bits()
    }

    fn name(&self) -> &'static str {
        with_loop_name(self.base.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predictor::Bimodal;

    fn run_loop(lbp: &mut LoopPredictor, pc: Addr, takens: usize, times: usize) {
        for _ in 0..times {
            for _ in 0..takens {
                lbp.update(pc, true);
            }
            lbp.update(pc, false);
        }
    }

    #[test]
    fn gains_confidence_after_stable_trips() {
        let mut lbp = LoopPredictor::new(64);
        let pc = Addr::new(0x100);
        run_loop(&mut lbp, pc, 9, 2);
        assert_eq!(lbp.confident_prediction(pc), None, "not yet confident");
        run_loop(&mut lbp, pc, 9, 3);
        assert!(lbp.confident_prediction(pc).is_some());
    }

    #[test]
    fn predicts_the_exact_exit() {
        let mut lbp = LoopPredictor::new(64);
        let pc = Addr::new(0x100);
        run_loop(&mut lbp, pc, 4, 8);
        // Now walk one loop execution: taken 4 times, then exit.
        for i in 0..5 {
            let expected = i != 4;
            assert_eq!(
                lbp.confident_prediction(pc),
                Some(expected),
                "iteration {i}"
            );
            lbp.update(pc, expected);
        }
    }

    #[test]
    fn changing_trip_count_resets_confidence() {
        let mut lbp = LoopPredictor::new(64);
        let pc = Addr::new(0x100);
        run_loop(&mut lbp, pc, 6, 8);
        assert!(lbp.confident_prediction(pc).is_some());
        run_loop(&mut lbp, pc, 3, 1); // different trip count
        assert_eq!(lbp.confident_prediction(pc), None);
    }

    #[test]
    fn hybrid_fixes_loop_exits_over_bimodal() {
        // A bimodal predictor misses every loop exit; the hybrid should
        // eliminate those misses once confident.
        let pc = Addr::new(0x200);
        let mut plain = Bimodal::new(12);
        let mut hybrid = WithLoop::new(Bimodal::new(12));
        let mut plain_miss = 0;
        let mut hybrid_miss = 0;
        for round in 0..50 {
            for i in 0..10 {
                let taken = i != 9;
                if round >= 10 {
                    if plain.predict(pc) != taken {
                        plain_miss += 1;
                    }
                    if hybrid.predict(pc) != taken {
                        hybrid_miss += 1;
                    }
                }
                plain.update(pc, taken);
                hybrid.update(pc, taken);
            }
        }
        assert!(plain_miss >= 40, "bimodal misses every exit: {plain_miss}");
        assert_eq!(hybrid_miss, 0, "LBP eliminates exit misses");
    }

    /// Drives `WithLoop::new(plain)` and `plain` over one loop-heavy
    /// stream (three counted loops, one loop whose trip count drifts,
    /// noisy data-dependent branches) and checks that after every step
    /// both bases predict alike at every probed PC. Returns how many
    /// steps the loop predictor overrode the base.
    fn bases_stay_in_lockstep<P: DirectionPredictor + Clone>(plain: P) -> usize {
        let mut hybrid = WithLoop::new(plain.clone());
        let mut plain = plain;
        // Distinct loop-predictor slots, so no entry evicts another.
        let loops = [(0x402u64, 7usize), (0x486, 12), (0x50a, 3)];
        let (drifting, noisy) = (0x58eu64, [0x610u64, 0x654, 0x6d8]);
        let probes: Vec<Addr> = (loops.iter().map(|l| l.0))
            .chain(std::iter::once(drifting))
            .chain(noisy)
            .chain([0x700, 0x1234])
            .map(Addr::new)
            .collect();
        let mut stream = Vec::new();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for round in 0..60usize {
            for &(pc, trip) in &loops {
                for i in 0..=trip {
                    stream.push((pc, i != trip));
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    stream.push((noisy[(x % 3) as usize], x & 4 != 0));
                }
            }
            for i in 0..=(4 + round % 3) {
                stream.push((drifting, i != 4 + round % 3));
            }
        }
        let mut overrides = 0;
        for (step, &(pc, taken)) in stream.iter().enumerate() {
            let pc = Addr::new(pc);
            if hybrid.lbp.confident_prediction(pc).is_some() {
                overrides += 1;
            }
            hybrid.observe(pc, taken);
            plain.observe(pc, taken);
            for &probe in &probes {
                assert_eq!(
                    hybrid.base.predict(probe),
                    plain.predict(probe),
                    "{}: step {step}, probe {probe:?}",
                    plain.name()
                );
            }
        }
        overrides
    }

    /// The premise a predictor bank rests on: the base inside `L-X`
    /// goes through exactly the states of a plain `X`, including on the
    /// steps where the loop predictor is confident and `observe` trains
    /// the base through `update` alone.
    #[test]
    fn a_loop_predictor_never_changes_its_base_trajectory() {
        use crate::predictor::{Gshare, Tage, TageConfig, Tournament};
        for overrides in [
            bases_stay_in_lockstep(Gshare::new(13)),
            bases_stay_in_lockstep(Tournament::new(10, 8)),
            bases_stay_in_lockstep(Tage::new(TageConfig::small())),
        ] {
            assert!(overrides > 1000, "the LBP became confident: {overrides}");
        }
    }

    #[test]
    fn irregular_loops_stay_unconfident() {
        let mut lbp = LoopPredictor::new(64);
        let pc = Addr::new(0x300);
        // Trip counts vary: 3, 5, 2, 7...
        for &takens in &[3usize, 5, 2, 7, 4, 6, 3, 8] {
            for _ in 0..takens {
                lbp.update(pc, true);
            }
            lbp.update(pc, false);
        }
        assert_eq!(
            lbp.confident_prediction(pc),
            None,
            "variable trip counts never become confident (the EP case)"
        );
    }

    #[test]
    fn budget_is_512_bytes_at_64_entries() {
        assert_eq!(LoopPredictor::new(64).budget_bits() / 8, 512);
    }

    #[test]
    fn with_entries_scales_budget() {
        let small = WithLoop::with_entries(Bimodal::new(4), 16);
        let big = WithLoop::with_entries(Bimodal::new(4), 256);
        assert_eq!(big.budget_bits() - small.budget_bits(), (256 - 16) * 64);
    }

    #[test]
    fn hybrid_names() {
        use crate::predictor::{Gshare, Tage, TageConfig, Tournament};
        assert_eq!(WithLoop::new(Gshare::new(8)).name(), "L-gshare");
        assert_eq!(WithLoop::new(Tournament::new(4, 4)).name(), "L-tournament");
        assert_eq!(
            WithLoop::new(Tage::new(TageConfig::small())).name(),
            "L-tage"
        );
        assert_eq!(WithLoop::new(Bimodal::new(4)).name(), "L-bimodal");
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        let _ = LoopPredictor::new(48);
    }
}
