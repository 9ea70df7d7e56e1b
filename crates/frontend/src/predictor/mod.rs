//! Branch-direction predictors and the MPKI measurement harness.
//!
//! All predictors implement [`DirectionPredictor`]; wrap one in
//! [`PredictorSim`] to measure branch MPKI (Figure 5) and the
//! not-taken / taken-backward / taken-forward misprediction breakdown
//! (Figure 6) over a trace. [`PredictorBank`] measures a whole set of
//! configurations in one pass, running each distinct base once.

mod bank;
mod bimodal;
mod gshare;
mod loop_pred;
mod sim;
mod tage;
mod tournament;

pub use bank::PredictorBank;
pub use bimodal::Bimodal;
pub use gshare::Gshare;
pub use loop_pred::{LoopPredictor, WithLoop};
pub use sim::{MissBreakdown, PredictorReport, PredictorSim, PredictorStats};
pub use tage::{Tage, TageConfig};
pub use tournament::Tournament;

use rebalance_isa::Addr;

/// A conditional-branch direction predictor.
///
/// The contract mirrors hardware: [`DirectionPredictor::predict`] is
/// called at fetch with only the branch PC; [`DirectionPredictor::update`]
/// is called at retire with the resolved direction and must perform all
/// state changes (counters, histories, allocations).
///
/// Implementations must be deterministic: prediction state may only
/// change in `update`.
///
/// `Send` is a supertrait so boxed predictors (and the sims wrapping
/// them) can migrate across the sweep engine's worker threads.
///
/// # Examples
///
/// A static always-taken predictor (zero hardware budget):
///
/// ```
/// use rebalance_frontend::predictor::DirectionPredictor;
/// use rebalance_isa::Addr;
///
/// struct AlwaysTaken;
///
/// impl DirectionPredictor for AlwaysTaken {
///     fn predict(&mut self, _pc: Addr) -> bool {
///         true
///     }
///     fn update(&mut self, _pc: Addr, _taken: bool) {}
///     fn budget_bits(&self) -> u64 {
///         0
///     }
///     fn name(&self) -> &'static str {
///         "always-taken"
///     }
/// }
///
/// let mut p = AlwaysTaken;
/// assert!(p.predict(Addr::new(0x100)));
/// ```
pub trait DirectionPredictor: Send {
    /// Predicts the direction of the conditional branch at `pc`.
    fn predict(&mut self, pc: Addr) -> bool;

    /// Trains with the resolved direction.
    fn update(&mut self, pc: Addr, taken: bool);

    /// Fused predict-then-update: returns the prediction made **before**
    /// training, exactly as `predict(pc)` followed by
    /// `update(pc, taken)` would.
    ///
    /// The default is literally that sequence. Table-based predictors
    /// override it to compute indices/tags/matches **once** for both
    /// halves — work `predict` and `update` otherwise repeat (TAGE's
    /// `update` re-runs its whole match pipeline). Overrides must stay
    /// bit-identical to the default; the batched measurement loop
    /// ([`PredictorSim`]'s `on_batch`) relies on that equivalence.
    fn observe(&mut self, pc: Addr, taken: bool) -> bool {
        let predicted = self.predict(pc);
        self.update(pc, taken);
        predicted
    }

    /// Hardware budget in bits (the paper's Table II accounting).
    fn budget_bits(&self) -> u64;

    /// Short display name (e.g. `"gshare"`).
    fn name(&self) -> &'static str;
}

impl<P: DirectionPredictor + ?Sized> DirectionPredictor for Box<P> {
    fn predict(&mut self, pc: Addr) -> bool {
        (**self).predict(pc)
    }

    fn update(&mut self, pc: Addr, taken: bool) {
        (**self).update(pc, taken);
    }

    fn observe(&mut self, pc: Addr, taken: bool) -> bool {
        (**self).observe(pc, taken)
    }

    fn budget_bits(&self) -> u64 {
        (**self).budget_bits()
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// A saturating 2-bit counter, the building block of every table-based
/// predictor here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Counter2(u8);

impl Counter2 {
    /// Weakly-taken initial state (exercised in unit tests).
    #[allow(dead_code)]
    pub(crate) const WEAK_TAKEN: Counter2 = Counter2(2);
    /// Weakly-not-taken initial state.
    pub(crate) const WEAK_NOT_TAKEN: Counter2 = Counter2(1);

    #[inline]
    pub(crate) fn predict(self) -> bool {
        self.0 >= 2
    }

    #[inline]
    pub(crate) fn update(&mut self, taken: bool) {
        if taken {
            if self.0 < 3 {
                self.0 += 1;
            }
        } else if self.0 > 0 {
            self.0 -= 1;
        }
    }

    /// `true` in either saturated state (exercised in unit tests).
    #[allow(dead_code)]
    #[inline]
    pub(crate) fn is_strong(self) -> bool {
        self.0 == 0 || self.0 == 3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_both_ways() {
        let mut c = Counter2::WEAK_TAKEN;
        assert!(c.predict());
        c.update(true);
        assert!(c.is_strong());
        c.update(true);
        assert!(c.predict(), "stays strongly taken");
        c.update(false);
        c.update(false);
        assert!(!c.predict());
        c.update(false);
        assert!(c.is_strong());
        c.update(false);
        assert!(!c.predict(), "stays strongly not-taken");
    }

    #[test]
    fn hysteresis_needs_two_flips() {
        let mut c = Counter2::WEAK_TAKEN;
        c.update(true); // strong taken
        c.update(false); // weak taken — still predicts taken
        assert!(c.predict());
        c.update(false);
        assert!(!c.predict());
    }

    #[test]
    fn boxed_predictor_forwards() {
        let mut b: Box<dyn DirectionPredictor> = Box::new(Bimodal::new(4));
        let pc = Addr::new(0x40);
        let _ = b.predict(pc);
        b.update(pc, true);
        assert!(b.budget_bits() > 0);
        assert_eq!(b.name(), "bimodal");
    }
}
