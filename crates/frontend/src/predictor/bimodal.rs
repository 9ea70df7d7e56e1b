//! Bimodal predictor: a PC-indexed table of 2-bit counters.

use rebalance_isa::Addr;

use super::{Counter2, DirectionPredictor};

/// The classic bimodal predictor (Smith): `2^bits` saturating 2-bit
/// counters indexed by the low PC bits. Serves standalone and as TAGE's
/// base predictor.
///
/// # Examples
///
/// ```
/// use rebalance_frontend::predictor::{Bimodal, DirectionPredictor};
/// use rebalance_isa::Addr;
///
/// let mut p = Bimodal::new(12);
/// let pc = Addr::new(0x400100);
/// p.update(pc, true);
/// p.update(pc, true);
/// assert!(p.predict(pc));
/// assert_eq!(p.budget_bits(), 2 * 4096);
/// ```
#[derive(Debug, Clone)]
pub struct Bimodal {
    table: Vec<Counter2>,
    index_mask: u64,
}

impl Bimodal {
    /// Creates a bimodal predictor with `2^index_bits` counters.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is 0 or greater than 24.
    pub fn new(index_bits: u32) -> Self {
        assert!((1..=24).contains(&index_bits), "index_bits out of range");
        let entries = 1usize << index_bits;
        Bimodal {
            table: vec![Counter2::WEAK_NOT_TAKEN; entries],
            index_mask: (entries - 1) as u64,
        }
    }

    #[inline]
    fn index(&self, pc: Addr) -> usize {
        // Drop the low bit: x86 instructions are byte-aligned but
        // branches never start on consecutive bytes in practice.
        ((pc.as_u64() >> 1) & self.index_mask) as usize
    }

    /// The prediction for `pc`, read without a mutable borrow (TAGE's
    /// shared lookup falls back to it).
    #[inline]
    pub(super) fn peek(&self, pc: Addr) -> bool {
        self.table[self.index(pc)].predict()
    }
}

impl DirectionPredictor for Bimodal {
    fn predict(&mut self, pc: Addr) -> bool {
        self.peek(pc)
    }

    fn update(&mut self, pc: Addr, taken: bool) {
        // One canonical implementation: observe is update plus a
        // returned (free) prediction read.
        let _ = self.observe(pc, taken);
    }

    fn observe(&mut self, pc: Addr, taken: bool) -> bool {
        // One index computation and one table access for both halves.
        let i = self.index(pc);
        let c = &mut self.table[i];
        let predicted = c.predict();
        c.update(taken);
        predicted
    }

    fn budget_bits(&self) -> u64 {
        2 * self.table.len() as u64
    }

    fn name(&self) -> &'static str {
        "bimodal"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_biased_branch() {
        let mut p = Bimodal::new(10);
        let pc = Addr::new(0x1000);
        for _ in 0..4 {
            p.update(pc, true);
        }
        assert!(p.predict(pc));
        for _ in 0..4 {
            p.update(pc, false);
        }
        assert!(!p.predict(pc));
    }

    #[test]
    fn distinct_pcs_use_distinct_counters() {
        let mut p = Bimodal::new(10);
        let a = Addr::new(0x1000);
        let b = Addr::new(0x1002);
        for _ in 0..4 {
            p.update(a, true);
            p.update(b, false);
        }
        assert!(p.predict(a));
        assert!(!p.predict(b));
    }

    #[test]
    fn aliasing_at_small_sizes() {
        // With a 2-entry table, many PCs collide.
        let mut p = Bimodal::new(1);
        let a = Addr::new(0x1000);
        let b = Addr::new(0x1004); // same index after >>1 & 1
        for _ in 0..4 {
            p.update(a, true);
        }
        let before = p.predict(b);
        for _ in 0..4 {
            p.update(b, false);
        }
        assert!(before, "b aliases onto a's trained counter");
        assert!(!p.predict(a), "a now sees b's training");
    }

    #[test]
    fn budget_matches_formula() {
        assert_eq!(Bimodal::new(13).budget_bits(), 2 << 13);
        assert_eq!(Bimodal::new(1).budget_bits(), 4);
    }

    #[test]
    #[should_panic(expected = "index_bits")]
    fn rejects_zero_bits() {
        let _ = Bimodal::new(0);
    }
}
