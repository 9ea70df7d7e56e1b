//! TAGE: tagged geometric-history-length prediction (Seznec & Michaud).

use rebalance_isa::Addr;

use super::{Bimodal, DirectionPredictor};

/// Geometry of a [`Tage`] predictor.
///
/// The paper evaluates two configurations derived from the L-TAGE
/// championship predictor (its original 32 KB budget halved for *big*,
/// and cut to two tagged tables for *small*, per the paper's footnote):
///
/// * [`TageConfig::big`] — 12 tagged tables, ~14 KB;
/// * [`TageConfig::small`] — 2 tagged tables (history lengths 4 and 16),
///   ~1.5 KB.
///
/// [`Tage::new`] accepts `bimodal_bits` 1–20, `table_bits` 1–15,
/// `tag_bits` 4–14 and 1–16 strictly ascending `histories` of at most
/// 1023 outcomes. Histories stay below the 1024-slot global history
/// ring: a history as long as the ring would read the bit leaving it
/// from the slot the new outcome was just written to. `table_bits`
/// stops at 15 because each table's folded histories live in `u16`
/// lanes, which must hold a fold shifted left by one bit; the in-tree
/// configurations use 9 or fewer table bits and histories of at most
/// 640.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TageConfig {
    /// log2 of bimodal (base predictor) entries.
    pub bimodal_bits: u32,
    /// log2 of entries per tagged table.
    pub table_bits: u32,
    /// Global history length per tagged table, ascending.
    pub histories: Vec<u32>,
    /// Tag width in bits.
    pub tag_bits: u32,
}

impl TageConfig {
    /// The ~16 KB *big* configuration: 12 tagged tables with geometric
    /// history lengths, 512 entries each.
    pub fn big() -> Self {
        TageConfig {
            bimodal_bits: 13,
            table_bits: 9,
            histories: vec![4, 7, 11, 18, 30, 49, 81, 134, 221, 365, 512, 640],
            tag_bits: 11,
        }
    }

    /// The ~2 KB *small* configuration: two tagged tables with history
    /// lengths 4 and 16, roughly 3× fewer entries per table.
    pub fn small() -> Self {
        TageConfig {
            bimodal_bits: 12,
            table_bits: 7,
            histories: vec![4, 16],
            tag_bits: 9,
        }
    }

    /// Validates geometry.
    fn check(&self) {
        assert!(
            (1..=20).contains(&self.bimodal_bits),
            "bimodal_bits out of range"
        );
        assert!(
            (1..=15).contains(&self.table_bits),
            "table_bits out of range"
        );
        assert!(!self.histories.is_empty(), "need at least one tagged table");
        assert!(
            self.histories.len() <= MAX_TABLES,
            "at most {MAX_TABLES} tagged tables"
        );
        assert!(
            self.histories.windows(2).all(|w| w[0] < w[1]),
            "histories must ascend"
        );
        assert!(
            *self.histories.last().unwrap() < MAX_HISTORY as u32,
            "histories must be shorter than the {MAX_HISTORY}-outcome history ring"
        );
        assert!((4..=14).contains(&self.tag_bits), "tag_bits out of range");
    }
}

/// Slots in the global history ring; histories are strictly shorter.
const MAX_HISTORY: usize = 1024;
/// Most tagged tables any configuration may use: the width of the
/// lane arrays.
const MAX_TABLES: usize = 16;
/// Tables per step of the lane loops: eight `u16` lanes fill one
/// 128-bit vector, the baseline x86-64 (SSE2) width.
const LANES: usize = 8;
/// Useful-bit aging period (updates between `u` clears).
const U_RESET_PERIOD: u64 = 256 * 1024;

/// One `u16` per tagged table; lanes past the last table are padding
/// that the lane loops compute and nothing reads.
type Lanes = [u16; MAX_TABLES];

/// Each lane's table number, XORed into its index.
const TABLE_IDS: Lanes = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15];

/// One folded (compressed) history per tagged table: lane `t`
/// incrementally maintains `fold(history[0..histories[t]], width)` as
/// outcomes shift in and out.
#[derive(Debug, Clone)]
struct FoldLanes {
    comp: Lanes,
    /// `1 << (histories[t] % width)`: where the bit leaving lane `t`'s
    /// history is folded back out (0 in padding lanes).
    out: Lanes,
    width: u32,
}

impl FoldLanes {
    fn new(histories: &[u32], width: u32) -> Self {
        let mut out = [0; MAX_TABLES];
        for (o, &h) in out.iter_mut().zip(histories) {
            *o = 1 << (h % width);
        }
        FoldLanes {
            comp: [0; MAX_TABLES],
            out,
            width,
        }
    }

    /// Shifts chunk `c`'s lanes by one outcome: `new` (0 or 1) enters
    /// at bit 0, and `old` (per lane, all ones when the bit leaving that
    /// lane's history is set, else 0) leaves at the lane's outpoint.
    #[inline(always)]
    fn shift(&mut self, c: usize, new: u16, old: &[u16; LANES]) {
        let width = self.width;
        let mask = (1u16 << width) - 1;
        let comp = &mut self.comp.as_chunks_mut::<LANES>().0[c];
        let out = &self.out.as_chunks::<LANES>().0[c];
        for l in 0..LANES {
            let v = ((comp[l] << 1) | new) ^ (old[l] & out[l]);
            comp[l] = (v ^ (v >> width)) & mask;
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct TageEntry {
    tag: u16,
    /// Signed 3-bit counter in [-4, 3]; >= 0 predicts taken.
    ctr: i8,
    /// 2-bit usefulness.
    useful: u8,
}

/// What one branch reads from the predictor, shared by `predict` and
/// `observe`.
struct Lookup {
    /// Each table's entry (its position in the flat array) and tag for
    /// this branch.
    slot: [u32; MAX_TABLES],
    tag: Lanes,
    /// The longest table whose entry carries the branch's tag.
    provider: Option<usize>,
    /// The next-longest match's prediction, else the base predictor's.
    alt_pred: bool,
    /// The final prediction.
    pred: bool,
}

/// The TAGE predictor: a bimodal base plus tagged tables indexed with
/// geometrically increasing global-history lengths. The longest matching
/// table provides the prediction; allocation on mispredictions steals
/// entries whose useful bits have decayed.
///
/// The tagged tables share one flat array (table `t` at
/// `t << table_bits`), and every table's folded histories sit in `u16`
/// lanes, so the per-branch index, tag and history-shift loops run over
/// whole 8-lane chunks that the compiler vectorizes.
///
/// # Examples
///
/// ```
/// use rebalance_frontend::predictor::{DirectionPredictor, Tage, TageConfig};
///
/// let small = Tage::new(TageConfig::small());
/// assert!(small.budget_bits() / 8 <= 2048); // fits the 2KB budget
/// ```
#[derive(Debug, Clone)]
pub struct Tage {
    cfg: TageConfig,
    base: Bimodal,
    /// The tagged tables, table `t` at `t << table_bits`.
    entries: Box<[TageEntry]>,
    // Global history ring (power-of-two array: masked indexing needs no
    // bounds checks).
    ghist: Box<[u8; MAX_HISTORY]>,
    ghist_pos: usize,
    /// Each lane's history length (0 in padding lanes).
    history: Lanes,
    idx_fold: FoldLanes,
    tag0_fold: FoldLanes,
    tag1_fold: FoldLanes,
    /// 8-lane chunks covering the tables.
    chunks: usize,
    /// Lane `t`: `t << table_bits`, where table `t` starts.
    table_base: [u32; MAX_TABLES],
    updates: u64,
}

impl Tage {
    /// Builds a predictor with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is out of range (see [`TageConfig`]).
    pub fn new(cfg: TageConfig) -> Self {
        cfg.check();
        let tables = cfg.histories.len();
        let mut history = [0; MAX_TABLES];
        for (lane, &h) in history.iter_mut().zip(&cfg.histories) {
            *lane = h as u16;
        }
        Tage {
            base: Bimodal::new(cfg.bimodal_bits),
            entries: vec![TageEntry::default(); tables << cfg.table_bits].into_boxed_slice(),
            ghist: Box::new([0; MAX_HISTORY]),
            ghist_pos: 0,
            history,
            idx_fold: FoldLanes::new(&cfg.histories, cfg.table_bits),
            tag0_fold: FoldLanes::new(&cfg.histories, cfg.tag_bits),
            tag1_fold: FoldLanes::new(&cfg.histories, cfg.tag_bits - 1),
            chunks: tables.div_ceil(LANES),
            table_base: std::array::from_fn(|t| (t as u32) << cfg.table_bits),
            updates: 0,
            cfg,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &TageConfig {
        &self.cfg
    }

    /// Every table's entry and tag, the provider and the predictions,
    /// without changing any state. Inlined into both callers: as a
    /// separate call it made `observe` about 5% slower.
    #[inline(always)]
    fn lookup(&self, pc: Addr) -> Lookup {
        let pcs = pc.as_u64() >> 1;
        // Only the low 16 bits survive the masks below.
        let pc_idx = (pcs ^ (pcs >> self.cfg.table_bits)) as u16;
        let pc_tag = pcs as u16;
        let idx_mask = (1u16 << self.cfg.table_bits) - 1;
        let tag_mask = (1u16 << self.cfg.tag_bits) - 1;
        let mut slot = [0; MAX_TABLES];
        let mut tag = [0; MAX_TABLES];
        for c in 0..self.chunks {
            let slot = &mut slot.as_chunks_mut::<LANES>().0[c];
            let tag = &mut tag.as_chunks_mut::<LANES>().0[c];
            let base = &self.table_base.as_chunks::<LANES>().0[c];
            let fi = &self.idx_fold.comp.as_chunks::<LANES>().0[c];
            let f0 = &self.tag0_fold.comp.as_chunks::<LANES>().0[c];
            let f1 = &self.tag1_fold.comp.as_chunks::<LANES>().0[c];
            let ids = &TABLE_IDS.as_chunks::<LANES>().0[c];
            for l in 0..LANES {
                slot[l] = base[l] | u32::from((pc_idx ^ fi[l] ^ ids[l]) & idx_mask);
                tag[l] = (pc_tag ^ f0[l] ^ (f1[l] << 1)) & tag_mask;
            }
        }

        // Bit t: table t's entry carries the branch's tag.
        let mut hits = 0u32;
        for t in 0..self.cfg.histories.len() {
            hits |= u32::from(self.entries[slot[t] as usize].tag == tag[t]) << t;
        }
        let provider = hits.checked_ilog2().map(|t| t as usize);
        let (alt_pred, pred) = match provider {
            Some(t) => {
                let alt = (hits & !(1 << t)).checked_ilog2().map(|a| a as usize);
                let alt_pred = match alt {
                    Some(a) => self.entries[slot[a] as usize].ctr >= 0,
                    None => self.base.peek(pc),
                };
                let e = self.entries[slot[t] as usize];
                // Weak, never-useful entries defer to the alternate.
                let pred = if (e.ctr == 0 || e.ctr == -1) && e.useful == 0 {
                    alt_pred
                } else {
                    e.ctr >= 0
                };
                (alt_pred, pred)
            }
            None => {
                let base = self.base.peek(pc);
                (base, base)
            }
        };
        Lookup {
            slot,
            tag,
            provider,
            alt_pred,
            pred,
        }
    }

    /// Shifts the outcome into the global history and folded registers.
    fn shift_history(&mut self, taken: bool) {
        let pos = (self.ghist_pos + 1) & (MAX_HISTORY - 1);
        self.ghist_pos = pos;
        self.ghist[pos] = u8::from(taken);
        let new = u16::from(taken);
        for (c, history) in self.history.as_chunks::<LANES>().0[..self.chunks]
            .iter()
            .enumerate()
        {
            let old: [u16; LANES] = std::array::from_fn(|l| {
                let old_pos = pos.wrapping_sub(usize::from(history[l])) & (MAX_HISTORY - 1);
                0u16.wrapping_sub(u16::from(self.ghist[old_pos]))
            });
            self.idx_fold.shift(c, new, &old);
            self.tag0_fold.shift(c, new, &old);
            self.tag1_fold.shift(c, new, &old);
        }
    }
}

impl DirectionPredictor for Tage {
    fn predict(&mut self, pc: Addr) -> bool {
        self.lookup(pc).pred
    }

    fn update(&mut self, pc: Addr, taken: bool) {
        // One canonical training implementation: the fused path minus
        // its returned prediction. Delegating keeps the per-event and
        // batched modes identical by construction instead of by
        // hand-maintained duplication.
        let _ = self.observe(pc, taken);
    }

    /// Fused predict + update: one `lookup` computes each table's
    /// (index, tag) pair and the matches once, returns the prediction
    /// `predict` would make from it, and trains from the same reads.
    fn observe(&mut self, pc: Addr, taken: bool) -> bool {
        self.updates += 1;
        let look = self.lookup(pc);
        let n = self.cfg.histories.len();

        match look.provider {
            Some(t) => {
                let e = &mut self.entries[look.slot[t] as usize];
                let provider_pred = e.ctr >= 0;
                e.ctr = if taken {
                    (e.ctr + 1).min(3)
                } else {
                    (e.ctr - 1).max(-4)
                };
                if provider_pred != look.alt_pred {
                    if provider_pred == taken {
                        e.useful = (e.useful + 1).min(3);
                    } else {
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
            // No table matched: the base predictor provided, and trains.
            None => self.base.update(pc, taken),
        }

        if look.pred != taken {
            let start = look.provider.map_or(0, |t| t + 1);
            let free = (start..n).find(|&t| self.entries[look.slot[t] as usize].useful == 0);
            match free {
                Some(t) => {
                    self.entries[look.slot[t] as usize] = TageEntry {
                        tag: look.tag[t],
                        ctr: if taken { 0 } else { -1 },
                        useful: 0,
                    };
                }
                None => {
                    for &slot in &look.slot[start..n] {
                        let e = &mut self.entries[slot as usize];
                        e.useful = e.useful.saturating_sub(1);
                    }
                }
            }
        }

        if self.updates.is_multiple_of(U_RESET_PERIOD) {
            for e in self.entries.iter_mut() {
                e.useful >>= 1;
            }
        }

        self.shift_history(taken);
        look.pred
    }

    fn budget_bits(&self) -> u64 {
        let entry_bits = u64::from(self.cfg.tag_bits) + 3 + 2;
        self.base.budget_bits() + self.entries.len() as u64 * entry_bits
    }

    fn name(&self) -> &'static str {
        "tage"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_match_paper_classes() {
        let small = Tage::new(TageConfig::small());
        let big = Tage::new(TageConfig::big());
        assert!(
            small.budget_bits() / 8 <= 2048,
            "small {}",
            small.budget_bits() / 8
        );
        assert!(small.budget_bits() / 8 >= 1024);
        let big_kb = big.budget_bits() as f64 / 8.0 / 1024.0;
        assert!((12.0..=16.0).contains(&big_kb), "big {big_kb} KB");
    }

    #[test]
    fn learns_biased_branches() {
        let mut t = Tage::new(TageConfig::small());
        let pc = Addr::new(0x4000);
        for _ in 0..64 {
            t.update(pc, true);
        }
        assert!(t.predict(pc));
    }

    #[test]
    fn learns_fixed_trip_count_loops() {
        // A loop taken 7 times then not-taken once: TAGE's history
        // tables capture the exit when control is regular (paper,
        // Section IV-A discussion of Figure 6).
        let mut t = Tage::new(TageConfig::big());
        let pc = Addr::new(0x4000);
        let run = |t: &mut Tage, train: bool, rounds: usize| -> (u64, u64) {
            let mut correct = 0;
            let mut total = 0;
            for _ in 0..rounds {
                for i in 0..8 {
                    let taken = i != 7;
                    if !train {
                        if t.predict(pc) == taken {
                            correct += 1;
                        }
                        total += 1;
                    }
                    t.update(pc, taken);
                }
            }
            (correct, total)
        };
        run(&mut t, true, 500);
        let (correct, total) = run(&mut t, false, 100);
        assert!(
            correct as f64 / total as f64 > 0.95,
            "TAGE should learn an 8-iteration loop: {correct}/{total}"
        );
    }

    #[test]
    fn small_tage_beats_equal_budget_bimodal_on_loop_exits() {
        use super::super::Bimodal;
        // A hot loop taken 5 of every 6 executions: a pure per-PC
        // counter misses every exit, TAGE's short-history table learns
        // the exit context exactly.
        let mut tage = Tage::new(TageConfig::small());
        let mut bimodal = Bimodal::new(13); // 2KB, same budget class
        let pc = Addr::new(0x5000);
        let mut tage_miss = 0u64;
        let mut bimodal_miss = 0u64;
        for round in 0..500 {
            for i in 0..6 {
                let taken = i != 5;
                if round >= 200 {
                    if tage.predict(pc) != taken {
                        tage_miss += 1;
                    }
                    if bimodal.predict(pc) != taken {
                        bimodal_miss += 1;
                    }
                }
                tage.update(pc, taken);
                bimodal.update(pc, taken);
            }
        }
        assert!(
            bimodal_miss >= 290,
            "bimodal misses nearly every exit: {bimodal_miss}"
        );
        assert!(
            tage_miss < bimodal_miss / 4,
            "tage {tage_miss} vs bimodal {bimodal_miss}"
        );
    }

    #[test]
    fn folded_history_stays_in_range() {
        let mut t = Tage::new(TageConfig::big());
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..4000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            t.update(Addr::new(x & 0xfff0), x & 1 == 1);
            for f in [&t.idx_fold, &t.tag0_fold, &t.tag1_fold] {
                assert!(f.comp.iter().all(|&c| c < 1 << f.width), "{f:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "histories must ascend")]
    fn rejects_unordered_histories() {
        let mut cfg = TageConfig::small();
        cfg.histories = vec![16, 4];
        let _ = Tage::new(cfg);
    }

    /// A history as long as the ring would read its leaving bit from
    /// the slot `shift_history` just wrote, so 1024 is rejected.
    #[test]
    #[should_panic(expected = "shorter than the 1024-outcome history ring")]
    fn rejects_a_history_as_long_as_the_ring() {
        let mut cfg = TageConfig::small();
        cfg.histories = vec![4, 1024];
        let _ = Tage::new(cfg);
    }

    #[test]
    fn accepts_the_longest_history_below_the_ring() {
        let mut cfg = TageConfig::small();
        cfg.histories = vec![4, 1023];
        let _ = Tage::new(cfg);
    }

    #[test]
    fn config_accessor() {
        let t = Tage::new(TageConfig::small());
        assert_eq!(t.config().histories, vec![4, 16]);
        assert_eq!(t.name(), "tage");
    }
}
