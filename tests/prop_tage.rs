//! Property tests for the lane-packed TAGE kernel: on random
//! geometries and random or loop-shaped branch streams, [`Tage`] makes
//! per branch exactly the prediction the plain scalar TAGE below makes.
//!
//! The geometries cover the 8-lane chunk edges (1, 2, 7, 8, 9, 12 and
//! 16 tables), every `table_bits` from 1 to 15, every `tag_bits` from 4
//! to 14 and ascending histories up to 1023, the longest a 1024-slot
//! history ring accepts; one stream runs past the useful-bit aging
//! period. The tests also check the contract the per-event oracle
//! relies on: `predict` changes no state, and `observe` equals
//! `predict` followed by `update`.

use proptest::prelude::*;

use rebalance::frontend::predictor::{DirectionPredictor, Tage, TageConfig};
use rebalance::isa::Addr;

/// The scalar TAGE the lane layout replaced: one `Vec` per tagged
/// table, one `u64` register per folded history, and an unfused
/// `update` that re-runs the match pipeline. Kept as the reference.
mod scalar {
    use rebalance::frontend::predictor::{Bimodal, DirectionPredictor, TageConfig};
    use rebalance::isa::Addr;

    const MAX_HISTORY: usize = 1024;
    const U_RESET_PERIOD: u64 = 256 * 1024;

    /// Incrementally maintains `fold(history[0..orig_len], out_len)`.
    struct Folded {
        comp: u64,
        out_len: u32,
        outpoint: u32,
    }

    impl Folded {
        fn new(orig_len: u32, out_len: u32) -> Self {
            Folded {
                comp: 0,
                out_len,
                outpoint: orig_len % out_len,
            }
        }

        fn update(&mut self, new_bit: u64, old_bit: u64) {
            self.comp = (self.comp << 1) | new_bit;
            self.comp ^= old_bit << self.outpoint;
            self.comp ^= self.comp >> self.out_len;
            self.comp &= (1u64 << self.out_len) - 1;
        }
    }

    #[derive(Clone, Copy, Default)]
    struct Entry {
        tag: u16,
        ctr: i8,
        useful: u8,
    }

    pub struct ScalarTage {
        cfg: TageConfig,
        base: Bimodal,
        tables: Vec<Vec<Entry>>,
        ghist: Vec<u8>,
        ghist_pos: usize,
        /// Per table: index fold, tag fold, second tag fold.
        folds: Vec<[Folded; 3]>,
        updates: u64,
    }

    impl ScalarTage {
        pub fn new(cfg: TageConfig) -> Self {
            let tables = vec![vec![Entry::default(); 1 << cfg.table_bits]; cfg.histories.len()];
            let folds = (cfg.histories.iter())
                .map(|&h| {
                    [
                        Folded::new(h, cfg.table_bits),
                        Folded::new(h, cfg.tag_bits),
                        Folded::new(h, cfg.tag_bits - 1),
                    ]
                })
                .collect();
            ScalarTage {
                base: Bimodal::new(cfg.bimodal_bits),
                tables,
                ghist: vec![0; MAX_HISTORY],
                ghist_pos: 0,
                folds,
                updates: 0,
                cfg,
            }
        }

        fn index(&self, t: usize, pc: Addr) -> usize {
            let pc = pc.as_u64() >> 1;
            let idx = pc ^ (pc >> self.cfg.table_bits) ^ self.folds[t][0].comp ^ (t as u64);
            (idx & ((1u64 << self.cfg.table_bits) - 1)) as usize
        }

        fn tag(&self, t: usize, pc: Addr) -> u16 {
            let pc = pc.as_u64() >> 1;
            let tag = pc ^ self.folds[t][1].comp ^ (self.folds[t][2].comp << 1);
            (tag & ((1u64 << self.cfg.tag_bits) - 1)) as u16
        }

        /// (provider, alternate): the longest and next-longest matches.
        fn find_matches(&self, pc: Addr) -> (Option<usize>, Option<usize>) {
            let mut matches = (0..self.tables.len())
                .rev()
                .filter(|&t| self.tables[t][self.index(t, pc)].tag == self.tag(t, pc));
            (matches.next(), matches.next())
        }

        fn component(&mut self, pc: Addr, t: Option<usize>) -> bool {
            match t {
                Some(t) => self.tables[t][self.index(t, pc)].ctr >= 0,
                None => self.base.predict(pc),
            }
        }

        pub fn predict(&mut self, pc: Addr) -> bool {
            let (provider, alt) = self.find_matches(pc);
            match provider {
                Some(t) => {
                    let e = self.tables[t][self.index(t, pc)];
                    if (e.ctr == 0 || e.ctr == -1) && e.useful == 0 {
                        self.component(pc, alt)
                    } else {
                        e.ctr >= 0
                    }
                }
                None => self.base.predict(pc),
            }
        }

        pub fn update(&mut self, pc: Addr, taken: bool) {
            self.updates += 1;
            let final_pred = self.predict(pc);
            let (provider, alt) = self.find_matches(pc);
            match provider {
                Some(t) => {
                    let alt_pred = self.component(pc, alt);
                    let i = self.index(t, pc);
                    let e = &mut self.tables[t][i];
                    let provider_pred = e.ctr >= 0;
                    e.ctr = if taken {
                        (e.ctr + 1).min(3)
                    } else {
                        (e.ctr - 1).max(-4)
                    };
                    if provider_pred != alt_pred {
                        if provider_pred == taken {
                            e.useful = (e.useful + 1).min(3);
                        } else {
                            e.useful = e.useful.saturating_sub(1);
                        }
                    }
                }
                None => self.base.update(pc, taken),
            }

            if final_pred != taken {
                let start = provider.map_or(0, |t| t + 1);
                let free = (start..self.tables.len())
                    .find(|&t| self.tables[t][self.index(t, pc)].useful == 0);
                match free {
                    Some(t) => {
                        let (i, tag) = (self.index(t, pc), self.tag(t, pc));
                        self.tables[t][i] = Entry {
                            tag,
                            ctr: if taken { 0 } else { -1 },
                            useful: 0,
                        };
                    }
                    None => {
                        for t in start..self.tables.len() {
                            let i = self.index(t, pc);
                            let e = &mut self.tables[t][i];
                            e.useful = e.useful.saturating_sub(1);
                        }
                    }
                }
            }

            if self.updates.is_multiple_of(U_RESET_PERIOD) {
                for e in self.tables.iter_mut().flatten() {
                    e.useful >>= 1;
                }
            }

            let pos = (self.ghist_pos + 1) % MAX_HISTORY;
            self.ghist_pos = pos;
            self.ghist[pos] = u8::from(taken);
            for (&h, folds) in self.cfg.histories.iter().zip(&mut self.folds) {
                let old_bit = u64::from(self.ghist[(pos + MAX_HISTORY - h as usize) % MAX_HISTORY]);
                for f in folds {
                    f.update(u64::from(taken), old_bit);
                }
            }
        }
    }
}

use scalar::ScalarTage;

/// Table counts at and around the 8-lane chunk edges.
const TABLE_COUNTS: [usize; 7] = [1, 2, 7, 8, 9, 12, 16];

/// splitmix64: the streams and histories are a deterministic function
/// of one drawn seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A geometry with `tables` tagged tables and distinct ascending
/// histories drawn from 1..=1023: `TageConfig` rejects a history as
/// long as its 1024-slot ring.
fn geometry(mix: &mut Mix, tables: usize, table_bits: u32, tag_bits: u32) -> TageConfig {
    let mut histories: Vec<u32> = Vec::with_capacity(tables);
    while histories.len() < tables {
        let h = 1 + mix.below(1023) as u32;
        if !histories.contains(&h) {
            histories.push(h);
        }
    }
    histories.sort_unstable();
    TageConfig {
        bimodal_bits: 1 + mix.below(14) as u32,
        table_bits,
        histories,
        tag_bits,
    }
}

/// `len` conditional branches. Loop-shaped streams run a few loops
/// with fixed trip counts, each with a data-dependent branch in its
/// body; random streams draw pcs from a small hot set and from the
/// whole address space, with per-draw random directions.
fn stream(mix: &mut Mix, len: usize, loops: bool) -> Vec<(Addr, bool)> {
    let mut out = Vec::with_capacity(len + 64);
    if loops {
        let trips: Vec<u64> = (0..4).map(|_| 2 + mix.below(40)).collect();
        while out.len() < len {
            let l = mix.below(4);
            let head = 0x40_0000 + l * 0x80;
            for i in 0..trips[l as usize] {
                out.push((Addr::new(head + 0x12), (i % 3 == 0) ^ (mix.below(16) == 0)));
                out.push((Addr::new(head), i + 1 != trips[l as usize]));
            }
        }
        out.truncate(len);
    } else {
        let hot: Vec<u64> = (0..32).map(|_| mix.next() & 0xff_fffe).collect();
        for _ in 0..len {
            let pc = if mix.below(8) == 0 {
                mix.next()
            } else {
                hot[mix.below(32) as usize]
            };
            out.push((Addr::new(pc), mix.below(4) != 0));
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Per branch, `predict` and then `observe` or `update` on the lane
    /// kernel give exactly the scalar reference's prediction.
    #[test]
    fn lanes_predict_what_the_scalar_tage_predicts(
        tables in 0usize..TABLE_COUNTS.len(),
        table_bits in 1u32..=15,
        tag_bits in 4u32..=14,
        seed in any::<u64>(),
        loops in any::<bool>(),
        len in 500usize..3000,
    ) {
        let mut mix = Mix(seed);
        let cfg = geometry(&mut mix, TABLE_COUNTS[tables], table_bits, tag_bits);
        let mut lanes = Tage::new(cfg.clone());
        let mut reference = ScalarTage::new(cfg.clone());
        for (i, (pc, taken)) in stream(&mut mix, len, loops).into_iter().enumerate() {
            let expected = reference.predict(pc);
            prop_assert_eq!(lanes.predict(pc), expected, "branch {} of {:?}", i, cfg);
            if i % 2 == 0 {
                prop_assert_eq!(lanes.observe(pc, taken), expected, "branch {} of {:?}", i, cfg);
            } else {
                lanes.update(pc, taken);
            }
            reference.update(pc, taken);
        }
    }

    /// `predict` reads the tables and histories and writes nothing.
    #[test]
    fn predict_changes_no_state(
        tables in 0usize..TABLE_COUNTS.len(),
        table_bits in 1u32..=6,
        tag_bits in 4u32..=14,
        seed in any::<u64>(),
        loops in any::<bool>(),
    ) {
        let mut mix = Mix(seed);
        let cfg = geometry(&mut mix, TABLE_COUNTS[tables], table_bits, tag_bits);
        let mut tage = Tage::new(cfg);
        for (i, (pc, taken)) in stream(&mut mix, 1500, loops).into_iter().enumerate() {
            if i % 37 == 0 {
                let before = format!("{tage:?}");
                let _ = tage.predict(pc);
                prop_assert_eq!(format!("{tage:?}"), before, "branch {}", i);
            }
            tage.update(pc, taken);
        }
    }

    /// The fused `observe` returns what `predict` returns and leaves the
    /// state `predict` followed by `update` leaves.
    #[test]
    fn observe_is_predict_then_update(
        tables in 0usize..TABLE_COUNTS.len(),
        table_bits in 1u32..=6,
        tag_bits in 4u32..=14,
        seed in any::<u64>(),
        loops in any::<bool>(),
    ) {
        let mut mix = Mix(seed);
        let cfg = geometry(&mut mix, TABLE_COUNTS[tables], table_bits, tag_bits);
        let mut fused = Tage::new(cfg.clone());
        let mut split = Tage::new(cfg);
        for (i, (pc, taken)) in stream(&mut mix, 1500, loops).into_iter().enumerate() {
            let predicted = split.predict(pc);
            split.update(pc, taken);
            prop_assert_eq!(fused.observe(pc, taken), predicted, "branch {}", i);
        }
        prop_assert_eq!(format!("{fused:?}"), format!("{split:?}"));
    }
}

/// Past `U_RESET_PERIOD` (262,144) updates every useful counter halves;
/// the big geometry must stay in lockstep with the reference across it.
#[test]
fn lanes_match_the_scalar_tage_across_the_useful_reset() {
    let mut mix = Mix(0x7a6e);
    let cfg = TageConfig::big();
    let mut lanes = Tage::new(cfg.clone());
    let mut reference = ScalarTage::new(cfg);
    for (i, (pc, taken)) in stream(&mut mix, 300_000, true).into_iter().enumerate() {
        let expected = reference.predict(pc);
        reference.update(pc, taken);
        assert_eq!(lanes.observe(pc, taken), expected, "branch {i}");
    }
}

#[test]
#[should_panic(expected = "table_bits out of range")]
fn sixteen_bit_tables_do_not_fit_a_u16_lane() {
    let _ = Tage::new(TageConfig {
        table_bits: 16,
        ..TageConfig::small()
    });
}
