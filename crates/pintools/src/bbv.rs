//! Basic-block-vector fingerprinting for phase sampling.
//!
//! SimPoint's insight: two execution windows that spend their
//! instructions in the same basic blocks in the same proportions
//! behave the same under any microarchitectural model. This tool
//! reuses the dynamic BBL notion of
//! [`BasicBlockTool`](crate::BasicBlockTool) — a maximal run of
//! instructions ending at a branch — and, per fixed-size instruction
//! interval, accumulates instructions into `dims` buckets keyed by a
//! hash of the block's start PC. Each L1-normalized bucket vector is
//! then extended with a small tail of behavior features (code novelty,
//! branch density, taken rate, parallel-section share) that separate
//! intervals the hashed code mix alone cannot: a working-set shift
//! executes *new* blocks — the direct precursor of cold front-end
//! misses — yet can hash into the very same buckets as steady-state
//! code. The combined vectors are the per-interval fingerprints
//! consumed by
//! [`SamplePlan::from_vectors`](rebalance_trace::SamplePlan::from_vectors).

use rebalance_isa::{Addr, Outcome};
use rebalance_trace::sampling::Fingerprinter;
use rebalance_trace::{EventBatch, Piece, Pintool, PlainRun, Section, TraceEvent};

use crate::pc_hash::PcMap;

/// Hashes a block-start PC into a bucket (FNV-1a over the address
/// bytes, stable across runs and platforms).
fn bucket_of(pc: Addr, dims: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in pc.as_u64().to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % dims as u64) as usize
}

/// Block-start PC → its bucket, for every block seen so far. The map is
/// only looked up, never iterated, so its hasher cannot change a
/// fingerprint.
type BlockMap = PcMap<u64, usize>;

/// Behavior features appended after the `dims` hashed buckets, each in
/// `[0, 1]`: novel-block instruction share, branch density, taken
/// rate, parallel-section share.
pub const BBV_FEATURES: usize = 4;

/// The interval-fingerprinting pintool: one hashed, L1-normalized
/// basic-block vector per instruction interval.
///
/// Batched delivery reads runs ([`Pintool::on_batch`], [`EventBatch::pieces`]):
/// a sequential run of plain instructions joins the open block in one
/// step, cut only where it completes an interval, so the tool does no
/// per-instruction work; branches and section starts close blocks as
/// they do per event. A closed block costs one map lookup, which yields
/// both its novelty and its bucket. The vectors are bit-identical to
/// per-event delivery.
///
/// # Examples
///
/// ```
/// use rebalance_pintools::BbvTool;
/// use rebalance_trace::sampling::Fingerprinter;
///
/// let mut tool = BbvTool::new(32);
/// tool.set_interval_insts(10_000);
/// // ... replay a trace into `tool` ...
/// let vectors = tool.finish();
/// assert!(vectors.is_empty(), "no events yet");
/// ```
#[derive(Debug, Clone)]
pub struct BbvTool {
    dims: usize,
    interval_insts: u64,
    /// Instructions seen in the current interval.
    seen: u64,
    /// Bucketed instruction counts for the current interval.
    current: Vec<f64>,
    /// Completed interval fingerprints.
    vectors: Vec<Vec<f64>>,
    /// Start PC of the basic block being assembled.
    block_start: Option<Addr>,
    /// Instructions in the block being assembled.
    block_insts: u64,
    /// Block-start PCs seen in *any* interval so far (novelty
    /// baseline), each with its bucket.
    known_blocks: BlockMap,
    /// Instructions of first-seen blocks in the current interval.
    novel_insts: u64,
    /// Branches in the current interval.
    branches: u64,
    /// Taken branches in the current interval.
    taken: u64,
    /// Instructions executed in parallel sections this interval.
    parallel_insts: u64,
}

impl BbvTool {
    /// Creates a fingerprinting tool with `dims` hash buckets.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is 0.
    pub fn new(dims: usize) -> Self {
        assert!(dims > 0, "a fingerprint needs at least one dimension");
        BbvTool {
            dims,
            interval_insts: u64::MAX,
            seen: 0,
            current: vec![0.0; dims],
            vectors: Vec::new(),
            block_start: None,
            block_insts: 0,
            known_blocks: BlockMap::default(),
            novel_insts: 0,
            branches: 0,
            taken: 0,
            parallel_insts: 0,
        }
    }

    /// Fingerprint dimensionality.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Folds the block being assembled into the current interval's
    /// buckets.
    fn close_block(&mut self) {
        if let Some(start) = self.block_start.take() {
            let dims = self.dims;
            let mut novel = false;
            let bucket = *self.known_blocks.entry(start.as_u64()).or_insert_with(|| {
                novel = true;
                bucket_of(start, dims)
            });
            self.current[bucket] += self.block_insts as f64;
            if novel {
                self.novel_insts += self.block_insts;
            }
        }
        self.block_insts = 0;
    }

    /// Counts a plain run into the open block, cutting it only where it
    /// completes an interval: after a cut the next block starts at the
    /// instruction the run's lengths put there.
    fn run(&mut self, run: &PlainRun<'_>) {
        let parallel = run.section == Section::Parallel;
        let mut pc = run.pc.as_u64();
        let mut lens = run.lens;
        while !lens.is_empty() {
            if self.block_start.is_none() {
                self.block_start = Some(Addr::new(pc));
            }
            // `seen` stays below the interval between calls.
            let n = (lens.len() as u64).min(self.interval_insts - self.seen);
            self.block_insts += n;
            self.parallel_insts += if parallel { n } else { 0 };
            self.seen += n;
            if self.seen >= self.interval_insts {
                self.close_interval();
            }
            let (done, rest) = lens.split_at(n as usize);
            if !rest.is_empty() {
                let bytes: u64 = done.iter().map(|&len| u64::from(len)).sum();
                pc = pc.wrapping_add(bytes);
            }
            lens = rest;
        }
    }

    /// L1-normalizes the bucket vector, appends the behavior-feature
    /// tail, and stores the interval's fingerprint.
    fn close_interval(&mut self) {
        self.close_block();
        let sum: f64 = self.current.iter().sum();
        let mut v = std::mem::replace(&mut self.current, vec![0.0; self.dims]);
        if sum > 0.0 {
            for x in &mut v {
                *x /= sum;
            }
        }
        let insts = sum.max(1.0);
        v.push(self.novel_insts as f64 / insts);
        v.push(self.branches as f64 / insts);
        v.push(if self.branches > 0 {
            self.taken as f64 / self.branches as f64
        } else {
            0.0
        });
        v.push(self.parallel_insts as f64 / insts);
        self.vectors.push(v);
        self.seen = 0;
        self.novel_insts = 0;
        self.branches = 0;
        self.taken = 0;
        self.parallel_insts = 0;
    }
}

impl Pintool for BbvTool {
    fn on_inst(&mut self, ev: &TraceEvent) {
        if self.block_start.is_none() {
            self.block_start = Some(ev.pc);
        }
        self.block_insts += 1;
        if ev.section == Section::Parallel {
            self.parallel_insts += 1;
        }
        if let Some(br) = &ev.branch {
            self.branches += 1;
            if br.outcome == Outcome::Taken {
                self.taken += 1;
            }
            self.close_block();
        }
        self.seen += 1;
        if self.seen >= self.interval_insts {
            self.close_interval();
        }
    }

    fn on_section_start(&mut self, _section: Section) {
        // A section switch ends the dynamic block, as in
        // `BasicBlockTool`; here the partial block still counts (its
        // instructions belong to this interval's fingerprint).
        self.close_block();
    }

    /// Reads the batch as pieces: a branch or section start does what
    /// it does per event, and a plain run is counted whole, cut only at
    /// interval ends.
    fn on_batch(&mut self, batch: &EventBatch) {
        for piece in batch.pieces() {
            match piece {
                Piece::Start(section) => self.on_section_start(section),
                Piece::Branch(ev) => self.on_inst(ev),
                Piece::Run(run) => self.run(&run),
            }
        }
    }
}

impl Fingerprinter for BbvTool {
    fn set_interval_insts(&mut self, insts: u64) {
        self.interval_insts = insts.max(1);
    }

    fn finish(&mut self) -> Vec<Vec<f64>> {
        if self.seen > 0 || self.block_start.is_some() {
            self.close_interval();
        }
        self.known_blocks.clear();
        std::mem::take(&mut self.vectors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_isa::{BranchKind, InstClass, Outcome};
    use rebalance_trace::BranchEvent;

    fn inst(pc: u64) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(pc),
            len: 4,
            class: InstClass::Other,
            branch: None,
            section: Section::Parallel,
        }
    }

    fn branch(pc: u64) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(pc),
            len: 4,
            class: InstClass::Branch(BranchKind::CondDirect),
            branch: Some(BranchEvent {
                kind: BranchKind::CondDirect,
                outcome: Outcome::Taken,
                target: Some(Addr::new(pc)),
            }),
            section: Section::Parallel,
        }
    }

    #[test]
    fn vectors_are_l1_normalized_per_interval() {
        let mut t = BbvTool::new(8);
        t.set_interval_insts(4);
        for i in 0..8u64 {
            if i % 4 == 3 {
                t.on_inst(&branch(0x1000 + i * 4));
            } else {
                t.on_inst(&inst(0x1000 + i * 4));
            }
        }
        let vs = t.finish();
        assert_eq!(vs.len(), 2);
        for v in &vs {
            assert_eq!(v.len(), 8 + BBV_FEATURES);
            let sum: f64 = v[..8].iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "bucket sum {sum}");
            for f in &v[8..] {
                assert!((0.0..=1.0).contains(f), "feature {f} out of range");
            }
        }
    }

    #[test]
    fn feature_tail_tracks_behavior() {
        let mut t = BbvTool::new(8);
        t.set_interval_insts(4);
        // Interval 1: fresh blocks, every 4th inst a taken branch.
        for i in 0..3u64 {
            t.on_inst(&inst(0x1000 + i * 4));
        }
        t.on_inst(&branch(0x100c));
        // Interval 2: the same block again — nothing novel.
        for i in 0..3u64 {
            t.on_inst(&inst(0x1000 + i * 4));
        }
        t.on_inst(&branch(0x100c));
        let vs = t.finish();
        assert_eq!(vs.len(), 2);
        let novel = |v: &Vec<f64>| v[8];
        let density = |v: &Vec<f64>| v[9];
        let taken_rate = |v: &Vec<f64>| v[10];
        assert_eq!(novel(&vs[0]), 1.0, "all of interval 1 is first-seen");
        assert_eq!(novel(&vs[1]), 0.0, "interval 2 repeats known blocks");
        assert_eq!(density(&vs[0]), 0.25);
        assert_eq!(taken_rate(&vs[0]), 1.0);
    }

    #[test]
    fn distinct_code_regions_produce_distinct_fingerprints() {
        let mut t = BbvTool::new(32);
        t.set_interval_insts(8);
        // Interval 1: a loop at 0x1000. Interval 2: a loop at 0x9d40.
        for _ in 0..2 {
            for _ in 0..3 {
                t.on_inst(&inst(0x1000));
            }
            t.on_inst(&branch(0x100c));
        }
        for _ in 0..2 {
            for _ in 0..3 {
                t.on_inst(&inst(0x9d40));
            }
            t.on_inst(&branch(0x9d4c));
        }
        let vs = t.finish();
        assert_eq!(vs.len(), 2);
        assert_ne!(vs[0], vs[1]);
    }

    #[test]
    fn tail_interval_is_kept() {
        let mut t = BbvTool::new(4);
        t.set_interval_insts(10);
        for _ in 0..3 {
            t.on_inst(&inst(0x40));
        }
        let vs = t.finish();
        assert_eq!(vs.len(), 1, "partial tail becomes a fingerprint");
        assert!(t.finish().is_empty(), "finish drains");
    }

    #[test]
    #[should_panic(expected = "dimension")]
    fn zero_dims_rejected() {
        let _ = BbvTool::new(0);
    }
}
