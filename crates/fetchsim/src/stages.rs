//! The four stages of the decoupled fetch pipeline.
//!
//! # Model
//!
//! The branch-prediction unit (direction predictor + BTB + RAS) runs
//! ahead of the I-cache, producing one **fetch block** per cycle into a
//! bounded fetch target queue. A fetch block is up to `fetch_width`
//! sequential instructions, terminated early by a taken branch, a
//! redirect or a section switch. The fetch stage dequeues one block per
//! cycle and spends one busy cycle per I-cache line the block touches,
//! stalling on misses. A **fetch-directed prefetcher** probes each
//! block's lines when the block *enters* the FTQ and issues I-cache
//! fills for absent lines, so by the time the fetch stage reaches the
//! block the lines are resident (miss fully hidden) or in flight
//! (partially hidden).
//!
//! Redirects reset the BP unit's run-ahead lead, which is the
//! trace-driven equivalent of flushing the queue (the wrong-path
//! entries a real FTQ would discard are never synthesized here):
//!
//! * **mispredict** (wrong conditional direction, wrong indirect
//!   target, RAS miss): resolved at execute — the BP restarts
//!   `mispredict_penalty` (or `ras_penalty`) cycles after the fetch
//!   stage finishes the block containing the branch;
//! * **BTB resteer** (taken direct branch whose target missed in the
//!   BTB): resolved at decode inside the BP unit itself — production
//!   of the next block is delayed by `resteer_penalty` cycles. If the
//!   FTQ holds enough of a lead, the fetch stage never notices: this
//!   is exactly how a run-ahead front-end hides a small BTB.
//!
//! # Stages
//!
//! Each event flows through four stages, and only the last one reads
//! a clock:
//!
//! 1. [`BranchUnit`] — RAS, direction predictor and BTB. Fed only by
//!    the branch stream; yields each branch's [`Redirect`].
//! 2. [`BlockStream`] — cuts the instruction stream into fetch blocks
//!    (width, taken branches, redirects, section switches) and lists
//!    the I-cache lines each block touches.
//! 3. The I-cache plus FDIP issue: how each block's lines were served
//!    ([`Service`]), and the timing-free counts ([`Ledger::record`]).
//!    [`LineCache`] runs it exactly for one prefetch degree;
//!    [`LineWalk`] runs it once for every degree while a block's
//!    distinct lines sit in distinct sets ([`LineWalk::fetch`]).
//! 4. [`Timing`] — the two clocks, the FTQ ring, redirect carries,
//!    latencies and the stall ledger.
//!
//! Stage 3 is timing-free for two reasons. Every line FDIP prefetches
//! for a block is one of that block's own lines, so the block's service
//! drains them all before the next block is probed; and the I-cache's
//! LRU runs on its own access clock. So cache contents never depend on
//! FTQ timing, and every prefetch of a block is ready exactly
//! `miss_latency` cycles after the block's enqueue — which [`Timing`]
//! alone knows. It follows that stage 3's output, and the instruction,
//! block, busy-cycle, prefetch and full-miss counts, are the same for
//! every design point that reads the same block stream, I-cache and
//! prefetch degree; a [`Ledger`] counts them once for all of them.
//!
//! # Cycle accounting
//!
//! The model is solved analytically, block by block, with two clocks:
//! `bp_time` (when the BP unit enqueued the last block) and
//! `fetch_time` (when the fetch stage finished the last block). For
//! block *i*:
//!
//! ```text
//! enq[i]   = max(bp_time + 1, dequeue time of block i-depth)   // FTQ full ⇒ BP waits
//! start[i] = max(fetch_time, enq[i] + 1)                        // FTQ empty ⇒ fetch waits
//! end[i]   = start[i] + lines(i) + exposed miss cycles
//! ```
//!
//! The gap `start[i] - fetch_time` is attributed — first to a pending
//! redirect (up to its penalty), the remainder to *FTQ empty* — and
//! the service time is split into busy cycles and exposed I-cache miss
//! cycles. Every fetch cycle is therefore attributed to exactly one
//! category of exactly one section, which is the invariant
//! [`FetchReport::check_attribution`] verifies.

use std::fmt;

use rebalance_frontend::predictor::DirectionPredictor;
use rebalance_frontend::{
    Btb, BtbConfig, CacheConfig, ICache, PredictorChoice, ReturnAddressStack,
};
use rebalance_isa::{Addr, BranchKind};
use rebalance_trace::{BySection, Section, TraceEvent};

use crate::config::{FetchConfig, FtqConfig};
use crate::report::{FetchReport, FetchStats};

/// Return-address-stack entries, as on the lean core.
const RAS_ENTRIES: usize = 8;

/// Why a fetch block ended on a redirect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Redirect {
    /// The RAS predicted the wrong return target: execute-resolved,
    /// charged the RAS penalty.
    Ras,
    /// The direction predictor was wrong: execute-resolved, charged the
    /// mispredict penalty.
    Direction,
    /// A taken indirect branch's target missed in the BTB: the right
    /// target is only known at execute, charged the mispredict penalty.
    IndirectTarget,
    /// A taken direct branch's target missed in the BTB: decode-resolved
    /// inside the BP unit, charged the resteer penalty.
    Resteer,
}

/// Stage 1: one RAS, one direction predictor per distinct
/// [`PredictorChoice`] and one BTB per distinct [`BtbConfig`], all
/// trained by every branch. [`BranchUnit::redirect`] then answers, for
/// any (predictor, BTB) pair, what the last branch cost.
pub(crate) struct BranchUnit {
    ras: ReturnAddressStack,
    predictors: Vec<Box<dyn DirectionPredictor>>,
    btbs: Vec<Btb>,
    /// The last branch was a return whose target the RAS got wrong.
    ras_miss: bool,
    /// The last branch was indirect (so a BTB miss costs a mispredict).
    indirect: bool,
    /// Bit `p`: predictor `p` mispredicted the last branch's direction.
    wrong_direction: u64,
    /// Bit `b`: the last branch was taken and BTB `b` held no target or
    /// a stale one.
    btb_miss: u64,
}

impl fmt::Debug for BranchUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BranchUnit")
            .field("predictors", &self.predictors.len())
            .field("btbs", &self.btbs.len())
            .finish_non_exhaustive()
    }
}

impl BranchUnit {
    /// # Panics
    ///
    /// Panics on more than 64 predictors or 64 BTBs.
    pub(crate) fn new(predictors: &[PredictorChoice], btbs: &[BtbConfig]) -> Self {
        assert!(
            predictors.len() <= 64 && btbs.len() <= 64,
            "a branch unit holds at most 64 predictors and 64 BTBs"
        );
        BranchUnit {
            ras: ReturnAddressStack::new(RAS_ENTRIES),
            predictors: predictors.iter().map(PredictorChoice::build).collect(),
            btbs: btbs.iter().copied().map(Btb::new).collect(),
            ras_miss: false,
            indirect: false,
            wrong_direction: 0,
            btb_miss: 0,
        }
    }

    /// Runs one taken-or-not branch at `pc` through every structure,
    /// training all of them.
    pub(crate) fn resolve(
        &mut self,
        pc: Addr,
        len: u8,
        kind: BranchKind,
        taken: bool,
        target: Option<Addr>,
    ) {
        if kind.is_call() && taken {
            self.ras.push(pc + u64::from(len));
        }
        self.indirect = kind.is_indirect();
        if kind == BranchKind::Return {
            self.ras_miss = self.ras.pop() != target;
            self.wrong_direction = 0;
            self.btb_miss = 0;
            return;
        }
        self.ras_miss = false;
        let mut wrong = 0;
        if kind.is_conditional() {
            for (p, predictor) in self.predictors.iter_mut().enumerate() {
                wrong |= u64::from(predictor.observe(pc, taken) != taken) << p;
            }
        }
        self.wrong_direction = wrong;
        let mut miss = 0;
        if let Some(actual) = target.filter(|_| taken && kind.uses_btb()) {
            for (b, btb) in self.btbs.iter_mut().enumerate() {
                if btb.lookup(pc) != Some(actual) {
                    btb.insert(pc, actual);
                    miss |= 1 << b;
                }
            }
        }
        self.btb_miss = miss;
    }

    /// `(predictors, btbs)` built.
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.predictors.len(), self.btbs.len())
    }

    /// Whether the last resolved branch redirects a front-end built
    /// from predictor `predictor`, whatever its BTB. Only a taken
    /// branch can miss in a BTB, and a taken branch closes its block
    /// anyway, so where a block ends never depends on the BTB.
    #[inline]
    pub(crate) fn mispredicted(&self, predictor: usize) -> bool {
        self.ras_miss || self.wrong_direction >> predictor & 1 != 0
    }

    /// The BTBs of `btbs` (one bit per BTB index) that price the last
    /// resolved branch apart from the rest, for a front-end built from
    /// predictor `predictor`: `None` when all of them price it alike.
    /// They do when the branch was mispredicted (which outranks a BTB
    /// miss), or when every one of them hit or every one missed.
    /// Otherwise the answer is the BTBs that missed.
    #[inline]
    pub(crate) fn btb_split(&self, predictor: usize, btbs: u64) -> Option<u64> {
        let missed = self.btb_miss & btbs;
        if missed == 0 || missed == btbs || self.mispredicted(predictor) {
            None
        } else {
            Some(missed)
        }
    }

    /// What the last resolved branch costs a front-end built from
    /// predictor `predictor` and BTB `btb`. A wrong direction outranks
    /// a BTB miss on the same branch.
    #[inline]
    pub(crate) fn redirect(&self, predictor: usize, btb: usize) -> Option<Redirect> {
        if self.ras_miss {
            Some(Redirect::Ras)
        } else if self.wrong_direction >> predictor & 1 != 0 {
            Some(Redirect::Direction)
        } else if self.btb_miss >> btb & 1 == 0 {
            None
        } else if self.indirect {
            Some(Redirect::IndirectTarget)
        } else {
            Some(Redirect::Resteer)
        }
    }
}

/// The fetch block a [`BlockStream`] is assembling.
#[derive(Debug, Clone)]
pub(crate) struct Block {
    section: Section,
    /// Instructions so far; zero means no block is open.
    insts: u64,
    /// Line-aligned addresses the block touches, in fetch order
    /// (consecutive duplicates merged).
    lines: Vec<Addr>,
}

impl Block {
    /// The section every instruction of the block runs in.
    #[inline]
    pub(crate) fn section(&self) -> Section {
        self.section
    }

    /// Whether no block is open.
    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.insts == 0
    }

    /// The lines the block touches, in fetch order.
    #[inline]
    pub(crate) fn lines(&self) -> &[Addr] {
        &self.lines
    }
}

/// Stage 2: cuts the instruction stream into fetch blocks for one
/// (predictor, fetch width, line size) combination. Block edges do not
/// depend on the BTB (see [`BranchUnit::mispredicted`]), so every BTB
/// shares the stream.
#[derive(Debug, Clone)]
pub(crate) struct BlockStream {
    fetch_width: u64,
    line_bytes: u64,
    /// `!(line_bytes - 1)`: the line walk masks instead of re-checking
    /// the line size on every event.
    line_mask: u64,
    block: Block,
}

impl BlockStream {
    /// # Panics
    ///
    /// Panics unless `line_bytes` is a power of two.
    pub(crate) fn new(fetch_width: usize, line_bytes: usize) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let line_bytes = line_bytes as u64;
        BlockStream {
            fetch_width: fetch_width as u64,
            line_bytes,
            line_mask: !(line_bytes - 1),
            block: Block {
                section: Section::Serial,
                insts: 0,
                lines: Vec::with_capacity(4),
            },
        }
    }

    /// The open (or just-filled) block.
    pub(crate) fn block(&self) -> &Block {
        &self.block
    }

    /// Whether an instruction in `section` must close the open block
    /// before joining the stream (a section switch).
    #[inline]
    pub(crate) fn breaks_before(&self, section: Section) -> bool {
        self.block.insts > 0 && self.block.section != section
    }

    /// Appends one instruction and the lines it spans; returns `true`
    /// when the block has reached the fetch width.
    #[inline]
    pub(crate) fn push(&mut self, ev: &TraceEvent) -> bool {
        let block = &mut self.block;
        if block.insts == 0 {
            block.section = ev.section;
        }
        block.insts += 1;
        let pc = ev.pc.as_u64();
        let last = (pc + (u64::from(ev.len) - 1)) & self.line_mask;
        let mut line = pc & self.line_mask;
        loop {
            if block.lines.last() != Some(&Addr::new(line)) {
                block.lines.push(Addr::new(line));
            }
            if line == last {
                break;
            }
            line += self.line_bytes;
        }
        block.insts >= self.fetch_width
    }

    /// Appends `insts` sequential plain instructions of `section` that
    /// fill `bytes` from `pc`, and the lines they span; returns `true`
    /// when the block has reached the fetch width. The same as pushing
    /// them one at a time, provided they fit in the block's room
    /// ([`BlockStream::room`]): contiguous bytes touch every line from
    /// the first to the last.
    #[inline]
    pub(crate) fn push_range(&mut self, pc: u64, bytes: u64, insts: u64, section: Section) -> bool {
        debug_assert!(insts >= 1 && insts <= self.room());
        let block = &mut self.block;
        if block.insts == 0 {
            block.section = section;
        }
        block.insts += insts;
        let last = (pc + (bytes - 1)) & self.line_mask;
        let mut line = pc & self.line_mask;
        loop {
            if block.lines.last() != Some(&Addr::new(line)) {
                block.lines.push(Addr::new(line));
            }
            if line == last {
                break;
            }
            line += self.line_bytes;
        }
        block.insts >= self.fetch_width
    }

    /// Instructions the open block takes before it reaches the fetch
    /// width.
    #[inline]
    pub(crate) fn room(&self) -> u64 {
        // A zero width closes every block at its first instruction.
        self.fetch_width.saturating_sub(self.block.insts).max(1)
    }

    /// Closes the block (after stages 3 and 4 consumed it).
    #[inline]
    pub(crate) fn clear(&mut self) {
        self.block.insts = 0;
        self.block.lines.clear();
    }
}

/// How a block's lines were served, in the terms [`Timing`] prices in
/// O(1): one busy cycle per line, `miss_latency` per full miss, and at
/// most one wait on a prefetch. Only the first prefetched line can
/// catch its fill in flight: every later one is reached after it, so
/// after the fill has landed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Service {
    /// Lines the block touches.
    lines: u64,
    /// Lines absent at demand (never prefetched, or prefetched and
    /// evicted before use).
    misses: u64,
    /// Lines prefetched for this block and still resident at demand.
    prefetched: u64,
    /// Position of the first prefetched line in the block.
    first_prefetched: u64,
    /// Full misses served before the first prefetched line.
    misses_before: u64,
    /// FDIP fills issued for the block.
    prefetches: u64,
}

/// Stage 3, one exact copy: the I-cache plus FDIP issue for one (block
/// stream, [`CacheConfig`], prefetch degree) combination.
/// [`FetchSim`](crate::FetchSim) runs one; a [`LineWalk`] hands one to
/// each of its degrees when it can no longer serve them all.
#[derive(Debug, Clone)]
pub(crate) struct LineCache {
    icache: ICache,
    prefetch_degree: usize,
    /// Lines FDIP prefetched for the current block, in issue order.
    prefetched: Vec<Addr>,
}

impl LineCache {
    pub(crate) fn new(cache: CacheConfig, prefetch_degree: usize) -> Self {
        LineCache::from_icache(ICache::new(cache), prefetch_degree)
    }

    fn from_icache(icache: ICache, prefetch_degree: usize) -> Self {
        LineCache {
            icache,
            prefetch_degree,
            prefetched: Vec::with_capacity(prefetch_degree),
        }
    }

    /// Probes and prefetches `lines` at enqueue (up to the degree), then
    /// demand-fetches them in order.
    #[inline]
    pub(crate) fn fetch(&mut self, lines: &[Addr]) -> Service {
        if self.prefetch_degree > 0 {
            for &line in lines {
                if self.prefetched.len() < self.prefetch_degree && !self.icache.probe(line) {
                    self.icache.prefetch(line);
                    self.prefetched.push(line);
                }
            }
        }
        let mut service = Service {
            lines: lines.len() as u64,
            prefetches: self.prefetched.len() as u64,
            ..Service::default()
        };
        for (at, &line) in lines.iter().enumerate() {
            let in_flight = self.prefetched.iter().position(|&l| l == line);
            if let Some(idx) = in_flight {
                self.prefetched.remove(idx);
            }
            match (self.icache.access_line(line), in_flight) {
                (false, _) => service.misses += 1,
                (true, Some(_)) => {
                    if service.prefetched == 0 {
                        service.first_prefetched = at as u64;
                        service.misses_before = service.misses;
                    }
                    service.prefetched += 1;
                }
                (true, None) => {}
            }
        }
        // Every prefetched line is one of the block's own lines, so its
        // service drained them all.
        debug_assert!(self.prefetched.is_empty());
        service
    }
}

/// What one block's demand fetch found with no prefetch: its line
/// count, its misses, and where the first miss sits.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Demand {
    lines: u64,
    misses: u64,
    first_miss: u64,
}

impl Demand {
    /// The block's service under FDIP of degree `degree`, exact while
    /// the block's distinct lines sit in distinct sets (see
    /// [`LineWalk::fetch`]): the prefetcher fills the first
    /// `min(degree, misses)` missing lines, and the rest stay full
    /// misses, all served after the first prefetched line.
    #[inline]
    pub(crate) fn service(self, degree: usize) -> Service {
        let prefetched = self.misses.min(degree as u64);
        Service {
            lines: self.lines,
            misses: self.misses - prefetched,
            prefetched,
            first_prefetched: self.first_miss,
            misses_before: 0,
            prefetches: prefetched,
        }
    }
}

/// Stage 3, shared: one I-cache per (block stream, [`CacheConfig`]),
/// demand-fetched with no prefetch, whose outcome every prefetch degree
/// reads through [`Demand::service`].
#[derive(Debug, Clone)]
pub(crate) struct LineWalk {
    icache: ICache,
}

impl LineWalk {
    pub(crate) fn new(cache: CacheConfig) -> Self {
        LineWalk {
            icache: ICache::new(cache),
        }
    }

    /// Demand-fetches `lines` in order, or returns `None` and touches
    /// nothing when two distinct lines share a set.
    ///
    /// While they do not, a degree's prefetch fill of a line finds its
    /// set as the block found it, so it evicts the victim the demand
    /// miss would have, and it never evicts another of the block's
    /// lines. The line is demand-fetched later in the same block, so
    /// every set ends the block in the same LRU order as here. Cache
    /// contents, and so every later block, are then the same for every
    /// degree.
    #[inline]
    pub(crate) fn fetch(&mut self, lines: &[Addr]) -> Option<Demand> {
        let conflict = lines.iter().enumerate().skip(1).any(|(at, &line)| {
            let set = self.icache.set_index(line);
            lines[..at]
                .iter()
                .any(|&other| other != line && self.icache.set_index(other) == set)
        });
        if conflict {
            return None;
        }
        let mut demand = Demand {
            lines: lines.len() as u64,
            misses: 0,
            first_miss: 0,
        };
        for (at, &line) in lines.iter().enumerate() {
            if !self.icache.access_line(line) {
                if demand.misses == 0 {
                    demand.first_miss = at as u64;
                }
                demand.misses += 1;
            }
        }
        Some(demand)
    }

    /// An exact line cache for prefetch degree `degree`, starting from
    /// this walk's cache contents.
    pub(crate) fn line_cache(&self, degree: usize) -> LineCache {
        LineCache::from_icache(self.icache.clone(), degree)
    }
}

/// Per-section counters and their copy at the last sampled-replay
/// boundary.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ledger {
    sections: BySection<FetchStats>,
    mark: BySection<FetchStats>,
}

impl Ledger {
    /// Counts a served block's timing-free half: instructions, one
    /// block, one busy cycle per line, prefetch fills and full misses.
    /// Every design point reading the same [`Service`] counts the same.
    #[inline]
    pub(crate) fn record(&mut self, block: &Block, service: &Service) {
        let stats = self.sections.get_mut(block.section);
        stats.insts += block.insts;
        stats.blocks += 1;
        stats.busy += service.lines;
        stats.prefetches += service.prefetches;
        stats.icache_misses += service.misses;
    }

    /// Closes a sampled-replay window: weight 0 reverts the window's
    /// counts to the mark, a weight above 1 scales them; either way the
    /// result becomes the new mark.
    pub(crate) fn apply_sample_weight(&mut self, weight: u64) {
        if weight == 0 {
            self.sections = self.mark;
        } else if weight > 1 {
            self.sections.serial.scale_from(&self.mark.serial, weight);
            self.sections
                .parallel
                .scale_from(&self.mark.parallel, weight);
        }
        self.mark = self.sections;
    }
}

/// Stage 4: the clocks, FTQ occupancy, redirect carries and stall
/// ledger of every design point with one [`FtqConfig`] that sees the
/// same line-cache outcomes and redirects. The timing-free counters
/// live in the [`Ledger`] beside it.
#[derive(Debug, Clone)]
pub(crate) struct Timing {
    ftq: FtqConfig,
    /// Stalls, redirects and prefetch hits and late prefetches.
    stats: Ledger,
    /// When the BP unit enqueued the most recent block.
    bp_time: u64,
    /// When the fetch stage finished the most recent block.
    fetch_time: u64,
    /// Dequeue (fetch-start) times of the last `depth` blocks — the
    /// FTQ occupancy window for back-pressure — as a ring whose slot
    /// `head` holds the oldest. Slots no block has filled yet read 0
    /// (or a sampled-replay shift of it), which never exceeds the next
    /// enqueue time, so they stand for "no back-pressure".
    ring: Box<[u64]>,
    head: usize,
    /// Mispredict-penalty cycles the next block may charge.
    carry_mispredict: u64,
    /// Resteer-penalty cycles the next block may charge.
    carry_resteer: u64,
    /// Fetch-clock reading at the last sampled-replay boundary.
    mark_fetch_time: u64,
    /// Fetch cycles spent in weight-0 (warmup) windows of a sampled
    /// replay: they advance the clock and warm the structures but are
    /// excluded from the report's attributed total.
    discarded: u64,
}

impl Timing {
    pub(crate) fn new(ftq: FtqConfig) -> Self {
        Timing {
            ftq,
            stats: Ledger::default(),
            bp_time: 0,
            fetch_time: 0,
            ring: vec![0; ftq.depth].into_boxed_slice(),
            head: 0,
            carry_mispredict: 0,
            carry_resteer: 0,
            mark_fetch_time: 0,
            discarded: 0,
        }
    }

    /// The FTQ geometry and latencies this model times.
    pub(crate) fn ftq(&self) -> FtqConfig {
        self.ftq
    }

    /// Runs one closed block of `section` through enqueue, fetch and
    /// service, then applies its redirect (if any) to the BP clock.
    #[inline]
    pub(crate) fn retire(&mut self, section: Section, service: &Service, cause: Option<Redirect>) {
        let stats = self.stats.sections.get_mut(section);
        match cause {
            Some(Redirect::Ras) => stats.ras_misses += 1,
            Some(Redirect::Direction | Redirect::IndirectTarget) => stats.mispredicts += 1,
            Some(Redirect::Resteer) => stats.resteers += 1,
            None => {}
        }

        // --- BP unit: enqueue (waits for a free FTQ slot). FDIP issues
        // the block's prefetches now, so they land `miss_latency` later.
        let oldest_dequeue = self.ring.get(self.head).copied().unwrap_or(0);
        let enq = (self.bp_time + 1).max(oldest_dequeue);
        self.bp_time = enq;
        let ready = enq + self.ftq.miss_latency;

        // --- Fetch stage: dequeue and attribute the wait. ---
        let start = self.fetch_time.max(enq + 1);
        let mut gap = start - self.fetch_time;
        let charged = gap.min(self.carry_mispredict);
        stats.stalls.mispredict += charged;
        gap -= charged;
        let charged = gap.min(self.carry_resteer);
        stats.stalls.resteer += charged;
        gap -= charged;
        stats.stalls.ftq_empty += gap;
        self.carry_mispredict = 0;
        self.carry_resteer = 0;

        if let Some(slot) = self.ring.get_mut(self.head) {
            *slot = start;
            self.head += 1;
            if self.head == self.ring.len() {
                self.head = 0;
            }
        }

        // --- Service: one busy cycle per line, the full miss latency
        // per full miss, and the rest of its fill's latency if the
        // first prefetched line is reached before the fill lands.
        let mut now = start + service.lines + service.misses * self.ftq.miss_latency;
        stats.stalls.icache += service.misses * self.ftq.miss_latency;
        if service.prefetched > 0 {
            let reached = start
                + service.first_prefetched
                + 1
                + service.misses_before * self.ftq.miss_latency;
            stats.prefetch_hits += service.prefetched;
            if reached < ready {
                stats.prefetch_hits -= 1;
                stats.prefetch_late += 1;
                stats.stalls.icache += ready - reached;
                now += ready - reached;
            }
        }
        self.fetch_time = now;

        // --- Redirect: reset the BP unit's run-ahead lead. ---
        let mispredict = match cause {
            None => return,
            Some(Redirect::Resteer) => {
                self.bp_time = enq + self.ftq.resteer_penalty;
                self.carry_resteer = self.ftq.resteer_penalty;
                return;
            }
            Some(Redirect::Ras) => self.ftq.ras_penalty,
            Some(Redirect::Direction | Redirect::IndirectTarget) => self.ftq.mispredict_penalty,
        };
        self.bp_time = now + mispredict;
        self.carry_mispredict = mispredict;
    }

    /// Sampled-replay boundary, once the open block has been retired:
    /// scale the window's counters **and** the fetch-clock delta by
    /// `weight` (keeping [`FetchReport::check_attribution`] exact), and
    /// shift the BP clock and FTQ ring forward by the same amount so
    /// their lead over the fetch stage is preserved. No prefetch is in
    /// flight at a block edge, so nothing else carries a time.
    ///
    /// Weight 0 is the warmup contract: the window's events warmed the
    /// predictors and the I-cache, but its counters revert to the mark
    /// and its fetch cycles move to `discarded` (subtracted from the
    /// report's total) — the clocks themselves keep running forward, so
    /// no monotonic state has to be rewound.
    pub(crate) fn apply_sample_weight(&mut self, weight: u64) {
        self.stats.apply_sample_weight(weight);
        if weight == 0 {
            self.discarded += self.fetch_time - self.mark_fetch_time;
        } else if weight > 1 {
            let old = self.fetch_time;
            self.fetch_time = rebalance_trace::weighted_add(
                self.mark_fetch_time,
                old - self.mark_fetch_time,
                weight,
            );
            let shift = self.fetch_time - old;
            self.bp_time += shift;
            for t in self.ring.iter_mut() {
                *t += shift;
            }
        }
        self.mark_fetch_time = self.fetch_time;
    }

    /// The accumulated timing, with the timing-free counts from
    /// `ledger`, as a report for `config`. `icache_misses` is the one
    /// field with a part on each side: full misses in the ledger, late
    /// prefetches here. Both parts saturate under sampled-replay
    /// weights, so their sum saturates too.
    pub(crate) fn report(&self, config: FetchConfig, ledger: &Ledger) -> FetchReport {
        let join = |timed: &FetchStats, counted: &FetchStats| FetchStats {
            insts: counted.insts,
            blocks: counted.blocks,
            busy: counted.busy,
            prefetches: counted.prefetches,
            icache_misses: counted.icache_misses.saturating_add(timed.prefetch_late),
            ..*timed
        };
        let (timed, counted) = (&self.stats.sections, &ledger.sections);
        FetchReport {
            config,
            sections: BySection::new(
                join(&timed.serial, &counted.serial),
                join(&timed.parallel, &counted.parallel),
            ),
            total_cycles: self.fetch_time - self.discarded,
        }
    }
}
