//! The decoupled front-end timing simulator.
//!
//! # Model
//!
//! The branch-prediction unit (direction predictor + BTB + RAS) runs
//! ahead of the I-cache, producing one **fetch block** per cycle into a
//! bounded fetch target queue. A fetch block is up to `fetch_width`
//! sequential instructions, terminated early by a taken branch (or a
//! section switch). The fetch stage dequeues one block per cycle and
//! spends one busy cycle per I-cache line the block touches, stalling
//! on misses. A **fetch-directed prefetcher** probes each block's lines
//! when the block *enters* the FTQ and issues I-cache fills for absent
//! lines, so by the time the fetch stage reaches the block the lines
//! are resident (miss fully hidden) or in flight (partially hidden).
//!
//! Redirects reset the BP unit's run-ahead lead, which is the
//! trace-driven equivalent of flushing the queue (the wrong-path
//! entries a real FTQ would discard are never synthesized here):
//!
//! * **mispredict** (wrong conditional direction, wrong indirect
//!   target, RAS miss): resolved at execute — the BP restarts
//!   `mispredict_penalty` cycles after the fetch stage finishes the
//!   block containing the branch;
//! * **BTB resteer** (taken direct branch whose target missed in the
//!   BTB): resolved at decode inside the BP unit itself — production
//!   of the next block is delayed by `resteer_penalty` cycles. If the
//!   FTQ holds enough of a lead, the fetch stage never notices: this
//!   is exactly how a run-ahead front-end hides a small BTB.
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

use std::collections::VecDeque;
use std::fmt;

use rebalance_frontend::predictor::DirectionPredictor;
use rebalance_frontend::{Btb, ICache, ReturnAddressStack};
use rebalance_isa::{Addr, BranchKind};
use rebalance_trace::{BySection, EventBatch, Pintool, Section, TraceEvent};

use crate::config::{FetchConfig, FtqConfig};
use crate::report::{FetchReport, FetchStats};

/// How a fetch block ended, when it ended on a redirect.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Redirect {
    /// Execute-resolved: full flush and restart after `penalty` cycles
    /// (the mispredict penalty for direction/indirect redirects, the
    /// RAS penalty for return mispredictions).
    Mispredict { penalty: u64 },
    /// Decode-resolved inside the BP unit: delayed block production.
    Resteer,
}

/// The fetch block currently being assembled by the BP unit.
#[derive(Debug, Clone)]
struct Block {
    active: bool,
    section: Section,
    insts: u64,
    /// Line-aligned addresses the block touches, in fetch order
    /// (strictly increasing — a block never crosses a taken branch).
    lines: Vec<Addr>,
}

impl Block {
    fn idle() -> Self {
        Block {
            active: false,
            section: Section::Serial,
            insts: 0,
            lines: Vec::with_capacity(4),
        }
    }

    #[inline]
    fn push_line(&mut self, line: Addr) {
        if self.lines.last() != Some(&line) {
            self.lines.push(line);
        }
    }
}

/// The timing half of the simulator: I-cache state, the two clocks,
/// FTQ occupancy, in-flight prefetches, and the stall ledger. Kept
/// separate from the (un-clonable) BP structures so [`FetchSim::report`]
/// can finalize a pending block on a clone without disturbing the live
/// simulation.
#[derive(Debug, Clone)]
struct FtqModel {
    ftq: FtqConfig,
    line_bytes: u64,
    icache: ICache,
    sections: BySection<FetchStats>,
    /// When the BP unit enqueued the most recent block.
    bp_time: u64,
    /// When the fetch stage finished the most recent block.
    fetch_time: u64,
    /// Dequeue (fetch-start) times of the last `depth` blocks — the
    /// FTQ occupancy window for back-pressure.
    ring: VecDeque<u64>,
    /// In-flight FDIP prefetches as `(line, ready)` in issue order.
    pending: VecDeque<(Addr, u64)>,
    /// Mispredict-penalty cycles the next block may charge.
    carry_mispredict: u64,
    /// Resteer-penalty cycles the next block may charge.
    carry_resteer: u64,
    block: Block,
    /// Counter snapshot at the last sampled-replay boundary.
    mark_sections: BySection<FetchStats>,
    /// Fetch-clock reading at the last sampled-replay boundary.
    mark_fetch_time: u64,
    /// Fetch cycles spent in weight-0 (warmup) windows of a sampled
    /// replay: they advance the clock and warm the structures but are
    /// excluded from the report's attributed total.
    discarded: u64,
}

impl FtqModel {
    fn new(config: &FetchConfig) -> Self {
        FtqModel {
            ftq: config.ftq,
            line_bytes: config.frontend.icache.line_bytes as u64,
            icache: ICache::new(config.frontend.icache),
            sections: BySection::default(),
            bp_time: 0,
            fetch_time: 0,
            ring: VecDeque::with_capacity(config.ftq.depth),
            pending: VecDeque::with_capacity(config.ftq.prefetch_degree),
            carry_mispredict: 0,
            carry_resteer: 0,
            block: Block::idle(),
            mark_sections: BySection::default(),
            mark_fetch_time: 0,
            discarded: 0,
        }
    }

    /// Sampled-replay boundary: settle the pending block so the window
    /// ends on a block edge, scale the window's counters **and** the
    /// fetch-clock delta by `weight` (keeping
    /// [`FetchReport::check_attribution`] exact), and shift the BP
    /// clock, FTQ ring, and in-flight prefetches forward by the same
    /// amount so their lead over the fetch stage is preserved.
    ///
    /// Weight 0 is the warmup contract: the window's events warmed the
    /// predictors and the I-cache, but its counters revert to the mark
    /// and its fetch cycles move to `discarded` (subtracted from the
    /// report's total) — the clocks themselves keep running forward, so
    /// no monotonic state has to be rewound.
    fn apply_sample_weight(&mut self, weight: u64) {
        self.finalize_block(None);
        if weight == 0 {
            self.sections = self.mark_sections;
            self.discarded += self.fetch_time - self.mark_fetch_time;
        } else if weight > 1 {
            self.sections
                .serial
                .scale_from(&self.mark_sections.serial, weight);
            self.sections
                .parallel
                .scale_from(&self.mark_sections.parallel, weight);
            let old = self.fetch_time;
            self.fetch_time = rebalance_trace::weighted_add(
                self.mark_fetch_time,
                old - self.mark_fetch_time,
                weight,
            );
            let shift = self.fetch_time - old;
            self.bp_time += shift;
            for t in &mut self.ring {
                *t += shift;
            }
            for (_, ready) in &mut self.pending {
                *ready += shift;
            }
        }
        self.mark_sections = self.sections;
        self.mark_fetch_time = self.fetch_time;
    }

    /// Runs the assembled block through enqueue, prefetch, and fetch,
    /// then applies the redirect (if any) to the BP clock.
    fn finalize_block(&mut self, cause: Option<Redirect>) {
        if !self.block.active {
            return;
        }
        // Move the line buffer out (returned, cleared, at the end) so
        // the hot path reuses one allocation across all blocks.
        let lines = std::mem::take(&mut self.block.lines);
        let section = self.block.section;
        let stats = self.sections.get_mut(section);
        stats.insts += self.block.insts;
        stats.blocks += 1;
        self.block.active = false;
        self.block.insts = 0;

        // --- BP unit: enqueue (waits for a free FTQ slot). ---
        let mut enq = self.bp_time + 1;
        if self.ring.len() >= self.ftq.depth {
            if let Some(&oldest_dequeue) = self.ring.front() {
                enq = enq.max(oldest_dequeue);
            }
        }
        self.bp_time = enq;

        // --- FDIP: probe the block's lines at enqueue time. The
        // pending queue drains during this block's own service (every
        // prefetched line is demanded there), so the degree bound
        // applies per block.
        if self.ftq.prefetch_degree > 0 {
            for &line in &lines {
                if self.pending.len() < self.ftq.prefetch_degree && !self.icache.probe(line) {
                    self.icache.prefetch(line);
                    self.pending.push_back((line, enq + self.ftq.miss_latency));
                    stats.prefetches += 1;
                }
            }
        }

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

        self.ring.push_back(start);
        if self.ring.len() > self.ftq.depth {
            self.ring.pop_front();
        }

        // --- Service: one busy cycle per line, stall on exposed misses. ---
        let mut now = start;
        for &line in &lines {
            now += 1;
            stats.busy += 1;
            let in_flight = self.pending.iter().position(|&(l, _)| l == line);
            let hit = self.icache.access(line, 0, self.line_bytes);
            match in_flight {
                Some(idx) => {
                    let (_, ready) = self.pending.remove(idx).expect("indexed entry");
                    if hit && ready <= now {
                        stats.prefetch_hits += 1;
                    } else if hit {
                        // Prefetch still in flight: only the remainder
                        // of the miss latency is exposed.
                        stats.icache_misses += 1;
                        stats.prefetch_late += 1;
                        stats.stalls.icache += ready - now;
                        now = ready;
                    } else {
                        // Prefetched but evicted before use: full miss.
                        stats.icache_misses += 1;
                        stats.stalls.icache += self.ftq.miss_latency;
                        now += self.ftq.miss_latency;
                    }
                }
                None if !hit => {
                    stats.icache_misses += 1;
                    stats.stalls.icache += self.ftq.miss_latency;
                    now += self.ftq.miss_latency;
                }
                None => {}
            }
        }
        self.fetch_time = now;

        // --- Redirect: reset the BP unit's run-ahead lead. ---
        match cause {
            Some(Redirect::Mispredict { penalty }) => {
                self.bp_time = now + penalty;
                self.carry_mispredict = penalty;
            }
            Some(Redirect::Resteer) => {
                self.bp_time = enq + self.ftq.resteer_penalty;
                self.carry_resteer = self.ftq.resteer_penalty;
            }
            None => {}
        }

        // Hand the (emptied) line buffer back for the next block.
        self.block.lines = lines;
        self.block.lines.clear();
    }

    fn report(&self, config: FetchConfig) -> FetchReport {
        let mut settled = self.clone();
        settled.finalize_block(None);
        FetchReport {
            config,
            sections: settled.sections,
            total_cycles: settled.fetch_time - settled.discarded,
        }
    }
}

/// The decoupled front-end simulator as a batched
/// [`Pintool`](rebalance_trace::Pintool): attach it to a trace replay
/// (alone, or fanned out with a whole design grid in a
/// [`ToolSet`](rebalance_trace::ToolSet)) and read the
/// [`FetchReport`] afterwards.
///
/// # Examples
///
/// ```
/// use rebalance_fetchsim::{FetchConfig, FetchSim};
/// use rebalance_frontend::CoreKind;
/// use rebalance_workloads::{find, Scale};
///
/// let trace = find("CG").unwrap().trace(Scale::Smoke).unwrap();
/// let mut sim = FetchSim::new(FetchConfig::for_core(CoreKind::Tailored));
/// trace.replay(&mut sim);
/// let report = sim.report();
/// report.check_attribution().expect("stalls sum to total cycles");
/// assert!(report.total().bandwidth() > 0.5, "fetch delivers work");
/// ```
pub struct FetchSim {
    config: FetchConfig,
    predictor: Box<dyn DirectionPredictor>,
    btb: Btb,
    ras: ReturnAddressStack,
    model: FtqModel,
}

impl fmt::Debug for FetchSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FetchSim")
            .field("config", &self.config)
            .field("model", &self.model)
            .finish_non_exhaustive()
    }
}

impl FetchSim {
    /// Creates a simulator for one design point (an 8-entry RAS, as on
    /// the lean core).
    pub fn new(config: FetchConfig) -> Self {
        FetchSim {
            predictor: config.frontend.predictor.build(),
            btb: Btb::new(config.frontend.btb),
            ras: ReturnAddressStack::new(8),
            model: FtqModel::new(&config),
            config,
        }
    }

    /// The design point being simulated.
    pub fn config(&self) -> &FetchConfig {
        &self.config
    }

    /// Snapshot of the accumulated timing, with any partially-assembled
    /// fetch block settled on a copy of the model (the live simulation
    /// is not disturbed, so reports mid-replay are safe).
    pub fn report(&self) -> FetchReport {
        self.model.report(self.config)
    }

    /// The per-event step shared verbatim by per-event and batched
    /// delivery, which makes the two bit-identical by construction.
    #[inline]
    fn step(&mut self, ev: &TraceEvent) {
        let branch = ev
            .branch
            .map(|br| (br.kind, br.outcome.is_taken(), br.target));
        let (pc, len, section) = (ev.pc, ev.len, ev.section);
        let model = &mut self.model;
        if model.block.active && model.block.section != section {
            model.finalize_block(None);
        }
        if !model.block.active {
            model.block.active = true;
            model.block.section = section;
        }
        model.block.insts += 1;
        let line_bytes = model.line_bytes;
        let first = pc.line(line_bytes);
        let last = (pc + (u64::from(len) - 1)).line(line_bytes);
        let mut line = first;
        loop {
            model.block.push_line(line);
            if line == last {
                break;
            }
            line += line_bytes;
        }

        let Some((kind, taken, target)) = branch else {
            if model.block.insts >= model.ftq.fetch_width as u64 {
                model.finalize_block(None);
            }
            return;
        };

        // --- BP unit: predict, train, and detect redirects. ---
        let stats = model.sections.get_mut(section);
        let mut redirect = None;
        if kind.is_call() && taken {
            self.ras.push(pc + u64::from(len));
        }
        if kind == BranchKind::Return {
            if self.ras.pop() != target {
                stats.ras_misses += 1;
                redirect = Some(Redirect::Mispredict {
                    penalty: model.ftq.ras_penalty,
                });
            }
        } else {
            if kind.is_conditional() && self.predictor.observe(pc, taken) != taken {
                stats.mispredicts += 1;
                redirect = Some(Redirect::Mispredict {
                    penalty: model.ftq.mispredict_penalty,
                });
            }
            if taken && kind.uses_btb() {
                if let Some(actual) = target {
                    match self.btb.lookup(pc) {
                        Some(stored) if stored == actual => {}
                        _ => {
                            self.btb.insert(pc, actual);
                            if redirect.is_none() {
                                if kind.is_indirect() {
                                    // The right target is only known at
                                    // execute: a full redirect.
                                    stats.mispredicts += 1;
                                    redirect = Some(Redirect::Mispredict {
                                        penalty: model.ftq.mispredict_penalty,
                                    });
                                } else {
                                    stats.resteers += 1;
                                    redirect = Some(Redirect::Resteer);
                                }
                            }
                        }
                    }
                }
            }
        }

        if taken || redirect.is_some() {
            model.finalize_block(redirect);
        } else if model.block.insts >= model.ftq.fetch_width as u64 {
            model.finalize_block(None);
        }
    }
}

impl Pintool for FetchSim {
    fn on_inst(&mut self, ev: &TraceEvent) {
        self.step(ev);
    }

    /// Hot path: a tight statically-dispatched loop over every event
    /// (block assembly needs each pc/len, so there is no slice to skip
    /// to — the same situation as
    /// [`ICacheSim`](rebalance_frontend::ICacheSim)).
    fn on_batch(&mut self, batch: &EventBatch) {
        for ev in batch.events() {
            self.step(ev);
        }
    }

    fn on_sample_weight(&mut self, weight: u64) {
        self.model.apply_sample_weight(weight);
    }

    fn supports_sampled_replay(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_frontend::{BtbConfig, CacheConfig, CoreKind, FrontendConfig};
    use rebalance_isa::{InstClass, Outcome};
    use rebalance_trace::BranchEvent;

    fn inst(pc: u64, len: u8) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(pc),
            len,
            class: InstClass::Other,
            branch: None,
            section: Section::Parallel,
        }
    }

    fn branch(pc: u64, len: u8, target: u64, kind: BranchKind, taken: bool) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(pc),
            len,
            class: InstClass::Branch(kind),
            branch: Some(BranchEvent {
                kind,
                outcome: Outcome::from_taken(taken),
                target: Some(Addr::new(target)),
            }),
            section: Section::Parallel,
        }
    }

    fn config(depth: usize, width: usize, degree: usize) -> FetchConfig {
        FetchConfig::new(
            FrontendConfig {
                icache: CacheConfig::new(1024, 64, 2),
                ..FrontendConfig::baseline()
            },
            FtqConfig::new(depth, width, degree).with_latencies(20, 12, 8),
        )
    }

    /// Replays a straight-line run of `n` 4-byte instructions.
    fn sequential(sim: &mut FetchSim, base: u64, n: u64) {
        for i in 0..n {
            sim.on_inst(&inst(base + i * 4, 4));
        }
    }

    #[test]
    fn sequential_stream_attribution_is_exact() {
        let mut sim = FetchSim::new(config(16, 4, 0));
        sequential(&mut sim, 0x1000, 64);
        let r = sim.report();
        r.check_attribution().unwrap();
        let t = r.total();
        assert_eq!(t.insts, 64);
        assert_eq!(t.blocks, 16, "4-wide blocks");
        // 64 insts * 4 B = 256 B = 4 lines of 64 B; 16 blocks but only
        // 4 distinct lines are ever newly probed; each block touches
        // exactly one line -> 16 busy cycles.
        assert_eq!(t.busy, 16);
        assert_eq!(t.icache_misses, 4, "four cold lines");
        assert_eq!(t.stalls.icache, 4 * 20, "no prefetcher to hide them");
        assert_eq!(t.prefetches, 0);
    }

    #[test]
    fn fdip_hides_sequential_misses() {
        let run = |degree: usize| {
            let mut sim = FetchSim::new(config(16, 4, degree));
            sequential(&mut sim, 0x1000, 512);
            let r = sim.report();
            r.check_attribution().unwrap();
            r.total()
        };
        let off = run(0);
        let on = run(4);
        assert_eq!(on.prefetches, 32, "every cold line is prefetched");
        assert!(on.prefetch_hits + on.prefetch_late > 0);
        assert!(
            on.stalls.icache < off.stalls.icache / 2,
            "FDIP must hide most sequential miss cycles: {} vs {}",
            on.stalls.icache,
            off.stalls.icache
        );
        assert!(on.bandwidth() > off.bandwidth());
    }

    #[test]
    fn mispredicts_charge_the_redirect_penalty() {
        let mut sim = FetchSim::new(config(16, 4, 4));
        // Alternate taken/not-taken on one conditional branch: every
        // other outcome is mispredicted by any history-free warmup.
        for i in 0..200u64 {
            sim.on_inst(&inst(0x1000, 4));
            sim.on_inst(&branch(
                0x1004,
                5,
                0x1000,
                BranchKind::CondDirect,
                i % 3 == 0,
            ));
        }
        let r = sim.report();
        r.check_attribution().unwrap();
        let t = r.total();
        assert!(t.mispredicts > 0);
        assert!(
            t.stalls.mispredict >= t.mispredicts * 10,
            "each redirect exposes most of its 12-cycle penalty: {} for {}",
            t.stalls.mispredict,
            t.mispredicts
        );
    }

    #[test]
    fn deep_ftq_hides_resteers_that_a_coupled_frontend_exposes() {
        // A warm loop whose 8-wide blocks each span two I-cache lines,
        // so the fetch stage (2 cycles/block) is slower than the BP
        // unit (1 block/cycle) and a deep FTQ builds a run-ahead lead.
        // One branch site alternates its target every visit, so the BTB
        // always holds a stale target there: a resteer per visit. With
        // run-ahead the lead absorbs it; a depth-1 (coupled) FTQ cannot.
        const A: u64 = 0x10000;
        const B: u64 = 0x20000;
        const C: u64 = 0x30000;
        let body = |sim: &mut FetchSim, base: u64| {
            for i in 0..64 {
                sim.on_inst(&inst(base + i * 16, 16));
            }
        };
        let run = |depth: usize| {
            let mut sim = FetchSim::new(FetchConfig::new(
                FrontendConfig {
                    icache: CacheConfig::new(8 * 1024, 64, 4),
                    btb: BtbConfig::new(2048, 8),
                    ..FrontendConfig::baseline()
                },
                FtqConfig::new(depth, 8, 4).with_latencies(20, 12, 8),
            ));
            for round in 0..40u64 {
                let other = if round % 2 == 0 { B } else { C };
                body(&mut sim, A);
                // Site at the end of A flip-flops its target: stale in
                // the BTB on every visit after the first.
                sim.on_inst(&branch(
                    A + 64 * 16,
                    5,
                    other,
                    BranchKind::UncondDirect,
                    true,
                ));
                body(&mut sim, other);
                // Stable sites: warm after their first visit.
                sim.on_inst(&branch(
                    other + 64 * 16,
                    5,
                    A,
                    BranchKind::UncondDirect,
                    true,
                ));
            }
            let r = sim.report();
            r.check_attribution().unwrap();
            r.total()
        };
        let coupled = run(1);
        let decoupled = run(32);
        assert_eq!(
            coupled.resteers, decoupled.resteers,
            "the redirect *events* are identical; only their cost differs"
        );
        assert!(coupled.resteers >= 39, "one stale target per round");
        assert!(
            coupled.stalls.resteer > 0,
            "a depth-1 FTQ cannot hide resteers"
        );
        assert!(
            decoupled.stalls.resteer * 2 < coupled.stalls.resteer,
            "run-ahead hides most resteer cycles: {} vs {}",
            decoupled.stalls.resteer,
            coupled.stalls.resteer
        );
    }

    #[test]
    fn returns_use_the_ras_and_misses_redirect() {
        let mut sim = FetchSim::new(config(16, 4, 4));
        sim.on_inst(&branch(0x100, 5, 0x900, BranchKind::Call, true));
        sim.on_inst(&branch(0x910, 5, 0x105, BranchKind::Return, true));
        // Underflow: a return with no matching call.
        sim.on_inst(&branch(0x920, 5, 0x105, BranchKind::Return, true));
        let t = sim.report().total();
        assert_eq!(t.ras_misses, 1, "only the underflow misses");
        assert_eq!(t.mispredicts, 0);
    }

    #[test]
    fn indirect_btb_miss_is_a_full_mispredict() {
        let mut sim = FetchSim::new(config(16, 4, 4));
        sim.on_inst(&branch(0x100, 5, 0x900, BranchKind::IndirectBranch, true));
        sim.on_inst(&branch(0x200, 5, 0x900, BranchKind::UncondDirect, true));
        let t = sim.report().total();
        assert_eq!(t.mispredicts, 1, "indirect cold miss redirects at execute");
        assert_eq!(t.resteers, 1, "direct cold miss resteers at decode");
    }

    #[test]
    fn section_switches_split_blocks_and_attribution() {
        let mut sim = FetchSim::new(config(16, 4, 4));
        let mut serial = inst(0x1000, 4);
        serial.section = Section::Serial;
        sim.on_inst(&serial);
        sim.on_inst(&inst(0x2000, 4));
        let r = sim.report();
        r.check_attribution().unwrap();
        assert_eq!(r.section(Section::Serial).insts, 1);
        assert_eq!(r.section(Section::Parallel).insts, 1);
        assert_eq!(r.total().blocks, 2, "a section switch closes the block");
    }

    #[test]
    fn report_settles_the_pending_block_without_disturbing_the_sim() {
        let mut sim = FetchSim::new(config(16, 4, 4));
        sim.on_inst(&inst(0x1000, 4)); // partial block, never finalized live
        let first = sim.report();
        assert_eq!(first.total().insts, 1);
        first.check_attribution().unwrap();
        let second = sim.report();
        assert_eq!(first, second, "reporting is idempotent");
        // The live model still has the block pending: feeding more
        // instructions extends it rather than starting a new one.
        sequential(&mut sim, 0x1004, 3);
        assert_eq!(sim.report().total().blocks, 1, "still one 4-wide block");
    }

    #[test]
    fn roster_workload_holds_the_invariant_and_is_deterministic() {
        let trace = rebalance_workloads::find("CG")
            .unwrap()
            .trace(rebalance_workloads::Scale::Smoke)
            .unwrap();
        let run = || {
            let mut sim = FetchSim::new(FetchConfig::for_core(CoreKind::Baseline));
            trace.replay(&mut sim);
            sim.report()
        };
        let a = run();
        a.check_attribution().unwrap();
        assert_eq!(a, run(), "replay is deterministic");
        assert!(a.total().bandwidth() > 0.2);
        assert!(a.total().bandwidth() <= 4.0, "bounded by fetch width");
    }
}
