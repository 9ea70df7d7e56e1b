//! The single-design decoupled front-end simulator: one of each stage,
//! chained. It is the reference the shared
//! [`FetchGrid`](crate::FetchGrid) is tested against.

use std::fmt;

use rebalance_trace::{Pintool, TraceEvent};

use crate::config::FetchConfig;
use crate::report::FetchReport;
use crate::stages::{Block, BlockStream, BranchUnit, Ledger, LineCache, Redirect, Timing};

/// The decoupled front-end simulator as a
/// [`Pintool`](rebalance_trace::Pintool): attach it to a trace replay
/// and read the [`FetchReport`] afterwards. It steps one event at a
/// time: batched delivery reaches it through the default
/// [`Pintool::on_batch`], which expands each run batch into its events.
/// To time many design points over one replay, use a
/// [`FetchGrid`](crate::FetchGrid), which shares the stages the points
/// have in common and reads the runs directly.
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
    branch: BranchUnit,
    stream: BlockStream,
    cache: LineCache,
    ledger: Ledger,
    timing: Timing,
}

impl fmt::Debug for FetchSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FetchSim")
            .field("config", &self.config)
            .field("timing", &self.timing)
            .finish_non_exhaustive()
    }
}

impl FetchSim {
    /// Creates a simulator for one design point (an 8-entry RAS, as on
    /// the lean core).
    pub fn new(config: FetchConfig) -> Self {
        let FetchConfig { frontend, ftq } = config;
        FetchSim {
            branch: BranchUnit::new(&[frontend.predictor], &[frontend.btb]),
            stream: BlockStream::new(ftq.fetch_width, frontend.icache.line_bytes),
            cache: LineCache::new(frontend.icache, ftq.prefetch_degree),
            ledger: Ledger::default(),
            timing: Timing::new(ftq),
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
        let (mut cache, mut ledger, mut timing) =
            (self.cache.clone(), self.ledger.clone(), self.timing.clone());
        serve(
            self.stream.block(),
            &mut cache,
            &mut ledger,
            &mut timing,
            None,
        );
        timing.report(self.config, &ledger)
    }

    /// The per-event step shared verbatim by per-event and batched
    /// delivery, which makes the two bit-identical by construction.
    #[inline]
    fn step(&mut self, ev: &TraceEvent) {
        if self.stream.breaks_before(ev.section) {
            self.close(false);
        }
        let full = self.stream.push(ev);
        let Some(br) = ev.branch else {
            if full {
                self.close(false);
            }
            return;
        };
        let taken = br.outcome.is_taken();
        self.branch
            .resolve(ev.pc, ev.len, br.kind, taken, br.target);
        if taken || self.branch.redirect(0, 0).is_some() || full {
            self.close(true);
        }
    }

    /// Serves the open block (if any) and closes it; `on_branch` when
    /// the branch just resolved closed it and so prices its redirect.
    fn close(&mut self, on_branch: bool) {
        let cause = if on_branch {
            self.branch.redirect(0, 0)
        } else {
            None
        };
        serve(
            self.stream.block(),
            &mut self.cache,
            &mut self.ledger,
            &mut self.timing,
            cause,
        );
        self.stream.clear();
    }
}

/// Serves a block through one of each stage (nothing when no block is
/// open).
fn serve(
    block: &Block,
    cache: &mut LineCache,
    ledger: &mut Ledger,
    timing: &mut Timing,
    cause: Option<Redirect>,
) {
    if block.is_empty() {
        return;
    }
    let service = cache.fetch(block.lines());
    ledger.record(block, &service);
    timing.retire(block.section(), &service, cause);
}

impl Pintool for FetchSim {
    fn on_inst(&mut self, ev: &TraceEvent) {
        self.step(ev);
    }

    /// Settles the open block so the window ends on a block edge, then
    /// scales the window's counters and fetch-clock delta by `weight`.
    fn on_sample_weight(&mut self, weight: u64) {
        self.close(false);
        self.ledger.apply_sample_weight(weight);
        self.timing.apply_sample_weight(weight);
    }

    fn supports_sampled_replay(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FtqConfig;
    use rebalance_frontend::{BtbConfig, CacheConfig, CoreKind, FrontendConfig};
    use rebalance_isa::{Addr, BranchKind, InstClass, Outcome};
    use rebalance_trace::{BranchEvent, Section};

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
