//! A whole fetch design grid over one replay, building each timing-free
//! stage once per distinct key.

use std::fmt;

use rebalance_frontend::CacheConfig;
use rebalance_trace::{EventBatch, Need, Piece, Pintool, PlainRun, TraceEvent};

use crate::config::FetchConfig;
use crate::report::FetchReport;
use crate::stages::{Block, BlockStream, BranchUnit, Ledger, LineCache, LineWalk, Service, Timing};

/// Design points with one [`FtqConfig`](crate::FtqConfig) under one
/// prefetch degree whose BTBs have priced every block-closing branch
/// alike so far: they share one timing model.
#[derive(Debug, Clone)]
struct Group {
    /// The group's BTBs, one bit per branch-unit index.
    btbs: u64,
    /// Grid index and BTB index of each design point.
    designs: Vec<(usize, usize)>,
    timing: Timing,
}

impl Group {
    /// Moves the design points whose BTB is in `btbs` to a new group
    /// with a copy of this one's timing model.
    fn split_off(&mut self, btbs: u64) -> Group {
        let (moved, kept) = self
            .designs
            .iter()
            .partition(|&&(_, btb)| btbs >> btb & 1 != 0);
        self.designs = kept;
        self.btbs &= !btbs;
        Group {
            btbs,
            designs: moved,
            timing: self.timing.clone(),
        }
    }
}

/// One prefetch degree under a line walk: the timing-free counts every
/// design point of that degree shares, and its timing groups.
#[derive(Debug, Clone)]
struct View {
    degree: usize,
    ledger: Ledger,
    groups: Vec<Group>,
}

impl View {
    /// Counts the block once, then retires it through every group. On a
    /// block that closed on a branch (`branch`, with the stream's
    /// predictor index), a group whose BTBs price the branch apart
    /// splits first; groups never merge again.
    #[inline]
    fn retire(&mut self, block: &Block, service: &Service, branch: Option<(&BranchUnit, usize)>) {
        self.ledger.record(block, service);
        let mut g = 0;
        while g < self.groups.len() {
            if let Some((unit, predictor)) = branch {
                if let Some(missed) = unit.btb_split(predictor, self.groups[g].btbs) {
                    let split = self.groups[g].split_off(missed);
                    self.groups.push(split);
                }
            }
            let group = &mut self.groups[g];
            let btb = group.btbs.trailing_zeros() as usize;
            let cause = branch.and_then(|(unit, predictor)| unit.redirect(predictor, btb));
            group.timing.retire(block.section(), service, cause);
            g += 1;
        }
    }
}

/// One I-cache under a block stream and every prefetch degree it
/// serves.
#[derive(Debug, Clone)]
struct Walk {
    icache: CacheConfig,
    /// The shared no-prefetch walk, until the first block whose
    /// distinct lines share a set; then `None`, and `caches` holds one
    /// exact line cache per view, for good.
    shared: Option<LineWalk>,
    caches: Vec<LineCache>,
    views: Vec<View>,
}

impl Walk {
    /// Serves a block to every view (nothing when no block is open).
    #[inline]
    fn serve(&mut self, block: &Block, branch: Option<(&BranchUnit, usize)>) {
        if block.is_empty() {
            return;
        }
        if let Some(walk) = &mut self.shared {
            if let Some(demand) = walk.fetch(block.lines()) {
                for view in &mut self.views {
                    view.retire(block, &demand.service(view.degree), branch);
                }
                return;
            }
            self.caches = self
                .views
                .iter()
                .map(|view| walk.line_cache(view.degree))
                .collect();
            self.shared = None;
        }
        for (view, cache) in self.views.iter_mut().zip(&mut self.caches) {
            view.retire(block, &cache.fetch(block.lines()), branch);
        }
    }
}

/// One block stream and everything downstream of it.
#[derive(Debug, Clone)]
struct StreamNode {
    /// Which of the branch unit's predictors cuts this stream.
    predictor: usize,
    stream: BlockStream,
    walks: Vec<Walk>,
}

impl StreamNode {
    /// Serves the open block (if any) to every walk below this stream,
    /// then closes it. `branch` is the unit when the block closed on a
    /// branch, so each timing group can price that branch for its own
    /// BTBs.
    fn close(&mut self, branch: Option<&BranchUnit>) {
        for walk in &mut self.walks {
            walk.serve(
                self.stream.block(),
                branch.map(|unit| (unit, self.predictor)),
            );
        }
        self.stream.clear();
    }

    /// Every timing group below this stream, with the ledger of its
    /// degree view.
    fn groups(&self) -> impl Iterator<Item = (&Ledger, &Group)> {
        self.walks
            .iter()
            .flat_map(|walk| &walk.views)
            .flat_map(|view| view.groups.iter().map(move |group| (&view.ledger, group)))
    }
}

/// A fetch design grid as one [`Pintool`](rebalance_trace::Pintool):
/// every design point's [`FetchReport`] from one pass over the trace,
/// bit-identical to a solo [`FetchSim`](crate::FetchSim) per point.
///
/// Only the timing stage reads a clock, so the grid builds each other
/// stage once per distinct key and fans its output out:
///
/// | stage | one per |
/// |---|---|
/// | branch unit | RAS; predictor per `predictor`, BTB per `btb` |
/// | block stream | (predictor, `fetch_width`, `line_bytes`) |
/// | line walk | (block stream, `icache`) |
/// | degree view | (line walk, `prefetch_degree`) |
/// | timing group | (degree view, [`FtqConfig`](crate::FtqConfig)), split by BTB on demand |
///
/// The BTB is not part of the block-stream key: a BTB miss only
/// redirects a taken branch, which closes its block anyway, so block
/// edges and line-cache contents are the same for every BTB.
///
/// A line walk demand-fetches each block's lines once with no
/// prefetch, and each degree view reads its outcome: the first
/// `min(degree, misses)` missing lines count as prefetched. That is
/// exact while a block's distinct lines sit in distinct sets; on the
/// first block where two share one, the walk hands each view an exact
/// line cache of its own (the one [`FetchSim`](crate::FetchSim) runs)
/// and stops. A view counts the timing-free half of its reports once
/// (instructions, blocks, busy cycles, prefetches, full misses).
///
/// Design points of one view with one FTQ configuration share a timing
/// model while their BTBs agree on every block-closing branch: all hit,
/// all miss, or the branch was mispredicted anyway. On the first branch
/// they disagree on, the group splits in two by BTB outcome, each half
/// with a copy of the timing model.
///
/// # Examples
///
/// ```
/// use rebalance_fetchsim::{FetchConfig, FetchGrid, FetchSim, FtqConfig};
/// use rebalance_frontend::CoreKind;
/// use rebalance_workloads::{find, Scale};
///
/// let grid: Vec<FetchConfig> = [0, 4]
///     .map(|degree| FetchConfig {
///         ftq: FtqConfig::new(16, 4, degree),
///         ..FetchConfig::for_core(CoreKind::Tailored)
///     })
///     .into();
/// let trace = find("MG").unwrap().trace(Scale::Smoke).unwrap();
/// let mut shared = FetchGrid::new(&grid);
/// trace.replay(&mut shared);
/// let mut solo = FetchSim::new(grid[1]);
/// trace.replay(&mut solo);
/// assert_eq!(shared.reports()[1], solo.report());
/// ```
pub struct FetchGrid {
    configs: Vec<FetchConfig>,
    branch: BranchUnit,
    streams: Vec<StreamNode>,
}

impl fmt::Debug for FetchGrid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FetchGrid")
            .field("configs", &self.configs)
            .field("branch", &self.branch)
            .field("streams", &self.streams.len())
            .finish_non_exhaustive()
    }
}

/// Position of `key` in `keys`, appended first if new.
fn index_of<K: PartialEq>(keys: &mut Vec<K>, key: K) -> usize {
    keys.iter().position(|k| *k == key).unwrap_or_else(|| {
        keys.push(key);
        keys.len() - 1
    })
}

/// The node in `nodes` that `matches`, appended from `make` first if
/// none does.
fn node<T>(nodes: &mut Vec<T>, matches: impl Fn(&T) -> bool, make: impl FnOnce() -> T) -> &mut T {
    let at = nodes.iter().position(matches).unwrap_or_else(|| {
        nodes.push(make());
        nodes.len() - 1
    });
    &mut nodes[at]
}

impl FetchGrid {
    /// Groups `configs` by stage key (design points may repeat; each
    /// still gets its own report).
    ///
    /// # Panics
    ///
    /// Panics if the grid names more than 64 distinct predictors or 64
    /// distinct BTB geometries.
    pub fn new(configs: &[FetchConfig]) -> Self {
        let (mut predictors, mut btbs, mut stream_keys) = (Vec::new(), Vec::new(), Vec::new());
        let mut streams: Vec<StreamNode> = Vec::new();
        for (design, &FetchConfig { frontend, ftq }) in configs.iter().enumerate() {
            let predictor = index_of(&mut predictors, frontend.predictor);
            let btb = index_of(&mut btbs, frontend.btb);
            let line_bytes = frontend.icache.line_bytes;
            let s = index_of(&mut stream_keys, (predictor, ftq.fetch_width, line_bytes));
            if s == streams.len() {
                streams.push(StreamNode {
                    predictor,
                    stream: BlockStream::new(ftq.fetch_width, line_bytes),
                    walks: Vec::new(),
                });
            }
            let walk = node(
                &mut streams[s].walks,
                |w| w.icache == frontend.icache,
                || Walk {
                    icache: frontend.icache,
                    shared: Some(LineWalk::new(frontend.icache)),
                    caches: Vec::new(),
                    views: Vec::new(),
                },
            );
            let view = node(
                &mut walk.views,
                |v| v.degree == ftq.prefetch_degree,
                || View {
                    degree: ftq.prefetch_degree,
                    ledger: Ledger::default(),
                    groups: Vec::new(),
                },
            );
            let group = node(
                &mut view.groups,
                |g| g.timing.ftq() == ftq,
                || Group {
                    btbs: 0,
                    designs: Vec::new(),
                    timing: Timing::new(ftq),
                },
            );
            group.btbs |= 1 << btb;
            group.designs.push((design, btb));
        }
        FetchGrid {
            configs: configs.to_vec(),
            branch: BranchUnit::new(&predictors, &btbs),
            streams,
        }
    }

    /// One report per design point, in grid order. Open blocks are
    /// settled on a copy, so reports mid-replay are safe.
    pub fn reports(&self) -> Vec<FetchReport> {
        let mut reports = vec![None; self.configs.len()];
        for node in &self.streams {
            let mut node = node.clone();
            node.close(None);
            for (ledger, group) in node.groups() {
                for &(design, _) in &group.designs {
                    reports[design] = Some(group.timing.report(self.configs[design], ledger));
                }
            }
        }
        reports
            .into_iter()
            .map(|r| r.expect("every design point has a timing group"))
            .collect()
    }

    /// One piece of the stream: a branch through the branch unit once,
    /// then every block stream; a plain run through every block stream.
    #[inline]
    fn piece(&mut self, piece: Piece<'_>) {
        match piece {
            Piece::Start(_) => {}
            Piece::Branch(ev) => self.branch(ev),
            Piece::Run(run) => self.run(&run),
        }
    }

    fn branch(&mut self, ev: &TraceEvent) {
        let br = ev.branch.expect("a branch piece carries its branch");
        let taken = br.outcome.is_taken();
        self.branch
            .resolve(ev.pc, ev.len, br.kind, taken, br.target);
        for node in &mut self.streams {
            if node.stream.breaks_before(ev.section) {
                node.close(None);
            }
            let full = node.stream.push(ev);
            let redirected = taken || self.branch.mispredicted(node.predictor);
            // The sharing is exact because a branch that neither is
            // taken nor mispredicted costs nothing under any BTB.
            debug_assert!(
                redirected
                    || (0..self.branch.shape().1)
                        .all(|b| self.branch.redirect(node.predictor, b).is_none()),
                "a block edge depends on the BTB"
            );
            if redirected || full {
                node.close(Some(&self.branch));
            }
        }
    }

    /// A plain run through every block stream: cut where the open block
    /// reaches the fetch width, each piece joins the block whole. Plain
    /// instructions never touch the branch unit.
    fn run(&mut self, run: &PlainRun<'_>) {
        for node in &mut self.streams {
            if node.stream.breaks_before(run.section) {
                node.close(None);
            }
            let mut pc = run.pc.as_u64();
            let mut lens = run.lens;
            while !lens.is_empty() {
                let n = node.stream.room().min(lens.len() as u64);
                let (chunk, rest) = lens.split_at(n as usize);
                let bytes = if chunk.len() == run.lens.len() {
                    run.bytes
                } else {
                    chunk.iter().map(|&len| u64::from(len)).sum()
                };
                if node.stream.push_range(pc, bytes, n, run.section) {
                    node.close(None);
                }
                pc = pc.wrapping_add(bytes);
                lens = rest;
            }
        }
    }
}

/// The grid reads a batch as pieces ([`EventBatch::pieces`]), and an event
/// delivered alone as a piece of one: a branch goes through the branch
/// unit and every block stream, and a plain run joins each stream a
/// fetch-width piece at a time, its instruction lengths read only where
/// the width cuts it. A grid with no design points
/// costs nothing: it returns at once and reads no plain instruction, so
/// a replay it rides keeps branch-only batches.
impl Pintool for FetchGrid {
    fn on_inst(&mut self, ev: &TraceEvent) {
        if !self.streams.is_empty() {
            self.piece(Piece::of(ev));
        }
    }

    fn on_batch(&mut self, batch: &EventBatch) {
        if self.streams.is_empty() {
            return;
        }
        for piece in batch.pieces() {
            self.piece(piece);
        }
    }

    /// Settles every open block, then scales every design's window.
    fn on_sample_weight(&mut self, weight: u64) {
        for node in &mut self.streams {
            node.close(None);
            for view in node.walks.iter_mut().flat_map(|walk| &mut walk.views) {
                view.ledger.apply_sample_weight(weight);
                for group in &mut view.groups {
                    group.timing.apply_sample_weight(weight);
                }
            }
        }
    }

    fn supports_sampled_replay(&self) -> bool {
        true
    }

    fn need(&self) -> Need {
        if self.streams.is_empty() {
            Need::Branches
        } else {
            Need::Events
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FetchSim, FtqConfig};
    use rebalance_frontend::{BtbConfig, CoreKind, FrontendConfig};
    use rebalance_isa::{Addr, BranchKind, InstClass, Outcome};
    use rebalance_trace::{BranchEvent, Section};

    /// How many of each stage a grid built.
    #[derive(Debug, PartialEq, Eq)]
    struct Shape {
        predictors: usize,
        btbs: usize,
        streams: usize,
        walks: usize,
        views: usize,
        groups: usize,
        designs: usize,
    }

    fn shape(grid: &FetchGrid) -> Shape {
        let walks = grid.streams.iter().flat_map(|s| &s.walks);
        let views = walks.clone().flat_map(|w| &w.views);
        let groups: Vec<_> = grid.streams.iter().flat_map(StreamNode::groups).collect();
        let (predictors, btbs) = grid.branch.shape();
        Shape {
            predictors,
            btbs,
            streams: grid.streams.len(),
            walks: walks.count(),
            views: views.count(),
            groups: groups.len(),
            designs: groups.iter().map(|(_, g)| g.designs.len()).sum(),
        }
    }

    #[test]
    fn depth_width_degree_btb_grid_shares_every_timing_free_stage() {
        let mut configs = Vec::new();
        for depth in [4, 16] {
            for width in [2, 4] {
                for degree in [0, 4] {
                    for btb in [2048, 256] {
                        configs.push(FetchConfig::new(
                            FrontendConfig {
                                btb: BtbConfig::new(btb, 8),
                                ..FrontendConfig::baseline()
                            },
                            FtqConfig::new(depth, width, degree),
                        ));
                    }
                }
            }
        }
        let grid = FetchGrid::new(&configs);
        // One stream and one walk per width, one view per (width,
        // degree), one timing group per (width, degree, depth): the BTB
        // axis splits nothing until the BTBs disagree.
        let expected = Shape {
            predictors: 1,
            btbs: 2,
            streams: 2,
            walks: 2,
            views: 4,
            groups: 8,
            designs: 16,
        };
        assert_eq!(shape(&grid), expected);
        assert_eq!(grid.configs, configs);
    }

    #[test]
    fn only_a_grid_with_design_points_reads_every_event() {
        assert_eq!(FetchGrid::new(&[]).need(), Need::Branches);
        let tailored = FetchConfig::for_core(CoreKind::Tailored);
        assert_eq!(FetchGrid::new(&[tailored]).need(), Need::Events);
    }

    #[test]
    fn line_size_and_predictor_split_streams_latencies_do_not() {
        let base = FetchConfig::for_core(CoreKind::Baseline);
        let wide_lines = FetchConfig {
            frontend: FrontendConfig {
                icache: CacheConfig::new(32 * 1024, 128, 4),
                ..base.frontend
            },
            ..base
        };
        let slow_ras = FetchConfig {
            ftq: base.ftq.with_ras_penalty(30),
            ..base
        };
        let tailored = FetchConfig::for_core(CoreKind::Tailored);
        // The BTB splits neither a stream nor a walk nor, until the
        // BTBs disagree, a timing group.
        let small_btb = FetchConfig {
            frontend: FrontendConfig {
                btb: tailored.frontend.btb,
                ..base.frontend
            },
            ..base
        };
        let grid = FetchGrid::new(&[base, wide_lines, slow_ras, tailored, base, small_btb]);
        let expected = Shape {
            predictors: 2,
            btbs: 2,
            streams: 3,
            walks: 3,
            views: 3,
            groups: 4,
            designs: 6,
        };
        assert_eq!(shape(&grid), expected);
        let reports = grid.reports();
        assert_eq!(reports.len(), 6);
        assert_eq!(reports[4].config, base);
        assert_eq!(reports[5].config, small_btb);
    }

    fn inst(pc: u64) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(pc),
            len: 4,
            class: InstClass::Other,
            branch: None,
            section: Section::Parallel,
        }
    }

    fn jump(pc: u64, target: u64) -> TraceEvent {
        let kind = BranchKind::UncondDirect;
        TraceEvent {
            pc: Addr::new(pc),
            len: 4,
            class: InstClass::Branch(kind),
            branch: Some(BranchEvent {
                kind,
                outcome: Outcome::from_taken(true),
                target: Some(Addr::new(target)),
            }),
            section: Section::Parallel,
        }
    }

    /// Two blocks that jump to each other: a 1-entry BTB holds only the
    /// last jump, so from the second round on it misses where the
    /// baseline BTB hits.
    fn ping_pong() -> Vec<TraceEvent> {
        vec![
            inst(0x1000),
            inst(0x1004),
            jump(0x1008, 0x2000),
            inst(0x2000),
            jump(0x2004, 0x1000),
        ]
    }

    #[test]
    fn a_btb_that_disagrees_splits_its_timing_group() {
        let base = FetchConfig::for_core(CoreKind::Baseline);
        let tiny = FetchConfig {
            frontend: FrontendConfig {
                btb: BtbConfig::new(1, 1),
                ..base.frontend
            },
            ..base
        };
        let configs = [base, tiny];
        let mut grid = FetchGrid::new(&configs);
        let mut solo = configs.map(FetchSim::new);
        let groups = |grid: &FetchGrid| shape(grid).groups;
        for round in 0..4 {
            for ev in ping_pong() {
                grid.on_inst(&ev);
                solo.iter_mut().for_each(|sim| sim.on_inst(&ev));
            }
            // Round 0 misses in both BTBs (cold), so they agree.
            assert_eq!(groups(&grid), if round == 0 { 1 } else { 2 });
            let reports = grid.reports();
            assert_eq!(reports[0], solo[0].report(), "round {round}");
            assert_eq!(reports[1], solo[1].report(), "round {round}");
        }
        let [base_report, tiny_report] = [0, 1].map(|d| grid.reports()[d].total());
        assert_eq!(base_report.resteers, 2, "the baseline BTB misses cold only");
        assert_eq!(tiny_report.resteers, 8, "the 1-entry BTB misses every jump");
    }

    #[test]
    fn icache_misses_saturate_under_an_extreme_sample_weight() {
        // Width 32 from a cold cache: the first block spans two lines.
        // Degree 1 prefetches the first, which the fetch stage reaches
        // before its fill lands (a late prefetch); the second is a full
        // miss. The report adds the two parts.
        let config = FetchConfig::new(FrontendConfig::baseline(), FtqConfig::new(16, 32, 1));
        let mut grid = FetchGrid::new(&[config]);
        let mut solo = FetchSim::new(config);
        for pc in (0..128).step_by(4) {
            grid.on_inst(&inst(pc));
            solo.on_inst(&inst(pc));
        }
        let window = grid.reports()[0].sections.parallel;
        assert_eq!((window.prefetch_late, window.icache_misses), (1, 2));
        grid.on_sample_weight(u64::MAX - 1);
        solo.on_sample_weight(u64::MAX - 1);
        let report = grid.reports()[0];
        assert_eq!(report, solo.report());
        assert_eq!(report.sections.parallel.prefetch_late, u64::MAX - 1);
        assert_eq!(report.sections.parallel.icache_misses, u64::MAX);
    }
}
