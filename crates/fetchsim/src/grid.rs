//! A whole fetch design grid over one replay, building each timing-free
//! stage once per distinct key.

use std::fmt;

use rebalance_trace::{EventBatch, Need, Piece, Pintool, PlainRun, TraceEvent};

use crate::config::FetchConfig;
use crate::report::FetchReport;
use crate::stages::{serve, BlockStream, BranchUnit, LineCache, Timing};

/// One line cache and the design points it feeds.
#[derive(Debug, Clone)]
struct CacheNode {
    cache: LineCache,
    /// Grid index of each timing model's design point.
    designs: Vec<usize>,
    timings: Vec<Timing>,
}

/// One block stream and everything downstream of it.
#[derive(Debug, Clone)]
struct StreamNode {
    /// Which of the branch unit's predictors cuts this stream.
    predictor: usize,
    stream: BlockStream,
    caches: Vec<CacheNode>,
}

impl StreamNode {
    /// Serves the open block (if any) to every cache and timing model
    /// below this stream, then closes it. `branch` is the unit when the
    /// block closed on a branch, so each timing model can price that
    /// branch for its own BTB.
    fn close(&mut self, branch: Option<&BranchUnit>) {
        for node in &mut self.caches {
            serve(
                self.stream.block(),
                &mut node.cache,
                &mut node.timings,
                branch.map(|unit| (unit, self.predictor)),
            );
        }
        self.stream.clear();
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
/// | line cache | (block stream, `icache`, `prefetch_degree`) |
/// | timing | design point |
///
/// The BTB is not part of the block-stream key: a BTB miss only
/// redirects a taken branch, which closes its block anyway, so block
/// edges and line-cache contents are the same for every BTB. Each
/// timing model prices a block-closing branch for its own BTB.
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

impl FetchGrid {
    /// Groups `configs` by stage key (design points may repeat; each
    /// still gets its own timing model and report).
    ///
    /// # Panics
    ///
    /// Panics if the grid names more than 64 distinct predictors or 64
    /// distinct BTB geometries.
    pub fn new(configs: &[FetchConfig]) -> Self {
        let (mut predictors, mut btbs, mut stream_keys) = (Vec::new(), Vec::new(), Vec::new());
        let mut cache_keys: Vec<Vec<_>> = Vec::new();
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
                    caches: Vec::new(),
                });
                cache_keys.push(Vec::new());
            }
            let node = &mut streams[s];
            let c = index_of(&mut cache_keys[s], (frontend.icache, ftq.prefetch_degree));
            if c == node.caches.len() {
                node.caches.push(CacheNode {
                    cache: LineCache::new(frontend.icache, ftq.prefetch_degree),
                    designs: Vec::new(),
                    timings: Vec::new(),
                });
            }
            node.caches[c].designs.push(design);
            node.caches[c].timings.push(Timing::new(ftq, btb));
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
            for cache in &node.caches {
                for (&design, timing) in cache.designs.iter().zip(&cache.timings) {
                    reports[design] = Some(timing.report(self.configs[design]));
                }
            }
        }
        reports
            .into_iter()
            .map(|r| r.expect("every design point has a timing model"))
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

/// The grid reads a batch as pieces ([`Need::Runs`]), and an event
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
            for cache in &mut node.caches {
                for timing in &mut cache.timings {
                    timing.apply_sample_weight(weight);
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
            Need::Runs
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FtqConfig;
    use rebalance_frontend::{BtbConfig, CacheConfig, CoreKind, FrontendConfig};

    /// `(predictors, btbs, streams, caches, timings)`.
    fn shape(grid: &FetchGrid) -> (usize, usize, usize, usize, usize) {
        let caches = grid.streams.iter().map(|s| s.caches.len()).sum();
        let timings = grid
            .streams
            .iter()
            .flat_map(|s| &s.caches)
            .map(|c| c.timings.len())
            .sum();
        let (predictors, btbs) = grid.branch.shape();
        (predictors, btbs, grid.streams.len(), caches, timings)
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
        // One stream per width, one line cache per (width, degree); the
        // depth and BTB axes only split timing models.
        assert_eq!(shape(&grid), (1, 2, 2, 4, 16));
        assert_eq!(grid.configs, configs);
    }

    #[test]
    fn only_a_grid_with_design_points_reads_every_event() {
        assert_eq!(FetchGrid::new(&[]).need(), Need::Branches);
        let tailored = FetchConfig::for_core(CoreKind::Tailored);
        assert_eq!(FetchGrid::new(&[tailored]).need(), Need::Runs);
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
        // The BTB splits neither a stream nor a line cache: only the
        // timing models below them tell the two BTBs apart.
        let small_btb = FetchConfig {
            frontend: FrontendConfig {
                btb: tailored.frontend.btb,
                ..base.frontend
            },
            ..base
        };
        let grid = FetchGrid::new(&[base, wide_lines, slow_ras, tailored, base, small_btb]);
        assert_eq!(shape(&grid), (2, 2, 3, 3, 6));
        let reports = grid.reports();
        assert_eq!(reports.len(), 6);
        assert_eq!(reports[4].config, base);
        assert_eq!(reports[5].config, small_btb);
    }
}
