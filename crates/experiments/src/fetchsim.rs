//! The `fetchsim` exhibit: a decoupled-front-end design grid (FTQ depth
//! × fetch width × prefetch degree × BTB size) swept over the paper
//! roster *and* the kernel archetypes, one trace replay per workload.
//!
//! This is the cycle-level counterpart of the MPKI exhibits: instead of
//! pricing miss rates through closed-form penalties, every design point
//! runs the [`FetchGrid`](rebalance_fetchsim::FetchGrid) pipeline model
//! and reports measured fetch bandwidth plus the exact stall-cycle
//! breakdown. The headline directional claim it reproduces: on HPC and
//! kernel workloads, a BTB an order of magnitude smaller costs almost
//! no fetch bandwidth once fetch-directed prefetching and the FTQ's
//! run-ahead are in place — the resteers still happen, but their
//! cycles are hidden.

use rebalance_fetchsim::{FetchConfig, FetchReport, FetchStats, FtqConfig};
use rebalance_frontend::{BtbConfig, FrontendConfig};
use rebalance_workloads::{Scale, Suite, Workload};
use serde::{Deserialize, Serialize};

use crate::pass::{measure_all, suite_means, Need, Record};
use crate::util::{f2, mean, Run, RunError, TextTable};

/// The default design grid: FTQ depth × fetch width × prefetch degree
/// × BTB size, all on the baseline predictor/I-cache so the BTB axis
/// is isolated. 16 design points — all sharing one replay per
/// workload.
pub fn default_grid() -> Vec<FetchConfig> {
    let mut grid = Vec::new();
    for depth in [4usize, 16] {
        for width in [2usize, 4] {
            for degree in [0usize, 4] {
                for btb in [2048usize, 256] {
                    let frontend = FrontendConfig {
                        btb: BtbConfig::new(btb, 8),
                        ..FrontendConfig::baseline()
                    };
                    grid.push(FetchConfig::new(
                        frontend,
                        FtqConfig::new(depth, width, degree),
                    ));
                }
            }
        }
    }
    grid
}

/// The fetch-side summary of one design point on one workload.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FetchSummary {
    /// Instructions per fetch cycle over the whole run.
    pub bandwidth: f64,
    /// Serial-section fetch bandwidth.
    pub serial_bandwidth: f64,
    /// Parallel-section fetch bandwidth.
    pub parallel_bandwidth: f64,
    /// Total modeled fetch cycles.
    pub cycles: u64,
    /// Mispredict-redirect stall cycles per kilo-instruction.
    pub mispredict_cpk: f64,
    /// BTB-resteer stall cycles per kilo-instruction (exposed only).
    pub resteer_cpk: f64,
    /// Exposed I-cache miss cycles per kilo-instruction.
    pub icache_cpk: f64,
    /// FTQ-empty cycles per kilo-instruction.
    pub ftq_empty_cpk: f64,
}

impl FetchSummary {
    pub(crate) fn from_report(report: &FetchReport) -> Self {
        report
            .check_attribution()
            .expect("fetchsim attribution invariant");
        let total: FetchStats = report.total();
        FetchSummary {
            bandwidth: total.bandwidth(),
            serial_bandwidth: report.sections.serial.bandwidth(),
            parallel_bandwidth: report.sections.parallel.bandwidth(),
            cycles: report.total_cycles,
            mispredict_cpk: total.stall_cpk(total.stalls.mispredict),
            resteer_cpk: total.stall_cpk(total.stalls.resteer),
            icache_cpk: total.stall_cpk(total.stalls.icache),
            ftq_empty_cpk: total.stall_cpk(total.stalls.ftq_empty),
        }
    }
}

/// One workload's row of the grid sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FetchsimRow {
    /// Workload name.
    pub workload: String,
    /// Owning suite.
    pub suite: Suite,
    /// One summary per grid design point, in grid order.
    pub summaries: Vec<FetchSummary>,
}

/// The raw grid sweep: every selected workload × every design point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FetchsimSweep {
    /// Design-point labels, in grid order.
    pub configs: Vec<String>,
    /// One row per workload, selection order.
    pub rows: Vec<FetchsimRow>,
}

impl FetchsimSweep {
    /// The grid rows of the measured workloads.
    pub fn of(records: &[&Record]) -> Self {
        let rows = records
            .iter()
            .map(|r| FetchsimRow {
                workload: r.workload.name().to_owned(),
                suite: r.workload.suite(),
                summaries: r.fetch.clone(),
            })
            .collect();
        FetchsimSweep {
            configs: default_grid().iter().map(FetchConfig::label).collect(),
            rows,
        }
    }

    /// Looks one cell up.
    pub fn summary(&self, workload: &str, config: &str) -> Option<&FetchSummary> {
        let ci = self.configs.iter().position(|c| c == config)?;
        self.rows
            .iter()
            .find(|r| r.workload == workload)
            .map(|r| &r.summaries[ci])
    }
}

/// Sweeps the default design grid over `workloads`: one
/// [`FetchGrid`](rebalance_fetchsim::FetchGrid) per replay of the
/// fused pass, so the cost is one replay per `(workload, scale)` —
/// cache-served when the run has a cache — and each timing-free stage
/// runs once per distinct key rather than once per design point.
/// Honors the run's sampling geometry ([`Run::sampling`]): when set,
/// each replay covers only weighted representative intervals.
///
/// # Errors
///
/// The first workload's [`RunError`].
pub fn sweep_grid(
    run: &Run,
    workloads: Vec<Workload>,
    scale: Scale,
) -> Result<FetchsimSweep, RunError> {
    let sampling = run.sampling.unwrap_or_default();
    let records = measure_all(run, workloads, scale, &sampling, &[Need::FetchGrid])?;
    Ok(FetchsimSweep::of(&records.iter().collect::<Vec<_>>()))
}

/// One exhibit row: per-suite mean fetch bandwidth plus the mean stall
/// breakdown for one design point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FetchsimExhibitRow {
    /// Design-point label.
    pub config: String,
    /// Mean fetch bandwidth per suite, in [`Suite::ALL`] order.
    pub bandwidth: [f64; Suite::COUNT],
    /// Mean stall cycles per kilo-instruction over every selected
    /// workload: `[mispredict, resteer, icache, ftq_empty]`.
    pub stalls_cpk: [f64; 4],
}

/// The `fetchsim` exhibit: the grid aggregated per suite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fetchsim {
    /// One row per design point, grid order.
    pub rows: Vec<FetchsimExhibitRow>,
}

impl Fetchsim {
    /// Bandwidth for a config/suite pair.
    pub fn bandwidth(&self, config: &str, suite: Suite) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.config == config)
            .map(|r| r.bandwidth[suite.index()])
    }

    /// Mean fetch-bandwidth ratio of the small-BTB design point to its
    /// large-BTB sibling over the given suites, at the deep-FTQ 4-wide
    /// grid corner — with or without FDIP. This is the paper's
    /// directional claim in one number: with FDIP on, HPC/kernel
    /// workloads should keep ≈ all of their fetch bandwidth despite an
    /// 8× smaller BTB.
    pub fn small_btb_bandwidth_ratio(&self, suites: &[Suite], fdip: bool) -> f64 {
        let degree = if fdip { 4 } else { 0 };
        let small = format!("ftq16/w4/pf{degree}/btb256");
        let large = format!("ftq16/w4/pf{degree}/btb2048");
        mean(suites.iter().filter_map(|&s| {
            let small = self.bandwidth(&small, s)?;
            let large = self.bandwidth(&large, s)?;
            (large > 0.0).then_some(small / large)
        }))
    }

    /// Text rendering: bandwidth per suite, then the stall breakdown.
    pub fn render(&self) -> String {
        let mut header = vec!["config".to_owned()];
        header.extend(Suite::ALL.iter().map(|s| s.to_string()));
        let mut bw = TextTable::new(header);
        for r in &self.rows {
            let mut cells = vec![r.config.clone()];
            cells.extend(r.bandwidth.iter().map(|b| f2(*b)));
            bw.row(cells);
        }
        let mut stalls = TextTable::new(vec![
            "config",
            "mispredict",
            "resteer",
            "icache",
            "ftq-empty",
        ]);
        for r in &self.rows {
            let mut cells = vec![r.config.clone()];
            cells.extend(r.stalls_cpk.iter().map(|c| f2(*c)));
            stalls.row(cells);
        }
        let hpc_kernels: Vec<Suite> = Suite::ALL
            .into_iter()
            .filter(|s| s.is_hpc() || *s == Suite::Kernels)
            .collect();
        format!(
            "Fetchsim: decoupled front-end design grid (mean fetch bandwidth, insts/cycle)\n{}\n\
             Fetchsim: stall-cycle breakdown (cycles per kilo-instruction, mean over selection)\n{}\n\
             small-BTB (256 vs 2048) bandwidth retention on HPC+kernels: \
             {} with FDIP, {} without\n",
            bw.render(),
            stalls.render(),
            f2(self.small_btb_bandwidth_ratio(&hpc_kernels, true)),
            f2(self.small_btb_bandwidth_ratio(&hpc_kernels, false)),
        )
    }
}

/// The `fetchsim` exhibit: the measured grid aggregated per suite.
pub fn exhibit(records: &[&Record]) -> Fetchsim {
    let rows = default_grid()
        .iter()
        .enumerate()
        .map(|(ci, config)| {
            let col = |f: fn(&FetchSummary) -> f64| mean(records.iter().map(|r| f(&r.fetch[ci])));
            FetchsimExhibitRow {
                config: config.label(),
                bandwidth: suite_means(records, |r| r.fetch[ci].bandwidth),
                stalls_cpk: [
                    col(|s| s.mispredict_cpk),
                    col(|s| s.resteer_cpk),
                    col(|s| s.icache_cpk),
                    col(|s| s.ftq_empty_cpk),
                ],
            }
        })
        .collect();
    Fetchsim { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_spans_the_four_axes() {
        let grid = default_grid();
        assert_eq!(grid.len(), 16);
        let labels: Vec<String> = grid.iter().map(FetchConfig::label).collect();
        assert!(labels.contains(&"ftq16/w4/pf4/btb256".to_owned()));
        assert!(labels.contains(&"ftq4/w2/pf0/btb2048".to_owned()));
        let mut unique = labels.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), grid.len(), "all design points distinct");
    }

    #[test]
    fn exhibit_reproduces_the_small_btb_claim() {
        let records =
            crate::pass::measured(rebalance_workloads::all(), Scale::Smoke, &[Need::FetchGrid]);
        let f = exhibit(&records.iter().collect::<Vec<_>>());
        assert_eq!(f.rows.len(), 16);
        let hpc_kernels: Vec<Suite> = Suite::ALL
            .into_iter()
            .filter(|s| s.is_hpc() || *s == Suite::Kernels)
            .collect();
        let with_fdip = f.small_btb_bandwidth_ratio(&hpc_kernels, true);
        assert!(
            with_fdip > 0.97,
            "HPC/kernels keep their fetch bandwidth with a small BTB under FDIP: {with_fdip}"
        );
        let without = f.small_btb_bandwidth_ratio(&hpc_kernels, false);
        assert!(
            with_fdip >= without - 0.01,
            "FDIP must not make the small BTB worse: {with_fdip} vs {without}"
        );
        // Deeper queues and FDIP buy bandwidth on the same BTB.
        let shallow = f.bandwidth("ftq4/w4/pf0/btb2048", Suite::Npb).unwrap();
        let deep = f.bandwidth("ftq16/w4/pf4/btb2048", Suite::Npb).unwrap();
        assert!(deep > shallow, "{deep} vs {shallow}");
        assert!(f.render().contains("bandwidth retention"));
    }

    #[test]
    fn sweep_rows_cover_selection_and_grid() {
        let ws = vec![
            rebalance_workloads::find("CG").unwrap(),
            rebalance_workloads::find("k.triad").unwrap(),
        ];
        let s = sweep_grid(&Run::default(), ws, Scale::Smoke).unwrap();
        assert_eq!(s.rows.len(), 2);
        assert_eq!(s.configs.len(), 16);
        let cell = s.summary("CG", "ftq16/w4/pf4/btb2048").unwrap();
        assert!(cell.bandwidth > 0.0);
        assert!(cell.cycles > 0);
        assert!(s.summary("CG", "nope").is_none());
    }
}
