//! Figures 1–4 and Table I: the architecture-independent
//! characterization, regenerated in one trace pass per workload.

use rebalance_isa::BranchKind;
use rebalance_pintools::{Characterization, NUM_BIAS_BUCKETS};
use rebalance_trace::Section;
use rebalance_workloads::{KernelSpec, Suite};
use serde::{Deserialize, Serialize};

use crate::paper;
use crate::pass::Record;
use crate::util::{f1, mean, pct, TextTable};

/// Which bars a row describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Bars {
    /// Whole execution.
    Total,
    /// Serial sections only.
    Serial,
    /// Parallel sections only.
    Parallel,
}

impl Bars {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            Bars::Total => "total",
            Bars::Serial => "serial",
            Bars::Parallel => "parallel",
        }
    }
}

/// One Figure 1 row: branch-type breakdown as % of instructions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1Row {
    /// Suite.
    pub suite: Suite,
    /// Bars (total/serial/parallel).
    pub bars: Bars,
    /// Percent of instructions: conditional+unconditional direct.
    pub direct: f64,
    /// Percent: calls (direct).
    pub call: f64,
    /// Percent: indirect calls.
    pub indirect_call: f64,
    /// Percent: indirect branches.
    pub indirect_branch: f64,
    /// Percent: returns.
    pub ret: f64,
    /// Percent: syscalls.
    pub syscall: f64,
    /// Total branch percent of instructions.
    pub total_branches: f64,
}

/// Figure 1: dynamic branch instruction breakdown.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig1 {
    /// Rows in suite / bars order.
    pub rows: Vec<Fig1Row>,
}

impl Fig1 {
    /// Text rendering with the paper's per-suite totals alongside.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "suite",
            "bars",
            "direct%",
            "call%",
            "icall%",
            "ibr%",
            "ret%",
            "sys%",
            "total%",
            "paper-total%",
        ]);
        for r in &self.rows {
            let paper = if r.bars == Bars::Total {
                format!("{:.1}", paper::branch_fraction(r.suite) * 100.0)
            } else {
                String::new()
            };
            t.row(vec![
                r.suite.to_string(),
                r.bars.label().to_string(),
                f1(r.direct),
                format!("{:.2}", r.call),
                format!("{:.3}", r.indirect_call),
                format!("{:.3}", r.indirect_branch),
                format!("{:.2}", r.ret),
                format!("{:.3}", r.syscall),
                f1(r.total_branches),
                paper,
            ]);
        }
        format!(
            "Figure 1: dynamic branch breakdown (% of instructions)\n{}",
            t.render()
        )
    }
}

/// One Figure 2 row: taken-rate bucket shares.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2Row {
    /// Suite.
    pub suite: Suite,
    /// Bars.
    pub bars: Bars,
    /// Bucket shares (0–10%, ..., >90%), summing to ~1.
    pub buckets: [f64; NUM_BIAS_BUCKETS],
    /// Share of dynamic branches from strongly biased sites.
    pub strongly_biased: f64,
}

/// Figure 2: distribution of branch directions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig2 {
    /// Rows in suite / bars order.
    pub rows: Vec<Fig2Row>,
}

impl Fig2 {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "suite", "bars", "0-10", "10-20", "20-30", "30-40", "40-50", "50-60", "60-70", "70-80",
            "80-90", ">90", "biased", "paper",
        ]);
        for r in &self.rows {
            let mut cells = vec![r.suite.to_string(), r.bars.label().to_string()];
            cells.extend(r.buckets.iter().map(|b| pct(*b)));
            cells.push(pct(r.strongly_biased));
            cells.push(if r.bars == Bars::Total {
                pct(paper::strongly_biased(r.suite))
            } else {
                String::new()
            });
            t.row(cells);
        }
        format!(
            "Figure 2: conditional-branch taken-rate distribution (dynamic share)\n{}",
            t.render()
        )
    }
}

/// One Table I row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Suite.
    pub suite: Suite,
    /// Backward share of taken conditionals in serial code.
    pub serial_backward: f64,
    /// Backward share in parallel code (0 for SPEC CPU INT).
    pub parallel_backward: f64,
}

/// Table I: backward vs forward taken branches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1 {
    /// Rows per suite.
    pub rows: Vec<Table1Row>,
}

impl Table1 {
    /// Text rendering with paper values.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "suite",
            "serial bwd/fwd",
            "parallel bwd/fwd",
            "paper serial",
            "paper parallel",
        ]);
        for r in &self.rows {
            let (ps, pp) = paper::backward_taken(r.suite);
            let par = if !r.suite.has_parallel_sections() {
                "-".to_string()
            } else {
                format!(
                    "{:.0}%/{:.0}%",
                    r.parallel_backward * 100.0,
                    (1.0 - r.parallel_backward) * 100.0
                )
            };
            let paper_par = if !r.suite.has_parallel_sections() {
                "-".to_string()
            } else {
                format!("{:.0}%/{:.0}%", pp * 100.0, (1.0 - pp) * 100.0)
            };
            t.row(vec![
                r.suite.to_string(),
                format!(
                    "{:.0}%/{:.0}%",
                    r.serial_backward * 100.0,
                    (1.0 - r.serial_backward) * 100.0
                ),
                par,
                format!("{:.0}%/{:.0}%", ps * 100.0, (1.0 - ps) * 100.0),
                paper_par,
            ]);
        }
        format!(
            "Table I: backward/forward taken conditional branches\n{}",
            t.render()
        )
    }
}

/// One Figure 3 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3Row {
    /// Suite.
    pub suite: Suite,
    /// Bars.
    pub bars: Bars,
    /// Average memory for 99% of dynamic instructions, KB.
    pub dyn99_kb: f64,
    /// Average static footprint, KB (same for all bars of a suite).
    pub static_kb: f64,
}

/// Figure 3: instruction footprints.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig3 {
    /// Rows in suite / bars order.
    pub rows: Vec<Fig3Row>,
}

impl Fig3 {
    /// Text rendering with paper values.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "suite",
            "bars",
            "dyn99 KB",
            "static KB",
            "paper dyn99",
            "paper static",
        ]);
        for r in &self.rows {
            let (pd, ps) = if r.bars == Bars::Total {
                (f1(paper::dyn99_kb(r.suite)), f1(paper::static_kb(r.suite)))
            } else {
                (String::new(), String::new())
            };
            t.row(vec![
                r.suite.to_string(),
                r.bars.label().to_string(),
                f1(r.dyn99_kb),
                f1(r.static_kb),
                pd,
                ps,
            ]);
        }
        format!("Figure 3: instruction footprints\n{}", t.render())
    }
}

/// One Figure 4 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4Row {
    /// Suite.
    pub suite: Suite,
    /// Bars.
    pub bars: Bars,
    /// Average basic-block length, bytes.
    pub bbl_bytes: f64,
    /// Average distance between taken branches, bytes.
    pub taken_distance: f64,
}

/// Figure 4: basic blocks and taken distances.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig4 {
    /// Rows in suite / bars order.
    pub rows: Vec<Fig4Row>,
}

impl Fig4 {
    /// Text rendering with paper values.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["suite", "bars", "avg BBL", "taken dist", "paper BBL"]);
        for r in &self.rows {
            t.row(vec![
                r.suite.to_string(),
                r.bars.label().to_string(),
                f1(r.bbl_bytes),
                f1(r.taken_distance),
                if r.bars == Bars::Total {
                    f1(paper::bbl_bytes(r.suite))
                } else {
                    String::new()
                },
            ]);
        }
        format!(
            "Figure 4: basic-block length and taken-branch distance (bytes)\n{}",
            t.render()
        )
    }
}

/// All five characterization exhibits.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CharacterizationSet {
    /// Figure 1.
    pub fig1: Fig1,
    /// Figure 2.
    pub fig2: Fig2,
    /// Table I.
    pub table1: Table1,
    /// Figure 3.
    pub fig3: Fig3,
    /// Figure 4.
    pub fig4: Fig4,
}

fn bars_for(suite: Suite) -> Vec<Bars> {
    if suite.has_parallel_sections() {
        vec![Bars::Total, Bars::Serial, Bars::Parallel]
    } else {
        vec![Bars::Total]
    }
}

/// Aggregates the workloads' characterizations per suite.
pub fn set(records: &[&Record]) -> CharacterizationSet {
    let mut fig1 = Vec::new();
    let mut fig2 = Vec::new();
    let mut table1 = Vec::new();
    let mut fig3 = Vec::new();
    let mut fig4 = Vec::new();

    for suite in Suite::ALL {
        let in_suite: Vec<&Characterization> = records
            .iter()
            .filter(|r| r.workload.suite() == suite)
            .map(|r| r.characterization())
            .collect();

        for bars in bars_for(suite) {
            // Figure 1.
            let mix_of = |c: &Characterization| match bars {
                Bars::Total => c.mix.total(),
                Bars::Serial => *c.mix.section(Section::Serial),
                Bars::Parallel => *c.mix.section(Section::Parallel),
            };
            // Suites can mix parallel and purely-serial workloads (the
            // kernel roster does); a section bar averages only the
            // workloads that execute that section.
            let present: Vec<&Characterization> = in_suite
                .iter()
                .copied()
                .filter(|c| mix_of(c).insts > 0)
                .collect();
            let in_suite = &present;
            let avg_kind = |kind: BranchKind| {
                mean(
                    in_suite
                        .iter()
                        .map(|c| mix_of(c).fraction_of_insts(kind) * 100.0),
                )
            };
            fig1.push(Fig1Row {
                suite,
                bars,
                direct: avg_kind(BranchKind::CondDirect) + avg_kind(BranchKind::UncondDirect),
                call: avg_kind(BranchKind::Call),
                indirect_call: avg_kind(BranchKind::IndirectCall),
                indirect_branch: avg_kind(BranchKind::IndirectBranch),
                ret: avg_kind(BranchKind::Return),
                syscall: avg_kind(BranchKind::Syscall),
                total_branches: mean(in_suite.iter().map(|c| mix_of(c).branch_fraction() * 100.0)),
            });

            // Figure 2.
            let bias_of = |c: &Characterization| match bars {
                Bars::Total => c.bias.total,
                Bars::Serial => c.bias.sections.serial,
                Bars::Parallel => c.bias.sections.parallel,
            };
            let mut buckets = [0.0; NUM_BIAS_BUCKETS];
            for (i, b) in buckets.iter_mut().enumerate() {
                *b = mean(in_suite.iter().map(|c| bias_of(c).buckets[i]));
            }
            fig2.push(Fig2Row {
                suite,
                bars,
                buckets,
                strongly_biased: buckets[0] + buckets[NUM_BIAS_BUCKETS - 1],
            });

            // Figure 3.
            let fp_of = |c: &Characterization| match bars {
                Bars::Total => c.footprint.total,
                Bars::Serial => c.footprint.sections.serial,
                Bars::Parallel => c.footprint.sections.parallel,
            };
            fig3.push(Fig3Row {
                suite,
                bars,
                dyn99_kb: mean(in_suite.iter().map(|c| fp_of(c).dyn99_kb())),
                static_kb: mean(in_suite.iter().map(|c| c.footprint.static_kb())),
            });

            // Figure 4.
            let bb_of = |c: &Characterization| match bars {
                Bars::Total => c.basic_blocks.total(),
                Bars::Serial => *c.basic_blocks.section(Section::Serial),
                Bars::Parallel => *c.basic_blocks.section(Section::Parallel),
            };
            fig4.push(Fig4Row {
                suite,
                bars,
                bbl_bytes: mean(in_suite.iter().map(|c| bb_of(c).avg_block_bytes())),
                taken_distance: mean(in_suite.iter().map(|c| bb_of(c).avg_taken_distance())),
            });
        }

        // Table I. As above, section averages cover only the workloads
        // executing that section.
        table1.push(Table1Row {
            suite,
            serial_backward: mean(
                in_suite
                    .iter()
                    .filter(|c| c.mix.section(Section::Serial).insts > 0)
                    .map(|c| c.direction.section(Section::Serial).backward_fraction()),
            ),
            parallel_backward: if suite.has_parallel_sections() {
                mean(
                    in_suite
                        .iter()
                        .filter(|c| c.mix.section(Section::Parallel).insts > 0)
                        .map(|c| c.direction.section(Section::Parallel).backward_fraction()),
                )
            } else {
                0.0
            },
        });
    }

    CharacterizationSet {
        fig1: Fig1 { rows: fig1 },
        fig2: Fig2 { rows: fig2 },
        table1: Table1 { rows: table1 },
        fig3: Fig3 { rows: fig3 },
        fig4: Fig4 { rows: fig4 },
    }
}

/// One kernel-archetype row: measured characterization next to the
/// [`KernelSpec`] design targets it was generated from.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelsRow {
    /// Workload name.
    pub workload: String,
    /// Archetype label.
    pub archetype: String,
    /// Measured overall branch fraction.
    pub branch_fraction: f64,
    /// The spec's section-weighted branch-fraction target.
    pub target_branch_fraction: f64,
    /// Measured share of dynamic conditionals from strongly biased
    /// sites.
    pub strongly_biased: f64,
    /// Measured kernel-section 99% dynamic footprint, KB.
    pub dyn99_kb: f64,
    /// The spec's kernel hot-footprint target, KB.
    pub target_hot_kb: f64,
    /// Measured average basic-block length, bytes.
    pub bbl_bytes: f64,
    /// Schedule epochs (phase-shape knob).
    pub epochs: u32,
    /// Footprint drift windows (phase-shape knob).
    pub drift_windows: u32,
}

/// The kernels sweep: per-archetype characterization vs design targets.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KernelsSet {
    /// One row per kernel workload.
    pub rows: Vec<KernelsRow>,
}

impl KernelsSet {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "workload",
            "archetype",
            "bf%",
            "target bf%",
            "biased",
            "dyn99 KB",
            "target KB",
            "avg BBL",
            "epochs",
            "drift",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.workload.clone(),
                r.archetype.clone(),
                f1(r.branch_fraction * 100.0),
                f1(r.target_branch_fraction * 100.0),
                pct(r.strongly_biased),
                f1(r.dyn99_kb),
                f1(r.target_hot_kb),
                f1(r.bbl_bytes),
                r.epochs.to_string(),
                r.drift_windows.to_string(),
            ]);
        }
        format!(
            "Kernels: archetype characterization vs design targets\n{}",
            t.render()
        )
    }
}

/// Reports each kernel archetype's measured characterization against
/// its [`KernelSpec`]'s design targets.
pub fn kernels(records: &[&Record]) -> KernelsSet {
    let rows = records
        .iter()
        .map(|r| {
            let (w, c) = (&r.workload, r.characterization());
            let spec = KernelSpec::find(w.name()).expect("kernel roster name has a spec");
            let serial_only = w.profile().serial_fraction >= 1.0;
            let kernel_fp = if serial_only {
                c.footprint.sections.serial
            } else {
                c.footprint.sections.parallel
            };
            let mix = c.mix.total();
            KernelsRow {
                workload: w.name().to_owned(),
                archetype: format!("{:?}", spec.archetype),
                branch_fraction: mix.branch_fraction(),
                target_branch_fraction: spec.target_branch_fraction(),
                strongly_biased: c.bias.total.strongly_biased_fraction(),
                dyn99_kb: kernel_fp.dyn99_kb(),
                target_hot_kb: spec.hot_kb,
                bbl_bytes: c.basic_blocks.total().avg_block_bytes(),
                epochs: spec.phases.epochs,
                drift_windows: spec.phases.drift_windows,
            }
        })
        .collect();
    KernelsSet { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{measured, Need};
    use rebalance_workloads::Scale;

    fn smoke_set() -> CharacterizationSet {
        let records = measured(
            rebalance_workloads::all(),
            Scale::Smoke,
            &[Need::Characterization],
        );
        set(&records.iter().collect::<Vec<_>>())
    }

    #[test]
    fn characteristic_1_branch_ratio_shape() {
        let set = smoke_set();
        let total = |suite: Suite| {
            set.fig1
                .rows
                .iter()
                .find(|r| r.suite == suite && r.bars == Bars::Total)
                .unwrap()
                .total_branches
        };
        // HPC has ~3x fewer branches than desktop.
        assert!(total(Suite::SpecCpuInt) > 2.0 * total(Suite::SpecOmp));
        assert!(total(Suite::SpecCpuInt) > 2.0 * total(Suite::Npb));
        assert!(total(Suite::ExMatEx) > total(Suite::Npb));
        // Serial sections are branchier than parallel inside HPC apps.
        let ser = set
            .fig1
            .rows
            .iter()
            .find(|r| r.suite == Suite::Npb && r.bars == Bars::Serial)
            .unwrap()
            .total_branches;
        let par = set
            .fig1
            .rows
            .iter()
            .find(|r| r.suite == Suite::Npb && r.bars == Bars::Parallel)
            .unwrap()
            .total_branches;
        assert!(ser > 1.5 * par, "serial {ser} vs parallel {par}");
    }

    #[test]
    fn characteristic_2_bias_shape() {
        let set = smoke_set();
        let biased = |suite: Suite| {
            set.fig2
                .rows
                .iter()
                .find(|r| r.suite == suite && r.bars == Bars::Total)
                .unwrap()
                .strongly_biased
        };
        assert!(biased(Suite::Npb) > 0.7, "NPB {:.2}", biased(Suite::Npb));
        assert!(
            biased(Suite::Npb) > biased(Suite::SpecCpuInt) + 0.15,
            "NPB {:.2} vs INT {:.2}",
            biased(Suite::Npb),
            biased(Suite::SpecCpuInt)
        );
        // Histograms sum to 1.
        for r in &set.fig2.rows {
            let sum: f64 = r.buckets.iter().sum();
            if sum > 0.0 {
                assert!((sum - 1.0).abs() < 1e-6, "{:?} {:?}", r.suite, r.bars);
            }
        }
    }

    #[test]
    fn table1_backward_shape() {
        let set = smoke_set();
        let row = |s: Suite| set.table1.rows.iter().find(|r| r.suite == s).unwrap();
        // HPC parallel code is strongly backward-taken.
        assert!(row(Suite::Npb).parallel_backward > 0.68);
        assert!(row(Suite::SpecOmp).parallel_backward > 0.62);
        // Desktop splits much more evenly.
        let int = row(Suite::SpecCpuInt).serial_backward;
        assert!((0.38..=0.70).contains(&int), "SPEC INT backward {int:.2}");
        assert!(row(Suite::Npb).parallel_backward > int + 0.10);
    }

    #[test]
    fn characteristic_3_footprints_shape() {
        let set = smoke_set();
        let total = |s: Suite| {
            set.fig3
                .rows
                .iter()
                .find(|r| r.suite == s && r.bars == Bars::Total)
                .unwrap()
        };
        // Desktop 99% footprints dwarf HPC ones.
        assert!(total(Suite::SpecCpuInt).dyn99_kb > 2.0 * total(Suite::Npb).dyn99_kb);
        // Static footprints: ExMatEx biggest among HPC (libraries).
        assert!(total(Suite::ExMatEx).static_kb > total(Suite::Npb).static_kb);
        assert!(total(Suite::ExMatEx).static_kb > total(Suite::SpecOmp).static_kb);
    }

    #[test]
    fn characteristic_4_bbl_shape() {
        let set = smoke_set();
        let par = |s: Suite| {
            set.fig4
                .rows
                .iter()
                .find(|r| {
                    r.suite == s
                        && r.bars
                            == if s.is_hpc() {
                                Bars::Parallel
                            } else {
                                Bars::Total
                            }
                })
                .unwrap()
        };
        // HPC basic blocks are several times longer than desktop ones.
        let hpc_bbl = (par(Suite::ExMatEx).bbl_bytes
            + par(Suite::SpecOmp).bbl_bytes
            + par(Suite::Npb).bbl_bytes)
            / 3.0;
        assert!(
            hpc_bbl > 2.5 * par(Suite::SpecCpuInt).bbl_bytes,
            "HPC {hpc_bbl:.0}B vs INT {:.0}B",
            par(Suite::SpecCpuInt).bbl_bytes
        );
        // Taken distance exceeds block length everywhere.
        for r in &set.fig4.rows {
            if r.bbl_bytes > 0.0 {
                assert!(r.taken_distance >= r.bbl_bytes * 0.9);
            }
        }
    }

    #[test]
    fn kernels_sweep_reports_measured_vs_targets() {
        let records = measured(
            rebalance_workloads::kernels(),
            Scale::Smoke,
            &[Need::Characterization],
        );
        let set = kernels(&records.iter().collect::<Vec<_>>());
        assert!(set.rows.len() >= 6, "six archetypes minimum");
        for r in &set.rows {
            assert!(r.branch_fraction > 0.0, "{}", r.workload);
            let rel =
                (r.branch_fraction - r.target_branch_fraction).abs() / r.target_branch_fraction;
            assert!(
                rel < 0.5,
                "{}: measured bf {:.4} far from target {:.4}",
                r.workload,
                r.branch_fraction,
                r.target_branch_fraction
            );
            assert!(r.dyn99_kb > 0.0, "{}", r.workload);
        }
        // The archetype spectrum survives measurement: streaming is far
        // less branchy than the desktop-style kernel.
        let bf = |name: &str| {
            set.rows
                .iter()
                .find(|r| r.workload == name)
                .unwrap()
                .branch_fraction
        };
        assert!(bf("k.branchy") > 5.0 * bf("k.triad"));
        let text = set.render();
        assert!(text.contains("k.stencil") && text.contains("target"));
    }

    #[test]
    fn renders_are_nonempty() {
        let set = smoke_set();
        for s in [
            set.fig1.render(),
            set.fig2.render(),
            set.table1.render(),
            set.fig3.render(),
            set.fig4.render(),
        ] {
            assert!(s.lines().count() > 5);
            assert!(s.contains("ExMatEx"));
        }
    }
}
