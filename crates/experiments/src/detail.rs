//! Per-benchmark detail rows backing the paper's named observations
//! (BT's 312 B blocks, UA's 252 KB static footprint, CoEVP's 35% serial
//! share, the indirect-branch outliers, ...).

use rebalance_isa::BranchKind;
use rebalance_workloads::Suite;
use serde::{Deserialize, Serialize};

use crate::pass::Record;
use crate::util::{f1, pct, TextTable};

/// One benchmark's headline characterization numbers.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetailRow {
    /// Benchmark name.
    pub workload: String,
    /// Suite.
    pub suite: Suite,
    /// Branch fraction of instructions.
    pub branch_fraction: f64,
    /// Indirect (branch+call) share of branches.
    pub indirect_share: f64,
    /// Strongly biased share of dynamic conditionals.
    pub strongly_biased: f64,
    /// Backward share of taken conditionals.
    pub backward: f64,
    /// Static footprint, KB.
    pub static_kb: f64,
    /// 99% dynamic footprint, KB.
    pub dyn99_kb: f64,
    /// Average basic-block bytes.
    pub bbl_bytes: f64,
    /// Serial share of instructions.
    pub serial_share: f64,
}

/// The per-benchmark detail table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Detail {
    /// One row per roster benchmark, in roster order.
    pub rows: Vec<DetailRow>,
}

impl Detail {
    /// Looks a row up by name.
    pub fn row(&self, workload: &str) -> Option<&DetailRow> {
        self.rows.iter().find(|r| r.workload == workload)
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "workload",
            "suite",
            "branch%",
            "indirect%",
            "biased",
            "backward",
            "static KB",
            "dyn99 KB",
            "BBL B",
            "serial%",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.workload.clone(),
                r.suite.to_string(),
                f1(r.branch_fraction * 100.0),
                format!("{:.2}", r.indirect_share * 100.0),
                pct(r.strongly_biased),
                pct(r.backward),
                f1(r.static_kb),
                f1(r.dyn99_kb),
                f1(r.bbl_bytes),
                f1(r.serial_share * 100.0),
            ]);
        }
        format!(
            "Per-benchmark characterization detail (full roster)\n{}",
            t.render()
        )
    }
}

/// One row per measured benchmark, from its characterization.
pub fn table(records: &[&Record]) -> Detail {
    let rows = records
        .iter()
        .map(|r| {
            let (w, c) = (&r.workload, r.characterization());
            let mix = c.mix.total();
            let branches = mix.branches().max(1);
            let indirect =
                mix.count(BranchKind::IndirectBranch) + mix.count(BranchKind::IndirectCall);
            DetailRow {
                workload: w.name().to_owned(),
                suite: w.suite(),
                branch_fraction: mix.branch_fraction(),
                indirect_share: indirect as f64 / branches as f64,
                strongly_biased: c.bias.total.strongly_biased_fraction(),
                backward: c.direction.total().backward_fraction(),
                static_kb: c.footprint.static_kb(),
                dyn99_kb: c.footprint.total.dyn99_kb(),
                bbl_bytes: c.basic_blocks.total().avg_block_bytes(),
                serial_share: w.profile().serial_fraction,
            }
        })
        .collect();
    Detail { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{measured, Need};
    use rebalance_workloads::Scale;

    fn smoke_detail() -> Detail {
        let records = measured(
            rebalance_workloads::all(),
            Scale::Smoke,
            &[Need::Characterization],
        );
        table(&records.iter().collect::<Vec<_>>())
    }

    #[test]
    fn named_paper_observations_hold_per_benchmark() {
        let d = smoke_detail();
        assert_eq!(d.rows.len(), rebalance_workloads::all().len());

        // BT has the longest basic blocks of the *study* (~312 B); our
        // synthetic streaming kernel may exceed it, so the named
        // observations range over the paper roster only.
        let paper_rows: Vec<&DetailRow> = d.rows.iter().filter(|r| r.suite.is_paper()).collect();
        let bt = d.row("BT").unwrap();
        let max_bbl = paper_rows
            .iter()
            .map(|r| r.bbl_bytes)
            .fold(0.0f64, f64::max);
        assert!(bt.bbl_bytes > 200.0, "BT {:.0}B", bt.bbl_bytes);
        assert!((max_bbl - bt.bbl_bytes).abs() < 1e-9, "BT is the max");

        // VPFFT carries the largest static footprint (libraries).
        let vpfft = d.row("VPFFT").unwrap();
        assert!(paper_rows
            .iter()
            .all(|r| r.static_kb <= vpfft.static_kb + 1.0));

        // CoEVP is the serial-share outlier and an indirect outlier.
        let coevp = d.row("CoEVP").unwrap();
        assert!(coevp.serial_share >= 0.35 - 1e-9);
        assert!(coevp.indirect_share > 0.015, "{}", coevp.indirect_share);

        // Desktop rows are uniformly less biased than NPB rows.
        let min_npb = d
            .rows
            .iter()
            .filter(|r| r.suite == Suite::Npb)
            .map(|r| r.strongly_biased)
            .fold(1.0f64, f64::min);
        let max_int = d
            .rows
            .iter()
            .filter(|r| r.suite == Suite::SpecCpuInt)
            .map(|r| r.strongly_biased)
            .fold(0.0f64, f64::max);
        assert!(
            min_npb > max_int,
            "every NPB row ({min_npb:.2}) more biased than every INT row ({max_int:.2})"
        );
    }

    #[test]
    fn render_contains_all_names() {
        let d = smoke_detail();
        let text = d.render();
        for w in rebalance_workloads::all() {
            assert!(text.contains(w.name()), "{} missing", w.name());
        }
    }
}
