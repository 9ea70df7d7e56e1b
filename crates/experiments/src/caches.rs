//! Figures 7–9: BTB and I-cache sensitivity studies.

use rebalance_frontend::{BtbConfig, CacheConfig};
use rebalance_workloads::Suite;
use serde::{Deserialize, Serialize};

use crate::pass::{suite_means, Record};
use crate::util::{f2, TextTable};

/// One Figure 7 row: per-suite BTB MPKI for one geometry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Row {
    /// BTB entries.
    pub entries: usize,
    /// Associativity.
    pub assoc: usize,
    /// Mean MPKI per suite in [`Suite::ALL`] order.
    pub mpki: [f64; Suite::COUNT],
}

/// Figure 7: BTB MPKI vs entries and associativity.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7 {
    /// Rows for {256,512,1K} × {2,4,8}.
    pub rows: Vec<Fig7Row>,
}

impl Fig7 {
    /// Looks up one cell.
    pub fn mpki(&self, entries: usize, assoc: usize, suite: Suite) -> Option<f64> {
        let idx = Suite::ALL.iter().position(|s| *s == suite)?;
        self.rows
            .iter()
            .find(|r| r.entries == entries && r.assoc == assoc)
            .map(|r| r.mpki[idx])
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut header = vec!["BTB".to_owned()];
        header.extend(Suite::ALL.iter().map(|s| s.to_string()));
        let mut t = TextTable::new(header);
        for r in &self.rows {
            let mut cells = vec![format!("{}-entry {}-way", r.entries, r.assoc)];
            cells.extend(r.mpki.iter().map(|m| f2(*m)));
            t.row(cells);
        }
        format!(
            "Figure 7: BTB MPKI vs size and associativity\n{}",
            t.render()
        )
    }
}

/// The Figure 7 geometries.
pub fn fig7_configs() -> Vec<BtbConfig> {
    let mut v = Vec::new();
    for entries in [256, 512, 1024] {
        for assoc in [2, 4, 8] {
            v.push(BtbConfig::new(entries, assoc));
        }
    }
    v
}

/// Figure 7: each geometry's mean BTB MPKI per suite.
pub fn fig7(records: &[&Record]) -> Fig7 {
    let rows = fig7_configs()
        .iter()
        .enumerate()
        .map(|(ci, c)| Fig7Row {
            entries: c.entries,
            assoc: c.assoc,
            mpki: suite_means(records, |r| r.btbs[ci].total().mpki()),
        })
        .collect();
    Fig7 { rows }
}

/// One Figure 8 row: per-suite I-cache MPKI for one geometry (64 B line).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8Row {
    /// Cache size in KB.
    pub size_kb: usize,
    /// Associativity.
    pub assoc: usize,
    /// Mean MPKI per suite in [`Suite::ALL`] order.
    pub mpki: [f64; Suite::COUNT],
}

/// Figure 8: I-cache MPKI vs size and associativity at 64 B lines.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig8 {
    /// Rows for {8,16,32 KB} × {2,4,8}.
    pub rows: Vec<Fig8Row>,
}

impl Fig8 {
    /// Looks up one cell.
    pub fn mpki(&self, size_kb: usize, assoc: usize, suite: Suite) -> Option<f64> {
        let idx = Suite::ALL.iter().position(|s| *s == suite)?;
        self.rows
            .iter()
            .find(|r| r.size_kb == size_kb && r.assoc == assoc)
            .map(|r| r.mpki[idx])
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut header = vec!["I-cache".to_owned()];
        header.extend(Suite::ALL.iter().map(|s| s.to_string()));
        let mut t = TextTable::new(header);
        for r in &self.rows {
            let mut cells = vec![format!("{}KB {}-way", r.size_kb, r.assoc)];
            cells.extend(r.mpki.iter().map(|m| f2(*m)));
            t.row(cells);
        }
        format!(
            "Figure 8: I-cache MPKI vs size and associativity (64B lines)\n{}",
            t.render()
        )
    }
}

/// The Figure 8 geometries: {8, 16, 32 KB} × {2, 4, 8}-way, 64 B
/// lines.
pub fn fig8_configs() -> Vec<CacheConfig> {
    let mut configs = Vec::new();
    for size_kb in [8, 16, 32] {
        for assoc in [2, 4, 8] {
            configs.push(CacheConfig::new(size_kb * 1024, 64, assoc));
        }
    }
    configs
}

/// Figure 8: each geometry's mean I-cache MPKI per suite.
pub fn fig8(records: &[&Record]) -> Fig8 {
    let rows = fig8_configs()
        .into_iter()
        .map(|c| Fig8Row {
            size_kb: c.size_bytes / 1024,
            assoc: c.assoc,
            mpki: suite_means(records, |r| r.icache(c).total().mpki()),
        })
        .collect();
    Fig8 { rows }
}

/// The benchmarks Figure 9 highlights.
pub const FIG9_WORKLOADS: [&str; 5] = ["CoEVP", "CoGL", "fma3d", "xalancbmk", "omnetpp"];

/// One Figure 9 row: MPKI and usefulness for one line width on one
/// benchmark (16 KB cache).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9Row {
    /// Benchmark name.
    pub workload: String,
    /// Line width in bytes.
    pub line_bytes: usize,
    /// Associativity.
    pub assoc: usize,
    /// I-cache MPKI.
    pub mpki: f64,
    /// Mean line usefulness.
    pub usefulness: f64,
}

/// Figure 9: line-width sensitivity at 16 KB.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig9 {
    /// Rows per workload × line × assoc.
    pub rows: Vec<Fig9Row>,
}

impl Fig9 {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["workload", "line", "assoc", "MPKI", "usefulness"]);
        for r in &self.rows {
            t.row(vec![
                r.workload.clone(),
                format!("{}B", r.line_bytes),
                r.assoc.to_string(),
                f2(r.mpki),
                f2(r.usefulness),
            ]);
        }
        format!(
            "Figure 9: I-cache MPKI vs line width (16KB cache)\n{}",
            t.render()
        )
    }
}

/// The Figure 9 geometries: 16 KB, {32, 64, 128 B} lines ×
/// {2, 4, 8}-way.
pub fn fig9_configs() -> Vec<CacheConfig> {
    let mut configs = Vec::new();
    for line in [32, 64, 128] {
        for assoc in [2, 4, 8] {
            configs.push(CacheConfig::new(16 * 1024, line, assoc));
        }
    }
    configs
}

/// Figure 9: every geometry's MPKI and usefulness per highlighted
/// workload.
pub fn fig9(records: &[&Record]) -> Fig9 {
    let rows = records
        .iter()
        .flat_map(|r| {
            fig9_configs().into_iter().map(|c| {
                let rep = r.icache(c);
                Fig9Row {
                    workload: r.workload.name().to_owned(),
                    line_bytes: rep.config.line_bytes,
                    assoc: rep.config.assoc,
                    mpki: rep.total().mpki(),
                    usefulness: rep.usefulness,
                }
            })
        })
        .collect();
    Fig9 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{measured, Need};
    use rebalance_workloads::Scale;

    fn smoke(need: Need) -> Vec<Record> {
        measured(rebalance_workloads::all(), Scale::Smoke, &[need])
    }

    #[test]
    fn fig7_shapes() {
        let f = fig7(&smoke(Need::Btbs).iter().collect::<Vec<_>>());
        assert_eq!(f.rows.len(), 9);
        // HPC is insensitive to BTB size (paper Implication 2): 256 vs
        // 1K entries changes NPB MPKI very little.
        let npb_256 = f.mpki(256, 8, Suite::Npb).unwrap();
        let npb_1k = f.mpki(1024, 8, Suite::Npb).unwrap();
        assert!(
            npb_256 - npb_1k < 0.8,
            "NPB: 256-entry {npb_256} vs 1K {npb_1k}"
        );
        // Desktop is the BTB-hungriest suite.
        let int_256 = f.mpki(256, 8, Suite::SpecCpuInt).unwrap();
        assert!(int_256 > npb_256, "INT {int_256} vs NPB {npb_256}");
        assert!(f.render().contains("256-entry"));
    }

    #[test]
    fn fig8_shapes() {
        let f = fig8(&smoke(Need::Fig8Caches).iter().collect::<Vec<_>>());
        assert_eq!(f.rows.len(), 9);
        // Sizes matter for desktop: 8KB much worse than 32KB.
        // Smoke-scale traces keep a warmup component, flattening the
        // curve; full-scale runs show the paper's ~2.5x spread.
        let int8 = f.mpki(8, 4, Suite::SpecCpuInt).unwrap();
        let int32 = f.mpki(32, 4, Suite::SpecCpuInt).unwrap();
        assert!(int8 > 1.3 * int32, "INT 8KB {int8} vs 32KB {int32}");
        // SPEC OMP/NPB live happily in 8KB (MPKI ~ below 1).
        assert!(f.mpki(8, 4, Suite::Npb).unwrap() < 1.6);
        assert!(f.mpki(8, 4, Suite::SpecOmp).unwrap() < 1.8);
        // MPKI decreases (weakly) with size everywhere.
        for suite_idx in 0..4 {
            let at = |kb: usize| {
                f.rows
                    .iter()
                    .find(|r| r.size_kb == kb && r.assoc == 8)
                    .unwrap()
                    .mpki[suite_idx]
            };
            assert!(at(32) <= at(8) + 0.05, "suite {suite_idx}");
        }
    }

    #[test]
    fn fig9_usefulness_contrast() {
        let find = |n: &&str| rebalance_workloads::find(n).unwrap();
        let highlighted = FIG9_WORKLOADS.iter().map(find).collect();
        let records = measured(highlighted, Scale::Smoke, &[Need::Fig9Caches]);
        let f = fig9(&records.iter().collect::<Vec<_>>());
        assert_eq!(f.rows.len(), 5 * 9);
        // HPC keeps wide lines useful; desktop wastes them.
        let use_of = |w: &str| {
            f.rows
                .iter()
                .find(|r| r.workload == w && r.line_bytes == 128 && r.assoc == 8)
                .unwrap()
                .usefulness
        };
        assert!(
            use_of("CoGL") > use_of("xalancbmk") + 0.04,
            "CoGL {:.2} vs xalan {:.2}",
            use_of("CoGL"),
            use_of("xalancbmk")
        );
        assert!(f.render().contains("omnetpp"));
    }
}
