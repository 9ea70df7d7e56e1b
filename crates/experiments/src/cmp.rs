//! Table III and Figures 10–11: area/power and CMP-level evaluation.

use rebalance_coresim::{CmpResult, CmpSim};
use rebalance_frontend::CoreKind;
use rebalance_mcpat::{CmpFloorplan, CoreEstimate};
use rebalance_workloads::Suite;
use serde::{Deserialize, Serialize};

use crate::paper;
use crate::pass::Record;
use crate::util::{f2, mean, TextTable};

/// The four Figure 10 CMP simulators.
pub(crate) fn figure10_sims() -> Vec<CmpSim> {
    CmpFloorplan::figure10_set()
        .into_iter()
        .map(CmpSim::new)
        .collect()
}

/// One Table III row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3Row {
    /// Row key (e.g. `"baseline.icache"`).
    pub key: String,
    /// Human label.
    pub label: String,
    /// Modelled area in mm².
    pub area_mm2: f64,
    /// Modelled power in W.
    pub power_w: f64,
}

/// Table III: structure and core area/power on both designs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table3 {
    /// Rows in the paper's order.
    pub rows: Vec<Table3Row>,
}

/// Builds Table III from the McPAT-lite models.
pub fn table3() -> Table3 {
    let mut rows = Vec::new();
    for (kind, prefix) in [
        (CoreKind::Baseline, "baseline"),
        (CoreKind::Tailored, "tailored"),
    ] {
        let est = CoreEstimate::for_core(kind);
        let b = est.breakdown();
        rows.push(Table3Row {
            key: format!("{prefix}.core"),
            label: format!("{prefix}: total core"),
            area_mm2: est.area_mm2(),
            power_w: est.power_w(),
        });
        rows.push(Table3Row {
            key: format!("{prefix}.icache"),
            label: format!("{prefix}: I-cache"),
            area_mm2: b.icache.area_mm2,
            power_w: b.icache.power_w,
        });
        rows.push(Table3Row {
            key: format!("{prefix}.bp"),
            label: format!("{prefix}: branch predictor"),
            area_mm2: b.predictor.area_mm2,
            power_w: b.predictor.power_w,
        });
        rows.push(Table3Row {
            key: format!("{prefix}.btb"),
            label: format!("{prefix}: BTB"),
            area_mm2: b.btb.area_mm2,
            power_w: b.btb.power_w,
        });
    }
    Table3 { rows }
}

impl Table3 {
    /// Text rendering with the paper values alongside.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "structure",
            "area mm2",
            "power W",
            "paper area",
            "paper power",
        ]);
        for r in &self.rows {
            let (pa, pp) = paper::table3(&r.key)
                .map(|(a, p)| (format!("{a:.3}"), format!("{p:.3}")))
                .unwrap_or_default();
            t.row(vec![
                r.label.clone(),
                format!("{:.3}", r.area_mm2),
                format!("{:.3}", r.power_w),
                pa,
                pp,
            ]);
        }
        format!(
            "Table III: front-end area/power at 40nm (Cortex-A9-class core)\n{}",
            t.render()
        )
    }
}

/// Normalized metrics of one CMP configuration for one suite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10Row {
    /// Suite.
    pub suite: Suite,
    /// Floorplan name.
    pub floorplan: String,
    /// Execution time normalized to the Baseline CMP.
    pub time: f64,
    /// Power normalized to the Baseline CMP.
    pub power: f64,
    /// Energy normalized to the Baseline CMP.
    pub energy: f64,
    /// ED product normalized to the Baseline CMP.
    pub ed: f64,
}

/// Figure 10: normalized execution time / power / energy / ED.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig10 {
    /// Rows per suite × floorplan.
    pub rows: Vec<Fig10Row>,
}

impl Fig10 {
    /// Looks one row up.
    pub fn row(&self, suite: Suite, floorplan_contains: &str) -> Option<&Fig10Row> {
        self.rows
            .iter()
            .find(|r| r.suite == suite && r.floorplan.contains(floorplan_contains))
    }

    /// Text rendering with the paper's Figure 10a values alongside.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "suite",
            "CMP",
            "time",
            "power",
            "energy",
            "ED",
            "paper-time",
        ]);
        for r in &self.rows {
            let (pt, pa, pp) = paper::fig10_time(r.suite);
            let paper_time = if r.floorplan.contains("8T") && !r.floorplan.contains("1B") {
                f2(pt)
            } else if r.floorplan.contains("1B+7T") {
                f2(pa)
            } else if r.floorplan.contains("1B+8T") {
                f2(pp)
            } else {
                "1.00".into()
            };
            t.row(vec![
                r.suite.to_string(),
                r.floorplan.clone(),
                f2(r.time),
                f2(r.power),
                f2(r.energy),
                f2(r.ed),
                paper_time,
            ]);
        }
        format!(
            "Figure 10: normalized time/power/energy/ED per CMP configuration\n{}",
            t.render()
        )
    }
}

/// Per-workload Figure 10/11 raw results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CmpRun {
    /// Workload name.
    pub workload: String,
    /// Suite.
    pub suite: Suite,
    /// Results per floorplan (Figure 10 order).
    pub results: Vec<CmpResult>,
}

/// Every workload's results on the four Figure 10 floorplans.
pub fn cmp_runs(records: &[&Record]) -> Vec<CmpRun> {
    records
        .iter()
        .map(|r| CmpRun {
            workload: r.workload.name().to_owned(),
            suite: r.workload.suite(),
            results: r.floorplans.clone(),
        })
        .collect()
}

/// Aggregates raw CMP runs into Figure 10.
pub fn fig10_from_runs(runs: &[CmpRun]) -> Fig10 {
    let mut rows = Vec::new();
    let floorplans: Vec<String> = runs
        .first()
        .map(|r| r.results.iter().map(|x| x.floorplan.clone()).collect())
        .unwrap_or_default();
    for suite in Suite::ALL {
        for (fi, fp) in floorplans.iter().enumerate() {
            let norm = |f: &dyn Fn(&CmpResult) -> f64| {
                mean(
                    runs.iter()
                        .filter(|r| r.suite == suite)
                        .map(|r| f(&r.results[fi]) / f(&r.results[0]).max(1e-30)),
                )
            };
            rows.push(Fig10Row {
                suite,
                floorplan: fp.clone(),
                time: norm(&|r| r.time_s),
                power: norm(&|r| r.power_w),
                energy: norm(&|r| r.energy_j),
                ed: norm(&|r| r.ed),
            });
        }
    }
    Fig10 { rows }
}

/// The benchmarks Figure 11 highlights.
pub const FIG11_WORKLOADS: [&str; 6] = ["CoEVP", "CoMD", "fma3d", "FT", "h264ref", "gobmk"];

/// One Figure 11 row.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11Row {
    /// Benchmark.
    pub workload: String,
    /// Floorplan name.
    pub floorplan: String,
    /// Execution time normalized to the Baseline CMP.
    pub time: f64,
}

/// Figure 11: per-benchmark normalized execution time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig11 {
    /// Rows per workload × floorplan.
    pub rows: Vec<Fig11Row>,
}

impl Fig11 {
    /// Looks one row up.
    pub fn time(&self, workload: &str, floorplan_contains: &str) -> Option<f64> {
        self.rows
            .iter()
            .find(|r| r.workload == workload && r.floorplan.contains(floorplan_contains))
            .map(|r| r.time)
    }

    /// Text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["workload", "CMP", "normalized time"]);
        for r in &self.rows {
            t.row(vec![r.workload.clone(), r.floorplan.clone(), f2(r.time)]);
        }
        format!(
            "Figure 11: normalized execution time, highlighted benchmarks\n{}",
            t.render()
        )
    }
}

/// Figure 11: each highlighted workload's Figure 10 times, normalized
/// to its Baseline CMP.
pub fn fig11(records: &[&Record]) -> Fig11 {
    let rows = records
        .iter()
        .flat_map(|r| {
            let base = r.floorplans[0].time_s;
            r.floorplans.iter().map(move |f| Fig11Row {
                workload: r.workload.name().to_owned(),
                floorplan: f.floorplan.clone(),
                time: f.time_s / base,
            })
        })
        .collect();
    Fig11 { rows }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::{measured, Need};
    use rebalance_workloads::{Scale, Workload};

    fn floorplans(workloads: Vec<Workload>) -> Vec<Record> {
        measured(workloads, Scale::Smoke, &[Need::Floorplans])
    }

    #[test]
    fn table3_reproduces_paper_anchors() {
        let t = table3();
        assert_eq!(t.rows.len(), 8);
        for r in &t.rows {
            if let Some((pa, pp)) = paper::table3(&r.key) {
                assert!(
                    (r.area_mm2 - pa).abs() / pa < 0.15,
                    "{}: area {} vs paper {}",
                    r.key,
                    r.area_mm2,
                    pa
                );
                assert!(
                    (r.power_w - pp).abs() / pp < 0.25,
                    "{}: power {} vs paper {}",
                    r.key,
                    r.power_w,
                    pp
                );
            }
        }
        assert!(t.render().contains("Table III"));
    }

    #[test]
    fn fig10_smoke_shape() {
        let records = floorplans(rebalance_workloads::all());
        let f = fig10_from_runs(&cmp_runs(&records.iter().collect::<Vec<_>>()));
        assert_eq!(f.rows.len(), Suite::COUNT * 4);
        // Baseline rows are exactly 1.0 (self-normalized).
        for suite in Suite::ALL {
            let base = f.row(suite, "Baseline").unwrap();
            assert!((base.time - 1.0).abs() < 1e-9);
        }
        // Asymmetric++ is faster than baseline for parallel suites.
        for suite in Suite::HPC {
            let app = f.row(suite, "1B+8T").unwrap();
            assert!(app.time < 1.0, "{suite}: {}", app.time);
            // ...and costs a bit more power.
            assert!(app.power < 1.15, "{suite}: power {}", app.power);
        }
        // SPEC INT gains nothing from extra cores (serial on master).
        let int = f.row(Suite::SpecCpuInt, "1B+8T").unwrap();
        assert!((int.time - 1.0).abs() < 0.02);
        assert!(f.render().contains("Figure 10"));
    }

    #[test]
    fn fig11_smoke_shape() {
        let find = |n: &&str| rebalance_workloads::find(n).unwrap();
        let records = floorplans(FIG11_WORKLOADS.iter().map(find).collect());
        let f = fig11(&records.iter().collect::<Vec<_>>());
        assert_eq!(f.rows.len(), 6 * 4);
        // FT is a large Asymmetric++ winner.
        let ft = f.time("FT", "1B+8T").unwrap();
        assert!(ft < 0.95, "FT asym++ {ft}");
        // Every baseline entry is 1.0.
        for w in FIG11_WORKLOADS {
            assert!((f.time(w, "Baseline").unwrap() - 1.0).abs() < 1e-9);
        }
        assert!(f.render().contains("h264ref"));
    }
}
