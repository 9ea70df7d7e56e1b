//! Ablation studies for the design choices DESIGN.md calls out, plus
//! the thread-scaling argument of Section III-D.

use rebalance_coresim::CmpSim;
use rebalance_frontend::predictor::{
    DirectionPredictor, PredictorSim, Tage, TageConfig, Tournament, WithLoop,
};
use rebalance_frontend::{BtbConfig, BtbSim, CacheConfig, ICacheSim};
use rebalance_mcpat::CmpFloorplan;
use rebalance_trace::Pintool;
use rebalance_workloads::{Scale, Workload};
use serde::{Deserialize, Serialize};

use crate::util::{f2, Run, RunError, TextTable};

/// One labelled measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AblationPoint {
    /// Configuration label.
    pub label: String,
    /// Primary metric (MPKI or normalized time, per study).
    pub value: f64,
    /// Secondary metric (usefulness, budget bytes...), when meaningful.
    pub aux: f64,
}

/// A completed ablation study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Ablation {
    /// Study name.
    pub name: String,
    /// What `value`/`aux` mean.
    pub metrics: (String, String),
    /// Measured points.
    pub points: Vec<AblationPoint>,
}

impl Ablation {
    /// Text rendering.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "configuration",
            self.metrics.0.as_str(),
            self.metrics.1.as_str(),
        ]);
        for p in &self.points {
            t.row(vec![p.label.clone(), f2(p.value), f2(p.aux)]);
        }
        format!("Ablation: {}\n{}", self.name, t.render())
    }
}

fn workload(name: &str) -> Workload {
    rebalance_workloads::find(name).expect("ablation roster name")
}

/// One single-workload study: every labelled variant observes one
/// replay of `workload`, and `point` reads its `(value, aux)` pair.
fn study<T: Pintool>(
    (run, scale): (&Run, Scale),
    (name, workload_name): (&str, &str),
    metrics: (&str, &str),
    variants: Vec<(String, T)>,
    point: impl Fn(&T) -> (f64, f64),
) -> Result<Ablation, RunError> {
    let (labels, tools): (Vec<String>, Vec<T>) = variants.into_iter().unzip();
    let (tools, _) = run.replay(&workload(workload_name), scale, tools)?;
    let points = labels
        .into_iter()
        .zip(&tools)
        .map(|(label, tool)| {
            let (value, aux) = point(tool);
            AblationPoint { label, value, aux }
        })
        .collect();
    Ok(Ablation {
        name: name.into(),
        metrics: (metrics.0.into(), metrics.1.into()),
        points,
    })
}

/// Ablation 1: loop-BP entry count (16..256) on a loop-heavy workload,
/// all variants fanned out over a single replay.
/// The paper's 64-entry/512 B choice should sit at the knee.
pub fn lbp_entries(run: &Run, scale: Scale) -> Result<Ablation, RunError> {
    let variants = [0usize, 16, 64, 256].map(|entries| {
        let (label, predictor): (String, Box<dyn DirectionPredictor>) = if entries == 0 {
            ("no LBP".into(), Box::new(Tournament::new(10, 8)))
        } else {
            let lbp = WithLoop::with_entries(Tournament::new(10, 8), entries);
            (format!("{entries}-entry LBP"), Box::new(lbp))
        };
        (label, PredictorSim::new(predictor))
    });
    study(
        (run, scale),
        (
            "loop-BP entries (imagick, small tournament base)",
            "imagick",
        ),
        ("branch MPKI", "budget bytes"),
        variants.into(),
        predictor_point,
    )
}

/// A predictor's MPKI and budget in bytes.
fn predictor_point<P: DirectionPredictor>(sim: &PredictorSim<P>) -> (f64, f64) {
    let report = sim.report();
    (report.total().mpki(), (report.budget_bits / 8) as f64)
}

/// Ablation 2: TAGE tagged-table count at fixed per-table size.
/// The paper's small TAGE keeps only two tables (histories 4 and 16).
pub fn tage_tables(run: &Run, scale: Scale) -> Result<Ablation, RunError> {
    let histories: [&[u32]; 4] = [
        &[4, 16],
        &[4, 11, 30, 81],
        &[4, 7, 11, 18, 30, 49, 81, 134],
        &[4, 7, 11, 18, 30, 49, 81, 134, 221, 365, 512, 640],
    ];
    let variants = histories.map(|hist| {
        let tage = Tage::new(TageConfig {
            bimodal_bits: 12,
            table_bits: 7,
            histories: hist.to_vec(),
            tag_bits: 9,
        });
        (
            format!("{} tagged tables", hist.len()),
            PredictorSim::new(tage),
        )
    });
    study(
        (run, scale),
        ("TAGE tagged-table count (CoEVP)", "CoEVP"),
        ("branch MPKI", "budget bytes"),
        variants.into(),
        predictor_point,
    )
}

/// Ablation 3: wide lines vs narrow lines + an explicit next-line
/// prefetcher (the paper argues a wide line *is* a prefetch buffer).
pub fn line_vs_prefetch(run: &Run, scale: Scale) -> Result<Ablation, RunError> {
    let narrow = CacheConfig::new(16 * 1024, 64, 8);
    let variants = vec![
        ("16KB/64B".into(), ICacheSim::new(narrow)),
        (
            "16KB/64B + next-line PF".into(),
            ICacheSim::new(narrow).with_next_line_prefetch(),
        ),
        (
            "16KB/128B".into(),
            ICacheSim::new(CacheConfig::new(16 * 1024, 128, 8)),
        ),
    ];
    study(
        (run, scale),
        ("wide lines vs next-line prefetch (LULESH)", "LULESH"),
        ("I-cache MPKI", "usefulness"),
        variants,
        |sim| {
            let r = sim.report();
            (r.total().mpki(), r.usefulness)
        },
    )
}

/// Ablation 4: BTB associativity at 256 entries — the paper notes high
/// associativity is needed with simple modulo indexing (ExMatEx).
pub fn btb_associativity(run: &Run, scale: Scale) -> Result<Ablation, RunError> {
    let variants = [1usize, 2, 4, 8].map(|assoc| {
        let sim = BtbSim::new(BtbConfig::new(256, assoc));
        (format!("256-entry {assoc}-way"), sim)
    });
    study(
        (run, scale),
        ("BTB associativity at 256 entries (CoEVP)", "CoEVP"),
        ("BTB MPKI", "miss rate"),
        variants.into(),
        |sim| {
            let r = sim.report().total();
            (r.mpki(), r.miss_rate())
        },
    )
}

/// Section III-D scaling study: as core counts grow, serial sections
/// dominate and the asymmetric design's advantage over an all-tailored
/// chip grows with them.
pub fn thread_scaling(run: &Run, scale: Scale) -> Result<Ablation, RunError> {
    let workload = workload("CoEVP");
    let core_counts = [8usize, 16, 32, 64];
    // All eight floorplans reuse one trace replay: the core designs are
    // the same two at every core count, only the scheduling arithmetic
    // changes.
    let sims: Vec<CmpSim> = core_counts
        .iter()
        .flat_map(|&cores| {
            [
                CmpSim::new(CmpFloorplan::tailored(cores)),
                CmpSim::new(CmpFloorplan::asymmetric(1, cores - 1)),
            ]
        })
        .collect();
    let results = run.floorplans(&sims, &workload, scale)?;
    let points = core_counts
        .iter()
        .zip(results.chunks_exact(2))
        .map(|(&cores, pair)| {
            let (tailored, asym) = (&pair[0], &pair[1]);
            AblationPoint {
                label: format!("{cores} cores"),
                value: tailored.time_s / asym.time_s,
                aux: asym.serial_time_s / asym.time_s,
            }
        })
        .collect();
    Ok(Ablation {
        name: "asymmetric advantage vs core count (CoEVP, 35% serial)".into(),
        metrics: (
            "tailored/asymmetric time".into(),
            "serial share of time".into(),
        ),
        points,
    })
}

/// Runs every ablation.
///
/// # Errors
///
/// The first ablation's [`RunError`].
pub fn run_all(run: &Run, scale: Scale) -> Result<Vec<Ablation>, RunError> {
    Ok(vec![
        lbp_entries(run, scale)?,
        tage_tables(run, scale)?,
        line_vs_prefetch(run, scale)?,
        btb_associativity(run, scale)?,
        thread_scaling(run, scale)?,
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCALE: Scale = Scale::Custom(0.12);

    #[test]
    fn lbp_entries_improve_then_saturate() {
        let a = lbp_entries(&Run::default(), SCALE).unwrap();
        assert_eq!(a.points.len(), 4);
        let no_lbp = a.points[0].value;
        let with64 = a.points[2].value;
        let with256 = a.points[3].value;
        assert!(with64 <= no_lbp + 0.05, "{with64} vs {no_lbp}");
        // Diminishing returns beyond 64 entries.
        assert!(
            (with256 - with64).abs() < 0.5,
            "64-entry is at the knee: {with64} vs {with256}"
        );
        assert!(a.render().contains("loop-BP"));
    }

    #[test]
    fn more_tage_tables_never_hurt_much() {
        let a = tage_tables(&Run::default(), SCALE).unwrap();
        let two = a.points[0].value;
        let twelve = a.points[3].value;
        assert!(twelve <= two * 1.1 + 0.2, "12 tables {twelve} vs 2 {two}");
        // Budgets grow with table count.
        assert!(a.points[3].aux > a.points[0].aux);
    }

    #[test]
    fn wide_lines_match_prefetching_on_hpc() {
        let a = line_vs_prefetch(&Run::default(), SCALE).unwrap();
        let plain = a.points[0].value;
        let prefetch = a.points[1].value;
        let wide = a.points[2].value;
        // Both mechanisms beat the plain narrow-line cache on HPC code.
        assert!(prefetch <= plain + 0.02, "{prefetch} vs {plain}");
        assert!(wide <= plain + 0.02, "{wide} vs {plain}");
    }

    #[test]
    fn btb_associativity_monotone_for_exmatex() {
        let a = btb_associativity(&Run::default(), SCALE).unwrap();
        let direct = a.points[0].value;
        let eight = a.points[3].value;
        assert!(
            eight < direct,
            "8-way {eight} must beat direct-mapped {direct}"
        );
    }

    #[test]
    fn asymmetric_advantage_grows_with_cores() {
        let a = thread_scaling(&Run::default(), Scale::Custom(0.12)).unwrap();
        assert_eq!(a.points.len(), 4);
        let at8 = &a.points[0];
        let at64 = &a.points[3];
        // Serial share of time grows with core count (Amdahl).
        assert!(
            at64.aux > at8.aux,
            "serial share must grow: {} -> {}",
            at8.aux,
            at64.aux
        );
        // And the asymmetric design's advantage does not shrink.
        assert!(
            at64.value >= at8.value * 0.98,
            "advantage at 64 cores {} vs 8 cores {}",
            at64.value,
            at8.value
        );
    }
}
