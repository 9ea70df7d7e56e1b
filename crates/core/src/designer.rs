//! CMP design search: given an area budget and a workload mix, find the
//! best baseline/tailored core combination — the paper's Asymmetric++
//! conclusion generalized into an optimizer.

use rebalance_coresim::{simulate_floorplans, CmpSim, FetchModelKind};
use rebalance_mcpat::CmpFloorplan;
use rebalance_workloads::{Scale, Workload};
use serde::{Deserialize, Serialize};

/// What the search optimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Minimize mean normalized execution time.
    Time,
    /// Minimize mean normalized energy.
    Energy,
    /// Minimize mean normalized energy-delay product.
    EnergyDelay,
}

/// One evaluated floorplan.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DesignPoint {
    /// The floorplan.
    pub floorplan: CmpFloorplan,
    /// Core area in mm² (the budgeted quantity).
    pub core_area_mm2: f64,
    /// Mean execution time across the workload mix, normalized to the
    /// reference chip.
    pub time: f64,
    /// Mean normalized energy.
    pub energy: f64,
    /// Mean normalized ED product.
    pub ed: f64,
}

impl DesignPoint {
    fn score(&self, objective: Objective) -> f64 {
        match objective {
            Objective::Time => self.time,
            Objective::Energy => self.energy,
            Objective::EnergyDelay => self.ed,
        }
    }
}

/// Result of a design search: every candidate, ranked.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CmpDesign {
    /// Candidates sorted best-first by the objective.
    pub ranked: Vec<DesignPoint>,
    /// The objective used.
    pub objective: Objective,
}

impl CmpDesign {
    /// The winning floorplan.
    pub fn best(&self) -> &DesignPoint {
        &self.ranked[0]
    }
}

/// Most baseline (master-class) cores a candidate has.
const MAX_BASELINE: usize = 2;

/// Most cores a candidate has.
const MAX_CORES: usize = 16;

/// Searches baseline/tailored core mixes under a core-area budget.
///
/// The reference chip (for normalization and the default budget) is the
/// paper's eight-baseline-core CMP. Candidates enumerate 0–2 baseline
/// cores with as many tailored cores as the budget allows, up to 16
/// cores.
///
/// # Examples
///
/// ```
/// use rebalance::designer::{CmpDesigner, Objective};
/// use rebalance::Scale;
///
/// let mix = vec![rebalance::workloads::find("FT").unwrap()];
/// let design = CmpDesigner::paper_budget()
///     .design(&mix, Objective::Time, Scale::Smoke)
///     .expect("search succeeds");
/// // More-than-eight-core designs win on throughput workloads.
/// assert!(design.best().floorplan.num_cores() > 8);
/// ```
#[derive(Debug, Clone)]
pub struct CmpDesigner {
    budget_mm2: f64,
}

impl CmpDesigner {
    /// A designer with an explicit core-area budget in mm².
    ///
    /// # Panics
    ///
    /// Panics if the budget does not fit at least one core.
    pub fn new(budget_mm2: f64) -> Self {
        let one_core = CmpFloorplan::tailored(1).estimate().core_area_mm2();
        assert!(
            budget_mm2 >= one_core,
            "budget {budget_mm2} mm² below a single tailored core ({one_core:.2})"
        );
        CmpDesigner { budget_mm2 }
    }

    /// The paper's budget: eight baseline cores.
    pub fn paper_budget() -> Self {
        Self::new(CmpFloorplan::baseline(8).estimate().core_area_mm2())
    }

    /// The candidate floorplans fitting the budget.
    pub fn candidates(&self) -> Vec<CmpFloorplan> {
        let mut v = Vec::new();
        for nb in 0..=MAX_BASELINE {
            for nt in 0..=MAX_CORES {
                if nb + nt < 2 || nb + nt > MAX_CORES {
                    continue;
                }
                let fp = if nt == 0 {
                    CmpFloorplan::baseline(nb)
                } else if nb == 0 {
                    CmpFloorplan::tailored(nt)
                } else {
                    CmpFloorplan::asymmetric(nb, nt)
                };
                if fp.estimate().core_area_mm2() <= self.budget_mm2 + 1e-9 {
                    v.push(fp);
                }
            }
        }
        v
    }

    /// Evaluates every candidate on the workload mix and ranks by the
    /// objective. Metrics are normalized to the paper's 8-baseline-core
    /// reference chip. Each workload is replayed once: the reference and
    /// every candidate are priced from that one replay.
    ///
    /// # Errors
    ///
    /// Returns an error if `mix` is empty or a simulation fails.
    pub fn design(
        &self,
        mix: &[Workload],
        objective: Objective,
        scale: Scale,
    ) -> Result<CmpDesign, String> {
        if mix.is_empty() {
            return Err("workload mix is empty".into());
        }
        // Means over the mix, summed in mix order.
        let mut ranked: Vec<DesignPoint> = self
            .candidates()
            .into_iter()
            .map(|fp| DesignPoint {
                core_area_mm2: fp.estimate().core_area_mm2(),
                floorplan: fp,
                time: 0.0,
                energy: 0.0,
                ed: 0.0,
            })
            .collect();
        let sims: Vec<CmpSim> = std::iter::once(CmpFloorplan::baseline(8))
            .chain(ranked.iter().map(|p| p.floorplan.clone()))
            .map(CmpSim::new)
            .collect();
        let n = mix.len() as f64;
        for w in mix {
            let results = simulate_floorplans(&sims, w, scale, FetchModelKind::Penalty)?;
            let (base, priced) = results.split_first().expect("the reference is priced");
            for (p, r) in ranked.iter_mut().zip(priced) {
                p.time += r.time_s / base.time_s / n;
                p.energy += r.energy_j / base.energy_j / n;
                p.ed += r.ed / base.ed / n;
            }
        }
        ranked.sort_by(|a, b| {
            a.score(objective)
                .partial_cmp(&b.score(objective))
                .expect("scores are finite")
        });
        Ok(CmpDesign { ranked, objective })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_workloads::find;

    #[test]
    fn paper_budget_admits_asymmetric_pp_but_not_nine_baselines() {
        let d = CmpDesigner::paper_budget();
        let names: Vec<String> = d.candidates().iter().map(|f| f.name.clone()).collect();
        assert!(
            names.iter().any(|n| n.contains("1B+8T")),
            "Asymmetric++ must fit: {names:?}"
        );
        assert!(
            !names.iter().any(|n| n.contains("9B cores")),
            "nine baseline cores must not fit"
        );
    }

    #[test]
    fn throughput_mix_elects_an_extra_core_design() {
        let mix = vec![find("FT").unwrap(), find("MG").unwrap()];
        let design = CmpDesigner::paper_budget()
            .design(&mix, Objective::Time, Scale::Smoke)
            .unwrap();
        let best = design.best();
        assert!(
            best.floorplan.num_cores() > 8,
            "throughput workloads want more cores: {}",
            best.floorplan.name
        );
        assert!(best.time < 1.0, "beats the baseline chip: {}", best.time);
        assert!(best.core_area_mm2 <= CmpFloorplan::baseline(8).estimate().core_area_mm2());
    }

    #[test]
    fn serial_heavy_mix_keeps_a_baseline_master() {
        let mix = vec![find("CoEVP").unwrap()];
        let design = CmpDesigner::paper_budget()
            .design(&mix, Objective::Time, Scale::Quick)
            .unwrap();
        let best = design.best();
        let has_baseline = best
            .floorplan
            .cores
            .contains(&rebalance_frontend::CoreKind::Baseline);
        assert!(
            has_baseline,
            "35%-serial CoEVP needs a baseline master: {}",
            best.floorplan.name
        );
    }

    #[test]
    fn ranking_is_sorted_by_objective() {
        let mix = vec![find("CG").unwrap()];
        let design = CmpDesigner::paper_budget()
            .design(&mix, Objective::EnergyDelay, Scale::Smoke)
            .unwrap();
        for pair in design.ranked.windows(2) {
            assert!(pair[0].ed <= pair[1].ed + 1e-12);
        }
    }

    /// The one-of-each reference: the reference chip and each candidate
    /// priced from a replay of their own, summed candidate by candidate
    /// in mix order. Candidates stay in enumeration order.
    fn one_of_each(mix: &[Workload], scale: Scale) -> Vec<DesignPoint> {
        let alone = |fp: &CmpFloorplan, w: &Workload| {
            let sims = [CmpSim::new(fp.clone())];
            simulate_floorplans(&sims, w, scale, FetchModelKind::Penalty)
                .unwrap()
                .remove(0)
        };
        let reference = CmpFloorplan::baseline(8);
        let ref_results: Vec<_> = mix.iter().map(|w| alone(&reference, w)).collect();
        let mut points = Vec::new();
        for fp in CmpDesigner::paper_budget().candidates() {
            let (mut time, mut energy, mut ed) = (0.0, 0.0, 0.0);
            for (w, base) in mix.iter().zip(&ref_results) {
                let r = alone(&fp, w);
                time += r.time_s / base.time_s / mix.len() as f64;
                energy += r.energy_j / base.energy_j / mix.len() as f64;
                ed += r.ed / base.ed / mix.len() as f64;
            }
            points.push(DesignPoint {
                core_area_mm2: fp.estimate().core_area_mm2(),
                floorplan: fp,
                time,
                energy,
                ed,
            });
        }
        points
    }

    #[test]
    fn one_replay_per_workload_prices_like_one_replay_per_floorplan() {
        let mix = vec![find("FT").unwrap(), find("CoEVP").unwrap()];
        let reference = one_of_each(&mix, Scale::Smoke);
        for objective in [Objective::Time, Objective::Energy, Objective::EnergyDelay] {
            let design = CmpDesigner::paper_budget()
                .design(&mix, objective, Scale::Smoke)
                .unwrap();
            // Ranked by the same stable sort.
            let mut expected = reference.clone();
            expected.sort_by(|a, b| a.score(objective).partial_cmp(&b.score(objective)).unwrap());
            assert_eq!(design.ranked.len(), expected.len());
            for (got, want) in design.ranked.iter().zip(&expected) {
                let name = &want.floorplan.name;
                assert_eq!(
                    got.floorplan, want.floorplan,
                    "{objective:?}: rank of {name}"
                );
                let bits =
                    |p: &DesignPoint| [p.core_area_mm2, p.time, p.energy, p.ed].map(f64::to_bits);
                assert_eq!(bits(got), bits(want), "{objective:?}: {name}");
            }
        }
    }

    #[test]
    fn empty_mix_rejected() {
        assert!(CmpDesigner::paper_budget()
            .design(&[], Objective::Time, Scale::Smoke)
            .is_err());
    }

    #[test]
    #[should_panic(expected = "budget")]
    fn tiny_budget_rejected() {
        let _ = CmpDesigner::new(0.5);
    }
}
