//! CMP-level simulation: serial/parallel scheduling over heterogeneous
//! cores, time/power/energy/ED outputs (Figures 10 and 11).

use std::collections::HashMap;

use rebalance_frontend::CoreKind;
use rebalance_mcpat::{ed_product, energy_joules, CmpEstimate, CmpFloorplan, Technology};
use rebalance_trace::BySection;
use rebalance_workloads::{Scale, Workload};
use serde::{Deserialize, Serialize};

use crate::core_model::{CoreModel, CoreTiming};
use crate::fetch_model::FetchModelKind;

/// Simulates one workload on many floorplans from a **single** trace
/// synthesis and a **single** replay: the distinct core designs across
/// all floorplans ([`floorplan_models`]) are measured together in one
/// fan-out pass ([`CoreModel::measure_many`]), then each floorplan's
/// schedule/power arithmetic reuses the shared timings
/// ([`floorplan_results`]). Results are in `sims` order.
///
/// This is the live reference: evaluating the four Figure 10 CMPs per
/// workload costs one replay, not four. Every core is timed through
/// `fetch_model`. Runs that replay through a sweep engine and a trace
/// cache build the same two halves around their own replay.
///
/// # Errors
///
/// Propagates workload synthesis errors (invalid profile or scale).
pub fn simulate_floorplans(
    sims: &[CmpSim],
    workload: &Workload,
    scale: Scale,
    fetch_model: FetchModelKind,
) -> Result<Vec<CmpResult>, String> {
    let trace = workload.trace(scale)?;
    let models = floorplan_models(sims, fetch_model);
    let timings = CoreModel::measure_many(&models, &trace, &workload.profile().backend);
    Ok(floorplan_results(
        sims,
        workload.name(),
        trace.schedule().sections(),
        &timings,
    ))
}

/// One [`CoreModel`] per distinct core kind used across `sims`, in
/// first-appearance order, each timed through `fetch_model`: the core
/// designs one shared replay must measure for [`floorplan_results`].
pub fn floorplan_models(sims: &[CmpSim], fetch_model: FetchModelKind) -> Vec<CoreModel> {
    let mut kinds: Vec<CoreKind> = Vec::new();
    for sim in sims {
        for &kind in &sim.floorplan.cores {
            if !kinds.contains(&kind) {
                kinds.push(kind);
            }
        }
    }
    kinds
        .into_iter()
        .map(|kind| CoreModel::new(kind).with_fetch_model(fetch_model))
        .collect()
}

/// Every floorplan's result, in `sims` order, from the timings of the
/// core designs [`floorplan_models`] names and the master thread's
/// per-section instruction counts (from a live trace's schedule or a
/// snapshot's footer).
///
/// # Panics
///
/// Panics if `timings` lacks a core kind one of the floorplans uses.
pub fn floorplan_results(
    sims: &[CmpSim],
    workload_name: &str,
    sections: BySection<u64>,
    timings: &[CoreTiming],
) -> Vec<CmpResult> {
    let timings: HashMap<CoreKind, CoreTiming> = timings.iter().map(|t| (t.kind, *t)).collect();
    sims.iter()
        .map(|sim| sim.result(workload_name, sections, &timings))
        .collect()
}

/// Threads the paper runs per HPC application (one per baseline-CMP
/// core). The master thread's parallel-section instruction count is one
/// thread's share; the whole application executes 8× that.
pub const PARALLEL_THREADS: u64 = 8;

/// Result of simulating one workload on one CMP configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CmpResult {
    /// Floorplan name.
    pub floorplan: String,
    /// Workload name.
    pub workload: String,
    /// Execution time in seconds.
    pub time_s: f64,
    /// Time spent in serial sections.
    pub serial_time_s: f64,
    /// Time spent in parallel sections (barrier-to-barrier).
    pub parallel_time_s: f64,
    /// Average chip power (cores + private L2s) in watts.
    pub power_w: f64,
    /// Energy in joules.
    pub energy_j: f64,
    /// Energy-delay product (J·s).
    pub ed: f64,
}

/// One CMP floorplan to simulate workloads on. A workload is priced on
/// every floorplan of interest at once, from one replay
/// ([`simulate_floorplans`]).
///
/// # Examples
///
/// ```
/// use rebalance_coresim::{simulate_floorplans, CmpSim, FetchModelKind};
/// use rebalance_mcpat::CmpFloorplan;
/// use rebalance_workloads::{find, Scale};
///
/// let sims = [CmpFloorplan::baseline(8), CmpFloorplan::tailored(8)].map(CmpSim::new);
/// let lu = find("LU").unwrap();
/// let r = simulate_floorplans(&sims, &lu, Scale::Smoke, FetchModelKind::Penalty).unwrap();
/// assert!(r[1].time_s > 0.0);
/// assert!(r[1].power_w < r[0].power_w, "the tailored chip draws less");
/// ```
#[derive(Debug, Clone)]
pub struct CmpSim {
    floorplan: CmpFloorplan,
    estimate: CmpEstimate,
    tech: Technology,
}

impl CmpSim {
    /// Creates a simulator for a floorplan.
    pub fn new(floorplan: CmpFloorplan) -> Self {
        let estimate = floorplan.estimate();
        CmpSim {
            floorplan,
            estimate,
            tech: Technology::n40(),
        }
    }

    /// The floorplan under simulation.
    pub fn floorplan(&self) -> &CmpFloorplan {
        &self.floorplan
    }

    /// Index of the core that runs serial sections: the first baseline
    /// core if the chip has one (the paper pins the master thread
    /// there), else core 0.
    pub fn master_core(&self) -> usize {
        self.floorplan
            .cores
            .iter()
            .position(|&k| k == CoreKind::Baseline)
            .unwrap_or(0)
    }

    /// This floorplan's result from per-core-kind timings measured
    /// once for every floorplan of the replay, and the master thread's
    /// per-section instruction counts.
    fn result(
        &self,
        workload_name: &str,
        sections: BySection<u64>,
        timings: &HashMap<CoreKind, CoreTiming>,
    ) -> CmpResult {
        let cycle = self.tech.cycle_seconds();
        let n = self.floorplan.num_cores();
        let master = self.master_core();
        let master_kind = self.floorplan.cores[master];

        // --- Serial phase: master core alone. ---
        let serial_insts = sections.serial;
        let serial_cpi = timings[&master_kind].serial;
        let serial_time = serial_insts as f64 * serial_cpi.cpi * cycle;

        // --- Parallel phase: total work divided across all cores with a
        // barrier (the slowest core sets the phase time). ---
        let par_master_insts = sections.parallel;
        let par_total = par_master_insts * PARALLEL_THREADS;
        let chunk = par_total as f64 / n as f64;
        let mut core_par_times = vec![0.0; n];
        for (i, &kind) in self.floorplan.cores.iter().enumerate() {
            core_par_times[i] = chunk * timings[&kind].parallel.cpi * cycle;
        }
        let parallel_time = core_par_times.iter().cloned().fold(0.0, f64::max);

        let time_s = serial_time + parallel_time;

        // --- Power: integrate per-core activity over both phases. ---
        let mut energy = 0.0;
        if serial_time > 0.0 {
            let activities: Vec<f64> = (0..n)
                .map(|i| {
                    if i == master {
                        serial_cpi.activity()
                    } else {
                        0.0
                    }
                })
                .collect();
            energy += energy_joules(self.estimate.power_at(&activities), serial_time);
        }
        if parallel_time > 0.0 {
            // Cores that finish their chunk early idle at the barrier:
            // scale their activity by busy-time share.
            let activities: Vec<f64> = self
                .floorplan
                .cores
                .iter()
                .enumerate()
                .map(|(i, &kind)| {
                    let busy = core_par_times[i] / parallel_time;
                    timings[&kind].parallel.activity() * busy
                })
                .collect();
            energy += energy_joules(self.estimate.power_at(&activities), parallel_time);
        }
        let power_w = if time_s > 0.0 { energy / time_s } else { 0.0 };

        CmpResult {
            floorplan: self.floorplan.name.clone(),
            workload: workload_name.to_owned(),
            time_s,
            serial_time_s: serial_time,
            parallel_time_s: parallel_time,
            power_w,
            energy_j: energy,
            ed: ed_product(power_w, time_s),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_workloads::find;

    /// `workload` on every floorplan of `floorplans`, from one replay.
    fn sims_on<const N: usize>(
        workload: &str,
        floorplans: [CmpFloorplan; N],
        scale: Scale,
    ) -> [CmpResult; N] {
        let sims = floorplans.map(CmpSim::new);
        let results = simulate_floorplans(
            &sims,
            &find(workload).unwrap(),
            scale,
            FetchModelKind::Penalty,
        )
        .unwrap();
        results.try_into().expect("one result per floorplan")
    }

    #[test]
    fn master_core_selection() {
        assert_eq!(CmpSim::new(CmpFloorplan::baseline(8)).master_core(), 0);
        assert_eq!(CmpSim::new(CmpFloorplan::tailored(8)).master_core(), 0);
        assert_eq!(CmpSim::new(CmpFloorplan::asymmetric(1, 7)).master_core(), 0);
    }

    #[test]
    fn extra_core_speeds_up_parallel_workloads() {
        let [base, aspp] = sims_on(
            "FT",
            [CmpFloorplan::baseline(8), CmpFloorplan::asymmetric(1, 8)],
            Scale::Smoke,
        );
        assert!(
            aspp.time_s < base.time_s,
            "asym++ {} vs baseline {}",
            aspp.time_s,
            base.time_s
        );
        // With ~0% serial, the gain approaches 8/9.
        let ratio = aspp.time_s / base.time_s;
        assert!((0.80..=1.00).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn serial_heavy_workload_prefers_a_baseline_master() {
        // CoEVP (35% serial): tailored CMP pays on the serial section;
        // the asymmetric CMP recovers it. Needs a warmed-up trace.
        let [tailored, asym] = sims_on(
            "CoEVP",
            [CmpFloorplan::tailored(8), CmpFloorplan::asymmetric(1, 7)],
            Scale::Quick,
        );
        assert!(
            asym.serial_time_s < tailored.serial_time_s,
            "asym serial {} vs tailored serial {}",
            asym.serial_time_s,
            tailored.serial_time_s
        );
    }

    #[test]
    fn spec_int_runs_serial_only() {
        let [r] = sims_on("gcc", [CmpFloorplan::baseline(8)], Scale::Smoke);
        assert_eq!(r.parallel_time_s, 0.0);
        assert!(r.serial_time_s > 0.0);
        assert_eq!(r.time_s, r.serial_time_s);
    }

    #[test]
    fn spec_int_unaffected_by_extra_tailored_cores() {
        // The serial job stays on the baseline master; more tailored
        // cores only add leakage.
        let [base, asym] = sims_on(
            "astar",
            [CmpFloorplan::baseline(8), CmpFloorplan::asymmetric(1, 8)],
            Scale::Smoke,
        );
        assert!((asym.time_s - base.time_s).abs() / base.time_s < 1e-9);
        assert!(asym.power_w > 0.0);
    }

    #[test]
    fn tailored_cmp_saves_power_on_hpc() {
        let [base, tail] = sims_on(
            "MG",
            [CmpFloorplan::baseline(8), CmpFloorplan::tailored(8)],
            Scale::Smoke,
        );
        assert!(
            tail.power_w < base.power_w,
            "tailored {} vs baseline {}",
            tail.power_w,
            base.power_w
        );
    }

    #[test]
    fn energy_consistency() {
        let [r] = sims_on("LU", [CmpFloorplan::asymmetric(1, 7)], Scale::Smoke);
        assert!((r.energy_j - r.power_w * r.time_s).abs() / r.energy_j < 1e-9);
        assert!((r.ed - r.energy_j * r.time_s).abs() / r.ed < 1e-9);
        assert!((r.time_s - (r.serial_time_s + r.parallel_time_s)).abs() < 1e-15);
    }

    #[test]
    fn result_names() {
        let [r] = sims_on("CG", [CmpFloorplan::baseline(8)], Scale::Smoke);
        assert_eq!(r.workload, "CG");
        assert!(r.floorplan.contains("Baseline"));
    }
}
