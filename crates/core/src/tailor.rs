//! End-to-end tailoring evaluation: savings and performance cost of a
//! recommended front-end versus the baseline.

use rebalance_coresim::CoreModel;
use rebalance_frontend::{CoreKind, FrontendConfig};
use rebalance_mcpat::CoreEstimate;
use rebalance_workloads::{Scale, Workload};
use serde::{Deserialize, Serialize};

/// Outcome of tailoring one workload's core front-end.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TailoringReport {
    /// Workload evaluated.
    pub workload: String,
    /// The tailored configuration.
    pub frontend: FrontendConfig,
    /// Core-area saving vs the baseline core (fraction).
    pub area_saving: f64,
    /// Core-power saving vs the baseline core (fraction).
    pub power_saving: f64,
    /// Parallel-section CPI ratio (tailored / baseline); 1.0 = no loss.
    pub parallel_cpi_ratio: f64,
    /// Serial-section CPI ratio (tailored / baseline).
    pub serial_cpi_ratio: f64,
}

impl TailoringReport {
    /// `true` if the design saves area without a meaningful parallel
    /// slowdown (the paper's acceptance criterion).
    pub fn is_win(&self, max_slowdown: f64) -> bool {
        self.area_saving > 0.0 && self.parallel_cpi_ratio <= 1.0 + max_slowdown
    }
}

/// Evaluates a candidate front-end against the baseline core on one
/// workload: silicon savings from the McPAT-lite models, performance from
/// the interval core model (both cores priced from one replay).
///
/// # Errors
///
/// Propagates trace-synthesis errors (invalid profile or scale).
///
/// # Examples
///
/// ```
/// use rebalance::{evaluate_tailoring, FrontendConfig, Scale};
///
/// let w = rebalance::workloads::find("MG").unwrap();
/// let report = evaluate_tailoring(&w, &FrontendConfig::tailored(), Scale::Smoke)?;
/// assert!(report.area_saving > 0.10);
/// # Ok::<(), String>(())
/// ```
pub fn evaluate_tailoring(
    workload: &Workload,
    frontend: &FrontendConfig,
    scale: Scale,
) -> Result<TailoringReport, String> {
    let trace = workload.trace(scale)?;
    let backend = workload.profile().backend;

    let models = [
        CoreModel::new(CoreKind::Baseline),
        CoreModel::with_frontend(CoreKind::Tailored, *frontend),
    ];
    let [baseline, tailored] = CoreModel::measure_many(&models, &trace, &backend)
        .try_into()
        .expect("one timing per model");

    let base_est = CoreEstimate::for_core(CoreKind::Baseline);
    let tail_est = CoreEstimate::for_frontend(frontend);

    let ratio = |t: f64, b: f64| if b > 0.0 { t / b } else { 1.0 };
    Ok(TailoringReport {
        workload: workload.name().to_owned(),
        frontend: *frontend,
        area_saving: 1.0 - tail_est.area_mm2() / base_est.area_mm2(),
        power_saving: 1.0 - tail_est.power_w() / base_est.power_w(),
        parallel_cpi_ratio: ratio(tailored.parallel.cpi, baseline.parallel.cpi),
        serial_cpi_ratio: ratio(tailored.serial.cpi, baseline.serial.cpi),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_workloads::find;

    #[test]
    fn tailored_design_wins_on_regular_hpc() {
        let w = find("LU").unwrap();
        let r = evaluate_tailoring(&w, &FrontendConfig::tailored(), Scale::Smoke).unwrap();
        assert!(
            (0.13..=0.19).contains(&r.area_saving),
            "area saving {}",
            r.area_saving
        );
        assert!(r.power_saving > 0.04, "power saving {}", r.power_saving);
        assert!(
            r.parallel_cpi_ratio < 1.03,
            "parallel ratio {}",
            r.parallel_cpi_ratio
        );
        assert!(r.is_win(0.03));
    }

    #[test]
    fn baseline_config_is_neutral() {
        let w = find("CG").unwrap();
        let r = evaluate_tailoring(&w, &FrontendConfig::baseline(), Scale::Smoke).unwrap();
        assert!(r.area_saving.abs() < 1e-9);
        assert!((r.parallel_cpi_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_scale_propagates() {
        let w = find("CG").unwrap();
        assert!(evaluate_tailoring(&w, &FrontendConfig::tailored(), Scale::Custom(-1.0)).is_err());
    }

    #[test]
    fn report_fields_are_consistent() {
        let w = find("FT").unwrap();
        let r = evaluate_tailoring(&w, &FrontendConfig::tailored(), Scale::Smoke).unwrap();
        assert_eq!(r.workload, "FT");
        assert_eq!(r.frontend, FrontendConfig::tailored());
        assert!(r.serial_cpi_ratio > 0.5 && r.serial_cpi_ratio < 2.0);
    }
}
