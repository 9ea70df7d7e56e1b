//! Per-core interval timing: front-end event rates → CPI.

use rebalance_fetchsim::{FetchConfig, FetchReport, FtqConfig};
use rebalance_frontend::predictor::PredictorReport;
use rebalance_frontend::{BtbReport, CoreKind, FrontendConfig, ICacheReport};
use rebalance_trace::{Section, SyntheticTrace};
use rebalance_workloads::BackendProfile;
use serde::{Deserialize, Serialize};

use crate::fetch_model::FetchModelKind;
use crate::frontends::{CoreTools, FrontendKeys};
use crate::penalties::Penalties;

/// Measured rates and derived CPI for one code section on one core.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SectionCpi {
    /// Instructions in the section.
    pub insts: u64,
    /// Branch mispredictions per kilo-instruction.
    pub bp_mpki: f64,
    /// BTB misses per kilo-instruction.
    pub btb_mpki: f64,
    /// RAS misses per kilo-instruction.
    pub ras_mpki: f64,
    /// I-cache misses per kilo-instruction.
    pub icache_mpki: f64,
    /// Total cycles per instruction.
    pub cpi: f64,
}

impl SectionCpi {
    /// Instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cpi > 0.0 {
            1.0 / self.cpi
        } else {
            0.0
        }
    }

    /// Activity factor for the power model (IPC, capped at 1.25 — a
    /// 2-wide lean core never sustains more).
    pub fn activity(&self) -> f64 {
        self.ipc().min(1.25)
    }
}

/// Timing measurement of one workload trace on one core design.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreTiming {
    /// Core design measured.
    pub kind: CoreKind,
    /// Serial-section result.
    pub serial: SectionCpi,
    /// Parallel-section result.
    pub parallel: SectionCpi,
}

impl CoreTiming {
    /// The section result for a given section.
    pub fn section(&self, section: Section) -> &SectionCpi {
        match section {
            Section::Serial => &self.serial,
            Section::Parallel => &self.parallel,
        }
    }
}

/// One core design: a front-end configuration plus pipeline penalties.
///
/// # Examples
///
/// ```
/// use rebalance_coresim::CoreModel;
/// use rebalance_frontend::CoreKind;
/// use rebalance_workloads::{find, Scale};
///
/// let cg = find("CG").unwrap();
/// let trace = cg.trace(Scale::Smoke).unwrap();
/// let timing = CoreModel::new(CoreKind::Tailored).measure(&trace, &cg.profile().backend);
/// assert!(timing.parallel.cpi >= cg.profile().backend.base_cpi);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreModel {
    kind: CoreKind,
    frontend: FrontendConfig,
    penalties: Penalties,
    fetch_model: FetchModelKind,
}

impl CoreModel {
    /// A core of one of the paper's two designs with default penalties
    /// and the [`FetchModelKind::Penalty`] timing backend (switch it
    /// with [`CoreModel::with_fetch_model`]).
    pub fn new(kind: CoreKind) -> Self {
        CoreModel {
            kind,
            frontend: FrontendConfig::for_core(kind),
            penalties: Penalties::default(),
            fetch_model: FetchModelKind::Penalty,
        }
    }

    /// A core with an explicit front-end (for design-space exploration).
    pub fn with_frontend(kind: CoreKind, frontend: FrontendConfig) -> Self {
        CoreModel {
            kind,
            frontend,
            penalties: Penalties::default(),
            fetch_model: FetchModelKind::Penalty,
        }
    }

    /// Overrides the penalty set.
    pub fn with_penalties(mut self, penalties: Penalties) -> Self {
        self.penalties = penalties;
        self
    }

    /// Selects the timing backend ([`FetchModelKind::Penalty`] closed
    /// form or the [`FetchModelKind::Ftq`] decoupled simulator).
    pub fn with_fetch_model(mut self, fetch_model: FetchModelKind) -> Self {
        self.fetch_model = fetch_model;
        self
    }

    /// The core design kind.
    pub fn kind(&self) -> CoreKind {
        self.kind
    }

    /// The front-end configuration.
    pub fn frontend(&self) -> &FrontendConfig {
        &self.frontend
    }

    /// The selected timing backend.
    pub fn fetch_model(&self) -> FetchModelKind {
        self.fetch_model
    }

    /// The decoupled-front-end design point this core maps to: its
    /// front-end structures around a default FTQ, with the fetch
    /// engine's latencies taken from the core's penalty set (rounded
    /// to whole cycles — the FTQ model is integer-timed) so the two
    /// backends price the same events consistently.
    pub fn fetch_config(&self) -> FetchConfig {
        let cycles = |penalty: f64| penalty.round().max(0.0) as u64;
        FetchConfig::new(
            self.frontend,
            FtqConfig::default()
                .with_latencies(
                    cycles(self.penalties.icache_miss),
                    cycles(self.penalties.branch_mispredict),
                    cycles(self.penalties.btb_miss),
                )
                .with_ras_penalty(cycles(self.penalties.ras_miss)),
        )
    }

    /// This design's measurement tools alone: its keyed families of
    /// one (see [`FrontendKeys`]), so a penalty-model core runs its
    /// predictor, BTB and I-cache, and an FTQ core a fetch grid of its
    /// one design point.
    pub fn fetch_tools(&self) -> CoreTools {
        FrontendKeys::of(std::slice::from_ref(self)).tools()
    }

    /// Replays `trace` through this core's front-end structures and
    /// derives per-section CPI with the workload's back-end profile.
    pub fn measure(&self, trace: &SyntheticTrace, backend: &BackendProfile) -> CoreTiming {
        CoreModel::measure_many(std::slice::from_ref(self), trace, backend)[0]
    }

    /// Measures several core designs over a **single** replay of
    /// `trace`: the designs' configurations join one set of keyed
    /// families ([`FrontendKeys`]), each measured once however many
    /// designs name it, so the cost is one trace pass. Timings are
    /// returned in `models` order.
    pub fn measure_many(
        models: &[CoreModel],
        trace: &SyntheticTrace,
        backend: &BackendProfile,
    ) -> Vec<CoreTiming> {
        let keys = FrontendKeys::of(models);
        let mut tools = keys.tools();
        trace.replay(&mut tools);
        keys.reports(&tools).timings(models, backend)
    }

    /// Derives per-section CPI from a decoupled-front-end
    /// [`FetchReport`]: the measured stall cycles replace the
    /// closed-form `Σ (MPKI × penalty)` term, and the fetch stage's
    /// busy throughput bounds the base CPI (a front-end that cannot
    /// sustain the back-end's issue rate becomes the bottleneck).
    pub fn timing_from_fetch(&self, report: &FetchReport, backend: &BackendProfile) -> CoreTiming {
        let section_cpi = |section: Section| -> SectionCpi {
            let fs = report.section(section);
            let insts = fs.insts;
            let per_kilo = |n: u64| {
                if insts == 0 {
                    0.0
                } else {
                    n as f64 * 1000.0 / insts as f64
                }
            };
            let per_inst = |n: u64| {
                if insts == 0 {
                    0.0
                } else {
                    n as f64 / insts as f64
                }
            };
            SectionCpi {
                insts,
                bp_mpki: per_kilo(fs.mispredicts),
                btb_mpki: per_kilo(fs.resteers),
                ras_mpki: per_kilo(fs.ras_misses),
                icache_mpki: per_kilo(fs.icache_misses),
                cpi: backend.base_cpi.max(per_inst(fs.busy))
                    + backend.data_stall_cpi
                    + per_inst(fs.stalls.total()),
            }
        };
        CoreTiming {
            kind: self.kind,
            serial: section_cpi(Section::Serial),
            parallel: section_cpi(Section::Parallel),
        }
    }

    /// Derives per-section CPI under the closed-form penalty model. A
    /// pure function of the three reports of this core's predictor, BTB
    /// and I-cache configurations, plus the workload's back-end profile:
    /// the reports may come from solo simulators or from keyed families
    /// shared with other designs ([`FrontendReports`](crate::FrontendReports)),
    /// and price the same either way.
    pub fn timing(
        &self,
        bp_report: &PredictorReport,
        btb_report: &BtbReport,
        ic_report: &ICacheReport,
        backend: &BackendProfile,
    ) -> CoreTiming {
        let section_cpi = |section: Section| -> SectionCpi {
            let bps = bp_report.section(section);
            let btbs = btb_report.section(section);
            let ics = ic_report.section(section);
            let insts = bps.insts;
            let bp_mpki = bps.mpki();
            let btb_mpki = btbs.mpki();
            let ras_mpki = if insts == 0 {
                0.0
            } else {
                btbs.ras_misses as f64 * 1000.0 / insts as f64
            };
            let icache_mpki = ics.mpki();
            let p = &self.penalties;
            let stall_cpi = (bp_mpki * p.branch_mispredict
                + btb_mpki * p.btb_miss
                + ras_mpki * p.ras_miss
                + icache_mpki * p.icache_miss)
                / 1000.0;
            SectionCpi {
                insts,
                bp_mpki,
                btb_mpki,
                ras_mpki,
                icache_mpki,
                cpi: backend.base_cpi + backend.data_stall_cpi + stall_cpi,
            }
        };

        CoreTiming {
            kind: self.kind,
            serial: section_cpi(Section::Serial),
            parallel: section_cpi(Section::Parallel),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_workloads::{find, Scale};

    fn measure(workload: &str, kind: CoreKind) -> CoreTiming {
        measure_at(workload, kind, Scale::Smoke)
    }

    /// Structure-warmup-sensitive comparisons need longer traces.
    fn measure_at(workload: &str, kind: CoreKind, scale: Scale) -> CoreTiming {
        let w = find(workload).unwrap();
        let trace = w.trace(scale).unwrap();
        CoreModel::new(kind).measure(&trace, &w.profile().backend)
    }

    #[test]
    fn cpi_includes_backend_floor() {
        let w = find("swim").unwrap();
        let t = measure("swim", CoreKind::Baseline);
        let floor = w.profile().backend.base_cpi + w.profile().backend.data_stall_cpi;
        assert!(t.parallel.cpi >= floor);
        assert!(t.parallel.cpi < floor + 1.0, "front-end stalls are modest");
    }

    #[test]
    fn tailored_close_to_baseline_on_regular_hpc() {
        // The paper's core claim: SPEC OMP/NPB lose <1% on the tailored
        // core. Allow a few percent at smoke scale.
        for name in ["swim", "ilbdc", "CG", "FT"] {
            let base = measure(name, CoreKind::Baseline);
            let tail = measure(name, CoreKind::Tailored);
            let ratio = tail.parallel.cpi / base.parallel.cpi;
            assert!(
                ratio < 1.04,
                "{name}: tailored/baseline parallel CPI = {ratio}"
            );
        }
    }

    #[test]
    fn desktop_code_suffers_on_the_tailored_core() {
        // Needs a warmed-up trace: at smoke scale the baseline's large
        // structures are still cold and the comparison inverts. The
        // magnitude here is smaller than the paper's ~8% because our
        // synthetic desktop code retains more spatial locality than
        // real binaries (see EXPERIMENTS.md, known deviations).
        let base = measure_at("gcc", CoreKind::Baseline, Scale::Quick);
        let tail = measure_at("gcc", CoreKind::Tailored, Scale::Quick);
        assert!(
            tail.serial.cpi > base.serial.cpi * 1.005,
            "gcc: {} vs {}",
            tail.serial.cpi,
            base.serial.cpi
        );
    }

    #[test]
    fn sections_are_measured_separately() {
        let t = measure("CoEVP", CoreKind::Baseline);
        assert!(t.serial.insts > 0);
        assert!(t.parallel.insts > 0);
        assert_eq!(t.section(Section::Serial).insts, t.serial.insts);
        assert_eq!(t.section(Section::Parallel).insts, t.parallel.insts);
    }

    #[test]
    fn activity_is_bounded() {
        let t = measure("mcf", CoreKind::Baseline);
        assert!(t.serial.activity() > 0.0);
        assert!(t.serial.activity() <= 1.25);
        assert!(t.serial.ipc() < 1.0, "mcf is memory bound");
        let zero = SectionCpi::default();
        assert_eq!(zero.ipc(), 0.0);
    }

    #[test]
    fn measure_many_matches_individual_measures() {
        let w = find("CoMD").unwrap();
        let trace = w.trace(Scale::Smoke).unwrap();
        let backend = w.profile().backend;
        let models = [
            CoreModel::new(CoreKind::Baseline),
            CoreModel::new(CoreKind::Tailored),
        ];
        let fanned = CoreModel::measure_many(&models, &trace, &backend);
        for (model, timing) in models.iter().zip(&fanned) {
            assert_eq!(*timing, model.measure(&trace, &backend));
        }
    }

    /// The one-of-each reference: a core priced from three solo sims
    /// (predictor, BTB, I-cache) fed one replay.
    fn solo_timing(
        model: &CoreModel,
        trace: &SyntheticTrace,
        backend: &BackendProfile,
    ) -> CoreTiming {
        use rebalance_frontend::predictor::PredictorSim;
        use rebalance_frontend::{BtbSim, ICacheSim};

        let f = model.frontend();
        let mut sims = (
            PredictorSim::new(f.predictor.build()),
            BtbSim::new(f.btb),
            ICacheSim::new(f.icache),
        );
        trace.replay(&mut sims);
        model.timing(
            &sims.0.report(),
            &sims.1.report(),
            &sims.2.report(),
            backend,
        )
    }

    #[test]
    fn keyed_families_price_like_three_solo_sims() {
        for name in ["CoMD", "gcc", "k.branchy"] {
            let w = find(name).unwrap();
            let trace = w.trace(Scale::Smoke).unwrap();
            let backend = w.profile().backend;
            let models = [
                CoreModel::new(CoreKind::Baseline),
                CoreModel::new(CoreKind::Tailored),
            ];
            let shared = CoreModel::measure_many(&models, &trace, &backend);
            for (model, timing) in models.iter().zip(&shared) {
                assert_eq!(*timing, solo_timing(model, &trace, &backend), "{name}");
            }
        }
    }

    #[test]
    fn custom_penalties_shift_cpi() {
        let w = find("gobmk").unwrap();
        let trace = w.trace(Scale::Smoke).unwrap();
        let cheap = CoreModel::new(CoreKind::Tailored)
            .with_penalties(Penalties {
                branch_mispredict: 1.0,
                btb_miss: 1.0,
                ras_miss: 1.0,
                icache_miss: 1.0,
            })
            .measure(&trace, &w.profile().backend);
        let dear = CoreModel::new(CoreKind::Tailored).measure(&trace, &w.profile().backend);
        assert!(dear.serial.cpi > cheap.serial.cpi);
    }

    #[test]
    fn accessors() {
        let m = CoreModel::new(CoreKind::Tailored);
        assert_eq!(m.kind(), CoreKind::Tailored);
        assert_eq!(m.frontend().btb.entries, 256);
        assert_eq!(m.fetch_model(), FetchModelKind::Penalty);
        let m2 = CoreModel::with_frontend(CoreKind::Baseline, *m.frontend());
        assert_eq!(m2.frontend().btb.entries, 256);
        let m3 = m.with_fetch_model(FetchModelKind::Ftq);
        assert_eq!(m3.fetch_model(), FetchModelKind::Ftq);
        // The FTQ design point inherits the core's structures and
        // prices events with the core's penalty set.
        let fc = m3.fetch_config();
        assert_eq!(fc.frontend, *m3.frontend());
        assert_eq!(fc.ftq.mispredict_penalty, 12);
        assert_eq!(fc.ftq.resteer_penalty, 8);
        assert_eq!(fc.ftq.miss_latency, 20);
        // The RAS penalty is carried separately (and fractional
        // penalties round to whole cycles rather than truncating).
        let custom = m3.with_penalties(Penalties {
            ras_miss: 30.0,
            icache_miss: 12.5,
            ..Penalties::lean_core()
        });
        assert_eq!(custom.fetch_config().ftq.ras_penalty, 30);
        assert_eq!(custom.fetch_config().ftq.miss_latency, 13);
    }

    #[test]
    fn zero_penalties_collapse_cpi_to_the_backend_floor() {
        let w = find("swim").unwrap();
        let trace = w.trace(Scale::Smoke).unwrap();
        let backend = w.profile().backend;
        let t = CoreModel::new(CoreKind::Baseline)
            .with_penalties(Penalties::zero())
            .measure(&trace, &backend);
        let floor = backend.base_cpi + backend.data_stall_cpi;
        for section in [Section::Serial, Section::Parallel] {
            let s = t.section(section);
            assert_eq!(s.cpi, floor, "nothing left but the floor");
            assert_eq!(s.ipc(), 1.0 / floor);
            // The event rates are still measured — only their price is
            // zero.
            assert!(s.insts > 0);
        }
    }

    #[test]
    fn empty_section_pins_section_cpi_defaults() {
        // SPEC CPU INT runs fully serially: the parallel section has no
        // instructions at all, which must degrade to zeroed rates and
        // the bare backend floor, not NaNs.
        let w = find("gcc").unwrap();
        let trace = w.trace(Scale::Smoke).unwrap();
        let backend = w.profile().backend;
        for model in [
            CoreModel::new(CoreKind::Baseline),
            CoreModel::new(CoreKind::Baseline).with_fetch_model(FetchModelKind::Ftq),
        ] {
            let t = model.measure(&trace, &backend);
            let p = t.parallel;
            assert_eq!(p.insts, 0, "gcc never enters a parallel section");
            assert_eq!(p.bp_mpki, 0.0);
            assert_eq!(p.btb_mpki, 0.0);
            assert_eq!(p.ras_mpki, 0.0);
            assert_eq!(p.icache_mpki, 0.0);
            assert_eq!(p.cpi, backend.base_cpi + backend.data_stall_cpi);
            assert!(p.ipc() > 0.0, "the floor is finite, so IPC is too");
            assert!(t.serial.insts > 0);
        }
    }

    #[test]
    fn ftq_backend_cross_validates_against_the_penalty_model() {
        // The two backends must tell the same qualitative story: CPI at
        // or above the back-end floor, front-end stalls of the same
        // order — with the FTQ model at or below the closed form, since
        // run-ahead and FDIP hide work the penalty model prices in full.
        for name in ["CG", "FT", "swim"] {
            let w = find(name).unwrap();
            let trace = w.trace(Scale::Smoke).unwrap();
            let backend = w.profile().backend;
            let penalty = CoreModel::new(CoreKind::Baseline).measure(&trace, &backend);
            let ftq = CoreModel::new(CoreKind::Baseline)
                .with_fetch_model(FetchModelKind::Ftq)
                .measure(&trace, &backend);
            let floor = backend.base_cpi + backend.data_stall_cpi;
            assert!(ftq.parallel.cpi >= floor, "{name}");
            assert!(
                ftq.parallel.cpi <= penalty.parallel.cpi + 0.05,
                "{name}: measured stalls {} should not exceed priced rates {}",
                ftq.parallel.cpi,
                penalty.parallel.cpi
            );
            assert!(
                ftq.parallel.bp_mpki > 0.0 || penalty.parallel.bp_mpki < 0.1,
                "{name}: both backends see mispredictions when there are any"
            );
        }
    }

    #[test]
    fn mixed_backend_fan_out_matches_individual_measures() {
        let w = find("MG").unwrap();
        let trace = w.trace(Scale::Smoke).unwrap();
        let backend = w.profile().backend;
        let models = [
            CoreModel::new(CoreKind::Baseline),
            CoreModel::new(CoreKind::Tailored).with_fetch_model(FetchModelKind::Ftq),
            CoreModel::new(CoreKind::Baseline).with_fetch_model(FetchModelKind::Ftq),
        ];
        let fanned = CoreModel::measure_many(&models, &trace, &backend);
        for (model, timing) in models.iter().zip(&fanned) {
            assert_eq!(*timing, model.measure(&trace, &backend));
        }
    }
}
