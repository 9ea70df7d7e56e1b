//! Keyed front-end families: the configurations one replay measures,
//! each once, and the reports that price core designs by key.
//!
//! A penalty-model core is a pure function of three reports (see
//! [`CoreModel::timing`]), so it needs no tool of its own: it adds its
//! predictor, BTB and I-cache to the replay's families, and reads their
//! reports back by configuration. An FTQ core adds its fetch design
//! point the same way. Two cores, or a core and an exhibit, that name
//! the same configuration share one simulation of it.

use rebalance_fetchsim::{FetchConfig, FetchGrid, FetchReport};
use rebalance_frontend::predictor::{PredictorBank, PredictorReport};
use rebalance_frontend::{
    BtbConfig, BtbReport, BtbSim, CacheConfig, ICacheBank, ICacheReport, PredictorChoice,
};
use rebalance_trace::ToolSet;
use rebalance_workloads::BackendProfile;

use crate::core_model::{CoreModel, CoreTiming};
use crate::fetch_model::FetchModelKind;

/// Adds each of `keys` that `list` lacks, keeping first-appearance
/// order.
pub fn add_keys<T: PartialEq>(list: &mut Vec<T>, keys: impl IntoIterator<Item = T>) {
    for key in keys {
        if !list.contains(&key) {
            list.push(key);
        }
    }
}

/// The front-end configurations one replay measures, each once, by
/// family.
///
/// # Examples
///
/// ```
/// use rebalance_coresim::{CoreModel, FrontendKeys};
/// use rebalance_frontend::CoreKind;
/// use rebalance_workloads::{find, Scale};
///
/// let models = [CoreModel::new(CoreKind::Baseline), CoreModel::new(CoreKind::Tailored)];
/// let keys = FrontendKeys::of(&models);
/// assert_eq!((keys.predictors.len(), keys.btbs.len(), keys.icaches.len()), (2, 2, 2));
///
/// let cg = find("CG").unwrap();
/// let mut tools = keys.tools();
/// cg.trace(Scale::Smoke).unwrap().replay(&mut tools);
/// let timings = keys.reports(&tools).timings(&models, &cg.profile().backend);
/// assert!(timings[1].parallel.cpi >= cg.profile().backend.base_cpi);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FrontendKeys {
    /// Branch predictors, measured as one [`PredictorBank`].
    pub predictors: Vec<PredictorChoice>,
    /// BTB geometries, one [`BtbSim`] each.
    pub btbs: Vec<BtbConfig>,
    /// I-cache geometries, measured as one [`ICacheBank`].
    pub icaches: Vec<CacheConfig>,
    /// Decoupled-front-end design points, measured as one [`FetchGrid`].
    pub fetch: Vec<FetchConfig>,
}

/// The tools that measure one [`FrontendKeys`], in its field order.
pub type CoreTools = (PredictorBank, ToolSet<BtbSim>, ICacheBank, FetchGrid);

impl FrontendKeys {
    /// The keys that time `models`.
    pub fn of(models: &[CoreModel]) -> Self {
        let mut keys = FrontendKeys::default();
        for model in models {
            keys.add_core(model);
        }
        keys
    }

    /// Adds what `model` is priced from: its predictor, BTB and I-cache
    /// under [`FetchModelKind::Penalty`], its fetch design point under
    /// [`FetchModelKind::Ftq`]. Keys already present are not repeated.
    pub fn add_core(&mut self, model: &CoreModel) {
        let frontend = model.frontend();
        match model.fetch_model() {
            FetchModelKind::Penalty => {
                add_keys(&mut self.predictors, [frontend.predictor]);
                add_keys(&mut self.btbs, [frontend.btb]);
                add_keys(&mut self.icaches, [frontend.icache]);
            }
            FetchModelKind::Ftq => add_keys(&mut self.fetch, [model.fetch_config()]),
        }
    }

    /// Fresh tools, one stage per key.
    pub fn tools(&self) -> CoreTools {
        (
            PredictorBank::new(&self.predictors),
            self.btbs.iter().copied().map(BtbSim::new).collect(),
            ICacheBank::new(&self.icaches),
            FetchGrid::new(&self.fetch),
        )
    }

    /// The reports of `tools`, built by [`FrontendKeys::tools`], after a
    /// replay.
    pub fn reports(&self, tools: &CoreTools) -> FrontendReports {
        let (predictors, btbs, icaches, fetch) = tools;
        self.reports_of(predictors, btbs.iter().as_slice(), icaches, fetch)
    }

    /// [`FrontendKeys::reports`] from the four families held apart.
    pub fn reports_of(
        &self,
        predictors: &PredictorBank,
        btbs: &[BtbSim],
        icaches: &ICacheBank,
        fetch: &FetchGrid,
    ) -> FrontendReports {
        FrontendReports {
            predictors: self
                .predictors
                .iter()
                .copied()
                .zip(predictors.reports())
                .collect(),
            btbs: btbs.iter().map(BtbSim::report).collect(),
            icaches: icaches.reports(),
            fetch: fetch.reports(),
        }
    }
}

/// One replay's front-end reports, read by configuration.
#[derive(Debug, Clone)]
pub struct FrontendReports {
    /// One report per predictor choice.
    pub predictors: Vec<(PredictorChoice, PredictorReport)>,
    /// One report per BTB geometry.
    pub btbs: Vec<BtbReport>,
    /// One report per I-cache geometry.
    pub icaches: Vec<ICacheReport>,
    /// One report per fetch design point.
    pub fetch: Vec<FetchReport>,
}

impl FrontendReports {
    /// The report of predictor `choice`; panics if it was not measured.
    pub fn predictor(&self, choice: PredictorChoice) -> &PredictorReport {
        let found = self.predictors.iter().find(|(c, _)| *c == choice);
        &found.expect("a measured predictor").1
    }

    /// The report of BTB geometry `config`; panics if it was not
    /// measured.
    pub fn btb(&self, config: BtbConfig) -> &BtbReport {
        let found = self.btbs.iter().find(|r| r.config == config);
        found.expect("a measured BTB geometry")
    }

    /// The report of I-cache geometry `config`; panics if it was not
    /// measured.
    pub fn icache(&self, config: CacheConfig) -> &ICacheReport {
        let found = self.icaches.iter().find(|r| r.config == config);
        found.expect("a measured I-cache geometry")
    }

    /// The report of fetch design point `config`; panics if it was not
    /// measured.
    pub fn fetch(&self, config: FetchConfig) -> &FetchReport {
        let found = self.fetch.iter().find(|r| r.config == config);
        found.expect("a measured fetch design point")
    }

    /// `model`'s timing with `backend`, priced from the reports of its
    /// configurations; panics if one was not measured.
    pub fn timing(&self, model: &CoreModel, backend: &BackendProfile) -> CoreTiming {
        let frontend = model.frontend();
        match model.fetch_model() {
            FetchModelKind::Penalty => model.timing(
                self.predictor(frontend.predictor),
                self.btb(frontend.btb),
                self.icache(frontend.icache),
                backend,
            ),
            FetchModelKind::Ftq => {
                model.timing_from_fetch(self.fetch(model.fetch_config()), backend)
            }
        }
    }

    /// [`FrontendReports::timing`] for each of `models`, in order.
    pub fn timings(&self, models: &[CoreModel], backend: &BackendProfile) -> Vec<CoreTiming> {
        models.iter().map(|m| self.timing(m, backend)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_frontend::CoreKind;

    #[test]
    fn keys_are_added_once_per_configuration() {
        let baseline = CoreModel::new(CoreKind::Baseline);
        let ftq = baseline.with_fetch_model(FetchModelKind::Ftq);
        let keys = FrontendKeys::of(&[baseline, ftq, baseline, ftq]);
        let counts = |k: &FrontendKeys| {
            (
                k.predictors.len(),
                k.btbs.len(),
                k.icaches.len(),
                k.fetch.len(),
            )
        };
        assert_eq!(counts(&keys), (1, 1, 1, 1));
        let mut more = keys.clone();
        more.add_core(&CoreModel::new(CoreKind::Tailored));
        assert_eq!(counts(&more), (2, 2, 2, 1));
    }

    #[test]
    fn empty_families_read_no_plain_event() {
        use rebalance_trace::{Need, Pintool};
        let predictors_only = FrontendKeys {
            predictors: PredictorChoice::figure5_set(),
            ..FrontendKeys::default()
        };
        assert_eq!(predictors_only.tools().need(), Need::Branches);
        let ftq = CoreModel::new(CoreKind::Tailored).with_fetch_model(FetchModelKind::Ftq);
        assert_eq!(
            ftq.fetch_tools().need(),
            Need::Events,
            "a fetch grid reads runs"
        );
    }
}
