//! The fused roster pass: every per-workload measurement the selected
//! exhibits read shares one full replay of each workload (plus one
//! phase-sampled replay where sampling's core models or a sampled fetch
//! grid ask for it), and each workload's tools are reduced to a small
//! [`Record`] before its work item ends.

use rebalance_coresim::{add_keys, floorplan_models, floorplan_results, FrontendKeys};
use rebalance_coresim::{CmpResult, CoreModel, CoreTiming, FrontendReports};
use rebalance_fetchsim::FetchGrid;
use rebalance_frontend::predictor::{PredictorBank, PredictorReport};
use rebalance_frontend::PredictorChoice;
use rebalance_frontend::{BtbReport, BtbSim, CacheConfig, ICacheBank, ICacheReport};
use rebalance_pintools::{characterization_from_tools, characterization_tools};
use rebalance_pintools::{Characterization, CharacterizationTools};
use rebalance_trace::{SamplingConfig, Timed, ToolSet};
use rebalance_workloads::{Scale, Suite, Workload};

use crate::fetchsim::{default_grid, FetchSummary};
use crate::util::{mean, Run, RunError};
use crate::{caches, cmp, sampling};

/// One measurement an exhibit reads: a tool family of the fused pass,
/// or the ablation studies, which keep their own replays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Need {
    /// The five characterization pintools and the static footprint.
    Characterization,
    /// The nine Figure 5 predictor configurations, as one predictor bank.
    Predictors,
    /// The nine Figure 7 BTB geometries.
    Btbs,
    /// The nine Figure 8 I-caches.
    Fig8Caches,
    /// The nine Figure 9 I-caches (three of them Figure 8's).
    Fig9Caches,
    /// The Figure 10 floorplans, timed through the run's fetch model.
    Floorplans,
    /// The fetch design grid, on the sampled replay when the run samples.
    FetchGrid,
    /// Sampling's two core models, on the full and the sampled replay.
    CoreModels,
    /// The fixed-workload ablation studies.
    Ablations,
}

impl Need {
    /// `true` if this need is measured on one replay on `run`: the full
    /// one, or the `sampled` one. Sampling's core models ride both; the
    /// fetch grid rides the sampled one exactly when the run samples.
    fn rides(self, run: &Run, sampled: bool) -> bool {
        match self {
            Need::CoreModels => true,
            Need::FetchGrid => run.sampling.is_some() == sampled,
            Need::Ablations => false,
            _ => !sampled,
        }
    }
}

/// `true` if `needs` put any tool on that replay.
fn replays(needs: &[Need], run: &Run, sampled: bool) -> bool {
    needs.iter().any(|need| need.rides(run, sampled))
}

/// One workload's measurements, each tool family reduced to what the
/// exhibits read; a family the workload did not need stays empty.
#[derive(Debug, Clone)]
pub struct Record {
    /// The workload measured.
    pub workload: Workload,
    /// Its characterization.
    pub characterization: Option<Characterization>,
    /// One report per Figure 5 configuration, in legend order.
    pub predictors: Vec<PredictorReport>,
    /// One report per [`caches::fig7_configs`] geometry.
    pub btbs: Vec<BtbReport>,
    /// One report per distinct Figure 8/9 I-cache geometry.
    pub icaches: Vec<ICacheReport>,
    /// One result per Figure 10 floorplan, in figure order.
    pub floorplans: Vec<CmpResult>,
    /// One summary per [`default_grid`] design point.
    pub fetch: Vec<FetchSummary>,
    /// The [`sampling::models`] timed on the full replay.
    pub timings: Vec<CoreTiming>,
    /// The same models timed on the sampled replay.
    pub sampled_timings: Vec<CoreTiming>,
    /// The fraction of the trace the sampled replay delivered.
    pub replayed_fraction: f64,
}

impl Record {
    /// The characterization; panics if it was not measured.
    pub fn characterization(&self) -> &Characterization {
        self.characterization
            .as_ref()
            .expect("a characterized workload")
    }

    /// The I-cache of geometry `config`; panics if it was not measured.
    pub fn icache(&self, config: CacheConfig) -> &ICacheReport {
        let found = self.icaches.iter().find(|r| r.config == config);
        found.expect("a measured I-cache geometry")
    }
}

/// The mean of `value` over each suite's records, in [`Suite::ALL`]
/// order.
pub fn suite_means(records: &[&Record], value: impl Fn(&Record) -> f64) -> [f64; Suite::COUNT] {
    Suite::ALL.map(|suite| {
        let in_suite = records.iter().filter(|r| r.workload.suite() == suite);
        mean(in_suite.map(|r| value(r)))
    })
}

/// Every tool family one replay feeds, as one fan-out tool:
/// characterization, then the four keyed families of one
/// [`FrontendKeys`]: the predictor bank, BTBs, the I-cache bank and the
/// fetch grid. Exhibits and core designs add their configurations to
/// the keys, so a core owns no tool and a configuration two of them
/// name is simulated once. A family the replay does not need stays
/// empty. Each family charges its `on_batch` time to
/// `tool.<family>.on_batch_ns` while telemetry is on.
type Tools = (
    Timed<ToolSet<CharacterizationTools>>,
    Timed<PredictorBank>,
    Timed<ToolSet<BtbSim>>,
    Timed<ICacheBank>,
    Timed<FetchGrid>,
);

/// The core designs `needs` time on one replay on `run`, each once: the
/// Figure 10 floorplans' cores under the run's fetch model, then
/// sampling's two models, one of which is the baseline floorplan core.
fn core_models(needs: &[Need], run: &Run, sampled: bool) -> Vec<CoreModel> {
    let on = |need: Need| needs.contains(&need) && need.rides(run, sampled);
    let mut models = Vec::new();
    if on(Need::Floorplans) {
        models = cmp_models(run);
    }
    if on(Need::CoreModels) {
        add_keys(&mut models, sampling_models());
    }
    models
}

/// The Figure 10 floorplans' core designs under the run's fetch model.
fn cmp_models(run: &Run) -> Vec<CoreModel> {
    floorplan_models(&cmp::figure10_sims(), run.fetch_model)
}

/// Sampling's two core models, in [`sampling::models`] order.
fn sampling_models() -> Vec<CoreModel> {
    sampling::models().into_iter().map(|(_, m)| m).collect()
}

/// The configurations the exhibits of `needs` read on one replay on
/// `run`.
fn exhibit_keys(needs: &[Need], run: &Run, sampled: bool) -> FrontendKeys {
    let on = |need: Need| needs.contains(&need) && need.rides(run, sampled);
    let mut keys = FrontendKeys::default();
    if on(Need::Predictors) {
        keys.predictors = PredictorChoice::figure5_set();
    }
    if on(Need::Btbs) {
        keys.btbs = caches::fig7_configs();
    }
    for (need, configs) in [
        (Need::Fig8Caches, caches::fig8_configs()),
        (Need::Fig9Caches, caches::fig9_configs()),
    ] {
        if on(need) {
            add_keys(&mut keys.icaches, configs);
        }
    }
    if on(Need::FetchGrid) {
        keys.fetch = default_grid();
    }
    keys
}

/// [`exhibit_keys`] plus what each of the [`core_models`] is priced
/// from.
fn keys(needs: &[Need], run: &Run, sampled: bool) -> FrontendKeys {
    let mut keys = exhibit_keys(needs, run, sampled);
    for model in core_models(needs, run, sampled) {
        keys.add_core(&model);
    }
    keys
}

/// The tools `needs` put on one replay on `run` (see [`Need::rides`]),
/// with `keys` from [`keys`].
fn tools(needs: &[Need], run: &Run, sampled: bool, keys: &FrontendKeys) -> Tools {
    let on = |need: Need| needs.contains(&need) && need.rides(run, sampled);
    let (predictors, btbs, icaches, fetch) = keys.tools();
    let characterization = on(Need::Characterization).then(characterization_tools);
    (
        Timed::new("characterization", characterization.into_iter().collect()),
        Timed::new("predictors", predictors),
        Timed::new("btbs", btbs),
        Timed::new("icaches", icaches),
        Timed::new("fetch", fetch),
    )
}

/// The reports of the keyed families of `tools`, built from `keys`.
fn reports(keys: &FrontendKeys, tools: &Tools) -> FrontendReports {
    let (_, predictors, btbs, icaches, fetch) = tools;
    keys.reports_of(predictors, btbs.iter().as_slice(), icaches, fetch)
}

impl Record {
    /// Appends the reports of `exhibits`, the exhibit keys of one
    /// replay, read back by configuration. Each need rides one replay,
    /// so the full and the sampled replay fill disjoint families. Every
    /// fetch design point's stall attribution is checked on the way.
    fn read_exhibits(&mut self, exhibits: &FrontendKeys, reports: &FrontendReports) {
        let predictors = exhibits.predictors.iter();
        (self.predictors).extend(predictors.map(|&c| reports.predictor(c).clone()));
        (self.btbs).extend(exhibits.btbs.iter().map(|&c| *reports.btb(c)));
        (self.icaches).extend(exhibits.icaches.iter().map(|&c| *reports.icache(c)));
        let fetch = exhibits.fetch.iter().map(|&c| reports.fetch(c));
        self.fetch.extend(fetch.map(FetchSummary::from_report));
    }
}

/// Measures each `(workload, needs)` item at `scale` on `run`: one full
/// replay through every tool its needs name, and one replay of the
/// weighted representatives under `sampling` when sampling's core
/// models (or, on a sampled run, the fetch grid) are needed. Items run
/// in parallel on the run's engine; records keep item order.
///
/// # Errors
///
/// The first item's [`RunError`], in item order.
pub fn measure_items(
    run: &Run,
    scale: Scale,
    sampling: &SamplingConfig,
    items: Vec<(Workload, Vec<Need>)>,
) -> Result<Vec<Record>, RunError> {
    let measured = run.engine.map(&items, |(w, needs)| {
        measure_one(run, w, needs, scale, sampling)
    });
    measured.into_iter().collect()
}

/// [`measure_items`] with the same `needs` for every workload.
///
/// # Errors
///
/// As for [`measure_items`].
pub fn measure_all(
    run: &Run,
    workloads: Vec<Workload>,
    scale: Scale,
    sampling: &SamplingConfig,
    needs: &[Need],
) -> Result<Vec<Record>, RunError> {
    let items = workloads.into_iter().map(|w| (w, needs.to_vec())).collect();
    measure_items(run, scale, sampling, items)
}

fn measure_one(
    run: &Run,
    w: &Workload,
    needs: &[Need],
    scale: Scale,
    sampling: &SamplingConfig,
) -> Result<Record, RunError> {
    let mut record = Record {
        workload: w.clone(),
        characterization: None,
        predictors: Vec::new(),
        btbs: Vec::new(),
        icaches: Vec::new(),
        floorplans: Vec::new(),
        fetch: Vec::new(),
        timings: Vec::new(),
        sampled_timings: Vec::new(),
        replayed_fraction: 0.0,
    };
    let backend = w.profile().backend;
    let (full, sampled) = (replays(needs, run, false), replays(needs, run, true));
    // Without a cache, one in-memory snapshot serves both replays, so
    // the workload is synthesized once.
    let shared = if full && sampled && run.cache.is_none() {
        Some(run.snapshot(w, scale)?)
    } else {
        None
    };
    if full {
        let keys = keys(needs, run, false);
        let full = vec![tools(needs, run, false, &keys)];
        let (mut full, replay) = match &shared {
            Some(owned) => run.replay_snapshot(w, owned, full)?,
            None => run.replay(w, scale, full)?,
        };
        let tools = full.pop().expect("one tool set in, one out");
        let reports = reports(&keys, &tools);
        record.read_exhibits(&exhibit_keys(needs, run, false), &reports);
        let (characterization, ..) = tools;
        record.characterization = (characterization.into_inner().into_inner().pop())
            .map(|tools| characterization_from_tools(tools, replay.static_bytes, replay.summary));
        if needs.contains(&Need::Floorplans) {
            let timings = reports.timings(&cmp_models(run), &backend);
            let sims = cmp::figure10_sims();
            record.floorplans = floorplan_results(&sims, w.name(), replay.sections, &timings);
        }
        if needs.contains(&Need::CoreModels) {
            record.timings = reports.timings(&sampling_models(), &backend);
        }
    }
    if sampled {
        let keys = keys(needs, run, true);
        let owned = match shared {
            Some(owned) => owned,
            None => run.snapshot(w, scale)?,
        };
        let sampled = vec![tools(needs, run, true, &keys)];
        let outcome = run.replay_sampled(sampling, w, &owned, sampled)?;
        let reports = reports(&keys, &outcome.tools[0]);
        record.read_exhibits(&exhibit_keys(needs, run, true), &reports);
        record.replayed_fraction = outcome.plan.replayed_fraction();
        if needs.contains(&Need::CoreModels) {
            record.sampled_timings = reports.timings(&sampling_models(), &backend);
        }
    }
    Ok(record)
}

/// `needs` measured on `workloads` at `scale` on a default run.
#[cfg(test)]
pub(crate) fn measured(workloads: Vec<Workload>, scale: Scale, needs: &[Need]) -> Vec<Record> {
    let sampling = SamplingConfig::default();
    measure_all(&Run::default(), workloads, scale, &sampling, needs).unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_coresim::FetchModelKind;
    use rebalance_trace::TraceCache;

    #[test]
    fn characterization_matches_direct_characterization() {
        let w = rebalance_workloads::find("CG").unwrap();
        let direct = rebalance_pintools::characterize(&w.trace(Scale::Smoke).unwrap());
        let sampling = SamplingConfig::default();
        let characterize = |run: &Run| {
            let needs = &[Need::Characterization];
            let records = measure_all(run, vec![w.clone()], Scale::Smoke, &sampling, needs);
            records.unwrap().pop().unwrap().characterization.unwrap()
        };
        let live = Run::default();
        assert_eq!(characterize(&live), direct, "live path");
        assert_eq!(live.report().replays, 1, "counted by the engine");
        let cached = Run {
            cache: Some(TraceCache::scratch().unwrap()),
            ..Run::default()
        };
        for pass in ["cold", "warm"] {
            assert_eq!(characterize(&cached), direct, "{pass} cached path");
        }
        let cache = cached.cache.as_ref().unwrap();
        assert_eq!((cache.stats().generations, cache.stats().hits), (1, 1));
        assert_eq!(cached.report().replays, 2);
        assert_eq!(
            cached.report().lanes.unwrap().instructions,
            2 * direct.summary.instructions,
            "every event the characterization tools saw, counted once"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn each_workload_replays_once_in_full_and_once_sampled_at_most() {
        let ws = vec![rebalance_workloads::find("EP").unwrap()];
        let sampling = SamplingConfig::default();
        let replays = |run: &Run, needs: &[Need]| {
            let before = run.report().replays;
            measure_all(run, ws.clone(), Scale::Smoke, &sampling, needs).unwrap();
            run.report().replays - before
        };
        let run = Run::default();
        let all = [Need::Characterization, Need::Fig9Caches, Need::CoreModels];
        assert_eq!(replays(&run, &all), 2, "one full, one sampled");
        assert_eq!(replays(&run, &[Need::Predictors, Need::Btbs]), 1);
        assert_eq!(replays(&run, &[Need::Ablations]), 0);
        let sampled = Run {
            sampling: Some(sampling),
            ..Run::default()
        };
        assert_eq!(replays(&sampled, &[Need::FetchGrid]), 1, "sampled only");
        assert_eq!(replays(&sampled, &[Need::FetchGrid, Need::CoreModels]), 2);
    }

    #[test]
    fn each_configuration_is_simulated_once_per_replay() {
        use Need::*;
        // Every need `paper all` puts on one workload's replays.
        let needs = |fig9: bool| {
            let mut needs = vec![Characterization, Predictors, Btbs, Fig8Caches];
            needs.extend([Floorplans, FetchGrid, CoreModels]);
            needs.extend(fig9.then_some(Fig9Caches));
            needs
        };
        // (predictor bases, BTBs, (line walks, I-caches), fetch design
        // points)
        let shape = |needs: &[Need], run: &Run, sampled: bool| {
            let t = tools(needs, run, sampled, &keys(needs, run, sampled));
            (t.1.shape().0, t.2.len(), t.3.shape(), t.4.reports().len())
        };
        // The penalty cores' predictors are Figure 5 bases, the tailored
        // BTB is a Figure 7 member and the baseline I-cache a Figure 8
        // one: only the 2048×8 BTB and the 128 B I-cache (a Figure 9
        // member) are new. Sampling's FTQ core is the grid's
        // ftq16/w4/pf4/btb2048 point, so the full replay times the 16
        // grid points alone and the sampled one the FTQ core alone.
        let baseline_ftq = sampling_models()[1];
        assert_eq!(baseline_ftq.fetch_model(), FetchModelKind::Ftq);
        assert!(default_grid().contains(&baseline_ftq.fetch_config()));
        let penalty = Run::default();
        assert_eq!(shape(&needs(false), &penalty, false), (6, 10, (2, 10), 16));
        assert_eq!(shape(&needs(true), &penalty, false), (6, 10, (3, 15), 16));
        assert_eq!(shape(&needs(true), &penalty, true), (1, 1, (1, 1), 1));
        // Under FTQ the floorplan cores are fetch design points: the
        // baseline one is sampling's FTQ core, the tailored one is new.
        let ftq = Run {
            fetch_model: FetchModelKind::Ftq,
            ..Run::default()
        };
        assert_eq!(shape(&needs(false), &ftq, false), (6, 10, (1, 9), 17));
        assert_eq!(shape(&needs(true), &ftq, false), (6, 10, (3, 15), 17));
        assert_eq!(shape(&needs(true), &ftq, true), (1, 1, (1, 1), 1));
    }

    #[test]
    fn shared_families_price_cores_like_three_solo_sims() {
        use rebalance_frontend::predictor::PredictorSim;
        use rebalance_frontend::{BtbSim, CoreKind, ICacheSim};

        let w = rebalance_workloads::find("CoEVP").unwrap();
        let needs = [Need::Predictors, Need::Btbs, Need::Fig8Caches];
        let needs = [
            &needs[..],
            &[Need::Fig9Caches, Need::Floorplans, Need::CoreModels],
        ]
        .concat();
        let record = measured(vec![w.clone()], Scale::Smoke, &needs)
            .pop()
            .unwrap();

        let trace = w.trace(Scale::Smoke).unwrap();
        let backend = w.profile().backend;
        let solo = |kind: CoreKind| {
            let model = CoreModel::new(kind);
            let f = model.frontend();
            let mut sims = (
                PredictorSim::new(f.predictor.build()),
                BtbSim::new(f.btb),
                ICacheSim::new(f.icache),
            );
            trace.replay(&mut sims);
            let (bp, btb, ic) = (sims.0.report(), sims.1.report(), sims.2.report());
            model.timing(&bp, &btb, &ic, &backend)
        };
        let timings = [solo(CoreKind::Baseline), solo(CoreKind::Tailored)];
        assert_eq!(record.timings[0], timings[0], "sampling's penalty core");
        let sims = cmp::figure10_sims();
        let sections = trace.schedule().sections();
        let expected = floorplan_results(&sims, w.name(), sections, &timings);
        assert_eq!(record.floorplans, expected, "the Figure 10 floorplans");
    }
}
