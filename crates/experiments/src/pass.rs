//! The fused roster pass: every per-workload measurement the selected
//! exhibits read shares one full replay of each workload (plus one
//! phase-sampled replay where sampling's core models or a sampled fetch
//! grid ask for it), and each workload's tools are reduced to a small
//! [`Record`] before its work item ends.

use rebalance_coresim::FetchTools;
use rebalance_coresim::{floorplan_models, floorplan_results, CmpResult, CoreModel, CoreTiming};
use rebalance_fetchsim::FetchGrid;
use rebalance_frontend::predictor::{PredictorBank, PredictorReport};
use rebalance_frontend::{
    BtbReport, BtbSim, CacheConfig, ICacheReport, ICacheSim, PredictorChoice,
};
use rebalance_pintools::{characterization_from_tools, characterization_tools};
use rebalance_pintools::{Characterization, CharacterizationTools};
use rebalance_trace::{CacheError, SamplingConfig, ToolSet};
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
/// characterization, the predictor bank, BTBs, I-caches, the
/// [`core_models`] and the fetch grid. A family the replay does not
/// need stays empty.
type Tools = (
    ToolSet<CharacterizationTools>,
    ToolSet<PredictorBank>,
    ToolSet<BtbSim>,
    ToolSet<ICacheSim>,
    ToolSet<FetchTools>,
    ToolSet<FetchGrid>,
);

/// `tools()` as a family when `wanted`, else an empty family.
fn family<T>(wanted: bool, tools: impl FnOnce() -> Vec<T>) -> ToolSet<T> {
    ToolSet::from_tools(if wanted { tools() } else { Vec::new() })
}

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
        for model in sampling_models() {
            if !models.contains(&model) {
                models.push(model);
            }
        }
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

/// The tools `needs` put on one replay on `run` (see [`Need::rides`]).
fn tools(needs: &[Need], run: &Run, sampled: bool) -> Tools {
    let on = |need: Need| needs.contains(&need) && need.rides(run, sampled);
    let mut icaches = Vec::new();
    for (need, configs) in [
        (Need::Fig8Caches, caches::fig8_configs()),
        (Need::Fig9Caches, caches::fig9_configs()),
    ] {
        for config in configs.into_iter().filter(|_| on(need)) {
            if !icaches.contains(&config) {
                icaches.push(config);
            }
        }
    }
    (
        family(
            on(Need::Characterization),
            || vec![characterization_tools()],
        ),
        family(on(Need::Predictors), || {
            vec![PredictorBank::new(&PredictorChoice::figure5_set())]
        }),
        family(on(Need::Btbs), || {
            caches::fig7_configs()
                .into_iter()
                .map(BtbSim::new)
                .collect()
        }),
        icaches.into_iter().map(ICacheSim::new).collect(),
        (core_models(needs, run, sampled).iter())
            .map(CoreModel::fetch_tools)
            .collect(),
        family(on(Need::FetchGrid), || {
            vec![FetchGrid::new(&default_grid())]
        }),
    )
}

/// The fetch grid's per-design summaries (empty without a grid); every
/// cell's stall attribution is checked on the way.
fn fetch(grid: &ToolSet<FetchGrid>) -> Vec<FetchSummary> {
    let reports = grid.iter().flat_map(FetchGrid::reports);
    reports.map(|r| FetchSummary::from_report(&r)).collect()
}

/// The timings on `w` of each of `wanted`, read from the `cores` that
/// timed `models` on one replay.
fn timings(
    wanted: Vec<CoreModel>,
    models: &[CoreModel],
    cores: &[FetchTools],
    w: &Workload,
) -> Vec<CoreTiming> {
    let backend = w.profile().backend;
    wanted
        .into_iter()
        .map(|model| {
            let i = models
                .iter()
                .position(|m| *m == model)
                .expect("a timed core");
            model.timing_of(&cores[i], &backend)
        })
        .collect()
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
pub fn measure(
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

/// [`measure`] with the same `needs` for every workload.
///
/// # Errors
///
/// As for [`measure`].
pub fn measure_all(
    run: &Run,
    workloads: Vec<Workload>,
    scale: Scale,
    sampling: &SamplingConfig,
    needs: &[Need],
) -> Result<Vec<Record>, RunError> {
    let items = workloads.into_iter().map(|w| (w, needs.to_vec())).collect();
    measure(run, scale, sampling, items)
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
    if replays(needs, run, false) {
        // The static footprint is a property of the program, not of the
        // event stream, so characterization synthesizes it; a replay
        // that must generate the trace then interprets that same one.
        let trace = needs
            .contains(&Need::Characterization)
            .then(|| w.trace(scale))
            .transpose()
            .map_err(|e| RunError::replay(w, CacheError::Generate(e)))?;
        let static_bytes = trace.as_ref().map(|t| t.program().static_bytes());
        let generate = move || trace.map_or_else(|| w.trace(scale), Ok);
        let full = vec![tools(needs, run, false)];
        let (mut full, replay) = run.replay_generated(w, scale, generate, full)?;
        let (characterization, predictors, btbs, icaches, cores, grid) =
            full.pop().expect("one tool set in, one out");
        record.characterization = (characterization.into_inner().pop())
            .zip(static_bytes)
            .map(|(tools, bytes)| characterization_from_tools(tools, bytes, replay.summary));
        record.predictors = predictors.iter().flat_map(PredictorBank::reports).collect();
        record.btbs = btbs.iter().map(BtbSim::report).collect();
        record.icaches = icaches.iter().map(ICacheSim::report).collect();
        let (models, cores) = (core_models(needs, run, false), cores.into_inner());
        if needs.contains(&Need::Floorplans) {
            let timings = timings(cmp_models(run), &models, &cores, w);
            let sims = cmp::figure10_sims();
            record.floorplans = floorplan_results(&sims, w.name(), replay.sections, &timings);
        }
        record.fetch = fetch(&grid);
        if needs.contains(&Need::CoreModels) {
            record.timings = timings(sampling_models(), &models, &cores, w);
        }
    }
    if replays(needs, run, true) {
        let mut outcomes = run.sweep_sampled(sampling, vec![w.clone()], scale, |_| {
            vec![tools(needs, run, true)]
        })?;
        let outcome = outcomes.pop().expect("one workload in, one out");
        let (.., cores, grid) = &outcome.tools[0];
        record.replayed_fraction = outcome.plan.replayed_fraction();
        if needs.contains(&Need::CoreModels) {
            let models = core_models(needs, run, true);
            let cores = cores.iter().as_slice();
            record.sampled_timings = timings(sampling_models(), &models, cores, w);
        }
        if !grid.is_empty() {
            record.fetch = fetch(grid);
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
    fn the_baseline_core_is_timed_once_per_replay() {
        let needs = [Need::Floorplans, Need::CoreModels];
        for fetch_model in [FetchModelKind::Penalty, FetchModelKind::Ftq] {
            let run = Run {
                fetch_model,
                ..Run::default()
            };
            // Baseline and tailored floorplan cores, plus sampling's
            // baseline core under the other fetch model.
            assert_eq!(tools(&needs, &run, false).4.len(), 3, "{fetch_model:?}");
            assert_eq!(tools(&needs, &run, true).4.len(), 2, "{fetch_model:?}");
        }
    }
}
