//! Shared harness utilities: the [`Run`] every exhibit takes, and
//! table rendering.
//!
//! A [`Run`] is one run's configuration and accounting as a plain
//! value: its sweep engine (one replay tally, one thread pool), its
//! optional on-disk [`TraceCache`], the suite filter, the sampling
//! geometry and the CPI fetch model. The CLI (or a test) builds it once
//! and passes it by reference; every experiment replays through its
//! methods, which all reach the engine through [`Run::replay`] (or, for
//! phase-sampled sweeps, [`Run::sweep_sampled`]), so [`Run::report`]
//! accounts for every replay of the run in a single [`Report`].

use std::fmt::{self, Write as _};
use std::io;
use std::path::PathBuf;

use rebalance_coresim::{
    floorplan_models, floorplan_results, CmpResult, CmpSim, FetchModelKind, FrontendKeys,
};
use rebalance_pintools::BbvTool;
use rebalance_trace::{
    snapshot, CacheError, CachedReplay, OwnedSnapshot, Pintool, Report, SampledOutcome,
    SamplingConfig, SweepEngine, SweepOutcome, TraceCache,
};
use rebalance_workloads::{Scale, Suite, Workload};

/// Why a run stopped: a workload could not be replayed, or an
/// exhibit's output could not be written.
#[derive(Debug)]
pub enum RunError {
    /// The workload's trace could not be generated (invalid profile or
    /// scale), or the trace cache could not serve it (for example a
    /// checksum-valid snapshot whose records do not decode).
    Replay {
        /// The workload being replayed.
        workload: String,
        /// What went wrong.
        source: CacheError,
    },
    /// Writing an exhibit's rendering failed.
    Write(io::Error),
    /// Writing an exhibit's JSON dump (or creating its directory)
    /// failed.
    Dump {
        /// The file or directory that could not be written.
        path: PathBuf,
        /// Why writing it failed.
        source: io::Error,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Replay { workload, source } => {
                write!(f, "cannot replay {workload}: {source}")
            }
            RunError::Write(e) => write!(f, "cannot write exhibit output: {e}"),
            RunError::Dump { path, source } => {
                write!(f, "cannot write exhibit dump {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for RunError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RunError::Replay { source, .. } => Some(source),
            RunError::Write(e) => Some(e),
            RunError::Dump { source, .. } => Some(source),
        }
    }
}

impl RunError {
    pub(crate) fn replay(workload: &Workload, source: CacheError) -> Self {
        RunError::Replay {
            workload: workload.name().to_owned(),
            source,
        }
    }
}

impl From<io::Error> for RunError {
    fn from(e: io::Error) -> Self {
        RunError::Write(e)
    }
}

/// One run's configuration and accounting.
///
/// Built once by the CLI (from `--cache`/`--no-cache`, `--suite`,
/// `--sample`/`--sample-k` and `--model`) or by a test, then passed by
/// reference to every exhibit. [`Run::default`] is a cache-less,
/// unfiltered, unsampled run on the penalty timing backend.
///
/// # Examples
///
/// ```
/// use rebalance_experiments::util::Run;
/// use rebalance_workloads::{Scale, Suite};
///
/// let mut run = Run::default();
/// run.suite = Some(Suite::Npb);
/// assert!(run.roster().iter().all(|w| w.suite() == Suite::Npb));
/// let w = rebalance_workloads::find("EP").unwrap();
/// run.replay(&w, Scale::Smoke, vec![rebalance_trace::NullTool]).unwrap();
/// assert_eq!(run.report().replays, 1);
/// ```
#[derive(Debug, Default)]
pub struct Run {
    /// The sweep engine every replay of this run goes through.
    pub engine: SweepEngine,
    /// The on-disk trace cache replays are served from; `None` generates
    /// every trace live.
    pub cache: Option<TraceCache>,
    /// Restricts every roster-driven exhibit to one suite.
    pub suite: Option<Suite>,
    /// Phase-samples every timing sweep routed through
    /// [`Run::sweep_weighted`]; `None` replays in full.
    pub sampling: Option<SamplingConfig>,
    /// The CPI timing backend [`Run::floorplans`] times cores through.
    pub fetch_model: FetchModelKind,
}

impl Run {
    /// The validated snapshot of `workload`'s trace at `scale` — the one
    /// place a run obtains a recorded stream, which phase sampling
    /// slices. With a cache it is read from the workload's snapshot
    /// (recorded on a miss, so warm sampled sweeps skip generation
    /// entirely); without one the trace is generated and encoded in
    /// memory, and nothing touches the disk.
    ///
    /// # Errors
    ///
    /// [`RunError::Replay`] when the trace cannot be generated or the
    /// cache cannot serve it.
    pub fn snapshot(&self, workload: &Workload, scale: Scale) -> Result<OwnedSnapshot, RunError> {
        let key = workload.trace_key(scale);
        let owned = match &self.cache {
            Some(cache) => cache.snapshot(&key, || workload.trace(scale)),
            None => self
                .engine
                .generate(|| workload.trace(scale))
                .map_err(CacheError::Generate)
                .and_then(|trace| {
                    let (bytes, _) = snapshot::snapshot_bytes(&trace, key.fingerprint())?;
                    Ok(OwnedSnapshot::parse(bytes)?)
                }),
        };
        owned.map_err(|source| RunError::replay(workload, source))
    }

    /// Replay and cache accounting for everything run through this
    /// run's engine so far — the one report the CLI and benches print.
    pub fn report(&self) -> Report {
        let report = self.engine.report();
        match &self.cache {
            Some(cache) => report.with_cache(cache),
            None => report,
        }
    }

    /// The roster exhibits sweep: the full registry, narrowed by this
    /// run's suite filter.
    pub fn roster(&self) -> Vec<Workload> {
        let mut roster = rebalance_workloads::all();
        roster.retain(|w| self.suite.is_none_or(|suite| w.suite() == suite));
        roster
    }

    /// Replays one workload's trace at `scale` once through all `tools`
    /// on this run's engine — the one place a run chooses between its
    /// cache and a live generation. With a cache the stream is decoded
    /// from the workload's snapshot (recorded on a miss); without one the
    /// trace is synthesized and interpreted. Either way the engine counts
    /// the replay and its delivered events.
    ///
    /// # Errors
    ///
    /// [`RunError::Replay`] when the trace cannot be generated or the
    /// cache cannot serve it.
    pub fn replay<T: Pintool>(
        &self,
        workload: &Workload,
        scale: Scale,
        tools: Vec<T>,
    ) -> Result<(Vec<T>, CachedReplay), RunError> {
        let generate = || workload.trace(scale);
        let replayed = match &self.cache {
            Some(cache) => {
                self.engine
                    .fan_out_cached(cache, &workload.trace_key(scale), generate, tools)
            }
            None => self
                .engine
                .generate(generate)
                .map_err(CacheError::Generate)
                .map(|trace| {
                    let (tools, summary) = self.engine.fan_out(&trace, tools);
                    let replay = CachedReplay {
                        summary,
                        sections: trace.schedule().sections(),
                        static_bytes: trace.program().static_bytes(),
                    };
                    (tools, replay)
                }),
        };
        replayed.map_err(|source| RunError::replay(workload, source))
    }

    /// Replays the whole of `workload`'s snapshot `owned` (from
    /// [`Run::snapshot`]) once through all `tools` on this run's engine:
    /// [`Run::replay`] on a snapshot the run already holds, so a
    /// cache-less run that also samples the workload synthesizes it
    /// once.
    ///
    /// # Errors
    ///
    /// [`RunError::Replay`] when the snapshot does not decode.
    pub fn replay_snapshot<T: Pintool>(
        &self,
        workload: &Workload,
        owned: &OwnedSnapshot,
        tools: Vec<T>,
    ) -> Result<(Vec<T>, CachedReplay), RunError> {
        let (tools, summary) = self
            .engine
            .replay_snapshot(&owned.snapshot(), tools)
            .map_err(|e| RunError::replay(workload, e.into()))?;
        let info = owned.info();
        let replay = CachedReplay {
            summary,
            sections: info.sections,
            static_bytes: info.static_bytes,
        };
        Ok((tools, replay))
    }

    /// Replays only the weighted representative intervals of
    /// `workload`'s snapshot `owned` under `config` through all
    /// `tools`: one [`SweepEngine::replay_sampled`]. Tools must be
    /// weight-aware ([`Pintool::supports_sampled_replay`]).
    ///
    /// # Errors
    ///
    /// [`RunError::Replay`] when the snapshot does not decode.
    pub fn replay_sampled<T: Pintool>(
        &self,
        config: &SamplingConfig,
        workload: &Workload,
        owned: &OwnedSnapshot,
        tools: Vec<T>,
    ) -> Result<SampledOutcome<Workload, T>, RunError> {
        let fingerprinter = || BbvTool::new(config.dims);
        let (tools, replay, plan) = self
            .engine
            .replay_sampled(&owned.snapshot(), config, tools, fingerprinter)
            .map_err(|e| RunError::replay(workload, e.into()))?;
        Ok(SampledOutcome {
            item: workload.clone(),
            tools,
            summary: replay.summary,
            delivered_instructions: replay.delivered_instructions,
            plan,
        })
    }

    /// Sweeps `tools_for` over `workloads` at `scale` replaying only each
    /// trace's weighted representative intervals under `config` — the
    /// phase-sampled sibling of [`Run::sweep_weighted`]: per workload one
    /// [`Run::snapshot`] and one [`Run::replay_sampled`], in
    /// parallel on the engine's executor. Tools must be weight-aware
    /// ([`Pintool::supports_sampled_replay`]).
    ///
    /// # Errors
    ///
    /// [`RunError::Replay`] for the first workload, in workload order,
    /// whose snapshot cannot be generated or decoded.
    pub fn sweep_sampled<T, ToolsFn>(
        &self,
        config: &SamplingConfig,
        workloads: Vec<Workload>,
        scale: Scale,
        tools_for: ToolsFn,
    ) -> Result<Vec<SampledOutcome<Workload, T>>, RunError>
    where
        T: Pintool + Send,
        ToolsFn: Fn(&Workload) -> Vec<T> + Sync,
    {
        let measured = self.engine.map(&workloads, |w| {
            let owned = self.snapshot(w, scale)?;
            self.replay_sampled(config, w, &owned, tools_for(w))
        });
        measured.into_iter().collect()
    }

    /// Sweeps `tools_for` over `workloads` at `scale` in parallel on the
    /// engine's executor, outcomes in workload order: one
    /// [`Run::replay`] per workload when [`Run::sampling`] is `None`, a
    /// weighted representative replay ([`Run::sweep_sampled`])
    /// otherwise. Only timing sweeps whose tools are weight-aware should
    /// route through here.
    ///
    /// # Errors
    ///
    /// The first workload's [`RunError`], in workload order.
    pub fn sweep_weighted<T, ToolsFn>(
        &self,
        workloads: Vec<Workload>,
        scale: Scale,
        tools_for: ToolsFn,
    ) -> Result<Vec<SweepOutcome<Workload, T>>, RunError>
    where
        T: Pintool + Send,
        ToolsFn: Fn(&Workload) -> Vec<T> + Sync,
    {
        if let Some(config) = &self.sampling {
            let sampled = self.sweep_sampled(config, workloads, scale, tools_for)?;
            return Ok(sampled
                .into_iter()
                .map(|o| SweepOutcome {
                    item: o.item,
                    tools: o.tools,
                    summary: o.summary,
                })
                .collect());
        }
        let measured = self
            .engine
            .map(&workloads, |w| self.replay(w, scale, tools_for(w)));
        workloads
            .into_iter()
            .zip(measured)
            .map(|(item, measured)| {
                let (tools, replay) = measured?;
                Ok(SweepOutcome {
                    item,
                    tools,
                    summary: replay.summary,
                })
            })
            .collect()
    }

    /// Simulates `sims` over one workload through this run's fetch
    /// model: every distinct core design observes one [`Run::replay`],
    /// and each floorplan's schedule and power come from the shared
    /// timings and the replay's per-section instruction counts.
    ///
    /// # Errors
    ///
    /// As for [`Run::replay`].
    pub fn floorplans(
        &self,
        sims: &[CmpSim],
        workload: &Workload,
        scale: Scale,
    ) -> Result<Vec<CmpResult>, RunError> {
        let models = floorplan_models(sims, self.fetch_model);
        let keys = FrontendKeys::of(&models);
        let (tools, replay) = self.replay(workload, scale, vec![keys.tools()])?;
        let reports = keys.reports(&tools[0]);
        let timings = reports.timings(&models, &workload.profile().backend);
        Ok(floorplan_results(
            sims,
            workload.name(),
            replay.sections,
            &timings,
        ))
    }
}

/// Minimal fixed-width text table.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded/truncated to the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) -> &mut Self {
        let mut cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        cells.resize(self.header.len(), String::new());
        self.rows.push(cells);
        self
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate().take(cols) {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate().take(cols) {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{c:>width$}", width = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a float with 2 decimals.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a fraction as a percentage with 1 decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Mean of an iterator of f64.
pub fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0;
    let mut n = 0u64;
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_coresim::simulate_floorplans;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["suite", "value"]);
        t.row(vec!["ExMatEx", "13.0"]);
        t.row(vec!["NPB", "7.2"]);
        let s = t.render();
        assert!(s.contains("suite"));
        assert!(s.contains("ExMatEx"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[1].chars().collect::<Vec<_>>()[0], '-');
    }

    #[test]
    fn row_padding() {
        let mut t = TextTable::new(vec!["a", "b", "c"]);
        t.row(vec!["x"]);
        assert!(t.render().contains('x'));
    }

    #[test]
    fn formatters() {
        assert_eq!(f1(1.25), "1.2");
        assert_eq!(f2(1.256), "1.26");
        assert_eq!(pct(0.125), "12.5%");
        assert_eq!(mean([1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(std::iter::empty()), 0.0);
    }

    #[test]
    fn roster_without_filter_is_the_full_registry() {
        // The filter is a field of one run, so a filtered and an
        // unfiltered run coexist in one process.
        let npb = Run {
            suite: Some(Suite::Npb),
            ..Run::default()
        };
        let everything = Run::default();
        assert_eq!(npb.roster(), rebalance_workloads::by_suite(Suite::Npb));
        assert_eq!(everything.roster(), rebalance_workloads::all());
        let kernels = Run {
            suite: Some(Suite::Kernels),
            ..Run::default()
        };
        assert_eq!(kernels.roster(), rebalance_workloads::kernels());
    }

    #[test]
    fn sweep_report_tracks_the_shared_engine() {
        let run = Run::default();
        let w = rebalance_workloads::find("EP").unwrap();
        let before = run.report();
        let tools = vec![rebalance_trace::NullTool, rebalance_trace::NullTool];
        let (tools, replay) = run.replay(&w, Scale::Smoke, tools).unwrap();
        let (after, summary) = (run.report(), replay.summary);
        assert_eq!(tools.len(), 2);
        assert!(summary.instructions > 0);
        assert_eq!(after.replays - before.replays, 1, "one fan-out, one replay");
        assert_eq!(
            after.lanes.unwrap().instructions - before.lanes.unwrap().instructions,
            summary.instructions,
            "the replay's events, each counted once"
        );
        assert!(after.cache.is_none(), "a cache-less run reports no cache");
    }

    #[test]
    fn sampled_sweep_delivers_a_fraction_and_scales_counts() {
        use rebalance_coresim::CoreModel;
        use rebalance_frontend::CoreKind;

        let baseline = CoreModel::new(CoreKind::Baseline);
        let w = rebalance_workloads::find("CG").unwrap();
        let config = SamplingConfig::default().with_intervals(40).with_k(4);
        let out = Run::default()
            .sweep_sampled(&config, vec![w.clone()], Scale::Smoke, |_| {
                vec![FrontendKeys::of(&[baseline]).tools()]
            })
            .unwrap();
        assert_eq!(out.len(), 1);
        let o = &out[0];
        let total = o.summary.instructions;
        assert!(total > 0);
        assert!(
            o.delivered_instructions * 4 <= total,
            "{} of {total} delivered — more than 1/k",
            o.delivered_instructions
        );
        let weights: u64 = o.plan.clusters().iter().map(|c| c.weight).sum();
        assert_eq!(weights as usize, o.plan.num_intervals());
        // The weighted tools still account for roughly every
        // instruction.
        let reports = FrontendKeys::of(&[baseline]).reports(&o.tools[0]);
        let timing = reports.timing(&baseline, &w.profile().backend);
        let counted = timing.serial.insts + timing.parallel.insts;
        let err = (counted as f64 - total as f64).abs() / total as f64;
        assert!(err < 0.02, "weighted inst count {counted} vs {total}");
    }

    #[test]
    fn fan_out_on_an_invalid_scale_is_an_error_not_a_panic() {
        let w = rebalance_workloads::find("EP").unwrap();
        let run = Run::default();
        let err = run
            .replay(&w, Scale::Custom(0.0), vec![rebalance_trace::NullTool])
            .unwrap_err();
        assert!(
            matches!(&err, RunError::Replay { workload, source: CacheError::Generate(_) } if workload == "EP"),
            "{err:?}"
        );
        assert!(err.to_string().starts_with("cannot replay EP: "), "{err}");
        assert_eq!(run.report().replays, 0, "a failed replay is not counted");
    }

    #[test]
    fn replay_records_sections_and_where_the_stream_came_from() {
        let w = rebalance_workloads::find("MG").unwrap();
        let sections = w.trace(Scale::Smoke).unwrap().schedule().sections();
        let (_, live) = Run::default()
            .replay(&w, Scale::Smoke, vec![rebalance_trace::NullTool])
            .unwrap();
        assert_eq!(live.sections, sections);

        let cached = Run {
            cache: Some(TraceCache::scratch().unwrap()),
            ..Run::default()
        };
        let cache = cached.cache.as_ref().unwrap();
        for (pass, hits, generations) in [("cold", 0, 1), ("warm", 1, 0)] {
            let before = cache.stats();
            let (_, replay) = cached
                .replay(&w, Scale::Smoke, vec![rebalance_trace::NullTool])
                .unwrap();
            let delta = cache.stats().since(&before);
            assert_eq!(
                (delta.hits, delta.generations),
                (hits, generations),
                "{pass}"
            );
            assert_eq!(replay.sections, sections);
            assert_eq!(replay.summary, live.summary);
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn snapshots_are_the_same_bytes_with_or_without_a_cache() {
        let w = rebalance_workloads::find("EP").unwrap();
        let live = Run::default().snapshot(&w, Scale::Smoke).unwrap();
        let cached = Run {
            cache: Some(TraceCache::scratch().unwrap()),
            ..Run::default()
        };
        let cache = cached.cache.as_ref().unwrap();
        for pass in ["cold", "warm"] {
            let owned = cached.snapshot(&w, Scale::Smoke).unwrap();
            assert!(owned.into_bytes() == live.clone().into_bytes(), "{pass}");
        }
        let stats = cache.stats();
        assert_eq!((stats.generations, stats.hits), (1, 1));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn floorplans_helper_runs() {
        use rebalance_mcpat::CmpFloorplan;
        let w = rebalance_workloads::find("MG").unwrap();
        let sims = [CmpSim::new(CmpFloorplan::baseline(8))];
        let results = Run::default().floorplans(&sims, &w, Scale::Smoke).unwrap();
        assert_eq!(results.len(), 1);
        assert!(results[0].time_s > 0.0);
    }

    #[test]
    fn floorplans_time_cores_through_the_run_fetch_model() {
        use rebalance_mcpat::CmpFloorplan;
        let w = rebalance_workloads::find("MG").unwrap();
        let sims = [
            CmpSim::new(CmpFloorplan::baseline(8)),
            CmpSim::new(CmpFloorplan::tailored(8)),
        ];
        let ftq = Run {
            fetch_model: FetchModelKind::Ftq,
            ..Run::default()
        };
        let results = ftq.floorplans(&sims, &w, Scale::Smoke).unwrap();
        assert_eq!(
            results,
            simulate_floorplans(&sims, &w, Scale::Smoke, FetchModelKind::Ftq).unwrap()
        );
        assert_ne!(
            results,
            Run::default().floorplans(&sims, &w, Scale::Smoke).unwrap(),
            "the penalty default times cores differently"
        );
    }

    #[test]
    fn cached_floorplans_match_live_simulation_under_both_fetch_models() {
        use rebalance_mcpat::CmpFloorplan;
        let w = rebalance_workloads::find("FT").unwrap();
        let sims = [
            CmpSim::new(CmpFloorplan::baseline(8)),
            CmpSim::new(CmpFloorplan::tailored(8)),
            CmpSim::new(CmpFloorplan::asymmetric(1, 7)),
        ];
        for model in [FetchModelKind::Penalty, FetchModelKind::Ftq] {
            let live = simulate_floorplans(&sims, &w, Scale::Smoke, model).unwrap();
            let cached = Run {
                cache: Some(TraceCache::scratch().unwrap()),
                fetch_model: model,
                ..Run::default()
            };
            for pass in ["cold", "warm"] {
                assert_eq!(
                    cached.floorplans(&sims, &w, Scale::Smoke).unwrap(),
                    live,
                    "{model}: {pass} cached run"
                );
            }
            let cache = cached.cache.as_ref().unwrap();
            let stats = cache.stats();
            assert_eq!((stats.generations, stats.hits), (1, 1), "{model}");
            assert_eq!(cached.report().replays, 2, "{model}: both passes counted");
            let _ = std::fs::remove_dir_all(cache.dir());
        }
    }
}
