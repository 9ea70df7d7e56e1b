//! Shared harness utilities: the [`Run`] every exhibit takes, and
//! table rendering.
//!
//! A [`Run`] is one run's configuration and accounting as a plain
//! value: its sweep engine (one replay tally, one thread pool), its
//! optional on-disk [`TraceCache`], the suite filter, the sampling
//! geometry and the CPI fetch model. The CLI (or a test) builds it once
//! and passes it by reference; every experiment routes its replays
//! through its methods, and [`Run::report`] accounts for the whole run
//! in a single [`Report`].

use std::fmt::Write as _;
use std::sync::OnceLock;

use rebalance_coresim::{
    simulate_floorplans, simulate_floorplans_cached, CmpResult, CmpSim, FetchModelKind,
};
use rebalance_pintools::{
    characterization_from_tools, characterization_tools, BbvTool, Characterization,
};
use rebalance_trace::{
    Pintool, Report, RunSummary, SampledOutcome, SamplingConfig, SweepEngine, SweepOutcome,
    TraceCache,
};
use rebalance_workloads::{Scale, Suite, Workload};

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
/// run.fan_out(&w, Scale::Smoke, vec![rebalance_trace::NullTool]);
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
    /// Where sampled sweeps snapshot traces when [`Run::cache`] is
    /// `None`: a temp-dir cache created on first use.
    scratch: OnceLock<TraceCache>,
}

impl Run {
    /// The cache sampled sweeps draw snapshot bytes from: this run's
    /// cache when it has one (so warm sampled sweeps skip generation
    /// entirely), else a scratch directory under the system temp dir —
    /// sampling needs a recorded snapshot to slice, so it always
    /// snapshots.
    pub fn sampling_cache(&self) -> &TraceCache {
        match &self.cache {
            Some(cache) => cache,
            None => self
                .scratch
                .get_or_init(|| TraceCache::scratch().expect("temp dir must be writable")),
        }
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

    /// Drops workloads outside this run's suite filter (identity when no
    /// filter is set). Exhibits with hand-picked subsets route them
    /// through here so `--suite` narrows every exhibit consistently.
    pub fn filtered(&self, workloads: Vec<Workload>) -> Vec<Workload> {
        match self.suite {
            Some(suite) => workloads
                .into_iter()
                .filter(|w| w.suite() == suite)
                .collect(),
            None => workloads,
        }
    }

    /// The roster exhibits sweep: the full registry, narrowed by this
    /// run's suite filter.
    pub fn roster(&self) -> Vec<Workload> {
        self.filtered(rebalance_workloads::all())
    }

    /// Sweeps `tools_for` over `workloads` at `scale`, one replay per
    /// workload — served from this run's cache when it has one.
    pub fn sweep<T, ToolsFn>(
        &self,
        workloads: Vec<Workload>,
        scale: Scale,
        tools_for: ToolsFn,
    ) -> Vec<SweepOutcome<Workload, T>>
    where
        T: Pintool + Send,
        ToolsFn: Fn(&Workload) -> Vec<T> + Sync,
    {
        match &self.cache {
            Some(cache) => self
                .engine
                .sweep_cached(
                    cache,
                    workloads,
                    |w| w.trace_key(scale),
                    |w| w.trace(scale),
                    tools_for,
                )
                .expect("trace cache replay"),
            None => self.engine.sweep(
                workloads,
                |w| w.trace(scale).expect("valid roster profile"),
                tools_for,
            ),
        }
    }

    /// Sweeps `tools_for` over `workloads` at `scale` replaying only each
    /// trace's weighted representative intervals under `config` — the
    /// phase-sampled sibling of [`Run::sweep`]. Tools must be
    /// weight-aware ([`Pintool::supports_sampled_replay`]).
    pub fn sweep_sampled<T, ToolsFn>(
        &self,
        config: &SamplingConfig,
        workloads: Vec<Workload>,
        scale: Scale,
        tools_for: ToolsFn,
    ) -> Vec<SampledOutcome<Workload, T>>
    where
        T: Pintool + Send,
        ToolsFn: Fn(&Workload) -> Vec<T> + Sync,
    {
        let dims = config.dims;
        self.engine
            .sweep_sampled(
                self.sampling_cache(),
                config,
                workloads,
                |w| w.trace_key(scale),
                |w| w.trace(scale),
                tools_for,
                || BbvTool::new(dims),
            )
            .expect("sampled trace replay")
    }

    /// [`Run::sweep`] that honors this run's sampling geometry: a full
    /// replay per workload when [`Run::sampling`] is `None`, a weighted
    /// representative replay otherwise. Only timing sweeps whose tools
    /// are weight-aware should route through here.
    pub fn sweep_weighted<T, ToolsFn>(
        &self,
        workloads: Vec<Workload>,
        scale: Scale,
        tools_for: ToolsFn,
    ) -> Vec<SweepOutcome<Workload, T>>
    where
        T: Pintool + Send,
        ToolsFn: Fn(&Workload) -> Vec<T> + Sync,
    {
        match &self.sampling {
            Some(config) => self
                .sweep_sampled(config, workloads, scale, tools_for)
                .into_iter()
                .map(|o| SweepOutcome {
                    item: o.item,
                    tools: o.tools,
                    summary: o.summary,
                })
                .collect(),
            None => self.sweep(workloads, scale, tools_for),
        }
    }

    /// Fans `tools` out over one replay of a single workload's trace —
    /// cached when this run has a cache.
    pub fn fan_out<T: Pintool>(
        &self,
        workload: &Workload,
        scale: Scale,
        tools: Vec<T>,
    ) -> (Vec<T>, RunSummary) {
        match &self.cache {
            Some(cache) => {
                let (tools, replay) = self
                    .engine
                    .fan_out_cached(
                        cache,
                        &workload.trace_key(scale),
                        || workload.trace(scale),
                        tools,
                    )
                    .expect("trace cache replay");
                (tools, replay.summary)
            }
            None => {
                let trace = workload.trace(scale).expect("valid roster profile");
                self.engine.fan_out(&trace, tools)
            }
        }
    }

    /// Simulates `sims` over one workload through this run's fetch
    /// model — via its cache when it has one.
    pub fn floorplans(&self, sims: &[CmpSim], workload: &Workload, scale: Scale) -> Vec<CmpResult> {
        match &self.cache {
            Some(cache) => {
                simulate_floorplans_cached(sims, workload, scale, cache, self.fetch_model)
            }
            None => simulate_floorplans(sims, workload, scale, self.fetch_model),
        }
        .expect("valid roster profile")
    }

    /// Characterizes one workload, streaming the dynamic events from
    /// this run's cache when it has one. The program model is still
    /// synthesized either way (the static footprint is a static property
    /// a dynamic event stream cannot supply), but synthesis is cheap —
    /// the cache removes the expensive interpreter pass.
    pub fn characterize_workload(&self, workload: &Workload, scale: Scale) -> Characterization {
        let trace = workload.trace(scale).expect("valid roster profile");
        match &self.cache {
            Some(cache) => {
                let static_bytes = trace.program().static_bytes();
                let mut tools = characterization_tools();
                let replay = cache
                    .replay_with(&workload.trace_key(scale), move || Ok(trace), &mut tools)
                    .expect("trace cache replay");
                characterization_from_tools(tools, static_bytes, replay.summary)
            }
            None => rebalance_pintools::characterize(&trace),
        }
    }

    /// Runs `f` over the roster (narrowed by this run's suite filter)
    /// in parallel, returning `(workload, result)` pairs in roster
    /// order.
    pub fn for_all_workloads<U, F>(&self, f: F) -> Vec<(Workload, U)>
    where
        U: Send,
        F: Fn(&Workload) -> U + Sync,
    {
        let ws = self.roster();
        let results = self.engine.map(&ws, f);
        ws.into_iter().zip(results).collect()
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
    fn for_all_covers_roster() {
        let names = Run::default().for_all_workloads(|w| w.name().to_owned());
        assert_eq!(names.len(), rebalance_workloads::all().len());
        assert!(names.len() > 41, "kernel archetypes ride along");
        assert_eq!(names[0].0.name(), names[0].1);
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
        assert_eq!(
            npb.filtered(rebalance_workloads::kernels()),
            Vec::<Workload>::new()
        );
        assert_eq!(
            everything.filtered(rebalance_workloads::kernels()),
            rebalance_workloads::kernels()
        );
    }

    #[test]
    fn sweep_report_tracks_the_shared_engine() {
        let run = Run::default();
        let w = rebalance_workloads::find("EP").unwrap();
        let before = run.report();
        let (tools, summary) = run.fan_out(
            &w,
            Scale::Smoke,
            vec![rebalance_trace::NullTool, rebalance_trace::NullTool],
        );
        let after = run.report();
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

        let w = rebalance_workloads::find("CG").unwrap();
        let config = SamplingConfig::default().with_intervals(40).with_k(4);
        let out = Run::default().sweep_sampled(&config, vec![w.clone()], Scale::Smoke, |_| {
            vec![CoreModel::new(CoreKind::Baseline).fetch_tools()]
        });
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
        let timing =
            CoreModel::new(CoreKind::Baseline).timing_of(&o.tools[0], &w.profile().backend);
        let counted = timing.serial.insts + timing.parallel.insts;
        let err = (counted as f64 - total as f64).abs() / total as f64;
        assert!(err < 0.02, "weighted inst count {counted} vs {total}");
    }

    #[test]
    fn characterize_workload_matches_direct_characterization() {
        let w = rebalance_workloads::find("CG").unwrap();
        let direct = rebalance_pintools::characterize(&w.trace(Scale::Smoke).unwrap());
        assert_eq!(
            Run::default().characterize_workload(&w, Scale::Smoke),
            direct,
            "live path"
        );
        let cached = Run {
            cache: Some(TraceCache::scratch().unwrap()),
            ..Run::default()
        };
        for pass in ["cold", "warm"] {
            assert_eq!(
                cached.characterize_workload(&w, Scale::Smoke),
                direct,
                "{pass} cached path"
            );
        }
        let cache = cached.cache.as_ref().unwrap();
        assert_eq!((cache.stats().generations, cache.stats().hits), (1, 1));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn floorplans_helper_runs() {
        use rebalance_mcpat::CmpFloorplan;
        let w = rebalance_workloads::find("MG").unwrap();
        let sims = [CmpSim::new(CmpFloorplan::baseline(8))];
        let results = Run::default().floorplans(&sims, &w, Scale::Smoke);
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
        let results = ftq.floorplans(&sims, &w, Scale::Smoke);
        assert_eq!(
            results,
            simulate_floorplans(&sims, &w, Scale::Smoke, FetchModelKind::Ftq).unwrap()
        );
        assert_ne!(
            results,
            Run::default().floorplans(&sims, &w, Scale::Smoke),
            "the penalty default times cores differently"
        );
    }
}
