//! Shared harness utilities: the process-wide sweep engine, the
//! optional trace cache, and table rendering.
//!
//! Every experiment routes its replays through the helpers here, so
//! exhibits share one [`SweepEngine`] (one replay ledger, one thread
//! pool) and — when [`TRACE_CACHE_ENV`] points at a directory — one
//! on-disk [`TraceCache`]. [`sweep_report`] then accounts for the whole
//! process in a single [`Report`], replacing the ad-hoc per-experiment
//! engines and stat printing this module used to encourage.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::OnceLock;

use rebalance_coresim::{simulate_floorplans, simulate_floorplans_cached, CmpResult, CmpSim};
use rebalance_pintools::{
    characterization_from_tools, characterization_tools, BbvTool, Characterization,
};
use rebalance_trace::{
    Pintool, Report, RunSummary, SampledOutcome, SamplingConfig, SweepEngine, SweepOutcome,
    TraceCache,
};
use rebalance_workloads::{Scale, Suite, Workload};

/// Environment variable naming the trace-cache directory. When set,
/// every experiment replay is served through the cache; when unset,
/// traces are generated live (the pre-cache behavior).
pub const TRACE_CACHE_ENV: &str = "REBALANCE_TRACE_CACHE";

/// Process-wide suite filter: [`u8::MAX`] means "no filter", anything
/// else is a [`Suite::index`]. Set once (by the CLI's `--suite`) before
/// exhibits run; unit tests leave it untouched.
static SUITE_FILTER: AtomicU8 = AtomicU8::new(u8::MAX);

/// Restricts every roster-driven exhibit in this process to one suite
/// (`None` clears the filter). The CLI's `rebalance paper --suite S`
/// sets this exactly once, before any exhibit runs.
pub fn set_suite_filter(suite: Option<Suite>) {
    let value = suite.map_or(u8::MAX, |s| s.index() as u8);
    SUITE_FILTER.store(value, Ordering::Relaxed);
}

/// The active suite filter, if any.
pub fn suite_filter() -> Option<Suite> {
    match SUITE_FILTER.load(Ordering::Relaxed) as usize {
        i if i < Suite::COUNT => Some(Suite::ALL[i]),
        _ => None,
    }
}

/// Drops workloads outside the active suite filter (identity when no
/// filter is set). Exhibits with hand-picked subsets route them through
/// here so `--suite` narrows every exhibit consistently.
pub fn filtered(workloads: Vec<Workload>) -> Vec<Workload> {
    match suite_filter() {
        Some(suite) => workloads
            .into_iter()
            .filter(|w| w.suite() == suite)
            .collect(),
        None => workloads,
    }
}

/// The roster exhibits sweep: the full registry, narrowed by the
/// active suite filter.
pub fn roster() -> Vec<Workload> {
    filtered(rebalance_workloads::all())
}

/// Process-wide phase-sampling latch: 0 intervals means "full replay".
/// Set once (by the CLI's `--sample`/`--sample-k`) before exhibits run,
/// like [`set_suite_filter`].
static SAMPLE_INTERVALS: AtomicUsize = AtomicUsize::new(0);
static SAMPLE_K: AtomicUsize = AtomicUsize::new(0);

/// Turns phase sampling on (`Some(config)`) or off (`None`) for every
/// timing sweep in this process that goes through [`sweep_weighted`].
/// The CLI's `--sample N [--sample-k K]` sets this exactly once, before
/// any exhibit runs.
pub fn set_sampling(config: Option<SamplingConfig>) {
    match config {
        Some(cfg) => {
            SAMPLE_INTERVALS.store(cfg.intervals.max(1), Ordering::Relaxed);
            SAMPLE_K.store(cfg.k.max(1), Ordering::Relaxed);
        }
        None => {
            SAMPLE_INTERVALS.store(0, Ordering::Relaxed);
            SAMPLE_K.store(0, Ordering::Relaxed);
        }
    }
}

/// The active sampling configuration, if phase sampling is on.
pub fn sampling() -> Option<SamplingConfig> {
    let intervals = SAMPLE_INTERVALS.load(Ordering::Relaxed);
    if intervals == 0 {
        return None;
    }
    let k = SAMPLE_K.load(Ordering::Relaxed).max(1);
    Some(
        SamplingConfig::default()
            .with_intervals(intervals)
            .with_k(k),
    )
}

/// The cache sampled sweeps draw snapshot bytes from: the shared cache
/// when `REBALANCE_TRACE_CACHE` is set, else a process-lifetime scratch
/// directory under the system temp dir (sampling needs a recorded
/// snapshot to slice, so it always snapshots — pointing the env var at
/// a persistent directory makes warm sampled sweeps skip generation
/// entirely).
pub fn sampling_cache() -> &'static TraceCache {
    match shared_cache() {
        Some(cache) => cache,
        None => {
            static SCRATCH: OnceLock<TraceCache> = OnceLock::new();
            SCRATCH.get_or_init(|| TraceCache::scratch().expect("temp dir must be writable"))
        }
    }
}

/// The process-wide sweep engine all experiments share.
pub fn engine() -> &'static SweepEngine {
    static ENGINE: OnceLock<SweepEngine> = OnceLock::new();
    ENGINE.get_or_init(SweepEngine::new)
}

/// The process-wide trace cache, opened from [`TRACE_CACHE_ENV`] on
/// first use; `None` when the variable is unset or the directory cannot
/// be created (the experiments then run uncached rather than fail).
pub fn shared_cache() -> Option<&'static TraceCache> {
    static CACHE: OnceLock<Option<TraceCache>> = OnceLock::new();
    CACHE
        .get_or_init(|| {
            let dir = std::env::var_os(TRACE_CACHE_ENV)?;
            TraceCache::new(std::path::PathBuf::from(dir)).ok()
        })
        .as_ref()
}

/// Replay and cache accounting for everything run through [`engine`]
/// so far — the one report the CLI and benches print.
pub fn sweep_report() -> Report {
    let report = engine().report().with_lanes(rebalance_trace::lane_fill());
    match shared_cache() {
        Some(cache) => report.with_cache(cache),
        None => report,
    }
}

/// Sweeps `tools_for` over `workloads` at `scale`, one replay per
/// workload — served from the shared cache when one is configured.
pub fn sweep<T, ToolsFn>(
    workloads: Vec<Workload>,
    scale: Scale,
    tools_for: ToolsFn,
) -> Vec<SweepOutcome<Workload, T>>
where
    T: Pintool + Send,
    ToolsFn: Fn(&Workload) -> Vec<T> + Sync,
{
    match shared_cache() {
        Some(cache) => engine()
            .sweep_cached(
                cache,
                workloads,
                |w| w.trace_key(scale),
                |w| w.trace(scale),
                tools_for,
            )
            .expect("trace cache replay"),
        None => engine().sweep(
            workloads,
            |w| w.trace(scale).expect("valid roster profile"),
            tools_for,
        ),
    }
}

/// Sweeps `tools_for` over `workloads` at `scale` replaying only each
/// trace's weighted representative intervals under `config` — the
/// phase-sampled sibling of [`sweep`]. Tools must be weight-aware
/// ([`Pintool::supports_sampled_replay`]).
pub fn sweep_sampled<T, ToolsFn>(
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
    engine()
        .sweep_sampled(
            sampling_cache(),
            config,
            workloads,
            |w| w.trace_key(scale),
            |w| w.trace(scale),
            tools_for,
            || BbvTool::new(dims),
        )
        .expect("sampled trace replay")
}

/// [`sweep`] that honors the process-wide sampling latch: a full replay
/// per workload when sampling is off, a weighted representative replay
/// when [`set_sampling`] turned it on. Only timing sweeps whose tools
/// are weight-aware should route through here.
pub fn sweep_weighted<T, ToolsFn>(
    workloads: Vec<Workload>,
    scale: Scale,
    tools_for: ToolsFn,
) -> Vec<SweepOutcome<Workload, T>>
where
    T: Pintool + Send,
    ToolsFn: Fn(&Workload) -> Vec<T> + Sync,
{
    match sampling() {
        Some(config) => sweep_sampled(&config, workloads, scale, tools_for)
            .into_iter()
            .map(|o| SweepOutcome {
                item: o.item,
                tools: o.tools,
                summary: o.summary,
            })
            .collect(),
        None => sweep(workloads, scale, tools_for),
    }
}

/// Fans `tools` out over one replay of a single workload's trace —
/// cached when a shared cache is configured.
pub fn fan_out<T: Pintool>(
    workload: &Workload,
    scale: Scale,
    tools: Vec<T>,
) -> (Vec<T>, RunSummary) {
    match shared_cache() {
        Some(cache) => {
            let (tools, replay) = engine()
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
            engine().fan_out(&trace, tools)
        }
    }
}

/// Simulates `sims` over one workload — through the shared cache when
/// one is configured.
pub fn floorplans(sims: &[CmpSim], workload: &Workload, scale: Scale) -> Vec<CmpResult> {
    match shared_cache() {
        Some(cache) => simulate_floorplans_cached(sims, workload, scale, cache),
        None => simulate_floorplans(sims, workload, scale),
    }
    .expect("valid roster profile")
}

/// Characterizes one workload, streaming the dynamic events from the
/// shared cache when one is configured. The program model is still
/// synthesized either way (the static footprint is a static property a
/// dynamic event stream cannot supply), but synthesis is cheap — the
/// cache removes the expensive interpreter pass.
pub fn characterize_workload(workload: &Workload, scale: Scale) -> Characterization {
    let trace = workload.trace(scale).expect("valid roster profile");
    match shared_cache() {
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

/// Runs `f` over the roster (narrowed by the active suite filter)
/// in parallel, returning `(workload, result)` pairs in roster order.
pub fn for_all_workloads<U, F>(f: F) -> Vec<(Workload, U)>
where
    U: Send,
    F: Fn(&Workload) -> U + Sync,
{
    let ws = roster();
    let results = engine().map(&ws, f);
    ws.into_iter().zip(results).collect()
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
        let names = for_all_workloads(|w| w.name().to_owned());
        assert_eq!(names.len(), rebalance_workloads::all().len());
        assert!(names.len() > 41, "kernel archetypes ride along");
        assert_eq!(names[0].0.name(), names[0].1);
    }

    #[test]
    fn roster_without_filter_is_the_full_registry() {
        // Unit tests never set the filter (it is process-wide), so the
        // default view must be the whole registry; `--suite` behavior
        // is exercised end to end by the CLI smoke in CI.
        assert_eq!(suite_filter(), None);
        assert_eq!(roster().len(), rebalance_workloads::all().len());
        let subset = filtered(rebalance_workloads::by_suite(Suite::Npb));
        assert_eq!(
            subset.len(),
            rebalance_workloads::by_suite(Suite::Npb).len()
        );
    }

    #[test]
    fn engine_is_process_wide() {
        assert!(std::ptr::eq(engine(), engine()));
        assert!(engine().executor().threads() >= 1);
    }

    #[test]
    fn sweep_report_tracks_the_shared_engine() {
        let before = sweep_report().replays;
        let w = rebalance_workloads::find("EP").unwrap();
        let (tools, summary) = fan_out(
            &w,
            Scale::Smoke,
            vec![rebalance_trace::NullTool, rebalance_trace::NullTool],
        );
        assert_eq!(tools.len(), 2);
        assert!(summary.instructions > 0);
        // Sibling tests tick the same process-wide engine concurrently,
        // so only a lower bound is stable here; the exact one-replay-
        // per-fan-out accounting is asserted on private engines in the
        // trace crate's tests.
        assert!(sweep_report().replays > before, "the shared ledger moved");
    }

    #[test]
    fn sampling_latch_defaults_to_off() {
        // The latch is process-wide; exhibits' own unit tests run in
        // this binary, so nothing here may flip it on. Round-trip
        // behavior is exercised by `tests/integration_sampling.rs`,
        // which owns its process.
        assert_eq!(sampling(), None);
    }

    #[test]
    fn sampled_sweep_delivers_a_fraction_and_scales_counts() {
        use rebalance_coresim::CoreModel;
        use rebalance_frontend::CoreKind;

        let w = rebalance_workloads::find("CG").unwrap();
        let config = SamplingConfig::default().with_intervals(40).with_k(4);
        let out = sweep_sampled(&config, vec![w.clone()], Scale::Smoke, |_| {
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
        // Without REBALANCE_TRACE_CACHE in the test environment this
        // exercises the live path; the cached path is covered by the
        // integration tests.
        let w = rebalance_workloads::find("CG").unwrap();
        let direct = rebalance_pintools::characterize(&w.trace(Scale::Smoke).unwrap());
        assert_eq!(characterize_workload(&w, Scale::Smoke), direct);
    }

    #[test]
    fn floorplans_helper_runs() {
        use rebalance_mcpat::CmpFloorplan;
        let w = rebalance_workloads::find("MG").unwrap();
        let sims = [CmpSim::new(CmpFloorplan::baseline(8))];
        let results = floorplans(&sims, &w, Scale::Smoke);
        assert_eq!(results.len(), 1);
        assert!(results[0].time_s > 0.0);
    }
}
