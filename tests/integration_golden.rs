//! Golden-report conformance harness.
//!
//! For every workload in the full roster (paper suites + kernel
//! archetypes) a canonical characterization report is committed under
//! `tests/golden/<workload>.json`. This test regenerates each report at
//! the smallest scale and diffs it against the committed fixture, so
//! *any* behavioural change anywhere in the pipeline — synthesizer,
//! interpreter, batching, pintools, schedule shapes — shows up as a
//! fixture diff instead of slipping through spot asserts. The same
//! flow pins the per-workload sampled-error records under
//! `tests/golden/sampling/` and whole rendered exhibits under
//! `tests/golden/exhibits/`.
//!
//! To re-bless the fixtures after an *intentional* change:
//!
//! ```text
//! REBALANCE_BLESS=1 cargo test --test integration_golden
//! git diff tests/golden/   # review what actually changed, then commit
//! ```
//!
//! The harness refuses to pass while blessing, so a CI run can never
//! silently rewrite its own expectations.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use rebalance::coresim::FetchModelKind;
use rebalance::pintools::characterize;
use rebalance::workloads::{Suite, Workload};
use rebalance::{Characterization, Scale};
use rebalance_experiments::util::Run;
use rebalance_experiments::{driver, sampling};
use rebalance_trace::{SamplingConfig, TraceCache};
use serde::Serialize;

/// The scale every fixture is recorded at (the smallest, so the
/// harness stays fast enough for every CI run).
const GOLDEN_SCALE: Scale = Scale::Smoke;

/// Environment knob: set to `1` to rewrite fixtures instead of
/// diffing them.
const BLESS_ENV: &str = "REBALANCE_BLESS";

/// Everything a fixture freezes for one workload: identity, cache-key
/// seed, schedule shape, and the full five-tool characterization.
#[derive(Serialize)]
struct GoldenReport {
    workload: String,
    suite: String,
    seed: u64,
    schedule_phases: usize,
    schedule_repeat: u32,
    total_instructions: u64,
    serial_fraction: f64,
    characterization: Characterization,
}

fn golden_dir() -> PathBuf {
    // The facade crate owns the workspace-level tests; fixtures live
    // next to this file at the repository root.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden")
}

fn render_report(workload: &Workload) -> String {
    let trace = workload.trace(GOLDEN_SCALE).expect("roster profile");
    let report = GoldenReport {
        workload: workload.name().to_owned(),
        suite: workload.suite().to_string(),
        seed: trace.seed(),
        schedule_phases: trace.schedule().phases().len(),
        schedule_repeat: trace.schedule().repeat(),
        total_instructions: trace.schedule().total_instructions(),
        serial_fraction: trace.schedule().serial_fraction(),
        characterization: characterize(&trace),
    };
    pretty(&report)
}

/// A fixture's text: pretty JSON with a trailing newline.
fn pretty<T: Serialize>(value: &T) -> String {
    let mut text = serde_json::to_string_pretty(value).expect("fixture serializes");
    text.push('\n');
    text
}

fn blessing() -> bool {
    std::env::var(BLESS_ENV).map(|v| v == "1").unwrap_or(false)
}

/// Diffs `(file name, text)` fixtures against the files committed in
/// `dir` — or, under `REBALANCE_BLESS=1`, rewrites them and fails, so a
/// blessing run never passes.
fn check_fixtures(dir: &Path, rendered: &[(String, String)], what: &str) {
    if blessing() {
        std::fs::create_dir_all(dir).expect("create fixture directory");
        for (name, text) in rendered {
            std::fs::write(dir.join(name), text).expect("write fixture");
        }
        panic!(
            "blessed {} {what} into {}; unset {BLESS_ENV} and re-run to verify",
            rendered.len(),
            dir.display()
        );
    }

    let mut failures = Vec::new();
    for (name, text) in rendered {
        let path = dir.join(name);
        match std::fs::read_to_string(&path) {
            Ok(committed) if committed == *text => {}
            Ok(committed) => {
                let first_diff = committed
                    .lines()
                    .zip(text.lines())
                    .enumerate()
                    .find(|(_, (a, b))| a != b)
                    .map(|(n, (a, b))| format!("line {}: `{a}` != `{b}`", n + 1))
                    .unwrap_or_else(|| "lengths differ".to_owned());
                failures.push(format!("{name}: {first_diff}"));
            }
            Err(e) => failures.push(format!("{name}: missing fixture {} ({e})", path.display())),
        }
    }
    assert!(
        failures.is_empty(),
        "{} {what} drifted from {} — if the change is intentional, re-bless \
         with {BLESS_ENV}=1 and review the diff:\n{}",
        failures.len(),
        dir.display(),
        failures.join("\n")
    );
}

/// Renders the whole roster in parallel (each workload is independent),
/// as `(<workload>.json, text)` pairs.
fn render_all() -> Vec<(String, String)> {
    let workloads = rebalance::workloads::all();
    let mut rendered: Vec<(usize, Workload, String)> = Vec::with_capacity(workloads.len());
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (i, w) in workloads.into_iter().enumerate() {
            handles.push(scope.spawn(move || {
                let text = render_report(&w);
                (i, w, text)
            }));
        }
        for h in handles {
            rendered.push(h.join().expect("render thread"));
        }
    });
    rendered.sort_by_key(|(i, _, _)| *i);
    rendered
        .into_iter()
        .map(|(_, w, text)| (format!("{}.json", w.name()), text))
        .collect()
}

#[test]
fn golden_reports_match_committed_fixtures() {
    check_fixtures(&golden_dir(), &render_all(), "golden report(s)");
}

/// Every committed fixture must belong to a registered workload (or,
/// under `exhibits/`, to a rendered exhibit), so renames/removals
/// cannot leave stale expectations behind.
#[test]
fn no_orphan_fixtures() {
    let workloads: BTreeSet<String> = rebalance::workloads::all()
        .iter()
        .map(|w| format!("{}.json", w.name()))
        .collect();
    let exhibits: BTreeSet<String> = PAPER_EXHIBIT_FILES
        .iter()
        .chain(&FTQ_EXHIBIT_FILES)
        .map(|name| format!("{name}.json"))
        .chain(["fetchsim_sampled.json".to_owned()])
        .collect();
    for (dir, label, names) in [
        (golden_dir(), "golden", &workloads),
        (sampling_dir(), "golden/sampling", &workloads),
        (exhibits_dir(), "golden/exhibits", &exhibits),
    ] {
        let entries = match std::fs::read_dir(&dir) {
            Ok(e) => e,
            // Before the first bless the directory may not exist; the
            // main conformance tests report the missing fixtures.
            Err(_) => continue,
        };
        for entry in entries {
            let entry = entry.expect("dir entry");
            let name = entry.file_name().to_string_lossy().into_owned();
            if entry.file_type().expect("file type").is_dir() {
                assert!(
                    label == "golden" && ["sampling", "exhibits"].contains(&name.as_str()),
                    "unexpected directory tests/{label}/{name} among fixtures"
                );
                continue;
            }
            assert!(
                names.contains(&name),
                "orphan fixture tests/{label}/{name}: no such workload or exhibit"
            );
        }
    }
}

/// Where the per-workload sampled-error records live.
fn sampling_dir() -> PathBuf {
    golden_dir().join("sampling")
}

/// One workload's sampled-vs-full errors under one timing backend,
/// rounded so the fixture freezes behaviour rather than float noise.
#[derive(Serialize)]
struct SampledErrorRow {
    model: String,
    cpi_err: f64,
    max_mpki_err: f64,
    mpki_max_absdiff: f64,
    replayed_fraction: f64,
}

/// The committed sampled-error record for one workload: the sampling
/// geometry it was measured under plus one row per timing backend.
#[derive(Serialize)]
struct SampledErrorRecord {
    workload: String,
    intervals: usize,
    k: usize,
    warmup_intervals: usize,
    rows: Vec<SampledErrorRow>,
}

/// Six decimals is far below any behavioural change worth freezing and
/// far above f64 printing jitter.
fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// Renders every workload's sampled-error record from one shared
/// full-replay + sampled sweep of the whole roster.
fn render_sampling_records() -> Vec<(String, String)> {
    let config = SamplingConfig::default();
    let ex = sampling::run_subset(
        &Run::default(),
        rebalance::workloads::all(),
        GOLDEN_SCALE,
        &config,
    )
    .expect("roster replays");
    let mut records = Vec::new();
    for w in rebalance::workloads::all() {
        let rows = ["penalty", "ftq"]
            .iter()
            .map(|model| {
                let r = ex.row(w.name(), model).expect("exhibit row per model");
                let absdiff = r
                    .full_mpki
                    .iter()
                    .zip(&r.sampled_mpki)
                    .map(|(f, s)| (s - f).abs())
                    .fold(0.0, f64::max);
                SampledErrorRow {
                    model: (*model).to_owned(),
                    cpi_err: round6(r.cpi_err),
                    max_mpki_err: round6(r.max_mpki_err),
                    mpki_max_absdiff: round6(absdiff),
                    replayed_fraction: round6(r.replayed_fraction),
                }
            })
            .collect();
        let record = SampledErrorRecord {
            workload: w.name().to_owned(),
            intervals: config.intervals,
            k: config.k,
            warmup_intervals: config.warmup_intervals,
            rows,
        };
        records.push((format!("{}.json", w.name()), pretty(&record)));
    }
    records
}

/// The sampled-replay sibling of
/// [`golden_reports_match_committed_fixtures`]: the per-workload
/// sampled-vs-full error records under `tests/golden/sampling/` are
/// regenerated and diffed, so any change to the sampler — fingerprints,
/// clustering, warmup, weighting — shows up as a reviewable fixture
/// diff. Bless with the same `REBALANCE_BLESS=1` flow.
#[test]
fn sampled_error_records_match_committed_fixtures() {
    check_fixtures(
        &sampling_dir(),
        &render_sampling_records(),
        "sampled-error record(s)",
    );
}

/// Where whole rendered exhibits live.
fn exhibits_dir() -> PathBuf {
    golden_dir().join("exhibits")
}

/// The `fetchsim` exhibit on a cache-less run at the golden scale, one
/// grid pass per variant: full replays, then phase-sampled replays
/// (160 intervals into 8 clusters).
fn render_fetchsim_exhibits() -> Vec<(String, String)> {
    let sampled = Run {
        sampling: Some(SamplingConfig::default().with_intervals(160).with_k(8)),
        ..Run::default()
    };
    let mut rendered = dump_exhibits(&Run::default(), &["fetchsim"], "");
    rendered.extend(dump_exhibits(&sampled, &["fetchsim"], "_sampled"));
    rendered
}

/// The decoupled front-end design grid, pinned whole: every design
/// point's per-suite bandwidth and stall breakdown, full and sampled,
/// so any change to the fetch model — or to how the grid shares work —
/// shows up as a fixture diff.
#[test]
fn fetchsim_exhibits_match_committed_fixtures() {
    check_fixtures(
        &exhibits_dir(),
        &render_fetchsim_exhibits(),
        "fetchsim exhibit(s)",
    );
}

/// The JSON dumps `rebalance paper all --scale smoke --json DIR` writes,
/// by file stem. `fetchsim` is the same file
/// [`fetchsim_exhibits_match_committed_fixtures`] pins.
const PAPER_EXHIBIT_FILES: [&str; 21] = [
    "fig1",
    "fig2",
    "table1",
    "fig3",
    "fig4",
    "table2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "table3",
    "fig10",
    "fig10_raw",
    "fig11",
    "ablations",
    "detail",
    "kernels_characterization",
    "kernels_predictors",
    "fetchsim",
    "sampling",
];

/// The exhibits whose numbers depend on the CPI timing backend, dumped
/// again under `--model ftq` with an `_ftq` suffix.
const FTQ_EXHIBITS: [&str; 3] = ["fig10", "fig11", "sampling"];

/// The file stems [`FTQ_EXHIBITS`] dump under `--model ftq`.
const FTQ_EXHIBIT_FILES: [&str; 4] = ["fig10_ftq", "fig10_raw_ftq", "fig11_ftq", "sampling_ftq"];

/// Runs `exhibits` through the exhibit driver on `run`, exactly as
/// `rebalance paper … --json DIR` does, and returns every JSON dump as
/// `(<stem><suffix>.json, text)` pairs in name order, each text with a
/// trailing newline like every other fixture.
fn dump_exhibits(run: &Run, exhibits: &[&str], suffix: &str) -> Vec<(String, String)> {
    static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "rebalance-golden-exhibits-{}-{}",
        std::process::id(),
        NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let names: Vec<String> = exhibits.iter().map(|e| (*e).to_owned()).collect();
    let names = driver::resolve_exhibits(&names).expect("known exhibits");
    driver::run_exhibits(run, &names, GOLDEN_SCALE, Some(&dir), &mut std::io::sink())
        .expect("exhibits render");
    let mut dumped: Vec<(String, String)> = std::fs::read_dir(&dir)
        .expect("dump directory")
        .map(|entry| {
            let path = entry.expect("dump entry").path();
            let stem = path.file_stem().expect("file stem").to_string_lossy();
            let mut text = std::fs::read_to_string(&path).expect("dump readable");
            text.push('\n');
            (format!("{stem}{suffix}.json"), text)
        })
        .collect();
    dumped.sort();
    let _ = std::fs::remove_dir_all(&dir);
    dumped
}

/// Every exhibit of `paper all`, then the timing-backend-dependent ones
/// again under the FTQ model, all on `run`.
fn render_paper_exhibits(mut run: Run) -> Vec<(String, String)> {
    let mut rendered = dump_exhibits(&run, &["all"], "");
    run.fetch_model = FetchModelKind::Ftq;
    rendered.extend(dump_exhibits(&run, &FTQ_EXHIBITS, "_ftq"));
    let expected: BTreeSet<String> = PAPER_EXHIBIT_FILES
        .iter()
        .chain(&FTQ_EXHIBIT_FILES)
        .map(|name| format!("{name}.json"))
        .collect();
    let names: BTreeSet<String> = rendered.iter().map(|(name, _)| name.clone()).collect();
    assert_eq!(names, expected, "the exhibit driver's dump set changed");
    rendered
}

/// Every exhibit the paper driver renders, pinned whole on a cache-less
/// run: any change to a figure's or table's numbers fails here with the
/// first differing line.
#[test]
fn paper_exhibits_match_committed_fixtures_without_a_cache() {
    check_fixtures(
        &exhibits_dir(),
        &render_paper_exhibits(Run::default()),
        "paper exhibit(s)",
    );
}

/// The same fixtures through a scratch trace cache: the cold cache
/// records every trace while the exhibits read it, and the answers must
/// not change with the replay path.
#[test]
fn paper_exhibits_match_committed_fixtures_through_a_cache() {
    let cache = TraceCache::scratch().expect("scratch cache");
    let dir = cache.dir().to_path_buf();
    let run = Run {
        cache: Some(cache),
        ..Run::default()
    };
    let rendered = render_paper_exhibits(run);
    let _ = std::fs::remove_dir_all(dir);
    check_fixtures(&exhibits_dir(), &rendered, "paper exhibit(s)");
}

/// Which exhibits share a replay never changes an answer: each exhibit
/// run alone on a cache-less NPB run dumps exactly the bytes the same
/// stems hold after one `all` run.
#[test]
fn each_exhibit_alone_dumps_what_all_dumps() {
    let npb = || Run {
        suite: Some(Suite::Npb),
        ..Run::default()
    };
    let all = dump_exhibits(&npb(), &["all"], "");
    for exhibit in driver::EXHIBITS {
        let dumps = dump_exhibits(&npb(), &[exhibit], "");
        assert!(!dumps.is_empty(), "{exhibit} dumped nothing");
        for (name, text) in dumps {
            let (_, expected) = all
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("`all` dumped no {name}"));
            assert!(text == *expected, "{exhibit} alone changes {name}");
        }
    }
}

/// The report renderer itself is deterministic — a fixture mismatch
/// therefore always means behaviour changed, never flaky output.
#[test]
fn golden_rendering_is_deterministic() {
    let w = rebalance::workloads::find("k.fft").expect("kernel roster");
    assert_eq!(render_report(&w), render_report(&w));
    let cg = rebalance::workloads::find("CG").expect("paper roster");
    assert_eq!(render_report(&cg), render_report(&cg));
}
