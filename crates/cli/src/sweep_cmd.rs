//! `rebalance sweep` — the nine-configuration predictor sweep, replays
//! served from the trace cache, the nine configurations measured by one
//! predictor bank. With `--model`, both paper cores ride the same
//! replay: their configurations join the bank's keys.
//!
//! The command is split into a *compute* half (replay the selection,
//! reduce to plain per-workload rows) and a *render* half (tables and
//! JSON from those rows), so the printed tables and the `--json` dumps
//! are rendered from the same rows.

use std::process::ExitCode;

use rebalance_coresim::{add_keys, CoreModel, CoreTiming, FetchModelKind, FrontendKeys};
use rebalance_experiments::util::{self, f2, Run, RunError, TextTable};
use rebalance_fetchsim::FetchGrid;
use rebalance_frontend::predictor::PredictorBank;
use rebalance_frontend::{BtbSim, CoreKind, ICacheBank, PredictorChoice};
use rebalance_trace::{Section, Timed, ToolSet};
use rebalance_workloads::{Suite, Workload};
use serde::Serialize;

use crate::args;

/// Machine-readable mirror of the printed MPKI table (`--json DIR`
/// writes it as `sweep.json`, next to the shared `report.json`).
#[derive(Debug, Serialize)]
struct SweepJson {
    scale: String,
    configs: Vec<String>,
    rows: Vec<SweepJsonRow>,
}

/// One workload's MPKI under every configuration.
#[derive(Debug, Serialize)]
struct SweepJsonRow {
    workload: String,
    suite: Suite,
    mpki: Vec<f64>,
}

/// The reduced result of the sweep's compute half: everything the
/// render half needs, with no live tools.
struct SweepRows {
    rows: Vec<SweepJsonRow>,
    cpi: Option<Vec<CpiJsonRow>>,
}

/// The keys one sweep replay measures: what each of `models` is priced
/// from, and the nine Figure 5 choices. The paper cores' predictors are
/// Figure 5 choices, so they add no predictor.
pub(crate) fn sweep_keys(models: &[CoreModel]) -> FrontendKeys {
    let mut keys = FrontendKeys::of(models);
    add_keys(&mut keys.predictors, PredictorChoice::figure5_set());
    keys
}

/// Fresh tools for `keys`. The predictor bank runs each distinct base
/// predictor once per branch, and it is the one timed family: with
/// telemetry on, its `on_batch` time lands on one counter,
/// `tool.predictors.on_batch_ns`, not on one per configuration (timing
/// each base inside the bank would take two clock reads per branch and
/// base, which costs more than the sharing saves). Without `--model`
/// the other families are empty, cost nothing and read no plain event.
pub(crate) fn sweep_tools(
    keys: &FrontendKeys,
) -> (Timed<PredictorBank>, ToolSet<BtbSim>, ICacheBank, FetchGrid) {
    let (predictors, btbs, icaches, fetch) = keys.tools();
    (Timed::new("predictors", predictors), btbs, icaches, fetch)
}

/// Replays the selection once per workload and reduces it to
/// per-workload rows; with `model`, both paper cores' CPI through the
/// chosen timing backend, from the same replay.
fn compute(
    run: &Run,
    workloads: &[Workload],
    scale: rebalance_workloads::Scale,
    model: Option<FetchModelKind>,
) -> Result<SweepRows, RunError> {
    let models = model.map(|kind| {
        [CoreKind::Baseline, CoreKind::Tailored].map(|k| CoreModel::new(k).with_fetch_model(kind))
    });
    let keys = sweep_keys(models.as_ref().map_or(&[], |m| &m[..]));
    let outcomes = run.sweep_weighted(workloads.to_vec(), scale, |_| vec![sweep_tools(&keys)])?;
    let configs = PredictorChoice::figure5_set();
    let mut rows = Vec::new();
    let mut cpi = Vec::new();
    for o in &outcomes {
        let (predictors, btbs, icaches, fetch) = &o.tools[0];
        let reports = keys.reports_of(predictors, btbs.iter().as_slice(), icaches, fetch);
        rows.push(SweepJsonRow {
            workload: o.item.name().to_owned(),
            suite: o.item.suite(),
            mpki: (configs.iter())
                .map(|&c| reports.predictor(c).total().mpki())
                .collect(),
        });
        if let Some(models) = &models {
            let timings = reports.timings(models, &o.item.profile().backend);
            cpi.push(cpi_row(&o.item, &timings));
        }
    }
    Ok(SweepRows {
        rows,
        cpi: models.map(|_| cpi),
    })
}

/// Runs the sweep and prints MPKI plus the shared replay/cache report:
/// per-suite means over multi-suite selections, per-workload rows when
/// a single suite is selected (`--suite kernels` reads best that way).
/// With `--model {penalty,ftq}`, a per-workload CPI table measured
/// through the chosen timing backend follows.
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let parsed = args::parse(argv)?;
    args::forbid(&[(parsed.force, "--force")])?;
    let workloads = args::resolve_workloads(&parsed.positional, parsed.all, parsed.suite)?;
    let run = args::run(&parsed)?;
    args::configure_metrics(&parsed);

    let configs = PredictorChoice::figure5_set();
    let (data, report) = {
        // The whole compute half nests under one `sweep` span, closed
        // before the snapshot `metrics::emit` takes below.
        let _sweep_span = rebalance_telemetry::span("sweep");
        (
            compute(&run, &workloads, parsed.scale, parsed.model).map_err(|e| e.to_string())?,
            run.report(),
        )
    };

    let suites: Vec<Suite> = Suite::ALL
        .into_iter()
        .filter(|s| data.rows.iter().any(|r| r.suite == *s))
        .collect();

    let table = if suites.len() == 1 {
        // Single suite: per-workload rows, configs as columns.
        let mut header = vec!["workload".to_owned()];
        header.extend(configs.iter().map(|c| c.label()));
        let mut t = TextTable::new(header);
        for r in &data.rows {
            let mut cells = vec![r.workload.clone()];
            cells.extend(r.mpki.iter().map(|m| f2(*m)));
            t.row(cells);
        }
        t
    } else {
        // Multi-suite: per-suite means, suites as columns.
        let mut header = vec!["config".to_owned()];
        header.extend(suites.iter().map(|s| s.to_string()));
        let mut t = TextTable::new(header);
        for (ci, config) in configs.iter().enumerate() {
            let mut cells = vec![config.label()];
            for suite in &suites {
                let mpki = util::mean(
                    data.rows
                        .iter()
                        .filter(|r| r.suite == *suite)
                        .map(|r| r.mpki[ci]),
                );
                cells.push(f2(mpki));
            }
            t.row(cells);
        }
        t
    };
    let heading = if suites.len() == 1 {
        format!("branch MPKI per workload ({} suite)", suites[0])
    } else {
        "branch MPKI per predictor configuration (mean per suite)".to_owned()
    };

    let cpi = data.cpi.map(|rows| CpiJson {
        model: parsed
            .model
            .expect("CPI rows exist only with --model")
            .to_string(),
        rows,
    });

    if let Some(dir) = &parsed.json_dir {
        let json = SweepJson {
            scale: parsed.scale.to_string(),
            configs: configs.iter().map(|c| c.label()).collect(),
            rows: data.rows,
        };
        crate::write_json(dir, "sweep", &json)?;
        // Everything `--model` adds to the terminal lands in the dump
        // too, as its own file.
        if let Some(cpi) = &cpi {
            crate::write_json(dir, "cpi", cpi)?;
        }
        crate::write_json(dir, "report", &report)?;
    }

    crate::print_ignoring_pipe(&format!(
        "{heading}\n{}{}{report}\n",
        table.render(),
        cpi.as_ref().map(render_cpi).unwrap_or_default(),
    ));
    crate::metrics::emit(&parsed, Some(&report))?;
    Ok(ExitCode::SUCCESS)
}

/// Per-workload CPI of both paper cores under one timing backend — the
/// `--model` addendum, printed and (with `--json`) dumped as
/// `cpi.json`.
#[derive(Debug, Serialize)]
struct CpiJson {
    model: String,
    rows: Vec<CpiJsonRow>,
}

/// One workload's CPI on its dominant section.
#[derive(Debug, Serialize)]
struct CpiJsonRow {
    workload: String,
    suite: Suite,
    section: String,
    baseline_cpi: f64,
    tailored_cpi: f64,
}

/// The CPI row of `workload` from the baseline and tailored `timings`,
/// on its dominant section.
fn cpi_row(workload: &Workload, timings: &[CoreTiming]) -> CpiJsonRow {
    let section = if workload.suite().has_parallel_sections() {
        Section::Parallel
    } else {
        Section::Serial
    };
    CpiJsonRow {
        workload: workload.name().to_owned(),
        suite: workload.suite(),
        section: format!("{section:?}").to_lowercase(),
        baseline_cpi: timings[0].section(section).cpi,
        tailored_cpi: timings[1].section(section).cpi,
    }
}

/// Renders the CPI addendum as a table.
fn render_cpi(cpi: &CpiJson) -> String {
    let mut t = TextTable::new(vec![
        "workload",
        "section",
        "baseline CPI",
        "tailored CPI",
        "tailored/baseline",
    ]);
    for r in &cpi.rows {
        t.row(vec![
            r.workload.clone(),
            r.section.clone(),
            f2(r.baseline_cpi),
            f2(r.tailored_cpi),
            f2(r.tailored_cpi / r.baseline_cpi),
        ]);
    }
    format!("per-workload CPI ({} model)\n{}", cpi.model, t.render())
}
