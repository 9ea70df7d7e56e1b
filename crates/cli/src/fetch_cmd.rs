//! `rebalance fetch` — sweep the decoupled front-end (FTQ + FDIP)
//! design grid, replays served from the trace cache.

use std::process::ExitCode;

use rebalance_experiments::fetchsim::{self, FetchSummary};
use rebalance_experiments::util::{f2, mean, TextTable};

use crate::args;

/// The flagship design-point pair the per-workload table contrasts:
/// deep FTQ, 4-wide, FDIP on, large vs small BTB.
const BIG_BTB: &str = "ftq16/w4/pf4/btb2048";
const SMALL_BTB: &str = "ftq16/w4/pf4/btb256";

/// Runs the grid sweep and prints mean bandwidth/stall tables, the
/// per-workload small-BTB retention table, and the shared replay/cache
/// report. `--json DIR` additionally dumps the raw sweep and report.
pub fn run(argv: &[String]) -> Result<ExitCode, String> {
    let parsed = args::parse(argv)?;
    args::forbid(&[
        (parsed.force, "--force"),
        (
            parsed.model.is_some(),
            "--model (fetch always runs the FTQ model)",
        ),
    ])?;
    let workloads = args::resolve_workloads(&parsed.positional, parsed.all, parsed.suite)?;
    let run = args::run(&parsed)?;
    args::configure_metrics(&parsed);

    let (sweep, report) = {
        let _fetch_span = rebalance_telemetry::span("fetch");
        (
            fetchsim::sweep_grid(&run, workloads, parsed.scale).map_err(|e| e.to_string())?,
            run.report(),
        )
    };

    // Per design point: selection-mean bandwidth and stall breakdown.
    let mut designs = TextTable::new(vec![
        "config",
        "bandwidth",
        "mispredict",
        "resteer",
        "icache",
        "ftq-empty",
    ]);
    for (ci, config) in sweep.configs.iter().enumerate() {
        let col =
            |f: fn(&FetchSummary) -> f64| mean(sweep.rows.iter().map(|r| f(&r.summaries[ci])));
        designs.row(vec![
            config.clone(),
            f2(col(|s| s.bandwidth)),
            f2(col(|s| s.mispredict_cpk)),
            f2(col(|s| s.resteer_cpk)),
            f2(col(|s| s.icache_cpk)),
            f2(col(|s| s.ftq_empty_cpk)),
        ]);
    }

    // Per workload: what shrinking the BTB 8x costs under FDIP.
    let mut retention = TextTable::new(vec![
        "workload",
        "suite",
        "bw btb2048",
        "bw btb256",
        "retention",
        "serial bw",
        "parallel bw",
    ]);
    for row in &sweep.rows {
        let cell = |config: &str| sweep.summary(&row.workload, config).expect("grid config");
        let (big, small) = (cell(BIG_BTB), cell(SMALL_BTB));
        let ratio = if big.bandwidth > 0.0 {
            small.bandwidth / big.bandwidth
        } else {
            0.0
        };
        retention.row(vec![
            row.workload.clone(),
            row.suite.to_string(),
            f2(big.bandwidth),
            f2(small.bandwidth),
            f2(ratio),
            f2(small.serial_bandwidth),
            f2(small.parallel_bandwidth),
        ]);
    }

    if let Some(dir) = &parsed.json_dir {
        crate::write_json(dir, "fetch", &sweep)?;
        crate::write_json(dir, "report", &report)?;
    }

    crate::print_ignoring_pipe(&format!(
        "fetch timing: design-grid means over the selection (insts/cycle; stall cycles per kilo-inst)\n{}\n\
         fetch timing: small-BTB bandwidth retention per workload ({SMALL_BTB} vs {BIG_BTB})\n{}{report}\n",
        designs.render(),
        retention.render(),
    ));
    crate::metrics::emit(&parsed, Some(&report))?;
    Ok(ExitCode::SUCCESS)
}
