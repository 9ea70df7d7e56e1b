//! Shared `--metrics` emission: after a subcommand prints its report,
//! this renders or writes the run's record next to the process-wide
//! telemetry snapshot.

use rebalance_telemetry as telemetry;
use rebalance_trace::Report;

use crate::args::{MetricsMode, Parsed};

/// Emits the run's `report` (its replay, cache and lane ledger; `None`
/// for `bench`, which replays in memory outside any run) and the
/// telemetry snapshot according to `--metrics`: `text` prints the
/// report line, the span tree and the top counters to stdout, `json`
/// writes a versioned `metrics.json` with the report under `report`
/// (into the `--json` directory when one was given, the working
/// directory otherwise, or an explicit `json=PATH`). A no-op without
/// the flag, which is also the only switch that turns collection on.
///
/// # Errors
///
/// The JSON file could not be created or written.
pub fn emit(parsed: &Parsed, report: Option<&Report>) -> Result<(), String> {
    let Some(mode) = &parsed.metrics else {
        return Ok(());
    };
    let snap = telemetry::snapshot();
    match mode {
        MetricsMode::Text => {
            let report = report.map_or_else(|| "none".to_owned(), Report::to_string);
            crate::print_ignoring_pipe(&format!("{}\n", snap.render_text(&report)));
        }
        MetricsMode::Json(path) => {
            let path = match path {
                Some(p) => std::path::PathBuf::from(p),
                None => match &parsed.json_dir {
                    Some(dir) => std::path::Path::new(dir).join("metrics.json"),
                    None => std::path::PathBuf::from("metrics.json"),
                },
            };
            if let Some(parent) = path.parent() {
                if !parent.as_os_str().is_empty() {
                    std::fs::create_dir_all(parent)
                        .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
                }
            }
            let report = match report {
                Some(report) => serde_json::to_string(report)
                    .map_err(|e| format!("cannot serialize the run report: {e}"))?,
                None => "null".to_owned(),
            };
            std::fs::write(&path, snap.to_json(&report))
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            crate::print_ignoring_pipe(&format!("metrics written to {}\n", path.display()));
        }
    }
    Ok(())
}
