//! `rebalance trace record|info|verify` — snapshot management.

use std::path::Path;
use std::process::ExitCode;

use rebalance_experiments::util::TextTable;
use rebalance_trace::{snapshot, SnapshotInfo};
use serde::Serialize;

use crate::args;

/// `trace info`/`trace verify` operate on explicit snapshot files, so
/// every workload/cache/scale option is inapplicable (`trace info`
/// accepts `--json` for its machine-readable dump and checks it
/// separately).
fn forbid_file_subcommand_flags(parsed: &args::Parsed) -> Result<(), String> {
    args::forbid(&[
        (parsed.no_cache, "--no-cache"),
        (parsed.cache_dir.is_some(), "--cache"),
        (parsed.all, "--all"),
        (parsed.force, "--force"),
        (parsed.suite.is_some(), "--suite"),
        (parsed.model.is_some(), "--model"),
    ])?;
    args::forbid(&args::sampling_flags(parsed))?;
    args::forbid(&args::metrics_flag(parsed))
}

/// Per-file info rows plus the aggregate `bytes_per_event` across all
/// listed snapshots.
fn render_info_footer(infos: &[SnapshotInfo]) -> String {
    let events: u64 = infos.iter().map(|i| i.summary.instructions).sum();
    let branches: u64 = infos.iter().map(|i| i.summary.branches).sum();
    let bytes: u64 = infos.iter().map(|i| i.total_bytes).sum();
    let per_event = if events == 0 {
        0.0
    } else {
        bytes as f64 / events as f64
    };
    let branch_pct = if events == 0 {
        0.0
    } else {
        100.0 * branches as f64 / events as f64
    };
    format!(
        "total: {} snapshot(s), {events} events, {bytes} bytes, {per_event:.2} bytes/event\n\
         lanes: {branch_pct:.1}% branch fill\n",
        infos.len(),
    )
}

fn info_row(table: &mut TextTable, label: &str, info: &SnapshotInfo) {
    table.row(vec![
        label.to_owned(),
        info.summary.instructions.to_string(),
        info.summary.branches.to_string(),
        info.sections.serial.to_string(),
        info.sections.parallel.to_string(),
        info.total_bytes.to_string(),
        format!("{:.2}", info.bytes_per_event()),
        format!("{:016x}", info.fingerprint),
    ]);
}

fn info_table() -> TextTable {
    TextTable::new(vec![
        "snapshot",
        "instructions",
        "branches",
        "serial",
        "parallel",
        "bytes",
        "B/event",
        "fingerprint",
    ])
}

/// `rebalance trace record`: synthesize each workload once and store
/// its snapshot in the cache (skipping fresh entries unless `--force`).
pub fn record(argv: &[String]) -> Result<ExitCode, String> {
    let parsed = args::parse(argv)?;
    args::forbid(&[
        (
            parsed.no_cache,
            "--no-cache (record always writes the cache)",
        ),
        (parsed.json_dir.is_some(), "--json"),
        (parsed.model.is_some(), "--model"),
    ])?;
    args::forbid(&args::sampling_flags(&parsed))?;
    args::forbid(&args::metrics_flag(&parsed))?;
    let workloads = args::resolve_workloads(&parsed.positional, parsed.all, parsed.suite)?;
    let cache = args::open_cache(&parsed)?;
    let scale = parsed.scale;

    let mut table = info_table();
    let mut recorded = 0usize;
    let mut skipped = 0usize;
    for w in &workloads {
        let key = w.trace_key(scale);
        if !parsed.force && cache.contains(&key) {
            if let Ok(info) = snapshot::read_info(&cache.path_for(&key)) {
                info_row(&mut table, &format!("{} (cached)", w.name()), &info);
                skipped += 1;
                continue;
            }
            // Unreadable existing snapshot: fall through and rewrite.
        }
        let trace = w.trace(scale)?;
        let info = cache.record(&key, &trace).map_err(|e| e.to_string())?;
        info_row(&mut table, w.name(), &info);
        recorded += 1;
    }
    print!("{}", table.render());
    println!(
        "recorded {recorded} snapshot(s), reused {skipped}, at scale {scale} in {}",
        cache.dir().display()
    );
    // Full cache accounting, write failures included — a record run
    // that silently failed to persist must be visible here.
    println!("cache: {}", cache.stats());
    Ok(ExitCode::SUCCESS)
}

/// Machine-readable mirror of `trace info` (`--json DIR` writes it as
/// `trace_info.json`): per-snapshot rows plus the aggregate footer.
#[derive(Debug, Serialize)]
struct TraceInfoJson {
    snapshots: Vec<TraceInfoRow>,
    total: TraceInfoTotals,
}

/// One snapshot file's metadata.
#[derive(Debug, Serialize)]
struct TraceInfoRow {
    file: String,
    instructions: u64,
    branches: u64,
    serial: u64,
    parallel: u64,
    bytes: u64,
    bytes_per_event: f64,
    /// Content fingerprint, in the same hex spelling the table prints.
    fingerprint: String,
}

/// The aggregate footer over every listed snapshot.
#[derive(Debug, Serialize)]
struct TraceInfoTotals {
    snapshots: usize,
    events: u64,
    branches: u64,
    bytes: u64,
    bytes_per_event: f64,
    branch_fill_pct: f64,
}

fn trace_info_json(files: &[String], infos: &[SnapshotInfo]) -> TraceInfoJson {
    let events: u64 = infos.iter().map(|i| i.summary.instructions).sum();
    let branches: u64 = infos.iter().map(|i| i.summary.branches).sum();
    let bytes: u64 = infos.iter().map(|i| i.total_bytes).sum();
    TraceInfoJson {
        snapshots: files
            .iter()
            .zip(infos)
            .map(|(file, info)| TraceInfoRow {
                file: file.clone(),
                instructions: info.summary.instructions,
                branches: info.summary.branches,
                serial: info.sections.serial,
                parallel: info.sections.parallel,
                bytes: info.total_bytes,
                bytes_per_event: info.bytes_per_event(),
                fingerprint: format!("{:016x}", info.fingerprint),
            })
            .collect(),
        total: TraceInfoTotals {
            snapshots: infos.len(),
            events,
            branches,
            bytes,
            bytes_per_event: if events == 0 {
                0.0
            } else {
                bytes as f64 / events as f64
            },
            branch_fill_pct: if events == 0 {
                0.0
            } else {
                100.0 * branches as f64 / events as f64
            },
        },
    }
}

/// `rebalance trace info`: print header/footer metadata per file;
/// `--json DIR` additionally writes the same rows as
/// `trace_info.json`.
pub fn info(argv: &[String]) -> Result<ExitCode, String> {
    let parsed = args::parse(argv)?;
    forbid_file_subcommand_flags(&parsed)?;
    if parsed.positional.is_empty() {
        return Err("trace info needs at least one snapshot file".into());
    }
    let mut table = info_table();
    let mut infos = Vec::new();
    for file in &parsed.positional {
        let info = snapshot::read_info(Path::new(file)).map_err(|e| format!("{file}: {e}"))?;
        info_row(&mut table, file, &info);
        infos.push(info);
    }
    if let Some(dir) = &parsed.json_dir {
        let json = trace_info_json(&parsed.positional, &infos);
        crate::write_json(dir, "trace_info", &json)?;
    }
    print!("{}", table.render());
    print!("{}", render_info_footer(&infos));
    Ok(ExitCode::SUCCESS)
}

/// `rebalance trace verify`: full validation per file; nonzero exit if
/// any file fails.
pub fn verify(argv: &[String]) -> Result<ExitCode, String> {
    let parsed = args::parse(argv)?;
    forbid_file_subcommand_flags(&parsed)?;
    // Verification prints pass/fail per file; there is no dump for it.
    args::forbid(&[(parsed.json_dir.is_some(), "--json")])?;
    if parsed.positional.is_empty() {
        return Err("trace verify needs at least one snapshot file".into());
    }
    let mut failures = 0usize;
    for file in &parsed.positional {
        match snapshot::verify_file(Path::new(file)) {
            Ok(info) => println!(
                "{file}: OK ({} events, {} bytes)",
                info.summary.instructions, info.total_bytes
            ),
            Err(e) => {
                println!("{file}: FAILED ({e})");
                failures += 1;
            }
        }
    }
    Ok(if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
