//! `rebalance` — the workspace's command-line front door.
//!
//! ```text
//! rebalance trace record CG FT --scale quick      # snapshot traces into the cache
//! rebalance trace info  <file.rbts>...            # header/footer of snapshot files
//! rebalance trace verify <file.rbts>...           # full checksum + structure check
//! rebalance sweep --scale quick                   # predictor sweep, cache-served
//! rebalance sweep --suite kernels                 # kernel-archetype sweep
//! rebalance sweep --model ftq --json out/         # + FTQ-model CPI, JSON dumps
//! rebalance fetch --suite npb                     # decoupled front-end design grid
//! rebalance workloads list --suite kernels        # roster with design knobs
//! rebalance phases --suite kernels                # phase-cluster maps + weights
//! rebalance sweep --sample 160 --sample-k 8       # phase-sampled predictor sweep
//! rebalance paper fig5 table3 --scale quick       # regenerate paper exhibits
//! rebalance paper fig5 --suite npb --model ftq    # one suite, FTQ timing backend
//! ```
//!
//! All replay-heavy subcommands route through the on-disk trace cache
//! (default `target/trace-cache`, override with `--cache DIR`, disable
//! with `--no-cache`) and finish by printing the shared sweep/cache
//! [`Report`](rebalance_trace::Report).

use std::process::ExitCode;

mod args;
mod bench_cmd;
mod fetch_cmd;
mod metrics;
mod paper_cmd;
mod phases_cmd;
mod sweep_cmd;
mod trace_cmd;
mod workloads_cmd;

/// Cache directory used when `--cache` is not given.
const DEFAULT_CACHE_DIR: &str = "target/trace-cache";

/// Best-effort stdout write: a closed pipe (`rebalance ... | head`) is
/// a normal way to stop reading, not a failure worth panicking over
/// (which is what `println!` would do on EPIPE).
fn print_ignoring_pipe(text: &str) {
    use std::io::Write as _;
    let _ = std::io::stdout().write_all(text.as_bytes());
}

/// Writes `value` as pretty-printed JSON to `dir/name.json`, creating
/// the directory if needed (the `--json DIR` machine-readable outputs).
fn write_json<T: serde::Serialize>(dir: &str, name: &str, value: &T) -> Result<(), String> {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{name}.json"));
    let json =
        serde_json::to_string_pretty(value).map_err(|e| format!("cannot serialize {name}: {e}"))?;
    std::fs::write(&path, json).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: rebalance <COMMAND> [OPTIONS]\n\
         \n\
         commands:\n\
         \x20 trace record [WORKLOAD...] [--all] [--scale S] [--cache DIR] [--force]\n\
         \x20     synthesize workloads once and store their snapshots in the cache\n\
         \x20 trace info <FILE...> [--json DIR]\n\
         \x20     print header/footer metadata of snapshot files (--json writes trace_info.json)\n\
         \x20 trace verify <FILE...>\n\
         \x20     fully validate snapshot files (framing, checksum, structure)\n\
         \x20 sweep [--workloads A,B,...] [--suite S] [--scale S] [--json DIR] [--model M] [--cache DIR] [--no-cache]\n\
         \x20     run the nine-predictor sweep, replays served from the cache\n\
         \x20 fetch [--workloads A,B,...] [--suite S] [--scale S] [--json DIR] [--cache DIR] [--no-cache]\n\
         \x20     sweep the decoupled front-end (FTQ + FDIP) design grid, one replay per workload\n\
         \x20 workloads list [--suite S]\n\
         \x20     list the registered roster (paper suites + kernel archetypes)\n\
         \x20 phases [--workloads A,B,...] [--suite S] [--scale S] [--sample N] [--sample-k K] [--json DIR] [--cache DIR] [--no-cache]\n\
         \x20     print each workload's phase-cluster map and per-cluster weights\n\
         \x20 paper [EXHIBIT...|all] [--suite S] [--scale S] [--model M] [--json DIR] [--cache DIR] [--no-cache]\n\
         \x20     regenerate the paper's figures/tables through the cache\n\
         \x20 bench [--workloads A,B,...] [--suite S] [--scale S] [--json DIR]\n\
         \x20     time per-event against batched delivery and telemetry off against on in A/B pairs,\n\
         \x20     write BENCH_replay.json (into --json DIR, else .); fails past the telemetry budget\n\
         \n\
         scales: smoke | quick | full | <positive factor>   (default: smoke)\n\
         suites: exmatex | specomp | npb | specint | kernels\n\
         --model M: CPI timing backend, penalty (closed form) or ftq (decoupled fetch simulator)\n\
         --sample N [--sample-k K]: phase-sample sweep/fetch/paper replays into N intervals,\n\
         \x20    K clusters, replaying one weighted representative per cluster (default 160/8)\n\
         --metrics [text|json[=PATH]]: emit the telemetry snapshot after the report (sweep/fetch/paper/bench;\n\
         \x20    text prints the span tree + top counters, json writes metrics.json)"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        return usage();
    };
    let result = match command.as_str() {
        "trace" => match rest.split_first() {
            Some((sub, rest)) => match sub.as_str() {
                "record" => trace_cmd::record(rest),
                "info" => trace_cmd::info(rest),
                "verify" => trace_cmd::verify(rest),
                _ => return usage(),
            },
            None => return usage(),
        },
        "sweep" => sweep_cmd::run(rest),
        "bench" => bench_cmd::run(rest),
        "fetch" => fetch_cmd::run(rest),
        "paper" => paper_cmd::run(rest),
        "phases" => phases_cmd::run(rest),
        "workloads" => match rest.split_first() {
            Some((sub, rest)) if sub == "list" => workloads_cmd::list(rest),
            _ => return usage(),
        },
        "--help" | "-h" | "help" => return usage(),
        _ => return usage(),
    };
    match result {
        Ok(code) => code,
        Err(message) => {
            eprintln!("rebalance: {message}");
            ExitCode::FAILURE
        }
    }
}
