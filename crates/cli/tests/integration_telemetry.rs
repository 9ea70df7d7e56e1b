//! End-to-end telemetry: with metrics enabled, a warm `sweep` writes a
//! versioned `metrics.json` carrying the run's report (its replay,
//! cache and lane ledger), the per-tool counters and a replay span
//! forest that satisfies the attribution invariant (a span's children
//! never account for more time than the span itself), and collecting it
//! does not change the sweep's results.

use std::path::{Path, PathBuf};
use std::process::Command;

use rebalance_trace::snapshot::read_info;
use rebalance_trace::SNAPSHOT_EXT;
use serde::Value;

const BIN: &str = env!("CARGO_BIN_EXE_rebalance");

/// Workloads under test: small enough to stay quick at smoke scale.
const WORKLOADS: &str = "CG,FT,MG";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rebalance-telemetry-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the binary, returning stdout; panics on failure with stderr.
fn run(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        .output()
        .expect("spawn rebalance");
    assert!(
        out.status.success(),
        "rebalance {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn load_metrics(dir: &Path) -> Value {
    let path = dir.join("metrics.json");
    let text =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    serde_json::from_str(&text).unwrap_or_else(|e| panic!("parse {}: {e:?}", path.display()))
}

/// True when a `replay` span sits anywhere in the span forest (replays
/// run on pool threads, so their roots may sit at any depth relative
/// to the command span).
fn has_replay_span(name: &str, node: &Value) -> bool {
    name == "replay"
        || node
            .get("children")
            .and_then(Value::as_map)
            .is_some_and(|children| children.iter().any(|(n, c)| has_replay_span(n, c)))
}

/// The attribution invariant, checked over the raw JSON: for every
/// recorded span, the children's total time never exceeds the span's
/// own measurement, so each nanosecond belongs to exactly one leaf
/// (self-time counting as an implicit leaf). The synthetic root has
/// `count == 0` and is skipped.
fn check_attribution(path: &str, node: &Value) {
    let total = node
        .get("total_ns")
        .and_then(Value::as_u64)
        .expect("span total_ns");
    let count = node.get("count").and_then(Value::as_u64).expect("count");
    let children = node.get("children").and_then(Value::as_map).unwrap_or(&[]);
    let kids: u64 = children
        .iter()
        .map(|(_, c)| c.get("total_ns").and_then(Value::as_u64).unwrap_or(0))
        .sum();
    assert!(
        count == 0 || kids <= total,
        "span {path}: children account for {kids}ns but the span measured {total}ns"
    );
    for (name, child) in children {
        check_attribution(&format!("{path}/{name}"), child);
    }
}

/// Instructions and branches over every snapshot in a cache directory,
/// read from their footers.
fn footer_totals(cache: &Path) -> (u64, u64) {
    let mut totals = (0, 0);
    let entries = std::fs::read_dir(cache).unwrap_or_else(|e| panic!("{}: {e}", cache.display()));
    for entry in entries {
        let path = entry.expect("cache entry").path();
        if path.extension().is_some_and(|ext| ext == SNAPSHOT_EXT) {
            let info = read_info(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            totals.0 += info.summary.instructions;
            totals.1 += info.summary.branches;
        }
    }
    totals
}

#[test]
fn warm_sweep_metrics_hold_their_invariants_and_leave_results_unchanged() {
    let cache = scratch("cache");
    let json = scratch("json");

    // Warm the cache first so both measured runs replay the same
    // snapshots: all hits, zero generations.
    run(&[
        "trace",
        "record",
        "CG",
        "FT",
        "MG",
        "--cache",
        cache.to_str().unwrap(),
    ]);

    let sweep = [
        "sweep",
        "--workloads",
        WORKLOADS,
        "--cache",
        cache.to_str().unwrap(),
    ];
    let plain = run(&sweep);
    let metrics_arg = format!("json={}", json.join("metrics.json").display());
    let mut with_metrics_args = sweep.to_vec();
    with_metrics_args.extend(["--metrics", metrics_arg.as_str()]);
    let with_metrics = run(&with_metrics_args);

    // Telemetry must not disturb the replay results themselves: the
    // sweep output (everything before the metrics footer) matches a
    // run without `--metrics`.
    let table_of = |out: &str| {
        out.lines()
            .take_while(|l| !l.starts_with("metrics written"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        table_of(&plain),
        table_of(&with_metrics),
        "sweep output diverged"
    );

    let m = load_metrics(&json);
    assert_eq!(m.get("version").and_then(Value::as_u64), Some(2));

    // The run's one ledger: a warm sweep of three workloads is three
    // replays, all cache hits, none generated, and its lanes carry
    // every delivered event: the three snapshots' footer instruction
    // totals, though the sweep's branch-only batches store no plain
    // events.
    let report = m.get("report").expect("metrics.json: the run report");
    let field = |path: &[&str]| {
        path.iter()
            .try_fold(report, |v, key| v.get(key))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("report.{} in {report:?}", path.join(".")))
    };
    assert_eq!(field(&["replays"]), 3);
    assert_eq!(field(&["cache", "hits"]), 3);
    assert_eq!(field(&["cache", "generations"]), 0);
    let (instructions, branches) = footer_totals(&cache);
    assert_eq!(field(&["lanes", "instructions"]), instructions);
    assert_eq!(field(&["lanes", "branches"]), branches);

    let counters = m
        .get("counters")
        .and_then(Value::as_map)
        .expect("metrics.json: counters map");
    assert!(
        counters.iter().any(|(k, _)| k.ends_with(".on_batch_calls")),
        "expected per-tool counters in {counters:?}"
    );

    let spans = m.get("spans").expect("spans");
    assert!(has_replay_span("", spans), "expected replay spans in {m:?}");
    check_attribution("", spans);

    for dir in [cache, json] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// The first span named `name` anywhere in a span forest level (a map
/// of span name to node).
fn find_span<'a>(name: &str, level: &'a Value) -> Option<&'a Value> {
    level.as_map()?.iter().find_map(|(n, node)| {
        if n == name {
            Some(node)
        } else {
            find_span(name, node.get("children")?)
        }
    })
}

/// The direct child span `name` of `node`.
fn child<'a>(node: &'a Value, name: &str) -> Option<&'a Value> {
    let children = node.get("children")?.as_map()?;
    children.iter().find(|(n, _)| n == name).map(|(_, c)| c)
}

#[test]
fn sampled_sweep_attributes_plan_and_window_decodes_separately() {
    let cache = scratch("sampled-cache");
    let json = scratch("sampled-json");
    let metrics_arg = format!("json={}", json.join("metrics.json").display());
    run(&[
        "sweep",
        "--workloads",
        WORKLOADS,
        "--sample",
        "40",
        "--sample-k",
        "4",
        "--cache",
        cache.to_str().unwrap(),
        "--metrics",
        metrics_arg.as_str(),
    ]);

    let m = load_metrics(&json);
    let spans = m.get("spans").expect("spans");
    check_attribution("", spans);
    let roots = spans.get("children").expect("span roots");
    let replay = find_span("replay", roots).expect("a replay span");
    let plan = child(replay, "sampling.plan").expect("replay/sampling.plan");
    assert!(
        child(plan, "decode").is_some(),
        "the plan pass's full decode sits under sampling.plan: {plan:?}"
    );
    assert!(
        child(replay, "decode").is_some(),
        "the window decodes sit directly under replay: {replay:?}"
    );

    for dir in [cache, json] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn metrics_text_prints_span_tree_and_counters() {
    let cache = scratch("text-cache");
    let out = run(&[
        "sweep",
        "--workloads",
        "CG",
        "--cache",
        cache.to_str().unwrap(),
        "--metrics",
        "text",
    ]);
    assert!(out.contains("telemetry"), "in:\n{out}");
    assert!(out.contains("run report:\n  replays: 1 | "), "in:\n{out}");
    assert!(out.contains("replay"), "in:\n{out}");
    assert!(out.contains(".on_batch_calls"), "in:\n{out}");
    let _ = std::fs::remove_dir_all(cache);
}

/// Every warm replay decodes into batches of one of two shapes, and
/// both carry every event into the run's lanes. `paper fig5` measures
/// predictors alone: its empty I-cache bank and fetch grid read
/// nothing, so it decodes into branch-only batches, which only count
/// plain instructions. `sweep --model` puts the cores' I-caches and
/// fetch grid on the same replay as the bank; they read plain runs, so
/// it decodes into run batches. Either way the lanes hold the snapshot
/// footers' totals. And a warm `paper` synthesizes no program: the
/// static footprint Figure 3 needs comes from the snapshot footer.
#[test]
fn warm_replays_count_every_event_in_their_lanes_and_synthesize_nothing() {
    let json = scratch("lanes-json");
    let metrics_arg = format!("json={}", json.join("metrics.json").display());
    let warm_metrics = |tag: &str, args: &[&str]| {
        let cache = scratch(&format!("lanes-cache-{tag}"));
        let mut argv = args.to_vec();
        argv.extend(["--cache", cache.to_str().unwrap()]);
        run(&argv);
        argv.extend(["--metrics", metrics_arg.as_str()]);
        run(&argv);
        let m = load_metrics(&json);
        check_attribution("", m.get("spans").expect("spans"));
        (m, cache)
    };
    let roots = |m: &Value| m.get("spans").and_then(|s| s.get("children")).cloned();
    let assert_lanes_hold_the_footers = |label: &str, m: &Value, cache: &Path| {
        let roots = roots(m).expect("span roots");
        let decode = find_span("decode", &roots).expect("a warm replay decodes");
        child(decode, "tools").expect("decode/tools");
        let lanes = |key: &str| {
            m.get("report")
                .and_then(|r| r.get("lanes"))
                .and_then(|l| l.get(key))
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("report.lanes.{key}"))
        };
        let (instructions, branches) = footer_totals(cache);
        assert_eq!(lanes("instructions"), instructions, "{label}");
        assert_eq!(lanes("branches"), branches, "{label}");
    };

    let (fig5, cache) = warm_metrics("fig5", &["paper", "fig5", "--suite", "npb"]);
    assert_lanes_hold_the_footers("paper fig5: branch-only batches", &fig5, &cache);
    let _ = std::fs::remove_dir_all(cache);

    let (model, cache) = warm_metrics(
        "model",
        &["sweep", "--workloads", "CG", "--model", "penalty"],
    );
    assert_lanes_hold_the_footers("sweep --model: run batches", &model, &cache);
    let _ = std::fs::remove_dir_all(cache);

    let (paper, cache) = warm_metrics("paper", &["paper", "fig3", "fig8", "--suite", "npb"]);
    let roots = roots(&paper).expect("span roots");
    assert!(find_span("replay", &roots).is_some(), "paper replays");
    assert!(
        find_span("synth", &roots).is_none(),
        "a warm paper synthesizes nothing: {roots:?}"
    );
    let _ = std::fs::remove_dir_all(cache);
    let _ = std::fs::remove_dir_all(json);
}
