//! End-to-end telemetry merge law: with metrics enabled, a sharded
//! `sweep --workers 2` must report the same machine-independent
//! counters as the single-process run (timing counters and span
//! durations are machine-dependent, so spans are compared
//! structurally — same paths, same completion counts), and both
//! snapshots must satisfy the attribution invariant (a span's
//! children never account for more time than the span itself).

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde::Value;

const BIN: &str = env!("CARGO_BIN_EXE_rebalance");

/// Workloads under test: enough items that `--workers 2` produces
/// uneven shards, small enough to stay quick at smoke scale.
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
        // Pin the cache per invocation — an override inherited
        // from the harness environment must not leak into either side
        // of the comparison. REBALANCE_BATCH and REBALANCE_METRICS are
        // deliberately passed through: CI reruns this test at both
        // batch-size extremes with the env latch set, and the merge
        // law must hold under all of them.
        .env_remove("REBALANCE_TRACE_CACHE")
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

fn map<'a>(v: &'a Value, key: &str) -> &'a [(String, Value)] {
    v.get(key)
        .and_then(Value::as_map)
        .unwrap_or_else(|| panic!("metrics.json: missing map {key:?}"))
}

/// Counter values, machine-dependent duration counters excluded: the
/// `_ns` suffix marks wall-clock sums, which legitimately differ
/// between a single process and two workers.
fn stable_counters(v: &Value) -> BTreeMap<String, u64> {
    map(v, "counters")
        .iter()
        .filter(|(name, _)| !name.ends_with("_ns"))
        .map(|(name, value)| (name.clone(), value.as_u64().expect("counter value")))
        .collect()
}

/// Collects every `replay` subtree in the span forest (replays run on
/// pool threads, so their roots may sit at any depth relative to the
/// command span) and folds them into one path → completion-count map.
/// Durations are deliberately dropped: the merge law for timings is
/// structural, not value-level.
fn replay_span_counts(v: &Value) -> BTreeMap<String, u64> {
    fn fold(path: &str, node: &Value, out: &mut BTreeMap<String, u64>) {
        let count = node
            .get("count")
            .and_then(Value::as_u64)
            .expect("span count");
        *out.entry(path.to_owned()).or_insert(0) += count;
        if let Some(children) = node.get("children").and_then(Value::as_map) {
            for (name, child) in children {
                fold(&format!("{path}/{name}"), child, out);
            }
        }
    }
    fn find(name: &str, node: &Value, out: &mut BTreeMap<String, u64>) {
        if name == "replay" {
            fold("replay", node, out);
            return;
        }
        if let Some(children) = node.get("children").and_then(Value::as_map) {
            for (child_name, child) in children {
                find(child_name, child, out);
            }
        }
    }
    let mut out = BTreeMap::new();
    find("", v.get("spans").expect("spans"), &mut out);
    out
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

#[test]
fn sharded_sweep_metrics_match_single_process() {
    let cache = scratch("cache");
    let (j1, j2) = (scratch("single"), scratch("sharded"));

    // Warm the shared cache first so both measured runs replay the
    // same snapshots: all hits, zero generations on either side.
    run(&[
        "trace",
        "record",
        "CG",
        "FT",
        "MG",
        "--cache",
        cache.to_str().unwrap(),
    ]);

    let single = run(&[
        "sweep",
        "--workloads",
        WORKLOADS,
        "--cache",
        cache.to_str().unwrap(),
        "--metrics",
        &format!("json={}", j1.join("metrics.json").display()),
    ]);
    let sharded = run(&[
        "sweep",
        "--workloads",
        WORKLOADS,
        "--cache",
        cache.to_str().unwrap(),
        "--workers",
        "2",
        "--metrics",
        &format!("json={}", j2.join("metrics.json").display()),
    ]);
    // Telemetry must not disturb the replay results themselves: the
    // sweep tables (everything before the metrics footer) still match.
    let table_of = |out: &str| {
        out.lines()
            .take_while(|l| !l.starts_with("metrics written"))
            .collect::<Vec<_>>()
            .join("\n")
    };
    assert_eq!(
        table_of(&single),
        table_of(&sharded),
        "sweep output diverged"
    );

    let (m1, m2) = (load_metrics(&j1), load_metrics(&j2));
    for m in [&m1, &m2] {
        assert_eq!(m.get("version").and_then(Value::as_u64), Some(1));
    }

    // Merge law, value level: every machine-independent counter from
    // the two workers folds to exactly the single-process totals.
    let (c1, c2) = (stable_counters(&m1), stable_counters(&m2));
    assert!(
        c1.contains_key("replay.events"),
        "expected replay counters in {c1:?}"
    );
    assert!(
        c1.keys().any(|k| k.ends_with(".on_batch_calls")),
        "expected per-tool counters in {c1:?}"
    );
    assert_eq!(
        c1, c2,
        "stable counters diverged between single and sharded"
    );

    // Merge law, structural level: the replay span forest has the same
    // shape and the same completion counts on both sides (durations
    // are machine-dependent and not compared).
    let (s1, s2) = (replay_span_counts(&m1), replay_span_counts(&m2));
    assert!(!s1.is_empty(), "expected replay spans in {m1:?}");
    assert_eq!(s1, s2, "replay span structure diverged");

    // Attribution invariant on both snapshots.
    check_attribution("", m1.get("spans").expect("spans"));
    check_attribution("", m2.get("spans").expect("spans"));

    // The sharded side additionally records the coordinator's own
    // stages; the shard fan-out must be visible as spans.
    let spans2 = m2
        .get("spans")
        .and_then(|s| s.get("children"))
        .expect("children");
    let top: Vec<&str> = spans2
        .as_map()
        .expect("span map")
        .iter()
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(top.contains(&"sweep"), "coordinator span missing: {top:?}");

    for dir in [cache, j1, j2] {
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
    assert!(out.contains("replay"), "in:\n{out}");
    assert!(out.contains("replay.events"), "in:\n{out}");
    let _ = std::fs::remove_dir_all(cache);
}
