//! Two `rebalance` processes sharing one cold trace cache: both start
//! before either finishes, so they race on every key. The cache's
//! cross-process single-flight (`.lock` files) must still generate
//! each distinct key exactly once across the pair, leave no lock or
//! temporary files behind, and hand both runs byte-identical results.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_rebalance");

/// Six workloads with distinct suites and trace shapes.
const WORKLOADS: &str = "CG,FT,MG,gcc,CoMD,swim";

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rebalance-shared-cache-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Starts `rebalance sweep` over [`WORKLOADS`] against `cache`, with
/// stdout captured; `json` adds `--json DIR`.
fn spawn_sweep(cache: &Path, json: Option<&Path>) -> Child {
    let mut cmd = Command::new(BIN);
    cmd.args(["sweep", "--workloads", WORKLOADS, "--cache"])
        .arg(cache)
        .stdout(Stdio::piped());
    if let Some(dir) = json {
        cmd.arg("--json").arg(dir);
    }
    cmd.spawn().expect("spawn rebalance")
}

/// Waits for `child`, returning its stdout; panics on failure.
fn finish(child: Child) -> String {
    let out = child.wait_with_output().expect("wait for rebalance");
    assert!(
        out.status.success(),
        "rebalance sweep failed ({})",
        out.status
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// The `generations: N` value of a run's report line.
fn generations(stdout: &str) -> u64 {
    let rest = stdout
        .split_once("generations: ")
        .unwrap_or_else(|| panic!("no generation count in:\n{stdout}"))
        .1;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    digits.parse().expect("generation count")
}

fn read(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

#[test]
fn two_processes_share_one_cold_cache() {
    let cache = scratch("cache");
    let (j1, j2) = (scratch("j1"), scratch("j2"));

    // Both children run before either is waited on.
    let first = spawn_sweep(&cache, Some(&j1));
    let second = spawn_sweep(&cache, Some(&j2));
    let (out1, out2) = (finish(first), finish(second));

    assert_eq!(
        read(&j1, "sweep.json"),
        read(&j2, "sweep.json"),
        "sweep.json diverged between the racing processes"
    );

    // Single-flight across processes: the six keys are generated once
    // in total, split between the two runs however the race fell.
    assert_eq!(
        generations(&out1) + generations(&out2),
        6,
        "expected one generation per key across both runs:\n{out1}\n{out2}"
    );
    for out in [&out1, &out2] {
        assert!(out.contains("0 rejected"), "in:\n{out}");
    }

    // Exactly one snapshot per key, and no lock or temporary file
    // left behind by either process.
    let names: Vec<String> = std::fs::read_dir(&cache)
        .expect("cache dir")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    let snapshots = names.iter().filter(|n| n.ends_with(".rbts")).count();
    assert_eq!(snapshots, 6, "one snapshot per key in {names:?}");
    assert!(
        !names
            .iter()
            .any(|n| n.ends_with(".lock") || n.contains(".tmp-")),
        "leftover lock or temporary files in {names:?}"
    );

    // A third, warm run generates nothing.
    let warm = finish(spawn_sweep(&cache, None));
    assert_eq!(generations(&warm), 0, "in:\n{warm}");

    for dir in [cache, j1, j2] {
        let _ = std::fs::remove_dir_all(dir);
    }
}
