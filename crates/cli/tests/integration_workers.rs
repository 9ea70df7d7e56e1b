//! End-to-end `--workers N`: the sharded coordinator's merged output —
//! terminal text and `--json` dumps — must be bit-identical to the
//! single-process run, and a cold shared cache must see exactly one
//! generation per distinct key even with workers racing on overlapping
//! state.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_rebalance");

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "rebalance-workers-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the binary, returning stdout; panics on failure with stderr.
fn run(args: &[&str]) -> String {
    let out = Command::new(BIN)
        .args(args)
        // The tests pin cache behavior per invocation; a cache or batch
        // override inherited from the harness environment must not leak
        // into either side of the comparison.
        .env_remove("REBALANCE_TRACE_CACHE")
        .env_remove("REBALANCE_BATCH")
        .output()
        .expect("spawn rebalance");
    assert!(
        out.status.success(),
        "rebalance {args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn read(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name)).unwrap_or_else(|e| panic!("read {name}: {e}"))
}

#[test]
fn sharded_sweep_is_bit_identical_to_single_process() {
    let (c1, c2) = (scratch("sweep-c1"), scratch("sweep-c2"));
    let (j1, j2) = (scratch("sweep-j1"), scratch("sweep-j2"));
    let single = run(&[
        "sweep",
        "--workloads",
        "CG,FT,MG,gcc,CoMD,swim",
        "--cache",
        c1.to_str().unwrap(),
        "--json",
        j1.to_str().unwrap(),
    ]);
    let sharded = run(&[
        "sweep",
        "--workloads",
        "CG,FT,MG,gcc,CoMD,swim",
        "--cache",
        c2.to_str().unwrap(),
        "--json",
        j2.to_str().unwrap(),
        "--workers",
        "3",
    ]);
    assert_eq!(single, sharded, "terminal output diverged");
    for name in ["sweep.json", "report.json"] {
        assert_eq!(read(&j1, name), read(&j2, name), "{name} diverged");
    }

    // Cold shared cache, racing workers: exactly one generation (and
    // one snapshot file) per distinct key, nothing rejected.
    assert!(
        sharded.contains("generations: 6"),
        "expected one generation per key in:\n{sharded}"
    );
    assert!(sharded.contains("0 rejected"), "in:\n{sharded}");
    let snapshots = std::fs::read_dir(&c2)
        .expect("cache dir")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "rbts"))
        })
        .count();
    assert_eq!(snapshots, 6, "one snapshot per key");

    // Warm sharded rerun: all hits, still identical tables.
    let warm = run(&[
        "sweep",
        "--workloads",
        "CG,FT,MG,gcc,CoMD,swim",
        "--cache",
        c2.to_str().unwrap(),
        "--workers",
        "3",
    ]);
    assert!(warm.contains("generations: 0"), "in:\n{warm}");
    assert!(warm.contains("100.0% hit rate"), "in:\n{warm}");

    for dir in [c1, c2, j1, j2] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn sharded_fetch_and_paper_match_single_process() {
    let (c1, c2) = (scratch("fp-c1"), scratch("fp-c2"));
    let fetch_single = run(&[
        "fetch",
        "--suite",
        "kernels",
        "--cache",
        c1.to_str().unwrap(),
    ]);
    let fetch_sharded = run(&[
        "fetch",
        "--suite",
        "kernels",
        "--cache",
        c2.to_str().unwrap(),
        "--workers",
        "2",
    ]);
    assert_eq!(fetch_single, fetch_sharded, "fetch output diverged");

    // Paper exhibits shard too; both sides reuse the warm caches above,
    // exercising mixed hit/miss shards.
    let paper_single = run(&["paper", "fig5", "table3", "--cache", c1.to_str().unwrap()]);
    let paper_sharded = run(&[
        "paper",
        "fig5",
        "table3",
        "--cache",
        c2.to_str().unwrap(),
        "--workers",
        "2",
    ]);
    assert_eq!(paper_single, paper_sharded, "paper output diverged");

    for dir in [c1, c2] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

#[test]
fn worker_count_is_validated() {
    let out = Command::new(BIN)
        .args(["sweep", "--workers", "0"])
        .output()
        .expect("spawn rebalance");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid worker count"), "stderr: {err}");

    // Subcommands without a sharded sweep reject the flag outright.
    let out = Command::new(BIN)
        .args(["bench", "--workers", "2"])
        .output()
        .expect("spawn rebalance");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--workers"), "stderr: {err}");
}
