//! Trace cache failures are errors, not crashes. A `--cache DIR` that
//! cannot be opened is an error, not a silent fallback to live
//! generation: every cache-served subcommand exits non-zero, names the
//! directory, and prints no results. A snapshot that passes its
//! checksum but does not decode fails the run with exit 1 and a
//! message naming the workload. Without a cache nothing touches the
//! disk: a cache-less sampled run encodes its snapshots in memory and
//! leaves the temp dir as it found it.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_rebalance");

/// A regular file named for `test`, so creating a directory under it
/// must fail.
fn blocker_file(test: &str) -> PathBuf {
    let file = std::env::temp_dir().join(format!("rebalance-{test}-test-{}", std::process::id()));
    std::fs::write(&file, b"a regular file, not a directory").expect("write blocker file");
    file
}

/// A cache path under a regular file, so creating it must fail.
fn unusable_cache_dir() -> (PathBuf, String) {
    let file = blocker_file("cache-open");
    let dir = file.join("cache").display().to_string();
    (file, dir)
}

#[test]
fn unusable_cache_dir_fails_every_cached_subcommand() {
    let (blocker, dir) = unusable_cache_dir();
    let commands: [&[&str]; 4] = [
        &["sweep", "--workloads", "CG"],
        &["fetch", "--workloads", "CG"],
        &["phases", "--workloads", "CG"],
        &["paper", "fig5"],
    ];
    for args in commands {
        let out = Command::new(BIN)
            .args(args)
            .args(["--scale", "smoke", "--cache", &dir])
            .output()
            .expect("spawn rebalance");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{args:?} exited 0:\n{stdout}");
        assert!(
            stderr.contains(&format!("rebalance: cannot open trace cache {dir}")),
            "{args:?} stderr:\n{stderr}"
        );
        assert!(stdout.is_empty(), "{args:?} printed results:\n{stdout}");
    }
    let _ = std::fs::remove_file(blocker);
}

#[test]
fn undecodable_snapshot_fails_the_sweep_with_a_message() {
    let dir = std::env::temp_dir().join(format!(
        "rebalance-corrupt-snapshot-test-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = dir.display().to_string();
    let record = Command::new(BIN)
        .args([
            "trace", "record", "CG", "--scale", "smoke", "--cache", &cache,
        ])
        .output()
        .expect("spawn rebalance");
    assert!(record.status.success(), "trace record failed");

    // Overwrite the first record byte (right after the 24-byte header)
    // with a tag no record uses, then re-seal the checksum: the file
    // passes validation and fails to decode.
    let path = std::fs::read_dir(&dir)
        .expect("cache dir")
        .map(|e| e.expect("cache entry").path())
        .find(|p| p.extension().is_some_and(|x| x == "rbts"))
        .expect("a recorded snapshot");
    let mut bytes = std::fs::read(&path).expect("read snapshot");
    bytes[24] = 0xF0;
    let sealed = bytes.len() - 8;
    let checksum = rebalance_trace::snapshot::checksum(&bytes[..sealed]);
    bytes[sealed..].copy_from_slice(&checksum.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write snapshot");
    rebalance_trace::Snapshot::parse(&bytes).expect("the checksum was re-sealed");

    let out = Command::new(BIN)
        .args([
            "sweep",
            "--workloads",
            "CG",
            "--scale",
            "smoke",
            "--cache",
            &cache,
        ])
        .output()
        .expect("spawn rebalance");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr:\n{stderr}");
    assert!(
        stderr.contains("rebalance: cannot replay CG: trace cache snapshot error"),
        "stderr:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "stderr:\n{stderr}");
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn cache_less_sampled_runs_leave_the_temp_dir_empty() {
    // Only the children see this directory as their temp dir.
    let temp_dir =
        std::env::temp_dir().join(format!("rebalance-temp-dir-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&temp_dir);
    std::fs::create_dir_all(&temp_dir).expect("create temp dir");
    let commands: [&[&str]; 3] = [
        &["phases", "--workloads", "EP"],
        &["paper", "sampling", "--suite", "npb"],
        &["sweep", "--workloads", "CG", "--sample", "160"],
    ];
    for args in commands {
        let out = Command::new(BIN)
            .args(args)
            .args(["--scale", "smoke", "--no-cache"])
            .env("TMPDIR", &temp_dir)
            .output()
            .expect("spawn rebalance");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{args:?} stderr:\n{stderr}");
        let left: Vec<_> = std::fs::read_dir(&temp_dir)
            .expect("temp dir")
            .map(|e| e.expect("temp dir entry").file_name())
            .collect();
        assert!(left.is_empty(), "{args:?} left {left:?} in the temp dir");
    }
    let _ = std::fs::remove_dir_all(temp_dir);
}
