//! Trace cache failures are errors, not crashes. A `--cache DIR` that
//! cannot be opened is an error, not a silent fallback to live
//! generation: every cache-served subcommand exits non-zero, names the
//! directory, and prints no results. A snapshot that passes its
//! checksum but does not decode fails the run with exit 1 and a
//! message naming the workload. A cache-less sampled run whose temp dir
//! cannot hold its scratch cache fails the same way, naming the temp
//! dir.

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
fn unusable_temp_dir_fails_cache_less_sampled_runs() {
    // Only the child sees the blocker as its temp dir.
    let temp_dir = blocker_file("temp-dir");
    let commands: [&[&str]; 2] = [
        &["sweep", "--workloads", "CG", "--sample", "160"],
        &["paper", "sampling", "--suite", "npb"],
    ];
    for args in commands {
        let out = Command::new(BIN)
            .args(args)
            .args(["--scale", "smoke", "--no-cache"])
            .env("TMPDIR", &temp_dir)
            .output()
            .expect("spawn rebalance");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} stderr:\n{stderr}");
        assert!(
            stderr.contains(&format!(
                "rebalance: cannot create a scratch trace cache for sampling under the temp dir {}",
                temp_dir.display()
            )),
            "{args:?} stderr:\n{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?} stderr:\n{stderr}");
    }
    let _ = std::fs::remove_file(temp_dir);
}
