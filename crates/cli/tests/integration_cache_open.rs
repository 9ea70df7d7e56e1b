//! A `--cache DIR` that cannot be opened is an error, not a silent
//! fallback to live generation: every cache-served subcommand exits
//! non-zero, names the directory, and prints no results.

use std::path::PathBuf;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_rebalance");

/// A cache path under a regular file, so creating it must fail.
fn unusable_cache_dir() -> (PathBuf, String) {
    let file =
        std::env::temp_dir().join(format!("rebalance-cache-open-test-{}", std::process::id()));
    std::fs::write(&file, b"a regular file, not a directory").expect("write blocker file");
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
