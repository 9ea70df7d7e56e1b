//! `rebalance bench` rejects the flags it has no use for: its snapshots
//! live in memory and it replays every event, so the cache and sampling
//! flags exit 1 before anything is measured instead of being ignored.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_rebalance");

#[test]
fn bench_rejects_cache_and_sampling_flags() {
    let flags: [&[&str]; 4] = [
        &["--cache", "unused-cache-dir"],
        &["--no-cache"],
        &["--sample", "160"],
        &["--sample-k", "8"],
    ];
    for flag in flags {
        let out = Command::new(BIN)
            .arg("bench")
            .args(flag)
            .output()
            .expect("spawn rebalance");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag:?} stderr:\n{stderr}");
        assert_eq!(
            stderr.trim_end(),
            format!("rebalance: {} is not supported by this subcommand", flag[0]),
            "{flag:?}"
        );
        assert!(out.stdout.is_empty(), "{flag:?} measured nothing");
    }
}
