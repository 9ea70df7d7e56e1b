//! A `--json DIR` that cannot be written is an error, not a warning:
//! `paper` exits 1 with a message naming the path, as `sweep` does for
//! the same directory, and prints no results.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_rebalance");

#[test]
fn unwritable_json_dir_fails_paper_like_sweep() {
    let file =
        std::env::temp_dir().join(format!("rebalance-json-dump-test-{}", std::process::id()));
    std::fs::write(&file, b"a regular file, not a directory").expect("write blocker file");
    let dir = file.join("sub").display().to_string();
    let commands: [&[&str]; 2] = [
        &["paper", "table2"],
        &["sweep", "--workloads", "CG", "--no-cache"],
    ];
    for args in commands {
        let out = Command::new(BIN)
            .args(args)
            .args(["--scale", "smoke", "--json", &dir])
            .output()
            .expect("spawn rebalance");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?} stderr:\n{stderr}");
        assert!(
            stderr.starts_with("rebalance: ") && stderr.contains(&dir),
            "{args:?} stderr:\n{stderr}"
        );
    }
    let out = Command::new(BIN)
        .args(["paper", "table2", "--json", &dir])
        .output()
        .expect("spawn rebalance");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("cannot write exhibit dump {dir}")),
        "{stderr}"
    );
    assert!(out.stdout.is_empty(), "paper printed results");
    let _ = std::fs::remove_file(file);
}
