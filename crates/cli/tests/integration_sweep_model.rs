//! `rebalance sweep --model` pinned whole: on a four-workload selection
//! (two NPB kernels, a SPEC INT program and a kernel archetype) the
//! MPKI dump and each timing backend's CPI dump must match the files
//! committed under `tests/golden/sweep_model/`, and the report must
//! count the sweep's replays.
//!
//! To re-bless the fixtures after an *intentional* change:
//!
//! ```text
//! REBALANCE_BLESS=1 cargo test -p rebalance-cli --test integration_sweep_model
//! git diff crates/cli/tests/golden/   # review, then commit
//! ```
//!
//! The test refuses to pass while blessing.

use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_rebalance");

/// The selection under test.
const WORKLOADS: &str = "CG,FT,gcc,k.bfs";

/// Replays one `sweep --model` run makes for [`WORKLOADS`]: one per
/// workload, which the predictor bank and both cores share.
const REPLAYS: &str = "replays: 4 |";

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/sweep_model")
}

fn blessing() -> bool {
    std::env::var("REBALANCE_BLESS").is_ok_and(|v| v == "1")
}

/// Runs `sweep --model model --json DIR` on a cache-less run and
/// returns its stdout and the `sweep.json` and `cpi.json` it dumped.
fn sweep(model: &str) -> (String, String, String) {
    let dir = std::env::temp_dir().join(format!(
        "rebalance-sweep-model-test-{model}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let out = Command::new(BIN)
        .args(["sweep", "--workloads", WORKLOADS, "--scale", "smoke"])
        .args(["--no-cache", "--model", model, "--json"])
        .arg(&dir)
        .output()
        .expect("spawn rebalance");
    assert!(
        out.status.success(),
        "sweep --model {model} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let read = |name: &str| {
        let path = dir.join(name);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
    };
    let dumps = (read("sweep.json"), read("cpi.json"));
    let _ = std::fs::remove_dir_all(&dir);
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    (stdout, dumps.0, dumps.1)
}

/// Diffs `text` against fixture `name`, or rewrites it while blessing.
fn check(name: &str, text: &str) {
    let path = fixtures().join(name);
    if blessing() {
        std::fs::create_dir_all(fixtures()).expect("create fixture directory");
        std::fs::write(&path, text).expect("write fixture");
        return;
    }
    let committed = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    if committed != text {
        let first_diff = committed
            .lines()
            .zip(text.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .map(|(n, (a, b))| format!("line {}: `{a}` != `{b}`", n + 1))
            .unwrap_or_else(|| "lengths differ".to_owned());
        panic!(
            "{name} drifted from {} ({first_diff}); if the change is intentional, \
             re-bless with REBALANCE_BLESS=1 and review the diff",
            path.display()
        );
    }
}

#[test]
fn sweep_with_each_model_matches_committed_fixtures() {
    for model in ["penalty", "ftq"] {
        let (stdout, mpki, cpi) = sweep(model);
        // The MPKI table does not depend on the timing backend.
        check("sweep.json", &mpki);
        check(&format!("cpi_{model}.json"), &cpi);
        assert!(stdout.contains(&format!("({model} model)")), "{stdout}");
        assert!(stdout.contains(REPLAYS), "{model}: {stdout}");
    }
    assert!(
        !blessing(),
        "blessed the sweep --model fixtures into {}; unset REBALANCE_BLESS and re-run",
        fixtures().display()
    );
}
