//! The end-to-end phase: set-up, one untimed warm-up round, then timed
//! rounds of the real `rebalance` CLI, each output checked against the
//! committed digests.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use crate::digest::{cache_listing, result_digest, CacheListing, Expected};
use crate::proc::{run_measured, ChildCost};
use crate::reference::Reference;
use crate::spec::Workload;

/// Where the CLI lives and where a run may write.
pub struct Env {
    /// The `rebalance` binary under test.
    pub cli: PathBuf,
    /// Scratch directory for caches and `--json` outputs.
    pub work: PathBuf,
}

impl Env {
    fn rebalance(&self) -> Command {
        let mut cmd = Command::new(&self.cli);
        cmd.stdin(Stdio::null()).stdout(Stdio::null());
        cmd
    }

    pub fn cache_dir(&self, w: &Workload) -> PathBuf {
        self.work.join("cache").join(w.name)
    }

    fn json_dir(&self, w: &Workload) -> PathBuf {
        self.work.join("json").join(w.name)
    }
}

fn remove_dir(dir: &Path) -> io::Result<()> {
    match fs::remove_dir_all(dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

/// How many `trace record` passes set-up makes.
#[derive(Debug, Clone, Copy)]
pub struct Passes {
    pub min: usize,
    /// Keep going until the passes add up to this many seconds, so a
    /// set-up of a fraction of a second still gets a steady median.
    pub min_seconds: f64,
    pub max: usize,
}

/// Runs `trace record --all` into a fresh directory, as many times as
/// `passes` asks, and keeps the last one as the workload's warm cache.
/// Returns each pass's wall time, and the reference kernel's time
/// measured just before it.
///
/// # Errors
///
/// A record pass that fails, or a filesystem error.
pub fn set_up(
    env: &Env,
    reference: &mut Reference,
    w: &Workload,
    set: u32,
    passes: Passes,
) -> Result<(Vec<f64>, Vec<f64>), String> {
    let io = |e: io::Error| format!("set-up of {}: {e}", w.name);
    let cache = env.cache_dir(w);
    remove_dir(&cache).map_err(io)?;
    let dir = env.work.join("setup").join(w.name);
    let mut secs: Vec<f64> = Vec::new();
    let mut reference_s = Vec::new();
    loop {
        remove_dir(&dir).map_err(io)?;
        reference_s.push(reference.time_s());
        let cost = run_measured(
            env.rebalance()
                .args([
                    "trace",
                    "record",
                    "--all",
                    "--scale",
                    &w.scale_arg(set),
                    "--cache",
                ])
                .arg(&dir),
        )
        .map_err(io)?;
        if !cost.status.success() {
            return Err(format!(
                "`rebalance trace record` for {} failed: {}",
                w.name, cost.status
            ));
        }
        secs.push(cost.wall_s);
        let enough = secs.len() >= passes.min && secs.iter().sum::<f64>() >= passes.min_seconds;
        if enough || secs.len() >= passes.max {
            break;
        }
    }
    fs::create_dir_all(cache.parent().expect("cache dirs have a parent")).map_err(io)?;
    fs::rename(&dir, &cache).map_err(io)?;
    Ok((secs, reference_s))
}

/// One invocation of a workload against its warm cache: its cost, and
/// the digest of its `--json` output (`None` when unreadable).
pub fn invoke(env: &Env, w: &Workload, set: u32) -> Result<(ChildCost, Option<u64>), String> {
    let json = env.json_dir(w);
    let io = |e: io::Error| format!("{}: {e}", w.name);
    remove_dir(&json).map_err(io)?;
    let cost = run_measured(
        env.rebalance()
            .args(w.args)
            .args(["--scale", &w.scale_arg(set), "--cache"])
            .arg(env.cache_dir(w))
            .arg("--json")
            .arg(&json),
    )
    .map_err(io)?;
    Ok((cost, result_digest(&json).ok()))
}

/// Why an invocation failed, or `None` if it passed: it must exit 0,
/// produce the committed digest, and leave the warm cache as it found
/// it.
pub fn failure(
    cost: &ChildCost,
    digest: Option<u64>,
    expected: Option<u64>,
    cache_intact: bool,
) -> Option<String> {
    if !cost.status.success() {
        return Some(format!("exited with {}", cost.status));
    }
    let Some(digest) = digest else {
        return Some("no readable --json output".to_owned());
    };
    let Some(expected) = expected else {
        return Some(format!(
            "digest {digest:016x} has no committed value to match"
        ));
    };
    if digest != expected {
        return Some(format!(
            "digest {digest:016x} differs from committed {expected:016x}"
        ));
    }
    if !cache_intact {
        return Some("created or rewrote a file in the warm cache".to_owned());
    }
    None
}

/// Invocations attempted and failed, with the first few reasons.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub reasons: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, failure: Option<String>) {
        self.attempted += 1;
        if let Some(reason) = failure {
            self.failed += 1;
            if self.reasons.len() < 5 {
                self.reasons.push(reason);
            }
        }
    }

    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// One workload's end-to-end samples, as measured. Each `*_reference_s`
/// holds the reference kernel's time just before the sample of the
/// same index.
pub struct Samples {
    pub workload: &'static Workload,
    pub setup_s: Vec<f64>,
    pub setup_reference_s: Vec<f64>,
    pub wall_s: Vec<f64>,
    pub cpu_s: Vec<f64>,
    pub peak_rss_mb: Vec<f64>,
    pub round_reference_s: Vec<f64>,
    pub tally: Tally,
    expected: Option<u64>,
    listing: CacheListing,
}

/// How long the timed rounds go on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Stop {
    Rounds(usize),
    /// Whole rounds until this many seconds of timed rounds have passed.
    Seconds(f64),
}

/// Fewest timed rounds a `Stop::Seconds` run makes, so a median and
/// quartiles exist even for the slowest workload.
const MIN_ROUNDS: usize = 3;

/// Runs each workload's invocation once per round, in a fixed order,
/// after one untimed warm-up round; `samples` must already be set up.
/// Each timed invocation follows one run of the reference kernel.
/// Returns the number of timed rounds.
///
/// # Errors
///
/// Spawn or filesystem failures. A failing invocation is not an
/// error: it is counted in the workload's tally.
pub fn rounds(
    env: &Env,
    reference: &mut Reference,
    set: u32,
    samples: &mut [Samples],
    stop: Stop,
) -> Result<usize, String> {
    let mut judge = |s: &mut Samples, timed: bool| -> Result<(), String> {
        let reference_s = if timed { reference.time_s() } else { 0.0 };
        let (cost, digest) = invoke(env, s.workload, set)?;
        let intact = cache_listing(&env.cache_dir(s.workload)).is_ok_and(|l| l == s.listing);
        let failure = failure(&cost, digest, s.expected, intact);
        let passed = failure.is_none();
        s.tally.record(failure);
        if timed && passed {
            s.wall_s.push(cost.wall_s);
            s.cpu_s.push(cost.cpu_s);
            s.peak_rss_mb.push(cost.peak_rss_mb);
            s.round_reference_s.push(reference_s);
        }
        Ok(())
    };
    for s in samples.iter_mut() {
        judge(s, false)?;
    }
    let start = Instant::now();
    let mut done = 0;
    loop {
        let more = match stop {
            Stop::Rounds(n) => done < n,
            Stop::Seconds(secs) => done < MIN_ROUNDS || start.elapsed().as_secs_f64() < secs,
        };
        if !more {
            return Ok(done);
        }
        for s in samples.iter_mut() {
            judge(s, true)?;
        }
        done += 1;
    }
}

/// Sets every workload up and records what its timed runs must match.
///
/// # Errors
///
/// As for [`set_up`], or an unreadable warm cache.
pub fn prepare(
    env: &Env,
    reference: &mut Reference,
    workloads: &[&'static Workload],
    set: u32,
    passes: Passes,
    expected: &Expected,
) -> Result<Vec<Samples>, String> {
    workloads
        .iter()
        .map(|&w| {
            let (setup_s, setup_reference_s) = set_up(env, reference, w, set, passes)?;
            let listing =
                cache_listing(&env.cache_dir(w)).map_err(|e| format!("{}: {e}", w.name))?;
            Ok(Samples {
                workload: w,
                setup_s,
                setup_reference_s,
                wall_s: Vec::new(),
                cpu_s: Vec::new(),
                peak_rss_mb: Vec::new(),
                round_reference_s: Vec::new(),
                tally: Tally::default(),
                expected: expected.get(&(w.name.to_owned(), set)).copied(),
                listing,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::process::ExitStatusExt;
    use std::process::ExitStatus;

    fn ok_cost() -> ChildCost {
        ChildCost {
            status: ExitStatus::from_raw(0),
            wall_s: 1.0,
            cpu_s: 1.0,
            peak_rss_mb: 10.0,
        }
    }

    #[test]
    fn a_tampered_digest_makes_fail_frac_positive() {
        let mut tally = Tally::default();
        tally.record(failure(&ok_cost(), Some(0xabc), Some(0xabc), true));
        assert_eq!(tally.fail_frac(), 0.0);
        tally.record(failure(&ok_cost(), Some(0xabc), Some(0xabd), true));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(tally.fail_frac() > 0.0);
        assert!(tally.reasons[0].contains("differs from committed"));
    }

    #[test]
    fn exit_status_missing_output_and_cache_writes_fail() {
        let crashed = ChildCost {
            status: ExitStatus::from_raw(1 << 8),
            ..ok_cost()
        };
        assert!(failure(&crashed, Some(1), Some(1), true).is_some());
        assert!(failure(&ok_cost(), None, Some(1), true).is_some());
        assert!(failure(&ok_cost(), Some(1), None, true).is_some());
        assert!(failure(&ok_cost(), Some(1), Some(1), false).is_some());
        assert_eq!(failure(&ok_cost(), Some(1), Some(1), true), None);
    }
}
