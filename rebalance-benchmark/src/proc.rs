//! Child-process measurement from Linux `/proc`, and the host block.

use std::fs;
use std::io;
use std::process::{Command, ExitStatus};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use crate::json::Value;

/// Ticks per second of the CPU times in `/proc/*/stat`: `USER_HZ`, which
/// the Linux ABI fixes at 100.
const TICKS_PER_S: f64 = 100.0;

/// How often the peak-memory poller reads `/proc/<pid>/status`.
const RSS_POLL: Duration = Duration::from_millis(5);

/// `VmHWM` (peak resident set size) in kB, from the text of
/// `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// User plus system CPU ticks of waited-for children (`cutime` +
/// `cstime`), from the text of `/proc/self/stat`. The command name is
/// the second field, in parentheses, and may itself hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_children_cpu_ticks(stat: &str) -> Option<u64> {
    let after_name = &stat[stat.rfind(')')? + 1..];
    // `after_name` starts at field 3 (state); cutime and cstime are
    // fields 16 and 17.
    let mut fields = after_name.split_whitespace().skip(13);
    let cutime: u64 = fields.next()?.parse().ok()?;
    let cstime: u64 = fields.next()?.parse().ok()?;
    Some(cutime + cstime)
}

fn children_cpu_ticks() -> io::Result<u64> {
    let stat = fs::read_to_string("/proc/self/stat")?;
    parse_children_cpu_ticks(&stat)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unparsable /proc/self/stat"))
}

/// What one child invocation cost.
#[derive(Debug, Clone, Copy)]
pub struct ChildCost {
    pub status: ExitStatus,
    /// Spawn to exit.
    pub wall_s: f64,
    /// The child's user + system time.
    pub cpu_s: f64,
    /// Largest `VmHWM` seen while it ran.
    pub peak_rss_mb: f64,
}

/// Runs `cmd` to completion and measures it. The calling thread blocks
/// in `wait`, so the wall time is not rounded to the poll period; a
/// second thread polls the child's peak resident set until it exits.
///
/// # Errors
///
/// Spawn and wait failures, or an unreadable `/proc/self/stat`.
pub fn run_measured(cmd: &mut Command) -> io::Result<ChildCost> {
    let cpu_before = children_cpu_ticks()?;
    let start = Instant::now();
    let mut child = cmd.spawn()?;
    let status_path = format!("/proc/{}/status", child.id());
    let exited = AtomicBool::new(false);
    let (status, wall, peak_kb) = thread::scope(|s| {
        let poller = s.spawn(|| {
            let mut peak_kb = 0;
            while !exited.load(Ordering::Relaxed) {
                if let Some(kb) = fs::read_to_string(&status_path)
                    .ok()
                    .as_deref()
                    .and_then(parse_vm_hwm_kb)
                {
                    peak_kb = peak_kb.max(kb);
                }
                thread::sleep(RSS_POLL);
            }
            peak_kb
        });
        let status = child.wait();
        let wall = start.elapsed();
        exited.store(true, Ordering::Relaxed);
        (
            status,
            wall,
            poller.join().expect("the poller does not panic"),
        )
    });
    let status = status?;
    Ok(ChildCost {
        status,
        wall_s: wall.as_secs_f64(),
        cpu_s: (children_cpu_ticks()? - cpu_before) as f64 / TICKS_PER_S,
        peak_rss_mb: peak_kb as f64 / 1024.0,
    })
}

/// Where the numbers came from. Two result files are comparable only
/// when these agree.
pub fn host_block(rounds: usize, seed: u64, input_set: u32) -> Value {
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|v| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    // The ceiling keeps git from searching above the working directory,
    // so a checkout without `.git` records no head rather than another's.
    let ceiling = std::env::current_dir()
        .ok()
        .and_then(|dir| dir.parent().map(|p| p.to_path_buf()))
        .unwrap_or_default();
    let git_head = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned());
    Value::obj([
        (
            "nproc",
            Value::Num(thread::available_parallelism().map_or(1, usize::from) as f64),
        ),
        ("cpu", Value::Str(cpu)),
        ("kernel", Value::Str(kernel)),
        ("git_head", git_head.map_or(Value::Null, Value::Str)),
        ("rounds", Value::Num(rounds as f64)),
        // A string: seeds are 64-bit and a JSON number holds 53 bits.
        ("seed", Value::Str(seed.to_string())),
        ("input_set", Value::Num(f64::from(input_set))),
    ])
}

/// The host-block fields that must agree for two result files to be
/// compared.
pub const COMPARABLE_FIELDS: [&str; 5] = ["nproc", "cpu", "kernel", "rounds", "input_set"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_vm_hwm() {
        let status =
            "Name:\trebalance\nVmPeak:\t  912344 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  1024 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(204_800));
        assert_eq!(parse_vm_hwm_kb("Name:\tzombie\nState:\tZ (zombie)\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t garbage kB\n"), None);
    }

    #[test]
    fn reads_children_cpu_past_a_hostile_command_name() {
        // Fields 3..=17 after the name: state ppid pgrp session tty_nr
        // tpgid flags minflt cminflt majflt cmajflt utime stime cutime
        // cstime, then more.
        let tail = "S 1 2 3 0 -1 4194560 100 200 0 0 7 8 250 31 20 0 1 0";
        for name in ["rebalance", "a b", "x) (y", ") ) )", "(("] {
            let stat = format!("4242 ({name}) {tail}");
            assert_eq!(parse_children_cpu_ticks(&stat), Some(281), "{name:?}");
        }
        assert_eq!(parse_children_cpu_ticks("4242 (short) S 1 2"), None);
        assert_eq!(parse_children_cpu_ticks("no parenthesis"), None);
    }

    #[test]
    fn measures_a_real_child() {
        let cost = run_measured(Command::new("true").stdout(std::process::Stdio::null()))
            .expect("`true` runs");
        assert!(cost.status.success());
        assert!(cost.wall_s > 0.0 && cost.cpu_s >= 0.0);
    }
}
