//! Concurrency guarantee of the shared on-disk [`TraceCache`]: many
//! threads hammer one cache with overlapping rosters — nothing
//! corrupts, nothing is rejected, every distinct key is generated
//! exactly once (single-flight), and the combined analysis results are
//! byte-identical to a single-threaded pass. Across processes only the
//! atomic commit holds (racing processes may each generate a key); the
//! CLI's `integration_shared_cache` test checks that end to end.

use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use rebalance_trace::{Pintool, TraceCache, TraceEvent};
use rebalance_workloads::Scale;

/// The six-workload bench roster: distinct suites, distinct trace
/// shapes, and small enough that 8 threads x 2 rounds stays fast.
const ROSTER: [&str; 6] = ["CG", "FT", "MG", "gcc", "CoMD", "swim"];

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir =
        std::env::temp_dir().join(format!("rebalance-shard-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic digest of everything a tool observes — equal digests
/// mean the replays delivered identical event streams.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Digest {
    instructions: u64,
    branches: u64,
    taken: u64,
    pc_sum: u64,
}

impl Pintool for Digest {
    fn on_inst(&mut self, ev: &TraceEvent) {
        self.instructions += 1;
        self.pc_sum = self.pc_sum.wrapping_add(ev.pc.as_u64());
        if ev.branch.is_some() {
            self.branches += 1;
            self.taken += u64::from(ev.is_taken_branch());
        }
    }
}

/// Replays one workload through `cache`, returning its digest.
fn replay(cache: &TraceCache, name: &str) -> Digest {
    let w = rebalance_workloads::find(name).expect("roster workload");
    let mut digest = Digest::default();
    cache
        .replay_with(
            &w.trace_key(Scale::Smoke),
            || w.trace(Scale::Smoke),
            &mut digest,
        )
        .expect("cached replay");
    digest
}

#[test]
fn concurrent_torture_matches_single_process_byte_for_byte() {
    // Single-process reference: one sequential pass over the roster.
    let ref_dir = scratch_dir("ref");
    let reference_cache = TraceCache::new(&ref_dir).expect("temp dir");
    let reference: BTreeMap<&str, Digest> = ROSTER
        .iter()
        .map(|name| (*name, replay(&reference_cache, name)))
        .collect();

    // Torture: 8 threads x 2 rounds over rotated (fully overlapping)
    // rosters against one shared cache, all released together.
    const THREADS: usize = 8;
    const ROUNDS: usize = 2;
    let dir = scratch_dir("torture");
    let cache = Arc::new(TraceCache::new(&dir).expect("temp dir"));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let mut out = Vec::new();
                for round in 0..ROUNDS {
                    for i in 0..ROSTER.len() {
                        let name = ROSTER[(i + t + round) % ROSTER.len()];
                        out.push((name, replay(&cache, name)));
                    }
                }
                out
            })
        })
        .collect();
    let mut merged: BTreeMap<&str, Digest> = BTreeMap::new();
    let mut replays = 0u64;
    for handle in handles {
        for (name, digest) in handle.join().expect("torture thread") {
            replays += 1;
            let prev = merged.insert(name, digest);
            if let Some(prev) = prev {
                assert_eq!(prev, digest, "{name}: replays disagreed across threads");
            }
        }
    }

    // Nothing corrupted, nothing rejected, every key generated once.
    let stats = cache.stats();
    assert_eq!(replays, (THREADS * ROUNDS * ROSTER.len()) as u64);
    assert_eq!(stats.rejected, 0, "no corrupt snapshots under contention");
    assert_eq!(stats.write_failures, 0);
    assert_eq!(
        stats.generations,
        ROSTER.len() as u64,
        "single-flight: one generation per distinct key"
    );
    assert_eq!(stats.misses, ROSTER.len() as u64);
    assert_eq!(stats.hits, replays - ROSTER.len() as u64);
    let snapshots = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter(|e| {
            e.as_ref()
                .is_ok_and(|e| e.path().extension().is_some_and(|x| x == "rbts"))
        })
        .count();
    assert_eq!(snapshots, ROSTER.len(), "one snapshot file per key");

    // The merged results are byte-identical to the single-process pass.
    assert_eq!(format!("{merged:?}"), format!("{reference:?}"));

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}
