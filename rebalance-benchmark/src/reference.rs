//! The host-speed reference: a fixed kernel of the benchmark's own,
//! timed just before every measured command, so that each timing can be
//! restated at one nominal host speed.
//!
//! On a shared VM the host's speed drifts by 30–50% over minutes as its
//! neighbours' load comes and goes, and CPU time drifts with it, so no
//! statistic of a 25-second run can remove that drift from a raw time.
//! The drift slows this kernel too. A command's time multiplied by
//! [`NOMINAL_S`] over the kernel's time beside it keeps the command's
//! own cost and drops most of the host's.
//!
//! The kernel does what the measured commands spend their time on, on
//! as many threads as their executors use: each thread streams a buffer
//! much larger than the caches and updates a table of 2-bit counters
//! indexed by a history hash, as a branch predictor does. A slowdown of
//! one vCPU holds back a parallel command and this kernel alike, where a
//! one-thread kernel would move to the other vCPU and miss it. The
//! kernel is part of the benchmark, not of the program under test, so a
//! change to the program cannot move it.

use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// The kernel's time on a quiet 2-vCPU 2.1 GHz Xeon VM. Scaled timings
/// read as seconds on a host where the kernel takes this long.
pub const NOMINAL_S: f64 = 0.2;

/// Words each thread streams per pass: 32 MiB.
const WORDS: usize = 4 << 20;
/// One counter per byte: a 1 MiB table per thread.
const TABLE_LEN: usize = 1 << 20;
const PASSES: usize = 8;
/// Threads stop here so the buffers stay small on a large host.
const MAX_THREADS: usize = 8;

/// The kernel's inputs, one per thread, built once so that each timing
/// covers the same work on memory already mapped.
pub struct Reference {
    lanes: Vec<(Vec<u64>, Vec<u8>)>,
}

impl Reference {
    /// One lane per CPU available to this process, as the CLI's sweep
    /// executor uses, up to [`MAX_THREADS`].
    pub fn new() -> Reference {
        let threads = thread::available_parallelism()
            .map_or(1, usize::from)
            .min(MAX_THREADS);
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let lanes = (0..threads)
            .map(|_| {
                let words = (0..WORDS)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        x
                    })
                    .collect();
                (words, vec![0; TABLE_LEN])
            })
            .collect();
        Reference { lanes }
    }

    /// Runs the kernel once on every lane at the same time and returns
    /// the wall time until the last lane finishes, in seconds.
    pub fn time_s(&mut self) -> f64 {
        for (_, table) in &mut self.lanes {
            table.fill(0);
        }
        let start = Instant::now();
        thread::scope(|s| {
            for (words, table) in &mut self.lanes {
                s.spawn(|| black_box(predict(black_box(words), table)));
            }
        });
        start.elapsed().as_secs_f64()
    }
}

/// `secs` restated at the nominal host speed, given the reference
/// kernel's time measured beside it.
pub fn at_nominal(secs: f64, reference_s: f64) -> f64 {
    secs * NOMINAL_S / reference_s
}

/// Predicts the low bit of each word from a 2-bit counter chosen by a
/// hash of the words before it; returns the correct predictions.
fn predict(words: &[u64], table: &mut [u8]) -> u64 {
    let mask = table.len() - 1;
    let mut history = 0u64;
    let mut hits = 0;
    for _ in 0..PASSES {
        for &word in words {
            history = (history << 3) ^ word;
            let slot = &mut table[history as usize & mask];
            let taken = word & 1 == 1;
            hits += u64::from(taken == (*slot > 1));
            *slot = if taken {
                (*slot + 1).min(3)
            } else {
                slot.saturating_sub(1)
            };
        }
    }
    hits
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_learn_a_repeated_pattern() {
        // The same taken word every time: the history settles on one
        // slot from the second word on, whose counter needs two updates
        // before it predicts taken; the first word's slot misses once.
        let words = [1u64; 100];
        let mut table = vec![0u8; 16];
        assert_eq!(predict(&words, &mut table), (100 * PASSES - 3) as u64);
    }

    #[test]
    fn scaling_keeps_a_time_at_nominal_speed() {
        assert!((at_nominal(3.0, NOMINAL_S) - 3.0).abs() < 1e-12);
        assert!((at_nominal(3.0, 2.0 * NOMINAL_S) - 1.5).abs() < 1e-12);
    }
}
