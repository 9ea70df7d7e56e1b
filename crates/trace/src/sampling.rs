//! Phase sampling: SimPoint-style interval fingerprinting, seeded
//! k-means clustering, and weighted representative replay.
//!
//! A full trace replay re-derives the same answer from every dynamic
//! instruction, but HPC workloads are phase-structured: long stretches
//! execute the same basic blocks in the same proportions. This module
//! slices a recorded [`Snapshot`] into fixed-size instruction
//! **intervals**, fingerprints each interval with a basic-block vector
//! (any [`Fingerprinter`] tool), clusters the vectors with a
//! deterministic k-means++ ([`SamplePlan::from_vectors`]), and then
//! replays only one **representative** interval per cluster
//! ([`Snapshot::replay_sampled`]). After each representative's events
//! are delivered, the attached [`Pintool`] receives
//! [`Pintool::on_sample_weight`] with the cluster's interval count, so
//! weight-aware tools scale the counters they accumulated in that
//! window — reproducing full-replay counter totals from a fraction of
//! the events. To remove the cold-start bias of jumping mid-trace,
//! each representative is preceded by a short **warmup** window
//! replayed with weight 0: its events update predictor and cache state
//! but its counters are discarded at the boundary.
//!
//! Cluster weights are exact interval counts (they always sum to the
//! number of intervals), and a degenerate plan where every interval is
//! its own representative ([`SamplePlan::is_full_replay`]) replays the
//! stream bit-identically to [`Snapshot::replay`].
//!
//! The plan pass ([`SamplePlan::from_snapshot`]) is the one full decode
//! of the snapshot: it validates the footer counters and records a
//! cursor at every interval boundary. The sampled replay then seeks to
//! each window's warmup start and decodes only what it delivers, so
//! skipping an interval skips its decoding too. The plan is tied to the
//! snapshot it indexed by the snapshot's checksum; applying it to other
//! bytes is a [`SnapshotError::PlanMismatch`], never wrong events.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use rebalance_telemetry as telemetry;

use crate::batch::{EventBatch, DEFAULT_BATCH_CAPACITY};
use crate::exec::RunSummary;
use crate::observer::{NullTool, Pintool};
use crate::snapshot::{CursorTable, Snapshot, SnapshotError};

/// `base + delta × weight`, computed in `u128` and saturating at
/// `u64::MAX` — the one place weighted counter folding is allowed to
/// multiply, so no merge path can silently truncate at extreme weights.
#[inline]
pub fn weighted_add(base: u64, delta: u64, weight: u64) -> u64 {
    let v = u128::from(base) + u128::from(delta) * u128::from(weight);
    u64::try_from(v).unwrap_or(u64::MAX)
}

/// Knobs for building a [`SamplePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SamplingConfig {
    /// Target number of fixed-size instruction intervals the trace is
    /// sliced into (the actual count can differ by one for the partial
    /// tail interval).
    pub intervals: usize,
    /// Number of clusters — at most one representative interval is
    /// replayed per cluster.
    pub k: usize,
    /// Seed for the k-means++ initialization; the whole pipeline is
    /// deterministic for a fixed seed.
    pub seed: u64,
    /// Dimensionality of the hashed basic-block vectors.
    pub dims: usize,
    /// Iteration bound for Lloyd's algorithm (it usually converges much
    /// earlier).
    pub max_iters: usize,
    /// Intervals of **warmup** replayed immediately before each
    /// representative with weight 0: their events warm predictor and
    /// cache state but their counters are discarded, which removes the
    /// cold-start bias of jumping mid-trace.
    pub warmup_intervals: usize,
}

impl Default for SamplingConfig {
    /// 160 intervals into 8 clusters with one warmup interval per
    /// representative: representatives plus warmup cover ≤ ~1/10 of the
    /// instructions, comfortably under the 1/k contract.
    fn default() -> Self {
        SamplingConfig {
            intervals: 160,
            k: 8,
            seed: 0x5a3b_9e1d,
            dims: 32,
            max_iters: 25,
            warmup_intervals: 1,
        }
    }
}

impl SamplingConfig {
    /// Replaces the interval count.
    pub fn with_intervals(mut self, intervals: usize) -> Self {
        self.intervals = intervals.max(1);
        self
    }

    /// Replaces the cluster count.
    pub fn with_k(mut self, k: usize) -> Self {
        self.k = k.max(1);
        self
    }

    /// Replaces the warmup length (in intervals; 0 disables warmup).
    pub fn with_warmup(mut self, warmup_intervals: usize) -> Self {
        self.warmup_intervals = warmup_intervals;
        self
    }

    /// Interval length in instructions for a trace of `total_insts`
    /// (ceiling division, at least 1).
    pub fn interval_insts(&self, total_insts: u64) -> u64 {
        let n = self.intervals.max(1) as u64;
        total_insts.div_ceil(n).max(1)
    }
}

/// A tool that fingerprints fixed-size instruction intervals during one
/// trace replay — the bridge between the snapshot pass and
/// [`SamplePlan::from_vectors`]. Implemented by the basic-block-vector
/// pintool (`rebalance-pintools`), kept as a trait here so the trace
/// crate never depends on concrete tools.
pub trait Fingerprinter: Pintool {
    /// Sets the interval length in instructions; called once before the
    /// fingerprinting replay.
    fn set_interval_insts(&mut self, insts: u64);

    /// Drains the accumulated per-interval vectors, including the
    /// partial tail interval. Vectors must all share one dimensionality.
    fn finish(&mut self) -> Vec<Vec<f64>>;
}

/// One cluster of a [`SamplePlan`]: which interval stands in for the
/// cluster, and for how many intervals it stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterInfo {
    /// Index of the representative interval (nearest the centroid).
    pub representative: usize,
    /// Number of intervals in the cluster — the scale factor handed to
    /// [`Pintool::on_sample_weight`]. Weights over all clusters sum to
    /// the interval count exactly.
    pub weight: u64,
}

/// The clustering outcome for one trace: interval geometry, per-interval
/// cluster assignments, and one weighted representative per cluster
/// (sorted by representative index, i.e. replay order).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplePlan {
    interval_insts: u64,
    total_instructions: u64,
    warmup_insts: u64,
    assignments: Vec<u32>,
    clusters: Vec<ClusterInfo>,
    /// Where every interval starts in the snapshot the plan was built
    /// from (`None` for plans built from bare vectors).
    cursors: Option<CursorTable>,
}

impl SamplePlan {
    /// Clusters per-interval fingerprint vectors into a plan.
    ///
    /// Runs deterministic k-means++ (seeded by `cfg.seed`) over the
    /// vectors, assigns every interval to its nearest centroid, and
    /// picks the interval closest to each centroid as the cluster's
    /// representative. With `cfg.k >= vectors.len()` every interval
    /// becomes its own weight-1 representative and the plan degenerates
    /// to a full replay.
    ///
    /// Interval 0 is **pinned** as a weight-1 singleton cluster (for
    /// `cfg.k >= 2`): the startup transient — cold caches, cold
    /// predictors — is structurally unique, and letting a mid-trace
    /// representative stand in for it either drops those misses
    /// entirely or multiplies them by the cluster weight. Pinning
    /// counts the transient exactly once, like the full replay does.
    ///
    /// A plan built here carries no cursor table, so each
    /// [`Snapshot::replay_sampled`] of it first records one with a full
    /// decode; [`SamplePlan::from_snapshot`] records it for free.
    ///
    /// # Panics
    ///
    /// Panics if `vectors` is empty or `interval_insts` is 0.
    pub fn from_vectors(
        vectors: &[Vec<f64>],
        interval_insts: u64,
        total_instructions: u64,
        cfg: &SamplingConfig,
    ) -> SamplePlan {
        assert!(!vectors.is_empty(), "cannot sample an empty trace");
        assert!(interval_insts > 0, "intervals must hold instructions");
        let n = vectors.len();
        let k = cfg.k.max(1);
        let warmup_insts = cfg.warmup_intervals as u64 * interval_insts;
        if k >= n {
            // Degenerate: every interval represents itself (adjacent
            // representatives leave no gap to warm, so `warmup_insts`
            // is inert here).
            return SamplePlan {
                interval_insts,
                total_instructions,
                warmup_insts,
                assignments: (0..n as u32).collect(),
                clusters: (0..n)
                    .map(|i| ClusterInfo {
                        representative: i,
                        weight: 1,
                    })
                    .collect(),
                cursors: None,
            };
        }

        // Pin the startup interval, cluster the rest (skip the pin when
        // k == 1: a single cluster must cover everything).
        let pinned = usize::from(k >= 2);
        let body = &vectors[pinned..];
        let kk = k - pinned;
        let (centroids, body_assignments) = kmeans(body, kk, cfg.seed, cfg.max_iters);

        // Representative per cluster: the member nearest its centroid
        // (first such member on ties, so the choice is deterministic).
        let mut reps: Vec<Option<(usize, f64)>> = vec![None; kk];
        for (i, v) in body.iter().enumerate() {
            let c = body_assignments[i] as usize;
            let d = dist2(v, &centroids[c]);
            match reps[c] {
                Some((_, best)) if best <= d => {}
                _ => reps[c] = Some((i, d)),
            }
        }
        let mut weights = vec![0u64; kk];
        for &a in &body_assignments {
            weights[a as usize] += 1;
        }
        let mut assignments = Vec::with_capacity(n);
        assignments.extend((0..pinned).map(|_| 0u32));
        assignments.extend(body_assignments.iter().map(|&a| a + pinned as u32));
        let mut clusters: Vec<ClusterInfo> = (0..pinned)
            .map(|i| ClusterInfo {
                representative: i,
                weight: 1,
            })
            .collect();
        clusters.extend(reps.iter().zip(&weights).filter_map(|(rep, &weight)| {
            rep.map(|(representative, _)| ClusterInfo {
                representative: representative + pinned,
                weight,
            })
        }));
        clusters.sort_by_key(|c| c.representative);
        SamplePlan {
            interval_insts,
            total_instructions,
            warmup_insts,
            assignments,
            clusters,
            cursors: None,
        }
    }

    /// Fingerprints a snapshot with `fp` and clusters the result — the
    /// end-to-end plan builder for one cached snapshot pass.
    ///
    /// The fingerprinting replay is a full decode: it validates the
    /// footer counters and records a cursor at every interval boundary,
    /// which [`Snapshot::replay_sampled`] later seeks to. The plan keeps
    /// that cursor table together with the snapshot's checksum.
    ///
    /// # Errors
    ///
    /// Propagates any [`SnapshotError`] from the fingerprinting replay.
    pub fn from_snapshot<F: Fingerprinter>(
        snapshot: &Snapshot<'_>,
        fp: &mut F,
        cfg: &SamplingConfig,
    ) -> Result<SamplePlan, SnapshotError> {
        let total = snapshot.info().summary.instructions;
        let interval_insts = cfg.interval_insts(total);
        fp.set_interval_insts(interval_insts);
        let (_, cursors) = snapshot.replay_indexed(fp, interval_insts)?;
        let vectors = fp.finish();
        Ok(SamplePlan {
            cursors: Some(cursors),
            ..SamplePlan::from_vectors(&vectors, interval_insts, total, cfg)
        })
    }

    /// Interval length in instructions.
    pub fn interval_insts(&self) -> u64 {
        self.interval_insts
    }

    /// Instructions in the full trace.
    pub fn total_instructions(&self) -> u64 {
        self.total_instructions
    }

    /// Number of intervals the trace was sliced into.
    pub fn num_intervals(&self) -> usize {
        self.assignments.len()
    }

    /// Per-interval cluster assignments.
    pub fn assignments(&self) -> &[u32] {
        &self.assignments
    }

    /// The weighted representatives, sorted by interval index.
    pub fn clusters(&self) -> &[ClusterInfo] {
        &self.clusters
    }

    /// `true` if every interval is its own representative — the plan
    /// replays the entire trace and sampled replay is bit-identical to
    /// [`Snapshot::replay`].
    pub fn is_full_replay(&self) -> bool {
        self.clusters.len() == self.num_intervals() && self.clusters.iter().all(|c| c.weight == 1)
    }

    /// Warmup length in instructions before each representative.
    pub fn warmup_insts(&self) -> u64 {
        self.warmup_insts
    }

    /// The `[warmup_start, rep_start, end)` instruction window of the
    /// `i`-th cluster's representative. Warmup extends backward from
    /// the representative by [`SamplePlan::warmup_insts`], clamped to
    /// the trace start and to the previous representative's window (an
    /// adjacent representative leaves nothing to warm).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn window(&self, i: usize) -> (u64, u64, u64) {
        let c = &self.clusters[i];
        let start = c.representative as u64 * self.interval_insts;
        let end = start + self.interval_len(c.representative);
        let prev_end = if i == 0 {
            0
        } else {
            let p = &self.clusters[i - 1];
            p.representative as u64 * self.interval_insts + self.interval_len(p.representative)
        };
        let warm = start.saturating_sub(self.warmup_insts).max(prev_end);
        (warm, start, end)
    }

    /// Instructions a sampled replay delivers (representatives plus
    /// their weight-0 warmup windows).
    pub fn replayed_instructions(&self) -> u64 {
        (0..self.clusters.len())
            .map(|i| {
                let (warm, _, end) = self.window(i);
                end - warm
            })
            .sum()
    }

    /// Fraction of the full trace a sampled replay delivers.
    pub fn replayed_fraction(&self) -> f64 {
        if self.total_instructions == 0 {
            0.0
        } else {
            self.replayed_instructions() as f64 / self.total_instructions as f64
        }
    }

    /// Length of interval `idx` in instructions (the tail interval may
    /// be short).
    fn interval_len(&self, idx: usize) -> u64 {
        let start = idx as u64 * self.interval_insts;
        (self.total_instructions - start.min(self.total_instructions)).min(self.interval_insts)
    }
}

/// What a sampled replay delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SampledReplay {
    /// Summary of the **full** trace: the footer counters the plan
    /// pass's full decode validated. The sampled replay itself decodes
    /// only the windows it delivers.
    pub summary: RunSummary,
    /// Instructions actually delivered to the tool.
    pub delivered_instructions: u64,
}

/// Squared Euclidean distance.
fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| {
            let d = x - y;
            d * d
        })
        .sum()
}

/// Deterministic k-means++ plus Lloyd iterations. Returns centroids and
/// per-vector assignments. `k < vectors.len()` is required.
fn kmeans(
    vectors: &[Vec<f64>],
    k: usize,
    seed: u64,
    max_iters: usize,
) -> (Vec<Vec<f64>>, Vec<u32>) {
    let n = vectors.len();
    let mut rng = SmallRng::seed_from_u64(seed);

    // k-means++ seeding: first centroid uniform, then each next
    // centroid drawn proportionally to squared distance from the
    // nearest chosen one.
    let mut centroids: Vec<Vec<f64>> = Vec::with_capacity(k);
    centroids.push(vectors[rng.gen_range(0..n)].clone());
    let mut nearest: Vec<f64> = vectors.iter().map(|v| dist2(v, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = nearest.iter().sum();
        let idx = if total > 0.0 {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = n - 1;
            for (i, &d) in nearest.iter().enumerate() {
                if target < d {
                    chosen = i;
                    break;
                }
                target -= d;
            }
            chosen
        } else {
            // All remaining points coincide with a centroid: spread
            // the rest uniformly.
            rng.gen_range(0..n)
        };
        centroids.push(vectors[idx].clone());
        for (d, v) in nearest.iter_mut().zip(vectors) {
            *d = d.min(dist2(v, centroids.last().expect("just pushed")));
        }
    }

    let mut assignments = vec![0u32; n];
    for _ in 0..max_iters.max(1) {
        // Assign.
        let mut changed = false;
        for (i, v) in vectors.iter().enumerate() {
            let mut best = 0u32;
            let mut best_d = f64::INFINITY;
            for (c, cent) in centroids.iter().enumerate() {
                let d = dist2(v, cent);
                if d < best_d {
                    best_d = d;
                    best = c as u32;
                }
            }
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
        }
        // Update.
        let dims = vectors[0].len();
        let mut sums = vec![vec![0.0f64; dims]; k];
        let mut counts = vec![0u64; k];
        for (i, v) in vectors.iter().enumerate() {
            let c = assignments[i] as usize;
            counts[c] += 1;
            for (s, x) in sums[c].iter_mut().zip(v) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Empty cluster: re-seed it on the point farthest from
                // its current centroid (deterministic).
                let far = vectors
                    .iter()
                    .enumerate()
                    .max_by(|(_, a), (_, b)| {
                        dist2(a, &centroids[assignments[0] as usize])
                            .partial_cmp(&dist2(b, &centroids[assignments[0] as usize]))
                            .expect("finite distances")
                    })
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                centroids[c] = vectors[far].clone();
                continue;
            }
            for (cent, s) in centroids[c].iter_mut().zip(&sums[c]) {
                *cent = s / counts[c] as f64;
            }
        }
        if !changed {
            break;
        }
    }
    (centroids, assignments)
}

impl Snapshot<'_> {
    /// Replays only the plan's representative intervals into `tool`,
    /// delivering each cluster's weight through
    /// [`Pintool::on_sample_weight`] after its representative's events.
    ///
    /// Only the delivered windows are decoded: each one starts from the
    /// cursor the plan pass recorded at its warmup start and stops right
    /// after its last event, and the records between windows are never
    /// read. The footer counters were validated by the plan pass's full
    /// decode, which the plan is tied to by this snapshot's checksum; the
    /// returned [`SampledReplay::summary`] is that validated one. A plan
    /// without a cursor table ([`SamplePlan::from_vectors`]) first records
    /// one with a validating full decode that delivers nothing.
    ///
    /// A [`SamplePlan::is_full_replay`] plan takes the unsampled decode
    /// path and is bit-identical to [`Snapshot::replay`] (no
    /// `on_sample_weight` calls at all).
    ///
    /// # Errors
    ///
    /// As for [`Snapshot::replay`], plus [`SnapshotError::PlanMismatch`]
    /// when the plan's cursor table was recorded over other bytes or its
    /// geometry covers another instruction count.
    ///
    /// # Panics
    ///
    /// Panics if `tool` does not report
    /// [`Pintool::supports_sampled_replay`] — a weight-oblivious tool
    /// would silently under-count.
    pub fn replay_sampled<T: Pintool + ?Sized>(
        &self,
        tool: &mut T,
        plan: &SamplePlan,
    ) -> Result<SampledReplay, SnapshotError> {
        self.replay_sampled_batched(tool, plan, DEFAULT_BATCH_CAPACITY)
    }

    /// [`Snapshot::replay_sampled`] with an explicit batch capacity
    /// (exercised down to capacity 1 by the equivalence tests).
    ///
    /// # Errors
    ///
    /// As for [`Snapshot::replay_sampled`].
    ///
    /// # Panics
    ///
    /// As for [`Snapshot::replay_sampled`].
    pub fn replay_sampled_batched<T: Pintool + ?Sized>(
        &self,
        tool: &mut T,
        plan: &SamplePlan,
        capacity: usize,
    ) -> Result<SampledReplay, SnapshotError> {
        assert!(
            tool.supports_sampled_replay(),
            "tool does not support weighted sampled replay"
        );
        if plan.is_full_replay() {
            let summary = self.replay_batched(tool, capacity)?;
            return Ok(SampledReplay {
                summary,
                delivered_instructions: summary.instructions,
            });
        }
        let built;
        let cursors = match &plan.cursors {
            Some(table) => table,
            None => {
                built = self.replay_indexed(&mut NullTool, plan.interval_insts)?.1;
                &built
            }
        };
        for (field, planned, actual) in [
            ("checksum", cursors.checksum(), self.checksum()),
            (
                "instruction",
                plan.total_instructions,
                self.info().summary.instructions,
            ),
        ] {
            if planned != actual {
                return Err(SnapshotError::PlanMismatch {
                    field,
                    planned,
                    actual,
                });
            }
        }

        let _decode_span = telemetry::span("decode");
        let mut batch = EventBatch::for_tool(capacity, tool);
        let delivered = self.deliver_windows(tool, plan, cursors, &mut batch);
        // A failed window still hands over what it decoded.
        batch.flush_into(tool);
        Ok(SampledReplay {
            summary: self.info().summary,
            delivered_instructions: delivered?,
        })
    }

    /// The sampled delivery loop: per representative, the warmup prefix
    /// (closed by weight 0: state warmed, counters discarded), then the
    /// representative (closed by the cluster weight), then a gap notice
    /// unless the next window starts exactly where this one ended.
    /// Returns the instructions delivered.
    fn deliver_windows<T: Pintool + ?Sized>(
        &self,
        tool: &mut T,
        plan: &SamplePlan,
        cursors: &CursorTable,
        batch: &mut EventBatch,
    ) -> Result<u64, SnapshotError> {
        let mut delivered = 0;
        for (i, cluster) in plan.clusters.iter().enumerate() {
            let (warm, start, end) = plan.window(i);
            let mut at = cursors
                .at(warm)
                .expect("windows start on recorded interval boundaries");
            for (until, weight) in [(start, 0), (end, cluster.weight)] {
                if until == at.events() {
                    // No warmup before this representative.
                    continue;
                }
                at = self.decode_batched(batch, tool, at, Some(until), None)?.end;
                batch.flush_into(tool);
                tool.on_sample_weight(weight);
            }
            let adjacent = i + 1 < plan.clusters.len() && plan.window(i + 1).0 == end;
            if !adjacent {
                tool.on_sample_gap();
            }
            delivered += end - warm;
        }
        Ok(delivered)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(intervals: usize, k: usize) -> SamplingConfig {
        SamplingConfig::default()
            .with_intervals(intervals)
            .with_k(k)
    }

    fn vectors(pattern: &[usize]) -> Vec<Vec<f64>> {
        // Three well-separated archetype fingerprints.
        let arch = [
            vec![1.0, 0.0, 0.0, 0.0],
            vec![0.0, 1.0, 0.0, 0.0],
            vec![0.0, 0.0, 0.7, 0.3],
        ];
        pattern.iter().map(|&p| arch[p].clone()).collect()
    }

    #[test]
    fn weights_sum_to_interval_count() {
        let vs = vectors(&[0, 0, 1, 1, 2, 2, 0, 1, 2, 0]);
        let plan = SamplePlan::from_vectors(&vs, 100, 1000, &cfg(10, 3));
        assert_eq!(plan.num_intervals(), 10);
        let total: u64 = plan.clusters().iter().map(|c| c.weight).sum();
        assert_eq!(total, 10);
        assert_eq!(plan.clusters().len(), 3);
    }

    #[test]
    fn clustering_is_deterministic_and_separates_phases() {
        let vs = vectors(&[0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]);
        // k = 4: the pinned startup singleton plus one cluster per
        // archetype.
        let a = SamplePlan::from_vectors(&vs, 10, 120, &cfg(12, 4));
        let b = SamplePlan::from_vectors(&vs, 10, 120, &cfg(12, 4));
        assert_eq!(a, b);
        // Interval 0 is pinned as a weight-1 singleton.
        assert_eq!(a.clusters()[0].representative, 0);
        assert_eq!(a.clusters()[0].weight, 1);
        // Perfectly separated phases must cluster by archetype: every
        // non-startup interval of one archetype shares one assignment.
        for arch in 0..3usize {
            let ids: Vec<u32> = (1..12)
                .filter(|i| i % 3 == arch)
                .map(|i| a.assignments()[i])
                .collect();
            assert!(ids.windows(2).all(|w| w[0] == w[1]), "{ids:?}");
        }
    }

    #[test]
    fn degenerate_k_is_full_replay() {
        let vs = vectors(&[0, 1, 2, 0]);
        let plan = SamplePlan::from_vectors(&vs, 25, 100, &cfg(4, 8));
        assert!(plan.is_full_replay());
        assert_eq!(plan.replayed_instructions(), 100);
        assert!((plan.replayed_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn replayed_fraction_counts_tail_interval() {
        // 95 insts in intervals of 10: interval 9 holds only 5.
        let vs = vectors(&[0; 10]);
        let plan = SamplePlan::from_vectors(&vs, 10, 95, &cfg(10, 1));
        assert_eq!(plan.clusters().len(), 1);
        let rep = plan.clusters()[0].representative;
        let expect = if rep == 9 { 5 } else { 10 };
        assert_eq!(plan.replayed_instructions(), expect);
    }

    #[test]
    fn weighted_add_saturates_instead_of_wrapping() {
        assert_eq!(weighted_add(0, 3, 4), 12);
        assert_eq!(weighted_add(7, 0, u64::MAX), 7);
        assert_eq!(weighted_add(1, u64::MAX, 2), u64::MAX);
        assert_eq!(weighted_add(u64::MAX, u64::MAX, u64::MAX), u64::MAX);
    }

    #[test]
    fn config_interval_geometry() {
        let c = SamplingConfig::default().with_intervals(80);
        assert_eq!(c.interval_insts(800), 10);
        assert_eq!(c.interval_insts(801), 11);
        assert_eq!(c.interval_insts(0), 1);
        assert_eq!(SamplingConfig::default().with_k(0).k, 1);
        assert_eq!(SamplingConfig::default().with_intervals(0).intervals, 1);
    }
}
