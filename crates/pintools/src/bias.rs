//! Figure 2: distribution of conditional-branch directions (taken-rate
//! buckets).

use std::collections::HashMap;

use rebalance_trace::{EventBatch, Need, Pintool, Section, TraceEvent};
use serde::{Deserialize, Serialize};

use rebalance_trace::BySection;

/// Number of taken-rate buckets (0–10%, 10–20%, ..., >90%).
pub const NUM_BIAS_BUCKETS: usize = 10;

/// Per-site dynamic statistics.
#[derive(Debug, Clone, Copy, Default)]
struct SiteStats {
    taken: u64,
    total: u64,
}

/// Dynamic-weighted taken-rate histogram.
///
/// `buckets[i]` is the fraction of *dynamic conditional branches* whose
/// static site is taken between `i*10%` and `(i+1)*10%` of the time —
/// exactly the stacking of the paper's Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BiasBuckets {
    /// Fractions per bucket; sums to 1 when any branches were seen.
    pub buckets: [f64; NUM_BIAS_BUCKETS],
    /// Dynamic conditional branches observed.
    pub dynamic_branches: u64,
    /// Distinct static sites observed.
    pub static_sites: u64,
}

impl Default for BiasBuckets {
    fn default() -> Self {
        BiasBuckets {
            buckets: [0.0; NUM_BIAS_BUCKETS],
            dynamic_branches: 0,
            static_sites: 0,
        }
    }
}

impl BiasBuckets {
    /// Fraction of dynamic branches from *strongly biased* sites
    /// (taken <10% or >90% of the time).
    pub fn strongly_biased_fraction(&self) -> f64 {
        self.buckets[0] + self.buckets[NUM_BIAS_BUCKETS - 1]
    }
}

/// Report: per-section and total bucket histograms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct BiasReport {
    /// Per-section histograms.
    pub sections: BySection<BiasBuckets>,
    /// Combined histogram.
    pub total: BiasBuckets,
}

/// The Figure 2 pintool: tracks each conditional site's taken rate and
/// buckets sites weighted by execution count.
///
/// # Examples
///
/// ```
/// use rebalance_pintools::BranchBiasTool;
///
/// let tool = BranchBiasTool::new();
/// assert_eq!(tool.report().total.dynamic_branches, 0);
/// ```
#[derive(Debug, Default)]
pub struct BranchBiasTool {
    sites: HashMap<u64, (Section, SiteStats)>,
}

impl BranchBiasTool {
    /// Creates an empty tool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes the bucket histograms from the accumulated site stats.
    pub fn report(&self) -> BiasReport {
        let mut sections: BySection<[u64; NUM_BIAS_BUCKETS]> = BySection::default();
        let mut sec_sites: BySection<u64> = BySection::default();
        let mut total = [0u64; NUM_BIAS_BUCKETS];
        let mut dyn_count: BySection<u64> = BySection::default();
        for (section, s) in self.sites.values() {
            if s.total == 0 {
                continue;
            }
            let rate = s.taken as f64 / s.total as f64;
            let bucket = ((rate * NUM_BIAS_BUCKETS as f64) as usize).min(NUM_BIAS_BUCKETS - 1);
            sections.get_mut(*section)[bucket] += s.total;
            total[bucket] += s.total;
            *dyn_count.get_mut(*section) += s.total;
            *sec_sites.get_mut(*section) += 1;
        }
        let to_buckets = |counts: &[u64; NUM_BIAS_BUCKETS], dynamic: u64, sites: u64| {
            let mut b = BiasBuckets {
                dynamic_branches: dynamic,
                static_sites: sites,
                ..BiasBuckets::default()
            };
            if dynamic > 0 {
                for (out, &c) in b.buckets.iter_mut().zip(counts) {
                    *out = c as f64 / dynamic as f64;
                }
            }
            b
        };
        let serial = to_buckets(&sections.serial, dyn_count.serial, sec_sites.serial);
        let parallel = to_buckets(&sections.parallel, dyn_count.parallel, sec_sites.parallel);
        let total_dyn = dyn_count.serial + dyn_count.parallel;
        let total_sites = sec_sites.serial + sec_sites.parallel;
        BiasReport {
            sections: BySection::new(serial, parallel),
            total: to_buckets(&total, total_dyn, total_sites),
        }
    }
}

impl Pintool for BranchBiasTool {
    fn on_inst(&mut self, ev: &TraceEvent) {
        let Some(br) = ev.branch else { return };
        if !br.kind.is_conditional() {
            return;
        }
        let entry = self
            .sites
            .entry(ev.pc.as_u64())
            .or_insert((ev.section, SiteStats::default()));
        entry.1.total += 1;
        if br.outcome.is_taken() {
            entry.1.taken += 1;
        }
    }

    /// Hot path: per-site accounting only ever touches conditionals, so
    /// the loop walks the precomputed branch subset.
    fn on_batch(&mut self, batch: &EventBatch) {
        for ev in batch.branch_events() {
            let br = ev.branch.expect("branch slice carries branch events");
            if !br.kind.is_conditional() {
                continue;
            }
            let entry = self
                .sites
                .entry(ev.pc.as_u64())
                .or_insert((ev.section, SiteStats::default()));
            entry.1.total += 1;
            if br.outcome.is_taken() {
                entry.1.taken += 1;
            }
        }
    }

    /// `on_batch` reads only the branch slice.
    fn need(&self) -> Need {
        Need::Branches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_isa::{Addr, BranchKind, InstClass, Outcome};
    use rebalance_trace::BranchEvent;

    fn cond(pc: u64, taken: bool, section: Section) -> TraceEvent {
        TraceEvent {
            pc: Addr::new(pc),
            len: 6,
            class: InstClass::Branch(BranchKind::CondDirect),
            branch: Some(BranchEvent {
                kind: BranchKind::CondDirect,
                outcome: Outcome::from_taken(taken),
                target: Some(Addr::new(0x10)),
            }),
            section,
        }
    }

    #[test]
    fn sites_bucket_by_taken_rate() {
        let mut t = BranchBiasTool::new();
        // Site A: taken 95% (19/20) -> bucket 9.
        for i in 0..20 {
            t.on_inst(&cond(0x100, i != 0, Section::Parallel));
        }
        // Site B: taken 5% (1/20) -> bucket 0.
        for i in 0..20 {
            t.on_inst(&cond(0x200, i == 0, Section::Parallel));
        }
        // Site C: taken 50% (10/20) -> bucket 5.
        for i in 0..20 {
            t.on_inst(&cond(0x300, i % 2 == 0, Section::Parallel));
        }
        let r = t.report();
        let p = r.sections.parallel;
        assert_eq!(p.dynamic_branches, 60);
        assert_eq!(p.static_sites, 3);
        assert!((p.buckets[9] - 1.0 / 3.0).abs() < 1e-9);
        assert!((p.buckets[0] - 1.0 / 3.0).abs() < 1e-9);
        assert!((p.buckets[5] - 1.0 / 3.0).abs() < 1e-9);
        assert!((p.strongly_biased_fraction() - 2.0 / 3.0).abs() < 1e-9);
        // Histogram sums to one.
        let sum: f64 = p.buckets.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn heavier_sites_dominate_the_histogram() {
        let mut t = BranchBiasTool::new();
        for _ in 0..90 {
            t.on_inst(&cond(0x100, true, Section::Serial)); // 100% taken
        }
        for _ in 0..10 {
            t.on_inst(&cond(0x200, false, Section::Serial)); // 0% taken
        }
        let r = t.report();
        assert!((r.sections.serial.buckets[9] - 0.9).abs() < 1e-9);
        assert!((r.sections.serial.buckets[0] - 0.1).abs() < 1e-9);
    }

    #[test]
    fn non_conditional_branches_ignored() {
        let mut t = BranchBiasTool::new();
        let mut ev = cond(0x100, true, Section::Serial);
        ev.class = InstClass::Branch(BranchKind::UncondDirect);
        ev.branch = Some(BranchEvent {
            kind: BranchKind::UncondDirect,
            outcome: Outcome::Taken,
            target: Some(Addr::new(0x10)),
        });
        t.on_inst(&ev);
        assert_eq!(t.report().total.dynamic_branches, 0);
    }

    #[test]
    fn total_merges_sections() {
        let mut t = BranchBiasTool::new();
        for _ in 0..10 {
            t.on_inst(&cond(0x100, true, Section::Serial));
            t.on_inst(&cond(0x200, true, Section::Parallel));
        }
        let r = t.report();
        assert_eq!(r.total.dynamic_branches, 20);
        assert_eq!(r.total.static_sites, 2);
        assert!((r.total.buckets[9] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn exact_boundary_rates_bucket_correctly() {
        let mut t = BranchBiasTool::new();
        // Exactly 10% taken: rate 0.1 lands in bucket 1 (10-20%)
        // by the floor rule.
        for i in 0..10 {
            t.on_inst(&cond(0x500, i == 0, Section::Serial));
        }
        let r = t.report();
        assert!((r.sections.serial.buckets[1] - 1.0).abs() < 1e-9);
        // 100% taken clamps into the last bucket.
        let mut t = BranchBiasTool::new();
        for _ in 0..5 {
            t.on_inst(&cond(0x600, true, Section::Serial));
        }
        let r = t.report();
        assert!((r.sections.serial.buckets[9] - 1.0).abs() < 1e-9);
    }
}
