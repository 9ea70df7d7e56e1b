//! One-pass characterization: all five pintools over a single replay.

use rebalance_trace::{RunSummary, SyntheticTrace};
use serde::{Deserialize, Serialize};

use crate::basic_block::{BasicBlockReport, BasicBlockTool};
use crate::bias::{BiasReport, BranchBiasTool};
use crate::direction::{DirectionReport, DirectionTool};
use crate::footprint::{FootprintReport, FootprintTool};
use crate::mix::{BranchMixReport, BranchMixTool};

/// The bundled output of every architecture-independent analysis
/// (Figures 1–4 and Table I) for one workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Characterization {
    /// Figure 1: branch-type mix.
    pub mix: BranchMixReport,
    /// Figure 2: bias buckets.
    pub bias: BiasReport,
    /// Table I: backward/forward taken.
    pub direction: DirectionReport,
    /// Figure 3: footprints (static + 99% dynamic).
    pub footprint: FootprintReport,
    /// Figure 4: basic blocks & taken distances.
    pub basic_blocks: BasicBlockReport,
    /// Interpreter-level run summary.
    pub summary: RunSummary,
}

/// Runs all five characterization tools over one replay of `trace`.
///
/// This mirrors attaching several pintools to one Pin session: a single
/// pass over the dynamic instruction stream feeds every analysis.
///
/// # Examples
///
/// ```
/// use rebalance_pintools::characterize;
/// use rebalance_workloads::{find, Scale};
///
/// let trace = find("EP").unwrap().trace(Scale::Smoke).unwrap();
/// let c = characterize(&trace);
/// assert_eq!(c.summary.instructions, trace.schedule().total_instructions());
/// assert!(c.footprint.static_bytes > 0);
/// ```
pub fn characterize(trace: &SyntheticTrace) -> Characterization {
    let mut tools = characterization_tools();
    let summary = trace.replay(&mut tools);
    characterization_from_tools(tools, trace.program().static_bytes(), summary)
}

/// The five characterization tools bundled as one fan-out
/// [`Pintool`](rebalance_trace::Pintool) (the tuple combinator gives
/// static dispatch).
pub type CharacterizationTools = (
    BranchMixTool,
    BranchBiasTool,
    DirectionTool,
    FootprintTool,
    BasicBlockTool,
);

/// Fresh characterization tools, ready to observe a replay — live, or
/// decoded from a trace snapshot.
pub fn characterization_tools() -> CharacterizationTools {
    (
        BranchMixTool::new(),
        BranchBiasTool::new(),
        DirectionTool::new(),
        FootprintTool::new(),
        BasicBlockTool::new(),
    )
}

/// Assembles the [`Characterization`] from already-replayed tools.
///
/// `static_bytes` is the program's static code size — the one input a
/// dynamic event stream cannot supply, so cached replays read it from
/// the snapshot footer (`CachedReplay::static_bytes`).
pub fn characterization_from_tools(
    tools: CharacterizationTools,
    static_bytes: u64,
    summary: RunSummary,
) -> Characterization {
    Characterization {
        mix: tools.0.report(),
        bias: tools.1.report(),
        direction: tools.2.report(),
        footprint: tools.3.report_with_static(static_bytes, 0.99),
        basic_blocks: tools.4.report(),
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebalance_trace::Section;
    use rebalance_workloads::{find, Scale};

    fn characterize_named(name: &str) -> Characterization {
        let trace = find(name).unwrap().trace(Scale::Smoke).unwrap();
        characterize(&trace)
    }

    #[test]
    fn all_reports_populated_for_an_hpc_workload() {
        let c = characterize_named("CG");
        assert!(c.summary.instructions >= 79_000);
        assert!(c.mix.total().branches() > 0);
        assert!(c.bias.total.dynamic_branches > 0);
        let d = c.direction.total();
        assert!(d.cond_backward > 0);
        assert!(c.footprint.total.dyn99_bytes > 0);
        assert!(c.basic_blocks.total().blocks > 0);
    }

    #[test]
    fn hpc_parallel_sections_dominate() {
        let c = characterize_named("FT");
        let par = c.mix.section(Section::Parallel).insts;
        let ser = c.mix.section(Section::Serial).insts;
        assert!(par > 50 * ser, "parallel {par} vs serial {ser}");
    }

    #[test]
    fn spec_int_is_all_serial() {
        let c = characterize_named("gcc");
        assert_eq!(c.mix.section(Section::Parallel).insts, 0);
        assert!(c.mix.section(Section::Serial).insts > 0);
    }

    #[test]
    fn characterization_is_deterministic() {
        let a = characterize_named("LULESH");
        let b = characterize_named("LULESH");
        assert_eq!(a, b);
    }
}
