//! Reference values reported by the paper, for side-by-side comparison.
//!
//! Table values are quoted exactly; figure values are read off the
//! published plots and are approximate (±10–20%). Where the paper gives
//! only qualitative statements, the constants encode the stated ratios.
//!
//! [`Suite::Kernels`] is not in the paper: its entries are the *design
//! targets* of the kernel-archetype generator (suite means over the
//! [`KernelSpec`](rebalance_workloads::KernelSpec) roster), so the
//! side-by-side columns stay meaningful for our synthetic suite too.

use rebalance_workloads::Suite;

/// Figure 1: total branch fraction per suite (fraction of instructions).
pub fn branch_fraction(suite: Suite) -> f64 {
    match suite {
        Suite::ExMatEx => 0.13,
        Suite::SpecOmp => 0.07,
        Suite::Npb => 0.07,
        Suite::SpecCpuInt => 0.19,
        Suite::Kernels => 0.11,
    }
}

/// Table I: backward share of taken branches (serial, parallel).
/// SPEC CPU INT has a single (serial) number.
pub fn backward_taken(suite: Suite) -> (f64, f64) {
    match suite {
        Suite::ExMatEx => (0.72, 0.69),
        Suite::SpecOmp => (0.73, 0.74),
        Suite::Npb => (0.71, 0.80),
        Suite::SpecCpuInt => (0.56, 0.56),
        Suite::Kernels => (0.55, 0.70),
    }
}

/// Figure 2: fraction of dynamic conditional branches from strongly
/// biased sites (<10% or >90% taken), per suite.
pub fn strongly_biased(suite: Suite) -> f64 {
    match suite {
        Suite::ExMatEx => 0.80,
        Suite::SpecOmp => 0.85,
        Suite::Npb => 0.90,
        Suite::SpecCpuInt => 0.55,
        Suite::Kernels => 0.75,
    }
}

/// Figure 3: average static footprint in KB per suite.
pub fn static_kb(suite: Suite) -> f64 {
    match suite {
        Suite::ExMatEx => 242.0,
        Suite::SpecOmp => 121.0,
        Suite::Npb => 121.0,
        Suite::SpecCpuInt => 300.0,
        Suite::Kernels => 170.0,
    }
}

/// Figure 3: average memory for 99% of dynamic instructions (KB),
/// parallel sections for HPC / total for SPEC CPU INT.
pub fn dyn99_kb(suite: Suite) -> f64 {
    match suite {
        Suite::ExMatEx => 18.0,
        Suite::SpecOmp => 12.0,
        Suite::Npb => 12.0,
        Suite::SpecCpuInt => 75.0,
        Suite::Kernels => 10.0,
    }
}

/// Figure 4: average basic-block bytes (parallel for HPC).
pub fn bbl_bytes(suite: Suite) -> f64 {
    match suite {
        Suite::ExMatEx => 60.0,
        Suite::SpecOmp => 90.0,
        Suite::Npb => 100.0,
        Suite::SpecCpuInt => 20.0,
        Suite::Kernels => 140.0,
    }
}

/// Figure 5: branch MPKI with the big gshare per suite (read off plot).
pub fn gshare_big_mpki(suite: Suite) -> f64 {
    match suite {
        Suite::ExMatEx => 2.7,
        Suite::SpecOmp => 1.6,
        Suite::Npb => 1.6,
        Suite::SpecCpuInt => 8.0,
        Suite::Kernels => 4.0,
    }
}

/// Table III rows: `(area_mm2, power_w)` for the named structure.
pub fn table3(structure: &str) -> Option<(f64, f64)> {
    Some(match structure {
        "baseline.core" => (2.49, 0.85),
        "baseline.icache" => (0.31, 0.075),
        "baseline.bp" => (0.14, 0.032),
        "baseline.btb" => (0.125, 0.017),
        "tailored.core" => (2.11, 0.79),
        "tailored.icache" => (0.14, 0.049),
        "tailored.bp" => (0.04, 0.011),
        "tailored.btb" => (0.022, 0.002),
        _ => return None,
    })
}

/// Figure 10a: normalized execution time per suite for
/// (Tailored, Asymmetric, Asymmetric++) relative to Baseline = 1.0.
pub fn fig10_time(suite: Suite) -> (f64, f64, f64) {
    match suite {
        Suite::ExMatEx => (1.06, 1.01, 0.92),
        Suite::SpecOmp => (1.01, 1.00, 0.89),
        Suite::Npb => (1.01, 1.00, 0.88),
        Suite::SpecCpuInt => (1.08, 1.00, 1.00),
        Suite::Kernels => (1.03, 1.00, 0.93),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_suites_covered() {
        for s in Suite::ALL {
            assert!(branch_fraction(s) > 0.0);
            let (ser, par) = backward_taken(s);
            assert!(ser > 0.5 && par > 0.5);
            assert!(strongly_biased(s) > 0.0);
            assert!(static_kb(s) > 0.0);
            assert!(dyn99_kb(s) > 0.0);
            assert!(bbl_bytes(s) > 0.0);
            assert!(gshare_big_mpki(s) > 0.0);
            let (t, a, app) = fig10_time(s);
            assert!(t > 0.8 && a > 0.8 && app > 0.8);
        }
    }

    #[test]
    fn table3_rows() {
        assert_eq!(table3("baseline.core"), Some((2.49, 0.85)));
        assert_eq!(table3("tailored.btb"), Some((0.022, 0.002)));
        assert_eq!(table3("nonsense"), None);
    }

    #[test]
    fn desktop_is_branchier_and_less_biased() {
        assert!(branch_fraction(Suite::SpecCpuInt) > 2.0 * branch_fraction(Suite::Npb));
        assert!(strongly_biased(Suite::Npb) > strongly_biased(Suite::SpecCpuInt));
    }
}
