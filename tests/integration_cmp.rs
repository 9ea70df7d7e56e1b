//! Cross-crate integration: CMP-level results reproduce the paper's
//! Section V claims in shape.

use rebalance::prelude::*;

/// `name` on every floorplan of `floorplans`, from one replay.
fn price<const N: usize>(
    name: &str,
    floorplans: [CmpFloorplan; N],
    scale: Scale,
) -> [rebalance::CmpResult; N] {
    let w = rebalance::workloads::find(name).unwrap();
    let sims = floorplans.map(CmpSim::new);
    simulate_floorplans(&sims, &w, scale, FetchModelKind::Penalty)
        .unwrap()
        .try_into()
        .expect("one result per floorplan")
}

#[test]
fn area_budget_argument_holds() {
    // One baseline + eight tailored cores fit the core-area budget of
    // eight baseline cores (the Asymmetric++ premise).
    let baseline = CmpFloorplan::baseline(8).estimate();
    let asym_pp = CmpFloorplan::asymmetric(1, 8).estimate();
    assert!(asym_pp.core_area_mm2() <= baseline.core_area_mm2());
    // ...but nine baseline cores would not.
    let nine_baseline = CmpFloorplan::baseline(9).estimate();
    assert!(nine_baseline.core_area_mm2() > baseline.core_area_mm2());
}

#[test]
fn headline_savings_from_the_abstract() {
    use rebalance::mcpat::CoreEstimate;
    let b = CoreEstimate::for_core(CoreKind::Baseline);
    let t = CoreEstimate::for_core(CoreKind::Tailored);
    let area = 1.0 - t.area_mm2() / b.area_mm2();
    let power = 1.0 - t.power_w() / b.power_w();
    // Paper: 16% area, 7% power.
    assert!((area - 0.16).abs() < 0.02, "area saving {area}");
    assert!((power - 0.07).abs() < 0.02, "power saving {power}");
}

#[test]
fn asymmetric_pp_beats_baseline_on_npb() {
    // Paper: ~12% average speedup, up to 20% (FT).
    for name in ["FT", "LU", "MG"] {
        let [base, aspp] = price(
            name,
            [CmpFloorplan::baseline(8), CmpFloorplan::asymmetric(1, 8)],
            Scale::Smoke,
        );
        let speedup = 1.0 - aspp.time_s / base.time_s;
        assert!(
            (0.05..=0.20).contains(&speedup),
            "{name}: speedup {speedup:.3}"
        );
    }
}

#[test]
fn coevp_recovers_with_an_asymmetric_master() {
    // Paper Figure 11: CoEVP suffers on the all-tailored CMP but the
    // asymmetric design restores baseline-level performance.
    let [base, tailored, asym] = price(
        "CoEVP",
        [
            CmpFloorplan::baseline(8),
            CmpFloorplan::tailored(8),
            CmpFloorplan::asymmetric(1, 7),
        ],
        Scale::Quick,
    );
    assert!(
        tailored.time_s > base.time_s,
        "tailored {} vs baseline {}",
        tailored.time_s,
        base.time_s
    );
    assert!(
        asym.time_s < tailored.time_s,
        "asym {} vs tailored {}",
        asym.time_s,
        tailored.time_s
    );
}

#[test]
fn tailored_cmp_saves_energy_on_regular_hpc() {
    let [base, tailored] = price(
        "ilbdc",
        [CmpFloorplan::baseline(8), CmpFloorplan::tailored(8)],
        Scale::Smoke,
    );
    assert!(tailored.energy_j < base.energy_j);
    assert!(tailored.power_w < base.power_w);
    // Time within 3% (paper: <1% for SPEC OMP/NPB at full scale).
    assert!(tailored.time_s < base.time_s * 1.03);
}

#[test]
fn ed_product_favours_asymmetric_pp() {
    let [base, aspp] = price(
        "SP",
        [CmpFloorplan::baseline(8), CmpFloorplan::asymmetric(1, 8)],
        Scale::Smoke,
    );
    assert!(
        aspp.ed < base.ed,
        "asym++ ED {} vs baseline {}",
        aspp.ed,
        base.ed
    );
}

#[test]
fn results_are_deterministic() {
    let [a] = price("CG", [CmpFloorplan::asymmetric(1, 7)], Scale::Smoke);
    let [b] = price("CG", [CmpFloorplan::asymmetric(1, 7)], Scale::Smoke);
    assert_eq!(a, b);
}
