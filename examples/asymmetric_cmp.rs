//! The paper's headline experiment: compare the four CMP designs on one
//! or all workloads (Figures 10–11).
//!
//! ```text
//! cargo run --release --example asymmetric_cmp           # CoEVP
//! cargo run --release --example asymmetric_cmp FT
//! cargo run --release --example asymmetric_cmp --suite   # per-suite avg
//! ```

use rebalance::prelude::*;

fn main() -> Result<(), String> {
    let arg = std::env::args().nth(1);
    let scale = Scale::Quick;
    let sims: Vec<CmpSim> = CmpFloorplan::figure10_set()
        .into_iter()
        .map(CmpSim::new)
        .collect();

    if arg.as_deref() == Some("--suite") {
        println!("per-suite normalized execution time (lower is better)\n");
        println!(
            "{:<14} {:>9} {:>9} {:>9} {:>9}",
            "suite", "baseline", "tailored", "asym", "asym++"
        );
        for suite in Suite::ALL {
            let workloads = rebalance::workloads::by_suite(suite);
            let mut norm = [0.0f64; 4];
            for w in &workloads {
                let results = simulate_floorplans(&sims, w, scale, FetchModelKind::Penalty)?;
                for (i, r) in results.iter().enumerate() {
                    norm[i] += r.time_s / results[0].time_s / workloads.len() as f64;
                }
            }
            println!(
                "{:<14} {:>9.3} {:>9.3} {:>9.3} {:>9.3}",
                suite.label(),
                norm[0],
                norm[1],
                norm[2],
                norm[3]
            );
        }
        return Ok(());
    }

    let name = arg.unwrap_or_else(|| "CoEVP".to_owned());
    let workload =
        rebalance::workloads::find(&name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    println!(
        "== {workload} (serial fraction {:.0}%) ==\n",
        workload.profile().serial_fraction * 100.0
    );
    println!(
        "{:<28} {:>9} {:>8} {:>8} {:>9} {:>8}",
        "CMP", "time", "serial", "parallel", "power W", "ED"
    );
    let results = simulate_floorplans(&sims, &workload, scale, FetchModelKind::Penalty)?;
    let base = results[0].time_s;
    for r in &results {
        println!(
            "{:<28} {:>8.3}x {:>7.1}% {:>7.1}% {:>9.2} {:>8.3}x",
            r.floorplan,
            r.time_s / base,
            100.0 * r.serial_time_s / r.time_s,
            100.0 * r.parallel_time_s / r.time_s,
            r.power_w,
            r.ed / (base * base) // rough normalization for display
        );
    }
    println!(
        "\nthe asymmetric CMP pins serial sections to the baseline core; \
         Asymmetric++ spends the saved area on a ninth core"
    );
    Ok(())
}
