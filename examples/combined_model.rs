//! The combined model end-to-end (extension): services with heterogeneous
//! processing costs *and* per-packet revenue, sharing one buffer — the
//! setting the paper's conclusion names as the next step. Shows the WVD
//! hybrid inheriting LWD's work-awareness and MRD's value-awareness.
//!
//! Run with: `cargo run --release --example combined_model`

use smbm_core::{combined_policy_by_name, CombinedPqOpt, CombinedRunner, COMBINED_POLICY_NAMES};
use smbm_sim::{run, EngineConfig};
use smbm_switch::WorkSwitchConfig;
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 8 service classes with costs 1..8 cycles/packet, 64 buffer slots;
    // every packet carries its own revenue (uniform 1..16), so admission
    // must weigh processing cost against value — the regime where the
    // policies separate.
    let config = WorkSwitchConfig::contiguous(8, 64)?;
    let port_mix = PortMix::Uniform;
    let value_mix = ValueMix::Uniform { max: 16 };

    let scenario = MmppScenario {
        sources: 12,
        slots: 30_000,
        seed: 77,
        ..Default::default()
    };
    let trace = scenario.combined_trace(&config, &port_mix, &value_mix)?;
    println!(
        "combined model: {} arrivals, 8 classes (cost = class, revenue uniform 1..16)",
        trace.arrivals()
    );

    let engine = EngineConfig::draining();
    let mut opt = CombinedPqOpt::new(config.buffer(), config.ports() as u32);
    let opt_score = run(&mut opt, &trace, &engine)?.score;

    println!("{:<8} {:>14} {:>8}", "policy", "revenue", "ratio");
    println!("{:<8} {:>14} {:>8}", "OPT(den)", opt_score, 1.0);
    let mut best: Option<(String, u64)> = None;
    for name in COMBINED_POLICY_NAMES {
        let policy = combined_policy_by_name(name).expect("registry name");
        let mut runner = CombinedRunner::new(config.clone(), policy, 1);
        let score = run(&mut runner, &trace, &engine)?.score;
        runner.switch().check_invariants().expect("invariants hold");
        println!(
            "{:<8} {:>14} {:>8.4}",
            name,
            score,
            opt_score as f64 / score as f64
        );
        if best.as_ref().is_none_or(|&(_, b)| score > b) {
            best = Some((name.to_string(), score));
        }
    }
    let (winner, _) = best.expect("roster non-empty");
    println!(
        "\nbest policy on this mix: {winner} — WVD is built to track the\n\
         better of LWD (work-aware) and MRD (value-aware) across mixes."
    );
    Ok(())
}
