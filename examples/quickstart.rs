//! Quickstart: build a shared-memory switch, drive it with a few packets by
//! hand, then let the simulator race LWD against the OPT surrogate on bursty
//! traffic.
//!
//! Run with: `cargo run --release --example quickstart`

use smbm_core::{Decision, Lwd, WorkRunner};
use smbm_sim::{run, EngineConfig};
use smbm_switch::{PortId, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A switch with 4 output ports requiring 1..=4 cycles per packet and a
    // shared buffer of 8 slots — the paper's "contiguous" configuration.
    let config = WorkSwitchConfig::contiguous(4, 8)?;
    let mut runner = WorkRunner::new(config.clone(), Lwd::new(), 1);

    // Arrival phase: flood the heaviest port, then offer a cheap packet.
    for _ in 0..8 {
        runner.arrival_to(PortId::new(3))?;
    }
    let decision = runner.arrival_to(PortId::new(0))?;
    // The buffer is full of 4-cycle packets; LWD pushes one out to admit the
    // 1-cycle arrival, because queue 3 holds the most outstanding work.
    assert_eq!(decision, Decision::PushOut(PortId::new(3)));
    println!("congested arrival handled by LWD: {decision}");

    // Transmission phase: the cheap packet leaves after one cycle.
    let report = runner.transmission();
    println!(
        "slot complete: {} packet(s) out, {} cycles consumed",
        report.transmitted, report.cycles_used
    );
    runner
        .switch()
        .check_invariants()
        .expect("conservation holds");

    // Now at simulation scale: bursty MMPP traffic, LWD vs the OPT yardstick.
    let scenario = MmppScenario {
        sources: 12,
        slots: 20_000,
        seed: 7,
        ..Default::default()
    };
    let trace = scenario.work_trace(&config, &PortMix::Uniform)?;

    let mut lwd = WorkRunner::new(config.clone(), Lwd::new(), 1);
    let lwd_score = run(&mut lwd, &trace, &EngineConfig::draining())?.score;

    let cores = config.ports() as u32; // n * C with C = 1
    let mut opt = smbm_core::WorkPqOpt::new(config.buffer(), cores);
    let opt_score = run(&mut opt, &trace, &EngineConfig::draining())?.score;

    let ratio = smbm_core::CompetitiveRatio::new(opt_score, lwd_score);
    println!("LWD on {} bursty arrivals: {ratio}", trace.arrivals());
    assert!(ratio.ratio() < 2.0, "LWD is 2-competitive (Theorem 7)");
    Ok(())
}
