//! Trace record / replay: capture an MMPP workload to the text format, read
//! it back, and verify two replays of the same trace are bit-identical —
//! the mechanism behind reproducible experiments and CLI interop
//! (`smbm trace-gen`).
//!
//! Run with: `cargo run --release --example trace_replay`

use smbm_core::{Lwd, WorkRunner};
use smbm_sim::{run, EngineConfig};
use smbm_switch::{WorkPacket, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix, Trace};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = WorkSwitchConfig::contiguous(4, 16)?;
    let scenario = MmppScenario {
        sources: 8,
        slots: 500,
        seed: 2024,
        ..Default::default()
    };
    let trace = scenario.work_trace(&config, &PortMix::Uniform)?;
    println!(
        "generated {} arrivals over {} slots",
        trace.arrivals(),
        trace.slots()
    );

    // Record to the line-oriented text format (what `smbm trace-gen` emits).
    let text = trace.to_text();
    println!("serialized to {} bytes; first lines:", text.len());
    for line in text.lines().take(3) {
        println!("  {line}");
    }

    // Replay from text.
    let replayed: Trace<WorkPacket> = Trace::from_text(&text)?;
    assert_eq!(replayed, trace, "round-trip must be lossless");

    // Two runs over the same trace are identical, slot for slot.
    let mut a = WorkRunner::new(config.clone(), Lwd::new(), 1);
    let mut b = WorkRunner::new(config, Lwd::new(), 1);
    let sa = run(&mut a, &trace, &EngineConfig::draining())?;
    let sb = run(&mut b, &replayed, &EngineConfig::draining())?;
    assert_eq!(sa, sb);
    println!(
        "replay verified: {} packets transmitted in both runs ({} slots)",
        sa.score, sa.slots
    );
    Ok(())
}
