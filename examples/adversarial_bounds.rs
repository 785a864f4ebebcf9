//! Replay the paper's lower-bound proofs as executable traces: each
//! theorem's adversarial arrival sequence is run against the policy it
//! targets *and* against the scripted OPT the proof describes, and the
//! measured ratio is compared to the theorem's formula.
//!
//! Run with: `cargo run --release --example adversarial_bounds`

use smbm_sim::{measure_construction, ConstructionReport};
use smbm_traffic::adversarial;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("replaying the Section III/IV lower-bound constructions...\n");
    let reports: Vec<ConstructionReport> = vec![
        measure_construction(&adversarial::nhst_lower_bound(8, 192, 5))?,
        measure_construction(&adversarial::nest_lower_bound(8, 48, 5))?,
        measure_construction(&adversarial::nhdt_lower_bound(64, 512, 3))?,
        measure_construction(&adversarial::lqd_work_lower_bound(64, 256, 3))?,
        measure_construction(&adversarial::bpd_lower_bound(16, 64, 5_000))?,
        measure_construction(&adversarial::lwd_lower_bound(120, 10))?,
        measure_construction(&adversarial::lqd_value_lower_bound(64, 128, 5))?,
        measure_construction(&adversarial::mvd_lower_bound(16, 64, 5_000))?,
        measure_construction(&adversarial::mrd_lower_bound(120, 10))?,
    ];

    println!(
        "{:<30} {:>8} {:>10} {:>10}",
        "construction", "policy", "measured", "predicted"
    );
    for r in &reports {
        println!(
            "{:<30} {:>8} {:>10.3} {:>10.3}",
            r.name,
            r.policy,
            r.ratio(),
            r.predicted
        );
    }

    // LWD is the punchline: even its own worst-case trace cannot push it
    // past 2 (Theorem 7), while every other policy's construction grows.
    let lwd = reports
        .iter()
        .find(|r| r.name.contains("LWD"))
        .expect("present");
    assert!(
        lwd.ratio() < 2.0,
        "Theorem 7 violated: LWD measured {}",
        lwd.ratio()
    );
    println!("\nTheorem 7 check passed: LWD stayed below 2 on its adversarial trace.");
    Ok(())
}
