//! The combined-model experiment (extension): per-port works and per-packet
//! values together — the direction the paper's conclusion points at.
//! Compares GREEDY, LQD, LWD, MVD-D, and the hybrid WVD against the
//! density-greedy OPT surrogate under three value mixes.
//!
//! ```text
//! combined [--slots N] [--seed S]
//! ```

use std::process::ExitCode;

use smbm_sim::CombinedExperiment;
use smbm_switch::WorkSwitchConfig;
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

fn main() -> ExitCode {
    let mut slots = 50_000usize;
    let mut seed = 0xB0FFE2u64;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--slots" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => slots = v,
                None => return usage(),
            },
            "--seed" => match args.next().and_then(|v| v.parse().ok()) {
                Some(v) => seed = v,
                None => return usage(),
            },
            "--help" | "-h" => {
                println!("usage: combined [--slots N] [--seed S]");
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    let cfg = WorkSwitchConfig::contiguous(8, 64).expect("valid");
    let mixes: [(&str, ValueMix); 3] = [
        ("uniform-values", ValueMix::Uniform { max: 16 }),
        ("value==port", ValueMix::EqualsPort),
        (
            "zipf-high",
            ValueMix::ZipfHigh {
                max: 16,
                exponent: 1.2,
            },
        ),
    ];
    for (label, mix) in mixes {
        let trace = MmppScenario {
            sources: 12,
            slots,
            seed,
            ..Default::default()
        }
        .combined_trace(&cfg, &PortMix::Uniform, &mix)
        .expect("valid scenario");
        let report = match CombinedExperiment::full_roster(cfg.clone(), 1).run(&trace) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        println!("== {label}: {} arrivals ==", trace.arrivals());
        println!("{:<8} {:>14} {:>8}", "policy", "value out", "ratio");
        println!("{:<8} {:>14} {:>8}", "OPT(den)", report.opt_score, 1.0);
        for row in &report.rows {
            println!("{:<8} {:>14} {:>8.4}", row.policy, row.score, row.ratio);
        }
        println!();
    }
    println!(
        "WVD (max outstanding-work per unit average value) is this repo's\n\
         candidate policy for the combined model: it reduces to LWD on equal\n\
         values and to MRD on unit works. No competitive bound is claimed."
    );
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!("usage: combined [--slots N] [--seed S]");
    ExitCode::FAILURE
}
