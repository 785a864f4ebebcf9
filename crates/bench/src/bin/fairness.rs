//! Fairness experiment: the paper motivates shared memory with the tension
//! between complete sharing (utilization) and complete partitioning
//! (fairness). One port is flooded 8x harder than the rest; this binary
//! reports throughput *and* Jain fairness per policy.
//!
//! ```text
//! fairness [--slots N] [--seed S]
//! ```

use std::process::ExitCode;

use smbm_core::{work_policy_by_name, WorkRunner};
use smbm_sim::{jain_index, max_port_share, run, EngineConfig};
use smbm_switch::WorkSwitchConfig;
use smbm_traffic::{MmppScenario, PortMix};

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
                println!("usage: fairness [--slots N] [--seed S]");
                return ExitCode::SUCCESS;
            }
            _ => return usage(),
        }
    }
    // Homogeneous works isolate the fairness question from work effects;
    // port 1 receives 8x the traffic of each other port.
    let ports = 8usize;
    let cfg = WorkSwitchConfig::homogeneous(ports, 64).expect("valid");
    let mut weights = vec![1.0; ports];
    weights[0] = 8.0;
    let trace = MmppScenario {
        sources: 24,
        slots,
        seed,
        ..Default::default()
    }
    .work_trace(&cfg, &PortMix::Weighted(weights))
    .expect("valid scenario");

    println!(
        "# fairness under an 8x hot port: n={ports} B=64 homogeneous work, {} arrivals",
        trace.arrivals()
    );
    println!(
        "{:<8} {:>12} {:>8} {:>10} {:>16}",
        "policy", "packets", "jain", "max-share", "cold-port min"
    );
    let mut roster: Vec<&str> = vec!["GREEDY"];
    roster.extend(smbm_core::WORK_POLICY_NAMES);
    for name in roster {
        let policy = work_policy_by_name(name).expect("registry name");
        let mut runner = WorkRunner::new(cfg.clone(), policy, 1);
        if let Err(e) = run(&mut runner, &trace, &EngineConfig::draining()) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
        let per_port = runner.switch().transmitted_per_port();
        let cold_min = per_port[1..].iter().min().copied().unwrap_or(0);
        println!(
            "{:<8} {:>12} {:>8.4} {:>10.4} {:>16}",
            name,
            runner.switch().counters().transmitted(),
            jain_index(per_port),
            max_port_share(per_port),
            cold_min
        );
    }
    println!(
        "\nreading: GREEDY (complete sharing) lets the hot port crowd the\n\
         buffer; the static thresholds partition it (fair); LQD/LWD recover\n\
         fairness without giving up utilization — the paper's best-of-both-\n\
         worlds motivation. BPD's collapse is its index tie-break starving\n\
         high ports once works are homogeneous."
    );
    ExitCode::SUCCESS
}

fn usage() -> ExitCode {
    eprintln!("usage: fairness [--slots N] [--seed S]");
    ExitCode::FAILURE
}
