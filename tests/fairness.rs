//! Fairness regression: the paper's motivating claim — complete sharing
//! lets one port monopolize the buffer while push-out policies get fairness
//! *and* utilization — must hold measurably.

use smbm_core::{work_policy_by_name, WorkRunner};
use smbm_sim::{jain_index, max_port_share, run, EngineConfig};
use smbm_switch::WorkSwitchConfig;
use smbm_traffic::{MmppScenario, PortMix};

fn hot_port_run(name: &str) -> (u64, f64, f64) {
    let ports = 8usize;
    let cfg = WorkSwitchConfig::homogeneous(ports, 64).unwrap();
    let mut weights = vec![1.0; ports];
    weights[0] = 8.0;
    let trace = MmppScenario {
        sources: 24,
        slots: 15_000,
        seed: 51,
        ..Default::default()
    }
    .work_trace(&cfg, &PortMix::Weighted(weights))
    .unwrap();
    let policy = work_policy_by_name(name).unwrap();
    let mut runner = WorkRunner::new(cfg, policy, 1);
    run(&mut runner, &trace, &EngineConfig::draining()).unwrap();
    let per_port = runner.switch().transmitted_per_port();
    (
        runner.switch().counters().transmitted(),
        jain_index(per_port),
        max_port_share(per_port),
    )
}

#[test]
fn greedy_sharing_lets_the_hot_port_monopolize() {
    let (_, jain, max_share) = hot_port_run("GREEDY");
    assert!(jain < 0.6, "greedy unexpectedly fair: jain {jain}");
    assert!(max_share > 0.4, "hot port share only {max_share}");
}

#[test]
fn push_out_policies_are_fair_and_fast() {
    let (greedy_score, _, _) = hot_port_run("GREEDY");
    for name in ["LQD", "LWD"] {
        let (score, jain, max_share) = hot_port_run(name);
        assert!(jain > 0.9, "{name} unfair: jain {jain}");
        assert!(max_share < 0.25, "{name} hot share {max_share}");
        assert!(
            score > greedy_score,
            "{name} ({score}) did not beat greedy ({greedy_score})"
        );
    }
}

#[test]
fn static_partition_is_fair() {
    let (_, jain, _) = hot_port_run("NEST");
    assert!(jain > 0.9, "NEST unfair: jain {jain}");
}

#[test]
fn per_port_counts_sum_to_total() {
    let ports = 4usize;
    let cfg = WorkSwitchConfig::contiguous(ports as u32, 16).unwrap();
    let trace = MmppScenario {
        sources: 8,
        slots: 3_000,
        seed: 52,
        ..Default::default()
    }
    .work_trace(&cfg, &PortMix::Uniform)
    .unwrap();
    let policy = work_policy_by_name("LWD").unwrap();
    let mut runner = WorkRunner::new(cfg, policy, 1);
    run(&mut runner, &trace, &EngineConfig::draining()).unwrap();
    let sum: u64 = runner.switch().transmitted_per_port().iter().sum();
    assert_eq!(sum, runner.switch().counters().transmitted());
}
