//! The Fig. 2 setting as an executable scenario: "maximal processing k = 3,
//! 4 output ports (there are two different ports with the same processing
//! requirement 2 ...), and a shared buffer of size B = 8" — exercising the
//! duplicated-class configurations the model explicitly allows.

use smbm_core::{work_policy_by_name, Decision, Lwd, WorkRunner};
use smbm_sim::{run, EngineConfig};
use smbm_switch::{PortId, Work, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix};

/// Fig. 2's configuration: works {1, 2, 2, 3}, B = 8.
fn fig2_config() -> WorkSwitchConfig {
    WorkSwitchConfig::new(
        8,
        vec![Work::new(1), Work::new(2), Work::new(2), Work::new(3)],
    )
    .unwrap()
}

#[test]
fn duplicated_classes_are_distinct_queues() {
    let cfg = fig2_config();
    let mut runner = WorkRunner::new(cfg, Lwd::new(), 1);
    // Fill both w=2 queues separately; they are independent FIFO queues.
    for _ in 0..3 {
        runner.arrival_to(PortId::new(1)).unwrap();
    }
    runner.arrival_to(PortId::new(2)).unwrap();
    assert_eq!(runner.switch().queue(PortId::new(1)).len(), 3);
    assert_eq!(runner.switch().queue(PortId::new(2)).len(), 1);
    // Both transmit concurrently: each port has its own core.
    runner.transmission();
    runner.end_slot();
    let r = runner.transmission();
    assert_eq!(r.transmitted, 2, "both w=2 ports complete in slot 2");
}

#[test]
fn lwd_distinguishes_duplicated_classes_by_work_not_class() {
    let cfg = fig2_config();
    let mut runner = WorkRunner::new(cfg, Lwd::new(), 1);
    // Queue 1 (w=2): 3 packets, W = 6. Queue 2 (w=2): 1 packet, W = 2.
    for _ in 0..3 {
        runner.arrival_to(PortId::new(1)).unwrap();
    }
    runner.arrival_to(PortId::new(2)).unwrap();
    // Fill the rest of the buffer with w=1 packets: occupancy 8 = B.
    for _ in 0..4 {
        runner.arrival_to(PortId::new(0)).unwrap();
    }
    assert!(runner.switch().is_full());
    // An arrival to the w=3 port evicts from queue 1 (W = 6, the largest),
    // not from its same-work sibling queue 2.
    let d = runner.arrival_to(PortId::new(3)).unwrap();
    assert_eq!(d, Decision::PushOut(PortId::new(1)));
}

#[test]
fn all_policies_run_the_fig2_configuration() {
    let cfg = fig2_config();
    let trace = MmppScenario {
        sources: 8,
        slots: 5_000,
        seed: 71,
        ..Default::default()
    }
    .work_trace(&cfg, &PortMix::Uniform)
    .unwrap();
    for name in smbm_core::WORK_POLICY_NAMES {
        let policy = work_policy_by_name(name).unwrap();
        let mut runner = WorkRunner::new(cfg.clone(), policy, 1);
        let s = run(&mut runner, &trace, &EngineConfig::draining()).unwrap();
        runner.switch().check_invariants().unwrap();
        assert!(s.score > 0, "{name}");
    }
}

#[test]
fn striped_configuration_scales() {
    // 3 classes x 2 copies at simulation scale.
    let cfg = WorkSwitchConfig::striped(3, 2, 24).unwrap();
    let trace = MmppScenario {
        sources: 8,
        slots: 5_000,
        seed: 72,
        ..Default::default()
    }
    .work_trace(&cfg, &PortMix::Uniform)
    .unwrap();
    let mut runner = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
    run(&mut runner, &trace, &EngineConfig::draining()).unwrap();
    runner.switch().check_invariants().unwrap();
    // Symmetric copies of the same class see symmetric service: per-port
    // throughputs of the two w=1 copies differ by at most a few percent.
    let per_port = runner.switch().transmitted_per_port();
    let (a, b) = (per_port[0] as f64, per_port[1] as f64);
    assert!(
        (a - b).abs() / a.max(b) < 0.1,
        "asymmetric copies: {a} vs {b}"
    );
}
