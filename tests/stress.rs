//! Large-configuration stress tests, `#[ignore]`d by default (run with
//! `cargo test --release -- --ignored`): exercise the structures at
//! paper-scale parameters and check the invariants still hold.

use smbm_core::{work_policy_by_name, WorkPqOpt, WorkRunner};
use smbm_sim::{run, EngineConfig, FlushPolicy};
use smbm_switch::WorkSwitchConfig;
use smbm_traffic::{MmppScenario, PortMix, Summarize};

#[test]
#[ignore = "multi-second stress run; use cargo test --release -- --ignored"]
fn large_switch_full_roster_stress() {
    let cfg = WorkSwitchConfig::contiguous(64, 4096).unwrap();
    let trace = MmppScenario {
        sources: 100,
        slots: 100_000,
        seed: 61,
        ..Default::default()
    }
    .work_trace(&cfg, &PortMix::Uniform)
    .unwrap();
    let stats = trace.stats();
    assert!(stats.arrivals > 1_000_000, "stress trace too small");
    let engine = EngineConfig {
        flush: Some(FlushPolicy::every(20_000)),
        drain_at_end: true,
    };
    let mut opt = WorkPqOpt::new(cfg.buffer(), cfg.ports() as u32);
    let opt_score = run(&mut opt, &trace, &engine).unwrap().score;
    opt.check_invariants().unwrap();
    for name in smbm_core::WORK_POLICY_NAMES {
        let policy = work_policy_by_name(name).unwrap();
        let mut runner = WorkRunner::new(cfg.clone(), policy, 1);
        let score = run(&mut runner, &trace, &engine).unwrap().score;
        runner.switch().check_invariants().unwrap();
        assert!(score > 0 && score <= opt_score + opt_score / 100, "{name}");
    }
}

#[test]
#[ignore = "multi-second stress run; use cargo test --release -- --ignored"]
fn long_horizon_conservation_stress() {
    // 1M slots at modest size: counters and occupancy must stay exact.
    let cfg = WorkSwitchConfig::contiguous(8, 64).unwrap();
    let trace = MmppScenario {
        sources: 12,
        slots: 1_000_000,
        seed: 62,
        ..Default::default()
    }
    .work_trace(&cfg, &PortMix::Uniform)
    .unwrap();
    let policy = work_policy_by_name("LWD").unwrap();
    let mut runner = WorkRunner::new(cfg, policy, 1);
    run(&mut runner, &trace, &EngineConfig::draining()).unwrap();
    runner.switch().check_invariants().unwrap();
    let c = runner.switch().counters();
    assert_eq!(c.arrived() as usize, trace.arrivals());
    assert_eq!(c.transmitted(), c.admitted() - c.pushed_out());
}
