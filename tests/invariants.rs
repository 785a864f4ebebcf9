//! Cross-crate invariant tests: every policy, both models, driven by the
//! full simulator over bursty traffic, must preserve the switch's structural
//! and conservation invariants.

use smbm_core::{value_policy_by_name, work_policy_by_name, ValueRunner, WorkRunner};
use smbm_sim::{run, EngineConfig, FlushMode, FlushPolicy};
use smbm_switch::{ValueSwitchConfig, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

fn scenario(seed: u64) -> MmppScenario {
    MmppScenario {
        sources: 16,
        slots: 5_000,
        seed,
        ..Default::default()
    }
}

#[test]
fn work_policies_preserve_invariants_under_bursty_traffic() {
    let cfg = WorkSwitchConfig::contiguous(6, 24).unwrap();
    let trace = scenario(11).work_trace(&cfg, &PortMix::Uniform).unwrap();
    for name in smbm_core::WORK_POLICY_NAMES {
        let policy = work_policy_by_name(name).unwrap();
        let mut runner = WorkRunner::new(cfg.clone(), policy, 1);
        let summary = run(&mut runner, &trace, &EngineConfig::draining()).unwrap();
        runner.switch().check_invariants().unwrap_or_else(|e| {
            panic!("{name}: {e}");
        });
        assert!(summary.score > 0, "{name} transmitted nothing");
        assert_eq!(
            runner.switch().occupancy(),
            0,
            "{name}: drain left residents"
        );
        // With a final drain, score equals admitted minus pushed out.
        let c = runner.switch().counters();
        assert_eq!(c.transmitted(), c.admitted() - c.pushed_out(), "{name}");
    }
}

#[test]
fn value_policies_preserve_invariants_under_bursty_traffic() {
    let cfg = ValueSwitchConfig::new(24, 6).unwrap();
    let trace = scenario(12)
        .value_trace(6, &PortMix::Uniform, &ValueMix::Uniform { max: 9 })
        .unwrap();
    for name in smbm_core::VALUE_POLICY_NAMES {
        let policy = value_policy_by_name(name).unwrap();
        let mut runner = ValueRunner::new(cfg, policy, 1);
        let summary = run(&mut runner, &trace, &EngineConfig::draining()).unwrap();
        runner.switch().check_invariants().unwrap_or_else(|e| {
            panic!("{name}: {e}");
        });
        assert!(summary.score > 0, "{name} transmitted no value");
        assert_eq!(runner.switch().occupancy(), 0, "{name}");
    }
}

#[test]
fn non_push_out_policies_never_push_out() {
    let cfg = WorkSwitchConfig::contiguous(6, 24).unwrap();
    let trace = scenario(13).work_trace(&cfg, &PortMix::Uniform).unwrap();
    for name in ["NHST", "NEST", "NHDT"] {
        let policy = work_policy_by_name(name).unwrap();
        let mut runner = WorkRunner::new(cfg.clone(), policy, 1);
        run(&mut runner, &trace, &EngineConfig::draining()).unwrap();
        assert_eq!(
            runner.switch().counters().pushed_out(),
            0,
            "{name} pushed out"
        );
    }
    let vcfg = ValueSwitchConfig::new(24, 6).unwrap();
    let vtrace = scenario(13)
        .value_trace(6, &PortMix::Uniform, &ValueMix::Uniform { max: 9 })
        .unwrap();
    for name in ["GREEDY", "NEST-V", "NHST-V"] {
        let policy = value_policy_by_name(name).unwrap();
        let mut runner = ValueRunner::new(vcfg, policy, 1);
        run(&mut runner, &vtrace, &EngineConfig::draining()).unwrap();
        assert_eq!(
            runner.switch().counters().pushed_out(),
            0,
            "{name} pushed out"
        );
    }
}

#[test]
fn push_out_policies_are_greedy_with_free_space() {
    // Whenever the buffer has free space, a push-out policy must accept —
    // verified by dropping counters being zero on an uncongested trace.
    let cfg = WorkSwitchConfig::contiguous(6, 512).unwrap();
    let light = MmppScenario {
        sources: 2,
        slots: 3_000,
        seed: 14,
        ..Default::default()
    };
    let trace = light.work_trace(&cfg, &PortMix::Uniform).unwrap();
    for name in ["LQD", "BPD", "BPD1", "LWD"] {
        let policy = work_policy_by_name(name).unwrap();
        let mut runner = WorkRunner::new(cfg.clone(), policy, 1);
        run(&mut runner, &trace, &EngineConfig::draining()).unwrap();
        let c = runner.switch().counters();
        assert_eq!(c.dropped(), 0, "{name} dropped with an uncongested buffer");
        assert_eq!(c.pushed_out(), 0, "{name} pushed out needlessly");
    }
}

#[test]
fn flushouts_preserve_conservation_in_both_modes() {
    let cfg = WorkSwitchConfig::contiguous(4, 16).unwrap();
    let trace = scenario(15).work_trace(&cfg, &PortMix::Uniform).unwrap();
    for mode in [FlushMode::Drain, FlushMode::Drop] {
        let mut runner = WorkRunner::new(cfg.clone(), smbm_core::Lwd::new(), 1);
        let engine = EngineConfig {
            flush: Some(FlushPolicy { period: 500, mode }),
            drain_at_end: true,
        };
        run(&mut runner, &trace, &engine).unwrap();
        runner.switch().check_invariants().unwrap();
    }
}

#[test]
fn speedup_never_hurts_throughput() {
    let cfg = WorkSwitchConfig::contiguous(6, 24).unwrap();
    let trace = scenario(16).work_trace(&cfg, &PortMix::Uniform).unwrap();
    let mut last = 0;
    for speedup in [1u32, 2, 4] {
        let mut runner = WorkRunner::new(cfg.clone(), smbm_core::Lwd::new(), speedup);
        let score = run(&mut runner, &trace, &EngineConfig::draining())
            .unwrap()
            .score;
        assert!(
            score >= last,
            "speedup {speedup} lowered throughput: {score} < {last}"
        );
        last = score;
    }
}

#[test]
fn cycles_respect_capacity() {
    // Total consumed cycles can never exceed slots * ports * speedup.
    let cfg = WorkSwitchConfig::contiguous(4, 16).unwrap();
    let trace = scenario(17).work_trace(&cfg, &PortMix::Uniform).unwrap();
    let speedup = 2;
    let mut runner = WorkRunner::new(cfg.clone(), smbm_core::Lqd::new(), speedup);
    let summary = run(&mut runner, &trace, &EngineConfig::draining()).unwrap();
    let cap = summary.slots * cfg.ports() as u64 * u64::from(speedup);
    assert!(runner.switch().counters().cycles_consumed() <= cap);
}
