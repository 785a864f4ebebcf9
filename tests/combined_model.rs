//! Integration + property tests of the combined model (extension):
//! invariants under bursty traffic, degeneration to the paper's two models,
//! and OPT dominance.

use proptest::prelude::*;

use smbm_core::{
    combined_policy_by_name, CombinedPqOpt, CombinedRunner, Wvd, COMBINED_POLICY_NAMES,
};
use smbm_sim::{run, EngineConfig};
use smbm_switch::{CombinedPacket, PortId, Value, Work, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

#[test]
fn all_policies_preserve_invariants_under_bursty_traffic() {
    let cfg = WorkSwitchConfig::contiguous(6, 24).unwrap();
    let trace = MmppScenario {
        sources: 16,
        slots: 5_000,
        seed: 41,
        ..Default::default()
    }
    .combined_trace(&cfg, &PortMix::Uniform, &ValueMix::Uniform { max: 9 })
    .unwrap();
    for name in COMBINED_POLICY_NAMES {
        let policy = combined_policy_by_name(name).unwrap();
        let mut runner = CombinedRunner::new(cfg.clone(), policy, 1);
        let summary = run(&mut runner, &trace, &EngineConfig::draining()).unwrap();
        runner
            .switch()
            .check_invariants()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(summary.score > 0, "{name} transmitted no value");
        assert_eq!(runner.switch().occupancy(), 0, "{name}: drain incomplete");
    }
}

#[test]
fn density_opt_dominates_policies_on_bursty_traffic() {
    let cfg = WorkSwitchConfig::contiguous(6, 24).unwrap();
    let trace = MmppScenario {
        sources: 16,
        slots: 5_000,
        seed: 42,
        ..Default::default()
    }
    .combined_trace(&cfg, &PortMix::Uniform, &ValueMix::Uniform { max: 9 })
    .unwrap();
    let mut opt = CombinedPqOpt::new(cfg.buffer(), cfg.ports() as u32);
    let opt_score = run(&mut opt, &trace, &EngineConfig::draining())
        .unwrap()
        .score;
    opt.check_invariants().unwrap();
    for name in COMBINED_POLICY_NAMES {
        let policy = combined_policy_by_name(name).unwrap();
        let mut runner = CombinedRunner::new(cfg.clone(), policy, 1);
        let score = run(&mut runner, &trace, &EngineConfig::draining())
            .unwrap()
            .score;
        assert!(
            score <= opt_score,
            "{name} ({score}) beat the density OPT surrogate ({opt_score})"
        );
    }
}

#[test]
fn wvd_beats_value_blind_and_length_blind_under_heterogeneous_load() {
    // Heavy cheap traffic + sparse valuable traffic, heterogeneous works:
    // the regime WVD is built for. It must not lose to plain LWD or LQD.
    let cfg = WorkSwitchConfig::contiguous(8, 32).unwrap();
    let weights: Vec<f64> = (1..=8).map(|v| 1.0 / v as f64).collect();
    let trace = MmppScenario {
        sources: 24,
        slots: 30_000,
        seed: 43,
        ..Default::default()
    }
    .combined_trace(&cfg, &PortMix::Weighted(weights), &ValueMix::EqualsPort)
    .unwrap();
    let score = |name: &str| {
        let policy = combined_policy_by_name(name).unwrap();
        let mut runner = CombinedRunner::new(cfg.clone(), policy, 1);
        run(&mut runner, &trace, &EngineConfig::draining())
            .unwrap()
            .score
    };
    let wvd = score("WVD");
    let lwd = score("LWD");
    let lqd = score("LQD");
    assert!(
        wvd as f64 >= 0.99 * lwd as f64,
        "WVD {wvd} clearly lost to LWD {lwd}"
    );
    assert!(
        wvd as f64 >= 0.99 * lqd as f64,
        "WVD {wvd} clearly lost to LQD {lqd}"
    );
}

fn tiny_pattern() -> impl Strategy<Value = (usize, Vec<(usize, u64)>)> {
    (2usize..=3).prop_flat_map(|ports| {
        (
            Just(ports),
            proptest::collection::vec((0usize..ports, 1u64..=9), 1..50),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// WVD with all-equal values takes the same accept/reject trajectory as
    /// combined-LWD (its `a_j` factor cancels).
    #[test]
    fn wvd_equals_lwd_on_constant_values((ports, pattern) in tiny_pattern()) {
        let cfg = WorkSwitchConfig::contiguous(ports as u32, ports * 2).unwrap();
        let mut wvd = CombinedRunner::new(cfg.clone(), Wvd::new(), 1);
        let mut lwd = CombinedRunner::new(
            cfg.clone(),
            smbm_core::LwdCombined::new(),
            1,
        );
        for (i, &(p, _)) in pattern.iter().enumerate() {
            let port = PortId::new(p);
            let pkt = CombinedPacket::new(port, cfg.work(port), Value::new(4));
            let a = wvd.arrival(pkt).unwrap();
            let b = lwd.arrival(pkt).unwrap();
            prop_assert_eq!(a.admits(), b.admits(), "diverged at arrival {}", i);
            if i % 4 == 3 {
                wvd.transmission();
                lwd.transmission();
                wvd.end_slot();
                lwd.end_slot();
            }
        }
        for p in 0..ports {
            prop_assert_eq!(
                wvd.switch().queue(PortId::new(p)).len(),
                lwd.switch().queue(PortId::new(p)).len()
            );
        }
    }

    /// Conservation and occupancy bounds hold for every combined policy on
    /// random arrival patterns.
    #[test]
    fn combined_invariants_on_random_patterns((ports, pattern) in tiny_pattern()) {
        let cfg = WorkSwitchConfig::contiguous(ports as u32, ports + 1).unwrap();
        for name in COMBINED_POLICY_NAMES {
            let policy = combined_policy_by_name(name).unwrap();
            let mut runner = CombinedRunner::new(cfg.clone(), policy, 1);
            for (i, &(p, v)) in pattern.iter().enumerate() {
                let port = PortId::new(p);
                let pkt = CombinedPacket::new(port, cfg.work(port), Value::new(v));
                runner.arrival(pkt).unwrap();
                if i % 3 == 2 {
                    runner.transmission();
                    runner.end_slot();
                }
            }
            runner
                .switch()
                .check_invariants()
                .map_err(|e| TestCaseError::fail(format!("{name}: {e}")))?;
        }
    }

    /// The density OPT surrogate never loses value it has admitted: its
    /// transmitted + resident value equals admitted minus pushed-out value
    /// — checked via the conservation law after random offers.
    #[test]
    fn combined_opt_conserves((ports, pattern) in tiny_pattern()) {
        let cfg = WorkSwitchConfig::contiguous(ports as u32, ports + 1).unwrap();
        let mut opt = CombinedPqOpt::new(ports + 1, 2);
        for (i, &(p, v)) in pattern.iter().enumerate() {
            let port = PortId::new(p);
            opt.offer(CombinedPacket::new(port, cfg.work(port), Value::new(v)));
            if i % 3 == 2 {
                opt.transmission();
            }
        }
        opt.check_invariants()
            .map_err(TestCaseError::fail)?;
    }
}

#[test]
fn work_mismatch_is_rejected() {
    let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
    let mut runner = CombinedRunner::new(cfg, smbm_core::Greedy::new(), 1);
    let bad = CombinedPacket::new(PortId::new(0), Work::new(9), Value::new(1));
    assert!(runner.arrival(bad).is_err());
    runner.switch().check_invariants().unwrap();
}
