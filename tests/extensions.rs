//! Integration tests of the extension policies built beyond the paper's
//! roster: NHDT-W (the executed open problem), AWD(α), and MRD-strict.

use smbm_core::{
    value_policy_by_name, work_policy_by_name, AlphaWd, Capped, Lqd, LqdValue, Lwd, Mrd, MrdStrict,
    NhdtW, ValueRunner, WorkRunner,
};
use smbm_sim::{run, EngineConfig};
use smbm_switch::{PortId, ValueSwitchConfig, WorkSwitchConfig};
use smbm_traffic::{adversarial, MmppScenario, PortMix, ValueMix};

#[test]
fn nhdt_w_repairs_theorem3_attack() {
    let c = adversarial::nhdt_lower_bound(64, 512, 4);
    let engine = EngineConfig::horizon_only();
    let mut opt = WorkRunner::new(c.config.clone(), Capped::new(c.opt_caps.clone()), 1);
    let opt_score = run(&mut opt, &c.trace, &engine).unwrap().score;

    let mut nhdt = WorkRunner::new(c.config.clone(), work_policy_by_name("NHDT").unwrap(), 1);
    let nhdt_score = run(&mut nhdt, &c.trace, &engine).unwrap().score;

    let mut nhdt_w = WorkRunner::new(c.config.clone(), NhdtW::new(), 1);
    let nhdt_w_score = run(&mut nhdt_w, &c.trace, &engine).unwrap().score;

    let plain_ratio = opt_score as f64 / nhdt_score as f64;
    let work_ratio = opt_score as f64 / nhdt_w_score as f64;
    assert!(plain_ratio > 5.0, "attack too weak: {plain_ratio}");
    assert!(
        work_ratio < plain_ratio / 3.0,
        "NHDT-W ratio {work_ratio} vs NHDT {plain_ratio}"
    );
}

#[test]
fn nhdt_w_holds_up_on_statistical_traffic() {
    let cfg = WorkSwitchConfig::contiguous(8, 64).unwrap();
    let trace = MmppScenario {
        sources: 12,
        slots: 20_000,
        seed: 31,
        ..Default::default()
    }
    .work_trace(&cfg, &PortMix::Uniform)
    .unwrap();
    let mut plain = WorkRunner::new(cfg.clone(), work_policy_by_name("NHDT").unwrap(), 1);
    let plain_score = run(&mut plain, &trace, &EngineConfig::draining())
        .unwrap()
        .score;
    let mut work_aware = WorkRunner::new(cfg, NhdtW::new(), 1);
    let aware_score = run(&mut work_aware, &trace, &EngineConfig::draining())
        .unwrap()
        .score;
    assert!(
        aware_score * 100 >= plain_score * 95,
        "NHDT-W regressed: {aware_score} vs {plain_score}"
    );
}

#[test]
fn awd_endpoints_bracket_lqd_and_lwd_scores() {
    let cfg = WorkSwitchConfig::contiguous(8, 64).unwrap();
    let trace = MmppScenario {
        sources: 12,
        slots: 20_000,
        seed: 32,
        ..Default::default()
    }
    .work_trace(&cfg, &PortMix::Uniform)
    .unwrap();
    let score = |policy: Box<dyn smbm_core::WorkPolicy>| {
        let mut r = WorkRunner::new(cfg.clone(), policy, 1);
        run(&mut r, &trace, &EngineConfig::draining())
            .unwrap()
            .score
    };
    let lqd = score(Box::new(Lqd::new()));
    let lwd = score(Box::new(Lwd::new()));
    let awd0 = score(Box::new(AlphaWd::new(0.0)));
    let awd1 = score(Box::new(AlphaWd::new(1.0)));
    assert_eq!(awd0, lqd, "AWD(0) must equal LQD end-to-end");
    assert_eq!(awd1, lwd, "AWD(1) must equal LWD end-to-end");
    assert!(
        lwd >= lqd,
        "LWD should beat LQD under heterogeneous congestion"
    );
}

#[test]
fn mrd_strict_collapses_on_unit_values() {
    let cfg = ValueSwitchConfig::new(16, 4).unwrap();
    let trace = MmppScenario {
        sources: 16,
        slots: 10_000,
        seed: 33,
        ..Default::default()
    }
    .value_trace(4, &PortMix::Uniform, &ValueMix::Uniform { max: 1 })
    .unwrap();
    let mut mrd = ValueRunner::new(cfg, Mrd::new(), 1);
    let mrd_score = run(&mut mrd, &trace, &EngineConfig::draining())
        .unwrap()
        .score;
    let mut strict = ValueRunner::new(cfg, MrdStrict::new(), 1);
    let strict_score = run(&mut strict, &trace, &EngineConfig::draining())
        .unwrap()
        .score;
    // The strict rule can never push out (all values equal), so it behaves
    // like a greedy policy and loses the balancing advantage. It must not
    // beat the virtual-add MRD.
    assert!(strict_score <= mrd_score);

    // And where it really shows: strict freezes the port mix after the
    // buffer first fills, so a starved port stays starved.
    let mut strict = ValueRunner::new(cfg, MrdStrict::new(), 1);
    for _ in 0..16 {
        strict
            .arrival(smbm_switch::ValuePacket::new(
                PortId::new(0),
                smbm_switch::Value::ONE,
            ))
            .unwrap();
    }
    let d = strict
        .arrival(smbm_switch::ValuePacket::new(
            PortId::new(1),
            smbm_switch::Value::ONE,
        ))
        .unwrap();
    assert_eq!(d, smbm_core::Decision::Drop);
}

#[test]
fn mrd_beats_lqd_on_cheap_heavy_skew() {
    // The regime the paper highlights: cheap classes flood the switch while
    // valuable traffic is sparse; MRD's value-aware shedding protects the
    // valuable queues where LQD's balance does not.
    let ports = 8;
    let cfg = ValueSwitchConfig::new(16, ports).unwrap();
    let weights: Vec<f64> = (1..=ports).map(|v| 1.0 / v as f64).collect();
    let trace = MmppScenario {
        sources: 32,
        slots: 60_000,
        seed: 3,
        ..Default::default()
    }
    .value_trace(ports, &PortMix::Weighted(weights), &ValueMix::EqualsPort)
    .unwrap();
    let mut mrd = ValueRunner::new(cfg, Mrd::new(), 1);
    let mrd_score = run(&mut mrd, &trace, &EngineConfig::draining())
        .unwrap()
        .score;
    let mut lqd = ValueRunner::new(cfg, LqdValue::new(), 1);
    let lqd_score = run(&mut lqd, &trace, &EngineConfig::draining())
        .unwrap()
        .score;
    assert!(
        mrd_score > lqd_score,
        "MRD {mrd_score} should beat LQD {lqd_score} under cheap-heavy skew"
    );
}

#[test]
fn extension_registry_entries_resolve() {
    for name in ["GREEDY", "NHDT-W", "LWD-MAXLEN", "LWD-MINWORK"] {
        assert!(work_policy_by_name(name).is_some(), "{name}");
    }
    assert!(value_policy_by_name("MRD-STRICT").is_some());
}
