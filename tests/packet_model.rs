//! The `PacketModel` contract, checked once for each of the three models:
//! the label, the roster and registry, the configuration shapes, the MMPP
//! trace entry and the server's wire check all agree with the per-model
//! functions and rules they stand for.

use smbm_core::{
    combined_policy_by_name, value_policy_by_name, work_policy_by_name, PacketModel, Policy,
    COMBINED_POLICY_NAMES, VALUE_POLICY_NAMES, WORK_POLICY_NAMES,
};
use smbm_net::wire_check;
use smbm_runtime::Model;
use smbm_switch::{
    CombinedQueue, ConfigError, PortId, Value, ValuePacket, ValueQueue, ValueSwitchConfig, Work,
    WorkPacket, WorkQueue, WorkSwitchConfig,
};
use smbm_traffic::{MmppScenario, PortMix, Trace, ValueMix};

/// Every name a registry knows or should refuse: each model's roster and
/// extensions, other casings, and strangers.
const NAMES: &[&str] = &[
    "NHST",
    "NEST",
    "NHDT",
    "LQD",
    "BPD",
    "BPD1",
    "LWD",
    "GREEDY",
    "NHDT-W",
    "LWD-MAXLEN",
    "LWD-MINWORK",
    "NEST-V",
    "NHST-V",
    "MVD",
    "MVD1",
    "MRD",
    "MRD-STRICT",
    "MVD-D",
    "WVD",
    "lwd",
    "Bpd1",
    "mrd-strict",
    "wvd",
    "",
    "OPT",
    "nope",
];

/// One model's per-model counterparts: its `Model` variant, roster, registry
/// and configuration constructor.
struct Reference<Q: PacketModel> {
    model: Model,
    roster: &'static [&'static str],
    registry: fn(&str) -> Option<Box<Q::Registered>>,
    config: fn(usize, usize) -> Result<Q::Config, ConfigError>,
}

fn check_model<Q: PacketModel>(reference: Reference<Q>)
where
    Q::Config: PartialEq,
{
    assert_eq!(Q::LABEL, reference.model.label());
    assert_eq!(Model::parse(Q::LABEL), Some(reference.model));
    assert_eq!(Q::POLICY_NAMES, reference.roster);
    for &name in NAMES {
        let canonical = |p: Box<Q::Registered>| p.name().to_owned();
        assert_eq!(
            Q::policy_by_name(name).map(canonical),
            (reference.registry)(name).map(canonical),
            "{} registry disagrees on {name:?}",
            Q::LABEL
        );
    }
    for &name in Q::POLICY_NAMES {
        let policy = Q::policy_by_name(name).expect("roster names resolve");
        assert_eq!(policy.name(), name);
    }
    for ports in [0, 1, 2, 3, 8, 64] {
        for buffer in [0, 1, 2, 3, 7, 8, 64, 256] {
            let config = Q::config(ports, buffer);
            assert_eq!(config, (reference.config)(ports, buffer));
            if let Ok(config) = config {
                assert_eq!((Q::ports(&config), Q::buffer(&config)), (ports, buffer));
            }
        }
    }
}

#[test]
fn work_model_matches_its_per_model_functions() {
    check_model::<WorkQueue>(Reference {
        model: Model::Work,
        roster: WORK_POLICY_NAMES,
        registry: work_policy_by_name,
        config: |ports, buffer| WorkSwitchConfig::contiguous(ports as u32, buffer),
    });
}

#[test]
fn value_model_matches_its_per_model_functions() {
    check_model::<ValueQueue>(Reference {
        model: Model::Value,
        roster: VALUE_POLICY_NAMES,
        registry: value_policy_by_name,
        config: |ports, buffer| ValueSwitchConfig::new(buffer, ports),
    });
}

#[test]
fn combined_model_matches_its_per_model_functions() {
    check_model::<CombinedQueue>(Reference {
        model: Model::Combined,
        roster: COMBINED_POLICY_NAMES,
        registry: combined_policy_by_name,
        config: |ports, buffer| WorkSwitchConfig::contiguous(ports as u32, buffer),
    });
}

#[test]
fn surrogates_are_the_models_yardsticks() {
    use smbm_core::DatapathSystem;
    assert_eq!(WorkQueue::opt(16, 8).label(), "OPT(pq,8cores)");
    assert_eq!(ValueQueue::opt(16, 8).label(), "OPT(pq,8cores)");
    assert_eq!(CombinedQueue::opt(16, 8).label(), "OPT(density,8cores)");
}

fn scenario(seed: u64) -> MmppScenario {
    MmppScenario {
        sources: 12,
        slots: 500,
        seed,
        ..MmppScenario::default()
    }
}

#[test]
fn the_generic_mmpp_trace_is_each_models_trace() {
    let work_cfg = WorkSwitchConfig::contiguous(5, 20).unwrap();
    let value_cfg = ValueSwitchConfig::new(20, 5).unwrap();
    let mixes = [
        ValueMix::Uniform { max: 9 },
        ValueMix::EqualsPort,
        ValueMix::ZipfHigh {
            max: 9,
            exponent: 1.3,
        },
    ];
    for seed in [1, 7] {
        for ports in [PortMix::Uniform, PortMix::Zipf(1.2)] {
            let s = scenario(seed);
            for values in &mixes {
                // The work model draws no values, whatever the mix.
                assert_eq!(
                    s.trace::<WorkQueue>(&work_cfg, &ports, values).unwrap(),
                    s.work_trace(&work_cfg, &ports).unwrap()
                );
                assert_eq!(
                    s.trace::<ValueQueue>(&value_cfg, &ports, values).unwrap(),
                    s.value_trace(5, &ports, values).unwrap()
                );
                assert_eq!(
                    s.trace::<CombinedQueue>(&work_cfg, &ports, values).unwrap(),
                    s.combined_trace(&work_cfg, &ports, values).unwrap()
                );
            }
        }
    }
    let empty = ValueMix::Uniform { max: 0 };
    assert!(scenario(1)
        .trace::<ValueQueue>(&value_cfg, &PortMix::Uniform, &empty)
        .is_err());
    let work: Trace<WorkPacket> = scenario(1)
        .trace::<WorkQueue>(&work_cfg, &PortMix::Uniform, &empty)
        .unwrap();
    assert!(work.arrivals() > 0);
}

/// The work model's wire check before it became the switch's own rule.
fn old_work_check(config: &WorkSwitchConfig) -> impl Fn(&WorkPacket) -> bool {
    let works: Vec<u32> = (0..config.ports())
        .map(|i| config.work(PortId::new(i)).cycles())
        .collect();
    move |p| works.get(p.port().index()).copied() == Some(p.work().cycles())
}

#[test]
fn the_wire_check_admits_what_the_old_checks_admitted() {
    let cfg = WorkSwitchConfig::contiguous(4, 16).unwrap();
    let (new, old) = (wire_check::<WorkQueue>(cfg.clone()), old_work_check(&cfg));
    let work = |port: usize, work: u32| WorkPacket::new(PortId::new(port), Work::new(work));
    for port in 0..7 {
        for cycles in 0..7 {
            let p = work(port, cycles);
            assert_eq!(new(&p), old(&p), "{p:?}");
        }
    }
    assert!(new(&work(3, 4)), "a valid packet");
    assert!(!new(&work(1, 1)), "a wrong work label");
    assert!(!new(&work(4, 5)), "an out-of-range port");

    let ports = 4;
    let new = wire_check::<ValueQueue>(ValueSwitchConfig::new(16, ports).unwrap());
    let old = move |p: &ValuePacket| p.port().index() < ports;
    for port in 0..7 {
        for value in [0, 1, 9, u64::MAX] {
            let p = ValuePacket::new(PortId::new(port), Value::new(value));
            assert_eq!(new(&p), old(&p), "{p:?}");
        }
    }
    assert!(new(&ValuePacket::new(PortId::new(3), Value::new(5))));
    assert!(!new(&ValuePacket::new(PortId::new(4), Value::new(5))));
}
