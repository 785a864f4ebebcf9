//! Robustness tests: a hostile "chaos" policy returning malformed decisions
//! must be rejected loudly by the validated switch layer, never silently
//! corrupting an experiment; plus analytic capacity bounds no run may
//! exceed.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use smbm_core::{
    combined_policy_by_name, value_policy_by_name, work_policy_by_name, CombinedRunner, Decision,
    Policy, Runner, ValueRunner, WorkRunner, COMBINED_POLICY_NAMES, VALUE_POLICY_NAMES,
    WORK_POLICY_NAMES,
};
use smbm_switch::{
    AdmitError, CombinedPacket, PortId, QueueDiscipline, Switch, Value, ValuePacket,
    ValueSwitchConfig, Work, WorkPacket, WorkSwitchConfig,
};

/// A policy that answers with arbitrary (frequently invalid) decisions, in
/// every packet model.
#[derive(Debug)]
struct Chaos {
    rng: StdRng,
}

impl Chaos {
    fn new(seed: u64) -> Self {
        Chaos {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl<Q: QueueDiscipline> Policy<Q> for Chaos {
    fn name(&self) -> &str {
        "CHAOS"
    }

    fn decide(&mut self, switch: &Switch<Q>, _pkt: Q::Packet) -> Decision {
        match self.rng.random_range(0..4u8) {
            0 => Decision::Accept, // invalid when full
            1 => Decision::Drop,
            2 => Decision::PushOut(PortId::new(self.rng.random_range(0..switch.ports()))),
            _ => Decision::PushOut(PortId::new(switch.ports() + 7)), // bogus port
        }
    }
}

/// Offers 500 valid arrivals (`pkt(i)`) to a chaos-driven runner: every
/// invalid decision must come back as a clean [`AdmitError`], and the switch
/// must stay internally consistent no matter what the policy attempted. (A
/// failed arrival is not recorded at all.)
fn assert_chaos_is_contained<Q: QueueDiscipline>(
    mut runner: Runner<Q, Chaos>,
    pkt: impl Fn(u64) -> Q::Packet,
) {
    let mut errors = 0;
    let mut applied = 0;
    for i in 0..500u64 {
        match runner.arrival(pkt(i)) {
            Ok(_) => applied += 1,
            Err(
                AdmitError::BufferFull
                | AdmitError::UnknownPort { .. }
                | AdmitError::EmptyQueue { .. },
            ) => errors += 1,
            Err(other) => panic!("unexpected error class: {other}"),
        }
        runner.switch().check_invariants().unwrap();
        if i % 5 == 4 {
            runner.transmission();
            runner.end_slot();
        }
    }
    assert!(errors > 0, "chaos never produced an invalid decision");
    assert!(applied > 0, "chaos never produced a valid decision");
}

#[test]
fn chaos_work_policy_errors_cleanly_and_preserves_invariants() {
    let cfg = WorkSwitchConfig::contiguous(3, 6).unwrap();
    let runner = WorkRunner::new(cfg.clone(), Chaos::new(1), 1);
    assert_chaos_is_contained(runner, |i| {
        let port = PortId::new((i % 3) as usize);
        WorkPacket::new(port, cfg.work(port))
    });
}

#[test]
fn chaos_value_policy_errors_cleanly_and_preserves_invariants() {
    let cfg = ValueSwitchConfig::new(6, 3).unwrap();
    let runner = ValueRunner::new(cfg, Chaos::new(2), 1);
    assert_chaos_is_contained(runner, |i| {
        ValuePacket::new(PortId::new((i % 3) as usize), Value::new(1 + i % 9))
    });
}

#[test]
fn chaos_combined_policy_errors_cleanly_and_preserves_invariants() {
    let cfg = WorkSwitchConfig::contiguous(3, 6).unwrap();
    let runner = CombinedRunner::new(cfg.clone(), Chaos::new(3), 1);
    assert_chaos_is_contained(runner, |i| {
        let port = PortId::new((i % 3) as usize);
        CombinedPacket::new(port, cfg.work(port), Value::new(1 + i % 9))
    });
}

#[test]
fn engine_propagates_policy_errors() {
    use smbm_sim::{run, EngineConfig};
    use smbm_traffic::Trace;
    let cfg = WorkSwitchConfig::contiguous(2, 2).unwrap();
    let mut runner = WorkRunner::new(cfg.clone(), Chaos::new(9), 1);
    let mut trace = Trace::new();
    // Enough arrivals that chaos is guaranteed to emit an invalid decision.
    trace.push_slot(vec![
        smbm_switch::WorkPacket::new(
            PortId::new(0),
            Work::new(1)
        );
        64
    ]);
    let result = run(&mut runner, &trace, &EngineConfig::draining());
    assert!(result.is_err(), "chaos run unexpectedly succeeded");
    runner.switch().check_invariants().unwrap();
}

#[test]
fn throughput_never_exceeds_analytic_capacity() {
    // Per-port capacity over T slots at speedup C: at most
    // ceil(T*C / w_i) completions, plus nothing — check the aggregate bound
    // for every policy on a hot trace.
    use smbm_core::work_policy_by_name;
    use smbm_sim::{run, EngineConfig};
    use smbm_traffic::{MmppScenario, PortMix};

    let cfg = WorkSwitchConfig::contiguous(5, 20).unwrap();
    let speedup = 2u32;
    let trace = MmppScenario {
        sources: 24,
        slots: 2_000,
        seed: 3,
        ..Default::default()
    }
    .work_trace(&cfg, &PortMix::Uniform)
    .unwrap();
    for name in smbm_core::WORK_POLICY_NAMES {
        let policy = work_policy_by_name(name).unwrap();
        let mut runner = WorkRunner::new(cfg.clone(), policy, speedup);
        let summary = run(&mut runner, &trace, &EngineConfig::draining()).unwrap();
        let cap: u64 = cfg
            .works()
            .iter()
            .map(|w| (summary.slots * u64::from(speedup)).div_ceil(w.as_u64()))
            .sum();
        assert!(
            summary.score <= cap,
            "{name}: {} transmitted exceeds capacity {cap}",
            summary.score
        );
        // And it can never exceed what was offered.
        assert!(summary.score <= trace.arrivals() as u64);
    }
}

#[test]
fn value_throughput_never_exceeds_offered_value() {
    use smbm_core::value_policy_by_name;
    use smbm_sim::{run, EngineConfig};
    use smbm_traffic::{MmppScenario, PortMix, Summarize, ValueMix};

    let cfg = ValueSwitchConfig::new(20, 5).unwrap();
    let trace = MmppScenario {
        sources: 24,
        slots: 2_000,
        seed: 4,
        ..Default::default()
    }
    .value_trace(5, &PortMix::Uniform, &ValueMix::Uniform { max: 9 })
    .unwrap();
    let offered = trace.stats().total_weight;
    for name in smbm_core::VALUE_POLICY_NAMES {
        let policy = value_policy_by_name(name).unwrap();
        let mut runner = ValueRunner::new(cfg, policy, 1);
        let summary = run(&mut runner, &trace, &EngineConfig::draining()).unwrap();
        assert!(
            summary.score <= offered,
            "{name}: transmitted value {} exceeds offered {offered}",
            summary.score
        );
    }
}

/// Port count and buffer of the unknown-port check: at 64 ports the indexed
/// policies look the arrival's queue up before anything validates it.
const PORTS: usize = 64;
const BUFFER: usize = 64;

/// Offers `attempts` arrivals round-robin over every port, then checks that
/// an arrival to a port past the end is refused with `UnknownPort` and
/// leaves the counters alone: once part-full and once (for policies that
/// fill it) on a full buffer, where victim selection runs.
macro_rules! check_unknown_port {
    ($model:literal, $name:expr, $runner:expr, $valid:expr, $bogus:expr) => {{
        let mut runner = $runner;
        for (round, attempts) in [BUFFER / 2, 4 * BUFFER].into_iter().enumerate() {
            for i in 0..attempts {
                runner.arrival($valid(i % PORTS)).unwrap();
            }
            let before = *runner.switch().counters();
            let err = runner.arrival($bogus).unwrap_err();
            assert!(
                matches!(err, AdmitError::UnknownPort { ports: PORTS, .. }),
                "{} {} (round {round}): {err}",
                $model,
                $name
            );
            assert_eq!(*runner.switch().counters(), before, "{} {}", $model, $name);
            runner.switch().check_invariants().unwrap();
        }
    }};
}

#[test]
fn unknown_ports_are_refused_before_any_policy_decides() {
    let bogus = PortId::new(PORTS + 6);
    let work_cfg = WorkSwitchConfig::contiguous(PORTS as u32, BUFFER).unwrap();
    // The registries also build extensions their name lists leave out.
    let work_names =
        WORK_POLICY_NAMES
            .iter()
            .copied()
            .chain(["GREEDY", "NHDT-W", "LWD-MAXLEN", "LWD-MINWORK"]);
    for name in work_names {
        let runner = WorkRunner::new(work_cfg.clone(), work_policy_by_name(name).unwrap(), 1);
        let valid = |p: usize| WorkPacket::new(PortId::new(p), work_cfg.work(PortId::new(p)));
        check_unknown_port!(
            "work",
            name,
            runner,
            valid,
            WorkPacket::new(bogus, Work::new(1))
        );
    }
    let value_cfg = ValueSwitchConfig::new(BUFFER, PORTS).unwrap();
    for name in VALUE_POLICY_NAMES.iter().copied().chain(["MRD-STRICT"]) {
        let runner = ValueRunner::new(value_cfg, value_policy_by_name(name).unwrap(), 1);
        let valid = |p: usize| ValuePacket::new(PortId::new(p), Value::new(1 + (p as u64 % 7)));
        check_unknown_port!(
            "value",
            name,
            runner,
            valid,
            ValuePacket::new(bogus, Value::new(3))
        );
    }
    for name in COMBINED_POLICY_NAMES {
        let runner =
            CombinedRunner::new(work_cfg.clone(), combined_policy_by_name(name).unwrap(), 1);
        let valid = |p: usize| {
            let port = PortId::new(p);
            CombinedPacket::new(port, work_cfg.work(port), Value::new(1 + (p as u64 % 7)))
        };
        check_unknown_port!(
            "combined",
            name,
            runner,
            valid,
            CombinedPacket::new(bogus, Work::new(1), Value::new(3))
        );
    }
}
