//! Cross-checks the memoized exact-OPT solvers against an *independent*
//! naive enumerator that tries every admit/drop bitmask and simulates the
//! resulting schedule directly on the real switch. Two completely different
//! code paths must agree on the optimum for every tiny instance.

use proptest::prelude::*;

use smbm_core::{exact_value_opt, exact_work_opt};
use smbm_switch::{
    PortId, QueueDiscipline, Value, ValuePacket, ValueSwitch, ValueSwitchConfig, Work, WorkQueue,
    WorkSwitch, WorkSwitchConfig,
};

/// Naive work-model optimum: enumerate all admission subsets, simulate each
/// on a real [`WorkSwitch`] with full drain, keep the best feasible outcome.
fn naive_work_opt(config: &WorkSwitchConfig, speedup: u32, trace: &[Vec<PortId>]) -> u64 {
    let arrivals: usize = trace.iter().map(Vec::len).sum();
    assert!(arrivals <= 12, "naive enumeration must stay tiny");
    let mut best = 0;
    'mask: for mask in 0u32..(1 << arrivals) {
        let mut sw = WorkSwitch::new(config.clone());
        let mut idx = 0;
        for burst in trace {
            for &port in burst {
                let pkt = WorkQueue::packet(config, port, Value::ONE);
                if mask & (1 << idx) != 0 {
                    if sw.is_full() {
                        continue 'mask; // infeasible subset
                    }
                    sw.admit(pkt).expect("space checked");
                } else {
                    sw.reject(pkt).expect("valid packet");
                }
                idx += 1;
            }
            sw.transmit(speedup);
            sw.advance_slot();
        }
        let mut guard = 0;
        while sw.occupancy() > 0 {
            sw.transmit(speedup);
            sw.advance_slot();
            guard += 1;
            assert!(guard < 10_000);
        }
        best = best.max(sw.counters().transmitted());
    }
    best
}

/// Naive value-model optimum, same construction.
fn naive_value_opt(config: &ValueSwitchConfig, speedup: u32, trace: &[Vec<ValuePacket>]) -> u64 {
    let arrivals: usize = trace.iter().map(Vec::len).sum();
    assert!(arrivals <= 12, "naive enumeration must stay tiny");
    let mut best = 0;
    'mask: for mask in 0u32..(1 << arrivals) {
        let mut sw = ValueSwitch::new(*config);
        let mut idx = 0;
        for burst in trace {
            for &pkt in burst {
                if mask & (1 << idx) != 0 {
                    if sw.is_full() {
                        continue 'mask;
                    }
                    sw.admit(pkt).expect("space checked");
                } else {
                    sw.reject(pkt).expect("valid packet");
                }
                idx += 1;
            }
            sw.transmit(speedup);
            sw.advance_slot();
        }
        let mut guard = 0;
        while sw.occupancy() > 0 {
            sw.transmit(speedup);
            sw.advance_slot();
            guard += 1;
            assert!(guard < 10_000);
        }
        best = best.max(sw.counters().transmitted_value());
    }
    best
}

fn micro_work_case() -> impl Strategy<Value = (Vec<u32>, usize, u32, Vec<Vec<usize>>)> {
    (2usize..=3).prop_flat_map(|ports| {
        (
            proptest::collection::vec(1u32..=3, ports),
            ports..=4usize,
            1u32..=2,
            proptest::collection::vec(proptest::collection::vec(0usize..ports, 0..=3), 1..=4)
                .prop_filter("tiny", |s| {
                    let n: usize = s.iter().map(Vec::len).sum();
                    (1..=10).contains(&n)
                }),
        )
    })
}

#[allow(clippy::type_complexity)]
fn micro_value_case() -> impl Strategy<Value = (usize, usize, u32, Vec<Vec<(usize, u64)>>)> {
    (2usize..=3).prop_flat_map(|ports| {
        (
            Just(ports),
            ports..=4usize,
            1u32..=2,
            proptest::collection::vec(
                proptest::collection::vec((0usize..ports, 1u64..=5), 0..=3),
                1..=4,
            )
            .prop_filter("tiny", |s| {
                let n: usize = s.iter().map(Vec::len).sum();
                (1..=10).contains(&n)
            }),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(80))]

    #[test]
    fn memoized_and_naive_work_opt_agree(
        (works, buffer, speedup, slots) in micro_work_case()
    ) {
        let cfg = WorkSwitchConfig::new(
            buffer,
            works.iter().map(|&w| Work::new(w)).collect(),
        ).unwrap();
        let trace: Vec<Vec<PortId>> = slots
            .iter()
            .map(|b| b.iter().map(|&p| PortId::new(p)).collect())
            .collect();
        let fast = exact_work_opt(&cfg, speedup, &trace).unwrap();
        let naive = naive_work_opt(&cfg, speedup, &trace);
        prop_assert_eq!(fast, naive, "solvers disagree on {:?}", slots);
    }

    #[test]
    fn memoized_and_naive_value_opt_agree(
        (ports, buffer, speedup, slots) in micro_value_case()
    ) {
        let cfg = ValueSwitchConfig::new(buffer, ports).unwrap();
        let trace: Vec<Vec<ValuePacket>> = slots
            .iter()
            .map(|b| {
                b.iter()
                    .map(|&(p, v)| ValuePacket::new(PortId::new(p), Value::new(v)))
                    .collect()
            })
            .collect();
        let fast = exact_value_opt(&cfg, speedup, &trace).unwrap();
        let naive = naive_value_opt(&cfg, speedup, &trace);
        prop_assert_eq!(fast, naive, "solvers disagree on {:?}", slots);
    }
}

#[test]
fn known_instance_agrees_by_hand() {
    // B = 2, ports w = {1, 3}, one burst [p0, p1, p0], drain.
    // Best: admit everything that fits — p0, p1 fill the buffer; the second
    // p0 cannot fit (p0's first packet transmits only *after* the arrival
    // phase). OPT = 2.
    let cfg = WorkSwitchConfig::new(2, vec![Work::new(1), Work::new(3)]).unwrap();
    let trace = vec![vec![PortId::new(0), PortId::new(1), PortId::new(0)]];
    assert_eq!(exact_work_opt(&cfg, 1, &trace).unwrap(), 2);
    assert_eq!(naive_work_opt(&cfg, 1, &trace), 2);
}
