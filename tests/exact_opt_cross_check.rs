//! Cross-checks the memoized exact-OPT search against an *independent*
//! naive enumerator that tries every admit/drop bitmask and simulates the
//! resulting schedule directly on the real switch. Two completely different
//! code paths must agree on the optimum for every tiny instance, in every
//! packet model.

use proptest::prelude::*;

use smbm_core::{exact_opt, CombinedRunner, Greedy};
use smbm_sim::{run, EngineConfig};
use smbm_switch::{
    CombinedQueue, PortId, QueueDiscipline, Switch, Value, ValueQueue, ValueSwitchConfig, Work,
    WorkQueue, WorkSwitchConfig,
};
use smbm_traffic::Trace;

/// Naive optimum: enumerate all admission subsets, simulate each on a real
/// [`Switch<Q>`] with full drain, keep the best feasible outcome.
fn naive_opt<Q: QueueDiscipline>(
    config: &Q::Config,
    speedup: u32,
    trace: &[Vec<Q::Packet>],
) -> u64 {
    let arrivals: usize = trace.iter().map(Vec::len).sum();
    assert!(arrivals <= 12, "naive enumeration must stay tiny");
    let mut best = 0;
    'mask: for mask in 0u32..(1 << arrivals) {
        let mut sw = Switch::<Q>::new(config.clone());
        let mut idx = 0;
        for burst in trace {
            for &pkt in burst {
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
        best = best.max(sw.counters().transmitted_value());
    }
    best
}

/// `(port, value)` arrivals per slot as packets of `Q`.
fn packets<Q: QueueDiscipline>(
    config: &Q::Config,
    slots: &[Vec<(usize, u64)>],
) -> Vec<Vec<Q::Packet>> {
    slots
        .iter()
        .map(|burst| {
            burst
                .iter()
                .map(|&(port, v)| Q::packet(config, PortId::new(port), Value::new(v)))
                .collect()
        })
        .collect()
}

fn work_config(buffer: usize, works: &[u32]) -> WorkSwitchConfig {
    WorkSwitchConfig::new(buffer, works.iter().map(|&w| Work::new(w)).collect()).unwrap()
}

/// The one cross-check body: the search and the enumerator agree on `slots`.
fn search_agrees_with_naive<Q: QueueDiscipline>(
    config: &Q::Config,
    speedup: u32,
    slots: &[Vec<(usize, u64)>],
) -> Result<(), TestCaseError> {
    let trace = packets::<Q>(config, slots);
    let fast = exact_opt::<Q>(config, speedup, &trace).unwrap();
    let naive = naive_opt::<Q>(config, speedup, &trace);
    prop_assert_eq!(fast, naive, "search and enumerator disagree on {:?}", slots);
    Ok(())
}

/// Per-port works, buffer, speedup and at most 10 `(port, value)` arrivals.
#[allow(clippy::type_complexity)]
fn micro_case() -> impl Strategy<Value = (Vec<u32>, usize, u32, Vec<Vec<(usize, u64)>>)> {
    (2usize..=3).prop_flat_map(|ports| {
        (
            proptest::collection::vec(1u32..=3, ports),
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
    fn memoized_and_naive_work_opt_agree((works, buffer, speedup, slots) in micro_case()) {
        search_agrees_with_naive::<WorkQueue>(&work_config(buffer, &works), speedup, &slots)?;
    }

    #[test]
    fn memoized_and_naive_value_opt_agree((works, buffer, speedup, slots) in micro_case()) {
        let cfg = ValueSwitchConfig::new(buffer, works.len()).unwrap();
        search_agrees_with_naive::<ValueQueue>(&cfg, speedup, &slots)?;
    }

    #[test]
    fn memoized_and_naive_combined_opt_agree((works, buffer, speedup, slots) in micro_case()) {
        search_agrees_with_naive::<CombinedQueue>(&work_config(buffer, &works), speedup, &slots)?;
    }
}

#[test]
fn known_instance_agrees_by_hand() {
    // B = 2, ports w = {1, 3}, one burst [p0, p1, p0], drain.
    // Best: admit everything that fits — p0, p1 fill the buffer; the second
    // p0 cannot fit (p0's first packet transmits only *after* the arrival
    // phase). OPT = 2.
    let cfg = work_config(2, &[1, 3]);
    let trace = packets::<WorkQueue>(&cfg, &[vec![(0, 1), (1, 1), (0, 1)]]);
    assert_eq!(exact_opt::<WorkQueue>(&cfg, 1, &trace).unwrap(), 2);
    assert_eq!(naive_opt::<WorkQueue>(&cfg, 1, &trace), 2);
}

#[test]
fn known_combined_instance_agrees_by_hand() {
    // Works {1, 4}, B = 2. OPT admits one heavy packet and one light one,
    // then one light packet in each later slot: 5 + 4 x 3 = 17. Value-greedy
    // fills the buffer with both heavy packets, which hold it for four slots.
    let cfg = work_config(2, &[1, 4]);
    let mut slots = vec![vec![(1, 5), (1, 5), (0, 3), (0, 3)]];
    slots.extend(vec![vec![(0, 3)]; 3]);
    let trace = packets::<CombinedQueue>(&cfg, &slots);
    assert_eq!(exact_opt::<CombinedQueue>(&cfg, 1, &trace).unwrap(), 17);
    assert_eq!(naive_opt::<CombinedQueue>(&cfg, 1, &trace), 17);
    let mut greedy = CombinedRunner::new(cfg, Greedy::new(), 1);
    let summary = run(
        &mut greedy,
        &Trace::from_slots(trace),
        &EngineConfig::draining(),
    )
    .unwrap();
    assert_eq!(summary.score, 10);
}
