//! Property-based verification of Theorem 7 (`LWD <= 2-competitive`)
//! against the *exact* clairvoyant optimum on exhaustively searched tiny
//! instances — something the paper could only prove, not measure.

use proptest::prelude::*;

use smbm_core::{exact_work_opt, Lwd, WorkRunner};
use smbm_sim::{run, EngineConfig};
use smbm_switch::{PortId, Work, WorkSwitchConfig};
use smbm_traffic::Trace;

/// A tiny random instance: per-port works, buffer size, and a short trace of
/// port indices.
#[derive(Debug, Clone)]
struct TinyInstance {
    works: Vec<u32>,
    buffer: usize,
    slots: Vec<Vec<usize>>,
}

fn tiny_instance() -> impl Strategy<Value = TinyInstance> {
    (2usize..=3)
        .prop_flat_map(|ports| {
            (
                proptest::collection::vec(1u32..=4, ports),
                ports..=5usize,
                proptest::collection::vec(proptest::collection::vec(0usize..ports, 0..=4), 1..=5),
            )
        })
        .prop_map(|(works, buffer, slots)| TinyInstance {
            works,
            buffer,
            slots,
        })
        .prop_filter("at most 18 arrivals keeps exact OPT fast", |t| {
            t.slots.iter().map(Vec::len).sum::<usize>() <= 18
        })
}

fn run_lwd(instance: &TinyInstance) -> (u64, u64) {
    let config = WorkSwitchConfig::new(
        instance.buffer,
        instance.works.iter().map(|&w| Work::new(w)).collect(),
    )
    .expect("generated instances are valid");
    let ports_trace: Vec<Vec<PortId>> = instance
        .slots
        .iter()
        .map(|burst| burst.iter().map(|&p| PortId::new(p)).collect())
        .collect();
    let opt = exact_work_opt(&config, 1, &ports_trace).expect("instance is small");

    let mut trace = Trace::new();
    for burst in &instance.slots {
        trace.push_slot(
            burst
                .iter()
                .map(|&p| {
                    let port = PortId::new(p);
                    smbm_switch::WorkPacket::new(port, config.work(port))
                })
                .collect(),
        );
    }
    let mut runner = WorkRunner::new(config, Lwd::new(), 1);
    let lwd = run(&mut runner, &trace, &EngineConfig::draining())
        .expect("LWD never errs")
        .score;
    (opt, lwd)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Theorem 7: on any arrival sequence, OPT transmits at most twice as
    /// many packets as LWD (evaluated at t -> infinity via full drain).
    #[test]
    fn lwd_is_two_competitive_vs_exact_opt(instance in tiny_instance()) {
        let (opt, lwd) = run_lwd(&instance);
        prop_assert!(
            opt <= 2 * lwd,
            "OPT {opt} > 2 * LWD {lwd} on {instance:?}"
        );
    }

    /// Sanity on the same instances: the exact optimum is at least LWD's
    /// score — otherwise the "optimum" search is broken.
    #[test]
    fn exact_opt_dominates_lwd(instance in tiny_instance()) {
        let (opt, lwd) = run_lwd(&instance);
        prop_assert!(opt >= lwd, "exact OPT {opt} below LWD {lwd} on {instance:?}");
    }
}

/// The deterministic Theorem 6 burst, checked against exact OPT at a tiny
/// scale (B = 12): the measured gap must stay within [1, 2].
#[test]
fn theorem6_shape_within_bounds_vs_exact_opt() {
    let works = vec![Work::new(1), Work::new(2), Work::new(3), Work::new(6)];
    let config = WorkSwitchConfig::new(12, works).unwrap();
    // Scaled-down Theorem 6 burst: 12 x [1], 3 x [2], 2 x [3], 1 x [6].
    let mut burst = Vec::new();
    burst.extend(std::iter::repeat_n(PortId::new(0), 12));
    burst.extend(std::iter::repeat_n(PortId::new(1), 3));
    burst.extend(std::iter::repeat_n(PortId::new(2), 2));
    burst.push(PortId::new(3));
    let ports_trace = vec![burst.clone()];
    let opt = exact_work_opt(&config, 1, &ports_trace).unwrap();

    let mut trace = Trace::new();
    trace.push_slot(
        burst
            .iter()
            .map(|&p| smbm_switch::WorkPacket::new(p, config.work(p)))
            .collect(),
    );
    let mut runner = WorkRunner::new(config, Lwd::new(), 1);
    let lwd = run(&mut runner, &trace, &EngineConfig::draining())
        .unwrap()
        .score;
    assert!(opt <= 2 * lwd, "opt {opt} lwd {lwd}");
    assert!(opt >= lwd);
}
