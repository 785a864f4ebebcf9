//! The flat trace layout against the nested one it replaced: one packet
//! array plus per-slot end offsets must behave exactly like a `Vec` of
//! per-slot `Vec`s under every operation, and packets stay compact.

mod common;

use std::mem::size_of;

use proptest::prelude::*;

use common::trace_model::NestedTrace;
use smbm_switch::{CombinedPacket, PortId, ValuePacket, Work, WorkPacket};
use smbm_traffic::Trace;

#[derive(Debug, Clone)]
enum Op {
    PushSlot(Vec<WorkPacket>),
    PushSilence(usize),
    PushArrival(WorkPacket),
    ExtendWith(Vec<Vec<WorkPacket>>),
    Repeated(usize),
    /// Keeps slot `t` with probability `(t * stride % 5) / 4`.
    Thin {
        stride: usize,
        seed: u64,
    },
}

fn packet() -> impl Strategy<Value = WorkPacket> {
    (0usize..6, 1u32..=9).prop_map(|(p, w)| WorkPacket::new(PortId::new(p), Work::new(w)))
}

fn burst() -> impl Strategy<Value = Vec<WorkPacket>> {
    proptest::collection::vec(packet(), 0..=5)
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => burst().prop_map(Op::PushSlot),
        1 => (0usize..4).prop_map(Op::PushSilence),
        2 => packet().prop_map(Op::PushArrival),
        1 => proptest::collection::vec(burst(), 0..=3).prop_map(Op::ExtendWith),
        1 => (0usize..3).prop_map(Op::Repeated),
        1 => (1usize..5, 0u64..1_000_000).prop_map(|(stride, seed)| Op::Thin { stride, seed }),
    ]
}

/// Applies `op` to both layouts; returns the trace (some operations consume
/// it).
fn apply(
    mut trace: Trace<WorkPacket>,
    model: &mut NestedTrace<WorkPacket>,
    op: Op,
) -> Trace<WorkPacket> {
    match op {
        Op::PushSlot(burst) => {
            trace.push_slot(burst.clone());
            model.push_slot(burst);
        }
        Op::PushSilence(n) => {
            trace.push_silence(n);
            model.push_silence(n);
        }
        Op::PushArrival(pkt) => {
            trace.push_arrival(pkt);
            model.push_arrival(pkt);
        }
        Op::ExtendWith(slots) => {
            trace.extend_with(Trace::from_slots(slots.clone()));
            model.extend_with(NestedTrace { slots });
        }
        Op::Repeated(times) => {
            trace = trace.repeated(times);
            *model = model.repeated(times);
        }
        Op::Thin { stride, seed } => {
            let keep = |t: usize| (t * stride % 5) as f64 / 4.0;
            trace = trace.thin(keep, seed);
            *model = model.thin(keep, seed);
        }
    }
    trace
}

/// Every read-only view of `trace` matches the model's.
fn agree(trace: &Trace<WorkPacket>, model: &NestedTrace<WorkPacket>) -> Result<(), TestCaseError> {
    prop_assert_eq!(trace.slots(), model.slots.len());
    prop_assert_eq!(trace.arrivals(), model.arrivals());
    let bursts: Vec<&[WorkPacket]> = trace.iter().collect();
    prop_assert_eq!(bursts.len(), trace.iter().len());
    for (t, expected) in model.slots.iter().enumerate() {
        prop_assert_eq!(bursts[t], expected.as_slice(), "iter, slot {}", t);
        prop_assert_eq!(trace.burst(t), expected.as_slice(), "burst, slot {}", t);
    }
    let flat: Vec<WorkPacket> = model.slots.iter().flatten().copied().collect();
    prop_assert_eq!(trace.packets(), flat.as_slice());
    for n in [1, 2, 3, 7, 64] {
        let batches: Vec<Vec<WorkPacket>> = trace.batches(n).map(<[_]>::to_vec).collect();
        prop_assert_eq!(batches, model.batches(n), "batches({})", n);
    }
    let text = trace.to_text();
    prop_assert_eq!(&text, &model.to_text());
    let back: Trace<WorkPacket> = Trace::from_text(&text).unwrap();
    prop_assert_eq!(&back, trace);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn flat_trace_matches_the_nested_model(ops in proptest::collection::vec(op(), 0..12)) {
        let mut trace = Trace::new();
        let mut model = NestedTrace { slots: Vec::new() };
        for op in ops {
            trace = apply(trace, &mut model, op);
            agree(&trace, &model)?;
        }
        prop_assert_eq!(trace, Trace::from_slots(model.slots));
    }
}

#[test]
#[should_panic(expected = "batch size must be positive")]
fn zero_batch_size_is_rejected() {
    let _ = Trace::<WorkPacket>::new().batches(0);
}

/// `PortId` is a `u32`, so the work packet is two `u32`s and the combined
/// packet fits in two words; the value packet is bounded by its `u64` value.
#[test]
fn packet_sizes_are_pinned() {
    assert_eq!(size_of::<PortId>(), 4);
    assert_eq!(size_of::<WorkPacket>(), 8);
    assert_eq!(size_of::<ValuePacket>(), 16);
    assert_eq!(size_of::<CombinedPacket>(), 16);
}
