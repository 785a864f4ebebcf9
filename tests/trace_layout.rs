//! The flat trace layout against the nested one it replaced: one packet
//! array plus per-slot end offsets must behave exactly like a `Vec` of
//! per-slot `Vec`s under every operation, and packets stay compact.

mod common;

use std::mem::{align_of, size_of};

use proptest::prelude::*;

use common::trace_model::NestedTrace;
use smbm_net::codec::{decode_with, encode_data, Datagram, WirePacket, HEADER_LEN};
use smbm_switch::{CombinedPacket, PortId, Value, ValuePacket, Work, WorkPacket};
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
/// packet fits in two words; the value packet is packed to 4-byte alignment,
/// so its `u64` value follows the port with no padding.
#[test]
fn packet_sizes_are_pinned() {
    assert_eq!(size_of::<PortId>(), 4);
    assert_eq!(size_of::<WorkPacket>(), 8);
    assert_eq!(size_of::<ValuePacket>(), 12);
    assert_eq!(align_of::<ValuePacket>(), 4);
    assert_eq!(size_of::<CombinedPacket>(), 16);
}

/// Packing changes no rendering: both strings are those of the unpacked
/// 16-byte packet.
#[test]
fn value_packet_renders_as_before_packing() {
    let p = ValuePacket::new(PortId::new(2), Value::new(u64::MAX));
    assert_eq!(
        format!("{p:?}"),
        "ValuePacket { port: PortId(2), value: Value(18446744073709551615) }"
    );
    assert_eq!(p.to_string(), "[$18446744073709551615 -> port#3]");
    let q = ValuePacket::new(PortId::new(0), Value::new(9));
    assert_eq!(
        format!("{q:?}"),
        "ValuePacket { port: PortId(0), value: Value(9) }"
    );
    assert_eq!(q.to_string(), "[$9 -> port#1]");
}

/// The largest value survives the 12-byte wire frame on the server's
/// receive path (`decode_with`), from one trace of packed packets into
/// another.
#[test]
fn max_value_round_trips_through_the_codec() {
    let mut sent = Trace::new();
    sent.push_slot([
        ValuePacket::new(PortId::new(7), Value::new(u64::MAX)),
        ValuePacket::new(PortId::new(0), Value::new(u64::MAX - 1)),
    ]);
    let buf = encode_data(3, sent.packets());
    assert_eq!(buf.len(), HEADER_LEN + 2 * ValuePacket::FRAME_LEN);
    let mut received = Trace::new();
    received.push_silence(1);
    let datagram = decode_with(&buf, |_: &ValuePacket| true, |p| received.push_arrival(p));
    assert!(matches!(
        datagram,
        Ok(Datagram::Data {
            client: 3,
            bad_frames: 0,
            missing: 0,
            truncated: false,
            ..
        })
    ));
    assert_eq!(received, sent);
    assert_eq!(received.packets()[0].value().get(), u64::MAX);
}
