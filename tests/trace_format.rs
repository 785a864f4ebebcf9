//! Property tests for the trace text format: arbitrary traces round-trip,
//! and port ids a `u32` cannot hold are refused where they enter.

use proptest::prelude::*;

use smbm_switch::{
    ConfigError, PortId, Value, ValuePacket, ValueSwitchConfig, Work, WorkPacket, WorkSwitchConfig,
};
use smbm_traffic::Trace;

fn work_trace_strategy() -> impl Strategy<Value = Trace<WorkPacket>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..10, 1u32..=20), 0..=6),
        0..=8,
    )
    .prop_map(|slots| {
        Trace::from_slots(
            slots
                .into_iter()
                .map(|burst| {
                    burst
                        .into_iter()
                        .map(|(p, w)| WorkPacket::new(PortId::new(p), Work::new(w)))
                        .collect()
                })
                .collect(),
        )
    })
}

fn value_trace_strategy() -> impl Strategy<Value = Trace<ValuePacket>> {
    proptest::collection::vec(
        proptest::collection::vec((0usize..10, 1u64..=1_000_000), 0..=6),
        0..=8,
    )
    .prop_map(|slots| {
        Trace::from_slots(
            slots
                .into_iter()
                .map(|burst| {
                    burst
                        .into_iter()
                        .map(|(p, v)| ValuePacket::new(PortId::new(p), Value::new(v)))
                        .collect()
                })
                .collect(),
        )
    })
}

proptest! {
    #[test]
    fn work_traces_roundtrip(trace in work_trace_strategy()) {
        let text = trace.to_text();
        let back: Trace<WorkPacket> = Trace::from_text(&text).unwrap();
        prop_assert_eq!(back, trace);
    }

    #[test]
    fn value_traces_roundtrip(trace in value_trace_strategy()) {
        let text = trace.to_text();
        let back: Trace<ValuePacket> = Trace::from_text(&text).unwrap();
        prop_assert_eq!(back, trace);
    }

    /// Serialization is line-per-slot, so slot counts survive even for
    /// traces with empty bursts.
    #[test]
    fn slot_structure_is_preserved(trace in work_trace_strategy()) {
        let text = trace.to_text();
        let back: Trace<WorkPacket> = Trace::from_text(&text).unwrap();
        prop_assert_eq!(back.slots(), trace.slots());
        prop_assert_eq!(back.arrivals(), trace.arrivals());
    }

    /// `repeated` multiplies slots and arrivals exactly.
    #[test]
    fn repeat_multiplies(trace in work_trace_strategy(), times in 1usize..4) {
        let slots = trace.slots();
        let arrivals = trace.arrivals();
        let repeated = trace.repeated(times);
        prop_assert_eq!(repeated.slots(), slots * times);
        prop_assert_eq!(repeated.arrivals(), arrivals * times);
    }
}

#[test]
fn corrupted_text_is_rejected_with_line_numbers() {
    let text = "1:2\n2:3 bogus\n";
    let err = Trace::<WorkPacket>::from_text(text).unwrap_err();
    assert!(err.to_string().contains("line 2"), "{err}");
}

/// Port ids are `u32`: trace text naming a port past `u32::MAX` (one-based)
/// is a parse error, neither a panic nor a silently truncated port.
#[test]
fn ports_beyond_u32_are_rejected() {
    let top = Trace::<WorkPacket>::from_text("4294967295:1\n").unwrap();
    assert_eq!(top.burst(0)[0].port(), PortId::from_u32(u32::MAX - 1));
    for text in ["4294967296:1\n", "1:1\n18446744073709551616:1\n"] {
        let err = Trace::<ValuePacket>::from_text(text).unwrap_err();
        assert!(err.to_string().contains("bad port"), "{err}");
    }
    let err = Trace::<WorkPacket>::from_text("1:1 4294967296:2\n").unwrap_err();
    assert!(err.to_string().contains("line 1"), "{err}");
}

/// Switch configurations refuse more ports than a `u32` port id can name,
/// before allocating anything per port.
#[test]
fn configs_reject_more_than_u32_ports() {
    let too_many = u32::MAX as usize + 1;
    let expected = ConfigError::TooManyPorts { ports: too_many };
    assert_eq!(
        ValueSwitchConfig::new(usize::MAX, too_many).unwrap_err(),
        expected
    );
    assert_eq!(
        WorkSwitchConfig::homogeneous(too_many, usize::MAX).unwrap_err(),
        expected
    );
    assert_eq!(
        WorkSwitchConfig::striped(2, too_many / 2, usize::MAX).unwrap_err(),
        expected
    );
    assert!(ValueSwitchConfig::new(usize::MAX, u32::MAX as usize).is_ok());
    assert!(!expected.to_string().is_empty());
}
