//! Property tests for the wire codec:
//!
//! * random work/value batches round-trip encode→decode identical;
//! * truncating a valid datagram anywhere never panics and the per-frame
//!   loss tallies (the future `NetDecode` drops) account for every
//!   declared frame exactly;
//! * flipping arbitrary bytes or feeding pure garbage never panics —
//!   every datagram either decodes or is rejected whole;
//! * the streaming `decode_with` hands its sink exactly the frames, in
//!   order, and the tallies that `decode` collects.

use proptest::prelude::*;

use smbm_net::codec::{decode, decode_with, encode_data, Datagram, WirePacket, HEADER_LEN};
use smbm_switch::{PortId, Value, ValuePacket, Work, WorkPacket};

fn work_batch() -> impl Strategy<Value = Vec<WorkPacket>> {
    proptest::collection::vec((0usize..4096, 0u32..1_000_000), 0..200).prop_map(|v| {
        v.into_iter()
            .map(|(p, w)| WorkPacket::new(PortId::new(p), Work::new(w)))
            .collect()
    })
}

fn value_batch() -> impl Strategy<Value = Vec<ValuePacket>> {
    proptest::collection::vec((0usize..4096, 0u64..u64::MAX), 0..200).prop_map(|v| {
        v.into_iter()
            .map(|(p, x)| ValuePacket::new(PortId::new(p), Value::new(x)))
            .collect()
    })
}

/// Unpacks a data decode, failing the property on any other outcome.
fn data<P: WirePacket + std::fmt::Debug>(buf: &[u8]) -> (Vec<P>, u64, u64, bool) {
    match decode::<P>(buf, |_| true) {
        Ok(Datagram::Data {
            packets,
            bad_frames,
            missing,
            truncated,
            ..
        }) => (packets, bad_frames, missing, truncated),
        other => panic!("expected a data datagram, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn work_batches_round_trip(client in 0u16..=u16::MAX, packets in work_batch()) {
        let buf = encode_data(client, &packets);
        prop_assert_eq!(buf.len(), HEADER_LEN + packets.len() * WorkPacket::FRAME_LEN);
        let (got, bad, missing, truncated) = data::<WorkPacket>(&buf);
        prop_assert_eq!(got, packets);
        prop_assert_eq!(bad, 0);
        prop_assert_eq!(missing, 0);
        prop_assert!(!truncated);
    }

    #[test]
    fn value_batches_round_trip(client in 0u16..=u16::MAX, packets in value_batch()) {
        let buf = encode_data(client, &packets);
        let (got, _, missing, _) = data::<ValuePacket>(&buf);
        prop_assert_eq!(got, packets);
        prop_assert_eq!(missing, 0);
    }

    #[test]
    fn truncation_never_panics_and_accounts_every_frame(
        packets in work_batch(),
        cut_per_mille in 0usize..=1000,
    ) {
        let full = encode_data(7, &packets);
        let cut = full.len() * cut_per_mille / 1000;
        let buf = &full[..cut.min(full.len())];
        match decode::<WorkPacket>(buf, |_| true) {
            Err(_) => prop_assert!(buf.len() < HEADER_LEN, "whole headers must decode"),
            Ok(Datagram::Data { packets: got, bad_frames, missing, truncated, .. }) => {
                // Declared == delivered + lost, exactly: `missing` is the
                // NetDecode drop tally the server will charge.
                prop_assert_eq!(got.len() as u64 + bad_frames + missing, packets.len() as u64);
                prop_assert_eq!(bad_frames, 0);
                prop_assert_eq!(truncated, buf.len() < full.len() && !packets.is_empty());
                prop_assert!(got.iter().zip(&packets).all(|(a, b)| a == b), "prefix preserved");
            }
            Ok(other) => prop_assert!(false, "truncated data decoded as {other:?}"),
        }
    }

    #[test]
    fn frame_validation_losses_are_exact(packets in work_batch(), limit in 1usize..4096) {
        let buf = encode_data(0, &packets);
        let valid = packets.iter().filter(|p| p.port().index() < limit).count() as u64;
        let (got, bad, missing, _) = data::<WorkPacket>(&buf);
        // Re-decode with the admission check a real server would use.
        let _ = got;
        let (kept, bad2, _, _) = match decode::<WorkPacket>(&buf, |p| p.port().index() < limit) {
            Ok(Datagram::Data { packets, bad_frames, missing, truncated, .. }) =>
                (packets, bad_frames, missing, truncated),
            other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
        };
        prop_assert_eq!(kept.len() as u64, valid);
        prop_assert_eq!(bad2, packets.len() as u64 - valid);
        prop_assert_eq!(bad + missing, 0);
    }

    #[test]
    fn corrupted_bytes_never_panic(
        packets in work_batch(),
        flips in proptest::collection::vec((0usize..4096, 0u8..=255), 1..8),
    ) {
        let mut buf = encode_data(3, &packets);
        for (pos, val) in flips {
            if !buf.is_empty() {
                let idx = pos % buf.len();
                buf[idx] = val;
            }
        }
        // Whatever came out: a decode, a whole-datagram rejection — but
        // never a panic, and data decodes never invent frames.
        if let Ok(Datagram::Data { packets: got, bad_frames, missing, .. }) =
            decode::<WorkPacket>(&buf, |p| p.port().index() < 4096)
        {
            prop_assert!(got.len() as u64 + bad_frames + missing <= u64::from(u16::MAX));
        }
    }

    #[test]
    fn decode_with_streams_what_decode_collects(
        packets in work_batch(),
        cut_per_mille in 0usize..=1000,
        flips in proptest::collection::vec((0usize..4096, 0u8..=255), 0..4),
        limit in 1usize..4096,
    ) {
        let mut buf = encode_data(5, &packets);
        buf.truncate(buf.len() * cut_per_mille / 1000);
        for (pos, val) in flips {
            if !buf.is_empty() {
                let idx = pos % buf.len();
                buf[idx] = val;
            }
        }
        let check = |p: &WorkPacket| p.port().index() < limit;
        let mut streamed = Vec::new();
        let mut got = decode_with::<WorkPacket>(&buf, check, |p| streamed.push(p));
        if let Ok(Datagram::Data { packets, .. }) = &mut got {
            prop_assert!(packets.is_empty(), "frames go to the sink, not the datagram");
            *packets = streamed;
        } else {
            prop_assert!(streamed.is_empty());
        }
        prop_assert_eq!(got, decode::<WorkPacket>(&buf, check));
    }

    #[test]
    fn pure_garbage_never_panics(bytes in proptest::collection::vec(0u8..=255, 0..2048)) {
        let _ = decode::<WorkPacket>(&bytes, |_| true);
        let _ = decode::<ValuePacket>(&bytes, |_| true);
    }
}
