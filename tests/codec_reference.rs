//! The wire codec against a byte-wise reference decoder
//! (`common::wire_model`): on random and mutated datagrams of both packet
//! models, `decode` and `decode_with` must return the same packets, the
//! same `bad_frames`/`missing`/`truncated` tallies and the same
//! `WireError`s, with the server's own frame check (`wire_check`) on the
//! codec side and an independent port-and-label check on the reference
//! side. The fanout is checked the same way.

mod common;

use common::wire_model::{self, RefFrame, HEADER};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use smbm_net::codec::{encode_data, encode_fin, encode_fin_ack, encode_sync, encode_sync_ack};
use smbm_net::{decode, decode_with, wire_check, Datagram, Fanout, WirePacket};
use smbm_switch::{
    PortId, Value, ValuePacket, ValueQueue, ValueSwitchConfig, Work, WorkPacket, WorkQueue,
    WorkSwitchConfig,
};

/// Decodes `buf` with `decode` and with `decode_with`, and checks both
/// against the reference.
fn assert_agrees<P>(buf: &[u8], check: impl Fn(&P) -> bool, reference: impl Fn(&P) -> bool)
where
    P: WirePacket + RefFrame + PartialEq + std::fmt::Debug,
{
    let want = wire_model::decode::<P>(buf, reference);
    assert_eq!(decode::<P>(buf, &check), want, "decode of {buf:02x?}");
    let mut sunk = Vec::new();
    let streamed = decode_with::<P>(buf, &check, |p| sunk.push(p));
    match (streamed, want) {
        (
            Ok(Datagram::Data {
                client,
                packets,
                bad_frames,
                missing,
                truncated,
            }),
            Ok(Datagram::Data {
                client: c,
                packets: p,
                bad_frames: b,
                missing: m,
                truncated: t,
            }),
        ) => {
            assert!(packets.is_empty(), "decode_with collects nothing");
            assert_eq!(
                (client, sunk, bad_frames, missing, truncated),
                (c, p, b, m, t),
                "decode_with of {buf:02x?}"
            );
        }
        (got, want) => {
            assert!(sunk.is_empty(), "no frame sinks from a control datagram");
            assert_eq!(got, want, "decode_with of {buf:02x?}");
        }
    }
}

/// One mutation of an encoded datagram, chosen at random: none, a cut
/// payload, a `count` larger (or smaller) than the frames present, flipped
/// payload bytes, a rewritten header byte, another kind, or trailing bytes.
fn mutate(rng: &mut StdRng, buf: &mut Vec<u8>) {
    match rng.random_range(0..8u32) {
        0 => {}
        1 => buf.truncate(rng.random_range(0..=buf.len())),
        2 => {
            let count = le16(buf, 4).saturating_add(rng.random_range(1..40u16));
            buf[4..6].copy_from_slice(&count.to_le_bytes());
        }
        3 => {
            let count = rng.random_range(0..=u16::MAX);
            buf[4..6].copy_from_slice(&count.to_le_bytes());
        }
        4 if buf.len() > HEADER => {
            for _ in 0..rng.random_range(1..=4u32) {
                let i = rng.random_range(HEADER..buf.len());
                buf[i] = rng.random::<u32>() as u8;
            }
        }
        5 => {
            let i = rng.random_range(0..HEADER);
            buf[i] = rng.random::<u32>() as u8;
        }
        6 => buf[3] = rng.random_range(0..8u8),
        _ => {
            for _ in 0..rng.random_range(1..20u32) {
                buf.push(rng.random::<u32>() as u8);
            }
        }
    }
}

fn le16(buf: &[u8], i: usize) -> u16 {
    u16::from_le_bytes([buf[i], buf[i + 1]])
}

/// Random work-model datagrams against a switch with random per-port
/// requirements: ports up to three past the last, labels mostly right.
#[test]
fn work_datagrams_decode_like_the_reference() {
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let ports = rng.random_range(1..=12usize);
        let works: Vec<Work> = (0..ports)
            .map(|_| Work::new(rng.random_range(1..=8u32)))
            .collect();
        let cfg = WorkSwitchConfig::new(64, works.clone()).unwrap();
        let reference =
            |p: &WorkPacket| p.port().index() < ports && p.work() == works[p.port().index()];
        for _ in 0..16 {
            let packets: Vec<WorkPacket> = (0..rng.random_range(0..=40usize))
                .map(|_| {
                    let port = rng.random_range(0..ports + 3);
                    let work = match works.get(port) {
                        Some(&w) if rng.random_bool(0.7) => w,
                        _ => Work::new(rng.random_range(0..=10u32)),
                    };
                    WorkPacket::new(PortId::new(port), work)
                })
                .collect();
            let mut buf = encode_data(rng.random_range(0..=u16::MAX), &packets);
            mutate(&mut rng, &mut buf);
            assert_agrees(&buf, wire_check::<WorkQueue>(cfg.clone()), reference);
        }
    }
}

/// Random value-model datagrams: ports up to three past the last, values
/// across the whole `u64` range.
#[test]
fn value_datagrams_decode_like_the_reference() {
    for seed in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let ports = rng.random_range(1..=12usize);
        let cfg = ValueSwitchConfig::new(64, ports).unwrap();
        let reference = |p: &ValuePacket| p.port().index() < ports;
        for _ in 0..16 {
            let packets: Vec<ValuePacket> = (0..rng.random_range(0..=40usize))
                .map(|_| {
                    let value = if rng.random_bool(0.5) {
                        rng.random_range(1..=16u64)
                    } else {
                        rng.random()
                    };
                    ValuePacket::new(
                        PortId::new(rng.random_range(0..ports + 3)),
                        Value::new(value),
                    )
                })
                .collect();
            let mut buf = encode_data(rng.random_range(0..=u16::MAX), &packets);
            mutate(&mut rng, &mut buf);
            assert_agrees(&buf, wire_check::<ValueQueue>(cfg), reference);
        }
    }
}

/// Every cut of a datagram, and every `count` from 0 to past the frames
/// present: the tallies stay exact at each boundary.
#[test]
fn short_payloads_and_oversized_counts_agree() {
    let cfg = WorkSwitchConfig::contiguous(4, 16).unwrap();
    let reference =
        |p: &WorkPacket| p.port().index() < 4 && p.work().cycles() == p.port().as_u32() + 1;
    // Frames 1 and 3 carry a wrong label, frame 4 an unknown port.
    let packets: Vec<WorkPacket> = [(0, 1), (1, 1), (2, 3), (3, 3), (9, 10)]
        .iter()
        .map(|&(port, work)| WorkPacket::new(PortId::new(port), Work::new(work)))
        .collect();
    let full = encode_data(3, &packets);
    for cut in 0..=full.len() {
        assert_agrees(
            &full[..cut],
            wire_check::<WorkQueue>(cfg.clone()),
            reference,
        );
    }
    for count in 0..=12u16 {
        let mut buf = full.clone();
        buf[4..6].copy_from_slice(&count.to_le_bytes());
        assert_agrees(&buf, wire_check::<WorkQueue>(cfg.clone()), reference);
    }
    match decode::<WorkPacket>(&full, wire_check::<WorkQueue>(cfg)).unwrap() {
        Datagram::Data {
            packets,
            bad_frames,
            ..
        } => {
            assert_eq!(packets.len(), 2);
            assert_eq!(bad_frames, 3, "two wrong labels and one unknown port");
        }
        other => panic!("unexpected {other:?}"),
    }
}

/// Control datagrams, whole and cut, and bad header fields on each.
#[test]
fn control_datagrams_and_bad_headers_agree() {
    let vcfg = ValueSwitchConfig::new(8, 2).unwrap();
    let wcfg = WorkSwitchConfig::contiguous(2, 8).unwrap();
    let controls: Vec<Vec<u8>> = vec![
        encode_fin(7),
        encode_fin_ack(8).to_vec(),
        encode_sync(9, u64::MAX - 1),
        encode_sync_ack(10, 12345).to_vec(),
    ];
    for base in &controls {
        for cut in 0..=base.len() {
            for (i, byte) in [(None, 0), (Some(0), 0), (Some(2), 2), (Some(3), 9)] {
                let mut buf = base[..cut].to_vec();
                if let Some(i) = i.filter(|&i| i < buf.len()) {
                    buf[i] = byte;
                }
                assert_agrees(&buf, wire_check::<WorkQueue>(wcfg.clone()), |_| true);
                assert_agrees(&buf, wire_check::<ValueQueue>(vcfg), |_| true);
            }
        }
    }
}

/// Both fanouts over a range of ports and shard counts, and shard 0 for a
/// single shard whatever the port.
#[test]
fn fanout_routes_like_the_reference() {
    let mut rng = StdRng::seed_from_u64(11);
    let ports = (0..2_048usize).chain((0..256).map(|_| rng.random_range(0..u32::MAX as usize)));
    for port in ports {
        for fanout in [Fanout::ByPort, Fanout::Hash] {
            assert_eq!(fanout.route(port, 1), 0, "{fanout:?} port {port}");
            for shards in 1..=9 {
                assert_eq!(
                    fanout.route(port, shards),
                    wire_model::route(fanout, port, shards),
                    "{fanout:?} port {port} shards {shards}"
                );
            }
        }
    }
}
