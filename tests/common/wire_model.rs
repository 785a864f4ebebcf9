//! A byte-wise reference for the smbm wire format and the shard fanout.
//!
//! Written from the layout table in `smbm_net::codec`'s module docs, not
//! from the codec: every integer is assembled one byte at a time, every
//! frame is bounds-checked on its own, and nothing is shared with the
//! codec but the public result types. The codec's own decoder reads whole
//! frames at once; this one is the slow, obviously-right version it must
//! agree with.

use smbm_net::{Datagram, Fanout, WireError};
use smbm_switch::{PortId, Value, ValuePacket, Work, WorkPacket};

/// Bytes in the datagram header.
pub const HEADER: usize = 8;

/// A packet type the reference can read from one frame.
pub trait RefFrame: Copy {
    /// Kind tag of data datagrams carrying this packet type.
    const KIND: u8;
    /// Frame size in bytes.
    const LEN: usize;
    /// Reads one `LEN`-byte frame.
    fn read(frame: &[u8]) -> Self;
}

/// Little-endian integer from `bytes`, assembled byte by byte.
pub fn le(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .rev()
        .fold(0u64, |acc, &b| (acc << 8) | u64::from(b))
}

impl RefFrame for WorkPacket {
    const KIND: u8 = 0;
    const LEN: usize = 8;

    fn read(frame: &[u8]) -> Self {
        WorkPacket::new(
            PortId::from_u32(le(&frame[0..4]) as u32),
            Work::new(le(&frame[4..8]) as u32),
        )
    }
}

impl RefFrame for ValuePacket {
    const KIND: u8 = 1;
    const LEN: usize = 12;

    fn read(frame: &[u8]) -> Self {
        ValuePacket::new(
            PortId::from_u32(le(&frame[0..4]) as u32),
            Value::new(le(&frame[4..12])),
        )
    }
}

/// Decodes `buf` as the codec docs specify, validating every data frame
/// with `check`.
pub fn decode<P: RefFrame>(
    buf: &[u8],
    check: impl Fn(&P) -> bool,
) -> Result<Datagram<P>, WireError> {
    if buf.len() < HEADER {
        return Err(WireError::TooShort { len: buf.len() });
    }
    let magic = le(&buf[0..2]) as u16;
    if magic != 0xB0FF {
        return Err(WireError::BadMagic(magic));
    }
    if buf[2] != 1 {
        return Err(WireError::BadVersion(buf[2]));
    }
    let kind = buf[3];
    let count = le(&buf[4..6]) as usize;
    let client = le(&buf[6..8]) as u16;
    if kind == P::KIND {
        let mut packets = Vec::new();
        let mut bad_frames = 0u64;
        let mut present = 0usize;
        for i in 0..count {
            let start = HEADER + i * P::LEN;
            let Some(frame) = buf.get(start..start + P::LEN) else {
                break;
            };
            present += 1;
            let p = P::read(frame);
            if check(&p) {
                packets.push(p);
            } else {
                bad_frames += 1;
            }
        }
        return Ok(Datagram::Data {
            client,
            packets,
            bad_frames,
            missing: (count - present) as u64,
            truncated: buf.len() - HEADER < count * P::LEN,
        });
    }
    match kind {
        2 => Ok(Datagram::Fin { client }),
        3 => Ok(Datagram::FinAck { client }),
        4 | 5 => {
            if buf.len() < HEADER + 8 {
                return Err(WireError::TooShort { len: buf.len() });
            }
            let seq = le(&buf[HEADER..HEADER + 8]);
            Ok(if kind == 4 {
                Datagram::Sync { client, seq }
            } else {
                Datagram::SyncAck { client, seq }
            })
        }
        0 | 1 => Err(WireError::WrongModel {
            expected: P::KIND,
            got: kind,
        }),
        other => Err(WireError::BadKind(other)),
    }
}

/// The shard `port` routes to under `fanout`, as `Fanout`'s docs specify.
pub fn route(fanout: Fanout, port: usize, shards: usize) -> usize {
    match fanout {
        Fanout::ByPort => port % shards,
        Fanout::Hash => ((port as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % shards,
    }
}
