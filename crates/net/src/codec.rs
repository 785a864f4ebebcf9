//! The smbm wire format: a compact little-endian codec packing many
//! fixed-size packet frames into one UDP datagram.
//!
//! # Datagram layout
//!
//! Every datagram starts with an 8-byte header:
//!
//! | offset | size | field   | meaning                                    |
//! |--------|------|---------|--------------------------------------------|
//! | 0      | 2    | magic   | [`MAGIC`] (`0xB0FF`), little-endian        |
//! | 2      | 1    | version | [`VERSION`] (`1`)                          |
//! | 3      | 1    | kind    | see below                                  |
//! | 4      | 2    | count   | frames in a data datagram, else `0`        |
//! | 6      | 2    | client  | sender's client id                         |
//!
//! Kinds `0` (work data) and `1` (value data) carry `count` back-to-back
//! packet frames; the remaining kinds are the control plane ([`Datagram`]):
//! `2` FIN, `3` FIN-ACK, `4` SYNC, `5` SYNC-ACK. SYNC and SYNC-ACK carry an
//! 8-byte sequence number so a client can run stop-and-wait flow control —
//! a SYNC-ACK for sequence `s` means the server has *fully accounted* every
//! data datagram the client sent before SYNC `s`.
//!
//! A work frame is 8 bytes (`port: u32`, `work: u32`); a value frame is 12
//! bytes (`port: u32`, `value: u64`). All integers little-endian.
//!
//! # Fuzz safety
//!
//! [`decode`] never panics on wire input. A datagram that is not even a
//! well-formed header (short, bad magic/version/kind) is rejected whole
//! with a [`WireError`]. A *data* datagram with a good header always
//! decodes: frames that fail the caller's validation close are counted in
//! [`Datagram::Data::bad_frames`], frames the header declared but the
//! payload is too short to contain are counted in
//! [`Datagram::Data::missing`] — both are exact per-frame tallies the
//! server turns into `DropReason::NetDecode` drops.

use std::fmt;

use smbm_switch::{PortId, Value, ValuePacket, Work, WorkPacket};

/// First two header bytes of every smbm datagram.
pub const MAGIC: u16 = 0xB0FF;

/// Wire format version this codec speaks.
pub const VERSION: u8 = 1;

/// Bytes in the datagram header.
pub const HEADER_LEN: usize = 8;

/// Kind tag of a FIN datagram (client is done sending).
pub const KIND_FIN: u8 = 2;
/// Kind tag of a FIN-ACK datagram (server acknowledges the FIN).
pub const KIND_FIN_ACK: u8 = 3;
/// Kind tag of a SYNC datagram (flow-control barrier request).
pub const KIND_SYNC: u8 = 4;
/// Kind tag of a SYNC-ACK datagram (barrier acknowledged).
pub const KIND_SYNC_ACK: u8 = 5;

/// A packet type with a fixed-size wire frame.
///
/// Implemented for [`WorkPacket`] (kind `0`, 8-byte frames) and
/// [`ValuePacket`] (kind `1`, 12-byte frames). `decode_frame` is total: any
/// `FRAME_LEN` bytes decode to *some* packet, and semantic validation
/// (known port, matching work) is the caller's per-frame check in
/// [`decode`] — that split is what makes the codec fuzz-safe while still
/// keeping garbage out of the switch, whose admission path treats an
/// unknown port or mismatched work as a programming error.
pub trait WirePacket: Copy {
    /// Kind tag of data datagrams carrying this packet type.
    const KIND: u8;
    /// Encoded frame size in bytes.
    const FRAME_LEN: usize;
    /// Appends this packet's frame to `out`.
    fn encode_frame(&self, out: &mut Vec<u8>);
    /// Decodes one frame; `bytes` must be exactly `FRAME_LEN` long
    /// ([`decode`] only ever hands over whole frames).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not `FRAME_LEN` long.
    fn decode_frame(bytes: &[u8]) -> Self;
    /// Destination port index, for shard fanout routing.
    fn port_index(&self) -> usize;
}

impl WirePacket for WorkPacket {
    const KIND: u8 = 0;
    const FRAME_LEN: usize = 8;

    fn encode_frame(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.port().as_u32().to_le_bytes());
        out.extend_from_slice(&self.work().cycles().to_le_bytes());
    }

    fn decode_frame(bytes: &[u8]) -> Self {
        let [p0, p1, p2, p3, w0, w1, w2, w3] = frame(bytes);
        WorkPacket::new(
            PortId::from_u32(u32::from_le_bytes([p0, p1, p2, p3])),
            Work::new(u32::from_le_bytes([w0, w1, w2, w3])),
        )
    }

    fn port_index(&self) -> usize {
        self.port().index()
    }
}

impl WirePacket for ValuePacket {
    const KIND: u8 = 1;
    const FRAME_LEN: usize = 12;

    fn encode_frame(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.port().as_u32().to_le_bytes());
        out.extend_from_slice(&self.value().get().to_le_bytes());
    }

    fn decode_frame(bytes: &[u8]) -> Self {
        let [p0, p1, p2, p3, v0, v1, v2, v3, v4, v5, v6, v7] = frame(bytes);
        ValuePacket::new(
            PortId::from_u32(u32::from_le_bytes([p0, p1, p2, p3])),
            Value::new(u64::from_le_bytes([v0, v1, v2, v3, v4, v5, v6, v7])),
        )
    }

    fn port_index(&self) -> usize {
        self.port().index()
    }
}

/// One decoded datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Datagram<P> {
    /// A data datagram: the frames that decoded and validated, plus exact
    /// tallies of the ones that did not.
    Data {
        /// Sender's client id.
        client: u16,
        /// Frames that decoded and passed the caller's validation check.
        packets: Vec<P>,
        /// Frames present in the payload that failed validation.
        bad_frames: u64,
        /// Frames the header declared but the payload did not contain
        /// (the datagram was truncated mid-flight).
        missing: u64,
        /// The payload was shorter than `count * FRAME_LEN`.
        truncated: bool,
    },
    /// The client is done sending.
    Fin {
        /// Sender's client id.
        client: u16,
    },
    /// The server acknowledges a FIN.
    FinAck {
        /// Client the ack is addressed to.
        client: u16,
    },
    /// Flow-control barrier: the client asks the server to confirm that
    /// everything sent before this datagram has been accounted.
    Sync {
        /// Sender's client id.
        client: u16,
        /// Barrier sequence number.
        seq: u64,
    },
    /// The server confirms barrier `seq`.
    SyncAck {
        /// Client the ack is addressed to.
        client: u16,
        /// Barrier sequence number being confirmed.
        seq: u64,
    },
}

/// A datagram rejected whole: not even its header (or control payload) was
/// intelligible, so nothing about its contents — not even how many frames
/// it claimed to carry — can be trusted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Shorter than the fixed header (or a control payload).
    TooShort {
        /// Bytes actually received.
        len: usize,
    },
    /// The first two bytes are not [`MAGIC`].
    BadMagic(u16),
    /// Unknown wire format version.
    BadVersion(u8),
    /// Unknown datagram kind.
    BadKind(u8),
    /// A data datagram of the other packet model (e.g. value frames
    /// arriving at a work-model server).
    WrongModel {
        /// Kind this decoder expected for data datagrams.
        expected: u8,
        /// Kind the datagram carried.
        got: u8,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::TooShort { len } => write!(f, "datagram too short ({len} bytes)"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown datagram kind {k}"),
            WireError::WrongModel { expected, got } => {
                write!(f, "wrong packet model: expected kind {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for WireError {}

fn header(kind: u8, count: u16, client: u16) -> [u8; HEADER_LEN] {
    let [m0, m1] = MAGIC.to_le_bytes();
    let [n0, n1] = count.to_le_bytes();
    let [c0, c1] = client.to_le_bytes();
    [m0, m1, VERSION, kind, n0, n1, c0, c1]
}

/// A SYNC or SYNC-ACK datagram: the header plus the sequence number.
fn sync_datagram(kind: u8, client: u16, seq: u64) -> [u8; HEADER_LEN + 8] {
    let mut out = [0u8; HEADER_LEN + 8];
    out[..HEADER_LEN].copy_from_slice(&header(kind, 0, client));
    out[HEADER_LEN..].copy_from_slice(&seq.to_le_bytes());
    out
}

/// Encodes a data datagram carrying `packets` from `client`.
///
/// # Panics
///
/// Panics if `packets` holds more than `u16::MAX` frames — split batches
/// before encoding (any sane batch is orders of magnitude smaller than a
/// datagram can carry anyway).
pub fn encode_data<P: WirePacket>(client: u16, packets: &[P]) -> Vec<u8> {
    let count = u16::try_from(packets.len()).expect("at most 65535 frames per datagram");
    let mut out = Vec::with_capacity(HEADER_LEN + packets.len() * P::FRAME_LEN);
    out.extend_from_slice(&header(P::KIND, count, client));
    for p in packets {
        p.encode_frame(&mut out);
    }
    out
}

/// Encodes a FIN from `client`.
pub fn encode_fin(client: u16) -> Vec<u8> {
    header(KIND_FIN, 0, client).to_vec()
}

/// Encodes a FIN-ACK addressed to `client`. Fixed size, so the server
/// acknowledges without allocating.
pub fn encode_fin_ack(client: u16) -> [u8; HEADER_LEN] {
    header(KIND_FIN_ACK, 0, client)
}

/// Encodes a SYNC barrier `seq` from `client`.
pub fn encode_sync(client: u16, seq: u64) -> Vec<u8> {
    sync_datagram(KIND_SYNC, client, seq).to_vec()
}

/// Encodes a SYNC-ACK for barrier `seq`, addressed to `client`. Fixed
/// size, so the server acknowledges barriers without allocating.
pub fn encode_sync_ack(client: u16, seq: u64) -> [u8; HEADER_LEN + 8] {
    sync_datagram(KIND_SYNC_ACK, client, seq)
}

/// Decodes one datagram, validating every data frame with `check` (ports in
/// range, work matching the port's configured requirement — whatever the
/// receiving switch demands at admission).
///
/// # Errors
///
/// Returns [`WireError`] only for datagrams rejected *whole* (unintelligible
/// header or control payload). A data datagram with a good header always
/// yields [`Datagram::Data`], with per-frame losses tallied exactly.
pub fn decode<P: WirePacket>(
    buf: &[u8],
    check: impl Fn(&P) -> bool,
) -> Result<Datagram<P>, WireError> {
    match parse(buf)? {
        Parsed::Control(d) => Ok(d),
        Parsed::Data {
            client,
            count,
            payload,
        } => {
            let mut packets = Vec::with_capacity(count.min(payload.len() / P::FRAME_LEN.max(1)));
            let mut d = decode_frames(client, count, payload, check, |p| packets.push(p));
            if let Datagram::Data { packets: out, .. } = &mut d {
                *out = packets;
            }
            Ok(d)
        }
    }
}

/// [`decode`] without collecting: every data frame that passes `check` is
/// handed to `sink` in wire order, and the returned [`Datagram::Data`]
/// carries the tallies with an empty `packets`. The server's receive loop
/// routes frames straight to their shard batches this way, allocating
/// nothing per datagram.
///
/// # Errors
///
/// As [`decode`].
pub fn decode_with<P: WirePacket>(
    buf: &[u8],
    check: impl Fn(&P) -> bool,
    sink: impl FnMut(P),
) -> Result<Datagram<P>, WireError> {
    match parse(buf)? {
        Parsed::Control(d) => Ok(d),
        Parsed::Data {
            client,
            count,
            payload,
        } => Ok(decode_frames(client, count, payload, check, sink)),
    }
}

/// A datagram with a well-formed header: a complete control datagram, or a
/// data datagram whose frames are still to be decoded.
enum Parsed<'a, P> {
    Control(Datagram<P>),
    Data {
        client: u16,
        count: usize,
        payload: &'a [u8],
    },
}

fn parse<P: WirePacket>(buf: &[u8]) -> Result<Parsed<'_, P>, WireError> {
    if buf.len() < HEADER_LEN {
        return Err(WireError::TooShort { len: buf.len() });
    }
    let magic = u16_at(buf, 0);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if buf[2] != VERSION {
        return Err(WireError::BadVersion(buf[2]));
    }
    let kind = buf[3];
    let count = u16_at(buf, 4) as usize;
    let client = u16_at(buf, 6);
    let payload = &buf[HEADER_LEN..];
    match kind {
        k if k == P::KIND => Ok(Parsed::Data {
            client,
            count,
            payload,
        }),
        KIND_FIN => Ok(Parsed::Control(Datagram::Fin { client })),
        KIND_FIN_ACK => Ok(Parsed::Control(Datagram::FinAck { client })),
        KIND_SYNC | KIND_SYNC_ACK => {
            if payload.len() < 8 {
                return Err(WireError::TooShort { len: buf.len() });
            }
            let seq = u64_at(payload, 0);
            Ok(Parsed::Control(if kind == KIND_SYNC {
                Datagram::Sync { client, seq }
            } else {
                Datagram::SyncAck { client, seq }
            }))
        }
        // The other model's data kind is a distinct error so a misdirected
        // client shows up in logs as "wrong model", not generic garbage.
        0 | 1 => Err(WireError::WrongModel {
            expected: P::KIND,
            got: kind,
        }),
        other => Err(WireError::BadKind(other)),
    }
}

/// Decodes the declared frames of a data datagram into `sink`, tallying the
/// ones that fail `check` or are missing from a truncated payload.
fn decode_frames<P: WirePacket>(
    client: u16,
    count: usize,
    payload: &[u8],
    check: impl Fn(&P) -> bool,
    mut sink: impl FnMut(P),
) -> Datagram<P> {
    let mut bad_frames = 0u64;
    let mut decoded = 0usize;
    for frame in payload.chunks_exact(P::FRAME_LEN).take(count) {
        decoded += 1;
        let p = P::decode_frame(frame);
        if check(&p) {
            sink(p);
        } else {
            bad_frames += 1;
        }
    }
    Datagram::Data {
        client,
        packets: Vec::new(),
        bad_frames,
        missing: (count - decoded) as u64,
        truncated: payload.len() < count * P::FRAME_LEN,
    }
}

/// One frame as a fixed-size array: a single length check (which the
/// decoder's `chunks_exact` makes redundant) in place of one per byte.
fn frame<const N: usize>(bytes: &[u8]) -> [u8; N] {
    bytes
        .try_into()
        .expect("decode_frame takes exactly FRAME_LEN bytes")
}

fn u16_at(b: &[u8], i: usize) -> u16 {
    u16::from_le_bytes([b[i], b[i + 1]])
}

fn u64_at(b: &[u8], i: usize) -> u64 {
    let mut bytes = [0u8; 8];
    bytes.copy_from_slice(&b[i..i + 8]);
    u64::from_le_bytes(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wp(port: usize, work: u32) -> WorkPacket {
        WorkPacket::new(PortId::new(port), Work::new(work))
    }

    fn vp(port: usize, value: u64) -> ValuePacket {
        ValuePacket::new(PortId::new(port), Value::new(value))
    }

    #[test]
    fn work_data_round_trips() {
        let packets = vec![wp(0, 1), wp(3, 4), wp(7, 8)];
        let buf = encode_data(9, &packets);
        assert_eq!(buf.len(), HEADER_LEN + 3 * WorkPacket::FRAME_LEN);
        match decode::<WorkPacket>(&buf, |_| true).unwrap() {
            Datagram::Data {
                client,
                packets: got,
                bad_frames,
                missing,
                truncated,
            } => {
                assert_eq!(client, 9);
                assert_eq!(got, packets);
                assert_eq!(bad_frames, 0);
                assert_eq!(missing, 0);
                assert!(!truncated);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn value_data_round_trips() {
        let packets = vec![vp(1, u64::MAX), vp(0, 0)];
        let buf = encode_data(0, &packets);
        assert_eq!(buf.len(), HEADER_LEN + 2 * ValuePacket::FRAME_LEN);
        match decode::<ValuePacket>(&buf, |_| true).unwrap() {
            Datagram::Data { packets: got, .. } => assert_eq!(got, packets),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn control_datagrams_round_trip() {
        assert_eq!(
            decode::<WorkPacket>(&encode_fin(7), |_| true).unwrap(),
            Datagram::Fin { client: 7 }
        );
        assert_eq!(
            decode::<WorkPacket>(&encode_fin_ack(7), |_| true).unwrap(),
            Datagram::FinAck { client: 7 }
        );
        assert_eq!(
            decode::<ValuePacket>(&encode_sync(2, u64::MAX), |_| true).unwrap(),
            Datagram::Sync {
                client: 2,
                seq: u64::MAX
            }
        );
        assert_eq!(
            decode::<ValuePacket>(&encode_sync_ack(2, 5), |_| true).unwrap(),
            Datagram::SyncAck { client: 2, seq: 5 }
        );
    }

    #[test]
    fn bad_frames_are_counted_not_delivered() {
        let packets = vec![wp(0, 1), wp(99, 1), wp(1, 2)];
        let buf = encode_data(0, &packets);
        match decode::<WorkPacket>(&buf, |p| p.port().index() < 8).unwrap() {
            Datagram::Data {
                packets: got,
                bad_frames,
                missing,
                ..
            } => {
                assert_eq!(got, vec![wp(0, 1), wp(1, 2)]);
                assert_eq!(bad_frames, 1);
                assert_eq!(missing, 0);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn truncation_counts_missing_frames_exactly() {
        let buf = encode_data(4, &[wp(0, 1), wp(1, 2), wp(2, 3)]);
        // Chop mid-way through the second frame: one whole frame decodes,
        // two are missing.
        let cut = &buf[..HEADER_LEN + WorkPacket::FRAME_LEN + 3];
        match decode::<WorkPacket>(cut, |_| true).unwrap() {
            Datagram::Data {
                packets,
                bad_frames,
                missing,
                truncated,
                ..
            } => {
                assert_eq!(packets, vec![wp(0, 1)]);
                assert_eq!(bad_frames, 0);
                assert_eq!(missing, 2);
                assert!(truncated);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn garbage_headers_are_rejected_whole() {
        assert_eq!(
            decode::<WorkPacket>(&[], |_| true),
            Err(WireError::TooShort { len: 0 })
        );
        assert_eq!(
            decode::<WorkPacket>(&[0xFF; 4], |_| true),
            Err(WireError::TooShort { len: 4 })
        );
        let mut buf = encode_fin(0);
        buf[0] = 0;
        assert!(matches!(
            decode::<WorkPacket>(&buf, |_| true),
            Err(WireError::BadMagic(_))
        ));
        let mut buf = encode_fin(0);
        buf[2] = 9;
        assert_eq!(
            decode::<WorkPacket>(&buf, |_| true),
            Err(WireError::BadVersion(9))
        );
        let mut buf = encode_fin(0);
        buf[3] = 200;
        assert_eq!(
            decode::<WorkPacket>(&buf, |_| true),
            Err(WireError::BadKind(200))
        );
        // A SYNC whose seq payload is chopped off.
        let buf = encode_sync(0, 1);
        assert!(matches!(
            decode::<WorkPacket>(&buf[..HEADER_LEN + 2], |_| true),
            Err(WireError::TooShort { .. })
        ));
    }

    #[test]
    fn cross_model_data_is_a_wrong_model_error() {
        let buf = encode_data(0, &[vp(0, 1)]);
        assert_eq!(
            decode::<WorkPacket>(&buf, |_| true),
            Err(WireError::WrongModel {
                expected: 0,
                got: 1
            })
        );
        let buf = encode_data(0, &[wp(0, 1)]);
        assert_eq!(
            decode::<ValuePacket>(&buf, |_| true),
            Err(WireError::WrongModel {
                expected: 1,
                got: 0
            })
        );
    }

    #[test]
    fn errors_display_usefully() {
        assert_eq!(
            WireError::TooShort { len: 3 }.to_string(),
            "datagram too short (3 bytes)"
        );
        assert_eq!(WireError::BadMagic(0xDEAD).to_string(), "bad magic 0xdead");
        assert_eq!(
            WireError::WrongModel {
                expected: 0,
                got: 1
            }
            .to_string(),
            "wrong packet model: expected kind 0, got 1"
        );
    }
}
