//! The `netgen` client: drives MMPP scenario traffic at a running server
//! over UDP, from another thread, process, or machine.
//!
//! Each client gets its own socket, its own deterministic trace
//! (`seed + client`), and its own thread. Reliability over a lossy
//! transport comes from stop-and-wait SYNC barriers: after every
//! [`NetGenConfig::window`] data datagrams the client sends a SYNC and
//! blocks for the matching SYNC-ACK (resending the idempotent SYNC on
//! timeout), which keeps the unacknowledged bytes in flight below the
//! kernel's receive buffer — on loopback that means *zero* silent drops,
//! and the final handshake (SYNC, then FIN/FIN-ACK) guarantees the server
//! has fully accounted every declared frame before the client reports.
//!
//! The client can also misbehave on purpose — inject frames with
//! out-of-range ports or datagrams truncated mid-frame — so tests can
//! verify the server's `NetDecode` accounting against exact sender-side
//! tallies.

use std::fmt;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::thread;
use std::time::{Duration, Instant};

use smbm_core::PacketModel;
use smbm_runtime::Model;
use smbm_switch::{PortId, Value, ValueQueue, WorkQueue};
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

use crate::codec::{decode, encode_data, encode_fin, encode_sync, Datagram, WirePacket};

/// Everything the netgen client fleet needs to know.
#[derive(Debug, Clone)]
pub struct NetGenConfig {
    /// Packet model (the server must run the same one). The combined model
    /// has no wire format and is rejected.
    pub model: Model,
    /// Server sockets; client `i` sends everything to `targets[i % len]`.
    pub targets: Vec<SocketAddr>,
    /// Concurrent clients, each with its own socket, trace, and thread.
    pub clients: usize,
    /// Ports the receiving switches are configured with; traces stay in
    /// range and the work model derives its per-port requirements from the
    /// same contiguous configuration the server uses.
    pub ports: usize,
    /// MMPP trace length per client, in slots.
    pub slots: usize,
    /// MMPP sources per client.
    pub sources: usize,
    /// Base RNG seed; client `i` uses `seed + i`.
    pub seed: u64,
    /// Largest packet value (value model).
    pub max_value: u64,
    /// Frames per data datagram.
    pub batch: usize,
    /// Data datagrams between SYNC barriers. Keep
    /// `window * batch * frame_len` below the receiver's socket buffer or
    /// the barriers lose their no-silent-drop guarantee.
    pub window: usize,
    /// How long to wait for a SYNC-ACK/FIN-ACK before resending.
    pub ack_timeout: Duration,
    /// Resends per barrier before the client gives up on the server.
    pub ack_retries: u32,
    /// Fault injection: frames with an out-of-range port sent per client
    /// (the server must count every one as a `NetDecode` drop).
    pub bad_frames: usize,
    /// Fault injection: datagrams per client declaring two frames but
    /// carrying one (the server must count one `NetDecode` drop and one
    /// truncation each).
    pub truncated_datagrams: usize,
    /// Fault injection: whole-datagram corruption — datagrams per client
    /// that are garbage at the header level (bad magic, or chopped off
    /// mid-header), alternating between the two shapes. They declare no
    /// frames, so the server must count each as exactly one decode error
    /// and zero `NetDecode` frame drops.
    pub garbage_datagrams: usize,
}

impl Default for NetGenConfig {
    fn default() -> Self {
        NetGenConfig {
            model: Model::Work,
            targets: Vec::new(),
            clients: 1,
            ports: 64,
            slots: 2_000,
            sources: 50,
            seed: 0xB0FFE2,
            max_value: 100,
            batch: 64,
            window: 32,
            ack_timeout: Duration::from_millis(200),
            ack_retries: 25,
            bad_frames: 0,
            truncated_datagrams: 0,
            garbage_datagrams: 0,
        }
    }
}

/// A rejected [`NetGenConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NetGenError(String);

impl fmt::Display for NetGenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid netgen config: {}", self.0)
    }
}

impl std::error::Error for NetGenError {}

/// What one client did, with sender-side exact tallies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientReport {
    /// Client id (also the wire `client` field).
    pub client: u16,
    /// Server socket this client talked to.
    pub target: SocketAddr,
    /// Data datagrams put on the wire (including fault-injection ones).
    pub datagrams: u64,
    /// Well-formed frames sent: declared, present, and valid.
    pub frames: u64,
    /// Deliberately invalid frames sent (out-of-range port).
    pub bad_frames: u64,
    /// Frames declared in a header but chopped off the payload.
    pub missing_frames: u64,
    /// Header-level garbage datagrams sent (not counted in `datagrams`:
    /// they carry no valid header, so they declare nothing).
    pub garbage_datagrams: u64,
    /// SYNC datagrams sent (handshake + barriers + resends).
    pub syncs: u64,
    /// Barrier resends after an ack timeout.
    pub retries: u64,
    /// The full handshake ran: every barrier acked and the FIN
    /// acknowledged, so the server has accounted every declared frame.
    pub completed: bool,
    /// Why the client stopped early, if it did.
    pub error: Option<String>,
}

impl ClientReport {
    /// Frames this client declared across all data datagrams — the
    /// quantity the server-side reconciliation must account one by one.
    pub fn frames_declared(&self) -> u64 {
        self.frames + self.bad_frames + self.missing_frames
    }
}

/// The whole fleet's report.
#[derive(Debug, Clone)]
pub struct NetGenReport {
    /// Packet model driven.
    pub model: Model,
    /// Per-client reports, in client-id order.
    pub clients: Vec<ClientReport>,
    /// Wall time from first spawn to last join.
    pub elapsed: Duration,
}

impl NetGenReport {
    /// Well-formed frames sent, fleet-wide.
    pub fn frames_sent(&self) -> u64 {
        self.clients.iter().map(|c| c.frames).sum()
    }

    /// Deliberately invalid frames sent, fleet-wide.
    pub fn bad_frames_sent(&self) -> u64 {
        self.clients.iter().map(|c| c.bad_frames).sum()
    }

    /// Declared-but-chopped frames, fleet-wide.
    pub fn missing_frames_declared(&self) -> u64 {
        self.clients.iter().map(|c| c.missing_frames).sum()
    }

    /// Header-level garbage datagrams sent, fleet-wide.
    pub fn garbage_datagrams_sent(&self) -> u64 {
        self.clients.iter().map(|c| c.garbage_datagrams).sum()
    }

    /// Every frame declared on the wire, fleet-wide.
    pub fn frames_declared(&self) -> u64 {
        self.clients.iter().map(|c| c.frames_declared()).sum()
    }

    /// Data datagrams sent, fleet-wide.
    pub fn datagrams_sent(&self) -> u64 {
        self.clients.iter().map(|c| c.datagrams).sum()
    }

    /// Every client finished its handshake.
    pub fn all_completed(&self) -> bool {
        self.clients.iter().all(|c| c.completed)
    }

    /// Well-formed frames per second of fleet wall time.
    pub fn frames_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.frames_sent() as f64 / secs
        } else {
            0.0
        }
    }

    /// Renders the report as one JSON object.
    pub fn to_json(&self) -> String {
        let mut clients = String::new();
        for (i, c) in self.clients.iter().enumerate() {
            if i > 0 {
                clients.push(',');
            }
            clients.push_str(&format!(
                "{{\"client\":{},\"target\":\"{}\",\"datagrams\":{},\"frames\":{},\
                 \"bad_frames\":{},\"missing_frames\":{},\"garbage_datagrams\":{},\
                 \"syncs\":{},\"retries\":{},\"completed\":{}}}",
                c.client,
                c.target,
                c.datagrams,
                c.frames,
                c.bad_frames,
                c.missing_frames,
                c.garbage_datagrams,
                c.syncs,
                c.retries,
                c.completed,
            ));
        }
        format!(
            "{{\"model\":\"{}\",\"clients\":[{}],\"frames_declared\":{},\
             \"datagrams\":{},\"completed\":{},\"elapsed_ms\":{:.3},\
             \"frames_per_sec\":{:.0}}}",
            self.model,
            clients,
            self.frames_declared(),
            self.datagrams_sent(),
            self.all_completed(),
            self.elapsed.as_secs_f64() * 1e3,
            self.frames_per_sec(),
        )
    }
}

impl fmt::Display for NetGenReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "netgen {} model, {} client(s): {} frames in {} datagrams over {:.1} ms \
             ({:.0} frames/sec)",
            self.model,
            self.clients.len(),
            self.frames_sent(),
            self.datagrams_sent(),
            self.elapsed.as_secs_f64() * 1e3,
            self.frames_per_sec(),
        )?;
        for c in &self.clients {
            write!(
                f,
                "  client {} -> {}: {} frames, {} sync(s), {} retries{}",
                c.client,
                c.target,
                c.frames,
                c.syncs,
                c.retries,
                if c.completed { "" } else { " [INCOMPLETE]" },
            )?;
            match &c.error {
                Some(e) => writeln!(f, " — {e}")?,
                None => writeln!(f)?,
            }
        }
        Ok(())
    }
}

/// Runs the client fleet to completion: pregenerate every client's trace,
/// spawn the client threads, join them, and report exact sender-side
/// tallies.
///
/// A client that loses its server (acks stop coming) marks itself
/// incomplete with an error rather than failing the fleet; callers check
/// [`NetGenReport::all_completed`].
///
/// # Errors
///
/// Returns [`NetGenError`] for structurally invalid configs (no targets,
/// zero clients, the combined model...); nothing is sent in that case.
pub fn run_netgen(config: &NetGenConfig) -> Result<NetGenReport, NetGenError> {
    if config.targets.is_empty() {
        return Err(NetGenError("no targets".into()));
    }
    if config.clients == 0 || config.clients > usize::from(u16::MAX) {
        return Err(NetGenError("clients must be in 1..=65535".into()));
    }
    if config.ports == 0 {
        return Err(NetGenError("ports must be positive".into()));
    }
    if config.batch == 0 || config.batch > usize::from(u16::MAX) {
        return Err(NetGenError("batch must be in 1..=65535".into()));
    }
    if config.window == 0 {
        return Err(NetGenError("window must be positive".into()));
    }
    match config.model {
        Model::Work => netgen::<WorkQueue>(config),
        Model::Value => netgen::<ValueQueue>(config),
        Model::Combined => Err(NetGenError(
            "the combined model has no wire format; use work or value".into(),
        )),
    }
}

/// [`run_netgen`] in the packet model `Q`: every client's MMPP trace over
/// `ports` ports, a valid probe packet to port 0 and a bad frame to port
/// `ports + 7`.
fn netgen<Q: PacketModel>(config: &NetGenConfig) -> Result<NetGenReport, NetGenError>
where
    Q::Packet: WirePacket,
{
    let invalid = |e: &dyn fmt::Display| NetGenError(e.to_string());
    let switch_cfg = Q::config(config.ports, config.ports).map_err(|e| invalid(&e))?;
    let value_mix = ValueMix::Uniform {
        max: config.max_value,
    };
    let mut feeds = Vec::with_capacity(config.clients);
    for client in 0..config.clients {
        let trace = scenario_for(config, client)
            .trace::<Q>(&switch_cfg, &PortMix::Uniform, &value_mix)
            .map_err(|e| invalid(&e))?;
        feeds.push(trace.batches(config.batch).map(<[_]>::to_vec).collect());
    }
    let probe = Q::packet(&switch_cfg, PortId::new(0), Value::ONE);
    // The probe's frame readdressed to a port the server does not have; its
    // label field stays the probe's 1 (port 0's one cycle, or value 1).
    let mut frame = Vec::with_capacity(Q::Packet::FRAME_LEN);
    probe.encode_frame(&mut frame);
    frame[..4].copy_from_slice(&((config.ports + 7) as u32).to_le_bytes());
    let bad = Q::Packet::decode_frame(&frame);
    Ok(drive(config, feeds, probe, bad))
}

fn scenario_for(config: &NetGenConfig, client: usize) -> MmppScenario {
    MmppScenario {
        sources: config.sources,
        slots: config.slots,
        seed: config.seed.wrapping_add(client as u64),
        ..MmppScenario::default()
    }
}

fn drive<P: WirePacket + Send + 'static>(
    config: &NetGenConfig,
    feeds: Vec<Vec<Vec<P>>>,
    probe: P,
    bad: P,
) -> NetGenReport {
    let started = Instant::now();
    let mut joins = Vec::with_capacity(feeds.len());
    for (i, batches) in feeds.into_iter().enumerate() {
        let client = i as u16;
        let target = config.targets[i % config.targets.len()];
        let cfg = config.clone();
        joins.push(
            thread::Builder::new()
                .name(format!("smbm-netgen-{i}"))
                .spawn(move || client_loop(client, target, batches, probe, bad, &cfg))
                .expect("spawn netgen client thread"),
        );
    }
    let clients = joins
        .into_iter()
        .enumerate()
        .map(|(i, j)| {
            j.join().unwrap_or_else(|_| ClientReport {
                client: i as u16,
                target: config.targets[i % config.targets.len()],
                datagrams: 0,
                frames: 0,
                bad_frames: 0,
                missing_frames: 0,
                garbage_datagrams: 0,
                syncs: 0,
                retries: 0,
                completed: false,
                error: Some("client thread panicked".into()),
            })
        })
        .collect();
    NetGenReport {
        model: config.model,
        clients,
        elapsed: started.elapsed(),
    }
}

fn client_loop<P: WirePacket>(
    client: u16,
    target: SocketAddr,
    batches: Vec<Vec<P>>,
    probe: P,
    bad: P,
    config: &NetGenConfig,
) -> ClientReport {
    let mut report = ClientReport {
        client,
        target,
        datagrams: 0,
        frames: 0,
        bad_frames: 0,
        missing_frames: 0,
        garbage_datagrams: 0,
        syncs: 0,
        retries: 0,
        completed: false,
        error: None,
    };
    let bind_addr: SocketAddr = if target.is_ipv4() {
        "0.0.0.0:0".parse().expect("literal addr")
    } else {
        "[::]:0".parse().expect("literal addr")
    };
    let socket = match UdpSocket::bind(bind_addr).and_then(|s| {
        s.connect(target)?;
        s.set_read_timeout(Some(config.ack_timeout))?;
        Ok(s)
    }) {
        Ok(s) => s,
        Err(e) => {
            report.error = Some(format!("socket setup: {e}"));
            return report;
        }
    };

    let mut seq = 0u64;
    // Initial barrier doubles as the handshake: no data flows until the
    // server answers, so a client racing a slow server bind never loses
    // datagrams into the void.
    if let Err(e) = barrier::<P>(&socket, client, seq, config, &mut report) {
        report.error = Some(e);
        return report;
    }

    // Data flows one SYNC window at a time: encode the whole window, put
    // it on the wire one `send` per datagram, then run the barrier. Frames
    // are tallied per datagram actually sent, so a mid-window send failure
    // still leaves the declared counts exact.
    let mut window_payloads: Vec<Vec<u8>> = Vec::with_capacity(config.window);
    let mut window_frames: Vec<u64> = Vec::with_capacity(config.window);
    let mut batches_iter = batches.iter().peekable();
    while let Some(batch) = batches_iter.next() {
        window_payloads.push(encode_data(client, batch));
        window_frames.push(batch.len() as u64);
        if window_payloads.len() >= config.window || batches_iter.peek().is_none() {
            let (sent, err) = send_window(&socket, &window_payloads);
            report.datagrams += sent as u64;
            report.frames += window_frames[..sent].iter().sum::<u64>();
            if let Some(e) = err {
                report.error = Some(format!("send failed: {e}"));
                return report;
            }
            window_payloads.clear();
            window_frames.clear();
            seq += 1;
            if let Err(e) = barrier::<P>(&socket, client, seq, config, &mut report) {
                report.error = Some(e);
                return report;
            }
        }
    }

    // Fault injection, all inside the barrier discipline so even the
    // garbage is fully accounted before the final FIN.
    if config.bad_frames > 0 {
        let frames: Vec<P> = (0..config.bad_frames).map(|_| bad).collect();
        if socket.send(&encode_data(client, &frames)).is_ok() {
            report.datagrams += 1;
            report.bad_frames += frames.len() as u64;
        }
    }
    for _ in 0..config.truncated_datagrams {
        // Declare two frames, ship one: exactly one missing frame and one
        // truncation on the server's books per datagram.
        let full = encode_data(client, &[probe, probe]);
        let cut = &full[..crate::codec::HEADER_LEN + P::FRAME_LEN];
        if socket.send(cut).is_ok() {
            report.datagrams += 1;
            report.frames += 1;
            report.missing_frames += 1;
        }
    }
    for g in 0..config.garbage_datagrams {
        // Whole-datagram corruption: a full-size header whose magic is
        // wrong, alternating with one chopped off mid-header. Neither
        // declares a frame, so the server books exactly one decode error
        // and zero NetDecode drops per datagram.
        let junk = if g % 2 == 0 {
            vec![0x5A; crate::codec::HEADER_LEN]
        } else {
            vec![0x5A; crate::codec::HEADER_LEN / 2]
        };
        if socket.send(&junk).is_ok() {
            report.garbage_datagrams += 1;
        }
    }

    // Final barrier: the server has accounted every declared frame.
    seq += 1;
    if let Err(e) = barrier::<P>(&socket, client, seq, config, &mut report) {
        report.error = Some(e);
        return report;
    }

    // FIN/FIN-ACK, retried like a barrier.
    for attempt in 0..=config.ack_retries {
        if attempt > 0 {
            report.retries += 1;
        }
        if socket.send(&encode_fin(client)).is_err() {
            break;
        }
        if await_ack::<P>(
            &socket,
            |d| matches!(d, Datagram::FinAck { client: c } if *c == client),
        ) {
            report.completed = true;
            return report;
        }
    }
    report.error = Some("no FIN-ACK from server".into());
    report
}

/// Puts one window of encoded datagrams on the wire in order, one `send`
/// per datagram on the connected socket, returning how many were fully
/// sent and the error that stopped the rest (if any). The sent count is
/// datagram-exact, so the caller's declared-frame tallies stay
/// reconcilable even on a mid-window failure.
fn send_window(socket: &UdpSocket, payloads: &[Vec<u8>]) -> (usize, Option<io::Error>) {
    for (i, payload) in payloads.iter().enumerate() {
        if let Err(e) = socket.send(payload) {
            return (i, Some(e));
        }
    }
    (payloads.len(), None)
}

/// One stop-and-wait barrier: send SYNC `seq`, block for its SYNC-ACK,
/// resend on timeout. SYNCs are idempotent so resends are always safe.
fn barrier<P: WirePacket>(
    socket: &UdpSocket,
    client: u16,
    seq: u64,
    config: &NetGenConfig,
    report: &mut ClientReport,
) -> Result<(), String> {
    for attempt in 0..=config.ack_retries {
        if attempt > 0 {
            report.retries += 1;
        }
        if socket.send(&encode_sync(client, seq)).is_err() {
            return Err(format!("client {client}: SYNC send failed"));
        }
        report.syncs += 1;
        let want = |d: &Datagram<P>| matches!(d, Datagram::SyncAck { client: c, seq: s } if *c == client && *s == seq);
        if await_ack::<P>(socket, want) {
            return Ok(());
        }
    }
    Err(format!(
        "client {client}: no SYNC-ACK for seq {seq} after {} retries",
        config.ack_retries
    ))
}

/// Drains the socket until `want` matches or the read times out. Stale
/// acks (earlier barriers' resends) are skipped, garbage is ignored.
fn await_ack<P: WirePacket>(socket: &UdpSocket, want: impl Fn(&Datagram<P>) -> bool) -> bool {
    let mut buf = [0u8; 64];
    loop {
        match socket.recv(&mut buf) {
            Ok(len) => {
                if let Ok(d) = decode::<P>(&buf[..len], |_| true) {
                    if want(&d) {
                        return true;
                    }
                }
            }
            Err(_) => return false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degenerate_configs_are_rejected() {
        let base = NetGenConfig {
            targets: vec!["127.0.0.1:9".parse().unwrap()],
            ..NetGenConfig::default()
        };
        assert!(run_netgen(&NetGenConfig {
            targets: vec![],
            ..base.clone()
        })
        .is_err());
        assert!(run_netgen(&NetGenConfig {
            clients: 0,
            ..base.clone()
        })
        .is_err());
        assert!(run_netgen(&NetGenConfig {
            window: 0,
            ..base.clone()
        })
        .is_err());
        let err = run_netgen(&NetGenConfig {
            model: Model::Combined,
            ..base
        })
        .unwrap_err();
        assert!(err.to_string().contains("combined"), "{err}");
    }

    #[test]
    fn client_without_a_server_reports_incomplete_not_panic() {
        // Nothing listens on the target; the handshake must time out and
        // the fleet must still produce a structured report.
        let config = NetGenConfig {
            targets: vec!["127.0.0.1:1".parse().unwrap()],
            clients: 1,
            ports: 4,
            slots: 10,
            sources: 2,
            ack_timeout: Duration::from_millis(5),
            ack_retries: 1,
            ..NetGenConfig::default()
        };
        let report = run_netgen(&config).unwrap();
        assert!(!report.all_completed());
        assert_eq!(report.clients.len(), 1);
        assert_eq!(report.clients[0].datagrams, 0, "no data before handshake");
        assert!(report.clients[0].error.is_some());
        assert!(report.to_json().contains("\"completed\":false"));
    }

    #[test]
    fn send_window_stops_at_the_first_failed_datagram() {
        // A UDP datagram cannot exceed 65,507 payload bytes, so the middle
        // send fails with EMSGSIZE on any host and the third is never
        // attempted: the sent count names exactly the datagrams on the wire.
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        socket.connect(sink.local_addr().unwrap()).unwrap();
        let window = vec![vec![1u8; 16], vec![0u8; 70_000], vec![2u8; 16]];
        let (sent, err) = send_window(&socket, &window);
        assert_eq!(sent, 1);
        assert!(err.is_some(), "the oversized datagram must fail");
        // Only the first datagram arrived.
        sink.set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        let mut buf = [0u8; 64];
        assert_eq!(sink.recv(&mut buf).unwrap(), 16);
        assert_eq!(buf[0], 1);
        assert!(sink.recv(&mut buf).is_err(), "nothing after the failure");
    }
}
