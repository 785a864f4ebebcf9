//! The UDP ingress plane: bound sockets whose receive loops decode wire
//! datagrams and feed the runtime's SPSC shard rings.
//!
//! Each socket becomes one *fanout producer* on the [`RuntimeBuilder`]: a
//! dedicated thread owning one [`IngressHandle`] (one ring) per shard, so
//! ring backpressure and closed-ring losses are accounted per shard with
//! exactly the semantics of the in-process load generator. Shard panics
//! never touch these threads — supervision restarts the shard incarnation
//! while the sockets stay bound and keep serving — and when the datapath
//! shuts down (or a shard's supervisor gives up and closes its rings) the
//! receive loops observe `PushError::Closed` promptly and account every
//! late packet instead of wedging.
//!
//! ## Flow control and exactness
//!
//! UDP gives no delivery guarantee, and even loopback silently drops
//! datagrams once the receive buffer overflows. The protocol therefore has
//! clients issue SYNC barriers every few datagrams (see
//! [`crate::codec`]); a barrier is acknowledged only after the receive loop
//! has pushed everything it decoded into the rings (or counted it as
//! backpressure/lost), which both bounds the unacknowledged in-flight bytes
//! below the kernel's receive buffer and makes the final tallies exact:
//! every frame a client declared is, by the time its final barrier is
//! acknowledged, admitted, dropped (with a reason), or orphaned.
//!
//! ## The batched hot path
//!
//! The receive loop makes one `recv_from` per datagram into a receive
//! buffer allocated once per socket, and once warm it allocates nothing:
//!
//! * frames are decoded straight into their shard's pending batch
//!   ([`decode_with`](crate::codec::decode_with)), with no per-datagram
//!   packet vector, and barriers are acknowledged from fixed-size arrays;
//! * full per-shard batches are staged into *ready* queues and published
//!   with one bulk ring operation per shard per received datagram
//!   ([`IngressHandle::send_bulk`] / [`IngressHandle::try_send_bulk`]) —
//!   the lock-free ring publishes every batch the datagram produced with a
//!   single release store and at most one consumer wake, and the ready
//!   queues are reused across publishes;
//! * batch buffers come from a small recycling pool, so a staged batch
//!   swaps in a pre-sized buffer instead of allocating one: lossy rejects
//!   and the emptied buffers each shard hands back over its return ring
//!   ([`IngressHandle::spare_buffer`]) refill the pool after every
//!   publish. A lossless loop keeps no more buffers in circulation than a
//!   return ring holds, so none is ever dropped, and when a lagging shard
//!   holds them all it waits for one to come back
//!   ([`IngressHandle::wait_spare_buffer`]) instead of allocating.

use std::collections::HashSet;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

use smbm_core::DatapathSystem;
use smbm_obs::NetCounts;
use smbm_runtime::{IngressHandle, RuntimeBuilder, ShardId};

use crate::codec::{decode_with, encode_fin_ack, encode_sync_ack, Datagram, WirePacket};

/// How a socket's receive loop sprays decoded packets across the shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fanout {
    /// Shard `port % shards`: every port has a home shard, so per-port
    /// switch state is never split across shards.
    ByPort,
    /// Shard `hash(port) % shards`: a multiplicative hash decorrelates the
    /// shard assignment from low port bits (striped port configurations).
    Hash,
}

impl Fanout {
    /// Stable lowercase label.
    pub fn label(&self) -> &'static str {
        match self {
            Fanout::ByPort => "port",
            Fanout::Hash => "hash",
        }
    }

    /// Parses a lowercase label.
    pub fn parse(s: &str) -> Option<Fanout> {
        match s {
            "port" => Some(Fanout::ByPort),
            "hash" => Some(Fanout::Hash),
            _ => None,
        }
    }

    /// The shard (out of `shards`) that `port` routes to.
    pub fn route(&self, port: usize, shards: usize) -> usize {
        match self {
            Fanout::ByPort => port % shards,
            Fanout::Hash => {
                ((port as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % shards
            }
        }
    }
}

/// Configuration of the network ingress plane.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Addresses to bind, one receive thread each. Port `0` binds an
    /// ephemeral port (read it back via [`NetIngress::local_addrs`]).
    pub listen: Vec<SocketAddr>,
    /// Packet-to-shard routing.
    pub fanout: Fanout,
    /// Total clients expected across all sockets. Clients pick their socket
    /// round-robin by client id (`id % sockets`, the `netgen` convention),
    /// and each receive loop exits once every client assigned to it has
    /// FINed.
    pub expected_clients: usize,
    /// Receive poll timeout; bounds how quickly a loop notices idleness.
    pub read_timeout: Duration,
    /// A receive loop that hears nothing for this long gives up — a crashed
    /// client must not wedge the server forever.
    pub idle_timeout: Duration,
    /// Push decoded batches with non-blocking sends: a full ring rejects
    /// the batch as backpressure instead of stalling the receive loop.
    pub lossy: bool,
    /// Decoded packets buffered per shard before being pushed as one ring
    /// batch.
    pub batch: usize,
    /// Receive buffer size; datagrams longer than this are truncated by
    /// the kernel and surface as truncation tallies.
    pub max_datagram: usize,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            listen: Vec::new(),
            fanout: Fanout::ByPort,
            expected_clients: 1,
            read_timeout: Duration::from_millis(20),
            idle_timeout: Duration::from_secs(10),
            lossy: false,
            batch: 256,
            max_datagram: 64 * 1024,
        }
    }
}

/// Bound-but-not-yet-serving ingress sockets.
///
/// Binding is split from serving so callers can bind ephemeral ports,
/// read the real addresses back, hand them to clients, and only then run
/// the datapath ([`NetIngress::attach`] + [`RuntimeBuilder::run`]).
#[derive(Debug)]
pub struct NetIngress {
    sockets: Vec<UdpSocket>,
    config: NetConfig,
}

impl NetIngress {
    /// Binds every address in `config.listen`.
    ///
    /// # Errors
    ///
    /// Fails if the listen list is empty, `expected_clients` or `batch` is
    /// zero, or any bind fails — nothing is served half-bound.
    pub fn bind(config: NetConfig) -> io::Result<NetIngress> {
        if config.listen.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "no listen addresses",
            ));
        }
        if config.expected_clients == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "expected_clients must be positive",
            ));
        }
        if config.batch == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "batch must be positive",
            ));
        }
        let sockets = config
            .listen
            .iter()
            .map(UdpSocket::bind)
            .collect::<io::Result<Vec<_>>>()?;
        Ok(NetIngress { sockets, config })
    }

    /// The actually-bound addresses, in listen order (resolves port `0`).
    pub fn local_addrs(&self) -> io::Result<Vec<SocketAddr>> {
        self.sockets.iter().map(|s| s.local_addr()).collect()
    }

    /// Registers one fanout producer per socket on `builder`, each feeding
    /// all of `shards`. `check` is the per-frame validation the receiving
    /// switch demands at admission (known port, matching work); frames
    /// failing it are counted as `NetDecode` drops, never offered.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty or contains an id foreign to `builder`
    /// (the latter via [`RuntimeBuilder::add_producer_fanout`]).
    pub fn attach<S>(
        self,
        builder: &mut RuntimeBuilder<S>,
        shards: &[ShardId],
        check: impl Fn(&S::Packet) -> bool + Clone + Send + 'static,
    ) where
        S: DatapathSystem + 'static,
        S::Packet: WirePacket,
    {
        assert!(!shards.is_empty(), "net ingress needs at least one shard");
        let sockets = self.sockets.len();
        for (k, socket) in self.sockets.into_iter().enumerate() {
            // Clients pick their socket as `id % sockets`, so socket `k`
            // waits for exactly the clients that map onto it.
            let quota = (0..self.config.expected_clients)
                .filter(|id| id % sockets == k)
                .count();
            let config = self.config.clone();
            let check = check.clone();
            builder.add_producer_fanout(shards, move |handles| {
                serve_socket(&socket, handles, &config, quota, check);
            });
        }
    }
}

/// Errors a UDP `recv_from` can surface without invalidating the socket.
///
/// On Linux, a previous `send_to` whose peer answered with an ICMP
/// port-unreachable is reported on the *next* receive as
/// `ConnectionRefused`/`ConnectionReset` — e.g. an ack sent to a client
/// that already exited. The socket itself is fine; the other clients are
/// still sending. Unreachable-network flavours and plain `Interrupted`
/// (EINTR) are equally recoverable. A loop that `break`s on these kills
/// ingress for every remaining client, so the receive loop counts them and
/// keeps serving; only unclassified errors (bad fd, ENOMEM, ...) are fatal.
fn transient_recv_error(kind: io::ErrorKind) -> bool {
    matches!(
        kind,
        io::ErrorKind::ConnectionRefused
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::HostUnreachable
            | io::ErrorKind::NetworkUnreachable
            | io::ErrorKind::Interrupted
    )
}

/// How long a receive loop whose batch buffers are all in circulation waits
/// for a shard to hand one back before it allocates another. A buffer only
/// fails to come back when a crashed shard incarnation took it down.
const SPARE_WAIT: Duration = Duration::from_millis(100);

/// The staging area between the decoder and the rings: per-shard queues of
/// *full* batches awaiting one bulk publish, plus the recycling buffer
/// pool that batch buffers are drawn from and returned to.
///
/// Batch buffers circulate: pool, pending batch, ring, shard, return ring,
/// pool. A lossless publisher keeps at most `budget` of them in
/// circulation, the return rings' capacity, so no shard ever drops one for
/// want of room; once all are out it waits for one to come back instead of
/// allocating. A lossy publisher must not wait, so it allocates.
struct Publisher<P> {
    ready: Vec<Vec<Vec<P>>>,
    pool: Vec<Vec<P>>,
    cap: usize,
    lossy: bool,
    /// Per shard, the buffers sent to it and not yet handed back.
    outstanding: Vec<usize>,
    /// Buffers allocated so far, the shards' pending batches included.
    allocated: usize,
    /// How many buffers to allocate before waiting for one instead
    /// (`usize::MAX`: never wait).
    budget: usize,
}

impl<P: Copy> Publisher<P> {
    /// A publisher for `shards` shards whose pending batches, one per shard
    /// and allocated by the caller, hold `cap` packets.
    fn new(shards: usize, cap: usize, lossy: bool, budget: usize) -> Publisher<P> {
        Publisher {
            ready: (0..shards).map(|_| Vec::new()).collect(),
            pool: Vec::new(),
            cap,
            lossy,
            outstanding: vec![0; shards],
            allocated: shards,
            budget: if lossy { usize::MAX } else { budget },
        }
    }

    /// A batch buffer with at least `cap` capacity: recycled if the pool
    /// has one or a shard hands one back in time, freshly sized otherwise.
    fn take_buf(&mut self, handles: &mut [IngressHandle<P>]) -> Vec<P> {
        if self.pool.is_empty() && self.allocated >= self.budget {
            self.await_spare(handles);
        }
        self.pool.pop().unwrap_or_else(|| {
            self.allocated += 1;
            Vec::with_capacity(self.cap)
        })
    }

    /// Publishes the staged batches, then waits for the shard holding the
    /// most buffers to hand one back. A wait that times out writes that
    /// shard's buffers off, so a lost buffer costs one wait, not one per
    /// later batch.
    fn await_spare(&mut self, handles: &mut [IngressHandle<P>]) {
        self.publish(handles);
        while self.pool.is_empty() {
            let Some(shard) = (0..self.outstanding.len())
                .filter(|&s| self.outstanding[s] > 0)
                .max_by_key(|&s| self.outstanding[s])
            else {
                return;
            };
            match handles[shard].wait_spare_buffer(SPARE_WAIT) {
                Some(buf) => {
                    self.outstanding[shard] -= 1;
                    self.pool.push(buf);
                }
                None => self.outstanding[shard] = 0,
            }
        }
    }

    /// Stages every shard's pending batch — the barrier and exit flushes.
    fn stage_all(&mut self, pending: &mut [Vec<P>], handles: &mut [IngressHandle<P>]) {
        for (shard, batch) in pending.iter_mut().enumerate() {
            self.stage(shard, batch, handles);
        }
    }

    /// Moves `pending` into shard `shard`'s ready queue, swapping in a
    /// pooled buffer so the caller keeps filling at full capacity — the
    /// hot path never reallocates a batch buffer from zero.
    fn stage(&mut self, shard: usize, pending: &mut Vec<P>, handles: &mut [IngressHandle<P>]) {
        if pending.is_empty() {
            return;
        }
        let mut staged = self.take_buf(handles);
        std::mem::swap(pending, &mut staged);
        debug_assert!(
            pending.capacity() >= self.cap,
            "staging must hand back a full-capacity buffer, not a fresh Vec"
        );
        self.ready[shard].push(staged);
    }

    /// Publishes every staged batch, one bulk ring operation per shard,
    /// then refills the pool: first with lossy rejects, then with the
    /// emptied buffers each shard has handed back. The ready queues keep
    /// their capacity, so a publish allocates nothing.
    fn publish(&mut self, handles: &mut [IngressHandle<P>]) {
        let shards = self.ready.iter_mut().zip(&mut self.outstanding);
        for ((ready, held), handle) in shards.zip(handles.iter_mut()) {
            let staged = ready.len();
            if self.lossy {
                // Rejected batches come back emptied in `ready`.
                handle.try_send_bulk(ready);
                *held += staged - ready.len();
            } else if handle.send_bulk(ready) {
                *held += staged;
            } else {
                // The ring closed (shutdown or supervisor give-up); the
                // handle counted the remainder as lost. Keep serving: later
                // sends are counted the same way and clients still get
                // their acks. The shard's buffers will not come back, so
                // stop waiting for any.
                self.budget = usize::MAX;
            }
            self.pool.append(ready);
            while let Some(buf) = handle.spare_buffer() {
                *held = held.saturating_sub(1);
                self.pool.push(buf);
            }
        }
    }
}

/// One socket's receive loop. Accounting invariant on exit: every frame
/// ever declared to this socket in a well-formed data datagram has been
/// pushed into a ring, tallied as backpressure/lost by its handle, or
/// counted as a `NetDecode` drop.
fn serve_socket<P: WirePacket>(
    socket: &UdpSocket,
    handles: &mut [IngressHandle<P>],
    config: &NetConfig,
    expected_fins: usize,
    check: impl Fn(&P) -> bool,
) {
    let shards = handles.len();
    let mut pending: Vec<Vec<P>> = (0..shards)
        .map(|_| Vec::with_capacity(config.batch))
        .collect();
    // Every return ring can hold all the buffers in circulation.
    let budget = handles
        .iter()
        .map(IngressHandle::spare_capacity)
        .min()
        .expect("net ingress feeds at least one shard");
    let mut publisher = Publisher::new(shards, config.batch, config.lossy, budget);
    // Socket-level tallies accumulate locally and flush through the first
    // handle (the socket's home shard) so hot-path datagrams cost no
    // atomics; `drops` are the NetDecode frames (bad + missing).
    let mut acc = NetCounts::default();
    let mut drops = 0u64;
    let mut fins: HashSet<u16> = HashSet::new();
    let mut recv_errors = 0u64;
    let mut last_heard = Instant::now();
    let mut buf = vec![0u8; config.max_datagram.max(64)];
    // A socket that cannot poll cannot serve, but the failure must not
    // vanish: surface it on the report and still run the exit flush so the
    // accounting invariant holds trivially (nothing pending, zero tallies).
    if let Err(e) = socket.set_read_timeout(Some(config.read_timeout)) {
        handles[0].record_error(format!(
            "net: set_read_timeout failed on {:?}: {e}",
            socket.local_addr()
        ));
        publisher.stage_all(&mut pending, handles);
        publisher.publish(handles);
        flush_net(handles, &mut acc, &mut drops);
        return;
    }

    loop {
        let (len, from) = match socket.recv_from(&mut buf) {
            Ok(received) => received,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if last_heard.elapsed() >= config.idle_timeout {
                    break;
                }
                continue;
            }
            Err(e) if transient_recv_error(e.kind()) => {
                // An ICMP echo of an earlier ack (peer gone), EINTR, and
                // friends: the socket is fine, other clients are still
                // sending. Count it, keep the idle clock honest, serve on.
                recv_errors += 1;
                if last_heard.elapsed() >= config.idle_timeout {
                    break;
                }
                continue;
            }
            Err(e) => {
                handles[0].record_error(format!(
                    "net: fatal receive error on {:?}: {e}",
                    socket.local_addr()
                ));
                break;
            }
        };
        last_heard = Instant::now();
        acc.datagrams += 1;
        // Frames go straight from the wire into their shard's pending
        // batch; a batch that fills is staged on the spot.
        let mut frames = 0u64;
        let decoded = decode_with::<P>(&buf[..len], &check, |p| {
            frames += 1;
            let shard = config.fanout.route(p.port_index(), shards);
            pending[shard].push(p);
            if pending[shard].len() >= config.batch {
                publisher.stage(shard, &mut pending[shard], handles);
            }
        });
        match decoded {
            Ok(Datagram::Data {
                bad_frames,
                missing,
                truncated,
                ..
            }) => {
                acc.frames += frames;
                acc.decode_errors += bad_frames + missing;
                acc.truncations += u64::from(truncated);
                drops += bad_frames + missing;
            }
            Ok(Datagram::Sync { client, seq }) => {
                // Barrier: everything received before this SYNC must be
                // fully accounted before the ACK goes out.
                publisher.stage_all(&mut pending, handles);
                publisher.publish(handles);
                flush_net(handles, &mut acc, &mut drops);
                let _ = socket.send_to(&encode_sync_ack(client, seq), from);
            }
            Ok(Datagram::Fin { client }) => {
                publisher.stage_all(&mut pending, handles);
                publisher.publish(handles);
                flush_net(handles, &mut acc, &mut drops);
                let _ = socket.send_to(&encode_fin_ack(client), from);
                fins.insert(client);
                if fins.len() >= expected_fins {
                    // Every client on this socket has FINed after its
                    // final acknowledged barrier.
                    break;
                }
            }
            // Acks are server-to-client; one arriving here is a confused
            // peer, counted like any other undecodable datagram.
            Ok(Datagram::FinAck { .. }) | Ok(Datagram::SyncAck { .. }) | Err(_) => {
                acc.decode_errors += 1;
            }
        }
        // One bulk publish per shard covers every batch the datagram filled.
        publisher.publish(handles);
        // Keep live telemetry fresh even between barriers.
        if acc.datagrams >= 64 {
            flush_net(handles, &mut acc, &mut drops);
        }
    }
    publisher.stage_all(&mut pending, handles);
    publisher.publish(handles);
    flush_net(handles, &mut acc, &mut drops);
    if recv_errors > 0 {
        handles[0].record_error(format!(
            "net: {recv_errors} transient receive error(s) tolerated on {:?}",
            socket.local_addr()
        ));
    }
}

fn flush_net<P: Copy>(handles: &[IngressHandle<P>], acc: &mut NetCounts, drops: &mut u64) {
    if *acc != NetCounts::default() || *drops != 0 {
        handles[0].record_net(*acc, *drops);
        *acc = NetCounts::default();
        *drops = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fanout_labels_round_trip() {
        for f in [Fanout::ByPort, Fanout::Hash] {
            assert_eq!(Fanout::parse(f.label()), Some(f));
        }
        assert_eq!(Fanout::parse("bogus"), None);
    }

    #[test]
    fn by_port_routing_is_modular_and_hash_covers_all_shards() {
        assert_eq!(Fanout::ByPort.route(5, 4), 1);
        assert_eq!(Fanout::ByPort.route(4, 4), 0);
        let hit: HashSet<usize> = (0..64).map(|p| Fanout::Hash.route(p, 4)).collect();
        assert_eq!(hit.len(), 4, "hash fanout reaches every shard");
        for p in 0..64 {
            assert!(Fanout::Hash.route(p, 4) < 4);
        }
    }

    #[test]
    fn bind_rejects_degenerate_configs() {
        let err = NetIngress::bind(NetConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        let cfg = NetConfig {
            listen: vec!["127.0.0.1:0".parse().unwrap()],
            expected_clients: 0,
            ..NetConfig::default()
        };
        assert!(NetIngress::bind(cfg).is_err());
    }

    #[test]
    fn bind_resolves_ephemeral_ports() {
        let cfg = NetConfig {
            listen: vec![
                "127.0.0.1:0".parse().unwrap(),
                "127.0.0.1:0".parse().unwrap(),
            ],
            ..NetConfig::default()
        };
        let ingress = NetIngress::bind(cfg).unwrap();
        let addrs = ingress.local_addrs().unwrap();
        assert_eq!(addrs.len(), 2);
        assert!(addrs.iter().all(|a| a.port() != 0));
        assert_ne!(addrs[0].port(), addrs[1].port());
    }

    #[test]
    fn icmp_echo_errors_are_transient_but_bad_fd_is_fatal() {
        for kind in [
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::HostUnreachable,
            io::ErrorKind::NetworkUnreachable,
            io::ErrorKind::Interrupted,
        ] {
            assert!(transient_recv_error(kind), "{kind:?} must not kill ingress");
        }
        for kind in [
            io::ErrorKind::InvalidInput,
            io::ErrorKind::OutOfMemory,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::NotConnected,
            io::ErrorKind::WouldBlock, // handled by the idle path, not here
        ] {
            assert!(!transient_recv_error(kind), "{kind:?} must stay fatal");
        }
    }

    // The mem::take regression: staging a full batch must hand the hot
    // path a buffer that still has full capacity (a taken Vec has zero
    // and reallocates its way back up on every single flush).
    #[test]
    fn staging_retains_batch_capacity_and_recycles_buffers() {
        let cap = 32;
        let mut publisher: Publisher<u32> = Publisher::new(2, cap, false, usize::MAX);
        let mut pending: Vec<u32> = Vec::with_capacity(cap);
        for round in 0..4 {
            pending.extend(0..cap as u32);
            publisher.stage(0, &mut pending, &mut []);
            assert!(pending.is_empty());
            assert!(
                pending.capacity() >= cap,
                "round {round}: capacity fell to {}",
                pending.capacity()
            );
        }
        assert_eq!(publisher.ready[0].len(), 4);
        assert!(publisher.ready[1].is_empty());
        assert_eq!(
            publisher.allocated,
            2 + 4,
            "two pending buffers, four fresh"
        );
        // Rejected buffers come home and are reused before any allocation.
        publisher.pool.push(Vec::with_capacity(cap * 2));
        let reused = publisher.take_buf(&mut []);
        assert!(reused.capacity() >= cap * 2, "pool must hand back reuses");
        assert_eq!(publisher.allocated, 6);
        // Staging nothing is a no-op — no empty batches reach the rings.
        publisher.stage(1, &mut pending, &mut []);
        assert!(publisher.ready[1].is_empty());
    }

    #[test]
    fn a_spent_budget_with_nothing_outstanding_allocates_without_waiting() {
        let mut publisher: Publisher<u32> = Publisher::new(1, 8, false, 1);
        let started = Instant::now();
        assert_eq!(publisher.take_buf(&mut []).capacity(), 8);
        assert!(started.elapsed() < SPARE_WAIT);
        assert_eq!(publisher.allocated, 2);
        // A lossy publisher never waits, whatever its budget.
        assert_eq!(Publisher::<u32>::new(1, 8, true, 1).budget, usize::MAX);
    }
}
