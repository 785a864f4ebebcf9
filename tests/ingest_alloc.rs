//! The live ingest path allocates nothing per datagram once warm.
//!
//! A counting global allocator watches the whole process while one
//! closed-loop client floods a `run_bound_server` work-model server (LWD,
//! 64 ports, `B = 256`, one shard) over loopback: windows of 16 data
//! datagrams of 256 frames, each closed by a SYNC barrier whose ACK the
//! client waits for. After a warm-up, in which the batch buffers that
//! circulate between the receive thread and the shard get allocated, the
//! measured windows must average fewer than 0.05 allocations per data
//! datagram: decode, staging, the ring hand-off, admission and the buffer
//! return path all run on reused memory. The client itself allocates
//! nothing inside the measured windows (its datagrams are encoded
//! beforehand), so every counted allocation is the server's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use smbm_net::codec::encode_data;
use smbm_net::{decode, encode_fin, encode_sync, run_bound_server, Datagram};
use smbm_net::{NetConfig, NetIngress, ServeConfig};
use smbm_switch::{PortId, WorkPacket, WorkSwitchConfig};

/// Counts every allocation and reallocation, process-wide.
struct Counting;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged to the system allocator.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const PORTS: usize = 64;
const BUFFER: usize = 256;
const FRAMES: usize = 256;
const WINDOW: usize = 16;
const WARMUP_WINDOWS: usize = 32;
const MEASURED_WINDOWS: usize = 150;

/// Sends `request` until a reply matching `want` arrives; panics after a
/// generous deadline. Allocation-free for control datagrams.
fn exchange(socket: &UdpSocket, request: &[u8], want: impl Fn(&Datagram<WorkPacket>) -> bool) {
    let deadline = Instant::now() + Duration::from_secs(30);
    let mut buf = [0u8; 64];
    loop {
        socket.send(request).expect("send control datagram");
        let sent = Instant::now();
        while sent.elapsed() < Duration::from_millis(200) {
            if let Ok(len) = socket.recv(&mut buf) {
                if decode::<WorkPacket>(&buf[..len], |_| true).is_ok_and(|d| want(&d)) {
                    return;
                }
            }
        }
        assert!(Instant::now() < deadline, "server never answered");
    }
}

/// One window: `WINDOW` data datagrams, then a SYNC and its ACK.
fn window(socket: &UdpSocket, datagrams: &[Vec<u8>], syncs: &[Vec<u8>], w: usize) {
    for d in 0..WINDOW {
        socket
            .send(&datagrams[(w * WINDOW + d) % datagrams.len()])
            .expect("send data datagram");
    }
    let seq = w as u64;
    exchange(
        socket,
        &syncs[w],
        |d| matches!(d, Datagram::SyncAck { seq: got, .. } if *got == seq),
    );
}

#[test]
fn warm_ingest_path_allocates_nothing_per_datagram() {
    let cfg = WorkSwitchConfig::contiguous(PORTS as u32, BUFFER).unwrap();
    let mut state = 0x2545_f491_4f6c_dd1du64;
    let datagrams: Vec<Vec<u8>> = (0..64)
        .map(|_| {
            let frames: Vec<WorkPacket> = (0..FRAMES)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let port = PortId::new((state % PORTS as u64) as usize);
                    WorkPacket::new(port, cfg.work(port))
                })
                .collect();
            encode_data(0, &frames)
        })
        .collect();
    let windows = WARMUP_WINDOWS + MEASURED_WINDOWS;
    let syncs: Vec<Vec<u8>> = (0..windows).map(|w| encode_sync(0, w as u64)).collect();
    let fin = encode_fin(0);

    let serve_cfg = ServeConfig {
        ports: PORTS,
        buffer: BUFFER,
        net: NetConfig {
            listen: vec![SocketAddr::from(([127, 0, 0, 1], 0))],
            expected_clients: 1,
            read_timeout: Duration::from_millis(5),
            idle_timeout: Duration::from_secs(60),
            ..NetConfig::default()
        },
        ..ServeConfig::default()
    };
    let ingress = NetIngress::bind(serve_cfg.net.clone()).expect("bind loopback");
    let target = ingress.local_addrs().expect("local addrs")[0];
    let server = thread::spawn(move || run_bound_server(&serve_cfg, ingress).expect("serve"));

    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind client");
    socket.connect(target).expect("connect client");
    socket
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("client read timeout");

    for w in 0..WARMUP_WINDOWS {
        window(&socket, &datagrams, &syncs, w);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for w in WARMUP_WINDOWS..windows {
        window(&socket, &datagrams, &syncs, w);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    exchange(&socket, &fin, |d| matches!(d, Datagram::FinAck { .. }));
    let report = server.join().expect("server thread");

    let sent = (windows * WINDOW * FRAMES) as u64;
    let c = report.counters();
    assert_eq!(
        c.arrived(),
        sent,
        "every frame reached the switch:\n{report}"
    );
    assert_eq!(c.arrived(), c.admitted() + c.dropped_at_switch());
    let measured = (MEASURED_WINDOWS * WINDOW) as f64;
    let per_datagram = allocs as f64 / measured;
    assert!(
        per_datagram < 0.05,
        "{allocs} allocations over {measured} warm data datagrams ({per_datagram:.4} each)"
    );
}
