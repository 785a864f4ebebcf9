//! Live loopback sessions: bind the real server (`run_bound_server`), drive
//! it from one generator thread over 127.0.0.1 with the SYNC-barrier wire
//! protocol, and check the server's books against the generator's tallies.
//!
//! Two load shapes share the session: a closed loop (send a window of
//! datagrams, SYNC, wait for the SYNC-ACK, repeat) and an open loop (one
//! datagram plus a SYNC on a fixed schedule, acks collected by a second
//! generator thread, each latency timed from when the datagram was due).

use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use smbm_net::{
    decode, encode_data, encode_fin, encode_sync, run_bound_server, Datagram, NetConfig,
    NetIngress, ServeConfig, ServeReport,
};
use smbm_obs::TelemetryConfig;
use smbm_runtime::Model;
use smbm_switch::{ValuePacket, WorkPacket, WorkSwitchConfig};
use smbm_traffic::{MmppParams, MmppScenario, PortMix, ValueMix};

use crate::probe::{self, SpanId, Tracer};

/// How the generator offers load.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// Send `window` datagrams, then a SYNC, and wait for its SYNC-ACK.
    Closed { window: usize },
    /// One datagram and one SYNC every `1 / per_sec` seconds, regardless of
    /// acks.
    Paced { per_sec: f64 },
}

/// One live configuration: the server's switch and the generator's load.
#[derive(Debug, Clone)]
pub struct LiveSpec {
    pub model: Model,
    pub policy: &'static str,
    pub ports: usize,
    pub buffer: usize,
    pub frames_per_datagram: usize,
    pub load: Load,
    /// Run the live telemetry plane (in-memory ring only, no file sinks).
    pub telemetry: bool,
    /// Frames pregenerated per session; the generator cycles through them.
    pub pool_frames: usize,
    /// Run the whole process, server and generator, on one CPU.
    pub one_cpu: bool,
}

/// The generated inputs of a session: encoded datagrams plus the decoded
/// packets they carry (for the layer replays).
pub struct Pool {
    pub datagrams: Vec<Vec<u8>>,
    pub frames: Vec<u64>,
    pub values: Vec<u64>,
    pub packets: Packets,
    pub gen_s: f64,
    pub encode_ns_per_frame: f64,
}

/// The packets behind a pool, by model.
pub enum Packets {
    Work(Vec<WorkPacket>, WorkSwitchConfig),
    Value(Vec<ValuePacket>),
}

const CLIENT: u16 = 0;
/// MMPP sources behind a session's traffic.
const SOURCES: usize = 100;
const ACK_TIMEOUT: Duration = Duration::from_millis(200);
const ACK_RETRIES: u32 = 25;
/// The paced generator sleeps until this close to a send, then spins.
const SPIN_WINDOW: Duration = Duration::from_micros(80);

impl LiveSpec {
    /// Generates the session's traffic from `seed` and encodes it.
    pub fn pool(&self, seed: u64, tracer: &Tracer, parent: Option<SpanId>) -> Pool {
        let params = MmppParams::default();
        let slots = (self.pool_frames as f64 / (SOURCES as f64 * params.mean_rate()) * 1.1).ceil()
            as usize
            + 16;
        let scenario = MmppScenario {
            sources: SOURCES,
            params,
            slots,
            seed,
        };
        let span = tracer.begin("traffic.mmpp_trace", parent);
        let started = Instant::now();
        let packets = match self.model {
            Model::Value => {
                let trace = scenario
                    .value_trace(
                        self.ports,
                        &PortMix::Uniform,
                        &ValueMix::Uniform { max: 100 },
                    )
                    .expect("valid value scenario");
                let mut pkts: Vec<ValuePacket> = trace.iter().flatten().copied().collect();
                pkts.truncate(self.pool_frames);
                Packets::Value(pkts)
            }
            _ => {
                let cfg = WorkSwitchConfig::contiguous(self.ports as u32, self.buffer)
                    .expect("valid work switch");
                let trace = scenario
                    .work_trace(&cfg, &PortMix::Uniform)
                    .expect("valid work scenario");
                let mut pkts: Vec<WorkPacket> = trace.iter().flatten().copied().collect();
                pkts.truncate(self.pool_frames);
                Packets::Work(pkts, cfg)
            }
        };
        let gen_s = started.elapsed().as_secs_f64();
        tracer.end(span);
        let span = tracer.begin("net.encode_data", parent);
        let started = Instant::now();
        let (datagrams, frames, values) = match &packets {
            Packets::Work(p, _) => encode_pool(p, self.frames_per_datagram, |_| 0),
            Packets::Value(p) => encode_pool(p, self.frames_per_datagram, |v| v.value().get()),
        };
        let total: u64 = frames.iter().sum();
        let encode_ns_per_frame = started.elapsed().as_nanos() as f64 / total.max(1) as f64;
        tracer.end(span);
        Pool {
            datagrams,
            frames,
            values,
            packets,
            gen_s,
            encode_ns_per_frame,
        }
    }

    fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            model: self.model,
            policy: self.policy.to_owned(),
            ports: self.ports,
            buffer: self.buffer,
            net: NetConfig {
                listen: vec![SocketAddr::from(([127, 0, 0, 1], 0))],
                expected_clients: 1,
                ..NetConfig::default()
            },
            telemetry: self.telemetry.then(|| TelemetryConfig {
                interval: Duration::from_millis(10),
                ring_capacity: 256,
                stats_out: None,
                prom_out: None,
            }),
            ..ServeConfig::default()
        }
    }
}

fn encode_pool<P: smbm_net::WirePacket>(
    pkts: &[P],
    per: usize,
    value: impl Fn(&P) -> u64,
) -> (Vec<Vec<u8>>, Vec<u64>, Vec<u64>) {
    let chunks = pkts.chunks_exact(per);
    let datagrams = chunks.clone().map(|c| encode_data(CLIENT, c)).collect();
    let frames = chunks.clone().map(|c| c.len() as u64).collect();
    let values = chunks.map(|c| c.iter().map(&value).sum()).collect();
    (datagrams, frames, values)
}

/// Everything one session measured and checked.
#[derive(Default)]
pub struct Session {
    pub setup_s: f64,
    pub gen_s: f64,
    /// First data datagram to `run_bound_server` returning.
    pub serve_s: f64,
    /// The generator's own measured interval (first send to last ack).
    pub load_s: f64,
    pub declared: u64,
    pub declared_value: u64,
    pub datagrams_sent: u64,
    pub barriers: u64,
    pub unacked: u64,
    pub retries: u64,
    pub ack_us: Vec<f64>,
    pub late_us: Vec<f64>,
    pub send_ns: u64,
    pub ack_wait_ns: u64,
    pub gen_cpu_ns: u64,
    pub proc_cpu_ns: u64,
    /// CPU utilisation of the server's receive and shard threads over the
    /// load interval (traced runs only).
    pub recv_cpu_util: f64,
    pub shard_cpu_util: f64,
    pub allocs: u64,
    pub peak_rss_mb: f64,
    pub report: Option<ServeReport>,
    pub failures: Vec<String>,
    /// Declared frames neither admitted nor dropped at the switch.
    pub failed_frames: u64,
}

impl Session {
    /// Frames the server decided (admitted or dropped for any reason).
    pub fn decided(&self) -> u64 {
        self.report.as_ref().map_or(0, |r| r.counters().arrived())
    }
}

/// Runs one session of `spec` for `seconds` of load. `under_declare`
/// makes the generator report that many frames fewer than it sent (a
/// deliberately broken generator, for the self-test).
pub fn run_session(
    spec: &LiveSpec,
    seed: u64,
    seconds: f64,
    tracer: &Tracer,
    parent: Option<SpanId>,
    under_declare: u64,
) -> (Session, Pool) {
    probe::reset_peak_rss();
    let setup_started = Instant::now();
    let pool = spec.pool(seed, tracer, parent);
    let config = spec.serve_config();
    let span = tracer.begin("net.bind", parent);
    let ingress = NetIngress::bind(config.net.clone()).expect("bind loopback ingress");
    let target = ingress.local_addrs().expect("bound address")[0];
    tracer.end(span);
    let mut session = Session {
        gen_s: pool.gen_s,
        ..Session::default()
    };
    thread::scope(|scope| {
        let server = scope.spawn(|| {
            let span = tracer.begin("runtime.run_bound_server", parent);
            let result = run_bound_server(&config, ingress);
            let returned = Instant::now();
            tracer.end(span);
            (result, returned)
        });
        let socket = UdpSocket::bind(SocketAddr::from(([127, 0, 0, 1], 0)))
            .and_then(|s| {
                s.connect(target)?;
                s.set_read_timeout(Some(ACK_TIMEOUT))?;
                Ok(s)
            })
            .expect("generator socket");
        let mut seq = 0u64;
        // The handshake barrier doubles as "server ready".
        let ready = barrier(&socket, seq, &mut session);
        session.setup_s = setup_started.elapsed().as_secs_f64();
        let mut clocks = None;
        if ready.is_some() {
            let load_id = tracer.begin("bench.load", parent);
            clocks = Some(drive(
                spec,
                &pool,
                &socket,
                seconds,
                tracer,
                load_id,
                &mut seq,
                &mut session,
            ));
            tracer.end(load_id);
            seq += 1;
            if barrier(&socket, seq, &mut session).is_some() {
                fin(&socket, &mut session);
            }
        }
        let (joined, returned) = server.join().expect("server thread panicked");
        if let Some(start) = clocks {
            session.serve_s = (returned - start.t0).as_secs_f64();
            session.proc_cpu_ns = probe::process_cpu_ns() - start.proc_cpu0;
            if tracer.enabled() {
                probe::count_allocs(false);
                session.allocs = probe::allocs() - start.allocs0;
            }
        }
        match joined {
            Ok(report) => session.report = Some(report),
            Err(e) => session.failures.push(format!("server failed: {e}")),
        }
    });
    session.peak_rss_mb = probe::peak_rss_mb();
    session.declared = session.declared.saturating_sub(under_declare);
    check(spec, &mut session);
    (session, pool)
}

/// Clock readings taken just before the first data datagram.
struct Start {
    t0: Instant,
    proc_cpu0: u64,
    allocs0: u64,
}

/// Offers the session's load.
#[allow(clippy::too_many_arguments)]
fn drive(
    spec: &LiveSpec,
    pool: &Pool,
    socket: &UdpSocket,
    seconds: f64,
    tracer: &Tracer,
    parent: Option<SpanId>,
    seq: &mut u64,
    s: &mut Session,
) -> Start {
    let traced = tracer.enabled();
    let threads0 = traced.then(probe::thread_cpu_by_role);
    let allocs0 = probe::allocs();
    if traced {
        probe::count_allocs(true);
    }
    let gen_cpu0 = probe::thread_cpu_ns();
    let proc_cpu0 = probe::process_cpu_ns();
    let t0 = Instant::now();
    let mut next = 0usize;
    let mut send = |s: &mut Session| {
        s.declared += pool.frames[next];
        s.declared_value += pool.values[next];
        s.datagrams_sent += 1;
        if socket.send(&pool.datagrams[next]).is_err() {
            s.failures.push("data send failed".into());
        }
        next = (next + 1) % pool.datagrams.len();
    };
    let mut helper_cpu = 0;
    match spec.load {
        Load::Closed { window } => {
            let deadline = t0 + Duration::from_secs_f64(seconds);
            let mut due = t0;
            loop {
                let w0 = Instant::now();
                if w0 >= deadline {
                    break;
                }
                s.late_us.push((w0 - due).as_secs_f64() * 1e6);
                let span = tracer.begin("net.send_window", parent);
                for _ in 0..window {
                    send(s);
                }
                tracer.end(span);
                let sent = Instant::now();
                s.send_ns += (sent - w0).as_nanos() as u64;
                *seq += 1;
                let span = tracer.begin("net.await_ack", parent);
                let acked = barrier(socket, *seq, s);
                tracer.end(span);
                let Some(at) = acked else { break };
                s.ack_wait_ns += (at - sent).as_nanos() as u64;
                s.ack_us.push((at - w0).as_secs_f64() * 1e6);
                due = at;
            }
            s.load_s = t0.elapsed().as_secs_f64();
        }
        Load::Paced { per_sec } => {
            let count = (seconds * per_sec).round().max(1.0) as usize;
            let period = Duration::from_secs_f64(1.0 / per_sec);
            // acks[k] holds 1 + (ns after t0) of SYNC-ACK k+1, 0 until seen.
            let acks: Arc<Vec<AtomicU64>> =
                Arc::new((0..count).map(|_| AtomicU64::new(0)).collect());
            let stop = Arc::new(AtomicBool::new(false));
            let receiver = {
                let sock = socket.try_clone().expect("clone generator socket");
                sock.set_read_timeout(Some(Duration::from_millis(5)))
                    .expect("ack receiver timeout");
                let (acks, stop) = (Arc::clone(&acks), Arc::clone(&stop));
                let base = *seq;
                thread::spawn(move || collect_acks(&sock, t0, base, &acks, &stop))
            };
            let base = *seq;
            for k in 0..count {
                let due = t0 + period * k as u32;
                wait_until(due);
                let at = Instant::now();
                s.late_us.push((at - due).as_secs_f64() * 1e6);
                let span = tracer.begin("net.send_paced", parent);
                send(s);
                *seq = base + 1 + k as u64;
                s.barriers += 1;
                if socket.send(&encode_sync(CLIENT, *seq)).is_err() {
                    s.failures.push("SYNC send failed".into());
                }
                tracer.end(span);
                s.send_ns += at.elapsed().as_nanos() as u64;
            }
            // Give the last acks a grace period, then count the misses.
            let grace = Instant::now() + Duration::from_secs(1);
            while acks.iter().any(|a| a.load(Ordering::Acquire) == 0) && Instant::now() < grace {
                thread::sleep(Duration::from_millis(1));
            }
            stop.store(true, Ordering::Release);
            helper_cpu = receiver.join().expect("ack receiver panicked");
            let mut last = t0;
            for (k, a) in acks.iter().enumerate() {
                match a.load(Ordering::Acquire) {
                    0 => s.unacked += 1,
                    ns => {
                        let at = t0 + Duration::from_nanos(ns - 1);
                        let due = t0 + period * k as u32;
                        s.ack_us.push((at - due).as_secs_f64() * 1e6);
                        last = last.max(at);
                    }
                }
            }
            s.load_s = (last - t0).as_secs_f64();
            s.ack_wait_ns = ((s.load_s * 1e9) as u64).saturating_sub(s.send_ns);
        }
    }
    s.gen_cpu_ns = probe::thread_cpu_ns() - gen_cpu0 + helper_cpu;
    if let Some(before) = threads0 {
        let after = probe::thread_cpu_by_role();
        let wall = t0.elapsed().as_secs_f64();
        let util = |role: &str| {
            let d = after.get(role).copied().unwrap_or(0) as f64
                - before.get(role).copied().unwrap_or(0) as f64;
            d / 1e9 / wall
        };
        s.recv_cpu_util = util("smbm-fanout");
        s.shard_cpu_util = util("smbm-shard");
    }
    Start {
        t0,
        proc_cpu0,
        allocs0,
    }
}

/// The paced generator's ack collector: timestamps every SYNC-ACK.
fn collect_acks(
    socket: &UdpSocket,
    t0: Instant,
    base: u64,
    acks: &[AtomicU64],
    stop: &AtomicBool,
) -> u64 {
    let cpu0 = probe::thread_cpu_ns();
    let mut buf = [0u8; 64];
    while !stop.load(Ordering::Acquire) {
        let Ok(len) = socket.recv(&mut buf) else {
            continue;
        };
        let at = Instant::now();
        if let Ok(Datagram::SyncAck { seq, .. }) = decode::<WorkPacket>(&buf[..len], |_| true) {
            let k = seq.wrapping_sub(base + 1) as usize;
            if let Some(slot) = acks.get(k) {
                let ns = (at - t0).as_nanos() as u64 + 1;
                let _ = slot.compare_exchange(0, ns, Ordering::AcqRel, Ordering::Acquire);
            }
        }
    }
    probe::thread_cpu_ns() - cpu0
}

/// Sleeps until shortly before `due`, then spins the rest, so the sender
/// neither holds a core between sends nor pays the scheduler's wake-up
/// slack on the send itself.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN_WINDOW {
            thread::sleep(left - SPIN_WINDOW);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// One stop-and-wait barrier; returns when its SYNC-ACK arrived, or `None`
/// after every retry timed out.
fn barrier(socket: &UdpSocket, seq: u64, s: &mut Session) -> Option<Instant> {
    s.barriers += 1;
    let acked = exchange(
        socket,
        &encode_sync(CLIENT, seq),
        s,
        |d| matches!(d, Datagram::SyncAck { seq: got, .. } if *got == seq),
    );
    if acked.is_none() {
        s.unacked += 1;
        s.failures.push(format!("no SYNC-ACK for barrier {seq}"));
    }
    acked
}

fn fin(socket: &UdpSocket, s: &mut Session) {
    if exchange(socket, &encode_fin(CLIENT), s, |d| {
        matches!(d, Datagram::FinAck { .. })
    })
    .is_none()
    {
        s.failures.push("no FIN-ACK".into());
    }
}

/// Sends `request` until a reply matching `want` arrives, resending on
/// every ack timeout; returns when the reply arrived. Stale replies and
/// garbage are skipped.
fn exchange(
    socket: &UdpSocket,
    request: &[u8],
    s: &mut Session,
    want: impl Fn(&Datagram<WorkPacket>) -> bool,
) -> Option<Instant> {
    let mut buf = [0u8; 64];
    for attempt in 0..=ACK_RETRIES {
        if attempt > 0 {
            s.retries += 1;
        }
        socket.send(request).ok()?;
        while let Ok(len) = socket.recv(&mut buf) {
            if decode::<WorkPacket>(&buf[..len], |_| true).is_ok_and(|d| want(&d)) {
                return Some(Instant::now());
            }
        }
    }
    None
}

/// The session's output checks: the generator's declared frames against the
/// server's books, conservation after the drain, the value identities, and
/// (with telemetry on) the last telemetry sample against `Counters`.
fn check(spec: &LiveSpec, s: &mut Session) {
    let Some(report) = &s.report else {
        s.failed_frames = s.declared;
        return;
    };
    let c = report.counters();
    let mut fail = |msg: String| s.failures.push(msg);
    if c.arrived() != s.declared {
        fail(format!(
            "declared {} frames but the server accounted {}",
            s.declared,
            c.arrived()
        ));
    }
    if let Err(e) = c.check_conservation(0) {
        fail(format!("conservation after drain: {e:?}"));
    }
    if spec.model == Model::Value {
        if c.arrived_value() != s.declared_value {
            fail(format!(
                "declared value {} but the server accounted {}",
                s.declared_value,
                c.arrived_value()
            ));
        }
        if let Err(e) = c.check_value_conservation(0) {
            fail(format!("value conservation after drain: {e:?}"));
        }
        if report.score() != c.transmitted_value() {
            fail(format!(
                "score {} differs from transmitted value {}",
                report.score(),
                c.transmitted_value()
            ));
        }
    }
    let net = report.net_counts();
    if net.decode_errors != 0 {
        fail(format!(
            "{} decode errors on clean traffic",
            net.decode_errors
        ));
    }
    if !report.runtime.obs_errors.is_empty() {
        fail(format!(
            "observability errors: {:?}",
            report.runtime.obs_errors
        ));
    }
    if spec.telemetry {
        match report.runtime.telemetry.as_ref().and_then(|t| t.last()) {
            None => fail("telemetry produced no sample".into()),
            Some(last) => {
                let t = &last.total;
                let pairs = [
                    ("arrived", t.arrived, c.arrived()),
                    ("arrived_value", t.arrived_value, c.arrived_value()),
                    ("admitted", t.admitted, c.admitted()),
                    ("pushed_out", t.pushed_out, c.pushed_out()),
                    ("transmitted", t.transmitted, c.transmitted()),
                    (
                        "transmitted_value",
                        t.transmitted_value,
                        c.transmitted_value(),
                    ),
                    ("dropped", t.dropped_total(), c.dropped()),
                ];
                for (name, tel, counted) in pairs {
                    if tel != counted {
                        fail(format!("telemetry {name} {tel} != counters {counted}"));
                    }
                }
            }
        }
    }
    let settled = c.admitted() + c.dropped_at_switch();
    s.failed_frames = s.declared.saturating_sub(settled) + settled.saturating_sub(s.declared);
}
