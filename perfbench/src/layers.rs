//! Layer replays for the traced run: a session's captured inputs pushed
//! through one crate's public entry point at a time, so each layer's cost
//! per packet is measured without the others around it.

use std::hint::black_box;
use std::thread;
use std::time::Instant;

use smbm_core::{value_policy_by_name, work_policy_by_name, ValueRunner, WorkRunner};
use smbm_datapath::{
    DatapathSystem, NoHook, SlotMachine, ValueAdapter, WorkAdapter, MAX_BURST_BATCHES,
};
use smbm_net::{decode, Datagram, NetConfig, ServeConfig, WirePacket};
use smbm_obs::{NullObserver, Observer, StatCell, TelemetryObserver};
use smbm_runtime::{ring, TryPop};
use smbm_switch::{ValueSwitchConfig, WorkSwitchConfig};

use crate::live::{LiveSpec, Packets, Pool};
use crate::probe::{SpanId, Tracer};

/// Each replay repeats its input until it has handled this much work, so a
/// replay's duration, and the self time its span reports, moves with the
/// layer's cost.
const DECODE_FRAMES: u64 = 1 << 25;
const RING_BATCHES: u64 = 1 << 17;
const STEP_PACKETS: u64 = 1 << 22;

/// Per-layer costs measured by replay.
pub struct Replays {
    pub decode_ns_per_frame: f64,
    pub ring_ns_per_batch: f64,
    pub step_ns_per_pkt: f64,
    pub slot_ns: f64,
    pub fold_ns_per_pkt: f64,
}

/// Replays `pool` through the codec, a cross-thread ring pair and the slot
/// machine configured as `spec`'s server is.
pub fn replay(spec: &LiveSpec, pool: &Pool, tracer: &Tracer, parent: Option<SpanId>) -> Replays {
    // The per-frame checks are the ones `run_bound_server` installs: a known
    // port, and for work frames the port's configured work.
    match &pool.packets {
        Packets::Work(pkts, cfg) => {
            let works: Vec<u32> = (0..cfg.ports())
                .map(|i| cfg.work(smbm_switch::PortId::new(i)).cycles())
                .collect();
            let check = move |p: &smbm_switch::WorkPacket| {
                works.get(p.port().index()).copied() == Some(p.work().cycles())
            };
            let machine = || work_machine(cfg, spec.policy);
            run_replays(spec, pool, pkts, check, machine, tracer, parent)
        }
        Packets::Value(pkts) => {
            let ports = spec.ports;
            let check = move |p: &smbm_switch::ValuePacket| p.port().index() < ports;
            let cfg = ValueSwitchConfig::new(spec.buffer, spec.ports).expect("valid value switch");
            let machine = || value_machine(cfg, spec.policy);
            run_replays(spec, pool, pkts, check, machine, tracer, parent)
        }
    }
}

type WorkMachine = SlotMachine<WorkAdapter<WorkRunner<Box<dyn smbm_core::WorkPolicy>>>>;
type ValueMachine = SlotMachine<ValueAdapter<ValueRunner<Box<dyn smbm_core::ValuePolicy>>>>;

fn work_machine(cfg: &WorkSwitchConfig, policy: &str) -> WorkMachine {
    let policy = work_policy_by_name(policy).expect("registered work policy");
    SlotMachine::new(
        WorkAdapter::new(WorkRunner::new(cfg.clone(), policy, 1)),
        None,
    )
}

fn value_machine(cfg: ValueSwitchConfig, policy: &str) -> ValueMachine {
    let policy = value_policy_by_name(policy).expect("registered value policy");
    SlotMachine::new(ValueAdapter::new(ValueRunner::new(cfg, policy, 1)), None)
}

fn run_replays<P, S>(
    spec: &LiveSpec,
    pool: &Pool,
    pkts: &[P],
    check: impl Fn(&P) -> bool,
    machine: impl Fn() -> SlotMachine<S>,
    tracer: &Tracer,
    parent: Option<SpanId>,
) -> Replays
where
    P: WirePacket + Send + Sync + 'static,
    S: DatapathSystem<Packet = P>,
{
    let span = tracer.begin("net.decode_replay", parent);
    let decode_ns_per_frame = decode_replay(&pool.datagrams, check);
    tracer.end(span);
    let span = tracer.begin("spsc.ring_replay", parent);
    let ring_ns_per_batch = ring_replay(pkts, NetConfig::default().batch);
    tracer.end(span);
    let span = tracer.begin("datapath.slot_machine_replay", parent);
    let (step_ns_per_pkt, slot_ns) =
        machine_replay(&machine, pkts, spec.frames_per_datagram, &mut NullObserver);
    tracer.end(span);
    let span = tracer.begin("obs.telemetry_fold_replay", parent);
    let mut observer = TelemetryObserver::new(std::sync::Arc::new(StatCell::new()));
    let (observed_ns_per_pkt, _) =
        machine_replay(&machine, pkts, spec.frames_per_datagram, &mut observer);
    tracer.end(span);
    Replays {
        decode_ns_per_frame,
        ring_ns_per_batch,
        step_ns_per_pkt,
        slot_ns,
        fold_ns_per_pkt: observed_ns_per_pkt - step_ns_per_pkt,
    }
}

/// Decodes every captured datagram with the server's per-frame check.
fn decode_replay<P: WirePacket>(datagrams: &[Vec<u8>], check: impl Fn(&P) -> bool) -> f64 {
    let started = Instant::now();
    let mut frames = 0u64;
    while frames < DECODE_FRAMES {
        for d in datagrams {
            if let Ok(Datagram::Data { packets, .. }) = decode::<P>(black_box(d), &check) {
                frames += packets.len() as u64;
                black_box(packets);
            }
        }
    }
    started.elapsed().as_nanos() as f64 / frames as f64
}

/// Moves `batch`-packet batches from a producer thread to this thread over
/// one ring, returning emptied buffers over a second: the receive loop's
/// hand-off to a shard, with its buffer recycling.
fn ring_replay<P: Copy + Send + Sync + 'static>(pkts: &[P], batch: usize) -> f64 {
    let batches: Vec<Vec<P>> = pkts.chunks(batch).map(<[P]>::to_vec).collect();
    let started = Instant::now();
    let mut moved = 0u64;
    while moved < RING_BATCHES {
        // The server's ring depth and per-cycle bulk claim.
        let depth = ServeConfig::default().ring_capacity;
        let (tx, rx) = ring::<Vec<P>>(depth);
        let (back_tx, back_rx) = ring::<Vec<P>>(depth * 2);
        let batches = &batches;
        thread::scope(|scope| {
            scope.spawn(move || {
                for b in batches {
                    let mut buf = match back_rx.try_pop() {
                        TryPop::Item(buf) => buf,
                        _ => Vec::with_capacity(batch),
                    };
                    buf.extend_from_slice(b);
                    if tx.push(buf).is_err() {
                        return;
                    }
                }
                tx.close();
            });
            let mut claimed = Vec::with_capacity(MAX_BURST_BATCHES);
            loop {
                let r = rx.pop_bulk(&mut claimed, MAX_BURST_BATCHES);
                if r.popped == 0 {
                    if r.closed {
                        break;
                    }
                    rx.wait_nonempty(None);
                    continue;
                }
                for mut buf in claimed.drain(..) {
                    black_box(&buf);
                    moved += 1;
                    buf.clear();
                    let _ = back_tx.try_push(buf);
                }
            }
        });
    }
    started.elapsed().as_nanos() as f64 / moved as f64
}

/// Steps a fresh slot machine through `pkts` in `burst`-packet slots, then
/// times the transmission-only slots that drain it. Returns ns per offered
/// packet and ns per drain slot.
fn machine_replay<P: Copy, S: DatapathSystem<Packet = P>, O: Observer>(
    machine: &impl Fn() -> SlotMachine<S>,
    pkts: &[P],
    burst: usize,
    obs: &mut O,
) -> (f64, f64) {
    let mut step_ns = 0u128;
    let mut stepped = 0u64;
    let mut slot_ns = 0u128;
    let mut slots = 0u64;
    while stepped < STEP_PACKETS {
        let mut m = machine();
        let t = Instant::now();
        for b in pkts.chunks(burst.max(1)) {
            m.step(b, obs, &mut NoHook)
                .expect("registered policy decides consistently");
        }
        step_ns += t.elapsed().as_nanos();
        stepped += pkts.len() as u64;
        let t = Instant::now();
        let mut n = 0u64;
        while m.occupancy() > 0 {
            m.idle_slot(obs, &mut NoHook);
            n += 1;
        }
        if n > 0 {
            slot_ns += t.elapsed().as_nanos();
            slots += n;
        }
        black_box(m.score());
    }
    (
        step_ns as f64 / stepped as f64,
        slot_ns as f64 / slots.max(1) as f64,
    )
}
