//! Criterion gate for the wire codec: single-thread decode throughput of
//! full data datagrams, in frames (packets) per second. The acceptance
//! floor is 5M frames/s decoded on one thread — the decode path is what a
//! socket's receive loop spends its budget on, so this bounds per-socket
//! ingest before any ring or switch work happens.
//!
//! Encode is benched alongside for the netgen client's sake, and decode is
//! measured both with the trivial check and with the real work-model
//! admission check the server installs (a bounds-checked table lookup per
//! frame), so the gate reflects what `serve --listen` actually runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use smbm_net::{decode, encode_data, Datagram};
use smbm_switch::{PortId, Value, ValuePacket, WorkPacket, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

const PORTS: usize = 64;
const BATCH: usize = 256;

fn work_datagrams(cfg: &WorkSwitchConfig) -> Vec<Vec<u8>> {
    MmppScenario {
        sources: 200,
        slots: 2_000,
        seed: 11,
        ..Default::default()
    }
    .work_trace(cfg, &PortMix::Uniform)
    .expect("valid scenario")
    .batches(BATCH)
    .map(|batch| encode_data(0, batch))
    .collect()
}

fn value_datagrams() -> Vec<Vec<u8>> {
    MmppScenario {
        sources: 200,
        slots: 2_000,
        seed: 13,
        ..Default::default()
    }
    .value_trace(PORTS, &PortMix::Uniform, &ValueMix::Uniform { max: 100 })
    .expect("valid scenario")
    .batches(BATCH)
    .map(|batch| encode_data(0, batch))
    .collect()
}

fn frames_in<P: smbm_net::WirePacket>(datagrams: &[Vec<u8>]) -> u64 {
    datagrams
        .iter()
        .map(|d| ((d.len() - smbm_net::codec::HEADER_LEN) / P::FRAME_LEN) as u64)
        .sum()
}

fn decode_all<P: smbm_net::WirePacket + std::fmt::Debug>(
    datagrams: &[Vec<u8>],
    check: impl Fn(&P) -> bool + Copy,
) -> u64 {
    let mut decoded = 0u64;
    for buf in datagrams {
        match decode::<P>(buf, check) {
            Ok(Datagram::Data { packets, .. }) => decoded += packets.len() as u64,
            other => panic!("pregenerated datagram failed to decode: {other:?}"),
        }
    }
    decoded
}

fn bench_netcodec(c: &mut Criterion) {
    let switch_cfg = WorkSwitchConfig::contiguous(PORTS as u32, PORTS).expect("valid config");
    let work = work_datagrams(&switch_cfg);
    let value = value_datagrams();
    let works: Vec<u32> = (0..PORTS)
        .map(|i| switch_cfg.work(PortId::new(i)).cycles())
        .collect();

    let mut group = c.benchmark_group("netcodec");

    let work_frames = frames_in::<WorkPacket>(&work);
    group.throughput(Throughput::Elements(work_frames));
    group.bench_function(BenchmarkId::new("decode", "work"), |b| {
        b.iter(|| decode_all::<WorkPacket>(black_box(&work), |_| true))
    });
    // The admission check `serve --listen` installs for the work model.
    group.bench_function(BenchmarkId::new("decode-checked", "work"), |b| {
        b.iter(|| {
            decode_all::<WorkPacket>(black_box(&work), |p| {
                works.get(p.port().index()).copied() == Some(p.work().cycles())
            })
        })
    });

    let value_frames = frames_in::<ValuePacket>(&value);
    group.throughput(Throughput::Elements(value_frames));
    group.bench_function(BenchmarkId::new("decode", "value"), |b| {
        b.iter(|| decode_all::<ValuePacket>(black_box(&value), |_| true))
    });

    // Encode throughput (the netgen side), one representative batch.
    let batch: Vec<ValuePacket> = (0..BATCH)
        .map(|i| ValuePacket::new(PortId::new(i % PORTS), Value::new(i as u64)))
        .collect();
    group.throughput(Throughput::Elements(BATCH as u64));
    group.bench_function(BenchmarkId::new("encode", "value"), |b| {
        b.iter(|| encode_data(0, black_box(&batch)))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));
    targets = bench_netcodec
}
criterion_main!(benches);
