//! Criterion benchmarks of the live datapath: end-to-end packets/sec
//! through ingress rings, admission control, and transmission, at the
//! Fig. 5-representative n = 64 scale, sharded 1/2/4 ways.
//!
//! Feeds are pregenerated outside the measured closure, so iterations time
//! only datapath work (thread spawn, ring transfer, admission,
//! transmission, drain) — never MMPP synthesis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use smbm_core::{Lwd, WorkRunner};
use smbm_runtime::{RuntimeBuilder, RuntimeConfig, ShardConfig, VirtualClock};
use smbm_switch::{WorkPacket, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix};

fn runtime_throughput(c: &mut Criterion) {
    let cfg = WorkSwitchConfig::contiguous(64, 512).expect("valid");
    let mut group = c.benchmark_group("runtime");
    for shards in [1usize, 2, 4] {
        // One pregenerated feed per shard, distinct seeds.
        let feeds: Vec<Vec<Vec<WorkPacket>>> = (0..shards)
            .map(|s| {
                let scenario = MmppScenario {
                    sources: 500,
                    slots: 2_000,
                    seed: 7 + s as u64,
                    ..Default::default()
                };
                scenario
                    .work_trace(&cfg, &PortMix::Uniform)
                    .expect("valid scenario")
                    .batches(256)
                    .map(<[_]>::to_vec)
                    .collect()
            })
            .collect();
        let total: u64 = feeds.iter().flatten().map(|b| b.len() as u64).sum();
        group.throughput(Throughput::Elements(total));
        group.bench_with_input(BenchmarkId::new("lwd-n64", shards), &feeds, |b, feeds| {
            b.iter(|| {
                let mut builder = RuntimeBuilder::new(RuntimeConfig {
                    ring_capacity: 64,
                    shard: ShardConfig::freerun(),
                    ..RuntimeConfig::default()
                });
                for feed in feeds.clone() {
                    let cfg = cfg.clone();
                    let id = builder.add_shard(move || WorkRunner::new(cfg.clone(), Lwd::new(), 1));
                    builder.add_producer(id, move |handle| {
                        for batch in feed {
                            if !handle.send(batch) {
                                break;
                            }
                        }
                    });
                }
                let report = builder.run(|_| VirtualClock::new());
                black_box((report.score(), report.counters().arrived()))
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = runtime_throughput
}
criterion_main!(benches);
