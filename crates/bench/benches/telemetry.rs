//! Criterion gate for the telemetry plane's hot-path overhead: the same
//! 4-shard datapath run with the stat-cell observer attached versus with no
//! observer at all. The CI telemetry-overhead job parses these two medians
//! and fails the build if telemetry-on regresses throughput by more than 5%.
//!
//! No sampler thread or sinks run here: the gate isolates the per-packet
//! cost the shard hot loop pays (local tallies plus one relaxed fold per
//! slot), which is the only part that scales with traffic.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use smbm_core::{Lwd, WorkRunner};
use smbm_obs::TelemetryConfig;
use smbm_runtime::{RuntimeBuilder, RuntimeConfig, ShardConfig, VirtualClock};
use smbm_switch::{WorkPacket, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix};

const SHARDS: usize = 4;

fn feeds(cfg: &WorkSwitchConfig) -> Vec<Vec<Vec<WorkPacket>>> {
    (0..SHARDS)
        .map(|s| {
            let scenario = MmppScenario {
                sources: 500,
                slots: 2_000,
                seed: 7 + s as u64,
                ..Default::default()
            };
            scenario
                .work_trace(cfg, &PortMix::Uniform)
                .expect("valid scenario")
                .batches(256)
                .map(<[_]>::to_vec)
                .collect()
        })
        .collect()
}

fn run_datapath(
    cfg: &WorkSwitchConfig,
    feeds: &[Vec<Vec<WorkPacket>>],
    telemetry: Option<TelemetryConfig>,
) -> (u64, u64) {
    let mut builder = RuntimeBuilder::new(RuntimeConfig {
        ring_capacity: 64,
        shard: ShardConfig::freerun(),
        telemetry,
        ..RuntimeConfig::default()
    });
    for feed in feeds.iter().cloned() {
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
    (report.score(), report.counters().arrived())
}

fn telemetry_overhead(c: &mut Criterion) {
    let cfg = WorkSwitchConfig::contiguous(64, 512).expect("valid");
    let feeds = feeds(&cfg);
    let total: u64 = feeds.iter().flatten().map(|b| b.len() as u64).sum();

    let mut group = c.benchmark_group("telemetry-overhead");
    group.throughput(Throughput::Elements(total));
    group.bench_with_input(BenchmarkId::new("null", SHARDS), &feeds, |b, feeds| {
        b.iter(|| black_box(run_datapath(&cfg, feeds, None)));
    });
    group.bench_with_input(BenchmarkId::new("telemetry", SHARDS), &feeds, |b, feeds| {
        b.iter(|| {
            black_box(run_datapath(
                &cfg,
                feeds,
                // A quiet sampler: the interval is far beyond the run's
                // length, so the measurement sees only the hot-path cost.
                Some(TelemetryConfig {
                    interval: Duration::from_secs(3600),
                    ..TelemetryConfig::default()
                }),
            ))
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = telemetry_overhead
}
criterion_main!(benches);
