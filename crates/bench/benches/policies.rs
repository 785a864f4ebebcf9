//! Criterion micro-benchmarks: per-arrival admission cost of every policy.
//!
//! Each iteration replays a pre-generated congested MMPP burst sequence
//! against a policy, measuring the end-to-end cost of the arrival path
//! (decision + buffer mutation).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use smbm_core::{value_policy_by_name, work_policy_by_name, ValueRunner, WorkRunner};
use smbm_sim::{run, EngineConfig};
use smbm_switch::{ValueSwitchConfig, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

fn work_policies(c: &mut Criterion) {
    let cfg = WorkSwitchConfig::contiguous(8, 64).expect("valid");
    let scenario = MmppScenario {
        sources: 12,
        slots: 2_000,
        seed: 1,
        ..Default::default()
    };
    let trace = scenario
        .work_trace(&cfg, &PortMix::Uniform)
        .expect("valid scenario");
    let arrivals = trace.arrivals() as u64;
    let mut group = c.benchmark_group("work-policy-arrival");
    group.throughput(Throughput::Elements(arrivals));
    for name in smbm_core::WORK_POLICY_NAMES {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, name| {
            b.iter(|| {
                let policy = work_policy_by_name(name).expect("registry name");
                let mut runner = WorkRunner::new(cfg.clone(), policy, 1);
                let s = run(&mut runner, &trace, &EngineConfig::horizon_only())
                    .expect("bundled policies never err");
                black_box(s.score)
            });
        });
    }
    group.finish();
}

fn value_policies(c: &mut Criterion) {
    let cfg = ValueSwitchConfig::new(64, 8).expect("valid");
    let scenario = MmppScenario {
        sources: 32,
        slots: 2_000,
        seed: 1,
        ..Default::default()
    };
    let trace = scenario
        .value_trace(8, &PortMix::Uniform, &ValueMix::Uniform { max: 16 })
        .expect("valid scenario");
    let arrivals = trace.arrivals() as u64;
    let mut group = c.benchmark_group("value-policy-arrival");
    group.throughput(Throughput::Elements(arrivals));
    for name in smbm_core::VALUE_POLICY_NAMES {
        group.bench_with_input(BenchmarkId::from_parameter(name), name, |b, name| {
            b.iter(|| {
                let policy = value_policy_by_name(name).expect("registry name");
                let mut runner = ValueRunner::new(cfg, policy, 1);
                let s = run(&mut runner, &trace, &EngineConfig::horizon_only())
                    .expect("bundled policies never err");
                black_box(s.score)
            });
        });
    }
    group.finish();
}

fn lwd_scaling_with_ports(c: &mut Criterion) {
    // `Lwd::new()` scans below 32 ports and switches to the index at 64:
    // track how the per-arrival cost moves across that crossover.
    let mut group = c.benchmark_group("lwd-port-scaling");
    for k in [4u32, 16, 64] {
        let cfg = WorkSwitchConfig::contiguous(k, 4 * k as usize).expect("valid");
        let scenario = MmppScenario {
            sources: 12,
            slots: 1_000,
            seed: 2,
            ..Default::default()
        };
        let trace = scenario
            .work_trace(&cfg, &PortMix::Uniform)
            .expect("valid scenario");
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, _| {
            b.iter(|| {
                let mut runner = WorkRunner::new(cfg.clone(), smbm_core::Lwd::new(), 1);
                let s = run(&mut runner, &trace, &EngineConfig::horizon_only())
                    .expect("LWD never errs");
                black_box(s.score)
            });
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // Each iteration replays a full multi-thousand-slot trace, so a handful
    // of samples with a short measurement window gives stable numbers
    // without multi-minute runs on small machines.
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = work_policies, value_policies, lwd_scaling_with_ports
}
criterion_main!(benches);
