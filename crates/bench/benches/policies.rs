//! Criterion micro-benchmark: how LWD's per-arrival admission cost scales
//! with the port count, across the scan/index crossover at 32 ports.
//!
//! Each iteration replays a pre-generated congested MMPP burst sequence,
//! measuring the end-to-end cost of the arrival path (decision + buffer
//! mutation). Every roster policy's cost at the Fig. 5 point is measured by
//! perfbench's `offline-fig5` workload (`sim.<model>.<policy>.ns_per_slot`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use smbm_core::{Lwd, WorkRunner};
use smbm_sim::{run, EngineConfig};
use smbm_switch::WorkSwitchConfig;
use smbm_traffic::{MmppScenario, PortMix};

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
                let mut runner = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
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
    targets = lwd_scaling_with_ports
}
criterion_main!(benches);
