//! Criterion benchmarks of the simulation substrate itself: slot-loop
//! throughput, OPT surrogates, trace generation, and exact-OPT search.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use smbm_core::{
    exact_work_opt, DatapathSystem, Lwd, Mrd, ValuePqOpt, ValueRunner, WorkPqOpt, WorkRunner,
};
use smbm_obs::HistogramRecorder;
use smbm_sim::{run, run_observed, EngineConfig};
use smbm_switch::{PortId, ValueSwitchConfig, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

fn engine_slot_throughput(c: &mut Criterion) {
    let cfg = WorkSwitchConfig::contiguous(8, 64).expect("valid");
    let scenario = MmppScenario {
        sources: 12,
        slots: 5_000,
        seed: 3,
        ..Default::default()
    };
    let trace = scenario
        .work_trace(&cfg, &PortMix::Uniform)
        .expect("valid scenario");
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(trace.slots() as u64));
    group.bench_function("lwd-slot-loop", |b| {
        b.iter(|| {
            let mut runner = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
            let s =
                run(&mut runner, &trace, &EngineConfig::horizon_only()).expect("LWD never errs");
            black_box(s.score)
        });
    });
    group.bench_function("pq-opt-slot-loop", |b| {
        b.iter(|| {
            let mut opt = WorkPqOpt::new(64, 8);
            let s = run(&mut opt, &trace, &EngineConfig::horizon_only()).expect("OPT never errs");
            black_box(s.score)
        });
    });
    // Fig. 5-representative scale: n = 64 ports, shared buffer, and the
    // paper's 500-source MMPP configuration (solidly overloaded, so victim
    // selection runs on most arrivals).
    let cfg64 = WorkSwitchConfig::contiguous(64, 512).expect("valid");
    let scenario64 = MmppScenario {
        sources: 500,
        slots: 2_000,
        seed: 7,
        ..Default::default()
    };
    let trace64 = scenario64
        .work_trace(&cfg64, &PortMix::Uniform)
        .expect("valid scenario");
    group.throughput(Throughput::Elements(trace64.slots() as u64));
    group.bench_function("lwd-slot-loop-n64", |b| {
        b.iter(|| {
            let mut runner = WorkRunner::new(cfg64.clone(), Lwd::new(), 1);
            let s =
                run(&mut runner, &trace64, &EngineConfig::horizon_only()).expect("LWD never errs");
            black_box(s.score)
        });
    });
    group.finish();
}

fn value_engine_slot_throughput(c: &mut Criterion) {
    let cfg = ValueSwitchConfig::new(64, 8).expect("valid");
    let scenario = MmppScenario {
        sources: 32,
        slots: 5_000,
        seed: 3,
        ..Default::default()
    };
    let trace = scenario
        .value_trace(8, &PortMix::Uniform, &ValueMix::Uniform { max: 16 })
        .expect("valid scenario");
    let mut group = c.benchmark_group("value-engine");
    group.throughput(Throughput::Elements(trace.slots() as u64));
    group.bench_function("mrd-slot-loop", |b| {
        b.iter(|| {
            let mut runner = ValueRunner::new(cfg, Mrd::new(), 1);
            let s =
                run(&mut runner, &trace, &EngineConfig::horizon_only()).expect("MRD never errs");
            black_box(s.score)
        });
    });
    group.bench_function("value-pq-opt-slot-loop", |b| {
        b.iter(|| {
            let mut opt = ValuePqOpt::new(64, 8);
            let s = run(&mut opt, &trace, &EngineConfig::horizon_only()).expect("OPT never errs");
            black_box(s.score)
        });
    });
    // Fig. 5-representative scale: n = 64 ports, shared buffer, and the
    // paper's 500-source MMPP configuration (solidly overloaded).
    let cfg64 = ValueSwitchConfig::new(512, 64).expect("valid");
    let scenario64 = MmppScenario {
        sources: 500,
        slots: 2_000,
        seed: 7,
        ..Default::default()
    };
    let trace64 = scenario64
        .value_trace(64, &PortMix::Uniform, &ValueMix::Uniform { max: 16 })
        .expect("valid scenario");
    group.throughput(Throughput::Elements(trace64.slots() as u64));
    group.bench_function("mrd-slot-loop-n64", |b| {
        b.iter(|| {
            let mut runner = ValueRunner::new(cfg64, Mrd::new(), 1);
            let s =
                run(&mut runner, &trace64, &EngineConfig::horizon_only()).expect("MRD never errs");
            black_box(s.score)
        });
    });
    group.finish();
}

/// Indexed victim selection at the Fig. 5-representative n = 64 scale,
/// where the registry-default policies keep the incremental `ScoreIndex`
/// instead of an O(n) scan per arrival.
fn slab_indexed(c: &mut Criterion) {
    let cfg64 = WorkSwitchConfig::contiguous(64, 512).expect("valid");
    let scenario64 = MmppScenario {
        sources: 500,
        slots: 2_000,
        seed: 7,
        ..Default::default()
    };
    let work_trace = scenario64
        .work_trace(&cfg64, &PortMix::Uniform)
        .expect("valid scenario");
    let vcfg64 = ValueSwitchConfig::new(512, 64).expect("valid");
    let value_trace = scenario64
        .value_trace(64, &PortMix::Uniform, &ValueMix::Uniform { max: 16 })
        .expect("valid scenario");

    let mut group = c.benchmark_group("slab");
    group.throughput(Throughput::Elements(work_trace.slots() as u64));
    group.bench_function("lwd-n64", |b| {
        b.iter(|| {
            let mut runner = WorkRunner::new(cfg64.clone(), Lwd::new(), 1);
            let s = run(&mut runner, &work_trace, &EngineConfig::horizon_only())
                .expect("LWD never errs");
            black_box(s.score)
        });
    });
    group.bench_function("mrd-n64", |b| {
        b.iter(|| {
            let mut runner = ValueRunner::new(vcfg64, Mrd::new(), 1);
            let s = run(&mut runner, &value_trace, &EngineConfig::horizon_only())
                .expect("MRD never errs");
            black_box(s.score)
        });
    });
    group.finish();
}

/// The engine's observer hooks must be free when unused: `run` with the
/// default `NullObserver` against a hand-rolled replica of the
/// pre-instrumentation slot loop (same phases, no hooks), plus the fully
/// instrumented run for scale. The first two must stay within ~2% of each
/// other.
fn observer_overhead(c: &mut Criterion) {
    let cfg = WorkSwitchConfig::contiguous(8, 64).expect("valid");
    let scenario = MmppScenario {
        sources: 12,
        slots: 5_000,
        seed: 3,
        ..Default::default()
    };
    let trace = scenario
        .work_trace(&cfg, &PortMix::Uniform)
        .expect("valid scenario");
    let mut group = c.benchmark_group("observer-overhead");
    group.throughput(Throughput::Elements(trace.slots() as u64));
    group.bench_function("null-observer", |b| {
        b.iter(|| {
            let mut runner = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
            let s =
                run(&mut runner, &trace, &EngineConfig::horizon_only()).expect("LWD never errs");
            black_box(s.score)
        });
    });
    group.bench_function("hand-rolled-baseline", |b| {
        b.iter(|| {
            let mut runner = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
            let mut slots = 0u64;
            let mut occ_sum = 0u64;
            let mut occ_max = 0usize;
            for burst in trace.iter() {
                for &pkt in burst {
                    let _ = runner.offer(pkt).expect("LWD never errs");
                }
                runner.transmission();
                runner.end_slot();
                slots += 1;
                let occ = runner.occupancy();
                occ_sum += occ as u64;
                occ_max = occ_max.max(occ);
            }
            black_box((runner.score(), slots, occ_sum, occ_max))
        });
    });
    group.bench_function("histogram-recorder", |b| {
        b.iter(|| {
            let mut runner = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
            let mut hist = HistogramRecorder::new();
            let s = run_observed(
                &mut runner,
                &trace,
                &EngineConfig::horizon_only(),
                &mut hist,
            )
            .expect("LWD never errs");
            black_box((s.score, hist.latency().p99()))
        });
    });
    group.finish();
}

fn trace_generation(c: &mut Criterion) {
    let cfg = WorkSwitchConfig::contiguous(8, 64).expect("valid");
    let mut group = c.benchmark_group("trace-generation");
    for sources in [10usize, 100, 500] {
        group.bench_with_input(
            BenchmarkId::from_parameter(sources),
            &sources,
            |b, &sources| {
                let scenario = MmppScenario {
                    sources,
                    slots: 2_000,
                    seed: 4,
                    ..Default::default()
                };
                b.iter(|| {
                    let t = scenario
                        .work_trace(&cfg, &PortMix::Uniform)
                        .expect("valid scenario");
                    black_box(t.arrivals())
                });
            },
        );
    }
    group.finish();
}

fn exact_opt_search(c: &mut Criterion) {
    let cfg = WorkSwitchConfig::contiguous(2, 4).expect("valid");
    // 16 arrivals over 4 slots: a realistic test-suite-sized instance.
    let trace: Vec<Vec<PortId>> = (0..4)
        .map(|_| {
            vec![
                PortId::new(0),
                PortId::new(1),
                PortId::new(0),
                PortId::new(1),
            ]
        })
        .collect();
    c.bench_function("exact-work-opt-16-arrivals", |b| {
        b.iter(|| black_box(exact_work_opt(&cfg, 1, &trace).expect("small instance")));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = engine_slot_throughput,
        value_engine_slot_throughput,
        slab_indexed,
        observer_overhead,
        trace_generation,
        exact_opt_search
}
criterion_main!(benches);
