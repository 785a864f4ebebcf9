//! Criterion benchmarks of the simulation substrate that perfbench does not
//! time: the cost of the engine's observer hooks, and exact-OPT search.
//! Slot-loop throughput, the OPT surrogates and trace generation are
//! measured by perfbench's `offline-fig5` workload (`sim.*.ns_per_slot`,
//! `traffic.gen_s`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use smbm_core::{exact_opt, DatapathSystem, Lwd, WorkRunner};
use smbm_obs::HistogramRecorder;
use smbm_sim::{run, run_observed, EngineConfig};
use smbm_switch::{PortId, QueueDiscipline, Value, WorkQueue, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix};

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

fn exact_opt_search(c: &mut Criterion) {
    let cfg = WorkSwitchConfig::contiguous(2, 4).expect("valid");
    // 16 arrivals over 4 slots: a realistic test-suite-sized instance.
    let burst: Vec<_> = [0, 1, 0, 1]
        .map(|p| WorkQueue::packet(&cfg, PortId::new(p), Value::ONE))
        .to_vec();
    let trace = vec![burst; 4];
    c.bench_function("exact-work-opt-16-arrivals", |b| {
        b.iter(|| black_box(exact_opt::<WorkQueue>(&cfg, 1, &trace).expect("small instance")));
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(500))
        .measurement_time(std::time::Duration::from_secs(3));
    targets = observer_overhead, exact_opt_search
}
criterion_main!(benches);
