//! Criterion benchmarks of the shared slot machine (`smbm-datapath`) for
//! what perfbench does not time: the per-slot hook the supervised shard
//! uses, and flush scheduling. Raw `SlotMachine::step` throughput is
//! perfbench's `datapath.step_ns_per_pkt` and `datapath.slot_ns`.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

use smbm_core::{Lwd, WorkRunner};
use smbm_datapath::{NoHook, SlotHook, SlotMachine, SlotStats};
use smbm_obs::NullObserver;
use smbm_switch::{FlushPolicy, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix};

/// Per-slot write-through hook (what the live shard uses for crash-safe
/// accounting) vs the engine's `NoHook`: the delta is what supervised
/// progress recording costs at every slot boundary.
fn slot_hook_overhead(c: &mut Criterion) {
    struct RecordingHook {
        stats: SlotStats,
        score: u64,
    }
    impl<S: smbm_datapath::DatapathSystem> SlotHook<S> for RecordingHook {
        fn slot_done(&mut self, sys: &S, stats: &SlotStats) {
            self.stats = *stats;
            self.score = sys.score();
        }
    }

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

    let mut group = c.benchmark_group("datapath-hook");
    group.throughput(Throughput::Elements(trace.slots() as u64));
    group.bench_function("no-hook", |b| {
        b.iter(|| {
            let runner = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
            let mut machine = SlotMachine::new(runner, None);
            let mut obs = NullObserver;
            for burst in trace.iter() {
                machine
                    .step(burst, &mut obs, &mut NoHook)
                    .expect("LWD never errs");
            }
            black_box(machine.score())
        });
    });
    group.bench_function("recording-hook", |b| {
        b.iter(|| {
            let runner = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
            let mut machine = SlotMachine::new(runner, None);
            let mut obs = NullObserver;
            let mut hook = RecordingHook {
                stats: SlotStats::new(),
                score: 0,
            };
            for burst in trace.iter() {
                machine
                    .step(burst, &mut obs, &mut hook)
                    .expect("LWD never errs");
            }
            black_box((machine.score(), hook.score))
        });
    });
    group.finish();
}

/// Flush scheduling on the hot path: the `flush_check` branch per slot, in
/// both Drop (instant discard) and Drain (extra transmission-only slots)
/// modes, against the unflushed loop.
fn flush_modes(c: &mut Criterion) {
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

    let mut group = c.benchmark_group("datapath-flush");
    group.throughput(Throughput::Elements(trace.slots() as u64));
    for (name, flush) in [
        ("none", None),
        ("drop-every-500", Some(FlushPolicy::every(500).dropping())),
        ("drain-every-500", Some(FlushPolicy::every(500))),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let runner = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
                let mut machine = SlotMachine::new(runner, flush);
                let mut obs = NullObserver;
                for burst in trace.iter() {
                    assert!(machine.flush_check(&mut obs, &mut NoHook));
                    machine
                        .step(burst, &mut obs, &mut NoHook)
                        .expect("LWD never errs");
                }
                black_box(machine.score())
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
    targets = slot_hook_overhead, flush_modes
}
criterion_main!(benches);
