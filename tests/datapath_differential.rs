//! Property-based differential tests for the shared datapath.
//!
//! The fixed scenarios in `tests/runtime_differential.rs` pin engine/runtime
//! equality for specific traces; these generalize them: *random* MMPP traces
//! and *random* flush schedules (none, periodic Drop, periodic Drain) driven
//! through the offline engine and a lockstep single-shard runtime must
//! produce bit-identical `Counters`, score, and slot counts. Both drivers
//! are thin shells over `smbm-datapath`'s `SlotMachine`, so any divergence
//! means driver-local logic (ingest, flush keying, drain ordering) broke
//! the shared slot semantics.

use proptest::prelude::*;

use smbm_core::{
    value_policy_by_name, work_policy_by_name, DatapathSystem, ValueRunner, WorkRunner,
};
use smbm_runtime::{IngestMode, RuntimeBuilder, RuntimeConfig, ShardConfig, VirtualClock};
use smbm_sim::{run, EngineConfig};
use smbm_switch::{Counters, FlushPolicy, ValueSwitchConfig, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

/// Runs one lockstep shard over per-slot bursts and returns what the switch
/// counted, plus the shard's objective and slot count.
fn lockstep<S: DatapathSystem + 'static>(
    factory: impl Fn() -> S + Send + 'static,
    slots: Vec<Vec<S::Packet>>,
    flush: Option<FlushPolicy>,
) -> (Counters, u64, u64) {
    let mut b = RuntimeBuilder::new(RuntimeConfig {
        ring_capacity: 8,
        shard: ShardConfig {
            mode: IngestMode::Lockstep,
            flush,
            drain_at_end: true,
        },
        record_metrics: false,
        ..RuntimeConfig::default()
    });
    let id = b.add_shard(factory);
    b.add_producer(id, move |handle| {
        for burst in slots {
            if !handle.send(burst) {
                break;
            }
        }
    });
    let report = b.run(|_| VirtualClock::new());
    assert_eq!(report.shard_panics, 0);
    let shard = &report.shards[0];
    assert!(shard.error.is_none(), "shard error: {:?}", shard.error);
    assert!(!shard.drain_stalled);
    (shard.counters, shard.score, shard.slots)
}

/// A random flush schedule: none, periodic Drain, or periodic Drop.
fn flush_schedule() -> impl Strategy<Value = Option<FlushPolicy>> {
    prop_oneof![
        Just(None),
        (2u64..40).prop_map(|p| Some(FlushPolicy::every(p))),
        (2u64..40).prop_map(|p| Some(FlushPolicy::every(p).dropping())),
    ]
}

/// Random MMPP shape: ports, buffer (scaled to ports so push-out paths are
/// actually exercised), trace length, seed.
fn shape() -> impl Strategy<Value = (u32, usize, usize, u64)> {
    (2u32..=8).prop_flat_map(|ports| {
        (
            Just(ports),
            (ports as usize * 2)..(ports as usize * 12),
            50usize..300,
            0u64..u64::MAX,
        )
    })
}

proptest! {
    // Each case spawns shard + producer threads; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn work_engine_and_lockstep_runtime_agree(
        (ports, buffer, slots, seed) in shape(),
        flush in flush_schedule(),
        policy_idx in 0usize..smbm_core::WORK_POLICY_NAMES.len(),
    ) {
        let name = smbm_core::WORK_POLICY_NAMES[policy_idx];
        let cfg = WorkSwitchConfig::contiguous(ports, buffer).unwrap();
        let trace = MmppScenario { sources: 10, slots, seed, ..MmppScenario::default() }
            .work_trace(&cfg, &PortMix::Uniform)
            .unwrap();

        let mut runner = WorkRunner::new(cfg.clone(), work_policy_by_name(name).unwrap(), 2);
        let engine = EngineConfig { flush, drain_at_end: true };
        let summary = run(&mut runner, &trace, &engine).unwrap();
        let expected = *runner.switch().counters();

        let shard_cfg = cfg.clone();
        let shard_name = name.to_string();
        let (counters, score, slot_count) = lockstep(
            move || {
                let policy = work_policy_by_name(&shard_name).unwrap();
                WorkRunner::new(shard_cfg.clone(), policy, 2)
            },
            trace.as_slots().to_vec(),
            flush,
        );
        prop_assert_eq!(counters, expected, "counters diverged for {} flush {:?}", name, flush);
        prop_assert_eq!(score, summary.score, "score diverged for {} flush {:?}", name, flush);
        prop_assert_eq!(slot_count, summary.slots, "slots diverged for {} flush {:?}", name, flush);
    }

    #[test]
    fn value_engine_and_lockstep_runtime_agree(
        (ports, buffer, slots, seed) in shape(),
        flush in flush_schedule(),
        policy_idx in 0usize..smbm_core::VALUE_POLICY_NAMES.len(),
    ) {
        let name = smbm_core::VALUE_POLICY_NAMES[policy_idx];
        let cfg = ValueSwitchConfig::new(buffer, ports as usize).unwrap();
        let mix = ValueMix::Uniform { max: 25 };
        let trace = MmppScenario { sources: 10, slots, seed, ..MmppScenario::default() }
            .value_trace(ports as usize, &PortMix::Uniform, &mix)
            .unwrap();

        let mut runner = ValueRunner::new(cfg, value_policy_by_name(name).unwrap(), 2);
        let engine = EngineConfig { flush, drain_at_end: true };
        let summary = run(&mut runner, &trace, &engine).unwrap();
        let expected = *runner.switch().counters();

        let shard_name = name.to_string();
        let (counters, score, slot_count) = lockstep(
            move || {
                let policy = value_policy_by_name(&shard_name).unwrap();
                ValueRunner::new(cfg, policy, 2)
            },
            trace.as_slots().to_vec(),
            flush,
        );
        prop_assert_eq!(counters, expected, "counters diverged for {} flush {:?}", name, flush);
        prop_assert_eq!(score, summary.score, "score diverged for {} flush {:?}", name, flush);
        prop_assert_eq!(slot_count, summary.slots, "slots diverged for {} flush {:?}", name, flush);
    }
}
