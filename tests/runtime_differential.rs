//! Differential tests between the live runtime and the offline engine.
//!
//! Under a `VirtualClock` with a lockstep shard fed one burst per trace slot
//! (empty slots included), the runtime executes the exact phase sequence of
//! `smbm_sim::run` — so for every policy the per-run counters
//! (admitted, dropped, pushed-out, transmitted, latency sums) must be
//! *identical*, not merely close. Any divergence means the datapath no
//! longer serves the same policy semantics the paper's simulations measure.

use smbm_core::{
    combined_policy_by_name, value_policy_by_name, work_policy_by_name, CombinedRunner,
    DatapathSystem, ValueRunner, WorkRunner,
};
use smbm_runtime::{
    Fault, FaultKind, FaultPlan, IngestMode, RuntimeBuilder, RuntimeConfig, ShardConfig,
    SupervisionConfig, VirtualClock,
};
use smbm_sim::{run, EngineConfig, FlushPolicy};
use smbm_switch::{Counters, DropReason, ValueSwitchConfig, WorkSwitchConfig};
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
    assert_eq!(report.producer_panics(), 0);
    assert_eq!(report.lost_packets(), 0);
    let shard = &report.shards[0];
    assert!(shard.error.is_none(), "shard error: {:?}", shard.error);
    assert!(!shard.drain_stalled);
    (shard.counters, shard.score, shard.slots)
}

fn scenario(slots: usize, seed: u64) -> MmppScenario {
    MmppScenario {
        sources: 20,
        slots,
        seed,
        ..MmppScenario::default()
    }
}

#[test]
fn work_runtime_matches_engine_for_every_policy() {
    let cfg = WorkSwitchConfig::contiguous(6, 48).unwrap();
    let trace = scenario(2_000, 42)
        .work_trace(&cfg, &PortMix::Uniform)
        .unwrap();
    for name in smbm_core::WORK_POLICY_NAMES {
        let policy = work_policy_by_name(name).unwrap();
        let mut runner = WorkRunner::new(cfg.clone(), policy, 2);
        let summary = run(&mut runner, &trace, &EngineConfig::draining()).unwrap();
        let expected = *runner.switch().counters();

        let shard_cfg = cfg.clone();
        let shard_name = name.to_string();
        let (counters, score, slots) = lockstep(
            move || {
                let policy = work_policy_by_name(&shard_name).unwrap();
                WorkRunner::new(shard_cfg.clone(), policy, 2)
            },
            trace.iter().map(<[_]>::to_vec).collect(),
            None,
        );
        assert_eq!(counters, expected, "counters diverged for policy {name}");
        assert_eq!(score, summary.score, "score diverged for policy {name}");
        assert_eq!(
            slots, summary.slots,
            "slot count diverged for policy {name}"
        );
    }
}

#[test]
fn value_runtime_matches_engine_for_every_policy() {
    let cfg = ValueSwitchConfig::new(48, 6).unwrap();
    let mix = ValueMix::Uniform { max: 20 };
    let trace = scenario(2_000, 7)
        .value_trace(6, &PortMix::Uniform, &mix)
        .unwrap();
    for name in smbm_core::VALUE_POLICY_NAMES {
        let policy = value_policy_by_name(name).unwrap();
        let mut runner = ValueRunner::new(cfg, policy, 2);
        let summary = run(&mut runner, &trace, &EngineConfig::draining()).unwrap();
        let expected = *runner.switch().counters();

        let shard_name = name.to_string();
        let (counters, score, slots) = lockstep(
            move || {
                let policy = value_policy_by_name(&shard_name).unwrap();
                ValueRunner::new(cfg, policy, 2)
            },
            trace.iter().map(<[_]>::to_vec).collect(),
            None,
        );
        assert_eq!(counters, expected, "counters diverged for policy {name}");
        assert_eq!(score, summary.score, "score diverged for policy {name}");
        assert_eq!(
            slots, summary.slots,
            "slot count diverged for policy {name}"
        );
    }
}

#[test]
fn combined_runtime_matches_engine_for_every_policy() {
    let cfg = WorkSwitchConfig::contiguous(5, 40).unwrap();
    let mix = ValueMix::Uniform { max: 16 };
    let trace = scenario(1_500, 11)
        .combined_trace(&cfg, &PortMix::Uniform, &mix)
        .unwrap();
    for name in smbm_core::COMBINED_POLICY_NAMES {
        let policy = combined_policy_by_name(name).unwrap();
        let mut runner = CombinedRunner::new(cfg.clone(), policy, 1);
        let summary = run(&mut runner, &trace, &EngineConfig::draining()).unwrap();
        let expected = *runner.switch().counters();

        let shard_cfg = cfg.clone();
        let shard_name = name.to_string();
        let (counters, score, slots) = lockstep(
            move || {
                let policy = combined_policy_by_name(&shard_name).unwrap();
                CombinedRunner::new(shard_cfg.clone(), policy, 1)
            },
            trace.iter().map(<[_]>::to_vec).collect(),
            None,
        );
        assert_eq!(counters, expected, "counters diverged for policy {name}");
        assert_eq!(score, summary.score, "score diverged for policy {name}");
        assert_eq!(
            slots, summary.slots,
            "slot count diverged for policy {name}"
        );
    }
}

/// Rejections by a *closed* ring must surface as producer-side lost packets,
/// never as backpressure: backpressure counts packets the datapath saw and
/// deferred, while a closed ring means the shard is gone and the packets
/// never entered the datapath. A shard that gives up immediately closes its
/// rings, so everything the producer still holds is lost — and the
/// backpressure tally stays exactly zero.
#[test]
fn closed_ring_rejections_are_lost_not_backpressure() {
    use smbm_switch::{PortId, Work, WorkPacket};

    let cfg = WorkSwitchConfig::contiguous(6, 48).unwrap();
    // Every burst is non-empty, so whichever send the closed ring bounces
    // first is guaranteed to register as lost packets.
    let slots: Vec<Vec<WorkPacket>> = (0..50)
        .map(|_| {
            (0..4)
                .map(|_| WorkPacket::new(PortId::new(0), Work::new(1)))
                .collect()
        })
        .collect();

    let mut b = RuntimeBuilder::new(RuntimeConfig {
        ring_capacity: 4,
        shard: ShardConfig {
            mode: IngestMode::Lockstep,
            flush: None,
            drain_at_end: true,
        },
        faults: FaultPlan::scripted(vec![Fault {
            shard: 0,
            at_slot: 0,
            kind: FaultKind::Panic,
        }]),
        supervision: SupervisionConfig::immediate(0),
        ..RuntimeConfig::default()
    });
    let shard_cfg = cfg.clone();
    let id = b.add_shard(move || {
        let policy = work_policy_by_name("LWD").unwrap();
        WorkRunner::new(shard_cfg.clone(), policy, 2)
    });
    b.add_producer(id, move |handle| {
        for burst in slots {
            if !handle.send(burst) {
                break;
            }
        }
    });
    let report = b.run(|_| VirtualClock::new());

    let shard = &report.shards[0];
    assert!(shard.gave_up);
    assert!(shard.error.is_none());
    assert!(
        report.lost_packets() > 0,
        "producer must observe the closed ring as lost packets"
    );
    // Nothing the closed ring bounced may masquerade as backpressure.
    let totals = report.counters();
    assert_eq!(totals.dropped_for(DropReason::Backpressure), 0);
    // Everything accounted is a shard-failure drop — drained orphans plus
    // producer-side losses — and packet conservation still closes.
    assert_eq!(totals.transmitted(), 0);
    assert_eq!(
        totals.arrived(),
        totals.dropped_for(DropReason::ShardFailure)
    );
    totals.check_conservation(0).unwrap();
}

/// Flushouts are keyed on ingested bursts in the runtime and on trace slots
/// in the engine; with one burst per slot the two schedules must coincide,
/// in both drain and drop modes.
#[test]
fn flush_schedules_match_in_both_modes() {
    let cfg = WorkSwitchConfig::contiguous(6, 48).unwrap();
    let trace = scenario(2_000, 99)
        .work_trace(&cfg, &PortMix::Uniform)
        .unwrap();
    for flush in [FlushPolicy::every(250), FlushPolicy::every(250).dropping()] {
        let policy = work_policy_by_name("LWD").unwrap();
        let mut runner = WorkRunner::new(cfg.clone(), policy, 1);
        let engine = EngineConfig {
            flush: Some(flush),
            drain_at_end: true,
        };
        let summary = run(&mut runner, &trace, &engine).unwrap();
        let expected = *runner.switch().counters();

        let shard_cfg = cfg.clone();
        let (counters, score, _) = lockstep(
            move || {
                let policy = work_policy_by_name("LWD").unwrap();
                WorkRunner::new(shard_cfg.clone(), policy, 1)
            },
            trace.iter().map(<[_]>::to_vec).collect(),
            Some(flush),
        );
        assert_eq!(counters, expected, "counters diverged under {flush:?}");
        assert_eq!(score, summary.score, "score diverged under {flush:?}");
    }
}
