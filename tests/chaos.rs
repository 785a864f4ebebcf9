//! Chaos suite: fault injection against the live datapath.
//!
//! Everything here runs under a `VirtualClock`, so fault firing is keyed on
//! deterministic slot counts, never wall time. The invariant under test is
//! packet conservation across failures: every packet a producer hands to the
//! datapath ends the run as exactly one of transmitted, policy drop,
//! backpressure drop, or shard-failure drop — no packet is silently lost to
//! a panic, a restart, or an abandoned shard.

use smbm_core::{work_policy_by_name, WorkRunner};
use smbm_runtime::{
    run_loadgen, Fault, FaultKind, FaultPlan, IngestMode, LoadgenConfig, Model, RuntimeBuilder,
    RuntimeConfig, RuntimeReport, ShardConfig, SupervisionConfig, VirtualClock,
};
use smbm_switch::{DropReason, WorkPacket, WorkSwitchConfig};
use smbm_traffic::{MmppScenario, PortMix};

fn trace_slots(slots: usize, seed: u64) -> Vec<Vec<WorkPacket>> {
    let cfg = WorkSwitchConfig::contiguous(6, 48).unwrap();
    MmppScenario {
        sources: 20,
        slots,
        seed,
        ..MmppScenario::default()
    }
    .work_trace(&cfg, &PortMix::Uniform)
    .unwrap()
    .iter()
    .map(<[_]>::to_vec)
    .collect()
}

/// One lockstep LWD shard over per-slot bursts, with faults armed and an
/// immediate (no-backoff) supervisor so tests stay fast.
fn chaos_lockstep(faults: FaultPlan, budget: u32, slots: Vec<Vec<WorkPacket>>) -> RuntimeReport {
    let mut b = RuntimeBuilder::new(RuntimeConfig {
        ring_capacity: 8,
        shard: ShardConfig {
            mode: IngestMode::Lockstep,
            flush: None,
            drain_at_end: true,
        },
        faults,
        supervision: SupervisionConfig::immediate(budget),
        ..RuntimeConfig::default()
    });
    let id = b.add_shard(|| {
        let cfg = WorkSwitchConfig::contiguous(6, 48).unwrap();
        let policy = work_policy_by_name("LWD").unwrap();
        WorkRunner::new(cfg, policy, 2)
    });
    b.add_producer(id, move |handle| {
        for burst in slots {
            if !handle.send(burst) {
                break;
            }
        }
    });
    b.run(|_| VirtualClock::new())
}

fn panic_at(slot: u64) -> FaultPlan {
    FaultPlan::scripted(vec![Fault {
        shard: 0,
        at_slot: slot,
        kind: FaultKind::Panic,
    }])
}

/// A panic mid-trace restarts the shard within budget, and the run is
/// bit-for-bit repeatable: the replacement shard resumes the ring where the
/// dead incarnation left it, so admissions — and therefore every counter and
/// the objective — are a pure function of the trace and the fault plan.
#[test]
fn panic_restart_is_deterministic_and_conserves_packets() {
    let slots = trace_slots(2_000, 42);
    let total: u64 = slots.iter().map(|s| s.len() as u64).sum();
    let run = || chaos_lockstep(panic_at(100), 3, slots.clone());

    let first = run();
    assert_eq!(first.shard_panics, 1, "exactly one incarnation died");
    assert_eq!(first.restarts(), 1);
    assert_eq!(first.shards_gave_up(), 0);
    assert_eq!(first.lost_packets(), 0, "no producer saw a closed ring");
    assert!(first.shards[0].error.is_none());

    let c = first.counters();
    assert_eq!(c.arrived(), total, "every generated packet was ingested");
    assert_eq!(c.dropped_for(DropReason::Backpressure), 0);
    assert_eq!(
        c.dropped_for(DropReason::ShardFailure),
        0,
        "restart preserved the backlog"
    );
    c.check_conservation(0).unwrap();
    c.check_value_conservation(0).unwrap();

    let second = run();
    assert_eq!(second.counters(), c, "chaos run must be reproducible");
    assert_eq!(second.score(), first.score());
    assert_eq!(second.restarts(), first.restarts());
}

/// Each panic consumes one restart; the budget bounds how many incarnations
/// a shard may burn before the supervisor abandons it.
#[test]
fn repeated_panics_burn_the_restart_budget_one_by_one() {
    let slots = trace_slots(1_000, 9);
    let plan = FaultPlan::scripted(vec![
        Fault {
            shard: 0,
            at_slot: 50,
            kind: FaultKind::Panic,
        },
        Fault {
            shard: 0,
            at_slot: 200,
            kind: FaultKind::Panic,
        },
    ]);
    let report = chaos_lockstep(plan, 3, slots.clone());
    assert_eq!(report.shard_panics, 2);
    assert_eq!(report.restarts(), 2);
    assert_eq!(report.shards_gave_up(), 0);
    let total: u64 = slots.iter().map(|s| s.len() as u64).sum();
    assert_eq!(report.counters().arrived(), total);
    report.counters().check_conservation(0).unwrap();
}

/// With the budget exhausted the supervisor closes the shard's rings and
/// accounts the entire backlog — everything still queued, plus everything
/// the producer could no longer hand over — as shard-failure drops, so
/// conservation closes even for an abandoned shard.
#[test]
fn exhausted_budget_accounts_the_whole_backlog_as_shard_failure() {
    let slots = trace_slots(500, 3);
    let report = chaos_lockstep(panic_at(0), 0, slots);
    let shard = &report.shards[0];
    assert!(shard.gave_up);
    assert_eq!(shard.restarts, 0);
    assert!(shard.error.is_none(), "give-up is supervised, not an error");

    let c = report.counters();
    assert_eq!(c.transmitted(), 0, "the shard died before serving anything");
    assert_eq!(c.arrived(), c.dropped_for(DropReason::ShardFailure));
    assert!(c.dropped_for(DropReason::ShardFailure) > 0);
    c.check_conservation(0).unwrap();
    c.check_value_conservation(0).unwrap();
}

/// A stall fault freezes the whole pipeline — no ingest, no transmission —
/// so it may only delay the run: final counters and score are identical to
/// a fault-free run over the same trace, with the burned cycles visible.
#[test]
fn stall_fault_delays_without_changing_the_outcome() {
    let slots = trace_slots(800, 17);
    let baseline = chaos_lockstep(FaultPlan::none(), 0, slots.clone());
    let stalled = chaos_lockstep(
        FaultPlan::scripted(vec![Fault {
            shard: 0,
            at_slot: 100,
            kind: FaultKind::Stall { cycles: 5_000 },
        }]),
        0,
        slots,
    );
    assert_eq!(stalled.shard_panics, 0);
    assert_eq!(stalled.counters(), baseline.counters());
    assert_eq!(stalled.score(), baseline.score());
    assert!(
        stalled.shards[0].cycles >= baseline.shards[0].cycles + 5_000,
        "the stall must show up as burned cycles"
    );
}

/// In a multi-shard run, per-shard rows say exactly which shard died, how
/// often it restarted, and how many packets its ring held — healthy shards
/// stay untouched.
#[test]
fn multi_shard_report_names_the_dead_shard() {
    let mut b = RuntimeBuilder::new(RuntimeConfig {
        ring_capacity: 8,
        shard: ShardConfig {
            mode: IngestMode::Lockstep,
            flush: None,
            drain_at_end: true,
        },
        faults: FaultPlan::scripted(vec![Fault {
            shard: 1,
            at_slot: 25,
            kind: FaultKind::Panic,
        }]),
        supervision: SupervisionConfig::immediate(2),
        ..RuntimeConfig::default()
    });
    for seed in [1u64, 2] {
        let id = b.add_shard(|| {
            let cfg = WorkSwitchConfig::contiguous(6, 48).unwrap();
            let policy = work_policy_by_name("LWD").unwrap();
            WorkRunner::new(cfg, policy, 2)
        });
        let slots = trace_slots(400, seed);
        b.add_producer(id, move |handle| {
            for burst in slots {
                if !handle.send(burst) {
                    break;
                }
            }
        });
    }
    let report = b.run(|_| VirtualClock::new());

    assert_eq!(report.shards.len(), 2);
    assert_eq!(report.shards[0].shard, 0);
    assert_eq!(report.shards[1].shard, 1);
    assert_eq!(report.shards[0].restarts, 0, "healthy shard untouched");
    assert!(!report.shards[0].gave_up);
    assert_eq!(report.shards[1].restarts, 1, "shard 1 died and came back");
    assert!(!report.shards[1].gave_up);
    assert_eq!(report.shard_panics, 1);
    report.counters().check_conservation(0).unwrap();
}

/// Saturating ingress while producers run lossy forces bounded rings to
/// fill and bounce batches: the rejections must land in the backpressure
/// tally — and only there — with conservation intact.
#[test]
fn saturated_ingress_surfaces_as_backpressure_not_loss() {
    let config = LoadgenConfig {
        model: Model::Work,
        policy: "lwd".to_owned(),
        ports: 4,
        buffer: 16,
        slots: 400,
        sources: 10,
        batch: 16,
        ring_capacity: 2,
        lossy: true,
        faults: FaultPlan::scripted(vec![Fault {
            shard: 0,
            at_slot: 0,
            kind: FaultKind::SaturateIngress { cycles: 100_000 },
        }]),
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&config).unwrap();
    let c = report.counters();
    assert_eq!(report.runtime.shard_panics, 0);
    assert!(
        c.dropped_for(DropReason::Backpressure) > 0,
        "a saturated ring must bounce batches as backpressure"
    );
    assert_eq!(c.dropped_for(DropReason::ShardFailure), 0);
    assert_eq!(
        report.runtime.lost_packets(),
        0,
        "lossy sends are counted, not lost"
    );
    c.check_conservation(0).unwrap();
}

/// Random fault plans are a pure function of their seed, and whatever plan
/// a seed yields, the datapath conserves packets under it.
#[test]
fn random_fault_plans_are_reproducible_and_survivable() {
    let a = FaultPlan::random(0xC4A05, 2, 1_000);
    let b = FaultPlan::random(0xC4A05, 2, 1_000);
    assert_eq!(a.faults(), b.faults(), "same seed, same plan");
    assert!(!a.is_empty());

    let config = LoadgenConfig {
        model: Model::Work,
        policy: "lwd".to_owned(),
        ports: 4,
        buffer: 16,
        shards: 2,
        slots: 1_000,
        sources: 10,
        batch: 16,
        faults: a,
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&config).unwrap();
    report.counters().check_conservation(0).unwrap();
}

/// Acceptance gate from the issue: a 4-shard chaos run — panics injected,
/// restarts consumed — still sustains at least 1M packets/sec with zero
/// conservation violations. Heavyweight; run via `cargo test -- --ignored`.
#[test]
#[ignore = "throughput gate; run with --ignored on quiet hardware"]
fn chaos_loadgen_sustains_a_million_packets_per_second() {
    let config = LoadgenConfig {
        shards: 4,
        slots: 40_000,
        sources: 200,
        faults: FaultPlan::scripted(vec![
            Fault {
                shard: 1,
                at_slot: 5_000,
                kind: FaultKind::Panic,
            },
            Fault {
                shard: 3,
                at_slot: 9_000,
                kind: FaultKind::Panic,
            },
        ]),
        ..LoadgenConfig::default()
    };
    let report = run_loadgen(&config).unwrap();
    assert_eq!(report.runtime.restarts(), 2);
    assert_eq!(report.runtime.shards_gave_up(), 0);
    report.counters().check_conservation(0).unwrap();
    assert!(
        report.processed_per_sec() >= 1_000_000.0,
        "sustained only {:.0} packets/sec",
        report.processed_per_sec()
    );
}
