//! Telemetry-plane acceptance: live snapshots and the shards' histogram
//! metrics must reconcile exactly with the datapath's final report, and
//! shard deaths must leave a post-mortem.
//!
//! The reconciliation runs are fault-free on purpose: supervision recovers a
//! dead incarnation's books by gap accounting on the supervisor thread,
//! which bypasses the observer hooks, so only a clean run promises that the
//! stat cells and the switch counters tell the same story packet-for-packet.

use std::path::PathBuf;
use std::time::Duration;

use smbm_core::{Lwd, WorkRunner};
use smbm_obs::{HistogramRecorder, NetCounts, TelemetryConfig};
use smbm_runtime::{
    run_loadgen, FaultPlan, FlightConfig, LoadgenConfig, Model, RuntimeBuilder, RuntimeConfig,
    RuntimeReport, SendOutcome, ShardConfig, VirtualClock,
};
use smbm_switch::{DropReason, PortId, Work, WorkPacket, WorkSwitchConfig};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("smbm-telemetry-{}-{name}", std::process::id()));
    p
}

/// Asserts that the final telemetry sample tells the same story as the
/// report's `Counters`: arrivals, admissions and every drop reason.
fn assert_final_sample_matches_counters(report: &RuntimeReport) {
    let c = report.counters();
    let last = report
        .telemetry
        .as_ref()
        .and_then(|t| t.last())
        .expect("final sample");
    assert_eq!(last.total.arrived, c.arrived(), "arrived");
    assert_eq!(last.total.arrived_value, c.arrived_value(), "arrived_value");
    assert_eq!(last.total.admitted, c.admitted(), "admitted");
    for r in DropReason::ALL {
        assert_eq!(
            last.total.dropped[r.index()],
            c.dropped_for(r),
            "dropped {}",
            r.label()
        );
    }
}

/// Asserts that the shards' histogram metrics, summed, count the same
/// arrivals, admissions and per-reason drops as the report's `Counters`.
fn assert_metrics_match_counters(report: &RuntimeReport) {
    let c = report.counters();
    let metrics: Vec<_> = report
        .shards
        .iter()
        .map(|s| s.metrics.as_ref().expect("metrics recorded"))
        .collect();
    let sum = |f: &dyn Fn(&HistogramRecorder) -> u64| metrics.iter().map(|m| f(m)).sum::<u64>();
    assert_eq!(sum(&|m| m.arrivals()), c.arrived(), "arrivals");
    assert_eq!(sum(&|m| m.admitted_packets()), c.admitted(), "admitted");
    for r in DropReason::ALL {
        assert_eq!(
            sum(&|m| m.drop_count(r)),
            c.dropped_for(r),
            "dropped {}",
            r.label()
        );
    }
}

/// A runtime with telemetry and histogram metrics on, for LWD shards
/// (2 ports, B = 8).
fn telemetry_builder(ring_capacity: usize, shard: ShardConfig) -> RuntimeBuilder<WorkRunner<Lwd>> {
    RuntimeBuilder::new(RuntimeConfig {
        ring_capacity,
        shard,
        record_metrics: true,
        telemetry: Some(TelemetryConfig {
            interval: Duration::from_secs(3600),
            ..TelemetryConfig::default()
        }),
        ..RuntimeConfig::default()
    })
}

fn lwd_shard() -> WorkRunner<Lwd> {
    WorkRunner::new(WorkSwitchConfig::contiguous(2, 8).unwrap(), Lwd::new(), 1)
}

fn wp(port: usize) -> WorkPacket {
    WorkPacket::new(PortId::new(port), Work::new(port as u32 + 1))
}

fn loadgen_config(shards: usize) -> LoadgenConfig {
    LoadgenConfig {
        model: Model::Work,
        policy: "LWD".to_owned(),
        ports: 4,
        buffer: 32,
        shards,
        slots: 2_000,
        sources: 20,
        batch: 64,
        ..LoadgenConfig::default()
    }
}

#[test]
fn four_shard_snapshots_reconcile_with_the_final_report() {
    let stats = temp_path("stats.jsonl");
    let prom = temp_path("prom.txt");
    let mut cfg = loadgen_config(4);
    cfg.telemetry = Some(TelemetryConfig {
        interval: Duration::from_millis(5),
        stats_out: Some(stats.clone()),
        prom_out: Some(prom.clone()),
        ..TelemetryConfig::default()
    });
    let report = run_loadgen(&cfg).unwrap();
    assert!(
        report.runtime.obs_errors.is_empty(),
        "{:?}",
        report.runtime.obs_errors
    );

    let c = report.counters();
    assert!(c.check_conservation(0).is_ok());
    assert!(c.check_value_conservation(0).is_ok());

    let telemetry = report.runtime.telemetry.as_ref().expect("telemetry ran");
    assert!(telemetry.ticks >= 2, "initial + final sample at minimum");
    assert_eq!(telemetry.samples.len() as u64, telemetry.ticks);

    // Per-field monotonicity across the retained time series: cumulative
    // counters never step backwards between samples.
    for pair in telemetry.samples.windows(2) {
        assert!(pair[1].total.arrived >= pair[0].total.arrived);
        assert!(pair[1].total.transmitted >= pair[0].total.transmitted);
        assert!(pair[1].total.slots >= pair[0].total.slots);
    }

    // The final sample is taken after every shard thread has joined, so it
    // must reconcile *exactly* with the report's switch counters — packet
    // and value conservation between the two accounting systems.
    let last = telemetry.last().expect("final sample");
    assert_eq!(last.shards.len(), 4);
    assert_eq!(last.total.arrived, c.arrived());
    assert_eq!(last.total.arrived_value, c.arrived_value());
    assert_eq!(last.total.admitted, c.admitted());
    assert_eq!(last.total.transmitted, c.transmitted());
    assert_eq!(last.total.transmitted_value, c.transmitted_value());
    assert_eq!(last.total.pushed_out, c.pushed_out());
    for r in DropReason::ALL {
        assert_eq!(
            last.total.dropped[r.index()],
            c.dropped_for(r),
            "{}",
            r.label()
        );
    }
    assert_eq!(last.total.latency.count(), c.transmitted());
    assert_eq!(last.total.buffer_limit, 4 * 32, "4 shards x B=32");
    assert_eq!(last.total.ports, 4 * 4);

    // The JSONL sink carries the same series: >= 2 periodic snapshots, and
    // the last one holds the exact final totals.
    let jsonl = std::fs::read_to_string(&stats).unwrap();
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() >= 2, "expected >= 2 snapshots, got {lines:?}");
    for line in &lines {
        assert!(line.starts_with("{\"type\":\"telemetry\""), "{line}");
    }
    let final_line = lines.last().unwrap();
    assert!(
        final_line.contains(&format!("\"arrived\":{}", c.arrived())),
        "final snapshot must carry the exact cumulative arrival count"
    );
    assert!(final_line.contains(&format!("\"transmitted\":{}", c.transmitted())));

    // The Prometheus dump names every shard.
    let text = std::fs::read_to_string(&prom).unwrap();
    assert!(text.contains("# TYPE smbm_packets_total counter"), "{text}");
    for shard in 0..4 {
        assert!(
            text.contains(&format!(
                "smbm_packets_total{{shard=\"{shard}\",stage=\"arrived\"}}"
            )),
            "{text}"
        );
    }
    assert!(text.contains("smbm_latency_slots{shard=\"0\",quantile=\"0.99\"}"));
    assert!(text.contains("# TYPE smbm_buffer_occupancy gauge"));

    let _ = std::fs::remove_file(stats);
    let _ = std::fs::remove_file(prom);
}

#[test]
fn net_decode_drops_reconcile_with_telemetry() {
    let mut b = telemetry_builder(4, ShardConfig::lockstep());
    let ids = [b.add_shard(lwd_shard), b.add_shard(lwd_shard)];
    b.add_producer_fanout(&ids, |handles| {
        for h in handles.iter_mut() {
            assert!(h.send(vec![wp(0), wp(1)]));
        }
        // One datagram carried shard 0's two frames; a third failed
        // validation and never reached a ring.
        handles[0].record_net(
            NetCounts {
                datagrams: 1,
                frames: 2,
                decode_errors: 1,
                truncations: 0,
            },
            1,
        );
    });
    let report = b.run(|_| VirtualClock::new());
    let c = report.counters();
    assert_eq!(c.arrived(), 5, "4 delivered + 1 net-decode drop");
    assert_eq!(c.dropped_for(DropReason::NetDecode), 1);
    assert_final_sample_matches_counters(&report);
    assert_metrics_match_counters(&report);
    let metrics = |i: usize| report.shards[i].metrics.as_ref().expect("metrics recorded");
    assert_eq!(metrics(0).arrivals(), 3, "the drop lands on its own shard");
    assert_eq!(metrics(0).drop_count(DropReason::NetDecode), 1);
    assert_eq!(metrics(1).drop_count(DropReason::NetDecode), 0);
}

#[test]
fn backpressure_drops_reconcile_with_telemetry() {
    let mut b = telemetry_builder(1, ShardConfig::freerun());
    let id = b.add_shard(lwd_shard);
    b.add_producer(id, |h| {
        for _ in 0..5_000 {
            if h.try_send(vec![wp(0)]) == SendOutcome::Disconnected {
                panic!("shard vanished");
            }
        }
    });
    let report = b.run(|_| VirtualClock::new());
    let c = report.counters();
    assert_eq!(c.arrived(), 5_000, "offered = through + backpressure");
    assert!(
        c.dropped_for(DropReason::Backpressure) > 0,
        "a 1-deep ring must bounce at least once"
    );
    assert_final_sample_matches_counters(&report);
    assert_metrics_match_counters(&report);
}

#[test]
fn chaos_panic_leaves_a_flight_dump_naming_the_dead_shard() {
    let flight = temp_path("flight.jsonl");
    let mut cfg = loadgen_config(2);
    cfg.faults = FaultPlan::parse("panic@3#1").unwrap();
    cfg.flight = Some(FlightConfig::new(&flight));
    let report = run_loadgen(&cfg).unwrap();

    assert_eq!(report.runtime.shard_panics, 1);
    assert_eq!(report.runtime.flight_dumps(), 1);
    assert_eq!(report.runtime.shards[1].flight_dumps, 1);
    assert_eq!(report.runtime.shards[0].flight_dumps, 0);
    assert!(report.counters().check_conservation(0).is_ok());

    let dump = std::fs::read_to_string(&flight).unwrap();
    let _ = std::fs::remove_file(&flight);
    let header = dump.lines().next().expect("dump header");
    assert!(header.starts_with("{\"type\":\"flight_dump\""), "{header}");
    assert!(header.contains("\"shard\":1"), "{header}");
    assert!(header.contains("\"reason\":\"panic\""), "{header}");
    // The retained tail is tagged with the dying shard and includes the
    // panic event itself.
    assert!(dump.contains("\"shard\":\"1\""), "{dump}");
    assert!(dump.contains("\"type\":\"shard_panic\""), "{dump}");
}

#[test]
fn exhausted_budget_leaves_panic_and_gave_up_dumps() {
    let flight = temp_path("flight-gave-up.jsonl");
    let mut cfg = loadgen_config(1);
    cfg.faults = FaultPlan::parse("panic@1,panic@2,panic@3").unwrap();
    cfg.restart_budget = 1;
    cfg.flight = Some(FlightConfig::new(&flight));
    let report = run_loadgen(&cfg).unwrap();

    assert_eq!(report.runtime.shards_gave_up(), 1);
    // Two panics within a budget of one: dumps for both deaths plus the
    // give-up marker.
    assert_eq!(report.runtime.flight_dumps(), 3);

    let dump = std::fs::read_to_string(&flight).unwrap();
    let _ = std::fs::remove_file(&flight);
    assert_eq!(dump.matches("\"reason\":\"panic\"").count(), 2);
    assert_eq!(dump.matches("\"reason\":\"gave_up\"").count(), 1);
    assert!(dump.contains("\"type\":\"shard_failed\""));
}
