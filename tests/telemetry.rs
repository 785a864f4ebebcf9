//! Telemetry-plane acceptance: live snapshots must reconcile exactly with
//! the datapath's final report — on clean runs, with edge drops, and on
//! faulted runs whose losses the supervisor books — and shard deaths must
//! leave a post-mortem.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use smbm_core::{Lwd, WorkRunner};
use smbm_datapath::DatapathSystem;
use smbm_obs::{NetCounts, TelemetryConfig};
use smbm_runtime::{
    run_loadgen, FaultPlan, FlightConfig, LoadgenConfig, Model, RuntimeBuilder, RuntimeConfig,
    RuntimeReport, SendOutcome, ShardConfig, SupervisionConfig, VirtualClock,
};
use smbm_switch::{
    AdmitError, ArrivalOutcome, Counters, DropReason, PortId, Transmitted, Work, WorkPacket,
    WorkSwitchConfig,
};

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

/// A runtime with telemetry on, for LWD shards (2 ports, B = 8).
fn telemetry_builder(ring_capacity: usize, shard: ShardConfig) -> RuntimeBuilder<WorkRunner<Lwd>> {
    RuntimeBuilder::new(RuntimeConfig {
        ring_capacity,
        shard,
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
    let last = report.telemetry.as_ref().and_then(|t| t.last()).unwrap();
    let net_decode = |i: usize| last.shards[i].dropped[DropReason::NetDecode.index()];
    assert_eq!(last.shards[0].arrived, 3, "the drop lands on its own shard");
    assert_eq!(net_decode(0), 1);
    assert_eq!(net_decode(1), 0);
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
}

/// The LWD shard of [`lwd_shard`], which panics when asked to offer its
/// `panic_on`-th packet (0-based) when armed: a death in the middle of a
/// slot's arrival phase, after the slot's earlier packets were decided.
struct PanicOnOffer {
    inner: WorkRunner<Lwd>,
    panic_on: Option<u64>,
    offered: u64,
}

impl DatapathSystem for PanicOnOffer {
    type Packet = WorkPacket;

    fn label(&self) -> String {
        self.inner.label()
    }

    fn meta(pkt: WorkPacket) -> (PortId, u32, u64) {
        WorkRunner::<Lwd>::meta(pkt)
    }

    fn offer(&mut self, pkt: WorkPacket) -> Result<ArrivalOutcome, AdmitError> {
        if self.panic_on == Some(self.offered) {
            panic!("injected fault: offer of packet {}", self.offered);
        }
        self.offered += 1;
        self.inner.offer(pkt)
    }

    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        self.inner.transmission_phase_into(out)
    }

    fn end_slot(&mut self) {
        self.inner.end_slot();
    }

    fn flush(&mut self) -> u64 {
        self.inner.flush()
    }

    fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }

    fn score(&self) -> u64 {
        self.inner.score()
    }

    fn buffer_limit(&self) -> usize {
        self.inner.buffer_limit()
    }

    fn ports(&self) -> usize {
        self.inner.ports()
    }

    fn max_queue_depth(&self) -> usize {
        self.inner.max_queue_depth()
    }

    fn counters(&self) -> Counters {
        self.inner.counters()
    }
}

/// Bursts the faulted runs send, one per slot.
const BURSTS: usize = 200;

/// Four packets a slot, two per port: more than the 1.5 packets a slot the
/// two ports transmit, so the buffer fills, pushes out and drops.
fn bursts() -> Vec<Vec<WorkPacket>> {
    (0..BURSTS)
        .map(|i| (0..4).map(|j| wp((i + j) % 2)).collect())
        .collect()
}

/// Runs [`bursts`] through one lockstep shard with telemetry on, the given
/// fault plan and restart budget and, in the first incarnation only, a
/// panic on offered packet `panic_on`. The shard starts once every burst
/// is queued in a ring deep enough to hold them all, so each plan dies at
/// the same point, with the same backlog, on every run.
fn faulted_run(faults: &str, budget: u32, panic_on: Option<u64>) -> RuntimeReport {
    let mut b = RuntimeBuilder::new(RuntimeConfig {
        ring_capacity: BURSTS,
        shard: ShardConfig::lockstep(),
        faults: FaultPlan::parse(faults).unwrap(),
        supervision: SupervisionConfig::immediate(budget),
        telemetry: Some(TelemetryConfig {
            interval: Duration::from_secs(3600),
            ..TelemetryConfig::default()
        }),
        ..RuntimeConfig::default()
    });
    // The producer's release store after its last send pairs with the
    // factory's acquire load: the shard is built only after every burst is
    // in the ring.
    let queued = Arc::new(AtomicBool::new(false));
    let gate = Arc::clone(&queued);
    let incarnations = AtomicU32::new(0);
    let id = b.add_shard(move || {
        let deadline = Instant::now() + Duration::from_secs(60);
        while !gate.load(Ordering::Acquire) {
            assert!(Instant::now() < deadline, "the producer never queued");
            std::thread::yield_now();
        }
        let first = incarnations.fetch_add(1, Ordering::Relaxed) == 0;
        PanicOnOffer {
            inner: lwd_shard(),
            panic_on: panic_on.filter(|_| first),
            offered: 0,
        }
    });
    b.add_producer(id, move |h| {
        for burst in bursts() {
            assert!(h.send(burst));
        }
        queued.store(true, Ordering::Release);
    });
    b.run(|_| VirtualClock::new())
}

/// Asserts the final sample equals the report's counters on every packet
/// tally. The counters count flushed packets as push-outs, so the
/// sample's push-outs and flushes together match the counters' push-outs.
fn assert_faulted_run_reconciles(report: &RuntimeReport) {
    let c = report.counters();
    assert!(c.check_conservation(0).is_ok());
    assert!(c.check_value_conservation(0).is_ok());
    assert_final_sample_matches_counters(report);
    let last = report.telemetry.as_ref().and_then(|t| t.last()).unwrap();
    assert_eq!(last.total.transmitted, c.transmitted(), "transmitted");
    assert_eq!(
        last.total.transmitted_value,
        c.transmitted_value(),
        "transmitted_value"
    );
    assert_eq!(
        last.total.pushed_out + last.total.flushed,
        c.pushed_out(),
        "pushed_out + flushed"
    );
    assert_eq!(last.total.panics, report.shard_panics as u64);
    assert!(last.total.flushed > 0, "the dead buffer held packets");
}

#[test]
fn restarted_shard_reconciles_with_telemetry() {
    let report = faulted_run("panic@50", 1, None);
    assert_eq!(report.restarts(), 1);
    assert_eq!(report.counters().arrived(), 4 * BURSTS as u64);
    assert_faulted_run_reconciles(&report);
}

#[test]
fn abandoned_shard_reconciles_with_telemetry() {
    let report = faulted_run("panic@50", 0, None);
    assert_eq!(report.shards_gave_up(), 1);
    assert_eq!(report.lost_packets(), 0, "every burst was queued in time");
    assert_eq!(
        report.counters().dropped_for(DropReason::ShardFailure),
        4 * (BURSTS as u64 - 50),
        "the supervisor drains the backlog of bursts 50.."
    );
    assert_faulted_run_reconciles(&report);
}

#[test]
fn mid_slot_panic_reconciles_with_telemetry() {
    // Packet 202 is the third of burst 50: the dying slot had already
    // decided two packets when the incarnation died.
    let report = faulted_run("", 1, Some(4 * 50 + 2));
    assert_eq!(report.restarts(), 1);
    assert_eq!(
        report.counters().dropped_for(DropReason::ShardFailure),
        4,
        "the dying slot's burst"
    );
    assert_faulted_run_reconciles(&report);
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
