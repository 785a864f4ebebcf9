//! Shutdown robustness: a producer dying mid-run must not wedge the
//! datapath. The shard drains whatever was already queued, the dead
//! producer's partial tallies survive, and every thread joins.

use std::time::{Duration, Instant};

use smbm_core::{Lwd, WorkRunner};
use smbm_runtime::{RuntimeBuilder, RuntimeConfig, ShardConfig, VirtualClock};
use smbm_switch::{PortId, Work, WorkPacket, WorkSwitchConfig};

fn burst(port: usize) -> Vec<WorkPacket> {
    vec![WorkPacket::new(PortId::new(port), Work::new(port as u32 + 1)); 4]
}

#[test]
fn producer_panic_mid_run_drains_and_joins() {
    let started = Instant::now();
    let mut b = RuntimeBuilder::new(RuntimeConfig {
        ring_capacity: 4,
        shard: ShardConfig::freerun(),
        record_metrics: false,
        ..RuntimeConfig::default()
    });
    let id = b.add_shard(|| {
        let cfg = WorkSwitchConfig::contiguous(4, 32).unwrap();
        WorkRunner::new(cfg, Lwd::new(), 1)
    });
    // One healthy producer and one that panics after its tenth batch.
    b.add_producer(id, |h| {
        for _ in 0..50 {
            assert!(h.send(burst(0)));
        }
    });
    b.add_producer(id, |h| {
        for i in 0..50 {
            assert!(h.send(burst(1)));
            if i == 9 {
                panic!("injected producer failure");
            }
        }
    });
    let report = b.run(|_| VirtualClock::new());

    assert_eq!(report.producer_panics(), 1);
    assert_eq!(report.shard_panics, 0);
    let healthy = &report.producers[0];
    let dead = &report.producers[1];
    assert!(!healthy.panicked);
    assert!(dead.panicked);
    assert_eq!(healthy.sent_packets, 200);
    assert_eq!(dead.sent_packets, 40, "partial tallies survive the panic");

    let c = report.counters();
    assert_eq!(c.arrived(), 240, "everything queued reached the switch");
    // Policy drops and push-outs are legitimate under this overload; what
    // drain guarantees is that no admitted packet is still sitting in the
    // buffer, i.e. conservation closes with zero residents.
    assert_eq!(
        c.transmitted() + c.pushed_out(),
        c.admitted(),
        "the shard drained before joining"
    );
    assert!(c.check_conservation(0).is_ok());
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "join took too long — deadlock suspected"
    );
}
