//! Liveness of the freerun shard. A transmit-only slot (nothing claimed,
//! backlog buffered) offers the CPU to the producers after it runs, but it
//! must never wait on the ring: a shard whose ring stays open and empty
//! still drains its backlog. CI runs this pinned to one CPU, where a shard
//! that held on to the CPU, or slept through its backlog, would show.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use smbm_core::{Lwd, WorkRunner};
use smbm_obs::TelemetryConfig;
use smbm_runtime::{RuntimeBuilder, RuntimeConfig, ShardConfig, VirtualClock};
use smbm_switch::{PortId, Work, WorkPacket, WorkSwitchConfig};

/// Far longer than a drain of a few dozen slots takes on any host.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// The value of the Prometheus series `name` (with its labels) in `text`.
fn series(text: &str, name: &str) -> Option<u64> {
    text.lines()
        .find_map(|line| line.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
}

#[test]
fn backlog_drains_while_the_ring_stays_open() {
    let prom: PathBuf =
        std::env::temp_dir().join(format!("smbm-liveness-{}.prom", std::process::id()));
    let mut b = RuntimeBuilder::new(RuntimeConfig {
        ring_capacity: 4,
        shard: ShardConfig::freerun(),
        telemetry: Some(TelemetryConfig {
            interval: Duration::from_millis(2),
            prom_out: Some(prom.clone()),
            ..TelemetryConfig::default()
        }),
        ..RuntimeConfig::default()
    });
    // Four ports needing 1..=4 cycles per packet; one burst of four packets
    // per port fits the buffer whole, and port 3 alone takes 16 slots to
    // transmit, so all but the first slot are transmit-only.
    let id = b
        .add_shard(|| WorkRunner::new(WorkSwitchConfig::contiguous(4, 32).unwrap(), Lwd::new(), 1));
    let drained = Arc::new(AtomicBool::new(false));
    let seen = Arc::clone(&drained);
    let watched = prom.clone();
    b.add_producer(id, move |h| {
        let burst: Vec<WorkPacket> = (0..16)
            .map(|i| WorkPacket::new(PortId::new(i % 4), Work::new(i as u32 % 4 + 1)))
            .collect();
        assert!(h.send(burst));
        // Hold the ring open, sending nothing, until the telemetry shows
        // every admitted packet transmitted and the buffer empty.
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while Instant::now() < deadline {
            let text = std::fs::read_to_string(&watched).unwrap_or_default();
            let admitted = series(&text, "smbm_packets_total{shard=\"0\",stage=\"admitted\"}");
            let transmitted = series(
                &text,
                "smbm_packets_total{shard=\"0\",stage=\"transmitted\"}",
            );
            let occupancy = series(&text, "smbm_buffer_occupancy{shard=\"0\"}");
            if admitted == Some(16) && transmitted == Some(16) && occupancy == Some(0) {
                seen.store(true, Ordering::Relaxed);
                return;
            }
            thread::sleep(Duration::from_millis(1));
        }
    });
    let report = b.run(|_| VirtualClock::new());
    let _ = std::fs::remove_file(&prom);

    assert!(
        drained.load(Ordering::Relaxed),
        "the backlog did not drain within {DRAIN_TIMEOUT:?} while the ring stayed open"
    );
    let c = report.counters();
    assert_eq!(c.admitted(), 16);
    assert_eq!(c.transmitted(), 16);
    assert!(report.obs_errors.is_empty(), "{:?}", report.obs_errors);
}
