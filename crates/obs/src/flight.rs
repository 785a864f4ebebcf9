//! The crash flight recorder: a bounded per-shard ring of recent observer
//! events that the runtime supervisor dumps post-mortem when a shard dies,
//! so every `ShardFailure` ships with its trailing event context.

use crate::{escape_json, DropReason, Event, NetCounts, Observer, RingEventLog};
use smbm_switch::PortId;

/// A fixed-size ring of the last N structured events on one shard.
///
/// The recorder is an ordinary [`Observer`]: compose it into the shard's
/// observer stack and it passively tracks the tail of the event stream at
/// O(1) per event. It records nothing to disk on its own — the supervisor
/// calls [`FlightRecorder::render_dump`] when the shard panics or exhausts
/// its restart budget and appends the result to the post-mortem JSONL file.
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    shard: usize,
    ring: RingEventLog,
}

impl FlightRecorder {
    /// Creates a recorder for `shard` keeping at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(shard: usize, capacity: usize) -> Self {
        FlightRecorder {
            shard,
            ring: RingEventLog::new(capacity),
        }
    }

    /// The shard this recorder belongs to.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// The underlying event ring.
    pub fn ring(&self) -> &RingEventLog {
        &self.ring
    }

    /// Renders a post-mortem dump: one header line naming the dead shard
    /// and why it died, followed by the retained events (oldest first),
    /// each tagged with the shard id. `attempt` is the restart attempt the
    /// death occurred on (0 for the first incarnation) and `orphans` the
    /// ring backlog stranded by the death.
    pub fn render_dump(&self, reason: &str, slot: u64, attempt: u64, orphans: u64) -> String {
        self.render_dump_with_net(reason, slot, attempt, orphans, None)
    }

    /// Like [`FlightRecorder::render_dump`], but the header additionally
    /// carries the net ingress tallies of the sockets feeding the dead
    /// shard — so a post-mortem of a network-fed shard shows how much wire
    /// traffic (and how many decode failures) preceded the death.
    pub fn render_dump_with_net(
        &self,
        reason: &str,
        slot: u64,
        attempt: u64,
        orphans: u64,
        net: Option<&NetCounts>,
    ) -> String {
        let shard_label = self.shard.to_string();
        let net_field = match net {
            Some(n) => format!(",\"net\":{}", n.to_json()),
            None => String::new(),
        };
        let mut out = format!(
            "{{\"type\":\"flight_dump\",\"shard\":{},\"reason\":\"{}\",\"slot\":{},\
             \"attempt\":{},\"orphans\":{},\"events\":{},\"events_dropped\":{}{}}}\n",
            self.shard,
            escape_json(reason),
            slot,
            attempt,
            orphans,
            self.ring.len(),
            self.ring
                .total_recorded()
                .saturating_sub(self.ring.len() as u64),
            net_field,
        );
        out.push_str(&self.ring.to_jsonl_with(&[("shard", &shard_label)]));
        out
    }
}

impl Observer for FlightRecorder {
    fn arrival(&mut self, slot: u64, port: PortId, work: u32, value: u64) {
        self.ring.push(Event::Arrival {
            slot,
            port,
            work,
            value,
        });
    }

    fn admitted(&mut self, slot: u64, port: PortId) {
        self.ring.push(Event::Admitted { slot, port });
    }

    fn dropped(&mut self, slot: u64, port: PortId, reason: DropReason) {
        self.ring.push(Event::Dropped { slot, port, reason });
    }

    fn pushed_out(&mut self, slot: u64, victim: PortId) {
        self.ring.push(Event::PushedOut { slot, victim });
    }

    fn transmitted(&mut self, slot: u64, port: PortId, latency: u64, value: u64) {
        self.ring.push(Event::Transmitted {
            slot,
            port,
            latency,
            value,
        });
    }

    fn flush(&mut self, slot: u64, discarded: u64) {
        self.ring.push(Event::Flush { slot, discarded });
    }

    fn drain_start(&mut self, slot: u64) {
        self.ring.push(Event::DrainStart { slot });
    }

    fn drain_end(&mut self, slot: u64) {
        self.ring.push(Event::DrainEnd { slot });
    }

    fn slot_end(&mut self, slot: u64, occupancy: usize) {
        self.ring.push(Event::SlotEnd {
            slot,
            occupancy: occupancy as u64,
        });
    }

    fn shard_panicked(&mut self, slot: u64, orphans: u64) {
        self.ring.push(Event::ShardPanic { slot, orphans });
    }

    fn shard_restarted(&mut self, slot: u64, attempt: u64) {
        self.ring.push(Event::ShardRestart { slot, attempt });
    }

    fn shard_failed(&mut self, slot: u64, orphans: u64) {
        self.ring.push(Event::ShardFailed { slot, orphans });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dump_names_the_dead_shard_and_tags_events() {
        let mut fr = FlightRecorder::new(3, 8);
        fr.arrival(10, PortId::new(1), 1, 4);
        fr.admitted(10, PortId::new(1));
        fr.shard_panicked(10, 2);
        let dump = fr.render_dump("panic", 10, 1, 2);
        let lines: Vec<&str> = dump.lines().collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(
            lines[0],
            "{\"type\":\"flight_dump\",\"shard\":3,\"reason\":\"panic\",\"slot\":10,\
             \"attempt\":1,\"orphans\":2,\"events\":3,\"events_dropped\":0}"
        );
        assert!(lines[1].starts_with("{\"shard\":\"3\",\"type\":\"arrival\""));
        assert_eq!(
            lines[3],
            "{\"shard\":\"3\",\"type\":\"shard_panic\",\"slot\":10,\"orphans\":2}"
        );
    }

    #[test]
    fn dump_header_carries_net_counts_when_given() {
        let mut fr = FlightRecorder::new(1, 4);
        fr.shard_panicked(5, 0);
        let net = NetCounts {
            datagrams: 9,
            frames: 72,
            decode_errors: 3,
            truncations: 1,
        };
        let dump = fr.render_dump_with_net("panic", 5, 0, 0, Some(&net));
        let header = dump.lines().next().unwrap();
        assert!(
            header.contains(
                "\"net\":{\"datagrams\":9,\"frames\":72,\"decode_errors\":3,\"truncations\":1}"
            ),
            "{header}"
        );
        // The plain form stays byte-identical to the pre-net format.
        let plain = fr.render_dump("panic", 5, 0, 0);
        assert!(!plain.contains("\"net\""));
    }

    #[test]
    fn ring_keeps_the_newest_tail() {
        let mut fr = FlightRecorder::new(0, 4);
        for slot in 0..10 {
            fr.slot_end(slot, 0);
        }
        let dump = fr.render_dump("gave_up", 9, 2, 0);
        assert!(dump.starts_with(
            "{\"type\":\"flight_dump\",\"shard\":0,\"reason\":\"gave_up\",\"slot\":9,\
             \"attempt\":2,\"orphans\":0,\"events\":4,\"events_dropped\":6}"
        ));
        assert!(dump.contains("\"slot\":6"));
        assert!(!dump.contains("\"slot\":5,"), "oldest events evicted");
        assert_eq!(fr.shard(), 0);
        assert_eq!(fr.ring().len(), 4);
    }
}
