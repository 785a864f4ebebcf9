//! Bounded structured event log with JSONL export.

use crate::{escape_json, DropReason, Observer};
use smbm_switch::PortId;

/// One structured engine event, as recorded by [`RingEventLog`].
///
/// Phase boundary hooks are intentionally not logged (they carry no packet
/// information and would dominate the ring); everything else is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A packet was offered.
    Arrival {
        /// Engine slot counter.
        slot: u64,
        /// Destination port.
        port: PortId,
        /// Required processing cycles.
        work: u32,
        /// Intrinsic value.
        value: u64,
    },
    /// The offered packet entered the buffer.
    Admitted {
        /// Engine slot counter.
        slot: u64,
        /// Destination port.
        port: PortId,
    },
    /// The offered packet was rejected.
    Dropped {
        /// Engine slot counter.
        slot: u64,
        /// Destination port.
        port: PortId,
        /// Why it was rejected.
        reason: DropReason,
    },
    /// A resident packet was evicted.
    PushedOut {
        /// Engine slot counter.
        slot: u64,
        /// Queue that lost a packet.
        victim: PortId,
    },
    /// A packet left the switch.
    Transmitted {
        /// Engine slot counter.
        slot: u64,
        /// Source queue.
        port: PortId,
        /// Slots spent in the buffer.
        latency: u64,
        /// Intrinsic value.
        value: u64,
    },
    /// A periodic flushout discarded the buffer.
    Flush {
        /// Engine slot counter.
        slot: u64,
        /// Packets discarded.
        discarded: u64,
    },
    /// A zero-arrival drain began.
    DrainStart {
        /// Engine slot counter.
        slot: u64,
    },
    /// The drain emptied the buffer.
    DrainEnd {
        /// Engine slot counter.
        slot: u64,
    },
    /// A slot ended.
    SlotEnd {
        /// Engine slot counter.
        slot: u64,
        /// Buffer occupancy after the transmission phase.
        occupancy: u64,
    },
    /// A supervised shard incarnation died (runtime datapath only).
    ShardPanic {
        /// Shard slot counter at the time of death.
        slot: u64,
        /// Packets still queued in the shard's ingress rings.
        orphans: u64,
    },
    /// The supervisor restarted the dead shard.
    ShardRestart {
        /// Shard slot counter at the time of death.
        slot: u64,
        /// 1-based restart attempt against the budget.
        attempt: u64,
    },
    /// The supervisor exhausted its restart budget and abandoned the shard.
    ShardFailed {
        /// Shard slot counter at the time of the final death.
        slot: u64,
        /// Ring packets dropped as shard-failure losses.
        orphans: u64,
    },
}

impl Event {
    /// Renders the event as one JSON object, optionally prefixed with extra
    /// `"key":"value"` string fields (used to tag events with a policy name).
    fn write_json(&self, out: &mut String, extra: &[(&str, &str)]) {
        out.push('{');
        for (k, v) in extra {
            out.push_str(&format!("\"{}\":\"{}\",", escape_json(k), escape_json(v)));
        }
        match *self {
            Event::Arrival {
                slot,
                port,
                work,
                value,
            } => out.push_str(&format!(
                "\"type\":\"arrival\",\"slot\":{slot},\"port\":{},\"work\":{work},\"value\":{value}",
                port.index()
            )),
            Event::Admitted { slot, port } => out.push_str(&format!(
                "\"type\":\"admitted\",\"slot\":{slot},\"port\":{}",
                port.index()
            )),
            Event::Dropped { slot, port, reason } => out.push_str(&format!(
                "\"type\":\"dropped\",\"slot\":{slot},\"port\":{},\"reason\":\"{}\"",
                port.index(),
                reason.label()
            )),
            Event::PushedOut { slot, victim } => out.push_str(&format!(
                "\"type\":\"pushed_out\",\"slot\":{slot},\"victim\":{}",
                victim.index()
            )),
            Event::Transmitted {
                slot,
                port,
                latency,
                value,
            } => out.push_str(&format!(
                "\"type\":\"transmitted\",\"slot\":{slot},\"port\":{},\"latency\":{latency},\"value\":{value}",
                port.index()
            )),
            Event::Flush { slot, discarded } => out.push_str(&format!(
                "\"type\":\"flush\",\"slot\":{slot},\"discarded\":{discarded}"
            )),
            Event::DrainStart { slot } => {
                out.push_str(&format!("\"type\":\"drain_start\",\"slot\":{slot}"))
            }
            Event::DrainEnd { slot } => {
                out.push_str(&format!("\"type\":\"drain_end\",\"slot\":{slot}"))
            }
            Event::SlotEnd { slot, occupancy } => out.push_str(&format!(
                "\"type\":\"slot_end\",\"slot\":{slot},\"occupancy\":{occupancy}"
            )),
            Event::ShardPanic { slot, orphans } => out.push_str(&format!(
                "\"type\":\"shard_panic\",\"slot\":{slot},\"orphans\":{orphans}"
            )),
            Event::ShardRestart { slot, attempt } => out.push_str(&format!(
                "\"type\":\"shard_restart\",\"slot\":{slot},\"attempt\":{attempt}"
            )),
            Event::ShardFailed { slot, orphans } => out.push_str(&format!(
                "\"type\":\"shard_failed\",\"slot\":{slot},\"orphans\":{orphans}"
            )),
        }
        out.push('}');
    }
}

/// A bounded in-memory event buffer: keeps the most recent `capacity`
/// events, overwriting the oldest once full (so long runs stay bounded
/// while the interesting tail survives).
#[derive(Debug, Clone)]
pub struct RingEventLog {
    buf: Vec<Event>,
    capacity: usize,
    /// Index of the oldest event once the ring has wrapped.
    head: usize,
    total: u64,
}

impl RingEventLog {
    /// Creates a log keeping at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "event log capacity must be positive");
        RingEventLog {
            buf: Vec::with_capacity(capacity.min(1 << 16)),
            capacity,
            head: 0,
            total: 0,
        }
    }

    /// Appends an event, evicting the oldest when at capacity.
    pub fn push(&mut self, event: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.head] = event;
            self.head = (self.head + 1) % self.capacity;
        }
        self.total += 1;
    }

    /// Events currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no events have been retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Maximum retained events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events ever pushed (retained or overwritten).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }

    /// Renders the retained events as JSON Lines, oldest first.
    pub fn to_jsonl(&self) -> String {
        self.to_jsonl_with(&[])
    }

    /// Like [`RingEventLog::to_jsonl`], prefixing every line with the given
    /// string fields (e.g. `[("policy", "LWD")]`).
    pub fn to_jsonl_with(&self, extra: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for e in self.events() {
            e.write_json(&mut out, extra);
            out.push('\n');
        }
        out
    }
}

impl Observer for RingEventLog {
    fn arrival(&mut self, slot: u64, port: PortId, work: u32, value: u64) {
        self.push(Event::Arrival {
            slot,
            port,
            work,
            value,
        });
    }

    fn admitted(&mut self, slot: u64, port: PortId) {
        self.push(Event::Admitted { slot, port });
    }

    fn dropped(&mut self, slot: u64, port: PortId, reason: DropReason) {
        self.push(Event::Dropped { slot, port, reason });
    }

    fn pushed_out(&mut self, slot: u64, victim: PortId) {
        self.push(Event::PushedOut { slot, victim });
    }

    fn transmitted(&mut self, slot: u64, port: PortId, latency: u64, value: u64) {
        self.push(Event::Transmitted {
            slot,
            port,
            latency,
            value,
        });
    }

    fn flush(&mut self, slot: u64, discarded: u64) {
        self.push(Event::Flush { slot, discarded });
    }

    fn drain_start(&mut self, slot: u64) {
        self.push(Event::DrainStart { slot });
    }

    fn drain_end(&mut self, slot: u64) {
        self.push(Event::DrainEnd { slot });
    }

    fn slot_end(&mut self, slot: u64, occupancy: usize) {
        self.push(Event::SlotEnd {
            slot,
            occupancy: occupancy as u64,
        });
    }

    fn shard_panicked(&mut self, slot: u64, orphans: u64) {
        self.push(Event::ShardPanic { slot, orphans });
    }

    fn shard_restarted(&mut self, slot: u64, attempt: u64) {
        self.push(Event::ShardRestart { slot, attempt });
    }

    fn shard_failed(&mut self, slot: u64, orphans: u64) {
        self.push(Event::ShardFailed { slot, orphans });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slot_end(slot: u64) -> Event {
        Event::SlotEnd { slot, occupancy: 0 }
    }

    #[test]
    fn keeps_everything_under_capacity() {
        let mut log = RingEventLog::new(8);
        for i in 0..5 {
            log.push(slot_end(i));
        }
        assert_eq!(log.len(), 5);
        assert_eq!(log.total_recorded(), 5);
        let slots: Vec<u64> = log
            .events()
            .map(|e| match e {
                Event::SlotEnd { slot, .. } => *slot,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(slots, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wraparound_keeps_newest_in_order() {
        let mut log = RingEventLog::new(4);
        for i in 0..11 {
            log.push(slot_end(i));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.total_recorded(), 11);
        let slots: Vec<u64> = log
            .events()
            .map(|e| match e {
                Event::SlotEnd { slot, .. } => *slot,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(slots, vec![7, 8, 9, 10]);
    }

    #[test]
    fn jsonl_lines_are_json_objects() {
        let mut log = RingEventLog::new(16);
        log.arrival(3, PortId::new(2), 4, 9);
        log.dropped(3, PortId::new(2), DropReason::BufferFull);
        log.flush(4, 17);
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"type\":\"arrival\",\"slot\":3,\"port\":2,\"work\":4,\"value\":9}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"dropped\",\"slot\":3,\"port\":2,\"reason\":\"buffer_full\"}"
        );
        assert_eq!(lines[2], "{\"type\":\"flush\",\"slot\":4,\"discarded\":17}");
    }

    #[test]
    fn supervision_events_serialize() {
        let mut log = RingEventLog::new(8);
        log.shard_panicked(41, 6);
        log.shard_restarted(41, 1);
        log.shard_failed(90, 12);
        log.dropped(90, PortId::new(1), DropReason::ShardFailure);
        let lines: Vec<String> = log.to_jsonl().lines().map(str::to_string).collect();
        assert_eq!(
            lines[0],
            "{\"type\":\"shard_panic\",\"slot\":41,\"orphans\":6}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"shard_restart\",\"slot\":41,\"attempt\":1}"
        );
        assert_eq!(
            lines[2],
            "{\"type\":\"shard_failed\",\"slot\":90,\"orphans\":12}"
        );
        assert_eq!(
            lines[3],
            "{\"type\":\"dropped\",\"slot\":90,\"port\":1,\"reason\":\"shard_failure\"}"
        );
    }

    #[test]
    fn jsonl_with_label_prefixes_fields() {
        let mut log = RingEventLog::new(4);
        log.drain_start(7);
        let jsonl = log.to_jsonl_with(&[("policy", "LWD")]);
        assert_eq!(
            jsonl,
            "{\"policy\":\"LWD\",\"type\":\"drain_start\",\"slot\":7}\n"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = RingEventLog::new(0);
    }
}
