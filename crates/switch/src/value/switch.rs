//! The shared-memory switch state machine for the heterogeneous-value model
//! (Section IV of the paper).

use crate::slab::BufferCore;
use crate::{
    AdmitError, ConservationError, Counters, DirtyPorts, PortId, Slot, Transmitted, Value,
    ValuePacket, ValueQueue, ValueSwitchConfig,
};

use super::queue::ValueEntry;

/// Outcome summary of one transmission phase in the value model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValuePhaseReport {
    /// Packets transmitted during the phase.
    pub transmitted: u64,
    /// Total value carried out (the model's objective).
    pub value: u64,
}

/// An `l × n` shared-memory switch with buffer capacity `B` whose unit-work
/// packets carry heterogeneous values; each output queue is a priority queue
/// transmitting its most valuable packet first. The buffer is a
/// [`BufferCore`] slab of exactly `B` slots shared by every queue.
///
/// ```
/// use smbm_switch::{PortId, Value, ValuePacket, ValueSwitch, ValueSwitchConfig};
///
/// let mut sw = ValueSwitch::new(ValueSwitchConfig::new(4, 2)?);
/// sw.admit(ValuePacket::new(PortId::new(0), Value::new(6)))?;
/// sw.admit(ValuePacket::new(PortId::new(0), Value::new(2)))?;
/// let report = sw.transmit(1);
/// assert_eq!(report.value, 6); // the $6 packet leaves first
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ValueSwitch {
    config: ValueSwitchConfig,
    queues: Vec<ValueQueue>,
    core: BufferCore,
    counters: Counters,
    now: Slot,
    transmitted_per_port: Vec<u64>,
    dirty: DirtyPorts,
}

impl ValueSwitch {
    /// Creates an empty switch from a validated configuration.
    pub fn new(config: ValueSwitchConfig) -> Self {
        ValueSwitch {
            queues: (0..config.ports()).map(|_| ValueQueue::new()).collect(),
            transmitted_per_port: vec![0; config.ports()],
            dirty: DirtyPorts::new(config.ports()),
            core: BufferCore::new(config.buffer()),
            config,
            counters: Counters::new(),
            now: Slot::ZERO,
        }
    }

    /// The switch configuration.
    pub fn config(&self) -> &ValueSwitchConfig {
        &self.config
    }

    /// Number of output ports `n`.
    pub fn ports(&self) -> usize {
        self.config.ports()
    }

    /// Shared buffer capacity `B`.
    pub fn buffer(&self) -> usize {
        self.config.buffer()
    }

    /// The shared slab of packet slots backing every queue.
    pub fn core(&self) -> &BufferCore {
        &self.core
    }

    /// Packets currently resident across all queues.
    pub fn occupancy(&self) -> usize {
        self.core.allocated()
    }

    /// Free buffer slots.
    pub fn free_space(&self) -> usize {
        self.core.free_slots()
    }

    /// True when the buffer holds `B` packets.
    pub fn is_full(&self) -> bool {
        self.core.free_slots() == 0
    }

    /// The current time slot.
    pub fn now(&self) -> Slot {
        self.now
    }

    /// Read access to an output queue.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn queue(&self, port: PortId) -> &ValueQueue {
        &self.queues[port.index()]
    }

    /// Iterates over `(port, queue)` pairs.
    pub fn queues(&self) -> impl Iterator<Item = (PortId, &ValueQueue)> {
        self.queues
            .iter()
            .enumerate()
            .map(|(i, q)| (PortId::new(i), q))
    }

    /// Length of the longest output queue right now — the telemetry plane's
    /// queue-depth gauge tap.
    pub fn max_queue_len(&self) -> usize {
        self.queues.iter().map(|q| q.len()).max().unwrap_or(0)
    }

    /// Lifetime packet accounting.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Moves the ports whose queues changed since the last drain into `out`
    /// (cleared first); see [`crate::DirtyPorts`].
    pub fn drain_dirty_into(&mut self, out: &mut Vec<PortId>) {
        self.dirty.drain_into(out);
    }

    /// True when some queue changed since the last
    /// [`drain_dirty_into`](Self::drain_dirty_into).
    pub fn has_dirty_ports(&self) -> bool {
        !self.dirty.is_empty()
    }

    fn validate(&self, pkt: ValuePacket) -> Result<(), AdmitError> {
        if pkt.port().index() >= self.queues.len() {
            return Err(AdmitError::UnknownPort {
                port: pkt.port(),
                ports: self.queues.len(),
            });
        }
        Ok(())
    }

    /// Admits `pkt` into its destination priority queue.
    ///
    /// # Errors
    ///
    /// Fails with [`AdmitError::BufferFull`] when no space is free, or with
    /// [`AdmitError::UnknownPort`] for an out-of-range port.
    pub fn admit(&mut self, pkt: ValuePacket) -> Result<(), AdmitError> {
        self.validate(pkt)?;
        if self.is_full() {
            return Err(AdmitError::BufferFull);
        }
        self.counters.record_arrival(pkt.value().get());
        self.counters.record_admission(pkt.value().get());
        self.queues[pkt.port().index()].insert(&mut self.core, pkt.value(), self.now);
        self.dirty.mark(pkt.port().index());
        Ok(())
    }

    /// Rejects `pkt` on arrival.
    ///
    /// # Errors
    ///
    /// Fails with [`AdmitError::UnknownPort`] for an out-of-range port.
    pub fn reject(&mut self, pkt: ValuePacket) -> Result<(), AdmitError> {
        self.validate(pkt)?;
        self.counters.record_arrival(pkt.value().get());
        self.counters.record_drop(pkt.value().get());
        Ok(())
    }

    /// Pushes out the *minimal-value* packet of `victim`'s queue and admits
    /// `pkt` in the freed slot. Returns the evicted value.
    ///
    /// When `victim == pkt.port()` this realises the uniform "virtual add"
    /// semantics documented in DESIGN.md: the arriving packet enters and the
    /// queue's minimum leaves, which may be the arriving packet itself. The
    /// pre-slab implementation inserted first and then popped the minimum;
    /// with a slab of exactly `B` slots the eviction happens first, with the
    /// self-eviction case (`pkt.value() <= the queue's resident minimum`,
    /// where the newcomer — placed after equal values — *is* the popped
    /// minimum) short-circuited to a net drop. The outcomes are identical.
    ///
    /// # Errors
    ///
    /// Fails if the victim queue is empty (and `victim != pkt.port()`), or on
    /// an unknown port.
    pub fn push_out_and_admit(
        &mut self,
        victim: PortId,
        pkt: ValuePacket,
    ) -> Result<Value, AdmitError> {
        self.validate(pkt)?;
        if victim.index() >= self.queues.len() {
            return Err(AdmitError::UnknownPort {
                port: victim,
                ports: self.queues.len(),
            });
        }
        if victim != pkt.port() && self.queues[victim.index()].is_empty() {
            return Err(AdmitError::EmptyQueue { port: victim });
        }
        self.counters.record_arrival(pkt.value().get());
        self.counters.record_admission(pkt.value().get());
        let own = &self.queues[pkt.port().index()];
        let evicted =
            if victim == pkt.port() && own.min_value().is_none_or(|min| pkt.value() <= min) {
                // The arrival would sort behind every resident packet of its own
                // queue and immediately be popped as the minimum: a net drop.
                pkt.value()
            } else {
                let out = self.queues[victim.index()]
                    .pop_min(&mut self.core)
                    .expect("victim queue non-empty")
                    .value;
                self.queues[pkt.port().index()].insert(&mut self.core, pkt.value(), self.now);
                out
            };
        self.counters.record_push_out(evicted.get());
        self.dirty.mark(victim.index());
        self.dirty.mark(pkt.port().index());
        Ok(evicted)
    }

    /// Runs the transmission phase: every non-empty queue transmits up to
    /// `speedup` of its most valuable packets.
    ///
    /// Completed packets are appended to `out` with latency information.
    pub fn transmit_into(&mut self, speedup: u32, out: &mut Vec<Transmitted>) -> ValuePhaseReport {
        let mut report = ValuePhaseReport::default();
        for (i, queue) in self.queues.iter_mut().enumerate() {
            for c in 0..speedup {
                let Some(ValueEntry { value, arrived }) = queue.pop_max(&mut self.core) else {
                    break;
                };
                if c == 0 {
                    self.dirty.mark(i);
                }
                let t = Transmitted {
                    port: PortId::new(i),
                    value,
                    arrived,
                    departed: self.now,
                };
                self.counters.record_transmission(value.get(), t.latency());
                self.counters.record_cycles(1);
                self.transmitted_per_port[i] += 1;
                report.transmitted += 1;
                report.value += value.get();
                out.push(t);
            }
        }
        report
    }

    /// Like [`ValueSwitch::transmit_into`], discarding per-packet details.
    pub fn transmit(&mut self, speedup: u32) -> ValuePhaseReport {
        let mut scratch = Vec::new();
        self.transmit_into(speedup, &mut scratch)
    }

    /// Advances to the next time slot.
    pub fn advance_slot(&mut self) {
        self.now = self.now.next();
    }

    /// Discards every resident packet (a "flushout"), returning how many were
    /// discarded.
    pub fn flush(&mut self) -> u64 {
        let flushed_value = self.total_value();
        let mut total = 0;
        for q in &mut self.queues {
            total += q.clear(&mut self.core);
        }
        self.dirty.mark_all();
        self.counters.record_flush(total, flushed_value);
        total
    }

    /// Smallest value currently admitted anywhere in the buffer, with the
    /// port holding it. Ties are broken toward the *longest* queue, matching
    /// MVD's victim rule.
    pub fn global_min_value(&self) -> Option<(PortId, Value)> {
        let mut best: Option<(PortId, Value, usize)> = None;
        for (i, q) in self.queues.iter().enumerate() {
            let Some(v) = q.min_value() else { continue };
            let better = match best {
                None => true,
                Some((_, bv, blen)) => v < bv || (v == bv && q.len() > blen),
            };
            if better {
                best = Some((PortId::new(i), v, q.len()));
            }
        }
        best.map(|(p, v, _)| (p, v))
    }

    /// Packets transmitted per output port since construction.
    pub fn transmitted_per_port(&self) -> &[u64] {
        &self.transmitted_per_port
    }

    /// Total value resident in the buffer.
    pub fn total_value(&self) -> u64 {
        self.queues.iter().map(ValueQueue::total_value).sum()
    }

    /// Verifies structural and conservation invariants; test/debug oracle.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let sum: usize = self.queues.iter().map(ValueQueue::len).sum();
        if sum != self.core.allocated() {
            return Err(format!(
                "slab allocation {} != sum of queue lengths {}",
                self.core.allocated(),
                sum
            ));
        }
        if self.core.capacity() != self.config.buffer() {
            return Err(format!(
                "slab capacity {} != configured buffer {}",
                self.core.capacity(),
                self.config.buffer()
            ));
        }
        self.core.check_accounting()?;
        for (i, q) in self.queues.iter().enumerate() {
            if !q.invariants_hold(&self.core) {
                return Err(format!("queue {} order/sum invariant violated", i));
            }
        }
        self.counters
            .check_conservation(self.occupancy())
            .map_err(|e: ConservationError| e.to_string())?;
        self.counters
            .check_value_conservation(self.total_value())
            .map_err(|e: ConservationError| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn switch(b: usize, n: usize) -> ValueSwitch {
        ValueSwitch::new(ValueSwitchConfig::new(b, n).unwrap())
    }

    fn pkt(port: usize, value: u64) -> ValuePacket {
        ValuePacket::new(PortId::new(port), Value::new(value))
    }

    #[test]
    fn admit_until_full() {
        let mut sw = switch(2, 2);
        sw.admit(pkt(0, 1)).unwrap();
        sw.admit(pkt(1, 2)).unwrap();
        assert!(sw.is_full());
        assert_eq!(sw.admit(pkt(0, 3)), Err(AdmitError::BufferFull));
        sw.check_invariants().unwrap();
    }

    #[test]
    fn admit_validates_port() {
        let mut sw = switch(2, 2);
        assert!(matches!(
            sw.admit(pkt(5, 1)),
            Err(AdmitError::UnknownPort { .. })
        ));
        assert_eq!(sw.counters().arrived(), 0);
    }

    #[test]
    fn transmit_takes_most_valuable_first() {
        let mut sw = switch(4, 1);
        for v in [2, 6, 4] {
            sw.admit(pkt(0, v)).unwrap();
        }
        assert_eq!(sw.transmit(1).value, 6);
        assert_eq!(sw.transmit(1).value, 4);
        assert_eq!(sw.transmit(1).value, 2);
        assert_eq!(sw.transmit(1).value, 0);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn transmit_speedup_takes_top_c() {
        let mut sw = switch(8, 2);
        for v in [1, 2, 3, 4] {
            sw.admit(pkt(0, v)).unwrap();
        }
        sw.admit(pkt(1, 9)).unwrap();
        let r = sw.transmit(2);
        // Port 0 sends 4 and 3; port 1 sends 9.
        assert_eq!(r.transmitted, 3);
        assert_eq!(r.value, 16);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn push_out_evicts_minimum_of_victim() {
        let mut sw = switch(2, 2);
        sw.admit(pkt(1, 5)).unwrap();
        sw.admit(pkt(1, 3)).unwrap();
        let evicted = sw.push_out_and_admit(PortId::new(1), pkt(0, 7)).unwrap();
        assert_eq!(evicted, Value::new(3));
        assert_eq!(sw.queue(PortId::new(1)).max_value(), Some(Value::new(5)));
        assert_eq!(sw.queue(PortId::new(0)).len(), 1);
        assert!(sw.is_full());
        sw.check_invariants().unwrap();
    }

    #[test]
    fn virtual_add_self_eviction() {
        // Victim queue == destination queue; the arriving packet is smaller
        // than everything resident, so it evicts itself (a net drop that is
        // accounted as admit + push-out).
        let mut sw = switch(2, 1);
        sw.admit(pkt(0, 5)).unwrap();
        sw.admit(pkt(0, 4)).unwrap();
        let evicted = sw.push_out_and_admit(PortId::new(0), pkt(0, 1)).unwrap();
        assert_eq!(evicted, Value::new(1));
        assert_eq!(sw.total_value(), 9);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn virtual_add_equal_minimum_drops_the_arrival() {
        // Equal values keep arrival order: the newcomer sorts behind the
        // resident equal minimum, so it is the one evicted.
        let mut sw = switch(2, 1);
        sw.admit(pkt(0, 5)).unwrap();
        sw.admit(pkt(0, 4)).unwrap();
        let evicted = sw.push_out_and_admit(PortId::new(0), pkt(0, 4)).unwrap();
        assert_eq!(evicted, Value::new(4));
        assert_eq!(sw.total_value(), 9);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn virtual_add_displaces_resident_minimum() {
        let mut sw = switch(2, 1);
        sw.admit(pkt(0, 5)).unwrap();
        sw.admit(pkt(0, 4)).unwrap();
        let evicted = sw.push_out_and_admit(PortId::new(0), pkt(0, 6)).unwrap();
        assert_eq!(evicted, Value::new(4));
        assert_eq!(sw.total_value(), 11);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn push_out_from_empty_other_queue_fails() {
        let mut sw = switch(2, 2);
        sw.admit(pkt(0, 1)).unwrap();
        sw.admit(pkt(0, 2)).unwrap();
        let err = sw.push_out_and_admit(PortId::new(1), pkt(0, 3));
        assert_eq!(
            err,
            Err(AdmitError::EmptyQueue {
                port: PortId::new(1)
            })
        );
    }

    #[test]
    fn global_min_value_prefers_longer_queue_on_tie() {
        let mut sw = switch(8, 3);
        sw.admit(pkt(0, 2)).unwrap();
        sw.admit(pkt(1, 2)).unwrap();
        sw.admit(pkt(1, 5)).unwrap();
        // Both port 0 and port 1 hold a min of 2; port 1 is longer.
        assert_eq!(sw.global_min_value(), Some((PortId::new(1), Value::new(2))));
    }

    #[test]
    fn global_min_value_none_when_empty() {
        let sw = switch(2, 2);
        assert_eq!(sw.global_min_value(), None);
    }

    #[test]
    fn flush_and_conservation() {
        let mut sw = switch(4, 2);
        for v in [1, 2, 3] {
            sw.admit(pkt(0, v)).unwrap();
        }
        sw.reject(pkt(1, 9)).unwrap();
        sw.transmit(1);
        assert_eq!(sw.flush(), 2);
        sw.check_invariants().unwrap();
        assert_eq!(sw.counters().transmitted_value(), 3);
        assert_eq!(sw.counters().arrived_value(), 15);
    }

    #[test]
    fn latency_recorded_on_transmit() {
        let mut sw = switch(2, 1);
        sw.admit(pkt(0, 4)).unwrap();
        sw.advance_slot();
        sw.advance_slot();
        sw.advance_slot();
        let mut out = Vec::new();
        sw.transmit_into(1, &mut out);
        assert_eq!(out[0].latency(), 3);
    }
}
