//! Shared-memory switch state machine for the combined model (extension):
//! per-port work requirements plus per-packet values; the objective is
//! total transmitted value.

use crate::slab::BufferCore;
use crate::{
    AdmitError, CombinedQueue, ConservationError, Counters, DirtyPorts, PortId, Slot, Transmitted,
    Value, Work, WorkSwitchConfig,
};

/// A packet of the combined model: destination port, the port's work
/// requirement, and an intrinsic value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CombinedPacket {
    port: PortId,
    work: Work,
    value: Value,
}

impl CombinedPacket {
    /// Creates a packet.
    pub const fn new(port: PortId, work: Work, value: Value) -> Self {
        CombinedPacket { port, work, value }
    }

    /// Destination output port.
    pub const fn port(self) -> PortId {
        self.port
    }

    /// Required processing.
    pub const fn work(self) -> Work {
        self.work
    }

    /// Intrinsic value.
    pub const fn value(self) -> Value {
        self.value
    }

    /// Value per processing cycle — the natural greedy ordering key of the
    /// combined model.
    pub fn density(self) -> f64 {
        self.value.get() as f64 / f64::from(self.work.cycles())
    }
}

impl std::fmt::Display for CombinedPacket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}/{} -> {}]", self.value, self.work, self.port)
    }
}

/// Outcome summary of one combined-model transmission phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CombinedPhaseReport {
    /// Packets transmitted during the phase.
    pub transmitted: u64,
    /// Total value carried out (the objective).
    pub value: u64,
    /// Processing cycles consumed.
    pub cycles_used: u64,
}

/// The combined-model shared-memory switch: reuses [`WorkSwitchConfig`]
/// (buffer `B`, per-port works) and carries per-packet values. Every resident
/// packet — in service or backlogged — holds a slot of the shared
/// [`BufferCore`] slab.
///
/// ```
/// use smbm_switch::{CombinedPacket, CombinedSwitch, PortId, Value, Work, WorkSwitchConfig};
///
/// let cfg = WorkSwitchConfig::contiguous(2, 4)?;
/// let mut sw = CombinedSwitch::new(cfg);
/// sw.admit(CombinedPacket::new(PortId::new(0), Work::new(1), Value::new(7)))?;
/// assert_eq!(sw.transmit(1).value, 7);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CombinedSwitch {
    config: WorkSwitchConfig,
    queues: Vec<CombinedQueue>,
    core: BufferCore,
    counters: Counters,
    now: Slot,
    scratch: Vec<(Value, Slot)>,
    transmitted_per_port: Vec<u64>,
    dirty: DirtyPorts,
}

impl CombinedSwitch {
    /// Creates an empty switch from a validated configuration.
    pub fn new(config: WorkSwitchConfig) -> Self {
        CombinedSwitch {
            queues: config
                .works()
                .iter()
                .map(|w| CombinedQueue::new(*w))
                .collect(),
            transmitted_per_port: vec![0; config.ports()],
            dirty: DirtyPorts::new(config.ports()),
            core: BufferCore::new(config.buffer()),
            config,
            counters: Counters::new(),
            now: Slot::ZERO,
            scratch: Vec::new(),
        }
    }

    /// The switch configuration.
    pub fn config(&self) -> &WorkSwitchConfig {
        &self.config
    }

    /// Number of output ports.
    pub fn ports(&self) -> usize {
        self.config.ports()
    }

    /// Shared buffer capacity.
    pub fn buffer(&self) -> usize {
        self.config.buffer()
    }

    /// The shared slab of packet slots backing every queue.
    pub fn core(&self) -> &BufferCore {
        &self.core
    }

    /// Packets currently resident.
    pub fn occupancy(&self) -> usize {
        self.core.allocated()
    }

    /// True when the buffer holds `B` packets.
    pub fn is_full(&self) -> bool {
        self.core.free_slots() == 0
    }

    /// The current slot.
    pub fn now(&self) -> Slot {
        self.now
    }

    /// Read access to an output queue.
    ///
    /// # Panics
    ///
    /// Panics if `port` is out of range.
    pub fn queue(&self, port: PortId) -> &CombinedQueue {
        &self.queues[port.index()]
    }

    /// Iterates over `(port, queue)` pairs.
    pub fn queues(&self) -> impl Iterator<Item = (PortId, &CombinedQueue)> {
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

    /// Lifetime accounting.
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

    fn validate(&self, pkt: CombinedPacket) -> Result<(), AdmitError> {
        if pkt.port().index() >= self.queues.len() {
            return Err(AdmitError::UnknownPort {
                port: pkt.port(),
                ports: self.queues.len(),
            });
        }
        let required = self.config.work(pkt.port());
        if pkt.work() != required {
            return Err(AdmitError::WorkMismatch {
                port: pkt.port(),
                packet_work: pkt.work().cycles(),
                port_work: required.cycles(),
            });
        }
        Ok(())
    }

    /// Admits `pkt` into its destination queue.
    ///
    /// # Errors
    ///
    /// Fails with [`AdmitError::BufferFull`] when no space is free, or with
    /// a validation error.
    pub fn admit(&mut self, pkt: CombinedPacket) -> Result<(), AdmitError> {
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
    /// Fails with a validation error.
    pub fn reject(&mut self, pkt: CombinedPacket) -> Result<(), AdmitError> {
        self.validate(pkt)?;
        self.counters.record_arrival(pkt.value().get());
        self.counters.record_drop(pkt.value().get());
        Ok(())
    }

    /// Evicts the minimal-value packet of `victim`'s queue and admits `pkt`.
    /// When `victim == pkt.port()` this is the virtual-add semantics (the
    /// eviction may remove the arrival itself).
    ///
    /// Eviction prefers the backlog and only takes the in-service packet when
    /// the backlog is empty. As in [`crate::ValueSwitch`], the slab of
    /// exactly `B` slots forces eviction *before* insertion; the self-evicting
    /// configurations (`pkt` would join the victim's backlog at or below its
    /// minimum — including an empty backlog, where the arrival itself would
    /// be the sole backlog entry popped) short-circuit to a net drop with
    /// identical outcome to the pre-slab insert-then-evict order.
    ///
    /// # Errors
    ///
    /// Fails if the victim queue is empty (and differs from the
    /// destination), or on a validation error.
    pub fn push_out_and_admit(
        &mut self,
        victim: PortId,
        pkt: CombinedPacket,
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
        let evicted = if victim == pkt.port()
            && (own.backlog_is_empty()
                || own
                    .backlog_min_value()
                    .is_some_and(|min| pkt.value() <= min))
        {
            // The arrival would become the backlog's minimum and immediately
            // be popped again: a net drop.
            pkt.value()
        } else {
            let out = self.queues[victim.index()]
                .evict_min(&mut self.core)
                .expect("victim queue non-empty");
            if victim == pkt.port() {
                // The queue was non-empty before the (backlog) eviction, so
                // under insert-then-evict the arrival always landed in the
                // backlog — never in service — even if the eviction just
                // emptied the backlog.
                self.queues[pkt.port().index()].insert_backlog(
                    &mut self.core,
                    pkt.value(),
                    self.now,
                );
            } else {
                self.queues[pkt.port().index()].insert(&mut self.core, pkt.value(), self.now);
            }
            out
        };
        self.counters.record_push_out(evicted.get());
        self.dirty.mark(victim.index());
        self.dirty.mark(pkt.port().index());
        Ok(evicted)
    }

    /// Runs the transmission phase: every queue receives `speedup` cycles.
    ///
    /// Completed packets are appended to `out` with latency information.
    pub fn transmit_into(
        &mut self,
        speedup: u32,
        out: &mut Vec<Transmitted>,
    ) -> CombinedPhaseReport {
        let mut report = CombinedPhaseReport::default();
        for (i, q) in self.queues.iter_mut().enumerate() {
            if q.is_empty() {
                continue;
            }
            self.scratch.clear();
            let used = q.process(&mut self.core, speedup, &mut self.scratch);
            if used > 0 {
                self.dirty.mark(i);
            }
            report.cycles_used += u64::from(used);
            for &(value, arrived) in &self.scratch {
                let t = Transmitted {
                    port: PortId::new(i),
                    value,
                    arrived,
                    departed: self.now,
                };
                self.counters.record_transmission(value.get(), t.latency());
                self.transmitted_per_port[i] += 1;
                report.transmitted += 1;
                report.value += value.get();
                out.push(t);
            }
        }
        self.counters.record_cycles(report.cycles_used);
        report
    }

    /// Like [`CombinedSwitch::transmit_into`], discarding per-packet details.
    pub fn transmit(&mut self, speedup: u32) -> CombinedPhaseReport {
        let mut scratch = Vec::new();
        self.transmit_into(speedup, &mut scratch)
    }

    /// Packets transmitted per output port since construction.
    pub fn transmitted_per_port(&self) -> &[u64] {
        &self.transmitted_per_port
    }

    /// Advances to the next slot.
    pub fn advance_slot(&mut self) {
        self.now = self.now.next();
    }

    /// Discards every resident packet (flushout).
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

    /// Total value resident in the buffer.
    pub fn total_value(&self) -> u64 {
        self.queues.iter().map(CombinedQueue::total_value).sum()
    }

    /// Smallest value currently admitted anywhere (ties toward the longest
    /// queue).
    pub fn global_min_value(&self) -> Option<(PortId, Value)> {
        let mut best: Option<(PortId, Value, usize)> = None;
        for (port, q) in self.queues() {
            let Some(v) = q.min_value() else { continue };
            let better = match best {
                None => true,
                Some((_, bv, blen)) => v < bv || (v == bv && q.len() > blen),
            };
            if better {
                best = Some((port, v, q.len()));
            }
        }
        best.map(|(p, v, _)| (p, v))
    }

    /// Verifies structural and conservation invariants.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let sum: usize = self.queues.iter().map(CombinedQueue::len).sum();
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
                return Err(format!("queue {i} invariant violated"));
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

    fn switch(k: u32, b: usize) -> CombinedSwitch {
        CombinedSwitch::new(WorkSwitchConfig::contiguous(k, b).unwrap())
    }

    fn pkt(sw: &CombinedSwitch, port: usize, v: u64) -> CombinedPacket {
        let p = PortId::new(port);
        CombinedPacket::new(p, sw.config().work(p), Value::new(v))
    }

    #[test]
    fn admit_and_transmit_by_value_order() {
        let mut sw = switch(2, 4);
        sw.admit(pkt(&sw, 0, 3)).unwrap();
        sw.admit(pkt(&sw, 0, 9)).unwrap();
        // w = 1 port: one packet per slot; the 3 entered service first
        // (run-to-completion), the 9 follows.
        assert_eq!(sw.transmit(1).value, 3);
        sw.advance_slot();
        assert_eq!(sw.transmit(1).value, 9);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn heavy_port_takes_w_slots() {
        let mut sw = switch(2, 4);
        sw.admit(pkt(&sw, 1, 5)).unwrap(); // w = 2
        assert_eq!(sw.transmit(1).value, 0);
        sw.advance_slot();
        assert_eq!(sw.transmit(1).value, 5);
    }

    #[test]
    fn push_out_virtual_add_and_validation() {
        let mut sw = switch(2, 2);
        sw.admit(pkt(&sw, 1, 8)).unwrap();
        sw.admit(pkt(&sw, 1, 6)).unwrap();
        assert!(sw.is_full());
        let evicted = sw
            .push_out_and_admit(PortId::new(1), pkt(&sw, 0, 4))
            .unwrap();
        assert_eq!(evicted, Value::new(6));
        assert_eq!(sw.queue(PortId::new(0)).len(), 1);
        sw.check_invariants().unwrap();

        let bad = CombinedPacket::new(PortId::new(0), Work::new(9), Value::new(1));
        assert!(matches!(
            sw.admit(bad),
            Err(AdmitError::WorkMismatch { .. })
        ));
    }

    #[test]
    fn self_push_out_with_service_only_queue_is_net_drop() {
        // The destination queue holds only an in-service packet: under
        // insert-then-evict the arrival joins the backlog and is popped right
        // back out (eviction prefers the backlog). The service packet stays.
        let mut sw = switch(1, 1);
        sw.admit(pkt(&sw, 0, 9)).unwrap();
        assert!(sw.is_full());
        let evicted = sw
            .push_out_and_admit(PortId::new(0), pkt(&sw, 0, 4))
            .unwrap();
        assert_eq!(evicted, Value::new(4));
        assert_eq!(sw.queue(PortId::new(0)).len(), 1);
        assert_eq!(sw.total_value(), 9);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn self_push_out_displaces_backlog_minimum() {
        let mut sw = switch(1, 3);
        sw.admit(pkt(&sw, 0, 9)).unwrap(); // enters service
        sw.admit(pkt(&sw, 0, 2)).unwrap(); // backlog
        sw.admit(pkt(&sw, 0, 5)).unwrap(); // backlog
        let evicted = sw
            .push_out_and_admit(PortId::new(0), pkt(&sw, 0, 7))
            .unwrap();
        assert_eq!(evicted, Value::new(2));
        assert_eq!(sw.total_value(), 21);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn density_is_value_per_cycle() {
        let p = CombinedPacket::new(PortId::new(0), Work::new(4), Value::new(6));
        assert!((p.density() - 1.5).abs() < 1e-12);
        assert_eq!(p.to_string(), "[$6/4cy -> port#1]");
    }

    #[test]
    fn global_min_and_flush() {
        let mut sw = switch(3, 6);
        sw.admit(pkt(&sw, 0, 4)).unwrap();
        sw.admit(pkt(&sw, 2, 2)).unwrap();
        assert_eq!(sw.global_min_value(), Some((PortId::new(2), Value::new(2))));
        assert_eq!(sw.flush(), 2);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn conservation_through_mixed_operations() {
        let mut sw = switch(3, 4);
        for v in [5, 1, 7, 2] {
            sw.admit(pkt(&sw, 2, v)).unwrap();
        }
        sw.reject(pkt(&sw, 0, 9)).unwrap();
        sw.push_out_and_admit(PortId::new(2), pkt(&sw, 0, 6))
            .unwrap();
        sw.transmit(2);
        sw.advance_slot();
        sw.transmit(2);
        sw.check_invariants().unwrap();
        assert_eq!(sw.counters().arrived(), 6);
    }
}
