//! The shared-memory switch state machine for the heterogeneous-processing
//! model (Section III of the paper).

use crate::slab::BufferCore;
use crate::{
    AdmitError, ConservationError, Counters, DirtyPorts, PortId, Slot, Transmitted, Value,
    WorkPacket, WorkQueue, WorkSwitchConfig,
};

/// Outcome summary of one transmission phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseReport {
    /// Packets transmitted during the phase.
    pub transmitted: u64,
    /// Total value carried out (equals `transmitted` in this model).
    pub value: u64,
    /// Processing cycles actually consumed across all ports.
    pub cycles_used: u64,
}

/// An `l × n` shared-memory switch with buffer capacity `B` whose packets
/// carry heterogeneous processing requirements.
///
/// The buffer is a [`BufferCore`] slab of exactly `B` slots; every queue is a
/// linked-list view over it, so occupancy is the slab's allocated count and
/// "buffer full" is exactly "free list empty". The switch owns the buffer
/// state and *validates* every mutation; admission **decisions** live in the
/// policies of the `smbm-core` crate. A typical slot looks like:
///
/// ```
/// use smbm_switch::{PortId, Work, WorkPacket, WorkSwitch, WorkSwitchConfig};
///
/// let cfg = WorkSwitchConfig::contiguous(2, 4)?; // ports with w = 1, 2
/// let mut sw = WorkSwitch::new(cfg);
///
/// // Arrival phase: the policy decided to accept this packet.
/// sw.admit(WorkPacket::new(PortId::new(1), Work::new(2)))?;
///
/// // Transmission phase at speedup C = 1.
/// let report = sw.transmit(1);
/// assert_eq!(report.transmitted, 0); // the 2-cycle packet needs another slot
/// sw.advance_slot();
/// assert_eq!(sw.transmit(1).transmitted, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct WorkSwitch {
    config: WorkSwitchConfig,
    queues: Vec<WorkQueue>,
    core: BufferCore,
    counters: Counters,
    now: Slot,
    completions_scratch: Vec<Slot>,
    transmitted_per_port: Vec<u64>,
    dirty: DirtyPorts,
    version: u64,
}

impl WorkSwitch {
    /// Creates an empty switch from a validated configuration.
    pub fn new(config: WorkSwitchConfig) -> Self {
        let queues = config.works().iter().map(|w| WorkQueue::new(*w)).collect();
        WorkSwitch {
            transmitted_per_port: vec![0; config.ports()],
            dirty: DirtyPorts::new(config.ports()),
            core: BufferCore::new(config.buffer()),
            config,
            queues,
            counters: Counters::new(),
            now: Slot::ZERO,
            completions_scratch: Vec::new(),
            version: 0,
        }
    }

    /// The switch configuration.
    pub fn config(&self) -> &WorkSwitchConfig {
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
    /// Panics if `port` is out of range; use [`WorkSwitch::ports`] to bound
    /// iteration.
    pub fn queue(&self, port: PortId) -> &WorkQueue {
        &self.queues[port.index()]
    }

    /// Iterates over `(port, queue)` pairs.
    pub fn queues(&self) -> impl Iterator<Item = (PortId, &WorkQueue)> {
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
    /// (cleared first). Incremental policies use this to refresh only the
    /// scores that can have moved instead of rescanning all `n` queues.
    pub fn drain_dirty_into(&mut self, out: &mut Vec<PortId>) {
        self.dirty.drain_into(out);
    }

    /// True when some queue changed since the last
    /// [`drain_dirty_into`](Self::drain_dirty_into).
    pub fn has_dirty_ports(&self) -> bool {
        !self.dirty.is_empty()
    }

    /// A counter that changes whenever a queue or the clock may have
    /// changed: [`admit`](Self::admit),
    /// [`push_out_and_admit`](Self::push_out_and_admit),
    /// [`transmit_into`](Self::transmit_into), [`flush`](Self::flush) and
    /// [`advance_slot`](Self::advance_slot) bump it; [`reject`](Self::reject)
    /// does not. Two reads that return the same version saw the same queues,
    /// so a verdict computed from the switch state between them still holds.
    pub fn version(&self) -> u64 {
        self.version
    }

    fn validate(&self, pkt: WorkPacket) -> Result<(), AdmitError> {
        let i = pkt.port().index();
        if i >= self.queues.len() {
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

    /// Admits `pkt` into its destination queue. Records the arrival.
    ///
    /// # Errors
    ///
    /// Fails with [`AdmitError::BufferFull`] when no space is free, or with a
    /// validation error for an unknown port / mismatched work label.
    pub fn admit(&mut self, pkt: WorkPacket) -> Result<(), AdmitError> {
        self.validate(pkt)?;
        if self.is_full() {
            return Err(AdmitError::BufferFull);
        }
        self.counters.record_arrival(1);
        self.counters.record_admission(1);
        self.queues[pkt.port().index()].push_back(&mut self.core, self.now);
        self.dirty.mark(pkt.port().index());
        self.version += 1;
        Ok(())
    }

    /// Rejects `pkt` on arrival. Records the arrival and the drop.
    ///
    /// # Errors
    ///
    /// Fails with a validation error for an unknown port / mismatched work
    /// label (such a packet is not a legal arrival in the model at all).
    pub fn reject(&mut self, pkt: WorkPacket) -> Result<(), AdmitError> {
        self.validate(pkt)?;
        self.counters.record_arrival(1);
        self.counters.record_drop(1);
        Ok(())
    }

    /// Pushes out the tail packet of `victim`'s queue and admits `pkt` in the
    /// freed slot (the push-out primitive shared by LQD, BPD and LWD).
    ///
    /// # Errors
    ///
    /// Fails if the victim queue is empty, or on a validation error. The
    /// buffer need not be full (policies only push out when it is, but the
    /// primitive does not require it).
    pub fn push_out_and_admit(
        &mut self,
        victim: PortId,
        pkt: WorkPacket,
    ) -> Result<(), AdmitError> {
        self.validate(pkt)?;
        if victim.index() >= self.queues.len() {
            return Err(AdmitError::UnknownPort {
                port: victim,
                ports: self.queues.len(),
            });
        }
        if self.queues[victim.index()].is_empty() {
            return Err(AdmitError::EmptyQueue { port: victim });
        }
        self.queues[victim.index()]
            .pop_back(&mut self.core)
            .expect("checked non-empty");
        self.counters.record_push_out(1);
        self.counters.record_arrival(1);
        self.counters.record_admission(1);
        self.queues[pkt.port().index()].push_back(&mut self.core, self.now);
        self.dirty.mark(victim.index());
        self.dirty.mark(pkt.port().index());
        self.version += 1;
        // occupancy unchanged: one out, one in.
        Ok(())
    }

    /// Runs the transmission phase: every non-empty queue receives `speedup`
    /// processing cycles, head-of-line first, transmitting packets whose
    /// residual work reaches zero.
    ///
    /// Completed packets are appended to `out` with latency information.
    pub fn transmit_into(&mut self, speedup: u32, out: &mut Vec<Transmitted>) -> PhaseReport {
        let mut report = PhaseReport::default();
        for (i, queue) in self.queues.iter_mut().enumerate() {
            if queue.is_empty() {
                continue;
            }
            self.completions_scratch.clear();
            let used = queue.process(&mut self.core, speedup, &mut self.completions_scratch);
            if used > 0 {
                // Any processed cycle changes this queue's residual work
                // W_i, so its policy score may have moved.
                self.dirty.mark(i);
            }
            report.cycles_used += used as u64;
            for &arrived in &self.completions_scratch {
                let t = Transmitted {
                    port: PortId::new(i),
                    value: Value::ONE,
                    arrived,
                    departed: self.now,
                };
                self.counters.record_transmission(1, t.latency());
                self.transmitted_per_port[i] += 1;
                report.transmitted += 1;
                report.value += 1;
                out.push(t);
            }
        }
        self.counters.record_cycles(report.cycles_used);
        self.version += 1;
        report
    }

    /// Like [`WorkSwitch::transmit_into`], discarding per-packet details.
    pub fn transmit(&mut self, speedup: u32) -> PhaseReport {
        let mut scratch = Vec::new();
        self.transmit_into(speedup, &mut scratch)
    }

    /// Advances to the next time slot. Call once per slot, after the
    /// transmission phase.
    pub fn advance_slot(&mut self) {
        self.now = self.now.next();
        self.version += 1;
    }

    /// Discards every resident packet (a "flushout" in the paper's
    /// simulations), returning how many were discarded. Counted as push-outs
    /// so conservation holds.
    pub fn flush(&mut self) -> u64 {
        let mut total = 0;
        for q in &mut self.queues {
            total += q.clear(&mut self.core);
        }
        self.dirty.mark_all();
        self.counters.record_flush(total, total);
        self.version += 1;
        total
    }

    /// Verifies structural and conservation invariants; test/debug oracle.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let sum: usize = self.queues.iter().map(WorkQueue::len).sum();
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
            if !q.invariants_hold() {
                return Err(format!("queue {} residual invariant violated", i));
            }
        }
        self.counters
            .check_conservation(self.occupancy())
            .map_err(|e: ConservationError| e.to_string())?;
        // Every work-model packet is worth 1, so resident value == occupancy.
        self.counters
            .check_value_conservation(self.occupancy() as u64)
            .map_err(|e: ConservationError| e.to_string())
    }

    /// Convenience for building the packet that port `port` accepts in this
    /// switch (its work label is dictated by the configuration).
    pub fn packet_for(&self, port: PortId) -> WorkPacket {
        WorkPacket::new(port, self.config.work(port))
    }

    /// Packets transmitted per output port since construction, indexed by
    /// port — the basis of the fairness metrics (the paper motivates
    /// shared-memory designs by the tension between utilization and
    /// per-port fairness).
    pub fn transmitted_per_port(&self) -> &[u64] {
        &self.transmitted_per_port
    }

    /// Total residual work summed over all queues.
    pub fn total_work(&self) -> u64 {
        self.queues.iter().map(WorkQueue::total_work).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Work;

    fn switch(k: u32, b: usize) -> WorkSwitch {
        WorkSwitch::new(WorkSwitchConfig::contiguous(k, b).unwrap())
    }

    fn pkt(sw: &WorkSwitch, port: usize) -> WorkPacket {
        sw.packet_for(PortId::new(port))
    }

    #[test]
    fn admit_fills_buffer() {
        let mut sw = switch(2, 3);
        for _ in 0..3 {
            sw.admit(pkt(&sw, 0)).unwrap();
        }
        assert!(sw.is_full());
        assert_eq!(sw.admit(pkt(&sw, 1)), Err(AdmitError::BufferFull));
        sw.check_invariants().unwrap();
    }

    #[test]
    fn admit_validates_work_label() {
        let mut sw = switch(3, 4);
        let bad = WorkPacket::new(PortId::new(0), Work::new(2));
        assert!(matches!(
            sw.admit(bad),
            Err(AdmitError::WorkMismatch { .. })
        ));
        // A failed validation must not perturb counters.
        assert_eq!(sw.counters().arrived(), 0);
    }

    #[test]
    fn admit_validates_port() {
        let mut sw = switch(2, 4);
        let bad = WorkPacket::new(PortId::new(9), Work::new(1));
        assert!(matches!(sw.admit(bad), Err(AdmitError::UnknownPort { .. })));
    }

    #[test]
    fn reject_records_drop() {
        let mut sw = switch(2, 4);
        sw.reject(pkt(&sw, 0)).unwrap();
        assert_eq!(sw.counters().dropped(), 1);
        assert_eq!(sw.occupancy(), 0);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn push_out_and_admit_swaps_packets() {
        let mut sw = switch(2, 2);
        sw.admit(pkt(&sw, 1)).unwrap();
        sw.admit(pkt(&sw, 1)).unwrap();
        assert!(sw.is_full());
        sw.push_out_and_admit(PortId::new(1), pkt(&sw, 0)).unwrap();
        assert_eq!(sw.queue(PortId::new(0)).len(), 1);
        assert_eq!(sw.queue(PortId::new(1)).len(), 1);
        assert!(sw.is_full());
        assert_eq!(sw.counters().pushed_out(), 1);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn push_out_from_empty_queue_fails() {
        let mut sw = switch(2, 2);
        sw.admit(pkt(&sw, 0)).unwrap();
        let err = sw.push_out_and_admit(PortId::new(1), pkt(&sw, 0));
        assert_eq!(
            err,
            Err(AdmitError::EmptyQueue {
                port: PortId::new(1)
            })
        );
    }

    #[test]
    fn transmit_unit_work_every_slot() {
        let mut sw = switch(1, 4);
        for _ in 0..3 {
            sw.admit(pkt(&sw, 0)).unwrap();
        }
        let r = sw.transmit(1);
        assert_eq!(r.transmitted, 1);
        assert_eq!(r.cycles_used, 1);
        assert_eq!(sw.occupancy(), 2);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn transmit_respects_heterogeneous_work() {
        let mut sw = switch(3, 6);
        sw.admit(pkt(&sw, 0)).unwrap(); // w = 1
        sw.admit(pkt(&sw, 2)).unwrap(); // w = 3
        let r = sw.transmit(1);
        assert_eq!(r.transmitted, 1); // only the 1-cycle packet completes
        assert_eq!(r.cycles_used, 2); // both ports worked
        sw.advance_slot();
        assert_eq!(sw.transmit(1).transmitted, 0);
        sw.advance_slot();
        assert_eq!(sw.transmit(1).transmitted, 1);
        assert_eq!(sw.occupancy(), 0);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn transmit_with_speedup() {
        let mut sw = switch(2, 8);
        for _ in 0..4 {
            sw.admit(pkt(&sw, 0)).unwrap(); // w = 1
        }
        sw.admit(pkt(&sw, 1)).unwrap(); // w = 2
        let r = sw.transmit(2);
        // Port 0 finishes two unit packets; port 1 finishes its 2-cycle one.
        assert_eq!(r.transmitted, 3);
        assert_eq!(r.cycles_used, 4);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn transmit_reports_latency() {
        let mut sw = switch(1, 4);
        sw.admit(pkt(&sw, 0)).unwrap();
        sw.advance_slot();
        sw.advance_slot();
        let mut out = Vec::new();
        sw.transmit_into(1, &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].latency(), 2);
        assert_eq!(sw.counters().max_latency(), 2);
    }

    #[test]
    fn flush_discards_everything() {
        let mut sw = switch(2, 4);
        for _ in 0..4 {
            sw.admit(pkt(&sw, 1)).unwrap();
        }
        assert_eq!(sw.flush(), 4);
        assert_eq!(sw.occupancy(), 0);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn total_work_sums_queues() {
        let mut sw = switch(3, 6);
        sw.admit(pkt(&sw, 0)).unwrap(); // 1
        sw.admit(pkt(&sw, 2)).unwrap(); // 3
        sw.admit(pkt(&sw, 2)).unwrap(); // 3
        assert_eq!(sw.total_work(), 7);
    }

    #[test]
    fn push_out_may_target_partially_processed_head() {
        let mut sw = switch(2, 2);
        sw.admit(pkt(&sw, 1)).unwrap(); // w = 2
        sw.transmit(1); // head residual now 1
        sw.admit(pkt(&sw, 0)).unwrap();
        assert!(sw.is_full());
        sw.push_out_and_admit(PortId::new(1), pkt(&sw, 0)).unwrap();
        assert!(sw.queue(PortId::new(1)).is_empty());
        assert_eq!(sw.queue(PortId::new(0)).len(), 2);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn conservation_holds_through_mixed_operations() {
        let mut sw = switch(3, 5);
        for _ in 0..5 {
            sw.admit(pkt(&sw, 2)).unwrap();
        }
        sw.reject(pkt(&sw, 0)).unwrap();
        sw.push_out_and_admit(PortId::new(2), pkt(&sw, 0)).unwrap();
        sw.transmit(1);
        sw.advance_slot();
        sw.transmit(1);
        sw.check_invariants().unwrap();
        let c = sw.counters();
        assert_eq!(c.arrived(), 7);
        assert_eq!(c.admitted(), 6);
        assert_eq!(c.dropped(), 1);
        assert_eq!(c.pushed_out(), 1);
    }

    #[test]
    fn version_moves_on_every_mutation_but_reject() {
        let mut sw = switch(2, 2);
        let mut last = sw.version();
        let mut moved = |sw: &WorkSwitch| {
            let changed = sw.version() != last;
            last = sw.version();
            changed
        };
        sw.reject(pkt(&sw, 0)).unwrap();
        assert!(!moved(&sw));
        sw.admit(pkt(&sw, 1)).unwrap();
        assert!(moved(&sw));
        sw.admit(pkt(&sw, 1)).unwrap();
        assert!(moved(&sw));
        // A refused mutation changes nothing.
        assert_eq!(sw.admit(pkt(&sw, 0)), Err(AdmitError::BufferFull));
        assert!(!moved(&sw));
        sw.push_out_and_admit(PortId::new(1), pkt(&sw, 0)).unwrap();
        assert!(moved(&sw));
        sw.transmit(1);
        assert!(moved(&sw));
        sw.advance_slot();
        assert!(moved(&sw));
        sw.flush();
        assert!(moved(&sw));
    }

    #[test]
    fn dirty_ports_track_mutations() {
        let mut sw = switch(2, 4);
        let mut dirty = Vec::new();
        sw.admit(pkt(&sw, 1)).unwrap();
        sw.drain_dirty_into(&mut dirty);
        assert_eq!(dirty, vec![PortId::new(1)]);
        sw.transmit(1);
        sw.drain_dirty_into(&mut dirty);
        assert_eq!(dirty, vec![PortId::new(1)]);
        // Nothing moved since: the set stays empty.
        sw.drain_dirty_into(&mut dirty);
        assert!(dirty.is_empty());
    }
}
