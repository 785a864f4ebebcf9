//! The shared-memory switch, written once over a per-port
//! [`QueueDiscipline`]: the discipline makes the only per-model choices and
//! [`Switch`] owns everything else.

use std::fmt;

use crate::slab::BufferCore;
use crate::{
    AdmitError, CombinedQueue, ConservationError, Counters, DirtyPorts, PortId, Slot, Transmitted,
    Value, ValueQueue, Work, WorkPacket, WorkQueue,
};

/// The per-port queue discipline of a [`Switch`]: the only decisions in which
/// the paper's models differ.
///
/// Implemented by [`WorkQueue`] (FIFO, residual work), [`ValueQueue`]
/// (priority by value, unit work) and [`CombinedQueue`] (priority by value,
/// run-to-completion service of per-port work).
pub trait QueueDiscipline: Clone + fmt::Debug {
    /// The packets this discipline queues: plain data, so they cross threads
    /// in the runtime's ingress rings.
    type Packet: Copy + fmt::Debug + Send + 'static;
    /// The switch configuration: buffer `B` and the ports.
    type Config: Clone + fmt::Debug;

    /// Whether a valid packet is fully determined by its destination port,
    /// as in the work model, where the port dictates the work label and
    /// every packet is worth 1. Then a policy's verdict on one arrival
    /// holds for every arrival to that port until the switch changes, and
    /// runners may memoise drops; where packets carry values it does not.
    const PORT_DETERMINES_PACKET: bool;

    /// One empty queue per output port of `config`.
    fn for_ports(config: &Self::Config) -> Vec<Self>;

    /// The shared buffer capacity `B` of `config`.
    fn buffer(config: &Self::Config) -> usize;

    /// Destination port of `pkt`.
    fn port(pkt: Self::Packet) -> PortId;

    /// Value of `pkt` (1 in the work model, where throughput is a count).
    fn value(pkt: Self::Packet) -> Value;

    /// Processing cycles `pkt` requires (1 in the value model, where every
    /// packet takes one cycle).
    fn work(pkt: Self::Packet) -> Work;

    /// Checks the model's packet labels against `config`; the port is
    /// already known to exist. By default there is nothing to check.
    ///
    /// # Errors
    ///
    /// [`AdmitError::WorkMismatch`] when the packet's work label differs
    /// from its port's requirement.
    fn check_label(config: &Self::Config, pkt: Self::Packet) -> Result<(), AdmitError> {
        let _ = (config, pkt);
        Ok(())
    }

    /// Queues `pkt`, which arrived during `now`, in a slot taken from `core`.
    fn enqueue(&mut self, core: &mut BufferCore, pkt: Self::Packet, now: Slot);

    /// Evicts the packet a push-out takes from this queue, returning its
    /// value, or `None` when the queue is empty.
    fn evict(&mut self, core: &mut BufferCore) -> Option<Value>;

    /// A push-out whose victim is the arrival's own queue: `pkt` enters and
    /// the victim position leaves. Returns the evicted value, or `None`
    /// (with nothing changed) when no push-out is possible.
    ///
    /// The default evicts first and then queues `pkt`. Valued disciplines
    /// override it with the "net drop" rule: an arrival that would sort at
    /// the victim position is itself the packet evicted.
    fn push_out_own(
        &mut self,
        core: &mut BufferCore,
        pkt: Self::Packet,
        now: Slot,
    ) -> Option<Value> {
        let evicted = self.evict(core)?;
        self.enqueue(core, pkt, now);
        Some(evicted)
    }

    /// Spends processing cycles from `budget` until a packet completes,
    /// returning its value and arrival slot; `None` once the budget or the
    /// queue runs out. Packets complete in transmission order.
    fn serve_next(&mut self, core: &mut BufferCore, budget: &mut u32) -> Option<(Value, Slot)>;

    /// Discards every resident packet, returning how many there were.
    fn clear(&mut self, core: &mut BufferCore) -> u64;

    /// Number of resident packets.
    fn packets(&self) -> usize;

    /// Total value of the resident packets.
    fn resident_value(&self) -> u64;

    /// Checks the queue's internal invariants (order, cached aggregates,
    /// residual work) against `core`; used by tests and
    /// [`Switch::check_invariants`].
    fn invariants_hold(&self, core: &BufferCore) -> bool;
}

/// Outcome summary of one transmission phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseReport {
    /// Packets transmitted during the phase.
    pub transmitted: u64,
    /// Total value carried out (equals `transmitted` in the work model).
    pub value: u64,
    /// Processing cycles actually consumed across all ports.
    pub cycles_used: u64,
}

/// An `l × n` shared-memory switch with buffer capacity `B` whose output
/// queues follow the discipline `Q`.
///
/// The buffer is a [`BufferCore`] slab of exactly `B` slots; every queue is a
/// linked-list view over it, so occupancy is the slab's allocated count and
/// "buffer full" is exactly "free list empty". The switch owns the buffer
/// state and *validates* every mutation; admission **decisions** live in the
/// policies of the `smbm-core` crate. Use it through the per-model aliases
/// [`WorkSwitch`], [`ValueSwitch`] and [`CombinedSwitch`].
#[derive(Debug, Clone)]
pub struct Switch<Q: QueueDiscipline> {
    config: Q::Config,
    queues: Vec<Q>,
    core: BufferCore,
    counters: Counters,
    now: Slot,
    transmitted_per_port: Vec<u64>,
    dirty: DirtyPorts,
    version: u64,
}

/// The heterogeneous-processing switch (Section III): FIFO queues whose
/// packets carry per-port work requirements; throughput is the number of
/// transmitted packets. A typical slot looks like:
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
pub type WorkSwitch = Switch<WorkQueue>;

/// The heterogeneous-value switch (Section IV): unit-work packets carry
/// values and each output queue transmits its most valuable packet first;
/// throughput is the total transmitted value.
pub type ValueSwitch = Switch<ValueQueue>;

/// The combined-model switch (extension): per-port work requirements as in
/// Section III and per-packet values as in Section IV; the objective is the
/// total transmitted value. Every resident packet — in service or
/// backlogged — holds a slot of the shared buffer.
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
pub type CombinedSwitch = Switch<CombinedQueue>;

// `Switch<Q>` compiles in each calling crate, so the per-packet queue, slab
// and dirty-set primitives it reaches are `#[inline]` to stay inlinable.
impl<Q: QueueDiscipline> Switch<Q> {
    /// Creates an empty switch from a validated configuration.
    pub fn new(config: Q::Config) -> Self {
        let queues = Q::for_ports(&config);
        Switch {
            transmitted_per_port: vec![0; queues.len()],
            dirty: DirtyPorts::new(queues.len()),
            core: BufferCore::new(Q::buffer(&config)),
            config,
            queues,
            counters: Counters::new(),
            now: Slot::ZERO,
            version: 0,
        }
    }

    /// The switch configuration.
    pub fn config(&self) -> &Q::Config {
        &self.config
    }

    /// Number of output ports `n`.
    pub fn ports(&self) -> usize {
        self.queues.len()
    }

    /// Shared buffer capacity `B`.
    pub fn buffer(&self) -> usize {
        Q::buffer(&self.config)
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
    /// Panics if `port` is out of range; use [`Switch::ports`] to bound
    /// iteration.
    pub fn queue(&self, port: PortId) -> &Q {
        &self.queues[port.index()]
    }

    /// Iterates over `(port, queue)` pairs.
    pub fn queues(&self) -> impl Iterator<Item = (PortId, &Q)> {
        self.queues
            .iter()
            .enumerate()
            .map(|(i, q)| (PortId::new(i), q))
    }

    /// Length of the longest output queue right now — the telemetry plane's
    /// queue-depth gauge tap.
    pub fn max_queue_len(&self) -> usize {
        self.queues.iter().map(Q::packets).max().unwrap_or(0)
    }

    /// Lifetime packet accounting.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Packets transmitted per output port since construction, indexed by
    /// port — the basis of the fairness metrics (the paper motivates
    /// shared-memory designs by the tension between utilization and
    /// per-port fairness).
    pub fn transmitted_per_port(&self) -> &[u64] {
        &self.transmitted_per_port
    }

    /// Total value resident in the buffer.
    pub fn total_value(&self) -> u64 {
        self.queues.iter().map(Q::resident_value).sum()
    }

    /// Moves the ports whose queues changed since the last drain into `out`
    /// (cleared first). Incremental policies use this to refresh only the
    /// scores that can have moved instead of rescanning all `n` queues; see
    /// [`DirtyPorts`].
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

    fn port_index(&self, port: PortId) -> Result<usize, AdmitError> {
        if port.index() < self.queues.len() {
            Ok(port.index())
        } else {
            Err(AdmitError::UnknownPort {
                port,
                ports: self.queues.len(),
            })
        }
    }

    /// Validates `pkt` and returns its destination queue's index.
    fn validate(&self, pkt: Q::Packet) -> Result<usize, AdmitError> {
        let i = self.port_index(Q::port(pkt))?;
        Q::check_label(&self.config, pkt)?;
        Ok(i)
    }

    /// Admits `pkt` into its destination queue. Records the arrival.
    ///
    /// # Errors
    ///
    /// Fails with [`AdmitError::BufferFull`] when no space is free, or with a
    /// validation error for an unknown port / mismatched work label.
    pub fn admit(&mut self, pkt: Q::Packet) -> Result<(), AdmitError> {
        let i = self.validate(pkt)?;
        if self.is_full() {
            return Err(AdmitError::BufferFull);
        }
        let value = Q::value(pkt).get();
        self.counters.record_arrival(value);
        self.counters.record_admission(value);
        self.queues[i].enqueue(&mut self.core, pkt, self.now);
        self.dirty.mark(i);
        self.version += 1;
        Ok(())
    }

    /// Rejects `pkt` on arrival. Records the arrival and the drop.
    ///
    /// # Errors
    ///
    /// Fails with a validation error for an unknown port / mismatched work
    /// label (such a packet is not a legal arrival in the model at all).
    pub fn reject(&mut self, pkt: Q::Packet) -> Result<(), AdmitError> {
        self.validate(pkt)?;
        let value = Q::value(pkt).get();
        self.counters.record_arrival(value);
        self.counters.record_drop(value);
        Ok(())
    }

    /// Pushes a packet out of `victim`'s queue and admits `pkt` in the freed
    /// slot (the push-out primitive shared by every push-out policy),
    /// returning the evicted value. The discipline picks the evicted packet:
    /// the tail of a FIFO, the minimal value of a priority queue.
    ///
    /// When `victim == pkt.port()` this realises the uniform "virtual add"
    /// semantics documented in DESIGN.md: the arriving packet enters and the
    /// victim position leaves, which in the valued models may be the arrival
    /// itself — a net drop, accounted as admission plus push-out (see
    /// [`QueueDiscipline::push_out_own`]).
    ///
    /// # Errors
    ///
    /// Fails if no packet can be pushed out of the victim queue, or on a
    /// validation error. The buffer need not be full (policies only push out
    /// when it is, but the primitive does not require it).
    pub fn push_out_and_admit(
        &mut self,
        victim: PortId,
        pkt: Q::Packet,
    ) -> Result<Value, AdmitError> {
        let dest = self.validate(pkt)?;
        let v = self.port_index(victim)?;
        let evicted = if v == dest {
            self.queues[dest].push_out_own(&mut self.core, pkt, self.now)
        } else {
            self.queues[v].evict(&mut self.core)
        }
        .ok_or(AdmitError::EmptyQueue { port: victim })?;
        if v != dest {
            self.queues[dest].enqueue(&mut self.core, pkt, self.now);
        }
        let value = Q::value(pkt).get();
        self.counters.record_arrival(value);
        self.counters.record_admission(value);
        self.counters.record_push_out(evicted.get());
        self.dirty.mark(v);
        self.dirty.mark(dest);
        self.version += 1;
        Ok(evicted)
    }

    /// Runs the transmission phase: every non-empty queue receives `speedup`
    /// processing cycles, transmitting the packets whose service completes.
    ///
    /// Completed packets are appended to `out` with latency information.
    pub fn transmit_into(&mut self, speedup: u32, out: &mut Vec<Transmitted>) -> PhaseReport {
        let mut report = PhaseReport::default();
        for (i, queue) in self.queues.iter_mut().enumerate() {
            if queue.packets() == 0 {
                continue;
            }
            let mut budget = speedup;
            while let Some((value, arrived)) = queue.serve_next(&mut self.core, &mut budget) {
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
            if budget < speedup {
                // Any served cycle changes this queue, so its policy score
                // may have moved.
                self.dirty.mark(i);
            }
            report.cycles_used += u64::from(speedup - budget);
        }
        self.counters.record_cycles(report.cycles_used);
        self.version += 1;
        report
    }

    /// Like [`Switch::transmit_into`], discarding per-packet details.
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
        let value = self.total_value();
        let mut total = 0;
        for q in &mut self.queues {
            total += q.clear(&mut self.core);
        }
        self.dirty.mark_all();
        self.counters.record_flush(total, value);
        self.version += 1;
        total
    }

    /// Verifies structural and conservation invariants; test/debug oracle.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let sum: usize = self.queues.iter().map(Q::packets).sum();
        if sum != self.core.allocated() {
            return Err(format!(
                "slab allocation {} != sum of queue lengths {}",
                self.core.allocated(),
                sum
            ));
        }
        if self.core.capacity() != self.buffer() {
            return Err(format!(
                "slab capacity {} != configured buffer {}",
                self.core.capacity(),
                self.buffer()
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

    /// Smallest value admitted anywhere, with the port holding it; ties go
    /// to the *longest* queue, matching MVD's victim rule.
    fn min_value_by(&self, min: impl Fn(&Q) -> Option<Value>) -> Option<(PortId, Value)> {
        let mut best: Option<(PortId, Value, usize)> = None;
        for (port, q) in self.queues() {
            let Some(v) = min(q) else { continue };
            let better = match best {
                None => true,
                Some((_, bv, blen)) => v < bv || (v == bv && q.packets() > blen),
            };
            if better {
                best = Some((port, v, q.packets()));
            }
        }
        best.map(|(p, v, _)| (p, v))
    }
}

impl Switch<WorkQueue> {
    /// Convenience for building the packet that port `port` accepts in this
    /// switch (its work label is dictated by the configuration).
    pub fn packet_for(&self, port: PortId) -> WorkPacket {
        WorkPacket::new(port, self.config.work(port))
    }

    /// Total residual work summed over all queues.
    pub fn total_work(&self) -> u64 {
        self.queues.iter().map(WorkQueue::total_work).sum()
    }
}

impl Switch<ValueQueue> {
    /// Smallest value currently admitted anywhere in the buffer, with the
    /// port holding it. Ties are broken toward the *longest* queue, matching
    /// MVD's victim rule.
    pub fn global_min_value(&self) -> Option<(PortId, Value)> {
        self.min_value_by(ValueQueue::min_value)
    }
}

impl Switch<CombinedQueue> {
    /// Smallest value currently admitted anywhere, in service or backlogged
    /// (ties toward the longest queue).
    pub fn global_min_value(&self) -> Option<(PortId, Value)> {
        self.min_value_by(CombinedQueue::min_value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CombinedPacket, ValuePacket, ValueSwitchConfig, Work, WorkSwitchConfig};

    /// One model under the contract suite: how to build its switch and a
    /// packet for any port (valid labels, even for unknown ports).
    trait Model: QueueDiscipline {
        /// `ports` ports (works `1..=ports` where the model has work) and a
        /// buffer of `buffer` slots.
        fn switch(ports: usize, buffer: usize) -> Switch<Self>;
        /// A packet for `port` worth `value` (always 1 in the work model).
        fn pkt(port: usize, value: u64) -> Self::Packet;
    }

    impl Model for WorkQueue {
        fn switch(ports: usize, buffer: usize) -> WorkSwitch {
            WorkSwitch::new(WorkSwitchConfig::contiguous(ports as u32, buffer).unwrap())
        }
        fn pkt(port: usize, _: u64) -> WorkPacket {
            WorkPacket::new(PortId::new(port), Work::new(port as u32 + 1))
        }
    }

    impl Model for ValueQueue {
        fn switch(ports: usize, buffer: usize) -> ValueSwitch {
            ValueSwitch::new(ValueSwitchConfig::new(buffer, ports).unwrap())
        }
        fn pkt(port: usize, value: u64) -> ValuePacket {
            ValuePacket::new(PortId::new(port), Value::new(value))
        }
    }

    impl Model for CombinedQueue {
        fn switch(ports: usize, buffer: usize) -> CombinedSwitch {
            CombinedSwitch::new(WorkSwitchConfig::contiguous(ports as u32, buffer).unwrap())
        }
        fn pkt(port: usize, value: u64) -> CombinedPacket {
            let work = Work::new(port as u32 + 1);
            CombinedPacket::new(PortId::new(port), work, Value::new(value))
        }
    }

    fn fill_then_buffer_full<M: Model>() {
        let mut sw = M::switch(2, 3);
        for (i, v) in [4, 2, 6].into_iter().enumerate() {
            assert_eq!(sw.free_space(), 3 - i);
            sw.admit(M::pkt(0, v)).unwrap();
        }
        assert!(sw.is_full());
        assert_eq!(sw.free_space(), 0);
        assert_eq!(sw.occupancy(), 3);
        let version = sw.version();
        assert_eq!(sw.admit(M::pkt(1, 1)), Err(AdmitError::BufferFull));
        // A refused admission changes nothing.
        assert_eq!(sw.counters().arrived(), 3);
        assert_eq!(sw.version(), version);
        sw.check_invariants().unwrap();
    }

    fn reject_records_the_drop<M: Model>() {
        let mut sw = M::switch(2, 4);
        let pkt = M::pkt(0, 5);
        sw.reject(pkt).unwrap();
        let c = sw.counters();
        assert_eq!((c.arrived(), c.dropped(), c.admitted()), (1, 1, 0));
        assert_eq!(c.dropped_value(), M::value(pkt).get());
        assert_eq!(sw.occupancy(), 0);
        sw.check_invariants().unwrap();
    }

    fn unknown_ports_are_refused_without_side_effects<M: Model>() {
        let mut sw = M::switch(2, 4);
        sw.admit(M::pkt(0, 1)).unwrap();
        let version = sw.version();
        let unknown = AdmitError::UnknownPort {
            port: PortId::new(9),
            ports: 2,
        };
        assert_eq!(sw.admit(M::pkt(9, 1)), Err(unknown.clone()));
        assert_eq!(sw.reject(M::pkt(9, 1)), Err(unknown.clone()));
        let to = |victim: usize, port: usize| (PortId::new(victim), M::pkt(port, 1));
        for (victim, pkt) in [to(0, 9), to(9, 1)] {
            assert_eq!(sw.push_out_and_admit(victim, pkt), Err(unknown.clone()));
        }
        assert_eq!(sw.counters().arrived(), 1);
        assert_eq!(sw.version(), version);
        sw.check_invariants().unwrap();
    }

    fn push_out_swaps_packets<M: Model>() {
        let mut sw = M::switch(2, 2);
        sw.admit(M::pkt(1, 5)).unwrap();
        sw.admit(M::pkt(1, 3)).unwrap();
        assert!(sw.is_full());
        let evicted = sw.push_out_and_admit(PortId::new(1), M::pkt(0, 7)).unwrap();
        assert_eq!(sw.queue(PortId::new(0)).packets(), 1);
        assert_eq!(sw.queue(PortId::new(1)).packets(), 1);
        assert!(sw.is_full());
        let c = sw.counters();
        assert_eq!((c.arrived(), c.admitted(), c.pushed_out()), (3, 3, 1));
        assert_eq!(c.pushed_out_value(), evicted.get());
        sw.check_invariants().unwrap();
    }

    fn push_out_from_an_empty_victim_fails<M: Model>() {
        let mut sw = M::switch(2, 2);
        sw.admit(M::pkt(0, 1)).unwrap();
        let version = sw.version();
        let err = sw.push_out_and_admit(PortId::new(1), M::pkt(0, 2));
        assert_eq!(
            err,
            Err(AdmitError::EmptyQueue {
                port: PortId::new(1)
            })
        );
        assert_eq!(sw.counters().arrived(), 1);
        assert_eq!(sw.version(), version);
        sw.check_invariants().unwrap();
    }

    fn flush_discards_everything<M: Model>() {
        let mut sw = M::switch(2, 4);
        let mut dirty = Vec::new();
        for (port, v) in [(0, 3), (1, 4), (1, 2), (0, 9)] {
            sw.admit(M::pkt(port, v)).unwrap();
        }
        let resident = sw.total_value();
        sw.drain_dirty_into(&mut dirty);
        assert_eq!(sw.flush(), 4);
        assert_eq!(sw.occupancy(), 0);
        assert_eq!(sw.total_value(), 0);
        let c = sw.counters();
        assert_eq!((c.pushed_out(), c.pushed_out_value()), (4, resident));
        sw.drain_dirty_into(&mut dirty);
        assert_eq!(dirty.len(), 2);
        sw.check_invariants().unwrap();
    }

    fn dirty_ports_track_mutations<M: Model>() {
        let mut sw = M::switch(2, 4);
        let mut dirty = Vec::new();
        sw.admit(M::pkt(1, 2)).unwrap();
        sw.drain_dirty_into(&mut dirty);
        assert_eq!(dirty, vec![PortId::new(1)]);
        sw.reject(M::pkt(0, 2)).unwrap();
        assert!(!sw.has_dirty_ports());
        sw.transmit(1);
        assert!(sw.has_dirty_ports());
        sw.drain_dirty_into(&mut dirty);
        assert_eq!(dirty, vec![PortId::new(1)]);
        sw.admit(M::pkt(1, 2)).unwrap();
        sw.push_out_and_admit(PortId::new(1), M::pkt(0, 9)).unwrap();
        sw.drain_dirty_into(&mut dirty);
        assert_eq!(dirty, vec![PortId::new(1), PortId::new(0)]);
        // Nothing moved since: the set stays empty.
        sw.drain_dirty_into(&mut dirty);
        assert!(dirty.is_empty());
    }

    fn version_moves_on_every_mutation_but_reject<M: Model>() {
        let mut sw = M::switch(2, 2);
        let mut last = sw.version();
        let mut moved = |sw: &Switch<M>| {
            let changed = sw.version() != last;
            last = sw.version();
            changed
        };
        sw.reject(M::pkt(0, 1)).unwrap();
        assert!(!moved(&sw));
        sw.admit(M::pkt(1, 1)).unwrap();
        assert!(moved(&sw));
        sw.admit(M::pkt(1, 2)).unwrap();
        assert!(moved(&sw));
        // A refused mutation changes nothing.
        assert_eq!(sw.admit(M::pkt(0, 1)), Err(AdmitError::BufferFull));
        assert!(!moved(&sw));
        sw.push_out_and_admit(PortId::new(1), M::pkt(0, 3)).unwrap();
        assert!(moved(&sw));
        sw.transmit(1);
        assert!(moved(&sw));
        sw.advance_slot();
        assert!(moved(&sw));
        sw.flush();
        assert!(moved(&sw));
    }

    fn transmission_records_latency<M: Model>() {
        let mut sw = M::switch(1, 4);
        sw.admit(M::pkt(0, 4)).unwrap();
        sw.advance_slot();
        sw.advance_slot();
        let mut out = Vec::new();
        let report = sw.transmit_into(1, &mut out);
        assert_eq!(report.transmitted, 1);
        assert_eq!(report.cycles_used, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].latency(), 2);
        assert_eq!(out[0].port, PortId::new(0));
        assert_eq!(report.value, out[0].value.get());
        assert_eq!(sw.counters().max_latency(), 2);
        assert_eq!(sw.transmitted_per_port(), &[1]);
        sw.check_invariants().unwrap();
    }

    fn conservation_holds_through_mixed_operations<M: Model>() {
        let mut sw = M::switch(3, 5);
        for v in [5, 1, 7, 2, 4] {
            sw.admit(M::pkt(2, v)).unwrap();
        }
        sw.reject(M::pkt(0, 9)).unwrap();
        sw.push_out_and_admit(PortId::new(2), M::pkt(0, 6)).unwrap();
        sw.transmit(2);
        sw.advance_slot();
        sw.transmit(2);
        sw.check_invariants().unwrap();
        let c = sw.counters();
        assert_eq!(c.arrived(), 7);
        assert_eq!(c.admitted(), 6);
        assert_eq!(c.dropped(), 1);
        assert_eq!(c.pushed_out(), 1);
        let tallies: u64 = sw.transmitted_per_port().iter().sum();
        assert_eq!(tallies, c.transmitted());
    }

    /// Instantiates every contract test above for one model.
    macro_rules! contract_suite {
        ($($model:ident => $queue:ty),* $(,)?) => {$(
            mod $model {
                use super::*;
                #[test]
                fn fill_then_buffer_full() {
                    super::fill_then_buffer_full::<$queue>();
                }
                #[test]
                fn reject_records_the_drop() {
                    super::reject_records_the_drop::<$queue>();
                }
                #[test]
                fn unknown_ports_are_refused_without_side_effects() {
                    super::unknown_ports_are_refused_without_side_effects::<$queue>();
                }
                #[test]
                fn push_out_swaps_packets() {
                    super::push_out_swaps_packets::<$queue>();
                }
                #[test]
                fn push_out_from_an_empty_victim_fails() {
                    super::push_out_from_an_empty_victim_fails::<$queue>();
                }
                #[test]
                fn flush_discards_everything() {
                    super::flush_discards_everything::<$queue>();
                }
                #[test]
                fn dirty_ports_track_mutations() {
                    super::dirty_ports_track_mutations::<$queue>();
                }
                #[test]
                fn version_moves_on_every_mutation_but_reject() {
                    super::version_moves_on_every_mutation_but_reject::<$queue>();
                }
                #[test]
                fn transmission_records_latency() {
                    super::transmission_records_latency::<$queue>();
                }
                #[test]
                fn conservation_holds_through_mixed_operations() {
                    super::conservation_holds_through_mixed_operations::<$queue>();
                }
            }
        )*};
    }

    contract_suite! {
        work_contract => WorkQueue,
        value_contract => ValueQueue,
        combined_contract => CombinedQueue,
    }

    // ----- heterogeneous processing (Section III) -----

    fn work(k: usize, b: usize) -> WorkSwitch {
        WorkQueue::switch(k, b)
    }

    fn wpkt(port: usize) -> WorkPacket {
        WorkQueue::pkt(port, 1)
    }

    #[test]
    fn work_admit_validates_work_label() {
        let mut sw = work(3, 4);
        let bad = WorkPacket::new(PortId::new(0), Work::new(2));
        assert!(matches!(
            sw.admit(bad),
            Err(AdmitError::WorkMismatch { .. })
        ));
        // A failed validation must not perturb counters.
        assert_eq!(sw.counters().arrived(), 0);
        assert_eq!(sw.packet_for(PortId::new(2)), wpkt(2));
    }

    #[test]
    fn work_transmit_unit_work_every_slot() {
        let mut sw = work(1, 4);
        for _ in 0..3 {
            sw.admit(wpkt(0)).unwrap();
        }
        let r = sw.transmit(1);
        assert_eq!(r.transmitted, 1);
        assert_eq!(r.cycles_used, 1);
        assert_eq!(sw.occupancy(), 2);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn work_transmit_respects_heterogeneous_work() {
        let mut sw = work(3, 6);
        sw.admit(wpkt(0)).unwrap(); // w = 1
        sw.admit(wpkt(2)).unwrap(); // w = 3
        let r = sw.transmit(1);
        assert_eq!(r.transmitted, 1); // only the 1-cycle packet completes
        assert_eq!(r.cycles_used, 2); // both ports worked
        sw.advance_slot();
        assert_eq!(sw.transmit(1).transmitted, 0);
        sw.advance_slot();
        assert_eq!(sw.transmit(1).transmitted, 1);
        assert_eq!(sw.occupancy(), 0);
        assert_eq!(sw.counters().cycles_consumed(), 4);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn work_transmit_with_speedup() {
        let mut sw = work(2, 8);
        for _ in 0..4 {
            sw.admit(wpkt(0)).unwrap(); // w = 1
        }
        sw.admit(wpkt(1)).unwrap(); // w = 2
        let r = sw.transmit(2);
        // Port 0 finishes two unit packets; port 1 finishes its 2-cycle one.
        assert_eq!(r.transmitted, 3);
        assert_eq!(r.value, 3);
        assert_eq!(r.cycles_used, 4);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn work_total_work_sums_queues() {
        let mut sw = work(3, 6);
        sw.admit(wpkt(0)).unwrap(); // 1
        sw.admit(wpkt(2)).unwrap(); // 3
        sw.admit(wpkt(2)).unwrap(); // 3
        assert_eq!(sw.total_work(), 7);
        assert_eq!(sw.total_value(), 3);
    }

    #[test]
    fn work_push_out_may_target_partially_processed_head() {
        let mut sw = work(2, 2);
        sw.admit(wpkt(1)).unwrap(); // w = 2
        sw.transmit(1); // head residual now 1
        sw.admit(wpkt(0)).unwrap();
        assert!(sw.is_full());
        assert_eq!(
            sw.push_out_and_admit(PortId::new(1), wpkt(0)),
            Ok(Value::ONE)
        );
        assert!(sw.queue(PortId::new(1)).is_empty());
        assert_eq!(sw.queue(PortId::new(0)).len(), 2);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn work_self_push_out_replaces_the_tail_and_needs_a_resident() {
        let mut sw = work(2, 2);
        assert_eq!(
            sw.push_out_and_admit(PortId::new(1), wpkt(1)),
            Err(AdmitError::EmptyQueue {
                port: PortId::new(1)
            })
        );
        sw.admit(wpkt(1)).unwrap();
        sw.transmit(1); // head residual now 1
        sw.push_out_and_admit(PortId::new(1), wpkt(1)).unwrap();
        // The partially processed packet left; the arrival starts afresh.
        assert_eq!(sw.queue(PortId::new(1)).head_residual(), 2);
        sw.check_invariants().unwrap();
    }

    // ----- heterogeneous values (Section IV) -----

    fn value(n: usize, b: usize) -> ValueSwitch {
        ValueQueue::switch(n, b)
    }

    fn vpkt(port: usize, v: u64) -> ValuePacket {
        ValueQueue::pkt(port, v)
    }

    #[test]
    fn value_transmit_takes_most_valuable_first() {
        let mut sw = value(1, 4);
        for v in [2, 6, 4] {
            sw.admit(vpkt(0, v)).unwrap();
        }
        assert_eq!(sw.transmit(1).value, 6);
        assert_eq!(sw.transmit(1).value, 4);
        assert_eq!(sw.transmit(1).value, 2);
        assert_eq!(sw.transmit(1).value, 0);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn value_transmit_speedup_takes_top_c() {
        let mut sw = value(2, 8);
        for v in [1, 2, 3, 4] {
            sw.admit(vpkt(0, v)).unwrap();
        }
        sw.admit(vpkt(1, 9)).unwrap();
        let r = sw.transmit(2);
        // Port 0 sends 4 and 3; port 1 sends 9. One cycle per packet.
        assert_eq!(r.transmitted, 3);
        assert_eq!(r.value, 16);
        assert_eq!(r.cycles_used, 3);
        assert_eq!(sw.counters().cycles_consumed(), 3);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn value_push_out_evicts_minimum_of_victim() {
        let mut sw = value(2, 2);
        sw.admit(vpkt(1, 5)).unwrap();
        sw.admit(vpkt(1, 3)).unwrap();
        let evicted = sw.push_out_and_admit(PortId::new(1), vpkt(0, 7)).unwrap();
        assert_eq!(evicted, Value::new(3));
        assert_eq!(sw.queue(PortId::new(1)).max_value(), Some(Value::new(5)));
        assert_eq!(sw.queue(PortId::new(0)).len(), 1);
        assert!(sw.is_full());
        sw.check_invariants().unwrap();
    }

    #[test]
    fn value_virtual_add_self_eviction() {
        // Victim queue == destination queue; the arriving packet is smaller
        // than everything resident, so it evicts itself (a net drop that is
        // accounted as admit + push-out).
        let mut sw = value(1, 2);
        sw.admit(vpkt(0, 5)).unwrap();
        sw.admit(vpkt(0, 4)).unwrap();
        let evicted = sw.push_out_and_admit(PortId::new(0), vpkt(0, 1)).unwrap();
        assert_eq!(evicted, Value::new(1));
        assert_eq!(sw.total_value(), 9);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn value_virtual_add_equal_minimum_drops_the_arrival() {
        // Equal values keep arrival order: the newcomer sorts behind the
        // resident equal minimum, so it is the one evicted.
        let mut sw = value(1, 2);
        sw.admit(vpkt(0, 5)).unwrap();
        sw.admit(vpkt(0, 4)).unwrap();
        let evicted = sw.push_out_and_admit(PortId::new(0), vpkt(0, 4)).unwrap();
        assert_eq!(evicted, Value::new(4));
        assert_eq!(sw.total_value(), 9);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn value_virtual_add_displaces_resident_minimum() {
        let mut sw = value(1, 2);
        sw.admit(vpkt(0, 5)).unwrap();
        sw.admit(vpkt(0, 4)).unwrap();
        let evicted = sw.push_out_and_admit(PortId::new(0), vpkt(0, 6)).unwrap();
        assert_eq!(evicted, Value::new(4));
        assert_eq!(sw.total_value(), 11);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn value_self_push_out_into_an_empty_queue_is_a_net_drop() {
        let mut sw = value(2, 2);
        let evicted = sw.push_out_and_admit(PortId::new(0), vpkt(0, 3)).unwrap();
        assert_eq!(evicted, Value::new(3));
        assert_eq!(sw.occupancy(), 0);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn value_global_min_value_prefers_longer_queue_on_tie() {
        let mut sw = value(3, 8);
        assert_eq!(sw.global_min_value(), None);
        sw.admit(vpkt(0, 2)).unwrap();
        sw.admit(vpkt(1, 2)).unwrap();
        sw.admit(vpkt(1, 5)).unwrap();
        // Both port 0 and port 1 hold a min of 2; port 1 is longer.
        assert_eq!(sw.global_min_value(), Some((PortId::new(1), Value::new(2))));
    }

    #[test]
    fn value_flush_and_conservation() {
        let mut sw = value(2, 4);
        for v in [1, 2, 3] {
            sw.admit(vpkt(0, v)).unwrap();
        }
        sw.reject(vpkt(1, 9)).unwrap();
        sw.transmit(1);
        assert_eq!(sw.flush(), 2);
        sw.check_invariants().unwrap();
        assert_eq!(sw.counters().transmitted_value(), 3);
        assert_eq!(sw.counters().arrived_value(), 15);
    }

    // ----- combined model (extension) -----

    fn combined(k: usize, b: usize) -> CombinedSwitch {
        CombinedQueue::switch(k, b)
    }

    fn cpkt(port: usize, v: u64) -> CombinedPacket {
        CombinedQueue::pkt(port, v)
    }

    #[test]
    fn combined_admit_and_transmit_by_value_order() {
        let mut sw = combined(2, 4);
        sw.admit(cpkt(0, 3)).unwrap();
        sw.admit(cpkt(0, 9)).unwrap();
        // w = 1 port: one packet per slot; the 3 entered service first
        // (run-to-completion), the 9 follows.
        assert_eq!(sw.transmit(1).value, 3);
        sw.advance_slot();
        assert_eq!(sw.transmit(1).value, 9);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn combined_heavy_port_takes_w_slots() {
        let mut sw = combined(2, 4);
        sw.admit(cpkt(1, 5)).unwrap(); // w = 2
        assert_eq!(sw.transmit(1).value, 0);
        sw.advance_slot();
        assert_eq!(sw.transmit(1).value, 5);
    }

    #[test]
    fn combined_push_out_evicts_backlog_minimum_and_validates_work() {
        let mut sw = combined(2, 2);
        sw.admit(cpkt(1, 8)).unwrap();
        sw.admit(cpkt(1, 6)).unwrap();
        assert!(sw.is_full());
        let evicted = sw.push_out_and_admit(PortId::new(1), cpkt(0, 4)).unwrap();
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
    fn combined_self_push_out_with_service_only_queue_is_net_drop() {
        // The destination queue holds only an in-service packet: under
        // insert-then-evict the arrival joins the backlog and is popped right
        // back out (eviction prefers the backlog). The service packet stays.
        let mut sw = combined(1, 1);
        sw.admit(cpkt(0, 9)).unwrap();
        assert!(sw.is_full());
        let evicted = sw.push_out_and_admit(PortId::new(0), cpkt(0, 4)).unwrap();
        assert_eq!(evicted, Value::new(4));
        assert_eq!(sw.queue(PortId::new(0)).len(), 1);
        assert_eq!(sw.total_value(), 9);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn combined_self_push_out_displaces_backlog_minimum() {
        let mut sw = combined(1, 3);
        sw.admit(cpkt(0, 9)).unwrap(); // enters service
        sw.admit(cpkt(0, 2)).unwrap(); // backlog
        sw.admit(cpkt(0, 5)).unwrap(); // backlog
        let evicted = sw.push_out_and_admit(PortId::new(0), cpkt(0, 7)).unwrap();
        assert_eq!(evicted, Value::new(2));
        assert_eq!(sw.total_value(), 21);
        sw.check_invariants().unwrap();
    }

    #[test]
    fn combined_self_push_out_lands_in_the_backlog_when_it_empties() {
        // One backlog packet below the arrival: it leaves, and the arrival
        // joins the (now empty) backlog rather than taking over service.
        let mut sw = combined(1, 2);
        sw.admit(cpkt(0, 1)).unwrap(); // enters service
        sw.admit(cpkt(0, 2)).unwrap(); // backlog
        let evicted = sw.push_out_and_admit(PortId::new(0), cpkt(0, 7)).unwrap();
        assert_eq!(evicted, Value::new(2));
        let q = sw.queue(PortId::new(0));
        assert_eq!(q.in_service().map(|s| s.value), Some(Value::new(1)));
        assert_eq!(q.backlog_min_value(), Some(Value::new(7)));
        sw.check_invariants().unwrap();
    }

    #[test]
    fn combined_global_min_and_flush() {
        let mut sw = combined(3, 6);
        sw.admit(cpkt(0, 4)).unwrap();
        sw.admit(cpkt(2, 2)).unwrap();
        assert_eq!(sw.global_min_value(), Some((PortId::new(2), Value::new(2))));
        assert_eq!(sw.flush(), 2);
        assert_eq!(sw.global_min_value(), None);
        sw.check_invariants().unwrap();
    }
}
