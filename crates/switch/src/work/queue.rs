//! A single FIFO output queue in the heterogeneous-processing model.

use crate::slab::{BufferCore, SlotList};
use crate::{AdmitError, PortId, QueueDiscipline, Slot, Value, Work, WorkPacket, WorkSwitchConfig};

/// One output queue of a [`crate::WorkSwitch`].
///
/// Every packet in the queue requires the same processing `w` (the model
/// constraint of Section III-A); only the head-of-line packet may be
/// partially processed, tracked by `head_residual`. The queue is a
/// [`SlotList`] view over the switch's shared [`BufferCore`] slab: packet
/// storage (each resident packet's arrival slot) lives in the slab, so
/// mutations take the core as an argument while the policy-facing read API
/// (`len`, `total_work`, ...) works off inline cached aggregates.
#[derive(Debug, Clone)]
pub struct WorkQueue {
    work: Work,
    /// Residual cycles of the head packet; zero iff the queue is empty.
    head_residual: u32,
    /// Resident packets, front = head-of-line.
    list: SlotList,
}

impl WorkQueue {
    /// Creates an empty queue whose packets all require `work` cycles.
    pub fn new(work: Work) -> Self {
        WorkQueue {
            work,
            head_residual: 0,
            list: SlotList::new(),
        }
    }

    /// The fixed per-packet requirement `w_i` of this queue.
    pub fn work(&self) -> Work {
        self.work
    }

    /// Number of resident packets `|Q_i|`.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True when no packets are resident.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Residual cycles of the head-of-line packet (zero when empty).
    pub fn head_residual(&self) -> u32 {
        self.head_residual
    }

    /// Total remaining work `W_i`: the head's residual plus the full
    /// requirement of every packet behind it. This is the quantity the LWD
    /// policy maximizes over when choosing a push-out victim.
    ///
    /// ```
    /// use smbm_switch::{BufferCore, Slot, Work, WorkQueue};
    /// let mut core = BufferCore::new(4);
    /// let mut q = WorkQueue::new(Work::new(3));
    /// q.push_back(&mut core, Slot::ZERO);
    /// q.push_back(&mut core, Slot::ZERO);
    /// assert_eq!(q.total_work(), 6);
    /// ```
    pub fn total_work(&self) -> u64 {
        if self.list.is_empty() {
            0
        } else {
            self.head_residual as u64 + (self.list.len() as u64 - 1) * self.work.as_u64()
        }
    }

    /// Appends a packet that arrived during `slot`.
    pub fn push_back(&mut self, core: &mut BufferCore, slot: Slot) {
        if self.list.is_empty() {
            self.head_residual = self.work.cycles();
        }
        core.push_back(&mut self.list, Value::ONE, slot);
    }

    /// Removes the tail packet (the push-out victim position used by every
    /// push-out policy in the paper), returning its arrival slot.
    ///
    /// When the queue holds a single packet the tail *is* the partially
    /// processed head; its residual work is discarded with it.
    pub fn pop_back(&mut self, core: &mut BufferCore) -> Option<Slot> {
        let popped = core.pop_back(&mut self.list).map(|(_, arrived)| arrived);
        if self.list.is_empty() {
            self.head_residual = 0;
        }
        popped
    }

    /// Arrival slots of resident packets in FIFO order (head first).
    pub fn arrival_slots<'a>(&self, core: &'a BufferCore) -> impl Iterator<Item = Slot> + 'a {
        core.iter(&self.list).map(|(_, arrived)| arrived)
    }
}

impl QueueDiscipline for WorkQueue {
    type Packet = WorkPacket;
    type Config = WorkSwitchConfig;
    const PORT_DETERMINES_PACKET: bool = true;

    fn for_ports(config: &WorkSwitchConfig) -> Vec<Self> {
        config.works().iter().map(|&w| WorkQueue::new(w)).collect()
    }

    fn buffer(config: &WorkSwitchConfig) -> usize {
        config.buffer()
    }

    fn ports(config: &WorkSwitchConfig) -> usize {
        config.ports()
    }

    fn packet(config: &WorkSwitchConfig, port: PortId, _: Value) -> WorkPacket {
        WorkPacket::new(port, config.work(port))
    }

    #[inline]
    fn port(pkt: WorkPacket) -> PortId {
        pkt.port()
    }

    fn value(_: WorkPacket) -> Value {
        Value::ONE
    }

    fn work(pkt: WorkPacket) -> Work {
        pkt.work()
    }

    #[inline]
    fn check_label(config: &WorkSwitchConfig, pkt: WorkPacket) -> Result<(), AdmitError> {
        let required = config.work(pkt.port());
        if pkt.work() == required {
            return Ok(());
        }
        Err(AdmitError::WorkMismatch {
            port: pkt.port(),
            packet_work: pkt.work().cycles(),
            port_work: required.cycles(),
        })
    }

    fn enqueue(&mut self, core: &mut BufferCore, _: WorkPacket, now: Slot) {
        self.push_back(core, now);
    }

    /// The tail packet: the push-out victim position of every push-out
    /// policy in the paper.
    fn evict(&mut self, core: &mut BufferCore) -> Option<Value> {
        self.pop_back(core).map(|_| Value::ONE)
    }

    /// Head-of-line first; the budget is left unspent only if the queue
    /// empties (the port is work-conserving).
    #[inline]
    fn serve_next(&mut self, core: &mut BufferCore, budget: &mut u32) -> Option<(Value, Slot)> {
        while *budget > 0 && !self.list.is_empty() {
            let step = (*budget).min(self.head_residual);
            self.head_residual -= step;
            *budget -= step;
            if self.head_residual == 0 {
                let (_, arrived) = core
                    .pop_front(&mut self.list)
                    .expect("non-empty queue has a head");
                if !self.list.is_empty() {
                    self.head_residual = self.work.cycles();
                }
                return Some((Value::ONE, arrived));
            }
        }
        None
    }

    fn clear(&mut self, core: &mut BufferCore) -> u64 {
        let n = core.clear(&mut self.list);
        self.head_residual = 0;
        n
    }

    fn packets(&self) -> usize {
        self.len()
    }

    fn resident_value(&self) -> u64 {
        self.len() as u64
    }

    /// The head residual is in `1..=w` iff the queue is non-empty.
    fn invariants_hold(&self, _: &BufferCore) -> bool {
        if self.list.is_empty() {
            self.head_residual == 0
        } else {
            self.head_residual >= 1 && self.head_residual <= self.work.cycles()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(w: u32) -> (BufferCore, WorkQueue) {
        (BufferCore::new(16), WorkQueue::new(Work::new(w)))
    }

    /// Serves `cycles`, collecting the completed packets' arrival slots.
    fn process(q: &mut WorkQueue, core: &mut BufferCore, cycles: u32, done: &mut Vec<Slot>) -> u32 {
        let mut budget = cycles;
        done.extend(std::iter::from_fn(|| q.serve_next(core, &mut budget)).map(|(_, a)| a));
        cycles - budget
    }

    #[test]
    fn new_queue_is_empty() {
        let (core, q) = q(3);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
        assert_eq!(q.total_work(), 0);
        assert_eq!(q.head_residual(), 0);
        assert!(q.invariants_hold(&core));
    }

    #[test]
    fn push_sets_head_residual() {
        let (mut core, mut q) = q(3);
        q.push_back(&mut core, Slot::ZERO);
        assert_eq!(q.head_residual(), 3);
        assert_eq!(q.total_work(), 3);
        q.push_back(&mut core, Slot::ZERO);
        assert_eq!(q.total_work(), 6);
        assert!(q.invariants_hold(&core));
    }

    #[test]
    fn total_work_accounts_for_partial_head() {
        let (mut core, mut q) = q(4);
        q.push_back(&mut core, Slot::ZERO);
        q.push_back(&mut core, Slot::ZERO);
        let mut done = Vec::new();
        let used = process(&mut q, &mut core, 1, &mut done);
        assert_eq!(used, 1);
        assert!(done.is_empty());
        assert_eq!(q.head_residual(), 3);
        assert_eq!(q.total_work(), 3 + 4);
    }

    #[test]
    fn process_transmits_in_fifo_order() {
        let (mut core, mut q) = q(2);
        q.push_back(&mut core, Slot::new(1));
        q.push_back(&mut core, Slot::new(2));
        let mut done = Vec::new();
        // 4 cycles complete both packets.
        let used = process(&mut q, &mut core, 4, &mut done);
        assert_eq!(used, 4);
        assert_eq!(done, vec![Slot::new(1), Slot::new(2)]);
        assert!(q.is_empty());
        assert!(q.invariants_hold(&core));
        core.check_accounting().unwrap();
    }

    #[test]
    fn process_stops_when_queue_empties() {
        let (mut core, mut q) = q(2);
        q.push_back(&mut core, Slot::ZERO);
        let mut done = Vec::new();
        let used = process(&mut q, &mut core, 10, &mut done);
        assert_eq!(used, 2);
        assert_eq!(done.len(), 1);
    }

    #[test]
    fn process_partial_packet_spans_slots() {
        let (mut core, mut q) = q(3);
        q.push_back(&mut core, Slot::ZERO);
        let mut done = Vec::new();
        assert_eq!(process(&mut q, &mut core, 1, &mut done), 1);
        assert_eq!(process(&mut q, &mut core, 1, &mut done), 1);
        assert!(done.is_empty());
        assert_eq!(process(&mut q, &mut core, 1, &mut done), 1);
        assert_eq!(done.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn pop_back_removes_tail_not_head() {
        let (mut core, mut q) = q(3);
        q.push_back(&mut core, Slot::new(1));
        q.push_back(&mut core, Slot::new(2));
        let mut done = Vec::new();
        process(&mut q, &mut core, 1, &mut done); // head now has residual 2
        assert_eq!(q.pop_back(&mut core), Some(Slot::new(2)));
        assert_eq!(q.len(), 1);
        assert_eq!(q.head_residual(), 2); // head untouched
        assert!(q.invariants_hold(&core));
    }

    #[test]
    fn pop_back_on_singleton_discards_partial_head() {
        let (mut core, mut q) = q(3);
        q.push_back(&mut core, Slot::new(1));
        let mut done = Vec::new();
        process(&mut q, &mut core, 2, &mut done);
        assert_eq!(q.head_residual(), 1);
        assert_eq!(q.pop_back(&mut core), Some(Slot::new(1)));
        assert!(q.is_empty());
        assert_eq!(q.head_residual(), 0);
        assert!(q.invariants_hold(&core));
    }

    #[test]
    fn pop_back_on_empty_returns_none() {
        let (mut core, mut q) = q(1);
        assert_eq!(q.pop_back(&mut core), None);
    }

    #[test]
    fn clear_reports_count() {
        let (mut core, mut q) = q(2);
        q.push_back(&mut core, Slot::ZERO);
        q.push_back(&mut core, Slot::ZERO);
        assert_eq!(q.clear(&mut core), 2);
        assert!(q.is_empty());
        assert!(q.invariants_hold(&core));
        core.check_accounting().unwrap();
    }

    #[test]
    fn speedup_processes_multiple_packets_per_slot() {
        let (mut core, mut q) = q(1);
        for i in 0..5 {
            q.push_back(&mut core, Slot::new(i));
        }
        let mut done = Vec::new();
        let used = process(&mut q, &mut core, 3, &mut done);
        assert_eq!(used, 3);
        assert_eq!(done.len(), 3);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn arrival_slots_iterates_fifo() {
        let (mut core, mut q) = q(2);
        q.push_back(&mut core, Slot::new(4));
        q.push_back(&mut core, Slot::new(7));
        let slots: Vec<_> = q.arrival_slots(&core).collect();
        assert_eq!(slots, vec![Slot::new(4), Slot::new(7)]);
    }
}
