//! A single output queue in the *combined* model (extension): per-port work
//! requirements as in Section III, per-packet values as in Section IV.
//!
//! Processing order is priority-by-value (Section IV's "most favourable
//! order") but **run-to-completion**: the packet in service is never
//! preempted, matching the paper's run-for-completion motivation. New
//! arrivals join a value-sorted backlog; when the serviced packet completes,
//! the most valuable backlog packet enters service.
//!
//! Storage is a pair of [`SlotList`] views over the switch's shared
//! [`BufferCore`] slab: the descending-value backlog, and a one-slot list
//! pinning the in-service packet's buffer slot (so the switch's occupancy is
//! exactly the slab's allocated count). The serviced packet's state is also
//! cached inline as [`InService`] for the policy-facing read API.

use crate::slab::{BufferCore, SlotList};
use crate::{
    AdmitError, CombinedPacket, PortId, QueueDiscipline, Slot, Value, Work, WorkPacket, WorkQueue,
    WorkSwitchConfig,
};

/// A packet in service: its value, remaining cycles, and arrival slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InService {
    /// Intrinsic value.
    pub value: Value,
    /// Remaining processing cycles (always >= 1).
    pub residual: u32,
    /// Arrival slot.
    pub arrived: Slot,
}

/// One output queue of a [`crate::CombinedSwitch`].
#[derive(Debug, Clone)]
pub struct CombinedQueue {
    work: Work,
    in_service: Option<InService>,
    /// The buffer slot held by the in-service packet (len <= 1).
    service_slot: SlotList,
    /// Backlog sorted by value, descending; ties keep arrival order.
    backlog: SlotList,
    /// Cached sum of all resident values (service + backlog).
    value_sum: u64,
    /// Cached smallest backlog value (the backlog tail).
    backlog_min: Option<Value>,
}

impl CombinedQueue {
    /// Creates an empty queue whose packets all require `work` cycles.
    pub fn new(work: Work) -> Self {
        CombinedQueue {
            work,
            in_service: None,
            service_slot: SlotList::new(),
            backlog: SlotList::new(),
            value_sum: 0,
            backlog_min: None,
        }
    }

    /// The fixed per-packet requirement of this queue.
    pub fn work(&self) -> Work {
        self.work
    }

    /// Number of resident packets (service + backlog).
    pub fn len(&self) -> usize {
        self.backlog.len() + usize::from(self.in_service.is_some())
    }

    /// True when no packets are resident.
    pub fn is_empty(&self) -> bool {
        self.in_service.is_none() && self.backlog.is_empty()
    }

    /// The packet currently in service, if any.
    pub fn in_service(&self) -> Option<&InService> {
        self.in_service.as_ref()
    }

    /// Smallest backlog value (the push-out victim among backlog packets).
    pub fn backlog_min_value(&self) -> Option<Value> {
        self.backlog_min
    }

    /// Total outstanding work: the serviced packet's residual plus the full
    /// requirement of every backlog packet.
    pub fn total_work(&self) -> u64 {
        self.in_service.map_or(0, |s| s.residual as u64)
            + self.backlog.len() as u64 * self.work.as_u64()
    }

    /// Sum of resident values.
    pub fn total_value(&self) -> u64 {
        self.value_sum
    }

    /// Smallest resident value (the push-out victim's value).
    pub fn min_value(&self) -> Option<Value> {
        let service = self.in_service.map(|s| s.value);
        match (self.backlog_min, service) {
            (Some(b), Some(s)) => Some(b.min(s)),
            (b, s) => b.or(s),
        }
    }

    fn refresh_backlog_min(&mut self, core: &BufferCore) {
        self.backlog_min = core.back(&self.backlog).map(|(v, _)| v);
    }

    /// Inserts a packet of value `value` arriving at `slot`. If the queue
    /// was idle the packet enters service immediately.
    pub fn insert(&mut self, core: &mut BufferCore, value: Value, slot: Slot) {
        if !self.is_empty() {
            return self.insert_backlog(core, value, slot);
        }
        self.value_sum += value.get();
        self.in_service = Some(InService {
            value,
            residual: self.work.cycles(),
            arrived: slot,
        });
        core.push_back(&mut self.service_slot, value, slot);
    }

    /// Inserts a packet into the backlog, never entering service.
    fn insert_backlog(&mut self, core: &mut BufferCore, value: Value, slot: Slot) {
        self.value_sum += value.get();
        core.insert_desc(&mut self.backlog, value, slot);
        self.refresh_backlog_min(core);
    }

    /// Evicts the lowest-value packet: the backlog minimum, or the serviced
    /// packet when the backlog is empty (its partial work is lost). Returns
    /// the evicted value.
    pub fn evict_min(&mut self, core: &mut BufferCore) -> Option<Value> {
        if let Some((v, _)) = core.pop_back(&mut self.backlog) {
            self.value_sum -= v.get();
            self.refresh_backlog_min(core);
            return Some(v);
        }
        let s = self.in_service.take()?;
        core.pop_back(&mut self.service_slot)
            .expect("in-service packet holds a slot");
        self.value_sum -= s.value.get();
        Some(s.value)
    }
}

impl QueueDiscipline for CombinedQueue {
    type Packet = CombinedPacket;
    type Config = WorkSwitchConfig;
    const PORT_DETERMINES_PACKET: bool = false;

    fn for_ports(config: &WorkSwitchConfig) -> Vec<Self> {
        config
            .works()
            .iter()
            .map(|&w| CombinedQueue::new(w))
            .collect()
    }

    fn buffer(config: &WorkSwitchConfig) -> usize {
        config.buffer()
    }

    fn ports(config: &WorkSwitchConfig) -> usize {
        config.ports()
    }

    fn packet(config: &WorkSwitchConfig, port: PortId, value: Value) -> CombinedPacket {
        CombinedPacket::new(port, config.work(port), value)
    }

    #[inline]
    fn port(pkt: CombinedPacket) -> PortId {
        pkt.port()
    }

    fn value(pkt: CombinedPacket) -> Value {
        pkt.value()
    }

    fn work(pkt: CombinedPacket) -> Work {
        pkt.work()
    }

    #[inline]
    fn check_label(config: &WorkSwitchConfig, pkt: CombinedPacket) -> Result<(), AdmitError> {
        WorkQueue::check_label(config, WorkPacket::new(pkt.port(), pkt.work()))
    }

    fn enqueue(&mut self, core: &mut BufferCore, pkt: CombinedPacket, now: Slot) {
        self.insert(core, pkt.value(), now);
    }

    /// The backlog minimum, or the serviced packet when the backlog is
    /// empty.
    fn evict(&mut self, core: &mut BufferCore) -> Option<Value> {
        self.evict_min(core)
    }

    /// Same outcome as inserting and then evicting, but with the eviction
    /// first, as for [`crate::ValueQueue`]: an arrival worth at most the
    /// backlog minimum, or finding the backlog empty, is itself the packet
    /// evicted. Otherwise the backlog minimum leaves and the arrival joins
    /// the backlog, never service, even if the eviction just emptied it
    /// (inserted first, it would have found the queue busy).
    fn push_out_own(
        &mut self,
        core: &mut BufferCore,
        pkt: CombinedPacket,
        now: Slot,
    ) -> Option<Value> {
        if self.backlog_min.is_none_or(|min| pkt.value() <= min) {
            return Some(pkt.value());
        }
        let evicted = self.evict_min(core);
        self.insert_backlog(core, pkt.value(), now);
        evicted
    }

    /// Run-to-completion: the serviced packet is never preempted, and the
    /// most valuable backlog packet is promoted when a cycle needs it.
    #[inline]
    fn serve_next(&mut self, core: &mut BufferCore, budget: &mut u32) -> Option<(Value, Slot)> {
        while *budget > 0 {
            let Some(current) = self.in_service.as_mut() else {
                // Promote the most valuable backlog packet.
                let (value, arrived) = core.pop_front(&mut self.backlog)?;
                self.refresh_backlog_min(core);
                core.push_back(&mut self.service_slot, value, arrived);
                self.in_service = Some(InService {
                    value,
                    residual: self.work.cycles(),
                    arrived,
                });
                continue;
            };
            let step = (*budget).min(current.residual);
            current.residual -= step;
            *budget -= step;
            if current.residual == 0 {
                let finished = self.in_service.take().expect("current exists");
                core.pop_back(&mut self.service_slot)
                    .expect("in-service packet holds a slot");
                self.value_sum -= finished.value.get();
                return Some((finished.value, finished.arrived));
            }
        }
        None
    }

    fn clear(&mut self, core: &mut BufferCore) -> u64 {
        let n = core.clear(&mut self.backlog) + core.clear(&mut self.service_slot);
        self.in_service = None;
        self.value_sum = 0;
        self.backlog_min = None;
        n
    }

    fn packets(&self) -> usize {
        self.len()
    }

    fn resident_value(&self) -> u64 {
        self.value_sum
    }

    /// Descending backlog, a correct sum, the service cache matching its
    /// pinned slot, and a fresh backlog-min cache.
    fn invariants_hold(&self, core: &BufferCore) -> bool {
        let sorted = core.is_sorted_desc(&self.backlog);
        let sum: u64 = core.iter(&self.backlog).map(|(v, _)| v.get()).sum::<u64>()
            + self.in_service.map_or(0, |s| s.value.get());
        let service_ok = match self.in_service {
            None => self.service_slot.is_empty(),
            Some(s) => {
                s.residual >= 1
                    && s.residual <= self.work.cycles()
                    && core.front(&self.service_slot) == Some((s.value, s.arrived))
                    && self.service_slot.len() == 1
            }
        };
        let min_ok = self.backlog_min == core.back(&self.backlog).map(|(v, _)| v);
        sorted && sum == self.value_sum && service_ok && min_ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(w: u32) -> (BufferCore, CombinedQueue) {
        (BufferCore::new(16), CombinedQueue::new(Work::new(w)))
    }

    /// Serves `cycles`, collecting the completed packets.
    fn process(
        q: &mut CombinedQueue,
        core: &mut BufferCore,
        cycles: u32,
        done: &mut Vec<(Value, Slot)>,
    ) -> u32 {
        let mut budget = cycles;
        done.extend(std::iter::from_fn(|| q.serve_next(core, &mut budget)));
        cycles - budget
    }

    #[test]
    fn first_insert_enters_service() {
        let (mut core, mut q) = q(3);
        q.insert(&mut core, Value::new(5), Slot::ZERO);
        assert_eq!(q.len(), 1);
        assert_eq!(q.in_service().unwrap().residual, 3);
        assert_eq!(q.total_work(), 3);
        assert!(q.invariants_hold(&core));
    }

    #[test]
    fn backlog_sorted_desc_and_totals_track() {
        let (mut core, mut q) = q(2);
        for v in [4, 9, 1] {
            q.insert(&mut core, Value::new(v), Slot::ZERO);
        }
        // 4 is in service; backlog = [9, 1].
        assert_eq!(q.in_service().unwrap().value, Value::new(4));
        assert_eq!(q.total_value(), 14);
        assert_eq!(q.total_work(), 2 + 2 * 2);
        assert_eq!(q.min_value(), Some(Value::new(1)));
        assert!(q.invariants_hold(&core));
    }

    #[test]
    fn service_is_not_preempted_but_promotion_is_by_value() {
        let (mut core, mut q) = q(2);
        q.insert(&mut core, Value::new(1), Slot::ZERO); // enters service
        q.insert(&mut core, Value::new(9), Slot::ZERO);
        q.insert(&mut core, Value::new(5), Slot::ZERO);
        let mut done = Vec::new();
        // Two cycles: the 1 completes (run-to-completion, no preemption).
        assert_eq!(process(&mut q, &mut core, 2, &mut done), 2);
        assert_eq!(done, vec![(Value::new(1), Slot::ZERO)]);
        // The 9 is promoted at the next processing opportunity, not the 5.
        assert_eq!(process(&mut q, &mut core, 1, &mut done), 1);
        let s = q.in_service().unwrap();
        assert_eq!(s.value, Value::new(9));
        assert_eq!(s.residual, 1);
        assert!(q.invariants_hold(&core));
    }

    #[test]
    fn process_spans_multiple_packets_with_speedup() {
        let (mut core, mut q) = q(1);
        for v in [3, 2, 1] {
            q.insert(&mut core, Value::new(v), Slot::ZERO);
        }
        let mut done = Vec::new();
        assert_eq!(process(&mut q, &mut core, 2, &mut done), 2);
        let values: Vec<u64> = done.iter().map(|&(v, _)| v.get()).collect();
        assert_eq!(values, vec![3, 2]);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn evict_prefers_backlog_minimum() {
        let (mut core, mut q) = q(4);
        q.insert(&mut core, Value::new(2), Slot::ZERO); // in service
        q.insert(&mut core, Value::new(7), Slot::ZERO);
        q.insert(&mut core, Value::new(3), Slot::ZERO);
        assert_eq!(q.evict_min(&mut core), Some(Value::new(3)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.in_service().unwrap().value, Value::new(2));
        assert!(q.invariants_hold(&core));
    }

    #[test]
    fn evict_falls_back_to_service() {
        let (mut core, mut q) = q(4);
        q.insert(&mut core, Value::new(2), Slot::ZERO);
        let mut done = Vec::new();
        process(&mut q, &mut core, 1, &mut done); // partial work
        assert_eq!(q.evict_min(&mut core), Some(Value::new(2)));
        assert!(q.is_empty());
        assert_eq!(q.total_value(), 0);
        assert!(q.invariants_hold(&core));
        core.check_accounting().unwrap();
    }

    #[test]
    fn min_value_considers_service_packet() {
        let (mut core, mut q) = q(2);
        q.insert(&mut core, Value::new(1), Slot::ZERO); // service
        q.insert(&mut core, Value::new(5), Slot::ZERO); // backlog
        assert_eq!(q.min_value(), Some(Value::new(1)));
    }

    #[test]
    fn clear_resets_everything() {
        let (mut core, mut q) = q(2);
        q.insert(&mut core, Value::new(5), Slot::ZERO);
        q.insert(&mut core, Value::new(3), Slot::ZERO);
        assert_eq!(q.clear(&mut core), 2);
        assert!(q.is_empty());
        assert_eq!(q.total_work(), 0);
        assert!(q.invariants_hold(&core));
        core.check_accounting().unwrap();
    }

    #[test]
    fn idle_queue_uses_no_cycles() {
        let (mut core, mut q) = q(2);
        let mut done = Vec::new();
        assert_eq!(process(&mut q, &mut core, 5, &mut done), 0);
        assert!(done.is_empty());
    }
}
