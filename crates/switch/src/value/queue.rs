//! A single priority output queue in the heterogeneous-value model.

use crate::slab::{BufferCore, SlotList};
use crate::{PortId, QueueDiscipline, Slot, Value, ValuePacket, ValueSwitchConfig, Work};

/// One resident packet of a [`ValueQueue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ValueEntry {
    /// Intrinsic value of the packet.
    pub value: Value,
    /// Slot during which the packet arrived.
    pub arrived: Slot,
}

/// One output queue of a [`crate::ValueSwitch`].
///
/// Section IV fixes the *most favourable* processing order per queue: a
/// priority queue where the most valuable packets are transmitted first. The
/// queue is a value-descending [`SlotList`] view over the switch's shared
/// [`BufferCore`] slab: the transmission phase pops from the front in O(1)
/// (previously an O(len) `Vec::remove(0)` memmove), push-out policies evict
/// from the back (the minimal value) in O(1). The policy-facing read API
/// (`len`, `total_value`, `min_value`, `max_value`, `ratio_key`) works off
/// inline cached aggregates and needs no core access.
#[derive(Debug, Clone, Default)]
pub struct ValueQueue {
    /// Entries in non-increasing value order.
    list: SlotList,
    /// Cached sum of resident values.
    sum: u64,
    /// Cached largest resident value (front of the list).
    max: Option<Value>,
    /// Cached smallest resident value (back of the list).
    min: Option<Value>,
}

impl ValueQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident packets `|Q_i|`.
    pub fn len(&self) -> usize {
        self.list.len()
    }

    /// True when no packets are resident.
    pub fn is_empty(&self) -> bool {
        self.list.is_empty()
    }

    /// Sum of resident values.
    pub fn total_value(&self) -> u64 {
        self.sum
    }

    /// Average resident value `a_i`, the quantity in MRD's ratio
    /// `|Q_i| / a_i`. Returns `None` for an empty queue.
    pub fn average_value(&self) -> Option<f64> {
        if self.list.is_empty() {
            None
        } else {
            Some(self.sum as f64 / self.list.len() as f64)
        }
    }

    /// MRD's selection key `|Q_i| / a_i = |Q_i|^2 / sum`, computed without
    /// intermediate division so ties compare exactly. Returns `None` for an
    /// empty queue.
    pub fn ratio_key(&self) -> Option<RatioKey> {
        if self.list.is_empty() {
            None
        } else {
            Some(RatioKey {
                len_squared: (self.list.len() as u128) * (self.list.len() as u128),
                sum: self.sum as u128,
            })
        }
    }

    /// Largest resident value (head of the priority queue).
    pub fn max_value(&self) -> Option<Value> {
        self.max
    }

    /// Smallest resident value (push-out victim position).
    pub fn min_value(&self) -> Option<Value> {
        self.min
    }

    /// Inserts a packet of value `value` that arrived during `slot`,
    /// maintaining descending order. Among equal values the newcomer goes
    /// last, so the earlier arrival transmits first.
    pub fn insert(&mut self, core: &mut BufferCore, value: Value, slot: Slot) {
        core.insert_desc(&mut self.list, value, slot);
        self.sum += value.get();
        // An insert can only widen the extremes — no slab reads needed.
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
    }

    /// Removes and returns the most valuable packet (transmission).
    #[inline]
    pub fn pop_max(&mut self, core: &mut BufferCore) -> Option<ValueEntry> {
        let (value, arrived) = core.pop_front(&mut self.list)?;
        self.sum -= value.get();
        // Popping the front only invalidates the max cache.
        self.max = core.front(&self.list).map(|(v, _)| v);
        if self.list.is_empty() {
            self.min = None;
        }
        Some(ValueEntry { value, arrived })
    }

    /// Removes and returns the least valuable packet (push-out).
    pub fn pop_min(&mut self, core: &mut BufferCore) -> Option<ValueEntry> {
        let (value, arrived) = core.pop_back(&mut self.list)?;
        self.sum -= value.get();
        // Popping the back only invalidates the min cache.
        self.min = core.back(&self.list).map(|(v, _)| v);
        if self.list.is_empty() {
            self.max = None;
        }
        Some(ValueEntry { value, arrived })
    }

    /// Resident entries in transmission (descending-value) order.
    pub fn entries<'a>(&self, core: &'a BufferCore) -> impl Iterator<Item = ValueEntry> + 'a {
        core.iter(&self.list)
            .map(|(value, arrived)| ValueEntry { value, arrived })
    }
}

impl QueueDiscipline for ValueQueue {
    type Packet = ValuePacket;
    type Config = ValueSwitchConfig;
    const PORT_DETERMINES_PACKET: bool = false;

    fn for_ports(config: &ValueSwitchConfig) -> Vec<Self> {
        vec![ValueQueue::new(); config.ports()]
    }

    fn buffer(config: &ValueSwitchConfig) -> usize {
        config.buffer()
    }

    #[inline]
    fn port(pkt: ValuePacket) -> PortId {
        pkt.port()
    }

    fn value(pkt: ValuePacket) -> Value {
        pkt.value()
    }

    fn work(_: ValuePacket) -> Work {
        Work::ONE
    }

    fn enqueue(&mut self, core: &mut BufferCore, pkt: ValuePacket, now: Slot) {
        self.insert(core, pkt.value(), now);
    }

    /// The minimal-value packet (among equals, the latest arrival).
    fn evict(&mut self, core: &mut BufferCore) -> Option<Value> {
        self.pop_min(core).map(|e| e.value)
    }

    /// Same outcome as inserting and then popping the minimum, but with the
    /// eviction first, since the slab has exactly `B` slots: an arrival
    /// worth at most the resident minimum (it sorts after equal values), or
    /// arriving at an empty queue, is itself the packet evicted.
    fn push_out_own(
        &mut self,
        core: &mut BufferCore,
        pkt: ValuePacket,
        now: Slot,
    ) -> Option<Value> {
        if self.min.is_none_or(|min| pkt.value() <= min) {
            return Some(pkt.value());
        }
        let evicted = self.evict(core);
        self.enqueue(core, pkt, now);
        evicted
    }

    /// The most valuable packet, one cycle each.
    #[inline]
    fn serve_next(&mut self, core: &mut BufferCore, budget: &mut u32) -> Option<(Value, Slot)> {
        if *budget == 0 {
            return None;
        }
        let ValueEntry { value, arrived } = self.pop_max(core)?;
        *budget -= 1;
        Some((value, arrived))
    }

    fn clear(&mut self, core: &mut BufferCore) -> u64 {
        let n = core.clear(&mut self.list);
        self.sum = 0;
        self.max = None;
        self.min = None;
        n
    }

    fn packets(&self) -> usize {
        self.len()
    }

    fn resident_value(&self) -> u64 {
        self.sum
    }

    /// Descending order, a correct cached sum, and extreme caches matching
    /// the list ends.
    fn invariants_hold(&self, core: &BufferCore) -> bool {
        let sorted = core.is_sorted_desc(&self.list);
        let sum: u64 = core.iter(&self.list).map(|(v, _)| v.get()).sum();
        let extremes = self.max == core.front(&self.list).map(|(v, _)| v)
            && self.min == core.back(&self.list).map(|(v, _)| v);
        sorted && sum == self.sum && extremes
    }
}

/// Exact comparison key for MRD's ratio `|Q|^2 / sum`, avoiding floating
/// point: `a/b > c/d  <=>  a*d > c*b` for positive denominators. Equality is
/// equality *of the ratio* (`4/2 == 2/1`), consistent with the ordering.
#[derive(Debug, Clone, Copy)]
pub struct RatioKey {
    len_squared: u128,
    sum: u128,
}

impl RatioKey {
    /// Builds the key from a raw numerator (`|Q|^2`) and denominator (value
    /// sum), e.g. for the virtual-add key of a queue plus an arrival.
    pub fn new(len_squared: u128, sum: u128) -> Self {
        RatioKey { len_squared, sum }
    }

    /// The ratio as a float, for reporting.
    pub fn as_f64(&self) -> f64 {
        self.len_squared as f64 / self.sum as f64
    }
}

impl PartialEq for RatioKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for RatioKey {}

impl PartialOrd for RatioKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RatioKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.len_squared * other.sum).cmp(&(other.len_squared * self.sum))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u64) -> Value {
        Value::new(x)
    }

    fn setup() -> (BufferCore, ValueQueue) {
        (BufferCore::new(32), ValueQueue::new())
    }

    #[test]
    fn insert_keeps_descending_order() {
        let (mut core, mut q) = setup();
        for x in [3, 1, 6, 2, 6] {
            q.insert(&mut core, v(x), Slot::ZERO);
        }
        let values: Vec<u64> = q.entries(&core).map(|e| e.value.get()).collect();
        assert_eq!(values, vec![6, 6, 3, 2, 1]);
        assert!(q.invariants_hold(&core));
    }

    #[test]
    fn equal_values_preserve_arrival_order() {
        let (mut core, mut q) = setup();
        q.insert(&mut core, v(5), Slot::new(1));
        q.insert(&mut core, v(5), Slot::new(2));
        let first = q.pop_max(&mut core).unwrap();
        assert_eq!(first.arrived, Slot::new(1));
    }

    #[test]
    fn equal_values_queue_behind_their_equals_at_both_ends() {
        let (mut core, mut q) = setup();
        for (x, s) in [(9, 1), (5, 2), (1, 3), (9, 4), (1, 5), (10, 6)] {
            q.insert(&mut core, v(x), Slot::new(s));
        }
        let order: Vec<(u64, u64)> = q
            .entries(&core)
            .map(|e| (e.value.get(), e.arrived.get()))
            .collect();
        // A strict new maximum goes first; a newcomer tying the head or the
        // tail goes after its equals.
        assert_eq!(order, vec![(10, 6), (9, 1), (9, 4), (5, 2), (1, 3), (1, 5)]);
        assert!(q.invariants_hold(&core));
        assert_eq!(q.pop_max(&mut core).unwrap().arrived, Slot::new(6));
        // Among equals, transmission takes the earlier arrival and push-out
        // the later one.
        assert_eq!(q.pop_max(&mut core).unwrap().arrived, Slot::new(1));
        assert_eq!(q.pop_min(&mut core).unwrap().arrived, Slot::new(5));
        assert_eq!(q.pop_min(&mut core).unwrap().arrived, Slot::new(3));
        core.check_accounting().unwrap();
    }

    #[test]
    fn sum_and_average_track_contents() {
        let (mut core, mut q) = setup();
        assert_eq!(q.average_value(), None);
        q.insert(&mut core, v(2), Slot::ZERO);
        q.insert(&mut core, v(4), Slot::ZERO);
        assert_eq!(q.total_value(), 6);
        assert_eq!(q.average_value(), Some(3.0));
        q.pop_min(&mut core);
        assert_eq!(q.total_value(), 4);
        assert!(q.invariants_hold(&core));
    }

    #[test]
    fn pop_max_and_min_are_extremes() {
        let (mut core, mut q) = setup();
        for x in [3, 9, 1] {
            q.insert(&mut core, v(x), Slot::ZERO);
        }
        assert_eq!(q.pop_max(&mut core).unwrap().value, v(9));
        assert_eq!(q.pop_min(&mut core).unwrap().value, v(1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.max_value(), Some(v(3)));
        assert_eq!(q.min_value(), Some(v(3)));
    }

    #[test]
    fn pops_on_empty_return_none() {
        let (mut core, mut q) = setup();
        assert_eq!(q.pop_max(&mut core), None);
        assert_eq!(q.pop_min(&mut core), None);
        assert_eq!(q.max_value(), None);
        assert_eq!(q.min_value(), None);
    }

    #[test]
    fn clear_resets_sum() {
        let (mut core, mut q) = setup();
        q.insert(&mut core, v(7), Slot::ZERO);
        q.insert(&mut core, v(2), Slot::ZERO);
        assert_eq!(q.clear(&mut core), 2);
        assert_eq!(q.total_value(), 0);
        assert!(q.invariants_hold(&core));
        core.check_accounting().unwrap();
    }

    #[test]
    fn ratio_key_matches_float_ratio() {
        let (mut core, mut q) = setup();
        q.insert(&mut core, v(2), Slot::ZERO);
        q.insert(&mut core, v(4), Slot::ZERO);
        let key = q.ratio_key().unwrap();
        // |Q| / a = 2 / 3 = |Q|^2 / sum = 4 / 6.
        assert!((key.as_f64() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn ratio_key_ordering_is_exact() {
        let (mut core, mut a) = setup();
        a.insert(&mut core, v(1), Slot::ZERO);
        a.insert(&mut core, v(1), Slot::ZERO); // ratio 4/2 = 2
        let mut b = ValueQueue::new();
        b.insert(&mut core, v(3), Slot::ZERO); // ratio 1/3
        assert!(a.ratio_key().unwrap() > b.ratio_key().unwrap());

        let mut c = ValueQueue::new();
        c.insert(&mut core, v(2), Slot::ZERO);
        c.insert(&mut core, v(6), Slot::ZERO); // ratio 4/8 = 1/2
        let mut d = ValueQueue::new();
        d.insert(&mut core, v(8), Slot::ZERO); // ratio 1/8
        assert!(c.ratio_key().unwrap() > d.ratio_key().unwrap());
        assert_eq!(c.ratio_key().unwrap(), c.ratio_key().unwrap());
    }

    #[test]
    fn empty_queue_has_no_ratio_key() {
        assert_eq!(ValueQueue::new().ratio_key(), None);
    }
}
