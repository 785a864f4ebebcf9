//! The shared slab of packet slots backing every queue of a switch.
//!
//! The paper's model gives each switch one buffer of exactly `B` unit-sized
//! packet slots shared by all `n` output queues. [`BufferCore`] is that
//! buffer, literally: a preallocated arena of `B` nodes, each holding one
//! resident packet's `(value, arrival slot)` pair plus intrusive `prev`/`next`
//! links. Per-port queues ([`crate::WorkQueue`], [`crate::ValueQueue`],
//! [`crate::CombinedQueue`]) are [`SlotList`] views over this arena: they own
//! no storage, only a head/tail/len triple, so admitting a packet never
//! allocates and the buffer-full condition is exactly "the free list is
//! empty".
//!
//! Free nodes are chained through `next` with `prev` set to the [`FREE`]
//! sentinel, which lets [`BufferCore::release`] detect double-frees and
//! [`BufferCore::check_accounting`] verify `allocated + free == B` with no
//! slot leaked.

use crate::{Slot, Value};

/// Sentinel index meaning "no node".
pub(crate) const NIL: u32 = u32::MAX;

/// Sentinel stored in `prev` while a node sits on the free list.
const FREE: u32 = u32::MAX - 1;

#[derive(Debug, Clone)]
struct SlotNode {
    prev: u32,
    next: u32,
    value: Value,
    arrived: Slot,
}

/// A preallocated arena of exactly `B` packet slots with an intrusive free
/// list; the single allocation backing all queues of one switch.
#[derive(Debug, Clone)]
pub struct BufferCore {
    nodes: Vec<SlotNode>,
    free_head: u32,
    free_len: usize,
}

/// An intrusive doubly-linked list of slots inside a [`BufferCore`]; the
/// storage view a per-port queue owns. All mutation goes through
/// [`BufferCore`] methods so the pointer surgery lives in one place.
#[derive(Debug, Clone)]
pub struct SlotList {
    head: u32,
    tail: u32,
    len: u32,
}

impl Default for SlotList {
    fn default() -> Self {
        Self::new()
    }
}

impl SlotList {
    /// An empty list.
    pub const fn new() -> Self {
        SlotList {
            head: NIL,
            tail: NIL,
            len: 0,
        }
    }

    /// Number of slots on this list.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when no slots are linked.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl BufferCore {
    /// Creates an arena of `capacity` slots, all free.
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity < NIL as usize - 1,
            "buffer capacity {capacity} exceeds slab index range"
        );
        let mut nodes = Vec::with_capacity(capacity);
        for i in 0..capacity {
            let next = if i + 1 < capacity {
                (i + 1) as u32
            } else {
                NIL
            };
            nodes.push(SlotNode {
                prev: FREE,
                next,
                value: Value::ONE,
                arrived: Slot::ZERO,
            });
        }
        BufferCore {
            nodes,
            free_head: if capacity > 0 { 0 } else { NIL },
            free_len: capacity,
        }
    }

    /// Total number of slots `B`.
    pub fn capacity(&self) -> usize {
        self.nodes.len()
    }

    /// Slots currently holding a resident packet.
    pub fn allocated(&self) -> usize {
        self.nodes.len() - self.free_len
    }

    /// Slots currently free.
    pub fn free_slots(&self) -> usize {
        self.free_len
    }

    /// Pops a node off the free list and fills it.
    ///
    /// # Panics
    ///
    /// Panics when the arena is exhausted; callers gate on
    /// [`BufferCore::free_slots`] (the switch's buffer-full check).
    fn alloc(&mut self, value: Value, arrived: Slot) -> u32 {
        let idx = self.free_head;
        assert!(idx != NIL, "buffer core exhausted: all slots allocated");
        let node = &mut self.nodes[idx as usize];
        debug_assert!(node.prev == FREE, "free-list node not marked free");
        self.free_head = node.next;
        self.free_len -= 1;
        node.prev = NIL;
        node.next = NIL;
        node.value = value;
        node.arrived = arrived;
        idx
    }

    /// Returns a node to the free list.
    ///
    /// # Panics
    ///
    /// Panics on a double free (the node is already on the free list).
    #[inline]
    fn release(&mut self, idx: u32) {
        let node = &mut self.nodes[idx as usize];
        assert!(node.prev != FREE, "double free of slab slot {idx}");
        node.prev = FREE;
        node.next = self.free_head;
        self.free_head = idx;
        self.free_len += 1;
    }

    #[inline]
    fn node(&self, idx: u32) -> &SlotNode {
        &self.nodes[idx as usize]
    }

    /// Links an allocated node at the back of `list`.
    fn link_back(&mut self, list: &mut SlotList, idx: u32) {
        let old_tail = list.tail;
        {
            let node = &mut self.nodes[idx as usize];
            node.prev = old_tail;
            node.next = NIL;
        }
        if old_tail == NIL {
            list.head = idx;
        } else {
            self.nodes[old_tail as usize].next = idx;
        }
        list.tail = idx;
        list.len += 1;
    }

    /// Links an allocated node at the front of `list`.
    fn link_front(&mut self, list: &mut SlotList, idx: u32) {
        let old_head = list.head;
        {
            let node = &mut self.nodes[idx as usize];
            node.prev = NIL;
            node.next = old_head;
        }
        if old_head == NIL {
            list.tail = idx;
        } else {
            self.nodes[old_head as usize].prev = idx;
        }
        list.head = idx;
        list.len += 1;
    }

    /// Links an allocated node immediately after `after` in `list`.
    fn link_after(&mut self, list: &mut SlotList, after: u32, idx: u32) {
        let next = self.nodes[after as usize].next;
        {
            let node = &mut self.nodes[idx as usize];
            node.prev = after;
            node.next = next;
        }
        self.nodes[after as usize].next = idx;
        if next == NIL {
            list.tail = idx;
        } else {
            self.nodes[next as usize].prev = idx;
        }
        list.len += 1;
    }

    /// Unlinks `idx` from `list` without freeing it.
    #[inline]
    fn unlink(&mut self, list: &mut SlotList, idx: u32) {
        let SlotNode { prev, next, .. } = *self.node(idx);
        if prev == NIL {
            list.head = next;
        } else {
            self.nodes[prev as usize].next = next;
        }
        if next == NIL {
            list.tail = prev;
        } else {
            self.nodes[next as usize].prev = prev;
        }
        list.len -= 1;
    }

    /// Allocates a slot for `(value, arrived)` and appends it to `list`.
    pub(crate) fn push_back(&mut self, list: &mut SlotList, value: Value, arrived: Slot) {
        let idx = self.alloc(value, arrived);
        self.link_back(list, idx);
    }

    /// Allocates a slot and inserts it keeping `list` sorted by value,
    /// descending; among equal values the newcomer goes last (so the earlier
    /// arrival sits closer to the front and transmits first).
    pub(crate) fn insert_desc(&mut self, list: &mut SlotList, value: Value, arrived: Slot) {
        // Walk from the tail: the first node with `node.value >= value` is
        // the last entry the newcomer must follow. Two O(1) shortcuts cover
        // the common monotone patterns: a new minimum (or a tie with the
        // tail) stops the walk at the tail, and a new strict maximum goes
        // straight to the front without walking. A tie with the head still
        // walks, so the newcomer lands after every equal.
        let idx = self.alloc(value, arrived);
        if list.head != NIL && value > self.node(list.head).value {
            self.link_front(list, idx);
            return;
        }
        let mut cur = list.tail;
        while cur != NIL && self.node(cur).value < value {
            cur = self.node(cur).prev;
        }
        if cur == NIL {
            self.link_front(list, idx);
        } else {
            self.link_after(list, cur, idx);
        }
    }

    /// Removes and frees the front slot (largest value in a descending
    /// list, head-of-line in a FIFO).
    #[inline]
    pub(crate) fn pop_front(&mut self, list: &mut SlotList) -> Option<(Value, Slot)> {
        let idx = list.head;
        if idx == NIL {
            return None;
        }
        let SlotNode { value, arrived, .. } = *self.node(idx);
        self.unlink(list, idx);
        self.release(idx);
        Some((value, arrived))
    }

    /// Removes and frees the back slot (smallest value in a descending
    /// list, tail of a FIFO).
    pub(crate) fn pop_back(&mut self, list: &mut SlotList) -> Option<(Value, Slot)> {
        let idx = list.tail;
        if idx == NIL {
            return None;
        }
        let SlotNode { value, arrived, .. } = *self.node(idx);
        self.unlink(list, idx);
        self.release(idx);
        Some((value, arrived))
    }

    /// The front slot's `(value, arrived)` without removing it.
    #[inline]
    pub(crate) fn front(&self, list: &SlotList) -> Option<(Value, Slot)> {
        (list.head != NIL).then(|| {
            let n = self.node(list.head);
            (n.value, n.arrived)
        })
    }

    /// The back slot's `(value, arrived)` without removing it.
    pub(crate) fn back(&self, list: &SlotList) -> Option<(Value, Slot)> {
        (list.tail != NIL).then(|| {
            let n = self.node(list.tail);
            (n.value, n.arrived)
        })
    }

    /// Frees every slot on `list`, returning how many were freed.
    pub(crate) fn clear(&mut self, list: &mut SlotList) -> u64 {
        let mut n = 0;
        while self.pop_front(list).is_some() {
            n += 1;
        }
        n
    }

    /// Iterates `(value, arrived)` pairs front to back.
    pub(crate) fn iter<'a>(&'a self, list: &SlotList) -> impl Iterator<Item = (Value, Slot)> + 'a {
        let mut cur = list.head;
        std::iter::from_fn(move || {
            if cur == NIL {
                return None;
            }
            let n = self.node(cur);
            cur = n.next;
            Some((n.value, n.arrived))
        })
    }

    /// True when `list` is sorted by value, non-increasing front to back.
    pub(crate) fn is_sorted_desc(&self, list: &SlotList) -> bool {
        let mut cur = list.head;
        let mut prev_value: Option<Value> = None;
        while cur != NIL {
            let n = self.node(cur);
            if prev_value.is_some_and(|p| p < n.value) {
                return false;
            }
            prev_value = Some(n.value);
            cur = n.next;
        }
        true
    }

    /// Verifies free-list accounting: the free chain is cycle-free, every
    /// chained node is marked free, exactly `free_len` nodes carry the free
    /// mark (no leak, no double-free), and `allocated + free == B`.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated property.
    pub fn check_accounting(&self) -> Result<(), String> {
        let mut walked = 0usize;
        let mut cur = self.free_head;
        while cur != NIL {
            if walked > self.nodes.len() {
                return Err("free list contains a cycle".into());
            }
            let node = self.node(cur);
            if node.prev != FREE {
                return Err(format!(
                    "slot {cur} chained on free list but not marked free"
                ));
            }
            walked += 1;
            cur = node.next;
        }
        if walked != self.free_len {
            return Err(format!(
                "free list length {walked} != recorded free count {}",
                self.free_len
            ));
        }
        let marked = self.nodes.iter().filter(|n| n.prev == FREE).count();
        if marked != self.free_len {
            return Err(format!(
                "{marked} slots marked free but {} on the free list (leak or double free)",
                self.free_len
            ));
        }
        if self.allocated() + self.free_slots() != self.capacity() {
            return Err(format!(
                "allocated {} + free {} != capacity {}",
                self.allocated(),
                self.free_slots(),
                self.capacity()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(x: u64) -> Value {
        Value::new(x)
    }

    #[test]
    fn new_core_is_all_free() {
        let core = BufferCore::new(4);
        assert_eq!(core.capacity(), 4);
        assert_eq!(core.allocated(), 0);
        assert_eq!(core.free_slots(), 4);
        core.check_accounting().unwrap();
    }

    #[test]
    fn push_and_pop_roundtrip() {
        let mut core = BufferCore::new(3);
        let mut list = SlotList::new();
        core.push_back(&mut list, v(1), Slot::new(10));
        core.push_back(&mut list, v(2), Slot::new(11));
        assert_eq!(list.len(), 2);
        assert_eq!(core.allocated(), 2);
        assert_eq!(core.pop_front(&mut list), Some((v(1), Slot::new(10))));
        assert_eq!(core.pop_back(&mut list), Some((v(2), Slot::new(11))));
        assert!(list.is_empty());
        assert_eq!(core.allocated(), 0);
        core.check_accounting().unwrap();
    }

    #[test]
    fn insert_desc_orders_and_keeps_arrival_order_among_equals() {
        let mut core = BufferCore::new(8);
        let mut list = SlotList::new();
        for (x, s) in [(3, 0), (1, 1), (6, 2), (2, 3), (6, 4)] {
            core.insert_desc(&mut list, v(x), Slot::new(s));
        }
        let got: Vec<(u64, u64)> = core
            .iter(&list)
            .map(|(val, s)| (val.get(), s.get()))
            .collect();
        assert_eq!(got, vec![(6, 2), (6, 4), (3, 0), (2, 3), (1, 1)]);
        assert!(core.is_sorted_desc(&list));
        core.check_accounting().unwrap();
    }

    #[test]
    fn exhausting_the_arena_panics() {
        let mut core = BufferCore::new(1);
        let mut list = SlotList::new();
        core.push_back(&mut list, v(1), Slot::ZERO);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            core.push_back(&mut list, v(2), Slot::ZERO);
        }));
        assert!(result.is_err());
    }

    #[test]
    fn clear_returns_everything_to_free_list() {
        let mut core = BufferCore::new(5);
        let mut list = SlotList::new();
        for i in 0..5 {
            core.push_back(&mut list, v(i), Slot::ZERO);
        }
        assert_eq!(core.free_slots(), 0);
        assert_eq!(core.clear(&mut list), 5);
        assert_eq!(core.free_slots(), 5);
        assert!(list.is_empty());
        core.check_accounting().unwrap();
    }

    #[test]
    fn two_lists_share_one_arena() {
        let mut core = BufferCore::new(2);
        let mut a = SlotList::new();
        let mut b = SlotList::new();
        core.push_back(&mut a, v(1), Slot::ZERO);
        core.push_back(&mut b, v(2), Slot::ZERO);
        assert_eq!(core.free_slots(), 0);
        // Freeing from one list makes room for the other.
        core.pop_back(&mut a);
        core.push_back(&mut b, v(3), Slot::ZERO);
        assert_eq!(b.len(), 2);
        core.check_accounting().unwrap();
    }
}
