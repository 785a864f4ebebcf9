//! Pre-slab reference implementations of the per-port queues, kept as
//! differential-test oracles.
//!
//! These are the `VecDeque`/sorted-`Vec` queue types the switch used before
//! the [`smbm_switch::BufferCore`] slab refactor, preserved verbatim (minus the
//! switch wiring). They own their storage, so they need no `BufferCore`
//! argument; the proptests in `tests/reference.rs` drive them op-for-op
//! against the slab-backed queues and require identical observable behavior.
//!
//! They keep their whole pre-slab API; the proptests compare a subset.

#![allow(dead_code)]

use std::collections::VecDeque;

use smbm_switch::{InService, RatioKey, Slot, Value, ValueEntry, Work};

/// Pre-slab [`smbm_switch::WorkQueue`]: FIFO arrival slots in a `VecDeque` plus the
/// head packet's residual cycles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkQueue {
    work: Work,
    head_residual: u32,
    arrivals: VecDeque<Slot>,
}

impl WorkQueue {
    /// Creates an empty queue whose packets all require `work` cycles.
    pub fn new(work: Work) -> Self {
        WorkQueue {
            work,
            head_residual: 0,
            arrivals: VecDeque::new(),
        }
    }

    /// The fixed per-packet requirement `w_i` of this queue.
    pub fn work(&self) -> Work {
        self.work
    }

    /// Number of resident packets.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when no packets are resident.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Residual cycles of the head-of-line packet (zero when empty).
    pub fn head_residual(&self) -> u32 {
        self.head_residual
    }

    /// Total remaining work `W_i`.
    pub fn total_work(&self) -> u64 {
        if self.arrivals.is_empty() {
            0
        } else {
            self.head_residual as u64 + (self.arrivals.len() as u64 - 1) * self.work.as_u64()
        }
    }

    /// Appends a packet that arrived during `slot`.
    pub fn push_back(&mut self, slot: Slot) {
        if self.arrivals.is_empty() {
            self.head_residual = self.work.cycles();
        }
        self.arrivals.push_back(slot);
    }

    /// Removes the tail packet, returning its arrival slot.
    pub fn pop_back(&mut self) -> Option<Slot> {
        let popped = self.arrivals.pop_back();
        if self.arrivals.is_empty() {
            self.head_residual = 0;
        }
        popped
    }

    /// Applies up to `cycles` to the head, appending completed packets'
    /// arrival slots to `completions`; returns cycles used.
    pub fn process(&mut self, cycles: u32, completions: &mut Vec<Slot>) -> u32 {
        let mut budget = cycles;
        while budget > 0 && !self.arrivals.is_empty() {
            let step = budget.min(self.head_residual);
            self.head_residual -= step;
            budget -= step;
            if self.head_residual == 0 {
                let arrived = self
                    .arrivals
                    .pop_front()
                    .expect("non-empty queue has a head");
                completions.push(arrived);
                if !self.arrivals.is_empty() {
                    self.head_residual = self.work.cycles();
                }
            }
        }
        cycles - budget
    }

    /// Removes every resident packet, returning how many were discarded.
    pub fn clear(&mut self) -> u64 {
        let n = self.arrivals.len() as u64;
        self.arrivals.clear();
        self.head_residual = 0;
        n
    }

    /// Arrival slots of resident packets in FIFO order (head first).
    pub fn arrival_slots(&self) -> impl Iterator<Item = Slot> + '_ {
        self.arrivals.iter().copied()
    }

    /// Internal invariants: head residual in `1..=w` iff non-empty.
    pub fn invariants_hold(&self) -> bool {
        if self.arrivals.is_empty() {
            self.head_residual == 0
        } else {
            self.head_residual >= 1 && self.head_residual <= self.work.cycles()
        }
    }
}

/// Pre-slab [`smbm_switch::ValueQueue`]: entries in a `Vec`, sorted by value
/// descending, with `Vec::insert` / `remove(0)` costs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ValueQueue {
    entries: Vec<ValueEntry>,
    sum: u64,
}

impl ValueQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of resident packets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no packets are resident.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sum of resident values.
    pub fn total_value(&self) -> u64 {
        self.sum
    }

    /// MRD's selection key `|Q_i|^2 / sum`, `None` when empty.
    pub fn ratio_key(&self) -> Option<RatioKey> {
        if self.entries.is_empty() {
            None
        } else {
            Some(RatioKey::new(
                (self.entries.len() as u128) * (self.entries.len() as u128),
                self.sum as u128,
            ))
        }
    }

    /// Largest resident value.
    pub fn max_value(&self) -> Option<Value> {
        self.entries.first().map(|e| e.value)
    }

    /// Smallest resident value.
    pub fn min_value(&self) -> Option<Value> {
        self.entries.last().map(|e| e.value)
    }

    /// Inserts keeping descending order; equal values keep arrival order.
    pub fn insert(&mut self, value: Value, slot: Slot) {
        let pos = self.entries.partition_point(|e| e.value >= value);
        self.entries.insert(
            pos,
            ValueEntry {
                value,
                arrived: slot,
            },
        );
        self.sum += value.get();
    }

    /// Removes and returns the most valuable packet.
    pub fn pop_max(&mut self) -> Option<ValueEntry> {
        if self.entries.is_empty() {
            return None;
        }
        let e = self.entries.remove(0);
        self.sum -= e.value.get();
        Some(e)
    }

    /// Removes and returns the least valuable packet.
    pub fn pop_min(&mut self) -> Option<ValueEntry> {
        let e = self.entries.pop()?;
        self.sum -= e.value.get();
        Some(e)
    }

    /// Removes every resident packet, returning how many were discarded.
    pub fn clear(&mut self) -> u64 {
        let n = self.entries.len() as u64;
        self.entries.clear();
        self.sum = 0;
        n
    }

    /// Resident entries in descending-value order.
    pub fn entries(&self) -> &[ValueEntry] {
        &self.entries
    }

    /// Internal invariants: descending order and a correct cached sum.
    pub fn invariants_hold(&self) -> bool {
        let sorted = self.entries.windows(2).all(|w| w[0].value >= w[1].value);
        let sum: u64 = self.entries.iter().map(|e| e.value.get()).sum();
        sorted && sum == self.sum
    }
}

/// Pre-slab [`smbm_switch::CombinedQueue`]: run-to-completion service slot plus a
/// value-sorted `Vec` backlog.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CombinedQueue {
    work: Work,
    in_service: Option<InService>,
    backlog: Vec<(Value, Slot)>,
    value_sum: u64,
}

impl CombinedQueue {
    /// Creates an empty queue whose packets all require `work` cycles.
    pub fn new(work: Work) -> Self {
        CombinedQueue {
            work,
            in_service: None,
            backlog: Vec::new(),
            value_sum: 0,
        }
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

    /// Total outstanding work.
    pub fn total_work(&self) -> u64 {
        self.in_service.map_or(0, |s| s.residual as u64)
            + self.backlog.len() as u64 * self.work.as_u64()
    }

    /// Sum of resident values.
    pub fn total_value(&self) -> u64 {
        self.value_sum
    }

    /// Smallest resident value.
    pub fn min_value(&self) -> Option<Value> {
        let backlog_min = self.backlog.last().map(|&(v, _)| v);
        let service = self.in_service.map(|s| s.value);
        match (backlog_min, service) {
            (Some(b), Some(s)) => Some(b.min(s)),
            (b, s) => b.or(s),
        }
    }

    /// Inserts a packet; enters service immediately when the queue was idle.
    pub fn insert(&mut self, value: Value, slot: Slot) {
        self.value_sum += value.get();
        if self.in_service.is_none() && self.backlog.is_empty() {
            self.in_service = Some(InService {
                value,
                residual: self.work.cycles(),
                arrived: slot,
            });
            return;
        }
        let pos = self.backlog.partition_point(|&(v, _)| v >= value);
        self.backlog.insert(pos, (value, slot));
    }

    /// Evicts the lowest-value packet (backlog minimum, else the serviced
    /// packet), returning its value.
    pub fn evict_min(&mut self) -> Option<Value> {
        if let Some((v, _)) = self.backlog.pop() {
            self.value_sum -= v.get();
            return Some(v);
        }
        let s = self.in_service.take()?;
        self.value_sum -= s.value.get();
        Some(s.value)
    }

    /// Applies up to `cycles`, promoting from the backlog as packets
    /// complete; returns cycles used.
    pub fn process(&mut self, cycles: u32, completions: &mut Vec<(Value, Slot)>) -> u32 {
        let mut budget = cycles;
        while budget > 0 {
            let Some(current) = self.in_service.as_mut() else {
                let Some((value, arrived)) = take_first(&mut self.backlog) else {
                    break;
                };
                self.in_service = Some(InService {
                    value,
                    residual: self.work.cycles(),
                    arrived,
                });
                continue;
            };
            let step = budget.min(current.residual);
            current.residual -= step;
            budget -= step;
            if current.residual == 0 {
                let done = self.in_service.take().expect("current exists");
                self.value_sum -= done.value.get();
                completions.push((done.value, done.arrived));
            }
        }
        cycles - budget
    }

    /// Removes every resident packet, returning how many were discarded.
    pub fn clear(&mut self) -> u64 {
        let n = self.len() as u64;
        self.in_service = None;
        self.backlog.clear();
        self.value_sum = 0;
        n
    }

    /// Internal invariants: descending backlog and a correct sum.
    pub fn invariants_hold(&self) -> bool {
        let sorted = self.backlog.windows(2).all(|w| w[0].0 >= w[1].0);
        let sum: u64 = self.backlog.iter().map(|&(v, _)| v.get()).sum::<u64>()
            + self.in_service.map_or(0, |s| s.value.get());
        let service_ok = self
            .in_service
            .is_none_or(|s| s.residual >= 1 && s.residual <= self.work.cycles());
        sorted && sum == self.value_sum && service_ok
    }
}

fn take_first(backlog: &mut Vec<(Value, Slot)>) -> Option<(Value, Slot)> {
    if backlog.is_empty() {
        None
    } else {
        Some(backlog.remove(0))
    }
}
