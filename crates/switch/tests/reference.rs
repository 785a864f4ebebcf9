//! Differential tests for the slab-backed queue structures, driven by random
//! operation sequences against two independent oracles:
//!
//! * the pre-slab queue implementations preserved verbatim in
//!   the `oracle` module (`tests/oracle/`), compared packet-for-packet;
//! * naive in-test models (plain vectors of residuals / values), compared on
//!   aggregates.
//!
//! Every single operation is followed by a [`BufferCore`] accounting check:
//! `allocated + free == B`, the free list is cycle-free and correctly marked
//! — i.e. no slot is ever leaked or double-freed.

mod oracle;

use proptest::prelude::*;

use smbm_switch::{BufferCore, QueueDiscipline, Slot, Value, ValueQueue, Work, WorkQueue};

// ---------------------------------------------------------------------
// WorkQueue vs the pre-slab queue and a vector of explicit residuals.
// ---------------------------------------------------------------------

/// Naive model: a plain vector of per-packet residual cycles.
#[derive(Debug, Default)]
struct NaiveWorkQueue {
    work: u32,
    residuals: Vec<u32>,
}

impl NaiveWorkQueue {
    fn new(work: u32) -> Self {
        NaiveWorkQueue {
            work,
            residuals: Vec::new(),
        }
    }

    fn push_back(&mut self) {
        self.residuals.push(self.work);
    }

    fn pop_back(&mut self) -> bool {
        self.residuals.pop().is_some()
    }

    fn process(&mut self, mut cycles: u32) -> u32 {
        let budget = cycles;
        while cycles > 0 && !self.residuals.is_empty() {
            let step = cycles.min(self.residuals[0]);
            self.residuals[0] -= step;
            cycles -= step;
            if self.residuals[0] == 0 {
                self.residuals.remove(0);
            }
        }
        budget - cycles
    }

    fn total_work(&self) -> u64 {
        self.residuals.iter().map(|&r| r as u64).sum()
    }
}

#[derive(Debug, Clone)]
enum WorkOp {
    Push,
    PopBack,
    Process(u32),
}

fn work_ops() -> impl Strategy<Value = Vec<WorkOp>> {
    proptest::collection::vec(
        prop_oneof![
            3 => Just(WorkOp::Push),
            1 => Just(WorkOp::PopBack),
            2 => (1u32..=5).prop_map(WorkOp::Process),
        ],
        0..60,
    )
}

proptest! {
    #[test]
    fn work_queue_matches_reference(work in 1u32..=5, ops in work_ops()) {
        let mut core = BufferCore::new(64);
        let mut q = WorkQueue::new(Work::new(work));
        let mut pre_slab = oracle::WorkQueue::new(Work::new(work));
        let mut naive = NaiveWorkQueue::new(work);
        let mut completions = Vec::new();
        let mut ref_completions = Vec::new();
        let mut seq = 0u64;
        for op in ops {
            match op {
                WorkOp::Push => {
                    let slot = Slot::new(seq);
                    seq += 1;
                    q.push_back(&mut core, slot);
                    pre_slab.push_back(slot);
                    naive.push_back();
                }
                WorkOp::PopBack => {
                    let got = q.pop_back(&mut core);
                    prop_assert_eq!(got, pre_slab.pop_back());
                    prop_assert_eq!(got.is_some(), naive.pop_back());
                }
                WorkOp::Process(c) => {
                    completions.clear();
                    ref_completions.clear();
                    let mut budget = c;
                    completions.extend(std::iter::from_fn(|| q.serve_next(&mut core, &mut budget)));
                    let used = c - budget;
                    let ref_used = pre_slab.process(c, &mut ref_completions);
                    let naive_before = naive.residuals.len();
                    let naive_used = naive.process(c);
                    let naive_done = naive_before - naive.residuals.len();
                    prop_assert_eq!(used, ref_used, "cycles diverged from pre-slab");
                    prop_assert_eq!(used, naive_used, "cycles diverged from naive");
                    let slots: Vec<Slot> = completions.iter().map(|&(_, s)| s).collect();
                    prop_assert_eq!(&slots, &ref_completions, "completions diverged");
                    prop_assert_eq!(completions.len(), naive_done);
                }
            }
            prop_assert_eq!(q.len(), pre_slab.len());
            prop_assert_eq!(q.len(), naive.residuals.len());
            prop_assert_eq!(q.total_work(), pre_slab.total_work());
            prop_assert_eq!(q.total_work(), naive.total_work());
            prop_assert_eq!(q.head_residual(), pre_slab.head_residual());
            let slots: Vec<Slot> = q.arrival_slots(&core).collect();
            let ref_slots: Vec<Slot> = pre_slab.arrival_slots().collect();
            prop_assert_eq!(slots, ref_slots, "FIFO order diverged");
            prop_assert!(q.invariants_hold(&core));
            prop_assert!(pre_slab.invariants_hold());
            prop_assert!(core.check_accounting().is_ok());
            prop_assert_eq!(core.allocated(), q.len());
        }
    }
}

// ---------------------------------------------------------------------
// ValueQueue vs the pre-slab sorted queue and an unsorted vector.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct NaiveValueQueue {
    values: Vec<u64>,
}

impl NaiveValueQueue {
    fn insert(&mut self, v: u64) {
        self.values.push(v);
    }

    fn pop_max(&mut self) -> Option<u64> {
        let (i, _) = self.values.iter().enumerate().max_by_key(|&(_, v)| *v)?;
        Some(self.values.swap_remove(i))
    }

    fn pop_min(&mut self) -> Option<u64> {
        let (i, _) = self.values.iter().enumerate().min_by_key(|&(_, v)| *v)?;
        Some(self.values.swap_remove(i))
    }

    fn sum(&self) -> u64 {
        self.values.iter().sum()
    }
}

#[derive(Debug, Clone)]
enum ValueOp {
    Insert(u64),
    PopMax,
    PopMin,
}

fn value_ops() -> impl Strategy<Value = Vec<ValueOp>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (1u64..=9).prop_map(ValueOp::Insert),
            1 => Just(ValueOp::PopMax),
            1 => Just(ValueOp::PopMin),
        ],
        0..80,
    )
}

proptest! {
    #[test]
    fn value_queue_matches_reference(ops in value_ops()) {
        let mut core = BufferCore::new(96);
        let mut q = ValueQueue::new();
        let mut pre_slab = oracle::ValueQueue::new();
        let mut naive = NaiveValueQueue::default();
        let mut seq = 0u64;
        for op in ops {
            match op {
                ValueOp::Insert(v) => {
                    let slot = Slot::new(seq);
                    seq += 1;
                    q.insert(&mut core, Value::new(v), slot);
                    pre_slab.insert(Value::new(v), slot);
                    naive.insert(v);
                }
                ValueOp::PopMax => {
                    let got = q.pop_max(&mut core);
                    prop_assert_eq!(got, pre_slab.pop_max(), "pop_max diverged");
                    prop_assert_eq!(got.map(|e| e.value.get()), naive.pop_max());
                }
                ValueOp::PopMin => {
                    let got = q.pop_min(&mut core);
                    prop_assert_eq!(got, pre_slab.pop_min(), "pop_min diverged");
                    prop_assert_eq!(got.map(|e| e.value.get()), naive.pop_min());
                }
            }
            // The slab queue and the pre-slab queue must agree on the exact
            // (value, arrival) sequence, including order among equal values.
            let entries: Vec<_> = q.entries(&core).collect();
            prop_assert_eq!(entries.as_slice(), pre_slab.entries());
            prop_assert_eq!(q.len(), naive.values.len());
            prop_assert_eq!(q.total_value(), naive.sum());
            prop_assert_eq!(
                q.min_value().map(|v| v.get()),
                naive.values.iter().min().copied()
            );
            prop_assert_eq!(
                q.max_value().map(|v| v.get()),
                naive.values.iter().max().copied()
            );
            prop_assert_eq!(q.ratio_key(), pre_slab.ratio_key());
            prop_assert!(q.invariants_hold(&core));
            prop_assert!(pre_slab.invariants_hold());
            prop_assert!(core.check_accounting().is_ok());
            prop_assert_eq!(core.allocated(), q.len());
        }
    }

    /// The cached ratio key always equals len^2 / sum computed from scratch.
    #[test]
    fn ratio_key_is_consistent(values in proptest::collection::vec(1u64..=9, 1..30)) {
        let mut core = BufferCore::new(32);
        let mut q = ValueQueue::new();
        for &v in &values {
            q.insert(&mut core, Value::new(v), Slot::ZERO);
        }
        let key = q.ratio_key().expect("non-empty");
        let expect = (values.len() as f64).powi(2) / values.iter().sum::<u64>() as f64;
        prop_assert!((key.as_f64() - expect).abs() < 1e-9);
    }
}

// ---------------------------------------------------------------------
// CombinedQueue vs the pre-slab queue and explicit (value, residual) packets.
// ---------------------------------------------------------------------

#[derive(Debug, Default)]
struct NaiveCombinedQueue {
    work: u32,
    /// In-service packet (value, residual), then backlog values (unsorted).
    service: Option<(u64, u32)>,
    backlog: Vec<u64>,
}

impl NaiveCombinedQueue {
    fn new(work: u32) -> Self {
        NaiveCombinedQueue {
            work,
            service: None,
            backlog: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.backlog.len() + usize::from(self.service.is_some())
    }

    fn insert(&mut self, v: u64) {
        if self.service.is_none() && self.backlog.is_empty() {
            self.service = Some((v, self.work));
        } else {
            self.backlog.push(v);
        }
    }

    fn evict_min(&mut self) -> Option<u64> {
        if let Some((i, _)) = self.backlog.iter().enumerate().min_by_key(|&(_, v)| *v) {
            return Some(self.backlog.swap_remove(i));
        }
        self.service.take().map(|(v, _)| v)
    }

    fn process(&mut self, mut cycles: u32, done: &mut Vec<u64>) -> u32 {
        let budget = cycles;
        while cycles > 0 {
            match self.service.as_mut() {
                None => {
                    // Promote max backlog value.
                    let Some((i, _)) = self.backlog.iter().enumerate().max_by_key(|&(_, v)| *v)
                    else {
                        break;
                    };
                    let v = self.backlog.remove(i);
                    self.service = Some((v, self.work));
                }
                Some((v, r)) => {
                    let step = cycles.min(*r);
                    *r -= step;
                    cycles -= step;
                    if *r == 0 {
                        done.push(*v);
                        self.service = None;
                    }
                }
            }
        }
        budget - cycles
    }

    fn total_value(&self) -> u64 {
        self.backlog.iter().sum::<u64>() + self.service.map_or(0, |(v, _)| v)
    }

    fn total_work(&self) -> u64 {
        self.backlog.len() as u64 * self.work as u64 + self.service.map_or(0, |(_, r)| r as u64)
    }
}

#[derive(Debug, Clone)]
enum CombinedOp {
    Insert(u64),
    EvictMin,
    Process(u32),
}

fn combined_ops() -> impl Strategy<Value = Vec<CombinedOp>> {
    proptest::collection::vec(
        prop_oneof![
            3 => (1u64..=9).prop_map(CombinedOp::Insert),
            1 => Just(CombinedOp::EvictMin),
            2 => (1u32..=5).prop_map(CombinedOp::Process),
        ],
        0..60,
    )
}

proptest! {
    #[test]
    fn combined_queue_matches_reference(work in 1u32..=4, ops in combined_ops()) {
        use smbm_switch::CombinedQueue;
        let mut core = BufferCore::new(64);
        let mut q = CombinedQueue::new(Work::new(work));
        let mut pre_slab = oracle::CombinedQueue::new(Work::new(work));
        let mut naive = NaiveCombinedQueue::new(work);
        let mut done = Vec::new();
        let mut ref_done = Vec::new();
        let mut naive_done = Vec::new();
        let mut seq = 0u64;
        for op in ops {
            match op {
                CombinedOp::Insert(v) => {
                    let slot = Slot::new(seq);
                    seq += 1;
                    q.insert(&mut core, Value::new(v), slot);
                    pre_slab.insert(Value::new(v), slot);
                    naive.insert(v);
                }
                CombinedOp::EvictMin => {
                    let got = q.evict_min(&mut core);
                    prop_assert_eq!(got, pre_slab.evict_min(), "evict_min diverged");
                    prop_assert_eq!(got.map(|v| v.get()), naive.evict_min());
                }
                CombinedOp::Process(c) => {
                    done.clear();
                    ref_done.clear();
                    naive_done.clear();
                    let mut budget = c;
                    done.extend(std::iter::from_fn(|| q.serve_next(&mut core, &mut budget)));
                    let used = c - budget;
                    let ref_used = pre_slab.process(c, &mut ref_done);
                    let naive_used = naive.process(c, &mut naive_done);
                    prop_assert_eq!(used, ref_used, "cycles diverged from pre-slab");
                    prop_assert_eq!(used, naive_used, "cycles diverged from naive");
                    prop_assert_eq!(&done, &ref_done, "completions diverged");
                    let got: Vec<u64> = done.iter().map(|&(v, _)| v.get()).collect();
                    prop_assert_eq!(&got, &naive_done);
                }
            }
            prop_assert_eq!(q.len(), pre_slab.len());
            prop_assert_eq!(q.len(), naive.len());
            prop_assert_eq!(q.in_service(), pre_slab.in_service());
            prop_assert_eq!(q.total_value(), pre_slab.total_value());
            prop_assert_eq!(q.total_value(), naive.total_value());
            prop_assert_eq!(q.total_work(), pre_slab.total_work());
            prop_assert_eq!(q.total_work(), naive.total_work());
            prop_assert_eq!(q.min_value(), pre_slab.min_value());
            prop_assert!(q.invariants_hold(&core));
            prop_assert!(pre_slab.invariants_hold());
            prop_assert!(core.check_accounting().is_ok());
            prop_assert_eq!(core.allocated(), q.len());
        }
    }
}

// ---------------------------------------------------------------------
// Slab free-list accounting with many queues sharing one arena.
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum SlabOp {
    Insert { queue: usize, value: u64 },
    PopMax { queue: usize },
    PopMin { queue: usize },
    Clear { queue: usize },
}

fn slab_ops() -> impl Strategy<Value = Vec<SlabOp>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (0usize..4, 1u64..=9).prop_map(|(queue, value)| SlabOp::Insert { queue, value }),
            2 => (0usize..4).prop_map(|queue| SlabOp::PopMax { queue }),
            2 => (0usize..4).prop_map(|queue| SlabOp::PopMin { queue }),
            1 => (0usize..4).prop_map(|queue| SlabOp::Clear { queue }),
        ],
        0..120,
    )
}

proptest! {
    /// Interleaved operations on four queues sharing one slab never leak or
    /// double-free a slot: after every operation `allocated + free == B`,
    /// the free chain is intact, and allocation equals the sum of lengths.
    #[test]
    fn slab_accounting_never_leaks(ops in slab_ops()) {
        const B: usize = 48;
        let mut core = BufferCore::new(B);
        let mut queues = [
            ValueQueue::new(),
            ValueQueue::new(),
            ValueQueue::new(),
            ValueQueue::new(),
        ];
        for op in ops {
            match op {
                SlabOp::Insert { queue, value } => {
                    if core.free_slots() > 0 {
                        queues[queue].insert(&mut core, Value::new(value), Slot::ZERO);
                    }
                }
                SlabOp::PopMax { queue } => {
                    queues[queue].pop_max(&mut core);
                }
                SlabOp::PopMin { queue } => {
                    queues[queue].pop_min(&mut core);
                }
                SlabOp::Clear { queue } => {
                    queues[queue].clear(&mut core);
                }
            }
            prop_assert!(core.check_accounting().is_ok(), "{:?}", core.check_accounting());
            prop_assert_eq!(core.capacity(), B);
            let total: usize = queues.iter().map(ValueQueue::len).sum();
            prop_assert_eq!(core.allocated(), total);
            prop_assert_eq!(core.free_slots(), B - total);
            for q in &queues {
                prop_assert!(q.invariants_hold(&core));
            }
        }
    }
}
