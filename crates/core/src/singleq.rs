//! The *single-queue* architecture of the paper's Fig. 1 (top): one shared
//! queue feeding `m` identical cores, each able to process any traffic type.
//!
//! The introduction motivates the shared-memory switch against this design:
//! with priority-queue processing (smallest work first) a greedy push-out
//! policy is throughput-optimal [Keslassy et al.], but PQ order is costly to
//! implement and starves heavy packets; with plain FIFO order the
//! competitive ratio degrades to `Ω(log k)` (and greedy non-push-out
//! admission to `k`). This module implements the FIFO variant so the
//! architectural comparison can be *run* (see the `architectures` bench
//! binary); the PQ variant is [`crate::WorkPqOpt`].

use std::collections::VecDeque;

use smbm_switch::{
    AdmitError, ArrivalOutcome, Counters, DropReason, PortId, Slot, Transmitted, Work, WorkPacket,
    WorkQueue,
};

use crate::system::meta_of;
use crate::DatapathSystem;

/// Admission behaviour of the single FIFO queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FifoAdmission {
    /// Accept while there is space, drop otherwise (the `k`-competitive
    /// greedy baseline).
    #[default]
    Greedy,
    /// When full, push out the *largest-residual* packet if the arrival is
    /// smaller (the natural push-out repair, still FIFO in service order).
    PushOutLargest,
}

/// A single shared FIFO queue with buffer `B` served by `m` run-to-completion
/// cores: each slot, the first `m` resident packets receive one processing
/// cycle each; completed packets leave and the window slides forward.
///
/// Implements [`DatapathSystem`], so it can be driven by the same engine and
/// traces as the shared-memory switches.
///
/// ```
/// use smbm_core::{DatapathSystem, FifoAdmission, SingleFifoQueue};
/// use smbm_switch::{PortId, Work, WorkPacket};
///
/// let mut q = SingleFifoQueue::new(4, 2, FifoAdmission::Greedy);
/// q.offer(WorkPacket::new(PortId::new(0), Work::new(1)))?;
/// q.offer(WorkPacket::new(PortId::new(0), Work::new(3)))?;
/// assert_eq!(q.transmission_phase_into(&mut Vec::new()), 1); // the 1-cycle packet finishes
/// # Ok::<(), smbm_switch::AdmitError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SingleFifoQueue {
    buffer: usize,
    cores: u32,
    admission: FifoAdmission,
    /// Residual cycles per resident packet with its arrival slot, in FIFO
    /// order.
    residuals: VecDeque<(u32, Slot)>,
    counters: Counters,
    now: Slot,
}

impl SingleFifoQueue {
    /// Creates an empty queue with the given capacity, core count, and
    /// admission rule.
    ///
    /// # Panics
    ///
    /// Panics if `buffer` or `cores` is zero.
    pub fn new(buffer: usize, cores: u32, admission: FifoAdmission) -> Self {
        assert!(buffer > 0, "buffer must be positive");
        assert!(cores > 0, "core count must be positive");
        SingleFifoQueue {
            buffer,
            cores,
            admission,
            residuals: VecDeque::new(),
            counters: Counters::new(),
            now: Slot::ZERO,
        }
    }

    /// Buffer capacity.
    pub fn buffer(&self) -> usize {
        self.buffer
    }

    /// Core count.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// The admission rule.
    pub fn admission(&self) -> FifoAdmission {
        self.admission
    }

    /// Lifetime accounting.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Offers one packet by its work requirement, reporting its fate. The
    /// single shared queue has no per-port structure, so push-outs name
    /// port 0.
    pub fn offer_work(&mut self, work: Work) -> ArrivalOutcome {
        self.counters.record_arrival(1);
        if self.residuals.len() < self.buffer {
            self.counters.record_admission(1);
            self.residuals.push_back((work.cycles(), self.now));
            return ArrivalOutcome::Admitted;
        }
        match self.admission {
            FifoAdmission::Greedy => {
                self.counters.record_drop(1);
                ArrivalOutcome::Dropped(DropReason::BufferFull)
            }
            FifoAdmission::PushOutLargest => {
                let (idx, &(max_res, _)) = self
                    .residuals
                    .iter()
                    .enumerate()
                    .max_by_key(|&(_, &(r, _))| r)
                    .expect("full buffer is non-empty");
                if work.cycles() < max_res {
                    self.residuals.remove(idx);
                    self.counters.record_push_out(1);
                    self.counters.record_admission(1);
                    self.residuals.push_back((work.cycles(), self.now));
                    ArrivalOutcome::PushedOut(PortId::new(0))
                } else {
                    self.counters.record_drop(1);
                    ArrivalOutcome::Dropped(DropReason::BufferFull)
                }
            }
        }
    }

    /// Verifies occupancy and conservation; test oracle.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.residuals.len() > self.buffer {
            return Err(format!(
                "occupancy {} exceeds buffer {}",
                self.residuals.len(),
                self.buffer
            ));
        }
        if self.residuals.iter().any(|&(r, _)| r == 0) {
            return Err("zero-residual packet left in buffer".into());
        }
        self.counters
            .check_conservation(self.residuals.len())
            .map_err(|e| e.to_string())
    }
}

impl DatapathSystem for SingleFifoQueue {
    type Packet = WorkPacket;

    fn label(&self) -> String {
        match self.admission {
            FifoAdmission::Greedy => format!("1Q-FIFO(greedy,{}cores)", self.cores),
            FifoAdmission::PushOutLargest => format!("1Q-FIFO(pushout,{}cores)", self.cores),
        }
    }

    fn meta(pkt: WorkPacket) -> (PortId, u32, u64) {
        meta_of::<WorkQueue>(pkt)
    }

    fn offer(&mut self, pkt: WorkPacket) -> Result<ArrivalOutcome, AdmitError> {
        Ok(self.offer_work(pkt.work()))
    }

    /// Aggregate only: `out` is left untouched.
    fn transmission_phase_into(&mut self, _: &mut Vec<Transmitted>) -> u64 {
        // The first `cores` packets each receive one cycle, run to
        // completion: no overtaking in dispatch order, but shorter packets
        // deeper in the service window may finish earlier.
        let window = (self.cores as usize).min(self.residuals.len());
        for i in 0..window {
            self.residuals[i].0 -= 1;
            self.counters.record_cycles(1);
        }
        let mut completed = 0;
        let mut i = 0;
        while i < self.residuals.len().min(window) {
            if self.residuals[i].0 == 0 {
                let (_, arrived) = self.residuals.remove(i).expect("index in range");
                self.counters
                    .record_transmission(1, self.now.since(arrived));
                completed += 1;
                // Window shrinks with the removal; do not advance i.
            } else {
                i += 1;
            }
        }
        completed
    }

    fn end_slot(&mut self) {
        self.now = self.now.next();
    }

    fn flush(&mut self) -> u64 {
        let n = self.residuals.len() as u64;
        self.residuals.clear();
        self.counters.record_flush(n, n);
        n
    }

    fn occupancy(&self) -> usize {
        self.residuals.len()
    }

    fn score(&self) -> u64 {
        self.counters.transmitted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smbm_switch::PortId;

    fn pkt(w: u32) -> WorkPacket {
        WorkPacket::new(PortId::new(0), Work::new(w))
    }

    /// One transmission phase; the queue keeps no completion records.
    fn tx(q: &mut SingleFifoQueue) -> u64 {
        q.transmission_phase_into(&mut Vec::new())
    }

    #[test]
    fn greedy_drops_when_full() {
        let mut q = SingleFifoQueue::new(2, 1, FifoAdmission::Greedy);
        q.offer(pkt(5)).unwrap();
        q.offer(pkt(5)).unwrap();
        q.offer(pkt(1)).unwrap();
        assert_eq!(q.counters().dropped(), 1);
        assert_eq!(q.occupancy(), 2);
        q.check_invariants().unwrap();
    }

    #[test]
    fn push_out_variant_replaces_largest() {
        let mut q = SingleFifoQueue::new(2, 1, FifoAdmission::PushOutLargest);
        q.offer(pkt(5)).unwrap();
        q.offer(pkt(3)).unwrap();
        q.offer(pkt(1)).unwrap(); // replaces the 5
        assert_eq!(q.counters().pushed_out(), 1);
        assert_eq!(q.occupancy(), 2);
        // Service order is still FIFO: the 3 (now first) is served first.
        assert_eq!(tx(&mut q), 0);
        q.end_slot();
        assert_eq!(tx(&mut q), 0);
        q.end_slot();
        assert_eq!(tx(&mut q), 1); // 3 done after 3 cycles
        q.check_invariants().unwrap();
    }

    #[test]
    fn fifo_window_serves_first_m_packets() {
        let mut q = SingleFifoQueue::new(8, 2, FifoAdmission::Greedy);
        q.offer(pkt(3)).unwrap();
        q.offer(pkt(1)).unwrap();
        q.offer(pkt(1)).unwrap();
        // Cores serve the 3 and the first 1; the second 1 waits.
        assert_eq!(tx(&mut q), 1);
        q.end_slot();
        // Now window = {3 (res 2), second 1}.
        assert_eq!(tx(&mut q), 1);
        q.end_slot();
        assert_eq!(tx(&mut q), 1); // the 3 finishes
        assert_eq!(q.occupancy(), 0);
        q.check_invariants().unwrap();
    }

    #[test]
    fn head_of_line_blocking_is_real() {
        // The FIFO pathology the paper cites: one heavy head packet blocks
        // cheap traffic behind it when cores are scarce.
        let mut q = SingleFifoQueue::new(8, 1, FifoAdmission::Greedy);
        q.offer(pkt(10)).unwrap();
        for _ in 0..5 {
            q.offer(pkt(1)).unwrap();
        }
        let mut slots_to_first = 0;
        while q.score() == 0 {
            tx(&mut q);
            q.end_slot();
            slots_to_first += 1;
            assert!(slots_to_first <= 10);
        }
        assert_eq!(slots_to_first, 10, "heavy head must block the line");
    }

    #[test]
    fn latency_accounting() {
        let mut q = SingleFifoQueue::new(4, 1, FifoAdmission::Greedy);
        q.offer(pkt(1)).unwrap();
        q.end_slot();
        q.end_slot();
        tx(&mut q);
        assert_eq!(q.counters().max_latency(), 2);
    }

    #[test]
    fn flush_and_conservation() {
        let mut q = SingleFifoQueue::new(4, 2, FifoAdmission::Greedy);
        for w in [1, 2, 3] {
            q.offer(pkt(w)).unwrap();
        }
        tx(&mut q);
        q.flush();
        assert_eq!(q.occupancy(), 0);
        q.check_invariants().unwrap();
    }

    #[test]
    fn labels_distinguish_variants() {
        assert_eq!(
            SingleFifoQueue::new(2, 3, FifoAdmission::Greedy).label(),
            "1Q-FIFO(greedy,3cores)"
        );
        assert_eq!(
            SingleFifoQueue::new(2, 3, FifoAdmission::PushOutLargest).label(),
            "1Q-FIFO(pushout,3cores)"
        );
    }

    #[test]
    #[should_panic(expected = "core count must be positive")]
    fn zero_cores_rejected() {
        let _ = SingleFifoQueue::new(2, 0, FifoAdmission::Greedy);
    }
}
