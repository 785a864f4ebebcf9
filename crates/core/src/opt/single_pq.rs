//! The paper's OPT surrogate: a single shared priority queue with `n * C`
//! cores (Section V-A).
//!
//! Computing the true clairvoyant optimum is intractable at simulation scale,
//! so the paper compares against a single priority queue that (a) shares the
//! whole buffer with no per-port structure, (b) processes smallest-work-first
//! (resp. largest-value-first), and (c) has as many cores as the whole
//! switch. The paper uses it as an upper-bound proxy for OPT. Against the
//! exact optimum on tiny instances that holds for the value surrogate only:
//! the work surrogate's cores each advance a different packet, so it can
//! finish fewer packets than a switch whose ports serve their heads in
//! turn (`tests/opt_reference.rs` pins an instance where it sends 8 to
//! OPT's 9).
//!
//! Both surrogates keep the buffer as a short list of `(key, count)`
//! classes sorted by key (residual cycles or value). The key range is small
//! (the port works or the value range), so a sorted `Vec` beats a tree map
//! and the hot path allocates nothing once the classes are warm.

use smbm_switch::{ArrivalOutcome, Counters, DropReason, PortId, ValuePacket, Work, WorkPacket};

/// Adds `n` packets to class `key` of a sorted class list.
fn add<K: Ord + Copy>(classes: &mut Vec<(K, u64)>, key: K, n: u64) {
    match classes.binary_search_by_key(&key, |&(k, _)| k) {
        Ok(i) => classes[i].1 += n,
        Err(i) => classes.insert(i, (key, n)),
    }
}

/// Removes `n` packets from the class at index `i`, dropping the class
/// when it empties.
fn take_at<K>(classes: &mut Vec<(K, u64)>, i: usize, n: u64) {
    classes[i].1 -= n;
    if classes[i].1 == 0 {
        classes.remove(i);
    }
}

/// Checks that a class list is strictly ascending with no empty class and
/// returns its packet count.
fn class_sum<K: Ord + Copy>(classes: &[(K, u64)]) -> Result<u64, String> {
    if classes.windows(2).any(|w| w[0].0 >= w[1].0) {
        return Err("classes not strictly ascending".into());
    }
    if classes.iter().any(|&(_, count)| count == 0) {
        return Err("empty class kept".into());
    }
    Ok(classes.iter().map(|&(_, count)| count).sum())
}

/// OPT surrogate for the heterogeneous-processing model: one priority queue
/// over the whole buffer, smallest-residual-first, with a configurable core
/// count, and push-out admission (evict the largest residual when a smaller
/// packet arrives into a full buffer).
///
/// ```
/// use smbm_core::WorkPqOpt;
/// use smbm_switch::{PortId, Work, WorkPacket};
///
/// let mut opt = WorkPqOpt::new(4, 2); // B = 4, 2 cores
/// opt.offer(WorkPacket::new(PortId::new(0), Work::new(1)));
/// opt.offer(WorkPacket::new(PortId::new(0), Work::new(3)));
/// opt.transmission();
/// assert_eq!(opt.transmitted(), 1); // the 1-cycle packet finished
/// ```
#[derive(Debug, Clone)]
pub struct WorkPqOpt {
    buffer: usize,
    cores: u32,
    /// `(residual cycles, packet count)` classes, ascending by residual.
    residuals: Vec<(u32, u64)>,
    /// The transmission phase's plan, kept to reuse its allocation.
    plan: Vec<(u32, u64)>,
    occupancy: usize,
    counters: Counters,
}

impl WorkPqOpt {
    /// Creates a surrogate with buffer capacity `buffer` and `cores` cores
    /// (the paper uses `n * C`).
    ///
    /// # Panics
    ///
    /// Panics if `buffer` or `cores` is zero.
    pub fn new(buffer: usize, cores: u32) -> Self {
        assert!(buffer > 0, "buffer must be positive");
        assert!(cores > 0, "core count must be positive");
        WorkPqOpt {
            buffer,
            cores,
            residuals: Vec::new(),
            plan: Vec::new(),
            occupancy: 0,
            counters: Counters::new(),
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

    /// Packets currently resident.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Lifetime accounting.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Packets transmitted so far.
    pub fn transmitted(&self) -> u64 {
        self.counters.transmitted()
    }

    /// The resident packets as `(residual cycles, count)` classes,
    /// ascending by residual.
    pub fn residents(&self) -> &[(u32, u64)] {
        &self.residuals
    }

    /// Offers one packet; the port label is irrelevant to the single queue,
    /// only the work matters.
    pub fn offer(&mut self, pkt: WorkPacket) -> ArrivalOutcome {
        self.offer_work(pkt.work())
    }

    /// Offers one packet by its work requirement, reporting its fate. The
    /// single shared queue has no per-port structure, so push-outs name
    /// port 0.
    pub fn offer_work(&mut self, work: Work) -> ArrivalOutcome {
        self.counters.record_arrival(1);
        let w = work.cycles();
        if self.occupancy < self.buffer {
            self.counters.record_admission(1);
            add(&mut self.residuals, w, 1);
            self.occupancy += 1;
            return ArrivalOutcome::Admitted;
        }
        // Full: keep the packet set with the smallest residuals.
        let last = self.residuals.len() - 1;
        if w < self.residuals[last].0 {
            take_at(&mut self.residuals, last, 1);
            self.counters.record_push_out(1);
            self.counters.record_admission(1);
            add(&mut self.residuals, w, 1);
            ArrivalOutcome::PushedOut(PortId::new(0))
        } else {
            self.counters.record_drop(DropReason::BufferFull, 1);
            ArrivalOutcome::Dropped(DropReason::BufferFull)
        }
    }

    /// Runs one transmission phase: each of the `cores` cores gives one
    /// cycle to a distinct packet, smallest residual first. Returns packets
    /// completed this phase.
    pub fn transmission(&mut self) -> u64 {
        // Plan which residual classes receive cycles before mutating, so a
        // decremented packet is not processed twice in the same phase.
        let mut budget = self.cores as u64;
        self.plan.clear();
        for &(r, count) in &self.residuals {
            if budget == 0 {
                break;
            }
            let take = count.min(budget);
            self.plan.push((r, take));
            budget -= take;
        }
        let mut completed = 0;
        for &(r, take) in &self.plan {
            let i = self
                .residuals
                .binary_search_by_key(&r, |&(k, _)| k)
                .expect("planned class exists");
            take_at(&mut self.residuals, i, take);
            self.counters.record_cycles(take);
            if r == 1 {
                completed += take;
                self.occupancy -= take as usize;
                for _ in 0..take {
                    self.counters.record_transmission(1, 0);
                }
            } else {
                add(&mut self.residuals, r - 1, take);
            }
        }
        completed
    }

    /// Discards every resident packet (flushout).
    pub fn flush(&mut self) -> u64 {
        let n = self.occupancy as u64;
        self.residuals.clear();
        self.occupancy = 0;
        self.counters.record_flush(n, n);
        n
    }

    /// Verifies occupancy bookkeeping and conservation; test oracle.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let sum = class_sum(&self.residuals)?;
        if sum != self.occupancy as u64 {
            return Err(format!("occupancy {} != class sum {}", self.occupancy, sum));
        }
        if self.occupancy > self.buffer {
            return Err(format!(
                "occupancy {} exceeds buffer {}",
                self.occupancy, self.buffer
            ));
        }
        if self.residuals.first().is_some_and(|&(r, _)| r == 0) {
            return Err("zero-residual packet left in buffer".into());
        }
        self.counters
            .check_conservation(self.occupancy)
            .map_err(|e| e.to_string())
    }
}

/// OPT surrogate for the heterogeneous-value model: one priority queue over
/// the whole buffer, largest-value-first, with a configurable core count and
/// push-out admission (evict the minimum value for a larger arrival).
///
/// ```
/// use smbm_core::ValuePqOpt;
/// use smbm_switch::{PortId, Value, ValuePacket};
///
/// let mut opt = ValuePqOpt::new(2, 1);
/// opt.offer(ValuePacket::new(PortId::new(0), Value::new(2)));
/// opt.offer(ValuePacket::new(PortId::new(0), Value::new(5)));
/// opt.offer(ValuePacket::new(PortId::new(1), Value::new(9))); // evicts the 2
/// assert_eq!(opt.transmission(), 9);
/// ```
#[derive(Debug, Clone)]
pub struct ValuePqOpt {
    buffer: usize,
    cores: u32,
    /// `(value, packet count)` classes, ascending by value.
    values: Vec<(u64, u64)>,
    occupancy: usize,
    counters: Counters,
}

impl ValuePqOpt {
    /// Creates a surrogate with buffer capacity `buffer` and `cores` cores.
    ///
    /// # Panics
    ///
    /// Panics if `buffer` or `cores` is zero.
    pub fn new(buffer: usize, cores: u32) -> Self {
        assert!(buffer > 0, "buffer must be positive");
        assert!(cores > 0, "core count must be positive");
        ValuePqOpt {
            buffer,
            cores,
            values: Vec::new(),
            occupancy: 0,
            counters: Counters::new(),
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

    /// Packets currently resident.
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Lifetime accounting.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Total value transmitted so far.
    pub fn transmitted_value(&self) -> u64 {
        self.counters.transmitted_value()
    }

    /// The resident packets as `(value, count)` classes, ascending by
    /// value.
    pub fn residents(&self) -> &[(u64, u64)] {
        &self.values
    }

    /// Offers one packet, reporting its fate; only its value matters to the
    /// single queue, and push-outs name port 0.
    pub fn offer(&mut self, pkt: ValuePacket) -> ArrivalOutcome {
        let v = pkt.value().get();
        self.counters.record_arrival(v);
        if self.occupancy < self.buffer {
            self.counters.record_admission(v);
            add(&mut self.values, v, 1);
            self.occupancy += 1;
            return ArrivalOutcome::Admitted;
        }
        let min_value = self.values[0].0;
        if v > min_value {
            take_at(&mut self.values, 0, 1);
            self.counters.record_push_out(min_value);
            self.counters.record_admission(v);
            add(&mut self.values, v, 1);
            ArrivalOutcome::PushedOut(PortId::new(0))
        } else {
            self.counters.record_drop(DropReason::BufferFull, v);
            ArrivalOutcome::Dropped(DropReason::BufferFull)
        }
    }

    /// Runs one transmission phase: the `cores` most valuable packets leave.
    /// Returns the value transmitted this phase.
    pub fn transmission(&mut self) -> u64 {
        let mut budget = self.cores as u64;
        let mut sent_value = 0;
        while budget > 0 {
            let Some(&(v, count)) = self.values.last() else {
                break;
            };
            let take = count.min(budget);
            budget -= take;
            sent_value += v * take;
            let last = self.values.len() - 1;
            take_at(&mut self.values, last, take);
            self.occupancy -= take as usize;
            for _ in 0..take {
                self.counters.record_transmission(v, 0);
                self.counters.record_cycles(1);
            }
        }
        sent_value
    }

    /// Discards every resident packet (flushout).
    pub fn flush(&mut self) -> u64 {
        let n = self.occupancy as u64;
        let value: u64 = self.values.iter().map(|&(v, count)| v * count).sum();
        self.values.clear();
        self.occupancy = 0;
        self.counters.record_flush(n, value);
        n
    }

    /// Verifies occupancy bookkeeping and conservation; test oracle.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        let sum = class_sum(&self.values)?;
        if sum != self.occupancy as u64 {
            return Err(format!("occupancy {} != class sum {}", self.occupancy, sum));
        }
        if self.occupancy > self.buffer {
            return Err(format!(
                "occupancy {} exceeds buffer {}",
                self.occupancy, self.buffer
            ));
        }
        self.counters
            .check_conservation(self.occupancy)
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smbm_switch::{PortId, Value};

    fn wp(w: u32) -> WorkPacket {
        WorkPacket::new(PortId::new(0), Work::new(w))
    }

    fn vp(v: u64) -> ValuePacket {
        ValuePacket::new(PortId::new(0), Value::new(v))
    }

    #[test]
    fn work_opt_prefers_small_packets() {
        let mut opt = WorkPqOpt::new(2, 1);
        opt.offer(wp(5));
        opt.offer(wp(5));
        opt.offer(wp(1)); // evicts one 5
        assert_eq!(opt.occupancy(), 2);
        assert_eq!(opt.transmission(), 1);
        opt.check_invariants().unwrap();
    }

    #[test]
    fn work_opt_drops_when_not_smaller() {
        let mut opt = WorkPqOpt::new(1, 1);
        opt.offer(wp(2));
        opt.offer(wp(2)); // equal: dropped
        opt.offer(wp(3)); // larger: dropped
        assert_eq!(opt.counters().dropped(), 2);
        assert_eq!(opt.occupancy(), 1);
    }

    #[test]
    fn work_opt_processes_smallest_first_with_cores() {
        let mut opt = WorkPqOpt::new(8, 2);
        opt.offer(wp(1));
        opt.offer(wp(1));
        opt.offer(wp(3));
        // Two cores: both unit packets complete, the 3 waits.
        assert_eq!(opt.transmission(), 2);
        assert_eq!(opt.occupancy(), 1);
        // Next phases: 3 -> 2 -> 1 -> done; only one core finds work.
        assert_eq!(opt.transmission(), 0);
        assert_eq!(opt.transmission(), 0);
        assert_eq!(opt.transmission(), 1);
        opt.check_invariants().unwrap();
    }

    #[test]
    fn work_opt_no_double_processing_in_one_phase() {
        // A 2-cycle packet must take two phases even with many cores.
        let mut opt = WorkPqOpt::new(4, 8);
        opt.offer(wp(2));
        assert_eq!(opt.transmission(), 0);
        assert_eq!(opt.transmission(), 1);
    }

    #[test]
    fn work_opt_flush() {
        let mut opt = WorkPqOpt::new(4, 1);
        opt.offer(wp(2));
        opt.offer(wp(4));
        assert_eq!(opt.flush(), 2);
        assert_eq!(opt.occupancy(), 0);
        opt.check_invariants().unwrap();
    }

    #[test]
    fn value_opt_prefers_large_values() {
        let mut opt = ValuePqOpt::new(2, 1);
        opt.offer(vp(2));
        opt.offer(vp(5));
        opt.offer(vp(9)); // evicts the 2
        assert_eq!(opt.transmission(), 9);
        assert_eq!(opt.transmission(), 5);
        assert_eq!(opt.transmission(), 0);
        opt.check_invariants().unwrap();
    }

    #[test]
    fn value_opt_drops_minimum_or_equal() {
        let mut opt = ValuePqOpt::new(1, 1);
        opt.offer(vp(4));
        opt.offer(vp(4));
        opt.offer(vp(1));
        assert_eq!(opt.counters().dropped(), 2);
    }

    #[test]
    fn value_opt_cores_take_top_values() {
        let mut opt = ValuePqOpt::new(8, 3);
        for v in [1, 2, 3, 4, 5] {
            opt.offer(vp(v));
        }
        assert_eq!(opt.transmission(), 5 + 4 + 3);
        assert_eq!(opt.occupancy(), 2);
        opt.check_invariants().unwrap();
    }

    #[test]
    fn value_opt_flush() {
        let mut opt = ValuePqOpt::new(4, 1);
        opt.offer(vp(2));
        assert_eq!(opt.flush(), 1);
        opt.check_invariants().unwrap();
    }

    #[test]
    #[should_panic(expected = "buffer must be positive")]
    fn zero_buffer_panics() {
        let _ = WorkPqOpt::new(0, 1);
    }

    #[test]
    #[should_panic(expected = "core count must be positive")]
    fn zero_cores_panics() {
        let _ = ValuePqOpt::new(1, 0);
    }
}
