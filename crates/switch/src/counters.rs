//! Lifetime accounting for every packet a switch ever sees.
//!
//! The counters uphold conservation laws that double as test oracles, in
//! both packets and value:
//!
//! * `arrived == admitted + dropped` (and the same identity over values)
//! * `admitted == transmitted + pushed_out + resident`
//!
//! where `resident` is the current buffer occupancy. Any policy or engine bug
//! that loses or duplicates a packet breaks one of these identities. The
//! packet laws are checked by [`Counters::check_conservation`]; the admission
//! value law needs the resident *value* (which only the buffer knows) and is
//! checked separately by [`Counters::check_value_conservation`].

use std::fmt;

use crate::DropReason;

/// Packet-lifetime counters maintained by every [`crate::Switch`].
///
/// ```
/// use smbm_switch::Counters;
/// let mut c = Counters::default();
/// c.record_arrival(1);
/// c.record_admission(1);
/// c.record_transmission(1, 1);
/// assert!(c.check_conservation(0).is_ok());
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Counters {
    arrived: u64,
    arrived_value: u64,
    admitted: u64,
    admitted_value: u64,
    /// Packets dropped, indexed by [`DropReason::index`].
    dropped: [u64; DropReason::COUNT],
    /// Value dropped, indexed by [`DropReason::index`].
    dropped_value: [u64; DropReason::COUNT],
    pushed_out: u64,
    pushed_out_value: u64,
    transmitted: u64,
    transmitted_value: u64,
    cycles_consumed: u64,
    latency_sum: u64,
    latency_max: u64,
}

impl Counters {
    /// Creates zeroed counters (same as `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a packet offered to the switch, carrying `value` (use 1 in the
    /// processing model, where throughput is a packet count).
    pub fn record_arrival(&mut self, value: u64) {
        self.arrived += 1;
        self.arrived_value += value;
    }

    /// Records a packet worth `value` accepted into the buffer.
    pub fn record_admission(&mut self, value: u64) {
        self.admitted += 1;
        self.admitted_value += value;
    }

    /// Records a packet worth `value` rejected on arrival for `reason`.
    #[inline]
    pub fn record_drop(&mut self, reason: DropReason, value: u64) {
        let i = reason.index();
        self.dropped[i] += 1;
        self.dropped_value[i] += value;
    }

    /// Records `packets` packets of total worth `value` that reached the
    /// datapath's edge and were dropped there for `reason`, without an
    /// admission decision: a full ingress ring, a dead shard, an
    /// undecodable frame. A bulk arrival plus drop, so the conservation law
    /// `arrived == admitted + dropped` keeps holding over the whole
    /// datapath. An undecodable frame's value is unknown; callers pass 0,
    /// which keeps the value laws exact.
    pub fn record_edge_drops(&mut self, reason: DropReason, packets: u64, value: u64) {
        self.arrived += packets;
        self.arrived_value += value;
        self.dropped[reason.index()] += packets;
        self.dropped_value[reason.index()] += value;
    }

    /// Adds every count from `other` into `self` (latency maxima take the
    /// max). Merging per-shard counters yields datapath-wide totals for
    /// which the conservation laws still hold, since each law is linear.
    pub fn merge(&mut self, other: &Counters) {
        self.arrived += other.arrived;
        self.arrived_value += other.arrived_value;
        self.admitted += other.admitted;
        self.admitted_value += other.admitted_value;
        for i in 0..DropReason::COUNT {
            self.dropped[i] += other.dropped[i];
            self.dropped_value[i] += other.dropped_value[i];
        }
        self.pushed_out += other.pushed_out;
        self.pushed_out_value += other.pushed_out_value;
        self.transmitted += other.transmitted;
        self.transmitted_value += other.transmitted_value;
        self.cycles_consumed += other.cycles_consumed;
        self.latency_sum += other.latency_sum;
        self.latency_max = self.latency_max.max(other.latency_max);
    }

    /// Records an admitted packet worth `value` evicted to make room for
    /// another.
    pub fn record_push_out(&mut self, value: u64) {
        self.pushed_out += 1;
        self.pushed_out_value += value;
    }

    /// Records a completed transmission of a packet worth `value`, after it
    /// spent `latency` slots in the buffer.
    pub fn record_transmission(&mut self, value: u64, latency: u64) {
        self.transmitted += 1;
        self.transmitted_value += value;
        self.latency_sum += latency;
        self.latency_max = self.latency_max.max(latency);
    }

    /// Records processing cycles consumed during a transmission phase.
    pub fn record_cycles(&mut self, cycles: u64) {
        self.cycles_consumed += cycles;
    }

    /// Records `packets` packets of total worth `value` discarded by a buffer
    /// flush (counted as push-outs so conservation still holds).
    pub fn record_flush(&mut self, packets: u64, value: u64) {
        self.pushed_out += packets;
        self.pushed_out_value += value;
    }

    /// Total packets offered.
    pub fn arrived(&self) -> u64 {
        self.arrived
    }

    /// Total value offered.
    pub fn arrived_value(&self) -> u64 {
        self.arrived_value
    }

    /// Total packets accepted into the buffer.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Total value accepted into the buffer.
    pub fn admitted_value(&self) -> u64 {
        self.admitted_value
    }

    /// Total packets rejected on arrival, for any reason.
    pub fn dropped(&self) -> u64 {
        self.dropped.iter().sum()
    }

    /// Total value rejected on arrival, for any reason.
    pub fn dropped_value(&self) -> u64 {
        self.dropped_value.iter().sum()
    }

    /// Packets dropped for `reason` (a subset of [`Counters::dropped`]).
    pub fn dropped_for(&self, reason: DropReason) -> u64 {
        self.dropped[reason.index()]
    }

    /// Value dropped for `reason` (a subset of
    /// [`Counters::dropped_value`]).
    pub fn dropped_value_for(&self, reason: DropReason) -> u64 {
        self.dropped_value[reason.index()]
    }

    /// Packets rejected by admission control itself: the
    /// [`DropReason::at_switch`] reasons, excluding every edge drop.
    pub fn dropped_at_switch(&self) -> u64 {
        DropReason::ALL
            .into_iter()
            .filter(|r| r.at_switch())
            .map(|r| self.dropped_for(r))
            .sum()
    }

    /// Total admitted packets later evicted (including flushed packets).
    pub fn pushed_out(&self) -> u64 {
        self.pushed_out
    }

    /// Total value evicted after admission (including flushed value).
    pub fn pushed_out_value(&self) -> u64 {
        self.pushed_out_value
    }

    /// Total packets transmitted.
    pub fn transmitted(&self) -> u64 {
        self.transmitted
    }

    /// Total value transmitted (equals `transmitted()` in the processing
    /// model).
    pub fn transmitted_value(&self) -> u64 {
        self.transmitted_value
    }

    /// Total processing cycles consumed.
    pub fn cycles_consumed(&self) -> u64 {
        self.cycles_consumed
    }

    /// Mean sojourn time of transmitted packets, in slots.
    pub fn mean_latency(&self) -> f64 {
        if self.transmitted == 0 {
            0.0
        } else {
            self.latency_sum as f64 / self.transmitted as f64
        }
    }

    /// Largest sojourn time observed.
    pub fn max_latency(&self) -> u64 {
        self.latency_max
    }

    /// Fraction of offered packets that were eventually transmitted.
    pub fn goodput(&self) -> f64 {
        if self.arrived == 0 {
            0.0
        } else {
            self.transmitted as f64 / self.arrived as f64
        }
    }

    /// Verifies the packet conservation laws against the current buffer
    /// `occupancy`, plus the arrival value law
    /// `arrived_value == admitted_value + dropped_value`.
    ///
    /// # Errors
    ///
    /// Returns a [`ConservationError`] describing the violated identity.
    pub fn check_conservation(&self, occupancy: usize) -> Result<(), ConservationError> {
        if self.arrived != self.admitted + self.dropped() {
            return Err(ConservationError::Arrivals {
                arrived: self.arrived,
                admitted: self.admitted,
                dropped: self.dropped(),
            });
        }
        if self.arrived_value != self.admitted_value + self.dropped_value() {
            return Err(ConservationError::ArrivalValue {
                arrived_value: self.arrived_value,
                admitted_value: self.admitted_value,
                dropped_value: self.dropped_value(),
            });
        }
        let accounted = self.transmitted + self.pushed_out + occupancy as u64;
        if self.admitted != accounted {
            return Err(ConservationError::Admissions {
                admitted: self.admitted,
                transmitted: self.transmitted,
                pushed_out: self.pushed_out,
                resident: occupancy as u64,
            });
        }
        Ok(())
    }

    /// Verifies the admission value law
    /// `admitted_value == transmitted_value + pushed_out_value + resident_value`,
    /// where `resident_value` is the total value currently buffered (known
    /// only to the buffer itself, hence the separate entry point).
    ///
    /// # Errors
    ///
    /// Returns [`ConservationError::AdmissionValue`] when the identity fails.
    pub fn check_value_conservation(&self, resident_value: u64) -> Result<(), ConservationError> {
        let accounted = self.transmitted_value + self.pushed_out_value + resident_value;
        if self.admitted_value != accounted {
            return Err(ConservationError::AdmissionValue {
                admitted_value: self.admitted_value,
                transmitted_value: self.transmitted_value,
                pushed_out_value: self.pushed_out_value,
                resident_value,
            });
        }
        Ok(())
    }
}

impl fmt::Display for Counters {
    /// One line: totals, then each edge-drop reason by label, then values.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "arrived={} admitted={} dropped={}",
            self.arrived,
            self.admitted,
            self.dropped()
        )?;
        for r in DropReason::ALL.into_iter().filter(|r| !r.at_switch()) {
            write!(f, " {}={}", r.label(), self.dropped_for(r))?;
        }
        write!(
            f,
            " pushed_out={} transmitted={} value={} admitted_value={} dropped_value={} \
             pushed_out_value={}",
            self.pushed_out,
            self.transmitted,
            self.transmitted_value,
            self.admitted_value,
            self.dropped_value(),
            self.pushed_out_value
        )
    }
}

/// Drop totals, then each edge reason's packets and value, in the field
/// order the counters had before drops were indexed by reason: run
/// fingerprints that read the numbers off this form (`src/golden.rs`) stay
/// comparable. The at-switch split is in [`Counters::dropped_for`].
impl fmt::Debug for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut d = f.debug_struct("Counters");
        d.field("arrived", &self.arrived)
            .field("arrived_value", &self.arrived_value)
            .field("admitted", &self.admitted)
            .field("admitted_value", &self.admitted_value)
            .field("dropped", &self.dropped())
            .field("dropped_value", &self.dropped_value());
        for r in DropReason::ALL.into_iter().filter(|r| !r.at_switch()) {
            d.field(r.label(), &(self.dropped_for(r), self.dropped_value_for(r)));
        }
        d.field("pushed_out", &self.pushed_out)
            .field("pushed_out_value", &self.pushed_out_value)
            .field("transmitted", &self.transmitted)
            .field("transmitted_value", &self.transmitted_value)
            .field("cycles_consumed", &self.cycles_consumed)
            .field("latency_sum", &self.latency_sum)
            .field("latency_max", &self.latency_max)
            .finish()
    }
}

/// A violated conservation identity, reported by
/// [`Counters::check_conservation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConservationError {
    /// `arrived != admitted + dropped`.
    Arrivals {
        /// Packets offered.
        arrived: u64,
        /// Packets admitted.
        admitted: u64,
        /// Packets dropped.
        dropped: u64,
    },
    /// `admitted != transmitted + pushed_out + resident`.
    Admissions {
        /// Packets admitted.
        admitted: u64,
        /// Packets transmitted.
        transmitted: u64,
        /// Packets pushed out.
        pushed_out: u64,
        /// Packets still buffered.
        resident: u64,
    },
    /// `arrived_value != admitted_value + dropped_value`.
    ArrivalValue {
        /// Value offered.
        arrived_value: u64,
        /// Value admitted.
        admitted_value: u64,
        /// Value dropped.
        dropped_value: u64,
    },
    /// `admitted_value != transmitted_value + pushed_out_value + resident_value`.
    AdmissionValue {
        /// Value admitted.
        admitted_value: u64,
        /// Value transmitted.
        transmitted_value: u64,
        /// Value pushed out.
        pushed_out_value: u64,
        /// Value still buffered.
        resident_value: u64,
    },
}

impl fmt::Display for ConservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConservationError::Arrivals {
                arrived,
                admitted,
                dropped,
            } => write!(
                f,
                "arrival conservation violated: {arrived} arrived but {admitted} admitted + {dropped} dropped"
            ),
            ConservationError::Admissions {
                admitted,
                transmitted,
                pushed_out,
                resident,
            } => write!(
                f,
                "admission conservation violated: {admitted} admitted but {transmitted} transmitted + {pushed_out} pushed out + {resident} resident"
            ),
            ConservationError::ArrivalValue {
                arrived_value,
                admitted_value,
                dropped_value,
            } => write!(
                f,
                "arrival value conservation violated: value {arrived_value} arrived but {admitted_value} admitted + {dropped_value} dropped"
            ),
            ConservationError::AdmissionValue {
                admitted_value,
                transmitted_value,
                pushed_out_value,
                resident_value,
            } => write!(
                f,
                "admission value conservation violated: value {admitted_value} admitted but {transmitted_value} transmitted + {pushed_out_value} pushed out + {resident_value} resident"
            ),
        }
    }
}

impl std::error::Error for ConservationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_counters_conserve() {
        assert!(Counters::new().check_conservation(0).is_ok());
    }

    #[test]
    fn full_lifecycle_conserves() {
        let mut c = Counters::new();
        for _ in 0..10 {
            c.record_arrival(2);
        }
        for _ in 0..6 {
            c.record_admission(2);
        }
        for _ in 0..4 {
            c.record_drop(DropReason::BufferFull, 2);
        }
        c.record_push_out(2);
        c.record_transmission(2, 3);
        c.record_transmission(2, 5);
        // 6 admitted = 2 transmitted + 1 pushed out + 3 resident.
        assert!(c.check_conservation(3).is_ok());
        // Value 12 admitted = 4 transmitted + 2 pushed out + 6 resident.
        assert!(c.check_value_conservation(6).is_ok());
        assert_eq!(c.transmitted_value(), 4);
        assert_eq!(c.arrived_value(), 20);
        assert_eq!(c.admitted_value(), 12);
        assert_eq!(c.dropped_value(), 8);
        assert_eq!(c.pushed_out_value(), 2);
    }

    #[test]
    fn detects_arrival_violation() {
        let mut c = Counters::new();
        c.record_arrival(1);
        let err = c.check_conservation(0).unwrap_err();
        assert!(matches!(err, ConservationError::Arrivals { .. }));
        assert!(err.to_string().contains("arrival conservation"));
    }

    #[test]
    fn detects_admission_violation() {
        let mut c = Counters::new();
        c.record_arrival(1);
        c.record_admission(1);
        let err = c.check_conservation(0).unwrap_err();
        assert!(matches!(err, ConservationError::Admissions { .. }));
        assert!(err.to_string().contains("admission conservation"));
    }

    #[test]
    fn detects_arrival_value_violation() {
        let mut c = Counters::new();
        c.record_arrival(5);
        c.record_admission(3); // value leaked: 5 arrived, 3 admitted, 0 dropped
        let err = c.check_conservation(1).unwrap_err();
        assert!(matches!(err, ConservationError::ArrivalValue { .. }));
        assert!(err.to_string().contains("arrival value conservation"));
    }

    #[test]
    fn detects_admission_value_violation() {
        let mut c = Counters::new();
        c.record_arrival(5);
        c.record_admission(5);
        c.record_transmission(3, 0);
        let err = c.check_value_conservation(0).unwrap_err();
        assert!(matches!(err, ConservationError::AdmissionValue { .. }));
        assert!(err.to_string().contains("admission value conservation"));
        assert!(c.check_value_conservation(2).is_ok());
    }

    #[test]
    fn edge_drops_count_as_separate_drop_classes() {
        let mut c = Counters::new();
        for _ in 0..3 {
            c.record_arrival(2);
        }
        c.record_admission(2);
        c.record_drop(DropReason::BufferFull, 2);
        c.record_drop(DropReason::Policy, 2);
        c.record_edge_drops(DropReason::Backpressure, 2, 4);
        c.record_edge_drops(DropReason::ShardFailure, 5, 10);
        c.record_edge_drops(DropReason::NetDecode, 4, 0);
        assert!(c.check_conservation(1).is_ok());
        assert_eq!(c.arrived(), 14);
        assert_eq!(c.dropped(), 13);
        assert_eq!(c.dropped_value(), 18);
        assert_eq!(c.dropped_for(DropReason::BufferFull), 1);
        assert_eq!(c.dropped_for(DropReason::Policy), 1);
        assert_eq!(c.dropped_at_switch(), 2);
        assert_eq!(c.dropped_for(DropReason::Backpressure), 2);
        assert_eq!(c.dropped_value_for(DropReason::Backpressure), 4);
        assert_eq!(c.dropped_for(DropReason::ShardFailure), 5);
        assert_eq!(c.dropped_value_for(DropReason::ShardFailure), 10);
        assert_eq!(c.dropped_for(DropReason::NetDecode), 4);
        assert_eq!(c.dropped_value_for(DropReason::NetDecode), 0);
        let text = c.to_string();
        for needle in ["backpressure=2", "shard_failure=5", "net_decode=4"] {
            assert!(text.contains(needle), "{text}");
        }
    }

    #[test]
    fn merge_preserves_every_drop_class_and_conservation() {
        let mut a = Counters::new();
        a.record_arrival(3);
        a.record_admission(3);
        a.record_transmission(3, 5);
        let mut b = Counters::new();
        b.record_arrival(1);
        b.record_drop(DropReason::Policy, 1);
        b.record_arrival(2);
        b.record_admission(2);
        b.record_transmission(2, 9);
        b.record_edge_drops(DropReason::Backpressure, 10, 25);
        a.merge(&b);
        assert_eq!(a.arrived(), 13);
        assert_eq!(a.transmitted(), 2);
        assert_eq!(a.dropped(), 11);
        assert_eq!(a.max_latency(), 9);
        for r in DropReason::ALL {
            assert_eq!(a.dropped_for(r), b.dropped_for(r));
            assert_eq!(a.dropped_value_for(r), b.dropped_value_for(r));
        }
        assert!(a.check_conservation(0).is_ok());
    }

    #[test]
    fn latency_statistics() {
        let mut c = Counters::new();
        c.record_transmission(1, 2);
        c.record_transmission(1, 6);
        assert_eq!(c.mean_latency(), 4.0);
        assert_eq!(c.max_latency(), 6);
    }

    #[test]
    fn latency_of_empty_counters_is_zero() {
        let c = Counters::new();
        assert_eq!(c.mean_latency(), 0.0);
        assert_eq!(c.goodput(), 0.0);
    }

    #[test]
    fn goodput_fraction() {
        let mut c = Counters::new();
        for _ in 0..4 {
            c.record_arrival(1);
            c.record_admission(1);
        }
        c.record_transmission(1, 0);
        assert_eq!(c.goodput(), 0.25);
    }

    #[test]
    fn flush_counts_as_push_out() {
        let mut c = Counters::new();
        for _ in 0..3 {
            c.record_arrival(1);
            c.record_admission(1);
        }
        c.record_flush(3, 3);
        assert!(c.check_conservation(0).is_ok());
        assert!(c.check_value_conservation(0).is_ok());
        assert_eq!(c.pushed_out(), 3);
        assert_eq!(c.pushed_out_value(), 3);
    }

    #[test]
    fn display_is_informative() {
        assert_eq!(
            Counters::new().to_string(),
            "arrived=0 admitted=0 dropped=0 backpressure=0 shard_failure=0 net_decode=0 \
             pushed_out=0 transmitted=0 value=0 admitted_value=0 dropped_value=0 \
             pushed_out_value=0"
        );
    }
}
