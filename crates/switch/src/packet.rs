//! Packet types for the three switch models.

use std::fmt;

use crate::{PortId, Slot, Value, Work};

/// A unit-sized packet in the heterogeneous-processing model (Section III).
///
/// Carries its destination output port and its required processing in cycles.
/// The model constrains every packet destined to port `i` to carry the same
/// requirement `w_i`; [`crate::WorkSwitch`] enforces this at admission time.
///
/// ```
/// use smbm_switch::{PortId, Work, WorkPacket};
/// let p = WorkPacket::new(PortId::new(0), Work::new(3));
/// assert_eq!(p.work().cycles(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkPacket {
    port: PortId,
    work: Work,
}

impl WorkPacket {
    /// Creates a packet destined to `port` requiring `work` cycles.
    pub const fn new(port: PortId, work: Work) -> Self {
        WorkPacket { port, work }
    }

    /// Destination output port.
    pub const fn port(self) -> PortId {
        self.port
    }

    /// Required processing.
    pub const fn work(self) -> Work {
        self.work
    }
}

impl fmt::Display for WorkPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} -> {}]", self.work, self.port)
    }
}

/// A unit-sized, unit-work packet in the heterogeneous-value model
/// (Section IV). Carries its destination output port and intrinsic value.
///
/// The packet is 12 bytes with 4-byte alignment: `packed(4)` drops the four
/// padding bytes a `u64` value after a `u32` port would otherwise cost every
/// trace and buffer slot. Fields are only ever read by value (a reference to
/// a packed field is an error), so no access is unaligned in Rust's sense.
///
/// ```
/// use smbm_switch::{PortId, Value, ValuePacket};
/// let p = ValuePacket::new(PortId::new(1), Value::new(6));
/// assert_eq!(p.value().get(), 6);
/// assert_eq!(std::mem::size_of::<ValuePacket>(), 12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(C, packed(4))]
pub struct ValuePacket {
    port: PortId,
    value: Value,
}

impl ValuePacket {
    /// Creates a packet destined to `port` with intrinsic `value`.
    pub const fn new(port: PortId, value: Value) -> Self {
        ValuePacket { port, value }
    }

    /// Destination output port.
    pub const fn port(self) -> PortId {
        self.port
    }

    /// Intrinsic value.
    pub const fn value(self) -> Value {
        self.value
    }
}

impl fmt::Display for ValuePacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Copied out: formatting borrows, and a packed field cannot be.
        let (value, port) = (self.value, self.port);
        write!(f, "[{value} -> {port}]")
    }
}

/// A packet of the combined model (extension): destination port, the
/// port's work requirement, and an intrinsic value.
///
/// ```
/// use smbm_switch::{CombinedPacket, PortId, Value, Work};
/// let p = CombinedPacket::new(PortId::new(0), Work::new(4), Value::new(6));
/// assert_eq!(p.density(), 1.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CombinedPacket {
    port: PortId,
    work: Work,
    value: Value,
}

impl CombinedPacket {
    /// Creates a packet.
    pub const fn new(port: PortId, work: Work, value: Value) -> Self {
        CombinedPacket { port, work, value }
    }

    /// Destination output port.
    pub const fn port(self) -> PortId {
        self.port
    }

    /// Required processing.
    pub const fn work(self) -> Work {
        self.work
    }

    /// Intrinsic value.
    pub const fn value(self) -> Value {
        self.value
    }

    /// Value per processing cycle — the natural greedy ordering key of the
    /// combined model.
    pub fn density(self) -> f64 {
        self.value.get() as f64 / f64::from(self.work.cycles())
    }
}

impl fmt::Display for CombinedPacket {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}/{} -> {}]", self.value, self.work, self.port)
    }
}

/// A packet that has been transmitted, together with timing information.
///
/// Produced by the transmission phase of every switch; useful for latency
/// accounting in the simulator's metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Transmitted {
    /// Port the packet left from.
    pub port: PortId,
    /// Value carried out (always 1 for the processing model, where throughput
    /// is a packet count).
    pub value: Value,
    /// Slot during which the packet arrived.
    pub arrived: Slot,
    /// Slot during which the packet was transmitted.
    pub departed: Slot,
}

impl Transmitted {
    /// Sojourn time in slots (arrival slot counts as zero).
    pub fn latency(&self) -> u64 {
        self.departed.since(self.arrived)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_packet_accessors() {
        let p = WorkPacket::new(PortId::new(2), Work::new(4));
        assert_eq!(p.port(), PortId::new(2));
        assert_eq!(p.work(), Work::new(4));
        assert_eq!(p.to_string(), "[4cy -> port#3]");
    }

    #[test]
    fn value_packet_accessors() {
        let p = ValuePacket::new(PortId::new(0), Value::new(9));
        assert_eq!(p.port(), PortId::new(0));
        assert_eq!(p.value(), Value::new(9));
        assert_eq!(p.to_string(), "[$9 -> port#1]");
    }

    #[test]
    fn combined_packet_density_and_display() {
        let p = CombinedPacket::new(PortId::new(0), Work::new(4), Value::new(6));
        assert!((p.density() - 1.5).abs() < 1e-12);
        assert_eq!(p.to_string(), "[$6/4cy -> port#1]");
    }

    #[test]
    fn transmitted_latency() {
        let t = Transmitted {
            port: PortId::new(0),
            value: Value::ONE,
            arrived: Slot::new(3),
            departed: Slot::new(10),
        };
        assert_eq!(t.latency(), 7);
    }

    #[test]
    fn transmitted_same_slot_latency_is_zero() {
        let t = Transmitted {
            port: PortId::new(0),
            value: Value::ONE,
            arrived: Slot::new(5),
            departed: Slot::new(5),
        };
        assert_eq!(t.latency(), 0);
    }
}
