//! Strongly-typed identifiers and quantities used throughout the switch model.
//!
//! The paper indexes ports from 1; internally we index from 0 and only convert
//! in `Display` output. Newtypes keep ports, work amounts, values, and slot
//! indices from being mixed up ([C-NEWTYPE]).

use std::fmt;

/// Index of an output port (and of its queue) in a shared-memory switch.
///
/// Internally zero-based; the human-readable `Display` form is one-based to
/// match the paper's notation. Stored as a `u32`, the width the wire codec
/// carries, so that a [`crate::WorkPacket`] packs into 8 bytes and a
/// [`crate::CombinedPacket`] into 16; switch configurations reject more than
/// `u32::MAX` ports.
///
/// ```
/// use smbm_switch::PortId;
/// let p = PortId::new(0);
/// assert_eq!(p.index(), 0);
/// assert_eq!(p.to_string(), "port#1");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PortId(u32);

impl PortId {
    /// Creates a port id from a zero-based index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    pub const fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "port index exceeds u32::MAX");
        PortId(index as u32)
    }

    /// Creates a port id from a zero-based `u32` index; never panics.
    pub const fn from_u32(index: u32) -> Self {
        PortId(index)
    }

    /// Returns the zero-based index of this port.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the zero-based index as the `u32` it is stored in.
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// Iterates over the first `n` port ids, `0..n`.
    ///
    /// ```
    /// use smbm_switch::PortId;
    /// let all: Vec<_> = PortId::all(3).collect();
    /// assert_eq!(all, vec![PortId::new(0), PortId::new(1), PortId::new(2)]);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `n` exceeds `u32::MAX`.
    pub fn all(n: usize) -> impl Iterator<Item = PortId> {
        let n = u32::try_from(n).expect("port count exceeds u32::MAX");
        (0..n).map(PortId)
    }
}

impl fmt::Display for PortId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "port#{}", u64::from(self.0) + 1)
    }
}

impl From<usize> for PortId {
    fn from(index: usize) -> Self {
        PortId::new(index)
    }
}

/// An amount of required processing, in cycles.
///
/// The paper bounds per-packet work by a global maximum `k`; a work amount is
/// always at least 1 when attached to a packet (validated at configuration
/// time, see [`crate::WorkSwitchConfig`]).
///
/// ```
/// use smbm_switch::Work;
/// let w = Work::new(3);
/// assert_eq!(w.cycles(), 3);
/// assert_eq!(w.to_string(), "3cy");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Work(u32);

impl Work {
    /// One processing cycle: the homogeneous-work case of the classic
    /// shared-memory switch model.
    pub const ONE: Work = Work(1);

    /// Creates a work amount from a cycle count.
    pub const fn new(cycles: u32) -> Self {
        Work(cycles)
    }

    /// Returns the number of cycles.
    pub const fn cycles(self) -> u32 {
        self.0
    }

    /// Returns the cycle count widened to `u64`, convenient for totals.
    pub const fn as_u64(self) -> u64 {
        self.0 as u64
    }
}

impl fmt::Display for Work {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

impl From<u32> for Work {
    fn from(cycles: u32) -> Self {
        Work(cycles)
    }
}

/// The intrinsic value of a packet in the heterogeneous-value model.
///
/// ```
/// use smbm_switch::Value;
/// assert!(Value::new(6) > Value::new(2));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(u64);

impl Value {
    /// Unit value: the homogeneous-value case.
    pub const ONE: Value = Value(1);

    /// Creates a value.
    pub const fn new(v: u64) -> Self {
        Value(v)
    }

    /// Returns the raw value.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "${}", self.0)
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value(v)
    }
}

/// A discrete time-slot index.
///
/// Each slot consists of an arrival phase followed by a transmission phase
/// (Section III-A / IV-A of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Slot(u64);

impl Slot {
    /// The first time slot.
    pub const ZERO: Slot = Slot(0);

    /// Creates a slot index.
    pub const fn new(t: u64) -> Self {
        Slot(t)
    }

    /// Returns the raw slot index.
    pub const fn get(self) -> u64 {
        self.0
    }

    /// The slot immediately after this one.
    #[must_use]
    pub const fn next(self) -> Slot {
        Slot(self.0 + 1)
    }

    /// Number of slots elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` is later than `self`.
    pub fn since(self, earlier: Slot) -> u64 {
        debug_assert!(earlier.0 <= self.0, "slot arithmetic went backwards");
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for Slot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", self.0)
    }
}

impl From<u64> for Slot {
    fn from(t: u64) -> Self {
        Slot(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn port_id_roundtrip() {
        let p = PortId::new(7);
        assert_eq!(p.index(), 7);
        assert_eq!(PortId::from(7), p);
    }

    #[test]
    fn port_id_display_is_one_based() {
        assert_eq!(PortId::new(0).to_string(), "port#1");
        assert_eq!(PortId::new(9).to_string(), "port#10");
    }

    #[test]
    fn port_id_is_four_bytes_and_spans_u32() {
        assert_eq!(std::mem::size_of::<PortId>(), 4);
        let top = PortId::new(u32::MAX as usize);
        assert_eq!(top, PortId::from_u32(u32::MAX));
        assert_eq!(top.index(), u32::MAX as usize);
        assert_eq!(top.as_u32(), u32::MAX);
        assert_eq!(top.to_string(), "port#4294967296");
    }

    #[test]
    #[should_panic(expected = "port index exceeds u32::MAX")]
    fn port_id_new_rejects_indices_beyond_u32() {
        let _ = PortId::new(u32::MAX as usize + 1);
    }

    #[test]
    fn port_id_all_enumerates() {
        assert_eq!(PortId::all(0).count(), 0);
        let v: Vec<_> = PortId::all(2).collect();
        assert_eq!(v, vec![PortId::new(0), PortId::new(1)]);
    }

    #[test]
    fn work_accessors() {
        let w = Work::new(5);
        assert_eq!(w.cycles(), 5);
        assert_eq!(w.as_u64(), 5);
        assert_eq!(Work::ONE.cycles(), 1);
    }

    #[test]
    fn work_ordering() {
        assert!(Work::new(2) < Work::new(3));
        assert_eq!(Work::from(4), Work::new(4));
    }

    #[test]
    fn value_ordering_and_display() {
        assert!(Value::new(6) > Value::ONE);
        assert_eq!(Value::new(6).to_string(), "$6");
        assert_eq!(Value::from(3).get(), 3);
    }

    #[test]
    fn slot_arithmetic() {
        let t0 = Slot::ZERO;
        let t1 = t0.next();
        assert_eq!(t1.get(), 1);
        assert_eq!(t1.since(t0), 1);
        assert_eq!(Slot::new(10).since(Slot::new(4)), 6);
    }

    #[test]
    fn displays_are_nonempty() {
        // C-DEBUG-NONEMPTY in spirit: human-readable forms always render.
        assert!(!PortId::default().to_string().is_empty());
        assert!(!Work::default().to_string().is_empty());
        assert!(!Value::default().to_string().is_empty());
        assert!(!Slot::default().to_string().is_empty());
    }
}
