//! Arrival traces: per-slot bursts of packets stored in one flat array, with
//! record/replay support.

use std::fmt;
use std::str::FromStr;

use smbm_switch::{PortId, Value, ValuePacket, Work, WorkPacket};

/// An arrival trace: for each time slot, the packets offered during the
/// arrival phase, in arrival order (the model serves input ports in a fixed
/// order; the order within the slot is therefore part of the trace).
///
/// `Trace<WorkPacket>` drives the heterogeneous-processing model,
/// `Trace<ValuePacket>` the heterogeneous-value model.
///
/// All packets live in one contiguous array in arrival order; each slot
/// records only where its burst ends, as a 4-byte offset. A trace of `m`
/// packets over `s` slots is two allocations of `m` packets and `s`
/// offsets, however many slots are empty.
///
/// # Panics
///
/// Every method that appends packets panics, instead of wrapping an offset,
/// once the trace would hold more than `u32::MAX` packets (at least 32 GiB
/// of packets; a paper-scale Fig. 5 trace holds about 3·10⁷).
///
/// ```
/// use smbm_switch::{PortId, Work, WorkPacket};
/// use smbm_traffic::Trace;
///
/// let mut trace = Trace::new();
/// trace.push_slot([WorkPacket::new(PortId::new(0), Work::new(2))]);
/// trace.push_slot([]);
/// assert_eq!(trace.slots(), 2);
/// assert_eq!(trace.arrivals(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace<P> {
    /// Every packet, slot after slot.
    packets: Vec<P>,
    /// `ends[t]` is one past slot `t`'s last packet in `packets`.
    ends: Vec<u32>,
}

/// The slot end offset after `len` packets.
///
/// # Panics
///
/// Panics if `len` exceeds `u32::MAX`, the most packets a trace can hold.
fn offset(len: usize) -> u32 {
    u32::try_from(len).unwrap_or_else(|_| {
        panic!(
            "a trace holds at most {} packets (4-byte slot offsets), not {len}",
            u32::MAX
        )
    })
}

impl<P> Trace<P> {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace {
            packets: Vec::new(),
            ends: Vec::new(),
        }
    }

    /// Creates an empty trace with room for `slots` slots and `arrivals`
    /// packets.
    pub(crate) fn with_capacity(slots: usize, arrivals: usize) -> Self {
        Trace {
            packets: Vec::with_capacity(arrivals),
            ends: Vec::with_capacity(slots),
        }
    }

    /// Creates a trace from per-slot bursts.
    pub fn from_slots(slots: Vec<Vec<P>>) -> Self {
        slots.into_iter().collect()
    }

    /// Appends one slot's burst (possibly empty).
    pub fn push_slot(&mut self, burst: impl IntoIterator<Item = P>) {
        self.packets.extend(burst);
        self.ends.push(offset(self.packets.len()));
    }

    /// Appends `n` arrival-free slots (silence, letting buffers drain).
    pub fn push_silence(&mut self, n: usize) {
        let end = offset(self.packets.len());
        self.ends.extend(std::iter::repeat_n(end, n));
    }

    /// Appends a packet to the *last* slot (creating slot 0 if empty).
    pub fn push_arrival(&mut self, pkt: P) {
        self.packets.push(pkt);
        let end = offset(self.packets.len());
        match self.ends.last_mut() {
            Some(last) => *last = end,
            None => self.ends.push(end),
        }
    }

    /// Number of slots.
    pub fn slots(&self) -> usize {
        self.ends.len()
    }

    /// Total number of packets across all slots.
    pub fn arrivals(&self) -> usize {
        self.packets.len()
    }

    /// Every packet in arrival order, slot boundaries erased.
    pub fn packets(&self) -> &[P] {
        &self.packets
    }

    /// The burst arriving during `slot`.
    ///
    /// # Panics
    ///
    /// Panics if `slot >= self.slots()`.
    pub fn burst(&self, slot: usize) -> &[P] {
        let start = slot.checked_sub(1).map_or(0, |prev| self.ends[prev]);
        &self.packets[start as usize..self.ends[slot] as usize]
    }

    /// Iterates over per-slot bursts.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[P]> {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let end = end as usize;
            let burst = &self.packets[start..end];
            start = end;
            burst
        })
    }

    /// Splits the packets, in arrival order, into batches of `max_packets`
    /// each (the last may be shorter; empty slots contribute nothing). Slot
    /// boundaries are *not* preserved: this feeds the live runtime's
    /// free-running ingress rings, where batching amortizes per-transfer
    /// cost. Lockstep (slot-exact) consumers should iterate [`Trace::iter`]
    /// instead.
    ///
    /// # Panics
    ///
    /// Panics if `max_packets` is zero.
    pub fn batches(&self, max_packets: usize) -> std::slice::Chunks<'_, P> {
        assert!(max_packets > 0, "batch size must be positive");
        self.packets.chunks(max_packets)
    }

    /// Concatenates another trace after this one.
    pub fn extend_with(&mut self, other: Trace<P>) {
        let base = self.packets.len();
        self.ends
            .extend(other.ends.iter().map(|&end| offset(base + end as usize)));
        self.packets.extend(other.packets);
    }

    /// Repeats the whole trace `times` times (including the original).
    pub fn repeated(self, times: usize) -> Self
    where
        P: Clone,
    {
        let mut out = Trace::with_capacity(self.slots() * times, self.arrivals() * times);
        for _ in 0..times {
            let base = out.packets.len();
            out.ends
                .extend(self.ends.iter().map(|&end| offset(base + end as usize)));
            out.packets.extend_from_slice(&self.packets);
        }
        out
    }

    /// Randomly thins the trace: each packet of slot `t` is kept with
    /// probability `keep(t)` (clamped to `[0, 1]`). Slot structure is
    /// preserved. Useful for imposing time-varying (e.g. diurnal) load
    /// envelopes on a stationary trace.
    ///
    /// ```
    /// use smbm_switch::{PortId, Work, WorkPacket};
    /// use smbm_traffic::Trace;
    ///
    /// let mut t = Trace::new();
    /// t.push_slot(vec![WorkPacket::new(PortId::new(0), Work::new(1)); 100]);
    /// let halved = t.thin(|_| 0.5, 7);
    /// assert!(halved.arrivals() > 20 && halved.arrivals() < 80);
    /// ```
    pub fn thin<F: Fn(usize) -> f64>(&self, keep: F, seed: u64) -> Self
    where
        P: Clone,
    {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut out = Trace::with_capacity(self.slots(), 0);
        for (t, burst) in self.iter().enumerate() {
            let p = keep(t).clamp(0.0, 1.0);
            out.push_slot(burst.iter().filter(|_| rng.random::<f64>() < p).cloned());
        }
        out
    }
}

impl<P> FromIterator<Vec<P>> for Trace<P> {
    fn from_iter<T: IntoIterator<Item = Vec<P>>>(iter: T) -> Self {
        let mut trace = Trace::new();
        for burst in iter {
            trace.push_slot(burst);
        }
        trace
    }
}

/// Error parsing a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    line: usize,
    what: String,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace parse error at line {}: {}", self.line, self.what)
    }
}

impl std::error::Error for ParseTraceError {}

/// A packet that can be serialized in the line-oriented trace format.
///
/// The format is one slot per line: whitespace-separated `port:label` pairs
/// (`label` is the work in cycles or the value), with `#` comments and blank
/// lines for empty slots preserved as empty bursts.
pub trait TracePacket: Sized {
    /// Renders the packet as `port:label` (one-based port, matching
    /// [`PortId`]'s display convention).
    fn to_field(&self) -> String;

    /// Parses a `port:label` field.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed field.
    fn from_field(field: &str) -> Result<Self, String>;
}

fn split_field(field: &str) -> Result<(PortId, u64), String> {
    let (port, label) = field
        .split_once(':')
        .ok_or_else(|| format!("expected port:label, got {field:?}"))?;
    // The port field is a `u32`, as on the wire and in `PortId`.
    let port = u32::from_str(port).map_err(|e| format!("bad port in {field:?}: {e}"))?;
    if port == 0 {
        return Err(format!("ports are one-based, got 0 in {field:?}"));
    }
    let label = u64::from_str(label).map_err(|e| format!("bad label in {field:?}: {e}"))?;
    Ok((PortId::from_u32(port - 1), label))
}

impl TracePacket for WorkPacket {
    fn to_field(&self) -> String {
        format!("{}:{}", self.port().index() + 1, self.work().cycles())
    }

    fn from_field(field: &str) -> Result<Self, String> {
        let (port, work) = split_field(field)?;
        let work = u32::try_from(work).map_err(|_| format!("work too large in {field:?}"))?;
        Ok(WorkPacket::new(port, Work::new(work)))
    }
}

impl TracePacket for ValuePacket {
    fn to_field(&self) -> String {
        format!("{}:{}", self.port().index() + 1, self.value().get())
    }

    fn from_field(field: &str) -> Result<Self, String> {
        let (port, value) = split_field(field)?;
        Ok(ValuePacket::new(port, Value::new(value)))
    }
}

impl<P: TracePacket> Trace<P> {
    /// Serializes the trace to the line-oriented text format.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for burst in self.iter() {
            let fields: Vec<String> = burst.iter().map(TracePacket::to_field).collect();
            out.push_str(&fields.join(" "));
            out.push('\n');
        }
        out
    }

    /// Parses a trace from the line-oriented text format.
    ///
    /// # Errors
    ///
    /// Returns [`ParseTraceError`] naming the offending line.
    pub fn from_text(text: &str) -> Result<Self, ParseTraceError> {
        let mut trace = Trace::new();
        for (i, line) in text.lines().enumerate() {
            // Comments run to end of line.
            let fields = line.split('#').next().unwrap_or_default();
            for field in fields.split_whitespace() {
                let pkt =
                    P::from_field(field).map_err(|what| ParseTraceError { line: i + 1, what })?;
                trace.packets.push(pkt);
            }
            trace.ends.push(offset(trace.packets.len()));
        }
        Ok(trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wp(port: usize, w: u32) -> WorkPacket {
        WorkPacket::new(PortId::new(port), Work::new(w))
    }

    fn vp(port: usize, v: u64) -> ValuePacket {
        ValuePacket::new(PortId::new(port), Value::new(v))
    }

    #[test]
    fn build_and_measure() {
        let mut t = Trace::new();
        t.push_slot(vec![wp(0, 1), wp(1, 2)]);
        t.push_silence(3);
        t.push_arrival(wp(0, 1));
        assert_eq!(t.slots(), 4);
        assert_eq!(t.arrivals(), 3);
        assert_eq!(t.burst(0).len(), 2);
        assert_eq!(t.burst(3), &[wp(0, 1)]);
    }

    #[test]
    fn push_arrival_creates_first_slot() {
        let mut t = Trace::new();
        t.push_arrival(wp(0, 1));
        assert_eq!(t.slots(), 1);
        assert_eq!(t.arrivals(), 1);
    }

    #[test]
    fn repeated_concatenates() {
        let mut t = Trace::new();
        t.push_slot(vec![wp(0, 1)]);
        t.push_silence(1);
        let r = t.repeated(3);
        assert_eq!(r.slots(), 6);
        assert_eq!(r.arrivals(), 3);
    }

    #[test]
    fn extend_with_appends() {
        let mut a = Trace::new();
        a.push_slot(vec![wp(0, 1)]);
        let mut b = Trace::new();
        b.push_slot(vec![wp(1, 2), wp(1, 2)]);
        a.extend_with(b);
        assert_eq!(a.slots(), 2);
        assert_eq!(a.arrivals(), 3);
    }

    #[test]
    fn thin_zero_and_one_are_extremes() {
        let mut t = Trace::new();
        for _ in 0..5 {
            t.push_slot(vec![wp(0, 1); 10]);
        }
        assert_eq!(t.thin(|_| 0.0, 1).arrivals(), 0);
        assert_eq!(t.thin(|_| 1.0, 1).arrivals(), 50);
        assert_eq!(t.thin(|_| 1.0, 1).slots(), 5);
    }

    #[test]
    fn thin_respects_per_slot_envelope() {
        let mut t = Trace::new();
        for _ in 0..200 {
            t.push_slot(vec![wp(0, 1); 10]);
        }
        // Keep everything in even slots, nothing in odd slots.
        let thinned = t.thin(|slot| if slot % 2 == 0 { 1.0 } else { 0.0 }, 2);
        assert_eq!(thinned.arrivals(), 1000);
        assert!(thinned.burst(1).is_empty());
        assert_eq!(thinned.burst(0).len(), 10);
    }

    #[test]
    fn batches_coalesce_and_split_preserving_order() {
        let mut t = Trace::new();
        t.push_slot(vec![wp(0, 1), wp(1, 2)]);
        t.push_silence(2);
        t.push_slot(vec![wp(2, 3)]);
        t.push_slot(vec![wp(3, 4); 5]);
        let batches: Vec<&[WorkPacket]> = t.batches(4).collect();
        assert_eq!(batches.len(), 2);
        assert_eq!(batches[0], [wp(0, 1), wp(1, 2), wp(2, 3), wp(3, 4)]);
        assert_eq!(batches[1], [wp(3, 4); 4]);
        let flat: Vec<WorkPacket> = t.batches(4).flatten().copied().collect();
        let expected: Vec<WorkPacket> = t.iter().flatten().copied().collect();
        assert_eq!(flat, expected);
    }

    #[test]
    fn batches_of_empty_trace_are_empty() {
        let t: Trace<WorkPacket> = Trace::new();
        assert_eq!(t.batches(8).count(), 0);
        let mut silent: Trace<WorkPacket> = Trace::new();
        silent.push_silence(10);
        assert_eq!(silent.batches(8).count(), 0);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_size_rejected() {
        let t: Trace<WorkPacket> = Trace::new();
        let _ = t.batches(0);
    }

    #[test]
    fn work_trace_roundtrips_through_text() {
        let mut t = Trace::new();
        t.push_slot(vec![wp(0, 1), wp(2, 5)]);
        t.push_slot(vec![]);
        t.push_slot(vec![wp(1, 3)]);
        let text = t.to_text();
        let back: Trace<WorkPacket> = Trace::from_text(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn value_trace_roundtrips_through_text() {
        let mut t = Trace::new();
        t.push_slot(vec![vp(0, 10), vp(1, 2)]);
        t.push_slot(vec![vp(3, 7)]);
        let back: Trace<ValuePacket> = Trace::from_text(&t.to_text()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn text_format_is_one_based() {
        let mut t = Trace::new();
        t.push_slot(vec![wp(0, 4)]);
        assert_eq!(t.to_text(), "1:4\n");
    }

    #[test]
    fn parse_accepts_comments_and_blank_lines() {
        let text = "1:2 2:3 # burst\n\n# a comment-only line is an empty slot\n1:1\n";
        let t: Trace<WorkPacket> = Trace::from_text(text).unwrap();
        assert_eq!(t.slots(), 4);
        assert_eq!(t.burst(0).len(), 2);
        assert_eq!(t.burst(1).len(), 0);
        assert_eq!(t.burst(2).len(), 0);
        assert_eq!(t.burst(3).len(), 1);
    }

    #[test]
    fn parse_rejects_malformed_fields() {
        let bad = ["junk", "0:1", "1:", ":2", "1:notanumber"];
        for b in bad {
            let r: Result<Trace<WorkPacket>, _> = Trace::from_text(b);
            let err = r.unwrap_err();
            assert_eq!(err.line, 1, "{b}");
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn offsets_reach_u32_max() {
        assert_eq!(offset(0), 0);
        assert_eq!(offset(u32::MAX as usize), u32::MAX);
    }

    #[test]
    #[should_panic(expected = "a trace holds at most 4294967295 packets")]
    fn offset_past_u32_max_panics_instead_of_wrapping() {
        let _ = offset(u32::MAX as usize + 1);
    }

    #[test]
    fn from_iterator() {
        let t: Trace<WorkPacket> = vec![vec![wp(0, 1)], vec![]].into_iter().collect();
        assert_eq!(t.slots(), 2);
    }
}
