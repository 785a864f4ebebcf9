//! The slot machine's view of a policy-driven switch.
//!
//! [`DatapathSystem`] merges what the offline engine's old `EngineSystem`
//! and the runtime's old `Service` each asked for: one trait serving both
//! drivers, with one adapter per packet model bridging from the
//! `smbm-core` system traits. The adapters are generic over *any*
//! implementor, so they wrap an owned runner (the runtime builds its
//! service inside the shard thread) or a `&mut` borrow (the engine drives
//! a caller-owned system) with the same code.

use smbm_core::{CombinedSystem, ValueSystem, WorkSystem};
use smbm_switch::{
    AdmitError, ArrivalOutcome, CombinedPacket, Counters, PortId, Transmitted, ValuePacket,
    WorkPacket,
};

/// What the slot machine needs from the system it drives: per-packet
/// admission, transmission, slot bookkeeping, flush, and the scalar gauges
/// the drivers report.
///
/// `meta` is an associated function (not a method) so callers — the
/// runtime's producers attributing value to backpressure-rejected packets,
/// the machine emitting arrival events — can carry it as a plain `fn`
/// pointer without touching the system.
pub trait DatapathSystem {
    /// The packet type flowing through the datapath. Plain data: every
    /// model's packet is `Copy` and crosses threads in the runtime's
    /// ingress rings.
    type Packet: Copy + Send + 'static;

    /// Human-readable label (the policy name) for reports.
    fn label(&self) -> String;

    /// Destination port, work cycles, and value of a packet (1 wherever the
    /// model lacks the dimension), feeding arrival events.
    fn meta(pkt: Self::Packet) -> (PortId, u32, u64);

    /// Offers one packet to admission control. The machine's arrival phase
    /// is built on this (per-packet, so observer events interleave with
    /// admission exactly as they always have, and nothing is materialized
    /// on the hot path).
    ///
    /// # Errors
    ///
    /// Surfaces an [`AdmitError`] (an inconsistent policy decision).
    fn offer(&mut self, pkt: Self::Packet) -> Result<ArrivalOutcome, AdmitError>;

    /// Runs one transmission phase, appending per-packet completion records
    /// for systems that track them; returns the phase's contribution to the
    /// objective (packets in the work model, value otherwise).
    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64;

    /// Marks the end of the slot (advances the switch clock).
    fn end_slot(&mut self);

    /// Discards all buffered packets; returns how many were discarded.
    fn flush(&mut self) -> u64;

    /// Packets currently buffered.
    fn occupancy(&self) -> usize;

    /// The objective so far: packets transmitted (work model) or value
    /// transmitted (value/combined models).
    fn score(&self) -> u64;

    /// The switch's configured shared buffer limit B (telemetry gauge; 0
    /// for systems without one, e.g. aggregate OPT surrogates).
    fn buffer_limit(&self) -> usize;

    /// The switch's configured output port count n (telemetry gauge; 0 for
    /// systems without one).
    fn ports(&self) -> usize;

    /// Length of the longest output queue right now (telemetry gauge; 0
    /// for systems that do not track per-port queues).
    fn max_queue_depth(&self) -> usize;

    /// Snapshot of the switch's lifetime counters (empty for systems that
    /// do not keep them).
    fn counters(&self) -> Counters;
}

/// Adapts a [`WorkSystem`] — throughput objective, per-port work
/// requirements — to the slot machine.
#[derive(Debug)]
pub struct WorkAdapter<S>(S);

impl<S: WorkSystem> WorkAdapter<S> {
    /// Wraps a work-model system (an owned runner or a `&mut` borrow).
    pub fn new(sys: S) -> Self {
        WorkAdapter(sys)
    }

    /// The wrapped system.
    pub fn inner(&self) -> &S {
        &self.0
    }
}

impl<S: WorkSystem> DatapathSystem for WorkAdapter<S> {
    type Packet = WorkPacket;

    fn label(&self) -> String {
        self.0.label()
    }

    fn meta(pkt: WorkPacket) -> (PortId, u32, u64) {
        (pkt.port(), pkt.work().cycles(), 1)
    }

    fn offer(&mut self, pkt: WorkPacket) -> Result<ArrivalOutcome, AdmitError> {
        self.0.offer(pkt)
    }

    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        self.0.transmission_phase_into(out)
    }

    fn end_slot(&mut self) {
        self.0.end_slot();
    }

    fn flush(&mut self) -> u64 {
        self.0.flush()
    }

    fn occupancy(&self) -> usize {
        self.0.occupancy()
    }

    fn score(&self) -> u64 {
        self.0.transmitted()
    }

    fn buffer_limit(&self) -> usize {
        self.0.buffer_limit()
    }

    fn ports(&self) -> usize {
        self.0.ports()
    }

    fn max_queue_depth(&self) -> usize {
        self.0.max_queue_depth()
    }

    fn counters(&self) -> Counters {
        self.0.counters()
    }
}

/// Adapts a [`ValueSystem`] — value objective, unit work — to the slot
/// machine.
#[derive(Debug)]
pub struct ValueAdapter<S>(S);

impl<S: ValueSystem> ValueAdapter<S> {
    /// Wraps a value-model system (an owned runner or a `&mut` borrow).
    pub fn new(sys: S) -> Self {
        ValueAdapter(sys)
    }

    /// The wrapped system.
    pub fn inner(&self) -> &S {
        &self.0
    }
}

impl<S: ValueSystem> DatapathSystem for ValueAdapter<S> {
    type Packet = ValuePacket;

    fn label(&self) -> String {
        self.0.label()
    }

    fn meta(pkt: ValuePacket) -> (PortId, u32, u64) {
        (pkt.port(), 1, pkt.value().get())
    }

    fn offer(&mut self, pkt: ValuePacket) -> Result<ArrivalOutcome, AdmitError> {
        self.0.offer(pkt)
    }

    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        self.0.transmission_phase_into(out)
    }

    fn end_slot(&mut self) {
        self.0.end_slot();
    }

    fn flush(&mut self) -> u64 {
        self.0.flush()
    }

    fn occupancy(&self) -> usize {
        self.0.occupancy()
    }

    fn score(&self) -> u64 {
        self.0.transmitted_value()
    }

    fn buffer_limit(&self) -> usize {
        self.0.buffer_limit()
    }

    fn ports(&self) -> usize {
        self.0.ports()
    }

    fn max_queue_depth(&self) -> usize {
        self.0.max_queue_depth()
    }

    fn counters(&self) -> Counters {
        self.0.counters()
    }
}

/// Adapts a [`CombinedSystem`] — value objective, per-port work
/// (extension) — to the slot machine.
#[derive(Debug)]
pub struct CombinedAdapter<S>(S);

impl<S: CombinedSystem> CombinedAdapter<S> {
    /// Wraps a combined-model system (an owned runner or a `&mut` borrow).
    pub fn new(sys: S) -> Self {
        CombinedAdapter(sys)
    }

    /// The wrapped system.
    pub fn inner(&self) -> &S {
        &self.0
    }
}

impl<S: CombinedSystem> DatapathSystem for CombinedAdapter<S> {
    type Packet = CombinedPacket;

    fn label(&self) -> String {
        self.0.label()
    }

    fn meta(pkt: CombinedPacket) -> (PortId, u32, u64) {
        (pkt.port(), pkt.work().cycles(), pkt.value().get())
    }

    fn offer(&mut self, pkt: CombinedPacket) -> Result<ArrivalOutcome, AdmitError> {
        self.0.offer(pkt)
    }

    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        self.0.transmission_phase_into(out)
    }

    fn end_slot(&mut self) {
        self.0.end_slot();
    }

    fn flush(&mut self) -> u64 {
        self.0.flush()
    }

    fn occupancy(&self) -> usize {
        self.0.occupancy()
    }

    fn score(&self) -> u64 {
        self.0.transmitted_value()
    }

    fn buffer_limit(&self) -> usize {
        self.0.buffer_limit()
    }

    fn ports(&self) -> usize {
        self.0.ports()
    }

    fn max_queue_depth(&self) -> usize {
        self.0.max_queue_depth()
    }

    fn counters(&self) -> Counters {
        self.0.counters()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smbm_core::{GreedyValue, Lwd, ValueRunner, WorkRunner};
    use smbm_switch::{Value, ValueSwitchConfig, Work, WorkSwitchConfig};

    #[test]
    fn work_adapter_round_trip() {
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        let mut sys = WorkAdapter::new(WorkRunner::new(cfg, Lwd::new(), 1));
        assert_eq!(sys.label(), "LWD");
        let pkt = WorkPacket::new(PortId::new(0), Work::new(1));
        assert_eq!(
            WorkAdapter::<WorkRunner<Lwd>>::meta(pkt),
            (PortId::new(0), 1, 1)
        );
        for _ in 0..2 {
            assert_eq!(sys.offer(pkt), Ok(ArrivalOutcome::Admitted));
        }
        assert_eq!(sys.occupancy(), 2);
        assert_eq!(sys.buffer_limit(), 4);
        assert_eq!(sys.ports(), 2);
        assert_eq!(sys.max_queue_depth(), 2);
        let mut out = Vec::new();
        assert_eq!(sys.transmission_phase_into(&mut out), 1);
        sys.end_slot();
        assert_eq!(sys.score(), 1);
        assert_eq!(sys.counters().transmitted(), 1);
        assert_eq!(sys.flush(), 1);
        assert_eq!(sys.occupancy(), 0);
    }

    #[test]
    fn adapters_work_over_mutable_borrows() {
        let cfg = ValueSwitchConfig::new(4, 2).unwrap();
        let mut runner = ValueRunner::new(cfg, GreedyValue::new(), 1);
        {
            let mut sys = ValueAdapter::new(&mut runner);
            sys.offer(ValuePacket::new(PortId::new(0), Value::new(7)))
                .unwrap();
            let mut out = Vec::new();
            assert_eq!(sys.transmission_phase_into(&mut out), 7);
            sys.end_slot();
            assert_eq!(sys.score(), 7);
        }
        // The borrow adapter drove the caller's runner in place.
        assert_eq!(runner.transmitted_value(), 7);
    }

    #[test]
    fn opt_surrogates_default_the_gauges() {
        let opt = smbm_core::WorkPqOpt::new(4, 2);
        let sys = WorkAdapter::new(opt);
        assert_eq!(sys.buffer_limit(), 0);
        assert_eq!(sys.ports(), 0);
        assert_eq!(sys.max_queue_depth(), 0);
        assert_eq!(sys.counters(), Counters::new());
    }
}
