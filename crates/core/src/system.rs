//! Uniform interfaces over "things that receive a packet stream" — policy
//! runners and OPT surrogates — so the simulation engine can drive an
//! algorithm and its yardstick through identical slot phases.
//!
//! Every hook reports enough detail for instrumentation: [`offer`] returns
//! the packet's fate ([`ArrivalOutcome`]), [`flush`] the number of discarded
//! packets, and [`transmission_phase_into`] appends per-packet completion
//! records for systems that track them (the shared-memory runners do; the
//! aggregate OPT surrogates fall back to the totals-only default).
//!
//! [`offer`]: WorkSystem::offer
//! [`flush`]: WorkSystem::flush
//! [`transmission_phase_into`]: WorkSystem::transmission_phase_into

use smbm_switch::{
    AdmitError, ArrivalOutcome, CombinedPacket, Counters, DropReason, Transmitted, ValuePacket,
    WorkPacket,
};

use crate::{
    CombinedPolicy, CombinedPqOpt, CombinedRunner, Decision, ValuePolicy, ValuePqOpt, ValueRunner,
    WorkPolicy, WorkPqOpt, WorkRunner,
};

/// Classifies a policy decision as an [`ArrivalOutcome`], distinguishing
/// drops forced by a full buffer from voluntary policy rejections.
fn classify(decision: Decision, was_full: bool) -> ArrivalOutcome {
    match decision {
        Decision::Accept => ArrivalOutcome::Admitted,
        Decision::PushOut(victim) => ArrivalOutcome::PushedOut(victim),
        Decision::Drop => ArrivalOutcome::Dropped(if was_full {
            DropReason::BufferFull
        } else {
            DropReason::Policy
        }),
    }
}

/// A system processing work-labelled packets slot by slot.
pub trait WorkSystem {
    /// Human-readable label for reports.
    fn label(&self) -> String;

    /// Presents one arrival during the current slot's arrival phase,
    /// reporting the packet's fate.
    ///
    /// # Errors
    ///
    /// Propagates an [`AdmitError`] from an inconsistent policy decision.
    fn offer(&mut self, pkt: WorkPacket) -> Result<ArrivalOutcome, AdmitError>;

    /// Runs the transmission phase; returns packets transmitted.
    fn transmission_phase(&mut self) -> u64;

    /// Like [`WorkSystem::transmission_phase`], additionally appending
    /// per-packet completion records to `out` when the system tracks them.
    /// The default ignores `out` (aggregate-only systems).
    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        let _ = out;
        self.transmission_phase()
    }

    /// Marks the end of the slot.
    fn end_slot(&mut self);

    /// Discards all buffered packets (simulation flushout); returns how many
    /// were discarded.
    fn flush(&mut self) -> u64;

    /// Packets transmitted since construction.
    fn transmitted(&self) -> u64;

    /// Packets currently buffered.
    fn occupancy(&self) -> usize;

    /// The configured shared buffer limit B. Defaults to 0 for systems
    /// without one (the aggregate OPT surrogates).
    fn buffer_limit(&self) -> usize {
        0
    }

    /// The configured output port count n. Defaults to 0 for systems
    /// without one.
    fn ports(&self) -> usize {
        0
    }

    /// Length of the longest output queue right now. Defaults to 0 for
    /// systems that do not track per-port queues.
    fn max_queue_depth(&self) -> usize {
        0
    }

    /// Snapshot of the switch's lifetime counters. Defaults to empty for
    /// systems that do not keep them.
    fn counters(&self) -> Counters {
        Counters::new()
    }
}

/// A `&mut` borrow drives the underlying system in place, so the engine can
/// run a caller-owned system through the same adapters the runtime uses
/// with owned ones.
impl<S: WorkSystem + ?Sized> WorkSystem for &mut S {
    fn label(&self) -> String {
        (**self).label()
    }

    fn offer(&mut self, pkt: WorkPacket) -> Result<ArrivalOutcome, AdmitError> {
        (**self).offer(pkt)
    }

    fn transmission_phase(&mut self) -> u64 {
        (**self).transmission_phase()
    }

    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        (**self).transmission_phase_into(out)
    }

    fn end_slot(&mut self) {
        (**self).end_slot();
    }

    fn flush(&mut self) -> u64 {
        (**self).flush()
    }

    fn transmitted(&self) -> u64 {
        (**self).transmitted()
    }

    fn occupancy(&self) -> usize {
        (**self).occupancy()
    }

    fn buffer_limit(&self) -> usize {
        (**self).buffer_limit()
    }

    fn ports(&self) -> usize {
        (**self).ports()
    }

    fn max_queue_depth(&self) -> usize {
        (**self).max_queue_depth()
    }

    fn counters(&self) -> Counters {
        (**self).counters()
    }
}

impl<P: WorkPolicy> WorkSystem for WorkRunner<P> {
    fn label(&self) -> String {
        self.policy().name().to_owned()
    }

    fn offer(&mut self, pkt: WorkPacket) -> Result<ArrivalOutcome, AdmitError> {
        let was_full = self.switch().is_full();
        Ok(classify(self.arrival(pkt)?, was_full))
    }

    fn transmission_phase(&mut self) -> u64 {
        self.transmission().transmitted
    }

    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        self.transmission_into(out).transmitted
    }

    fn end_slot(&mut self) {
        WorkRunner::end_slot(self);
    }

    fn flush(&mut self) -> u64 {
        WorkRunner::flush(self)
    }

    fn transmitted(&self) -> u64 {
        WorkRunner::transmitted(self)
    }

    fn occupancy(&self) -> usize {
        self.switch().occupancy()
    }

    fn buffer_limit(&self) -> usize {
        self.switch().buffer()
    }

    fn ports(&self) -> usize {
        self.switch().ports()
    }

    fn max_queue_depth(&self) -> usize {
        self.switch().max_queue_len()
    }

    fn counters(&self) -> Counters {
        *self.switch().counters()
    }
}

impl WorkSystem for WorkPqOpt {
    fn label(&self) -> String {
        format!("OPT(pq,{}cores)", self.cores())
    }

    fn offer(&mut self, pkt: WorkPacket) -> Result<ArrivalOutcome, AdmitError> {
        Ok(WorkPqOpt::offer(self, pkt))
    }

    fn transmission_phase(&mut self) -> u64 {
        WorkPqOpt::transmission(self)
    }

    fn end_slot(&mut self) {}

    fn flush(&mut self) -> u64 {
        WorkPqOpt::flush(self)
    }

    fn transmitted(&self) -> u64 {
        WorkPqOpt::transmitted(self)
    }

    fn occupancy(&self) -> usize {
        WorkPqOpt::occupancy(self)
    }
}

/// A system processing value-labelled packets slot by slot.
pub trait ValueSystem {
    /// Human-readable label for reports.
    fn label(&self) -> String;

    /// Presents one arrival during the current slot's arrival phase,
    /// reporting the packet's fate.
    ///
    /// # Errors
    ///
    /// Propagates an [`AdmitError`] from an inconsistent policy decision.
    fn offer(&mut self, pkt: ValuePacket) -> Result<ArrivalOutcome, AdmitError>;

    /// Runs the transmission phase; returns the value transmitted.
    fn transmission_phase(&mut self) -> u64;

    /// Like [`ValueSystem::transmission_phase`], additionally appending
    /// per-packet completion records to `out` when the system tracks them.
    /// The default ignores `out` (aggregate-only systems).
    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        let _ = out;
        self.transmission_phase()
    }

    /// Marks the end of the slot.
    fn end_slot(&mut self);

    /// Discards all buffered packets (simulation flushout); returns how many
    /// were discarded.
    fn flush(&mut self) -> u64;

    /// Total value transmitted since construction.
    fn transmitted_value(&self) -> u64;

    /// Packets currently buffered.
    fn occupancy(&self) -> usize;

    /// The configured shared buffer limit B. Defaults to 0 for systems
    /// without one (the aggregate OPT surrogates).
    fn buffer_limit(&self) -> usize {
        0
    }

    /// The configured output port count n. Defaults to 0 for systems
    /// without one.
    fn ports(&self) -> usize {
        0
    }

    /// Length of the longest output queue right now. Defaults to 0 for
    /// systems that do not track per-port queues.
    fn max_queue_depth(&self) -> usize {
        0
    }

    /// Snapshot of the switch's lifetime counters. Defaults to empty for
    /// systems that do not keep them.
    fn counters(&self) -> Counters {
        Counters::new()
    }
}

/// A `&mut` borrow drives the underlying system in place (see the
/// [`WorkSystem`] blanket impl).
impl<S: ValueSystem + ?Sized> ValueSystem for &mut S {
    fn label(&self) -> String {
        (**self).label()
    }

    fn offer(&mut self, pkt: ValuePacket) -> Result<ArrivalOutcome, AdmitError> {
        (**self).offer(pkt)
    }

    fn transmission_phase(&mut self) -> u64 {
        (**self).transmission_phase()
    }

    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        (**self).transmission_phase_into(out)
    }

    fn end_slot(&mut self) {
        (**self).end_slot();
    }

    fn flush(&mut self) -> u64 {
        (**self).flush()
    }

    fn transmitted_value(&self) -> u64 {
        (**self).transmitted_value()
    }

    fn occupancy(&self) -> usize {
        (**self).occupancy()
    }

    fn buffer_limit(&self) -> usize {
        (**self).buffer_limit()
    }

    fn ports(&self) -> usize {
        (**self).ports()
    }

    fn max_queue_depth(&self) -> usize {
        (**self).max_queue_depth()
    }

    fn counters(&self) -> Counters {
        (**self).counters()
    }
}

impl<P: ValuePolicy> ValueSystem for ValueRunner<P> {
    fn label(&self) -> String {
        self.policy().name().to_owned()
    }

    fn offer(&mut self, pkt: ValuePacket) -> Result<ArrivalOutcome, AdmitError> {
        let was_full = self.switch().is_full();
        Ok(classify(self.arrival(pkt)?, was_full))
    }

    fn transmission_phase(&mut self) -> u64 {
        self.transmission().value
    }

    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        self.transmission_into(out).value
    }

    fn end_slot(&mut self) {
        ValueRunner::end_slot(self);
    }

    fn flush(&mut self) -> u64 {
        ValueRunner::flush(self)
    }

    fn transmitted_value(&self) -> u64 {
        ValueRunner::transmitted_value(self)
    }

    fn occupancy(&self) -> usize {
        self.switch().occupancy()
    }

    fn buffer_limit(&self) -> usize {
        self.switch().buffer()
    }

    fn ports(&self) -> usize {
        self.switch().ports()
    }

    fn max_queue_depth(&self) -> usize {
        self.switch().max_queue_len()
    }

    fn counters(&self) -> Counters {
        *self.switch().counters()
    }
}

impl ValueSystem for ValuePqOpt {
    fn label(&self) -> String {
        format!("OPT(pq,{}cores)", self.cores())
    }

    fn offer(&mut self, pkt: ValuePacket) -> Result<ArrivalOutcome, AdmitError> {
        Ok(ValuePqOpt::offer(self, pkt))
    }

    fn transmission_phase(&mut self) -> u64 {
        ValuePqOpt::transmission(self)
    }

    fn end_slot(&mut self) {}

    fn flush(&mut self) -> u64 {
        ValuePqOpt::flush(self)
    }

    fn transmitted_value(&self) -> u64 {
        ValuePqOpt::transmitted_value(self)
    }

    fn occupancy(&self) -> usize {
        ValuePqOpt::occupancy(self)
    }
}

/// A system processing combined-model packets slot by slot (extension).
pub trait CombinedSystem {
    /// Human-readable label for reports.
    fn label(&self) -> String;

    /// Presents one arrival during the arrival phase, reporting the packet's
    /// fate.
    ///
    /// # Errors
    ///
    /// Propagates an [`AdmitError`] from an inconsistent policy decision.
    fn offer(&mut self, pkt: CombinedPacket) -> Result<ArrivalOutcome, AdmitError>;

    /// Runs the transmission phase; returns the value transmitted.
    fn transmission_phase(&mut self) -> u64;

    /// Like [`CombinedSystem::transmission_phase`], additionally appending
    /// per-packet completion records to `out` when the system tracks them.
    /// The default ignores `out` (aggregate-only systems).
    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        let _ = out;
        self.transmission_phase()
    }

    /// Marks the end of the slot.
    fn end_slot(&mut self);

    /// Discards all buffered packets; returns how many were discarded.
    fn flush(&mut self) -> u64;

    /// Total value transmitted since construction.
    fn transmitted_value(&self) -> u64;

    /// Packets currently buffered.
    fn occupancy(&self) -> usize;

    /// The configured shared buffer limit B. Defaults to 0 for systems
    /// without one (the aggregate OPT surrogates).
    fn buffer_limit(&self) -> usize {
        0
    }

    /// The configured output port count n. Defaults to 0 for systems
    /// without one.
    fn ports(&self) -> usize {
        0
    }

    /// Length of the longest output queue right now. Defaults to 0 for
    /// systems that do not track per-port queues.
    fn max_queue_depth(&self) -> usize {
        0
    }

    /// Snapshot of the switch's lifetime counters. Defaults to empty for
    /// systems that do not keep them.
    fn counters(&self) -> Counters {
        Counters::new()
    }
}

/// A `&mut` borrow drives the underlying system in place (see the
/// [`WorkSystem`] blanket impl).
impl<S: CombinedSystem + ?Sized> CombinedSystem for &mut S {
    fn label(&self) -> String {
        (**self).label()
    }

    fn offer(&mut self, pkt: CombinedPacket) -> Result<ArrivalOutcome, AdmitError> {
        (**self).offer(pkt)
    }

    fn transmission_phase(&mut self) -> u64 {
        (**self).transmission_phase()
    }

    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        (**self).transmission_phase_into(out)
    }

    fn end_slot(&mut self) {
        (**self).end_slot();
    }

    fn flush(&mut self) -> u64 {
        (**self).flush()
    }

    fn transmitted_value(&self) -> u64 {
        (**self).transmitted_value()
    }

    fn occupancy(&self) -> usize {
        (**self).occupancy()
    }

    fn buffer_limit(&self) -> usize {
        (**self).buffer_limit()
    }

    fn ports(&self) -> usize {
        (**self).ports()
    }

    fn max_queue_depth(&self) -> usize {
        (**self).max_queue_depth()
    }

    fn counters(&self) -> Counters {
        (**self).counters()
    }
}

impl<P: CombinedPolicy> CombinedSystem for CombinedRunner<P> {
    fn label(&self) -> String {
        self.policy().name().to_owned()
    }

    fn offer(&mut self, pkt: CombinedPacket) -> Result<ArrivalOutcome, AdmitError> {
        let was_full = self.switch().is_full();
        Ok(classify(self.arrival(pkt)?, was_full))
    }

    fn transmission_phase(&mut self) -> u64 {
        self.transmission().value
    }

    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        self.transmission_into(out).value
    }

    fn end_slot(&mut self) {
        CombinedRunner::end_slot(self);
    }

    fn flush(&mut self) -> u64 {
        CombinedRunner::flush(self)
    }

    fn transmitted_value(&self) -> u64 {
        CombinedRunner::transmitted_value(self)
    }

    fn occupancy(&self) -> usize {
        self.switch().occupancy()
    }

    fn buffer_limit(&self) -> usize {
        self.switch().buffer()
    }

    fn ports(&self) -> usize {
        self.switch().ports()
    }

    fn max_queue_depth(&self) -> usize {
        self.switch().max_queue_len()
    }

    fn counters(&self) -> Counters {
        *self.switch().counters()
    }
}

impl CombinedSystem for CombinedPqOpt {
    fn label(&self) -> String {
        format!("OPT(density,{}cores)", self.cores())
    }

    fn offer(&mut self, pkt: CombinedPacket) -> Result<ArrivalOutcome, AdmitError> {
        Ok(CombinedPqOpt::offer(self, pkt))
    }

    fn transmission_phase(&mut self) -> u64 {
        CombinedPqOpt::transmission(self)
    }

    fn end_slot(&mut self) {}

    fn flush(&mut self) -> u64 {
        CombinedPqOpt::flush(self)
    }

    fn transmitted_value(&self) -> u64 {
        CombinedPqOpt::transmitted_value(self)
    }

    fn occupancy(&self) -> usize {
        CombinedPqOpt::occupancy(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GreedyValue, Lwd};
    use smbm_switch::{PortId, Value, ValueSwitchConfig, Work, WorkSwitchConfig};

    #[test]
    fn runner_and_opt_share_the_work_interface() {
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        let mut systems: Vec<Box<dyn WorkSystem>> = vec![
            Box::new(WorkRunner::new(cfg, Lwd::new(), 1)),
            Box::new(WorkPqOpt::new(4, 2)),
        ];
        for sys in systems.iter_mut() {
            let outcome = sys
                .offer(WorkPacket::new(PortId::new(0), Work::new(1)))
                .unwrap();
            assert_eq!(outcome, ArrivalOutcome::Admitted, "{}", sys.label());
            let sent = sys.transmission_phase();
            sys.end_slot();
            assert_eq!(sent, 1, "{}", sys.label());
            assert_eq!(sys.transmitted(), 1);
            assert_eq!(sys.occupancy(), 0);
        }
    }

    #[test]
    fn runner_and_opt_share_the_value_interface() {
        let cfg = ValueSwitchConfig::new(4, 2).unwrap();
        let mut systems: Vec<Box<dyn ValueSystem>> = vec![
            Box::new(ValueRunner::new(cfg, GreedyValue::new(), 1)),
            Box::new(ValuePqOpt::new(4, 2)),
        ];
        for sys in systems.iter_mut() {
            sys.offer(ValuePacket::new(PortId::new(1), Value::new(7)))
                .unwrap();
            assert_eq!(sys.transmission_phase(), 7, "{}", sys.label());
            sys.end_slot();
            assert_eq!(sys.transmitted_value(), 7);
        }
    }

    #[test]
    fn flush_via_trait_objects() {
        let cfg = WorkSwitchConfig::contiguous(1, 2).unwrap();
        let mut sys: Box<dyn WorkSystem> = Box::new(WorkRunner::new(cfg, Lwd::new(), 1));
        sys.offer(WorkPacket::new(PortId::new(0), Work::new(1)))
            .unwrap();
        assert_eq!(sys.flush(), 1);
        assert_eq!(sys.occupancy(), 0);
    }

    #[test]
    fn runner_distinguishes_drop_reasons() {
        // Buffer 1: the first packet is admitted, the second is rejected
        // because the buffer is full (LWD on a single saturated queue keeps
        // the incumbent when the arrival is not smaller).
        let cfg = WorkSwitchConfig::contiguous(1, 1).unwrap();
        let mut sys = WorkRunner::new(cfg, Lwd::new(), 1);
        let pkt = sys.switch().packet_for(PortId::new(0));
        assert_eq!(
            WorkSystem::offer(&mut sys, pkt).unwrap(),
            ArrivalOutcome::Admitted
        );
        let outcome = WorkSystem::offer(&mut sys, pkt).unwrap();
        assert_eq!(
            outcome,
            ArrivalOutcome::Dropped(DropReason::BufferFull),
            "a drop with the buffer at capacity is a buffer-full drop"
        );
    }

    #[test]
    fn transmission_phase_into_reports_completions() {
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        let mut sys = WorkRunner::new(cfg, Lwd::new(), 1);
        WorkSystem::offer(&mut sys, WorkPacket::new(PortId::new(0), Work::new(1))).unwrap();
        let mut out = Vec::new();
        let sent = WorkSystem::transmission_phase_into(&mut sys, &mut out);
        assert_eq!(sent, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].port, PortId::new(0));

        // The aggregate OPT surrogate leaves `out` untouched.
        let mut opt = WorkPqOpt::new(4, 2);
        WorkSystem::offer(&mut opt, WorkPacket::new(PortId::new(0), Work::new(1))).unwrap();
        out.clear();
        assert_eq!(WorkSystem::transmission_phase_into(&mut opt, &mut out), 1);
        assert!(out.is_empty());
    }

    #[test]
    fn mut_borrow_offers_match_owned_offers() {
        let cfg = WorkSwitchConfig::contiguous(1, 2).unwrap();
        let mut owned = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
        let mut target = WorkRunner::new(cfg, Lwd::new(), 1);
        let mut borrowed = &mut target;
        for _ in 0..4 {
            let p = WorkPacket::new(PortId::new(0), Work::new(1));
            assert_eq!(
                WorkSystem::offer(&mut borrowed, p),
                WorkSystem::offer(&mut owned, p)
            );
        }
        assert_eq!(owned.switch().occupancy(), target.switch().occupancy());
    }

    #[test]
    fn labels_are_informative() {
        let opt = WorkPqOpt::new(2, 3);
        assert_eq!(WorkSystem::label(&opt), "OPT(pq,3cores)");
    }
}
