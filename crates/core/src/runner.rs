//! The one policy interface and the runner that applies its decisions to a
//! [`Switch`], for every packet model.

use std::fmt;

use smbm_switch::{
    AdmitError, ArrivalOutcome, CombinedQueue, PhaseReport, PortId, QueueDiscipline, Switch,
    Transmitted, Value, ValueQueue, WorkQueue,
};

use crate::Decision;

/// An online buffer-management policy for switches whose queues follow the
/// discipline `Q`.
///
/// A policy observes the current switch state (read-only) and one arriving
/// packet, and returns a [`Decision`]; the [`Runner`] applies it. A push-out
/// names a victim queue, and the discipline picks the evicted packet: the
/// tail of a FIFO, the minimal value of a priority queue. Naming the
/// destination queue itself realises the virtual-add semantics described in
/// DESIGN.md. The trait takes `&mut self` so a policy can keep caches (such
/// as an incremental score index), but the decision itself must be a function
/// of the switch state and the packet: see [`Policy::decide`].
pub trait Policy<Q: QueueDiscipline>: fmt::Debug + Send {
    /// Short human-readable identifier, e.g. `"LWD"`.
    fn name(&self) -> &str;

    /// Decides the fate of `pkt` given the switch state.
    ///
    /// The decision must be a function of `(switch, pkt)` alone — all the
    /// algorithms in the paper are. Where a valid packet is fully determined
    /// by its port ([`QueueDiscipline::PORT_DETERMINES_PACKET`]), the
    /// [`Runner`] relies on it: once a port's arrival is dropped, it drops
    /// that port's later arrivals without asking again until
    /// [`Switch::version`] moves.
    fn decide(&mut self, switch: &Switch<Q>, pkt: Q::Packet) -> Decision;

    /// Invoked when the simulator flushes the buffer, so a policy can reset
    /// internal state. Such state may only cache what the switch state
    /// already determines (see [`Policy::decide`]); the bundled policies
    /// keep nothing but their score indices.
    fn on_flush(&mut self) {}

    /// Whether the runner should report queue-change events (see
    /// [`Policy::queues_changed`]) on a switch with `ports` ports.
    /// Defaults to `false` so scan-based policies pay nothing.
    fn wants_queue_events(&self, ports: usize) -> bool {
        let _ = ports;
        false
    }

    /// Notifies the policy that the queues of `ports` changed since the last
    /// decision, so an incremental index (such as the push-out policies'
    /// score index) can refresh those ports' scores: one call per sync,
    /// letting indexed policies rebuild in O(n) when most ports are dirty
    /// (the post-transmission storm) instead of n point updates. Only called
    /// when [`Policy::wants_queue_events`] returns `true`, and skipped when
    /// no port changed.
    fn queues_changed(&mut self, switch: &Switch<Q>, ports: &[PortId]) {
        let _ = (switch, ports);
    }
}

impl<Q: QueueDiscipline, P: Policy<Q> + ?Sized> Policy<Q> for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn decide(&mut self, switch: &Switch<Q>, pkt: Q::Packet) -> Decision {
        (**self).decide(switch, pkt)
    }

    fn on_flush(&mut self) {
        (**self).on_flush()
    }

    fn wants_queue_events(&self, ports: usize) -> bool {
        (**self).wants_queue_events(ports)
    }

    fn queues_changed(&mut self, switch: &Switch<Q>, ports: &[PortId]) {
        (**self).queues_changed(switch, ports)
    }
}

/// A [`Policy`] for the heterogeneous-processing model (Section III); the
/// registry's trait-object type.
pub trait WorkPolicy: Policy<WorkQueue> {}
impl<P: Policy<WorkQueue> + ?Sized> WorkPolicy for P {}

/// A [`Policy`] for the heterogeneous-value model (Section IV); the
/// registry's trait-object type.
pub trait ValuePolicy: Policy<ValueQueue> {}
impl<P: Policy<ValueQueue> + ?Sized> ValuePolicy for P {}

/// A [`Policy`] for the combined model; the registry's trait-object type.
pub trait CombinedPolicy: Policy<CombinedQueue> {}
impl<P: Policy<CombinedQueue> + ?Sized> CombinedPolicy for P {}

/// Binds a [`Policy`] to a [`Switch`] and a speedup, exposing the two-phase
/// slot operations the simulation engine drives.
///
/// ```
/// use smbm_core::{Lwd, WorkRunner};
/// use smbm_switch::{PortId, WorkSwitchConfig};
///
/// let cfg = WorkSwitchConfig::contiguous(3, 6)?;
/// let mut runner = WorkRunner::new(cfg, Lwd::new(), 1);
/// runner.arrival_to(PortId::new(2))?; // policy decides, runner applies
/// runner.transmission();
/// runner.end_slot();
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Runner<Q: QueueDiscipline, P> {
    switch: Switch<Q>,
    policy: P,
    speedup: u32,
    dirty_scratch: Vec<PortId>,
    /// Per port, the switch version at which the policy last dropped an
    /// arrival to it (`u64::MAX` = never). Empty unless
    /// [`QueueDiscipline::PORT_DETERMINES_PACKET`].
    drop_stamps: Vec<u64>,
}

/// A runner over the heterogeneous-processing switch.
pub type WorkRunner<P> = Runner<WorkQueue, P>;

/// A runner over the heterogeneous-value switch.
///
/// ```
/// use smbm_core::{Mrd, ValueRunner};
/// use smbm_switch::{PortId, Value, ValuePacket, ValueSwitchConfig};
///
/// let mut runner = ValueRunner::new(ValueSwitchConfig::new(4, 2)?, Mrd::new(), 1);
/// runner.arrival(ValuePacket::new(PortId::new(0), Value::new(6)))?;
/// assert_eq!(runner.transmission().value, 6);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub type ValueRunner<P> = Runner<ValueQueue, P>;

/// A runner over the combined-model switch.
pub type CombinedRunner<P> = Runner<CombinedQueue, P>;

impl<Q: QueueDiscipline, P: Policy<Q>> Runner<Q, P> {
    /// Creates a runner over a fresh switch.
    pub fn new(config: Q::Config, policy: P, speedup: u32) -> Self {
        let switch = Switch::new(config);
        let stamped = if Q::PORT_DETERMINES_PACKET {
            switch.ports()
        } else {
            0
        };
        Runner {
            drop_stamps: vec![u64::MAX; stamped],
            switch,
            policy,
            speedup,
            dirty_scratch: Vec::new(),
        }
    }

    /// The underlying switch (read-only).
    pub fn switch(&self) -> &Switch<Q> {
        &self.switch
    }

    /// The bound policy.
    pub fn policy(&self) -> &P {
        &self.policy
    }

    /// Speedup `C` used in the transmission phase.
    pub fn speedup(&self) -> u32 {
        self.speedup
    }

    /// Presents one arriving packet to the policy and applies its decision.
    ///
    /// Where a valid packet is fully determined by its port
    /// ([`QueueDiscipline::PORT_DETERMINES_PACKET`]) and a decision is a
    /// function of the switch state and the packet (see
    /// [`Policy::decide`]), an arrival to a port whose last arrival the
    /// policy dropped, with [`Switch::version`] unmoved since, goes straight
    /// to [`Switch::reject`] without a decision: the counters and the
    /// returned [`Decision::Drop`] are exactly what the policy would have
    /// produced.
    ///
    /// # Errors
    ///
    /// Fails with [`AdmitError::UnknownPort`] before the policy runs if the
    /// packet's port does not exist. Otherwise propagates [`AdmitError`] if
    /// the packet is invalid or the policy's decision was inconsistent with
    /// the switch state (accepting into a full buffer, pushing out from an
    /// empty queue, ...). The bundled policies never err.
    pub fn arrival(&mut self, pkt: Q::Packet) -> Result<Decision, AdmitError> {
        Ok(match self.arrive(pkt)? {
            ArrivalOutcome::Admitted => Decision::Accept,
            ArrivalOutcome::PushedOut(victim) => Decision::PushOut(victim),
            ArrivalOutcome::Dropped(_) => Decision::Drop,
        })
    }

    /// [`Runner::arrival`], resolved to the packet's outcome: a drop carries
    /// the reason [`Switch::reject`] gave it.
    #[inline]
    pub(crate) fn arrive(&mut self, pkt: Q::Packet) -> Result<ArrivalOutcome, AdmitError> {
        let port = Q::port(pkt);
        let ports = self.known_port(port)?;
        let version = self.switch.version();
        if Q::PORT_DETERMINES_PACKET && self.drop_stamps[port.index()] == version {
            return Ok(ArrivalOutcome::Dropped(self.switch.reject(pkt)?));
        }
        // Queue-change events are only consumed by victim selection, which
        // only runs on a full buffer — so let dirt accumulate (deduplicated,
        // bounded by n) while there is free space and sync just before a
        // decision that can push out. A drop changes no queue, so a run of
        // drops into a full buffer finds nothing dirty and skips the sync.
        if self.switch.is_full()
            && self.switch.has_dirty_ports()
            && self.policy.wants_queue_events(ports)
        {
            self.switch.drain_dirty_into(&mut self.dirty_scratch);
            self.policy
                .queues_changed(&self.switch, &self.dirty_scratch);
        }
        Ok(match self.policy.decide(&self.switch, pkt) {
            Decision::Accept => {
                self.switch.admit(pkt)?;
                ArrivalOutcome::Admitted
            }
            Decision::Drop => {
                let reason = self.switch.reject(pkt)?;
                // Stamp only a valid packet: an invalid one's verdict says
                // nothing about the port's real arrivals.
                if Q::PORT_DETERMINES_PACKET {
                    self.drop_stamps[port.index()] = version;
                }
                ArrivalOutcome::Dropped(reason)
            }
            Decision::PushOut(victim) => {
                self.switch.push_out_and_admit(victim, pkt)?;
                ArrivalOutcome::PushedOut(victim)
            }
        })
    }

    /// The switch's port count, or [`AdmitError::UnknownPort`] if `port` is
    /// not below it: policies index their queues by the arrival's port.
    #[inline]
    fn known_port(&self, port: PortId) -> Result<usize, AdmitError> {
        let ports = self.switch.ports();
        if port.index() < ports {
            Ok(ports)
        } else {
            Err(AdmitError::UnknownPort { port, ports })
        }
    }

    /// Runs the transmission phase at the configured speedup.
    pub fn transmission(&mut self) -> PhaseReport {
        self.switch.transmit(self.speedup)
    }

    /// Like [`Runner::transmission`], appending per-packet completion
    /// details to `out`.
    pub fn transmission_into(&mut self, out: &mut Vec<Transmitted>) -> PhaseReport {
        self.switch.transmit_into(self.speedup, out)
    }

    /// Ends the slot (advances the switch clock).
    pub fn end_slot(&mut self) {
        self.switch.advance_slot();
    }

    /// Flushes the buffer (simulation "flushout") and notifies the policy.
    pub fn flush(&mut self) -> u64 {
        self.policy.on_flush();
        self.switch.flush()
    }

    /// Packets transmitted so far (the work model's objective).
    pub fn transmitted(&self) -> u64 {
        self.switch.counters().transmitted()
    }

    /// Total value transmitted so far (the valued models' objective).
    pub fn transmitted_value(&self) -> u64 {
        self.switch.counters().transmitted_value()
    }
}

impl<P: Policy<WorkQueue>> Runner<WorkQueue, P> {
    /// Like [`Runner::arrival`], building the packet with the work label
    /// its destination port requires.
    ///
    /// # Errors
    ///
    /// Same as [`Runner::arrival`]: an unknown port fails with
    /// [`AdmitError::UnknownPort`] before any label is looked up.
    pub fn arrival_to(&mut self, port: PortId) -> Result<Decision, AdmitError> {
        self.known_port(port)?;
        let pkt = WorkQueue::packet(self.switch.config(), port, Value::ONE);
        self.arrival(pkt)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;
    use std::sync::{Arc, Mutex};

    use super::*;
    use crate::{combined_policy_by_name, value_policy_by_name, work_policy_by_name};
    use smbm_switch::{
        CombinedPacket, Value, ValuePacket, ValueSwitchConfig, Work, WorkPacket, WorkSwitchConfig,
    };

    /// One model under the contract suite: how to configure its switch and
    /// build a packet for any port (valid labels, even for unknown ports).
    trait Model: QueueDiscipline {
        /// `ports` ports (works `1..=ports` where the model has work) and a
        /// buffer of `buffer` slots.
        fn config(ports: usize, buffer: usize) -> Self::Config;
        /// A packet for `port` worth `value` (always 1 in the work model).
        fn pkt(port: usize, value: u64) -> Self::Packet;
    }

    impl Model for WorkQueue {
        fn config(ports: usize, buffer: usize) -> WorkSwitchConfig {
            WorkSwitchConfig::contiguous(ports as u32, buffer).unwrap()
        }
        fn pkt(port: usize, _: u64) -> WorkPacket {
            WorkPacket::new(PortId::new(port), Work::new(port as u32 + 1))
        }
    }

    impl Model for ValueQueue {
        fn config(ports: usize, buffer: usize) -> ValueSwitchConfig {
            ValueSwitchConfig::new(buffer, ports).unwrap()
        }
        fn pkt(port: usize, value: u64) -> ValuePacket {
            ValuePacket::new(PortId::new(port), Value::new(value))
        }
    }

    impl Model for CombinedQueue {
        fn config(ports: usize, buffer: usize) -> WorkSwitchConfig {
            WorkSwitchConfig::contiguous(ports as u32, buffer).unwrap()
        }
        fn pkt(port: usize, value: u64) -> CombinedPacket {
            let work = Work::new(port as u32 + 1);
            CombinedPacket::new(PortId::new(port), work, Value::new(value))
        }
    }

    /// Every call the runner made into a [`Probe`].
    #[derive(Debug, Default)]
    struct Log {
        decided: usize,
        flushed: usize,
        /// One entry per `queues_changed` call.
        synced: Vec<Vec<PortId>>,
    }

    /// A policy that plays back a script of decisions (then accepts while
    /// space remains and drops on a full buffer), logging every call.
    #[derive(Debug)]
    struct Probe {
        script: VecDeque<Decision>,
        log: Arc<Mutex<Log>>,
    }

    fn probe(script: &[Decision]) -> (Probe, Arc<Mutex<Log>>) {
        let log = Arc::new(Mutex::new(Log::default()));
        let probe = Probe {
            script: script.iter().copied().collect(),
            log: Arc::clone(&log),
        };
        (probe, log)
    }

    impl<Q: QueueDiscipline> Policy<Q> for Probe {
        fn name(&self) -> &str {
            "PROBE"
        }

        fn decide(&mut self, switch: &Switch<Q>, _: Q::Packet) -> Decision {
            self.log.lock().unwrap().decided += 1;
            self.script.pop_front().unwrap_or(if switch.is_full() {
                Decision::Drop
            } else {
                Decision::Accept
            })
        }

        fn on_flush(&mut self) {
            self.log.lock().unwrap().flushed += 1;
        }

        fn wants_queue_events(&self, _: usize) -> bool {
            true
        }

        fn queues_changed(&mut self, _: &Switch<Q>, ports: &[PortId]) {
            let mut ports = ports.to_vec();
            ports.sort();
            self.log.lock().unwrap().synced.push(ports);
        }
    }

    fn decisions_are_applied_and_counted<M: Model>() {
        let script = [
            Decision::Accept,
            Decision::Accept,
            Decision::Drop,
            Decision::PushOut(PortId::new(1)),
        ];
        let (policy, log) = probe(&script);
        let mut r = Runner::<M, _>::new(M::config(2, 2), policy, 1);
        let arrivals = [M::pkt(0, 5), M::pkt(1, 3), M::pkt(1, 1), M::pkt(0, 9)];
        for (pkt, want) in arrivals.into_iter().zip(script) {
            assert_eq!(r.arrival(pkt).unwrap(), want);
        }
        assert_eq!(log.lock().unwrap().decided, 4);
        let c = *r.switch().counters();
        assert_eq!(
            (c.arrived(), c.admitted(), c.dropped(), c.pushed_out()),
            (4, 3, 1, 1)
        );
        assert_eq!(r.switch().queue(PortId::new(0)).packets(), 2);
        // Port 0 serves one packet per slot at speedup 1.
        for sent in 1..=2 {
            assert_eq!(r.transmission().transmitted, 1);
            r.end_slot();
            assert_eq!(r.transmitted(), sent);
        }
        let value = M::value(M::pkt(0, 5)).get() + M::value(M::pkt(0, 9)).get();
        assert_eq!(r.transmitted_value(), value);
        r.switch().check_invariants().unwrap();
    }

    fn flush_notifies_the_policy_once_and_empties_the_buffer<M: Model>() {
        let (policy, log) = probe(&[]);
        let mut r = Runner::<M, _>::new(M::config(2, 4), policy, 1);
        for v in 1..=3 {
            r.arrival(M::pkt(1, v)).unwrap();
        }
        assert_eq!(r.flush(), 3);
        assert_eq!(r.switch().occupancy(), 0);
        assert_eq!(log.lock().unwrap().flushed, 1);
        r.switch().check_invariants().unwrap();
    }

    fn boxed_policy_delegates<M: Model>() {
        let (policy, log) = probe(&[]);
        let boxed: Box<dyn Policy<M>> = Box::new(policy);
        let mut r = Runner::new(M::config(2, 2), boxed, 1);
        assert_eq!(r.policy().name(), "PROBE");
        r.arrival(M::pkt(0, 4)).unwrap();
        r.arrival(M::pkt(1, 2)).unwrap();
        assert_eq!(r.switch().occupancy(), 2);
        assert!(log.lock().unwrap().synced.is_empty(), "synced with space");
        // The full buffer makes the runner sync both dirty ports in one
        // batch before the third decision.
        assert_eq!(r.arrival(M::pkt(0, 1)).unwrap(), Decision::Drop);
        let (p0, p1) = (PortId::new(0), PortId::new(1));
        {
            let log = log.lock().unwrap();
            assert_eq!(log.decided, 3);
            assert_eq!(log.synced, vec![vec![p0, p1]]);
        }
        r.flush();
        assert_eq!(log.lock().unwrap().flushed, 1);
        // A direct batch call is delegated as is.
        let (policy, log) = probe(&[]);
        let mut boxed: Box<dyn Policy<M>> = Box::new(policy);
        boxed.queues_changed(r.switch(), &[p1]);
        assert_eq!(log.lock().unwrap().synced, vec![vec![p1]]);
    }

    fn speedup_is_honoured<M: Model>() {
        let mut r = Runner::<M, _>::new(M::config(2, 8), probe(&[]).0, 2);
        assert_eq!(r.speedup(), 2);
        for v in 1..=3 {
            r.arrival(M::pkt(0, v)).unwrap();
        }
        r.arrival(M::pkt(1, 4)).unwrap();
        // Two cycles per port: two unit packets on port 0 and the one
        // packet of port 1 (at most two cycles) complete; speedup 1 would
        // complete at most two in all.
        assert_eq!(r.transmission().transmitted, 3);
        assert_eq!(r.switch().occupancy(), 1);
    }

    fn unknown_ports_are_refused_before_decide_runs<M: Model>() {
        let (policy, log) = probe(&[]);
        let mut r = Runner::<M, _>::new(M::config(2, 2), policy, 1);
        for fill in [M::pkt(0, 1), M::pkt(1, 1)] {
            let before = *r.switch().counters();
            let err = r.arrival(M::pkt(5, 1)).unwrap_err();
            assert!(matches!(err, AdmitError::UnknownPort { ports: 2, .. }));
            assert_eq!(*r.switch().counters(), before);
            r.arrival(fill).unwrap();
        }
        // Also refused on a full buffer, before any queue-event sync.
        assert!(r.switch().is_full());
        assert!(r.arrival(M::pkt(5, 1)).is_err());
        let log = log.lock().unwrap();
        assert_eq!(log.decided, 2);
        assert!(log.synced.is_empty());
    }

    /// Instantiates every contract test above for one model.
    macro_rules! contract_suite {
        ($($model:ident => $queue:ty),* $(,)?) => {$(
            mod $model {
                use super::*;
                #[test]
                fn decisions_are_applied_and_counted() {
                    super::decisions_are_applied_and_counted::<$queue>();
                }
                #[test]
                fn flush_notifies_the_policy_once_and_empties_the_buffer() {
                    super::flush_notifies_the_policy_once_and_empties_the_buffer::<$queue>();
                }
                #[test]
                fn boxed_policy_delegates() {
                    super::boxed_policy_delegates::<$queue>();
                }
                #[test]
                fn speedup_is_honoured() {
                    super::speedup_is_honoured::<$queue>();
                }
                #[test]
                fn unknown_ports_are_refused_before_decide_runs() {
                    super::unknown_ports_are_refused_before_decide_runs::<$queue>();
                }
            }
        )*};
    }

    contract_suite! {
        work_contract => WorkQueue,
        value_contract => ValueQueue,
        combined_contract => CombinedQueue,
    }

    /// Fills a two-slot buffer on port 1, then offers port 0 a low-value
    /// arrival the script drops and a high-value one it pushes in. Returns
    /// the runner, the second verdict and the decisions the policy made.
    fn drop_then_push_in<M: Model>() -> (Runner<M, Probe>, Decision, usize) {
        let script = [
            Decision::Accept,
            Decision::Accept,
            Decision::Drop,
            Decision::PushOut(PortId::new(1)),
        ];
        let (policy, log) = probe(&script);
        let mut r = Runner::<M, _>::new(M::config(2, 2), policy, 1);
        r.arrival(M::pkt(1, 1)).unwrap();
        r.arrival(M::pkt(1, 1)).unwrap();
        let version = r.switch().version();
        assert_eq!(r.arrival(M::pkt(0, 1)).unwrap(), Decision::Drop);
        assert_eq!(r.switch().version(), version, "a drop moved the switch");
        let verdict = r.arrival(M::pkt(0, 9)).unwrap();
        let decided = log.lock().unwrap().decided;
        (r, verdict, decided)
    }

    /// In the valued models a port's next arrival may be worth more than
    /// the one just dropped, so it must reach the policy.
    fn a_valuable_arrival_after_a_drop_still_reaches_decide<M: Model>() {
        let (r, verdict, decided) = drop_then_push_in::<M>();
        assert_eq!(decided, 4);
        assert_eq!(verdict, Decision::PushOut(PortId::new(1)));
        assert_eq!(r.switch().queue(PortId::new(0)).packets(), 1);
        r.switch().check_invariants().unwrap();
    }

    #[test]
    fn value_runner_asks_again_after_a_drop() {
        a_valuable_arrival_after_a_drop_still_reaches_decide::<ValueQueue>();
    }

    #[test]
    fn combined_runner_asks_again_after_a_drop() {
        a_valuable_arrival_after_a_drop_still_reaches_decide::<CombinedQueue>();
    }

    /// In the work model the same port's next arrival is the same packet,
    /// so the memo drops it without asking while the switch stands still.
    #[test]
    fn work_runner_memoises_a_drop_until_the_switch_moves() {
        let (mut r, verdict, decided) = drop_then_push_in::<WorkQueue>();
        assert_eq!(decided, 3);
        assert_eq!(verdict, Decision::Drop);
        assert_eq!(r.switch().counters().dropped(), 2);
        r.end_slot();
        // The clock moved: the scripted push-out is asked for and applied.
        assert_eq!(
            r.arrival_to(PortId::new(0)).unwrap(),
            Decision::PushOut(PortId::new(1))
        );
        r.switch().check_invariants().unwrap();
    }

    /// `arrival_to` looks the port's work label up only after the port
    /// check, so an unknown port is an error, not an out-of-bounds panic.
    #[test]
    fn arrival_to_an_unknown_port_is_refused() {
        let (policy, log) = probe(&[]);
        let mut r = Runner::<WorkQueue, _>::new(WorkQueue::config(2, 2), policy, 1);
        let before = *r.switch().counters();
        assert_eq!(
            r.arrival_to(PortId::new(5)),
            Err(AdmitError::UnknownPort {
                port: PortId::new(5),
                ports: 2
            })
        );
        assert_eq!(*r.switch().counters(), before);
        assert_eq!(log.lock().unwrap().decided, 0);
    }

    #[test]
    fn registry_trait_objects_drive_runners() {
        let mut work = WorkRunner::new(
            WorkSwitchConfig::contiguous(2, 2).unwrap(),
            work_policy_by_name("lwd").unwrap(),
            1,
        );
        assert_eq!(work.policy().name(), "LWD");
        work.arrival_to(PortId::new(0)).unwrap();
        assert_eq!(work.switch().occupancy(), 1);
        let mut value = ValueRunner::new(
            ValueSwitchConfig::new(4, 2).unwrap(),
            value_policy_by_name("mrd").unwrap(),
            1,
        );
        assert_eq!(value.policy().name(), "MRD");
        value.arrival(ValueQueue::pkt(0, 1)).unwrap();
        assert_eq!(value.switch().occupancy(), 1);
        let mut combined = CombinedRunner::new(
            WorkSwitchConfig::contiguous(2, 4).unwrap(),
            combined_policy_by_name("wvd").unwrap(),
            1,
        );
        assert_eq!(combined.policy().name(), "WVD");
        combined.arrival(CombinedQueue::pkt(0, 5)).unwrap();
        assert_eq!(combined.switch().occupancy(), 1);
    }
}
