//! Buffer-management policies for the heterogeneous-value model
//! (Section IV of the paper).

mod capped;
mod greedy;
mod lqd;
mod mrd;
mod mrd_strict;
mod mvd;
mod nest;
mod nhst;

pub use capped::CappedValue;
pub use greedy::GreedyValue;
pub use lqd::LqdValue;
pub use mrd::Mrd;
pub use mrd_strict::MrdStrict;
pub use mvd::Mvd;
pub use nest::NestValue;
pub use nhst::NhstValue;

use smbm_switch::{AdmitError, PhaseReport, Transmitted, ValuePacket, ValueSwitch};

use crate::decision::check_port;
use crate::Decision;

/// An online buffer-management policy for the heterogeneous-value model.
///
/// The push-out decision names a victim queue; the [`ValueRunner`] evicts
/// that queue's *minimal-value* packet (queues are priority queues). Naming
/// the destination queue itself realises the virtual-add semantics described
/// in DESIGN.md: the arrival is inserted and the queue minimum (possibly the
/// arrival) leaves.
pub trait ValuePolicy: std::fmt::Debug + Send {
    /// Short human-readable identifier, e.g. `"MRD"`.
    fn name(&self) -> &str;

    /// Decides the fate of `pkt` given the switch state.
    fn decide(&mut self, switch: &ValueSwitch, pkt: ValuePacket) -> Decision;

    /// Invoked when the simulator flushes the buffer.
    fn on_flush(&mut self) {}

    /// Whether the runner should report queue-change events (see
    /// [`ValuePolicy::queues_changed`]) on a switch with `ports` ports.
    /// Defaults to `false` so scan-based policies pay nothing.
    fn wants_queue_events(&self, ports: usize) -> bool {
        let _ = ports;
        false
    }

    /// Notifies the policy that `port`'s queue changed since the last
    /// decision, so incremental indices (see [`crate::ScoreIndex`]) can
    /// refresh that port's score. Only called when
    /// [`ValuePolicy::wants_queue_events`] returns `true`.
    fn queue_changed(&mut self, switch: &ValueSwitch, port: smbm_switch::PortId) {
        let _ = (switch, port);
    }

    /// Batch form of [`ValuePolicy::queue_changed`]: one call per sync with
    /// every port that changed since the last decision, letting indexed
    /// policies rebuild in O(n) when most ports are dirty (the
    /// post-transmission storm) instead of n point updates. Runners skip the
    /// call when no port changed.
    fn queues_changed(&mut self, switch: &ValueSwitch, ports: &[smbm_switch::PortId]) {
        for &port in ports {
            self.queue_changed(switch, port);
        }
    }
}

impl<P: ValuePolicy + ?Sized> ValuePolicy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn decide(&mut self, switch: &ValueSwitch, pkt: ValuePacket) -> Decision {
        (**self).decide(switch, pkt)
    }

    fn on_flush(&mut self) {
        (**self).on_flush()
    }

    fn wants_queue_events(&self, ports: usize) -> bool {
        (**self).wants_queue_events(ports)
    }

    fn queue_changed(&mut self, switch: &ValueSwitch, port: smbm_switch::PortId) {
        (**self).queue_changed(switch, port)
    }

    fn queues_changed(&mut self, switch: &ValueSwitch, ports: &[smbm_switch::PortId]) {
        (**self).queues_changed(switch, ports)
    }
}

/// Binds a [`ValuePolicy`] to a [`ValueSwitch`] and a speedup.
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
#[derive(Debug)]
pub struct ValueRunner<P> {
    switch: ValueSwitch,
    policy: P,
    speedup: u32,
    dirty_scratch: Vec<smbm_switch::PortId>,
}

impl<P: ValuePolicy> ValueRunner<P> {
    /// Creates a runner over a fresh switch.
    pub fn new(config: smbm_switch::ValueSwitchConfig, policy: P, speedup: u32) -> Self {
        ValueRunner {
            switch: ValueSwitch::new(config),
            policy,
            speedup,
            dirty_scratch: Vec::new(),
        }
    }

    /// The underlying switch (read-only).
    pub fn switch(&self) -> &ValueSwitch {
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
    /// # Errors
    ///
    /// Fails with [`AdmitError::UnknownPort`] before the policy runs if the
    /// packet's port does not exist. Otherwise propagates [`AdmitError`] if
    /// the decision was inconsistent with the switch state. The bundled
    /// policies never err.
    pub fn arrival(&mut self, pkt: ValuePacket) -> Result<Decision, AdmitError> {
        check_port(pkt.port(), self.switch.ports())?;
        // Sync incremental indices only when victim selection can run (full
        // buffer); see `WorkRunner::arrival`.
        if self.switch.is_full()
            && self.switch.has_dirty_ports()
            && self.policy.wants_queue_events(self.switch.ports())
        {
            self.switch.drain_dirty_into(&mut self.dirty_scratch);
            self.policy
                .queues_changed(&self.switch, &self.dirty_scratch);
        }
        let decision = self.policy.decide(&self.switch, pkt);
        match decision {
            Decision::Accept => self.switch.admit(pkt)?,
            Decision::Drop => self.switch.reject(pkt)?,
            Decision::PushOut(victim) => {
                self.switch.push_out_and_admit(victim, pkt)?;
            }
        }
        Ok(decision)
    }

    /// Runs the transmission phase at the configured speedup.
    pub fn transmission(&mut self) -> PhaseReport {
        self.switch.transmit(self.speedup)
    }

    /// Like [`ValueRunner::transmission`], appending per-packet completion
    /// details to `out`.
    pub fn transmission_into(&mut self, out: &mut Vec<Transmitted>) -> PhaseReport {
        self.switch.transmit_into(self.speedup, out)
    }

    /// Ends the slot (advances the switch clock).
    pub fn end_slot(&mut self) {
        self.switch.advance_slot();
    }

    /// Flushes the buffer and notifies the policy.
    pub fn flush(&mut self) -> u64 {
        self.policy.on_flush();
        self.switch.flush()
    }

    /// Total value transmitted so far (the model's objective).
    pub fn transmitted_value(&self) -> u64 {
        self.switch.counters().transmitted_value()
    }
}

/// Names of all bundled value-model policies, in presentation order.
pub const VALUE_POLICY_NAMES: &[&str] =
    &["GREEDY", "NEST-V", "NHST-V", "LQD", "MVD", "MVD1", "MRD"];

/// Instantiates a bundled value-model policy by name (case-insensitive).
///
/// Returns `None` for unknown names. See [`VALUE_POLICY_NAMES`].
pub fn value_policy_by_name(name: &str) -> Option<Box<dyn ValuePolicy>> {
    match name.to_ascii_uppercase().as_str() {
        "GREEDY" => Some(Box::new(GreedyValue::new())),
        "NEST-V" | "NEST" => Some(Box::new(NestValue::new())),
        "NHST-V" | "NHST" => Some(Box::new(NhstValue::new())),
        "LQD" => Some(Box::new(LqdValue::new())),
        "MVD" => Some(Box::new(Mvd::new())),
        "MVD1" => Some(Box::new(Mvd::sparing_singletons())),
        "MRD" => Some(Box::new(Mrd::new())),
        // Extension beyond the paper's roster (see DESIGN.md):
        "MRD-STRICT" => Some(Box::new(MrdStrict::new())),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smbm_switch::{PortId, Value, ValueSwitchConfig};

    #[test]
    fn registry_knows_every_listed_policy() {
        for name in VALUE_POLICY_NAMES {
            let p = value_policy_by_name(name).unwrap_or_else(|| panic!("registry missing {name}"));
            assert_eq!(p.name(), *name);
        }
    }

    #[test]
    fn registry_rejects_unknown() {
        assert!(value_policy_by_name("LWD").is_none()); // work-model policy
    }

    #[test]
    fn runner_counts_value() {
        let cfg = ValueSwitchConfig::new(4, 2).unwrap();
        let mut r = ValueRunner::new(cfg, GreedyValue::new(), 1);
        r.arrival(ValuePacket::new(PortId::new(0), Value::new(5)))
            .unwrap();
        r.arrival(ValuePacket::new(PortId::new(1), Value::new(3)))
            .unwrap();
        let report = r.transmission();
        assert_eq!(report.value, 8);
        assert_eq!(r.transmitted_value(), 8);
        r.switch().check_invariants().unwrap();
    }

    #[test]
    fn boxed_policy_delegates() {
        let boxed: Box<dyn ValuePolicy> = Box::new(Mrd::new());
        let cfg = ValueSwitchConfig::new(4, 2).unwrap();
        let mut r = ValueRunner::new(cfg, boxed, 1);
        assert_eq!(r.policy().name(), "MRD");
        r.arrival(ValuePacket::new(PortId::new(0), Value::new(1)))
            .unwrap();
        assert_eq!(r.switch().occupancy(), 1);
    }
}
