//! Buffer-management policies for the heterogeneous-processing model
//! (Section III of the paper).

mod alpha;
mod bpd;
mod capped;
mod lqd;
mod lwd;
mod nest;
mod nhdt;
mod nhdt_w;
mod nhst;

pub use alpha::AlphaWd;
pub use bpd::Bpd;
pub use capped::{CappedWork, GreedyWork};
pub use lqd::Lqd;
pub use lwd::{Lwd, LwdTieBreak};
pub use nest::Nest;
pub use nhdt::{harmonic, Nhdt};
pub use nhdt_w::NhdtW;
pub use nhst::Nhst;

use smbm_switch::{AdmitError, PhaseReport, Transmitted, WorkPacket, WorkSwitch};

use crate::decision::check_port;
use crate::Decision;

/// An online buffer-management policy for the heterogeneous-processing model.
///
/// A policy observes the current switch state (read-only) and one arriving
/// packet, and returns a [`Decision`]; the [`WorkRunner`] applies it. The
/// trait takes `&mut self` so a policy can keep caches (such as a
/// [`crate::ScoreIndex`]), but the decision itself must be a function of the
/// switch state and the packet: see [`WorkPolicy::decide`].
pub trait WorkPolicy: std::fmt::Debug + Send {
    /// Short human-readable identifier, e.g. `"LWD"`.
    fn name(&self) -> &str;

    /// Decides the fate of `pkt` given the switch state.
    ///
    /// The decision must be a function of `(switch, pkt)` alone — all the
    /// algorithms in the paper are. The [`WorkRunner`] relies on it: once a
    /// port's arrival is dropped, it drops that port's later arrivals
    /// without asking again until [`WorkSwitch::version`] moves.
    fn decide(&mut self, switch: &WorkSwitch, pkt: WorkPacket) -> Decision;

    /// Invoked when the simulator flushes the buffer, so a policy can reset
    /// internal state. Such state may only cache what the switch state
    /// already determines (see [`WorkPolicy::decide`]); the bundled
    /// policies keep nothing but their score indices.
    fn on_flush(&mut self) {}

    /// Whether the runner should report queue-change events (see
    /// [`WorkPolicy::queues_changed`]) on a switch with `ports` ports.
    /// Defaults to `false` so scan-based policies pay nothing.
    fn wants_queue_events(&self, ports: usize) -> bool {
        let _ = ports;
        false
    }

    /// Notifies the policy that `port`'s queue changed since the last
    /// decision, so incremental indices (see [`crate::ScoreIndex`]) can
    /// refresh that port's score. Only called when
    /// [`WorkPolicy::wants_queue_events`] returns `true`.
    fn queue_changed(&mut self, switch: &WorkSwitch, port: smbm_switch::PortId) {
        let _ = (switch, port);
    }

    /// Batch form of [`WorkPolicy::queue_changed`]: one call per sync with
    /// every port that changed since the last decision, letting indexed
    /// policies rebuild in O(n) when most ports are dirty (the
    /// post-transmission storm) instead of n point updates. Runners skip the
    /// call when no port changed.
    fn queues_changed(&mut self, switch: &WorkSwitch, ports: &[smbm_switch::PortId]) {
        for &port in ports {
            self.queue_changed(switch, port);
        }
    }
}

impl<P: WorkPolicy + ?Sized> WorkPolicy for Box<P> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn decide(&mut self, switch: &WorkSwitch, pkt: WorkPacket) -> Decision {
        (**self).decide(switch, pkt)
    }

    fn on_flush(&mut self) {
        (**self).on_flush()
    }

    fn wants_queue_events(&self, ports: usize) -> bool {
        (**self).wants_queue_events(ports)
    }

    fn queue_changed(&mut self, switch: &WorkSwitch, port: smbm_switch::PortId) {
        (**self).queue_changed(switch, port)
    }

    fn queues_changed(&mut self, switch: &WorkSwitch, ports: &[smbm_switch::PortId]) {
        (**self).queues_changed(switch, ports)
    }
}

/// Binds a [`WorkPolicy`] to a [`WorkSwitch`] and a speedup, exposing the
/// two-phase slot operations the simulation engine drives.
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
pub struct WorkRunner<P> {
    switch: WorkSwitch,
    policy: P,
    speedup: u32,
    dirty_scratch: Vec<smbm_switch::PortId>,
    /// Per port, the switch version at which the policy last dropped an
    /// arrival to it (`u64::MAX` = never).
    drop_stamps: Vec<u64>,
}

impl<P: WorkPolicy> WorkRunner<P> {
    /// Creates a runner over a fresh switch.
    pub fn new(config: smbm_switch::WorkSwitchConfig, policy: P, speedup: u32) -> Self {
        WorkRunner {
            drop_stamps: vec![u64::MAX; config.ports()],
            switch: WorkSwitch::new(config),
            policy,
            speedup,
            dirty_scratch: Vec::new(),
        }
    }

    /// The underlying switch (read-only).
    pub fn switch(&self) -> &WorkSwitch {
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
    /// A valid packet is fully determined by its port, and a decision is a
    /// function of the switch state and the packet (see
    /// [`WorkPolicy::decide`]). So when the policy dropped an arrival to the
    /// same port and [`WorkSwitch::version`] has not moved since, the packet
    /// goes straight to [`WorkSwitch::reject`] without a decision: the
    /// counters and the returned [`Decision::Drop`] are exactly what the
    /// policy would have produced.
    ///
    /// # Errors
    ///
    /// Fails with [`AdmitError::UnknownPort`] before the policy runs if the
    /// packet's port does not exist. Otherwise propagates [`AdmitError`] if
    /// the packet is invalid or the policy's decision was inconsistent with
    /// the switch state (accepting into a full buffer, pushing out from an
    /// empty queue, ...). The bundled policies never err.
    pub fn arrival(&mut self, pkt: WorkPacket) -> Result<Decision, AdmitError> {
        check_port(pkt.port(), self.switch.ports())?;
        let port = pkt.port().index();
        let version = self.switch.version();
        if self.drop_stamps[port] == version {
            self.switch.reject(pkt)?;
            return Ok(Decision::Drop);
        }
        // Queue-change events are only consumed by victim selection, which
        // only runs on a full buffer — so let dirt accumulate (deduplicated,
        // bounded by n) while there is free space and sync just before a
        // decision that can push out. A drop changes no queue, so a run of
        // drops into a full buffer finds nothing dirty and skips the sync.
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
            Decision::Drop => {
                // Stamp only a valid packet: an invalid one's verdict says
                // nothing about the port's real arrivals.
                self.switch.reject(pkt)?;
                self.drop_stamps[port] = version;
            }
            Decision::PushOut(victim) => {
                self.switch.push_out_and_admit(victim, pkt)?;
            }
        }
        Ok(decision)
    }

    /// Like [`WorkRunner::arrival`], building the packet with the work label
    /// its destination port requires.
    ///
    /// # Errors
    ///
    /// Same as [`WorkRunner::arrival`].
    pub fn arrival_to(&mut self, port: smbm_switch::PortId) -> Result<Decision, AdmitError> {
        let pkt = self.switch.packet_for(port);
        self.arrival(pkt)
    }

    /// Runs the transmission phase at the configured speedup.
    pub fn transmission(&mut self) -> PhaseReport {
        self.switch.transmit(self.speedup)
    }

    /// Like [`WorkRunner::transmission`], appending per-packet completion
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

    /// Packets transmitted so far.
    pub fn transmitted(&self) -> u64 {
        self.switch.counters().transmitted()
    }
}

/// Names of all bundled work-model policies, in presentation order.
pub const WORK_POLICY_NAMES: &[&str] = &["NHST", "NEST", "NHDT", "LQD", "BPD", "BPD1", "LWD"];

/// Instantiates a bundled work-model policy by name (case-insensitive).
///
/// Returns `None` for unknown names. See [`WORK_POLICY_NAMES`].
///
/// ```
/// use smbm_core::work_policy_by_name;
/// assert!(work_policy_by_name("lwd").is_some());
/// assert!(work_policy_by_name("nope").is_none());
/// ```
pub fn work_policy_by_name(name: &str) -> Option<Box<dyn WorkPolicy>> {
    match name.to_ascii_uppercase().as_str() {
        "NHST" => Some(Box::new(Nhst::new())),
        "NEST" => Some(Box::new(Nest::new())),
        "NHDT" => Some(Box::new(Nhdt::new())),
        "LQD" => Some(Box::new(Lqd::new())),
        "BPD" => Some(Box::new(Bpd::new())),
        "BPD1" => Some(Box::new(Bpd::sparing_singletons())),
        "LWD" => Some(Box::new(Lwd::new())),
        // Extensions beyond the paper's roster (see DESIGN.md):
        "GREEDY" => Some(Box::new(GreedyWork::new())),
        "NHDT-W" => Some(Box::new(NhdtW::new())),
        "LWD-MAXLEN" => Some(Box::new(Lwd::with_tie_break(LwdTieBreak::MaxLen))),
        "LWD-MINWORK" => Some(Box::new(Lwd::with_tie_break(LwdTieBreak::MinWork))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smbm_switch::WorkSwitchConfig;

    #[test]
    fn registry_knows_every_listed_policy() {
        for name in WORK_POLICY_NAMES {
            let p = work_policy_by_name(name).unwrap_or_else(|| panic!("registry missing {name}"));
            assert_eq!(p.name(), *name);
        }
    }

    #[test]
    fn registry_is_case_insensitive() {
        assert_eq!(work_policy_by_name("lwd").unwrap().name(), "LWD");
        assert_eq!(work_policy_by_name("Bpd1").unwrap().name(), "BPD1");
    }

    #[test]
    fn registry_rejects_unknown() {
        assert!(work_policy_by_name("MRD").is_none()); // value-model policy
    }

    #[test]
    fn runner_applies_decisions_and_counts() {
        let cfg = WorkSwitchConfig::contiguous(2, 2).unwrap();
        let mut r = WorkRunner::new(cfg, Lwd::new(), 1);
        r.arrival_to(smbm_switch::PortId::new(0)).unwrap();
        r.arrival_to(smbm_switch::PortId::new(0)).unwrap();
        assert!(r.switch().is_full());
        r.transmission();
        r.end_slot();
        assert_eq!(r.transmitted(), 1);
        r.switch().check_invariants().unwrap();
    }

    #[test]
    fn runner_flush_clears_buffer() {
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        let mut r = WorkRunner::new(cfg, Lqd::new(), 1);
        for _ in 0..4 {
            r.arrival_to(smbm_switch::PortId::new(1)).unwrap();
        }
        assert_eq!(r.flush(), 4);
        assert_eq!(r.switch().occupancy(), 0);
    }

    #[test]
    fn boxed_policy_delegates() {
        let cfg = WorkSwitchConfig::contiguous(2, 2).unwrap();
        let boxed: Box<dyn WorkPolicy> = Box::new(Lwd::new());
        let mut r = WorkRunner::new(cfg, boxed, 1);
        assert_eq!(r.policy().name(), "LWD");
        r.arrival_to(smbm_switch::PortId::new(0)).unwrap();
        assert_eq!(r.switch().occupancy(), 1);
    }
}
