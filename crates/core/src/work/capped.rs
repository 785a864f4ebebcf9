//! Scripted admission policies with static per-queue caps.
//!
//! The lower-bound proofs of Sections III and IV describe what OPT admits on
//! each adversarial trace: a fixed quota per queue (e.g., "one packet of each
//! large class, fill the rest with `1`s"). [`CappedWork`] turns such a quota
//! vector into an executable policy, letting the benchmark harness *run* the
//! proof's OPT inside the same switch model instead of trusting a closed
//! form. [`GreedyWork`] (accept whenever there is space) is the cap-free
//! special case and the natural work-model baseline.

use smbm_switch::{PortId, WorkPacket, WorkQueue, WorkSwitch};

use crate::{Decision, Policy};

/// Non-push-out policy that accepts a packet for port `i` iff the buffer has
/// space and `|Q_i|` is below a fixed per-port cap. Used to script the OPT
/// side of the paper's lower-bound constructions.
///
/// ```
/// use smbm_core::{CappedWork, Decision, WorkRunner};
/// use smbm_switch::{PortId, WorkSwitchConfig};
///
/// let cfg = WorkSwitchConfig::contiguous(2, 4)?;
/// let mut r = WorkRunner::new(cfg, CappedWork::new(vec![1, 3]), 1);
/// assert_eq!(r.arrival_to(PortId::new(0))?, Decision::Accept);
/// assert_eq!(r.arrival_to(PortId::new(0))?, Decision::Drop); // cap 1 reached
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CappedWork {
    caps: Vec<usize>,
}

impl CappedWork {
    /// Creates the policy with `caps[i]` bounding queue `i`.
    pub fn new(caps: Vec<usize>) -> Self {
        CappedWork { caps }
    }

    /// The configured caps.
    pub fn caps(&self) -> &[usize] {
        &self.caps
    }

    fn cap(&self, port: PortId) -> usize {
        self.caps.get(port.index()).copied().unwrap_or(0)
    }
}

impl Policy<WorkQueue> for CappedWork {
    fn name(&self) -> &str {
        "OPT-script"
    }

    fn decide(&mut self, switch: &WorkSwitch, pkt: WorkPacket) -> Decision {
        if switch.is_full() || switch.queue(pkt.port()).len() >= self.cap(pkt.port()) {
            Decision::Drop
        } else {
            Decision::Accept
        }
    }
}

/// The cap-free greedy baseline: accept whenever the buffer has space, never
/// push out. In a single-queue setting this is `k`-competitive; it completes
/// the policy roster for the benches.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyWork {
    _priv: (),
}

impl GreedyWork {
    /// Creates the policy.
    pub fn new() -> Self {
        GreedyWork { _priv: () }
    }
}

impl Policy<WorkQueue> for GreedyWork {
    fn name(&self) -> &str {
        "GREEDY"
    }

    fn decide(&mut self, switch: &WorkSwitch, _pkt: WorkPacket) -> Decision {
        if switch.is_full() {
            Decision::Drop
        } else {
            Decision::Accept
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkRunner;
    use smbm_switch::WorkSwitchConfig;

    #[test]
    fn caps_bound_each_queue() {
        let cfg = WorkSwitchConfig::contiguous(3, 10).unwrap();
        let mut r = WorkRunner::new(cfg, CappedWork::new(vec![2, 0, 3]), 1);
        for _ in 0..2 {
            assert!(r.arrival_to(PortId::new(0)).unwrap().admits());
        }
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Drop);
        assert_eq!(r.arrival_to(PortId::new(1)).unwrap(), Decision::Drop);
        for _ in 0..3 {
            assert!(r.arrival_to(PortId::new(2)).unwrap().admits());
        }
        assert_eq!(r.arrival_to(PortId::new(2)).unwrap(), Decision::Drop);
    }

    #[test]
    fn missing_cap_entries_default_to_zero() {
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        let mut r = WorkRunner::new(cfg, CappedWork::new(vec![1]), 1);
        assert!(r.arrival_to(PortId::new(0)).unwrap().admits());
        assert_eq!(r.arrival_to(PortId::new(1)).unwrap(), Decision::Drop);
        assert_eq!(r.policy().caps(), &[1]);
    }

    #[test]
    fn caps_respect_buffer_capacity() {
        let cfg = WorkSwitchConfig::contiguous(2, 2).unwrap();
        let mut r = WorkRunner::new(cfg, CappedWork::new(vec![5, 5]), 1);
        assert!(r.arrival_to(PortId::new(0)).unwrap().admits());
        assert!(r.arrival_to(PortId::new(1)).unwrap().admits());
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Drop);
    }

    #[test]
    fn capped_queue_reopens_after_drain() {
        let cfg = WorkSwitchConfig::contiguous(1, 4).unwrap();
        let mut r = WorkRunner::new(cfg, CappedWork::new(vec![1]), 1);
        assert!(r.arrival_to(PortId::new(0)).unwrap().admits());
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Drop);
        r.transmission();
        r.end_slot();
        assert!(r.arrival_to(PortId::new(0)).unwrap().admits());
    }

    #[test]
    fn greedy_accepts_until_full() {
        let cfg = WorkSwitchConfig::contiguous(2, 3).unwrap();
        let mut r = WorkRunner::new(cfg, GreedyWork::new(), 1);
        for _ in 0..3 {
            assert!(r.arrival_to(PortId::new(1)).unwrap().admits());
        }
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Drop);
        assert_eq!(r.switch().counters().pushed_out(), 0);
    }

    #[test]
    fn names() {
        assert_eq!(CappedWork::new(vec![]).name(), "OPT-script");
        assert_eq!(GreedyWork::new().name(), "GREEDY");
    }
}
