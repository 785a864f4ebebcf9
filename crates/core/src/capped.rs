//! The non-push-out baselines shared by every packet model.
//!
//! The lower-bound proofs of Sections III and IV describe what OPT admits on
//! each adversarial trace: a fixed quota per queue (e.g., "one packet of each
//! large class, fill the rest with `1`s"). [`Capped`] turns such a quota
//! vector into an executable policy, letting the benchmark harness *run* the
//! proof's OPT inside the same switch model instead of trusting a closed
//! form. [`Greedy`] (accept whenever there is space) is the cap-free special
//! case and the natural baseline of every model.

use smbm_switch::{PortId, QueueDiscipline, Switch};

use crate::{Decision, Policy};

/// **Greedy** — accept whenever the buffer has free space, never push out.
///
/// Section IV dismisses non-push-out policies: filling the buffer with `1`s
/// and then sending `k`s shows any such greedy policy is at least
/// `k`-competitive. It completes every model's roster as the natural
/// baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct Greedy {
    _priv: (),
}

impl Greedy {
    /// Creates the policy.
    pub fn new() -> Self {
        Greedy { _priv: () }
    }
}

impl<Q: QueueDiscipline> Policy<Q> for Greedy {
    fn name(&self) -> &str {
        "GREEDY"
    }

    fn decide(&mut self, switch: &Switch<Q>, _pkt: Q::Packet) -> Decision {
        if switch.is_full() {
            Decision::Drop
        } else {
            Decision::Accept
        }
    }
}

/// Non-push-out policy that accepts a packet for port `i` iff the buffer has
/// space and `|Q_i|` is below a fixed per-port cap. Used to script the OPT
/// side of the paper's lower-bound constructions.
///
/// ```
/// use smbm_core::{Capped, Decision, WorkRunner};
/// use smbm_switch::{PortId, WorkSwitchConfig};
///
/// let cfg = WorkSwitchConfig::contiguous(2, 4)?;
/// let mut r = WorkRunner::new(cfg, Capped::new(vec![1, 3]), 1);
/// assert_eq!(r.arrival_to(PortId::new(0))?, Decision::Accept);
/// assert_eq!(r.arrival_to(PortId::new(0))?, Decision::Drop); // cap 1 reached
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Capped {
    caps: Vec<usize>,
}

impl Capped {
    /// Creates the policy with `caps[i]` bounding queue `i`; ports past the
    /// end of `caps` are capped at 0.
    pub fn new(caps: Vec<usize>) -> Self {
        Capped { caps }
    }

    /// The configured caps.
    pub fn caps(&self) -> &[usize] {
        &self.caps
    }

    fn cap(&self, port: PortId) -> usize {
        self.caps.get(port.index()).copied().unwrap_or(0)
    }
}

impl<Q: QueueDiscipline> Policy<Q> for Capped {
    fn name(&self) -> &str {
        "OPT-script"
    }

    fn decide(&mut self, switch: &Switch<Q>, pkt: Q::Packet) -> Decision {
        let port = Q::port(pkt);
        if switch.is_full() || switch.queue(port).packets() >= self.cap(port) {
            Decision::Drop
        } else {
            Decision::Accept
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CombinedRunner, ValueRunner, WorkRunner};
    use smbm_switch::{
        CombinedPacket, Value, ValuePacket, ValueSwitchConfig, WorkQueue, WorkSwitchConfig,
    };

    fn value_pkt(port: usize, v: u64) -> ValuePacket {
        ValuePacket::new(PortId::new(port), Value::new(v))
    }

    #[test]
    fn caps_bound_each_work_queue() {
        let cfg = WorkSwitchConfig::contiguous(3, 10).unwrap();
        let mut r = WorkRunner::new(cfg, Capped::new(vec![2, 0, 3]), 1);
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
    fn caps_bound_each_value_queue() {
        let cfg = ValueSwitchConfig::new(10, 3).unwrap();
        let mut r = ValueRunner::new(cfg, Capped::new(vec![1, 2, 0]), 1);
        assert!(r.arrival(value_pkt(0, 5)).unwrap().admits());
        assert_eq!(r.arrival(value_pkt(0, 5)).unwrap(), Decision::Drop);
        assert!(r.arrival(value_pkt(1, 5)).unwrap().admits());
        assert!(r.arrival(value_pkt(1, 5)).unwrap().admits());
        assert_eq!(r.arrival(value_pkt(1, 5)).unwrap(), Decision::Drop);
        assert_eq!(r.arrival(value_pkt(2, 5)).unwrap(), Decision::Drop);
    }

    #[test]
    fn missing_cap_entries_default_to_zero() {
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        let mut r = WorkRunner::new(cfg, Capped::new(vec![1]), 1);
        assert!(r.arrival_to(PortId::new(0)).unwrap().admits());
        assert_eq!(r.arrival_to(PortId::new(1)).unwrap(), Decision::Drop);
        assert_eq!(r.policy().caps(), &[1]);
    }

    #[test]
    fn caps_respect_buffer_capacity() {
        let cfg = WorkSwitchConfig::contiguous(2, 2).unwrap();
        let mut r = WorkRunner::new(cfg, Capped::new(vec![5, 5]), 1);
        assert!(r.arrival_to(PortId::new(0)).unwrap().admits());
        assert!(r.arrival_to(PortId::new(1)).unwrap().admits());
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Drop);
    }

    #[test]
    fn capped_work_queue_reopens_after_drain() {
        let cfg = WorkSwitchConfig::contiguous(1, 4).unwrap();
        let mut r = WorkRunner::new(cfg, Capped::new(vec![1]), 1);
        assert!(r.arrival_to(PortId::new(0)).unwrap().admits());
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Drop);
        r.transmission();
        r.end_slot();
        assert!(r.arrival_to(PortId::new(0)).unwrap().admits());
    }

    #[test]
    fn capped_value_queue_reopens_after_transmission() {
        let cfg = ValueSwitchConfig::new(4, 1).unwrap();
        let mut r = ValueRunner::new(cfg, Capped::new(vec![1]), 1);
        assert!(r.arrival(value_pkt(0, 5)).unwrap().admits());
        assert_eq!(r.arrival(value_pkt(0, 7)).unwrap(), Decision::Drop);
        r.transmission();
        r.end_slot();
        assert!(r.arrival(value_pkt(0, 7)).unwrap().admits());
        assert_eq!(r.policy().caps(), &[1]);
    }

    #[test]
    fn greedy_accepts_work_until_full() {
        let cfg = WorkSwitchConfig::contiguous(2, 3).unwrap();
        let mut r = WorkRunner::new(cfg, Greedy::new(), 1);
        for _ in 0..3 {
            assert!(r.arrival_to(PortId::new(1)).unwrap().admits());
        }
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Drop);
        assert_eq!(r.switch().counters().pushed_out(), 0);
    }

    #[test]
    fn greedy_accepts_values_until_full_then_drops() {
        let cfg = ValueSwitchConfig::new(2, 2).unwrap();
        let mut r = ValueRunner::new(cfg, Greedy::new(), 1);
        assert_eq!(r.arrival(value_pkt(0, 1)).unwrap(), Decision::Accept);
        assert_eq!(r.arrival(value_pkt(1, 1)).unwrap(), Decision::Accept);
        // Even a much more valuable packet is dropped: no push-out.
        assert_eq!(r.arrival(value_pkt(0, 100)).unwrap(), Decision::Drop);
        assert_eq!(r.switch().counters().pushed_out(), 0);
    }

    #[test]
    fn greedy_k_competitive_weakness_scenario() {
        // Fill with 1s, then offer ks: greedy keeps the 1s.
        let cfg = ValueSwitchConfig::new(4, 2).unwrap();
        let mut r = ValueRunner::new(cfg, Greedy::new(), 1);
        for _ in 0..4 {
            r.arrival(value_pkt(0, 1)).unwrap();
        }
        for _ in 0..4 {
            assert_eq!(r.arrival(value_pkt(1, 50)).unwrap(), Decision::Drop);
        }
        assert_eq!(r.switch().total_value(), 4);
    }

    #[test]
    fn greedy_accepts_combined_until_full() {
        let c = WorkSwitchConfig::contiguous(2, 2).unwrap();
        let mut r = CombinedRunner::new(c.clone(), Greedy::new(), 1);
        let pkt = |port: usize, v: u64| {
            let p = PortId::new(port);
            CombinedPacket::new(p, c.work(p), Value::new(v))
        };
        assert!(r.arrival(pkt(0, 1)).unwrap().admits());
        assert!(r.arrival(pkt(1, 1)).unwrap().admits());
        assert_eq!(r.arrival(pkt(0, 99)).unwrap(), Decision::Drop);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            Policy::<WorkQueue>::name(&Capped::new(vec![])),
            "OPT-script"
        );
        assert_eq!(Policy::<WorkQueue>::name(&Greedy::new()), "GREEDY");
        assert_eq!(
            Policy::<smbm_switch::ValueQueue>::name(&Capped::new(vec![])),
            "OPT-script"
        );
        assert_eq!(
            Policy::<smbm_switch::ValueQueue>::name(&Greedy::new()),
            "GREEDY"
        );
    }
}
