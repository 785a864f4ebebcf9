//! Scripted value-model admission with static per-queue caps.
//!
//! Value-model counterpart of [`crate::CappedWork`]: executes the admission
//! quotas that the Section IV lower-bound proofs prescribe for OPT.

use smbm_switch::{PortId, ValuePacket, ValueQueue, ValueSwitch};

use crate::{Decision, Policy};

/// Non-push-out policy that accepts a packet for port `i` iff the buffer has
/// space and `|Q_i|` is below a fixed per-port cap.
///
/// ```
/// use smbm_core::{CappedValue, Decision, ValueRunner};
/// use smbm_switch::{PortId, Value, ValuePacket, ValueSwitchConfig};
///
/// let cfg = ValueSwitchConfig::new(4, 2)?;
/// let mut r = ValueRunner::new(cfg, CappedValue::new(vec![0, 2]), 1);
/// assert_eq!(r.arrival(ValuePacket::new(PortId::new(0), Value::new(9)))?, Decision::Drop);
/// assert_eq!(r.arrival(ValuePacket::new(PortId::new(1), Value::new(1)))?, Decision::Accept);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct CappedValue {
    caps: Vec<usize>,
}

impl CappedValue {
    /// Creates the policy with `caps[i]` bounding queue `i`.
    pub fn new(caps: Vec<usize>) -> Self {
        CappedValue { caps }
    }

    /// The configured caps.
    pub fn caps(&self) -> &[usize] {
        &self.caps
    }

    fn cap(&self, port: PortId) -> usize {
        self.caps.get(port.index()).copied().unwrap_or(0)
    }
}

impl Policy<ValueQueue> for CappedValue {
    fn name(&self) -> &str {
        "OPT-script"
    }

    fn decide(&mut self, switch: &ValueSwitch, pkt: ValuePacket) -> Decision {
        if switch.is_full() || switch.queue(pkt.port()).len() >= self.cap(pkt.port()) {
            Decision::Drop
        } else {
            Decision::Accept
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ValueRunner;
    use smbm_switch::{Value, ValueSwitchConfig};

    fn pkt(port: usize, v: u64) -> ValuePacket {
        ValuePacket::new(PortId::new(port), Value::new(v))
    }

    #[test]
    fn caps_bound_each_queue() {
        let cfg = ValueSwitchConfig::new(10, 3).unwrap();
        let mut r = ValueRunner::new(cfg, CappedValue::new(vec![1, 2, 0]), 1);
        assert!(r.arrival(pkt(0, 5)).unwrap().admits());
        assert_eq!(r.arrival(pkt(0, 5)).unwrap(), Decision::Drop);
        assert!(r.arrival(pkt(1, 5)).unwrap().admits());
        assert!(r.arrival(pkt(1, 5)).unwrap().admits());
        assert_eq!(r.arrival(pkt(1, 5)).unwrap(), Decision::Drop);
        assert_eq!(r.arrival(pkt(2, 5)).unwrap(), Decision::Drop);
    }

    #[test]
    fn reopens_after_transmission() {
        let cfg = ValueSwitchConfig::new(4, 1).unwrap();
        let mut r = ValueRunner::new(cfg, CappedValue::new(vec![1]), 1);
        assert!(r.arrival(pkt(0, 5)).unwrap().admits());
        assert_eq!(r.arrival(pkt(0, 7)).unwrap(), Decision::Drop);
        r.transmission();
        r.end_slot();
        assert!(r.arrival(pkt(0, 7)).unwrap().admits());
        assert_eq!(r.policy().caps(), &[1]);
    }

    #[test]
    fn name() {
        assert_eq!(CappedValue::new(vec![]).name(), "OPT-script");
    }
}
