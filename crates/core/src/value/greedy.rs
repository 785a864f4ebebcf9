//! Greedy non-push-out admission in the value model.

use smbm_switch::{ValuePacket, ValueQueue, ValueSwitch};

use crate::{Decision, Policy};

/// **Greedy** — accept whenever the buffer has free space, never push out.
///
/// Section IV dismisses non-push-out policies: filling the buffer with `1`s
/// and then sending `k`s shows any such greedy policy is at least
/// `k`-competitive. Included as the natural baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyValue {
    _priv: (),
}

impl GreedyValue {
    /// Creates the policy.
    pub fn new() -> Self {
        GreedyValue { _priv: () }
    }
}

impl Policy<ValueQueue> for GreedyValue {
    fn name(&self) -> &str {
        "GREEDY"
    }

    fn decide(&mut self, switch: &ValueSwitch, _pkt: ValuePacket) -> Decision {
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
    use crate::ValueRunner;
    use smbm_switch::{PortId, Value, ValueSwitchConfig};

    fn pkt(port: usize, v: u64) -> ValuePacket {
        ValuePacket::new(PortId::new(port), Value::new(v))
    }

    #[test]
    fn accepts_until_full_then_drops() {
        let cfg = ValueSwitchConfig::new(2, 2).unwrap();
        let mut r = ValueRunner::new(cfg, GreedyValue::new(), 1);
        assert_eq!(r.arrival(pkt(0, 1)).unwrap(), Decision::Accept);
        assert_eq!(r.arrival(pkt(1, 1)).unwrap(), Decision::Accept);
        // Even a much more valuable packet is dropped: no push-out.
        assert_eq!(r.arrival(pkt(0, 100)).unwrap(), Decision::Drop);
        assert_eq!(r.switch().counters().pushed_out(), 0);
    }

    #[test]
    fn k_competitive_weakness_scenario() {
        // Fill with 1s, then offer ks: greedy keeps the 1s.
        let cfg = ValueSwitchConfig::new(4, 2).unwrap();
        let mut r = ValueRunner::new(cfg, GreedyValue::new(), 1);
        for _ in 0..4 {
            r.arrival(pkt(0, 1)).unwrap();
        }
        for _ in 0..4 {
            assert_eq!(r.arrival(pkt(1, 50)).unwrap(), Decision::Drop);
        }
        assert_eq!(r.switch().total_value(), 4);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(GreedyValue::new().name(), "GREEDY");
    }
}
