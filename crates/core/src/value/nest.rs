//! NEST in the value model: equal static thresholds.

use smbm_switch::{ValuePacket, ValueQueue, ValueSwitch};

use crate::{Decision, Policy};

/// **NEST-V** — the value-model translation of NEST: accept a packet for
/// port `i` iff the buffer has free space and `|Q_i| < B/n`. A complete
/// partition of the shared buffer; non-push-out.
#[derive(Debug, Clone, Copy, Default)]
pub struct NestValue {
    _priv: (),
}

impl NestValue {
    /// Creates the policy.
    pub fn new() -> Self {
        NestValue { _priv: () }
    }
}

impl Policy<ValueQueue> for NestValue {
    fn name(&self) -> &str {
        "NEST-V"
    }

    fn decide(&mut self, switch: &ValueSwitch, pkt: ValuePacket) -> Decision {
        if switch.is_full() {
            return Decision::Drop;
        }
        if switch.queue(pkt.port()).len() * switch.ports() < switch.buffer() {
            Decision::Accept
        } else {
            Decision::Drop
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
    fn partitions_buffer() {
        let cfg = ValueSwitchConfig::new(6, 3).unwrap();
        let mut r = ValueRunner::new(cfg, NestValue::new(), 1);
        for port in 0..3 {
            assert_eq!(r.arrival(pkt(port, 4)).unwrap(), Decision::Accept);
            assert_eq!(r.arrival(pkt(port, 4)).unwrap(), Decision::Accept);
            assert_eq!(r.arrival(pkt(port, 9)).unwrap(), Decision::Drop);
        }
    }

    #[test]
    fn value_blind() {
        let cfg = ValueSwitchConfig::new(2, 2).unwrap();
        let mut r = ValueRunner::new(cfg, NestValue::new(), 1);
        r.arrival(pkt(0, 1)).unwrap();
        // Queue 0 is at its share; a very valuable packet is still dropped.
        assert_eq!(r.arrival(pkt(0, 1000)).unwrap(), Decision::Drop);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(NestValue::new().name(), "NEST-V");
    }
}
