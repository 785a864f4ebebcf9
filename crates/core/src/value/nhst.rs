//! NHST in the value model: reversed harmonic static thresholds.

use smbm_switch::{PortId, ValuePacket, ValueQueue, ValueSwitch};

use crate::{Decision, Policy};

/// **NHST-V** — the value-model translation of NHST used in Section V-C's
/// value==port experiments: since high *values* (unlike high *work*) are
/// desirable, the thresholds are reversed, giving the queue for value `i`
/// (1-based) the share `B / ((k - i + 1) * H_k)`, so the most valuable class
/// gets the largest share. Non-push-out.
///
/// The policy keys thresholds on the *port index* (port `i` carries value
/// `i+1`), matching the special case it was designed for; in the uniform-
/// value setting it simply favours high-numbered ports.
#[derive(Debug, Clone, Copy, Default)]
pub struct NhstValue {
    _priv: (),
}

impl NhstValue {
    /// Creates the policy.
    pub fn new() -> Self {
        NhstValue { _priv: () }
    }

    /// The reversed-harmonic threshold for `port`, in fractional packets.
    pub fn threshold(switch: &ValueSwitch, port: PortId) -> f64 {
        let n = switch.ports();
        let h_n: f64 = (1..=n).map(|i| 1.0 / i as f64).sum();
        let rank = (n - port.index()) as f64; // value i => k - i + 1
        switch.buffer() as f64 / (rank * h_n)
    }
}

impl Policy<ValueQueue> for NhstValue {
    fn name(&self) -> &str {
        "NHST-V"
    }

    fn decide(&mut self, switch: &ValueSwitch, pkt: ValuePacket) -> Decision {
        if switch.is_full() {
            return Decision::Drop;
        }
        if (switch.queue(pkt.port()).len() as f64) < Self::threshold(switch, pkt.port()) {
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
    use smbm_switch::{Value, ValueSwitchConfig};

    fn pkt(port: usize, v: u64) -> ValuePacket {
        ValuePacket::new(PortId::new(port), Value::new(v))
    }

    #[test]
    fn highest_value_port_gets_largest_share() {
        // n = 2, B = 12, H_2 = 1.5.
        // Port 0 (value 1): B / (2 * 1.5) = 4. Port 1 (value 2): B / 1.5 = 8.
        let cfg = ValueSwitchConfig::new(12, 2).unwrap();
        let mut r = ValueRunner::new(cfg, NhstValue::new(), 1);
        let mut low = 0;
        for _ in 0..12 {
            if r.arrival(pkt(0, 1)).unwrap().admits() {
                low += 1;
            }
        }
        let mut high = 0;
        for _ in 0..12 {
            if r.arrival(pkt(1, 2)).unwrap().admits() {
                high += 1;
            }
        }
        assert_eq!(low, 4);
        assert_eq!(high, 8);
    }

    #[test]
    fn threshold_formula() {
        let cfg = ValueSwitchConfig::new(12, 2).unwrap();
        let sw = smbm_switch::ValueSwitch::new(cfg);
        assert!((NhstValue::threshold(&sw, PortId::new(0)) - 4.0).abs() < 1e-12);
        assert!((NhstValue::threshold(&sw, PortId::new(1)) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn never_pushes_out() {
        let cfg = ValueSwitchConfig::new(4, 2).unwrap();
        let mut r = ValueRunner::new(cfg, NhstValue::new(), 1);
        for i in 0..10 {
            let _ = r.arrival(pkt(i % 2, 1 + (i as u64 % 2))).unwrap();
        }
        assert_eq!(r.switch().counters().pushed_out(), 0);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(NhstValue::new().name(), "NHST-V");
    }
}
