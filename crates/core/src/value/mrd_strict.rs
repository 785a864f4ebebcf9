//! The *literal* reading of the paper's MRD rule, kept as an ablation
//! foil for the virtual-add [`crate::Mrd`] actually used.

use smbm_switch::{PortId, ValuePacket, ValueQueue, ValueSwitch};

use crate::{Decision, Policy};

/// **MRD-strict** — MRD exactly as printed in Section IV: on a full buffer,
/// push out the minimal-value packet of the maximal-ratio queue **only if
/// the globally minimal admitted value is strictly below the arrival's
/// value**; otherwise drop.
///
/// DESIGN.md documents why this cannot be what the authors ran: with unit
/// values the strict precondition never holds, so MRD-strict freezes its
/// buffer at the first congestion instant instead of emulating LQD, and on
/// Theorem 11's own trace it admits none of the low-value packets the proof
/// says MRD accepts. The `ablations` bench and `tests/extensions.rs`
/// demonstrate both failures; [`crate::Mrd`] repairs them with virtual-add
/// semantics.
#[derive(Debug, Clone, Copy, Default)]
pub struct MrdStrict {
    _priv: (),
}

impl MrdStrict {
    /// Creates the policy.
    pub fn new() -> Self {
        MrdStrict { _priv: () }
    }

    /// The non-empty queue with maximal `|Q|/a` (no virtual add); ties
    /// prefer the queue containing a smaller value, then the larger index.
    pub fn max_ratio_queue(switch: &ValueSwitch) -> Option<PortId> {
        let mut best: Option<(PortId, smbm_switch::RatioKey, u64)> = None;
        for (port, q) in switch.queues() {
            let Some(key) = q.ratio_key() else { continue };
            let min = q.min_value().expect("non-empty queue has min").get();
            let better = match &best {
                None => true,
                Some((_, bkey, bmin)) => key > *bkey || (key == *bkey && min <= *bmin),
            };
            if better {
                best = Some((port, key, min));
            }
        }
        best.map(|(p, _, _)| p)
    }
}

impl Policy<ValueQueue> for MrdStrict {
    fn name(&self) -> &str {
        "MRD-strict"
    }

    fn decide(&mut self, switch: &ValueSwitch, pkt: ValuePacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        match switch.global_min_value() {
            Some((_, min)) if min.get() < pkt.value().get() => {
                let victim =
                    Self::max_ratio_queue(switch).expect("full buffer has a non-empty queue");
                Decision::PushOut(victim)
            }
            _ => Decision::Drop,
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
    fn freezes_on_unit_values() {
        // The failure DESIGN.md documents: with all-equal values the strict
        // precondition never fires, so nothing is admitted past the fill.
        let cfg = ValueSwitchConfig::new(4, 2).unwrap();
        let mut r = ValueRunner::new(cfg, MrdStrict::new(), 1);
        for _ in 0..4 {
            assert!(r.arrival(pkt(0, 1)).unwrap().admits());
        }
        for _ in 0..10 {
            assert_eq!(r.arrival(pkt(1, 1)).unwrap(), Decision::Drop);
        }
        // Queue 1's port stays starved even though LQD would activate it.
        assert!(r.switch().queue(PortId::new(1)).is_empty());
    }

    #[test]
    fn admits_strictly_better_values() {
        let cfg = ValueSwitchConfig::new(2, 2).unwrap();
        let mut r = ValueRunner::new(cfg, MrdStrict::new(), 1);
        r.arrival(pkt(0, 1)).unwrap();
        r.arrival(pkt(0, 1)).unwrap();
        let d = r.arrival(pkt(1, 5)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(0)));
        assert_eq!(r.switch().total_value(), 6);
    }

    #[test]
    fn rejects_theorem11_cheap_classes() {
        // On Theorem 11's burst, strict MRD admits no 1/2/3-valued packets
        // once the buffer is full of 6s — contradicting the proof's stated
        // MRD behaviour, which is the evidence for the virtual-add reading.
        let cfg = ValueSwitchConfig::new(12, 4).unwrap();
        let mut r = ValueRunner::new(cfg, MrdStrict::new(), 1);
        for _ in 0..12 {
            r.arrival(pkt(3, 6)).unwrap();
        }
        for v in [1u64, 2, 3] {
            assert_eq!(r.arrival(pkt(v as usize - 1, v)).unwrap(), Decision::Drop);
        }
        assert_eq!(r.switch().queue(PortId::new(3)).len(), 12);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(MrdStrict::new().name(), "MRD-strict");
    }
}
