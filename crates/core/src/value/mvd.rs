//! Minimal-Value-Drop (MVD) and its singleton-sparing variant MVD1.

use std::cmp::Reverse;

use smbm_switch::{PortId, ValuePacket, ValueQueue, ValueSwitch};

use crate::index::ArgMax;
use crate::{Decision, Policy};

/// **MVD** — push-out policy that greedily maximizes admitted value: on
/// congestion, evict the globally *minimal-value* packet (from the longest
/// queue holding such a packet) provided the arrival is strictly more
/// valuable; otherwise drop the arrival.
///
/// MVD is the value-model analogue of BPD, and Theorem 10 shows it is at
/// least `(m-1)/2`-competitive for `m = min{k, B}`: chasing value alone
/// starves all but one port. The simulation section adds **MVD1**
/// ([`Mvd::sparing_singletons`]), which never evicts the last packet of a
/// queue.
///
/// The victim queue holds the globally minimal value among eligible queues
/// (non-empty; at least two packets for MVD1); ties prefer the longest
/// queue, then the larger index. Selection is an O(n) scan of
/// `(Reverse(min_j), |Q_j|)` below 32 ports and an O(1) read of an
/// incremental score index over the same keys from 32 ports up — no virtual
/// add is involved, so the resident maximum is the victim directly.
#[derive(Debug, Clone, Default)]
pub struct Mvd {
    spare_singletons: bool,
    select: ArgMax<(Reverse<u64>, usize)>,
}

impl Mvd {
    /// Creates plain MVD.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates MVD1: like MVD but never pushes out the last packet in a
    /// queue.
    pub fn sparing_singletons() -> Self {
        Mvd {
            spare_singletons: true,
            ..Self::new()
        }
    }

    /// Whether this instance is the MVD1 variant.
    pub fn spares_singletons(&self) -> bool {
        self.spare_singletons
    }

    /// `port`'s resident key, `None` when the queue is ineligible (empty, or
    /// a singleton under MVD1).
    fn key_for(
        spare_singletons: bool,
        switch: &ValueSwitch,
        port: PortId,
    ) -> Option<(Reverse<u64>, usize)> {
        let q = switch.queue(port);
        let min_len = if spare_singletons { 2 } else { 1 };
        if q.len() < min_len {
            return None;
        }
        let v = q.min_value().expect("non-empty queue has a min").get();
        Some((Reverse(v), q.len()))
    }
}

impl Policy<ValueQueue> for Mvd {
    fn name(&self) -> &str {
        if self.spare_singletons {
            "MVD1"
        } else {
            "MVD"
        }
    }

    fn decide(&mut self, switch: &ValueSwitch, pkt: ValuePacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        let victim = self.select.argmax(switch.ports(), |p| {
            Self::key_for(self.spare_singletons, switch, p)
        });
        match victim {
            Some((victim, (Reverse(min_value), _))) if min_value < pkt.value().get() => {
                Decision::PushOut(victim)
            }
            _ => Decision::Drop,
        }
    }

    fn wants_queue_events(&self, ports: usize) -> bool {
        self.select.wants_events(ports)
    }

    fn queues_changed(&mut self, switch: &ValueSwitch, ports: &[PortId]) {
        self.select.changed(switch.ports(), ports, |p| {
            Self::key_for(self.spare_singletons, switch, p)
        });
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

    fn runner(policy: Mvd, b: usize, n: usize) -> ValueRunner<Mvd> {
        ValueRunner::new(ValueSwitchConfig::new(b, n).unwrap(), policy, 1)
    }

    #[test]
    fn greedy_while_space_remains() {
        let mut r = runner(Mvd::new(), 2, 2);
        assert_eq!(r.arrival(pkt(0, 1)).unwrap(), Decision::Accept);
        assert_eq!(r.arrival(pkt(1, 1)).unwrap(), Decision::Accept);
    }

    #[test]
    fn evicts_global_minimum_for_more_valuable_arrival() {
        let mut r = runner(Mvd::new(), 3, 3);
        r.arrival(pkt(0, 4)).unwrap();
        r.arrival(pkt(1, 2)).unwrap();
        r.arrival(pkt(2, 7)).unwrap();
        let d = r.arrival(pkt(0, 5)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(1)));
        assert!(r.switch().queue(PortId::new(1)).is_empty());
        assert_eq!(r.switch().total_value(), 16);
    }

    #[test]
    fn drops_arrival_not_more_valuable_than_minimum() {
        let mut r = runner(Mvd::new(), 2, 2);
        r.arrival(pkt(0, 3)).unwrap();
        r.arrival(pkt(1, 3)).unwrap();
        // Equal value: strict inequality required, so drop.
        assert_eq!(r.arrival(pkt(0, 3)).unwrap(), Decision::Drop);
        assert_eq!(r.arrival(pkt(0, 2)).unwrap(), Decision::Drop);
        assert_eq!(
            r.arrival(pkt(0, 4)).unwrap(),
            Decision::PushOut(PortId::new(1))
        );
    }

    #[test]
    fn tie_on_minimum_prefers_longest_queue() {
        let mut r = runner(Mvd::new(), 4, 2);
        r.arrival(pkt(0, 1)).unwrap();
        r.arrival(pkt(1, 1)).unwrap();
        r.arrival(pkt(1, 6)).unwrap();
        r.arrival(pkt(1, 6)).unwrap();
        // Min value 1 in both queues; queue 1 is longer.
        let d = r.arrival(pkt(0, 9)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(1)));
    }

    #[test]
    fn mvd1_spares_singletons() {
        let mut r = runner(Mvd::sparing_singletons(), 3, 2);
        r.arrival(pkt(0, 1)).unwrap(); // singleton with the global min
        r.arrival(pkt(1, 3)).unwrap();
        r.arrival(pkt(1, 2)).unwrap();
        let d = r.arrival(pkt(0, 9)).unwrap();
        // Plain MVD would evict the 1 in queue 0; MVD1 skips the singleton
        // and evicts queue 1's minimum (2).
        assert_eq!(d, Decision::PushOut(PortId::new(1)));
        assert_eq!(r.switch().queue(PortId::new(0)).len(), 2);
        assert_eq!(
            r.switch().queue(PortId::new(1)).min_value(),
            Some(Value::new(3))
        );
    }

    #[test]
    fn mvd1_drops_when_only_singletons() {
        let mut r = runner(Mvd::sparing_singletons(), 2, 2);
        r.arrival(pkt(0, 1)).unwrap();
        r.arrival(pkt(1, 1)).unwrap();
        assert_eq!(r.arrival(pkt(0, 9)).unwrap(), Decision::Drop);
    }

    #[test]
    fn theorem10_shape_keeps_only_top_class() {
        // Every slot B packets of each value 1..m arrive; MVD converges to a
        // buffer holding only value-m packets.
        let m = 4u64;
        let b = 8usize;
        let mut r = runner(Mvd::new(), b, m as usize);
        for _ in 0..5 {
            for v in 1..=m {
                for _ in 0..b {
                    let _ = r.arrival(pkt((v - 1) as usize, v)).unwrap();
                }
            }
            r.transmission();
            r.end_slot();
        }
        // All buffered packets are of the top class.
        let top = r.switch().queue(PortId::new((m - 1) as usize)).len();
        assert_eq!(top, r.switch().occupancy());
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(Mvd::new().name(), "MVD");
        assert_eq!(Mvd::sparing_singletons().name(), "MVD1");
        assert!(Mvd::sparing_singletons().spares_singletons());
    }
}
