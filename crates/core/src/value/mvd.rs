//! Minimal-Value-Drop (MVD) and its singleton-sparing variant MVD1.

use std::cmp::Reverse;

use smbm_switch::{PortId, ValuePacket, ValueQueue, ValueSwitch};

use crate::index::{apply_queue_changes, ScoreIndex, SelectMode};
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
/// Victim selection is O(log n) by default, via a [`ScoreIndex`] over
/// `(Reverse(min_j), |Q_j|)` — no virtual add is involved, so the resident
/// maximum is the victim directly. [`Mvd::scan`] and
/// [`Mvd::scan_sparing_singletons`] keep the original O(n) scan as the
/// differential oracle.
#[derive(Debug, Clone)]
pub struct Mvd {
    spare_singletons: bool,
    index: Option<ScoreIndex<(Reverse<u64>, usize)>>,
    mode: SelectMode,
}

impl Default for Mvd {
    fn default() -> Self {
        Self::new()
    }
}

impl Mvd {
    /// Creates plain MVD. Victim selection picks index or scan automatically
    /// by port count.
    pub fn new() -> Self {
        Mvd {
            spare_singletons: false,
            index: None,
            mode: SelectMode::Auto,
        }
    }

    /// Creates MVD1: like MVD but never pushes out the last packet in a
    /// queue.
    pub fn sparing_singletons() -> Self {
        Mvd {
            spare_singletons: true,
            ..Self::new()
        }
    }

    /// Creates MVD with victim selection by full scan instead of the
    /// incremental index (differential-test oracle).
    pub fn scan() -> Self {
        Mvd {
            mode: SelectMode::Scan,
            ..Self::new()
        }
    }

    /// Scan-based MVD1 (differential-test oracle).
    pub fn scan_sparing_singletons() -> Self {
        Mvd {
            spare_singletons: true,
            mode: SelectMode::Scan,
            ..Self::new()
        }
    }

    /// Creates MVD with the incremental index forced on regardless of port
    /// count.
    pub fn indexed() -> Self {
        Mvd {
            mode: SelectMode::Indexed,
            ..Self::new()
        }
    }

    /// Index-forced MVD1.
    pub fn indexed_sparing_singletons() -> Self {
        Mvd {
            spare_singletons: true,
            mode: SelectMode::Indexed,
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

    fn port_key(&self, switch: &ValueSwitch, port: PortId) -> Option<(Reverse<u64>, usize)> {
        Self::key_for(self.spare_singletons, switch, port)
    }

    /// Indexed equivalent of [`Mvd::victim`]. No virtual add: the resident
    /// argmax is the victim.
    fn indexed_victim(&mut self, switch: &ValueSwitch) -> Option<(PortId, u64)> {
        if self
            .index
            .as_ref()
            .is_none_or(|i| i.ports() != switch.ports())
        {
            let spare = self.spare_singletons;
            let mut idx = ScoreIndex::new(switch.ports());
            idx.rebuild_with(|i| Self::key_for(spare, switch, PortId::new(i)));
            self.index = Some(idx);
        }
        let idx = self.index.as_ref().expect("index built above");
        let port = idx.max()?;
        let (Reverse(v), _) = idx.key(port).expect("max entry has a key");
        Some((port, v))
    }

    /// The victim queue: holds the globally minimal value among eligible
    /// queues (length >= 2 for MVD1); ties prefer the longest queue.
    fn victim(&self, switch: &ValueSwitch) -> Option<(PortId, u64)> {
        let min_len = if self.spare_singletons { 2 } else { 1 };
        let mut best: Option<(PortId, u64, usize)> = None;
        for (port, q) in switch.queues() {
            if q.len() < min_len {
                continue;
            }
            let v = q.min_value().expect("non-empty queue has a min").get();
            let better = match best {
                None => true,
                Some((_, bv, blen)) => v < bv || (v == bv && q.len() >= blen),
            };
            if better {
                best = Some((port, v, q.len()));
            }
        }
        best.map(|(p, v, _)| (p, v))
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
        let victim = if self.mode.use_index(switch.ports()) {
            self.indexed_victim(switch)
        } else {
            self.victim(switch)
        };
        match victim {
            Some((victim, min_value)) if min_value < pkt.value().get() => Decision::PushOut(victim),
            _ => Decision::Drop,
        }
    }

    fn wants_queue_events(&self, ports: usize) -> bool {
        self.mode.use_index(ports)
    }

    fn queue_changed(&mut self, switch: &ValueSwitch, port: PortId) {
        let key = self.port_key(switch, port);
        if let Some(idx) = self.index.as_mut() {
            if idx.ports() == switch.ports() {
                idx.set(port, key);
            }
        }
    }

    fn queues_changed(&mut self, switch: &ValueSwitch, ports: &[PortId]) {
        let spare = self.spare_singletons;
        if let Some(idx) = self.index.as_mut() {
            if idx.ports() == switch.ports() {
                apply_queue_changes(idx, ports, |i| Self::key_for(spare, switch, PortId::new(i)));
            }
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
