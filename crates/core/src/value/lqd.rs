//! Longest-Queue-Drop (LQD) in the heterogeneous-value model.

use std::cmp::Reverse;

use smbm_switch::{PortId, ValuePacket, ValueQueue, ValueSwitch};

use crate::index::{apply_queue_changes, ScoreIndex, SelectMode};
use crate::{Decision, Policy};

/// **LQD** (value model) — on congestion, drop the *lowest-value* packet of
/// the *longest* queue, balancing queue sizes while ignoring values beyond
/// the within-queue victim choice.
///
/// We use the virtual-add semantics documented in DESIGN.md: `j*` maximizes
/// `|Q_j| + [i = j]`; ties prefer the queue with the smaller minimum value
/// (shedding the cheapest packet), then the larger index. The minimal-value
/// packet of `Q_{j*}` is evicted — when `j* = i` and the arrival is the
/// queue's minimum, that eviction is the arrival itself, reproducing the
/// classic "drop" branch on homogeneous values.
///
/// Theorem 9 shows LQD is at least `∛k`-competitive in this model.
///
/// Victim selection is O(1) by default (an O(log n) walk when the arrival
/// owns the current maximum), via a [`ScoreIndex`] over
/// `(|Q_j|, Reverse(min_j))`; [`LqdValue::scan`] keeps the original O(n)
/// scan as the differential oracle.
#[derive(Debug, Clone, Default)]
pub struct LqdValue {
    index: Option<ScoreIndex<(usize, Reverse<u64>)>>,
    mode: SelectMode,
}

impl LqdValue {
    /// Creates the policy. Victim selection picks index or scan automatically
    /// by port count.
    pub fn new() -> Self {
        LqdValue {
            index: None,
            mode: SelectMode::Auto,
        }
    }

    /// Creates value-LQD with victim selection by full scan instead of the
    /// incremental index (differential-test oracle).
    pub fn scan() -> Self {
        LqdValue {
            index: None,
            mode: SelectMode::Scan,
        }
    }

    /// Creates value-LQD with the incremental index forced on regardless of
    /// port count.
    pub fn indexed() -> Self {
        LqdValue {
            index: None,
            mode: SelectMode::Indexed,
        }
    }

    fn port_key(switch: &ValueSwitch, port: PortId) -> (usize, Reverse<u64>) {
        let q = switch.queue(port);
        (
            q.len(),
            Reverse(q.min_value().map_or(u64::MAX, |v| v.get())),
        )
    }

    /// Indexed equivalent of [`LqdValue::longest_queue`].
    fn indexed_longest(&mut self, switch: &ValueSwitch, pkt: ValuePacket) -> PortId {
        if self
            .index
            .as_ref()
            .is_none_or(|i| i.ports() != switch.ports())
        {
            let mut idx = ScoreIndex::new(switch.ports());
            idx.rebuild_with(|i| Some(Self::port_key(switch, PortId::new(i))));
            self.index = Some(idx);
        }
        let (len, Reverse(min)) = Self::port_key(switch, pkt.port());
        let virtual_key = (len + 1, Reverse(min.min(pkt.value().get())));
        self.index
            .as_ref()
            .expect("index built above")
            .max_with(pkt.port(), virtual_key)
    }

    /// The queue LQD considers fullest once `arriving` is virtually added.
    pub fn longest_queue(switch: &ValueSwitch, pkt: ValuePacket) -> PortId {
        let mut best = PortId::new(0);
        let mut best_len = 0usize;
        let mut best_min = u64::MAX;
        let mut first = true;
        for (port, q) in switch.queues() {
            let own = port == pkt.port();
            let len = q.len() + usize::from(own);
            let min = {
                let resident = q.min_value().map_or(u64::MAX, |v| v.get());
                if own {
                    resident.min(pkt.value().get())
                } else {
                    resident
                }
            };
            let better = if first {
                true
            } else {
                // Longer queue wins; among equals, the smaller minimum value;
                // among those, later index.
                (len > best_len) || (len == best_len && min <= best_min)
            };
            if better {
                best = port;
                best_len = len;
                best_min = min;
                first = false;
            }
        }
        best
    }
}

impl Policy<ValueQueue> for LqdValue {
    fn name(&self) -> &str {
        "LQD"
    }

    fn decide(&mut self, switch: &ValueSwitch, pkt: ValuePacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        let longest = if self.mode.use_index(switch.ports()) {
            self.indexed_longest(switch, pkt)
        } else {
            Self::longest_queue(switch, pkt)
        };
        Decision::PushOut(longest)
    }

    fn wants_queue_events(&self, ports: usize) -> bool {
        self.mode.use_index(ports)
    }

    fn queue_changed(&mut self, switch: &ValueSwitch, port: PortId) {
        if let Some(idx) = self.index.as_mut() {
            if idx.ports() == switch.ports() {
                idx.set(port, Some(Self::port_key(switch, port)));
            }
        }
    }

    fn queues_changed(&mut self, switch: &ValueSwitch, ports: &[PortId]) {
        if let Some(idx) = self.index.as_mut() {
            if idx.ports() == switch.ports() {
                apply_queue_changes(idx, ports, |i| Some(Self::port_key(switch, PortId::new(i))));
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

    fn runner(b: usize, n: usize) -> ValueRunner<LqdValue> {
        ValueRunner::new(ValueSwitchConfig::new(b, n).unwrap(), LqdValue::new(), 1)
    }

    #[test]
    fn greedy_while_space_remains() {
        let mut r = runner(2, 2);
        assert_eq!(r.arrival(pkt(0, 1)).unwrap(), Decision::Accept);
        assert_eq!(r.arrival(pkt(1, 9)).unwrap(), Decision::Accept);
    }

    #[test]
    fn evicts_min_value_of_longest_queue() {
        let mut r = runner(4, 2);
        for v in [5, 2, 8] {
            r.arrival(pkt(1, v)).unwrap();
        }
        r.arrival(pkt(0, 1)).unwrap();
        assert!(r.switch().is_full());
        // Arrival to queue 0: queue 1 (len 3) is longest; its min (2) leaves.
        let d = r.arrival(pkt(0, 3)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(1)));
        assert_eq!(
            r.switch().queue(PortId::new(1)).min_value(),
            Some(Value::new(5))
        );
        assert_eq!(r.switch().queue(PortId::new(0)).len(), 2);
    }

    #[test]
    fn own_longest_queue_sheds_minimum_even_if_it_is_the_arrival() {
        let mut r = runner(2, 2);
        r.arrival(pkt(0, 5)).unwrap();
        r.arrival(pkt(0, 4)).unwrap();
        // Queue 0 is the longest even before the virtual add; a cheap arrival
        // to it evicts itself (net drop).
        let d = r.arrival(pkt(0, 1)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(0)));
        assert_eq!(r.switch().total_value(), 9);
        r.switch().check_invariants().unwrap();
    }

    #[test]
    fn own_longest_queue_upgrade_keeps_valuable_arrival() {
        let mut r = runner(2, 2);
        r.arrival(pkt(0, 5)).unwrap();
        r.arrival(pkt(0, 1)).unwrap();
        // A valuable arrival to the longest queue replaces its minimum: this
        // is where virtual-add semantics improve on blind dropping.
        let d = r.arrival(pkt(0, 9)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(0)));
        assert_eq!(r.switch().total_value(), 14);
    }

    #[test]
    fn balances_under_flood() {
        let mut r = runner(6, 3);
        for _ in 0..6 {
            r.arrival(pkt(2, 7)).unwrap();
        }
        for _ in 0..6 {
            for port in 0..3 {
                let _ = r.arrival(pkt(port, 1)).unwrap();
            }
        }
        let lens: Vec<usize> = (0..3)
            .map(|p| r.switch().queue(PortId::new(p)).len())
            .collect();
        assert_eq!(lens.iter().sum::<usize>(), 6);
        assert!(lens.iter().all(|&l| l == 2), "unbalanced: {lens:?}");
    }

    #[test]
    fn tie_prefers_cheaper_minimum() {
        let mut r = runner(4, 3);
        r.arrival(pkt(0, 9)).unwrap();
        r.arrival(pkt(0, 8)).unwrap();
        r.arrival(pkt(1, 2)).unwrap();
        r.arrival(pkt(1, 7)).unwrap();
        assert!(r.switch().is_full());
        // Queues 0 and 1 tie at length 2; queue 1 has the smaller min (2).
        let d = r.arrival(pkt(2, 5)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(1)));
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(LqdValue::new().name(), "LQD");
    }
}
