//! Maximal-Ratio-Drop (MRD) — the paper's proposed value-model policy.

use std::cmp::Reverse;

use smbm_switch::{PortId, RatioKey, ValuePacket, ValueQueue, ValueSwitch};

use crate::index::{apply_queue_changes, ScoreIndex, SelectMode};
use crate::{Decision, Policy};

/// **MRD** — the policy the paper conjectures to be constant-competitive in
/// the heterogeneous-value model (the open problem of Goldwasser's survey).
///
/// MRD combines LQD's port-balancing with MVD's value awareness: on
/// congestion it evicts the minimal-value packet of the queue with the
/// maximal ratio `|Q_j| / a_j`, where `a_j` is the queue's *average* value —
/// long, cheap queues are shed first; long, valuable queues are protected.
///
/// We use the uniform virtual-add semantics (DESIGN.md): the arrival is
/// virtually inserted into its destination queue before ratios are compared,
/// and the chosen victim queue's minimum is evicted — possibly the arrival
/// itself, which realises the "drop" branch. This reading is forced by the
/// paper's own claims: it makes MRD emulate LQD exactly when all values are
/// equal (the ratio degenerates to `|Q_j|`), and it reproduces the
/// `|Q_v| ∝ v` balanced fixed point of Theorem 11's `4/3` construction —
/// whereas a literal "only if the global minimum is strictly below the
/// arrival" precondition would deadlock both.
///
/// Ties on the ratio prefer the queue containing a smaller value (the paper's
/// rule), then the larger index. Ratios are compared exactly via
/// cross-multiplication ([`smbm_switch::RatioKey`]), not floating point.
///
/// Victim selection is O(1) by default (an O(log n) walk when the arrival
/// owns the current maximum), via a [`ScoreIndex`] over
/// `(|Q_j|²/S_j, Reverse(min_j))`; [`Mrd::scan`] keeps the original O(n)
/// scan as the differential oracle.
#[derive(Debug, Clone, Default)]
pub struct Mrd {
    index: Option<ScoreIndex<(RatioKey, Reverse<u64>)>>,
    mode: SelectMode,
}

impl Mrd {
    /// Creates the policy.
    pub fn new() -> Self {
        Mrd {
            index: None,
            mode: SelectMode::Auto,
        }
    }

    /// Creates MRD with victim selection by full scan instead of the
    /// incremental index (differential-test oracle).
    pub fn scan() -> Self {
        Mrd {
            index: None,
            mode: SelectMode::Scan,
        }
    }

    /// Creates MRD that always maintains the incremental index, regardless
    /// of switch size (differential tests, benches).
    pub fn indexed() -> Self {
        Mrd {
            index: None,
            mode: SelectMode::Indexed,
        }
    }

    /// `port`'s resident key, `None` for an empty queue (which does not
    /// participate in victim selection).
    fn port_key(switch: &ValueSwitch, port: PortId) -> Option<(RatioKey, Reverse<u64>)> {
        let q = switch.queue(port);
        let key = q.ratio_key()?;
        let min = q.min_value().expect("non-empty queue has a minimum").get();
        Some((key, Reverse(min)))
    }

    /// Indexed equivalent of [`Mrd::max_ratio_queue`].
    fn indexed_max_ratio(&mut self, switch: &ValueSwitch, pkt: ValuePacket) -> PortId {
        if self
            .index
            .as_ref()
            .is_none_or(|i| i.ports() != switch.ports())
        {
            let mut idx = ScoreIndex::new(switch.ports());
            idx.rebuild_with(|i| Self::port_key(switch, PortId::new(i)));
            self.index = Some(idx);
        }
        let q = switch.queue(pkt.port());
        let len = q.len() as u128 + 1;
        let sum = q.total_value() as u128 + pkt.value().get() as u128;
        let min = q
            .min_value()
            .map_or(u64::MAX, |v| v.get())
            .min(pkt.value().get());
        let virtual_key = (RatioKey::new(len * len, sum), Reverse(min));
        self.index
            .as_ref()
            .expect("index built above")
            .max_with(pkt.port(), virtual_key)
    }

    /// The queue with the maximal `|Q|/a` ratio once `pkt` is virtually added
    /// to its destination queue. Ties prefer the queue with the smaller
    /// minimum value, then the larger index. Only non-empty (after the
    /// virtual add) queues participate, so the result always exists.
    pub fn max_ratio_queue(switch: &ValueSwitch, pkt: ValuePacket) -> PortId {
        let mut best: Option<(PortId, u128, u128, u64)> = None;
        for (port, q) in switch.queues() {
            let own = port == pkt.port();
            let len = q.len() as u128 + u128::from(own);
            if len == 0 {
                continue;
            }
            let sum = q.total_value() as u128 + if own { pkt.value().get() as u128 } else { 0 };
            let len_sq = len * len;
            let min = {
                let resident = q.min_value().map_or(u64::MAX, |v| v.get());
                if own {
                    resident.min(pkt.value().get())
                } else {
                    resident
                }
            };
            let better = match &best {
                None => true,
                Some((_, blen_sq, bsum, bmin)) => {
                    // ratio = len^2 / sum; compare len_sq * bsum vs blen_sq * sum.
                    let lhs = len_sq * bsum;
                    let rhs = blen_sq * sum;
                    lhs > rhs || (lhs == rhs && min <= *bmin)
                }
            };
            if better {
                best = Some((port, len_sq, sum, min));
            }
        }
        best.map(|(p, _, _, _)| p)
            .expect("destination queue is non-empty after the virtual add")
    }
}

impl Policy<ValueQueue> for Mrd {
    fn name(&self) -> &str {
        "MRD"
    }

    fn decide(&mut self, switch: &ValueSwitch, pkt: ValuePacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        let victim = if self.mode.use_index(switch.ports()) {
            self.indexed_max_ratio(switch, pkt)
        } else {
            Self::max_ratio_queue(switch, pkt)
        };
        Decision::PushOut(victim)
    }

    fn wants_queue_events(&self, ports: usize) -> bool {
        self.mode.use_index(ports)
    }

    fn queue_changed(&mut self, switch: &ValueSwitch, port: PortId) {
        if let Some(idx) = self.index.as_mut() {
            if idx.ports() == switch.ports() {
                idx.set(port, Self::port_key(switch, port));
            }
        }
    }

    fn queues_changed(&mut self, switch: &ValueSwitch, ports: &[PortId]) {
        if let Some(idx) = self.index.as_mut() {
            if idx.ports() == switch.ports() {
                apply_queue_changes(idx, ports, |i| Self::port_key(switch, PortId::new(i)));
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

    fn runner(b: usize, n: usize) -> ValueRunner<Mrd> {
        ValueRunner::new(ValueSwitchConfig::new(b, n).unwrap(), Mrd::new(), 1)
    }

    #[test]
    fn greedy_while_space_remains() {
        let mut r = runner(2, 2);
        assert_eq!(r.arrival(pkt(0, 1)).unwrap(), Decision::Accept);
        assert_eq!(r.arrival(pkt(1, 5)).unwrap(), Decision::Accept);
    }

    #[test]
    fn cheap_arrival_to_own_heavy_queue_self_evicts() {
        let mut r = runner(2, 2);
        r.arrival(pkt(0, 3)).unwrap();
        r.arrival(pkt(0, 5)).unwrap();
        // Virtual Q0 = {5,3,2}: ratio 9/10 beats empty Q1; min is the
        // arrival itself => net drop.
        let d = r.arrival(pkt(0, 2)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(0)));
        assert_eq!(r.switch().total_value(), 8);
        r.switch().check_invariants().unwrap();
    }

    #[test]
    fn pushes_out_from_max_ratio_queue() {
        let mut r = runner(4, 2);
        // Queue 0: 3 cheap packets => ratio 9/3 = 3.
        for _ in 0..3 {
            r.arrival(pkt(0, 1)).unwrap();
        }
        // Queue 1: 1 expensive packet => ratio 1/9.
        r.arrival(pkt(1, 9)).unwrap();
        let d = r.arrival(pkt(1, 5)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(0)));
        assert_eq!(r.switch().queue(PortId::new(0)).len(), 2);
        assert_eq!(r.switch().queue(PortId::new(1)).len(), 2);
    }

    #[test]
    fn victim_may_differ_from_cheapest_queue() {
        // Ratio ties are broken toward the queue containing a smaller value.
        let mut r = runner(5, 2);
        // Queue 0: four value-4 packets => ratio 16/16 = 1.
        for _ in 0..4 {
            r.arrival(pkt(0, 4)).unwrap();
        }
        // Queue 1: one value-1 packet => ratio 1/1 = 1.
        r.arrival(pkt(1, 1)).unwrap();
        // Arrival to port 1 of value 9: virtual Q1 = {9,1} ratio 4/10 < 1;
        // tie between Q0 (1) and ... Q0 wins the ratio now. Use a neutral
        // arrival instead: value 9 to port 0 => virtual Q0 ratio 25/25 = 1,
        // still tied with Q1's 1/1; Q1 holds the smaller value and loses its
        // packet.
        let d = r.arrival(pkt(0, 9)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(1)));
    }

    #[test]
    fn emulates_lqd_on_unit_values() {
        use crate::value::LqdValue;
        let cfg = ValueSwitchConfig::new(6, 3).unwrap();
        let mut mrd = ValueRunner::new(cfg, Mrd::new(), 1);
        let mut lqd = ValueRunner::new(cfg, LqdValue::new(), 1);
        let pattern = [0, 1, 1, 2, 1, 0, 0, 1, 2, 2, 1, 0, 2, 2, 1, 1, 1, 0];
        for &p in &pattern {
            let a = mrd.arrival(pkt(p, 1)).unwrap();
            let b = lqd.arrival(pkt(p, 1)).unwrap();
            // With unit values both policies keep identical queue *lengths*
            // (the evicted packet is interchangeable).
            assert_eq!(a.admits(), b.admits(), "diverged on arrival to {p}");
        }
        for p in 0..3 {
            assert_eq!(
                mrd.switch().queue(PortId::new(p)).len(),
                lqd.switch().queue(PortId::new(p)).len(),
                "queue {p} lengths diverged"
            );
        }
    }

    #[test]
    fn unit_value_flood_balances_like_lqd() {
        let mut r = runner(6, 3);
        for _ in 0..6 {
            r.arrival(pkt(2, 1)).unwrap();
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
    fn theorem11_first_burst_balances_size_value_ratio() {
        // Value==port burst with values 1, 2, 3, 6 and B = 24:
        // MRD converges to |Q_v| proportional to v: 2, 4, 6, 12.
        let b = 24usize;
        let mut r = runner(b, 4);
        let values = [1u64, 2, 3, 6];
        // Round-robin the burst so every class keeps arriving until dropped.
        for _ in 0..b {
            for (port, &v) in values.iter().enumerate() {
                let _ = r.arrival(pkt(port, v)).unwrap();
            }
        }
        let lens: Vec<usize> = (0..4)
            .map(|p| r.switch().queue(PortId::new(p)).len())
            .collect();
        assert_eq!(lens.iter().sum::<usize>(), b);
        // c * (1+2+3+6) = 24 => c = 2 => queues near 2, 4, 6, 12 (the exact
        // fixed point oscillates by a packet or two as ties shuffle).
        for (i, (&got, want)) in lens.iter().zip([2usize, 4, 6, 12]).enumerate() {
            let diff = got.abs_diff(want);
            assert!(diff <= 2, "queue {i}: got {got}, want ~{want} ({lens:?})");
        }
    }

    #[test]
    fn protects_high_average_queues() {
        let mut r = runner(6, 2);
        // Queue 0: three 9s (ratio 9/27 = 1/3); queue 1: three 1s (ratio 3).
        for _ in 0..3 {
            r.arrival(pkt(0, 9)).unwrap();
            r.arrival(pkt(1, 1)).unwrap();
        }
        // A mid-value arrival to port 0 evicts from the cheap queue.
        let d = r.arrival(pkt(0, 5)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(1)));
        assert_eq!(r.switch().queue(PortId::new(0)).len(), 4);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Mrd::new().name(), "MRD");
    }
}
