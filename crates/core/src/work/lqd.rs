//! Longest-Queue-Drop (LQD) in the heterogeneous-processing model.

use smbm_switch::{PortId, WorkPacket, WorkQueue, WorkSwitch};

use crate::index::ArgMax;
use crate::{Decision, Policy};

/// **LQD** — the classic push-out policy of Aiello et al.: when the buffer is
/// congested, push out the tail of the *longest* queue. Required processing
/// is ignored entirely.
///
/// On arrival at port `i`, let `j* = argmax_j (|Q_j| + [i = j])` (the longest
/// queue after virtually adding the arrival; ties broken toward the largest
/// required processing, then the largest index). Then:
///
/// 1. if the buffer is not full, accept;
/// 2. if the buffer is full and `i != j*`, push out the tail of `Q_{j*}` and
///    accept;
/// 3. otherwise drop.
///
/// LQD is 2-competitive with homogeneous processing, but Theorem 4 shows it
/// is at least `sqrt(k)`-competitive in the heterogeneous model.
///
/// Victim selection is an O(n) scan of `(|Q_j|, w_j)` below 32 ports; from
/// 32 ports up it is O(1) (an O(log n) walk when the arrival owns the
/// current maximum) through an incremental score index over the same keys.
#[derive(Debug, Clone, Default)]
pub struct Lqd {
    select: ArgMax<(usize, u32)>,
}

impl Lqd {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    fn port_key(switch: &WorkSwitch, port: PortId) -> (usize, u32) {
        let q = switch.queue(port);
        (q.len(), q.work().cycles())
    }
}

impl Policy<WorkQueue> for Lqd {
    fn name(&self) -> &str {
        "LQD"
    }

    fn decide(&mut self, switch: &WorkSwitch, pkt: WorkPacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        let (len, cycles) = Self::port_key(switch, pkt.port());
        let longest = self.select.argmax_with(
            switch.ports(),
            |p| Some(Self::port_key(switch, p)),
            pkt.port(),
            (len + 1, cycles),
        );
        if longest != pkt.port() {
            Decision::PushOut(longest)
        } else {
            Decision::Drop
        }
    }

    fn wants_queue_events(&self, ports: usize) -> bool {
        self.select.wants_events(ports)
    }

    fn queues_changed(&mut self, switch: &WorkSwitch, ports: &[PortId]) {
        self.select
            .changed(switch.ports(), ports, |p| Some(Self::port_key(switch, p)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkRunner;
    use smbm_switch::WorkSwitchConfig;

    fn runner(k: u32, b: usize) -> WorkRunner<Lqd> {
        WorkRunner::new(WorkSwitchConfig::contiguous(k, b).unwrap(), Lqd::new(), 1)
    }

    #[test]
    fn greedy_while_space_remains() {
        let mut r = runner(3, 3);
        for port in 0..3 {
            assert_eq!(r.arrival_to(PortId::new(port)).unwrap(), Decision::Accept);
        }
        assert!(r.switch().is_full());
    }

    #[test]
    fn pushes_out_longest_queue_when_full() {
        let mut r = runner(2, 4);
        for _ in 0..4 {
            r.arrival_to(PortId::new(1)).unwrap();
        }
        // Arrival to the empty queue 0 must evict from queue 1.
        let d = r.arrival_to(PortId::new(0)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(1)));
        assert_eq!(r.switch().queue(PortId::new(0)).len(), 1);
        assert_eq!(r.switch().queue(PortId::new(1)).len(), 3);
    }

    #[test]
    fn drops_when_own_queue_is_longest() {
        let mut r = runner(2, 4);
        for _ in 0..3 {
            r.arrival_to(PortId::new(1)).unwrap();
        }
        r.arrival_to(PortId::new(0)).unwrap();
        assert!(r.switch().is_full());
        // Queue 1 has 3 packets; another arrival there makes it the longest.
        assert_eq!(r.arrival_to(PortId::new(1)).unwrap(), Decision::Drop);
    }

    #[test]
    fn virtual_add_breaks_near_ties() {
        let mut r = runner(2, 4);
        // Queue 0: 2 packets, queue 1: 2 packets — buffer full.
        for _ in 0..2 {
            r.arrival_to(PortId::new(0)).unwrap();
            r.arrival_to(PortId::new(1)).unwrap();
        }
        // Arrival to queue 0 makes it virtually 3 long: it is the longest,
        // so the packet is dropped (case 3), not swapped.
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Drop);
    }

    #[test]
    fn equal_length_tie_prefers_larger_work() {
        let mut r = runner(3, 6);
        // Queues 0 (w=1) and 2 (w=3) both get 3 packets.
        for _ in 0..3 {
            r.arrival_to(PortId::new(0)).unwrap();
            r.arrival_to(PortId::new(2)).unwrap();
        }
        assert!(r.switch().is_full());
        // Arrival to queue 1: queues 0 and 2 tie at virtual length 3;
        // LQD evicts from the one with larger required processing (2).
        let d = r.arrival_to(PortId::new(1)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(2)));
    }

    #[test]
    fn balances_queues_under_single_port_flood() {
        let mut r = runner(4, 8);
        for _ in 0..8 {
            r.arrival_to(PortId::new(3)).unwrap();
        }
        // Flood ports 0..3 evenly afterwards; LQD converges toward balance.
        for _ in 0..8 {
            for port in 0..4 {
                let _ = r.arrival_to(PortId::new(port)).unwrap();
            }
        }
        let lens: Vec<usize> = (0..4)
            .map(|p| r.switch().queue(PortId::new(p)).len())
            .collect();
        assert_eq!(lens.iter().sum::<usize>(), 8);
        assert!(lens.iter().all(|&l| l == 2), "unbalanced: {lens:?}");
        r.switch().check_invariants().unwrap();
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(Lqd::new().name(), "LQD");
    }
}
