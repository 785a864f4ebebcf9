//! Longest-Queue-Drop (LQD) in the heterogeneous-processing model.

use smbm_switch::{PortId, WorkPacket, WorkSwitch};

use crate::index::{apply_queue_changes, ScoreIndex, SelectMode};
use crate::Decision;

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
/// Victim selection is O(1) by default (an O(log n) walk when the arrival
/// owns the current maximum), via a [`ScoreIndex`] over
/// `(|Q_j|, w_j)`; [`Lqd::scan`] keeps the original O(n) scan as the
/// differential oracle.
#[derive(Debug, Clone, Default)]
pub struct Lqd {
    index: Option<ScoreIndex<(usize, u32)>>,
    mode: SelectMode,
}

impl Lqd {
    /// Creates the policy. Victim selection picks index or scan automatically
    /// by port count.
    pub fn new() -> Self {
        Lqd {
            index: None,
            mode: SelectMode::Auto,
        }
    }

    /// Creates LQD with victim selection by full scan instead of the
    /// incremental index (differential-test oracle).
    pub fn scan() -> Self {
        Lqd {
            index: None,
            mode: SelectMode::Scan,
        }
    }

    /// Creates LQD with the incremental index forced on regardless of port
    /// count (differential tests exercise it at small `n`).
    pub fn indexed() -> Self {
        Lqd {
            index: None,
            mode: SelectMode::Indexed,
        }
    }

    fn port_key(switch: &WorkSwitch, port: PortId) -> (usize, u32) {
        let q = switch.queue(port);
        (q.len(), q.work().cycles())
    }

    /// Indexed equivalent of [`Lqd::longest_queue`].
    fn indexed_longest(&mut self, switch: &WorkSwitch, arriving: PortId) -> PortId {
        if self
            .index
            .as_ref()
            .is_none_or(|i| i.ports() != switch.ports())
        {
            let mut idx = ScoreIndex::new(switch.ports());
            idx.rebuild_with(|i| Some(Self::port_key(switch, PortId::new(i))));
            self.index = Some(idx);
        }
        let (len, cycles) = Self::port_key(switch, arriving);
        self.index
            .as_ref()
            .expect("index built above")
            .max_with(arriving, (len + 1, cycles))
    }

    /// The queue LQD considers fullest once `arriving` is virtually added:
    /// ties go to the largest required processing, then the largest index.
    pub fn longest_queue(switch: &WorkSwitch, arriving: PortId) -> PortId {
        let mut best = PortId::new(0);
        let mut best_key = (0usize, 0u32);
        for (port, q) in switch.queues() {
            let virtual_len = q.len() + usize::from(port == arriving);
            let key = (virtual_len, q.work().cycles());
            // `>=` makes later indices win ties, keeping selection total.
            if key >= best_key {
                best = port;
                best_key = key;
            }
        }
        best
    }
}

impl super::WorkPolicy for Lqd {
    fn name(&self) -> &str {
        "LQD"
    }

    fn decide(&mut self, switch: &WorkSwitch, pkt: WorkPacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        let longest = if self.mode.use_index(switch.ports()) {
            self.indexed_longest(switch, pkt.port())
        } else {
            Self::longest_queue(switch, pkt.port())
        };
        if longest != pkt.port() {
            Decision::PushOut(longest)
        } else {
            Decision::Drop
        }
    }

    fn wants_queue_events(&self, ports: usize) -> bool {
        self.mode.use_index(ports)
    }

    fn queue_changed(&mut self, switch: &WorkSwitch, port: PortId) {
        if let Some(idx) = self.index.as_mut() {
            if idx.ports() == switch.ports() {
                idx.set(port, Some(Self::port_key(switch, port)));
            }
        }
    }

    fn queues_changed(&mut self, switch: &WorkSwitch, ports: &[PortId]) {
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
    use crate::work::{WorkPolicy, WorkRunner};
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
