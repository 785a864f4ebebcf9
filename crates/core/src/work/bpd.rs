//! Biggest-Packet-Drop (BPD) and its singleton-sparing variant BPD1.

use smbm_switch::{PortId, WorkPacket, WorkQueue, WorkSwitch};

use crate::{Decision, Policy};

/// **BPD** — push-out policy that, on congestion, evicts from the non-empty
/// queue with the *largest processing requirement*, trying to keep the cheap
/// packets.
///
/// On arrival at port `i`, let `Q_j` be the non-empty queue with the largest
/// requirement (largest index on ties, consistent with the paper's sorted
/// ordering). Then:
///
/// 1. if the buffer is not full, accept;
/// 2. if the buffer is full and `w_i <= w_j`, push out the tail of `Q_j` and
///    accept;
/// 3. otherwise drop.
///
/// Theorem 5 shows BPD is at least `H_k ≈ ln k`-competitive: it starves all
/// but the cheapest traffic class. The simulation section introduces
/// **BPD1** ([`Bpd::sparing_singletons`]), which never pushes out the last
/// packet of a queue and therefore keeps more ports active.
#[derive(Debug, Clone, Copy)]
pub struct Bpd {
    /// When true (BPD1), queues holding a single packet are not victimized.
    spare_singletons: bool,
}

impl Default for Bpd {
    fn default() -> Self {
        Self::new()
    }
}

impl Bpd {
    /// Creates plain BPD.
    pub fn new() -> Self {
        Bpd {
            spare_singletons: false,
        }
    }

    /// Creates BPD1: like BPD but never pushes out the last packet in a
    /// queue (avoids artificially deactivating ports).
    pub fn sparing_singletons() -> Self {
        Bpd {
            spare_singletons: true,
        }
    }

    /// Whether this instance is the BPD1 variant.
    pub fn spares_singletons(&self) -> bool {
        self.spare_singletons
    }

    /// The push-out victim: the eligible queue with the largest requirement
    /// (largest index breaks ties). BPD1 only considers queues with at least
    /// two packets.
    fn victim(&self, switch: &WorkSwitch) -> Option<PortId> {
        let min_len = if self.spare_singletons { 2 } else { 1 };
        let mut best: Option<(PortId, u32)> = None;
        for (port, q) in switch.queues() {
            if q.len() < min_len {
                continue;
            }
            let w = q.work().cycles();
            if best.is_none_or(|(_, bw)| w >= bw) {
                best = Some((port, w));
            }
        }
        best.map(|(p, _)| p)
    }
}

impl Policy<WorkQueue> for Bpd {
    fn name(&self) -> &str {
        if self.spare_singletons {
            "BPD1"
        } else {
            "BPD"
        }
    }

    fn decide(&mut self, switch: &WorkSwitch, pkt: WorkPacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        match self.victim(switch) {
            Some(victim) if pkt.work() <= switch.queue(victim).work() => {
                if victim == pkt.port() {
                    // Evicting our own tail to admit an identical packet is a
                    // no-op; the paper's case (3) drops here.
                    Decision::Drop
                } else {
                    Decision::PushOut(victim)
                }
            }
            _ => Decision::Drop,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkRunner;
    use smbm_switch::WorkSwitchConfig;

    fn runner(policy: Bpd, k: u32, b: usize) -> WorkRunner<Bpd> {
        WorkRunner::new(WorkSwitchConfig::contiguous(k, b).unwrap(), policy, 1)
    }

    #[test]
    fn greedy_while_space_remains() {
        let mut r = runner(Bpd::new(), 3, 3);
        for port in [2, 1, 0] {
            assert_eq!(r.arrival_to(PortId::new(port)).unwrap(), Decision::Accept);
        }
    }

    #[test]
    fn evicts_biggest_requirement_first() {
        let mut r = runner(Bpd::new(), 3, 3);
        r.arrival_to(PortId::new(1)).unwrap();
        r.arrival_to(PortId::new(2)).unwrap();
        r.arrival_to(PortId::new(2)).unwrap();
        assert!(r.switch().is_full());
        // A 1-cycle arrival evicts from the w=3 queue.
        let d = r.arrival_to(PortId::new(0)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(2)));
        // Another 1-cycle arrival evicts the remaining w=3 packet.
        let d = r.arrival_to(PortId::new(0)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(2)));
        // Next victim class is w=2.
        let d = r.arrival_to(PortId::new(0)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(1)));
        // Now only 1-cycle packets remain; arrival to port 0 is its own class.
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Drop);
        r.switch().check_invariants().unwrap();
    }

    #[test]
    fn drops_bigger_arrival_than_any_resident() {
        let cfg = WorkSwitchConfig::new(
            2,
            vec![smbm_switch::Work::new(1), smbm_switch::Work::new(3)],
        )
        .unwrap();
        let mut r = WorkRunner::new(cfg, Bpd::new(), 1);
        r.arrival_to(PortId::new(0)).unwrap();
        r.arrival_to(PortId::new(0)).unwrap();
        // Buffer full of w=1; a w=3 arrival must not displace them.
        assert_eq!(r.arrival_to(PortId::new(1)).unwrap(), Decision::Drop);
    }

    #[test]
    fn equal_work_arrival_may_displace() {
        // Paper case (2) is `i <= j`, which admits equality: an arrival of the
        // same class as the biggest resident class displaces it when it is a
        // different queue.
        let cfg = WorkSwitchConfig::new(2, vec![smbm_switch::Work::new(2); 2]).unwrap();
        let mut r = WorkRunner::new(cfg, Bpd::new(), 1);
        r.arrival_to(PortId::new(1)).unwrap();
        r.arrival_to(PortId::new(1)).unwrap();
        let d = r.arrival_to(PortId::new(0)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(1)));
    }

    #[test]
    fn bpd1_spares_last_packet() {
        let mut r = runner(Bpd::sparing_singletons(), 3, 3);
        r.arrival_to(PortId::new(2)).unwrap(); // singleton w=3
        r.arrival_to(PortId::new(1)).unwrap();
        r.arrival_to(PortId::new(1)).unwrap(); // w=2 queue has two
        assert!(r.switch().is_full());
        // BPD would evict from queue 2; BPD1 skips the singleton and evicts
        // from the w=2 queue instead.
        let d = r.arrival_to(PortId::new(0)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(1)));
        assert_eq!(r.switch().queue(PortId::new(2)).len(), 1);
    }

    #[test]
    fn bpd1_drops_when_all_queues_are_singletons() {
        let mut r = runner(Bpd::sparing_singletons(), 3, 3);
        for port in 0..3 {
            r.arrival_to(PortId::new(port)).unwrap();
        }
        assert!(r.switch().is_full());
        assert_eq!(r.arrival_to(PortId::new(0)).unwrap(), Decision::Drop);
        assert_eq!(r.switch().counters().pushed_out(), 0);
    }

    #[test]
    fn names_distinguish_variants() {
        assert_eq!(Bpd::new().name(), "BPD");
        assert_eq!(Bpd::sparing_singletons().name(), "BPD1");
        assert!(Bpd::sparing_singletons().spares_singletons());
    }

    #[test]
    fn theorem5_shape_starves_everything_but_cheapest() {
        // Full set of packets every slot: BPD ends up holding only 1-cycle
        // packets after the initial fill.
        let k = 4;
        let b = 12;
        let mut r = runner(Bpd::new(), k, b);
        for _ in 0..20 {
            for port in 0..k as usize {
                for _ in 0..b {
                    let _ = r.arrival_to(PortId::new(port)).unwrap();
                }
            }
            r.transmission();
            r.end_slot();
        }
        let q0 = r.switch().queue(PortId::new(0)).len();
        let others: usize = (1..k as usize)
            .map(|p| r.switch().queue(PortId::new(p)).len())
            .sum();
        assert!(q0 > 0);
        assert_eq!(others, 0, "BPD kept non-cheapest packets");
    }
}
