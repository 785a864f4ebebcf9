//! Policies and references for the **combined model** (extension): per-port
//! work requirements (Section III) *and* per-packet values (Section IV),
//! objective = total transmitted value.
//!
//! This is the direction the paper's conclusion points at; nothing here is
//! claimed to carry a competitive bound. The centerpiece is
//! [`Wvd`] (Work-per-Value-Drop), which evicts from the queue maximizing
//! `W_j / a_j` — outstanding work per unit of average value. It degenerates
//! to **LWD** when all values are equal (`a_j` constant) and to **MRD** when
//! all works are 1 (`W_j = |Q_j|`), unifying the paper's two headline
//! policies.

use std::cmp::Reverse;

use smbm_switch::{
    ArrivalOutcome, CombinedPacket, CombinedQueue, CombinedSwitch, Counters, DropReason, PortId,
    RatioKey, Value,
};

use crate::index::ArgMax;
use crate::{CombinedPolicy, Decision, Greedy, Policy};

// ---------------------------------------------------------------------
// Policies
// ---------------------------------------------------------------------

/// LQD transplanted to the combined model: evict the minimal-value packet
/// of the longest queue (virtual add; ties prefer the smaller minimum
/// value, then the larger index).
#[derive(Debug, Clone, Copy, Default)]
pub struct LqdCombined {
    _priv: (),
}

impl LqdCombined {
    /// Creates the policy.
    pub fn new() -> Self {
        LqdCombined { _priv: () }
    }
}

impl Policy<CombinedQueue> for LqdCombined {
    fn name(&self) -> &str {
        "LQD"
    }

    fn decide(&mut self, switch: &CombinedSwitch, pkt: CombinedPacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        let mut best = PortId::new(0);
        let mut best_len = 0usize;
        let mut best_min = u64::MAX;
        let mut first = true;
        for (port, q) in switch.queues() {
            let own = port == pkt.port();
            let len = q.len() + usize::from(own);
            let min = {
                let resident = q.min_value().map_or(u64::MAX, Value::get);
                if own {
                    resident.min(pkt.value().get())
                } else {
                    resident
                }
            };
            let better = first || len > best_len || (len == best_len && min <= best_min);
            if better {
                best = port;
                best_len = len;
                best_min = min;
                first = false;
            }
        }
        Decision::PushOut(best)
    }
}

/// LWD transplanted to the combined model: evict the minimal-value packet
/// of the queue with the most outstanding work (virtual add; ties prefer
/// the larger per-packet requirement, then the larger index).
#[derive(Debug, Clone, Copy, Default)]
pub struct LwdCombined {
    _priv: (),
}

impl LwdCombined {
    /// Creates the policy.
    pub fn new() -> Self {
        LwdCombined { _priv: () }
    }
}

impl Policy<CombinedQueue> for LwdCombined {
    fn name(&self) -> &str {
        "LWD"
    }

    fn decide(&mut self, switch: &CombinedSwitch, pkt: CombinedPacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        let mut best = PortId::new(0);
        let mut best_key = (0u64, 0u64);
        let mut first = true;
        for (port, q) in switch.queues() {
            let own = port == pkt.port();
            let work = q.total_work() + if own { q.work().as_u64() } else { 0 };
            let key = (work, q.work().as_u64());
            if first || key >= best_key {
                best = port;
                best_key = key;
                first = false;
            }
        }
        Decision::PushOut(best)
    }
}

/// **WVD — Work-per-Value-Drop**, this reproduction's candidate policy for
/// the combined model: evict the minimal-value packet of the queue
/// maximizing `W_j / a_j` (outstanding work per unit of average value,
/// virtual add), computed exactly by cross-multiplication.
///
/// Degenerations (tested): unit values → LWD; unit works → MRD.
///
/// Victim selection is an O(n) scan of `(W_j·|Q_j|/S_j, Reverse(min_j))`
/// over the non-empty queues below 32 ports (ties prefer the smaller
/// minimum value, then the larger index); from 32 ports up it is O(1) (an
/// O(log n) walk when the arrival owns the current maximum) through an
/// incremental score index over the same keys.
#[derive(Debug, Clone, Default)]
pub struct Wvd {
    select: ArgMax<(RatioKey, Reverse<u64>)>,
}

impl Wvd {
    /// Creates the policy.
    pub fn new() -> Self {
        Self::default()
    }

    /// `port`'s resident key, `None` for an empty queue (which does not
    /// participate in victim selection).
    fn port_key(switch: &CombinedSwitch, port: PortId) -> Option<(RatioKey, Reverse<u64>)> {
        let q = switch.queue(port);
        let len = q.len() as u128;
        if len == 0 {
            return None;
        }
        let num = q.total_work() as u128 * len;
        let sum = q.total_value() as u128;
        let min = q.min_value().map_or(u64::MAX, Value::get);
        Some((RatioKey::new(num, sum), Reverse(min)))
    }
}

impl Policy<CombinedQueue> for Wvd {
    fn name(&self) -> &str {
        "WVD"
    }

    fn decide(&mut self, switch: &CombinedSwitch, pkt: CombinedPacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        let q = switch.queue(pkt.port());
        let len = q.len() as u128 + 1;
        let work = (q.total_work() + q.work().as_u64()) as u128;
        let sum = q.total_value() as u128 + pkt.value().get() as u128;
        let min = q
            .min_value()
            .map_or(u64::MAX, Value::get)
            .min(pkt.value().get());
        let virtual_key = (RatioKey::new(work * len, sum), Reverse(min));
        Decision::PushOut(self.select.argmax_with(
            switch.ports(),
            |p| Self::port_key(switch, p),
            pkt.port(),
            virtual_key,
        ))
    }

    fn wants_queue_events(&self, ports: usize) -> bool {
        self.select.wants_events(ports)
    }

    fn queues_changed(&mut self, switch: &CombinedSwitch, ports: &[PortId]) {
        self.select
            .changed(switch.ports(), ports, |p| Self::port_key(switch, p));
    }
}

/// Density-greedy analogue of MVD: evict the globally least *dense* packet
/// (value per cycle, using the queue's minimum value and its per-packet
/// work) when the arrival is strictly denser; otherwise drop.
#[derive(Debug, Clone, Copy, Default)]
pub struct DensityMvd {
    _priv: (),
}

impl DensityMvd {
    /// Creates the policy.
    pub fn new() -> Self {
        DensityMvd { _priv: () }
    }
}

impl Policy<CombinedQueue> for DensityMvd {
    fn name(&self) -> &str {
        "MVD-D"
    }

    fn decide(&mut self, switch: &CombinedSwitch, pkt: CombinedPacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        // Find the queue whose minimum-value packet has the lowest density
        // v/w (exact comparison by cross-multiplication); ties prefer the
        // longer queue.
        let mut victim: Option<(PortId, u64, u64, usize)> = None; // (port, v, w, len)
        for (port, q) in switch.queues() {
            let Some(v) = q.min_value() else { continue };
            let v = v.get();
            let w = q.work().as_u64();
            let better = match victim {
                None => true,
                Some((_, bv, bw, blen)) => {
                    let lhs = v as u128 * bw as u128;
                    let rhs = bv as u128 * w as u128;
                    lhs < rhs || (lhs == rhs && q.len() > blen)
                }
            };
            if better {
                victim = Some((port, v, w, q.len()));
            }
        }
        let (port, v, w, _) = victim.expect("full buffer has non-empty queue");
        // Arrival density vs victim density, exactly.
        let arrival_denser =
            (pkt.value().get() as u128) * (w as u128) > (v as u128) * (pkt.work().as_u64() as u128);
        if arrival_denser {
            Decision::PushOut(port)
        } else {
            Decision::Drop
        }
    }
}

/// Names of the bundled combined-model policies.
pub const COMBINED_POLICY_NAMES: &[&str] = &["GREEDY", "LQD", "LWD", "MVD-D", "WVD"];

/// Instantiates a combined-model policy by name (case-insensitive).
pub fn combined_policy_by_name(name: &str) -> Option<Box<dyn CombinedPolicy>> {
    match name.to_ascii_uppercase().as_str() {
        "GREEDY" => Some(Box::new(Greedy::new())),
        "LQD" => Some(Box::new(LqdCombined::new())),
        "LWD" => Some(Box::new(LwdCombined::new())),
        "MVD-D" => Some(Box::new(DensityMvd::new())),
        "WVD" => Some(Box::new(Wvd::new())),
        _ => None,
    }
}

// ---------------------------------------------------------------------
// OPT surrogate
// ---------------------------------------------------------------------

/// Single-pool density-greedy OPT surrogate for the combined model: the
/// whole buffer is one pool; each slot, `cores` distinct packets with the
/// highest value-per-remaining-cycle receive one cycle; admission evicts
/// the least dense packet for a strictly denser arrival.
#[derive(Debug, Clone)]
pub struct CombinedPqOpt {
    buffer: usize,
    cores: u32,
    /// (value, residual cycles) per resident packet.
    packets: Vec<(u64, u32)>,
    /// Transmission-phase buffers (packet indices by density, and the
    /// completed ones), kept to reuse their allocations.
    order: Vec<usize>,
    remove: Vec<usize>,
    counters: Counters,
}

impl CombinedPqOpt {
    /// Creates the surrogate.
    ///
    /// # Panics
    ///
    /// Panics if `buffer` or `cores` is zero.
    pub fn new(buffer: usize, cores: u32) -> Self {
        assert!(buffer > 0, "buffer must be positive");
        assert!(cores > 0, "core count must be positive");
        CombinedPqOpt {
            buffer,
            cores,
            packets: Vec::new(),
            order: Vec::new(),
            remove: Vec::new(),
            counters: Counters::new(),
        }
    }

    /// Core count.
    pub fn cores(&self) -> u32 {
        self.cores
    }

    /// Packets currently resident.
    pub fn occupancy(&self) -> usize {
        self.packets.len()
    }

    /// Lifetime accounting.
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// Total value transmitted.
    pub fn transmitted_value(&self) -> u64 {
        self.counters.transmitted_value()
    }

    /// The resident packets as `(value, residual cycles)`, in buffer
    /// order (which breaks density ties).
    pub fn residents(&self) -> &[(u64, u32)] {
        &self.packets
    }

    /// Offers one packet, reporting its fate. The single shared queue has
    /// no per-port structure, so push-outs name port 0.
    pub fn offer(&mut self, pkt: CombinedPacket) -> ArrivalOutcome {
        let v = pkt.value().get();
        let w = pkt.work().cycles();
        self.counters.record_arrival(v);
        if self.packets.len() < self.buffer {
            self.counters.record_admission(v);
            self.packets.push((v, w));
            return ArrivalOutcome::Admitted;
        }
        // Least dense resident: min v/residual.
        let (idx, &(rv, rr)) = self
            .packets
            .iter()
            .enumerate()
            .min_by(|&(_, &(av, ar)), &(_, &(bv, br))| {
                (av as u128 * br as u128).cmp(&(bv as u128 * ar as u128))
            })
            .expect("full buffer non-empty");
        if (v as u128) * (rr as u128) > (rv as u128) * (w as u128) {
            self.packets.swap_remove(idx);
            self.counters.record_push_out(rv);
            self.counters.record_admission(v);
            self.packets.push((v, w));
            ArrivalOutcome::PushedOut(PortId::new(0))
        } else {
            self.counters.record_drop(DropReason::BufferFull, v);
            ArrivalOutcome::Dropped(DropReason::BufferFull)
        }
    }

    /// Runs one transmission phase: the `cores` densest distinct packets
    /// each receive a cycle. Returns the value transmitted.
    pub fn transmission(&mut self) -> u64 {
        let served = (self.cores as usize).min(self.packets.len());
        if served == 0 {
            return 0;
        }
        // Partial-select the `served` densest packets by v/residual, ties to
        // the lower index: the same set a stable sort by density puts first.
        let packets = &self.packets;
        self.order.clear();
        self.order.extend(0..packets.len());
        if served < packets.len() {
            self.order.select_nth_unstable_by(served - 1, |&a, &b| {
                let (av, ar) = packets[a];
                let (bv, br) = packets[b];
                (bv as u128 * ar as u128)
                    .cmp(&(av as u128 * br as u128))
                    .then(a.cmp(&b))
            });
        }
        let mut sent = 0;
        self.remove.clear();
        for &i in &self.order[..served] {
            self.counters.record_cycles(1);
            let (v, residual) = &mut self.packets[i];
            *residual -= 1;
            if *residual == 0 {
                sent += *v;
                self.counters.record_transmission(*v, 0);
                self.remove.push(i);
            }
        }
        // Highest index first, so no pending index is moved by a swap_remove.
        self.remove.sort_unstable_by(|a, b| b.cmp(a));
        for &i in &self.remove {
            self.packets.swap_remove(i);
        }
        sent
    }

    /// Discards every resident packet, returning how many were discarded.
    pub fn flush(&mut self) -> u64 {
        let n = self.packets.len() as u64;
        let value: u64 = self.packets.iter().map(|&(v, _)| v).sum();
        self.packets.clear();
        self.counters.record_flush(n, value);
        n
    }

    /// Verifies occupancy and conservation.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.packets.len() > self.buffer {
            return Err("occupancy exceeds buffer".into());
        }
        if self.packets.iter().any(|&(_, r)| r == 0) {
            return Err("zero-residual packet resident".into());
        }
        self.counters
            .check_conservation(self.packets.len())
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CombinedRunner;
    use smbm_switch::WorkSwitchConfig;

    fn cfg(k: u32, b: usize) -> WorkSwitchConfig {
        WorkSwitchConfig::contiguous(k, b).unwrap()
    }

    fn pkt(config: &WorkSwitchConfig, port: usize, v: u64) -> CombinedPacket {
        let p = PortId::new(port);
        CombinedPacket::new(p, config.work(p), Value::new(v))
    }

    #[test]
    fn registry_resolves_all() {
        for name in COMBINED_POLICY_NAMES {
            assert_eq!(combined_policy_by_name(name).unwrap().name(), *name);
        }
        assert!(combined_policy_by_name("nope").is_none());
    }

    #[test]
    fn wvd_prefers_heavy_cheap_queues() {
        // Queue 1 (w=2): two value-1 packets: W=4, a=1, ratio 4.
        // Queue 0 (w=1): two value-9 packets: W=2, a=9, ratio 2/9.
        let c = cfg(2, 4);
        let mut r = CombinedRunner::new(c.clone(), Wvd::new(), 1);
        r.arrival(pkt(&c, 1, 1)).unwrap();
        r.arrival(pkt(&c, 1, 1)).unwrap();
        r.arrival(pkt(&c, 0, 9)).unwrap();
        r.arrival(pkt(&c, 0, 9)).unwrap();
        let d = r.arrival(pkt(&c, 0, 5)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(1)));
        r.switch().check_invariants().unwrap();
    }

    #[test]
    fn wvd_degenerates_to_lwd_on_unit_values() {
        let c = cfg(3, 6);
        let mut wvd = CombinedRunner::new(c.clone(), Wvd::new(), 1);
        let mut lwd = CombinedRunner::new(c.clone(), LwdCombined::new(), 1);
        let pattern = [0, 2, 2, 1, 0, 0, 2, 1, 1, 0, 2, 2, 0, 1];
        for &p in &pattern {
            let a = wvd.arrival(pkt(&c, p, 1)).unwrap();
            let b = lwd.arrival(pkt(&c, p, 1)).unwrap();
            assert_eq!(a.admits(), b.admits(), "diverged at {p}");
        }
        for p in 0..3 {
            assert_eq!(
                wvd.switch().queue(PortId::new(p)).len(),
                lwd.switch().queue(PortId::new(p)).len()
            );
        }
    }

    #[test]
    fn wvd_degenerates_to_mrd_like_balance_on_unit_work() {
        // All works 1, value == port burst: WVD should reach the |Q_v| ∝ v
        // MRD fixed point (ratio = len^2/sum when W = len).
        let c = WorkSwitchConfig::homogeneous(4, 24).unwrap();
        let values = [1u64, 2, 3, 6];
        let mut r = CombinedRunner::new(c.clone(), Wvd::new(), 1);
        for _ in 0..24 {
            for (port, &v) in values.iter().enumerate() {
                let p = PortId::new(port);
                let _ = r
                    .arrival(CombinedPacket::new(p, c.work(p), Value::new(v)))
                    .unwrap();
            }
        }
        let lens: Vec<usize> = (0..4)
            .map(|p| r.switch().queue(PortId::new(p)).len())
            .collect();
        assert_eq!(lens.iter().sum::<usize>(), 24);
        for (i, (&got, want)) in lens.iter().zip([2usize, 4, 6, 12]).enumerate() {
            assert!(
                got.abs_diff(want) <= 2,
                "queue {i}: {got} vs ~{want} ({lens:?})"
            );
        }
    }

    #[test]
    fn density_mvd_keeps_dense_packets() {
        let c = cfg(2, 2);
        let mut r = CombinedRunner::new(c.clone(), DensityMvd::new(), 1);
        r.arrival(pkt(&c, 1, 2)).unwrap(); // density 1 (w=2)
        r.arrival(pkt(&c, 0, 1)).unwrap(); // density 1 (w=1)
                                           // Arrival with density 3 (w=1, v=3) evicts a density-1 packet.
        let d = r.arrival(pkt(&c, 0, 3)).unwrap();
        assert!(matches!(d, Decision::PushOut(_)));
        // Arrival with density 0.5 (w=2, v=1) is dropped.
        assert_eq!(r.arrival(pkt(&c, 1, 1)).unwrap(), Decision::Drop);
    }

    #[test]
    fn opt_prefers_dense_packets() {
        let config = cfg(2, 2);
        let mut opt = CombinedPqOpt::new(2, 1);
        opt.offer(pkt(&config, 1, 2)); // density 1
        opt.offer(pkt(&config, 1, 2)); // density 1
        opt.offer(pkt(&config, 0, 9)); // density 9: evicts one
        assert_eq!(opt.occupancy(), 2);
        // Densest first: the 9 completes in one cycle.
        assert_eq!(opt.transmission(), 9);
        opt.check_invariants().unwrap();
    }

    #[test]
    fn opt_serves_distinct_packets_per_slot() {
        let config = cfg(2, 4);
        let mut opt = CombinedPqOpt::new(4, 2);
        opt.offer(pkt(&config, 1, 8)); // w=2
        opt.offer(pkt(&config, 1, 6)); // w=2
                                       // Two cores: both 2-cycle packets advance; none complete yet.
        assert_eq!(opt.transmission(), 0);
        assert_eq!(opt.transmission(), 14);
        opt.check_invariants().unwrap();
    }
}
