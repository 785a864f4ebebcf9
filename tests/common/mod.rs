//! Scan oracles for the indexed push-out policies.
//!
//! Each oracle is the original O(n) victim scan of one `smbm-core` policy,
//! kept verbatim as an independent [`Policy`] so the differential suites
//! can check the policy's shared arg-max selector (index and scan paths
//! alike) against a hand-written loop.
//!
//! [`trace_model`] is the same kind of oracle for the flat arrival trace,
//! and [`wire_model`] for the wire codec and the shard fanout.

#![allow(dead_code)] // each test crate uses its own subset

pub mod trace_model;
pub mod wire_model;

use smbm_core::{Decision, LwdTieBreak, Policy};
use smbm_switch::{
    CombinedPacket, CombinedQueue, CombinedSwitch, PortId, Value, ValuePacket, ValueQueue,
    ValueSwitch, WorkPacket, WorkQueue, WorkSwitch,
};

/// LWD by full scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanLwd {
    tie_break: LwdTieBreak,
}

impl ScanLwd {
    pub fn new(tie_break: LwdTieBreak) -> Self {
        ScanLwd { tie_break }
    }

    /// The queue with maximal total work once `arriving` is virtually added.
    pub fn heaviest_queue(&self, switch: &WorkSwitch, arriving: PortId) -> PortId {
        let mut best = PortId::new(0);
        let mut best_work = 0u64;
        let mut best_tie = 0u64;
        let mut first = true;
        for (port, q) in switch.queues() {
            let w = q.total_work()
                + if port == arriving {
                    q.work().as_u64()
                } else {
                    0
                };
            let tie = match self.tie_break {
                LwdTieBreak::MaxWork => q.work().as_u64(),
                LwdTieBreak::MaxLen => q.len() as u64,
                // Invert so that "larger tie value wins" selects min work.
                LwdTieBreak::MinWork => u64::MAX - q.work().as_u64(),
            };
            // `>=` lets later indices win exact ties, keeping selection total.
            if first || (w, tie) >= (best_work, best_tie) {
                best = port;
                best_work = w;
                best_tie = tie;
                first = false;
            }
        }
        best
    }
}

impl Policy<WorkQueue> for ScanLwd {
    fn name(&self) -> &str {
        "LWD"
    }

    fn decide(&mut self, switch: &WorkSwitch, pkt: WorkPacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        let heaviest = self.heaviest_queue(switch, pkt.port());
        if heaviest != pkt.port() {
            Decision::PushOut(heaviest)
        } else {
            Decision::Drop
        }
    }
}

/// Work-model LQD by full scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanLqd;

impl ScanLqd {
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

impl Policy<WorkQueue> for ScanLqd {
    fn name(&self) -> &str {
        "LQD"
    }

    fn decide(&mut self, switch: &WorkSwitch, pkt: WorkPacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        let longest = Self::longest_queue(switch, pkt.port());
        if longest != pkt.port() {
            Decision::PushOut(longest)
        } else {
            Decision::Drop
        }
    }
}

/// AWD(α) by full scan.
#[derive(Debug, Clone, Copy)]
pub struct ScanAlphaWd {
    alpha: f64,
}

impl ScanAlphaWd {
    pub fn new(alpha: f64) -> Self {
        ScanAlphaWd { alpha }
    }

    fn score_with(alpha: f64, work: u64, len: usize) -> f64 {
        if work == 0 || len == 0 {
            return 0.0;
        }
        (work as f64).powf(alpha) * (len as f64).powf(1.0 - alpha)
    }

    fn score(&self, work: u64, len: usize) -> f64 {
        Self::score_with(self.alpha, work, len)
    }

    /// The victim queue once `arriving` is virtually added; ties prefer the
    /// larger per-packet requirement, then the larger index (LWD's rule).
    pub fn victim(&self, switch: &WorkSwitch, arriving: PortId) -> PortId {
        let mut best = PortId::new(0);
        let mut best_score = f64::NEG_INFINITY;
        let mut best_tie = 0u64;
        for (port, q) in switch.queues() {
            let own = port == arriving;
            let work = q.total_work() + if own { q.work().as_u64() } else { 0 };
            let len = q.len() + usize::from(own);
            let score = self.score(work, len);
            let tie = q.work().as_u64();
            if score > best_score || (score == best_score && tie >= best_tie) {
                best = port;
                best_score = score;
                best_tie = tie;
            }
        }
        best
    }
}

impl Policy<WorkQueue> for ScanAlphaWd {
    fn name(&self) -> &str {
        "AWD"
    }

    fn decide(&mut self, switch: &WorkSwitch, pkt: WorkPacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        let victim = self.victim(switch, pkt.port());
        if victim != pkt.port() {
            Decision::PushOut(victim)
        } else {
            Decision::Drop
        }
    }
}

/// Value-model LQD by full scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanLqdValue;

impl ScanLqdValue {
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

impl Policy<ValueQueue> for ScanLqdValue {
    fn name(&self) -> &str {
        "LQD"
    }

    fn decide(&mut self, switch: &ValueSwitch, pkt: ValuePacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        Decision::PushOut(Self::longest_queue(switch, pkt))
    }
}

/// MRD by full scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanMrd;

impl ScanMrd {
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

impl Policy<ValueQueue> for ScanMrd {
    fn name(&self) -> &str {
        "MRD"
    }

    fn decide(&mut self, switch: &ValueSwitch, pkt: ValuePacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        Decision::PushOut(Self::max_ratio_queue(switch, pkt))
    }
}

/// MVD (or MVD1, sparing singletons) by full scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanMvd {
    spare_singletons: bool,
}

impl ScanMvd {
    pub fn new(spare_singletons: bool) -> Self {
        ScanMvd { spare_singletons }
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

impl Policy<ValueQueue> for ScanMvd {
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
        match self.victim(switch) {
            Some((victim, min_value)) if min_value < pkt.value().get() => Decision::PushOut(victim),
            _ => Decision::Drop,
        }
    }
}

/// WVD by full scan.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScanWvd;

impl ScanWvd {
    /// The queue maximizing `W_j / a_j = W_j * len_j / sum_j` once `pkt` is
    /// virtually added; ties prefer the smaller minimum value, then the
    /// larger index.
    pub fn max_ratio_queue(switch: &CombinedSwitch, pkt: CombinedPacket) -> PortId {
        let mut best: Option<(PortId, u128, u128, u64)> = None;
        for (port, q) in switch.queues() {
            let own = port == pkt.port();
            let len = q.len() as u128 + u128::from(own);
            if len == 0 {
                continue;
            }
            let work = (q.total_work() + if own { q.work().as_u64() } else { 0 }) as u128;
            let sum = q.total_value() as u128 + if own { pkt.value().get() as u128 } else { 0 };
            let num = work * len; // ratio = num / sum
            let min = {
                let resident = q.min_value().map_or(u64::MAX, Value::get);
                if own {
                    resident.min(pkt.value().get())
                } else {
                    resident
                }
            };
            let better = match &best {
                None => true,
                Some((_, bnum, bsum, bmin)) => {
                    let lhs = num * bsum;
                    let rhs = bnum * sum;
                    lhs > rhs || (lhs == rhs && min <= *bmin)
                }
            };
            if better {
                best = Some((port, num, sum, min));
            }
        }
        best.map(|(p, _, _, _)| p)
            .expect("destination queue non-empty after virtual add")
    }
}

impl Policy<CombinedQueue> for ScanWvd {
    fn name(&self) -> &str {
        "WVD"
    }

    fn decide(&mut self, switch: &CombinedSwitch, pkt: CombinedPacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        Decision::PushOut(Self::max_ratio_queue(switch, pkt))
    }
}
