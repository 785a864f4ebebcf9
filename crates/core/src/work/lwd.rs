//! Longest-Work-Drop (LWD) — the paper's main contribution (Section III).

use smbm_switch::{PortId, WorkPacket, WorkQueue, WorkSwitch};

use crate::index::{apply_queue_changes, ScoreIndex, SelectMode};
use crate::{Decision, Policy};

/// Tie-breaking rule used by [`Lwd`] when several queues attain the maximal
/// total work. The paper picks "maximal among those queues" (we read this as
/// the maximal processing requirement); the alternatives are exposed for the
/// ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LwdTieBreak {
    /// Prefer the queue with the largest per-packet requirement (paper).
    #[default]
    MaxWork,
    /// Prefer the queue with the most packets (LQD-flavoured).
    MaxLen,
    /// Prefer the queue with the smallest per-packet requirement.
    MinWork,
}

/// **LWD** — push-out policy that evicts from the queue with the most total
/// *work* (sum of residual processing), the quantity that actually occupies
/// the cores. Theorem 7 proves LWD is at most **2-competitive** for any
/// switch configuration; Theorem 6 gives a `4/3 − 6/B` lower bound, and the
/// `sqrt(2)` LQD lower bound applies when processing is uniform.
///
/// On arrival at port `i`, let `j* = argmax_j (W_j + [i = j] * w_i)` (total
/// work after virtually adding the arrival). Then:
///
/// 1. if the buffer is not full, accept;
/// 2. if the buffer is full and `i != j*`, push out the tail of `Q_{j*}` and
///    accept;
/// 3. otherwise drop.
///
/// With homogeneous processing `W_j = w * |Q_j|`, so LWD degenerates to LQD.
///
/// Victim selection on large switches goes through a [`ScoreIndex`] over
/// `(W_j, tie_j)`, repaired in O(log n) per changed port from the switch's
/// queue-change events: O(1) unless the arrival owns the current maximum,
/// an O(log n) walk otherwise. [`Lwd::scan`] keeps the original O(n) scan as
/// the differential oracle, and small switches scan regardless (the index
/// only pays off once the scan outgrows a couple of cache lines).
#[derive(Debug, Clone, Default)]
pub struct Lwd {
    tie_break: LwdTieBreak,
    index: Option<ScoreIndex<(u64, u64)>>,
    mode: SelectMode,
}

impl Lwd {
    /// Creates LWD with the paper's tie-breaking (largest requirement).
    pub fn new() -> Self {
        Self::with_tie_break(LwdTieBreak::MaxWork)
    }

    /// Creates LWD with an explicit tie-breaking rule (ablation).
    pub fn with_tie_break(tie_break: LwdTieBreak) -> Self {
        Lwd {
            tie_break,
            index: None,
            mode: SelectMode::Auto,
        }
    }

    /// Creates LWD with victim selection by full scan instead of the
    /// incremental index (differential-test oracle).
    pub fn scan() -> Self {
        Self::scan_with_tie_break(LwdTieBreak::MaxWork)
    }

    /// Scan-based LWD with an explicit tie-breaking rule.
    pub fn scan_with_tie_break(tie_break: LwdTieBreak) -> Self {
        Lwd {
            tie_break,
            index: None,
            mode: SelectMode::Scan,
        }
    }

    /// Creates LWD that always maintains the incremental index, regardless
    /// of switch size (differential tests, benches).
    pub fn indexed() -> Self {
        Self::indexed_with_tie_break(LwdTieBreak::MaxWork)
    }

    /// Always-indexed LWD with an explicit tie-breaking rule.
    pub fn indexed_with_tie_break(tie_break: LwdTieBreak) -> Self {
        Lwd {
            tie_break,
            index: None,
            mode: SelectMode::Indexed,
        }
    }

    /// The configured tie-breaking rule.
    pub fn tie_break(&self) -> LwdTieBreak {
        self.tie_break
    }

    /// The `(score, tie)` key of `port`'s resident queue under `tie_break`.
    fn key_for(switch: &WorkSwitch, port: PortId, tie_break: LwdTieBreak) -> (u64, u64) {
        let q = switch.queue(port);
        let tie = match tie_break {
            LwdTieBreak::MaxWork => q.work().as_u64(),
            LwdTieBreak::MaxLen => q.len() as u64,
            LwdTieBreak::MinWork => u64::MAX - q.work().as_u64(),
        };
        (q.total_work(), tie)
    }

    /// The `(score, tie)` key of `port`'s resident queue.
    fn port_key(&self, switch: &WorkSwitch, port: PortId) -> (u64, u64) {
        Self::key_for(switch, port, self.tie_break)
    }

    /// Indexed equivalent of [`Lwd::heaviest_queue`], rebuilding the index
    /// from scratch when absent or sized for a different switch.
    fn indexed_heaviest(&mut self, switch: &WorkSwitch, arriving: PortId) -> PortId {
        if self
            .index
            .as_ref()
            .is_none_or(|i| i.ports() != switch.ports())
        {
            let tie_break = self.tie_break;
            let mut idx = ScoreIndex::new(switch.ports());
            idx.rebuild_with(|i| Some(Self::key_for(switch, PortId::new(i), tie_break)));
            self.index = Some(idx);
        }
        let (w, tie) = self.port_key(switch, arriving);
        let virtual_key = (w + switch.queue(arriving).work().as_u64(), tie);
        self.index
            .as_ref()
            .expect("index built above")
            .max_with(arriving, virtual_key)
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

impl Policy<WorkQueue> for Lwd {
    fn name(&self) -> &str {
        match self.tie_break {
            LwdTieBreak::MaxWork => "LWD",
            LwdTieBreak::MaxLen => "LWD-maxlen",
            LwdTieBreak::MinWork => "LWD-minwork",
        }
    }

    fn decide(&mut self, switch: &WorkSwitch, pkt: WorkPacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        let heaviest = if self.mode.use_index(switch.ports()) {
            self.indexed_heaviest(switch, pkt.port())
        } else {
            self.heaviest_queue(switch, pkt.port())
        };
        if heaviest != pkt.port() {
            Decision::PushOut(heaviest)
        } else {
            Decision::Drop
        }
    }

    fn wants_queue_events(&self, ports: usize) -> bool {
        self.mode.use_index(ports)
    }

    fn queue_changed(&mut self, switch: &WorkSwitch, port: PortId) {
        let key = self.port_key(switch, port);
        if let Some(idx) = self.index.as_mut() {
            if idx.ports() == switch.ports() {
                idx.set(port, Some(key));
            }
        }
    }

    fn queues_changed(&mut self, switch: &WorkSwitch, ports: &[PortId]) {
        let tie_break = self.tie_break;
        if let Some(idx) = self.index.as_mut() {
            if idx.ports() == switch.ports() {
                apply_queue_changes(idx, ports, |i| {
                    Some(Self::key_for(switch, PortId::new(i), tie_break))
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::WorkRunner;
    use smbm_switch::WorkSwitchConfig;

    fn runner(k: u32, b: usize) -> WorkRunner<Lwd> {
        WorkRunner::new(WorkSwitchConfig::contiguous(k, b).unwrap(), Lwd::new(), 1)
    }

    #[test]
    fn greedy_while_space_remains() {
        let mut r = runner(3, 3);
        for port in 0..3 {
            assert_eq!(r.arrival_to(PortId::new(port)).unwrap(), Decision::Accept);
        }
    }

    #[test]
    fn pushes_out_most_work_not_most_packets() {
        // Queue 0 (w=1) holds 3 packets (W=3); queue 2 (w=3) holds 1 (W=3);
        // tie on work broken toward larger requirement; then make queue 2
        // strictly heavier to verify the primary key.
        let mut r = runner(3, 4);
        for _ in 0..3 {
            r.arrival_to(PortId::new(0)).unwrap();
        }
        r.arrival_to(PortId::new(2)).unwrap();
        assert!(r.switch().is_full());
        assert_eq!(r.switch().queue(PortId::new(0)).total_work(), 3);
        assert_eq!(r.switch().queue(PortId::new(2)).total_work(), 3);
        // Arrival to port 1 (w=2): works tie at 3 — tie-break on larger w
        // selects queue 2 even though queue 0 has three times the packets.
        let d = r.arrival_to(PortId::new(1)).unwrap();
        assert_eq!(d, Decision::PushOut(PortId::new(2)));
    }

    #[test]
    fn virtual_add_counts_own_arrival() {
        let mut r = runner(2, 4);
        // Queue 1 (w=2): 2 packets, W=4. Queue 0 (w=1): 2 packets, W=2.
        for _ in 0..2 {
            r.arrival_to(PortId::new(1)).unwrap();
            r.arrival_to(PortId::new(0)).unwrap();
        }
        assert!(r.switch().is_full());
        // Arrival to queue 1: virtually W=6, it is the heaviest => drop.
        assert_eq!(r.arrival_to(PortId::new(1)).unwrap(), Decision::Drop);
        // Arrival to queue 0: virtually W=3 < 4 => evict from queue 1.
        assert_eq!(
            r.arrival_to(PortId::new(0)).unwrap(),
            Decision::PushOut(PortId::new(1))
        );
    }

    #[test]
    fn residual_work_counts_for_victim_choice() {
        let mut r = runner(2, 2);
        r.arrival_to(PortId::new(1)).unwrap(); // w=2, W=2
        r.arrival_to(PortId::new(1)).unwrap(); // W=4
        r.transmission(); // head residual 1, W=3
        r.end_slot();
        assert_eq!(r.switch().queue(PortId::new(1)).total_work(), 3);
        // Arrival to port 0 (virtual W=1): queue 1 is heavier.
        assert_eq!(
            r.arrival_to(PortId::new(0)).unwrap(),
            Decision::PushOut(PortId::new(1))
        );
    }

    #[test]
    fn emulates_lqd_under_homogeneous_processing() {
        use crate::work::Lqd;
        let cfg = WorkSwitchConfig::homogeneous(3, 6).unwrap();
        let mut lwd = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
        let mut lqd = WorkRunner::new(cfg, Lqd::new(), 1);
        // A fixed arrival pattern: both policies must take identical actions.
        let pattern = [0, 1, 1, 2, 1, 0, 0, 1, 2, 2, 1, 0, 2, 2, 1];
        for &p in &pattern {
            let a = lwd.arrival_to(PortId::new(p)).unwrap();
            let b = lqd.arrival_to(PortId::new(p)).unwrap();
            assert_eq!(a, b, "diverged on arrival to port {p}");
        }
        for p in 0..3 {
            assert_eq!(
                lwd.switch().queue(PortId::new(p)).len(),
                lqd.switch().queue(PortId::new(p)).len()
            );
        }
    }

    #[test]
    fn tie_break_variants_differ() {
        let cfg = WorkSwitchConfig::contiguous(3, 4).unwrap();
        let mut maxw = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
        let mut minw = WorkRunner::new(cfg, Lwd::with_tie_break(LwdTieBreak::MinWork), 1);
        for r in [&mut maxw, &mut minw] {
            for _ in 0..3 {
                r.arrival_to(PortId::new(0)).unwrap();
            }
            r.arrival_to(PortId::new(2)).unwrap();
        }
        // Tie at W=3 between queue 0 (w=1) and queue 2 (w=3).
        assert_eq!(
            maxw.arrival_to(PortId::new(1)).unwrap(),
            Decision::PushOut(PortId::new(2))
        );
        assert_eq!(
            minw.arrival_to(PortId::new(1)).unwrap(),
            Decision::PushOut(PortId::new(0))
        );
    }

    #[test]
    fn names_reflect_tie_break() {
        assert_eq!(Lwd::new().name(), "LWD");
        assert_eq!(
            Lwd::with_tie_break(LwdTieBreak::MaxLen).name(),
            "LWD-maxlen"
        );
        assert_eq!(
            Lwd::with_tie_break(LwdTieBreak::MinWork).name(),
            "LWD-minwork"
        );
        assert_eq!(Lwd::new().tie_break(), LwdTieBreak::MaxWork);
    }

    #[test]
    fn theorem6_first_burst_distribution() {
        // k >= 6, burst: B x [1], B/4 x [2], B/6 x [3], B/12 x [6].
        // LWD ends up with W equalised: B/2 x [1] and all the larger packets.
        let b = 24usize;
        let cfg = WorkSwitchConfig::new(
            b,
            vec![
                smbm_switch::Work::new(1),
                smbm_switch::Work::new(2),
                smbm_switch::Work::new(3),
                smbm_switch::Work::new(6),
            ],
        )
        .unwrap();
        let mut r = WorkRunner::new(cfg, Lwd::new(), 1);
        for _ in 0..b {
            r.arrival_to(PortId::new(0)).unwrap();
        }
        for _ in 0..b / 4 {
            r.arrival_to(PortId::new(1)).unwrap();
        }
        for _ in 0..b / 6 {
            r.arrival_to(PortId::new(2)).unwrap();
        }
        for _ in 0..b / 12 {
            r.arrival_to(PortId::new(3)).unwrap();
        }
        let lens: Vec<usize> = (0..4)
            .map(|p| r.switch().queue(PortId::new(p)).len())
            .collect();
        // Total work equalised at B/2 per queue: 12 = 12x[1] = 6x[2] = 4x[3] = 2x[6].
        assert_eq!(lens, vec![b / 2, b / 4, b / 6, b / 12]);
        let works: Vec<u64> = (0..4)
            .map(|p| r.switch().queue(PortId::new(p)).total_work())
            .collect();
        assert!(works.iter().all(|&w| w == (b / 2) as u64), "{works:?}");
    }
}
