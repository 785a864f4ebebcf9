//! An interpolation family between LQD and LWD, for ablating *what* the
//! push-out victim score should measure.

use smbm_switch::{PortId, WorkPacket, WorkQueue, WorkSwitch};

use crate::index::ArgMax;
use crate::{Decision, Policy};

/// **AWD(α)** — push out from the queue maximizing the geometric
/// interpolation `W_j^α * |Q_j|^(1-α)` (after virtually adding the arrival):
///
/// * `α = 0` reduces to LQD (queue length only);
/// * `α = 1` reduces to LWD (total work only);
/// * intermediate values trade the two off.
///
/// Not part of the paper; used by the `ablations` bench to show that the
/// *work* end of the spectrum is what buys LWD its constant
/// competitiveness, supporting the paper's Section III-B argument that "a
/// good policy has to account for the processing requirements explicitly".
///
/// Ties prefer the larger per-packet requirement, then the larger index
/// (LWD's rule). Victim selection scans below 32 ports and goes through an
/// incremental score index from 32 ports up.
#[derive(Debug, Clone)]
pub struct AlphaWd {
    alpha: f64,
    select: ArgMax<(u64, u64)>,
}

impl AlphaWd {
    /// Creates the policy with interpolation exponent `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 <= alpha <= 1.0`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&alpha),
            "alpha must lie in [0, 1], got {alpha}"
        );
        AlphaWd {
            alpha,
            select: ArgMax::default(),
        }
    }

    /// The interpolation exponent.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn score(alpha: f64, work: u64, len: usize) -> f64 {
        if work == 0 || len == 0 {
            return 0.0;
        }
        (work as f64).powf(alpha) * (len as f64).powf(1.0 - alpha)
    }

    /// Packs the `(score, tie)` pair of a queue holding `work` in `len`
    /// packets of `w` cycles into an ordered key. Scores are non-negative
    /// finite floats, so `to_bits` orders them.
    fn key(alpha: f64, work: u64, len: usize, w: u64) -> (u64, u64) {
        (Self::score(alpha, work, len).to_bits(), w)
    }

    fn port_key(alpha: f64, switch: &WorkSwitch, port: PortId) -> (u64, u64) {
        let q = switch.queue(port);
        Self::key(alpha, q.total_work(), q.len(), q.work().as_u64())
    }
}

impl Policy<WorkQueue> for AlphaWd {
    fn name(&self) -> &str {
        // A static name keeps the trait simple; the ablation harness labels
        // variants by alpha itself.
        "AWD"
    }

    fn decide(&mut self, switch: &WorkSwitch, pkt: WorkPacket) -> Decision {
        if !switch.is_full() {
            return Decision::Accept;
        }
        let q = switch.queue(pkt.port());
        let w = q.work().as_u64();
        let virtual_key = Self::key(self.alpha, q.total_work() + w, q.len() + 1, w);
        let victim = self.select.argmax_with(
            switch.ports(),
            |p| Some(Self::port_key(self.alpha, switch, p)),
            pkt.port(),
            virtual_key,
        );
        if victim != pkt.port() {
            Decision::PushOut(victim)
        } else {
            Decision::Drop
        }
    }

    fn wants_queue_events(&self, ports: usize) -> bool {
        self.select.wants_events(ports)
    }

    fn queues_changed(&mut self, switch: &WorkSwitch, ports: &[PortId]) {
        self.select.changed(switch.ports(), ports, |p| {
            Some(Self::port_key(self.alpha, switch, p))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Lqd, Lwd, WorkRunner};
    use smbm_switch::WorkSwitchConfig;

    #[test]
    #[should_panic(expected = "alpha must lie in [0, 1]")]
    fn rejects_out_of_range_alpha() {
        let _ = AlphaWd::new(1.5);
    }

    #[test]
    fn alpha_zero_matches_lqd_decisions() {
        let cfg = WorkSwitchConfig::contiguous(3, 6).unwrap();
        let mut awd = WorkRunner::new(cfg.clone(), AlphaWd::new(0.0), 1);
        let mut lqd = WorkRunner::new(cfg, Lqd::new(), 1);
        let pattern = [0, 1, 2, 2, 2, 0, 1, 0, 0, 1, 2, 1, 0];
        for &p in &pattern {
            let a = awd.arrival_to(PortId::new(p)).unwrap();
            let b = lqd.arrival_to(PortId::new(p)).unwrap();
            assert_eq!(a, b, "diverged at port {p}");
        }
    }

    #[test]
    fn alpha_one_matches_lwd_decisions() {
        let cfg = WorkSwitchConfig::contiguous(3, 6).unwrap();
        let mut awd = WorkRunner::new(cfg.clone(), AlphaWd::new(1.0), 1);
        let mut lwd = WorkRunner::new(cfg, Lwd::new(), 1);
        let pattern = [2, 2, 0, 0, 0, 0, 1, 1, 2, 0, 1, 2, 0];
        for &p in &pattern {
            let a = awd.arrival_to(PortId::new(p)).unwrap();
            let b = lwd.arrival_to(PortId::new(p)).unwrap();
            assert_eq!(a, b, "diverged at port {p}");
        }
    }

    #[test]
    fn intermediate_alpha_interpolates() {
        // Queue 0: many cheap packets (longest); queue 2: most work.
        let cfg = WorkSwitchConfig::contiguous(3, 8).unwrap();
        let setup = |alpha: f64| {
            let mut r = WorkRunner::new(cfg.clone(), AlphaWd::new(alpha), 1);
            for _ in 0..5 {
                r.arrival_to(PortId::new(0)).unwrap(); // W = 5, len 5
            }
            for _ in 0..3 {
                r.arrival_to(PortId::new(2)).unwrap(); // W = 9, len 3
            }
            r
        };
        // Pure length: victim is queue 0 (len 5 > 3).
        let mut r = setup(0.0);
        assert_eq!(
            r.arrival_to(PortId::new(1)).unwrap(),
            Decision::PushOut(PortId::new(0))
        );
        // Pure work: victim is queue 2 (W 9 > 5).
        let mut r = setup(1.0);
        assert_eq!(
            r.arrival_to(PortId::new(1)).unwrap(),
            Decision::PushOut(PortId::new(2))
        );
        // Halfway: sqrt(5*5) = 5 vs sqrt(9*3) = 5.196 -> queue 2.
        let mut r = setup(0.5);
        assert_eq!(
            r.arrival_to(PortId::new(1)).unwrap(),
            Decision::PushOut(PortId::new(2))
        );
    }

    #[test]
    fn accessors() {
        let p = AlphaWd::new(0.25);
        assert_eq!(p.alpha(), 0.25);
        assert_eq!(p.name(), "AWD");
    }
}
