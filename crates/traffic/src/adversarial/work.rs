//! Lower-bound constructions for the heterogeneous-processing model
//! (Theorems 1-6).

use std::iter::repeat_n;

use smbm_switch::{PortId, WorkPacket, WorkSwitchConfig};

use super::{harmonic, WorkConstruction};
use crate::Trace;

/// One packet destined to the (zero-based) port of work class `class`
/// (one-based) in a contiguous configuration.
fn class_pkt(config: &WorkSwitchConfig, class: u32) -> WorkPacket {
    let port = PortId::new(class as usize - 1);
    WorkPacket::new(port, config.work(port))
}

/// **Theorem 1 (NHST ≥ kZ).** A burst of `B x [k]` arrives; NHST's static
/// threshold admits only `B/(kZ)` of it while OPT admits everything. Silence
/// until both drain, then repeat.
///
/// The predicted ratio accounts for threshold discreteness at finite `B`:
/// NHST admits `ceil(B/(kZ))` packets, so the exact ratio is
/// `B / ceil(B/(kZ))`, which converges to `kZ` as `B` grows.
pub fn nhst_lower_bound(k: u32, buffer: usize, episodes: usize) -> WorkConstruction {
    let config = WorkSwitchConfig::contiguous(k, buffer).expect("valid parameters");
    let mut episode = Trace::new();
    episode.push_slot(repeat_n(class_pkt(&config, k), buffer));
    // OPT holds B packets of work k on one port: k*B slots drain everything.
    episode.push_silence(k as usize * buffer);
    let trace = episode.repeated(episodes);
    let z = config.inverse_work_sum();
    let mut opt_caps = vec![0; k as usize];
    opt_caps[k as usize - 1] = buffer;
    let admitted = (buffer as f64 / (f64::from(k) * z)).ceil();
    WorkConstruction {
        name: format!("Thm1 NHST k={k} B={buffer}"),
        target_policy: "NHST",
        config,
        trace,
        opt_caps,
        predicted_ratio: buffer as f64 / admitted,
    }
}

/// **Theorem 2 (NEST ≥ n).** All traffic targets one port; NEST's equal
/// split admits only `B/n` of the burst while OPT admits everything.
pub fn nest_lower_bound(n: usize, buffer: usize, episodes: usize) -> WorkConstruction {
    let config = WorkSwitchConfig::homogeneous(n, buffer).expect("valid parameters");
    let mut episode = Trace::new();
    let port = PortId::new(0);
    episode.push_slot(repeat_n(WorkPacket::new(port, config.work(port)), buffer));
    episode.push_silence(buffer);
    let trace = episode.repeated(episodes);
    let mut opt_caps = vec![0; n];
    opt_caps[0] = buffer;
    WorkConstruction {
        name: format!("Thm2 NEST n={n} B={buffer}"),
        target_policy: "NEST",
        config,
        trace,
        opt_caps,
        predicted_ratio: n as f64,
    }
}

/// **Theorem 3 (NHDT ≥ (1/2)√(k ln k)).** The heavy classes `m+1, ..., k`
/// (about `√(k/ln k)` of them for the optimal `m = k − √(k/ln k)`) arrive in
/// bursts of `B`, heaviest first, followed by `B x [1]`; NHDT's harmonic
/// thresholds waste most of the buffer on the heavy packets. OPT keeps one
/// packet of each heavy class (replenished every `i` slots) and fills the
/// rest with `1`s. The episode repeats after `B − k + m` slots with *no*
/// drain — NHDT stays clogged.
///
/// The paper's proof text writes the burst classes as `k, ..., k−m`, but its
/// own algebra (OPT's heavy service rate `H_k − H_m`, NHDT admitting
/// `A/(k−m+1)` ones as the `(k−m+1)`-th arriving class) identifies the heavy
/// set as `m+1..=k`; we follow the algebra. The predicted ratio is the
/// proof's pre-asymptotic expression, which converges to `(1/2)√(k ln k)`.
pub fn nhdt_lower_bound(k: u32, buffer: usize, episodes: usize) -> WorkConstruction {
    let config = WorkSwitchConfig::contiguous(k, buffer).expect("valid parameters");
    // m = k - sqrt(k / ln k), clamped to a sane range.
    let m = optimal_m_nhdt(k);
    let mut episode = Trace::new();
    episode.push_slot(
        ((m + 1)..=k)
            .rev()
            .chain([1])
            .flat_map(|class| repeat_n(class_pkt(&config, class), buffer)),
    );
    // Keep OPT's heavy queues busy: class i reappears every i slots.
    let len = (buffer + m as usize).saturating_sub(k as usize);
    for t in 1..len.max(2) {
        episode.push_slot(
            ((m + 1)..=k)
                .filter(|&class| t % class as usize == 0)
                .map(|class| class_pkt(&config, class)),
        );
    }
    let trace = episode.repeated(episodes);
    let heavy_classes = (k - m) as usize;
    let mut opt_caps = vec![0; k as usize];
    opt_caps[0] = buffer.saturating_sub(heavy_classes + 1);
    for class in (m + 1)..=k {
        opt_caps[class as usize - 1] = 1;
    }
    // Pre-asymptotic ratio from the proof:
    // (1 + H_k − H_m) / (H_k − H_m + A / ((B − k + m)(k − m + 1))),
    // with A = B / H_k (NHDT's share for the fullest queue).
    let heavy_rate = harmonic(k) - harmonic(m);
    let a = buffer as f64 / harmonic(k);
    let denom_extra = a / (len.max(1) as f64 * f64::from(k - m + 1));
    WorkConstruction {
        name: format!("Thm3 NHDT k={k} B={buffer} m={m}"),
        target_policy: "NHDT",
        config,
        trace,
        opt_caps,
        predicted_ratio: (1.0 + heavy_rate) / (heavy_rate + denom_extra),
    }
}

fn optimal_m_nhdt(k: u32) -> u32 {
    let kf = f64::from(k);
    let m = kf - (kf / kf.ln().max(1.0)).sqrt();
    (m.round() as u32).clamp(1, k - 1)
}

/// **Theorem 4 (LQD ≥ √k).** `B x [1]` plus `B` packets of each of the `m`
/// heaviest classes; LQD balances queue *lengths*, starving the cheap class.
/// OPT keeps one of each heavy class (replenished) and `B - m` cheap ones.
pub fn lqd_work_lower_bound(k: u32, buffer: usize, episodes: usize) -> WorkConstruction {
    let config = WorkSwitchConfig::contiguous(k, buffer).expect("valid parameters");
    let m = (f64::from(k).sqrt().round() as u32).clamp(1, k - 1);
    let mut episode = Trace::new();
    episode.push_slot(
        std::iter::once(1)
            .chain((0..m).map(|j| k - j))
            .flat_map(|class| repeat_n(class_pkt(&config, class), buffer)),
    );
    for t in 1..buffer {
        episode.push_slot(
            ((k - m + 1)..=k)
                .filter(|&class| t % class as usize == 0)
                .map(|class| class_pkt(&config, class)),
        );
    }
    let trace = episode.repeated(episodes);
    let mut opt_caps = vec![0; k as usize];
    opt_caps[0] = buffer.saturating_sub(m as usize);
    for class in (k - m + 1)..=k {
        opt_caps[class as usize - 1] = 1;
    }
    // Pre-asymptotic ratio from the proof, with
    // beta = 1/k + ... + 1/(k-m+1); converges to sqrt(k) at m = sqrt(k).
    let beta = harmonic(k) - harmonic(k - m);
    let mf = f64::from(m);
    let bf = buffer as f64;
    let predicted = 1.0 + ((mf - 1.0) / mf - mf / bf) / (1.0 / mf + (1.0 - mf / bf) * beta);
    WorkConstruction {
        name: format!("Thm4 LQD k={k} B={buffer} m={m}"),
        target_policy: "LQD",
        config,
        trace,
        opt_caps,
        predicted_ratio: predicted,
    }
}

/// **Theorem 5 (BPD ≥ H_k).** Every slot a full set of classes arrives,
/// cheapest first; BPD fills up with `1`s and never lets anything else in,
/// transmitting one packet per slot while OPT's even split transmits `~H_k`
/// packet-equivalents per slot.
pub fn bpd_lower_bound(k: u32, buffer: usize, slots: usize) -> WorkConstruction {
    let config = WorkSwitchConfig::contiguous(k, buffer).expect("valid parameters");
    let per_class = (buffer / k as usize).max(1);
    let mut trace = Trace::new();
    // Slot 0: fill both sides. Cheapest classes first, as in the proof.
    trace.push_slot((1..=k).flat_map(|class| repeat_n(class_pkt(&config, class), buffer)));
    // Steady state: one packet of every class per slot keeps all queues fed.
    for _ in 1..slots {
        trace.push_slot((1..=k).map(|c| class_pkt(&config, c)));
    }
    let opt_caps = vec![per_class; k as usize];
    WorkConstruction {
        name: format!("Thm5 BPD k={k} B={buffer}"),
        target_policy: "BPD",
        config,
        trace,
        opt_caps,
        predicted_ratio: harmonic(k),
    }
}

/// **Theorem 6 (LWD ≥ 4/3 − 6/B).** The burst `B x [1], B/4 x [2],
/// B/6 x [3], B/12 x [6]` equalises LWD's per-queue work at `B/2`, halving
/// its cheap-class inventory; OPT keeps `B − 3` cheap packets and one of
/// each heavy class (replenished at each class's service rate).
pub fn lwd_lower_bound(buffer: usize, episodes: usize) -> WorkConstruction {
    assert!(
        buffer.is_multiple_of(12),
        "Theorem 6 needs B divisible by 12"
    );
    let works = vec![
        smbm_switch::Work::new(1),
        smbm_switch::Work::new(2),
        smbm_switch::Work::new(3),
        smbm_switch::Work::new(6),
    ];
    let config = WorkSwitchConfig::new(buffer, works).expect("valid parameters");
    let pkt = |port: usize| WorkPacket::new(PortId::new(port), config.work(PortId::new(port)));
    let mut episode = Trace::new();
    episode.push_slot(
        [
            (0, buffer),
            (1, buffer / 4),
            (2, buffer / 6),
            (3, buffer / 12),
        ]
        .into_iter()
        .flat_map(|(port, count)| repeat_n(pkt(port), count)),
    );
    let len = buffer.saturating_sub(3);
    for t in 1..len {
        episode.push_slot(
            [(1usize, 2usize), (2, 3), (3, 6)]
                .into_iter()
                .filter(|&(_, period)| t % period == 0)
                .map(|(port, _)| pkt(port)),
        );
    }
    let trace = episode.repeated(episodes);
    let opt_caps = vec![buffer - 3, 1, 1, 1];
    WorkConstruction {
        name: format!("Thm6 LWD B={buffer}"),
        target_policy: "LWD",
        config,
        trace,
        opt_caps,
        predicted_ratio: 4.0 / 3.0 - 6.0 / buffer as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nhst_shape() {
        let c = nhst_lower_bound(4, 12, 2);
        assert_eq!(c.config.ports(), 4);
        // Two episodes, each: 1 burst slot + 4*12 silence.
        assert_eq!(c.trace.slots(), 2 * (1 + 48));
        assert_eq!(c.trace.arrivals(), 2 * 12);
        assert_eq!(c.opt_caps, vec![0, 0, 0, 12]);
        // Z = 25/12, kZ = 25/3; NHST admits ceil(12/(25/3)) = 2 => ratio 6.
        assert!((c.predicted_ratio - 6.0).abs() < 1e-12);
        // Every packet targets the heaviest class.
        for pkt in c.trace.iter().flatten() {
            assert_eq!(pkt.work().cycles(), 4);
        }
    }

    #[test]
    fn nest_shape() {
        let c = nest_lower_bound(3, 9, 2);
        assert_eq!(c.trace.arrivals(), 18);
        assert_eq!(c.predicted_ratio, 3.0);
        assert!(c.config.is_homogeneous());
    }

    #[test]
    fn nhdt_shape() {
        let c = nhdt_lower_bound(16, 64, 1);
        assert!(c.trace.slots() >= 2);
        // First burst: the k - m heavy classes plus the cheap class, B each.
        let heavy = c.opt_caps.iter().filter(|&&cap| cap == 1).count();
        assert!(heavy >= 1);
        assert_eq!(c.trace.burst(0).len(), (heavy + 1) * 64);
        assert!(c.predicted_ratio > 1.0);
        // Heavy packets precede the cheap ones in the burst.
        let first = c.trace.burst(0);
        assert_eq!(first[0].work().cycles(), 16);
        assert_eq!(first.last().unwrap().work().cycles(), 1);
    }

    #[test]
    fn lqd_shape() {
        let c = lqd_work_lower_bound(16, 32, 1);
        // m = 4: burst has B cheap + 4 * B heavy.
        assert_eq!(c.trace.burst(0).len(), 32 * 5);
        assert_eq!(c.opt_caps[0], 28);
        assert_eq!(c.opt_caps.iter().filter(|&&x| x == 1).count(), 4);
        // Pre-asymptotic bound: strictly between 1 and sqrt(k) + 1.
        assert!(c.predicted_ratio > 1.5 && c.predicted_ratio < 5.0);
    }

    #[test]
    fn bpd_shape() {
        let c = bpd_lower_bound(4, 12, 10);
        assert_eq!(c.trace.slots(), 10);
        assert_eq!(c.trace.burst(0).len(), 4 * 12);
        assert_eq!(c.trace.burst(1).len(), 4);
        assert_eq!(c.opt_caps, vec![3, 3, 3, 3]);
        assert!((c.predicted_ratio - harmonic(4)).abs() < 1e-12);
        // Cheapest class arrives first in the initial burst.
        assert_eq!(c.trace.burst(0)[0].work().cycles(), 1);
    }

    #[test]
    fn lwd_shape() {
        let c = lwd_lower_bound(24, 2);
        assert_eq!(c.config.ports(), 4);
        assert_eq!(c.trace.burst(0).len(), 24 + 6 + 4 + 2);
        assert_eq!(c.opt_caps, vec![21, 1, 1, 1]);
        assert!((c.predicted_ratio - (4.0 / 3.0 - 0.25)).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "divisible by 12")]
    fn lwd_requires_divisible_buffer() {
        let _ = lwd_lower_bound(10, 1);
    }

    #[test]
    fn optimal_m_is_sane() {
        for k in [4u32, 16, 64, 256] {
            let m = optimal_m_nhdt(k);
            assert!(m >= 1 && m < k, "k={k} m={m}");
        }
    }
}
