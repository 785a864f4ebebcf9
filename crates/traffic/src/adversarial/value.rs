//! Lower-bound constructions for the heterogeneous-value model
//! (Theorems 9-11).

use std::iter::repeat_n;

use smbm_switch::{PortId, Value, ValuePacket, ValueSwitchConfig};

use super::ValueConstruction;
use crate::Trace;

/// **Theorem 9 (LQD ≥ ∛k).** `B` packets of each value `1..=a` plus `B` of
/// value `k` arrive; LQD balances queue lengths, keeping only `B/(a+1)` of
/// the `k`s, while OPT dedicates almost the whole buffer to them. The cheap
/// values keep arriving so OPT's cheap ports stay busy.
pub fn lqd_value_lower_bound(k: u64, buffer: usize, episodes: usize) -> ValueConstruction {
    let a = (k as f64).cbrt().round().max(1.0) as u64;
    let ports = a as usize + 1; // ports 0..a carry values 1..=a; port a carries k.
    let config = ValueSwitchConfig::new(buffer, ports).expect("valid parameters");
    let cheap = |v: u64| ValuePacket::new(PortId::new(v as usize - 1), Value::new(v));
    let big = ValuePacket::new(PortId::new(ports - 1), Value::new(k));
    let mut episode = Trace::new();
    episode.push_slot(
        (1..=a)
            .flat_map(|v| repeat_n(cheap(v), buffer))
            .chain(repeat_n(big, buffer)),
    );
    for _ in 1..buffer {
        episode.push_slot((1..=a).map(cheap));
    }
    let trace = episode.repeated(episodes);
    let mut opt_caps = vec![1; ports];
    opt_caps[ports - 1] = buffer.saturating_sub(a as usize);
    // Pre-asymptotic ratio from the proof:
    // (a(a-1)/2 + k) / (a(a-1)/2 + k/a); converges to cbrt(k) at a = cbrt(k).
    let af = a as f64;
    let kf = k as f64;
    let cheap = af * (af - 1.0) / 2.0;
    ValueConstruction {
        name: format!("Thm9 LQD k={k} B={buffer} a={a}"),
        target_policy: "LQD",
        config,
        trace,
        opt_caps,
        predicted_ratio: (cheap + kf) / (cheap + kf / af),
    }
}

/// **Greedy is k-competitive** (stated in Section IV's prelude: "fill the
/// buffer with 1s, then send in the ks"). The buffer is filled with
/// unit-value packets for one port; value-`k` packets for another port
/// follow and are all lost to the full buffer. Silence drains, repeat.
pub fn greedy_value_lower_bound(k: u64, buffer: usize, episodes: usize) -> ValueConstruction {
    let config = ValueSwitchConfig::new(buffer, 2).expect("valid parameters");
    let ones = ValuePacket::new(PortId::new(0), Value::new(1));
    let ks = ValuePacket::new(PortId::new(1), Value::new(k));
    let mut episode = Trace::new();
    episode.push_slot(repeat_n(ones, buffer).chain(repeat_n(ks, buffer)));
    episode.push_silence(buffer);
    let trace = episode.repeated(episodes);
    // OPT dedicates the whole buffer to the k-packets.
    let opt_caps = vec![0, buffer];
    ValueConstruction {
        name: format!("Greedy k={k} B={buffer}"),
        target_policy: "GREEDY",
        config,
        trace,
        opt_caps,
        predicted_ratio: k as f64,
    }
}

/// **Theorem 10 (MVD ≥ (m−1)/2).** Every slot all values `1..=m` arrive in
/// bulk; MVD hoards only the top class (one port active) while OPT's even
/// split keeps all `m` ports busy.
///
/// The predicted ratio is the even-split yardstick's exact value
/// `(1 + ... + m)/m = (m+1)/2`; the paper states the slightly looser
/// constant `(m−1)/2` — both are `Θ(m)`.
pub fn mvd_lower_bound(k: u64, buffer: usize, slots: usize) -> ValueConstruction {
    let m = k.min(buffer as u64);
    let ports = m as usize;
    let config = ValueSwitchConfig::new(buffer, ports).expect("valid parameters");
    let pkt = |v: u64| ValuePacket::new(PortId::new(v as usize - 1), Value::new(v));
    let mut trace = Trace::new();
    trace.push_slot((1..=m).flat_map(|v| repeat_n(pkt(v), buffer)));
    for _ in 1..slots {
        trace.push_slot((1..=m).map(pkt));
    }
    let per_class = (buffer / ports).max(1);
    let opt_caps = vec![per_class; ports];
    ValueConstruction {
        name: format!("Thm10 MVD k={k} B={buffer} m={m}"),
        target_policy: "MVD",
        config,
        trace,
        opt_caps,
        predicted_ratio: (m as f64 + 1.0) / 2.0,
    }
}

/// **Theorem 11 (MRD ≥ 4/3, value==port).** The burst `B` each of values
/// 1, 2, 3, 6 balances MRD's size-value ratios at `|Q_v| = v·B/12`, halving
/// its stock of `6`s; OPT hoards `B − 3` of them. Values 1, 2, 3 keep
/// arriving so OPT's cheap ports stay busy; the `6`s stop.
pub fn mrd_lower_bound(buffer: usize, episodes: usize) -> ValueConstruction {
    assert!(
        buffer.is_multiple_of(12),
        "Theorem 11 needs B divisible by 12"
    );
    let values = [1u64, 2, 3, 6];
    let config = ValueSwitchConfig::new(buffer, 4).expect("valid parameters");
    let pkt = |i: usize| ValuePacket::new(PortId::new(i), Value::new(values[i]));
    let mut episode = Trace::new();
    episode.push_slot((0..4).flat_map(|i| repeat_n(pkt(i), buffer)));
    for _ in 1..buffer.saturating_sub(3) {
        episode.push_slot([pkt(0), pkt(1), pkt(2)]);
    }
    let trace = episode.repeated(episodes);
    let opt_caps = vec![1, 1, 1, buffer - 3];
    ValueConstruction {
        name: format!("Thm11 MRD B={buffer}"),
        target_policy: "MRD",
        config,
        trace,
        opt_caps,
        predicted_ratio: 4.0 / 3.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lqd_value_shape() {
        let c = lqd_value_lower_bound(27, 30, 1);
        // a = 3: ports 0..2 carry 1..3, port 3 carries 27.
        assert_eq!(c.config.ports(), 4);
        assert_eq!(c.trace.burst(0).len(), 4 * 30);
        assert_eq!(c.opt_caps, vec![1, 1, 1, 27]);
        // a = 3: (3 + 27) / (3 + 9) = 2.5, the proof's exact expression.
        assert!((c.predicted_ratio - 2.5).abs() < 1e-12);
        // Replenishment slots carry one of each cheap value.
        assert_eq!(c.trace.burst(1).len(), 3);
        assert!(c.trace.burst(1).iter().all(|p| p.value().get() <= 3));
    }

    #[test]
    fn lqd_value_episode_length() {
        let c = lqd_value_lower_bound(8, 10, 3);
        assert_eq!(c.trace.slots(), 3 * 10);
    }

    #[test]
    fn greedy_shape() {
        let c = greedy_value_lower_bound(10, 6, 2);
        assert_eq!(c.config.ports(), 2);
        assert_eq!(c.trace.burst(0).len(), 12);
        assert_eq!(c.opt_caps, vec![0, 6]);
        assert_eq!(c.predicted_ratio, 10.0);
        // Unit packets arrive strictly before the valuable ones.
        assert!(c.trace.burst(0)[..6].iter().all(|p| p.value().get() == 1));
    }

    #[test]
    fn mvd_shape() {
        let c = mvd_lower_bound(5, 20, 8);
        assert_eq!(c.config.ports(), 5);
        assert_eq!(c.trace.slots(), 8);
        assert_eq!(c.trace.burst(0).len(), 5 * 20);
        assert_eq!(c.opt_caps, vec![4; 5]);
        assert_eq!(c.predicted_ratio, 3.0); // (m + 1) / 2 for m = 5
    }

    #[test]
    fn mvd_m_clamped_by_buffer() {
        let c = mvd_lower_bound(100, 8, 4);
        assert_eq!(c.config.ports(), 8);
    }

    #[test]
    fn mrd_shape() {
        let c = mrd_lower_bound(24, 2);
        assert_eq!(c.config.ports(), 4);
        assert_eq!(c.trace.burst(0).len(), 4 * 24);
        assert_eq!(c.opt_caps, vec![1, 1, 1, 21]);
        assert!((c.predicted_ratio - 4.0 / 3.0).abs() < 1e-12);
        // Value 6 never arrives after the burst within an episode.
        for t in 1..21 {
            assert!(c.trace.burst(t).iter().all(|p| p.value().get() < 6));
        }
    }

    #[test]
    #[should_panic(expected = "divisible by 12")]
    fn mrd_requires_divisible_buffer() {
        let _ = mrd_lower_bound(10, 1);
    }

    #[test]
    fn value_port_mapping_is_consistent() {
        let c = mvd_lower_bound(4, 8, 2);
        for pkt in c.trace.iter().flatten() {
            assert_eq!(pkt.value().get(), pkt.port().index() as u64 + 1);
        }
    }
}
