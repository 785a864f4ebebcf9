//! Differential property tests for the shared arg-max victim selector.
//!
//! Every push-out policy that selects its victim through the selector is
//! driven, as built by its public constructor, in lockstep with the
//! independent scan oracle in `tests/common/` through identical random
//! traces — including interleaved transmissions and mid-trace flushes,
//! which force index rebuild/repair paths — and must take identical
//! decisions and leave identical queues. Each case runs one trace below 32
//! ports, where the selector scans, and one at 33–40 ports, where it keeps an
//! incremental score index. A divergence means the selector no longer
//! reproduces the scans' exact max-and-tie-break semantics.

mod common;

use std::ops::RangeInclusive;

use proptest::prelude::*;

use common::{ScanAlphaWd, ScanLqd, ScanLqdValue, ScanLwd, ScanMrd, ScanMvd, ScanWvd};
use smbm_core::{
    AlphaWd, CombinedRunner, Lqd, LqdValue, Lwd, LwdTieBreak, Mrd, Mvd, Policy, Runner,
    ValueRunner, WorkRunner, Wvd,
};
use smbm_sim::{run_combined, run_value, run_work, EngineConfig};
use smbm_switch::{
    CombinedPacket, PortId, QueueDiscipline, Value, ValuePacket, ValueQueue, ValueSwitchConfig,
    WorkPacket, WorkSwitchConfig,
};
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

/// One lockstep trace.
#[derive(Debug, Clone)]
struct Trace {
    ports: usize,
    buffer: usize,
    /// Both runners flush right after this arrival (none when past the end).
    flush_at: usize,
    /// Arrivals per slot: a transmission phase follows every `burst`-th.
    burst: usize,
    /// `(port, value)` arrivals; the work model ignores the value.
    arrivals: Vec<(usize, u64)>,
}

/// Traces over `ports` ports, three in four arrivals aimed at three hot
/// ports and `burst` arrivals per slot, so the shared buffer fills.
fn trace(
    ports: RangeInclusive<usize>,
    burst: usize,
    len: RangeInclusive<usize>,
) -> impl Strategy<Value = Trace> {
    let max_len = *len.end();
    ports.prop_flat_map(move |n| {
        (
            n..=n + 8,
            proptest::collection::vec(0..n, 3),
            0..max_len,
            proptest::collection::vec((0u32..4, 0..n, 0usize..3, 1u64..=9), len.clone()),
        )
            .prop_map(move |(buffer, hot, flush_at, draws)| Trace {
                ports: n,
                buffer,
                flush_at,
                burst,
                arrivals: draws
                    .into_iter()
                    .map(|(r, any, h, v)| (if r == 0 { any } else { hot[h] }, v))
                    .collect(),
            })
    })
}

/// A trace the selector scans (2–5 ports) and one it indexes (33–40 ports).
fn traces() -> impl Strategy<Value = [Trace; 2]> {
    (trace(2..=5, 8, 48..=96), trace(33..=40, 32, 160..=224)).prop_map(|(s, l)| [s, l])
}

fn work_config(t: &Trace) -> WorkSwitchConfig {
    WorkSwitchConfig::contiguous(t.ports as u32, t.buffer).unwrap()
}

fn value_config(t: &Trace) -> ValueSwitchConfig {
    ValueSwitchConfig::new(t.buffer, t.ports).unwrap()
}

fn work_packet(cfg: &WorkSwitchConfig) -> impl Fn(usize, u64) -> WorkPacket + '_ {
    |p, _| WorkPacket::new(PortId::new(p), cfg.work(PortId::new(p)))
}

fn value_packet(p: usize, v: u64) -> ValuePacket {
    ValuePacket::new(PortId::new(p), Value::new(v))
}

fn combined_packet(cfg: &WorkSwitchConfig) -> impl Fn(usize, u64) -> CombinedPacket + '_ {
    |p, v| CombinedPacket::new(PortId::new(p), cfg.work(PortId::new(p)), Value::new(v))
}

/// Drives `policy` and `oracle` in lockstep through `t` and returns the
/// number of decisions taken on a full buffer (the victim-selection path).
fn lockstep<Q: QueueDiscipline>(
    config: Q::Config,
    policy: impl Policy<Q>,
    oracle: impl Policy<Q>,
    t: &Trace,
    packet: impl Fn(usize, u64) -> Q::Packet,
) -> usize {
    let mut a = Runner::new(config.clone(), policy, 1);
    let mut b = Runner::new(config, oracle, 1);
    let mut full = 0usize;
    for (i, &(p, v)) in t.arrivals.iter().enumerate() {
        full += usize::from(a.switch().is_full());
        let pkt = packet(p, v);
        let da = a.arrival(pkt).unwrap();
        let db = b.arrival(pkt).unwrap();
        prop_assert_eq!(da, db, "diverged at arrival {} ({:?}) of {:?}", i, pkt, t);
        if i == t.flush_at {
            a.flush();
            b.flush();
        } else if i % t.burst == t.burst - 1 {
            a.transmission();
            b.transmission();
            a.end_slot();
            b.end_slot();
        }
    }
    for (port, q) in a.switch().queues() {
        prop_assert_eq!(
            q.packets(),
            b.switch().queue(port).packets(),
            "queue {} diverged",
            port
        );
    }
    prop_assert_eq!(a.transmitted_value(), b.transmitted_value());
    prop_assert!(full > 0, "no full-buffer decision in {:?}", t);
    full
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn lwd_indexed_matches_scan(traces in traces()) {
        for t in &traces {
            let cfg = work_config(t);
            let oracle = ScanLwd::new(LwdTieBreak::MaxWork);
            lockstep(cfg.clone(), Lwd::new(), oracle, t, work_packet(&cfg));
        }
    }

    #[test]
    fn lwd_max_len_indexed_matches_scan(traces in traces()) {
        for t in &traces {
            let cfg = work_config(t);
            let (policy, oracle) = (
                Lwd::with_tie_break(LwdTieBreak::MaxLen),
                ScanLwd::new(LwdTieBreak::MaxLen),
            );
            lockstep(cfg.clone(), policy, oracle, t, work_packet(&cfg));
        }
    }

    #[test]
    fn lwd_min_work_indexed_matches_scan(traces in traces()) {
        for t in &traces {
            let cfg = work_config(t);
            let (policy, oracle) = (
                Lwd::with_tie_break(LwdTieBreak::MinWork),
                ScanLwd::new(LwdTieBreak::MinWork),
            );
            lockstep(cfg.clone(), policy, oracle, t, work_packet(&cfg));
        }
    }

    #[test]
    fn lqd_indexed_matches_scan(traces in traces()) {
        for t in &traces {
            let cfg = work_config(t);
            lockstep(cfg.clone(), Lqd::new(), ScanLqd, t, work_packet(&cfg));
        }
    }

    #[test]
    fn alpha_wd_indexed_matches_scan(traces in traces(), alpha_idx in 0usize..3) {
        let alpha = [0.25f64, 0.5, 0.75][alpha_idx];
        for t in &traces {
            let cfg = work_config(t);
            let (policy, oracle) = (AlphaWd::new(alpha), ScanAlphaWd::new(alpha));
            lockstep(cfg.clone(), policy, oracle, t, work_packet(&cfg));
        }
    }

    #[test]
    fn lqd_value_indexed_matches_scan(traces in traces()) {
        for t in &traces {
            lockstep::<ValueQueue>(value_config(t), LqdValue::new(), ScanLqdValue, t, value_packet);
        }
    }

    #[test]
    fn mrd_indexed_matches_scan(traces in traces()) {
        for t in &traces {
            lockstep::<ValueQueue>(value_config(t), Mrd::new(), ScanMrd, t, value_packet);
        }
    }

    #[test]
    fn mvd_indexed_matches_scan(traces in traces()) {
        for t in &traces {
            let oracle = ScanMvd::new(false);
            lockstep::<ValueQueue>(value_config(t), Mvd::new(), oracle, t, value_packet);
        }
    }

    #[test]
    fn mvd1_indexed_matches_scan(traces in traces()) {
        for t in &traces {
            let (policy, oracle) = (Mvd::sparing_singletons(), ScanMvd::new(true));
            lockstep::<ValueQueue>(value_config(t), policy, oracle, t, value_packet);
        }
    }

    #[test]
    fn wvd_indexed_matches_scan(traces in traces()) {
        for t in &traces {
            let cfg = work_config(t);
            lockstep(cfg.clone(), Wvd::new(), ScanWvd, t, combined_packet(&cfg));
        }
    }
}

/// Serving-scale overload (the shape of the live UDP flood): `slots` bursts
/// of `burst` arrivals at 32–64 ports, three in four aimed at an 8-port hot
/// set, so the shared buffer stays full between transmissions and most
/// decisions (the tests require more than half) are full-buffer victim
/// checks. The hot queues grow longest, so arrivals both miss the current
/// maximum (the root short-circuit) and hit it (the walk).
fn overload_pattern(ports: usize, seed: u64, slots: usize, burst: usize) -> Vec<(usize, u64)> {
    let mut state = seed | 1;
    let mut rng = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let hot = (rng() % ports as u64) as usize;
    (0..slots * burst)
        .map(|_| {
            let r = rng();
            let port = if r % 4 == 0 {
                (r >> 8) as usize % ports
            } else {
                (hot + (r >> 8) as usize % 8) % ports
            };
            (port, 1 + (r >> 32) % 9)
        })
        .collect()
}

/// Arrivals per slot. A work-model queue holds its head for `w_j` slots, so
/// 32 arrivals outrun the transmissions; a value-model queue sends one
/// packet per slot, so overload needs more arrivals than there are ports.
const WORK_BURST: usize = 32;
const VALUE_BURST: usize = 96;

/// A trace at serving scale, with one flush three quarters of the way in
/// to exercise the index rebuild.
fn serving_scale(burst: usize, slots: usize) -> impl Strategy<Value = Trace> {
    (32usize..=64, 128usize..=256, 0u64..u64::MAX).prop_map(move |(ports, buffer, seed)| {
        let arrivals = overload_pattern(ports, seed, slots, burst);
        Trace {
            ports,
            buffer,
            flush_at: arrivals.len() * 3 / 4,
            burst,
            arrivals,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn serving_scale_work_policies_match_scan(t in serving_scale(WORK_BURST, 100)) {
        let cfg = work_config(&t);
        let mut full = Vec::new();
        for tie in [LwdTieBreak::MaxWork, LwdTieBreak::MaxLen, LwdTieBreak::MinWork] {
            let (policy, oracle) = (Lwd::with_tie_break(tie), ScanLwd::new(tie));
            full.push(lockstep(cfg.clone(), policy, oracle, &t, work_packet(&cfg)));
        }
        full.push(lockstep(cfg.clone(), Lqd::new(), ScanLqd, &t, work_packet(&cfg)));
        let (policy, oracle) = (AlphaWd::new(0.5), ScanAlphaWd::new(0.5));
        full.push(lockstep(cfg.clone(), policy, oracle, &t, work_packet(&cfg)));
        for f in full {
            prop_assert!(f * 2 > t.arrivals.len(), "only {} of {} full", f, t.arrivals.len());
        }
    }

    #[test]
    fn serving_scale_value_policies_match_scan(t in serving_scale(VALUE_BURST, 40)) {
        let cfg = value_config(&t);
        let full = [
            lockstep::<ValueQueue>(cfg, LqdValue::new(), ScanLqdValue, &t, value_packet),
            lockstep::<ValueQueue>(cfg, Mrd::new(), ScanMrd, &t, value_packet),
            lockstep::<ValueQueue>(cfg, Mvd::new(), ScanMvd::new(false), &t, value_packet),
        ];
        for f in full {
            prop_assert!(f * 2 > t.arrivals.len(), "only {} of {} full", f, t.arrivals.len());
        }
    }

    #[test]
    fn serving_scale_wvd_matches_scan(t in serving_scale(WORK_BURST, 100)) {
        let cfg = work_config(&t);
        let full = lockstep(cfg.clone(), Wvd::new(), ScanWvd, &t, combined_packet(&cfg));
        prop_assert!(full * 2 > t.arrivals.len(), "only {} of {} full", full, t.arrivals.len());
    }
}

/// Port counts of the end-to-end runs below: one the selector scans, one
/// it indexes.
const MMPP_PORTS: [u32; 2] = [6, 40];

/// The slot-loop engine produces identical [`smbm_sim::RunSummary`] values
/// (score, occupancy statistics, slot count) for each policy and its scan
/// oracle over a long MMPP trace — the end-to-end form of the lockstep
/// tests above.
#[test]
fn mmpp_work_summaries_match_scan_oracle() {
    for ports in MMPP_PORTS {
        let cfg = WorkSwitchConfig::contiguous(ports, 32.max(ports as usize)).unwrap();
        let trace = MmppScenario {
            sources: 10,
            slots: 6_000,
            seed: 97,
            ..Default::default()
        }
        .work_trace(&cfg, &PortMix::Uniform)
        .unwrap();
        let engine = EngineConfig::draining();

        type WorkPair = (
            &'static str,
            Box<dyn smbm_core::WorkPolicy>,
            Box<dyn smbm_core::WorkPolicy>,
        );
        let pairs: Vec<WorkPair> = vec![
            (
                "LWD",
                Box::new(Lwd::new()),
                Box::new(ScanLwd::new(LwdTieBreak::MaxWork)),
            ),
            (
                "LWD-len",
                Box::new(Lwd::with_tie_break(LwdTieBreak::MaxLen)),
                Box::new(ScanLwd::new(LwdTieBreak::MaxLen)),
            ),
            ("LQD", Box::new(Lqd::new()), Box::new(ScanLqd)),
            (
                "AWD-0.5",
                Box::new(AlphaWd::new(0.5)),
                Box::new(ScanAlphaWd::new(0.5)),
            ),
        ];
        for (name, policy, oracle) in pairs {
            let mut a = WorkRunner::new(cfg.clone(), policy, 1);
            let mut b = WorkRunner::new(cfg.clone(), oracle, 1);
            let sa = run_work(&mut a, &trace, &engine).unwrap();
            let sb = run_work(&mut b, &trace, &engine).unwrap();
            assert_eq!(sa, sb, "{name} at {ports} ports: summaries diverged");
            assert!(
                a.switch().counters().pushed_out() > 0,
                "{name} at {ports} ports"
            );
        }
    }
}

#[test]
fn mmpp_value_summaries_match_scan_oracle() {
    for ports in MMPP_PORTS.map(|p| p as usize) {
        let cfg = ValueSwitchConfig::new(32.max(ports), ports).unwrap();
        let trace = MmppScenario {
            sources: 24,
            slots: 6_000,
            seed: 97,
            ..Default::default()
        }
        .value_trace(ports, &PortMix::Uniform, &ValueMix::Uniform { max: 12 })
        .unwrap();
        let engine = EngineConfig::draining();

        type ValuePair = (
            &'static str,
            Box<dyn smbm_core::ValuePolicy>,
            Box<dyn smbm_core::ValuePolicy>,
        );
        let pairs: Vec<ValuePair> = vec![
            ("LQD", Box::new(LqdValue::new()), Box::new(ScanLqdValue)),
            ("MRD", Box::new(Mrd::new()), Box::new(ScanMrd)),
            ("MVD", Box::new(Mvd::new()), Box::new(ScanMvd::new(false))),
            (
                "MVD1",
                Box::new(Mvd::sparing_singletons()),
                Box::new(ScanMvd::new(true)),
            ),
        ];
        for (name, policy, oracle) in pairs {
            let mut a = ValueRunner::new(cfg, policy, 1);
            let mut b = ValueRunner::new(cfg, oracle, 1);
            let sa = run_value(&mut a, &trace, &engine).unwrap();
            let sb = run_value(&mut b, &trace, &engine).unwrap();
            assert_eq!(sa, sb, "{name} at {ports} ports: summaries diverged");
            assert!(
                a.switch().counters().pushed_out() > 0,
                "{name} at {ports} ports"
            );
        }
    }
}

#[test]
fn mmpp_combined_summaries_match_scan_oracle() {
    for ports in MMPP_PORTS {
        let cfg = WorkSwitchConfig::contiguous(ports, 24.max(ports as usize)).unwrap();
        let trace = MmppScenario {
            sources: 16,
            slots: 6_000,
            seed: 97,
            ..Default::default()
        }
        .combined_trace(&cfg, &PortMix::Uniform, &ValueMix::Uniform { max: 9 })
        .unwrap();
        let engine = EngineConfig::draining();

        let mut a = CombinedRunner::new(cfg.clone(), Wvd::new(), 1);
        let mut b = CombinedRunner::new(cfg.clone(), ScanWvd, 1);
        let sa = run_combined(&mut a, &trace, &engine).unwrap();
        let sb = run_combined(&mut b, &trace, &engine).unwrap();
        assert_eq!(sa, sb, "WVD at {ports} ports: summaries diverged");
        assert!(
            a.switch().counters().pushed_out() > 0,
            "WVD at {ports} ports"
        );
    }
}
