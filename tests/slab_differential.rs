//! Differential property tests for the incremental score indices.
//!
//! Every policy that adopted a [`smbm_core::ScoreIndex`] keeps its original
//! full-scan victim selection behind a `scan()` constructor as an oracle.
//! These tests drive the index-forced policy (`indexed()`, since the `new()`
//! default auto-selects scan below 32 ports and would dodge the index at
//! these port counts) and its scan twin through identical random traces —
//! including
//! interleaved transmissions and mid-trace flushes, which force index
//! rebuild/repair paths — and require byte-identical decisions and final
//! queue states. A divergence here means the index no longer reproduces the
//! scan's exact max-and-tie-break semantics.

use proptest::prelude::*;

use smbm_core::{
    AlphaWd, CombinedRunner, Lqd, LqdValue, Lwd, LwdTieBreak, Mrd, Mvd, ValueRunner, WorkRunner,
    Wvd,
};
use smbm_sim::{run_combined, run_value, run_work, EngineConfig};
use smbm_switch::{
    CombinedPacket, PortId, Value, ValuePacket, ValueSwitchConfig, WorkSwitchConfig,
};
use smbm_traffic::{MmppScenario, PortMix, ValueMix};

/// Arrival schedule interleaved with transmissions (`i % 3 == 2`) and a
/// mid-trace flush (`i == flush_at`), over a heterogeneous contiguous
/// work switch.
fn work_pattern() -> impl Strategy<Value = (u32, usize, usize, Vec<usize>)> {
    (2u32..=5).prop_flat_map(|ports| {
        (
            Just(ports),
            (ports as usize)..=12usize,
            0usize..80,
            proptest::collection::vec(0usize..ports as usize, 1..80),
        )
    })
}

fn value_pattern() -> impl Strategy<Value = (usize, usize, usize, Vec<(usize, u64)>)> {
    (2usize..=5).prop_flat_map(|ports| {
        (
            Just(ports),
            ports..=12usize,
            0usize..80,
            proptest::collection::vec((0usize..ports, 1u64..=9), 1..80),
        )
    })
}

/// Drives `$indexed` and `$scan` in lockstep, ending a slot after every
/// `$burst` arrivals, and evaluates to the number of decisions taken on a
/// full buffer (the victim-selection path).
macro_rules! lockstep_work {
    ($cfg:expr, $indexed:expr, $scan:expr, $flush_at:expr, $burst:expr, $pattern:expr) => {{
        let mut a = WorkRunner::new($cfg.clone(), $indexed, 1);
        let mut b = WorkRunner::new($cfg.clone(), $scan, 1);
        let mut full = 0usize;
        for (i, &p) in $pattern.iter().enumerate() {
            full += usize::from(a.switch().is_full());
            let da = a.arrival_to(PortId::new(p)).unwrap();
            let db = b.arrival_to(PortId::new(p)).unwrap();
            prop_assert_eq!(da, db, "diverged at arrival {} (port {})", i, p);
            if i == $flush_at {
                a.flush();
                b.flush();
            } else if i % $burst == $burst - 1 {
                a.transmission();
                b.transmission();
                a.end_slot();
                b.end_slot();
            }
        }
        for p in 0..a.switch().ports() {
            prop_assert_eq!(
                a.switch().queue(PortId::new(p)).len(),
                b.switch().queue(PortId::new(p)).len(),
                "queue {} lengths diverged",
                p
            );
        }
        full
    }};
}

macro_rules! lockstep_value {
    ($cfg:expr, $indexed:expr, $scan:expr, $flush_at:expr, $burst:expr, $pattern:expr) => {{
        let mut a = ValueRunner::new($cfg, $indexed, 1);
        let mut b = ValueRunner::new($cfg, $scan, 1);
        let mut full = 0usize;
        for (i, &(p, v)) in $pattern.iter().enumerate() {
            full += usize::from(a.switch().is_full());
            let pkt = ValuePacket::new(PortId::new(p), Value::new(v));
            let da = a.arrival(pkt).unwrap();
            let db = b.arrival(pkt).unwrap();
            prop_assert_eq!(
                da,
                db,
                "diverged at arrival {} (port {}, value {})",
                i,
                p,
                v
            );
            if i == $flush_at {
                a.flush();
                b.flush();
            } else if i % $burst == $burst - 1 {
                a.transmission();
                b.transmission();
                a.end_slot();
                b.end_slot();
            }
        }
        for p in 0..a.switch().ports() {
            prop_assert_eq!(
                a.switch().queue(PortId::new(p)).len(),
                b.switch().queue(PortId::new(p)).len(),
                "queue {} lengths diverged",
                p
            );
        }
        prop_assert_eq!(a.transmitted_value(), b.transmitted_value());
        full
    }};
}

macro_rules! lockstep_combined {
    ($cfg:expr, $indexed:expr, $scan:expr, $flush_at:expr, $burst:expr, $pattern:expr) => {{
        let mut a = CombinedRunner::new($cfg.clone(), $indexed, 1);
        let mut b = CombinedRunner::new($cfg.clone(), $scan, 1);
        let mut full = 0usize;
        for (i, &(p, v)) in $pattern.iter().enumerate() {
            full += usize::from(a.switch().is_full());
            let port = PortId::new(p);
            let pkt = CombinedPacket::new(port, $cfg.work(port), Value::new(v));
            let da = a.arrival(pkt).unwrap();
            let db = b.arrival(pkt).unwrap();
            prop_assert_eq!(
                da,
                db,
                "diverged at arrival {} (port {}, value {})",
                i,
                p,
                v
            );
            if i == $flush_at {
                a.flush();
                b.flush();
            } else if i % $burst == $burst - 1 {
                a.transmission();
                b.transmission();
                a.end_slot();
                b.end_slot();
            }
        }
        for p in 0..a.switch().ports() {
            prop_assert_eq!(
                a.switch().queue(PortId::new(p)).len(),
                b.switch().queue(PortId::new(p)).len(),
                "queue {} lengths diverged",
                p
            );
        }
        prop_assert_eq!(a.transmitted_value(), b.transmitted_value());
        full
    }};
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn lwd_indexed_matches_scan((ports, buffer, flush_at, pattern) in work_pattern()) {
        let cfg = WorkSwitchConfig::contiguous(ports, buffer).unwrap();
        lockstep_work!(cfg, Lwd::indexed(), Lwd::scan(), flush_at, 3, pattern);
    }

    #[test]
    fn lwd_max_len_indexed_matches_scan((ports, buffer, flush_at, pattern) in work_pattern()) {
        let cfg = WorkSwitchConfig::contiguous(ports, buffer).unwrap();
        lockstep_work!(
            cfg,
            Lwd::indexed_with_tie_break(LwdTieBreak::MaxLen),
            Lwd::scan_with_tie_break(LwdTieBreak::MaxLen),
            flush_at,
            3,
            pattern
        );
    }

    #[test]
    fn lwd_min_work_indexed_matches_scan((ports, buffer, flush_at, pattern) in work_pattern()) {
        let cfg = WorkSwitchConfig::contiguous(ports, buffer).unwrap();
        lockstep_work!(
            cfg,
            Lwd::indexed_with_tie_break(LwdTieBreak::MinWork),
            Lwd::scan_with_tie_break(LwdTieBreak::MinWork),
            flush_at,
            3,
            pattern
        );
    }

    #[test]
    fn lqd_indexed_matches_scan((ports, buffer, flush_at, pattern) in work_pattern()) {
        let cfg = WorkSwitchConfig::contiguous(ports, buffer).unwrap();
        lockstep_work!(cfg, Lqd::indexed(), Lqd::scan(), flush_at, 3, pattern);
    }

    #[test]
    fn alpha_wd_indexed_matches_scan(
        (ports, buffer, flush_at, pattern) in work_pattern(),
        alpha_idx in 0usize..3,
    ) {
        let alpha = [0.25f64, 0.5, 0.75][alpha_idx];
        let cfg = WorkSwitchConfig::contiguous(ports, buffer).unwrap();
        lockstep_work!(cfg, AlphaWd::indexed(alpha), AlphaWd::scan(alpha), flush_at, 3, pattern);
    }

    #[test]
    fn lqd_value_indexed_matches_scan((ports, buffer, flush_at, pattern) in value_pattern()) {
        let cfg = ValueSwitchConfig::new(buffer, ports).unwrap();
        lockstep_value!(cfg, LqdValue::indexed(), LqdValue::scan(), flush_at, 3, pattern);
    }

    #[test]
    fn mrd_indexed_matches_scan((ports, buffer, flush_at, pattern) in value_pattern()) {
        let cfg = ValueSwitchConfig::new(buffer, ports).unwrap();
        lockstep_value!(cfg, Mrd::indexed(), Mrd::scan(), flush_at, 3, pattern);
    }

    #[test]
    fn mvd_indexed_matches_scan((ports, buffer, flush_at, pattern) in value_pattern()) {
        let cfg = ValueSwitchConfig::new(buffer, ports).unwrap();
        lockstep_value!(cfg, Mvd::indexed(), Mvd::scan(), flush_at, 3, pattern);
    }

    #[test]
    fn mvd1_indexed_matches_scan((ports, buffer, flush_at, pattern) in value_pattern()) {
        let cfg = ValueSwitchConfig::new(buffer, ports).unwrap();
        lockstep_value!(
            cfg,
            Mvd::indexed_sparing_singletons(),
            Mvd::scan_sparing_singletons(),
            flush_at,
            3,
            pattern
        );
    }

    #[test]
    fn wvd_indexed_matches_scan((ports, buffer, flush_at, pattern) in value_pattern()) {
        let cfg = WorkSwitchConfig::contiguous(ports as u32, buffer).unwrap();
        lockstep_combined!(cfg, Wvd::indexed(), Wvd::scan(), flush_at, 3, pattern);
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

/// `(ports, buffer, flush_at, pattern)` at serving scale, with one flush
/// three quarters of the way in to exercise the index rebuild.
fn serving_scale(
    burst: usize,
    slots: usize,
) -> impl Strategy<Value = (usize, usize, usize, Vec<(usize, u64)>)> {
    (32usize..=64, 128usize..=256, 0u64..u64::MAX).prop_map(move |(ports, buffer, seed)| {
        let pattern = overload_pattern(ports, seed, slots, burst);
        (ports, buffer, pattern.len() * 3 / 4, pattern)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn serving_scale_work_policies_match_scan(
        (ports, buffer, flush_at, pattern) in serving_scale(WORK_BURST, 100),
    ) {
        let cfg = WorkSwitchConfig::contiguous(ports as u32, buffer).unwrap();
        let arrivals: Vec<usize> = pattern.iter().map(|&(p, _)| p).collect();
        let mut full = Vec::new();
        for tie in [LwdTieBreak::MaxWork, LwdTieBreak::MaxLen, LwdTieBreak::MinWork] {
            full.push(lockstep_work!(
                cfg,
                Lwd::indexed_with_tie_break(tie),
                Lwd::scan_with_tie_break(tie),
                flush_at,
                WORK_BURST,
                arrivals
            ));
        }
        full.push(lockstep_work!(
            cfg,
            Lqd::indexed(),
            Lqd::scan(),
            flush_at,
            WORK_BURST,
            arrivals
        ));
        full.push(lockstep_work!(
            cfg,
            AlphaWd::indexed(0.5),
            AlphaWd::scan(0.5),
            flush_at,
            WORK_BURST,
            arrivals
        ));
        for f in full {
            prop_assert!(f * 2 > arrivals.len(), "only {} of {} full", f, arrivals.len());
        }
    }

    #[test]
    fn serving_scale_value_policies_match_scan(
        (ports, buffer, flush_at, pattern) in serving_scale(VALUE_BURST, 40),
    ) {
        let cfg = ValueSwitchConfig::new(buffer, ports).unwrap();
        let (lqd, scan) = (LqdValue::indexed(), LqdValue::scan());
        let full = [
            lockstep_value!(cfg, lqd, scan, flush_at, VALUE_BURST, pattern),
            lockstep_value!(cfg, Mrd::indexed(), Mrd::scan(), flush_at, VALUE_BURST, pattern),
            lockstep_value!(cfg, Mvd::indexed(), Mvd::scan(), flush_at, VALUE_BURST, pattern),
        ];
        for f in full {
            prop_assert!(f * 2 > pattern.len(), "only {} of {} full", f, pattern.len());
        }
    }

    #[test]
    fn serving_scale_wvd_matches_scan(
        (ports, buffer, flush_at, pattern) in serving_scale(WORK_BURST, 100),
    ) {
        let cfg = WorkSwitchConfig::contiguous(ports as u32, buffer).unwrap();
        let (wvd, scan) = (Wvd::indexed(), Wvd::scan());
        let full = lockstep_combined!(cfg, wvd, scan, flush_at, WORK_BURST, pattern);
        prop_assert!(full * 2 > pattern.len(), "only {} of {} full", full, pattern.len());
    }
}

/// The slot-loop engine produces identical [`smbm_sim::RunSummary`] values
/// (score, occupancy statistics, slot count) for the indexed and scan
/// variants over a long MMPP trace — the end-to-end form of the lockstep
/// tests above.
#[test]
fn mmpp_work_summaries_match_scan_oracle() {
    let cfg = WorkSwitchConfig::contiguous(6, 32).unwrap();
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
        ("LWD", Box::new(Lwd::indexed()), Box::new(Lwd::scan())),
        (
            "LWD-len",
            Box::new(Lwd::indexed_with_tie_break(LwdTieBreak::MaxLen)),
            Box::new(Lwd::scan_with_tie_break(LwdTieBreak::MaxLen)),
        ),
        ("LQD", Box::new(Lqd::indexed()), Box::new(Lqd::scan())),
        (
            "AWD-0.5",
            Box::new(AlphaWd::indexed(0.5)),
            Box::new(AlphaWd::scan(0.5)),
        ),
    ];
    for (name, indexed, scan) in pairs {
        let mut a = WorkRunner::new(cfg.clone(), indexed, 1);
        let mut b = WorkRunner::new(cfg.clone(), scan, 1);
        let sa = run_work(&mut a, &trace, &engine).unwrap();
        let sb = run_work(&mut b, &trace, &engine).unwrap();
        assert_eq!(sa, sb, "{name}: indexed and scan summaries diverged");
    }
}

#[test]
fn mmpp_value_summaries_match_scan_oracle() {
    let cfg = ValueSwitchConfig::new(32, 6).unwrap();
    let trace = MmppScenario {
        sources: 24,
        slots: 6_000,
        seed: 97,
        ..Default::default()
    }
    .value_trace(6, &PortMix::Uniform, &ValueMix::Uniform { max: 12 })
    .unwrap();
    let engine = EngineConfig::draining();

    type ValuePair = (
        &'static str,
        Box<dyn smbm_core::ValuePolicy>,
        Box<dyn smbm_core::ValuePolicy>,
    );
    let pairs: Vec<ValuePair> = vec![
        (
            "LQD",
            Box::new(LqdValue::indexed()),
            Box::new(LqdValue::scan()),
        ),
        ("MRD", Box::new(Mrd::indexed()), Box::new(Mrd::scan())),
        ("MVD", Box::new(Mvd::indexed()), Box::new(Mvd::scan())),
        (
            "MVD1",
            Box::new(Mvd::indexed_sparing_singletons()),
            Box::new(Mvd::scan_sparing_singletons()),
        ),
    ];
    for (name, indexed, scan) in pairs {
        let mut a = ValueRunner::new(cfg, indexed, 1);
        let mut b = ValueRunner::new(cfg, scan, 1);
        let sa = run_value(&mut a, &trace, &engine).unwrap();
        let sb = run_value(&mut b, &trace, &engine).unwrap();
        assert_eq!(sa, sb, "{name}: indexed and scan summaries diverged");
    }
}

#[test]
fn mmpp_combined_summaries_match_scan_oracle() {
    let cfg = WorkSwitchConfig::contiguous(6, 24).unwrap();
    let trace = MmppScenario {
        sources: 16,
        slots: 6_000,
        seed: 97,
        ..Default::default()
    }
    .combined_trace(&cfg, &PortMix::Uniform, &ValueMix::Uniform { max: 9 })
    .unwrap();
    let engine = EngineConfig::draining();

    let mut a = CombinedRunner::new(cfg.clone(), Wvd::indexed(), 1);
    let mut b = CombinedRunner::new(cfg.clone(), Wvd::scan(), 1);
    let sa = run_combined(&mut a, &trace, &engine).unwrap();
    let sb = run_combined(&mut b, &trace, &engine).unwrap();
    assert_eq!(sa, sb, "WVD: indexed and scan summaries diverged");
}
