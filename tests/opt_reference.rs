//! Properties of the optimal references: the PQ surrogate and the exact
//! search must dominate every online policy and behave monotonically.

use proptest::prelude::*;

use smbm_core::{
    exact_value_opt, exact_work_opt, value_policy_by_name, work_policy_by_name, CombinedPqOpt,
    ValuePqOpt, ValueRunner, WorkPqOpt, WorkRunner,
};
use smbm_sim::{run, EngineConfig};
use smbm_switch::{
    CombinedPacket, PortId, Value, ValuePacket, ValueSwitchConfig, Work, WorkSwitchConfig,
};
use smbm_traffic::Trace;

fn tiny_work_case() -> impl Strategy<Value = (Vec<u32>, usize, Vec<Vec<usize>>)> {
    (2usize..=3).prop_flat_map(|ports| {
        (
            proptest::collection::vec(1u32..=3, ports),
            ports..=5usize,
            proptest::collection::vec(proptest::collection::vec(0usize..ports, 0..=4), 1..=4)
                .prop_filter("small", |s| s.iter().map(Vec::len).sum::<usize>() <= 14),
        )
    })
}

fn tiny_value_case() -> impl Strategy<Value = (usize, usize, Vec<Vec<(usize, u64)>>)> {
    (2usize..=3).prop_flat_map(|ports| {
        (
            Just(ports),
            ports..=5usize,
            proptest::collection::vec(
                proptest::collection::vec((0usize..ports, 1u64..=6), 0..=4),
                1..=4,
            )
            .prop_filter("small", |s| s.iter().map(Vec::len).sum::<usize>() <= 14),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]

    /// The exact work-model optimum dominates every bundled online policy.
    #[test]
    fn exact_work_opt_dominates_all_policies(
        (works, buffer, slots) in tiny_work_case()
    ) {
        let cfg = WorkSwitchConfig::new(
            buffer,
            works.iter().map(|&w| Work::new(w)).collect(),
        ).unwrap();
        let ports_trace: Vec<Vec<PortId>> = slots
            .iter()
            .map(|b| b.iter().map(|&p| PortId::new(p)).collect())
            .collect();
        let opt = exact_work_opt(&cfg, 1, &ports_trace).unwrap();
        let mut trace = Trace::new();
        for burst in &slots {
            trace.push_slot(
                burst
                    .iter()
                    .map(|&p| cfg_packet(&cfg, p))
                    .collect(),
            );
        }
        for name in smbm_core::WORK_POLICY_NAMES {
            let policy = work_policy_by_name(name).unwrap();
            let mut runner = WorkRunner::new(cfg.clone(), policy, 1);
            let score = run(&mut runner, &trace, &EngineConfig::draining())
                .unwrap()
                .score;
            prop_assert!(
                score <= opt,
                "{} transmitted {} > exact OPT {}", name, score, opt
            );
        }
    }

    /// The exact value-model optimum dominates every bundled online policy.
    #[test]
    fn exact_value_opt_dominates_all_policies(
        (ports, buffer, slots) in tiny_value_case()
    ) {
        let cfg = ValueSwitchConfig::new(buffer, ports).unwrap();
        let packets: Vec<Vec<ValuePacket>> = slots
            .iter()
            .map(|b| {
                b.iter()
                    .map(|&(p, v)| ValuePacket::new(PortId::new(p), Value::new(v)))
                    .collect()
            })
            .collect();
        let opt = exact_value_opt(&cfg, 1, &packets).unwrap();
        let trace = Trace::from_slots(packets);
        for name in smbm_core::VALUE_POLICY_NAMES {
            let policy = value_policy_by_name(name).unwrap();
            let mut runner = ValueRunner::new(cfg, policy, 1);
            let score = run(&mut runner, &trace, &EngineConfig::draining())
                .unwrap()
                .score;
            prop_assert!(
                score <= opt,
                "{} got value {} > exact OPT {}", name, score, opt
            );
        }
    }

    /// The exact optimum is monotone in buffer size and in speedup.
    #[test]
    fn exact_work_opt_monotone_in_resources(
        (works, buffer, slots) in tiny_work_case()
    ) {
        let trace: Vec<Vec<PortId>> = slots
            .iter()
            .map(|b| b.iter().map(|&p| PortId::new(p)).collect())
            .collect();
        let works: Vec<Work> = works.iter().map(|&w| Work::new(w)).collect();
        let small = WorkSwitchConfig::new(buffer, works.clone()).unwrap();
        let big = WorkSwitchConfig::new(buffer + 2, works).unwrap();
        let base = exact_work_opt(&small, 1, &trace).unwrap();
        prop_assert!(exact_work_opt(&big, 1, &trace).unwrap() >= base);
        prop_assert!(exact_work_opt(&small, 2, &trace).unwrap() >= base);
    }
}

fn cfg_packet(cfg: &WorkSwitchConfig, port: usize) -> smbm_switch::WorkPacket {
    let p = PortId::new(port);
    smbm_switch::WorkPacket::new(p, cfg.work(p))
}

#[test]
fn pq_opt_monotone_in_cores() {
    // Deterministic check over a congested burst sequence.
    let mut scores = Vec::new();
    for cores in [1u32, 2, 4, 8] {
        let mut opt = WorkPqOpt::new(16, cores);
        for _ in 0..50 {
            for w in [1u32, 2, 3, 4] {
                for _ in 0..4 {
                    opt.offer(smbm_switch::WorkPacket::new(PortId::new(0), Work::new(w)));
                }
            }
            opt.transmission();
        }
        opt.check_invariants().unwrap();
        scores.push(opt.transmitted());
    }
    assert!(scores.windows(2).all(|w| w[0] <= w[1]), "{scores:?}");
}

#[test]
fn value_pq_opt_collects_top_values() {
    let mut opt = ValuePqOpt::new(4, 2);
    for v in 1..=10u64 {
        opt.offer(ValuePacket::new(PortId::new(0), Value::new(v)));
    }
    // Buffer keeps the top 4: 7, 8, 9, 10.
    let mut total = 0;
    for _ in 0..3 {
        total += opt.transmission();
    }
    assert_eq!(total, 7 + 8 + 9 + 10);
    opt.check_invariants().unwrap();
}

#[test]
fn pq_opt_beats_every_policy_on_bursty_traffic() {
    use smbm_traffic::{MmppScenario, PortMix};
    let cfg = WorkSwitchConfig::contiguous(6, 24).unwrap();
    let trace = MmppScenario {
        sources: 16,
        slots: 4_000,
        seed: 21,
        ..Default::default()
    }
    .work_trace(&cfg, &PortMix::Uniform)
    .unwrap();
    let mut opt = WorkPqOpt::new(24, 6);
    let opt_score = run(&mut opt, &trace, &EngineConfig::draining())
        .unwrap()
        .score;
    for name in smbm_core::WORK_POLICY_NAMES {
        let policy = work_policy_by_name(name).unwrap();
        let mut runner = WorkRunner::new(cfg.clone(), policy, 1);
        let score = run(&mut runner, &trace, &EngineConfig::draining())
            .unwrap()
            .score;
        assert!(
            score <= opt_score,
            "{name} ({score}) beat the PQ surrogate ({opt_score})"
        );
    }
}

/// The single-PQ surrogates as they were first written (tree-map class
/// maps, a full stable sort per combined transmission phase), kept as
/// oracles for the allocation-free versions in `smbm_core`.
mod oracle {
    use std::collections::BTreeMap;

    use smbm_switch::{ArrivalOutcome, Counters, DropReason, PortId};

    pub struct WorkPqOpt {
        pub buffer: usize,
        pub cores: u32,
        pub residuals: BTreeMap<u32, u64>,
        pub occupancy: usize,
        pub counters: Counters,
    }

    impl WorkPqOpt {
        pub fn new(buffer: usize, cores: u32) -> Self {
            WorkPqOpt {
                buffer,
                cores,
                residuals: BTreeMap::new(),
                occupancy: 0,
                counters: Counters::new(),
            }
        }

        pub fn offer_work(&mut self, w: u32) -> ArrivalOutcome {
            self.counters.record_arrival(1);
            if self.occupancy < self.buffer {
                self.counters.record_admission(1);
                *self.residuals.entry(w).or_insert(0) += 1;
                self.occupancy += 1;
                return ArrivalOutcome::Admitted;
            }
            let (&max_residual, _) = self.residuals.last_key_value().unwrap();
            if w < max_residual {
                self.remove_one(max_residual);
                self.counters.record_push_out(1);
                self.counters.record_admission(1);
                *self.residuals.entry(w).or_insert(0) += 1;
                self.occupancy += 1;
                ArrivalOutcome::PushedOut(PortId::new(0))
            } else {
                self.counters.record_drop(1);
                ArrivalOutcome::Dropped(DropReason::BufferFull)
            }
        }

        fn remove_one(&mut self, residual: u32) {
            let count = self.residuals.get_mut(&residual).unwrap();
            *count -= 1;
            if *count == 0 {
                self.residuals.remove(&residual);
            }
            self.occupancy -= 1;
        }

        pub fn transmission(&mut self) -> u64 {
            let mut budget = self.cores as u64;
            let mut plan: Vec<(u32, u64)> = Vec::new();
            for (&r, &count) in self.residuals.iter() {
                if budget == 0 {
                    break;
                }
                let take = count.min(budget);
                plan.push((r, take));
                budget -= take;
            }
            let mut completed = 0;
            for (r, take) in plan {
                let count = self.residuals.get_mut(&r).unwrap();
                *count -= take;
                if *count == 0 {
                    self.residuals.remove(&r);
                }
                self.counters.record_cycles(take);
                if r == 1 {
                    completed += take;
                    self.occupancy -= take as usize;
                    for _ in 0..take {
                        self.counters.record_transmission(1, 0);
                    }
                } else {
                    *self.residuals.entry(r - 1).or_insert(0) += take;
                }
            }
            completed
        }

        pub fn flush(&mut self) -> u64 {
            let n = self.occupancy as u64;
            self.residuals.clear();
            self.occupancy = 0;
            self.counters.record_flush(n, n);
            n
        }
    }

    pub struct ValuePqOpt {
        pub buffer: usize,
        pub cores: u32,
        pub values: BTreeMap<u64, u64>,
        pub occupancy: usize,
        pub counters: Counters,
    }

    impl ValuePqOpt {
        pub fn new(buffer: usize, cores: u32) -> Self {
            ValuePqOpt {
                buffer,
                cores,
                values: BTreeMap::new(),
                occupancy: 0,
                counters: Counters::new(),
            }
        }

        pub fn offer(&mut self, v: u64) -> ArrivalOutcome {
            self.counters.record_arrival(v);
            if self.occupancy < self.buffer {
                self.counters.record_admission(v);
                *self.values.entry(v).or_insert(0) += 1;
                self.occupancy += 1;
                return ArrivalOutcome::Admitted;
            }
            let (&min_value, _) = self.values.first_key_value().unwrap();
            if v > min_value {
                self.remove_one(min_value);
                self.counters.record_push_out(min_value);
                self.counters.record_admission(v);
                *self.values.entry(v).or_insert(0) += 1;
                self.occupancy += 1;
                ArrivalOutcome::PushedOut(PortId::new(0))
            } else {
                self.counters.record_drop(v);
                ArrivalOutcome::Dropped(DropReason::BufferFull)
            }
        }

        fn remove_one(&mut self, value: u64) {
            let count = self.values.get_mut(&value).unwrap();
            *count -= 1;
            if *count == 0 {
                self.values.remove(&value);
            }
            self.occupancy -= 1;
        }

        pub fn transmission(&mut self) -> u64 {
            let mut budget = self.cores as u64;
            let mut sent_value = 0;
            while budget > 0 {
                let Some((&v, _)) = self.values.last_key_value() else {
                    break;
                };
                let count = self.values[&v];
                let take = count.min(budget);
                budget -= take;
                sent_value += v * take;
                for _ in 0..take {
                    self.remove_one(v);
                    self.counters.record_transmission(v, 0);
                    self.counters.record_cycles(1);
                }
            }
            sent_value
        }

        pub fn flush(&mut self) -> u64 {
            let n = self.occupancy as u64;
            let value: u64 = self.values.iter().map(|(&v, &count)| v * count).sum();
            self.values.clear();
            self.occupancy = 0;
            self.counters.record_flush(n, value);
            n
        }
    }

    pub struct CombinedPqOpt {
        pub buffer: usize,
        pub cores: u32,
        pub packets: Vec<(u64, u32)>,
        pub counters: Counters,
    }

    impl CombinedPqOpt {
        pub fn new(buffer: usize, cores: u32) -> Self {
            CombinedPqOpt {
                buffer,
                cores,
                packets: Vec::new(),
                counters: Counters::new(),
            }
        }

        pub fn offer(&mut self, v: u64, w: u32) -> ArrivalOutcome {
            self.counters.record_arrival(v);
            if self.packets.len() < self.buffer {
                self.counters.record_admission(v);
                self.packets.push((v, w));
                return ArrivalOutcome::Admitted;
            }
            let (idx, &(rv, rr)) = self
                .packets
                .iter()
                .enumerate()
                .min_by(|&(_, &(av, ar)), &(_, &(bv, br))| {
                    (av as u128 * br as u128).cmp(&(bv as u128 * ar as u128))
                })
                .unwrap();
            if (v as u128) * (rr as u128) > (rv as u128) * (w as u128) {
                self.packets.swap_remove(idx);
                self.counters.record_push_out(rv);
                self.counters.record_admission(v);
                self.packets.push((v, w));
                ArrivalOutcome::PushedOut(PortId::new(0))
            } else {
                self.counters.record_drop(v);
                ArrivalOutcome::Dropped(DropReason::BufferFull)
            }
        }

        pub fn transmission(&mut self) -> u64 {
            let served = (self.cores as usize).min(self.packets.len());
            if served == 0 {
                return 0;
            }
            let mut order: Vec<usize> = (0..self.packets.len()).collect();
            order.sort_by(|&a, &b| {
                let (av, ar) = self.packets[a];
                let (bv, br) = self.packets[b];
                (bv as u128 * ar as u128).cmp(&(av as u128 * br as u128))
            });
            let mut sent = 0;
            let mut remove: Vec<usize> = Vec::new();
            for &i in order.iter().take(served) {
                self.counters.record_cycles(1);
                self.packets[i].1 -= 1;
                if self.packets[i].1 == 0 {
                    sent += self.packets[i].0;
                    self.counters.record_transmission(self.packets[i].0, 0);
                    remove.push(i);
                }
            }
            remove.sort_unstable_by(|a, b| b.cmp(a));
            for i in remove {
                self.packets.swap_remove(i);
            }
            sent
        }

        pub fn flush(&mut self) -> u64 {
            let n = self.packets.len() as u64;
            let value: u64 = self.packets.iter().map(|&(v, _)| v).sum();
            self.packets.clear();
            self.counters.record_flush(n, value);
            n
        }
    }
}

/// One step of a surrogate run.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Offer a packet of value `v` needing `w` cycles (each surrogate
    /// reads the attribute it ranks by).
    Offer(u64, u32),
    Transmit,
    Flush,
}

/// Op sequences over a small buffer. Half the offers have an integral
/// density `d = v / w`, so equal-density ties between different `(v, w)`
/// pairs are common.
fn op_case() -> impl Strategy<Value = (usize, u32, Vec<Op>)> {
    let offer = prop_oneof![
        (1u64..=8, 1u32..=4).prop_map(|(v, w)| Op::Offer(v, w)),
        (1u64..=3, 1u32..=4).prop_map(|(d, w)| Op::Offer(d * u64::from(w), w)),
    ];
    let op = prop_oneof![
        12 => offer,
        5 => Just(Op::Transmit),
        1 => Just(Op::Flush),
    ];
    (1usize..=8, 1u32..=5, proptest::collection::vec(op, 0..=120))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The sorted-class work surrogate matches the tree-map oracle: same
    /// outcome per step, same counters and resident classes after it.
    #[test]
    fn work_pq_opt_matches_oracle((buffer, cores, ops) in op_case()) {
        let mut fast = WorkPqOpt::new(buffer, cores);
        let mut slow = oracle::WorkPqOpt::new(buffer, cores);
        for op in ops {
            match op {
                Op::Offer(_, w) => prop_assert_eq!(
                    fast.offer_work(Work::new(w)),
                    slow.offer_work(w)
                ),
                Op::Transmit => prop_assert_eq!(fast.transmission(), slow.transmission()),
                Op::Flush => prop_assert_eq!(fast.flush(), slow.flush()),
            }
            prop_assert_eq!(fast.counters(), &slow.counters);
            let classes: Vec<(u32, u64)> = slow.residuals.iter().map(|(&r, &c)| (r, c)).collect();
            prop_assert_eq!(fast.residents(), &classes[..]);
            prop_assert_eq!(fast.occupancy(), slow.occupancy);
            fast.check_invariants().unwrap();
        }
    }

    /// The sorted-class value surrogate matches the tree-map oracle.
    #[test]
    fn value_pq_opt_matches_oracle((buffer, cores, ops) in op_case()) {
        let mut fast = ValuePqOpt::new(buffer, cores);
        let mut slow = oracle::ValuePqOpt::new(buffer, cores);
        for op in ops {
            match op {
                Op::Offer(v, _) => prop_assert_eq!(
                    fast.offer(ValuePacket::new(PortId::new(0), Value::new(v))),
                    slow.offer(v)
                ),
                Op::Transmit => prop_assert_eq!(fast.transmission(), slow.transmission()),
                Op::Flush => prop_assert_eq!(fast.flush(), slow.flush()),
            }
            prop_assert_eq!(fast.counters(), &slow.counters);
            let classes: Vec<(u64, u64)> = slow.values.iter().map(|(&v, &c)| (v, c)).collect();
            prop_assert_eq!(fast.residents(), &classes[..]);
            prop_assert_eq!(fast.occupancy(), slow.occupancy);
            fast.check_invariants().unwrap();
        }
    }

    /// The partial-select combined surrogate matches the stable-sort
    /// oracle, down to the order of its resident packets (which decides
    /// later ties).
    #[test]
    fn combined_pq_opt_matches_oracle((buffer, cores, ops) in op_case()) {
        let mut fast = CombinedPqOpt::new(buffer, cores);
        let mut slow = oracle::CombinedPqOpt::new(buffer, cores);
        for op in ops {
            match op {
                Op::Offer(v, w) => prop_assert_eq!(
                    fast.offer(CombinedPacket::new(PortId::new(0), Work::new(w), Value::new(v))),
                    slow.offer(v, w)
                ),
                Op::Transmit => prop_assert_eq!(fast.transmission(), slow.transmission()),
                Op::Flush => prop_assert_eq!(fast.flush(), slow.flush()),
            }
            prop_assert_eq!(fast.counters(), &slow.counters);
            prop_assert_eq!(fast.residents(), &slow.packets[..]);
            fast.check_invariants().unwrap();
        }
    }
}
