//! Differential test for `WorkRunner`'s drop-verdict memo.
//!
//! Once the policy drops an arrival to a port, the runner drops that port's
//! later arrivals without asking the policy again until the switch version
//! moves. The oracle here has no memo: it asks the policy on every arrival
//! and applies the matching switch operation. Both are driven through the
//! same random bursts, with transmissions, slot ends and flushes between
//! arrivals and invalid packets mixed in, and must agree on every result,
//! on the counters and on every queue after every step. Where a policy
//! selects its victim through the shared arg-max selector, the oracle runs
//! the policy's independent scan (`tests/common/`) instead, so the memo and
//! the selector are checked together: at 8 ports the selector scans, at 40
//! and 64 it keeps an index.

mod common;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use common::{ScanAlphaWd, ScanLqd, ScanLwd};
use smbm_core::{
    work_policy_by_name, AlphaWd, Decision, LwdTieBreak, WorkPolicy, WorkRunner, WORK_POLICY_NAMES,
};
use smbm_switch::{AdmitError, PortId, Work, WorkPacket, WorkSwitch, WorkSwitchConfig};

/// The runner's semantics without the memo: every valid arrival is decided.
struct Oracle {
    switch: WorkSwitch,
    policy: Box<dyn WorkPolicy>,
    speedup: u32,
    dirty: Vec<PortId>,
}

impl Oracle {
    fn arrival(&mut self, pkt: WorkPacket) -> Result<Decision, AdmitError> {
        let ports = self.switch.ports();
        if pkt.port().index() >= ports {
            return Err(AdmitError::UnknownPort {
                port: pkt.port(),
                ports,
            });
        }
        // Sync the policy's index before every decision, not only on a full
        // buffer as the runner does; indices answer the same either way.
        if self.policy.wants_queue_events(ports) && self.switch.has_dirty_ports() {
            self.switch.drain_dirty_into(&mut self.dirty);
            self.policy.queues_changed(&self.switch, &self.dirty);
        }
        let decision = self.policy.decide(&self.switch, pkt);
        match decision {
            Decision::Accept => self.switch.admit(pkt)?,
            Decision::Drop => {
                self.switch.reject(pkt)?;
            }
            Decision::PushOut(victim) => {
                self.switch.push_out_and_admit(victim, pkt)?;
            }
        }
        Ok(decision)
    }

    fn flush(&mut self) -> u64 {
        self.policy.on_flush();
        self.switch.flush()
    }
}

type Factory = Box<dyn Fn() -> Box<dyn WorkPolicy>>;

/// A policy under test and the memo-less oracle's policy.
struct Entry {
    name: String,
    make: Factory,
    oracle: Factory,
}

/// Every registry work policy, the LWD tie-break variants and AWD, each
/// against its scan oracle where it has one and against itself otherwise.
fn roster() -> Vec<Entry> {
    let scan = |name: &str| -> Option<Factory> {
        Some(match name {
            "LQD" => Box::new(|| Box::new(ScanLqd)),
            "LWD" => Box::new(|| Box::new(ScanLwd::new(LwdTieBreak::MaxWork))),
            "LWD-MAXLEN" => Box::new(|| Box::new(ScanLwd::new(LwdTieBreak::MaxLen))),
            "LWD-MINWORK" => Box::new(|| Box::new(ScanLwd::new(LwdTieBreak::MinWork))),
            _ => return None,
        })
    };
    let mut roster: Vec<Entry> = WORK_POLICY_NAMES
        .iter()
        .chain(&["GREEDY", "NHDT-W", "LWD-MAXLEN", "LWD-MINWORK"])
        .map(|&name| {
            let make = move || work_policy_by_name(name).unwrap();
            Entry {
                name: name.to_owned(),
                oracle: scan(name).unwrap_or_else(|| Box::new(make)),
                make: Box::new(make),
            }
        })
        .collect();
    roster.push(Entry {
        name: "AWD(0.5)".into(),
        make: Box::new(|| Box::new(AlphaWd::new(0.5))),
        oracle: Box::new(|| Box::new(ScanAlphaWd::new(0.5))),
    });
    roster
}

fn assert_same(runner: &WorkRunner<Box<dyn WorkPolicy>>, oracle: &Oracle, ctx: &str) {
    let (a, b) = (runner.switch(), &oracle.switch);
    assert_eq!(a.counters(), b.counters(), "{ctx}: counters");
    for (port, q) in a.queues() {
        let o = b.queue(port);
        assert_eq!(
            (q.len(), q.total_work()),
            (o.len(), o.total_work()),
            "{ctx}: {port}"
        );
    }
}

/// One arrival: mostly to a few hot ports, so drops repeat on a port while
/// the switch stands still; sometimes an unknown port or a wrong work label.
fn arrival(rng: &mut StdRng, cfg: &WorkSwitchConfig, hot: &[usize]) -> WorkPacket {
    let ports = cfg.ports();
    let port = if rng.random_bool(0.6) {
        hot[rng.random_range(0..hot.len())]
    } else {
        rng.random_range(0..ports)
    };
    let work = cfg.work(PortId::new(port)).cycles();
    match rng.random_range(0..100u32) {
        0 => WorkPacket::new(PortId::new(ports + port), Work::new(1)),
        1 => WorkPacket::new(PortId::new(port), Work::new(work + 1)),
        _ => WorkPacket::new(PortId::new(port), Work::new(work)),
    }
}

/// Drives one policy through `slots` random slots; returns how many
/// arrivals a memo could have answered (a repeated drop on a port with the
/// switch unchanged since), so callers can check the memo was exercised.
fn drive(entry: &Entry, ports: u32, seed: u64, slots: usize) -> usize {
    let name = &entry.name;
    let mut rng = StdRng::seed_from_u64(seed);
    let buffer = rng.random_range(ports as usize..=4 * ports as usize);
    let cfg = WorkSwitchConfig::contiguous(ports, buffer).unwrap();
    let speedup = rng.random_range(1..=2);
    let mut runner = WorkRunner::new(cfg.clone(), (entry.make)(), speedup);
    let mut oracle = Oracle {
        switch: WorkSwitch::new(cfg.clone()),
        policy: (entry.oracle)(),
        speedup,
        dirty: Vec::new(),
    };
    let hot: Vec<usize> = (0..3)
        .map(|_| rng.random_range(0..ports as usize))
        .collect();
    let mut last_drop = vec![u64::MAX; ports as usize];
    let mut repeats = 0;
    for slot in 0..slots {
        let burst = rng.random_range(0..=2 * buffer);
        for i in 0..burst {
            let ctx = format!("{name} n={ports} B={buffer} seed={seed} slot={slot} arrival={i}");
            // Mid-burst switch changes that no slot end follows at once, so
            // a stale stamp would survive them.
            match rng.random_range(0..200u32) {
                0..=3 => {
                    let mut out = Vec::new();
                    let a = runner.transmission_into(&mut out).transmitted;
                    let b = oracle.switch.transmit(oracle.speedup).transmitted;
                    assert_eq!(a, b, "{ctx}: mid-burst transmission");
                }
                4 => assert_eq!(runner.flush(), oracle.flush(), "{ctx}: flush"),
                _ => {}
            }
            let pkt = arrival(&mut rng, &cfg, &hot);
            let version = oracle.switch.version();
            let expected = oracle.arrival(pkt);
            assert_eq!(runner.arrival(pkt), expected, "{ctx}: {pkt:?}");
            if expected == Ok(Decision::Drop) {
                let port = pkt.port().index();
                repeats += usize::from(last_drop[port] == version);
                last_drop[port] = version;
            }
            assert_same(&runner, &oracle, &ctx);
        }
        let a = runner.transmission().transmitted;
        let b = oracle.switch.transmit(oracle.speedup).transmitted;
        assert_eq!(a, b, "{name} seed={seed} slot={slot}: transmission");
        runner.end_slot();
        oracle.switch.advance_slot();
        assert_same(&runner, &oracle, &format!("{name} seed={seed} slot={slot}"));
    }
    repeats
}

fn check(ports: u32, seeds: u64, slots: usize) {
    for entry in roster() {
        let repeats: usize = (0..seeds)
            .map(|seed| drive(&entry, ports, seed, slots))
            .sum();
        assert!(
            repeats > 0,
            "{} at {ports} ports never repeated a drop",
            entry.name
        );
    }
}

#[test]
fn memo_matches_a_policy_asked_on_every_arrival_at_8_ports() {
    check(8, 24, 40);
}

#[test]
fn memo_matches_a_policy_asked_on_every_arrival_at_40_ports() {
    check(40, 6, 25);
}

#[test]
fn memo_matches_a_policy_asked_on_every_arrival_at_64_ports() {
    check(64, 6, 25);
}
