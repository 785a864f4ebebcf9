//! The `DatapathSystem` contract, checked on every implementor: the policy
//! runner in all three packet models, the three OPT surrogates, the single
//! FIFO queue, and the `&mut` and `Box` pointers that forward to them.

use smbm_core::{
    CombinedPqOpt, DatapathSystem, Decision, FifoAdmission, GreedyValue, Lwd, Policy, Runner,
    SingleFifoQueue, ValuePqOpt, ValueRunner, WorkPqOpt, WorkRunner,
};
use smbm_switch::{
    ArrivalOutcome, CombinedPacket, CombinedQueue, Counters, DropReason, PortId, QueueDiscipline,
    Switch, Value, ValuePacket, ValueQueue, ValueSwitchConfig, Work, WorkPacket, WorkQueue,
    WorkSwitchConfig,
};

/// One packet model: its switch configuration and a packet for any port.
trait Model: QueueDiscipline {
    /// `ports` ports (port `i` requires `i + 1` cycles where the model has
    /// work) sharing a buffer of `buffer` slots.
    fn config(ports: usize, buffer: usize) -> Self::Config;
    /// A packet for `port` worth `value` (the work model ignores `value`).
    fn pkt(port: usize, value: u64) -> Self::Packet;
}

impl Model for WorkQueue {
    fn config(ports: usize, buffer: usize) -> WorkSwitchConfig {
        WorkSwitchConfig::contiguous(ports as u32, buffer).unwrap()
    }
    fn pkt(port: usize, _: u64) -> WorkPacket {
        wp(port, port as u32 + 1)
    }
}

impl Model for ValueQueue {
    fn config(ports: usize, buffer: usize) -> ValueSwitchConfig {
        ValueSwitchConfig::new(buffer, ports).unwrap()
    }
    fn pkt(port: usize, value: u64) -> ValuePacket {
        vp(port, value)
    }
}

impl Model for CombinedQueue {
    fn config(ports: usize, buffer: usize) -> WorkSwitchConfig {
        WorkSwitchConfig::contiguous(ports as u32, buffer).unwrap()
    }
    fn pkt(port: usize, value: u64) -> CombinedPacket {
        cp(port, port as u32 + 1, value)
    }
}

fn wp(port: usize, work: u32) -> WorkPacket {
    WorkPacket::new(PortId::new(port), Work::new(work))
}

fn vp(port: usize, value: u64) -> ValuePacket {
    ValuePacket::new(PortId::new(port), Value::new(value))
}

fn cp(port: usize, work: u32, value: u64) -> CombinedPacket {
    CombinedPacket::new(PortId::new(port), Work::new(work), Value::new(value))
}

/// Admits port 0 while space remains and drops it on a full buffer; drops
/// port 1 while space remains and pushes port 0 out for it on a full one.
/// So both drop reasons and a push-out are reachable in every model.
#[derive(Debug)]
struct Rule;

impl<Q: QueueDiscipline> Policy<Q> for Rule {
    fn name(&self) -> &str {
        "RULE"
    }

    fn decide(&mut self, switch: &Switch<Q>, pkt: Q::Packet) -> Decision {
        match (switch.is_full(), Q::port(pkt).index()) {
            (false, 0) => Decision::Accept,
            (false, _) | (true, 0) => Decision::Drop,
            (true, _) => Decision::PushOut(PortId::new(0)),
        }
    }
}

/// The runner contract for model `M`; `meta` is the (work, value) pair
/// `meta` must report for `M::pkt(1, 9)`.
fn runner_contract<M: Model>(meta: (u32, u64)) {
    let mut sys = Runner::<M, _>::new(M::config(2, 3), Rule, 1);
    assert_eq!(sys.label(), "RULE");
    assert_eq!(
        Runner::<M, Rule>::meta(M::pkt(1, 9)),
        (PortId::new(1), meta.0, meta.1)
    );
    assert_eq!((sys.buffer_limit(), sys.ports()), (3, 2));

    // A drop with space left is the policy's choice.
    let policy_drop = ArrivalOutcome::Dropped(DropReason::Policy);
    assert_eq!(sys.offer(M::pkt(1, 4)), Ok(policy_drop));
    for value in [5, 6, 7] {
        assert_eq!(sys.offer(M::pkt(0, value)), Ok(ArrivalOutcome::Admitted));
    }
    assert_eq!((sys.occupancy(), sys.max_queue_depth()), (3, 3));
    // A drop into a full buffer is a buffer-full drop.
    let full_drop = ArrivalOutcome::Dropped(DropReason::BufferFull);
    assert_eq!(sys.offer(M::pkt(0, 8)), Ok(full_drop));
    assert_eq!(
        sys.offer(M::pkt(1, 4)),
        Ok(ArrivalOutcome::PushedOut(PortId::new(0)))
    );
    assert_eq!((sys.occupancy(), sys.max_queue_depth()), (3, 2));
    let c = sys.counters();
    assert_eq!(
        (c.arrived(), c.admitted(), c.dropped(), c.pushed_out()),
        (6, 4, 2, 1)
    );

    // The phase total is the value of the completions it records, and the
    // score is the switch's transmitted value.
    let mut out = Vec::new();
    let sent = sys.transmission_phase_into(&mut out);
    sys.end_slot();
    assert_eq!(out[0].port, PortId::new(0));
    assert_eq!(sent, out.iter().map(|t| t.value.get()).sum::<u64>());
    assert_eq!(sys.counters().transmitted(), out.len() as u64);
    assert_eq!(sys.score(), sent);
    assert_eq!(sys.score(), sys.counters().transmitted_value());
    assert_eq!(sys.score(), sys.transmitted_value());

    let left = sys.occupancy();
    assert!(left > 0);
    assert_eq!(sys.flush(), left as u64);
    assert_eq!((sys.occupancy(), sys.max_queue_depth()), (0, 0));
    assert_eq!(sys.counters(), *sys.switch().counters());
    sys.switch().check_invariants().unwrap();
}

#[test]
fn work_runner_keeps_the_contract() {
    runner_contract::<WorkQueue>((2, 1));
}

#[test]
fn value_runner_keeps_the_contract() {
    runner_contract::<ValueQueue>((1, 9));
}

#[test]
fn combined_runner_keeps_the_contract() {
    runner_contract::<CombinedQueue>((2, 9));
}

/// The contract of a system without a shared-memory switch: it admits
/// `arrivals` into an ample buffer, transmits `sent` (its objective) in
/// the first phase without recording completions, leaves the rest to the
/// flush, and reports no gauges or counters.
fn aggregate_contract<S: DatapathSystem>(
    mut sys: S,
    label: &str,
    arrivals: &[S::Packet],
    meta: (PortId, u32, u64),
    sent: u64,
    left: usize,
) {
    assert_eq!(sys.label(), label);
    assert_eq!(S::meta(arrivals[arrivals.len() - 1]), meta);
    for &pkt in arrivals {
        assert_eq!(sys.offer(pkt), Ok(ArrivalOutcome::Admitted), "{label}");
    }
    assert_eq!(sys.occupancy(), arrivals.len());
    let mut out = Vec::new();
    assert_eq!(sys.transmission_phase_into(&mut out), sent, "{label}");
    assert!(out.is_empty(), "{label} recorded completions");
    sys.end_slot();
    assert_eq!(sys.score(), sent, "{label}");
    assert_eq!(sys.occupancy(), left, "{label}");
    assert_eq!(sys.flush(), left as u64);
    assert_eq!(sys.occupancy(), 0);
    assert_eq!(
        (sys.buffer_limit(), sys.ports(), sys.max_queue_depth()),
        (0, 0, 0)
    );
    assert_eq!(sys.counters(), Counters::new());
}

#[test]
fn work_surrogate_keeps_the_contract() {
    // Two cores serve the two 1-cycle packets; the 3-cycle one waits.
    let arrivals = [wp(0, 1), wp(1, 1), wp(1, 3)];
    let meta = (PortId::new(1), 3, 1);
    aggregate_contract(
        WorkPqOpt::new(4, 2),
        "OPT(pq,2cores)",
        &arrivals,
        meta,
        2,
        1,
    );
}

#[test]
fn value_surrogate_keeps_the_contract() {
    // Two cores serve the two most valuable packets.
    let arrivals = [vp(0, 7), vp(1, 2), vp(1, 5)];
    let meta = (PortId::new(1), 1, 5);
    aggregate_contract(
        ValuePqOpt::new(4, 2),
        "OPT(pq,2cores)",
        &arrivals,
        meta,
        12,
        1,
    );
}

#[test]
fn combined_surrogate_keeps_the_contract() {
    // Two cores serve the two densest packets; the 2-cycle one is the
    // least dense (2 per cycle).
    let arrivals = [cp(0, 1, 6), cp(1, 1, 3), cp(1, 2, 4)];
    let meta = (PortId::new(1), 2, 4);
    let opt = CombinedPqOpt::new(4, 2);
    aggregate_contract(opt, "OPT(density,2cores)", &arrivals, meta, 9, 1);
}

#[test]
fn single_fifo_queue_keeps_the_contract() {
    // Two cores serve the first two packets in FIFO order.
    let arrivals = [wp(0, 1), wp(0, 1), wp(2, 1)];
    let meta = (PortId::new(2), 1, 1);
    let q = SingleFifoQueue::new(4, 2, FifoAdmission::Greedy);
    aggregate_contract(q, "1Q-FIFO(greedy,2cores)", &arrivals, meta, 2, 1);
}

/// Offers `pkts`, runs one slot and reports the outcomes and the score.
fn one_slot<S: DatapathSystem>(mut sys: S, pkts: &[S::Packet]) -> (Vec<ArrivalOutcome>, u64) {
    let outcomes = pkts.iter().map(|&p| sys.offer(p).unwrap()).collect();
    sys.transmission_phase_into(&mut Vec::new());
    sys.end_slot();
    (outcomes, sys.score())
}

#[test]
fn pointers_drive_the_system_in_place() {
    let cfg = WorkSwitchConfig::contiguous(1, 2).unwrap();
    let pkts = [wp(0, 1); 4];
    let owned = one_slot(WorkRunner::new(cfg.clone(), Lwd::new(), 1), &pkts);
    let mut target = WorkRunner::new(cfg.clone(), Lwd::new(), 1);
    assert_eq!(one_slot(&mut target, &pkts), owned);
    assert_eq!(
        one_slot(Box::new(WorkRunner::new(cfg, Lwd::new(), 1)), &pkts),
        owned
    );
    // The borrow drove the caller's runner: one packet out, one left.
    assert_eq!((target.transmitted(), target.switch().occupancy()), (1, 1));
    assert_eq!(
        <&mut WorkRunner<Lwd> as DatapathSystem>::meta(pkts[0]),
        WorkRunner::<Lwd>::meta(pkts[0])
    );

    let mut runner = ValueRunner::new(ValueSwitchConfig::new(4, 2).unwrap(), GreedyValue::new(), 1);
    let (_, score) = one_slot(&mut runner, &[vp(0, 7)]);
    assert_eq!(score, 7);
    assert_eq!(runner.transmitted_value(), 7);
}
