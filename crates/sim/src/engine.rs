//! The offline trace driver: feeds any [`DatapathSystem`] through an
//! arrival trace, one burst per slot, with the paper's periodic flushouts.
//!
//! The slot semantics themselves — flush, arrival, transmission, drain —
//! live in `smbm-datapath`'s [`SlotMachine`]; this module only decides when
//! to feed it (once per trace slot) and folds the machine's [`SlotStats`]
//! into a [`RunSummary`]. [`run_observed`] takes an [`Observer`]; [`run`]
//! passes [`NullObserver`], which monomorphizes every hook to a no-op, so
//! uninstrumented runs cost the same as before the observer existed — and
//! by construction execute the exact same slot sequence, so summaries and
//! counters are identical either way.
//!
//! [`SlotStats`]: smbm_datapath::SlotStats

use smbm_datapath::{DatapathSystem, NoHook, SlotMachine};
use smbm_obs::{NullObserver, Observer};
use smbm_switch::AdmitError;
use smbm_traffic::Trace;

use crate::FlushPolicy;

/// Engine knobs, the same for every packet model.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    /// Periodic flushouts, as in the paper's simulations (`None` disables).
    pub flush: Option<FlushPolicy>,
    /// Whether to keep running arrival-free slots after the trace until the
    /// buffer empties, so every admitted packet is counted. The theorem
    /// traces set this to `false` (stuck heavy packets are the point);
    /// MMPP experiments set it to `true`.
    pub drain_at_end: bool,
}

impl EngineConfig {
    /// No flushouts, final drain enabled: the default for statistical runs.
    pub fn draining() -> Self {
        EngineConfig {
            flush: None,
            drain_at_end: true,
        }
    }

    /// No flushouts, no final drain: the setting for theorem traces.
    pub fn horizon_only() -> Self {
        EngineConfig {
            flush: None,
            drain_at_end: false,
        }
    }
}

/// Summary of one system's run over a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Slots executed, including drain slots.
    pub slots: u64,
    /// Final objective value: total value transmitted (the packet count in
    /// the work model).
    pub score: u64,
    /// Mean buffer occupancy sampled at the end of every slot.
    pub mean_occupancy: f64,
    /// Peak buffer occupancy sampled at the end of any slot.
    pub max_occupancy: usize,
}

/// Runs any system — a policy runner of any packet model, an OPT
/// surrogate — over `trace`.
///
/// # Errors
///
/// Propagates an [`AdmitError`] raised by an inconsistent policy decision.
pub fn run<S: DatapathSystem>(
    sys: &mut S,
    trace: &Trace<S::Packet>,
    engine: &EngineConfig,
) -> Result<RunSummary, AdmitError> {
    run_observed(sys, trace, engine, &mut NullObserver)
}

/// Like [`run`], reporting every engine event to `obs`.
///
/// # Errors
///
/// Propagates an [`AdmitError`] raised by an inconsistent policy decision.
pub fn run_observed<S: DatapathSystem, O: Observer>(
    sys: &mut S,
    trace: &Trace<S::Packet>,
    engine: &EngineConfig,
    obs: &mut O,
) -> Result<RunSummary, AdmitError> {
    let mut machine = SlotMachine::new(sys, engine.flush);
    for burst in trace.iter() {
        assert!(
            machine.flush_check(obs, &mut NoHook),
            "drain did not terminate"
        );
        machine.step(burst, obs, &mut NoHook)?;
    }
    if engine.drain_at_end {
        // The final drain contributes to the occupancy mean but not the
        // maximum (occupancy only falls while draining).
        assert!(
            machine.drain(obs, &mut NoHook, true),
            "final drain did not terminate"
        );
    }
    let stats = *machine.stats();
    Ok(RunSummary {
        slots: stats.slots,
        score: machine.score(),
        mean_occupancy: stats.mean_occupancy(),
        max_occupancy: stats.occ_max,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlushMode;
    use smbm_core::{GreedyValue, GreedyWork, ValueRunner, WorkRunner};
    use smbm_switch::{
        PortId, Value, ValuePacket, ValueSwitchConfig, Work, WorkPacket, WorkSwitchConfig,
    };

    fn wp(port: usize, w: u32) -> WorkPacket {
        WorkPacket::new(PortId::new(port), Work::new(w))
    }

    fn vp(port: usize, v: u64) -> ValuePacket {
        ValuePacket::new(PortId::new(port), Value::new(v))
    }

    #[test]
    fn work_run_counts_transmissions() {
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        let mut sys = WorkRunner::new(cfg, GreedyWork::new(), 1);
        let mut trace = Trace::new();
        trace.push_slot(vec![wp(0, 1), wp(1, 2)]);
        trace.push_silence(2);
        let s = run(&mut sys, &trace, &EngineConfig::horizon_only()).unwrap();
        assert_eq!(s.slots, 3);
        assert_eq!(s.score, 2); // 1-cycle done slot 0, 2-cycle done slot 1
    }

    #[test]
    fn final_drain_counts_resident_packets() {
        let cfg = WorkSwitchConfig::contiguous(1, 8).unwrap();
        let mut sys = WorkRunner::new(cfg, GreedyWork::new(), 1);
        let mut trace = Trace::new();
        trace.push_slot(vec![wp(0, 1); 5]);
        let horizon = run(&mut sys, &trace, &EngineConfig::horizon_only()).unwrap();
        assert_eq!(horizon.score, 1);

        let cfg = WorkSwitchConfig::contiguous(1, 8).unwrap();
        let mut sys = WorkRunner::new(cfg, GreedyWork::new(), 1);
        let drained = run(&mut sys, &trace, &EngineConfig::draining()).unwrap();
        assert_eq!(drained.score, 5);
        assert_eq!(drained.slots, 5); // 1 trace slot + 4 drain slots
    }

    #[test]
    fn flush_drop_discards_backlog() {
        let cfg = WorkSwitchConfig::contiguous(1, 8).unwrap();
        let mut sys = WorkRunner::new(cfg, GreedyWork::new(), 1);
        let mut trace = Trace::new();
        trace.push_slot(vec![wp(0, 1); 6]);
        trace.push_silence(3); // slots 1..3
        trace.push_slot(vec![wp(0, 1)]); // slot 4, right at flush boundary
        let engine = EngineConfig {
            flush: Some(FlushPolicy {
                period: 4,
                mode: FlushMode::Drop,
            }),
            drain_at_end: false,
        };
        let s = run(&mut sys, &trace, &engine).unwrap();
        // Slots 0-3 transmit 4; flush at slot 4 drops the remaining 2, the
        // new arrival transmits at slot 4.
        assert_eq!(s.score, 5);
    }

    #[test]
    fn flush_drain_pauses_arrivals() {
        let cfg = WorkSwitchConfig::contiguous(1, 8).unwrap();
        let mut sys = WorkRunner::new(cfg, GreedyWork::new(), 1);
        let mut trace = Trace::new();
        trace.push_slot(vec![wp(0, 1); 6]);
        trace.push_silence(3);
        trace.push_slot(vec![wp(0, 1)]);
        let engine = EngineConfig {
            flush: Some(FlushPolicy {
                period: 4,
                mode: FlushMode::Drain,
            }),
            drain_at_end: false,
        };
        let s = run(&mut sys, &trace, &engine).unwrap();
        // Everything is transmitted: the drain inserts extra slots.
        assert_eq!(s.score, 7);
        assert!(s.slots > 5);
    }

    #[test]
    fn occupancy_statistics_are_tracked() {
        let cfg = WorkSwitchConfig::contiguous(1, 8).unwrap();
        let mut sys = WorkRunner::new(cfg, GreedyWork::new(), 1);
        let mut trace = Trace::new();
        trace.push_slot(vec![wp(0, 1); 5]); // slot 0 ends with 4 resident
        trace.push_silence(2); // 3, 2 resident
        let s = run(&mut sys, &trace, &EngineConfig::draining()).unwrap();
        assert_eq!(s.max_occupancy, 4);
        // Occupancies after each slot: 4, 3, 2, then drain 1, 0.
        assert!(
            (s.mean_occupancy - 2.0).abs() < 1e-12,
            "{}",
            s.mean_occupancy
        );
    }

    #[test]
    fn value_run_scores_value() {
        let cfg = ValueSwitchConfig::new(4, 2).unwrap();
        let mut sys = ValueRunner::new(cfg, GreedyValue::new(), 1);
        let mut trace = Trace::new();
        trace.push_slot(vec![vp(0, 5), vp(1, 3), vp(0, 2)]);
        let s = run(&mut sys, &trace, &EngineConfig::draining()).unwrap();
        assert_eq!(s.score, 10);
    }

    #[test]
    fn combined_run_scores_value() {
        use smbm_core::{CombinedRunner, GreedyCombined};
        use smbm_switch::{CombinedPacket, Value, WorkSwitchConfig};
        let cfg = WorkSwitchConfig::contiguous(2, 4).unwrap();
        let mut sys = CombinedRunner::new(cfg.clone(), GreedyCombined::new(), 1);
        let mut trace = Trace::new();
        trace.push_slot(vec![
            CombinedPacket::new(PortId::new(0), cfg.work(PortId::new(0)), Value::new(5)),
            CombinedPacket::new(PortId::new(1), cfg.work(PortId::new(1)), Value::new(3)),
        ]);
        let s = run(&mut sys, &trace, &EngineConfig::draining()).unwrap();
        assert_eq!(s.score, 8);
    }

    #[test]
    fn opt_surrogates_run_through_the_same_engine() {
        let mut opt = smbm_core::WorkPqOpt::new(4, 2);
        let mut trace = Trace::new();
        trace.push_slot(vec![wp(0, 1), wp(1, 2), wp(0, 1)]);
        let s = run(&mut opt, &trace, &EngineConfig::draining()).unwrap();
        assert_eq!(s.score, 3);
    }

    #[test]
    fn observed_run_matches_unobserved_and_logs_events() {
        use smbm_obs::{HistogramRecorder, RingEventLog};

        let mk = || {
            let cfg = WorkSwitchConfig::contiguous(1, 2).unwrap();
            WorkRunner::new(cfg, GreedyWork::new(), 1)
        };
        let mut trace = Trace::new();
        trace.push_slot(vec![wp(0, 1); 4]); // 2 admitted, 2 dropped
        trace.push_silence(1);

        let plain = run(&mut mk(), &trace, &EngineConfig::draining()).unwrap();
        let mut log = RingEventLog::new(64);
        let mut hist = HistogramRecorder::new();
        let mut obs = (&mut log, &mut hist);
        let observed =
            run_observed(&mut mk(), &trace, &EngineConfig::draining(), &mut obs).unwrap();
        assert_eq!(plain, observed);

        assert_eq!(hist.arrivals(), 4);
        assert_eq!(hist.admitted_packets(), 2);
        assert_eq!(
            hist.drop_count(smbm_obs::DropReason::BufferFull),
            2,
            "full-buffer greedy drops are classified as buffer_full"
        );
        assert_eq!(hist.transmitted_packets(), 2);
        let jsonl = log.to_jsonl();
        assert!(jsonl.contains("\"type\":\"arrival\""));
        assert!(jsonl.contains("\"type\":\"dropped\""));
        assert!(jsonl.contains("\"type\":\"transmitted\""));
    }

    #[test]
    fn drain_slots_are_bracketed() {
        use smbm_obs::{Event, RingEventLog};

        let cfg = WorkSwitchConfig::contiguous(1, 8).unwrap();
        let mut sys = WorkRunner::new(cfg, GreedyWork::new(), 1);
        let mut trace = Trace::new();
        trace.push_slot(vec![wp(0, 1); 3]);
        let mut log = RingEventLog::new(64);
        run_observed(&mut sys, &trace, &EngineConfig::draining(), &mut log).unwrap();
        let events: Vec<&Event> = log.events().collect();
        assert!(matches!(
            events
                .iter()
                .find(|e| matches!(e, Event::DrainStart { .. })),
            Some(Event::DrainStart { slot: 1 })
        ));
        assert!(matches!(
            events.iter().find(|e| matches!(e, Event::DrainEnd { .. })),
            Some(Event::DrainEnd { slot: 3 })
        ));
    }
}
