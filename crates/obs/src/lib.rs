//! # smbm-obs
//!
//! Observability layer for the simulation engine: a zero-cost [`Observer`]
//! trait with per-slot and per-packet hooks, plus batteries-included
//! implementations:
//!
//! * [`NullObserver`] — the default; every hook is an empty inlined no-op,
//!   so the uninstrumented engine pays nothing;
//! * [`RingEventLog`] — a bounded in-memory structured event buffer with
//!   JSONL export;
//! * [`HistogramRecorder`] — log-bucketed histograms of latency, buffer
//!   occupancy, queue length and burst size, plus drop-reason counts, for
//!   offline runs (the CLI's `--metrics-out`, `fig5 --metrics-dir`);
//! * [`PhaseProfiler`] — wall-clock timing of the arrival, transmission,
//!   flush and drain phases and end-to-end slot throughput;
//! * the live telemetry plane — per-shard [`StatCell`]s written lock-free
//!   from the hot loop, a [`TelemetrySampler`] background thread turning
//!   them into a bounded time-series with JSONL and Prometheus exposition.
//!   It is the runtime's one live ledger besides the switch counters:
//!   producers' edge drops and a supervisor's booked losses land in the
//!   same cells, so a run's final sample equals its counters, faulted runs
//!   included;
//! * [`FlightRecorder`] — a bounded per-shard ring of recent events the
//!   runtime supervisor dumps post-mortem when a shard dies.
//!
//! Observers are passive: they never influence admission decisions or the
//! slot loop, so an instrumented run produces bit-identical results to an
//! uninstrumented one (the engine's integration tests pin this).
//!
//! ## Example
//!
//! ```
//! use smbm_obs::{HistogramRecorder, Observer};
//! use smbm_switch::PortId;
//!
//! let mut rec = HistogramRecorder::new();
//! rec.slot_start(0);
//! rec.arrival(0, PortId::new(0), 1, 5);
//! rec.admitted(0, PortId::new(0));
//! rec.transmitted(0, PortId::new(0), 3, 5);
//! rec.slot_end(0, 0);
//! assert_eq!(rec.transmitted_packets(), 1);
//! assert!(rec.to_json().contains("\"latency\""));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod event;
mod flight;
mod hist;
mod profile;
mod sink;
mod telemetry;

pub use event::{Event, RingEventLog};
pub use flight::FlightRecorder;
pub use hist::{HistogramRecorder, LogHistogram};
pub use profile::{PhaseProfiler, PhaseReport};
pub use sink::JsonlWriter;
pub use telemetry::{
    NetCounts, SampleRates, StatCell, StatSnapshot, TelemetryConfig, TelemetryObserver,
    TelemetryReport, TelemetrySample, TelemetrySampler,
};

use smbm_switch::PortId;
pub use smbm_switch::{ArrivalOutcome, DropReason};

/// A phase of the slot loop, reported to [`Observer::phase_start`] /
/// [`Observer::phase_end`].
///
/// Drain slots report only [`Phase::Drain`] (not `Transmission`), so the
/// four phase timings partition the profiled wall clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Popping arrival batches from ingress rings (runtime datapath only;
    /// the offline engine reads its trace for free).
    Ingress,
    /// Offering the slot's burst to the admission policy.
    Arrival,
    /// The transmission phase of a regular (trace-driven) slot.
    Transmission,
    /// A periodic flushout discarding the buffer.
    Flush,
    /// Extra slots run with no arrivals to empty the buffer (periodic
    /// drain-mode flush or the final drain).
    Drain,
    /// Supervised shard recovery: accounting a dead incarnation, draining
    /// or re-homing its orphaned ring backlog, and restarting the shard
    /// (runtime datapath only).
    Recovery,
}

impl Phase {
    /// A stable lowercase label, used in profile reports.
    pub fn label(&self) -> &'static str {
        match self {
            Phase::Ingress => "ingress",
            Phase::Arrival => "arrival",
            Phase::Transmission => "transmission",
            Phase::Flush => "flush",
            Phase::Drain => "drain",
            Phase::Recovery => "recovery",
        }
    }

    pub(crate) const COUNT: usize = 6;

    pub(crate) fn index(self) -> usize {
        match self {
            Phase::Ingress => 0,
            Phase::Arrival => 1,
            Phase::Transmission => 2,
            Phase::Flush => 3,
            Phase::Drain => 4,
            Phase::Recovery => 5,
        }
    }

    pub(crate) fn all() -> [Phase; Phase::COUNT] {
        [
            Phase::Ingress,
            Phase::Arrival,
            Phase::Transmission,
            Phase::Flush,
            Phase::Drain,
            Phase::Recovery,
        ]
    }
}

/// Per-slot / per-packet instrumentation hooks called by the simulation
/// engine.
///
/// Every hook has an empty default body, so implementors only override what
/// they care about and [`NullObserver`] compiles down to nothing. `slot` is
/// the engine's running slot counter; it keeps increasing through drain
/// slots, matching [`smbm_sim::RunSummary::slots`] semantics.
///
/// [`smbm_sim::RunSummary::slots`]: ../smbm_sim/struct.RunSummary.html
#[allow(unused_variables)]
pub trait Observer {
    /// A new slot begins.
    fn slot_start(&mut self, slot: u64) {}

    /// A packet is offered to the admission policy. `work` is its required
    /// processing (1 in the value model) and `value` its intrinsic value
    /// (1 in the processing model).
    fn arrival(&mut self, slot: u64, port: PortId, work: u32, value: u64) {}

    /// The offered packet entered the buffer.
    fn admitted(&mut self, slot: u64, port: PortId) {}

    /// The offered packet was rejected.
    fn dropped(&mut self, slot: u64, port: PortId, reason: DropReason) {}

    /// A resident packet queued for `victim` was evicted to make room
    /// (always followed by [`Observer::admitted`] for the arrival).
    fn pushed_out(&mut self, slot: u64, victim: PortId) {}

    /// A packet left the switch after `latency` slots in the buffer.
    fn transmitted(&mut self, slot: u64, port: PortId, latency: u64, value: u64) {}

    /// A periodic flushout discarded `discarded` resident packets.
    fn flush(&mut self, slot: u64, discarded: u64) {}

    /// A drain (zero-arrival slot sequence) begins.
    fn drain_start(&mut self, slot: u64) {}

    /// The drain finished; the buffer is empty.
    fn drain_end(&mut self, slot: u64) {}

    /// The slot ended with `occupancy` packets resident.
    fn slot_end(&mut self, slot: u64, occupancy: usize) {}

    /// The deepest per-port queue held `depth` packets at the end of the
    /// slot (runtime datapath only; feeds the telemetry plane's queue-depth
    /// gauge and high-watermark).
    fn queue_depth(&mut self, slot: u64, depth: u64) {}

    /// A shard (re)started serving a switch with the given shared buffer
    /// limit and port count (runtime datapath only; feeds the telemetry
    /// plane's configuration gauges).
    fn shard_started(&mut self, buffer_limit: usize, ports: usize) {}

    /// A phase of the slot loop begins.
    fn phase_start(&mut self, phase: Phase) {}

    /// The phase ends.
    fn phase_end(&mut self, phase: Phase) {}

    /// A supervised shard incarnation died at `slot` with `orphans` packets
    /// still queued in its ingress rings (runtime datapath only).
    fn shard_panicked(&mut self, slot: u64, orphans: u64) {}

    /// The supervisor rebuilt the dead shard from its service config;
    /// `attempt` is the 1-based restart count against the budget.
    fn shard_restarted(&mut self, slot: u64, attempt: u64) {}

    /// The supervisor exhausted its restart budget and abandoned the shard,
    /// dropping `orphans` ring packets as shard-failure losses.
    fn shard_failed(&mut self, slot: u64, orphans: u64) {}
}

/// The zero-cost default observer: every hook is a no-op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {}

impl<O: Observer> Observer for &mut O {
    fn slot_start(&mut self, slot: u64) {
        (**self).slot_start(slot);
    }
    fn arrival(&mut self, slot: u64, port: PortId, work: u32, value: u64) {
        (**self).arrival(slot, port, work, value);
    }
    fn admitted(&mut self, slot: u64, port: PortId) {
        (**self).admitted(slot, port);
    }
    fn dropped(&mut self, slot: u64, port: PortId, reason: DropReason) {
        (**self).dropped(slot, port, reason);
    }
    fn pushed_out(&mut self, slot: u64, victim: PortId) {
        (**self).pushed_out(slot, victim);
    }
    fn transmitted(&mut self, slot: u64, port: PortId, latency: u64, value: u64) {
        (**self).transmitted(slot, port, latency, value);
    }
    fn flush(&mut self, slot: u64, discarded: u64) {
        (**self).flush(slot, discarded);
    }
    fn drain_start(&mut self, slot: u64) {
        (**self).drain_start(slot);
    }
    fn drain_end(&mut self, slot: u64) {
        (**self).drain_end(slot);
    }
    fn slot_end(&mut self, slot: u64, occupancy: usize) {
        (**self).slot_end(slot, occupancy);
    }
    fn queue_depth(&mut self, slot: u64, depth: u64) {
        (**self).queue_depth(slot, depth);
    }
    fn shard_started(&mut self, buffer_limit: usize, ports: usize) {
        (**self).shard_started(buffer_limit, ports);
    }
    fn phase_start(&mut self, phase: Phase) {
        (**self).phase_start(phase);
    }
    fn phase_end(&mut self, phase: Phase) {
        (**self).phase_end(phase);
    }
    fn shard_panicked(&mut self, slot: u64, orphans: u64) {
        (**self).shard_panicked(slot, orphans);
    }
    fn shard_restarted(&mut self, slot: u64, attempt: u64) {
        (**self).shard_restarted(slot, attempt);
    }
    fn shard_failed(&mut self, slot: u64, orphans: u64) {
        (**self).shard_failed(slot, orphans);
    }
}

/// Absent observers are no-ops, so optional instrumentation (CLI flags) can
/// compose statically without boxing.
impl<O: Observer> Observer for Option<O> {
    fn slot_start(&mut self, slot: u64) {
        if let Some(o) = self {
            o.slot_start(slot);
        }
    }
    fn arrival(&mut self, slot: u64, port: PortId, work: u32, value: u64) {
        if let Some(o) = self {
            o.arrival(slot, port, work, value);
        }
    }
    fn admitted(&mut self, slot: u64, port: PortId) {
        if let Some(o) = self {
            o.admitted(slot, port);
        }
    }
    fn dropped(&mut self, slot: u64, port: PortId, reason: DropReason) {
        if let Some(o) = self {
            o.dropped(slot, port, reason);
        }
    }
    fn pushed_out(&mut self, slot: u64, victim: PortId) {
        if let Some(o) = self {
            o.pushed_out(slot, victim);
        }
    }
    fn transmitted(&mut self, slot: u64, port: PortId, latency: u64, value: u64) {
        if let Some(o) = self {
            o.transmitted(slot, port, latency, value);
        }
    }
    fn flush(&mut self, slot: u64, discarded: u64) {
        if let Some(o) = self {
            o.flush(slot, discarded);
        }
    }
    fn drain_start(&mut self, slot: u64) {
        if let Some(o) = self {
            o.drain_start(slot);
        }
    }
    fn drain_end(&mut self, slot: u64) {
        if let Some(o) = self {
            o.drain_end(slot);
        }
    }
    fn slot_end(&mut self, slot: u64, occupancy: usize) {
        if let Some(o) = self {
            o.slot_end(slot, occupancy);
        }
    }
    fn queue_depth(&mut self, slot: u64, depth: u64) {
        if let Some(o) = self {
            o.queue_depth(slot, depth);
        }
    }
    fn shard_started(&mut self, buffer_limit: usize, ports: usize) {
        if let Some(o) = self {
            o.shard_started(buffer_limit, ports);
        }
    }
    fn phase_start(&mut self, phase: Phase) {
        if let Some(o) = self {
            o.phase_start(phase);
        }
    }
    fn phase_end(&mut self, phase: Phase) {
        if let Some(o) = self {
            o.phase_end(phase);
        }
    }
    fn shard_panicked(&mut self, slot: u64, orphans: u64) {
        if let Some(o) = self {
            o.shard_panicked(slot, orphans);
        }
    }
    fn shard_restarted(&mut self, slot: u64, attempt: u64) {
        if let Some(o) = self {
            o.shard_restarted(slot, attempt);
        }
    }
    fn shard_failed(&mut self, slot: u64, orphans: u64) {
        if let Some(o) = self {
            o.shard_failed(slot, orphans);
        }
    }
}

/// Pairs fan every hook out to both members; nest pairs for wider fan-out.
impl<A: Observer, B: Observer> Observer for (A, B) {
    fn slot_start(&mut self, slot: u64) {
        self.0.slot_start(slot);
        self.1.slot_start(slot);
    }
    fn arrival(&mut self, slot: u64, port: PortId, work: u32, value: u64) {
        self.0.arrival(slot, port, work, value);
        self.1.arrival(slot, port, work, value);
    }
    fn admitted(&mut self, slot: u64, port: PortId) {
        self.0.admitted(slot, port);
        self.1.admitted(slot, port);
    }
    fn dropped(&mut self, slot: u64, port: PortId, reason: DropReason) {
        self.0.dropped(slot, port, reason);
        self.1.dropped(slot, port, reason);
    }
    fn pushed_out(&mut self, slot: u64, victim: PortId) {
        self.0.pushed_out(slot, victim);
        self.1.pushed_out(slot, victim);
    }
    fn transmitted(&mut self, slot: u64, port: PortId, latency: u64, value: u64) {
        self.0.transmitted(slot, port, latency, value);
        self.1.transmitted(slot, port, latency, value);
    }
    fn flush(&mut self, slot: u64, discarded: u64) {
        self.0.flush(slot, discarded);
        self.1.flush(slot, discarded);
    }
    fn drain_start(&mut self, slot: u64) {
        self.0.drain_start(slot);
        self.1.drain_start(slot);
    }
    fn drain_end(&mut self, slot: u64) {
        self.0.drain_end(slot);
        self.1.drain_end(slot);
    }
    fn slot_end(&mut self, slot: u64, occupancy: usize) {
        self.0.slot_end(slot, occupancy);
        self.1.slot_end(slot, occupancy);
    }
    fn queue_depth(&mut self, slot: u64, depth: u64) {
        self.0.queue_depth(slot, depth);
        self.1.queue_depth(slot, depth);
    }
    fn shard_started(&mut self, buffer_limit: usize, ports: usize) {
        self.0.shard_started(buffer_limit, ports);
        self.1.shard_started(buffer_limit, ports);
    }
    fn phase_start(&mut self, phase: Phase) {
        self.0.phase_start(phase);
        self.1.phase_start(phase);
    }
    fn phase_end(&mut self, phase: Phase) {
        self.0.phase_end(phase);
        self.1.phase_end(phase);
    }
    fn shard_panicked(&mut self, slot: u64, orphans: u64) {
        self.0.shard_panicked(slot, orphans);
        self.1.shard_panicked(slot, orphans);
    }
    fn shard_restarted(&mut self, slot: u64, attempt: u64) {
        self.0.shard_restarted(slot, attempt);
        self.1.shard_restarted(slot, attempt);
    }
    fn shard_failed(&mut self, slot: u64, orphans: u64) {
        self.0.shard_failed(slot, orphans);
        self.1.shard_failed(slot, orphans);
    }
}

/// Renders per-reason drop counts, indexed by [`DropReason::index`], as one
/// JSON object keyed by [`DropReason::label`].
pub(crate) fn drops_json(dropped: &[u64; DropReason::COUNT]) -> String {
    let fields: Vec<String> = DropReason::ALL
        .iter()
        .map(|r| format!("\"{}\":{}", r.label(), dropped[r.index()]))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Minimal JSON string escaping for labels embedded in event/metric output
/// (policy names are alphanumeric, but correctness is cheap).
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_observer_is_callable() {
        let mut o = NullObserver;
        o.slot_start(0);
        o.arrival(0, PortId::new(1), 1, 1);
        o.slot_end(0, 0);
    }

    #[test]
    fn pair_and_option_compose() {
        let mut o = (Some(HistogramRecorder::new()), NullObserver);
        o.slot_start(0);
        o.arrival(0, PortId::new(0), 1, 2);
        o.admitted(0, PortId::new(0));
        o.slot_end(0, 1);
        assert_eq!(o.0.as_ref().unwrap().arrivals(), 1);
    }

    #[test]
    fn phase_labels_are_stable() {
        assert_eq!(Phase::Arrival.label(), "arrival");
        assert_eq!(Phase::Drain.label(), "drain");
        assert_eq!(Phase::Recovery.label(), "recovery");
    }

    #[test]
    fn phase_index_matches_all() {
        for (i, p) in Phase::all().into_iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }
}
