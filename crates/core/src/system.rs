//! The one per-packet system trait, [`DatapathSystem`]: what the slot
//! machine drives, implemented directly by every policy runner (all three
//! packet models through one generic impl), by the OPT surrogates and by
//! the single-FIFO architecture, so the offline engine and the live
//! runtime drive an algorithm and its yardstick through identical slot
//! phases.
//!
//! Every hook reports enough detail for instrumentation: [`offer`] returns
//! the packet's fate ([`ArrivalOutcome`]), [`flush`] the number of discarded
//! packets, and [`transmission_phase_into`] appends per-packet completion
//! records for systems that track them (the shared-memory runners do; the
//! aggregate OPT surrogates report totals only).
//!
//! [`offer`]: DatapathSystem::offer
//! [`flush`]: DatapathSystem::flush
//! [`transmission_phase_into`]: DatapathSystem::transmission_phase_into

use smbm_switch::{
    AdmitError, ArrivalOutcome, CombinedPacket, CombinedQueue, Counters, DropReason, PortId,
    QueueDiscipline, Transmitted, ValuePacket, ValueQueue, WorkPacket, WorkQueue,
};

use crate::{CombinedPqOpt, Decision, Policy, Runner, ValuePqOpt, WorkPqOpt};

/// A system processing packets slot by slot: per-packet admission,
/// transmission, slot bookkeeping, flush, and the scalar gauges the drivers
/// report.
///
/// `meta` is an associated function (not a method) so callers — the
/// runtime's producers attributing value to backpressure-rejected packets,
/// the machine emitting arrival events — can carry it as a plain `fn`
/// pointer without touching the system.
pub trait DatapathSystem {
    /// The packet type flowing through the datapath. Plain data: every
    /// model's packet is `Copy` and crosses threads in the runtime's
    /// ingress rings.
    type Packet: Copy + Send + 'static;

    /// Human-readable label (the policy name) for reports.
    fn label(&self) -> String;

    /// Destination port, work cycles, and value of a packet (1 wherever the
    /// model lacks the dimension), feeding arrival events.
    fn meta(pkt: Self::Packet) -> (PortId, u32, u64);

    /// Presents one arrival during the current slot's arrival phase,
    /// reporting the packet's fate.
    ///
    /// # Errors
    ///
    /// Propagates an [`AdmitError`] from an inconsistent policy decision.
    fn offer(&mut self, pkt: Self::Packet) -> Result<ArrivalOutcome, AdmitError>;

    /// Runs one transmission phase, appending per-packet completion records
    /// for systems that track them; returns the value transmitted (the
    /// packet count in the work model, where every packet is worth 1).
    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64;

    /// Marks the end of the slot (advances the switch clock).
    fn end_slot(&mut self);

    /// Discards all buffered packets (simulation flushout); returns how many
    /// were discarded.
    fn flush(&mut self) -> u64;

    /// Packets currently buffered.
    fn occupancy(&self) -> usize;

    /// The objective so far: total value transmitted (the packet count in
    /// the work model).
    fn score(&self) -> u64;

    /// The configured shared buffer limit B. Defaults to 0 for systems
    /// without one (the aggregate OPT surrogates).
    fn buffer_limit(&self) -> usize {
        0
    }

    /// The configured output port count n. Defaults to 0 for systems
    /// without one.
    fn ports(&self) -> usize {
        0
    }

    /// Length of the longest output queue right now. Defaults to 0 for
    /// systems that do not track per-port queues.
    fn max_queue_depth(&self) -> usize {
        0
    }

    /// Snapshot of the switch's lifetime counters. Defaults to empty for
    /// systems that do not keep them.
    fn counters(&self) -> Counters {
        Counters::new()
    }
}

/// Forwards every [`DatapathSystem`] method to the system behind a pointer.
macro_rules! forward_datapath_system {
    ($($ptr:ty),*) => {$(
        impl<S: DatapathSystem> DatapathSystem for $ptr {
            type Packet = S::Packet;

            fn label(&self) -> String {
                (**self).label()
            }

            fn meta(pkt: S::Packet) -> (PortId, u32, u64) {
                S::meta(pkt)
            }

            fn offer(&mut self, pkt: S::Packet) -> Result<ArrivalOutcome, AdmitError> {
                (**self).offer(pkt)
            }

            fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
                (**self).transmission_phase_into(out)
            }

            fn end_slot(&mut self) {
                (**self).end_slot();
            }

            fn flush(&mut self) -> u64 {
                (**self).flush()
            }

            fn occupancy(&self) -> usize {
                (**self).occupancy()
            }

            fn score(&self) -> u64 {
                (**self).score()
            }

            fn buffer_limit(&self) -> usize {
                (**self).buffer_limit()
            }

            fn ports(&self) -> usize {
                (**self).ports()
            }

            fn max_queue_depth(&self) -> usize {
                (**self).max_queue_depth()
            }

            fn counters(&self) -> Counters {
                (**self).counters()
            }
        }
    )*};
}

// A `&mut` borrow drives a caller-owned system in place (the engine's
// `run`); a `Box` backs the benchmark crate's adapter aliases.
forward_datapath_system!(&mut S, Box<S>);

/// Port, work cycles and value of a packet of discipline `Q`: the
/// [`DatapathSystem::meta`] of every system queueing `Q`'s packets.
pub(crate) fn meta_of<Q: QueueDiscipline>(pkt: Q::Packet) -> (PortId, u32, u64) {
    (Q::port(pkt), Q::work(pkt).cycles(), Q::value(pkt).get())
}

impl<Q: QueueDiscipline, P: Policy<Q>> DatapathSystem for Runner<Q, P> {
    type Packet = Q::Packet;

    fn label(&self) -> String {
        self.policy().name().to_owned()
    }

    fn meta(pkt: Q::Packet) -> (PortId, u32, u64) {
        meta_of::<Q>(pkt)
    }

    /// Classifies the policy's decision, telling drops forced by a full
    /// buffer from voluntary policy rejections.
    fn offer(&mut self, pkt: Q::Packet) -> Result<ArrivalOutcome, AdmitError> {
        let was_full = self.switch().is_full();
        Ok(match self.arrival(pkt)? {
            Decision::Accept => ArrivalOutcome::Admitted,
            Decision::PushOut(victim) => ArrivalOutcome::PushedOut(victim),
            Decision::Drop if was_full => ArrivalOutcome::Dropped(DropReason::BufferFull),
            Decision::Drop => ArrivalOutcome::Dropped(DropReason::Policy),
        })
    }

    fn transmission_phase_into(&mut self, out: &mut Vec<Transmitted>) -> u64 {
        self.transmission_into(out).value
    }

    fn end_slot(&mut self) {
        Runner::end_slot(self);
    }

    fn flush(&mut self) -> u64 {
        Runner::flush(self)
    }

    fn occupancy(&self) -> usize {
        self.switch().occupancy()
    }

    fn score(&self) -> u64 {
        self.transmitted_value()
    }

    fn buffer_limit(&self) -> usize {
        self.switch().buffer()
    }

    fn ports(&self) -> usize {
        self.switch().ports()
    }

    fn max_queue_depth(&self) -> usize {
        self.switch().max_queue_len()
    }

    fn counters(&self) -> Counters {
        *self.switch().counters()
    }
}

/// Implements [`DatapathSystem`] for an aggregate OPT surrogate from its
/// inherent `offer`/`transmission`/`flush`/`occupancy` and objective.
macro_rules! surrogate_system {
    ($($opt:ty: $queue:ty, $label:literal, $score:ident;)*) => {$(
        impl DatapathSystem for $opt {
            type Packet = <$queue as QueueDiscipline>::Packet;

            fn label(&self) -> String {
                format!($label, self.cores())
            }

            fn meta(pkt: Self::Packet) -> (PortId, u32, u64) {
                meta_of::<$queue>(pkt)
            }

            fn offer(&mut self, pkt: Self::Packet) -> Result<ArrivalOutcome, AdmitError> {
                Ok(<$opt>::offer(self, pkt))
            }

            fn transmission_phase_into(&mut self, _: &mut Vec<Transmitted>) -> u64 {
                <$opt>::transmission(self)
            }

            fn end_slot(&mut self) {}

            fn flush(&mut self) -> u64 {
                <$opt>::flush(self)
            }

            fn occupancy(&self) -> usize {
                <$opt>::occupancy(self)
            }

            fn score(&self) -> u64 {
                self.$score()
            }
        }
    )*};
}

surrogate_system! {
    WorkPqOpt: WorkQueue, "OPT(pq,{}cores)", transmitted;
    ValuePqOpt: ValueQueue, "OPT(pq,{}cores)", transmitted_value;
    CombinedPqOpt: CombinedQueue, "OPT(density,{}cores)", transmitted_value;
}

/// The work-model name of [`DatapathSystem::label`], kept only because the
/// benchmark crate (`perfbench/`) imports it; in-tree code uses
/// [`DatapathSystem`].
pub trait WorkSystem {
    /// See [`DatapathSystem::label`].
    fn label(&self) -> String;
}

impl<S: DatapathSystem<Packet = WorkPacket>> WorkSystem for S {
    fn label(&self) -> String {
        DatapathSystem::label(self)
    }
}

/// The value-model name of [`DatapathSystem::label`], kept only because the
/// benchmark crate (`perfbench/`) imports it; in-tree code uses
/// [`DatapathSystem`].
pub trait ValueSystem {
    /// See [`DatapathSystem::label`].
    fn label(&self) -> String;
}

impl<S: DatapathSystem<Packet = ValuePacket>> ValueSystem for S {
    fn label(&self) -> String {
        DatapathSystem::label(self)
    }
}

/// The combined-model name of [`DatapathSystem::label`], kept only because
/// the benchmark crate (`perfbench/`) imports it; in-tree code uses
/// [`DatapathSystem`].
pub trait CombinedSystem {
    /// See [`DatapathSystem::label`].
    fn label(&self) -> String;
}

impl<S: DatapathSystem<Packet = CombinedPacket>> CombinedSystem for S {
    fn label(&self) -> String {
        DatapathSystem::label(self)
    }
}
