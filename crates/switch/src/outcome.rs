//! Per-packet arrival outcome taxonomy.
//!
//! Admission control resolves every offered packet into exactly one of
//! three fates: admitted into the buffer, admitted at the cost of evicting
//! a resident packet, or dropped. [`ArrivalOutcome`] captures that fate so
//! engine-level observers can attribute drops to a [`DropReason`] without
//! re-deriving policy internals.

use crate::PortId;

/// Why an offered packet was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The shared buffer was full and the policy declined to push anything
    /// out to make room.
    BufferFull,
    /// The policy rejected the packet even though buffer space remained
    /// (e.g. a harmonic/exponential static threshold said no).
    Policy,
    /// The packet never reached admission control: a full ingress ring
    /// rejected it upstream of the switch (runtime backpressure). Counted
    /// separately so ring-full rejections are never misattributed to the
    /// buffer-management policy.
    Backpressure,
    /// The packet was lost to a shard failure: its shard died and the
    /// supervisor exhausted the restart budget (or the packet vanished
    /// mid-slot inside the dying shard), so it was never served. Counted
    /// separately from both policy drops and backpressure so packet
    /// conservation holds across shard restarts.
    ShardFailure,
    /// The packet arrived over the network but never decoded into a valid
    /// frame: the datagram was truncated mid-frame or the frame failed
    /// validation (unknown port, mismatched work). Counted separately so
    /// wire-level garbage is never misattributed to the policy or to
    /// backpressure.
    NetDecode,
}

impl DropReason {
    /// Every reason, in [`DropReason::index`] order. Each per-reason tally
    /// in the workspace is an array indexed by the reason, and every report
    /// that lists reasons walks this array, so a new reason is one variant
    /// here plus its label.
    pub const ALL: [DropReason; 5] = [
        DropReason::BufferFull,
        DropReason::Policy,
        DropReason::Backpressure,
        DropReason::ShardFailure,
        DropReason::NetDecode,
    ];

    /// Number of reasons: the length of every per-reason tally.
    pub const COUNT: usize = Self::ALL.len();

    /// This reason's position in [`DropReason::ALL`].
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// True for the reasons admission control itself decides
    /// ([`DropReason::BufferFull`], [`DropReason::Policy`]); the others are
    /// edge drops, taken before a packet reaches a switch.
    pub const fn at_switch(self) -> bool {
        matches!(self, DropReason::BufferFull | DropReason::Policy)
    }

    /// A stable lowercase label, used in event logs and metric reports.
    pub fn label(&self) -> &'static str {
        match self {
            DropReason::BufferFull => "buffer_full",
            DropReason::Policy => "policy",
            DropReason::Backpressure => "backpressure",
            DropReason::ShardFailure => "shard_failure",
            DropReason::NetDecode => "net_decode",
        }
    }
}

/// The resolved fate of one offered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArrivalOutcome {
    /// The packet was admitted into free buffer space.
    Admitted,
    /// The packet was admitted after evicting a resident packet queued for
    /// the given port.
    PushedOut(PortId),
    /// The packet was rejected for the given reason.
    Dropped(DropReason),
}

impl ArrivalOutcome {
    /// True when the packet ended up in the buffer (with or without an
    /// eviction).
    pub fn admitted(&self) -> bool {
        !matches!(self, ArrivalOutcome::Dropped(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drop_reason_labels_are_stable() {
        assert_eq!(DropReason::BufferFull.label(), "buffer_full");
        assert_eq!(DropReason::Policy.label(), "policy");
        assert_eq!(DropReason::Backpressure.label(), "backpressure");
        assert_eq!(DropReason::ShardFailure.label(), "shard_failure");
        assert_eq!(DropReason::NetDecode.label(), "net_decode");
    }

    #[test]
    fn all_lists_each_reason_at_its_index() {
        for (i, r) in DropReason::ALL.into_iter().enumerate() {
            assert_eq!(r.index(), i);
        }
        let edge: Vec<_> = DropReason::ALL
            .into_iter()
            .filter(|r| !r.at_switch())
            .collect();
        assert_eq!(
            edge,
            [
                DropReason::Backpressure,
                DropReason::ShardFailure,
                DropReason::NetDecode
            ]
        );
    }

    #[test]
    fn admitted_predicate() {
        assert!(ArrivalOutcome::Admitted.admitted());
        assert!(ArrivalOutcome::PushedOut(PortId::new(0)).admitted());
        assert!(!ArrivalOutcome::Dropped(DropReason::Policy).admitted());
    }
}
